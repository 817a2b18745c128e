"""Declarative experiment configuration and the results table.

Configs are single JSON documents with a strict schema: unknown keys are
rejected with the offending field path so sweep definitions cannot fail
silently.  The results table has a fixed column set; fields that do not
apply to a run stay empty in the CSV.
"""

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from .analysis import ERROR_KEYS
from .assembly import Coefficients
from .forcing import EXPERIMENTS, problem_by_name
from .permeability import is_finite_number, model_from_config
from .stepper import IMPLICIT_PICARD, SCHEMES, SEMI_EXPLICIT, StepperConfig


class ConfigError(ValueError):
    """Invalid configuration; carries the path of the offending field."""

    def __init__(self, path, message):
        # both arguments stay in args, so the error pickles (a sweep worker
        # sends it back to the parent) and is rebuilt whole
        super().__init__(path, message)
        self.path = path

    def __str__(self):
        return f"{self.path}: {self.args[1]}"


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _check_keys(obj, path, keys, required=()):
    _expect(isinstance(obj, dict), path, "expected an object")
    unknown = set(obj) - set(keys)
    _expect(not unknown, path, f"unknown key(s): {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    _expect(not missing, path, f"missing required key(s): {missing}")


def _check_fields(obj, path, cls):
    """The keys of obj are fields of cls, and include those without a default."""
    _check_keys(obj, path, [f.name for f in fields(cls)],
                [f.name for f in fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING])


def _is_positive_number(x):
    return is_finite_number(x) and x > 0


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


@dataclass(frozen=True)
class SchemeSpec:
    scheme: str
    picard_max: int = StepperConfig.picard_max
    picard_tol: float = StepperConfig.picard_tol

    @property
    def label(self) -> str:
        if self.scheme == IMPLICIT_PICARD:
            return f"implicit_picard_{self.picard_max}"
        return self.scheme

    @staticmethod
    def parse(obj, path):
        _check_fields(obj, path, SchemeSpec)
        _expect(obj["scheme"] in SCHEMES, f"{path}.scheme", f"expected one of {SCHEMES}")
        if "picard_max" in obj:
            _expect(_is_count(obj["picard_max"]), f"{path}.picard_max",
                    "expected a positive integer")
        if "picard_tol" in obj:
            _expect(is_finite_number(obj["picard_tol"]) and 0.0 < obj["picard_tol"] < 1.0,
                    f"{path}.picard_tol", "expected a value in (0, 1)")
        return SchemeSpec(**obj)


@dataclass(frozen=True)
class ReferenceSpec:
    n_ref: int
    tau_ref: float
    scheme: SchemeSpec

    @staticmethod
    def parse(obj, path):
        _check_fields(obj, path, ReferenceSpec)
        _expect(_is_count(obj["n_ref"]), f"{path}.n_ref", "expected a positive integer")
        _expect(_is_positive_number(obj["tau_ref"]), f"{path}.tau_ref",
                "expected a positive number")
        return ReferenceSpec(n_ref=obj["n_ref"], tau_ref=float(obj["tau_ref"]),
                             scheme=SchemeSpec.parse(obj["scheme"], f"{path}.scheme"))


@dataclass
class ExperimentConfig:
    experiment: str
    schemes: list = field(default_factory=list)
    mesh_levels: list = field(default_factory=list)
    tau_levels: list = field(default_factory=list)
    alpha: Optional[float] = None           # coupling coefficient, any experiment
    alpha_values: list = field(default_factory=list)  # sweep values
    coefficients: dict = field(default_factory=dict)  # material overrides
    pairs: list = field(default_factory=list)         # (scheme, tau) for compare
    reference: Optional[ReferenceSpec] = None
    norms: list = field(default_factory=lambda: list(ERROR_KEYS))
    output_dir: str = "out"
    tau_equals_h: bool = False
    workers: int = 1
    snapshots: bool = False
    timing_repeats: int = 1


# checks on the entries of the list-valued keys and on the scalar keys
_ENTRY_CHECKS = (
    ("mesh_levels", _is_count, "a positive integer"),
    ("tau_levels", _is_positive_number, "a positive number"),
    ("alpha_values", lambda a: is_finite_number(a) and a >= 0, "a nonnegative number"),
    ("norms", lambda k: k in ERROR_KEYS, f"one of {list(ERROR_KEYS)}"),
)
_SCALAR_CHECKS = (
    ("alpha", lambda a: a is None or (is_finite_number(a) and a >= 0), "a nonnegative number"),
    ("workers", _is_count, "a positive integer"),
    ("timing_repeats", _is_count, "a positive integer"),
    ("tau_equals_h", lambda v: isinstance(v, bool), "a boolean"),
    ("snapshots", lambda v: isinstance(v, bool), "a boolean"),
    ("output_dir", lambda v: isinstance(v, str), "a string"),
)


def _items(obj, key):
    """(path, entry) for each entry of the list at obj[key]."""
    _expect(isinstance(obj[key], list), f"config.{key}", "expected a list")
    return [(f"config.{key}[{i}]", item) for i, item in enumerate(obj[key])]


def _parse_pair(pair, path):
    _check_keys(pair, path, ("scheme", "tau"), required=("scheme", "tau"))
    _expect(_is_positive_number(pair["tau"]), f"{path}.tau", "expected a positive number")
    return SchemeSpec.parse(pair["scheme"], f"{path}.scheme"), float(pair["tau"])


def _parse_coefficients(obj):
    _check_keys(obj, "config.coefficients", [f.name for f in fields(Coefficients)])
    coefficients = dict(obj)
    if "permeability" in coefficients:
        try:
            coefficients["permeability"] = model_from_config(coefficients["permeability"])
        except ValueError as exc:
            raise ConfigError("config.coefficients.permeability", str(exc)) from exc
    for key in set(coefficients) - {"permeability"}:
        _expect(is_finite_number(coefficients[key]), f"config.coefficients.{key}",
                "expected a finite number")
    return coefficients


def _check_runs(config):
    """Build the problem for each alpha, and check each step size against its T."""
    _expect("alpha" not in config.coefficients
            or (config.alpha is None and not config.alpha_values),
            "config.coefficients.alpha",
            "alpha is already given by config.alpha or config.alpha_values")
    for alpha in [config.alpha, *config.alpha_values]:
        try:
            problem = problem_by_name(config.experiment,
                                      **{"alpha": alpha, **config.coefficients})
        except ValueError as exc:
            raise ConfigError("config.coefficients", str(exc)) from exc

    steps = [(f"config.tau_levels[{i}]", tau) for i, tau in enumerate(config.tau_levels)]
    steps += [(f"config.pairs[{i}].tau", tau) for i, (_, tau) in enumerate(config.pairs)]
    if config.reference is not None:
        steps.append(("config.reference.tau_ref", config.reference.tau_ref))
        for i, n in enumerate(config.mesh_levels):
            _expect(config.reference.n_ref % n == 0, "config.reference.n_ref",
                    f"expected a multiple of config.mesh_levels[{i}] = {n}")
    for path, tau in steps:
        try:
            StepperConfig(scheme=SEMI_EXPLICIT, tau=tau, T=problem.T)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc


def parse_config(obj) -> ExperimentConfig:
    """Validate a decoded JSON document and build an ExperimentConfig.

    Absent keys take the dataclass defaults.  The problem is built for
    each alpha the config runs, so out-of-range coefficients and step sizes
    that do not divide T are config errors, found before any run.
    """
    _check_fields(obj, "config", ExperimentConfig)
    names = sorted(EXPERIMENTS)
    _expect(obj["experiment"] in names, "config.experiment", f"expected one of {names}")
    values = dict(obj)
    if "schemes" in obj:
        values["schemes"] = [SchemeSpec.parse(s, path) for path, s in _items(obj, "schemes")]
    if "pairs" in obj:
        values["pairs"] = [_parse_pair(p, path) for path, p in _items(obj, "pairs")]
    if "coefficients" in obj:
        values["coefficients"] = _parse_coefficients(obj["coefficients"])
    if obj.get("reference") is not None:
        values["reference"] = ReferenceSpec.parse(obj["reference"], "config.reference")
    for key, check, desc in _ENTRY_CHECKS:
        if key in obj:
            for path, item in _items(obj, key):
                _expect(check(item), path, f"expected {desc}")
    _expect(obj.get("norms") != [], "config.norms", "expected a nonempty list")
    for key, check, desc in _SCALAR_CHECKS:
        if key in obj:
            _expect(check(obj[key]), f"config.{key}", f"expected {desc}")

    config = ExperimentConfig(**values)
    # results are keyed by label, and a pair's also by tau: a repeat would overwrite
    for key, what, entries in (
            ("schemes", "label", [s.label for s in config.schemes]),
            ("pairs", "(label, tau)", [(s.label, tau) for s, tau in config.pairs])):
        for i, entry in enumerate(entries):
            _expect(entry not in entries[:i], f"config.{key}[{i}]",
                    f"repeats the {what} {entry!r} of an earlier entry")
    _check_runs(config)
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return parse_config(obj)


_ERR_COLUMN_BY_KEY = {
    "u_a": "err_u_a", "u_hv": "err_u_HV", "p_c": "err_p_c",
    "p_q": "err_p_Q", "p_hq": "err_p_HQ", "triple": "err_triple",
}
#: the error columns, in ``ERROR_KEYS`` order
ERR_COLUMNS = tuple(_ERR_COLUMN_BY_KEY[k] for k in ERROR_KEYS)

CSV_COLUMNS = (
    "scheme", "h", "tau", "alpha", *ERR_COLUMNS,
    "order_u_a", "order_p_c", "picard_mean", "picard_max", "wall_time_s",
    "blowup_flag",
)


def _format(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_text(header, rows) -> str:
    """CSV text of every output file: the header line, then one line per row
    of values, each formatted by ``_format``."""
    lines = [",".join(header)] + [",".join(map(_format, row)) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass
class ResultsTable:
    """Rows of benchmark results with a fixed CSV schema."""

    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)

    def add_row(self, **fields):
        unknown = set(fields) - set(CSV_COLUMNS)
        if unknown:
            raise ValueError(f"unknown result column(s): {sorted(unknown)}")
        self.rows.append({col: fields.get(col) for col in CSV_COLUMNS})

    def sort(self):
        self.rows.sort(key=lambda r: (str(r["scheme"]), -(r["h"] or 0.0),
                                      -(r["tau"] or 0.0), r["alpha"] or 0.0))

    def to_csv(self) -> str:
        return csv_text(CSV_COLUMNS, ([row[col] for col in CSV_COLUMNS] for row in self.rows))


def error_columns(report_relative: dict) -> dict:
    """Map an ErrorReport.relative dict onto CSV column names."""
    return {_ERR_COLUMN_BY_KEY[k]: v for k, v in report_relative.items()
            if k in _ERR_COLUMN_BY_KEY}
