"""Declarative experiment configuration and the results table.

Configs are single JSON documents with a strict schema: unknown keys are
rejected with the offending field path so sweep definitions cannot fail
silently.  The results table has a fixed column set; fields that do not
apply to a run stay empty in the CSV.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .analysis import ERROR_KEYS
from .permeability import model_from_config
from .stepper import IMPLICIT_PICARD, SCHEMES


class ConfigError(ValueError):
    """Invalid configuration; carries the path of the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _check_keys(obj, path, required, optional=()):
    _expect(isinstance(obj, dict), path, "expected an object")
    unknown = set(obj) - set(required) - set(optional)
    _expect(not unknown, path, f"unknown key(s): {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    _expect(not missing, path, f"missing required key(s): {missing}")


@dataclass(frozen=True)
class SchemeSpec:
    scheme: str
    picard_max: int = 10
    picard_tol: float = 1e-9

    @property
    def label(self) -> str:
        if self.scheme == IMPLICIT_PICARD:
            return f"implicit_picard_{self.picard_max}"
        return self.scheme

    @staticmethod
    def parse(obj, path):
        _check_keys(obj, path, required=("scheme",), optional=("picard_max", "picard_tol"))
        scheme = obj["scheme"]
        _expect(scheme in SCHEMES, f"{path}.scheme", f"expected one of {SCHEMES}")
        spec = SchemeSpec(scheme=scheme,
                          picard_max=obj.get("picard_max", 10),
                          picard_tol=obj.get("picard_tol", 1e-9))
        _expect(isinstance(spec.picard_max, int) and spec.picard_max >= 1,
                f"{path}.picard_max", "expected a positive integer")
        _expect(0.0 < spec.picard_tol < 1.0, f"{path}.picard_tol",
                "expected a value in (0, 1)")
        return spec


@dataclass(frozen=True)
class ReferenceSpec:
    n_ref: int
    tau_ref: float
    scheme: SchemeSpec

    @staticmethod
    def parse(obj, path):
        _check_keys(obj, path, required=("n_ref", "tau_ref", "scheme"))
        _expect(isinstance(obj["n_ref"], int) and obj["n_ref"] >= 1,
                f"{path}.n_ref", "expected a positive integer")
        _expect(_is_positive_number(obj["tau_ref"]), f"{path}.tau_ref",
                "expected a positive number")
        return ReferenceSpec(n_ref=obj["n_ref"], tau_ref=float(obj["tau_ref"]),
                             scheme=SchemeSpec.parse(obj["scheme"], f"{path}.scheme"))


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_positive_number(x):
    return _is_number(x) and x > 0


@dataclass
class ExperimentConfig:
    experiment: str
    schemes: list
    mesh_levels: list
    tau_levels: list
    alpha: Optional[float] = None           # experiment parameter (ex43)
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


_TOP_LEVEL_OPTIONAL = (
    "schemes", "mesh_levels", "tau_levels", "alpha", "alpha_values", "coefficients",
    "pairs", "reference", "norms", "output_dir", "tau_equals_h", "workers",
    "snapshots", "timing_repeats",
)

_COEFF_KEYS = ("lam", "mu", "alpha", "M", "kappa_over_nu", "permeability")


def parse_config(obj) -> ExperimentConfig:
    """Validate a decoded JSON document and build an ExperimentConfig."""
    _check_keys(obj, "config", required=("experiment",), optional=_TOP_LEVEL_OPTIONAL)
    _expect(obj["experiment"] in ("ex41", "ex42", "ex43"), "config.experiment",
            "expected one of ['ex41', 'ex42', 'ex43']")

    schemes = [SchemeSpec.parse(s, f"config.schemes[{i}]")
               for i, s in enumerate(obj.get("schemes", []))]

    mesh_levels = obj.get("mesh_levels", [])
    _expect(isinstance(mesh_levels, list), "config.mesh_levels", "expected a list")
    for i, n in enumerate(mesh_levels):
        _expect(isinstance(n, int) and n >= 1, f"config.mesh_levels[{i}]",
                "expected a positive integer")

    tau_levels = obj.get("tau_levels", [])
    _expect(isinstance(tau_levels, list), "config.tau_levels", "expected a list")
    for i, tau in enumerate(tau_levels):
        _expect(_is_positive_number(tau), f"config.tau_levels[{i}]",
                "expected a positive number")

    alpha = obj.get("alpha")
    if alpha is not None:
        _expect(_is_number(alpha) and alpha >= 0, "config.alpha",
                "expected a nonnegative number")

    alpha_values = obj.get("alpha_values", [])
    _expect(isinstance(alpha_values, list), "config.alpha_values", "expected a list")
    for i, a in enumerate(alpha_values):
        _expect(_is_number(a) and a >= 0, f"config.alpha_values[{i}]",
                "expected a nonnegative number")

    coefficients = dict(obj.get("coefficients", {}))
    _check_keys(coefficients or {}, "config.coefficients", required=(),
                optional=_COEFF_KEYS)
    if "permeability" in coefficients:
        try:
            coefficients["permeability"] = model_from_config(coefficients["permeability"])
        except ValueError as exc:
            raise ConfigError("config.coefficients.permeability", str(exc)) from exc
    for key in set(coefficients) - {"permeability"}:
        _expect(_is_number(coefficients[key]), f"config.coefficients.{key}",
                "expected a finite number")

    pairs = []
    raw_pairs = obj.get("pairs", [])
    _expect(isinstance(raw_pairs, list), "config.pairs", "expected a list")
    for i, pair in enumerate(raw_pairs):
        path = f"config.pairs[{i}]"
        _check_keys(pair, path, required=("scheme", "tau"))
        _expect(_is_positive_number(pair["tau"]), f"{path}.tau",
                "expected a positive number")
        pairs.append((SchemeSpec.parse(pair["scheme"], f"{path}.scheme"),
                      float(pair["tau"])))

    reference = None
    if obj.get("reference") is not None:
        reference = ReferenceSpec.parse(obj["reference"], "config.reference")

    norms = obj.get("norms", list(ERROR_KEYS))
    _expect(isinstance(norms, list) and norms, "config.norms", "expected a nonempty list")
    for i, kind in enumerate(norms):
        _expect(kind in ERROR_KEYS, f"config.norms[{i}]",
                f"expected one of {list(ERROR_KEYS)}")

    for key, kind_check, desc in (("workers", lambda v: isinstance(v, int) and v >= 1,
                                   "a positive integer"),
                                  ("timing_repeats", lambda v: isinstance(v, int) and v >= 1,
                                   "a positive integer"),
                                  ("tau_equals_h", lambda v: isinstance(v, bool), "a boolean"),
                                  ("snapshots", lambda v: isinstance(v, bool), "a boolean"),
                                  ("output_dir", lambda v: isinstance(v, str), "a string")):
        if key in obj:
            _expect(kind_check(obj[key]), f"config.{key}", f"expected {desc}")

    return ExperimentConfig(
        experiment=obj["experiment"], schemes=schemes, mesh_levels=mesh_levels,
        tau_levels=tau_levels, alpha=alpha, alpha_values=alpha_values,
        coefficients=coefficients, pairs=pairs, reference=reference, norms=norms,
        output_dir=obj.get("output_dir", "out"),
        tau_equals_h=obj.get("tau_equals_h", False), workers=obj.get("workers", 1),
        snapshots=obj.get("snapshots", False),
        timing_repeats=obj.get("timing_repeats", 1),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return parse_config(obj)


CSV_COLUMNS = (
    "scheme", "h", "tau", "alpha",
    "err_u_a", "err_u_HV", "err_p_c", "err_p_Q", "err_p_HQ", "err_triple",
    "order_u_a", "order_p_c", "picard_mean", "picard_max", "wall_time_s",
    "blowup_flag",
)

_ERR_COLUMN_BY_KEY = {
    "u_a": "err_u_a", "u_hv": "err_u_HV", "p_c": "err_p_c",
    "p_q": "err_p_Q", "p_hq": "err_p_HQ", "triple": "err_triple",
}


def _format(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


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
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_format(row[col]) for col in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def error_columns(report_relative: dict) -> dict:
    """Map an ErrorReport.relative dict onto CSV column names."""
    return {_ERR_COLUMN_BY_KEY[k]: v for k, v in report_relative.items()
            if k in _ERR_COLUMN_BY_KEY}
