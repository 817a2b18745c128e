"""One recorder for every factor backend in ``linsolve``.

Every scheme factors through the backends named in ``BACKENDS``, each
looked up in ``linsolve`` when a factor is built, so wrapping those names
sees every factor a run makes.  A new backend is one line in
``BACKENDS``.
"""

import functools
from typing import NamedTuple, Optional

import pytest

from biotbench import linsolve

#: each factor backend by its name in linsolve, with how a call to it gives its kd
BACKENDS = {
    "splu": lambda op, *args, **kwargs: None,
    "cholesky_banded": lambda op, kd: kd,
}


class Factor(NamedTuple):
    backend: str
    shape: tuple
    kd: Optional[int]  # half-bandwidth of a banded factor, None otherwise


class FactorLog(list):
    """The ``Factor`` of every call to a backend, in call order.

    ``around``, when set, stands in for each backend call as
    ``around(factor, op, build)``: ``factor`` is the call's record, ``op``
    its operator and ``build()`` makes the real factor.  It returns the
    factor to hand back, or raises.
    """

    around = None


@pytest.fixture
def factors(monkeypatch):
    """A ``FactorLog`` of every factor linsolve's backends make in this test."""
    log = FactorLog()

    def recording(name, backend):
        def recorded(op, *args, **kwargs):
            log.append(Factor(name, op.shape, BACKENDS[name](op, *args, **kwargs)))
            build = functools.partial(backend, op, *args, **kwargs)
            return build() if log.around is None else log.around(log[-1], op, build)
        return recorded

    for name in BACKENDS:
        monkeypatch.setattr(linsolve, name, recording(name, getattr(linsolve, name)))
    return log
