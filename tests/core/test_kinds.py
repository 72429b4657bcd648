"""One kind spelling: every engine entry point takes a ``Kind`` member.

A bare string in the kind slot, or a batch size (``new_output(1)``),
raises ``TypeError``; ``Kind("vgh")`` is how configuration strings
(CLI flags, JSON configs, wire requests) become members.
"""

import numpy as np
import pytest

from repro.core import (
    BsplineAoS,
    BsplineAoSoA,
    BsplineBatched,
    BsplineFused,
    BsplineSoA,
    Grid3D,
    Kind,
    NestedEvaluator,
)
from repro.core.batched_reference import ReferenceBatched
from repro.parallel.orbital import OrbitalEvaluator
from repro.resilience.retry import ResilientEvaluator

GRID = Grid3D(6, 6, 6, (1.0, 1.0, 1.0))
TABLE = np.random.default_rng(0).standard_normal((6, 6, 6, 4))
POSITIONS = np.array([[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])


@pytest.fixture(scope="module")
def fanned():
    with OrbitalEvaluator(GRID, TABLE, processes=1) as evaluator:
        yield evaluator


def _aosoa():
    return BsplineAoSoA(GRID, TABLE, 2)


#: name -> engine factory; each takes the pytest ``request`` so the
#: process-backed OrbitalEvaluator is started once, and only if used.
ENGINES = {
    "aos": lambda request: BsplineAoS(GRID, TABLE),
    "soa": lambda request: BsplineSoA(GRID, TABLE),
    "fused": lambda request: BsplineFused(GRID, TABLE),
    "aosoa": lambda request: _aosoa(),
    "BsplineBatched": lambda request: BsplineBatched(GRID, TABLE),
    "ReferenceBatched": lambda request: ReferenceBatched(GRID, TABLE),
    "OrbitalEvaluator": lambda request: request.getfixturevalue("fanned"),
}

BATCHED = ("BsplineBatched", "ReferenceBatched", "OrbitalEvaluator")


def _out(name, engine):
    n = len(POSITIONS) if name in BATCHED else 1
    return engine.new_output(Kind.VGH, n=n)


def _engine_call(name, method):
    def call(request, kind):
        engine = ENGINES[name](request)
        if method == "new_output":
            return engine.new_output(kind)
        positions = POSITIONS[0] if method == "evaluate" else POSITIONS
        return getattr(engine, method)(kind, positions, _out(name, engine))

    return call


def _eval_tiles(request, kind):
    engine = _aosoa()
    out = engine.new_output(Kind.VGH)
    engine.eval_tiles(kind, range(engine.n_tiles), POSITIONS, out)


def _nested(request, kind):
    engine = _aosoa()
    with NestedEvaluator(engine, 2) as nested:
        nested.evaluate(kind, POSITIONS, engine.new_output(Kind.VGH))


def _resilient(request, kind):
    engine = _aosoa()
    with ResilientEvaluator(NestedEvaluator(engine, 2)) as resilient:
        resilient.evaluate(kind, POSITIONS, engine.new_output(Kind.VGH))


ENTRY_POINTS = {
    f"{name}.{method}": _engine_call(name, method)
    for name in ENGINES
    for method in ("new_output", "evaluate", "evaluate_batch")
    if (name, method) != ("ReferenceBatched", "evaluate")
}
ENTRY_POINTS.update(
    {
        "aosoa.eval_tiles": _eval_tiles,
        "NestedEvaluator.evaluate": _nested,
        "ResilientEvaluator.evaluate": _resilient,
    }
)

CASES = [(entry, "vgh") for entry in ENTRY_POINTS] + [
    (entry, 1) for entry in ENTRY_POINTS if entry.endswith(".new_output")
]


@pytest.mark.parametrize("entry, kind", CASES)
def test_non_member_kind_raises_type_error(entry, kind, request):
    with pytest.raises(TypeError, match="Kind member"):
        ENTRY_POINTS[entry](request, kind)
