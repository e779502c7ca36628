"""The benchmark tracer wraps library names; a refactor must keep them.

``benchmarks/spans.py`` patches ``_grid._build_axis``, ``_grid._disc_bound``,
``_grid._fixed_sweep`` and ``_grid._scalar_sweep`` (the sweeps take
``(spec, eta, theta, phi)`` with axes carrying ``.n``),
``functions._quat_mul_fixed``, and the ``eval`` instance attribute of the
workload's integrands.  On the generic route it
reads ``expand``, ``shrink``, ``subtract`` and ``union`` from each region
class's own ``__dict__``, ``count_within`` and ``iter_points`` from each
packing class's, ``generic.pseudo_count``, ``generic.compute_measure`` and
``CoinnerRadiusSearch.level``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import spans  # noqa: E402
import workloads  # noqa: E402

from haar import _grid, functions, generic, quadrature, regions  # noqa: E402


@pytest.mark.usefixtures("empty_grid_cache")
def test_tracer_records_a_grid_sweep():
    calls = workloads.build(workloads.make_inputs("su2-sweep", 1))
    sweep = _grid._fixed_sweep
    tracer = spans.Tracer()
    tracer.install(calls)
    try:
        quadrature.haar_integral_su2(calls[0].specs[0], 3)
    finally:
        tracer.uninstall()
    assert _grid._fixed_sweep is sweep
    names = {s[0] for s in tracer.spans}
    assert {"quadrature.su2", "grid.build_axis", "grid.disc_bound",
            "grid.sweep"} <= names
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["grid.cells"] > 0 and metrics["grid.attempts"] >= 1


def test_tracer_records_the_translated_calls():
    # translations fold into a pre-map when built, so the sweep no longer
    # calls _quat_mul_fixed
    calls = workloads.build(workloads.make_inputs("su2-translated", 1))
    assert len(calls) == 3
    quat_mul = functions._quat_mul_fixed
    tracer = spans.Tracer()
    tracer.install(calls)
    try:
        for call in calls:
            quadrature.haar_integral_su2(call.specs[0], 3)
    finally:
        tracer.uninstall()
    assert functions._quat_mul_fixed is quat_mul
    names = [s[0] for s in tracer.spans]
    assert names.count("grid.sweep") == 3


def test_tracer_records_the_generic_layers():
    calls = workloads.build(workloads.make_inputs("generic", 1))
    ball = next(c for c in calls if c.label.startswith("circle ball"))
    integral = next(c for c in calls if "values integral" in c.label)
    originals = (regions.BoxRegion.__dict__["shrink"], generic.pseudo_count,
                 generic.CoinnerRadiusSearch.__dict__["level"])
    tracer = spans.Tracer()
    tracer.install(calls)
    try:
        ball.run()
        integral.run()
    finally:
        tracer.uninstall()
    assert (regions.BoxRegion.__dict__["shrink"], generic.pseudo_count,
            generic.CoinnerRadiusSearch.__dict__["level"]) == originals
    names = {s[0] for s in tracer.spans}
    assert {"regions.op", "packing.count_within", "generic.pseudo_count",
            "generic.radius_level"} <= names


def test_tracer_counts_one_measure_per_translation_class(monkeypatch):
    # the generic workload's circle re2 integral measures one cell of each
    # translation class, and the tracer's measure spans count exactly those
    calls = workloads.build(workloads.make_inputs("generic", 1))
    integral = next(c for c in calls if c.label.startswith("generic circle re2"))
    keys = []
    translation_class = generic._translation_class
    monkeypatch.setattr(generic, "_translation_class",
                        lambda cell: keys.append(translation_class(cell)) or keys[-1])
    tracer = spans.Tracer()
    tracer.install(calls)
    try:
        integral.run()
    finally:
        tracer.uninstall()
    (cells,) = [s[5] for s in tracer.spans if s[0] == "generic.partition"]
    measures = [s for s in tracer.spans if s[0] == "generic.measure"]
    assert len(keys) == cells > len(set(keys))
    assert len(measures) == len(set(keys))
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["generic.measure_calls"] == len(set(keys))
