"""The names the benchmark's tracer swaps must exist in the library.

``bench/tracing.py`` skips a name it cannot find, so a refactor that renames
one would silently zero a per-layer counter.  This runs one call per counted
layer with the tracer installed and checks that the counters move and the
values stay bit-identical to an untraced run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import loewner
import loewner.cli  # noqa: F401  (the tracer also swaps names in the cli namespace)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_call_per_layer():
    probe = loewner.parse_expression("free(sc:1, arc:1)")(1 + 1j)
    measure = loewner.invert_stieltjes(loewner.cauchy(loewner.Semicircle(1.0)),
                                       np.linspace(-2.2, 2.2, 201), 1e-3)
    flow = loewner.flow_forward(loewner.constant_driver(0.0), 2j, 1.0)
    return probe, measure, flow


def test_tracer_counts_leaves_and_maps_without_moving_values():
    probe, measure, flow = one_call_per_layer()
    tracer = load_tracing().Tracer(loewner)
    tracer.install()
    try:
        traced_probe, traced_measure, traced_flow = one_call_per_layer()
    finally:
        tracer.remove()
    assert tracer.counts["leaf"] > 0
    assert tracer.counts["map"] > 0
    assert traced_probe == probe
    assert traced_measure.atoms == measure.atoms
    assert np.array_equal(traced_measure.values, measure.values)
    assert traced_flow == flow
    assert tracer.stats.fn[(None, "flow_forward.alive")]["calls"] == 1
