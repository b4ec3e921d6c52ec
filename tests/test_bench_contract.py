"""What the benchmark relies on in the library and the CLI.

``bench/tracing.py`` skips a name it cannot find, so a refactor that renames
one would silently zero a per-layer counter.  This runs one call per counted
layer with the tracer installed and checks that the counters move and the
values stay bit-identical to an untraced run.

``bench/workloads.py`` runs some command lines through their handlers, as
``build_parser().parse_args(argv)`` and then ``args.handler(args)``, without
``cli.run``.  A handler reads only its parsed ``args``, and the parser holds
every default, so that route must write what ``cli.run`` writes; the tests
below run subcommands that way.
"""

import importlib.util
import shlex
from pathlib import Path

import numpy as np
import pytest

import loewner
import loewner.cli  # noqa: F401  (the tracer also swaps names in the cli namespace)
from loewner.cli import build_parser, run
from loewner.errors import MassDeficitError

from test_cli import readme_command_lines

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


def handler(argv):
    """Run a subcommand as the benchmark does: its handler, without ``cli.run``."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


def with_out_in(argv, where):
    """``argv`` with the ``--out`` path moved into the directory ``where``."""
    return [str(where / a) if flag == "--out" else a for flag, a in zip(["", *argv], argv)]


@pytest.mark.parametrize("line", readme_command_lines(), ids=lambda line: line.split()[1])
def test_readme_line_through_its_handler(tmp_path, capsys, line):
    argv = shlex.split(line)[1:]
    produced = []
    for name, call in (("run", run), ("handler", handler)):
        where = tmp_path / name
        where.mkdir()
        assert call(with_out_in(argv, where)) == 0
        produced.append((capsys.readouterr().out,
                         [p.read_bytes() for p in sorted(where.iterdir())]))
    assert produced[0] == produced[1]


def test_grid_missing_the_support_raises_through_the_handler(tmp_path):
    # the free(sc:1, sc:1) support is [-2 sqrt 2, 2 sqrt 2]
    with pytest.raises(MassDeficitError):
        handler(["convolve", "--expr", "free(sc:1, sc:1)", "--grid=-2.5:2.5:2001",
                 "--eps", "1e-4", "--out", str(tmp_path / "free.csv")])


def test_burgers_9x9_through_the_handler(tmp_path, capsys):
    out = tmp_path / "burgers9.csv"
    assert handler(["burgers", "--t", "0.2:1:9", "--re=-1:1:9", "--im", "1",
                    "--out", str(out)]) == 0
    residuals = np.loadtxt(out, delimiter=",", skiprows=1)[:, 3]
    assert len(residuals) == 81 and residuals.max() < 1e-3
