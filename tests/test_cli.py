import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loewner
from loewner.cli import _fmt, _write_csv, run
from loewner.evolution import sle_driving
from loewner.flows import AtomPath, SemicircleFamily, flow_forward

from conftest import gaussian_empirical


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestTrace:
    def test_vertical_segment_tip(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run(["trace", "--driver", "const:0", "--T", "1", "--steps", "100",
                    "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["t", "re", "im"]
        assert len(rows) == 101
        t, re, im = (float(v) for v in rows[-1])
        assert t == 1.0
        assert abs(re) < 1e-6
        assert im == pytest.approx(math.sqrt(2.0), abs=1e-6)


class TestConvolve:
    def test_probe_value(self, capsys):
        code = run(["convolve", "--expr", "mono(arcsine:1, arcsine:1)", "--probe", "2i"])
        assert code == 0
        kind, re, im = capsys.readouterr().out.split()
        assert kind == "f"
        assert float(re) == pytest.approx(0.0, abs=1e-10)
        assert float(im) == pytest.approx(math.sqrt(8.0), abs=1e-6)

    def test_materialize_to_csv(self, tmp_path):
        out = tmp_path / "dens.csv"
        code = run(["convolve", "--expr", "free(sc:0.5, sc:0.5)",
                    "--grid=-2.2:2.2:1101", "--eps", "1e-4", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["x", "density"]
        xs = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        mid = np.argmin(np.abs(xs))
        assert vals[mid] == pytest.approx(1.0 / math.pi, abs=1e-2)


def readme_command_lines():
    """The ``loewner ...`` lines of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.strip().splitlines() if line.startswith("loewner ")]


#: sha256 of each README line's stdout followed by its output files in name order.
#: A change that moves these bytes updates the digest and names the moved outputs.
README_SHA256 = {
    "loewner trace --driver const:0 --T 1 --steps 100 --out trace.csv":
        "0fed74cdfd50f4f18ae56b30a28e9db56d17639a243f6a6cc7a6de36b84f7d2d",
    "loewner welding --driver const:0 --T 1 --pairs 50 --out weld.csv":
        "870280b4acc40b732491e6a31033d59dc91f2623769fb6f5ee02f7f37bbc2e17",
    'loewner convolve --expr "mono(arcsine:1, arcsine:1)" --probe 2i':
        "daaedad81f42dcec2f75595dbf344f541a43d254b8f6ae297dced27a252bd0fd",
    'loewner convolve --expr "free(sc:1, sc:1)" --grid=-3:3:2001 --eps 1e-4 --out dens.csv':
        "924fe63759c8fe1e08c3853a4a6945107afc3930856caf00fef496f6ddadc0a9",
    "loewner density --measure semicircle:1 --grid=-2.2:2.2:2201 --eps 1e-4 --out sc.csv":
        "ad216ecc5274ff75bb6424d906468f97de77417d060fab91a6947cca5b9f6e63",
    "loewner family --driver const:0 --semantics free --s 0 --t 1 --z 0.5i --out fam.csv":
        "f9c50212ba637aa229cf6fd7d6ff89665121f50493073a1ff938430442a45071",
    "loewner sle --kappa 2 --dt 0.015625 --T 1 --seed 7 --out path.csv":
        "ecd22187293f6a8ed00d8e0205313da194852bf9dcd19bba43824759ed805ef4",
    "loewner burgers --t 0.2:1:5 --re=-1:1:5 --im 1 --out burgers.csv":
        "70c368e34546ddd11b661b5241daa13fa288830f985df98c8e37950b1d46b928",
    "loewner flow --driver const:0 --z 2i --T 1 --steps 50 --out flow.csv":
        "9f9a6cf977d3c668ebe879cd5f975bc3b9f45b64cb5768dc8407d4fb4d5e76f4",
}


class TestReadme:
    @pytest.mark.parametrize("line", readme_command_lines(), ids=lambda line: line.split()[1])
    def test_command_line_runs(self, tmp_path, capsys, line):
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        code = run(argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        if argv[0] == "selftest":  # its stdout carries a runtime
            return
        digest = hashlib.sha256(out.encode())
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == README_SHA256[line]


class TestVectorizedDeterminism:
    """Grid materializations evaluate whole arrays; their CSV bytes must not
    depend on the run (one in-process, one in a fresh interpreter)."""

    @pytest.mark.parametrize("argv", [
        ["density", "--measure", "semicircle:1", "--grid=-2.2:2.2:2201", "--eps", "1e-4"],
        ["convolve", "--expr", "mono(arcsine:1, arcsine:1)", "--grid=-2:2:801", "--eps", "1e-3"],
        # the measure's own grid: both heights are Empirical rows, taken by FFT
        ["density", "--measure", "@emp.json", "--grid=-4:4:2001", "--eps", "1e-3"],
    ], ids=["density", "convolve-mono", "density-empirical"])
    def test_csv_bytes_repeat(self, tmp_path, monkeypatch, argv):
        m = gaussian_empirical()
        (tmp_path / "emp.json").write_text(json.dumps({"a": m.a, "b": m.b,
                                                       "values": m.values.tolist()}))
        monkeypatch.chdir(tmp_path)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run(argv + ["--out", str(first)]) == 0
        src = str(Path(loewner.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "loewner", *argv, "--out", str(second)],
                       env=env, cwd=tmp_path, check=True)
        assert first.read_bytes() == second.read_bytes()


class TestDensity:
    def test_atoms_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        atoms = tmp_path / "atoms.csv"
        code = run(["density", "--measure", "dirac:0", "--grid=-0.5:0.5:201",
                    "--eps", "1e-4", "--out", str(out), "--atoms-out", str(atoms)])
        assert code == 0
        header, rows = read_rows(atoms)
        assert header == ["location", "mass"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-3)

    def test_mass_deficit_exit_code(self, tmp_path):
        code = run(["density", "--measure", "semicircle:1", "--grid=-1:1:301",
                    "--eps", "1e-4", "--out", str(tmp_path / "d.csv")])
        assert code == 3

    def test_infinite_radius_exits_2(self, tmp_path, capsys):
        # var = 1e308 is finite, its arcsine radius sqrt(2 var) is not; this used to
        # write a NaN density and exit 0
        code = run(["density", "--measure", "arc:1e308", "--grid=-1:1:5",
                    "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSle:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sle", "--seed", "7", "--out", str(a)]) == 0
        assert run(["sle", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_start(self, tmp_path):
        out = tmp_path / "path.csv"
        run(["sle", "--kappa", "2", "--dt", "0.125", "--T", "1", "--seed", "1",
             "--out", str(out)])
        header, rows = read_rows(out)
        assert header == ["t", "u"]
        assert len(rows) == 9
        assert rows[0] == ["0", "0"]


class TestFlow:
    def test_swallowed_point_stops(self, tmp_path):
        out = tmp_path / "flow.csv"
        code = run(["flow", "--driver", "const:0", "--z", "1i", "--T", "1",
                    "--steps", "10", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header[:4] == ["t", "re", "im", "alive"]
        assert rows[-1][3] == "0"
        assert float(rows[-1][4]) == pytest.approx(0.5, abs=1e-6)


class TestFamilyAndBurgers:
    def test_family_free_semantics(self, tmp_path):
        out = tmp_path / "fam.csv"
        code = run(["family", "--driver", "const:0", "--semantics", "free",
                    "--s", "0", "--t", "1", "--z", "0.5i", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        # R_{0,1}(z) = z for the centered point-mass driver
        assert float(rows[0][5]) == pytest.approx(0.5, abs=1e-9)

    def test_burgers_fixed_point(self, tmp_path, capsys):
        out = tmp_path / "burgers.csv"
        code = run(["burgers", "--t", "0.5:1:2", "--re=-0.5:0.5:2", "--im", "1.5",
                    "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("max residual")
        assert float(printed.split()[-1]) < 1e-3

    def test_burgers_readme_grid_9x9(self, tmp_path, capsys):
        # this grid leaves a round-off remainder of the span at t = 0.699,
        # which must end the integration, not stall it
        out = tmp_path / "burgers.csv"
        code = run(["burgers", "--t", "0.2:1:9", "--re=-1:1:9", "--im", "1",
                    "--out", str(out)])
        assert code == 0
        assert float(capsys.readouterr().out.split()[-1]) < 1e-3
        _, rows = read_rows(out)
        assert len(rows) == 81

    def test_burgers_decreasing_time_grid(self, tmp_path, capsys):
        # the driver must reach the latest time of the grid, not its last one
        down, up = tmp_path / "down.csv", tmp_path / "up.csv"
        for grid, out in (("3:0.2:3", down), ("0.2:3:3", up)):
            assert run(["burgers", "--driver", "const:0", "--t", grid, "--re=-1:1:2",
                        "--out", str(out)]) == 0
        _, rows_down = read_rows(down)
        _, rows_up = read_rows(up)
        # the end times agree bit for bit; linspace rounds the middle one apart
        # (1.6000000000000001 going down, 1.5999999999999999 going up)
        assert rows_down[:2] == rows_up[4:] and rows_down[4:] == rows_up[:2]

    def test_burgers_step_past_a_sampled_horizon(self, tmp_path, capsys):
        # the residual reads the driver up to the latest time plus --step
        out = tmp_path / "burgers.csv"
        assert run(["burgers", "--driver", "sle:2", "--step", "0.02", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 25


class TestWeldingCommand:
    def test_summary_line(self, tmp_path, capsys):
        out = tmp_path / "weld.csv"
        code = run(["welding", "--driver", "const:0", "--T", "0.5", "--pairs", "4",
                    "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        fields = dict(part.split("=") for part in summary.split())
        assert float(fields["a"]) == pytest.approx(-1.0, abs=1e-4)
        assert float(fields["b"]) == pytest.approx(1.0, abs=1e-4)
        assert float(fields["u"]) == pytest.approx(0.0, abs=1e-9)


class TestSelftest:
    def test_subset_passes(self, capsys):
        code = run(["selftest", "--criteria", "reverse_flow_closed_form"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS  reverse_flow_closed_form" in out

    def test_only_selftest_imports_the_criteria(self):
        # a fresh interpreter: importing the CLI leaves the acceptance module unloaded
        src = str(Path(loewner.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", "import sys, loewner.cli; "
                               "print('loewner.acceptance' in sys.modules)"],
                              env=env, capture_output=True, timeout=120, check=True)
        assert done.stdout.decode().split() == ["False"]


#: a measure-path driver whose second piece is an Empirical law, which has no exact map
EMPIRICAL_DRIVER = ('{"kind":"measure-path","breakpoints":[0,0.25],"measures":['
                    '{"kind":"semicircle","var":1},{"kind":"empirical","atoms":[[0,1]]}]}')

#: one complete command line per subcommand, each with --tol added
TOL_ARGVS = [
    ["flow", "--driver", "const:0", "--z", "1i", "--T", "0.5"],
    ["family", "--driver", "sle:2", "--t", "0.5", "--z", "1i"],
    ["burgers", "--t", "0.2:1:2"],
    ["trace", "--driver", "const:0", "--T", "1"],
    ["welding", "--driver", "const:0", "--T", "1"],
    ["density", "--measure", "sc:1", "--grid=-2.2:2.2:11"],
    ["sle"],
    ["convolve", "--expr", "sc:1", "--probe", "1i"],
    ["selftest", "--criteria", "lifetime_bisection"],
]


class TestExitCodes:
    @pytest.mark.parametrize("argv", TOL_ARGVS, ids=[argv[0] for argv in TOL_ARGVS])
    def test_tol_exits_2_on_every_subcommand(self, tmp_path, capsys, argv):
        # every solve is an exact map, so no subcommand takes an error target
        out = tmp_path / "x.csv"
        tail = [] if argv[0] in ("convolve", "selftest") else ["--out", str(out)]
        assert run(argv + ["--tol", "1e-8"] + tail) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert not out.exists()

    def test_empirical_driver_piece_is_named(self, tmp_path, capsys):
        code = run(["flow", "--driver", EMPIRICAL_DRIVER, "--z", "1i", "--T", "0.5",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2 and "measures[1]" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_driver_spec(self, tmp_path, capsys):
        code = run(["trace", "--driver", "nonsense", "--T", "1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_required_flag(self, capsys):
        assert run(["trace", "--driver", "const:0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["density", "--measure", "sc:1", "--grid=-2.2:2.2:11", "--tol", "1e-8"],
        ["density", "--measure", "sc:1", "--grid=-2.2:2.2:11", "--seed", "1"],
        ["sle", "--tol", "1e-8"],
        ["welding", "--driver", "const:0", "--T", "1", "--tol", "1e-8"],
        ["trace", "--driver", "const:0", "--T", "1", "--tol", "1e-8"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "1", "--config", "c.json"],
    ], ids=["density-tol", "density-seed", "sle-tol", "welding-tol", "trace-tol", "flow-config"])
    def test_flag_the_subcommand_does_not_take(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["density", "--grid=-1:1:11", "--measure", "dirac:abc"],
        ["density", "--grid=-1:1:11", "--measure", "sc:1:2"],
        ["density", "--grid=-1:1:11", "--measure", "sc:inf"],
        ["density", "--grid=-1:1:11", "--measure", '{"kind":"dirac"}'],
        ["density", "--grid=-1:1:11", "--measure", '{"kind":'],
        ["density", "--grid=-1:1:11", "--measure", "@no-such-measure.json"],
        ["convolve", "--expr", "sc:abc", "--probe", "1i"],
        ["convolve", "--expr", "free(sc:1,sc:(1))", "--probe", "1i"],
        ["flow", "--driver", "line:1", "--z", "1i", "--T", "1"],
        ["flow", "--driver", "const:x", "--z", "1i", "--T", "1"],
        ["flow", "--driver", "sle:a", "--z", "1i", "--T", "1"],
        ["flow", "--driver", '{"kind":"measure-path","breakpoints":0,'
         '"measures":[{"kind":"dirac","location":0}]}', "--z", "2i", "--T", "1"],
        ["flow", "--driver", '{"kind":"measure-path","breakpoints":[0],"measures":5}',
         "--z", "2i", "--T", "1"],
        ["flow", "--driver", '{"kind":"atom-path","times":[0,1],"values":["x",2]}',
         "--z", "2i", "--T", "1"],
        ["selftest", "--criteria", "bogus"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "nan"],
        ["flow", "--driver", "sc-family", "--z", "1i", "--T", "nan"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "inf"],
        ["flow", "--driver", '{"kind":"atom-path","times":[0,Infinity],"values":[0,0]}',
         "--z", "1i", "--T", "1"],
        ["trace", "--driver", "const:0", "--T", "nan"],
        ["trace", "--driver", "sle:6", "--T", "inf"],
        ["burgers", "--step", "0"],
        ["burgers", "--step", "nan"],
        ["burgers", "--step", "inf"],
        ["density", "--grid=0:inf:3", "--measure", "sc:1"],
        ["density", "--grid=nan:1:3", "--measure", "sc:1"],
        ["density", "--grid=-inf:1:5", "--measure", "sc:1"],
        ["flow", "--driver", EMPIRICAL_DRIVER, "--z", "1i", "--T", "0.5"],
        ["family", "--driver", EMPIRICAL_DRIVER, "--t", "0.5", "--z", "1i"],
        ["burgers", "--driver", EMPIRICAL_DRIVER, "--t", "0.2:1:2"],
        ["family", "--driver", EMPIRICAL_DRIVER, "--semantics", "free", "--t", "0.5", "--z", "1i"],
        ["flow", "--driver", "sle:2:0", "--z", "1i", "--T", "0.5"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "0.5", "--steps", "-1"],
        ["density", "--grid=-1:1:0", "--measure", "sc:1"],
        ["convolve", "--expr", "mono(arcsine:1, arcsine:1)", "--probe=nan+1i"],
        ["convolve", "--expr", "free(sc:1, sc:1)", "--probe=nan+1i"],
        ["sle", "--kappa", "nan"],
        ["burgers", "--im", "inf"],
        ["family", "--driver", "const:0", "--semantics", "free", "--z", "1e308+1e308i",
         "--t", "1"],
        ["family", "--driver", "const:0", "--semantics", "free", "--z", "nan+1i", "--t", "1"],
        ["family", "--driver", "const:0", "--semantics", "free", "--z", "inf", "--t", "1"],
        ["family", "--driver", "const:0", "--z", "1+infi", "--t", "1"],
        ["flow", "--driver", "const:0", "--z", "inf", "--T", "1"],
        ["convolve", "--expr", "free(sc:1, sc:1)", "--probe=inf+1i"],
        # past |z| = 2**1022, 1/z is subnormal
        ["convolve", "--expr", "free(sc:1, sc:1)", "--probe=1e308+1e308i"],
        ["convolve", "--expr", "mono(arcsine:1, arcsine:1)", "--probe=1e308+1e308i"],
        ["convolve", "--expr", "mono(sc:1, arc:1)", "--probe=1e308+1e308i"],
        ["convolve", "--expr", "anti(sc:1, arc:1)", "--probe=1e308+1e308i"],
        # a:b:n specs need an integer n >= 1
        ["density", "--measure", "sc:1", "--grid=-2:2:-5"],
        ["convolve", "--expr", "mono(arc:1, arc:1)", "--grid=-2:2:-3", "--eps", "1e-3",
         "--out", os.devnull],
        ["burgers", "--t", "0:1:-2"],
        ["burgers", "--re=-1:1:-1"],
        ["burgers", "--t", "0:1:0", "--driver", "const:0"],
        ["flow", "--driver", "const:0", "--z", "1+2x", "--T", "1"],
        ["density", "--measure", "sc:1", "--grid=1:2"],
        ["burgers", "--t=-0.5:1:3"],  # f_t has no negative times
        ["burgers", "--t", "0.2:1:2", "--im", "-1"],
        ["family", "--driver", "const:0", "--s", "2", "--t", "1", "--z", "1i"],
        # non-finite measure fields
        ["family", "--driver", '{"kind":"measure-path","breakpoints":[0],"measures":'
         '[{"kind":"semicircle","var":1,"center":Infinity}]}', "--t", "1", "--z", "1i"],
        ["density", "--measure", '{"kind":"arcsine","var":1,"center":NaN}', "--grid=-2:2:41"],
        ["density", "--measure", '{"atoms": [[Infinity, 1]]}', "--grid=-2:2:41"],
        ["density", "--measure", '{"atoms": [[NaN, 1]]}', "--grid=-2:2:41"],
        ["density", "--measure", '{"a": -1, "b": 1, "values": [0.5, NaN, 0.5]}',
         "--grid=-2:2:41"],
        ["density", "--measure", '{"a": -Infinity, "b": 1, "values": [0.5, 0.5, 0.5]}',
         "--grid=-2:2:41"],
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, argv):
        # complete commands, so only the spec is wrong
        out = tmp_path / "x.csv"
        if argv[0] in ("density", "flow", "trace", "burgers", "family", "sle"):
            argv = argv + ["--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["burgers", "--t=-0.5:1:3"], "--t"),
        (["burgers", "--t", "0.2:1:2", "--im", "-1"], "--im"),
        (["family", "--driver", "const:0", "--s", "2", "--t", "1", "--z", "1i"], "--s"),
        # a Philox key is 128 bits; numpy refuses these step counts before allocating
        (["sle", "--seed", str(2 ** 200)], "seed"),
        (["sle", "--dt", "1e-300"], "dt"),
        (["sle", "--dt", "1e-14"], "dt"),
        (["flow", "--driver", "sle:2:1e-300", "--z", "1i", "--T", "1"], "dt"),
        (["burgers", "--driver", "sle:2", "--step", "nan"], "--step"),
    ], ids=["burgers-t", "burgers-im", "family-s", "sle-seed", "sle-dt", "sle-dt-alloc",
            "flow-sle-dt", "burgers-step"])
    def test_error_names_the_input(self, tmp_path, capsys, argv, name):
        # the flag or the parameter, not the library function that refuses it
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["family", "--driver", "const:0", "--semantics", "free", "--z", "inf", "--t", "1"],
        ["family", "--driver", "const:0", "--z", "1+infi", "--t", "1"],
        ["flow", "--driver", "const:0", "--z", "inf", "--T", "1"],
        ["convolve", "--expr", "free(sc:1, sc:1)", "--probe=inf+1i"],
    ], ids=["family-free", "family", "flow", "convolve"])
    def test_infinite_point_parses_and_is_not_finite(self, tmp_path, capsys, argv):
        # only a unit "i" becomes "j", so "inf" parses and meets the finite-value checks
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["free(sc:1, sc:1)", "mono(arcsine:1, arcsine:1)",
                                      "mono(sc:1, arc:1)", "anti(sc:1, arc:1)",
                                      "free(sc:1, arc:1)"])
    def test_probe_bound(self, capsys, expr):
        # just inside |z| <= 2**1022 every expression evaluates, on the axis and off it;
        # just outside, the bound is named
        for angle in (0.0, 0.3, math.pi / 4, math.pi / 2, 2.5, 3.1):
            z = 0.999 * 2.0 ** 1022 * complex(math.cos(angle), math.sin(angle))
            assert run(["convolve", "--expr", expr, f"--probe={z.real!r}+{z.imag!r}i"]) == 0
            kind, re_, im_ = capsys.readouterr().out.split()
            assert math.isfinite(float(re_)) and math.isfinite(float(im_))
        assert run(["convolve", "--expr", expr, f"--probe={1.001 * 2.0 ** 1022!r}i"]) == 2
        assert "2**1022" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["flow", "--driver", "sc-family", "--z", "1i", "--T", "inf"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "-1"],
        ["trace", "--driver", "const:0", "--T", "-1"],
        ["welding", "--driver", "const:0", "--T", "inf"],
        ["welding", "--driver", "const:0", "--T", "-1"],
        ["family", "--driver", "const:0", "--z", "1i", "--t", "inf"],
        ["family", "--driver", "const:0", "--z", "1i", "--t", "nan"],
        ["family", "--driver", "const:0", "--z", "1i", "--t", "-1"],
    ])
    def test_bad_horizon_is_named_before_use(self, tmp_path, capsys, argv):
        # checked before the time samples and the const:/line: driver horizon T + 1
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (f"error: {argv[-2]} must be finite and nonnegative, "
                                           f"got {float(argv[-1])}\n")

    def test_convolve_needs_a_probe_or_an_out(self, capsys):
        assert run(["convolve", "--expr", "free(sc:1, sc:1)", "--grid=-3:3:11"]) == 2
        assert capsys.readouterr().err == "error: materializing needs --out (or use --probe)\n"

    def test_free_family_at_zero(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run(["family", "--driver", "const:0", "--semantics", "free", "--s", "0",
                    "--t", "1", "--z", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestMain:
    @pytest.mark.parametrize("argv, code", [
        (["sle", "--seed", "7"], 0),
        (["density", "--measure", "sc:1", "--grid=1:2"], 2),
        (["convolve", "--expr", "free(sc:1, sc:1)", "--grid=-2.5:2.5:2001", "--eps", "1e-4"], 3),
    ], ids=["ok", "validation", "numeric"])
    def test_module_exits_with_the_code(self, tmp_path, argv, code):
        # python -m loewner calls main(), which hands run()'s code to sys.exit
        src = str(Path(loewner.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "loewner", *argv,
                               "--out", str(tmp_path / "x.csv")],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == code, done.stderr.decode()


class TestDriverSpecs:
    @pytest.mark.parametrize("spec, driver", [
        ("line:0.5:-1", AtomPath([0.0, 2.0], [0.5, -1.5])),  # its horizon is --T + 1
        ("sle:2", sle_driving(2.0, 1.0 / 64.0, 1.0, 3)),
        ("sle:2:0.125", sle_driving(2.0, 0.125, 1.0, 3)),
        ("sc-family", SemicircleFamily()),
        ("semicircle-family", SemicircleFamily()),
    ])
    def test_spec_builds_its_driver(self, tmp_path, spec, driver):
        out = tmp_path / "flow.csv"
        assert run(["flow", "--driver", spec, "--z", "1+2i", "--T", "1", "--steps", "4",
                    "--seed", "3", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        want = flow_forward(driver, 1 + 2j, 1.0)
        assert complex(float(rows[-1][1]), float(rows[-1][2])) == want.value
        assert rows[-1][3] == "1" and want.alive

    @pytest.mark.parametrize("argv", [
        ["flow", "--z", "1+2i", "--T", "1", "--steps", "4"],
        ["trace", "--T", "1", "--steps", "4"],
        ["welding", "--T", "0.5", "--pairs", "3"],
        ["family", "--t", "1", "--z", "1+2i", "--z=-1+0.5i"],
        ["burgers", "--t", "0.2:1:2", "--re=-1:1:2"],
    ], ids=lambda argv: argv[0])
    def test_json_file_reads_as_inline(self, tmp_path, capsys, argv):
        spec = '{"kind":"atom-path","times":[0,2],"values":[0,2]}'
        (tmp_path / "driver.json").write_text(spec)
        outputs = []
        for name, driver in (("file", f"@{tmp_path / 'driver.json'}"), ("inline", spec)):
            out = tmp_path / f"{name}.csv"
            assert run(argv + ["--driver", driver, "--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]


class TestDefaults:
    """Each default lives in the parser alone: omitting a flag writes the same
    bytes as passing its default, and another value writes other bytes."""

    @pytest.mark.parametrize("argv, defaults, other", [
        (["flow", "--driver", "sle:2", "--z", "1+2i", "--T", "1", "--steps", "4"],
         ["--seed", "0"], ["--seed", "1"]),
        (["density", "--measure", "sc:1", "--grid=-2.2:2.2:221"], ["--eps", "1e-4"],
         ["--eps", "1e-3"]),
        (["burgers", "--t", "0.2:1:2", "--re=-1:1:2"], ["--driver", "sc-family"],
         ["--driver", "const:0"]),
        # an sle: driver is sampled to at least one step, however short the horizon
        (["flow", "--driver", "sle:2", "--z", "1+1i", "--T", "0.01"],
         ["--driver", "sle:2:0.015625"], ["--seed", "1"]),
        (["flow", "--driver", "sle:2", "--z", "1+1i", "--T", "0", "--steps", "2"],
         ["--driver", "sle:2:0.015625"], ["--z", "2i"]),
        (["trace", "--driver", "sle:2", "--T", "0.01", "--steps", "4"],
         ["--driver", "sle:2:0.015625"], ["--seed", "1"]),
        (["welding", "--driver", "sle:2", "--T", "0.01", "--pairs", "3"],
         ["--driver", "sle:2:0.015625"], ["--seed", "1"]),
        (["family", "--driver", "sle:2", "--z", "1i", "--t", "0.01"],
         ["--driver", "sle:2:0.015625"], ["--seed", "1"]),
    ], ids=["flow-seed", "density", "burgers", "flow-sle-short", "flow-sle-zero",
            "trace-sle-short", "welding-sle-short", "family-sle-short"])
    def test_omitted_equals_explicit(self, tmp_path, capsys, argv, defaults, other):
        outputs = []
        for name, extra in (("omitted", []), ("explicit", defaults), ("other", other)):
            out = tmp_path / f"{name}.csv"
            assert run(argv + extra + ["--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1] != outputs[2]


class TestConfigRoutes:
    """A subcommand that reads a driver or a grid takes it from its flag alone
    (there is no run-configuration file), and names it when the flag is missing."""

    DRIVER_ARGV = {
        "flow": ["flow", "--z", "1+2i", "--T", "1", "--steps", "4"],
        "trace": ["trace", "--T", "1", "--steps", "4"],
        "welding": ["welding", "--T", "0.5", "--pairs", "3"],
        "family": ["family", "--t", "1", "--z", "1+2i", "--z=-1+0.5i"],
    }
    GRID_ARGV = {
        "density": ["density", "--measure", "sc:1"],
        "convolve": ["convolve", "--expr", "free(sc:0.5, sc:0.5)"],
    }

    @pytest.mark.parametrize("command", [*DRIVER_ARGV, *GRID_ARGV],
                             ids=lambda command: f"{command}-no-config")
    def test_missing_driver_or_grid_is_named(self, tmp_path, capsys, command):
        argv = {**self.DRIVER_ARGV, **self.GRID_ARGV}[command] + ["--out", str(tmp_path / "x.csv")]
        assert run(argv) == 2
        what = "grid" if command in self.GRID_ARGV else "driver"
        assert capsys.readouterr().err.startswith(f"error: no {what} given")
        assert not (tmp_path / "x.csv").exists()


class TestNegativeCounts:
    @pytest.mark.parametrize("argv", [
        ["welding", "--driver", "const:0", "--T", "1", "--pairs", "-1"],
        ["trace", "--driver", "const:0", "--T", "1", "--steps", "-2"],
        ["flow", "--driver", "const:0", "--z", "2i", "--T", "1", "--steps", "-1"],
        ["sle", "--seed", "-1"],
    ], ids=["welding-pairs", "trace-steps", "flow-steps", "sle-seed"])
    def test_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestRowFormat:
    """``_write_csv`` prints each number as ``_fmt`` does, with one format per row."""

    VALUES = (-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
              np.float64(0.1) * 3, 7, True, False)

    def test_edge_values_match_fmt(self, tmp_path):
        out = tmp_path / "row.csv"
        header = [f"c{k}" for k in range(len(self.VALUES))]
        _write_csv(str(out), header, [self.VALUES, self.VALUES[::-1]])
        want = [",".join(_fmt(v) for v in row) for row in (self.VALUES, self.VALUES[::-1])]
        assert out.read_text() == "\n".join([",".join(header), *want]) + "\n"
        assert want[0] == "-0,inf,-inf,nan,4.9406564584124654e-324,1.7976931348623157e+308," \
                          "0.30000000000000004,7,1,0"
