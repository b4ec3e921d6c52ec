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
from loewner.cli import RunConfig, load_config, run, save_config
from loewner.errors import ConfigError
from loewner.flows import AtomPath


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
        assert header == ["t", "re", "im", "err_est"]
        assert len(rows) == 101
        t, re, im, _ = (float(v) for v in rows[-1])
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
        "81dff051e0b313de233bdd3fe50d3403509395c22363c0cdddaf5b7d4900edfe",
    "loewner welding --driver const:0 --T 1 --pairs 50 --out weld.csv":
        "870280b4acc40b732491e6a31033d59dc91f2623769fb6f5ee02f7f37bbc2e17",
    'loewner convolve --expr "mono(arcsine:1, arcsine:1)" --probe 2i':
        "daaedad81f42dcec2f75595dbf344f541a43d254b8f6ae297dced27a252bd0fd",
    'loewner convolve --expr "free(sc:1, sc:1)" --grid=-3:3:2001 --eps 1e-4 --out dens.csv':
        "d7c587ea99ec574500d7ee29e9c00ac4ae2b9d33b6f4e11fd0e57b13059fe69a",
    "loewner density --measure semicircle:1 --grid=-2.2:2.2:2201 --eps 1e-4 --out sc.csv":
        "ad216ecc5274ff75bb6424d906468f97de77417d060fab91a6947cca5b9f6e63",
    "loewner family --driver const:0 --semantics free --s 0 --t 1 --z 0.5i --out fam.csv":
        "f9c50212ba637aa229cf6fd7d6ff89665121f50493073a1ff938430442a45071",
    "loewner sle --kappa 2 --dt 0.015625 --T 1 --seed 7 --out path.csv":
        "ecd22187293f6a8ed00d8e0205313da194852bf9dcd19bba43824759ed805ef4",
    "loewner burgers --t 0.2:1:5 --re=-1:1:5 --im 1 --out burgers.csv":
        "8381d0b9dce5eba65fc2bd9ed7b5f78da4ea47fb5855dead470a62f5b76424a6",
    "loewner flow --driver const:0 --z 2i --T 1 --steps 50 --out flow.csv":
        "5263d6fc7ae6407d45f3324a25b7710194a4655ad0ec64317799d1d098fdd557",
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
    ], ids=["density", "convolve-mono"])
    def test_csv_bytes_repeat(self, tmp_path, argv):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run(argv + ["--out", str(first)]) == 0
        src = str(Path(loewner.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "loewner", *argv, "--out", str(second)],
                       env=env, check=True)
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

    def test_tolerance_propagates_to_err_est(self, tmp_path):
        errs = {}
        for tol in ("1e-8", "1e-12"):
            cfgfile = tmp_path / f"cfg{tol}.json"
            cfgfile.write_text(json.dumps({"tolerance": float(tol)}))
            out = tmp_path / f"flow{tol}.csv"
            # a sloped driver: resting pieces are exact maps and report err_est 0
            code = run(["flow", "--driver", "line:0:1", "--z", "2i", "--T", "1",
                        "--steps", "4", "--config", str(cfgfile), "--out", str(out)])
            assert code == 0
            _, rows = read_rows(out)
            errs[tol] = float(rows[-1][5])
        assert 0.0 < errs["1e-12"] < errs["1e-8"]


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


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_driver_spec(self, tmp_path, capsys):
        code = run(["trace", "--driver", "nonsense", "--T", "1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_required_flag(self, capsys):
        assert run(["trace", "--driver", "const:0"]) == 2

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
        ["flow", "--driver", "sle:2", "--z", "1i", "--T", "0.5", "--steps", "2", "--tol", "-1"],
        ["trace", "--driver", "sle:2", "--T", "0.5", "--steps", "2", "--tol", "-1"],
        ["family", "--driver", "sle:2", "--t", "0.5", "--z", "1i", "--tol", "-1"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "0.5", "--tol", "0"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "0.5", "--tol", "nan"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "0.5", "--tol", "1"],
        ["flow", "--driver", "const:0", "--z", "1i", "--T", "0.5", "--tol", "inf"],
        ["convolve", "--expr", "mono(arcsine:1, arcsine:1)", "--probe=nan+1i"],
        ["convolve", "--expr", "free(sc:1, sc:1)", "--probe=nan+1i"],
        ["sle", "--kappa", "nan"],
        ["burgers", "--im", "inf"],
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, argv):
        # complete commands, so only the spec is wrong
        if argv[0] in ("density", "flow", "trace", "burgers", "family", "sle"):
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_free_family_at_zero(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run(["family", "--driver", "const:0", "--semantics", "free", "--s", "0",
                    "--t", "1", "--z", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


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


class TestConfig:
    def test_save_load_round_trip(self, tmp_path):
        cfg = RunConfig(driver=AtomPath([0.0, 1.0], [0.0, 0.5]), tolerance=1e-9,
                        seed=3, eps=1e-4, grid=(-2.0, 2.0, 401))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_config(cfg, p1)
        save_config(load_config(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_field_names_path(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"driver": {"kind": "atom-path", "values": [0.0, 0.0]}}))
        with pytest.raises(ConfigError, match="driver.times"):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"tollerance": 1e-9}))
        with pytest.raises(ConfigError, match="tollerance"):
            load_config(p)

    @pytest.mark.parametrize("grid, field", [({"a": "x", "b": 1, "n": 3}, "grid.a"),
                                             ({"a": 0, "b": math.inf, "n": 3}, "grid.b")])
    def test_grid_ends_must_be_finite_numbers(self, tmp_path, grid, field):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"grid": grid}))  # math.inf is written as Infinity
        with pytest.raises(ConfigError, match=field):
            load_config(p)

    def test_bad_tolerance(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"tolerance": 5.0}))
        with pytest.raises(ConfigError, match="tolerance"):
            load_config(p)
