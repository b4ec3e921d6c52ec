import json
import math

import numpy as np
import pytest

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
            code = run(["flow", "--driver", "const:0", "--z", "2i", "--T", "1",
                        "--steps", "4", "--config", str(cfgfile), "--out", str(out)])
            assert code == 0
            _, rows = read_rows(out)
            errs[tol] = float(rows[-1][5])
        assert errs["1e-12"] < errs["1e-8"]


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

    def test_bad_tolerance(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"tolerance": 5.0}))
        with pytest.raises(ConfigError, match="tolerance"):
            load_config(p)
