"""Every demo script runs to completion and prints the recorded bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout.  A change that moves these bytes updates the
#: digest and names the moved outputs.
DEMO_SHA256 = {
    "01_forward_flow_and_hulls":
        "b7332a6133d7d7536265c5ad56b2fa4941c93a780b29b660ff7d7442a13e9a25",
    "02_transforms_and_density_recovery":
        "03b3774a4527bcc052b686a1ed3b4bf8ad2508add8c669237ca555d990754ebc",
    "03_three_convolutions":
        "8185564e1c57046d17a24c04f7f9a51dcb0ab90b800b52b875d96c9b3bd98334",
    "04_slit_traces_and_welding":
        "6d826097e6ef82c454c0e415ed894c7349b5e8c65aeff9fd856ab7d7b4f7ae73",
    "05_evolution_families_and_sle":
        "358784e05002d3e33eb29cd84212e4e494cfd0fd9c6251ac0676f6d6b8d306a6",
    "06_burgers_fixed_point":
        "d85c0191db569cfe1de4e73a56d4e8a179e6a4040b7eeabc392f2a07c665ba27",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_SHA256[demo.stem]
