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
        "b8458f559d39be13261e5eb859168ae962976a77c15aa4663c081f1f3772866d",
    "02_transforms_and_density_recovery":
        "03b3774a4527bcc052b686a1ed3b4bf8ad2508add8c669237ca555d990754ebc",
    "03_three_convolutions":
        "662f532aa5039d26091a4de0aa6c79d1cee045fd65aa7df6a4f849cce8f554c2",
    "04_slit_traces_and_welding":
        "8d3512faa0784033f3b5e013e5be2bc45cc8805347d5e20bfd4ca78e0d4fc2d9",
    "05_evolution_families_and_sle":
        "358784e05002d3e33eb29cd84212e4e494cfd0fd9c6251ac0676f6d6b8d306a6",
    "06_burgers_fixed_point":
        "f71ff7cc51a856a05d15a4c656fe062a6d9b28f5ca3fdc7a23bf6ebd557e1691",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # RuntimeWarnings are errors, as in the suite's filterwarnings and the selftest
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_SHA256[demo.stem]
