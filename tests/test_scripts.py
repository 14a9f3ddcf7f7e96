"""Every experiment driver under scripts/ runs to exit 0 at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL_ARGS = {
    "involution_tableau.py": ["6"],
    "numeric_conditioning.py": ["8"],
    "run_checks.py": ["8", "12"],
}


def test_every_script_has_small_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_script_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *SMALL_ARGS[name]],
        env={k: v for k, v in env.items() if not k.startswith("PIE_")},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
