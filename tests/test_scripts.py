"""Every experiment driver under scripts/ runs to exit 0 at a small size, and
the benchmark tracer still finds every method it wraps."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL_ARGS = {
    "output_digests.py": ["0.1"],
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


def test_traced_methods_exist():
    # perfbench/traced_pie.py wraps cls.__dict__[meth] for every name in its
    # METHODS table; a method renamed or removed here breaks --trace 1
    spec = importlib.util.spec_from_file_location(
        "traced_pie", ROOT / "perfbench" / "traced_pie.py"
    )
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert {cls for classes in traced.METHODS.values() for cls in classes} == {
        "CPolynomial",
        "TruncatedSeries",
        "ExpSeries",
    }
    for layer, classes in traced.METHODS.items():
        module = importlib.import_module(f"pie.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for meth in methods:
                assert callable(cls.__dict__.get(meth)), f"{cls_name}.{meth}"
