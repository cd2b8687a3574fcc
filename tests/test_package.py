"""The modules are the API: the package root imports nothing, and each module
imports on its own, so no import cycle can hide behind a root import order.
The CLI trains in its own process and loads no process-pool machinery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "distillnet").glob("*.py") if p.stem != "__init__")


def _fresh_python(code):
    """Run ``code`` in a new interpreter that finds this checkout's package; returns stdout."""
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_root_loads_no_module():
    loaded = _fresh_python(
        "import sys, distillnet; print(sorted(m for m in sys.modules if m.startswith('distillnet.')))"
    )
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    _fresh_python(f"import distillnet.{module}")


def test_cli_loads_no_process_pool():
    # every verb trains its models one after another in its own process, so
    # no verb should pay for importing a pool (~20 ms of concurrent.futures)
    loaded = _fresh_python(
        "import sys, distillnet.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    assert loaded.strip() == "[]"
