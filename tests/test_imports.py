"""numpy is loaded only where there are grids.

Each check runs a fresh interpreter, so modules imported by other tests in
this process cannot hide an eager import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

RUN_CLI = """\
import sys
from hodocusp.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules)
sys.exit(code)
"""

PUBLIC_NAMES = """\
import sys
import hodocusp
assert "numpy" not in sys.modules, "import hodocusp loaded numpy"
missing = [n for n in hodocusp.__all__ if not hasattr(hodocusp, n)]
assert not missing, f"unresolved: {missing}"
ns = {}
exec("from hodocusp import *", ns)
unbound = sorted(set(hodocusp.__all__) - set(ns))
assert not unbound, f"not bound by import *: {unbound}"
unlisted = sorted(set(hodocusp.__all__) - set(dir(hodocusp)))
assert not unlisted, f"not in dir(): {unlisted}"
"""


def _python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=300,
    )


def _numpy_loaded_by(command, config, out):
    proc = _python("-c", RUN_CLI, command, "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_cli_import_leaves_numpy_out():
    proc = _python("-c", "import sys, hodocusp.cli; sys.exit('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "command, config",
    [
        ("expand", "canonical.yaml"),
        ("normalform", "canonical.yaml"),
        ("solve", "canonical.yaml"),
        ("curves", "canonical.yaml"),
        ("korobeinik", "catalan.yaml"),
    ],
)
def test_command_without_grids_leaves_numpy_out(tmp_path, command, config):
    assert not _numpy_loaded_by(command, CONFIGS / config, tmp_path / "out")


def test_verify_loads_numpy(tmp_path):
    assert _numpy_loaded_by("verify", CONFIGS / "canonical.yaml", tmp_path / "out")


def test_public_names_resolve_lazily():
    proc = _python("-c", PUBLIC_NAMES)
    assert proc.returncode == 0, proc.stderr
