"""The CLI digest table: every command, both modes, six shipped configs.

    PYTHONPATH=src python tests/golden/cli/digests.py

rewrites ``digests.txt`` next to this script. Each config is copied into
one scratch working directory under the name in the table, and each run
is ``hodocusp <command> --config <name> --mode <mode> --out
out/<stem>-<command>-<mode>`` through ``hodocusp.cli.main`` in-process;
stdout names the output path, so the relative ``--out`` keeps the bytes
independent of where the table is made. A row holds the config, command,
mode and exit code, the sha256 of stdout and of stderr, and
``file=sha256`` for every file the run wrote, in path order.
``tests/test_cli.py`` reruns the table and compares it row by row.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[2]
TABLE = HERE / "digests.txt"

CONFIGS = {
    "canonical.yaml": REPO / "configs" / "canonical.yaml",
    "catalan.yaml": REPO / "configs" / "catalan.yaml",
    "korobeinik_3pole.yaml": REPO / "tests" / "golden" / "korobeinik_3pole" / "config.yaml",
    "korobeinik_catalan.yaml": REPO / "tests" / "golden" / "korobeinik_catalan" / "config.yaml",
    "korobeinik_poly.yaml": REPO / "tests" / "golden" / "korobeinik_poly" / "config.yaml",
    "korobeinik_onpole.yaml": REPO / "tests" / "golden" / "korobeinik_onpole" / "config.yaml",
}
COMMANDS = ("expand", "normalform", "solve", "curves", "verify", "korobeinik")
MODES = ("exact", "float")

HEADER = (
    "# hodocusp CLI digest table; regenerate with "
    "PYTHONPATH=src python tests/golden/cli/digests.py\n"
    "# config command mode exit stdout_sha256 stderr_sha256 [file=sha256 ...]\n"
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(config: str, command: str, mode: str) -> str:
    from hodocusp import cli

    out = Path("out") / f"{Path(config).stem}-{command}-{mode}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([command, "--config", config, "--mode", mode, "--out", str(out)])
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    fields = [config, command, mode, str(rc)]
    fields += [_sha(stdout.getvalue().encode()), _sha(stderr.getvalue().encode())]
    fields += [f"{p.relative_to(out).as_posix()}={_sha(p.read_bytes())}" for p in files]
    return " ".join(fields)


def table_rows(workdir) -> list[str]:
    """One row per run, every run made from ``workdir`` as the cwd."""
    workdir = Path(workdir)
    for name, src in CONFIGS.items():
        shutil.copyfile(src, workdir / name)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [
            _run(config, command, mode)
            for config in CONFIGS
            for command in COMMANDS
            for mode in MODES
        ]
    finally:
        os.chdir(cwd)


def recorded_rows() -> list[str]:
    return [ln for ln in TABLE.read_text().splitlines() if not ln.startswith("#")]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rows = table_rows(tmp)
    TABLE.write_text(HEADER + "".join(row + "\n" for row in rows))
    print(f"wrote {len(rows)} rows to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
