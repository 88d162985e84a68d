"""Shared plumbing: locating the package, in-process CLI calls, digests,
timing summaries and provenance."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

# one process, one thread: set before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package, no baseline)."""


def pin_threads():
    """Cap native thread pools at one thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu():
    """Bind the process to the last CPU it may use (the first usually takes
    more interrupts), so the scheduler never moves it off a warm cache."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_package():
    """Put the checkout's src/ first on sys.path and import the CLI."""
    if not (SRC / "hodocusp" / "__init__.py").is_file():
        raise SetupError(f"no hodocusp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hodocusp.cli  # noqa: F401

    return time.perf_counter() - t0


def subprocess_import_s():
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import hodocusp.cli"],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=60,
    )
    return time.perf_counter() - t0


def run_cli(argv):
    """hodocusp.cli.main in-process; returns (exit code, stdout, stderr)."""
    from hodocusp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def dir_digest(path: Path) -> str:
    """sha256 over the sorted (name, bytes) of every file in a directory."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        if f.is_file():
            h.update(f.name.encode() + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def write_config(name: str, text: str) -> Path:
    path = OUT / "configs" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


@contextlib.contextmanager
def capture(module, name):
    """Temporarily wrap module.name, keeping each result or raised error."""
    original = getattr(module, name)
    seen = []

    def wrapper(*args, **kwargs):
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            seen.append(exc)
            raise
        seen.append(result)
        return result

    setattr(module, name, wrapper)
    try:
        yield seen
    finally:
        setattr(module, name, original)


def summarize(samples, scale=1.0):
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count. `scale` converts seconds to the reported unit."""
    xs = sorted(x * scale for x in samples)
    n = len(xs)
    out = {"median": statistics.median(xs) if xs else None, "count": n}
    # percentile p leaves n * (1 - p/100) samples above it
    if n >= 11:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        idx = min(n - 1, max(0, math.ceil(p / 100.0 * n) - 1))
        out["tail_pct"] = p
        out["tail"] = xs[idx]
    return out


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest():
    """sha256 of the package sources: identifies the code where git cannot."""
    h = hashlib.sha256()
    for f in sorted((SRC / "hodocusp").rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def provenance(workload, seed):
    import numpy
    import yaml

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS[:3]},
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }

