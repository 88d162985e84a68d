"""Run workloads over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/spread.py --seeds 1-10 [--workload field-eval ...] [--out FILE]

Runs are sequential, one process each, with BENCHMARK.json's run_seconds.
The spread of every metric except setup_s must stay within its bound; the
benchmark aims for a third of it. --out merges every run's result line and
the summary into a JSON file, for later changes to diff against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path)
    ns = ap.parse_args(argv)

    runs, summary = {}, {}
    for wl in ns.workload or [w["name"] for w in spec["workloads"]]:
        runs[wl] = []
        for seed in ns.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if res.returncode != 0:
                sys.exit(f"{wl} seed {seed} exited {res.returncode}: {res.stderr[-2000:]}")
            line = json.loads(res.stdout.strip().splitlines()[-1])
            runs[wl].append({"seed": seed, **line})
            print(wl, seed, json.dumps({k: v["value"] for k, v in line["metrics"].items()}),
                  f"failed {line['failed']}/{line['attempted']} correct {line['correct']}",
                  flush=True)
        summary[wl] = {}
        for m in spec["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for r in runs[wl]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            summary[wl][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                "bound": m["bound"], "unit": m["unit"],
            }
            print(f"  {m['name']:12s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.3f} (bound {m['bound']})", flush=True)
    if ns.out:
        # merge, so workloads can be re-measured one at a time
        doc = json.loads(ns.out.read_text()) if ns.out.is_file() else {"summary": {}, "runs": {}}
        doc["summary"].update(summary)
        doc["runs"].update(runs)
        ns.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
