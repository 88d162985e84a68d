"""Record the pack-build reference outputs of the current code.

For every instance of the fixed generic set this runs `normalform` in exact
mode and `solve --mode float` through the CLI, and stores the digest of the
pack files, the exact pack's `solve` rows at the base point, and the float
outcome (rows, or the exit code and error class). The benchmark compares
later runs against this record, so rerun it only when the reference
outputs are meant to change:

    python3 perfbench/record_baseline.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time

import harness
import inputs
import workloads


def record(index):
    harness.pin_threads()
    harness.import_package()
    from hodocusp.normal_form import verify_miniversal

    cfg = harness.write_config(f"generic_{index}.yaml", inputs.generic_config(index))
    dt, code, pack, out = workloads.exact_normalform(index, cfg)
    if code != 0 or pack is None:
        raise SystemExit(f"instance {index}: exact normalform exited {code}")
    if not verify_miniversal(pack).is_zero():
        raise SystemExit(f"instance {index}: miniversal residual is not zero")
    _, fcode, frows, ferror = workloads.float_solve(index, cfg)
    return index, {
        "digest": harness.dir_digest(out),
        "exact_rows": workloads.reference_rows(cfg, pack),
        "float_exit": fcode,
        "float_error": ferror,
        "float_rows": frows,
        "exact_s": dt,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--jobs", type=int, default=1)
    ns = ap.parse_args(argv)
    t0 = time.time()
    indices = range(inputs.POOL_SIZE)
    if ns.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(ns.jobs) as pool:
            results = pool.map(record, indices)
    else:
        results = [record(i) for i in indices]
    harness.pin_threads()
    harness.import_package()
    doc = {
        "provenance": harness.provenance("pack-build", None),
        "pack_build": {str(i): rec for i, rec in sorted(results)},
    }
    harness.BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    fails = sum(rec["float_exit"] != 0 for _, rec in results)
    print(f"recorded {len(results)} instances ({fails} float failures) "
          f"in {time.time() - t0:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
