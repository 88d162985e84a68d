"""Exact order-16 packs of pool instances 0-19, and their float outcomes.

    PYTHONPATH=src python tests/golden/pool_n16.py

rewrites ``pool_n16.json`` next to this script. Instance i is
``random_singular_problem(random.Random(i))``, the same draws as the
perfbench pool. For each instance the record holds, for the exact pack at
order 16, the sha256 of every file ``save_pack`` writes and, for each pack
series, the sha256 of its dict key order and its validity radius: the
radius sums a band's magnitudes in key order, and the files list terms
sorted, so the files alone do not pin the order. It also holds the outcome
of the float build at orders 10 and 16: the same record for a pack, or the
class of the error that refused it. ``tests/test_normal_form.py`` rebuilds
the packs and compares the records.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "pool_n16.json"
INSTANCES = tuple(range(20))
ORDER = 16
FLOAT_ORDERS = (10, 16)


def pool_pack(index, order=ORDER, mode="exact"):
    from conftest import random_singular_problem

    from hodocusp import build_normal_form, expand_potential, hodograph_map

    problem = random_singular_problem(random.Random(index))
    return build_normal_form(hodograph_map(expand_potential(problem, order=order, mode=mode)))


def pack_record(pack, workdir) -> dict:
    """sha256 of the saved files, key order and validity radius of each series."""
    from hodocusp.normal_form import _PACK_FILES, save_pack

    out = Path(workdir)
    files = {
        f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in save_pack(pack, out)
    }
    series = {}
    for attr, _ in _PACK_FILES:
        s = getattr(pack, attr)
        series[attr] = {
            "keys_sha256": hashlib.sha256(repr(list(s._c)).encode()).hexdigest(),
            "validity_radius": repr(s.validity_radius()),
        }
    return {"files": files, "series": series}


def float_outcome(index, order, workdir) -> dict:
    """The float pack's record, or {"error": class name} when the build refuses."""
    from hodocusp.errors import HodocuspError

    try:
        pack = pool_pack(index, order, "float")
    except HodocuspError as exc:
        return {"error": type(exc).__name__}
    return pack_record(pack, workdir)


def instance_record(index, workdir) -> dict:
    out = Path(workdir)
    record = {"exact": pack_record(pool_pack(index), out / "exact")}
    record["float"] = {
        str(n): float_outcome(index, n, out / f"float_{n}") for n in FLOAT_ORDERS
    }
    return record


def main():
    sys.path.insert(0, str(HERE.parent))  # for conftest
    records = {}
    for i in INSTANCES:
        with tempfile.TemporaryDirectory() as tmp:
            records[str(i)] = instance_record(i, tmp)
    body = {
        "instances": "random_singular_problem(random.Random(i)), the perfbench pool",
        "order": ORDER,
        "float_orders": list(FLOAT_ORDERS),
        "records": records,
    }
    RECORD.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
