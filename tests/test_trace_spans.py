"""The benchmark's span table must name attributes the library still has.

`perfbench/tracing.py` patches each `(module, attr)` of `SPANS` through the
owner's own `vars`, so a rename, a deletion or an attribute that is only
inherited makes a traced benchmark run crash. This guard fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


def test_every_traced_name_is_patchable():
    spans = _spans()
    assert spans
    missing = []
    for module, attr, _ in spans:
        owner = importlib.import_module(module)
        *cls, key = attr.split(".")
        for name in cls:
            owner = getattr(owner, name, None)
        if owner is None or key not in vars(owner):
            missing.append(f"{module}:{attr}")
    assert not missing, f"span targets the tracer cannot patch: {missing}"
