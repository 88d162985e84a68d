"""Spans around the calls into each hodocusp module, installed by patching.

A module that does `from .series import implicit_solve` holds its own name
for the function, so each caller's name is patched separately
(`hodocusp.normal_form.implicit_solve` is not `hodocusp.series.implicit_solve`).
Methods are patched on their class. Every span records its name, start,
end, parent and the id of the operation it belongs to; spans stay in memory
and are written once, at the end of the run. Scalar arithmetic
(`CubicRadical`, `QComplex`) runs millions of times, so it is counted and
timed in aggregate (outermost call only) instead of one span per call.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.method" attributes patch the class
SPANS = [
    ("hodocusp.cli", "_load_config", "cli.load_config"),
    ("hodocusp.cli", "_write", "cli.write"),
    ("hodocusp.cli", "expand_potential", "pde.expand"),
    ("hodocusp.cli", "hodograph_map", "hodograph.map"),
    ("hodocusp.cli", "build_normal_form", "normal_form.build"),
    ("hodocusp.cli", "save_pack", "normal_form.save_pack"),
    ("hodocusp.cli", "reconstruct", "cusp.reconstruct"),
    ("hodocusp.cli", "fold_curves", "cusp.curves"),
    ("hodocusp.cli", "zero_curves", "cusp.curves"),
    ("hodocusp.cli", "system_residual", "verify.system_residual"),
    ("hodocusp.cli", "radius_probe", "korobeinik.radius_probe"),
    ("hodocusp.cli", "bidisc_check", "korobeinik.bidisc"),
    ("hodocusp.cli", "cauchy_bound_check", "korobeinik.cauchy"),
    ("hodocusp.cli", "variable_alpha_probe", "korobeinik.alpha_probe"),
    ("hodocusp.cli", "bridge_check", "pde.bridge"),
    ("hodocusp", "expand_potential", "pde.expand"),
    ("hodocusp", "hodograph_map", "hodograph.map"),
    ("hodocusp", "build_normal_form", "normal_form.build"),
    ("hodocusp.pde", "expand_potential", "pde.expand"),
    ("hodocusp.pde", "KorobeinikSeries.coefficient", "pde.seed_series"),
    ("hodocusp.korobeinik", "expand_potential", "pde.expand"),
    ("hodocusp.normal_form", "implicit_solve", "series.implicit_solve"),
    ("hodocusp.normal_form", "substitute", "series.substitute"),
    ("hodocusp.normal_form", "cube_root_normalize", "series.cube_root_normalize"),
    ("hodocusp.series", "compose2", "series.compose"),
    ("hodocusp.series", "compose1", "series.compose"),
    ("hodocusp.series", "Series2.__mul__", "series.mul"),
    ("hodocusp.series", "Series2.__rmul__", "series.mul"),
    ("hodocusp.series", "Series1.__mul__", "series.mul"),
    ("hodocusp.series", "Series1.__rmul__", "series.mul"),
    ("hodocusp.series", "Series2.evaluate", "series.evaluate"),
    ("hodocusp.series", "Series1.evaluate", "series.evaluate"),
    ("hodocusp.series", "Series2.validity_radius", "series.validity_radius"),
    ("hodocusp.series", "Series1.validity_radius", "series.validity_radius"),
    ("hodocusp.cusp", "reconstruct", "cusp.reconstruct"),
    ("hodocusp.cusp", "cusp_roots", "cusp.roots"),
    ("hodocusp.cusp", "fold_curves", "cusp.curves"),
    ("hodocusp.cusp", "zero_curves", "cusp.curves"),
    ("hodocusp.verify", "reconstruct", "cusp.reconstruct"),
    ("hodocusp.verify", "branch_field", "verify.branch_field"),
    ("hodocusp.verify", "system_residual", "verify.system_residual"),
]

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
         "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse")
SCALARS = [("hodocusp.scalars", "CubicRadical", "scalars.radical"),
           ("hodocusp.scalars", "QComplex", "scalars.qcomplex")]


def _resolve(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _pack_sizes(pack):
    """(most terms in one series, most bits in one numerator or denominator)."""
    from hodocusp.scalars import CubicRadical

    terms = bits = 0
    for s in (pack.h_of_tau_v, pack.xi_of_tau_v, pack.v_of_w, pack.xi_of_tau_w,
              pack.lambda1, pack.lambda2, pack.u_of_tau_w, pack.w_of_tau_u):
        terms = max(terms, len(s._c))
        for v in s._c.values():
            parts = (v.a0, v.a1, v.a2) if isinstance(v, CubicRadical) else (v,)
            for q in parts:
                if hasattr(q, "denominator"):
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return terms, bits


class Tracer:
    """In-memory span recorder; `install()` patches, `remove()` restores."""

    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end, info]
        self.stack = []
        self.op = 0
        self.scalar_n = Counter()
        self.scalar_s = Counter()
        self._scalar_depth = 0
        self._saved = []
        self.paused = False

    # -- spans ---------------------------------------------------------------

    def begin_op(self):
        self.op += 1

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            rec = [sid, parent, tracer.op, _name(name, args), time.perf_counter(), None, None]
            tracer.spans.append(rec)
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                tracer.stack.pop()
            rec[6] = _info(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.scalar_n[name] += 1
            if tracer._scalar_depth:
                return fn(*args, **kwargs)
            tracer._scalar_depth = 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.scalar_s[name] += time.perf_counter() - t0
                tracer._scalar_depth = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, attr, name in SPANS:
            owner, key = _resolve(module, attr)
            self._patch(owner, key, self._span(name, getattr(owner, key)))
        for module, cls, name in SCALARS:
            owner = getattr(importlib.import_module(module), cls)
            for key in ARITH:
                if key in vars(owner):
                    self._patch(owner, key, self._scalar(name, vars(owner)[key]))

    @contextlib.contextmanager
    def pause(self):
        """Run the program untraced inside the block (output checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _patch(self, owner, key, value):
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def remove(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "op", "name", "start", "end", "info")
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(fields, rec))) + "\n")

    # -- derived numbers -------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, inclusive seconds, self seconds, infos.

        Inclusive time counts only spans with no ancestor of the same name,
        so recursion-free totals stay additive. Self time is a span's
        duration minus its direct children's durations.
        """
        child_s = defaultdict(float)
        series_child_s = defaultdict(float)
        for sid, parent, _, name, t0, t1, _ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
                if name.startswith("series."):
                    series_child_s[parent] += t1 - t0
        names = [rec[3] for rec in self.spans]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "series_self_s": 0.0, "info": []})
        for sid, parent, _, name, t0, t1, info in self.spans:
            row = out[name]
            row["calls"] += 1
            if not _has_ancestor(self.spans, parent, name, names):
                row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_s[sid]
            row["series_self_s"] += (t1 - t0) - series_child_s[sid]
            if info is not None:
                row["info"].append(info)
        return out

    def passes_per_solve(self):
        """compose2 calls made directly by each implicit solve, averaged."""
        solves = {rec[0] for rec in self.spans if rec[3].startswith("series.implicit_solve")}
        passes = sum(1 for rec in self.spans if rec[1] in solves and rec[3] == "series.compose")
        return passes / len(solves) if solves else 0.0


def _has_ancestor(spans, parent, name, names):
    while parent is not None:
        if names[parent] == name:
            return True
        parent = spans[parent][1]
    return False


def _name(name, args):
    if name == "series.implicit_solve" and len(args) > 1:
        return f"{name}.{args[1]}"  # .h for h(tau, V), .W for W(tau, U)
    return name


def _info(name, args, result):
    """Sizes recorded at the boundary: nodes, branches, taus, bytes."""
    if name == "verify.branch_field":
        return int(getattr(args[1], "size", 0))
    if name == "cusp.reconstruct":
        return len(result)
    if name == "cusp.curves":
        return len(args[1])
    if name == "cli.write":
        return result.stat().st_size
    if name == "normal_form.save_pack":
        return sum((Path(args[1]) / f).stat().st_size for f in result)
    if name == "normal_form.build":
        return _pack_sizes(result)
    if name == "korobeinik.bidisc":
        return result.witness.terms if result.witness is not None else 0
    return None
