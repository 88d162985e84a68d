"""Command line driver: one structured YAML config in, tables and CSVs out.

Subcommands:

  expand      expand the potential, write the series tables, print the
              closed-form relation checklist (exact mode only)
  normalform  build and save the cusp normal-form pack (exact mode only)
  solve       reconstruct (h, v) branches at physical points (t, x)
  curves      sample the fold and h = 0 curve families at given tau values
  verify      finite-difference residuals of the quasilinear system on a
              grid, plus an optional hodograph round-trip check
  korobeinik  convergence diagnostics for the boundary-seeded series:
              radius probes, bidisc membership, Cauchy derivative bounds,
              the alpha == 4 series bridge, and variable-alpha probes

Every command takes --config <path> and optional --out <dir> and
--mode exact|float (both override the config keys of the same name).
Exit codes: 0 success, 2 configuration or precondition violation,
3 numerical domain violation.

All file outputs start with a "# config sha256: <digest>" line so a result
can be traced back to the exact configuration that produced it. In exact
mode every output is byte-for-byte deterministic.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys
from pathlib import Path

import yaml

from .cusp import fold_curves, reconstruct, zero_curves
from .errors import DomainError, UsageError
from .hodograph import hodograph_map, jacobian
from .korobeinik import (
    bidisc_check,
    cauchy_bound_check,
    radius_probe,
    variable_alpha_probe,
    witness_report,
)
from .normal_form import build_normal_form, save_pack
from .pde import (
    ProblemData,
    SeedFunction,
    bridge_check,
    expand_potential,
    relation_checklist,
)
from .scalars import parse_exact, scalar_float
from .series import series2_text

MIN_ORDER = 3
MAX_ORDER = 16

RESIDUAL_HEADER = (
    "t0,x0,half_width,step,r1_max,r1_rms,r2_max,r2_rms,order1,order2"
)
CONVERGENCE_HEADER = "u_re,u_im,estimated_radius,predicted_radius,verdict"


# -- config plumbing -----------------------------------------------------------

# libyaml's parser builds the same documents about six times faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_config(path):
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = yaml.load(raw, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        # the pure-Python parser's error text (line, column and a caret
        # snippet of the offending entry) is the one users see; libyaml
        # reports other positions
        try:
            cfg = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise UsageError(f"config {path} is not valid YAML: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path}: top level must be a mapping")
    return cfg, digest


def _section(cfg, key):
    block = cfg.get(key)
    if block is None:
        raise UsageError(f"config: missing required section '{key}'")
    if not isinstance(block, dict):
        raise UsageError(f"config: section '{key}' must be a mapping")
    return block


def _require(block, key, where):
    if key not in block or block[key] is None:
        raise UsageError(f"config: missing key '{where}.{key}'")
    return block[key]


def _int_in(block, key, where, default, lo, hi):
    v = block.get(key, default)
    path = key if where == "<top>" else f"{where}.{key}"
    if isinstance(v, bool) or not isinstance(v, int):
        raise UsageError(f"config: '{path}' must be an integer")
    if not lo <= v <= hi:
        raise UsageError(f"config: '{path}' must be in [{lo}, {hi}]")
    return v


def _mode(ns, cfg) -> str:
    mode = ns.mode or cfg.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise UsageError(f"mode must be 'exact' or 'float', got {mode!r}")
    return mode


def _order(cfg) -> int:
    return _int_in(cfg, "order", "<top>", 8, MIN_ORDER, MAX_ORDER)


def _out_dir(ns, cfg) -> Path:
    out = Path(ns.out or cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _problem(cfg) -> ProblemData:
    block = _section(cfg, "problem")
    b0 = _require(block, "b0", "problem")
    if not isinstance(b0, (list, tuple)):
        raise UsageError("config: 'problem.b0' must be a list of coefficients")
    alpha = block.get("alpha", ())
    if not isinstance(alpha, (list, tuple)):
        raise UsageError("config: 'problem.alpha' must be a list of coefficients")
    return ProblemData(
        b0=b0,
        alpha=alpha,
        v_star=block.get("v_star", 0),
        b0_polynomial=bool(block.get("polynomial", False)),
    )


def _pipeline(ns, cfg):
    """problem -> potential -> hodograph map, in the requested mode.

    Every command that takes a problem block drives the cusp construction,
    so degenerate data (b02 != 0 or b03 = 0) fails fast here even where the
    library expansion itself would not need the restriction.
    """
    mode = _mode(ns, cfg)
    problem = _problem(cfg)
    problem.require_singular()
    sol = expand_potential(problem, _order(cfg), mode=mode)
    return sol, hodograph_map(sol)


def _write(out: Path, name: str, digest: str, body: str) -> Path:
    path = out / name
    if not body.endswith("\n"):
        body += "\n"
    path.write_text(f"# config sha256: {digest}\n" + body)
    return path


def _floats_pair(entry, where):
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise UsageError(f"config: '{where}' must be a pair [a, b]")
    return tuple(float(parse_exact(v, f"{where}[{i}]")) for i, v in enumerate(entry))


# -- subcommands ---------------------------------------------------------------


def _cmd_expand(ns, cfg, digest) -> int:
    if _mode(ns, cfg) != "exact":
        raise UsageError("expand checks exact coefficient identities; use mode exact")
    sol, m = _pipeline(ns, cfg)
    out = _out_dir(ns, cfg)
    tables = (
        ("B.txt", sol.series),
        ("t.txt", m.t),
        ("x.txt", m.x),
        ("tau.txt", m.tau),
        ("xi.txt", m.xi),
        ("jacobian.txt", jacobian(sol)),
    )
    for name, series in tables:
        _write(out, name, digest, series2_text(series))
    lines = []
    for rc in relation_checklist(sol):
        status = "PASS" if rc.ok else "FAIL"
        lines.append(f"{status} {rc.name}  [lhs = {rc.lhs}, rhs = {rc.rhs}]")
    body = "\n".join(lines)
    _write(out, "relations.txt", digest, body)
    print(body)
    print(f"expand: wrote {len(tables)} series tables and relations.txt to {out}")
    return 0


def _cmd_normalform(ns, cfg, digest) -> int:
    if _mode(ns, cfg) != "exact":
        raise UsageError(
            "normalform asserts the miniversal fit exactly; use mode exact"
        )
    _, m = _pipeline(ns, cfg)
    pack = build_normal_form(m)
    out = _out_dir(ns, cfg)
    files = save_pack(
        pack,
        out,
        header_lines=(f"config sha256: {digest}",),
        manifest_extra={"config_sha256": digest},
    )
    slope = pack.lambda1_slope()
    side = pack.multivalued_halfplane()
    print(f"normalform: order {pack.order}, b11 = {pack.b11}")
    print(f"lambda1 slope = {slope} ~ {scalar_float(slope):.12g}")
    print(f"three-root wedge opens for sign(tau) = {side:+d}")
    print(f"wrote {len(files)} files to {out}")
    return 0


def _cmd_solve(ns, cfg, digest) -> int:
    _, m = _pipeline(ns, cfg)
    pack = build_normal_form(m)
    block = _section(cfg, "solve")
    points = _require(block, "points", "solve")
    if not isinstance(points, (list, tuple)) or not points:
        raise UsageError("config: 'solve.points' must be a non-empty list of [t, x]")
    rows = ["t,x,branch,h,v,mult,inside_wedge"]
    for i, entry in enumerate(points):
        t, x = _floats_pair(entry, f"solve.points[{i}]")
        for idx, br in enumerate(reconstruct(t, x, pack)):
            rows.append(
                f"{t!r},{x!r},{idx},{br.h!r},{br.v!r},"
                f"{br.multiplicity},{int(br.inside_wedge)}"
            )
    path = _write(_out_dir(ns, cfg), "branches.csv", digest, "\n".join(rows))
    print(f"solve: {len(points)} points -> {len(rows) - 1} branch rows in {path}")
    return 0


def _cmd_curves(ns, cfg, digest) -> int:
    _, m = _pipeline(ns, cfg)
    pack = build_normal_form(m)
    block = _section(cfg, "curves")
    tau_list = _require(block, "tau", "curves")
    if not isinstance(tau_list, (list, tuple)) or not tau_list:
        raise UsageError("config: 'curves.tau' must be a non-empty list")
    taus = [
        float(parse_exact(v, f"curves.tau[{i}]")) for i, v in enumerate(tau_list)
    ]
    folds = fold_curves(pack, taus)
    zeros = zero_curves(pack, taus)
    rows = ["tau,xi,kind"]
    for i in range(len(taus)):
        for s in (folds[2 * i], folds[2 * i + 1], zeros[2 * i], zeros[2 * i + 1]):
            rows.append(f"{s.tau!r},{s.xi!r},{s.kind}")
    path = _write(_out_dir(ns, cfg), "curves.csv", digest, "\n".join(rows))
    print(f"curves: {len(taus)} tau values -> {len(rows) - 1} rows in {path}")
    return 0


def system_residual(*args, **kwargs):
    """The CLI's lazy entry to `hodocusp.verify.system_residual`.

    The grid oracles need numpy; importing them on first use keeps every
    other command free of it.
    """
    from . import verify

    return verify.system_residual(*args, **kwargs)


def _cmd_verify(ns, cfg, digest) -> int:
    from .verify import GridSpec, hodograph_roundtrip

    _, m = _pipeline(ns, cfg)
    pack = build_normal_form(m)
    block = _section(cfg, "verify")
    gblock = _require(block, "grid", "verify")
    if not isinstance(gblock, dict):
        raise UsageError("config: 'verify.grid' must be a mapping")
    center = _floats_pair(_require(gblock, "center", "verify.grid"), "verify.grid.center")
    grid = GridSpec(
        center=center,
        half_width=float(parse_exact(_require(gblock, "half_width", "verify.grid"), "verify.grid.half_width")),
        step=float(parse_exact(_require(gblock, "step", "verify.grid"), "verify.grid.step")),
    )
    branch = block.get("branch")
    if branch is not None and (type(branch) is not int or branch not in (0, 1, 2)):
        raise UsageError("config: 'verify.branch' must be 0, 1 or 2")
    halvings = _int_in(block, "halvings", "verify", 3, 3, 8)
    rep = system_residual(pack, grid, branch=branch, halvings=halvings)
    path = _write(
        _out_dir(ns, cfg),
        "residuals.csv",
        digest,
        RESIDUAL_HEADER + "\n" + rep.csv_row(),
    )
    where = "one-root sheet" if branch is None else f"wedge branch {branch}"
    print(
        f"verify: {where}, grid center = ({center[0]:g}, {center[1]:g}), "
        f"half_width = {grid.half_width:g}, step = {grid.step:g}"
    )
    print(
        f"  mass residual      max {rep.r1_max:.3e}  rms {rep.r1_rms:.3e}  "
        f"observed order {rep.order1:.3f}"
    )
    print(
        f"  momentum residual  max {rep.r2_max:.3e}  rms {rep.r2_rms:.3e}  "
        f"observed order {rep.order2:.3f}"
    )
    print(f"  wrote {path}")

    rt = block.get("roundtrip")
    if rt is not None:
        if not isinstance(rt, dict):
            raise UsageError("config: 'verify.roundtrip' must be a mapping")
        count = _int_in(rt, "count", "verify.roundtrip", 100, 1, 100_000)
        radius = float(parse_exact(rt.get("radius", "1/1000"), "verify.roundtrip.radius"))
        rng = random.Random(_int_in(rt, "seed", "verify.roundtrip", 0, 0, 2**31))
        p = pack.problem
        t0, x0 = scalar_float(p.t_star), scalar_float(p.x_star)
        points = [
            (
                t0 + radius * (2.0 * rng.random() - 1.0),
                x0 + radius * (2.0 * rng.random() - 1.0),
            )
            for _ in range(count)
        ]
        err = hodograph_roundtrip(m, pack, points)
        print(
            f"  roundtrip max error over {count} points "
            f"(radius {radius:g}): {err:.3e}"
        )
    return 0


def _cmd_korobeinik(ns, cfg, digest) -> int:
    block = _section(cfg, "korobeinik")
    seed = SeedFunction.from_config(_require(block, "g1", "korobeinik"), "korobeinik.g1")
    u_star = block.get("u_star", 0)
    reports = []
    summary = []
    ran = 0

    probes = block.get("probes")
    if probes is not None:
        ran += 1
        us = _require(probes, "u", "korobeinik.probes")
        if not isinstance(us, (list, tuple)) or not us:
            raise UsageError("config: 'korobeinik.probes.u' must be a non-empty list")
        terms = _int_in(probes, "terms", "korobeinik.probes", 40, 20, 5000)
        got = [radius_probe(seed, u, terms) for u in us]
        reports.extend(got)
        for r in got:
            summary.append(
                f"radius probe u = {r.u:g}: estimated {r.estimated_radius:.6g}, "
                f"predicted {r.predicted_radius:.6g}, {r.verdict}"
            )

    bd = block.get("bidisc")
    if bd is not None:
        ran += 1
        brep = bidisc_check(
            seed,
            u_star,
            _require(bd, "R", "korobeinik.bidisc"),
            _require(bd, "R1", "korobeinik.bidisc"),
            samples=_int_in(bd, "samples", "korobeinik.bidisc", 24, 1, 10_000),
            probe_terms=_int_in(bd, "terms", "korobeinik.bidisc", 40, 20, 5000),
            rng_seed=_int_in(bd, "seed", "korobeinik.bidisc", 7, 0, 2**31),
        )
        verdict = "analytic" if brep.analytic else "NOT analytic"
        summary.append(
            f"bidisc R = {brep.R:g}, R1 = {brep.R1:g}: seed {verdict} on "
            f"|u - u*| < R + 2*sqrt(R1); nearest pole at {brep.pole_distance:g}"
        )
        n_ok = sum(s.consistent for s in brep.samples)
        summary.append(
            f"  {n_ok}/{len(brep.samples)} sample points consistent with the "
            f"pointwise criterion 4|h| < d(u)^2"
        )
        if brep.witness is not None:
            w = brep.witness
            reports.append(witness_report(w))
            summary.append(
                f"  divergence witness at u = {w.u:g}, |h| = {float(w.h):g}: "
                f"term ratio -> {w.predicted_ratio:g} over {w.terms} terms, "
                f"{'confirmed' if w.confirmed else 'NOT confirmed'}"
            )

    cb = block.get("cauchy")
    if cb is not None:
        ran += 1
        crep = cauchy_bound_check(
            seed,
            _require(cb, "r", "korobeinik.cauchy"),
            _require(cb, "r0", "korobeinik.cauchy"),
            _require(cb, "eps", "korobeinik.cauchy"),
            _int_in(cb, "n_max", "korobeinik.cauchy", 20, 0, 10_000),
        )
        summary.append(
            f"cauchy bound: C(eps) = {crep.c_eps:.6g}, worst ratio "
            f"{crep.max_ratio:.6g} at n = {crep.worst_n}, "
            f"{'PASS' if crep.passed else 'FAIL'}"
        )

    ap = block.get("alpha_probe")
    if ap is not None:
        ran += 1
        alpha = _require(ap, "alpha", "korobeinik.alpha_probe")
        if not isinstance(alpha, (list, tuple)):
            raise UsageError("config: 'korobeinik.alpha_probe.alpha' must be a list")
        us = _require(ap, "u", "korobeinik.alpha_probe")
        if not isinstance(us, (list, tuple)) or not us:
            raise UsageError(
                "config: 'korobeinik.alpha_probe.u' must be a non-empty list"
            )
        order = _int_in(ap, "order", "korobeinik.alpha_probe", _order(cfg), MIN_ORDER, MAX_ORDER)
        got = variable_alpha_probe(seed, alpha, order, list(us))
        reports.extend(got)
        for r in got:
            summary.append(
                f"alpha probe u = {r.u:g}: estimated {r.estimated_radius:.6g}, "
                f"alpha == 4 law predicts {r.predicted_radius:.6g}, {r.verdict}"
            )

    br = block.get("bridge")
    if br is not None:
        ran += 1
        order = _int_in(br, "order", "korobeinik.bridge", 6, 1, MAX_ORDER)
        bc = bridge_check(seed, u_star, order)
        if bc.ok:
            summary.append(
                f"series bridge at order {bc.order}: {bc.checked} coefficients, PASS"
            )
        else:
            summary.append(
                f"series bridge at order {bc.order}: "
                f"{len(bc.mismatches)} mismatches, FAIL"
            )

    if ran == 0:
        raise UsageError(
            "config: 'korobeinik' needs at least one of "
            "probes/bidisc/cauchy/alpha_probe/bridge"
        )
    if reports:
        rows = [CONVERGENCE_HEADER] + [r.csv_row() for r in reports]
        path = _write(_out_dir(ns, cfg), "convergence.csv", digest, "\n".join(rows))
        summary.append(f"wrote {len(rows) - 1} rows to {path}")
    print("\n".join(summary))
    return 0


# -- entry point ---------------------------------------------------------------

_COMMANDS = (
    ("expand", "expand the potential and print the relation checklist", _cmd_expand),
    ("normalform", "build and save the cusp normal-form pack", _cmd_normalform),
    ("solve", "reconstruct (h, v) branches at physical points", _cmd_solve),
    ("curves", "sample the fold and h = 0 curve families", _cmd_curves),
    ("verify", "finite-difference residual check on a grid", _cmd_verify),
    ("korobeinik", "convergence diagnostics for the boundary-seeded series", _cmd_korobeinik),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser with its six subparsers, built on the first
    ``main`` call and reused by later ones in the same process."""
    ap = argparse.ArgumentParser(
        prog="hodocusp",
        description="cusp singularities of the shallow-water system "
        "via hodograph series",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, handler in _COMMANDS:
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", required=True, help="YAML config file")
        sp.add_argument("--out", help="output directory (overrides config 'out')")
        sp.add_argument(
            "--mode",
            choices=("exact", "float"),
            help="arithmetic mode (overrides config 'mode')",
        )
        sp.set_defaults(handler=handler)
    return ap


def _parse_args(argv):
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    ns = _parse_args(argv)
    try:
        cfg, digest = _load_config(ns.config)
        return ns.handler(ns, cfg, digest)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
