"""Cusp normal form of the hodograph map near a singular base point.

Starting from the shifted map (tau, xi)(h, V) with b02 = 0, b11 != 0:

1. solve tau = tau(h, V) for h(tau, V)          (leading tau/b11 - V**2/4),
2. substitute into xi to get xi(tau, V)         (xi(0,V) = 5 b11/12 V^3 + ..),
3. normalize the tau = 0 slice to a pure cube: V(W) with xi(0, V(W)) = W**3,
4. rewrite xi(tau, W) and fit the miniversal cusp deformation

       xi(tau, W) = U(tau, W)**3 + lambda1(tau) U(tau, W) + lambda2(tau),

   with U(0, W) = W; the fit is a triangular solve in powers of tau
   (W^0 row -> lambda2, W^1 row -> lambda1, W^k rows -> U coefficients),
5. invert U(tau, W) in W to get W(tau, U).

In exact mode the only irrationality is c = (12/(5 b11))**(1/3) =
(1/c3)**(1/3), with c3 = 5 b11/12 the V^3 coefficient of xi(0, V). The cusp
is quasi-homogeneous (tau has weight 2; U, W and V weight 1), so c only
rescales W to w = cW. Steps 3-5 therefore run over Q on xi/c3, whose cubic
coefficient is 1, in w; the pack is assembled by lifting each series to the
W frame with the weight table ``_C_POWERS``, which gives every coefficient
its power of c, so the fitted identity is exact, not approximate. Float
mode builds in the W frame directly. sign(lambda1 slope) = -sign(b11)
determines at runtime which tau half-plane carries the three-root wedge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .errors import DegeneracyError, UsageError
from .hodograph import HodographMap
from .pde import ProblemData
from .scalars import CubicRadical, _over_power, _times_power, cbrt_exact, scalar_float
from .series import (
    EXACT,
    Series1,
    Series2,
    _product,
    cube_root_normalize,
    implicit_solve,
    lift1to2,
    series1_text,
    series2_text,
    substitute,
    variable2,
)


@dataclass(frozen=True)
class NormalFormPack:
    """Everything needed to evaluate the solution near the cusp."""

    h_of_tau_v: Series2   # (tau, V)
    xi_of_tau_v: Series2  # (tau, V)
    v_of_w: Series1       # V(W)
    xi_of_tau_w: Series2  # (tau, W)
    lambda1: Series1      # in tau
    lambda2: Series1      # in tau
    u_of_tau_w: Series2   # (tau, W), U(0, W) = W
    w_of_tau_u: Series2   # (tau, U)
    b11: object
    problem: ProblemData

    @property
    def mode(self):
        return self.h_of_tau_v.mode

    @property
    def order(self):
        return self.h_of_tau_v.cap

    def lambda1_slope(self):
        """Leading coefficient of lambda1; equals (-12/(5 b11))**(1/3)."""
        return self.lambda1.coefficient(1)

    def multivalued_halfplane(self) -> int:
        """Sign s such that lambda1(tau) < 0 (three roots possible) for
        small tau with sign(tau) = s. Derived from the fitted slope, not
        from any printed convention."""
        slope = float(self.lambda1_slope())
        if slope == 0:
            raise DegeneracyError("lambda1 has no linear part")
        return -1 if slope > 0 else 1

    @cached_property
    def _float_base(self):
        """(t*, x*, v*) as floats, for the pointwise and grid evaluators."""
        p = self.problem
        return scalar_float(p.t_star), scalar_float(p.x_star), scalar_float(p.v_star)

    @cached_property
    def _dh_dv(self):
        """dh/dV(tau, V), for the Newton steps of ``cusp.zero_curves``."""
        return self.h_of_tau_v.derivative("V")


def build_normal_form(m: HodographMap) -> NormalFormPack:
    p = m.problem
    p.require_singular()
    tau, xi = m.tau, m.xi
    b11 = tau.coefficient(1, 0)
    if b11 == 0:
        raise DegeneracyError("degenerate: b11 must be nonzero")

    h_tv = implicit_solve(tau, "h", "tau")
    xi_tv = substitute(xi, "h", h_tv)
    x0 = xi_tv.at_zero(1)
    # exact mode: the frame w = cW, where x0/c3 has cubic coefficient 1 and
    # every series below is rational (a missing c3 is refused just below)
    c3 = x0._c.get(3) if xi_tv.mode == EXACT else None
    if c3 is not None:
        x0 = x0.scale(1 / c3)
    v_of_w = cube_root_normalize(x0, "W")
    vw2 = lift1to2(v_of_w, ("tau", "W"), 1)
    xi_tw = substitute(xi_tv, "V", vw2)
    xi_fit = xi_tw if c3 is None else xi_tw.scale(1 / c3)

    leftover = xi_fit.at_zero(1) - _cube_series(xi_fit)
    if c3 is not None:
        zero_row = [j for j, _ in leftover.terms()]
    else:
        zero_row = [j for j, v in leftover.terms() if abs(v) > 1e-9]
    if zero_row:
        raise DegeneracyError(
            f"cube normalization failed: xi(0, W) != W^3 at degrees {zero_row}"
        )

    lam1, lam2, u_tw = _fit_miniversal(xi_fit)
    w_tu = implicit_solve(u_tw, "W", "U")
    framed = {
        "v_of_w": v_of_w,
        "xi_of_tau_w": xi_tw,
        "lambda1": lam1,
        "lambda2": lam2,
        "u_of_tau_w": u_tw,
        "w_of_tau_u": w_tu,
    }
    if c3 is not None:
        c = cbrt_exact(1 / c3)
        framed = {attr: _lift(s, attr, c) for attr, s in framed.items()}
    return NormalFormPack(h_of_tau_v=h_tv, xi_of_tau_v=xi_tv, b11=b11, problem=p, **framed)


# The weight table: the power of c that the coefficient of a key gains when a
# series built over Q in w = cW is lifted to the W frame. U, W and V have
# weight 1 and xi weight 3, so tau^i W^j of V(W) and xi(tau, W) gains c^j;
# U(tau, W) = U~(tau, cW)/c and W(tau, U) likewise gain c^(j-1), and
# lambda1 = lambda1~ c3^(2/3) and lambda2 = lambda2~ c3 gain c^-2 and c^-3.
_C_POWERS = {
    "v_of_w": lambda j: j,
    "xi_of_tau_w": lambda k: k[1],
    "lambda1": lambda i: -2,
    "lambda2": lambda i: -3,
    "u_of_tau_w": lambda k: k[1] - 1,
    "w_of_tau_u": lambda k: k[1] - 1,
}


def _lift(s, attr, c):
    """The pack series ``attr`` in the W frame from its rational form in
    w = cW; a float series (c None) is already in the W frame."""
    if c is None:
        return s
    power = _C_POWERS[attr]
    lifted = {k: _times_power(v, c, power(k)) for k, v in s._c.items()}
    return s._raw(s._vars, s.cap, lifted, s.mode, s.eff)


def _read(pack, attr, c):
    """The pack series ``attr`` read back to its rational form in w = cW.

    Refuses a coefficient that is not a rational times the one power of c
    that its key requires."""
    s = getattr(pack, attr)
    if c is None:
        return s
    power = _C_POWERS[attr]
    out = {}
    for k, v in s._c.items():
        n = power(k)
        out[k] = _over_power(v, c, n)
        if out[k] is None:
            raise UsageError(
                f"{attr} coefficient {k} = {v!r} is not a rational times c^{n}, c = {c!r}"
            )
    return s._raw(s._vars, s.cap, out, s.mode, s.eff)


def _pack_root(pack):
    """c = (12/(5 b11))**(1/3) of an exact pack, from the problem data; None
    for a float pack."""
    if pack.mode != EXACT:
        return None
    return cbrt_exact(Fraction(12, 5) / pack.problem.b11)


def _cube_series(xi_tw: Series2) -> Series1:
    one = 1.0 if xi_tw.mode == "float" else Fraction(1)
    return Series1("W", xi_tw.cap, {3: one}, mode=xi_tw.mode)


def _fit_miniversal(xi_tw: Series2):
    """Triangular fit of xi(tau, W) = U^3 + lambda1 U + lambda2.

    U and U^2 are kept as tau-rows of polynomials in W, row m truncated at
    W-degree cap - m. With U_0 = W and lambda1_0 = lambda2_0 = 0, row m of
    U^3 + lambda1 U + lambda2 is a sum of univariate products of rows < m
    plus the unknowns 3 W^2 U_m + lambda1_m W + lambda2_m. So the residual
    row R_m(W) determines lambda2_m (W^0), lambda1_m (W^1) and U_{m, k-2}
    (W^k, k >= 2), and one sweep in m suffices.

    The rows are one-variable series, so each converts its coefficients to
    the product kernel's integer form once, however many rows it meets. The
    known part of row m of U^2, and that of U^3 + lambda1 U, is one kernel
    call each over the list of row pairs; row m of U^2 then gains the
    unknowns' share 2 W U_m term by term.
    """
    cap, mode = xi_tw.cap, xi_tw.mode
    one = 1.0 if mode == "float" else Fraction(1)
    three = 3.0 if mode == "float" else Fraction(3)
    xi_rows = [{} for _ in range(cap + 1)]
    for (i, j), v in xi_tw._c.items():
        xi_rows[i][j] = v
    lam1 = {}
    lam2 = {}

    def row(c):
        return Series1._raw("W", cap, c, mode, cap)

    u = [row({1: one})]  # rows of U
    sq = [row({2: one})]  # rows of U^2
    for m in range(1, cap + 1):
        deg = cap - m
        # row m of U^2 and of U^3 + lambda1 U, leaving out the unknowns
        sq_m = _product([(u[a], u[m - a]) for a in range(1, m)], deg)
        pairs = []
        for a in range(1, m):
            pairs.append((sq[a], u[m - a]))
            if a in lam1:
                pairs.append((row({0: lam1[a]}), u[m - a]))
        pairs.append((row(sq_m), u[0]))
        known = _product(pairs, deg)
        resid = dict(xi_rows[m])
        for j, v in known.items():
            resid[j] = resid[j] - v if j in resid else -v
        u_m = {}
        for j, v in resid.items():
            if v == 0:
                continue
            if j == 0:
                lam2[m] = v
            elif j == 1:
                lam1[m] = v
            else:
                u_m[j - 2] = v / three
        u.append(row(u_m))
        # and the unknowns' share of row m of U^2, 2 W U_m, in a copy: the
        # series over the known part has cached its terms
        sq_m = dict(sq_m)
        for j, v in u_m.items():
            w = sq_m.get(j + 1)
            sq_m[j + 1] = 2 * v if w is None else w + 2 * v
        sq.append(row(sq_m))
    eff = xi_tw.eff
    lam1_s = Series1("tau", cap, lam1, mode=mode, eff=eff)
    lam2_s = Series1("tau", cap, lam2, mode=mode, eff=eff)
    u_c = {(i, j): v for i, r in enumerate(u) for j, v in r._c.items()}
    u_s = Series2(xi_tw.names, cap, u_c, mode=mode, eff=eff)
    return lam1_s, lam2_s, u_s


def verify_miniversal(pack: NormalFormPack) -> Series2:
    """Residual xi(tau, W) - (U^3 + lambda1 U + lambda2); exactly zero to cap.

    An exact pack is read back to w = cW through the weight table, where the
    identity xi~ = c3 (U~^3 + lambda1~ U~ + lambda2~) holds over Q, and its
    residual is lifted like xi.
    """
    c = _pack_root(pack)
    xi, u, lam1, lam2 = (
        _read(pack, attr, c) for attr in ("xi_of_tau_w", "u_of_tau_w", "lambda1", "lambda2")
    )
    l1 = lift1to2(lam1, xi.names, 0)
    l2 = lift1to2(lam2, xi.names, 0)
    cubic = u * u * u + l1 * u + l2
    if c is not None:
        cubic = cubic.scale(_times_power(Fraction(1), c, -3))
    return _lift(xi - cubic, "xi_of_tau_w", c)


def roundtrip_w_u(pack: NormalFormPack) -> tuple[Series2, Series2]:
    """U(tau, W(tau, U)) - U and W(tau, U(tau, W)) - W; both zero to cap.

    An exact pack is read back to w = cW, the round trips run over Q, and
    their residuals are lifted like W(tau, U) and U(tau, W).
    """
    c = _pack_root(pack)
    u = _read(pack, "u_of_tau_w", c)
    w = _read(pack, "w_of_tau_u", c)
    u_id = variable2(("tau", "U"), u.cap, "U", mode=pack.mode)
    w_id = variable2(("tau", "W"), w.cap, "W", mode=pack.mode)
    return (
        _lift(substitute(u, "W", w) - u_id, "w_of_tau_u", c),
        _lift(substitute(w, "U", u) - w_id, "u_of_tau_w", c),
    )


# -- serialization ------------------------------------------------------------

_PACK_FILES = (
    ("h_of_tau_v", "h_of_tau_V.txt"),
    ("xi_of_tau_v", "xi_of_tau_V.txt"),
    ("v_of_w", "V_of_W.txt"),
    ("xi_of_tau_w", "xi_of_tau_W.txt"),
    ("lambda1", "lambda1.txt"),
    ("lambda2", "lambda2.txt"),
    ("u_of_tau_w", "U_of_tau_W.txt"),
    ("w_of_tau_u", "W_of_tau_U.txt"),
)


def save_pack(pack: NormalFormPack, out_dir, header_lines=(), manifest_extra=None) -> list[str]:
    """Write the pack's series tables plus a manifest; returns file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    prefix = "".join(f"# {line}\n" for line in header_lines)
    for attr, fname in _PACK_FILES:
        s = getattr(pack, attr)
        text = series1_text(s) if isinstance(s, Series1) else series2_text(s)
        (out / fname).write_text(prefix + text)
        written.append(fname)
    slope = pack.lambda1_slope()
    manifest = {
        "order": pack.order,
        "mode": pack.mode,
        "b11": _scalar_json(pack.b11),
        "lambda1_slope": _scalar_json(slope),
        "radical": _radical_json(slope),
        "files": [f for _, f in _PACK_FILES],
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append("manifest.json")
    return written


def _scalar_json(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, CubicRadical):
        return {
            "a0": str(v.a0),
            "a1": str(v.a1),
            "a2": str(v.a2),
            "radicand": str(v.rad),
            "root": 3,
        }
    return repr(float(v))


def _radical_json(slope):
    """The adjoined constants: +-(12/(5 b11))^(1/3)."""
    if isinstance(slope, CubicRadical):
        return {"radicand": str(slope.rad), "root": 3}
    return None
