"""Root selection and field reconstruction across the cusp.

The normal form reduces the hodograph map at fixed tau to the real cubic

    U**3 + lambda1(tau) U + (lambda2(tau) - xi) = 0.

Inside the wedge |lambda2 - xi| < (-4 lambda1**3 / 27)**(1/2) (only possible
where lambda1 < 0) the cubic has three real roots and the solution is
triple-valued; the wedge boundary carries a double root (fold), the cusp
point a triple root. Each real root U maps back through W, V to a branch
(h, v) of the shallow-water fields.

Two curve families out of the cusp point matter downstream: the fold pair
xi = lambda2 +- wedge_halfwidth (branch merging) and the zero pair where
h(tau, V) = 0 (vacuum line h = 0 of the middle branch). To leading order
both scale like |tau|**(3/2) with amplitude ratio 5**(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .normal_form import NormalFormPack
from .scalars import real_cbrt, scalar_float

BOUNDARY_TOL = 1e-12
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 60


def cubic_discriminant(p, q):
    """-4 p**3 - 27 q**2 of U**3 + p U + q, for floats or numpy arrays.

    Written as products, not powers, so that the per-point classifier
    (``cusp_roots``) and the grid one (``verify.branch_field``) get the
    same bits at the same (p, q): numpy's ``power`` and the scalar ``**``
    round differently.
    """
    return -4.0 * p * p * p - 27.0 * q * q


def fold_scale(p, q):
    """max(1, p**2, q**2)**1.5, the scale of the fold tolerance, for floats
    or numpy arrays.

    Computed as m * sqrt(m): sqrt rounds correctly in libm and numpy
    alike, so ``cusp_roots`` and ``verify.branch_field`` get the same bits,
    where the scalar and the numpy ``** 1.5`` round apart.
    """
    if isinstance(p, float) and isinstance(q, float):
        m = max(1.0, p * p, q * q)
        return m * math.sqrt(m)
    import numpy as np  # only grid callers pass arrays, and they hold numpy

    m = np.maximum(1.0, np.maximum(p * p, q * q))
    return m * np.sqrt(m)


def _near_fold(p, q, disc):
    """Whether ``cusp_roots`` takes repeated roots at (p, q), for floats or
    numpy arrays; disc = ``cubic_discriminant(p, q)``. |disc| lies within
    BOUNDARY_TOL * ``fold_scale(p, q)``, and (p, q) is either the cusp point,
    m = max(|p|, |q|) <= BOUNDARY_TOL, or a double root whose simple root
    3q/p lies within the Cauchy bound 1 + m; otherwise (p == 0 among them)
    the sign of disc decides. ``verify.branch_field`` refuses these nodes.
    """
    near = abs(disc) <= BOUNDARY_TOL * fold_scale(p, q)
    if isinstance(near, bool):
        if not near:
            return False
        m = max(abs(p), abs(q))
    else:
        if not near.any():
            return near
        import numpy as np  # only grid callers pass arrays, and they hold numpy

        m = np.maximum(abs(p), abs(q))
    return near & ((m <= BOUNDARY_TOL) | (abs(3.0 * q) <= abs(p) * (1.0 + m)))


def cusp_roots(p, q):
    """Real roots of U**3 + p U + q = 0, ascending, as (root, multiplicity).

    Three regimes, split by the discriminant against a scale-aware
    tolerance: positive -> three simple roots by the trigonometric
    method, negative -> one real root by Cardano with cancellation-free
    branch choice, near zero -> repeated roots in closed form.
    """
    p = float(p)
    q = float(q)
    disc = cubic_discriminant(p, q)
    if _near_fold(p, q, disc):
        if max(abs(p), abs(q)) <= BOUNDARY_TOL:
            return [(0.0, 3)]
        # a double root a and a simple one -2a = 3q/p
        a = -1.5 * q / p
        pair = [(a, 2), (-2.0 * a, 1)]
        pair.sort(key=lambda rm: rm[0])
        return pair
    if disc > 0.0:
        # p < 0 is forced here; amplitude 2 sqrt(-p/3)
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = max(-1.0, min(1.0, arg))
        phi = math.acos(arg)
        # k = 2, 1, 0 lands the cosines in [-1,-1/2], [-1/2,1/2], [1/2,1]
        roots = [
            _polish(m * math.cos((phi - 2.0 * math.pi * k) / 3.0), p, q)
            for k in (2, 1, 0)
        ]
        return [(r, 1) for r in roots]
    s = -0.5 * q
    d = math.sqrt(max(q * q / 4.0 + (p / 3.0) ** 3, 0.0))
    big = s + d if s >= 0.0 else s - d
    a_part = real_cbrt(big)
    root = a_part - p / (3.0 * a_part) if a_part != 0.0 else 0.0
    return [(_polish(root, p, q), 1)]


def _polish(r, p, q):
    for _ in range(2):
        df = 3.0 * r * r + p
        if df == 0.0:
            break
        r -= ((r * r + p) * r + q) / df
    return r


def wedge_halfwidth(lam1) -> float:
    """Half-width of the three-root window in xi at fixed lambda1."""
    lam1 = float(lam1)
    if lam1 > 0.0:
        raise DomainError(
            "no wedge here: lambda1 > 0, tau lies on the single-valued side"
        )
    return math.sqrt(-4.0 * lam1 ** 3 / 27.0)


@dataclass(frozen=True)
class SolutionBranch:
    """One root of the cusp cubic pushed back to physical fields."""

    U: float
    W: float
    V: float
    h: float
    v: float
    multiplicity: int
    inside_wedge: bool


def reconstruct_tau_xi(tau, xi, pack: NormalFormPack, check=True):
    """All solution branches at shifted coordinates (tau, xi), U ascending."""
    lam1 = pack.lambda1.evaluate(tau, check=check)
    lam2 = pack.lambda2.evaluate(tau, check=check)
    roots = cusp_roots(lam1, lam2 - xi)
    inside = len(roots) == 3
    v_star = pack._float_base[2]
    branches = []
    for u_val, mult in roots:
        w_val = pack.w_of_tau_u.evaluate(tau, u_val, check=check)
        v_val = pack.v_of_w.evaluate(w_val, check=check)
        h_val = pack.h_of_tau_v.evaluate(tau, v_val, check=check)
        branches.append(
            SolutionBranch(
                U=u_val,
                W=w_val,
                V=v_val,
                h=h_val,
                v=v_star + v_val,
                multiplicity=mult,
                inside_wedge=inside,
            )
        )
    return branches


def reconstruct(t, x, pack: NormalFormPack, check=True):
    """Branches at physical (t, x); strips the base point and drift."""
    t_star, x_star, v_star = pack._float_base
    tau = float(t) - t_star
    xi = float(x) - x_star - v_star * tau
    return reconstruct_tau_xi(tau, xi, pack, check=check)


@dataclass(frozen=True)
class CurveSample:
    tau: float
    xi: float
    kind: str


def fold_curves(pack: NormalFormPack, taus, check=True):
    """Wedge boundary xi = lambda2 +- halfwidth at each tau.

    Raises DomainError when a tau sits on the single-valued side; use
    pack.multivalued_halfplane() to orient the input.
    """
    out = []
    for tau in taus:
        tau = float(tau)
        lam1 = pack.lambda1.evaluate(tau, check=check)
        lam2 = pack.lambda2.evaluate(tau, check=check)
        w = wedge_halfwidth(lam1)
        out.append(CurveSample(tau, lam2 + w, "fold-plus"))
        out.append(CurveSample(tau, lam2 - w, "fold-minus"))
    return out


def zero_curves(pack: NormalFormPack, taus, check=True):
    """Images of the nontrivial h = 0 roots, xi(tau, V(tau)) with h = 0.

    h(tau, V) = tau/b11 - V**2/4 + ... vanishes at V ~ +-2 sqrt(tau/b11);
    each seed is refined by Newton in V and pushed through xi.
    """
    hs = pack.h_of_tau_v
    dv = pack._dh_dv
    b11 = scalar_float(pack.b11)
    out = []
    for tau in taus:
        tau = float(tau)
        s = tau / b11
        if s <= 0.0:
            raise DomainError(
                "no h = 0 curve here: tau/b11 <= 0, "
                "tau lies on the single-valued side"
            )
        seed = 2.0 * math.sqrt(s)
        for sign, kind in ((1.0, "zero-plus"), (-1.0, "zero-minus")):
            v = _newton_h_zero(hs, dv, tau, sign * seed, check)
            xi_val = pack.xi_of_tau_v.evaluate(tau, v, check=check)
            out.append(CurveSample(tau, xi_val, kind))
    return out


def _newton_h_zero(hs, dv, tau, v0, check):
    v = v0
    for _ in range(NEWTON_MAX_ITER):
        f = hs.evaluate(tau, v, check=check)
        d = dv.evaluate(tau, v, check=False)
        if d == 0.0:
            break
        step = f / d
        v -= step
        if abs(step) <= 1e-16 * max(1.0, abs(v)):
            break
    f = hs.evaluate(tau, v, check=check)
    scale = max(1.0, abs(tau), v * v)
    if abs(f) > NEWTON_TOL * scale:
        raise DomainError(
            f"h = 0 refinement stalled at tau = {tau:.6g}: residual {f:.3g}"
        )
    return v
