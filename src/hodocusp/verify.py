"""Finite-difference oracles for the reconstructed solutions.

The construction pipeline never touches these checks: fields h(t, x),
v(t, x) are rebuilt pointwise from the normal-form pack (root selection
included) and differenced with central stencils, so a pass certifies the
original quasilinear system

    h_t + (h v)_x = 0,
    v_t + v v_x + alpha(h) h_x = 0,

independently of how the series were produced. Grids must sit on a single
sheet: crossing a fold curve would difference across a branch jump and the
oracle refuses rather than report noise.

A second oracle checks Korobeinik's series G(h, u) against h G_hh = G_uu.
Both run through ``_fd_report``: each supplies only its field and its
stencil, and ``_fd_report`` owns the grid checks, the patch layout, and
the max, rms and order statistics of the report.

Convergence orders are estimated on a small fixed set of stencil centers
with the stencil step doubled a few times (shrinking it instead would sink
the truncation error below float roundoff at the sizes used here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cusp import BOUNDARY_TOL, cubic_discriminant, fold_scale, reconstruct
from .errors import UsageError
from .hodograph import HodographMap
from .normal_form import NormalFormPack
from .pde import KorobeinikSeries
from .scalars import scalar_float

MAX_NODES = 8_000_000
MIN_HALVINGS = 3


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned square grid: center +- half_width at the given step."""

    center: tuple
    half_width: float
    step: float

    def __post_init__(self):
        if len(self.center) != 2:
            raise UsageError("grid center needs exactly 2 components")
        if not (self.step > 0 and self.half_width > 0):
            raise UsageError("grid step and half-width must be positive")
        if self.step > self.half_width:
            raise UsageError("grid step exceeds the half-width")

    def axis(self, which: int) -> np.ndarray:
        n = int(round(self.half_width / self.step))
        return float(self.center[which]) + self.step * np.arange(-n, n + 1)


@dataclass(frozen=True)
class ResidualReport:
    grid: GridSpec
    r1_max: float
    r1_rms: float
    r2_max: float | None
    r2_rms: float | None
    order1: float
    order2: float | None
    halvings: int

    def csv_row(self) -> str:
        def f(v):
            return "" if v is None else repr(float(v))

        t0, x0 = (float(c) for c in self.grid.center)
        return ",".join(
            [
                repr(t0),
                repr(x0),
                repr(self.grid.half_width),
                repr(self.grid.step),
                f(self.r1_max),
                f(self.r1_rms),
                f(self.r2_max),
                f(self.r2_rms),
                f(self.order1),
                f(self.order2),
            ]
        )


# -- vectorized series evaluation ----------------------------------------------


def _grid_radius(X: np.ndarray) -> float:
    return float(np.max(np.abs(X))) if X.size else 0.0


def _eval1_grid(s, X: np.ndarray, check: bool = True) -> np.ndarray:
    """The series' kernel over an array, the rule its points run."""
    if check:
        s._gate(_grid_radius(X), "grid radius {:.6g}")
    return s._float_kernel()[0](X, np.zeros_like(X, dtype=float))


def _eval2_grid(s, X: np.ndarray, Y: np.ndarray, check: bool = True) -> np.ndarray:
    if check:
        s._gate(max(_grid_radius(X), _grid_radius(Y)), "grid radius {:.6g}")
    return s._float_kernel()[0](X, Y, np.zeros_like(X, dtype=float))


# -- branch field ----------------------------------------------------------------


def _cardano_grid(p, q):
    s = -0.5 * q
    d = np.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    big = np.where(s >= 0.0, s + d, s - d)
    a = np.cbrt(big)
    return a - p / (3.0 * a)


def _trig_grid(p, q, branch):
    m = 2.0 * np.sqrt(-p / 3.0)
    arg = np.clip(3.0 * q / (p * m), -1.0, 1.0)
    phi = np.arccos(arg)
    k = 2 - branch  # ascending root order
    return m * np.cos((phi - 2.0 * math.pi * k) / 3.0)


def branch_field(pack: NormalFormPack, T: np.ndarray, X: np.ndarray, branch=None,
                 check: bool = True):
    """(h, v, U, tau, xi) arrays for one solution sheet over (t, x) arrays.

    branch None demands the single-root region; 0/1/2 selects the
    ascending root inside the wedge. Mixed or near-fold nodes raise
    UsageError: differencing across a fold would be meaningless.
    check=False skips the per-series validity-disc gate (the gate is
    deliberately conservative; truncation studies need points beyond it).
    """
    t_star, x_star, v_star = pack._float_base
    T = np.asarray(T, dtype=float)
    X = np.asarray(X, dtype=float)
    tau = T - t_star
    xi = X - x_star - v_star * tau
    lam1 = _eval1_grid(pack.lambda1, tau, check)
    lam2 = _eval1_grid(pack.lambda2, tau, check)
    q = lam2 - xi
    disc = cubic_discriminant(lam1, q)
    near = np.abs(disc) <= BOUNDARY_TOL * fold_scale(lam1, q)
    if near.any():
        # the nodes where cusp_roots takes repeated roots: the cusp point,
        # or a double root whose simple root 3q/p is within the Cauchy bound
        m = np.maximum(np.abs(lam1), np.abs(q))
        near &= (m <= BOUNDARY_TOL) | (np.abs(3.0 * q) <= np.abs(lam1) * (1.0 + m))
    if near.any():
        raise UsageError(
            f"grid touches a fold curve: |discriminant| ~ 0 at {int(near.sum())} nodes"
        )
    inside = disc > 0.0
    if branch is None:
        if inside.any():
            raise UsageError(
                f"grid enters the three-root wedge at {int(inside.sum())} nodes; "
                "pass a branch index for a fixed sheet"
            )
        U = _cardano_grid(lam1, q)
    else:
        if branch not in (0, 1, 2):
            raise UsageError("branch must be 0, 1, or 2")
        if not inside.all():
            raise UsageError(
                f"grid leaves the three-root wedge at {int((~inside).sum())} nodes; "
                f"branch {branch} is undefined there"
            )
        U = _trig_grid(lam1, q, branch)
    den = 3.0 * U * U + lam1
    safe = np.abs(den) > 1e-30
    U = U - np.where(safe, ((U * U + lam1) * U + q) / np.where(safe, den, 1.0), 0.0)
    W = _eval2_grid(pack.w_of_tau_u, tau, U, check)
    V = _eval1_grid(pack.v_of_w, W, check)
    H = _eval2_grid(pack.h_of_tau_v, tau, V, check)
    return H, v_star + V, U, tau, xi


# -- residual stencils -----------------------------------------------------------


def alpha_values(alpha_coeffs, H: np.ndarray) -> np.ndarray:
    """alpha(h) = 4 + sum_l alpha_l h^l on an array."""
    A = np.full_like(H, 4.0, dtype=float)
    P = None
    for a in alpha_coeffs:
        P = H if P is None else P * H
        a = float(scalar_float(a))
        if a:
            A = A + a * P
    return A


def grid_residuals(H: np.ndarray, V: np.ndarray, step, alpha_coeffs=()):
    """Central-difference residuals of both equations on interior nodes.

    The last two axes are t and x; leading axes batch independent grids,
    and step broadcasts against the interior. Works on any precomputed
    field arrays, which keeps the oracle usable on fields that never came
    from a pack.
    """
    if H.shape != V.shape or H.ndim < 2 or min(H.shape[-2:]) < 3:
        raise UsageError("need matching field arrays with at least 3 nodes per axis")
    s2 = 2.0 * step
    HV = H * V
    Hc = H[..., 1:-1, 1:-1]
    Vc = V[..., 1:-1, 1:-1]
    r1 = (
        (H[..., 2:, 1:-1] - H[..., :-2, 1:-1]) / s2
        + (HV[..., 1:-1, 2:] - HV[..., 1:-1, :-2]) / s2
    )
    r2 = (
        (V[..., 2:, 1:-1] - V[..., :-2, 1:-1]) / s2
        + Vc * (V[..., 1:-1, 2:] - V[..., 1:-1, :-2]) / s2
        + alpha_values(alpha_coeffs, Hc) * (H[..., 1:-1, 2:] - H[..., 1:-1, :-2]) / s2
    )
    return r1, r2


def _rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(a * a)))


def _order_estimate(steps, rms_values):
    steps = np.asarray(steps, dtype=float)
    rms_values = np.asarray(rms_values, dtype=float)
    if np.any(rms_values <= 0.0):
        return math.nan
    return float(np.polyfit(np.log(steps), np.log(rms_values), 1)[0])


def _patches(grid: GridSpec, steps):
    """3x3 central-stencil patch around each of 9 centers, per step.

    The centers sit at the grid center and half-way to its edges. (T, X)
    have shape (len(steps), 9, 3, 3), t along axis -2, x along -1: the
    middle column of T and middle row of X are c - s, c + 0.0, c + s. The
    corners repeat the center, so no node lies off the five-point stencil.
    """
    offs = np.array([-0.5, 0.0, 0.5]) * grid.half_width
    c0, c1 = np.meshgrid(float(grid.center[0]) + offs, float(grid.center[1]) + offs)
    c0, c1 = c0.ravel(), c1.ravel()
    s = np.asarray(steps, dtype=float)[:, None, None, None]
    e = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return c0[:, None, None] + s * e, c1[:, None, None] + s * e.T


def _fd_report(grid: GridSpec, halvings: int, residuals, admit=None) -> ResidualReport:
    """Run one FD oracle and build its report; both oracles go through here.

    ``residuals(T, X, step)`` returns the residual arrays of the oracle's
    equations on the interior nodes of (T, X) arrays whose last two axes
    are the grid axes; step broadcasts against the interior. Max and rms
    come from the full grid at the base step; the convergence order of
    each equation comes from 3x3 patches around fixed stencil centers with
    the step doubled `halvings` times (>= 3), all evaluated in one call.
    ``admit(t_ax, x_ax, reach)`` may refuse the grid, reach being the
    largest stencil step, before anything is evaluated.
    """
    if halvings < MIN_HALVINGS:
        raise UsageError(f"order estimate needs >= {MIN_HALVINGS} step halvings")
    t_ax = grid.axis(0)
    x_ax = grid.axis(1)
    if t_ax.size * x_ax.size > MAX_NODES:
        raise UsageError("grid too fine: node count exceeds the safety cap")
    steps = [grid.step * 2.0 ** m for m in range(halvings + 1)]
    if admit is not None:
        admit(t_ax, x_ax, steps[-1])
    full = residuals(*np.meshgrid(t_ax, x_ax, indexing="ij"), grid.step)
    patch = residuals(*_patches(grid, steps), np.reshape(steps, (-1, 1, 1, 1)))
    stats = [
        (float(np.max(np.abs(r))), _rms(r), _order_estimate(steps, [_rms(p) for p in pr]))
        for r, pr in zip(full, patch)
    ] + [(None, None, None)]  # an oracle of one equation reports no second
    (r1_max, r1_rms, order1), (r2_max, r2_rms, order2) = stats[:2]
    return ResidualReport(grid, r1_max, r1_rms, r2_max, r2_rms, order1, order2, halvings)


def system_residual(
    pack: NormalFormPack, grid: GridSpec, branch=None, halvings: int = MIN_HALVINGS,
    check: bool = True
) -> ResidualReport:
    """FD residuals of the quasilinear system on one reconstructed sheet,
    from ``branch_field`` on the grid and on the patches (``_fd_report``)."""

    def residuals(T, X, step):
        H, V = branch_field(pack, T, X, branch, check)[:2]
        return grid_residuals(H, V, step, pack.problem.alpha)

    return _fd_report(grid, halvings, residuals)


def branch_swap_probe(pack: NormalFormPack, grid: GridSpec):
    """Negative control: stitch the outer sheets 0 and 2 mid-grid and
    difference across.

    Returns (baseline_rms, swapped_rms) of the mass-equation residual; the
    swap must blow the residual up by orders of magnitude, proving the
    oracle actually sees branch discontinuities.
    """
    t_ax = grid.axis(0)
    x_ax = grid.axis(1)
    T, X = np.meshgrid(t_ax, x_ax, indexing="ij")
    H0, V0 = branch_field(pack, T, X, 0)[:2]
    H1, V1 = branch_field(pack, T, X, 2)[:2]
    mid = x_ax.size // 2
    cols = np.arange(x_ax.size)[None, :]
    Hs = np.where(cols < mid, H0, H1)
    Vs = np.where(cols < mid, V0, V1)
    base1, _ = grid_residuals(H0, V0, grid.step, pack.problem.alpha)
    swap1, _ = grid_residuals(Hs, Vs, grid.step, pack.problem.alpha)
    return _rms(base1), _rms(swap1)


def constant_field_probe(alpha_coeffs=()):
    """Constant fields (h, v) = (2, 0.5) on a 21 x 21 grid solve the system;
    the oracle must report ~ 0."""
    H = np.full((21, 21), 2.0)
    V = np.full((21, 21), 0.5)
    r1, r2 = grid_residuals(H, V, 1e-3, alpha_coeffs)
    return float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))


# -- G-series PDE oracle ---------------------------------------------------------


def _g_field(ks: KorobeinikSeries, H: np.ndarray, U: np.ndarray, terms: int) -> np.ndarray:
    """Real part of sum_{n=1..terms} g_n(u) h^n on (h, u) arrays.

    Each g_n's float evaluator is built once and evaluated once per
    distinct u, and the h powers are multiplied up from ones and added in
    n order, so a node's value does not depend on the grid around it.
    """
    u_vals, where = np.unique(U.ravel(), return_inverse=True)
    G = np.zeros(H.shape)
    hp = np.ones(H.shape)
    for n in range(1, terms + 1):
        gn = ks._float_coefficient(n)
        g = np.array([gn(complex(u)).real for u in u_vals])
        hp = hp * H
        G += hp * g[where].reshape(H.shape)
    return G


def _korobeinik_residual(G: np.ndarray, H: np.ndarray, step) -> np.ndarray:
    """h G_hh - G_uu by central second differences on interior nodes; the
    last two axes are h and u, as in ``grid_residuals``."""
    Gc = G[..., 1:-1, 1:-1]
    Ghh = (G[..., 2:, 1:-1] - 2.0 * Gc + G[..., :-2, 1:-1]) / (step * step)
    Guu = (G[..., 1:-1, 2:] - 2.0 * Gc + G[..., 1:-1, :-2]) / (step * step)
    return H[..., 1:-1, 1:-1] * Ghh - Guu


def pde_grid_residual_G(
    ks: KorobeinikSeries,
    grid: GridSpec,
    terms: int | None = None,
    halvings: int = MIN_HALVINGS,
) -> ResidualReport:
    """FD residual of h G_hh - G_uu on partial sums over a real (h, u) grid,
    reported by ``_fd_report``, as ``system_residual`` is."""
    terms = ks.cap if terms is None else min(terms, ks.cap)

    def residuals(H, U, step):
        return (_korobeinik_residual(_g_field(ks, H, U, terms), H, step),)

    return _fd_report(grid, halvings, residuals, partial(_require_inside_predicted, ks))


def _require_inside_predicted(ks: KorobeinikSeries, h_ax, u_ax, extra):
    """All stencil points must obey |h| < d(u)**2 / 4 with room to spare."""
    seed = ks.seed
    if seed.is_entire():
        return
    reach = float(np.max(np.abs(h_ax))) + extra
    d2_min = min(float(seed.min_pole_distance2(complex(u))) for u in u_ax)
    d_min = math.sqrt(d2_min) - extra  # stencil shifts in u close in on the pole
    if d_min <= 0.0:
        raise UsageError("grid touches a pole of the seed")
    if reach >= d_min * d_min / 4.0:
        raise UsageError(
            f"grid leaves the predicted convergence region: |h| reach {reach:.6g} "
            f">= pointwise radius {d_min * d_min / 4.0:.6g}"
        )


# -- hodograph roundtrip ---------------------------------------------------------


def hodograph_roundtrip(m: HodographMap, pack: NormalFormPack, points, check=True):
    """Max over points and branches of |t(h,V) - t| + |x(h,V) - x|."""
    worst = 0.0
    for t, x in points:
        for br in reconstruct(float(t), float(x), pack, check=check):
            tb = m.t.evaluate(br.h, br.V, check=check)
            xb = m.x.evaluate(br.h, br.V, check=check)
            worst = max(worst, abs(tb - t) + abs(xb - x))
    return worst
