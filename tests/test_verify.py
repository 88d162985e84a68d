"""Finite-difference oracles: system residuals, G-series residuals, roundtrips."""

import math
from fractions import Fraction

import pytest

from hodocusp import (
    ProblemData,
    UsageError,
    build_normal_form,
    expand_potential,
    hodograph_map,
)
from hodocusp.pde import KorobeinikSeries, SeedFunction, korobeinik_series
from hodocusp.verify import (
    MAX_NODES,
    GridSpec,
    ResidualReport,
    alpha_values,
    branch_field,
    branch_swap_probe,
    constant_field_probe,
    hodograph_roundtrip,
    pde_grid_residual_G,
    system_residual,
)

import numpy as np


@pytest.fixture(scope="module")
def catalan_ks():
    seed = SeedFunction.from_config([{"pole": {"a": 1, "c": 1}}])
    return korobeinik_series(seed, 0, 30)


# -- grid plumbing ------------------------------------------------------------


def test_gridspec_guards():
    with pytest.raises(UsageError, match="exactly 2 components"):
        GridSpec((0.0,), 1e-3, 1e-4)
    with pytest.raises(UsageError, match="must be positive"):
        GridSpec((0.0, 0.0), 0.0, 1e-4)
    with pytest.raises(UsageError, match="exceeds the half-width"):
        GridSpec((0.0, 0.0), 1e-4, 1e-3)


def test_gridspec_axis_symmetric():
    g = GridSpec((0.5, -0.25), 1e-2, 1e-3)
    ax = g.axis(0)
    assert ax.size == 21
    assert ax[10] == 0.5
    assert ax[0] == pytest.approx(0.49)
    assert g.axis(1)[10] == -0.25


def test_node_count_safety_cap(canonical_pack):
    with pytest.raises(UsageError, match="node count exceeds"):
        system_residual(canonical_pack, GridSpec((-0.5, 0.0), 1.0, 1e-4))


def test_minimum_halvings(canonical_pack):
    with pytest.raises(UsageError, match=">= 3 step halvings"):
        system_residual(canonical_pack, GridSpec((-0.5, 0.0), 1e-3, 1e-4), halvings=2)


# -- FD oracle sanity ----------------------------------------------------------


def test_constant_fields_have_zero_residual():
    r1, r2 = constant_field_probe()
    assert r1 <= 1e-13
    assert r2 <= 1e-13


def test_constant_fields_with_alpha_corrections():
    r1, r2 = constant_field_probe(alpha_coeffs=(Fraction(1, 4), Fraction(-1, 8)))
    assert r1 <= 1e-13
    assert r2 <= 1e-13


# -- system residuals on reconstructed sheets -----------------------------------


def test_single_root_sheet_residuals(canonical_pack):
    rep = system_residual(canonical_pack, GridSpec((-0.5, 0.0), 1e-3, 1e-5))
    assert rep.r1_rms <= 1e-9
    assert rep.r2_rms <= 1e-10
    assert 1.8 <= rep.order1 <= 2.2


def test_step_halving_factor_near_four(canonical_pack):
    fine = system_residual(canonical_pack, GridSpec((-0.5, 0.0), 1e-3, 1e-5))
    coarse = system_residual(canonical_pack, GridSpec((-0.5, 0.0), 1e-3, 2e-5))
    factor = coarse.r1_rms / fine.r1_rms
    assert 3.8 <= factor <= 4.2


def test_orders_both_equations(canonical_pack):
    rep = system_residual(canonical_pack, GridSpec((-0.5, 0.0), 1e-3, 2e-5))
    assert 1.8 <= rep.order1 <= 2.2
    assert 1.8 <= rep.order2 <= 2.2


def test_three_root_sheet_residuals(canonical_pack):
    rep = system_residual(canonical_pack, GridSpec((0.5, 0.0), 1e-3, 2e-5), branch=0)
    assert rep.r1_rms <= 1e-8
    assert rep.r2_rms <= 1e-8
    assert 1.8 <= rep.order1 <= 2.2
    assert 1.8 <= rep.order2 <= 2.2


def test_csv_row_has_ten_fields(canonical_pack):
    rep = system_residual(canonical_pack, GridSpec((-0.5, 0.0), 1e-3, 2e-5))
    parts = rep.csv_row().split(",")
    assert len(parts) == 10
    assert float(parts[0]) == -0.5
    assert float(parts[4]) == rep.r1_max


def test_branch_swap_blows_up_residual(canonical_pack):
    base, swapped = branch_swap_probe(canonical_pack, GridSpec((0.5, 0.0), 1e-3, 1e-4))
    assert swapped >= 1e2 * base


def test_fold_touch_rejected(canonical_pack):
    # (tau, xi) = (0.45, 0.18) sits exactly on the fold:
    # (4/3) sqrt(0.45**3 / 5) = (4/3) * 0.135 = 0.18
    with pytest.raises(UsageError, match="touches a fold curve"):
        system_residual(canonical_pack, GridSpec((0.45, 0.18), 1e-3, 1e-3))


def test_wedge_crossing_needs_branch(canonical_pack):
    with pytest.raises(UsageError, match="pass a branch index"):
        system_residual(canonical_pack, GridSpec((0.5, 0.205), 0.04, 0.008))


def test_branch_undefined_outside_wedge(canonical_pack):
    with pytest.raises(UsageError, match="branch 0 is undefined there"):
        system_residual(canonical_pack, GridSpec((0.5, 0.3), 1e-3, 1e-4), branch=0)


def test_branch_index_validated(canonical_pack):
    t = np.array([[0.5]])
    x = np.array([[0.0]])
    with pytest.raises(UsageError, match="branch must be 0, 1, or 2"):
        branch_field(canonical_pack, t, x, branch=5)


def test_branch_fields_are_distinct_inside_wedge(canonical_pack):
    # at xi = 0 the outer sheets mirror each other (same h, opposite v)
    # while the middle sheet carries a different h
    t = np.full((3, 3), 0.5)
    x = np.zeros((3, 3))
    h0, v0 = branch_field(canonical_pack, t, x, 0)[:2]
    h1, v1 = branch_field(canonical_pack, t, x, 1)[:2]
    h2, v2 = branch_field(canonical_pack, t, x, 2)[:2]
    assert np.all(np.abs(v0 - v2) > 1e-1)
    assert np.all(np.abs(h1 - h0) > 1e-1)
    assert np.allclose(h0, h2) and np.allclose(v0, -v2)


def test_branch_field_and_cusp_roots_agree_in_the_fold_band(canonical_pack):
    # (lambda1, q) ~ (1e-12, -1e-8) at t = 1e-12, x = 1e-8 lies in the
    # absolute fold band, but no repeated root is near: both classifiers
    # give the one simple root, and the grid does not touch a fold
    from hodocusp.cusp import reconstruct

    (br,) = reconstruct(1e-12, 1e-8, canonical_pack)
    assert br.multiplicity == 1
    h, v = branch_field(canonical_pack, np.array([1e-12]), np.array([1e-8]))[:2]
    assert abs(h[0] - br.h) <= 1e-12 * abs(br.h)
    assert abs(v[0] - br.v) <= 1e-12 * abs(br.v)
    # the cusp point itself still touches the fold
    with pytest.raises(UsageError, match="touches a fold curve"):
        branch_field(canonical_pack, np.array([0.0]), np.array([0.0]))


# -- refinement study: two extra orders cut the residual ------------------------


@pytest.fixture(scope="module")
def geometric_tail_problem():
    b0 = [0, 0, 0, Fraction(1, 12)] + [Fraction(1, 3) ** j for j in range(4, 18)]
    return ProblemData(
        b0=tuple(b0), alpha=(Fraction(1, 4),), v_star=0, b0_polynomial=True
    )


def test_truncation_order_bump_cuts_fd_residual(geometric_tail_problem):
    # the validity gate is bypassed deliberately: the grid reach exceeds the
    # conservative disc, which is exactly where truncation differences show
    # above the FD floor
    packs = {
        n: build_normal_form(hodograph_map(expand_potential(geometric_tail_problem, order=n)))
        for n in (6, 8)
    }
    grid = GridSpec((-0.1, 0.0), 1e-4, 1e-6)
    r6 = system_residual(packs[6], grid, check=False)
    r8 = system_residual(packs[8], grid, check=False)
    assert r6.r1_rms >= 10.0 * r8.r1_rms
    assert r6.r2_rms >= 10.0 * r8.r2_rms


def test_truncation_tail_shrinks_exactly(geometric_tail_problem):
    # exact-arithmetic version of the same claim: against an order-12
    # reference, the order-8 pack is far closer than the order-6 pack at
    # rational points inside half the order-6 validity disc
    packs = {
        n: build_normal_form(hodograph_map(expand_potential(geometric_tail_problem, order=n)))
        for n in (6, 8, 12)
    }
    assert packs[6].h_of_tau_v.to_float().validity_radius() > 2e-3

    def exact_eval(s, x, y):
        return sum(v * x**i * y**j for i, j, v in s.terms())

    pts = [
        (Fraction(1, 1000), Fraction(0)),
        (Fraction(-1, 1000), Fraction(1, 2000)),
        (Fraction(1, 2000), Fraction(-1, 1000)),
    ]
    for name in ("h_of_tau_v", "xi_of_tau_v"):
        for x, y in pts:
            ref = exact_eval(getattr(packs[12], name), x, y)
            e6 = abs(exact_eval(getattr(packs[6], name), x, y) - ref)
            e8 = abs(exact_eval(getattr(packs[8], name), x, y) - ref)
            assert e8 > 0
            assert e6 >= 100 * e8


# -- G-series FD oracle ----------------------------------------------------------


def test_quadratic_seed_residual_at_roundoff():
    seed = SeedFunction.from_config([{"poly": [0, 0, 1]}])
    ks = korobeinik_series(seed, 0, 8)
    rep = pde_grid_residual_G(ks, GridSpec((0.02, 0.0), 0.02, 1e-3))
    assert rep.r1_max <= 1e-12
    assert rep.r2_max is None and rep.order2 is None


def tile_grids(step):
    return [GridSpec((0.025, -0.175 + 0.05 * k), 0.025, step) for k in range(8)]


def test_catalan_strip_tiling(catalan_ks):
    # 8 abutting squares cover h in [0, 0.05], u in [-0.2, 0.2]; the FD
    # truncation grows toward the pole side, so the corner tiles carry the
    # budget while the merged rms stays near 1e-6 at step 1e-3 and the
    # whole strip clears 1e-6 at step 5e-4
    sqs = []
    for i, g in enumerate(tile_grids(1e-3)):
        rep = pde_grid_residual_G(catalan_ks, g, terms=30)
        sqs.append(rep.r1_rms**2)
        assert 1.8 <= rep.order1 <= 2.2
        if i < 6:
            assert rep.r1_rms <= 1e-6
        assert rep.r1_rms <= 3e-6
    merged = math.sqrt(sum(sqs) / len(sqs))
    assert merged <= 1.2e-6
    sqs = []
    for g in tile_grids(5e-4):
        rep = pde_grid_residual_G(catalan_ks, g, terms=30)
        sqs.append(rep.r1_rms**2)
        assert rep.r1_rms <= 1e-6
    assert math.sqrt(sum(sqs) / len(sqs)) <= 1e-6


def test_more_terms_cut_the_residual(catalan_ks):
    g = GridSpec((0.025, 0.0), 0.025, 1e-3)
    r5 = pde_grid_residual_G(catalan_ks, g, terms=5)
    r30 = pde_grid_residual_G(catalan_ks, g, terms=30)
    assert r30.r1_rms < r5.r1_rms / 10.0


def test_grid_outside_predicted_region(catalan_ks):
    with pytest.raises(UsageError, match="leaves the predicted convergence region"):
        pde_grid_residual_G(catalan_ks, GridSpec((0.2, 0.8), 0.025, 1e-3))


def test_grid_touching_pole(catalan_ks):
    with pytest.raises(UsageError, match="touches a pole of the seed"):
        pde_grid_residual_G(catalan_ks, GridSpec((0.01, 1.0), 0.005, 1e-3))


def test_G_node_cap_refuses_before_any_evaluation(catalan_ks, monkeypatch):
    # over the node cap and outside the predicted region: the cap refuses
    # first, with system_residual's words, and no coefficient is evaluated
    def no_evaluation(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(KorobeinikSeries, "coefficient", no_evaluation)
    monkeypatch.setattr(SeedFunction, "min_pole_distance2", no_evaluation)
    grid = GridSpec((0.2, 0.8), 0.2, 1e-4)
    assert grid.axis(0).size ** 2 > MAX_NODES
    with pytest.raises(UsageError, match="^grid too fine: node count exceeds the safety cap$"):
        pde_grid_residual_G(catalan_ks, grid)


# -- reference oracles: one 2-D stencil for the grid, per-point ones for order ---
#
# Both oracles take their convergence order from 3x3 patches run through the
# full-grid residual code. These references compute it the direct way, with a
# hand-written central stencil at each center, and must give equal reports.


def _reference_centers(grid):
    offs = np.array([-0.5, 0.0, 0.5]) * grid.half_width
    c0, c1 = np.meshgrid(float(grid.center[0]) + offs, float(grid.center[1]) + offs)
    return c0.ravel(), c1.ravel()


def _reference_order(steps, rms):
    return float(np.polyfit(np.log(steps), np.log(rms), 1)[0])


def _rms(a):
    return float(np.sqrt(np.mean(a * a)))


def reference_system_residual(pack, grid, branch=None, halvings=3, check=True):
    alpha = pack.problem.alpha
    T, X = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
    H, V = branch_field(pack, T, X, branch, check)[:2]
    s2 = 2.0 * grid.step
    HV = H * V
    r1 = (H[2:, 1:-1] - H[:-2, 1:-1]) / s2 + (HV[1:-1, 2:] - HV[1:-1, :-2]) / s2
    r2 = (
        (V[2:, 1:-1] - V[:-2, 1:-1]) / s2
        + V[1:-1, 1:-1] * (V[1:-1, 2:] - V[1:-1, :-2]) / s2
        + alpha_values(alpha, H[1:-1, 1:-1]) * (H[1:-1, 2:] - H[1:-1, :-2]) / s2
    )
    Tc, Xc = _reference_centers(grid)
    steps = [grid.step * 2.0 ** m for m in range(halvings + 1)]
    rms1, rms2 = [], []
    for s in steps:
        def field(dt, dx):
            return branch_field(pack, Tc + dt, Xc + dx, branch, check)[:2]

        Hc, Vc = field(0.0, 0.0)
        Hpt, Vpt = field(s, 0.0)
        Hmt, Vmt = field(-s, 0.0)
        Hpx, Vpx = field(0.0, s)
        Hmx, Vmx = field(0.0, -s)
        s2 = 2.0 * s
        rms1.append(_rms((Hpt - Hmt) / s2 + (Hpx * Vpx - Hmx * Vmx) / s2))
        rms2.append(_rms(
            (Vpt - Vmt) / s2 + Vc * (Vpx - Vmx) / s2 + alpha_values(alpha, Hc) * (Hpx - Hmx) / s2
        ))
    return ResidualReport(
        grid=grid,
        r1_max=float(np.max(np.abs(r1))),
        r1_rms=_rms(r1),
        r2_max=float(np.max(np.abs(r2))),
        r2_rms=_rms(r2),
        order1=_reference_order(steps, rms1),
        order2=_reference_order(steps, rms2),
        halvings=halvings,
    )


def reference_grid_residual_G(ks, grid, terms, halvings=3):
    def g(h, u):
        return complex(ks.partial_sum(h, complex(u), terms)).real

    h_ax, u_ax = grid.axis(0), grid.axis(1)
    G = np.array([[g(h, u) for u in u_ax] for h in h_ax])
    s = grid.step
    Ghh = (G[2:, 1:-1] - 2.0 * G[1:-1, 1:-1] + G[:-2, 1:-1]) / (s * s)
    Guu = (G[1:-1, 2:] - 2.0 * G[1:-1, 1:-1] + G[1:-1, :-2]) / (s * s)
    r = h_ax[1:-1][:, None] * Ghh - Guu
    hc, uc = _reference_centers(grid)
    steps = [grid.step * 2.0 ** m for m in range(halvings + 1)]
    rms = []
    for st in steps:
        vals = []
        for h0, u0 in zip(hc, uc):
            ghh = (g(h0 + st, u0) - 2.0 * g(h0, u0) + g(h0 - st, u0)) / (st * st)
            guu = (g(h0, u0 + st) - 2.0 * g(h0, u0) + g(h0, u0 - st)) / (st * st)
            vals.append(h0 * ghh - guu)
        rms.append(_rms(np.asarray(vals)))
    return ResidualReport(
        grid=grid,
        r1_max=float(np.max(np.abs(r))),
        r1_rms=_rms(r),
        r2_max=None,
        r2_rms=None,
        order1=_reference_order(steps, rms),
        order2=None,
        halvings=halvings,
    )


@pytest.mark.parametrize(
    "grid, branch",
    [
        (GridSpec((-0.5, 0.0), 1e-3, 2e-5), None),
        (GridSpec((0.5, 0.0), 1e-3, 2e-5), 0),
        # next to the fold at (0.45, 0.18): the (t - s, x - s) corners of the
        # doubled-step stencils lie on the other side, and no stencil reads them
        (GridSpec((0.45, 0.19), 2e-3, 1e-3), None),
        (GridSpec((0.45, 0.17), 2e-3, 1e-3), 0),
    ],
)
def test_system_residual_matches_reference_stencils(canonical_pack, grid, branch):
    rep = system_residual(canonical_pack, grid, branch)
    assert rep == reference_system_residual(canonical_pack, grid, branch)


def test_system_residual_matches_reference_with_alpha(geometric_tail_problem):
    # nonzero alpha_1 exercises the alpha(h) factor of the momentum residual
    pack = build_normal_form(hodograph_map(expand_potential(geometric_tail_problem, order=6)))
    grid = GridSpec((-0.1, 0.0), 1e-4, 4e-6)
    rep = system_residual(pack, grid, check=False)
    assert rep == reference_system_residual(pack, grid, check=False)


POLY_SEED = [{"poly": [1, Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4), 0, Fraction(-1, 6), 1]}]
# a conjugate pole pair with complex residues, |a - u| >= 1.14 on the grid
PAIR_SEED = [
    {"pole": {"a": [Fraction(3, 4), 1], "c": [1, Fraction(1, 2)]}},
    {"pole": {"a": [Fraction(3, 4), -1], "c": [1, Fraction(-1, 2)]}},
]


@pytest.mark.parametrize(
    "cfg, cap, terms, halvings",
    [
        (None, 30, 30, 3),
        (None, 30, 30, 4),
        (None, 30, None, 3),
        (POLY_SEED, 8, None, 3),
        (PAIR_SEED, 24, None, 3),
    ],
    ids=["catalan-terms30", "catalan-halvings4", "catalan-default-terms", "polynomial", "pole-pair"],
)
def test_grid_residual_G_matches_reference_stencils(catalan_ks, cfg, cap, terms, halvings):
    ks = catalan_ks if cfg is None else korobeinik_series(SeedFunction.from_config(cfg), 0, cap)
    grid = tile_grids(5e-3)[0 if cfg is None else 3]
    rep = pde_grid_residual_G(ks, grid, terms=terms, halvings=halvings)
    assert rep == reference_grid_residual_G(ks, grid, terms, halvings)
    assert rep.halvings == halvings and rep.r1_rms > 0.0


# -- hodograph roundtrip ---------------------------------------------------------


def test_roundtrip_small_radius(canonical_map, canonical_pack):
    pts = [(1e-3, 0.0), (-1e-3, 2e-4), (5e-4, -1e-4), (-2e-4, 9e-4)]
    assert hodograph_roundtrip(canonical_map, canonical_pack, pts) <= 1e-9


def test_roundtrip_larger_radius(canonical_map, canonical_pack):
    pts = [(1e-2, 0.0), (-1e-2, 2e-3), (5e-3, -1e-3)]
    assert hodograph_roundtrip(canonical_map, canonical_pack, pts) <= 1e-6
