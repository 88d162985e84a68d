"""Cusp cubic roots, wedge geometry, and branch reconstruction."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hodocusp import (
    DomainError,
    ProblemData,
    build_normal_form,
    expand_potential,
    hodograph_map,
)
from hodocusp.cusp import (
    _near_fold,
    cubic_discriminant,
    cusp_roots,
    fold_curves,
    reconstruct,
    reconstruct_tau_xi,
    wedge_halfwidth,
    zero_curves,
)
from hodocusp.scalars import real_cbrt
from hodocusp.verify import _cardano_grid, _trig_grid

C_CANON = (12.0 / 5.0) ** (1.0 / 3.0)


def gentle_pack(order=6):
    p = ProblemData(
        b0=(0, 0, 0, Fraction(1, 12), Fraction(1, 40), Fraction(1, 160)),
        alpha=(Fraction(1, 8),),
        v_star=Fraction(1, 5),
        b0_polynomial=True,
    )
    return build_normal_form(hodograph_map(expand_potential(p, order=order)))


# -- root finder --------------------------------------------------------------


def test_three_simple_roots():
    roots = cusp_roots(-3.0, 0.0)
    assert [m for _, m in roots] == [1, 1, 1]
    vals = [r for r, _ in roots]
    assert vals == sorted(vals)
    s3 = math.sqrt(3.0)
    for got, want in zip(vals, (-s3, 0.0, s3)):
        assert abs(got - want) < 1e-15


def test_boundary_double_root():
    assert cusp_roots(-3.0, 2.0) == [(-2.0, 1), (1.0, 2)]
    assert cusp_roots(-0.75, 0.25) == [(-1.0, 1), (0.5, 2)]


def test_triple_root_at_origin():
    assert cusp_roots(0.0, 0.0) == [(0.0, 3)]


def test_single_real_root():
    assert cusp_roots(0.0, -8.0) == [(2.0, 1)]
    (r, m), = cusp_roots(3.0, -4.0)
    assert m == 1
    assert abs(r - 1.0) < 1e-15


ZERO_P_IN_BAND = [(p, q) for p in (0.0, -0.0) for q in (1e-8, -1e-8, 1e-7, -3e-10)]
BEYOND_THE_ROOT_BOUND = [(1e-20, 1e-8), (-1e-20, 1e-8), (1e-16, -3e-9), (-2e-14, 5e-10)]


@pytest.mark.parametrize("p, q", ZERO_P_IN_BAND)
def test_zero_p_in_the_fold_band_is_one_simple_root(p, q):
    # |disc| = 27 q**2 lies inside the fold tolerance, but U**3 + q has one
    # simple real root, the real cube root of -q (this used to divide by p)
    (r, m), = cusp_roots(p, q)
    assert m == 1
    assert abs(r - real_cbrt(-q)) <= 1e-15 * abs(r)
    assert math.copysign(1.0, r) == -math.copysign(1.0, q)


@pytest.mark.parametrize("p, q", BEYOND_THE_ROOT_BOUND)
def test_fold_band_pair_beyond_the_root_bound_is_one_simple_root(p, q):
    # |disc| lies inside the absolute fold band, but the pair's simple root
    # 3q/p would lie far beyond the Cauchy bound 1 + max(|p|, |q|) of every
    # root, so the sign of disc decides (cusp_roots(1e-20, 1e-8) used to
    # give a double root at -1.5e12 and a simple one at 3e12)
    assert abs(cubic_discriminant(p, q)) <= 1e-12
    assert cubic_discriminant(p, q) < 0.0
    (r, m), = cusp_roots(p, q)
    assert m == 1
    assert abs((r * r + p) * r + q) <= 1e-15 * abs(q)
    assert abs(r) <= 1.0 + max(abs(p), abs(q))


def test_fold_predicate_is_the_same_for_floats_and_arrays():
    """``_near_fold`` on a float pair against the one-element-array call
    that ``verify.branch_field`` makes: the fold-band cases above, the
    double and triple roots, and seeded pairs at many scales and on or
    next to the fold q = +-2 (-p/3)**1.5."""
    rng = random.Random(30)
    pairs = ZERO_P_IN_BAND + BEYOND_THE_ROOT_BOUND
    pairs += [(-3.0, 2.0), (-0.75, 0.25), (0.0, 0.0), (-0.0, 0.0), (1e-13, -1e-13)]
    for _ in range(2000):
        scale = 10.0 ** rng.randint(-14, 2)
        pairs.append((rng.uniform(-3.0, 3.0) * scale, rng.uniform(-3.0, 3.0) * scale))
    for _ in range(1000):
        p = -rng.uniform(0.0, 3.0) * 10.0 ** rng.randint(-8, 0)
        nudge = rng.choice((0.0, rng.uniform(-1e-11, 1e-11), rng.uniform(-1e-3, 1e-3)))
        pairs.append((p, rng.choice((1.0, -1.0)) * 2.0 * (-p / 3.0) ** 1.5 * (1.0 + nudge)))
    verdicts = []
    for p, q in pairs:
        got = _near_fold(p, q, cubic_discriminant(p, q))
        P, Q = np.array([p]), np.array([q])
        grid = _near_fold(P, Q, cubic_discriminant(P, Q))
        assert type(got) is bool and grid.shape == (1,)
        assert got == bool(grid[0]), (p, q)
        verdicts.append(got)
    P, Q = np.array(pairs).T
    assert _near_fold(P, Q, cubic_discriminant(P, Q)).tolist() == verdicts
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_cardano_cancellation_free():
    # large |q| with q > 0 hits the s - d branch; the root stays accurate
    (r, m), = cusp_roots(1e-3, 1e6)
    assert m == 1
    assert abs(r ** 3 + 1e-3 * r + 1e6) <= 1e-9 * (1.0 + abs(r) ** 3)


def test_root_count_follows_discriminant():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.uniform(-3.0, 3.0)
        q = rng.uniform(-3.0, 3.0)
        disc = cubic_discriminant(p, q)
        scale = max(1.0, p * p, q * q) ** 1.5
        if abs(disc) <= 1e-6 * scale:
            continue
        roots = cusp_roots(p, q)
        assert len(roots) == (3 if disc > 0 else 1)


def test_roots_match_numpy_and_residuals():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.uniform(-3.0, 3.0)
        q = rng.uniform(-3.0, 3.0)
        roots = cusp_roots(p, q)
        tol = 1e-12 * (1.0 + abs(p) + abs(q))
        for r, _ in roots:
            assert abs((r * r + p) * r + q) <= tol
        disc = cubic_discriminant(p, q)
        scale = max(1.0, p * p, q * q) ** 1.5
        if abs(disc) <= 1e-6 * scale:
            continue
        mine = sorted(r for r, m in roots for _ in range(m))
        np_roots = np.roots([1.0, 0.0, p, q])
        theirs = sorted(z.real for z in np_roots if abs(z.imag) < 1e-7)
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            assert abs(a - b) < 1e-7


def test_seeded_multiple_root_classified():
    # p, q built from a double root at a = 0.7 land inside the boundary band
    a = 0.7
    p, q = -3.0 * a * a, 2.0 * a ** 3
    roots = cusp_roots(p, q)
    assert [m for _, m in roots] == [1, 2]
    assert abs(roots[0][0] + 2.0 * a) < 1e-12
    assert abs(roots[1][0] - a) < 1e-12


# Coefficients from 1e-3 to 1e3 in size, either sign, or zero.
_coeff_st = st.one_of(
    st.just(0.0),
    st.tuples(
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=1.0, max_value=10.0),
        st.integers(-3, 2),
    ).map(lambda t: t[0] * t[1] * 10.0 ** t[2]),
)

# Relative size of |discriminant| below which a pair counts as near the fold.
# cusp_roots calls a pair a double root when |disc| <= 1e-12 max(1, p^2, q^2)^1.5;
# where |p| and |q| are small that band is far wider than the fold and holds
# the known spurious double roots. Pairs here keep |disc| above 1e-6 of that
# scale, a factor 1e6 outside the band, so every root is simple.
_FOLD_MARGIN = 1e-6
# Roots must agree within this fraction of the root scale max(|p|^(1/2), |q|^(1/3)).
_ROOT_RTOL = 1e-9


@given(st.lists(st.tuples(_coeff_st, _coeff_st), min_size=1, max_size=16))
@settings(max_examples=150, deadline=None)
def test_cusp_roots_agree_with_grid_solvers_away_from_fold(pairs):
    pairs = [
        (p, q) for p, q in pairs
        if abs(cubic_discriminant(p, q)) > _FOLD_MARGIN * max(1.0, p * p, q * q) ** 1.5
    ]
    assume(pairs)
    P = np.array([p for p, _ in pairs])
    Q = np.array([q for _, q in pairs])
    three = -4.0 * P ** 3 - 27.0 * Q * Q > 0.0
    one = np.where(three, np.nan, _cardano_grid(np.where(three, 1.0, P), Q))
    trig = [_trig_grid(np.where(three, P, -3.0), Q, b) for b in range(3)]
    for n, (p, q) in enumerate(pairs):
        roots = cusp_roots(p, q)
        assert all(m == 1 for _, m in roots)
        want = [t[n] for t in trig] if three[n] else [one[n]]
        assert len(roots) == len(want), (p, q)
        tol = _ROOT_RTOL * max(abs(p) ** 0.5, abs(q) ** (1.0 / 3.0))
        for (got, _), w in zip(roots, want):
            assert abs(got - w) <= tol, (p, q, got, w)


# -- wedge half-width ---------------------------------------------------------


def test_wedge_halfwidth_value():
    assert wedge_halfwidth(-3.0) == 2.0
    assert wedge_halfwidth(0.0) == 0.0


def test_wedge_halfwidth_wrong_side():
    with pytest.raises(DomainError, match="single-valued side"):
        wedge_halfwidth(0.25)


def test_halfwidth_is_exact_root_count_boundary():
    lam1 = -1.3
    w = wedge_halfwidth(lam1)
    assert len(cusp_roots(lam1, w * (1.0 - 1e-6))) == 3
    assert len(cusp_roots(lam1, w * (1.0 + 1e-6))) == 1


# -- branch reconstruction ----------------------------------------------------


def test_reconstruct_at_base_point(canonical_pack):
    (br,) = reconstruct(0.0, 0.0, canonical_pack)
    assert br.multiplicity == 3
    assert br.h == 0.0
    assert br.v == 0.0
    assert br.U == br.W == br.V == 0.0


def test_reconstruct_inside_wedge_roundtrip(canonical_pack, canonical_map):
    tau, xi = 1e-4, 0.0
    branches = reconstruct_tau_xi(tau, xi, canonical_pack)
    assert len(branches) == 3
    assert all(b.multiplicity == 1 and b.inside_wedge for b in branches)
    t_f = canonical_map.t.to_float()
    x_f = canonical_map.x.to_float()
    for b in branches:
        assert abs(t_f.evaluate(b.h, b.V) - tau) <= 1e-10
        assert abs(x_f.evaluate(b.h, b.V) - xi) <= 1e-10


def test_reconstruct_outside_wedge_single_branch(canonical_pack, canonical_map):
    tau, xi = 1e-4, 1e-5
    (br,) = reconstruct_tau_xi(tau, xi, canonical_pack)
    assert br.multiplicity == 1
    assert not br.inside_wedge
    assert abs(canonical_map.t.to_float().evaluate(br.h, br.V) - tau) <= 1e-10
    assert abs(canonical_map.x.to_float().evaluate(br.h, br.V) - xi) <= 1e-10


def test_reconstruct_strips_base_point_and_drift():
    # tau large enough to clear the discriminant boundary band; unchecked
    # evaluation since both calls share one code path and only their
    # agreement is asserted
    pack = gentle_pack()
    p = pack.problem
    t_star, x_star, v_star = float(p.t_star), float(p.x_star), float(p.v_star)
    tau, xi = 3e-4, 1e-6
    direct = reconstruct_tau_xi(tau, xi, pack, check=False)
    spun = reconstruct(t_star + tau, x_star + v_star * tau + xi, pack, check=False)
    assert len(direct) == len(spun) == 3
    for a, b in zip(direct, spun):
        assert abs(a.U - b.U) <= 1e-9
        assert abs(a.h - b.h) <= 1e-9
        assert abs(a.v - b.v) <= 1e-9
        assert b.v == pytest.approx(v_star + b.V, abs=1e-15)


def test_branch_count_matches_wedge_prediction(canonical_pack):
    rng = random.Random(23)
    hits3 = hits1 = 0
    for _ in range(300):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = 1e-3 * math.sqrt(rng.uniform(0.0, 1.0))
        tau, xi = rad * math.cos(ang), rad * math.sin(ang)
        lam1 = -C_CANON * tau
        if lam1 >= 0.0:
            want = 1
        else:
            w = wedge_halfwidth(lam1)
            if abs(abs(xi) - w) <= 1e-3 * w:
                continue
            want = 3 if abs(xi) < w else 1
        branches = reconstruct_tau_xi(tau, xi, canonical_pack)
        assert len(branches) == want
        if want == 3:
            hits3 += 1
        else:
            hits1 += 1
    assert hits3 > 0 and hits1 > 0


# -- caustic curves -----------------------------------------------------------


def test_canonical_fold_curve_exact_law(canonical_pack):
    for tau in (1e-2, 1e-3, 1e-4):
        plus, minus = fold_curves(canonical_pack, [tau])
        want = (4.0 / 3.0) * math.sqrt(tau ** 3 / 5.0)
        assert plus.kind == "fold-plus"
        assert minus.kind == "fold-minus"
        assert plus.xi == pytest.approx(want, rel=1e-12)
        assert minus.xi == pytest.approx(-want, rel=1e-12)


def test_canonical_zero_curve_exact_law(canonical_pack):
    for tau in (1e-2, 1e-3, 1e-4):
        plus, minus = zero_curves(canonical_pack, [tau])
        want = (4.0 / 3.0) * tau ** 1.5
        assert plus.kind == "zero-plus"
        assert minus.kind == "zero-minus"
        assert plus.xi == pytest.approx(want, rel=1e-10)
        assert minus.xi == pytest.approx(-want, rel=1e-10)


def test_fold_inside_zero_bracket(canonical_pack):
    for tau in (1e-2, 1e-3, 1e-4):
        fp, fm = fold_curves(canonical_pack, [tau])
        zp, zm = zero_curves(canonical_pack, [tau])
        assert zm.xi < fm.xi < fp.xi < zp.xi


def test_canonical_fold_zero_ratio(canonical_pack):
    for tau in (1e-2, 1e-3, 1e-4):
        fp, _ = fold_curves(canonical_pack, [tau])
        zp, _ = zero_curves(canonical_pack, [tau])
        assert fp.xi / zp.xi == pytest.approx(5.0 ** -0.5, rel=1e-10)


def test_fold_sample_matches_recomputed_halfwidth():
    pack = gentle_pack()
    tau = 1e-7
    fp, fm = fold_curves(pack, [tau])
    lam1 = pack.lambda1.evaluate(tau)
    lam2 = pack.lambda2.evaluate(tau)
    w = wedge_halfwidth(lam1)
    assert fp.xi == lam2 + w
    assert fm.xi == lam2 - w


def test_zero_curve_against_bisection():
    # tau small enough that the h = 0 root sits inside every validity disc
    pack = gentle_pack()
    tau = 1e-8
    (zp,) = [s for s in zero_curves(pack, [tau]) if s.kind == "zero-plus"]
    hs = pack.h_of_tau_v.to_float()
    lo, hi = 1e-5, 2.3e-4
    f_lo = hs.evaluate(tau, lo)
    f_hi = hs.evaluate(tau, hi)
    assert f_lo > 0.0 > f_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hs.evaluate(tau, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    xi_bis = pack.xi_of_tau_v.evaluate(tau, v)
    assert zp.xi == pytest.approx(xi_bis, rel=1e-9)


def test_curves_wrong_side_raise(canonical_pack):
    with pytest.raises(DomainError, match="single-valued side"):
        fold_curves(canonical_pack, [-1e-3])
    with pytest.raises(DomainError, match="no h = 0 curve here"):
        zero_curves(canonical_pack, [-1e-3])


def test_parity_instance_symmetric_curves():
    # odd boundary data keeps the cusp symmetric: lambda2 vanishes and the
    # caustic curves come in exact +- pairs
    p = ProblemData(
        b0=(0, 0, 0, Fraction(1, 12), 0, Fraction(1, 30), 0, Fraction(1, 60)),
        alpha=(),
        v_star=0,
        b0_polynomial=True,
    )
    pack = build_normal_form(hodograph_map(expand_potential(p, order=8)))
    assert pack.lambda2.is_zero()
    fp, fm = fold_curves(pack, [1e-4])
    assert fp.xi == -fm.xi
    # unchecked: the mirrored floats are bit-identical whatever the radius
    zp, zm = zero_curves(pack, [1e-4], check=False)
    assert zp.xi == pytest.approx(-zm.xi, rel=1e-13)


def test_noncanonical_curves_approach_leading_laws():
    # deviations from the leading-order laws shrink linearly in tau and the
    # fold-to-zero width ratio tends to 5**-1/2; unchecked evaluation is safe
    # here because truncation error is orders below the measured deviations
    pack = gentle_pack()
    b11 = float(pack.b11)
    c = (12.0 / (5.0 * b11)) ** (1.0 / 3.0)
    dev_fold = []
    dev_zero = []
    ratios = []
    for tau in (1e-6, 1e-7, 1e-8):
        fp, _ = fold_curves(pack, [tau], check=False)
        zp, zm = zero_curves(pack, [tau], check=False)
        lam2 = pack.lambda2.evaluate(tau, check=False)
        fold_w = fp.xi - lam2
        zero_w = 0.5 * (zp.xi - zm.xi)
        lead_fold = 2.0 * (c * tau / 3.0) ** 1.5
        lead_zero = (4.0 / 3.0) * tau ** 1.5 / math.sqrt(b11)
        dev_fold.append(abs(fold_w - lead_fold) / lead_fold)
        dev_zero.append(abs(zero_w - lead_zero) / lead_zero)
        ratios.append(fold_w / zero_w)
    assert dev_fold[0] > dev_fold[1] > dev_fold[2]
    assert dev_zero[0] > dev_zero[1] > dev_zero[2]
    assert dev_fold[2] <= 5e-9
    assert dev_zero[2] <= 5e-9
    assert ratios[2] == pytest.approx(5.0 ** -0.5, abs=1e-6)
