"""Radius probes, divergence heuristics, bidisc checks, and Cauchy bounds."""

import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from hodocusp import (
    DomainError,
    QComplex,
    UsageError,
    bidisc_check,
    cauchy_bound_check,
    in_union_domain,
    radius_probe,
    richardson_limit,
    variable_alpha_probe,
    witness_report,
)
from hodocusp.korobeinik import (
    RATIO_TAIL,
    _exact_terms,
    confirm_divergence,
    divergence_heuristic,
    predicted_radius,
    ratio_points,
    witness_terms,
)
from hodocusp.pde import PoleTerm, PolyTerm, SeedFunction


@pytest.fixture(scope="module")
def catalan_seed():
    return SeedFunction.from_config([{"pole": {"a": 1, "c": 1}}])


# -- radius probe -------------------------------------------------------------


def test_catalan_radius_quarter(catalan_seed):
    rep = radius_probe(catalan_seed, 0, K=40)
    assert rep.verdict == "converges"
    assert rep.predicted_radius == 0.25
    assert rep.estimated_radius == pytest.approx(0.25, rel=2e-3)


@pytest.mark.parametrize(
    "u,want",
    [(0, 0.25), (Fraction(1, 2), 0.0625), (Fraction(-1, 2), 0.5625)],
)
def test_pole_distance_radius_law(catalan_seed, u, want):
    # radius = (d(u)/2)**2 with d the distance to the pole at 1
    rep = radius_probe(catalan_seed, u, K=40)
    assert rep.predicted_radius == want
    assert rep.estimated_radius == pytest.approx(want, rel=2e-3)


def test_entire_seed_converges_everywhere():
    seed = SeedFunction.from_config([{"poly": [1, 2, 3]}])
    rep = radius_probe(seed, Fraction(7, 3), K=25)
    assert rep.verdict == "converges"
    assert rep.estimated_radius == math.inf
    assert rep.predicted_radius == math.inf


def test_radius_probe_needs_enough_terms(catalan_seed):
    with pytest.raises(UsageError, match="K >= 20"):
        radius_probe(catalan_seed, 0, K=19)


def test_radius_probe_rejects_pole_point(catalan_seed):
    with pytest.raises(DomainError, match="sits exactly on a pole"):
        radius_probe(catalan_seed, 1, K=40)


def test_csv_row_format(catalan_seed):
    rep = radius_probe(catalan_seed, 0, K=40)
    row = rep.csv_row()
    parts = row.split(",")
    assert len(parts) == 5
    assert parts[0] == "0.0"
    assert parts[4] == "converges"


# -- extrapolation and heuristics ---------------------------------------------


def test_richardson_limit_exact_on_model():
    pts = [(k, 2.5 * (1.0 + 0.3 / k)) for k in range(10, 31)]
    limit, spread = richardson_limit(pts)
    assert limit == pytest.approx(2.5, rel=1e-12)
    assert spread < 1e-10


def test_richardson_limit_needs_consecutive_indices():
    pts = [(k, 1.0) for k in range(2, 21, 2)]
    limit, spread = richardson_limit(pts)
    assert math.isnan(limit)
    assert spread == math.inf


def test_divergence_heuristic_windows():
    up = [Fraction(11, 10)] * 10
    assert divergence_heuristic(up)
    assert not divergence_heuristic(up[:9])               # short window
    down = [1.2 - 0.01 * k for k in range(10)]
    assert not divergence_heuristic(down)                 # decreasing tail
    mixed = [1.1] * 9 + [1.0]
    assert not divergence_heuristic(mixed)                # dips below margin
    flat = [(1.0 + 1e-3) ** 2] * 10
    assert not divergence_heuristic(flat)                 # needs strict excess


def test_witness_terms_frozen_values():
    assert witness_terms(1.0) == 600
    assert witness_terms(1.002) == 600
    assert witness_terms(2.0) == 40
    assert witness_terms(1.01) == 389


def test_confirm_divergence_brackets_the_radius(catalan_seed):
    # |h| two percent above the pointwise radius 1/4 diverges, two percent
    # below does not: the heuristic flips across the boundary
    above, tail = confirm_divergence(
        catalan_seed, 0, Fraction(51, 200), witness_terms(1.02)
    )
    assert above
    assert all(r > 1.001 for r in tail)
    below, tail = confirm_divergence(catalan_seed, 0, Fraction(49, 200), 60)
    assert not below
    assert all(r < 1.0 for r in tail)


def test_confirm_divergence_at_exact_radius_stays_unconfirmed(catalan_seed):
    confirmed, tail = confirm_divergence(catalan_seed, 0, Fraction(1, 4), 80)
    assert not confirmed
    assert all(r < 1.0 for r in tail)  # ratio climbs like 1 - 3/(2n)


def test_confirm_divergence_float_h_is_read_exactly(catalan_seed):
    # the terms at K = 600 overflow floats; a float |h| must not pull the
    # comparison out of exact arithmetic, and it counts as its decimal
    got = confirm_divergence(catalan_seed, 0, 0.3, 600)
    assert got == confirm_divergence(catalan_seed, 0, Fraction(3, 10), 600)
    confirmed, tail = got
    assert confirmed
    assert len(tail) == 10 and all(1.19 < r < 1.2 for r in tail)


# -- bidisc check -------------------------------------------------------------


def test_bidisc_divergent_case_with_witness(catalan_seed):
    rep = bidisc_check(catalan_seed, 0, "0.9", "0.25")
    assert not rep.analytic
    assert rep.pole_distance == 1.0
    assert all(smp.consistent for smp in rep.samples)
    w = rep.witness
    assert w is not None and w.confirmed
    assert w.u == 0.45 + 0j
    assert w.h == 0.1628125
    assert w.predicted_ratio == pytest.approx(2.152892561983471, rel=1e-12)
    assert w.terms == 40
    wr = witness_report(w)
    assert wr.verdict == "diverges"
    assert wr.predicted_radius == pytest.approx(0.075625, rel=1e-12)


def test_bidisc_boundary_case_is_analytic(catalan_seed):
    # R + 2 sqrt(R1) = 1 equals the pole distance exactly; the open disc
    # misses the pole, decided in exact arithmetic
    rep = bidisc_check(catalan_seed, 0, Fraction(1, 2), Fraction(1, 16))
    assert rep.analytic
    assert rep.witness is None
    assert all(smp.consistent for smp in rep.samples)


def test_bidisc_margin_sweep(catalan_seed):
    # reach R + 2 sqrt(R1) at 1 + margin for margins +-0.1, +0.3, +0.6
    cases = [
        (Fraction(2, 5), Fraction(1, 16), True),    # reach 0.9
        (Fraction(3, 5), Fraction(1, 16), False),   # reach 1.1
        (Fraction(4, 5), Fraction(1, 16), False),   # reach 1.3
        (Fraction(9, 10), Fraction(9, 100), False), # reach 1.5
    ]
    for R, R1, analytic in cases:
        rep = bidisc_check(catalan_seed, 0, R, R1, samples=8)
        assert rep.analytic is analytic
        if analytic:
            assert rep.witness is None
        else:
            assert rep.witness is not None
            assert rep.witness.confirmed
        assert all(smp.consistent for smp in rep.samples)


def test_bidisc_radii_must_be_positive(catalan_seed):
    # the radii are checked before u_star is read
    with pytest.raises(UsageError, match="positive"):
        bidisc_check(catalan_seed, "not a point", Fraction(1), Fraction(0))
    with pytest.raises(UsageError, match="positive"):
        bidisc_check(catalan_seed, "not a point", Fraction(-1), Fraction(1))


def test_bidisc_needs_enough_probe_terms(catalan_seed):
    # five terms leave fewer ratios than the heuristic reads, which it took
    # for a terminating seed: every sample was observed to converge
    with pytest.raises(UsageError, match="probe_terms >= 20"):
        bidisc_check(catalan_seed, 0, "0.9", "0.25", probe_terms=5)
    assert bidisc_check(catalan_seed, 0, "0.9", "0.25", samples=4, probe_terms=20).samples


# -- union domain membership --------------------------------------------------


def test_union_domain_exact_cases():
    R0 = Fraction(1, 2)
    assert in_union_domain(0, 0, 0, R0)
    # 2 sqrt(|h|) = R0 exactly: boundary, not inside
    assert not in_union_domain(Fraction(1, 16), 0, 0, R0)
    # |u - u*| = R0/2 and 2 sqrt(|h|) = R0/2: boundary again
    assert not in_union_domain(Fraction(1, 64), Fraction(1, 4), 0, R0)
    # shrink |h| a hair and the strict inequality holds
    assert in_union_domain(Fraction(1, 65), Fraction(1, 4), 0, R0)


def test_union_domain_matches_float_formula():
    rng = random.Random(5)
    R0 = Fraction(3, 4)
    checked = 0
    for _ in range(100):
        h = Fraction(rng.randint(-40, 40), 256)
        u = QComplex(
            Fraction(rng.randint(-96, 96), 256),
            Fraction(rng.randint(-96, 96), 256),
        )
        f = abs(complex(float(u.re), float(u.im))) + 2.0 * math.sqrt(abs(float(h)))
        if abs(f - float(R0)) < 1e-9:
            continue
        assert in_union_domain(h, u, 0, R0) == (f < float(R0))
        checked += 1
    assert checked > 90


def test_union_domain_exact_for_irrational_modulus():
    # |h| = 2 sqrt(2), so 2 sqrt(|h|) = 128**(1/4) is irrational, and the
    # float sum rounds 2.8e-16 above it; R0 sits between the two
    h = 2 + 2j
    R0 = Fraction("3.3635856610148583")
    assert R0**4 > 128 and float(R0) == 2.0 * math.sqrt(abs(h))
    assert in_union_domain(h, 0, 0, R0)
    below = Fraction("3.3635856610148581")
    assert below**4 < 128 and not in_union_domain(h, 0, 0, below)
    assert not in_union_domain(h, 0, 0, 0) and not in_union_domain(h, 4, 0, 4)


def test_union_domain_matches_high_precision_sum():
    def dec(q):
        return Decimal(q.numerator) / Decimal(q.denominator)

    def rand(den, lo, hi):
        return Fraction(rng.randint(lo * den, hi * den), den)

    rng = random.Random(7)
    checked = 0
    with localcontext(Context(prec=80)):
        for _ in range(400):
            den = rng.choice((16, 100, 997))
            u = QComplex(rand(den, -2, 2), rand(den, -1, 1))
            h = QComplex(rand(den, -1, 1), rand(den, -1, 1))
            R0 = rand(den, -1, 4)
            gap = dec(R0) - dec(u.abs2()).sqrt() - 2 * dec(h.abs2()).sqrt().sqrt()
            if abs(gap) < Decimal("1e-60"):
                continue
            assert in_union_domain(h, u, 0, R0) == (gap > 0)
            checked += 1
    assert checked > 390


# -- Cauchy derivative bound ---------------------------------------------------


def test_cauchy_bound_pole_seed(catalan_seed):
    rep = cauchy_bound_check(catalan_seed, 1, Fraction(1, 2), "0.1", 20)
    assert rep.passed
    assert rep.c_eps == pytest.approx(10.0, rel=1e-9)
    assert rep.max_ratio < 1.0


def test_cauchy_bound_polynomial():
    seed = SeedFunction.from_config([{"poly": [1, 2, 3]}])
    rep = cauchy_bound_check(seed, 2, 1, Fraction(1, 2), 20)
    assert rep.passed


def test_cauchy_bound_exponential_proxy():
    coeffs = tuple(Fraction(1, math.factorial(k)) for k in range(31))
    seed = SeedFunction((PolyTerm(coeffs),))
    rep = cauchy_bound_check(seed, 2, 1, Fraction(1, 2), 15)
    assert rep.passed


def test_cauchy_bound_parameter_guards(catalan_seed):
    seed = SeedFunction.from_config([{"poly": [1, 1]}])
    with pytest.raises(UsageError, match="0 <= r0 < r"):
        cauchy_bound_check(seed, 1, 1, Fraction(1, 10), 5)
    with pytest.raises(UsageError, match="0 < eps < r - r0"):
        cauchy_bound_check(seed, 1, Fraction(1, 2), Fraction(3, 4), 5)
    with pytest.raises(UsageError, match="nonnegative"):
        cauchy_bound_check(seed, 1, Fraction(1, 2), Fraction(1, 10), -1)
    with pytest.raises(UsageError, match="pole inside"):
        cauchy_bound_check(catalan_seed, 2, Fraction(1, 2), Fraction(1, 10), 5)


def test_cauchy_bound_pole_on_the_circle_is_outside():
    # |a| = 9/7 exactly, but abs() of the float pole rounds below float(9/7)
    a = QComplex(Fraction(27, 35), Fraction(36, 35))
    assert a.abs2() == Fraction(9, 7) ** 2
    assert abs(a.to_complex()) < float(Fraction(9, 7))
    seed = SeedFunction.from_config(
        [{"pole": {"a": [a.re, a.im], "c": 1}}, {"pole": {"a": [a.re, -a.im], "c": 1}}]
    )
    rep = cauchy_bound_check(seed, Fraction(9, 7), Fraction(1, 2), Fraction(1, 7), 12)
    assert rep.passed
    # a hair further in, the pole is inside the open disc and is refused
    with pytest.raises(UsageError, match="pole inside"):
        cauchy_bound_check(seed, Fraction(9, 7) + Fraction(1, 10**12), Fraction(1, 2), Fraction(1, 7), 12)


# -- variable-alpha probe -------------------------------------------------------


def test_variable_alpha_reduces_to_radius_probe(catalan_seed):
    # with alpha == 4 (no corrections) the scaled potential rows reproduce
    # the seed series ratios bit for bit; each report keeps the last
    # RATIO_TAIL ratios, the ones its estimate reads
    base = radius_probe(catalan_seed, 0, K=40)
    (va,) = variable_alpha_probe(catalan_seed, (), 0, 16, [0])
    terms, _, L2 = _exact_terms(catalan_seed, QComplex(0), 40)
    pts = ratio_points([x * x + y * y for x, y in terms], step=L2 * L2)
    # the h-rows 1..17 of the order-16 potential give the ratios n = 1..16;
    # the probe keeps n = 7..16
    assert va.ratios == tuple(r for n, r in pts if 17 - RATIO_TAIL <= n <= 16)
    assert base.ratios == tuple(r for n, r in pts if n >= 40 - RATIO_TAIL)
    assert va.verdict == "converges"
    assert va.estimated_radius == pytest.approx(base.estimated_radius, rel=1e-2)
    assert va.predicted_radius == 0.25


def test_variable_alpha_corrections_stay_finite(catalan_seed):
    for a1 in (Fraction(1), Fraction(-1)):
        (rep,) = variable_alpha_probe(catalan_seed, (a1,), 0, 16, [0])
        assert rep.verdict == "converges"
        assert 0.0 < rep.estimated_radius < math.inf


def test_variable_alpha_probe_needs_exact_seed():
    # every seed is exact: a float-built one holds its decimal twin, so the
    # probe runs on it and reports what the twin reports
    seed = SeedFunction((PolyTerm((0.0, 1.0)), PoleTerm(1.5, 0.75, 1)))
    twin = SeedFunction(
        (PolyTerm((0, 1)), PoleTerm(QComplex(Fraction(3, 2)), Fraction(3, 4), 1))
    )
    assert seed.terms == twin.terms
    got = variable_alpha_probe(seed, (0.5,), 0.125, 6, [0, 0.25, 0.125 - 0.25j])
    want = variable_alpha_probe(
        twin, (Fraction(1, 2),), Fraction(1, 8), 6, [0, Fraction(1, 4), [Fraction(1, 8), Fraction(-1, 4)]]
    )
    assert repr(got) == repr(want)


def test_predicted_radius_law(catalan_seed):
    assert predicted_radius(catalan_seed, QComplex(0)) == 0.25
    assert predicted_radius(catalan_seed, QComplex(Fraction(1, 2))) == 0.0625
    entire = SeedFunction.from_config([{"poly": [2]}])
    assert predicted_radius(entire, QComplex(0)) == math.inf
