"""Potential expansion from boundary data, its residual evaluators, the
h-scaling bridge, analytic seed functions and the G-series.

The recurrence output is cross-checked three independent ways: the printed
low-order relations, a from-scratch residual evaluator, and (for alpha == 4)
the closed derivative formula of the G-series.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodocusp import (
    DomainError,
    PoleTerm,
    PolyTerm,
    PotentialSolution,
    ProblemData,
    QComplex,
    SeedFunction,
    UsageError,
    bridge_check,
    canonical_problem,
    expand_potential,
    h_scaled,
    korobeinik_series,
    potential_residual,
    relation_checklist,
    scaled_residual,
)
from hodocusp.series import EXACT, FLOAT, Series2

from conftest import rand_fraction, random_singular_problem


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


# -- ProblemData -------------------------------------------------------------------


def test_base_point_derivation():
    p = ProblemData(b0=(Fraction(2), Fraction(5), 0, 1), v_star=Fraction(1, 3))
    assert p.t_star == 5
    assert p.x_star == 5 * Fraction(1, 3) - 2
    assert p.b11 == 12


def test_alpha_indexing():
    p = ProblemData(b0=(0, 0, 0, 1), alpha=(Fraction(1, 2), 3))
    assert p.alpha_at(1) == Fraction(1, 2)
    assert p.alpha_at(2) == 3
    assert p.alpha_at(9) == 0
    with pytest.raises(UsageError):
        p.alpha_at(0)


def test_require_singular_messages():
    good = ProblemData(b0=(0, 0, 0, 1))
    good.require_singular()
    bad2 = ProblemData(b0=(0, 0, 1, 1))
    with pytest.raises(UsageError, match="b02 must be 0"):
        bad2.require_singular()
    bad3 = ProblemData(b0=(0, 0, 0, 0), b0_polynomial=True)
    with pytest.raises(UsageError, match="b03 must be nonzero"):
        bad3.require_singular()


def test_missing_boundary_data_listed():
    p = ProblemData(b0=(0, 0, 0, 1))
    with pytest.raises(UsageError, match=r"missing b0 indices \[4, 5, 6, 7, 8\]"):
        expand_potential(p, order=4)
    assert p.missing_b0(4) == [4, 5, 6, 7, 8]


# -- the recurrence ---------------------------------------------------------------


def test_canonical_series_is_two_terms():
    sol = expand_potential(canonical_problem(), order=8)
    assert {(i, j): v for i, j, v in sol.series.terms()} == {
        (0, 3): Fraction(1, 12),
        (1, 1): Fraction(1),
    }


def test_printed_relation_examples():
    # minimal data sets pinning single coefficients
    sol = expand_potential(
        ProblemData(b0=(0, 0, 0, 1), b0_polynomial=True), order=3
    )
    assert sol.row_coefficient(1, 1) == 12

    sol = expand_potential(
        ProblemData(b0=(0, 0, 0, 1, 1), b0_polynomial=True), order=3
    )
    assert sol.row_coefficient(2, 0) == 32

    sol = expand_potential(
        ProblemData(b0=(0, 0, 0, 1, 1, 0, 1), alpha=(Fraction(1, 2),), b0_polynomial=True),
        order=3,
    )
    assert sol.row_coefficient(1, 4) == 60  # 60*b06, not the misprinted 60*b05
    assert sol.row_coefficient(2, 2) == 480 + 2 * Fraction(1, 2) * 1

    sol = expand_potential(
        ProblemData(b0=(0, 0, 0, 1, 0, 1), alpha=(2,), b0_polynomial=True), order=3
    )
    assert sol.row_coefficient(2, 1) == 160 + 2


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_relation_checklist_random(seed):
    rng = random.Random(seed)
    p = random_singular_problem(rng)
    checks = relation_checklist(expand_potential(p, order=3))
    assert len(checks) == 8
    assert all(c.ok for c in checks)
    names = [c.name for c in checks]
    assert "b14 = 60*b06" in names


def test_relation_checklist_guards():
    sol = expand_potential(canonical_problem(), order=3)
    with pytest.raises(UsageError, match="order >= 3"):
        relation_checklist(expand_potential(canonical_problem(), order=2))
    float_sol = expand_potential(canonical_problem(), order=3, mode=FLOAT)
    with pytest.raises(UsageError, match="exact"):
        relation_checklist(float_sol)
    assert all(c.ok for c in relation_checklist(sol))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_residual_zero_to_effective_order(seed):
    rng = random.Random(seed)
    sol = expand_potential(random_singular_problem(rng), order=6)
    r = potential_residual(sol)
    assert all(v == 0 for i, j, v in r.terms() if i + j <= r.eff)


def test_residual_catches_non_solutions():
    p = canonical_problem()
    h_only = PotentialSolution(
        series=Series2(("h", "V"), 8, {(1, 0): 1}),
        problem=p,
        order=8,
        rows=(),
    )
    r = potential_residual(h_only)
    assert {(i, j): v for i, j, v in r.terms() if i + j <= r.eff} == {(0, 0): 2}

    p_alpha = ProblemData(b0=(0, 0, 0, 1), alpha=(Fraction(3), Fraction(-2)), b0_polynomial=True)
    v2 = PotentialSolution(
        series=Series2(("h", "V"), 8, {(0, 2): 1}),
        problem=p_alpha,
        order=8,
        rows=(),
    )
    r = potential_residual(v2)
    # -2 alpha(h) = -8 - 2 sum alpha_j h^j
    want = {(0, 0): Fraction(-8), (1, 0): Fraction(-6), (2, 0): Fraction(4)}
    assert {(i, j): v for i, j, v in r.terms() if i + j <= r.eff} == want


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_scaling_equivariance(seed):
    rng = random.Random(seed)
    p = random_singular_problem(rng)
    s = Fraction(3, 7)
    scaled = ProblemData(
        b0=[s * b for b in p.b0], alpha=p.alpha, v_star=p.v_star, b0_polynomial=True
    )
    a = expand_potential(p, order=5)
    b = expand_potential(scaled, order=5)
    assert b.series == a.series.scale(s)


# -- h-scaling bridge ---------------------------------------------------------------


def test_h_scaled_unit():
    one = Series2(("h", "V"), 4, {(0, 0): 1})
    assert {(i, j): v for i, j, v in h_scaled(one).terms()} == {(1, 0): Fraction(1)}


def test_h_scaled_roundtrip_and_guard():
    rng = random.Random(23)
    sol = expand_potential(random_singular_problem(rng), order=6)
    B = sol.series
    C = h_scaled(B)
    # every term moves up one power of h, in the same order, at cap + 1
    assert (C.names, C.cap, C.mode) == (B.names, B.cap + 1, B.mode)
    assert list(C.terms()) == [(i + 1, j, v) for i, j, v in B.terms()]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_scaled_equation_residual_zero(seed):
    rng = random.Random(seed)
    p = random_singular_problem(rng)
    sol = expand_potential(p, order=6)
    r = scaled_residual(h_scaled(sol.series), p)
    assert all(v == 0 for i, j, v in r.terms() if i + j <= r.eff)


# -- seed functions ------------------------------------------------------------------


def test_pole_derivative_closed_form():
    a = QComplex(Fraction(1))
    seed = SeedFunction([PoleTerm(a, Fraction(1), 1)])  # 1/(1-u)
    u = QComplex(Fraction(1, 3))
    for m in range(6):
        want = Fraction(math.factorial(m)) / (Fraction(1) - Fraction(1, 3)) ** (m + 1)
        assert seed.derivative_at(u, m) == QComplex(want)


def test_poly_derivatives_and_values():
    seed = SeedFunction([PolyTerm((Fraction(1), Fraction(0), Fraction(3)))])  # 1 + 3u^2
    u = QComplex(Fraction(1, 2))
    assert seed.value_at(u) == QComplex(1 + 3 * Fraction(1, 4))
    assert seed.derivative_at(u, 1) == QComplex(3)
    assert seed.derivative_at(u, 2) == QComplex(6)
    assert seed.derivative_at(u, 3) == QComplex(0)
    assert seed.is_entire()


def test_differentiated_chain_matches_derivative_at():
    seed = SeedFunction(
        [
            PolyTerm((Fraction(2), Fraction(-1))),
            PoleTerm(QComplex(Fraction(2)), Fraction(3), 1),
        ]
    )
    u = QComplex(Fraction(-1, 4))
    d1 = seed.differentiated()
    d2 = d1.differentiated()
    assert d1.value_at(u) == seed.derivative_at(u, 1)
    assert d2.value_at(u) == seed.derivative_at(u, 2)
    # by hand: -1 + 3/(2 - u)**2 and 6/(2 - u)**3 at 2 - u = 9/4
    assert seed.derivative_at(u, 1) == QComplex(Fraction(-11, 27))
    assert seed.derivative_at(u, 2) == QComplex(Fraction(128, 243))


def test_seed_config_grammar():
    seed = SeedFunction.from_config([{"poly": [1, 2]}, {"pole": {"a": 1, "c": 1}}])
    assert seed.terms == (
        PolyTerm((Fraction(1), Fraction(2))),
        PoleTerm(QComplex(1), Fraction(1), 1),
    )
    single = SeedFunction.from_config({"pole": {"a": [0, 1], "c": "1/2"}})
    assert single.terms[0].a == QComplex(0, 1)
    with pytest.raises(UsageError, match="poly:/pole:"):
        SeedFunction.from_config([{"poly": [1], "pole": {}}])
    with pytest.raises(UsageError, match="unknown component"):
        SeedFunction.from_config([{"exp": 1}])
    with pytest.raises(UsageError, match="keys a and c"):
        SeedFunction.from_config([{"pole": {"a": 1}}])
    with pytest.raises(UsageError, match=r"g1\[1\]: unknown pole key 'n'"):
        SeedFunction.from_config([{"poly": [1]}, {"pole": {"a": 1, "c": 1, "n": 2}}])


@pytest.mark.parametrize("n", [0, -1, 1.5, True, "2"])
def test_pole_order_below_one_is_refused(n):
    with pytest.raises(UsageError, match=f"pole order n must be an integer >= 1, got {n!r}"):
        SeedFunction([PoleTerm(QComplex(2), Fraction(1), n)])


@pytest.mark.parametrize("m", [-1, -3, 1.5, True, None])
def test_derivative_order_must_be_a_nonnegative_int(m):
    pole = SeedFunction([PoleTerm(QComplex(2), Fraction(1), 1)])  # 1/(2 - u)
    poly = SeedFunction([PolyTerm((Fraction(1), Fraction(2), Fraction(3)))])
    for seed in (pole, poly):
        for u in (Fraction(1, 2), QComplex(Fraction(1, 2), 1), 0.5, 0.5 + 1j):
            with pytest.raises(UsageError, match=f"derivative order must be an integer >= 0, got {m!r}"):
                seed.derivative_at(u, m)


def test_min_pole_distance_exact():
    seed = SeedFunction([PoleTerm(QComplex(Fraction(1)), Fraction(1), 1)])
    assert seed.min_pole_distance2(QComplex(Fraction(1, 2))) == Fraction(1, 4)
    assert seed.min_pole_distance2(QComplex(0, 1)) == Fraction(2)
    entire = SeedFunction([PolyTerm((Fraction(1),))])
    assert entire.min_pole_distance2(QComplex(0)) is None


def test_assert_not_pole():
    seed = SeedFunction([PoleTerm(QComplex(Fraction(1)), Fraction(1), 1)])
    with pytest.raises(DomainError):
        seed.assert_not_pole(QComplex(Fraction(1)), "u")
    seed.assert_not_pole(QComplex(Fraction(1, 2)), "u")


# -- the G-series ---------------------------------------------------------------------


def test_g_series_linear_seed_truncates():
    ks = korobeinik_series(SeedFunction([PolyTerm((Fraction(0), Fraction(1)))]), 0, 8)
    u = QComplex(Fraction(2, 3))
    assert ks.coefficient(1, u) == u
    for n in range(2, 9):
        assert ks.coefficient(n, u) == QComplex(0)


def test_g_series_quadratic_seed():
    # g1 = u^2 -> G = u^2 h + h^2
    ks = korobeinik_series(SeedFunction([PolyTerm((0, 0, Fraction(1)))]), 0, 8)
    u = QComplex(Fraction(1, 5))
    assert ks.coefficient(1, u) == u * u
    assert ks.coefficient(2, u) == QComplex(1)
    assert ks.coefficient(3, u) == QComplex(0)


def test_catalan_coefficients():
    seed = SeedFunction([PoleTerm(QComplex(Fraction(1)), Fraction(1), 1)])
    ks = korobeinik_series(seed, 0, 10)
    z = QComplex(Fraction(0))
    for k in range(0, 9):
        assert ks.coefficient(k + 1, z) == QComplex(Fraction(catalan(k)))


def test_catalan_partial_sum_vs_closed_form():
    # sum_{k} C_k h^{k+1} = (1 - sqrt(1 - 4h)) / 2
    seed = SeedFunction([PoleTerm(QComplex(Fraction(1)), Fraction(1), 1)])
    ks = korobeinik_series(seed, 0, 40)
    h = 0.1
    got = complex(ks.partial_sum(h, 0j, 40)).real
    want = (1.0 - math.sqrt(1.0 - 4.0 * h)) / 2.0
    assert math.isclose(got, want, rel_tol=1e-12)


def test_recurrence_residuals_exact_zero():
    seed = SeedFunction(
        [
            PolyTerm((Fraction(1), Fraction(1, 2), Fraction(0), Fraction(2))),
            PoleTerm(QComplex(Fraction(3, 2)), Fraction(-1), 1),
        ]
    )
    ks = korobeinik_series(seed, 0, 7)
    pts = [QComplex(Fraction(0)), QComplex(Fraction(1, 3)), QComplex(Fraction(-1, 2), Fraction(1, 5))]
    res = ks.recurrence_residuals(pts)
    assert res, "empty residual list"
    assert all(r == QComplex(0) for r in res)


def test_g_series_guards():
    seed = SeedFunction([PolyTerm((Fraction(1),))])
    with pytest.raises(UsageError):
        korobeinik_series(seed, 0, 0)
    ks = korobeinik_series(seed, 0, 4)
    with pytest.raises(UsageError):
        ks.coefficient(0, QComplex(0))


# -- the bridge between the two constructions ------------------------------------------


def test_bridge_quadratic_seed():
    # g1 = u^2: B0 = V^2/4 family, B1 = 2 B0'' = 1 = g2
    seed = SeedFunction([PolyTerm((0, 0, Fraction(1)))])
    rep = bridge_check(seed, 0, order=4)
    assert rep.ok and not rep.mismatches
    assert rep.checked > 0


def test_bridge_cubic_poly_exact():
    seed = SeedFunction([PolyTerm((Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5)))])
    rep = bridge_check(seed, Fraction(1, 2), order=6)
    assert rep.ok


def test_bridge_pole_seed_exact():
    seed = SeedFunction([PoleTerm(QComplex(Fraction(1)), Fraction(1), 1)])
    rep = bridge_check(seed, 0, order=6)
    assert rep.ok and rep.order == 6


def test_bridge_reads_float_seed_as_decimals():
    # a float-built seed holds its decimal twin, so the bridge runs on it
    seed = SeedFunction([PolyTerm((0.5, 0.1, -0.25)), PoleTerm(1.5, 0.75, 1)])
    twin = SeedFunction(
        [
            PolyTerm((Fraction(1, 2), Fraction(1, 10), Fraction(-1, 4))),
            PoleTerm(QComplex(Fraction(3, 2)), Fraction(3, 4), 1),
        ]
    )
    assert seed.terms == twin.terms
    rep = bridge_check(seed, 0.1, order=4)
    assert rep == bridge_check(twin, Fraction(1, 10), order=4)
    assert rep.ok and rep.checked == 15


def test_seed_components_are_read_exactly():
    seed = SeedFunction([PoleTerm(complex(0.5, -1.25), complex(2.0, 0.0), 2)])
    assert seed.terms == (PoleTerm(QComplex(Fraction(1, 2), Fraction(-5, 4)), Fraction(2), 2),)
    assert type(seed.terms[0].c) is Fraction  # a real residue is a Fraction
    pair = SeedFunction([PoleTerm(1, QComplex(1, 2), 1)])
    assert pair.terms[0].a == QComplex(1) and pair.terms[0].c == QComplex(1, 2)
    # the config grammar has no complex polynomial coefficient, and neither
    # has the seed
    with pytest.raises(UsageError, match=r"poly\[1\]: cannot parse rational from complex"):
        SeedFunction([PolyTerm((1, 0.5j))])
    with pytest.raises(UsageError, match=r"poly\[0\]"):
        SeedFunction([PolyTerm((QComplex(0, 1),))])
    with pytest.raises(UsageError, match="pole.a: cannot parse rational"):
        SeedFunction([PoleTerm(math.nan, 1, 1)])
