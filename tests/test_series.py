"""Truncated series arithmetic: ring ops, composition, implicit inversion, cube-root normalization, serialization and validity radii.

The substitution and inversion routines are checked against brute-force
dict-polynomial oracles written here, independent of the library code.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodocusp import DegeneracyError, DomainError, Series1, Series2, UsageError
from hodocusp.series import (
    EXACT,
    FLOAT,
    compose1,
    compose2,
    const2,
    cube_root_normalize,
    implicit_solve,
    lift1to2,
    monomial2,
    series1_text,
    series2_text,
    substitute,
    variable2,
)

HV = ("h", "V")
TV = ("tau", "V")


def s2(coeffs, names=HV, cap=8, mode=EXACT):
    return Series2(names, cap, coeffs, mode=mode)


def s1(coeffs, name="V", cap=8, mode=EXACT):
    return Series1(name, cap, coeffs, mode=mode)


# -- brute-force polynomial oracles ----------------------------------------------


def poly_mul(a, b, cap):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j <= cap:
                out[(i, j)] = out.get((i, j), Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


def poly_pow(a, n, cap):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = poly_mul(out, a, cap)
    return out


def oracle_substitute_h(a, s, cap):
    """a(h, V) with h := s(tau, V), as plain dicts; truncates at cap."""
    out = {}
    for (i, j), v in a.items():
        term = poly_pow(s, i, cap)
        term = poly_mul(term, {(0, j): Fraction(1)}, cap)
        for k, w in term.items():
            out[k] = out.get(k, Fraction(0)) + v * w
    return {k: v for k, v in out.items() if v != 0}


# -- ring operations --------------------------------------------------------------


def test_difference_of_squares():
    one = const2(HV, 8, 1)
    hv = monomial2(HV, 8, 1, 1)
    assert (one + hv) * (one - hv) == one - monomial2(HV, 8, 2, 2)


def test_multiplicative_identity():
    rng = random.Random(3)
    one = const2(HV, 6, 1)
    for _ in range(10):
        a = s2(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(
                    rng.randint(-9, 9), rng.randint(1, 9)
                )
                for _ in range(6)
            },
            cap=6,
        )
        assert a * one == a
        assert a + s2({}, cap=6) == a


def test_binomial_square():
    h = variable2(HV, 8, "h")
    v = variable2(HV, 8, "V")
    got = (h + v) * (h + v)
    assert got == s2({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def _random_series2(rng, cap, nterms=6):
    return s2(
        {
            (rng.randint(0, cap), rng.randint(0, cap)): Fraction(
                rng.randint(-12, 12), rng.randint(1, 12)
            )
            for _ in range(nterms)
        },
        cap=cap,
    )


@given(seed=st.integers(0, 10_000), cap=st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_ring_axioms(seed, cap):
    rng = random.Random(seed)
    a, b, c = (_random_series2(rng, cap) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == s2({}, cap=cap)


def test_truncation_respects_cap():
    a = monomial2(HV, 4, 3, 0)
    b = monomial2(HV, 4, 2, 0)
    assert (a * b).is_zero()
    assert all(i + j <= 4 for i, j, _ in (a * a).terms())


def test_mismatch_errors():
    with pytest.raises(UsageError):
        s2({(0, 0): 1}) + s2({(0, 0): 1}, names=TV)
    with pytest.raises(UsageError):
        s2({(0, 0): 1}) * s2({(0, 0): 1}, cap=6)
    with pytest.raises(UsageError):
        s2({(0, 0): 1}) + s2({(0, 0): 1.0}, mode=FLOAT)


def test_zero_never_stored():
    a = s2({(1, 0): 1, (0, 1): -1})
    b = s2({(1, 0): 1, (0, 1): 1})
    total = a + b  # (0,1) slots cancel
    assert {(i, j): v for i, j, v in total.terms()} == {(1, 0): 2}
    assert s2({(2, 2): 0}).is_zero()


def test_operands_not_mutated():
    a = s2({(1, 1): Fraction(1, 2)})
    before = repr(a)
    _ = a + a, a * a, -a, a.derivative("h"), a.scale(7)
    assert repr(a) == before


# -- derivatives -------------------------------------------------------------------


def test_derivative_examples():
    a = monomial2(HV, 8, 2, 1)  # h^2 V
    assert a.derivative("h") == s2({(1, 1): 2})
    assert const2(HV, 8, 5).derivative("V").is_zero()
    v3 = monomial2(HV, 8, 0, 3)
    assert v3.derivative("V").derivative("V") == s2({(0, 1): 6})


def test_derivative_effective_order_drops():
    a = s2({(0, 8): 1, (1, 0): 1}, cap=8)
    assert a.eff == 8
    assert a.derivative("V").eff == 7
    assert a.derivative("V").derivative("h").eff == 6


# -- substitution -------------------------------------------------------------------


def test_substitute_quadratic_example():
    # h^2 with h := tau - V^2/4
    a = monomial2(HV, 8, 2, 0)
    s = s2({(1, 0): 1, (0, 2): Fraction(-1, 4)}, names=TV)
    got = substitute(a, "h", s)
    assert got == s2(
        {(2, 0): 1, (1, 2): Fraction(-1, 2), (0, 4): Fraction(1, 16)}, names=TV
    )


def test_substitute_identity():
    rng = random.Random(5)
    a = _random_series2(rng, 6)
    assert substitute(a, "h", variable2(HV, 6, "h")) == a


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_substitute_matches_bruteforce_oracle(seed):
    rng = random.Random(seed)
    cap = 6
    a_c = {
        (rng.randint(0, 3), rng.randint(0, 3)): Fraction(
            rng.randint(-6, 6), rng.randint(1, 6)
        )
        for _ in range(5)
    }
    s_c = {
        (rng.randint(0, 3), rng.randint(0, 3)): Fraction(
            rng.randint(-6, 6), rng.randint(1, 6)
        )
        for _ in range(5)
    }
    s_c.pop((0, 0), None)
    if not s_c:
        s_c = {(1, 0): Fraction(1)}
    got = substitute(s2(a_c, cap=cap), "h", s2(s_c, names=TV, cap=cap))
    want = oracle_substitute_h(a_c, s_c, cap)
    assert {(i, j): v for i, j, v in got.terms()} == want


def test_substitute_rejects_constant_term():
    s = s2({(0, 0): 1, (1, 0): 1}, names=TV)
    with pytest.raises(UsageError, match="constant term"):
        substitute(monomial2(HV, 8, 1, 0), "h", s)


def test_substitute_rejects_missing_kept_variable():
    s = s2({(1, 0): 1}, names=("tau", "W"))
    with pytest.raises(UsageError):
        substitute(monomial2(HV, 8, 1, 0), "h", s)


# -- recap ----------------------------------------------------------------------------


def test_series1_recap_mirrors_series2():
    s = Series1("V", 8, {0: 1, 2: Fraction(1, 3), 5: 2, 8: -1}, eff=6)
    for cap in (0, 2, 5, 8, 12):
        r = s.recap(cap)
        assert (r.name, r.cap, r.mode, r.eff) == ("V", cap, EXACT, min(6, cap))
        assert r._c == {j: v for j, v in s._c.items() if j <= cap}
        lifted = lift1to2(s, HV, 1).recap(cap)
        assert lift1to2(r, HV, 1) == lifted and lifted.eff == r.eff
    assert s.cap == 8 and len(s._c) == 4
    f = s.to_float().recap(3)
    assert f.mode == FLOAT and f._c == {0: 1.0, 2: 1 / 3}


# -- implicit inversion -------------------------------------------------------------


def test_implicit_linear():
    f = s2({(1, 0): Fraction(7, 2)})  # tau = b11 h
    h = implicit_solve(f, "h", "tau")
    assert h == s2({(1, 0): Fraction(2, 7)}, names=TV)


def test_implicit_shifted_parabola():
    # tau = b11 (h + V^2/4)  ->  h = tau/b11 - V^2/4 exactly
    b11 = Fraction(5, 3)
    f = s2({(1, 0): b11, (0, 2): b11 / 4})
    h = implicit_solve(f, "h", "tau")
    assert h == s2({(1, 0): 1 / b11, (0, 2): Fraction(-1, 4)}, names=TV)


def test_implicit_matches_univariate_reversion():
    # tau = h + h^2 has no V dependence: h(tau) is the 1d inverse, whose
    # coefficients are the signed Catalan numbers
    f = s2({(1, 0): 1, (2, 0): 1})
    h = implicit_solve(f, "h", "tau")
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for k in range(1, 9):
        assert h.coefficient(k, 0) == (-1) ** (k + 1) * catalan[k - 1]
    assert all(j == 0 for _, j, _ in h.terms())


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_implicit_roundtrip(seed):
    rng = random.Random(seed)
    cap = 6
    coeffs = {
        (rng.randint(0, 3), rng.randint(0, 3)): Fraction(
            rng.randint(-6, 6), rng.randint(1, 6)
        )
        for _ in range(6)
    }
    coeffs.pop((0, 0), None)
    coeffs[(1, 0)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4))
    f = s2(coeffs, cap=cap)
    h = implicit_solve(f, "h", "tau")
    # f(h(tau, V), V) == tau for all coefficients of total degree <= cap
    back = substitute(f, "h", h)
    assert back == variable2(TV, cap, "tau")


def test_implicit_degenerate_and_guards():
    with pytest.raises(DegeneracyError):
        implicit_solve(s2({(0, 2): 1}), "h", "tau")
    with pytest.raises(UsageError):
        implicit_solve(s2({(0, 0): 1, (1, 0): 1}), "h", "tau")
    with pytest.raises(UsageError):
        implicit_solve(s2({(1, 0): 1}), "w", "tau")
    with pytest.raises(UsageError):
        implicit_solve(s2({(1, 0): 1}), "h", "V")


def test_implicit_second_axis():
    # solving for the second variable keeps its slot
    f = s2({(0, 1): 2})
    v = implicit_solve(f, "V", "xi")
    assert v.names == ("h", "xi")
    assert v == Series2(("h", "xi"), 8, {(0, 1): Fraction(1, 2)})


# -- cube-root normalization ---------------------------------------------------------


def test_cube_normalize_trivial():
    assert cube_root_normalize(s1({3: 1})) == s1({1: 1}, name="W")
    assert cube_root_normalize(s1({3: 8})) == s1({1: Fraction(1, 2)}, name="W")


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_cube_normalize_composes_to_w3(seed):
    rng = random.Random(seed)
    # a cubic coefficient with a rational cube root: exact series hold no radicals
    coeffs = {3: Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 6)) ** 3}
    for j in range(4, 9):
        if rng.random() < 0.6:
            coeffs[j] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    x0 = s1(coeffs)
    vw = cube_root_normalize(x0)
    back = compose1(s1(coeffs, name="W"), vw)
    # equals W^3 through the effective order (cap - 2)
    for j, v in back.terms():
        if j <= back.eff:
            assert v == (1 if j == 3 else 0), (j, v)


def test_cube_normalize_refuses_an_irrational_cube_root():
    """Exact series hold no radicals: c3 = 2 would need cbrt(1/2). Float
    mode takes the real cube root."""
    with pytest.raises(UsageError, match=r"rational cube root of 1/c3, and c3 = 2 has none"):
        cube_root_normalize(s1({3: 2, 4: 1}))
    v = cube_root_normalize(s1({3: 2.0}, mode=FLOAT))
    assert math.isclose(v.coefficient(1), 0.5 ** (1 / 3), rel_tol=1e-15)


def test_cube_normalize_degenerate():
    with pytest.raises(DegeneracyError):
        cube_root_normalize(s1({4: 1}))
    with pytest.raises(UsageError):
        cube_root_normalize(s1({2: 1, 3: 1}))


# -- float mode ---------------------------------------------------------------------


def test_float_mode_tracks_exact():
    rng = random.Random(17)
    a = _random_series2(rng, 8)
    b = _random_series2(rng, 8)
    exact = a * b + a
    floats = a.to_float() * b.to_float() + a.to_float()
    for i, j, v in exact.terms():
        if abs(float(v)) >= 1e-6:
            assert math.isclose(float(v), floats.coefficient(i, j), rel_tol=1e-12)


def test_float_implicit_solve():
    f = s2({(1, 0): 2.0, (0, 2): 0.5}, mode=FLOAT)
    h = implicit_solve(f, "h", "tau")
    assert math.isclose(h.coefficient(1, 0), 0.5, rel_tol=1e-14)
    assert math.isclose(h.coefficient(0, 2), -0.25, rel_tol=1e-14)


# -- serialization ---------------------------------------------------------------------


def test_series2_text_golden():
    a = s2({(1, 1): Fraction(-3, 4), (0, 3): Fraction(1, 12)}, cap=4)
    assert series2_text(a) == (
        "# series2 v1\n"
        "# names: h V\n"
        "# cap: 4\n"
        "# eff: 4\n"
        "# mode: exact\n"
        "# term: i j num den\n"
        "1 1 -3 4\n"
        "0 3 1 12\n"
    )


def test_series1_text_float():
    a = s1({1: 0.5}, name="W", cap=3, mode=FLOAT)
    assert series1_text(a) == (
        "# series1 v1\n"
        "# name: W\n"
        "# cap: 3\n"
        "# eff: 3\n"
        "# mode: float\n"
        "# term: j value\n"
        "1 0.5\n"
    )


def test_series_text_radical_header():
    from hodocusp import cbrt_exact

    c = cbrt_exact(Fraction(12, 5))
    a = s1({1: c}, name="W", cap=3)
    text = series1_text(a)
    assert "# radicand: 12/5" in text
    assert text.endswith("1 0 1 1 1 0 1\n")


# -- validity radius and checked evaluation ----------------------------------------------


def test_validity_radius_polynomial_is_inf():
    assert s2({(1, 0): 1, (0, 3): 2}, cap=8).validity_radius() == math.inf
    assert s1({2: 1}, cap=8).validity_radius() == math.inf


def test_validity_radius_formula():
    # lead band degree 1 magnitude 1; top band degree 4 magnitude 16
    a = s2({(1, 0): 1, (4, 0): 16}, cap=4)
    want = (1e-12 * 1.0 / 16.0) ** (1.0 / 3.0)
    assert math.isclose(a.validity_radius(), want, rel_tol=1e-12)


def test_evaluate_checks_validity():
    a = s2({(1, 0): 1, (4, 0): 16}, cap=4)
    r = a.validity_radius()
    inside = a.evaluate(r * 0.5, 0.0)
    assert math.isclose(inside, r * 0.5 + 16 * (r * 0.5) ** 4, rel_tol=1e-9)
    with pytest.raises(DomainError, match="validity radius"):
        a.evaluate(r * 2, 0.0)
    # check=False evaluates anyway
    assert math.isfinite(a.evaluate(r * 2, 0.0, check=False))


def test_lift_and_compose2_guards():
    v = s1({1: 1}, name="V")
    lifted = lift1to2(v, HV, 1)
    assert lifted == s2({(0, 1): 1})
    with pytest.raises(UsageError):
        lift1to2(v, HV, 0)
    with pytest.raises(UsageError, match="constant term"):
        compose2(
            s2({(1, 0): 1}),
            const2(HV, 8, 1),
            variable2(HV, 8, "V"),
        )
