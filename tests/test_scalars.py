"""Exact scalar layer: rational parsing, the adjoined cube root, complex
rationals, and the nested-radical comparator."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodocusp import (
    CubicRadical,
    QComplex,
    UsageError,
    cbrt_exact,
    lt_dist_vs_radius,
    make_radical,
    parse_exact,
    parse_point,
    rational_cbrt,
    real_cbrt,
    scalar_float,
)
from hodocusp.scalars import _times_power

fractions_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=24
)


# -- parse_exact ---------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, want",
    [
        (3, Fraction(3)),
        (Fraction(-7, 2), Fraction(-7, 2)),
        ("3/4", Fraction(3, 4)),
        ("-12/8", Fraction(-3, 2)),
        ("0.25", Fraction(1, 4)),
        (" 2.5 ", Fraction(5, 2)),
        (0.001, Fraction(1, 1000)),
        (0.25, Fraction(1, 4)),
        (1e-3, Fraction(1, 1000)),
    ],
)
def test_parse_exact_values(raw, want):
    assert parse_exact(raw) == want


@pytest.mark.parametrize("raw", [True, False, "xyz", "1/0", [1], None])
def test_parse_exact_rejects(raw):
    with pytest.raises(UsageError):
        parse_exact(raw, "field")


def test_parse_exact_error_names_field():
    with pytest.raises(UsageError, match="b0\\[2\\]"):
        parse_exact("?", "b0[2]")


# -- parse_point ---------------------------------------------------------------


def test_parse_point_scalar_and_pair():
    assert parse_point("3/4") == QComplex(Fraction(3, 4))
    assert parse_point([1, 2]) == QComplex(1, 2)
    assert parse_point(0.5) == QComplex(Fraction(1, 2))


def test_parse_point_idempotent():
    z = QComplex(Fraction(1, 3), Fraction(-2, 7))
    assert parse_point(z) is z


def test_parse_point_python_complex_as_decimals():
    # each part is read like parse_exact reads a float: as its decimal
    z = 0.1 + 0.2j
    assert parse_point(z) == QComplex(Fraction(1, 10), Fraction(1, 5))
    assert parse_point(z) == parse_point(["0.1", "0.2"])
    assert parse_point(z).to_complex() == z
    assert parse_point(complex(-0.0, 0.5)) == QComplex(0, Fraction(1, 2))
    for bad in (complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)):
        with pytest.raises(UsageError, match="u: cannot parse rational"):
            parse_point(bad, "u")


def test_parse_exact_reads_numpy_floats_as_decimals():
    np = pytest.importorskip("numpy")
    assert parse_exact(np.float64(0.1)) == Fraction(1, 10)
    assert parse_point(complex(np.float64(0.3), np.float64(-0.2))) == QComplex(
        Fraction(3, 10), Fraction(-1, 5)
    )


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "inf", "-Infinity"])
def test_parse_exact_refuses_non_finite_values(bad):
    with pytest.raises(UsageError, match="R0: cannot parse rational"):
        parse_exact(bad, "R0")


def test_parse_point_bad_pair():
    with pytest.raises(UsageError):
        parse_point([1, 2, 3])


# -- exact roots ---------------------------------------------------------------


def test_rational_cbrt():
    assert rational_cbrt(Fraction(27, 8)) == Fraction(3, 2)
    assert rational_cbrt(Fraction(-27, 8)) == Fraction(-3, 2)
    assert rational_cbrt(Fraction(2)) is None
    assert rational_cbrt(Fraction(0)) == 0


def test_real_cbrt_sign():
    assert real_cbrt(8.0) == 2.0
    assert real_cbrt(-8.0) == -2.0
    assert real_cbrt(0.0) == 0.0


def test_cbrt_exact_collapses_perfect_cubes():
    assert cbrt_exact(Fraction(8)) == 2
    assert cbrt_exact(Fraction(-27, 64)) == Fraction(-3, 4)
    r = cbrt_exact(Fraction(12, 5))
    assert isinstance(r, CubicRadical)
    assert abs(float(r) ** 3 - 12 / 5) < 1e-12


def test_make_radical_collapse():
    # rad a perfect cube collapses to a plain Fraction
    v = make_radical(1, 2, 3, Fraction(8))
    assert isinstance(v, Fraction)
    assert v == 1 + 2 * 2 + 3 * 4
    assert make_radical(Fraction(5, 7), 0, 0, Fraction(12, 5)) == Fraction(5, 7)


# -- CubicRadical: stored, compared, negated and converted, never computed with


def _rand_elem(rng, rad):
    return make_radical(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        rad,
    )


def test_radical_pow_and_cube():
    """Powers of c, as a normal-form pack is assembled from them."""
    c = cbrt_exact(Fraction(12, 5))
    assert _times_power(Fraction(1), c, 1) == c
    assert _times_power(Fraction(1), c, 3) == Fraction(12, 5)
    assert _times_power(Fraction(1), c, -3) == Fraction(5, 12)
    assert _times_power(Fraction(-1), c, 3) == Fraction(-12, 5)
    assert _times_power(Fraction(-1), c, 1) == -c
    assert _times_power(Fraction(5, 12), c, 4) == c
    # q = 0 and n = 0 (mod 3) collapse to a plain Fraction
    for n in range(-7, 8):
        assert type(_times_power(Fraction(0), c, n)) is Fraction
        z = _times_power(Fraction(-3, 7), c, n)
        assert (type(z) is Fraction) == (n % 3 == 0)
        if n % 3 == 0:
            assert z == Fraction(-3, 7) * Fraction(12, 5) ** (n // 3)
    # a rational root: plain Fraction powers
    assert _times_power(Fraction(3), Fraction(2), -2) == Fraction(3, 4)


def test_radical_float_consistency():
    rng = random.Random(11)
    c = real_cbrt(12 / 5)
    for _ in range(30):
        a = _rand_elem(rng, Fraction(12, 5))
        parts = (a.a0, a.a1, a.a2) if isinstance(a, CubicRadical) else (a, 0, 0)
        want = float(parts[0]) + float(parts[1]) * c + float(parts[2]) * c * c
        assert math.isclose(scalar_float(a), want, rel_tol=1e-12, abs_tol=1e-12)
        assert scalar_float(-a) == -scalar_float(a)


# -- QComplex against the builtin complex oracle ---------------------------------


@given(
    a=fractions_st, b=fractions_st, c=fractions_st, d=fractions_st
)
@settings(max_examples=60, deadline=None)
def test_qcomplex_matches_complex(a, b, c, d):
    z = QComplex(a, b)
    w = QComplex(c, d)
    zf, wf = complex(a) + 1j * complex(b), complex(c) + 1j * complex(d)
    assert (z + w).to_complex() == pytest.approx(zf + wf)
    assert (z - w).to_complex() == pytest.approx(zf - wf)
    assert (z * w).to_complex() == pytest.approx(zf * wf)
    assert z.abs2() == a * a + b * b
    assert z * QComplex(a, -b) == QComplex(z.abs2())


def test_qcomplex_pow_and_real():
    """A QComplex has no power: exact seed values come from integer runs."""
    z = QComplex(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(TypeError):
        z**3
    assert not z.is_real()
    assert QComplex(Fraction(5, 3)).is_real()


def test_qcomplex_reflected_division():
    """A QComplex has no division, plain or reflected."""
    for num, den in ((1, QComplex(0, 2)), (Fraction(3, 2), QComplex(1, 1)), (1.5, QComplex(1)),
                     (QComplex(1), QComplex(0, 2)), (QComplex(1), 2)):
        with pytest.raises(TypeError):
            num / den


def test_reflected_subtraction():
    assert 3 - QComplex(1, 2) == QComplex(2, -2)
    assert Fraction(1, 3) - QComplex(1, 2) == QComplex(Fraction(-2, 3), -2)
    z = QComplex(1)
    assert z.__rsub__(1.5) is NotImplemented
    with pytest.raises(TypeError, match="for -:"):
        1.5 - z


# -- exact nested-radical comparator ----------------------------------------------


@given(d=fractions_st, r=fractions_st, r1=fractions_st)
@settings(max_examples=80, deadline=None)
def test_lt_dist_vs_radius_vs_float(d, r, r1):
    D2, R, R1 = d * d, abs(r), r1 * r1
    lhs = math.sqrt(float(D2))
    rhs = float(R) + 2.0 * math.sqrt(float(R1))
    if abs(lhs - rhs) < 1e-9:
        return
    assert lt_dist_vs_radius(D2, R, R1) == (lhs < rhs)


def test_lt_dist_vs_radius_tie_and_guard():
    # sqrt(4) = 1 + 2 sqrt(1/4): equality is not "less than"
    assert not lt_dist_vs_radius(Fraction(4), Fraction(1), Fraction(1, 4))
    assert lt_dist_vs_radius(Fraction(4), Fraction(1), Fraction(26, 100))
    with pytest.raises(UsageError):
        lt_dist_vs_radius(Fraction(-1), Fraction(1), Fraction(1))
