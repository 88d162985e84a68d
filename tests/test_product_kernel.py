"""The exact series kernels against the loops they replaced.

``Series1``, ``Series2``, the miniversal fit and the Newton steps of
``implicit_solve`` share one product kernel, ``_product``, which sums the
products of a list of operand pairs as integer numerators over one
denominator; ``_horner``, behind every composition, keeps its partial sum in
that integer form from step to step. Kept in this file as references: the
loops that multiplied ``Fraction``/float coefficients one term pair at a
time, pair by pair into one dict, and the Horner rule that ran on whole
series (``recap``, ``*``, ``+``). The kernels must give the same
coefficients, in the same key order (the validity radius sums a band's
magnitudes in dict order), drop exact zeros from series products as before,
and keep float results bit for bit. Exact series are built over Q, so the
kernels refuse a ``CubicRadical`` operand.
"""

import random
from fractions import Fraction

import pytest
from conftest import random_singular_problem
from hypothesis import given, settings
from hypothesis import strategies as st

from hodocusp import build_normal_form, expand_potential, hodograph_map
from hodocusp.errors import UsageError
from hodocusp.scalars import CubicRadical, make_radical
from hodocusp.series import (
    EXACT,
    FLOAT,
    Series1,
    Series2,
    _horner,
    _product,
    series1_text,
    series2_text,
)

PAIR = ("x", "y")


# -- references ---------------------------------------------------------------


def ref_product2(s, t):
    cap = s.cap
    c = {}
    for (i1, j1), v1 in s._c.items():
        d1 = i1 + j1
        for (i2, j2), v2 in t._c.items():
            if d1 + i2 + j2 > cap:
                continue
            k = (i1 + i2, j1 + j2)
            w = c.get(k)
            c[k] = v1 * v2 if w is None else w + v1 * v2
    return c


def ref_product1(s, t):
    cap = s.cap
    c = {}
    for j1, v1 in s._c.items():
        for j2, v2 in t._c.items():
            k = j1 + j2
            if k > cap:
                continue
            w = c.get(k)
            c[k] = v1 * v2 if w is None else w + v1 * v2
    return c


def ref_row_mul_add(out, a, b, deg):
    """Add a * b under total degree deg into out, term pair by term pair."""
    for i, x in a.items():
        for j, y in b.items():
            if isinstance(i, int):
                k, d = i + j, i + j
            else:
                k = (i[0] + j[0], i[1] + j[1])
                d = k[0] + k[1]
            if d <= deg:
                w = out.get(k)
                out[k] = x * y if w is None else w + x * y


def ref_mul(s, t):
    """What ``s * t`` stored before the kernel: the nonzero reference terms."""
    ref = ref_product2 if isinstance(s, Series2) else ref_product1
    c = {k: v for k, v in ref(s, t).items() if v != 0}
    return type(s)._raw(s._vars, s.cap, c, s.mode, s.cap)


def bits(items):
    """Terms with floats spelled out bit for bit (-0.0 differs from 0.0)."""
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in items]


def same_terms(got, want):
    """Equal coefficients in equal key order; exact results hold no ints."""
    assert bits(got.items()) == bits(want.items())
    for v in got.values():
        assert isinstance(v, (float, Fraction))


# -- strategies -----------------------------------------------------------------

# small numerators and denominators, so that sums cancel to zero often
small_q = st.fractions(min_value=-2, max_value=2, max_denominator=3)
small_int = st.integers(-2, 2)
floats_st = st.floats(min_value=-4, max_value=4, allow_subnormal=False)


def exact_coeffs(kinds):
    """Coefficients drawn from the given kinds: int, Fraction."""
    options = []
    if "int" in kinds:
        options.append(small_int)
    if "q" in kinds:
        options.append(small_q)
    return st.one_of(*options)


KINDS = [("q",), ("int",), ("q", "int")]


@st.composite
def operands(draw, pairs, cap, mode=EXACT, max_terms=10, keep_zeros=False, count=2):
    """``count`` coefficient dicts, keys in drawn order."""
    if pairs:
        key = st.tuples(st.integers(0, cap), st.integers(0, cap)).filter(
            lambda k: k[0] + k[1] <= cap
        )
    else:
        key = st.integers(0, cap)
    out = []
    for _ in range(count):
        if mode == FLOAT:
            coeff = floats_st
        else:
            coeff = exact_coeffs(draw(st.sampled_from(KINDS)))
        d = draw(st.dictionaries(key, coeff, max_size=max_terms))
        if not keep_zeros:
            d = {k: v for k, v in d.items() if v != 0}
        out.append(d)
    return out


def series(cls, c, cap, mode):
    name = PAIR if cls is Series2 else "x"
    return cls._raw(name, cap, dict(c), mode, cap)


def check_series_product(cls, a, b, cap, mode):
    s, t = series(cls, a, cap, mode), series(cls, b, cap, mode)
    got = s * t
    want = ref_mul(s, t)
    same_terms(got._c, want._c)
    assert got == want
    assert repr(got.validity_radius()) == repr(want.validity_radius())


# -- series products ------------------------------------------------------------


@given(st.integers(0, 6).flatmap(lambda cap: st.tuples(st.just(cap), operands(True, cap))))
@settings(max_examples=150, deadline=None)
def test_series2_product_matches_reference(case):
    cap, (a, b) = case
    check_series_product(Series2, a, b, cap, EXACT)


@given(st.integers(0, 8).flatmap(lambda cap: st.tuples(st.just(cap), operands(False, cap))))
@settings(max_examples=150, deadline=None)
def test_series1_product_matches_reference(case):
    cap, (a, b) = case
    check_series_product(Series1, a, b, cap, EXACT)


@given(
    st.integers(0, 6).flatmap(
        lambda cap: st.tuples(st.just(cap), st.booleans(), operands(True, cap, FLOAT, 14))
    )
)
@settings(max_examples=100, deadline=None)
def test_float_products_bit_identical(case):
    cap, pairs, (a, b) = case
    if pairs:
        check_series_product(Series2, a, b, cap, FLOAT)
    else:
        a = {i + j: v for (i, j), v in a.items()}
        b = {i + j: v for (i, j), v in b.items()}
        check_series_product(Series1, a, b, cap, FLOAT)


@pytest.fixture(scope="module")
def generic_pack_10():
    p = random_singular_problem(random.Random(0))
    return build_normal_form(hodograph_map(expand_potential(p, order=10)))


def test_products_of_generic_pack_series(generic_pack_10):
    """Products of real pack series with large denominators: exact where the
    series is rational, and the float copies of all."""
    p = generic_pack_10
    cases = [
        (p.h_of_tau_v, p.xi_of_tau_v),
        (p.u_of_tau_w, p.u_of_tau_w),
        (p.xi_of_tau_w, p.u_of_tau_w),
        (p.v_of_w, p.v_of_w),
        (p.lambda1, p.lambda2),
        (p.lambda2, p.lambda2),
    ]
    for s, t in cases:
        for x, y in ((s, t), (t, s)):
            if not any(isinstance(v, CubicRadical) for v in (*x._c.values(), *y._c.values())):
                check_series_product(type(x), x._c, y._c, x.cap, EXACT)
            fx, fy = x.to_float(), y.to_float()
            check_series_product(type(x), fx._c, fy._c, x.cap, FLOAT)


def test_cancelled_sums_are_dropped():
    # (1 + x)(1 - x) = 1 - x**2, the x term cancels
    for cls, k1, k2 in ((Series1, 1, 2), (Series2, (1, 0), (2, 0))):
        zero = 0 if cls is Series1 else (0, 0)
        a = {zero: Fraction(1), k1: Fraction(1)}
        b = {zero: Fraction(1), k1: Fraction(-1)}
        got = series(cls, a, 4, EXACT) * series(cls, b, 4, EXACT)
        assert k1 not in got._c and got._c[k2] == -1
        check_series_product(cls, a, b, 4, EXACT)


def test_empty_operands_and_truncation():
    a = {0: Fraction(1, 3), 2: Fraction(-7, 2), 3: Fraction(5)}
    for b in ({}, {1: Fraction(2)}, {3: Fraction(4, 9)}):
        for cap in (0, 2, 3, 4, 6):
            aa = {k: v for k, v in a.items() if k <= cap}
            bb = {k: v for k, v in b.items() if k <= cap}
            check_series_product(Series1, aa, bb, cap, EXACT)
            check_series_product(Series1, bb, aa, cap, EXACT)
    assert (series(Series1, {}, 3, EXACT) * series(Series1, a, 3, EXACT))._c == {}
    # nothing survives the cap
    got = series(Series1, {2: Fraction(1)}, 3, EXACT) * series(Series1, {2: Fraction(1)}, 3, EXACT)
    assert got.is_zero()


# -- sums of products: the miniversal fit's rows and the Newton steps ---------


def rows_of(pairs, dicts, cap, mode):
    cls = Series2 if pairs else Series1
    return [series(cls, d, cap, mode) for d in dicts]


@given(
    st.tuples(st.integers(0, 6), st.booleans(), st.sampled_from([EXACT, FLOAT])).flatmap(
        lambda t: st.tuples(
            st.just(t[0]),
            st.just(t[1]),
            st.just(t[2]),
            operands(t[1], t[0] + 2, t[2], keep_zeros=True, count=6),
            st.integers(0, 3),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_row_mul_add_matches_reference(case):
    """Sums the pairs' products in one call, in the order the pairs' products
    added into one dict pair by pair; keeps zero sums, ignores terms past
    ``deg``, and holds stored zeros of the operands."""
    deg, pairs, mode, dicts, n_pairs = case
    ops = rows_of(pairs, dicts, deg + 2, mode)
    operand_pairs = list(zip(ops[0::2], ops[1::2]))[:n_pairs]
    want = {}
    for a, b in operand_pairs:
        ref_row_mul_add(want, a._c, b._c, deg)
    got = _product(operand_pairs, deg)
    assert bits(got.items()) == bits(want.items())
    if mode == EXACT:
        assert all(isinstance(v, Fraction) for v in got.values())


def test_row_mul_add_keeps_zero_sums():
    a = {0: Fraction(1), 1: Fraction(1), 5: Fraction(3)}
    b = {0: Fraction(1), 1: Fraction(-1)}
    c = {1: Fraction(1)}
    d = {0: Fraction(-1), 1: Fraction(1)}
    A, B, C, D = rows_of(False, (a, b, c, d), 5, EXACT)
    got = _product([(A, B)], 3)
    assert got == {0: 1, 1: 0, 2: -1}
    # (1 + x)(1 - x) + x(x - 1): the x**2 terms cancel across the two pairs
    got = _product([(A, B), (C, D)], 3)
    assert list(got.items()) == [(0, 1), (1, -1), (2, 0)]
    want = {}
    ref_row_mul_add(want, a, b, 3)
    ref_row_mul_add(want, c, d, 3)
    assert bits(got.items()) == bits(want.items())
    assert _product([], 3) == {}


# -- radical operands -------------------------------------------------------------


def refusal(fn):
    with pytest.raises(UsageError) as exc:
        fn()
    return str(exc.value)


RADICAL_REFUSAL = "the series kernel multiplies rational coefficients only, got CubicRadical("


@pytest.mark.parametrize("cls", [Series1, Series2])
def test_kernel_refuses_radical_operands(cls):
    """A series product, or a sum of products, with a CubicRadical
    coefficient in either operand is refused, naming the coefficient."""
    c2 = make_radical(0, 1, 0, 2)

    def key(j):
        return j if cls is Series1 else (j, 0)

    q = series(cls, {key(0): Fraction(1), key(1): Fraction(1, 3)}, 4, EXACT)
    r = series(cls, {key(0): Fraction(1), key(1): c2}, 4, EXACT)
    for fn in (lambda: q * r, lambda: r * q, lambda: _product([(q, q), (q, r)], 3)):
        message = refusal(fn)
        assert message.startswith(RADICAL_REFUSAL + "0, 1, 0; cbrt 2):"), message
        assert "the cube root enters a normal-form pack only when it is assembled" in message


def test_row_mul_add_mixed_radicands():
    """Two cube-root fields in one operand, or in two pairs of one call:
    the first radical read is refused."""
    c2 = make_radical(0, 1, 0, 2)
    c3 = make_radical(1, 1, 0, 3)
    a = {0: c2, 1: c3}
    b = {0: Fraction(1), 1: Fraction(1)}
    A, B, C, D = rows_of(False, (a, b, {0: c2}, {1: c3}), 3, EXACT)
    for pairs in ([(A, B)], [(B, C), (B, D)]):
        message = refusal(lambda: _product(pairs, 3))
        assert message.startswith(RADICAL_REFUSAL + "0, 1, 0; cbrt 2)")


@pytest.mark.parametrize("cls", [Series1, Series2])
def test_text_writer_refuses_mixed_radicands_with_the_product_message(cls):
    c2 = make_radical(0, 1, 0, 2)
    c3 = make_radical(1, 1, 0, 3)
    key = (lambda j: j) if cls is Series1 else (lambda j: (j, 0))
    s = series(cls, {key(0): c2, key(1): c3}, 4, EXACT)
    write = series1_text if cls is Series1 else series2_text
    assert refusal(lambda: write(s)) == "cannot mix cube roots of 2 and 3"


# -- the Horner kernel ------------------------------------------------------------


def ref_horner(rows, s):
    """sum_i rows[i] * s**i by Horner's rule on whole series, each partial
    sum recapped to the degree the remaining powers of s leave it."""
    cap = s.cap
    val = s.valuation()
    n = min(len(rows) - 1, cap // val)
    acc = rows[n].recap(cap - n * val)
    for i in range(n - 1, -1, -1):
        c = cap - i * val
        acc = rows[i].recap(c) + ref_mul(acc.recap(c), s.recap(c))
    return acc


def coefficient_st(mode, kinds):
    return floats_st if mode == FLOAT else exact_coeffs(kinds)


@st.composite
def horner_cases(draw, mode):
    """(rows, s): Series2 rows and a substitution of valuation 1 or 2, each
    operand with its own coefficient kinds, stored zeros kept, s's valuation
    term first."""
    cap = draw(st.integers(1, 6))
    val = draw(st.sampled_from([1, 2]))
    key = st.tuples(st.integers(0, cap), st.integers(0, cap)).filter(
        lambda k: k[0] + k[1] <= cap
    )
    higher = key.filter(lambda k: k[0] + k[1] >= val)
    lead = draw(st.integers(0, val))
    s = {(lead, val - lead): draw(coefficient_st(mode, draw(st.sampled_from(KINDS))))}
    s.update(
        draw(st.dictionaries(higher, coefficient_st(mode, draw(st.sampled_from(KINDS))), max_size=8))
    )
    rows = [
        draw(st.dictionaries(key, coefficient_st(mode, draw(st.sampled_from(KINDS))), max_size=6))
        for _ in range(draw(st.integers(1, cap + 1)))
    ]
    return [series(Series2, r, cap, mode) for r in rows], series(Series2, s, cap, mode)


@given(st.sampled_from([EXACT, FLOAT]).flatmap(horner_cases))
@settings(max_examples=200, deadline=None)
def test_horner_matches_series_horner(case):
    """Same coefficients in the same key order, stored zeros included; float
    sums bit for bit."""
    rows, s = case
    got = _horner(rows, s)
    want = ref_horner(rows, s)._c
    assert bits(got.items()) == bits(want.items())
    if s.mode == EXACT:
        assert all(isinstance(v, Fraction) for v in got.values())


def test_horner_refuses_radical_operands():
    """A CubicRadical in a row, read at any step, or in the substitution."""
    c2 = make_radical(0, 1, 0, 2)
    one = series(Series2, {(0, 0): Fraction(1)}, 3, EXACT)
    x = series(Series2, {(1, 0): Fraction(1)}, 3, EXACT)
    radical_row = series(Series2, {(0, 0): c2}, 3, EXACT)
    radical_s = series(Series2, {(1, 0): Fraction(1), (0, 1): c2}, 3, EXACT)
    for rows, s in (([one, radical_row], x), ([radical_row, one], x), ([one, one], radical_s)):
        assert refusal(lambda: _horner(rows, s)).startswith(RADICAL_REFUSAL)


def test_horner_row_meets_the_other_field():
    """The last row's term meets a product term of the other field: the
    first radical read is refused."""
    c2 = make_radical(0, 1, 0, 2)
    c3 = make_radical(0, 1, 0, 3)
    rows = [series(Series2, c, 3, EXACT) for c in ({(1, 0): c3}, {(0, 0): c2})]
    s = series(Series2, {(1, 0): Fraction(1)}, 3, EXACT)
    assert refusal(lambda: _horner(rows, s)).startswith(RADICAL_REFUSAL + "0, 1, 0; cbrt 2)")


@pytest.mark.parametrize(
    "c, one",
    [(Fraction(3, 2), Fraction(1)), (Fraction(-5, 7), Fraction(1)), (1.5, 1.0)],
)
def test_horner_drops_sums_that_cancel(c, one):
    """c - c x + x (c + y): the x term of the last row cancels and goes."""
    mode = FLOAT if isinstance(c, float) else EXACT
    rows = [
        series(Series2, {(1, 0): -c, (0, 0): c}, 3, mode),
        series(Series2, {(0, 0): c, (0, 1): one}, 3, mode),
    ]
    s = series(Series2, {(1, 0): one}, 3, mode)
    got = _horner(rows, s)
    assert (1, 0) not in got
    assert bits(got.items()) == bits(ref_horner(rows, s)._c.items())
