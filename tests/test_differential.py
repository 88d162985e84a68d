"""Differential and property tests of the exact scalar and series kernels.

Each kernel is checked against a slow reference kept in this file:

* Horner ``substitute`` and ``compose2`` against term-by-term composition
  from power tables, one product per term of the outer series;
* ``compose1`` against the sum of full-cap powers it used to form, and
  ``cube_root_normalize`` against the same solver with a full-cap
  recomposition per order, coefficient and insertion order alike;
* ``implicit_solve`` against the band-by-band solve it replaced,
  coefficient and insertion order alike, with float results within
  rounding of the exact ones;
* ``CubicRadical`` against the textbook field formulas over three
  Fractions: its stored parts, negation, float conversion (also against
  the integer form (n0 + n1 c + n2 c**2) / d it was once stored in), and
  the rational multiples of powers of the cube root that a normal-form
  pack is assembled from.

The series kernels run over Q only; a ``CubicRadical`` takes part in no
arithmetic.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hodocusp.scalars import CubicRadical, _times_power, cbrt_exact, make_radical, real_cbrt
from hodocusp.series import (
    EXACT,
    FLOAT,
    Series1,
    Series2,
    compose1,
    compose2,
    const2,
    cube_root_normalize,
    implicit_solve,
    substitute,
    variable2,
)

POOL_N16 = Path(__file__).parent / "golden" / "pool_n16.py"
HV = ("h", "V")
TV = ("tau", "V")
CAP = 5
RADS = [Fraction(2), Fraction(12, 5), Fraction(-4, 15), Fraction(7, 9)]

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=12)
keys_st = st.tuples(st.integers(0, CAP), st.integers(0, CAP)).filter(
    lambda k: k[0] + k[1] <= CAP
)


# -- reference: an element of Q(cbrt(rad)) as three Fractions --------------------------


def ref_mul(a, b, r):
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (
        a0 * b0 + r * (a1 * b2 + a2 * b1),
        a0 * b1 + a1 * b0 + r * a2 * b2,
        a0 * b2 + a1 * b1 + a2 * b0,
    )


def ref_inverse(a, r):
    a0, a1, a2 = a
    norm = a0**3 + a1**3 * r + a2**3 * r * r - 3 * a0 * a1 * a2 * r
    return (
        (a0 * a0 - a1 * a2 * r) / norm,
        (a2 * a2 * r - a0 * a1) / norm,
        (a1 * a1 - a0 * a2) / norm,
    )


def ref_float(a, r):
    c = real_cbrt(float(r))
    return float(a[0]) + float(a[1]) * c + float(a[2]) * c * c


def as_parts(x):
    """(a0, a1, a2) of a field element that may have collapsed to Fraction."""
    if isinstance(x, CubicRadical):
        return (x.a0, x.a1, x.a2)
    assert isinstance(x, Fraction)
    return (x, Fraction(0), Fraction(0))


triples_st = st.tuples(fractions_st, fractions_st, fractions_st)


@given(a=triples_st, r=st.sampled_from(RADS), k=fractions_st, n=st.integers(-7, 7))
@settings(max_examples=200, deadline=None)
def test_radical_matches_fraction_formulas(a, r, k, n):
    x = make_radical(*a, r)
    assert as_parts(x) == a
    assert as_parts(-x) == tuple(-p for p in a)
    # k c**n, c = cbrt(r), as the pack assembles it: one element, built once
    c_n = (Fraction(1), Fraction(0), Fraction(0))
    step = (Fraction(0), Fraction(1), Fraction(0)) if n >= 0 else ref_inverse((0, 1, 0), r)
    for _ in range(abs(n)):
        c_n = ref_mul(c_n, step, r)
    z = _times_power(k, cbrt_exact(r), n)
    assert as_parts(z) == tuple(k * p for p in c_n)
    # a canonical form: equal values have equal stored parts and hashes
    if isinstance(z, CubicRadical):
        w = make_radical(*as_parts(z), r)
        assert z == w and hash(z) == hash(w)
        parts = (z.a0, z.a1, z.a2, z.rad)
        assert parts == (w.a0, w.a1, w.a2, w.rad) == (*as_parts(z), r)
        assert all(type(x) is Fraction for x in parts)


@given(a=triples_st, r=st.sampled_from(RADS), n=st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_radical_pow_and_float_match_reference(a, r, n):
    x = make_radical(*a, r)
    # the powers of c = cbrt(r) that a pack's coefficients carry
    xn = _times_power(Fraction(1), cbrt_exact(r), n)
    want = (Fraction(1), Fraction(0), Fraction(0))
    for _ in range(n):
        want = ref_mul(want, (0, 1, 0), r)
    assert as_parts(xn) == want
    # bit-equal conversion, the float evaluators read coefficients this way
    assert float(x) == ref_float(a, r)
    assert float(-x) == ref_float(tuple(-p for p in a), r)
    assert float(xn) == ref_float(want, r)


def ref_integer_float(x):
    """float(x) as the integer form (n0 + n1 c + n2 c**2) / d computed it,
    over the lcm d of the parts' denominators."""
    parts = (x.a0, x.a1, x.a2)
    d = math.lcm(*(a.denominator for a in parts))
    n0, n1, n2 = (a.numerator * (d // a.denominator) for a in parts)
    c = real_cbrt(float(x.rad))
    return n0 / d + n1 / d * c + n2 / d * c * c


def radical_coefficients(pack):
    from hodocusp.normal_form import _PACK_FILES

    return [
        v
        for attr, _ in _PACK_FILES
        for v in getattr(pack, attr)._c.values()
        if isinstance(v, CubicRadical)
    ]


@given(a=triples_st, r=st.sampled_from(RADS))
@settings(max_examples=200, deadline=None)
def test_radical_float_matches_the_integer_form_on_random_elements(a, r):
    x = make_radical(*a, r)
    if isinstance(x, CubicRadical):
        assert float(x) == ref_integer_float(x)
        assert float(-x) == ref_integer_float(-x)


def test_radical_float_matches_the_integer_form_on_packs(canonical_pack):
    spec = importlib.util.spec_from_file_location("pool_n16", POOL_N16)
    pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool)
    packs = [canonical_pack] + [pool.pool_pack(i) for i in pool.INSTANCES]
    counts = []
    for pack in packs:
        coeffs = radical_coefficients(pack)
        counts.append(len(coeffs))
        for v in coeffs:
            assert float(v) == ref_integer_float(v), v
    assert min(counts) > 0 and sum(counts) > 1000


@given(a=triples_st, root=fractions_st.filter(lambda q: q != 0))
@settings(max_examples=60, deadline=None)
def test_make_radical_collapses_perfect_cubes(a, root):
    v = make_radical(*a, root**3)
    assert isinstance(v, Fraction)
    assert v == a[0] + a[1] * root + a[2] * root * root


# -- reference: term-by-term composition ---------------------------------------------


def naive_compose(a, s1, s2):
    """a(s1, s2) with one product per term of a, from tables of powers."""
    names, cap, mode = s1.names, s1.cap, s1.mode
    p1 = [const2(names, cap, 1, mode)]
    p2 = [const2(names, cap, 1, mode)]
    for _ in range(cap):
        p1.append(p1[-1] * s1)
        p2.append(p2[-1] * s2)
    out = Series2(names, cap, {}, mode=mode)
    for i, j, v in a.terms():
        out = out + (p1[i] * p2[j]).scale(v)
    return out


def series_st(names, values, no_constant=False):
    keys = keys_st.filter(lambda k: k != (0, 0)) if no_constant else keys_st
    return st.dictionaries(keys, values, max_size=8)


def build(coeffs, names, mode=EXACT):
    return Series2(names, CAP, coeffs, mode=mode)


def assert_close(got, want):
    scale = max([abs(v) for v in want._c.values()] + [1.0])
    for k in set(got._c) | set(want._c):
        assert abs(got._c.get(k, 0.0) - want._c.get(k, 0.0)) <= 1e-12 * scale, k


@given(
    a=series_st(HV, fractions_st),
    s=series_st(TV, fractions_st, no_constant=True),
    second=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_substitute_matches_naive_exact(a, s, second):
    a_s, s_s = build(a, HV), build(s, TV if not second else ("h", "W"))
    which = "V" if second else "h"
    kept = variable2(s_s.names, CAP, "h" if second else "V")
    got = substitute(a_s, which, s_s)
    want = naive_compose(a_s, kept, s_s) if second else naive_compose(a_s, s_s, kept)
    assert got == want


@given(
    a=series_st(HV, fractions_st),
    s1=series_st(TV, fractions_st, no_constant=True),
    s2=series_st(TV, fractions_st, no_constant=True),
)
@settings(max_examples=60, deadline=None)
def test_compose2_matches_naive_exact(a, s1, s2):
    a_s, f, g = build(a, HV), build(s1, TV), build(s2, TV)
    assert compose2(a_s, f, g) == naive_compose(a_s, f, g)


floats_st = st.floats(min_value=-4, max_value=4, allow_nan=False)


@given(
    a=series_st(HV, floats_st),
    s1=series_st(TV, floats_st, no_constant=True),
    s2=series_st(TV, floats_st, no_constant=True),
)
@settings(max_examples=60, deadline=None)
def test_compositions_match_naive_float(a, s1, s2):
    a_s = build(a, HV, FLOAT)
    f, g = build(s1, TV, FLOAT), build(s2, TV, FLOAT)
    assert_close(compose2(a_s, f, g), naive_compose(a_s, f, g))
    v = variable2(TV, CAP, "V", mode=FLOAT)
    assert_close(substitute(a_s, "h", f), naive_compose(a_s, f, v))


# -- implicit_solve: round trip, and the band-by-band solve it replaced -------


def ref_implicit_solve(f, solve_for, value_name):
    """The band-by-band solve: pass n substitutes the solution known through
    band n - 1 into f at cap n and fixes band n from the defect there."""
    swapped = f.names.index(solve_for) == 1
    if swapped:
        f = f.swap()
    names = (value_name, f.names[1])
    cap, mode = f.cap, f.mode
    c10_inv = 1 / f._c[(1, 0)]
    sol = {}
    for n in range(1, cap + 1):
        fs = substitute(f.recap(n), solve_for, Series2._raw(names, n, dict(sol), mode, n))
        for i in range(n + 1):
            k = (i, n - i)
            r = (1 if k == (1, 0) else 0) - fs._c.get(k, 0)
            if r != 0:
                sol[k] = r * c10_inv
    out = Series2._raw(names, cap, sol, mode, f.eff)
    return out.swap() if swapped else out


# odd caps end on a partial doubling step
SOLVE_CAPS = (1, 2, 3, 5, 7, 11, 16)


def implicit_input(data, cap, values, second):
    """f(h, V) with no constant term and a nonzero linear coefficient in the
    solved variable (V when ``second``); the other linear term is dropped
    half the time."""
    keys = st.tuples(st.integers(0, cap), st.integers(0, cap)).filter(
        lambda k: 0 < k[0] + k[1] <= cap
    )
    coeffs = data.draw(st.dictionaries(keys, values, max_size=6))
    lead, other = ((0, 1), (1, 0)) if second else ((1, 0), (0, 1))
    coeffs[lead] = data.draw(values.filter(lambda v: v != 0))
    if data.draw(st.booleans()):
        coeffs.pop(other, None)
    return Series2(HV, cap, coeffs, eff=cap - data.draw(st.integers(0, 1)))


def assert_same_solve(got, want):
    assert (got.names, got.cap, got.mode, got.eff) == (want.names, want.cap, want.mode, want.eff)
    assert got._c == want._c
    assert list(got._c) == list(want._c)


@given(cap=st.sampled_from(SOLVE_CAPS), second=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_implicit_solve_matches_band_by_band_exact(cap, second, data):
    f = implicit_input(data, cap, fractions_st, second)
    x = "V" if second else "h"
    assert_same_solve(implicit_solve(f, x, "tau"), ref_implicit_solve(f, x, "tau"))


@given(cap=st.sampled_from(SOLVE_CAPS), second=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_implicit_solve_float_matches_exact_rounded(cap, second, data):
    f = implicit_input(data, cap, fractions_st, second)
    x = "V" if second else "h"
    exact = implicit_solve(f, x, "tau")
    got = implicit_solve(f.to_float(), x, "tau")
    assert (got.names, got.eff) == (exact.names, exact.eff)
    keys = set(exact._c) | set(got._c)
    for n in range(1, cap + 1):
        band = [k for k in keys if sum(k) == n]
        norm = sum(abs(float(exact._c[k])) for k in band if k in exact._c)
        for k in band:
            want = float(exact._c.get(k, 0))
            assert abs(got._c.get(k, 0.0) - want) <= 1e-13 * norm, (k, norm)


# -- reference: one-variable composition from full-cap powers -----------------------


def ref_compose1(f, g):
    """f(g) as the sum of f_j g**j over full-cap powers of g."""
    out = Series1(g.name, g.cap, {}, mode=g.mode)
    p = Series1(g.name, g.cap, {0: 1}, mode=g.mode)
    for j in range(f.cap + 1):
        if j:
            p = p * g
        v = f._c.get(j)
        if v is not None:
            out = out + p.scale(v)
    eff = f.eff
    m = min((j - 1 for j in f._c if j >= 1), default=None)
    if m is not None:
        eff = min(eff, g.eff + m)
    return Series1._raw(g.name, g.cap, out._c, g.mode, eff)


def ref_cube_root_normalize(x0, new_name="W"):
    """V(W) with x0(V) = W**3, each order from a full-cap recomposition."""
    cap, mode = x0.cap, x0.mode
    a1 = cbrt_exact(1 / x0._c[3])
    a = {1: a1}
    xw = x0.rename(new_name)
    for m in range(2, cap - 1):
        comp = ref_compose1(xw, Series1._raw(new_name, cap, dict(a), mode, cap))
        r = comp._c.get(m + 2)
        if r is not None and r != 0:
            a[m] = -r * a1 / 3
    return Series1._raw(new_name, cap, a, mode, min(x0.eff, cap - 2))


def series1_st(values, cap=CAP):
    return st.dictionaries(st.integers(0, cap), values, max_size=cap + 1)


def assert_same_series1(got, want):
    assert (got.name, got.cap, got.mode, got.eff) == (want.name, want.cap, want.mode, want.eff)
    assert got == want


@given(f=series1_st(fractions_st), g=series1_st(fractions_st), eff=st.integers(0, CAP))
@settings(max_examples=80, deadline=None)
def test_compose1_matches_power_sum_exact(f, g, eff):
    g.pop(0, None)
    fs = Series1("V", CAP, f, eff=eff)
    gs = Series1("W", CAP, g, eff=CAP - eff)
    assert_same_series1(compose1(fs, gs), ref_compose1(fs, gs))


@given(f=series1_st(floats_st), g=series1_st(floats_st))
@settings(max_examples=60, deadline=None)
def test_compose1_matches_power_sum_float(f, g):
    g.pop(0, None)
    fs, gs = Series1("V", CAP, f, mode=FLOAT), Series1("V", CAP, g, mode=FLOAT)
    got, want = compose1(fs, gs), ref_compose1(fs, gs)
    assert (got.name, got.cap, got.eff) == (want.name, want.cap, want.eff)
    assert_close(got, want)


def random_series1(rng, cap, lead):
    """Exact series with a nonzero coefficient at ``lead``, sparse above it."""
    c = {lead: Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 7))}
    for j in range(lead + 1, cap + 1):
        if rng.random() < 0.7:
            c[j] = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
    return Series1("V", cap, c, eff=cap - rng.randint(0, 1))


def test_solvers_match_full_cap_recomposition():
    for cap in range(3, 17):
        rng = random.Random(cap)
        x0 = random_series1(rng, cap, 3)
        # a cubic coefficient with a rational cube root: exact series hold no radicals
        root = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4))
        x0 = x0.scale(root**3 / x0.coefficient(3))
        v = cube_root_normalize(x0, "W")
        want = ref_cube_root_normalize(x0, "W")
        assert_same_series1(v, want)
        assert list(v._c.items()) == list(want._c.items())
