"""Differential tests of the seed-series kernels in ``korobeinik``.

Each kernel is checked against a slow reference kept in this file:

* the exact terms (``_exact_terms``, squared here by ``exact_magnitudes2``)
  against |g_n(u)|**2 from the closed component formulas kept here
  (``ref_exact_derivative``, on pairs of Fractions), one derivative per n,
  on real poles, conjugate pairs, complex residues, polynomial parts and the
  higher-order poles of ``seed.differentiated()``; the exact
  ``SeedFunction.derivative_at``, ``value_at`` and
  ``KorobeinikSeries.coefficient``, which read the same run, against those
  closed forms at int, Fraction and complex rational points, on-pole
  refusals included;
* float-built seeds and float or complex points against their exact
  decimal twins, report for report, and the float evaluation at complex
  points against a kept copy of the closed forms, bit for bit;
* the ratios read straight from the integer run (``_exact_terms``) against
  ``ratio_points`` of the reduced Fractions, and ``confirm_divergence``
  against its one-Fraction-per-ratio loop, bit for bit;
* the run started late (``_exact_terms(..., start)``) against the tail of
  the run from k = 0, and the verdicts read from that window (radius
  probes, bidisc samples, witnesses) against the full closed-form run,
  windows with zero terms (the fallback to k = 0) included;
* the bidisc sample verdicts decided from float terms (``_float_median``)
  against the exact ratios of the same window, on the shipped config, the
  goldens and generated benchmark configs at K = 20, 40, 80 and 200, and on
  the samples the floats cannot decide (windows with zero terms, a
  polynomial part in the window, float range left, a median on a margin),
  where the exact path must run once; the integer ``_limit_ratio``
  against ``Fraction.limit_denominator`` and the sampled points against the
  Fraction sampler; the witness's unreduced quotients against reduced
  Fractions;
* ``cauchy_bound_check`` against a per-call run of the closed forms, and
  the one float evaluator of a seed (``pde._complex_evaluator``, which
  ``SeedFunction.value_at`` and ``derivative_at`` call at complex points)
  against the closed forms kept here, repr for repr, refusals included;
* the compiled seed kernel and its Cauchy circle against the closure the
  evaluator was before it was compiled, raw bit for raw bit, and Cauchy
  reports on the shipped, golden and generated configs against that closure;
* the pruned circle maximum (``_circle_max``) against the maximum of the
  full sweep, raw bit for raw bit or the same exception, and each block's
  bound (``_block_bounds``) against each of its samples, on seeds built to
  strain the bound and on the shipped, golden and generated configs, where
  it evaluates under a quarter of the samples;
* the one exact Taylor run of the seed (``pde._taylor_run``) against the
  closed forms' j-th derivative / j! and the ``differentiated()`` chain,
  from every start with strides 1 and 2, the boundary row
  ``_b0_row(_seed_taylor(...))`` against one closed-form derivative per
  order, and ``bridge_check`` against one closed-form derivative per (k, j)
  pair;
* the potential's rows at each probe point (``variable_alpha_probe``)
  against the constant terms of ``expand_potential`` built from the
  boundary row about that point, as exact Fractions, and its reports
  against the ones those give, bit for bit; with alpha == 4, its ratios
  against those of the seed's exact run at the same point; the integer
  alpha weights (``_alpha_weights``) against their Fraction recurrence;
* the integer pole offsets of a point (``SeedFunction._pole_offsets``)
  against the QComplex differences a - u and their ``abs2``, and
  ``assert_not_pole`` against equality with a pole, float points read as
  their decimals.
"""

import cmath
import importlib.util
import math
import random
import statistics
import struct
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hodocusp import korobeinik, pde
from hodocusp.errors import DomainError
from hodocusp.korobeinik import (
    CIRCLE_SAMPLES,
    HEURISTIC_MARGIN,
    RATIO_TAIL,
    CauchyReport,
    ConvergenceReport,
    _exact_terms,
    _observe_point,
    _radius_verdict,
    bidisc_check,
    cauchy_bound_check,
    confirm_divergence,
    divergence_heuristic,
    in_union_domain,
    predicted_radius,
    radius_probe,
    ratio_points,
    richardson_limit,
    variable_alpha_probe,
)
from hodocusp.pde import (
    BridgeCheck,
    KorobeinikSeries,
    PoleTerm,
    PolyTerm,
    ProblemData,
    SeedFunction,
    _complex_evaluator,
    bridge_check,
    expand_potential,
    korobeinik_series,
)
from hodocusp.scalars import QComplex, parse_exact, parse_point

# -- references ---------------------------------------------------------------------


def ref_cmul(x, y):
    """The product of two (re, im) pairs."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_cpow(z, n):
    """z**n for a (re, im) pair and n >= 0, by binary powering."""
    out = (Fraction(1), Fraction(0))
    while n:
        if n & 1:
            out = ref_cmul(out, z)
        z = ref_cmul(z, z)
        n >>= 1
    return out


def ref_pair(v):
    """(re, im) of a QComplex, int or Fraction, as Fractions."""
    if isinstance(v, QComplex):
        return v.re, v.im
    return Fraction(v), Fraction(0)


def ref_exact_derivative(terms, u, m):
    """The m-th derivative of the seed at an exact point u (a QComplex) by
    the closed component formulas, computed on (re, im) pairs of Fractions
    and returned as a QComplex: a polynomial differentiated m times by
    Horner's rule, and a pole c / (a - u)**n as
    c n(n+1)...(n+m-1) / (a - u)**(n+m). A pole at u raises the seed's
    DomainError for the first one in seed order, worded here."""
    ur, ui = ref_pair(u)
    re = im = Fraction(0)
    for t in terms:
        if isinstance(t, PolyTerm):
            vr = vi = Fraction(0)
            for j in range(len(t.coeffs) - 1, m - 1, -1):
                vr, vi = ref_cmul((vr, vi), (ur, ui))
                vr += t.coeffs[j] * math.perm(j, m)
        else:
            power = t.n + m
            ar, ai = ref_pair(t.a)
            dr, di = ref_cpow((ar - ur, ai - ui), power)
            d2 = dr * dr + di * di
            if d2 == 0:
                raise DomainError(
                    f"seed pole at a = {t.a!r}: (a - u)**{power} is zero at u = {u!r} "
                    f"(derivative order {m})"
                )
            # c f / d = c f conj(d) / |d|**2
            f = math.prod(range(t.n, t.n + m))
            vr, vi = ref_cmul(ref_pair(t.c), (dr * f / d2, -di * f / d2))
        re += vr
        im += vi
    return QComplex(re, im)


def ref_coefficient(seed, n, u):
    """g_n(u) = g1^(2k)(u) / (k!(k+1)!), k = n - 1, from the closed forms."""
    k = n - 1
    return ref_exact_derivative(seed.terms, u, 2 * k) * Fraction(
        1, math.factorial(k) * math.factorial(k + 1)
    )


def ref_magnitudes2(seed, u, K):
    """|g_n(u)|**2 from the closed forms, one derivative per n."""
    u = parse_point(u)
    return [ref_coefficient(seed, n, u).abs2() for n in range(1, K + 1)]


def exact_magnitudes2(seed, u, K):
    """|g_n(u)|**2 for n = 1..K as reduced Fractions: the ``_exact_terms``
    run from k = 0, each term squared and put over its denominator."""
    terms, den0, L2 = _exact_terms(seed, parse_point(u, "u"), K)
    den2, step = den0 * den0, L2 * L2
    out = []
    for x, y in terms:
        out.append(Fraction(x * x + y * y, den2))
        den2 *= step
    return out


def ref_confirm_divergence(seed, u, h_abs, K, mags2=None):
    """The divergence run with one reduced Fraction per squared ratio, over
    the magnitudes of the whole run (``exact_magnitudes2`` by default)."""
    if mags2 is None:
        mags2 = exact_magnitudes2(seed, u, K)
    h2 = parse_exact(h_abs) ** 2
    sq = []
    for n in range(1, len(mags2)):
        a, b = mags2[n - 1], mags2[n]
        if a == 0 or b == 0:
            continue
        sq.append(b * h2 / a)
    return divergence_heuristic(sq), tuple(math.sqrt(float(s)) for s in sq[-RATIO_TAIL:])


def ref_radius_probe(seed, u, K):
    """The radius probe over the closed-form magnitudes of the whole run."""
    u = parse_point(u)
    return ref_report(seed, u, ratio_points(ref_magnitudes2(seed, u, K)))


def ref_report(seed, u, pts):
    """The probe report at u from the ratios of its whole run."""
    ratios = tuple(r for _, r in pts[-RATIO_TAIL:])
    pred = predicted_radius(seed, u)
    if seed.is_entire():
        return ConvergenceReport(u.to_complex(), ratios, math.inf, math.inf, "converges")
    est, verdict = _radius_verdict(*richardson_limit(pts))
    return ConvergenceReport(u.to_complex(), ratios, est, pred, verdict)


def observe_point(seed, u, h_abs, K):
    """``_observe_point`` with the integer pole offsets of u
    (``SeedFunction._pole_offsets``) that ``_classify_sample`` hands it."""
    return _observe_point(seed, u, h_abs, K, seed._pole_offsets(u))


def ref_observe_point(seed, u, h_abs, K, offsets=None):
    """The bidisc sample verdict over the closed-form magnitudes of the whole
    run; the pole offsets of u that ``bidisc_check`` passes are unused."""
    mags2 = ref_magnitudes2(seed, u, K)
    pts = ratio_points(mags2, h_abs * h_abs)
    if len(pts) < RATIO_TAIL:
        return "converges"
    med = statistics.median(r for _, r in pts[-5:])
    if med < 1.0 - HEURISTIC_MARGIN:
        return "converges"
    if med > 1.0 + HEURISTIC_MARGIN:
        return "diverges"
    return "inconclusive"


def ref_cauchy(seed, r, r0, eps, n_max, closed_form=None):
    """The Cauchy check with the closed forms evaluated on every call.

    ``closed_form(z, m)`` evaluates the seed's m-th derivative at z; the
    default is ``ref_closed_form`` on the seed's components.
    """
    if closed_form is None:
        def closed_form(z, m):
            return ref_closed_form(seed.terms, z, m, value_form=m == 0)
    r, r0, eps = float(r), float(r0), float(eps)
    rho = r - eps
    c_eps = max(
        abs(closed_form(rho * cmath.exp(2j * math.pi * k / CIRCLE_SAMPLES), 0))
        for k in range(CIRCLE_SAMPLES)
    )
    z_points = [0j]
    for frac in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        for k in range(8):
            z_points.append(r0 * float(frac) * cmath.exp(2j * math.pi * k / 8))
    gap = r - r0 - eps
    max_ratio, worst, fact, denom = 0.0, (0, 0j), 1.0, gap
    for n in range(n_max + 1):
        if n > 0:
            fact *= n
            denom *= gap
        bound = c_eps * fact * rho / denom
        for z in z_points:
            ratio = abs(closed_form(z, n)) / bound
            if ratio > max_ratio:
                max_ratio, worst = ratio, (n, z)
    return CauchyReport(c_eps, n_max, max_ratio, worst[0], worst[1], max_ratio <= 1.0 + 1e-6)


def ref_boundary_row(seed, u, order):
    """b0_j = g1^(j)(u) / (2**j j!) for j <= 2 order, one closed-form
    derivative per order, as QComplex."""
    return [
        ref_exact_derivative(seed.terms, u, j) * Fraction(1, 2**j * math.factorial(j))
        for j in range(2 * order + 1)
    ]


def ref_seed_b0(seed, u_star, order):
    """The real boundary row about u_star, or None when some b0_j is not real."""
    u = QComplex(u_star)
    seed.assert_not_pole(u, "u_star")
    b0 = ref_boundary_row(seed, u, order)
    return [b.re for b in b0] if all(b.is_real() for b in b0) else None


def ref_bridge(seed, u_star, order):
    """Bridge comparison with one closed-form derivative per (k, j) pair."""
    u_star = Fraction(u_star)
    b0 = ref_seed_b0(seed, u_star, order)
    sol = expand_potential(ProblemData(b0=b0, alpha=(), v_star=2 * u_star), order)
    mismatches, checked = [], 0
    for k in range(order + 1):
        for j in range(order - k + 1):
            got = sol.row_coefficient(k, j)
            d = ref_exact_derivative(seed.terms, QComplex(u_star), 2 * k + j)
            want = Fraction(1, 2) ** j * d.re / (
                math.factorial(j) * math.factorial(k) * math.factorial(k + 1)
            )
            checked += 1
            if got != want:
                mismatches.append((k, j, got, want))
    return BridgeCheck(not mismatches, order, checked, tuple(mismatches))


def ref_alpha_mags2(seed, alpha, order, u):
    """|B_k(2u)|**2 for k <= order: the constant terms of the rows of
    ``expand_potential`` built from the boundary row about u, its real and
    imaginary parts expanded apart (the recurrence is linear)."""
    b0 = ref_boundary_row(seed, u, order)
    re, im = (
        expand_potential(ProblemData(b0=[part(b) for b in b0], alpha=alpha), order).rows
        for part in (lambda b: b.re, lambda b: b.im)
    )
    return [re[k][0] ** 2 + im[k][0] ** 2 for k in range(order + 1)]


def ref_alpha_weights(alpha, order):
    """(w, W) of ``_alpha_weights`` from its recurrence in Fractions:
    w_00 = 1 and
    w_{k+1,m+1} = (m+1)(m+2) (4 w_km + sum_l alpha_l w_{k-l,m}) / (4(k+1)(k+2)),
    then put over the lcm W of the reduced denominators."""
    w = [[Fraction(1)]]
    for k in range(order):
        nxt = [Fraction(0)] * (k + 2)
        for m in range(k + 1):
            acc = 4 * w[k][m]
            for l in range(1, min(k - m, len(alpha)) + 1):
                acc += alpha[l - 1] * w[k - l][m]
            nxt[m + 1] = acc * (m + 1) * (m + 2) / (4 * (k + 1) * (k + 2))
        w.append(nxt)
    W = math.lcm(*(x.denominator for row in w for x in row))
    return [[x.numerator * (W // x.denominator) for x in row] for row in w], W


def ref_closed_form(terms, z, m, value_form=False):
    """The component formulas at a complex z on the components as built,
    a float staying a float: the m-th derivative as
    ``SeedFunction.derivative_at`` computed it before seeds were read
    exactly, or its ``value_at`` (m = 0) with ``value_form``. A zero power
    of (a - z) raises the seed's DomainError, worded here."""
    total = None
    for t in terms:
        if isinstance(t, PolyTerm):
            v = 0j
            if value_form:
                for c in reversed(t.coeffs):
                    v = v * z + c
            else:
                for j in range(len(t.coeffs) - 1, m - 1, -1):
                    v = v * z + t.coeffs[j] * math.perm(j, m)
        else:
            a = t.a.to_complex() if isinstance(t.a, QComplex) else t.a
            c = t.c.to_complex() if isinstance(t.c, QComplex) else complex(t.c)
            power = t.n if value_form else t.n + m
            try:
                if value_form:
                    v = c / (a - z) ** power
                else:
                    v = c * math.prod(range(t.n, t.n + m)) / (a - z) ** power
            except ZeroDivisionError:
                raise DomainError(
                    f"seed pole at a = {a!r}: (a - u)**{power} is zero at u = {z!r} "
                    f"(derivative order {m})"
                ) from None
        total = v if total is None else total + v
    return total


def decimal_twin(terms):
    """The components with every float replaced by its decimal Fraction."""

    def q(x):
        return Fraction(repr(x)) if isinstance(x, float) else x

    def qc(x):
        return QComplex(q(x.real), q(x.imag)) if isinstance(x, complex) else QComplex(q(x))

    out = []
    for t in terms:
        if isinstance(t, PolyTerm):
            out.append(PolyTerm(tuple(q(c) for c in t.coeffs)))
        else:
            c = qc(t.c)
            out.append(PoleTerm(qc(t.a), c.re if c.is_real() else c, t.n))
    return out


# -- strategies ---------------------------------------------------------------------

small_q = st.fractions(min_value=-2, max_value=2, max_denominator=16)
residue_q = small_q.filter(lambda c: c != 0)


@st.composite
def residues(draw):
    if draw(st.booleans()):
        return draw(residue_q)
    return QComplex(draw(residue_q), draw(residue_q))


@st.composite
def seeds(draw):
    """1-3 real poles or conjugate pairs, maybe a polynomial, maybe differentiated."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(residues())
        if draw(st.booleans()):
            terms.append(PoleTerm(QComplex(draw(small_q)), c, 1))
        else:
            a = QComplex(draw(small_q), draw(residue_q))
            c_bar = QComplex(c.re, -c.im) if isinstance(c, QComplex) else c
            terms += [PoleTerm(a, c, 1), PoleTerm(QComplex(a.re, -a.im), c_bar, 1)]
    if draw(st.booleans()):
        coeffs = draw(st.lists(small_q, min_size=1, max_size=7))
        terms.insert(draw(st.integers(0, len(terms))), PolyTerm(tuple(coeffs)))
    seed = SeedFunction(terms)
    for _ in range(draw(st.integers(0, 2))):
        seed = seed.differentiated()
    return seed


@st.composite
def real_seeds(draw):
    """Seeds real on the real axis: real poles with real residues, conjugate
    pairs with conjugate residues, maybe a polynomial, maybe differentiated."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            terms.append(PoleTerm(QComplex(draw(small_q)), draw(residue_q), 1))
        else:
            a = QComplex(draw(small_q), draw(residue_q))
            c = draw(residues())
            c_bar = QComplex(c.re, -c.im) if isinstance(c, QComplex) else c
            terms += [PoleTerm(a, c, 1), PoleTerm(QComplex(a.re, -a.im), c_bar, 1)]
    if draw(st.booleans()):
        coeffs = draw(st.lists(small_q, min_size=1, max_size=9))
        terms.insert(draw(st.integers(0, len(terms))), PolyTerm(tuple(coeffs)))
    seed = SeedFunction(terms)
    for _ in range(draw(st.integers(0, 2))):
        seed = seed.differentiated()
    return seed


# rational base points with large denominators
big_den_q = st.fractions(min_value=-1, max_value=1, max_denominator=10**9)

# denominators up to 128 * 40, like bidisc samples about a rational center
points = st.builds(
    QComplex,
    st.fractions(min_value=-1, max_value=1, max_denominator=128 * 40),
    st.fractions(min_value=-1, max_value=1, max_denominator=128 * 40),
)


# -- exact path ---------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(seeds(), points, st.integers(20, 120))
def test_exact_magnitudes_match_closed_form(seed, u, K):
    assume(seed.min_pole_distance2(u) != 0)
    got = exact_magnitudes2(seed, u, K)
    assert all(type(m) is Fraction for m in got)
    assert got == ref_magnitudes2(seed, u, K)


@pytest.mark.parametrize(
    "cfg",
    [
        [{"pole": {"a": 1, "c": 1}}],
        [{"poly": [0, 1, 0, Fraction(1, 3)]}],
        [{"poly": [1, 2]}, {"pole": {"a": [Fraction(-209, 272), Fraction(45, 34)], "c": [1, 2]}},
         {"pole": {"a": [Fraction(-209, 272), Fraction(-45, 34)], "c": [1, -2]}}],
    ],
)
@pytest.mark.parametrize("u", [0, Fraction(3, 7), QComplex(Fraction(1, 5), Fraction(-2, 9))])
def test_exact_magnitudes_fixed_cases(cfg, u):
    seed = SeedFunction.from_config(cfg)
    for s in (seed, seed.differentiated().differentiated().differentiated()):
        assert exact_magnitudes2(s, u, 60) == ref_magnitudes2(s, u, 60)


def test_ratio_points_match_fraction_quotient():
    seed = SeedFunction.from_config([{"pole": {"a": [1, 1], "c": Fraction(2, 3)}}])
    u = QComplex(Fraction(1, 7), Fraction(-1, 11))
    mags2 = exact_magnitudes2(seed, u, 80)
    h2 = Fraction(3, 17) ** 2
    for got, (n, r) in zip(ratio_points(mags2, h2), enumerate(mags2[1:], 1)):
        assert got == (n, math.sqrt(float(r / mags2[n - 1] * h2)))
    for got, (n, r) in zip(ratio_points(mags2), enumerate(mags2[1:], 1)):
        assert got == (n, math.sqrt(float(r / mags2[n - 1])))


# -- ratios from the integer run ----------------------------------------------------

# a polynomial-only seed: g_n(u) vanishes for n > 4, and g_3 also at u = 0
POLY_ONLY = SeedFunction.from_config([{"poly": [1, 2, 0, 3, 0, 0, 5]}])


def integer_run(seed, u, K):
    """(squared terms, step) of the ``_exact_terms`` run from k = 0."""
    terms, den0, L2 = _exact_terms(seed, parse_point(u), K)
    assert all(type(x) is int and type(y) is int for x, y in terms)
    assert type(den0) is int and type(L2) is int
    return [x * x + y * y for x, y in terms], L2 * L2


def check_integer_run_ratios(seed, u, K, h2_values):
    ks = korobeinik_series(seed, u, K)
    mags, step = integer_run(seed, u, K)
    fractions = exact_magnitudes2(seed, u, K)
    for h2 in h2_values:
        assert ratio_points(mags, h2, step) == ratio_points(fractions, h2)


@settings(max_examples=12, deadline=None)
@given(seeds(), points, st.integers(20, 120), small_q.filter(lambda h: h != 0))
def test_integer_run_ratios_match_fraction_ratios(seed, u, K, h):
    assume(seed.min_pole_distance2(u) != 0)
    check_integer_run_ratios(seed, u, K, [None, h * h, float(h) ** 2])


@pytest.mark.parametrize("u", [0, Fraction(3, 7), QComplex(Fraction(1, 5), Fraction(-2, 9))])
def test_integer_run_ratios_skip_vanishing_terms(u):
    mags, _ = integer_run(POLY_ONLY, u, 30)
    assert mags[4:] == [0] * 26 and (mags[2] == 0) == (u == 0)
    check_integer_run_ratios(POLY_ONLY, u, 30, [None, Fraction(9, 16), 0.5625])


@settings(max_examples=10, deadline=None)
@given(
    seeds(),
    points,
    st.integers(20, 80),
    st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=16),
)
def test_confirm_divergence_matches_fraction_loop(seed, u, K, factor):
    d2 = seed.min_pole_distance2(u)
    assume(d2 != 0)
    h_abs = d2 / 4 * factor  # around the pointwise radius d(u)**2 / 4
    for h in (h_abs, float(h_abs)):
        assert confirm_divergence(seed, u, h, K) == ref_confirm_divergence(seed, u, h, K)


def test_float_h_reads_as_its_decimal():
    seed = SeedFunction.from_config([{"pole": {"a": 1, "c": 1}}])
    got = confirm_divergence(seed, 0, 0.3, 120)
    assert got == confirm_divergence(seed, 0, Fraction(3, 10), 120)
    assert got[1][-1] == 1.185
    mags2 = exact_magnitudes2(seed, 0, 20)
    assert ratio_points(mags2, 0.09) == ratio_points(mags2, Fraction(9, 100))


@pytest.mark.parametrize(
    "seed, u, h_abs, K, confirmed",
    [
        (SeedFunction.from_config([{"pole": {"a": 1, "c": 1}}]), 0, Fraction(3, 10), 120, True),
        (SeedFunction.from_config([{"pole": {"a": 1, "c": 1}}]), 0, Fraction(1, 5), 60, False),
        (POLY_ONLY, QComplex(Fraction(1, 3)), 2, 40, False),
    ],
)
def test_confirm_divergence_fixed_cases(seed, u, h_abs, K, confirmed):
    got = confirm_divergence(seed, u, h_abs, K)
    assert got == ref_confirm_divergence(seed, u, h_abs, K)
    assert got[0] is confirmed


# -- float inputs -------------------------------------------------------------------


def test_float_path_keeps_closed_form_bits():
    """The magnitudes read a float point or a float-built seed as its exact
    decimal twin; at a complex point the series coefficients stay the float
    closed forms."""
    exact = SeedFunction.from_config(
        [{"poly": [1, Fraction(1, 3)]}, {"pole": {"a": [2, 1], "c": [1, -1]}}]
    )
    floats = SeedFunction((PoleTerm(complex(1.5, 0.25), 0.75, 1), PolyTerm((1.0, 2.0))))
    twin = SeedFunction(
        (PoleTerm(QComplex(Fraction(3, 2), Fraction(1, 4)), Fraction(3, 4), 1), PolyTerm((1, 2)))
    )
    cases = [
        (exact, complex(0.1, -0.2), exact, QComplex(Fraction(1, 10), Fraction(-1, 5))),
        (floats, QComplex(Fraction(1, 8)), twin, QComplex(Fraction(1, 8))),
        (floats, 0.3 + 0.1j, twin, QComplex(Fraction(3, 10), Fraction(1, 10))),
    ]
    for seed, u, seed_q, u_q in cases:
        ks = korobeinik_series(seed, u, 40)
        got = exact_magnitudes2(seed, u, 40)
        assert all(type(m) is Fraction for m in got)
        assert got == ref_magnitudes2(seed_q, u_q, 40)
        z = u_q.to_complex()
        assert repr(ks.coefficient(1, z)) == repr(ref_closed_form(seed_q.terms, z, 0, True))
        for k in (1, 2, 19):
            want = ref_closed_form(seed_q.terms, z, 2 * k) / (
                math.factorial(k) * math.factorial(k + 1)
            )
            assert repr(ks.coefficient(k + 1, z)) == repr(want)


# the golden three-pole seed: a conjugate pair and a real pole
THREE_POLE = SeedFunction.from_config(
    [
        {"pole": {"a": [Fraction(-209, 272), Fraction(45, 34)], "c": Fraction(15, 8)}},
        {"pole": {"a": [Fraction(-209, 272), Fraction(-45, 34)], "c": Fraction(15, 8)}},
        {"pole": {"a": Fraction(31, 16), "c": Fraction(-1, 8)}},
    ]
)


@pytest.mark.parametrize("u", [0.125 + 0j, complex(-0.4375, 0.0625), complex(0.3, -0.2)])
def test_radius_probe_at_a_complex_point_is_its_decimal_twin(u):
    # the float closed form overflowed here before K = 200
    twin = QComplex(Fraction(repr(u.real)), Fraction(repr(u.imag)))
    got = radius_probe(THREE_POLE, u, 200)
    # the report keeps the ratios its estimate reads: the last RATIO_TAIL,
    # bit for bit those of the whole run at the same indices n
    pts = ratio_points(exact_magnitudes2(THREE_POLE, twin, 200))
    assert [n for n, _ in pts[-RATIO_TAIL:]] == list(range(200 - RATIO_TAIL, 200))
    assert got.ratios == tuple(r for _, r in pts[-RATIO_TAIL:])
    assert repr(got) == repr(radius_probe(THREE_POLE, twin, 200))


# a float-built seed real on the real axis, and its decimal twin
FLOAT_TERMS = (
    PoleTerm(complex(-0.75, 1.25), 1.875, 1),
    PoleTerm(complex(-0.75, -1.25), 1.875, 1),
    PoleTerm(1.9375, -0.125, 1),
    PolyTerm((0.5, -0.1)),
)


def test_float_built_seed_reports_are_its_decimal_twins():
    seed = SeedFunction(FLOAT_TERMS)
    twin = SeedFunction(decimal_twin(FLOAT_TERMS))
    assert twin.terms[3] == PolyTerm((Fraction(1, 2), Fraction(-1, 10)))
    assert seed.terms == twin.terms
    u_star, u_star_q = -0.0625, Fraction(-1, 16)
    pairs = [
        (
            radius_probe(seed, complex(0.0625, 0.125), 60),
            radius_probe(twin, [Fraction(1, 16), Fraction(1, 8)], 60),
        ),
        (
            bidisc_check(seed, u_star, 0.85, 0.180625, samples=8),
            bidisc_check(twin, u_star_q, Fraction(17, 20), Fraction(289, 1600), samples=8),
        ),
        (
            confirm_divergence(seed, complex(0.0625, 0.125), Fraction(1, 2), 60),
            confirm_divergence(twin, QComplex(Fraction(1, 16), Fraction(1, 8)), Fraction(1, 2), 60),
        ),
        (
            variable_alpha_probe(seed, (0.625, -0.75), 8, [-0.4375, 0.0625 + 0.125j]),
            variable_alpha_probe(
                twin,
                (Fraction(5, 8), Fraction(-3, 4)),
                8,
                [Fraction(-7, 16), [Fraction(1, 16), Fraction(1, 8)]],
            ),
        ),
        (bridge_check(seed, u_star, 6), bridge_check(twin, u_star_q, 6)),
    ]
    for got, want in pairs:
        assert repr(got) == repr(want)
    bidisc = pairs[1][0]
    assert not bidisc.analytic and bidisc.witness.confirmed
    assert pairs[4][0].ok
    # |u - u*| + 2 sqrt(|h|) = R0 exactly: on the boundary, so not inside,
    # though the float sum 0.7 + 0.1 falls below 0.8
    assert abs(0.7) + 2.0 * math.sqrt(0.0025) < 0.8
    assert in_union_domain(0.0025, 0.7, 0, 0.8) is False
    assert in_union_domain(Fraction(1, 400), Fraction(7, 10), 0, Fraction(4, 5)) is False
    assert in_union_domain(0.0025, 0.7, 0, 0.8000001) is True


def test_diagnostics_at_complex_points_never_take_the_closed_form(monkeypatch):
    def closed_form(self, n, u):
        raise AssertionError("closed-form coefficient called")

    monkeypatch.setattr(KorobeinikSeries, "coefficient", closed_form)
    seed = SeedFunction(FLOAT_TERMS)
    u = complex(0.0625, 0.125)
    assert radius_probe(seed, u, 40).verdict in ("converges", "inconclusive")
    assert radius_probe(THREE_POLE, 0.125 + 0j, 200).ratios
    rep = bidisc_check(seed, complex(-0.0625, 0.0), 0.85, 0.180625, samples=8)
    assert rep.witness is not None and len(rep.samples) == 8
    assert bidisc_check(THREE_POLE, 0.0625j, 0.5, 0.0625, samples=4).analytic
    confirm_divergence(seed, u, Fraction(1, 2), 60)
    exact_magnitudes2(seed, u, 40)
    assert len(variable_alpha_probe(seed, (0.625,), 6, [u, 0.25 - 0.125j])) == 2
    assert in_union_domain(0.01 + 0.01j, u, 0j, 1.0)


finite = st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False).filter(
    lambda x: math.copysign(1.0, x) > 0 or x != 0  # -0.0 reads as +0
)
residue_f = finite.filter(lambda x: abs(x) > 1e-3)


@st.composite
def float_components(draw):
    """1-3 poles with |a| >= 1 (floats or complex), maybe a float polynomial."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        a = complex(draw(finite), draw(finite)) if draw(st.booleans()) else draw(finite)
        assume(abs(a) >= 1)
        c = complex(draw(residue_f), draw(finite)) if draw(st.booleans()) else draw(residue_f)
        terms.append(PoleTerm(a, c, draw(st.integers(1, 2))))
    if draw(st.booleans()):
        terms.append(PolyTerm(tuple(draw(st.lists(finite, min_size=1, max_size=6)))))
    return tuple(terms)


@settings(max_examples=30, deadline=None)
@given(float_components(), st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False))
def test_float_built_seed_keeps_the_closed_form_bits(terms, z):
    """Bits at complex points, against the closed forms on the components as
    built. A float-built seed holds its decimal twin, and every result has
    the bits the twin had. Where the raw floats took another rounding, the
    closed form on the floats still agrees: in the value, and in every pole
    derivative. A polynomial derivative is the one place it may not: its
    coefficient c_j perm(j, m) is now the exact product rounded once, where
    the float product was rounded from the binary c_j. The seed calls and
    the evaluator are one code path, so both are read against the closed
    forms kept in this file."""
    seed = SeedFunction(terms)
    twin = decimal_twin(terms)
    has_poly = any(isinstance(t, PolyTerm) for t in terms)
    for m in range(9):
        got = repr(seed.derivative_at(z, m))
        assert got == repr(ref_closed_form(twin, z, m, value_form=m == 0))
        assert repr(_complex_evaluator(seed, m)(z)) == got
        if not has_poly:
            assert got == repr(ref_closed_form(terms, z, m, value_form=m == 0))
    value = repr(seed.value_at(z))
    assert value == repr(ref_closed_form(terms, z, 0, value_form=True))
    assert value == repr(ref_closed_form(twin, z, 0, value_form=True))
    r, r0, eps = Fraction(7, 8), Fraction(1, 4), Fraction(1, 8)
    got = cauchy_bound_check(seed, r, r0, eps, 6)
    assert got == ref_cauchy(
        seed, r, r0, eps, 6, lambda w, m: ref_closed_form(twin, w, m, value_form=m == 0)
    )
    if not has_poly:
        assert got == ref_cauchy(
            seed, r, r0, eps, 6, lambda w, m: ref_closed_form(terms, w, m, value_form=m == 0)
        )


# -- the run from a late start ------------------------------------------------------


@st.composite
def higher_poles(draw):
    """1-3 poles of order 1-3: real poles, or conjugate pairs with conjugate
    residues."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c, m = draw(residues()), draw(st.integers(1, 3))
        if draw(st.booleans()):
            terms.append(PoleTerm(QComplex(draw(small_q)), c, m))
        else:
            a = QComplex(draw(small_q), draw(residue_q))
            c_bar = QComplex(c.re, -c.im) if isinstance(c, QComplex) else c
            terms += [PoleTerm(a, c, m), PoleTerm(QComplex(a.re, -a.im), c_bar, m)]
    return terms


@st.composite
def window_cases(draw):
    """(seed, u, K): ``higher_poles``, maybe a polynomial whose rows g_{k+1}
    reach k >= K - RATIO_TAIL - 1, the window (K <= 80, so its degree
    2K + 1 <= 161, and u has a small denominator)."""
    with_poly = draw(st.booleans())
    K = draw(st.integers(20, 80 if with_poly else 200))
    terms = draw(higher_poles())
    if with_poly:
        # degree 2k reaches row k; a few nonzero coefficients, the top one set
        degree = draw(st.integers(2 * (K - RATIO_TAIL - 1), 2 * K + 1))
        coeffs = [Fraction(0)] * degree + [draw(residue_q)]
        for j in draw(st.lists(st.integers(0, degree - 1), max_size=4)):
            coeffs[j] = draw(small_q)
        terms.append(PolyTerm(tuple(coeffs)))
    u = draw(points if with_poly else st.one_of(big_den_q.map(QComplex), points))
    return SeedFunction(terms), u, K


@settings(max_examples=8, deadline=None)
@given(window_cases())
def test_late_start_is_the_tail_of_the_full_run(case):
    seed, u, K = case
    assume(seed.min_pole_distance2(u) != 0)
    full, den0, L2 = _exact_terms(seed, u, K)
    # every start; the starts before the window run two terms (the run of
    # K' = start + 2 terms is a prefix of the run of K), the later ones to K
    for start in range(K + 1):
        stop = K if start >= K - RATIO_TAIL - 1 else start + 2
        assert _exact_terms(seed, u, stop, start) == (full[start:stop], den0, L2)


def check_window_verdicts(seed, u, K, h_values):
    """Radius probe, sample verdicts and witness run against the closed-form
    magnitudes of the whole run."""
    assert repr(radius_probe(seed, u, K)) == repr(ref_radius_probe(seed, u, K))
    mags2 = ref_magnitudes2(seed, u, K)
    for h in h_values:
        assert observe_point(seed, u, h, K) == ref_observe_point(seed, u, h, K)
        got = confirm_divergence(seed, u, h, K)
        assert got == ref_confirm_divergence(seed, u, h, K, mags2)


@settings(max_examples=10, deadline=None)
@given(
    seeds(),
    points,
    st.integers(20, 80),
    st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=16),
        min_size=1,
        max_size=3,
    ),
)
def test_window_verdicts_match_the_full_closed_form_run(seed, u, K, factors):
    d2 = seed.min_pole_distance2(u)
    assume(d2 != 0)
    # |h| around the pointwise radius d(u)**2 / 4, or any |h| for an entire seed
    check_window_verdicts(seed, u, K, [(d2 or 1) / 4 * f for f in factors])


CATALAN = SeedFunction.from_config([{"pole": {"a": 1, "c": 1}}])


def ref_bidisc_check(seed, *args, **kwargs):
    """bidisc_check with its sample verdicts and witness run taken from the
    closed-form magnitudes of the whole run."""

    def ref_confirm(s, u, h_abs, K):
        return ref_confirm_divergence(s, u, h_abs, K, ref_magnitudes2(s, u, K))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(korobeinik, "_observe_point", ref_observe_point)
        mp.setattr(korobeinik, "confirm_divergence", ref_confirm)
        return bidisc_check(seed, *args, **kwargs)


@pytest.mark.parametrize(
    "seed, u_star, R, R1",
    [
        (CATALAN, 0, Fraction(9, 10), Fraction(1, 4)),
        (THREE_POLE, Fraction(-1, 16), Fraction(17, 20), Fraction(289, 1600)),
        (POLY_ONLY, 0, Fraction(1, 2), Fraction(1, 8)),
    ],
)
def test_bidisc_samples_and_witness_match_the_full_closed_form_run(seed, u_star, R, R1):
    got = bidisc_check(seed, u_star, R, R1, samples=12, probe_terms=30)
    assert got == ref_bidisc_check(seed, u_star, R, R1, samples=12, probe_terms=30)
    assert got.witness is None or got.witness.confirmed


# window seeds where some term in the window is zero, so the run falls back to k = 0
U_FALLBACK = QComplex(Fraction(1, 3))
FALLBACK_SEEDS = {
    # a = u + 1 +- i, m = 2: w**2 = -+i/2, so g_{k+1}(u) = 0 for every even k
    "double pair at 45 degrees": SeedFunction(
        [PoleTerm(QComplex(Fraction(4, 3), 1), Fraction(1), 2),
         PoleTerm(QComplex(Fraction(4, 3), -1), Fraction(1), 2)]
    ),
    # poles at u +- 1 with equal residues: g1 is odd about u, every term cancels
    "symmetric equal residues": SeedFunction(
        [PoleTerm(QComplex(Fraction(4, 3)), Fraction(3, 2), 1),
         PoleTerm(QComplex(Fraction(-2, 3)), Fraction(3, 2), 1)]
    ),
    "polynomial": POLY_ONLY,
}


@pytest.mark.parametrize("name", sorted(FALLBACK_SEEDS))
@pytest.mark.parametrize("K", [20, 41])
def test_windows_with_zero_terms_fall_back_to_the_full_run(name, K, monkeypatch):
    seed = FALLBACK_SEEDS[name]
    window, _, _ = _exact_terms(seed, U_FALLBACK, K, K - RATIO_TAIL - 1)
    assert any(not (x or y) for x, y in window)
    mags2 = ref_magnitudes2(seed, U_FALLBACK, K)
    if name == "double pair at 45 degrees":
        assert all((m == 0) == (k % 2 == 0) for k, m in enumerate(mags2))
    elif name == "symmetric equal residues":
        assert not any(mags2)
    starts = []
    inner = korobeinik._exact_terms

    def spy(seed, u, K, start=0):
        starts.append(start)
        return inner(seed, u, K, start)

    monkeypatch.setattr(korobeinik, "_exact_terms", spy)
    check_window_verdicts(seed, U_FALLBACK, K, [Fraction(1, 8), Fraction(2), Fraction(50)])
    # each of the 7 runs (a probe, 3 samples, 3 witness runs) tried the
    # window first and then ran from k = 0
    assert starts == [K - RATIO_TAIL - 1, 0] * 7


def test_pole_seeds_read_only_the_window(monkeypatch):
    starts = []
    inner = korobeinik._exact_terms

    def spy(seed, u, K, start=0):
        starts.append((K, start))
        return inner(seed, u, K, start)

    monkeypatch.setattr(korobeinik, "_exact_terms", spy)
    rep = bidisc_check(
        THREE_POLE, Fraction(-1, 16), Fraction(17, 20), Fraction(289, 1600), samples=6
    )
    radius_probe(THREE_POLE, Fraction(1, 16), 60)
    K_w = rep.witness.terms
    # the six samples are decided in floats (``_float_median``) and run no
    # exact terms; the witness and the probe run only their windows
    assert starts == [(K_w, K_w - RATIO_TAIL - 1), (60, 49)]


# -- cauchy and bridge --------------------------------------------------------------


def test_cauchy_report_unchanged_for_poly_and_complex_poles():
    seed = SeedFunction.from_config(
        [
            {"poly": [1, Fraction(-1, 2), Fraction(1, 3)]},
            {"pole": {"a": [Fraction(3, 2), 2], "c": [1, Fraction(1, 4)]}},
            {"pole": {"a": [Fraction(3, 2), -2], "c": [1, Fraction(-1, 4)]}},
            {"pole": {"a": Fraction(-5, 2), "c": Fraction(7, 8)}},
        ]
    )
    got = cauchy_bound_check(seed, 2, 1, Fraction(1, 4), 20)
    assert got == ref_cauchy(seed, 2, 1, Fraction(1, 4), 20)
    assert got.passed


complex_points = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)


def _outcome(f):
    """repr of the value, or the text of the DomainError raised when a
    power of (a - z) underflows to zero next to a pole."""
    try:
        return repr(f())
    except DomainError as exc:
        return f"DomainError: {exc}"


def check_evaluator(seed, z):
    """The evaluator and the seed calls that run it, against the closed forms."""
    for m in range(21):
        want = _outcome(lambda: ref_closed_form(seed.terms, z, m, value_form=m == 0))
        assert _outcome(lambda: _complex_evaluator(seed, m)(z)) == want
        assert _outcome(lambda: seed.derivative_at(z, m) if m else seed.value_at(z)) == want


@settings(max_examples=40, deadline=None)
@given(seeds(), complex_points)
def test_hoisted_evaluator_matches_seed_calls(seed, z):
    assume(all(a.to_complex() != z for a in seed.poles()))
    check_evaluator(seed, z)


@pytest.mark.parametrize(
    "z", [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.5 - 0.25j]
)
def test_hoisted_evaluator_signed_zeros(z):
    pair = SeedFunction.from_config(
        [
            {"poly": [0, Fraction(-1, 2), 0, 3]},
            {"pole": {"a": [Fraction(3, 2), 2], "c": [1, Fraction(1, 4)]}},
            {"pole": {"a": [Fraction(3, 2), -2], "c": [1, Fraction(-1, 4)]}},
            {"pole": {"a": Fraction(-5, 2), "c": Fraction(-7, 8)}},
        ]
    )
    inexact = SeedFunction((PolyTerm((1.0, -0.0, 2.0)), PoleTerm(complex(1.5, -0.25), -0.75, 2)))
    for seed in (pair, pair.differentiated().differentiated(), inexact, POLY_ONLY):
        check_evaluator(seed, z)


@pytest.mark.parametrize("m", [4, 5, 9])
def test_underflowing_pole_power_is_a_domain_error(m):
    # (0 - 2.3e-66)**(1 + m) underflows to zero for m >= 4
    seed = SeedFunction.from_config([{"poly": [1, 2]}, {"pole": {"a": 0, "c": 1}}])
    z = complex(2.3e-66, 0.0)
    with pytest.raises(DomainError, match=rf"pole at a = 0j.*\*\*{1 + m} is zero.*order {m}\)"):
        seed.derivative_at(z, m)
    check_evaluator(seed, z)
    assert _outcome(lambda: _complex_evaluator(seed, m)(z)).startswith("DomainError")


@pytest.mark.parametrize(
    "cfg, u_star, order",
    [
        ([{"pole": {"a": 1, "c": 1}}], 0, 6),
        ([{"poly": [1, 2, 0, 5]}, {"pole": {"a": [2, 1], "c": [1, 2]}},
          {"pole": {"a": [2, -1], "c": [1, -2]}}], Fraction(1, 3), 5),
    ],
)
def test_bridge_evaluates_each_derivative_once(cfg, u_star, order, monkeypatch):
    seed = SeedFunction.from_config(cfg)
    want = ref_bridge(seed, u_star, order)
    calls = []
    inner = SeedFunction.derivative_at

    def counted(self, u, m):
        calls.append(m)
        return inner(self, u, m)

    monkeypatch.setattr(SeedFunction, "derivative_at", counted)
    assert bridge_check(seed, u_star, order) == want
    # the boundary row and the targets both read one exact Taylor run
    assert calls == []


# -- Taylor run, boundary row and alpha probe ---------------------------------------


def check_taylor_run(seed, u, count):
    """The run times j! is the run of derivatives g1^(j)(u): checked against
    the closed forms (``ref_exact_derivative``), ``derivative_at`` and the
    differentiated() chain up to j < count, and from every start with
    strides 1 and 2 against the run from j = 0."""
    run, den0, L = pde._taylor_run(seed, u, 0, count)
    assert all(type(x) is int and type(y) is int for x, y in run)
    g = seed
    for j, (x, y) in enumerate(run):
        got = QComplex(Fraction(x, den0 * L**j), Fraction(y, den0 * L**j)) * math.factorial(j)
        assert got == ref_exact_derivative(seed.terms, u, j)
        assert got == seed.derivative_at(u, j)
        assert got == g.value_at(u)
        g = g.differentiated()
    for stride in (1, 2):
        for start in range(count + 1):
            assert pde._taylor_run(seed, u, start, count, stride) == (
                run[start:count:stride], den0, L
            )


@st.composite
def taylor_cases(draw):
    """(seed, u, count): ``higher_poles``, maybe a polynomial of degree up to
    120 that the run passes through, at a rational or complex u."""
    terms = draw(higher_poles())
    degree = draw(st.integers(-1, 120))  # -1: no polynomial
    if degree >= 0:
        coeffs = [Fraction(0)] * degree + [draw(residue_q)]
        for j in draw(st.lists(st.integers(0, degree), max_size=5)):
            coeffs[j] = draw(small_q)
        terms.insert(draw(st.integers(0, len(terms))), PolyTerm(tuple(coeffs)))
    count = draw(st.integers(1, max(40, degree + 3)))
    u = draw(st.one_of(big_den_q.map(QComplex), points))
    return SeedFunction(terms), u, count


@settings(max_examples=25, deadline=None)
@given(taylor_cases())
def test_derivative_run_matches_derivative_at_and_chain(case):
    seed, u, count = case
    assume(seed.min_pole_distance2(u) != 0)
    check_taylor_run(seed, u, count)


@pytest.mark.parametrize(
    "cfg, u",
    [
        ([{"pole": {"a": 1, "c": 1}}], 0),
        ([{"poly": [0, 1, 0, Fraction(1, 3)]}], Fraction(3, 7)),
        ([{"poly": [1, 2]}, {"pole": {"a": [Fraction(-209, 272), Fraction(45, 34)], "c": [1, 2]}},
          {"pole": {"a": [Fraction(-209, 272), Fraction(-45, 34)], "c": [1, -2]}}],
         Fraction(-1, 16)),
        ([{"poly": [1, 2]}, {"poly": [0, Fraction(1, 3), 0, 5]}, {"pole": {"a": 2, "c": 1}}],
         QComplex(Fraction(1, 5), Fraction(-2, 9))),
    ],
)
def test_derivative_run_fixed_cases(cfg, u):
    seed = SeedFunction.from_config(cfg)
    for s in (seed, seed.differentiated().differentiated().differentiated()):
        check_taylor_run(s, parse_point(u), 33)


@st.composite
def exact_points(draw, seed):
    """An exact point for the seed: an int, a Fraction, a complex rational,
    or one of its poles (as a Fraction when real, else a QComplex)."""
    kind = draw(st.sampled_from(["int", "fraction", "complex"] + ["pole"] * bool(seed.poles())))
    if kind == "int":
        return draw(st.integers(-3, 3))
    if kind == "fraction":
        return draw(st.one_of(small_q, big_den_q))
    if kind == "complex":
        return draw(points)
    a = draw(st.sampled_from(seed.poles()))
    return a.re if a.is_real() else a


@settings(max_examples=60, deadline=None)
@given(st.data(), st.one_of(seeds(), real_seeds()), st.integers(0, 12))
def test_exact_values_match_the_closed_forms(data, seed, m):
    """derivative_at, value_at and coefficient at exact points against the
    closed component formulas kept here, value or DomainError text."""
    u = data.draw(exact_points(seed))
    uq = parse_point(u)
    want = _outcome(lambda: ref_exact_derivative(seed.terms, uq, m))
    assert _outcome(lambda: seed.derivative_at(u, m)) == want
    if m == 0:
        assert _outcome(lambda: seed.value_at(u)) == want
    ks = KorobeinikSeries(seed, m + 1)
    assert _outcome(lambda: ks.coefficient(m + 1, u)) == _outcome(
        lambda: ref_coefficient(seed, m + 1, uq)
    )


def test_exact_values_read_one_taylor_run(monkeypatch):
    """An exact derivative or coefficient is the one term of one
    ``_taylor_run``, started at its order."""
    runs = []
    inner = pde._taylor_run

    def spy(seed, u, start, stop, stride=1):
        runs.append((start, stop, stride))
        return inner(seed, u, start, stop, stride)

    monkeypatch.setattr(pde, "_taylor_run", spy)
    seed = SeedFunction.from_config(
        [{"poly": list(range(1, 98))}, {"pole": {"a": [2, 1], "c": [1, -1]}}]
    )
    u = QComplex(Fraction(1, 3), Fraction(1, 7))
    assert seed.derivative_at(u, 7) == ref_exact_derivative(seed.terms, u, 7)
    assert seed.value_at(Fraction(1, 3)) == ref_exact_derivative(seed.terms, QComplex(Fraction(1, 3)), 0)
    assert KorobeinikSeries(seed, 9).coefficient(9, 2) == ref_coefficient(seed, 9, QComplex(2))
    assert runs == [(7, 8, 1), (0, 1, 1), (16, 17, 1)]


@settings(max_examples=25, deadline=None)
@given(st.one_of(seeds(), real_seeds()), big_den_q, st.integers(1, 10))
def test_seed_b0_matches_one_derivative_per_order(seed, u_star, order):
    assume(seed.min_pole_distance2(QComplex(u_star)) != 0)
    taylor = pde._seed_taylor(seed, u_star, 2 * order + 1)
    got = None if taylor is None else pde._b0_row(taylor)
    want = ref_seed_b0(seed, u_star, order)
    assert (got is None) == (want is None)
    assert got == want


def test_seed_b0_refuses_a_pole_at_u_star():
    seed = SeedFunction.from_config([{"pole": {"a": Fraction(1, 3), "c": 1}}])
    with pytest.raises(DomainError, match="u_star sits exactly on a pole"):
        pde._seed_taylor(seed, Fraction(1, 3), 9)


alphas = st.lists(
    st.fractions(min_value=-1, max_value=1, max_denominator=8), min_size=1, max_size=3
).filter(any)
probe_points = st.one_of(
    st.fractions(min_value=Fraction(-3, 4), max_value=Fraction(3, 4), max_denominator=64),
    st.builds(
        lambda re, im: [re, im],
        st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=64),
        st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=64),
    ),
    st.complex_numbers(max_magnitude=0.75, allow_nan=False, allow_infinity=False),
)


def check_alpha_probe(seed, alpha, order, us):
    """The probe's rows at each u, squared, against ``ref_alpha_mags2`` as
    exact Fractions, and its reports against the ones those rows give."""
    got = variable_alpha_probe(seed, alpha, order, us)
    weights = korobeinik._alpha_weights([parse_exact(a) for a in alpha], order)
    want = []
    for u in us:
        u = parse_point(u)
        rows, den, L2 = korobeinik._alpha_rows(seed, u, weights)
        mags2 = ref_alpha_mags2(seed, alpha, order, u)
        assert [
            Fraction(x * x + y * y, (den * L2**k) ** 2) for k, (x, y) in enumerate(rows)
        ] == mags2
        want.append(ref_report(seed, u, ratio_points(mags2)))
    assert repr(got) == repr(want)  # ratios, estimates and verdicts, nan included


@settings(max_examples=15, deadline=None)
@given(
    st.one_of(seeds(), real_seeds()),
    alphas,
    st.integers(4, 10),
    st.lists(probe_points, min_size=1, max_size=3),
)
def test_alpha_probe_matches_the_potential_about_u(seed, alpha, order, us):
    assume(all(seed.min_pole_distance2(parse_point(u)) != 0 for u in us))
    check_alpha_probe(seed, alpha, order, us)


ALPHA_SEEDS = (
    THREE_POLE,
    SeedFunction.from_config([{"pole": {"a": 1, "c": 1}}]),
    # odd: every row vanishes at u = 0, which leaves that probe no ratios
    SeedFunction.from_config([{"pole": {"a": 1, "c": 1}}, {"pole": {"a": -1, "c": 1}}]),
    POLY_ONLY,
    # not real on the real axis
    SeedFunction.from_config(
        [{"poly": [1, 2]}, {"pole": {"a": [Fraction(3, 4), 1], "c": [1, Fraction(1, 2)]}}]
    ),
)
ALPHA_POINTS = [Fraction(-7, 16), Fraction(1, 16), 0, [Fraction(1, 8), Fraction(-1, 5)], 0.3 - 0.1j]


def test_alpha_probe_fixed_cases():
    check_alpha_probe(ALPHA_SEEDS[0], [Fraction(5, 8), Fraction(-3, 4)], 8, ALPHA_POINTS)
    check_alpha_probe(ALPHA_SEEDS[1], [Fraction(1, 2)], 16, ALPHA_POINTS)
    check_alpha_probe(ALPHA_SEEDS[2], [Fraction(1, 3), Fraction(-1, 5)], 10, ALPHA_POINTS)
    check_alpha_probe(ALPHA_SEEDS[3], [Fraction(-1, 3), 0, Fraction(1, 7)], 6, ALPHA_POINTS)
    check_alpha_probe(ALPHA_SEEDS[4], [Fraction(1, 4), Fraction(1, 2)], 12, ALPHA_POINTS)


@pytest.mark.parametrize("seed", ALPHA_SEEDS)
@pytest.mark.parametrize("alpha", [(), (0, 0)])
def test_alpha_probe_at_alpha_4_reads_the_seed_run(seed, alpha):
    # alpha == 4: B_k(2u) = g_{k+1}(u), so away from u* too the ratios are
    # those of the seed's exact run at u, and of the radius probe's window
    for order in (8, 16):
        for u, rep in zip(ALPHA_POINTS, variable_alpha_probe(seed, alpha, order, ALPHA_POINTS)):
            u = parse_point(u)
            terms, _, L2 = _exact_terms(seed, u, order + 1)
            pts = ratio_points([x * x + y * y for x, y in terms], step=L2 * L2)
            assert rep.ratios == tuple(r for _, r in pts[-RATIO_TAIL:])
            mags, first, step = korobeinik._tail_run(seed, u, order + 1, RATIO_TAIL + 1)
            tail = ratio_points(mags, step=step, first=first)[-RATIO_TAIL:]
            assert rep.ratios == tuple(r for _, r in tail)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=16), max_size=6),
    st.integers(0, 16),
)
def test_alpha_weights_match_the_fraction_recurrence(alpha, order):
    got = korobeinik._alpha_weights(alpha, order)
    assert got == ref_alpha_weights(alpha, order)
    w, W = got
    assert type(W) is int and all(type(x) is int for row in w for x in row)


@pytest.mark.parametrize(
    "alpha",
    [[], [0], [0, 0], [Fraction(1, 3)], [0, Fraction(-5, 7), 0], [Fraction(5, 8), Fraction(-3, 4)]],
)
@pytest.mark.parametrize("order", [0, 1, 2, 8, 16])
def test_alpha_weights_fixed_cases(alpha, order):
    alpha = [Fraction(a) for a in alpha]
    w, W = korobeinik._alpha_weights(alpha, order)
    assert (w, W) == ref_alpha_weights(alpha, order)
    if order == 0:
        assert (w, W) == ([[1]], 1)
    if not any(alpha):
        # alpha == 4: the identity
        assert W == 1 and w == [[int(m == k) for m in range(k + 1)] for k in range(order + 1)]


# -- integer pole offsets -----------------------------------------------------------

# the points of the exact and alpha-probe tests: rationals with large or
# sample-sized denominators, [re, im] pairs, and complex floats (read as
# their decimals)
offset_points = st.one_of(points, big_den_q.map(QComplex), probe_points)


@settings(max_examples=80, deadline=None)
@given(st.one_of(seeds(), real_seeds()), offset_points)
def test_pole_offsets_are_the_exact_differences(seed, u):
    D, offsets = seed._pole_offsets(u)
    uq = parse_point(u)
    poles = seed.poles()
    assert type(D) is int and D > 0 and len(offsets) == len(poles)
    for a, (x, y) in zip(poles, offsets):
        assert type(x) is int and type(y) is int
        z = a - uq
        assert (Fraction(x, D), Fraction(y, D)) == (z.re, z.im)
        assert Fraction(x * x + y * y, D * D) == z.abs2()
    want = [(a, (a - uq).abs2()) for a in poles]
    assert seed._pole_distances2(u) == want
    assert seed.min_pole_distance2(u) == min(d2 for _, d2 in want)


@st.composite
def seeds_and_points(draw):
    """A seed and a point: one of its poles, as given or as complex floats
    (on the pole only when their decimals are its parts), a point a hair
    off a pole, or any point of ``offset_points``."""
    seed = draw(st.one_of(seeds(), real_seeds()))
    a = draw(st.sampled_from(seed.poles()))
    kind = draw(st.sampled_from(["pole", "float pole", "near pole", "point"]))
    if kind == "pole":
        return seed, a
    if kind == "float pole":
        return seed, complex(float(a.re), float(a.im))
    if kind == "near pole":
        e = Fraction(draw(st.sampled_from([-1, 1])), draw(st.integers(2, 10**12)))
        return seed, QComplex(a.re + e, a.im) if draw(st.booleans()) else QComplex(a.re, a.im + e)
    return seed, draw(offset_points)


@settings(max_examples=100, deadline=None)
@given(seeds_and_points())
def test_assert_not_pole_refuses_exactly_the_poles(case):
    seed, u = case
    if any(a == parse_point(u) for a in seed.poles()):
        with pytest.raises(DomainError, match="sits exactly on a pole"):
            seed.assert_not_pole(u, "u")
        assert seed._on_pole(u) and seed.min_pole_distance2(u) == 0
    else:
        seed.assert_not_pole(u, "u")
        assert not seed._on_pole(u) and seed.min_pole_distance2(u) > 0


def test_pole_offsets_fixed_cases():
    # 0.5 reads as 1/2, a pole; 0.1 + 0.2j as 1/10 + i/5, the other one; the
    # float nearest 1/3 is no pole
    seed = SeedFunction.from_config(
        [{"pole": {"a": Fraction(1, 2), "c": 1}}, {"pole": {"a": [Fraction(1, 10), Fraction(1, 5)], "c": 1}},
         {"pole": {"a": Fraction(1, 3), "c": 1}}]
    )
    for u in (0.5, 0.1 + 0.2j, [Fraction(1, 3), 0]):
        with pytest.raises(DomainError):
            seed.assert_not_pole(u)
    seed.assert_not_pole(1 / 3)
    assert seed._pole_offsets(Fraction(1, 7)) == (210, [(105 - 30, 0), (21 - 30, 42), (70 - 30, 0)])
    # an entire seed reads no point
    assert POLY_ONLY._pole_offsets(None) == (1, [])
    assert POLY_ONLY.min_pole_distance2(0) is None and POLY_ONLY._pole_distances2(0) == []
    POLY_ONLY.assert_not_pole(0)


# -- float sample verdicts ----------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ("korobeinik_3pole", "korobeinik_catalan", "korobeinik_poly")


def korobeinik_blocks(perfbench_seeds):
    """The korobeinik sections of the shipped config, the three goldens and
    the generated configs of the benchmark's seeds, drawn as
    ``perfbench/workloads.py`` draws them."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    texts = [(ROOT / "configs" / "catalan.yaml").read_text()]
    texts += [(ROOT / "tests" / "golden" / g / "config.yaml").read_text() for g in GOLDENS]
    for s in perfbench_seeds:
        rng = random.Random(f"korobeinik:{s}")
        texts += [inputs.korobeinik_config(rng, k) for k in range(10)]
    return [yaml.safe_load(text)["korobeinik"] for text in texts]


def median_verdict(med):
    if med < 1.0 - HEURISTIC_MARGIN:
        return "converges"
    if med > 1.0 + HEURISTIC_MARGIN:
        return "diverges"
    return "inconclusive"


def exact_median(seed, u, h_abs, K):
    """The median of the last five exact ratios of the window run; None for
    terminating terms."""
    mags, first, step = korobeinik._tail_run(seed, u, K, 6)
    pts = ratio_points(mags, h_abs * h_abs, step, first)
    if first == 0 and len(pts) < RATIO_TAIL:
        return None
    return statistics.median(r for _, r in pts[-5:])


def ref_exact_observe_point(seed, u, h_abs, K):
    """The sample verdict from the exact ratios of the window run, as
    ``_observe_point`` read it before its terms were computed in floats."""
    med = exact_median(seed, u, h_abs, K)
    return "converges" if med is None else median_verdict(med)


def spy_float_median(monkeypatch):
    """A list that gains each value ``_float_median`` returns from now on:
    None where the exact ratios had to decide."""
    returned = []
    inner = korobeinik._float_median

    def spy(*args):
        returned.append(inner(*args))
        return returned[-1]

    monkeypatch.setattr(korobeinik, "_float_median", spy)
    return returned


def spy_exact_runs(monkeypatch):
    """A list that gains the arguments of each exact window run (``_tail_run``)."""
    calls = []
    inner = korobeinik._tail_run

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(korobeinik, "_tail_run", spy)
    return calls


@pytest.mark.parametrize("K", [20, 40, 80, 200])
def test_float_sample_verdicts_match_the_exact_ratios(K, monkeypatch):
    returned = spy_float_median(monkeypatch)
    inner = korobeinik._observe_point
    pairs = []

    def both(seed, u, h_abs, K, offsets):
        got = inner(seed, u, h_abs, K, offsets)
        med = exact_median(seed, u, h_abs, K)
        pairs.append((got, "converges" if med is None else median_verdict(med)))
        # far inside its proven bound, the float median is the exact one
        assert returned[-1] is None or abs(returned[-1] - med) <= 1e-12 * med
        return got

    monkeypatch.setattr(korobeinik, "_observe_point", both)
    reach = 0  # samples of seeds whose polynomial part reaches the window
    for k in korobeinik_blocks(perfbench_seeds=(1, 2, 3)):
        seed = SeedFunction.from_config(k["g1"])
        bd = k["bidisc"]
        samples = bd.get("samples", 24)
        bidisc_check(seed, k.get("u_star", 0), bd["R"], bd["R1"], samples, K)
        polys = [t for t in seed.terms if isinstance(t, PolyTerm)]
        reach += samples * any(len(t.coeffs) > 2 * (K - RATIO_TAIL - 1) for t in polys)
    assert len(pairs) > 200
    assert all(got == want for got, want in pairs)
    assert {got for got, _ in pairs} == {"converges", "diverges"}
    # the float path decided every sample but those whose polynomial part
    # reaches the window (the degree-40 golden at K = 20): none lay near a
    # margin or out of float range
    assert len(returned) == len(pairs)
    assert returned.count(None) == reach == (8 if K == 20 else 0)


@pytest.mark.parametrize("name", sorted(FALLBACK_SEEDS))
@pytest.mark.parametrize("K", [20, 41])
def test_float_verdicts_on_windows_with_zero_terms(name, K, monkeypatch):
    seed = FALLBACK_SEEDS[name]
    hs = (Fraction(1, 8), Fraction(2), Fraction(50))
    want = [ref_exact_observe_point(seed, U_FALLBACK, h_abs, K) for h_abs in hs]
    returned = spy_float_median(monkeypatch)
    exact_runs = spy_exact_runs(monkeypatch)
    assert [observe_point(seed, U_FALLBACK, h_abs, K) for h_abs in hs] == want
    # no window term is proven nonzero in floats, so each sample runs the
    # exact path once (which then falls back to k = 0)
    assert returned == [None] * 3 and len(exact_runs) == 3


@pytest.mark.parametrize("edge", [1.0 - HEURISTIC_MARGIN, 1.0 + HEURISTIC_MARGIN])
@pytest.mark.parametrize("nudge", [-1, 0, 1])
def test_a_median_on_the_margin_takes_the_exact_ratios(edge, nudge, monkeypatch):
    """|h| scaled from the exact median ratio at |h| = 1 puts the exact
    median on the margin, to a few units in the last place; the float
    median cannot decide there, and the exact ratios of the window do."""
    u, K = QComplex(Fraction(1, 16)), 40
    mags, first, step = korobeinik._tail_run(THREE_POLE, u, K, 6)
    unit = statistics.median(r for _, r in ratio_points(mags, 1, step, first))
    h = edge / unit
    for _ in range(abs(nudge)):
        h = math.nextafter(h, math.copysign(math.inf, nudge))
    h_abs = Fraction(h)
    exact = statistics.median(r for _, r in ratio_points(mags, h_abs * h_abs, step, first))
    assert abs(exact - edge) <= 8 * math.ulp(edge)
    want = ref_exact_observe_point(THREE_POLE, u, h_abs, K)
    returned = spy_float_median(monkeypatch)
    exact_calls = []
    inner = korobeinik.ratio_points

    def spy(*args):
        exact_calls.append(args)
        return inner(*args)

    monkeypatch.setattr(korobeinik, "ratio_points", spy)
    got = observe_point(THREE_POLE, u, h_abs, K)
    assert returned == [None] and len(exact_calls) == 1
    assert got == want == median_verdict(exact)


ORDER_300_POLE = SeedFunction([PoleTerm(QComplex(1), Fraction(1), 300)])
UNDECIDED_IN_FLOATS = {
    # the degree-58 part adds to the window's first term at K = 40
    "polynomial reaching the window": (
        SeedFunction([PoleTerm(QComplex(1), Fraction(1)),
                      PolyTerm((Fraction(2),) + (Fraction(0),) * 57 + (Fraction(1, 3),))]),
        QComplex(Fraction(1, 3)), Fraction(1, 16), 40),
    "poles cancelling at u": (
        FALLBACK_SEEDS["symmetric equal residues"], U_FALLBACK, Fraction(1, 8), 40),
    # w = 10/3 and -10/7 with residues 1 and (7/3)**61: the window's second
    # term (k = 30) is zero, but its float parts do not cancel exactly
    "one window term cancelling": (
        SeedFunction([PoleTerm(QComplex(Fraction(3, 10)), Fraction(1)),
                      PoleTerm(QComplex(Fraction(-7, 10)), Fraction(7, 3) ** 61)]),
        QComplex(0), Fraction(1, 100), 40),
    # |w| = 2**20: w**59 leaves float range
    "pole near u": (CATALAN, QComplex(1 - Fraction(1, 2**20)), Fraction(1, 8), 40),
    # |w| = 1/11585: w**79 is a subnormal float
    "term underflowing": (CATALAN, QComplex(1 - 11585), Fraction(11585**2, 8), 40),
    # |w| = 2: w**1179 and w**9979 leave float range
    "K = 600": (CATALAN, QComplex(Fraction(1, 2)), Fraction(1, 8), 600),
    "K = 5000": (CATALAN, QComplex(Fraction(1, 2)), Fraction(1, 8), 5000),
    # |w| = 1, but C(299 + 2k, 2k) exceeds 2**1024 for k >= 589
    "binomial out of range": (ORDER_300_POLE, QComplex(0), Fraction(1, 8), 600),
}


@pytest.mark.parametrize("name", sorted(UNDECIDED_IN_FLOATS))
def test_the_exact_path_runs_once_where_floats_cannot_decide(name, monkeypatch):
    seed, u, h_abs, K = UNDECIDED_IN_FLOATS[name]
    want = ref_exact_observe_point(seed, u, h_abs, K)
    returned = spy_float_median(monkeypatch)
    exact_runs = spy_exact_runs(monkeypatch)
    # no OverflowError escapes the float path
    assert observe_point(seed, u, h_abs, K) == want
    assert returned == [None] and len(exact_runs) == 1


# -- bidisc sample points -----------------------------------------------------------


def limit_denominator_cases():
    """Seeded floats in [-1, 1] and [0, 1], with the values where the
    continued-fraction walk or its tie rule turns: zeros, +-1, k/128, the
    dyadic ties (2j + 1)/256 between two fractions of denominator <= 128 and
    their neighbours, and subnormals."""
    rng = random.Random(29)
    xs = [rng.uniform(-1.0, 1.0) for _ in range(50_000)]
    xs += [rng.uniform(0.0, 1.0) for _ in range(50_000)]
    xs += [0.0, -0.0, 1.0, -1.0]
    xs += [k / 128 for k in range(-128, 129)]
    ties = [(2 * j + 1) / 256 for j in range(-128, 128)]
    xs += ties + [math.nextafter(t, s) for t in ties for s in (-math.inf, math.inf)]
    tiny = sys.float_info.min
    xs += [5e-324, -5e-324, tiny, -tiny, math.nextafter(tiny, 0.0)]
    xs += [rng.randrange(1, 2**52) * 5e-324 for _ in range(100)]
    return xs


def test_limit_denominator_is_cpythons():
    xs = limit_denominator_cases()
    assert len(xs) > 10**5
    for max_den in (128, 1000):
        for x in xs if max_den == 128 else xs[::10]:
            p, q = korobeinik._limit_ratio(x, max_den)
            want = Fraction(x).limit_denominator(max_den)
            assert type(p) is int and type(q) is int
            assert (p, q) == (want.numerator, want.denominator), x
    # a tie goes to the convergent: 1/256 lies halfway between 0 and 1/128
    assert korobeinik._limit_ratio(1 / 256, 128) == (0, 1)


def ref_sample_bidisc_point(rnd, u0, R, R1, complex_h=False):
    """``_sample_bidisc_point`` with ``Fraction.limit_denominator``."""
    den = 128
    while True:
        xr = Fraction(rnd.uniform(-1.0, 1.0)).limit_denominator(den)
        yr = Fraction(rnd.uniform(-1.0, 1.0)).limit_denominator(den)
        if 0 < xr * xr + yr * yr < 1:
            break
    u = QComplex(u0.re + R * xr, u0.im + R * yr)
    while True:
        m = Fraction(rnd.uniform(0.0, 1.0)).limit_denominator(den) * R1
        if m != 0:
            break
    if complex_h:
        h = QComplex(m * Fraction(3, 5), rnd.choice((1, -1)) * m * Fraction(4, 5))
    else:
        h = QComplex(rnd.choice((1, -1)) * m)
    return u, h, m


def test_sampled_points_are_unchanged():
    """The (u, h, |h|) sequences of the shipped, golden and generated configs,
    drawn as ``bidisc_check`` draws them, against the Fraction sampler."""
    for k in korobeinik_blocks(perfbench_seeds=(1, 2, 3)):
        bd = k["bidisc"]
        u0 = parse_point(k.get("u_star", 0))
        R, R1 = parse_exact(bd["R"]), parse_exact(bd["R1"])
        seed = SeedFunction.from_config(k["g1"])
        got, want = random.Random(bd.get("seed", 7)), random.Random(bd.get("seed", 7))
        for i in range(bd.get("samples", 24)):
            a = korobeinik._sample_bidisc_point(got, u0, R, R1, seed, complex_h=(i % 4 == 3))
            b = ref_sample_bidisc_point(want, u0, R, R1, complex_h=(i % 4 == 3))
            assert [(z.re, z.im) for z in a[:2]] + [a[2]] == [(z.re, z.im) for z in b[:2]] + [b[2]]


def test_a_sample_on_a_pole_is_drawn_again():
    """The onpole golden's sampler seed puts sample 2 exactly on the pole
    u = 1 under the sampler without the pole test (where the exact run
    divided by zero); the sampler draws that point again, and every
    sample keeps off the pole."""
    k = yaml.safe_load((ROOT / "tests" / "golden" / "korobeinik_onpole" / "config.yaml").read_text())
    k = k["korobeinik"]
    seed = SeedFunction.from_config(k["g1"])
    poles = seed.poles()
    bd = k["bidisc"]
    u0, R, R1 = parse_point(k["u_star"]), parse_exact(bd["R"]), parse_exact(bd["R1"])
    got, want = random.Random(bd["seed"]), random.Random(bd["seed"])
    new = [korobeinik._sample_bidisc_point(got, u0, R, R1, seed, i % 4 == 3) for i in range(24)]
    old = [ref_sample_bidisc_point(want, u0, R, R1, i % 4 == 3) for i in range(24)]
    assert [i for i, (u, _, _) in enumerate(old) if u in poles] == [2]
    assert new[:2] == old[:2]
    assert not any(u in poles for u, _, _ in new)


def test_quotients_decide_like_reduced_fractions():
    """The witness's unreduced quotients against Fractions: ratios on, just
    above and below (1 + margin)**2, and windows whose last ratio equals
    the first."""
    lo_n, lo_d = ((1.0 + HEURISTIC_MARGIN) ** 2).as_integer_ratio()
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        nums = [rng.choice([lo_n + 1, rng.randint(lo_n, 2 * lo_n)]) for _ in range(RATIO_TAIL)]
        if rng.random() < 0.5:
            nums[rng.randrange(RATIO_TAIL)] = rng.choice([lo_n, lo_n - 1])
        window = []
        for num in nums:
            k = rng.randint(1, 10**30)
            window.append((num * k, lo_d * k))
        if rng.random() < 0.5:
            window[-1] = (3 * window[0][0], 3 * window[0][1])
        got = divergence_heuristic([korobeinik._Quotient(n, d) for n, d in window])
        assert got == divergence_heuristic([Fraction(n, d) for n, d in window])
        seen.add((got, window[-1][0] * window[0][1] == window[0][0] * window[-1][1]))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# -- the compiled seed kernel -------------------------------------------------------


def ref_closure_evaluator(seed, m):
    """``_complex_evaluator`` as the closure it was before the seed was
    compiled: the parts in a loop, each pole as c / (a - z) ** power."""
    parts = []
    for t in seed.terms:
        if isinstance(t, PolyTerm):
            cs = [t.coeffs[j] * math.perm(j, m) for j in range(len(t.coeffs) - 1, m - 1, -1)]
            parts.append((None, tuple(complex(c) for c in cs), 0))
        else:
            c = t.c.to_complex() if isinstance(t.c, QComplex) else complex(t.c)
            if m:
                c = c * math.prod(range(t.n, t.n + m))
            parts.append((t.a.to_complex(), c, t.n + m))

    def evaluate(z):
        total = None
        for a, c, power in parts:
            if a is None:
                v = 0j
                for cj in c:
                    v = v * z + cj
            else:
                try:
                    v = c / (a - z) ** power
                except ZeroDivisionError:
                    raise pde._zero_power(a, z, power, m) from None
            total = v if total is None else total + v
        return total

    return evaluate


def raw_bits(x):
    """The float's 64 bits: its hex() and, for a nan, sign and payload."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def bits_outcome(f):
    """Raw bits of the real and imaginary parts, or of each float in a list,
    or the type and text of the exception raised."""
    try:
        v = f()
    except (DomainError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(v, complex):
        return raw_bits(v.real), raw_bits(v.imag)
    return [raw_bits(x) for x in v]


KERNEL_SEEDS = {
    # a pair of poles of order 1 and 2 with complex residues, a real pole
    # and a polynomial part
    "mixed": SeedFunction(
        [
            PoleTerm(QComplex(Fraction(3, 2), 2), QComplex(1, Fraction(1, 4)), 1),
            PoleTerm(QComplex(Fraction(3, 2), -2), QComplex(1, Fraction(-1, 4)), 2),
            PoleTerm(QComplex(Fraction(-5, 2)), Fraction(-7, 8), 1),
            PolyTerm((Fraction(0), Fraction(-1, 2), Fraction(0), Fraction(3))),
        ]
    ),
    "three first-order poles": THREE_POLE,
    # a first-order pole past the bound that the bare form needs
    "far pole": SeedFunction(
        [PoleTerm(QComplex(2**1001), Fraction(1), 1), PoleTerm(QComplex(Fraction(1, 3), Fraction(-1, 7)), Fraction(2), 1)]
    ),
    # a first-order pole inside the bound, which a circle of radius near the
    # largest float overflows: there (a - z) ** 1 raises and a - z does not
    "pole near the bound": SeedFunction([PoleTerm(QComplex(2**999), Fraction(1), 1)]),
    "polynomial": POLY_ONLY,
}
KERNEL_POINTS = [
    0j,
    complex(-0.0, 0.0),
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    0.5 - 0.25j,
    complex(-1.25, -0.0),
    complex(-0.0, 3.0),
    complex(1.5, 2.0),  # on a pole of "mixed"
    complex(1e300, -1e300),
    complex(math.inf, 0.0),
    complex(math.nan, 1.0),
]


@pytest.mark.parametrize("name", sorted(KERNEL_SEEDS))
def test_seed_kernel_keeps_the_closure_bits(name):
    seed = KERNEL_SEEDS[name]
    for m in range(21):
        kernel, ref = _complex_evaluator(seed, m), ref_closure_evaluator(seed, m)
        for z in KERNEL_POINTS:
            assert bits_outcome(lambda: kernel(z)) == bits_outcome(lambda: ref(z)), (m, z)


@pytest.mark.parametrize("name", sorted(KERNEL_SEEDS) + ["catalan"])
@pytest.mark.parametrize("rho", [0.75, 1.0, 2.5, 2.0**1001, sys.float_info.max])
def test_seed_circle_keeps_the_closure_abs_bits(name, rho):
    """The circle writes first-order poles bare, under an abs; at rho = 1 it
    meets the pole of the Catalan seed, beyond 2**1000 it calls the kernel."""
    seed = CATALAN if name == "catalan" else KERNEL_SEEDS[name]
    roots = korobeinik._circle_roots()
    ref = ref_closure_evaluator(seed, 0)
    _, circle = pde._order_kernels(pde._float_parts(seed), 0)
    got = bits_outcome(lambda: circle(rho, roots))
    want = bits_outcome(lambda: [abs(ref(rho * e)) for e in roots])
    assert got == want


def test_cauchy_reports_keep_the_closure_bits():
    for k in korobeinik_blocks(perfbench_seeds=range(1, 6)):
        seed = SeedFunction.from_config(k["g1"])
        cb = k["cauchy"]
        r, r0, eps = (parse_exact(cb[key]) for key in ("r", "r0", "eps"))
        closures = {}

        def closed_form(z, m):
            if m not in closures:
                closures[m] = ref_closure_evaluator(seed, m)
            return closures[m](z)

        got = cauchy_bound_check(seed, r, r0, eps, cb["n_max"])
        assert repr(got) == repr(ref_cauchy(seed, r, r0, eps, cb["n_max"], closed_form))


# -- the pruned circle maximum ------------------------------------------------------


def check_circle_max(seed, rho):
    """``_circle_max`` against max(circle(rho, roots)), raw bits or the same
    exception; each block's bound against each of its samples. Returns the
    number of samples the pruned maximum evaluated."""
    parts = pde._float_parts(seed)
    _, circle = pde._order_kernels(parts, 0)
    roots = korobeinik._circle_roots()
    seen = []

    def counted(rho, points):
        seen.append(len(points))
        return circle(rho, points)

    got = bits_outcome(lambda: [korobeinik._circle_max(parts, counted, rho)])
    assert got == bits_outcome(lambda: [max(circle(rho, roots))])
    bounds = korobeinik._block_bounds(parts, rho)
    for bound, block in zip(bounds or (), korobeinik._circle_blocks()[0]):
        try:
            assert max(circle(rho, block)) <= bound
        except (DomainError, OverflowError):
            assert bound == math.inf  # a block through a pole or past float range
    return sum(seen)


PRUNE_SEEDS = {
    # a pole just outside the circle |z| = 1: a sharp peak
    "sharp peak": SeedFunction([PoleTerm(QComplex(Fraction(1001, 1000)), Fraction(1), 1)]),
    # a conjugate pair on the imaginary axis: equal peaks near z = i and
    # z = -i, in blocks 16 and 48
    "conjugate pair": SeedFunction(
        [PoleTerm(QComplex(0, Fraction(6, 5)), Fraction(1), 1),
         PoleTerm(QComplex(0, Fraction(-6, 5)), Fraction(1), 1)]
    ),
    # residues of opposite sign that nearly cancel: on |z| = 1 the triangle
    # inequality bounds their sum by 5 (at z = 1) to 45 (at z = -1) times
    # its size
    "opposite residues": SeedFunction(
        [PoleTerm(QComplex(Fraction(6, 5)), Fraction(1), 1),
         PoleTerm(QComplex(Fraction(13, 10)), Fraction(-1), 1)]
    ),
    "double pole": SeedFunction(
        [PoleTerm(QComplex(Fraction(3, 2), Fraction(1, 2)), QComplex(1, -1), 2),
         PolyTerm((Fraction(1), Fraction(-1, 2)))]
    ),
    "mixed": KERNEL_SEEDS["mixed"],
    # no pole: the bound is a constant and prunes nothing
    "polynomial": POLY_ONLY,
    # samples past float range, where abs raises OverflowError in the full
    # sweep too
    "overflowing": SeedFunction([PoleTerm(QComplex(Fraction(3, 2)), Fraction(17 * 10**307), 1)]),
}


@pytest.mark.parametrize("name", sorted(PRUNE_SEEDS))
@pytest.mark.parametrize("rho", [0.5, 0.9, 0.99, 0.999, 1.0])
def test_circle_max_keeps_the_full_sweep_bits(name, rho):
    count = check_circle_max(PRUNE_SEEDS[name], rho)
    if name == "sharp peak":
        assert count < CIRCLE_SAMPLES / 4
    if name == "polynomial":
        assert count == CIRCLE_SAMPLES


@pytest.mark.parametrize("rho", [2.0**1001, 2.0**-1000])
def test_circle_max_outside_float_range_sweeps_every_root(rho):
    """At rho = 2**1001 the circle calls the kernel per point; both ends of
    the range run the one full sweep."""
    assert check_circle_max(KERNEL_SEEDS["mixed"], rho) == CIRCLE_SAMPLES


def test_circle_max_on_a_pole_raises_the_full_sweeps_error():
    """The circle through the Catalan seed's pole: the pruned maximum meets
    it in the block next to it and runs the full sweep, which raises the
    refusal at the first root."""
    check_circle_max(CATALAN, 1.0)
    parts = pde._float_parts(CATALAN)
    with pytest.raises(DomainError, match=r"\(a - u\)\*\*1 is zero at u = \(1\+0j\)"):
        korobeinik._circle_max(parts, pde._order_kernels(parts, 0)[1], 1.0)


def test_circle_max_evaluates_few_samples_on_generated_configs():
    """Bit for bit on the shipped, golden and generated configs, and under a
    quarter of the samples evaluated on the generated ones (about 13%), so a
    silent return to the full sweep fails here."""
    evaluated = total = 0
    for i, k in enumerate(korobeinik_blocks(perfbench_seeds=(1, 2, 3))):
        cb = k["cauchy"]
        r, eps = (float(parse_exact(cb[key])) for key in ("r", "eps"))
        count = check_circle_max(SeedFunction.from_config(k["g1"]), r - eps)
        if i > len(GOLDENS):  # a generated config
            evaluated, total = evaluated + count, total + CIRCLE_SAMPLES
    assert total == 30 * CIRCLE_SAMPLES
    assert evaluated < total / 4, evaluated / total
