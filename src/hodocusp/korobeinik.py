"""Convergence-domain analysis of the series G(h, u) = sum g_n(u) h^n.

For a seed g1 with poles, the h-series at fixed u has radius of
convergence (d(u)/2)**2 where d(u) is the distance to the nearest pole:
the coefficient ratios |g_{n+1}(u)/g_n(u)| approach 4/d(u)**2 like
L(1 + a/n), so a one-step Richardson extrapolation of the ratio sequence
recovers the limit to high accuracy. Pointwise radii assemble into the
product-domain statement: the series converges on the bidisc
{|u - u*| < R} x {|h| < R1} exactly when g1 is analytic in
|u - u*| < R + 2 sqrt(R1), and the union of all such bidiscs with
R + 2 sqrt(R1) = R0 is {|u - u*| + 2 sqrt(|h|) < R0}.

Everything that can be decided in exact rational arithmetic is: squared
pole distances, bidisc classification, membership tests, and the
divergence-witness confirmation (whose term ratios overflow float range
long before the heuristic window is reached). Pole distances are read in
integers, from the seed's pole table (``SeedFunction._pole_offsets``).
Floats appear in the Cauchy check, in the terms of a bidisc sample, which
fall back to the exact ones wherever their error bound cannot decide, and
in the final ratio-limit extrapolation and reports.

The exact terms g_n(u) are not built from the closed form
g1^(2k)(u)/(k!(k+1)!) one n at a time. g_{k+1}(u) = Catalan_k [z**(2k)]
g1(u + z), and the Taylor coefficients of the seed come from one exact
integer run (``pde._taylor_run``, which also gives the potential its
boundary row): each pole term steps by one Gaussian-integer multiply, the
polynomial part is shifted to u once, all of it shares one integer
denominator, and no gcd runs (``_exact_terms``). A verdict reads only the
last RATIO_TAIL ratios, so a run starts at k0 = K - RATIO_TAIL - 1: each
pole's term there is one binary power of w, and the RATIO_TAIL + 1 terms
from k0 cost O(RATIO_TAIL + log K) big-integer products
(``_window_run``). When a window term is zero (a polynomial seed, or poles
that cancel exactly), the run falls back to k = 0, O(K) products, and
reads the nonzero terms as before.

A radius probe and the witness square the terms whose ratios they read,
into integers M_k over the denominator den0**2 step**k, so each term ratio
is one integer true division of consecutive M_k (``_tail_run``,
``ratio_points``); the witness compares its squared ratios by integer
cross-multiplication (``_Quotient``), with no gcd. Their float ratios
reach the printed reports bit for bit, so they stay exact. A bidisc sample
reports only a verdict, and computes its eleven window terms in floats
(``_float_median``): each w = 1/(a - u) is rounded once from the integer
pole offsets, each pole takes one binary power of w and then steps by w**2,
and consecutive Catalan numbers enter the ratios as the exact factor
2(2k+1)/(k+2). Each term carries a forward error bound (Higham, ch. 3;
complex products after Brent, Percival and Zimmermann) with a safety
factor of 100. The float median decides only when all eleven terms are
proven nonzero (so the exact run would take its window too), every
product stays far inside float range, and the median lies outside its
bound of 1 +- HEURISTIC_MARGIN; otherwise the exact window run decides, so
every verdict is the exact one.

Seeds and points are read exactly where they enter: a float or complex
input counts as its decimal (``parse_exact``, ``parse_point``), so every
diagnostic reports what the input's decimal twin reports.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UsageError
from .pde import (
    PoleTerm,
    PolyTerm,
    SeedFunction,
    _float_parts,
    _gauss_pow,
    _order_kernels,
    _taylor_run,
    expand_potential,  # unused here; perfbench's tracer patches this name
)
from .scalars import (
    QComplex,
    lt_dist_vs_radius,
    parse_exact,
    parse_point,
)

RATIO_TAIL = 10
SPREAD_TOL = 0.05
HEURISTIC_MARGIN = 1e-3
WITNESS_K_CAP = 600


def _exact_terms(seed: SeedFunction, u: QComplex, K: int, start: int = 0):
    """(T, den0, L**2) with g_{k+1}(u) = (X_k + i Y_k) / (den0 L**(2k)) and
    T = [(X_k, Y_k) for k = start..K-1], signed Gaussian integers.

    g_{k+1}(u) = g1^(2k)(u)/(k!(k+1)!) = Catalan_k [z**(2k)] g1(u + z), so
    the terms are the even Taylor coefficients of the seed's one exact run
    (``pde._taylor_run`` from j = 2 start in steps of 2) times Catalan_k,
    which steps by 2(2k+1)/(k+2). den0 depends on neither start nor K, so a
    later start gives the same integers as the tail of a run from k = 0.
    """
    run, den0, L = _taylor_run(seed, u, 2 * start, 2 * K, 2)
    catalan = math.comb(2 * start, start) // (start + 1)
    out = []
    for k, (x, y) in enumerate(run, start):
        out.append((catalan * x, catalan * y))
        catalan = catalan * 2 * (2 * k + 1) // (k + 2)
    return out, den0, L * L


def _window_run(seed: SeedFunction, u: QComplex, K: int):
    """(T, first, L**2): the terms g_{k+1}(u) = (X_k + i Y_k) / (den0 L**(2k))
    that a verdict reads, T = [(X_k, Y_k) for k = first..K-1].

    The run starts at k0 = K - RATIO_TAIL - 1. When none of its RATIO_TAIL + 1
    terms is zero (X = Y = 0 tests that without squaring), the window holds
    every ratio pair that the last RATIO_TAIL ratios of the full run read
    (first = k0). When a window term is zero (a polynomial seed, or poles
    that cancel exactly), or K leaves no room for the window, the run falls
    back to k = 0 (first = 0).
    """
    k0 = K - RATIO_TAIL - 1
    if k0 > 0:
        terms, _, L2 = _exact_terms(seed, u, K, k0)
        if all(x or y for x, y in terms):
            return terms, k0, L2
    terms, _, L2 = _exact_terms(seed, u, K)
    return terms, 0, L2


def _tail_run(seed: SeedFunction, u: QComplex, K: int, read: int):
    """(M, first, step): the last ``read`` terms of ``_window_run`` squared,
    or every term of a run from k = 0 (first = 0), with
    |g_{k+1}(u)|**2 = M[k - first] / (den0**2 step**k) and step = L**4."""
    terms, first, L2 = _window_run(seed, u, K)
    if first:
        terms, first = terms[-read:], first + len(terms) - read
    return [x * x + y * y for x, y in terms], first, L2 * L2


def ratio_points(mags2, h_abs2=None, step=1, first=0):
    """Indexed term ratios (n, |t_{n+1}|/|t_n|), skipping zero terms.

    mags2[i] is |t_{first+i+1}|**2 up to a factor step**(first+i): a
    Fraction (step 1), or the squared integer terms of ``_exact_terms``
    (step L**4), so |t_{n+1}/t_n|**2 is
    mags2[i] / (mags2[i-1] step) with n = first + i. A window that starts
    at first > 0 (``_tail_run``) keeps the indices n of the full run, which
    the Richardson extrapolation reads. With h_abs2 the ratios include the
    |h| factor; a float h_abs2 is read as its decimal (``parse_exact``). The
    quotient is one integer true division, which rounds correctly like
    float(Fraction), so it gives the same bits whether or not the fraction
    is reduced; a quotient past float range is taken over 4**e and its root
    times 2**e, and a root past float range reads inf.
    """
    h2 = Fraction(1) if h_abs2 is None else parse_exact(h_abs2, "h_abs2")
    pts = []
    for i in range(1, len(mags2)):
        a, b = mags2[i - 1], mags2[i]
        if a == 0 or b == 0:
            continue
        num = b.numerator * a.denominator * h2.numerator
        den = b.denominator * a.numerator * step * h2.denominator
        e = max(0, (num.bit_length() - den.bit_length()) // 2 - 510)
        try:
            pts.append((first + i, math.ldexp(math.sqrt(num / (den << 2 * e)), e)))
        except OverflowError:
            pts.append((first + i, math.inf))
    return pts


def richardson_limit(pts):
    """Extrapolated limit of an indexed ratio sequence.

    Fits the model ratio_n = L (1 + a/n), for which
    L = n ratio_n - (n-1) ratio_{n-1} is exact; returns the median of the
    trailing extrapolants and their relative spread.
    """
    pts = pts[-RATIO_TAIL:]
    ls = []
    for (pn, pr), (n, r) in zip(pts, pts[1:]):
        if n == pn + 1:
            ls.append(n * r - pn * pr)
    ls = ls[-5:]
    if len(ls) < 3:
        return math.nan, math.inf
    med = statistics.median(ls)
    if med == 0:
        return 0.0, 0.0 if max(ls) == min(ls) else math.inf
    return med, (max(ls) - min(ls)) / abs(med)


@dataclass(frozen=True)
class ConvergenceReport:
    """Ratio-test summary of the h-series at one probe point.

    ``ratios`` holds the term ratios the radius estimate reads: the last
    RATIO_TAIL of the run (a witness: of its heuristic window), or all of
    them when there are fewer.
    """

    u: complex
    ratios: tuple
    estimated_radius: float
    predicted_radius: float
    verdict: str  # converges | diverges | inconclusive

    def csv_row(self) -> str:
        return (
            f"{self.u.real!r},{self.u.imag!r},"
            f"{self.estimated_radius!r},{self.predicted_radius!r},{self.verdict}"
        )


def predicted_radius(seed: SeedFunction, u) -> float:
    """(d(u)/2)**2 with d(u) the distance to the nearest pole; inf if entire."""
    d2 = seed.min_pole_distance2(u)
    if d2 is None:
        return math.inf
    return float(d2) / 4.0


def _radius_verdict(limit, spread):
    """(estimated_radius, verdict) from a ratio limit and its relative spread;
    a limit at or below 1e-12 (ratios falling towards 0) shows no radius."""
    if not math.isfinite(limit) or spread > SPREAD_TOL or limit <= 1e-12:
        return math.nan, "inconclusive"
    return 1.0 / limit, "converges"


def radius_probe(seed: SeedFunction, u, K: int = 40) -> ConvergenceReport:
    """Estimate the h-radius at fixed u from K coefficient ratios."""
    if K < 20:
        raise UsageError("radius probe needs K >= 20 terms")
    u = parse_point(u, "u")
    seed.assert_not_pole(u, "u")
    mags, first, step = _tail_run(seed, u, K, RATIO_TAIL + 1)
    return _probe_report(seed, u, ratio_points(mags, step=step, first=first)[-RATIO_TAIL:])


def _probe_report(seed: SeedFunction, u: QComplex, pts) -> ConvergenceReport:
    """The report of a probe at u from the ratios its estimate reads; an
    entire seed converges everywhere, with radius inf."""
    ratios = tuple(r for _, r in pts)
    if seed.is_entire():
        return ConvergenceReport(u.to_complex(), ratios, math.inf, math.inf, "converges")
    est, verdict = _radius_verdict(*richardson_limit(pts))
    return ConvergenceReport(u.to_complex(), ratios, est, predicted_radius(seed, u), verdict)


def divergence_heuristic(ratios2) -> bool:
    """Last-window squared term ratios above (1 + margin)**2, non-decreasing.

    Desk-scale surrogate for divergence, run on squared ratios so the
    exact path never takes a square root; Fractions and floats both work.
    """
    if len(ratios2) < RATIO_TAIL:
        return False
    w = ratios2[-RATIO_TAIL:]
    lo = (1.0 + HEURISTIC_MARGIN) ** 2
    return all(r > lo for r in w) and w[-1] >= w[0]


def witness_terms(pred_ratio: float) -> int:
    """Terms needed before the heuristic window clears 1 + margin.

    The term ratio climbs like pred_ratio (1 - 3/(2n)); solving
    pred_ratio (1 - 3/(2n)) > 1 + margin with a factor-2 safety gives
    n > 3 / (1 - (1 + 2 margin)/pred_ratio).
    """
    thresh = 1.0 + 2.0 * HEURISTIC_MARGIN
    if pred_ratio <= thresh:
        return WITNESS_K_CAP
    need = 3.0 / (1.0 - thresh / pred_ratio)
    return max(40, min(WITNESS_K_CAP, math.ceil(need) + RATIO_TAIL))


def confirm_divergence(seed: SeedFunction, u, h_abs, K: int):
    """Exact heuristic run at |h| = h_abs; returns (confirmed, float ratios).

    Squared term ratios are compared exactly, since the terms themselves
    overflow floats for the K this can need; only the last RATIO_TAIL of
    them, which the heuristic reads, are computed (``_tail_run``), each as
    an unreduced integer quotient (``_Quotient``). A float h_abs is read as
    its decimal (``parse_exact``).
    """
    u = parse_point(u, "u")
    seed.assert_not_pole(u, "u")
    mags, _, step = _tail_run(seed, u, K, RATIO_TAIL + 1)
    h2 = parse_exact(h_abs, "h_abs") ** 2
    sq = [
        _Quotient(b * h2.numerator, a * step * h2.denominator)
        for a, b in zip(mags, mags[1:])
        if a and b
    ][-RATIO_TAIL:]
    ratios = ratio_points(mags, h2, step)[-RATIO_TAIL:]  # the integers of ``sq``
    return divergence_heuristic(sq), tuple(r for _, r in ratios)


class _Quotient:
    """num / den with den > 0, compared with a float (read exactly) or with
    another quotient by integer cross-multiplication: the decisions of a
    reduced Fraction, with no gcd on the multi-thousand-bit terms."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num = num
        self.den = den

    def __gt__(self, other: float) -> bool:
        n, d = other.as_integer_ratio()
        return self.num * d > n * self.den

    def __ge__(self, other: "_Quotient") -> bool:
        return self.num * other.den >= other.num * self.den


@dataclass(frozen=True)
class BidiscSample:
    u: complex
    h: complex
    predicted: str  # converges | diverges | boundary
    observed: str   # converges | diverges | inconclusive

    @property
    def consistent(self) -> bool:
        if self.observed == "inconclusive" or self.predicted == "boundary":
            return True
        return self.predicted == self.observed


@dataclass(frozen=True)
class DivergenceWitness:
    u: complex
    h: float
    predicted_ratio: float
    terms: int
    tail_ratios: tuple
    confirmed: bool


@dataclass(frozen=True)
class BidiscReport:
    u_star: complex
    R: float
    R1: float
    analytic: bool          # g1 analytic in |u - u*| < R + 2 sqrt(R1) (exact)
    pole_distance: float    # nearest pole distance, inf when entire
    samples: tuple          # BidiscSample
    witness: object         # DivergenceWitness | None


def bidisc_check(
    seed: SeedFunction,
    u_star,
    R,
    R1,
    samples: int = 24,
    probe_terms: int = 40,
    rng_seed: int = 7,
) -> BidiscReport:
    """Exact bidisc classification plus empirical spot checks.

    Classifies (exactly, from pole positions) whether the seed is analytic
    in the open disc |u - u*| < R + 2 sqrt(R1); samples points of the
    bidisc and compares the exact pointwise criterion 4|h| < d(u)**2
    against the observed ratio behaviour; when a pole falls strictly
    inside the disc, constructs a bidisc point that is predicted to
    diverge and confirms it with the exact ratio heuristic.
    """
    R = parse_exact(R, "R")
    R1 = parse_exact(R1, "R1")
    if R1 <= 0 or R <= 0:
        raise UsageError("bidisc radii must be positive")
    # with fewer than RATIO_TAIL ratios the heuristic reads every sample as
    # converging, its rule for terminating seeds; 20 is the CLI's bound
    if probe_terms < 20:
        raise UsageError("bidisc check needs probe_terms >= 20")
    u0 = parse_point(u_star, "u_star")
    seed.assert_not_pole(u0, "u_star")

    pairs = seed._pole_distances2(u0)
    d2s = [d2 for _, d2 in pairs]
    analytic = not any(lt_dist_vs_radius(d2, R, R1) for d2 in d2s)

    rnd = random.Random(rng_seed)
    rows = []
    for i in range(samples):
        u, h, h_abs = _sample_bidisc_point(rnd, u0, R, R1, seed, complex_h=(i % 4 == 3))
        rows.append(_classify_sample(seed, u, h, h_abs, probe_terms))

    witness = None
    if not analytic:
        witness = _divergence_witness(seed, u0, R, R1, pairs)

    pole_d = math.sqrt(float(min(d2s))) if d2s else math.inf
    return BidiscReport(
        u_star=u0.to_complex(),
        R=float(R),
        R1=float(R1),
        analytic=analytic,
        pole_distance=pole_d,
        samples=tuple(rows),
        witness=witness,
    )


def _limit_ratio(x: float, max_den: int):
    """(p, q), the fraction p/q nearest x with 0 < q <= max_den, in lowest
    terms, from the continued fraction of x's integer ratio. The walk, the
    bound on the last semiconvergent and the tie rule (the convergent p1/q1
    wins a tie) are CPython's ``Fraction.limit_denominator``, so p/q is its
    result, with no Fraction arithmetic on the way."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # p1/q1 is d/(q1 den) from x and 1/(q1 (q0 + k q1)) from the semiconvergent
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _sample_bidisc_point(rnd, u0, R, R1, seed, complex_h=False):
    """Rational point of the open bidisc; |h| stays exactly rational. A u
    on a pole of the seed (``SeedFunction._on_pole``) is drawn again, as
    is one outside the disc: the series has no terms there. Each draw stays an integer numerator over its denominator until the
    returned values are built."""
    den = 128
    (xn, xd), (yn, yd) = u0.re.as_integer_ratio(), u0.im.as_integer_ratio()
    rn, rd = R.as_integer_ratio()
    while True:
        p, q = _limit_ratio(rnd.uniform(-1.0, 1.0), den)
        s, t = _limit_ratio(rnd.uniform(-1.0, 1.0), den)
        # 0 < (p/q)**2 + (s/t)**2 < 1, then u = u0 + R (p/q + i s/t)
        if 0 < (p * t) ** 2 + (s * q) ** 2 < (q * t) ** 2:
            u = QComplex(
                Fraction(xn * rd * q + rn * p * xd, xd * rd * q),
                Fraction(yn * rd * t + rn * s * yd, yd * rd * t),
            )
            if not seed._on_pole(u):
                break
    while True:
        p, q = _limit_ratio(rnd.uniform(0.0, 1.0), den)
        if p:
            break
    # |h| = (p/q) R1 > 0
    mn, md = R1.as_integer_ratio()
    mn, md = mn * p, md * q
    if complex_h:
        h = QComplex(Fraction(3 * mn, 5 * md), Fraction(rnd.choice((1, -1)) * 4 * mn, 5 * md))
    else:
        h = QComplex(Fraction(rnd.choice((1, -1)) * mn, md))
    return u, h, Fraction(mn, md)


def _classify_sample(seed, u, h, h_abs, K):
    """The sample's predicted class from the exact 4|h| against d(u)**2, and
    its observed verdict; both read the integer pole offsets of u
    (``SeedFunction._pole_offsets``). With d(u)**2 = n/D**2 and
    |h| = p/q, 4|h| - d(u)**2 has the sign of 4 p D**2 - n q."""
    D, offs = offsets = seed._pole_offsets(u)
    p, q = h_abs.numerator, h_abs.denominator
    gap = 4 * p * D * D - min(x * x + y * y for x, y in offs) * q if offs else -1
    predicted = "converges" if gap < 0 else "diverges" if gap > 0 else "boundary"
    observed = _observe_point(seed, u, h_abs, K, offsets)
    return BidiscSample(
        u=u.to_complex(),
        h=h.to_complex(),
        predicted=predicted,
        observed=observed,
    )


def _observe_point(seed, u, h_abs, K, offsets) -> str:
    """Ratio-tail verdict for the series at a concrete (u, h), |h| = h_abs
    exact: the median of the last five ratios, read from the last six terms.

    The terms are first computed in floats from the seed's pole offsets
    ``offsets`` = ``seed._pole_offsets(u)`` (``_float_median``); only where the
    error bound of that path cannot decide do the exact ratios of the window
    run (``_tail_run``, ``ratio_points``) decide, so the verdict is always
    the exact one."""
    med = _float_median(seed, offsets, h_abs, K)
    if med is None:
        mags, first, step = _tail_run(seed, u, K, 6)
        pts = ratio_points(mags, h_abs * h_abs, step, first)
        # a window run (first > 0) had RATIO_TAIL + 1 nonzero terms
        if first == 0 and len(pts) < RATIO_TAIL:
            return "converges"  # terminating terms: polynomial seed
        med = statistics.median(r for _, r in pts[-5:])
    if med < 1.0 - HEURISTIC_MARGIN:
        return "converges"
    if med > 1.0 + HEURISTIC_MARGIN:
        return "diverges"
    return "inconclusive"


# Error bound of ``_float_median`` against the float ratios that
# ``ratio_points`` gives for the exact window, with u = 2**-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 3: gamma_n = nu/(1 - nu)).
# Every product and every rounded input below has a modulus in
# [_FLOAT_LO, _FLOAT_HI], so no part of it overflows, and a part that
# underflows errs by at most 2**-1075 absolute, under 2**-170 of the modulus,
# which the safety factor absorbs: the usual relative error model holds.
# - w = 1/(a - u) and c are rounded from exact values, the binomial
#   C(m+2k-1, 2k) from an integer and the Catalan factor 2(2k+1)/(k+2) from
#   two: each errs by at most u (a complex one part by part, so in modulus too).
# - A complex product errs by at most sqrt(5) u < 3u relative (Brent, Percival
#   and Zimmermann, Math. Comp. 76 (2007) 1469-1481), a square formed as
#   ((x + y)(x - y), 2xy) by at most 3u, and a real times a complex one by u.
# - w**E, by one binary power (``pde._gauss_pow``) and steps by w**2, is a
#   product tree of E factors w whose E - 1 products count once per use: a
#   relative error of at most (1 + u)**E (1 + 3u)**(E-1). Times c, the
#   binomial and their product: each pole's term t carries gamma_{4E+3}
#   relative.
# - n terms add up part by part with gamma_{n-1} times sqrt(2) sum |t|.
# So |S - S_exact| <= (4E + 2n + 3) u A (1 + O(u)) with A = sum |t| over
# the poles and E the largest exponent, and the term bound is that times
# _SAFETY. A term whose modulus exceeds its bound is nonzero, and its
# modulus is within bound / |S| of the exact one, relative.
# A ratio |h| q_k |S_{k+1}| / |S_k| adds nine roundings (|h|, q_k, their
# product, two moduli of 2u each, the quotient, the product), and the exact
# path's ratio is within 1.5u of the true one (a correctly rounded square,
# then its root): 11u, times _SAFETY, on top of the two terms' relative
# bounds. The median of five ratios moves by at most the largest of them.
_UNIT = 2.0**-53
_SAFETY = 100
_FLOAT_LO = 2.0**-900
_FLOAT_HI = 2.0**900


def _float_median(seed, offsets, h_abs, K):
    """The median of the last five ratios |h| |g_{k+2}(u)| / |g_{k+1}(u)| in
    floats, or None when it cannot decide the verdict.

    g_{k+1}(u) = Catalan_k S_k with S_k = sum_p c_p C(m_p+2k-1, 2k) w_p**(m_p+2k)
    over the poles c_p/(a_p - u)**m_p, and w_p = 1/(a_p - u) rounded once from
    the exact difference: with ``offsets`` = (D, [(x_p, y_p)]) of
    ``seed._pole_offsets(u)``, w_p = D (x_p - i y_p)/(x_p**2 + y_p**2), each
    part one integer true division, which rounds correctly.
    The eleven terms k = k0..K-1, k0 = K - RATIO_TAIL - 1, that the exact
    window run would take start from one binary power of w_p per pole and
    step by w_p**2; consecutive Catalan numbers enter the ratios as the exact
    factor 2(2k+1)/(k+2). None (the exact path decides) when a polynomial part
    reaches the window, when a term is not proven nonzero by its error bound
    (the exact run would then fall back to k = 0), when a modulus or a squared
    ratio leaves [_FLOAT_LO, _FLOAT_HI], or when the median lies within its
    bound of 1 +- HEURISTIC_MARGIN.
    """
    k0 = K - RATIO_TAIL - 1
    poles = [t for t in seed.terms if isinstance(t, PoleTerm)]
    if k0 <= 0 or not poles:
        return None
    if any(2 * k0 < len(t.coeffs) for t in seed.terms if isinstance(t, PolyTerm)):
        return None
    try:
        h = float(h_abs)
        cs = [
            complex(float(t.c.re), float(t.c.im)) if isinstance(t.c, QComplex) else float(t.c)
            for t in poles
        ]
        D, offs = offsets
        ws = []
        for x, y in offs:
            n2 = x * x + y * y
            ws.append(complex(D * x / n2, -D * y / n2))
    except (OverflowError, ZeroDivisionError):
        return None
    if not _FLOAT_LO <= h <= _FLOAT_HI:
        return None
    S = [0j] * (RATIO_TAIL + 1)
    A = [0.0] * (RATIO_TAIL + 1)
    for t, c, w in zip(poles, cs, ws):
        m = t.n
        p = p0 = complex(*_gauss_pow(w.real, w.imag, m + 2 * k0))
        w2 = w * w
        b = 1.0
        for i in range(RATIO_TAIL + 1):
            if i:
                p *= w2
            if m > 1:
                k = k0 + i
                try:
                    b = float(math.comb(m + 2 * k - 1, 2 * k))
                except OverflowError:
                    return None
            term = c * b * p
            a = abs(term)
            if not _FLOAT_LO <= a <= _FLOAT_HI:
                return None
            S[i] += term
            A[i] += a
        # the powers of w between w and its last power, and c times the
        # (nondecreasing) binomials, stay between these moduli
        ends = (abs(w), abs(c), abs(p0), abs(p), abs(c) * b)
        if not (_FLOAT_LO <= min(ends) and max(ends) <= _FLOAT_HI):
            return None
    # the term bound (4E + 2n + 3) u A, times _SAFETY, with E = max m_p + 2k
    units = _SAFETY * _UNIT
    fixed = 4 * max(t.n for t in poles) + 2 * len(poles) + 3
    mods, rels = [], []
    for i, (s, a) in enumerate(zip(S, A)):
        mod = abs(s)
        bound = units * (fixed + 8 * (k0 + i)) * a
        if mod <= bound:
            return None  # not proven nonzero
        mods.append(mod)
        rels.append(bound / mod)
    ratios, tol = [], 0.0
    for i in range(RATIO_TAIL - 5, RATIO_TAIL):
        k = k0 + i
        r = h * (2 * (2 * k + 1) / (k + 2)) * (mods[i + 1] / mods[i])
        if not _FLOAT_LO <= r * r <= _FLOAT_HI:
            return None
        ratios.append(r)
        tol = max(tol, rels[i] + rels[i + 1])
    med = statistics.median(ratios)
    tol = med * (tol + 11 * units)
    for edge in (1.0 - HEURISTIC_MARGIN, 1.0 + HEURISTIC_MARGIN):
        if abs(med - edge) <= tol:
            return None
    return med


def _divergence_witness(seed, u0, R, R1, pairs):
    """A bidisc point with 4|h| > d(u)**2, confirmed by the exact heuristic.

    u sits on the segment from u* toward the offending pole, far enough in
    that the pointwise radius d(u)**2/4 drops below R1; |h| is the midpoint
    of (d(u)**2/4, R1), so the point stays strictly inside the bidisc.
    ``pairs`` is ``seed._pole_distances2(u0)``.
    """
    # min keeps the first of equally near poles (conjugate pairs tie)
    a, d2 = min(pairs, key=lambda pair: pair[1])
    sq_d = math.sqrt(float(d2))
    t_lo = max(0.0, 1.0 - 2.0 * math.sqrt(float(R1)) / sq_d)
    t_hi = min(1.0, float(R) / sq_d)
    for mid in (0.5, 0.45, 0.55, 0.4, 0.6, 0.35, 0.65):
        t = Fraction(*_limit_ratio(t_lo + (t_hi - t_lo) * mid, 1000))
        u = QComplex(u0.re + t * (a.re - u0.re), u0.im + t * (a.im - u0.im))
        d2u = seed.min_pole_distance2(u)
        if t * t * d2 < R * R and d2u < 4 * R1 and d2u > 0:
            break
    else:
        raise DomainError("could not place a witness inside the bidisc")
    h_abs = d2u / 8 + R1 / 2  # midpoint of (d2u/4, R1)
    pred_ratio = float(4 * h_abs / d2u)
    K = witness_terms(pred_ratio)
    confirmed, tail = confirm_divergence(seed, u, h_abs, K)
    return DivergenceWitness(
        u=u.to_complex(),
        h=float(h_abs),
        predicted_ratio=pred_ratio,
        terms=K,
        tail_ratios=tail,
        confirmed=confirmed,
    )


def witness_report(w: DivergenceWitness) -> ConvergenceReport:
    """Witness recast as a CSV-friendly convergence report."""
    return ConvergenceReport(
        u=w.u,
        ratios=w.tail_ratios,
        estimated_radius=math.nan,
        # pred_ratio = 4|h| / d(u)**2, so the pointwise radius d(u)**2/4 is:
        predicted_radius=w.h / w.predicted_ratio,
        verdict="diverges" if w.confirmed else "inconclusive",
    )


def in_union_domain(h, u, u_star, R0) -> bool:
    """Strict membership |u - u*| + 2 sqrt(|h|) < R0, decided exactly.

    Inputs are read exactly (floats as decimals). With A = |u - u*|**2 and
    B = |h|**2 the test reads sqrt(A) + 2 B**(1/4) < R0. It needs R0 > 0
    and R0**2 > A, and then 16 B < (R0 - sqrt(A))**4, which expands to
    P > 4 R0 (R0**2 + A) sqrt(A) with P = R0**4 + 6 R0**2 A + A**2 - 16 B:
    P must be positive, and then squaring both sides decides it.
    """
    A = (parse_point(u, "u") - parse_point(u_star, "u_star")).abs2()
    B = parse_point(h, "h").abs2()
    R0 = parse_exact(R0, "R0")
    r2 = R0 * R0
    if R0 <= 0 or r2 <= A:
        return False
    P = r2 * r2 + 6 * r2 * A + A * A - 16 * B
    return P > 0 and 16 * r2 * (r2 + A) ** 2 * A < P * P


# -- Cauchy derivative bound ---------------------------------------------------

CIRCLE_SAMPLES = 4096
_BLOCK = 64  # consecutive roots per block of the pruned circle maximum


@functools.cache
def _circle_roots():
    """The CIRCLE_SAMPLES unit roots exp(2 pi i k / CIRCLE_SAMPLES), built
    on the first Cauchy check rather than at import."""
    return tuple(cmath.exp(2j * math.pi * k / CIRCLE_SAMPLES) for k in range(CIRCLE_SAMPLES))


@functools.cache
def _circle_blocks():
    """The roots in runs of _BLOCK consecutive roots, and each run's middle
    root (its root _BLOCK // 2)."""
    roots = _circle_roots()
    blocks = tuple(roots[i:i + _BLOCK] for i in range(0, CIRCLE_SAMPLES, _BLOCK))
    return blocks, tuple(b[_BLOCK // 2] for b in blocks)


# Error bound of ``_block_bounds``, with u = 2**-53 and the rules of the
# ``_float_median`` comment. A sample is abs(S(z)) at a float point z = rho e,
# computed by the circle kernel; T(z) is the sum of |t| over the parts t of
# S at z, with the float constants of ``pde._float_parts``. N counts the
# parts, n is the largest pole order and d the largest polynomial degree.
# - A root e_k lies within the arc theta = 2 pi (_BLOCK / 2) / CIRCLE_SAMPLES
#   = pi/64 of its block's middle root e_mid, so the exact roots lie within
#   the chord 2 sin(theta/2) < theta (1 - 1e-4) of each other. A float root
#   lies within 16u of its exact root (its angle rounds twice, by at most
#   4 pi u, and cmath.exp once per part), and z = rho e errs by u per part.
#   So |z_k - z_mid| <= rho (chord + 36u) < fl(rho _ARC) = reach.
# - The kernel: a - z rounds by u; (a - z)**n, CPython's binary powering for
#   n <= 100, by (1 + u)**n (1 + 3u)**(n-1) as a product tree (see
#   ``_float_median``); c / p, Smith's method, by at most 7u in modulus. So
#   a pole part errs by (4n + 4)u of its modulus. Horner's rule from 0j, d
#   complex products and d + 1 additions, errs by 4(d + 1)u of
#   sum |c_j| |z|**j. The N parts add up within (N - 1)u of the sum of their
#   moduli, and abs (hypot, within one ulp) adds 2u. A sample is at most
#   T(z) (1 + (4n + 4d + N + 10)u).
# - The bound: |c| (hypot) errs by 2u; x = fl(|a - z_mid| _NEAR) lies below
#   |a - z_mid|, which errs by 3u; g = fl(x - reach) <= (1 + u) |a - z| over
#   the block, and g**n (pow, within one ulp) and |c| / g**n add 3u: each
#   pole term bounds its part at every z of the block within (n + 5)u.
#   |z| <= rho (1 + 3u), and Horner's rule over |c_j| and rho rounds 2d
#   times on nonnegative values: within 5d u. N nonnegative terms add up
#   within (N - 1)u, and the widening and the slack round twice.
# So a sample is at most the bound times 1 + (5n + 9d + 2N + 16)u (1 + O(u)):
# the widening is that count times _SAFETY. The range tests of
# ``_block_bounds`` keep every power of |a - z| on the circle (and so every
# step of the binary powering) in [_FLOAT_LO, _FLOAT_HI], and max(1, rho)**d
# and sum |c_j| max(1, rho)**j, which bounds every Horner step, below
# _FLOAT_HI. So no skipped sample overflows or raises, and a rounding that
# underflows, off by at most 2**-1075 absolute, grows by at most 2**900
# before it reaches a sample or a bound: the slack 2**-170 per part and per
# degree covers it. A sample below a bound that is below a sampled value is
# smaller than that value.
_ARC = 2 * math.pi * (_BLOCK // 2) / CIRCLE_SAMPLES
_NEAR = 1 - 2.0**-48
_POWER_BITS = 900  # log2 of _FLOAT_HI


def _block_bounds(parts, rho):
    """One upper bound of the circle's samples per block of
    ``_circle_blocks``, each widened by its rounding margin; a block next
    to a pole, where no bound is formed, reads inf. None (the full sweep
    runs) when the seed has no pole, whose bound would prune nothing, when
    a pole's order exceeds 100 or when rho or a power of |a - z| on the
    circle leaves [_FLOAT_LO, _FLOAT_HI], which takes in the kernel path of
    rho outside +-2**1000."""
    poles = [t for t in parts if not isinstance(t, PolyTerm)]
    if not poles or not _FLOAT_LO <= rho <= _FLOAT_HI:
        return None
    for a, _, n in poles:
        if n > 100 or n * math.log2(math.hypot(a.real, a.imag) + rho) > _POWER_BITS:
            return None
    lift = max(1.0, rho)
    poly, deg = 0.0, 0
    for t in parts:
        if isinstance(t, PolyTerm):
            lo = hi = 0.0
            for c in reversed(t.coeffs):
                lo = lo * rho + abs(float(c))
                hi = hi * lift + abs(float(c))
            deg = max(deg, len(t.coeffs) - 1)
            if hi > _FLOAT_HI:
                return None
            poly += lo
    if deg * math.log2(lift) > _POWER_BITS:
        return None
    top = max(n for _, _, n in poles)
    widen = 1 + _SAFETY * _UNIT * (5 * top + 9 * deg + 2 * len(parts) + 16)
    slack = (len(parts) + deg) * 2.0**-170
    reach = rho * _ARC
    # math.hypot, where abs raises on overflow
    poles = [(a, math.hypot(c.real, c.imag), n) for a, c, n in poles]
    bounds = []
    for e in _circle_blocks()[1]:
        z = rho * e
        total = poly
        for a, c, n in poles:
            g = abs(a - z) * _NEAR - reach
            gn = g**n if g > 0 else 0.0
            if gn < _FLOAT_LO:
                total = math.inf
                break
            total += c / gn
        bounds.append(total * widen + slack)
    return bounds


def _circle_max(parts, circle, rho):
    """max(circle(rho, _circle_roots())) to the bit, from the blocks that can
    hold it (see ``cauchy_bound_check``)."""
    bounds = _block_bounds(parts, rho)
    if bounds is not None:
        blocks, mids = _circle_blocks()
        try:
            values = circle(rho, mids)
            best, total = max(values), sum(values)
            for i in sorted(range(len(blocks)), key=bounds.__getitem__, reverse=True):
                if bounds[i] < best:
                    break
                values = circle(rho, blocks[i])
                best, total = max(best, *values), total + sum(values)
        except (DomainError, OverflowError):
            total = math.nan  # the full sweep raises it at its first sample
        # a finite sum of the samples taken means each of them is finite
        if math.isfinite(total):
            return best
    return max(circle(rho, _circle_roots()))


@dataclass(frozen=True)
class CauchyReport:
    c_eps: float
    n_max: int
    max_ratio: float     # worst |f^(n)(z)| / bound over all samples
    worst_n: int
    worst_z: complex
    passed: bool


def cauchy_bound_check(seed: SeedFunction, r, r0, eps, n_max: int) -> CauchyReport:
    """Check |f^(n)(z)| <= C(eps) n! (r-eps) / (r-r0-eps)^(n+1) for |z| <= r0.

    C(eps) is the sampled maximum of |f| on the circle |t| = r - eps
    (4096 points). The inequality is the Cauchy integral estimate, so a
    pass is expected for any f analytic in |z| < r; a small relative slack
    absorbs the sampling of the circle maximum.

    The maximum is found without evaluating every sample. The roots fall
    into 64 blocks of 64 consecutive roots. Each block's middle root is
    sampled first, and each block gets an upper bound for its samples:
    sum_p |c_p| / (|a_p - z_mid| - delta)**n_p + sum_j |c_j| rho**j, where
    delta bounds the distance of the block's points from its middle point,
    widened by a derived rounding margin (``_block_bounds``). Blocks are
    sampled in descending bound order until a bound falls strictly below
    the largest sample so far; every skipped sample is then smaller than
    that, so the maximum keeps its bits. All 4096 samples run, as one
    sweep, for a seed without poles or with a pole of order above 100, for
    rho or pole powers beyond float range, and when a sample is not finite
    (the maximum over a nan depends on the order) or raises.

    A bound that is not a finite positive float at some n <= n_max checks
    nothing, and is a UsageError naming the first such n. It overflows by
    n = 171, where n! does, or sooner; the power of r - r0 - eps can also
    under- or overflow. So is an n at which the kernel of order n would
    convert a rising factor (m)(m+1)...(m+n-1) past float range, for the
    largest pole order m; that n is found before any kernel of order
    n >= 1 is built. A C(eps) that is not a finite float (a sample's
    modulus past float range) is a UsageError too.
    """
    r_q = parse_exact(r, "r")
    r = float(r_q)
    r0 = float(parse_exact(r0, "r0"))
    eps = float(parse_exact(eps, "eps"))
    if not 0.0 <= r0 < r:
        raise UsageError("need 0 <= r0 < r")
    if not 0.0 < eps < r - r0:
        raise UsageError("need 0 < eps < r - r0")
    if n_max < 0:
        raise UsageError("n_max must be nonnegative")
    # exact, so that a pole on the circle |z| = r stays outside the open disc
    if any(a.abs2() < r_q * r_q for a in seed.poles()):
        raise UsageError(
            "seed has a pole inside |z| < r; the bound requires analyticity there"
        )
    parts = _float_parts(seed)
    value, circle = _order_kernels(parts, 0)
    rho = r - eps
    try:
        c_eps = _circle_max(parts, circle, rho)
    except OverflowError:  # a sample's modulus past float range
        c_eps = math.inf
    if not math.isfinite(c_eps):
        raise UsageError(
            f"cauchy: C(eps), the maximum of |g1| on |z| = r - eps, is {c_eps!r}, "
            "not a finite float"
        )
    gap = r - r0 - eps
    top = max((t.n for t in seed.terms if isinstance(t, PoleTerm)), default=1)
    bounds = []
    fact = 1.0
    rise = 1  # (top)(top+1)...(top+n-1), the largest pole's kernel factor
    denom = gap
    for n in range(n_max + 1):
        if n > 0:
            fact *= n
            rise *= top + n - 1
            denom *= gap
        bound = c_eps * fact * rho / denom if denom else math.inf
        if not 0.0 < bound < math.inf:
            raise UsageError(
                f"cauchy: the bound C(eps) n! (r-eps)/(r-r0-eps)^(n+1) is {bound!r} "
                f"at n = {n}, not a finite positive float; n_max must be below {n}"
            )
        try:
            float(rise)  # as the kernel of order n converts it
        except OverflowError:
            raise UsageError(
                f"cauchy: the rising factor ({top})...({top + n - 1}) of a pole of "
                f"order {top} leaves float range at n = {n}; n_max must be below {n}"
            ) from None
        bounds.append(bound)
    z_points = [0j]
    for frac in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        for k in range(8):
            z_points.append(r0 * float(frac) * cmath.exp(2j * math.pi * k / 8))
    max_ratio = 0.0
    worst = (0, 0j)
    for n, bound in enumerate(bounds):
        f = _order_kernels(parts, n)[0] if n else value
        for z in z_points:
            ratio = abs(f(z)) / bound
            if ratio > max_ratio:
                max_ratio = ratio
                worst = (n, z)
    return CauchyReport(
        c_eps=c_eps,
        n_max=n_max,
        max_ratio=max_ratio,
        worst_n=worst[0],
        worst_z=worst[1],
        passed=max_ratio <= 1.0 + 1e-6,
    )


# -- variable-alpha probe ------------------------------------------------------


def variable_alpha_probe(seed: SeedFunction, alpha, order: int, u_list) -> list:
    """Exploratory radius probes for the potential built with general alpha.

    With B_0(v) = g1(v/2), the potential's recurrence makes each row
    B_k = sum_{m<=k} c_km B_0^(2m), with c_00 = 1 and
    c_{k+1,m+1} = (4 c_km + sum_{l=1..k} alpha_l c_{k-l,m}) / ((k+1)(k+2)).
    As B_0^(2m)(2u) = m!(m+1)!/4**m g_{m+1}(u), the rows at a probe point are
    B_k(2u) = sum_{m<=k} w_km g_{m+1}(u), w_km = c_km m!(m+1)!/4**m: exact at
    every u, from the terms k <= order of one ``_exact_terms`` run there. The
    predicted radius column carries the alpha == 4 pole law; no agreement is
    asserted. For alpha == 4, w is the identity and the ratios are
    ``radius_probe``'s at the same u and term count; with a finite alpha a
    polynomial seed's rows terminate, and it reads radius inf, as there.
    """
    alpha = [parse_exact(x, f"alpha[{i + 1}]") for i, x in enumerate(alpha)]
    weights = _alpha_weights(alpha, order)
    reports = []
    for u in u_list:
        uq = parse_point(u, "u")
        seed.assert_not_pole(uq, "u")
        rows, _, L2 = _alpha_rows(seed, uq, weights)
        pts = ratio_points([x * x + y * y for x, y in rows], step=L2 * L2)
        reports.append(_probe_report(seed, uq, pts[-RATIO_TAIL:]))
    return reports


def _alpha_weights(alpha, order: int):
    """(w, W): the rows w[k][m] = W w_km, k <= order, m <= k, of the
    ``variable_alpha_probe`` weights as integers over one denominator W;
    ``alpha`` holds alpha_1, alpha_2, ... as Fractions. The c triangle's
    recurrence times (m+1)!(m+2)!/4**(m+1) builds w directly: w_00 = 1 and
    w_{k+1,m+1} = (m+1)(m+2) (4 w_km + sum_l alpha_l w_{k-l,m}) / (4(k+1)(k+2)).
    It runs in integers: with alpha_l = A_l/a_d over their common
    denominator a_d, row k is held over D_k, D_0 = 1 and
    D_{k+1} = 4(k+1)(k+2) a_d D_k, so the numerators of row k + 1 are
    (m+1)(m+2) (4 a_d n_km + sum_l A_l (D_k/D_{k-l}) n_{k-l,m})."""
    ad = math.lcm(*(a.denominator for a in alpha))
    A = [a.numerator * (ad // a.denominator) for a in alpha]  # alpha_l = A_l / ad
    n, dens = [[1]], [1]  # w_km = n[k][m] / dens[k]
    for k in range(order):
        # alpha_l w_{k-l,m} over ad dens[k]: dens[k - l] divides dens[k]
        lifts = [(l, A[l - 1], dens[k] // dens[k - l]) for l in range(1, min(k, len(A)) + 1) if A[l - 1]]
        nxt = [0] * (k + 2)
        for m in range(k + 1):
            acc = 4 * ad * n[k][m]
            for l, a, f in lifts:
                if l > k - m:
                    break
                acc += a * f * n[k - l][m]
            nxt[m + 1] = (m + 1) * (m + 2) * acc
        n.append(nxt)
        dens.append(4 * (k + 1) * (k + 2) * ad * dens[k])
    # over the last denominator, reduced once: the lcm of the reduced
    # denominators D/gcd(D, x) is D/gcd(D, every x)
    D = dens[-1]
    w = [[x * (D // d) for x in row] for row, d in zip(n, dens)]
    g = math.gcd(D, *(x for row in w for x in row))
    return [[x // g for x in row] for row in w], D // g


def _alpha_rows(seed: SeedFunction, u: QComplex, weights):
    """(T, W den0, L**2) with B_k(2u) = (X_k + i Y_k) / (W den0 L**(2k)),
    T = [(X_k, Y_k) for k <= order], for the weights (w, W) of
    ``_alpha_weights`` and the terms (x_m + i y_m) / (den0 L**(2m)) of one
    ``_exact_terms`` run: X_k + i Y_k = sum_m w[k][m] (x_m + i y_m) L**(2(k-m))."""
    w, W = weights
    terms, den0, L2 = _exact_terms(seed, u, len(w))
    rows = []
    for row in w:
        X = Y = 0
        for wkm, (x, y) in zip(row, terms):
            X, Y = X * L2 + wkm * x, Y * L2 + wkm * y
        rows.append((X, Y))
    return rows, W * den0, L2
