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
long before the heuristic window is reached). Floats appear in the
Cauchy check, in the terms of a bidisc sample, which fall back to the
exact ones wherever their error bound cannot decide, and in the final
ratio-limit extrapolation and reports.

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
(``_float_median``): each w = 1/(a - u) is rounded once from the exact
difference, each pole takes one binary power of w and then steps by w**2,
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
    ProblemData,
    SeedFunction,
    _complex_evaluator,
    _gauss_pow,
    _seed_b0,
    _seed_kernels,
    _taylor_run,
    expand_potential,
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
    is reduced.
    """
    h2 = Fraction(1) if h_abs2 is None else parse_exact(h_abs2, "h_abs2")
    pts = []
    for i in range(1, len(mags2)):
        a, b = mags2[i - 1], mags2[i]
        if a == 0 or b == 0:
            continue
        num = b.numerator * a.denominator * h2.numerator
        den = b.denominator * a.numerator * step * h2.denominator
        pts.append((first + i, math.sqrt(num / den)))
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
    """(estimated_radius, verdict) from a ratio limit and its relative spread."""
    if not math.isfinite(limit) or spread > SPREAD_TOL:
        return math.nan, "inconclusive"
    return (math.inf if limit <= 1e-12 else 1.0 / limit), "converges"


def radius_probe(seed: SeedFunction, u, K: int = 40) -> ConvergenceReport:
    """Estimate the h-radius at fixed u from K coefficient ratios."""
    if K < 20:
        raise UsageError("radius probe needs K >= 20 terms")
    u = parse_point(u, "u")
    seed.assert_not_pole(u, "u")
    mags, first, step = _tail_run(seed, u, K, RATIO_TAIL + 1)
    pts = ratio_points(mags, step=step, first=first)[-RATIO_TAIL:]
    pred = predicted_radius(seed, u)
    uf = u.to_complex()
    ratios = tuple(r for _, r in pts)
    if seed.is_entire():
        return ConvergenceReport(uf, ratios, math.inf, math.inf, "converges")
    est, verdict = _radius_verdict(*richardson_limit(pts))
    return ConvergenceReport(uf, ratios, est, pred, verdict)


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
    # the float ratios of ``ratio_points``: one true division of the same integers
    return divergence_heuristic(sq), tuple(math.sqrt(q.num / q.den) for q in sq)


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
    poles = seed.poles()
    rows = []
    for i in range(samples):
        u, h, h_abs = _sample_bidisc_point(rnd, u0, R, R1, poles, complex_h=(i % 4 == 3))
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


def _limit_denominator(x: float, max_den: int) -> Fraction:
    """Fraction(x).limit_denominator(max_den) in integers: the fraction
    nearest x with a denominator of at most max_den, from the continued
    fraction of x's integer ratio. The walk, the bound on the last
    semiconvergent and the tie rule (the convergent p1/q1 wins a tie) are
    CPython's, so the result is the identical Fraction, with no Fraction
    arithmetic on the way."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return Fraction(n, d)
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
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def _sample_bidisc_point(rnd, u0, R, R1, poles, complex_h=False):
    """Rational point of the open bidisc; |h| stays exactly rational. A u
    on one of the seed's ``poles`` is drawn again, as is one outside the
    disc: the series has no terms there."""
    den = 128
    while True:
        xr = _limit_denominator(rnd.uniform(-1.0, 1.0), den)
        yr = _limit_denominator(rnd.uniform(-1.0, 1.0), den)
        if 0 < xr * xr + yr * yr < 1:
            u = QComplex(u0.re + R * xr, u0.im + R * yr)
            if u not in poles:
                break
    while True:
        m = _limit_denominator(rnd.uniform(0.0, 1.0), den) * R1
        if m != 0:
            break
    if complex_h:
        h = QComplex(m * Fraction(3, 5), rnd.choice((1, -1)) * m * Fraction(4, 5))
    else:
        h = QComplex(rnd.choice((1, -1)) * m)
    return u, h, m


def _classify_sample(seed, u, h, h_abs, K):
    """The sample's predicted class from the exact 4|h| against d(u)**2, and
    its observed verdict; both read the exact differences a - u."""
    diffs = [a - u for a in seed.poles()]
    d2 = min((z.abs2() for z in diffs), default=None)
    if d2 is None or 4 * h_abs < d2:
        predicted = "converges"
    elif 4 * h_abs > d2:
        predicted = "diverges"
    else:
        predicted = "boundary"
    observed = _observe_point(seed, u, h_abs, K, diffs)
    return BidiscSample(
        u=u.to_complex(),
        h=h.to_complex(),
        predicted=predicted,
        observed=observed,
    )


def _observe_point(seed, u, h_abs, K, diffs) -> str:
    """Ratio-tail verdict for the series at a concrete (u, h), |h| = h_abs
    exact: the median of the last five ratios, read from the last six terms.

    The terms are first computed in floats from the differences
    diffs = [a - u] of the seed's poles (``_float_median``); only where the
    error bound of that path cannot decide do the exact ratios of the window
    run (``_tail_run``, ``ratio_points``) decide, so the verdict is always
    the exact one."""
    med = _float_median(seed, diffs, h_abs, K)
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


def _float_median(seed, diffs, h_abs, K):
    """The median of the last five ratios |h| |g_{k+2}(u)| / |g_{k+1}(u)| in
    floats, or None when it cannot decide the verdict.

    g_{k+1}(u) = Catalan_k S_k with S_k = sum_p c_p C(m_p+2k-1, 2k) w_p**(m_p+2k)
    over the poles c_p/(a_p - u)**m_p, and w_p = 1/(a_p - u) rounded once from
    the exact difference in ``diffs``.
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
        ws = []
        for z in diffs:
            # a - u = (x + i y) / qs over the product qs of its denominators
            x, y = z.re.numerator * z.im.denominator, z.im.numerator * z.re.denominator
            qs, n2 = z.re.denominator * z.im.denominator, x * x + y * y
            ws.append(complex(qs * x / n2, -(qs * y) / n2))
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
        t = _limit_denominator(t_lo + (t_hi - t_lo) * mid, 1000)
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


@functools.cache
def _circle_roots():
    """The CIRCLE_SAMPLES unit roots exp(2 pi i k / CIRCLE_SAMPLES), built
    on the first Cauchy check rather than at import."""
    return tuple(cmath.exp(2j * math.pi * k / CIRCLE_SAMPLES) for k in range(CIRCLE_SAMPLES))


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
    value, circle = _seed_kernels(seed, 0)
    rho = r - eps
    c_eps = max(circle(rho, _circle_roots()))
    z_points = [0j]
    for frac in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        for k in range(8):
            z_points.append(r0 * float(frac) * cmath.exp(2j * math.pi * k / 8))
    gap = r - r0 - eps
    max_ratio = 0.0
    worst = (0, 0j)
    fact = 1.0
    denom = gap
    for n in range(n_max + 1):
        if n > 0:
            fact *= n
            denom *= gap
        bound = c_eps * fact * rho / denom
        f = _complex_evaluator(seed, n) if n else value
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


def variable_alpha_probe(
    seed: SeedFunction, alpha, u_star, order: int, u_list
) -> list:
    """Exploratory radius probes for the potential built with general alpha.

    The boundary row comes from the seed through u = v/2; the potential is
    expanded exactly and its h-rows are evaluated at each probe u. The
    predicted radius column carries the alpha == 4 pole law for comparison;
    no agreement is asserted (for alpha == 4 this reduces to radius_probe).
    """
    u_star_q = parse_exact(u_star, "u_star")
    b0 = _seed_b0(seed, u_star_q, order)
    if b0 is None:
        raise UsageError("variable-alpha probe needs a seed real on the real axis")
    problem = ProblemData(b0=b0, alpha=alpha, v_star=2 * u_star_q)
    rows = expand_potential(problem, order).rows
    # row k cut at j <= order - k is row k + 1 of C = hB (``pde.h_scaled``)
    int_rows = [_integer_row(rows[k][: order - k + 1]) for k in range(order + 1)]
    reports = []
    for u in u_list:
        uq = parse_point(u, "u")
        v_val = (uq - QComplex(u_star_q)) * 2
        pts = ratio_points([_row_mag2(row, v_val) for row in int_rows])[-RATIO_TAIL:]
        limit, spread = richardson_limit(pts)
        pred = predicted_radius(seed, uq)
        est, verdict = _radius_verdict(limit, spread)
        reports.append(
            ConvergenceReport(uq.to_complex(), tuple(r for _, r in pts), est, pred, verdict)
        )
    return reports


def _integer_row(row: list):
    """(d, [n_J, ..., n_0]) with row[j] = n_j / d over the row's common denominator."""
    d = math.lcm(*(x.denominator for x in row))
    return d, [x.numerator * (d // x.denominator) for x in reversed(row)]


def _row_mag2(int_row, v: QComplex) -> Fraction:
    """|sum_j row[j] v**j|**2 as one Fraction, by integer Horner.

    With v = (vr + i vi)/vd, the homogeneous Horner sum
    S = sum_j n_j (vr + i vi)**j vd**(J-j) gives row(v) = S/(d vd**J), so
    no Fraction is built in the loop.
    """
    d, nums = int_row
    vd = math.lcm(v.re.denominator, v.im.denominator)
    vr = v.re.numerator * (vd // v.re.denominator)
    vi = v.im.numerator * (vd // v.im.denominator)
    X, Y = nums[0], 0
    scale = 1
    for n in nums[1:]:
        scale *= vd
        X, Y = X * vr - Y * vi + n * scale, X * vi + Y * vr
    den = d * scale
    return Fraction(X * X + Y * Y, den * den)

