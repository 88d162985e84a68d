"""Boundary data and series solutions of the hodograph potential equation.

The potential B(h, v) solves  h*B_hh + 2*B_h = alpha(h)*B_vv  with
alpha(0) = 4. Writing B = sum_k h**k B_k(v), the equation becomes the
recurrence

    B_{k+1} = [4*B_k'' + sum_{l=1..k} alpha_l * B_{k-l}''] / ((k+1)(k+2)),

so the whole series is determined by the boundary row B_0(v). For
alpha == 4 the substitution C = h*B, u = v/2 turns the equation into
h*C_hh = C_uu, whose solutions with analytic seed g1(u) are the series

    G(h, u) = g1(u)*h + sum_{k>=1} g1^(2k)(u) / (k! (k+1)!) * h**(k+1).

This module owns both sides of that bridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneracyError, DomainError, UsageError
from .scalars import QComplex, parse_exact, parse_point
from .series import (
    EXACT,
    EXACT_CAP_CEILING,
    FLOAT,
    Series2,
    variable2,
)


class ProblemData:
    """Boundary Taylor data b0_j, the alpha coefficients, and the base point.

    ``alpha`` holds alpha_j for j >= 1 (alpha(0) = 4 is fixed) and is always a
    finite polynomial truncation: absent entries mean exact zeros. ``b0`` is
    different: entries beyond the list are unknown data unless
    ``b0_polynomial=True`` declares the list to be the complete polynomial.
    """

    __slots__ = ("b0", "alpha", "v_star", "b0_polynomial")

    def __init__(self, b0, alpha=(), v_star=0, b0_polynomial=False):
        self.b0 = tuple(parse_exact(x, f"b0[{i}]") for i, x in enumerate(b0))
        self.alpha = tuple(parse_exact(x, f"alpha[{i + 1}]") for i, x in enumerate(alpha))
        self.v_star = parse_exact(v_star, "v_star")
        self.b0_polynomial = bool(b0_polynomial)

    def b0_at(self, j: int) -> Fraction:
        if j < len(self.b0):
            return self.b0[j]
        if self.b0_polynomial:
            return Fraction(0)
        raise UsageError(f"boundary coefficient b0_{j} is not specified")

    def alpha_at(self, l: int) -> Fraction:
        if l < 1:
            raise UsageError("alpha indices start at 1")
        return self.alpha[l - 1] if l - 1 < len(self.alpha) else Fraction(0)

    def missing_b0(self, order: int) -> list[int]:
        """Indices required to determine all coefficients of total degree <= order."""
        if self.b0_polynomial:
            return []
        return [j for j in range(2 * order + 1) if j >= len(self.b0)]

    @property
    def t_star(self) -> Fraction:
        return self.b0_at(1)

    @property
    def x_star(self) -> Fraction:
        return self.t_star * self.v_star - self.b0_at(0)

    @property
    def b11(self) -> Fraction:
        return 12 * self.b0_at(3)

    def require_singular(self):
        """Cusp constructions need b02 = 0 (vanishing Jacobian) and b03 != 0."""
        if self.b0_at(2) != 0:
            raise DegeneracyError(
                "degenerate: b02 must be 0 (the hodograph Jacobian must vanish "
                "at the base point)"
            )
        if self.b0_at(3) == 0:
            raise DegeneracyError("degenerate: b03 must be nonzero")

    def __eq__(self, other):
        if not isinstance(other, ProblemData):
            return NotImplemented
        return (
            self.b0 == other.b0
            and self.alpha == other.alpha
            and self.v_star == other.v_star
            and self.b0_polynomial == other.b0_polynomial
        )

    def __repr__(self):
        return (
            f"ProblemData(b0=<{len(self.b0)} coeffs>, alpha=<{len(self.alpha)}>, "
            f"v_star={self.v_star}, polynomial={self.b0_polynomial})"
        )


def canonical_problem() -> ProblemData:
    """The reference cusp instance: b03 = 1/12 (so b11 = 1), alpha == 4."""
    return ProblemData(
        b0=(0, 0, 0, Fraction(1, 12)), alpha=(), v_star=0, b0_polynomial=True
    )


@dataclass(frozen=True)
class PotentialSolution:
    """Triangle of potential coefficients b_{kj} plus the full working rows."""

    series: Series2
    problem: ProblemData
    order: int
    rows: tuple  # rows[k][j] = b_{kj}, j up to 2*order - 2*k

    @property
    def mode(self):
        return self.series.mode

    def row_coefficient(self, k: int, j: int):
        if k < len(self.rows) and j < len(self.rows[k]):
            return self.rows[k][j]
        return 0.0 if self.mode == FLOAT else Fraction(0)


def _second_derivative_row(row):
    return [(j + 1) * (j + 2) * row[j + 2] for j in range(len(row) - 2)]


def expand_potential(problem: ProblemData, order: int, mode=EXACT) -> PotentialSolution:
    """Expand the potential in powers of h from the boundary row.

    Determining every coefficient of total degree <= order requires boundary
    data b0_j up to j = 2*order (row k at degree j pulls on b0_{j+2k}).
    """
    if order < 1:
        raise UsageError("order must be at least 1")
    if mode == EXACT and order > EXACT_CAP_CEILING:
        raise UsageError(f"exact mode is capped at order {EXACT_CAP_CEILING}")
    missing = problem.missing_b0(order)
    if missing:
        raise UsageError(
            "insufficient boundary data for order "
            f"{order}: missing b0 indices {missing} (supply them or set "
            "b0_polynomial=True to declare a zero tail)"
        )
    width = 2 * order + 1
    if mode == FLOAT:
        row0 = [float(problem.b0_at(j)) for j in range(width)]
        alpha = [float(problem.alpha_at(l)) for l in range(1, order + 1)]
    else:
        row0 = [problem.b0_at(j) for j in range(width)]
        alpha = [problem.alpha_at(l) for l in range(1, order + 1)]
    rows = [row0]
    dd = [_second_derivative_row(row0)]
    for k in range(order):
        nxt_len = width - 2 * (k + 1)
        acc = [4 * dd[k][j] for j in range(nxt_len)]
        for l in range(1, k + 1):
            al = alpha[l - 1]
            if al:
                src = dd[k - l]
                for j in range(nxt_len):
                    acc[j] += al * src[j]
        den = (k + 1) * (k + 2)
        nxt = [a / den for a in acc]
        rows.append(nxt)
        dd.append(_second_derivative_row(nxt))
    coeffs = {}
    for k in range(order + 1):
        row = rows[k]
        for j in range(min(len(row), order - k + 1)):
            coeffs[(k, j)] = row[j]
    series = Series2(("h", "V"), order, coeffs, mode=mode)
    return PotentialSolution(series, problem, order, tuple(tuple(r) for r in rows))


def alpha_series(problem: ProblemData, names, cap, mode=EXACT) -> Series2:
    """alpha(h) = 4 + sum alpha_l h**l as a series in the given pair."""
    c = {(0, 0): Fraction(4)}
    for l in range(1, cap + 1):
        al = problem.alpha_at(l)
        if al:
            c[(l, 0)] = al
    s = Series2(names, cap, c, mode=EXACT)
    return s.to_float() if mode == FLOAT else s


def potential_residual(sol: PotentialSolution) -> Series2:
    """Series residual h*B_hh + 2*B_h - alpha(h)*B_vv; zero to effective order."""
    B = sol.series
    h = variable2(B.names, B.cap, "h", mode=B.mode)
    al = alpha_series(sol.problem, B.names, B.cap, B.mode)
    return h * B.derivative("h").derivative("h") + B.derivative("h").scale(2) - al * B.derivative("V").derivative("V")


def h_scaled(series: Series2) -> Series2:
    """C = h*B at cap+1; turns the potential equation into h*C_hh = alpha*C_vv."""
    up = series.recap(series.cap + 1)
    h = variable2(up.names, up.cap, up.names[0], mode=up.mode)
    return h * up


def scaled_residual(C: Series2, problem: ProblemData) -> Series2:
    """Series residual h*C_hh - alpha(h)*C_vv."""
    h = variable2(C.names, C.cap, C.names[0], mode=C.mode)
    al = alpha_series(problem, C.names, C.cap, C.mode)
    return h * C.derivative(C.names[0]).derivative(C.names[0]) - al * C.derivative(
        C.names[1]
    ).derivative(C.names[1])


@dataclass(frozen=True)
class RelationCheck:
    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def relation_checklist(sol: PotentialSolution) -> list[RelationCheck]:
    """The eight closed-form links between low rows and the boundary data.

    Row 1 is 2*B0'' and row 2 is (8*B0'''' + alpha1*B0'')/6, which pins
    b_{1j} and b_{2j} to single boundary coefficients; checked exactly.
    Note the (1,4) slot: the recurrence gives 60*b06 (not b05).
    """
    if sol.mode != EXACT:
        raise UsageError("the relation checklist requires exact mode")
    if sol.order < 3:
        raise UsageError("the relation checklist needs order >= 3")
    p = sol.problem
    a1 = p.alpha_at(1)
    specs = [
        ("b10 = 4*b02", (1, 0), 4 * p.b0_at(2)),
        ("b11 = 12*b03", (1, 1), 12 * p.b0_at(3)),
        ("b12 = 24*b04", (1, 2), 24 * p.b0_at(4)),
        ("b13 = 40*b05", (1, 3), 40 * p.b0_at(5)),
        ("b14 = 60*b06", (1, 4), 60 * p.b0_at(6)),
        ("b20 = 32*b04 + alpha1*b02/3", (2, 0), 32 * p.b0_at(4) + a1 * p.b0_at(2) / 3),
        ("b21 = 160*b05 + alpha1*b03", (2, 1), 160 * p.b0_at(5) + a1 * p.b0_at(3)),
        ("b22 = 480*b06 + 2*alpha1*b04", (2, 2), 480 * p.b0_at(6) + 2 * a1 * p.b0_at(4)),
    ]
    return [
        RelationCheck(name, sol.row_coefficient(k, j), rhs)
        for name, (k, j), rhs in specs
    ]


# -- analytic seed functions ---------------------------------------------------


@dataclass(frozen=True)
class PolyTerm:
    """Polynomial component, coefficients ascending."""

    coeffs: tuple

    def differentiated(self):
        return PolyTerm(tuple((j + 1) * c for j, c in enumerate(self.coeffs[1:])))

    def derivative_at(self, u: QComplex, m):
        acc = QComplex(0)
        for j in range(len(self.coeffs) - 1, m - 1, -1):
            acc = acc * u + self.coeffs[j] * math.perm(j, m)
        return acc


@dataclass(frozen=True)
class PoleTerm:
    """Rational component c / (a - u)**n."""

    a: object
    c: object
    n: int = 1

    def differentiated(self):
        return PoleTerm(self.a, self.n * self.c, self.n + 1)

    def derivative_at(self, u: QComplex, m):
        # d^m/du^m (a-u)^(-n) = (n)(n+1)...(n+m-1) (a-u)^(-n-m)
        try:
            return self.c * math.prod(range(self.n, self.n + m)) / (self.a - u) ** (self.n + m)
        except ZeroDivisionError:
            raise _zero_power(self.a, u, self.n + m, m) from None


def _zero_power(a, u, power, m) -> DomainError:
    """The refusal for (a - u)**power == 0: u on the pole a, or so near it
    that the float power underflows."""
    return DomainError(
        f"seed pole at a = {a!r}: (a - u)**{power} is zero at u = {u!r} "
        f"(derivative order {m})"
    )


def _exact_term(t):
    """The component with exact constants: polynomial coefficients as
    Fractions, a pole's position as a QComplex and its residue as a
    Fraction when real, else a QComplex; floats read as exact decimals."""
    if isinstance(t, PolyTerm):
        return PolyTerm(tuple(parse_exact(c, f"poly[{j}]") for j, c in enumerate(t.coeffs)))
    if isinstance(t, PoleTerm):
        c = parse_point(t.c, "pole.c")
        return PoleTerm(parse_point(t.a, "pole.a"), c.re if c.is_real() else c, t.n)
    raise UsageError(f"unknown seed component {type(t).__name__}")


class SeedFunction:
    """g1(u) as a finite sum of polynomial and simple-pole components.

    Every component is held exactly (see ``_exact_term``), so the seed is
    evaluated exactly at exact points, and at any other point by the one
    float evaluator ``_complex_evaluator``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(_exact_term(t) for t in terms)
        if not terms:
            raise UsageError("seed function needs at least one component")
        self.terms = terms

    @classmethod
    def from_config(cls, obj, field="g1"):
        """Mini-grammar: list of {poly: [c0, c1, ...]} / {pole: {a: .., c: ..}}."""
        if isinstance(obj, dict):
            obj = [obj]
        if not isinstance(obj, (list, tuple)):
            raise UsageError(f"{field}: expected a list of components")
        terms = []
        for idx, comp in enumerate(obj):
            where = f"{field}[{idx}]"
            if not isinstance(comp, dict) or len(comp) != 1:
                raise UsageError(f"{where}: each component is one of poly:/pole:")
            (kind, body), = comp.items()
            if kind == "poly":
                if not isinstance(body, (list, tuple)):
                    raise UsageError(f"{where}: poly needs a coefficient list")
                terms.append(
                    PolyTerm(tuple(parse_exact(c, f"{where}.poly[{i}]") for i, c in enumerate(body)))
                )
            elif kind == "pole":
                if not isinstance(body, dict) or "a" not in body or "c" not in body:
                    raise UsageError(f"{where}: pole needs keys a and c")
                a = parse_point(body["a"], f"{where}.pole.a")
                c = parse_point(body["c"], f"{where}.pole.c")
                terms.append(PoleTerm(a, c, 1))
            else:
                raise UsageError(f"{where}: unknown component kind {kind!r}")
        return cls(terms)

    def differentiated(self) -> "SeedFunction":
        """Symbolic derivative, component by component."""
        out = []
        for t in self.terms:
            d = t.differentiated()
            if isinstance(d, PolyTerm) and not d.coeffs:
                continue
            out.append(d)
        if not out:
            out = [PolyTerm((Fraction(0),))]
        return SeedFunction(out)

    def value_at(self, u):
        return self.derivative_at(u, 0)

    def derivative_at(self, u, m: int):
        """m-th derivative at u by the closed component formulas: exact at a
        QComplex, int or Fraction point, in complex floats
        (``_complex_evaluator``) at any other point."""
        if isinstance(u, (int, Fraction)):
            u = QComplex(u)
        elif not isinstance(u, QComplex):
            return _complex_evaluator(self, m)(complex(u))
        total = None
        for t in self.terms:
            v = t.derivative_at(u, m)
            total = v if total is None else total + v
        return total

    def poles(self):
        return tuple(t.a for t in self.terms if isinstance(t, PoleTerm))

    def is_entire(self) -> bool:
        return not self.poles()

    def _pole_distances2(self, u):
        """(pole, exact squared distance from u) for each pole, in seed order.

        u is read by ``parse_point``, so a float point counts as its decimal.
        """
        ps = self.poles()
        if not ps:
            return []
        u = parse_point(u, "u")
        return [(a, (a - u).abs2()) for a in ps]

    def min_pole_distance2(self, u):
        """Exact squared distance (a Fraction) from u to the nearest pole;
        None when entire."""
        return min((d2 for _, d2 in self._pole_distances2(u)), default=None)

    def assert_not_pole(self, u, field="u"):
        d2 = self.min_pole_distance2(u)
        if d2 is not None and d2 == 0:
            raise DomainError(f"{field} sits exactly on a pole of the seed function")


def _complex_evaluator(seed: SeedFunction, m: int):
    """z -> the m-th derivative of the seed at a complex z, in floats.

    The one float evaluation of a seed. The per-term constants are
    converted once, outside the per-point call: a pole's position and
    residue as complex numbers, the residue then times the rising factor
    (n)(n+1)...(n+m-1) when m > 0, and a polynomial coefficient as the exact
    c_j * perm(j, m), rounded once the way complex arithmetic converts a
    Fraction. A power (a - z)**k that is zero (z on the pole, or so near it
    that the power underflows) is a DomainError.
    """
    parts = []  # (a, c, power) for poles, (None, coefficients high to low, 0)
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
                    raise _zero_power(a, z, power, m) from None
            total = v if total is None else total + v
        return total

    return evaluate


class KorobeinikSeries:
    """G(h, u) = g1(u) h + sum_{k>=1} g1^(2k)(u)/(k!(k+1)!) h^(k+1).

    Coefficient functions are closures over the seed; nothing is tabulated
    until a value is requested.
    """

    __slots__ = ("seed", "cap")

    def __init__(self, seed: SeedFunction, cap: int):
        if cap < 1:
            raise UsageError("cap must be at least 1")
        self.seed = seed
        self.cap = cap

    def coefficient(self, n: int, u):
        """g_n(u); n >= 1. Exact at a QComplex, int or Fraction u, in complex
        floats (``_float_coefficient``) at any other u."""
        if n < 1:
            raise UsageError("coefficient index starts at 1")
        if not isinstance(u, (int, Fraction, QComplex)):
            return self._float_coefficient(n)(complex(u))
        k = n - 1
        d = self.seed.derivative_at(u, 2 * k)
        return d if k == 0 else d / (math.factorial(k) * math.factorial(k + 1))

    def _float_coefficient(self, n: int):
        """z -> g_n(z) in complex floats: the seed's value form for n = 1,
        else its evaluator of order 2k = 2(n - 1) divided by the int
        k!(k+1)!. Built once, it serves any number of points."""
        k = n - 1
        f = _complex_evaluator(self.seed, 2 * k)
        if k == 0:
            return f
        div = math.factorial(k) * math.factorial(k + 1)
        return lambda z: f(z) / div

    def partial_sum(self, h, u, terms: int | None = None):
        """sum_{n=1..terms} g_n(u) h^n (complex or exact, following inputs)."""
        n_terms = self.cap if terms is None else min(terms, self.cap)
        total = None
        hp = None
        for n in range(1, n_terms + 1):
            hp = h if hp is None else hp * h
            v = self.coefficient(n, u) * hp
            total = v if total is None else total + v
        return total

    def recurrence_residuals(self, u_points):
        """Exact residuals k(k+1) g_{k+1}(u) - g_k''(u) for k = 1..cap - 1.

        g_k'' is computed through the symbolic derivative chain
        g_{k+1} = g_k'' / (k (k+1)), independent of the closed factorial
        formula used by :meth:`coefficient`; both routes must agree.
        """
        out = []
        gk = self.seed  # symbolic g_k, starting at k = 1
        for k in range(1, self.cap):
            gk_dd = gk.differentiated().differentiated()
            for u in u_points:
                lhs = self.coefficient(k + 1, u) * (k * (k + 1))
                rhs = gk_dd.value_at(u)
                out.append(lhs - rhs)
            gk = SeedFunction(
                [_scale_term(t, Fraction(1, k * (k + 1))) for t in gk_dd.terms]
            )
        return out


def _scale_term(t, s):
    if isinstance(t, PolyTerm):
        return PolyTerm(tuple(c * s for c in t.coeffs))
    return PoleTerm(t.a, t.c * s, t.n)


def korobeinik_series(seed: SeedFunction, u_star, cap: int) -> KorobeinikSeries:
    """Series solution of h*G_hh = G_uu with boundary row g1 about u_star."""
    seed.assert_not_pole(u_star, "u_star")
    return KorobeinikSeries(seed, cap)


@dataclass(frozen=True)
class BridgeCheck:
    """Term-by-term comparison of the two constructions at alpha == 4."""

    ok: bool
    order: int
    checked: int
    mismatches: tuple


def _gauss_pow(zr: int, zi: int, n: int):
    """(zr + i zi)**n for n >= 0 by binary powering (Knuth, TAOCP 2, 4.6.3)."""
    pr, pi = 1, 0
    while n:
        if n & 1:
            pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
        n >>= 1
        if n:
            zr, zi = (zr + zi) * (zr - zi), 2 * zr * zi
    return pr, pi


def _taylor_run(seed: SeedFunction, u: QComplex, start: int, stop: int, stride: int = 1):
    """(T, den0, L) with [z**j] g1(u + z) = (X_j + i Y_j)/(den0 L**j) and
    T = [(X_j, Y_j) for j in range(start, stop, stride)], signed Gaussian
    integers: the one exact run of the seed's Taylor coefficients at u.

    A pole c/(a - u)**m contributes c C(m+j-1, j) w**(m+j), w = 1/(a - u).
    Each w is written as a Gaussian integer over the common integer L of all
    poles; a pole starts at j = start by one binary power of w and steps by
    w**stride, so a later start skips the products of the terms before it
    and gives the same integers. The polynomial part P is shifted to u once,
    in Gaussian integers, by repeated synthetic division (Knuth, TAOCP 2,
    4.6.4): with u = U/Du, z = y/Du and Dc clearing its coefficients,
    Dc Du**deg P(u + z) = sum_i n_i Du**(deg-i) (U + y)**i. The denominator
    den0 = Cden L**mmax, where Cden clears the residues and Dc Du**deg, does
    not depend on start or stop, and no gcd runs after the first one per pole.
    """
    poles = [t for t in seed.terms if isinstance(t, PoleTerm)]
    # a - u = (p + iq)/D over one denominator D; then w = omega/nu reduced
    diffs = [t.a - u for t in poles]
    D = math.lcm(*(x.denominator for z in diffs for x in (z.re, z.im)))
    ws = []
    for z in diffs:
        p, q = (z.re * D).numerator, (z.im * D).numerator
        g = math.gcd(D * p, D * q, p * p + q * q)
        ws.append((D * p // g, -D * q // g, (p * p + q * q) // g))
    L = math.lcm(*(nu for _, _, nu in ws))
    residues = [t.c if isinstance(t.c, QComplex) else QComplex(t.c) for t in poles]
    poly = []  # the polynomial components summed, coefficients ascending
    for t in seed.terms:
        if isinstance(t, PolyTerm):
            poly += [Fraction(0)] * (len(t.coeffs) - len(poly))
            for i, c in enumerate(t.coeffs):
                poly[i] += c
    deg = len(poly) - 1
    Du = math.lcm(u.re.denominator, u.im.denominator)
    Dc = math.lcm(*(c.denominator for c in poly))
    Dp = Dc * Du**deg if poly else 1
    Cden = math.lcm(Dp, *(x.denominator for z in residues for x in (z.re, z.im)))
    mmax = max((t.n for t in poles), default=0)
    den0 = Cden * L**mmax
    js = range(start, stop, stride)
    X = [0] * len(js)
    Y = [0] * len(js)
    for t, c, (wr, wi, nu) in zip(poles, residues, ws):
        f = L // nu
        wr, wi = wr * f, wi * f  # w = (wr + i wi) / L
        m = t.n
        er, ei = (c.re * Cden).numerator, (c.im * Cden).numerator
        pr, pi = _gauss_pow(wr, wi, m + start)
        scale = L ** (mmax - m)
        er, ei = (er * pr - ei * pi) * scale, (er * pi + ei * pr) * scale
        sr, si = _gauss_pow(wr, wi, stride)
        for i, j in enumerate(js):
            b = math.comb(m + j - 1, j)
            X[i] += b * er
            Y[i] += b * ei
            er, ei = er * sr - ei * si, er * si + ei * sr
    if start <= deg:
        Ur = u.re.numerator * (Du // u.re.denominator)
        Ui = u.im.numerator * (Du // u.im.denominator)
        ar = [c.numerator * (Dc // c.denominator) * Du ** (deg - i) for i, c in enumerate(poly)]
        ai = [0] * (deg + 1)
        # shift x = U + y: ar[j] + i ai[j] becomes the coefficient of y**j
        for i in range(deg):
            for j in range(deg - 1, i - 1, -1):
                xr, xi = ar[j + 1], ai[j + 1]
                ar[j] += Ur * xr - Ui * xi
                ai[j] += Ur * xi + Ui * xr
        scale = den0 // Dp * (Du * L) ** start
        step = (Du * L) ** stride
        for i, j in enumerate(js):
            if j > deg:
                break
            X[i] += ar[j] * scale
            Y[i] += ai[j] * scale
            scale *= step
    return list(zip(X, Y)), den0, L


def _seed_taylor(seed: SeedFunction, u_star: Fraction, count: int):
    """[(x_j, d_j)] with [z**j] g1(u* + z) = x_j / d_j for j < count, from one
    ``_taylor_run``; None when some of them is not real (Y_j != 0)."""
    u = QComplex(u_star)
    seed.assert_not_pole(u, "u_star")
    run, den, L = _taylor_run(seed, u, 0, count)
    if any(y for _, y in run):
        return None
    out = []
    for x, _ in run:
        out.append((x, den))
        den *= L
    return out


def _b0_row(taylor):
    """b0_j = [z**j] g1(u* + z) / 2**j from the ``_seed_taylor`` run."""
    return [Fraction(x, d << j) for j, (x, d) in enumerate(taylor)]


def _seed_b0(seed: SeedFunction, u_star: Fraction, order: int):
    """Boundary row of B0(v) = g1(v/2) about v* = 2 u*, up to j = 2*order.

    b0_j = [z**j] g1(u* + z) / 2**j = (1/2)^j g1^(j)(u*) / j!; None when
    some coefficient is not real.
    """
    taylor = _seed_taylor(seed, u_star, 2 * order + 1)
    return None if taylor is None else _b0_row(taylor)


def bridge_check(seed: SeedFunction, u_star, order: int) -> BridgeCheck:
    """Expand the potential from B0(v) = g1(v/2) and compare rows.

    Row k of the potential must equal the Taylor coefficients of
    g1^(2k)(v/2) / (k!(k+1)!) about v_star = 2*u_star, i.e.

        b_{kj} = (1/2)^j g1^(2k+j)(u_star) / (j! k! (k+1)!)
               = C(2k+j, j) Catalan_k [z**(2k+j)] g1(u_star + z) / 2**j.
    """
    u_star = parse_exact(u_star, "u_star")
    taylor = _seed_taylor(seed, u_star, 2 * order + 1)
    if taylor is None:
        raise UsageError("bridge check needs a seed that is real on the real axis")
    problem = ProblemData(b0=_b0_row(taylor), alpha=(), v_star=2 * u_star)
    sol = expand_potential(problem, order)
    mismatches = []
    checked = 0
    catalan = 1
    for k in range(order + 1):
        for j in range(order - k + 1):
            got = sol.row_coefficient(k, j)
            x, d = taylor[2 * k + j]
            want = Fraction(math.comb(2 * k + j, j) * catalan * x, d << j)
            checked += 1
            if got != want:
                mismatches.append((k, j, got, want))
        catalan = catalan * 2 * (2 * k + 1) // (k + 2)
    return BridgeCheck(not mismatches, order, checked, tuple(mismatches))
