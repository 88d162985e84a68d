"""Exact scalar arithmetic.

Three scalar families are used by the series layer:

* plain rationals (fractions.Fraction): every exact series is built over Q,
* elements of Q(c) where c is the real cube root of a fixed rational
  radicand (CubicRadical) -- the only irrationality an exact normal-form
  pack holds is c = (12/(5*b11))**(1/3). It enters only when the pack is
  assembled, each coefficient a rational times a power of c built once by
  ``_times_power``, so a CubicRadical is stored, compared, negated, printed
  and converted to float, but takes part in no arithmetic. The exact
  verifiers read a stored pack over Q(c) through its components a0, a1, a2
  and join their results with ``make_radical``,
* complex numbers with rational components (QComplex), used by the
  analytic-continuation diagnostics so that squared distances stay rational.
  A QComplex adds, subtracts, multiplies and gives its squared modulus; it
  has no division or power, as the exact seed values come from one integer
  run (``pde._taylor_run``) and are only wrapped in a QComplex at the end.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import UsageError


def parse_exact(value, field: str = "value") -> Fraction:
    """Parse an exact rational from int, Fraction, 'p/q' or decimal string.

    Floats are accepted and read as exact decimals (1e-3 -> 1/1000), which is
    what a config author writing ``0.001`` means.
    """
    if isinstance(value, bool):
        raise UsageError(f"{field}: booleans are not numbers")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(float(value))  # the shortest decimal, also for numpy floats
    if isinstance(value, str):
        s = value.strip()
        try:
            if "/" in s:
                return Fraction(s)
            return Fraction(Decimal(s))
        except (ValueError, OverflowError, ZeroDivisionError, InvalidOperation) as exc:
            raise UsageError(f"{field}: cannot parse rational from {value!r}") from exc
    raise UsageError(f"{field}: cannot parse rational from {type(value).__name__}")


def real_cbrt(x: float) -> float:
    """Real cube root with the sign of x."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _icbrt(n: int) -> int:
    """Floor integer cube root of n >= 0."""
    if n < 0:
        raise ValueError("negative")
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def rational_cbrt(q: Fraction) -> Fraction | None:
    """Exact cube root of q, or None when q is not a perfect rational cube."""
    sign = -1 if q < 0 else 1
    num, den = abs(q.numerator), q.denominator
    rn, rd = _icbrt(num), _icbrt(den)
    if rn * rn * rn == num and rd * rd * rd == den:
        return Fraction(sign * rn, rd)
    return None


class CubicRadical:
    """a0 + a1*c + a2*c**2 with c = real cube root of ``rad`` (a non-cube rational).

    An element stores its three rational parts a0, a1, a2 and the radicand
    as Fractions, each reduced, so equal elements have equal fields.
    Construct through :func:`make_radical`, :func:`cbrt_exact` or
    ``_times_power``: they pass Fractions, and collapse elements with
    a1 = a2 = 0 to plain Fractions, so a live element is never rational.
    """

    __slots__ = ("a0", "a1", "a2", "rad")

    def __init__(self, a0: Fraction, a1: Fraction, a2: Fraction, rad: Fraction):
        self.a0, self.a1, self.a2, self.rad = a0, a1, a2, rad

    def __neg__(self):
        return CubicRadical(-self.a0, -self.a1, -self.a2, self.rad)

    # -- comparisons and conversions --------------------------------------

    def __eq__(self, other):
        if isinstance(other, CubicRadical):
            return (
                self.a0 == other.a0
                and self.a1 == other.a1
                and self.a2 == other.a2
                and self.rad == other.rad
            )
        if isinstance(other, (int, Fraction)):
            # factory collapses rational-valued elements, so a live radical
            # is never equal to a rational
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.a0, self.a1, self.a2, self.rad))

    def __float__(self):
        c = real_cbrt(float(self.rad))
        return float(self.a0) + float(self.a1) * c + float(self.a2) * c * c

    def __repr__(self):
        return f"CubicRadical({self.a0}, {self.a1}, {self.a2}; cbrt {self.rad})"


def _times_power(q, c, n) -> Fraction | CubicRadical:
    """q * c**n for a rational q, as one element built once; c is rational
    or c = cbrt(rad), and then c**n = rad**(n // 3) * c**(n % 3)."""
    if not isinstance(c, CubicRadical):
        return q * c**n
    q *= c.rad ** (n // 3)
    if n % 3 == 0 or q == 0:
        return q
    parts = [Fraction(0)] * 3
    parts[n % 3] = q
    return CubicRadical(*parts, c.rad)


def make_radical(a0, a1, a2, rad) -> Fraction | CubicRadical:
    """Canonical element of Q(cbrt(rad)); collapses to Fraction when rational."""
    a0, a1, a2, rad = Fraction(a0), Fraction(a1), Fraction(a2), Fraction(rad)
    if a1 == 0 and a2 == 0:
        return a0
    root = rational_cbrt(rad)
    if root is not None:
        return a0 + a1 * root + a2 * root * root
    return CubicRadical(a0, a1, a2, rad)


def cbrt_exact(q: Fraction) -> Fraction | CubicRadical:
    """Exact real cube root of a rational, kept symbolic when irrational."""
    return make_radical(0, 1, 0, q)


def scalar_float(v) -> float:
    """float() of any scalar kind, CubicRadical included."""
    return float(v)


class QComplex:
    """Complex number with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _as_qcomplex(other)
        if other is None:
            return NotImplemented
        return QComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_qcomplex(other)
        if other is None:
            return NotImplemented
        return QComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_qcomplex(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_qcomplex(other)
        if other is None:
            return NotImplemented
        return QComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        other = _as_qcomplex(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QComplex({self.re}, {self.im})"


def _as_qcomplex(v):
    if isinstance(v, QComplex):
        return v
    if isinstance(v, (int, Fraction)):
        return QComplex(v)
    return None


def parse_point(value, field: str = "value") -> QComplex:
    """Parse a scalar-or-pair value into an exact QComplex.

    Accepts int / Fraction / 'p/q' / decimal strings / floats, a two-element
    list ``[re, im]``, or a Python complex; float parts are read as exact
    decimals, like ``parse_exact``.
    """
    if isinstance(value, QComplex):
        return value
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise UsageError(f"{field}: a complex pair needs exactly 2 entries")
        return QComplex(parse_exact(value[0], field), parse_exact(value[1], field))
    if isinstance(value, complex):
        return QComplex(parse_exact(value.real, field), parse_exact(value.imag, field))
    return QComplex(parse_exact(value, field))


def lt_dist_vs_radius(D2: Fraction, R: Fraction, R1: Fraction) -> bool:
    """Exact test of sqrt(D2) < R + 2*sqrt(R1) for rationals, R >= 0, R1 >= 0."""
    if D2 < 0 or R < 0 or R1 < 0:
        raise UsageError("lt_dist_vs_radius needs nonnegative inputs")
    t = D2 - R * R - 4 * R1
    if t < 0:
        return True
    return t * t < 16 * R * R * R1
