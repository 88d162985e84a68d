"""Truncated power series in one and two variables.

Coefficients are either exact or float64; a single series never mixes the
two kinds. Exact series are built over Q: the product kernel has one exact
numerator kind, ints over one denominator, and refuses a CubicRadical
coefficient. Such coefficients appear only in a normal-form pack, where
the cube root enters as the pack is assembled (see ``normal_form``); a
series holding them is stored, printed and evaluated, not multiplied.
Zero coefficients are never stored, so equality compares canonical
forms. All operations re-truncate to the total-degree cap and are pure:
series are immutable after construction.

Each series carries an effective order ``eff <= cap``: the highest total
degree whose coefficients are trusted. Derivatives decrement it; sums take
the min; products and compositions use valuation-aware rules so that e.g.
multiplying by h loses nothing at the cap.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegeneracyError, DomainError, UsageError
from .scalars import CubicRadical, rational_cbrt, real_cbrt, scalar_float

EXACT = "exact"
FLOAT = "float"

DEFAULT_CAP = 8
EXACT_CAP_CEILING = 16

# relative size at which the top-degree band is considered to lie about the
# truncated tail; see validity_radius
VALIDITY_REL_TOL = 1e-12


def _norm_scalar(v, mode):
    if mode == FLOAT:
        return float(v)
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, CubicRadical):
        return v
    raise UsageError(f"exact series cannot hold a {type(v).__name__} coefficient")


def _is_zero(v):
    return v == 0


def _product(pairs, limit):
    """The sum of a * b over the (a, b) series pairs, truncated at total
    degree ``limit``, as a new dict of coefficients.

    The operands of one call share one kind of key and one cap. Product
    terms that cancel stay in the result as zeros. Keys appear in the order
    of their first term pair: pairs in list order, then the outer loop over
    ``a`` and the inner one over ``b``. The validity radius sums a band's
    magnitudes in dict order, so that order is part of the result.

    Float coefficients are multiplied and added pair by pair, in that order.
    Exact ones are summed as integers in the operands' cached kernel forms
    (see ``_Series._kernel_form``), over one denominator for the whole call,
    and each output coefficient is built and reduced once, at the end.
    """
    if not pairs:
        return {}
    first = pairs[0][0]
    den, acc = _sum_products([(a._kernel_form(), b._kernel_form()) for a, b in pairs], limit)
    return _coefficients(acc, den, first.cap + 1 if first._pairs else None)


def _sum_products(forms, limit):
    """(D, {packed key: sum}) of the sum of a * b over pairs of kernel forms,
    truncated at total degree ``limit``.

    Keys appear in the order of their first term pair, and sums that cancel
    stay. Float forms give float sums with D = None, added pair by pair
    straight into the result. Exact forms are put over the lcm D of the
    pairs' denominator products and summed as int multiply-adds, one per
    term pair.
    """
    acc = {}
    den = None
    scales = [1] * len(forms)
    if forms[0][0][0] is not None:
        dens = [a[0] * b[0] for a, b in forms]
        den = math.lcm(*dens)
        scales = [den // e for e in dens]
    for ((_, ta, _), (_, tb, rows)), m in zip(forms, scales):
        if m != 1:
            ta = [(k, d, n * m) for k, d, n in ta if d <= limit]
        for ka, x, row in _pairings(ta, tb, limit, rows):
            for kb, _, y in row:
                k = ka + kb
                w = acc.get(k)
                acc[k] = x * y if w is None else w + x * y
    return den, acc


def _coefficients(acc, den, base):
    """{key: coefficient} of a kernel sum, unpacking (i, j) keys when ``base``
    is set; each exact coefficient is built and reduced here, once."""
    if den is None:
        values = acc.items()
    else:
        values = ((k, Fraction(n, den)) for k, n in acc.items())
    if base is None:
        return dict(values)
    return {divmod(k, base): v for k, v in values}


def _pairings(ta, tb, limit, rows):
    """(key, coefficient, the terms of tb it pairs with under the limit)
    for each term of ta under the limit, all in their dicts' order.

    ``rows`` keeps lists of tb's own terms up to each degree bound, from
    call to call.
    """
    out = []
    for ka, da, x in ta:
        if da > limit:
            continue
        row = rows.get(limit - da)
        if row is None:
            row = rows[limit - da] = [t for t in tb if da + t[1] <= limit]
        out.append((ka, x, row))
    return out


def _over_one_denominator(terms):
    """(D, terms with each rational coefficient as an int numerator over D).

    A ``CubicRadical`` coefficient is refused: the kernel has no radical
    arithmetic.
    """
    try:
        dens = [v.denominator for _, _, v in terms]
    except AttributeError:
        bad = next(v for _, _, v in terms if not hasattr(v, "denominator"))
        raise UsageError(
            f"the series kernel multiplies rational coefficients only, got {bad!r}: "
            "exact series are built over Q, and the cube root enters a normal-form "
            "pack only when it is assembled"
        ) from None
    den = math.lcm(*dens)
    return den, [(k, d, v.numerator * (den // e)) for (k, d, v), e in zip(terms, dens)]


class _Series:
    """What Series1 and Series2 share: termwise ring code, the float and
    product-kernel caches and the validity-disc gate.

    Terms live in ``_c``, keyed by exponent: an int for one variable, an
    (i, j) pair for two. ``_vars`` holds the variable name or name pair,
    which the subclasses expose as ``name`` and ``names``. A subclass
    supplies ``_degree`` (total degree of a key, refusing negative
    exponents), ``_plan`` (the evaluation plan built from its float terms)
    and whether its keys are (i, j) pairs, ``_pairs``.
    """

    __slots__ = ("_vars", "cap", "mode", "eff", "_c", "_fcache", "_kcache")
    _pairs = False

    def __init__(self, var, cap, coeffs, mode, eff):
        if cap < 0:
            raise UsageError("cap must be nonnegative")
        if mode not in (EXACT, FLOAT):
            raise UsageError(f"unknown scalar mode {mode!r}")
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                if self._degree(k) > cap:
                    continue
                v = _norm_scalar(v, mode)
                if not _is_zero(v):
                    c[k] = v
        self._vars = var
        self.cap = cap
        self.mode = mode
        self.eff = cap if eff is None else min(eff, cap)
        self._c = c
        self._fcache = None
        self._kcache = None

    # -- trusted fast constructor for internal use -------------------------

    @classmethod
    def _raw(cls, var, cap, coeffs, mode, eff):
        s = object.__new__(cls)
        s._vars = var
        s.cap = cap
        s.mode = mode
        s.eff = min(eff, cap)
        s._c = coeffs
        s._fcache = None
        s._kcache = None
        return s

    # -- inspection ---------------------------------------------------------

    def _get(self, key):
        return self._c.get(key, 0.0 if self.mode == FLOAT else Fraction(0))

    def is_zero(self):
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self._vars == other._vars
            and self.cap == other.cap
            and self.mode == other.mode
            and self._c == other._c
        )

    __hash__ = None

    # -- ring operations ----------------------------------------------------

    def _check_compat(self, other):
        if self._vars != other._vars:
            raise UsageError(f"variable mismatch: {self._vars} vs {other._vars}")
        if self.cap != other.cap:
            raise UsageError(f"cap mismatch: {self.cap} vs {other.cap}")
        if self.mode != other.mode:
            raise UsageError(f"scalar mode mismatch: {self.mode} vs {other.mode}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compat(other)
        c = dict(self._c)
        for k, v in other._c.items():
            w = c.get(k)
            if w is None:
                c[k] = v
            else:
                w = w + v
                if _is_zero(w):
                    del c[k]
                else:
                    c[k] = w
        return self._raw(self._vars, self.cap, c, self.mode, min(self.eff, other.eff))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw(
            self._vars, self.cap, {k: -v for k, v in self._c.items()}, self.mode, self.eff
        )

    def scale(self, scalar):
        scalar = _norm_scalar(scalar, self.mode)
        if _is_zero(scalar):
            return self._raw(self._vars, self.cap, {}, self.mode, self.eff)
        return self._raw(
            self._vars,
            self.cap,
            {k: scalar * v for k, v in self._c.items()},
            self.mode,
            self.eff,
        )

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            try:
                return self.scale(other)
            except UsageError:
                return NotImplemented
        self._check_compat(other)
        c = _product([(self, other)], self.cap)
        c = {k: v for k, v in c.items() if not _is_zero(v)}
        eff = min(self.cap, self.eff + other.valuation(), other.eff + self.valuation())
        return self._raw(self._vars, self.cap, c, self.mode, eff)

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return self._raw(
            self._vars,
            self.cap,
            {k: scalar_float(v) for k, v in self._c.items()},
            FLOAT,
            self.eff,
        )

    def _kernel_form(self):
        """(D, terms, rows): the terms as the product kernel reads them, built
        once per series, like ``_floats``.

        ``terms`` holds (packed key, total degree, numerators) in dict
        order, stored zeros included: where product keys first appear
        depends on them. An (i, j) key packs to i * (cap + 1) + j and an int
        key stays as it is, so packed keys add like exponents while the
        total degree stays under the cap, and k // (cap + 1) + k % (cap + 1)
        is the degree of either kind. Exact coefficients become int
        numerators over the lcm D of their denominators; a ``CubicRadical``
        is refused with a ``UsageError``. Float coefficients stay floats,
        with D = None. ``rows`` starts empty;
        the kernel keeps there, by degree bound, the terms of this series
        that a term pairing needs, the first time it needs them.
        """
        if self._kcache is None:
            if self._pairs:
                base = self.cap + 1
                terms = [(i * base + j, i + j, v) for (i, j), v in self._c.items()]
            else:
                terms = [(j, j, v) for j, v in self._c.items()]
            if self.mode == FLOAT:
                self._kcache = (None, terms, {})
            else:
                self._kcache = (*_over_one_denominator(terms), {})
        return self._kcache

    # -- numerics -----------------------------------------------------------

    def _floats(self):
        """(evaluation plan, validity radius).

        Built once per series from the float coefficients grouped by total
        degree, in term order within each degree. The scalar and the numpy
        evaluators both read the plan, through one kernel per series kind.
        """
        if self._fcache is None:
            bands = {}
            for k, v in self._c.items():
                bands.setdefault(self._degree(k), []).append((k, scalar_float(v)))
            self._fcache = (self._plan(bands), _band_radius(bands, self.cap))
        return self._fcache

    def validity_radius(self) -> float:
        """Largest radius at which the top-degree band stays negligible.

        Truncated series lie about their domain; the band of total degree
        equal to the cap is used as a proxy for the dropped tail. Returns
        inf when that band is empty (the series is a lower-degree
        polynomial, trusted everywhere).
        """
        return self._floats()[1]

    def _gate(self, r, where, shown=None):
        """Raise DomainError when radius r lies outside the validity disc.

        ``where`` is a format string for the point, filled with ``shown``
        (default r).
        """
        vr = self.validity_radius()
        if r > vr:
            point = where.format(r if shown is None else shown)
            raise DomainError(f"{point} exceeds validity radius {vr:.6g} of {self!r}")


def _band_radius(bands, cap) -> float:
    """Radius r with |top band| r**cap = tol |lowest band| r**lead.

    ``bands`` maps total degree to (key, float coefficient) pairs; a band's
    size is the sum of its coefficients' magnitudes.
    """
    top = bands.get(cap)
    if top is None:
        return math.inf
    lead_deg = min(bands)
    if lead_deg == cap:
        return 0.0
    top_mag = sum(abs(c) for _, c in top)
    lead_mag = sum(abs(c) for _, c in bands[lead_deg])
    return (VALIDITY_REL_TOL * lead_mag / top_mag) ** (1.0 / (cap - lead_deg))


def _eval1(row, x, acc):
    """Horner's rule over a ``Series1`` plan row at x, starting from acc.

    x and acc are both floats or both numpy arrays: points and grids share
    this one rule, so a grid node gets the bits of the point.
    """
    for c in row:
        acc = acc * x + c
    return acc


def _eval2(plan, x, y, acc):
    """Add the ``Series2`` plan terms c * x**i * y**j to acc one at a time,
    in plan order.

    x, y and acc are floats or numpy arrays; an array acc is added into in
    place. The powers start from the float 1.0, and multiplying by it is
    exact, so a grid node gets the bits of the point.
    """
    deg_x, deg_y, terms = plan
    xp = [1.0]
    for _ in range(deg_x):
        xp.append(xp[-1] * x)
    yp = [1.0]
    for _ in range(deg_y):
        yp.append(yp[-1] * y)
    for i, j, c in terms:
        acc += c * xp[i] * yp[j]
    return acc


class Series2(_Series):
    """Truncated power series in an ordered pair of variables."""

    __slots__ = ()
    _pairs = True

    def __init__(self, names, cap=DEFAULT_CAP, coeffs=None, *, mode=EXACT, eff=None):
        names = tuple(names)
        if len(names) != 2 or names[0] == names[1]:
            raise UsageError(f"need two distinct variable names, got {names!r}")
        super().__init__(names, cap, coeffs, mode, eff)

    @property
    def names(self):
        return self._vars

    @staticmethod
    def _degree(key):
        i, j = key
        if i < 0 or j < 0:
            raise UsageError(f"negative exponent ({i},{j})")
        return i + j

    # -- inspection ---------------------------------------------------------

    def coefficient(self, i, j):
        return self._get((i, j))

    def __getitem__(self, key):
        return self.coefficient(*key)

    def terms(self):
        """Deterministically ordered (i, j, coeff) triples."""
        for (i, j) in sorted(self._c, key=lambda k: (k[0] + k[1], k[0])):
            yield i, j, self._c[(i, j)]

    def valuation(self):
        """Lowest total degree of a stored term; cap+1 for the zero series."""
        if not self._c:
            return self.cap + 1
        return min(i + j for (i, j) in self._c)

    def __repr__(self):
        return (
            f"Series2({self.names[0]},{self.names[1]}; cap={self.cap}, "
            f"{self.mode}, eff={self.eff}, {len(self._c)} terms)"
        )

    # -- ring operations ----------------------------------------------------

    __mul__ = __rmul__ = _Series.__mul__

    # -- calculus -----------------------------------------------------------

    def derivative(self, name):
        """Partial derivative; cap unchanged, effective order drops by one."""
        if name not in self.names:
            raise UsageError(f"no variable {name!r} in {self.names}")
        axis = self.names.index(name)
        c = {}
        for (i, j), v in self._c.items():
            e = (i, j)[axis]
            if e == 0:
                continue
            k = (i - 1, j) if axis == 0 else (i, j - 1)
            c[k] = v * e
        return Series2._raw(self.names, self.cap, c, self.mode, max(self.eff - 1, 0))

    # -- structure ----------------------------------------------------------

    def swap(self):
        """Exchange the two variables."""
        return Series2._raw(
            (self.names[1], self.names[0]),
            self.cap,
            {(j, i): v for (i, j), v in self._c.items()},
            self.mode,
            self.eff,
        )

    def recap(self, cap):
        """Change the total-degree cap, dropping terms if lowered."""
        c = {k: v for k, v in self._c.items() if k[0] + k[1] <= cap}
        return Series2._raw(self.names, cap, c, self.mode, min(self.eff, cap))

    def at_zero(self, axis) -> "Series1":
        """Restriction to one variable, setting the other to zero."""
        if axis not in (0, 1):
            raise UsageError("axis must be 0 or 1")
        other = 1 - axis
        c = {k[axis]: v for k, v in self._c.items() if k[other] == 0}
        return Series1._raw(self.names[axis], self.cap, c, self.mode, self.eff)

    # -- numerics -----------------------------------------------------------

    @staticmethod
    def _plan(bands):
        """(largest i, largest j, (i, j, coeff) terms in `terms()` order:
        ascending total degree, then ascending i)."""
        terms = [(i, j, c) for d in sorted(bands) for (i, j), c in sorted(bands[d])]
        deg_x = max((i for i, _, _ in terms), default=0)
        deg_y = max((j for _, j, _ in terms), default=0)
        return deg_x, deg_y, terms

    validity_radius = _Series.validity_radius

    def evaluate(self, x, y, check=True) -> float:
        """Evaluate at float arguments, adding the terms in `terms()` order
        to a running total that starts at +0.0."""
        x = float(x)
        y = float(y)
        if check:
            self._gate(max(abs(x), abs(y)), "evaluation point radius {:.6g}")
        return _eval2(self._floats()[0], x, y, 0.0)


class Series1(_Series):
    """Truncated power series in one variable."""

    __slots__ = ()

    def __init__(self, name, cap=DEFAULT_CAP, coeffs=None, *, mode=EXACT, eff=None):
        if not isinstance(name, str) or not name:
            raise UsageError("need a variable name")
        super().__init__(name, cap, coeffs, mode, eff)

    @property
    def name(self):
        return self._vars

    @staticmethod
    def _degree(j):
        if j < 0:
            raise UsageError("negative exponent")
        return j

    def coefficient(self, j):
        return self._get(j)

    def __getitem__(self, j):
        return self.coefficient(j)

    def terms(self):
        for j in sorted(self._c):
            yield j, self._c[j]

    def valuation(self):
        return min(self._c) if self._c else self.cap + 1

    def __repr__(self):
        return (
            f"Series1({self.name}; cap={self.cap}, {self.mode}, "
            f"eff={self.eff}, {len(self._c)} terms)"
        )

    __mul__ = __rmul__ = _Series.__mul__

    def derivative(self):
        c = {}
        for j, v in self._c.items():
            if j:
                c[j - 1] = v * j
        return Series1._raw(self.name, self.cap, c, self.mode, max(self.eff - 1, 0))

    def rename(self, name):
        return Series1._raw(name, self.cap, dict(self._c), self.mode, self.eff)

    def recap(self, cap):
        """Change the cap, dropping terms if lowered."""
        c = {j: v for j, v in self._c.items() if j <= cap}
        return Series1._raw(self.name, cap, c, self.mode, self.eff)

    @staticmethod
    def _plan(bands):
        """Horner row: the coefficients from the top term's degree down to 0.

        Zeros above the top term are left out: from acc = 0.0 they would
        only add 0.0 * x + 0.0, which is +0.0 for finite x. For inf or nan x
        the first step of any row, even the bare [0.0] of the zero series,
        makes acc nan, as the zeros would have done.
        """
        top = max(bands, default=0)
        return [bands[j][0][1] if j in bands else 0.0 for j in range(top, -1, -1)]

    validity_radius = _Series.validity_radius

    def evaluate(self, x, check=True) -> float:
        x = float(x)
        if check:
            self._gate(abs(x), "evaluation point |{:.6g}|", x)
        return _eval1(self._floats()[0], x, 0.0)


# -- constructors ------------------------------------------------------------


def const2(names, cap, value, mode=EXACT):
    return Series2(names, cap, {(0, 0): value}, mode=mode)


def monomial2(names, cap, i, j, value=1, mode=EXACT):
    return Series2(names, cap, {(i, j): value}, mode=mode)


def variable2(names, cap, which, mode=EXACT):
    """The identity series of one of the pair's variables."""
    if which not in names:
        raise UsageError(f"no variable {which!r} in {names}")
    if names.index(which) == 0:
        return monomial2(names, cap, 1, 0, 1, mode=mode)
    return monomial2(names, cap, 0, 1, 1, mode=mode)


def lift1to2(s: Series1, names, axis) -> Series2:
    """Embed a one-variable series as a two-variable series along an axis."""
    names = tuple(names)
    if s.name != names[axis]:
        raise UsageError(f"series in {s.name!r} cannot sit on axis {axis} of {names}")
    if axis == 0:
        c = {(j, 0): v for j, v in s._c.items()}
    else:
        c = {(0, j): v for j, v in s._c.items()}
    return Series2._raw(names, s.cap, c, s.mode, s.eff)


# -- composition --------------------------------------------------------------


def _horner(rows, s: Series2) -> dict:
    """The coefficients of sum_i rows[i] * s**i by Horner's rule; s needs
    zero constant term.

    The partial sum that is still to be multiplied i times by s only matters
    up to total degree cap - i*val(s), so each step keeps it at that cap:
    one truncated product per row, and rows past cap // val(s) are never
    read. Truncation commutes with sums and products, so the result equals
    the truncated full sum exactly.

    The partial sum stays in the kernel's form from the first step to the
    last: exact numerators over one denominator, reduced by one gcd per
    step, with coefficients built once at the end. Each step adds the
    product's nonzero terms to the row's terms under its cap, in product key
    order, and drops the sums that cancel. Float steps do the same with the
    float values, in the same order.
    """
    cap = s.cap
    val = s.valuation()
    n = min(len(rows) - 1, cap // val)
    base = cap + 1
    form = s._kernel_form()
    den, terms, _ = rows[n]._kernel_form()
    acc = {k: v for k, d, v in terms if d <= cap - n * val}
    for i in range(n - 1, -1, -1):
        c = cap - i * val
        terms = [(k, k // base + k % base, v) for k, v in acc.items()]
        product = _sum_products([((den, terms, None), form)], c)
        den, acc = _row_plus(rows[i]._kernel_form(), c, product)
    return _coefficients(acc, den, base)


def _row_plus(row, limit, product):
    """The row's kernel form under ``limit`` plus a kernel sum, as a kernel
    sum; exact numerators are reduced by one gcd.

    The row's keys come first; the product's nonzero terms are added in
    its key order, and sums that cancel are dropped.
    """
    den_r, terms, _ = row
    den, prod = product
    m = mp = 1
    if den_r is not None:
        den_p, den = den, math.lcm(den_r, den)
        m, mp = den // den_r, den // den_p
    out = {k: v * m if m != 1 else v for k, d, v in terms if d <= limit}
    for k, v in prod.items():
        if v == 0:
            continue
        if mp != 1:
            v *= mp
        w = out.get(k)
        if w is None:
            out[k] = v
        else:
            w = w + v
            if w == 0:
                del out[k]
            else:
                out[k] = w
    if den is None:
        return None, out
    g = math.gcd(den, *out.values())
    if g != 1:
        out = {k: v // g for k, v in out.items()}
    return den // g, out


def _compose_eff(a: Series2, effs) -> int:
    """Trusted order of a with its two variables replaced by series of the
    given effective orders (cap for a variable left in place)."""
    eff = a.eff
    for axis, s_eff in enumerate(effs):
        m = min((i + j - 1 for (i, j) in a._c if (i, j)[axis] >= 1), default=None)
        if m is not None:
            eff = min(eff, s_eff + m)
    return eff


def _check_substituted(a: Series2, s: Series2, which: str):
    if a.cap != s.cap:
        raise UsageError(f"cap mismatch: {a.cap} vs {s.cap}")
    if a.mode != s.mode:
        raise UsageError(f"scalar mode mismatch: {a.mode} vs {s.mode}")
    if (0, 0) in s._c:
        raise UsageError(
            f"substituted series for {which!r} must have zero constant term"
        )


def compose2(a: Series2, s_first: Series2, s_second: Series2) -> Series2:
    """a(s_first, s_second); both substituted series need zero constant term.

    The result lives in the (shared) variable pair of the substituted series.
    Each row a_i(y) of a is evaluated at s_second by Horner's rule, then the
    rows are summed by Horner's rule in s_first: about cap truncated products
    per row plus cap for the outer sum. :func:`substitute` is the cheaper
    call when one of the two is the identity.
    """
    s_first._check_compat(s_second)
    _check_substituted(a, s_first, a.names[0])
    _check_substituted(a, s_second, a.names[1])
    names, cap, mode = s_first.names, a.cap, a.mode
    consts = [[{} for _ in range(cap + 1)] for _ in range(cap + 1)]
    for (i, j), v in a._c.items():
        consts[i][j] = {(0, 0): v}
    rows = [
        _horner([Series2._raw(names, cap, c, mode, cap) for c in row], s_second)
        for row in consts
    ]
    out = _horner([Series2._raw(names, cap, c, mode, cap) for c in rows], s_first)
    eff = _compose_eff(a, (s_first.eff, s_second.eff))
    return Series2._raw(names, cap, out, mode, eff)


def substitute(a: Series2, which: str, s: Series2) -> Series2:
    """Substitute one variable of ``a`` by the series ``s``.

    ``s`` is expressed in the target variable pair, which must contain the
    untouched variable of ``a``. Horner's rule over the powers of ``which``
    costs about one truncated product per power, each below the cap by the
    degree the remaining powers of ``s`` will add.
    """
    if which not in a.names:
        raise UsageError(f"no variable {which!r} in {a.names}")
    axis = a.names.index(which)
    kept = a.names[1 - axis]
    if kept not in s.names:
        raise UsageError(
            f"target pair {s.names} must contain the untouched variable {kept!r}"
        )
    _check_substituted(a, s, which)
    names, cap, mode = s.names, a.cap, a.mode
    kept_first = s.names.index(kept) == 0
    rows = [{} for _ in range(cap + 1)]
    for k, v in a._c.items():
        e = k[1 - axis]
        rows[k[axis]][(e, 0) if kept_first else (0, e)] = v
    out = _horner([Series2._raw(names, cap, r, mode, cap) for r in rows], s)
    eff = _compose_eff(a, (s.eff, cap) if axis == 0 else (cap, s.eff))
    return Series2._raw(names, cap, out, mode, eff)


def compose1(f: Series1, g: Series1) -> Series1:
    """f(g) for a one-variable series g with zero constant term.

    Both series are lifted onto the axis of g's variable in a pair with a
    spare variable, and f is composed with g there by :func:`substitute`, so
    every composition runs through the one Horner kernel.
    """
    if f.cap != g.cap:
        raise UsageError(f"cap mismatch: {f.cap} vs {g.cap}")
    if f.mode != g.mode:
        raise UsageError(f"scalar mode mismatch: {f.mode} vs {g.mode}")
    if 0 in g._c:
        raise UsageError("substituted series must have zero constant term")
    # no term carries the spare variable, so its name may even equal g's
    names = (g.name, "_")
    a = lift1to2(f.rename(g.name), names, 0)
    return substitute(a, g.name, lift1to2(g, names, 0)).at_zero(0)


# -- inversion ---------------------------------------------------------------


def implicit_solve(f: Series2, solve_for: str, value_name: str) -> Series2:
    """Solve value = f(vars) for one variable as a series in (other, value).

    Needs f(0,0) = 0 and a nonzero first-order coefficient in the solved
    variable. The output pair keeps the solved variable's position, renamed
    to ``value_name``.

    Newton's iteration without a series inverse (Brent and Kung, J. ACM 25
    (1978) 581-595). Band 1 comes from the linear coefficients. With the
    solution right through band p, the defect value - f(solution) starts
    at band p + 1, and dividing it by f_x(solution) makes the solution
    right through band q = min(2p, cap). The solution's own derivative in
    the value variable is 1 / f_x(solution) through band p - 1, all that
    division reads. So each step is one substitution at cap q and one
    product, and the caps run 2, 4, 8, .., cap. Bands up to p are never
    revisited, also in float mode. The terms are stored band by band,
    ascending in the value variable's exponent: the validity radius sums a
    band's magnitudes in that order.
    """
    if solve_for not in f.names:
        raise UsageError(f"no variable {solve_for!r} in {f.names}")
    if value_name in f.names:
        raise UsageError(f"value name {value_name!r} collides with {f.names}")
    swapped = f.names.index(solve_for) == 1
    if swapped:
        f = f.swap()
    if (0, 0) in f._c:
        raise UsageError("implicit solve needs f(0,0) = 0")
    c10 = f._c.get((1, 0))
    if c10 is None or _is_zero(c10):
        raise DegeneracyError(
            f"implicit solve for {solve_for!r} needs a nonzero linear coefficient"
        )
    names = (value_name, f.names[1])
    cap, mode = f.cap, f.mode
    c10_inv = 1 / c10
    # band 1: x = (value - c01 y) / c10; the value variable is the (1, 0) term
    sol = {(1, 0): c10_inv}
    c01 = f._c.get((0, 1))
    if c01 is not None:
        sol[(0, 1)] = -c01 * c10_inv
    p = 1
    while p < cap:
        q = min(2 * p, cap)
        # a new series over sol each pass: the product kernel caches a
        # series' terms, and sol grows below
        fs = substitute(f.recap(q), solve_for, Series2._raw(names, q, sol, mode, q))
        # bands p+1..q of value - f(sol); the bands below are already solved
        d = Series2._raw(names, q, {k: -v for k, v in fs._c.items() if k[0] + k[1] > p}, mode, q)
        # d sol / d value, through band q - p - 1
        g = {(i - 1, j): v * i for (i, j), v in sol.items() if i and i + j <= q - p}
        sol.update(_product([(d, Series2._raw(names, q, g, mode, q))], q))
        p = q
    order = sorted(sol, key=lambda k: (k[0] + k[1], k[0]))
    c = {k: sol[k] for k in order if not _is_zero(sol[k])}
    out = Series2._raw(names, cap, c, mode, f.eff)
    return out.swap() if swapped else out


def cube_root_normalize(x0: Series1, new_name: str = "W") -> Series1:
    """Find V(W) with x0(V(W)) = W**3 + O(W**(cap+1)).

    ``x0`` must vanish to second order with a nonzero cubic coefficient c3.
    The leading slope is (1/c3)**(1/3). In exact mode it must be rational,
    since exact series hold no radicals: a c3 whose cube root is irrational
    is refused, and ``build_normal_form`` divides x0 by c3 first. In float
    mode it is the real cube root.

    Pass m composes x0 with V known through order m - 1, both at cap m + 2,
    and fixes a_m from the defect at order m + 2, which is linear in a_m:
    each pass reads only the orders it solves for.
    """
    for j in (0, 1, 2):
        if j in x0._c:
            raise UsageError(
                f"cube-root normalization needs zero coefficients at degrees 0..2, "
                f"found degree {j}"
            )
    c3 = x0._c.get(3)
    if c3 is None or _is_zero(c3):
        raise DegeneracyError("cube-root normalization needs a nonzero cubic coefficient")
    cap, mode = x0.cap, x0.mode
    if mode == EXACT:
        a1 = rational_cbrt(1 / c3) if isinstance(c3, Fraction) else None
        if a1 is None:
            raise UsageError(
                f"exact cube-root normalization needs a rational cube root of 1/c3, "
                f"and c3 = {c3} has none; divide x0 by c3 first"
            )
    else:
        a1 = real_cbrt(1.0 / c3)
    a = {1: a1}
    xw = x0.rename(new_name)
    # 3*c3*a1**2 = 3/a1, so each order divides by that unit
    for m in range(2, cap - 1):
        comp = compose1(xw.recap(m + 2), Series1._raw(new_name, m + 2, dict(a), mode, m + 2))
        r = comp._c.get(m + 2)
        if r is None or _is_zero(r):
            continue
        a[m] = -r * a1 / 3 if mode == EXACT else -r * a1 / 3.0
    eff = min(x0.eff, cap - 2) if cap >= 2 else x0.eff
    return Series1._raw(new_name, cap, a, mode, eff)


# -- serialization -------------------------------------------------------------


def _radicand(values):
    """The one radicand of the CubicRadical values, or None."""
    rad = None
    for v in values:
        if isinstance(v, CubicRadical):
            if rad is None:
                rad = v.rad
            elif v.rad is not rad and v.rad != rad:
                raise UsageError(f"cannot mix cube roots of {rad} and {v.rad}")
    return rad


def _term_fields(v, rad):
    if rad is None:
        return f"{v.numerator} {v.denominator}"
    if isinstance(v, CubicRadical):
        a0, a1, a2 = v.a0, v.a1, v.a2
    else:
        a0, a1, a2 = Fraction(v), Fraction(0), Fraction(0)
    return (
        f"{a0.numerator} {a0.denominator} {a1.numerator} {a1.denominator} "
        f"{a2.numerator} {a2.denominator}"
    )


def _series_text(s, head, cols, rows) -> str:
    """Header lines, then one ``key value`` line per term of ``rows``."""
    lines = [*head, f"# cap: {s.cap}", f"# eff: {s.eff}", f"# mode: {s.mode}"]
    if s.mode == FLOAT:
        lines.append(f"# term: {cols} value")
        lines.extend(f"{k} {v!r}" for k, v in rows)
    else:
        rad = _radicand(s._c.values())
        if rad is None:
            lines.append(f"# term: {cols} num den")
        else:
            lines.append(f"# radicand: {rad}")
            lines.append(
                f"# term: {cols} n0 d0 n1 d1 n2 d2   (a0 + a1 c + a2 c^2, c = cbrt(radicand))"
            )
        lines.extend(f"{k} {_term_fields(v, rad)}" for k, v in rows)
    return "\n".join(lines) + "\n"


def series2_text(s: Series2) -> str:
    """Plain-text table: one term per line, deterministic order."""
    rows = ((f"{i} {j}", v) for i, j, v in s.terms())
    return _series_text(s, ["# series2 v1", f"# names: {s.names[0]} {s.names[1]}"], "i j", rows)


def series1_text(s: Series1) -> str:
    return _series_text(s, ["# series1 v1", f"# name: {s.name}"], "j", s.terms())
