"""Series1 against Series2 through the embedding, and the shared gate.

``Series1`` and ``Series2`` share their termwise ring code, float cache,
validity radius and gate. A one-variable series lifted onto an axis of a
pair (``lift1to2``) and restricted back (``at_zero``) must therefore give
the same answer through either class, for exact and float coefficients,
and for ``CubicRadical`` ones in everything but arithmetic.

Kept in this file as references: the validity radius written out once per
class, as the two classes computed it before they shared one formula, and
the ``DomainError`` texts of the four gates.
"""

import math
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_singular_problem
from hypothesis import given, settings
from hypothesis import strategies as st

from hodocusp import (
    DomainError,
    build_normal_form,
    expand_potential,
    hodograph_map,
)
from hodocusp.scalars import CubicRadical, make_radical, scalar_float
from hodocusp.series import (
    EXACT,
    FLOAT,
    VALIDITY_REL_TOL,
    Series1,
    Series2,
    lift1to2,
)
from hodocusp.verify import _eval1_grid, _eval2_grid

CAP = 6
PAIR = ("x", "y")
RADS = [Fraction(2), Fraction(12, 5), Fraction(-4, 15)]

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=12)
# no magnitudes near underflow, where two summation orders may round apart
floats_st = st.floats(min_value=-4, max_value=4).filter(lambda v: v == 0 or abs(v) > 1e-6)


# -- references -------------------------------------------------------------------


def ref_radius2(s):
    """The two-variable radius: band sums of |coeff| at the cap and at the valuation."""
    if not s._c:
        return math.inf
    top = [t for t in s._c if t[0] + t[1] == s.cap]
    if not top:
        return math.inf
    lead_deg = s.valuation()
    top_mag = sum(abs(scalar_float(s._c[t])) for t in top)
    lead_mag = sum(abs(scalar_float(v)) for (i, j), v in s._c.items() if i + j == lead_deg)
    if lead_deg == s.cap:
        return 0.0
    return (VALIDITY_REL_TOL * lead_mag / top_mag) ** (1.0 / (s.cap - lead_deg))


def ref_radius1(s):
    """The one-variable radius: one coefficient per degree."""
    if not s._c:
        return math.inf
    top = s._c.get(s.cap)
    if top is None:
        return math.inf
    lead_deg = s.valuation()
    if lead_deg == s.cap:
        return 0.0
    lead = abs(scalar_float(s._c[lead_deg]))
    return (VALIDITY_REL_TOL * lead / abs(scalar_float(top))) ** (1.0 / (s.cap - lead_deg))


def ref_radius(s):
    return ref_radius1(s) if isinstance(s, Series1) else ref_radius2(s)


def ref_eval1(s, x):
    return sum(scalar_float(v) * x**j for j, v in s.terms())


# -- strategies ---------------------------------------------------------------------


@st.composite
def coeff_kind(draw, kinds=("fraction", "radical", "float")):
    """(mode, value strategy) for one of the coefficient kinds."""
    kind = draw(st.sampled_from(kinds))
    if kind == "float":
        return FLOAT, floats_st
    if kind == "fraction":
        return EXACT, fractions_st
    r = draw(st.sampled_from(RADS))
    return EXACT, st.tuples(fractions_st, fractions_st, fractions_st).map(
        lambda t: make_radical(*t, r)
    )


def series1_st(mode, values):
    return st.builds(
        lambda c, eff: Series1("x", CAP, c, mode=mode, eff=eff),
        st.dictionaries(st.integers(0, CAP), values, max_size=CAP + 1),
        st.none() | st.integers(0, CAP),
    )


def lift(s, axis):
    names = PAIR if axis == 0 else PAIR[::-1]
    return lift1to2(s, names, axis)


def same_series(s1, s2, axis):
    """s2 is s1 lifted: same terms, eff and cap, and at_zero gives s1 back."""
    assert s2 == lift(s1, axis)
    assert s2.eff == s1.eff and s2.cap == s1.cap and s2.mode == s1.mode
    back = s2.at_zero(axis)
    assert back == s1 and back.eff == s1.eff


# -- Series1 against lifted Series2 -------------------------------------------------


# CubicRadical coefficients take part in no arithmetic
@given(kind=coeff_kind(("fraction", "float")), axis=st.sampled_from([0, 1]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_ring_ops_agree_through_lift(kind, axis, data):
    mode, values = kind
    a = data.draw(series1_st(mode, values))
    b = data.draw(series1_st(mode, values))
    k = data.draw(values)
    la, lb = lift(a, axis), lift(b, axis)
    same_series(a + b, la + lb, axis)
    same_series(a - b, la - lb, axis)
    same_series(-a, -la, axis)
    same_series(a.scale(k), la.scale(k), axis)
    same_series(a * b, la * lb, axis)
    same_series(a * k, la * k, axis)
    same_series(k * a, k * la, axis)
    same_series(a.to_float(), la.to_float(), axis)
    assert (a == b) == (la == lb)
    assert (a == a.scale(1)) and (la == la.scale(1))
    assert a.is_zero() == la.is_zero()


@given(kind=coeff_kind(), axis=st.sampled_from([0, 1]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_radius_and_evaluate_agree_through_lift(kind, axis, data):
    mode, values = kind
    a = data.draw(series1_st(mode, values))
    la = lift(a, axis)
    r = a.validity_radius()
    assert r == la.validity_radius() == ref_radius1(a) == ref_radius2(la)
    for frac in (0.0, 0.3, -0.9, 1.5, -4.0):
        x = frac * (1.0 if math.isinf(r) else r)
        point = (x, 0.0) if axis == 0 else (0.0, x)
        if abs(x) > r:
            with pytest.raises(DomainError):
                a.evaluate(x)
            with pytest.raises(DomainError):
                la.evaluate(*point)
            got1 = a.evaluate(x, check=False)
            got2 = la.evaluate(*point, check=False)
        else:
            got1 = a.evaluate(x)
            got2 = la.evaluate(*point)
        # Horner against band sums: equal up to rounding of the term sizes
        size = sum(abs(scalar_float(v)) * abs(x) ** j for j, v in a.terms())
        assert abs(got1 - got2) <= 1e-14 * size
        assert abs(got1 - ref_eval1(a, x)) <= 1e-14 * size


def test_mixed_classes_refuse_arithmetic():
    a = Series1("x", CAP, {1: 1, 2: 3})
    b = lift(a, 0)
    for op in (
        lambda: a + b,
        lambda: b + a,
        lambda: a - b,
        lambda: b - a,
        lambda: a * b,
        lambda: b * a,
    ):
        with pytest.raises(TypeError):
            op()
    assert a != b and b != a


def test_public_variable_names_stay():
    a = Series1("x", CAP, {1: 1})
    assert a.name == "x" and lift(a, 1).names == ("y", "x")
    assert not hasattr(a, "names") and not hasattr(lift(a, 0), "name")


# -- the shared radius on real packs --------------------------------------------------


def _pack_series(pack, m):
    out = []
    for f in fields(pack):
        s = getattr(pack, f.name)
        if isinstance(s, (Series1, Series2)):
            out.append(s)
    out += [m.t, m.x, m.tau, m.xi]
    out += [s.to_float() for s in out]
    # a CubicRadical takes part in no arithmetic, so radical series are not
    # differentiated
    out += [
        s.derivative() if isinstance(s, Series1) else s.derivative(s.names[1])
        for s in out
        if not any(isinstance(v, CubicRadical) for v in s._c.values())
    ]
    return out


@pytest.fixture(scope="module")
def packs(canonical_map, canonical_pack):
    problem = random_singular_problem(random.Random(0))
    out = [(canonical_map, canonical_pack)]
    for mode in (EXACT, FLOAT):
        m = hodograph_map(expand_potential(problem, 10, mode=mode))
        out.append((m, build_normal_form(m)))
    return out


def test_validity_radius_bit_equal_to_reference(packs):
    seen = 0
    finite = 0
    for m, pack in packs:
        for s in _pack_series(pack, m):
            r = s.validity_radius()
            assert r == ref_radius(s), s
            # cached, and unchanged by an evaluation
            s.evaluate(*([0.0] * (1 if isinstance(s, Series1) else 2)), check=False)
            assert s.validity_radius() == r
            seen += 1
            finite += math.isfinite(r)
    # 8 pack and 4 map series per pack, each also as float, and all
    # differentiated but the 3 radical series of the canonical pack and the 5
    # of the exact generic one
    assert seen == 3 * 12 * 2 * 2 - 3 - 5 and finite > 20


def test_gate_messages_match_reference(packs):
    m, pack = packs[1]
    for s in (pack.lambda2, pack.lambda2.to_float()):
        vr = ref_radius1(s)
        x = -2.5 * vr
        with pytest.raises(DomainError) as exc:
            s.evaluate(x)
        assert str(exc.value) == (
            f"evaluation point |{x:.6g}| exceeds validity radius {vr:.6g} of {s!r}"
        )
        X = np.array([[0.0, x], [0.5 * x, 0.1 * x]])
        with pytest.raises(DomainError) as exc:
            _eval1_grid(s, X)
        assert str(exc.value) == (
            f"grid radius {abs(x):.6g} exceeds validity radius {vr:.6g} of {s!r}"
        )
    for s in (pack.w_of_tau_u, pack.w_of_tau_u.to_float()):
        vr = ref_radius2(s)
        x, y = 0.25 * vr, -1.75 * vr
        with pytest.raises(DomainError) as exc:
            s.evaluate(x, y)
        assert str(exc.value) == (
            f"evaluation point radius {abs(y):.6g} exceeds validity radius {vr:.6g} of {s!r}"
        )
        with pytest.raises(DomainError) as exc:
            _eval2_grid(s, np.array([x, 0.0]), np.array([0.0, y]))
        assert str(exc.value) == (
            f"grid radius {abs(y):.6g} exceeds validity radius {vr:.6g} of {s!r}"
        )
        # inside the disc the gate lets the point through
        assert math.isfinite(s.evaluate(x, 0.5 * y))
        assert np.isfinite(_eval2_grid(s, np.array([x]), np.array([0.5 * y]))).all()
