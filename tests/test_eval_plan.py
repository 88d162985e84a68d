"""The compiled series kernels keep the evaluators' float bits.

Each series builds one evaluation plan next to its validity radius: for
``Series1`` the Horner row without the zeros above the top term, for
``Series2`` the largest exponents and the flat (i, j, coeff) terms in
``terms()`` order. On first evaluation the plan is compiled into one
straight-line function, the series' kernel: acc = acc * x + c per Horner
entry, or the powers x2 = x * x, x3 = x2 * x, .. and then one
acc += c * x_i * y_j per term, in plan order, to a total that starts at
+0.0. The kernel leaves out the factors x**0 and y**0 and the first power's
1.0 * x: multiplying by the float 1.0 is exact, so the bits do not move.
Finite constants are written as their ``repr``, which reads back exactly;
inf and nan constants are bound by name, which keeps a nan's sign and
payload. ``Series*.evaluate`` and the numpy grid evaluators of ``verify``
call the same kernel, floats or arrays.

Kept here as references: the evaluators written without the plan (powers
up to the cap, the dense Horner row over degrees 0..cap, the terms read
from ``terms()``, and the grid versions of both), and ``reconstruct``
written with the per-call float base point and the reference evaluators.
Results must agree bit for bit, signed zeros and nan payloads included,
and refusals must carry the same text. This holds on random and hand-made
series, on every series of exact order-16 packs, and at probes just
outside the radii that ``reconstruct`` gates. Where two nans can meet, as
a nan constant on series with inf, nan, subnormal and huge constants, or
a nan argument and the nan of inf - inf on a random two-variable series,
nans compare without their payloads (see ``nan_folded``); a single nan
keeps its payload. A point and a grid node at the same arguments must
get the same bits. Kernels are compiled on first evaluation only: neither
the validity radius nor ``save_pack`` compiles one.

The discriminant of the cusp cubic is one product-form expression, and
the scale of the fold tolerance one ``m * sqrt(m)``, that ``cusp_roots``
and ``verify.branch_field`` both call; a fixed set of (p, q) pairs checks
that the two classifiers see the same bits and draw the same class.
"""

import dataclasses
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_singular_problem
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodocusp import (
    DomainError,
    build_normal_form,
    canonical_problem,
    expand_potential,
    hodograph_map,
)
from hodocusp import cusp, series, verify
from hodocusp.cusp import BOUNDARY_TOL, cusp_roots, reconstruct, zero_curves
from hodocusp.errors import UsageError
from hodocusp.normal_form import NormalFormPack, save_pack
from hodocusp.scalars import make_radical, scalar_float
from hodocusp.series import EXACT, FLOAT, Series1, Series2
from hodocusp.verify import GridSpec, _eval1_grid, _eval2_grid, _grid_radius, branch_field

PAIR = ("x", "y")
RAD = Fraction(12, 5)


# -- references: the evaluators without the plan ---------------------------------


def ref_bands(s):
    bands = {}
    for k, v in s._c.items():
        bands.setdefault(s._degree(k), []).append((k, scalar_float(v)))
    return bands


def ref_dense1(s):
    bands = ref_bands(s)
    return [bands[j][0][1] if j in bands else 0.0 for j in range(s.cap + 1)]


def ref_terms2(s):
    return [(i, j, scalar_float(c)) for i, j, c in s.terms()]


def ref_evaluate1(s, x, check=True):
    x = float(x)
    if check:
        s._gate(abs(x), "evaluation point |{:.6g}|", x)
    acc = 0.0
    for c in reversed(ref_dense1(s)):
        acc = acc * x + c
    return acc


def ref_evaluate2(s, x, y, check=True):
    x = float(x)
    y = float(y)
    if check:
        s._gate(max(abs(x), abs(y)), "evaluation point radius {:.6g}")
    xp = [1.0]
    yp = [1.0]
    for _ in range(s.cap):
        xp.append(xp[-1] * x)
        yp.append(yp[-1] * y)
    total = 0.0
    for i, j, c in ref_terms2(s):
        total += c * xp[i] * yp[j]
    return total


def ref_eval1_grid(s, X, check=True):
    if check:
        s._gate(_grid_radius(X), "grid radius {:.6g}")
    acc = np.zeros_like(X, dtype=float)
    for c in reversed(ref_dense1(s)):
        acc = acc * X + c
    return acc


def ref_eval2_grid(s, X, Y, check=True):
    if check:
        s._gate(max(_grid_radius(X), _grid_radius(Y)), "grid radius {:.6g}")
    terms = ref_terms2(s)
    if not terms:
        return np.zeros_like(X, dtype=float)
    deg_x = max(i for i, _, _ in terms)
    deg_y = max(j for _, j, _ in terms)
    xp = [np.ones_like(X, dtype=float)]
    for _ in range(deg_x):
        xp.append(xp[-1] * X)
    yp = [np.ones_like(Y, dtype=float)]
    for _ in range(deg_y):
        yp.append(yp[-1] * Y)
    out = np.zeros_like(X, dtype=float)
    for i, j, c in terms:
        out += c * xp[i] * yp[j]
    return out


def ref_reconstruct(t, x, pack, check=True):
    """reconstruct with the base point converted per call and the reference
    evaluators."""
    p = pack.problem
    t_star = scalar_float(p.t_star)
    x_star = scalar_float(p.x_star)
    v_star = scalar_float(p.v_star)
    tau = float(t) - t_star
    xi = float(x) - x_star - v_star * tau
    lam1 = ref_evaluate1(pack.lambda1, tau, check)
    lam2 = ref_evaluate1(pack.lambda2, tau, check)
    roots = cusp_roots(lam1, lam2 - xi)
    out = []
    for u_val, mult in roots:
        w_val = ref_evaluate2(pack.w_of_tau_u, tau, u_val, check)
        v_val = ref_evaluate1(pack.v_of_w, w_val, check)
        h_val = ref_evaluate2(pack.h_of_tau_v, tau, v_val, check)
        out.append((u_val, w_val, v_val, h_val, v_star + v_val, mult, len(roots) == 3))
    return out


# -- comparison -------------------------------------------------------------------


def bits(v):
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (list, tuple)):
        return [bits(w) for w in v]
    if isinstance(v, float):
        return struct.pack("<d", v)
    return v


def nan_folded(v):
    """``bits`` with every nan read as one nan.

    Where two nans of different sign or payload meet in one addition,
    CPython returns either: the generic float add returns its second
    operand's nan, the add it specializes to after a few runs of the same
    instruction its first. A kernel compiled a moment ago and a warm
    reference loop can thus differ in a nan's payload, but only where a nan
    constant or argument meets another nan, as on the series of
    ``NONFINITE``; ``test_a_single_nan_keeps_its_bits`` compares payloads
    where one nan flows.
    """
    if isinstance(v, np.ndarray) and v.dtype.kind == "f":
        return bits(np.where(np.isnan(v), math.nan, v))
    if isinstance(v, (list, tuple)):
        return [nan_folded(w) for w in v]
    if isinstance(v, float) and math.isnan(v):
        return bits(math.nan)
    return bits(v)


def raw(v):
    return struct.pack("<d", v)


def outcome(f, *args, key=bits):
    """``key`` of the result (default its bits), or the type and text of
    the error raised."""
    try:
        with np.errstate(all="ignore"):
            return key(f(*args))
    except (DomainError, OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def branch_tuples(branches):
    return [(b.U, b.W, b.V, b.h, b.v, b.multiplicity, b.inside_wedge) for b in branches]


# -- strategies -------------------------------------------------------------------

INF = math.inf
SPECIALS = [0.0, -0.0, INF, -INF, math.nan, 5e-324, -1e300]

# any float, nan and inf included, with the awkward ones drawn often
args_st = st.one_of(st.sampled_from(SPECIALS), st.floats(-2, 2), st.floats())
coeffs = {
    "q": st.fractions(min_value=-3, max_value=3, max_denominator=7),
    "rad": st.builds(
        make_radical,
        st.fractions(-2, 2, max_denominator=3),
        st.fractions(-2, 2, max_denominator=3),
        st.fractions(-2, 2, max_denominator=3),
        st.just(RAD),
    ),
    # huge coefficients make the running total overflow
    "float": st.one_of(st.floats(-4, 4), st.sampled_from([1e300, -1e300, 1e-300])),
}


@st.composite
def series_st(draw, cls):
    """A series whose top term may sit below the cap (zeros above it)."""
    cap = draw(st.integers(0, 8))
    top = draw(st.integers(0, cap))
    kind = draw(st.sampled_from(sorted(coeffs)))
    if cls is Series2:
        key = st.tuples(st.integers(0, top), st.integers(0, top)).filter(
            lambda k: k[0] + k[1] <= top
        )
        name = PAIR
    else:
        key = st.integers(0, top)
        name = "x"
    c = draw(st.dictionaries(key, coeffs[kind], max_size=10))
    return cls(name, cap, c, mode=FLOAT if kind == "float" else EXACT)


# -- evaluators against the references ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(series_st(Series1), args_st, st.booleans())
def test_series1_evaluate_bits(s, x, check):
    assert outcome(s.evaluate, x, check) == outcome(ref_evaluate1, s, x, check)


@settings(max_examples=300, deadline=None)
@given(series_st(Series2), args_st, args_st, st.booleans())
@example(
    Series2(PAIR, 3, {(1, 0): 1.0, (2, 0): -1.0, (0, 3): 1.0}, mode=FLOAT), INF, math.nan, False
)
def test_series2_evaluate_bits(s, x, y, check):
    """Raw bits, except where x or y is nan: there a nan argument can meet
    the nan of inf - inf or inf * 0 (``coeffs`` draws no nan constant), so
    nans compare without their payloads (see ``nan_folded``)."""
    key = nan_folded if math.isnan(x) or math.isnan(y) else bits
    assert outcome(s.evaluate, x, y, check, key=key) == outcome(
        ref_evaluate2, s, x, y, check, key=key)


@settings(max_examples=150, deadline=None)
@given(series_st(Series1), st.lists(args_st, min_size=1, max_size=8), st.booleans())
def test_eval1_grid_bits(s, xs, check):
    X = np.array(xs)
    assert outcome(_eval1_grid, s, X, check) == outcome(ref_eval1_grid, s, X, check)


@settings(max_examples=150, deadline=None)
@given(
    series_st(Series2),
    st.lists(st.tuples(args_st, args_st), min_size=1, max_size=8),
    st.booleans(),
)
def test_eval2_grid_bits(s, xys, check):
    X = np.array([x for x, _ in xys])
    Y = np.array([y for _, y in xys])
    assert outcome(_eval2_grid, s, X, Y, check) == outcome(ref_eval2_grid, s, X, Y, check)


# a negative quiet nan with a payload: its repr, "nan", reads back as a
# positive nan without one
NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_1234))[0]
TINY = 5e-324  # the smallest subnormal
NAN_ROW = Series1("x", 6, {0: NEG_NAN, 2: TINY, 4: 1e308}, mode=FLOAT)
INF_PAIR = Series2(PAIR, 6, {(1, 0): INF, (0, 2): -INF, (2, 1): TINY, (3, 3): 1e308}, mode=FLOAT)

HANDMADE = [
    # empty: the plan's row is the bare constant 0.0, which still turns
    # inf and nan arguments into nan as the dense row did
    Series1("x", 5, {}, mode=FLOAT),
    Series2(PAIR, 5, {}, mode=FLOAT),
    # zeros above the top term, an interior zero and a zero constant
    Series1("x", 8, {1: Fraction(3, 7), 3: make_radical(1, 2, 0, RAD)}),
    Series1("x", 6, {0: -2.5, 2: 1e300}, mode=FLOAT),
    # one-term bands next to bands of several terms, and bands that cancel
    Series2(PAIR, 7, {(1, 0): Fraction(1, 3), (0, 2): Fraction(-1, 4), (2, 1): 1, (1, 2): -1}),
    Series2(PAIR, 6, {(0, 0): 1e-300, (3, 0): 1e300, (0, 3): 1e300}, mode=FLOAT),
]

# constants with no exact literal (inf, -inf, the nan above) next to
# subnormals and 1e308
NONFINITE = [
    NAN_ROW,
    Series1("x", 4, {0: -TINY, 1: INF, 3: -INF, 4: 2.2250738585072014e-308}, mode=FLOAT),
    INF_PAIR,
    Series2(PAIR, 5, {(0, 1): -TINY, (1, 1): NEG_NAN, (2, 2): 1e308, (0, 5): -1e308}, mode=FLOAT),
]


def assert_special_arguments(s, key):
    """Points and grids at SPECIALS and two plain arguments, against the
    references, compared through ``key``."""
    points = SPECIALS + [1.5, -3.0]
    X = np.array(points)
    if isinstance(s, Series1):
        for x in points:
            for check in (True, False):
                assert outcome(s.evaluate, x, check, key=key) == outcome(
                    ref_evaluate1, s, x, check, key=key)
        assert outcome(_eval1_grid, s, X, False, key=key) == outcome(
            ref_eval1_grid, s, X, False, key=key)
        return
    for x in points:
        for y in points:
            for check in (True, False):
                assert outcome(s.evaluate, x, y, check, key=key) == outcome(
                    ref_evaluate2, s, x, y, check, key=key)
        Y = np.full_like(X, x)
        assert outcome(_eval2_grid, s, X, Y, False, key=key) == outcome(
            ref_eval2_grid, s, X, Y, False, key=key)


@pytest.mark.parametrize("s", HANDMADE, ids=repr)
def test_handmade_series_on_special_arguments(s):
    assert_special_arguments(s, bits)


@pytest.mark.parametrize("s", NONFINITE, ids=repr)
def test_nonfinite_constants_on_special_arguments(s):
    """A nan constant meets the nan argument, or a nan made of inf - inf,
    so nans compare without their payloads here."""
    assert_special_arguments(s, nan_folded)


def test_a_single_nan_keeps_its_bits():
    """A nan constant or argument that meets no other nan reaches the
    result with its sign and payload, from the kernel as from the
    references. A constant written as the literal ``nan`` would read back
    as a positive nan without the payload; it is bound by name."""
    finite1 = Series1("x", 4, {0: 1.0, 2: 3.0}, mode=FLOAT)
    finite2 = Series2(PAIR, 4, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): -0.5, (0, 2): 3.0}, mode=FLOAT)
    cases = [
        (NAN_ROW, (0.5,)),
        (NAN_ROW, (-3.0,)),
        (finite1, (NEG_NAN,)),
        (finite2, (NEG_NAN, 0.5)),
        (finite2, (0.25, NEG_NAN)),
    ]
    for s, args in cases:
        if isinstance(s, Series1):
            ref, grid, ref_grid = ref_evaluate1, _eval1_grid, ref_eval1_grid
        else:
            ref, grid, ref_grid = ref_evaluate2, _eval2_grid, ref_eval2_grid
        arrays = [np.array([a]) for a in args]
        with np.errstate(all="ignore"):
            got = [s.evaluate(*args, check=False), ref(s, *args, False),
                   grid(s, *arrays, False)[0], ref_grid(s, *arrays, False)[0]]
        assert [raw(g) for g in got] == [raw(NEG_NAN)] * 4, (s, args)
    bound = NAN_ROW._float_kernel()[0].__globals__
    assert sorted(k for k in bound if k.startswith("k")) == ["k0", "kernel"]
    assert raw(bound["k0"]) == raw(NEG_NAN)
    bound = INF_PAIR._float_kernel()[0].__globals__
    assert sorted(bound[k] for k in bound if k.startswith("k") and k != "kernel") == [-INF, INF]


def test_plan_shapes():
    row = Series1("x", 8, {0: 1.0, 2: 2.0, 4: 3.0}, mode=FLOAT)._floats()[0]
    assert row == [3.0, 0.0, 2.0, 0.0, 1.0]
    assert Series1("x", 8, {}, mode=FLOAT)._floats()[0] == [0.0]
    s = Series2(PAIR, 6, {(0, 2): 2.0, (1, 0): 1.0, (2, 0): 3.0, (0, 1): 4.0}, mode=FLOAT)
    assert s._floats()[0] == (2, 2, [(0, 1, 4.0), (1, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0)])
    assert Series2(PAIR, 6, {}, mode=FLOAT)._floats()[0] == (0, 0, [])


# -- reconstruct and branch_field on real packs --------------------------------------


@pytest.fixture(scope="module")
def packs():
    out = {}
    for mode in (EXACT, FLOAT):
        for name, problem in (
            ("canonical", canonical_problem()),
            ("generic_n10", random_singular_problem(random.Random(0))),
        ):
            sol = expand_potential(problem, order=10, mode=mode)
            out[name, mode] = build_normal_form(hodograph_map(sol))
    return out


def test_float_base_point(packs):
    for pack in packs.values():
        p = pack.problem
        assert bits(pack._float_base) == bits(
            (scalar_float(p.t_star), scalar_float(p.x_star), scalar_float(p.v_star))
        )


def test_reconstruct_matches_reference(packs):
    rng = random.Random(11)
    for (name, _), pack in packs.items():
        p = pack.problem
        t0, x0 = float(p.t_star), float(p.x_star)
        # the generic series refuse beyond ~1e-3; some probes lie outside
        reach = 2e-3 if name == "canonical" else 4e-4
        for _ in range(150):
            t = t0 + rng.uniform(-reach, reach)
            x = x0 + rng.uniform(-1.0, 1.0) * reach ** 1.5
            for check in (True, False):
                got = outcome(lambda: branch_tuples(reconstruct(t, x, pack, check=check)))
                assert got == outcome(ref_reconstruct, t, x, pack, check)


def test_branch_field_matches_reference(packs, monkeypatch):
    cases = []
    for (name, _), pack in packs.items():
        side = pack.multivalued_halfplane()
        t0, x0 = float(pack.problem.t_star), float(pack.problem.x_star)
        if name == "canonical":
            # the field-eval sheets: one per side of the cusp
            grids = [(GridSpec((-side * 0.5, 0.0), 1e-3, 2e-5), None),
                     (GridSpec((side * 0.5, 0.0), 1e-3, 2e-5), 0)]
        else:
            grids = [(GridSpec((t0 - side * 2e-4, x0), 2e-5, 1e-6), None)]
        for grid, branch in grids:
            T, X = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
            cases.append((pack, T, X, branch))
    # past the generic lambda2's radius: the gated sheet is refused
    pack = packs["generic_n10", EXACT]
    side = pack.multivalued_halfplane()
    t0, x0 = float(pack.problem.t_star), float(pack.problem.x_star)
    T, X = np.meshgrid(t0 + side * np.linspace(1e-3, 1.2e-3, 5), x0 + np.zeros(5), indexing="ij")
    cases.append((pack, T, X, None))
    got = [outcome(branch_field, *case, check) for case in cases for check in (False, True)]
    monkeypatch.setattr(verify, "_eval1_grid", ref_eval1_grid)
    monkeypatch.setattr(verify, "_eval2_grid", ref_eval2_grid)
    want = [outcome(branch_field, *case, check) for case in cases for check in (False, True)]
    assert got == want
    assert all(isinstance(g, list) for g in got[::2]), "every sheet must evaluate ungated"
    # gated, the generic sheets are refused: two at W(tau, U), one at lambda2
    assert [g[0] for g in got[1::2] if isinstance(g, tuple)] == ["DomainError"] * 3


def pushed_probes(pack, taus, us):
    """(t, x) whose cusp cubic at tau has the root u, for each tau and u."""
    t_star, x_star, v_star = pack._float_base
    lam1, lam2 = pack.lambda1.to_float(), pack.lambda2.to_float()
    out = []
    for tau in taus:
        l1, l2 = lam1.evaluate(tau, check=False), lam2.evaluate(tau, check=False)
        for u in us:
            out.append((t_star + tau, x_star + v_star * tau + u ** 3 + l1 * u + l2))
    return out


def test_reconstruct_gates_like_the_reference(pool_packs):
    """Probes just inside and just outside the validity radii of series that
    reconstruct evaluates: lambda1 (a generic pack's lambda1 ends below its
    cap, so one is given a top term), lambda2 and W(tau, U). Refusals must
    occur and match the reference, text included."""
    generic = pool_packs[0, 16]
    lam1 = generic.lambda1
    slope = abs(float(lam1.coefficient(1)))
    # top term c tau**16 with radius (1e-12 slope / c)**(1/15) = 1e-3
    top = Series1("tau", 16, {16: Fraction(slope * 1e-12 / 1e-3 ** 15)})
    bounded = dataclasses.replace(generic, lambda1=lam1 + top)
    assert math.isclose(bounded.lambda1.validity_radius(), 1e-3, rel_tol=1e-9)
    near = [1 - 1e-6, 1 + 1e-6, 1.01]
    refused = set()
    for pack, attr in ((bounded, "lambda1"), (generic, "lambda2"), (generic, "w_of_tau_u")):
        s = getattr(pack, attr)
        r = s.validity_radius()
        if attr == "w_of_tau_u":
            probes = pushed_probes(pack, [1e-4, -1e-4], [m * r for m in near] + [-m * r for m in near])
        else:
            probes = pushed_probes(pack, [m * r for m in near] + [-m * r for m in near], [0.0])
        for t, x in probes:
            for check in (True, False):
                got = outcome(lambda: branch_tuples(reconstruct(t, x, pack, check=check)))
                assert got == outcome(ref_reconstruct, t, x, pack, check)
                if got[0] == "DomainError":
                    refused.add(got[1].endswith(f"validity radius {r:.6g} of {s!r}") and attr)
    assert {"lambda1", "lambda2", "w_of_tau_u"} <= refused


def counting_compiles(monkeypatch):
    """A list that gains one entry per kernel compiled from now on."""
    compiled = []
    compile_kernel = series._compile_kernel

    def counted(source, plan):
        compiled.append(plan)
        return compile_kernel(source, plan)

    monkeypatch.setattr(series, "_compile_kernel", counted)
    return compiled


def test_kernels_compile_on_first_evaluation_only(tmp_path, monkeypatch):
    compiled = counting_compiles(monkeypatch)
    pack = build_normal_form(hodograph_map(expand_potential(canonical_problem(), 10)))
    for attr in PACK_SERIES:
        getattr(pack, attr).validity_radius()
    save_pack(pack, tmp_path)
    assert compiled == []
    p = pack.problem
    reconstruct(float(p.t_star) + 1e-4, float(p.x_star), pack)
    assert len(compiled) == 5  # lambda1, lambda2, W(tau, U), V(W), h(tau, V)
    taus = [pack.multivalued_halfplane() * 1e-3]
    first = zero_curves(pack, taus)
    assert len(compiled) == 7  # xi(tau, V) and dh/dV
    assert zero_curves(pack, taus) == first
    assert len(compiled) == 7


# -- points against grids: one rule per series kind -------------------------------------

PACK_SERIES = (
    "h_of_tau_v", "xi_of_tau_v", "v_of_w", "xi_of_tau_w",
    "lambda1", "lambda2", "u_of_tau_w", "w_of_tau_u",
)
EDGES = [0.0, -0.0, INF, -INF, math.nan, 1e200, -1e200]


def point_and_grid_bits(s, X, Y, check):
    """(evaluate at each node, the grid evaluator over all nodes), as bytes,
    then the same from the reference evaluators; Y is ignored for a
    Series1."""
    with np.errstate(all="ignore"):
        if isinstance(s, Series1):
            point = [s.evaluate(x, check) for x in X.tolist()]
            grid = _eval1_grid(s, X, check)
            ref_point = [ref_evaluate1(s, x, check) for x in X.tolist()]
            ref_grid = ref_eval1_grid(s, X, check)
        else:
            point = [s.evaluate(x, y, check) for x, y in zip(X.tolist(), Y.tolist())]
            grid = _eval2_grid(s, X, Y, check)
            ref_point = [ref_evaluate2(s, x, y, check) for x, y in zip(X.tolist(), Y.tolist())]
            ref_grid = ref_eval2_grid(s, X, Y, check)
    return [bits(np.array(point, dtype=float)), bits(grid),
            bits(np.array(ref_point, dtype=float)), bits(ref_grid)]


def assert_points_match_grid(s, rng, count):
    """Random nodes inside the validity disc (inside 1e-3 where it is
    unbounded) with the gate on, then every pair of edge arguments with it
    off; points, grid and both references must agree."""
    r = s.validity_radius()
    # random.uniform(-reach, reach) overflows once 2 * reach does
    reach = 1e-3 if math.isinf(r) else min(r, 1e300)
    X = np.array([rng.uniform(-reach, reach) for _ in range(count)])
    Y = np.array([rng.uniform(-reach, reach) for _ in range(count)])
    point, *others = point_and_grid_bits(s, X, Y, True)
    assert others == [point] * 3, f"{s!r} inside radius {r:.6g}"
    X = np.array([x for x in EDGES for _ in EDGES])
    Y = np.array(EDGES * len(EDGES))
    point, *others = point_and_grid_bits(s, X, Y, False)
    assert others == [point] * 3, f"{s!r} at edge arguments"


@pytest.fixture(scope="module")
def pool_packs():
    out = {}
    for seed in (0, 1, 2):
        for order in (10, 16):
            sol = expand_potential(random_singular_problem(random.Random(seed)), order=order)
            out[seed, order] = build_normal_form(hodograph_map(sol))
    return out


def test_point_and_grid_evaluators_agree_on_packs(packs, pool_packs):
    rng = random.Random(14)
    canonical = [packs["canonical", mode] for mode in (EXACT, FLOAT)]
    # every exact order-16 pack: the canonical one and pool instances 0-2
    canonical.append(build_normal_form(hodograph_map(expand_potential(canonical_problem(), 16))))
    for pack in [*canonical, *pool_packs.values()]:
        for name in PACK_SERIES:
            assert_points_match_grid(getattr(pack, name), rng, 300)
    # the pool series do hold bands of several terms, where the order of
    # the additions shows in the last bits
    assert any(
        len(list(s.terms())) > s.cap + 1
        for pack in pool_packs.values()
        for s in (pack.h_of_tau_v, pack.w_of_tau_u)
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(series_st(Series1), series_st(Series2)), st.randoms(use_true_random=False))
def test_point_and_grid_evaluators_agree_on_random_series(s, rng):
    assert_points_match_grid(s, rng, 20)


def test_point_and_grid_evaluators_agree_on_edge_series():
    cancel = Series2(PAIR, 2, {(2, 0): 1, (1, 1): -1}, mode=FLOAT)
    # x**2 - x*y at x = y = 1e200: the terms overflow to +inf and -inf, and
    # their sum is nan from the point as from the grid
    assert math.isnan(cancel.evaluate(1e200, 1e200, check=False))
    rng = random.Random(0)
    for s in (cancel, Series2(PAIR, 5, {}, mode=FLOAT), Series1("x", 5, {}, mode=FLOAT)):
        assert_points_match_grid(s, rng, 50)


# -- one discriminant for both classifiers ---------------------------------------------


def unit_cubic_pack():
    """A float pack with lambda1(tau) = tau, lambda2 = 0 and its base point at
    the origin: branch_field at (t, x) = (p, -q) classifies U**3 + p U + q."""
    cap = 3
    zero2 = Series2(("tau", "U"), cap, {}, mode=FLOAT)
    zero1 = Series1("W", cap, {}, mode=FLOAT)
    return NormalFormPack(
        h_of_tau_v=zero2,
        xi_of_tau_v=zero2,
        v_of_w=zero1,
        xi_of_tau_w=zero2,
        lambda1=Series1("tau", cap, {1: 1.0}, mode=FLOAT),
        lambda2=Series1("tau", cap, {}, mode=FLOAT),
        u_of_tau_w=zero2,
        w_of_tau_u=zero2,
        b11=1.0,
        problem=canonical_problem(),
    )


def fold_pairs():
    """21,698 fixed (p, q) pairs, none zero.

    4,000 are spread over |p| in [1e-8, 10] and |q| in [1e-12, 30]. Then
    14,450 step q by one ulp at a time, 17 steps, across the fold
    tolerance, where one ulp of the discriminant changes the class:
    500 boundary points with p < 0 at disc = +-1e-12 (the wedge side and
    the single-root side), and 150 with p > 0, where disc = -1e-12 marks
    the edge of the tiny double-root region, all inside |p|, |q| < 1, where
    the tolerance scale is exactly 1; and 200 boundary points with p in
    [-5, -1], at disc = +-1e-12 |p|**3. Last come the 3,248 pairs of
    ``tolerance_ties``.
    """
    rng = np.random.default_rng(20261018)
    n = 4000
    p = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 1, n)
    q = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 1.5, n)
    ps, qs = [p], [q]
    edges = [(-1.0, 500, -4, -0.5), (1.0, 150, -6, -4.4), (-1.0, 200, 0.0, math.log10(5.0))]
    for sign, count, lo, hi in edges:
        pe = sign * 10.0 ** rng.uniform(lo, hi, count)
        # 27 q**2 = -4 p**3 - disc at disc = -+tol
        disc = BOUNDARY_TOL * (rng.choice([-1.0, 1.0], count) if sign < 0 else -1.0)
        disc *= np.maximum(1.0, np.abs(pe)) ** 3
        qe = np.sqrt((-4.0 * pe ** 3 - disc) / 27.0) * rng.choice([-1.0, 1.0], count)
        for k in range(-8, 9):
            ps.append(pe)
            qs.append(qe + np.sign(qe) * k * np.spacing(np.abs(qe)))
    P, Q = tolerance_ties()
    return np.concatenate(ps + [P]), np.concatenate(qs + [Q])


def tolerance_ties():
    """3,248 pairs with p in [-5, -1] whose discriminant equals +-1e-12 s.

    s is max(1, p**2, q**2)**1.5 = |p|**3, rounded as scalar ``** 1.5``,
    numpy's ``** 1.5`` or ``m * sqrt(m)`` round it. Where those roundings
    differ, a classifier that scales by one of them and a classifier that
    scales by another draw different classes at such a pair. While
    -4 p**3 lies in [2**e, 2**(e+1)), the discriminant is a multiple of
    2**(e-52), so each tolerance t is chosen as such a multiple; p and q
    are then found by stepping ulps around |p| = (t/1e-12)**(1/3) and
    27 q**2 = -4 p**3 -+ t.
    """
    ps, qs = [], []
    for e in range(2, 9):
        unit = 2.0 ** (e - 52)
        lo = max(1.0, 2.0 ** ((e - 2) / 3))
        hi = min(5.0, 2.0 ** ((e - 1) / 3))
        k = np.arange(
            math.ceil(BOUNDARY_TOL * lo**3 / unit), math.floor(BOUNDARY_TOL * hi**3 / unit) + 1
        )
        t = k * unit
        p0 = -np.cbrt(t / BOUNDARY_TOL)
        for dp in range(-4, 5):
            p = p0 + dp * np.spacing(p0)
            m = p * p
            scales = (np.array([x**1.5 for x in m.tolist()]), m**1.5, m * np.sqrt(m))
            on = np.zeros(p.size, bool)
            for scale in scales:
                on |= BOUNDARY_TOL * scale == t
            p, tp = p[on], t[on]
            for sign in (1.0, -1.0):
                q0 = np.sqrt((-4.0 * p * p * p - sign * tp) / 27.0)
                for dq in range(-6, 7):
                    q = q0 + dq * np.spacing(q0)
                    hit = cusp.cubic_discriminant(p, q) == sign * tp
                    ps.append(p[hit])
                    qs.append(q[hit])
    return np.concatenate(ps), np.concatenate(qs)


def scalar_class(p, q):
    roots = cusp_roots(p, q)
    if any(m > 1 for _, m in roots):
        return "fold"
    return "wedge" if len(roots) == 3 else "single"


def grid_class(pack, p, q):
    try:
        branch_field(pack, np.array([p]), np.array([-q]), None, check=False)
    except UsageError as exc:
        return "fold" if "fold curve" in str(exc) else "wedge"
    return "single"


def test_cusp_roots_and_branch_field_share_the_discriminant(monkeypatch):
    P, Q = fold_pairs()
    assert P.size == Q.size == 21_698 and np.all(P != 0.0) and np.all(Q != 0.0)
    pack = unit_cubic_pack()
    seen = {"disc": [], "scale": []}

    def recording(kind, f):
        def recorded(p, q):
            out = f(p, q)
            seen[kind].append(out)
            return out

        return recorded

    disc = recording("disc", cusp.cubic_discriminant)
    scale = recording("scale", cusp.fold_scale)
    for module in (cusp, verify):
        monkeypatch.setattr(module, "cubic_discriminant", disc)
    # both classifiers scale the fold band in ``cusp._near_fold``
    monkeypatch.setattr(cusp, "fold_scale", scale)
    with pytest.raises(UsageError):
        branch_field(pack, P, -Q, None, check=False)
    ((grid_disc,), (grid_scale,)) = seen.values()
    seen = {"disc": [], "scale": []}
    scalar = [scalar_class(p, q) for p, q in zip(P.tolist(), Q.tolist())]
    assert np.array(seen["disc"]).tobytes() == grid_disc.tobytes()
    assert np.array(seen["scale"]).tobytes() == grid_scale.tobytes()
    grid = [grid_class(pack, p, q) for p, q in zip(P.tolist(), Q.tolist())]
    mismatched = [(p, q, a, b) for p, q, a, b in zip(P, Q, scalar, grid) if a != b]
    assert not mismatched, mismatched[:5]
    # the edge pairs do straddle the tolerance: every class occurs
    assert {"fold", "wedge", "single"} <= set(grid)
