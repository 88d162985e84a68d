"""Normal-form pack construction, miniversal fit, and pack serialization."""

import dataclasses
import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hodocusp import (
    CubicRadical,
    DegeneracyError,
    DomainError,
    ProblemData,
    build_normal_form,
    canonical_problem,
    cbrt_exact,
    expand_potential,
    make_radical,
    reconstruct,
    hodograph_map,
    roundtrip_w_u,
    save_pack,
    verify_miniversal,
)
from hodocusp import normal_form
from hodocusp.scalars import rational_cbrt
from hodocusp.series import (
    FLOAT,
    Series1,
    Series2,
    lift1to2,
    series1_text,
    series2_text,
    substitute,
)

from conftest import random_singular_problem

GOLDEN = Path(__file__).parent / "golden" / "canonical_n6"
# exact pack of random_singular_problem(random.Random(0)) at order 10: generic,
# every series fills its top band, so nothing terminates early
GOLDEN_GENERIC = Path(__file__).parent / "golden" / "generic_n10"
# sha256 of the nine files save_pack writes for the same instance at order 16,
# the top order: its series carry cube-root coefficients through every stage
GOLDEN_GENERIC_16 = Path(__file__).parent / "golden" / "generic_n16.json"
# the order-16 packs of pool instances 0-19, with key orders and radii, and
# their float outcomes at orders 10 and 16
GOLDEN_POOL_16 = Path(__file__).parent / "golden" / "pool_n16.py"
PACK_SERIES = (
    ("h_of_tau_v", "h_of_tau_V.txt"),
    ("xi_of_tau_v", "xi_of_tau_V.txt"),
    ("v_of_w", "V_of_W.txt"),
    ("xi_of_tau_w", "xi_of_tau_W.txt"),
    ("lambda1", "lambda1.txt"),
    ("lambda2", "lambda2.txt"),
    ("u_of_tau_w", "U_of_tau_W.txt"),
    ("w_of_tau_u", "W_of_tau_U.txt"),
)


def low2(s):
    """Coefficients up to the effective order, where identities are owed."""
    return {(i, j): v for i, j, v in s.terms() if i + j <= s.eff}


def low1(s):
    return {k: v for k, v in s.terms() if k <= s.eff}


def random_pack(seed, order=5):
    rng = random.Random(seed)
    p = random_singular_problem(rng)
    return build_normal_form(hodograph_map(expand_potential(p, order=order)))


# -- canonical instance: every series collapses to a short exact form --------


def test_canonical_h_of_tau_v(canonical_pack):
    assert low2(canonical_pack.h_of_tau_v) == {
        (1, 0): Fraction(1),
        (0, 2): Fraction(-1, 4),
    }


def test_canonical_xi_of_tau_v(canonical_pack):
    assert low2(canonical_pack.xi_of_tau_v) == {
        (1, 1): Fraction(-1),
        (0, 3): Fraction(5, 12),
    }


def test_canonical_v_of_w_single_radical_term(canonical_pack):
    c = cbrt_exact(Fraction(12, 5))
    assert low1(canonical_pack.v_of_w) == {1: c}


def test_canonical_xi_of_tau_w(canonical_pack):
    c = cbrt_exact(Fraction(12, 5))
    assert low2(canonical_pack.xi_of_tau_w) == {(0, 3): Fraction(1), (1, 1): -c}


def test_canonical_lambdas(canonical_pack):
    c = cbrt_exact(Fraction(12, 5))
    assert low1(canonical_pack.lambda1) == {1: -c}
    assert canonical_pack.lambda2.is_zero()
    assert canonical_pack.lambda1_slope() == -c


def test_canonical_w_u_change_is_identity(canonical_pack):
    assert low2(canonical_pack.u_of_tau_w) == {(0, 1): Fraction(1)}
    assert low2(canonical_pack.w_of_tau_u) == {(0, 1): Fraction(1)}


def test_canonical_halfplane_is_positive_tau(canonical_pack):
    assert canonical_pack.multivalued_halfplane() == 1


def test_canonical_order_and_mode(canonical_pack):
    assert canonical_pack.order == 10
    assert canonical_pack.mode == "exact"
    assert canonical_pack.b11 == 1


# -- structural identities on random singular instances ----------------------


@pytest.mark.parametrize("seed", range(5))
def test_normal_form_constants_exact(seed):
    pack = random_pack(seed)
    b11 = pack.b11
    assert b11 == pack.problem.b11
    c = cbrt_exact(Fraction(12, 5) / b11)
    assert pack.xi_of_tau_v.coefficient(0, 3) == Fraction(5, 12) * b11
    assert pack.v_of_w.coefficient(1) == c
    assert pack.lambda1_slope() == -c
    assert pack.lambda2.coefficient(1) == 0
    assert pack.u_of_tau_w.coefficient(0, 1) == 1
    assert pack.xi_of_tau_w.coefficient(0, 3) == 1


def over_q(s, power, rad):
    """s with each coefficient v = q c**n, n = power(key) and c**3 = rad,
    replaced by the rational q; asserts that v is that single monomial."""
    root = rational_cbrt(rad)
    out = {}
    for k, v in s._c.items():
        n = power(k)
        if root is not None:
            assert isinstance(v, Fraction), (k, v)
            out[k] = v / root**n
            continue
        parts = [v.a0, v.a1, v.a2] if isinstance(v, CubicRadical) else [v, 0, 0]
        q = parts.pop(n % 3)
        assert parts == [0, 0], (k, v, n)
        out[k] = q / rad ** (n // 3)
    return type(s)(s._vars, s.cap, out, eff=s.eff)


@pytest.mark.parametrize("seed", range(5))
def test_composition_collapses_xi_to_depressed_cubic(seed):
    """xi(tau, V(W)) = xi(tau, W), read over Q in w = cW: V~(w) = V(w/c)
    and xi~(tau, w) = xi(tau, w/c), with c**3 = 12/(5 b11)."""
    pack = random_pack(seed)
    rad = Fraction(12, 5) / pack.b11
    v_q = over_q(pack.v_of_w, lambda j: j, rad)
    xi_q = over_q(pack.xi_of_tau_w, lambda k: k[1], rad)
    comp = substitute(pack.xi_of_tau_v, "V", lift1to2(v_q, ("tau", "W"), 1))
    assert low2(comp - xi_q) == {}
    assert comp.eff == xi_q.eff


@pytest.mark.parametrize("seed", range(5))
def test_miniversal_residual_vanishes(seed):
    pack = random_pack(seed)
    assert low2(verify_miniversal(pack)) == {}


@pytest.mark.parametrize("seed", range(5))
def test_w_u_roundtrips_vanish(seed):
    pack = random_pack(seed)
    ru, rw = roundtrip_w_u(pack)
    assert low2(ru) == {}
    assert low2(rw) == {}


def float_identity_points(pack):
    """(tau, W) points inside half the smallest validity radius of the
    series the identities read."""
    series = (pack.xi_of_tau_w, pack.u_of_tau_w, pack.w_of_tau_u, pack.lambda1, pack.lambda2)
    r = 0.5 * min([s.validity_radius() for s in series] + [1.0])
    steps = (1.0, 0.5, 0.1, -0.5, -1.0)
    return [(a * r, b * r) for a in steps for b in (1.0, 0.3, 0.0, -0.7, -1.0)]


@pytest.mark.parametrize("order", [10, 16])
def test_w_frame_pack_satisfies_the_identities_in_float(order):
    """The stored pack, evaluated in floats without the weight table:
    xi = U^3 + lambda1 U + lambda2 and U(tau, W(tau, U)) = U. A wrong power
    of c in any of the five series breaks one of them by O(1). Measured on
    these instances: at most 9.6e-16 and 1.1e-13 (instance 12 at order 10)."""
    problems = [canonical_problem()] + [
        random_singular_problem(random.Random(i)) for i in range(20)
    ]
    for problem in problems:
        pack = build_normal_form(hodograph_map(expand_potential(problem, order=order)))
        for tau, w in float_identity_points(pack):
            xi = pack.xi_of_tau_w.evaluate(tau, w)
            u = pack.u_of_tau_w.evaluate(tau, w)
            l1, l2 = pack.lambda1.evaluate(tau), pack.lambda2.evaluate(tau)
            size = abs(xi) + abs(u) ** 3 + abs(l1 * u) + abs(l2)
            assert abs(xi - (u**3 + l1 * u + l2)) <= 1e-14 * size, (problem, tau, w)
            # the point read as (tau, U)
            back = pack.u_of_tau_w.evaluate(tau, pack.w_of_tau_u.evaluate(tau, w))
            assert abs(back - w) <= 1e-12 * max(abs(w), abs(tau)), (problem, tau, w)


@pytest.mark.parametrize("attr", ["xi_of_tau_w", "u_of_tau_w", "lambda1", "lambda2"])
def test_a_shifted_weight_table_breaks_the_miniversal_identity(monkeypatch, attr):
    """The exact pack read as it is stored: one entry of the weight table
    shifted by one power of c, which changes only how the pack is
    assembled, leaves a residual below the effective order."""
    power = normal_form._C_POWERS[attr]
    monkeypatch.setitem(normal_form._C_POWERS, attr, lambda k: power(k) + 1)
    assert low2(verify_miniversal(random_pack(0, order=16))) != {}


@pytest.mark.parametrize("attr", ["u_of_tau_w", "w_of_tau_u"])
def test_a_shifted_weight_table_breaks_the_w_u_roundtrips(monkeypatch, attr):
    power = normal_form._C_POWERS[attr]
    monkeypatch.setitem(normal_form._C_POWERS, attr, lambda k: power(k) + 1)
    ru, rw = roundtrip_w_u(random_pack(0, order=16))
    assert low2(ru) != {}
    assert low2(rw) != {}


@pytest.mark.parametrize(
    "attr, key",
    [("u_of_tau_w", (1, 1)), ("u_of_tau_w", (1, 2)), ("lambda1", 1), ("xi_of_tau_w", (0, 3))],
)
def test_a_coefficient_at_another_power_of_c_leaves_a_residual(attr, key):
    """A pack whose coefficient sits at c**(n + 1) instead of c**n fails
    both identity checks that read it."""
    pack = random_pack(0, order=6)
    rad = Fraction(12, 5) / pack.b11
    s = getattr(pack, attr)
    v = s._c[key]
    # q c**n -> q c**(n + 1): a0 + a1 c + a2 c^2 becomes a2 rad + a0 c + a1 c^2
    parts = (v.a0, v.a1, v.a2) if isinstance(v, CubicRadical) else (v, 0, 0)
    moved = make_radical(parts[2] * rad, parts[0], parts[1], rad)
    corrupted = type(s)._raw(s._vars, s.cap, {**s._c, key: moved}, s.mode, s.eff)
    bad = dataclasses.replace(pack, **{attr: corrupted})
    assert low2(verify_miniversal(bad)) != {}
    if attr == "u_of_tau_w":
        ru, rw = roundtrip_w_u(bad)
        assert low2(ru) != {} and low2(rw) != {}


def test_lambda22_corruption_leaves_unit_residual(canonical_pack):
    base = verify_miniversal(canonical_pack)
    bump = Series1("tau", canonical_pack.lambda2.cap, {2: Fraction(1)})
    bad = dataclasses.replace(canonical_pack, lambda2=canonical_pack.lambda2 + bump)
    diff = verify_miniversal(bad) - base
    coeffs = {(i, j): v for i, j, v in diff.terms()}
    assert coeffs == {(2, 0): Fraction(-1)}
    assert abs(coeffs[(2, 0)]) == 1


def test_sign_law_negative_b11():
    p = ProblemData(
        b0=(0, 0, 0, Fraction(-1, 2), Fraction(1, 3)),
        alpha=(Fraction(1, 4),),
        v_star=Fraction(1, 2),
        b0_polynomial=True,
    )
    pack = build_normal_form(hodograph_map(expand_potential(p, order=5)))
    assert pack.b11 == -6
    c = cbrt_exact(Fraction(12, 5) / pack.b11)
    assert pack.lambda1_slope() == -c
    assert float(pack.lambda1_slope()) > 0
    assert pack.multivalued_halfplane() == -1


# -- degeneracy guards --------------------------------------------------------


def test_rejects_nonvanishing_jacobian():
    p = ProblemData(
        b0=(0, 0, Fraction(1), Fraction(1, 12)),
        alpha=(),
        v_star=0,
        b0_polynomial=True,
    )
    with pytest.raises(DegeneracyError, match="b02 must be 0"):
        build_normal_form(hodograph_map(expand_potential(p, order=4)))


def test_rejects_vanishing_cubic_term():
    p = ProblemData(
        b0=(0, 0, 0, 0, Fraction(1)),
        alpha=(),
        v_star=0,
        b0_polynomial=True,
    )
    with pytest.raises(DegeneracyError, match="b03 must be nonzero"):
        build_normal_form(hodograph_map(expand_potential(p, order=4)))


def test_order_recap():
    # the pack of an order-4 expansion is the order-8 pack cut at cap 4
    pack, big = (
        build_normal_form(hodograph_map(expand_potential(canonical_problem(), order=n)))
        for n in (4, 8)
    )
    assert pack.order == 4
    assert pack.lambda1_slope() == -cbrt_exact(Fraction(12, 5))
    for f in dataclasses.fields(pack):
        s = getattr(pack, f.name)
        if isinstance(s, (Series1, Series2)):
            assert getattr(big, f.name).recap(4) == s


# -- numeric evaluation -------------------------------------------------------


def test_h_at_canonical_points(canonical_pack):
    h_at = canonical_pack.h_of_tau_v.evaluate
    assert h_at(0.0, 0.0) == 0.0
    assert abs(h_at(1e-4, 0.0) - 1e-4) < 1e-10
    v = 0.02
    assert abs(h_at(0.0, v) - (-v * v / 4)) < 1e-12


def test_h_at_outside_validity_disc_raises():
    pack = random_pack(3)
    with pytest.raises(DomainError, match="validity radius"):
        pack.h_of_tau_v.evaluate(1.0, 0.0)


def test_float_mode_build_matches_exact_slope():
    sol = expand_potential(canonical_problem(), order=6, mode=FLOAT)
    pack = build_normal_form(hodograph_map(sol))
    assert pack.mode == "float"
    assert pack.lambda1_slope() == pytest.approx(-1.338865900164339, rel=1e-12)
    assert pack.multivalued_halfplane() == 1


@pytest.mark.parametrize("seed", range(20))
def test_float_build_generic_matches_exact(seed):
    # tau and xi carry no constant term in float mode, so construction no
    # longer refuses generic instances with UsageError over xi(0, 0) ~ 1e-16
    sol = expand_potential(random_singular_problem(random.Random(seed)), order=10, mode=FLOAT)
    try:
        fpack = build_normal_form(hodograph_map(sol))
    except DegeneracyError as exc:
        # the absolute 1e-9 check on xi(0, W) - W^3 still refuses instances
        # whose coefficients reach ~1e12, where roundoff alone exceeds it
        assert "cube normalization failed" in str(exc)
        return
    assert_float_pack_matches_exact(fpack, random_pack(seed, order=10))


def test_float_build_generic_order16_matches_exact():
    # at order 16 the float build of instance 11 used to fail the 1e-9 cube
    # check; cube_root_normalize now solves each order at the cap it reads
    sol = expand_potential(random_singular_problem(random.Random(11)), order=16, mode=FLOAT)
    fpack = build_normal_form(hodograph_map(sol))
    assert_float_pack_matches_exact(fpack, random_pack(11, order=16))


def assert_float_pack_matches_exact(fpack, epack):
    p = epack.problem
    t, x = float(p.t_star), float(p.x_star)
    got, want = reconstruct(t, x, fpack), reconstruct(t, x, epack)
    assert [b.multiplicity for b in got] == [b.multiplicity for b in want]
    for g, w in zip(got, want):
        assert abs(g.h - w.h) <= 1e-9
        assert abs(g.v - w.v) <= 1e-9
    # coefficient by coefficient up to eff, relative to the largest exact
    # coefficient of the same total degree
    for attr, _ in PACK_SERIES:
        f, e = getattr(fpack, attr), getattr(epack, attr).to_float()
        deg = sum if isinstance(f, Series2) else int
        for k in set(f._c) | set(e._c):
            if deg(k) > e.eff:
                continue
            band = max(abs(v) for kk, v in e._c.items() if deg(kk) == deg(k))
            assert abs(f._c.get(k, 0.0) - e._c.get(k, 0.0)) <= 1e-8 * band, (attr, k)


# -- serialization ------------------------------------------------------------


def test_save_pack_matches_golden(tmp_path):
    pack = build_normal_form(
        hodograph_map(expand_potential(canonical_problem(), order=6))
    )
    names = save_pack(pack, tmp_path)
    assert names == [
        "h_of_tau_V.txt",
        "xi_of_tau_V.txt",
        "V_of_W.txt",
        "xi_of_tau_W.txt",
        "lambda1.txt",
        "lambda2.txt",
        "U_of_tau_W.txt",
        "W_of_tau_U.txt",
        "manifest.json",
    ]
    for fname in names:
        fresh = (tmp_path / fname).read_bytes()
        frozen = (GOLDEN / fname).read_bytes()
        assert fresh == frozen, f"{fname} drifted from the frozen copy"


def read_series_text(text):
    """Parse a series1/series2 table back into a series (exact mode only)."""
    head = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("# ") and ": " in line:
            key, _, val = line[2:].partition(": ")
            head[key] = val
        elif not line.startswith("#"):
            rows.append([int(f) for f in line.split()])
    assert head["mode"] == "exact"
    rad = Fraction(head["radicand"]) if "radicand" in head else None

    def scalar(f):
        if rad is None:
            return Fraction(f[0], f[1])
        return make_radical(
            Fraction(f[0], f[1]), Fraction(f[2], f[3]), Fraction(f[4], f[5]), rad
        )

    cap, eff = int(head["cap"]), int(head["eff"])
    if "names" in head:
        coeffs = {(r[0], r[1]): scalar(r[2:]) for r in rows}
        return Series2(tuple(head["names"].split()), cap, coeffs, eff=eff)
    return Series1(head["name"], cap, {r[0]: scalar(r[1:]) for r in rows}, eff=eff)


def test_generic_pack_matches_golden(tmp_path):
    pack = random_pack(0, order=10)
    save_pack(pack, tmp_path)
    for attr, fname in PACK_SERIES:
        s = getattr(pack, attr)
        frozen = (GOLDEN_GENERIC / fname).read_text()
        want = read_series_text(frozen)
        assert s == want, f"{attr} drifted from the frozen copy"
        assert s.eff == want.eff, f"{attr}: eff {s.eff} != {want.eff}"
        text = series1_text(s) if isinstance(s, Series1) else series2_text(s)
        assert text == frozen
        assert (tmp_path / fname).read_bytes() == (GOLDEN_GENERIC / fname).read_bytes()
    manifest = (tmp_path / "manifest.json").read_bytes()
    assert manifest == (GOLDEN_GENERIC / "manifest.json").read_bytes()


def test_generic_order16_pack_matches_golden_digests(tmp_path):
    frozen = json.loads(GOLDEN_GENERIC_16.read_text())
    assert frozen["order"] == 16
    pack = random_pack(0, order=16)
    written = save_pack(pack, tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in written}
    assert digests == frozen["sha256"]


def test_pool_order16_packs_keep_bytes_key_order_and_radii(tmp_path):
    """Pool instances 0-19 at order 16 save the recorded files, and every
    pack series keeps its recorded key order and validity radius; the float
    builds at orders 10 and 16 keep their recorded packs or refusals.
    Instance 0's exact record is the generic_n16 golden. The two implicit
    solves store their terms band by band, ascending in the solved-for
    value."""
    spec = importlib.util.spec_from_file_location("pool_n16", GOLDEN_POOL_16)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    frozen = json.loads(golden.RECORD.read_text())
    assert frozen["order"] == golden.ORDER == 16
    assert frozen["float_orders"] == list(golden.FLOAT_ORDERS) == [10, 16]
    records = frozen["records"]
    assert sorted(map(int, records)) == list(golden.INSTANCES) == list(range(20))
    assert records["0"]["exact"]["files"] == json.loads(GOLDEN_GENERIC_16.read_text())["sha256"]
    refused = {
        n: [i for i in golden.INSTANCES if "error" in records[str(i)]["float"][str(n)]]
        for n in golden.FLOAT_ORDERS
    }
    assert refused == {10: [12, 16], 16: [0, 1, 4, 5, 12, 15, 16]}
    for i in golden.INSTANCES:
        record = records[str(i)]
        pack = golden.pool_pack(i)
        assert golden.pack_record(pack, tmp_path / str(i)) == record["exact"], i
        for n in golden.FLOAT_ORDERS:
            got = golden.float_outcome(i, n, tmp_path / f"{i}_float_{n}")
            assert got == record["float"][str(n)], (i, n)
        h_keys, w_keys = list(pack.h_of_tau_v._c), list(pack.w_of_tau_u._c)
        assert h_keys == sorted(h_keys, key=lambda k: (k[0] + k[1], k[0]))  # (tau, V)
        assert w_keys == sorted(w_keys, key=lambda k: (k[0] + k[1], k[1]))  # (tau, U)


def test_manifest_contents():
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert set(manifest) == {
        "b11",
        "files",
        "lambda1_slope",
        "mode",
        "order",
        "radical",
    }
    assert manifest["order"] == 6
    assert manifest["mode"] == "exact"
    assert manifest["b11"] == "1"
    assert manifest["lambda1_slope"] == {
        "a0": "0",
        "a1": "-1",
        "a2": "0",
        "radicand": "12/5",
        "root": 3,
    }
    assert manifest["radical"] == {"radicand": "12/5", "root": 3}
    assert len(manifest["files"]) == 8


def test_save_pack_header_lines(tmp_path):
    pack = build_normal_form(
        hodograph_map(expand_potential(canonical_problem(), order=4))
    )
    save_pack(pack, tmp_path, header_lines=("alpha", "beta"))
    text = (tmp_path / "lambda1.txt").read_text()
    assert text.startswith("# alpha\n# beta\n# series1 v1\n")


def test_save_pack_manifest_extra(tmp_path):
    pack = build_normal_form(
        hodograph_map(expand_potential(canonical_problem(), order=4))
    )
    save_pack(pack, tmp_path, manifest_extra={"note": "probe"})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["note"] == "probe"
