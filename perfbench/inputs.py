"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed, so the same seed gives the
same configs, probes and tau lists on any machine. Configs are written as
YAML text by hand (not through yaml.dump) so their bytes, and with them the
"# config sha256" header of every CLI output, never depend on the PyYAML
version.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# pack-build: the fixed set of generic order-16 instances. Instance i is
# drawn from random.Random(i), so i = 0..19 are the twenty generic seeds whose
# float construction the known-failure record describes.
POOL_SIZE = 20
PACK_ORDER = 16
FIELD_ORDER = 10


def rand_fraction(rng, lo=-3, hi=3, den=12, nonzero=False):
    """Uniform rational on the den-grid of [lo, hi]."""
    while True:
        q = Fraction(rng.randint(lo * den, hi * den), den)
        if q != 0 or not nonzero:
            return q


def generic_problem(rng, width=9, alphas=4):
    """Boundary data with b02 = 0 and b03 != 0: a generic cusp instance.

    Same draw order as the random singular instances of the test suite:
    b0 of the given width, then the alpha coefficients, then v*.
    """
    b0 = [rand_fraction(rng) for _ in range(width)]
    b0[2] = Fraction(0)
    b0[3] = rand_fraction(rng, nonzero=True)
    alpha = [rand_fraction(rng) for _ in range(alphas)]
    return {"b0": b0, "alpha": alpha, "v_star": rand_fraction(rng)}


def base_point(problem):
    """(t*, x*) of a problem dict: t* = b0_1, x* = t* v* - b0_0."""
    t_star = problem["b0"][1]
    return t_star, t_star * problem["v_star"] - problem["b0"][0]


def _flow(values):
    return "[" + ", ".join(str(Fraction(v)) for v in values) + "]"


def pool_problem(index):
    return generic_problem(random.Random(index))


def generic_config(index, order=PACK_ORDER):
    """YAML text of pool instance `index`: exact mode, base point as the
    only solve point, one worker thread."""
    p = pool_problem(index)
    t_star, x_star = base_point(p)
    return (
        f"# generic cusp instance {index} of the pack-build pool\n"
        "problem:\n"
        f"  b0: {_flow(p['b0'])}\n"
        "  polynomial: true\n"
        f"  alpha: {_flow(p['alpha'])}\n"
        f"  v_star: {p['v_star']}\n"
        f"order: {order}\n"
        "mode: exact\n"
        "threads: 1\n"
        "solve:\n"
        "  points:\n"
        f"    - [{t_star}, {x_star}]\n"
    )


# -- field-eval -----------------------------------------------------------------


def hodograph_probes(rng, count, v_max, h_max):
    """(h, V) pairs with h >= 0: the known preimages of the probes."""
    return [(rng.uniform(0.0, h_max), rng.uniform(-v_max, v_max)) for _ in range(count)]


def tau_list(rng, count, lo=1e-4, hi=1e-2):
    """Log-spaced taus from hi down to lo, each jittered by up to 5%."""
    step = math.log(hi / lo) / (count - 1)
    return [
        hi * math.exp(-k * step) * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
        for k in range(count)
    ]


# -- korobeinik -------------------------------------------------------------------


def _rand_q(rng, lo, hi, den=8):
    return Fraction(rng.randint(round(lo * den), round(hi * den)), den)


# Pythagorean triples: poles at exact rational distance in any of 3 directions
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


def korobeinik_config(rng, index):
    """YAML text of one seed-series diagnostic config.

    The seed g1 has one to three simple poles: real poles with real
    residues, plus optionally a complex-conjugate pair with conjugate
    residues, so g1 stays real on the real axis (alpha_probe needs that).
    What sets the cost is fixed by the config index: the distance d from u*
    to the nearest pole (1, 5/4 or 3/2) and its direction, whether the
    bidisc reach R + 2 sqrt(R1) = d +- 1/5 clears it (odd indices expect a
    divergence witness), the probe length (40..200 terms), and the
    denominators of u* and of the three probe points (exact coefficients
    grow with them). The seed draws the signs and numerators, the
    residues, the farther poles and alpha.
    """
    d = (Fraction(1), Fraction(5, 4), Fraction(3, 2))[index % 3]
    n_poles = 1 + index % 3
    u_star = Fraction(rng.choice((-3, -1, 1, 3)), 16)
    poles = []  # (re, im, residue)
    if n_poles >= 2 and index // 3 % 2:
        a, b, c = TRIPLES[index % 3]
        re = u_star + rng.choice((-1, 1)) * d * Fraction(a, c)
        residue = _rand_q(rng, 1, 2)
        poles += [(re, d * Fraction(b, c), residue), (re, -d * Fraction(b, c), residue)]
    else:
        poles.append((u_star + rng.choice((-1, 1)) * d, Fraction(0), _rand_q(rng, 1, 2)))
    while len(poles) < n_poles:
        far = d + Fraction(1, 2) + _rand_q(rng, 0, 1)
        poles.append((u_star + rng.choice((-1, 1)) * far, Fraction(0), _rand_q(rng, -2, 2) or Fraction(1)))
    total = d + Fraction(1, 5) if index % 2 else d - Fraction(1, 5)
    R, R1 = total / 2, (total / 4) ** 2  # sqrt(R1) = total / 4
    # Cauchy circle: every pole lies outside |z| < r
    r_max = min(math.hypot(re, im) for re, im, _ in poles)
    r = Fraction(math.floor(0.9 * r_max * 8), 8)
    r0 = r / 2
    eps = r / 8
    terms = (40, 80, 120, 160, 200)[index % 5]
    # three distinct probe points k/16, k odd, |u| < 1/2: at least 1/4 from
    # every pole, which lies at distance >= 1 from u*
    us = sorted(Fraction(k, 16) for k in rng.sample(range(-7, 8, 2), 3))

    lines = [f"# generated seed-series config {index}", "korobeinik:", "  g1:"]
    for re, im, c in poles:
        a = f"[{re}, {im}]" if im else f"{re}"
        lines.append(f"    - pole: {{a: {a}, c: {c}}}")
    lines += [
        f"  u_star: {u_star}",
        "  probes:",
        f"    u: {_flow(us)}",
        f"    terms: {terms}",
        "  bidisc:",
        f"    R: {R}",
        f"    R1: {R1}",
        "    samples: 8",
        "  cauchy:",  # decimals: cauchy_bound_check reads these with float()
        f"    r: {float(r)!r}",
        f"    r0: {float(r0)!r}",
        f"    eps: {float(eps)!r}",
        "    n_max: 20",
        "  bridge:",
        "    order: 6",
        "  alpha_probe:",
        f"    alpha: {_flow([_rand_q(rng, -1, 1) for _ in range(2)])}",
        f"    u: {_flow(us[:2])}",
        "    order: 8",
        "threads: 1",
    ]
    return "\n".join(lines) + "\n"
