"""Shared fixtures: the canonical cusp instance and random singular data.

The canonical instance (b03 = 1/12 so b11 = 1, alpha == 4, base point at
the origin) terminates at low degree, which makes every pipeline identity
exact and cheap; random singular instances exercise the generic paths.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import settings

from hodocusp import (
    ProblemData,
    build_normal_form,
    canonical_problem,
    expand_potential,
    hodograph_map,
)


# CI runs draw the same hypothesis examples every time (GitHub Actions sets CI)
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def rand_fraction(rng, lo=-3, hi=3, den=12, nonzero=False):
    """Uniform rational on the den-grid of [lo, hi]."""
    while True:
        q = Fraction(rng.randint(lo * den, hi * den), den)
        if q != 0 or not nonzero:
            return q


def random_singular_problem(rng, width=9, alphas=4, polynomial=True):
    """Random boundary data with b02 = 0 and b03 != 0 (cusp hypotheses)."""
    b0 = [rand_fraction(rng) for _ in range(width)]
    b0[2] = Fraction(0)
    b0[3] = rand_fraction(rng, nonzero=True)
    alpha = [rand_fraction(rng) for _ in range(alphas)]
    return ProblemData(
        b0=b0, alpha=alpha, v_star=rand_fraction(rng), b0_polynomial=polynomial
    )


@pytest.fixture(scope="session")
def canonical_sol():
    return expand_potential(canonical_problem(), order=10)


@pytest.fixture(scope="session")
def canonical_map(canonical_sol):
    return hodograph_map(canonical_sol)


@pytest.fixture(scope="session")
def canonical_pack(canonical_map):
    return build_normal_form(canonical_map)


# -- acceptance summary ---------------------------------------------------------

CRITERIA = {
    "test_criterion_01": "eight printed coefficient relations exact on 50 random instances (< 5 s)",
    "test_criterion_02": "potential, h-scaled and recurrence residuals exactly zero, N = 8, 20 instances (< 10 s)",
    "test_criterion_03": "normal-form constants (V^3 slot, lambda slopes, V(W) slope) exact on 20 instances",
    "test_criterion_04": "miniversal recomposition residual exactly zero on the same 20 instances",
    "test_criterion_05": "fold/zero curve asymptotics, half-plane and bracketing on the canonical instance (< 5 s)",
    "test_criterion_06": "branch counts and roundtrip <= 1e-9 on 1000 random probes (< 10 s)",
    "test_criterion_07": "FD system oracle: order 2.0 +- 0.2 on both sheets, plateau rms <= 1e-4 (< 30 s)",
    "test_criterion_08": "Catalan coefficients, radius law, bidisc witness both directions (< 20 s)",
    "test_criterion_09": "derivative bound holds for three analytic specimens, n <= 20 (< 5 s)",
    "test_criterion_10": "boundary-seed bridge agrees exactly at N = 6 for three seeds (< 5 s)",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    seen = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            ok = outcome == "passed" and getattr(rep, "when", "call") == "call"
            if outcome != "passed":
                seen[name] = False
            elif rep.when == "call":
                seen.setdefault(name, ok)
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(seen):
        flag = "PASS" if seen[name] else "FAIL"
        desc = CRITERIA.get(name, "")
        terminalreporter.write_line(f"{flag}  {name}: {desc}")
