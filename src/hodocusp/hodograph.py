"""The hodograph map (h, v) -> (t, x) built from a potential solution.

    t = B_v,          x = -B - h*B_h + v*B_v,

with v = v_star + V. The map's Jacobian J = x_h t_v - t_h x_v collapses to
the closed form h*(B_hv)**2 - alpha(h)*(B_vv)**2, which vanishes at the base
point exactly when b02 = 0; that is the cusp-construction condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import UsageError
from .pde import PotentialSolution, alpha_series
from .series import FLOAT, Series2, const2, variable2


@dataclass(frozen=True)
class HodographMap:
    """t, x and the shifted coordinates tau = t - t*, xi = x - x* - v*(t - t*).

    Every series is derived from the potential on first use and then kept.
    """

    sol: PotentialSolution

    @property
    def problem(self):
        return self.sol.problem

    @property
    def mode(self):
        return self.sol.series.mode

    def consts(self):
        """(t_star, x_star, v_star) in the map's scalar kind."""
        p = self.sol.problem
        if self.mode == FLOAT:
            return float(p.t_star), float(p.x_star), float(p.v_star)
        return p.t_star, p.x_star, p.v_star

    def _const(self, value) -> Series2:
        B = self.sol.series
        return const2(B.names, B.cap, value, B.mode)

    @cached_property
    def t(self) -> Series2:
        return self.sol.series.derivative("V")

    @cached_property
    def x(self) -> Series2:
        B = self.sol.series
        h = variable2(B.names, B.cap, "h", mode=B.mode)
        V = variable2(B.names, B.cap, "V", mode=B.mode)
        v_star = self.consts()[2]
        return -B - h * B.derivative("h") + (V + self._const(v_star)) * self.t

    # tau and xi vanish at the base point by definition; their constant
    # terms are dropped, not left as float roundoff of t(0,0) - t* etc.

    @cached_property
    def tau(self) -> Series2:
        return _drop_constant(self.t - self._const(self.consts()[0]))

    @cached_property
    def xi(self) -> Series2:
        _, x_star, v_star = self.consts()
        return _drop_constant(self.x - self._const(x_star) - self.tau.scale(v_star))

    @cached_property
    def jac(self) -> Series2:
        """Definition form x_h t_v - t_h x_v of the map Jacobian."""
        t, x = self.t, self.x
        return x.derivative("h") * t.derivative("V") - t.derivative("h") * x.derivative("V")


def _drop_constant(s: Series2) -> Series2:
    c = {k: v for k, v in s._c.items() if k != (0, 0)}
    return Series2._raw(s.names, s.cap, c, s.mode, s.eff)


def hodograph_map(sol: PotentialSolution) -> HodographMap:
    if sol.series.names != ("h", "V"):
        raise UsageError(f"potential series must be in (h, V), got {sol.series.names}")
    return HodographMap(sol)


def jacobian(sol: PotentialSolution) -> Series2:
    """Closed form h*(B_hv)**2 - alpha(h)*(B_vv)**2 of the map Jacobian."""
    B = sol.series
    h = variable2(B.names, B.cap, "h", mode=B.mode)
    al = alpha_series(sol.problem, B.names, B.cap, B.mode)
    B_hv = B.derivative("h").derivative("V")
    B_vv = B.derivative("V").derivative("V")
    return h * (B_hv * B_hv) - al * (B_vv * B_vv)


def jacobian_forms_agree(m: HodographMap) -> bool:
    """Definition form vs closed form, compared to the common effective order."""
    closed = jacobian(m.sol)
    diff = m.jac - closed
    eff = min(m.jac.eff, closed.eff)
    return all(i + j > eff for i, j, _ in diff.terms())


def hodograph_system_residual(m: HodographMap) -> tuple[Series2, Series2]:
    """Residuals of the linear hodograph system

        x_h = v t_h - alpha(h) t_v,      x_v = v t_v - h t_h.

    The first vanishes exactly when the potential solves its equation; the
    second vanishes identically for any potential.
    """
    B = m.sol.series
    names, cap, mode = B.names, B.cap, B.mode
    v = variable2(names, cap, "V", mode=mode) + m._const(m.consts()[2])
    h = variable2(names, cap, "h", mode=mode)
    al = alpha_series(m.problem, names, cap, mode)
    t_h = m.t.derivative("h")
    t_v = m.t.derivative("V")
    r1 = m.x.derivative("h") - v * t_h + al * t_v
    r2 = m.x.derivative("V") - v * t_v + h * t_h
    return r1, r2
