"""Cusp singularities of the shallow-water / dispersionless NLS system.

The pipeline: expand the hodograph potential B(h, V) from boundary data,
invert the hodograph map near a singular base point, normalize the
singular part to the cusp miniversal form U**3 + lambda1*U + lambda2,
then reconstruct multivalued (h, v)(t, x) branches, the fold and h = 0
curve families, and convergence diagnostics for the underlying series.

In exact mode, the default, everything constructive is exact (Fraction
coefficients; the normal form's one cube root enters only when its pack is
assembled) and floats enter only at evaluation time; float mode builds the series in float64. Only the
finite-difference oracles of `hodocusp.verify` use numpy; the package
re-exports their names lazily, so `import hodocusp` does not load it.
"""

from .cusp import (
    CurveSample,
    SolutionBranch,
    cubic_discriminant,
    cusp_roots,
    fold_curves,
    reconstruct,
    reconstruct_tau_xi,
    wedge_halfwidth,
    zero_curves,
)
from .errors import DegeneracyError, DomainError, HodocuspError, UsageError
from .hodograph import (
    HodographMap,
    hodograph_map,
    hodograph_system_residual,
    jacobian,
    jacobian_forms_agree,
)
from .korobeinik import (
    BidiscReport,
    CauchyReport,
    ConvergenceReport,
    DivergenceWitness,
    bidisc_check,
    cauchy_bound_check,
    divergence_heuristic,
    in_union_domain,
    predicted_radius,
    radius_probe,
    richardson_limit,
    variable_alpha_probe,
    witness_report,
)
from .normal_form import (
    NormalFormPack,
    build_normal_form,
    roundtrip_w_u,
    save_pack,
    verify_miniversal,
)
from .pde import (
    PolyTerm,
    PoleTerm,
    PotentialSolution,
    ProblemData,
    RelationCheck,
    SeedFunction,
    bridge_check,
    canonical_problem,
    expand_potential,
    h_scaled,
    korobeinik_series,
    potential_residual,
    relation_checklist,
    scaled_residual,
)
from .scalars import (
    CubicRadical,
    QComplex,
    cbrt_exact,
    lt_dist_vs_radius,
    make_radical,
    parse_exact,
    parse_point,
    rational_cbrt,
    real_cbrt,
    scalar_float,
)
from .series import EXACT, FLOAT, Series1, Series2, series1_text, series2_text

__version__ = "0.1.0"

__all__ = [
    "BidiscReport",
    "CauchyReport",
    "ConvergenceReport",
    "CubicRadical",
    "CurveSample",
    "DegeneracyError",
    "DivergenceWitness",
    "DomainError",
    "EXACT",
    "FLOAT",
    "GridSpec",
    "HodocuspError",
    "HodographMap",
    "NormalFormPack",
    "PoleTerm",
    "PolyTerm",
    "PotentialSolution",
    "ProblemData",
    "QComplex",
    "RelationCheck",
    "ResidualReport",
    "SeedFunction",
    "Series1",
    "Series2",
    "SolutionBranch",
    "UsageError",
    "bidisc_check",
    "branch_swap_probe",
    "bridge_check",
    "build_normal_form",
    "canonical_problem",
    "cauchy_bound_check",
    "cbrt_exact",
    "constant_field_probe",
    "cubic_discriminant",
    "cusp_roots",
    "divergence_heuristic",
    "expand_potential",
    "fold_curves",
    "grid_residuals",
    "h_scaled",
    "hodograph_map",
    "hodograph_roundtrip",
    "hodograph_system_residual",
    "in_union_domain",
    "jacobian",
    "jacobian_forms_agree",
    "korobeinik_series",
    "lt_dist_vs_radius",
    "make_radical",
    "parse_exact",
    "parse_point",
    "pde_grid_residual_G",
    "potential_residual",
    "predicted_radius",
    "radius_probe",
    "rational_cbrt",
    "real_cbrt",
    "reconstruct",
    "reconstruct_tau_xi",
    "relation_checklist",
    "richardson_limit",
    "roundtrip_w_u",
    "save_pack",
    "scalar_float",
    "scaled_residual",
    "series1_text",
    "series2_text",
    "system_residual",
    "variable_alpha_probe",
    "verify_miniversal",
    "wedge_halfwidth",
    "witness_report",
    "zero_curves",
]

_VERIFY_NAMES = frozenset(
    {
        "GridSpec",
        "ResidualReport",
        "branch_swap_probe",
        "constant_field_probe",
        "grid_residuals",
        "hodograph_roundtrip",
        "pde_grid_residual_G",
        "system_residual",
    }
)


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _VERIFY_NAMES)
