"""momentropy: matrix-valued moment problems via entropy-extremal families.

The package discretises a moment operator R = L(rho) over a support grid,
parameterises candidate densities by entropy-extremal families rho(lam), and
matches target moments by integrating a feedback continuation flow whose
convergence or divergence certifies feasibility.

Submodules are imported lazily so that the command-line entry point can pin
threading environment variables before any numerical library loads.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    # calculus
    "hermitian_part": "calculus", "as_hermitian": "calculus",
    "eigh_hermitian": "calculus", "matrix_exp": "calculus", "matrix_log": "calculus",
    "scrambled_multiply": "calculus", "scrambled_divide": "calculus",
    "frechet_exp": "calculus", "frechet_log": "calculus",
    "assert_positive_definite": "calculus", "trace_inner": "calculus",
    # grids and operator
    "SupportGrid": "grid", "build_grid": "grid", "discrete_grid": "grid",
    "KernelSamples": "operator", "kernel_samples": "operator",
    "RangeBasis": "operator", "MomentOperator": "operator", "DualVariable": "operator",
    "build_operator": "operator", "compute_range_basis": "operator",
    "apply_L": "operator", "apply_L_adjoint": "operator", "inner": "operator",
    "project_to_range": "operator", "is_dual_feasible": "operator",
    "moment_functional": "operator", "entropy": "operator",
    "dual_from_coords": "operator", "dual_from_matrix": "operator",
    # families
    "Family": "families", "FAMILY_KINDS": "families",
    "rational_family": "families", "exponential_family": "families",
    "weighted_rational_family": "families", "weighted_exponential_family": "families",
    "prior_exponential_family": "families", "family_from_name": "families",
    "family_density": "families", "h_map": "families", "flow_jacobian": "families",
    "default_dual_start": "families",
    # solver
    "SolveConfig": "solver", "SolveReport": "solver", "solve": "solver",
    "solve_tau": "solver", "lyapunov_slope": "solver",
    # errors
    "PositivityError": "errors", "DualStartNotFound": "errors",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'momentropy' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
