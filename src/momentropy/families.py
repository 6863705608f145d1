"""Entropy-extremal density families parameterised by a dual variable.

Each family turns a dual variable ``lam`` (living in the range subspace of the
moment operator) into a matrix density on the support grid, via the sampled
adjoint field ``A = L*(lam)``:

    rational               rho = A^{-1}                    (A > 0 nodewise)
    exponential            rho = (1/e) exp(-A)
    weighted_rational      rho = phi A^{-1} phi*           (A > 0 nodewise)
    weighted_exponential   rho = (1/e) phi exp(-A) phi*         (phi = sigma^(1/2))
    prior_exponential      rho = (1/e) exp(log sigma - A)

The families come in two shapes, an inverse ``A^{-1}`` and an exponential
``(1/e) exp(log sigma - A)`` (``log sigma = 0`` when absent), each optionally
weighted by the congruence ``rho -> phi rho phi*``.

The composite map ``h(lam) = L(rho_lam)`` sends dual variables to moment
matrices; matching a target moment means solving ``h(lam) = R``.  The inverse
families extremise a Burg-type entropy and require ``lam`` to stay strictly
dual-feasible; the exponential families are defined for every ``lam`` and
extremise von Neumann / relative entropies.

``flow_jacobian`` returns the true Frechet derivative of ``h_map`` in range
coordinates, which is what the continuation solver inverts.  It is negative
definite on the feasible set for every family, and symmetric for the
unweighted families and at m = 1; the weighted families' Jacobian is not
symmetric at m > 1.

Scalar fields (m = 1) are evaluated in real arithmetic, on the operator's real
adjoint rows ``RangeBasis.scalar_adjoint``: there ``u = 1``, so the field is
``a = lam X``, the density ``f(a) |phi|^2`` and the Jacobian ``-Y Y^T`` with
``Y = X sqrt(w g) |phi|``.  This is exact, not an approximation: the cached
adjoint images are Hermitian parts, so at m = 1 their imaginary parts are
exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import (
    _check_positive, _divided_difference_exp, _rebuild, eigh_hermitian, eigvalsh_hermitian,
    matrix_log,
)
from .errors import DualStartNotFound, PositivityError
from .operator import _check_dual_floor, MomentOperator, DualVariable, dual_from_coords

_INVERSE_KINDS = ("rational", "weighted_rational")


@dataclass(frozen=True, eq=False)
class Family:
    """A density family; build instances through the factory functions below.

    ``phi`` (N, m, m) is the congruence weight of the weighted families: the
    spectral factor of the weighted rational family, ``sigma^(1/2)`` for the
    weighted exponential one.  ``sigma`` (N, m, m) is the reference density of
    the weighted families, and ``log_sigma`` its logarithm for the prior
    exponential family.
    """

    kind: str
    phi: np.ndarray | None = None
    sigma: np.ndarray | None = None
    log_sigma: np.ndarray | None = None

    @property
    def is_inverse_kind(self) -> bool:
        """True for the families built on A^{-1}, which need dual feasibility
        and (off discrete grids) a one-dimensional support."""
        return self.kind in _INVERSE_KINDS


def rational_family() -> Family:
    return Family("rational")


def exponential_family() -> Family:
    return Family("exponential")


def weighted_rational_family(phi: np.ndarray | None = None, sigma: np.ndarray | None = None) -> Family:
    """Weighted inverse family rho = phi A^{-1} phi*.

    Provide either the factor ``phi`` directly (any invertible square field)
    or a positive reference ``sigma``, in which case phi = sigma^(1/2).
    """
    if phi is None:
        if sigma is None:
            raise ValueError("weighted_rational needs phi or sigma")
        phi = _sqrt_field(np.asarray(sigma, dtype=complex))
        sigma = np.asarray(sigma, dtype=complex)
    else:
        phi = np.asarray(phi, dtype=complex)
        if sigma is None:
            sigma = phi @ np.conj(np.swapaxes(phi, -1, -2))
    _validate_field(phi, "phi")
    return Family("weighted_rational", phi=phi, sigma=sigma)


def weighted_exponential_family(sigma: np.ndarray) -> Family:
    sigma = np.asarray(sigma, dtype=complex)
    _validate_field(sigma, "sigma")
    return Family("weighted_exponential", phi=_sqrt_field(sigma), sigma=sigma)


def prior_exponential_family(sigma: np.ndarray) -> Family:
    sigma = np.asarray(sigma, dtype=complex)
    _validate_field(sigma, "sigma")
    return Family("prior_exponential", sigma=sigma, log_sigma=matrix_log(sigma))


# kind -> (factory, whether the factory takes the reference density sigma)
_FAMILY_BUILDERS = {
    "rational": (rational_family, False),
    "exponential": (exponential_family, False),
    "weighted_rational": (lambda sigma: weighted_rational_family(sigma=sigma), True),
    "weighted_exponential": (weighted_exponential_family, True),
    "prior_exponential": (prior_exponential_family, True),
}
FAMILY_KINDS = tuple(_FAMILY_BUILDERS)


def family_from_name(name: str, sigma: np.ndarray | None = None) -> Family:
    """Build a family from its hyphen- or underscore-spelled name."""
    key = name.replace("-", "_")
    if key not in _FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_KINDS}")
    factory, takes_sigma = _FAMILY_BUILDERS[key]
    if takes_sigma and sigma is None:
        raise ValueError(f"family {key!r} needs a reference density sigma")
    return factory(sigma) if takes_sigma else factory()


def family_density(op: MomentOperator, lam, family: Family) -> np.ndarray:
    """Sampled density rho_lam of the family at the dual point ``lam``.

    For the inverse-type families a near-singular adjoint field (any nodewise
    eigenvalue at or below 1e-10 times the field's mean eigenvalue) raises
    :class:`PositivityError` naming the offending node.
    """
    return _evaluate(op, lam, family).density


def h_map(op: MomentOperator, lam, family: Family) -> np.ndarray:
    """Moment image h(lam) = L(rho_lam), an n_left x n_right matrix assembled
    from the evaluation's range coordinates: the moment the solver matches."""
    return op.basis.assemble(_evaluate(op, lam, family).h_coords)


def flow_jacobian(op: MomentOperator, lam, family: Family) -> np.ndarray:
    """True Frechet derivative of h_map at ``lam``, in range coordinates."""
    return _evaluate(op, lam, family, need_jacobian=True).flow_jacobian


def default_dual_start(op: MomentOperator, family: Family) -> DualVariable:
    """Family-appropriate starting point for the continuation flow.

    Exponential-type families start at lam = 0 (feasible by construction).
    Inverse-type families start from the least-squares solution of
    ``L*(lam) = identity`` over the range subspace, which reproduces the
    identity-coordinates start on problems where the adjoint can reach the
    constant identity field; the result is validated for strict dual
    feasibility and :class:`DualStartNotFound` is raised otherwise.  The
    solver scales this point to the target moment before it starts.
    """
    if not family.is_inverse_kind:
        return dual_from_coords(op, np.zeros(op.d))
    try:
        coords, _min_eig = _identity_dual(op)
    except PositivityError as exc:
        raise DualStartNotFound(
            "least-squares identity start is not strictly dual-feasible "
            "(min eigenvalue %.3e); supply an explicit start" % exc.min_eig
        ) from exc
    return dual_from_coords(op, coords)


def _identity_dual(op: MomentOperator) -> tuple[np.ndarray, float]:
    """Range coordinates of the least-squares solution lam_I of L*(lam) = I
    and the smallest nodewise eigenvalue of L*(lam_I); PositivityError unless
    that eigenvalue clears the inverse families' dual floor.

    Each adjoint image is divided by its largest entry before the Gram system
    is formed, so that system, whose entries scale as the fourth power of the
    kernels, neither underflows nor overflows.
    """
    x = op.adjoint_basis
    w = op.grid.weights[:, None, None]
    flat = _real_rows(x)
    row_scale = np.abs(flat).max(axis=1)
    unit_rows = flat / row_scale[:, None]
    gram = unit_rows @ (_real_rows(w * x) / row_scale[:, None]).T
    target = unit_rows @ (w * np.eye(op.m)).astype(complex).reshape(-1).view(float)
    try:
        coords = np.linalg.solve(gram, target)
    except np.linalg.LinAlgError:
        coords = np.linalg.lstsq(gram, target, rcond=None)[0]
    coords = coords / row_scale
    return coords, _check_dual_floor(eigvalsh_hermitian(_adjoint_field(op, coords, flat)))


# ---------------------------------------------------------------------------
# shared evaluation machinery (also used by the continuation solver)

class _PointEval(NamedTuple):
    density: np.ndarray          # (N, m, m)
    h_coords: np.ndarray         # (d,) range coordinates of L(density)
    flow_jacobian: np.ndarray | None  # (d, d) true derivative, when requested
    min_eig: float               # min eigenvalue of L*(lam) over the field


def _evaluate(op: MomentOperator, lam, family: Family, need_jacobian: bool = False) -> _PointEval:
    # Both shapes are rho = v f(M) v* with M = u diag(mu) u* and v = phi u:
    # f(mu) = 1/mu on M = A, or f(mu) = e^mu / e on M = log sigma - A.  The
    # derivative of f(M) multiplies entrywise by the divided differences of f
    # in the eigenbasis of M, so the flow Jacobian is
    #     J_ij = -sum_n w_n Re <v* E_i v, g (u* E_j u)>,
    # with g_ab = f_a f_b (minus the divided difference of 1/mu) for the
    # inverse shape and the divided difference of e^mu / e for the exponential.
    # g is held by its square root, which stays in range for any kernel size
    # where g itself (f^2 for the inverse shape) would under- or overflow.
    coords = _dual_coords(op, lam)
    if op.m == 1:
        return _evaluate_scalar(op, coords, family, need_jacobian)
    x = op.adjoint_basis
    flat = _real_rows(x)
    a_field = _adjoint_field(op, coords, flat)
    if family.is_inverse_kind:
        eigs_a, u = eigh_hermitian(a_field)
        min_eig = _check_dual_floor(eigs_a)
        f = 1.0 / eigs_a
        if need_jacobian:
            root_f = np.sqrt(f)
            root_g = root_f[:, :, None] * root_f[:, None, :]
    else:
        exponent = -a_field if family.log_sigma is None else family.log_sigma - a_field
        mu, u = eigh_hermitian(exponent)
        min_eig = float(-mu.max() if family.log_sigma is None
                        else eigvalsh_hermitian(a_field).min())
        with np.errstate(over="ignore", under="ignore"):
            f = np.exp(mu) / np.e
        if need_jacobian:
            root_g = np.sqrt(_divided_difference_exp(mu) / np.e)

    v = u if family.phi is None else family.phi @ u
    w = op.grid.weights[:, None, None]
    density = _rebuild(f, v)
    h_coords = flat @ (w * density).reshape(-1).view(float)

    jac = None
    if need_jacobian:
        if family.phi is None:
            # v = u here, so J = -Y Y^T with Y = sqrt(w g) u* E u, symmetric
            # by construction
            y = _real_rows(_basis_congruence(u, x, np.sqrt(w) * root_g))
            jac = -(y @ y.T)
        else:
            z = _real_rows(_basis_congruence(v, x))
            jac = -(z @ _real_rows(_basis_congruence(u, x, w * root_g ** 2)).T)
    return _PointEval(density, h_coords, jac, min_eig)


def _evaluate_scalar(op: MomentOperator, coords: np.ndarray, family: Family,
                     need_jacobian: bool) -> _PointEval:
    # The m = 1 formulas of the module docstring, with h = X (w rho) and
    # sqrt(g) = f (inverse shape) or sqrt(f) (exponential shape).
    x = op.basis.scalar_adjoint
    a = coords @ x
    if family.is_inverse_kind:
        min_eig = _check_dual_floor(a[:, None])
        f = 1.0 / a
    else:
        exponent = -a if family.log_sigma is None else family.log_sigma[:, 0, 0].real - a
        min_eig = float(a.min())
        with np.errstate(over="ignore", under="ignore"):
            f = np.exp(exponent) / np.e
    w = op.grid.weights
    phi = None if family.phi is None else family.phi[:, 0, 0]
    density = f if phi is None else f * (phi.real ** 2 + phi.imag ** 2)
    h_coords = x @ (w * density)

    jac = None
    if need_jacobian:
        scale = np.sqrt(w) * (f if family.is_inverse_kind else np.sqrt(f))
        if phi is not None:
            scale *= np.abs(phi)
        y = x * scale
        jac = -(y @ y.T)
    return _PointEval(density.astype(complex)[:, None, None], h_coords, jac, min_eig)


def _real_rows(a: np.ndarray) -> np.ndarray:
    # A C-contiguous complex stack (d, N, m, m) as d real rows, real and
    # imaginary parts interleaved, so that Re tr(X* Y) is the dot product of
    # two rows over the flattened (node, a, b) axis; for Hermitian X it is
    # Re tr(X Y).
    return a.reshape(a.shape[0], -1).view(float)


def _dual_coords(op: MomentOperator, lam) -> np.ndarray:
    """Range coordinates of a dual point given as coordinates, a
    :class:`DualVariable` or a matrix."""
    if isinstance(lam, DualVariable):
        lam = lam.coords
    lam = np.asarray(lam)
    if lam.ndim != 1:
        # L* vanishes on the orthogonal complement of the range
        lam = op.basis.coords_of(lam)
    return lam.astype(float)


def _adjoint_field(op: MomentOperator, coords: np.ndarray, flat: np.ndarray) -> np.ndarray:
    # L* is linear and its images of the range basis are cached on the operator
    return (coords @ flat).view(complex).reshape(op.node_count, op.m, op.m)


def _basis_congruence(v: np.ndarray, x: np.ndarray, scale=1.0) -> np.ndarray:
    """scale * (v[n]* x[i, n] v[n]) entrywise, for every basis element i, as a
    C-contiguous (d, N, m, m) array; ``scale`` broadcasts against (N, m, m)."""
    d, n, m, _ = x.shape
    # row-major vec(v* X v) = kron(v*, v^T) vec(X): one small matrix per node,
    # applied to all d elements at once
    kron = np.einsum("nba,ncd->nadbc", np.conj(v), v).reshape(n, m * m, m * m)
    out = kron @ x.reshape(d, n, m * m).transpose(1, 2, 0)
    out = np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(d, n, m, m)
    out *= scale
    return out


def _sqrt_field(sigma: np.ndarray) -> np.ndarray:
    w, u = eigh_hermitian(sigma)
    _check_positive(w, 0.0, "sigma not positive definite")
    return _rebuild(np.sqrt(w), u)


def _validate_field(field: np.ndarray, name: str) -> None:
    if field.ndim != 3 or field.shape[-1] != field.shape[-2]:
        raise ValueError(f"{name} must be a sampled field of square matrices (N, m, m)")
