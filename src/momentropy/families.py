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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import (
    _check_positive, _divided_difference_exp, eigh_hermitian, eigvalsh_hermitian,
    hermitian_part, matrix_log,
)
from .errors import DualStartNotFound, PositivityError
from .operator import _DUAL_FLOOR_RTOL, MomentOperator, DualVariable, apply_L, dual_from_coords

FAMILY_KINDS = (
    "rational",
    "exponential",
    "weighted_rational",
    "weighted_exponential",
    "prior_exponential",
)

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


def family_from_name(name: str, sigma: np.ndarray | None = None) -> Family:
    """Build a family from its hyphen- or underscore-spelled name."""
    key = name.replace("-", "_")
    if key == "rational":
        return rational_family()
    if key == "exponential":
        return exponential_family()
    if key == "weighted_rational":
        return weighted_rational_family(sigma=_require_sigma(key, sigma))
    if key == "weighted_exponential":
        return weighted_exponential_family(_require_sigma(key, sigma))
    if key == "prior_exponential":
        return prior_exponential_family(_require_sigma(key, sigma))
    raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_KINDS}")


def family_density(op: MomentOperator, lam, family: Family) -> np.ndarray:
    """Sampled density rho_lam of the family at the dual point ``lam``.

    For the inverse-type families a near-singular adjoint field (any nodewise
    eigenvalue at or below 1e-10 times the field's mean eigenvalue) raises
    :class:`PositivityError` naming the offending node.
    """
    return _evaluate(op, lam, family).density


def h_map(op: MomentOperator, lam, family: Family) -> np.ndarray:
    """Moment image h(lam) = L(rho_lam), an n_left x n_right matrix."""
    return apply_L(op, family_density(op, lam, family))


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
    feasibility and :class:`DualStartNotFound` is raised otherwise.
    """
    if not family.is_inverse_kind:
        return dual_from_coords(op, np.zeros(op.d))
    x = op.adjoint_basis
    w = op.grid.weights[:, None, None]
    flat = _real_rows(x)
    gram = flat @ _real_rows(w * x).T
    target = flat @ (w * np.eye(op.m)).astype(complex).reshape(-1).view(float)
    try:
        coords = np.linalg.solve(gram, target)
    except np.linalg.LinAlgError:
        coords = np.linalg.lstsq(gram, target, rcond=None)[0]
    start = dual_from_coords(op, coords)
    try:
        _evaluate(op, start, family)
    except PositivityError as exc:
        raise DualStartNotFound(
            "least-squares identity start is not strictly dual-feasible "
            "(min eigenvalue %.3e); supply an explicit start" % exc.min_eig
        ) from exc
    return start


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
    x = op.adjoint_basis
    flat = _real_rows(x)
    a_field = _adjoint_field(op, lam, flat)
    if family.is_inverse_kind:
        eigs_a, u = eigh_hermitian(a_field)
        mean_eig = float(eigs_a.sum()) / eigs_a.size
        min_eig = _check_positive(eigs_a, _DUAL_FLOOR_RTOL * max(mean_eig, 0.0),
                                  "adjoint field near-singular")
        f = 1.0 / eigs_a
        if need_jacobian:
            g = f[:, :, None] * f[:, None, :]
    else:
        exponent = -a_field if family.log_sigma is None else family.log_sigma - a_field
        mu, u = eigh_hermitian(exponent)
        min_eig = float(-mu.max() if family.log_sigma is None
                        else eigvalsh_hermitian(a_field).min())
        with np.errstate(over="ignore", under="ignore"):
            f = np.exp(mu) / np.e
        if need_jacobian:
            g = _divided_difference_exp(mu) / np.e

    v = u if family.phi is None else family.phi @ u
    w = op.grid.weights[:, None, None]
    if op.m == 1:
        density = (f * (v.real[..., 0] ** 2 + v.imag[..., 0] ** 2))[:, :, None].astype(complex)
    else:
        density = hermitian_part(np.einsum("nab,nb,ncb->nac", v, f, np.conj(v)))
    h_coords = flat @ (w * density).reshape(-1).view(float)

    jac = None
    if need_jacobian:
        w_g = w * g
        if family.phi is None or op.m == 1:
            # v* E v = |phi|^2 u* E u here, so J = -Y Y^T with
            # Y = sqrt(w g |phi|^2) u* E u, symmetric by construction
            if family.phi is not None:
                w_g = w_g * np.abs(family.phi) ** 2
            y = _real_rows(_basis_congruence(u, x, np.sqrt(w_g)))
            jac = -(y @ y.T)
        else:
            z = _real_rows(_basis_congruence(v, x))
            jac = -(z @ _real_rows(_basis_congruence(u, x, w_g)).T)
    return _PointEval(density, h_coords, jac, min_eig)


def _real_rows(a: np.ndarray) -> np.ndarray:
    # A C-contiguous complex stack (d, N, m, m) as d real rows, real and
    # imaginary parts interleaved, so that Re tr(X* Y) is the dot product of
    # two rows over the flattened (node, a, b) axis; for Hermitian X it is
    # Re tr(X Y).
    return a.reshape(a.shape[0], -1).view(float)


def _adjoint_field(op: MomentOperator, lam, flat: np.ndarray) -> np.ndarray:
    if isinstance(lam, DualVariable):
        lam = lam.coords
    lam = np.asarray(lam)
    if lam.ndim != 1:
        # L* vanishes on the orthogonal complement of the range
        lam = op.basis.coords_of(lam)
    # L* is linear and its images of the range basis are cached on the operator
    return (lam.astype(float) @ flat).view(complex).reshape(op.node_count, op.m, op.m)


def _basis_congruence(v: np.ndarray, x: np.ndarray, scale=1.0) -> np.ndarray:
    """scale * (v[n]* x[i, n] v[n]) entrywise, for every basis element i, as a
    C-contiguous (d, N, m, m) array; ``scale`` broadcasts against (N, m, m)."""
    d, n, m, _ = x.shape
    if m == 1:
        return x * (scale * (v.real ** 2 + v.imag ** 2))
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
    return (u * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))


def _validate_field(field: np.ndarray, name: str) -> None:
    if field.ndim != 3 or field.shape[-1] != field.shape[-2]:
        raise ValueError(f"{name} must be a sampled field of square matrices (N, m, m)")


def _require_sigma(kind: str, sigma: np.ndarray | None) -> np.ndarray:
    if sigma is None:
        raise ValueError(f"family {kind!r} needs a reference density sigma")
    return np.asarray(sigma, dtype=complex)
