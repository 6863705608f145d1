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
coordinates, which is what the continuation solver inverts.  It is symmetric
and negative definite on the feasible set for every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import _divided_difference_exp, eigh_hermitian, hermitian_part, matrix_log
from .errors import DualStartNotFound, PositivityError
from .operator import MomentOperator, DualVariable, apply_L, apply_L_adjoint, dual_from_coords, _as_matrix

FAMILY_KINDS = (
    "rational",
    "exponential",
    "weighted_rational",
    "weighted_exponential",
    "prior_exponential",
)

_INVERSE_KINDS = ("rational", "weighted_rational")
_DEFAULT_POS_FLOOR = 1e-10


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


def family_density(op: MomentOperator, lam, family: Family,
                   pos_floor: float = _DEFAULT_POS_FLOOR) -> np.ndarray:
    """Sampled density rho_lam of the family at the dual point ``lam``.

    For the inverse-type families a near-singular adjoint field (any nodewise
    eigenvalue at or below ``pos_floor`` times the field's mean eigenvalue)
    raises :class:`PositivityError` naming the offending node.
    """
    return _evaluate(op, lam, family, pos_floor).density


def h_map(op: MomentOperator, lam, family: Family,
          pos_floor: float = _DEFAULT_POS_FLOOR) -> np.ndarray:
    """Moment image h(lam) = L(rho_lam), an n_left x n_right matrix."""
    return apply_L(op, family_density(op, lam, family, pos_floor))


def flow_jacobian(op: MomentOperator, lam, family: Family,
                  pos_floor: float = _DEFAULT_POS_FLOOR) -> np.ndarray:
    """True Frechet derivative of h_map at ``lam``, in range coordinates."""
    return _evaluate(op, lam, family, pos_floor, need_jacobian=True).flow_jacobian


def default_dual_start(op: MomentOperator, family: Family,
                       pos_floor: float = _DEFAULT_POS_FLOOR) -> DualVariable:
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
    w = op.grid.weights
    gram = np.real(np.einsum("inab,jnba,n->ij", x, x, w, optimize=True))
    target = np.real(np.einsum("inaa,n->i", x, w, optimize=True))
    try:
        coords = np.linalg.solve(gram, target)
    except np.linalg.LinAlgError:
        coords = np.linalg.lstsq(gram, target, rcond=None)[0]
    start = dual_from_coords(op, coords)
    try:
        _evaluate(op, start, family, pos_floor)
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
    mean_eig: float              # mean eigenvalue of L*(lam) over the field


def _evaluate(op: MomentOperator, lam, family: Family, pos_floor: float,
              need_jacobian: bool = False) -> _PointEval:
    a_field = apply_L_adjoint(op, _as_matrix(op, lam))
    x = op.adjoint_basis
    w = op.grid.weights
    phi = family.phi
    phi_h = None if phi is None else np.conj(np.swapaxes(phi, -1, -2))
    jac = None

    if family.is_inverse_kind:
        # rho = phi A^{-1} phi*, defined while A stays above the positivity floor
        eigs_a, u = eigh_hermitian(a_field)
        min_eig = float(np.min(eigs_a))
        floor = pos_floor * max(float(np.mean(eigs_a)), 0.0)
        if not min_eig > floor:
            node = int(np.argmin(np.min(eigs_a, axis=1)))
            raise PositivityError(
                "adjoint field near-singular at node %d (min eig %.3e, floor %.3e)"
                % (node, min_eig, floor),
                min_eig=min_eig, node=node,
            )
        p = (u * (1.0 / eigs_a)[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))
        if phi is not None:
            p = phi @ p
        density = hermitian_part(p if phi is None else p @ phi_h)
        if need_jacobian:
            # true derivative: delta -> -L(P L*(delta) P*),  P = phi A^{-1}
            t = np.einsum("nab,jnbc,ndc->jnad", p, x, np.conj(p), optimize=True)
            jac = -np.real(np.einsum("inab,jnba,n->ij", x, t, w, optimize=True))
    else:
        # rho = (1/e) phi exp(log sigma - A) phi*
        exponent = -a_field if family.log_sigma is None else family.log_sigma - a_field
        ew, u = eigh_hermitian(exponent)
        eigs_a = -ew if family.log_sigma is None else eigh_hermitian(a_field)[0]
        with np.errstate(over="ignore", under="ignore"):
            core = (u * (np.exp(ew) / np.e)[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))
        density = hermitian_part(core if phi is None else phi @ core @ phi_h)
        if need_jacobian:
            # true derivative: <phi* E_i phi, -(1/e) dexp(E_j)>, in the eigenbasis
            # of the exponent, where dexp is entrywise multiplication
            y = np.einsum("nba,inbc,ncd->inad", np.conj(u), x, u, optimize=True)
            z = y if phi is None else np.einsum("nba,inbc,ncd->inad", np.conj(u), phi_h @ x @ phi, u,
                                                optimize=True)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                jac = (-1.0 / np.e) * np.real(np.einsum(
                    "nab,inab,jnab,n->ij", _divided_difference_exp(ew), np.conj(z), y, w, optimize=True))
    return _PointEval(
        density, _range_coords(x, w, density), jac,
        float(np.min(eigs_a)), float(np.mean(eigs_a)),
    )


def _range_coords(x: np.ndarray, w: np.ndarray, density: np.ndarray) -> np.ndarray:
    # <E_i, L(rho)> = <L*(E_i), rho> with quadrature weights on the density side
    return np.real(np.einsum("inab,nba,n->i", x, density, w, optimize=True))


def _sqrt_field(sigma: np.ndarray) -> np.ndarray:
    w, u = eigh_hermitian(sigma)
    if not float(np.min(w)) > 0.0:
        raise PositivityError(
            "sigma must be positive definite at every node (min eig %.3e)" % float(np.min(w)),
            min_eig=float(np.min(w)),
        )
    return (u * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))


def _validate_field(field: np.ndarray, name: str) -> None:
    if field.ndim != 3 or field.shape[-1] != field.shape[-2]:
        raise ValueError(f"{name} must be a sampled field of square matrices (N, m, m)")


def _require_sigma(kind: str, sigma: np.ndarray | None) -> np.ndarray:
    if sigma is None:
        raise ValueError(f"family {kind!r} needs a reference density sigma")
    return np.asarray(sigma, dtype=complex)
