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

An evaluation decides the shape once for every m: ``M = A``, ``-A`` or
``log sigma - A`` as ``u diag(mu) u*`` (``calculus._eigh_field``),
``f(mu) = 1/mu`` or ``e^mu / e``, and ``min eig A``.  The adjoint images
``X_i = L*(E_i)`` of the range basis and the field come in the one layout
that m decides (``calculus._field_layout``); m picks only the contraction.
Only the moment side sees the weight: every family's moment coordinates are
``sum_n w_n Re tr(X~_i f(M))`` with ``X~_i = phi* X_i phi`` (``X~ = X``
without a weight; ``Family.moment_basis``), and ``flow_jacobian``, the true
Frechet derivative of ``h_map`` in range coordinates that the continuation
solver inverts, is ``-Z Y^T``, with ``Z`` built from ``X~`` by the
coefficients that build ``Y`` from ``X``.  So it is symmetric only where
``X~ = X`` (the unweighted families, where ``Z`` is ``Y``) or at m = 1
(``X~ = |phi|^2 X``), and there negative definite where ``g > 0`` at every
node, as L* is injective on the range.  The weighted families' Jacobian at
m > 1 is not symmetric, and its symmetric part can be indefinite inside the
feasible set.

The public evaluations read their dual point through ``operator._dual_coords``;
the evaluation they share with the solver takes range coordinates only.

So fields of m <= 2 are evaluated in real arithmetic, on real rows that
determine the Hermitian images exactly.  The density is assembled only when
it is read (``family_density``, a converged solve's report).

At m = 1, ``u = 1``: the field is ``a = lam X``, the moment coordinates
``X~ (w f(a))`` and the Jacobian ``-Z Y^T`` with ``(Y, Z) = (X, X~) sqrt(w g)``.

At m = 2 each image ``[[p, b], [conj b, q]]`` is the row ``(p, q, Re b, Im b)``.
The closed form ``calculus._eigh_2x2_entries`` gives the eigenvalues ``mu``
of the decomposed field and ``u = [[c e, s e], [-s, c]]``; with ``f = f(mu)``

    rho_00 = c^2 f_0 + s^2 f_1,   rho_11 = s^2 f_0 + c^2 f_1,   rho_01 = cs (f_1 - f_0) e,

the moment coordinates are ``X~ (w (rho_00, rho_11, 2 Re rho_01, 2 Im rho_01))``
and the Jacobian is ``-Z Y^T``.  With ``beta = conj(e) b`` for each image,
the rows of ``Y`` (of ``Z`` on ``X~``) are the entries of ``u* X u``,

    sqrt(w g_00) d_0,  sqrt(w g_11) d_1,  sqrt(2 w g_01) Re o,  sqrt(2 w g_01) Im o,
    d_0 = c^2 p + s^2 q - 2cs Re beta,   d_1 = s^2 p + c^2 q + 2cs Re beta,
    o = cs (p - q) + (c^2 - s^2) Re beta + i Im beta.

Fields of m >= 3 take the complex path: the nodewise eigendecomposition,
then the congruence of every image by ``u`` as one batched product per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from .calculus import (
    _adjoint_field, _check_positive, _divided_difference_exp, _eigh_field, _expm1_quotient,
    _field_layout, _real_rows, _rebuild, _sampled_field, eigh_hermitian, eigvalsh_hermitian,
    hermitian_part, matrix_log,
)
from .errors import DualStartNotFound, PositivityError
from .operator import (_check_dual_floor, _dual_coords, MomentOperator, DualVariable, RangeBasis,
                       dual_from_coords)

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
    _moment_bases: WeakKeyDictionary = field(
        default_factory=WeakKeyDictionary, init=False, repr=False)

    def moment_basis(self, basis: RangeBasis) -> RangeBasis:
        """``basis`` with the moment-side images ``phi* L*(E_i) phi``, or
        itself without a weight; built once per basis, kept while it lives."""
        if self.phi is None:
            return basis
        if (moment := self._moment_bases.get(basis)) is None:
            phi_h = np.conj(self.phi.swapaxes(1, 2))
            moment = self._moment_bases[basis] = RangeBasis(
                basis.elements, hermitian_part(phi_h @ basis.adjoint @ self.phi))
        return moment

    @cached_property
    def log_sigma_field(self) -> np.ndarray | None:
        """``log_sigma`` in the field layout (:func:`calculus._field_layout`)."""
        return None if self.log_sigma is None else _field_layout(self.log_sigma)

    @cached_property
    def reference_log(self) -> np.ndarray | None:
        """log sigma of the exponential families with a reference sigma, for
        the relative entropy a converged run reports: the prior family's
        ``log_sigma``, computed on first use for the weighted one; None for
        the other families."""
        if self.sigma is None or self.is_inverse_kind:
            return None
        return matrix_log(self.sigma) if self.log_sigma is None else self.log_sigma

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
    Each is a finite (N, m, m) field, else ValueError; a phi that is singular
    at a node, or a sigma that is not positive definite there, raises
    :class:`PositivityError` naming the node.
    """
    if sigma is not None:
        sigma = _sampled_field(sigma, "sigma")
    if phi is None:
        if sigma is None:
            raise ValueError("weighted_rational needs phi or sigma")
        phi = _sqrt_field(sigma)
    else:
        phi = _sampled_field(phi, "phi")
        phi_phi = phi @ np.conj(np.swapaxes(phi, -1, -2))
        _check_positive(eigvalsh_hermitian(phi_phi), 0.0, "phi not invertible")
        if sigma is None:
            sigma = phi_phi
    return Family("weighted_rational", phi=phi, sigma=sigma)


def weighted_exponential_family(sigma: np.ndarray) -> Family:
    """Weighted exponential family rho = (1/e) phi exp(-A) phi*, phi = sigma^(1/2),
    for a finite (N, m, m) field ``sigma``, positive definite at every node."""
    sigma = _sampled_field(sigma, "sigma")
    return Family("weighted_exponential", phi=_sqrt_field(sigma), sigma=sigma)


def prior_exponential_family(sigma: np.ndarray) -> Family:
    """Prior exponential family rho = (1/e) exp(log sigma - A), for a finite
    (N, m, m) field ``sigma``, positive definite at every node."""
    sigma = _sampled_field(sigma, "sigma")
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


# Far from the target's scale the exponential shape's density overflows to
# inf or underflows.  The three public evaluations stay silent about it; the
# solver holds its own error state around its evaluations (solver._QUIET)
# and rejects such a point.
@np.errstate(over="ignore", under="ignore")
def family_density(op: MomentOperator, lam, family: Family) -> np.ndarray:
    """Sampled density rho_lam of the family at the dual point ``lam``.

    For the inverse-type families a near-singular adjoint field (any nodewise
    eigenvalue at or below 1e-10 times the field's mean eigenvalue) raises
    :class:`PositivityError` naming the offending node.
    """
    return _evaluate(op, _dual_coords(op, lam), family).density


@np.errstate(over="ignore", under="ignore")
def h_map(op: MomentOperator, lam, family: Family) -> np.ndarray:
    """Moment image h(lam) = L(rho_lam), an n_left x n_right matrix assembled
    from the evaluation's range coordinates: the moment the solver matches."""
    return op.basis.assemble(_evaluate(op, _dual_coords(op, lam), family).h_coords)


@np.errstate(over="ignore", under="ignore")
def flow_jacobian(op: MomentOperator, lam, family: Family) -> np.ndarray:
    """True Frechet derivative of h_map at ``lam``, in range coordinates."""
    return _evaluate(op, _dual_coords(op, lam), family, need_jacobian=True).flow_jacobian


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
    coords, eigs = op.identity_dual
    try:
        _check_dual_floor(eigs)
    except PositivityError as exc:
        raise DualStartNotFound(
            "least-squares identity start is not strictly dual-feasible "
            "(min eigenvalue %.3e); supply an explicit start" % exc.min_eig
        ) from exc
    return dual_from_coords(op, coords)


# ---------------------------------------------------------------------------
# shared evaluation machinery (also used by the continuation solver)

class _PointEval(NamedTuple):
    core: Callable[[], np.ndarray]  # assembles f(M) (N, m, m)
    h_coords: np.ndarray         # (d,) range coordinates of L(density)
    flow_jacobian: np.ndarray | None  # (d, d) true derivative, when requested
    min_eig: float               # min eigenvalue of L*(lam) over the field
    family: Family

    @property
    def density(self) -> np.ndarray:
        """The density phi f(M) phi* (N, m, m), assembled on each read, since
        only a converged run and family_density read it."""
        core, phi = self.core(), self.family.phi
        return core if phi is None else hermitian_part(phi @ core @ np.conj(phi.swapaxes(1, 2)))


def _evaluate(op: MomentOperator, coords, family: Family, need_jacobian: bool = False) -> _PointEval:
    # rho = phi f(M) phi* with M = u diag(mu) u*.  The derivative of f(M)
    # multiplies entrywise by the divided differences of f in the eigenbasis
    # of M, so the flow Jacobian is
    #     J_ij = -sum_n w_n Re <u* X~_i u, g (u* X_j u)>,   X~_i = phi* X_i phi,
    # with g_ab = f_a f_b (minus the divided difference of 1/mu) for the
    # inverse shape and the divided difference of e^mu / e for the exponential.
    # g is held by its square root, which stays in range for any kernel size
    # where g itself (f^2 for the inverse shape) would under- or overflow.
    # X, X~ and A = L*(lam) come in the field layout (X~ is X without a weight,
    # so Z is Y); m picks only the contraction.  The shape is decided once below.
    x, x_moment = op.basis.images, family.moment_basis(op.basis).images
    a = _adjoint_field(coords, x)
    contract = _contract_scalar if op.m == 1 else _contract_2x2 if op.m == 2 else _contract_stack
    inverse = family.is_inverse_kind
    if inverse:
        mu, u = _eigh_field(a, True)
        min_eig = _check_dual_floor(mu)
        f = 1.0 / mu
    else:
        log_sigma = family.log_sigma_field
        mu, u = _eigh_field(-a if log_sigma is None else log_sigma - a, True)
        min_eig = float(-mu.max() if log_sigma is None else _eigh_field(a, False).min())
        f = np.exp(mu) / np.e
    core, h_coords, jacobian_rows = contract(op, x_moment, mu, u, f, inverse)
    jac = None
    if need_jacobian:
        # -Z Y^T with Y = rows(X) and Z = rows(X~), so Z is Y where X~ is X
        rows = jacobian_rows()
        y = rows(x)
        jac = -((y if x_moment is x else rows(x_moment)) @ y.T)
    return _PointEval(core, h_coords, jac, min_eig, family)


def _contract_scalar(op, x_moment, mu, u, f, inverse):
    # The m = 1 formulas of the module docstring, with
    # sqrt(g) = f (inverse shape) or sqrt(f) (exponential shape).
    f, w = f[:, 0], op.grid.weights

    def jacobian_rows():
        scale = np.sqrt(w) * (f if inverse else np.sqrt(f))
        return lambda r: r * scale
    return lambda: f.astype(complex)[:, None, None], x_moment @ (w * f), jacobian_rows


def _contract_2x2(op, x_moment, mu, u, f, inverse):
    # The m = 2 formulas of the module docstring, on the real rows
    # (p, q, Re b, Im b) of the images X and X~.
    c, s, e = u
    f0, f1 = f[:, 0], f[:, 1]
    cc, ss, cs = c * c, s * s, c * s
    w = op.grid.weights
    off = cs * (f1 - f0) * e
    rho = np.stack((cc * f0 + ss * f1, ss * f0 + cc * f1, 2.0 * off.real, 2.0 * off.imag))
    h_coords = _real_rows(x_moment) @ (w * rho).reshape(-1)

    def core():
        out = np.empty((op.node_count, 2, 2), dtype=complex)
        out[:, 0, 0] = rho[0]
        out[:, 1, 1] = rho[1]
        out[:, 0, 1] = off
        out[:, 1, 0] = np.conj(off)
        return out

    def jacobian_rows():
        root_f = np.sqrt(f)
        if inverse:
            root_g = (f0, f1, root_f[:, 0] * root_f[:, 1])
        else:
            root_g = (root_f[:, 0], root_f[:, 1],
                      root_f[:, 1] * np.sqrt(_expm1_quotient(mu[:, 0] - mu[:, 1])))
        # Y = T X and Z = T X~ nodewise: row k of T holds the coefficients
        # of row k of Y in (p, q, Re b, Im b), with Re beta = Re e Re b +
        # Im e Im b and Im beta = Re e Im b - Im e Re b
        t = np.zeros((4, 4, op.node_count))
        t[0, 0] = t[1, 1] = cc
        t[0, 1] = t[1, 0] = ss
        t[2, 0] = cs
        t[2, 1] = -cs
        beta_weight = np.stack((-2.0 * cs, 2.0 * cs, cc - ss))
        t[:3, 2] = beta_weight * e.real
        t[:3, 3] = beta_weight * e.imag
        t[3, 2] = -e.imag
        t[3, 3] = e.real
        root_w = np.sqrt(w)
        t[0] *= root_w * root_g[0]
        t[1] *= root_w * root_g[1]
        t[2:] *= np.sqrt(2.0 * w) * root_g[2]
        return lambda r: _real_rows(np.einsum("kjn,ijn->ikn", t, r))
    return core, h_coords, jacobian_rows


def _contract_stack(op, x_moment, mu, u, f, inverse):
    # m >= 3: the density and the congruence of every image by u as complex stacks
    w = op.grid.weights[:, None, None]
    core = _rebuild(f, u)
    h_coords = _real_rows(x_moment) @ (w * core).reshape(-1).view(float)

    def jacobian_rows():
        if inverse:
            root_f = np.sqrt(f)
            root_g = root_f[:, :, None] * root_f[:, None, :]
        else:
            root_g = np.sqrt(_divided_difference_exp(mu) / np.e)
        scale = np.sqrt(w) * root_g
        return lambda r: _real_rows(_basis_congruence(u, r, scale))
    return lambda: core, h_coords, jacobian_rows


def _basis_congruence(v: np.ndarray, x: np.ndarray, scale: np.ndarray) -> np.ndarray:
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
