"""The moment operator, its adjoint, and the geometry they induce.

A moment problem is specified by matrix kernels sampled on a support grid:
``G_left`` of shape (N, n_left, m) and ``G_right`` of shape (N, m, n_right).
A matrix density ``rho`` (shape (N, m, m), Hermitian at every node) is mapped
to its moment matrix by the weighted quadrature sum

    L(rho) = sum_n w_n G_left[n] rho[n] G_right[n]        (n_left x n_right)

which for discrete grids (unit weights) is the plain sum.  The adjoint with
respect to the real trace pairing <X, Y> = Re trace(X* Y) acts pointwise,
without weights:

    (L* lam)[n] = herm(G_left[n]* lam G_right[n]*)         (m x m).

``lam`` is dual-feasible when L*(lam) is positive definite at every node; the
densities produced by the solver are built from such lam.  The attainable
moments form a cone inside the *range subspace* of L, the orthogonal
complement of ker L*.  An orthonormal basis of it is computed once per
operator from one L* pass over the unit matrices of the moment space, which
also gives the cached L* images of the basis.  All coordinates used by the
continuation solver live in that basis.  The identity dual lam_I, which
minimises sum_n w_n ||L*(lam)[n] - I||_F^2 over the range, is one
least-squares solve on those images, kept with the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calculus import (
    _check_positive, _real_entries, _sampled_field, eigvalsh_hermitian, hermitian_part, matrix_log,
    trace_inner,
)
from .errors import PositivityError
from .grid import SupportGrid

_RANGE_SVD_RTOL = 1e-10
# L*(lam) is dual-feasible when every nodewise eigenvalue exceeds this fraction
# of the field's mean eigenvalue; the inverse families refuse any other point.
_DUAL_FLOOR_RTOL = 1e-10
# Relative residual above which dual_from_matrix rejects a matrix as lying
# outside the range subspace.
_DUAL_RANGE_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class KernelSamples:
    """Kernel samples: left (N, n_left, m), right (N, m, n_right), complex."""

    left: np.ndarray
    right: np.ndarray


def kernel_samples(left: np.ndarray, right: np.ndarray) -> KernelSamples:
    """Validate shapes and finiteness and build a :class:`KernelSamples`."""
    left = np.ascontiguousarray(left, dtype=complex)
    right = np.ascontiguousarray(right, dtype=complex)
    if left.ndim != 3 or right.ndim != 3:
        raise ValueError("kernel sample arrays must be 3-d (node, row, col)")
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise ValueError("kernel samples hold non-finite entries")
    if left.shape[0] != right.shape[0]:
        raise ValueError("left/right kernels disagree on node count")
    if left.shape[2] != right.shape[1]:
        raise ValueError(
            "kernel inner dimensions disagree: left is %s, right is %s"
            % (left.shape, right.shape)
        )
    return KernelSamples(left, right)


@dataclass(frozen=True, eq=False)
class RangeBasis:
    """Orthonormal basis of the range subspace under Re trace(X* Y).

    ``elements`` has shape (d, n_left, n_right).  ``adjoint`` holds their
    sampled adjoint images L*(E_i), shape (d, N, m, m), C-contiguous so that
    the family evaluation's flat views of it need no copy.
    """

    elements: np.ndarray
    adjoint: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def real_adjoint(self) -> np.ndarray:
        """The adjoint images as real rows, shape (d, m*m, N), C-contiguous,
        built on first use and kept with the basis: (X_00) at m = 1 and
        (X_00, X_11, Re X_01, Im X_01) at m = 2 (:func:`calculus._real_entries`).
        The images are Hermitian parts, so these rows determine them exactly."""
        return _real_entries(self.adjoint)

    def assemble(self, coords: np.ndarray) -> np.ndarray:
        """Matrix with the given real coordinates: sum_i coords[i] E_i."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates, got shape {coords.shape}")
        return np.einsum("i,iab->ab", coords, self.elements)

    def coords_of(self, matrix: np.ndarray) -> np.ndarray:
        """Real coordinates of the orthogonal projection of ``matrix``."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape != self.elements.shape[1:]:
            raise ValueError(f"matrix shape {m.shape} does not match basis {self.elements.shape[1:]}")
        return np.real(np.einsum("iab,ab->i", np.conj(self.elements), m))


@dataclass(frozen=True, eq=False)
class MomentOperator:
    """A support grid, kernel samples, and the induced range geometry."""

    grid: SupportGrid
    kernels: KernelSamples
    basis: RangeBasis

    @property
    def adjoint_basis(self) -> np.ndarray:
        """The range basis's cached adjoint images L*(E_i), shape (d, N, m, m);
        the adjoint field and the solver's Jacobians contract against them."""
        return self.basis.adjoint

    @property
    def node_count(self) -> int:
        return self.grid.node_count

    @property
    def m(self) -> int:
        return self.kernels.left.shape[2]

    @property
    def n_left(self) -> int:
        return self.kernels.left.shape[1]

    @property
    def n_right(self) -> int:
        return self.kernels.right.shape[2]

    @property
    def d(self) -> int:
        return self.basis.dim

    @cached_property
    def identity_dual(self) -> tuple[np.ndarray, np.ndarray]:
        """Range coordinates of the weighted least-squares solution lam_I of
        L*(lam) = I, read-only, and the nodewise eigenvalues (N, m) of
        L*(lam_I); computed on first use and kept with the operator, which
        every solve and default start on it reads, whether or not L*(lam_I)
        is positive."""
        return _solve_identity_dual(self)


@dataclass(frozen=True, eq=False)
class DualVariable:
    """A dual point: coordinates in the range basis plus the assembled matrix."""

    coords: np.ndarray
    matrix: np.ndarray


def dual_from_coords(op: MomentOperator, coords: np.ndarray) -> DualVariable:
    coords = np.asarray(coords, dtype=float).copy()
    return DualVariable(coords, op.basis.assemble(coords))


def dual_from_matrix(op: MomentOperator, matrix: np.ndarray) -> DualVariable:
    """Project a matrix onto the range subspace; reject if it sticks out.

    A dual variable only pairs with moments through its range component, so a
    relative residual above 1e-10 signals a malformed input rather than
    information worth keeping.
    """
    coords, residual = project_to_range(op, matrix)
    scale = max(float(np.linalg.norm(matrix)), 1e-300)
    if residual > _DUAL_RANGE_RTOL * scale:
        raise ValueError(
            "matrix lies outside the range subspace (relative residual %.3e)" % (residual / scale)
        )
    return DualVariable(coords, op.basis.assemble(coords))


def build_operator(grid: SupportGrid, kernels: KernelSamples) -> MomentOperator:
    """Assemble the operator: validates shapes and computes the range basis
    with the cached adjoint images of its elements."""
    if kernels.left.shape[0] != grid.node_count:
        raise ValueError(
            "kernel sample count %d does not match grid node count %d"
            % (kernels.left.shape[0], grid.node_count)
        )
    return MomentOperator(grid, kernels, compute_range_basis(grid, kernels))


def compute_range_basis(grid: SupportGrid, kernels: KernelSamples) -> RangeBasis:
    """Orthonormal basis of the range of L, found as (ker L*)^perp.

    L* is applied once, to the 2 n_left n_right unit matrices E_ab and i E_ab.
    Their images, weighted by the quadrature weights and flattened to real
    rows, have the Gram matrix of the generators w_n G_left[n] H G_right[n]
    over Hermitian units H.  The right-singular vectors ``c`` with singular
    value above 1e-10 times the largest give both the basis, c . units, and
    its adjoint images, c . L*(units).  The construction is deterministic for
    fixed inputs.
    """
    nl, nr = kernels.left.shape[1], kernels.right.shape[2]
    eye = np.eye(nl * nr).reshape(-1, nl, nr)
    units = np.concatenate([eye, 1j * eye])                  # (2 nl nr, nl, nr)
    images = _adjoint_of_stack(kernels, units)               # (2 nl nr, N, m, m)
    weighted = np.ascontiguousarray(images * grid.weights[:, None, None])
    # the R factor of the tall matrix has its singular values and right
    # singular vectors, without forming the tall left factor
    r = np.linalg.qr(weighted.reshape(len(units), -1).view(float).T, mode="r")
    _, s, vt = np.linalg.svd(r, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("kernel family generates a trivial range")
    kept = vt[s > _RANGE_SVD_RTOL * s[0]]
    return RangeBasis(np.tensordot(kept, units, axes=1),
                      np.ascontiguousarray(np.tensordot(kept, images, axes=1)))


def apply_L(op: MomentOperator, density: np.ndarray) -> np.ndarray:
    """Moment matrix of a sampled density: sum_n w_n G_left[n] rho[n] G_right[n]."""
    rho = _sampled_field(density, "density", op.node_count, op.m)
    return np.einsum(
        "n,nab,nbc,ncd->ad", op.grid.weights, op.kernels.left, rho, op.kernels.right,
        optimize=True,
    )


def apply_L_adjoint(op: MomentOperator, lam: np.ndarray) -> np.ndarray:
    """Sampled adjoint field (L* lam)[n] = herm(G_left[n]* lam G_right[n]*).

    Pointwise in the node index; quadrature weights do not enter.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (op.n_left, op.n_right):
        raise ValueError(f"dual matrix shape {lam.shape}, expected {(op.n_left, op.n_right)}")
    return _adjoint_of_stack(op.kernels, lam[None])[0]


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real trace pairing Re trace(X* Y); real symmetric and positive definite."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return trace_inner(x, y)


def project_to_range(op: MomentOperator, matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Coordinates of the projection onto the range basis and the residual norm."""
    coords = op.basis.coords_of(matrix)
    recon = op.basis.assemble(coords)
    residual = float(np.linalg.norm(np.asarray(matrix, dtype=complex) - recon))
    return coords, residual


def is_dual_feasible(op: MomentOperator, lam) -> tuple[bool, float]:
    """Whether L*(lam) clears the inverse families' floor at every node; returns min eigenvalue."""
    a_field = apply_L_adjoint(op, _as_matrix(op, lam))
    try:
        return True, _check_dual_floor(eigvalsh_hermitian(a_field))
    except PositivityError as exc:
        return False, exc.min_eig


def moment_functional(op: MomentOperator, moment: np.ndarray, lam) -> float:
    """Pairing <lam, R> between a dual variable and a candidate moment.

    Nonnegative for every dual-feasible lam exactly when R is attainable; the
    solver's verdicts operationalise that test, this function just evaluates
    the pairing.
    """
    return inner(_as_matrix(op, lam), np.asarray(moment, dtype=complex))


def entropy(density: np.ndarray, grid: SupportGrid, kind: str, sigma: np.ndarray | None = None) -> float:
    """Entropy-type integrals of a positive density field.

    kind = "burg":       -int trace log rho
    kind = "vonneumann":  int trace (rho log rho)
    kind = "relative":    int trace (rho log rho - rho log sigma), sigma > 0

    Integrals are the grid's weighted sums; every node must be strictly
    positive definite (PositivityError names the node with the smallest
    eigenvalue).
    """
    rho = _sampled_field(density, "density", grid.node_count)
    log_sigma = None
    if kind == "relative":
        if sigma is None:
            raise ValueError("relative entropy needs the reference density sigma")
        log_sigma = matrix_log(_sampled_field(sigma, "sigma", *rho.shape[:2]))
    values = dict(zip(("burg", "vonneumann", "relative"), _entropies(rho, grid, log_sigma)))
    if kind not in values:
        raise ValueError(f"unknown entropy kind {kind!r}")
    return values[kind]


def _entropies(rho: np.ndarray, grid: SupportGrid, log_sigma: np.ndarray | None = None):
    """Burg, von Neumann and (given log sigma) relative entropy from one eigendecomposition."""
    w = eigvalsh_hermitian(rho)
    _check_positive(w, 0.0, "density not positive definite")
    log_w = np.log(w)
    burg = float(-np.sum(grid.weights * np.sum(log_w, axis=1)))
    own = np.sum(grid.weights * np.sum(w * log_w, axis=1))
    if log_sigma is None:
        return burg, float(own), None
    cross = np.sum(grid.weights * np.real(np.einsum("nab,nba->n", rho, log_sigma)))
    return burg, float(own), float(own - cross)


# ---------------------------------------------------------------------------
# helpers

def _check_dual_floor(eigs: np.ndarray) -> float:
    """Smallest of an adjoint field's nodewise eigenvalues ``eigs`` (N, m);
    PositivityError unless it exceeds 1e-10 times the field's mean eigenvalue."""
    return _check_positive(eigs, _DUAL_FLOOR_RTOL * max(float(eigs.sum()) / eigs.size, 0.0),
                           "adjoint field near-singular")


def _solve_identity_dual(op: MomentOperator) -> tuple[np.ndarray, np.ndarray]:
    """:attr:`MomentOperator.identity_dual`, computed.

    lam_I minimises sum_n w_n ||L*(lam)[n] - I||_F^2: one SVD least-squares
    solve on the cached real rows of the adjoint images, weighted by sqrt(w)
    and, as the norm counts each off-diagonal entry twice, by sqrt(2) off the
    diagonal.  It never forms their Gram matrix (entries of the kernels'
    fourth power) and so needs no scaling for any kernel size.
    """
    x = op.adjoint_basis
    diagonal = np.arange(op.m * op.m)[:, None] < op.m
    scale = np.sqrt(np.where(diagonal, 1.0, 2.0) * op.grid.weights)
    rows = (scale * op.basis.real_adjoint).reshape(op.d, -1)
    coords = np.linalg.lstsq(rows.T, (scale * diagonal).reshape(-1), rcond=None)[0]
    coords.flags.writeable = False
    field = (coords @ x.reshape(op.d, -1).view(float)).view(complex).reshape(x.shape[1:])
    return coords, eigvalsh_hermitian(field)


def _adjoint_of_stack(kernels: KernelSamples, elements: np.ndarray) -> np.ndarray:
    """L* of each matrix in a stack (i, n_left, n_right), shape (i, N, m, m)."""
    out = np.einsum(
        "nba,ibc,ndc->inad", np.conj(kernels.left), elements, np.conj(kernels.right),
        optimize=True,
    )
    return hermitian_part(out)


def _as_matrix(op: MomentOperator, lam) -> np.ndarray:
    if isinstance(lam, DualVariable):
        return lam.matrix
    lam = np.asarray(lam)
    if lam.ndim == 1:
        return op.basis.assemble(lam.astype(float))
    return lam.astype(complex)
