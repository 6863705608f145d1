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
moments form a cone inside the *range subspace* of L, an orthonormal basis of
which is computed once per operator by an SVD over the generator family
{ w_n G_left[n] H G_right[n] : H Hermitian unit }.  All coordinates used by
the continuation solver live in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import _check_positive, eigh_hermitian, hermitian_part, matrix_log, trace_inner
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
    """Validate shapes and build a :class:`KernelSamples`."""
    left = np.ascontiguousarray(left, dtype=complex)
    right = np.ascontiguousarray(right, dtype=complex)
    if left.ndim != 3 or right.ndim != 3:
        raise ValueError("kernel sample arrays must be 3-d (node, row, col)")
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

    ``elements`` has shape (d, n_left, n_right).
    """

    elements: np.ndarray

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

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
    """A support grid, kernel samples, and the induced range geometry.

    ``adjoint_basis`` caches the sampled adjoint images L*(E_i) of the range
    basis elements, shape (d, N, m, m), C-contiguous so that the family
    evaluation's flat views of it need no copy; the adjoint field and the
    solver's Jacobians contract against it.
    """

    grid: SupportGrid
    kernels: KernelSamples
    basis: RangeBasis
    adjoint_basis: np.ndarray = field(repr=False)

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
    """Assemble the operator: validates shapes, computes the range basis and
    the cached adjoint images of its elements."""
    if kernels.left.shape[0] != grid.node_count:
        raise ValueError(
            "kernel sample count %d does not match grid node count %d"
            % (kernels.left.shape[0], grid.node_count)
        )
    basis = compute_range_basis(grid, kernels)
    adj = np.ascontiguousarray(_adjoint_of_stack(kernels, basis.elements))
    return MomentOperator(grid, kernels, basis, adj)


def compute_range_basis(grid: SupportGrid, kernels: KernelSamples) -> RangeBasis:
    """Orthonormal basis of span{ w_n G_left[n] H G_right[n] : H Hermitian }.

    One generator is formed per node per Hermitian unit of the m x m space,
    flattened into real vectors (real and imaginary parts stacked, which
    represents Re trace(X* Y) as the Euclidean dot product).  Right-singular
    vectors with singular value above 1e-10 times the largest are kept, so
    the construction is deterministic for fixed inputs.
    """
    left, right = kernels.left, kernels.right
    n, nl, m = left.shape
    nr = right.shape[2]
    units = _hermitian_units(m)                      # (m*m, m, m)
    gen = np.einsum("nab,ubc,ncd->nuad", left, units, right, optimize=True)
    gen *= grid.weights[:, None, None, None]
    flat = gen.reshape(n * units.shape[0], nl * nr)
    real = np.concatenate([flat.real, flat.imag], axis=1)
    _, s, vt = np.linalg.svd(real, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("kernel family generates a trivial range")
    keep = s > _RANGE_SVD_RTOL * s[0]
    kept = vt[keep]
    elements = kept[:, : nl * nr] + 1j * kept[:, nl * nr:]
    return RangeBasis(elements.reshape(-1, nl, nr))


def apply_L(op: MomentOperator, density: np.ndarray) -> np.ndarray:
    """Moment matrix of a sampled density: sum_n w_n G_left[n] rho[n] G_right[n]."""
    rho = _validate_density(op, density)
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
    out = np.einsum(
        "nba,bc,ndc->nad", np.conj(op.kernels.left), lam, np.conj(op.kernels.right),
        optimize=True,
    )
    return hermitian_part(out)


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
    w, _ = eigh_hermitian(apply_L_adjoint(op, _as_matrix(op, lam)))
    min_eig = float(np.min(w))
    return min_eig > _DUAL_FLOOR_RTOL * max(float(w.sum()) / w.size, 0.0), min_eig


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
    rho = np.asarray(density, dtype=complex)
    if rho.ndim != 3 or rho.shape[0] != grid.node_count:
        raise ValueError("density must have shape (node_count, m, m)")
    log_sigma = None
    if kind == "relative":
        if sigma is None:
            raise ValueError("relative entropy needs the reference density sigma")
        sigma = np.asarray(sigma, dtype=complex)
        if sigma.shape != rho.shape:
            raise ValueError("sigma must match the density's shape")
        log_sigma = matrix_log(sigma)
    values = dict(zip(("burg", "vonneumann", "relative"), _entropies(rho, grid, log_sigma)))
    if kind not in values:
        raise ValueError(f"unknown entropy kind {kind!r}")
    return values[kind]


def _entropies(rho: np.ndarray, grid: SupportGrid, log_sigma: np.ndarray | None = None):
    """Burg, von Neumann and (given log sigma) relative entropy from one eigendecomposition."""
    w, _ = eigh_hermitian(rho)
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

def _hermitian_units(m: int) -> np.ndarray:
    """Orthonormal Hermitian units of the m x m space (dimension m^2)."""
    units = []
    for a in range(m):
        e = np.zeros((m, m), dtype=complex)
        e[a, a] = 1.0
        units.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for a in range(m):
        for b in range(a + 1, m):
            e = np.zeros((m, m), dtype=complex)
            e[a, b] = inv_sqrt2
            e[b, a] = inv_sqrt2
            units.append(e)
            e = np.zeros((m, m), dtype=complex)
            e[a, b] = 1j * inv_sqrt2
            e[b, a] = -1j * inv_sqrt2
            units.append(e)
    return np.stack(units)


def _adjoint_of_stack(kernels: KernelSamples, elements: np.ndarray) -> np.ndarray:
    out = np.einsum(
        "nba,ibc,ndc->inad", np.conj(kernels.left), elements, np.conj(kernels.right),
        optimize=True,
    )
    return hermitian_part(out)


def _validate_density(op: MomentOperator, density: np.ndarray) -> np.ndarray:
    rho = np.asarray(density, dtype=complex)
    if rho.shape != (op.node_count, op.m, op.m):
        raise ValueError(
            "density shape %s, expected %s" % (rho.shape, (op.node_count, op.m, op.m))
        )
    return rho


def _as_matrix(op: MomentOperator, lam) -> np.ndarray:
    if isinstance(lam, DualVariable):
        return lam.matrix
    lam = np.asarray(lam)
    if lam.ndim == 1:
        return op.basis.assemble(lam.astype(float))
    return lam.astype(complex)
