"""Spectral calculus for Hermitian matrices.

All functions operate on complex arrays of shape ``(..., m, m)`` and are
vectorised over the leading dimensions, so a field of matrices sampled on a
grid can be processed in one call.  Every spectral function funnels through a
single eigendecomposition dispatch (:func:`_eigh`) which symmetrises its
input first; this gives the whole package one consistent policy for
numerical noise.  Fields of 1x1 matrices take a scalar path and fields of
2x2 matrices a vectorised closed form; only ``m >= 3`` calls LAPACK.  The
closed form takes the entries ``p, q, b`` of each matrix
(:func:`_eigh_2x2_entries`), so an adjoint field L*(lam), laid out by m in
:func:`_field_layout` as real rows at m <= 2, is decomposed without a complex
stack by :func:`_eigh_field`, the source of every eigenvalue of L*.  Every
positive-definiteness test in the package compares eigenvalues with its
floor through :func:`_check_positive`, which names the node of a field that
fails, and every density, sigma or phi that enters it passes
:func:`_sampled_field`.  Every matrix norm outside a solver run is
:func:`_norm`, which scales by a power of two first and so holds at any size.

The two central operations are the order-scrambled product

    M_C(Delta) = int_0^1 C^(1-tau) Delta C^tau dtau

for a positive definite ``C`` and Hermitian ``Delta``, and its inverse
``M_C^{-1}``.  In the eigenbasis of ``C`` (eigenvalues ``c_i``) the map is
entrywise multiplication by

    f_ij = (c_i - c_j) / (log c_i - log c_j),      f_ii = c_i,

which is also the first divided difference of the exponential evaluated at
``log c``.  These maps are exactly the Frechet derivatives of the matrix
exponential and logarithm:

    d/ds exp(A + s Delta)|_0 = M_{exp A}(Delta)
    d/ds log(A + s Delta)|_0 = M_A^{-1}(Delta)      (A positive definite).
"""

from __future__ import annotations

import numpy as np

from .errors import PositivityError

# Exponent gap below which the divided-difference factor switches
# to its Taylor series; keeps f smooth through coalescing eigenvalues.
_SERIES_CUTOFF = 1e-4
# Largest relative defect ||M - M*||_F / ||M||_F accepted as Hermitian.
_HERMITIAN_RTOL = 1e-12
# Relative positivity floor: the smallest eigenvalue must exceed this
# fraction of the largest eigenvalue magnitude.
_POSITIVE_RTOL = 1e-12


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return (M + M*)/2, batched over leading dimensions."""
    a = _square(np.asarray(matrix))
    out = a + np.conj(np.swapaxes(a, -1, -2))
    if not np.iscomplexobj(out):
        return 0.5 * out
    # halve the parts as reals: a complex 0.5 would turn 0 * inf into nan
    out.real *= 0.5
    out.imag *= 0.5
    return out


def as_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Validate that ``matrix`` is Hermitian and symmetrise it.

    The defect ||M - M*||_F must not exceed ``1e-12 * ||M||_F`` per batch
    entry, at any size of M; otherwise it is rejected, not silently repaired,
    as is a matrix with a non-finite entry.
    """
    a = _square(np.asarray(matrix, dtype=complex))
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    defect = _norm(a - np.conj(np.swapaxes(a, -1, -2)), (-2, -1))
    if np.any(defect > _HERMITIAN_RTOL * _norm(a, (-2, -1))):
        raise ValueError(
            "matrix is not Hermitian: defect %.3e exceeds %.1e relative"
            % (float(np.max(defect)), _HERMITIAN_RTOL)
        )
    return hermitian_part(a)


def eigh_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition after symmetrisation; the shared spectral entry point.

    Returns ``(w, u)`` with ascending real eigenvalues ``w`` of shape
    ``(..., m)`` and unitary ``u`` such that ``M = u diag(w) u*``.
    """
    return _eigh(matrix, vectors=True)


def eigvalsh_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues alone, under the same policy as :func:`eigh_hermitian`."""
    return _eigh(matrix, vectors=False)


def matrix_exp(matrix: np.ndarray) -> np.ndarray:
    """Hermitian matrix exponential ``u diag(exp w) u*``."""
    w, u = eigh_hermitian(matrix)
    return _rebuild(np.exp(w), u)


def matrix_log(matrix: np.ndarray) -> np.ndarray:
    """Principal logarithm of a positive definite Hermitian matrix.

    Raises :class:`PositivityError` when any eigenvalue is at or below the
    positivity floor ``1e-12 * max|eig|``, naming the node on a field.
    """
    w, u = eigh_hermitian(matrix)
    _check_positive(w)
    return _rebuild(np.log(w), u)


def assert_positive_definite(matrix: np.ndarray) -> float:
    """Check positive definiteness; return the smallest eigenvalue over the batch.

    Succeeds iff min-eig strictly exceeds the relative floor
    ``1e-12 * max|eig|``; otherwise raises :class:`PositivityError` carrying
    the offending eigenvalue (and node, on a field).
    """
    return _check_positive(eigvalsh_hermitian(matrix))


def scrambled_multiply(c: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Order-scrambled product M_C(Delta) = int_0^1 C^(1-tau) Delta C^tau dtau.

    ``c`` must be positive definite Hermitian, ``delta`` Hermitian; the result
    is Hermitian, and positive semidefinite whenever ``delta`` is.
    """
    w, u = eigh_hermitian(c)
    _check_positive(w)
    return _frechet(u, _divided_difference_exp(np.log(w)), delta)


def scrambled_divide(a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Inverse scrambled product M_A^{-1}(Delta): entrywise factor
    (log a_i - log a_j)/(a_i - a_j) in the eigenbasis of ``a``."""
    w, u = eigh_hermitian(a)
    _check_positive(w)
    return _frechet(u, 1.0 / _divided_difference_exp(np.log(w)), delta)


def frechet_exp(a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Directional derivative of exp at Hermitian ``a`` along Hermitian ``delta``.

    Equals ``scrambled_multiply(matrix_exp(a), delta)``, from one
    decomposition of ``a``.
    """
    w, u = eigh_hermitian(a)
    return _frechet(u, _divided_difference_exp(w), delta)


def frechet_log(a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Directional derivative of log at positive definite ``a`` along ``delta``.

    Equals ``scrambled_divide(a, delta)``; inverse of :func:`frechet_exp`
    in the sense ``frechet_exp(log a, frechet_log(a, delta)) == delta``.
    """
    return scrambled_divide(a, delta)


def trace_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real trace inner product Re trace(X* Y) on matrices (or stacked fields)."""
    return float(np.real(np.sum(np.conj(x) * np.asarray(y))))


# ---------------------------------------------------------------------------
# helpers

def _rebuild(f_of_w: np.ndarray, u: np.ndarray) -> np.ndarray:
    # u diag(f) u*; on fields of small matrices one einsum beats a batched matmul
    return hermitian_part(np.einsum("...ab,...b,...cb->...ac", u, f_of_w, np.conj(u)))


def _frechet(u: np.ndarray, g: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """u (g o u* delta u) u*: the derivative of a spectral function along
    ``delta``, given its divided differences ``g`` in the eigenbasis ``u``."""
    uh = np.conj(np.swapaxes(u, -1, -2))
    return hermitian_part(u @ (g * (uh @ np.asarray(delta, dtype=complex) @ u)) @ uh)


def _eigh(matrix: np.ndarray, vectors: bool):
    """:func:`eigh_hermitian`, or its ``w`` alone unless ``vectors``.  m = 1
    takes a scalar path and m = 2 a closed form (:func:`_eigh_2x2`), which keep
    large fields of small matrices cheap and give the same ``w`` bit for bit
    either way; larger m goes to LAPACK, whose two routines may differ in the
    last bits of ``w``."""
    a = _square(np.asarray(matrix, dtype=complex))
    if a.shape[-1] == 1:
        return (a.real[..., 0], np.ones_like(a)) if vectors else a.real[..., 0]
    if a.shape[-1] == 2:
        return _eigh_2x2(a, vectors)
    a = hermitian_part(a)
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def _eigh_2x2(a: np.ndarray, vectors: bool):
    """Closed-form eigendecomposition of the Hermitian part of 2x2 stacks:
    :func:`_eigh_2x2_entries` on its diagonal and on ``b``, the mean of
    ``a01`` and ``conj(a10)``.  Returns ``w`` alone unless ``vectors``."""
    with np.errstate(invalid="ignore"):  # a non-finite entry gives NaN, as LAPACK does
        b = 0.5 * (a[..., 0, 1] + np.conj(a[..., 1, 0]))
    parts = _eigh_2x2_entries(a[..., 0, 0].real, a[..., 1, 1].real, b, vectors)
    if not vectors:
        return parts
    w, (c, s, phase) = parts
    u = np.empty(a.shape, dtype=complex)
    u[..., 0, 0] = c * phase
    u[..., 0, 1] = s * phase
    u[..., 1, 0] = -s
    u[..., 1, 1] = c
    return w, u


@np.errstate(invalid="ignore", over="ignore")  # non-finite input gives NaN, as LAPACK does
def _eigh_2x2_entries(p: np.ndarray, q: np.ndarray, b: np.ndarray, vectors: bool):
    """Closed-form eigendecomposition of the Hermitian matrices
    ``[[p, b], [conj(b), q]]`` from their entries, real ``p, q`` and complex
    ``b``: the one 2x2 formula, shared by :func:`_eigh_2x2` and
    :func:`_eigh_field`'s real rows.

    The eigenvalues are ``(p+q)/2 -+ r`` with ``r = hypot((q-p)/2, |b|)``,
    ascending.  The eigenvectors are the columns of ``u = [[c e, s e], [-s, c]]``
    with ``c, s`` the cosine and sine of ``atan2(|b|, (q-p)/2) / 2`` and
    ``e = b/|b|`` the phase of ``b`` (Higham, *Functions of Matrices*, 2008).
    Where ``b = 0`` the eigenvalues are ``p`` and ``q`` exactly and ``u`` is
    the identity or the swap ``[[0, 1], [-1, 0]]``; coincident eigenvalues
    (``r = 0``) are such a case and get the identity.  Returns ``w`` of shape
    (..., 2) alone unless ``vectors``, else ``(w, (c, s, e))``.
    """
    b_abs = np.abs(b)
    half_gap = 0.5 * (q - p)
    r = np.hypot(half_gap, b_abs)
    mid = 0.5 * (p + q)
    diagonal = b_abs == 0.0
    w = np.stack((np.where(diagonal, np.minimum(p, q), mid - r),
                  np.where(diagonal, np.maximum(p, q), mid + r)), axis=-1)
    if not vectors:
        return w
    angle = 0.5 * np.arctan2(b_abs, half_gap)
    c = np.where(diagonal, half_gap >= 0.0, np.cos(angle))
    s = np.where(diagonal, half_gap < 0.0, np.sin(angle))
    phase = np.divide(b, b_abs, out=np.ones_like(b), where=~diagonal)
    return w, (c, s, phase)


def _real_entries(field: np.ndarray) -> np.ndarray:
    """Hermitian (..., N, m, m) stacks as real rows (..., m*m, N), C-contiguous:
    the diagonal entries, then the real and the imaginary parts of the entries
    above the diagonal, in row-major order.  The rows determine an exactly
    Hermitian matrix; of any other they keep the diagonal's real parts and
    the upper triangle."""
    row, col = np.triu_indices(field.shape[-1], 1)
    upper = field[..., row, col]
    rows = np.concatenate((np.diagonal(field, axis1=-2, axis2=-1).real, upper.real, upper.imag),
                          axis=-1)
    return np.ascontiguousarray(np.swapaxes(rows, -1, -2))


def _field_layout(stack: np.ndarray) -> np.ndarray:
    """Hermitian (..., N, m, m) stacks in the one layout of an adjoint field:
    a real row (..., N) at m = 1, the rows (..., 4, N) of (p, q, Re b, Im b)
    at m = 2 (:func:`_real_entries`) and the complex stack itself at m >= 3."""
    if stack.shape[-1] > 2:
        return stack
    rows = _real_entries(stack)
    return rows[..., 0, :] if stack.shape[-1] == 1 else rows


def _eigh_field(field: np.ndarray, vectors: bool):
    """Nodewise eigenvalues (N, m) of a field in :func:`_field_layout` and,
    when ``vectors``, its eigenvectors: None at m = 1, ``(c, s, e)`` of
    :func:`_eigh_2x2_entries` at m = 2 and ``u`` at m >= 3."""
    if field.ndim == 1:
        return (field[:, None], None) if vectors else field[:, None]
    if field.ndim == 2:
        b = np.ascontiguousarray(field[2:].T).view(complex)[:, 0]
        return _eigh_2x2_entries(field[0], field[1], b, vectors)
    return _eigh(field, vectors)


def _real_rows(a: np.ndarray) -> np.ndarray:
    # A C-contiguous stack of d arrays as d flat real rows.  A complex stack
    # (d, N, m, m) has its real and imaginary parts interleaved, so that
    # Re tr(X* Y) is the dot product of two rows over the flattened
    # (node, a, b) axis; for Hermitian X it is Re tr(X Y).
    return a.reshape(a.shape[0], -1).view(float)


def _adjoint_field(coords: np.ndarray, images: np.ndarray) -> np.ndarray:
    # L* is linear and its images of the range basis are cached on the
    # operator in the field layout (d, ...); the field comes in that layout
    if images.ndim == 2:  # m = 1: one real row per node
        return coords @ images
    return (coords @ _real_rows(images)).view(images.dtype).reshape(images.shape[1:])


def _norm(a: np.ndarray, axes: tuple[int, ...] | None = None):
    """Frobenius norm of ``a``, or of each batch entry over ``axes``, taken
    on ``a`` scaled by the exact power of two that brings its largest real or
    imaginary part into [0.5, 1): no square under- or overflows at any size."""
    # the float view doubles the last axis only, so ``axes`` still picks the entries
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    exp = np.frexp(np.abs(parts).max(axis=axes, keepdims=True, initial=0.0))[1]
    unit = np.ldexp(parts, -exp)
    return np.ldexp(np.sqrt(np.sum(unit * unit, axis=axes)), np.squeeze(exp, axis=axes))


def _square(a: np.ndarray) -> np.ndarray:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    return a


def _sampled_field(values, name: str, nodes: int | None = None, m: int | None = None) -> np.ndarray:
    """``values`` as a C-contiguous complex (N, m, m) field of square matrices,
    every entry finite, N equal to ``nodes`` and m to ``m`` where given;
    otherwise ValueError naming ``name``."""
    field = np.asarray(values, dtype=complex)
    if (field.ndim != 3 or field.shape[1] != field.shape[2]
            or nodes not in (None, field.shape[0]) or m not in (None, field.shape[1])):
        want = "(%s, %s, %s)" % (nodes or "N", m or "m", m or "m")
        raise ValueError("%s has shape %s; %s %s" % (
            name, field.shape, "this operator needs" if m else "expected", want))
    if not np.isfinite(field).all():
        raise ValueError("%s has non-finite entries" % name)
    return np.ascontiguousarray(field)


def _check_positive(w: np.ndarray, floor: float | None = None,
                    label: str = "matrix not positive definite") -> float:
    """Smallest eigenvalue in ``w``; raise :class:`PositivityError` unless it
    exceeds ``floor`` (default ``1e-12 * max|w|``).

    ``w`` holds the eigenvalues of one matrix, shape (m,), or of a field,
    shape (N, m); for a field the error names the node with the smallest
    eigenvalue.  The package's only positive-definiteness test.
    """
    if w.size == 0:
        return np.inf  # no eigenvalues, nothing to fail
    wmin = float(w.min())
    if floor is None:
        floor = _POSITIVE_RTOL * float(np.max(np.abs(w)))
    if not wmin > floor:
        node = None if w.ndim == 1 else int(np.argmin(w)) // w.shape[-1]
        where = "" if node is None else " at node %d" % node
        raise PositivityError(
            "%s%s (min eig %.3e, floor %.3e)" % (label, where, wmin, floor),
            min_eig=wmin, node=node,
        )
    return wmin


def _divided_difference_exp(w: np.ndarray) -> np.ndarray:
    """First divided difference of exp on exponents: f_ij = (e^w_i - e^w_j)/(w_i - w_j).

    Evaluated as ``e^w_j (e^x - 1)/x`` with ``x = w_i - w_j``
    (:func:`_expm1_quotient`), which gives the diagonal ``f_ii = e^w_i``
    exactly.  Stays finite for strongly negative exponents and overflows to
    inf (which the solver rejects as a step failure) for exponents beyond the
    double range.  At ``w = log c`` this is the scrambled-product factor of
    ``c``.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return np.exp(w[..., None, :]) * _expm1_quotient(w[..., :, None] - w[..., None, :])


def _expm1_quotient(x: np.ndarray) -> np.ndarray:
    """``(e^x - 1)/x`` entrywise; for ``|x| < 1e-4`` the series
    ``1 + x/2 + x^2/6`` takes over, which keeps it smooth through ``x = 0``,
    where it is 1 exactly."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        direct = np.expm1(x) / x
        series = 1.0 + 0.5 * x + x * x / 6.0
        return np.where(np.abs(x) < _SERIES_CUTOFF, series, direct)
