"""Ready-made moment problem instances and their validators.

Four problem settings are wired up here:

* a non-equispaced line array of sensors: scalar densities on an angle
  interval, kernels ``exp(-1i k x_l cos(theta))``, whose moment matrices carry
  the correlation values at the pairwise sensor separations (an irregular,
  non-lattice index set when the separations are incommensurable);
* separable 2-D trigonometric moments on a rectangle, where the left kernel
  carries the first coordinate's frequencies and the right kernel the
  second's (the kernels are genuinely one-sided: right != left*);
* partial trace over a tensor factor, the discrete specialisation whose
  moment map sends a bipartite state to its reduced state;
* stationary state covariances of a linear system x+ = A x + B u driven by
  wide-sense-stationary input, with kernels (I - e^{1i theta} A)^{-1} B
  carrying the normalisation 1/sqrt(2 pi) so that moments are averages over
  the unit circle.

Also here: synthetic densities used as ground truth in round-trip tests, the
positive-real (Herglotz-type) interpolant of a circle density, and the
feedback spectral-factor identity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import _check_positive, _norm, _sampled_field, eigvalsh_hermitian, hermitian_part
from .grid import SupportGrid, build_grid, discrete_grid
from .operator import MomentOperator, build_operator, kernel_samples

DEFAULT_ARRAY_POSITIONS = (0.0, 1.0, 1.0 + math.sqrt(2.0))

_DEDUP_TOL = 1e-12
_STABILITY_MARGIN = 1e-8
_RANK_RTOL = 1e-10
_SMOOTH_DENSITY_FLOOR = 0.3
_SMOOTH_DENSITY_MODES = 2
_MODEL_SPECTRAL_RADIUS = 0.45
_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# non-equispaced sensor array

def moment_index_set(positions=DEFAULT_ARRAY_POSITIONS, wavenumber: float = 1.0) -> np.ndarray:
    """Sorted nonnegative pairwise-separation indices carried by the moments.

    Differences are deduplicated at 1e-12 absolute, which in particular keeps
    the default positions' indices {0, 1, sqrt2, sqrt2 + 1} exact to rounding.
    """
    pos = _validated_positions(positions)
    diffs = np.abs(pos[:, None] - pos[None, :]).ravel() * float(wavenumber)
    out: list[float] = []
    for v in np.sort(diffs):
        if not out or v - out[-1] > _DEDUP_TOL:
            out.append(float(v))
    return np.array(out)


def nonequispaced_array_problem(positions=DEFAULT_ARRAY_POSITIONS, wavenumber: float = 1.0,
                                grid: SupportGrid | None = None) -> MomentOperator:
    """Moment operator of the sensor array over the angle interval [0, pi].

    Scalar densities (m = 1); the left kernel is the steering column
    ``[exp(-1i wavenumber x_l cos theta)]_l`` and the right kernel its
    adjoint, so moment matrices are Hermitian with entries indexed by the
    pairwise separations.
    """
    pos = _validated_positions(positions)
    if grid is None:
        grid = build_grid("interval1d", (0.0, math.pi), panels=32, order=5)
    if grid.dim != 1:
        raise ValueError("the sensor-array problem needs a one-dimensional grid")
    tau = np.cos(grid.nodes[:, 0])
    left = np.exp(-1j * float(wavenumber) * pos[None, :] * tau[:, None])[:, :, None]
    right = np.conj(left).swapaxes(1, 2)
    return build_operator(grid, kernel_samples(left, right))


def array_moment_matrix(values: dict, positions=DEFAULT_ARRAY_POSITIONS,
                        wavenumber: float = 1.0) -> np.ndarray:
    """Assemble the operator-oriented moment matrix M[i,j] = R(x_i - x_j).

    ``values`` maps nonnegative separation indices to complex correlation
    values (keys matched with 1e-9 tolerance); negative separations use the
    conjugate.  Raises KeyError when a needed index is missing.
    """
    pos = _validated_positions(positions) * float(wavenumber)
    n = pos.size
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            sep = pos[i] - pos[j]
            val = _lookup_index(values, abs(sep))
            out[i, j] = val if sep >= 0 else np.conj(val)
    return out


def array_necessary_matrix(values: dict, positions=DEFAULT_ARRAY_POSITIONS,
                           wavenumber: float = 1.0) -> tuple[np.ndarray, bool]:
    """Necessary-condition matrix M[i,j] = R(x_j - x_i) and its verdict.

    The verdict accepts iff the minimum eigenvalue is at least
    ``-1e-12 * R(0)``: positive semidefiniteness of this matrix is necessary
    (not sufficient) for the values to be attainable moments.
    """
    m = np.conj(array_moment_matrix(values, positions, wavenumber))
    r0 = float(np.real(_lookup_index(values, 0.0)))
    min_eig = float(np.min(eigvalsh_hermitian(m)))
    return m, min_eig >= -1e-12 * r0


def _validated_positions(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 1 or pos.size < 2:
        raise ValueError("need at least two sensor positions")
    if abs(pos[0]) > 0.0:
        raise ValueError("sensor positions are anchored at 0")
    if np.any(np.diff(np.sort(pos)) <= _DEDUP_TOL):
        raise ValueError("sensor positions must be distinct")
    return pos


def _lookup_index(values: dict, sep: float):
    for key, val in values.items():
        if abs(float(key) - sep) <= 1e-9:
            return val
    raise KeyError(f"no moment value supplied for separation index {sep!r}")


# ---------------------------------------------------------------------------
# separable 2-D trigonometric moments

def grid2d_problem(n: int, grid: SupportGrid | None = None) -> MomentOperator:
    """Moments R[k, l] = integral exp(1i (k theta + l phi)) rho dtheta dphi.

    Scalar densities on a rectangle; the left kernel is the column
    ``[exp(1i k theta)]_k`` for k = 0..n and the right kernel the row
    ``[exp(1i l phi)]_l`` — one-sided kernels, so moment matrices are not
    Hermitian and the range basis spans a genuinely complex matrix space.
    """
    if int(n) < 0:
        raise ValueError("largest frequency n must be nonnegative")
    if grid is None:
        grid = build_grid("rectangle2d", ((0.0, math.pi), (0.0, math.pi)), panels=32, order=5)
    if grid.kind != "rectangle2d":
        raise ValueError("the 2-D moment problem needs a rectangle2d grid")
    ks = np.arange(int(n) + 1)
    theta = grid.nodes[:, 0]
    phi = grid.nodes[:, 1]
    left = np.exp(1j * ks[None, :] * theta[:, None])[:, :, None]
    right = np.exp(1j * ks[None, :] * phi[:, None])[:, None, :]
    return build_operator(grid, kernel_samples(left, right))


# ---------------------------------------------------------------------------
# partial trace over a tensor factor

def partial_trace_problem(dim_keep: int, dim_trace: int) -> MomentOperator:
    """Discrete problem whose moment map is the partial trace.

    Densities are fields of (dim_keep * dim_trace)-dimensional states over
    ``dim_trace`` discrete nodes; the k-th kernel is ``I (x) e_k^T``, so a
    constant field carrying a bipartite state maps to its reduced state on
    the kept factor.
    """
    da, db = int(dim_keep), int(dim_trace)
    if da < 1 or db < 1:
        raise ValueError("tensor factors need positive dimensions")
    grid = discrete_grid(db)
    eye = np.eye(da, dtype=complex)
    left = np.stack([np.kron(eye, np.eye(db, dtype=complex)[k][None, :]) for k in range(db)])
    right = np.conj(left).swapaxes(1, 2)
    return build_operator(grid, kernel_samples(left, right))


def bell_state() -> np.ndarray:
    """Maximally entangled two-qubit state (|00> + |11>)(<00| + <11|)/2."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return np.outer(v, np.conj(v))


# ---------------------------------------------------------------------------
# state covariances of a linear system

@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Discrete-time pair (A, B), optionally with a stabilising feedback C_o.

    A is n x n with spectral radius < 1, B is n x m with (A, B) controllable;
    when present, C_o is m x n and A - B C_o is again stable.
    """

    a: np.ndarray
    b: np.ndarray
    c_o: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


def state_space_model(a: np.ndarray, b: np.ndarray, c_o: np.ndarray | None = None) -> StateSpaceModel:
    """Validate and freeze a state-space pair."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    n = a.shape[0]
    if b.ndim != 2 or b.shape[0] != n or b.shape[1] < 1:
        raise ValueError("B must be n x m with m >= 1")
    if _spectral_radius(a) >= 1.0 - _STABILITY_MARGIN:
        raise ValueError("A must be strictly stable (spectral radius < 1)")
    ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
    if _numerical_rank(ctrb) < n:
        raise ValueError("(A, B) must be controllable")
    if c_o is not None:
        c_o = np.asarray(c_o, dtype=complex)
        if c_o.shape != (b.shape[1], n):
            raise ValueError("C_o must be m x n")
        if _spectral_radius(a - b @ c_o) >= 1.0 - _STABILITY_MARGIN:
            raise ValueError("A - B C_o must be strictly stable")
    return StateSpaceModel(a, b, c_o)


def input_to_state_transfer(model: StateSpaceModel, z: np.ndarray) -> np.ndarray:
    """G(z) = (I - z A)^{-1} B for an array of complex z; shape (k, n, m)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    eye = np.eye(model.n, dtype=complex)
    systems = eye[None, :, :] - z[:, None, None] * model.a[None, :, :]
    return np.linalg.solve(systems, np.broadcast_to(model.b, (z.size, model.n, model.m)))


def state_covariance_problem(model: StateSpaceModel, grid: SupportGrid | None = None) -> MomentOperator:
    """Moment operator whose attainable moments are stationary state covariances.

    Kernels are G(e^{1i theta}) / sqrt(2 pi): the circle average's 1/(2 pi)
    is split between the two kernel sides, so the grid keeps its geometric
    measure 2 pi while moments are genuine averages over the circle.
    """
    if grid is None:
        grid = build_grid("interval1d", (-math.pi, math.pi), panels=32, order=5)
    if grid.dim != 1:
        raise ValueError("the state-covariance problem needs a one-dimensional grid")
    z = np.exp(1j * grid.nodes[:, 0])
    left = input_to_state_transfer(model, z) / math.sqrt(_TWO_PI)
    right = np.conj(left).swapaxes(1, 2)
    return build_operator(grid, kernel_samples(left, right))


@dataclass(frozen=True)
class StateCovarianceCheck:
    """Outcome of the attainability conditions for a candidate covariance.

    ``block_rank`` is the numerical rank of [[R - A R A*, B], [B*, 0]]; the
    rank condition holds when it equals 2 m.  ``h_factor`` is the least-squares
    solution H of the displacement equation R - A R A* = B H + H* B*, and
    ``displacement_residual`` the Frobenius norm of that equation's residual.
    """

    block_rank: int
    rank_ok: bool
    h_factor: np.ndarray
    displacement_residual: float


def validate_state_covariance(moment: np.ndarray, model: StateSpaceModel) -> StateCovarianceCheck:
    """Check the rank condition and solve the displacement equation."""
    r = np.asarray(moment, dtype=complex)
    n, m = model.n, model.m
    if r.shape != (n, n):
        raise ValueError(f"covariance must be {n} x {n}")
    s = r - model.a @ r @ np.conj(model.a.T)
    block = np.zeros((n + m, n + m), dtype=complex)
    block[:n, :n] = s
    block[:n, n:] = model.b
    block[n:, :n] = np.conj(model.b.T)
    rank = _numerical_rank(block)

    h = _solve_displacement(s, model.b)
    residual = float(_norm(model.b @ h + np.conj(h.T) @ np.conj(model.b.T) - s))
    return StateCovarianceCheck(rank, rank == 2 * m, h, residual)


def _solve_displacement(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    # least squares over H: the images B U + (B U)* of the real and imaginary
    # unit matrices U (m x n), as real rows, against S
    n, m = b.shape
    eye = np.eye(m * n).reshape(-1, m, n)
    units = np.concatenate([eye, 1j * eye])
    images = b @ units
    images = images + np.conj(np.swapaxes(images, -1, -2))
    coeffs = np.linalg.lstsq(images.reshape(len(units), -1).view(float).T,
                             s.reshape(-1).view(float), rcond=None)[0]
    return np.tensordot(coeffs, units, axes=1)


def herglotz_interpolant(density: np.ndarray, grid: SupportGrid, z) -> np.ndarray:
    """Positive-real interpolant of a circle density.

    F(z) = integral (1 + z e^{-1i theta}) / (1 - z e^{-1i theta})
                 rho(theta) dtheta / (2 pi)

    evaluated by the grid's quadrature; defined for |z| <= 1 - 1e-6.  For a
    positive density the Hermitian part of F is positive semidefinite on the
    whole disk, F(0) is the density's circle average, and the Hermitian part
    of F(r e^{1i theta}) recovers rho(theta) as r -> 1.
    """
    if grid.dim != 1:
        raise ValueError("the interpolant is defined over circle densities (1-D grid)")
    rho = _sampled_field(density, "density", grid.node_count)
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.abs(z_arr) <= 1.0 - 1e-6):  # NaN fails this test too
        raise ValueError("evaluation points must satisfy |z| <= 1 - 1e-6")
    phase = np.exp(-1j * grid.nodes[:, 0])
    zp = z_arr[:, None] * phase[None, :]
    kernel = (1.0 + zp) / (1.0 - zp)
    out = np.einsum("n,kn,nab->kab", grid.weights / _TWO_PI, kernel, rho, optimize=True)
    return out[0] if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def feedback_spectral_factor(model: StateSpaceModel, grid: SupportGrid,
                             lam: np.ndarray) -> tuple[np.ndarray, float]:
    """Closed-loop kernels and the spectral-factorisation identity residual.

    With phi(z) = I + C_o z G(z) the outer factor of the feedback loop, the
    identity G phi^{-1} = G_o holds, where G_o is the transfer of the
    closed-loop matrix A - B C_o.  Consequently, for a dual-feasible lam,

        phi (G* lam G)^{-1} phi*  ==  (G_o* lam G_o)^{-1}   pointwise,

    i.e. the inverse-family density with respect to lam factors through the
    closed loop.  Returns the sampled G_o / sqrt(2 pi) and the largest
    nodewise relative residual of the identity.
    """
    if model.c_o is None:
        raise ValueError("the model carries no feedback C_o")
    if grid.dim != 1:
        raise ValueError("needs a one-dimensional circle grid")
    z = np.exp(1j * grid.nodes[:, 0])
    g = input_to_state_transfer(model, z) / math.sqrt(_TWO_PI)
    closed = state_space_model(model.a - model.b @ model.c_o, model.b)
    g_o = input_to_state_transfer(closed, z) / math.sqrt(_TWO_PI)

    phi = np.eye(model.m, dtype=complex)[None, :, :] + np.einsum(
        "ab,k,kbc->kac", model.c_o, z, input_to_state_transfer(model, z), optimize=True
    )
    gh = np.conj(g).swapaxes(1, 2)
    goh = np.conj(g_o).swapaxes(1, 2)
    adj = gh @ lam[None, :, :] @ g
    adj_o = goh @ lam[None, :, :] @ g_o
    _check_positive(eigvalsh_hermitian(adj_o), 0.0,
                    "lam not dual-feasible: closed-loop adjoint field singular")
    lhs = phi @ np.linalg.inv(adj) @ np.conj(phi).swapaxes(1, 2)
    rhs = np.linalg.inv(adj_o)
    return g_o, float(np.max(_norm(lhs - rhs, (1, 2)) / _norm(rhs, (1, 2))))


def random_state_model(n: int = 4, m: int = 2, seed: int = 0) -> StateSpaceModel:
    """Deterministic pseudo-random stable controllable model (real-valued).

    A is rescaled to spectral radius 0.45; C_o is a small random feedback
    shrunk geometrically until the loop is stable.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= _MODEL_SPECTRAL_RADIUS / max(_spectral_radius(a), 1e-12)
    b = rng.standard_normal((n, m))
    c_o = 0.2 * rng.standard_normal((m, n))
    for _ in range(40):
        if _spectral_radius(a - b @ c_o) < 1.0 - 10.0 * _STABILITY_MARGIN:
            break
        c_o *= 0.5
    else:
        c_o = np.zeros((m, n))
    return state_space_model(a, b, c_o)


def _spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=complex)))))


def _numerical_rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_RTOL * s[0]))


# ---------------------------------------------------------------------------
# synthetic ground-truth densities

def constant_density(grid: SupportGrid, m: int = 1, value: float = 1.0) -> np.ndarray:
    """Constant field value * I_m over the grid."""
    return np.broadcast_to(value * np.eye(m, dtype=complex), (grid.node_count, m, m)).copy()


def bump_mixture_density(grid: SupportGrid, baseline: float,
                         bumps=(), steps=()) -> np.ndarray:
    """Scalar density: baseline + Gaussian bumps + smoothed plateaus (1-D).

    ``bumps`` holds (center, width, height) triples; ``steps`` holds
    (left_edge, right_edge, height, edge_width) quadruples realised with tanh
    edges.  A profile that is not positive raises :class:`PositivityError`
    naming the node with the smallest value.
    """
    if grid.dim != 1:
        raise ValueError("bump_mixture_density is for one-dimensional grids")
    theta = grid.nodes[:, 0]
    rho = np.full_like(theta, float(baseline))
    for center, width, height in bumps:
        rho = rho + height * np.exp(-(((theta - center) / width) ** 2))
    for lo, hi, height, edge in steps:
        rho = rho + 0.5 * height * (np.tanh((theta - lo) / edge) - np.tanh((theta - hi) / edge))
    _check_positive(rho[:, None], 0.0, "bump mixture not positive")
    return rho[:, None, None].astype(complex)


def two_bump_demo_density(grid: SupportGrid) -> np.ndarray:
    """The package's reference scalar density on [0, pi].

    0.5 baseline, Gaussian bumps at 0.75 (width 0.22, height 1.1) and 2.15
    (width 0.30, height 0.7), plus a plateau of height 0.9 on [0.30, 0.45]
    with tanh edges of width 0.02.
    """
    return bump_mixture_density(
        grid, 0.5,
        bumps=((0.75, 0.22, 1.1), (2.15, 0.30, 0.7)),
        steps=((0.30, 0.45, 0.9, 0.02),),
    )


def bump2d_density(grid: SupportGrid, baseline: float, bumps=()) -> np.ndarray:
    """Scalar density on a rectangle: baseline + separable Gaussian bumps.

    ``bumps`` holds (center1, center2, width1, width2, height) tuples.
    """
    if grid.kind != "rectangle2d":
        raise ValueError("bump2d_density is for rectangle2d grids")
    t1 = grid.nodes[:, 0]
    t2 = grid.nodes[:, 1]
    rho = np.full_like(t1, float(baseline))
    for c1, c2, w1, w2, height in bumps:
        rho = rho + height * np.exp(-(((t1 - c1) / w1) ** 2) - (((t2 - c2) / w2) ** 2))
    _check_positive(rho[:, None], 0.0, "2-D bump mixture not positive")
    return rho[:, None, None].astype(complex)


def random_smooth_matrix_density(grid: SupportGrid, m: int, seed: int = 0) -> np.ndarray:
    """Smooth periodic positive matrix density C(theta) C(theta)* + 0.3 I.

    C is a trigonometric matrix polynomial with two harmonics and
    pseudo-random real coefficients drawn from ``seed``; suited to circle
    grids where a periodic ground truth is wanted.
    """
    if grid.dim != 1:
        raise ValueError("random_smooth_matrix_density is for one-dimensional grids")
    rng = np.random.default_rng(seed)
    theta = grid.nodes[:, 0]
    c = np.zeros((grid.node_count, m, m), dtype=complex)
    c += rng.standard_normal((m, m))[None, :, :]
    for k in range(1, _SMOOTH_DENSITY_MODES + 1):
        amp = 0.6 / k
        c += amp * rng.standard_normal((m, m))[None, :, :] * np.cos(k * theta)[:, None, None]
        c += amp * rng.standard_normal((m, m))[None, :, :] * np.sin(k * theta)[:, None, None]
    rho = c @ np.conj(c).swapaxes(1, 2) + _SMOOTH_DENSITY_FLOOR * np.eye(m, dtype=complex)[None, :, :]
    return hermitian_part(rho)
