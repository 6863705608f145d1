"""Problem library: array geometry, 2-D grids, partial traces, covariances."""
import warnings

import numpy as np
import pytest

import momentropy as mp
from momentropy import problems as pr
from momentropy.errors import PositivityError


# ---------------------------------------------------------------------------
# sensor array


def test_moment_index_set_collects_distinct_separations():
    seps = pr.moment_index_set()
    expected = np.array([0.0, 1.0, np.sqrt(2.0), 1.0 + np.sqrt(2.0)])
    assert np.allclose(np.sort(seps), expected, rtol=0, atol=1e-12)
    # scaling the wavenumber scales every separation
    seps2 = pr.moment_index_set(wavenumber=2.0)
    assert np.allclose(np.sort(seps2), 2.0 * expected, rtol=0, atol=1e-12)


def test_array_moment_matrix_assembly_and_conjugation():
    values = {
        0.0: 1.0 + 0.0j,
        1.0: 0.3 + 0.1j,
        np.sqrt(2.0): 0.2 - 0.05j,
        1.0 + np.sqrt(2.0): 0.1 + 0.0j,
    }
    m = pr.array_moment_matrix(values)
    assert m[0, 0] == 1.0
    assert m[1, 0] == values[1.0]
    assert m[0, 1] == np.conj(values[1.0])
    assert m[2, 1] == values[np.sqrt(2.0)]
    assert m[2, 0] == values[1.0 + np.sqrt(2.0)]
    with pytest.raises(KeyError):
        pr.array_moment_matrix({0.0: 1.0, 1.0: 0.3})


def test_array_necessary_matrix_verdicts(array_problem):
    op, _rho, moment = array_problem
    pos = np.asarray(pr.DEFAULT_ARRAY_POSITIONS)

    def to_values(r):
        return {0.0: r[0, 0], pos[1]: r[1, 0],
                pos[2] - pos[1]: r[2, 1], pos[2]: r[2, 0]}

    _mat, ok = pr.array_necessary_matrix(to_values(moment))
    assert ok
    flipped = pr.two_bump_demo_density(op.grid)[:, 0, 0].real - 0.7
    bad_moment = mp.apply_L(op, flipped.reshape(-1, 1, 1).astype(complex))
    mat_bad, ok_bad = pr.array_necessary_matrix(to_values(bad_moment))
    assert not ok_bad
    eigs = np.linalg.eigvalsh(0.5 * (mat_bad + mat_bad.conj().T))
    assert eigs[0] < -1e-3 < 1e-3 < eigs[-1]  # genuinely indefinite


def test_array_positions_are_validated():
    with pytest.raises(ValueError):
        pr.nonequispaced_array_problem(positions=(1.0, 2.0))  # must anchor at 0
    with pytest.raises(ValueError):
        pr.nonequispaced_array_problem(positions=(0.0, 1.0, 1.0))  # duplicates


# ---------------------------------------------------------------------------
# 2-D grid of complex exponentials
#
# For the uniform density 1/(2 pi)^2 over [0, pi]^2 the moments factor into
# one-dimensional integrals with values pi (index 0), 2j (index 1) and 0
# (index 2), giving the frozen anchors below.


def test_grid2d_uniform_density_anchor_moments():
    op = pr.grid2d_problem(2)
    assert op.d == 17
    rho = pr.constant_density(op.grid, 1, 1.0 / (2.0 * np.pi) ** 2)
    moment = mp.apply_L(op, rho)
    assert moment.shape == (3, 3)
    assert moment[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert moment[1, 0] == pytest.approx(1j / (2.0 * np.pi), abs=1e-12)
    assert moment[1, 1] == pytest.approx(-1.0 / np.pi ** 2, abs=1e-12)
    assert abs(moment[2, 0]) <= 1e-12
    assert abs(moment[0, 2]) <= 1e-12


def test_grid2d_requires_two_dimensional_support():
    with pytest.raises(ValueError):
        pr.grid2d_problem(2, mp.build_grid("interval1d", (0.0, np.pi)))


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_matches_direct_contraction(rng):
    # the composite state is repeated on every node of the discrete grid;
    # the unit-weight sum over nodes then performs the trace
    op = pr.partial_trace_problem(2, 3)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    state = raw @ raw.conj().T
    rho = np.tile(state[None], (op.node_count, 1, 1))
    got = mp.apply_L(op, rho)
    direct = np.einsum("aibi->ab", state.reshape(2, 3, 2, 3))
    assert np.allclose(got, direct, rtol=1e-13, atol=1e-13)


def test_bell_reduction_is_maximally_mixed():
    op = pr.partial_trace_problem(2, 2)
    rho = np.tile(pr.bell_state()[None], (op.node_count, 1, 1))
    got = mp.apply_L(op, rho)
    assert np.max(np.abs(got - 0.5 * np.eye(2))) <= 1e-15
    assert np.trace(pr.bell_state()).real == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# state covariance


def test_scalar_state_covariance_closed_form():
    # x_{k+1} = a x_k + u_k with unit white noise: var = 1 / (1 - a^2)
    model = pr.state_space_model(np.array([[0.5]]), np.array([[1.0]]))
    op = pr.state_covariance_problem(model)
    moment = mp.apply_L(op, pr.constant_density(op.grid, 1, 1.0))
    assert moment[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_state_space_model_validation():
    with pytest.raises(ValueError):
        pr.state_space_model(np.array([[1.2]]), np.array([[1.0]]))  # unstable
    with pytest.raises(ValueError):
        pr.state_space_model(np.array([[0.5, 0.0], [0.0, 0.4]]),
                             np.array([[1.0], [0.0]]))  # uncontrollable


def test_input_to_state_transfer_values():
    model = pr.random_state_model(n=3, m=2, seed=1)
    z = np.array([0.0, 0.5j])
    g = pr.input_to_state_transfer(model, z)
    assert g.shape == (2, 3, 2)
    assert np.allclose(g[0], model.b, rtol=0, atol=1e-14)
    manual = np.linalg.solve(np.eye(3) - 0.5j * model.a, model.b)
    assert np.allclose(g[1], manual, rtol=1e-13, atol=1e-14)


def test_validate_state_covariance_accepts_forward_moments():
    for seed in (0, 3, 11):
        model = pr.random_state_model(n=4, m=2, seed=seed)
        grid = mp.build_grid("interval1d", (-np.pi, np.pi), panels=24, order=4)
        op = pr.state_covariance_problem(model, grid)
        moment = mp.apply_L(op, pr.random_smooth_matrix_density(grid, 2, seed=seed + 1))
        check = pr.validate_state_covariance(moment, model)
        assert check.rank_ok
        assert check.block_rank == 2 * 2
        assert check.displacement_residual <= 1e-10 * np.linalg.norm(moment)


def test_validate_state_covariance_flags_corrupted_moments(rng):
    model = pr.random_state_model(n=4, m=2, seed=3)
    grid = mp.build_grid("interval1d", (-np.pi, np.pi), panels=24, order=4)
    op = pr.state_covariance_problem(model, grid)
    moment = mp.apply_L(op, pr.random_smooth_matrix_density(grid, 2, seed=4))
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    spoiled = moment + 0.3 * np.linalg.norm(moment) * np.outer(v, v.conj()) / np.vdot(v, v).real
    check = pr.validate_state_covariance(spoiled, model)
    assert not check.rank_ok
    assert check.block_rank > 2 * 2
    assert check.displacement_residual > 1e-3 * np.linalg.norm(spoiled)


def test_feedback_spectral_factor_identity():
    for seed in (0, 5):
        model = pr.random_state_model(n=4, m=2, seed=seed)
        grid = mp.build_grid("interval1d", (-np.pi, np.pi), panels=16, order=4)
        op = pr.state_covariance_problem(model, grid)
        lam = mp.dual_from_coords(
            op, op.basis.coords_of(np.eye(4, dtype=complex)))
        _samples, residual = pr.feedback_spectral_factor(model, grid, lam.matrix)
        assert residual <= 1e-10
    # the identity is scale-free in lam, and so is its relative residual,
    # where the squares of the densities' entries would over- or underflow
    model = pr.random_state_model(n=4, m=2, seed=0)
    grid = mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=4)
    for size in (1e-170, 1e170):
        _samples, residual = pr.feedback_spectral_factor(model, grid, size * np.eye(4))
        assert np.isfinite(residual) and residual < 1e-12


def test_random_state_model_is_deterministic_and_stable():
    m1 = pr.random_state_model(n=4, m=2, seed=12)
    m2 = pr.random_state_model(n=4, m=2, seed=12)
    assert np.array_equal(m1.a, m2.a) and np.array_equal(m1.b, m2.b)
    radius = float(np.max(np.abs(np.linalg.eigvals(m1.a))))
    assert 0.1 <= radius <= 0.45 + 1e-9
    m3 = pr.random_state_model(n=4, m=2, seed=13)
    assert not np.array_equal(m1.a, m3.a)


# ---------------------------------------------------------------------------
# boundary interpolant


def test_herglotz_interpolant_center_and_positivity(rng):
    grid = mp.build_grid("interval1d", (-np.pi, np.pi), panels=24, order=5)
    rho_id = pr.constant_density(grid, 2, 1.0)
    f0 = pr.herglotz_interpolant(rho_id, grid, np.array([0.0 + 0.0j]))[0]
    assert np.allclose(f0, np.eye(2), rtol=0, atol=1e-12)

    rho = pr.random_smooth_matrix_density(grid, 2, seed=6)
    zs = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 40)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 40))
    f = pr.herglotz_interpolant(rho, grid, zs)
    herm = 0.5 * (f + np.conj(f).swapaxes(1, 2))
    assert float(np.min(np.linalg.eigvalsh(herm))) > 0.0


def test_herglotz_interpolant_rejects_boundary_points():
    grid = mp.build_grid("interval1d", (-np.pi, np.pi), panels=8, order=3)
    rho = pr.constant_density(grid, 1, 1.0)
    with pytest.raises(ValueError):
        pr.herglotz_interpolant(rho, grid, np.array([1.0 + 0.0j]))
    # a NaN point is no point of the disk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (np.nan, np.array([0.5, complex(np.nan, 0.0)])):
            with pytest.raises(ValueError, match="evaluation points must satisfy"):
                pr.herglotz_interpolant(rho, grid, z)


# ---------------------------------------------------------------------------
# synthetic densities


def test_synthetic_densities_are_positive_and_deterministic():
    grid = mp.build_grid("interval1d", (0.0, np.pi), panels=16, order=4)
    rho = pr.two_bump_demo_density(grid)
    assert rho.shape == (grid.node_count, 1, 1)
    assert float(np.min(rho[:, 0, 0].real)) > 0.0

    grid2 = mp.build_grid("rectangle2d", ((0.0, np.pi), (0.0, np.pi)), panels=4, order=3)
    rho2 = pr.bump2d_density(grid2, 0.4, bumps=((1.0, 1.0, 0.5, 0.5, 1.0),))
    assert float(np.min(rho2[:, 0, 0].real)) > 0.0

    sm1 = pr.random_smooth_matrix_density(grid, 2, seed=5)
    sm2 = pr.random_smooth_matrix_density(grid, 2, seed=5)
    assert np.array_equal(sm1, sm2)
    assert np.linalg.norm(sm1 - np.conj(sm1).swapaxes(1, 2)) <= 1e-13
    eigs = np.linalg.eigvalsh(sm1)
    assert float(np.min(eigs)) > 0.0


def test_bump_mixture_rejects_nonpositive_profiles():
    grid = mp.build_grid("interval1d", (0.0, np.pi), panels=8, order=3)
    with pytest.raises(PositivityError):
        pr.bump_mixture_density(grid, -2.0, bumps=((1.0, 0.3, 0.5),))
