"""Continuation solver: convergence, divergence classification, diagnostics."""
import numpy as np
import pytest

import momentropy as mp
from momentropy import problems as pr
from momentropy import solver as solver_module
from momentropy.solver import (
    STATUS_CONVERGED,
    STATUS_DIVERGED_BOUNDARY,
    STATUS_DIVERGED_UNBOUNDED,
    STATUS_MAX_TIME,
    STATUS_NOT_IN_RANGE,
)


@pytest.fixture(scope="module")
def scalar_op():
    grid = mp.build_grid("interval1d", (0.0, 1.0), panels=8, order=4)
    ones = np.ones((grid.node_count, 1, 1), dtype=complex)
    return mp.build_operator(grid, mp.kernel_samples(ones, ones))


def test_scalar_rational_solve_matches_closed_form(scalar_op):
    # moment 2 over a unit interval forces density 2, dual point 1/2
    report = mp.solve(scalar_op, np.array([[2.0]], dtype=complex), mp.rational_family())
    assert report.status == STATUS_CONVERGED
    assert report.V_final <= 1e-12
    assert report.lambda_hat.matrix[0, 0].real == pytest.approx(0.5, abs=1e-9)
    assert np.max(np.abs(report.density[:, 0, 0] - 2.0)) <= 1e-9
    # at the matched point the pairing equals m * measure of the support
    assert report.pairing_value == pytest.approx(1.0, abs=1e-10)
    assert report.entropy_value == pytest.approx(-np.log(2.0), abs=1e-9)


def test_scalar_exponential_solve_matches_closed_form(scalar_op):
    # density exp(-lam)/e == 1 exactly at lam = -1
    report = mp.solve(scalar_op, np.array([[1.0]], dtype=complex), mp.exponential_family())
    assert report.status == STATUS_CONVERGED
    assert report.lambda_hat.matrix[0, 0].real == pytest.approx(-1.0, abs=1e-8)
    assert np.max(np.abs(report.density[:, 0, 0] - 1.0)) <= 1e-8
    assert report.entropy_value == pytest.approx(0.0, abs=1e-9)


def test_moment_outside_the_range_is_rejected(array_problem, rng):
    op, _rho, moment = array_problem
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = raw + raw.conj().T
    coords, _resid = mp.project_to_range(op, y)
    off_range = y - op.basis.assemble(coords)
    bad = moment + 0.1 * off_range / np.linalg.norm(off_range)
    for solver in (mp.solve, mp.solve_tau):
        report = solver(op, bad, mp.rational_family())
        assert report.status == STATUS_NOT_IN_RANGE
        assert "residual" in report.message
        assert np.isnan(report.V_final)


def test_inverse_families_need_override_on_two_dimensional_support():
    op2 = pr.grid2d_problem(1, mp.build_grid(
        "rectangle2d", ((0.0, np.pi), (0.0, np.pi)), panels=6, order=3))
    moment = mp.apply_L(op2, pr.constant_density(op2.grid, 1, 0.5))
    with pytest.raises(ValueError):
        mp.solve(op2, moment, mp.rational_family())
    with pytest.raises(ValueError):
        mp.solve_tau(op2, moment, mp.rational_family())
    config = mp.SolveConfig(torus_override=True, t_max=5.0)
    report = mp.solve(op2, moment, mp.rational_family(), config)
    assert report.status in (STATUS_CONVERGED, STATUS_MAX_TIME)
    # exponential families carry no dimension restriction
    report2 = mp.solve(op2, moment, mp.exponential_family())
    assert report2.status == STATUS_CONVERGED


def test_divergence_statuses_on_negative_scalar_moment(scalar_op):
    for name in ("rational", "exponential"):
        report = mp.solve(scalar_op, np.array([[-1.0]], dtype=complex),
                          mp.family_from_name(name))
        assert report.status in (STATUS_DIVERGED_UNBOUNDED, STATUS_DIVERGED_BOUNDARY)
        assert report.V_final > 1e-3
        assert report.message
        if report.status == STATUS_DIVERGED_BOUNDARY:
            # the verdict names why the last trial step was rejected
            assert report.message.startswith("step collapsed below 1e-12 at t=")
            reason = report.message.split(": ", 1)[1]
            assert reason in ("Jacobian lost definiteness", "V did not decrease",
                              "non-finite values in stage evaluation",
                              "non-finite flow velocity") \
                or reason.startswith("adjoint field near-singular at node ")
        else:
            # the verdict names the norm, the bound and the time
            t, _v, _min_eig, lam_norm = report.trace[-1]
            assert report.message == "dual norm %.3e exceeded 1e+08 at t=%.6f" % (lam_norm, t)
            assert lam_norm > 1e8


def test_a_trial_step_costs_four_evaluations(scalar_op, monkeypatch):
    # the first RK4 stage reuses the evaluation of the accepted point
    counts = {"_evaluate": 0, "_rk4_step": 0}

    def counted(name):
        original = getattr(solver_module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(solver_module, name, counted(name))
    report = mp.solve(scalar_op, np.array([[2.0]], dtype=complex), mp.exponential_family())
    assert report.status == STATUS_CONVERGED
    accepted = len(report.trace) - 1
    polish_steps = report.iterations - accepted
    attempts = counts["_rk4_step"]
    assert attempts >= accepted > 0
    assert counts["_evaluate"] <= 1 + 4 * attempts + polish_steps


@pytest.mark.parametrize("solver, h_min", [(mp.solve, "1e-12"), (mp.solve_tau, "1e-06")])
def test_a_failing_first_stage_ends_the_run_at_once(scalar_op, monkeypatch, solver, h_min):
    # the first stage does not depend on the step size, so no halving can
    # help; the verdict is the one the halving loop would have reached
    calls = []

    def refuse(flow_jac, rhs):
        calls.append(rhs)
        raise solver_module._StepFailure("Jacobian lost definiteness")

    monkeypatch.setattr(solver_module, "_solve_flow_system", refuse)
    report = solver(scalar_op, np.array([[2.0]], dtype=complex), mp.exponential_family())
    assert report.status == STATUS_DIVERGED_BOUNDARY
    assert report.message == ("step collapsed below %s at t=0.000000: Jacobian lost definiteness"
                              % h_min)
    assert len(calls) == 1
    assert report.iterations == 0


def test_non_finite_moments_and_options_are_rejected(scalar_op):
    for solver in (mp.solve, mp.solve_tau):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                solver(scalar_op, np.array([[bad]], dtype=complex), mp.rational_family())
    for name in ("tol", "t_max"):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                mp.SolveConfig(**{name: bad})


def test_relative_entropy_is_reported_for_the_sigma_families(array_problem):
    op, _rho, moment = array_problem
    sigma = pr.bump_mixture_density(op.grid, 1.0, bumps=((1.5, 0.4, 0.6),))
    for factory in (mp.weighted_exponential_family, mp.prior_exponential_family):
        report = mp.solve(op, moment, factory(sigma))
        assert report.status == STATUS_CONVERGED
        assert report.entropy_value == mp.entropy(report.density, op.grid, "relative",
                                                  sigma=sigma)


def test_time_horizon_is_honoured(array_problem):
    op, _rho, moment = array_problem
    config = mp.SolveConfig(t_max=1e-3)
    report = mp.solve(op, moment, mp.rational_family(), config)
    assert report.status == STATUS_MAX_TIME
    assert report.trace[-1][0] <= 1e-3 + 1e-12


def test_fixed_interval_form_matches_the_flow_form(scalar_op, array_problem):
    report = mp.solve_tau(scalar_op, np.array([[2.0]], dtype=complex), mp.rational_family())
    assert report.status == STATUS_CONVERGED
    assert report.lambda_hat.matrix[0, 0].real == pytest.approx(0.5, abs=1e-9)

    op, _rho, moment = array_problem
    flow = mp.solve(op, moment, mp.rational_family())
    fixed = mp.solve_tau(op, moment, mp.rational_family())
    assert fixed.status == STATUS_CONVERGED
    rel = np.max(np.abs(fixed.density - flow.density)) / np.max(np.abs(flow.density))
    assert rel <= 1e-6


def test_fixed_interval_form_detects_infeasible_targets(scalar_op):
    report = mp.solve_tau(scalar_op, np.array([[-1.0]], dtype=complex), mp.rational_family())
    assert report.status == STATUS_DIVERGED_BOUNDARY
    assert report.trace[-1][0] < 0.9  # the path exits the cone well before tau = 1


def test_lyapunov_slope_recovers_synthetic_decay():
    ts = np.arange(0.0, 12.0, 0.1)
    trace = [(float(t), float(np.exp(-2.0 * t)), 0.5, 1.0) for t in ts]
    assert mp.lyapunov_slope(trace) == pytest.approx(-2.0, abs=1e-9)


def test_lyapunov_slope_error_cases():
    with pytest.raises(ValueError):
        mp.lyapunov_slope([(0.0, 1.0, 0.5, 1.0)] * 5)
    flat = [(float(t), 1e-3, 0.5, 1.0) for t in range(50)]
    with pytest.raises(ValueError):
        mp.lyapunov_slope(flat)


def test_reported_slope_tracks_the_design_decay_rate(scalar_op):
    report = mp.solve(scalar_op, np.array([[2.0]], dtype=complex), mp.rational_family())
    assert report.fitted_V_slope is not None
    assert -2.2 <= report.fitted_V_slope <= -1.8


def test_newton_polish_tightens_an_accepted_solution(scalar_op):
    report = mp.solve(scalar_op, np.array([[2.0]], dtype=complex), mp.rational_family())
    # the trace ends at the flow's last accepted point, before the polish
    assert report.status == STATUS_CONVERGED and report.trace[-1][1] <= 1e-10
    assert report.V_final <= 1e-13


def test_trace_time_is_increasing_and_consistent(array_problem):
    op, _rho, moment = array_problem
    report = mp.solve(op, moment, mp.rational_family())
    ts = [row[0] for row in report.trace]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert report.V_final <= report.trace[-1][1] + 1e-15
    assert report.iterations >= len(report.trace) - 1


def test_explicit_starts_reach_the_same_solution(array_problem, rng):
    op, _rho, moment = array_problem
    family = mp.rational_family()
    base = mp.solve(op, moment, family)
    start = mp.default_dual_start(op, family)
    other = mp.dual_from_coords(op, start.coords * 1.2)
    assert mp.is_dual_feasible(op, other)[0]
    alt = mp.solve(op, moment, family, start=other)
    assert alt.status == STATUS_CONVERGED
    rel = np.max(np.abs(alt.density - base.density)) / np.max(np.abs(base.density))
    assert rel <= 1e-8
