"""Continuation solver: convergence, divergence classification, diagnostics."""
import warnings

import numpy as np
import pytest

import momentropy as mp
from momentropy import calculus
from momentropy import operator as operator_module
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
            assert reason in ("Jacobian lost definiteness", "corrector stopped contracting",
                              "corrector missed the path after 4 iterations",
                              "non-finite values in evaluation",
                              "non-finite Newton step") \
                or reason.startswith("adjoint field near-singular at node ")
        else:
            # the verdict names the norm, the bound and the time
            t, _v, _min_eig, lam_norm = report.trace[-1]
            assert report.message == "dual norm %.3e exceeded 1e+08 at t=%.6f" % (lam_norm, t)
            assert lam_norm > 1e8


@pytest.mark.parametrize("solver, traced, other", [
    (mp.solve, "_rk4_step", "_rk4_step_tau"), (mp.solve_tau, "_rk4_step_tau", "_rk4_step")])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_each_form_stays_within_its_evaluation_budget(array_problem, monkeypatch,
                                                      solver, traced, other, name):
    # every trial step goes through its clock's traced name once and costs
    # at most four evaluations; a whole array solve costs at most 150
    op, _rho, moment = array_problem
    evaluations, per_step = [], []
    original_evaluate = solver_module._evaluate
    original_step = getattr(solver_module, traced)

    def counted_evaluate(*args, **kwargs):
        evaluations.append(1)
        return original_evaluate(*args, **kwargs)

    def counted_step(*args, **kwargs):
        before = len(evaluations)
        try:
            return original_step(*args, **kwargs)
        finally:
            per_step.append(len(evaluations) - before)

    def never(*args, **kwargs):
        raise AssertionError("%s called from %s" % (other, solver.__name__))

    monkeypatch.setattr(solver_module, "_evaluate", counted_evaluate)
    monkeypatch.setattr(solver_module, traced, counted_step)
    monkeypatch.setattr(solver_module, other, never)
    report = solver(op, moment, mp.family_from_name(name))
    assert report.status == STATUS_CONVERGED
    assert len(per_step) >= len(report.trace) - 1 > 0
    assert all(1 <= n <= 4 for n in per_step)
    assert len(evaluations) <= 150


@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_solve_converges_on_a_scaled_array_target(array_problem, name):
    # a target 1e8 times the array moment stretches the path over eight
    # decades; the flow must still meet it
    op, _rho, moment = array_problem
    scaled = 1e8 * moment
    report = mp.solve(op, scaled, mp.family_from_name(name))
    assert report.status == STATUS_CONVERGED
    resid = np.linalg.norm(mp.apply_L(op, report.density) - scaled) / np.linalg.norm(scaled)
    assert resid <= 1e-6
    # the landing on R sits below the slope fit's floor and leaves the decay rate alone
    assert -2.2 <= report.fitted_V_slope <= -1.8


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
    assert len(report.trace) == 1


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


def test_finalise_decomposes_the_density_once(array_problem, monkeypatch):
    # the Burg, von Neumann and relative entropies share one eigendecomposition
    # of the converged density, and the prior family's log sigma is reused
    op, _rho, _moment = array_problem
    sigma = pr.bump_mixture_density(op.grid, 1.0, bumps=((1.5, 0.4, 0.6),))
    family = mp.prior_exponential_family(sigma)
    lam = mp.default_dual_start(op, family)
    ev = solver_module._evaluate(op, lam, family)
    calls = []

    def counted(original):
        def wrapper(matrix):
            calls.append(np.array_equal(matrix, ev.density))
            return original(matrix)
        return wrapper

    for module in (calculus, operator_module):
        monkeypatch.setattr(module, "eigh_hermitian", counted(module.eigh_hermitian))
    report = solver_module._finalise(op, family, STATUS_CONVERGED, lam.coords, ev, 0.0,
                                     [], "", fit_slope=False)
    assert calls.count(True) == 1
    assert report.entropy_value == mp.entropy(ev.density, op.grid, "relative", sigma=sigma)


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
    # tau lands exactly on 1, whatever round-off the step sum carries
    for value in (2.0, 3.0):
        for name in ("rational", "exponential"):
            target = np.array([[value]], dtype=complex)
            flow = mp.solve(scalar_op, target, mp.family_from_name(name))
            fixed = mp.solve_tau(scalar_op, target, mp.family_from_name(name))
            assert fixed.status == STATUS_CONVERGED, (value, name)
            assert fixed.trace[-1][0] == 1.0
            assert np.max(np.abs(fixed.density - flow.density)) <= 1e-9 * value

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


def test_the_last_trace_row_is_the_landing_on_the_target(scalar_op):
    report = mp.solve(scalar_op, np.array([[2.0]], dtype=complex), mp.rational_family())
    # the flow's last step is a corrector step onto R itself, not a polish after it
    assert report.status == STATUS_CONVERGED
    assert report.V_final == report.trace[-1][1] <= 1e-13


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_negative_and_zero_scalar_targets_never_converge(scalar_op, solver, name):
    # the magnitudes of the benchmark's infeasible targets; a flow that stops
    # at an absolute V would call the smallest of them matched
    for value in (-1e-7, -1e-3, -1e1, -1e5):
        report = solver(scalar_op, np.array([[value]], dtype=complex), mp.family_from_name(name))
        assert report.status in (STATUS_DIVERGED_UNBOUNDED, STATUS_DIVERGED_BOUNDARY), value
    report = solver(scalar_op, np.zeros((1, 1), dtype=complex), mp.family_from_name(name))
    assert report.status != STATUS_CONVERGED


@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_a_small_positive_target_converges_with_a_relative_residual(scalar_op, name):
    target = np.array([[1e-7]], dtype=complex)
    report = mp.solve(scalar_op, target, mp.family_from_name(name))
    assert report.status == STATUS_CONVERGED
    resid = np.linalg.norm(mp.apply_L(scalar_op, report.density) - target) / 1e-7
    assert resid <= 1e-6


def test_a_far_off_point_raises_no_overflow_warning(scalar_op):
    # the exponential flow on R = -1e-3 accepts a point with dual norm near
    # 5e218, whose square overflows a double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = mp.solve(scalar_op, np.array([[-1e-3]], dtype=complex),
                          mp.exponential_family())
    assert report.status == STATUS_DIVERGED_UNBOUNDED
    lam_norm = report.trace[-1][3]
    assert np.isfinite(lam_norm) and lam_norm > 1e200
    assert "inf" not in report.message


def test_trace_time_is_increasing_and_consistent(array_problem):
    op, _rho, moment = array_problem
    report = mp.solve(op, moment, mp.rational_family())
    ts = [row[0] for row in report.trace]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert report.V_final == report.trace[-1][1]


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
