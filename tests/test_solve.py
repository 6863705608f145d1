"""Continuation solver: convergence, divergence classification, diagnostics."""
import warnings

import numpy as np
import pytest

import momentropy as mp
from momentropy import calculus
from momentropy import formats as fm
from momentropy import operator as operator_module
from momentropy import problems as pr
from momentropy import solver as solver_module
from momentropy.errors import DualStartNotFound, PositivityError
from momentropy.solver import (
    STATUS_CONVERGED,
    STATUS_INCONCLUSIVE,
    STATUS_NOT_IN_RANGE,
)


def _scalar_kernel_op(size=1.0):
    # a scalar moment of the unit interval with constant kernels: R = size^2 int rho
    grid = mp.build_grid("interval1d", (0.0, 1.0), panels=8, order=4)
    kernels = np.full((grid.node_count, 1, 1), size, dtype=complex)
    return mp.build_operator(grid, mp.kernel_samples(kernels, kernels))


@pytest.fixture(scope="module")
def scalar_op():
    return _scalar_kernel_op()


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
        assert report.trace == []
        assert not np.any(report.lambda_hat.coords) and not np.any(report.lambda_hat.matrix)
        assert (report.density, report.entropy_value, report.entropy_burg,
                report.entropy_vonneumann, report.pairing_value,
                report.fitted_V_slope) == (None,) * 6


@pytest.mark.parametrize("size", [1.0, 1e-170, 1e-200, 1e-300])
def test_a_moment_outside_the_range_is_rejected_at_any_size(size):
    # the array example's target with 0.5i added at (0, 1) and (1, 0), which
    # is not Hermitian; below about 1e-162 the squares in both Frobenius norms
    # of the relative residual underflow to 0, so R is scaled to order 1 first
    op, _kernels, moment, _rho = fm.example_problem("nonequispaced-array")
    bad = moment.copy()
    bad[0, 1] += 0.5j
    bad[1, 0] += 0.5j
    for name in ("rational", "exponential"):
        for solver in (mp.solve, mp.solve_tau):
            report = solver(op, size * bad, mp.family_from_name(name))
            assert report.status == STATUS_NOT_IN_RANGE, (name, solver.__name__, report.message)
            assert report.message.endswith("(relative residual 1.272e-01)"), report.message


@pytest.mark.parametrize("size", [1e160, 1e200, 1e300, 1e-160, 1e-200, 1e-300, 1e-304])
def test_a_target_of_any_size_gets_a_report_without_a_warning(size):
    # the squares of R's entries over- or underflow at these sizes, and the
    # suite turns a RuntimeWarning into an error; many of these runs end
    # Inconclusive, but none converges without reproducing R, and none takes
    # more than 200 steps
    for name in ("nonequispaced-array", "scalar-demo", "statecov"):
        op, _kernels, moment, _rho = fm.example_problem(name)
        for family in ("rational", "exponential"):
            for solver in (mp.solve, mp.solve_tau):
                report = solver(op, size * moment, mp.family_from_name(family))
                assert isinstance(report, mp.SolveReport), (name, family, solver.__name__)
                assert len(report.trace) <= 201, (name, family, solver.__name__)
                if report.status == STATUS_CONVERGED:
                    resid = np.linalg.norm(mp.apply_L(op, report.density) / size - moment)
                    assert resid <= 1e-6 * np.linalg.norm(moment), (name, family,
                                                                     solver.__name__)


@pytest.mark.parametrize("size", [1e-310, 5e-324])
def test_a_subnormal_target_gets_a_report_without_a_warning(size):
    # the run's unit 2^-e, e R's largest binary exponent, is no finite double
    # here, so it stops at 2^1023; R keeps few of its bits, and a converged
    # density is checked against R as rounded, both scaled by 2^1000 first;
    # as at any size, no run takes more than 200 steps
    for name in ("nonequispaced-array", "scalar-demo", "statecov"):
        op, _kernels, moment, _rho = fm.example_problem(name)
        target = size * moment
        for family in ("rational", "exponential"):
            for solver in (mp.solve, mp.solve_tau):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = solver(op, target, mp.family_from_name(family))
                assert isinstance(report, mp.SolveReport), (name, family, solver.__name__)
                assert len(report.trace) <= 201, (name, family, solver.__name__)
                # a rational start scaled by 1 / c, c near |R|, would overflow: it stays unscaled
                assert np.isfinite(report.lambda_hat.coords).all(), (name, family,
                                                                      solver.__name__)
                if report.status == STATUS_CONVERGED:
                    scaled = 2.0 ** 1000 * target
                    resid = np.linalg.norm(mp.apply_L(op, 2.0 ** 1000 * report.density) - scaled)
                    assert resid <= 1e-6 * np.linalg.norm(scaled), (name, family,
                                                                     solver.__name__)


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
    assert report.status == STATUS_CONVERGED or (
        report.status == STATUS_INCONCLUSIVE
        and report.message == "horizon t=5 reached before landing on R")
    # exponential families carry no dimension restriction
    report2 = mp.solve(op2, moment, mp.exponential_family())
    assert report2.status == STATUS_CONVERGED


def test_divergence_statuses_on_negative_scalar_moment(scalar_op, assert_certified):
    # -1 is the moment of no positive density: the verdict carries the
    # separating dual point and names its step, margin and worst node
    moment = np.array([[-1.0]], dtype=complex)
    for name in ("rational", "exponential"):
        report = mp.solve(scalar_op, moment, mp.family_from_name(name))
        cert = report.certificate
        assert_certified(scalar_op, moment, report.status, cert.dual.matrix)
        assert report.V_final > 1e-3
        assert cert.step == len(report.trace) - 1
        assert cert.margin < -1e-9
        assert report.message == (
            "separating certificate at step %d (t=%.6f): <y, R> = %.3e ||R|| ||y||, "
            "L*(y) >= 0 least at node %d" % (cert.step, report.trace[-1][0], cert.margin, cert.node))
    # R = 0 lies on the cone's boundary, where no dual point separates it: each
    # run stops short and says why
    zero = np.zeros((1, 1), dtype=complex)
    for solver in (mp.solve, mp.solve_tau):
        for name in ("rational", "exponential"):
            report = solver(scalar_op, zero, mp.family_from_name(name))
            assert report.status == STATUS_INCONCLUSIVE and report.certificate is None
            t, _v, _min_eig, lam_norm = report.trace[-1]
            if report.message.startswith("step collapsed"):
                # the verdict names why the last trial step was rejected
                assert report.message.startswith("step collapsed below 1e-12 at t=")
                reason = report.message.split(": ", 1)[1]
                assert reason in ("singular Jacobian", "corrector stopped contracting",
                                  "corrector missed the path after 4 iterations",
                                  "non-finite values in evaluation",
                                  "non-finite Newton step") \
                    or reason.startswith("adjoint field near-singular at node ")
            elif report.message.startswith("dual norm"):
                # the verdict names the norm, the bound 1e8 max(1, ||x_0||) and the time
                bound = 1e8 * max(1.0, report.trace[0][3])
                assert report.message == "dual norm %.3e exceeded %.3e at t=%.6f" % (
                    lam_norm, bound, t)
                assert lam_norm > bound
            else:
                assert report.message == "horizon t=60 reached before landing on R"


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
    # a target 1e8 times the array moment: the flow must meet it, with the
    # decay rate of the unscaled target
    op, _rho, moment = array_problem
    scaled = 1e8 * moment
    report = mp.solve(op, scaled, mp.family_from_name(name))
    assert report.status == STATUS_CONVERGED
    resid = np.linalg.norm(mp.apply_L(op, report.density) - scaled) / np.linalg.norm(scaled)
    assert resid <= 1e-6
    # the landing on R sits below the slope fit's floor and leaves the decay rate alone
    assert -2.2 <= report.fitted_V_slope <= -1.8


@pytest.mark.parametrize("size", [1e12, 1e-12])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_the_fitted_slope_does_not_depend_on_the_size_of_the_target(array_problem, name, size):
    # the converged tail is judged against the trace's largest V, so a run on
    # 1e12 R, which lands at V near 1e-5, still reports its decay rate
    op, _rho, moment = array_problem
    report = mp.solve(op, size * moment, mp.family_from_name(name))
    assert report.status == STATUS_CONVERGED
    assert report.fitted_V_slope is not None
    assert -2.2 <= report.fitted_V_slope <= -1.8


def test_the_flow_system_needs_an_invertible_not_a_definite_jacobian():
    # the negated symmetric part of this Jacobian, [[1, -2], [-2, 1]], is
    # indefinite, as a weighted family's can be at m > 1; Newton only needs
    # the Jacobian to be invertible
    flow_jac = np.array([[-1.0, 4.0], [0.0, -1.0]])
    rhs = np.array([1.0, 2.0])
    np.testing.assert_array_equal(solver_module._solve_flow_system(flow_jac, rhs),
                                  np.linalg.solve(flow_jac, rhs))
    with pytest.raises(solver_module._StepFailure, match="^singular Jacobian$"):
        solver_module._solve_flow_system(np.zeros((2, 2)), rhs)


@pytest.mark.parametrize("where", ["h_coords", "flow_jacobian"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_evaluation_or_newton_step_is_a_step_failure(array_problem, monkeypatch,
                                                                   where, bad):
    op = array_problem[0]
    family = mp.exponential_family()
    evaluate = solver_module._evaluate

    def poisoned(*args, **kwargs):
        ev = evaluate(*args, **kwargs)
        value = getattr(ev, where).copy()
        value.flat[value.size // 2] = bad
        return ev._replace(**{where: value})

    monkeypatch.setattr(solver_module, "_evaluate", poisoned)
    with pytest.raises(solver_module._StepFailure, match="^non-finite values in evaluation$"):
        solver_module._eval_or_fail(op, np.zeros(op.d), family)
    # the right-hand side reaches the step unchanged through an identity
    rhs = np.ones((3, 2))
    rhs[1, 1] = bad
    with pytest.raises(solver_module._StepFailure, match="^non-finite Newton step$"):
        solver_module._solve_flow_system(np.eye(3), rhs)


def test_an_overflowing_iterate_is_rejected_without_a_warning(array_problem):
    # the suite turns a RuntimeWarning into an error; the corrector's one
    # error state covers its evaluations, its Newton steps and its norms
    op, _rho, moment = array_problem
    lam_i = mp.default_dual_start(op, mp.rational_family()).coords
    r_coords = op.basis.coords_of(moment)

    def unit(target):
        # a run's unit: the power of two at its target's largest coordinate
        return 2.0 ** -np.frexp(np.abs(target).max())[1]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # exp(1e200) overflows the density: the first iterate is rejected
        with pytest.raises(solver_module._StepFailure,
                           match="^non-finite values in evaluation$"):
            solver_module._corrector(op, mp.exponential_family(), np.zeros(op.d),
                                     -1e200 * lam_i, r_coords, 1e-10, unit(r_coords))
        # a target near 1e200 sends the first Newton step out of the feasible
        # set by about 1e200: the next evaluation rejects it
        with pytest.raises(PositivityError, match=r"\(min eig -1\.389e\+200, "):
            solver_module._corrector(op, mp.rational_family(), lam_i, np.zeros(op.d),
                                     1e200 * r_coords, 1e-10, unit(1e200 * r_coords))


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
def test_a_failing_first_stage_ends_the_run_at_once(scalar_op, monkeypatch, solver):
    # the first stage does not depend on the step size, so no halving can
    # help; the verdict is the one the halving loop would have reached
    calls = []

    def refuse(flow_jac, rhs):
        calls.append(rhs)
        raise solver_module._StepFailure("singular Jacobian")

    monkeypatch.setattr(solver_module, "_solve_flow_system", refuse)
    # the default start is exact on a scalar target and takes no step; the
    # unscaled one does
    family = mp.exponential_family()
    report = solver(scalar_op, np.array([[2.0]], dtype=complex), family,
                    start=mp.default_dual_start(scalar_op, family))
    assert report.status == STATUS_INCONCLUSIVE
    assert report.message == "step collapsed below 1e-12 at t=0.000000: singular Jacobian"
    assert len(calls) == 1
    assert len(report.trace) == 1


def test_non_finite_moments_and_options_are_rejected(scalar_op, array_problem):
    for solver in (mp.solve, mp.solve_tau):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError):
                solver(scalar_op, np.array([[bad]], dtype=complex), mp.rational_family())
    # a sigma or a start built for another problem is named, with both shapes
    moment = np.array([[2.0]], dtype=complex)
    foreign_start = mp.default_dual_start(array_problem[0], mp.exponential_family())
    for solver in (mp.solve, mp.solve_tau):
        for sigma in (np.tile(np.eye(2), (32, 1, 1)), np.ones((5, 1, 1))):
            for factory in (mp.weighted_exponential_family, mp.prior_exponential_family):
                with pytest.raises(ValueError, match=r"sigma has shape \(%d, %d, %d\); this "
                                   r"operator needs \(32, 1, 1\)" % sigma.shape):
                    solver(scalar_op, moment, factory(sigma))
        # the weighted rational family is named by the factor phi it was built from
        with pytest.raises(ValueError, match=r"phi has shape \(5, 1, 1\); this operator "
                           r"needs \(32, 1, 1\)"):
            solver(scalar_op, moment, mp.weighted_rational_family(phi=np.ones((5, 1, 1))))
        with pytest.raises(ValueError, match=r"start has shape \(7,\); this operator needs \(1,\)"):
            solver(scalar_op, moment, mp.exponential_family(), start=foreign_start)
    for name in ("tol", "t_max"):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                mp.SolveConfig(**{name: bad})


def _field_readers(op, tmp_path):
    # every entry of a sampled field into the package, by the name it refuses
    ones = np.ones((op.node_count, op.m, op.m), dtype=complex)
    return {
        "sigma": (mp.weighted_exponential_family, mp.prior_exponential_family,
                  lambda sigma: mp.weighted_rational_family(sigma=sigma),
                  lambda sigma: mp.weighted_rational_family(phi=ones, sigma=sigma)),
        "phi": (lambda phi: mp.weighted_rational_family(phi=phi),),
        "density": (lambda rho: mp.apply_L(op, rho), lambda rho: mp.entropy(rho, op.grid, "burg"),
                    lambda rho: fm.write_density_csv(tmp_path / "rho.csv", rho, op.grid),
                    lambda rho: pr.herglotz_interpolant(rho, op.grid, 0.5)),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["sigma", "phi", "density", "start"])
def test_a_non_finite_field_or_start_is_refused_by_name(array_problem, tmp_path, name, bad):
    op, _rho, moment = array_problem
    if name == "start":
        coords = np.full(op.d, bad)
        for solver in (mp.solve, mp.solve_tau):
            with pytest.raises(ValueError, match="^start has non-finite"):
                solver(op, moment, mp.exponential_family(),
                       start=mp.DualVariable(coords, np.zeros((op.n_left, op.n_right))))
        return
    field = np.ones((op.node_count, op.m, op.m), dtype=complex)
    field[3] = bad
    for read in _field_readers(op, tmp_path)[name]:
        with pytest.raises(ValueError, match="^%s has non-finite entries$" % name):
            read(field)


def test_a_field_of_non_square_matrices_is_refused(array_problem, tmp_path):
    # read_density_csv refuses such a field, so no reader may take it
    op = array_problem[0]
    for read in _field_readers(op, tmp_path)["density"]:
        with pytest.raises(ValueError, match=r"^density has shape \(160, 1, 2\)"):
            read(np.ones((op.node_count, 1, 2), dtype=complex))
    assert not (tmp_path / "rho.csv").exists()


def test_a_singular_phi_is_refused_at_its_node(array_problem):
    # phi = 0 at a node makes every density of the family vanish there, so
    # no run on it may end Converged
    op, _rho, moment = array_problem
    phi = np.ones((op.node_count, 1, 1), dtype=complex)
    phi[3] = 0.0
    with pytest.raises(PositivityError, match="phi not invertible at node 3") as err:
        mp.solve(op, moment, mp.weighted_rational_family(phi=phi))
    assert err.value.node == 3


def test_a_solve_never_applies_the_adjoint_to_the_kernels(array_problem, scalar_op, monkeypatch,
                                                          assert_certified):
    # the certificate check reads L*(y) from the operator's cached images
    op, _rho, moment = array_problem
    targets = ((scalar_op, np.array([[-2.0]], dtype=complex)), (op, _flipped_array_moment(op)))

    def refuse(*args):
        raise AssertionError("L* applied to the kernels")

    monkeypatch.setattr(operator_module, "_adjoint_of_stack", refuse)
    certified = []
    for name in ("rational", "exponential"):
        family = mp.family_from_name(name)
        assert mp.solve(op, moment, family).status == STATUS_CONVERGED
        for solver in (mp.solve, mp.solve_tau):
            for problem_op, target in targets:
                report = solver(problem_op, target, family)
                certified.append((problem_op, target, report))
    monkeypatch.undo()
    for problem_op, target, report in certified:
        assert_certified(problem_op, target, report.status, report.certificate.dual.matrix)


def test_relative_entropy_is_reported_for_the_sigma_families(array_problem):
    op, _rho, moment = array_problem
    sigma = pr.bump_mixture_density(op.grid, 1.0, bumps=((1.5, 0.4, 0.6),))
    for factory in (mp.weighted_exponential_family, mp.prior_exponential_family):
        report = mp.solve(op, moment, factory(sigma))
        assert report.status == STATUS_CONVERGED
        assert report.entropy_value == mp.entropy(report.density, op.grid, "relative",
                                                  sigma=sigma)


def test_pairing_is_the_dual_point_against_the_matched_moment(array_problem):
    # <lam, L(rho)> from range coordinates agrees with the matrix pairing
    op, _rho, moment = array_problem
    sigma = pr.bump_mixture_density(op.grid, 1.0, bumps=((1.5, 0.4, 0.6),))
    for name in mp.FAMILY_KINDS:
        report = mp.solve(op, moment, mp.family_from_name(name, sigma=sigma))
        assert report.status == STATUS_CONVERGED, name
        want = mp.inner(report.lambda_hat.matrix, mp.apply_L(op, report.density))
        assert report.pairing_value == pytest.approx(want, rel=1e-12, abs=0.0), name


def test_finalise_decomposes_the_density_once(array_problem, monkeypatch):
    # the Burg, von Neumann and relative entropies share one eigendecomposition
    # of the converged density, and log sigma is computed once per family: by
    # the prior family's factory, by the weighted family's first report
    op, _rho, _moment = array_problem
    sigma = pr.bump_mixture_density(op.grid, 1.0, bumps=((1.5, 0.4, 0.6),))
    families = [(mp.prior_exponential_family(sigma), 0), (mp.weighted_exponential_family(sigma), 1)]
    calls = []

    def counted(original):
        def wrapper(matrix):
            calls.append("density" if np.array_equal(matrix, ev.density)
                         else "sigma" if np.array_equal(matrix, sigma) else "other")
            return original(matrix)
        return wrapper

    for module in (calculus, operator_module):
        for name in ("eigh_hermitian", "eigvalsh_hermitian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    for family, sigma_logs in families:
        lam = mp.default_dual_start(op, family)
        ev = solver_module._evaluate(op, lam.coords, family)
        calls.clear()
        for _ in range(2):
            report = solver_module._finalise(op, family, STATUS_CONVERGED, lam.coords, ev, 0.0,
                                             [], "", fit_slope=False)
        assert calls.count("density") == 2 and calls.count("sigma") == sigma_logs, family.kind
        assert report.entropy_value == mp.entropy(ev.density, op.grid, "relative", sigma=sigma)


def test_time_horizon_is_honoured(array_problem):
    op, _rho, moment = array_problem
    config = mp.SolveConfig(t_max=1e-3)
    report = mp.solve(op, moment, mp.rational_family(), config)
    assert report.status == STATUS_INCONCLUSIVE
    assert report.message == "horizon t=0.001 reached before landing on R"
    assert report.trace[-1][0] <= 1e-3 + 1e-12


def test_fixed_interval_form_matches_the_flow_form(scalar_op, array_problem):
    report = mp.solve_tau(scalar_op, np.array([[2.0]], dtype=complex), mp.rational_family())
    assert report.status == STATUS_CONVERGED
    assert report.lambda_hat.matrix[0, 0].real == pytest.approx(0.5, abs=1e-9)
    # tau rises from 0 and lands exactly on 1, whatever round-off the step sum
    # carries; from the unscaled start, since the default start is exact on a
    # scalar target
    for value in (2.0, 3.0):
        for name in ("rational", "exponential"):
            target = np.array([[value]], dtype=complex)
            family = mp.family_from_name(name)
            start = mp.default_dual_start(scalar_op, family)
            flow = mp.solve(scalar_op, target, family, start=start)
            fixed = mp.solve_tau(scalar_op, target, family, start=start)
            assert fixed.status == STATUS_CONVERGED, (value, name)
            taus = [row[0] for row in fixed.trace]
            assert taus[0] == 0.0 and taus[-1] == 1.0
            assert all(a < b for a, b in zip(taus, taus[1:])), taus
            assert np.max(np.abs(fixed.density - flow.density)) <= 1e-9 * value

    op, _rho, moment = array_problem
    flow = mp.solve(op, moment, mp.rational_family())
    fixed = mp.solve_tau(op, moment, mp.rational_family())
    assert fixed.status == STATUS_CONVERGED
    rel = np.max(np.abs(fixed.density - flow.density)) / np.max(np.abs(flow.density))
    assert rel <= 1e-6


def test_fixed_interval_form_detects_infeasible_targets(scalar_op, assert_certified):
    moment = np.array([[-1.0]], dtype=complex)
    for name in ("rational", "exponential"):
        report = mp.solve_tau(scalar_op, moment, mp.family_from_name(name))
        assert_certified(scalar_op, moment, report.status, report.certificate.dual.matrix)
        assert report.trace[-1][0] < 0.9  # the proof is at hand well before tau = 1


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
    # from the unscaled start: the default start is exact here and has no decay to fit
    family = mp.rational_family()
    report = mp.solve(scalar_op, np.array([[2.0]], dtype=complex), family,
                      start=mp.default_dual_start(scalar_op, family))
    assert report.fitted_V_slope is not None
    assert -2.2 <= report.fitted_V_slope <= -1.8


def test_the_last_trace_row_is_the_landing_on_the_target(scalar_op):
    report = mp.solve(scalar_op, np.array([[2.0]], dtype=complex), mp.rational_family())
    # the flow's last step is a corrector step onto R itself, not a polish after it
    assert report.status == STATUS_CONVERGED
    assert report.V_final == report.trace[-1][1] <= 1e-13


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_negative_and_zero_scalar_targets_never_converge(scalar_op, assert_certified,
                                                          solver, name):
    # the magnitudes of the benchmark's infeasible targets; a flow that stops
    # at an absolute V would call the smallest of them matched
    for value in (-1e-7, -1e-3, -1e1, -1e5):
        moment = np.array([[value]], dtype=complex)
        report = solver(scalar_op, moment, mp.family_from_name(name))
        assert_certified(scalar_op, moment, report.status, report.certificate.dual.matrix)
    report = solver(scalar_op, np.zeros((1, 1), dtype=complex), mp.family_from_name(name))
    assert report.status != STATUS_CONVERGED


@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_a_small_positive_target_converges_with_a_relative_residual(scalar_op, name):
    target = np.array([[1e-7]], dtype=complex)
    report = mp.solve(scalar_op, target, mp.family_from_name(name))
    assert report.status == STATUS_CONVERGED
    resid = np.linalg.norm(mp.apply_L(scalar_op, report.density) - target) / 1e-7
    assert resid <= 1e-6


def test_a_far_off_point_raises_no_overflow_warning(array_problem, assert_certified):
    # runs from explicit starts far from the target's scale.  From dual norms
    # near 1e210, whose square overflows a double, exponential runs on an
    # attainable target and on its negative; from 1e100 lam_I the rational
    # flow on R = 0 follows the path out to the dual-norm bound 1e8 ||x_0||
    op, _rho, moment = array_problem
    lam_i = mp.default_dual_start(op, mp.rational_family()).coords
    start = mp.dual_from_coords(op, 1e210 * lam_i)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = mp.solve(op, moment, mp.exponential_family(), start=start)
        certified = mp.solve(op, -moment, mp.exponential_family(), start=start)
        unbounded = mp.solve(op, 0.0 * moment, mp.rational_family(),
                             start=mp.dual_from_coords(op, 1e100 * lam_i))
    assert report.status == STATUS_INCONCLUSIVE and report.certificate is None
    assert report.message.startswith("step collapsed below 1e-12 at t=0.000000: ")
    assert np.isfinite(report.trace[-1][3]) and report.trace[-1][3] > 1e200
    assert_certified(op, -moment, certified.status, certified.certificate.dual.matrix)
    assert np.isfinite(certified.certificate.margin) and certified.trace[-1][3] > 1e200
    t, _v, _min_eig, lam_norm = unbounded.trace[-1]
    bound = 1e8 * unbounded.trace[0][3]
    assert unbounded.status == STATUS_INCONCLUSIVE and len(unbounded.trace) > 2
    assert np.isfinite(lam_norm) and lam_norm > bound > 1e100
    assert unbounded.message == "dual norm %.3e exceeded %.3e at t=%.6f" % (lam_norm, bound, t)
    assert "inf" not in report.message + certified.message + unbounded.message


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


def _flipped_array_moment(op):
    # criterion 9's target: the demo density shifted down until no positive
    # density has its moments
    flipped = pr.two_bump_demo_density(op.grid)[:, 0, 0].real - 0.7
    return mp.apply_L(op, flipped.reshape(-1, 1, 1).astype(complex))


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_a_flipped_array_moment_is_certified_early(array_problem, assert_certified,
                                                   solver, name):
    # the run stops at its first separating point, long before the path
    # leaves every bounded set
    op = array_problem[0]
    moment = _flipped_array_moment(op)
    report = solver(op, moment, mp.family_from_name(name))
    assert_certified(op, moment, report.status, report.certificate.dual.matrix)
    assert report.certificate.step == len(report.trace) - 1 <= 20


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
def test_a_candidate_with_an_indefinite_adjoint_is_refused(array_problem, monkeypatch, solver):
    # an evaluation that reports L*(x) >= 0 where it is not sets delta = 0,
    # so y = x has a negative margin but an indefinite L*(y): the eigenvalue
    # check refuses every such candidate and the run never ends certified
    op = array_problem[0]
    evaluate, certificate = solver_module._evaluate, solver_module._certificate
    refused = []

    def lying(*args, **kwargs):
        ev = evaluate(*args, **kwargs)
        return ev._replace(min_eig=abs(ev.min_eig))

    def counted(*args):
        cert = certificate(*args)
        refused.append(cert is None)
        return cert

    monkeypatch.setattr(solver_module, "_evaluate", lying)
    monkeypatch.setattr(solver_module, "_certificate", counted)
    # from the unscaled start, whose path meets only indefinite L*(x)
    family = mp.exponential_family()
    report = solver(op, _flipped_array_moment(op), family,
                    start=mp.default_dual_start(op, family))
    assert report.status == STATUS_INCONCLUSIVE and report.certificate is None
    assert refused and all(refused)


def test_a_point_mass_target_is_never_certified(array_problem, monkeypatch):
    # a point mass at a node is the moment of a nonnegative density, so
    # <y, R> >= 0 whenever L*(y) >= 0; on the exponential path the margin
    # sinks to rounding, near -1e-16 ||R|| ||y||, and only the relative
    # guard keeps it from certifying
    op = array_problem[0]
    mass = np.zeros((op.node_count, 1, 1), dtype=complex)
    mass[80] = 1.0 / op.grid.weights[80]
    moment = mp.apply_L(op, mass)
    for solver in (mp.solve, mp.solve_tau):
        report = solver(op, moment, mp.exponential_family())
        assert report.status == STATUS_INCONCLUSIVE and report.certificate is None
    monkeypatch.setattr(solver_module, "_CERTIFICATE_RTOL", 0.0)
    for solver in (mp.solve, mp.solve_tau):
        report = solver(op, moment, mp.exponential_family())
        assert report.status == "DivergedCertified"
        assert -1e-15 < report.certificate.margin < 0.0


def test_the_identity_dual_is_computed_once_per_operator(monkeypatch):
    # lam_I and the eigenvalues of L*(lam_I) are kept with the operator: its
    # solves on both clocks and the rational default start all read them
    calls = []
    compute = operator_module._solve_identity_dual

    def counted(op):
        calls.append(op)
        return compute(op)

    monkeypatch.setattr(operator_module, "_solve_identity_dual", counted)
    op = pr.nonequispaced_array_problem()
    moment = mp.apply_L(op, pr.two_bump_demo_density(op.grid))
    for name in ("exponential", "rational"):
        for solver in (mp.solve, mp.solve_tau):
            assert solver(op, moment, mp.family_from_name(name)).status == STATUS_CONVERGED
    start = mp.default_dual_start(op, mp.rational_family())
    assert calls == [op]
    assert np.array_equal(start.coords, op.identity_dual[0])
    assert not op.identity_dual[0].flags.writeable
    # the partial trace has no strictly positive L*(lam_I), and that is kept too
    op = pr.partial_trace_problem(2, 2)
    moment = np.diag([0.5, -0.5]).astype(complex)
    for solver in (mp.solve, mp.solve_tau):
        assert solver(op, moment, mp.exponential_family()).status == "DivergedCertified"
    for _ in range(2):
        with pytest.raises(DualStartNotFound):
            mp.default_dual_start(op, mp.rational_family())
    assert calls[1:] == [op]


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_a_used_operator_solves_as_a_fresh_one(solver, name):
    # what an operator keeps between solves moves no point of a path
    used = pr.nonequispaced_array_problem()
    moment = mp.apply_L(used, pr.two_bump_demo_density(used.grid))
    family = mp.family_from_name(name)
    for _ in range(2):
        again = solver(used, moment, family)
    fresh = solver(pr.nonequispaced_array_problem(), moment, family)
    assert again.status == fresh.status == STATUS_CONVERGED
    assert np.array(again.trace).tobytes() == np.array(fresh.trace).tobytes()
    assert again.lambda_hat.coords.tobytes() == fresh.lambda_hat.coords.tobytes()
    assert again.density.tobytes() == fresh.density.tobytes()


def test_a_partial_trace_target_is_certified_without_an_identity_dual(assert_certified):
    # L*(lam) is rank-deficient at every node of the partial trace, so no
    # strictly positive L*(lam_I) exists; an accepted point whose own L*(x)
    # is positive semidefinite is tested as it stands
    op = pr.partial_trace_problem(2, 2)
    moment = np.diag([0.5, -0.5]).astype(complex)
    for solver in (mp.solve, mp.solve_tau):
        report = solver(op, moment, mp.exponential_family())
        assert_certified(op, moment, report.status, report.certificate.dual.matrix)
        assert np.array_equal(report.certificate.dual.coords, report.lambda_hat.coords)
    # on these infeasible targets the path meets only indefinite L*(x), which
    # cannot serve: a run either stops short or its certificate is checked
    for moment in (np.diag([1.0, -1e-3]), np.array([[0.5, 0.6j], [-0.6j, 0.5]])):
        moment = moment.astype(complex)
        for solver in (mp.solve, mp.solve_tau):
            report = solver(op, moment, mp.exponential_family())
            if report.certificate is None:
                assert report.status == STATUS_INCONCLUSIVE
            else:
                assert_certified(op, moment, report.status, report.certificate.dual.matrix)


@pytest.mark.parametrize("example", sorted(fm.EXAMPLES))
def test_no_attainable_target_is_ever_certified(example):
    # every family on every bundled problem, both forms: a separating point
    # for an attainable target would contradict <y, L(rho)> >= 0
    op, _kernels, moment, rho_true = fm.example_problem(example)
    sigma = rho_true + np.eye(op.m)  # a positive reference other than the truth
    config = mp.SolveConfig(torus_override=True)
    for name in mp.FAMILY_KINDS:
        family = mp.family_from_name(name, sigma=sigma)
        for solver in (mp.solve, mp.solve_tau):
            try:
                report = solver(op, moment, family, config)
            except mp.DualStartNotFound:
                # L*(lam) is rank-deficient at every node of the partial trace
                assert example == "bell" and family.is_inverse_kind
                continue
            assert report.certificate is None, (name, solver.__name__)
            assert report.status == STATUS_CONVERGED, (name, solver.__name__)


def test_stalled_runs_on_attainable_targets_are_inconclusive(array_problem, scalar_op):
    # targets far from the unscaled start's scale.  The scaled start meets
    # the array and scalar ones; the partial-trace operator has no strictly
    # positive L*(lam_I), so its exponential start is not scaled, and that
    # run covers eight orders of magnitude.  Without a certificate the
    # verdict is never a divergence
    op, _rho, moment = array_problem
    bell = fm.example_problem("bell")
    cases = [(mp.solve_tau, op, 1e8 * moment, "rational"),
             (mp.solve_tau, op, 1e8 * moment, "exponential"),
             (mp.solve, op, 1e-8 * moment, "rational"),
             (mp.solve, scalar_op, [[1e-12]], "rational"),
             (mp.solve_tau, scalar_op, [[1e-7]], "rational"),
             (mp.solve_tau, scalar_op, [[1e-7]], "exponential"),
             (mp.solve_tau, bell[0], 1e8 * bell[2], "exponential")]
    for solver, problem_op, target, name in cases:
        report = solver(problem_op, np.asarray(target, dtype=complex), mp.family_from_name(name))
        assert report.status in (STATUS_CONVERGED, STATUS_INCONCLUSIVE), (solver.__name__, name)
        assert report.certificate is None


# ---------------------------------------------------------------------------
# the default start is scaled to the target

_SIZES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
_EXTREME_SIZES = (1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300)


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("example, name", [
    ("nonequispaced-array", "rational"), ("nonequispaced-array", "exponential"),
    ("scalar-demo", "rational"), ("scalar-demo", "exponential"), ("statecov", "rational")])
def test_verdicts_and_step_counts_do_not_depend_on_the_size_of_the_target(example, name,
                                                                          solver):
    # h(lam / c) = c h(lam) for the inverse families, and h(lam - ln(c) lam_I)
    # = c h(lam) for the exponential ones where L*(lam_I) = I, so a run on c R
    # follows the path of the run on R moved along that symmetry; a run reads
    # its sizes in R's unit, so the exponential runs keep that path over the
    # whole double range, while the inverse families' Jacobian, which scales
    # as c^2, leaves it
    op, _kernels, moment, _rho = fm.example_problem(example)
    family = mp.family_from_name(name)
    sizes = _SIZES + (_EXTREME_SIZES if name == "exponential" else ())
    runs = [solver(op, size * moment, family) for size in sizes]
    assert [report.status for report in runs] == [STATUS_CONVERGED] * len(sizes)
    assert len({len(report.trace) for report in runs}) == 1, [len(r.trace) for r in runs]
    if example == "scalar-demo":
        # every scalar target is a multiple of the start's moment: both clocks land at once
        assert len(runs[0].trace) == 1


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_infeasible_targets_are_certified_at_every_size(array_problem, scalar_op,
                                                       assert_certified, solver, name):
    op, _rho, moment = array_problem
    family = mp.family_from_name(name)
    for problem_op, target in ((op, _flipped_array_moment(op)), (op, -moment),
                               (scalar_op, np.array([[-2.0]], dtype=complex))):
        for size in _SIZES:
            report = solver(problem_op, size * target, family)
            assert_certified(problem_op, size * target, report.status,
                             report.certificate.dual.matrix)


@pytest.mark.parametrize("size", [1.0, 1e-60, 1e-105, 1e100])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_verdicts_do_not_depend_on_the_kernel_size(assert_certified, size, name):
    # R = 2 is the moment of the density 2 / size^2, whose rational dual is
    # 1/2 at every size; the least-squares identity dual and the Jacobians
    # stay in range where size^4 would under- or overflow
    family = mp.family_from_name(name)
    op, unit_op = _scalar_kernel_op(size), _scalar_kernel_op()
    target = np.array([[2.0]], dtype=complex)
    for solver in (mp.solve, mp.solve_tau):
        base, report = solver(unit_op, target, family), solver(op, target, family)
        assert report.status == base.status == STATUS_CONVERGED
        assert len(report.trace) == len(base.trace)
        resid = abs(mp.apply_L(op, report.density)[0, 0] - 2.0) / 2.0
        assert resid <= 1e-9
        # lam_I certifies the negative targets at the start, also at 1e100,
        # where the start itself cannot be evaluated (see below), and where
        # ||R||^2 or <y, R> underflows; <y, R> is checked against -2, a
        # positive multiple of each
        for value in (-2.0, -1e-200, -1e-300):
            negative = solver(op, np.array([[value]], dtype=complex), family)
            assert_certified(op, -target, negative.status, negative.certificate.dual.matrix)
            assert negative.certificate.step == 0


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
def test_a_start_whose_evaluation_fails_ends_inconclusive(array_problem, solver):
    # kernels of 1e100: no positive multiple of the start's moment is 0, so
    # the start is not scaled, and its Jacobian's entries near 1e400
    # overflow; <lam_I, 0> = 0, so there is no certificate either
    op = _scalar_kernel_op(1e100)
    for name in ("rational", "exponential"):
        report = solver(op, np.zeros((1, 1), dtype=complex), mp.family_from_name(name))
        assert report.status == STATUS_INCONCLUSIVE and report.certificate is None
        assert report.message == "start evaluation failed: non-finite values in evaluation"
        assert report.trace == [] and np.isnan(report.V_final)
    # an explicit start outside the rational family's domain
    op, _rho, moment = array_problem
    family = mp.rational_family()
    outside = mp.dual_from_coords(op, -mp.default_dual_start(op, family).coords)
    report = solver(op, moment, family, start=outside)
    assert report.status == STATUS_INCONCLUSIVE and report.certificate is None
    assert report.message.startswith("start evaluation failed: adjoint field near-singular at node ")


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
def test_a_certificate_at_lam_i_stands_when_the_start_fails(assert_certified, solver):
    # kernels of 1e100 and the target -2: the start's Jacobian overflows, but
    # <lam_I, R> < 0 with L*(lam_I) = I, and lam_I is checked before the start
    op = _scalar_kernel_op(1e100)
    target = np.array([[-2.0]], dtype=complex)
    for name in ("rational", "exponential"):
        report = solver(op, target, mp.family_from_name(name))
        assert_certified(op, target, report.status, report.certificate.dual.matrix)
        assert report.certificate.step == 0
        assert report.trace == [] and np.isnan(report.V_final)


def test_the_zero_dual_point_is_no_certificate(scalar_op):
    # y = x + delta lam_I cancels to 0 where x is a negative multiple of lam_I
    # and L*(lam_I) is constant; 0 separates nothing, whatever the screen's
    # rounding, and its margin is not 0 / 0
    lam_i = scalar_op.identity_dual[0]
    r_unit = -lam_i / np.linalg.norm(lam_i)
    assert solver_module._certificate(scalar_op, np.zeros(scalar_op.d), r_unit, 0) is None
    assert solver_module._certificate(scalar_op, lam_i, r_unit, 0).margin == -1.0


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
def test_a_start_on_the_target_lands_at_once(array_problem, monkeypatch, solver):
    # a start within the landing threshold tol ||R||^2 is the end of its path
    # on both clocks: no step is tried
    op, _rho, moment = array_problem
    family = mp.exponential_family()
    solution = solver(op, moment, family).lambda_hat

    def never(*args, **kwargs):
        raise AssertionError("a step was tried")

    monkeypatch.setattr(solver_module, "_solve_flow_system", never)
    report = solver(op, moment, family, start=solution)
    assert report.status == STATUS_CONVERGED and len(report.trace) == 1
    assert report.V_final <= 1e-10 * np.sum(np.abs(moment) ** 2)


# ---------------------------------------------------------------------------
# the exponential start is scaled along lam_I where L*(lam_I) is not the identity

_ALL_SIZES = (1e-12,) + _SIZES + (1e12,)


@pytest.fixture(scope="module")
def statecov():
    op, _kernels, moment, rho_true = fm.example_problem("statecov")
    return op, moment, rho_true


@pytest.mark.parametrize("name, size, solver", [
    (name, size, solver)
    for name in ("exponential", "prior_exponential", "weighted_exponential")
    for size in _ALL_SIZES for solver in (mp.solve, mp.solve_tau)] + [
    (name, size, mp.solve_tau) for name in ("exponential", "prior_exponential")
    for size in (1e-40, 1e-30, 1e-20, 1e20, 1e30, 1e40)])
def test_exponential_families_on_statecov_converge_at_every_size(statecov, solver, name,
                                                                 size):
    # L*(lam_I) has eigenvalues 0.58 to 1.38 here, so the start
    # lam_0 - ln(c) lam_I matches c R only nearly; the run covers the rest,
    # down to s = e^{-t} far below 1e-6 at the far sizes
    op, moment, rho_true = statecov
    family = mp.family_from_name(name, sigma=(rho_true + np.eye(op.m)) / 2)
    report = solver(op, size * moment, family)
    assert report.status == STATUS_CONVERGED, report.message


@pytest.mark.parametrize("name, solver, most_steps", [
    ("rational", mp.solve, 16), ("rational", mp.solve_tau, 9),
    ("weighted_rational", mp.solve, 12), ("weighted_rational", mp.solve_tau, 6)])
def test_inverse_families_on_statecov_step_by_the_newton_decrement(statecov, name, solver,
                                                                   most_steps):
    # the Newton decrement is invariant under R -> c R for the inverse shape,
    # so every size takes the same steps; the weighted rational family keeps
    # the rule at m = 2, where its J is not symmetric
    op, moment, rho_true = statecov
    family = mp.family_from_name(name, sigma=(rho_true + np.eye(op.m)) / 2)
    steps = set()
    for size in (1e-20, 1.0, 1e20):
        report = solver(op, size * moment, family)
        assert report.status == STATUS_CONVERGED, report.message
        steps.add(len(report.trace) - 1)
    assert len(steps) == 1 and steps.pop() <= most_steps


def test_the_exponential_interval_steps_follow_the_exponent_spread(statecov):
    # moving s by ds moves the exponent by ds L*(lam'), lam' the path's
    # tangent, and solve_tau steps it by theta where that outruns the doubled
    # step; the steps 0.1, 0.2, 0.4 ... alone take 8 on the array and 13 on
    # statecov
    family = mp.exponential_family()
    op, _kernels, moment, _rho = fm.example_problem("nonequispaced-array")
    for size in _SIZES:
        report = mp.solve_tau(op, size * moment, family)
        assert report.status == STATUS_CONVERGED, report.message
        assert len(report.trace) - 1 <= 3, (size, len(report.trace) - 1)
    op, moment, _rho = statecov
    report = mp.solve_tau(op, moment, family)
    assert report.status == STATUS_CONVERGED, report.message
    assert len(report.trace) - 1 <= 6, len(report.trace) - 1


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("name", ["rational", "exponential"])
def test_an_infeasible_statecov_target_is_certified_at_every_size(statecov, assert_certified,
                                                                  solver, name):
    # R - L(I) is the moment of the indefinite rho_true - I; a certificate
    # proves that no positive density has it
    op, moment, _rho = statecov
    identity = np.broadcast_to(np.eye(op.m, dtype=complex), (op.node_count, op.m, op.m))
    target = moment - mp.apply_L(op, identity)
    for size in _ALL_SIZES:
        report = solver(op, size * target, mp.family_from_name(name))
        assert_certified(op, size * target, report.status, report.certificate.dual.matrix)


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("size", [
    pytest.param(1e-12, marks=pytest.mark.xfail(
        strict=True, reason="the path from the scaled start meets a non-finite evaluation")),
    *_ALL_SIZES[1:]])
def test_a_wide_kernel_operator_converges_at_every_size(solver, size):
    # kernels a(theta) [1, cos 3 theta] with a from 1/100 to 100 give L*(lam_I)
    # eigenvalues from 4e-5 to 1.4, so the scaled start can be far from c R
    grid = mp.build_grid("interval1d", (0.0, 1.0), panels=8, order=4)
    theta = grid.nodes[:, 0]
    left = 100.0 ** (2.0 * theta - 1.0) * np.stack([np.ones_like(theta), np.cos(3.0 * theta)])
    left = left.T[:, :, None].astype(complex)
    op = mp.build_operator(grid, mp.kernel_samples(left, np.conj(np.swapaxes(left, 1, 2))))
    moment = mp.apply_L(op, np.full((grid.node_count, 1, 1), 2.0, dtype=complex))
    report = solver(op, size * moment, mp.exponential_family())
    assert report.status == STATUS_CONVERGED, report.message


@pytest.mark.parametrize("solver", [mp.solve, mp.solve_tau])
@pytest.mark.parametrize("size", [1e-8, 1e8])
def test_the_partial_trace_operator_converges_far_from_unit_size(solver, size):
    # L*(lam_I) is not strictly positive here, so the exponential start is
    # not scaled to c R, and the path from it spans eight orders of magnitude
    op, _kernels, moment, _rho = fm.example_problem("bell")
    report = solver(op, size * moment, mp.exponential_family())
    assert report.status == STATUS_CONVERGED, report.message
