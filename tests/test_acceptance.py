"""Acceptance suite: twelve end-to-end criteria with pinned tolerances.

Each test appends one "[criterion N] PASS" line with the measured margins;
the conftest terminal hook prints the collected lines after the run.
"""
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg as sla

import momentropy as mp
from conftest import src_env
from momentropy import formats as fm
from momentropy import problems as pr


def _run_cli(argv, env=None, cwd=None):
    return subprocess.run([sys.executable, "-m", "momentropy", *argv],
                          capture_output=True, text=True, env=src_env(env), cwd=cwd,
                          timeout=300)


def _random_hermitian(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * 0.5 * (a + a.conj().T)


def test_criterion_01_matrix_calculus_suite(acceptance_log):
    """Frechet exp/log vs central differences; round trips; trace identity."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    eps = 1e-5
    worst_fd_exp = worst_fd_log = worst_round = worst_trace = 0.0
    for _ in range(50):
        h = _random_hermitian(rng, 4, scale=0.6)
        delta = _random_hermitian(rng, 4)
        fd = (sla.expm(h + eps * delta) - sla.expm(h - eps * delta)) / (2 * eps)
        rel = np.linalg.norm(mp.frechet_exp(h, delta) - fd) / np.linalg.norm(fd)
        worst_fd_exp = max(worst_fd_exp, rel)

        c = mp.matrix_exp(h)  # positive definite base for the log direction
        fd_log = (sla.logm(c + eps * delta) - sla.logm(c - eps * delta)) / (2 * eps)
        rel_log = np.linalg.norm(mp.frechet_log(c, delta) - fd_log) \
            / max(1.0, np.linalg.norm(fd_log))
        worst_fd_log = max(worst_fd_log, rel_log)

        back = mp.scrambled_divide(c, mp.scrambled_multiply(c, delta))
        worst_round = max(worst_round, float(
            np.linalg.norm(back - delta) / max(1.0, np.linalg.norm(delta))))

        lhs = np.trace(c @ mp.scrambled_divide(c, delta)).real
        rhs = np.trace(delta).real
        worst_trace = max(worst_trace, abs(lhs - rhs) / max(1.0, abs(rhs)))
    elapsed = time.perf_counter() - t0

    assert worst_fd_exp <= 1e-6
    assert worst_fd_log <= 1e-6
    assert worst_round <= 1e-10
    assert worst_trace <= 1e-10
    assert elapsed < 5.0
    acceptance_log(
        "[criterion 1] PASS — 50 pairs: FD exp %.1e, FD log %.1e (tol 1e-6); "
        "round trip %.1e, trace identity %.1e (tol 1e-10); %.2fs (< 5s)"
        % (worst_fd_exp, worst_fd_log, worst_round, worst_trace, elapsed))


def test_criterion_02_composite_state_reduction(acceptance_log):
    """The maximally entangled two-qubit state reduces to I/2 exactly."""
    op = pr.partial_trace_problem(2, 2)
    rho = np.tile(pr.bell_state()[None], (op.node_count, 1, 1))
    moment = mp.apply_L(op, rho)
    err = float(np.max(np.abs(moment - 0.5 * np.eye(2))))
    assert err <= 1e-14
    acceptance_log("[criterion 2] PASS — reduction error %.1e (tol 1e-14)" % err)


def test_criterion_03_duality_pairing_identity(array_problem, acceptance_log):
    """<lam, L((L*lam)^ilde)> equals m * measure(S) on the dual-feasible set."""
    op, _rho, _R = array_problem
    family = mp.rational_family()
    start = mp.default_dual_start(op, family)
    rng = np.random.default_rng(303)
    target = 1.0 * op.grid.measure  # m = 1
    worst = 0.0
    for _ in range(20):
        step = rng.standard_normal(op.d)
        s = 0.5
        lam = None
        for _ in range(60):
            cand = mp.dual_from_coords(op, start.coords + s * step)
            if mp.is_dual_feasible(op, cand)[0]:
                lam = cand
                break
            s *= 0.5
        assert lam is not None
        density = mp.family_density(op, lam, family)
        pairing = mp.inner(lam.matrix, mp.apply_L(op, density))
        worst = max(worst, abs(pairing - target) / target)
    assert worst <= 1e-10
    acceptance_log(
        "[criterion 3] PASS — 20 feasible duals: max relative pairing error "
        "%.1e (tol 1e-10)" % worst)


def test_criterion_04_jacobian_symmetry_and_derivative(array_problem, acceptance_log):
    """Flow Jacobians are symmetric and match finite differences."""
    op, _rho, _R = array_problem
    eps = 1e-6
    details = []
    for name in ("rational", "exponential"):
        family = mp.family_from_name(name)
        lam = mp.default_dual_start(op, family)
        jac = mp.flow_jacobian(op, lam, family)
        sym_defect = np.linalg.norm(jac - jac.T) / np.linalg.norm(jac)
        assert sym_defect <= 1e-10, name

        fd = np.empty_like(jac)
        for i in range(op.d):
            step = np.zeros(op.d)
            step[i] = eps
            hp = mp.h_map(op, mp.dual_from_coords(op, lam.coords + step), family)
            hm = mp.h_map(op, mp.dual_from_coords(op, lam.coords - step), family)
            fd[:, i] = op.basis.coords_of((hp - hm) / (2 * eps))
        rel = np.linalg.norm(jac - fd) / np.linalg.norm(fd)
        assert rel <= 1e-6, name
        details.append("%s sym %.1e fd %.1e" % (name, sym_defect, rel))
    acceptance_log(
        "[criterion 4] PASS — %s (tol 1e-10 / 1e-6)" % "; ".join(details))


def test_criterion_05_array_recovery_both_families(array_problem, array_solves,
                                                   acceptance_log):
    """Both families recover the two-bump density from its array moments."""
    op, _rho_true, moment = array_problem
    details = []
    for name in ("rational", "exponential"):
        report, seconds = array_solves[name]
        assert report.status == "Converged", name
        assert report.V_final <= 1e-10, name
        resid = np.linalg.norm(moment - mp.apply_L(op, report.density)) \
            / np.linalg.norm(moment)
        assert resid <= 1e-6, name
        assert seconds < 10.0, name
        assert report.fitted_V_slope is not None
        assert -2.2 <= report.fitted_V_slope <= -1.8, name
        details.append("%s V %.1e resid %.1e slope %.3f %.2fs"
                       % (name, report.V_final, resid, report.fitted_V_slope, seconds))
    acceptance_log("[criterion 5] PASS — %s (V tol 1e-10, resid tol 1e-6, "
                   "slope in [-2.2,-1.8], < 10s each)" % "; ".join(details))


def test_criterion_06_start_independence(array_problem, array_solves, acceptance_log):
    """Distinct valid starting points produce the same recovered density."""
    op, _rho, moment = array_problem
    worst = 0.0
    for name, second_coords in (
        ("rational", lambda s: s.coords * 1.3),
        ("exponential", lambda s: s.coords + 0.1),
    ):
        family = mp.family_from_name(name)
        base, _seconds = array_solves[name]
        start = mp.default_dual_start(op, family)
        other = mp.dual_from_coords(op, second_coords(start))
        if family.is_inverse_kind:
            assert mp.is_dual_feasible(op, other)[0]
        alt = mp.solve(op, moment, family, start=other)
        assert alt.status == "Converged", name
        rel = float(np.max(np.abs(alt.density - base.density))
                    / np.max(np.abs(base.density)))
        worst = max(worst, rel)
    assert worst <= 1e-6
    acceptance_log(
        "[criterion 6] PASS — max sup-relative density gap %.1e (tol 1e-6)" % worst)


def test_criterion_07_entropy_minimality(array_problem, array_solves, acceptance_log):
    """Feasible perturbations of the solution never lower its objective."""
    op, _rho, _R = array_problem
    # real matrix of the density -> range-coordinates map (m = 1): its null
    # space is exactly the set of perturbations invisible to the constraints
    a = op.adjoint_basis[:, :, 0, 0].real * op.grid.weights[None, :]
    pinv = np.linalg.pinv(a)
    rng = np.random.default_rng(707)
    worst = 0.0
    for name, kind in (("rational", "burg"), ("exponential", "vonneumann")):
        report, _seconds = array_solves[name]
        rho_hat = report.density[:, 0, 0].real
        base = mp.entropy(report.density, op.grid, kind)
        for _ in range(20):
            y = rng.standard_normal(op.node_count)
            mu = y - pinv @ (a @ y)
            image = mp.apply_L(op, mu.reshape(-1, 1, 1).astype(complex))
            assert np.linalg.norm(image) <= 1e-10
            scale = 0.3 * float(np.min(rho_hat)) / float(np.max(np.abs(mu)))
            pert = (rho_hat + scale * mu).reshape(-1, 1, 1).astype(complex)
            diff = mp.entropy(pert, op.grid, kind) - base
            worst = min(worst, diff)
    assert worst >= -1e-9
    acceptance_log(
        "[criterion 7] PASS — 40 null-space perturbations, smallest objective "
        "change %+.1e (allowed >= -1e-9)" % worst)


def test_criterion_08_weighted_completeness(array_problem, acceptance_log):
    """With the truth itself as reference, the weighted family is exact."""
    op, rho_true, moment = array_problem
    family = mp.weighted_rational_family(sigma=rho_true)
    report = mp.solve(op, moment, family)
    assert report.status == "Converged"
    rel = float(np.max(np.abs(report.density - rho_true)) / np.max(np.abs(rho_true)))
    assert rel <= 1e-6
    acceptance_log(
        "[criterion 8] PASS — sup-relative reproduction error %.1e (tol 1e-6)" % rel)


def test_criterion_09_infeasible_moments_exit_code(array_problem, tmp_path,
                                                   acceptance_log):
    """An indefinite necessary matrix makes both families diverge, exit 2."""
    op, _rho, _R = array_problem
    flipped = pr.two_bump_demo_density(op.grid)[:, 0, 0].real - 0.7
    bad_moment = mp.apply_L(op, flipped.reshape(-1, 1, 1).astype(complex))
    pos = np.asarray(pr.DEFAULT_ARRAY_POSITIONS)
    values = {0.0: bad_moment[0, 0], pos[1]: bad_moment[1, 0],
              pos[2] - pos[1]: bad_moment[2, 1], pos[2]: bad_moment[2, 0]}
    _mat, ok = pr.array_necessary_matrix(values)
    assert not ok

    obj = fm.problem_to_obj(op.grid, {
        "mode": "builtin", "name": "nonequispaced-array",
        "positions": [float(p) for p in pos], "wavenumber": 1.0,
    }, bad_moment)
    path = tmp_path / "problem.json"
    fm.write_problem(path, obj)
    details = []
    for family in ("rational", "exponential"):
        t0 = time.perf_counter()
        r = _run_cli(["solve", "--problem", str(path), "--family", family,
                      "--report", str(tmp_path / ("rep_%s.json" % family))])
        elapsed = time.perf_counter() - t0
        assert r.returncode == 2, (family, r.stderr)
        report = json.loads((tmp_path / ("rep_%s.json" % family)).read_text())
        assert report["status"].startswith("Diverged"), family
        assert elapsed < 60.0, family
        details.append("%s %s exit 2 in %.1fs" % (family, report["status"], elapsed))
    acceptance_log("[criterion 9] PASS — %s" % "; ".join(details))


def test_criterion_10_dimension_dichotomy(acceptance_log):
    """Inverse families refuse 2-D supports; exponential converges there."""
    op = pr.grid2d_problem(2, mp.build_grid(
        "rectangle2d", ((0.0, np.pi), (0.0, np.pi)), panels=12, order=4))
    rho_true = pr.bump2d_density(op.grid, 0.4, bumps=(
        (1.1, 0.9, 0.5, 0.6, 1.3), (2.3, 2.2, 0.7, 0.5, 0.9)))
    moment = mp.apply_L(op, rho_true)
    with pytest.raises(ValueError):
        mp.solve(op, moment, mp.rational_family())
    report = mp.solve(op, moment, mp.exponential_family())
    assert report.status == "Converged"
    assert report.V_final <= 1e-10
    acceptance_log(
        "[criterion 10] PASS — inverse family rejected without override; "
        "exponential V %.1e (tol 1e-10) on %d nodes"
        % (report.V_final, op.node_count))


def test_criterion_11_state_covariance_pipeline(acceptance_log):
    """Forward covariance validates, solves, and rebuilds its boundary density."""
    model = pr.random_state_model(n=4, m=2, seed=0)
    grid = mp.build_grid("interval1d", (-np.pi, np.pi), panels=512, order=6)
    op = pr.state_covariance_problem(model, grid)
    rho_true = pr.random_smooth_matrix_density(grid, 2, seed=1)
    moment = mp.apply_L(op, rho_true)

    check = pr.validate_state_covariance(moment, model)
    assert check.rank_ok
    disp_rel = check.displacement_residual / np.linalg.norm(moment)
    assert check.displacement_residual <= 1e-8 * np.linalg.norm(moment)

    lam_eye = mp.dual_from_coords(op, op.basis.coords_of(np.eye(4, dtype=complex)))
    _samples, fb_resid = pr.feedback_spectral_factor(model, grid, lam_eye.matrix)
    assert fb_resid <= 1e-8

    report = mp.solve(op, moment, mp.exponential_family())
    assert report.status == "Converged"

    rng = np.random.default_rng(5)
    zs = (0.99 * np.sqrt(rng.uniform(0.0, 1.0, 100))
          * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 100)))
    f = pr.herglotz_interpolant(report.density, grid, zs)
    herm = 0.5 * (f + np.conj(f).swapaxes(1, 2))
    min_eig = float(np.min(np.linalg.eigvalsh(herm)))
    assert min_eig >= -1e-10

    # boundary recovery: the smoothed real part near the circle against the
    # recovered density evaluated in closed form at fresh angles
    thetas = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    fb = pr.herglotz_interpolant(report.density, grid, 0.99 * np.exp(1j * thetas))
    herm_b = 0.5 * (fb + np.conj(fb).swapaxes(1, 2))
    g = pr.input_to_state_transfer(model, np.exp(1j * thetas)) / np.sqrt(2 * np.pi)
    exponent = np.conj(g).swapaxes(1, 2) @ report.lambda_hat.matrix[None] @ g
    exponent = 0.5 * (exponent + np.conj(exponent).swapaxes(1, 2))
    w, u = np.linalg.eigh(exponent)
    rho_closed = (u * (np.exp(-w) / np.e)[:, None, :]) @ np.conj(u).swapaxes(1, 2)
    rel = float(np.max(np.linalg.norm(herm_b - rho_closed, axis=(1, 2))
                       / np.linalg.norm(rho_closed, axis=(1, 2))))
    assert rel <= 0.05
    acceptance_log(
        "[criterion 11] PASS — rank ok, displacement %.1e rel (tol 1e-8), "
        "factor residual %.1e (tol 1e-8), disk floor %.1e (>= -1e-10), "
        "boundary error %.3f (tol 0.05)" % (disp_rel, fb_resid, min_eig, rel))


def test_criterion_12_cli_byte_determinism(tmp_path, acceptance_log):
    """Identical inputs give byte-identical outputs across thread settings."""
    artifacts = ("problem.json", "report.json", "density.csv", "trace.csv")
    runs = []
    for label, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        d = tmp_path / label
        r = _run_cli(["example", "nonequispaced-array", str(d)], env=env)
        assert r.returncode == 0, r.stderr
        r = _run_cli(["solve", "--problem", str(d / "problem.json"),
                      "--family", "rational",
                      "--report", str(d / "report.json"),
                      "--density-out", str(d / "density.csv"),
                      "--trace-out", str(d / "trace.csv")], env=env)
        assert r.returncode == 0, r.stderr
        runs.append({name: (d / name).read_bytes() for name in artifacts})
    for name in artifacts:
        assert runs[0][name] == runs[1][name] == runs[2][name], name
    acceptance_log(
        "[criterion 12] PASS — %d artifacts byte-identical over 3 runs "
        "(thread counts 1, 4, 1)" % len(artifacts))
