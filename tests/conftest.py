"""Shared fixtures: the sensor-array recovery setup used across test modules.

The acceptance tests append one summary line per criterion; the terminal
hook below prints them after the run so the pass/fail record is visible in
plain ``pytest -v`` output.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import momentropy as mp
from momentropy import problems as pr

_ACCEPTANCE_LINES: list[str] = []
_SRC = str(Path(__file__).resolve().parent.parent / "src")


def src_env(env=None):
    """A copy of ``env`` (default: this process's environment) with the
    package's source directory first on PYTHONPATH, for test subprocesses,
    which turn a RuntimeWarning into an error as the suite does."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def array_problem():
    """Three-sensor array operator with the documented two-bump truth density."""
    op = pr.nonequispaced_array_problem()
    rho_true = pr.two_bump_demo_density(op.grid)
    moment = mp.apply_L(op, rho_true)
    return op, rho_true, moment


@pytest.fixture(scope="session")
def array_solves(array_problem):
    """Timed recovery runs on the array problem, one per density family."""
    op, _rho_true, moment = array_problem
    out = {}
    for name in ("rational", "exponential"):
        family = mp.family_from_name(name)
        start = mp.default_dual_start(op, family)
        t0 = time.perf_counter()
        report = mp.solve(op, moment, family, start=start)
        out[name] = (report, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def assert_certified():
    """Independent check of a separating certificate: the dual matrix y has
    L*(y) >= 0 at every node (scipy's eigvalsh, up to 1e-12 of the largest
    eigenvalue) and <y, R> < 0, both computed on matrices."""
    def check(op, moment, status, dual_matrix):
        assert status == "DivergedCertified"
        field = mp.apply_L_adjoint(op, dual_matrix)
        eigs = np.concatenate([sla.eigvalsh(node) for node in field])
        assert eigs.min() >= -1e-12 * eigs.max(), (eigs.min(), eigs.max())
        assert mp.inner(dual_matrix, np.asarray(moment, dtype=complex)) < 0.0
    return check


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
