"""Seeded inputs, verdict steps and the correctness gate of each workload.

A workload is built once per process by :func:`build`.  It holds the
operators and targets generated from the seed and an ordered list of steps;
one pass over the steps is the workload's fixed batch.  The library only ever
receives the generated inputs: operators, target moments and families through
the public API, or problem files through ``momentropy.cli.main``.

Every verdict is checked after it is timed (see :func:`check`).  A wrong
verdict is counted and named, never skipped or re-drawn.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from momentropy import cli, formats
from momentropy import operator as mop
from momentropy import problems as pr
from momentropy.families import family_from_name
from momentropy.grid import build_grid
from momentropy.solver import SolveConfig, solve, solve_tau

# Criterion 5's reproduction bound, relative to the size of the target.
RESIDUAL_RTOL = 1e-6
# The absolute tolerance on V that ``solve`` applies by default.
V_TOL = SolveConfig().tol

FORMS = {"solve": solve, "solve_tau": solve_tau}


@dataclass
class Step:
    """One call of the batch.

    ``form`` is ``solve`` or ``solve_tau`` (public API, on ``op``/``moment``/
    ``family``) or ``cli`` (``momentropy.cli.main(argv)``).  Only verdict
    steps count as verdicts; the ``example`` calls of ``cli-fresh`` are
    batch work that produces the verdicts' input files.
    """

    id: str
    form: str
    expect: str = "converge"            # or "diverge"
    verdict: bool = True
    op: object = None
    moment: np.ndarray | None = None
    family_name: str = "exponential"
    family: object = None
    argv: list[str] = field(default_factory=list)
    out: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a step returned: exit code or report, reduced to what the gate needs."""

    status: str
    accepted_steps: int
    report: object = None
    error: str = ""


@dataclass
class Workload:
    steps: list[Step]
    shapes: list[dict]
    out_dir: str


# ---------------------------------------------------------------------------
# input generation

def _shape(label: str, op) -> dict:
    return {"problem": label, "N": op.node_count, "m": op.m, "d": op.d,
            "adjoint_basis_bytes": int(op.adjoint_basis.nbytes)}


def _scalar_demo_operator():
    """The CLI's ``scalar-demo`` problem: unit interval, constant kernel."""
    grid = build_grid("interval1d", (0.0, 1.0), panels=8, order=4)
    eye = np.ones((grid.node_count, 1, 1), dtype=complex)
    return mop.build_operator(grid, mop.kernel_samples(eye, eye))


def _jitter(rng, value: float, rel: float = 0.1) -> float:
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


def _bump_draw(grid, rng) -> np.ndarray:
    """The package's two-bump reference density with every parameter moved by up to 10%.

    Seeds vary the target, but only within this family, so that the work of
    a pass (its accepted steps) hardly depends on the seed.
    """
    j = lambda v: _jitter(rng, v)
    return pr.bump_mixture_density(
        grid, j(0.5), bumps=((j(0.75), j(0.22), j(1.1)), (j(2.15), j(0.30), j(0.7))),
        steps=((j(0.30), j(0.45), j(0.9), j(0.02)),))


def _api_steps(prefix, op, moment, families, forms, expect="converge", sigma=None):
    steps = []
    for fam in families:
        family = family_from_name(fam, sigma=sigma)
        for form in forms:
            steps.append(Step(id="%s/%s/%s" % (prefix, fam, form), form=form, expect=expect,
                              op=op, moment=moment, family_name=fam, family=family))
    return steps


def _statecov_large(seed: int, fast: bool, out_dir: str) -> Workload:
    # Criterion 11's pipeline on 64 panels x order 6 = 384 nodes (m=2, d=12),
    # where the per-node arithmetic is about nine tenths of an evaluation;
    # the model is criterion 11's, the targets come from the seed.
    model = pr.random_state_model(n=4, m=2, seed=0)
    grid = build_grid("interval1d", (-math.pi, math.pi), panels=16 if fast else 64, order=6)
    op = pr.state_covariance_problem(model, grid)
    plan = [("exponential", "solve")] * (1 if fast else 2)
    if not fast:
        plan += [("rational", "solve"), ("exponential", "solve_tau")]
    # Each target mixes criterion 11's density with a seeded one of the same
    # kind; the mix stays positive and the work per target stays close.
    reference = pr.random_smooth_matrix_density(grid, 2, seed=1)
    steps = []
    for k, (fam, form) in enumerate(plan):
        rho = 0.8 * reference + 0.2 * pr.random_smooth_matrix_density(grid, 2, seed=1000 * seed + k)
        steps += _api_steps("statecov/t%d" % k, op, mop.apply_L(op, rho), (fam,), (form,))
    return Workload(steps, [_shape("statecov", op)], out_dir)


def _array_sweep(seed: int, fast: bool, out_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    op = pr.nonequispaced_array_problem()
    sigma = pr.bump_mixture_density(
        op.grid, _jitter(rng, 1.0), bumps=((_jitter(rng, 1.5), _jitter(rng, 0.45), _jitter(rng, 0.5)),))
    families = ("rational", "exponential") if fast else (
        "rational", "exponential", "weighted_rational", "weighted_exponential", "prior_exponential")
    forms = ("solve",) if fast else ("solve", "solve_tau")
    steps = _api_steps("array/bump0", op, mop.apply_L(op, _bump_draw(op.grid, rng)),
                       families, forms, sigma=sigma)

    scalar_op = _scalar_demo_operator()
    for k in range(1 if fast else 2):
        value = _jitter(rng, 2.0 + k)
        steps += _api_steps("scalar/pos%d" % k, scalar_op, np.array([[value]], dtype=complex),
                            ("rational", "exponential"), forms)

    # Exponential only: L*(lam) is rank-deficient at every node of the
    # partial trace, so the rational family has no feasible start there.
    bell_op = pr.partial_trace_problem(2, 2)
    bell = mop.apply_L(bell_op, np.broadcast_to(pr.bell_state(), (2, 4, 4)).copy())
    steps += _api_steps("bell", bell_op, bell, ("exponential",), forms)

    # One target that must diverge, in the flow form only: ``solve_tau`` on
    # it would take a third of the pass (see the infeasible workload).
    steps += _api_steps("array/flipped", op, _flipped_array_moment(op, rng),
                        ("rational", "exponential"), ("solve",), expect="diverge")
    shapes = [_shape("nonequispaced-array", op), _shape("scalar-demo", scalar_op),
              _shape("partial-trace", bell_op)]
    return Workload(steps, shapes, out_dir)


def _flipped_array_moment(op, rng) -> np.ndarray:
    """A seeded array moment that no positive density attains (criterion 9).

    A bump draw is shifted down until the necessary-condition matrix of its
    moments is indefinite, which certifies that the target is infeasible.
    """
    rho = _bump_draw(op.grid, rng)[:, 0, 0].real
    pos = np.asarray(pr.DEFAULT_ARRAY_POSITIONS)
    shift = _jitter(rng, 0.7, 0.05)
    while True:
        moment = mop.apply_L(op, (rho - shift).reshape(-1, 1, 1).astype(complex))
        values = {0.0: moment[0, 0], pos[1]: moment[1, 0],
                  pos[2] - pos[1]: moment[2, 1], pos[2]: moment[2, 0]}
        if not pr.array_necessary_matrix(values)[1]:
            return moment
        shift *= 1.1


# Magnitudes of the negative scalar targets: one per four decades of
# ROADMAP item 2's range 1e-8..1e8, each moved by up to 5% from the seed, so
# every run covers the whole range and the work of a pass hardly depends on
# the seed.  The smallest lies where item 2 finds a false Converged (|R| below
# about 1e-5).
NEGATIVE_MAGNITUDES = (1e-7, 1e-3, 1e1, 1e5)


def _infeasible(seed: int, fast: bool, out_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    scalar_op = _scalar_demo_operator()
    forms = ("solve",) if fast else ("solve", "solve_tau")
    steps = []
    for k, nominal in enumerate(NEGATIVE_MAGNITUDES[:1] if fast else NEGATIVE_MAGNITUDES):
        magnitude = _jitter(rng, nominal, 0.05)
        steps += _api_steps("scalar/neg%d(%.3g)" % (k, -magnitude), scalar_op,
                            np.array([[-magnitude]], dtype=complex),
                            ("rational", "exponential"), forms, expect="diverge")
    op = pr.nonequispaced_array_problem()
    steps += _api_steps("array/flipped", op, _flipped_array_moment(op, rng),
                        ("rational", "exponential"), forms, expect="diverge")
    return Workload(steps,
                    [_shape("scalar-demo", scalar_op), _shape("nonequispaced-array", op)], out_dir)


def write_samples_problem(path: str, op, moment) -> str:
    """Write a problem file in "samples" kernel mode.

    The loader rebuilds the operator from the per-node kernel values instead
    of a builtin name, so any operator the benchmark built can go through the
    CLI.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    formats.write_problem(path, formats.problem_to_obj(op.grid, formats.samples_kernels_obj(op), moment))
    return path


def _cli_fresh(seed: int, fast: bool, out_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    names = ("scalar-demo", "statecov") if fast else cli.EXAMPLE_NAMES
    steps = []
    for name in names:
        sub = os.path.join(out_dir, name)
        steps.append(Step(id="example/" + name, form="cli", verdict=False,
                          argv=["example", name, sub, "--seed", str(seed)]))
    for name in names:
        steps.append(cli_solve_step("cli/" + name, os.path.join(out_dir, name, "problem.json"),
                                    "exponential", "converge"))

    # Seeded array targets in samples mode: one attainable, one that must
    # diverge (exit code 2).
    op = pr.nonequispaced_array_problem()
    feasible = write_samples_problem(os.path.join(out_dir, "samples", "problem.json"),
                                     op, mop.apply_L(op, _bump_draw(op.grid, rng)))
    flipped = write_samples_problem(os.path.join(out_dir, "flipped", "problem.json"),
                                    op, _flipped_array_moment(op, rng))
    steps.append(cli_solve_step("cli/samples", feasible, "exponential", "converge"))
    steps.append(cli_solve_step("cli/flipped", flipped, "exponential", "diverge"))
    return Workload(steps, [_shape("nonequispaced-array(samples)", op)], out_dir)


def cli_solve_step(step_id: str, problem_path: str, family: str, expect: str) -> Step:
    base = os.path.dirname(problem_path)
    out = {"problem": problem_path, "report": os.path.join(base, "report.json"),
           "density": os.path.join(base, "density.csv"), "trace": os.path.join(base, "trace.csv")}
    argv = ["solve", "--problem", problem_path, "--family", family,
            "--report", out["report"], "--density-out", out["density"], "--trace-out", out["trace"]]
    return Step(id=step_id, form="cli", expect=expect, family_name=family, argv=argv, out=out)


BUILDERS = {"statecov-large": _statecov_large, "array-sweep": _array_sweep,
            "infeasible": _infeasible, "cli-fresh": _cli_fresh}


def build(name: str, seed: int, fast: bool, out_dir: str) -> Workload:
    os.makedirs(out_dir, exist_ok=True)
    # numpy's generators take non-negative seeds only
    return BUILDERS[name](seed % 2**31, fast, out_dir)


# ---------------------------------------------------------------------------
# running and checking one step

def run(step: Step) -> Outcome:
    """The timed call: one public-API solve or one in-process CLI invocation."""
    if step.form == "cli":
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(step.argv)
        return Outcome(status="exit %d" % code, accepted_steps=0, report=code)
    report = FORMS[step.form](step.op, step.moment, step.family)
    return Outcome(status=report.status, accepted_steps=len(report.trace) - 1, report=report)


def check(step: Step, outcome: Outcome) -> str | None:
    """Correctness gate; returns the reason a verdict is wrong, or None.

    Converged: ||L(density) - R|| / ||R|| <= 1e-6, V_final <= tol and a
    strictly positive density at every node.  Divergent targets must end in
    a ``Diverged*`` status (exit code 2 through the CLI).  Also fills in the
    accepted step count of CLI verdicts from their trace file.
    """
    if outcome.error:
        return outcome.error
    if step.form == "cli":
        return _check_cli(step, outcome)
    report = outcome.report
    if step.expect == "diverge":
        return None if report.status.startswith("Diverged") else "status " + report.status
    if report.status != "Converged":
        return "status " + report.status
    return _check_density(step.op, step.moment, report.density, report.V_final)


def _check_cli(step: Step, outcome: Outcome) -> str | None:
    code = outcome.report
    if not step.verdict:
        return None if code == 0 else "exit %d" % code
    want = 0 if step.expect == "converge" else 2
    if code != want:
        return "exit %d, expected %d" % (code, want)
    with open(step.out["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    with open(step.out["trace"], encoding="utf-8") as fh:
        outcome.accepted_steps = sum(1 for line in fh if line.strip()) - 2
    if step.expect == "diverge":
        return None if report["status"].startswith("Diverged") else "status " + report["status"]
    loaded = formats.load_problem(step.out["problem"])
    density = formats.read_density_csv(step.out["density"], loaded.operator.grid)
    v_final = report["V_final"] if report["V_final"] is not None else math.inf
    return _check_density(loaded.operator, loaded.moment, density, v_final)


def _check_density(op, moment, density, v_final) -> str | None:
    if density is None:
        return "no density"
    scale = float(np.linalg.norm(moment))
    resid = float(np.linalg.norm(mop.apply_L(op, density) - moment)) / max(scale, 1e-300)
    if not resid <= RESIDUAL_RTOL:
        return "relative residual %.3e > %.0e" % (resid, RESIDUAL_RTOL)
    if not v_final <= V_TOL:
        return "V_final %.3e > tol %.0e" % (v_final, V_TOL)
    min_eig = float(np.min(np.linalg.eigvalsh(density)))
    if not min_eig > 0.0:
        return "density min eigenvalue %.3e" % min_eig
    return None
