"""Names other code reaches by path (the package's exports and the benchmark's
tracer targets) and what importing the package loads."""
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import momentropy
from conftest import src_env
from momentropy import operator, problems, solver

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("momentropy_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_exported_name_resolves():
    for name in momentropy.__all__:
        assert getattr(momentropy, name) is not None, name


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/tracing.py rebinds these names from outside to time each layer;
    # a name that no longer resolves loses its per-layer metric
    tracing = _tracing()
    unresolved = []
    for paths in tracing.TARGETS.values():
        for path in paths:
            try:
                tracing._resolve(path)
            except (ImportError, AttributeError):
                unresolved.append(path)
    assert unresolved == []


def test_the_spans_the_benchmark_tracer_wraps_fire():
    # a wrapped name that stays bound but is no longer called loses its
    # per-layer metric too.  operator.entropy is left out: it has not fired
    # since the solver's finalise moved to operator._entropies (ROADMAP item 7)
    # The array target is not a multiple of the default start's moment, so
    # each default-start run takes steps.
    tracer = _tracing().Tracer()
    family = momentropy.rational_family()
    with tracer.installed():
        op = problems.nonequispaced_array_problem()
        moment = operator.apply_L(op, problems.two_bump_demo_density(op.grid))
        for run in (solver.solve, solver.solve_tau):
            assert run(op, moment, family).status == "Converged"
    assert tracer.missing == set()
    fired = {row[0] for row in tracer.spans}
    assert {"operator.build_operator", "operator.compute_range_basis",
            "operator.project_to_range", "families.default_dual_start", "families.evaluate",
            "solver.rk4_step", "solver.flow_system", "solver.finalise"} <= fired


def test_solve_config_holds_only_the_policy_options():
    # the step schedule, floors and bounds are fixed by the method
    names = [f.name for f in dataclasses.fields(momentropy.SolveConfig)]
    assert names == ["tol", "t_max", "torus_override"]


def test_no_function_takes_a_tolerance_or_floor_parameter():
    functions = [getattr(momentropy, name) for name in momentropy.__all__]
    functions += [obj for _name, obj in inspect.getmembers(problems, inspect.isfunction)
                  if obj.__module__ == problems.__name__]
    offending = []
    for fn in functions:
        if inspect.isfunction(fn):
            params = set(inspect.signature(fn).parameters)
            offending += ["%s(%s)" % (fn.__name__, p)
                          for p in sorted(params & {"pos_floor", "floor", "rtol", "rank_rtol",
                                             "modes", "spectral_radius", "with_feedback"})]
    assert offending == []


def test_imports_need_only_numpy_and_load_it_after_the_cli_thread_pin():
    # a fresh interpreter in which scipy cannot be imported: numpy is the only
    # runtime dependency, and the CLI pins BLAS threads before numpy loads
    script = "\n".join([
        "import os, sys",
        "sys.modules['scipy'] = None",
        "import momentropy",
        "assert 'numpy' not in sys.modules, 'import momentropy loaded numpy'",
        "from momentropy import cli",
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1', os.environ['OPENBLAS_NUM_THREADS']",
        "sys.exit(cli.main(['solve', '--example', 'scalar-demo']))",
    ])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=src_env(dict(os.environ, OPENBLAS_NUM_THREADS="4")), timeout=300)
    assert run.returncode == 0, run.stderr
    assert '"status": "Converged"' in run.stdout
