"""Command-line front end.

Subcommands:

    solve        load a problem (file or builtin example), run the
                 continuation solver, write report/density/trace outputs
    feasibility  probe whether the target moment is strictly attainable
    example      write a builtin problem bundle into a directory

Exit codes: 0 converged / feasible; 2 divergence verdicts; 3 input errors,
usage errors included.
Outputs are byte-deterministic for identical inputs and seed; to keep that
true across BLAS thread settings, this module pins the numerical libraries
to one thread before they load.
"""

import os

# Pin BLAS threading before numpy is imported anywhere in this process:
# threaded reductions may differ in last-bit rounding between thread counts,
# and the CLI's outputs are contractually byte-reproducible.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import sys

import numpy as np

from . import formats
from .errors import DualStartNotFound, PositivityError
from .families import FAMILY_KINDS, family_from_name
from .grid import build_grid
from .operator import apply_L, build_operator, kernel_samples
from .problems import (
    bell_state,
    bump2d_density,
    constant_density,
    grid2d_problem,
    nonequispaced_array_problem,
    partial_trace_problem,
    random_smooth_matrix_density,
    random_state_model,
    state_covariance_problem,
    two_bump_demo_density,
)
from .solver import STATUS_CONVERGED, STATUS_NOT_IN_RANGE, SolveConfig, solve

EXAMPLE_NAMES = ("nonequispaced-array", "grid2d", "bell", "statecov", "scalar-demo")

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_INPUT = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "feasibility":
            return _cmd_feasibility(args)
        if args.command == "example":
            return _cmd_example(args)
        parser.print_help()
        return EXIT_INPUT
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            PositivityError, DualStartNotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 3, since 2 is the divergence verdict.
    Subcommand parsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="momentropy",
        description="moment matching through entropy-extremal density families",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--problem", help="problem JSON file")
        src.add_argument("--example", choices=EXAMPLE_NAMES, help="builtin example problem")
        p.add_argument("--family", default=None,
                       choices=[k.replace("_", "-") for k in FAMILY_KINDS],
                       help="density family (default: exponential)")
        p.add_argument("--sigma", help="reference density CSV for the weighted families")
        p.add_argument("--config", help="JSON config file mirroring the flags (flags win)")
        p.add_argument("--tol", type=float, default=None, help="convergence threshold on V")
        p.add_argument("--t-max", type=float, default=None, help="flow horizon")
        p.add_argument("--torus-override", action="store_true", default=None,
                       help="allow inverse-type families on 2-D supports")
        p.add_argument("--seed", type=int, default=None, help="seed for synthetic generators")

    solve_p = sub.add_parser("solve", help="run the continuation solver")
    add_common(solve_p)
    solve_p.add_argument("--report", help="report JSON output path (default: stdout)")
    solve_p.add_argument("--density-out", help="solution density CSV output path")
    solve_p.add_argument("--trace-out", help="integration trace CSV output path")

    feas_p = sub.add_parser("feasibility", help="probe strict attainability of the moment")
    add_common(feas_p)

    ex_p = sub.add_parser("example", help="write a builtin problem bundle")
    ex_p.add_argument("name", help="one of: %s" % ", ".join(EXAMPLE_NAMES))
    ex_p.add_argument("outdir", help="output directory (created if missing)")
    ex_p.add_argument("--seed", type=int, default=0, help="seed for synthetic generators")
    return parser


# ---------------------------------------------------------------------------
# solve / feasibility

def _cmd_solve(args) -> int:
    op, moment, family_name, family, config = _materialise(args)
    report = solve(op, moment, family, config)

    if args.report:
        formats.write_report(args.report, report, family_name)
    else:
        print(formats.dumps_canonical(formats.report_to_obj(report, family_name)))
    if args.trace_out:
        formats.write_trace_csv(args.trace_out, report.trace)
    if args.density_out and report.density is not None:
        formats.write_density_csv(args.density_out, report.density, op.grid)

    if report.status == STATUS_CONVERGED:
        return EXIT_OK
    if report.status == STATUS_NOT_IN_RANGE:
        print(f"error: {report.message}", file=sys.stderr)
        return EXIT_INPUT
    print(f"diverged: {report.status}: {report.message}", file=sys.stderr)
    return EXIT_DIVERGED


def _cmd_feasibility(args) -> int:
    op, moment, family_name, family, config = _materialise(args)
    report = solve(op, moment, family, config)
    if report.status == STATUS_NOT_IN_RANGE:
        print(f"error: {report.message}", file=sys.stderr)
        return EXIT_INPUT
    verdict = "feasible" if report.status == STATUS_CONVERGED else "not-strictly-feasible"
    print(f"{verdict} ({family_name} family, status {report.status})")
    return EXIT_OK if report.status == STATUS_CONVERGED else EXIT_DIVERGED


def _materialise(args):
    """Resolve problem source, family (name and instance), and solver config
    from flags + config file."""
    merged = _merge_config(args)
    seed = int(merged.get("seed") or 0)

    if merged.get("problem"):
        loaded = formats.load_problem(merged["problem"])
        op, moment = loaded.operator, loaded.moment
    else:
        bundle = _example_bundle(merged["example"], seed)
        op, moment = bundle["operator"], bundle["moment"]

    sigma = None
    if merged.get("sigma"):
        sigma = formats.read_density_csv(merged["sigma"], op.grid)
    family = family_from_name(merged["family"], sigma=sigma)

    config = SolveConfig(
        tol=float(SolveConfig.tol if merged.get("tol") is None else merged["tol"]),
        t_max=float(SolveConfig.t_max if merged.get("t_max") is None else merged["t_max"]),
        torus_override=bool(merged.get("torus_override") or False),
    )
    return op, moment, merged["family"], family, config


def _merge_config(args):
    merged = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            merged.update(json.load(fh))
    for key in ("problem", "example", "family", "sigma", "tol", "t_max",
                "torus_override", "seed"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            merged[key] = val
    merged.setdefault("family", "exponential")
    if not merged.get("problem") and not merged.get("example"):
        raise ValueError("need --problem or --example")
    return merged


# ---------------------------------------------------------------------------
# builtin example bundles

def _cmd_example(args) -> int:
    # an unknown name raises here, before any directory is created
    bundle = _example_bundle(args.name, int(args.seed))
    os.makedirs(args.outdir, exist_ok=True)
    rho_true_name = None
    if bundle.get("rho_true") is not None:
        rho_true_name = "rho_true.csv"
        formats.write_density_csv(
            os.path.join(args.outdir, rho_true_name),
            bundle["rho_true"], bundle["operator"].grid,
        )
    obj = formats.problem_to_obj(
        bundle["operator"].grid, bundle["kernels_obj"], bundle["moment"],
        rho_true=rho_true_name,
    )
    path = os.path.join(args.outdir, "problem.json")
    formats.write_problem(path, obj)
    print(path)
    return EXIT_OK


def _example_bundle(name: str, seed: int) -> dict:
    if name == "scalar-demo":
        grid = build_grid("interval1d", (0.0, 1.0), panels=8, order=4)
        eye = np.ones((grid.node_count, 1, 1), dtype=complex)
        op = build_operator(grid, kernel_samples(eye, eye))
        rho = constant_density(grid, 1, 2.0)
        return {"operator": op, "moment": apply_L(op, rho), "rho_true": rho,
                "kernels_obj": {"mode": "builtin", "name": "identity", "m": 1}}
    if name == "nonequispaced-array":
        op = nonequispaced_array_problem()
        rho = two_bump_demo_density(op.grid)
        return {"operator": op, "moment": apply_L(op, rho), "rho_true": rho,
                "kernels_obj": {"mode": "builtin", "name": "nonequispaced-array",
                                "positions": [0.0, 1.0, 1.0 + math.sqrt(2.0)],
                                "wavenumber": 1.0}}
    if name == "grid2d":
        grid = build_grid("rectangle2d", ((0.0, math.pi), (0.0, math.pi)), panels=12, order=4)
        op = grid2d_problem(2, grid)
        rho = bump2d_density(grid, 0.4, bumps=((1.1, 0.9, 0.5, 0.6, 1.3),
                                               (2.3, 2.2, 0.7, 0.5, 0.9)))
        return {"operator": op, "moment": apply_L(op, rho), "rho_true": rho,
                "kernels_obj": {"mode": "builtin", "name": "grid2d", "n": 2}}
    if name == "bell":
        op = partial_trace_problem(2, 2)
        rho = np.broadcast_to(bell_state(), (2, 4, 4)).copy()
        return {"operator": op, "moment": apply_L(op, rho), "rho_true": rho,
                "kernels_obj": {"mode": "builtin", "name": "partial-trace",
                                "dim_keep": 2, "dim_trace": 2}}
    if name == "statecov":
        model = random_state_model(n=4, m=2, seed=seed)
        op = state_covariance_problem(model)
        rho = random_smooth_matrix_density(op.grid, 2, seed=seed + 1)
        return {"operator": op, "moment": apply_L(op, rho), "rho_true": rho,
                "kernels_obj": {"mode": "builtin", "name": "statecov",
                                "A": formats.matrix_to_obj(model.a),
                                "B": formats.matrix_to_obj(model.b),
                                "C_o": formats.matrix_to_obj(model.c_o)
                                       if model.c_o is not None else None}}
    raise ValueError("unknown example %r; valid names: %s" % (name, ", ".join(EXAMPLE_NAMES)))


if __name__ == "__main__":
    sys.exit(main())
