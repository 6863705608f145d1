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
import sys

from . import formats
from .errors import DualStartNotFound, PositivityError
from .families import FAMILY_KINDS, family_from_name
from .solver import STATUS_CONVERGED, STATUS_NOT_IN_RANGE, SolveConfig, solve

# Unused here; bound only because bench/tracing.py wraps these names in this module.
from .problems import (build_operator, grid2d_problem, nonequispaced_array_problem,  # noqa: F401
                       partial_trace_problem, state_covariance_problem)

EXAMPLE_NAMES = tuple(formats.EXAMPLES)

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
        p.add_argument("--tol", type=float, default=None,
                       help="relative convergence threshold: the flow lands on R once "
                            "V would reach tol * ||R||^2 (default 1e-10)")
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
    op, family_name, report = _run_solver(args)
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
    _op, family_name, report = _run_solver(args)
    if report.status == STATUS_NOT_IN_RANGE:
        print(f"error: {report.message}", file=sys.stderr)
        return EXIT_INPUT
    verdict = "feasible" if report.status == STATUS_CONVERGED else "not-strictly-feasible"
    print(f"{verdict} ({family_name} family, status {report.status})")
    return EXIT_OK if report.status == STATUS_CONVERGED else EXIT_DIVERGED


def _run_solver(args):
    """Solve the problem the flags and config file name; returns the operator,
    the family name and the report."""
    merged = _merge_config(args)
    if merged.get("problem"):
        loaded = formats.load_problem(merged["problem"])
        op, moment = loaded.operator, loaded.moment
    else:
        op, _kernels, moment, _rho_true = formats.example_problem(
            merged["example"], int(merged.get("seed") or 0))

    sigma = None
    if merged.get("sigma"):
        sigma = formats.read_density_csv(merged["sigma"], op.grid)
    family = family_from_name(merged["family"], sigma=sigma)

    config = SolveConfig(
        tol=float(SolveConfig.tol if merged.get("tol") is None else merged["tol"]),
        t_max=float(SolveConfig.t_max if merged.get("t_max") is None else merged["t_max"]),
        torus_override=bool(merged.get("torus_override")),
    )
    return op, merged["family"], solve(op, moment, family, config)


# JSON type of each config-file value; the parser types the flags
_CONFIG_TYPES = {"problem": "a string", "example": "a string", "family": "a string",
                 "sigma": "a string", "tol": "a number", "t_max": "a number",
                 "seed": "an integer", "torus_override": "true or false"}


def _merge_config(args):
    merged = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("a config file holds a JSON object")
        for key, value in config.items():
            if value is not None and key in _CONFIG_TYPES:
                formats.json_typed(value, _CONFIG_TYPES[key], "config " + key)
        merged.update(config)
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
    op, kernels, moment, rho_true = formats.example_problem(args.name, int(args.seed))
    os.makedirs(args.outdir, exist_ok=True)
    formats.write_density_csv(os.path.join(args.outdir, "rho_true.csv"), rho_true, op.grid)
    path = os.path.join(args.outdir, "problem.json")
    formats.write_problem(path, formats.problem_to_obj(op.grid, kernels, moment,
                                                       rho_true="rho_true.csv"))
    print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
