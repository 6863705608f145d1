"""momentropy benchmark: time to a checked verdict on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--fast]

Run from the root of a source checkout; the library is imported from
``src/``.  One process runs one workload: it sets up (imports, operators,
targets), then cycles through the workload's fixed batch of verdicts until
``--seconds`` have passed, completing at least one pass.  Every verdict is
checked.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result (provenance, shapes, failed verdict ids) is written to
``bench/out/``.  See ``bench/README.md``.
"""

import os

# Pin the numerical libraries to one thread before numpy loads, as the CLI does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 11
PROBE_POINTS = 4


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("statecov-large", "array-sweep", "infeasible", "cli-fresh"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fast", action="store_true", help="small batches, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "momentropy" / "__init__.py").is_file():
        print("error: no momentropy sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    run_dir = OUT / ("%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, args.fast, str(run_dir))
            print(repr(time.time()))
            return 0
        return _benchmark(args, workloads, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# measurement

class Tally:
    """Verdicts attempted and failed, with the ids and reasons of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, step, reason):
        """One executed step and the gate's verdict on it."""
        if step.verdict:
            self.attempted += 1
        if reason is not None:
            self.fail(step, reason)

    def fail(self, step, reason):
        self.failures.append({"id": step.id, "reason": reason})


def _run_step(workloads, step, tally, tracer=None):
    """Time one step (with its spans when traced), then check it untimed."""
    span = {"cli": "cli.main" if step.verdict else "cli.example"}.get(step.form, "solver." + step.form)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = workloads.run(step)
        else:
            tracer.verdict = step.id
            with tracer.span(span):
                outcome = workloads.run(step)
    except Exception as exc:  # a crash is a failed verdict, not a benchmark error
        outcome = workloads.Outcome(status="error", accepted_steps=0, error=repr(exc))
    elapsed = time.perf_counter() - t0
    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        try:
            reason = workloads.check(step, outcome)
        except Exception as exc:  # unreadable outputs fail the verdict
            reason = "outputs could not be checked: %r" % exc
    if tracer is not None:
        tracer.verdict = None
    tally.record(step, reason)
    return elapsed, outcome


class Passes:
    """Timings of repeated passes over the batch; pass 0 is the reference."""

    def __init__(self, steps):
        self.steps = steps
        self.times = [[] for _ in steps]
        self.first: list = [None] * len(steps)
        self.first_pass_end = 0   # spans recorded by the end of the first pass

    def add(self, i, elapsed, outcome, tally):
        if self.first[i] is None:
            self.first[i] = outcome
        elif (outcome.status, outcome.accepted_steps) != (self.first[i].status, self.first[i].accepted_steps):
            tally.fail(self.steps[i], "repeat gave %s/%d steps, first pass %s/%d" % (
                outcome.status, outcome.accepted_steps, self.first[i].status, self.first[i].accepted_steps))
        self.times[i].append(elapsed)

    def verdict_times(self):
        """Every timing of every verdict step, all passes pooled."""
        return [t for step, ts in zip(self.steps, self.times) if step.verdict for t in ts]

    def batch_s(self):
        # each step at the median of its repeats
        return sum(statistics.median(ts) for ts in self.times)

    def summary(self):
        return [{"id": step.id, "status": o.status, "accepted_steps": o.accepted_steps,
                 "median_s": statistics.median(ts), "times_s": ts}
                for step, o, ts in zip(self.steps, self.first, self.times)]

    def accepted_steps(self):
        return sum(o.accepted_steps for step, o in zip(self.steps, self.first) if step.verdict)


def _cycle(workloads, wl, seconds, tally, tracers=(None,), between=None):
    """Run whole passes over the batch for about ``seconds``.

    A pass starts only if a pass of average length still fits, so a run
    stays near ``seconds`` and always holds whole passes: the mix of
    verdicts in the timing sample does not depend on the machine's speed.
    With several entries in ``tracers``, passes alternate between them and
    each runs at least once; a tracer's wrappers are installed only during
    its own passes.  ``between(elapsed)``, if given, is called before every
    step, outside its timing.  Returns one :class:`Passes` per entry.
    """
    runs = [Passes(wl.steps) for _ in tracers]
    start = time.perf_counter()
    k = 0
    while k < len(tracers) or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        tracer, passes = tracers[k % len(tracers)], runs[k % len(tracers)]
        if tracer is None:
            for i, step in enumerate(wl.steps):
                if between is not None:
                    between(time.perf_counter() - start)
                passes.add(i, *_run_step(workloads, step, tally), tally)
        else:
            with tracer.installed():
                for i, step in enumerate(wl.steps):
                    passes.add(i, *_run_step(workloads, step, tally, tracer), tally)
            passes.first_pass_end = passes.first_pass_end or len(tracer.spans)
        k += 1
    return runs


class SetupSampler:
    """Wall time, in fresh processes, from process start to a built workload.

    Each child prints the wall clock when its set-up is done, so a sample
    ends there and not at the child's exit.  The samples are spread evenly
    over the measured run (see :meth:`between`), so their median follows
    the machine's speed over the whole run and not over its first second.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        self.cmd += ["--fast"] if args.fast else []
        self.count = 1 if args.fast else SETUP_SAMPLES
        self.interval = args.seconds / self.count
        self.samples: list[float] = []

    def sample(self):
        t0 = time.time()
        child = subprocess.run(self.cmd, check=True, timeout=120, capture_output=True, text=True)
        self.samples.append(float(child.stdout.split()[-1]) - t0)

    def between(self, elapsed):
        """Take the next sample once its share of the run has begun."""
        if len(self.samples) < self.count and elapsed >= len(self.samples) * self.interval:
            self.sample()

    def median(self):
        """Complete the samples a short run left out, and return their median."""
        while len(self.samples) < self.count:
            self.sample()
        return statistics.median(self.samples)


def _tail(times):
    """Mean of the slowest quarter of a run's verdict timings, and how many that is.

    A percentile of the pooled timings jumps from run to run when it falls
    at the edge between two kinds of verdict: on cli-fresh, 5 of 7 verdicts
    take about 0.5 s and 2 take 1.5 s and 3 s, so the 75th percentile is the
    lowest of the 1.5-s timings.  The mean of the timings beyond it does not
    jump.  Runs hold whole passes, so the mix of verdicts in ``times`` is the
    same in every run; at the listed run length a run holds at least 40
    timings, so the slowest quarter holds at least ten.
    """
    slow = sorted(times)[-max(1, len(times) // 4):]
    return statistics.fmean(slow), len(slow)


def _end_to_end(args, workloads, wl, tally, info):
    setup = SetupSampler(args)
    (passes,) = _cycle(workloads, wl, args.seconds, tally, between=setup.between)
    setup_s = setup.median()
    times = passes.verdict_times()
    tail, in_tail = _tail(times)
    info["timing"] = {"setup_samples_s": setup.samples, "passes": len(passes.times[0]),
                      "verdicts_timed": len(times), "tail_percentile": 75,
                      "verdicts_in_tail": in_tail, "steps": passes.summary()}
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_tail": (tail, "s"),
        "batch_s": (passes.batch_s(), "s"),
        "accepted_steps": (passes.accepted_steps(), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


# ---------------------------------------------------------------------------
# traced run

LAYER_UNITS = {
    "families.flow_jacobian.us": "us", "calculus.eigh_hermitian.us": "us",
    "families.family_density.us": "us", "operator.apply_L.us": "us",
    "operator.apply_L_adjoint.us": "us", "operator.project_to_range.us": "us",
    "families.evaluate.us_per_call": "us", "families.evaluate.calls": "count",
    "families.evaluate.self_s": "s", "solver.step_attempts": "count",
    "solver.accept_ratio": "ratio", "solver.evals_per_step": "ratio", "solver.self_s": "s",
    "solver.rk4_step.us": "us", "solver.flow_system.us": "us", "solver.finalise.ms": "ms",
    "problems.build_s": "s", "operator.build_operator.ms": "ms",
    "operator.compute_range_basis.ms": "ms", "families.default_dual_start.us": "us",
    "formats.load_problem.ms": "ms", "formats.write.ms": "ms", "cli.main.s": "s",
    "trace.overhead_frac": "ratio",
}


def _per_call_us(fn):
    """Median wall time of one call, in microseconds, over repeats worth ~10 ms."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    times = []
    for _ in range(min(200, max(3, int(0.01 / max(first, 1e-7))))):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _probe_points(workloads, wl, first):
    """(operator, family, dual coords) at the start and at lambda-hat of a few verdicts."""
    import momentropy as mp
    from momentropy import formats

    points = []
    seen = set()
    for step, outcome in zip(wl.steps, first):
        if not step.verdict or outcome is None or outcome.error or len(seen) >= PROBE_POINTS:
            continue
        if step.form == "cli":
            if outcome.report != 0:
                continue
            op = formats.load_problem(step.out["problem"]).operator
            with open(step.out["report"], encoding="utf-8") as fh:
                lam = formats.matrix_from_obj(json.load(fh)["lambda"])
            family = mp.family_from_name(step.family_name)
            lam_hat = op.basis.coords_of(lam)
        else:
            op, family, lam_hat = step.op, step.family, outcome.report.lambda_hat.coords
        key = (id(step.op) if step.op is not None else step.id, step.family_name)
        if key in seen:
            continue
        seen.add(key)
        points.append((op, family, mp.default_dual_start(op, family).coords))
        points.append((op, family, lam_hat))
    return points


def _layer_probes(points):
    """Per-call times of the evaluation layers at the workload's own dual points."""
    import numpy as np
    from momentropy import calculus, families, operator

    def probes(op, family, x):
        lam = operator.dual_from_coords(op, x)
        field = operator.apply_L_adjoint(op, lam.matrix)
        density = families.family_density(op, x, family)
        return {
            "families.flow_jacobian.us": lambda: families.flow_jacobian(op, x, family),
            "calculus.eigh_hermitian.us": lambda: calculus.eigh_hermitian(field),
            "families.family_density.us": lambda: families.family_density(op, x, family),
            "operator.apply_L.us": lambda: operator.apply_L(op, density),
            "operator.apply_L_adjoint.us": lambda: operator.apply_L_adjoint(op, lam.matrix),
        }

    samples = {name: [] for name in ("families.flow_jacobian.us", "calculus.eigh_hermitian.us",
                                     "families.family_density.us", "operator.apply_L.us",
                                     "operator.apply_L_adjoint.us")}
    skipped = 0
    with np.errstate(all="ignore"):
        for op, family, x in points:
            try:
                for name, fn in probes(op, family, x).items():
                    samples[name].append(_per_call_us(fn))
            except (ValueError, AttributeError, np.linalg.LinAlgError):
                skipped += 1  # boundary point of a divergent run, or a name that is gone
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    return values, [name for name, v in samples.items() if not v], skipped


def _cli_replay(workloads, wl, tally, tracer):
    """Send the workload's last flow-form target through the CLI, traced.

    A traced run reports every per-layer metric, so this gives the formats
    and cli layers a measurement on workloads whose verdicts do not go
    through the CLI.
    """
    step = [s for s in wl.steps if s.form == "solve"][-1]
    path = workloads.write_samples_problem(os.path.join(wl.out_dir, "replay", "problem.json"),
                                           step.op, step.moment)
    _run_step(workloads, workloads.cli_solve_step("replay/" + step.id, path, step.family_name,
                                                  step.expect), tally, tracer)


def _traced(args, workloads, wl, tally, info):
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("setup"):
        workloads.build(args.workload, args.seed, args.fast, os.path.join(wl.out_dir, "traced-setup"))
    plain, traced = _cycle(workloads, wl, args.seconds, tally, tracers=(None, tracer))
    if args.workload != "cli-fresh":
        with tracer.installed():
            _cli_replay(workloads, wl, tally, tracer)
    if plain.accepted_steps() != traced.accepted_steps():
        tally.fail(wl.steps[0], "accepted_steps %d traced, %d untraced"
                     % (traced.accepted_steps(), plain.accepted_steps()))
    values, lost = tracing.layer_metrics(tracer.spans[:traced.first_pass_end], tracer.spans,
                                         traced.accepted_steps(), tracer.missing)
    probe_values, probe_lost, skipped = _layer_probes(_probe_points(workloads, wl, plain.first))
    values.update(probe_values)
    values["trace.overhead_frac"] = traced.batch_s() / plain.batch_s() - 1.0
    spans_path = OUT / ("spans-%s-s%d.jsonl" % (args.workload, args.seed))
    tracer.write(str(spans_path))
    info["traced"] = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tracer.spans),
                     "missing": sorted(lost + probe_lost), "probe_points_skipped": skipped,
                     "accepted_steps": traced.accepted_steps(),
                     "batch_s_untraced": plain.batch_s(), "batch_s_traced": traced.batch_s()}
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items() if name in values}


# ---------------------------------------------------------------------------
# output

def _provenance(args, wl):
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"commit": commit, "seed": args.seed, "python": platform.python_version(),
            "numpy": np.__version__, "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "nproc": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "shapes": wl.shapes}


def _benchmark(args, workloads, run_dir) -> int:
    wl = workloads.build(args.workload, args.seed, args.fast, str(run_dir))
    tally = Tally()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "fast": args.fast, "provenance": _provenance(args, wl)}
    if args.trace:
        metrics = _traced(args, workloads, wl, tally, info)
    else:
        metrics = _end_to_end(args, workloads, wl, tally, info)
    fail_frac = len(tally.failures) / max(tally.attempted, 1)
    info["verdicts"] = {"attempted": tally.attempted, "failed": len(tally.failures),
                        "verdict_fail_frac": fail_frac, "failures": tally.failures}
    info["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    result_path = OUT / ("result-%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
    result_path.write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")

    print("workload %s  seed %d  trace %d  commit %s"
          % (args.workload, args.seed, args.trace, info["provenance"]["commit"][:12]))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    if not args.trace:
        print("  %-34s %14.6g ratio  (%d of %d verdicts)"
              % ("verdict_fail_frac", fail_frac, len(tally.failures), tally.attempted))
    for f in tally.failures:
        print("  failed %s: %s" % (f["id"], f["reason"]))
    for name in info.get("traced", {}).get("missing", []):
        print("  missing %s" % name)
    print("  result: %s" % result_path.relative_to(ROOT))
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": info["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
