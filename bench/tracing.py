"""Spans recorded from outside the library, and the per-layer metrics built on them.

The traced run replaces names bound in the library's modules with wrappers
that record a span (name, start, end, parent, verdict id) around each call,
then puts the originals back.  Spans are kept in memory and written when the
run ends.  The wrapped names are the solver's cross-module calls as bound in
``momentropy.solver`` plus the public entry points the CLI reaches.  Nothing
inside the library changes.

A metric whose wrapped name no longer exists is reported as missing by name,
never as zero.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time

# span name -> attribute paths wrapped under it, as "module:attr.attr".
TARGETS = {
    "families.evaluate": ["momentropy.solver:_evaluate"],
    "operator.project_to_range": ["momentropy.solver:project_to_range"],
    "families.default_dual_start": ["momentropy.solver:default_dual_start"],
    "operator.entropy": ["momentropy.solver:_operator.entropy"],
    "solver.rk4_step": ["momentropy.solver:_rk4_step", "momentropy.solver:_rk4_step_tau"],
    "solver.flow_system": ["momentropy.solver:_solve_flow_system"],
    "solver.finalise": ["momentropy.solver:_finalise"],
    "solver.solve": ["momentropy.cli:solve"],
    "problems.build": [
        "momentropy.problems:nonequispaced_array_problem", "momentropy.cli:nonequispaced_array_problem",
        "momentropy.problems:grid2d_problem", "momentropy.cli:grid2d_problem",
        "momentropy.problems:partial_trace_problem", "momentropy.cli:partial_trace_problem",
        "momentropy.problems:state_covariance_problem", "momentropy.cli:state_covariance_problem",
    ],
    "operator.build_operator": [
        "momentropy.operator:build_operator", "momentropy.problems:build_operator",
        "momentropy.formats:build_operator", "momentropy.cli:build_operator",
    ],
    "operator.compute_range_basis": ["momentropy.operator:compute_range_basis"],
    "formats.load_problem": ["momentropy.formats:load_problem"],
    "formats.write": ["momentropy.formats:write_report", "momentropy.formats:write_density_csv",
                      "momentropy.formats:write_trace_csv"],
}

# Spans the benchmark opens itself around the public calls it makes.
SOLVE_SPANS = ("solver.solve", "solver.solve_tau")

# Spans of the solver layer; time in a solve span outside all other spans
# (and outside these) is the solver's self time.
SOLVER_LAYER = SOLVE_SPANS + ("solver.rk4_step", "solver.flow_system", "solver.finalise")

# per-layer metric -> span names whose wrappers it needs
REQUIRES = {
    "families.evaluate.calls": ["families.evaluate"],
    "families.evaluate.self_s": ["families.evaluate"],
    "families.evaluate.us_per_call": ["families.evaluate"],
    "solver.step_attempts": ["solver.rk4_step"],
    "solver.accept_ratio": ["solver.rk4_step"],
    "solver.evals_per_step": ["families.evaluate"],
    "solver.self_s": ["families.evaluate", "operator.project_to_range", "families.default_dual_start",
                      "operator.entropy", "solver.rk4_step", "solver.flow_system", "solver.finalise"],
    "solver.rk4_step.us": ["solver.rk4_step"],
    "solver.flow_system.us": ["solver.flow_system"],
    "solver.finalise.ms": ["solver.finalise"],
    "operator.project_to_range.us": ["operator.project_to_range"],
    "families.default_dual_start.us": ["families.default_dual_start"],
    "problems.build_s": ["problems.build"],
    "operator.build_operator.ms": ["operator.build_operator"],
    "operator.compute_range_basis.ms": ["operator.compute_range_basis"],
    "formats.load_problem.ms": ["formats.load_problem"],
    "formats.write.ms": ["formats.write"],
    "cli.main.s": [],
}


def _resolve(path: str):
    module_name, attr_path = path.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder; ``spans`` rows are [name, start, end, parent, verdict]."""

    def __init__(self):
        self.spans: list[list] = []
        self.verdict: str | None = None
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._paused = False

    @contextlib.contextmanager
    def span(self, name: str):
        row = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.verdict]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record no spans, e.g. while the benchmark checks a verdict."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def install(self) -> None:
        """Wrap every target that exists."""
        for name, paths in TARGETS.items():
            for path in paths:
                try:
                    owner, attr, original = _resolve(path)
                except (ImportError, AttributeError):
                    self.missing.add(name)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Put the original functions back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, verdict in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "verdict": verdict}) + "\n")


def _durations(spans, name):
    return [end - start for n, start, end, _p, _v in spans if n == name]


def _self_solver_s(spans) -> float:
    """Time inside solve spans not covered by a span of another layer."""
    children = {}
    for i, (_n, _s, _e, parent, _v) in enumerate(spans):
        children.setdefault(parent, []).append(i)

    def foreign(i):
        # time under span i that belongs to layers other than the solver
        total = 0.0
        for c in children.get(i, ()):
            name, start, end = spans[c][:3]
            total += foreign(c) if name in SOLVER_LAYER else end - start
        return total

    return sum(end - start - foreign(i)
               for i, (name, start, end, _p, _v) in enumerate(spans) if name in SOLVE_SPANS)


def layer_metrics(pass_spans: list[list], all_spans: list[list], accepted_steps: int,
                  missing: set[str]) -> tuple[dict, list[str]]:
    """Per-layer values from the spans of one traced pass and of the whole run.

    Counts and sums come from ``pass_spans``, the prefix of ``all_spans``
    that holds one traced set-up and one traced pass over the fixed batch, so
    counts repeat exactly.  Per-call times are medians over ``all_spans``.
    Returns the values and the names of the metrics that could not be
    measured.
    """
    evals = _durations(pass_spans, "families.evaluate")
    attempts = len(_durations(pass_spans, "solver.rk4_step"))

    def med(name, scale):
        values = _durations(all_spans, name)
        return statistics.median(values) * scale if values else None

    values = {
        "families.evaluate.calls": len(evals),
        "families.evaluate.self_s": sum(evals),
        "families.evaluate.us_per_call": med("families.evaluate", 1e6),
        "solver.step_attempts": attempts,
        "solver.accept_ratio": accepted_steps / attempts if attempts else None,
        "solver.evals_per_step": len(evals) / accepted_steps if accepted_steps else None,
        "solver.self_s": _self_solver_s(pass_spans),
        "solver.rk4_step.us": med("solver.rk4_step", 1e6),
        "solver.flow_system.us": med("solver.flow_system", 1e6),
        "solver.finalise.ms": med("solver.finalise", 1e3),
        "operator.project_to_range.us": med("operator.project_to_range", 1e6),
        "families.default_dual_start.us": med("families.default_dual_start", 1e6),
        "problems.build_s": sum(_durations(pass_spans, "problems.build")),
        "operator.build_operator.ms": med("operator.build_operator", 1e3),
        "operator.compute_range_basis.ms": med("operator.compute_range_basis", 1e3),
        "formats.load_problem.ms": med("formats.load_problem", 1e3),
        "formats.write.ms": med("formats.write", 1e3),
        "cli.main.s": med("cli.main", 1.0),
    }
    lost = [name for name, value in values.items()
            if value is None or any(req in missing for req in REQUIRES[name])]
    return {k: v for k, v in values.items() if k not in lost}, lost
