"""Homotopy continuation for moment matching.

Matching a target moment ``R`` within a density family means solving
``h(lam) = R`` for the dual variable.  From a start ``lam_0`` with moment
``R0 = h(lam_0)`` the solver follows the homotopy path

    h(lam(s)) = R + s (R0 - R),        s from 1 down to 0,

which it reaches on two clocks.  ``solve`` runs the feedback flow

    dlam/dt = D(lam)^{-1} (R - h(lam)),        D = Frechet derivative of h,

whose exact trajectory is the path at s = e^{-t}: the mismatch functional
V(lam) = ||R - h(lam)||^2 decays as dV/dt = -2 V, so log V against t has
slope -2.  ``solve_tau`` runs the fixed-interval form

    dlam/dtau = D(lam)^{-1} (R - R0),    tau in [0, 1],

which is the path at s = 1 - tau.  When ``R`` is attainable the path ends at
the unique matching dual point; when it is not, it leaves every bounded set or
collides with the boundary of the dual-feasible region, and the solver
reports which.

Both clocks share one path follower, so every accepted point lies on the
path.  A trial step from t to t + dt is Newton's method on
h(lam) = R + s(t + dt) (R0 - R).  Its first iterate uses the Jacobian held at
the accepted point, solved once and reused by every retry (when that solve
fails, no smaller step can succeed and the run ends at once); each further
iterate costs one evaluation, at most four per step.  A step is rejected when
an evaluation fails (an inverse-type adjoint field at the positivity floor,
non-finite values), when the Cholesky factorisation of the symmetric part of
the negated Jacobian fails, or when the corrector stops contracting or misses
the path; it then halves, and a step met within three iterations doubles up
to the clock's cap.  A collapsed step's verdict message carries the reason
for the last rejection.  Both clocks end on R itself: tau lands on 1, and the
flow clock reads s = 0 at the time its V would reach ``tol * ||R||^2``, so
each run's last step is a corrector step onto R, and a run converges only by
meeting it (or by starting within that threshold).

All reductions are evaluated in fixed node order, so results are reproducible
bit for bit on a given platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import matrix_log
from .errors import PositivityError
from .families import Family, _evaluate, default_dual_start
from .operator import (
    DualVariable,
    MomentOperator,
    dual_from_coords,
    inner,
    project_to_range,
)
from . import operator as _operator

STATUS_CONVERGED = "Converged"
STATUS_DIVERGED_UNBOUNDED = "DivergedUnbounded"
STATUS_DIVERGED_BOUNDARY = "DivergedBoundary"
STATUS_NOT_IN_RANGE = "NotInRange"
STATUS_MAX_TIME = "MaxTimeExceeded"

_SLOPE_V_FLOOR = 1e-13
_SLOPE_MIN_POINTS = 10
_SLOPE_CONVERGED_V = 1e-8

# Step schedule of each clock: the first step, the largest, and the smallest
# before the run counts as collapsed.  tau lives on [0, 1], where a step
# forced below 1e-6 can only mean the path is pinned at the cone boundary.
_FLOW_STEPS = (0.1, 1.0, 1e-12)
_TAU_STEPS = (0.01, 0.25, 1e-6)
# Corrector: iterations per trial step, the largest iteration count after
# which the step still doubles, and the distance from the path, relative to
# max(||R0 - R||, ||R||), at which a point counts as on it.
_CORRECTOR_ITERATIONS = 4
_DOUBLING_ITERATIONS = 3
_ON_PATH_RTOL = 1e-10
# Dual norm beyond which a run counts as unbounded.
_LAMBDA_MAX = 1e8
# Relative residual above which R is rejected as lying outside the range.
_RANGE_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SolveConfig:
    """Solver options; the defaults are the contract the tests pin down.

    tol                 relative convergence threshold: the flow lands on R
                        once V = ||R - h(lam)||^2 would fall to tol * ||R||^2
    t_max               horizon of the feedback flow (``solve_tau`` runs over
                        tau in [0, 1] instead)
    torus_override      allow inverse-type families on 2-D supports (the
                        flow is then heuristic: feasibility of the limit is
                        not guaranteed by the 1-D theory)

    ``tol`` and ``t_max`` must be finite and positive; anything else raises
    ValueError.  The step schedule, the corrector tolerance, the positivity
    floor, the unbounded-dual bound and the range tolerance are fixed by the
    method.
    """

    tol: float = 1e-10
    t_max: float = 60.0
    torus_override: bool = False

    def __post_init__(self):
        for name in ("tol", "t_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError("%s must be finite and positive, got %r" % (name, value))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a continuation run.

    ``trace`` rows are (t, V, min_eig, lambda_norm) for the start and each
    accepted step, so a run took ``len(trace) - 1`` steps, with min_eig the
    smallest nodewise eigenvalue of L*(lam).  ``entropy_value``
    is the family's canonical objective at the solution (Burg-type for the
    inverse families, von Neumann for exponential, relative to sigma for the
    sigma-weighted families); ``entropy_burg`` / ``entropy_vonneumann`` and
    ``pairing_value`` (= <lam, R>, which equals m * measure(support) at the
    matched solution) are diagnostics.  ``fitted_V_slope`` is the fitted
    log-V decay rate, None when the trace has no converged tail.
    """

    status: str
    lambda_hat: DualVariable
    V_final: float
    trace: list[tuple[float, float, float, float]] = field(repr=False)
    density: np.ndarray | None = field(default=None, repr=False)
    entropy_value: float | None = None
    entropy_burg: float | None = None
    entropy_vonneumann: float | None = None
    pairing_value: float | None = None
    fitted_V_slope: float | None = None
    message: str = ""


class _StepFailure(Exception):
    """Internal: a trial step or an evaluation could not be completed."""


# Everything that rejects a trial step.
_REJECTIONS = (_StepFailure, PositivityError, np.linalg.LinAlgError, FloatingPointError)


def solve(op: MomentOperator, moment: np.ndarray, family: Family,
          config: SolveConfig | None = None, start: DualVariable | None = None) -> SolveReport:
    """Match ``moment`` within ``family`` by following the feedback flow."""
    return _integrate(op, moment, family, config or SolveConfig(), start, is_flow=True)


def solve_tau(op: MomentOperator, moment: np.ndarray, family: Family,
              config: SolveConfig | None = None, start: DualVariable | None = None) -> SolveReport:
    """Follow the fixed-interval form over tau in [0, 1].

    Every accepted point meets the line h(lam) = R0 + tau (R - R0) within
    the corrector tolerance, so a successful run certifies its own path; on
    infeasible targets the step collapses before tau reaches 1 and the run
    reports divergence.  Agrees with :func:`solve` at the fixed point.
    """
    return _integrate(op, moment, family, config or SolveConfig(), start, is_flow=False)


def lyapunov_slope(trace: list[tuple[float, float, float, float]]) -> float:
    """Least-squares slope of log V against t over the decaying trace.

    Uses points with V above the numerical floor, 1e-13 of the trace's
    largest V (which leaves out the flow's landing on R); requires at least
    10 such points and an actually converged tail (smallest V at most 1e-8),
    and raises ValueError otherwise.  Close to -2 for the exact feedback flow.
    """
    floor = _SLOPE_V_FLOOR * max((row[1] for row in trace if math.isfinite(row[1])), default=0.0)
    pts = [(row[0], row[1]) for row in trace if row[1] > floor and math.isfinite(row[1])]
    if len(pts) < _SLOPE_MIN_POINTS:
        raise ValueError("need at least %d trace points with V above %.0e of the largest"
                         % (_SLOPE_MIN_POINTS, _SLOPE_V_FLOOR))
    v_min = min(row[1] for row in trace)
    if v_min > _SLOPE_CONVERGED_V:
        raise ValueError("trace has no converged tail: min V %.3e" % v_min)
    ts = np.array([t for (t, _v) in pts])
    logs = np.log([v for (_t, v) in pts])
    a = np.column_stack([ts, np.ones_like(ts)])
    slope, _intercept = np.linalg.lstsq(a, logs, rcond=None)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# internals

def _integrate(op: MomentOperator, moment: np.ndarray, family: Family, config: SolveConfig,
               start: DualVariable | None, is_flow: bool) -> SolveReport:
    """Path following on the flow clock s = e^{-t} or the interval clock s = 1 - tau."""
    # the range projection sums in memory order: one layout makes equal
    # moments give equal bits, whether computed or read from a file
    moment = np.ascontiguousarray(moment, dtype=complex)
    if not np.all(np.isfinite(moment)):
        raise ValueError("moment has non-finite entries")
    if family.is_inverse_kind and op.grid.dim >= 2 and not config.torus_override:
        raise ValueError(
            "inverse-type families are only covered by the convergence theory on "
            "one-dimensional or discrete supports; pass torus_override to force"
        )

    r_coords, residual = project_to_range(op, moment)
    scale = max(float(np.linalg.norm(moment)), 1e-300)
    if residual > _RANGE_RESIDUAL_TOL * scale:
        return SolveReport(
            status=STATUS_NOT_IN_RANGE,
            lambda_hat=dual_from_coords(op, np.zeros(op.d)),
            V_final=float("nan"), trace=[],
            message="moment lies outside the operator range "
                    "(relative residual %.3e)" % (residual / scale),
        )

    x = (start.coords.copy() if start is not None
         else default_dual_start(op, family).coords)
    ev = _eval_or_fail(op, x, family)
    span = ev.h_coords - r_coords
    on_path_tol = _ON_PATH_RTOL * max(float(np.linalg.norm(span)), float(np.linalg.norm(r_coords)))
    t = 0.0
    v = _mismatch(r_coords, ev.h_coords)
    if is_flow:
        # V = e^{-2t} V(0) on the path, so V meets tol ||R||^2 at t_land; the
        # clock reads s = 0 there, and the step that reaches it lands on R
        v_land = config.tol * float(np.sum(r_coords ** 2))
        t_land = 0.5 * math.log(max(v / v_land, 1.0)) if v_land > 0.0 else math.inf
        clock, t_end, (dt, dt_cap, dt_min) = ((lambda t: 0.0 if t == t_land else math.exp(-t)),
                                              min(t_land, config.t_max), _FLOW_STEPS)
        trial_step = _rk4_step
    else:
        clock, t_end, (dt, dt_cap, dt_min) = (lambda t: 1.0 - t), 1.0, _TAU_STEPS
        trial_step = _rk4_step_tau
    lam_norm = math.hypot(*x)  # scaled inside, so a far-off point's norm stays finite
    trace = [(t, v, ev.min_eig, lam_norm)]
    message = ""

    while True:
        s = clock(t)
        if t == t_end:  # both clocks read s = 0 on R; only the flow can stop short, at t_max
            status = STATUS_CONVERGED if s == 0.0 else STATUS_MAX_TIME
            message = "" if s == 0.0 else "horizon t=%g reached before landing on R" % t_end
            break
        if lam_norm > _LAMBDA_MAX:
            status = STATUS_DIVERGED_UNBOUNDED
            message = "dual norm %.3e exceeded %g at t=%.6f" % (lam_norm, _LAMBDA_MAX, t)
            break

        try:
            # one solve per accepted point, reused by every retry from it: the
            # path tangent and the Newton step back onto the point's own target
            held = _solve_flow_system(ev.flow_jacobian,
                                      np.column_stack([span, r_coords + s * span - ev.h_coords]))
        except _REJECTIONS as exc:
            # every halving would fail the same way, so collapse at once
            reason, dt = str(exc), 0.0
        while dt >= dt_min:
            # land on the end rather than short of it by round-off
            t_new = t + dt if t_end - (t + dt) >= dt_min else t_end
            s_new = clock(t_new)
            try:
                x_new, ev_new, used = trial_step(op, family, x, held @ (s_new - s, 1.0),
                                                 r_coords + s_new * span, on_path_tol)
                break
            except _REJECTIONS as exc:
                reason = str(exc)
                dt *= 0.5
        else:
            status = STATUS_DIVERGED_BOUNDARY
            message = "step collapsed below %g at t=%.6f: %s" % (dt_min, t, reason)
            break

        dt = t_new - t
        x, ev, t = x_new, ev_new, t_new
        v = _mismatch(r_coords, ev.h_coords)
        lam_norm = math.hypot(*x)
        trace.append((t, v, ev.min_eig, lam_norm))
        if used <= _DOUBLING_ITERATIONS:
            dt = min(2.0 * dt, dt_cap)

    return _finalise(op, family, status, x, ev, v, trace, message, fit_slope=is_flow)


def _mismatch(r_coords: np.ndarray, h_coords: np.ndarray) -> float:
    return float(np.sum((r_coords - h_coords) ** 2))


def _eval_or_fail(op, coords, family):
    # for the inverse-type families this raises PositivityError, naming the
    # node, when the adjoint field drops to the positivity floor
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        ev = _evaluate(op, coords, family, need_jacobian=True)
    if not np.all(np.isfinite(ev.h_coords)) or not np.all(np.isfinite(ev.flow_jacobian)):
        raise _StepFailure("non-finite values in evaluation")
    return ev


def _solve_flow_system(flow_jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # The true derivative of h is negative definite inside the feasible
    # region for every family; Cholesky of the symmetric part of its negation
    # (the weighted families' Jacobian is not symmetric at m > 1) doubles as
    # the boundary detector, since approaching the dual-feasible boundary (or
    # a singular weighted field) destroys definiteness.
    sym = -0.5 * (flow_jac + flow_jac.T)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise _StepFailure("Jacobian lost definiteness") from exc
    step = np.linalg.solve(flow_jac, rhs)
    if not np.all(np.isfinite(step)):
        raise _StepFailure("non-finite Newton step")
    return step


@np.errstate(over="ignore")  # a far-off iterate's norms may overflow; it is rejected
def _corrector(op, family, x, step, target, on_path_tol):
    """Newton on h(lam) = target from ``x`` whose first step is ``step``.

    Returns the point met within ``on_path_tol``, its evaluation and the
    iteration count; raises one of ``_REJECTIONS`` when the iteration fails.
    """
    for used in range(1, _CORRECTOR_ITERATIONS + 1):
        x = x + step
        ev = _eval_or_fail(op, x, family)
        defect = target - ev.h_coords
        if float(np.linalg.norm(defect)) <= on_path_tol:
            return x, ev, used
        if used < _CORRECTOR_ITERATIONS:
            next_step = _solve_flow_system(ev.flow_jacobian, defect)
            if np.linalg.norm(next_step) > 0.5 * np.linalg.norm(step):
                raise _StepFailure("corrector stopped contracting")
            step = next_step
    raise _StepFailure("corrector missed the path after %d iterations" % _CORRECTOR_ITERATIONS)


# bench/tracing.py counts trial steps by wrapping these two names, so each
# clock calls the one corrector through its own name
_rk4_step = _rk4_step_tau = _corrector


def _finalise(op, family, status, x, ev, v, trace, message,
              fit_slope: bool = True) -> SolveReport:
    lam = dual_from_coords(op, x)
    density = None
    entropy_value = entropy_burg = entropy_vn = pairing = None
    if status == STATUS_CONVERGED:
        density = ev.density
        try:
            # the relative entropy is reported for the exponential sigma families
            log_sigma = family.log_sigma
            if log_sigma is None and family.sigma is not None and not family.is_inverse_kind:
                log_sigma = matrix_log(family.sigma)
            entropy_burg, entropy_vn, entropy_rel = _operator._entropies(
                density, op.grid, log_sigma)
            if family.is_inverse_kind:
                entropy_value = entropy_burg
            else:
                entropy_value = entropy_vn if log_sigma is None else entropy_rel
        except PositivityError:
            pass  # converged density with a marginal node: leave entropies unset
        pairing = inner(lam.matrix, op.basis.assemble(ev.h_coords))
    slope = None
    if fit_slope:
        try:
            slope = lyapunov_slope(trace)
        except ValueError:
            slope = None
    return SolveReport(
        status=status, lambda_hat=lam, V_final=v, trace=trace,
        density=density, entropy_value=entropy_value, entropy_burg=entropy_burg,
        entropy_vonneumann=entropy_vn, pairing_value=pairing,
        fitted_V_slope=slope, message=message,
    )
