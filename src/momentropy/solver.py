"""Homotopy continuation for moment matching.

Matching a target moment ``R`` within a density family means solving
``h(lam) = R`` for the dual variable.  The solver integrates the feedback flow

    dlam/dt = D(lam)^{-1} (R - h(lam)),        D = Frechet derivative of h,

under which the mismatch functional V(lam) = ||R - h(lam)||^2 decays exactly
as dV/dt = -2 V along the continuous flow, so log V against t has slope -2.
When ``R`` is attainable the flow converges to the unique matching dual point;
when it is not, the trajectory leaves every bounded set or collides with the
boundary of the dual-feasible region, and the integrator reports which.

``solve_tau`` integrates the equivalent fixed-interval form

    dlam/dtau = D(lam)^{-1} (R - R0),    tau in [0, 1],   R0 = h(lam_0),

whose exact solution satisfies h(lam_tau) = R0 + tau (R - R0); the integrator
controls the defect from that line, making the run self-validating.

Both forms share one integrator, classical Runge-Kutta 4 with step halving.
The first stage of a step is the velocity at the current point, which the
integrator already evaluated when it accepted that point; it is computed once
per accepted point and reused by every retry from it, so a trial step costs
four evaluations.  When that stage itself fails, no smaller step can succeed
and the run ends at once.
A trial step is rejected when any stage evaluation fails (an inverse-type
adjoint field at the positivity floor, non-finite values), when the Cholesky
factorisation of the symmetric part of the negated Jacobian fails, or when
the form's own test fails: V must decrease along the flow, and the defect
from the line must stay within its budget along the fixed interval.  When the
step collapses, the verdict message carries the reason the last trial step
was rejected.  An accepted convergence of the flow (V below tolerance) is
polished by a few Newton steps on h(lam) = R.

All reductions are evaluated in fixed node order, so results are reproducible
bit for bit on a given platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

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
_POLISH_TARGET_FACTOR = 1e-14
_POLISH_MAX_STEPS = 5

# Step schedule of the feedback flow: the first and largest step, and the
# smallest before the run counts as collapsed.
_FLOW_H0 = 0.1
_FLOW_H_MIN = 1e-12
# Dual norm beyond which a run counts as unbounded.
_LAMBDA_MAX = 1e8
# Relative residual above which R is rejected as lying outside the range.
_RANGE_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SolveConfig:
    """Solver options; the defaults are the contract the tests pin down.

    tol                 convergence threshold on V = ||R - h(lam)||^2
    t_max               horizon of the feedback flow (``solve_tau`` runs over
                        tau in [0, 1] instead)
    torus_override      allow inverse-type families on 2-D supports (the
                        flow is then heuristic: feasibility of the limit is
                        not guaranteed by the 1-D theory)

    ``tol`` and ``t_max`` must be finite and positive; anything else raises
    ValueError.  The step schedule, the positivity floor, the unbounded-dual
    bound and the range tolerance are fixed by the method.
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

    ``trace`` rows are (t, V, min_eig, lambda_norm) per accepted step, with
    min_eig the smallest nodewise eigenvalue of L*(lam).  ``entropy_value``
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
    iterations: int
    trace: list[tuple[float, float, float, float]] = field(repr=False)
    density: np.ndarray | None = field(default=None, repr=False)
    entropy_value: float | None = None
    entropy_burg: float | None = None
    entropy_vonneumann: float | None = None
    pairing_value: float | None = None
    fitted_V_slope: float | None = None
    message: str = ""


class _StepFailure(Exception):
    """Internal: a trial step or stage evaluation could not be completed."""


# Everything that rejects a trial step (or ends the Newton polish).
_REJECTIONS = (_StepFailure, PositivityError, np.linalg.LinAlgError, FloatingPointError)


def solve(op: MomentOperator, moment: np.ndarray, family: Family,
          config: SolveConfig | None = None, start: DualVariable | None = None) -> SolveReport:
    """Match ``moment`` within ``family`` by integrating the feedback flow."""
    return _integrate(op, moment, family, config or SolveConfig(), start, _flow_form)


def solve_tau(op: MomentOperator, moment: np.ndarray, family: Family,
              config: SolveConfig | None = None, start: DualVariable | None = None) -> SolveReport:
    """Integrate the fixed-interval form over tau in [0, 1].

    The step size adapts to hold the defect ||h(lam) - (R0 + tau (R - R0))||
    at the integration tolerance, so a successful run certifies its own path;
    on infeasible targets the step collapses before tau reaches 1 and the run
    reports divergence.  Agrees with :func:`solve` at the fixed point.
    """
    return _integrate(op, moment, family, config or SolveConfig(), start, _tau_form)


def lyapunov_slope(trace: list[tuple[float, float, float, float]]) -> float:
    """Least-squares slope of log V against t over the decaying trace.

    Uses points with V above the numerical floor 1e-13; requires at least 10
    such points and an actually converged tail (smallest V at most 1e-8), and
    raises ValueError otherwise.  Close to -2 for the exact feedback flow.
    """
    pts = [(row[0], row[1]) for row in trace if row[1] > _SLOPE_V_FLOOR and math.isfinite(row[1])]
    if len(pts) < _SLOPE_MIN_POINTS:
        raise ValueError("need at least %d trace points with V above %.0e"
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

class _Form(NamedTuple):
    """What sets one integration form apart; :func:`_integrate` does the rest.

    ``velocity(ev)`` is the form's right-hand side at the evaluated point
    ``ev``, and ``step(x, k1, h)`` its RK4 step from ``x`` whose first stage
    ``k1`` is already known.  ``judge(ev, t, h, score)`` scores
    the trial point ``ev`` reached at time ``t`` from a point scored ``score``
    and raises :class:`_StepFailure` to reject it.  ``done(t, score)`` is the
    end condition, checked before each step; the run stops at ``t_end``
    without it.  The step starts at ``h0``, doubles after each accepted step
    up to ``h_cap``, and halves on rejection down to ``h_min``.  ``is_flow``
    marks the feedback flow, whose converged runs get the Newton polish and
    the slope fit.
    """

    velocity: Callable[..., np.ndarray]
    step: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    judge: Callable[..., float]
    done: Callable[[float, float], bool]
    score: float
    t_end: float
    h0: float
    h_cap: float
    h_min: float
    is_flow: bool


def _flow_form(op, family, config, r_coords, ev) -> _Form:
    # the score is V, which must decrease on every accepted step
    def judge(ev_new, _t, _h, v):
        v_new = _mismatch(r_coords, ev_new.h_coords)
        if not math.isfinite(v_new) or v_new >= v:
            raise _StepFailure("V did not decrease")
        return v_new

    return _Form(
        velocity=lambda ev_at: _flow_velocity(ev_at, r_coords),
        step=lambda x, k1, h: _rk4_step(op, x, k1, h, r_coords, family),
        judge=judge, done=lambda _t, v: v <= config.tol,
        score=_mismatch(r_coords, ev.h_coords), t_end=config.t_max,
        h0=_FLOW_H0, h_cap=_FLOW_H0, h_min=_FLOW_H_MIN, is_flow=True,
    )


def _tau_form(op, family, _config, r_coords, ev) -> _Form:
    r0 = ev.h_coords.copy()
    direction = r_coords - r0
    # The score is the defect from the exact path h(lam_tau) = R0 + tau (R - R0).
    # It may grow by at most h * budget_rate per step, so the total drift over
    # [0, 1] stays near 1e-10 relative to the homotopy span.
    budget_rate = 1e-10 * max(float(np.linalg.norm(direction)), 1e-3)

    def judge(ev_new, tau, h, defect):
        defect_new = float(np.linalg.norm(ev_new.h_coords - (r0 + tau * direction)))
        if not math.isfinite(defect_new) or defect_new > defect + h * budget_rate:
            raise _StepFailure("path defect grew by %.3e" % (defect_new - defect))
        return defect_new

    # tau lives on [0, 1]: with the per-step defect budget above, a step
    # forced below 1e-6 can only mean the path is pinned at the cone
    # boundary, so there is no value in grinding further down
    return _Form(
        velocity=lambda ev_at: _solve_flow_system(ev_at.flow_jacobian, direction),
        step=lambda x, k1, h: _rk4_step_tau(op, x, k1, h, direction, family),
        judge=judge, done=lambda tau, _defect: tau >= 1.0,
        score=0.0, t_end=1.0, h0=0.01, h_cap=0.05, h_min=1e-6, is_flow=False,
    )


def _integrate(op: MomentOperator, moment: np.ndarray, family: Family, config: SolveConfig,
               start: DualVariable | None, make_form) -> SolveReport:
    """Adaptive RK4 with step halving, shared by both forms."""
    if not np.all(np.isfinite(moment)):
        raise ValueError("moment has non-finite entries")
    if family.is_inverse_kind and op.grid.dim >= 2 and not config.torus_override:
        raise ValueError(
            "inverse-type families are only covered by the convergence theory on "
            "one-dimensional or discrete supports; pass torus_override to force"
        )

    r_coords, residual = project_to_range(op, moment)
    scale = max(float(np.linalg.norm(np.asarray(moment))), 1e-300)
    if residual > _RANGE_RESIDUAL_TOL * scale:
        return SolveReport(
            status=STATUS_NOT_IN_RANGE,
            lambda_hat=dual_from_coords(op, np.zeros(op.d)),
            V_final=float("nan"), iterations=0, trace=[],
            message="moment lies outside the operator range "
                    "(relative residual %.3e)" % (residual / scale),
        )

    x = (start.coords.copy() if start is not None
         else default_dual_start(op, family).coords)
    ev = _eval_or_fail(op, x, family)
    form = make_form(op, family, config, r_coords, ev)
    score = form.score
    t = 0.0
    h = form.h0
    iterations = 0
    trace = [(t, _mismatch(r_coords, ev.h_coords), ev.min_eig, float(np.linalg.norm(x)))]
    message = ""

    while True:
        if form.done(t, score):
            status = STATUS_CONVERGED
            break
        lam_norm = float(np.linalg.norm(x))
        if lam_norm > _LAMBDA_MAX:
            status = STATUS_DIVERGED_UNBOUNDED
            message = "dual norm %.3e exceeded %g at t=%.6f" % (lam_norm, _LAMBDA_MAX, t)
            break
        if form.t_end - t < form.h_min:
            # the rest of the horizon is below temporal resolution
            status = STATUS_MAX_TIME
            message = "horizon t=%g reached before the end condition held" % form.t_end
            break

        h = min(h, form.t_end - t)
        reason = ""
        try:
            # the first RK4 stage depends on x alone: take it from the
            # evaluation in hand and reuse it for every retry from x
            k1 = form.velocity(ev)
        except _REJECTIONS as exc:
            # every halving would fail the same way, so collapse at once
            reason, h = str(exc), 0.0
        while h >= form.h_min:
            try:
                x_new = form.step(x, k1, h)
                ev_new = _eval_or_fail(op, x_new, family)
                score_new = form.judge(ev_new, t + h, h, score)
                break
            except _REJECTIONS as exc:
                reason = str(exc)
                h *= 0.5
        else:
            status = STATUS_DIVERGED_BOUNDARY
            message = "step collapsed below %g at t=%.6f: %s" % (form.h_min, t, reason)
            break

        x, ev, score = x_new, ev_new, score_new
        t += h
        iterations += 1
        trace.append((t, _mismatch(r_coords, ev.h_coords), ev.min_eig, float(np.linalg.norm(x))))
        h = min(2.0 * h, form.h_cap)

    if status == STATUS_CONVERGED and form.is_flow:
        x, ev, polish_steps = _newton_polish(op, x, ev, r_coords, family)
        iterations += polish_steps

    return _finalise(op, family, status, x, ev, _mismatch(r_coords, ev.h_coords),
                     iterations, trace, message, fit_slope=form.is_flow)


def _mismatch(r_coords: np.ndarray, h_coords: np.ndarray) -> float:
    return float(np.sum((r_coords - h_coords) ** 2))


def _eval_or_fail(op, coords, family):
    # for the inverse-type families this raises PositivityError, naming the
    # node, when the adjoint field drops to the positivity floor
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        ev = _evaluate(op, coords, family, need_jacobian=True)
    if not np.all(np.isfinite(ev.h_coords)) or not np.all(np.isfinite(ev.flow_jacobian)):
        raise _StepFailure("non-finite values in stage evaluation")
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
    velocity = np.linalg.solve(flow_jac, rhs)
    if not np.all(np.isfinite(velocity)):
        raise _StepFailure("non-finite flow velocity")
    return velocity


def _rk4(x: np.ndarray, k1: np.ndarray, h: float, velocity) -> np.ndarray:
    k2 = velocity(x + 0.5 * h * k1)
    k3 = velocity(x + 0.5 * h * k2)
    k4 = velocity(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _flow_velocity(ev, r_coords: np.ndarray) -> np.ndarray:
    return _solve_flow_system(ev.flow_jacobian, r_coords - ev.h_coords)


def _rk4_step(op, x, k1, h, r_coords, family) -> np.ndarray:
    def velocity(coords):
        return _flow_velocity(_eval_or_fail(op, coords, family), r_coords)

    return _rk4(x, k1, h, velocity)


def _rk4_step_tau(op, x, k1, h, direction, family) -> np.ndarray:
    def velocity(coords):
        return _solve_flow_system(_eval_or_fail(op, coords, family).flow_jacobian, direction)

    return _rk4(x, k1, h, velocity)


def _newton_polish(op, x, ev, r_coords, family):
    v = _mismatch(r_coords, ev.h_coords)
    target = _POLISH_TARGET_FACTOR * max(float(np.sum(r_coords ** 2)), 1e-300)
    steps = 0
    for _ in range(_POLISH_MAX_STEPS):
        if v <= target:
            break
        try:
            x_try = x + _flow_velocity(ev, r_coords)
            ev_try = _eval_or_fail(op, x_try, family)
        except _REJECTIONS:
            break
        v_try = _mismatch(r_coords, ev_try.h_coords)
        if not math.isfinite(v_try) or v_try >= v:
            break
        x, ev, v = x_try, ev_try, v_try
        steps += 1
    return x, ev, steps


def _finalise(op, family, status, x, ev, v, iterations, trace, message,
              fit_slope: bool = True) -> SolveReport:
    lam = dual_from_coords(op, x)
    density = None
    entropy_value = entropy_burg = entropy_vn = pairing = None
    if status == STATUS_CONVERGED:
        density = ev.density
        try:
            entropy_burg = _operator.entropy(density, op.grid, "burg")
            entropy_vn = _operator.entropy(density, op.grid, "vonneumann")
            if family.is_inverse_kind:
                entropy_value = entropy_burg
            elif family.sigma is not None:
                entropy_value = _operator.entropy(density, op.grid, "relative", sigma=family.sigma)
            else:
                entropy_value = entropy_vn
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
        status=status, lambda_hat=lam, V_final=v, iterations=iterations, trace=trace,
        density=density, entropy_value=entropy_value, entropy_burg=entropy_burg,
        entropy_vonneumann=entropy_vn, pairing_value=pairing,
        fitted_V_slope=slope, message=message,
    )
