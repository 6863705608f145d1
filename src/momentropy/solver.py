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
the unique matching dual point; when it is not, it leaves every bounded set,
and its direction separates ``R`` from the cone of attainable moments.

Four statuses end a run.  ``Converged``: a strictly positive density of the
family reproduces ``R``.  ``DivergedCertified``: a dual point y with
L*(y) >= 0 at every node and <y, R> < 0 was found, which proves that no
positive density of any family has moment ``R`` (for positive rho,
<y, L(rho)> = sum_n w_n tr(L*(y)_n rho_n) >= 0).  ``NotInRange``: ``R`` lies
outside the operator's range.  ``Inconclusive``: the run stopped without
either, because its start could not be evaluated, its step collapsed, its
dual norm passed 1e8 max(1, ||x_0||) (x_0 the run's start) or the run
reached its horizon.

Without an explicit start, the run starts at ``default_dual_start`` scaled
to the target, so that its verdict and its step count depend little on the
size of ``R``.  With lam_0 that point and c = <R, h(lam_0)> / ||h(lam_0)||^2
the least-squares scale of its moment, the start is lam_0 / c for the inverse
families, where h(lam / c) = c h(lam), and lam_0 - ln(c) lam_I for the
exponential ones, where h(lam - ln(c) lam_I) = c h(lam) when L*(lam_I) = I
and nearly so when L*(lam_I) is close to it.  It stays lam_0 when c is not
positive and finite, when the scaled start is not finite (lam_0 / c for a
subnormal c), and on operators with no strictly positive L*(lam_I).  An
explicit start is never rescaled.

Every accepted point x, the start included, is tested for a certificate at
the cost of one dot product.  Once per operator the least-squares identity
dual lam_I (L*(lam_I) = I as nearly as the range allows) and the eigenvalues
of L*(lam_I) are computed and kept with it, for every solve on it; a solve
of any family, from any start, takes a_I = min eig L*(lam_I) and
p_I = <lam_I, R> / ||R||.  The tests pair dual points with R / ||R||,
computed once per solve, so that no size of R under- or overflows them.
When p_I < 0, lam_I itself is the candidate at step 0, checked before the
start is evaluated.  At x, whose evaluation holds min_eig = min eig L*(x),
the point y = x + delta lam_I with delta = max(0, -min_eig) / a_I has
L*(y) >= 0, and <y, R> / ||R|| = <x, R> / ||R|| + delta p_I.  For the
inverse families delta = 0, since their points are strictly dual-feasible.
When that margin is negative, y is checked in full: it is a certificate
when y is not 0, <y, R> lies below -1e-9 ||R|| ||y|| and the eigenvalues of
L*(y) at every node are above -1e-12 times the largest, so that rounding in
delta cannot certify; a y that fails the check is dropped and the run goes
on.  Where L*(lam_I) is not strictly positive, only points with
min_eig >= 0 are tested, with y = x.

Both clocks share one path follower, so every accepted point lies on the path
within the corrector's tolerance, and one step schedule in the flow's time
t = -ln s, which ``solve_tau`` reports as tau = 1 - e^{-t}.  A trial step from
t to t + dt is Newton's method on h(lam) = R + s(t + dt) (R0 - R).  Its first
iterate uses the Jacobian held at the accepted point, solved once and reused
by every retry (when that solve fails, no smaller step can succeed and the run
ends at once); each further iterate costs one evaluation, at most four per
step.  A step is rejected when an evaluation fails (an inverse-type adjoint
field at the positivity floor, non-finite values), when the Jacobian is
singular, or when the corrector stops contracting (from the second iterate
on, a defect ||target - h|| above half the last, in the run's unit) or misses
the path; it then halves, and below 1e-12 the run collapses.  Only the landing
on R is the answer, so a point short of it is met within the larger of
1e-10 max(||R0 - R||, ||R||) and eta |ds| ||R0 - R||, eta = 1e-4 and ds the
step's move of s (Allgower & Georg 1990, ch. 6, size the corrector tolerance
by the step): the defect it keeps is the second column of its held solve, so
the next step corrects it.  The landing is met within the smaller of
1e-10 max(||R0 - R||, ||R||) and sqrt(tol) ||R||, so a converged run has
V <= tol ||R||^2 however far its start missed R.

The inverse families size their steps by the Newton decrement of the dual
functional Psi_R(lam) = <lam, R> - sum_n w_n log det L*(lam)_n, which is
self-concordant with Hessian -J: moving the target by ds from an accepted
point costs ds nu, with nu^2 = -(R0 - R) . J^{-1} (R0 - R) read from the held
solve in the run's unit, and invariant under R -> c R.  So the next step moves
s by theta / nu (dt = -log(1 - theta / (nu s)), or the cap once theta / nu
reaches s).  theta starts at 0.5, halves with every rejected trial and doubles
back toward 0.5 after a step met within three iterations.  Where nu^2 is not
positive and finite (the weighted rational family's J need not be symmetric at
m > 1) the step falls back to doubling.  The exponential families' Psi is not
self-concordant, and their nu is large wherever the start misses R, so their
step starts at 0.1 and doubles after a step met within three iterations, up to
the cap; on the interval clock the step that moves the exponent by theta is
taken where longer: s moves by theta / kappa, kappa the largest |eigenvalue|
over the nodes of L*(lam'), lam' = J^{-1} (R0 - R) the tangent the held solve
gives.  The cap is 8 on the interval clock.  On the flow clock, whose trace
feeds the slope fit, it is min(1, t_end / 10), t_end the run's end, but not
below the floor, and it bounds the first step too, so a flow run takes at
least ten steps to its end unless that end is within ten floors of its start.

numpy's error state is held for the whole run, so a far-off iterate's overflow
is silent and the finiteness checks reject it, and no size of R makes a run
warn.  A collapsed step's verdict message carries the reason for the last
rejection.  Both clocks end on R itself: s reads 0, and tau 1, at the time
t_land where V would reach ``tol * ||R||^2`` on the path, so each run's last
step is a corrector step onto R, and a run converges only by meeting it before
the horizon ``t_max``.  A start already within that threshold is the end of
its path, and the run converges there without a step.  Each size of R's order
that a run reads is scaled by one power of two, at R's largest range
coordinate, so none under- or overflows, and the trace reports V in R's own
units.

All reductions are evaluated in fixed node order, so results are reproducible
bit for bit on a given platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import _norm, _sampled_field
from .errors import PositivityError
from .families import Family, _evaluate, default_dual_start
from .operator import DualVariable, MomentOperator, dual_from_coords, project_to_range
from . import operator as _operator

STATUS_CONVERGED = "Converged"
STATUS_DIVERGED_CERTIFIED = "DivergedCertified"
STATUS_NOT_IN_RANGE = "NotInRange"
STATUS_INCONCLUSIVE = "Inconclusive"

_SLOPE_V_FLOOR = 1e-13
_SLOPE_MIN_POINTS = 10
_SLOPE_CONVERGED_V = 1e-8

# Step schedule in the flow's time t = -ln s: the first step (unless theta
# sets it), the floor, and each clock's cap; the flow's trace feeds the slope
# fit, which needs _SLOPE_MIN_POINTS points, so its cap is also at most
# 1 / _SLOPE_MIN_POINTS of the run's end, but not below the floor.
_STEPS = (0.1, 1e-12)
_FLOW_CAP, _TAU_CAP = 1.0, 8.0
# Corrector: iterations per trial step, the largest iteration count after
# which the step and theta still double, the distance from the path,
# relative to max(||R0 - R||, ||R||), at which a point counts as on it, and
# the distance, relative to the step's move of the target |ds| ||R0 - R||,
# that a point short of R may keep instead when larger (from 1.7e-4 on, the
# statecov certificate of R - L(I) at 1e-12 is lost on the interval clock).
_CORRECTOR_ITERATIONS = 4
_DOUBLING_ITERATIONS = 3
_ON_PATH_RTOL = 1e-10
_ETA = 1e-4
# theta's start: the largest Newton decrement (inverse families) or move of
# the exponent (exponential ones, interval clock) a step may spend.
_THETA = 0.5
# A run stops as inconclusive once its dual norm passes this times
# max(1, ||x_0||), x_0 its start.
_LAMBDA_MAX = 1e8
# A dual point y with L*(y) >= 0 separates R when <y, R> < -this * ||R|| ||y||.
_CERTIFICATE_RTOL = 1e-9
# L*(y) counts as positive semidefinite when its least eigenvalue over the
# nodes is above -this times its largest.
_PSD_RTOL = 1e-12
# Relative residual above which R is rejected as lying outside the range.
_RANGE_RESIDUAL_TOL = 1e-8
# numpy's error state over a run: a far-off point's field, density and norms
# may overflow, and the finiteness checks reject it.
_QUIET = dict(invalid="ignore", over="ignore", under="ignore")


@dataclass(frozen=True)
class SolveConfig:
    """Solver options; the defaults are the contract the tests pin down.

    tol                 relative convergence threshold: the flow lands on R
                        once V = ||R - h(lam)||^2 would fall to tol * ||R||^2
    t_max               horizon of either clock in the flow's time
                        t = -ln s (``solve_tau`` reports tau = 1 - e^{-t})
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
class Certificate:
    """Proof that no positive density has the target moment R.

    ``dual`` is a point y with L*(y) >= 0 at every node and <y, R> < 0;
    ``margin`` is <y, R> / (||R|| ||y||), ``node`` the node where L*(y) has
    its smallest eigenvalue and ``step`` the accepted step (0 for the start)
    at which y was found.
    """

    dual: DualVariable = field(repr=False)
    margin: float
    node: int
    step: int


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a continuation run.

    ``trace`` rows are (t, V, min_eig, lambda_norm) for the start and each
    accepted step, so a run took ``len(trace) - 1`` steps, with min_eig the
    smallest nodewise eigenvalue of L*(lam).  ``entropy_value``
    is the family's canonical objective at the solution (Burg-type for the
    inverse families, von Neumann for exponential, relative to sigma for the
    weighted and prior exponential families); ``entropy_burg`` /
    ``entropy_vonneumann`` and ``pairing_value`` (= <lam, L(rho)>, which is
    <lam, R> at the matched solution; only for ``rational`` does it equal
    m * measure(support), since tr(A A^{-1}) = m at every node) are
    diagnostics, set on ``Converged`` runs only.  ``fitted_V_slope`` is the
    fitted log-V decay rate of a ``solve`` run; it is None on ``solve_tau``
    runs and where :func:`lyapunov_slope` refuses the trace: fewer than 10
    points with V above 1e-13 of its largest, or no converged tail.  A flow
    run steps at most a tenth of the way to its end, so it has its ten points
    unless it ends early (a certificate, a collapsed step, the dual-norm
    bound) or its start already meets the landing threshold.
    ``certificate`` is set on ``DivergedCertified`` runs only.  A
    ``NotInRange`` report has a zero ``lambda_hat`` and an empty trace; a run
    whose start could not be evaluated has that start as ``lambda_hat``, a
    NaN ``V_final``, an empty trace and, when lam_I separates R, lam_I as its
    certificate at step 0.  Malformed input gets no report: a non-finite
    moment, a start that is not d real, finite coordinates (it is read as
    every dual point is, by ``operator._dual_coords``), and a family's sigma
    (phi for the weighted rational family) that is not a finite (N, m, m)
    field of this operator raise ValueError.
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
    certificate: Certificate | None = None


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
    infeasible targets the run stops at its first separating certificate.
    It steps in t = -ln(1 - tau) as :func:`solve` does, with a larger cap
    (it fits no slope), and agrees with :func:`solve` at the fixed point.
    """
    return _integrate(op, moment, family, config or SolveConfig(), start, is_flow=False)


def lyapunov_slope(trace: list[tuple[float, float, float, float]]) -> float:
    """Least-squares slope of log V against t over the decaying trace.

    Uses points with V above the numerical floor, 1e-13 of the trace's
    largest V (which leaves out the flow's landing on R); requires at least
    10 such points and an actually converged tail (smallest V at most 1e-8
    of the largest, so the test does not depend on the size of R), and
    raises ValueError otherwise.  Close to -2 for the exact feedback flow.
    """
    v_max = max((row[1] for row in trace if math.isfinite(row[1])), default=0.0)
    pts = [(row[0], row[1]) for row in trace
           if row[1] > _SLOPE_V_FLOOR * v_max and math.isfinite(row[1])]
    if len(pts) < _SLOPE_MIN_POINTS:
        raise ValueError("need at least %d trace points with V above %.0e of the largest"
                         % (_SLOPE_MIN_POINTS, _SLOPE_V_FLOOR))
    v_min = min(row[1] for row in trace)
    if v_min > _SLOPE_CONVERGED_V * v_max:
        raise ValueError("trace has no converged tail: min V %.3e of the largest" % (v_min / v_max))
    ts = np.array([t for (t, _v) in pts])
    logs = np.log([v for (_t, v) in pts])
    a = np.column_stack([ts, np.ones_like(ts)])
    slope, _intercept = np.linalg.lstsq(a, logs, rcond=None)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# internals

@np.errstate(**_QUIET)  # held for the whole run: its evaluations, solves and norms
def _integrate(op: MomentOperator, moment: np.ndarray, family: Family, config: SolveConfig,
               start: DualVariable | None, is_flow: bool) -> SolveReport:
    """Path following in s = e^{-t}, reported as t (flow) or tau = 1 - s (interval)."""
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
    # inputs built for another problem meet the operator here, once per solve;
    # the weighted rational family is named by its factor phi, the others by sigma
    name = "phi" if family.kind == "weighted_rational" else "sigma"
    if getattr(family, name) is not None:
        _sampled_field(getattr(family, name), name, op.node_count, op.m)
    start = start if start is None else _operator._dual_coords(op, start, "start")

    r_coords, residual = project_to_range(op, moment)
    r_size = _norm(moment)
    defect = residual / r_size if r_size else 0.0
    if defect > _RANGE_RESIDUAL_TOL:
        return _finalise(op, family, STATUS_NOT_IN_RANGE, np.zeros(op.d), None, float("nan"), [],
                         "moment lies outside the operator range "
                         "(relative residual %.3e)" % defect)

    x = start if start is not None else default_dual_start(op, family).coords
    # lam_I and a_I = min eig L*(lam_I), the same for every family and start
    lam_i, eigs_i = op.identity_dual
    try:
        a_i = _operator._check_dual_floor(eigs_i)
    except PositivityError:
        # no strictly positive L*(lam_I): only points with L*(x) >= 0 can certify
        lam_i, a_i = None, math.inf
    # R / ||R||, so that the certificate tests neither under- nor overflow
    # with the size of R
    r_norm = math.hypot(*r_coords.tolist())
    r_unit = r_coords / r_norm if r_norm > 0.0 else r_coords
    p_i = 0.0 if lam_i is None else float(r_unit @ lam_i)
    # L*(lam_I) > 0, so lam_I separates R when <lam_I, R> < 0, start or no start
    certificate = _certificate(op, lam_i, r_unit, 0) if p_i < 0.0 else None
    try:
        if start is None and lam_i is not None:
            # scale the default start to R, with c the least-squares fit of h(lam)
            # to R: h(lam/c) = c h(lam) (inverse), and h(lam - ln(c) lam_I) = c h(lam)
            # (exponential) when L*(lam_I) = I, and nearly so when it is near I
            ev0 = _eval_or_fail(op, x, family, need_jacobian=False)
            # h is divided by its largest entry first, so ||h||^2 stays in range
            peak, c = float(np.abs(ev0.h_coords).max()), 0.0
            if peak > 0.0:
                unit = ev0.h_coords / peak
                c = float(r_coords @ unit) / float(unit @ unit) / peak
            if c > 0.0 and math.isfinite(c):
                scaled = x / c if family.is_inverse_kind else x - math.log(c) * lam_i
                if np.isfinite(scaled).all():
                    x = scaled
        ev = _eval_or_fail(op, x, family)
    except _REJECTIONS as exc:
        status, message = ((STATUS_INCONCLUSIVE, "start evaluation failed: %s" % exc)
                           if certificate is None else
                           (STATUS_DIVERGED_CERTIFIED, _certified_message(certificate, 0.0)))
        return _finalise(op, family, status, x, None, float("nan"), [], message, certificate)
    # the run's unit, 2^1023 for subnormal R; np.ldexp scales V back (math.ldexp would raise)
    exp = max(int(np.frexp(np.abs(r_coords).max(initial=0.0))[1]), -1023)
    unit = 2.0 ** -exp
    span = ev.h_coords - r_coords
    span_norm = math.sqrt(_squared(span, unit))
    on_path_tol = _ON_PATH_RTOL * max(span_norm, math.sqrt(_squared(r_coords, unit)))
    t = 0.0
    v = _squared(r_coords - ev.h_coords, unit)
    # both clocks step in t = -ln s.  V = e^{-2t} V(0) on the path, so V meets
    # tol ||R||^2 at t_land, where s reads 0 and the step that reaches it lands
    # on R; a start within tol ||R||^2 of R lands at once
    v_land = config.tol * _squared(r_coords, unit)
    t_land = 0.5 * math.log(max(v / v_land, 1.0)) if v_land > 0.0 else math.inf
    # the landing meets R within the contract V <= tol ||R||^2
    land_tol = min(on_path_tol, math.sqrt(v_land))
    t_end, (dt, dt_min) = min(t_land, config.t_max), _STEPS
    dt_cap, trial_step = ((min(_FLOW_CAP, max(t_end / _SLOPE_MIN_POINTS, dt_min)), _rk4_step)
                          if is_flow else (_TAU_CAP, _rk4_step_tau))
    dt = min(dt, dt_cap)
    theta = _THETA

    def clock(t):
        return 0.0 if t == t_land else math.exp(-t)

    def step_for(ds, s):  # the dt that moves s by ds, up to the cap
        return min(-math.log1p(-ds / s), dt_cap) if ds < s else dt_cap

    def reported(t):  # solve_tau reports tau = 1 - s, exactly 1 on R
        return t if is_flow else 1.0 if t == t_land else -math.expm1(-t)

    # scaled inside, so a far-off point's norm stays finite; Python floats
    # reach math.hypot faster than numpy scalars
    lam_norm = math.hypot(*x.tolist())
    lam_max = _LAMBDA_MAX * max(1.0, lam_norm)
    trace = [(t, v, ev.min_eig, lam_norm)]

    while True:
        # y = x + delta lam_I has L*(y) >= 0, and <y, R> costs one dot product;
        # _certificate checks a candidate in full
        if certificate is None and (lam_i is not None or ev.min_eig >= 0.0):
            delta = max(0.0, -ev.min_eig / a_i)
            if float(r_unit @ x) + delta * p_i < 0.0:
                certificate = _certificate(op, x + delta * lam_i if delta else x, r_unit,
                                           len(trace) - 1)
        if certificate is not None:
            status = STATUS_DIVERGED_CERTIFIED
            message = _certified_message(certificate, reported(t))
            break
        s = clock(t)
        if t == t_end:  # s reads 0 on R; a run stops short of it only at t_max
            status = STATUS_CONVERGED if s == 0.0 else STATUS_INCONCLUSIVE
            message = "" if s == 0.0 else "horizon t=%g reached before landing on R" % t_end
            break
        if lam_norm > lam_max:
            status = STATUS_INCONCLUSIVE
            message = "dual norm %.3e exceeded %.3e at t=%.6f" % (lam_norm, lam_max, reported(t))
            break

        try:
            # one solve per accepted point, reused by every retry from it: the
            # path tangent and the Newton step back onto the point's own target
            held = _solve_flow_system(ev.flow_jacobian,
                                      np.array((span, r_coords + s * span - ev.h_coords)).T)
        except _REJECTIONS as exc:
            # every halving would fail the same way, so collapse at once
            reason, dt = str(exc), 0.0
        else:
            if family.is_inverse_kind:
                # Newton decrement: moving the target by ds costs ds nu, with
                # nu^2 = -(R0 - R) . J^{-1} (R0 - R) read in the run's unit;
                # where J is not negative definite it need not be positive,
                # and the doubled dt stands
                nu2 = -float((span * unit) @ (held[:, 0] / unit))
                if 0.0 < nu2 < math.inf:
                    dt = max(step_for(theta / math.sqrt(nu2), s), dt_min)
            elif not is_flow:
                # moving the target by ds moves the exponent by ds L*(lam'), lam'
                # the tangent: by at most theta, unless the doubled dt is longer
                kappa = float(np.abs(_operator._field_eigs(op, held[:, 0])).max())
                if 0.0 < kappa < math.inf:
                    dt = max(step_for(theta / kappa, s), dt)
        while dt >= dt_min:
            # land on the end rather than short of it by round-off
            t_new = t + dt if t_end - (t + dt) >= dt_min else t_end
            s_new = clock(t_new)
            # a point on the way is met as closely as its step moves the target
            trial_tol = (max(on_path_tol, _ETA * (s - s_new) * span_norm) if s_new > 0.0
                         else land_tol)
            try:
                x_new, ev_new, used = trial_step(op, family, x, held @ (s_new - s, 1.0),
                                                 r_coords + s_new * span, trial_tol, unit)
                break
            except _REJECTIONS as exc:
                reason = str(exc)
                dt, theta = 0.5 * dt, 0.5 * theta
        else:
            status = STATUS_INCONCLUSIVE
            message = "step collapsed below %g at t=%.6f: %s" % (dt_min, reported(t), reason)
            break

        dt = t_new - t
        x, ev, t = x_new, ev_new, t_new
        v = _squared(r_coords - ev.h_coords, unit)
        lam_norm = math.hypot(*x.tolist())
        trace.append((t, v, ev.min_eig, lam_norm))
        if used <= _DOUBLING_ITERATIONS:
            dt, theta = min(2.0 * dt, dt_cap), min(2.0 * theta, _THETA)

    trace = [(reported(t), float(np.ldexp(v, 2 * exp)), *rest) for (t, v, *rest) in trace]
    return _finalise(op, family, status, x, ev, trace[-1][1], trace, message, certificate, is_flow)


def _certificate(op, y, r_unit, step) -> Certificate | None:
    """The certificate at dual coordinates y, or None unless y is not zero,
    <y, R> lies below -_CERTIFICATE_RTOL ||R|| ||y|| and L*(y) is positive
    semidefinite at every node, all checked here; ``r_unit`` is R / ||R||."""
    y_norm = math.hypot(*y.tolist())
    margin = float(r_unit @ y) / y_norm if y_norm > 0.0 else 0.0
    if not margin < -_CERTIFICATE_RTOL:
        return None
    eigs = _operator._field_eigs(op, y)
    if eigs.min() < -_PSD_RTOL * eigs.max():
        return None
    return Certificate(dual=dual_from_coords(op, y), margin=margin,
                       node=int(np.argmin(eigs.min(axis=1))), step=step)


def _certified_message(cert: Certificate, t: float) -> str:
    return ("separating certificate at step %d (t=%.6f): <y, R> = %.3e ||R|| ||y||, "
            "L*(y) >= 0 least at node %d" % (cert.step, t, cert.margin, cert.node))


def _squared(v: np.ndarray, unit: float) -> float:
    v = v * unit  # a power of two: the scaling is exact
    return float(v @ v)


def _eval_or_fail(op, coords, family, need_jacobian=True):
    # for the inverse-type families this raises PositivityError, naming the
    # node, when the adjoint field drops to the positivity floor; callers
    # hold numpy's error state at _QUIET
    ev = _evaluate(op, coords, family, need_jacobian=need_jacobian)
    if not np.isfinite(ev.h_coords).all() or (
            need_jacobian and not np.isfinite(ev.flow_jacobian).all()):
        raise _StepFailure("non-finite values in evaluation")
    return ev


def _solve_flow_system(flow_jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # LU, since -Z Y^T is not symmetric where the moment-side images differ
    # from L*'s (weighted families, m > 1); Newton needs it invertible, not definite
    try:
        step = np.linalg.solve(flow_jac, rhs)
    except np.linalg.LinAlgError as exc:
        raise _StepFailure("singular Jacobian") from exc
    if not np.isfinite(step).all():
        raise _StepFailure("non-finite Newton step")
    return step


@np.errstate(**_QUIET)  # its run holds it too; this serves a corrector called alone
def _corrector(op, family, x, step, target, tol, unit):
    """Newton on h(lam) = target from ``x`` whose first step is ``step``.

    Returns the point met within ``tol``, a distance in the run's
    ``unit``, with its evaluation and the iteration count; raises one of
    ``_REJECTIONS`` when the iteration fails.
    """
    last = math.inf
    for used in range(1, _CORRECTOR_ITERATIONS + 1):
        x = x + step
        ev = _eval_or_fail(op, x, family)
        defect = target - ev.h_coords
        size = math.sqrt(_squared(defect, unit))
        if size <= tol:
            return x, ev, used
        # from the second iterate on, each defect is at most half the last
        if size > 0.5 * last:
            raise _StepFailure("corrector stopped contracting")
        if used < _CORRECTOR_ITERATIONS:
            step = _solve_flow_system(ev.flow_jacobian, defect)
        last = size
    raise _StepFailure("corrector missed the path after %d iterations" % _CORRECTOR_ITERATIONS)


# bench/tracing.py counts trial steps by wrapping these two names, so each
# clock calls the one corrector through its own name
_rk4_step = _rk4_step_tau = _corrector


def _finalise(op, family, status, x, ev, v, trace, message,
              certificate: Certificate | None = None, fit_slope: bool = False) -> SolveReport:
    lam = dual_from_coords(op, x)
    density = None
    entropy_value = entropy_burg = entropy_vn = pairing = None
    if status == STATUS_CONVERGED:
        density = ev.density
        try:
            log_sigma = family.reference_log
            entropy_burg, entropy_vn, entropy_rel = _operator._entropies(
                density, op.grid, log_sigma)
            if family.is_inverse_kind:
                entropy_value = entropy_burg
            else:
                entropy_value = entropy_vn if log_sigma is None else entropy_rel
        except PositivityError:
            pass  # converged density with a marginal node: leave entropies unset
        # <lam, L(rho)>: the range basis is orthonormal under Re tr(X* Y)
        pairing = float(x @ ev.h_coords)
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
        fitted_V_slope=slope, message=message, certificate=certificate,
    )
