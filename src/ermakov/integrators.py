"""Time steppers producing Trajectories.

Three methods:

* ``integrate_fixed_rk4`` -- the classical 4th-order Runge-Kutta scheme
  at fixed dt, sampling every ``output_stride`` (dt must subdivide the
  stride exactly).
* ``integrate_adaptive54`` -- the 7-stage Dormand-Prince 5(4) embedded
  pair with FSAL, proportional-integral step control and the pair's own
  4th-order-continuous dense output, which samples the stride plan and
  any extra times.
* ``integrate_verlet`` -- Stormer-Verlet (kick-drift-kick) for a
  separable autonomous y = [Q, Q'] such as the transformed frame
  (``integrate_verlet_Q``); symplectic, so energy errors stay bounded.

Every stepper passes its grid through ``model.check_plan`` first, which
raises IntegrationError before any right-hand-side call, then runs
forward in time and samples the stride plan (``model.sample_times``):
its start, each whole stride and, after a remainder, t_end.  RK4 and
Verlet share one driver (``_fixed_steps``): steps of dt, the last one
shorter to reach t_end.

The RK4 and DP54 steps, and DP54's dense output, are straight-line
functions generated once per state width, on first use.  The right-hand
side must return exactly one value per state component; each stepper
checks this on its first call.  All steppers abort on a
singularity-guard trip or a domain error from the right-hand side, the
first call included, attaching the partial trajectory and last valid
sample to the raised exception; an error raised at a non-finite stage
state is reported as that state (IntegrationError).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from typing import Callable, Sequence

from . import model
from .dynamics import _qframe_ode
from .errors import ErmakovError, IntegrationError, SingularityError
from .expr import Func1, is_zero, make_function
from .model import QFrameState, check_plan, sample_times, time_tolerance

__all__ = [
    "Trajectory",
    "integrate_fixed_rk4",
    "integrate_adaptive54",
    "integrate_verlet_Q",
    "integrate_verlet",
    "interpolate",
]

# rhs(t, y) receives the state y as a list of floats and returns dy/dt as
# a sequence of exactly len(y) floats (the generated steps unpack it).
# The steppers keep states and stage slopes as float sequences, and the
# finished Trajectory holds those same rows.
Rhs = Callable[[float, list[float]], Sequence[float]]

_STEP_FLOOR = 1e-14  # below this the adaptive controller gives up


class Trajectory:
    """Ordered samples of one integration run, as plain float lists.

    ``t`` is physical time for the q-f system and tau for the
    transformed frame.  ``y[i]`` is the state at ``t[i]``, and ``dy[i]``
    the right-hand side there, so cubic-Hermite interpolation between
    samples is available.  Its length is the number of samples.
    """

    def __init__(self, t: list[float], y: list[Sequence[float]], dy: list[Sequence[float]],
                 method: str, step_count: int, rejected_steps: int):
        if len(t) == 0:
            raise IntegrationError("trajectory must contain at least one sample")
        if not all(a < b for a, b in zip(t, t[1:])):
            raise IntegrationError("trajectory times must be strictly increasing")
        self.t, self.y, self.dy = t, y, dy
        self.method, self.step_count, self.rejected_steps = method, step_count, rejected_steps

    def __len__(self) -> int:
        return len(self.t)


def interpolate(traj: Trajectory, t_query: float) -> list[float]:
    """Cubic-Hermite interpolation of a trajectory at one time.

    Uses the stored state and right-hand-side samples; O(h^4) accurate
    between samples, exact at them.
    """
    t = traj.t
    if t_query < t[0] - 1e-12 or t_query > t[-1] + 1e-12:
        raise ValueError(f"t={t_query!r} outside trajectory range "
                         f"[{t[0]!r}, {t[-1]!r}]")
    i = bisect_left(t, t_query)
    if i < len(t) and t[i] == t_query:
        return list(traj.y[i])
    if len(t) == 1:  # within the range check's slack of the one sample
        return list(traj.y[0])
    i = max(1, min(i, len(t) - 1))
    t0, t1 = t[i - 1], t[i]
    h = t1 - t0
    th = (t_query - t0) / h
    h00 = (1 + 2 * th) * (1 - th) ** 2
    h10 = th * (1 - th) ** 2
    h01 = th * th * (3 - 2 * th)
    h11 = th * th * (th - 1)
    a, b = h10 * h, h11 * h
    return [h00 * y0 + a * d0 + h01 * y1 + b * d1 for y0, d0, y1, d1
            in zip(traj.y[i - 1], traj.dy[i - 1], traj.y[i], traj.dy[i])]


class _Run:
    """One stepper run's samples, handed to the Trajectory when it
    finishes (``trajectory``) or to the error when it aborts (``fail``).

    Rows are kept by reference: the steppers never modify a state list
    or a slope sequence once it exists."""

    def __init__(self, method: str):
        self.method = method
        self.t: list[float] = []
        self.y: list[Sequence[float]] = []
        self.dy: list[Sequence[float]] = []

    def add(self, t: float, y: Sequence[float], dy: Sequence[float]) -> None:
        self.t.append(float(t))
        self.y.append(y)
        self.dy.append(dy)

    def trajectory(self, steps: int, rejected: int = 0) -> Trajectory:
        return Trajectory(self.t, self.y, self.dy, self.method, steps, rejected)

    def fail(self, err: ErmakovError, steps: int, rejected: int, last_t: float,
             last_y: Sequence[float]) -> None:
        """Attach the last valid state (y at t) and the samples so far."""
        err.last_t = last_t
        err.last_state = list(last_y)
        err.partial = self.trajectory(steps, rejected) if self.t else None


def _finite(y: Sequence[float]) -> bool:
    return all(map(math.isfinite, y))


def _first_slope(rhs: Rhs, t0: float, y: list[float]) -> Sequence[float]:
    """rhs(t0, y), checked once to hold one value per state component."""
    if not y:
        raise IntegrationError("the initial state is empty")
    k = rhs(t0, y)
    if len(k) != len(y):
        raise IntegrationError(f"rhs returned {len(k)} values for a state of "
                               f"{len(y)} components")
    return k


def _fixed_steps(method: str, make_step: Callable, rhs: Rhs, y0: Sequence[float],
                 t0: float, t_end: float, dt: float, output_stride: float) -> Trajectory:
    """Steps of dt from each stride sample of a checked plan, a tail's
    last step ending at t_end.  ``make_step(n)`` gives step(rhs, t, h, y,
    k) -> (y at t + h, its slope or None) for n components, k the slope
    at (t, y) or None; a sample without a slope calls rhs."""
    k_per, k_tail = check_plan(method, t0, t_end, output_stride, dt)

    y = [float(v) for v in y0]
    run = _Run(method)
    steps = 0
    t_last = t0
    times = sample_times(t0, t_end, output_stride)
    tail_seg = len(times) - 2 if k_tail else -1
    try:
        k = _first_slope(rhs, t0, y)
        run.add(t0, y, k)
        step = make_step(len(y))
        for i, (seg, t_out) in enumerate(zip(times, times[1:])):
            last = i == tail_seg
            for j in range(k_tail if last else k_per):
                t = seg + j * dt
                h_j = t_end - t if last and j == k_tail - 1 else dt
                y_new, k = step(rhs, t, h_j, y, k)
                steps += 1
                if not _finite(y_new):
                    raise IntegrationError(f"non-finite state after step at t={t + h_j!r}")
                y, t_last = y_new, t + h_j
            run.add(t_out, y, rhs(t_out, y) if k is None else k)
    except ErmakovError as err:
        # an RHS call failed, or a step left the state non-finite: y is the
        # state at t_last; a failed step commits nothing
        run.fail(err, steps, 0, t_last, y)
        raise
    return run.trajectory(steps)


# --- generated steps ---------------------------------------------------------
# One straight-line function per method and state width n, made on first
# use: the state and stage slopes are unpacked into named floats (a0.. the
# state, bj_0.. stage j's slope, n0.. DP54's new state) and each
# component's arithmetic is written out term for term, in the order the
# elementwise loops it replaced used.  Only the rhs calls can raise.

def _names(prefix: str, n: int) -> str:
    """``"x0, x1, "``: an unpacking target for n components."""
    return "".join(f"{prefix}{i}, " for i in range(n))


def _stage_failed(err: ErmakovError, method: str, stage: int, t: float,
                  state: Sequence[float]) -> None:
    """Report an RHS error at a non-finite stage state as that state: the
    expression the error names only met its NaN or inf."""
    if not _finite(state):
        raise IntegrationError(f"non-finite {method} stage {stage} state "
                               f"at t={float(t)!r}") from err


def _stage_call(stage: int, n: int, method: str, t: str, state: str) -> list[str]:
    """Lines setting k<stage> = rhs(t, state), unpacked into b<stage>_0.."""
    return ["try:", f"    k{stage} = {_names(f'b{stage}_', n)}= rhs({t}, {state})",
            "except _Err as err:",
            f"    _stage_failed(err, {method!r}, {stage}, {t}, {state})",
            "    raise"]


def _generate(params: str, body: list[str], weights: dict[float, str]) -> Callable:
    return make_function(params, body, {
        "_Err": ErmakovError, "_stage_failed": _stage_failed, "_sqrt": math.sqrt,
        "_inf": math.inf, "_ninf": -math.inf, **{v: w for w, v in weights.items()}})


def _weighted(weights: dict[float, str], row: Sequence[float], i: int) -> str:
    """``0.0 + w1 * b1_i + ...`` over the nonzero weights, named in ``weights``."""
    return " + ".join(["0.0"] + [
        f"{weights.setdefault(w, f'w{len(weights)}')} * b{j}_{i}"
        for j, w in enumerate(row, 1) if w != 0.0])


# --- classical RK4 ----------------------------------------------------------

@functools.cache
def _rk4_step(n: int) -> Callable:
    """step(rhs, t, h, y, k) -> (the state one RK4 step of h after (t, y),
    None): ``_fixed_steps``' protocol.  Stage 1 calls rhs; k is unused."""
    body = [f"{_names('a', n)}= y", "hh = 0.5 * h", "h6 = h / 6.0",
            *_stage_call(1, n, "RK4", "t", "y")]
    for j, (w, t_j) in enumerate((("hh", "t + hh"), ("hh", "t + hh"), ("h", "t + h")), 2):
        body += [f"z = [{', '.join(f'a{i} + {w} * b{j - 1}_{i}' for i in range(n))}]",
                 *_stage_call(j, n, "RK4", t_j, "z")]
    body.append("return [" + ", ".join(
        f"a{i} + h6 * (((b1_{i} + 2.0 * b2_{i}) + 2.0 * b3_{i}) + b4_{i})"
        for i in range(n)) + "], None")
    return _generate("rhs, t, h, y, k", body, {})


def integrate_fixed_rk4(rhs: Rhs, y0: Sequence[float], t0: float, t_end: float,
                        dt: float, output_stride: float) -> Trajectory:
    """Fixed-step RK4 (``_fixed_steps``); each sample calls rhs for its slope."""
    return _fixed_steps("rk4", _rk4_step, rhs, y0, t0, t_end, dt, output_stride)


# --- Dormand-Prince 5(4) ----------------------------------------------------

# Dormand-Prince tableau: c_j and a_j1.. of stages j = 2..7, the error
# weights e = b5 - b4 (local truncation error) and the weights d of the
# 4th-order-continuous dense output.  c6 = c7 = 1; a72 = e2 = d2 = 0,
# and the generated sums omit zero terms.  Every sum runs left to right
# from 0.0, so a leading -0.0 term still sums to +0.0 and an omitted 0*k
# term would not have changed it.
_DP_C = (1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = ((1.0 / 5.0,),
         (3.0 / 40.0, 9.0 / 40.0),
         (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
         (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
         (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
          -5103.0 / 18656.0),
         (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0))
_DP_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
         22.0 / 525.0, -1.0 / 40.0)
_DP_D = (-12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
         -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
         -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


@functools.cache
def _dp54_step(n: int) -> Callable:
    """step(rhs, t, h, y, k1, tol) -> (err_norm, y_new, k3, k4, k5, k6, k7).

    err_norm is 10.0 when y_new is not finite, else the RMS of
    err / (tol + tol*max(|y|, |y_new|)): the squares are added left to
    right from 0.0, the order in which ``np.mean`` sums fewer than 8
    values (numpy sums 8 or more pairwise), and ``r * r`` gives inf where
    ``r ** 2`` would raise OverflowError."""
    weights: dict[float, str] = {}
    body = [f"{_names('a', n)}= y", f"{_names('b1_', n)}= k1"]
    for j, (c, row) in enumerate(zip(_DP_C, _DP_A), 2):
        sums = [f"a{i} + h * ({_weighted(weights, row, i)})" for i in range(n)]
        if j < 7:
            body.append(f"z = [{', '.join(sums)}]")
        else:  # the 7th stage is evaluated at the 5th-order solution (FSAL)
            body += [f"n{i} = {sums[i]}" for i in range(n)] + [f"z = [{_names('n', n)}]"]
        t_j = ("t + h" if c == 1.0
               else f"t + {weights.setdefault(c, f'w{len(weights)}')} * h")
        body += _stage_call(j, n, "DP54", t_j, "z")
    body += ["if " + " and ".join(f"_ninf < n{i} < _inf" for i in range(n)) + ":",
             "    acc = 0.0"]
    for i in range(n):
        body += [f"    x = abs(a{i})", f"    m = abs(n{i})",
                 f"    r = h * ({_weighted(weights, _DP_E, i)})"
                 " / (tol + tol * (m if m > x else x))",
                 "    acc += r * r"]
    body += [f"    err = _sqrt(acc / {n})", "else:", "    err = 10.0",
             "return err, z, k3, k4, k5, k6, k7"]
    return _generate("rhs, t, h, y, k1, tol", body, weights)


@functools.cache
def _dp54_dense(n: int) -> Callable:
    """dense(t_out, t, h, y, y_new, k1, k3, k4, k5, k6, k7) -> the state at
    t_out in [t, t + h] of the step to (t + h, y_new); the polynomial
    extrapolates emission-window noise of a few ulps harmlessly."""
    weights: dict[float, str] = {}
    body = [f"{_names('a', n)}= y", f"{_names('n', n)}= y_new",
            *(f"{_names(f'b{j}_', n)}= k{j}" for j in (1, 3, 4, 5, 6, 7)),
            "th = (t_out - t) / h", "th1 = 1.0 - th"]
    for i in range(n):
        body += [f"d = n{i} - a{i}", f"p = h * b1_{i} - d",
                 f"r = h * ({_weighted(weights, _DP_D, i)})",
                 f"y{i} = a{i} + th * (d + th1 * (p + th * (d - h * b7_{i} - p"
                 " + th1 * r)))"]
    body.append(f"return [{_names('y', n)}]")
    return _generate("t_out, t, h, y, y_new, k1, k3, k4, k5, k6, k7", body, weights)


def integrate_adaptive54(rhs: Rhs, y0: Sequence[float], t0: float, t_end: float,
                         tol: float, output_stride: float,
                         extra_times: Sequence[float] = ()) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) with mixed error control
    (atol = rtol = tol), sampled on the stride plan and at each of
    ``extra_times`` (within the span) once, in time order, from the step
    that contains it; sampling never changes a step.  A run that reaches
    its step budget, ``model.MAX_GRID_POINTS`` attempted (accepted plus
    rejected) steps, raises IntegrationError."""
    check_plan("adaptive54", t0, t_end, output_stride, tol)
    times = sample_times(t0, t_end, output_stride)
    span = t_end - t0
    eps_t = time_tolerance(t0, t_end, output_stride)
    if extra_times:
        if not all(0.0 <= x - t0 <= span for x in extra_times):
            raise IntegrationError("extra sample times must lie in the span")
        times = sorted({*times, *extra_times})

    y = [float(v) for v in y0]
    run = _Run("adaptive54")
    h = min(output_stride, span / 10.0)

    t = t0
    steps = 0
    rejected = 0
    err_prev = 1e-4
    k_out = 1
    budget = model.MAX_GRID_POINTS
    try:
        k1 = _first_slope(rhs, t0, y)
        run.add(t0, y, k1)
        step, dense = _dp54_step(len(y)), _dp54_dense(len(y))
        n_times = len(times)
        while t_end - t > eps_t:
            if steps + rejected >= budget:
                raise IntegrationError(f"adaptive54 step budget of {budget} attempts "
                                       f"exhausted at t={t!r} of t_end={t_end!r}")
            if h < _STEP_FLOOR:
                # classify as singular: in this problem family the step
                # collapse is the practical signature of falling into a
                # 1/q^3-type pole (plain stiffness reads the same way)
                raise SingularityError(
                    f"step size underflow ({h!r}): the system is stiff or "
                    f"approaching a singularity", t)
            if t + h > t_end:
                h = t_end - t

            err_norm, y_new, k3, k4, k5, k6, k7 = step(rhs, t, h, y, k1, tol)

            if err_norm <= 1.0:
                t_new = t + h
                # emit dense-output samples inside (t, t_new]
                while k_out < n_times:
                    t_out = times[k_out]
                    if t_out - t_new > eps_t:
                        break
                    if abs(t_out - t_new) <= 1e-12 * max(1.0, abs(t_out)):
                        run.add(t_out, y_new, k7)
                    else:
                        y_out = dense(t_out, t, h, y, y_new, k1, k3, k4, k5, k6, k7)
                        run.add(t_out, y_out, rhs(t_out, y_out))
                    k_out += 1
                steps += 1
                t = t_new
                y = y_new
                k1 = k7
                if err_norm == 0.0:
                    fac = _FAC_MAX
                else:
                    fac = _SAFETY * err_norm ** -_PI_ALPHA * err_prev ** _PI_BETA
                # min(_FAC_MAX, max(_FAC_MIN, fac)) and max(err_norm, 1e-4),
                # written as the builtins decide: max(a, b) is b if b > a else
                # a, min(a, b) is b if b < a else a (a NaN fac gives _FAC_MIN)
                fac = fac if fac > _FAC_MIN else _FAC_MIN
                h *= fac if fac < _FAC_MAX else _FAC_MAX
                err_prev = 1e-4 if 1e-4 > err_norm else err_norm
            else:
                rejected += 1
                fac = _SAFETY * err_norm ** -0.2
                fac = fac if fac > _FAC_MIN else _FAC_MIN  # min(1.0, max(_FAC_MIN, fac))
                h *= fac if fac < 1.0 else 1.0
    except ErmakovError as err:
        # the first slope, a stage or a dense-output sample failed, or the step
        # size or budget ran out: t, y are the end of the last accepted step
        run.fail(err, steps, rejected, t, y)
        raise

    return run.trajectory(steps, rejected)


# --- Stormer-Verlet -----------------------------------------------------------

def _verlet_step(rhs: Rhs, t: float, h: float, y: Sequence[float],
                 k: Sequence[float]) -> tuple[list[float], list[float]]:
    """Kick-drift-kick from (t, y = [Q, P]) with k = rhs(t, y); the one rhs
    call's acceleration closes this step and opens the next."""
    Q, P = y
    p_half = P + 0.5 * h * k[1]
    Q_new = Q + h * p_half
    a = rhs(t + h, [Q_new, p_half])[1]
    P_new = p_half + 0.5 * h * a
    return [Q_new, P_new], [P_new, a]


def integrate_verlet(rhs: Rhs, y0: Sequence[float], t0: float, t_end: float,
                     dt: float, output_stride: float) -> Trajectory:
    """Kick-drift-kick leapfrog (``_fixed_steps``) for y = [Q, Q'] of a
    separable autonomous system: the acceleration is rhs(t, y)[1], which
    must not depend on Q', and t only labels errors."""
    return _fixed_steps("verlet", lambda n: _verlet_step, rhs, y0, t0, t_end, dt,
                        output_stride)


def integrate_verlet_Q(V: Func1 | None, W: Func1 | None, initial: QFrameState,
                       dt: float, tau_end: float, output_stride: float) -> Trajectory:
    """integrate_verlet for Q'' = -V'(Q) + W'(1/Q)/Q^2 from ``initial``.

    With a nonzero W, Q must keep the sign it starts with: a step that
    lands across the pole at Q = 0 raises SingularityError.
    """
    ode = _qframe_ode(V, W)
    pole = W is not None and not is_zero(W.expr)
    side = initial.Q > 0.0

    def rhs(tau, y):
        if pole and (y[0] > 0.0) != side:
            raise SingularityError(f"Q = {y[0]!r} stepped across the pole at Q = 0", tau)
        return ode(tau, y)
    return integrate_verlet(rhs, [initial.Q, initial.Q_prime], initial.tau, tau_end,
                            dt, output_stride)
