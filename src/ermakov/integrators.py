"""Time steppers producing Trajectories.

Three methods:

* ``integrate_fixed_rk4`` -- the classical 4th-order Runge-Kutta scheme
  at fixed dt, sampling every ``output_stride`` (dt must subdivide the
  stride exactly).
* ``integrate_adaptive54`` -- the 7-stage Dormand-Prince 5(4) embedded
  pair with FSAL, proportional-integral step control and the pair's own
  4th-order-continuous dense output for stride sampling.
* ``integrate_verlet_Q`` -- Stormer-Verlet (kick-drift-kick) for the
  separable autonomous transformed-frame system; symplectic, so energy
  errors stay bounded instead of drifting.

The RK4 and DP54 steps, and DP54's dense output, are straight-line
functions generated once per state width, on first use.  The right-hand
side must return exactly one value per state component; each stepper
checks this on its first call.  All steppers abort on a
singularity-guard trip or a domain error from the right-hand side,
attaching the partial trajectory and last valid sample to the raised
exception; an error raised at a non-finite stage state is reported as
that state (IntegrationError).
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

from .dynamics import qframe_accel
from .errors import ErmakovError, IntegrationError, SingularityError
from .expr import Func1, make_function
from .model import QFrameState, stride_count, stride_steps

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


@dataclass(frozen=True)
class Trajectory:
    """Ordered samples of one integration run, as plain float lists.

    ``t`` is physical time for the q-f system and tau for the
    transformed frame.  ``y[i]`` is the state at ``t[i]``, and ``dy[i]``
    the right-hand side there, so cubic-Hermite interpolation between
    samples is available.
    """

    t: list[float]
    y: list[Sequence[float]]
    dy: list[Sequence[float]]
    method: str
    step_count: int
    rejected_steps: int
    dt: float | None = None
    tol: float | None = None

    def __post_init__(self):
        if len(self.t) == 0:
            raise IntegrationError("trajectory must contain at least one sample")
        pairs = list(zip(self.t, self.t[1:]))
        if not (all(a < b for a, b in pairs) or all(a > b for a, b in pairs)):
            raise IntegrationError("trajectory times must be strictly monotone")

    def __len__(self) -> int:
        return len(self.t)


def interpolate(traj: Trajectory, t_query: float) -> list[float]:
    """Cubic-Hermite interpolation of a trajectory at one time.

    Uses the stored state and right-hand-side samples; O(h^4) accurate
    between samples, exact at them.
    """
    t = traj.t
    ascending = len(t) < 2 or t[1] > t[0]
    key = None if ascending else operator.neg
    tq = t_query if ascending else -t_query
    lo, hi = (t[0], t[-1]) if ascending else (-t[0], -t[-1])
    if tq < lo - 1e-12 or tq > hi + 1e-12:
        raise ValueError(f"t={t_query!r} outside trajectory range "
                         f"[{t[0]!r}, {t[-1]!r}]")
    i = bisect_left(t, tq, key=key)
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


class _Samples:
    """Accumulates (t, y, dy) rows and hands partial results to errors.

    Rows are kept by reference, and ``build`` hands these very lists to
    the Trajectory: the steppers never modify a state list or a slope
    sequence once it exists."""

    def __init__(self):
        self.t: list[float] = []
        self.y: list[Sequence[float]] = []
        self.dy: list[Sequence[float]] = []

    def add(self, t: float, y: Sequence[float], dy: Sequence[float]) -> None:
        self.t.append(float(t))
        self.y.append(y)
        self.dy.append(dy)

    def build(self, method: str, steps: int, rejected: int,
              dt: float | None = None, tol: float | None = None) -> Trajectory:
        return Trajectory(t=self.t, y=self.y, dy=self.dy, method=method,
                          step_count=steps, rejected_steps=rejected,
                          dt=dt, tol=tol)


def _attach_partial(err: ErmakovError, samples: _Samples, method: str,
                    steps: int, rejected: int, last_t: float,
                    last_y: Sequence[float]) -> None:
    err.last_t = last_t
    err.last_state = list(last_y)
    try:
        err.partial = samples.build(method, steps, rejected)
    except ErmakovError:
        err.partial = None


def _finite(y: Sequence[float]) -> bool:
    return all(map(math.isfinite, y))


def _stride_steps(output_stride: float, dt: float) -> int:
    if not dt > 0.0:
        raise IntegrationError(f"dt must be positive, got {dt!r}")
    if not output_stride > 0.0:
        raise IntegrationError(f"output_stride must be positive, got {output_stride!r}")
    k = stride_steps(output_stride, dt)
    if k is None:
        raise IntegrationError(
            f"dt={dt!r} does not subdivide output_stride={output_stride!r} exactly")
    return k


def _first_slope(rhs: Rhs, t0: float, y: list[float]) -> Sequence[float]:
    """rhs(t0, y), checked once to hold one value per state component."""
    k = rhs(t0, y)
    if not y or len(k) != len(y):
        raise IntegrationError(f"rhs returned {len(k)} values for a state of "
                               f"{len(y)} components")
    return k


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
    """step(rhs, t, h, y) -> the state one RK4 step of h after (t, y)."""
    body = [f"{_names('a', n)}= y", "hh = 0.5 * h", "h6 = h / 6.0",
            *_stage_call(1, n, "RK4", "t", "y")]
    for j, (w, t_j) in enumerate((("hh", "t + hh"), ("hh", "t + hh"), ("h", "t + h")), 2):
        body += [f"z = [{', '.join(f'a{i} + {w} * b{j - 1}_{i}' for i in range(n))}]",
                 *_stage_call(j, n, "RK4", t_j, "z")]
    body.append("return [" + ", ".join(
        f"a{i} + h6 * (((b1_{i} + 2.0 * b2_{i}) + 2.0 * b3_{i}) + b4_{i})"
        for i in range(n)) + "]")
    return _generate("rhs, t, h, y", body, {})


def integrate_fixed_rk4(rhs: Rhs, y0: Sequence[float], t0: float, t_end: float,
                        dt: float, output_stride: float) -> Trajectory:
    """Fixed-step RK4 with samples at t0 + k*output_stride."""
    k_per = _stride_steps(output_stride, dt)
    n_str = stride_count(abs(t_end - t0), output_stride)
    direction = 1.0 if t_end >= t0 else -1.0
    h = direction * dt

    y = [float(v) for v in y0]
    samples = _Samples()
    samples.add(t0, y, _first_slope(rhs, t0, y))
    step = _rk4_step(len(y))
    steps = 0
    t_last = t0
    for i in range(n_str):
        seg = t0 + i * direction * output_stride
        try:
            for j in range(k_per):
                t = seg + j * h
                y = step(rhs, t, h, y)
                steps += 1
                if not _finite(y):
                    raise IntegrationError(f"non-finite state after step at t={t + h!r}")
                t_last = t + h
            t_out = t0 + (i + 1) * direction * output_stride
            samples.add(t_out, y, rhs(t_out, y))
        except ErmakovError as err:
            # a stage or output-sample RHS call failed (y is the state it
            # was called at), or the step left y non-finite
            _attach_partial(err, samples, "rk4", steps, 0, t_last, y)
            raise
    return samples.build("rk4", steps, 0, dt=dt)


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
                         tol: float, output_stride: float) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) with mixed error control
    (atol = rtol = tol) and dense output at t0 + k*output_stride."""
    if not tol > 0.0:
        raise IntegrationError(f"tol must be positive, got {tol!r}")
    if not output_stride > 0.0:
        raise IntegrationError(f"output_stride must be positive, got {output_stride!r}")

    y = [float(v) for v in y0]
    samples = _Samples()
    k1 = _first_slope(rhs, t0, y)
    samples.add(t0, y, k1)
    if t_end == t0:
        return samples.build("adaptive54", 0, 0, tol=tol)

    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)
    h = direction * min(output_stride, span / 10.0)
    eps_t = 1e-9 * max(1.0, abs(t0), abs(t_end), output_stride)

    t = t0
    steps = 0
    rejected = 0
    err_prev = 1e-4
    k_out = 1
    n_out = stride_count(span, output_stride)
    step, dense = _dp54_step(len(y)), _dp54_dense(len(y))

    while direction * (t_end - t) > eps_t:
        try:
            if abs(h) < _STEP_FLOOR:
                # classify as singular: in this problem family the step
                # collapse is the practical signature of falling into a
                # 1/q^3-type pole (plain stiffness reads the same way)
                raise SingularityError(
                    f"step size underflow ({h!r}): the system is stiff or "
                    f"approaching a singularity", t)
            if direction * (t + h - t_end) > 0.0:
                h = t_end - t

            err_norm, y_new, k3, k4, k5, k6, k7 = step(rhs, t, h, y, k1, tol)

            if err_norm <= 1.0:
                t_new = t + h
                # emit dense-output samples inside (t, t_new]
                while k_out <= n_out:
                    t_out = t0 + k_out * direction * output_stride
                    if direction * (t_out - t_new) > eps_t:
                        break
                    if abs(t_out - t_new) <= 1e-12 * max(1.0, abs(t_out)):
                        samples.add(t_out, y_new, k7)
                    else:
                        y_out = dense(t_out, t, h, y, y_new, k1, k3, k4, k5, k6, k7)
                        samples.add(t_out, y_out, rhs(t_out, y_out))
                    k_out += 1
                steps += 1
                t = t_new
                y = y_new
                k1 = k7
                if err_norm == 0.0:
                    fac = _FAC_MAX
                else:
                    fac = _SAFETY * err_norm ** -_PI_ALPHA * err_prev ** _PI_BETA
                h *= min(_FAC_MAX, max(_FAC_MIN, fac))
                err_prev = max(err_norm, 1e-4)
            else:
                rejected += 1
                fac = _SAFETY * err_norm ** -0.2
                h *= min(1.0, max(_FAC_MIN, fac))
        except ErmakovError as err:
            # the step size collapsed, or a stage or dense-output sample
            # failed: t, y are the end of the last accepted step
            _attach_partial(err, samples, "adaptive54", steps, rejected, t, y)
            raise

    return samples.build("adaptive54", steps, rejected, tol=tol)


# --- Stormer-Verlet for the transformed frame -------------------------------

def integrate_verlet_Q(V: Func1 | None, W: Func1 | None, initial: QFrameState,
                       dt: float, tau_end: float,
                       output_stride: float | None = None) -> Trajectory:
    """Kick-drift-kick leapfrog for Q'' = -V'(Q) + W'(1/Q)/Q^2.

    Samples every ``output_stride`` (default: every step).  Forward in
    tau only.
    """
    return integrate_verlet(qframe_accel(V, W), initial, dt, tau_end,
                            output_stride)


def integrate_verlet(accel: Callable[[float, float], float], initial: QFrameState,
                     dt: float, tau_end: float,
                     output_stride: float | None = None) -> Trajectory:
    """Kick-drift-kick leapfrog for a position-only acceleration law.

    ``accel(Q, tau)`` returns Q'' at position Q; tau, the time that Q is
    reached, only labels the errors it raises (as in qframe_accel)."""
    if tau_end < initial.tau:
        raise IntegrationError(f"tau_end ({tau_end!r}) precedes the initial "
                               f"tau ({initial.tau!r})")
    stride = dt if output_stride is None else output_stride
    k_per = _stride_steps(stride, dt)  # also rejects dt <= 0
    n_str = stride_count(tau_end - initial.tau, stride)

    samples = _Samples()
    Q, P = initial.Q, initial.Q_prime
    try:
        a = accel(Q, initial.tau)
    except ErmakovError as err:
        _attach_partial(err, samples, "verlet", 0, 0, initial.tau, [Q, P])
        raise
    samples.add(initial.tau, [Q, P], [P, a])
    steps = 0
    tau_last = initial.tau
    for i in range(n_str):
        for j in range(k_per):
            tau = initial.tau + (i * k_per + j + 1) * dt
            try:
                p_half = P + 0.5 * dt * a
                Q = Q + dt * p_half
                a = accel(Q, tau)
                P = p_half + 0.5 * dt * a
            except ErmakovError as err:
                _attach_partial(err, samples, "verlet", steps, 0, tau_last,
                                [Q, P])
                raise
            steps += 1
            tau_last = tau
        tau_out = initial.tau + (i + 1) * stride
        samples.add(tau_out, [Q, P], [P, a])
    return samples.build("verlet", steps, 0, dt=dt)
