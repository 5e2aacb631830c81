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

All steppers abort on a singularity-guard trip or a domain error from
the right-hand side, attaching the partial trajectory and last valid
sample to the raised exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import qframe_accel
from .errors import ErmakovError, IntegrationError, SingularityError
from .expr import Func1
from .model import QFrameState, stride_steps

__all__ = [
    "Trajectory",
    "integrate_fixed_rk4",
    "integrate_adaptive54",
    "integrate_verlet_Q",
    "integrate_verlet",
    "interpolate",
]

# rhs(t, y) receives the state y as a list of floats and returns dy/dt as
# a sequence of floats.  The steppers keep states and stage slopes as
# lists of floats, doing each component's arithmetic in the order an
# elementwise numpy expression would; numpy arrays are built once, for
# the finished Trajectory.
Rhs = Callable[[float, list[float]], Sequence[float]]

_STEP_FLOOR = 1e-14  # below this the adaptive controller gives up


@dataclass(frozen=True)
class Trajectory:
    """Ordered samples of one integration run.

    ``t`` is physical time for the q-f system and tau for the
    transformed frame.  ``dy`` holds the right-hand side at each sample
    so cubic-Hermite interpolation between samples is available.
    """

    t: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    method: str
    step_count: int
    rejected_steps: int
    dt: float | None = None
    tol: float | None = None

    def __post_init__(self):
        if len(self.t) == 0:
            raise IntegrationError("trajectory must contain at least one sample")
        steps = np.diff(self.t)
        if len(steps) and not (np.all(steps > 0) or np.all(steps < 0)):
            raise IntegrationError("trajectory times must be strictly monotone")

    def __len__(self) -> int:
        return len(self.t)


def interpolate(traj: Trajectory, t_query: float) -> np.ndarray:
    """Cubic-Hermite interpolation of a trajectory at one time.

    Uses the stored state and right-hand-side samples; O(h^4) accurate
    between samples, exact at them.
    """
    t = traj.t
    ascending = len(t) < 2 or t[1] > t[0]
    tt = t if ascending else -t
    tq = t_query if ascending else -t_query
    if tq < tt[0] - 1e-12 or tq > tt[-1] + 1e-12:
        raise ValueError(f"t={t_query!r} outside trajectory range "
                         f"[{t[0]!r}, {t[-1]!r}]")
    i = int(np.searchsorted(tt, tq))
    if i < len(t) and tt[i] == tq:
        return traj.y[i].copy()
    i = max(1, min(i, len(t) - 1))
    t0, t1 = t[i - 1], t[i]
    h = t1 - t0
    th = (t_query - t0) / h
    h00 = (1 + 2 * th) * (1 - th) ** 2
    h10 = th * (1 - th) ** 2
    h01 = th * th * (3 - 2 * th)
    h11 = th * th * (th - 1)
    return (h00 * traj.y[i - 1] + h10 * h * traj.dy[i - 1]
            + h01 * traj.y[i] + h11 * h * traj.dy[i])


class _Samples:
    """Accumulates (t, y, dy) rows and hands partial results to errors.

    Rows are kept by reference: the steppers never modify a state list
    or a slope sequence once it exists."""

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
        return Trajectory(t=np.array(self.t), y=np.array(self.y, dtype=float),
                          dy=np.array(self.dy, dtype=float), method=method,
                          step_count=steps, rejected_steps=rejected,
                          dt=dt, tol=tol)


def _attach_partial(err: ErmakovError, samples: _Samples, method: str,
                    steps: int, rejected: int, last_t: float,
                    last_y: Sequence[float]) -> None:
    err.last_t = last_t
    err.last_state = np.array(last_y, dtype=float)
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


def _stride_count(t0: float, t_end: float, stride: float) -> int:
    span = abs(t_end - t0)
    return int(math.floor(span / stride + 1e-9))


# --- classical RK4 ----------------------------------------------------------

def integrate_fixed_rk4(rhs: Rhs, y0: Sequence[float], t0: float, t_end: float,
                        dt: float, output_stride: float) -> Trajectory:
    """Fixed-step RK4 with samples at t0 + k*output_stride."""
    k_per = _stride_steps(output_stride, dt)
    n_str = _stride_count(t0, t_end, output_stride)
    direction = 1.0 if t_end >= t0 else -1.0
    h = direction * dt
    hh = 0.5 * h
    h6 = h / 6.0

    y = [float(v) for v in y0]
    samples = _Samples()
    samples.add(t0, y, rhs(t0, y))
    steps = 0
    t_last = t0
    for i in range(n_str):
        seg = t0 + i * direction * output_stride
        try:
            for j in range(k_per):
                t = seg + j * h
                k1 = rhs(t, y)
                k2 = rhs(t + hh, [a + hh * b for a, b in zip(y, k1)])
                k3 = rhs(t + hh, [a + hh * b for a, b in zip(y, k2)])
                k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
                y = [a + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
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

# Dormand-Prince tableau.  c6 = c7 = 1; a72 = e2 = d2 = 0, and the sums
# below omit those terms.  Every sum runs left to right from 0.0, so a
# leading -0.0 term still sums to +0.0 and an omitted 0*k term would not
# have changed it.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_A71, _A73, _A74, _A75, _A76 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                                -2187.0 / 6784.0, 11.0 / 84.0)
# b5 - b4: local truncation error weights
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# dense-output weights for the 4th-order-continuous interpolant
_D1, _D3, _D4, _D5, _D6, _D7 = (-12715105075.0 / 11282082432.0,
                                87487479700.0 / 32700410799.0,
                                -10690763975.0 / 1880347072.0,
                                701980252875.0 / 199316789632.0,
                                -1453857185.0 / 822651844.0,
                                69997945.0 / 29380423.0)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _error_norm(err: Sequence[float], y: Sequence[float], y_new: Sequence[float],
                tol: float) -> float:
    """RMS of err / (tol + tol*max(|y|, |y_new|)).

    The squares are added left to right from 0.0, the order in which
    ``np.mean`` sums fewer than 8 values (every state layout here has at
    most 5; numpy sums 8 or more pairwise), and ``r * r`` gives inf where
    ``r ** 2`` would raise OverflowError.
    """
    acc = 0.0
    for e, a, b in zip(err, y, y_new):
        r = e / (tol + tol * max(abs(a), abs(b)))
        acc += r * r
    return math.sqrt(acc / len(err))


class _DenseSegment:
    """One accepted step's interpolant, evaluated at theta in [0, 1]."""

    def __init__(self, t_old: float, h: float, y_old: Sequence[float],
                 y_new: Sequence[float], k1, k3, k4, k5, k6, k7):
        self.t_old = t_old
        self.h = h
        self.coeffs = []
        for a, b, b1, b3, b4, b5, b6, b7 in zip(y_old, y_new, k1, k3, k4, k5,
                                                 k6, k7):
            ydiff = b - a
            bspl = h * b1 - ydiff
            self.coeffs.append((
                a, ydiff, bspl, ydiff - h * b7 - bspl,
                h * (0.0 + _D1 * b1 + _D3 * b3 + _D4 * b4 + _D5 * b5 + _D6 * b6
                     + _D7 * b7)))

    def eval(self, t: float) -> list[float]:
        # t lies in [t_old, t_old + h] up to emission-window noise; the
        # polynomial extrapolates those few ulps harmlessly, so no clamping
        th = (t - self.t_old) / self.h
        th1 = 1.0 - th
        return [r1 + th * (r2 + th1 * (r3 + th * (r4 + th1 * r5)))
                for r1, r2, r3, r4, r5 in self.coeffs]


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
    k1 = rhs(t0, y)
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
    n_out = _stride_count(t0, t_end, output_stride)

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

            k2 = rhs(t + _C2 * h, [a + h * (0.0 + _A21 * b1)
                                   for a, b1 in zip(y, k1)])
            k3 = rhs(t + _C3 * h, [a + h * (0.0 + _A31 * b1 + _A32 * b2)
                                   for a, b1, b2 in zip(y, k1, k2)])
            k4 = rhs(t + _C4 * h, [a + h * (0.0 + _A41 * b1 + _A42 * b2 + _A43 * b3)
                                   for a, b1, b2, b3 in zip(y, k1, k2, k3)])
            k5 = rhs(t + _C5 * h, [a + h * (0.0 + _A51 * b1 + _A52 * b2 + _A53 * b3
                                            + _A54 * b4)
                                   for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
            k6 = rhs(t + h, [a + h * (0.0 + _A61 * b1 + _A62 * b2 + _A63 * b3
                                      + _A64 * b4 + _A65 * b5)
                             for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)])
            # the 7th stage is evaluated at the 5th-order solution (FSAL)
            y_new = [a + h * (0.0 + _A71 * b1 + _A73 * b3 + _A74 * b4 + _A75 * b5
                              + _A76 * b6)
                     for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(t + h, y_new)

            if _finite(y_new):
                err_norm = _error_norm(
                    [h * (0.0 + _E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6
                          + _E7 * b7)
                     for b1, b3, b4, b5, b6, b7 in zip(k1, k3, k4, k5, k6, k7)],
                    y, y_new, tol)
            else:
                err_norm = 10.0

            if err_norm <= 1.0:
                t_new = t + h
                # emit dense-output samples inside (t, t_new]
                seg = None
                while k_out <= n_out:
                    t_out = t0 + k_out * direction * output_stride
                    if direction * (t_out - t_new) > eps_t:
                        break
                    if abs(t_out - t_new) <= 1e-12 * max(1.0, abs(t_out)):
                        samples.add(t_out, y_new, k7)
                    else:
                        if seg is None:
                            seg = _DenseSegment(t, h, y, y_new, k1, k3, k4, k5, k6, k7)
                        y_out = seg.eval(t_out)
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


def integrate_verlet(accel: Callable[[float], float], initial: QFrameState,
                     dt: float, tau_end: float,
                     output_stride: float | None = None) -> Trajectory:
    """Kick-drift-kick leapfrog for a position-only acceleration law."""
    if tau_end < initial.tau:
        raise IntegrationError(f"tau_end ({tau_end!r}) precedes the initial "
                               f"tau ({initial.tau!r})")
    stride = dt if output_stride is None else output_stride
    k_per = _stride_steps(stride, dt)  # also rejects dt <= 0
    n_str = _stride_count(initial.tau, tau_end, stride)

    samples = _Samples()
    Q, P = initial.Q, initial.Q_prime
    try:
        a = accel(Q)
    except ErmakovError as err:
        _attach_partial(err, samples, "verlet", 0, 0, initial.tau, [Q, P])
        raise
    samples.add(initial.tau, [Q, P], [P, a])
    steps = 0
    tau_last = initial.tau
    for i in range(n_str):
        for j in range(k_per):
            try:
                p_half = P + 0.5 * dt * a
                Q = Q + dt * p_half
                a = accel(Q)
                P = p_half + 0.5 * dt * a
            except ErmakovError as err:
                _attach_partial(err, samples, "verlet", steps, 0, tau_last,
                                [Q, P])
                raise
            steps += 1
            tau_last = initial.tau + (i * k_per + j + 1) * dt
        tau_out = initial.tau + (i + 1) * stride
        samples.add(tau_out, [Q, P], [P, a])
    return samples.build("verlet", steps, 0, dt=dt)
