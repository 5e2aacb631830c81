"""Invariant evaluation and drift reporting.

The conserved quantity exists in two algebraically equal forms:

* transformed-frame energy   E = (1/2) Q'^2 + V(Q) + W(1/Q)
* physical-frame (Ray-Reid)  E = (1/2) m^2 (q'f - qf')^2
                                 + integral of u F(u) du   up to u = q/f
                                 + integral of v G(v) dv   up to v = f/q

The integrals are indefinite, so the physical form is defined only up to
an additive constant; we fix lower limits u_ref / v_ref (default 0 when
the integrand is finite there, else 1).  When the couplings came from
potentials, u F(u) = V'(u) exactly, so V and W are the exact
antiderivatives and the drift evaluator uses them directly instead of
quadrature; bare-coupling scenarios fall back to adaptive Simpson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .dynamics import guard, ieee_pow
from .errors import ErmakovError, InvariantError, QuadratureError
from .expr import Func1, Inliner, is_zero
from .integrators import Trajectory
from .model import PhysState, QFrameState, Scenario, mass_at, to_qframe

__all__ = [
    "InvariantReport",
    "quad",
    "energy_Q",
    "ray_reid_invariant",
    "ermakov_lewis",
    "default_ref",
    "invariant_series",
    "report_from_series",
    "drift_report",
]

_REL_SUPPRESS = 1e-12  # |e0| below this: relative drift is meaningless
_MAX_DEPTH = 50  # bisections before quad gives up on an interval


# --- adaptive Simpson quadrature --------------------------------------------

def _sample(fn: Callable[[float], float], x: float) -> float:
    try:
        v = fn(x)
    except (ErmakovError, ZeroDivisionError, OverflowError, ValueError) as err:
        raise QuadratureError(f"integrand failed at x={x!r}: {err}") from err
    if not math.isfinite(v):
        raise QuadratureError(f"integrand is not finite at x={x!r} (got {v!r})")
    return v


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _adaptive(fn, a, b, fa, fm, fb, whole, tol, depth):
    if depth > _MAX_DEPTH:
        raise QuadratureError(
            f"quadrature did not converge on [{a!r}, {b!r}] within "
            f"{_MAX_DEPTH} bisections")
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _sample(fn, lm)
    frm = _sample(fn, rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (_adaptive(fn, a, m, fa, flm, fm, left, half, depth + 1)
            + _adaptive(fn, m, b, fm, frm, fb, right, half, depth + 1))


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise QuadratureError(f"tol must be positive, got {tol!r}")


def quad(fn: Callable[[float], float], a: float, b: float, tol: float = 1e-10,
         fa: float | None = None, fb: float | None = None) -> float:
    """Adaptive Simpson integral of ``fn`` over [a, b].

    Absolute tolerance ``tol`` (stricter than the advertised mixed
    bound); exactly antisymmetric under swapping the limits.  ``fa`` and
    ``fb``, when given, are fn(a) and fn(b) already sampled (finite), and
    are not evaluated again; the result is the same bits.
    """
    _check_tol(tol)
    if a == b:
        return 0.0
    if b < a:
        return -quad(fn, b, a, tol, fb, fa)
    if fa is None:
        fa = _sample(fn, a)
    if fb is None:
        fb = _sample(fn, b)
    m = 0.5 * (a + b)
    fm = _sample(fn, m)
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive(fn, a, b, fa, fm, fb, whole, tol, 0)


def default_ref(integrand: Callable[[float], float]) -> float:
    """Lower integration limit: 0 when the integrand is finite there,
    else 1 (the convention is reported in run metadata)."""
    try:
        v = integrand(0.0)
    except (ErmakovError, ZeroDivisionError, OverflowError, ValueError):
        return 1.0
    return 0.0 if math.isfinite(v) else 1.0


# --- pointwise invariants ----------------------------------------------------

def energy_Q(state: QFrameState, V: Func1 | None, W: Func1 | None) -> float:
    """Transformed-frame energy (1/2) Q'^2 + V(Q) + W(1/Q)."""
    val = 0.5 * ieee_pow(state.Q_prime, 2)
    if V is not None and not is_zero(V.expr):
        val += V(state.Q)
    if W is not None and not is_zero(W.expr):
        guard("Q", state.Q, state.tau)
        val += W(1.0 / state.Q)
    return val


def ray_reid_invariant(state: PhysState, scn: Scenario, u_ref: float = 0.0,
                       v_ref: float = 0.0, tol: float = 1e-10) -> float:
    """Physical-frame invariant via quadrature of the coupling integrands
    (never the potentials), at one state: the series' E_phys there.

    Defined up to the additive constant fixed by (u_ref, v_ref).
    Structurally-zero couplings contribute nothing and do not constrain
    q or f.
    """
    u_side = _PotentialSide(None, scn.coupling_F, tol, u_ref)
    v_side = _PotentialSide(None, scn.coupling_G, tol, v_ref)
    y = [state.q, state.q_dot, state.f, state.f_dot, state.tau]
    return _energies([state.t], [y], scn.m, u_side, v_side)[0][0]


def ermakov_lewis(state: PhysState, m_val: float, Omega: float) -> float:
    """Closed form of the invariant for the constant-coupling (harmonic)
    case: (1/2) m^2 (q'f - qf')^2 + (1/2) Omega^2 (q/f)^2."""
    _, Q_prime = to_qframe(m_val, state.q, state.q_dot, state.f, state.f_dot)
    return 0.5 * Q_prime ** 2 + 0.5 * (Omega * state.q / state.f) ** 2


# --- drift reporting ---------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    e0: float
    max_abs_drift: float
    max_rel_drift: float
    samples: int
    frame_gap: float

    def __post_init__(self):
        for name in ("e0", "max_abs_drift", "max_rel_drift", "frame_gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"InvariantReport.{name} must be finite")

    def gated_drift(self) -> tuple[str, float]:
        """(name, value) of the drift a threshold gates: the relative one,
        or the absolute one where |e0| < _REL_SUPPRESS leaves it undefined."""
        if abs(self.e0) < _REL_SUPPRESS:
            return "max_abs_drift", self.max_abs_drift
        return "max_rel_drift", self.max_rel_drift


class _RunningIntegral:
    """Antiderivative along a trajectory's endpoint sequence.

    Integrates leg by leg from the previous endpoint instead of from
    the reference each time, caching endpoints, so evaluating the
    invariant over n samples costs O(n) quadratures of short intervals.
    Single-trajectory use only (not shared across workers).
    """

    def __init__(self, fn: Callable[[float], float], ref: float, tol: float):
        self.fn = fn
        self.tol = tol
        self.last_x = ref
        self.last_f: float | None = None  # fn(last_x), once sampled
        self.last_val = 0.0
        self.cache: dict[float, float] = {ref: 0.0}

    def value(self, x: float) -> float:
        hit = self.cache.get(x)
        if hit is not None:
            return hit
        # each leg starts where the last one ended, so fn(last_x) is reused;
        # the points are sampled in the order quad(fn, last_x, x) alone
        # would sample them, so the first failure raises the same error
        _check_tol(self.tol)
        a, fa = self.last_x, self.last_f
        if fa is None and not x < a:
            fa = _sample(self.fn, a)
        fx = _sample(self.fn, x)
        val = self.last_val + quad(self.fn, a, x, self.tol, fa=fa, fb=fx)
        self.last_x, self.last_f, self.last_val = x, fx, val
        self.cache[x] = val
        return val


def _integrand(coupling: Func1) -> Callable[[float], float]:
    """w -> w * coupling(w), generated as one function (expr.Inliner) with
    the lambda as its reference and error path."""
    em = Inliner()
    value = em.call(coupling, "w")
    return em.build("w", em.let(f"w * {value}"), lambda w: w * coupling(w))


class _PotentialSide:
    """One coupling's contribution to the energy, evaluated either from
    its exact potential or by running quadrature of the integrand."""

    def __init__(self, potential: Func1 | None, coupling: Func1, tol: float,
                 ref: float | None = None):
        self.zero = is_zero(coupling.expr) and (
            potential is None or is_zero(potential.expr))
        self.potential = potential
        self.ref: float | None = None
        self.running: _RunningIntegral | None = None
        if not self.zero and potential is None:
            integrand = _integrand(coupling)
            self.ref = default_ref(integrand) if ref is None else ref
            self.running = _RunningIntegral(integrand, self.ref, tol)

    @property
    def path(self) -> str:
        if self.zero:
            return "zero"
        return "potential" if self.potential is not None else "quadrature"

    def value(self, arg: float) -> float:
        if self.zero:
            return 0.0
        if self.potential is not None:
            return self.potential(arg)
        return self.running.value(arg)


def _energies(ts: list[float], ys: list[list[float]], m: Func1,
              u_side: _PotentialSide, v_side: _PotentialSide
              ) -> tuple[list[float], list[float]]:
    """(E_phys, E_Q) at each sample t, (q, q_dot, f, f_dot, tau) of ``ts``
    and ``ys``; raises InvariantError at the first non-finite value."""
    e_phys: list[float] = []
    e_q: list[float] = []
    for t, (q, q_dot, f, f_dot, _tau) in zip(ts, ys):
        mv = mass_at(m, t)
        if not u_side.zero:
            guard("f", f, t)
        Q, Q_prime = to_qframe(mv, q, q_dot, f, f_dot)
        pot_u = u_side.value(Q)
        pot_v = 0.0
        if not v_side.zero:
            guard("q", q, t)
            pot_v = v_side.value(f / q)
        # the kinetic terms are algebraically equal but deliberately keep
        # their own arithmetic (m^2 (q'f-qf')^2 vs Q'^2): frame_gap measures
        # exactly this evaluation difference
        kinetic = 0.5 * mv * mv * ieee_pow(q_dot * f - q * f_dot, 2)
        ep = kinetic + pot_u + pot_v
        eq = 0.5 * Q_prime * Q_prime + pot_u + pot_v
        if not (math.isfinite(ep) and math.isfinite(eq)):
            raise InvariantError(f"the invariant is not finite at t={t!r} "
                                 f"(E_phys = {ep!r}, E_Q = {eq!r})")
        e_phys.append(ep)
        e_q.append(eq)
    return e_phys, e_q


def invariant_series(traj: Trajectory, scn: Scenario, tol: float = 1e-10
                     ) -> tuple[list[float], list[float], dict]:
    """Physical-frame and transformed-frame energy at every sample of a
    physical trajectory (columns q, q_dot, f, f_dot, tau).

    Returns (e_phys, e_q, meta); meta records which evaluation path each
    side used and the reference points of any quadrature.  Raises
    InvariantError at the first sample where either value is not finite.
    """
    u_side = _PotentialSide(scn.potential_V, scn.coupling_F, tol)
    v_side = _PotentialSide(scn.potential_W, scn.coupling_G, tol)
    e_phys, e_q = _energies(traj.t, traj.y, scn.m, u_side, v_side)
    meta = {
        "u_side": u_side.path,
        "v_side": v_side.path,
        "u_ref": u_side.ref,
        "v_ref": v_side.ref,
        "quad_tol": tol,
    }
    return e_phys, e_q, meta


def report_from_series(e_phys: Sequence[float], e_q: Sequence[float]
                       ) -> InvariantReport:
    """Summarize precomputed energy series.  Relative drift is suppressed
    (reported 0) when the initial value is numerically zero.  Raises
    InvariantError when a value is not finite."""
    if not (all(map(math.isfinite, e_phys)) and all(map(math.isfinite, e_q))):
        raise InvariantError("the invariant is not finite along the trajectory")
    e0 = float(e_phys[0])
    max_abs = float(max(abs(e - e0) for e in e_phys))
    max_rel = max_abs / abs(e0) if abs(e0) >= _REL_SUPPRESS else 0.0
    gap = float(max(abs(ep - eq) for ep, eq in zip(e_phys, e_q)))
    return InvariantReport(e0=e0, max_abs_drift=max_abs, max_rel_drift=max_rel,
                           samples=len(e_phys), frame_gap=gap)


def drift_report(traj: Trajectory, scn: Scenario, tol: float = 1e-10
                 ) -> InvariantReport:
    """Evaluate the invariant along a physical trajectory and summarize
    its drift."""
    e_phys, e_q, _meta = invariant_series(traj, scn, tol)
    return report_from_series(e_phys, e_q)
