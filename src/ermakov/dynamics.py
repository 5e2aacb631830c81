"""Right-hand sides for the three equivalent formulations, the
Lagrangian evaluators, and the total-derivative (gauge) residual check.

Physical frame (state q, f against t; couplings F, G; base frequency
w~2; mass m):

    d/dt(m q') + m w~2 q = G(f/q) / (m q^3)
    d/dt(m f') + m w~2 f = F(q/f) / (m f^3)
    dtau/dt = 1 / (m f^2)

Unit-mass pair (x = q sqrt(m), rho = f sqrt(m); shifted frequency
w^2 = (1/4)(m'/m)^2 - (1/2) m''/m + w~2; couplings g(v) = v G(v),
h(u) = u F(u)):

    x''   + w^2 x   = g(rho/x) / (rho x^2)
    rho'' + w^2 rho = h(x/rho) / (rho^2 x)

Transformed autonomous frame (Q = q/f against tau):

    Q'' = -V'(Q) + W'(1/Q) / Q^2

Singularity guard: any coordinate that appears in a denominator of an
*active* coupling term must stay at least EPS_SING away from zero;
structurally-zero couplings drop both the term and the guard, so e.g. a
harmonic q(t) may pass through zero when G = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import PotentialsUnavailableError, SingularityError
from .expr import Func1, Inliner, is_zero
from .model import PhysState, QFrameState, Scenario, mass_at, to_qframe

__all__ = [
    "EPS_SING",
    "DerivPhys",
    "guard",
    "ieee_pow",
    "ieee_div",
    "rhs_phys",
    "rhs_xrho",
    "phys_ode",
    "xrho_ode",
    "qframe_accel",
    "qframe_ode_from_scenario",
    "lagrangian_Q",
    "lagrangian_q_tilde",
    "gauge_residual",
]

# Below this, the 1/q^3-type terms are considered blown up; abort rather
# than propagate garbage.
EPS_SING = 1e-10


@dataclass(frozen=True)
class DerivPhys:
    """Time derivatives of the physical-frame state components."""

    dq: float
    dq_dot: float
    df: float
    df_dot: float
    dtau: float


def guard(name: str, value: float, t: float) -> None:
    """Raise SingularityError (at time ``t``) when the coordinate ``name``
    has fallen below EPS_SING in magnitude."""
    if abs(value) < EPS_SING:
        raise SingularityError(f"|{name}| = {abs(value):.3e} fell below the "
                               f"singularity guard {EPS_SING:g}", t)


def ieee_pow(x: float, n: int) -> float:
    """x ** n for an integer n > 0, or the signed inf of an OverflowError."""
    try:
        return x ** n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def ieee_div(a: float, b: float) -> float:
    """a / b, or IEEE's signed inf or nan where a zero b raises instead."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


# --- kernels ------------------------------------------------------------------
# Each equation is written once, as a kernel on scalars built per Scenario
# (which couplings are structurally zero is decided there, not per call).
# The integrators' vector adapters feed them plain floats; the pointwise
# rhs_phys is a thin user of the same kernel.  A power that can overflow or
# a divisor that can vanish goes through ieee_pow/ieee_div (inf/nan, no raise).

def _phys_kernel(scn: Scenario) -> Callable[..., tuple[float, ...]]:
    """(t, q, q_dot, f, f_dot, tau) -> (dq, dq_dot, df, df_dot, dtau)."""
    m, omega_tilde_sq = scn.m, scn.omega_tilde_sq
    F, G = scn.coupling_F, scn.coupling_G
    has_F, has_G = not is_zero(F.expr), not is_zero(G.expr)

    def kernel(t, q, q_dot, f, f_dot, tau):
        mv = mass_at(m, t)
        md = m.deriv(t)
        omt2 = omega_tilde_sq(t)
        guard("f", f, t)  # dtau = 1/(m f^2) needs f regardless of couplings
        g_term = 0.0
        if has_G:
            guard("q", q, t)
            g_term = ieee_div(G(f / q), mv * mv * ieee_pow(q, 3))
        f_term = 0.0
        if has_F:
            f_term = ieee_div(F(q / f), mv * mv * ieee_pow(f, 3))
        drag = md / mv
        return (q_dot, -drag * q_dot - omt2 * q + g_term,
                f_dot, -drag * f_dot - omt2 * f + f_term,
                ieee_div(1.0, mv * f * f))
    return kernel


def _qframe_side(potential: Func1 | None, coupling: Func1 | None
                 ) -> tuple[Func1 | None, bool]:
    """(function, is_potential) for one side of Q'': the nonzero
    potential, else the nonzero bare coupling, else (None, False)."""
    if potential is not None and not is_zero(potential.expr):
        return potential, True
    if coupling is not None and not is_zero(coupling.expr):
        return coupling, False
    return None, False


def qframe_accel(V: Func1 | None, W: Func1 | None, F: Func1 | None = None,
                 G: Func1 | None = None) -> Callable[..., float]:
    """Transformed-frame acceleration Q'' = -V'(Q) + W'(1/Q)/Q^2, as a
    function (Q, tau=0.0) -> Q''; tau only labels a singularity-guard error.

    A side without a (nonzero) potential falls back to its bare coupling,
    V'(Q) = Q F(Q) and W'(1/Q)/Q^2 = G(1/Q)/Q^3: the same algebra that
    defines F and G from V' and W'.
    """
    u_fn, u_pot = _qframe_side(V, F)
    s_fn, s_pot = _qframe_side(W, G)

    def kernel(Q, tau=0.0):
        accel = 0.0
        if u_fn is not None:
            accel -= u_fn.deriv(Q) if u_pot else Q * u_fn(Q)
        if s_fn is not None:
            guard("Q", Q, tau)
            accel += (s_fn.deriv(1.0 / Q) / (Q * Q) if s_pot
                      else s_fn(1.0 / Q) / ieee_pow(Q, 3))
        return accel
    return kernel


def rhs_phys(state: PhysState, scn: Scenario) -> DerivPhys:
    """Accelerations of the coupled q-f pair plus the tau clock rate."""
    return DerivPhys(*_phys_kernel(scn)(state.t, state.q, state.q_dot,
                                        state.f, state.f_dot, state.tau))


def rhs_xrho(x: float, x_dot: float, rho: float, rho_dot: float, t: float,
             omega_sq: Callable[[float], float],
             g: Func1, h: Func1) -> tuple[float, float, float, float]:
    """Accelerations of the unit-mass x-rho pair."""
    om2 = omega_sq(t)
    g_term = 0.0
    if not is_zero(g.expr):
        guard("x", x, t)
        guard("rho", rho, t)
        g_term = g(rho / x) / (rho * x * x)
    h_term = 0.0
    if not is_zero(h.expr):
        guard("x", x, t)
        guard("rho", rho, t)
        h_term = h(x / rho) / (rho * rho * x)
    return x_dot, -om2 * x + g_term, rho_dot, -om2 * rho + h_term


# --- vector adapters for the integrators -----------------------------------
# State layouts: phys y = [q, q_dot, f, f_dot, tau];
#                x-rho y = [x, x_dot, rho, rho_dot];
#                Q-frame y = [Q, Q_prime].
# Each adapter takes the state as a list of floats and returns a tuple.

_Ode = Callable[[float, list[float]], tuple[float, ...]]


def _vector_rhs(kernel: Callable[..., tuple[float, ...]]) -> _Ode:
    """rhs(t, y) = kernel(t, *y), computed on the state's plain floats."""
    return lambda t, y: kernel(t, *y)


# --- generated right-hand sides ---------------------------------------------
# phys_ode and _qframe_ode (map's direct run and Stormer-Verlet), which the
# integrators call tens of thousands of times per run, are each one function
# generated per scenario (expr.Inliner): the inlined expressions, then the
# reference kernel's own arithmetic, term for term.  A call that raises,
# meets a non-finite expression intermediate, an invalid mass, a tripped
# guard or an at_zero point returns the reference adapter's result instead,
# so values and errors, IEEE inf/nan included, are the reference's.
# rhs_phys, qframe_accel and xrho_ode stay on the reference kernels.

def phys_ode(scn: Scenario) -> _Ode:
    m, F, G = scn.m, scn.coupling_F, scn.coupling_G
    em = Inliner()
    eps = em.bind(EPS_SING)
    em.let("y", "q, q_dot, f, f_dot, tau")
    mv = em.call(m, "t")
    md = em.inline(m.d1, "t")
    omt2 = em.call(scn.omega_tilde_sq, "t")
    em.require(f"0.0 < {mv} < {em.bind(math.inf)}")
    em.require(f"abs(f) >= {eps}")
    g_term = f_term = "0.0"
    if not is_zero(G.expr):
        em.require(f"abs(q) >= {eps}")
        g_val = em.call(G, em.let("f / q"))
        g_term = em.let(f"{g_val} / ({mv} * {mv} * q ** 3)")
    if not is_zero(F.expr):
        f_val = em.call(F, em.let("q / f"))
        f_term = em.let(f"{f_val} / ({mv} * {mv} * f ** 3)")
    drag = em.let(f"{md} / {mv}")
    dy = em.let(f"(q_dot, -{drag} * q_dot - {omt2} * q + {g_term}, "
                f"f_dot, -{drag} * f_dot - {omt2} * f + {f_term}, "
                f"1.0 / ({mv} * f * f))")
    return em.build("t, y", dy, _vector_rhs(_phys_kernel(scn)))


def xrho_ode(omega_sq: Callable[[float], float], g: Func1, h: Func1) -> _Ode:
    return _vector_rhs(lambda t, x, x_dot, rho, rho_dot: rhs_xrho(
        x, x_dot, rho, rho_dot, t, omega_sq, g, h))


def _qframe_ode(V: Func1 | None, W: Func1 | None, F: Func1 | None = None,
                G: Func1 | None = None) -> _Ode:
    """Transformed-frame ODE (tau, [Q, Q']) -> (Q', Q''), generated from
    qframe_accel's arithmetic, which is its reference."""
    u_fn, u_pot = _qframe_side(V, F)
    s_fn, s_pot = _qframe_side(W, G)
    em = Inliner()
    em.let("y", "Q, Q_prime")
    accel = "0.0"
    if u_fn is not None:
        u_term = (em.inline(u_fn.d1, "Q") if u_pot
                  else em.let(f"Q * {em.call(u_fn, 'Q')}"))
        accel = em.let(f"{accel} - {u_term}")
    if s_fn is not None:
        em.require(f"abs(Q) >= {em.bind(EPS_SING)}")
        s = em.let("1.0 / Q")
        s_term = (em.let(f"{em.inline(s_fn.d1, s)} / (Q * Q)") if s_pot
                  else em.let(f"{em.call(s_fn, s)} / (Q ** 3)"))
        accel = em.let(f"{accel} + {s_term}")
    ref = qframe_accel(V, W, F, G)
    return em.build("tau, y", em.let(f"(Q_prime, {accel})"),
                    _vector_rhs(lambda tau, Q, Q_prime: (Q_prime, ref(Q, tau))))


def qframe_ode_from_scenario(scn: Scenario) -> _Ode:
    """Transformed-frame ODE in tau for any scenario: the potentials where
    given, else the bare couplings (see qframe_accel)."""
    return _qframe_ode(scn.potential_V, scn.potential_W, scn.coupling_F, scn.coupling_G)


# --- Lagrangians and the gauge identity -------------------------------------

def lagrangian_Q(state: QFrameState, V: Func1 | None, W: Func1 | None) -> float:
    """L = (1/2) Q'^2 - V(Q) - W(1/Q)."""
    val = 0.5 * ieee_pow(state.Q_prime, 2)
    if V is not None and not is_zero(V.expr):
        val -= V(state.Q)
    if W is not None and not is_zero(W.expr):
        guard("Q", state.Q, state.tau)
        val -= W(1.0 / state.Q)
    return val


def _ddt_m_fdot(state: PhysState, scn: Scenario) -> float:
    """d/dt(m f') eliminated through the auxiliary equation of motion:
    -m w~2 f + F(q/f)/(m f^3).  Keeps every consumer step-size free."""
    mv = mass_at(scn.m, state.t)
    guard("f", state.f, state.t)
    val = -mv * scn.omega_tilde_sq(state.t) * state.f
    if not is_zero(scn.coupling_F.expr):
        val += scn.coupling_F(state.q / state.f) / (mv * state.f ** 3)
    return val


def _require_potentials(scn: Scenario) -> tuple[Func1, Func1]:
    if scn.potential_V is None or scn.potential_W is None:
        raise PotentialsUnavailableError(
            "Lagrangian evaluation needs V and W; this scenario was built "
            "from bare coupling functions")
    return scn.potential_V, scn.potential_W


def lagrangian_q_tilde(state: PhysState, scn: Scenario) -> float:
    """Transformed Lagrangian in physical variables:

        (1/2) m q'^2 + (1/2)(q^2/f) d/dt(m f')
          - V(q/f)/(m f^2) - W(f/q)/(m f^2)
    """
    V, W = _require_potentials(scn)
    t, q, q_dot, f = state.t, state.q, state.q_dot, state.f
    mv = mass_at(scn.m, t)
    guard("f", f, t)
    val = 0.5 * mv * q_dot ** 2 + 0.5 * (q * q / f) * _ddt_m_fdot(state, scn)
    if not is_zero(V.expr):
        val -= V(q / f) / (mv * f * f)
    if not is_zero(W.expr):
        guard("q", q, t)
        val -= W(f / q) / (mv * f * f)
    return val


def gauge_residual(state: PhysState, scn: Scenario) -> float:
    """Difference between the transformed Lagrangian and the mapped
    autonomous one plus the total-derivative term:

        residual = L~ - [ L(Q, Q') * dtau/dt + dPhi/dt ]

    with Q = q/f, Q' = m (q'f - qf'), dtau/dt = 1/(m f^2) and
    Phi = +(1/2)(q^2/f) m f'.  (The sign of Phi is the convention that
    makes the identity hold; see the README.)  Zero up to round-off at
    every valid state.
    """
    _require_potentials(scn)
    t, q, q_dot, f, f_dot = state.t, state.q, state.q_dot, state.f, state.f_dot
    mv = mass_at(scn.m, t)
    guard("f", f, t)
    l_q = lagrangian_Q(QFrameState(state.tau, *to_qframe(mv, q, q_dot, f, f_dot)),
                       scn.potential_V, scn.potential_W)
    dmf = _ddt_m_fdot(state, scn)
    dphi_dt = (mv * q * q_dot * f_dot / f
               - 0.5 * mv * (q * f_dot / f) ** 2
               + 0.5 * (q * q / f) * dmf)
    return lagrangian_q_tilde(state, scn) - (l_q / (mv * f * f) + dphi_dt)
