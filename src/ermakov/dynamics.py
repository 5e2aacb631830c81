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

import functools
import math
from typing import Callable

from .errors import PotentialsUnavailableError, SingularityError
from .expr import Expr, Func1, Inliner, evaluate, is_zero, make_function
from .model import PhysState, QFrameState, Scenario, mass_at, to_qframe

__all__ = [
    "EPS_SING",
    "guard",
    "rhs_xrho",
    "phys_ode",
    "qframe_ode_from_scenario",
    "qframe_terms",
    "frame_potentials",
    "lagrangian_Q",
    "lagrangian_q_tilde",
    "gauge_residual",
]

# Below this, the 1/q^3-type terms are considered blown up; abort rather
# than propagate garbage.
EPS_SING = 1e-10


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


# --- one program per equation, built twice ----------------------------------
# Each equation is written once, as a program: a function that emits its
# lines into ``em`` and returns its result, deciding per Scenario which
# couplings are structurally zero.  It writes a / or ** that can raise on
# floats as em.div/em.pow, a square as x*x and its mass arithmetic through
# em.arith, and states each condition the result needs: em.guard
# (singularity guard), em.mass (the name of m(t), which must be positive
# and finite) and em.finite (raise error(t, *names) unless every name is
# finite).
# _Fast (expr.Inliner) builds the function the integrators call: inlined
# expressions, raw / and **, the conditions tested at the end, and any
# call that raises, meets a non-finite intermediate or an at_zero point,
# or fails a condition handed to its fallback.  It folds what the scenario
# fixes: a constant m(t) is checked once, at build time, and em.arith
# computes m*m, m'/m and the like there and drops factors of 1.0.
# _Checked builds that fallback, the reference, folding nothing: Func1
# calls and evaluate where _Fast inlines, ieee_div/ieee_pow (inf/nan, no
# raise), and each condition's own error; it is compiled on first use.


class _Fast(Inliner):
    div, pow = "{} / ({})".format, "{} ** {}".format

    def guard(self, var: str, t: str, eps: str) -> None:
        # abs(var) >= eps without the call: a NaN fails both ways
        self.require(f"({var} >= {eps} or {var} <= {self.bind(-self.value(eps))})")

    def mass(self, m: Func1, t: str) -> str:
        mv = self.call(m, t)
        v = self.value(mv)
        if v is None or not 0.0 < v < math.inf:  # always false for a bad constant
            self.require(f"0.0 < {mv} < {self.bind(math.inf)}")
        return mv

    def finite(self, error: Callable, t: str, *names: str) -> None:
        self.checked += names


class _Checked(Inliner):
    div, pow = "ieee_div({}, {})".format, "ieee_pow({}, {})".format

    def __init__(self):
        super().__init__()
        self.bound.update(evaluate=evaluate, guard=guard, ieee_div=ieee_div,
                          ieee_pow=ieee_pow, isfinite=math.isfinite, mass_at=mass_at)

    def value(self, name: str) -> None:
        return None  # the reference folds nothing

    def call(self, fn: Func1, x: str) -> str:
        return self.let(f"{self.bind(fn)}({x})")

    def inline(self, e: Expr, x: str) -> str:
        return self.let(f"evaluate({self.bind(e)}, {x})")

    def guard(self, var: str, t: str, eps: str) -> None:
        self.lines.append(f"guard({var!r}, {var}, {t})")

    def mass(self, m: Func1, t: str) -> str:
        return self.let(f"mass_at({self.bind(m)}, {t})")

    def finite(self, error: Callable, t: str, *names: str) -> None:
        args = ", ".join(names)
        self.lines.append(f"if not all(map(isfinite, ({args},))): "
                          f"raise {self.bind(error)}({t}, {args})")

    def build(self, params: str, result: str) -> Callable:
        return make_function(params, [*self.lines, f"return {result}"], self.bound)


def _build_checked(params: str, program: Callable, *args) -> Callable:
    em = _Checked()
    return em.build(params, program(em, *args))


def _build_fast(params: str, program: Callable, *args) -> Callable:
    """The generated function.  Its fallback, the checked build, is built
    by the first call that needs it."""
    em = _Fast()
    result = program(em, *args)
    slow = functools.cache(lambda: _build_checked(params, program, *args))
    return em.build(params, result, lambda *call_args: slow()(*call_args))


def _emit_phys(em: Inliner, scn: Scenario) -> str:
    """(dq, dq_dot, df, df_dot, dtau) at (t, y = [q, q_dot, f, f_dot, tau])."""
    m, F, G = scn.m, scn.coupling_F, scn.coupling_G
    eps = em.bind(EPS_SING)
    em.let("y", "q, q_dot, f, f_dot, tau")
    mv = em.mass(m, "t")
    # A constant m makes the drag -(m'/m) x' the product -0.0*x'.  For a
    # finite x', (-0.0*x' - w~2*x) + term is term - w~2*x bit for bit
    # unless w~2*x is a zero and term is -0.0.  A side drops the product
    # where that cannot happen: its term is the literal 0.0, or w~2 is a
    # constant c with c*EPS_SING != 0 (an active term's guard keeps
    # |x| >= EPS_SING).  A non-finite x' is itself a component of the
    # result, which is then non-finite either way.
    w2 = _constant(scn.omega_tilde_sq)
    w2x_nonzero = w2 is not None and w2 * EPS_SING != 0.0
    dragless = [is_zero(m.d1) and (is_zero(c.expr) or w2x_nonzero) for c in (G, F)]
    md = None if all(dragless) else em.inline(m.d1, "t")
    omt2 = em.call(scn.omega_tilde_sq, "t")
    em.guard("f", "t", eps)  # dtau = 1/(m f^2) needs f regardless of couplings
    mm = em.let(em.arith("*", mv, mv)) if _active(F) or _active(G) else None
    g_term = f_term = "0.0"
    if not is_zero(G.expr):
        em.guard("q", "t", eps)
        g_val = em.call(G, em.let("f / q"))
        g_term = em.let(em.div(g_val, em.arith("*", mm, em.pow("q", 3))))
    if not is_zero(F.expr):
        f_val = em.call(F, em.let("q / f"))
        f_term = em.let(em.div(f_val, em.arith("*", mm, em.pow("f", 3))))
    if md is not None:
        drag = em.let(em.arith("-", em.arith("/", md, mv)))

    def accel(x: str, x_dot: str, term: str, dragless: bool) -> str:
        w2x = em.arith("*", omt2, x)  # term - w~2 x, else -(m'/m) x' - w~2 x + term
        if dragless:
            return em.arith("-", term, w2x)
        return em.arith("+", em.arith("-", em.arith("*", drag, x_dot), w2x), term)

    dtau = em.div("1.0", em.arith("*", em.arith("*", mv, "f"), "f"))
    return em.let(f"(q_dot, {accel('q', 'q_dot', g_term, dragless[0])}, "
                  f"f_dot, {accel('f', 'f_dot', f_term, dragless[1])}, {dtau})")


def _active(fn: Func1 | None) -> bool:
    return fn is not None and not is_zero(fn.expr)


def _constant(fn: Func1) -> float | None:
    """fn's value when its expression folds to one, as _Fast folds it."""
    em = _Fast()
    return em.value(em.inline(fn.expr, "x"))


def _emit_qframe(em: Inliner, V: Func1 | None, W: Func1 | None,
                 F: Func1 | None, G: Func1 | None) -> str:
    """Q'' at (Q, tau).  A side without a (nonzero) potential falls back to
    its bare coupling, V'(Q) = Q F(Q) and W'(1/Q)/Q^2 = G(1/Q)/Q^3: the
    same algebra that defines F and G from V' and W'."""
    accel = "0.0"
    if _active(V) or _active(F):
        u_term = (em.inline(V.d1, "Q") if _active(V)
                  else em.let(f"Q * {em.call(F, 'Q')}"))
        accel = em.let(f"{accel} - {u_term}")
    if _active(W) or _active(G):
        em.guard("Q", "tau", em.bind(EPS_SING))
        s = em.let("1.0 / Q")
        s_term = (em.let(f"{em.inline(W.d1, s)} / (Q * Q)") if _active(W)
                  else em.let(f"{em.call(G, s)} / ({em.pow('Q', 3)})"))
        accel = em.let(f"{accel} + {s_term}")
    return accel


def _emit_qframe_ode(em: Inliner, *sides: Func1 | None) -> str:
    em.let("y", "Q, Q_prime")
    return em.let(f"(Q_prime, {_emit_qframe(em, *sides)})")


def rhs_xrho(x: float, x_dot: float, rho: float, rho_dot: float, t: float,
             omega_sq: Callable[[float], float],
             g: Func1, h: Func1) -> tuple[float, float, float, float]:
    """Accelerations of the unit-mass x-rho pair, written by hand: as an
    ODE, ``lambda t, y: rhs_xrho(*y, t, omega_sq, g, h)``."""
    om2 = omega_sq(t)
    g_term = h_term = 0.0
    if not (is_zero(g.expr) and is_zero(h.expr)):
        guard("x", x, t)
        guard("rho", rho, t)
    if not is_zero(g.expr):
        g_term = g(rho / x) / (rho * x * x)
    if not is_zero(h.expr):
        h_term = h(x / rho) / (rho * rho * x)
    return x_dot, -om2 * x + g_term, rho_dot, -om2 * rho + h_term


# --- ODEs for the integrators -------------------------------------------------
# State layouts: phys y = [q, q_dot, f, f_dot, tau]; Q-frame y = [Q, Q_prime].
# Each ODE takes the state as a list of floats and returns a tuple.  Its
# checked build, the fallback, is _build_checked over the same program.

_Ode = Callable[[float, list[float]], tuple[float, ...]]


def phys_ode(scn: Scenario) -> _Ode:
    """Physical-frame ODE (t, [q, q', f, f', tau]) -> its time derivative."""
    return _build_fast("t, y", _emit_phys, scn)


def _qframe_ode(V: Func1 | None, W: Func1 | None, F: Func1 | None = None,
                G: Func1 | None = None) -> _Ode:
    """Transformed-frame ODE (tau, [Q, Q']) -> (Q', Q''), with
    Q'' = -V'(Q) + W'(1/Q)/Q^2; tau only labels a singularity-guard error."""
    return _build_fast("tau, y", _emit_qframe_ode, V, W, F, G)


def qframe_ode_from_scenario(scn: Scenario) -> _Ode:
    """Transformed-frame ODE in tau for any scenario: the potentials where
    given, else the bare couplings (see _emit_qframe)."""
    return _qframe_ode(scn.potential_V, scn.potential_W, scn.coupling_F, scn.coupling_G)


# --- Lagrangians and the gauge identity -------------------------------------

def qframe_terms(state: QFrameState, V: Func1 | None,
                 W: Func1 | None) -> tuple[float, float, float]:
    """The transformed frame's (1/2) Q'^2, V(Q) and W(1/Q), each side 0.0
    when absent or structurally zero; an active W guards Q.  The kinetic
    term is +0.0 or more, so adding or subtracting 0.0 for an absent side
    changes no bit."""
    k = 0.5 * (state.Q_prime * state.Q_prime)
    v = w = 0.0
    if V is not None and not is_zero(V.expr):
        v = V(state.Q)
    if W is not None and not is_zero(W.expr):
        guard("Q", state.Q, state.tau)
        w = W(1.0 / state.Q)
    return k, v, w


def lagrangian_Q(state: QFrameState, V: Func1 | None, W: Func1 | None) -> float:
    """L = (1/2) Q'^2 - V(Q) - W(1/Q)."""
    k, v, w = qframe_terms(state, V, W)
    return k - v - w


def _ddt_m_fdot(state: PhysState, scn: Scenario) -> float:
    """d/dt(m f') eliminated through the auxiliary equation of motion:
    -m w~2 f + F(q/f)/(m f^3).  Keeps every consumer step-size free."""
    mv = mass_at(scn.m, state.t)
    guard("f", state.f, state.t)
    val = -mv * scn.omega_tilde_sq(state.t) * state.f
    if not is_zero(scn.coupling_F.expr):
        val += scn.coupling_F(state.q / state.f) / (mv * state.f ** 3)
    return val


def frame_potentials(scn: Scenario) -> tuple[Func1 | None, Func1 | None]:
    """(V, W) for the transformed frame's energy and Lagrangian: a nonzero
    coupling without its potential raises PotentialsUnavailableError (a
    structurally zero one needs none)."""
    V, W = scn.potential_V, scn.potential_W
    if (V is None and _active(scn.coupling_F)) or (W is None and _active(scn.coupling_G)):
        raise PotentialsUnavailableError(
            "the transformed-frame energy and Lagrangian need the potential "
            "(V, W) of every nonzero coupling")
    return V, W


def lagrangian_q_tilde(state: PhysState, scn: Scenario) -> float:
    """Transformed Lagrangian in physical variables:

        (1/2) m q'^2 + (1/2)(q^2/f) d/dt(m f')
          - V(q/f)/(m f^2) - W(f/q)/(m f^2)
    """
    V, W = frame_potentials(scn)
    t, q, q_dot, f = state.t, state.q, state.q_dot, state.f
    mv = mass_at(scn.m, t)
    guard("f", f, t)
    val = 0.5 * mv * q_dot ** 2 + 0.5 * (q * q / f) * _ddt_m_fdot(state, scn)
    if _active(V):
        val -= V(q / f) / (mv * f * f)
    if _active(W):
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
    V, W = frame_potentials(scn)
    t, q, q_dot, f, f_dot = state.t, state.q, state.q_dot, state.f, state.f_dot
    mv = mass_at(scn.m, t)
    guard("f", f, t)
    l_q = lagrangian_Q(QFrameState(state.tau, *to_qframe(mv, q, q_dot, f, f_dot)), V, W)
    dmf = _ddt_m_fdot(state, scn)
    dphi_dt = (mv * q * q_dot * f_dot / f
               - 0.5 * mv * (q * f_dot / f) ** 2
               + 0.5 * (q * q / f) * dmf)
    return lagrangian_q_tilde(state, scn) - (l_q / (mv * f * f) + dphi_dt)
