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

One sample is one program, ``_emit_sample``, built twice (see dynamics).
The series calls its generated build once per sample: m(t), the (Q, Q')
map and the potentials inlined, and on each quadrature side the leg from
the side's last point in one Simpson level; a side keeps only that point,
its integrand value (nan until sampled) and the running value.  Its
checked build, ``_reference``, takes each leg by ``_RunningIntegral.value``
(``quad``, ``_adaptive``) and gives any sample the generated one cannot
finish; it is built when the first such sample comes.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .dynamics import EPS_SING, _build_checked, _build_fast, _Checked, qframe_terms
from .errors import ErmakovError, InvariantError, QuadratureError
from .expr import Func1, Inliner, is_zero
from .integrators import Trajectory
from .model import PhysState, QFrameState, Scenario

__all__ = [
    "InvariantReport",
    "quad",
    "energy_Q",
    "ray_reid_invariant",
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


def quad(fn: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integral of ``fn`` over [a, b].

    Absolute tolerance ``tol`` (stricter than the advertised mixed
    bound); exactly antisymmetric under swapping the limits.
    """
    if not tol > 0.0:
        raise QuadratureError(f"tol must be positive, got {tol!r}")
    if a == b:
        return 0.0
    if b < a:
        return -quad(fn, b, a, tol)
    fa = _sample(fn, a)
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
    k, v, w = qframe_terms(state, V, W)
    return k + v + w


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
    return _reference(scn.m, u_side, v_side)(
        state.t, state.q, state.q_dot, state.f, state.f_dot)[2]


# --- drift reporting ---------------------------------------------------------

class InvariantReport(NamedTuple):
    """Drift of an invariant series (``report_from_series``)."""

    e0: float
    max_abs_drift: float
    max_rel_drift: float
    samples: int
    frame_gap: float

    def gated_drift(self) -> tuple[str, float]:
        """(name, value) of the drift a threshold gates: the relative one,
        or the absolute one where |e0| < _REL_SUPPRESS leaves it undefined."""
        if abs(self.e0) < _REL_SUPPRESS:
            return "max_abs_drift", self.max_abs_drift
        return "max_rel_drift", self.max_rel_drift


class _RunningIntegral:
    """Antiderivative along a trajectory's point sequence.

    Integrates leg by leg from the last point instead of from the
    reference each time, so evaluating the invariant over n samples costs
    O(n) quadratures of short intervals.  ``last_f`` is fn(last_x), nan
    until a leg has sampled it.  Single-trajectory use only (not shared
    across workers).
    """

    __slots__ = ("fn", "tol", "last_x", "last_f", "last_val")

    def __init__(self, fn: Callable[[float], float], ref: float, tol: float):
        self.fn = fn
        self.tol = tol
        self.last_x = ref
        self.last_f = math.nan
        self.last_val = 0.0

    def value(self, x: float) -> float:
        val = self.last_val + quad(self.fn, self.last_x, x, self.tol)
        # the generated pass takes the next leg from x, knowing fn(x): quad
        # sampled it (or fn(last_x), when x == last_x), so it is finite; a
        # zero leg from the unsampled start samples nothing
        if x != self.last_x or not math.isnan(self.last_f):
            self.last_f = self.fn(x)
        self.last_x, self.last_val = x, val
        return val


def _integrand(coupling: Func1) -> Callable[[float], float]:
    """w -> w * coupling(w), one program built twice (dynamics)."""
    return _build_fast("w", _emit_integrand, coupling, "w")


def _emit_integrand(em: Inliner, coupling: Func1, w: str) -> str:
    return em.let(f"{w} * {em.call(coupling, w)}")


class _PotentialSide:
    """One coupling's contribution to the energy, evaluated either from
    its exact potential or by running quadrature of the integrand."""

    def __init__(self, potential: Func1 | None, coupling: Func1, tol: float,
                 ref: float | None = None):
        self.zero = is_zero(coupling.expr) and (
            potential is None or is_zero(potential.expr))
        self.potential = potential
        self.coupling = coupling
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


_PARAMS = "t, q, q_dot, f, f_dot"


def _emit_sample(em: Inliner, m: Func1, u_side: _PotentialSide,
                 v_side: _PotentialSide) -> str:
    """(Q, Q', E_phys, E_Q) at one sample (t, q, q_dot, f, f_dot),
    advancing the sides' running integrals."""
    eps, half = em.bind(EPS_SING), em.bind(0.5)
    mv = em.mass(m, "t")
    if not u_side.zero:
        em.guard("f", "t", eps)
    Q = em.let("q / f")
    wr = em.let("q_dot * f - q * f_dot")
    Q_prime = em.let(em.arith("*", mv, wr))
    pot_u = _emit_side(em, u_side, Q, "u")
    pot_v = "0.0"
    if not v_side.zero:
        em.guard("q", "t", eps)
        pot_v = _emit_side(em, v_side, em.let("f / q"), "v")
    # the equal kinetic terms keep their own arithmetic (m^2 (q'f-qf')^2 vs
    # Q'^2): frame_gap measures exactly this evaluation difference
    kinetic = em.arith("*", em.arith("*", em.arith("*", half, mv), mv),
                       em.arith("*", wr, wr))
    ep = em.let(f"{kinetic} + {pot_u} + {pot_v}")
    eq = em.let(f"0.5 * {Q_prime} * {Q_prime} + {pot_u} + {pot_v}")
    em.finite(lambda t, ep, eq: InvariantError(
        f"the invariant is not finite at t={t!r} (E_phys = {ep!r}, E_Q = {eq!r})"),
        "t", ep, eq)
    return f"{Q}, {Q_prime}, {ep}, {eq}"


def _reference(m: Func1, u_side: _PotentialSide, v_side: _PotentialSide
               ) -> Callable[..., tuple[float, float, float, float]]:
    """sample(t, q, q_dot, f, f_dot) -> (Q, Q', E_phys, E_Q), the checked
    build; InvariantError when either energy is not finite."""
    return _build_checked(_PARAMS, _emit_sample, m, u_side, v_side)


def _generated(m: Func1, u_side: _PotentialSide, v_side: _PotentialSide
               ) -> Callable[..., tuple[float, float, float, float]]:
    """The generated build.  A sample also goes to the reference when a
    quadrature side's leg from its last point misses 15*tol in one Simpson
    level, as every leg from the unsampled start (nan) does: at a
    tolerance that is not positive, every leg."""
    return _build_fast(_PARAMS, _emit_sample, m, u_side, v_side)


def _emit_side(em: Inliner, side: _PotentialSide, x: str, p: str) -> str:
    """The name of one side's value at the emitted point ``x``; a
    quadrature side's names start with ``p``, and its leg from the last
    point is ``_RunningIntegral.value`` (checked) or its first Simpson
    level, which loads and commits the last point's state."""
    if side.zero:
        return "0.0"
    if side.potential is not None:
        return em.call(side.potential, x)
    run = em.bind(side.running)
    if isinstance(em, _Checked):
        return em.let(f"{run}.value({x})")
    # _RunningIntegral.value's leg (a, x) from its last point a, which
    # holds fa = fn(a) (nan, so the leg misses 15*tol, until sampled) and
    # the value va: quad(fn, a, x) with both ends known, a reversed leg as
    # the negated swapped one, and _adaptive's first level on [lo, hi];
    # the state is committed after the checks
    coupling = side.coupling
    em.let(f"{run}.last_x, {run}.last_f, {run}.last_val", f"{p}a, {p}fa, {p}va")

    def integrand(w: str) -> str:
        value = _emit_integrand(em, coupling, w)
        em.checked.append(value)  # _sample's test
        return value

    fx = integrand(x)
    em.let(f"({x}, {p}a, {fx}, {p}fa) if {x} < {p}a else ({p}a, {x}, {p}fa, {fx})",
           f"{p}lo, {p}hi, {p}flo, {p}fhi")
    mid = em.let(f"0.5 * ({p}a + {x})")  # == 0.5 * (lo + hi): + commutes
    fm = integrand(mid)
    whole = em.let(f"({p}hi - {p}lo) / 6.0 * ({p}flo + 4.0 * {fm} + {p}fhi)")
    flm = integrand(em.let(f"0.5 * ({p}lo + {mid})"))
    frm = integrand(em.let(f"0.5 * ({mid} + {p}hi)"))
    left = em.let(f"({mid} - {p}lo) / 6.0 * ({p}flo + 4.0 * {flm} + {fm})")
    right = em.let(f"({p}hi - {mid}) / 6.0 * ({fm} + 4.0 * {frm} + {p}fhi)")
    delta = em.let(f"{left} + {right} - {whole}")
    bound = 15.0 * side.running.tol  # abs(delta) <= bound, without the call
    em.require(f"{em.bind(-bound)} <= {delta} <= {em.bind(bound)}")
    res = em.let(f"{left} + {right} + {delta} / 15.0")
    val = em.let(f"{p}va + (-{res} if {x} < {p}a else {res})")
    em.tail.append(f"{run}.last_x, {run}.last_f, {run}.last_val = {x}, {fx}, {val}")
    return val


def invariant_series(traj: Trajectory, scn: Scenario, tol: float = 1e-10,
                     rows: list | None = None) -> tuple:
    """Physical-frame and transformed-frame energy at every sample of a
    physical trajectory (columns q, q_dot, f, f_dot, tau).

    Returns (e_phys, e_q, meta, rows); meta records which evaluation path
    each side used and the reference points of any quadrature, and rows
    holds each sample's (Q, Q', E_phys, E_Q): the list ``rows`` when one
    is given, so that a caller keeps the rows made before a failing
    sample.  Raises InvariantError at the first sample where either value
    is not finite.
    """
    u_side = _PotentialSide(scn.potential_V, scn.coupling_F, tol)
    v_side = _PotentialSide(scn.potential_W, scn.coupling_G, tol)
    sample = _generated(scn.m, u_side, v_side)
    series = [] if rows is None else rows
    series.extend(sample(t, q, q_dot, f, f_dot)
                  for t, (q, q_dot, f, f_dot, _tau) in zip(traj.t, traj.y))
    e_phys = [row[2] for row in series]
    e_q = [row[3] for row in series]
    meta = {
        "u_side": u_side.path,
        "v_side": v_side.path,
        "u_ref": u_side.ref,
        "v_ref": v_side.ref,
        "quad_tol": tol,
    }
    return e_phys, e_q, meta, series


def report_from_series(e_phys: Sequence[float], e_q: Sequence[float]
                       ) -> InvariantReport:
    """Summarize precomputed energy series.  Relative drift is suppressed
    (reported 0) when the initial value is numerically zero.  Raises
    InvariantError when a value, or a summary of finite values (a
    difference that overflows, say), is not finite."""
    # checked first: max skips a NaN that is not its first argument
    if not (all(map(math.isfinite, e_phys)) and all(map(math.isfinite, e_q))):
        raise InvariantError("the invariant is not finite along the trajectory")
    e0 = float(e_phys[0])
    max_abs = float(max(abs(e - e0) for e in e_phys))
    max_rel = max_abs / abs(e0) if abs(e0) >= _REL_SUPPRESS else 0.0
    gap = float(max(abs(ep - eq) for ep, eq in zip(e_phys, e_q)))
    report = InvariantReport(e0, max_abs, max_rel, len(e_phys), gap)
    for name, value in zip(report._fields, report):
        if not math.isfinite(value):
            raise InvariantError(f"the drift summary's {name} is not finite ({value!r})")
    return report


def drift_report(traj: Trajectory, scn: Scenario, tol: float = 1e-10
                 ) -> InvariantReport:
    """Evaluate the invariant along a physical trajectory and summarize
    its drift."""
    e_phys, e_q, _meta, _rows = invariant_series(traj, scn, tol)
    return report_from_series(e_phys, e_q)
