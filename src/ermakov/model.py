"""Scenario assembly: coupling-function algebra, the mass-induced
frequency shift, and the sectioned-text config format.

A Scenario is the full problem statement for one run: mass m(t),
base frequency-squared w~2(t), the two nonlinear couplings, initial
conditions and an integration plan.  Couplings can be given directly
(F of u = q/f, G of v = f/q) or derived from potentials
(V of Q, W of s = 1/Q) via

    F(u) = V'(u) / u          G(v) = W'(v) / v

and converted to the alternative normalization used by the
cross-checked oscillator pair via

    h(u) = u * F(u)           g(v) = v * G(v)
"""

from __future__ import annotations

import io
import math
from typing import NamedTuple

from .errors import (ConfigError, ErmakovError, ExprDomainError, IntegrationError,
                     InvalidMassError)
from .expr import (
    Binary,
    Func1,
    Var,
    compile_func,
    constant_func,
    evaluate,
    func_from_expr,
    is_zero,
    rename_var,
)

__all__ = [
    "PhysState",
    "QFrameState",
    "IntegrationPlan",
    "Scenario",
    "ConfigDocument",
    "F_from_V",
    "G_from_W",
    "h_from_F",
    "g_from_G",
    "omega_sq_from_mass",
    "to_xrho",
    "to_qframe",
    "parse_config",
    "load_config",
    "apply_overrides",
    "build_scenario",
    "run_plan",
    "mass_at",
    "parse_float",
    "parse_positive",
    "stride_steps",
    "stride_count",
    "sample_times",
    "METHODS",
    "COUPLING_VARS",
    "MAX_GRID_POINTS",
]

METHODS = ("rk4", "adaptive54", "verlet")

# Largest number of output samples and fixed (rk4/verlet) steps a run may ask
# for, and of steps adaptive54 may attempt.  More cannot finish in reasonable
# time or memory: a stride, dt or t_end off by orders of magnitude, or a stiff RHS.
MAX_GRID_POINTS = 1_000_000


class PhysState(NamedTuple):
    """Physical-frame state: oscillator q and auxiliary f at time t,
    plus the accumulated transformed time tau (dtau = dt / (m f^2))."""

    t: float
    tau: float
    q: float
    q_dot: float
    f: float
    f_dot: float


class QFrameState(NamedTuple):
    """Transformed-frame state: Q = q/f against the reparametrized time tau."""

    tau: float
    Q: float
    Q_prime: float


class IntegrationPlan(NamedTuple):
    method: str
    t_end: float
    dt: float | None          # fixed-step methods
    tol: float | None         # adaptive method
    output_stride: float


class Scenario(NamedTuple):
    """Immutable, validated problem definition; safe to share across workers."""

    m: Func1                      # mass m(t), must stay positive
    omega_tilde_sq: Func1         # base frequency squared (may be negative)
    coupling_F: Func1             # F(u), u = q/f
    coupling_G: Func1             # G(v), v = f/q
    potential_V: Func1 | None     # V(Q) when the F-side was given as a potential
    potential_W: Func1 | None     # W(s), s = 1/Q, when the G-side was given as a potential
    initial: PhysState
    plan: IntegrationPlan


# --- coupling-function algebra --------------------------------------------

def _ratio_func(potential: Func1, new_var: str) -> Func1:
    """Build x -> P'(x)/x from a potential P, patching the removable
    singularity at 0 with the limit P''(0) when P'(0) == 0."""
    d1 = rename_var(potential.d1, new_var)
    if is_zero(d1):
        # keep derived zero couplings structurally zero so the dynamics
        # can drop the term (and its singularity guard) entirely
        return constant_func(0.0, new_var)
    expr = Binary("/", d1, Var(new_var))
    at_zero = None
    try:
        if evaluate(potential.d1, 0.0) == 0.0:
            at_zero = evaluate(potential.d2, 0.0)
    except ExprDomainError:
        pass
    return func_from_expr(expr, new_var, at_zero)


def F_from_V(V: Func1) -> Func1:
    """F(u) = V'(u)/u.  For even potentials (V'(0) = 0) the origin is a
    removable singularity and F(0) is defined by the limit V''(0);
    otherwise evaluation at exactly 0 raises a domain error."""
    return _ratio_func(V, "u")


def G_from_W(W: Func1) -> Func1:
    """G(v) = W'(v)/v, same removable-singularity treatment as F_from_V."""
    return _ratio_func(W, "v")


def _times_var(fn: Func1, var: str) -> Func1:
    if is_zero(fn.expr):
        return constant_func(0.0, var)
    expr = Binary("*", Var(var), rename_var(fn.expr, var))
    at_zero = None
    try:
        at_zero = 0.0 * fn(0.0)
    except ErmakovError:
        pass
    return func_from_expr(expr, var, at_zero)


def h_from_F(F: Func1) -> Func1:
    """h(u) = u * F(u): the coupling normalization in which the paired
    system's second equation reads rho'' + w^2 rho = h(x/rho)/(rho^2 x)."""
    return _times_var(F, "u")


def g_from_G(G: Func1) -> Func1:
    """g(v) = v * G(v), the first equation's counterpart of h_from_F."""
    return _times_var(G, "v")


# --- mass-induced frequency shift ------------------------------------------

def mass_at(m: Func1, t: float) -> float:
    """m(t), which must be positive and finite (InvalidMassError otherwise)."""
    mv = m(t)
    if not 0.0 < mv < math.inf:
        raise InvalidMassError(t, mv)
    return mv


def omega_sq_from_mass(m: Func1, omega_tilde_sq: Func1, t: float) -> float:
    """Effective frequency squared after scaling the mass away:

        w^2(t) = (1/4) (m'/m)^2 - (1/2) m''/m + w~2(t)

    May legitimately be negative (inverted oscillator).
    """
    mv = mass_at(m, t)
    md = m.deriv(t)
    mdd = m.deriv2(t)
    return 0.25 * (md / mv) ** 2 - 0.5 * mdd / mv + omega_tilde_sq(t)


def to_xrho(state: PhysState, m: Func1) -> tuple[float, float, float, float]:
    """Map (q, q_dot, f, f_dot) to the unit-mass pair via x = q sqrt(m),
    rho = f sqrt(m); velocities pick up the (1/2) q m'/sqrt(m) term."""
    mv = mass_at(m, state.t)
    s = math.sqrt(mv)
    md = m.deriv(state.t)
    x = state.q * s
    x_dot = state.q_dot * s + 0.5 * state.q * md / s
    rho = state.f * s
    rho_dot = state.f_dot * s + 0.5 * state.f * md / s
    return x, x_dot, rho, rho_dot


def to_qframe(m: float, q: float, q_dot: float, f: float,
              f_dot: float) -> tuple[float, float]:
    """(Q, Q') = (q/f, m (q'f - qf')): a physical state, at mass value
    ``m``, in the transformed frame."""
    return q / f, m * (q_dot * f - q * f_dot)


# --- config format ----------------------------------------------------------

_SCHEMA = {
    "functions": ("m", "omega_tilde_sq"),
    "coupling": ("V", "W", "F", "G"),
    "initial": ("q", "q_dot", "f", "f_dot", "t0"),
    "integration": ("method", "t_end", "dt", "tol", "output_stride"),
}

COUPLING_VARS = {"V": "Q", "W": "s", "F": "u", "G": "v"}


class ConfigDocument(NamedTuple):
    """Parsed config: section -> key -> raw string value."""

    sections: dict[str, dict[str, str]]
    text: str


def parse_config(text: str, path: str | None = None) -> ConfigDocument:
    """Parse the line-oriented `[section]` / `key = value` / `#`-comment
    format and reject unknown sections or keys."""
    import configparser  # here, not at import: 170 KB only parsing needs
    cp = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (V vs v matters)
    try:
        cp.read_file(io.StringIO(text), source=path or "<config>")
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from None
    sections: dict[str, dict[str, str]] = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
        sections[sec] = dict(cp[sec])
    return ConfigDocument(sections, text)


def load_config(path: str) -> ConfigDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    return parse_config(text, path)


def apply_overrides(doc: ConfigDocument, overrides: list[str]) -> ConfigDocument:
    """Apply ``section.key=value`` override strings on top of a document."""
    sections = {sec: dict(kv) for sec, kv in doc.sections.items()}
    for item in overrides:
        head, sep, value = item.partition("=")
        sec, dot, key = head.strip().partition(".")
        if not (sep and dot):
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise ConfigError(f"override targets unknown key [{sec}] {key!r}")
        sections.setdefault(sec, {})[key] = value.strip()
    return ConfigDocument(sections, doc.text)


def _number(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{name} = {raw!r} is not a number") from None


def parse_float(raw: str, name: str) -> float:
    """A finite float from the text ``raw`` of the value called ``name``."""
    value = _number(raw, name)
    if not math.isfinite(value):
        raise ConfigError(f"{name} = {raw!r} is not a finite number")
    return value


def parse_positive(raw: str, name: str) -> float:
    """A finite positive float from the text ``raw`` of the value called
    ``name``: a stride, a step, a tolerance or a threshold."""
    value = _number(raw, name)
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
    return value


def _get_float(sections, sec, key, default=None, parse=parse_float):
    raw = sections.get(sec, {}).get(key)
    if raw is None:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r} in section [{sec}]")
    return parse(raw, f"[{sec}] {key}")


def _compile_key(sections, sec, key, var) -> Func1:
    raw = sections.get(sec, {}).get(key)
    if raw is None:
        raise ConfigError(f"missing required key {key!r} in section [{sec}]")
    try:
        return compile_func(raw, var)
    except ErmakovError as err:
        raise ConfigError(f"[{sec}] {key}: {err}") from None


def _coupling_side(sections, direct_key: str, potential_key: str,
                   derive) -> tuple[Func1, Func1 | None]:
    """Resolve one coupling from either the direct function or the
    potential; both at once is a construction error, neither means the
    coupling is absent (zero)."""
    coupling = sections.get("coupling", {})
    if direct_key in coupling and potential_key in coupling:
        raise ConfigError(
            f"[coupling] {potential_key} and {direct_key} are mutually exclusive; "
            f"give exactly one")
    if potential_key in coupling:
        pot = _compile_key(sections, "coupling", potential_key,
                           COUPLING_VARS[potential_key])
        return derive(pot), pot
    if direct_key in coupling:
        return _compile_key(sections, "coupling", direct_key,
                            COUPLING_VARS[direct_key]), None
    return constant_func(0.0, COUPLING_VARS[direct_key]), None


def stride_steps(output_stride: float, dt: float) -> int | None:
    """Number of dt steps per output stride, or None when dt (positive)
    does not subdivide the stride exactly."""
    k = round(output_stride / dt)
    if k < 1 or abs(k * dt - output_stride) > 1e-9 * output_stride:
        return None
    return k


def stride_count(t0: float, t_end: float, output_stride: float) -> tuple[int, float]:
    """(whole output strides from t0 to t_end, what the span leaves after
    them): the tail is 0.0 when the span is a whole number of strides to
    within 1e-9 of one, or when the last stride sample's time
    t0 + n*output_stride already is t_end in floats; else the positive
    remainder.  Time runs forward only: every stepper's plan passes
    here, and a t_end before t0 raises IntegrationError."""
    if t_end < t0:
        raise IntegrationError(f"t_end ({t_end!r}) precedes t0 ({t0!r})")
    span = t_end - t0
    n = int(math.floor(span / output_stride + 1e-9))
    if span / output_stride - n <= 1e-9 or t0 + n * output_stride == t_end:
        return n, 0.0
    return n, span - n * output_stride


def sample_times(t0: float, t_end: float, output_stride: float) -> list[float]:
    """The times a run samples: t0 + k*output_stride for k = 0..n whole
    strides and, after a tail, t_end (stride_count)."""
    n, tail = stride_count(t0, t_end, output_stride)
    return [t0 + k * output_stride for k in range(n + 1)] + ([t_end] if tail else [])


def run_plan(method: str, t0: float, t_end: float, output_stride: float,
             step: float) -> IntegrationPlan:
    """The validated plan of a ``method`` run from t0 to t_end, sampled
    every ``output_stride``; ``step`` is the tol of adaptive54 and the dt
    of the fixed-step methods (rk4, verlet), which must subdivide the
    stride exactly (stride_steps).  Stride and step are finite and
    positive (parse_positive).  t_end == t0 is allowed and yields a
    single-sample run.  A run may ask for at most MAX_GRID_POINTS output
    samples and fixed steps (counting at least one stride's worth)."""
    span = t_end - t0
    if span < 0.0:
        raise ConfigError(f"t_end ({t_end}) must not precede t0 ({t0})")
    if span / output_stride > MAX_GRID_POINTS:
        raise ConfigError(
            f"a span of {span!r} at output_stride={output_stride!r} asks for "
            f"more than {MAX_GRID_POINTS} samples")
    if method == "adaptive54":
        return IntegrationPlan(method, t_end, None, step, output_stride)
    if max(span, output_stride) / step > MAX_GRID_POINTS:
        raise ConfigError(
            f"dt={step!r} asks for more than {MAX_GRID_POINTS} steps over a span "
            f"of {max(span, output_stride)!r}")
    if stride_steps(output_stride, step) is None:
        raise ConfigError(f"dt={step!r} does not subdivide "
                          f"output_stride={output_stride!r} exactly")
    return IntegrationPlan(method, t_end, step, None, output_stride)


def build_scenario(doc: ConfigDocument, method: str | None = None,
                   step: float | None = None) -> Scenario:
    """Validate a config document and materialize the Scenario.

    Couplings given as potentials are converted here, so downstream
    dynamics only ever sees F and G (the potentials are kept for the
    energy evaluators).  A given ``method`` and ``step`` (run_plan's)
    stand in for the config's [integration] method and its dt or tol,
    which are then not read.
    """
    sections = doc.sections
    m = _compile_key(sections, "functions", "m", "t")
    omega_tilde_sq = _compile_key(sections, "functions", "omega_tilde_sq", "t")

    coupling_F, potential_V = _coupling_side(sections, "F", "V", F_from_V)
    coupling_G, potential_W = _coupling_side(sections, "G", "W", G_from_W)

    t0 = _get_float(sections, "initial", "t0", default=0.0)
    initial = PhysState(t0, 0.0, *(_get_float(sections, "initial", key)
                                   for key in ("q", "q_dot", "f", "f_dot")))
    for name in ("q", "f"):
        if getattr(initial, name) == 0.0:
            raise ConfigError(f"initial {name} must be nonzero")

    if method is None:
        method = sections.get("integration", {}).get("method")
        if method is None:
            raise ConfigError("missing required key 'method' in section [integration]")
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    t_end = _get_float(sections, "integration", "t_end")
    output_stride = _get_float(sections, "integration", "output_stride",
                               parse=parse_positive)
    if step is None:
        step = _get_float(sections, "integration", "tol" if method == "adaptive54"
                          else "dt", parse=parse_positive)
    plan = run_plan(method, t0, t_end, output_stride, step)

    try:
        mass_at(m, t0)
    except ErmakovError as err:
        raise ConfigError(f"mass not usable at t0: {err}") from None

    return Scenario(m=m, omega_tilde_sq=omega_tilde_sq,
                    coupling_F=coupling_F, coupling_G=coupling_G,
                    potential_V=potential_V, potential_W=potential_W,
                    initial=initial, plan=plan)
