"""Spans around the public functions of each ermakov module.

``Tracer.installed()`` replaces, for the duration of a ``with`` block,
the module attributes the CLI calls through (``model.build_scenario``,
``integrators.integrate_adaptive54``, ...), the ``Func1`` evaluation
methods and the right-hand-side closures returned by the ODE builders
with wrappers that record spans; leaving the block restores the
originals.  Nothing in ``src/`` is edited.

Span names and the layer each belongs to:

    cli                  cli.main (the root span)
    model                load_config, apply_overrides, build_scenario
    expr                 Func1.__call__ / deriv / deriv2
    dynamics             phys_ode and qframe_ode_from_scenario, and every
                         call of the closures they return
    integrators          integrate_fixed_rk4 / integrate_adaptive54 /
                         integrate_verlet
    integrators.interp   interpolate
    invariants           invariant_series, report_from_series
    invariants.quad      quad (nested reversed-limit calls are one span)

A span's self time is its duration minus that of the spans it encloses,
so the self times of one invocation add up to its root span.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

MODULE_SPANS = {
    "model": ("model", ("load_config", "apply_overrides", "build_scenario")),
    "integrators": ("integrators", ("integrate_fixed_rk4", "integrate_adaptive54",
                                    "integrate_verlet")),
    "integrators.interp": ("integrators", ("interpolate",)),
    "invariants": ("invariants", ("invariant_series", "report_from_series")),
    "invariants.quad": ("invariants", ("quad",)),
}
ODE_BUILDERS = ("phys_ode", "qframe_ode_from_scenario")
EXPR_METHODS = ("__call__", "deriv", "deriv2")


@dataclass(frozen=True)
class Integration:
    """Counters of one integrate_* call."""

    method: str
    steps: int
    rejected: int
    samples: int
    rhs_calls: int


class Tracer:
    """Span and counter recorder for one traced invocation at a time."""

    def __init__(self, ermakov_modules):
        self.mods = ermakov_modules   # namespace with cli, model, expr, ...
        self.record = False           # keep call arguments for replay
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []   # [name, start, time of enclosed spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.orphans = 0              # spans opened outside the root
        self.rhs_calls = 0
        self.quad_depth = 0
        self.integrand_evals = 0
        self.integrations: list[Integration] = []
        self.expr_args: list[tuple] = []
        self.rhs_args: list[tuple] = []

    # --- spans ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        if not self.stack and name != "cli":
            self.orphans += 1
        self.stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        name, start, enclosed = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - enclosed
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][0] == name:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    # --- layer-specific wrappers ----------------------------------------

    def _expr(self, method):
        tracer = self

        def wrapper(func, x):
            tracer._enter("expr")
            try:
                value = method(func, x)
            finally:
                tracer._exit()
            if tracer.quad_depth:
                tracer.integrand_evals += 1
            if tracer.record:
                tracer.expr_args.append((method, func, x))
            return value
        return wrapper

    def _quad(self, fn):
        tracer = self
        span = self._span("invariants.quad", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.quad_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                tracer.quad_depth -= 1
        return wrapper

    def _ode_builder(self, builder):
        tracer = self
        build = self._span("dynamics", builder)

        @functools.wraps(builder)
        def wrapper(*args, **kwargs):
            rhs = build(*args, **kwargs)

            def traced_rhs(t, y):
                tracer._enter("dynamics")
                try:
                    dy = rhs(t, y)
                finally:
                    tracer._exit()
                tracer.rhs_calls += 1
                if tracer.record:
                    tracer.rhs_args.append((rhs, t, y.copy()))
                return dy
            return traced_rhs
        return wrapper

    def _integrator(self, fn):
        tracer = self
        span = self._span("integrators", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.rhs_calls
            traj = span(*args, **kwargs)
            tracer.integrations.append(Integration(
                traj.method, traj.step_count, traj.rejected_steps, len(traj),
                tracer.rhs_calls - before))
            return traj
        return wrapper

    # --- install / restore ----------------------------------------------

    def _patches(self):
        m = self.mods
        yield m.cli, "main", self._span("cli", m.cli.main)
        for span, (mod_name, names) in MODULE_SPANS.items():
            mod = getattr(m, mod_name)
            for name in names:
                fn = getattr(mod, name)
                if span == "integrators":
                    wrapped = self._integrator(fn)
                elif span == "invariants.quad":
                    wrapped = self._quad(fn)
                else:
                    wrapped = self._span(span, fn)
                yield mod, name, wrapped
        for name in ODE_BUILDERS:
            yield m.dynamics, name, self._ode_builder(getattr(m.dynamics, name))
        for name in EXPR_METHODS:
            yield m.expr.Func1, name, self._expr(getattr(m.expr.Func1, name))

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, name, wrapper in self._patches():
                saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # --- results ----------------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Per-layer seconds of the invocations traced since ``reset``."""
        s, inc = self.self_s, self.incl_s
        return {
            "root": inc["cli"],
            "cli.self_s": s["cli"],
            "model.self_s": s["model"],
            "expr.self_s": s["expr"],
            "dynamics.self_s": s["dynamics"],
            "integrators.self_s": s["integrators"],
            "integrators.interp_s": s["integrators.interp"],
            "invariants.self_s": s["invariants"] + s["invariants.quad"],
            "invariants.quad_s": inc["invariants.quad"],
        }

    def partition_error(self) -> float:
        """|sum of all self times - root|; zero up to rounding when every
        span nests inside the root."""
        return abs(sum(self.self_s.values()) - self.incl_s["cli"])


def replay_us(records) -> float:
    """Untraced microseconds per call, replaying recorded
    ``(function, arg1, arg2)`` triples through the original functions."""
    if not records:
        return 0.0
    start = perf_counter()
    for fn, a, b in records:
        fn(a, b)
    return (perf_counter() - start) / len(records) * 1e6
