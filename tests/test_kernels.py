"""Generated kernels against the reference computations they stand in for.

``dynamics.phys_ode``, ``dynamics.qframe_ode_from_scenario`` and the
quadrature integrand of ``invariants`` are each one generated function
per scenario.  Every component of every result must have the bits of the
reference (the scalar kernel behind ``_vector_rhs``, the Q-frame
acceleration, ``lambda w: w * coupling(w)``), and every failure the
reference's exception type and message.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import S1, S2, S3, load_scenario, random_expr, random_phys_states
from ermakov import dynamics, invariants, model
from ermakov.errors import ExprDomainError, InvalidMassError, SingularityError
from ermakov.expr import compile_func, func_from_expr, parse

BARE = model.parse_config("""
[functions]
m = 1+0.1*sin(t)
omega_tilde_sq = 1
[coupling]
F = 2+exp(-u^2)
G = 1+1/(1+v^2)
[initial]
q = 1.2
q_dot = 0
f = 0.9
f_dot = 0
[integration]
method = rk4
t_end = 1
dt = 0.01
output_stride = 0.01
""")

SPECIAL = (0.0, -0.0, 1e-12, -1e-12, 1e-300, 1e200, -1e200, math.inf, math.nan)


def _outcome(fn, *args):
    """("value", bit patterns of the result, so -0.0 != 0.0) or ("error",
    the exception's type name, its message)."""
    try:
        value = fn(*args)
    except Exception as err:  # noqa: BLE001 -- the failure is what is compared
        return "error", type(err).__name__, str(err)
    if isinstance(value, tuple):
        return "value", tuple(float(v).hex() for v in value)
    return "value", float(value).hex()


def _reference_phys(scn):
    return dynamics._vector_rhs(dynamics._phys_kernel(scn))


def _reference_qframe(scn):
    accel = dynamics.qframe_accel(scn.potential_V, scn.potential_W,
                                  scn.coupling_F, scn.coupling_G)
    return dynamics._vector_rhs(lambda tau, Q, Q_prime: (Q_prime, accel(Q, tau)))


def _pairs(scn, rng):
    """(generated, reference, argument tuples) for each kernel of ``scn``."""
    phys_args = [(st.t, [st.q, st.q_dot, st.f, st.f_dot, st.tau])
                 for st in random_phys_states(rng, 12)]
    phys_args += [(0.5, [v, 0.3, 1.1, -0.2, 0.0]) for v in SPECIAL]
    phys_args += [(0.5, [0.8, 0.3, v, -0.2, 0.0]) for v in SPECIAL]
    q_values = [float(v) for v in rng.uniform(-2.5, 2.5, 12)] + list(SPECIAL)
    qframe_args = [(0.25, [Q, 0.7]) for Q in q_values]
    yield dynamics.phys_ode(scn), _reference_phys(scn), phys_args
    yield (dynamics.qframe_ode_from_scenario(scn), _reference_qframe(scn),
           qframe_args)
    for coupling in (scn.coupling_F, scn.coupling_G):
        yield (invariants._integrand(coupling), lambda w, c=coupling: w * c(w),
               [(w,) for w in q_values])


def _assert_agree(scn, rng) -> tuple[int, int]:
    """Compare every kernel of ``scn``; returns (values, errors) seen."""
    kinds = []
    for fast, ref, arg_list in _pairs(scn, rng):
        for args in arg_list:
            want = _outcome(ref, *args)
            assert _outcome(fast, *args) == want, (str(scn.m.expr), args)
            kinds.append(want[0])
    return kinds.count("value"), kinds.count("error")


def _random_scenario(rng, potentials: bool):
    base = load_scenario(S1)
    kw = dict(m=func_from_expr(random_expr(rng, 3, "t"), "t"),
              omega_tilde_sq=func_from_expr(random_expr(rng, 3, "t"), "t"))
    if potentials:
        V = func_from_expr(random_expr(rng, 3, "Q"), "Q")
        W = func_from_expr(random_expr(rng, 3, "s"), "s")
        return replace(base, coupling_F=model.F_from_V(V),
                       coupling_G=model.G_from_W(W), potential_V=V,
                       potential_W=W, **kw)
    return replace(base, coupling_F=func_from_expr(random_expr(rng, 3, "u"), "u"),
                   coupling_G=func_from_expr(random_expr(rng, 3, "v"), "v"),
                   potential_V=None, potential_W=None, **kw)


class TestAgreement:
    @pytest.mark.parametrize("name", [S1, S2, S3, "bare"])
    def test_shipped_scenarios(self, name):
        scn = model.build_scenario(BARE) if name == "bare" else load_scenario(name)
        values, _ = _assert_agree(scn, np.random.default_rng(5))
        assert values > 50

    def test_random_scenarios(self):
        rng = np.random.default_rng(20261018)
        values = errors = 0
        for i in range(120):
            v, e = _assert_agree(_random_scenario(rng, potentials=i % 2 == 0), rng)
            values += v
            errors += e
        assert values > 3000 and errors > 1000  # both paths must bite

    def test_float_results_on_the_fast_path(self):
        rhs = dynamics.phys_ode(model.build_scenario(BARE))
        dy = rhs(0.3, [1.2, 0.1, 0.9, -0.1, 0.0])
        assert type(dy) is tuple and all(type(v) is float for v in dy)


class TestErrorPaths:
    """Each way a call leaves the fast path, with the error it must raise."""

    def _both(self, scn, kernel, *args):
        fast = {"phys": dynamics.phys_ode, "qframe": dynamics.qframe_ode_from_scenario}
        ref = {"phys": _reference_phys, "qframe": _reference_qframe}
        got = _outcome(fast[kernel](scn), *args)
        assert got == _outcome(ref[kernel](scn), *args)
        return got

    @pytest.mark.parametrize("q,f,name", [(1e-11, 0.9, "q"), (1.2, -1e-11, "f"),
                                          (0.0, 0.9, "q"), (1.2, 0.0, "f")])
    def test_guard(self, q, f, name):
        got = self._both(model.build_scenario(BARE), "phys", 0.5, [q, 0.0, f, 0.0, 0.0])
        assert got[1] == SingularityError.__name__ and got[2].startswith(f"|{name}|")

    def test_qframe_guard(self):
        got = self._both(load_scenario(S3), "qframe", 2.5, [-1e-11, 0.3])
        assert got[1] == SingularityError.__name__

    @pytest.mark.parametrize("m,t", [("1-t", 2.0), ("1-t", 1.0), ("1e400", 0.5),
                                     ("sqrt(t)", 0.0)])
    def test_invalid_mass(self, m, t):
        scn = replace(load_scenario(S3), m=compile_func(m, "t"))
        got = self._both(scn, "phys", t, [1.2, 0.0, 0.9, 0.0, 0.0])
        assert got[1] == InvalidMassError.__name__

    def test_ln_of_negative(self):
        scn = replace(model.build_scenario(BARE), coupling_F=compile_func("ln(u)", "u"))
        got = self._both(scn, "phys", 0.5, [-1.2, 0.0, 0.9, 0.0, 0.0])
        assert got[1] == ExprDomainError.__name__ and "math domain error" in got[2]
        got = self._both(scn, "qframe", 0.5, [-1.2, 0.0])
        assert got[1] == ExprDomainError.__name__
        fast = invariants._integrand(scn.coupling_F)
        assert _outcome(fast, -2.0) == _outcome(lambda w: w * scn.coupling_F(w), -2.0)

    def test_non_finite_intermediate(self):
        # u*1e308*10 overflows to inf with no exception and 1/inf is a
        # finite 0: only the finiteness check of the intermediates sends
        # this to the reference, which rejects it
        scn = replace(model.build_scenario(BARE),
                      coupling_F=compile_func("1/(u*1e308*10)", "u"))
        got = self._both(scn, "phys", 0.5, [1.2, 0.0, 0.9, 0.0, 0.0])
        assert got[1] == ExprDomainError.__name__ and "non-finite" in got[2]
        assert self._both(scn, "qframe", 0.5, [1.2, 0.0])[1] == ExprDomainError.__name__
        with pytest.raises(ExprDomainError, match="non-finite"):
            invariants._integrand(scn.coupling_F)(1.0)

    def test_cube_overflow_takes_the_numpy_redo(self):
        # q ** 3 raises OverflowError on floats; the reference redoes the
        # call on numpy scalars, where G/(m^2 q^3) is an IEEE 0
        scn = replace(model.build_scenario(BARE), coupling_F=compile_func("4", "u"),
                      coupling_G=compile_func("1", "v"))
        got = self._both(scn, "phys", 0.5, [1e200, 0.0, 0.9, 0.0, 0.0])
        assert got[0] == "value" and float.fromhex(got[1][1]) == -1e200
        assert self._both(scn, "qframe", 0.5, [1e200, 0.3])[0] == "value"

    @pytest.mark.parametrize("F", [
        # V = Q^4/4 + Q^2: F = V'(u)/u is 0/0 at u = 0, patched by V''(0) = 2
        model.F_from_V(compile_func("Q^4/4+Q^2", "Q")),
        # a patch that differs from the expression's own value at 0
        func_from_expr(parse("2+u", "u"), "u", at_zero=5.0),
    ])
    def test_at_zero_points(self, F):
        # with G = 0 the state may sit at q = 0 and Q = 0
        scn = replace(load_scenario(S1), coupling_F=F, potential_V=None,
                      coupling_G=compile_func("0", "v"), potential_W=None)
        for q in (0.0, -0.0):
            assert self._both(scn, "phys", 0.5, [q, 0.4, 0.9, 0.0, 0.0])[0] == "value"
            assert self._both(scn, "qframe", 0.5, [q, 0.4])[0] == "value"
        fast = invariants._integrand(F)
        for w in (0.0, -0.0, 1e-3):
            assert _outcome(fast, w) == _outcome(lambda w: w * F(w), w)
