"""Generated kernels against the reference computations they stand in for.

``dynamics.phys_ode``, ``dynamics.qframe_ode_from_scenario`` and the
quadrature integrand of ``invariants`` are each one generated function
per scenario.  Every component of every result must have the bits of the
reference (the checked builds of the physical and Q-frame programs,
``lambda w: w * coupling(w)``), and every failure the reference's
exception type and message.
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import S1, S2, S3, load_scenario, random_expr, random_phys_states
from ermakov import dynamics, invariants, model
from ermakov.errors import (ErmakovError, ExprDomainError, InvalidMassError,
                             SingularityError)
from ermakov.expr import compile_func, func_from_expr, parse, to_source

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


def _vector(kernel):
    """rhs(t, y) = kernel(t, *y): a scalar kernel as an ODE."""
    return lambda t, y: kernel(t, *y)


def _checked_phys(scn):
    """The checked build of the physical program: phys_ode's fallback."""
    return dynamics._build_checked("t, *y", dynamics._emit_phys, scn)


def _checked_accel(scn):
    """The checked build of the Q-frame acceleration, (Q, tau=0.0) -> Q''."""
    return dynamics._build_checked("Q, tau=0.0", dynamics._emit_qframe, scn.potential_V,
                                   scn.potential_W, scn.coupling_F, scn.coupling_G)


def _reference_phys(scn):
    return _vector(_checked_phys(scn))


def _reference_qframe(scn):
    accel = _checked_accel(scn)
    return _vector(lambda tau, Q, Q_prime: (Q_prime, accel(Q, tau)))


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
        return base._replace(coupling_F=model.F_from_V(V),
                             coupling_G=model.G_from_W(W), potential_V=V,
                             potential_W=W, **kw)
    return base._replace(coupling_F=func_from_expr(random_expr(rng, 3, "u"), "u"),
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
        scn = load_scenario(S3)._replace(m=compile_func(m, "t"))
        got = self._both(scn, "phys", t, [1.2, 0.0, 0.9, 0.0, 0.0])
        assert got[1] == InvalidMassError.__name__

    def test_ln_of_negative(self):
        scn = model.build_scenario(BARE)._replace(coupling_F=compile_func("ln(u)", "u"))
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
        scn = model.build_scenario(BARE)._replace(
            coupling_F=compile_func("1/(u*1e308*10)", "u"))
        got = self._both(scn, "phys", 0.5, [1.2, 0.0, 0.9, 0.0, 0.0])
        assert got[1] == ExprDomainError.__name__ and "non-finite" in got[2]
        assert self._both(scn, "qframe", 0.5, [1.2, 0.0])[1] == ExprDomainError.__name__
        with pytest.raises(ExprDomainError, match="non-finite"):
            invariants._integrand(scn.coupling_F)(1.0)

    def test_cube_overflow_takes_the_numpy_redo(self):
        # q ** 3 raises OverflowError on floats; the reference's IEEE power
        # gives inf instead, as numpy scalars do, so G/(m^2 q^3) is 0
        scn = model.build_scenario(BARE)._replace(coupling_F=compile_func("4", "u"),
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
        scn = load_scenario(S1)._replace(coupling_F=F, potential_V=None,
                                         coupling_G=compile_func("0", "v"),
                                         potential_W=None)
        for q in (0.0, -0.0):
            assert self._both(scn, "phys", 0.5, [q, 0.4, 0.9, 0.0, 0.0])[0] == "value"
            assert self._both(scn, "qframe", 0.5, [q, 0.4])[0] == "value"
        fast = invariants._integrand(F)
        for w in (0.0, -0.0, 1e-3):
            assert _outcome(fast, w) == _outcome(lambda w: w * F(w), w)

    def test_bare_w_prime_rejects_nan(self):
        # W = s^2/2 differentiates to the bare s, and with V = 0 nothing
        # else meets Q = nan: only the variable's own finiteness check
        # raises, where the cancelled 2.0*s raised before
        V, W = compile_func("0", "Q"), compile_func("s^2/2", "s")
        assert to_source(W.d1) == "s"
        reference = dynamics._build_checked("tau, y", dynamics._emit_qframe_ode,
                                            V, W, None, None)
        for ode in (dynamics._qframe_ode(V, W), reference):
            with pytest.raises(ErmakovError, match="non-finite value in 's'"):
                ode(0.5, [math.nan, 0.3])
        assert _outcome(dynamics._qframe_ode(V, W), 0.5, [2.0, 0.3]) == (
            "value", ((0.3).hex(), (0.125).hex()))


class TestConstantMassDrag:
    """A constant m's drag -(m'/m) x' is -0.0*x'.  The physical RHS drops
    it where (-0.0*x' - w~2 x) + term is term - w~2 x bit for bit, and
    keeps it where the drag decides the sign of a zero: w~2 x = +0.0,
    x' < 0 and an active term of -0.0."""

    @pytest.mark.parametrize("m", ["1", "2"])
    @pytest.mark.parametrize("omt2", ["1", "0", "t", "-1e-320"])
    @pytest.mark.parametrize("F,G", [("0", "0"), ("-u", "0"), ("0", "-(v*0)"),
                                     ("-(u*0)", "-(v*0)")])
    def test_against_the_drag_formula(self, m, omt2, F, G):
        scn = load_scenario(S1)._replace(
            m=compile_func(m, "t"), omega_tilde_sq=compile_func(omt2, "t"),
            coupling_F=compile_func(F, "u"), coupling_G=compile_func(G, "v"),
            potential_V=None, potential_W=None)
        mv = scn.m(0.0)
        drag = -(0.0 / mv)

        def accel(t, x, x_dot, coupling, ratio):
            term = (0.0 if coupling.source == "0.0"
                    else coupling(ratio) / (mv * mv * x ** 3))
            return ((drag * x_dot) - scn.omega_tilde_sq(t) * x) + term

        for t, q, q_dot, f, f_dot in itertools.product(
                (0.0, 0.5), (0.0, -0.0, 0.7, -0.7), (-1.0, 0.0, 1.0),
                (1.3, -1.3), (-1.0, 0.0, 1.0)):
            y = [q, q_dot, f, f_dot, 0.0]
            if G != "0" and q == 0.0:
                continue  # the q guard
            want = (accel(t, q, q_dot, scn.coupling_G, f / q if q else 0.0).hex(),
                    accel(t, f, f_dot, scn.coupling_F, q / f).hex())
            for rhs in (dynamics.phys_ode(scn), _reference_phys(scn)):
                dy = rhs(t, y)
                assert (dy[1].hex(), dy[3].hex()) == want, (t, y)


# --- the kernels' IEEE operators against numpy's ----------------------------
# The reference kernels run on plain floats, where ``**`` overflow and a zero
# divisor raise; dynamics.ieee_pow/ieee_div give the IEEE value instead.  The
# oracle is the same kernel on numpy float64 scalars, which never raise there
# (the helpers' fallbacks never run), converted back to floats.

def _on_numpy(kernel):
    def rhs(t, y):
        with np.errstate(all="ignore"):
            return tuple(map(float, kernel(t, *np.array(y, dtype=float))))
    return rhs


def _ieee_pairs(scn):
    """{kernel name: (reference adapter, numpy oracle, state width)}."""
    phys = _checked_phys(scn)
    accel = _checked_accel(scn)
    qframe = lambda tau, Q, Q_prime: (Q_prime, accel(Q, tau))  # noqa: E731
    om2 = lambda t: model.omega_sq_from_mass(scn.m, scn.omega_tilde_sq, t)  # noqa: E731
    g, h = model.g_from_G(scn.coupling_G), model.h_from_F(scn.coupling_F)
    xrho = lambda t, x, x_dot, rho, rho_dot: dynamics.rhs_xrho(  # noqa: E731
        x, x_dot, rho, rho_dot, t, om2, g, h)
    return {"phys": (_vector(phys), _on_numpy(phys), 5),
            "qframe": (_vector(qframe), _on_numpy(qframe), 2),
            "xrho": (lambda t, y: dynamics.rhs_xrho(*y, t, om2, g, h), _on_numpy(xrho), 4)}


def _scaled_mass(scn, k):
    return scn if k == 1.0 else scn._replace(
        m=compile_func(f"{k!r}*({scn.m.source})", "t"))


# a mass of 1e-170 squares to 0; one of 1e-320 makes m f^2 vanish too
IEEE_SCENARIOS = {
    (name, k): _ieee_pairs(_scaled_mass(scn, k))
    for name, scn in [("s1", load_scenario(S1)), ("s2", load_scenario(S2)),
                      ("s3", load_scenario(S3)), ("bare", model.build_scenario(BARE)),
                      ("s3_W1", load_scenario(S3, ["coupling.W=1"]))]
    for k in (1.0, 1e-170, 1e-300, 1e-320)}

# |x| log-uniform in 1e-160..1e300 with either sign, or a special value
coordinate = st.one_of(
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((1.0, -1.0)),
              st.floats(-160.0, 300.0)),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=coordinate, n=st.sampled_from((2, 3)),
       b=st.one_of(st.sampled_from((0.0, -0.0)), coordinate))
def test_ieee_helpers_match_numpy(x, n, b):
    with np.errstate(all="ignore"):
        want_pow = float(np.float64(x) ** n)
        want_div = float(np.float64(x) / np.float64(b))
    assert dynamics.ieee_pow(x, n).hex() == want_pow.hex()
    assert dynamics.ieee_div(x, b).hex() == want_div.hex()


def _plain(outcome):
    """``outcome`` with numpy's scalar repr np.float64(x) read as x."""
    if outcome[0] == "error":
        return outcome[:2] + (re.sub(r"np\.float64\(([^()]*)\)", r"\1", outcome[2]),)
    return outcome


@pytest.mark.parametrize("kernel", ["phys", "qframe", "xrho"])
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(IEEE_SCENARIOS)),
       y=st.lists(coordinate, min_size=5, max_size=5))
@example(key=("s3", 1.0), y=[1e120, 0.0, 0.9, 0.0, 0.0])
@example(key=("s3", 1e-170), y=[-1e200, 0.0, 1e-5, 0.0, 0.0])
@example(key=("s3_W1", 1e-320), y=[0.0, 0.0, -1e-10, 0.0, 0.0])
def test_ieee_operators_match_numpy(kernel, key, y):
    ref, oracle, width = IEEE_SCENARIOS[key][kernel]
    state = y[:width]
    assert _outcome(ref, 0.5, state) == _plain(_outcome(oracle, 0.5, state))
