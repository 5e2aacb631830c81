"""The potential-derived kernels against exact algebra, an oracle that
shares no code with what it checks.

sympy differentiates each potential (S3's, and drawn polynomials whose
terms divide by powers of two and by other integers) exactly; V', W',
V'/u and W'/v are then evaluated in rational arithmetic at random points
away from 0 and rounded once.  ``evaluate`` on the derivative trees and
the coupling conversions, and both builds (generated and checked) of the
transformed-frame ODE and of the physical RHS, must land within a few
ulp of that.  Each polynomial's terms share one power parity, so V' and
W' have no cancelling terms at any sign of the point and an ulp bound
means something.  The transformed frame's W side is W'(s)/(Q*Q) at the
rounded s = 1/Q, and is compared with exact W'(s)/Q^2 at that s.
Measured on these draws: at most 2 ulp, 3 on the transformed frame's W
side; 400 such polynomials at 50 points each read at most 3 ulp
everywhere, the bound below.
"""

import random
import struct
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from ermakov import dynamics, model  # noqa: E402
from ermakov.expr import compile_func, evaluate  # noqa: E402

DENOMINATORS = (1, 2, 4, 8, 16, 3, 5, 6, 7, 10)
BOUND = 3  # ulp


def _potentials(rng, var, n):
    """S3's potential in ``var``, then ``n`` drawn polynomials of 1-3 terms
    c*x^k/d of one power parity."""
    yield {"Q": "Q^4/4", "s": "s^2/2"}[var]
    for _ in range(n):
        powers = rng.choice(((2, 4, 6), (1, 3, 5)))
        yield "+".join(f"{rng.randint(1, 9)}*{var}^{rng.choice(powers)}"
                       f"/{rng.choice(DENOMINATORS)}" for _ in range(rng.randint(1, 3)))


def _exact_derivative(text, var):
    """The exact coefficients of P', highest power first, as Fractions."""
    x = sp.Symbol(var)
    d = sp.Poly(sp.diff(sp.sympify(text.replace("^", "**"), locals={var: x}), x), x)
    return [Fraction(int(c.p), int(c.q)) for c in d.all_coeffs()]


def _at(coeffs, x):
    value = Fraction(0)
    for c in coeffs:
        value = value * x + c
    return value


def _points(rng, n):
    """Random rationals of magnitude in [1/8, 8], either sign, as floats."""
    return [rng.choice((-1, 1)) * float(Fraction(rng.randint(1, 64 * 1000), 8 * 1000))
            for _ in range(n)]


def _ulps(got, want):
    assert (got < 0) == (want < 0), (got, want)
    a, b = (struct.unpack("<q", struct.pack("<d", abs(v)))[0] for v in (got, want))
    return abs(a - b)


def _scenario(V, W):
    """S3 with the potentials V and W, m = 1 and w~2 = 0, so the physical
    RHS's accelerations at q = 1 or f = 1 (velocities 0) are G(f) and F(q)."""
    return model.build_scenario(model.parse_config(f"""
[functions]
m = 1
omega_tilde_sq = 0
[coupling]
V = {V}
W = {W}
[initial]
q = 1.2
q_dot = 0
f = 0.9
f_dot = 0
[integration]
method = adaptive54
t_end = 1
tol = 1e-10
output_stride = 0.05
"""))


def test_potential_derived_kernels_match_exact_algebra():
    rng = random.Random(20261019)
    worst = {}

    def check(name, got, want):
        err = _ulps(got, float(want))
        worst[name] = max(worst.get(name, 0), err)
        assert err <= BOUND, (name, got, float(want), err)

    checked = 0
    for V_text, W_text in zip(_potentials(rng, "Q", 24), _potentials(rng, "s", 24)):
        V, W = compile_func(V_text, "Q"), compile_func(W_text, "s")
        dV, dW = _exact_derivative(V_text, "Q"), _exact_derivative(W_text, "s")
        F, G = model.F_from_V(V), model.G_from_W(W)
        scn = _scenario(V_text, W_text)
        phys = (dynamics.phys_ode(scn), dynamics._build_checked("t, y", dynamics._emit_phys, scn))
        v_side = (dynamics._qframe_ode(V, None),
                  dynamics._build_checked("tau, y", dynamics._emit_qframe_ode, V, None, None, None))
        w_side = (dynamics._qframe_ode(None, W),
                  dynamics._build_checked("tau, y", dynamics._emit_qframe_ode, None, W, None, None))
        for x in _points(rng, 30):
            r = Fraction(x)
            dv, dw = _at(dV, r), _at(dW, r)
            check("V'", evaluate(V.d1, x), dv)
            check("W'", evaluate(W.d1, x), dw)
            check("V'/u", evaluate(F.expr, x), dv / r)
            check("W'/v", evaluate(G.expr, x), dw / r)
            s = 1.0 / x  # the transformed frame's W' argument, rounded
            for build in phys:
                check("phys V'/u", build(0.0, [x, 0.0, 1.0, 0.0, 0.0])[3], dv / r)
                check("phys W'/v", build(0.0, [1.0, 0.0, x, 0.0, 0.0])[1], dw / r)
            for build in v_side:
                check("qframe V'", build(0.0, [x, 0.0])[1], -dv)
            for build in w_side:
                check("qframe W'(1/Q)/Q^2", build(0.0, [x, 0.0])[1],
                      _at(dW, Fraction(s)) / (r * r))
            checked += 1
    assert checked == 25 * 30
    assert max(worst.values()) >= 1  # the comparison is not vacuous
