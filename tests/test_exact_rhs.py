"""The physical and transformed-frame right-hand sides against exact
algebra, an oracle that shares no code with what it checks.

Hypothesis draws a scenario: a mass m = 1 + a sin(b t) with |a| < 1, a
pumped w~2 = p + r cos(c t), and polynomial potentials V(Q) and W(s) of
one to three terms c x^k / d with small integers (k = 2..4, so F = V'/u
and G = W'/v are polynomials too).  Half the draws give the scenario as
those bare couplings F and G instead of V and W.  States are dyadic
rationals with |q|, |f| and |Q| at least 1/4, away from the singularity
guards, and every product b t and c t is exact in floats.

sympy writes out

    q'' = -(m'/m) q' - w~2 q + G(f/q) / (m^2 q^3)
    f'' = -(m'/m) f' - w~2 f + F(q/f) / (m^2 f^3)
    dtau/dt = 1 / (m f^2)
    Q'' = -Q F(Q) + G(1/Q) / Q^3

evaluates each to 50 digits at the drawn state and rounds once.  Both
builds of ``phys_ode`` and of ``qframe_ode_from_scenario`` (the generated
function and its checked fallback) must agree within BOUND ulp of the
largest term of the expanded sum at that state: the terms may cancel, so
an ulp of the result itself would bound nothing.  Measured: at most
4 ulp over 400 draws (3,200 comparisons), 2 at the 99th percentile.
"""

import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

sp = pytest.importorskip("sympy")

from ermakov import dynamics, model  # noqa: E402

BOUND = 6  # ulp of the largest term

t, q, q_dot, f, f_dot, x = sp.symbols("t q q_dot f f_dot x")


def _dyadic(lo, hi, denominator):
    """Floats n / denominator for integers n in [lo, hi], exact in binary."""
    return st.integers(lo, hi).map(lambda n: n / denominator)


def _signed(magnitude):
    return st.tuples(magnitude, st.sampled_from((-1.0, 1.0))).map(lambda p: p[0] * p[1])


@st.composite
def _polynomial(draw):
    """(text in x, sympy expression in x) of c x^k / d, one to three terms."""
    terms = draw(st.lists(st.tuples(st.integers(-9, 9).filter(bool), st.integers(2, 4),
                                    st.sampled_from((1, 2, 3, 4, 5, 7, 8, 10))),
                          min_size=1, max_size=3))
    text = "+".join(f"({c})*x^{k}/{d}" for c, k, d in terms)
    return text, sum(sp.Rational(c, d) * x**k for c, k, d in terms)


@st.composite
def _scenario(draw):
    """(Scenario, exact m, w~2, F(x), G(x)) of one drawn scenario."""
    a, b = draw(st.integers(-15, 15)), draw(st.integers(1, 3))
    p, r, c = draw(st.integers(-4, 8)), draw(st.integers(-4, 4)), draw(st.integers(1, 3))
    (V_text, V), (W_text, W) = draw(_polynomial()), draw(_polynomial())
    F, G = sp.expand(V.diff(x) / x), sp.expand(W.diff(x) / x)
    if draw(st.booleans()):
        coupling = f"V = {V_text.replace('x', 'Q')}\nW = {W_text.replace('x', 's')}"
    else:
        F_text, G_text = (str(e).replace("**", "^") for e in (F, G))
        coupling = f"F = {F_text.replace('x', 'u')}\nG = {G_text.replace('x', 'v')}"
    scn = model.build_scenario(model.parse_config(f"""
[functions]
m = 1+({a})/16*sin({b}*t)
omega_tilde_sq = ({p})/4+({r})/8*cos({c}*t)
[coupling]
{coupling}
[initial]
q = 1
q_dot = 0
f = 1
f_dot = 0
[integration]
method = adaptive54
t_end = 1
tol = 1e-10
output_stride = 0.1
"""))
    m = 1 + sp.Rational(a, 16) * sp.sin(b * t)
    w2 = sp.Rational(p, 4) + sp.Rational(r, 8) * sp.cos(c * t)
    return scn, m, w2, F, G


def _check(got, exact, point):
    """got within BOUND ulp of the largest term of ``exact`` at ``point``."""
    at = {s: sp.Rational(v) for s, v in point.items()}
    want = float(sp.N(exact.subs(at), 50))
    scale = max(abs(float(sp.N(term.subs(at), 50)))
                for term in sp.Add.make_args(sp.expand(exact)))
    err = abs(got - want) / math.ulp(scale)
    assert err <= BOUND, (got, want, err)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          phases=(Phase.generate,))  # no shrinking: a failure costs seconds
@given(drawn=_scenario(),
       t0=_dyadic(0, 384, 64),
       qs=st.tuples(_signed(_dyadic(8, 128, 32)), _dyadic(-64, 64, 32),
                    _signed(_dyadic(8, 128, 32)), _dyadic(-64, 64, 32)),
       Q=_signed(_dyadic(8, 128, 32)))
def test_right_hand_sides_match_exact_algebra(drawn, t0, qs, Q):
    scn, m, w2, F, G = drawn
    md = m.diff(t)
    exact = (-md / m * q_dot - w2 * q + G.subs(x, f / q) / (m**2 * q**3),
             -md / m * f_dot - w2 * f + F.subs(x, q / f) / (m**2 * f**3),
             1 / (m * f**2))
    point = dict(zip((t, q, q_dot, f, f_dot), (t0, *qs)))
    Q_exact = -x * F + G.subs(x, 1 / x) / x**3
    sides = (scn.potential_V, scn.potential_W, scn.coupling_F, scn.coupling_G)
    for phys, qframe in (
            (dynamics.phys_ode(scn), dynamics.qframe_ode_from_scenario(scn)),
            (dynamics._build_checked("t, y", dynamics._emit_phys, scn),
             dynamics._build_checked("tau, y", dynamics._emit_qframe_ode, *sides))):
        rates = phys(t0, [*qs, 0.0])
        assert (rates[0], rates[2]) == (qs[1], qs[3])
        for got, want in zip((rates[1], rates[3], rates[4]), exact):
            _check(got, want, point)
        Q_rates = qframe(0.0, [Q, 0.5])
        assert Q_rates[0] == 0.5
        _check(Q_rates[1], Q_exact, {x: Q})
