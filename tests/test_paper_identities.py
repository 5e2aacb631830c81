"""The paper's identities in exact algebra, an oracle that shares no code
with the program.

With the mass m, the base frequency w~2 and the couplings F and G left as
generic functions, the physical equations of motion (``dynamics``'
docstring)

    d/dt(m q') + m w~2 q = G(f/q) / (m q^3)
    d/dt(m f') + m w~2 f = F(q/f) / (m f^3)

conserve the Ray-Reid invariant

    E = (1/2) m^2 (q'f - qf')^2 + int^{q/f} u F(u) du + int^{f/q} v G(v) dv,

and Q = q/f against tau, with dtau/dt = 1/(m f^2), obeys the autonomous
Q'' = -Q F(Q) + G(1/Q)/Q^3.
"""

import pytest

sp = pytest.importorskip("sympy")

t, u, v = sp.symbols("t u v")
m, w2, q, f = (sp.Function(name)(t) for name in ("m", "w2", "q", "f"))
F, G = sp.Function("F"), sp.Function("G")

# q'' and f'' from the equations of motion
ACCEL = {
    q.diff(t, 2): (G(f / q) / (m * q**3) - m * w2 * q - m.diff(t) * q.diff(t)) / m,
    f.diff(t, 2): (F(q / f) / (m * f**3) - m * w2 * f - m.diff(t) * f.diff(t)) / m,
}


def on_the_flow(expr):
    """``expr`` with q'' and f'' replaced by the equations of motion."""
    return sp.simplify(expr.subs(ACCEL))


def test_ray_reid_invariant_is_conserved():
    wronskian = q.diff(t) * f - q * f.diff(t)
    E = (m**2 * wronskian**2 / 2
         + sp.Integral(u * F(u), (u, 0, q / f))
         + sp.Integral(v * G(v), (v, 0, f / q)))
    assert on_the_flow(E.diff(t)) == 0


def test_the_transformed_frame_equation():
    Q = q / f
    d_dtau = lambda e: m * f**2 * e.diff(t)  # noqa: E731 -- dtau/dt = 1/(m f^2)
    Q_prime = m * (q.diff(t) * f - q * f.diff(t))
    assert sp.simplify(d_dtau(Q) - Q_prime) == 0
    assert on_the_flow(d_dtau(Q_prime) - (-Q * F(Q) + G(1 / Q) / Q**3)) == 0


def test_the_gauge_identity_of_the_transformed_lagrangian():
    """Off the flow, for any m, q, f, V and W: the transformed Lagrangian
    differs from L_Q dtau/dt by the total derivative of
    Phi = (1/2)(q^2/f) m f'."""
    V, W = sp.Function("V"), sp.Function("W")
    Q = q / f
    Q_prime = m * (q.diff(t) * f - q * f.diff(t))
    L_tilde = (m * q.diff(t)**2 / 2 + (q**2 / f) * (m * f.diff(t)).diff(t) / 2
               - V(q / f) / (m * f**2) - W(f / q) / (m * f**2))
    L_Q = Q_prime**2 / 2 - V(Q) - W(1 / Q)
    Phi = (q**2 / f) * m * f.diff(t) / 2
    assert sp.simplify(L_tilde - L_Q / (m * f**2) - Phi.diff(t)) == 0
