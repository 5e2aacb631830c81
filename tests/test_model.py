"""Coupling algebra, frequency shift, scenario construction."""

import math
import pickle

import numpy as np
import pytest

from conftest import load_scenario, random_phys_states, S1, S3
from ermakov import dynamics, model
from ermakov.errors import ConfigError, ExprDomainError, InvalidMassError
from ermakov.expr import compile_func, is_zero
from ermakov.model import (
    F_from_V,
    G_from_W,
    PhysState,
    apply_overrides,
    build_scenario,
    g_from_G,
    h_from_F,
    mass_at,
    omega_sq_from_mass,
    parse_config,
    to_xrho,
)


class TestCouplingFromPotential:
    def test_harmonic_potential_gives_constant_coupling(self):
        F = F_from_V(compile_func("2*Q^2", "Q"))
        for u in (-2.0, -0.5, 0.3, 1.7):
            assert F(u) == pytest.approx(4.0, rel=1e-14)
        assert F(0.0) == 4.0  # removable singularity patched by the limit

    def test_quartic_potential(self):
        F = F_from_V(compile_func("Q^4/4", "Q"))
        assert F(3.0) == pytest.approx(9.0, rel=1e-14)

    def test_zero_potential(self):
        F = F_from_V(compile_func("0", "Q"))
        assert is_zero(F.expr)

    def test_nonzero_slope_at_origin_is_singular(self):
        F = F_from_V(compile_func("sin(Q)", "Q"))
        with pytest.raises(ExprDomainError):
            F(0.0)

    def test_G_from_quadratic_barrier_fd_oracle(self):
        # G(v) = W'(v)/v with W' estimated by finite differences
        W = compile_func("s^2/2", "s")
        G = G_from_W(W)
        h = 1e-6
        for v in np.linspace(0.1, 5.0, 50):
            wp = (W(v + h) - W(v - h)) / (2 * h)
            assert G(float(v)) == pytest.approx(wp / v, rel=1e-8)
        assert G(2.0) == pytest.approx(1.0, rel=1e-14)

    def test_G_zero_and_quartic(self):
        assert is_zero(G_from_W(compile_func("0", "s")).expr)
        G = G_from_W(compile_func("s^4/4", "s"))
        assert G(2.0) == pytest.approx(4.0, rel=1e-14)


class TestCouplingNormalization:
    def test_h_from_constant_F(self):
        h = h_from_F(compile_func("4", "u"))
        assert h(1.0) == 4.0
        assert h(2.5) == 10.0

    def test_h_from_square(self):
        h = h_from_F(compile_func("u^2", "u"))
        assert h(2.0) == 8.0

    def test_h_zero(self):
        h = h_from_F(compile_func("0", "u"))
        assert is_zero(h.expr) or h(3.0) == 0.0

    def test_h_defined_at_origin_even_when_F_is_a_ratio(self):
        F = F_from_V(compile_func("2*Q^2", "Q"))
        h = h_from_F(F)
        assert h(0.0) == 0.0

    def test_g_from_constant_G(self):
        g = g_from_G(compile_func("1", "v"))
        assert g(0.5) == 0.5

    def test_g_zero_and_square(self):
        assert g_from_G(compile_func("0", "v"))(2.0) == 0.0
        g = g_from_G(compile_func("v^2", "v"))
        assert g(3.0) == pytest.approx(27.0, rel=1e-14)

    def test_h_round_trip_recovers_F(self):
        rng = np.random.default_rng(5)
        F = compile_func("u^2 - 3*u + 1", "u")
        h = h_from_F(F)
        for u in rng.uniform(0.2, 4.0, size=50):
            u = float(u)
            assert abs(h(u) / u - F(u)) <= 1e-14 * (1.0 + abs(F(u)))


class TestPolynomialCouplingIdentity:
    def test_uF_equals_true_derivative(self):
        # F_from_V(V)(u) * u must be V'(u); the oracle derivative comes
        # from the polynomial coefficients, not from the symbolic engine
        rng = np.random.default_rng(31)
        for _ in range(20):
            deg = int(rng.integers(1, 7))
            coeffs = np.round(rng.uniform(-3, 3, size=deg + 1), 3)
            src = "+".join(f"({c})*Q^{k}" for k, c in enumerate(coeffs))
            V = compile_func(src, "Q")
            F = F_from_V(V)
            dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
            for u in rng.uniform(0.1, 3.0, size=5):
                u = float(u) * (1 if rng.random() < 0.5 else -1)
                true_vp = sum(c * u ** k for k, c in enumerate(dcoeffs))
                assert abs(F(u) * u - true_vp) <= 1e-12 * (1.0 + abs(true_vp))


class TestOmegaSqFromMass:
    def test_constant_mass(self):
        m = compile_func("1", "t")
        w2 = compile_func("1", "t")
        for t in (0.0, 1.5, 9.0):
            assert omega_sq_from_mass(m, w2, t) == 1.0

    def test_exponential_mass_fd_oracle(self):
        m = compile_func("exp(2*t)", "t")
        w2 = compile_func("2", "t")
        h = 1e-4
        for t in (0.0, 0.5, 1.0):
            md = (m(t + h) - m(t - h)) / (2 * h)
            mdd = (m(t + h) - 2 * m(t) + m(t - h)) / h**2
            expected = 0.25 * (md / m(t)) ** 2 - 0.5 * mdd / m(t) + 2.0
            got = omega_sq_from_mass(m, w2, t)
            assert got == pytest.approx(expected, abs=1e-5)
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_sinusoidal_mass_fd_oracle(self):
        m = compile_func("1+0.5*sin(t)", "t")
        w2 = compile_func("0", "t")
        h = 1e-4
        got = omega_sq_from_mass(m, w2, 0.0)
        md = (m(h) - m(-h)) / (2 * h)
        mdd = (m(h) - 2 * m(0.0) + m(-h)) / h**2
        assert got == pytest.approx(0.25 * md**2 - 0.5 * mdd, abs=1e-5)
        assert got == pytest.approx(0.0625, abs=1e-12)

    @pytest.mark.parametrize("source", ["0", "-1", "1e400"])
    def test_mass_at_rejects_nonpositive_or_non_finite(self, source):
        with pytest.raises(InvalidMassError):
            mass_at(compile_func(source, "t"), 0.5)

    def test_nonpositive_mass_rejected(self):
        m = compile_func("t", "t")
        w2 = compile_func("1", "t")
        with pytest.raises(InvalidMassError):
            omega_sq_from_mass(m, w2, -2.0)


class TestToXRho:
    def test_unit_mass_identity(self):
        st = PhysState(t=0.0, tau=0.0, q=1.0, q_dot=0.0, f=2.0, f_dot=0.0)
        assert to_xrho(st, compile_func("1", "t")) == (1.0, 0.0, 2.0, 0.0)

    def test_constant_mass_scaling(self):
        st = PhysState(t=0.0, tau=0.0, q=1.0, q_dot=0.0, f=1.0, f_dot=0.0)
        x, _, _, _ = to_xrho(st, compile_func("4", "t"))
        assert x == 2.0

    def test_velocity_term_fd_oracle(self):
        # any path with the same (q, q_dot) 1-jet gives the same x_dot;
        # differentiate q(t)*sqrt(m(t)) numerically along an affine q
        m = compile_func("exp(2*t)", "t")
        st = PhysState(t=0.0, tau=0.0, q=1.0, q_dot=0.0, f=1.0, f_dot=0.5)
        x, x_dot, rho, rho_dot = to_xrho(st, m)
        h = 1e-6
        def x_of(dt, q0, qd0):
            return (q0 + qd0 * dt) * math.sqrt(m(st.t + dt))
        fd = (x_of(h, st.q, st.q_dot) - x_of(-h, st.q, st.q_dot)) / (2 * h)
        assert x == 1.0
        assert x_dot == pytest.approx(1.0, abs=1e-9)
        assert x_dot == pytest.approx(fd, abs=1e-8)
        fd_rho = (x_of(h, st.f, st.f_dot) - x_of(-h, st.f, st.f_dot)) / (2 * h)
        assert rho_dot == pytest.approx(fd_rho, abs=1e-8)


class TestRhsEquivalence:
    """The package's central algebraic claim: the q-f pair with couplings
    (F, G) maps exactly onto the unit-mass x-rho pair with couplings
    (h, g) = (uF, vG) and the shifted frequency."""

    def test_equivalence_at_random_states(self):
        cfg = parse_config("""
[functions]
m = 1+0.1*sin(t)
omega_tilde_sq = 1
[coupling]
V = Q^4/4
W = s^3/3
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
""")
        scn = build_scenario(cfg)
        g = g_from_G(scn.coupling_G)
        h = h_from_F(scn.coupling_F)
        om2 = lambda t: omega_sq_from_mass(scn.m, scn.omega_tilde_sq, t)  # noqa: E731

        rng = np.random.default_rng(424242)
        for st in random_phys_states(rng, 100):
            d = dynamics.rhs_phys(st, scn)
            mv, md, mdd = scn.m(st.t), scn.m.deriv(st.t), scn.m.deriv2(st.t)
            s = math.sqrt(mv)
            # chain rule for the second derivative of q*sqrt(m)
            xdd_expect = (d.dq_dot * s + st.q_dot * md / s
                          + 0.5 * st.q * mdd / s - 0.25 * st.q * md**2 / mv**1.5)
            rdd_expect = (d.df_dot * s + st.f_dot * md / s
                          + 0.5 * st.f * mdd / s - 0.25 * st.f * md**2 / mv**1.5)
            x, x_dot, rho, rho_dot = to_xrho(st, scn.m)
            _, xdd, _, rdd = dynamics.rhs_xrho(x, x_dot, rho, rho_dot, st.t,
                                               om2, g, h)
            assert abs(xdd - xdd_expect) <= 1e-9 * (1.0 + abs(xdd_expect))
            assert abs(rdd - rdd_expect) <= 1e-9 * (1.0 + abs(rdd_expect))


class TestBuildScenario:
    def test_s1_materializes_couplings(self, s1):
        for u in (-1.5, 0.2, 2.0):
            assert s1.coupling_F(u) == pytest.approx(4.0, rel=1e-14)
        assert is_zero(s1.coupling_G.expr)
        assert s1.potential_V is not None
        assert s1.initial.f == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_both_V_and_F_rejected(self):
        with pytest.raises(ConfigError, match="V and F"):
            load_scenario(S1, ["coupling.F=4"])

    def test_both_W_and_G_rejected(self):
        with pytest.raises(ConfigError, match="W and G"):
            load_scenario(S1, ["coupling.G=1"])

    def test_barrier_coupling_is_constant_one(self):
        scn = load_scenario(S1, ["coupling.W=s^2/2"])
        for v in (0.3, 1.0, 4.0):
            assert scn.coupling_G(v) == pytest.approx(1.0, rel=1e-14)

    def test_missing_initial_conditions(self):
        cfg = parse_config("[functions]\nm = 1\nomega_tilde_sq = 1\n"
                           "[integration]\nmethod = rk4\nt_end = 1\ndt = 0.1\n"
                           "output_stride = 0.1\n")
        with pytest.raises(ConfigError, match="initial"):
            build_scenario(cfg)

    def test_zero_initial_q_rejected(self):
        with pytest.raises(ConfigError, match="q must be nonzero"):
            load_scenario(S1, ["initial.q=0"])

    def test_zero_initial_f_rejected(self):
        with pytest.raises(ConfigError, match="f must be nonzero"):
            load_scenario(S1, ["initial.f=0"])

    def test_nonpositive_mass_at_t0_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            load_scenario(S1, ["functions.m=-1"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[functions]\nmass = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[extra]\nx = 1\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            load_scenario(S1, ["integration.method=euler"])

    def test_t_end_before_t0_rejected(self):
        with pytest.raises(ConfigError, match="t_end"):
            load_scenario(S1, ["integration.t_end=-1"])

    def test_t_end_equal_t0_allowed(self):
        scn = load_scenario(S1, ["integration.t_end=0"])
        assert scn.plan.t_end == scn.initial.t

    def test_t0_default_and_override(self, s1):
        assert s1.initial.t == 0.0
        assert s1.initial.tau == 0.0
        scn = load_scenario(S1, ["initial.t0=2", "integration.t_end=5"])
        assert scn.initial.t == 2.0

    def test_absent_couplings_default_to_zero(self):
        cfg = parse_config("""
[functions]
m = 1
omega_tilde_sq = 0
[initial]
q = 1
q_dot = 0
f = 1
f_dot = 0
[integration]
method = rk4
t_end = 1
dt = 0.1
output_stride = 0.1
""")
        scn = build_scenario(cfg)
        assert is_zero(scn.coupling_F.expr)
        assert is_zero(scn.coupling_G.expr)

    def test_malformed_config_text(self):
        with pytest.raises(ConfigError, match="parse error"):
            parse_config("not a config at all\n")

    def test_bad_override_format(self):
        doc = model.parse_config("[functions]\nm = 1\n")
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides(doc, ["nonsense"])
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(doc, ["functions.mass=2"])


class TestScenarioPickle:
    """Scenarios are plain values that can be sent to worker processes,
    also after their functions have been evaluated."""

    POINTS = (0.0, 0.7, 1.3, -2.0)

    @classmethod
    def _funcs(cls, scn):
        return (scn.m, scn.omega_tilde_sq, scn.coupling_F, scn.coupling_G,
                scn.potential_V, scn.potential_W)

    @classmethod
    def _values(cls, scn):
        out = []
        for f in cls._funcs(scn):
            for fn in (f, f.deriv, f.deriv2):
                for x in cls.POINTS:
                    try:
                        out.append(float(fn(x)).hex())
                    except ExprDomainError as err:
                        out.append(str(err))
        return out

    def test_round_trip_after_evaluation(self):
        scn = load_scenario(S3)
        before = self._values(scn)
        back = pickle.loads(pickle.dumps(scn))
        assert back == scn and hash(back) == hash(scn)
        for f, g in zip(self._funcs(scn), self._funcs(back)):
            assert g == f and hash(g) == hash(f)
        assert self._values(back) == before
