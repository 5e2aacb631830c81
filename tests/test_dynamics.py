"""Equations of motion, Lagrangian evaluators, gauge identity,
and the cross-frame trajectory equivalences."""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import S1, S2, load_scenario, scenario_path
from ermakov import dynamics, integrators, model
from ermakov.errors import PotentialsUnavailableError, SingularityError
from ermakov.expr import compile_func
from ermakov.model import PhysState, QFrameState, build_scenario, parse_config


def _scn(m="1", w2="1", V="0", W="0", F=None, G=None, q=1.0, f=1.0):
    coupling = f"V = {V}\nW = {W}\n" if F is None else f"F = {F}\nG = {G}\n"
    return build_scenario(parse_config(f"""
[functions]
m = {m}
omega_tilde_sq = {w2}
[coupling]
{coupling}
[initial]
q = {q}
q_dot = 0
f = {f}
f_dot = 0
[integration]
method = adaptive54
t_end = 1
tol = 1e-10
output_stride = 0.1
"""))


def _state(t=0.0, q=1.0, q_dot=0.0, f=1.0, f_dot=0.0, tau=0.0):
    return PhysState(t=t, tau=tau, q=q, q_dot=q_dot, f=f, f_dot=f_dot)


def _rhs(st, scn):
    """(dq, dq_dot, df, df_dot, dtau) from the ODE every run integrates."""
    return dynamics.phys_ode(scn)(st.t, [st.q, st.q_dot, st.f, st.f_dot, st.tau])


class TestRhsPhys:
    def test_auxiliary_equilibrium(self):
        # constant coupling 4, unit frequency: f* = 2^(1/2) is a fixed point
        scn = _scn(V="2*Q^2", W="0", f=math.sqrt(2.0))
        _, dq_dot, _, df_dot, _ = _rhs(_state(q=1.0, f=math.sqrt(2.0)), scn)
        assert dq_dot == pytest.approx(-1.0, abs=1e-14)
        assert df_dot == pytest.approx(0.0, abs=1e-14)

    def test_decoupled_linear_limit(self):
        scn = _scn(V="0", W="0")
        dq, dq_dot, df, df_dot, _ = _rhs(_state(q=0.7, q_dot=0.2, f=1.3, f_dot=-0.1), scn)
        assert dq == 0.2
        assert dq_dot == pytest.approx(-0.7)
        assert df == -0.1
        assert df_dot == pytest.approx(-1.3)

    def test_time_dependent_mass_direct_substitution(self):
        # expansion of d/dt(m q') = m q'' + m' q' with q' = 0 at this state
        scn = _scn(m="1+0.1*sin(t)", V="0", W="0")
        _, dq_dot, _, _, dtau = _rhs(_state(q=1.0, f=1.0), scn)
        assert dq_dot == pytest.approx(-1.0, abs=1e-14)
        assert dtau == pytest.approx(1.0, abs=1e-14)

    def test_drag_term_fd_oracle(self):
        # independent expansion: m q'' + m' q' + m w~2 q - G/(m q^3) = 0,
        # so q'' must equal the packaged right side; check with q' != 0
        scn = _scn(m="1+0.1*sin(t)", V="0", W="0")
        st = _state(t=0.4, q=0.9, q_dot=0.5, f=1.1, f_dot=-0.2)
        dq_dot = _rhs(st, scn)[1]
        mv, md = scn.m(st.t), scn.m.deriv(st.t)
        assert mv * dq_dot + md * st.q_dot + mv * 1.0 * st.q == pytest.approx(0.0, abs=1e-13)

    def test_q_guard_only_with_active_barrier(self):
        free = _scn(V="2*Q^2", W="0")
        dq_dot = _rhs(_state(q=1e-12, f=1.0), free)[1]  # fine: G = 0
        assert math.isfinite(dq_dot)
        barrier = _scn(V="2*Q^2", W="s^2/2")
        with pytest.raises(SingularityError):
            _rhs(_state(q=1e-12, f=1.0), barrier)

    def test_f_guard_always_active(self):
        scn = _scn(V="0", W="0")
        with pytest.raises(SingularityError):
            _rhs(_state(q=1.0, f=1e-12), scn)


class TestOdeAdapters:
    def test_overflowing_denominator_gives_ieee_values(self):
        # q^3 overflows: G/(m^2 q^3) is 0 by IEEE arithmetic, as numpy
        # scalars give it, rather than an OverflowError escaping the step
        with np.errstate(over="ignore"):
            dy = dynamics.phys_ode(_scn(F="4", G="1"))(
                0.0, np.array([1e200, 0.0, 1.0, 0.0, 0.0]))
            dQ = dynamics.qframe_ode_from_scenario(_scn(F="0", G="1"))(
                0.0, np.array([1e200, 0.5]))
        assert list(dy) == [0.0, -1e200, 0.0, 3.0, 1.0]
        assert list(dQ) == [0.5, 0.0]

    def test_float_state_gives_float_tuple(self):
        # the steppers pass the state as a list of floats; the adapter
        # hands back plain floats, also where q^3 overflows to inf
        rhs = dynamics.phys_ode(_scn(F="4", G="1"))
        for y in ([1.0, 0.5, 2.0, 0.0, 0.0], [1e200, 0.0, 1.0, 0.0, 0.0]):
            dy = rhs(0.0, y)
            assert type(dy) is tuple and all(type(v) is float for v in dy)
        assert dy == (0.0, -1e200, 0.0, 3.0, 1.0)

    def test_qframe_guard_reports_tau(self):
        for scn in (_scn(V="Q^4/4", W="s^2/2"), _scn(F="u^2", G="1")):
            with pytest.raises(SingularityError) as exc:
                dynamics.qframe_ode_from_scenario(scn)(2.5, np.array([1e-12, 0.0]))
            assert exc.value.t == 2.5


class TestRhsXRho:
    def test_returns_four_plain_floats(self):
        s2 = _scn(m="1+0.1*sin(t)", V="2*Q^2")
        om2 = lambda t: model.omega_sq_from_mass(s2.m, s2.omega_tilde_sq, t)  # noqa: E731
        dx = dynamics.rhs_xrho(1.0, 0.1, 1.2, -0.1, 0.3, om2,
                               model.g_from_G(s2.coupling_G),
                               model.h_from_F(s2.coupling_F))
        assert len(dx) == 4 and all(type(v) is float for v in dx)

    def test_linear_limit(self):
        g = compile_func("0", "v")
        h = compile_func("0", "u")
        dx, dxd, dr, drd = dynamics.rhs_xrho(0.4, 0.1, 1.5, -0.2, 0.0,
                                             lambda t: 1.0, g, h)
        assert (dx, dxd, dr, drd) == (0.1, pytest.approx(-0.4), -0.2,
                                      pytest.approx(-1.5))

    def test_harmonic_auxiliary_fixed_point(self):
        h = compile_func("4*u", "u")
        g = compile_func("0", "v")
        _, _, _, rdd = dynamics.rhs_xrho(1.0, 0.0, math.sqrt(2.0), 0.0, 0.0,
                                         lambda t: 1.0, g, h)
        assert rdd == pytest.approx(0.0, abs=1e-14)

    def test_direct_substitution(self):
        g = compile_func("v", "v")
        h = compile_func("0", "u")
        _, xdd, _, _ = dynamics.rhs_xrho(1.0, 0.0, 2.0, 0.0, 0.0,
                                         lambda t: 0.0, g, h)
        assert xdd == pytest.approx(1.0, abs=1e-14)


def _accel_Q(V, W, Q):
    """Q'' from the transformed-frame ODE that map and Verlet integrate."""
    return dynamics._qframe_ode(V, W)(0.0, [Q, 0.0])[1]


class TestRhsQ:
    """The transformed-frame equation of motion, through _qframe_ode."""

    def test_equilibrium_of_mixed_potential(self):
        V = compile_func("2*Q^2", "Q")      # (1/2) Omega^2 Q^2, Omega = 2
        W = compile_func("2*s^2", "s")      # (1/2) k s^2, k = 4
        assert _accel_Q(V, W, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_harmonic_frequency(self):
        V = compile_func("2*Q^2", "Q")
        W = compile_func("0", "s")
        for Q in (-1.0, 0.3, 2.0):
            assert _accel_Q(V, W, Q) == pytest.approx(-4.0 * Q, rel=1e-14)

    def test_free_particle(self):
        V = compile_func("0", "Q")
        W = compile_func("0", "s")
        assert _accel_Q(V, W, 0.5) == 0.0

    def test_zero_crossing_allowed_without_barrier(self):
        V = compile_func("2*Q^2", "Q")
        assert _accel_Q(V, None, 0.0) == 0.0

    def test_barrier_guard(self):
        W = compile_func("s^2/2", "s")
        with pytest.raises(SingularityError):
            _accel_Q(None, W, 1e-12)


class TestLagrangians:
    def test_lagrangian_Q_mixed(self):
        V = compile_func("Q^4/4", "Q")
        W = compile_func("s^2/2", "s")
        val = dynamics.lagrangian_Q(QFrameState(tau=0.0, Q=1.0, Q_prime=0.0), V, W)
        assert val == pytest.approx(-0.75, rel=1e-14)

    def test_lagrangian_Q_free(self):
        val = dynamics.lagrangian_Q(QFrameState(tau=0.0, Q=3.0, Q_prime=2.0),
                                    compile_func("0", "Q"), compile_func("0", "s"))
        assert val == 2.0

    def test_lagrangian_Q_harmonic(self):
        val = dynamics.lagrangian_Q(
            QFrameState(tau=0.0, Q=1.0, Q_prime=math.sqrt(2.0)),
            compile_func("2*Q^2", "Q"), compile_func("0", "s"))
        assert val == pytest.approx(-1.0, rel=1e-14)

    def test_overflowing_kinetic_term_is_inf(self):
        # Q'^2 overflows: L reads inf, as energy_Q does, not OverflowError
        val = dynamics.lagrangian_Q(QFrameState(tau=0.0, Q=1.0, Q_prime=1e200),
                                    None, None)
        assert val == math.inf

    def test_lagrangian_q_tilde_balanced_state(self):
        # at f = 1, f' = 0, the auxiliary acceleration term vanishes:
        # d/dt(m f') = -4 + 4 = 0, leaving only the potential part
        scn = _scn(w2="4", V="2*Q^2", W="0")
        val = dynamics.lagrangian_q_tilde(_state(), scn)
        assert val == pytest.approx(-2.0, rel=1e-14)

    def test_lagrangian_q_tilde_free_limit(self):
        scn = _scn(w2="0", V="0", W="0")
        st = _state(q_dot=0.7)
        assert dynamics.lagrangian_q_tilde(st, scn) == pytest.approx(0.5 * 0.49)

    def test_matches_mapped_autonomous_lagrangian_at_fdot_zero(self):
        scn = _scn(w2="4", V="2*Q^2", W="0")
        st = _state()
        l_tilde = dynamics.lagrangian_q_tilde(st, scn)
        l_q = dynamics.lagrangian_Q(QFrameState(tau=0.0, Q=1.0, Q_prime=0.0),
                                    scn.potential_V, scn.potential_W)
        assert l_tilde == pytest.approx(l_q / (scn.m(0.0) * st.f**2), rel=1e-14)

    def test_needs_potentials(self):
        scn = _scn(F="4", G="0")
        with pytest.raises(PotentialsUnavailableError, match="need the potential"):
            dynamics.frame_potentials(scn)
        with pytest.raises(PotentialsUnavailableError):
            dynamics.lagrangian_q_tilde(_state(), scn)
        with pytest.raises(PotentialsUnavailableError):
            dynamics.gauge_residual(_state(), scn)


class TestGaugeResidual:
    def test_a_zero_coupling_needs_no_potential(self):
        # S1 without its `W = 0` line has G = 0 and no W: a structurally
        # zero coupling needs no potential, so the residual and L~ read
        # S1's values bit for bit
        text = Path(scenario_path(S1)).read_text(encoding="utf-8")
        assert "W = 0\n" in text
        bare = build_scenario(parse_config(text.replace("W = 0\n", "")))
        s1 = load_scenario(S1)
        assert bare.potential_W is None and s1.potential_W is not None
        moving = _state(t=0.3, q=0.8, q_dot=0.4, f=1.3, f_dot=-0.2)
        for st in (s1.initial, moving):
            for fn in (dynamics.gauge_residual, dynamics.lagrangian_q_tilde):
                assert fn(st, bare).hex() == fn(st, s1).hex(), (fn.__name__, st)
        assert dynamics.lagrangian_q_tilde(moving, s1) != 0.0

    def test_zero_at_rest_states(self):
        scn = _scn(w2="4", V="2*Q^2", W="0")
        assert dynamics.gauge_residual(_state(), scn) == pytest.approx(0.0, abs=1e-14)

    def test_zero_in_free_limit(self):
        scn = _scn(w2="0", V="0", W="0")
        st = _state(q_dot=1.3, f_dot=0.0)
        assert dynamics.gauge_residual(st, scn) == pytest.approx(0.0, abs=1e-14)

    def test_zero_at_generic_states(self):
        scn = _scn(m="1+0.1*sin(t)", w2="1", V="Q^4/4", W="s^2/2")
        rng = np.random.default_rng(11)
        for _ in range(200):
            st = _state(t=float(rng.uniform(0, 6)),
                        q=float(rng.uniform(0.3, 2.0)),
                        q_dot=float(rng.uniform(-2, 2)),
                        f=float(rng.uniform(0.3, 2.0)),
                        f_dot=float(rng.uniform(-2, 2)))
            assert abs(dynamics.gauge_residual(st, scn)) < 1e-10

    def test_total_derivative_fd_oracle(self, s2):
        """The analytic dPhi/dt inside the residual must match a finite
        difference of Phi = (1/2)(q^2/f) m f' along a real trajectory."""
        st0 = s2.initial
        y0 = np.array([st0.q, st0.q_dot, st0.f, st0.f_dot, st0.tau])
        ts, h = (1.0, 3.7, 8.2), 1e-5
        traj = integrators.integrate_adaptive54(
            dynamics.phys_ode(s2), y0, st0.t, 10.0, 1e-12, 0.01,
            [t + d for t in ts for d in (-h, 0.0, h)])
        at = dict(zip(traj.t, traj.y))  # the dense output at t and t +- h

        def phi_at(t):
            q, q_dot, f, f_dot, _ = at[t]
            return 0.5 * (q * q / f) * s2.m(t) * f_dot

        for t in ts:
            fd = (phi_at(t + h) - phi_at(t - h)) / (2 * h)
            q, q_dot, f, f_dot, tau = at[t]
            st = PhysState(t=t, tau=tau, q=q, q_dot=q_dot, f=f, f_dot=f_dot)
            mv = s2.m(t)
            dmf = -mv * s2.omega_tilde_sq(t) * f + s2.coupling_F(q / f) / (mv * f**3)
            dphi = (mv * q * q_dot * f_dot / f - 0.5 * mv * (q * f_dot / f) ** 2
                    + 0.5 * (q * q / f) * dmf)
            assert dphi == pytest.approx(fd, abs=5e-7)


class TestFrameEquivalence:
    def test_xrho_integration_matches_mapped_physical(self, s2):
        """Integrating the unit-mass pair directly agrees with mapping the
        physical trajectory sample by sample."""
        st = s2.initial
        y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
        traj = integrators.integrate_adaptive54(dynamics.phys_ode(s2), y0,
                                                st.t, 20.0, 1e-10, 0.05)
        g = model.g_from_G(s2.coupling_G)
        h = model.h_from_F(s2.coupling_F)
        om2 = lambda t: model.omega_sq_from_mass(s2.m, s2.omega_tilde_sq, t)  # noqa: E731
        xrho = lambda t, y: dynamics.rhs_xrho(*y, t, om2, g, h)  # noqa: E731
        x0 = model.to_xrho(st, s2.m)
        trx = integrators.integrate_adaptive54(xrho, np.array(x0), st.t, 20.0,
                                               1e-10, 0.05)
        dev = 0.0
        for i in range(len(traj)):
            q, q_dot, f, f_dot, tau = traj.y[i]
            mapped = model.to_xrho(PhysState(t=traj.t[i], tau=tau, q=q,
                                             q_dot=q_dot, f=f, f_dot=f_dot), s2.m)
            dev = max(dev, float(np.max(np.abs(np.array(mapped) - trx.y[i]))))
        assert dev < 1e-6, f"max frame deviation {dev}"

    def test_qframe_direct_matches_mapped(self, s1):
        """Q(tau) from the autonomous frame equals q(t)/f(t) at equal tau."""
        st = s1.initial
        y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
        traj = integrators.integrate_adaptive54(dynamics.phys_ode(s1), y0,
                                                st.t, 30.0, 1e-10, 0.05)
        tau = np.array(traj.y)[:, 4]
        direct = integrators.integrate_adaptive54(
            dynamics.qframe_ode_from_scenario(s1),
            np.array([st.q / st.f, st.q_dot * st.f - st.q * st.f_dot]),
            0.0, float(tau[-1]), 1e-10, 0.01, [float(x) for x in tau])
        at_tau = dict(zip(direct.t, direct.y))  # its dense output at each tau
        worst = max(abs(at_tau[x][0] - q / f) for x, (q, _, f, _, _) in zip(tau, traj.y))
        assert worst < 1e-5, f"max cross-frame gap {worst}"

    def test_reversibility(self, s2):
        # time reversal s = 15 - t as a forward run: the mass m(15 - s) and
        # the t = 15 state with its velocities flipped lead back to the start
        st = s2.initial
        y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
        fwd = integrators.integrate_adaptive54(dynamics.phys_ode(s2), y0,
                                               st.t, 15.0, 1e-10, 15.0)
        reversed_s2 = load_scenario(S2, ["functions.m=1.0+0.1*sin(15.0-t)"])
        q, q_dot, f, f_dot, _ = fwd.y[-1]
        back = integrators.integrate_adaptive54(dynamics.phys_ode(reversed_s2),
                                                [q, -q_dot, f, -f_dot, 0.0],
                                                0.0, 15.0, 1e-10, 15.0)
        q, q_dot, f, f_dot, _ = back.y[-1]
        assert np.max(np.abs(np.array([q, -q_dot, f, -f_dot]) - y0[:4])) < 1e-6

    def test_qframe_ode_from_couplings_matches_potential_form(self):
        with_pot = _scn(V="Q^4/4", W="s^2/2")
        bare = _scn(F="u^2", G="1")
        rhs_pot = dynamics.qframe_ode_from_scenario(with_pot)
        rhs_bare = dynamics.qframe_ode_from_scenario(bare)
        for Q in (-1.7, -0.4, 0.3, 1.0, 2.2):
            y = np.array([Q, 0.1])
            assert rhs_bare(0.0, y)[1] == pytest.approx(rhs_pot(0.0, y)[1], rel=1e-12)
