"""Quadrature, both invariant forms, and drift reporting."""

import math

import numpy as np
import pytest

from conftest import S1, S2, S3, load_scenario, random_phys_states
from test_golden import BARE_RK4
from ermakov import dynamics, integrators, model
from ermakov.errors import InvariantError, QuadratureError, SingularityError
from ermakov.expr import compile_func
from ermakov.invariants import (
    InvariantReport,
    _RunningIntegral,
    default_ref,
    drift_report,
    energy_Q,
    ermakov_lewis,
    invariant_series,
    quad,
    ray_reid_invariant,
    report_from_series,
)
from ermakov.model import PhysState, QFrameState


def _traj(scn, t_end=None, tol=None, stride=None):
    st = scn.initial
    y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
    return integrators.integrate_adaptive54(
        dynamics.phys_ode(scn), y0, st.t,
        scn.plan.t_end if t_end is None else t_end,
        scn.plan.step if tol is None else tol,
        scn.plan.output_stride if stride is None else stride)


class TestQuad:
    def test_cubic_analytic(self):
        assert quad(lambda u: u**3, 1.0, 2.0, 1e-9) == pytest.approx(3.75, abs=1e-9)

    def test_degenerate_interval(self):
        assert quad(lambda u: u**3, 2.0, 2.0) == 0.0

    def test_linear_analytic(self):
        assert quad(lambda v: v * 1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_antisymmetry_exact(self):
        fwd = quad(lambda u: math.sin(u) * u, 0.3, 2.1, 1e-10)
        rev = quad(lambda u: math.sin(u) * u, 2.1, 0.3, 1e-10)
        assert rev == -fwd  # bitwise, by construction

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(QuadratureError, match="integrand"):
            quad(lambda u: 1.0 / u, -1.0, 1.0)

    def test_depth_exhaustion_on_discontinuity(self):
        step = lambda x: 0.0 if x < 1 / 3 else 1.0  # noqa: E731
        with pytest.raises(QuadratureError, match="converge"):
            quad(step, 0.0, 1.0, 1e-12)

    def test_transcendental_against_antiderivative(self):
        got = quad(math.exp, 0.0, 1.0, 1e-12)
        assert got == pytest.approx(math.e - 1.0, abs=1e-11)

    def test_default_ref(self):
        assert default_ref(lambda u: u * 4.0) == 0.0
        assert default_ref(lambda u: 1.0 / u) == 1.0


def _counting(fn):
    """``fn`` plus the list of points it was called at."""
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)
    return counted, calls


def _running_unassisted(fn, ref, tol, xs):
    """What _RunningIntegral.value returns along ``xs`` when every leg,
    a revisit's included, is a plain quad(fn, last_x, x): values as hex,
    then the first error."""
    last_x, last_val, out = ref, 0.0, []
    for x in xs:
        try:
            last_val += quad(fn, last_x, x, tol)
        except QuadratureError as err:
            return out + [str(err)]
        last_x = x
        out.append(last_val.hex())
    return out


def _running(fn, ref, tol, xs):
    running, out = _RunningIntegral(fn, ref, tol), []
    for x in xs:
        try:
            out.append(running.value(x).hex())
        except QuadratureError as err:
            return out + [str(err)]
    return out


class TestQuadEndpointReuse:
    FUNCS = (lambda x: math.sin(3.0 * x) * x + 2.0, lambda x: math.exp(-x * x),
             lambda x: 1.0 / (1.0 + x ** 4))

    def test_legs_reuse_their_start(self):
        # each leg, a revisit's included, runs from the last point, not from
        # the reference, and samples nothing outside that leg
        rng = np.random.default_rng(12)
        xs = [float(v) for v in rng.uniform(-2.0, 2.0, 40)]
        xs += [xs[3], xs[-1], 0.0, xs[7]]  # revisits take a leg too
        for fn in self.FUNCS:
            counted, calls = _counting(fn)
            running = _RunningIntegral(counted, 0.0, 1e-10)
            for x in xs:
                lo, hi = sorted((running.last_x, x))
                calls.clear()
                running.value(x)
                assert calls and all(lo <= c <= hi for c in calls)
            assert _running(fn, 0.0, 1e-10, xs) == _running_unassisted(fn, 0.0, 1e-10, xs)
        # 0 -> 1 -> 2 -> 1: the revisit is 1 ulp from the first value at 1
        fn = self.FUNCS[2]
        running = _RunningIntegral(fn, 0.0, 1e-10)
        first, last_val = running.value(1.0), running.value(2.0)
        again = running.value(1.0)
        assert again.hex() == (last_val + quad(fn, 2.0, 1.0, 1e-10)).hex()
        assert again != first

    def test_a_revisited_start_stays_unsampled(self):
        # the reference point need not be in the integrand's domain: a
        # zero leg to it samples nothing, and the first real leg fails as
        # quad does
        def fn(x):
            return 1.0 / x
        counted, calls = _counting(fn)
        running = _RunningIntegral(counted, 0.0, 1e-10)
        assert running.value(0.0) == 0.0 and running.value(-0.0) == 0.0
        assert calls == [] and math.isnan(running.last_f)
        with pytest.raises(QuadratureError, match="integrand failed at x=-0.0"):
            running.value(1.0)

    @pytest.mark.parametrize("ref,xs", [
        (0.0, [0.5, -1.0, 2.5, 1.2]),   # fails at a new right end
        (2.0, [2.1, 1.5]),              # fails at a new left end
        (2.5, [3.0]),                   # first leg, both ends fail: start first
        (3.0, [2.5]),                   # reversed first leg: the new end first
        (0.0, [1.0, 2.0]),              # fails at a leg's midpoint
    ])
    def test_errors_unchanged(self, ref, xs):
        def fn(x):  # not finite on (1.45, 1.55) and from 2.25 on
            return math.nan if 1.45 < x < 1.55 or x >= 2.25 else x * x
        got = _running(fn, ref, 1e-10, xs)
        assert got == _running_unassisted(fn, ref, 1e-10, xs)
        assert "not finite" in got[-1]

    def test_tolerance_checked_before_sampling(self):
        def fn(x):
            raise ZeroDivisionError("integrand down")
        for tol in (0.0, -1.0, math.nan):
            got = _running(fn, 0.0, tol, [1.0])
            assert got == _running_unassisted(fn, 0.0, tol, [1.0])
            assert got[-1].startswith("tol must be positive")


class TestEnergyQ:
    def test_mixed_potential(self):
        V = compile_func("Q^4/4", "Q")
        W = compile_func("s^2/2", "s")
        assert energy_Q(QFrameState(tau=0.0, Q=1.0, Q_prime=0.0), V, W) == \
            pytest.approx(0.75, rel=1e-14)

    def test_free(self):
        val = energy_Q(QFrameState(tau=0.0, Q=1.0, Q_prime=2.0),
                       compile_func("0", "Q"), compile_func("0", "s"))
        assert val == 2.0

    def test_harmonic(self):
        val = energy_Q(QFrameState(tau=0.0, Q=1.0, Q_prime=0.0),
                       compile_func("2*Q^2", "Q"), compile_func("0", "s"))
        assert val == 2.0

    def test_barrier_guard(self):
        with pytest.raises(SingularityError):
            energy_Q(QFrameState(tau=0.0, Q=0.0, Q_prime=0.0),
                     compile_func("0", "Q"), compile_func("s^2/2", "s"))

    def test_overflowing_kinetic_term_is_inf(self):
        # Q'^2 raises OverflowError on floats; the energy reads inf instead
        assert energy_Q(QFrameState(tau=0.0, Q=1.0, Q_prime=1e200), None, None) \
            == math.inf


class TestRayReidInvariant:
    def test_s1_initial_state_analytic(self, s1):
        st = s1.initial
        val = ray_reid_invariant(st, s1, 0.0, 0.0, 1e-12)
        assert val == pytest.approx(1.0, abs=1e-11)

    def test_pure_wronskian_when_couplings_vanish(self):
        scn = load_scenario(S1, ["coupling.V=0"])
        st = PhysState(t=0.0, tau=0.0, q=1.0, q_dot=0.5, f=2.0, f_dot=-0.25)
        w = 1.0 * (0.5 * 2.0 - 1.0 * -0.25)
        assert ray_reid_invariant(st, scn) == pytest.approx(0.5 * w**2, rel=1e-14)

    def test_collinear_state_vanishes(self):
        scn = load_scenario(S1, ["coupling.V=0"])
        st = PhysState(t=0.0, tau=0.0, q=1.5, q_dot=0.4, f=1.5, f_dot=0.4)
        assert ray_reid_invariant(st, scn) == pytest.approx(0.0, abs=1e-15)

    def test_additive_constant_independence(self, s3):
        traj = _traj(s3, t_end=10.0)
        base = None
        for (u_ref, v_ref) in ((0.0, 0.0), (1.0, 2.0)):
            vals = []
            for i in range(0, len(traj), 20):
                q, q_dot, f, f_dot, tau = traj.y[i]
                st = PhysState(t=traj.t[i], tau=tau, q=q, q_dot=q_dot,
                               f=f, f_dot=f_dot)
                vals.append(ray_reid_invariant(st, s3, u_ref, v_ref, 1e-12))
            vals = np.array(vals)
            drift = np.max(np.abs(vals - vals[0]))
            if base is None:
                base = drift
            else:
                assert abs(drift - base) < 1e-10

    def test_even_under_time_reversal(self, s3):
        st = PhysState(t=0.3, tau=0.0, q=1.1, q_dot=0.7, f=0.8, f_dot=-0.4)
        rev = PhysState(t=0.3, tau=0.0, q=1.1, q_dot=-0.7, f=0.8, f_dot=0.4)
        a = ray_reid_invariant(st, s3, 0.0, 0.0, 1e-12)
        b = ray_reid_invariant(rev, s3, 0.0, 0.0, 1e-12)
        assert a == b


class TestRayReidByHand:
    """ray_reid_invariant against its sum written out here; the two share
    nothing but quad and Func1 evaluation."""

    @staticmethod
    def _states(name):
        if name == "bare":
            scn = model.build_scenario(model.parse_config(BARE_RK4))
            st = scn.initial
            traj = integrators.integrate_fixed_rk4(
                dynamics.phys_ode(scn), [st.q, st.q_dot, st.f, st.f_dot, st.tau],
                st.t, 2.0, 0.01, 0.1)
        else:
            scn = load_scenario(name)
            traj = _traj(scn, t_end=10.0, stride=0.5)
        states = [PhysState(t, tau, q, q_dot, f, f_dot)
                  for t, (q, q_dot, f, f_dot, tau) in zip(traj.t, traj.y)]
        return scn, states

    @pytest.mark.parametrize("name", [S2, "bare"])
    def test_matches_the_written_out_sum(self, name):
        scn, states = self._states(name)
        F, G = scn.coupling_F, scn.coupling_G
        assert len(states) >= 20
        for st in states:
            m = scn.m(st.t)
            q, q_dot, f, f_dot = st.q, st.q_dot, st.f, st.f_dot
            want = (0.5 * (m * (q_dot * f - q * f_dot)) ** 2
                    + quad(lambda u: u * F(u), 0.0, q / f, 1e-12)
                    + quad(lambda v: v * G(v), 0.0, f / q, 1e-12))
            got = ray_reid_invariant(st, scn, 0.0, 0.0, 1e-12)
            assert got == pytest.approx(want, rel=1e-12), st

    def test_non_finite_value_is_an_invariant_error(self, s1):
        st = PhysState(t=0.0, tau=0.0, q=1.0, q_dot=1e160, f=1.0, f_dot=0.0)
        with pytest.raises(InvariantError, match="not finite"):
            ray_reid_invariant(st, s1)


class TestErmakovLewis:
    def test_matches_quadrature_form_on_s1(self, s1):
        st = s1.initial
        assert ermakov_lewis(st, 1.0, 2.0) == pytest.approx(
            ray_reid_invariant(st, s1, 0.0, 0.0, 1e-12), abs=1e-12)

    def test_zero_q_state(self):
        st = PhysState(t=0.0, tau=0.0, q=0.0, q_dot=1.0, f=1.0, f_dot=0.0)
        assert ermakov_lewis(st, 1.0, 5.0) == 0.5

    def test_omega_zero_pure_wronskian(self):
        st = PhysState(t=0.0, tau=0.0, q=1.0, q_dot=0.5, f=2.0, f_dot=0.0)
        assert ermakov_lewis(st, 1.0, 0.0) == 0.5 * (0.5 * 2.0) ** 2

    def test_equivalence_at_random_states(self, s1):
        # constant coupling F = Omega^2 = 4: closed form vs quadrature
        rng = np.random.default_rng(77)
        tol = 1e-10
        for st in random_phys_states(rng, 1000):
            closed = ermakov_lewis(st, s1.m(st.t), 2.0)
            quadr = ray_reid_invariant(st, s1, 0.0, 0.0, tol)
            assert abs(closed - quadr) <= 2.0 * tol * (1.0 + abs(closed))


def wronskian_identity_check(st, m):
    """Both sides of m^2 (q'f - qf')^2 == (x'rho - x rho')^2 under the
    x = q sqrt(m), rho = f sqrt(m) rescaling, written out here."""
    x, x_dot, rho, rho_dot = model.to_xrho(st, m)
    return ((m(st.t) * (st.q_dot * st.f - st.q * st.f_dot)) ** 2,
            (x_dot * rho - x * rho_dot) ** 2)


class TestWronskianIdentity:
    def test_unit_mass_trivial(self):
        st = PhysState(t=0.0, tau=0.0, q=1.0, q_dot=0.3, f=2.0, f_dot=-0.1)
        lhs, rhs = wronskian_identity_check(st, compile_func("1", "t"))
        assert lhs == rhs

    def test_exponential_mass_random_states(self):
        m = compile_func("exp(2*t)", "t")
        rng = np.random.default_rng(13)
        for st in random_phys_states(rng, 100):
            if st.t > 2.0:  # keep exp(2t) from dwarfing everything
                continue
            lhs, rhs = wronskian_identity_check(st, m)
            assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_proportional_solutions_vanish(self):
        st = PhysState(t=0.5, tau=0.0, q=1.0, q_dot=0.2, f=2.0, f_dot=0.4)
        lhs, rhs = wronskian_identity_check(st, compile_func("1+0.1*sin(t)", "t"))
        assert lhs == pytest.approx(0.0, abs=1e-28)
        assert rhs == pytest.approx(0.0, abs=1e-28)


class TestFrameEquality:
    """Quadrature route vs potential route: the two sides of the
    conserved-energy identity evaluated independently."""

    @pytest.mark.parametrize("name", [S1, S3])
    def test_quadrature_matches_energy_Q(self, name):
        scn = load_scenario(name)
        traj = _traj(scn, t_end=20.0)
        for i in range(0, len(traj), 10):
            q, q_dot, f, f_dot, tau = traj.y[i]
            st = PhysState(t=traj.t[i], tau=tau, q=q, q_dot=q_dot, f=f, f_dot=f_dot)
            mv = scn.m(st.t)
            mapped = QFrameState(tau=tau, Q=q / f, Q_prime=mv * (q_dot * f - q * f_dot))
            phys = ray_reid_invariant(st, scn, 0.0, 0.0, 1e-10)
            auto = energy_Q(mapped, scn.potential_V, scn.potential_W)
            assert abs(phys - auto) < 1e-7, (name, traj.t[i])


class TestDriftReport:
    def test_s1_constancy(self, s1):
        traj = _traj(s1)
        rep = drift_report(traj, s1)
        assert rep.e0 == pytest.approx(1.0, abs=1e-12)
        assert rep.max_rel_drift < 1e-8
        assert rep.frame_gap < 1e-8
        assert rep.samples == len(traj)

    def test_equilibrium_trajectory_zero_drift(self):
        # q and f both start on fixed points: nothing moves
        scn = load_scenario(S3, ["initial.q=1", "initial.f=1",
                                 "integration.t_end=5"])
        traj = _traj(scn)
        rep = drift_report(traj, scn)
        assert rep.max_abs_drift == 0.0
        assert rep.max_rel_drift == 0.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_series_rejected(self, bad):
        e = np.array([1.0, bad, 1.0])
        with pytest.raises(InvariantError):
            report_from_series(e, e)

    def test_single_sample(self, s1):
        traj = _traj(s1, t_end=s1.initial.t)
        rep = drift_report(traj, s1)
        assert rep.samples == 1
        assert rep.max_abs_drift == 0.0

    def test_quadrature_path_for_bare_couplings(self):
        # same dynamics as S1 but the coupling given directly: the energy
        # series must come out through the running-quadrature path
        cfg = model.parse_config("""
[functions]
m = 1
omega_tilde_sq = 1
[coupling]
F = 4
[initial]
q = 1
q_dot = 0
f = 1.4142135623730951
f_dot = 0
[integration]
method = adaptive54
t_end = 20
tol = 1e-10
output_stride = 0.05
""")
        scn = model.build_scenario(cfg)
        traj = _traj(scn)
        e_phys, e_q, meta, _rows = invariant_series(traj, scn, 1e-11)
        assert meta["u_side"] == "quadrature"
        assert meta["u_ref"] == 0.0
        assert np.max(np.abs(np.array(e_phys) - 1.0)) < 1e-7
        rep = drift_report(traj, scn, 1e-11)
        assert rep.max_rel_drift < 1e-7

    def test_relative_drift_suppressed_for_zero_energy(self):
        cfg = model.parse_config("""
[functions]
m = 1
omega_tilde_sq = 0
[coupling]
[initial]
q = 1
q_dot = 0
f = 1
f_dot = 0
[integration]
method = rk4
t_end = 1
dt = 0.1
output_stride = 0.5
""")
        scn = model.build_scenario(cfg)
        st = scn.initial
        y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
        traj = integrators.integrate_fixed_rk4(dynamics.phys_ode(scn), y0,
                                               0.0, 1.0, 0.1, 0.5)
        rep = drift_report(traj, scn)
        assert rep.e0 == 0.0
        assert rep.max_rel_drift == 0.0

    def test_report_requires_finite_fields(self):
        with pytest.raises(ValueError):
            InvariantReport(e0=float("nan"), max_abs_drift=0.0,
                            max_rel_drift=0.0, samples=1, frame_gap=0.0)
