"""Acceptance suite: the release-gating criteria, each at its stated
tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to get one PASS/FAIL
line per criterion.
"""

import math
import time

import numpy as np

from conftest import (
    S1,
    S2,
    S3,
    central_fd,
    load_scenario,
    random_expr,
    random_phys_states,
    scenario_path,
)
from ermakov import dynamics, integrators, invariants, model
from ermakov.cli import main
from ermakov.errors import ExprDomainError
from ermakov.expr import differentiate, evaluate, to_source
from ermakov.model import PhysState, QFrameState


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    assert ok, f"{name}: {detail}"


def _integrate(scn, t_end=None, tol=None, stride=None):
    st = scn.initial
    y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
    return integrators.integrate_adaptive54(
        dynamics.phys_ode(scn), y0, st.t,
        scn.plan.t_end if t_end is None else t_end,
        scn.plan.step if tol is None else tol,
        scn.plan.output_stride if stride is None else stride)


def _states_of(traj):
    for i in range(len(traj)):
        q, q_dot, f, f_dot, tau = traj.y[i]
        yield PhysState(t=float(traj.t[i]), tau=tau, q=q, q_dot=q_dot,
                        f=f, f_dot=f_dot)


def test_c01_s1_invariant_constancy():
    """Harmonic case: relative drift < 1e-8, energy equals the analytic
    value 1 within 1e-6 at every sample, under 5 s wall time."""
    scn = load_scenario(S1)
    t0 = time.perf_counter()
    traj = _integrate(scn)  # tol 1e-10, t in [0, 50] from the config
    e_phys, _, _, _ = invariants.invariant_series(traj, scn)
    rep = invariants.drift_report(traj, scn)
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(np.array(e_phys) - 1.0)))
    ok = rep.max_rel_drift < 1e-8 and worst < 1e-6 and elapsed < 5.0
    _verdict("criterion 1: S1 invariant constancy", ok,
             f"max_rel_drift={rep.max_rel_drift:.3e}, max|E-1|={worst:.3e}, "
             f"runtime={elapsed:.2f}s")


def test_c02_frame_equality():
    """Both forms of the conserved energy agree along S1, S2, S3: the
    reported physical/transformed gap and, independently, the quadrature
    route against the potential route."""
    worst_gap = 0.0
    worst_dual = 0.0
    for name in (S1, S2, S3):
        scn = load_scenario(name)
        traj = _integrate(scn)
        rep = invariants.drift_report(traj, scn)
        worst_gap = max(worst_gap, rep.frame_gap)
        for i, st in enumerate(_states_of(traj)):
            if i % 25:
                continue
            mv = scn.m(st.t)
            mapped = QFrameState(tau=st.tau, Q=st.q / st.f,
                                 Q_prime=mv * (st.q_dot * st.f - st.q * st.f_dot))
            phys = invariants.ray_reid_invariant(st, scn, 0.0, 0.0, 1e-10)
            auto = invariants.energy_Q(mapped, scn.potential_V, scn.potential_W)
            worst_dual = max(worst_dual, abs(phys - auto))
    ok = worst_gap < 1e-7 and worst_dual < 1e-7
    _verdict("criterion 2: frame equality", ok,
             f"max report gap={worst_gap:.3e}, max quadrature-vs-potential "
             f"gap={worst_dual:.3e}")


def test_c03_rhs_equivalence():
    """Unit-mass pair vs transformed physical pair: identical
    accelerations at 100 random states with the breathing mass."""
    cfg = model.parse_config("""
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
    scn = model.build_scenario(cfg)
    g = model.g_from_G(scn.coupling_G)
    h = model.h_from_F(scn.coupling_F)
    om2 = lambda t: model.omega_sq_from_mass(scn.m, scn.omega_tilde_sq, t)  # noqa: E731
    rng = np.random.default_rng(20260811)
    worst = 0.0
    phys = dynamics.phys_ode(scn)
    for st in random_phys_states(rng, 100):
        _, dq_dot, _, df_dot, _ = phys(st.t, [st.q, st.q_dot, st.f, st.f_dot, st.tau])
        mv, md, mdd = scn.m(st.t), scn.m.deriv(st.t), scn.m.deriv2(st.t)
        s = math.sqrt(mv)
        xdd_expect = (dq_dot * s + st.q_dot * md / s
                      + 0.5 * st.q * mdd / s - 0.25 * st.q * md**2 / mv**1.5)
        rdd_expect = (df_dot * s + st.f_dot * md / s
                      + 0.5 * st.f * mdd / s - 0.25 * st.f * md**2 / mv**1.5)
        x, x_dot, rho, rho_dot = model.to_xrho(st, scn.m)
        _, xdd, _, rdd = dynamics.rhs_xrho(x, x_dot, rho, rho_dot, st.t, om2, g, h)
        worst = max(worst,
                    abs(xdd - xdd_expect) / (1.0 + abs(xdd_expect)),
                    abs(rdd - rdd_expect) / (1.0 + abs(rdd_expect)))
    _verdict("criterion 3: RHS equivalence", worst < 1e-9,
             f"max relative deviation={worst:.3e} over 100 states")


def test_c04_gauge_identity():
    """Lagrangian gauge residual vanishes along S1 and S3 trajectories."""
    worst = 0.0
    count = 0
    for name in (S1, S3):
        scn = load_scenario(name)
        traj = _integrate(scn)  # 1001 samples each
        for st in _states_of(traj):
            worst = max(worst, abs(dynamics.gauge_residual(st, scn)))
            count += 1
    ok = worst < 1e-9 and count >= 2000
    _verdict("criterion 4: gauge identity", ok,
             f"max |residual|={worst:.3e} over {count} states")


def test_c05_cross_frame_trajectory():
    """Direct transformed-frame integration of S3 vs the mapped physical
    trajectory over tau in [0, 20]."""
    scn = load_scenario(S3)
    traj = _integrate(scn)
    tau = np.array(traj.y)[:, 4]
    assert tau[-1] >= 20.0, "S3 run must cover tau = 20"
    st = scn.initial
    matched = [float(x) for x in tau if x <= 20.0]
    direct = integrators.integrate_adaptive54(
        dynamics.qframe_ode_from_scenario(scn),
        np.array([st.q / st.f, scn.m(st.t) * (st.q_dot * st.f - st.q * st.f_dot)]),
        0.0, 20.0 + scn.plan.output_stride, 1e-10, 0.01, matched)
    at_tau = dict(zip(direct.t, direct.y))  # its dense output at each tau
    worst = max(abs(at_tau[x][0] - q / f)
                for x, (q, _, f, _, _) in zip(matched, traj.y))
    compared = len(matched)
    ok = worst < 1e-5 and compared > 300
    _verdict("criterion 5: cross-frame trajectory", ok,
             f"max |dQ|={worst:.3e} over {compared} matched samples")


def test_c06_derivative_engine():
    """Symbolic derivatives against central finite differences on 200
    random expression trees."""
    rng = np.random.default_rng(424242)
    worst = 0.0
    points = 0
    for _ in range(200):
        e = random_expr(rng, 5)
        d = differentiate(e)
        for x in rng.uniform(-2.0, 2.0, size=100):
            fd = central_fd(e, float(x))
            if fd is None:
                continue
            try:
                sym = evaluate(d, float(x))
            except ExprDomainError:
                continue
            if not math.isfinite(sym) or abs(sym) > 1e4:
                continue
            rel = abs(sym - fd) / (1.0 + abs(sym))
            if rel >= 1e-6:
                _verdict("criterion 6: derivative engine", False,
                         f"{to_source(e)} at x={x}: sym={sym} fd={fd}")
            worst = max(worst, rel)
            points += 1
    ok = points > 5000
    _verdict("criterion 6: derivative engine", ok,
             f"max relative error={worst:.3e} over {points} points")


def test_c07_quadrature():
    """Cubic integral to 1e-9 and exact antisymmetry under limit swap."""
    val = invariants.quad(lambda u: u**3, 1.0, 2.0, 1e-9)
    swap = invariants.quad(lambda u: u**3, 2.0, 1.0, 1e-9)
    ok = abs(val - 3.75) <= 1e-9 and swap == -val
    _verdict("criterion 7: quadrature", ok,
             f"integral={val!r}, antisymmetry exact={swap == -val}")


def test_c08_convergence_orders():
    """RK4 endpoint-error ratio per dt halving within [8, 32] on S1;
    adaptive endpoint error monotone (within 2x) across tolerances."""
    scn = load_scenario(S1)
    st = scn.initial
    y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
    t_end = 20.0
    errs = []
    for dt in (0.1, 0.05, 0.025):
        traj = integrators.integrate_fixed_rk4(dynamics.phys_ode(scn), y0,
                                               st.t, t_end, dt, t_end)
        errs.append(abs(traj.y[-1][0] - math.cos(t_end))
                    + abs(traj.y[-1][1] + math.sin(t_end)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    rk4_ok = all(8.0 < r < 32.0 for r in ratios)

    a_errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        traj = integrators.integrate_adaptive54(dynamics.phys_ode(scn), y0,
                                                st.t, t_end, tol, t_end)
        a_errs.append(abs(traj.y[-1][0] - math.cos(t_end)))
    adaptive_ok = all(b <= 2.0 * a for a, b in zip(a_errs, a_errs[1:]))
    _verdict("criterion 8: convergence orders", rk4_ok and adaptive_ok,
             f"rk4 ratios={[f'{r:.1f}' for r in ratios]}, "
             f"adaptive errors={[f'{e:.2e}' for e in a_errs]}")


def test_c09_symplectic_boundedness():
    """Verlet on S3's transformed frame over tau in [0, 1000]: energy
    drift bounded below 1e-3 with no statistically significant trend."""
    scn = load_scenario(S3)
    st = scn.initial
    init = QFrameState(tau=0.0, Q=st.q / st.f,
                       Q_prime=scn.m(st.t) * (st.q_dot * st.f - st.q * st.f_dot))
    traj = integrators.integrate_verlet_Q(scn.potential_V, scn.potential_W,
                                          init, 0.01, 1000.0, 0.1)
    e = np.array([invariants.energy_Q(QFrameState(tau=t, Q=y[0], Q_prime=y[1]),
                                      scn.potential_V, scn.potential_W)
                  for t, y in zip(traj.t, traj.y)])
    drift = np.abs(e - e[0])
    A = np.vstack([traj.t, np.ones_like(traj.t)]).T
    coef, *_ = np.linalg.lstsq(A, drift, rcond=None)
    resid = drift - A @ coef
    sigma2 = float(resid @ resid) / (len(drift) - 2)
    se = math.sqrt(sigma2 * np.linalg.inv(A.T @ A)[0, 0])
    ok = drift.max() < 1e-3 and abs(coef[0]) <= 2.0 * se
    _verdict("criterion 9: symplectic boundedness", ok,
             f"max drift={drift.max():.3e}, slope={coef[0]:.2e} (se={se:.2e})")


def test_c10_cli_determinism(tmp_path):
    """Two identical runs produce bit-identical trajectory files."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", scenario_path(S2), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", scenario_path(S2), "--out", str(out2)]) == 0
    b1 = (out1 / "trajectory.csv").read_bytes()
    b2 = (out2 / "trajectory.csv").read_bytes()
    _verdict("criterion 10: CLI determinism", b1 == b2,
             f"{len(b1)} bytes, identical={b1 == b2}")
