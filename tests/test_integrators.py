"""Time steppers: accuracy, convergence order, adaptive control,
symplectic boundedness, trajectory invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import S4, load_scenario
from ermakov import dynamics, invariants, model
from ermakov.errors import ConfigError, IntegrationError, SingularityError
from ermakov.expr import compile_func
from ermakov.integrators import (
    _DP_A,
    _DP_E,
    Trajectory,
    _dp54_step,
    integrate_adaptive54,
    integrate_fixed_rk4,
    integrate_verlet,
    integrate_verlet_Q,
    interpolate,
)
from ermakov.model import QFrameState, build_scenario, parse_config, sample_times


def harmonic(t, y):
    return np.array([y[1], -y[0]])


def zero_rhs(t, y):
    return np.zeros_like(y)


class TestFixedRK4:
    def test_harmonic_full_period(self):
        # dt ~ 0.01 chosen to subdivide the period exactly
        dt = 2 * math.pi / 628
        traj = integrate_fixed_rk4(harmonic, np.array([1.0, 0.0]), 0.0,
                                   2 * math.pi, dt, 2 * math.pi)
        assert abs(traj.y[-1][0] - 1.0) < 1e-7

    def test_stride_mismatch_rejected(self):
        with pytest.raises(IntegrationError, match="subdivide"):
            integrate_fixed_rk4(harmonic, np.array([1.0, 0.0]), 0.0, 1.0,
                                0.3, 0.5)

    def test_zero_rhs_constant_trajectory(self):
        traj = integrate_fixed_rk4(zero_rhs, np.array([2.0, -1.0]), 0.0,
                                   1.0, 0.1, 0.5)
        assert np.all(traj.y == np.array([2.0, -1.0]))
        assert list(traj.t) == [0.0, 0.5, 1.0]

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj = integrate_fixed_rk4(harmonic, np.array([1.0, 0.0]), 0.0,
                                       10.0, dt, 10.0)
            errs.append(abs(traj.y[-1][0] - math.cos(10.0))
                        + abs(traj.y[-1][1] + math.sin(10.0)))
        for a, b in zip(errs, errs[1:]):
            assert 12.0 < a / b < 20.0, errs

    def test_first_sample_is_exact_initial(self):
        y0 = np.array([1.0, 1.0 / 3.0])
        traj = integrate_fixed_rk4(harmonic, y0, 0.0, 1.0, 0.1, 1.0)
        assert traj.y[0][0] == y0[0] and traj.y[0][1] == y0[1]

    def test_partial_trajectory_attached_on_abort(self):
        calls = {"n": 0}

        def flaky(t, y):
            calls["n"] += 1
            if t > 0.5:
                raise SingularityError("synthetic pole", t)
            return harmonic(t, y)

        with pytest.raises(SingularityError) as exc:
            integrate_fixed_rk4(flaky, np.array([1.0, 0.0]), 0.0, 2.0, 0.05, 0.25)
        err = exc.value
        assert err.partial is not None
        assert err.partial.t[-1] <= 0.5
        assert err.last_state is not None

    def test_dt_below_time_resolution_rejected(self):
        # the float spacing at 1e16 is 2.0: steps of 0.05 would not advance t
        calls = []

        def rhs(t, y):
            calls.append(t)
            return harmonic(t, y)

        with pytest.raises(IntegrationError, match=r"time resolution 2\.0"):
            integrate_fixed_rk4(rhs, [1.0, 0.0], 1e16, 1.00000000000001e16, 0.05, 0.05)
        assert calls == []

    def test_large_start_time_with_resolved_dt_runs(self):
        # at t0 = 1e6 the spacing is 1.2e-10, far below dt: an autonomous
        # system steps exactly as it does from t0 = 0
        late = integrate_fixed_rk4(harmonic, [1.0, 0.0], 1e6, 1e6 + 0.5, 1e-4, 0.05)
        early = integrate_fixed_rk4(harmonic, [1.0, 0.0], 0.0, 0.5, 1e-4, 0.05)
        assert late.step_count == 5000 and late.t[-1] == 1e6 + 0.5
        assert [y.hex() for y in late.y[-1]] == ["0x1.c1528065b7d49p-1",
                                                 "-0x1.eaee8744b05e7p-2"]
        assert np.array_equal(late.y, early.y) and np.array_equal(late.dy, early.dy)

    def test_non_finite_state_after_step(self):
        # every stage slope is finite; the step's weighted sum overflows
        with pytest.raises(IntegrationError,
                           match=r"non-finite state after step at t=1\.0") as exc:
            integrate_fixed_rk4(lambda t, y: [1e308], [1e308], 0.0, 2.0, 1.0, 1.0)
        assert exc.value.partial.t == [0.0] and exc.value.last_state == [1e308]

    def test_partial_trajectory_attached_on_output_sample_failure(self):
        # calls: 1 initial sample, then per stride 5 steps x 4 stages + 1
        # sample, so call 64 is the sample at t = 0.75 alone
        calls = []

        def pole_at_sample(t, y):
            calls.append(t)
            if len(calls) == 1 + 3 * (5 * 4 + 1):
                raise SingularityError("synthetic pole", t)
            return harmonic(t, y)

        with pytest.raises(SingularityError) as exc:
            integrate_fixed_rk4(pole_at_sample, np.array([1.0, 0.0]), 0.0, 2.0,
                                0.05, 0.25)
        err = exc.value
        assert err.t == 0.75
        assert err.partial is not None and err.last_state is not None
        assert err.partial.t == [0.0, 0.25, 0.5]


class TestAdaptive54:
    def test_long_harmonic_phase_error(self):
        traj = integrate_adaptive54(harmonic, np.array([1.0, 0.0]), 0.0,
                                    100 * math.pi, 1e-10, 100 * math.pi)
        assert abs(traj.y[-1][0] - 1.0) < 1e-6
        assert abs(traj.y[-1][1]) < 1e-6

    def test_negative_tol_rejected(self):
        with pytest.raises(IntegrationError, match="tol"):
            integrate_adaptive54(harmonic, np.array([1.0, 0.0]), 0.0, 1.0,
                                 -1.0, 0.5)

    def test_span_within_time_tolerance_rejected(self):
        # at t0 = 1e16 the time tolerance is 1e7: no step resolves a span of
        # 100, which would otherwise end in the start sample alone
        with pytest.raises(IntegrationError, match="within the time tolerance"):
            integrate_adaptive54(harmonic, [1.0, 0.0], 1e16, 1.00000000000001e16,
                                 1e-10, 0.05)

    def test_rejected_steps_recorded(self, s2):
        st = s2.initial
        y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
        traj = integrate_adaptive54(dynamics.phys_ode(s2), y0, st.t,
                                    s2.plan.t_end, s2.plan.step,
                                    s2.plan.output_stride)
        assert traj.rejected_steps > 0
        assert traj.method == "adaptive54"

    def test_tolerance_monotonicity(self):
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            traj = integrate_adaptive54(harmonic, np.array([1.0, 0.0]), 0.0,
                                        10.0, tol, 10.0)
            errs.append(abs(traj.y[-1][0] - math.cos(10.0)))
        assert errs[1] <= 2.0 * errs[0] and errs[2] <= 2.0 * errs[1], errs

    def test_dense_output_accuracy(self):
        # stride samples fall inside steps; the interpolant must hold
        # the integration tolerance, not just cubic-Hermite accuracy
        traj = integrate_adaptive54(harmonic, np.array([1.0, 0.0]), 0.0,
                                    20.0, 1e-10, 0.037)
        err = np.max(np.abs(np.array(traj.y)[:, 0] - np.cos(traj.t)))
        assert err < 1e-8, err

    def test_stride_grid_hits_endpoint(self):
        traj = integrate_adaptive54(harmonic, np.array([1.0, 0.0]), 0.0,
                                    50.0, 1e-8, 0.05)
        assert len(traj) == 1001
        assert traj.t[-1] == pytest.approx(50.0, abs=1e-7)

    def test_underflow_is_classified_singular(self):
        def blowup(t, y):
            # y' = y^2 from y(0) = 1 diverges at t = 1
            return [v * v for v in y]

        with pytest.raises(SingularityError, match="underflow") as exc:
            integrate_adaptive54(blowup, np.array([1.0]), 0.0, 2.0, 1e-10, 0.5)
        assert exc.value.partial is not None


    def test_partial_trajectory_attached_on_dense_output_failure(self):
        # the guard trips only in the RHS call of the dense-output sample
        # at t = 0.75, which falls strictly inside an accepted step
        def pole_at_sample(t, y):
            if t == 0.75:
                raise SingularityError("synthetic pole", t)
            return harmonic(t, y)

        with pytest.raises(SingularityError) as exc:
            integrate_adaptive54(pole_at_sample, np.array([1.0, 0.0]), 0.0, 2.0,
                                 1e-8, 0.25)
        err = exc.value
        assert err.partial is not None and err.last_state is not None
        assert err.partial.t == [0.0, 0.25, 0.5]
        assert err.last_t < 0.75

    @pytest.mark.parametrize("width", range(1, 8))
    def test_error_norm_rounds_like_numpy(self, width):
        # the step controller's accept/reject decisions, hence every output
        # bit, depend on this norm; numpy sums fewer than 8 terms in order.
        # The generated step takes the norm of its own error estimate, so
        # the slopes are drawn and err and y_new are recomputed elementwise
        step = _dp54_step(width)
        rng = np.random.default_rng(width)

        def weighted(weights, ks):  # 0.0 + w1*k1 + ..., zero weights omitted
            acc = 0.0
            for w, k in zip(weights, ks):
                if w != 0.0:
                    acc = acc + w * k
            return acc

        for tol in (1e-10, 1e-3, 1e-320):
            for _ in range(200):
                ks = [rng.normal(size=width) * 10.0 ** rng.uniform(-20, 5, width)
                      for _ in range(7)]
                y = rng.normal(size=width) * 10.0 ** rng.uniform(-5, 5, width)
                h = 10.0 ** rng.uniform(-3, 0)
                slopes = iter([k.tolist() for k in ks[1:]])
                got = step(lambda t, z: next(slopes), 0.0, h, y.tolist(),
                           ks[0].tolist(), tol)[0]
                err = h * weighted(_DP_E, ks)
                y_new = y + h * weighted(_DP_A[-1], ks)
                scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
                with np.errstate(over="ignore"):
                    want = float(np.sqrt(np.mean((err / scale) ** 2)))
                assert got.hex() == want.hex(), (tol, err, y, y_new)

    def test_single_sample_when_span_empty(self):
        traj = integrate_adaptive54(harmonic, np.array([1.0, 0.0]), 0.0, 0.0,
                                    1e-10, 0.5)
        assert len(traj) == 1

    def test_controller_clamps_pinned(self):
        # y' = 1 has an error norm of exactly 0: fac = _FAC_MAX, the growth
        # clamp's tie, and err_prev the floor 1e-4; h = 1, 5, then the 4
        # left to t_end
        traj = integrate_adaptive54(lambda t, y: [1.0], [0.0], 0.0, 10.0, 1e-8, 10.0)
        assert (traj.step_count, traj.rejected_steps) == (3, 0)
        assert traj.y[-1] == [9.999999999999998]
        # y' = -1000 y: four of the five rejections clamp fac to _FAC_MIN;
        # the counts and the last bit pin every decision of the controller
        traj = integrate_adaptive54(lambda t, y: [-1000.0 * y[0]], [1.0], 0.0, 1.0,
                                    1e-8, 1.0)
        assert (traj.step_count, traj.rejected_steps) == (374, 5)
        assert traj.y[-1][0].hex() == "0x1.ac139c025c8d4p-32"


def _bits(row):
    return [float(v).hex() for v in row]


class TestExtraSampleTimes:
    """DP54 also samples its dense output at given extra times, from the
    step that contains each one; sampling never changes a step."""

    GRID = sample_times(0.0, 1.0, 0.3)  # 0, 0.3, 0.6, 0.8999999999999999, 1

    def _run(self, extra=(), stride=0.3):
        calls = []

        def counted(t, y):
            calls.append(t)
            return harmonic(t, y)
        traj = integrate_adaptive54(counted, [1.0, 0.0], 0.0, 1.0, 1e-10, stride, extra)
        return traj, calls

    def _step_ends(self):
        # a stride of the whole span keeps the steps (the first h is
        # span/10 either way) and samples nothing inside them, so the
        # calls are the first slope and 6 stages per attempt, the last at
        # t + h; a rejected attempt is retried from t with a smaller h
        traj, calls = self._run(stride=1.0)
        attempts = traj.step_count + traj.rejected_steps
        assert len(calls) == 1 + 6 * attempts
        tried = calls[6::6]
        ends = [t for t, nxt in zip(tried, tried[1:] + [math.inf]) if nxt > t]
        assert len(ends) == traj.step_count
        return ends

    def test_stride_rows_keep_their_bits(self):
        plain, plain_calls = self._run()
        ends = self._step_ends()
        assert ends[-1] == 1.0 and not set(ends[:-1]) & set(self.GRID)
        extra = [0.05, ends[3], self.GRID[2], 0.6 + 1e-12, 0.95]
        traj, calls = self._run(extra)
        assert (traj.step_count, traj.rejected_steps) == (plain.step_count,
                                                           plain.rejected_steps)
        rows = {t: (y, dy) for t, y, dy in zip(traj.t, traj.y, traj.dy)}
        for t, y, dy in zip(plain.t, plain.y, plain.dy):
            assert _bits(rows[t][0]) == _bits(y) and _bits(rows[t][1]) == _bits(dy)
        # one RHS call for each extra sample off the grid and the step ends:
        # a step end is sampled as the step's end state and FSAL slope
        assert len(calls) == len(plain_calls) + 3

    def test_each_extra_time_once_in_order(self):
        ends = self._step_ends()
        extra = [0.95, ends[3], self.GRID[3], 0.05, ends[3], 1.0]
        traj, _ = self._run(extra)
        assert traj.t == sorted({*self.GRID, *extra})
        assert [t for t in traj.t if t in extra] == [0.05, ends[3], self.GRID[3],
                                                     0.95, 1.0]
        for t, y, dy in zip(traj.t, traj.y, traj.dy):
            assert y == pytest.approx([math.cos(t), -math.sin(t)], abs=1e-9)
            assert _bits(dy) == _bits(harmonic(t, y))  # the slope at the sample

    @pytest.mark.parametrize("extra", [[1.5], [-0.1], [math.nan]])
    def test_times_outside_the_span_rejected(self, extra):
        with pytest.raises(IntegrationError, match="extra sample times"):
            self._run(extra)


@pytest.mark.parametrize("integrate,step", [(integrate_fixed_rk4, 0.1),
                                            (integrate_adaptive54, 1e-8),
                                            (integrate_verlet, 0.1)])
def test_t_end_before_t0_refused(integrate, step):
    # time runs forward only: the stride plan refuses a backward span
    # before any rhs call, with one message for every stepper
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [y[1], -y[0]]

    with pytest.raises(IntegrationError, match=r"^t_end \(0\.5\) precedes t0 \(1\.0\)$"):
        integrate(rhs, [1.0, 0.0], 1.0, 0.5, step, 0.1)
    assert calls == []


STEPPERS = {"rk4": integrate_fixed_rk4, "adaptive54": integrate_adaptive54,
            "verlet": integrate_verlet}


def _counted_harmonic(calls):
    def rhs(t, y):
        calls.append(t)
        return [y[1], -y[0]]
    return rhs


@pytest.mark.parametrize("method,stride,step", [
    ("adaptive54", 1e-3, 1e-8),  # 2,001 samples
    ("rk4", 1e-3, 1e-3),
    ("verlet", 1e-3, 1e-3),
    ("rk4", 0.1, 5e-4),          # 21 samples, 4,000 steps
    ("verlet", 0.1, 5e-4),
])
def test_grid_caps_refused_before_any_rhs_call(monkeypatch, method, stride, step):
    # a direct stepper call meets the caps a config's plan meets, in
    # run_plan's words
    monkeypatch.setattr(model, "MAX_GRID_POINTS", 1_000)
    with pytest.raises(ConfigError) as plan_err:
        model.run_plan(method, 0.0, 2.0, stride, step)
    calls = []
    with pytest.raises(IntegrationError) as exc:
        STEPPERS[method](_counted_harmonic(calls), [1.0, 0.0], 0.0, 2.0, step, stride)
    assert str(exc.value) == str(plan_err.value)
    assert "asks for more than 1000 " in str(exc.value)
    assert calls == []


@pytest.mark.parametrize("method", sorted(STEPPERS))
@pytest.mark.parametrize("t0,t_end", [(math.nan, 1.0), (0.0, math.nan),
                                      (-math.inf, 1.0), (0.0, math.inf)])
def test_non_finite_span_end_refused(method, t0, t_end):
    calls = []
    step = 1e-8 if method == "adaptive54" else 0.1
    with pytest.raises(IntegrationError, match=r"^t0 \(.*\) and t_end \(.*\) must be finite$"):
        STEPPERS[method](_counted_harmonic(calls), [1.0, 0.0], t0, t_end, step, 0.1)
    assert calls == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(model.METHODS),
       t0=st.sampled_from([0.0, 0.1, 2.5, -1e3, 1e6, math.nan, -math.inf]),
       span=st.floats(-1.0, 100.0),
       stride=st.sampled_from([1e-9, 1e-4, 0.05, 0.1, 0.3, 1.0, 0.0, -0.1, math.inf,
                               math.nan]),
       step=st.sampled_from([1e-12, 1e-8, 1e-4, 0.01, 0.025, 0.03, 0.05, 0.1, 0.0,
                             math.inf, math.nan]))
def test_run_plan_refuses_exactly_what_the_check_refuses(method, t0, span, stride, step):
    # one check: the CLI's plan constructor and every stepper refuse the
    # same plans with the same message, a stepper before any rhs call
    t_end = t0 + span
    try:
        model.check_plan(method, t0, t_end, stride, step)
    except IntegrationError as err:
        refusal = str(err)
    else:
        assert model.run_plan(method, t0, t_end, stride, step).step == step
        return
    with pytest.raises(ConfigError) as plan_err:
        model.run_plan(method, t0, t_end, stride, step)
    assert str(plan_err.value) == refusal
    calls = []
    with pytest.raises(IntegrationError) as exc:
        STEPPERS[method](_counted_harmonic(calls), [1.0, 0.0], t0, t_end, step, stride)
    assert str(exc.value) == refusal
    assert calls == []


@pytest.mark.parametrize("integrate,step", [(integrate_fixed_rk4, 0.1),
                                            (integrate_adaptive54, 1e-8),
                                            (integrate_verlet, 0.1)])
def test_rhs_must_return_one_value_per_component(integrate, step):
    # the generated steps unpack the slope; a loop over zip would have
    # dropped the third value silently
    def three_values(t, y):
        return [y[1], -y[0], 0.0]

    with pytest.raises(IntegrationError,
                       match="rhs returned 3 values for a state of 2 components"):
        integrate(three_values, [1.0, 0.0], 0.0, 1.0, step, 0.5)


@pytest.mark.parametrize("integrate,step", [(integrate_fixed_rk4, 0.1),
                                            (integrate_adaptive54, 1e-8),
                                            (integrate_verlet, 0.1)])
def test_empty_initial_state_rejected(integrate, step):
    with pytest.raises(IntegrationError, match="the initial state is empty"):
        integrate(lambda t, y: [], [], 0.0, 1.0, step, 0.5)


@pytest.mark.parametrize("integrate,step", [(integrate_fixed_rk4, 0.1),
                                            (integrate_adaptive54, 1e-8),
                                            (integrate_verlet, 0.1)])
@pytest.mark.parametrize("stride", [0.0, -0.5])
def test_output_stride_must_be_positive(integrate, step, stride):
    with pytest.raises(IntegrationError, match="output_stride must be positive"):
        integrate(harmonic, [1.0, 0.0], 0.0, 1.0, step, stride)


@pytest.mark.parametrize("integrate,step", [(integrate_fixed_rk4, 0.1),
                                            (integrate_adaptive54, 1e-8),
                                            (integrate_verlet, 0.1)])
def test_rhs_failure_at_t0_reports_the_initial_state(integrate, step):
    def pole(t, y):
        raise SingularityError("synthetic pole", t)

    with pytest.raises(SingularityError) as exc:
        integrate(pole, [1.0, 0.5], 2.0, 3.0, step, 0.5)
    err = exc.value
    assert (err.last_t, err.last_state, err.partial) == (2.0, [1.0, 0.5], None)


class TestSpanTail:
    """A span that is not a whole number of strides is also sampled at its
    end; a whole number of strides is sampled on the grid alone.  The
    fixed-step methods reach the end with steps of dt and one shorter
    last step."""

    @pytest.mark.parametrize("integrate,step", [(integrate_fixed_rk4, 0.01),
                                                (integrate_adaptive54, 1e-10)])
    @pytest.mark.parametrize("t_end,grid", [(1.0, [0.0, 0.3, 0.6, 0.9]),
                                            (1.2, [0.0, 0.3, 0.6, 0.9, 1.2])])
    def test_samples_reach_t_end(self, integrate, step, t_end, grid):
        traj = integrate(harmonic, [1.0, 0.0], 0.0, t_end, step, 0.3)
        assert traj.t[:len(grid)] == pytest.approx(grid, abs=1e-12)
        assert len(traj) == len(grid) + (t_end != 1.2)
        assert traj.t[-1] == pytest.approx(t_end, abs=1e-12)
        assert traj.y[-1] == pytest.approx([math.cos(t_end), -math.sin(t_end)],
                                           abs=1e-8)

    def test_rk4_tail_steps_on_by_dt_then_ends_short(self):
        calls = []

        def counted(t, y):
            calls.append(t)
            return harmonic(t, y)

        traj = integrate_fixed_rk4(counted, [1.0, 0.0], 0.0, 1.03, 0.05, 0.4)
        # 2 strides of 8 steps, then 4 steps of 0.05 and one of 0.03
        assert traj.t == pytest.approx([0.0, 0.4, 0.8, 1.03], abs=1e-15)
        assert traj.t[-1] == 1.03 and traj.step_count == 21
        # the benchmark's traced RK4 identity: 4 calls a step, 1 a sample
        assert len(calls) == 4 * traj.step_count + len(traj)
        assert calls[-5] == pytest.approx(1.0, abs=1e-15)  # the last step's start
        assert calls[-2] == pytest.approx(1.03, abs=1e-15)  # ... and its end

    def test_dp54_tail_is_the_last_step_end(self):
        traj = integrate_adaptive54(harmonic, [1.0, 0.0], 0.0, 1.0, 1e-10, 0.3)
        assert traj.t[-1] == 1.0
        assert list(traj.dy[-1]) == pytest.approx(harmonic(1.0, traj.y[-1]),
                                                  abs=1e-15)

    @pytest.mark.parametrize("tau_end,grid", [(1.0, [0.0, 0.3, 0.6, 0.9]),
                                              (1.2, [0.0, 0.3, 0.6, 0.9, 1.2])])
    def test_verlet_samples_reach_tau_end(self, tau_end, grid):
        # V = Q^2/2: Q'' = -Q, so Q = cos(tau) from (1, 0)
        V = compile_func("Q^2/2", "Q")
        traj = integrate_verlet_Q(V, None, QFrameState(0.0, 1.0, 0.0), 0.001,
                                  tau_end, 0.3)
        assert traj.t[:len(grid)] == pytest.approx(grid, abs=1e-12)
        assert len(traj) == len(grid) + (tau_end != 1.2)
        assert traj.t[-1] == tau_end and traj.step_count == 1000 * tau_end
        assert traj.y[-1] == pytest.approx([math.cos(tau_end), -math.sin(tau_end)],
                                           abs=1e-6)

    def test_verlet_tail_steps_on_by_dt_then_ends_short(self):
        seen = []

        def rhs(t, y):
            seen.append(t)
            return [y[1], 0.0]
        traj = integrate_verlet(rhs, [1.0, 1.0], 0.0, 1.03, 0.05, 0.4)
        # 2 strides of 8 steps, then 4 steps of 0.05 and one of 0.03
        assert traj.t == pytest.approx([0.0, 0.4, 0.8, 1.03], abs=1e-15)
        assert traj.t[-1] == 1.03 and traj.step_count == 21
        assert seen[-2:] == pytest.approx([1.0, 1.03], abs=1e-15)
        # free flight at Q' = 1: Q = 1 + tau, the short step included
        assert traj.y[-1] == pytest.approx([2.03, 1.0], abs=1e-14)

    def test_rk4_and_verlet_share_the_step_times(self):
        rk4_calls, verlet_calls = [], []

        def rk4_rhs(t, y):
            rk4_calls.append(t)
            return [y[1], -y[0]]

        def verlet_rhs(t, y):
            verlet_calls.append(t)
            return [y[1], -y[0]]
        rk4 = integrate_fixed_rk4(rk4_rhs, [1.0, 0.0], 0.0, 1.03, 0.05, 0.4)
        verlet = integrate_verlet(verlet_rhs, [1.0, 0.0], 0.0, 1.03, 0.05, 0.4)
        assert rk4.t == verlet.t and rk4.step_count == verlet.step_count == 21
        # RK4: the first slope, then per stride 4 calls a step, the 4th at
        # the step's end, and 1 for the sample; Verlet: 1 call a step, at its end
        ends, calls = [], rk4_calls[1:]
        for steps in (8, 8, 5):
            ends += calls[3:4 * steps:4]
            calls = calls[4 * steps + 1:]
        assert calls == [] and ends == verlet_calls[1:]
        assert len(verlet_calls) == verlet.step_count + 1  # one a step, one first slope
        # step times run seg + j*h from each stride sample; the last step is t_end - t
        t = 0.8 + 4 * 0.05
        assert ends[-2:] == [(0.8 + 3 * 0.05) + 0.05, t + (1.03 - t)]

    # 1e6 + 10 * 1e-3 rounds to 1000000.01, but the float span leaves a
    # 9.3e-12 tail after 10 strides, below the 1.2e-10 spacing at 1e6:
    # sampling it would repeat the last stride sample's time
    T0, T_END = 1e6, 1000000.01

    @pytest.mark.parametrize("integrate,step", [(integrate_fixed_rk4, 1e-4),
                                                (integrate_adaptive54, 1e-10)])
    def test_tail_below_the_time_resolution_is_no_tail(self, integrate, step):
        traj = integrate(harmonic, [1.0, 0.0], self.T0, self.T_END, step, 1e-3)
        assert traj.t == [self.T0 + k * 1e-3 for k in range(11)]
        assert traj.t[-1] == self.T_END
        assert traj.y[-1] == pytest.approx([math.cos(0.01), -math.sin(0.01)], abs=1e-8)

    def test_verlet_tail_below_the_time_resolution_is_no_tail(self):
        traj = integrate_verlet(lambda t, y: [y[1], 0.0], [1.0, 1.0], self.T0,
                                self.T_END, 1e-4, 1e-3)
        assert traj.t == [self.T0 + k * 1e-3 for k in range(11)]
        assert traj.t[-1] == self.T_END and traj.step_count == 100


class TestPinneyClosedForm:
    """Pinney (1950): with m = 1, w~2 = 1, G = 0 and F = k, the companion
    f'' + f = k/f^3 from f(0) = f0, f'(0) = 0 has the closed form
    f = sqrt(f0^2 cos^2 t + (k/f0^2) sin^2 t), and the clock
    dtau/dt = 1/f^2 integrates to (1/sqrt k) arctan((sqrt k/f0^2) tan t),
    unwrapped.  The oracle shares no code with the steppers."""

    CASES = [(4.0, 1.0), (1.0, 0.5), (1.0, 2.0), (4.0, 0.7), (2.0, 1.3)]

    @staticmethod
    def _run(integrate, k, f0, t_end, step, stride):
        scn = build_scenario(parse_config(f"""
[functions]
m = 1
omega_tilde_sq = 1
[coupling]
F = {k!r}
[initial]
q = 1
q_dot = 0
f = {f0!r}
f_dot = 0
[integration]
method = adaptive54
t_end = {t_end!r}
tol = 1e-10
output_stride = {stride!r}
"""))
        st = scn.initial
        y0 = [st.q, st.q_dot, st.f, st.f_dot, st.tau]
        traj = integrate(dynamics.phys_ode(scn), y0, st.t, t_end, step, stride)
        t = np.array(traj.t)
        f = np.sqrt(f0 ** 2 * np.cos(t) ** 2 + (k / f0 ** 2) * np.sin(t) ** 2)
        turns = np.floor((t + math.pi) / (2.0 * math.pi))
        tau = (np.arctan2(math.sqrt(k) * np.sin(t), f0 ** 2 * np.cos(t))
               + 2.0 * math.pi * turns) / math.sqrt(k)
        return (float(np.max(np.abs(np.array(traj.y)[:, 2] - f))),
                float(np.max(np.abs(np.array(traj.y)[:, 4] - tau))))

    @pytest.mark.parametrize("k,f0", CASES)
    def test_dp54_matches_closed_form(self, k, f0):
        # about 5e-10 on every case at tol 1e-10
        f_err, tau_err = self._run(integrate_adaptive54, k, f0, 20.0, 1e-10, 0.05)
        assert f_err < 5e-9 and tau_err < 5e-9, (f_err, tau_err)

    @pytest.mark.parametrize("k,f0", CASES)
    def test_rk4_fourth_order_on_f_and_tau(self, k, f0):
        errs = [self._run(integrate_fixed_rk4, k, f0, 10.0, dt, 0.4)
                for dt in (0.04, 0.02, 0.01)]
        for (fa, ta), (fb, tb) in zip(errs, errs[1:]):
            assert 12.0 < fa / fb < 20.0, errs
            assert 12.0 < ta / tb < 20.0, errs
        assert errs[-1][0] < 1e-6 and errs[-1][1] < 1e-6, errs


class TestPinneyPumped:
    """Pinney (1950) for a pumped frequency: on S4 (m = 1, F = 4, G = 0,
    w~2 = 1 + 0.3 cos 2t), q = u1 and f = sqrt(2) (u1^2 + u2^2)^(1/2),
    where u1 and u2 solve the linear u'' + w~2 u = 0 from (1, 0) and
    (0, 1), so their Wronskian is 1.  scipy's DOP853 computes u1 and u2;
    it shares no code with the program."""

    @staticmethod
    def _errors(overrides=None):
        """max |q - u1| and max |f - sqrt(2)(u1^2 + u2^2)^(1/2)| / f of the
        DP54 run of S4 with ``overrides``, over every sample."""
        scipy_integrate = pytest.importorskip("scipy.integrate")
        scn = load_scenario(S4, overrides)
        st, plan = scn.initial, scn.plan
        traj = integrate_adaptive54(dynamics.phys_ode(scn),
                                    [st.q, st.q_dot, st.f, st.f_dot, st.tau],
                                    st.t, plan.t_end, plan.step, plan.output_stride)
        t = np.array(traj.t)

        def linear(t, u):
            w2 = 1.0 + 0.3 * math.cos(2.0 * t)
            return [u[1], -w2 * u[0], u[3], -w2 * u[2]]

        sol = scipy_integrate.solve_ivp(linear, (t[0], t[-1]), [1.0, 0.0, 0.0, 1.0],
                                        method="DOP853", t_eval=t, rtol=1e-13,
                                        atol=1e-13)
        u1, u2 = sol.y[0], sol.y[2]
        y = np.array(traj.y)
        f_pinney = math.sqrt(2.0) * np.sqrt(u1 ** 2 + u2 ** 2)
        return (float(np.max(np.abs(y[:, 0] - u1))),
                float(np.max(np.abs(y[:, 2] - f_pinney) / y[:, 2])))

    def test_dp54_matches_the_linear_superposition(self):
        # about 7e-11 and 3e-11 over 1,001 samples
        q_err, f_err = self._errors()
        assert q_err <= 2e-10 and f_err <= 1e-10, (q_err, f_err)

    def test_a_wrong_coupling_misses_the_superposition(self):
        # F = 4.4 instead of 4: f is no longer sqrt(2) (u1^2 + u2^2)^(1/2),
        # so the oracle tells the two apart
        q_err, f_err = self._errors(["coupling.V=2.2*Q^2"])
        assert f_err > 1e-3, (q_err, f_err)


class TestVerlet:
    def test_fixed_point_stays(self):
        V = compile_func("2*Q^2", "Q")
        W = compile_func("2*s^2", "s")
        traj = integrate_verlet_Q(V, W, QFrameState(tau=0.0, Q=1.0, Q_prime=0.0),
                                  0.01, 10.0, 0.1)
        assert np.max(np.abs(np.array(traj.y)[:, 0] - 1.0)) < 1e-12
        assert np.max(np.abs(np.array(traj.y)[:, 1])) < 1e-12

    def test_harmonic_period(self):
        # V = 2 Q^2 oscillates at angular frequency 2: period pi
        V = compile_func("2*Q^2", "Q")
        W = compile_func("0", "s")
        dt = math.pi / 314  # ~0.01, subdividing the period exactly
        traj = integrate_verlet_Q(V, W, QFrameState(tau=0.0, Q=1.0, Q_prime=0.0),
                                  dt, math.pi, math.pi)
        assert abs(traj.y[-1][0] - 1.0) < 1e-3
        assert abs(traj.y[-1][1]) < 1e-3

    def test_accel_receives_each_step_tau(self):
        seen = []

        def rhs(t, y):
            seen.append(t)
            return [y[1], 0.0]
        integrate_verlet(rhs, [1.0, 0.0], 5.0, 6.0, 0.25, 0.25)
        assert seen == [5.0, 5.25, 5.5, 5.75, 6.0]

    def test_guard_error_names_its_tau(self):
        W = compile_func("s^2/2", "s")
        with pytest.raises(SingularityError, match=r"\(at t=5\.0\)"):
            integrate_verlet_Q(None, W, QFrameState(tau=5.0, Q=1e-11, Q_prime=0.0),
                               0.01, 6.0, 0.01)

    def test_failure_state_is_the_state_at_last_t(self):
        # the step to tau = 0.5 fails; its position must not be reported
        # with the momentum of tau = 0.4
        def rhs(t, y):
            if y[0] > 1.5:
                raise SingularityError("synthetic pole", t)
            return [y[1], 0.0]
        with pytest.raises(SingularityError) as exc:
            integrate_verlet(rhs, [1.0, 1.0], 0.0, 2.0, 0.1, 0.1)
        err = exc.value
        assert err.last_t == 0.4 == err.partial.t[-1]
        assert err.last_state == err.partial.y[-1] == [1.4000000000000004, 1.0]

    @pytest.mark.parametrize("Q0", [1.0, -1.0])
    def test_step_across_the_pole_raises(self, Q0):
        # W = -s^2/2 pulls Q through 0 near tau = 0.5; a step of 1e-3 never
        # lands within the guard, so only the sign change can stop the run
        W = compile_func("-(s^2)/2", "s")
        with pytest.raises(SingularityError,
                           match=r"across the pole .*\(at t=0\.501\)") as exc:
            integrate_verlet_Q(None, W, QFrameState(0.0, Q0, -Q0), 0.001, 5.0, 0.05)
        err = exc.value
        assert err.partial.t[-1] <= 0.5
        assert err.last_t == 0.5 and err.last_state[0] * Q0 > 0.0

    def test_tau_end_before_start_rejected(self):
        with pytest.raises(IntegrationError, match=r"t_end \(0\.5\) precedes t0 \(1\.0\)"):
            integrate_verlet(lambda t, y: [y[1], 0.0], [1.0, 0.0], 1.0, 0.5, 0.1, 0.1)

    def test_dt_below_time_resolution_rejected(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [y[1], -y[0]]

        with pytest.raises(IntegrationError, match=r"time resolution 2\.0"):
            integrate_verlet(rhs, [1.0, 0.0], 1e16, 1.00000000000001e16, 0.05, 0.05)
        assert calls == []

    def test_zero_dt_rejected(self):
        V = compile_func("0", "Q")
        with pytest.raises(IntegrationError, match="dt"):
            integrate_verlet_Q(V, None, QFrameState(tau=0.0, Q=1.0, Q_prime=0.0),
                               0.0, 1.0, 1.0)

    def test_energy_bounded_no_secular_trend(self, s3):
        st = s3.initial
        init = QFrameState(tau=0.0, Q=st.q / st.f,
                           Q_prime=st.q_dot * st.f - st.q * st.f_dot)
        traj = integrate_verlet_Q(s3.potential_V, s3.potential_W, init,
                                  0.01, 1000.0, 0.1)
        e = np.array([invariants.energy_Q(QFrameState(tau=t, Q=y[0], Q_prime=y[1]),
                                          s3.potential_V, s3.potential_W)
                      for t, y in zip(traj.t, traj.y)])
        drift = np.abs(e - e[0])
        assert drift.max() < 1e-3, drift.max()
        # least-squares slope of |drift| vs tau, consistent with zero
        A = np.vstack([traj.t, np.ones_like(traj.t)]).T
        coef, *_ = np.linalg.lstsq(A, drift, rcond=None)
        resid = drift - A @ coef
        sigma2 = float(resid @ resid) / (len(drift) - 2)
        se = math.sqrt(sigma2 * np.linalg.inv(A.T @ A)[0, 0])
        assert abs(coef[0]) <= se, (coef[0], se)


class TestTrajectoryType:
    def test_monotonicity_enforced(self):
        with pytest.raises(IntegrationError, match="strictly increasing"):
            Trajectory(t=np.array([0.0, 1.0, 0.5]), y=np.zeros((3, 1)),
                       dy=np.zeros((3, 1)), method="rk4", step_count=2,
                       rejected_steps=0)

    def test_empty_rejected(self):
        with pytest.raises(IntegrationError):
            Trajectory(t=np.array([]), y=np.zeros((0, 1)),
                       dy=np.zeros((0, 1)), method="rk4", step_count=0,
                       rejected_steps=0)

    def test_tau_strictly_increasing_along_physical_run(self, s2):
        st = s2.initial
        y0 = np.array([st.q, st.q_dot, st.f, st.f_dot, st.tau])
        traj = integrate_adaptive54(dynamics.phys_ode(s2), y0, st.t, 10.0,
                                    1e-8, 0.1)
        assert np.all(np.diff(np.array(traj.y)[:, 4]) > 0)


class TestInterpolate:
    def test_matches_analytic_between_samples(self):
        traj = integrate_adaptive54(harmonic, np.array([1.0, 0.0]), 0.0,
                                    10.0, 1e-10, 0.1)
        for tq in (0.05, 1.73, 5.01, 9.93):
            got = interpolate(traj, tq)
            # cubic Hermite between samples 0.1 apart: error ~ h^4/384
            assert got[0] == pytest.approx(math.cos(tq), abs=1e-5)

    def test_exact_at_samples(self):
        traj = integrate_adaptive54(harmonic, np.array([1.0, 0.0]), 0.0,
                                    5.0, 1e-10, 0.5)
        got = interpolate(traj, float(traj.t[3]))
        assert got[0] == traj.y[3][0]

    def test_one_sample_returns_it_within_the_range_slack(self):
        traj = integrate_adaptive54(harmonic, [1.0, 0.0], 0.0, 0.0, 1e-8, 0.1)
        assert len(traj) == 1
        assert interpolate(traj, 5e-13) == [1.0, 0.0]
        assert interpolate(traj, -5e-13) == [1.0, 0.0]
        with pytest.raises(ValueError):
            interpolate(traj, 2e-12)

    def test_out_of_range_rejected(self):
        traj = integrate_fixed_rk4(harmonic, np.array([1.0, 0.0]), 0.0, 1.0,
                                   0.1, 0.5)
        with pytest.raises(ValueError):
            interpolate(traj, 2.0)
