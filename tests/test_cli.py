"""Subcommand behavior: exit codes, file schemas, determinism."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import REPO, S1, S2, S3, load_scenario, scenario_path
from test_golden import BARE_RK4
from ermakov import cli, model
from ermakov.cli import main
from ermakov.errors import InvariantError
from ermakov.expr import evaluate, parse


def scenario_text(name: str) -> str:
    with open(scenario_path(name), encoding="utf-8") as fh:
        return fh.read()


def run(*argv) -> int:
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


# S3 with initial.q=1e120: q^3 overflows to inf, then F(q/f) meets (q/f)^3
_CUBE_OVERFLOW = "math range error in 'u^3.0' at argument 1.111111111111111e+120"
# S1 with w~2 = 1e4 and no V, by RK4 at h w = 5: the energy grows from
# 1.1e-12 to 1.5e297, finite at every sample, but the relative drift overflows
_DRIFT_OVERFLOW = [
    "--set", "functions.omega_tilde_sq=1e4", "--set", "coupling.V=0",
    "--set", "initial.f=1", "--set", "initial.f_dot=1.5e-6",
    "--set", "integration.method=rk4", "--set", "integration.dt=0.05",
    "--set", "integration.t_end=2.9"]
_DRIFT_MESSAGE = "the drift summary's max_rel_drift is not finite (inf)"


class TestSimulate:
    def test_s1_writes_constant_energy_column(self, tmp_path):
        out = tmp_path / "run"
        assert run("simulate", "--config", scenario_path(S1), "--out", str(out)) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "tau", "q", "q_dot", "f", "f_dot", "Q",
                          "Q_prime", "E_phys", "E_Q"]
        e_phys = rows[:, 8]
        assert np.max(np.abs(e_phys - 1.0)) < 1e-8
        report = json.loads((out / "report.json").read_text())
        assert report["max_rel_drift"] < 1e-8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 0
        assert manifest["metadata"]["step_count"] > 0
        assert "wall_ms" in manifest

    def test_17_digit_serialization(self, tmp_path):
        out = tmp_path / "run"
        run("simulate", "--config", scenario_path(S1), "--out", str(out))
        first = (out / "trajectory.csv").read_text().splitlines()[1]
        assert "1.4142135623730951" in first

    def test_conflicting_coupling_keys_exit_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("simulate", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "coupling.F=4")
        assert code == 2
        err = capsys.readouterr().err
        assert "V" in err and "F" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2

    def test_singular_fall_exit_3_with_partial(self, tmp_path):
        out = tmp_path / "run"
        code = run("simulate", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "coupling.W=-(s^2)/2")
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        info = manifest["singularity"]
        assert "last_state" in info
        assert abs(info["last_state"]["q"]) < 1e-3  # stopped close to the pole
        header, rows = read_csv(out / "trajectory.csv")  # partial still written
        assert len(rows) >= 1

    def test_partial_report_without_invariant_says_partial(self, tmp_path, monkeypatch):
        # the error payload of a partial run also carries "partial"; the
        # manifest keeps the stepper's error, the run's first
        def fails(*args):
            raise InvariantError("synthetic invariant failure")

        monkeypatch.setattr(cli.invariants, "invariant_series", fails)
        out = tmp_path / "run"
        assert run("simulate", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "coupling.W=-(s^2)/2") == 3
        assert json.loads((out / "report.json").read_text()) == {
            "error": "synthetic invariant failure", "partial": True}
        assert "step size underflow" in json.loads(
            (out / "manifest.json").read_text())["error"]

    @pytest.mark.parametrize("method", ["adaptive54", "rk4"])
    def test_guard_trip_at_t0_reports_the_initial_state(self, tmp_path, method):
        # the first RHS call already trips the |q| guard: the manifest still
        # names the last valid state, the initial one at t = 0
        out = tmp_path / "run"
        assert run("check", "--config", scenario_path(S3), "--out", str(out),
                   "--set", "initial.q=1e-11", "--set", f"integration.method={method}",
                   "--set", "integration.dt=0.01") == 3
        info = json.loads((out / "manifest.json").read_text())["singularity"]
        assert info["last_t"] == 0.0
        assert info["last_state"] == {"q": 1e-11, "q_dot": 0.0, "f": 0.9, "f_dot": 0.0,
                                      "tau": 0.0}

    def test_integrator_failure_exit_4(self, tmp_path):
        # the mass turns nonpositive mid-run: not a config error (fine at
        # t0), not a singularity of the state; an integrator failure
        out = tmp_path / "run"
        code = run("simulate", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "functions.m=1-0.6*t",
                   "--set", "integration.method=rk4",
                   "--set", "integration.dt=0.05",
                   "--set", "integration.output_stride=0.5",
                   "--set", "integration.t_end=5")
        assert code == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 4
        assert "positive" in manifest["error"]

    @pytest.mark.parametrize("override", ["integration.t_end=nan",
                                          "integration.t_end=inf",
                                          "initial.q=nan"])
    def test_non_finite_config_value_exit_2(self, tmp_path, capsys, override):
        out = tmp_path / "run"
        code = run("simulate", "--config", scenario_path(S1), "--out", str(out),
                   "--set", override)
        assert code == 2
        assert "is not a finite number" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2

    @pytest.mark.parametrize("overrides", [
        ["integration.output_stride=1e-300"],
        ["integration.output_stride=1e-12"],
        ["integration.t_end=1e300"],
        ["integration.method=rk4", "integration.dt=1e-9"],
        ["integration.method=rk4", "integration.dt=1e-320"],
    ])
    def test_absurd_grid_exit_2_before_integrating(self, tmp_path, capsys,
                                                   overrides):
        # each of these used to hang, crash or read as a singularity
        out = tmp_path / "run"
        argv = ["simulate", "--config", scenario_path(S1), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert run(*argv) == 2
        err = capsys.readouterr().err.strip()
        assert "more than 1000000" in err and "\n" not in err
        assert not (out / "trajectory.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_non_finite_mass_exit_2(self, tmp_path, capsys, command):
        # 1e400 parses to a constant inf
        code = run(command, "--config", scenario_path(S1),
                   "--out", str(tmp_path / "run"), "--set", "functions.m=1e400")
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_non_finite_invariant_exit_4(self, tmp_path, capsys, command):
        # the run is fine, but (q'f - qf')^2 overflows: E = inf
        out = tmp_path / "run"
        code = run(command, "--config", scenario_path(S1), "--out", str(out),
                   "--set", "initial.q_dot=1e160",
                   "--set", "integration.t_end=1")
        assert code == 4
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: the invariant is not finite at t=0.0")
        assert "\n" not in err
        report = json.loads((out / "report.json").read_text())
        assert "not finite" in report["error"]
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 4

    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_overflowing_drift_exit_4_with_its_files(self, tmp_path, capsys, command):
        # every energy is finite, so trajectory.csv keeps them; only the
        # summary, the relative drift 1.5e297 / 1.1e-12, is not
        out = tmp_path / "run"
        code = run(command, "--config", scenario_path(S1), "--out", str(out),
                   *_DRIFT_OVERFLOW)
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [f"error: {_DRIFT_MESSAGE}"]
        _, rows = read_csv(out / "trajectory.csv")
        assert rows.shape == (59, 10) and np.isfinite(rows).all()
        assert 1e-12 < rows[0, 8] < 2e-12 and rows[-1, 8] > 1e297
        assert json.loads((out / "report.json").read_text()) == {"error": _DRIFT_MESSAGE}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 4 and manifest["error"] == _DRIFT_MESSAGE

    def test_failing_sample_keeps_the_energies_before_it(self, tmp_path, capsys):
        # the same run to t = 3.2 overflows to inf at t = 3.05: the 61 rows
        # to t = 3.0 keep their energies, the 4 from 3.05 on read NaN
        out = tmp_path / "run"
        code = run("simulate", "--config", scenario_path(S1), "--out", str(out),
                   *_DRIFT_OVERFLOW[:-1], "integration.t_end=3.2")
        assert code == 4
        message = ("the invariant is not finite at t=3.0500000000000003 "
                   "(E_phys = inf, E_Q = inf)")
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        _, rows = read_csv(out / "trajectory.csv")
        assert rows.shape == (65, 10) and rows[60, 0] == 3.0
        assert np.isfinite(rows[:61]).all() and rows[60, 8] > 1e307
        assert np.isnan(rows[61:, 8:]).all() and np.isfinite(rows[61:, :8]).all()
        assert json.loads((out / "report.json").read_text()) == {"error": message}

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = run("simulate", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path / "run"))
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_escaped_exception_exit_4_one_line(self, tmp_path, capsys,
                                               monkeypatch):
        def broken(doc):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(model, "build_scenario", broken)
        code = run("simulate", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "run"))
        assert code == 4
        err = capsys.readouterr().err.strip()
        assert err == "error: internal failure: RuntimeError: synthetic fault"

    def test_overflow_message_shows_plain_float(self, tmp_path, capsys):
        # f^3 overflows in the RHS, which carries on in IEEE floats; the
        # overflow makes a stage state NaN, and the message names it
        code = run("simulate", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "run"), "--set", "initial.f=1e308")
        assert code == 4
        err = capsys.readouterr().err.strip()
        assert err == "error: non-finite DP54 stage 5 state at t=0.044444444444444446"
        assert "np.float64" not in err and "\n" not in err

    @pytest.mark.parametrize("command", ["check", "map"])
    def test_cube_overflow_message_shows_plain_float(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        assert run(command, "--config", scenario_path(S3), "--out", str(out),
                   "--set", "initial.q=1e120") == 4
        assert capsys.readouterr().err.splitlines() == [f"error: {_CUBE_OVERFLOW}"]
        assert json.loads((out / "manifest.json").read_text())["error"] == \
            _CUBE_OVERFLOW

    def test_cube_overflow_bench_row_shows_plain_float(self, tmp_path, capsys):
        assert run("bench", "--config", scenario_path(S3), "--out", str(tmp_path / "b"),
                   "--set", "initial.q=1e120", "--methods", "adaptive54",
                   "--tol", "1e-8") == 4
        assert capsys.readouterr().err.splitlines() == [
            f"bench row adaptive54 1e-08: {_CUBE_OVERFLOW}"]

    @pytest.mark.parametrize("overrides,message", [
        (["functions.m=1e-300"], "DP54 stage 3 state at t=0.015"),
        (["functions.omega_tilde_sq=1e300"], "DP54 stage 5 state at t=0.044444444444444446"),
        (["functions.m=1e-300", "integration.method=rk4", "integration.dt=0.01"],
         "RK4 stage 3 state at t=0.005"),
    ])
    def test_non_finite_stage_state_named(self, tmp_path, capsys, overrides, message):
        # the RHS fails on a NaN stage state; the message names that state,
        # not the expression that met it, and the partial trajectory stays;
        # the manifest files it as an abort, not a singularity
        out = tmp_path / "run"
        argv = ["check", "--config", scenario_path(S3), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert run(*argv) == 4
        message = f"non-finite {message}"
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 4
        assert "singularity" not in manifest
        assert manifest["abort"]["message"] == message
        assert manifest["abort"]["last_t"] == 0.0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 2

    def test_verlet_not_usable_for_physical_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("simulate", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "integration.method=verlet",
                   "--set", "integration.dt=0.01")
        assert code == 2
        assert "verlet" in capsys.readouterr().err

    def test_determinism_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", scenario_path(S2), "--out", str(out1)) == 0
        assert run("simulate", "--config", scenario_path(S2), "--out", str(out2)) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()


class TestCheck:
    def test_s1_passes_default_threshold(self, tmp_path):
        assert run("check", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "c")) == 0

    def test_flat_100_factor_potential(self, tmp_path, capsys):
        # V = Q*Q*...*Q: its generated F once needed a 5,049-term sum line,
        # which compile could not take (exit 4, RecursionError)
        out = tmp_path / "c"
        start = time.perf_counter()
        code = run("check", "--config", scenario_path(S3), "--out", str(out),
                   "--set", "integration.t_end=1",
                   "--set", "coupling.V=" + "*".join(["Q"] * 100))
        elapsed = time.perf_counter() - start
        assert (code, capsys.readouterr().err) == (0, "")
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 0
        assert elapsed < 5.0

    def test_flat_300_factor_potential(self, tmp_path, capsys):
        # building F evaluates V'(0) and V''(0), DAGs of O(n) nodes that a
        # plain tree walk visits O(n^3) times: about 9 s before evaluate
        # shared subtrees, about 0.12 s after
        out = tmp_path / "c"
        start = time.perf_counter()
        code = run("check", "--config", scenario_path(S3), "--out", str(out),
                   "--set", "initial.q=0.9", "--set", "integration.t_end=1",
                   "--set", "coupling.V=" + "*".join(["Q"] * 300))
        elapsed = time.perf_counter() - start
        assert (code, capsys.readouterr().err) == (0, "")
        assert elapsed < 3.0

    def test_coarse_rk4_fails(self, tmp_path):
        code = run("check", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "c"),
                   "--set", "integration.method=rk4",
                   "--set", "integration.dt=0.5",
                   "--set", "integration.output_stride=0.5")
        assert code == 1
        # report is still written on drift failure
        assert (tmp_path / "c" / "report.json").exists()
        assert (tmp_path / "c" / "trajectory.csv").exists()
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["exit_status"] == 1

    @pytest.mark.parametrize("stride,times", [("30", [0.0, 30.0, 50.0]),
                                              ("25", [0.0, 25.0, 50.0])])
    def test_span_tail_is_certified(self, tmp_path, stride, times):
        # 50 is no multiple of 30: the stretch (30, 50] is sampled at t_end too
        out = tmp_path / "c"
        assert run("check", "--config", scenario_path(S3), "--out", str(out),
                   "--set", f"integration.output_stride={stride}") == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert list(rows[:, 0]) == times
        assert json.loads((out / "report.json").read_text())["samples"] == 3

    @pytest.mark.parametrize("method", [[], ["--set", "integration.method=rk4",
                                             "--set", "integration.dt=1e-4"]])
    def test_tail_below_the_time_resolution_is_no_tail(self, tmp_path, method):
        # 1e6 + 10 * 1e-3 is t_end in floats; the float span's 9.3e-12
        # remainder is no eleventh stretch to sample
        out = tmp_path / "c"
        assert run("check", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "initial.t0=1e6", "--set", "integration.t_end=1000000.01",
                   "--set", "integration.output_stride=1e-3", *method) == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 11 and rows[-1, 0] == 1000000.01
        assert json.loads((out / "report.json").read_text())["samples"] == 11

    def test_span_within_time_tolerance_exits_2(self, tmp_path, capsys):
        # 2,000 strides of 0.05 that DP54 cannot step at t0 = 1e16 are a
        # plan the load refuses, not a certificate over the start sample alone
        out = tmp_path / "c"
        assert run("check", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "initial.t0=1e16",
                   "--set", "integration.t_end=1.00000000000001e16") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "time tolerance" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == _LOAD_ERROR and manifest["exit_status"] == 2
        assert "time tolerance" in manifest["error"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_dt_below_time_resolution_exits_2(self, tmp_path, capsys):
        # steps of 0.05 at t0 = 1e16, where the float spacing is 2.0, are
        # refused at load instead of run as 2,000 steps that never advance
        # the time
        out = tmp_path / "c"
        assert run("check", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "initial.t0=1e16",
                   "--set", "integration.t_end=1.00000000000001e16",
                   "--set", "integration.method=rk4",
                   "--set", "integration.dt=0.05") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "time resolution 2.0" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == _LOAD_ERROR and manifest["exit_status"] == 2
        assert "time resolution" in manifest["error"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command", ["simulate", "check", "map"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, command):
        # there is nowhere to write manifest.json: one line names the path
        out = tmp_path / "file"
        out.write_text("kept\n")
        assert run(command, "--config", scenario_path(S1), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {str(out)!r} cannot be a directory: File exists"]
        assert out.read_text() == "kept\n"

    def test_vacuous_threshold_always_passes(self, tmp_path):
        code = run("check", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "c"),
                   "--set", "integration.method=rk4",
                   "--set", "integration.dt=0.5",
                   "--set", "integration.output_stride=0.5",
                   "--max-drift", "1e300")
        assert code == 0


    @pytest.mark.parametrize("cfg,command,flags", [
        (S1, "check", ["--max-drift", "nan"]),
        (S1, "check", ["--max-drift", "0"]),
        (S1, "check", ["--max-drift", "inf"]),
        (S1, "simulate", ["--quad-tol", "-1"]),
        (S1, "check", ["--quad-tol", "inf"]),
        ("bare", "simulate", ["--quad-tol", "nan"]),
        ("bare", "bench", ["--quad-tol", "0", "--methods", "rk4", "--dt", "0.1"]),
    ])
    def test_threshold_flags_must_be_finite_positive(self, tmp_path, capsys, cfg,
                                                     command, flags):
        bare = tmp_path / "bare.cfg"
        bare.write_text(BARE_F4)
        out = tmp_path / "c"
        config = str(bare) if cfg == "bare" else scenario_path(cfg)
        assert run(command, "--config", config, "--out", str(out), *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flags[0]} must be a finite positive number, "
                       f"got {float(flags[1])!r}"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2

    @pytest.mark.parametrize("command,flag,message", [
        ("simulate", ["--quad-tol", "abc"], "--quad-tol = 'abc' is not a number"),
        ("check", ["--quad-tol=nan"], "--quad-tol must be a finite positive number, got nan"),
        ("check", ["--max-drift=-inf"],
         "--max-drift must be a finite positive number, got -inf"),
        ("bench", ["--quad-tol", "1e-3x", "--methods", "rk4", "--dt", "0.1"],
         "--quad-tol = '1e-3x' is not a number"),
    ])
    def test_malformed_threshold_is_a_config_error(self, tmp_path, capsys, command,
                                                   flag, message):
        # parsed after argparse: one line, exit 2 and a manifest, like any
        # other configuration error
        out = tmp_path / "c"
        assert run(command, "--config", scenario_path(S1), "--out", str(out),
                   *flag) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"] == message

    def test_undefined_relative_drift_gates_the_absolute_drift(self, tmp_path,
                                                                capsys):
        # e0 = 0 here, so max_rel_drift is reported as 0 and says nothing;
        # check gates max_abs_drift (about 2e-3) instead
        out = tmp_path / "c"
        assert run("check", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "coupling.V=Q^2-1", "--set", "initial.q=1",
                   "--set", "initial.f=1", "--set", "integration.tol=1e-4",
                   "--max-drift", "1e-8") == 1
        report = json.loads((out / "report.json").read_text())
        assert report["e0"] == 0.0 and report["max_rel_drift"] == 0.0
        assert set(report) == {"e0", "max_abs_drift", "max_rel_drift", "samples",
                               "frame_gap", "convention"}
        assert capsys.readouterr().err.splitlines() == [
            f"drift check failed: max_abs_drift = {report['max_abs_drift']:.3e} "
            f"> 1.000e-08"]

    def test_failed_gate_names_itself_in_the_manifest(self, tmp_path, capsys):
        # exit 1 records its reason like every other failing exit: the
        # gate's stderr line, with no "error: " before it on stderr
        out = tmp_path / "c"
        assert run("check", "--config", scenario_path(S1), "--out", str(out),
                   "--max-drift", "1e-12") == 1
        report = json.loads((out / "report.json").read_text())
        line = (f"drift check failed: max_rel_drift = {report['max_rel_drift']:.3e} "
                f"> 1.000e-12")
        assert capsys.readouterr().err.splitlines() == [line]
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["exit_status"], manifest["error"]) == (1, line)

    def test_exactly_conserved_zero_energy_passes(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("""
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
        out = tmp_path / "c"
        assert run("check", "--config", str(cfg), "--out", str(out),
                   "--max-drift", "1e-300") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["e0"] == 0.0 and report["max_abs_drift"] == 0.0

    def test_map_has_no_quad_tol(self, tmp_path):
        # map evaluates no invariant, so it offers no quadrature tolerance
        with pytest.raises(SystemExit) as info:
            run("map", "--config", scenario_path(S1), "--out", str(tmp_path / "m"),
                "--quad-tol", "0.5")
        assert info.value.code == 2


class TestMap:
    def test_s1_gap_small(self, tmp_path):
        out = tmp_path / "m"
        assert run("map", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "integration.t_end=20") == 0
        gap = json.loads((out / "gap.json").read_text())
        assert gap["max_abs_dQ"] < 1e-5

    def test_s3_gap_small(self, tmp_path):
        out = tmp_path / "m"
        assert run("map", "--config", scenario_path(S3), "--out", str(out)) == 0
        gap = json.loads((out / "gap.json").read_text())
        # the direct run's own dense output at each mapped tau: 1.7e-9, where
        # cubic-Hermite interpolation between its stride rows read 5.6e-7
        assert gap["max_abs_dQ"] < 1e-8
        assert gap["samples_compared"] > 900
        header, rows = read_csv(out / "qframe_mapped.csv")
        assert header == ["tau", "Q", "Q_prime"]

    @pytest.mark.parametrize("overrides", [[], ["integration.output_stride=30"]])
    def test_direct_rows_are_the_stride_grid(self, tmp_path, overrides):
        # the benchmark checker's map rule: the direct run has one row per
        # whole stride of the tau span plus its start, and every mapped row
        # up to the last direct tau is compared
        out = tmp_path / "m"
        assert run("map", "--config", scenario_path(S3), "--out", str(out),
                   *(a for o in overrides for a in ("--set", o))) == 0
        step = load_scenario(S3, overrides).plan.output_stride
        _, mapped = read_csv(out / "qframe_mapped.csv")
        _, direct = read_csv(out / "qframe_direct.csv")
        gap = json.loads((out / "gap.json").read_text())
        assert gap["tau_end"] == mapped[-1, 0]
        tau_span = mapped[-1, 0] - mapped[0, 0]
        assert len(direct) == math.floor(tau_span / step + 1e-9) + 1
        assert gap["samples_compared"] == np.sum(mapped[:, 0] <= direct[-1, 0])

    def test_free_scenario_is_linear_in_tau(self, tmp_path):
        out = tmp_path / "m"
        cfg = tmp_path / "free.cfg"
        cfg.write_text("""
[functions]
m = 1
omega_tilde_sq = 0
[coupling]
V = 0
W = 0
[initial]
q = 1
q_dot = 0.1
f = 1
f_dot = 0
[integration]
method = adaptive54
t_end = 10
tol = 1e-10
output_stride = 0.1
""")
        assert run("map", "--config", str(cfg), "--out", str(out)) == 0
        for name in ("qframe_mapped.csv", "qframe_direct.csv"):
            _, rows = read_csv(out / name)
            tau, Q = rows[:, 0], rows[:, 1]
            fit = np.polyfit(tau, Q, 1)
            assert np.max(np.abs(np.polyval(fit, tau) - Q)) < 1e-8, name

    def test_direct_run_abort_names_the_transformed_state(self, tmp_path):
        # G = 0 leaves q unguarded, so only the direct Q-frame run trips its
        # |Q| guard; the manifest must name (Q, Q') and tau, not (q, q_dot), t
        out = tmp_path / "m"
        assert run("map", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "coupling.W=1", "--set", "initial.q=2e-10",
                   "--set", "integration.t_end=5") == 3
        info = json.loads((out / "manifest.json").read_text())["singularity"]
        assert set(info) == {"message", "last_tau", "last_state"}
        assert set(info["last_state"]) == {"Q", "Q_prime"}
        assert info["last_tau"] == 0.3
        assert "|Q|" in info["message"]

    def test_tau_span_shorter_than_a_stride_exit_2(self, tmp_path, capsys):
        # f = 100 makes tau' = 1/(m f^2) = 1e-4: the t span of 50 maps to a
        # tau span of 0.005, a tenth of the stride, so only tau0 would be
        # compared and the gap would read 0 from one sample
        out = tmp_path / "m"
        assert run("map", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "functions.omega_tilde_sq=0", "--set", "coupling.V=Q^2",
                   "--set", "initial.f=100", "--set", "initial.q_dot=1") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: map needs at least 2 samples, but only 1 lies "
                                 "in the whole output strides (0.05) of the tau span 0.00")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2

    @pytest.mark.parametrize("overrides,message", [
        # tau' = 1e-6: the direct run's tau span of 1e-10 is within DP54's
        # time tolerance
        (["functions.omega_tilde_sq=0", "coupling.V=Q^2", "initial.f=1000",
          "initial.q_dot=1", "integration.output_stride=1e-10", "integration.t_end=1e-4"],
         "error: the span 1e-10 from t0=0.0 to t_end=1e-10 is within the time tolerance"),
        # tau' = 1e4: 500 samples in t, over 5 million in tau
        (["coupling.V=0", "initial.f=0.01", "integration.output_stride=0.001",
          "integration.t_end=0.5"],
         "error: a span of 5463.024"),
    ])
    def test_direct_run_plan_refused_exit_2(self, tmp_path, capsys, overrides, message):
        # the direct run's plan is checked before any data file is written
        out = tmp_path / "m"
        assert run("map", "--config", scenario_path(S1), "--out", str(out),
                   *(arg for kv in overrides for arg in ("--set", kv))) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2

    def test_degenerate_span_single_rows(self, tmp_path):
        out = tmp_path / "m"
        assert run("map", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "integration.t_end=0") == 0
        for name in ("qframe_mapped.csv", "qframe_direct.csv"):
            assert len((out / name).read_text().splitlines()) == 2
        assert json.loads((out / "gap.json").read_text())["max_abs_dQ"] == 0.0


class TestConvert:
    def test_harmonic_potential_to_constant_coupling(self, capsys):
        assert run("convert", "--V", "2*Q^2") == 0
        text = capsys.readouterr().out.strip()
        e = parse(text, "u")
        for u in np.linspace(-3, 3, 100):
            if u == 0.0:
                continue
            assert evaluate(e, float(u)) == pytest.approx(4.0, rel=1e-12)

    def test_barrier_to_unit_coupling(self, capsys):
        assert run("convert", "--W", "s^2/2") == 0
        text = capsys.readouterr().out.strip()
        e = parse(text, "v")
        for v in np.linspace(0.1, 4, 50):
            assert evaluate(e, float(v)) == pytest.approx(1.0, rel=1e-12)

    def test_h_from_square(self, capsys):
        assert run("convert", "--F", "u^2") == 0
        text = capsys.readouterr().out.strip()
        e = parse(text, "u")
        for u in (-2.0, 0.5, 3.0):
            assert evaluate(e, u) == pytest.approx(u**3, rel=1e-12)

    def test_g_from_constant(self, capsys):
        assert run("convert", "--G", "1") == 0
        e = parse(capsys.readouterr().out.strip(), "v")
        assert evaluate(e, 0.5) == 0.5

    def test_flag_validation(self, capsys):
        assert run("convert", "--F", "u^2", "--G", "1") == 2
        assert run("convert", "--V", "Q", "--W", "s") == 2
        assert run("convert", "--V", "2*Q^") == 2  # syntax error
        with pytest.raises(SystemExit) as exc:  # the dropped flag is unknown
            run("convert", "--F", "u^2", "--h-from-F")
        assert exc.value.code == 2

    def test_converter_fault_is_one_line_exit_4(self, capsys, monkeypatch):
        # main's catch-all: an unexpected error prints one line, no traceback
        def broken(fn):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(model, "h_from_F", broken)
        assert run("convert", "--F", "u^2") == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: internal failure: RuntimeError: synthetic fault"]

    def test_no_conversion_requested(self):
        assert run("convert") == 2

    @pytest.mark.parametrize("argv,code,out,err", [
        ([], 2, "", "error: give exactly one of --V, --W, --F, --G"),
        (["--V", "Q", "--W", "s"], 2, "", "error: give exactly one of --V, --W, --F, --G"),
        (["--F", "1/u"], 0, "u*(1.0/u)", ""),
        (["--F", "u^2", "--G", "1"], 2, "", "error: give exactly one of --V, --W, --F, --G"),
        (["--G", "v^-2"], 0, "v*v^-2.0", ""),
        (["--V", "2*Q^2"], 0, "2.0*(2.0*u)/u", ""),
        (["--W", "s^2/2"], 0, "v/v", ""),
        (["--F", "u^2"], 0, "u*u^2.0", ""),
        (["--G", "1"], 0, "v*1.0", ""),
        (["--V", "u"], 2, "",
         "error: unknown identifier 'u' (declared variable is 'Q') (at offset 0 in 'u')"),
        (["--W", "Q"], 2, "",
         "error: unknown identifier 'Q' (declared variable is 's') (at offset 0 in 'Q')"),
        (["--F", "v"], 2, "",
         "error: unknown identifier 'v' (declared variable is 'u') (at offset 0 in 'v')"),
        (["--G", "u"], 2, "",
         "error: unknown identifier 'u' (declared variable is 'v') (at offset 0 in 'u')"),
        (["--V", "1e400*Q^2"], 0, "1e999*(2.0*u)/u", ""),
    ])
    def test_messages(self, capsys, argv, code, out, err):
        # each coupling is read in its own variable (model.COUPLING_VARS)
        assert run("convert", *argv) == code
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ([out] if out else [])
        assert captured.err.splitlines() == ([err] if err else [])


class TestBench:
    def test_rk4_drift_convergence(self, tmp_path):
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--methods", "rk4", "--dt", "0.1,0.05,0.025",
                   "--set", "integration.t_end=20",
                   "--set", "integration.output_stride=20") == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "method,dt_or_tol,max_rel_drift,max_abs_drift,steps,wall_ms,status"
        drifts = [float(ln.split(",")[2]) for ln in lines[1:]]
        for a, b in zip(drifts, drifts[1:]):
            assert 8.0 < a / b < 32.0, drifts

    def test_stride_past_the_span_exit_2(self, tmp_path, capsys):
        # each row would compare t0 with t_end alone, over no whole stride
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S3), "--out", str(out),
                   "--methods", "adaptive54,rk4", "--tol", "1e-8", "--dt", "0.5",
                   "--set", "integration.output_stride=100") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: bench needs one whole output stride, but output_stride=100.0 "
            "exceeds the span 50.0"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2

    @pytest.mark.parametrize("methods,flags,words", [
        ("rk4,adaptive54", ["--dt", "0.05", "--tol", "1e-8"], "time resolution 2.0"),
        ("adaptive54", ["--tol", "1e-8"], "within the time tolerance"),
        # a verlet row steps tau over its plan's grid, from t0 = 1e16
        ("verlet", ["--dt", "0.05"], "time resolution 2.0"),
    ])
    def test_unresolvable_grid_point_exit_2(self, tmp_path, capsys, methods, flags,
                                            words):
        # at t0 = 1e16 no step of 0.05 advances the time and DP54 resolves
        # no span of 100: the load refuses the grid point before any row
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "initial.t0=1e16",
                   "--set", "integration.t_end=1.00000000000001e16",
                   "--methods", methods, *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and words in err[0]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2

    def test_empty_grid_exit_2(self, tmp_path):
        assert run("bench", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "b")) == 2
        assert run("bench", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "b2"), "--methods", "rk4") == 2

    @pytest.mark.parametrize("methods,flags,message", [
        ("adaptive54,rk4", ["--tol", "1e-8"], "bench method 'rk4' needs --dt"),
        ("rk4,verlet,adaptive54", ["--dt", "0.05"],
         "bench method 'adaptive54' needs --tol"),
        # no listed method has its list: the grid itself is empty
        ("rk4", [], "empty bench grid: give --methods plus --dt and/or --tol"),
    ])
    def test_method_without_its_steps_exit_2_before_any_row(self, tmp_path, capsys,
                                                            methods, flags, message):
        # a listed method whose --dt or --tol list is empty would run no row
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--methods", methods, *flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["error"] == message

    @pytest.mark.parametrize("bare,dt,tol", [(False, "0.05", "1e-8"),
                                             (True, "0.01", "1e-10")], ids=["s3", "bare_rk4"])
    def test_physical_rows_report_the_drift_check_reports(self, tmp_path, bare, dt, tol):
        # bench and check certify a trajectory by one path: each physical
        # row's drift cells are check's report.json values for its plan
        config = tmp_path / "bare_rk4.cfg" if bare else scenario_path(S3)
        if bare:
            config.write_text(BARE_RK4)
        out = tmp_path / "b"
        assert run("bench", "--config", str(config), "--out", str(out),
                   "--methods", "rk4,adaptive54", "--dt", dt, "--tol", tol) == 0
        lines = (out / "bench.csv").read_text().splitlines()[1:]
        assert len(lines) == 2
        for line, (method, key, step) in zip(lines, [("rk4", "dt", dt),
                                                    ("adaptive54", "tol", tol)]):
            run_dir = tmp_path / method
            assert run("check", "--config", str(config), "--out", str(run_dir),
                       "--max-drift", "1", "--set", f"integration.method={method}",
                       "--set", f"integration.{key}={step}") == 0
            report = json.loads((run_dir / "report.json").read_text())
            assert line.split(",")[:4] == [method, f"{float(step):.17g}",
                                           f"{report['max_rel_drift']:.17g}",
                                           f"{report['max_abs_drift']:.17g}"]

    def test_verlet_row_bounded_drift(self, tmp_path):
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S3), "--out", str(out),
                   "--methods", "verlet", "--dt", "0.01",
                   "--set", "integration.t_end=100") == 0
        row = (out / "bench.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "verlet" and row[6] == "ok"
        assert float(row[2]) < 1e-3

    def test_verlet_row_steps_the_whole_span(self, tmp_path):
        for name, dt, overrides, steps in [
            # 50 is no multiple of 30: both fixed-step rows go on past tau = 30
            ("long-stride", "0.1", ["integration.output_stride=30"], "500"),
            # the verlet row steps the grid its plan was checked on, [t0, t_end]
            ("late-t0", "0.001", ["initial.t0=1000000", "integration.t_end=1000000.01",
                                  "integration.output_stride=0.001"], "10"),
        ]:
            out = tmp_path / name
            assert run("bench", "--config", scenario_path(S3), "--out", str(out),
                       "--methods", "verlet,rk4", "--dt", dt,
                       *(arg for kv in overrides for arg in ("--set", kv))) == 0
            rows = [ln.split(",") for ln in (out / "bench.csv").read_text().splitlines()[1:]]
            assert [(r[0], r[4]) for r in rows] == [("verlet", steps), ("rk4", steps)], name

    def test_verlet_row_fails_at_the_pole(self, tmp_path, capsys):
        # W = -s^2/2 drives Q through 0 at tau ~ 0.5; a dt of 1e-3 steps over
        # the guard band, so the row must fail on the sign change
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--methods", "verlet", "--dt", "0.001",
                   "--set", "coupling.V=0", "--set", "coupling.W=-(s^2)/2",
                   "--set", "initial.q=1", "--set", "initial.q_dot=-1",
                   "--set", "initial.f=1", "--set", "integration.t_end=5") == 4
        row = (out / "bench.csv").read_text().splitlines()[1].split(",")
        assert row[:5] == ["verlet", "0.001", "", "", ""]
        assert row[6] == "error: SingularityError"
        assert "(at t=0.501)" in capsys.readouterr().err

    def test_rk4_row_shows_the_absolute_drift_across_the_pole(self, tmp_path):
        # RK4 steps over the q = 0 pole without a guard trip; e0 = 0, so the
        # relative drift reads 0 and only the absolute one shows the damage
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--methods", "rk4", "--dt", "0.001",
                   "--set", "coupling.V=0", "--set", "coupling.W=-(s^2)/2",
                   "--set", "initial.q=1", "--set", "initial.q_dot=-1",
                   "--set", "initial.f=1", "--set", "integration.t_end=5") == 0
        row = (out / "bench.csv").read_text().splitlines()[1].split(",")
        assert row[:3] == ["rk4", "0.001", "0"] and row[6] == "ok"
        assert float(row[3]) > 1.0

    def test_absurd_dt_exit_2_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--methods", "rk4", "--dt", "0.01,1e-320") == 2
        assert "more than 1000000 steps" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--methods", "rk4", "--dt", "abc"], "--dt = 'abc' is not a number"),
        (["--methods", "rk4", "--dt", "0.05,0"],
         "--dt must be a finite positive number, got 0.0"),
        (["--methods", "verlet", "--dt", "-0.05"],
         "--dt must be a finite positive number, got -0.05"),
        (["--methods", "adaptive54", "--tol", "nan"],
         "--tol must be a finite positive number, got nan"),
        (["--methods", "adaptive54", "--tol", "1e-8,inf"],
         "--tol must be a finite positive number, got inf"),
    ])
    def test_bad_grid_value_exit_2_before_any_row(self, tmp_path, capsys, flags,
                                                  message):
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   *flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize("dt,message", [
        ("0.03", "dt=0.03 does not subdivide output_stride=0.05 exactly"),
        ("1e-320", "dt=1e-320 asks for more than 1000000 steps over a span of 50.0"),
        # the value's reader names its source: the config key or the flag
        ("-0.05", "{} must be a finite positive number, got -0.05"),
    ])
    def test_grid_point_refused_as_simulate_refuses_its_plan(self, tmp_path, capsys,
                                                             dt, message):
        sim, bench = tmp_path / "s", tmp_path / "b"
        assert run("simulate", "--config", scenario_path(S1), "--out", str(sim),
                   "--set", "integration.method=rk4",
                   "--set", f"integration.dt={dt}") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.format("[integration] dt")]
        assert run("bench", "--config", scenario_path(S1), "--out", str(bench),
                   "--methods", "rk4,adaptive54", "--dt", dt, "--tol", "1e-8") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.format("--dt")]
        for out in (sim, bench):
            assert [p.name for p in out.iterdir()] == ["manifest.json"]
            assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2

    def test_only_the_grid_plans_are_validated(self, tmp_path, capsys):
        # the config's own plan (rk4 at a dt of 0.03 on a 0.05 stride) is one
        # simulate refuses, but no bench row runs it
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "integration.method=rk4", "--set", "integration.dt=0.03",
                   "--methods", "adaptive54", "--tol", "1e-8") == 0
        assert capsys.readouterr().err == ""
        rows = [ln.split(",") for ln in (out / "bench.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[6]) for r in rows] == [("adaptive54", "1e-08", "ok")]
        # a malformed grid value stays exit 2, even one no row reads
        assert run("bench", "--config", scenario_path(S1), "--out", str(tmp_path / "c"),
                   "--methods", "rk4", "--dt", "0.05", "--tol", "nan") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --tol must be a finite positive number, got nan"]

    def test_manifest_names_every_grid_point(self, tmp_path):
        # the echo names the plan of each row, not the config's method or
        # the first grid point's alone
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "integration.method=rk4", "--set", "integration.t_end=5",
                   "--methods", "adaptive54,rk4", "--tol", "1e-8,1e-9",
                   "--dt", "0.05") == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved"]
        assert "method" not in resolved
        assert resolved["grid"] == [{"method": "adaptive54", "step": 1e-8},
                                    {"method": "adaptive54", "step": 1e-9},
                                    {"method": "rk4", "step": 0.05}]
        # any other run names its one method
        assert run("check", "--config", scenario_path(S1), "--out", str(tmp_path / "c"),
                   "--set", "integration.t_end=5") == 0
        resolved = json.loads((tmp_path / "c" / "manifest.json").read_text())["resolved"]
        assert resolved["method"] == "adaptive54" and "grid" not in resolved

    @pytest.mark.parametrize("coupling,code,status", [
        ("V = Q^4/4\nW = s^2/2", 0, "ok"),
        ("V = Q^4/4\nG = 1", 4, "error: PotentialsUnavailableError"),  # W missing
        ("", 0, "ok"),                                     # free particle
    ])
    def test_verlet_row_needs_the_potential_of_every_coupling(
            self, tmp_path, coupling, code, status):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(scenario_text(S3).replace("V = Q^4/4\nW = s^2/2", coupling))
        out = tmp_path / "b"
        assert run("bench", "--config", str(cfg), "--out", str(out),
                   "--methods", "verlet", "--dt", "0.01") == code
        row = (out / "bench.csv").read_text().splitlines()[1].split(",")
        assert row[6] == status
        if status == "ok":
            assert float(row[2]) < 1e-3

    def test_overflowing_drift_fails_its_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   *_DRIFT_OVERFLOW, "--methods", "rk4,adaptive54",
                   "--dt", "0.05", "--tol", "1e-8") == 4
        rows = (out / "bench.csv").read_text().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == ["error: InvariantError",
                                                    "error: SingularityError"]
        assert capsys.readouterr().err.splitlines()[0] == (
            f"bench row rk4 0.05: {_DRIFT_MESSAGE}")

    def test_failed_row_message_in_manifest(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S3), "--out", str(out),
                   "--set", "initial.q=1e120", "--methods", "adaptive54,rk4",
                   "--tol", "1e-8", "--dt", "0.01") == 4
        printed = capsys.readouterr().err.splitlines()
        assert printed == [f"bench row adaptive54 1e-08: {_CUBE_OVERFLOW}",
                           f"bench row rk4 0.01: {_CUBE_OVERFLOW}"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == "; ".join(printed)
        assert [row.split(",")[-1] for row in
                (out / "bench.csv").read_text().splitlines()[1:]] == [
            "error: ExprDomainError"] * 2

    def test_partial_failure_recorded_per_row(self, tmp_path):
        # verlet cannot run without potentials; rk4 still succeeds
        out = tmp_path / "b"
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("""
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
t_end = 5
tol = 1e-8
output_stride = 0.5
""")
        assert run("bench", "--config", str(cfg), "--out", str(out),
                   "--methods", "rk4,verlet", "--dt", "0.1") == 0
        lines = (out / "bench.csv").read_text().splitlines()
        statuses = {ln.split(",")[0]: ln.split(",")[6] for ln in lines[1:]}
        assert statuses["rk4"] == "ok"
        assert statuses["verlet"].startswith("error")


class TestStepBudget:
    def test_stiff_dp54_run_exits_4_with_its_partial(self, tmp_path, capsys,
                                                      monkeypatch):
        # w~2 = exp(1000 t) needs 82 DP54 steps to t = 0.01, 4,777 to 0.02
        # and 693,288 to 0.03: the run stops at its budget of attempted steps
        monkeypatch.setattr(model, "MAX_GRID_POINTS", 20_000)
        out = tmp_path / "out"
        assert run("check", "--config", scenario_path(S1), "--out", str(out),
                   "--set", "functions.omega_tilde_sq=exp(1000*t)",
                   "--set", "integration.t_end=0.5",
                   "--set", "integration.output_stride=0.005") == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "step budget of 20000 attempts" in err[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 4 and "step budget" in manifest["error"]
        meta = manifest["metadata"]
        assert meta["step_count"] + meta["rejected_steps"] == 20_000
        assert "singularity" not in manifest
        assert "step budget" in manifest["abort"]["message"]
        _, rows = read_csv(out / "trajectory.csv")
        assert 1 < len(rows) and rows[-1, 0] < 0.03
        assert json.loads((out / "report.json").read_text())["partial"] is True


# --- exit paths ---------------------------------------------------------------
# One row per subcommand x exit path: exit code, stderr line count, manifest
# keys and the files left in --out.

BARE_F4 = """
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
t_end = 5
tol = 1e-8
output_stride = 0.5
"""

_BASE = {"command", "config_path", "overrides", "outputs", "exit_status", "wall_ms"}
_LOAD_ERROR = _BASE | {"error"}
_ECHO = _BASE | {"config", "resolved", "config_text"}
# a stepper abort adds its last state, under "singularity" after a pole and
# under "abort" after any other failure (here a mass that reaches zero)
_RUN_SINGULAR = _ECHO | {"error", "singularity"}
_RUN_ABORT = _ECHO | {"error", "abort"}
_SIMULATED = _ECHO | {"metadata"}
_PARTIAL_SINGULAR = _SIMULATED | {"error", "singularity"}
_PARTIAL_ABORT = _SIMULATED | {"error", "abort"}
_INVARIANT_ERROR = _SIMULATED | {"error"}
_DRIFT_GATE = _SIMULATED | {"error"}  # check's gate failed: its stderr line
_ROW_ERROR = _ECHO | {"error"}  # bench rows failed: their messages

_SIM_FILES = {"manifest.json", "report.json", "trajectory.csv"}
_MAP_FILES = {"manifest.json", "qframe_mapped.csv", "qframe_direct.csv", "gap.json"}
_MANIFEST_ONLY = {"manifest.json"}

_SHORT = ["--set", "integration.t_end=1"]
_CONFLICT = ["--set", "coupling.F=4"]
_VERLET = ["--set", "integration.method=verlet", "--set", "integration.dt=0.01"]
_POLE = ["--set", "coupling.W=-(s^2)/2"]
_MASS_ZERO = ["--set", "functions.m=1-0.6*t", "--set", "integration.method=rk4",
              "--set", "integration.dt=0.05", "--set", "integration.output_stride=0.5",
              "--set", "integration.t_end=5"]
_INF_ENERGY = ["--set", "initial.q_dot=1e160"] + _SHORT
_COARSE = ["--set", "integration.method=rk4", "--set", "integration.dt=0.5",
           "--set", "integration.output_stride=0.5"]
# nested past the recursion limit of the parser and of differentiation
_DEEP_PARENS = "(" * 3000 + "Q" + ")" * 3000
_DEEP_SUM = "+".join(["Q"] * 5000)
# Q'' = -2Q at dt 3 is unstable: Q' overflows the energy's square first
_UNSTABLE_VERLET = ["--methods", "verlet", "--dt", "3",
                    "--set", "integration.output_stride=3", "--set", "coupling.W=0",
                    "--set", "coupling.V=Q^2", "--set", "integration.t_end=600"]
_RK4 = ["--set", "integration.method=rk4"]

# configs written to --config by name, beside the shipped scenarios
CONFIGS = {"bare": BARE_F4,
           "no-method": BARE_F4.replace("method = adaptive54\n", ""),
           "no-mass": BARE_F4.replace("\nm = 1\n", "\n", 1)}

EXIT_PATHS = [
    # (id, argv after --config/--out, code, stderr lines, manifest keys, files)
    ("simulate-0", ["simulate", S1] + _SHORT, 0, 0, _SIMULATED, _SIM_FILES),
    ("simulate-2-load", ["simulate", S1] + _CONFLICT, 2, 1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("simulate-2-verlet", ["simulate", S1] + _VERLET, 2, 1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("simulate-3", ["simulate", S1] + _POLE, 3, 1, _PARTIAL_SINGULAR, _SIM_FILES),
    ("simulate-4-mass", ["simulate", S1] + _MASS_ZERO, 4, 1, _PARTIAL_ABORT, _SIM_FILES),
    ("simulate-4-invariant", ["simulate", S1] + _INF_ENERGY, 4, 1, _INVARIANT_ERROR,
     _SIM_FILES),
    ("check-0", ["check", S1] + _SHORT, 0, 0, _SIMULATED, _SIM_FILES),
    ("check-1", ["check", S1] + _COARSE, 1, 1, _DRIFT_GATE, _SIM_FILES),
    ("check-2-load", ["check", S1] + _CONFLICT, 2, 1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("check-2-verlet", ["check", S1] + _VERLET, 2, 1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("check-3", ["check", S1] + _POLE, 3, 1, _PARTIAL_SINGULAR, _SIM_FILES),
    ("check-4", ["check", S1] + _INF_ENERGY, 4, 1, _INVARIANT_ERROR, _SIM_FILES),
    ("map-0", ["map", S1] + _SHORT, 0, 0, _ECHO, _MAP_FILES),
    ("map-2-load", ["map", S1, "--set", "integration.tol=0"], 2, 1, _LOAD_ERROR,
     _MANIFEST_ONLY),
    ("map-2-verlet", ["map", S1] + _VERLET, 2, 1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("map-3", ["map", S1] + _POLE, 3, 1, _RUN_SINGULAR, _MANIFEST_ONLY),
    ("map-4", ["map", S1] + _MASS_ZERO, 4, 1, _RUN_ABORT, _MANIFEST_ONLY),
    ("check-2-one-sample", ["check", S3, "--set", "integration.output_stride=100"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("check-2-empty-span", ["check", S1, "--set", "integration.t_end=0"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("map-2-one-sample", ["map", S3, "--set", "integration.output_stride=100"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    # the t span holds 1,001 samples, the tau span only its first
    ("map-2-one-tau-sample", ["map", S1, "--set", "functions.omega_tilde_sq=0",
                              "--set", "coupling.V=Q^2", "--set", "initial.f=100"], 2, 1,
     _ECHO | {"error"}, _MANIFEST_ONLY),
    ("bench-0", ["bench", S1, "--methods", "rk4", "--dt", "0.05"] + _SHORT, 0, 0,
     _ECHO, {"manifest.json", "bench.csv"}),
    ("bench-2", ["bench", S1, "--methods", "rk4"], 2, 1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("bench-2-method-without-steps", ["bench", S1, "--methods", "adaptive54,rk4",
                                      "--tol", "1e-8"], 2, 1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("bench-2-one-sample", ["bench", S3, "--methods", "rk4", "--dt", "0.5",
                            "--set", "integration.output_stride=100"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("bench-4", ["bench", "bare", "--methods", "verlet", "--dt", "0.1"], 4, 1,
     _ROW_ERROR, {"manifest.json", "bench.csv"}),
    ("bench-4-verlet-overflow", ["bench", S3] + _UNSTABLE_VERLET, 4, 1, _ROW_ERROR,
     {"manifest.json", "bench.csv"}),
    ("bench-2-method", ["bench", S1, "--methods", "foo", "--dt", "0.1"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("check-2-deep-parens", ["check", S1, "--set", f"coupling.V={_DEEP_PARENS}"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("check-2-deep-sum", ["check", S1, "--set", f"coupling.V={_DEEP_SUM}"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("simulate-2-no-method", ["simulate", "no-method"], 2, 1, _LOAD_ERROR,
     _MANIFEST_ONLY),
    ("simulate-2-no-mass", ["simulate", "no-mass"], 2, 1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("simulate-2-bad-mass", ["simulate", S1, "--set", "functions.m=1+"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("simulate-2-stride", ["simulate", S1, "--set", "integration.output_stride=0"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("simulate-2-dt", ["simulate", S1, *_RK4, "--set", "integration.dt=0"], 2, 1,
     _LOAD_ERROR, _MANIFEST_ONLY),
    ("simulate-2-dt-stride", ["simulate", S1, *_RK4, "--set", "integration.dt=0.03"], 2,
     1, _LOAD_ERROR, _MANIFEST_ONLY),
    ("simulate-2-set-no-dot", ["simulate", S1, "--set", "t_end=1"], 2, 1, _LOAD_ERROR,
     _MANIFEST_ONLY),
]


class TestExitPaths:
    @pytest.mark.parametrize("argv,code,lines,keys,files",
                             [case[1:] for case in EXIT_PATHS],
                             ids=[case[0] for case in EXIT_PATHS])
    def test_exit_path(self, tmp_path, capsys, argv, code, lines, keys, files):
        command, cfg, *rest = argv
        if cfg in CONFIGS:
            config = tmp_path / f"{cfg}.cfg"
            config.write_text(CONFIGS[cfg])
        else:
            config = scenario_path(cfg)
        out = tmp_path / "out"
        assert run(command, "--config", str(config), "--out", str(out), *rest) == code
        assert len(capsys.readouterr().err.splitlines()) == lines
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == keys
        assert {p.name for p in out.iterdir()} == files
        if "report.json" in files:  # a partial trajectory's report says so
            report = json.loads((out / "report.json").read_text())
            assert report.get("partial") is (True if keys & {"singularity", "abort"}
                                             else None)

    def test_escaped_exception_in_body_writes_manifest(self, tmp_path, capsys,
                                                       monkeypatch):
        def broken(*args):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(cli, "_simulate", broken)
        out = tmp_path / "out"
        assert run("simulate", "--config", scenario_path(S1), "--out", str(out)) == 4
        message = "internal failure: RuntimeError: synthetic fault"
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == _ECHO | {"error"}
        assert manifest["error"] == message and manifest["exit_status"] == 4
        assert {p.name for p in out.iterdir()} == _MANIFEST_ONLY

    def test_internal_failure_mid_grid_leaves_no_table(self, tmp_path, capsys,
                                                       monkeypatch):
        # bench.csv is written after the last row, so a fault in the second
        # row leaves only the manifest, as a fault before the first would
        rows = []

        def second_row_breaks(scn, quad_tol, _row=cli._bench_row):
            rows.append(scn.plan)
            if len(rows) == 2:
                raise RuntimeError("synthetic fault")
            return _row(scn, quad_tol)

        monkeypatch.setattr(cli, "_bench_row", second_row_breaks)
        out = tmp_path / "out"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--methods", "rk4", "--dt", "0.05,0.025", *_SHORT) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: internal failure: RuntimeError: synthetic fault"]
        assert {p.name for p in out.iterdir()} == _MANIFEST_ONLY

    @pytest.mark.parametrize("argv,code", [
        (["convert", "--V", "2*Q^2"], 0),
        (["convert", "--V", "2*Q^"], 2),
        (["convert", "--V", _DEEP_PARENS], 2),
        (["convert", "--V", _DEEP_SUM], 2),
    ])
    def test_convert_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == (0 if code == 0 else 1)
        assert list(tmp_path.iterdir()) == []


# One fresh interpreter: `import ermakov`, then every subcommand through
# cli.main; prints whether numpy was loaded after each stage.
_NO_NUMPY_SCRIPT = """
import json, sys
SLOW = ("dataclasses", "inspect", "ast")  # slow imports no run needs
import ermakov
imported = "numpy" in sys.modules
slow = [[m for m in SLOW if m in sys.modules]]
from ermakov.cli import main
from ermakov.errors import InvariantError
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(main(argv))
    slow.append([m for m in SLOW if m in sys.modules])
print(json.dumps({"import": imported, "codes": codes,
                  "numpy": "numpy" in sys.modules, "slow": slow}))
"""

# The same, with any import of numpy failing.
_NUMPY_BLOCKED_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from ermakov.cli import main
from ermakov.errors import InvariantError
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


class TestNoNumpy:
    def test_cli_runs_every_subcommand_without_numpy(self, tmp_path):
        runs = [[command, "--config", scenario_path(cfg)]
                for cfg in (S1, S2, S3) for command in ("simulate", "check")]
        runs += [["map", "--config", scenario_path(S3)],
                 ["bench", "--config", scenario_path(S3), "--methods",
                  "rk4,adaptive54,verlet", "--dt", "0.05", "--tol", "1e-8"]]
        runs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
        runs.append(["convert", "--V", "2*Q^2"])
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(runs)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0] * len(runs), proc.stderr
        assert result["import"] is False
        assert result["numpy"] is False
        # after the import and after every subcommand
        assert result["slow"] == [[]] * (len(runs) + 1)

    def test_overflow_messages_with_numpy_blocked(self, tmp_path):
        # an RHS call that overflows is finished in floats, never numpy
        runs = [["simulate", "--config", scenario_path(S1), "--set", "initial.f=1e308"],
                ["check", "--config", scenario_path(S3), "--set", "initial.q=1e120"]]
        runs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED_SCRIPT, json.dumps(runs)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert json.loads(proc.stdout) == [4, 4], proc.stderr
        assert proc.stderr.splitlines() == [
            "error: non-finite DP54 stage 5 state at t=0.044444444444444446",
            f"error: {_CUBE_OVERFLOW}"]
