"""Subcommand behavior: exit codes, file schemas, determinism."""

import json

import numpy as np
import pytest

from conftest import S1, S2, S3, scenario_path
from ermakov.cli import main
from ermakov.expr import evaluate, parse


def run(*argv) -> int:
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


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

    def test_vacuous_threshold_always_passes(self, tmp_path):
        code = run("check", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "c"),
                   "--set", "integration.method=rk4",
                   "--set", "integration.dt=0.5",
                   "--set", "integration.output_stride=0.5",
                   "--max-drift", "1e300")
        assert code == 0


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
        assert gap["max_abs_dQ"] < 1e-5
        assert gap["samples_compared"] > 900
        header, rows = read_csv(out / "qframe_mapped.csv")
        assert header == ["tau", "Q", "Q_prime"]

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
        assert run("convert", "--F", "u^2", "--h-from-F") == 0
        text = capsys.readouterr().out.strip()
        e = parse(text, "u")
        for u in (-2.0, 0.5, 3.0):
            assert evaluate(e, u) == pytest.approx(u**3, rel=1e-12)

    def test_g_from_constant(self, capsys):
        assert run("convert", "--G", "1", "--g-from-G") == 0
        e = parse(capsys.readouterr().out.strip(), "v")
        assert evaluate(e, 0.5) == 0.5

    def test_flag_validation(self, capsys):
        assert run("convert", "--F", "u^2") == 2
        assert run("convert", "--V", "Q", "--W", "s") == 2
        assert run("convert", "--h-from-F") == 2
        assert run("convert", "--V", "2*Q^") == 2  # syntax error

    def test_no_conversion_requested(self):
        assert run("convert") == 2


class TestBench:
    def test_rk4_drift_convergence(self, tmp_path):
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S1), "--out", str(out),
                   "--methods", "rk4", "--dt", "0.1,0.05,0.025",
                   "--set", "integration.t_end=20",
                   "--set", "integration.output_stride=20") == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "method,dt_or_tol,max_rel_drift,steps,wall_ms,status"
        drifts = [float(ln.split(",")[2]) for ln in lines[1:]]
        for a, b in zip(drifts, drifts[1:]):
            assert 8.0 < a / b < 32.0, drifts

    def test_empty_grid_exit_2(self, tmp_path):
        assert run("bench", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "b")) == 2
        assert run("bench", "--config", scenario_path(S1),
                   "--out", str(tmp_path / "b2"), "--methods", "rk4") == 2

    def test_verlet_row_bounded_drift(self, tmp_path):
        out = tmp_path / "b"
        assert run("bench", "--config", scenario_path(S3), "--out", str(out),
                   "--methods", "verlet", "--dt", "0.01",
                   "--set", "integration.t_end=100") == 0
        row = (out / "bench.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "verlet" and row[5] == "ok"
        assert float(row[2]) < 1e-3

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
        statuses = {ln.split(",")[0]: ln.split(",")[5] for ln in lines[1:]}
        assert statuses["rk4"] == "ok"
        assert statuses["verlet"].startswith("error")
