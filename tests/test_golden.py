"""Golden outputs: sha256 of every data file the shipped runs write,
of the cost-free columns of two bench tables, and of the raw arrays of
direct integrator runs.

A speed-up that changes no arithmetic must leave these bytes alone, so
this gate fails on any change to a trajectory, report, Q-frame CSV or
gap file, and on any change to a bench row other than its ``wall_ms``
timing (dropped before hashing).  The CLI runs cover state widths 5
(physical pair) and 2 (transformed frame); the direct DP54 runs add
widths 4 (unit-mass x-rho pair) and 1, because the step controller's
error norm sums over the components and its rounding depends on their
number, and the direct RK4 runs pin that stepper at widths 1, 2 and 4
(the CLI runs it only at width 5).
The digests are pinned to the environment recorded in
``golden_digests.json`` (libm ``sin``/``exp`` may round differently
elsewhere); on another environment the test is skipped.

Regenerate after a declared output change with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import S1, S2, S3, load_scenario, scenario_path
from ermakov import dynamics, invariants, model
from ermakov.cli import main
from ermakov.expr import Func1
from ermakov.integrators import integrate_adaptive54, integrate_fixed_rk4

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

# Bare couplings, breathing mass, RK4 sampled every step: exercises the
# quadrature side of the invariant and the RK4 stepper.
BARE_RK4 = """\
[functions]
m = 1+0.1*sin(t)
omega_tilde_sq = 1

[coupling]
F = 2+exp(-u^2)
G = 1+1/(1+v^2)

[initial]
q = 1.2
q_dot = 0
f = 0.9
f_dot = 0

[integration]
method = rk4
t_end = 10
dt = 0.01
output_stride = 0.01
"""

SIMULATE_FILES = ("trajectory.csv", "report.json")
MAP_FILES = ("qframe_mapped.csv", "qframe_direct.csv", "gap.json")
BENCH_GRID = ["--methods", "rk4,adaptive54,verlet", "--dt", "0.1,0.05", "--tol", "1e-8"]


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "libm": platform.libc_ver()[0] or "unknown"}


def _runs(work: Path):
    """(name, argv, data files) of every golden run."""
    bare = work / "bare_rk4.cfg"
    bare.write_text(BARE_RK4)
    for label, cfg in (("s1", S1), ("s2", S2), ("s3", S3)):
        yield (f"simulate-{label}", ["simulate", "--config", scenario_path(cfg)],
               SIMULATE_FILES)
        yield f"map-{label}", ["map", "--config", scenario_path(cfg)], MAP_FILES
    yield "check-bare_rk4", ["check", "--config", str(bare)], SIMULATE_FILES
    for label, cfg in (("s1", S1), ("s3", S3)):
        yield (f"bench-{label}", ["bench", "--config", scenario_path(cfg)] + BENCH_GRID,
               ("bench.csv",))


def _without_wall_ms(data: bytes) -> bytes:
    """bench.csv with its wall_ms column (the 6th) removed."""
    lines = data.decode("utf-8").splitlines(keepends=True)
    return "".join(",".join(line.split(",")[:5] + line.split(",")[6:])
                   for line in lines).encode("utf-8")


def _forced_cubic(t, y):
    # y' = cos t - y^3, written with indexing so it accepts any sequence
    return np.array([math.cos(t) - y[0] * y[0] * y[0]])


def _direct_runs():
    """(name, trajectory) of DP54 runs on state widths 4 and 1 and of RK4
    runs on widths 4, 2 and 1."""
    s2 = load_scenario(S2)
    om2 = lambda t: model.omega_sq_from_mass(s2.m, s2.omega_tilde_sq, t)  # noqa: E731
    xrho = dynamics.xrho_ode(om2, model.g_from_G(s2.coupling_G),
                             model.h_from_F(s2.coupling_F))
    xrho0 = np.array(model.to_xrho(s2.initial, s2.m))
    yield "direct-xrho_s2", integrate_adaptive54(
        xrho, xrho0, s2.initial.t, 20.0, 1e-10, 0.05)
    yield "direct-forced_cubic", integrate_adaptive54(
        _forced_cubic, np.array([0.5]), 0.0, 20.0, 1e-10, 0.05)
    s3 = load_scenario(S3)
    st = s3.initial
    Q0 = [st.q / st.f, s3.m(st.t) * (st.q_dot * st.f - st.q * st.f_dot)]
    yield "direct-rk4_xrho_s2", integrate_fixed_rk4(
        xrho, xrho0, s2.initial.t, 20.0, 0.01, 0.05)
    yield "direct-rk4_qframe_s3", integrate_fixed_rk4(
        dynamics.qframe_ode_from_scenario(s3), Q0, 0.0, 20.0, 0.01, 0.05)
    yield "direct-rk4_forced_cubic", integrate_fixed_rk4(
        _forced_cubic, np.array([0.5]), 0.0, 20.0, 0.01, 0.05)


def compute_digests(work: Path) -> dict[str, str]:
    digests = {}
    for name, argv, files in _runs(work):
        out = work / name
        code = main(argv + ["--out", str(out)])
        if code != 0:
            raise AssertionError(f"{name} exited with {code}")
        for fname in files:
            data = (out / fname).read_bytes()
            if fname == "bench.csv":
                data = _without_wall_ms(data)
            digests[f"{name}/{fname}"] = hashlib.sha256(data).hexdigest()
    for name, traj in _direct_runs():
        for field in ("t", "y", "dy"):
            data = np.array(getattr(traj, field), dtype=float).tobytes()
            digests[f"{name}/{field}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_data_files_match_golden_digests(tmp_path):
    pinned = json.loads(DIGEST_FILE.read_text())
    env = _environment()
    if env != pinned["environment"]:
        pytest.skip(f"digests pinned to {pinned['environment']}, running on {env}")
    got = compute_digests(tmp_path)
    changed = sorted(k for k in pinned["digests"] if got.get(k) != pinned["digests"][k])
    assert got.keys() == pinned["digests"].keys()
    assert not changed, f"output bits changed: {changed}"


@pytest.mark.parametrize("command,cfg", [("check", S3), ("check", "bare_rk4"),
                                         ("map", S3)])
def test_benchmark_traffic_walks_no_derivative_tree(tmp_path, monkeypatch, command, cfg):
    # The benchmark's three runs inline every derivative they need into the
    # generated right-hand sides; Func1.deriv/deriv2 walk the tree (a few
    # times the cost of generated code), so a new caller on these paths
    # fails here instead of slowing a workload silently.
    calls = dict.fromkeys(("deriv", "deriv2"), 0)
    for name in calls:
        def counted(fn, x, _name=name, _method=getattr(Func1, name)):
            calls[_name] += 1
            return _method(fn, x)
        monkeypatch.setattr(Func1, name, counted)
    config = tmp_path / "bare_rk4.cfg"
    config.write_text(BARE_RK4)
    if cfg != "bare_rk4":
        config = scenario_path(cfg)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"deriv": 0, "deriv2": 0}


# (command, config, overrides, Func1.__call__ bound, quad bound); before the
# generated invariant pass these runs made 10,003 / 15,002 calls (bare, the
# benchmark's bare_dense_rk4 at seed 0), 4,005 / 0 (check S3) and 1,002 / 0
# (map S3)
TRAFFIC_BOUNDS = [
    ("check", "bare_rk4", ["--set", "integration.t_end=50"], 5, 5),
    ("check", S3, [], 5, 0),
    ("map", S3, [], 1002, 0),
]


@pytest.mark.parametrize("command,cfg,overrides,func_calls,quad_calls", TRAFFIC_BOUNDS)
def test_benchmark_traffic_calls_no_per_sample_function(tmp_path, monkeypatch, command,
                                                        cfg, overrides, func_calls,
                                                        quad_calls):
    # The invariant series is one generated pass per sample: m(t), the
    # potentials and the quadrature legs' integrand are inlined, so a
    # Func1 or quad is called only where a sample falls back to
    # the reference (the first one of a quadrature side).
    calls = {"call": 0, "quad": 0}

    def counted_call(fn, x, _call=Func1.__call__):
        calls["call"] += 1
        return _call(fn, x)

    def counted_quad(*args, _quad=invariants.quad, **kwargs):
        calls["quad"] += 1
        return _quad(*args, **kwargs)

    monkeypatch.setattr(Func1, "__call__", counted_call)
    monkeypatch.setattr(invariants, "quad", counted_quad)
    config = tmp_path / "bare_rk4.cfg"
    config.write_text(BARE_RK4)
    if cfg != "bare_rk4":
        config = scenario_path(cfg)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                 *overrides]) == 0
    assert calls["call"] <= func_calls and calls["quad"] <= quad_calls, calls


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"environment": _environment(),
                   "digests": compute_digests(Path(tmp))}
    DIGEST_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {DIGEST_FILE}", file=sys.stderr)
