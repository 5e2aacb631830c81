"""Command-line entry point.

Subcommands:

    simulate   integrate a scenario, emit trajectory.csv + report.json
    check      simulate and gate on invariant drift (exit 1 on excess)
    map        physical trajectory mapped to the transformed frame vs a
               direct transformed-frame integration; emit the gap
    convert    print one coupling representation converted to another
    bench      drift/cost table over a method x (dt|tol) grid

Exit codes: 0 success, 1 drift threshold exceeded (check), 2 config
error, 3 singularity abort (simulate and check still write the partial
trajectory), 4 integrator failure.  simulate, check, map and bench share
one load -> run -> write path (_run), which writes manifest.json once.
Simulation data files never contain timestamps or timings, so identical
inputs give bit-identical output; run timing lives in the manifest (and,
for bench, in the per-row wall_ms cost column).

The environment variable ERMAKOV_SEED is reserved for future use; the
core is randomness-free and does not read it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import dynamics, integrators, invariants, model
from .errors import ConfigError, ErmakovError, ExprSyntaxError, SingularityError
from .expr import compile_func, is_zero, to_source
from .model import ConfigDocument, QFrameState, Scenario

EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_INTEGRATOR = 4

TRAJECTORY_HEADER = "t,tau,q,q_dot,f,f_dot,Q,Q_prime,E_phys,E_Q"
QFRAME_HEADER = "tau,Q,Q_prime"
BENCH_HEADER = "method,dt_or_tol,max_rel_drift,steps,wall_ms,status"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _exit_code_for(err: ErmakovError) -> int:
    if isinstance(err, (ConfigError, ExprSyntaxError)):
        return EXIT_CONFIG
    if isinstance(err, SingularityError):
        return EXIT_SINGULAR
    return EXIT_INTEGRATOR


# --- shared plumbing ---------------------------------------------------------

def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")


def _threshold(raw: str, name: str) -> float:
    """The finite positive number a threshold flag's text ``raw`` names."""
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{name} = {raw!r} is not a number") from None
    _require_positive(name, value)
    return value


def _load(args) -> tuple[ConfigDocument, Scenario]:
    """Parse the threshold flags in place, then load and build the scenario.

    check, bench and map compare samples, so they refuse a stride that
    leaves fewer than 2 (a drift over one sample says nothing); map keeps
    its degenerate t_end == t0 run, one row per file."""
    if hasattr(args, "quad_tol"):
        args.quad_tol = _threshold(args.quad_tol, "--quad-tol")
    if hasattr(args, "max_drift"):
        args.max_drift = _threshold(args.max_drift, "--max-drift")
    doc = model.load_config(args.config)
    if args.set:
        doc = model.apply_overrides(doc, args.set)
    scn = model.build_scenario(doc)
    span, stride = scn.plan.t_end - scn.initial.t, scn.plan.output_stride
    compares = (args.command in ("check", "bench")
                or (args.command == "map" and span > 0.0))
    if compares and model.stride_count(span, stride) + 1 < 2:
        raise ConfigError(f"{args.command} needs at least 2 samples, but "
                          f"output_stride={stride!r} exceeds the span {span!r}")
    return doc, scn


def _integrate_phys(scn: Scenario, method: str, step: float) -> integrators.Trajectory:
    """Physical-frame run of ``scn`` by ``method`` at ``step`` (dt for rk4,
    tol for adaptive54)."""
    plan = scn.plan
    st = scn.initial
    y0 = [st.q, st.q_dot, st.f, st.f_dot, st.tau]
    rhs = dynamics.phys_ode(scn)
    if method == "rk4":
        return integrators.integrate_fixed_rk4(rhs, y0, st.t, plan.t_end,
                                               step, plan.output_stride)
    if method == "adaptive54":
        return integrators.integrate_adaptive54(rhs, y0, st.t, plan.t_end,
                                                step, plan.output_stride)
    raise ConfigError(
        "method 'verlet' integrates the transformed frame only and cannot "
        "produce a physical trajectory; use rk4 or adaptive54 (verlet is "
        "available through the bench subcommand)")


def _integrate_plan(scn: Scenario) -> integrators.Trajectory:
    plan = scn.plan
    # a plan sets dt (rk4, verlet) or tol (adaptive54), never both
    return _integrate_phys(scn, plan.method, plan.tol if plan.dt is None else plan.dt)


def _scenario_echo(doc: ConfigDocument, scn: Scenario) -> dict:
    return {
        "config": {sec: dict(kv) for sec, kv in doc.sections.items()},
        "resolved": {
            "m": scn.m.source,
            "omega_tilde_sq": scn.omega_tilde_sq.source,
            "F": scn.coupling_F.source,
            "G": scn.coupling_G.source,
            "V": scn.potential_V.source if scn.potential_V else None,
            "W": scn.potential_W.source if scn.potential_W else None,
            "t0": scn.initial.t,
            "method": scn.plan.method,
        },
    }


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, payload: dict, t_start: float) -> None:
    _write_json(out_dir / "manifest.json",
                {**payload, "wall_ms": (time.perf_counter() - t_start) * 1e3})


def _singularity_info(err: ErmakovError) -> dict | None:
    last_state = getattr(err, "last_state", None)
    if last_state is None:
        return {"message": str(err)}
    names = ("q", "q_dot", "f", "f_dot", "tau")[: len(last_state)]
    return {
        "message": str(err),
        "last_t": getattr(err, "last_t", None),
        "last_state": dict(zip(names, map(float, last_state))),
    }


def _record_error(manifest: dict, err: ErmakovError, singularity: bool = True) -> int:
    """Print ``err`` as the run's one stderr line and record it in the
    manifest (with the abort details once a scenario was loaded); returns
    its exit code."""
    print(f"error: {err}", file=sys.stderr)
    manifest["error"] = str(err)
    if singularity:
        manifest["singularity"] = _singularity_info(err)
    return _exit_code_for(err)


def _run(args) -> int:
    """The one path of simulate, check, map and bench: load the scenario
    (and the bench grid), echo it into the manifest, run the subcommand's
    body, and write manifest.json once, whatever the outcome."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    manifest = {"command": args.command, "config_path": args.config,
                "overrides": list(args.set or []), "outputs": {}}
    try:
        doc, scn = _load(args)
        extra = (_bench_grid(args, scn),) if args.command == "bench" else ()
    except ErmakovError as err:
        code = _record_error(manifest, err, singularity=False)
    else:
        manifest.update(_scenario_echo(doc, scn), config_text=doc.text)
        try:
            code = args.body(args, scn, out_dir, manifest, *extra)
        except ErmakovError as err:
            code = _record_error(manifest, err)
    manifest["exit_status"] = code
    _write_manifest(out_dir, manifest, t_start)
    return code


def _energy_columns(traj, scn, tol):
    """Invariant series, or NaN columns and the error if evaluation fails
    (possible on a partial trajectory that stopped close to a singularity)."""
    try:
        e_phys, e_q, meta = invariants.invariant_series(traj, scn, tol)
        return e_phys, e_q, meta, None
    except ErmakovError as err:
        nan = [math.nan] * len(traj)
        return nan, nan, None, err


def _write_rows(path: Path, header: str, rows) -> None:
    """``header``, then one line per row of floats at %.17g (as _fmt)."""
    row_fmt = ",".join(["%.17g"] * len(header.split(","))) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row_fmt % row)


def _report_payload(report: invariants.InvariantReport | None, meta: dict | None,
                    error: ErmakovError | None) -> dict:
    if report is None:
        return {"error": str(error)}
    payload = {
        "e0": report.e0,
        "max_abs_drift": report.max_abs_drift,
        "max_rel_drift": report.max_rel_drift,
        "samples": report.samples,
        "frame_gap": report.frame_gap,
    }
    if meta:
        payload["convention"] = meta
    return payload


# --- subcommand bodies -------------------------------------------------------
# body(args, scn, out_dir, manifest[, grid]) -> exit code; an ErmakovError
# it raises is recorded by _run.

def _simulate(args, scn: Scenario, out_dir: Path, manifest: dict) -> int:
    """simulate and check: integrate, then write trajectory.csv and
    report.json, from the partial trajectory too when a run aborts; check
    then gates on the invariant drift."""
    code = EXIT_OK
    try:
        traj = _integrate_plan(scn)
    except ErmakovError as err:
        traj = getattr(err, "partial", None)
        if traj is None:
            raise
        code = _record_error(manifest, err)

    e_phys, e_q, meta, series_err = _energy_columns(traj, scn, args.quad_tol)
    report = None
    if series_err is None:
        report = invariants.report_from_series(e_phys, e_q)
    elif code == EXIT_OK:
        # a complete trajectory whose invariant cannot be evaluated
        code = _record_error(manifest, series_err, singularity=False)

    traj_path = out_dir / "trajectory.csv"
    _write_rows(traj_path, TRAJECTORY_HEADER, (
        (t, tau, q, q_dot, f, f_dot, *model.to_qframe(scn.m(t), q, q_dot, f, f_dot),
         ep, eq) for t, (q, q_dot, f, f_dot, tau), ep, eq
        in zip(traj.t, traj.y, e_phys, e_q)))
    report_path = out_dir / "report.json"
    _write_json(report_path, _report_payload(report, meta, series_err))
    manifest["outputs"] = {"trajectory": str(traj_path), "report": str(report_path)}
    manifest["metadata"] = {"method": traj.method, "step_count": traj.step_count,
                            "rejected_steps": traj.rejected_steps}
    if code == EXIT_OK and args.command == "check":
        name, drift = report.gated_drift()
        if drift > args.max_drift:
            print(f"drift check failed: {name} = {drift:.3e} "
                  f"> {args.max_drift:.3e}", file=sys.stderr)
            code = EXIT_DRIFT
    return code


def _map(args, scn: Scenario, out_dir: Path, manifest: dict) -> int:
    traj = _integrate_plan(scn)
    mapped = [(tau, *model.to_qframe(scn.m(t), q, q_dot, f, f_dot))
              for t, (q, q_dot, f, f_dot, tau) in zip(traj.t, traj.y)]
    mapped_path = out_dir / "qframe_mapped.csv"
    _write_rows(mapped_path, QFRAME_HEADER, mapped)

    # direct transformed-frame run over the same tau span
    tau0, Q0, Q_prime0 = mapped[0]
    tau_end = mapped[-1][0]
    tol = scn.plan.tol if scn.plan.tol is not None else 1e-10
    direct = integrators.integrate_adaptive54(
        dynamics.qframe_ode_from_scenario(scn), [Q0, Q_prime0], tau0, tau_end,
        tol, scn.plan.output_stride)
    direct_path = out_dir / "qframe_direct.csv"
    _write_rows(direct_path, QFRAME_HEADER,
                ((t, Q, Qp) for t, (Q, Qp) in zip(direct.t, direct.y)))

    gap = 0.0
    compared = 0
    for tau, Q, _ in mapped:
        if tau > direct.t[-1]:
            break
        Qd = integrators.interpolate(direct, tau)[0]
        gap = max(gap, abs(Qd - Q))
        compared += 1
    gap_path = out_dir / "gap.json"
    _write_json(gap_path, {"max_abs_dQ": gap, "samples_compared": compared,
                           "tau_end": tau_end})

    manifest["outputs"] = {"qframe_mapped": str(mapped_path),
                           "qframe_direct": str(direct_path),
                           "gap": str(gap_path)}
    return EXIT_OK


def _bench_values(raw: str | None, name: str) -> list[float]:
    """The comma-separated finite positive numbers of a bench flag."""
    values = [model.parse_float(v, name) for v in (raw or "").split(",") if v.strip()]
    for v in values:
        _require_positive(name, v)
    return values


def _bench_grid(args, scn: Scenario) -> list[tuple[str, float]]:
    methods = [m.strip() for m in (args.methods or "").split(",") if m.strip()]
    dts = _bench_values(args.dt, "--dt")
    tols = _bench_values(args.tol, "--tol")
    grid: list[tuple[str, float]] = []
    for method in methods:
        if method not in model.METHODS:
            raise ConfigError(f"unknown method {method!r} in --methods")
        values = tols if method == "adaptive54" else dts
        grid.extend((method, v) for v in values)
    if not grid:
        raise ConfigError("empty bench grid: give --methods plus --dt and/or --tol")
    for method, value in grid:
        if method != "adaptive54":
            model.check_grid_size(scn.plan.t_end - scn.initial.t,
                                  scn.plan.output_stride, value)
    return grid


def _bench_row(scn: Scenario, method: str, step: float, quad_tol: float) -> tuple[float, int]:
    """One bench run; returns (max_rel_drift, steps)."""
    if method != "verlet":
        traj = _integrate_phys(scn, method, step)
        report = invariants.drift_report(traj, scn, quad_tol)
        return report.max_rel_drift, traj.step_count

    # the transformed frame over the physical run's span in tau; its energy
    # is exact only when every nonzero coupling comes with its potential
    V, W = scn.potential_V, scn.potential_W
    if ((V is None and not is_zero(scn.coupling_F.expr))
            or (W is None and not is_zero(scn.coupling_G.expr))):
        raise ConfigError("verlet bench rows need the potential (V, W) of every "
                          "nonzero coupling to evaluate the transformed-frame energy")
    st = scn.initial
    start = QFrameState(0.0, *model.to_qframe(scn.m(st.t), st.q, st.q_dot,
                                              st.f, st.f_dot))
    traj = integrators.integrate_verlet_Q(V, W, start, step, scn.plan.t_end - st.t,
                                          scn.plan.output_stride)
    e = [invariants.energy_Q(QFrameState(tau=t, Q=y[0], Q_prime=y[1]), V, W)
         for t, y in zip(traj.t, traj.y)]
    return invariants.report_from_series(e, e).max_rel_drift, traj.step_count


def _bench(args, scn: Scenario, out_dir: Path, manifest: dict,
           grid: list[tuple[str, float]]) -> int:
    rows = []
    ok_count = 0
    for method, value in grid:
        row_start = time.perf_counter()
        try:
            drift, steps = _bench_row(scn, method, value, args.quad_tol)
            wall = (time.perf_counter() - row_start) * 1e3
            rows.append((method, value, _fmt(drift), str(steps), f"{wall:.3f}", "ok"))
            ok_count += 1
        except ErmakovError as err:
            wall = (time.perf_counter() - row_start) * 1e3
            rows.append((method, value, "", "", f"{wall:.3f}",
                         f"error: {type(err).__name__}"))
            print(f"bench row {method} {value}: {err}", file=sys.stderr)

    bench_path = out_dir / "bench.csv"
    with open(bench_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(BENCH_HEADER + "\n")
        for method, value, drift, steps, wall, status in rows:
            fh.write(f"{method},{_fmt(value)},{drift},{steps},{wall},{status}\n")
    manifest["outputs"] = {"bench": str(bench_path)}
    return EXIT_OK if ok_count > 0 else EXIT_INTEGRATOR


def cmd_convert(args) -> int:
    requested = [key for key in model.COUPLING_VARS if getattr(args, key) is not None]
    if len(requested) != 1:
        print("error: give exactly one of "
              + ", ".join(f"--{key}" for key in model.COUPLING_VARS), file=sys.stderr)
        return EXIT_CONFIG
    if (args.F is not None) != args.h_from_F:
        print("error: --F and --h-from-F go together", file=sys.stderr)
        return EXIT_CONFIG
    if (args.G is not None) != args.g_from_G:
        print("error: --G and --g-from-G go together", file=sys.stderr)
        return EXIT_CONFIG
    key = requested[0]
    convert = {"V": model.F_from_V, "W": model.G_from_W,
               "F": model.h_from_F, "G": model.g_from_G}[key]
    try:
        out = convert(compile_func(getattr(args, key), model.COUPLING_VARS[key]))
    except ErmakovError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(to_source(out.expr))
    return EXIT_OK


# --- parser ------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--config", required=True, help="scenario config file")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                     help="override a config value (repeatable)")


def _add_quad_tol(sub) -> None:
    # a string, parsed by _load, so a malformed value is a config error
    sub.add_argument("--quad-tol", default="1e-10",
                     help="quadrature tolerance for invariant evaluation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ermakov",
        description="Integrate coupled parametric-oscillator pairs and "
                    "certify their conserved invariant.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="integrate and write trajectory + report")
    _add_common(p)
    _add_quad_tol(p)
    p.set_defaults(func=_run, body=_simulate)

    p = subs.add_parser("check", help="simulate and gate on invariant drift")
    _add_common(p)
    _add_quad_tol(p)
    p.add_argument("--max-drift", default="1e-6",
                   help="maximum tolerated relative drift, or absolute drift "
                        "where |e0| < 1e-12 (default 1e-6)")
    p.set_defaults(func=_run, body=_simulate)

    p = subs.add_parser("map", help="compare mapped vs direct transformed-frame runs")
    _add_common(p)
    p.set_defaults(func=_run, body=_map)

    p = subs.add_parser("convert", help="convert coupling representations")
    p.add_argument("--V", help="potential V(Q); prints F(u) = V'(u)/u")
    p.add_argument("--W", help="potential W(s); prints G(v) = W'(v)/v")
    p.add_argument("--F", help="coupling F(u); use with --h-from-F")
    p.add_argument("--G", help="coupling G(v); use with --g-from-G")
    p.add_argument("--h-from-F", action="store_true", dest="h_from_F",
                   help="print h(u) = u F(u)")
    p.add_argument("--g-from-G", action="store_true", dest="g_from_G",
                   help="print g(v) = v G(v)")
    p.set_defaults(func=cmd_convert)

    p = subs.add_parser("bench", help="drift/cost table over a method grid")
    _add_common(p)
    _add_quad_tol(p)
    p.add_argument("--methods", help="comma-separated: rk4,adaptive54,verlet")
    p.add_argument("--dt", help="comma-separated dt values for fixed-step methods")
    p.add_argument("--tol", help="comma-separated tolerances for adaptive54")
    p.set_defaults(func=_run, body=_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 -- one line, never a traceback
        print(f"error: internal failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return EXIT_INTEGRATOR


if __name__ == "__main__":
    sys.exit(main())
