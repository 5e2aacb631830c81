"""Command-line entry point.

Subcommands:

    simulate   integrate a scenario, emit trajectory.csv + report.json
    check      simulate and gate on invariant drift (exit 1 on excess)
    map        physical trajectory mapped to the transformed frame vs a
               direct transformed-frame integration; emit the gap
    convert    print one coupling representation converted to another
    bench      drift/cost table over a method x (dt|tol) grid

Exit codes: 0 success, 1 drift threshold exceeded (check), 2 config
error (a plan check_plan refuses too: every plan run goes through
model.run_plan first, map's direct tau run and bench's verlet rows
included), 3 singularity abort (simulate and check still write the
partial trajectory), 4 integrator failure.  The subcommands but convert
share one load -> run -> write path (_run), which writes manifest.json
into --out once (none if --out cannot be a directory: exit 2), the
failing exit's line (exit 1's too) as "error"; main prints convert's.
_certify is the one path from a physical trajectory to its certificate:
simulate, check and the rk4/adaptive54 bench rows.  map refuses (exit 2,
manifest only) a tau span with 1 sample to compare; bench, a method
whose --dt/--tol is empty.  Data files hold no timings (the manifest and
bench's wall_ms column do), so identical inputs give bit-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from bisect import bisect_left
from itertools import islice
from pathlib import Path

from . import dynamics, integrators, invariants, model
from .errors import ConfigError, ErmakovError, ExprSyntaxError, SingularityError
from .expr import compile_func, to_source
from .model import ConfigDocument, QFrameState, Scenario

EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_INTEGRATOR = 4

TRAJECTORY_HEADER = "t,tau,q,q_dot,f,f_dot,Q,Q_prime,E_phys,E_Q"
QFRAME_HEADER = "tau,Q,Q_prime"
BENCH_HEADER = "method,dt_or_tol,max_rel_drift,max_abs_drift,steps,wall_ms,status"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _message(err: Exception) -> str:
    if isinstance(err, ErmakovError):
        return str(err)
    return f"internal failure: {type(err).__name__}: {err}"


class _DriftExceeded(ErmakovError):
    """check's failed drift gate (exit 1)."""


def _exit_code_for(err: Exception) -> int:
    if isinstance(err, _DriftExceeded):
        return EXIT_DRIFT
    if isinstance(err, (ConfigError, ExprSyntaxError)):
        return EXIT_CONFIG
    if isinstance(err, SingularityError):
        return EXIT_SINGULAR
    return EXIT_INTEGRATOR


# --- shared plumbing ---------------------------------------------------------

def _load(args) -> tuple[ConfigDocument, Scenario, list[model.IntegrationPlan]]:
    """Parse the threshold flags in place, then load and build the scenario
    and the plans it runs (model.run_plan): the config's, or one per bench
    grid point, the first being the scenario's; bench reads no config
    method, dt or tol.

    Only bench runs verlet.  check, bench and map compare samples, so
    they refuse a span that holds no whole output stride; map keeps its
    degenerate t_end == t0 run, one row per file."""
    if hasattr(args, "quad_tol"):
        args.quad_tol = model.parse_positive(args.quad_tol, "--quad-tol")
    if hasattr(args, "max_drift"):
        args.max_drift = model.parse_positive(args.max_drift, "--max-drift")
    doc = model.load_config(args.config)
    if args.set:
        doc = model.apply_overrides(doc, args.set)
    runs = _bench_grid(args) if args.command == "bench" else [()]
    scn = model.build_scenario(doc, *runs[0])
    if args.command != "bench" and scn.plan.method == "verlet":
        raise ConfigError(
            "method 'verlet' integrates the transformed frame only and cannot "
            "produce a physical trajectory; use rk4 or adaptive54 (verlet is "
            "available through the bench subcommand)")
    span, stride = scn.plan.t_end - scn.initial.t, scn.plan.output_stride
    compares = (args.command in ("check", "bench")
                or (args.command == "map" and span > 0.0))
    if compares and model.stride_count(scn.initial.t, scn.plan.t_end, stride)[0] < 1:
        raise ConfigError(f"{args.command} needs one whole output stride, but "
                          f"output_stride={stride!r} exceeds the span {span!r}")
    return doc, scn, [scn.plan] + [model.run_plan(method, scn.initial.t, scn.plan.t_end,
                                                  stride, step) for method, step in runs[1:]]


def _integrate_plan(scn: Scenario) -> integrators.Trajectory:
    """Physical-frame run of ``scn`` by its plan: rk4 at its dt or
    adaptive54 at its tol."""
    plan, st = scn.plan, scn.initial
    integrate = (integrators.integrate_fixed_rk4 if plan.method == "rk4"
                 else integrators.integrate_adaptive54)
    return integrate(dynamics.phys_ode(scn), [st.q, st.q_dot, st.f, st.f_dot, st.tau],
                     st.t, plan.t_end, plan.step, plan.output_stride)


def _scenario_echo(doc: ConfigDocument, scn: Scenario,
                   grid: list[model.IntegrationPlan] | None = None) -> dict:
    """The config and its scenario; bench names each grid point's plan."""
    run = ({"grid": [{"method": p.method, "step": p.step} for p in grid]}
           if grid else {"method": scn.plan.method})
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
            **run,
        },
    }


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record_error(manifest: dict, err: Exception) -> int:
    """Print ``err`` as the run's one stderr line and record it in the
    manifest, with the last valid state after a stepper abort, under
    ``singularity`` for a SingularityError and ``abort`` for any other;
    returns its exit code."""
    message, code = _message(err), _exit_code_for(err)
    print(message if code == EXIT_DRIFT else f"error: {message}", file=sys.stderr)
    manifest["error"] = message
    state = getattr(err, "last_state", None)
    if state is not None:
        if len(state) == 2:  # a transformed-frame run: (Q, Q') at tau
            names, time_key = ("Q", "Q_prime"), "last_tau"
        else:
            names, time_key = ("q", "q_dot", "f", "f_dot", "tau"), "last_t"
        key = "singularity" if isinstance(err, SingularityError) else "abort"
        manifest[key] = {"message": str(err), time_key: err.last_t,
                         "last_state": dict(zip(names, map(float, state)))}
    return code


def _run(args) -> int:
    """The one path of simulate, check, map and bench: load the scenario
    (and the bench grid), echo it into the manifest, run the subcommand's
    body, and write manifest.json once, whatever the outcome."""
    out_dir = Path(args.out)
    try:  # nowhere to write the manifest: main prints the line
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out {args.out!r} cannot be a directory: {err.strerror}")
    t_start = time.perf_counter()
    manifest = {"command": args.command, "config_path": args.config,
                "overrides": list(args.set or []), "outputs": {}}
    try:
        doc, scn, plans = _load(args)
        extra = (plans,) if args.command == "bench" else ()
        manifest.update(_scenario_echo(doc, scn, *extra), config_text=doc.text)
        code = args.body(args, scn, out_dir, manifest, *extra)
    except Exception as err:  # noqa: BLE001 -- recorded, as in main
        code = _record_error(manifest, err)
    manifest["exit_status"] = code
    manifest["wall_ms"] = (time.perf_counter() - t_start) * 1e3
    _write_json(out_dir / "manifest.json", manifest)
    return code


def _qframe_rows(traj: integrators.Trajectory, scn: Scenario):
    """(tau, Q, Q') of each sample of a physical trajectory."""
    for t, (q, q_dot, f, f_dot, tau) in zip(traj.t, traj.y):
        yield (tau, *model.to_qframe(scn.m(t), q, q_dot, f, f_dot))


def _write_rows(path: Path, header: str, rows) -> None:
    """``header``, then one line per row of floats at %.17g (as _fmt)."""
    row_fmt = ",".join(["%.17g"] * len(header.split(","))) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row_fmt % row)


def _certify(traj: integrators.Trajectory, scn: Scenario, args
             ) -> tuple[list, dict, ErmakovError | None]:
    """Each sample's (Q, Q', E_phys, E_Q), the report.json payload, and
    the failure: None, the invariant's error, or check's drift gate."""
    rows: list = []
    try:
        e_phys, e_q, meta, _ = invariants.invariant_series(traj, scn, args.quad_tol, rows)
        report = invariants.report_from_series(e_phys, e_q)
    except ErmakovError as err:
        # the invariant failed at a sample (near a singularity, say), or only
        # its summary is not finite: the samples before keep their rows, and
        # from that sample on (Q, Q') stand beside NaN energies
        rows.extend((Q, Q_prime, math.nan, math.nan) for _tau, Q, Q_prime in
                    islice(_qframe_rows(traj, scn), len(rows), None))
        return rows, {"error": str(err)}, err
    failure = None
    if args.command == "check":
        name, drift = report.gated_drift()
        if drift > args.max_drift:
            failure = _DriftExceeded(f"drift check failed: {name} = {drift:.3e} "
                                     f"> {args.max_drift:.3e}")
    return rows, {**report._asdict(), "convention": meta}, failure


# --- subcommand bodies -------------------------------------------------------
# body(args, scn, out_dir, manifest[, grid]) -> exit code; an exception
# it raises is recorded by _run.

def _simulate(args, scn: Scenario, out_dir: Path, manifest: dict) -> int:
    """simulate and check: integrate, certify, then write trajectory.csv
    and report.json, from the partial trajectory too when a run aborts
    (the report then says ``"partial": true``)."""
    code = EXIT_OK
    try:
        traj = _integrate_plan(scn)
    except ErmakovError as err:
        traj = err.partial
        if traj is None:
            raise
        code = _record_error(manifest, err)
    rows, payload, failure = _certify(traj, scn, args)
    if code != EXIT_OK:
        payload["partial"] = True
    elif failure is not None:
        code = _record_error(manifest, failure)

    traj_path = out_dir / "trajectory.csv"
    _write_rows(traj_path, TRAJECTORY_HEADER, (
        (t, tau, q, q_dot, f, f_dot, *row)
        for t, (q, q_dot, f, f_dot, tau), row in zip(traj.t, traj.y, rows)))
    report_path = out_dir / "report.json"
    _write_json(report_path, payload)
    manifest["outputs"] = {"trajectory": str(traj_path), "report": str(report_path)}
    manifest["metadata"] = {"method": traj.method, "step_count": traj.step_count,
                            "rejected_steps": traj.rejected_steps}
    return code


def _map(args, scn: Scenario, out_dir: Path, manifest: dict) -> int:
    mapped = list(_qframe_rows(_integrate_plan(scn), scn))
    (tau0, *y0), tau_end = mapped[0], mapped[-1][0]
    stride = scn.plan.output_stride
    end = tau0 + model.stride_count(tau0, tau_end, stride)[0] * stride
    compared = [row for row in mapped if row[0] <= end]
    if len(mapped) > 1 and len(compared) < 2:
        raise ConfigError(f"map needs at least 2 samples, but only 1 lies in the whole "
                          f"output strides ({stride!r}) of the tau span {tau_end - tau0!r}")
    # the direct run's plan, refused before any data file is written
    plan = model.run_plan("adaptive54", tau0, end, stride,
                          scn.plan.step if scn.plan.method == "adaptive54" else 1e-10)
    mapped_path = out_dir / "qframe_mapped.csv"
    _write_rows(mapped_path, QFRAME_HEADER, mapped)

    # direct transformed-frame run over the span's whole tau strides: its
    # stride rows, and its DP54 dense output at the mapped taus for the gap
    direct = integrators.integrate_adaptive54(
        dynamics.qframe_ode_from_scenario(scn), y0, tau0, plan.t_end, plan.step, stride,
        [tau for tau, _, _ in compared])
    direct_path = out_dir / "qframe_direct.csv"
    _write_rows(direct_path, QFRAME_HEADER,
                ((t, *direct.y[bisect_left(direct.t, t)])
                 for t in model.sample_times(tau0, end, stride)))
    gap = max(abs(direct.y[bisect_left(direct.t, tau)][0] - Q) for tau, Q, _ in compared)
    gap_path = out_dir / "gap.json"
    _write_json(gap_path, {"max_abs_dQ": gap, "samples_compared": len(compared),
                           "tau_end": tau_end})

    manifest["outputs"] = {"qframe_mapped": str(mapped_path),
                           "qframe_direct": str(direct_path),
                           "gap": str(gap_path)}
    return EXIT_OK


def _bench_grid(args) -> list[tuple[str, float]]:
    """The (method, step) of each bench grid point, from the flags."""
    def steps(raw, flag):
        return [model.parse_positive(v, flag) for v in (raw or "").split(",") if v.strip()]
    methods = [m.strip() for m in (args.methods or "").split(",") if m.strip()]
    dts, tols = steps(args.dt, "--dt"), steps(args.tol, "--tol")
    for method in methods:
        if method not in model.METHODS:
            raise ConfigError(f"unknown method {method!r} in --methods")
    grid = [(method, step) for method in methods
            for step in (tols if method == "adaptive54" else dts)]
    if not grid:
        raise ConfigError("empty bench grid: give --methods plus --dt and/or --tol")
    for method in methods:
        if method not in dict(grid):  # a listed method would run no row
            flag = "--tol" if method == "adaptive54" else "--dt"
            raise ConfigError(f"bench method {method!r} needs {flag}")
    return grid


def _bench_row(scn: Scenario, args) -> tuple[str, str, str]:
    """One bench run of scn's plan: its drift and steps cells."""
    if scn.plan.method != "verlet":
        traj = _integrate_plan(scn)
        _rows, drift, failure = _certify(traj, scn, args)
        if failure is not None:
            raise failure
    else:  # the transformed frame, tau over the plan's [t0, t_end]
        V, W = dynamics.frame_potentials(scn)
        st = scn.initial
        start = QFrameState(st.t, *model.to_qframe(scn.m(st.t), st.q, st.q_dot,
                                                   st.f, st.f_dot))
        traj = integrators.integrate_verlet_Q(V, W, start, scn.plan.step,
                                              scn.plan.t_end, scn.plan.output_stride)
        e = [invariants.energy_Q(QFrameState(tau=t, Q=y[0], Q_prime=y[1]), V, W)
             for t, y in zip(traj.t, traj.y)]
        drift = invariants.report_from_series(e, e)._asdict()
    return _fmt(drift["max_rel_drift"]), _fmt(drift["max_abs_drift"]), str(traj.step_count)


def _bench(args, scn: Scenario, out_dir: Path, manifest: dict,
           grid: list[model.IntegrationPlan]) -> int:
    rows, failures = [], []
    for plan in grid:
        row_start = time.perf_counter()
        try:
            cells, status = _bench_row(scn._replace(plan=plan), args), "ok"
        except ErmakovError as err:
            cells, status = ("", "", ""), f"error: {type(err).__name__}"
            failures.append(f"bench row {plan.method} {plan.step}: {err}")
            print(failures[-1], file=sys.stderr)
        wall = (time.perf_counter() - row_start) * 1e3
        rows.append(",".join((plan.method, _fmt(plan.step), *cells, f"{wall:.3f}", status)))
    if failures:
        manifest["error"] = "; ".join(failures)

    # written after the loop, so an internal failure leaves no table
    bench_path = out_dir / "bench.csv"
    with open(bench_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([BENCH_HEADER, *rows]) + "\n")
    manifest["outputs"] = {"bench": str(bench_path)}
    return EXIT_INTEGRATOR if len(failures) == len(grid) else EXIT_OK


def cmd_convert(args) -> int:
    requested = [key for key in model.COUPLING_VARS if getattr(args, key) is not None]
    if len(requested) != 1:
        raise ConfigError("give exactly one of "
                          + ", ".join(f"--{key}" for key in model.COUPLING_VARS))
    key = requested[0]
    convert = {"V": model.F_from_V, "W": model.G_from_W,
               "F": model.h_from_F, "G": model.g_from_G}[key]
    out = convert(compile_func(getattr(args, key), model.COUPLING_VARS[key]))
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
    p.add_argument("--F", help="coupling F(u); prints h(u) = u F(u)")
    p.add_argument("--G", help="coupling G(v); prints g(v) = v G(v)")
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
        print(f"error: {_message(err)}", file=sys.stderr)
        return _exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
