"""ermakov benchmark: certified CLI workloads, timed end to end, with a
separately traced per-layer split.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from ``src``).
One client in a closed loop: ``ermakov.cli.main(argv)`` invocations run
back to back in this process, each on the same generated config, until
``--seconds`` have passed (at least three).  Fresh interpreters, started
one at a time, measure set-up and peak memory.  Every invocation's
outputs are checked (``checker.py``).

End-to-end times are in calibrated seconds (``calibration.py``): the
call's wall time is scaled by the calibration kernel's time in the same
process, measured before and after each warm invocation and right after
each fresh interpreter's set-up.  Raw wall-clock medians and quartiles
go into the detailed record.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A detailed
record (environment, quartiles, output hashes, trace counters) is
written to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from calibration import calibrated, calibration_kernel
from checker import Outcome, check_outputs
from tracer import Tracer, replay_us
from workloads import WORKLOADS, render_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPS = 5        # fresh interpreters per set-up median
MIN_REPS = 3          # timed invocations per loop, whatever --seconds says
REPLAY_REPS = 3       # untraced replays per per-call median
CHILD_TIMEOUT_S = 120
PARTITION_TOL_S = 1e-6
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "result_digits": "digits",
    "certified_frac": "frac",
}
PER_LAYER_UNITS = {
    "model.build_s": "s",
    "model.self_s": "s",
    "cli.import_s": "s",
    "expr.evals": "count",
    "expr.self_s": "s",
    "expr.us_per_eval": "us",
    "dynamics.rhs_calls": "count",
    "dynamics.self_s": "s",
    "dynamics.us_per_call": "us",
    "integrators.steps": "count",
    "integrators.rejected": "count",
    "integrators.self_s": "s",
    "integrators.us_per_step": "us",
    "integrators.interp_calls": "count",
    "integrators.interp_s": "s",
    "invariants.self_s": "s",
    "invariants.quad_calls": "count",
    "invariants.quad_s": "s",
    "invariants.integrand_evals": "count",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "cli.us_per_row": "us",
    "trace.overhead_s": "s",
}


def spread(values: list[float]) -> dict:
    """Median with quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Clock:
    """Sandwiches timed calls between calibration-kernel runs."""

    def __init__(self):
        calibration_kernel()
        self.last_cal = calibration_kernel()
        self.cals = [self.last_cal]

    def calibrate(self, wall: float) -> float:
        """Calibrated seconds of a call of ``wall`` seconds that ended
        just now; runs the kernel once more."""
        before = self.last_cal
        self.last_cal = calibration_kernel()
        self.cals.append(self.last_cal)
        return calibrated(wall, 0.5 * (before + self.last_cal))


# --- program under test -------------------------------------------------------

def run_child(*args: str) -> dict:
    """One fresh interpreter running child.py; returns its JSON result.
    The child inherits the BLAS pins set by ``import_program``."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def import_program() -> SimpleNamespace:
    os.environ.update({var: "1" for var in BLAS_VARS})
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy
    from ermakov import cli, dynamics, expr, integrators, invariants, model
    return SimpleNamespace(cli=cli, model=model, expr=expr, dynamics=dynamics,
                           integrators=integrators, invariants=invariants,
                           numpy=numpy)


class Session:
    """One workload on one seed: generated input, invocations, verdicts."""

    def __init__(self, workload: str, seed: int, t_end: float | None = None):
        self.wl = WORKLOADS[workload]
        self.work = OUT / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_text = render_config(workload, seed, t_end)
        self.config = self.work / "input.cfg"
        self.config.write_text(self.config_text, encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None  # first certified hashes
        self.result_error: float | None = None
        self.clock = Clock()

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.wl.command, "--config", str(self.config), "--out", str(out_dir)]
        if self.wl.command == "check":
            argv += ["--max-drift", repr(self.wl.accuracy_bound)]
        return argv

    def judge(self, out_dir: Path, exit_code) -> Outcome:
        outcome = check_outputs(self.wl, out_dir, self.config_text, exit_code,
                                self.reference)
        self.attempted += 1
        if outcome.ok:
            if self.reference is None:
                self.reference = outcome.hashes
                self.result_error = outcome.result_error
        else:
            self.failed += 1
            self.problems.extend(outcome.problems[:3])
        return outcome

    def invoke(self, cli) -> tuple[float, float, Outcome]:
        """One warm cli.main invocation; returns (wall seconds, calibrated
        seconds, outcome)."""
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.argv(out_dir)
        gc.collect()
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a benchmark abort
            traceback.print_exc()
            code = None
        wall = perf_counter() - start
        return wall, self.clock.calibrate(wall), self.judge(out_dir, code)

    def loop(self, cli, seconds: float) -> tuple[list[float], list[float]]:
        """Invocations for ``seconds``; returns (wall, calibrated) times."""
        walls, calibrated = [], []
        deadline = perf_counter() + seconds
        while len(walls) < MIN_REPS or perf_counter() < deadline:
            wall, cal, _ = self.invoke(cli)
            walls.append(wall)
            calibrated.append(cal)
        return walls, calibrated

    def fresh_setups(self) -> list[dict]:
        """Set-up timings of fresh interpreters, each with its calibrated
        total under "setup_s"."""
        run_child("setup", str(self.config))  # fills the bytecode cache
        setups = [run_child("setup", str(self.config)) for _ in range(SETUP_REPS)]
        for res in setups:
            res["setup_s"] = calibrated(res["import_s"] + res["build_s"], res["cal_s"])
        return setups

    def fresh_peak_rss_mb(self) -> float:
        out_dir = self.work / "rss"
        res = run_child("run", *self.argv(out_dir))
        self.judge(out_dir, res["exit"])
        return res["peak_rss_mb"]


# --- the two kinds of run -----------------------------------------------------

def end_to_end(session: Session, prog, seconds: float) -> tuple[dict, dict]:
    setups = session.fresh_setups()
    peak_rss = session.fresh_peak_rss_mb()
    session.invoke(prog.cli)  # warm-up, checked and counted
    walls, run_s = session.loop(prog.cli, seconds)
    setup_s = [s["setup_s"] for s in setups]
    err = session.result_error
    metrics = {
        "run_s": median(run_s),
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss,
        "result_digits": -math.log10(err) if err else 0.0,
        "certified_frac": (session.attempted - session.failed) / session.attempted,
    }
    detail = {"run_s": spread(run_s), "setup_s": spread(setup_s),
              "run_wall_s": spread(walls),
              "setup_wall_s": spread([s["import_s"] + s["build_s"] for s in setups]),
              "calibration_kernel_s": spread(session.clock.cals),
              "result_error": err}
    return metrics, detail


def _counter_checks(tracer: Tracer) -> list[str]:
    """Consistency of the traced counters for one invocation."""
    problems = []
    if tracer.orphans or tracer.stack:
        problems.append(f"trace: {tracer.orphans} spans outside the root, "
                        f"{len(tracer.stack)} left open")
    if tracer.partition_error() > PARTITION_TOL_S:
        problems.append(f"trace: layer self times miss the root by "
                        f"{tracer.partition_error():.3e} s")
    for run in tracer.integrations:
        if run.method == "rk4":
            want = 4 * run.steps + run.samples
            if run.rhs_calls != want:
                problems.append(f"trace: rk4 rhs_calls {run.rhs_calls} != "
                                f"4*steps + samples = {want}")
        elif run.method == "adaptive54":
            low = 1 + 6 * (run.steps + run.rejected)
            if not low <= run.rhs_calls <= low + run.samples:
                problems.append(f"trace: adaptive54 rhs_calls {run.rhs_calls} "
                                f"outside [{low}, {low + run.samples}]")
    return problems


def _counts(tracer: Tracer) -> dict:
    return {"calls": dict(tracer.calls), "rhs_calls": tracer.rhs_calls,
            "integrand_evals": tracer.integrand_evals,
            "integrations": [vars(i) for i in tracer.integrations]}


def per_layer(session: Session, prog, seconds: float) -> tuple[dict, dict]:
    setups = session.fresh_setups()
    session.invoke(prog.cli)  # warm-up, checked and counted
    walls, _ = session.loop(prog.cli, seconds / 2)

    tracer = Tracer(prog)
    with tracer.installed():
        tracer.record = True
        _, _, outcome = session.invoke(prog.cli)
        tracer.record = False
    counts = _counts(tracer)
    problems = _counter_checks(tracer)
    expr_args, rhs_args = tracer.expr_args, tracer.rhs_args
    steps = sum(i.steps for i in tracer.integrations)
    attempts = steps + sum(i.rejected for i in tracer.integrations)
    rows = outcome.rows

    samples = []
    deadline = perf_counter() + seconds / 2
    with tracer.installed():
        while len(samples) < MIN_REPS or perf_counter() < deadline:
            tracer.reset()
            session.invoke(prog.cli)
            problems += _counter_checks(tracer)
            if _counts(tracer) != counts:
                problems.append("trace: counters differ between repeats")
            samples.append(tracer.layer_times())
    layer = {k: median(s[k] for s in samples) for k in samples[0]}

    expr_us = median(replay_us(expr_args) for _ in range(REPLAY_REPS))
    rhs_us = median(replay_us(rhs_args) for _ in range(REPLAY_REPS))
    calls = counts["calls"]
    metrics = {
        "model.build_s": median(s["build_s"] for s in setups),
        "model.self_s": layer["model.self_s"],
        "cli.import_s": median(s["import_s"] for s in setups),
        "expr.evals": calls.get("expr", 0),
        "expr.self_s": layer["expr.self_s"],
        "expr.us_per_eval": expr_us,
        "dynamics.rhs_calls": counts["rhs_calls"],
        "dynamics.self_s": layer["dynamics.self_s"],
        "dynamics.us_per_call": rhs_us,
        "integrators.steps": steps,
        "integrators.rejected": attempts - steps,
        "integrators.self_s": layer["integrators.self_s"],
        "integrators.us_per_step": layer["integrators.self_s"] / max(attempts, 1) * 1e6,
        "integrators.interp_calls": calls.get("integrators.interp", 0),
        "integrators.interp_s": layer["integrators.interp_s"],
        "invariants.self_s": layer["invariants.self_s"],
        "invariants.quad_calls": calls.get("invariants.quad", 0),
        "invariants.quad_s": layer["invariants.quad_s"],
        "invariants.integrand_evals": counts["integrand_evals"],
        "cli.self_s": layer["cli.self_s"],
        "cli.rows_written": rows,
        "cli.bytes_written": outcome.bytes_written,
        "cli.us_per_row": layer["cli.self_s"] / max(rows, 1) * 1e6,
        "trace.overhead_s": layer["root"] - median(walls),
    }
    session.problems += problems
    detail = {"run_wall_s": spread(walls),
              "traced_root_s": spread([s["root"] for s in samples]),
              "layers": {k: spread([s[k] for s in samples]) for k in samples[0]},
              "counts": counts, "trace_problems": problems}
    return metrics, detail


# --- reporting ----------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(prog) -> dict:
    return {"python": platform.python_version(), "numpy": prog.numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "platform": platform.platform()}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  t_end: float | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detailed record)."""
    prog = import_program()
    load_before = os.getloadavg()
    session = Session(workload, seed, t_end)
    measure = per_layer if trace else end_to_end
    metrics, detail = measure(session, prog, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": workload, "why": session.wl.why, "seed": seed,
        "seconds": seconds, "trace": int(trace), "config": session.config_text,
        "environment": environment(prog),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "result": result, "spread": detail,
        "output_sha256": session.reference, "problems": session.problems[:20],
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ermakov" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2

    result, record = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
