"""Tests of the benchmark itself; the tier-1 suite does not collect them.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checker import check_outputs  # noqa: E402
from tracer import Integration, Tracer  # noqa: E402
from workloads import BARE_TEXT, PERTURBATION, WORKLOADS, render_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SHORT_T_END = 2.0


def test_seed0_reproduces_the_shipped_s3_file():
    shipped = (ROOT / "scenarios" / "s3_anharmonic_singular.cfg").read_bytes()
    for name in ("anharmonic_dp54", "qframe_map"):
        assert render_config(name, 0).encode("utf-8") == shipped


def test_seeds_are_reproducible_and_perturb_only_initial_conditions():
    text = render_config("bare_dense_rk4", 7)
    assert text == render_config("bare_dense_rk4", 7)
    assert text != render_config("bare_dense_rk4", 8)
    changed = {new.split(" = ")[0] for new, old in
               zip(text.splitlines(), BARE_TEXT.splitlines()) if new != old}
    assert changed == set(PERTURBATION)


def test_benchmark_json_names_the_reported_metrics():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    result, record = run.run_benchmark(workload, seed=3, seconds=0, trace=trace,
                                       t_end=SHORT_T_END)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_REPS + 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result)


def test_counter_checks_catch_a_broken_identity():
    tracer = Tracer(None)
    tracer.integrations = [Integration("rk4", 10, 0, 11, 51),
                           Integration("adaptive54", 10, 1, 5, 67)]
    assert run._counter_checks(tracer) == []
    tracer.integrations = [Integration("rk4", 10, 0, 11, 50),
                           Integration("adaptive54", 10, 1, 5, 66)]
    assert len(run._counter_checks(tracer)) == 2


@pytest.fixture(scope="module", params=list(WORKLOADS))
def produced(request, tmp_path_factory):
    """One certified invocation of a workload at short length."""
    wl = WORKLOADS[request.param]
    prog = run.import_program()
    work = tmp_path_factory.mktemp(wl.name)
    text = render_config(wl.name, 5, SHORT_T_END)
    cfg = work / "input.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = work / "out"
    argv = [wl.command, "--config", str(cfg), "--out", str(out)]
    assert prog.cli.main(argv) == 0
    first = check_outputs(wl, out, text, 0)
    assert first.ok, first.problems
    assert first.result_error is not None and first.rows > 0
    return wl, out, text, first.hashes


def _corrupt_copy(produced, tmp_path, edit):
    wl, out, text, hashes = produced
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    edit(copy)
    return check_outputs(wl, copy, text, 0, reference=hashes)


def _first_csv(copy: Path) -> Path:
    return sorted(copy.glob("*.csv"))[0]


def test_checker_passes_an_identical_repeat(produced, tmp_path):
    assert _corrupt_copy(produced, tmp_path, lambda copy: None).ok


def test_checker_fails_a_wrong_exit_code(produced):
    wl, out, text, hashes = produced
    assert not check_outputs(wl, out, text, 1, reference=hashes).ok


def test_checker_fails_a_changed_header(produced, tmp_path):
    def edit(copy):
        path = _first_csv(copy)
        path.write_text(path.read_text().replace(",Q_prime", ",Qp", 1))
    assert not _corrupt_copy(produced, tmp_path, edit).ok


def test_checker_fails_a_missing_row(produced, tmp_path):
    def edit(copy):
        path = _first_csv(copy)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
    assert not _corrupt_copy(produced, tmp_path, edit).ok


def test_checker_fails_an_unparsable_value(produced, tmp_path):
    def edit(copy):
        path = _first_csv(copy)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(",", ",x", 1)
        path.write_text("".join(lines))
    assert not _corrupt_copy(produced, tmp_path, edit).ok


def test_checker_fails_nondeterministic_output(produced, tmp_path):
    """A well-formed file whose bits differ from an earlier repeat."""
    def edit(copy):
        path = _first_csv(copy)
        lines = path.read_text().splitlines(keepends=True)
        last = lines[-1]
        digit = last[-2]
        lines[-1] = last[:-2] + ("1" if digit != "1" else "2") + "\n"
        path.write_text("".join(lines))
    outcome = _corrupt_copy(produced, tmp_path, edit)
    assert len(outcome.problems) == 1
    assert "earlier repeat" in outcome.problems[0]


def test_checker_fails_an_accuracy_breach(produced, tmp_path):
    wl = produced[0]

    def edit(copy):
        name = "report.json" if wl.command == "check" else "gap.json"
        key = "max_rel_drift" if wl.command == "check" else "max_abs_dQ"
        data = json.loads((copy / name).read_text())
        data[key] = 10 * wl.accuracy_bound
        (copy / name).write_text(json.dumps(data))
    assert not _corrupt_copy(produced, tmp_path, edit).ok


def test_checker_fails_a_frame_gap_breach(produced, tmp_path):
    if produced[0].command != "check":
        pytest.skip("frame_gap is reported by check only")

    def edit(copy):
        data = json.loads((copy / "report.json").read_text())
        data["frame_gap"] = 1e-9
        (copy / "report.json").write_text(json.dumps(data))
    assert not _corrupt_copy(produced, tmp_path, edit).ok


def test_run_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, run.py exits non-zero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qframe_map", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
