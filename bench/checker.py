"""Per-invocation output checker.

``check_outputs`` inspects one CLI invocation's output directory and
returns the problems it finds (an empty list means the invocation is
certified).  The headers and file names are the benchmark's own copy of
the documented output format, so a change to the program's format shows
as a failure here instead of passing silently.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload, config_value, expected_samples

TRAJECTORY_HEADER = "t,tau,q,q_dot,f,f_dot,Q,Q_prime,E_phys,E_Q"
QFRAME_HEADER = "tau,Q,Q_prime"
FRAME_GAP_BOUND = 1e-12


@dataclass
class Outcome:
    """What one invocation produced, as seen by the checker."""

    problems: list[str] = field(default_factory=list)
    result_error: float | None = None   # max_rel_drift or max_abs_dQ
    rows: int = 0                       # CSV data rows written
    bytes_written: int = 0              # total size of the output files
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path, header: str, width: int, out: Outcome) -> list[list[float]]:
    """Validate header and row shape; return the data rows (empty after a
    problem)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        out.problems.append(f"{path.name}: header {lines[:1]!r} != {header!r}")
        return []
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != width:
            out.problems.append(f"{path.name}:{n}: {len(fields)} fields, want {width}")
            return []
        try:
            values = [float(v) for v in fields]
        except ValueError:
            out.problems.append(f"{path.name}:{n}: unparsable number")
            return []
        if not all(math.isfinite(v) for v in values):
            out.problems.append(f"{path.name}:{n}: non-finite value")
            return []
        rows.append(values)
    return rows


def _check(out_dir: Path, config_text: str, wl: Workload, out: Outcome) -> None:
    samples = expected_samples(config_text)
    rows = len(_csv_rows(out_dir / "trajectory.csv", TRAJECTORY_HEADER, 10, out))
    out.rows = rows
    if rows != samples:
        out.problems.append(f"trajectory.csv: {rows} rows, want {samples}")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if report.get("samples") != samples:
        out.problems.append(f"report.json: samples {report.get('samples')!r}, want {samples}")
    drift = report.get("max_rel_drift")
    if not isinstance(drift, float) or not drift <= wl.accuracy_bound:
        out.problems.append(f"report.json: max_rel_drift {drift!r} not <= {wl.accuracy_bound:g}")
    else:
        out.result_error = drift
    gap = report.get("frame_gap")
    if not isinstance(gap, float) or not gap <= FRAME_GAP_BOUND:
        out.problems.append(f"report.json: frame_gap {gap!r} not <= {FRAME_GAP_BOUND:g}")


def _map(out_dir: Path, config_text: str, wl: Workload, out: Outcome) -> None:
    samples = expected_samples(config_text)
    stride = float(config_value(config_text, "output_stride"))
    mapped = _csv_rows(out_dir / "qframe_mapped.csv", QFRAME_HEADER, 3, out)
    direct = _csv_rows(out_dir / "qframe_direct.csv", QFRAME_HEADER, 3, out)
    out.rows = len(mapped) + len(direct)
    if len(mapped) != samples:
        out.problems.append(f"qframe_mapped.csv: {len(mapped)} rows, want {samples}")
    gap = json.loads((out_dir / "gap.json").read_text(encoding="utf-8"))
    tau_end = gap.get("tau_end")
    if not mapped or tau_end != mapped[-1][0]:
        out.problems.append(f"gap.json: tau_end {tau_end!r} is not the last mapped tau")
    elif len(direct) != math.floor(tau_end / stride + 1e-9) + 1:
        out.problems.append(f"qframe_direct.csv: {len(direct)} rows for tau_end {tau_end!r}")
    # map compares every mapped sample up to the last direct sample
    want = sum(1 for row in mapped if direct and row[0] <= direct[-1][0])
    compared = gap.get("samples_compared")
    if compared != want:
        out.problems.append(f"gap.json: samples_compared {compared!r}, want {want}")
    dq = gap.get("max_abs_dQ")
    if not isinstance(dq, float) or not dq <= wl.accuracy_bound:
        out.problems.append(f"gap.json: max_abs_dQ {dq!r} not <= {wl.accuracy_bound:g}")
    else:
        out.result_error = dq


def check_outputs(wl: Workload, out_dir: Path, config_text: str, exit_code: int,
                  reference: dict[str, str] | None = None) -> Outcome:
    """Check one invocation of ``wl`` that wrote into ``out_dir``.

    ``reference`` holds the data-file hashes of an earlier repeat of the
    same input in the same run; any difference is a failure
    (nondeterministic output).
    """
    out = Outcome()
    if exit_code != 0:
        out.problems.append(f"exit code {exit_code}, want 0")
        return out
    missing = [n for n in wl.data_files if not (out_dir / n).is_file()]
    if missing:
        out.problems.append(f"missing output files {missing}")
        return out
    try:
        (_check if wl.command == "check" else _map)(out_dir, config_text, wl, out)
    except (OSError, ValueError, UnicodeDecodeError) as err:
        out.problems.append(f"unreadable output: {err}")
    out.hashes = {n: sha256(out_dir / n) for n in wl.data_files}
    out.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    if reference is not None and reference != out.hashes:
        changed = sorted(n for n in out.hashes if reference.get(n) != out.hashes[n])
        out.problems.append(f"output differs from an earlier repeat: {changed}")
    return out
