"""Golden outputs: sha256 of every data file the shipped runs write.

A speed-up that changes no arithmetic must leave these bytes alone, so
this gate fails on any change to a trajectory, report, Q-frame CSV or
gap file.  The digests are pinned to the environment recorded in
``golden_digests.json`` (libm ``sin``/``exp`` may round differently
elsewhere); on another environment the test is skipped.

Regenerate after a declared output change with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import S1, S2, S3, scenario_path
from ermakov.cli import main

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


def compute_digests(work: Path) -> dict[str, str]:
    digests = {}
    for name, argv, files in _runs(work):
        out = work / name
        code = main(argv + ["--out", str(out)])
        if code != 0:
            raise AssertionError(f"{name} exited with {code}")
        for fname in files:
            data = (out / fname).read_bytes()
            digests[f"{name}/{fname}"] = hashlib.sha256(data).hexdigest()
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"environment": _environment(),
                   "digests": compute_digests(Path(tmp))}
    DIGEST_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {DIGEST_FILE}", file=sys.stderr)
