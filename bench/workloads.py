"""Workload table and seeded input generator.

Each workload is one ``ermakov`` CLI invocation on one generated config
file.  ``render_config(workload, seed)`` returns the config text: seed 0
is the canonical scenario (for the S3 workloads, byte for byte the
shipped ``scenarios/s3_anharmonic_singular.cfg``); any other seed
perturbs the initial conditions uniformly within ``PERTURBATION``.

Perturbation ranges (relative for q and f, absolute for the velocities):

    q      x (1 +/- 0.02)
    f      x (1 +/- 0.02)
    q_dot  +/- 0.01
    f_dot  +/- 0.01

Inside these ranges every workload certifies at the shipped tolerances
with a wide margin (drift about 1e-9 against the 1e-8 gate, map gap
about 6e-7 against 5e-6), and the integrator's step count moves by a few
percent only, so run time is comparable across seeds.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

# Keep byte-identical to scenarios/s3_anharmonic_singular.cfg; the
# benchmark's test compares the two.
S3_TEXT = """\
# S3: quartic potential plus the singular 1/Q^2 barrier (W(s) = s^2/2,
# so G = 1).  Started away from the transformed-frame equilibrium to get
# genuine oscillation in both q and f.

[functions]
m = 1
omega_tilde_sq = 1

[coupling]
V = Q^4/4
W = s^2/2

[initial]
q = 1.2
q_dot = 0
f = 0.9
f_dot = 0

[integration]
method = adaptive54
t_end = 50
tol = 1e-10
output_stride = 0.05
"""

BARE_TEXT = """\
# Bare couplings (no potentials) with a breathing mass, integrated by
# fixed-step RK4 with a sample after every step: each sample pays one
# running-quadrature leg per coupling side and one CSV row.

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
t_end = 50
dt = 0.01
output_stride = 0.01
"""

# key -> (kind, half-width): "rel" scales the template value by
# (1 + u), "abs" adds u, with u uniform in [-half-width, half-width].
PERTURBATION = {
    "q": ("rel", 0.02),
    "f": ("rel", 0.02),
    "q_dot": ("abs", 0.01),
    "f_dot": ("abs", 0.01),
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # CLI subcommand
    template: str             # seed-0 config text
    accuracy_bound: float     # max_rel_drift (check) or max_abs_dQ (map)
    data_files: tuple[str, ...]  # outputs that must repeat byte for byte
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "anharmonic_dp54", "check", S3_TEXT, 1e-8,
            ("trajectory.csv", "report.json"),
            "check on S3: DP54 with potentials; integrators, dynamics and expr "
            "do ~95% of the work, so RHS and DP54 step changes show here"),
        Workload(
            "bare_dense_rk4", "check", BARE_TEXT, 1e-8,
            ("trajectory.csv", "report.json"),
            "check with bare couplings, breathing mass and RK4 sampling every "
            "step: quadrature legs and CSV rows, no DP54 (the control for "
            "DP54-only changes)"),
        Workload(
            "qframe_map", "map", S3_TEXT, 5e-6,
            ("qframe_mapped.csv", "qframe_direct.csv", "gap.json"),
            "map on S3: physical plus 2-component transformed-frame DP54 runs, "
            "Hermite interpolation and two CSVs; the Q-frame RHS builder runs "
            "only here"),
    )
}


def _value_re(key: str) -> re.Pattern:
    return re.compile(rf"^{key} = (.*)$", re.MULTILINE)


def perturbed_initial(template: str, seed: int) -> dict[str, float]:
    """Initial-condition values for ``seed`` (empty for seed 0)."""
    if seed == 0:
        return {}
    rng = random.Random(seed)
    values = {}
    for key, (kind, width) in PERTURBATION.items():
        base = float(_value_re(key).search(template).group(1))
        u = rng.uniform(-width, width)
        values[key] = round(base * (1.0 + u) if kind == "rel" else base + u, 6)
    return values


def render_config(workload: str, seed: int, t_end: float | None = None) -> str:
    """Config text for one workload and seed.  ``t_end`` shortens the run
    (used by the benchmark's own smoke test only)."""
    text = WORKLOADS[workload].template
    for key, value in perturbed_initial(text, seed).items():
        text = _value_re(key).sub(f"{key} = {value!r}", text, count=1)
    if t_end is not None:
        text = _value_re("t_end").sub(f"t_end = {t_end!r}", text, count=1)
    return text


def config_value(text: str, key: str) -> str:
    return _value_re(key).search(text).group(1).strip()


def expected_samples(text: str) -> int:
    """Samples a physical trajectory of this config holds: t0 plus one
    per whole output stride (same rounding as the integrators)."""
    t0 = float(config_value(text, "t0")) if _value_re("t0").search(text) else 0.0
    span = float(config_value(text, "t_end")) - t0
    return int(math.floor(span / float(config_value(text, "output_stride")) + 1e-9)) + 1
