"""Random ``--set`` overrides on the shipped scenarios.

Whatever a config value holds (malformed, non-finite or extreme numbers,
expressions outside their domain, unbalanced or unknown sources, random
expression trees), ``simulate``, ``check`` and ``map`` end in a
documented exit code (0-4) with a manifest that records it, one stderr
line when the code is nonzero and none when it is 0, and never a
traceback or an internal failure.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import S1, S2, S3, S4, random_expr, scenario_path
from ermakov import model
from ermakov.cli import main
from ermakov.expr import to_source

NUMBERS = ("0", "-1", "nan", "inf", "1e-300", "1e300", "abc", "", "0x10", "1/2")
EXPRESSIONS = ("exp(1000*t)", "1/t", "ln(t)", "sqrt(-1)", "(", "t^t", "1e999*t")
# expression keys and the variable of each
EXPRESSION_KEYS = {"functions.m": "t", "functions.omega_tilde_sq": "t",
                   "coupling.V": "Q", "coupling.W": "s",
                   "coupling.F": "u", "coupling.G": "v"}
NUMBER_KEYS = ("initial.q", "initial.q_dot", "initial.f", "initial.f_dot", "initial.t0",
               "integration.t_end", "integration.tol", "integration.dt",
               "integration.output_stride")


@st.composite
def overrides(draw):
    """One ``section.key=value`` override."""
    key = draw(st.sampled_from(("integration.method", *EXPRESSION_KEYS, *NUMBER_KEYS)))
    pools = [st.sampled_from(NUMBERS), st.sampled_from(EXPRESSIONS)]
    if key in EXPRESSION_KEYS:
        pools.append(st.builds(
            lambda seed, depth: to_source(random_expr(np.random.default_rng(seed),
                                                      depth, EXPRESSION_KEYS[key])),
            st.integers(0, 2**32 - 1), st.integers(1, 4)))
    if key == "integration.method":
        pools.append(st.sampled_from(model.METHODS))
    return f"{key}={draw(st.one_of(pools))}"


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(command=st.sampled_from(("simulate", "check", "map")),
       cfg=st.sampled_from((S1, S2, S3, S4)),
       t_end=st.sampled_from(("0.5", "2", "2", "2", "50")),
       sets=st.lists(overrides(), min_size=1, max_size=4))
# RK4 at h w = 5 grows the energy from 1.1e-12 to 1.5e297: every sample is
# finite, but the relative drift overflows
@example(command="simulate", cfg=S1, t_end="2.9", sets=[
    "functions.omega_tilde_sq=1e4", "coupling.V=0", "initial.f=1", "initial.f_dot=1.5e-6",
    "integration.method=rk4", "integration.dt=0.05"])
def test_every_override_ends_in_a_documented_exit(command, cfg, t_end, sets):
    argv = [command, "--config", scenario_path(cfg),
            "--set", f"integration.t_end={t_end}"]
    for item in sets:
        argv += ["--set", item]
    # every run ends quickly: fewer samples, fixed steps and DP54 attempts
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(model, "MAX_GRID_POINTS", 20_000)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", tmp])
        manifest = json.loads((Path(tmp) / "manifest.json").read_text())
    lines = err.getvalue().splitlines()
    assert code in range(5), (argv, code)
    assert manifest["exit_status"] == code, argv
    assert len(lines) == (0 if code == 0 else 1), (argv, lines)
    assert not any("internal failure" in ln or "Traceback" in ln for ln in lines), \
        (argv, lines)
