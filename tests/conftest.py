"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from ermakov import model
from ermakov.expr import Binary, Const, Expr, Pow, Unary, Var, evaluate
from ermakov.errors import ErmakovError

REPO = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO / "scenarios"

S1 = "s1_harmonic.cfg"
S2 = "s2_breathing_mass.cfg"
S3 = "s3_anharmonic_singular.cfg"
S4 = "s4_parametric.cfg"


def scenario_path(name: str) -> str:
    return str(SCENARIO_DIR / name)


def load_scenario(name: str, overrides: list[str] | None = None) -> model.Scenario:
    doc = model.load_config(scenario_path(name))
    if overrides:
        doc = model.apply_overrides(doc, overrides)
    return model.build_scenario(doc)


@pytest.fixture(scope="session")
def s1():
    return load_scenario(S1)


@pytest.fixture(scope="session")
def s2():
    return load_scenario(S2)


@pytest.fixture(scope="session")
def s3():
    return load_scenario(S3)


# --- random expression trees for derivative-oracle tests ---------------------

_UNARY = ("neg", "sin", "cos", "exp", "ln", "sqrt")
_BINARY = ("+", "-", "*", "/")


def random_expr(rng: np.random.Generator, depth: int, var: str = "t") -> Expr:
    """Random AST of depth <= ``depth`` over the full node set."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.45:
            return Const(round(float(rng.uniform(-3.0, 3.0)), 3))
        return Var(var)
    kind = rng.random()
    if kind < 0.45:
        op = _BINARY[rng.integers(len(_BINARY))]
        return Binary(op, random_expr(rng, depth - 1, var),
                      random_expr(rng, depth - 1, var))
    if kind < 0.75:
        op = _UNARY[rng.integers(len(_UNARY))]
        return Unary(op, random_expr(rng, depth - 1, var))
    exponent = float(rng.integers(0, 5)) if rng.random() < 0.8 else 0.5
    return Pow(random_expr(rng, depth - 1, var), exponent)


def central_fd(e: Expr, x: float, h: float = 1e-5) -> float | None:
    """Central finite difference of ``e`` at ``x``.

    Returns None when the stencil leaves the domain, produces huge
    magnitudes (round-off would swamp the estimate), or disagrees with
    the half-resolution estimate (truncation-dominated point).  These
    are exactly the "near a singularity" points the comparison must
    avoid; the self-consistency filter cannot hide a wrong symbolic
    derivative because both stencils approximate the true one.
    """
    try:
        vals = [evaluate(e, x + k * h) for k in (-2, -1, 0, 1, 2)]
    except ErmakovError:
        return None
    if any(not math.isfinite(v) or abs(v) > 1e4 for v in vals):
        return None
    fd_h = (vals[3] - vals[1]) / (2.0 * h)
    fd_2h = (vals[4] - vals[0]) / (4.0 * h)
    if not (math.isfinite(fd_h) and math.isfinite(fd_2h)):
        return None
    if abs(fd_h) > 1e4:
        return None
    if abs(fd_h - fd_2h) > 1e-7 * (1.0 + abs(fd_h)):
        return None
    return fd_h


def random_phys_states(rng: np.random.Generator, n: int):
    """States with q, f bounded away from zero and tame velocities."""
    states = []
    for _ in range(n):
        q = float(rng.uniform(0.3, 2.5)) * (1 if rng.random() < 0.5 else -1)
        f = float(rng.uniform(0.3, 2.5)) * (1 if rng.random() < 0.5 else -1)
        states.append(model.PhysState(
            t=float(rng.uniform(0.0, 6.0)), tau=0.0,
            q=q, q_dot=float(rng.uniform(-2.0, 2.0)),
            f=f, f_dot=float(rng.uniform(-2.0, 2.0))))
    return states
