"""The CLI's data files against exact solutions of S1 and S3.

Each oracle reads the scenario's initial state with ``configparser``,
computes the closed-form solution with the standard library, numpy and
scipy, and compares it with the CSV files that ``simulate`` and ``map``
write.  Nothing here calls the program's expressions, kernels or
integrators, so the oracles share no code with what they check.
"""

import configparser
import csv
import math

import numpy as np
import pytest

from conftest import S1, S3, scenario_path
from ermakov.cli import main


def _initial(name: str) -> dict[str, float]:
    """The [initial] section of a shipped scenario, and its mass."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read(scenario_path(name))
    return {**{k: float(v) for k, v in cfg["initial"].items()},
            "m": float(cfg["functions"]["m"])}


def _columns(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def _run(*argv) -> None:
    assert main(list(argv)) == 0


class TestHarmonicS1:
    """S1 (m = 1, w~2 = 1, V = 2Q^2, W = 0): q'' + q = 0 and
    f'' + f = 4/f^3.  So q = q0 cos t + q0' sin t, and by Pinney (1950)
    f^2 = (f0 cos t + f0' sin t)^2 + (4/f0^2) sin^2 t, which is 2 for
    the shipped f0 = sqrt(2), f0' = 0."""

    TOL = 1e-10  # the shipped DP54 tolerance, passed explicitly

    def test_simulate_matches_cos_and_sqrt2(self, tmp_path):
        _run("simulate", "--config", str(scenario_path(S1)), "--out", str(tmp_path),
             "--set", f"integration.tol={self.TOL!r}")
        c = _columns(tmp_path / "trajectory.csv")
        s = _initial(S1)
        t = c["t"]
        q = s["q"] * np.cos(t) + s["q_dot"] * np.sin(t)
        f = np.sqrt((s["f"] * np.cos(t) + s["f_dot"] * np.sin(t)) ** 2
                    + (4.0 / s["f"] ** 2) * np.sin(t) ** 2)
        assert len(t) == 1001 and np.all(np.abs(f - math.sqrt(2.0)) <= 4e-16)
        q_err = float(np.max(np.abs(c["q"] - q)))
        f_err = float(np.max(np.abs(c["f"] - f)))
        # measured 8.9e-10 and 3.3e-15 over t in [0, 50]: q's error is
        # phase error, growing with t
        assert q_err <= 20 * self.TOL, q_err
        assert f_err <= 1e-14, f_err


class TestJacobiS3:
    """S3 in the transformed frame: Q'' = -Q^3 + 1/Q^3, with energy
    E = Q'^2/2 + Q^4/4 + 1/(2 Q^2).  P = Q^2 obeys P'^2 = -2 (P^3 - 4 E P + 2);
    with the cubic's roots P1 < P2 < P3, started at the turning point
    P3, Q(tau)^2 = P3 - (P3 - P2) sn^2(w tau | k^2), where
    w = ((P3 - P1)/2)^(1/2) and k^2 = (P3 - P2)/(P3 - P1).  The tau-period
    of Q is 2 K(k^2)/w (elliptic functions: DLMF chapter 22)."""

    TOL = 1e-10

    @staticmethod
    def _solution():
        """(Q(tau), period), from the config's initial state."""
        special = pytest.importorskip("scipy.special")
        s = _initial(S3)
        Q0 = s["q"] / s["f"]
        Qp0 = s["m"] * (s["q_dot"] * s["f"] - s["q"] * s["f_dot"])
        E = 0.5 * Qp0 ** 2 + Q0 ** 4 / 4.0 + 1.0 / (2.0 * Q0 ** 2)
        P1, P2, P3 = sorted(np.roots([1.0, 0.0, -4.0 * E, 2.0]).real)
        assert Qp0 == 0.0 and abs(Q0 ** 2 - P3) <= 1e-14 * P3  # a turning point
        w = math.sqrt((P3 - P1) / 2.0)
        k2 = (P3 - P2) / (P3 - P1)

        def Q(tau):
            sn = special.ellipj(w * tau, k2)[0]
            return np.sqrt(P3 - (P3 - P2) * sn ** 2)

        return Q, 2.0 * special.ellipk(k2) / w

    def _map(self, tmp_path, *overrides):
        argv = ["map", "--config", str(scenario_path(S3)), "--out", str(tmp_path),
                "--set", f"integration.tol={self.TOL!r}"]
        for item in overrides:
            argv += ["--set", item]
        _run(*argv)
        return (_columns(tmp_path / "qframe_direct.csv"),
                _columns(tmp_path / "qframe_mapped.csv"))

    def _errors(self, tmp_path, *overrides):
        Q, _ = self._solution()
        return tuple(float(np.max(np.abs(c["Q"] - Q(c["tau"]))))
                     for c in self._map(tmp_path, *overrides))

    def test_map_matches_the_elliptic_solution(self, tmp_path):
        direct, mapped = self._errors(tmp_path)
        # measured 4.3e-9 (908 direct rows) and 2.6e-9 (1,001 mapped rows)
        assert direct <= 2e-8 and mapped <= 2e-8, (direct, mapped)

    def test_period_from_the_mapped_turning_points(self, tmp_path):
        _, period = self._solution()
        assert abs(period - 2.42254) <= 1e-5, period
        _, mapped = self._map(tmp_path)
        tau, Qp = mapped["tau"], mapped["Q_prime"]
        # Q' changes sign at each turning point, half a period apart; the
        # crossing is placed by linear interpolation between two samples
        i = np.nonzero(np.sign(Qp[1:-1]) != np.sign(Qp[2:]))[0] + 1
        crossings = tau[i] - Qp[i] * (tau[i + 1] - tau[i]) / (Qp[i + 1] - Qp[i])
        halves = np.diff(crossings)
        assert len(halves) >= 30
        # measured: each half within 2.0e-4, their mean 8.6e-9 off
        assert np.max(np.abs(halves - period / 2.0)) <= 1e-3, halves
        measured = 2.0 * (crossings[-1] - crossings[0]) / len(halves)
        assert abs(measured - period) <= 1e-6, (measured, period)

    def test_a_wrong_potential_misses_the_solution(self, tmp_path):
        # V = Q^4/4.4 changes the motion from the same start: the formula
        # for V = Q^4/4 misses it by 0.63, far more than the bound above
        direct, mapped = self._errors(tmp_path, "coupling.V=Q^4/4.4")
        assert direct > 1e-2 and mapped > 1e-2, (direct, mapped)
