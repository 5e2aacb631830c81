"""Generated RK4 and DP54 steps against the elementwise loops they replaced.

``integrators`` generates one straight-line step per state width.  The
reference below is the list-comprehension code those steps replaced,
kept verbatim (tableau, ``_error_norm``, ``_DenseSegment``, the stage
sums).  The generated functions must agree with it bit for bit
(``float.hex``) on every value, call ``rhs`` at the identical (t, y)
sequence, and propagate an exception raised at any stage from the same
call.  The one intended difference: an ErmakovError raised at a
non-finite stage state becomes an IntegrationError naming the stage.
"""

import math
import random

import pytest

from ermakov.errors import ErmakovError, ExprDomainError, IntegrationError
from ermakov.integrators import _dp54_dense, _dp54_step, _rk4_step

# --- reference (the replaced loop code) ---------------------------------------

_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_A71, _A73, _A74, _A75, _A76 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                                -2187.0 / 6784.0, 11.0 / 84.0)
# b5 - b4: local truncation error weights
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# dense-output weights for the 4th-order-continuous interpolant
_D1, _D3, _D4, _D5, _D6, _D7 = (-12715105075.0 / 11282082432.0,
                                87487479700.0 / 32700410799.0,
                                -10690763975.0 / 1880347072.0,
                                701980252875.0 / 199316789632.0,
                                -1453857185.0 / 822651844.0,
                                69997945.0 / 29380423.0)


def _finite(y):
    return all(map(math.isfinite, y))


def _error_norm(err, y, y_new, tol):
    acc = 0.0
    for e, a, b in zip(err, y, y_new):
        r = e / (tol + tol * max(abs(a), abs(b)))
        acc += r * r
    return math.sqrt(acc / len(err))


class _DenseSegment:
    def __init__(self, t_old, h, y_old, y_new, k1, k3, k4, k5, k6, k7):
        self.t_old = t_old
        self.h = h
        self.coeffs = []
        for a, b, b1, b3, b4, b5, b6, b7 in zip(y_old, y_new, k1, k3, k4, k5,
                                                 k6, k7):
            ydiff = b - a
            bspl = h * b1 - ydiff
            self.coeffs.append((
                a, ydiff, bspl, ydiff - h * b7 - bspl,
                h * (0.0 + _D1 * b1 + _D3 * b3 + _D4 * b4 + _D5 * b5 + _D6 * b6
                     + _D7 * b7)))

    def eval(self, t):
        th = (t - self.t_old) / self.h
        th1 = 1.0 - th
        return [r1 + th * (r2 + th1 * (r3 + th * (r4 + th1 * r5)))
                for r1, r2, r3, r4, r5 in self.coeffs]


def ref_dp54_step(rhs, t, h, y, k1, tol):
    k2 = rhs(t + _C2 * h, [a + h * (0.0 + _A21 * b1)
                           for a, b1 in zip(y, k1)])
    k3 = rhs(t + _C3 * h, [a + h * (0.0 + _A31 * b1 + _A32 * b2)
                           for a, b1, b2 in zip(y, k1, k2)])
    k4 = rhs(t + _C4 * h, [a + h * (0.0 + _A41 * b1 + _A42 * b2 + _A43 * b3)
                           for a, b1, b2, b3 in zip(y, k1, k2, k3)])
    k5 = rhs(t + _C5 * h, [a + h * (0.0 + _A51 * b1 + _A52 * b2 + _A53 * b3
                                    + _A54 * b4)
                           for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + h, [a + h * (0.0 + _A61 * b1 + _A62 * b2 + _A63 * b3
                              + _A64 * b4 + _A65 * b5)
                     for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)])
    y_new = [a + h * (0.0 + _A71 * b1 + _A73 * b3 + _A74 * b4 + _A75 * b5
                      + _A76 * b6)
             for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y_new)

    if _finite(y_new):
        err_norm = _error_norm(
            [h * (0.0 + _E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6
                  + _E7 * b7)
             for b1, b3, b4, b5, b6, b7 in zip(k1, k3, k4, k5, k6, k7)],
            y, y_new, tol)
    else:
        err_norm = 10.0
    return err_norm, y_new, k3, k4, k5, k6, k7


def ref_rk4_step(rhs, t, h, y):
    hh = 0.5 * h
    h6 = h / 6.0
    k1 = rhs(t, y)
    k2 = rhs(t + hh, [a + hh * b for a, b in zip(y, k1)])
    k3 = rhs(t + hh, [a + hh * b for a, b in zip(y, k2)])
    k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
    return [a + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


# --- harness ------------------------------------------------------------------

WIDTHS = (1, 2, 3, 4, 5, 7)
SPECIAL = (0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan)


def _hex(values):
    return [float(v).hex() for v in values]


class Scripted:
    """An rhs returning pre-drawn slopes in call order, recording each
    (t, y) it is called at and raising ``fail`` at call ``fail_at``."""

    def __init__(self, slopes, fail_at=None, fail=None):
        self.slopes = slopes
        self.fail_at, self.fail = fail_at, fail
        self.calls = []

    def __call__(self, t, y):
        self.calls.append((float(t).hex(), _hex(y)))
        if len(self.calls) == self.fail_at:
            raise self.fail
        return self.slopes[len(self.calls) - 1]


def _draw(rng: random.Random, n: int, special: float) -> list[float]:
    """n floats: each one of SPECIAL with probability ``special``, else
    a normal deviate scaled by 10^[-3, 3]."""
    return [rng.choice(SPECIAL) if rng.random() < special
            else rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-3, 3) for _ in range(n)]


def _case(rng: random.Random, n: int, calls: int):
    special = rng.choice((0.0, 0.05, 0.3))
    t = rng.uniform(-100.0, 100.0)
    h = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-8, 1)
    tol = 10.0 ** rng.uniform(-14, -1)
    return (t, h, tol, _draw(rng, n, special), _draw(rng, n, special),
            [_draw(rng, n, special) for _ in range(calls)])


def _outcome(step, rhs, *args):
    try:
        return "ok", step(rhs, *args)
    except Exception as err:  # noqa: BLE001 -- compared below
        return "raised", err


# --- agreement ----------------------------------------------------------------

@pytest.mark.parametrize("n", WIDTHS)
def test_dp54_step_matches_reference(n):
    rng = random.Random(1000 + n)
    branches = set()
    for _ in range(400):
        t, h, tol, y, k1, slopes = _case(rng, n, 6)
        ref_rhs, gen_rhs = Scripted(slopes), Scripted(slopes)
        want = ref_dp54_step(ref_rhs, t, h, y, k1, tol)
        got = _dp54_step(n)(gen_rhs, t, h, y, k1, tol)
        assert gen_rhs.calls == ref_rhs.calls
        assert got[0].hex() == want[0].hex()
        assert _hex(got[1]) == _hex(want[1])
        assert [id(k) for k in got[2:]] == [id(k) for k in want[2:]]
        branches.add("rejected" if got[0] == 10.0 else "norm")
    assert branches == {"rejected", "norm"}


@pytest.mark.parametrize("n", WIDTHS)
def test_rk4_step_matches_reference(n):
    rng = random.Random(2000 + n)
    for _ in range(400):
        t, h, _, y, _, slopes = _case(rng, n, 4)
        ref_rhs, gen_rhs = Scripted(slopes), Scripted(slopes)
        want = ref_rk4_step(ref_rhs, t, h, y)
        got = _rk4_step(n)(gen_rhs, t, h, y)
        assert gen_rhs.calls == ref_rhs.calls
        assert _hex(got) == _hex(want)


@pytest.mark.parametrize("n", WIDTHS)
def test_dense_output_matches_reference(n):
    rng = random.Random(3000 + n)
    dense = _dp54_dense(n)
    for _ in range(400):
        t, h, _, y, y_new, ks = _case(rng, n, 6)
        t_out = t + rng.choice((0.0, rng.random(), 1.0)) * h
        want = _DenseSegment(t, h, y, y_new, *ks).eval(t_out)
        assert _hex(dense(t_out, t, h, y, y_new, *ks)) == _hex(want)


@pytest.mark.parametrize("method,calls", [("DP54", 6), ("RK4", 4)])
@pytest.mark.parametrize("n", (1, 2, 5))
def test_stage_errors_propagate_from_the_same_call(method, calls, n):
    """An exception raised by rhs at stage call k leaves the step from
    that call.  At a finite stage state it is the rhs's own exception; an
    ErmakovError at a non-finite stage state becomes an IntegrationError
    naming the stage, caused by the original."""
    step = (_dp54_step if method == "DP54" else _rk4_step)(n)
    first_stage = 2 if method == "DP54" else 1
    rng = random.Random(n)
    for k in range(1, calls + 1):
        for fail, y0 in [(ZeroDivisionError("synthetic"), 1.0),
                         (ExprDomainError("synthetic", "x", 0.0), 1.0),
                         (ZeroDivisionError("synthetic"), math.nan),
                         (ExprDomainError("synthetic", "x", 0.0), math.nan)]:
            t, h, tol, *_ = _case(rng, n, calls)
            y = [y0] + _draw(rng, n - 1, 0.0)
            k1 = _draw(rng, n, 0.0)
            slopes = [_draw(rng, n, 0.0) for _ in range(calls)]
            ref_rhs = Scripted(slopes, k, fail)
            gen_rhs = Scripted(slopes, k, fail)
            if method == "DP54":
                ref = _outcome(ref_dp54_step, ref_rhs, t, h, y, k1, tol)
                got = _outcome(step, gen_rhs, t, h, y, k1, tol)
            else:
                ref = _outcome(ref_rk4_step, ref_rhs, t, h, y)
                got = _outcome(step, gen_rhs, t, h, y)
            assert gen_rhs.calls == ref_rhs.calls and len(ref_rhs.calls) == k
            assert ref == ("raised", fail)
            if isinstance(fail, ErmakovError) and math.isnan(y0):
                err = got[1]
                assert isinstance(err, IntegrationError) and err.__cause__ is fail
                assert str(err).startswith(
                    f"non-finite {method} stage {k + first_stage - 1} state at t=")
            else:
                assert got == ("raised", fail)
