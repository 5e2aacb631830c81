"""Property tests: the generated kernels agree with their references on
any float state hypothesis can find (zeros of either sign, subnormals,
huge values, infinities, NaN)."""

import functools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import S1, S3, load_scenario  # noqa: E402
from ermakov import dynamics, integrators, invariants, model  # noqa: E402
from ermakov.errors import InvalidMassError  # noqa: E402
from ermakov.expr import compile_func, constant_func  # noqa: E402
from test_kernels import BARE, _outcome, _reference_phys, _reference_qframe  # noqa: E402

SCENARIOS = {"bare": model.build_scenario(BARE), "s3": load_scenario(S3)}
KERNELS = {name: (dynamics.phys_ode(scn), _reference_phys(scn),
                  dynamics.qframe_ode_from_scenario(scn), _reference_qframe(scn),
                  invariants._integrand(scn.coupling_F))
           for name, scn in SCENARIOS.items()}

any_float = st.floats(allow_nan=True, allow_infinity=True)
# derandomized and without an example database: the same examples every run
KERNEL_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                           database=None)


@KERNEL_SETTINGS
@given(name=st.sampled_from(sorted(SCENARIOS)), t=any_float,
       y=st.lists(any_float, min_size=5, max_size=5))
def test_phys_rhs_matches_reference(name, t, y):
    fast, ref = KERNELS[name][:2]
    assert _outcome(fast, t, y) == _outcome(ref, t, y)


@KERNEL_SETTINGS
@given(name=st.sampled_from(sorted(SCENARIOS)), tau=any_float,
       y=st.lists(any_float, min_size=2, max_size=2), w=any_float)
def test_qframe_rhs_and_integrand_match_reference(name, tau, y, w):
    fast, ref, integrand = KERNELS[name][2:]
    assert _outcome(fast, tau, y) == _outcome(ref, tau, y)
    F = SCENARIOS[name].coupling_F
    assert _outcome(integrand, w) == _outcome(lambda v: v * F(v), w)


# --- what the fast builds fold --------------------------------------------------
# A constant mass is checked once at build time and its products and quotients
# (m*m, m'/m, 0.5*m*m) are computed there, factors of 1.0 dropped; the checked
# builds fold nothing.  Both must still agree bit for bit, error for error.

FOLD_MASSES = ("1", "2.5", "1e-3", "7/3", "1+0.1*sin(t)")  # 7/3 folds to one constant
# with G zero, q's acceleration keeps the "+ 0.0" that turns its -0.0 into 0.0
FOLD_BASES = {**SCENARIOS, "s1": load_scenario(S1),
              "bare_G0": SCENARIOS["bare"]._replace(coupling_G=compile_func("0", "v"))}


@functools.cache
def _fold_pair(kernel, base, m):
    """(fast build, checked build) of the physical RHS or of one invariant
    sample (potential scenarios only) of ``base`` with the mass ``m``."""
    scn = FOLD_BASES[base]._replace(m=compile_func(m, "t"))
    if kernel == "phys":
        return dynamics.phys_ode(scn), _reference_phys(scn)
    sides = (invariants._PotentialSide(scn.potential_V, scn.coupling_F, 1e-10),
             invariants._PotentialSide(scn.potential_W, scn.coupling_G, 1e-10))
    return invariants._generated(scn.m, *sides), invariants._reference(scn.m, *sides)


_EDGE = dynamics.EPS_SING
fold_coordinate = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1e200, -1e200, math.inf, -math.inf, math.nan, _EDGE, -_EDGE,
                     math.nextafter(_EDGE, 0.0), math.nextafter(-_EDGE, 0.0))),
    st.floats(-3.0, 3.0), any_float)


def _bits(fn, *args):
    """repr and hex of each value, or the error's type and message."""
    try:
        value = fn(*args)
    except Exception as err:  # noqa: BLE001 -- the failure is what is compared
        return "error", type(err).__name__, str(err)
    return "value", tuple((repr(v), float(v).hex()) for v in value)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from(FOLD_MASSES),
       case=st.sampled_from((("phys", "s3"), ("phys", "bare"), ("phys", "bare_G0"),
                             ("sample", "s3"), ("sample", "s1"))),
       t=st.one_of(st.sampled_from((0.0, 0.5, -0.0, math.inf)), any_float),
       y=st.lists(fold_coordinate, min_size=5, max_size=5))
@example(m="1", case=("phys", "bare_G0"), t=0.0, y=[0.0, 0.0, 1.5, 0.0, 0.0])  # -0.0 + 0.0
def test_folded_builds_match_the_checked_ones(m, case, t, y):
    fast, ref = _fold_pair(*case, m)
    args = (t, y) if case[0] == "phys" else (t, *y[:4])
    assert _bits(fast, *args) == _bits(ref, *args)


@pytest.mark.parametrize("m", [-1.0, 0.0])
def test_constant_invalid_mass_raises_on_the_first_call(m):
    # build_scenario refuses such a mass at t0; a Scenario made directly has
    # its build-time check fail, and the fast call goes to the reference
    scn = SCENARIOS["s3"]._replace(m=constant_func(m, "t"))
    with pytest.raises(InvalidMassError, match="mass"):
        dynamics.phys_ode(scn)(0.0, [1.2, 0.0, 0.9, 0.0, 0.0])
    with pytest.raises(InvalidMassError):
        integrators.integrate_adaptive54(dynamics.phys_ode(scn), [1.2, 0.0, 0.9, 0.0, 0.0],
                                         0.0, 1.0, 1e-8, 0.5)
