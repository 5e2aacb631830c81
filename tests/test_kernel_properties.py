"""Property tests: the generated kernels agree with their references on
any float state hypothesis can find (zeros of either sign, subnormals,
huge values, infinities, NaN)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import S3, load_scenario  # noqa: E402
from ermakov import dynamics, invariants, model  # noqa: E402
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
