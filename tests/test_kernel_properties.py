"""Property tests: the generated kernels agree with their references on
any float state hypothesis can find (zeros of either sign, subnormals,
huge values, infinities, NaN)."""

import functools
import math
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import S1, S2, S3, S4, load_scenario, scenario_path  # noqa: E402
from ermakov import cli, dynamics, expr, integrators, invariants, model  # noqa: E402
from ermakov.errors import InvalidMassError, SingularityError  # noqa: E402
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
    """(fast build, checked build) of the physical RHS, the transformed-frame
    ODE (which ignores the mass) or one invariant sample (potential
    scenarios only) of ``base`` with the mass ``m``."""
    scn = FOLD_BASES[base]._replace(m=compile_func(m, "t"))
    if kernel == "phys":
        return dynamics.phys_ode(scn), _reference_phys(scn)
    if kernel == "qframe":
        return dynamics.qframe_ode_from_scenario(scn), _reference_qframe(scn)
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


@settings(max_examples=700, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from(FOLD_MASSES),
       case=st.sampled_from((("phys", "s3"), ("phys", "bare"), ("phys", "bare_G0"),
                             ("qframe", "s3"), ("qframe", "bare"),
                             ("sample", "s3"), ("sample", "s1"))),
       t=st.one_of(st.sampled_from((0.0, 0.5, -0.0, math.inf)), any_float),
       y=st.lists(fold_coordinate, min_size=5, max_size=5))
@example(m="1", case=("phys", "bare_G0"), t=0.0, y=[0.0, 0.0, 1.5, 0.0, 0.0])  # -0.0 + 0.0
@example(m="1", case=("qframe", "s3"), t=0.0, y=[-_EDGE, 0.5, 0.0, 0.0, 0.0])  # the guard's edge
def test_folded_builds_match_the_checked_ones(m, case, t, y):
    fast, ref = _fold_pair(*case, m)
    args = {"phys": (t, y), "qframe": (t, y[:2]), "sample": (t, *y[:4])}[case[0]]
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


def _fast_bodies(monkeypatch, build):
    """The (body lines, bound names) of every function ``Inliner.build``
    compiles while ``build()`` runs."""
    bodies = []
    real = expr.make_function

    def recording(params, body, bound):
        bodies.append((body, bound))
        return real(params, body, bound)
    monkeypatch.setattr(expr, "make_function", recording)
    build()
    return bodies


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "s4", "bare"])
def test_no_fast_build_calls_abs(monkeypatch, name):
    # the guards and the quadrature leg's test are comparisons: abs(x) >= e
    # is x >= e or x <= -e, abs(d) <= c is -c <= d <= c, NaN False both ways
    scn = SCENARIOS["bare"] if name == "bare" else load_scenario(
        {"s1": S1, "s2": S2, "s3": S3, "s4": S4}[name])

    def build_all():
        dynamics.phys_ode(scn)
        dynamics.qframe_ode_from_scenario(scn)
        invariants._generated(scn.m, invariants._PotentialSide(scn.potential_V,
                                                                scn.coupling_F, 1e-10),
                              invariants._PotentialSide(scn.potential_W,
                                                        scn.coupling_G, 1e-10))

    bodies = _fast_bodies(monkeypatch, build_all)
    assert len(bodies) >= 3
    for body, _bound in bodies:
        assert not [ln for ln in body if "abs(" in ln], body


def test_a_negative_constant_is_bound_not_computed_per_call(monkeypatch):
    # w~2 = -1 on S1: the physical RHS multiplies by the bound -1.0
    scn = load_scenario(S1, ["functions.omega_tilde_sq=-1"])
    (body, bound), = _fast_bodies(monkeypatch, lambda: dynamics.phys_ode(scn))
    assert not [ln for ln in body if re.search(r"= -c\d+$", ln)], body
    assert -1.0 in bound.values()
    y = [1.2, 0.1, 0.9, -0.2, 0.0]
    assert _outcome(dynamics.phys_ode(scn), 0.5, y) == _outcome(_reference_phys(scn), 0.5, y)


@pytest.mark.parametrize("m", ["-1", "-(2.5)"])
def test_a_mass_written_negative_is_decided_at_build_time(monkeypatch, m):
    # -1 is a Unary node of a constant: folded, so no line computes m per
    # call; the mass condition fails on every call, whose reference raises
    scn = SCENARIOS["s3"]._replace(m=compile_func(m, "t"))
    (body, _bound), = _fast_bodies(monkeypatch, lambda: dynamics.phys_ode(scn))
    assert not [ln for ln in body if re.search(r"= -c\d+$", ln)], body
    with pytest.raises(InvalidMassError, match="mass"):
        dynamics.phys_ode(scn)(0.0, [1.2, 0.0, 0.9, 0.0, 0.0])


# --- squares --------------------------------------------------------------------
# ^2 is one correctly rounded multiply in the tree walk and in the generated
# code (x * x, no _pow call), and the sample's kinetic (q'f - qf')^2 is one too.
# x * x never raises: an overflow is inf, which the fast build's finiteness
# sum sends to the reference, whose error is "non-finite result".

_SQRT_MAX = math.sqrt(1.7976931348623157e308)  # 1.3407807929942596e154
SQUARE_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                math.inf, -math.inf, math.nan, _SQRT_MAX, -_SQRT_MAX,
                math.nextafter(_SQRT_MAX, math.inf), -math.nextafter(_SQRT_MAX, math.inf),
                1.34e154, -1.34e154, 0.33187190551591689)


def _square_pairs():
    """(name, fast build, checked build, the arguments that square x) for
    each workload kernel with a square in it."""
    bare, s2 = SCENARIOS["bare"], load_scenario(S2)
    for name, scn in (("bare", bare), ("s2", s2)):
        yield (f"phys-{name}", dynamics.phys_ode(scn), _reference_phys(scn),
               lambda x: [(0.5, [1.0, 0.0, x, 0.0, 0.0]), (0.5, [x, 0.0, 1.0, 0.0, 0.0])])
        yield (f"qframe-{name}", dynamics.qframe_ode_from_scenario(scn),
               _reference_qframe(scn), lambda x: [(0.25, [x, 0.7]), (0.25, [1.1, x])])
    for coupling in (bare.coupling_F, bare.coupling_G):
        yield (f"integrand-{coupling.source}", invariants._integrand(coupling),
               lambda w, c=coupling: w * c(w), lambda x: [(x,)])
    # the potential sides square Q in V = 2*Q^2, the kinetic squares q'f - qf'
    sides = (invariants._PotentialSide(s2.potential_V, s2.coupling_F, 1e-10),
             invariants._PotentialSide(s2.potential_W, s2.coupling_G, 1e-10))
    yield ("sample-s2", invariants._generated(s2.m, *sides),
           invariants._reference(s2.m, *sides),
           lambda x: [(0.5, 1.0, x, 1.0, 0.0), (0.5, x, 0.0, 1.0, 0.0),
                      (0.5, 1.0, 0.3, 1.0, x)])


SQUARE_PAIRS = {name: pair for name, *pair in _square_pairs()}


@pytest.mark.parametrize("name", sorted(SQUARE_PAIRS))
def test_squares_agree_bit_for_bit(name):
    fast, ref, states = SQUARE_PAIRS[name]
    outcomes = set()
    for x in SQUARE_EDGES:
        for args in states(x):
            got = _outcome(fast, *args)
            assert got == _outcome(ref, *args), (x, args)
            outcomes.add(got[0])
    assert outcomes == {"value", "error"}  # both paths bite


def test_no_generated_kernel_calls_pow_for_a_square(monkeypatch):
    s2 = load_scenario(S2)

    def build_all():
        for scn in (SCENARIOS["bare"], s2, SCENARIOS["s3"]):
            dynamics.phys_ode(scn)
            dynamics.qframe_ode_from_scenario(scn)
            for potential, coupling in ((None, scn.coupling_F), (None, scn.coupling_G),
                                        (scn.potential_V, scn.coupling_F)):
                sides = (invariants._PotentialSide(potential, coupling, 1e-10),
                         invariants._PotentialSide(None, scn.coupling_G, 1e-10))
                invariants._generated(scn.m, *sides)

    bodies = _fast_bodies(monkeypatch, build_all)
    assert len(bodies) >= 20
    squares = 0
    for body, bound in bodies:
        text = "\n".join(body)
        squares += len(re.findall(r"\b(\w+) \* \1\b", text))
        assert not re.search(r"\*\* ?2\b", text), text
        for name in re.findall(r"_pow\(\w+, (\w+)\)", text):
            assert bound[name] != 2.0, text
    assert squares >= 20  # u^2, v^2, Q^2, the kinetic and m*m were emitted


# --- references compiled on first use ---------------------------------------------

@pytest.fixture
def reference_builds(monkeypatch):
    """The params of every checked build compiled from now on."""
    builds = []
    real = dynamics._Checked.build

    def counted(self, params, result):
        builds.append(params)
        return real(self, params, result)
    monkeypatch.setattr(dynamics._Checked, "build", counted)
    return builds


def test_a_check_on_s3_compiles_no_reference(reference_builds, tmp_path):
    assert cli.main(["check", "--config", scenario_path(S3),
                     "--out", str(tmp_path / "c")]) == 0
    assert reference_builds == []


def test_a_reference_is_compiled_once_by_its_first_fallback(reference_builds):
    rhs = dynamics.phys_ode(SCENARIOS["s3"])
    assert rhs(0.0, [1.2, 0.0, 0.9, 0.0, 0.0]) and reference_builds == []
    for _ in range(3):  # q = 0 trips the guard: the reference raises
        with pytest.raises(SingularityError):
            rhs(0.0, [0.0, 0.0, 0.9, 0.0, 0.0])
    assert rhs(0.0, [1.2, 0.0, 0.9, 0.0, 0.0]) and reference_builds == ["t, y"]
    # a quadrature side's first sample falls back, the next ones do not
    bare = SCENARIOS["bare"]
    sides = (invariants._PotentialSide(None, bare.coupling_F, 1e-10),
             invariants._PotentialSide(None, bare.coupling_G, 1e-10))
    sample = invariants._generated(bare.m, *sides)
    assert reference_builds == ["t, y"]  # the integrands' references neither
    for i in range(5):
        sample(0.01 * i, 1.2 + 0.001 * i, 0.0, 0.9, 0.0)
    assert reference_builds == ["t, y", invariants._PARAMS]
