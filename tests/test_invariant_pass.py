"""The generated per-sample invariant pass against its reference.

``invariants._generated`` must give what ``invariants._reference`` gives,
sample by sample: the same bits of Q, Q', E_phys and E_Q (``float.hex``),
the same error type and message, and the same running-integral state
afterwards.  The sample sequences are derandomized hypothesis draws that
cover every zero/potential/quadrature side pair, reversed legs, repeated
points, legs that need more than one Simpson level, integrand
points outside the domain, |q| or |f| below EPS_SING and invalid masses.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from conftest import S1, S3, load_scenario
from ermakov import dynamics, integrators, invariants, model
from ermakov.dynamics import EPS_SING
from ermakov.expr import compile_func
from ermakov.invariants import _PotentialSide, _generated, _reference
from ermakov.model import PhysState

SIDES = ("zero", "potential", "quadrature")
# side name -> (potential variable, potentials, coupling from potential)
POTENTIALS = {"u": ("Q", ("Q^4/4", "Q^2", "ln(Q)"), model.F_from_V),
              "v": ("s", ("s^2/2", "s^2", "exp(s^2)"), model.G_from_W)}
# bare couplings: smooth, oscillating (legs that bisect), outside their
# domain (sqrt, ln), overflowing (exp), singular at 0 (1/u)
COUPLINGS = {"u": ("2+exp(-u^2)", "sin(5*u)", "sqrt(u)", "exp(u^2)", "1/u"),
             "v": ("1+1/(1+v^2)", "cos(3*v)+v", "sqrt(v)", "ln(v)")}
MASSES = ("1", "1+0.1*sin(t)", "1-t", "sqrt(t-0.5)")

_COORDS = (1.2, 0.9, -0.7, 2.5, 3.0, 0.3, -1.5, 40.0, 1e200, 1e-11, 0.0,
           math.nan, math.inf)  # NaN and inf points of Q = q/f and v = f/q
_coord = st.sampled_from(_COORDS) | st.floats(-4.0, 4.0)
_rate = st.floats(-2.0, 2.0) | st.sampled_from((0.0, 1e160))
_time = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0)) | st.floats(0.0, 3.0)
_states = st.lists(st.tuples(_time, _coord, _rate, _coord, _rate),
                   min_size=1, max_size=25)


def make_side(name, kind, choice, tol, ref):
    """One side of the invariant: zero, a potential, or running quadrature
    of a bare coupling or of a coupling derived from a potential (the
    sides ray_reid_invariant builds, with their at_zero points)."""
    if kind == "zero":
        return _PotentialSide(None, compile_func("0", name), tol)
    pot_var, pots, convert = POTENTIALS[name]
    if kind == "potential":
        potential = compile_func(pots[choice % len(pots)], pot_var)
        return _PotentialSide(potential, convert(potential), tol)
    bare = COUPLINGS[name]
    k = choice % (len(bare) + len(pots))
    coupling = (compile_func(bare[k], name) if k < len(bare)
                else convert(compile_func(pots[k - len(bare)], pot_var)))
    return _PotentialSide(None, coupling, tol, ref)


def outcomes(make_pass, m, make_sides, states):
    """Each sample's (Q, Q', E_phys, E_Q) as hex, or its error, then each
    quadrature side's running state."""
    u_side, v_side = make_sides()
    sample = make_pass(m, u_side, v_side)
    out = []
    for args in states:
        try:
            out.append([x.hex() for x in sample(*args)])
        except Exception as err:  # noqa: BLE001 -- compared, not handled
            out.append((type(err).__name__, str(err)))
    for side in (u_side, v_side):
        run = side.running
        if run is not None:
            out.append(repr((run.last_x, run.last_f, run.last_val)))
    return out


def assert_same(m, make_sides, states):
    want = outcomes(_reference, m, make_sides, states)
    assert outcomes(_generated, m, make_sides, states) == want


# no shrink phase: a failure reports its first failing example in seconds,
# where shrinking these sample lists took minutes
_DIFFERENTIAL = settings(derandomize=True, max_examples=30, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow],
                         phases=(Phase.explicit, Phase.reuse, Phase.generate,
                                 Phase.target))


@pytest.mark.parametrize("u_kind", SIDES)
@pytest.mark.parametrize("v_kind", SIDES)
@_DIFFERENTIAL
@given(choice=st.tuples(st.integers(0, 20), st.integers(0, 20)),
       mass=st.sampled_from(MASSES),
       tol=st.sampled_from((1e-10, 1e-6, 1e-3, 0.5)),
       refs=st.tuples(st.sampled_from((None, 0.0, 1.0, -0.5)),
                      st.sampled_from((None, 0.0, 1.0, -0.5))),
       states=_states)
def test_generated_pass_matches_reference(u_kind, v_kind, choice, mass, tol, refs,
                                          states):
    m = compile_func(mass, "t")

    def sides():
        return (make_side("u", u_kind, choice[0], tol, refs[0]),
                make_side("v", v_kind, choice[1], tol, refs[1]))

    assert_same(m, sides, states)


_MOVES = ("keep", "q_below_guard", "f_below_guard", "long_leg")


@_DIFFERENTIAL
@given(states=st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.5, 2.0),
                                 st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
                                 st.floats(-1.0, 1.0)), min_size=2, max_size=30),
       moves=st.lists(st.sampled_from(_MOVES), min_size=2, max_size=30))
def test_guards_and_long_legs(states, moves):
    # smooth couplings on smooth states, with q or f moved below the guard
    # and Q moved far (a leg of several bisections at tol 1e-10)
    moved = []
    for (t, q, q_dot, f, f_dot), move in zip(states, moves):
        if move == "q_below_guard":
            q = EPS_SING / 2
        elif move == "f_below_guard":
            f = -EPS_SING / 2
        elif move == "long_leg":
            q *= 4.0
        moved.append((t, q, q_dot, f, f_dot))
    m = compile_func("1+0.1*sin(t)", "t")

    def sides():
        return (make_side("u", "quadrature", 1, 1e-10, None),
                make_side("v", "quadrature", 0, 1e-10, None))

    assert_same(m, sides, moved)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_invalid_tolerance_is_the_references_error(tol):
    m = compile_func("1", "t")

    def sides():
        return (make_side("u", "quadrature", 0, tol, 0.0),
                make_side("v", "zero", 0, tol, None))

    states = [(0.0, 1.0, 0.0, 1.0, 0.0), (0.1, 1.1, 0.0, 1.0, 0.0)]
    got = outcomes(_generated, m, sides, states)
    assert got == outcomes(_reference, m, sides, states)
    assert got[0] == ("QuadratureError", f"tol must be positive, got {tol!r}")


@pytest.mark.parametrize("name", [S1, S3])
@pytest.mark.parametrize("refs", [(0.0, 0.0), (1.0, 2.0), (-0.5, 0.25)])
def test_ray_reid_sides_with_explicit_refs(name, refs):
    # ray_reid_invariant integrates the couplings of a potential scenario
    # (at_zero points included) from explicit references; along a whole
    # trajectory the generated pass must agree with the reference, and at
    # one state ray_reid_invariant is the reference's first sample
    scn = load_scenario(name)
    s = scn.initial
    traj = integrators.integrate_adaptive54(
        dynamics.phys_ode(scn), [s.q, s.q_dot, s.f, s.f_dot, s.tau], s.t, 5.0,
        1e-10, 0.05)
    states = [(t, q, q_dot, f, f_dot)
              for t, (q, q_dot, f, f_dot, _tau) in zip(traj.t, traj.y)]

    def sides():
        return (_PotentialSide(None, scn.coupling_F, 1e-12, refs[0]),
                _PotentialSide(None, scn.coupling_G, 1e-12, refs[1]))

    assert_same(scn.m, sides, states)
    for t, q, q_dot, f, f_dot in states[::25]:
        st_ = PhysState(t=t, tau=0.0, q=q, q_dot=q_dot, f=f, f_dot=f_dot)
        first = outcomes(_reference, scn.m, sides, [(t, q, q_dot, f, f_dot)])[0]
        assert invariants.ray_reid_invariant(st_, scn, *refs, 1e-12).hex() == first[2]


@pytest.fixture
def reference_calls(monkeypatch):
    """The t of every sample the generated pass hands to the reference."""
    calls = []
    build = dynamics._build_checked

    def counted_build(params, program, *args):
        sample = build(params, program, *args)
        if program is not invariants._emit_sample:
            return sample

        def counted(*call_args):
            calls.append(call_args[0])
            return sample(*call_args)
        return counted

    monkeypatch.setattr(dynamics, "_build_checked", counted_build)
    return calls


@pytest.mark.parametrize("u_kind", SIDES)
@pytest.mark.parametrize("v_kind", SIDES)
def test_smooth_samples_take_the_generated_path(reference_calls, u_kind, v_kind):
    # on a smooth trajectory only the first sample of a quadrature side
    # (its start never sampled) goes to the reference
    m = compile_func("1+0.1*sin(t)", "t")
    states = [(0.01 * i, 0.3 * math.cos(0.01 * i) + 1.5, -0.3 * math.sin(0.01 * i),
               0.9 + 0.1 * math.sin(0.01 * i), 0.1 * math.cos(0.01 * i))
              for i in range(200)]

    def sides():
        return (make_side("u", u_kind, 0, 1e-10, None),
                make_side("v", v_kind, 0, 1e-10, None))

    got = outcomes(_generated, m, sides, states)
    quadrature = "quadrature" in (u_kind, v_kind)
    assert reference_calls == ([0.0] if quadrature else [])
    reference_calls.clear()
    assert got == outcomes(_reference, m, sides, states)


@pytest.mark.parametrize("tol", [0.05, 0.5])
def test_loose_tolerance_long_legs_and_repeats(reference_calls, tol):
    # at a loose tolerance long legs, reversed ones included, pass the
    # first level, so the generated Simpson arithmetic decides their bits;
    # points drawn from a small pool repeat, each a leg of its own
    rng = random.Random(tol)
    pool = (0.5, 1.0, 2.0, -1.5, 3.0)
    states = [(0.01 * i, rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.5, 3.0),
               rng.uniform(-1.0, 1.0), rng.choice((1.0, 1.5, 2.0)), rng.uniform(-1.0, 1.0))
              for i in range(300)]
    m = compile_func("1+0.1*sin(t)", "t")

    def sides():
        return (make_side("u", "quadrature", 0, tol, None),
                make_side("v", "quadrature", 0, tol, None))

    got = outcomes(_generated, m, sides, states)
    assert len(states) - len(reference_calls) >= 100  # generated samples
    assert got == outcomes(_reference, m, sides, states)
