"""The package's value records.  Expression nodes, Func1 and the model's
states are named tuples; Trajectory and InvariantReport are plain
records.  Each is equal and hashed by value, never equal to a record of
another kind, survives a pickle round trip and refuses assignment."""

import pickle

import pytest

from conftest import S3, load_scenario
from ermakov.expr import Binary, Const, Func1, Pow, Unary, Var, compile_func, parse
from ermakov.integrators import Trajectory
from ermakov.invariants import InvariantReport
from ermakov.model import ConfigDocument, IntegrationPlan, PhysState, QFrameState

# one record of each kind, built from a number v: equal v, equal records
MAKE = {
    "expr": lambda v: Binary("+", Pow(Var("x"), v), Unary("sin", Const(1.5))),
    "func1": lambda v: compile_func(f"x^{v!r}", "x"),
    "scenario": lambda v: load_scenario(S3, [f"initial.q={v!r}"]),
    "trajectory": lambda v: Trajectory((0.0, v), ((1.0,), (2.0,)), ((0.0,), (0.5,)),
                                       "rk4", 1, 0),
    "report": lambda v: InvariantReport(1.0, v, v, 3, 0.0),
}


@pytest.mark.parametrize("kind", MAKE)
def test_equal_and_hashed_by_value(kind):
    a, b = MAKE[kind](2.0), MAKE[kind](2.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != MAKE[kind](3.0) and not a == MAKE[kind](3.0)


def test_records_of_different_kinds_never_compare_equal():
    records = [Const(1.0), Var("x"), Unary("neg", Var("x")), Pow(Var("x"), 2.0),
               Binary("*", Var("x"), Var("x")), *(make(2.0) for make in MAKE.values()),
               PhysState(0.0, 0.0, 1.0, 0.0, 1.0, 0.0), QFrameState(0.0, 1.0, 0.0),
               IntegrationPlan("rk4", 1.0, 0.1, None, 0.1), ConfigDocument({}, "")]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert a != b and b != a, (a, b)


@pytest.mark.parametrize("kind", MAKE)
def test_pickle_round_trip(kind):
    a = MAKE[kind](2.0)
    if kind == "func1":
        a(1.5)  # evaluating leaves nothing on the record to pickle
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is type(a) and back == a and hash(back) == hash(a)


@pytest.mark.parametrize("kind", MAKE)
def test_assignment_raises(kind):
    a = MAKE[kind](2.0)
    field = a._fields[0]
    value = getattr(a, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is value and not hasattr(a, "extra")


def test_reprs_name_every_field():
    assert repr(Pow(Var("x"), 2.0)) == "Pow(base=Var(name='x'), exponent=2.0)"
    assert repr(InvariantReport(1.0, 0.5, 0.5, 3, 0.0)) == (
        "InvariantReport(e0=1.0, max_abs_drift=0.5, max_rel_drift=0.5, "
        "samples=3, frame_gap=0.0)")
    f = compile_func("x", "x")
    assert repr(f) == ("Func1(expr=Var(name='x'), d1=Const(value=1.0), "
                       "d2=Const(value=0.0), var_name='x', at_zero=None)")


def test_keyword_construction_and_defaults():
    e = parse("x^2", "x")
    f = Func1(expr=e, d1=Const(2.0), d2=Const(0.0), var_name="x")
    assert f.at_zero is None and f == Func1(e, Const(2.0), Const(0.0), "x", None)
    doc = ConfigDocument(sections={}, text="")
    assert doc._fields == ("sections", "text") and doc == ConfigDocument({}, "")
    traj = Trajectory(t=[0.0], y=[[1.0]], dy=[[0.0]], method="rk4", step_count=0,
                      rejected_steps=0)
    assert len(traj) == 1 and traj._fields[-1] == "rejected_steps"
