"""Expression language: parsing, evaluation, exact differentiation."""

import math
import re
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import central_fd, random_expr
from ermakov import expr as expr_module
from ermakov.errors import ExprDomainError, ExprSyntaxError
from ermakov.expr import (
    Binary,
    Const,
    Inliner,
    Pow,
    Unary,
    Var,
    compile_func,
    differentiate,
    evaluate,
    func_from_expr,
    is_zero,
    parse,
    rename_var,
    to_source,
)
from ermakov.model import F_from_V, G_from_W


class TestParse:
    def test_zero_is_constant_node(self):
        assert parse("0", "t") == Const(0.0)

    def test_direct_arithmetic(self):
        assert evaluate(parse("2*Q^2", "Q"), 3.0) == 18.0

    def test_pythagorean_identity(self):
        e = parse("sin(t)^2 + cos(t)^2", "t")
        assert evaluate(e, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_precedence_pow_over_unary_minus(self):
        assert evaluate(parse("-t^2", "t"), 3.0) == -9.0

    def test_precedence_mul_over_add(self):
        assert evaluate(parse("2+3*4", "t"), 0.0) == 14.0

    def test_left_associative_sub_div(self):
        assert evaluate(parse("2-3-4", "t"), 0.0) == -5.0
        assert evaluate(parse("2/4/2", "t"), 0.0) == 0.25

    def test_parentheses(self):
        assert evaluate(parse("(1+t)^2", "t"), 2.0) == 9.0

    def test_function_call(self):
        assert evaluate(parse("sqrt(t)", "t"), 4.0) == 2.0

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3 + 2.5E2", "t"), 0.0) == pytest.approx(250.001)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + * 2", "t")
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'x'"):
            parse("x + 1", "t")

    def test_variable_mismatch(self):
        with pytest.raises(ExprSyntaxError, match="declared variable is 'Q'"):
            compile_func("q^4/4", "Q")

    def test_illegal_character(self):
        with pytest.raises(ExprSyntaxError, match="illegal character"):
            parse("t % 2", "t")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1 + t", "t")

    def test_exponent_must_be_literal(self):
        with pytest.raises(ExprSyntaxError, match="numeric literal"):
            parse("t^t", "t")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 3", "t")


class TestEval:
    def test_exp_identity(self):
        assert evaluate(parse("exp(t)", "t"), 0.0) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(ExprDomainError, match="division by zero"):
            evaluate(parse("1/q", "q"), 0.0)

    def test_cube(self):
        assert evaluate(parse("t^3", "t"), 2.0) == 8.0

    def test_ln_of_negative(self):
        with pytest.raises(ExprDomainError):
            evaluate(parse("ln(t)", "t"), -1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(ExprDomainError):
            evaluate(parse("sqrt(t)", "t"), -4.0)

    def test_overflow_reported(self):
        with pytest.raises(ExprDomainError):
            evaluate(parse("exp(t)", "t"), 1000.0)

    def test_error_names_offending_node(self):
        with pytest.raises(ExprDomainError, match="1.0/q"):
            evaluate(parse("2 + 1/q", "q"), 0.0)

    def test_eval_is_deterministic(self):
        e = parse("sin(t)*exp(t/3) - t^2", "t")
        assert evaluate(e, 1.234) == evaluate(e, 1.234)

    def test_nodes_are_immutable(self):
        e = parse("t+1", "t")
        with pytest.raises(Exception):
            e.op = "-"


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("t^3", "t"))
        assert evaluate(d, 2.0) == 12.0

    def test_constant(self):
        assert differentiate(Const(7.0)) == Const(0.0)

    def test_sin(self):
        d = differentiate(parse("sin(t)", "t"))
        assert evaluate(d, 0.0) == 1.0

    def test_chain_rule_exp(self):
        f = compile_func("exp(2*t)", "t")
        assert f.deriv(0.0) == 2.0
        assert f.deriv2(0.0) == 4.0

    def test_constant_mass(self):
        f = compile_func("1", "t")
        assert f.deriv(5.0) == 0.0
        assert f.deriv2(5.0) == 0.0

    def test_quotient_rule(self):
        d = differentiate(parse("t/(1+t)", "t"))
        assert evaluate(d, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_sqrt_rule(self):
        d = differentiate(parse("sqrt(t)", "t"))
        assert evaluate(d, 4.0) == pytest.approx(0.25, rel=1e-14)

    def test_double_differentiation_well_defined(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = random_expr(rng, 4)
            differentiate(differentiate(e))  # closure: must not raise


class TestQuotientByAConstant:
    """d(a/c) is a'/c, and (c*x)/c is x when |c| is a power of two >= 2
    and x a Binary, Pow or Var node: the same bits as the quotient rule's
    (a'*c)/c^2 wherever that evaluates, the same error class wherever it
    raises, except where only the dropped a'*c or c*x overflowed."""

    def test_s3_texts(self):
        assert to_source(differentiate(parse("Q^4/4", "Q"))) == "Q^3.0"
        assert to_source(differentiate(parse("s^2/2", "s"))) == "s"
        assert F_from_V(compile_func("Q^4/4", "Q")).source == "u^3.0/u"
        assert G_from_W(compile_func("s^2/2", "s")).source == "v/v"

    SCALES = (2.0, -2.0, 4.0, 16.0, 256.0)  # |c| a power of two >= 2
    OTHERS = (0.5, 3.0, 0.1)
    # zeros, the least, an odd and the largest subnormal, huge, ordinary, inf, nan
    POINTS = (0.0, -0.0, 5e-324, -5e-324, 3 * 5e-324, 2.225073858507201e-308,
              1e300, -1e300, 1.7976931348623157e308, 0.7, -1.3, 2.5,
              math.inf, -math.inf, math.nan)

    @staticmethod
    def _value(e, x):
        try:
            return evaluate(e, x)
        except ExprDomainError:
            return None

    def _assert_as_before(self, new, old, c, dropped):
        """``new`` gives ``old``'s bits where ``old`` evaluates and raises
        where it raised, unless ``dropped(new's value)``, a product by c,
        overflowed."""
        for x in self.POINTS:
            want, got = self._value(old, x), self._value(new, x)
            if want is not None:  # repr round-trips a float's bits
                assert repr(got) == repr(want), (to_source(new), c, x)
            elif got is not None:
                assert math.isfinite(got) and not math.isfinite(dropped(got)), (
                    to_source(new), c, x, got)

    @pytest.mark.parametrize("c", SCALES + OTHERS)
    def test_bare_variable(self, c):
        # (c*x)/c cancels to the bare x, which raises at +-inf and nan as
        # the cancelled c*x did, also when a derivative negates it
        k, x = Const(c), Var("x")
        old = Binary("/", Binary("*", k, x), k)
        new = expr_module._div(Binary("*", k, x), k)
        assert (new == x) == (c in self.SCALES)
        self._assert_as_before(new, old, c, lambda v: v * c)
        self._assert_as_before(Unary("neg", new), Unary("neg", old), c, lambda v: v * c)

    def test_negated_bare_derivative(self):
        d = differentiate(parse("1-x^2/2", "x"))
        assert to_source(d) == "-x"
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ExprDomainError, match="non-finite value in '-x'"):
                evaluate(d, x)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None,
              phases=(Phase.explicit, Phase.generate))
    @given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
           c=st.sampled_from(SCALES + OTHERS))
    def test_the_rules_keep_the_quotient_rules_bits(self, seeds, c):
        a, x = (random_expr(np.random.default_rng(seed), 3) for seed in seeds)
        k = Const(c)
        # rule 2 against the unfolded (c*x)/c, for every c (it folds only scales)
        self._assert_as_before(expr_module._div(Binary("*", k, x), k),
                               Binary("/", Binary("*", k, x), k), c, lambda v: v * c)
        da = differentiate(a)
        new = differentiate(Binary("/", a, k))
        if c in self.SCALES:
            # rule 1 against the quotient rule's (a'*c - a*0)/c^2, whose
            # constructors fold a zero numerator (-0.0 too) to 0.0
            num = expr_module._sub(expr_module._mul(da, k), expr_module._mul(a, Const(0.0)))
            old = Const(0.0) if is_zero(num) else Binary("/", num, Pow(k, 2.0))
            self._assert_as_before(new, old, c, lambda v: v * c * c)
            return
        if is_zero(da):  # a zero numerator folds to 0.0, -0.0 too
            assert new == Const(0.0)
            return
        for p in self.POINTS:  # one rounding: a'/c
            d = self._value(da, p)
            want = d / c if d is not None and math.isfinite(d / c) else None
            assert repr(self._value(new, p)) == repr(want), (to_source(new), c, p)


class TestDerivativeOracle:
    """Symbolic derivatives against central finite differences."""

    def test_builtin_functions(self):
        for src in ("sin(t)", "cos(t)", "exp(t)", "ln(t)", "sqrt(t)", "-t",
                    "t^4", "t^0.5"):
            f = compile_func(src, "t")
            checked = 0
            for x in np.linspace(0.1, 3.0, 40):
                fd = central_fd(f.expr, float(x))
                if fd is None:
                    continue
                sym = f.deriv(float(x))
                assert abs(sym - fd) / (1.0 + abs(sym)) < 1e-6, (src, x)
                checked += 1
            assert checked > 20, src

    def test_random_asts(self):
        rng = np.random.default_rng(20260811)
        total_points = 0
        for _ in range(200):
            e = random_expr(rng, 5)
            d = differentiate(e)
            for x in rng.uniform(-2.0, 2.0, size=100):
                fd = central_fd(e, float(x))
                if fd is None:
                    continue
                try:
                    sym = evaluate(d, float(x))
                except ExprDomainError:
                    continue
                if not math.isfinite(sym) or abs(sym) > 1e4:
                    continue
                rel = abs(sym - fd) / (1.0 + abs(sym))
                assert rel < 1e-6, f"{to_source(e)} at {x}: {sym} vs {fd}"
                total_points += 1
        assert total_points > 5000  # the property must actually bite


def _to_sympy(e, sympy, x):
    """The AST as a sympy expression; constants and exponents become the
    exact rationals of their doubles."""
    if isinstance(e, Const):
        return sympy.Rational(e.value)
    if isinstance(e, Var):
        return x
    if isinstance(e, Unary):
        arg = _to_sympy(e.arg, sympy, x)
        return -arg if e.op == "neg" else getattr(
            sympy, {"ln": "log"}.get(e.op, e.op))(arg)
    if isinstance(e, Binary):
        a, b = _to_sympy(e.left, sympy, x), _to_sympy(e.right, sympy, x)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op] if e.op != "/" else a / b
    return _to_sympy(e.base, sympy, x) ** sympy.Rational(e.exponent)


class TestSympyDerivativeOracle:
    """differentiate against sympy's diff of the same function, both
    evaluated at 50 significant digits, so only the symbolic rule is
    compared (not the rounding of a float evaluation)."""

    def test_random_asts(self):
        sympy = pytest.importorskip("sympy")
        mpmath = pytest.importorskip("mpmath")
        x = sympy.Symbol("t")
        rng = np.random.default_rng(20261018)
        checked = 0
        with mpmath.workdps(50):
            for _ in range(80):
                e = random_expr(rng, 4)
                ours = sympy.lambdify(x, _to_sympy(differentiate(e), sympy, x), "mpmath")
                theirs = sympy.lambdify(x, sympy.diff(_to_sympy(e, sympy, x), x), "mpmath")
                for xv in rng.uniform(-3.0, 3.0, 24):
                    try:
                        evaluate(e, float(xv))  # compare inside e's real domain
                        a, b = ours(mpmath.mpf(float(xv))), theirs(mpmath.mpf(float(xv)))
                    except (ExprDomainError, ZeroDivisionError, ValueError):
                        continue
                    if not all(isinstance(v, mpmath.mpf) and mpmath.isfinite(v)
                               for v in (a, b)):
                        continue
                    # 1e-40 absolute: a cancelling difference at 50 digits
                    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)) + 1e-40, (
                        to_source(e), xv, a, b)
                    checked += 1
        assert checked > 600  # the comparison must actually bite


class TestPrintRoundTrip:
    def test_simple_round_trips(self):
        for src, var in (("2*Q^2", "Q"), ("s^2/2", "s"), ("Q^4/4", "Q"),
                         ("1+0.1*sin(t)", "t"), ("-t^2", "t"),
                         ("(1+t)/(1-t)", "t"), ("exp(-(t^2))", "t")):
            e = parse(src, var)
            back = parse(to_source(e), var)
            for x in np.linspace(-0.9, 0.9, 7):
                try:
                    a = evaluate(e, float(x))
                except ExprDomainError:
                    continue
                assert evaluate(back, float(x)) == pytest.approx(a, abs=1e-15 * (1 + abs(a)))

    def test_random_round_trips(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            e = random_expr(rng, 5)
            back = parse(to_source(e), "t")
            checked = 0
            for x in rng.uniform(-2.0, 2.0, size=100):
                try:
                    a = evaluate(e, float(x))
                except ExprDomainError:
                    continue
                if not math.isfinite(a) or abs(a) > 1e12:
                    continue
                b = evaluate(back, float(x))
                assert abs(b - a) <= 1e-15 * (1.0 + abs(a)), to_source(e)
                checked += 1

    @pytest.mark.parametrize("e,var", [
        (Const(math.inf), "t"), (Const(-math.inf), "t"),
        (Binary("*", Const(math.inf), Var("t")), "t"),
        (Binary("-", Var("t"), Const(-math.inf)), "t"),
        (Pow(Var("t"), math.inf), "t"),
        (F_from_V(compile_func("1e400*Q^2", "Q")).expr, "u"),  # convert --V
    ])
    def test_infinite_constants_round_trip(self, e, var):
        # inf has no literal of its own; 1e999 parses back to it
        back = parse(to_source(e), var)
        assert "inf" not in to_source(e)
        for x in (0.0, 0.5, 2.0):
            ref = _outcome(partial(evaluate, e), x)
            got = _outcome(partial(evaluate, back), x)
            # an error names the re-parsed node, which may print differently
            assert got == ref if ref[0] == "value" else got[0] == "error"

    def test_trailing_blanks_end_the_input(self):
        assert parse("x  ", "x") == Var("x")

    def test_signed_exponents_parse(self):
        assert parse("t^-1.5", "t") == Pow(Var("t"), -1.5)
        assert parse("2*t^+2", "t") == Binary("*", Const(2.0), Pow(Var("t"), 2.0))
        assert parse("t^-1e999", "t") == Pow(Var("t"), -math.inf)
        with pytest.raises(ExprSyntaxError, match="numeric literal"):
            parse("t^--1", "t")

    def test_derivatives_round_trip_bit_for_bit(self):
        # derivatives carry negative exponents and constants; printed as
        # 1.0/t^1.5, t^-1.5 rounded differently and overflowed at 1e300
        rng = np.random.default_rng(20261019)
        points = TestCompiledAgreement.SPECIAL + tuple(
            float(x) for x in rng.uniform(-4.0, 4.0, 20))
        signed = errors = 0
        for _ in range(300):
            d1 = differentiate(random_expr(rng, 5))
            for e in (d1, differentiate(d1)):
                source = to_source(e)
                signed += "^-" in source
                back = parse(source, "t")
                for x in points:
                    want = _outcome(partial(evaluate, e), x)
                    got = _outcome(partial(evaluate, back), x)
                    # an error may name the re-parsed node differently
                    assert got[0] == want[0], (source, x, want, got)
                    assert got == want or want[0] == "error", (source, x)
                    errors += want[0] == "error"
        assert signed > 20 and errors > 1000  # both must bite

    def test_negative_exponent_printed_parseable(self):
        # derivative trees can contain negative exponents; the printer
        # writes them signed, which the grammar reads back
        from ermakov.expr import Pow, Var
        e = Pow(Var("t"), -0.5)
        s = to_source(e)
        assert evaluate(parse(s, "t"), 4.0) == pytest.approx(0.5, rel=1e-14)


class TestCompile:
    def test_func1_bundle(self):
        f = compile_func("q^3", "q")
        assert f(2.0) == 8.0
        assert f.deriv(2.0) == 12.0
        assert f.deriv2(2.0) == 12.0
        assert f.var_name == "q"

    def test_propagates_parse_error(self):
        with pytest.raises(ExprSyntaxError):
            compile_func("1 +", "t")

    @pytest.mark.parametrize("source", ["(" * 3000 + "t" + ")" * 3000,
                                        "+".join(["t"] * 5000)],
                             ids=["parens", "sum"])
    def test_deep_nesting_is_a_syntax_error(self, source):
        # past the recursion limit of the parser, or of differentiate
        with pytest.raises(ExprSyntaxError, match="expression nests too deeply"):
            compile_func(source, "t")


def _outcome(fn, x):
    """Bit pattern of the value (so -0.0 != 0.0), or the error message."""
    try:
        return "value", float(fn(x)).hex()
    except ExprDomainError as err:
        return "error", str(err)


def _inlined(e):
    """``e`` through the code generator alone, as the right-hand sides
    inline derivative trees."""
    em = Inliner()
    return em.build("x", em.inline(e, "x"), partial(evaluate, e))


def _tree_walk(f):
    """(reference, generated) pairs: the generator's code for a Func1's
    f and its derivative trees, against the tree walk."""
    return ((lambda x: evaluate(f.expr, x), _inlined(f.expr)),
            (lambda x: evaluate(f.d1, x), _inlined(f.d1)),
            (lambda x: evaluate(f.d2, x), _inlined(f.d2)))


def _assert_agree(f, points):
    for ref, fast in _tree_walk(f):
        for x in points:
            assert _outcome(fast, x) == _outcome(ref, x), (to_source(f.expr), x)


class TestCompiledAgreement:
    """Generated code for a Func1's f and its derivative trees against the
    tree walk, bit for bit and error message for error message."""

    SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-300, -1e-300, 1e300,
               710.0, math.inf, -math.inf, math.nan)

    def test_random_asts(self):
        rng = np.random.default_rng(20261017)
        errors = values = 0
        for _ in range(400):
            f = func_from_expr(random_expr(rng, 5), "t")
            points = self.SPECIAL + tuple(float(x) for x in rng.uniform(-4.0, 4.0, 40))
            _assert_agree(f, points)
            for _ref, fast in _tree_walk(f):
                kinds = [_outcome(fast, x)[0] for x in points]
                errors += kinds.count("error")
                values += kinds.count("value")
        assert errors > 1000 and values > 10000  # both paths must bite

    def test_overflow_inside_with_finite_result(self):
        # u*1e308*10 overflows, 1/inf would be a finite 0: the tree walk
        # rejects the intermediate, so the generated code must too
        f = compile_func("1/(u*1e308*10)", "u")
        with pytest.raises(ExprDomainError, match="non-finite result"):
            f(1.0)
        _assert_agree(f, (1.0, 1e-300, 2.0))

    def test_huge_literal(self):
        f = compile_func("1e400", "u")
        assert f(2.0) == math.inf == evaluate(f.expr, 2.0)
        g = compile_func("u*1e400", "u")
        with pytest.raises(ExprDomainError, match="non-finite result"):
            g(1.0)
        _assert_agree(g, (1.0, 0.0, -1.0))

    def test_log_and_sqrt_of_negative(self):
        for src in ("ln(u)", "sqrt(u)", "2*ln(u)+1", "sqrt(u)^2"):
            f = compile_func(src, "u")
            with pytest.raises(ExprDomainError, match="math domain error"):
                f(-1.0)
            _assert_agree(f, (-1.0, 0.0, 1.0, 4.0))

    def test_division_by_zero(self):
        f = compile_func("1/u", "u")
        with pytest.raises(ExprDomainError, match="division by zero in '1.0/u'"):
            f(0.0)
        _assert_agree(f, (0.0, -0.0, 2.0))

    def test_at_zero_patch(self):
        F = F_from_V(compile_func("Q^4/4", "Q"))
        assert F.at_zero is not None
        assert _outcome(F, 0.0) == ("value", float(F.at_zero).hex())
        with pytest.raises(ExprDomainError):
            evaluate(F.expr, 0.0)  # the patch is what makes 0 evaluable
        _assert_agree(F, (0.0, -0.0, 1e-3, -2.0))

    def test_const_and_var_only(self):
        c = compile_func("2.5", "t")
        v = compile_func("t", "t")
        assert c(7.0) == 2.5 and c.deriv(7.0) == 0.0 and c.deriv2(7.0) == 0.0
        assert _outcome(v, -0.0) == ("value", (-0.0).hex())
        assert v.deriv(3.0) == 1.0
        for x in (math.inf, -math.inf, math.nan):  # as 1.0*t would raise
            with pytest.raises(ExprDomainError, match="non-finite value in 't'"):
                v(x)
        _assert_agree(c, self.SPECIAL)
        _assert_agree(v, self.SPECIAL)

    @pytest.mark.parametrize("src,lines,nodes", [
        ("u/4.0^2.0", 1, 2),           # S3's F divides by 4.0^2.0
        ("u*(2*3-1)", 1, 3),
        ("u+1/0", 2, 2),               # raises when folded: emitted
        ("u+1e308*10", 2, 2),          # not finite: emitted
        ("u+(0-1)^0.5", 2, 3),         # math domain error: emitted
    ])
    def test_constant_operands_folded_at_generation(self, src, lines, nodes):
        # of the Binary/Pow nodes, one of constant operands is one bound
        # constant when its value is finite, else the line the tree walk
        # would reject; the emitted lines make the checked sum, and a folded
        # constant, finite by construction, stays out of it
        e = parse(src, "u")
        em = Inliner()
        em.inline(e, "u")
        assert em.checked == [ln.partition(" = ")[0] for ln in em.lines]
        # every literal and every exponent but a square's (x * x binds none)
        # is bound once, every folded node once more
        leaves = expr_module._fold(e, lambda n, *a: sum(a) + (
            isinstance(n, Const) or isinstance(n, Pow) and n.exponent != 2.0))
        folded = sum(isinstance(v, float) for v in em.bound.values()) - leaves
        assert (len(em.lines), folded) == (lines, nodes - lines), em.lines
        _assert_agree(func_from_expr(e, "u"), (0.0, 1.0, -2.5, 1e300))

    @pytest.mark.parametrize("src,lines", [
        ("-1*u", ["r0 = c * u"]),         # -1 is one bound constant
        ("u*exp(0.5)", ["r0 = u * c"]),
        ("u+sqrt(0-1)", ["r0 = _sqrt(c)", "r1 = u + r0"]),  # domain error: emitted
        ("u+exp(1000)", ["r0 = _exp(c)", "r1 = u + r0"]),   # range error: emitted
    ])
    def test_unary_nodes_of_constants_folded_at_generation(self, src, lines):
        # a Unary line is not in the checked sum: the tree walk takes any
        # value a function returns
        e = parse(src, "u")
        em = Inliner()
        em.inline(e, "u")
        assert [re.sub(r"\bc\d+", "c", ln) for ln in em.lines] == lines
        assert em.checked == [lines[-1].partition(" = ")[0]]
        _assert_agree(func_from_expr(e, "u"), (0.0, 1.0, -2.5, 1e300))

    def test_a_square_is_one_multiply(self):
        # no _pow call and no bound exponent; the tree walk multiplies too
        em = Inliner()
        em.inline(parse("u^2+u^3", "u"), "u")
        assert [re.sub(r"\bc\d+", "c", ln) for ln in em.lines] == [
            "r0 = u * u", "r1 = _pow(u, c)", "r2 = r0 + r1"]
        assert [v for v in em.bound.values() if isinstance(v, float)] == [3.0]
        x = 0.33187190551591689  # math.pow(x, 2.0) is 1 ulp above x*x here
        assert evaluate(parse("u^2", "u"), x) == x * x != math.pow(x, 2.0)
        with pytest.raises(ExprDomainError, match="non-finite result"):
            evaluate(parse("u^2", "u"), 1e200)

    def test_folding_a_long_constant_chain_is_linear(self):
        # 1.5+...+1.5+x folds each level on its operands' bound values; an
        # evaluate of every folded subtree took 0.3 s at 900 terms
        src = "+".join(["1.5"] * 899 + ["x"])
        start = time.perf_counter()
        f = compile_func(src, "x")
        assert f(0.5) == 1349.0
        assert time.perf_counter() - start <= 0.15

    def test_thousands_of_checked_intermediates_compile(self):
        # a balanced sum of 4,096 products: 8,191 checked intermediates,
        # more than compile takes in one sum line (it overflows near 3,000)
        nodes = [Binary("*", Const(1.0 + i / 4096), Var("x")) for i in range(4096)]
        while len(nodes) > 1:
            nodes = [Binary("+", a, b) for a, b in zip(nodes[::2], nodes[1::2])]
        em = Inliner()
        fn = em.build("x", em.inline(nodes[0], "x"), partial(evaluate, nodes[0]))
        assert len(em.checked) == 8191
        _assert_agree(func_from_expr(nodes[0], "x"), (0.0, -0.3, 1.7, 1e300))
        for x in (0.0, -0.3, 1.7, 1e300):
            assert _outcome(fn, x) == _outcome(partial(evaluate, nodes[0]), x)


def _unshared(e):
    """The plain tree a DAG stands for: each shared subtree copied apart."""
    if isinstance(e, Unary):
        return Unary(e.op, _unshared(e.arg))
    if isinstance(e, Binary):
        return Binary(e.op, _unshared(e.left), _unshared(e.right))
    if isinstance(e, Pow):
        return Pow(_unshared(e.base), e.exponent)
    return e


class TestSharedSubtrees:
    """differentiate and rename_var keep a subtree shared by identity
    shared, and evaluate walks it once, so F_from_V of a flat product and
    its evaluation grow linearly."""

    @staticmethod
    def _product_F(factors: int):
        return F_from_V(compile_func("*".join(["Q"] * factors), "Q"))

    def test_evaluation_operator_calls_grow_linearly(self, monkeypatch):
        # F' of an n-factor product is a DAG of O(n) nodes and a tree of
        # O(n^3): each Binary node must be applied once per evaluate
        funcs = {n: self._product_F(n) for n in (50, 100, 200)}
        calls = {}
        for op, fn in list(expr_module._BINARY.items()):
            def counted(a, b, _fn=fn):
                calls["n"] += 1
                return _fn(a, b)
            monkeypatch.setitem(expr_module._BINARY, op, counted)
        counts = {}
        for n, F in funcs.items():
            calls["n"] = 0
            evaluate(F.d1, 1.01)
            counts[n] = calls["n"]
        assert counts[200] - counts[100] == 2 * (counts[100] - counts[50]), counts
        assert counts[200] <= 8 * 200, counts

    def test_shared_evaluation_is_the_tree_walk(self):
        # derivative DAGs evaluate as the trees they stand for, bit for bit
        # and error message for error message (the memo keeps the order in
        # which the tree walk meets its first error)
        rng = np.random.default_rng(20261019)
        points = TestCompiledAgreement.SPECIAL + tuple(
            float(x) for x in rng.uniform(-4.0, 4.0, 20))
        errors = 0
        for _ in range(300):
            d1 = differentiate(random_expr(rng, 5))
            for e in (d1, differentiate(d1)):
                tree = _unshared(e)
                for x in points:
                    got = _outcome(partial(evaluate, e), x)
                    assert got == _outcome(partial(evaluate, tree), x), (to_source(e), x)
                    errors += got[0] == "error"
        assert errors > 1000
        # a product's derivatives have no negative literal or exponent, so
        # their printed source re-parses to the same tree
        F = self._product_F(12)
        for e in (F.expr, F.d1, F.d2):
            back = parse(to_source(e), "u")
            for x in (1.01, -0.7, 0.0, 2.0, 1e300):
                assert (_outcome(partial(evaluate, e), x)
                        == _outcome(partial(evaluate, back), x)), (x, to_source(e)[:60])

    @classmethod
    def _emitted_lines(cls, factors: int) -> int:
        F = cls._product_F(factors)
        em = Inliner()
        em.inline(F.expr, "u")
        return len(em.lines)

    def test_inlined_lines_grow_linearly(self):
        # 296 lines at 100 factors; copied-apart trees gave 5,049
        n50, n100 = self._emitted_lines(50), self._emitted_lines(100)
        assert n100 <= 3 * 100 and n100 <= 2.1 * n50

    def test_shared_derivative_compiles_to_the_tree_walks_bits(self):
        # F(u) = V'(u)/u = 100 u^98
        F = self._product_F(100)
        fast = _inlined(F.expr)
        for u in (1.01, -0.7, 2.0):
            assert F(u).hex() == fast(u).hex() == evaluate(F.expr, u).hex()
            assert F(u) == pytest.approx(100 * u ** 98, rel=1e-12)

    def test_printing_formats_each_shared_node_once(self, monkeypatch):
        # the derivatives of an n-factor product of squares print as trees
        # whose shared subtrees repeat: O(n^2) exponents in f', O(n^3) in
        # f''; each literal and exponent node is formatted once
        funcs = {n: compile_func("*".join(["Q^2"] * n), "Q") for n in (20, 40, 80)}
        calls = {"n": 0}
        fmt = expr_module._fmt_number

        def counted(v):
            calls["n"] += 1
            return fmt(v)

        monkeypatch.setattr(expr_module, "_fmt_number", counted)
        counts = {}
        for n, f in funcs.items():
            calls["n"] = 0
            to_source(f.d1)
            to_source(f.d2)
            counts[n] = calls["n"]
        assert counts[80] - counts[40] == 2 * (counts[40] - counts[20]), counts
        assert counts[80] <= 8 * 80, counts


_NOT_EXPR = Binary("*", Var("x"), Unary("sin", 2.0))


@pytest.mark.parametrize("walk", [
    partial(evaluate, x=1.0),
    differentiate,
    partial(rename_var, new_name="y"),
    to_source,
    lambda e: Inliner().inline(e, "x"),
], ids=["evaluate", "differentiate", "rename_var", "to_source", "inline"])
def test_walks_reject_a_child_that_is_not_an_expr(walk):
    with pytest.raises(TypeError, match="not an Expr node: 2.0"):
        walk(_NOT_EXPR)
