"""Tiny expression language: parse, evaluate, differentiate.

Scalar functions of a single named variable, e.g. ``1+0.1*sin(t)`` or
``Q^4/4``.  Grammar (left-associative, standard precedence
pow > unary minus > mul/div > add/sub):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' ('-'|'+')? number)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')'

Built-in functions: sin, cos, exp, ln, sqrt.  The only other legal
identifier is the declared variable.  Exponents are signed numeric
literals, so the node set is closed under symbolic differentiation and
derivatives stay exact (no finite differencing anywhere downstream).

Each operator's arithmetic is written once, in the tables ``_UNARY`` and
``_BINARY`` that ``_apply`` runs (``^`` is ``math.pow``, but ``^2`` is one
correctly rounded multiply, ``b*b``), and its derivative in
``_D_UNARY``/``_D_BINARY``, built through smart constructors that fold
constants and drop exact work: d(a/c) for a constant c is a'/c, and
(c*x)/c is x when |c| is a power of two >= 2, so ``Q^4/4`` differentiates
to ``Q^3.0`` and ``s^2/2`` to ``s``.  A tree that is just its variable,
negated or not, rejects a non-finite value, as the ``c*x`` it may stand
for did, so the fold turns no error into a value.  ``evaluate``,
``differentiate``, ``rename_var``, ``to_source`` and ``Inliner.inline``
fold one walk, ``_fold``, that visits a subtree shared by identity once
(derivatives share the subtrees of what they differentiate).
``evaluate`` is the reference semantics: a ``Func1`` evaluates f, f'
and f'' with it.  ``Inliner`` generates straight-line Python doing the
same operations in the same order, equal to the tree walk bit for bit
and error for error (a point the tree walk rejects goes back to it), for
the dynamics' equation programs; ``make_function`` also builds the
integrators' steps.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, NamedTuple, Union

from .errors import ExprDomainError, ExprSyntaxError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Pow",
    "Func1",
    "parse",
    "evaluate",
    "differentiate",
    "to_source",
    "rename_var",
    "is_zero",
    "compile_func",
    "func_from_expr",
    "Inliner",
    "make_function",
    "constant_func",
]


# --- AST -----------------------------------------------------------------

class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # one of: neg sin cos exp ln sqrt
    arg: "Expr"


class Binary(NamedTuple):
    op: str  # one of: + - * /
    left: "Expr"
    right: "Expr"


class Pow(NamedTuple):
    base: "Expr"
    exponent: float  # literal constant, keeps the derivative rule exact


Expr = Union[Const, Var, Unary, Binary, Pow]

# Each operator's arithmetic, once: the tree walk applies these, the
# generated code calls them by the names in _BOUND (``-x``, ``a / b`` and
# a square's ``b * b`` are the same operations), and the parser's functions
# are the unary table's named entries.
_UNARY = {"neg": operator.neg, "sin": math.sin, "cos": math.cos,
          "exp": math.exp, "ln": math.log, "sqrt": math.sqrt}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
_FUNCTIONS = tuple(op for op in _UNARY if op != "neg")
_BOUND = {**{f"_{op}": _UNARY[op] for op in _FUNCTIONS}, "_pow": math.pow}
_ATOM = re.compile(r"[\w.]+")  # a name or an unsigned literal of generated code


def is_zero(e: Expr) -> bool:
    """Structurally-zero test: the literal constant 0."""
    return isinstance(e, Const) and e.value == 0.0


# --- the walk ------------------------------------------------------------

def _fold(e: Expr, node: Callable, memo: dict | None = None):
    """Fold ``e`` bottom-up: ``node(n, *results of n's children)``, the
    children left to right, once per node shared by identity (a ``Var`` on
    every visit), one frame per tree level.  ``node`` never returns None."""
    if isinstance(e, Var):
        return node(e)
    memo = {} if memo is None else memo
    r = memo.get(id(e))
    if r is None:
        if isinstance(e, Const):
            r = node(e)
        elif isinstance(e, Unary):
            r = node(e, _fold(e.arg, node, memo))
        elif isinstance(e, Binary):
            r = node(e, _fold(e.left, node, memo), _fold(e.right, node, memo))
        elif isinstance(e, Pow):
            r = node(e, _fold(e.base, node, memo))
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        memo[id(e)] = r
    return r


# --- evaluation ----------------------------------------------------------

def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` at the point ``x``; a subtree shared by identity is
    evaluated once.

    Raises ExprDomainError for division by zero, ln/sqrt of a negative
    argument, any non-finite Binary/Pow result, or a non-finite ``x`` when
    ``e`` is just its variable (``_bare``), naming the offending
    subexpression.
    """
    if not math.isfinite(x) and _bare(e):
        raise ExprDomainError("non-finite value", to_source(e), x)
    return _fold(e, lambda n, *args: _apply(n, args, x))


def _bare(e: Expr) -> bool:
    """``e`` is its variable, negated any number of times: a tree with no
    Binary or Pow node that would reject a non-finite value of it."""
    while isinstance(e, Unary) and e.op == "neg":
        e = e.arg
    return isinstance(e, Var)


def _apply(e: Expr, args, x: float) -> float:
    """The value of node ``e`` at the point ``x`` from its children's
    values ``args``; an error names ``e``'s source, clipped to 60 chars."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Unary):
        fn = _UNARY[e.op]
    elif isinstance(e, Binary):
        fn = _BINARY[e.op]
    elif e.exponent == 2.0:  # one correctly rounded multiply
        fn, args = operator.mul, (*args, *args)
    else:
        fn, args = math.pow, (*args, e.exponent)
    try:
        r = fn(*args)
        if isinstance(e, Unary) or math.isfinite(r):
            return r
        message = "non-finite result"
    except ZeroDivisionError:
        message = "division by zero"
    except (ValueError, OverflowError) as err:
        message = str(err)
    text = to_source(e)
    raise ExprDomainError(message, text if len(text) <= 60 else text[:57] + "...", x)


# --- differentiation -----------------------------------------------------

# Smart constructors fold constants and drop 0/1 identities so derivative
# trees stay small; they never change evaluation results away from points
# where the unfolded tree was already undefined.  Two rules drop exact
# work.  A quotient by b with a structurally zero derivative (a constant)
# differentiates as a'/b, not as (a'*b - a*0)/b^2: for |b| a power of two
# >= 2 both give the same bits, as a'*b and b^2 are exact, and for any
# other b a'/b is one rounding where the quotient rule made three.  _div
# cancels (c*x)/c to x when |c| is a power of two >= 2, c*x being exact;
# x is a Binary, Pow or Var node, so a non-finite x raises as (c*x)/c did:
# a derivative puts the Var under a Binary node, which rejects a non-finite
# operand's result, or under negations only, which evaluate checks (_bare).
# Either rule gives a value where only the dropped a'*b or c*x overflowed.

def _const(v: float) -> Const:
    return Const(float(v))


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if is_zero(b):
        return a
    if is_zero(a):
        return _neg(b)
    return Binary("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    if is_zero(a) or is_zero(b):
        return _const(0.0)
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Binary("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return _const(0.0)
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if (isinstance(b, Const) and _is_scale(b.value) and isinstance(a, Binary)
            and a.op == "*" and a.left == b and isinstance(a.right, (Binary, Pow, Var))):
        return a.right
    return Binary("/", a, b)


def _is_scale(c: float) -> bool:
    """|c| is a power of two >= 2: x*c/c is x for every finite x*c."""
    m, e = math.frexp(c)
    return abs(m) == 0.5 and e >= 2


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return _const(-a.value)
    return Unary("neg", a)


def _pow(base: Expr, exponent: float) -> Expr:
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return _const(1.0)
    return Pow(base, float(exponent))


# Each operator's derivative, from its operands and theirs (the chain rule)
_D_UNARY = {
    "neg": lambda a, da: _neg(da),
    "sin": lambda a, da: _mul(Unary("cos", a), da),
    "cos": lambda a, da: _neg(_mul(Unary("sin", a), da)),
    "exp": lambda a, da: _mul(Unary("exp", a), da),
    "ln": lambda a, da: _div(da, a),
    "sqrt": lambda a, da: _div(da, _mul(_const(2.0), Unary("sqrt", a))),
}
_D_BINARY = {
    "+": lambda a, b, da, db: _add(da, db),
    "-": lambda a, b, da, db: _sub(da, db),
    "*": lambda a, b, da, db: _add(_mul(da, b), _mul(a, db)),
    "/": lambda a, b, da, db: (_div(da, b) if is_zero(db) else
                               _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, 2.0))),
}


def _d_rule(e: Expr, *d: Expr) -> Expr:
    """The derivative of node ``e`` from its children's derivatives ``d``."""
    if isinstance(e, Const):
        return _const(0.0)
    if isinstance(e, Var):
        return _const(1.0)
    if isinstance(e, Unary):
        return _D_UNARY[e.op](e.arg, *d)
    if isinstance(e, Binary):
        return _D_BINARY[e.op](e.left, e.right, *d)
    # d(u^c) = c * u^(c-1) * u'
    return _mul(_mul(_const(e.exponent), _pow(e.base, e.exponent - 1.0)), *d)


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative with respect to the expression's variable.

    The grammar is closed under this operation, so the result can be
    differentiated again (second derivatives of the mass function are
    needed by the frequency-shift formula).  A shared subtree is
    differentiated once.
    """
    return _fold(e, _d_rule)


def rename_var(e: Expr, new_name: str) -> Expr:
    """A copy of ``e`` with every variable renamed; shared subtrees stay
    shared."""
    def node(n: Expr, *args: Expr) -> Expr:
        if isinstance(n, Var):
            return Var(new_name)
        if isinstance(n, Pow):
            return Pow(*args, n.exponent)
        return type(n)(n.op, *args) if args else n  # a Const stays itself

    return _fold(e, node)


# --- printing ------------------------------------------------------------

def _fmt_number(v: float) -> str:
    # repr() round-trips doubles exactly and stays inside a signed number
    # ("-1e-05", "0.25", "4.0" all re-parse); inf has no such token, and
    # 1e999 parses back to it.
    return repr(float(v)).replace("inf", "1e999")


def to_source(e: Expr) -> str:
    """Pretty-print ``e`` back into the concrete grammar.

    Re-parsing the output yields an expression that evaluates
    identically.  A negative constant, which has no literal form, prints
    as a negated literal (``(-2.0)``); a negative exponent prints signed
    (``x^-1.5``).  A subtree shared by identity is formatted once.
    """
    return _fold(e, _text)[0]


# Precedence of the binary operators, which the parser and _text share.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


# (text, precedence) of a node: add/sub 1, mul/div 2, unary minus 3, pow 4,
# atoms 5; a negative literal parses back only in parentheses, as add/sub
def _text(e: Expr, *parts: tuple[str, int]) -> tuple[str, int]:
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        return s, 1 if s[0] == "-" else 5
    if isinstance(e, Var):
        return e.name, 5
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _paren(parts[0], 3), 3
        return f"{e.op}({parts[0][0]})", 5
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        # parenthesize same-level right children even for + and *: the
        # grammar is left-associative, and keeping the original grouping
        # makes re-parsed trees evaluate bit-identically
        return f"{_paren(parts[0], prec)}{e.op}{_paren(parts[1], prec + 1)}", prec
    return f"{_paren(parts[0], 5)}^{_fmt_number(e.exponent)}", 4


def _paren(part: tuple[str, int], prec: int) -> str:
    text, own = part
    return f"({text})" if own < prec else text


# --- tokenizer / parser --------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ExprSyntaxError(f"illegal character {source[bad]!r}", source, bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, var_name: str):
        self.source = source
        self.var_name = var_name
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", self.source, off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", self.source, off)
        return e

    def expr(self, prec: int = 1) -> Expr:
        """A left-associative chain of the binary operators of precedence
        ``prec``, whose operands bind tighter: one frame per level."""
        e = op = None
        while True:
            operand = self.expr(prec + 1) if prec < _PRECEDENCE["*"] else self.factor()
            e = operand if op is None else Binary(op, e, operand)
            kind, op, _ = self.peek()
            if kind != "op" or _PRECEDENCE.get(op) != prec:
                return e
            self.advance()

    def factor(self) -> Expr:
        # '-' binds looser than '^', so -x^2 reads as -(x^2)
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.factor())
        e = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            sign = self.advance()[1] if self.peek()[1] in ("-", "+") else ""
            kind, text, off = self.peek()
            if kind != "number":
                raise ExprSyntaxError("exponent must be a numeric literal", self.source, off)
            self.advance()
            return Pow(e, float(sign + text))
        return e

    def base(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "number":
            return Const(float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg)
            if text == self.var_name:
                return Var(text)
            raise ExprSyntaxError(
                f"unknown identifier {text!r} (declared variable is {self.var_name!r})",
                self.source, off)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", self.source, off)


def parse(source: str, var_name: str) -> Expr:
    """Parse ``source`` into an AST whose single free variable is ``var_name``."""
    return _Parser(source, var_name).parse()


# --- compilation to straight-line Python ------------------------------------

class Inliner:
    """Straight-line Python for one function that inlines expressions.

    ``inline(e, x)`` emits evaluate's operations on the variable named
    ``x`` in its order, one temporary per operator node (a subtree shared
    by identity once), and returns the name holding the value.  Constants
    are bound by name, never printed (``1e400`` is ``Const(inf)``), and a
    name bound to a float stays a constant for the whole build (``value``).
    An operator node of constant operands is folded: its value, which
    ``_apply`` computes from theirs, is bound unless ``_apply`` rejects it.
    A square is emitted as ``x * x``.
    ``call`` inlines a Func1's f; ``arith`` writes the caller's own
    arithmetic, folded the same way, ``let`` emits it, and ``require`` a
    condition the result needs.  ``tail`` lines run after every check
    passed, right before the return.

    ``build(params, result, slow)`` returns a function of ``params``
    that returns ``result`` only when no emitted line raised, the sum of
    every emitted Binary/Pow intermediate and the variable of a tree that
    is just its variable (what the tree walk rejects when not finite; the
    ``checked`` names, to which a caller may add; a folded constant is
    finite, so it is left out) is finite and every required
    condition holds.  Otherwise it returns ``slow(*params)``, the
    reference (a sum that overflows on finite terms costs a redundant slow
    call, never a wrong value).
    """

    def __init__(self):
        self.bound: dict[str, object] = dict(_BOUND)
        self.lines: list[str] = []
        self.checked: list[str] = []
        self.conditions: list[str] = []
        self.tail: list[str] = []

    def bind(self, value: object) -> str:
        name = f"c{len(self.bound)}"
        self.bound[name] = value
        return name

    def let(self, code: str, target: str | None = None) -> str:
        """Emit ``target = code`` (a fresh temporary by default; a name or
        a literal needs none and is returned as it is)."""
        if target is None and _ATOM.fullmatch(code):
            return code
        target = target or f"r{len(self.lines)}"
        self.lines.append(f"{target} = {code}")
        return target

    def value(self, name: str) -> float | None:
        """The constant ``name`` is bound to, or None."""
        v = self.bound.get(name)
        return v if isinstance(v, float) else None

    def arith(self, op: str, *args: str) -> str:
        """The text of ``op`` (+ - * /, or ``-`` of one operand) on the
        emitted names or texts ``args``: the other operand of a factor or
        divisor that is the constant 1.0 (x*1.0, 1.0*x and x/1.0 are x bit
        for bit), else a bound constant when every operand is one and the
        operator does not raise on them, else the operation, each compound
        operand parenthesized.  Zeros stay: adding 0.0 or multiplying by
        -0.0 can change the sign of a zero."""
        values = [self.value(a) for a in args]
        if op in "*/" and values[-1] == 1.0:
            return args[0]
        if op == "*" and values[0] == 1.0:
            return args[1]
        if None not in values:
            try:
                return self.bind((_BINARY[op] if len(args) == 2 else operator.neg)(*values))
            except ArithmeticError:
                pass
        a, *b = (x if _ATOM.fullmatch(x) else f"({x})" for x in args)
        return f"{a} {op} {b[0]}" if b else f"{op}{a}"

    def require(self, condition: str) -> None:
        self.conditions.append(condition)

    def inline(self, e: Expr, x: str) -> str:
        def emit(node: Expr, *args: str) -> str:
            if isinstance(node, Var):
                return x
            if isinstance(node, Const):
                return self.bind(node.value)
            a = args[0]
            if isinstance(node, Unary):
                code = f"-{a}" if node.op == "neg" else f"_{node.op}({a})"
            elif isinstance(node, Binary):
                code = f"{a} {node.op} {args[1]}"
            elif node.exponent == 2.0:
                code = f"{a} * {a}"
            else:  # bound before folding: constants keep their numbers
                code = f"_pow({a}, {self.bind(node.exponent)})"
            values = [self.value(arg) for arg in args]
            if None not in values:
                try:
                    return self.bind(_apply(node, values, 0.0))
                except ExprDomainError:
                    pass
            name = self.let(code)
            if not isinstance(node, Unary):
                self.checked.append(name)
            return name

        if _bare(e):
            self.checked.append(x)
        return _fold(e, emit)

    def call(self, fn: "Func1", x: str) -> str:
        """Inline fn(x); the point x == 0.0 of an ``at_zero`` function is
        left to the slow path."""
        if fn.at_zero is not None:
            self.require(f"{x} != 0.0")
        return self.inline(fn.expr, x)

    def build(self, params: str, result: str, slow: Callable) -> Callable:
        """The generated function of ``params`` (source text, e.g.
        ``"t, y"``) returning the emitted name ``result``."""
        fallback = f"return _slow({params})"
        body = ["try:", *(f"    {ln}" for ln in self.lines),
                "except (ZeroDivisionError, ValueError, OverflowError):",
                f"    {fallback}"] if self.lines else []
        tests = list(self.conditions)
        if self.checked:
            # at most 500 terms a line: compile overflows near 3,000
            for i in range(0, len(self.checked), 500):
                body.append(f"s = {'s + ' if i else ''}"
                            f"{' + '.join(self.checked[i:i + 500])}")
            tests.append("s - s == 0.0")
        done = [*self.tail, f"return {result}"]
        if tests:
            body += [f"if {' and '.join(tests)}:", *(f"    {ln}" for ln in done),
                     fallback]
        else:
            body += done
        return make_function(params, body, {"_slow": slow, **self.bound})


def make_function(params: str, body: list[str], bound: dict[str, object]) -> Callable:
    """``def fn(params)`` with the source lines ``body``, each ``bound``
    name a closure variable: the one code generator of the package."""
    src = (f"def _factory({', '.join(bound)}):\n"
           f"    def fn({params}):\n"
           + "".join(f"        {ln}\n" for ln in body)
           + "    return fn\n")
    namespace: dict[str, object] = {}
    exec(compile(src, "<ermakov.expr>", "exec"), namespace)
    return namespace["_factory"](**bound)


class Func1(NamedTuple):
    """An expression bundled with its first two exact derivatives, each
    evaluated by ``evaluate``.

    ``at_zero`` optionally supplies the value at exactly x == 0 for
    functions with a removable singularity there (the coupling
    conversions create these: V'(u)/u is 0/0 at the origin for even
    potentials, but the limit V''(0) exists).
    """

    expr: Expr
    d1: Expr
    d2: Expr
    var_name: str
    at_zero: float | None = None

    def __call__(self, x: float) -> float:
        if x == 0.0 and self.at_zero is not None:
            return self.at_zero
        return evaluate(self.expr, x)

    def deriv(self, x: float) -> float:
        return evaluate(self.d1, x)

    def deriv2(self, x: float) -> float:
        return evaluate(self.d2, x)

    @property
    def source(self) -> str:
        return to_source(self.expr)


def func_from_expr(e: Expr, var_name: str, at_zero: float | None = None) -> Func1:
    d1 = differentiate(e)
    return Func1(e, d1, differentiate(d1), var_name, at_zero)


def compile_func(source: str, var_name: str) -> Func1:
    """Parse ``source`` and attach its first and second derivatives.

    The parser and the derivative rules recurse once per nesting level,
    so an expression nested past the interpreter's recursion limit is a
    syntax error."""
    try:
        return func_from_expr(parse(source, var_name), var_name)
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply", source, 0) from None


def constant_func(value: float, var_name: str) -> Func1:
    return func_from_expr(Const(float(value)), var_name)
