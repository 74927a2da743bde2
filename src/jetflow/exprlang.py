"""Small closed expression language used for charts, metrics, and maps.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Exponents are integer literals (optionally signed, right-associative chains
of integer literals are folded at parse time, so ``x^2^3 == x^8``).  The
function set is closed: sin, cos, tan, exp, log, sqrt, sinh, cosh.
Variables are arbitrary identifiers; the conventional dialect elsewhere in
the package is t1..tp, x1..xn and jet variables x{i}_{a} such as ``x2_1``.

Evaluation accepts float or numpy-array bindings and is exact about domain
errors (division by zero, log of a nonpositive value, sqrt of a negative
value, 0 raised to a negative power, sin, cos or tan of an infinite float).
Differentiation and substitution are symbolic and apply only conservative
simplifications (constant folding, 0*e -> 0, 1*e -> e, e+0 -> e and the
like), so results stay exact; each visits a distinct node object once, so
shared subtrees stay shared.  Every plain symbolic sum elsewhere in the
package is `total`, the left-to-right fold of `add` onto zero.

`evaluate_table` evaluates a table of expressions with each distinct node
object evaluated once, and `compile_table` turns a table into a function
that runs that walk on its first few calls and then one compiled
straight-line function with shared subexpressions and the same guards; the
tree interpreter (``Expr.eval``) is the reference for both.  `compile_floats`
compiles a table with the same emitter for Python floats only, and
`compile_rk4` generates one RK4 loop on Python floats that calls such a
right-hand side once per stage.  Every table tier takes its det-g guards
(`Guard`, one ``(det, check)`` pair per metric) apart from its entries,
tests them first, in order, and returns one value per entry.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cache, reduce
from types import CodeType
from typing import Callable, Collection, Iterable, Mapping, Sequence, Union

import numpy as np

Value = Union[float, np.ndarray]
# a det-g guard: an expression and the check that raises where its value is
# degenerate (`compile_table`)
Guard = tuple["Expr", Callable[[Value], None]]

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprError", "parse", "to_str", "evaluate", "evaluate_table", "diff", "subst", "free_vars",
    "partials", "foreign_vars",
    "num", "var", "neg", "add", "sub", "mul", "div", "pow_", "call", "total",
    "FUNCTIONS", "compile_table", "Table", "WALK_CALLS", "table_columns",
    "compile_floats", "compile_rk4", "DET_TOL", "Guard",
]

MAX_EXPONENT = 1000
# |det| below this is singular: a chart-change block, an affine block, det g
DET_TOL = 1e-12
_DIV0 = "domain error: division by zero"
_NEG_POW0 = "domain error: 0 raised to a negative power"
_TRIG_INF = "domain error: sin, cos or tan of an infinite value"


class ExprError(ValueError):
    """Parse, evaluation, or domain error; ``offset`` is set for parse errors."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


def _any(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


# evaluation steps shared by `eval`, `_eval` and the compiled tables

def _lookup(env: Mapping[str, Value], name: str) -> Value:
    try:
        return env[name]
    except KeyError:
        raise ExprError(f"unbound variable '{name}'") from None


def _nonzero(den: Value) -> Value:
    if _any(den == 0):
        raise ExprError(_DIV0)
    return den


def _power(b: Value, k: int) -> Value:
    return np.power(b, k) if isinstance(b, np.ndarray) else b ** k


def _checked_power(b: Value, k: int) -> Value:
    if k < 0 and _any(b == 0):
        raise ExprError(_NEG_POW0)
    return _power(b, k)


def _math_domain() -> None:
    """In an ``except ValueError`` block, raise `math`'s plain ValueError (sin,
    cos or tan of an infinite float) as an ExprError; the block re-raises any other."""
    err = sys.exc_info()[1]
    if type(err) is ValueError and str(err) == "math domain error":
        raise ExprError(_TRIG_INF) from None


def _apply(fn: str, x: Value) -> Value:
    scalar_fn, array_fn, guard = FUNCTIONS[fn]
    if guard is not None:
        guard(x)
    try:
        return array_fn(x) if isinstance(x, np.ndarray) else scalar_fn(x)
    except ValueError:
        _math_domain()
        raise


@cache
def _code(src: tuple[str, ...], filename: str) -> CodeType:
    return compile("".join(x + "\n" for x in src), filename, "exec")


def _define(src: Sequence[str], ns: dict, filename: str, name: str) -> Callable:
    """The function `name` that the source lines `src` define, run in `ns`.
    The function is taken out of `ns`, its globals, so the two do not refer
    to each other.  Lines given as a tuple are compiled once per process,
    and every function defined from them shares one code object."""
    code = (_code(src, filename) if isinstance(src, tuple)
            else compile("".join(x + "\n" for x in src), filename, "exec"))
    exec(code, ns)
    return ns.pop(name)


def _refuse_set(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)`` of a node class, with an
    ``__init__`` that stores each field through its slot's member descriptor
    at about two thirds of the generated one's cost.  Assigning or deleting
    any attribute raises FrozenInstanceError (the dataclass's own guard
    refers to the class it replaced, so it would raise TypeError for a
    name that is not a field); only `diff` writes `_dmemo`, through
    ``object.__setattr__``."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    ns = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    cls.__init__ = _define([f"def __init__(self, {', '.join(names)}):",
                            *(f"    _set_{name}(self, {name})" for name in names)],
                           ns, f"<{cls.__name__}.__init__>", "__init__")
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    return cls


class Expr:
    """Base class for expression nodes.  Nodes are immutable and comparable;
    `_dmemo` (not a field) holds the derivatives `diff` has built.  The
    smart constructors and the leaves' derivatives share one node for 0.0
    and one for 1.0 (a -0.0 literal keeps a node of its own)."""

    __slots__ = ("_dmemo",)

    def eval(self, env: Mapping[str, Value]) -> Value:
        """Tree-walking interpreter: every occurrence of a shared subtree is
        evaluated again.  `evaluate_table` evaluates each node object once."""
        raise NotImplementedError

    def diff(self, name: str) -> "Expr":
        """Partial derivative.  Each non-leaf node keeps its derivatives, by
        variable name, for as long as it lives: a node object is
        differentiated once per variable, so shared subtrees give shared
        results, across calls too."""

        def d(e: Expr) -> Expr:
            if isinstance(e, (Num, Var)):
                return e._diff(name, d)
            memo = getattr(e, "_dmemo", None)
            if memo is None:
                memo = {}
                object.__setattr__(e, "_dmemo", memo)
            got = memo.get(name)
            if got is None:
                got = memo[name] = e._diff(name, d)
            return got

        try:
            return d(self)
        finally:
            del d           # `d` reaches itself through its cell: empty it

    def subst(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Substitution; each distinct node object is rebuilt once, so shared
        subtrees stay shared."""
        memo: dict[int, Expr] = {}

        def s(e: Expr) -> Expr:
            got = memo.get(id(e))
            if got is None:
                got = memo[id(e)] = e._subst(mapping, s)
            return got

        try:
            return s(self)
        finally:
            del s           # the cycle of `d` in `diff`

    # one step of eval / diff / subst; `ev`, `d` and `s` map a child to its
    # result.  A node's `eval` and `_eval` apply the same operation (and the
    # same guard helper) to its children's values.
    def _eval(self, env: Mapping[str, Value], ev: Callable[["Expr"], Value]) -> Value:
        raise NotImplementedError

    def _diff(self, name: str, d: Callable[["Expr"], "Expr"]) -> "Expr":
        raise NotImplementedError

    def _subst(self, mapping: Mapping[str, "Expr"], s: Callable[["Expr"], "Expr"]) -> "Expr":
        raise NotImplementedError

    def _children(self) -> tuple["Expr", ...]:
        return ()

    def _fmt(self) -> str:
        raise NotImplementedError

    # precedence level used by the printer; atoms are 5
    _LEVEL = 5

    def __str__(self) -> str:
        return self._fmt()


@_node
class Num(Expr):
    value: float

    def eval(self, env):
        return self.value

    def _eval(self, env, ev):
        return self.value

    def _diff(self, name, d):
        return _ZERO

    def _subst(self, mapping, s):
        return self

    def _fmt(self):
        if self.value < 0:
            return "-" + repr(-self.value)
        return repr(self.value)


_ZERO, _ONE = Num(0.0), Num(1.0)         # the shared zero and one leaves


@_node
class Var(Expr):
    name: str

    def eval(self, env):
        return _lookup(env, self.name)

    def _eval(self, env, ev):
        return _lookup(env, self.name)

    def _diff(self, name, d):
        return _ONE if self.name == name else _ZERO

    def _subst(self, mapping, s):
        return mapping.get(self.name, self)

    def _fmt(self):
        return self.name


def _child(e: Expr, min_level: int) -> str:
    s = e._fmt()
    level = e._LEVEL
    if s.startswith("-"):
        # a negative literal binds like a unary minus when re-parsed
        level = min(level, 3)
    return "(" + s + ")" if level < min_level else s


@_node
class Neg(Expr):
    a: Expr
    _LEVEL = 3

    def eval(self, env):
        return -self.a.eval(env)

    def _eval(self, env, ev):
        return -ev(self.a)

    def _diff(self, name, d):
        return neg(d(self.a))

    def _subst(self, mapping, s):
        return neg(s(self.a))

    def _children(self):
        return (self.a,)

    def _fmt(self):
        return "-" + _child(self.a, 3)


@_node
class Add(Expr):
    a: Expr
    b: Expr
    _LEVEL = 1

    def eval(self, env):
        return self.a.eval(env) + self.b.eval(env)

    def _eval(self, env, ev):
        return ev(self.a) + ev(self.b)

    def _diff(self, name, d):
        return add(d(self.a), d(self.b))

    def _subst(self, mapping, s):
        return add(s(self.a), s(self.b))

    def _children(self):
        return (self.a, self.b)

    def _fmt(self):
        return _child(self.a, 1) + " + " + _child(self.b, 2)


@_node
class Sub(Expr):
    a: Expr
    b: Expr
    _LEVEL = 1

    def eval(self, env):
        return self.a.eval(env) - self.b.eval(env)

    def _eval(self, env, ev):
        return ev(self.a) - ev(self.b)

    def _diff(self, name, d):
        return sub(d(self.a), d(self.b))

    def _subst(self, mapping, s):
        return sub(s(self.a), s(self.b))

    def _children(self):
        return (self.a, self.b)

    def _fmt(self):
        return _child(self.a, 1) + " - " + _child(self.b, 2)


@_node
class Mul(Expr):
    a: Expr
    b: Expr
    _LEVEL = 2

    def eval(self, env):
        return self.a.eval(env) * self.b.eval(env)

    def _eval(self, env, ev):
        return ev(self.a) * ev(self.b)

    def _diff(self, name, d):
        return add(mul(d(self.a), self.b), mul(self.a, d(self.b)))

    def _subst(self, mapping, s):
        return mul(s(self.a), s(self.b))

    def _children(self):
        return (self.a, self.b)

    def _fmt(self):
        return _child(self.a, 2) + "*" + _child(self.b, 3)


@_node
class Div(Expr):
    a: Expr
    b: Expr
    _LEVEL = 2

    def eval(self, env):
        den = _nonzero(self.b.eval(env))        # the denominator first
        return self.a.eval(env) / den

    def _eval(self, env, ev):
        den = _nonzero(ev(self.b))
        return ev(self.a) / den

    def _diff(self, name, d):
        # (a/b)' = a'/b - a*b'/b^2; a'/b where b' is the literal zero, which
        # keeps the guard on b (also 0/b) and has no b^2 that can underflow
        da, db = d(self.a), d(self.b)
        if _is_const(db, 0.0):
            return div(da, self.b)
        return sub(div(da, self.b), div(mul(self.a, db), pow_(self.b, 2)))

    def _subst(self, mapping, s):
        return div(s(self.a), s(self.b))

    def _children(self):
        return (self.a, self.b)

    def _fmt(self):
        return _child(self.a, 2) + "/" + _child(self.b, 3)


@_node
class Pow(Expr):
    base: Expr
    exponent: int
    _LEVEL = 4

    def eval(self, env):
        return _checked_power(self.base.eval(env), self.exponent)

    def _eval(self, env, ev):
        return _checked_power(ev(self.base), self.exponent)

    def _diff(self, name, d):
        k = self.exponent
        if k == 0:
            return _ZERO
        return mul(mul(Num(float(k)), pow_(self.base, k - 1)), d(self.base))

    def _subst(self, mapping, s):
        return pow_(s(self.base), self.exponent)

    def _children(self):
        return (self.base,)

    def _fmt(self):
        return _child(self.base, 5) + "^" + str(self.exponent)


def _check_log(x):
    if _any(x <= 0):
        raise ExprError("domain error: log of a nonpositive value")
    return x


def _check_sqrt(x):
    if _any(x < 0):
        raise ExprError("domain error: sqrt of a negative value")
    return x


# name -> (scalar fn, array fn, domain guard or None)
FUNCTIONS: dict[str, tuple[Callable, Callable, Callable | None]] = {
    "sin": (math.sin, np.sin, None),
    "cos": (math.cos, np.cos, None),
    "tan": (math.tan, np.tan, None),
    "exp": (math.exp, np.exp, None),
    "log": (math.log, np.log, _check_log),
    "sqrt": (math.sqrt, np.sqrt, _check_sqrt),
    "sinh": (math.sinh, np.sinh, None),
    "cosh": (math.cosh, np.cosh, None),
}


def _fn_derivative(name: str, u: Expr) -> Expr:
    if name == "sin":
        return call("cos", u)
    if name == "cos":
        return neg(call("sin", u))
    if name == "tan":
        return div(_ONE, pow_(call("cos", u), 2))
    if name == "exp":
        return call("exp", u)
    if name == "log":
        return div(_ONE, u)
    if name == "sqrt":
        return div(_ONE, mul(Num(2.0), call("sqrt", u)))
    if name == "sinh":
        return call("cosh", u)
    if name == "cosh":
        return call("sinh", u)
    raise ExprError(f"unknown function '{name}'")


@_node
class Call(Expr):
    fn: str
    arg: Expr

    def eval(self, env):
        return _apply(self.fn, self.arg.eval(env))

    def _eval(self, env, ev):
        return _apply(self.fn, ev(self.arg))

    def _diff(self, name, d):
        return mul(_fn_derivative(self.fn, self.arg), d(self.arg))

    def _subst(self, mapping, s):
        return call(self.fn, s(self.arg))

    def _children(self):
        return (self.arg,)

    def _fmt(self):
        return self.fn + "(" + self.arg._fmt() + ")"


# ---------------------------------------------------------------------------
# smart constructors: conservative simplification for derivative/substituted
# trees.  parse() builds raw nodes and never simplifies.

def num(v: float) -> Num:
    v = float(v)
    if v == 0.0 and math.copysign(1.0, v) > 0:      # -0.0 keeps a node of its own
        return _ZERO
    return _ONE if v == 1.0 else Num(v)


def var(name: str) -> Var:
    return Var(name)


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0:
        return Num(a.value / b.value)
    return Div(a, b)


def total(terms: Iterable[Expr]) -> Expr:
    """The symbolic sum of `terms`, added left to right onto the zero leaf:
    total([a, b, c]) is add(add(a, b), c), and total([]) is num(0.0)."""
    return reduce(add, terms, _ZERO)


def pow_(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Num):
        try:
            return Num(float(base.value ** exponent))
        except (OverflowError, ZeroDivisionError):
            pass
    return Pow(base, exponent)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function '{fn}'")
    if isinstance(arg, Num):
        scalar_fn, _, guard = FUNCTIONS[fn]
        try:
            if guard is not None:
                guard(arg.value)
            return Num(scalar_fn(arg.value))
        except (ExprError, ValueError, OverflowError):
            pass
    return Call(fn, arg)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ExprError(f"unexpected character '{text[off]}' at offset {off}", off)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, offset: int | None = None):
        off = self.peek()[2] if offset is None else offset
        raise ExprError(f"{message} at offset {off}", off)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            self.fail(f"unexpected token '{text}'")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            operand = self.unary()
            # fold a negated literal so printed negative numbers round-trip
            if isinstance(operand, Num):
                return Num(-operand.value)
            return Neg(operand)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            k = self.exponent()
            if abs(k) > MAX_EXPONENT:
                self.fail("exponent too large")
            return Pow(base, k)
        return base

    def exponent(self) -> int:
        """Right-associative chain of optionally signed integer literals."""
        sign = 1
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            sign = -sign
        kind, text, off = self.peek()
        if kind != "num" or ("." in text or "e" in text or "E" in text):
            self.fail("exponent must be an integer literal")
        self.advance()
        value = int(text)
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            k = self.exponent()
            if k < 0:
                self.fail("exponent must be an integer literal", off)
            if k > 64 or value ** k > 10 ** 300:
                self.fail("exponent too large", off)
            value = value ** k
        return sign * value

    def atom(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "name":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise ExprError(f"unknown function '{text}' at offset {off}", off)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            return Var(text)
        if (kind, text) == ("op", "("):
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        self.fail("expected operand")

    def expect(self, op: str):
        kind, text, off = self.peek()
        if (kind, text) == ("op", op):
            self.advance()
            return
        self.fail(f"expected '{op}'")


def parse(text: str) -> Expr:
    """Parse source text to an AST.  Raises ExprError with a byte offset."""
    return _Parser(text).parse()


def to_str(e: Expr) -> str:
    """Render an AST back to source; parse(to_str(e)) == e."""
    return str(e)


def evaluate(e: Expr, env: Mapping[str, Value]) -> Value:
    return e.eval(env)


def evaluate_table(exprs: Sequence[Expr], env: Mapping[str, Value],
                   guards: Sequence[Guard] = ()) -> list[Value]:
    """Values of a table of expressions, evaluating each distinct node object
    once across the whole table (a DAG walk).  The values, and the first
    ExprError raised, are those of evaluating the guards' expressions and
    then the entries one by one with `Expr.eval`: nodes are visited in the
    interpreter's order, and a node is skipped only when it has already
    been evaluated without error.  Each det-g guard (`compile_table`) is
    tested as soon as its expression is evaluated, before any entry.  The
    memo of node values is freed when the call returns or raises; a
    `Table` keeps its points."""
    memo: dict[int, Value] = {}

    def ev(e: Expr) -> Value:
        key = id(e)
        if key in memo:
            return memo[key]
        value = memo[key] = e._eval(env, ev)
        return value

    try:
        for e, check in guards:
            det = ev(e)
            if _any(abs(det) < DET_TOL):
                check(det)
        return [ev(e) for e in exprs]
    finally:
        del ev              # the cycle of `d` in `Expr.diff`


def diff(e: Expr, name: str) -> Expr:
    """Exact symbolic partial derivative with conservative simplification."""
    return e.diff(name)


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Substitute expressions for variables (used to compose chart changes)."""
    return e.subst(mapping)


def partials(exprs: Sequence[Expr], names: Sequence[str]) -> list[list[Expr]]:
    """The matrix of first partials: row k holds the derivatives of
    ``exprs[k]`` in each of `names`, in order."""
    return [[diff(e, v) for v in names] for e in exprs]


def free_vars(*exprs: Expr) -> set[str]:
    """Names of the variables the expressions read; each distinct node
    object is visited once."""
    acc: set[str] = set()
    seen: set[int] = set()
    todo = list(exprs)
    while todo:
        e = todo.pop()
        if id(e) not in seen:
            seen.add(id(e))
            if isinstance(e, Var):
                acc.add(e.name)
            else:
                todo.extend(e._children())
    return acc


def foreign_vars(exprs: Sequence[Expr], allowed: Collection[str]) -> tuple[int, list[str]] | None:
    """The index of the first expression that reads a variable outside
    `allowed`, with the sorted names it reads there; None when all are
    allowed.  One `free_vars` pass over all of them, then one per
    expression only when some name is foreign."""
    allowed = set(allowed)
    if free_vars(*exprs) <= allowed:
        return None
    for k, e in enumerate(exprs):
        bad = free_vars(e) - allowed
        if bad:
            return k, sorted(bad)
    return None


# ---------------------------------------------------------------------------
# compiled tables: one straight-line function per table of expressions


def _on_values(scalar_fn: Callable, array_fn: Callable) -> Callable[[Value], Value]:
    def apply(x):
        return array_fn(x) if isinstance(x, np.ndarray) else scalar_fn(x)

    return apply


# names the generated functions use, besides the guards' checks `check0`, `check1`, ...
_TABLE_NAMESPACE: dict[str, object] = {
    "ExprError": ExprError, "DET_TOL": DET_TOL, "_any": _any, "_power": _power,
    "_math_domain": _math_domain,
    **{f"_f_{fn}": _on_values(scalar_fn, array_fn)
       for fn, (scalar_fn, array_fn, _) in FUNCTIONS.items()},
    **{f"_g_{fn}": domain for fn, (_, _, domain) in FUNCTIONS.items() if domain is not None},
}
# the same names in float-only code (`compile_floats`), whose functions are math's
_FLOAT_NAMESPACE: dict[str, object] = {
    **_TABLE_NAMESPACE, **{f"_f_{fn}": scalar_fn for fn, (scalar_fn, _, _) in FUNCTIONS.items()}}
_BINARY = {Add: "+", Sub: "-", Mul: "*"}


def _literal(v: float) -> str:
    text = repr(v) if math.isfinite(v) else f"float({repr(v)!r})"
    return f"({text})" if text.startswith("-") else text


# float calls a table answers by the DAG walk before it compiles: a few
# walks cost less than one compile, which pays back only on reuse
WALK_CALLS = 8


class Table:
    """A table of expressions as a function of the values of `names`, in
    order, returning a tuple with one value per expression (see
    `compile_table`).

    Its first WALK_CALLS calls on floats run `evaluate_table`; the next
    call, or the first call on a numpy array, compiles the table
    (`compiled`) and every later call runs the compiled function.  Both
    tiers compute each node as ``Expr.eval`` does, so they give the same
    values bit for bit and raise the same first error.  The walk tier keeps
    each walked point's values by the exact bits of the arguments (0.0 and
    -0.0 are two points): a call on Python floats at a kept point returns
    them and is not a walk.  A walk that raised keeps nothing.  `freeze`
    binds some names once and for all.  Every tier runs the same det-g
    guards first (`compile_table`).
    """

    __slots__ = ("exprs", "names", "guards", "_walks", "_points", "_fn", "_makers")

    def __init__(self, exprs: Sequence[Expr], names: Sequence[str], guards: Sequence[Guard]):
        self.exprs, self.names, self.guards = list(exprs), list(names), tuple(guards)
        self._walks = 0
        self._points: dict[bytes, tuple] = {}    # argument bits -> walked values
        self._fn: Callable[..., tuple] | None = None
        self._makers: dict[frozenset, Callable[..., Callable[..., tuple]]] = {}

    def __call__(self, *args: Value) -> tuple:
        fn = self._fn
        if fn is None:
            key = (struct.pack(f"{len(args)}d", *args)
                   if all(type(a) is float for a in args) else None)
            got = self._points.get(key)
            if got is not None:
                return got
            if self._walks < WALK_CALLS and not any(isinstance(a, np.ndarray) for a in args):
                if len(args) != len(self.names):
                    raise TypeError(f"table takes {len(self.names)} values, got {len(args)}")
                self._walks += 1
                got = tuple(evaluate_table(self.exprs, dict(zip(self.names, args)), self.guards))
                if key is not None:
                    self._points[key] = got
                return got
            fn = self.compiled()
        return fn(*args)

    def compiled(self) -> Callable[..., tuple]:
        """The table's straight-line function, compiled on first use."""
        if self._fn is None:
            self._fn = _compile(self.exprs, self.names, self.guards)
        return self._fn

    def freeze(self, fixed_names: Sequence[str], values: Sequence[Value]) -> Callable[..., tuple]:
        """The table as a compiled function of its other names, in `names`
        order, with `fixed_names` bound to `values` (partial evaluation).

        Every node that reads only fixed names and literals is computed
        here, once, together with its guards, and so is a det-g guard on
        such a node: a domain error, or a degenerate metric's GeometryError,
        on those nodes raises from `freeze` rather than from the first call.
        The returned function computes the remaining nodes; every value is
        the one the full table computes from the same arguments, bit for
        bit.  The generated code is compiled once per set of fixed names."""
        fixed = frozenset(fixed_names)
        if not (len(fixed) == len(fixed_names) == len(values) and fixed <= set(self.names)):
            raise TypeError(f"cannot freeze {list(fixed_names)} to {len(values)} values "
                            f"in a table of {self.names}")
        make = self._makers.get(fixed)
        if make is None:
            make = self._makers[fixed] = _compile(self.exprs, self.names, self.guards, fixed)
        bound = dict(zip(fixed_names, values))
        return make(*(bound[name] for name in self.names if name in fixed))


def compile_table(exprs: Sequence[Expr], names: Sequence[str],
                  guards: Sequence[Guard] = ()) -> Table:
    """A table of expressions as one function of the values of `names`.

    The function takes one value per name, in order, and returns a tuple
    with one value per expression.  The values may be floats or equally
    shaped numpy arrays; each node computes exactly what ``Expr.eval``
    computes.  It runs as a DAG walk on its first few float calls, which
    keeps each point's values for a repeated call, and then as one compiled
    straight-line Python function (`Table`).  Every domain guard of the
    interpreter is kept, in the interpreter's order, so a table raises the
    ExprError that evaluating its entries one by one would raise first; a
    variable outside `names` raises its "unbound variable" ExprError at the
    first evaluation, compile or freeze, not here.

    ``guards`` holds the det-g guards, ``(det, check)`` pairs such as
    `geometry.Metric.guard`, which every tier computes and tests first, in
    order, before any entry, whether or not an entry reads them: ``check``
    is called with the value of ``det`` only where |det| < DET_TOL (on
    columns, where any element is below), and it must raise there.  The
    test runs inline, so a nondegenerate point makes no call; a literal det
    of at least DET_TOL is not tested at all, and one below raises when the
    code runs its literals (for a frozen or float table, when it is built).
    A division by a guarded det, or a negative power of one, has no zero
    test after it: the det test that passed rules zero out, and a NaN
    passes both alike.
    """
    return Table(exprs, names, guards)


def table_columns(values: Sequence[Value], q: int) -> np.ndarray:
    """A table's values at q points as a (q, k) array, one column per entry;
    a constant entry (a float beside columns) broadcasts down its column."""
    out = np.empty((q, len(values)))
    for k, v in enumerate(values):
        out[:, k] = v
    return out


class _Emitter:
    """The lines of straight-line Python that compute tables of expressions.

    `args` maps each variable name to the operand text that holds its
    value, and each computed node gets one assignment to a temporary, v0,
    v1, ....  Structurally equal subtrees are interned (one
    pass over the trees, memoised by ``id``), a guard that passed is not
    repeated on the same operand, and the guards come in the interpreter's
    order.  A det-g guard (`det_guard`) counts as a passed zero test of its
    operand.  With `floats`, the code runs on Python
    floats only: ``b ** k`` and plain ``== 0`` tests stand for the
    numpy-aware `_power` and `_any`.

    `frozen` holds the operand texts known before the call (`Table.freeze`);
    then literals are frozen too, a node on frozen operands only is frozen,
    and its line goes to `outer` instead of `lines`."""

    def __init__(self, args: Mapping[str, str], floats: bool = False,
                 frozen: set[str] | None = None):
        self.args, self.floats = args, floats
        self.hoist = frozen is not None
        self.frozen = set() if frozen is None else frozen
        self.outer: list[str] = []
        self.lines: list[str] = []
        self.by_id: dict[int, str] = {}      # id(node) -> operand text
        self.by_key: dict[tuple, str] = {}   # structure -> operand text
        self.guarded: set[tuple[str, str]] = set()

    def place(self, operands: Sequence[str], line: str) -> bool:
        # without `frozen`, no operand is frozen and every line goes to `lines`
        if all(o in self.frozen for o in operands):
            self.outer.append(line)
            return True
        self.lines.append(line)
        return False

    def guard(self, key: tuple[str, str], line: str) -> None:
        # a repeat of a passed guard on the same operand cannot fail
        if key not in self.guarded:
            self.guarded.add(key)
            self.place(key[1:], line)

    def det_guard(self, e: Expr, check: str) -> None:
        """Compute `e` and call `check` on it where |e| < DET_TOL; a literal
        is tested here.  A division by `e`, or a negative power of it, then
        needs no zero test."""
        v = self.emit(e)
        if not isinstance(e, Num):
            test = f"abs({v}) < DET_TOL" if self.floats else f"_any(abs({v}) < DET_TOL)"
            self.place([v], f"if {test}: {check}({v})")
        elif abs(e.value) < DET_TOL:
            self.place([v], f"{check}({v})")
        self.guarded.update({("/", v), ("^", v)})

    def zero_guard(self, key: tuple[str, str], message: str) -> None:
        b = key[1]
        test = f"{b} == 0" if self.floats else f"_any({b} == 0)"
        self.guard(key, f"if {test}: raise ExprError({message!r})")

    def intern(self, key: tuple, code: str, *operands: str) -> str:
        got = self.by_key.get(key)
        if got is None:
            got = self.by_key[key] = f"v{len(self.by_key)}"
            if self.place(operands, f"{got} = {code}"):
                self.frozen.add(got)
        return got

    def emit(self, e: Expr) -> str:
        got = self.by_id.get(id(e))
        if got is not None:
            return got
        if isinstance(e, Num):
            got = _literal(e.value)
            if self.hoist:
                self.frozen.add(got)
        elif isinstance(e, Var):
            got = _lookup(self.args, e.name)
        elif isinstance(e, Neg):
            a = self.emit(e.a)
            got = self.intern(("-", a), f"-{a}", a)
        elif type(e) in _BINARY:
            op = _BINARY[type(e)]
            a = self.emit(e.a)
            b = self.emit(e.b)
            got = self.intern((op, a, b), f"{a} {op} {b}", a, b)
        elif isinstance(e, Div):
            b = self.emit(e.b)              # the interpreter checks the denominator first
            self.zero_guard(("/", b), _DIV0)
            a = self.emit(e.a)
            got = self.intern(("/", a, b), f"{a} / {b}", a, b)
        elif isinstance(e, Pow):
            b, k = self.emit(e.base), e.exponent
            if k < 0:
                self.zero_guard(("^", b), _NEG_POW0)
            got = self.intern(("^", b, k), f"{b} ** {k}" if self.floats else f"_power({b}, {k})", b)
        elif isinstance(e, Call):
            x = self.emit(e.arg)
            if FUNCTIONS[e.fn][2] is not None:
                self.guard((e.fn, x), f"_g_{e.fn}({x})")
            got = self.intern((e.fn, x), f"_f_{e.fn}({x})", x)
        else:
            raise ExprError(f"cannot compile node {type(e).__name__}")
        self.by_id[id(e)] = got
        return got


def _caught(lines: Sequence[str]) -> list[str]:
    """`lines` in a try block, free until it raises, whose handler is `_math_domain`."""
    return ["try:", *(f"    {x}" for x in lines),
            "except ValueError:", "    _math_domain()", "    raise"]


def _compile(exprs: Sequence[Expr], names: Sequence[str], guards: Sequence[Guard],
             fixed: Collection[str] | None = None, floats: bool = False) -> Callable:
    """One straight-line function for a table (`_Emitter`): one assignment
    per distinct node, the det-g guards first, in a try block (`_caught`).
    With `floats` it runs on Python floats only.

    With `fixed`, the result is ``make(<fixed args>)`` instead, fixed
    arguments in `names` order.  A node is frozen when all its operands are
    fixed arguments, literals or frozen nodes; `make` computes the frozen
    nodes, with the guards on frozen operands, and returns
    ``table(<other args>)``, which computes the rest."""
    args = {name: f"a{k}" for k, name in enumerate(names)}
    em = _Emitter(args, floats=floats,
                  frozen=None if fixed is None else {args[name] for name in fixed})
    for k, (det, _) in enumerate(guards):
        em.det_guard(det, f"check{k}")
    outs = [em.emit(e) for e in exprs]
    lines = [*em.lines, f"return ({''.join(o + ', ' for o in outs)})"]
    inner = [a for name, a in args.items() if fixed is None or name not in fixed]
    src = [f"def table({', '.join(inner)}):", *(f"    {x}" for x in _caught(lines))]
    if fixed is not None:
        src = [f"def make({', '.join(a for name, a in args.items() if name in fixed)}):",
               *(f"    {x}" for x in [*_caught(em.outer or ["pass"]), *src, "return table"])]
    named = {f"check{k}": check for k, (_, check) in enumerate(guards)}
    return _define(src, dict(_FLOAT_NAMESPACE if floats else _TABLE_NAMESPACE, **named),
                   "<compiled table>", "table" if fixed is None else "make")


# ---------------------------------------------------------------------------
# generated RK4 loops


def compile_floats(exprs: Sequence[Expr], names: Sequence[str],
                   guards: Sequence[Guard] = ()) -> Callable[..., tuple]:
    """A table of expressions as one compiled function on Python floats,
    taking one float per name, in order, and returning one value per
    entry: the form `compile_rk4` calls.

    Each node computes exactly what ``Expr.eval`` computes on floats, with
    the interpreter's guards in its order, after the det-g guards, as in
    `compile_table`.  The nodes that read only literals are computed here,
    once, with their guards, and so are the det tests of such guards
    (`Table.freeze`)."""
    return _compile(exprs, names, guards, (), floats=True)()


def compile_rk4(m: int, rhs: Callable[..., Sequence[float]],
                nonfinite: Callable[[int, int, float], None] | None = None) -> Callable:
    """Classic RK4 for y' = F(s, y), y of m values, as one generated function
    ``run(s0, *y0, ds, steps, rows)`` on Python floats.

    `rhs` is F: ``rhs(s, *y)`` returns the m slopes, and `run` calls it
    once per stage (`compile_floats` makes one from expressions).  `run`
    takes `steps` steps of size `ds` from (s0, y0), in the operation order
    of the same RK4 on numpy vectors, so its values are theirs bit for
    bit: half = 0.5*ds, sixth = ds/6, stage inputs y + half*k1,
    y + half*k2 and y + ds*k3 at s + half, s + half and s + ds, the update
    y + sixth*(k1 + 2*k2 + 2*k3 + k4), then s = s0 + step*ds.  It returns
    the final (s, *y).  `rows`, unless None, is a C-contiguous float64
    array of shape (steps + 1, m + 1): `run` sets rows[step - 1] to (s, *y)
    at the start of each step and rows[steps] to the final one.
    With `nonfinite`, every stage input and the final state are checked
    first, and ``nonfinite(step, steps, s)`` is called (to raise) where one
    of them is not finite.  The source depends only on m and on whether
    `nonfinite` is given: loops of one shape share one code object, compiled
    once per process, and each calls its own `rhs`."""
    ys = [f"y{i}" for i in range(m)]
    body: list[str] = []

    def guard(step: str, at: str, values: Sequence[str]) -> list[str]:
        if nonfinite is None:
            return []
        finite = " and ".join(f"_isfinite({v})" for v in [at, *values])
        return [f"if not ({finite}): nonfinite({step}, steps, {at})"]

    def stage(k: int, at: str, values: Sequence[str]) -> list[str]:
        """The slopes of stage k at (at, values)."""
        slopes = [f"k{k}_{i}" for i in range(m)]
        body.extend(guard("step", at, values))
        body.append(f"{''.join(d + ', ' for d in slopes)}= rhs({at}, {', '.join(values)})")
        return slopes

    def inputs(k: int, scale: str, slopes: Sequence[str]) -> list[str]:
        zs = [f"z{k}_{i}" for i in range(m)]
        body.extend(f"{z} = {y} + {scale}*{d}" for z, y, d in zip(zs, ys, slopes))
        return zs

    k1 = stage(1, "s", ys)
    body.append("sh = s + half")
    k2 = stage(2, "sh", inputs(2, "half", k1))
    k3 = stage(3, "sh", inputs(3, "half", k2))
    body.append("sf = s + ds")
    k4 = stage(4, "sf", inputs(4, "ds", k3))
    updates = [f"{y} + sixth*({a} + 2*{b} + 2*{c} + {d})"
               for y, a, b, c, d in zip(ys, k1, k2, k3, k4)]
    body += [f"{''.join(y + ', ' for y in ys)}= {''.join(u + ', ' for u in updates)}",
             "s = s0 + step*ds"]
    # a row goes into `rows` one float at a time, through a flat view: a
    # tuple assigned to a numpy row costs about twice as much
    store = [f"out[at + {k}] = {v}" for k, v in enumerate(["s", *ys])]
    src = [f"def run(s0, {''.join(y + ', ' for y in ys)}ds, steps, rows):",
           "    half = 0.5*ds",
           "    sixth = ds/6.0",
           "    s = s0",
           "    out = None if rows is None else memoryview(rows).cast('B').cast('d')",
           "    at = 0",
           "    for step in range(1, steps + 1):",
           "        if out is not None:",
           *(f"            {x}" for x in store),
           f"            at += {m + 1}",
           *(f"        {x}" for x in body),
           *(f"    {x}" for x in guard("steps", "s", ys)),
           "    if out is not None:",
           *(f"        {x}" for x in store),
           f"    return (s, {''.join(y + ', ' for y in ys)})"]
    ns = {"_isfinite": math.isfinite, "rhs": rhs, "nonfinite": nonfinite}
    return _define(tuple(src), ns, "<compiled rk4>", "run")
