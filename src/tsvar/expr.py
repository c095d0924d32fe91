"""Scalar expressions over the reserved variables ``t, x, v, z, u, lam``.

Grammar (lowest to highest binding): ``+ -``; ``* /``; ``^`` (right
associative); unary minus and function calls.  Note that unary minus binds
tighter than ``^``, so ``-v^2`` parses as ``(-v)^2``; write ``-(v^2)`` for
the other reading.  Functions: ``sqrt exp log sin cos``.

The variable roles used throughout the package: ``t`` is time, ``x`` the
sigma-shifted state, ``v`` the delta derivative of the state (or the
sigma-shifted control in control problems, where it is spelled ``u``),
``z`` the free end value, and ``lam`` the sigma-shifted multiplier.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary",
    "VARIABLES", "FUNCTIONS",
    "parse", "evaluate", "diff", "to_text", "variables", "substitute", "compile_fn",
]

VARIABLES = ("t", "x", "v", "z", "u", "lam")
FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")

# Cache bounds: a sweep builds a new expression per value.  One solve on the
# integers 0..8, from empty caches, fills 68 ``diff`` and 8 ``compile_fn``
# entries for ``sqrt(1 + v^2) + 2*(z - 1)^2 + 0.5*cos(x)`` (its ``g = u``
# form, the only one evaluated), and 59 and 6 for the control problem
# ``u^2 + x^2 + 3*(z - 1)^2``, ``g = u - 0.5*x``; reading either report adds
# none.  Each of those kernels has a shape of its own.  ``compile_fn`` keeps
# one kernel per tree but compiles one source per shape, the tree with its
# constants as names: sweep rows that differ only in a constant share every
# shape, so a sweep compiles as often as one row.
_DIFF_CACHE_SIZE = 1024
_COMPILE_CACHE_SIZE = 256


@dataclass(frozen=True, slots=True)
class Expr:
    """Immutable expression tree node.

    Nodes compare structurally and keep their structural hash once computed,
    so a cache lookup of a tree that shares its subtrees with earlier ones
    hashes only the new nodes.  Nodes have slots and no ``__dict__``.
    """

    # the node's own hash, set on its first hash; a field, so that every node
    # has the slot from construction on and no lookup has to fall back
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __str__(self) -> str:
        return to_text(self)


def _getstate(node: Expr) -> tuple:
    # the kept hash depends on this process's string hashing, so it stays behind
    return tuple(getattr(node, f.name) for f in fields(node) if f.init)


def _setstate(node: Expr, state: tuple) -> None:
    names = [f.name for f in fields(node) if f.init]
    for name, value in zip(names, state):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_hash", None)


def _node(cls):
    """Frozen slotted dataclass whose structural hash is computed once per node."""
    cls = dataclass(frozen=True, slots=True)(cls)
    structural = cls.__hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    cls.__getstate__, cls.__setstate__ = _getstate, _setstate
    return cls


@_node
class Const(Expr):
    value: float


@_node
class Var(Expr):
    name: str


@_node
class Unary(Expr):
    op: str  # neg | sqrt | exp | log | sin | cos
    arg: Expr


@_node
class Binary(Expr):
    op: str  # add | sub | mul | div | pow
    left: Expr
    right: Expr


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            # skip pure whitespace tail
            if src[pos:].strip() == "":
                break
            bad = src[pos:].lstrip()
            raise ParseError(f"unexpected character {bad[0]!r}", len(src) - len(bad))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# -- recursive-descent parser ----------------------------------------------


class _Parser:
    def __init__(self, src: str, bound: frozenset[str]):
        self.src = src
        self.tokens = _tokenize(src)
        self.bound = bound
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.add_expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return e

    def add_expr(self) -> Expr:
        e = self.mul_expr()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.mul_expr()
                e = Binary("add" if text == "+" else "sub", e, rhs)
            else:
                return e

    def mul_expr(self) -> Expr:
        e = self.pow_expr()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.pow_expr()
                e = Binary("mul" if text == "*" else "div", e, rhs)
            else:
                return e

    def pow_expr(self) -> Expr:
        base = self.unary_expr()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Binary("pow", base, self.pow_expr())  # right associative
        return base

    def unary_expr(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.unary_expr())
        if kind == "op" and text == "+":
            self.advance()
            return self.unary_expr()
        return self.atom()

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                arg = self.add_expr()
                k2, t2, p2 = self.peek()
                if k2 == "op" and t2 == ",":
                    raise ParseError(f"{text} takes exactly one argument", p2)
                self.expect_op(")")
                return Unary(text, arg)
            if text not in VARIABLES and text not in self.bound:
                raise ParseError(
                    f"unknown identifier {text!r} (missing parameter substitution?)", pos
                )
            return Var(text)
        if kind == "op" and text == "(":
            e = self.add_expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse(src: str, bound: Iterable[str] = ()) -> Expr:
    """Parse expression text into a structurally faithful tree (no folding).

    Names in ``bound`` parse as variables besides the reserved ones, to be
    replaced later with :func:`substitute` (problem-file parameters).
    """
    return _Parser(src, frozenset(bound)).parse()


# -- printer ---------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3, "neg": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return _PREC["neg"] if e.op == "neg" else 6
    return 6


def to_text(e: Expr) -> str:
    """Parseable text; reparsing evaluates identically and rebuilds the
    identical tree except for negative literals, which the grammar can only
    spell as negated positive ones."""
    if isinstance(e, Const):
        return f"{e.value:.17g}" if e.value >= 0 else f"({e.value:.17g})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_text(e.arg)
            if _prec(e.arg) <= _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_text(e.arg)})"
    assert isinstance(e, Binary)
    sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[e.op]
    p = _PREC[e.op]
    left, right = to_text(e.left), to_text(e.right)
    if e.op == "pow":
        if _prec(e.left) <= p:
            left = f"({left})"
        if _prec(e.right) < p:
            right = f"({right})"
    else:
        if _prec(e.left) < p:
            left = f"({left})"
        if _prec(e.right) <= p:
            right = f"({right})"
    return f"{left}{sym}{right}"


# -- evaluation --------------------------------------------------------------

_FN = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos}


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with every occurring variable bound in ``env``.

    Domain failures (square root of a negative, log of a non-positive,
    division by zero, negative base under a fractional power) raise
    :class:`EvalError` naming the offending subexpression.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Unary):
        a = evaluate(e.arg, env)
        if e.op == "neg":
            return -a
        try:
            return _FN[e.op](a)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"domain error: {exc}", to_text(e)) from None
    assert isinstance(e, Binary)
    a = evaluate(e.left, env)
    b = evaluate(e.right, env)
    try:
        if e.op == "add":
            return a + b
        if e.op == "sub":
            return a - b
        if e.op == "mul":
            return a * b
        if e.op == "div":
            return a / b
        return math.pow(a, b)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalError(f"domain error: {exc}", to_text(e)) from None


def variables(e: Expr) -> frozenset[str]:
    """Names of the variables occurring in ``e``."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables(e.arg)
    if isinstance(e, Binary):
        return variables(e.left) | variables(e.right)
    return frozenset()


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every occurrence of variable ``name`` by ``replacement``.

    Subtrees without ``name`` are returned as they are, not copied.
    """
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Unary):
        arg = substitute(e.arg, name, replacement)
        return e if arg is e.arg else Unary(e.op, arg)
    if isinstance(e, Binary):
        left = substitute(e.left, name, replacement)
        right = substitute(e.right, name, replacement)
        return e if left is e.left and right is e.right else Binary(e.op, left, right)
    return e


# -- differentiation ----------------------------------------------------------

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("add", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("sub", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("mul", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return _ZERO
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Binary("div", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Unary("neg", a)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    return Binary("pow", a, b)


@lru_cache(maxsize=_DIFF_CACHE_SIZE)
def diff(e: Expr, wrt: str) -> Expr:
    """Symbolic partial derivative with constant folding.

    Powers with a constant exponent use the power rule; a non-constant
    exponent goes through the ``exp(e2*log(e1))`` form and inherits its
    domain restriction.
    """
    if wrt not in VARIABLES:
        raise ValueError(f"cannot differentiate with respect to {wrt!r}")
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == wrt else _ZERO
    if isinstance(e, Unary):
        da = diff(e.arg, wrt)
        if e.op == "neg":
            return _neg(da)
        if e.op == "sqrt":
            return _div(da, _mul(Const(2.0), Unary("sqrt", e.arg)))
        if e.op == "exp":
            return _mul(da, e)
        if e.op == "log":
            return _div(da, e.arg)
        if e.op == "sin":
            return _mul(da, Unary("cos", e.arg))
        if e.op == "cos":
            return _neg(_mul(da, Unary("sin", e.arg)))
        raise ValueError(f"unknown unary operator {e.op!r}")
    assert isinstance(e, Binary)
    if e.op == "add":
        return _add(diff(e.left, wrt), diff(e.right, wrt))
    if e.op == "sub":
        return _sub(diff(e.left, wrt), diff(e.right, wrt))
    if e.op == "mul":
        return _add(_mul(diff(e.left, wrt), e.right), _mul(e.left, diff(e.right, wrt)))
    if e.op == "div":
        num = _sub(_mul(diff(e.left, wrt), e.right), _mul(e.left, diff(e.right, wrt)))
        return _div(num, _pow(e.right, Const(2.0)))
    # pow
    base, expo = e.left, e.right
    if isinstance(expo, Const):
        inner = _mul(Const(expo.value), _pow(base, Const(expo.value - 1.0)))
        return _mul(inner, diff(base, wrt))
    # general case: a^b = exp(b*log(a))
    term = _add(_mul(diff(expo, wrt), Unary("log", base)),
                _mul(expo, _div(diff(base, wrt), base)))
    return _mul(e, term)


# -- compilation --------------------------------------------------------------


def _py_src(e: Expr, consts: list) -> str:
    """Python source of ``e`` with each ``Const`` spelled ``_c<k>``, its
    value appended to ``consts`` at index ``k``."""
    if isinstance(e, Const):
        consts.append(e.value)
        return f"_c{len(consts) - 1}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{_py_src(e.arg, consts)})"
        return f"{e.op}({_py_src(e.arg, consts)})"
    assert isinstance(e, Binary)
    a, b = _py_src(e.left, consts), _py_src(e.right, consts)
    if e.op == "pow":
        return f"_pow({a}, {b})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
    return f"({a} {sym} {b})"


_SCALAR_NS = {
    "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
    "sin": math.sin, "cos": math.cos, "_pow": math.pow,
}
_ARRAY_NS = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "_pow": np.power,
}


@lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _compile_shape(src: str, array: bool) -> Callable[..., Callable[..., float]]:
    """The factory ``src`` defines: given the constants, it returns the kernel."""
    ns = dict(_ARRAY_NS if array else _SCALAR_NS)
    exec(compile(src, "<expr>", "exec"), ns)  # noqa: S102 - generated from our own AST
    return ns["_bind"]


@lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def compile_fn(e: Expr, array: bool = False) -> Callable[..., float]:
    """Compile to a positional callable ``f(t, x, v, z, u, lam)``.

    The source is compiled once per shape: each constant is a name, bound
    as a closure cell of the returned kernel, so trees that differ only in
    their constants share one code object.  Arithmetic on the bound doubles
    gives the same bits as the literals did.  ``compile_fn.cache_clear()``
    empties the shapes too, and :mod:`tsvar.conditions` adds the memo of
    its sampler's starting state.

    Domain failures surface as ``ValueError`` / ``ZeroDivisionError`` /
    ``OverflowError`` from the math library; callers on hot paths catch
    those instead of paying for the interpreted walk of :func:`evaluate`.
    With ``array`` the same source runs on numpy arrays with numpy's
    functions: domain failures become NaN or infinite entries (with numpy's
    floating-point warnings), which the caller checks for.
    """
    consts: list = []
    body = _py_src(e, consts)
    names = "".join(f"_c{k}, " for k in range(len(consts)))
    src = (f"def _bind({names}):\n"
           f"    def _f(t=0.0, x=0.0, v=0.0, z=0.0, u=0.0, lam=0.0):\n"
           f"        return {body}\n"
           f"    return _f\n")
    return _compile_shape(src, array)(*consts)


def _clear_compiled(clear_kernels=compile_fn.cache_clear) -> None:
    clear_kernels()
    _compile_shape.cache_clear()


compile_fn.cache_clear = _clear_compiled
