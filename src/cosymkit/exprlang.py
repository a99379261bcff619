"""Small arithmetic expression language with exact derivatives.

Expressions are parsed against an ordered list of coordinate names and
evaluated at points.  Derivatives come from two engines, and no finite
difference is ever used on raw expressions:

* ``differentiate`` builds the exact symbolic partial derivative as a new
  expression;
* ``value`` and ``jet1`` (value with gradient; ``gradient``) run
  straight-line Python generated from the AST and compiled once per
  expression (per point dimension for ``jet1``): forward-mode propagation
  of the value and the gradient.  The code generator writes the value,
  first derivative and domain checks of each function and of ``^`` once,
  for every mode; the AST nodes hold data only.

A Hessian is the gradient of the symbolic first derivatives: build
``de = [differentiate(e, i) for i in range(d)]`` once (each new expression
compiles on first use) and take ``np.array([di.jet1(x)[1] for di in de])``,
or the same with ``jet1_stack`` on a point stack.  Its entries can be
infinite where a first derivative overflows (``1/q`` at tiny ``q``), so
callers check them.

Domain failures are ``EvalDomainError``s naming the subexpression, and the
generated code raises the first one in post-order.  An overflow of ``exp``,
``^``, ``*`` or ``/`` (finite operands, infinite result) and ``sin`` or
``cos`` of an infinite value are ``EvalDomainError``s too.  ``jet1`` also
raises where the value is defined but the first derivative is not:
``sqrt`` at zero and ``^`` with an exponent strictly between 0 and 1 at a
zero base (``sqrt(q)`` at ``q = 0`` has value 0).
Integer exponents of at least 2 multiply by repeated squaring, so ``q^2``
is ``q*q`` in every mode.

``value_code`` hands the scalar value code of several expressions, in one
body, and ``jet_code`` the gradient code of one expression, to a
caller that generates a function of its own around it.

Every generated source is compiled once per process (:func:`compiled`) and
run in a fresh namespace of its own.  Constants and nodes are bound by name,
never printed, so a code object depends only on its source text, and an
expression parsed again (a scenario loaded again) reuses it.

``value_stack`` and ``jet1_stack`` evaluate the rows of a point stack
``X`` of shape (N, d) at once: the same generated code in array mode, with
columns ``X[:, i]`` for coordinates and ``np.*`` for functions.  The array
code checks no domain; it runs with numpy's overflow, division and invalid
flags raised as errors, and a block that trips one (or holds a non-finite
coordinate) is evaluated row by row with the scalar code, which therefore
gives every value at such a row and raises the first row's error.

The grammar (EBNF in docs/GRAMMAR.ebnf):

    expr    :=  term   (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ['^' factor]       # exponent must fold to a constant
    atom    :=  NUMBER | 'pi' | NAME | FUNC '(' expr ')' | '(' expr ')'

`+ - * /` associate to the left, `^` binds tighter than unary minus and its
exponent subtree may not contain variables.  Whitespace is insignificant and
there is no implicit multiplication.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "ExprError",
    "ParseError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse",
    "to_source",
    "differentiate",
    "is_constant",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Malformed source text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """An identifier that is neither a coordinate, a function nor ``pi``."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class EvalDomainError(ExprError):
    """Evaluation left the domain of a subexpression (log, sqrt, division,
    sin or cos of an infinite value, overflow of exp, ^, * or /, or a
    derivative singular at zero)."""

    #: index of the failing row when a stacked evaluation raised
    row = None

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{to_source(subexpr)}'")
        self.subexpr = subexpr


class Expr:
    """Base class of AST nodes.  Nodes are immutable and safe to share.

    ``value``, ``jet1`` and ``gradient`` run straight-line functions generated
    by ``_compile`` on first use and cached on the node, and so do their
    stacked forms; a plain number is compiled like any other expression.  A
    higher derivative is the ``jet1`` of a ``differentiate`` result.
    """

    _value_fn = None
    _jet1_fns = MappingProxyType({})  # point dimension -> jet1 function
    # None (value) or point dimension -> array function, None if it has none
    _stack_fns = MappingProxyType({})

    def value(self, x) -> float:
        fn = self._value_fn
        if fn is None:
            fn = _compile(self, None)
            object.__setattr__(self, "_value_fn", fn)
        return fn(x)

    def jet1(self, x) -> tuple[float, np.ndarray]:
        d = len(x)
        fn = self._jet1_fns.get(d)
        if fn is None:
            fn = _compile(self, d)
            object.__setattr__(self, "_jet1_fns", {**self._jet1_fns, d: fn})
        return fn(x)

    def gradient(self, x) -> np.ndarray:
        return self.jet1(x)[1]

    def _stack_fn(self, dim: int | None):
        fns = self._stack_fns
        if dim not in fns:
            fns = {**fns, dim: _compile(self, dim, stack=True)}
            object.__setattr__(self, "_stack_fns", fns)
        return fns[dim]

    def value_stack(self, X) -> np.ndarray:
        """Values at the rows of ``X`` (N, d); ``value`` at every row."""
        X = np.asarray(X, dtype=float)
        out = _on_rows(self._stack_fn(None), self.value, X)
        return out if isinstance(out, np.ndarray) else np.array(out, dtype=float)

    def jet1_stack(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Values (N,) and gradients (N, d) at the rows of ``X``; ``jet1`` at
        every row."""
        X = np.asarray(X, dtype=float)
        out = _on_rows(self._stack_fn(X.shape[1]), self.jet1, X)
        if isinstance(out, tuple):
            return out
        values = np.array([v for v, _ in out], dtype=float)
        return values, np.array([g for _, g in out], dtype=float).reshape(X.shape)

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Const(Expr):
    val: float


@dataclass(frozen=True)
class Var(Expr):
    name: str
    index: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """Power with a constant real exponent (folded at parse time)."""

    base: Expr
    exponent: float


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# --- compilation -----------------------------------------------------------
#
# value and jet1 run one straight-line Python function per expression,
# generated from the AST on first use: the source-transformation form of
# forward-mode differentiation (Griewank & Walther, Evaluating Derivatives,
# 2nd ed., SIAM 2008, ch. 3 and 6).  Every gradient component is one local
# float.  Each node applies its rule component by component, without
# constant folding: d(a*b) = a*db + b*da, d(a/b) = (da - (a/b)*db)/b, and a
# Call or Pow scales the argument's gradient by its first derivative.  The
# value, first derivative and domain checks of each function and of ^ are
# written once, in _Emitter._call and _Emitter._pow, for every mode.  Second
# derivatives are not propagated; they are the jet1 of differentiate's
# expressions, the second engine.
#
# The array mode emits the same code on columns (Harris et al., Array
# programming with NumPy, Nature 585, 2020).  + - * / and the products of
# integer powers give the scalar code's bits; np.exp, np.log and np.power may
# differ from math.* in the last place.  It checks no domain: every domain
# error of the scalar code sets numpy's overflow, division or invalid flag at
# finite coordinates and constants, and _on_rows hands such blocks to the
# scalar code.

class _Emitter:
    """Post-order code generator for one expression.

    With ``dim`` None it emits the value only; otherwise the value and the
    gradient at points of dimension ``dim``; with ``stack`` it emits array
    code without domain checks.  Constants and nodes are bound by name in the
    function's namespace, never printed as literals.  A subtree object that
    occurs twice is evaluated once: it would compute the same bits, or raise
    at its first occurrence.
    """

    def __init__(self, dim: int | None, stack: bool = False):
        self.dim = dim
        self.stack = stack
        self.finite = True  # every bound constant is finite
        self.lines: list[str] = []
        self.coords: set[int] = set()
        self.env = {"_E": EvalDomainError, "_array": np.array, "_empty": np.empty}
        self.env["_pow"] = np.power if stack else math.pow
        lib = np if stack else math
        self.env.update((f"_{fn}", getattr(lib, fn)) for fn in FUNCTIONS)
        self.refs: dict[int, tuple[str, list[str]]] = {}
        self.count = 0

    def bind(self, obj) -> str:
        if isinstance(obj, float) and not math.isfinite(obj):
            self.finite = False
        name = f"k{len(self.env)}"
        self.env[name] = obj
        return name

    def temp(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def assign(self, src: str) -> str:
        name = self.temp()
        self.lines.append(f"{name} = {src}")
        return name

    def raise_if(self, cond: str, message: str, node: str):
        if not self.stack:
            self.lines.append(f"if {cond}: raise _E({message!r}, {node})")

    def checked(self, src: str, node: str, error: str, message: str) -> str:
        """Assign ``src``; scalar code raises ``_E(message, node)`` on
        ``error``."""
        if self.stack:
            return self.assign(src)
        name = self.temp()
        self.lines += [
            "try:",
            f"    {name} = {src}",
            f"except {error}:",
            f"    raise _E({message!r}, {node}) from None",
        ]
        return name

    def power(self, u: str, n: int) -> str:
        """``u^n`` for an int ``n >= 1`` by repeated squaring."""
        result = None
        while True:
            if n & 1:
                result = u if result is None else self.assign(f"{result} * {u}")
            n >>= 1
            if not n:
                return result
            u = self.assign(f"{u} * {u}")

    def emit(self, e: Expr) -> tuple[str, list[str]]:
        """Names of the value and of the gradient components of ``e``."""
        ref = self.refs.get(id(e))
        if ref is None:
            ref = self.refs[id(e)] = self._emit(e)
        return ref

    def _emit(self, e: Expr) -> tuple[str, list[str]]:
        d = self.dim or 0
        if isinstance(e, Const):
            return self.bind(e.val), ["0.0"] * d
        if isinstance(e, Var):
            self.coords.add(e.index)
            return f"x{e.index}", ["1.0" if k == e.index else "0.0" for k in range(d)]
        if isinstance(e, Neg):
            a, ga = self.emit(e.arg)
            return self.assign(f"-{a}"), [self.assign(f"-{g}") for g in ga]
        if isinstance(e, (Add, Sub, Mul, Div)):
            a, ga = self.emit(e.lhs)
            b, gb = self.emit(e.rhs)
            if isinstance(e, Add):
                return self.assign(f"{a} + {b}"), [
                    self.assign(f"{g} + {h}") for g, h in zip(ga, gb)
                ]
            if isinstance(e, Sub):
                return self.assign(f"{a} - {b}"), [
                    self.assign(f"{g} - {h}") for g, h in zip(ga, gb)
                ]
            node = self.bind(e)
            if isinstance(e, Div):
                self.raise_if(f"{b} == 0.0", "division by zero", node)
            v = self.assign(f"{a} * {b}" if isinstance(e, Mul) else f"{a} / {b}")
            overflow = f"{v} - {v} != 0.0 and {a} - {a} == 0.0 and {b} - {b} == 0.0"
            self.raise_if(overflow, "overflow", node)  # of finite operands, as for ^
            if isinstance(e, Mul):
                return v, [self.assign(f"{a} * {h} + {b} * {g}") for g, h in zip(ga, gb)]
            return v, [self.assign(f"({g} - {v} * {h}) / {b}") for g, h in zip(ga, gb)]
        if isinstance(e, Pow):
            u, gu = self.emit(e.base)
            v, d1 = self._pow(e, u, self.bind(e))
        else:
            u, gu = self.emit(e.arg)
            v, d1 = self._call(e, u, self.bind(e))
        return v, [self.assign(f"{d1} * {g}") for g in gu]

    def _pow(self, e: Pow, u: str, node: str) -> tuple[str, str | None]:
        """Value of ``u^c`` with its domain checks and, unless ``dim`` is
        None, its first derivative ``c*u^(c-1)`` with the derivative's own
        checks."""
        c = e.exponent
        jet = self.dim is not None
        if c >= 2.0 and c.is_integer():
            # repeated squaring in every mode; a finite base that overflowed
            # raises
            n = int(c)
            v = self.power(u, n)
            self.raise_if(f"{v} - {v} != 0.0 and {u} - {u} == 0.0", "overflow", node)
            if not jet:
                return v, None
            return v, self.assign(f"{self.bind(c)} * {self.power(u, n - 1)}")
        if c != round(c):
            self.raise_if(f"{u} < 0.0", "negative base with non-integer exponent", node)
        if c < 0.0:
            self.raise_if(f"{u} == 0.0", "zero base with negative exponent", node)
        v = self.checked(f"_pow({u}, {self.bind(c)})", node, "OverflowError", "overflow")
        if not jet:
            return v, None
        if c == 0.0 or c == 1.0:
            return v, self.bind(c)
        if c < 1.0:
            self.raise_if(f"{u} == 0.0", "derivative singular at zero base", node)
        d1 = f"{self.bind(c)} * _pow({u}, {self.bind(c - 1.0)})"
        return v, self.checked(d1, node, "OverflowError", "overflow")

    def _call(self, e: Call, u: str, node: str) -> tuple[str, str | None]:
        """Value of ``fn(u)`` with its domain checks and, unless ``dim`` is
        None, its first derivative with the derivative's own checks."""
        fn, d1 = e.fn, None
        jet = self.dim is not None
        if fn == "sin" or fn == "cos":
            message = f"{fn} of infinite value"
            v = self.checked(f"_{fn}({u})", node, "ValueError", message)
            if jet:
                d1 = self.assign(f"_cos({u})" if fn == "sin" else f"-_sin({u})")
        elif fn == "exp":
            v = d1 = self.checked(f"_exp({u})", node, "OverflowError", "overflow")
        elif fn == "log":
            self.raise_if(f"{u} <= 0.0", "log of non-positive value", node)
            v = self.assign(f"_log({u})")
            if jet:
                d1 = self.assign(f"1.0 / {u}")
        elif fn == "sqrt":
            self.raise_if(f"{u} < 0.0", "sqrt of negative value", node)
            if jet:
                self.raise_if(f"{u} == 0.0", "sqrt derivative singular at zero", node)
            v = self.assign(f"_sqrt({u})")
            if jet:
                d1 = self.assign(f"0.5 / {v}")
        else:
            raise ExprError(f"unknown function '{fn}'")
        return v, d1


def _compile(e: Expr, dim: int | None, stack: bool = False):
    """Generate, compile and return the value or jet1 function of ``e``; in
    array mode None when a constant is not finite (the flags could miss a
    domain error then)."""
    em = _Emitter(dim, stack)
    v, g = em.emit(e)
    if stack:
        if not em.finite:
            return None
        body = [f"x{i} = X[:, {i}]" for i in sorted(em.coords)] + em.lines
        body += ["v = _empty(len(X))", f"v[:] = {v}"]
        if dim is None:
            body.append("return v")
        else:
            body.append(f"G = _empty((len(X), {dim}))")
            body += [f"G[:, {k}] = {gk}" for k, gk in enumerate(g)]
            body.append("return v, G")
        src = "def f(X):\n" + "".join(f"    {line}\n" for line in body)
    else:
        body = _point_lines(em)
        if dim is None:
            body.append(f"return {v}")
        else:
            body.append(f"return {v}, _array(({''.join(r + ', ' for r in g)}))")
        src = "def f(x):\n" + "".join(f"    {line}\n" for line in body)
    exec(compiled(src, f"<compiled {to_source(e)}>"), em.env)
    return em.env["f"]


@functools.cache
def compiled(src: str, filename: str):
    """The code object of the module source ``src``, compiled on the first
    request for it in this process.  Callers exec it into a namespace of
    their own, which holds every value the code reads by name."""
    return compile(src, filename, "exec")


def value_code(exprs) -> tuple[list[str], list[str], dict]:
    """Straight-line scalar code for the values of ``exprs`` at a point
    ``x``, for a caller to embed in a function it generates.

    Returns the lines, the name holding each expression's value, and the
    namespace the lines run in.  They raise the first domain error that
    calling ``value`` on each expression in turn would: a subtree object
    shared between expressions is evaluated once, at its first occurrence.
    The lines bind only names that start with ``x``, ``t``, ``k`` or ``_``.
    """
    em = _Emitter(None)
    names = [em.emit(e)[0] for e in exprs]
    return _point_lines(em), names, em.env


def jet_code(e: Expr, dim: int) -> tuple[list[str], list[str], dict]:
    """Straight-line scalar code for the gradient of ``e`` at a point ``x``
    of dimension ``dim``: ``jet1``'s code, for a caller to embed in a
    function it generates.

    Returns the lines, the names (or float literals) of the ``dim`` gradient
    components, and the namespace the lines run in.  They raise ``jet1``'s
    first domain error and bind only names that start with ``x``, ``t``,
    ``k`` or ``_``.
    """
    em = _Emitter(dim)
    gradient = em.emit(e)[1]
    return _point_lines(em), gradient, em.env


def _point_lines(em: _Emitter) -> list[str]:
    """The emitted lines after reading the coordinates they use off ``x``."""
    return [f"x{i} = float(x[{i}])" for i in sorted(em.coords)] + em.lines


def _on_rows(fn, scalar, X: np.ndarray):
    """``fn(X)`` under raised floating-point flags; on a flag, a non-finite
    coordinate or without ``fn``, the list of ``scalar`` at every row, whose
    first error carries its ``row``."""
    if fn is not None and np.isfinite(X).all():
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return fn(X)
        except FloatingPointError:
            pass
    rows = []
    for k, x in enumerate(X):
        try:
            rows.append(scalar(x))
        except EvalDomainError as err:
            err.row = k
            raise
    return rows


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character '{src[at]}'", at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, names):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.names = {n: i for i, n in enumerate(names)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", offset)
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            expo_offset = self.peek()[2]
            expo = self.parse_factor()
            if not is_constant(expo):
                raise ParseError("exponent must be constant", expo_offset)
            c = expo.value(np.zeros(0))
            if not math.isfinite(c):
                raise ParseError("exponent must be finite", expo_offset)
            return Pow(base, c)
        return base

    def parse_atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text == "pi":
                return Const(math.pi)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in self.names:
                nxt_kind, nxt_text, nxt_offset = self.peek()
                if nxt_kind == "op" and nxt_text == "(":
                    raise ParseError(f"'{text}' is not a function", nxt_offset)
                return Var(text, self.names[text])
            raise UnknownIdentifierError(text, offset)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a value", offset)


def parse(src: str, chart) -> Expr:
    """Parse ``src`` against a chart (anything with ``.names``) or a name list.

    Raises ParseError (with byte offset) on malformed input and
    UnknownIdentifierError for identifiers not declared in the chart.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    names = getattr(chart, "names", chart)
    parser = _Parser(src, names)
    node = parser.parse_expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input '{text}'", offset)
    return node


# --- pretty printing -------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _format_const(v: float) -> str:
    if v == math.pi:
        return "pi"
    if v < 0:
        # negative literals re-parse as Neg(Const); print through Neg instead
        return f"-{_format_const(-v)}"
    return repr(v)


def to_source(e: Expr, parent_prec: int = 0) -> str:
    """Render an AST back to parseable source.

    ``parse(to_source(parse(s)))`` reproduces the AST of ``parse(s)`` up to
    negative literals, which print as unary minus.
    """
    if isinstance(e, Const):
        if e.val < 0:
            return to_source(Neg(Const(-e.val)), parent_prec)
        text = _format_const(e.val)
        return text
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    prec = _PREC[type(e)]
    if isinstance(e, Neg):
        text = f"-{to_source(e.arg, prec)}"
    elif isinstance(e, Pow):
        # a leading '-' re-parses as a constant-folded unary minus, so the
        # exponent never needs parentheses
        text = f"{to_source(e.base, prec + 1)}^{_format_const(e.exponent)}"
    else:
        op = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}[type(e)]
        # left-associative: right child needs parens at equal precedence
        text = (
            f"{to_source(e.lhs, prec)}{op}{to_source(e.rhs, prec + 1)}"
        )
    if prec < parent_prec:
        return f"({text})"
    return text


# --- structural helpers ----------------------------------------------------

def is_constant(e: Expr) -> bool:
    """True when no Var node occurs in the AST."""
    if isinstance(e, Var):
        return False
    if isinstance(e, (Const,)):
        return True
    if isinstance(e, (Neg, Call)):
        return is_constant(e.arg)
    if isinstance(e, Pow):
        return is_constant(e.base)
    return is_constant(e.lhs) and is_constant(e.rhs)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.val == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.val == 1.0


def add(a: Expr, b: Expr) -> Expr:
    """Sum with zero pruning (used when assembling derivatives)."""
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Const(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def differentiate(e: Expr, index: int) -> Expr:
    """Exact symbolic partial derivative with respect to coordinate ``index``.

    Only trivial zero/one factors are pruned; no other simplification is
    attempted.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.index == index else 0.0)
    if isinstance(e, Neg):
        d = differentiate(e.arg, index)
        return Const(0.0) if _is_zero(d) else Neg(d)
    if isinstance(e, Add):
        return add(differentiate(e.lhs, index), differentiate(e.rhs, index))
    if isinstance(e, Sub):
        return sub(differentiate(e.lhs, index), differentiate(e.rhs, index))
    if isinstance(e, Mul):
        return add(
            mul(differentiate(e.lhs, index), e.rhs),
            mul(e.lhs, differentiate(e.rhs, index)),
        )
    if isinstance(e, Div):
        num = sub(
            mul(differentiate(e.lhs, index), e.rhs),
            mul(e.lhs, differentiate(e.rhs, index)),
        )
        if _is_zero(num):
            return Const(0.0)
        return Div(num, Mul(e.rhs, e.rhs))
    if isinstance(e, Pow):
        du = differentiate(e.base, index)
        if _is_zero(du) or e.exponent == 0.0:
            return Const(0.0)
        if e.exponent == 1.0:
            return du
        scaled = mul(Const(e.exponent), Pow(e.base, e.exponent - 1.0))
        return mul(scaled, du)
    if isinstance(e, Call):
        du = differentiate(e.arg, index)
        if _is_zero(du):
            return Const(0.0)
        if e.fn == "sin":
            outer = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = Neg(Call("sin", e.arg))
        elif e.fn == "exp":
            outer = Call("exp", e.arg)
        elif e.fn == "log":
            return Div(du, e.arg)
        elif e.fn == "sqrt":
            return Div(du, Mul(Const(2.0), Call("sqrt", e.arg)))
        else:
            raise ExprError(f"unknown function '{e.fn}'")
        return mul(outer, du)
    raise ExprError(f"cannot differentiate node {type(e).__name__}")
