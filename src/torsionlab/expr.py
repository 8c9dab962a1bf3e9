"""Symbolic scalar expressions over a named coordinate chart.

Expressions are immutable ASTs built from exact rational constants, chart
variables, the four arithmetic operations, bounded integer
powers, unary negation and real square/cube roots.  They support exact
symbolic partial differentiation and IEEE-double evaluation (pointwise or
vectorized over a batch of points) with singularity guards.

The concrete grammar accepted by :func:`parse_expr`::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')' | ('-'|'sqrt'|'cbrt') base

Numbers are decimal literals; rationals like ``1/2`` arrive through constant
folding of the division node.  Identifiers must name chart variables (ASCII,
e.g. ``x1`` ... ``x7``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConstantRangeError,
    DimensionMismatchError,
    DomainExhaustedError,
    EvalDomainError,
    ExprParseError,
    SingularityError,
    UnknownVariableError,
)

SINGULARITY_EPS = 1e-12  # absolute: a divisor's scale follows the coordinates'
MAX_POW_EXPONENT = 64
MAX_CONSECUTIVE_REJECTIONS = 1_000_000


# ---------------------------------------------------------------------------
# chart and AST node types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """A local coordinate chart: a dimension and distinct variable names.

    The default names ``x1`` .. ``xn`` are never spelled out: ``var_names``
    stays empty for them (also when they are passed), so a chart costs the
    same at every dimension and has one spelling.
    """

    dim: int
    var_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        names = tuple(self.var_names)
        if names:
            if len(names) != self.dim:
                raise ValueError("need exactly one name per dimension")
            if len(set(names)) != len(names) or any(not n for n in names):
                raise ValueError("variable names must be distinct and nonempty")
            if all(name == f"x{i + 1}" for i, name in enumerate(names)):
                names = ()
        object.__setattr__(self, "var_names", names)

    def name(self, index: int) -> str:
        return self.var_names[index] if self.var_names else f"x{index + 1}"

    def index_of(self, name: str) -> int | None:
        """The index of the variable called ``name``, or None if there is none."""
        if self.var_names:
            return self.var_names.index(name) if name in self.var_names else None
        digits = name[1:]
        if name[:1] != "x" or not digits.isdecimal() or len(digits) > len(str(self.dim)):
            return None
        k = int(digits)
        return k - 1 if name == f"x{k}" and 1 <= k <= self.dim else None


class Expr:
    """Base class of all AST nodes.  Nodes are immutable and hashable."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent: int):
        return pow_int(self, exponent)

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True, eq=True)
class Const(Expr):
    value: Fraction

    def __repr__(self):
        return f"Const({self.value})"


@dataclass(frozen=True, eq=True)
class Var(Expr):
    index: int

    def __repr__(self):
        return f"Var({self.index})"


@dataclass(frozen=True, eq=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, eq=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True, eq=True)
class Cbrt(Expr):
    arg: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(value) -> Const:
    """Exact rational constant node."""
    return Const(Fraction(value))


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return const(value)


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# Light algebraic constructors.  They fold identities with 0 and 1 and
# combine constants; they never drop a non-constant subtree's singularities
# except through multiplication by an exact zero (acceptable for the
# derivative trees they are used to build).

def add(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Sub(a, b)


def mul(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if _is_const(b) and b.value != 0:
        if _is_const(a):
            return Const(a.value / b.value)
        if b.value == 1:
            return a
    if _is_const(a, 0) and not _is_const(b, 0):
        return ZERO
    return Div(a, b)


def neg(a) -> Expr:
    a = _coerce(a)
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_int(base, exponent: int) -> Expr:
    base = _coerce(base)
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if _is_const(base) and exponent > 0:
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def sqrt(a) -> Expr:
    return Sqrt(_coerce(a))


def cbrt(a) -> Expr:
    return Cbrt(_coerce(a))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+|\.\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExprParseError(f"unexpected character {text[bad_at]!r}", text, bad_at)
        for kind in ("number", "ident", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprParseError(f"expected {op!r}", self.text, pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected token {val!r}", self.text, pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                if val == "*":
                    e = Mul(e, rhs)
                else:
                    e = self._fold_div(e, rhs)
            else:
                return e

    @staticmethod
    def _fold_div(a: Expr, b: Expr) -> Expr:
        # exact rational constants: "1/2" denotes the number one half
        if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
            return Const(a.value / b.value)
        return Div(a, b)

    def factor(self) -> Expr:
        e = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            e = Pow(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "number" or "." in val:
            raise ExprParseError("expected integer exponent", self.text, pos)
        self.advance()
        exponent = sign * int(val)
        if abs(exponent) > MAX_POW_EXPONENT:
            raise ExprParseError(
                f"exponent magnitude exceeds {MAX_POW_EXPONENT}", self.text, pos
            )
        return exponent

    def base(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "number":
            return Const(Fraction(val))
        if kind == "ident":
            if val == "sqrt":
                return Sqrt(self.base())
            if val == "cbrt":
                return Cbrt(self.base())
            index = self.chart.index_of(val)
            if index is not None:
                return Var(index)
            raise UnknownVariableError(f"unknown variable {val!r}", self.text, pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and val == "-":
            inner = self.base()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        raise ExprParseError(f"unexpected token {val!r}" if val else "unexpected end of input",
                             self.text, pos)


def parse_expr(text: str, chart: Chart) -> Expr:
    """Parse ``text`` into an AST over ``chart``.

    Raises :class:`ExprParseError` (with position) on syntax errors and
    :class:`UnknownVariableError` on unknown identifiers.
    """
    return _Parser(text, chart).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _fmt_const(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_expr(e: Expr, chart: Chart | None = None) -> str:
    """Render ``e`` so that re-parsing reproduces the same AST."""
    var_name = chart.name if chart is not None else Chart(1).name  # x1, x2, ...

    # precedence levels: 0 expr, 1 term, 2 factor, 3 base
    def walk(node: Expr, level: int) -> str:
        if isinstance(node, Const):
            s = _fmt_const(node.value)
            # a negative or fractional literal is not a single base token
            if level >= 3 and (node.value < 0 or node.value.denominator != 1):
                return f"({s})"
            if level >= 1 and node.value < 0:
                return f"({s})"
            if level >= 2 and node.value.denominator != 1:
                return f"({s})"
            return s
        if isinstance(node, Var):
            return var_name(node.index)
        if isinstance(node, Add):
            s = f"{walk(node.left, 0)} + {walk(node.right, 1)}"
            return f"({s})" if level >= 1 else s
        if isinstance(node, Sub):
            s = f"{walk(node.left, 0)} - {walk(node.right, 1)}"
            return f"({s})" if level >= 1 else s
        if isinstance(node, Mul):
            s = f"{walk(node.left, 1)} * {walk(node.right, 2)}"
            return f"({s})" if level >= 2 else s
        if isinstance(node, Div):
            s = f"{walk(node.left, 1)} / {walk(node.right, 2)}"
            return f"({s})" if level >= 2 else s
        if isinstance(node, Neg):
            arg = node.arg
            if isinstance(arg, Var):
                s = f"-{walk(arg, 3)}"
            else:
                s = f"-({walk(arg, 0)})"
            return f"({s})" if level >= 1 else s
        if isinstance(node, Pow):
            base = node.base
            if isinstance(base, Var):
                b = walk(base, 3)
            else:
                b = f"({walk(base, 0)})"
            return f"{b}^{node.exponent}"
        if isinstance(node, Sqrt):
            return f"sqrt({walk(node.arg, 0)})"
        if isinstance(node, Cbrt):
            return f"cbrt({walk(node.arg, 0)})"
        raise TypeError(f"not an Expr node: {node!r}")

    return walk(e, 0)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def diff(e: Expr, var: int) -> Expr:
    """Exact symbolic partial derivative of ``e`` with respect to variable ``var``."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    if isinstance(e, Add):
        return add(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Sub):
        return sub(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, var), e.right), mul(e.left, diff(e.right, var)))
    if isinstance(e, Div):
        num = sub(mul(diff(e.left, var), e.right), mul(e.left, diff(e.right, var)))
        return div(num, pow_int(e.right, 2))
    if isinstance(e, Neg):
        return neg(diff(e.arg, var))
    if isinstance(e, Pow):
        # d(u^k) = k u^(k-1) u'
        return mul(mul(const(e.exponent), pow_int(e.base, e.exponent - 1)),
                   diff(e.base, var))
    if isinstance(e, Sqrt):
        return div(diff(e.arg, var), mul(const(2), sqrt(e.arg)))
    if isinstance(e, Cbrt):
        # d(cbrt(u)) = u' / (3 cbrt(u)^2)
        return div(diff(e.arg, var), mul(const(3), pow_int(cbrt(e.arg), 2)))
    raise TypeError(f"not an Expr node: {e!r}")


def variables(e: Expr) -> tuple[int, ...]:
    """The indices of the chart variables that occur in ``e``, ascending.

    Along any other variable, :func:`diff` returns the exact zero ``Const(0)``
    unless ``e`` divides by a constant zero, where evaluating ``e`` itself
    already raises.
    """
    found: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            found.add(node.index)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            stack += (node.left, node.right)
        elif isinstance(node, (Neg, Sqrt, Cbrt)):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif not isinstance(node, Const):
            raise TypeError(f"not an Expr node: {node!r}")
    return tuple(sorted(found))


def subst_vars(e: Expr, replacements: Sequence[Expr]) -> Expr:
    """Replace every variable ``i`` by ``replacements[i]`` (composition of maps)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacements[e.index]
    if isinstance(e, Add):
        return add(subst_vars(e.left, replacements), subst_vars(e.right, replacements))
    if isinstance(e, Sub):
        return sub(subst_vars(e.left, replacements), subst_vars(e.right, replacements))
    if isinstance(e, Mul):
        return mul(subst_vars(e.left, replacements), subst_vars(e.right, replacements))
    if isinstance(e, Div):
        return div(subst_vars(e.left, replacements), subst_vars(e.right, replacements))
    if isinstance(e, Neg):
        return neg(subst_vars(e.arg, replacements))
    if isinstance(e, Pow):
        return pow_int(subst_vars(e.base, replacements), e.exponent)
    if isinstance(e, Sqrt):
        return sqrt(subst_vars(e.arg, replacements))
    if isinstance(e, Cbrt):
        return cbrt(subst_vars(e.arg, replacements))
    raise TypeError(f"not an Expr node: {e!r}")


def poly_mul(d1: Mapping[tuple, object], d2: Mapping[tuple, object]) -> dict:
    """Product of sparse polynomials ``{exponents: coefficient}``; coefficients
    are numbers, expressions or per-point arrays."""
    out: dict = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return out


def mat_mul(x: Sequence[Sequence[Expr]], y: Sequence[Sequence[Expr]]) -> tuple:
    """Product of two matrices of expressions, each entry summed in index order."""
    out = [[ZERO] * len(y[0]) for _ in x]
    for i, row in enumerate(x):
        for j in range(len(y[0])):
            for d, entry in enumerate(row):
                out[i][j] = add(out[i][j], mul(entry, y[d][j]))
    return tuple(tuple(r) for r in out)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_many(e: Expr, pts: np.ndarray) -> np.ndarray:
    """Evaluate ``e`` at every row of ``pts`` (shape ``(N, dim)``).

    Division (and negative powers) by magnitudes below ``SINGULARITY_EPS``
    raises :class:`SingularityError`; square roots of negatives raise
    :class:`EvalDomainError`; constants beyond the double range raise
    :class:`ConstantRangeError`.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatchError(f"expected a (N, dim) point array, got shape {pts.shape}")
    n = pts.shape[0]

    def walk(node: Expr):
        if isinstance(node, Const):
            return const_value(node)
        if isinstance(node, Var):
            return pts[:, node.index]
        if isinstance(node, Add):
            return walk(node.left) + walk(node.right)
        if isinstance(node, Sub):
            return walk(node.left) - walk(node.right)
        if isinstance(node, Mul):
            return walk(node.left) * walk(node.right)
        if isinstance(node, Div):
            denom = walk(node.right)
            _guard_divisor(denom, pts)
            return walk(node.left) / denom
        if isinstance(node, Neg):
            return -walk(node.arg)
        if isinstance(node, Pow):
            base = walk(node.base)
            if node.exponent < 0:
                _guard_divisor(base, pts)
            return np.power(base, node.exponent)
        if isinstance(node, Sqrt):
            arg = walk(node.arg)
            if np.any(np.asarray(arg) < 0):
                raise EvalDomainError("square root of a negative value")
            return np.sqrt(arg)
        if isinstance(node, Cbrt):
            return np.cbrt(walk(node.arg))
        raise TypeError(f"not an Expr node: {node!r}")

    out = np.empty(n)
    out[...] = walk(e)
    return out


def const_value(c: Const) -> float:
    """The double nearest to ``c``, as :func:`eval_many` evaluates it.

    Raises :class:`ConstantRangeError` naming ``c`` when it is outside the
    double range.
    """
    try:
        return float(c.value)
    except OverflowError:
        raise ConstantRangeError(f"constant {_fmt_const(c.value)} "
                                 "is outside the double range") from None


def _guard_divisor(value, pts: np.ndarray) -> None:
    """Raise :class:`SingularityError` naming the first point of ``pts`` where
    the divisor ``value`` (one per point, or one constant) is below
    ``SINGULARITY_EPS`` in magnitude.  The bound is absolute: it does not
    scale with the coordinates or the operator."""
    small = np.abs(value) < SINGULARITY_EPS
    if not np.any(small):
        return
    at = int(np.argmax(small)) if np.ndim(small) else 0
    where = f"at point {tuple(pts[at].tolist())}" if at < pts.shape[0] else "during evaluation"
    raise SingularityError(f"divisor magnitude below {SINGULARITY_EPS:g} {where}")


def eval_at(e: Expr, point) -> float:
    """Evaluate ``e`` at a single point (any sequence of ``dim`` finite reals)."""
    p = np.asarray(point, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d point, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise EvalDomainError("point has non-finite coordinates")
    return float(eval_many(e, p[None, :])[0])


def as_point(chart: Chart, point) -> np.ndarray:
    """Validate and convert ``point`` to a float vector on ``chart``."""
    p = np.asarray(point, dtype=float)
    if p.shape != (chart.dim,):
        raise DimensionMismatchError(
            f"point has shape {p.shape}, chart dimension is {chart.dim}")
    if not np.all(np.isfinite(p)):
        raise EvalDomainError("point has non-finite coordinates")
    return p


# ---------------------------------------------------------------------------
# guarded sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleDomain:
    """A box with singularity guards for rejection sampling.

    Accepted points satisfy ``|g(p)| > guard_eps`` for every guard ``g``.
    Like ``SINGULARITY_EPS``, ``guard_eps`` is an absolute bound, so which
    points a guard rejects depends on the scale of the coordinates.
    Sampling is a pure function of ``(domain, count)``.
    """

    box: tuple[tuple[float, float], ...]
    guards: tuple[Expr, ...] = ()
    guard_eps: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not self.box:
            raise ValueError("box must have at least one interval")
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"empty or non-finite interval ({lo}, {hi})")
        if self.guard_eps <= 0:
            raise ValueError("guard_eps must be positive")
        object.__setattr__(self, "box", tuple((float(lo), float(hi)) for lo, hi in self.box))
        object.__setattr__(self, "guards", tuple(self.guards))

    @property
    def dim(self) -> int:
        return len(self.box)


def sample_points(domain: SampleDomain, count: int,
                  max_rejections: int = MAX_CONSECUTIVE_REJECTIONS) -> np.ndarray:
    """Draw ``count`` guarded points, deterministically from ``domain.seed``.

    Candidates are drawn in batches but consume the generator stream exactly
    one row at a time, so prefixes agree across different counts.  Raises
    :class:`DomainExhaustedError` after ``max_rejections`` consecutive
    rejected candidates.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(domain.seed)
    lo = np.array([iv[0] for iv in domain.box])
    span = np.array([iv[1] - iv[0] for iv in domain.box])
    # a rejection run raises once it is this long, as a row-by-row walk would
    limit = max(max_rejections, 1)
    parts: list[np.ndarray] = []
    got = 0
    consecutive = 0
    while got < count:
        batch = max(16, count - got)
        cands = lo + span * rng.random((batch, domain.dim))
        taken = np.flatnonzero(_guard_mask(domain, cands))[:count - got]
        # the walk stops at the row that completes the sample
        end = taken[-1] + 1 if got + taken.size == count else batch
        # rejection runs of the walked rows; the first continues the last batch's
        runs = np.diff(taken, prepend=-1, append=end) - 1
        runs[0] += consecutive
        if runs.max() >= limit:
            raise DomainExhaustedError(
                f"{limit} consecutive rejections; guards too strict for the box")
        consecutive = int(runs[-1])
        parts.append(cands[taken])
        got += taken.size
    return np.concatenate(parts)


def _guard_mask(domain: SampleDomain, cands: np.ndarray) -> np.ndarray:
    ok = np.ones(cands.shape[0], dtype=bool)
    for g in domain.guards:
        try:
            vals = eval_many(g, cands)
        except (SingularityError, EvalDomainError):
            # fall back to per-row evaluation so only the offending rows drop
            for idx in range(cands.shape[0]):
                if not ok[idx]:
                    continue
                try:
                    v = eval_many(g, cands[idx:idx + 1])[0]
                except (SingularityError, EvalDomainError):
                    ok[idx] = False
                    continue
                ok[idx] &= np.isfinite(v) and abs(v) > domain.guard_eps
            continue
        ok &= np.isfinite(vals) & (np.abs(vals) > domain.guard_eps)
    return ok
