"""Coordinate changes, pushforwards, one-form potentials and block detection.

A coordinate change carries an operator field by similarity with its
Jacobian, K^(y) = J A J^(-1): numerically at sample points, and symbolically,
given the inverse map x(y), as K^(y) = ((J A) o x) . dx/dy, since dx/dy is
J^(-1) at x(y).  Exact polynomial one-forms (the annihilator generators of
characteristic distributions) are integrated along coordinate axes, in exact
rational arithmetic, to produce the separating coordinate functions; block
structure of the transported matrices is verified or detected over sample
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ChartMismatchError,
    DimensionMismatchError,
    NonPolynomialError,
    NotClosedError,
    SingularJacobianError,
    TorsionLabError,
)
from .expr import (
    ZERO,
    Chart,
    Const,
    Add,
    Sub,
    Mul,
    Neg,
    Pow,
    Var,
    Expr,
    add,
    as_point,
    const,
    diff,
    eval_many,
    format_expr,
    mat_mul,
    mul,
    neg,
    poly_mul,
    pow_int,
    sub,
    subst_vars,
    variables,
)
from .fields import OperatorBase, OperatorField, _require_finite, relative

__all__ = [
    "DiffeoChart",
    "OneFormExpr",
    "BlockPartition",
    "verify_diffeo",
    "jacobian_at",
    "jacobian_many",
    "jacobian_frame",
    "pushforward_at",
    "pushforward_many",
    "pushforward_field",
    "values_at_image",
    "integrate_exact_one_form",
    "detect_blocks",
]

JACOBIAN_DET_EPS = 1e-8


@dataclass(frozen=True)
class DiffeoChart:
    """A coordinate map y(x) given componentwise, with an optional inverse."""

    src: Chart
    dst: Chart
    forward: tuple[Expr, ...]
    inverse: tuple[Expr, ...] | None = None

    def __post_init__(self):
        if len(self.forward) != self.dst.dim or self.src.dim != self.dst.dim:
            raise DimensionMismatchError("forward map must have one component per coordinate")
        object.__setattr__(self, "forward", tuple(self.forward))
        if self.inverse is not None:
            if len(self.inverse) != self.src.dim:
                raise DimensionMismatchError("inverse map must have one component per coordinate")
            object.__setattr__(self, "inverse", tuple(self.inverse))

    def forward_many(self, pts: np.ndarray) -> np.ndarray:
        ys = np.stack([eval_many(f, pts) for f in self.forward], axis=1)
        _require_finite(pts, "chart value", ys)
        return ys


@dataclass(frozen=True)
class OneFormExpr:
    """A one-form w = w_i dx^i with symbolic components."""

    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise DimensionMismatchError("one component per coordinate required")
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class BlockPartition:
    """Ordered sizes of contiguous diagonal blocks."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def block_of(self) -> np.ndarray:
        """Block index of each coordinate."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)


# ---------------------------------------------------------------------------
# Jacobians and pushforwards
# ---------------------------------------------------------------------------

def verify_diffeo(c: DiffeoChart, pts: np.ndarray, tol: float = 1e-8) -> float:
    """Check the chart invariants at sample points.

    The forward Jacobian must be invertible (|det| above the determinant
    guard) and, when an inverse map is present, x(y(p)) must return p within
    ``tol``.  Returns the worst round-trip deviation (0.0 without an
    inverse); raises :class:`SingularJacobianError` on a degenerate Jacobian.
    """
    _checked_jacobian(c, pts)
    if c.inverse is None:
        return 0.0
    ys = c.forward_many(pts)
    back = np.stack([eval_many(x, ys) for x in c.inverse], axis=1)
    worst = float(np.max(np.abs(back - pts)))
    if worst > tol:
        raise ChartMismatchError(
            f"inverse map fails the round trip by {worst:.3e}")
    return worst


def _checked_jacobian(c: DiffeoChart, pts: np.ndarray) -> np.ndarray:
    """Forward Jacobian at every point; raises at the first non-finite or singular one."""
    jac = jacobian_many(c, pts)
    _require_finite(pts, "chart Jacobian", jac)
    dets = np.abs(np.linalg.det(jac))
    bad = dets <= JACOBIAN_DET_EPS
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SingularJacobianError(
            f"|det J| = {dets[idx]:.3e} at point {pts[idx].tolist()}")
    return jac


def _jacobian(components: Sequence[Expr], n: int) -> list[list[Expr]]:
    """d components[a] / dx^i as trees: each component is differentiated along
    the variables it contains, and once along one it lacks.  That one tree
    (the exact zero unless the component divides by a constant zero) stands
    for every lacking variable, as :func:`diff` gives the same tree along each."""
    rows = []
    for y in components:
        present = variables(y)
        lacking = diff(y, min(set(range(n)) - set(present))) if len(present) < n else ZERO
        rows.append([diff(y, i) if i in present else lacking for i in range(n)])
    return rows


def jacobian_many(c: DiffeoChart, pts: np.ndarray) -> np.ndarray:
    """J^a_i = dy^a/dx^i at every row of ``pts``: entries and first error as
    if each component were differentiated along every variable, though only
    the trees of :func:`_jacobian` that are not the exact zero are evaluated."""
    n = c.src.dim
    jac = np.zeros((pts.shape[0], n, n))
    for a, row in enumerate(_jacobian(c.forward, n)):
        for i, d in enumerate(row):
            if d != ZERO:
                jac[:, a, i] = eval_many(d, pts)
    return jac


def jacobian_at(c: DiffeoChart, point) -> np.ndarray:
    """J^a_i = dy^a/dx^i at a source point."""
    p = as_point(c.src, point)
    return jacobian_many(c, p[None, :])[0]


def jacobian_frame(c: DiffeoChart, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J and J^(-1) at every source point, J checked as :func:`verify_diffeo` does."""
    jac = _checked_jacobian(c, pts)
    return jac, np.linalg.inv(jac)


def pushforward_many(a: OperatorBase, c: DiffeoChart, pts: np.ndarray,
                     frame: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """J A J^(-1) at every source sample point (components in the y-frame).

    ``frame``, when given, is ``jacobian_frame(c, pts)`` already computed, so
    that callers pushing several operators through one chart compute it once.
    """
    if a.chart != c.src:
        raise ChartMismatchError("operator must live on the source chart")
    jac, inv = jacobian_frame(c, pts) if frame is None else frame
    vals = a.values_many(pts)
    return jac @ vals @ inv


def values_at_image(a: OperatorBase, c: DiffeoChart, pts: np.ndarray) -> np.ndarray:
    """A(y(p)) at every source point p; a non-finite value names p, not y(p)."""
    vals = a._jet(c.forward_many(pts), False).vals
    _require_finite(pts, "operator value", vals)
    return vals


def pushforward_at(a: OperatorBase, c: DiffeoChart, point) -> np.ndarray:
    p = as_point(c.src, point)
    return pushforward_many(a, c, p[None, :])[0]


def pushforward_field(a: OperatorField, c: DiffeoChart) -> OperatorField:
    """Symbolic operator field in destination coordinates.

    Requires the chart's inverse map x(y), whose Jacobian dx/dy is J^(-1) at
    x(y): the entries K^(y) = ((J A) o x) . dx/dy are expressions on the
    destination chart, with no determinant of J in a denominator.
    """
    if c.inverse is None:
        raise ChartMismatchError("pushforward_field needs the inverse coordinate map")
    if a.chart != c.src:
        raise ChartMismatchError("operator must live on the source chart")
    n = c.src.dim
    ja = mat_mul(_jacobian(c.forward, n), a.entries)
    composed = [[subst_vars(e, c.inverse) for e in row] for row in ja]
    return OperatorField(c.dst, mat_mul(composed, _jacobian(c.inverse, n)))


# ---------------------------------------------------------------------------
# exact one-form integration
# ---------------------------------------------------------------------------

# Most coefficient products one step of a monomial expansion may take.  On a
# 2-core x86-64, expanding (x1 + .. + x7)^8 (3 003 terms; its largest step
# takes 12 012 products) took 0.1-0.17 s, so a form such as
# (x1 + .. + x7)^64 fails in well under a second instead of growing with its
# C(k + 6, 6) terms.
MAX_MONOMIAL_PRODUCTS = 20_000


def _bounded_mul(a: dict, b: dict) -> dict:
    """``poly_mul(a, b)``, or :class:`TorsionLabError` when it would take more
    than ``MAX_MONOMIAL_PRODUCTS`` coefficient products."""
    count = len(a) * len(b)
    if count > MAX_MONOMIAL_PRODUCTS:
        raise TorsionLabError(f"expanding the form takes a product of {len(a)} by "
                              f"{len(b)} monomials ({count} products; at most "
                              f"{MAX_MONOMIAL_PRODUCTS} allowed)")
    return poly_mul(a, b)


def _to_monomials(e: Expr, n: int) -> dict[tuple[int, ...], Fraction]:
    """Expand a polynomial expression into {exponent n-tuple: coefficient}.

    Terms whose coefficients cancel are kept; the caller drops them once.
    Each product is bounded by ``MAX_MONOMIAL_PRODUCTS``.
    """
    if isinstance(e, Const):
        return {(0,) * n: e.value}
    if isinstance(e, Var):
        return {tuple(int(i == e.index) for i in range(n)): Fraction(1)}
    if isinstance(e, (Add, Sub)):
        out = _to_monomials(e.left, n)
        sign = 1 if isinstance(e, Add) else -1
        for k, v in _to_monomials(e.right, n).items():
            out[k] = out.get(k, 0) + sign * v
        return out
    if isinstance(e, Neg):
        return {k: -v for k, v in _to_monomials(e.arg, n).items()}
    if isinstance(e, Mul):
        return _bounded_mul(_to_monomials(e.left, n), _to_monomials(e.right, n))
    if isinstance(e, Pow):
        if e.exponent < 0:
            raise NonPolynomialError("negative power is not polynomial")
        out = {(0,) * n: Fraction(1)}
        base = _to_monomials(e.base, n)
        for _ in range(e.exponent):
            out = _bounded_mul(out, base)
        return out
    raise NonPolynomialError(f"{type(e).__name__} node is not polynomial")


def _monomials_to_expr(mono: dict[tuple[int, ...], Fraction]) -> Expr:
    if not mono:
        return const(0)

    def monomial(key, coeff) -> Expr:
        term: Expr | None = None if coeff == 1 and any(key) else const(coeff)
        for v, exp in enumerate(key):
            if exp:
                factor = pow_int(Var(v), exp)
                term = factor if term is None else mul(term, factor)
        return term

    acc: Expr | None = None
    for key in sorted(mono, reverse=True):
        coeff = mono[key]
        if acc is None:
            acc = monomial(key, coeff) if coeff > 0 else neg(monomial(key, -coeff))
        elif coeff > 0:
            acc = add(acc, monomial(key, coeff))
        else:
            acc = sub(acc, monomial(key, -coeff))
    return acc


def _partial(mono: dict[tuple[int, ...], Fraction], var: int) -> dict[tuple[int, ...], Fraction]:
    """d/dx^var of a polynomial {exponents: coefficient}, zero coefficients dropped."""
    return {key[:var] + (key[var] - 1,) + key[var + 1:]: coeff * key[var]
            for key, coeff in mono.items() if key[var] and coeff}


def _require_equal(got: dict, want: dict, what: str, chart: Chart) -> None:
    """Raise :class:`NotClosedError` at the first monomial, in sorted order,
    whose exact coefficients in ``got`` and ``want`` differ."""
    if got != want:
        key = min(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        raise NotClosedError(f"{what}: monomial {format_expr(_monomials_to_expr({key: 1}), chart)} "
                             f"has coefficient {got.get(key, 0)} against {want.get(key, 0)}")


def integrate_exact_one_form(w: OneFormExpr) -> Expr:
    """Potential F with dF = w and F(0) = 0, for closed polynomial one-forms.

    The components are expanded into exact rational monomials, on which
    closedness (d_i w_j = d_j w_i) is decided before integrating along the
    coordinate axes from the origin, and dF = w is re-checked on the result.
    No coefficient is rounded to a double, so neither verdict depends on the
    scale of the form.  Raises :class:`NotClosedError` (naming the pair, the
    first differing monomial and both coefficients), :class:`NonPolynomialError`,
    or :class:`TorsionLabError` when an expansion step would take more than
    ``MAX_MONOMIAL_PRODUCTS`` coefficient products.
    """
    n = w.chart.dim
    monos = [{k: v for k, v in _to_monomials(c, n).items() if v} for c in w.components]
    for i in range(n):
        for j in range(i + 1, n):
            _require_equal(_partial(monos[j], i), _partial(monos[i], j),
                           f"d_{i + 1} w_{j + 1} != d_{j + 1} w_{i + 1}", w.chart)

    # F(x) = sum_i  integral_0^{x_i} w_i(x_1, .., x_{i-1}, t, 0, .., 0) dt; a term
    # of w_i lifts to a monomial whose last variable is x_i, so none collide
    potential: dict[tuple[int, ...], Fraction] = {}
    for i, mono in enumerate(monos):
        for key, coeff in mono.items():
            if not any(key[i + 1:]):  # the others vanish where later coordinates are 0
                potential[key[:i] + (key[i] + 1,) + key[i + 1:]] = coeff / (key[i] + 1)

    for i in range(n):
        _require_equal(_partial(potential, i), monos[i],
                       f"potential verification failed on component {i + 1}", w.chart)
    return _monomials_to_expr(potential)


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------

def detect_blocks(mats: Sequence[np.ndarray], hint: BlockPartition | None = None,
                  tol: float = 1e-8) -> tuple[BlockPartition, float]:
    """Find or verify a contiguous block-diagonal partition over sample matrices.

    The scale is the largest entry magnitude max|M| over every supplied
    matrix.  With a ``hint``, returns it together with the largest off-block
    entry magnitude, :func:`~torsionlab.fields.relative` to that scale.
    Without one, returns the finest contiguous partition whose off-block
    entries stay within ``tol * scale`` for every supplied matrix.
    """
    stack = np.stack([np.asarray(m, dtype=float) for m in mats])
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatchError("expected a sequence of square matrices")
    n = stack.shape[1]
    scale = float(np.max(np.abs(stack)))

    if hint is not None:
        if hint.dim != n:
            raise DimensionMismatchError(
                f"hint sizes sum to {hint.dim}, the matrices have dimension {n}")
        partition = hint
    else:
        big = np.max(np.abs(stack), axis=0) > tol * scale
        coupled = big | big.T
        # k is a block boundary iff no entry couples [0, k) with [k, n)
        cuts = [k for k in range(1, n) if not coupled[:k, k:].any()]
        partition = BlockPartition(tuple(np.diff([0, *cuts, n])))
    block_of = partition.block_of()
    off = block_of[:, None] != block_of[None, :]
    residual = float(relative(np.max(np.abs(stack[:, off])), scale)) if off.any() else 0.0
    return partition, residual
