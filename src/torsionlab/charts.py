"""Coordinate changes, pushforwards, one-form potentials and block detection.

A coordinate change carries an operator field by similarity with its
Jacobian, K^(y) = J A J^(-1); exact polynomial one-forms (the annihilator
generators of characteristic distributions) are integrated along coordinate
axes to produce the separating coordinate functions; block structure of the
transported matrices is verified or detected over sample points.
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
    div,
    eval_many,
    mat_mul,
    mul,
    neg,
    poly_mul,
    pow_int,
    sub,
    subst_vars,
    variables,
)
from .fields import OperatorBase, OperatorField, _require_finite

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
CLOSED_TOL = 1e-10
CLOSED_PROBES = 20
PROBE_SEED = 7_0915


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


def jacobian_many(c: DiffeoChart, pts: np.ndarray) -> np.ndarray:
    """J^a_i = dy^a/dx^i at every row of ``pts``: entries and first error as
    if each component were differentiated along every variable, though along
    the ones it lacks it is differentiated once, and that tree (the exact zero
    unless it divides by a constant zero) evaluated only if it is not zero."""
    n = c.src.dim
    jac = np.zeros((pts.shape[0], n, n))
    for a, y in enumerate(c.forward):
        present = variables(y)
        lacking = diff(y, min(set(range(n)) - set(present))) if len(present) < n else ZERO
        for i in range(n):
            d = diff(y, i) if i in present else lacking
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


def _symbolic_inverse(entries: Sequence[Sequence[Expr]]) -> list[list[Expr]]:
    """Adjugate-over-determinant inverse of a small symbolic matrix."""
    n = len(entries)

    def det(mat: list[list[Expr]]) -> Expr:
        if len(mat) == 1:
            return mat[0][0]
        acc: Expr = const(0)
        for col in range(len(mat)):
            minor = [row[:col] + row[col + 1:] for row in mat[1:]]
            term = mul(mat[0][col], det(minor))
            acc = add(acc, term) if col % 2 == 0 else add(acc, mul(const(-1), term))
        return acc

    full = [list(row) for row in entries]
    d = det(full)
    inv = [[const(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(full) if k != i]
            cof = det(minor)
            if (i + j) % 2 == 1:
                cof = mul(const(-1), cof)
            inv[j][i] = div(cof, d)
    return inv


def pushforward_field(a: OperatorField, c: DiffeoChart) -> OperatorField:
    """Symbolic operator field in destination coordinates.

    Requires the chart's inverse map: entries of J A J^(-1) are composed
    with x(y) to become expressions on the destination chart.
    """
    if c.inverse is None:
        raise ChartMismatchError("pushforward_field needs the inverse coordinate map")
    if a.chart != c.src:
        raise ChartMismatchError("operator must live on the source chart")
    n = c.src.dim
    jac = [[diff(c.forward[r], i) for i in range(n)] for r in range(n)]
    out = mat_mul(mat_mul(jac, a.entries), _symbolic_inverse(jac))
    return OperatorField(c.dst, tuple(tuple(subst_vars(e, c.inverse) for e in row)
                                      for row in out))


# ---------------------------------------------------------------------------
# exact one-form integration
# ---------------------------------------------------------------------------

def _to_monomials(e: Expr, n: int) -> dict[tuple[int, ...], Fraction]:
    """Expand a polynomial expression into {exponent n-tuple: coefficient}.

    Terms whose coefficients cancel are kept; the caller drops them once.
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
        return poly_mul(_to_monomials(e.left, n), _to_monomials(e.right, n))
    if isinstance(e, Pow):
        if e.exponent < 0:
            raise NonPolynomialError("negative power is not polynomial")
        out = {(0,) * n: Fraction(1)}
        base = _to_monomials(e.base, n)
        for _ in range(e.exponent):
            out = poly_mul(out, base)
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


def _partial_many(e: Expr, var: int, pts: np.ndarray) -> np.ndarray:
    """d e / d x^var at ``pts``; along a variable polynomial ``e`` lacks, the
    exact zero without :func:`diff`."""
    if var not in variables(e):
        return np.zeros(pts.shape[0])
    return eval_many(diff(e, var), pts)


def integrate_exact_one_form(w: OneFormExpr) -> Expr:
    """Potential F with dF = w and F(0) = 0, for closed polynomial one-forms.

    Closedness (d_i w_j = d_j w_i) is verified numerically at probe points
    before integrating along the coordinate axes from the origin; the result
    is re-verified against the components.  Raises :class:`NotClosedError`
    or :class:`NonPolynomialError`.
    """
    n = w.chart.dim
    monos = [_to_monomials(c, n) for c in w.components]

    rng = np.random.default_rng(PROBE_SEED)
    probes = rng.uniform(-1.0, 1.0, size=(CLOSED_PROBES, n))
    for i in range(n):
        for j in range(i + 1, n):
            delta = _partial_many(w.components[j], i, probes) \
                - _partial_many(w.components[i], j, probes)
            if np.max(np.abs(delta)) > CLOSED_TOL:
                raise NotClosedError(
                    f"d_{i + 1} w_{j + 1} != d_{j + 1} w_{i + 1} "
                    f"(max deviation {np.max(np.abs(delta)):.3e})")

    # F(x) = sum_i  integral_0^{x_i} w_i(x_1, .., x_{i-1}, t, 0, .., 0) dt
    total: dict[tuple[int, ...], Fraction] = {}
    for i in range(n):
        for key, coeff in monos[i].items():
            if any(key[i + 1:]):
                continue  # vanishes on the segment where later coordinates are 0
            lifted = key[:i] + (key[i] + 1,) + key[i + 1:]
            total[lifted] = total.get(lifted, 0) + coeff / lifted[i]
    potential = _monomials_to_expr({k: v for k, v in total.items() if v != 0})

    for i in range(n):
        delta = _partial_many(potential, i, probes) - eval_many(w.components[i], probes)
        if np.max(np.abs(delta)) > CLOSED_TOL:
            raise NotClosedError(
                f"potential verification failed on component {i + 1} "
                f"(max deviation {np.max(np.abs(delta)):.3e})")
    return potential


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------

def detect_blocks(mats: Sequence[np.ndarray], hint: BlockPartition | None = None,
                  tol: float = 1e-8) -> tuple[BlockPartition, float]:
    """Find or verify a contiguous block-diagonal partition over sample matrices.

    With a ``hint``, returns it together with the largest off-block entry
    magnitude relative to the overall scale.  Without one, returns the finest
    contiguous partition whose off-block entries stay below ``tol * scale``
    for every supplied matrix.
    """
    stack = np.stack([np.asarray(m, dtype=float) for m in mats])
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatchError("expected a sequence of square matrices")
    n = stack.shape[1]
    scale = max(1.0, float(np.max(np.abs(stack))))

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
    residual = float(np.max(np.abs(stack[:, off]))) / scale if off.any() else 0.0
    return partition, residual
