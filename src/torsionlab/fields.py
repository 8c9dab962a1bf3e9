"""Vector fields, operator fields and the generalized torsion tower.

Operator fields are evaluated as 1-jets: a :class:`Jet` is one (N, r, n, n)
array whose row 0 holds the entry values and rows 1..n the exact (symbolic)
entry derivatives d_1 A .. d_n A at a batch of points (r = 1 for values
alone).  An :class:`OperatorField` fills it from a cached plan
(:class:`_EntryPlan`) of its value entries followed by its derivative
entries: each point-dependent entry is evaluated once into a column, then
one broadcast copy of a float template of the constant entries and one
scatter of the columns expand them into the jet.  An entry, or a scalar
coefficient of :func:`scalar_jets_plan`, is differentiated only along the
variables it contains.  Composite operators (linear combinations with
scalar-field coefficients, products, polynomials, powers) build their jets
by two product rules on that one layout: ``@`` for a matrix factor, and
:func:`scaled` for a scalar factor f, the small matrix
[[f, 0], [grad f, f I]] acting on the flat (N, r, n^2) view of the jet (its
derivative rows by one batched matrix product), which also forms the
f K + g K' of :mod:`torsionlab.algebra`.

The level-1 torsion comes from the coordinate expansion

    T^i_jk = sum_l [ A^l_j d_l A^i_k - A^l_k d_l A^i_j
                     - A^i_l (d_j A^l_k - d_k A^l_j) ]

and every higher level from the pointwise recursion

    T' = A^2 T(X,Y) + T(AX,AY) - A(T(X,AY) + T(AX,Y)) = R_sigma T,

the polynomial representation R_S of sigma = (z - lambda)(z - mu).  One
kernel, :func:`slot_action`, writes every tower map: it contracts a matrix
into one index of a batch of (1,2)-tensors, which gives the actions Z, Lambda
and M of z, lambda and mu.  The level-1 torsion is two slot actions on dA,
and :mod:`torsionlab.algebra` applies a general R_S, the Bezout image
included, by Horner over Z, Lambda and M.  One function, :func:`sigma_power`,
applies R_sigma^k = (Z - Lambda)^k (Z - M)^k factor by factor and takes the
exact skew part once: :func:`tower` walks every level by steps k = 1, and
:func:`level_image` builds T^(m) alone with k = m - 1.

A verdict needs only the worst residual of each level, so
:func:`candidate_verdicts`, the one verdict walk, goes chunk-major: for each
chunk of points (:func:`chunks`, at most ``CHUNK_BYTES`` per level) it asks
for the values and the judged torsion levels of all its candidates, each
built by the caller (a :func:`tower`, or a level image alone), and folds
the chunk's residuals into a running worst per candidate and level.  Every
tower level is exactly skew, so one max reduction per point gives its
max |T|.  No per-point array outlives a chunk, whatever the sample size:
:meth:`OperatorBase.jet_slices` gives an operator's jet as a function of a
point slice, an :class:`OperatorField` expands each chunk's jet from its
evaluated columns and a composite evaluates it at the chunk's points, from
coefficient plans differentiated once.  :func:`tower_verdicts` and
:func:`is_vanishing` are the one-candidate case; :func:`torsion_many` builds
whole levels for the callers that need the tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ChainConditionError,
    ChartMismatchError,
    DimensionMismatchError,
    EvalDomainError,
    PreconditionError,
)
from .expr import (
    ZERO,
    Chart,
    Const,
    Expr,
    SampleDomain,
    add,
    as_point,
    const,
    const_value,
    diff,
    eval_at,
    eval_many,
    mat_mul,
    mul,
    sample_points,
    sub,
    variables,
)

__all__ = [
    "VectorFieldExpr",
    "OperatorBase",
    "Jet",
    "OperatorField",
    "LinCombOperator",
    "ProductOperator",
    "PowerOperator",
    "PolyOperator",
    "TorsionTensor",
    "OperatorAtPoint",
    "VanishingReport",
    "identity_operator",
    "lie_bracket",
    "apply",
    "nijenhuis_at",
    "level_up",
    "torsion_at",
    "torsion_many",
    "is_vanishing",
    "relative",
    "eigenchain_formula_rhs",
]


# ---------------------------------------------------------------------------
# symbolic fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorFieldExpr:
    """A vector field X = X^i d/dx^i with symbolic components."""

    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.chart.dim:
            raise DimensionMismatchError(
                f"{len(comps)} components on a {self.chart.dim}-dim chart")
        object.__setattr__(self, "components", comps)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return np.stack([eval_many(c, pts) for c in self.components], axis=1)

    def at(self, point) -> np.ndarray:
        p = as_point(self.chart, point)
        return self.eval_many(p[None, :])[0]


def lie_bracket(x: VectorFieldExpr, y: VectorFieldExpr) -> VectorFieldExpr:
    """Commutator [X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, symbolically."""
    if x.chart != y.chart:
        raise ChartMismatchError("lie_bracket requires fields on the same chart")
    n = x.chart.dim
    comps = []
    for i in range(n):
        acc: Expr = const(0)
        for j in range(n):
            acc = add(acc, mul(x.components[j], diff(y.components[i], j)))
            acc = sub(acc, mul(y.components[j], diff(x.components[i], j)))
        comps.append(acc)
    return VectorFieldExpr(x.chart, tuple(comps))


def apply(a: "OperatorField", x: VectorFieldExpr) -> VectorFieldExpr:
    """Symbolic image (AX)^i = A^i_j X^j."""
    if a.chart != x.chart:
        raise ChartMismatchError("apply requires operator and field on the same chart")
    column = mat_mul(a.entries, tuple((c,) for c in x.components))
    return VectorFieldExpr(a.chart, tuple(row[0] for row in column))


# ---------------------------------------------------------------------------
# 1-jets and operator fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Jet:
    """Values and first derivatives of a matrix field over a batch of points,
    as one (N, r, n, n) array.

    ``stack[p, 0] = A`` and ``stack[p, l] = d_l A`` for l = 1..n, so r = n + 1;
    a value-only jet has r = 1.  ``vals`` (N, n, n) and ``derivs``
    (N, r - 1, n, n) are views of the stack, and a jet unpacks as
    ``vals, derivs``; ``jet[part]``, for a slice ``part`` of the points, is
    the jet at those points, a view.  ``@`` is the product rule of two matrix
    fields and :func:`scaled` that of a scalar factor.
    """

    stack: np.ndarray

    @property
    def vals(self) -> np.ndarray:
        return self.stack[:, 0]

    @property
    def derivs(self) -> np.ndarray:
        return self.stack[:, 1:]

    def __iter__(self):
        return iter((self.vals, self.derivs))

    def __getitem__(self, part: slice) -> "Jet":
        return Jet(self.stack[part])

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.stack + other.stack)

    def __matmul__(self, other: "Jet") -> "Jet":
        # the product rule [AB; dA B + A dB]
        out = np.matmul(self.stack, other.vals[:, None])
        out[:, 1:] += np.matmul(self.vals[:, None], other.derivs)
        return Jet(out)


def scaled(f: np.ndarray, jet: Jet) -> Jet:
    """The jet of f K, from the value and gradient ``f`` (N, r) of a scalar
    field, as a column of :func:`scalar_jets_plan` gives them, and the jet of
    K with r rows.

    The one product rule for a scalar factor, d(f K) = df K + f dK, in the
    blocks F_f = [[f, 0], [grad f, f I]] acting on the flat (N, r, n^2) view X
    of K's stack: the value row is f A, entrywise, and the derivative rows
    are the blocks' rows [grad f, f I] times X, one batched matrix product.
    A value-only jet (r = 1) takes the same value row, so the values of f K
    are those of its value-only jet bit for bit, and a non-finite derivative
    of K never reaches them.
    """
    n_pts, r, n = jet.stack.shape[:3]
    flat = jet.stack.reshape(n_pts, r, n * n)
    blocks = np.zeros((n_pts, r - 1, r))
    blocks[:, :, 0] = f[:, 1:]
    blocks.reshape(n_pts, (r - 1) * r)[:, 1::r + 1] = f[:, :1]  # f I
    out = np.empty(flat.shape)
    np.multiply(f[:, :1, None], flat[:, :1], out=out[:, :1])
    np.matmul(blocks, flat, out=out[:, 1:])
    return Jet(out.reshape(jet.stack.shape))


def _jet_rows(exprs: Sequence[Expr], n: int) -> list[list[Expr]]:
    """``[exprs, d_1 exprs, .., d_n exprs]``, the rows of their stacked 1-jet.

    Each expression is differentiated only along the variables it contains;
    along the others its derivative is the exact zero :func:`diff` gives.
    """
    present = [set(variables(e)) for e in exprs]
    return [list(exprs)] + [[diff(e, l) if l in have else ZERO for e, have in zip(exprs, present)]
                            for l in range(n)]


def scalar_jets_plan(coeffs: Sequence[Expr], n: int) -> Callable[[np.ndarray], np.ndarray]:
    """``pts -> cols``, the 1-jets of several scalar fields at points of an
    n-dim chart: ``cols[p, c]``, of shape (n + 1,), holds the value, then the
    gradient, of ``coeffs[c]`` at ``pts[p]``.  At n = 0 it holds the value
    alone, the column that scales a value-only jet.

    The coefficients are differentiated here, once, into one
    :class:`_EntryPlan` of all their values and gradients, so a caller
    evaluating them chunk by chunk, as the composite operators and the
    involutivity check do, neither differentiates them again nor fills one
    plan per coefficient per chunk.  (The random combination coefficients of
    :func:`torsionlab.algebra.check_algebra` are numeric and never reach it.)
    """
    plan = _EntryPlan.of([e for coeff in coeffs for (e,) in _jet_rows([coeff], n)])
    return lambda pts: plan.fill(pts, (len(coeffs), n + 1))


def _not_finite(what: str, point: np.ndarray) -> EvalDomainError:
    return EvalDomainError(f"{what} is not finite at point {tuple(point.tolist())}")


def _require_finite(pts: np.ndarray, what: str, *arrays) -> None:
    """Raise :class:`EvalDomainError` naming the first point where an array,
    indexed by point along axis 0, holds a NaN or an infinity."""
    for arr in arrays:
        if np.isfinite(arr).all():
            continue
        bad = ~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1)
        raise _not_finite(what, pts[int(np.argmax(bad))])


class OperatorBase:
    """Anything that can produce entry values and entry derivatives at points.

    ``jet_many(pts)`` returns the :class:`Jet` ``(A, dA)`` with
    ``A[p, i, j] = A^i_j`` and ``dA[p, l, i, j] = d_l A^i_j`` for every sample
    point; that 1-jet is all the torsion tower needs.  ``jet_slices(pts)``
    returns the same jet as a function of a point slice, built for that slice
    alone, for the verdict walk.  ``jet_many``, ``jet_slices`` and
    ``values_many`` raise :class:`EvalDomainError` at the first point with a
    non-finite value, values before derivatives.  Subclasses implement
    ``_jet(pts, derivs)``, which gives the 1-jet, or with ``derivs`` false
    the value-only jet.
    """

    chart: Chart

    def _jet(self, pts: np.ndarray, derivs: bool) -> Jet:
        raise NotImplementedError

    def values_many(self, pts: np.ndarray) -> np.ndarray:
        vals = self._jet(pts, False).vals
        _require_finite(pts, "operator value", vals)
        return vals

    def jet_many(self, pts: np.ndarray) -> Jet:
        jet = self._jet(pts, True)
        _require_finite(pts, "operator 1-jet", jet.vals, jet.derivs)
        return jet

    def jet_slices(self, pts: np.ndarray) -> Callable[[slice], Jet]:
        """``part -> jet_many(pts)[part]``, evaluated at ``pts[part]`` alone;
        an :class:`OperatorField` expands each slice from columns evaluated
        and checked once, before it returns."""
        return lambda part: self.jet_many(pts[part])

    def at(self, point) -> "OperatorAtPoint":
        p = as_point(self.chart, point)
        return OperatorAtPoint(self.values_many(p[None, :])[0], p)


@dataclass(frozen=True)
class OperatorField(OperatorBase):
    """An (1,1)-tensor field as an n-by-n matrix of symbolic entries.

    Row index is the output component, column index the input component.
    """

    chart: Chart
    entries: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        n = self.chart.dim
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimensionMismatchError(f"entries must form a {n}x{n} matrix")
        object.__setattr__(self, "entries", rows)

    @cached_property
    def _value_plan(self) -> "_EntryPlan":
        return _EntryPlan.of([e for row in self.entries for e in row])

    @cached_property
    def _jet_plan(self) -> "_EntryPlan":
        # the value entries come first, so its first columns are the value plan's
        rows = _jet_rows([e for row in self.entries for e in row], self.chart.dim)
        return _EntryPlan.of([e for row in rows for e in row])

    def _jet(self, pts, derivs):
        n = self.chart.dim
        if derivs:
            return Jet(self._jet_plan.fill(pts, (n + 1, n, n)))
        return Jet(self._value_plan.fill(pts, (1, n, n)))

    def jet_slices(self, pts: np.ndarray) -> Callable[[slice], Jet]:
        """``part -> jet_many(pts)[part]``, expanded per slice from the
        point-dependent entries, which are evaluated and checked for
        finiteness once, before it returns."""
        n = self.chart.dim
        plan = self._jet_plan
        cols = plan.columns(pts)
        # the constant entries are finite, so the columns hold the first
        # non-finite point of the jet; the value columns are checked first
        values = len(self._value_plan.exprs)
        _require_finite(pts, "operator 1-jet", cols[:, :values], cols[:, values:])
        return lambda part: Jet(plan.expand(cols[part], (n + 1, n, n)))


@dataclass(frozen=True, eq=False)
class _EntryPlan:
    """How to fill an array of symbolic entries, given in row-major order, at
    a batch of points: evaluate the distinct point-dependent entries into
    columns (:meth:`columns`), then expand the columns of any run of points
    into the full array (:meth:`expand`).  :meth:`fill` is both steps at once.

    ``template`` holds the value of each :class:`Const` entry and 0 for the
    others; ``dependent`` holds the flat indices of the other entries, whose
    values depend on the point; ``exprs`` holds the distinct expressions among
    those entries, in order of first appearance, and ``source`` the index in
    ``exprs`` of each dependent entry.
    """

    template: np.ndarray
    dependent: np.ndarray
    source: np.ndarray
    exprs: tuple[Expr, ...]

    @classmethod
    def of(cls, entries: Sequence[Expr]) -> "_EntryPlan":
        # const_value is the conversion eval_many makes: an out-of-range
        # constant raises ConstantRangeError naming it
        template = np.array([const_value(e) if isinstance(e, Const) else 0.0
                             for e in entries])
        dependent = [k for k, e in enumerate(entries) if not isinstance(e, Const)]
        column: dict[Expr, int] = {}
        source = [column.setdefault(entries[k], len(column)) for k in dependent]
        return cls(template, np.array(dependent, dtype=np.intp),
                   np.array(source, dtype=np.intp), tuple(column))

    def columns(self, pts: np.ndarray) -> np.ndarray:
        """The distinct point-dependent entries at every row of ``pts``,
        shape (N, d).

        Each is evaluated once, in row-major order of first appearance; a
        repeat gives the same values, so an evaluation error names the same
        entry and point as an entry-by-entry fill would.
        """
        cols = np.empty((pts.shape[0], len(self.exprs)))
        for c, e in enumerate(self.exprs):
            cols[:, c] = eval_many(e, pts)
        return cols

    def expand(self, cols: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """The entries at the points of ``cols``, shape ``(N, *shape)``: one
        broadcast copy of the template, then one scatter of the columns."""
        out = np.empty((cols.shape[0], self.template.size))
        out[:] = self.template
        out[:, self.dependent] = cols[:, self.source]
        return out.reshape(cols.shape[0], *shape)

    def fill(self, pts: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """The entries at every row of ``pts``, shape ``(N, *shape)``."""
        return self.expand(self.columns(pts), shape)


def identity_operator(chart: Chart) -> OperatorField:
    n = chart.dim
    return OperatorField(
        chart,
        tuple(tuple(const(1 if i == j else 0) for j in range(n)) for i in range(n)),
    )


class _ScalarCoefficients(OperatorBase):
    """An operator with scalar-field coefficients ``coeffs``, whose columns
    (:func:`scalar_jets_plan`) come from plans built once, at first use: of
    their values alone, or of their values and gradients."""

    coeffs: Sequence[Expr]

    @cached_property
    def _value_columns(self) -> Callable[[np.ndarray], np.ndarray]:
        return scalar_jets_plan(self.coeffs, 0)

    @cached_property
    def _jet_columns(self) -> Callable[[np.ndarray], np.ndarray]:
        return scalar_jets_plan(self.coeffs, self.chart.dim)

    def _columns(self, pts: np.ndarray, derivs: bool) -> np.ndarray:
        return (self._jet_columns if derivs else self._value_columns)(pts)


@dataclass(frozen=True)
class LinCombOperator(_ScalarCoefficients):
    """f_1 K_1 + ... + f_r K_r with scalar fields f_k."""

    chart: Chart
    terms: tuple[tuple[Expr, OperatorBase], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        for _, op in self.terms:
            if op.chart != self.chart:
                raise ChartMismatchError("all terms must share one chart")

    @property
    def coeffs(self) -> tuple[Expr, ...]:
        return tuple(coeff for coeff, _ in self.terms)

    def _jet(self, pts, derivs):
        cols = self._columns(pts, derivs)
        terms = [scaled(cols[:, c], op._jet(pts, derivs)) for c, (_, op) in enumerate(self.terms)]
        return sum(terms[1:], terms[0])


@dataclass(frozen=True)
class ProductOperator(OperatorBase):
    """Composition (left . right)."""

    left: OperatorBase
    right: OperatorBase

    def __post_init__(self):
        if self.left.chart != self.right.chart:
            raise ChartMismatchError("product factors must share one chart")
        object.__setattr__(self, "chart", self.left.chart)

    chart: Chart = None  # set in __post_init__

    def _jet(self, pts, derivs):
        return self.left._jet(pts, derivs) @ self.right._jet(pts, derivs)


@dataclass(frozen=True)
class PolyOperator(_ScalarCoefficients):
    """P(A) = sum_k c_k(x) A^k with scalar-field coefficients."""

    base: OperatorBase
    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least the degree-0 coefficient")
        object.__setattr__(self, "chart", self.base.chart)

    chart: Chart = None

    def _jet(self, pts, derivs):
        # Horner: P(A) = (..(c_N A + c_(N-1)) A + ..) A + c_0, with c_k I = c_k [I; 0]
        base = self.base._jet(pts, derivs)
        cols = self._columns(pts, derivs)
        eye = Jet(np.zeros(base.stack.shape))
        eye.vals[:] = np.eye(self.chart.dim)
        out = scaled(cols[:, -1], eye)
        for c in range(len(self.coeffs) - 2, -1, -1):
            out = out @ base + scaled(cols[:, c], eye)
        return out


class PowerOperator(PolyOperator):
    """A^k for k >= 0 (A^0 is the identity): the polynomial z^k."""

    def __init__(self, base: OperatorBase, exponent: int):
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        super().__init__(base, (const(0),) * exponent + (const(1),))


# ---------------------------------------------------------------------------
# pointwise tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorAtPoint:
    """The value A(p) of an operator field at one point."""

    matrix: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))


@dataclass(frozen=True, eq=False)
class TorsionTensor:
    """Pointwise rank-(1,2) torsion components T^i_jk, skew in (j, k).

    Tensors produced by the torsion tower are exactly skew-symmetric by
    construction (the raw contraction is symmetrized in floating point).
    """

    level: int
    point: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.ndim != 3 or len(set(comps.shape)) != 1:
            raise DimensionMismatchError("components must have shape (n, n, n)")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

def slot_action(mat: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """Contract the n-by-n matrices ``mat`` into one index of the tensors ``t``.

    ``out[p, .., x, ..] = sum_l mat[p, x, l] t[p, .., l, ..]`` with x, l at
    ``axis`` of the (N, n, n, n) array ``t``: 1 is the value index, 2 the first
    argument, 3 the second.  ``mat`` is (N, n, n) or (1, n, n).  One batched
    ``matmul`` per call: on the flat view (N, n, n^2) for axis 1, stacked for
    axis 2, on the flat view (N, n^2, n) for axis 3.  The actions Z, Lambda
    and M of z, lambda and mu, which commute, are A at axis 1, A^T at axis 2
    and A^T at axis 3: A T(X, Y), T(AX, Y), T(X, AY).
    """
    n_pts, n = t.shape[0], t.shape[-1]
    if axis == 1:
        left, right = mat, t.reshape(n_pts, n, n * n)
    elif axis == 2:
        left, right = mat[:, None], t
    elif axis == 3:
        left, right = t.reshape(n_pts, n * n, n), mat.swapaxes(1, 2)
    else:
        raise ValueError(f"slot axis must be 1, 2 or 3, got {axis}")
    return np.matmul(left, right).reshape(t.shape)


def nijenhuis_from_jets(vals: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """T^i_jk = D^i_jk - D^i_kj with D^i_jk = A^l_j d_l A^i_k - A^i_l d_j A^l_k."""
    # the derivative index of dA is its axis 1, so both terms are slot
    # actions on dA and come out indexed [p, j, i, k]
    d = slot_action(vals.swapaxes(1, 2), derivs, 1)
    d -= slot_action(vals, derivs, 2)
    d = d.swapaxes(1, 2)
    # exactly skew, since fl(a - b) = -fl(b - a)
    return np.subtract(d, d.swapaxes(2, 3), out=np.empty(derivs.shape))


def sigma_power(t: np.ndarray, vals: np.ndarray, k: int) -> np.ndarray:
    """skew(R_sigma^k T) = skew((Z - Lambda)^k (Z - M)^k T), for k >= 1.

    The one level-up kernel: k steps Y <- (Z - M) Y, one swap of the argument
    slots, k more steps, which act as Z - Lambda on the swapped layout, and
    the exact skew part once.  At k = 1 it is the level-up step
    A^2 T(X,Y) + T(AX,AY) - A(T(X,AY) + T(AX,Y)), made skew.  ``t`` need not
    be skew and is not written to.  Besides the input, at most three
    (N, n, n, n) arrays are alive at once, the result included.
    """
    vals_t = vals.swapaxes(1, 2)
    y = t
    for step in range(2 * k):
        if step == k:  # ends in W[p, i, c, b] = (R_sigma^k T)^i_bc
            y = y.swapaxes(2, 3).copy()
        z = slot_action(vals, y, 1)
        z -= slot_action(vals_t, y, 3)
        y = z
    # the skew part; exact, since fl(a - b) = -fl(b - a)
    out = np.subtract(y.swapaxes(2, 3), y, out=np.empty(y.shape))
    out *= 0.5
    return out


def tower(vals: np.ndarray, derivs: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """Yield T^(1), .., T^(m) at every point of the 1-jet ``(vals, derivs)``.

    The one walk up the tower: Nijenhuis first, then level-up steps
    :func:`sigma_power` ``(T, vals, 1)``.  Only the level being built and the
    one before it are alive at a time.
    """
    if m < 1:
        raise ValueError("torsion level must be >= 1")
    torsions = nijenhuis_from_jets(vals, derivs)
    yield torsions
    for _ in range(m - 1):
        torsions = sigma_power(torsions, vals, 1)
        yield torsions


def level_image(vals: np.ndarray, derivs: np.ndarray, m: int) -> np.ndarray:
    """T^(m) = skew(R_sigma^(m-1) T^(1)), the last level of :func:`tower`
    without the levels below it.

    :func:`sigma_power` takes the exact skew part once, where the tower takes
    it at every level, so the two agree up to rounding (bitwise for m <= 2).
    """
    if m < 1:
        raise ValueError("torsion level must be >= 1")
    t = nijenhuis_from_jets(vals, derivs)
    return t if m == 1 else sigma_power(t, vals, m - 1)


def torsion_many(a: OperatorBase, m: int, pts: np.ndarray) -> np.ndarray:
    """Level-m torsion components at every row of ``pts``; shape (N, n, n, n)."""
    for torsions in tower(*a.jet_many(pts), m):
        pass
    return torsions


def nijenhuis_at(a: OperatorBase, point) -> TorsionTensor:
    """Level-1 (Nijenhuis) torsion of ``a`` at one point."""
    return torsion_at(a, 1, point)


def level_up(torsion: TorsionTensor, ap: OperatorAtPoint) -> TorsionTensor:
    """One step of the tower recursion at a point (level m-1 -> m, m >= 2)."""
    if torsion.components.shape[0] != ap.matrix.shape[0]:
        raise DimensionMismatchError("torsion and operator dimensions differ")
    if torsion.point.shape != ap.point.shape or not np.array_equal(torsion.point, ap.point):
        raise PreconditionError("torsion and operator must be evaluated at the same point")
    comps = sigma_power(torsion.components[None], ap.matrix[None], 1)[0]
    return TorsionTensor(torsion.level + 1, torsion.point, comps)


def torsion_at(a: OperatorBase, m: int, point) -> TorsionTensor:
    """Level-m torsion of ``a`` at one point (m >= 1)."""
    p = as_point(a.chart, point)
    comps = torsion_many(a, m, p[None, :])[0]
    return TorsionTensor(m, p, comps)


# ---------------------------------------------------------------------------
# vanishing verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VanishingReport:
    """Normalized residual sweep for one torsion level over a sample domain.

    ``lower`` holds the reports on levels 1..level-1 from the same points,
    when the sweep walked the tower to get here (see :func:`is_vanishing`).
    """

    level: int
    n_points: int
    seed: int
    tol_rel: float
    max_residual: float
    vanishing: bool
    worst_point: np.ndarray
    lower: tuple[VanishingReport, ...] = ()


# Bytes of one (n, n, n) tower level per chunk of points in a verdict walk.
# 96 KiB keeps every array of a chunk below glibc's default 128 KiB mmap
# threshold, so each level reuses heap pages instead of faulting in fresh
# mmap'd ones, and a chunk's few live levels stay inside a 2 MiB L2.  On a
# 2-core x86-64 with 2 MiB L2 per core, a level-4 walk of random 1-jets at
# N = 2000 took 34 ms at n = 7 and 127 ms at n = 12, against 47 and 290 ms
# (and about 3 400 and 2 600 minor page faults) as one chunk.
CHUNK_BYTES = 96 * 1024


def chunks(n_pts: int, n: int) -> Iterator[slice]:
    """The consecutive slices of ``range(n_pts)`` a verdict walk takes, each
    of at most ``CHUNK_BYTES`` per (n, n, n) tower level, and of one point at
    least."""
    step = max(1, CHUNK_BYTES // (8 * n ** 3))
    return (slice(start, start + step) for start in range(0, n_pts, step))


def relative(residual, bound) -> np.ndarray:
    """``residual / bound`` elementwise, where a check's bound is built from
    its own inputs: 0/0 reads 0 and x/0 reads inf, which fails every tolerance."""
    residual, bound = np.asarray(residual, dtype=float), np.asarray(bound, dtype=float)
    zero = bound == 0
    if not zero.any():  # skip the selections: the verdict walk calls this per chunk
        return residual / bound
    return np.where(zero, np.where(residual == 0, 0.0, np.inf), residual / np.where(zero, 1.0, bound))


def _point_max(arr: np.ndarray) -> np.ndarray:
    """max |arr| over every axis but the point axis 0."""
    return np.abs(arr).reshape(arr.shape[0], -1).max(axis=1)


def _level_max(level: np.ndarray) -> np.ndarray:
    """:func:`_point_max` of an exactly skew tower level, by one reduction.

    Every level ends in a pair fl(a - b), fl(b - a), so each entry's negation
    is an entry too and max T = max |T| per point.  ``np.abs`` of the maxima
    turns the -0.0 of an all-zero level into 0.0 and clears the sign bit a
    NaN may carry, so the result is bitwise :func:`_point_max`'s.
    """
    return np.abs(level.reshape(level.shape[0], -1).max(axis=1))


def candidate_verdicts(candidates_at: Callable[[slice], Iterable[tuple[Jet, Iterable]]],
                       levels: Sequence[int], pts: np.ndarray, seed: int,
                       tol_rel: float) -> list[list[VanishingReport]]:
    """Verdicts on the torsion ``levels`` of each of several candidates at ``pts``.

    ``candidates_at(part)`` yields, for every candidate in the same order for
    every part, ``(jet, tensors)``: its 1-jet at ``pts[part]``, n =
    ``pts.shape[1]``, and its torsions there at each of ``levels`` in turn,
    e.g. :func:`tower` or ``(level_image(..),)``.  The walk calls it once per
    chunk of :func:`chunks`, in point order, and asks for the next candidate
    only when it is done with the one before, so work the candidates share
    is done once per chunk and one candidate's torsions are alive at a time.
    Per candidate and level it keeps only the running worst residual, its
    first point and the first non-finite points.

    List c holds candidate c's reports on ``levels``: level l is judged by
    the residual :func:`relative` (max|T^(l)|, max|A|^(2l-1) max|dA|) per
    point (T^(l) is of degree 2l - 1 in A and linear in dA), over all of
    ``pts``, and names the first worst point.  An :class:`EvalDomainError`
    names, of the lowest candidate with a non-finite level, the lowest such
    level and its first point, as walking the candidates one after another,
    each level over all points, would.
    """
    n_pts, n = pts.shape
    levels = np.asarray(levels)
    rows = np.arange(len(levels))
    powers = 2 * levels[:, None] - 1  # of max|A| in each level's bound
    # per candidate, by level: the worst residual, its point and the first
    # points where the torsion norm and the rule's bound are not finite
    worst: list[np.ndarray] = []
    worst_at: list[np.ndarray] = []
    first_bad: list[np.ndarray] = []
    for part in chunks(n_pts, n):
        start, cand = part.start, 0
        for jet, tensors in candidates_at(part):
            if cand == len(worst):  # the first chunk
                worst.append(np.full(len(levels), -np.inf))
                worst_at.append(np.zeros(len(levels), dtype=np.intp))
                first_bad.append(np.full((len(levels), 2), n_pts))
            tor = np.array([_level_max(t) for t in tensors])
            bound = _point_max(jet.vals) ** powers * _point_max(jet.derivs)
            # drop the candidate before the caller builds the next one (an
            # enumerate would keep it alive in its reused result tuple)
            del jet, tensors
            if not (np.isfinite(tor).all() and np.isfinite(bound).all()):
                for k, arr in enumerate((tor, bound)):
                    bad = ~np.isfinite(arr)
                    first = np.where(bad.any(axis=1), start + bad.argmax(axis=1), n_pts)
                    np.minimum(first_bad[cand][:, k], first, out=first_bad[cand][:, k])
            res = relative(tor, bound)
            at = res.argmax(axis=1)
            top = res[rows, at]
            better = top > worst[cand]  # strictly: ties keep the earlier point
            np.copyto(worst[cand], top, where=better)
            np.copyto(worst_at[cand], at + start, where=better)
            cand += 1
    hits = np.argwhere(np.array(first_bad) < n_pts)  # in (candidate, level, array) order
    if hits.size:
        cand, row, k = hits[0]
        raise _not_finite(f"level-{levels[row]} torsion", pts[first_bad[cand][row, k]])
    return [[VanishingReport(level=int(level), n_points=n_pts, seed=seed, tol_rel=tol_rel,
                             max_residual=float(w), vanishing=bool(w <= tol_rel),
                             worst_point=pts[i])
             for level, w, i in zip(levels, w_row, at_row)]
            for w_row, at_row in zip(worst, worst_at)]


def tower_verdicts(jet_at: Callable[[slice], Jet], m: int, pts: np.ndarray,
                   seed: int, tol_rel: float) -> list[VanishingReport]:
    """Verdicts on levels 1..m of one operator's 1-jet at the points ``pts``:
    :func:`candidate_verdicts` of the :func:`tower` of ``jet_at(part)``, e.g.
    ``jet.__getitem__`` or :meth:`OperatorBase.jet_slices`."""
    def candidates_at(part: slice) -> Iterator[tuple[Jet, Iterator[np.ndarray]]]:
        jet = jet_at(part)
        yield jet, tower(*jet, m)

    return candidate_verdicts(candidates_at, range(1, m + 1), pts, seed, tol_rel)[0]


def given_sample(domain: SampleDomain, count: int, pts: np.ndarray | None) -> np.ndarray:
    """``sample_points(domain, count)``, or ``pts`` when a caller has drawn it
    already, after checking that it has that sample's shape."""
    if pts is None:
        return sample_points(domain, count)
    if pts.shape != (count, domain.dim):
        raise DimensionMismatchError(
            f"expected {count} sample points of dimension {domain.dim}, got shape {pts.shape}")
    return pts


def is_vanishing(a: OperatorBase, m: int, domain: SampleDomain,
                 n_pts: int, tol_rel: float,
                 pts: np.ndarray | None = None) -> VanishingReport:
    """Probabilistic zero test for the level-m torsion over ``domain``.

    One sample, one evaluation of the 1-jet (:meth:`OperatorBase.jet_slices`)
    and one chunked walk up the tower (:func:`tower_verdicts`) judge every
    level; the level-m report carries the verdicts on levels 1..m-1 in
    ``lower``.  ``pts``, when given, is the sample
    ``sample_points(domain, n_pts)`` already drawn, so that callers judging
    several operators draw it once.
    """
    if n_pts < 1:
        raise ValueError("n_pts must be >= 1")
    pts = given_sample(domain, n_pts, pts)
    reports = tower_verdicts(a.jet_slices(pts), m, pts, domain.seed, tol_rel)
    return replace(reports[-1], lower=tuple(reports[:-1]))


# ---------------------------------------------------------------------------
# generalized eigenvector formula
# ---------------------------------------------------------------------------

def eigenchain_formula_rhs(a: OperatorBase,
                           chain_x: tuple[Expr, Sequence[VectorFieldExpr]],
                           chain_y: tuple[Expr, Sequence[VectorFieldExpr]],
                           m: int, point) -> np.ndarray:
    """Double binomial sum over a pair of Jordan chains, evaluated at a point.

    ``chain_x = (mu, [X_1, ..., X_alpha])`` must satisfy
    ``A X_g = mu X_g + X_(g-1)`` (``X_0 = 0``) numerically at the point; the
    analogous condition holds for ``chain_y``.  Returns

        sum_(i,j) (-1)^(i+j) C(m,i) C(m,j)
                  (A - mu I)^(m-i) (A - nu I)^(m-j) [X_(alpha-i), Y_(beta-j)]

    as a coefficient vector in the natural frame.
    """
    if m < 2:
        raise ValueError("the chain formula applies for levels m >= 2")
    p = as_point(a.chart, point)
    mu, xs = chain_x
    nu, ys = chain_y
    ap = a.values_many(p[None, :])[0]
    mu_v = eval_at(mu, p)
    nu_v = eval_at(nu, p)
    _check_chain(ap, mu_v, xs, p)
    _check_chain(ap, nu_v, ys, p)

    n = a.chart.dim
    m_mu = ap - mu_v * np.eye(n)
    m_nu = ap - nu_v * np.eye(n)
    pow_mu = _matrix_powers(m_mu, m)
    pow_nu = _matrix_powers(m_nu, m)

    alpha, beta = len(xs), len(ys)
    bracket_cache: dict[tuple[int, int], np.ndarray] = {}
    total = np.zeros(n)
    for i in range(m + 1):
        if alpha - i < 1:
            continue
        for j in range(m + 1):
            if beta - j < 1:
                continue
            key = (alpha - i, beta - j)
            if key not in bracket_cache:
                bracket_cache[key] = lie_bracket(xs[key[0] - 1], ys[key[1] - 1]).at(p)
            sign = -1 if (i + j) % 2 else 1
            coeff = sign * math.comb(m, i) * math.comb(m, j)
            total += coeff * (pow_mu[m - i] @ pow_nu[m - j] @ bracket_cache[key])
    return total


def _matrix_powers(mat: np.ndarray, top: int) -> list[np.ndarray]:
    powers = [np.eye(mat.shape[0])]
    for _ in range(top):
        powers.append(powers[-1] @ mat)
    return powers


def _check_chain(ap: np.ndarray, lam: float,
                 chain: Sequence[VectorFieldExpr], p: np.ndarray) -> None:
    """Check A X_g = lam X_g + X_(g-1) along the chain at one point, relative
    to the bound (max|A| + |lam|) max|X_g| + max|X_(g-1)|."""
    if not chain:
        raise ChainConditionError("chain must contain at least one field")
    prev = np.zeros(ap.shape[0])
    scale = np.max(np.abs(ap)) + abs(lam)
    for g, field in enumerate(chain, start=1):
        xv = field.at(p)
        bound = scale * np.max(np.abs(xv)) + np.max(np.abs(prev))
        rel = relative(np.max(np.abs(ap @ xv - lam * xv - prev)), bound)
        if rel > 1e-8:
            raise ChainConditionError(f"chain relation fails at slot {g}: relative residual "
                                      f"{rel:.3e} exceeds 1e-08 at point {tuple(p.tolist())}")
        prev = xv
