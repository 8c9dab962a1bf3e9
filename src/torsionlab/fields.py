"""Vector fields, operator fields and the generalized torsion tower.

Operator fields are evaluated as 1-jets: a :class:`Jet` holds the entry
values and the exact (symbolic) entry derivatives at a batch of points.
Composite operators (linear combinations with scalar-field coefficients,
products, polynomials, powers) build their jets by ``Jet`` arithmetic, whose
``@`` holds the one copy of the product rule.

The level-1 torsion comes from the coordinate expansion

    T^i_jk = sum_l [ A^l_j d_l A^i_k - A^l_k d_l A^i_j
                     - A^i_l (d_j A^l_k - d_k A^l_j) ]

and every higher level from the pointwise recursion

    T' = A^2 T(X,Y) + T(AX,AY) - A(T(X,AY) + T(AX,Y)) = R_sigma T,

the polynomial representation R_S of sigma = (z - lambda)(z - mu).  All
contractions, the level-up step included, go through one kernel,
:func:`rep_apply_many`, built from batched ``matmul`` over sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ChainConditionError,
    ChartMismatchError,
    DimensionMismatchError,
    EvalDomainError,
    PreconditionError,
)
from .expr import (
    Chart,
    Expr,
    SampleDomain,
    add,
    as_point,
    const,
    diff,
    eval_at,
    eval_many,
    mul,
    sample_points,
    sub,
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
    n = a.chart.dim
    comps = []
    for i in range(n):
        acc: Expr = const(0)
        for j in range(n):
            acc = add(acc, mul(a.entries[i][j], x.components[j]))
        comps.append(acc)
    return VectorFieldExpr(a.chart, tuple(comps))


# ---------------------------------------------------------------------------
# 1-jets and operator fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Jet:
    """Values and first derivatives of a matrix field over a batch of points.

    ``vals[p, i, j] = A^i_j`` and ``derivs[p, l, i, j] = d_l A^i_j``.  A scalar
    field is the jet with ``vals`` of shape (N, 1, 1) and ``derivs`` of shape
    (N, n, 1, 1), so ``*`` scales a matrix jet by it.  ``derivs`` is None for
    a value-only jet.  A jet unpacks as ``vals, derivs``.
    """

    vals: np.ndarray
    derivs: np.ndarray | None = None

    def __iter__(self):
        return iter((self.vals, self.derivs))

    def __add__(self, other: "Jet") -> "Jet":
        derivs = None if self.derivs is None else self.derivs + other.derivs
        return Jet(self.vals + other.vals, derivs)

    def __mul__(self, other: "Jet") -> "Jet":
        return self._leibniz(np.multiply, other)

    def __matmul__(self, other: "Jet") -> "Jet":
        return self._leibniz(np.matmul, other)

    def _leibniz(self, product, other: "Jet") -> "Jet":
        # the product rule d(ab) = da b + a db, for entrywise and matrix products
        vals = product(self.vals, other.vals)
        if self.derivs is None:
            return Jet(vals)
        return Jet(vals, product(self.derivs, other.vals[:, None])
                   + product(self.vals[:, None], other.derivs))


def scalar_jet(coeff: Expr, pts: np.ndarray, derivs: bool = True) -> Jet:
    """Value and gradient of a scalar field at ``pts``, shaped to scale a matrix jet."""
    vals = eval_many(coeff, pts)[:, None, None]
    if not derivs:
        return Jet(vals)
    grad = np.stack([eval_many(diff(coeff, l), pts) for l in range(pts.shape[1])], axis=1)
    return Jet(vals, grad[:, :, None, None])


def _require_finite(pts: np.ndarray, what: str, *arrays) -> None:
    """Raise :class:`EvalDomainError` naming the first point where an array,
    indexed by point along axis 0, holds a NaN or an infinity."""
    for arr in arrays:
        if arr is None or np.isfinite(arr).all():
            continue
        bad = ~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1)
        point = tuple(pts[int(np.argmax(bad))].tolist())
        raise EvalDomainError(f"{what} is not finite at point {point}")


class OperatorBase:
    """Anything that can produce entry values and entry derivatives at points.

    ``jet_many(pts)`` returns the :class:`Jet` ``(A, dA)`` with
    ``A[p, i, j] = A^i_j`` and ``dA[p, l, i, j] = d_l A^i_j`` for every sample
    point; that 1-jet is all the torsion tower needs.  Both it and
    ``values_many`` raise :class:`EvalDomainError` at the first point with a
    non-finite value.  Subclasses implement ``_jet(pts, derivs)``.
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
    def _entry_derivatives(self) -> tuple:
        n = self.chart.dim
        return tuple(
            tuple(tuple(diff(self.entries[i][j], l) for j in range(n)) for i in range(n))
            for l in range(n)
        )

    def _jet(self, pts, derivs):
        n = self.chart.dim
        vals = np.empty((pts.shape[0], n, n))
        for i in range(n):
            for j in range(n):
                vals[:, i, j] = eval_many(self.entries[i][j], pts)
        if not derivs:
            return Jet(vals)
        grads = np.empty((pts.shape[0], n, n, n))
        dmat = self._entry_derivatives
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    grads[:, l, i, j] = eval_many(dmat[l][i][j], pts)
        return Jet(vals, grads)


def identity_operator(chart: Chart) -> OperatorField:
    n = chart.dim
    return OperatorField(
        chart,
        tuple(tuple(const(1 if i == j else 0) for j in range(n)) for i in range(n)),
    )


@dataclass(frozen=True)
class LinCombOperator(OperatorBase):
    """f_1 K_1 + ... + f_r K_r with scalar fields f_k."""

    chart: Chart
    terms: tuple[tuple[Expr, OperatorBase], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        for _, op in self.terms:
            if op.chart != self.chart:
                raise ChartMismatchError("all terms must share one chart")

    def _jet(self, pts, derivs):
        out = None
        for coeff, op in self.terms:
            term = scalar_jet(coeff, pts, derivs) * op._jet(pts, derivs)
            out = term if out is None else out + term
        return out


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
class PolyOperator(OperatorBase):
    """P(A) = sum_k c_k(x) A^k with scalar-field coefficients."""

    base: OperatorBase
    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least the degree-0 coefficient")
        object.__setattr__(self, "chart", self.base.chart)

    chart: Chart = None

    def _jet(self, pts, derivs):
        # Horner: P(A) = (..(c_N A + c_(N-1)) A + ..) A + c_0
        base = self.base._jet(pts, derivs)
        eye = Jet(np.broadcast_to(np.eye(self.chart.dim), base.vals.shape),
                  None if base.derivs is None else np.zeros_like(base.derivs))
        out = scalar_jet(self.coeffs[-1], pts, derivs) * eye
        for c in reversed(self.coeffs[:-1]):
            out = out @ base + scalar_jet(c, pts, derivs) * eye
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
# the contraction kernel and the tower
# ---------------------------------------------------------------------------

# sigma = (z - lambda)(z - mu) as exponents (i, j, k) -> coefficient
SIGMA = {(2, 0, 0): 1, (1, 1, 0): -1, (1, 0, 1): -1, (0, 1, 1): 1}


def rep_apply_many(terms: Mapping[tuple[int, int, int], object],
                   tensors: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """R_S T = sum_(i,j,k) s_ijk A^i T(A^j ., A^k .) at every point of a batch.

    ``terms`` maps exponents to coefficients, each a scalar or an array of
    shape (N,); ``tensors`` has shape (N, n, n, n) and ``vals`` (N, n, n).
    z acts on the tensor value, lambda on the first argument and mu on the
    second.  Every contraction is a batched ``matmul`` over one index.
    """
    n_pts, n = vals.shape[0], vals.shape[-1]
    out = np.zeros(tensors.shape)
    if not terms:
        return out
    powers = [np.broadcast_to(np.eye(n), vals.shape), vals]
    while len(powers) <= max(max(key) for key in terms):
        powers.append(powers[-1] @ vals)
    # T(A^j X, Y): (A^j)^T contracted into the first argument slot
    firsts = {j: powers[j].swapaxes(1, 2)[:, None] @ tensors
              for j in {key[1] for key in terms} if j}
    firsts[0] = tensors
    # C-contiguous, so that their flat reshapes below are views
    inner = np.empty(tensors.shape)
    term = np.empty(tensors.shape)
    flat = (n_pts, n, n * n)
    for i in sorted({key[0] for key in terms}):
        # the i = 0 group needs no value matmul; it comes first, while out is zero
        acc = inner if i else out
        acc.fill(0.0)
        for (ti, j, k), coeff in terms.items():
            if ti != i:
                continue
            # s_ijk T(A^j X, A^k Y)
            weight = np.reshape(coeff, (-1, 1, 1, 1))
            if k:
                np.matmul(firsts[j], powers[k][:, None], out=term)
                term *= weight
            else:
                np.multiply(firsts[j], weight, out=term)
            acc += term
        if i:
            np.matmul(powers[i], inner.reshape(flat), out=term.reshape(flat))
            out += term
    return out


def _skew(arr: np.ndarray) -> np.ndarray:
    # exact in IEEE arithmetic: out[..., j, k] = -out[..., k, j]
    out = arr - arr.swapaxes(-1, -2)
    out *= 0.5
    return out


def nijenhuis_from_jets(vals: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """T^i_jk = D^i_jk - D^i_kj with D^i_jk = A^l_j d_l A^i_k - A^i_l d_j A^l_k."""
    n_pts, n = vals.shape[0], vals.shape[-1]
    # both contractions come out indexed [p, j, i, k]
    d = (vals.swapaxes(1, 2) @ derivs.reshape(n_pts, n, n * n)).reshape(derivs.shape)
    d -= vals[:, None] @ derivs
    d = d.swapaxes(1, 2)
    # exactly skew, since fl(a - b) = -fl(b - a)
    out = np.empty(derivs.shape)
    np.subtract(d, d.swapaxes(2, 3), out=out)
    return out


def level_up_many(torsions: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """A^2 T(X,Y) + T(AX,AY) - A(T(X,AY) + T(AX,Y)), i.e. R_sigma T, made skew."""
    return _skew(rep_apply_many(SIGMA, torsions, vals))


def tower_from_jets(vals: np.ndarray, derivs: np.ndarray, m: int) -> np.ndarray:
    torsions = nijenhuis_from_jets(vals, derivs)
    for _ in range(m - 1):
        torsions = level_up_many(torsions, vals)
    return torsions


def torsion_many(a: OperatorBase, m: int, pts: np.ndarray) -> np.ndarray:
    """Level-m torsion components at every row of ``pts``; shape (N, n, n, n)."""
    if m < 1:
        raise ValueError("torsion level must be >= 1")
    vals, derivs = a.jet_many(pts)
    return tower_from_jets(vals, derivs, m)


def nijenhuis_at(a: OperatorBase, point) -> TorsionTensor:
    """Level-1 (Nijenhuis) torsion of ``a`` at one point."""
    return torsion_at(a, 1, point)


def level_up(torsion: TorsionTensor, ap: OperatorAtPoint) -> TorsionTensor:
    """One step of the tower recursion at a point (level m-1 -> m, m >= 2)."""
    if torsion.components.shape[0] != ap.matrix.shape[0]:
        raise DimensionMismatchError("torsion and operator dimensions differ")
    if torsion.point.shape != ap.point.shape or not np.array_equal(torsion.point, ap.point):
        raise PreconditionError("torsion and operator must be evaluated at the same point")
    comps = level_up_many(torsion.components[None], ap.matrix[None])[0]
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
    """Normalized residual sweep for one torsion level over a sample domain."""

    level: int
    n_points: int
    seed: int
    tol_rel: float
    max_residual: float
    vanishing: bool
    worst_point: np.ndarray


def _residuals(torsions: np.ndarray, vals: np.ndarray, m: int,
               pts: np.ndarray) -> np.ndarray:
    tor_norm = np.max(np.abs(torsions), axis=(1, 2, 3))
    denom = 1.0 + np.max(np.abs(vals), axis=(1, 2)) ** (2 * m - 1)
    _require_finite(pts, f"level-{m} torsion", tor_norm, denom)
    return tor_norm / denom


def torsion_residuals(a: OperatorBase, m: int, pts: np.ndarray) -> np.ndarray:
    """max |T^(m)| / (1 + max|A|^(2m-1)) per point; scale-free residuals."""
    vals, derivs = a.jet_many(pts)
    return _residuals(tower_from_jets(vals, derivs, m), vals, m, pts)


def vanishing_report(torsions: np.ndarray, vals: np.ndarray, m: int,
                     pts: np.ndarray, seed: int, tol_rel: float) -> VanishingReport:
    """Verdict on a level-m tower already built at ``pts`` from the values ``vals``.

    Raises :class:`EvalDomainError` at the first point where the tower or its
    normalization is not finite.
    """
    residuals = _residuals(torsions, vals, m, pts)
    worst = int(np.argmax(residuals))
    max_residual = float(residuals[worst])
    return VanishingReport(
        level=m,
        n_points=pts.shape[0],
        seed=seed,
        tol_rel=tol_rel,
        max_residual=max_residual,
        vanishing=bool(max_residual <= tol_rel),
        worst_point=pts[worst],
    )


def is_vanishing(a: OperatorBase, m: int, domain: SampleDomain,
                 n_pts: int, tol_rel: float) -> VanishingReport:
    """Probabilistic zero test for the level-m torsion over ``domain``."""
    if n_pts < 1:
        raise ValueError("n_pts must be >= 1")
    pts = sample_points(domain, n_pts)
    vals, derivs = a.jet_many(pts)
    return vanishing_report(tower_from_jets(vals, derivs, m), vals, m, pts,
                            domain.seed, tol_rel)


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
    if not chain:
        raise ChainConditionError("chain must contain at least one field")
    prev = np.zeros(ap.shape[0])
    scale = (1.0 + np.max(np.abs(ap)))
    for g, field in enumerate(chain, start=1):
        xv = field.at(p)
        scale_g = scale * (1.0 + np.max(np.abs(xv)))
        resid = np.max(np.abs(ap @ xv - lam * xv - prev))
        if resid > 1e-8 * scale_g:
            raise ChainConditionError(
                f"chain relation fails at slot {g}: residual {resid:.3e}")
        prev = xv
