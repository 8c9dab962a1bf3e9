"""Closure laws for families of torsion-free operators.

Implements the action of trivariate polynomials on pointwise (1,2)-tensors

    (S . T)^a_bc = sum_{ijk} s_ijk (A^i)^a_d T^d_ef (A^j)^e_b (A^k)^f_c,

by Horner over the slot actions Z, Lambda and M of
:func:`torsionlab.fields.slot_action`; the Bezout quotient Q_P with
P(z) - P(l) = (z - l) Q_P(z, l) and the identity relating the torsion of
P(A) to that of A, whose image Q_P(Z, Lambda)^m Q_P(Z, M)^m is applied
factor by factor, never expanded; and sampling-based verdicts on the
preservation of vanishing under P and on module/ring closure.

Every verdict here is one chunk-major walk
(:func:`torsionlab.fields.candidate_verdicts`) over the chunks of
:func:`torsionlab.fields.chunks`, and every candidate is judged at level m
alone, on the factored image :func:`torsionlab.fields.level_image`, built
here and dropped before the next.  The preservation check judges the images
of A and P(A) and keeps the Bezout identity residual, from the same two
images, as a running maximum; :func:`bezout_identity_residual` walks the
same chunks.  The closure check judges every K_a K_b and f K_a + g K_b: per
chunk each generator's stacked 1-jet [K_a; dK_a] is expanded once, every
coefficient f and g is evaluated from one plan differentiated once, and the
candidates come from the two product rules of :class:`torsionlab.fields.Jet`:
``@`` for K_a K_b, and :func:`torsionlab.fields.scaled` for each f K_a,
the small matrix [[f, 0], [grad f, f I]] times the flat jet, which is also
how a composite operator takes a scalar factor.
Beyond the sample and the generators' evaluated columns no per-point array
outlives a chunk, so memory does not grow with the sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .expr import (
    Chart,
    Expr,
    SampleDomain,
    Var,
    add,
    const,
    eval_at,
    eval_many,
    mat_mul,
    mul,
    poly_mul,
    sample_points,
)
from .fields import (
    Jet,
    OperatorAtPoint,
    OperatorBase,
    OperatorField,
    PolyOperator,
    TorsionTensor,
    VanishingReport,
    _point_max,
    candidate_verdicts,
    chunks,
    identity_operator,
    level_image,
    relative,
    scalar_jets_plan,
    scaled,
    slot_action,
)
from .spectral import CLUSTER_TOL, RANK_TOL, minimal_poly_degree_at

__all__ = [
    "PolySpec",
    "TriPoly",
    "BivarPoly",
    "AlgebraCheckReport",
    "PreservationReport",
    "rep_apply",
    "bezout_quotient",
    "poly_of_operator",
    "check_polynomial_preservation",
    "check_algebra",
    "cyclic_basis",
]


@dataclass(frozen=True)
class PolySpec:
    """P(A) = sum_k c_k(x) A^k given by its coefficient expressions c_0..c_N."""

    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


# sigma = (z - lambda)(z - mu) as exponents (i, j, k) -> coefficient
SIGMA = {(2, 0, 0): 1, (1, 1, 0): -1, (1, 0, 1): -1, (0, 1, 1): 1}


class TriPoly:
    """Sparse polynomial in (z, lambda, mu) with scalar-field coefficients.

    z acts on the tensor value, lambda on the first argument, mu on the
    second.
    """

    def __init__(self, terms: Mapping[tuple[int, int, int], Expr]):
        cleaned = {}
        for key, coeff in terms.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0:
                raise ValueError("exponents must be non-negative")
            cleaned[(int(i), int(j), int(k))] = coeff
        self.terms = cleaned

    @classmethod
    def one(cls) -> "TriPoly":
        return cls({(0, 0, 0): const(1)})

    @classmethod
    def sigma(cls) -> "TriPoly":
        """(z - lambda)(z - mu); applying it raises the tower level by one."""
        return cls({key: const(c) for key, c in SIGMA.items()})

    def __mul__(self, other: "TriPoly") -> "TriPoly":
        return TriPoly(poly_mul(self.terms, other.terms))

    def __add__(self, other: "TriPoly") -> "TriPoly":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = add(out[key], coeff) if key in out else coeff
        return TriPoly(out)

    def eval_coeffs(self, point) -> dict[tuple[int, int, int], float]:
        return {key: eval_at(coeff, point) for key, coeff in self.terms.items()}


@dataclass(frozen=True)
class BivarPoly:
    """Polynomial in (z, lambda) with scalar-field coefficients."""

    terms: Mapping[tuple[int, int], Expr]

    def eval_coeffs_many(self, pts: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        return {key: eval_many(coeff, pts) for key, coeff in self.terms.items()}


# ---------------------------------------------------------------------------
# representation on pointwise tensors
# ---------------------------------------------------------------------------

def _actions(vals: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """Z, Lambda and M: T -> A T(X, Y), T(AX, Y) and T(X, AY)."""
    vals_t = vals.swapaxes(1, 2)
    return (lambda t: slot_action(vals, t, 1),
            lambda t: slot_action(vals_t, t, 2),
            lambda t: slot_action(vals_t, t, 3))


def _horner(terms: Mapping[tuple[int, ...], object],
            actions: Sequence[Callable[[np.ndarray], np.ndarray]],
            tensors: np.ndarray) -> np.ndarray:
    """sum over ``terms`` of s_e X_1^e_1 .. X_r^e_r applied to ``tensors``.

    Coefficients are scalars or (N,) arrays; the r ``actions`` commute.  Horner
    in X_1, each coefficient polynomial in X_2 .. X_r again by Horner.
    """
    if not terms:
        return np.zeros(tensors.shape)
    if not actions:
        return tensors * np.reshape(terms[()], (-1, 1, 1, 1))
    act, rest = actions[0], actions[1:]
    by_power: dict[int, dict] = {}
    for key, coeff in terms.items():
        by_power.setdefault(key[0], {})[key[1:]] = coeff
    top = max(by_power)
    out = _horner(by_power[top], rest, tensors)
    for power in range(top - 1, -1, -1):
        out = act(out)
        if power in by_power:
            out += _horner(by_power[power], rest, tensors)
    return out


def rep_apply(s: TriPoly, torsion: TorsionTensor, ap: OperatorAtPoint) -> TorsionTensor:
    """Apply the trivariate-polynomial representation of ``s`` at one point.

    The returned tensor keeps the input's level tag; applying ``sigma`` to a
    level-m torsion reproduces the level-(m+1) torsion.
    """
    if torsion.components.shape[0] != ap.matrix.shape[0]:
        raise DimensionMismatchError("tensor and operator dimensions differ")
    if not np.array_equal(torsion.point, ap.point):
        raise PreconditionError("tensor and operator must sit at the same point")
    comps = _horner(s.eval_coeffs(ap.point), _actions(ap.matrix[None]),
                    torsion.components[None])[0]
    return TorsionTensor(torsion.level, torsion.point, comps)


# ---------------------------------------------------------------------------
# Bezout quotients
# ---------------------------------------------------------------------------

def bezout_quotient(p: PolySpec) -> BivarPoly:
    """Q_P with P(z) - P(lambda) = (z - lambda) Q_P(z, lambda).

    Q_P(z, lambda) = sum_{k=1..N} c_k sum_{a+b=k-1} z^a lambda^b, so the
    coefficient of z^a lambda^b is c_(a+b+1).
    """
    if p.degree < 1:
        raise ValueError("Bezout quotient needs degree >= 1")
    zero = const(0)
    terms: dict[tuple[int, int], Expr] = {}
    for k in range(1, p.degree + 1):
        if p.coeffs[k] == zero:
            continue
        for a in range(k):
            key = (a, k - 1 - a)
            terms[key] = add(terms[key], p.coeffs[k]) if key in terms else p.coeffs[k]
    return BivarPoly(terms)


# ---------------------------------------------------------------------------
# polynomials of operators
# ---------------------------------------------------------------------------

def poly_of_operator(a: OperatorField, p: PolySpec) -> OperatorField:
    """Symbolic matrix polynomial sum_k c_k(x) A^k as an operator field."""
    n = a.chart.dim
    power = identity_operator(a.chart).entries
    out = [[mul(p.coeffs[0], power[i][j]) for j in range(n)] for i in range(n)]
    for k in range(1, len(p.coeffs)):
        power = mat_mul(power, a.entries)
        for i in range(n):
            for j in range(n):
                out[i][j] = add(out[i][j], mul(p.coeffs[k], power[i][j]))
    return OperatorField(a.chart, tuple(tuple(row) for row in out))


@dataclass(frozen=True, eq=False)
class PreservationReport:
    """Vanishing preservation plus the Bezout-representation identity.

    The identity residual is normalized by the amplification bound (sum of
    |s_ijk| ||A||^(i+j+k) times the torsion magnitude): with a vanishing base
    torsion both sides are pure roundoff.  For generic operators the raw
    two-sided residual is :func:`bezout_identity_residual`.
    """

    level: int
    base_report: VanishingReport
    poly_report: VanishingReport
    identity_max_residual: float
    identity_tol: float

    @property
    def vanishing_preserved(self) -> bool:
        return self.poly_report.vanishing

    @property
    def identity_ok(self) -> bool:
        return self.identity_max_residual <= self.identity_tol

    @property
    def passed(self) -> bool:
        return self.vanishing_preserved and self.identity_ok


def _quotient_image(q: Mapping[tuple[int, int], np.ndarray], m: int, t_base: np.ndarray,
                    vals: np.ndarray) -> np.ndarray:
    """R_S T^(m)_A with S = Q_P(z,l)^m Q_P(z,mu)^m, from Q_P's coefficients
    ``q`` at the points: Z, Lambda and M commute, so R_S is Q_P(Z, M) applied
    m times, then Q_P(Z, Lambda) m times, each by Horner."""
    z, lam, mu = _actions(vals)
    out = t_base
    for second in (mu, lam):
        for _ in range(m):
            out = _horner(q, (z, second), out)
    return out


def bezout_identity_residual(a: OperatorBase, p: PolySpec, m: int,
                             pts: np.ndarray) -> float:
    """Max relative deviation of T^(m)_{P(A)} from the quotient representation
    R_{Q_P(z,l)^m Q_P(z,mu)^m} T^(m)_A over the given points, chunk by chunk."""
    if m < 2:
        raise ValueError("the quotient identity applies for levels m >= 2")
    q = bezout_quotient(p)
    base_at, poly_at = a.jet_slices(pts), PolyOperator(a, p.coeffs).jet_slices(pts)
    worst = -np.inf
    for part in chunks(*pts.shape):
        vals, derivs = base_at(part)
        rhs = _quotient_image(q.eval_coeffs_many(pts[part]), m,
                              level_image(vals, derivs, m), vals)
        t_poly = level_image(*poly_at(part), m)
        scale = np.maximum(1.0, np.maximum(_point_max(t_poly), _point_max(rhs)))
        worst = np.maximum(worst, np.max(_point_max(t_poly - rhs) / scale))
    return float(worst)


def check_polynomial_preservation(a: OperatorBase, p: PolySpec, m: int,
                                  domain: SampleDomain, n_pts: int,
                                  tol: float) -> PreservationReport:
    """Verify that P(A) inherits the vanishing level-m torsion of A.

    Precondition: A itself passes the level-m vanishing test.  Also checks
    the pointwise identity through the Bezout quotient, normalized by the
    representation's amplification bound (see :class:`PreservationReport`).
    One walk (:func:`~torsionlab.fields.candidate_verdicts`) judges A and P(A)
    at level m alone, and the identity residual is a running maximum over
    the same chunk jets.
    """
    pts = sample_points(domain, n_pts)
    q = bezout_quotient(p)
    base_at, poly_at = a.jet_slices(pts), PolyOperator(a, p.coeffs).jet_slices(pts)
    identity_max = np.array(-np.inf)

    def candidates_at(part: slice) -> tuple[tuple[Jet, tuple[np.ndarray]], ...]:
        base, poly = base_at(part), poly_at(part)
        vals = base.vals
        t_base, t_poly = level_image(*base, m), level_image(*poly, m)
        q_at = q.eval_coeffs_many(pts[part])
        rhs = _quotient_image(q_at, m, t_base, vals)
        # the amplification sums |s_ijk| beta^(i+j+k) over S's terms, per point
        q_m = {(0, 0): np.ones(vals.shape[0])}
        for _ in range(m):
            q_m = poly_mul(q_m, q_at)
        terms = poly_mul({(i, j, 0): c for (i, j), c in q_m.items()},
                         {(i, 0, j): c for (i, j), c in q_m.items()})
        beta = np.maximum(1.0, np.max(np.sum(np.abs(vals), axis=2), axis=1))
        amplification = sum(np.abs(c) * beta ** sum(key) for key, c in terms.items())
        denom = 1.0 + amplification * (1.0 + _point_max(t_base))
        resid = _point_max(t_poly - rhs) / denom
        np.maximum(identity_max, np.max(resid), out=identity_max)
        return (base, (t_base,)), (poly, (t_poly,))

    base_rep, poly_rep = (reports[0] for reports in candidate_verdicts(
        candidates_at, (m,), pts, domain.seed, tol))
    if not base_rep.vanishing:
        raise PreconditionError(
            f"operator is not level-{m} vanishing (residual {base_rep.max_residual:.3e})")
    return PreservationReport(
        level=m,
        base_report=base_rep,
        poly_report=poly_rep,
        identity_max_residual=float(identity_max),
        identity_tol=tol,
    )


# ---------------------------------------------------------------------------
# algebra closure checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AlgebraCheckReport:
    """Commutativity plus module/ring closure for an operator family."""

    level: int
    n_points: int
    n_combos: int
    seed: int
    combo_seed: int
    tol: float
    commute: tuple[tuple[bool, ...], ...]
    commute_worst: float
    module_closed: bool
    module_worst: float
    ring_closed: bool
    ring_worst: float

    @property
    def commute_ok(self) -> bool:
        return all(all(row) for row in self.commute)

    @property
    def passed(self) -> bool:
        return self.commute_ok and self.module_closed and self.ring_closed


def _random_combo_poly(chart: Chart, rng: np.random.Generator) -> Expr:
    """Random degree-<=2 polynomial with rational coefficients in [-3, 3]."""
    def coeff() -> Expr:
        num = int(rng.integers(-6, 7)) or 1
        return const(Fraction(num, 2))

    e: Expr = coeff()
    for _ in range(int(rng.integers(1, 3))):
        term = mul(coeff(), Var(int(rng.integers(0, chart.dim))))
        if rng.random() < 0.5:
            term = mul(term, Var(int(rng.integers(0, chart.dim))))
        e = add(e, term)
    return e


def check_algebra(ops: Sequence[OperatorBase], m: int, domain: SampleDomain,
                  n_pts: int, n_random_combos: int, tol: float) -> AlgebraCheckReport:
    """Sample the closure laws of a generalized torsion-free operator family.

    Checks pairwise commutativity at sampled points, by the residual
    :func:`~torsionlab.fields.relative` (max|K_a K_b - K_b K_a|, max|K_a|
    max|K_b|) over the sample, and level-m vanishing of
    K_a K_b for every ordered pair (a, b), K_a^2 included (ring law), then
    draws random function pairs (f, g) and operator pairs (K_a, K_b) and
    verifies level-m vanishing of f K_a + g K_b (module law).  One walk
    judges every candidate at level m alone, ring products first, then the
    combinations in draw order; a non-finite level-m torsion names the lowest
    such candidate and its first point.  Every generator's 1-jet comes chunk
    by chunk from its :meth:`~torsionlab.fields.OperatorBase.jet_slices`, a
    composite generator's included.
    """
    if not ops:
        raise ValueError("need at least one operator")
    if n_random_combos < 0:
        raise ValueError("n_random_combos must be >= 0")
    chart = ops[0].chart
    k, n = len(ops), chart.dim
    pts = sample_points(domain, n_pts)
    generators = [op.jet_slices(pts) for op in ops]

    combo_seed = (domain.seed * 2654435761 + 0x5EED) % (2 ** 63)
    rng = np.random.default_rng(combo_seed)
    pairs, coeffs = [], []  # (a, b) and then f, g of each combination
    for _ in range(n_random_combos):
        pairs.append((int(rng.integers(0, k)), int(rng.integers(0, k))))
        coeffs += [_random_combo_poly(chart, rng), _random_combo_poly(chart, rng)]
    coeffs_at = scalar_jets_plan(coeffs, n)

    # running max|K_a| and max|K_a K_b - K_b K_a| (a < b) over the chunks
    val_max = np.zeros(k)
    comm_max = np.zeros((k, k))

    def level_m(jet: Jet) -> tuple[Jet, tuple[np.ndarray]]:
        return jet, (level_image(*jet, m),)

    def candidates_at(part: slice) -> Iterator[tuple[Jet, tuple[np.ndarray]]]:
        gens = [jet_at(part) for jet_at in generators]
        for ia, a in enumerate(gens):
            val_max[ia] = max(val_max[ia], np.max(np.abs(a.vals)))
            for ib in range(ia + 1, k):
                comm = a.vals @ gens[ib].vals - gens[ib].vals @ a.vals
                comm_max[ia, ib] = max(comm_max[ia, ib], np.max(np.abs(comm)))
        for a in gens:
            for b in gens:
                yield level_m(a @ b)
        cols = coeffs_at(pts[part])
        for c, (ia, ib) in enumerate(pairs):
            yield level_m(scaled(cols[:, 2 * c], gens[ia]) + scaled(cols[:, 2 * c + 1], gens[ib]))

    tops = [reports[0] for reports in
            candidate_verdicts(candidates_at, (m,), pts, domain.seed, tol)]
    ring, module = tops[:k * k], tops[k * k:]

    commute = [[True] * k for _ in range(k)]
    commute_worst = 0.0
    for ia in range(k):
        for ib in range(ia + 1, k):
            rel = float(relative(comm_max[ia, ib], val_max[ia] * val_max[ib]))
            commute_worst = max(commute_worst, rel)
            commute[ia][ib] = commute[ib][ia] = rel <= tol

    return AlgebraCheckReport(
        level=m,
        n_points=n_pts,
        n_combos=n_random_combos,
        seed=domain.seed,
        combo_seed=combo_seed,
        tol=tol,
        commute=tuple(tuple(row) for row in commute),
        commute_worst=commute_worst,
        module_closed=all(r.vanishing for r in module),
        module_worst=max((r.max_residual for r in module), default=0.0),
        ring_closed=all(r.vanishing for r in ring),
        ring_worst=max((r.max_residual for r in ring), default=0.0),
    )


def cyclic_basis(a: OperatorBase, point, cluster_tol: float = CLUSTER_TOL,
                 rank_tol: float = RANK_TOL) -> list[int]:
    """Exponents of the independent powers of A at a point: 0 .. d-1.

    d is the minimal polynomial degree.  :func:`minimal_poly_degree_at`
    already finds {A^0(p), .., A^(d-1)(p)} numerically independent before it
    returns d.
    """
    return list(range(minimal_poly_degree_at(a, point, cluster_tol, rank_tol)))
