"""Closure laws for families of torsion-free operators.

Implements the action of trivariate polynomials on pointwise (1,2)-tensors

    (S . T)^a_bc = sum_{ijk} s_ijk (A^i)^a_d T^d_ef (A^j)^e_b (A^k)^f_c,

the Bezout quotient Q_P with P(z) - P(l) = (z - l) Q_P(z, l), the induced
identity relating the torsion of a polynomial P(A) to the torsion of A, and
sampling-based module/ring closure verdicts for operator families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

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
    mul,
    sample_points,
)
from .fields import (
    SIGMA,
    Jet,
    OperatorAtPoint,
    OperatorBase,
    OperatorField,
    PolyOperator,
    TorsionTensor,
    VanishingReport,
    identity_operator,
    rep_apply_many,
    scalar_jet,
    tower_from_jets,
    vanishing_report,
)
from .spectral import minimal_poly_degree_at

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
        return TriPoly(_poly_mul(self.terms, other.terms))

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

    def eval_coeffs(self, point) -> dict[tuple[int, int], float]:
        return {key: eval_at(coeff, point) for key, coeff in self.terms.items()}

    def eval_coeffs_many(self, pts: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        return {key: eval_many(coeff, pts) for key, coeff in self.terms.items()}


# ---------------------------------------------------------------------------
# representation on pointwise tensors
# ---------------------------------------------------------------------------

def rep_apply(s: TriPoly, torsion: TorsionTensor, ap: OperatorAtPoint) -> TorsionTensor:
    """Apply the trivariate-polynomial representation of ``s`` at one point.

    The returned tensor keeps the input's level tag; applying ``sigma`` to a
    level-m torsion reproduces the level-(m+1) torsion.
    """
    if torsion.components.shape[0] != ap.matrix.shape[0]:
        raise DimensionMismatchError("tensor and operator dimensions differ")
    if not np.array_equal(torsion.point, ap.point):
        raise PreconditionError("tensor and operator must sit at the same point")
    terms = s.eval_coeffs(ap.point)
    comps = rep_apply_many(terms, torsion.components[None], ap.matrix[None])[0]
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


def _poly_mul(d1: Mapping[tuple, object], d2: Mapping[tuple, object]) -> dict:
    """Product of sparse polynomials ``{exponents: coefficient}``; coefficients
    are expressions or per-point arrays."""
    out: dict = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return out


# ---------------------------------------------------------------------------
# polynomials of operators
# ---------------------------------------------------------------------------

def poly_of_operator(a: OperatorField, p: PolySpec) -> OperatorField:
    """Symbolic matrix polynomial sum_k c_k(x) A^k as an operator field."""
    n = a.chart.dim
    power = identity_operator(a.chart).entries
    out = [[mul(p.coeffs[0], power[i][j]) for j in range(n)] for i in range(n)]
    for k in range(1, len(p.coeffs)):
        nxt = [[const(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc: Expr = const(0)
                for d in range(n):
                    acc = add(acc, mul(power[i][d], a.entries[d][j]))
                nxt[i][j] = acc
        power = tuple(tuple(row) for row in nxt)
        for i in range(n):
            for j in range(n):
                out[i][j] = add(out[i][j], mul(p.coeffs[k], power[i][j]))
    return OperatorField(a.chart, tuple(tuple(row) for row in out))


@dataclass(frozen=True, eq=False)
class PreservationReport:
    """Vanishing preservation plus the Bezout-representation identity.

    The identity residual is normalized by the representation's amplification
    bound (sum of |s_ijk| ||A||^(i+j+k) times the torsion magnitude): with a
    vanishing base torsion both identity sides are pure roundoff, and only
    this normalization makes the comparison scale-free.  The raw two-sided
    relative residual for generic operators is
    :func:`bezout_identity_residual`.
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


def _quotient_image(p: PolySpec, m: int, pts: np.ndarray, t_base: np.ndarray,
                    vals: np.ndarray) -> tuple[np.ndarray, dict]:
    """R_S T^(m)_A with S = Q_P(z,l)^m Q_P(z,mu)^m at every point, and S's terms."""
    q = bezout_quotient(p).eval_coeffs_many(pts)
    q_m = {(0, 0): np.ones(pts.shape[0])}
    for _ in range(m):
        q_m = _poly_mul(q_m, q)
    terms = _poly_mul({(a, b, 0): c for (a, b), c in q_m.items()},
                      {(a, 0, b): c for (a, b), c in q_m.items()})
    return rep_apply_many(terms, t_base, vals), terms


def bezout_identity_residual(a: OperatorBase, p: PolySpec, m: int,
                             pts: np.ndarray) -> float:
    """Max relative deviation of T^(m)_{P(A)} from the quotient representation
    R_{Q_P(z,l)^m Q_P(z,mu)^m} T^(m)_A over the given points."""
    if m < 2:
        raise ValueError("the quotient identity applies for levels m >= 2")
    vals, derivs = a.jet_many(pts)
    rhs, _ = _quotient_image(p, m, pts, tower_from_jets(vals, derivs, m), vals)
    t_poly = tower_from_jets(*PolyOperator(a, p.coeffs).jet_many(pts), m)
    scale = np.maximum(1.0, np.maximum(
        np.max(np.abs(t_poly), axis=(1, 2, 3)), np.max(np.abs(rhs), axis=(1, 2, 3))))
    return float(np.max(np.max(np.abs(t_poly - rhs), axis=(1, 2, 3)) / scale))


def check_polynomial_preservation(a: OperatorBase, p: PolySpec, m: int,
                                  domain: SampleDomain, n_pts: int,
                                  tol: float) -> PreservationReport:
    """Verify that P(A) inherits the vanishing level-m torsion of A.

    Precondition: A itself passes the level-m vanishing test.  Also checks
    the pointwise identity through the Bezout quotient, normalized by the
    representation's amplification bound (see :class:`PreservationReport`).
    """
    pts = sample_points(domain, n_pts)
    vals, derivs = a.jet_many(pts)
    t_base = tower_from_jets(vals, derivs, m)
    base = vanishing_report(t_base, vals, m, pts, domain.seed, tol)
    if not base.vanishing:
        raise PreconditionError(
            f"operator is not level-{m} vanishing (residual {base.max_residual:.3e})")
    poly_vals, poly_derivs = PolyOperator(a, p.coeffs).jet_many(pts)
    t_poly = tower_from_jets(poly_vals, poly_derivs, m)
    poly_rep = vanishing_report(t_poly, poly_vals, m, pts, domain.seed, tol)

    rhs, terms = _quotient_image(p, m, pts, t_base, vals)
    beta = np.maximum(1.0, np.max(np.sum(np.abs(vals), axis=2), axis=1))
    amplification = np.zeros(pts.shape[0])
    for (i, j, k), coeff in terms.items():
        amplification += np.abs(coeff) * beta ** (i + j + k)
    tau_norm = np.max(np.abs(t_base), axis=(1, 2, 3))
    denom = 1.0 + amplification * (1.0 + tau_norm)
    identity_res = float(np.max(np.max(np.abs(t_poly - rhs), axis=(1, 2, 3)) / denom))

    return PreservationReport(
        level=m,
        base_report=base,
        poly_report=poly_rep,
        identity_max_residual=identity_res,
        identity_tol=tol,
    )


# ---------------------------------------------------------------------------
# algebra closure checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AlgebraCheckReport:
    """Commutativity plus sampled module/ring closure for an operator family."""

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
                  n_pts: int, n_random_combos: int, tol: float,
                  combo_seed: int | None = None) -> AlgebraCheckReport:
    """Sample the closure laws of a generalized torsion-free operator family.

    Checks pairwise commutativity at sampled points, then draws random
    function pairs (f, g) and operator pairs (K1, K2) and verifies level-m
    vanishing of f K1 + g K2 (module law) and of K1 K2 (ring law).
    """
    if not ops:
        raise ValueError("need at least one operator")
    chart = ops[0].chart
    pts = sample_points(domain, n_pts)
    jets = [op.jet_many(pts) for op in ops]
    vals = [j.vals for j in jets]

    k = len(ops)
    commute = [[True] * k for _ in range(k)]
    commute_worst = 0.0
    for ia in range(k):
        for ib in range(ia + 1, k):
            comm = vals[ia] @ vals[ib] - vals[ib] @ vals[ia]
            scale = (1.0 + np.max(np.abs(vals[ia]))) * (1.0 + np.max(np.abs(vals[ib])))
            rel = float(np.max(np.abs(comm)) / scale)
            commute_worst = max(commute_worst, rel)
            ok = rel <= tol
            commute[ia][ib] = commute[ib][ia] = ok

    def verdict(jet: Jet) -> VanishingReport:
        return vanishing_report(tower_from_jets(jet.vals, jet.derivs, m), jet.vals, m,
                                pts, domain.seed, tol)

    if combo_seed is None:
        combo_seed = (domain.seed * 2654435761 + 0x5EED) % (2 ** 63)
    rng = np.random.default_rng(combo_seed)
    module_worst = 0.0
    ring_worst = 0.0
    module_closed = True
    ring_closed = True
    for _ in range(n_random_combos):
        ia = int(rng.integers(0, k))
        ib = int(rng.integers(0, k))
        f = _random_combo_poly(chart, rng)
        g = _random_combo_poly(chart, rng)
        module = verdict(scalar_jet(f, pts) * jets[ia] + scalar_jet(g, pts) * jets[ib])
        module_worst = max(module_worst, module.max_residual)
        module_closed = module_closed and module.vanishing
        ring = verdict(jets[ia] @ jets[ib])
        ring_worst = max(ring_worst, ring.max_residual)
        ring_closed = ring_closed and ring.vanishing

    return AlgebraCheckReport(
        level=m,
        n_points=n_pts,
        n_combos=n_random_combos,
        seed=domain.seed,
        combo_seed=combo_seed,
        tol=tol,
        commute=tuple(tuple(row) for row in commute),
        commute_worst=commute_worst,
        module_closed=module_closed,
        module_worst=module_worst,
        ring_closed=ring_closed,
        ring_worst=ring_worst,
    )


def cyclic_basis(a: OperatorBase, point, cluster_tol: float = 1e-4,
                 rank_tol: float = 1e-8) -> list[int]:
    """Exponents of the independent powers of A at a point: 0 .. d-1.

    d is the minimal polynomial degree.  :func:`minimal_poly_degree_at`
    already finds {A^0(p), .., A^(d-1)(p)} numerically independent before it
    returns d.
    """
    return list(range(minimal_poly_degree_at(a, point, cluster_tol, rank_tol)))
