"""Shared test utilities: definition-based oracles and random generators.

The oracles here deliberately avoid the production index-contraction code
paths: torsions are assembled from symbolic brackets and operator
applications exactly as defined, then evaluated pointwise.  The spectral
oracle analyses one matrix at a time, with a union-find clustering,
``np.mean`` and its own rank rule, where the production core batches points.
The 1-jet oracle fills an operator entry by entry, the scalar-jet oracle
differentiates along every variable and the sampling oracle accepts
candidates row by row, where production fills and accepts whole batches
and differentiates only along the variables an expression contains.  The
representation oracle sums one ``np.einsum`` per term of a polynomial over
matrix powers, where production applies it by Horner over slot actions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from torsionlab.errors import (
    ComplexEigenvalueError,
    DomainExhaustedError,
    RankAmbiguousError,
    SpectralError,
)
from torsionlab.expr import (
    Chart,
    Expr,
    SampleDomain,
    Var,
    _guard_mask,
    const,
    diff,
    eval_at,
    eval_many,
)
from torsionlab.fields import OperatorField, VectorFieldExpr, apply, lie_bracket
from torsionlab.spectral import IMAG_TOL, RANK_GAP_FACTOR


def basis_field(chart: Chart, index: int) -> VectorFieldExpr:
    comps = tuple(const(1 if i == index else 0) for i in range(chart.dim))
    return VectorFieldExpr(chart, comps)


def tau_defn(a: OperatorField, x: VectorFieldExpr, y: VectorFieldExpr) -> VectorFieldExpr:
    """Level-1 torsion straight from its defining formula (symbolic)."""
    ax, ay = apply(a, x), apply(a, y)
    term1 = apply(a, apply(a, lie_bracket(x, y)))
    term2 = lie_bracket(ax, ay)
    term3 = apply(a, lie_bracket(x, ay))
    term4 = apply(a, lie_bracket(ax, y))
    comps = tuple(
        term1.components[i] + term2.components[i] - term3.components[i] - term4.components[i]
        for i in range(a.chart.dim))
    return VectorFieldExpr(a.chart, comps)


def haantjes_defn(a: OperatorField, x: VectorFieldExpr, y: VectorFieldExpr) -> VectorFieldExpr:
    """Level-2 torsion from its defining formula, built on :func:`tau_defn`."""
    ax, ay = apply(a, x), apply(a, y)
    term1 = apply(a, apply(a, tau_defn(a, x, y)))
    term2 = tau_defn(a, ax, ay)
    term3 = apply(a, tau_defn(a, x, ay))
    term4 = apply(a, tau_defn(a, ax, y))
    comps = tuple(
        term1.components[i] + term2.components[i] - term3.components[i] - term4.components[i]
        for i in range(a.chart.dim))
    return VectorFieldExpr(a.chart, comps)


def nijenhuis_oracle(a: OperatorField, point) -> np.ndarray:
    """T^i_jk via the definition applied to all basis pairs, shape (n, n, n)."""
    n = a.chart.dim
    out = np.zeros((n, n, n))
    for j in range(n):
        for k in range(j + 1, n):
            val = tau_defn(a, basis_field(a.chart, j), basis_field(a.chart, k)).at(point)
            out[:, j, k] = val
            out[:, k, j] = -val
    return out


def haantjes_oracle(a: OperatorField, point) -> np.ndarray:
    n = a.chart.dim
    out = np.zeros((n, n, n))
    for j in range(n):
        for k in range(j + 1, n):
            val = haantjes_defn(a, basis_field(a.chart, j), basis_field(a.chart, k)).at(point)
            out[:, j, k] = val
            out[:, k, j] = -val
    return out


def level_up_oracle(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """R_sigma T = A^2 T(X,Y) + T(AX,AY) - A T(X,AY) - A T(AX,Y), not made skew.

    One ``np.einsum`` per defining term over a batch of points, with
    ``t[p, i, j, k] = T^i_jk`` and ``a[p, i, j] = A^i_j``.
    """
    return (np.einsum("pil,plm,pmjk->pijk", a, a, t)
            + np.einsum("pilm,plj,pmk->pijk", t, a, a)
            - np.einsum("pil,pljm,pmk->pijk", a, t, a)
            - np.einsum("pil,plmk,pmj->pijk", a, t, a))


def rep_oracle(terms, t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """R_S T = sum_(i,j,k) s_ijk A^i T(A^j ., A^k .), from the definition.

    One ``np.einsum`` per term over matrix powers, with ``t[p, i, j, k] =
    T^i_jk``, ``a[p, i, j] = A^i_j`` and each coefficient ``s_ijk`` a scalar
    or an array of shape (N,).
    """
    out = np.zeros(t.shape)
    for (i, j, k), coeff in terms.items():
        ai, aj, ak = (np.linalg.matrix_power(a, e) for e in (i, j, k))
        out += np.reshape(coeff, (-1, 1, 1, 1)) * np.einsum(
            "pal,plmq,pmb,pqc->pabc", ai, t, aj, ak)
    return out


def jet_reference(a: OperatorField, pts: np.ndarray, derivs: bool = True):
    """``(A, dA)`` at ``pts``, each entry and each symbolic entry derivative
    evaluated with ``eval_many`` and written in place, in row-major order;
    ``dA`` is None when ``derivs`` is false."""
    n = a.chart.dim
    vals = np.empty((pts.shape[0], n, n))
    for i in range(n):
        for j in range(n):
            vals[:, i, j] = eval_many(a.entries[i][j], pts)
    if not derivs:
        return vals, None
    grads = np.empty((pts.shape[0], n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                grads[:, l, i, j] = eval_many(diff(a.entries[i][j], l), pts)
    return vals, grads


def scalar_jet_reference(coeff: Expr, pts: np.ndarray):
    """``(f, df)`` at ``pts``, shaped as :func:`torsionlab.fields.scalar_jet`
    gives them: the value, then the symbolic derivative along every variable
    of the chart in order, each evaluated with ``eval_many``."""
    vals = eval_many(coeff, pts)[:, None, None]
    grad = np.stack([eval_many(diff(coeff, l), pts) for l in range(pts.shape[1])], axis=1)
    return vals, grad[:, :, None, None]


def sample_points_reference(domain: SampleDomain, count: int,
                            max_rejections: int) -> np.ndarray:
    """Guarded rejection sampling walked one candidate row at a time.

    Draws the same candidate batches as ``sample_points`` and accepts rows in
    order until ``count`` are taken; raises :class:`DomainExhaustedError`
    once ``max_rejections`` candidates in a row were rejected, counting
    across batches.
    """
    rng = np.random.default_rng(domain.seed)
    lo = np.array([iv[0] for iv in domain.box])
    span = np.array([iv[1] - iv[0] for iv in domain.box])
    rows = []
    consecutive = 0
    while len(rows) < count:
        batch = max(16, count - len(rows))
        cands = lo + span * rng.random((batch, domain.dim))
        for row, ok in zip(cands, _guard_mask(domain, cands)):
            if ok:
                rows.append(row)
                consecutive = 0
                if len(rows) == count:
                    break
            else:
                consecutive += 1
                if consecutive >= max_rejections:
                    raise DomainExhaustedError(
                        f"{consecutive} consecutive rejections; guards too strict for the box")
    return np.array(rows)


def cluster_eigenvalues(eigs: np.ndarray, radius: float) -> list[np.ndarray]:
    """Clusters of ``eigs`` (sorted by real, then imaginary part) under the
    transitive closure of ``|e_a - e_b| <= radius``, by union-find; clusters
    in order of their first member, members in sorted order."""
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    k = eigs.size
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(k):
        for b in range(a + 1, k):
            if abs(eigs[a] - eigs[b]) <= radius:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[complex]] = {}
    for a in range(k):
        groups.setdefault(find(a), []).append(eigs[a])
    return [np.array(v) for v in groups.values()]


def rank_oracle(s: np.ndarray, rank_tol: float) -> int:
    """Numeric rank of one row of descending singular values, with the gap rule."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    thresh = rank_tol * s[0]
    rank = int(np.sum(s > thresh))
    if 0 < rank < s.size:
        above, below = s[rank - 1], s[rank]
        if below > 0 and above / below < RANK_GAP_FACTOR:
            raise RankAmbiguousError(
                f"singular values {above:.3e} and {below:.3e} straddle "
                f"threshold {thresh:.3e}")
    return rank


def spectrum_oracle(mat: np.ndarray, cluster_tol: float, rank_tol: float) -> tuple:
    """Spectrum of one matrix from the definitions, one point at a time.

    Returns ``(eigenvalues, riesz, ranks, eig_bases, char_bases, annihilators)``:
    eigenvalues are the ``np.mean`` of the union-find clusters, and each Riesz
    index is the first power of ``A - l I`` whose rank stops falling, with the
    bases read from the SVD of the stabilized power.
    """
    n = mat.shape[0]
    scale = 1.0 + float(np.max(np.abs(mat)))
    lams = []
    for grp in cluster_eigenvalues(np.linalg.eigvals(mat), cluster_tol * scale):
        mean = complex(np.mean(grp))
        if abs(mean.imag) > IMAG_TOL * scale:
            raise ComplexEigenvalueError(
                f"eigenvalue {mean:.6g} has non-negligible imaginary part")
        lams.append(mean.real)
    lams.sort()
    out = ([], [], [], [], [], [])
    for lam in lams:
        shifted = mat - lam * np.eye(n)
        rank, u, vh = n, None, None
        power = np.eye(n)
        rho = 0
        while True:
            power = power @ shifted
            rho += 1
            pu, s, pvh = np.linalg.svd(power)
            cut = rank_oracle(s, rank_tol)
            if cut == rank:
                rho -= 1
                break
            rank, u, vh = cut, pu, pvh
            if rho > n:
                raise SpectralError("rank sequence failed to stabilize")
        if rho == 0:
            raise SpectralError(f"cluster value {lam:.6g} is not an eigenvalue")
        for lst, item in zip(out, (lam, rho, n - rank, vh[rank:].T, u[:, :rank], u[:, rank:].T)):
            lst.append(item)
    if sum(out[2]) != n:
        raise SpectralError(
            f"generalized eigenspace ranks {out[2]} do not sum to dimension {n}")
    return tuple(tuple(lst) for lst in out)


def central_difference(e: Expr, var: int, point, scale: float = 1e-6) -> float:
    p = np.asarray(point, dtype=float)
    h = scale * max(1.0, abs(p[var]))
    hi, lo = p.copy(), p.copy()
    hi[var] += h
    lo[var] -= h
    return (eval_at(e, hi) - eval_at(e, lo)) / (2 * h)


def random_poly_expr(chart: Chart, rng: np.random.Generator, max_terms: int = 3) -> Expr:
    """Random polynomial of degree <= 2 with small rational coefficients."""
    def coeff() -> Expr:
        num = int(rng.integers(-6, 7)) or 2
        return const(Fraction(num, int(rng.integers(1, 3))))

    e: Expr = coeff()
    for _ in range(int(rng.integers(1, max_terms + 1))):
        term = coeff() * Var(int(rng.integers(0, chart.dim)))
        if rng.random() < 0.4:
            term = term * Var(int(rng.integers(0, chart.dim)))
        e = e + term
    return e


def random_operator(chart: Chart, rng: np.random.Generator) -> OperatorField:
    n = chart.dim
    entries = tuple(
        tuple(random_poly_expr(chart, rng, max_terms=2) for _ in range(n))
        for _ in range(n))
    return OperatorField(chart, entries)


def random_vector_field(chart: Chart, rng: np.random.Generator) -> VectorFieldExpr:
    return VectorFieldExpr(
        chart, tuple(random_poly_expr(chart, rng, max_terms=2) for _ in range(chart.dim)))


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b)) / scale)


def finest_block_partition(mats: np.ndarray, tol: float) -> tuple[int, ...]:
    """Block sizes of the finest contiguous partition of ``mats`` (N, n, n)
    whose off-block entries all stay within ``tol * max(1, max|entry|)``,
    found by trying all 2^(n-1) sets of cut positions."""
    n = mats.shape[1]
    bound = tol * max(1.0, float(np.max(np.abs(mats))))
    best: tuple[int, ...] = (n,)
    for count in range(1, n):
        for cuts in combinations(range(1, n), count):
            edges = (0, *cuts, n)
            block = np.repeat(np.arange(count + 1), np.diff(edges))
            off = block[:, None] != block[None, :]
            if np.all(np.abs(mats[:, off]) <= bound):
                best = tuple(int(d) for d in np.diff(edges))
    return best
