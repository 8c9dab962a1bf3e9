"""Shared test utilities: definition-based oracles and random generators.

The oracles here deliberately avoid the production index-contraction code
paths: torsions are assembled from symbolic brackets and operator
applications exactly as defined, then evaluated pointwise.  The spectral
oracle analyses one matrix at a time, with a union-find clustering,
``np.mean`` and its own rank rule, where the production core batches points.
The 1-jet oracle fills an operator entry by entry, the scalar-jet oracle
differentiates along every variable, the composite 1-jet oracle applies the
product rules entrywise and by ``np.einsum`` where production multiplies
stacked jets by small matrices, and the sampling oracle accepts
candidates row by row, where production fills and accepts whole batches
and differentiates only along the variables an expression contains.  The
representation oracle sums one ``np.einsum`` per term of a polynomial over
matrix powers, where production applies it by Horner over slot actions.
The monomial oracle reads coefficients off exact Taylor derivatives at the
origin, where production expands the expression tree term by term.  The
verdict reference judges a whole tower level at once, where production folds
chunk after chunk into running maxima, and the residual references read each
ratio entry by entry (:func:`relative_oracle`).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

import numpy as np

from torsionlab.algebra import PolySpec
from torsionlab.errors import (
    ComplexEigenvalueError,
    DomainExhaustedError,
    EvalDomainError,
    RankAmbiguousError,
    SpectralError,
)
from torsionlab.expr import (
    Add,
    Chart,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    SampleDomain,
    Sub,
    Var,
    _guard_mask,
    const,
    diff,
    eval_at,
    eval_many,
    subst_vars,
)
from torsionlab.fields import (
    Jet,
    LinCombOperator,
    OperatorField,
    ProductOperator,
    VanishingReport,
    VectorFieldExpr,
    apply,
    lie_bracket,
)
from torsionlab.spectral import IMAG_TOL, RANK_GAP_FACTOR


def basis_field(chart: Chart, index: int, scale=1) -> VectorFieldExpr:
    comps = tuple(const(scale if i == index else 0) for i in range(chart.dim))
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


def relative_oracle(residual, bound) -> np.ndarray:
    """residual / bound entry by entry, with 0/0 read as 0 and x/0 as inf."""
    residual, bound = np.broadcast_arrays(np.asarray(residual, dtype=float),
                                          np.asarray(bound, dtype=float))
    out = [0.0 if r == 0 else (np.inf if b == 0 else r / b)
           for r, b in zip(residual.ravel().tolist(), bound.ravel().tolist())]
    return np.array(out).reshape(residual.shape)


def tower_bound(vals: np.ndarray, derivs: np.ndarray, m: int) -> np.ndarray:
    """max|A|^(2m-1) max|dA| per point (axis 0), the magnitude of a level-m
    torsion from the 1-jet that gives it."""
    n_pts = vals.shape[0]
    return (np.abs(vals).reshape(n_pts, -1).max(axis=1) ** (2 * m - 1)
            * np.abs(derivs).reshape(n_pts, -1).max(axis=1))


def bounded_err(a, b, bound) -> float:
    """max|a - b| relative to ``bound``, a magnitude of the inputs that gave
    a and b, by :func:`relative_oracle`."""
    return float(relative_oracle(np.max(np.abs(np.asarray(a) - np.asarray(b))), bound))


def chain_bound(a, m: int, point, x: VectorFieldExpr, y: VectorFieldExpr) -> float:
    """max|A|^(2m-1) max|dA| max|X| max|Y| at ``point``, the magnitude of the
    contraction T^(m)(X, Y) that the chain formula reproduces."""
    vals, derivs = a.jet_many(np.asarray(point, dtype=float)[None])
    return float(tower_bound(vals, derivs, m)[0] * np.max(np.abs(x.at(point)))
                 * np.max(np.abs(y.at(point))))


def vanishing_report(torsions: np.ndarray, vals: np.ndarray, derivs: np.ndarray, m: int,
                     pts: np.ndarray, seed: int, tol_rel: float) -> VanishingReport:
    """Verdict on a whole level-m tower, from the residual rule on whole arrays.

    T^(m) is of degree 2m - 1 in A and linear in dA, so the residual at each
    point is max|T^(m)| / (max|A|^(2m-1) max|dA|), read by
    :func:`relative_oracle`; the report names the first point of the largest,
    and an ``EvalDomainError`` names the first point where the torsion norm
    or the rule's bound is not finite.  Production folds the same rule chunk
    by chunk.
    """
    n_pts = pts.shape[0]
    tor_norm = np.abs(torsions).reshape(n_pts, -1).max(axis=1)
    bound = tower_bound(vals, derivs, m)
    for arr in (tor_norm, bound):
        if not np.isfinite(arr).all():
            point = pts[int(np.argmax(~np.isfinite(arr)))]
            raise EvalDomainError(
                f"level-{m} torsion is not finite at point {tuple(point.tolist())}")
    residuals = relative_oracle(tor_norm, bound)
    worst = int(np.argmax(residuals))
    return VanishingReport(level=m, n_points=n_pts, seed=seed, tol_rel=tol_rel,
                           max_residual=float(residuals[worst]),
                           vanishing=bool(residuals[worst] <= tol_rel),
                           worst_point=pts[worst])


def commutator_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """max|AB - BA| / (max|A| max|B|) over one matrix pair or a stack of
    pairs, with the products written out by ``np.einsum``."""
    comm = np.einsum("...ij,...jk->...ik", a, b) - np.einsum("...ij,...jk->...ik", b, a)
    return float(relative_oracle(np.max(np.abs(comm)),
                                 np.max(np.abs(a)) * np.max(np.abs(b))))


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
    """``(f, df)`` at ``pts``, shaped (N, 1, 1) and (N, n, 1, 1) to scale a
    matrix jet entrywise: the value, then the symbolic derivative along every
    variable of the chart in order, each evaluated with ``eval_many``."""
    vals = eval_many(coeff, pts)[:, None, None]
    grad = np.stack([eval_many(diff(coeff, l), pts) for l in range(pts.shape[1])], axis=1)
    return vals, grad[:, :, None, None]


def composite_jet_reference(op, pts: np.ndarray):
    """``(A, dA)`` of an operator at ``pts`` by the entrywise product rules.

    A symbolic operator's jet is :func:`jet_reference`'s.  A scalar factor
    takes f K and grad f (x) K + f dK entrywise, from
    :func:`scalar_jet_reference`, and a matrix product K L and
    dK L + K dL by ``np.einsum``; a polynomial runs Horner over these, with
    c_k I as the scalar factor c_k times the constant identity.
    """
    if isinstance(op, OperatorField):
        return jet_reference(op, pts)

    def times(f, jet):
        (fv, fd), (vals, derivs) = f, jet
        return fv * vals, fd * vals[:, None] + fv[:, None] * derivs

    def matmul(left, right):
        (a, da), (b, db) = left, right
        return (np.einsum("pij,pjk->pik", a, b),
                np.einsum("plij,pjk->plik", da, b) + np.einsum("pij,pljk->plik", a, db))

    def plus(left, right):
        return left[0] + right[0], left[1] + right[1]

    if isinstance(op, LinCombOperator):
        terms = [times(scalar_jet_reference(f, pts), composite_jet_reference(k, pts))
                 for f, k in op.terms]
        out = terms[0]
        for term in terms[1:]:
            out = plus(out, term)
        return out
    if isinstance(op, ProductOperator):
        return matmul(composite_jet_reference(op.left, pts),
                      composite_jet_reference(op.right, pts))
    base = composite_jet_reference(op.base, pts)
    n_pts, n = pts.shape
    eye = (np.broadcast_to(np.eye(n), (n_pts, n, n)), np.zeros((n_pts, n, n, n)))
    out = times(scalar_jet_reference(op.coeffs[-1], pts), eye)
    for coeff in reversed(op.coeffs[:-1]):
        out = plus(matmul(out, base), times(scalar_jet_reference(coeff, pts), eye))
    return out


def stacked_jet(vals: np.ndarray, derivs: np.ndarray) -> Jet:
    """The :class:`~torsionlab.fields.Jet` with values ``vals`` (N, n, n) and
    derivatives ``derivs`` (N, n, n, n), copied into one stacked array."""
    return Jet(np.concatenate((vals[:, None], derivs), axis=1))


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
    index is the first power of ``A - l I`` whose rank is n - g, for a
    cluster of g members, with the bases read from the SVD of that power.
    """
    n = mat.shape[0]
    scale = 1.0 + float(np.max(np.abs(mat)))
    lams = []
    for grp in cluster_eigenvalues(np.linalg.eigvals(mat), cluster_tol * scale):
        mean = complex(np.mean(grp))
        if abs(mean.imag) > IMAG_TOL * scale:
            raise ComplexEigenvalueError(
                f"eigenvalue {mean:.6g} has non-negligible imaginary part")
        lams.append((mean.real, len(grp)))
    lams.sort(key=lambda item: item[0])
    out = ([], [], [], [], [], [])
    for lam, g in lams:
        shifted = mat - lam * np.eye(n)
        rank, rho = n, 0
        power = np.eye(n)
        while rank != n - g:
            power = power @ shifted
            rho += 1
            u, s, vh = np.linalg.svd(power)
            cut = rank_oracle(s, rank_tol)
            if cut == n:
                raise SpectralError(f"cluster value {lam:.6g} is not an eigenvalue")
            if cut != n - g and (cut < n - g or cut >= rank):
                raise SpectralError(
                    f"generalized eigenspace of cluster value {lam:.6g} has dimension "
                    f"{n - cut}, not its multiplicity {g}")
            rank = cut
        for lst, item in zip(out, (lam, rho, n - rank, vh[rank:].T, u[:, :rank], u[:, rank:].T)):
            lst.append(item)
    return tuple(tuple(lst) for lst in out)


def central_difference(e: Expr, var: int, point, scale: float = 1e-6) -> float:
    p = np.asarray(point, dtype=float)
    h = scale * max(1.0, abs(p[var]))
    hi, lo = p.copy(), p.copy()
    hi[var] += h
    lo[var] -= h
    return (eval_at(e, hi) - eval_at(e, lo)) / (2 * h)


def exact_at(e: Expr, point) -> Fraction:
    """Value of a rational expression at a rational point, in exact arithmetic."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return Fraction(point[e.index])
    if isinstance(e, Neg):
        return -exact_at(e.arg, point)
    if isinstance(e, Pow):
        return exact_at(e.base, point) ** e.exponent
    left, right = exact_at(e.left, point), exact_at(e.right, point)
    ops = {Add: Fraction.__add__, Sub: Fraction.__sub__, Mul: Fraction.__mul__,
           Div: Fraction.__truediv__}
    return ops[type(e)](left, right)


def exact_monomials(e: Expr, n: int, degree: int) -> dict[tuple[int, ...], Fraction]:
    """{exponents: coefficient} of a polynomial of total degree <= ``degree`` on
    ``n`` variables, by definition: the coefficient of x^a is the Taylor
    coefficient d^a e(0) / a!, from repeated :func:`diff` and exact evaluation."""
    out = {}
    for key in product(range(degree + 1), repeat=n):
        if sum(key) > degree:
            continue
        d = e
        for var, count in enumerate(key):
            for _ in range(count):
                d = diff(d, var)
        coeff = exact_at(d, (0,) * n) / prod(map(factorial, key))
        if coeff:
            out[key] = coeff
    return out


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


def random_combo_poly(chart: Chart, rng: np.random.Generator) -> Expr:
    """The expression tree of one ``check_algebra`` combination coefficient,
    drawn from ``rng`` as the check draws it: a degree-<=2 polynomial with one
    or two terms and half-integer coefficients in [-3, 3]."""
    def coeff() -> Expr:
        num = int(rng.integers(-6, 7)) or 1
        return const(Fraction(num, 2))

    e: Expr = coeff()
    for _ in range(int(rng.integers(1, 3))):
        term = coeff() * Var(int(rng.integers(0, chart.dim)))
        if rng.random() < 0.5:
            term = term * Var(int(rng.integers(0, chart.dim)))
        e = e + term
    return e


def random_operator(chart: Chart, rng: np.random.Generator) -> OperatorField:
    n = chart.dim
    entries = tuple(
        tuple(random_poly_expr(chart, rng, max_terms=2) for _ in range(n))
        for _ in range(n))
    return OperatorField(chart, entries)


def generic_identity_draws(
        rng: np.random.Generator) -> list[tuple[OperatorField, PolySpec, np.ndarray]]:
    """8 generic operators on 3 or 4 dims, each with 4 points of [0.5, 1.5]^n
    and a P of degree 1 to 3, drawn in that order."""
    draws = []
    for trial in range(8):
        dim = 3 + trial % 2
        chart = Chart(dim)
        a = random_operator(chart, rng)
        pts = rng.uniform(0.5, 1.5, size=(4, dim))
        p = PolySpec(tuple(random_poly_expr(chart, rng) for _ in range(2 + trial % 3)))
        draws.append((a, p, pts))
    return draws


def random_vector_field(chart: Chart, rng: np.random.Generator) -> VectorFieldExpr:
    return VectorFieldExpr(
        chart, tuple(random_poly_expr(chart, rng, max_terms=2) for _ in range(chart.dim)))


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| relative to the larger of max|a| and max|b|, with no floor:
    two zero arrays read 0, and any difference from zero reads inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(relative_oracle(np.max(np.abs(a - b)), scale))


def rescaled(e: Expr, c: Fraction, n: int) -> Expr:
    """``e`` in the coordinates y = c x of an n-dim chart: every x_i replaced
    by y_i / c, as a product with the exact constant 1/c."""
    return subst_vars(e, [Var(i) * const(1 / c) for i in range(n)])


def rescaled_operator(a: OperatorField, c: Fraction) -> OperatorField:
    n = a.chart.dim
    return OperatorField(a.chart, tuple(tuple(rescaled(e, c, n) for e in row) for row in a.entries))


def rescaled_domain(domain: SampleDomain, c: Fraction) -> SampleDomain:
    """The box scaled by c and every guard in the coordinates y = c x.

    With c a power of two, :func:`~torsionlab.expr.sample_points` draws c
    times the points it draws in ``domain``, exactly, and every guard reads
    the same values there."""
    n = domain.dim
    return replace(domain, box=tuple((float(c) * lo, float(c) * hi) for lo, hi in domain.box),
                   guards=tuple(rescaled(g, c, n) for g in domain.guards))


def finest_block_partition(mats: np.ndarray, tol: float) -> tuple[int, ...]:
    """Block sizes of the finest contiguous partition of ``mats`` (N, n, n)
    whose off-block entries all stay within ``tol * max|entry|``, found by
    trying all 2^(n-1) sets of cut positions."""
    n = mats.shape[1]
    bound = tol * float(np.max(np.abs(mats)))
    best: tuple[int, ...] = (n,)
    for count in range(1, n):
        for cuts in combinations(range(1, n), count):
            edges = (0, *cuts, n)
            block = np.repeat(np.arange(count + 1), np.diff(edges))
            off = block[:, None] != block[None, :]
            if np.all(np.abs(mats[:, off]) <= bound):
                best = tuple(int(d) for d in np.diff(edges))
    return best
