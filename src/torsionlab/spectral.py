"""Pointwise spectral analysis of operator fields.

Distinct eigenvalues are obtained by clustering the numeric spectrum in the
complex plane (clusters must average to real values).  A cluster of g
eigenvalues has algebraic multiplicity g, so the rank walk over the powers of
A - lam I stops at the cluster's multiplicity: its first power of rank n - g
gives the Riesz index rho, and that power's singular value decomposition the
generalized eigenspace, characteristic space and annihilator.

One batched core, :func:`_spectra`, analyses a stack of points at once: one
``eigvals`` call and one vectorized clustering for the whole stack, then per
eigenvalue slot and per power one ``matmul`` and one ``svd`` over the points
still raising that power, sum(rho) SVDs per point.  Cluster means are
``np.mean`` per cluster.  A regularity sweep asks the SVD for singular values
only and keeps integer digests; :func:`spectrum_at` is the one-point case,
the only one that computes SVD factors and bases.  It keeps the value it
analysed, so the minimal polynomial degree is read from it without a second
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ChartMismatchError,
    ComplexEigenvalueError,
    DependentSpanningSetError,
    NonCommutingError,
    RankAmbiguousError,
    SpectralError,
    TorsionLabError,
)
from .expr import SampleDomain, as_point, sample_points
from .fields import OperatorBase, VectorFieldExpr, given_sample, lie_bracket, relative

__all__ = [
    "SpectrumAtPoint",
    "RegularityReport",
    "InvolutivityReport",
    "JointRefinement",
    "spectrum_at",
    "minimal_poly_degree_at",
    "regularity_check",
    "involutivity_check",
    "joint_refinement",
    "numeric_rank",
    "max_principal_angle",
]

RANK_TOL = 1e-8
RANK_GAP_FACTOR = 10.0
CLUSTER_TOL = 1e-4
IMAG_TOL = 1e-8
COMMUTE_TOL = 1e-8


# ---------------------------------------------------------------------------
# numeric rank with an unambiguity requirement
# ---------------------------------------------------------------------------

def _rank_cut(s: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks from descending singular values ``s`` (shape ``(..., k)``) by the
    threshold ``rank_tol * s[..., 0]``, and the mask of ambiguous cuts.

    A cut is clean when the smallest retained singular value exceeds the
    largest discarded one by ``RANK_GAP_FACTOR``.
    """
    keep = s > rank_tol * s[..., :1]
    above = np.minimum.reduce(s, axis=-1, where=keep, initial=np.inf, keepdims=True)
    below = np.maximum.reduce(s, axis=-1, where=~keep, initial=0.0, keepdims=True)
    gap = below > 0
    ratio = np.divide(above, below, out=above, where=gap)
    return keep.sum(axis=-1), (gap & (ratio < RANK_GAP_FACTOR))[..., 0]


def _ambiguity(s: np.ndarray, rank: int, rank_tol: float) -> str:
    """Why the cut of one row ``s`` at ``rank`` is ambiguous."""
    return (f"singular values {s[rank - 1]:.3e} and {s[rank]:.3e} straddle "
            f"threshold {rank_tol * s[0]:.3e}")


def _clean_rank(s: np.ndarray, rank_tol: float) -> int:
    """Rank of one row of descending singular values; an ambiguous cut raises
    :class:`RankAmbiguousError`."""
    rank, ambiguous = _rank_cut(s, rank_tol)
    if ambiguous:
        raise RankAmbiguousError(_ambiguity(s, int(rank), rank_tol))
    return int(rank)


def numeric_rank(mat: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """Rank by singular value threshold ``rank_tol * s_max`` with a clean gap
    (see :func:`_rank_cut`)."""
    return _clean_rank(np.linalg.svd(mat, compute_uv=False), rank_tol)


def max_principal_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle (radians) between two subspaces of equal dim."""
    qa, _ = np.linalg.qr(np.asarray(basis_a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(basis_b, dtype=float))
    if qa.shape[1] != qb.shape[1]:
        return float(np.pi / 2)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(np.min(s), -1.0, 1.0)))


# ---------------------------------------------------------------------------
# spectra at points
# ---------------------------------------------------------------------------

def _digest(riesz, ranks) -> tuple:
    return (len(riesz), tuple(sorted(riesz)), tuple(sorted(ranks)))


@dataclass(frozen=True, eq=False)
class SpectrumAtPoint:
    """Distinct eigenvalues with Riesz indices and the attached subspaces.

    ``eig_bases[i]``  : orthonormal basis of ker(A - l_i I)^(rho_i), (n, r_i)
    ``char_bases[i]`` : orthonormal basis of Im (A - l_i I)^(rho_i), (n, n - r_i)
    ``annihilators[i]``: covectors killing the characteristic space, (r_i, n)

    ``value`` is the operator value A(p) that was analysed.
    """

    point: np.ndarray
    value: np.ndarray
    eigenvalues: tuple[float, ...]
    riesz: tuple[int, ...]
    ranks: tuple[int, ...]
    eig_bases: tuple[np.ndarray, ...]
    char_bases: tuple[np.ndarray, ...]
    annihilators: tuple[np.ndarray, ...]

    @property
    def digest(self) -> tuple:
        """Structure summary invariant under reordering: (s, rho multiset, rank multiset)."""
        return _digest(self.riesz, self.ranks)

    def minimal_poly_degree(self, rank_tol: float = RANK_TOL) -> int:
        """Degree of the minimal polynomial of ``value``: the sum of the Riesz
        indices.

        Cross-checked against the smallest d making {I, A, ..., A^d} linearly
        dependent: past the first dependent power the span stops growing, so
        d is the numeric rank of the whole stack of vectorized powers
        I, A, ..., A^n (Cayley-Hamilton), each row scaled to max 1 so that
        the test does not change under A -> sA.  A mismatch raises
        :class:`SpectralError`.
        """
        degree = sum(self.riesz)
        n = self.value.shape[0]
        powers = [np.eye(n)]
        for _ in range(n):
            powers.append(powers[-1] @ self.value)
        rows = np.array(powers).reshape(n + 1, n * n)
        top = np.max(np.abs(rows), axis=1, keepdims=True)
        dep_degree = numeric_rank(np.divide(rows, top, out=rows, where=top > 0), rank_tol)
        if dep_degree != degree:
            raise SpectralError(
                f"minimal polynomial degree mismatch: rank test gives {dep_degree}, "
                f"Riesz indices give {degree}")
        return degree


def _cluster_means(mats: np.ndarray, radius: np.ndarray):
    """Distinct eigenvalues of each matrix of ``mats`` (N, n, n) as cluster means.

    The eigenvalues of one matrix, sorted by (real, imag), fall into the
    components of the graph ``|e_a - e_b| <= radius``.  A cluster is stored
    at the sorted position of its first member: returns the real and
    imaginary parts of the means, each (N, n), and the member count of each
    cluster at its position (0 elsewhere), which is its algebraic
    multiplicity.  The means are ``np.mean`` per cluster, taken over all
    clusters of one size and kind (real or complex matrix) at once.
    """
    raw = np.linalg.eigvals(mats)
    n_pts, n = raw.shape
    real_row = (raw.imag == 0).all(axis=-1)  # single-matrix eigvals returns these as real
    rows = np.arange(n_pts)[:, None]
    eigs = raw[rows, np.lexsort((raw.imag, raw.real), axis=-1)]

    near = np.abs(eigs[:, :, None] - eigs[:, None, :]) <= radius[:, None, None]
    label = np.broadcast_to(np.arange(n), (n_pts, n))
    while True:  # each member takes the least label it reaches: its component's first
        spread = np.where(near, label[:, None, :], n).min(axis=-1)
        if (spread == label).all():
            break
        label = spread
    roots = label == np.arange(n)

    same = label[:, :, None] == label[:, None, :]
    members = np.zeros((n_pts, n, n), dtype=eigs.dtype)  # [point, cluster, member]
    members[rows, label, (same & np.tri(n, k=-1, dtype=bool)).sum(axis=-1)] = eigs
    size = np.where(roots, same.sum(axis=-1), 0)
    cplx = np.repeat(~real_row[:, None], n, axis=1)
    re, im = np.zeros((n_pts, n)), np.zeros((n_pts, n))
    for g, c in set(zip(size[roots].tolist(), cplx[roots].tolist())):
        at = roots & (size == g) & (cplx == c)
        group = members[at][:, :g]
        mean = np.mean(group if c else group.real, axis=-1)
        re[at], im[at] = mean.real, mean.imag
    return re, im, size


def _spectra(mats: np.ndarray, pts: np.ndarray, cluster_tol: float, rank_tol: float):
    """Spectral structure of the operator values ``mats`` (N, n, n) at ``pts``.

    A generator over eigenvalue slots: slot j holds the j-th distinct
    eigenvalue of each point in ascending order.  It yields
    ``(j, idx, lam, rho, rank, u, vh)`` for the points ``idx`` whose rank
    walk in slot j stopped at the Riesz index ``rho``: their eigenvalues,
    the ranks of the last powers (A - lam I)^rho and, when the stack holds
    one point, the SVD factors ``u``, ``vh`` of that power (``None`` in a
    sweep, which needs only singular values).  Points of one slot with
    different Riesz indices come in separate yields, ascending in ``rho``.
    Every power of a slot is one ``matmul`` and one ``svd`` over the points
    still raising it, and a walk stops at its cluster's multiplicity, so a
    point costs sum(rho) SVD rows: one per power.

    After the last slot the error of the first failing point is raised,
    naming that point.  The checks of one point run in this order: complex
    eigenvalue, then the slots by ascending eigenvalue and their powers in
    ascending order.
    """
    n_pts, n = mats.shape[:2]
    errors: dict[int, TorsionLabError] = {}
    failed = np.zeros(n_pts, dtype=bool)

    def fail(i, error_type, message):  # the first error of a point is its error
        if not failed[i]:
            failed[i] = True
            errors[int(i)] = error_type(f"{message} (at sample point {pts[i].tolist()})")

    scale = 1.0 + np.max(np.abs(mats), axis=(1, 2))
    re, im, size = _cluster_means(mats, cluster_tol * scale)
    roots = size > 0
    nonreal = roots & (np.abs(im) > IMAG_TOL * scale[:, None])
    for i in nonreal.any(axis=1).nonzero()[0]:
        k = np.argmax(nonreal[i])
        fail(i, ComplexEigenvalueError, f"eigenvalue {complex(re[i, k], im[i, k]):.6g} "
             "has non-negligible imaginary part")
    order = np.argsort(np.where(roots, re, np.inf), axis=1, kind="stable")
    lams = np.take_along_axis(re, order, axis=1)
    sizes = np.take_along_axis(size, order, axis=1)
    count = np.sum(roots, axis=1)

    for j in range(n):
        idx = ((count > j) & ~failed).nonzero()[0]
        if not idx.size:
            break
        yield from _rank_walk(mats, j, idx, lams[idx, j], sizes[idx, j], rank_tol, fail)
    if errors:
        raise errors[min(errors)]


def _rank_walk(mats: np.ndarray, j: int, idx: np.ndarray, lam: np.ndarray,
               size: np.ndarray, rank_tol: float, fail):
    """Rank walks over the powers of ``mats[idx] - lam I`` in slot ``j`` of
    :func:`_spectra`, all points at once.

    The walk of a cluster of ``size`` g stops at the cluster's multiplicity,
    the first power of rank n - g, whose exponent is the Riesz index ``rho``.
    Yields ``(j, idx, lam, rho, rank, u, vh)`` for the points that stopped
    there, with the rank and (for a one-point stack) the SVD factors of that
    power.  A point fails, through ``fail(point, error type, message)``, on
    an ambiguous cut, a full-rank first power (no eigenvalue), or a rank
    that falls below n - g or stops falling above it.  Ranks fall strictly
    until n - g, so every walk ends within g <= n powers.
    """
    n = mats.shape[1]
    eye = np.eye(n)
    shifted = mats[idx] - lam[:, None, None] * eye
    # only the one-point analysis reads the bases; there a stopping point is
    # the whole stack, so its factors need no indexing
    svd = (np.linalg.svd if mats.shape[0] == 1
           else lambda m: (None, np.linalg.svd(m, compute_uv=False), None))
    rank = np.full(idx.size, n)  # per point still raising the power: its last rank
    power = eye
    for rho in range(1, n + 1):
        power = power @ shifted
        u, s, vh = svd(power)
        cut, ambiguous = _rank_cut(s, rank_tol)
        stop = ~ambiguous & (cut == n - size)
        wrong = ~ambiguous & ~stop & ((cut < n - size) | (cut >= rank))
        for k in ambiguous.nonzero()[0]:
            fail(idx[k], RankAmbiguousError, _ambiguity(s[k], cut[k], rank_tol))
        for k in wrong.nonzero()[0]:
            fail(idx[k], SpectralError,
                 f"cluster value {lam[k]:.6g} is not an eigenvalue" if cut[k] == n else
                 f"generalized eigenspace of cluster value {lam[k]:.6g} has dimension "
                 f"{n - cut[k]}, not its multiplicity {size[k]}")
        if stop.any():
            yield j, idx[stop], lam[stop], rho, cut[stop], u, vh
        stay = ~(ambiguous | stop | wrong)
        if not stay.any():
            return
        idx, lam, size, rank = idx[stay], lam[stay], size[stay], cut[stay]
        shifted, power = shifted[stay], power[stay]


def spectrum_at(a: OperatorBase, point, cluster_tol: float = CLUSTER_TOL,
                rank_tol: float = RANK_TOL) -> SpectrumAtPoint:
    """Distinct real eigenvalues, Riesz indices and subspace bases at a point."""
    p = as_point(a.chart, point)
    return _spectrum(a.values_many(p[None, :])[0], p, cluster_tol, rank_tol)


def _spectrum(mat: np.ndarray, p: np.ndarray, cluster_tol: float,
              rank_tol: float) -> SpectrumAtPoint:
    """Spectrum of the value ``mat`` of an operator at the point ``p``: the
    one-point case of :func:`_spectra`, whose SVD of each walk's last power
    gives the generalized eigenspace, the characteristic space and the
    annihilator."""
    n = mat.shape[0]
    fields: tuple[list, ...] = ([], [], [], [], [], [])
    for _, _, lam, rho, rank, u, vh in _spectra(mat[None], p[None], cluster_tol, rank_tol):
        r, u, vh = int(rank[0]), u[0], vh[0]
        for field, value in zip(fields, (float(lam[0]), rho, n - r,
                                         vh[r:].T, u[:, :r], u[:, r:].T)):
            field.append(value)
    return SpectrumAtPoint(p, mat, *map(tuple, fields))


def minimal_poly_degree_at(a: OperatorBase, point,
                           cluster_tol: float = CLUSTER_TOL,
                           rank_tol: float = RANK_TOL) -> int:
    """Degree of the minimal polynomial at a point: sum of Riesz indices,
    cross-checked by :meth:`SpectrumAtPoint.minimal_poly_degree`."""
    return spectrum_at(a, point, cluster_tol, rank_tol).minimal_poly_degree(rank_tol)


# ---------------------------------------------------------------------------
# sweeps over a domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RegularityReport:
    """Whether the spectral structure is constant across sampled points."""

    constant: bool
    n_points: int
    seed: int
    digests: tuple
    details: str


def regularity_check(a: OperatorBase, domain: SampleDomain, n_pts: int,
                     cluster_tol: float = CLUSTER_TOL,
                     rank_tol: float = RANK_TOL,
                     pts: np.ndarray | None = None) -> RegularityReport:
    """Whether the spectral digest is the same at ``n_pts`` sample points.

    The operator is evaluated once and the points are analysed by one
    batched sweep; a spectral error names the first failing point.  ``pts``,
    when given, is the sample ``sample_points(domain, n_pts)`` already drawn,
    so that callers sweeping several operators draw it once.
    """
    if n_pts < 2:
        raise ValueError("regularity needs at least two sample points")
    pts = given_sample(domain, n_pts, pts)
    digests = _sweep(a.values_many(pts), pts, cluster_tol, rank_tol)
    first = digests[0]
    details = ""
    constant = True
    for idx, dg in enumerate(digests[1:], start=1):
        if dg != first:
            constant = False
            details = (f"digest {dg} at point {pts[idx].tolist()} differs "
                       f"from {first} at point {pts[0].tolist()}")
            break
    return RegularityReport(constant=constant, n_points=n_pts, seed=domain.seed,
                            digests=tuple(digests), details=details)


def _sweep(mats: np.ndarray, pts: np.ndarray, cluster_tol: float,
           rank_tol: float) -> list[tuple]:
    """The digest of every point of ``mats`` (N, n, n), from integers only."""
    n_pts, n = mats.shape[:2]
    riesz = np.zeros((n_pts, n), dtype=int)  # per point and eigenvalue slot
    ranks = np.zeros((n_pts, n), dtype=int)
    for j, idx, _, rho, rank, _, _ in _spectra(mats, pts, cluster_tol, rank_tol):
        riesz[idx, j], ranks[idx, j] = rho, n - rank
    count = np.count_nonzero(riesz, axis=1)  # every eigenvalue has rho >= 1
    return [_digest(r[:c], d[:c])
            for c, r, d in zip(count.tolist(), riesz.tolist(), ranks.tolist())]


@dataclass(frozen=True, eq=False)
class InvolutivityReport:
    involutive: bool
    max_residual: float
    worst_pair: tuple[int, int]
    n_points: int


def involutivity_check(fields: Sequence[VectorFieldExpr], domain: SampleDomain,
                       n_pts: int, tol: float) -> InvolutivityReport:
    """Check that all pairwise brackets stay in the pointwise span of ``fields``.

    One batched SVD of the (N, n, k) frame decides its rank at every point by
    the shared rule of :func:`_rank_cut`, so the verdict does not change when
    the fields are rescaled; the brackets are projected onto the frame's left
    singular vectors.  Raises, naming the first failing point,
    :class:`RankAmbiguousError` on an ambiguous cut and
    :class:`DependentSpanningSetError` where the fields do not span k dimensions.
    """
    if len(fields) < 1:
        raise ValueError("need at least one field")
    chart = fields[0].chart
    if any(f.chart != chart for f in fields):
        raise ChartMismatchError("all fields must live on one chart")
    pts = sample_points(domain, n_pts)
    frame = np.stack([f.eval_many(pts) for f in fields], axis=2)  # (N, n, k)
    k = len(fields)
    u, s, _ = np.linalg.svd(frame, full_matrices=False)
    rank, ambiguous = _rank_cut(s, RANK_TOL)
    bad = ambiguous | (rank < k)
    if bad.any():
        idx = int(np.argmax(bad))
        where = f"at sample point {pts[idx].tolist()}"
        if ambiguous[idx]:
            raise RankAmbiguousError(f"{_ambiguity(s[idx], int(rank[idx]), RANK_TOL)} ({where})")
        raise DependentSpanningSetError(f"fields dependent {where}")
    worst = 0.0
    worst_pair = (0, 0)
    for ia in range(k):
        for ib in range(ia + 1, k):
            bracket = lie_bracket(fields[ia], fields[ib]).eval_many(pts)[..., None]
            resid = np.max(np.abs(bracket - u @ (u.transpose(0, 2, 1) @ bracket)), axis=(1, 2))
            rel = float(np.max(resid / (1.0 + np.max(np.abs(bracket), axis=(1, 2)))))
            if rel > worst:
                worst, worst_pair = rel, (ia, ib)
    return InvolutivityReport(involutive=bool(worst <= tol), max_residual=float(worst),
                              worst_pair=worst_pair, n_points=n_pts)


# ---------------------------------------------------------------------------
# joint refinements for commuting families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JointRefinement:
    """Nontrivial intersections of generalized eigenspaces of a family."""

    point: np.ndarray
    indices: tuple[tuple[int, ...], ...]
    bases: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]


def _intersect(basis_a: np.ndarray, basis_b: np.ndarray,
               rank_tol: float = RANK_TOL) -> np.ndarray:
    """Intersection via the null space of stacked orthogonal-complement projectors."""
    n = basis_a.shape[0]
    qa, _ = np.linalg.qr(basis_a)
    qb, _ = np.linalg.qr(basis_b)
    stacked = np.vstack([np.eye(n) - qa @ qa.T, np.eye(n) - qb @ qb.T])
    _, s, vh = np.linalg.svd(stacked)
    return vh[_clean_rank(s, rank_tol):].T


def joint_refinement(ops: Sequence[OperatorBase], point,
                     cluster_tol: float = CLUSTER_TOL,
                     rank_tol: float = RANK_TOL) -> JointRefinement:
    """Simultaneous block decomposition data for pairwise commuting operators.

    Values A, B at the point commute when max|AB - BA| / (max|A| max|B|) is
    at most ``COMMUTE_TOL``; else :class:`NonCommutingError` is raised."""
    if not ops:
        raise ValueError("need at least one operator")
    chart = ops[0].chart
    p = as_point(chart, point)
    mats = [op.values_many(p[None, :])[0] for op in ops]
    for ia, a in enumerate(mats):
        for ib, b in enumerate(mats[ia + 1:], start=ia + 1):
            residual = float(relative(np.max(np.abs(a @ b - b @ a)),
                                      np.max(np.abs(a)) * np.max(np.abs(b))))
            if residual > COMMUTE_TOL:
                raise NonCommutingError(
                    f"operators {ia} and {ib} do not commute at the point "
                    f"(residual {residual:.3e})")

    spectra = [_spectrum(mat, p, cluster_tol, rank_tol) for mat in mats]
    blocks: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.eye(chart.dim))]
    for spec in spectra:
        refined = []
        for idx_tuple, basis in blocks:
            for i, eig_basis in enumerate(spec.eig_bases):
                inter = _intersect(basis, eig_basis, rank_tol)
                if inter.shape[1] > 0:
                    refined.append((idx_tuple + (i,), inter))
        blocks = refined
    blocks.sort(key=lambda item: item[0])

    ranks = tuple(b.shape[1] for _, b in blocks)
    if sum(ranks) != chart.dim:
        raise SpectralError(
            f"refinement ranks {ranks} do not sum to dimension {chart.dim}")
    return JointRefinement(
        point=p,
        indices=tuple(idx for idx, _ in blocks),
        bases=tuple(b for _, b in blocks),
        ranks=ranks,
    )
