"""Pointwise spectral analysis of operator fields.

Distinct eigenvalues are obtained by clustering the numeric spectrum in the
complex plane (clusters must average to real values), Riesz indices by rank
stabilization of powers.  The generalized eigenspace, characteristic space
and annihilator of each eigenvalue are read off the one singular value
decomposition of the stabilized power that the rank sequence already
computed.
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
)
from .expr import Chart, SampleDomain, as_point, sample_points
from .fields import OperatorBase, VectorFieldExpr, lie_bracket

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

def _rank_cut(s: np.ndarray, rank_tol: float) -> int:
    """Rank from descending singular values ``s`` by threshold ``rank_tol * s[0]``.

    The cut must be clean: the smallest retained singular value has to exceed
    the largest discarded one by ``RANK_GAP_FACTOR``, otherwise
    :class:`RankAmbiguousError` is raised.
    """
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


def _rank_svd(mat: np.ndarray, rank_tol: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Numeric rank of ``mat`` together with the factors ``u`` and ``vh`` of its SVD."""
    u, s, vh = np.linalg.svd(mat)
    return _rank_cut(s, rank_tol), u, vh


def numeric_rank(mat: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """Rank by singular value threshold ``rank_tol * s_max`` with a clean gap
    (see :func:`_rank_cut`)."""
    return _rank_cut(np.linalg.svd(mat, compute_uv=False), rank_tol)


def max_principal_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle (radians) between two subspaces of equal dim."""
    qa, _ = np.linalg.qr(np.asarray(basis_a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(basis_b, dtype=float))
    if qa.shape[1] != qb.shape[1]:
        return float(np.pi / 2)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(np.min(s), -1.0, 1.0)))


# ---------------------------------------------------------------------------
# spectrum at a point
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectrumAtPoint:
    """Distinct eigenvalues with Riesz indices and the attached subspaces.

    ``eig_bases[i]``  : orthonormal basis of ker(A - l_i I)^(rho_i), (n, r_i)
    ``char_bases[i]`` : orthonormal basis of Im (A - l_i I)^(rho_i), (n, n - r_i)
    ``annihilators[i]``: covectors killing the characteristic space, (r_i, n)
    """

    point: np.ndarray
    eigenvalues: tuple[float, ...]
    riesz: tuple[int, ...]
    ranks: tuple[int, ...]
    eig_bases: tuple[np.ndarray, ...]
    char_bases: tuple[np.ndarray, ...]
    annihilators: tuple[np.ndarray, ...]

    @property
    def digest(self) -> tuple:
        """Structure summary invariant under reordering: (s, rho multiset, rank multiset)."""
        return (len(self.eigenvalues), tuple(sorted(self.riesz)), tuple(sorted(self.ranks)))


def _cluster_eigenvalues(eigs: np.ndarray, radius: float) -> list[np.ndarray]:
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


def spectrum_at(a: OperatorBase, point, cluster_tol: float = CLUSTER_TOL,
                rank_tol: float = RANK_TOL) -> SpectrumAtPoint:
    """Distinct real eigenvalues, Riesz indices and subspace bases at a point."""
    p = as_point(a.chart, point)
    return _spectrum(a.values_many(p[None, :])[0], p, cluster_tol, rank_tol)


def _spectrum(mat: np.ndarray, p: np.ndarray, cluster_tol: float,
              rank_tol: float) -> SpectrumAtPoint:
    """Spectrum of the value ``mat`` of an operator at the point ``p``.

    Each eigenvalue costs rho + 1 SVDs: one per power of the rank sequence,
    the last of which only confirms that the rank stopped changing.
    """
    n = mat.shape[0]
    scale = 1.0 + float(np.max(np.abs(mat)))

    raw = np.linalg.eigvals(mat)
    clusters = _cluster_eigenvalues(raw, cluster_tol * scale)
    lams = []
    for grp in clusters:
        mean = complex(np.mean(grp))
        if abs(mean.imag) > IMAG_TOL * scale:
            raise ComplexEigenvalueError(
                f"eigenvalue {mean:.6g} has non-negligible imaginary part")
        lams.append(mean.real)
    lams.sort()

    eigenvalues, riesz, ranks = [], [], []
    eig_bases, char_bases, annihilators = [], [], []
    for lam in lams:
        shifted = mat - lam * np.eye(n)
        rank, u, vh = n, None, None  # rank and SVD of the last power whose rank dropped
        power = np.eye(n)
        rho = 0
        while True:
            power = power @ shifted
            rho += 1
            cut = _rank_svd(power, rank_tol)
            if cut[0] == rank:
                rho -= 1
                break
            rank, u, vh = cut
            if rho > n:
                raise SpectralError("rank sequence failed to stabilize")
        if rho == 0:
            raise SpectralError(f"cluster value {lam:.6g} is not an eigenvalue")
        # u, vh now factor the stabilized power (A - lam I)^rho
        eigenvalues.append(lam)
        riesz.append(rho)
        ranks.append(n - rank)
        eig_bases.append(vh[rank:].T)
        char_bases.append(u[:, :rank])
        annihilators.append(u[:, rank:].T)

    if sum(ranks) != n:
        raise SpectralError(
            f"generalized eigenspace ranks {ranks} do not sum to dimension {n}")
    return SpectrumAtPoint(
        point=p,
        eigenvalues=tuple(eigenvalues),
        riesz=tuple(riesz),
        ranks=tuple(ranks),
        eig_bases=tuple(eig_bases),
        char_bases=tuple(char_bases),
        annihilators=tuple(annihilators),
    )


def minimal_poly_degree_at(a: OperatorBase, point,
                           cluster_tol: float = CLUSTER_TOL,
                           rank_tol: float = RANK_TOL) -> int:
    """Degree of the minimal polynomial at a point: sum of Riesz indices.

    Cross-checked against the smallest d making {I, A, ..., A^d} linearly
    dependent (numeric rank of the vectorized powers).
    """
    p = as_point(a.chart, point)
    mat = a.values_many(p[None, :])[0]
    degree = int(sum(_spectrum(mat, p, cluster_tol, rank_tol).riesz))
    n = mat.shape[0]
    rows = [np.eye(n).ravel()]
    power = np.eye(n)
    dep_degree = None
    for d in range(1, n + 1):
        power = power @ mat
        rows.append(power.ravel() / max(1.0, np.max(np.abs(power))))
        stacked = np.array(rows)
        if numeric_rank(stacked, rank_tol) < len(rows):
            dep_degree = d
            break
    if dep_degree is None:
        dep_degree = n  # Cayley-Hamilton guarantees dependence by degree n
    if dep_degree != degree:
        raise SpectralError(
            f"minimal polynomial degree mismatch: rank test gives {dep_degree}, "
            f"Riesz indices give {degree}")
    return degree


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
                     rank_tol: float = RANK_TOL) -> RegularityReport:
    if n_pts < 2:
        raise ValueError("regularity needs at least two sample points")
    pts = sample_points(domain, n_pts)
    digests = []
    for p, mat in zip(pts, a.values_many(pts)):
        try:
            digests.append(_spectrum(mat, p, cluster_tol, rank_tol).digest)
        except (ComplexEigenvalueError, RankAmbiguousError, SpectralError) as exc:
            raise type(exc)(f"{exc} (at sample point {p.tolist()})") from exc
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


@dataclass(frozen=True, eq=False)
class InvolutivityReport:
    involutive: bool
    max_residual: float
    worst_pair: tuple[int, int]
    n_points: int


def involutivity_check(fields: Sequence[VectorFieldExpr], domain: SampleDomain,
                       n_pts: int, tol: float) -> InvolutivityReport:
    """Check that all pairwise brackets stay in the pointwise span of ``fields``."""
    if len(fields) < 1:
        raise ValueError("need at least one field")
    chart = fields[0].chart
    if any(f.chart != chart for f in fields):
        raise ChartMismatchError("all fields must live on one chart")
    pts = sample_points(domain, n_pts)
    frame = np.stack([f.eval_many(pts) for f in fields], axis=2)  # (N, n, k)
    k = len(fields)
    for idx in range(n_pts):
        if np.linalg.matrix_rank(frame[idx], tol=1e-10) < k:
            raise DependentSpanningSetError(
                f"fields dependent at sample point {pts[idx].tolist()}")
    worst = 0.0
    worst_pair = (0, 0)
    for ia in range(k):
        for ib in range(ia + 1, k):
            bracket = lie_bracket(fields[ia], fields[ib]).eval_many(pts)
            for idx in range(n_pts):
                sol, *_ = np.linalg.lstsq(frame[idx], bracket[idx], rcond=None)
                resid = np.max(np.abs(bracket[idx] - frame[idx] @ sol))
                scale = 1.0 + np.max(np.abs(bracket[idx]))
                rel = resid / scale
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
    rank, _, vh = _rank_svd(stacked, rank_tol)
    return vh[rank:].T


def joint_refinement(ops: Sequence[OperatorBase], point,
                     cluster_tol: float = CLUSTER_TOL,
                     rank_tol: float = RANK_TOL) -> JointRefinement:
    """Simultaneous block decomposition data for pairwise commuting operators."""
    if not ops:
        raise ValueError("need at least one operator")
    chart = ops[0].chart
    p = as_point(chart, point)
    mats = [op.values_many(p[None, :])[0] for op in ops]
    for ia in range(len(ops)):
        for ib in range(ia + 1, len(ops)):
            comm = mats[ia] @ mats[ib] - mats[ib] @ mats[ia]
            scale = (1.0 + np.max(np.abs(mats[ia]))) * (1.0 + np.max(np.abs(mats[ib])))
            if np.max(np.abs(comm)) > COMMUTE_TOL * scale:
                raise NonCommutingError(
                    f"operators {ia} and {ib} do not commute at the point "
                    f"(residual {np.max(np.abs(comm)):.3e})")

    spectra = [spectrum_at(op, p, cluster_tol, rank_tol) for op in ops]
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
