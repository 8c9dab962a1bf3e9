"""Pointwise spectra, Riesz indices, regularity, involutivity and refinements."""

import re
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torsionlab.spectral as spectral
from helpers import (
    basis_field,
    cluster_eigenvalues,
    commutator_oracle,
    rescaled,
    rescaled_domain,
    spectrum_oracle,
)
from torsionlab.cli import main
from torsionlab.errors import (
    ComplexEigenvalueError,
    DependentSpanningSetError,
    DimensionMismatchError,
    NonCommutingError,
    RankAmbiguousError,
    SpectralError,
    TorsionLabError,
)
from torsionlab.expr import Chart, SampleDomain, Var, const, eval_at, parse_expr, sample_points
from torsionlab.fields import OperatorField, VectorFieldExpr, identity_operator
from torsionlab.spectral import (
    CLUSTER_TOL,
    RANK_TOL,
    _cluster_means,
    _intersect,
    _spectra,
    _spectrum,
    _sweep,
    involutivity_check,
    joint_refinement,
    max_principal_angle,
    minimal_poly_degree_at,
    numeric_rank,
    regularity_check,
    spectrum_at,
)

CH2 = Chart(2)
CH3 = Chart(3)


def op_from_strings(chart, rows):
    return OperatorField(chart, tuple(tuple(parse_expr(s, chart) for s in row) for row in rows))


def match_eigenvalue(spec, value, tol=1e-6):
    gaps = [abs(l - value) for l in spec.eigenvalues]
    idx = int(np.argmin(gaps))
    assert gaps[idx] <= tol, f"no eigenvalue near {value}: {spec.eigenvalues}"
    return idx


# ---------------------------------------------------------------------------
# spectrum_at
# ---------------------------------------------------------------------------

def test_identity_spectrum():
    spec = spectrum_at(identity_operator(CH3), (0.0, 0.0, 0.0))
    assert spec.eigenvalues == (1.0,)
    assert spec.riesz == (1,)
    assert spec.ranks == (3,)


def test_lta_spectrum_structure(lta):
    pts = sample_points(lta.domain, 5)
    golden = lta.spectrum
    for name, op in lta.operators.items():
        for p in pts:
            spec = spectrum_at(op, p, lta.tolerances["cluster"], lta.tolerances["rank"])
            assert len(spec.eigenvalues) == 4
            assert sum(spec.ranks) == 5
            for k, lam_expr in enumerate(golden.eigenvalues[name]):
                idx = match_eigenvalue(spec, eval_at(lam_expr, p))
                assert spec.riesz[idx] == golden.riesz[k]
                assert spec.ranks[idx] == golden.ranks[k]


def test_lfa1_spectrum_structure(lfa1):
    pts = sample_points(lfa1.domain, 3)
    golden = lfa1.spectrum
    for name, op in lfa1.operators.items():
        for p in pts:
            spec = spectrum_at(op, p, lfa1.tolerances["cluster"], lfa1.tolerances["rank"])
            assert len(spec.eigenvalues) == 5
            assert sum(spec.ranks) == 7
            for k, lam_expr in enumerate(golden.eigenvalues[name]):
                idx = match_eigenvalue(spec, eval_at(lam_expr, p), tol=1e-4)
                assert spec.riesz[idx] == golden.riesz[k]
                assert spec.ranks[idx] == golden.ranks[k]


def test_complex_eigenvalues_rejected():
    rot = op_from_strings(CH2, [["0", "-1"], ["1", "0"]])
    with pytest.raises(ComplexEigenvalueError):
        spectrum_at(rot, (0.0, 0.0))


def test_rank_stabilization_invariant(lfa1):
    op = lfa1.operators["K1"]
    p = sample_points(lfa1.domain, 1)[0]
    spec = spectrum_at(op, p, lfa1.tolerances["cluster"])
    mat = op.values_many(p[None, :])[0]
    for lam, rho, r in zip(spec.eigenvalues, spec.riesz, spec.ranks):
        shifted = mat - lam * np.eye(7)
        ranks = [numeric_rank(np.linalg.matrix_power(shifted, k)) for k in range(1, rho + 2)]
        assert ranks[rho - 1] == ranks[rho]          # stabilized at rho
        assert all(ranks[k] > ranks[k + 1] for k in range(rho - 1))  # strict before
        assert ranks[rho - 1] == 7 - r


def count_calls(monkeypatch, name):
    calls = []
    func = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def count_svd_calls(monkeypatch):
    return count_calls(monkeypatch, "svd")


@pytest.mark.parametrize("fixture, name, expected", [("lfa1", "K1", 7), ("lta", "L1", 5)])
def test_one_svd_per_power(request, monkeypatch, fixture, name, expected):
    # rho powers per eigenvalue: the walk stops at the cluster's multiplicity,
    # and the subspaces come from the SVD of the last power it made
    man = request.getfixturevalue(fixture)
    p = sample_points(man.domain, 1)[0]
    calls = count_svd_calls(monkeypatch)
    spec = spectrum_at(man.operators[name], p, man.tolerances["cluster"], man.tolerances["rank"])
    assert len(calls) == sum(spec.riesz) == expected


@pytest.mark.parametrize("fixture, expected", [("lfa1", 4224), ("lta", 3018)])
def test_spectrum_svd_budget(monkeypatch, capsys, fixture, expected):
    # every matrix one `spectrum` invocation hands to the SVD: the one-point
    # walks, the minimal polynomial rank tests and the regularity sweeps
    matrices = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert main(["spectrum", "--manifest", f"{fixture}.json"]) == 0
    capsys.readouterr()
    assert sum(matrices) == expected


def test_annihilator_duality(lta):
    p = sample_points(lta.domain, 1)[0]
    for op in lta.operators.values():
        spec = spectrum_at(op, p, lta.tolerances["cluster"])
        for i in range(len(spec.eigenvalues)):
            ann, char = spec.annihilators[i], spec.char_bases[i]
            assert ann.shape[0] == spec.ranks[i]
            assert np.max(np.abs(ann @ char)) <= 1e-8


def test_eigen_bases_match_printed_distributions(lta):
    golden = lta.spectrum
    pts = sample_points(lta.domain, 20)
    for name, op in lta.operators.items():
        for p in pts:
            spec = spectrum_at(op, p, lta.tolerances["cluster"])
            for k, lam_expr in enumerate(golden.eigenvalues[name]):
                idx = match_eigenvalue(spec, eval_at(lam_expr, p))
                printed = np.stack([f.at(p) for f in golden.distributions[k]], axis=1)
                angle = max_principal_angle(spec.eig_bases[idx], printed)
                assert angle <= 1e-6


def test_annihilators_match_printed_covectors(lta):
    golden = lta.spectrum
    pts = sample_points(lta.domain, 5)
    for name, op in lta.operators.items():
        for p in pts:
            spec = spectrum_at(op, p, lta.tolerances["cluster"])
            for k, lam_expr in enumerate(golden.eigenvalues[name]):
                idx = match_eigenvalue(spec, eval_at(lam_expr, p))
                printed = np.stack(
                    [np.array([eval_at(c, p) for c in w.components])
                     for w in golden.annihilators[k]], axis=1)
                angle = max_principal_angle(spec.annihilators[idx].T, printed)
                assert angle <= 1e-6


# ---------------------------------------------------------------------------
# minimal polynomial degree
# ---------------------------------------------------------------------------

def test_minimal_poly_degrees(lta, lfa1):
    p5 = sample_points(lta.domain, 1)[0]
    assert minimal_poly_degree_at(lta.operators["L1"], p5, lta.tolerances["cluster"]) == 5
    p7 = sample_points(lfa1.domain, 1)[0]
    assert minimal_poly_degree_at(lfa1.operators["K1"], p7, lfa1.tolerances["cluster"]) == 7
    assert minimal_poly_degree_at(identity_operator(CH3), (0.1, 0.2, 0.3)) == 1


def test_minimal_poly_degree_is_read_from_the_analysed_value(lfa1):
    p = sample_points(lfa1.domain, 1)[0]
    spec = spectrum_at(lfa1.operators["K1"], p, lfa1.tolerances["cluster"])
    assert spec.value.tobytes() == lfa1.operators["K1"].values_many(p[None, :])[0].tobytes()
    assert spec.minimal_poly_degree() == sum(spec.riesz) == 7


def test_minimal_poly_degree_mismatch_fails_the_spectrum_check(lta, monkeypatch, capsys):
    # a rank test that finds the powers of A spanning one dimension (so {I, A}
    # dependent) disagrees with the Riesz sum 5 of each of L1..L3 at the first
    # manifest point
    monkeypatch.setattr(spectral, "numeric_rank", lambda mat, rank_tol=RANK_TOL: 1)
    p = sample_points(lta.domain, 1)[0]
    message = "minimal polynomial degree mismatch: rank test gives 1, Riesz indices give 5"
    with pytest.raises(SpectralError, match=f"^{message}$"):
        spectrum_at(lta.operators["L1"], p).minimal_poly_degree()
    with pytest.raises(SpectralError, match=f"^{message}$"):
        minimal_poly_degree_at(lta.operators["L1"], p)
    assert main(["spectrum", "--manifest", "lta.json", "--samples", "5"]) == 1
    out = capsys.readouterr().out
    for name in lta.operators:
        assert f"| {name} spectrum | FAIL | `{{\"error\": \"minimal polynomial degree mismatch" in out


@pytest.mark.parametrize("fixture", ["lfa1", "lta"])
def test_digest_and_degree_do_not_change_under_scaling(request, fixture):
    # A -> sA scales every eigenvalue and every power; each power's row of the
    # minimal polynomial rank test is scaled to max 1 by its own maximum
    man = request.getfixturevalue(fixture)
    cluster, rank_tol = man.tolerances["cluster"], man.tolerances["rank"]
    pts = sample_points(man.domain, 20)
    for op in man.operators.values():
        for p, mat in zip(pts, op.values_many(pts)):
            spec = _spectrum(mat, p, cluster, rank_tol)
            want = (spec.digest, spec.minimal_poly_degree(rank_tol))
            for s in (1e-2, 1e-1, 1e2, 1e4):
                scaled = _spectrum(s * mat, p, cluster, rank_tol)
                assert (scaled.digest, scaled.minimal_poly_degree(rank_tol)) == want


@pytest.mark.parametrize("mat, degree", [(np.diag([1.0], k=1), 2), (np.zeros((2, 2)), 1)])
@pytest.mark.parametrize("s", [1.0, 1e-2, 1e4])
def test_minimal_poly_degree_of_a_nilpotent_and_the_zero_operator(mat, degree, s):
    # a power that is exactly zero stays a zero row: no division by its maximum
    spec = _spectrum(s * mat, np.zeros(2), CLUSTER_TOL, RANK_TOL)
    assert spec.riesz == (degree,)
    assert spec.minimal_poly_degree() == degree


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def test_lta_regularity(lta):
    for op in lta.operators.values():
        rep = regularity_check(op, lta.domain, 10, lta.tolerances["cluster"])
        assert rep.constant


def test_regularity_on_a_given_sample(lta):
    # a sample drawn once by the caller gives the report of the sample drawn
    # inside; a sample of the wrong shape is refused
    op = lta.operators["L3"]
    pts = sample_points(lta.domain, 12)
    drawn = regularity_check(op, lta.domain, 12, lta.tolerances["cluster"])
    given_pts = regularity_check(op, lta.domain, 12, lta.tolerances["cluster"], pts=pts)
    assert vars(given_pts) == vars(drawn)
    with pytest.raises(DimensionMismatchError, match=r"got shape \(11, 5\)"):
        regularity_check(op, lta.domain, 12, pts=pts[:11])


def test_degenerate_operator_not_regular():
    # diag(x1, -x1) sampled next to the eigenvalue collision at x1 = 0 (no
    # guard): either an error at the degeneracy or a non-constant report
    a = op_from_strings(CH2, [["x1", "0"], ["0", "-x1"]])
    dom = SampleDomain(box=((-2e-4, 2e-4), (0.0, 1.0)), seed=123)
    try:
        rep = regularity_check(a, dom, 40)
    except TorsionLabError:
        return
    assert not rep.constant


def test_regularity_names_both_points_of_a_digest_change():
    # [[1, x1], [0, 1]] is a Jordan block for x1 != 0 and the identity at x1 = 0
    a = op_from_strings(CH2, [["1", "x1"], ["0", "1"]])
    dom = SampleDomain(box=((0.0, 1.0), (0.0, 2.0)), seed=2)
    pts = np.array([[0.5, 1.0], [0.0, 1.0]])
    rep = regularity_check(a, dom, 2, pts=pts)
    assert not rep.constant
    assert rep.details == (f"digest {rep.digests[1]} at point [0.0, 1.0] differs "
                           f"from {rep.digests[0]} at point [0.5, 1.0]")


def test_constant_matrix_regular():
    a = op_from_strings(CH2, [["1", "2"], ["0", "5"]])
    dom = SampleDomain(box=((0.0, 1.0), (0.0, 1.0)), seed=2)
    assert regularity_check(a, dom, 10).constant


@pytest.mark.parametrize("fixture, name", [("lfa1", "K1"), ("lta", "L1")])
def test_regularity_sweep_matches_pointwise(request, monkeypatch, fixture, name):
    man = request.getfixturevalue(fixture)
    op = man.operators[name]
    cluster, rank_tol = man.tolerances["cluster"], man.tolerances["rank"]
    pointwise = [spectrum_at(op, p, cluster, rank_tol).digest
                 for p in sample_points(man.domain, 20)]
    calls = []
    values_many = type(op).values_many

    def counting_values_many(self, pts):
        calls.append(pts.shape[0])
        return values_many(self, pts)

    monkeypatch.setattr(type(op), "values_many", counting_values_many)
    rep = regularity_check(op, man.domain, 20, cluster, rank_tol)
    assert list(rep.digests) == pointwise
    assert calls == [20]  # one evaluation for the whole sweep


@pytest.mark.parametrize("rows", [[["x1", "0"], ["0", "-x1"]], [["x1", "-x2"], ["x2", "x1"]]])
def test_regularity_error_names_first_failing_point(rows):
    a = op_from_strings(CH2, rows)
    dom = SampleDomain(box=((-2e-4, 2e-4), (0.0, 1.0)), seed=123)
    first = None
    for p in sample_points(dom, 40):
        try:
            spectrum_at(a, p)
        except TorsionLabError as exc:
            first = (type(exc), p.tolist())
            break
    assert first is not None
    with pytest.raises(first[0]) as info:
        regularity_check(a, dom, 40)
    assert str(info.value).endswith(f"(at sample point {first[1]})")


@pytest.mark.parametrize("fixture, name", [("lfa1", "K1"), ("lta", "L1")])
def test_sweep_calls_do_not_grow_with_the_point_count(request, monkeypatch, fixture, name):
    # one eigvals call per sweep, and one svd call per (eigenvalue slot, power)
    man = request.getfixturevalue(fixture)
    op = man.operators[name]
    svd, eigvals = count_calls(monkeypatch, "svd"), count_calls(monkeypatch, "eigvals")
    counts = []
    for n_pts in (20, 80):
        regularity_check(op, man.domain, n_pts, man.tolerances["cluster"], man.tolerances["rank"])
        counts.append((len(svd), len(eigvals)))
        svd.clear()
        eigvals.clear()
    assert counts[0] == counts[1]
    assert counts[0][1] == 1


# ---------------------------------------------------------------------------
# the batched core against the per-point oracle
# ---------------------------------------------------------------------------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def oracle_sweep(mats, pts, cluster_tol=CLUSTER_TOL, rank_tol=RANK_TOL):
    """Per-point oracle spectra, and the error the sweep must raise (type and
    message), if any: the one of the first failing point."""
    spectra, first_error = [], None
    for mat, p in zip(mats, pts):
        try:
            spectra.append(spectrum_oracle(mat, cluster_tol, rank_tol))
        except TorsionLabError as exc:
            spectra.append(None)
            if first_error is None:
                first_error = (type(exc), f"{exc} (at sample point {p.tolist()})")
    return spectra, first_error


def assert_same_fields(want, have):
    for want_field, have_field in zip(want, have, strict=True):
        assert len(want_field) == len(have_field)
        assert all(same_bits(w, h) for w, h in zip(want_field, have_field))


def assert_matches_oracle(mats, pts, cluster_tol=CLUSTER_TOL, rank_tol=RANK_TOL):
    """``_spectra`` yields every point's eigenvalues, Riesz indices and ranks
    bit for bit as the oracle computes them, or raises its error; the bases of
    every point come from its one-point analysis, bit for bit as well."""
    expected, first_error = oracle_sweep(mats, pts, cluster_tol, rank_tol)
    n = mats.shape[1]
    got = [([], [], []) for _ in pts]
    try:
        for j, idx, lam, rho, rank, u, vh in _spectra(mats, pts, cluster_tol, rank_tol):
            assert len(pts) == 1 or u is vh is None  # a sweep computes no factors
            for k, i in enumerate(idx):
                assert len(got[i][0]) == j  # every slot of a point once, in order
                for field, value in zip(got[i], (lam[k], rho, n - int(rank[k]))):
                    field.append(value)
    except TorsionLabError as exc:
        assert (type(exc), str(exc)) == first_error
        return
    assert first_error is None
    for mat, p, want, have in zip(mats, pts, expected, got):
        assert_same_fields(want[:3], have)
        spec = _spectrum(mat, p, cluster_tol, rank_tol)
        assert_same_fields(want, (spec.eigenvalues, spec.riesz, spec.ranks, spec.eig_bases,
                                  spec.char_bases, spec.annihilators))


@pytest.mark.parametrize("seed", [0, 1, 2, 42])
@pytest.mark.parametrize("fixture", ["lfa1", "lta"])
def test_spectra_match_the_oracle_on_the_fixtures(request, fixture, seed):
    man = request.getfixturevalue(fixture)
    cluster, rank_tol = man.tolerances["cluster"], man.tolerances["rank"]
    pts = sample_points(replace(man.domain, seed=seed), 25)
    for op in man.operators.values():
        assert_matches_oracle(op.values_many(pts), pts, cluster, rank_tol)


def cluster_matrix(rng, members: int, kind: str) -> np.ndarray:
    """A random real matrix of size 2 * members + 1 whose spectrum has a cluster
    of ``members`` eigenvalues: real ones near 1, or complex ones near 1 + 2i
    (with the conjugate cluster)."""
    n = 2 * members + 1
    offsets = 1e-7 * rng.uniform(-1.0, 1.0, size=(members, 2))
    blocks = np.zeros((n, n))
    if kind == "real":
        far = 3.0 + np.arange(n - members) + 1e-3 * rng.uniform(size=n - members)
        blocks[np.diag_indices(n)] = np.concatenate([1.0 + offsets[:, 0], far])
    else:
        for k, (da, db) in enumerate(offsets):
            a, b = 1.0 + da, 2.0 + db
            blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [-b, a]]
        blocks[-1, -1] = 5.0
    basis = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return basis @ blocks @ np.linalg.inv(basis)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("members", range(1, 17))
def test_cluster_means_match_numpy_mean(kind, members):
    # numpy sums eight or more doubles pairwise: real clusters of 8 or more
    # members and complex ones of 4 or more
    rng = np.random.default_rng(10 * members + (kind == "complex"))
    # one matrix of the other kind puts real and complex spectra in one stack
    mats = np.stack([cluster_matrix(rng, members, kind) for _ in range(6)]
                    + [cluster_matrix(rng, members, "real" if kind == "complex" else "complex")])
    radius = CLUSTER_TOL * (1.0 + np.max(np.abs(mats), axis=(1, 2)))
    re, im, size = _cluster_means(mats, radius)
    biggest = 0
    for i, mat in enumerate(mats):
        groups = cluster_eigenvalues(np.linalg.eigvals(mat), radius[i])
        means = np.array([complex(np.mean(g)) for g in groups])
        roots = size[i] > 0
        assert same_bits(re[i][roots], means.real)
        assert same_bits(im[i][roots], means.imag)
        assert size[i][roots].tolist() == [len(g) for g in groups]
        biggest = max(biggest, max(len(g) for g in groups))
    assert biggest == members


@pytest.mark.parametrize("value", ["0.1", "x1"])
def test_scalar_operator_on_eight_dimensions(value):
    # eight equal eigenvalues: their mean must be the eigenvalue itself, as
    # np.mean's pairwise sum gives it (a left fold gives 0.7999999999999999 / 8
    # for eight times 0.1, whose shift has full rank)
    chart = Chart(8)
    a = op_from_strings(chart, [[value if i == k else "0" for k in range(8)] for i in range(8)])
    domain = SampleDomain(box=((0.05, 2.0),) + ((0.0, 1.0),) * 7, seed=0)
    for p in sample_points(domain, 20):
        spec = spectrum_at(a, p)
        assert (spec.riesz, spec.ranks) == ((1,), (8,))
    report = regularity_check(a, domain, 50)
    assert report.constant and set(report.digests) == {(1, (1,), (8,))}


def test_clusters_are_closed_under_chains():
    # neighbours 6e-4 apart, radius 1e-3: 1 and 1.0018 are one cluster only
    # through the members between them
    mats = np.diag([1.0018, 1.0, 9.0, 1.0006, 1.0012])[None]
    radius = CLUSTER_TOL * (1.0 + np.max(np.abs(mats), axis=(1, 2)))
    re, im, size = _cluster_means(mats, radius)
    groups = cluster_eigenvalues(np.linalg.eigvals(mats[0]), radius[0])
    assert [len(g) for g in groups] == [4, 1]
    assert size[0].tolist() == [4, 0, 0, 0, 1]
    assert same_bits(re[0][size[0] > 0], np.array([np.mean(g) for g in groups]))


def test_ragged_sweep_matches_the_oracle():
    # the eigenvalue count changes across the box: where the eigenvalues of
    # diag(x1, -x1) fall into one cluster, that cluster is no eigenvalue
    a = op_from_strings(CH2, [["x1", "0"], ["0", "-x1"]])
    pts = sample_points(SampleDomain(box=((-2e-4, 2e-4), (0.0, 1.0)), seed=123), 40)
    mats = a.values_many(pts)
    assert 0 < sum(s is None for s in oracle_sweep(mats, pts)[0]) < len(pts)
    assert_matches_oracle(mats, pts)
    # two and three distinct eigenvalues in one stack, without errors
    mats = np.stack([np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 2.0, 3.0]),
                     np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])])
    pts = np.arange(6.0).reshape(3, 2)
    assert_matches_oracle(mats, pts)
    assert _sweep(mats, pts, CLUSTER_TOL, RANK_TOL) == [
        (2, (1, 1), (1, 2)), (3, (1, 1, 1), (1, 1, 1)), (2, (1, 2), (1, 2))]


def planted_collision(seed: int, d: float) -> np.ndarray:
    """Q diag(J3(0), d, 1, 2, 5) Q^T for a random orthogonal Q: a simple
    eigenvalue d next to a Jordan block of Riesz index 3."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((7, 7)))
    jordan = np.diag([0.0, 0.0, 0.0, d, 1.0, 2.0, 5.0]) + np.diag([1.0, 1.0, 0, 0, 0, 0], k=1)
    return q @ jordan @ q.T


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.floats(0.015, 0.04))
def test_a_simple_eigenvalue_next_to_a_jordan_block_keeps_its_direction(seed, d):
    # a fourth power of the block's shift would cut the direction of d, whose
    # singular value d^4 falls below 1e-8 * 5^4 for d < 0.05; the walk of the
    # block stops at its third power, of rank 7 - 3
    mat, p = planted_collision(seed, d), np.array([d])
    want = (5, (1, 1, 1, 1, 3), (1, 1, 1, 1, 3))
    assert _spectrum(mat, p, CLUSTER_TOL, RANK_TOL).digest == want
    assert _sweep(mat[None], p[None], CLUSTER_TOL, RANK_TOL) == [want]
    assert_matches_oracle(mat[None], p[None])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_block_whose_last_power_cuts_a_neighbour_names_the_point(seed):
    # at d = 0.005 the third power already cuts d^3 below 1e-8 * 5^3: its rank
    # falls below 7 - 3, which is an error, never a digest
    mat, p = planted_collision(seed, 0.005), np.array([0.005])
    message = (r"^generalized eigenspace of cluster value \S+ has dimension 4, "
               r"not its multiplicity 3 \(at sample point \[0\.005\]\)$")
    with pytest.raises(SpectralError, match=message):
        _spectrum(mat, p, CLUSTER_TOL, RANK_TOL)
    with pytest.raises(SpectralError, match=message):
        _sweep(mat[None], p[None], CLUSTER_TOL, RANK_TOL)
    assert_matches_oracle(mat[None], p[None])


# four-dimensional values that fail in different ways
FAILING = {
    # strictly upper triangular: the singular values 3e-8 and 5e-9 straddle the cut
    RankAmbiguousError: np.diag([1.0, 3e-8, 5e-9], k=1),
    # 1 and 1 + 1e-6 fall into one cluster whose shift has full rank
    SpectralError: np.diag([1.0, 1.0 + 1e-6, 5.0, 7.0]),
    ComplexEigenvalueError: np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                      [0.0, 0.0, 5.0, 0.0], [0.0, 0.0, 0.0, 7.0]]),
}
REGULAR = [np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([1.0, 1.0, 2.0, 2.0]),
           np.diag([1.0, 0.0, 0.0], k=1) + np.diag([2.0, 2.0, 3.0, 4.0])]


@pytest.mark.parametrize("first, second", permutations(FAILING, 2))
def test_sweep_names_the_earlier_of_two_errors(first, second):
    mats = np.stack([REGULAR[0], FAILING[first], REGULAR[2], FAILING[second]])
    pts = np.arange(8.0).reshape(4, 2)
    for bad in (1, 3):
        with pytest.raises(TorsionLabError) as info:
            spectrum_oracle(mats[bad], CLUSTER_TOL, RANK_TOL)
        assert type(info.value) is (first if bad == 1 else second)
    with pytest.raises(first, match=r"\(at sample point \[2\.0, 3\.0\]\)$"):
        _sweep(mats, pts, CLUSTER_TOL, RANK_TOL)
    assert_matches_oracle(mats, pts)


POOL = REGULAR + list(FAILING.values())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(choice=st.lists(st.sampled_from(range(len(POOL))), min_size=2, max_size=10),
       data=st.data())
def test_sweep_follows_a_reordering_of_its_points(choice, data):
    # permuting the points permutes the digests; the error named is that of
    # the first failing point in the given order
    perm = data.draw(st.permutations(range(len(choice))))
    mats = np.stack([POOL[c] for c in choice])
    pts = np.array([[float(k), float(c)] for k, c in enumerate(choice)])
    spectra, _ = oracle_sweep(mats, pts)
    _, first_error = oracle_sweep(mats[perm], pts[perm])
    if first_error is None:
        digests = _sweep(mats, pts, CLUSTER_TOL, RANK_TOL)
        assert _sweep(mats[perm], pts[perm], CLUSTER_TOL, RANK_TOL) == [digests[i] for i in perm]
        return
    assert any(s is None for s in spectra)
    with pytest.raises(TorsionLabError) as info:
        _sweep(mats[perm], pts[perm], CLUSTER_TOL, RANK_TOL)
    assert (type(info.value), str(info.value)) == first_error


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------

def test_coordinate_fields_involutive():
    dom = SampleDomain(box=((0.5, 1.5),) * 3, seed=4)
    rep = involutivity_check([basis_field(CH3, 0), basis_field(CH3, 1)], dom, 10, 1e-9)
    assert rep.involutive


def test_d4_span_involutive(lta):
    rep = involutivity_check(list(lta.fields["D4_span"]), lta.domain, 10, 1e-9)
    assert rep.involutive


def test_non_involutive_pair_detected():
    # contact pair: [d1, d2 + x1 d3] = d3, which leaves the span
    x = basis_field(CH3, 0)
    y = VectorFieldExpr(CH3, (const(0), const(1), Var(0)))
    dom = SampleDomain(box=((0.5, 1.5),) * 3, seed=6)
    rep = involutivity_check([x, y], dom, 10, 1e-9)
    assert not rep.involutive
    assert rep.max_residual > 1e-2


def _contact_pair(s):
    """s d1 and s (d2 + x1 d3), whose bracket s^2 d3 leaves their span."""
    return [VectorFieldExpr(CH3, (const(s), const(0), const(0))),
            VectorFieldExpr(CH3, (const(0), const(s), const(s) * Var(0)))]


CONTACT_DOMAIN = SampleDomain(box=((0.5, 1.5),) * 3, seed=6)


@pytest.mark.parametrize("s", [Fraction(1, 10 ** 5), Fraction(1, 1000), 1, 10 ** 5])
def test_non_involutive_pair_reads_the_same_at_every_field_scale(s):
    # the bracket and its bound |dY||X| + |dX||Y| both scale by s^2; a bound
    # floored at 1 read the pair as involutive at s = 1e-5
    want = involutivity_check(_contact_pair(1), CONTACT_DOMAIN, 10, 1e-9)
    rep = involutivity_check(_contact_pair(s), CONTACT_DOMAIN, 10, 1e-9)
    assert not rep.involutive
    assert abs(rep.max_residual - want.max_residual) <= 1e-12 * want.max_residual
    assert want.max_residual > 0.5


def _rescaled_fields(fields, c):
    """The fields in the coordinates y = c x: X^i d/dx^i = c X^i(y / c) d/dy^i."""
    n = fields[0].chart.dim
    return [VectorFieldExpr(f.chart, tuple(const(c) * rescaled(e, c, n) for e in f.components))
            for f in fields]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(k=st.integers(-26, 26))
@example(k=-26)
@example(k=26)
def test_involutivity_does_not_change_under_a_coordinate_rescaling(lta, k):
    c = Fraction(2) ** k
    for fields, domain in ((_contact_pair(1), CONTACT_DOMAIN),
                           (list(lta.fields["D4_span"]), lta.domain)):
        want = involutivity_check(fields, domain, 10, 1e-9)
        got = involutivity_check(_rescaled_fields(fields, c), rescaled_domain(domain, c), 10, 1e-9)
        assert (got.involutive, got.max_residual, got.worst_pair) == \
            (want.involutive, want.max_residual, want.worst_pair)


def test_dependent_fields_rejected():
    x = basis_field(CH2, 0)
    dom = SampleDomain(box=((0.5, 1.5), (0.5, 1.5)), seed=6)
    with pytest.raises(DependentSpanningSetError):
        involutivity_check([x, x], dom, 5, 1e-9)


def test_scaled_coordinate_fields_involutive():
    # the rank rule is relative to the largest singular value, so tiny
    # fields span as well as unit ones
    dom = SampleDomain(box=((0.5, 1.5),) * 3, seed=4)
    tiny = Fraction(1, 10 ** 11)
    rep = involutivity_check([basis_field(CH3, i, tiny) for i in (0, 1)], dom, 10, 1e-9)
    assert rep.involutive and rep.max_residual == 0.0


def test_ambiguous_frame_rank_names_the_point():
    # singular values 1, 2e-8, 5e-9 straddle the cut 1e-8 within a factor 10
    dom = SampleDomain(box=((0.5, 1.5),) * 3, seed=4)
    fields = [basis_field(CH3, i, c)
              for i, c in enumerate((1, Fraction(2, 10 ** 8), Fraction(5, 10 ** 9)))]
    first = sample_points(dom, 5)[0].tolist()
    with pytest.raises(RankAmbiguousError, match=rf"straddle .* \(at sample point {re.escape(str(first))}\)$"):
        involutivity_check(fields, dom, 5, 1e-9)


# ---------------------------------------------------------------------------
# joint refinements
# ---------------------------------------------------------------------------

def test_joint_refinement_single_operator(lta):
    op = lta.operators["L1"]
    p = sample_points(lta.domain, 1)[0]
    spec = spectrum_at(op, p, lta.tolerances["cluster"])
    ref = joint_refinement([op], p, lta.tolerances["cluster"])
    assert ref.ranks == spec.ranks
    for basis, eig_basis in zip(ref.bases, spec.eig_bases):
        assert max_principal_angle(basis, eig_basis) <= 1e-6


def test_joint_refinement_lta_family(lta):
    ops = [lta.operators[n] for n in ("L1", "L2", "L3")]
    p = sample_points(lta.domain, 1)[0]
    ref = joint_refinement(ops, p, lta.tolerances["cluster"])
    assert sorted(ref.ranks) == [1, 1, 1, 2]
    golden = lta.spectrum
    # every refined block coincides with one of the shared eigen-distributions
    for basis in ref.bases:
        angles = []
        for dist in golden.distributions:
            printed = np.stack([f.at(p) for f in dist], axis=1)
            if printed.shape[1] == basis.shape[1]:
                angles.append(max_principal_angle(basis, printed))
        assert min(angles) <= 1e-6


def test_joint_refinement_commuting_diagonals():
    a = op_from_strings(CH3, [["x1", "0", "0"], ["0", "x1", "0"], ["0", "0", "x2"]])
    b = op_from_strings(CH3, [["x3", "0", "0"], ["0", "x1", "0"], ["0", "0", "x1"]])
    p = (1.1, 1.9, 0.4)
    ref = joint_refinement([a, b], p)
    assert ref.ranks == (1, 1, 1)
    # brute force: coordinate eigenspaces intersect to the coordinate axes
    for basis in ref.bases:
        axis = np.argmax(np.abs(basis[:, 0]))
        unit = np.zeros(3)
        unit[axis] = 1.0
        assert max_principal_angle(basis, unit[:, None]) <= 1e-6


def test_joint_refinement_rejects_noncommuting():
    a = op_from_strings(CH2, [["1", "1"], ["0", "2"]])
    b = op_from_strings(CH2, [["1", "0"], ["1", "2"]])
    # AB - BA = [[1, 1], [1, -1]], bound max|A| max|B| = 2 * 2: residual 1/4
    with pytest.raises(NonCommutingError,
                       match=r"operators 0 and 1 do not commute at the point "
                             r"\(residual 2\.500e-01\)"):
        joint_refinement([a, b], (0.0, 0.0))


@pytest.mark.parametrize("s", ["1/10000", "1", "10000"])
def test_joint_refinement_judges_a_scaled_pair_by_its_own_scale(s):
    # A = s [[1, 1], [0, 2]] and B = s [[0, 0], [1, 0]]: AB - BA = s^2 [[1, 0],
    # [1, -1]] against max|A| max|B| = 2 s^2, residual 1/2 at every s
    a = op_from_strings(CH2, [[s, s], ["0", f"2*{s}"]])
    b = op_from_strings(CH2, [["0", "0"], [s, "0"]])
    p = (0.0, 0.0)
    assert commutator_oracle(a.at(p).matrix, b.at(p).matrix) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(NonCommutingError, match=r"operators 0 and 1 do not commute at the "
                                                r"point \(residual 5\.000e-01\)"):
        joint_refinement([a, b], p)


def test_intersect_uses_the_shared_rank_rule():
    # stacked singular values 2.83e-8 and 4.24e-9 straddle the cut 1.41e-8
    # with a gap ratio below RANK_GAP_FACTOR: ambiguous, not a 1-dim answer
    e = np.eye(4)
    t1, t2 = 4e-8, 6e-9
    a = e[:, :2]
    b = np.stack([np.cos(t1) * e[0] + np.sin(t1) * e[2],
                  np.cos(t2) * e[1] + np.sin(t2) * e[3]], axis=1)
    with pytest.raises(RankAmbiguousError):
        _intersect(a, b)
    assert _intersect(a, a).shape == (4, 2)
