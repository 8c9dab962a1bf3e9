"""Pointwise spectra, Riesz indices, regularity, involutivity and refinements."""

import numpy as np
import pytest

from helpers import basis_field
from torsionlab.errors import (
    ComplexEigenvalueError,
    DependentSpanningSetError,
    NonCommutingError,
    RankAmbiguousError,
    TorsionLabError,
)
from torsionlab.expr import Chart, SampleDomain, Var, const, eval_at, parse_expr, sample_points
from torsionlab.fields import OperatorField, VectorFieldExpr, identity_operator
from torsionlab.spectral import (
    _intersect,
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


def count_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.mark.parametrize("fixture, name, expected", [("lfa1", "K1", 12), ("lta", "L1", 9)])
def test_one_svd_per_power(request, monkeypatch, fixture, name, expected):
    # rho + 1 powers per eigenvalue; the subspaces come from the SVD of the
    # stabilized power that the rank sequence already made
    man = request.getfixturevalue(fixture)
    p = sample_points(man.domain, 1)[0]
    calls = count_svd_calls(monkeypatch)
    spec = spectrum_at(man.operators[name], p, man.tolerances["cluster"], man.tolerances["rank"])
    assert len(calls) == sum(rho + 1 for rho in spec.riesz) == expected


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


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def test_lta_regularity(lta):
    for op in lta.operators.values():
        rep = regularity_check(op, lta.domain, 10, lta.tolerances["cluster"])
        assert rep.constant


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


def test_dependent_fields_rejected():
    x = basis_field(CH2, 0)
    dom = SampleDomain(box=((0.5, 1.5), (0.5, 1.5)), seed=6)
    with pytest.raises(DependentSpanningSetError):
        involutivity_check([x, x], dom, 5, 1e-9)


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
    with pytest.raises(NonCommutingError):
        joint_refinement([a, b], (0.0, 0.0))


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
