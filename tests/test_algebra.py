"""Representation calculus, Bezout quotients and closure-law checks."""

import dataclasses
import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    commutator_oracle,
    composite_jet_reference,
    generic_identity_draws,
    random_combo_poly,
    random_operator,
    random_poly_expr,
    rel_err,
    rep_oracle,
    rescaled,
    rescaled_domain,
    rescaled_operator,
)
import torsionlab.algebra as alg
import torsionlab.fields as fl
from torsionlab.algebra import (
    PolySpec,
    TriPoly,
    bezout_quotient,
    check_algebra,
    check_polynomial_preservation,
    cyclic_basis,
    poly_of_operator,
    rep_apply,
)
from torsionlab.errors import EvalDomainError, PreconditionError
from torsionlab.expr import (
    Chart,
    SampleDomain,
    Var,
    const,
    eval_at,
    parse_expr,
    poly_mul,
    sample_points,
)
from torsionlab.fields import (
    LinCombOperator,
    OperatorAtPoint,
    OperatorField,
    PolyOperator,
    PowerOperator,
    ProductOperator,
    TorsionTensor,
    candidate_verdicts,
    identity_operator,
    is_vanishing,
    level_image,
    scalar_jets_plan,
    scaled,
    torsion_at,
    torsion_many,
)
from torsionlab.manifest import fixture_path, load_manifest

CH2 = Chart(2)
CH3 = Chart(3)


def op_from_strings(chart, rows):
    return OperatorField(chart, tuple(tuple(parse_expr(s, chart) for s in row) for row in rows))


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------

def test_rep_identity_polynomial():
    rng = np.random.default_rng(2)
    a = random_operator(CH3, rng)
    p = rng.uniform(0.5, 1.5, size=3)
    t = torsion_at(a, 1, p)
    out = rep_apply(TriPoly.one(), t, a.at(p))
    assert np.array_equal(out.components, t.components)


def test_rep_sigma_raises_level():
    rng = np.random.default_rng(3)
    sigma = TriPoly.sigma()
    for _ in range(5):
        a = random_operator(CH3, rng)
        p = rng.uniform(0.5, 1.5, size=3)
        for m in (1, 2, 3):
            lhs = rep_apply(sigma, torsion_at(a, m, p), a.at(p)).components
            rhs = torsion_at(a, m + 1, p).components
            assert rel_err(lhs, rhs) <= 1e-9


def test_rep_multiplicativity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = random_operator(CH3, rng)
        p = rng.uniform(0.5, 1.5, size=3)
        ap = a.at(p)
        t = torsion_at(a, 1, p)
        s1 = TriPoly({(1, 0, 0): random_poly_expr(CH3, rng),
                      (0, 1, 1): random_poly_expr(CH3, rng),
                      (0, 2, 0): const(2)})
        s2 = TriPoly({(0, 0, 1): random_poly_expr(CH3, rng),
                      (2, 1, 0): const(-1)})
        joint = rep_apply(s1 * s2, t, ap).components
        nested = rep_apply(s1, rep_apply(s2, t, ap), ap).components
        assert rel_err(joint, nested) <= 1e-9
        # and in the other order
        nested2 = rep_apply(s2, rep_apply(s1, t, ap), ap).components
        assert rel_err(joint, nested2) <= 1e-9


def test_rep_linearity():
    rng = np.random.default_rng(7)
    a = random_operator(CH3, rng)
    p = rng.uniform(0.5, 1.5, size=3)
    ap = a.at(p)
    t = torsion_at(a, 2, p)
    s1 = TriPoly({(1, 1, 0): random_poly_expr(CH3, rng)})
    s2 = TriPoly({(0, 0, 2): random_poly_expr(CH3, rng)})
    lhs = rep_apply(s1 + s2, t, ap).components
    rhs = rep_apply(s1, t, ap).components + rep_apply(s2, t, ap).components
    assert rel_err(lhs, rhs) <= 1e-12


def test_rep_argument_slots():
    # lambda acts on the first argument only and mu on the second; a tensor
    # that is not skew tells the two slots apart
    rng = np.random.default_rng(9)
    a = random_operator(CH3, rng)
    p = rng.uniform(0.5, 1.5, size=3)
    ap = a.at(p)
    t = TorsionTensor(1, p, rng.normal(size=(3, 3, 3)))
    first = np.einsum("iak,aj->ijk", t.components, ap.matrix)   # T(AX, Y)
    second = np.einsum("ijb,bk->ijk", t.components, ap.matrix)  # T(X, AY)
    got_first = rep_apply(TriPoly({(0, 1, 0): const(1)}), t, ap).components
    got_second = rep_apply(TriPoly({(0, 0, 1): const(1)}), t, ap).components
    assert rel_err(got_first, first) <= 1e-13
    assert rel_err(got_second, second) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rep_apply_matches_definition_oracle(n):
    # random polynomials with exponents up to 3 in each of z, lambda and mu and
    # point-dependent coefficients, on tensors that are not skew
    chart = Chart(n)
    rng = np.random.default_rng(80 + n)
    for _ in range(6):
        p = rng.uniform(0.5, 1.5, size=n)
        ap = OperatorAtPoint(rng.uniform(-1.0, 1.0, size=(n, n)), p)
        t = TorsionTensor(1, p, rng.standard_normal((n, n, n)))
        keys = {tuple(int(e) for e in rng.integers(0, 4, size=3)) for _ in range(8)}
        s = TriPoly({key: random_poly_expr(chart, rng) for key in keys})
        got = rep_apply(s, t, ap).components
        want = rep_oracle(s.eval_coeffs(p), t.components[None], ap.matrix[None])[0]
        assert rel_err(got, want) <= 1e-12


# ---------------------------------------------------------------------------
# Bezout quotient
# ---------------------------------------------------------------------------

def _expanded_quotient_terms(q, m, n_pts):
    """The terms of S = Q_P(z,l)^m Q_P(z,mu)^m, expanded with ``poly_mul``."""
    q_m = {(0, 0): np.ones(n_pts)}
    for _ in range(m):
        q_m = poly_mul(q_m, q)
    return poly_mul({(i, j, 0): c for (i, j), c in q_m.items()},
                    {(i, 0, j): c for (i, j), c in q_m.items()})


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("deg", [1, 2, 3])
def test_factored_bezout_image_matches_expanded_oracle(deg, m):
    # Q_P(Z, M)^m then Q_P(Z, Lambda)^m by Horner equals R_S of the expanded S
    rng = np.random.default_rng(10 * deg + m)
    n_pts = 6
    pts = rng.uniform(0.5, 1.5, size=(n_pts, 3))
    vals = rng.uniform(-1.0, 1.0, size=(n_pts, 3, 3))
    t = rng.standard_normal((n_pts, 3, 3, 3))
    p = PolySpec(tuple(random_poly_expr(CH3, rng) for _ in range(deg + 1)))
    q = bezout_quotient(p).eval_coeffs_many(pts)
    got = alg._quotient_image(q, m, t, vals)
    want = rep_oracle(_expanded_quotient_terms(q, m, n_pts), t, vals)
    assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("deg", [1, 2, 3])
def test_factored_magnitude_bounds_the_bezout_image(deg, m):
    # |R_S T| <= sum |s_ijk| beta^(i+j+k) max|T| <= |Q_P|(beta, beta)^(2m) max|T|
    # with beta = max(||A||_1, ||A||_inf): the preservation rule's bound
    # needs no expansion of S
    rng = np.random.default_rng(100 + 10 * deg + m)
    n_pts = 6
    pts = rng.uniform(0.5, 1.5, size=(n_pts, 3))
    vals = rng.uniform(-1.5, 1.5, size=(n_pts, 3, 3))
    t = rng.standard_normal((n_pts, 3, 3, 3))
    p = PolySpec(tuple(random_poly_expr(CH3, rng) for _ in range(deg + 1)))
    q = bezout_quotient(p).eval_coeffs_many(pts)
    beta = np.maximum(np.abs(vals).sum(axis=1).max(axis=1), np.abs(vals).sum(axis=2).max(axis=1))
    expanded = sum(np.abs(c) * beta ** sum(key)
                   for key, c in _expanded_quotient_terms(q, m, n_pts).items())
    factored = sum(np.abs(c) * beta ** (i + j) for (i, j), c in q.items()) ** (2 * m)
    image = np.abs(alg._quotient_image(q, m, t, vals)).reshape(n_pts, -1).max(axis=1)
    t_max = np.abs(t).reshape(n_pts, -1).max(axis=1)
    assert np.all(image <= expanded * t_max * (1 + 1e-12))
    assert np.all(expanded <= factored * (1 + 1e-12))


def test_bezout_image_peak_memory():
    # deg P = 3 and m = 4: 2m Horner passes hold a few tensors, where the
    # expanded S has (m (deg P - 1) + 1)^3 = 729 terms
    rng = np.random.default_rng(73)
    n_pts, n = 200, 7
    t = rng.standard_normal((n_pts, n, n, n))
    vals = rng.uniform(-1.0, 1.0, size=(n_pts, n, n))
    q = {key: rng.uniform(0.5, 1.5, size=n_pts)
         for key in bezout_quotient(PolySpec(tuple(map(const, (1, 2, 3, 4))))).terms}
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        alg._quotient_image(q, 4, t, vals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 6 * t.nbytes


def test_bezout_linear():
    q = bezout_quotient(PolySpec((const(0), const(1))))  # P(z) = z
    assert set(q.terms) == {(0, 0)}
    assert q.terms[(0, 0)] == const(1)


def test_bezout_square():
    q = bezout_quotient(PolySpec((const(0), const(0), const(1))))  # P(z) = z^2
    assert set(q.terms) == {(1, 0), (0, 1)}


def test_bezout_identity_probes():
    # P = c0 + c1 z + c2 z^2 with c_k = x_(k+1):  Q = c1 + c2 (z + lambda)
    p = PolySpec((Var(0), Var(1), Var(2)))
    q = bezout_quotient(p)
    assert set(q.terms) == {(0, 0), (1, 0), (0, 1)}
    assert q.terms[(0, 0)] == Var(1)
    assert q.terms[(1, 0)] == Var(2) and q.terms[(0, 1)] == Var(2)
    rng = np.random.default_rng(11)
    for _ in range(10):
        pt = rng.uniform(0.5, 1.5, size=3)
        z, lam = rng.uniform(-2, 2, size=2)
        coeffs = [eval_at(c, pt) for c in p.coeffs]
        p_of = lambda v: coeffs[0] + coeffs[1] * v + coeffs[2] * v * v
        q_val = sum(c * z**a * lam**b for (a, b), cexpr in q.terms.items()
                    for c in [eval_at(cexpr, pt)])
        assert abs((p_of(z) - p_of(lam)) - (z - lam) * q_val) <= 1e-10


# ---------------------------------------------------------------------------
# polynomials of operators
# ---------------------------------------------------------------------------

def test_poly_of_operator_identity_cases():
    rng = np.random.default_rng(13)
    a = random_operator(CH3, rng)
    assert poly_of_operator(a, PolySpec((const(0), const(1)))).entries == a.entries
    ident = poly_of_operator(a, PolySpec((const(1),)))
    assert ident.entries == identity_operator(CH3).entries


def test_poly_of_operator_affine_matches_scaling_identity():
    rng = np.random.default_rng(17)
    a = random_operator(CH3, rng)
    f, g = random_poly_expr(CH3, rng), random_poly_expr(CH3, rng)
    affine = poly_of_operator(a, PolySpec((f, g)))
    pts = rng.uniform(0.5, 1.5, size=(5, 3))
    t2 = torsion_many(affine, 2, pts)
    base = torsion_many(a, 2, pts)
    from torsionlab.expr import eval_many
    g4 = eval_many(g, pts) ** 4
    assert rel_err(t2, g4[:, None, None, None] * base) <= 1e-9


# ---------------------------------------------------------------------------
# polynomial preservation (quotient identity)
# ---------------------------------------------------------------------------

def test_preservation_on_level3_fixture(lta):
    a = lta.operators["L1"]
    p = PolySpec((Var(4), Var(0), const(1)))  # x5 + x1 z + z^2
    rep = check_polynomial_preservation(a, p, 3, lta.domain, 100, 1e-8)
    assert rep.vanishing_preserved
    assert rep.identity_ok
    assert rep.passed


def test_preservation_builds_two_level_images_per_chunk(lta, monkeypatch):
    # the level-m images of A and P(A) serve both the identity residual and
    # the walk, which judges them as it judges whole-sample images
    a, n_pts, m = lta.operators["L1"], 300, 3
    p = PolySpec((Var(4), Var(0), const(1)))  # x5 + x1 z + z^2
    calls = []

    def counted(vals, derivs, level):
        calls.append(len(vals))
        return level_image(vals, derivs, level)

    for module in (alg, fl):
        monkeypatch.setattr(module, "level_image", counted)
    rep = check_polynomial_preservation(a, p, m, lta.domain, n_pts, 1e-8)
    sizes = [len(range(n_pts)[part]) for part in fl.chunks(n_pts, lta.chart.dim)]
    assert len(sizes) == 4
    assert calls == [size for size in sizes for _ in range(2)]

    pts = sample_points(lta.domain, n_pts)
    for op, got in ((a, rep.base_report), (PolyOperator(a, p.coeffs), rep.poly_report)):
        jet = op.jet_many(pts)
        want = candidate_verdicts(
            lambda part: [(jet[part], (level_image(*jet[part], m),))],
            (m,), pts, lta.domain.seed, 1e-8)[0][0]
        assert (got.max_residual, got.level) == (want.max_residual, m)
        assert np.array_equal(got.worst_point, want.worst_point)


def test_preservation_identity_polynomial(lta):
    a = lta.operators["L2"]
    rep = check_polynomial_preservation(a, PolySpec((const(0), const(1))), 3,
                                        lta.domain, 50, 1e-8)
    assert rep.passed


def test_preservation_precondition_enforced(lta):
    a = lta.operators["L1"]
    with pytest.raises(PreconditionError):
        check_polynomial_preservation(a, PolySpec((const(0), const(1))), 2,
                                      lta.domain, 50, 1e-8)


def test_quotient_identity_without_vanishing():
    # Lemma-style identity holds for operators whose torsion does NOT vanish
    from torsionlab.algebra import bezout_identity_residual
    rng = np.random.default_rng(19)
    for _ in range(5):
        a = random_operator(CH3, rng)
        pts = rng.uniform(0.5, 1.5, size=(4, 3))
        p = PolySpec((const(0), const(0), const(1)))  # P = z^2
        assert bezout_identity_residual(a, p, 2, pts) <= 1e-9
        p_var = PolySpec((random_poly_expr(CH3, rng), random_poly_expr(CH3, rng),
                          random_poly_expr(CH3, rng)))
        assert bezout_identity_residual(a, p_var, 2, pts) <= 1e-9
        assert bezout_identity_residual(a, p_var, 3, pts) <= 1e-9


def test_bezout_identity_residual_names_a_non_finite_torsion():
    # A and P(A) = A^2 are finite, but A's level-2 torsion, of degree 3 in A
    # and 1 in dA, overflows at the third point
    a = op_from_strings(CH2, [["x2^64*x2^36", "0"], ["0", "x1^64*x1^36"]])
    pts = np.array([[1.0, 1.1], [1.2, 1.3], [10.0, 11.0], [12.0, 13.0]])
    p = PolySpec((const(0), const(0), const(1)))
    with pytest.warns(RuntimeWarning), pytest.raises(
            EvalDomainError, match=r"^level-2 torsion is not finite at point \(10\.0, 11\.0\)$"):
        alg.bezout_identity_residual(a, p, 2, pts)


# ---------------------------------------------------------------------------
# the Bezout identity through a whole substituted input
# ---------------------------------------------------------------------------
# x -> y / c with c = 2^k, substituted into the operator's entries, the
# guards, the coefficients of P and the box (and the points, for given
# ones): every value and derivative of the rescaled inputs is the original
# one times a power of two, exactly

def _rescaled_poly(p: PolySpec, c, n: int) -> PolySpec:
    return PolySpec(tuple(rescaled(e, c, n) for e in p.coeffs))


@functools.lru_cache(maxsize=None)
def _preservation_cases():
    """(manifest, operator, level, sample size, P): lta's L1 with
    x5 + x1 z + z^2 and three random P of degree 2, lfa1's K1 with three more."""
    rng = np.random.default_rng(1007)
    cases = []
    for fixture, name, level, n_pts in (("lta", "L1", 3, 100), ("lfa1", "K1", 4, 60)):
        man = load_manifest(fixture_path(f"{fixture}.json"))
        ps = [PolySpec((Var(4), Var(0), const(1)))] if fixture == "lta" else []
        ps += [PolySpec(tuple(random_poly_expr(man.chart, rng) for _ in range(3))) for _ in range(3)]
        cases += [(man, name, level, n_pts, p) for p in ps]
    return tuple(cases)


@functools.lru_cache(maxsize=None)
def _rescaled_preservation(case: int, k: int):
    man, name, level, n_pts, p = _preservation_cases()[case]
    c, n = Fraction(2) ** k, man.chart.dim
    return check_polynomial_preservation(
        rescaled_operator(man.operators[name], c), _rescaled_poly(p, c, n), level,
        rescaled_domain(man.domain, c), n_pts, 1e-8)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.integers(-26, 26))
@example(k=-26)
@example(k=26)
def test_preservation_does_not_change_under_a_coordinate_rescaling(k):
    # both sides of the identity and its bound are linear in the derivatives,
    # so each residual is bitwise the unscaled one
    for case in range(len(_preservation_cases())):
        want, got = _rescaled_preservation(case, 0), _rescaled_preservation(case, k)
        assert got.identity_ok and got.passed
        assert got.identity_max_residual == want.identity_max_residual
        for g, w in ((got.base_report, want.base_report), (got.poly_report, want.poly_report)):
            assert (g.max_residual, g.vanishing) == (w.max_residual, w.vanishing)


_QUOTIENT_IMAGE = alg._quotient_image


def _extra_factor_image(q, m, t_base, vals):
    """A wrong identity: one more factor Q_P(Z, M) than R_S applies."""
    z, _, mu = alg._actions(vals)
    return alg._horner(q, (z, mu), _QUOTIENT_IMAGE(q, m, t_base, vals))


@functools.lru_cache(maxsize=None)
def _generic_identity_residuals(k: int, wrong: bool) -> tuple[float, ...]:
    """bezout_identity_residual on criterion 7a's draws at m = 2, 3, in
    coordinates rescaled by 2^k, of the identity or of the wrong one."""
    c = Fraction(2) ** k
    with pytest.MonkeyPatch.context() as patch:
        if wrong:
            patch.setattr(alg, "_quotient_image", _extra_factor_image)
        return tuple(alg.bezout_identity_residual(rescaled_operator(a, c),
                                                  _rescaled_poly(p, c, a.chart.dim), m, float(c) * pts)
                     for a, p, pts in generic_identity_draws(np.random.default_rng(1007))
                     for m in (2, 3))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(k=st.integers(-26, 26))
@example(k=-26)
@example(k=26)
def test_generic_identity_rule_catches_a_wrong_identity_at_every_scale(k):
    # relative to the larger side, a right identity reads roundoff and one
    # extra factor reads O(1), bitwise alike in every coordinate scale
    right = _generic_identity_residuals(k, False)
    assert right == _generic_identity_residuals(0, False)
    assert max(right) <= 1e-9
    assert min(_generic_identity_residuals(k, True)) >= 0.1


def test_variable_coefficients_break_level1_only():
    # diag(x1, x2) is level-1 vanishing; x2 * A is not, but stays level-2
    a = op_from_strings(CH2, [["x1", "0"], ["0", "x2"]])
    dom = SampleDomain(box=((0.5, 1.5), (0.5, 1.5)), seed=29)
    assert is_vanishing(a, 1, dom, 50, 1e-8).vanishing
    scaled = poly_of_operator(a, PolySpec((const(0), Var(1))))  # x2 * A
    rep1 = is_vanishing(scaled, 1, dom, 50, 1e-8)
    assert not rep1.vanishing
    assert rep1.max_residual > 1e-3
    assert is_vanishing(scaled, 2, dom, 50, 1e-8).vanishing


# ---------------------------------------------------------------------------
# algebra closure
# ---------------------------------------------------------------------------

def test_cyclic_algebra_level3(lta):
    a = lta.operators["L1"]
    basis = [identity_operator(lta.chart)] + [PowerOperator(a, k) for k in range(1, 5)]
    rep = check_algebra(basis, 3, lta.domain, 40, 10, 1e-8)
    assert rep.commute_ok
    assert rep.module_closed
    assert rep.ring_closed


def test_single_diagonal_operator_level2():
    a = op_from_strings(CH2, [["x1", "0"], ["0", "x2"]])
    dom = SampleDomain(box=((0.5, 1.5), (0.5, 1.5)), seed=31)
    rep = check_algebra([a], 2, dom, 30, 10, 1e-8)
    assert rep.passed


def test_noncommuting_family_reported():
    a = op_from_strings(CH2, [["1", "1"], ["0", "2"]])
    b = op_from_strings(CH2, [["1", "0"], ["1", "2"]])
    dom = SampleDomain(box=((0.5, 1.5), (0.5, 1.5)), seed=37)
    rep = check_algebra([a, b], 2, dom, 10, 4, 1e-8)
    assert not rep.commute_ok
    assert not rep.passed


def test_ring_law_judges_every_generator_product():
    # x2 I and diag(1, 0) are torsion-free and commute; their product diag(x2, 0)
    # is not torsion-free, and one random draw would miss that pair
    a = op_from_strings(CH2, [["x2", "0"], ["0", "x2"]])
    b = op_from_strings(CH2, [["1", "0"], ["0", "0"]])
    dom = SampleDomain(box=((1, 2), (1, 2)), seed=0)
    reps = [check_algebra([a, b], 1, dom, 20, combos, 1e-8) for combos in (0, 1, 5)]
    for rep in reps:
        assert rep.commute_ok
        assert not rep.ring_closed
        assert rep.ring_worst == reps[0].ring_worst


def test_report_reproducible(lta):
    a = lta.operators["L1"]
    basis = [identity_operator(lta.chart), a]
    r1 = check_algebra(basis, 3, lta.domain, 20, 5, 1e-8)
    r2 = check_algebra(basis, 3, lta.domain, 20, 5, 1e-8)
    assert r1.module_worst == r2.module_worst
    assert r1.ring_worst == r2.ring_worst
    assert r1.combo_seed == r2.combo_seed
    assert r1.combo_seed == (lta.domain.seed * 2654435761 + 0x5EED) % (2 ** 63)


def test_commute_worst_is_the_scaled_commutator(lta):
    n = lta.chart.dim
    rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    rows[0][1] = "x1"  # I + x1 E_12 commutes with neither L1 nor L2
    family = [lta.operators["L1"], lta.operators["L2"], op_from_strings(lta.chart, rows)]
    pts = sample_points(lta.domain, 20)
    vals = [op.values_many(pts) for op in family]
    expected = max(commutator_oracle(vals[ia], vals[ib])
                   for ia in range(len(vals)) for ib in range(ia + 1, len(vals)))
    rep = check_algebra(family, 1, lta.domain, 20, 1, 1e-8)
    assert expected > 1e-8
    assert rep.commute_worst == expected
    assert not rep.commute_ok


@pytest.mark.parametrize("s", ["1/10000", "1", "10000"])
def test_a_scaled_pair_is_judged_by_its_own_scale(s):
    # A = s [[1, 1], [0, 2]] and B = s [[0, 0], [1, 0]]: AB - BA = s^2 [[1, 0],
    # [1, -1]] against max|A| max|B| = 2 s^2, residual 1/2 at every s
    a = op_from_strings(CH2, [[s, s], ["0", f"2*{s}"]])
    b = op_from_strings(CH2, [["0", "0"], [s, "0"]])
    dom = SampleDomain(box=((0.5, 1.5),) * 2, seed=3)
    rep = check_algebra([a, b], 1, dom, 10, 2, 1e-8)
    pts = sample_points(dom, 10)
    assert rep.commute_worst == pytest.approx(0.5, rel=1e-12)
    assert rep.commute_worst == commutator_oracle(a.values_many(pts), b.values_many(pts))
    assert not rep.commute_ok and not rep.passed
    assert rep.ring_worst == 0.0  # products of constant operators: T = 0 and dA = 0


def _whole_array_worsts(man, m, n_pts, n_combos, seed):
    """ring_worst and module_worst with every candidate 1-jet built over the
    whole sample first, by the same products and combinations, then judged by
    the same level-m walk."""
    domain = dataclasses.replace(man.domain, seed=seed)
    ops = [man.operators[name] for name in man.operators]
    pts = sample_points(domain, n_pts)
    jets = [op.jet_many(pts) for op in ops]

    def worst(jet):
        def candidates_at(part):
            yield jet[part], (level_image(*jet[part], m),)
        return candidate_verdicts(candidates_at, (m,), pts, seed, 1e-8)[0][0].max_residual

    ring = max(worst(a @ b) for a in jets for b in jets)
    rng = np.random.default_rng((seed * 2654435761 + 0x5EED) % (2 ** 63))
    module = 0.0
    for _ in range(n_combos):
        ia, ib = int(rng.integers(0, len(ops))), int(rng.integers(0, len(ops)))
        f, g = (scalar_jets_plan([random_combo_poly(man.chart, rng)], man.chart.dim)(pts)[:, 0]
                for _ in range(2))
        module = max(module, worst(scaled(f, jets[ia]) + scaled(g, jets[ib])))
    return ring, module


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("fixture", ["lfa1", "lta"])
def test_check_algebra_is_chunk_invariant(fixture, seed, request, monkeypatch):
    # candidates are combined chunk by chunk inside the walk: one point per
    # chunk, the default chunks and one chunk for the whole sample give the
    # same report, and the worsts of whole-array candidate jets judged by the
    # same level-m walk
    man = request.getfixturevalue(fixture)
    m, n_pts, n_combos = man.level, 90, 6
    domain = dataclasses.replace(man.domain, seed=seed)
    ops = [man.operators[name] for name in man.operators]
    reports = []
    for chunk_bytes in (1, fl.CHUNK_BYTES, 8 * n_pts * man.chart.dim ** 3):
        monkeypatch.setattr(fl, "CHUNK_BYTES", chunk_bytes)
        rep = check_algebra(ops, m, domain, n_pts, n_combos, 1e-8)
        reports.append(dataclasses.asdict(rep))
    assert reports[0] == reports[1] == reports[2]
    ring, module = _whole_array_worsts(man, m, n_pts, n_combos, seed)
    assert (reports[0]["ring_worst"], reports[0]["module_worst"]) == (ring, module)
    assert reports[0]["ring_closed"] and reports[0]["module_closed"]


@pytest.mark.parametrize("seed", [0, 3, 42])
@pytest.mark.parametrize("n", [1, 5, 7])
def test_combination_jets_equal_the_symbolic_reference(n, seed):
    # the numeric draws consume the generator as the expression trees do, and
    # their jets are the reference plan's columns bit for bit, signed zeros
    # included; the draws cover x_i^2, single-term polynomials and c = 1
    chart, count = Chart(n), 100
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    polys = [alg._draw_combo_poly(n, rng) for _ in range(count)]
    exprs = [random_combo_poly(chart, ref_rng) for _ in range(count)]
    assert rng.integers(0, 2 ** 62) == ref_rng.integers(0, 2 ** 62)
    terms = [t for _, ts in polys for t in ts]
    assert any(i == j for _, i, j in terms)
    assert any(len(ts) == 1 for _, ts in polys)
    assert any(c == 1 for c, _, _ in terms)
    pts = np.random.default_rng(seed + 1).uniform(-2, 2, size=(31, n))
    pts[0] = 0.0
    pts[1] = -0.0
    cols = alg._combo_jets_plan(polys, n)(pts)
    want = scalar_jets_plan(exprs, n)(pts)
    assert cols.shape == want.shape == (31, count, n + 1)
    assert cols.tobytes() == want.tobytes()


def test_no_combinations_leave_the_ring_law_alone(lfa1):
    # with no draws the coefficient block is empty, the module law holds
    # vacuously and the ring law is judged as with draws
    pts = sample_points(lfa1.domain, 5)
    n = lfa1.chart.dim
    assert alg._combo_jets_plan([], n)(pts).tobytes() == scalar_jets_plan([], n)(pts).tobytes()
    assert alg._combo_jets_plan([], n)(pts).shape == (5, 0, n + 1)
    ops = [lfa1.operators[name] for name in lfa1.operators]
    rep = check_algebra(ops, lfa1.level, lfa1.domain, 20, 0, 1e-8)
    ring, _ = _whole_array_worsts(lfa1, lfa1.level, 20, 0, lfa1.domain.seed)
    assert (rep.module_closed, rep.module_worst, rep.ring_worst) == (True, 0.0, ring)
    assert rep.ring_worst == check_algebra(ops, lfa1.level, lfa1.domain, 20, 3, 1e-8).ring_worst


def test_check_algebra_does_no_coefficient_expression_work_in_the_walk(lfa1, monkeypatch):
    # the coefficients are drawn as numbers: evaluations and derivatives of
    # expressions do not grow with the draws or with the number of chunks
    import sys

    import torsionlab.expr as ex

    counts = {"eval_many": 0, "diff": 0}
    for name in counts:
        orig = getattr(ex, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "torsionlab" and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    ops = [lfa1.operators[name] for name in sorted(lfa1.operators)]
    check_algebra(ops, lfa1.level, lfa1.domain, 12, 1, 1e-8)  # build the cached plans
    seen = []
    for chunk_bytes in (fl.CHUNK_BYTES, 1):
        monkeypatch.setattr(fl, "CHUNK_BYTES", chunk_bytes)
        for combos in (1, 50):
            counts.update(eval_many=0, diff=0)
            check_algebra(ops, lfa1.level, lfa1.domain, 12, combos, 1e-8)
            seen.append(dict(counts))
    assert all(c == seen[0] for c in seen), seen


@pytest.mark.parametrize("source", ["random", "lfa1", "lta"])
def test_scalar_rule_matches_the_entrywise_product_rule(source, request):
    # every composite kind, its scalar factors taken by the one GEMM rule,
    # against f A and grad f (x) A + f dA entrywise (and einsum products),
    # per point; its value-only jet is the first row of its 1-jet, bit for bit
    if source == "random":
        rng = np.random.default_rng(103)
        chart = CH3
        a, b = random_operator(chart, rng), random_operator(chart, rng)
        pts = rng.uniform(0.5, 1.5, size=(23, 3))
    else:
        man = request.getfixturevalue(source)
        rng = np.random.default_rng(107)
        chart = man.chart
        a, b = (man.operators[name] for name in sorted(man.operators)[:2])
        pts = sample_points(man.domain, 23)
    f, g, h = (random_combo_poly(chart, rng) for _ in range(3))
    composites = [LinCombOperator(chart, ((f, a), (g, b))),
                  LinCombOperator(chart, ((f, a), (g, a), (h, ProductOperator(a, b)))),
                  ProductOperator(a, b),
                  PolyOperator(a, (g, f, const(0), h)),
                  PowerOperator(b, 3)]
    for op in composites:
        vals, derivs = op.jet_many(pts)
        want_vals, want_derivs = composite_jet_reference(op, pts)
        for p in range(len(pts)):
            assert rel_err(vals[p], want_vals[p]) <= 1e-14
            assert rel_err(derivs[p], want_derivs[p]) <= 1e-14
        assert op.values_many(pts).tobytes() == vals.tobytes()


def test_check_algebra_memory_does_not_grow_with_candidate_jets(lfa1):
    # one chunk-major walk combines every candidate from generator jets
    # expanded per chunk, so the peak grows by the sample and the
    # generators' point-dependent columns, not by k whole (N, n^2 + n^3)
    # generator 1-jets
    ops = [lfa1.operators[name] for name in sorted(lfa1.operators)]
    n, k = lfa1.chart.dim, len(ops)
    check_algebra(ops, lfa1.level, lfa1.domain, 20, 2, 1e-8)  # build the cached plans
    sizes, peaks = (200, 2000), []
    for n_pts in sizes:
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            check_algebra(ops, lfa1.level, lfa1.domain, n_pts, 5, 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - base)
    assert peaks[1] - peaks[0] < 0.25 * (sizes[1] - sizes[0]) * 8 * k * (n ** 2 + n ** 3)


def _peak_growth(run, sizes):
    """Traced peak allocation of ``run(n_pts)`` at each size, run once first
    at the smallest size to build the cached plans."""
    run(sizes[0])
    peaks = []
    for n_pts in sizes:
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            run(n_pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - base)
    return peaks


def test_preservation_memory_does_not_grow_with_the_whole_jets(lta):
    # A and P(A) are judged chunk by chunk, and the identity residual is a
    # running maximum, so the peak does not grow by whole (N, n^2 + n^3)
    # jets of A and P(A) and their level-m tensors
    a, n = lta.operators["L1"], lta.chart.dim
    p = PolySpec((Var(4), Var(0), const(1)))  # x5 + x1 z + z^2
    sizes = (1000, 4000)
    peaks = _peak_growth(
        lambda n_pts: check_polynomial_preservation(a, p, 3, lta.domain, n_pts, 1e-8), sizes)
    assert peaks[1] - peaks[0] < 0.25 * (sizes[1] - sizes[0]) * 8 * (n ** 2 + n ** 3)


def test_bezout_identity_memory_does_not_grow_with_the_whole_jets(lta):
    a, n = lta.operators["L1"], lta.chart.dim
    p = PolySpec((Var(4), Var(0), const(1)))
    sizes = (1000, 4000)
    samples = {n_pts: sample_points(lta.domain, n_pts) for n_pts in sizes}
    peaks = _peak_growth(
        lambda n_pts: alg.bezout_identity_residual(a, p, 3, samples[n_pts]), sizes)
    assert peaks[1] - peaks[0] < 0.25 * (sizes[1] - sizes[0]) * 8 * (n ** 2 + n ** 3)


def test_check_algebra_memory_does_not_grow_with_composite_generator_jets(lta):
    # a composite generator's jet is evaluated chunk by chunk too
    l1, n = lta.operators["L1"], lta.chart.dim
    ops = [l1, PowerOperator(l1, 2)]
    sizes = (1000, 4000)
    peaks = _peak_growth(
        lambda n_pts: check_algebra(ops, 3, lta.domain, n_pts, 2, 1e-8), sizes)
    assert peaks[1] - peaks[0] < 0.25 * (sizes[1] - sizes[0]) * 8 * (n ** 2 + n ** 3)


def test_check_algebra_rejects_a_negative_combination_count(lta):
    ops = list(lta.operators.values())
    with pytest.raises(ValueError, match="n_random_combos"):
        check_algebra(ops, 3, lta.domain, 3, -1, 1e-8)
    assert check_algebra(ops, 3, lta.domain, 3, 0, 1e-8).n_combos == 0


# ---------------------------------------------------------------------------
# cyclic bases
# ---------------------------------------------------------------------------

def test_cyclic_basis_exponents(lta, lfa1):
    p5 = sample_points(lta.domain, 1)[0]
    assert cyclic_basis(lta.operators["L1"], p5, lta.tolerances["cluster"]) == [0, 1, 2, 3, 4]
    p7 = sample_points(lfa1.domain, 1)[0]
    assert cyclic_basis(lfa1.operators["K1"], p7, lfa1.tolerances["cluster"]) == list(range(7))
    assert cyclic_basis(identity_operator(CH3), (0.2, 0.4, 0.8)) == [0]
