"""Representation calculus, Bezout quotients and closure-law checks."""

import numpy as np
import pytest

from helpers import random_operator, random_poly_expr, rel_err
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
from torsionlab.errors import PreconditionError
from torsionlab.expr import Chart, SampleDomain, Var, const, eval_at, parse_expr, sample_points
from torsionlab.fields import (
    OperatorField,
    PowerOperator,
    TorsionTensor,
    identity_operator,
    is_vanishing,
    torsion_at,
    torsion_many,
)

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


# ---------------------------------------------------------------------------
# Bezout quotient
# ---------------------------------------------------------------------------

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


def test_report_reproducible(lta):
    a = lta.operators["L1"]
    basis = [identity_operator(lta.chart), a]
    r1 = check_algebra(basis, 3, lta.domain, 20, 5, 1e-8)
    r2 = check_algebra(basis, 3, lta.domain, 20, 5, 1e-8)
    assert r1.module_worst == r2.module_worst
    assert r1.ring_worst == r2.ring_worst
    assert r1.combo_seed == r2.combo_seed


# ---------------------------------------------------------------------------
# cyclic bases
# ---------------------------------------------------------------------------

def test_cyclic_basis_exponents(lta, lfa1):
    p5 = sample_points(lta.domain, 1)[0]
    assert cyclic_basis(lta.operators["L1"], p5, lta.tolerances["cluster"]) == [0, 1, 2, 3, 4]
    p7 = sample_points(lfa1.domain, 1)[0]
    assert cyclic_basis(lfa1.operators["K1"], p7, lfa1.tolerances["cluster"]) == list(range(7))
    assert cyclic_basis(identity_operator(CH3), (0.2, 0.4, 0.8)) == [0]
