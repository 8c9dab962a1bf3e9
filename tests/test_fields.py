"""Lie brackets, operator application and the generalized torsion tower."""

import numpy as np
import pytest

from helpers import (
    basis_field,
    haantjes_oracle,
    nijenhuis_oracle,
    random_operator,
    random_poly_expr,
    rel_err,
)
from torsionlab.errors import ChainConditionError, ChartMismatchError, EvalDomainError
from torsionlab.expr import Chart, SampleDomain, Var, const, parse_expr, sample_points
from torsionlab.fields import (
    LinCombOperator,
    OperatorField,
    PolyOperator,
    PowerOperator,
    ProductOperator,
    VectorFieldExpr,
    apply,
    eigenchain_formula_rhs,
    identity_operator,
    is_vanishing,
    level_up,
    lie_bracket,
    nijenhuis_at,
    torsion_at,
    torsion_many,
)

CH2 = Chart(2)
CH3 = Chart(3)
CH5 = Chart(5)


def op_from_strings(chart, rows):
    return OperatorField(chart, tuple(tuple(parse_expr(s, chart) for s in row) for row in rows))


# ---------------------------------------------------------------------------
# brackets and application
# ---------------------------------------------------------------------------

def test_coordinate_fields_commute():
    b = lie_bracket(basis_field(CH3, 0), basis_field(CH3, 1))
    assert all(c == const(0) for c in b.components)


def test_bracket_frozen_example():
    # [x1 d/dx2, d/dx1] = -d/dx2
    x = VectorFieldExpr(CH2, (const(0), Var(0)))
    y = basis_field(CH2, 0)
    b = lie_bracket(x, y)
    assert b.components == (const(0), const(-1))


def test_bracket_antisymmetry_at_points():
    rng = np.random.default_rng(5)
    dom = SampleDomain(box=((0.5, 1.5),) * 3, seed=9)
    pts = sample_points(dom, 20)
    for _ in range(5):
        x = VectorFieldExpr(CH3, tuple(random_poly_expr(CH3, rng) for _ in range(3)))
        y = VectorFieldExpr(CH3, tuple(random_poly_expr(CH3, rng) for _ in range(3)))
        total = lie_bracket(x, y).eval_many(pts) + lie_bracket(y, x).eval_many(pts)
        assert np.max(np.abs(total)) <= 1e-10


def test_bracket_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        lie_bracket(basis_field(CH2, 0), basis_field(CH3, 0))


def test_apply_identity():
    rng = np.random.default_rng(1)
    x = VectorFieldExpr(CH3, tuple(random_poly_expr(CH3, rng) for _ in range(3)))
    assert apply(identity_operator(CH3), x).components == x.components


def test_apply_diagonal_scales_basis_fields():
    a = op_from_strings(CH2, [["x1", "0"], ["0", "x2"]])
    out = apply(a, basis_field(CH2, 1))
    assert out.components == (const(0), Var(1))


def test_apply_matches_eigenvector_relation(lta):
    # the (f1 + 1)-eigenvector of the 5-dim family: d1 + 2 d2 - d4
    chart = lta.chart
    family = op_from_strings(chart, [
        ["x1", "1", "0", "1", "0"],
        ["x1 - x3 + 1", "x1 + 1", "-x3", "x1 - x3 + 1", "-x3"],
        ["1", "0", "x3 + x3", "1", "x3"],
        ["x3 - x1", "-1", "x3", "x3 - 1", "x3"],
        ["-1", "0", "-x3 - 1", "-1", "x3 - x3 - 1"],
    ])  # f1 = x1, f2 = x3, f3 = x3
    vec = VectorFieldExpr(chart, tuple(map(const, (1, 2, 0, -1, 0))))
    image = apply(family, vec)
    lam = parse_expr("x1 + 1", chart)
    pts = sample_points(lta.domain, 20)
    got = image.eval_many(pts)
    from torsionlab.expr import eval_many
    expect = eval_many(lam, pts)[:, None] * vec.eval_many(pts)
    assert rel_err(got, expect) <= 1e-9


# ---------------------------------------------------------------------------
# level-1 torsion
# ---------------------------------------------------------------------------

def test_constant_operator_has_zero_torsion():
    a = op_from_strings(CH3, [["1", "2", "3"], ["0", "1", "5"], ["2", "0", "1"]])
    t = nijenhuis_at(a, (0.3, -0.2, 1.1))
    assert t.max_abs == 0.0


def test_nijenhuis_frozen_values_diag():
    # diag(x2, x1) at (1, 2): oracle-derived components are exactly 1
    a = op_from_strings(CH2, [["x2", "0"], ["0", "x1"]])
    t = nijenhuis_at(a, (1.0, 2.0))
    assert t.components[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
    assert t.components[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
    oracle = nijenhuis_oracle(a, (1.0, 2.0))
    assert np.max(np.abs(t.components - oracle)) <= 1e-12


def test_nijenhuis_scalar_multiple_of_identity():
    # f I has zero torsion for constant f; matches the oracle for f = x1
    const_op = op_from_strings(CH2, [["3", "0"], ["0", "3"]])
    assert nijenhuis_at(const_op, (0.7, 0.4)).max_abs == 0.0
    a = op_from_strings(CH2, [["x1", "0"], ["0", "x1"]])
    p = (1.3, -0.8)
    oracle = nijenhuis_oracle(a, p)
    got = nijenhuis_at(a, p).components
    assert np.max(np.abs(got - oracle)) <= 1e-12


def test_nijenhuis_matches_oracle_random(lta):
    rng = np.random.default_rng(23)
    for dim in (2, 3, 4):
        chart = Chart(dim)
        for _ in range(3):
            a = random_operator(chart, rng)
            p = rng.uniform(0.5, 1.5, size=dim)
            got = nijenhuis_at(a, p).components
            assert np.max(np.abs(got - nijenhuis_oracle(a, p))) <= 1e-10


# ---------------------------------------------------------------------------
# level-up recursion
# ---------------------------------------------------------------------------

def test_level_up_preserves_zero():
    a = op_from_strings(CH3, [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]])
    p = (0.1, 0.2, 0.3)
    t1 = nijenhuis_at(a, p)
    t2 = level_up(t1, a.at(p))
    assert t2.level == 2
    assert t2.max_abs == 0.0


def test_level_up_matches_haantjes_oracle():
    rng = np.random.default_rng(31)
    for _ in range(4):
        a = random_operator(CH3, rng)
        p = rng.uniform(0.5, 1.5, size=3)
        t2 = level_up(nijenhuis_at(a, p), a.at(p))
        oracle = haantjes_oracle(a, p)
        assert rel_err(t2.components, oracle) <= 1e-10


def test_diagonal_operator_is_level2_vanishing():
    # diagonal operator with eigenvalue fields x^i: Haantjes torsion vanishes
    a = op_from_strings(CH3, [["x1", "0", "0"], ["0", "x2", "0"], ["0", "0", "x3"]])
    dom = SampleDomain(box=((0.5, 1.5),) * 3, seed=3)
    for p in sample_points(dom, 10):
        t2 = torsion_at(a, 2, p)
        assert t2.max_abs <= 1e-12
        t3 = torsion_at(a, 3, p)
        assert t3.max_abs <= 1e-12


def test_torsion_many_matches_oracles_pointwise():
    # one batch of distinct points: a kernel that mixed up points fails here
    rng = np.random.default_rng(37)
    a = random_operator(CH3, rng)
    pts = rng.uniform(0.5, 1.5, size=(6, 3))
    for m, oracle in ((1, nijenhuis_oracle), (2, haantjes_oracle)):
        batch = torsion_many(a, m, pts)
        for p, got in zip(pts, batch):
            assert rel_err(got, oracle(a, p)) <= 1e-10


def test_tower_overflow_is_an_error():
    # finite entries whose level-1 torsion c^2 (x2 - x1) overflows
    c = const(10 ** 200)
    a = OperatorField(CH2, ((c * Var(1), const(0)), (const(0), c * Var(0))))
    dom = SampleDomain(box=((0.5, 1.5),) * 2, seed=3)
    first = tuple(sample_points(dom, 1)[0].tolist())
    with pytest.warns(RuntimeWarning), \
            pytest.raises(EvalDomainError, match="torsion is not finite") as info:
        is_vanishing(a, 1, dom, 5, 1e-8)
    assert str(first) in str(info.value)


def test_torsion_level_consistency_regression():
    rng = np.random.default_rng(47)
    a = random_operator(CH3, rng)
    p = rng.uniform(0.5, 1.5, size=3)
    for m in range(1, 5):
        tm = torsion_at(a, m, p)
        tn = level_up(tm, a.at(p))
        direct = torsion_at(a, m + 1, p)
        assert np.array_equal(tn.components, direct.components)


def test_torsion_skew_symmetry_exact():
    rng = np.random.default_rng(53)
    a = random_operator(CH3, rng)
    pts = rng.uniform(0.5, 1.5, size=(6, 3))
    for m in (1, 2, 3):
        t = torsion_many(a, m, pts)
        assert np.array_equal(t, -t.swapaxes(2, 3))


# ---------------------------------------------------------------------------
# fixture torsion levels
# ---------------------------------------------------------------------------

def test_lta_family_levels(lta):
    chart = lta.chart
    family = op_from_strings(chart, [
        ["x1", "1", "0", "1", "0"],
        ["x1 - x3 + 1", "x1 + 1", "-x3", "x1 - x3 + 1", "-x3"],
        ["1", "0", "2*x3", "1", "x3"],
        ["x3 - x1", "-1", "x3", "x3 - 1", "x3"],
        ["-1", "0", "-x3 - 1", "-1", "-1"],
    ])  # f1 = x1, f2 = x3, f3 = x3
    r3 = is_vanishing(family, 3, lta.domain, 200, 1e-8)
    assert r3.vanishing
    r2 = is_vanishing(family, 2, lta.domain, 200, 1e-8)
    assert not r2.vanishing
    assert r2.max_residual > 1e-3


def test_lfa1_family_levels(lfa1):
    k1 = lfa1.operators["K1"]
    assert is_vanishing(k1, 4, lfa1.domain, 60, 1e-8).vanishing
    r3 = is_vanishing(k1, 3, lfa1.domain, 60, 1e-8)
    assert not r3.vanishing
    assert r3.max_residual > 1e-3


def test_identity_is_level1_vanishing():
    dom = SampleDomain(box=((0.5, 1.5),) * 3, seed=5)
    rep = is_vanishing(identity_operator(CH3), 1, dom, 20, 1e-8)
    assert rep.vanishing


# ---------------------------------------------------------------------------
# composite operators carry correct jets
# ---------------------------------------------------------------------------

def test_composite_jets_match_symbolic():
    rng = np.random.default_rng(61)
    a = random_operator(CH3, rng)
    pts = rng.uniform(0.5, 1.5, size=(5, 3))
    f, g = random_poly_expr(CH3, rng), random_poly_expr(CH3, rng)

    # f*A + g*A^2 assembled two ways: jet calculus vs expanded symbolic matrix
    composite = LinCombOperator(CH3, ((f, a), (g, ProductOperator(a, a))))
    sym_entries = []
    for i in range(3):
        row = []
        for j in range(3):
            sq = const(0)
            for d in range(3):
                sq = sq + a.entries[i][d] * a.entries[d][j]
            row.append(f * a.entries[i][j] + g * sq)
        sym_entries.append(tuple(row))
    symbolic = OperatorField(CH3, tuple(sym_entries))

    v1, d1 = composite.jet_many(pts)
    v2, d2 = symbolic.jet_many(pts)
    assert rel_err(v1, v2) <= 1e-12
    assert rel_err(d1, d2) <= 1e-12

    power = PowerOperator(a, 3)
    chain = ProductOperator(ProductOperator(a, a), a)
    v1, d1 = power.jet_many(pts)
    v2, d2 = chain.jet_many(pts)
    assert rel_err(v1, v2) <= 1e-12
    assert rel_err(d1, d2) <= 1e-12

    poly = PolyOperator(a, (const(0), f, g))
    v1, d1 = poly.jet_many(pts)
    v2, d2 = composite.jet_many(pts)
    assert rel_err(v1, v2) <= 1e-12
    assert rel_err(d1, d2) <= 1e-12


# ---------------------------------------------------------------------------
# generalized eigenvector formula
# ---------------------------------------------------------------------------

def test_eigenchain_constant_operator_gives_zero():
    a = op_from_strings(CH2, [["2", "1"], ["0", "3"]])
    x = basis_field(CH2, 0)   # proper eigenvector, eigenvalue 2
    chain = (const(2), [x])
    y = VectorFieldExpr(CH2, (const(1), const(1)))  # eigenvector for 3? no: check
    # use the (3)-eigenvector (1, 1): A(1,1) = (3, 3)
    chain_y = (const(3), [y])
    rhs = eigenchain_formula_rhs(a, chain, chain_y, 2, (0.4, 0.6))
    assert np.max(np.abs(rhs)) <= 1e-12


def test_eigenchain_jordan_block_matches_contraction():
    a = op_from_strings(CH2, [["x1", "1"], ["0", "x1"]])
    mu = Var(0)
    x1 = basis_field(CH2, 0)
    x2 = basis_field(CH2, 1)
    chain = (mu, [x1, x2])
    p = (1.3, 0.7)
    for m in (2, 3):
        rhs = eigenchain_formula_rhs(a, chain, (mu, [x1]), m, p)
        t = torsion_at(a, m, p)
        contraction = np.einsum("ijk,j,k->i", t.components, x2.at(p), x1.at(p))
        assert rel_err(rhs, contraction) <= 1e-10


def test_eigenchain_lta_d4_chain(lta):
    spec = lta.chains["D4"]
    for name in ("L1", "L2"):
        a = lta.operators[name]
        mu = spec.eigenvalue[name]
        x1, x2 = spec.fields
        pts = sample_points(lta.domain, 3)
        for p in pts:
            for m in (2, 3):
                rhs = eigenchain_formula_rhs(a, (mu, [x1, x2]), (mu, [x1]), m, p)
                t = torsion_at(a, m, p)
                contraction = np.einsum("ijk,j,k->i", t.components, x2.at(p), x1.at(p))
                assert rel_err(rhs, contraction) <= 1e-8


def test_eigenchain_rejects_broken_chain():
    a = op_from_strings(CH2, [["x1", "1"], ["0", "x1"]])
    bad_chain = (Var(0), [basis_field(CH2, 1)])  # not an eigenvector
    with pytest.raises(ChainConditionError):
        eigenchain_formula_rhs(a, bad_chain, bad_chain, 2, (1.0, 1.0))


# ---------------------------------------------------------------------------
# affine scaling identity
# ---------------------------------------------------------------------------

def test_affine_scaling_of_level2():
    rng = np.random.default_rng(71)
    for dim in (3, 4):
        chart = Chart(dim)
        for _ in range(3):
            a = random_operator(chart, rng)
            f, g = random_poly_expr(chart, rng), random_poly_expr(chart, rng)
            combo = LinCombOperator(chart, ((f, identity_operator(chart)), (g, a)))
            pts = rng.uniform(0.5, 1.5, size=(5, dim))
            t_a = torsion_many(a, 2, pts)
            t_c = torsion_many(combo, 2, pts)
            from torsionlab.expr import eval_many
            g4 = eval_many(g, pts) ** 4
            assert rel_err(t_c, g4[:, None, None, None] * t_a) <= 1e-9
