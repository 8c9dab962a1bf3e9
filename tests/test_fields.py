"""Lie brackets, operator application and the generalized torsion tower."""

import functools
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    basis_field,
    bounded_err,
    chain_bound,
    haantjes_oracle,
    jet_reference,
    level_up_oracle,
    nijenhuis_oracle,
    random_operator,
    random_poly_expr,
    rel_err,
    relative_oracle,
    rescaled_domain,
    rescaled_operator,
    scalar_jet_reference,
    stacked_jet,
    tower_bound,
    vanishing_report,
)
import torsionlab.fields as fl
from torsionlab.algebra import TriPoly, rep_apply
from torsionlab.errors import (
    ChainConditionError,
    ChartMismatchError,
    ConstantRangeError,
    DimensionMismatchError,
    EvalDomainError,
    SingularityError,
    TorsionLabError,
)
from torsionlab.expr import (
    Add,
    Cbrt,
    Chart,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    SampleDomain,
    Sqrt,
    Sub,
    Var,
    add,
    const,
    diff,
    mul,
    parse_expr,
    sample_points,
)
from torsionlab.fields import (
    CHUNK_BYTES,
    Jet,
    LinCombOperator,
    OperatorAtPoint,
    OperatorField,
    PolyOperator,
    PowerOperator,
    ProductOperator,
    VectorFieldExpr,
    apply,
    candidate_verdicts,
    eigenchain_formula_rhs,
    identity_operator,
    is_vanishing,
    TorsionTensor,
    level_image,
    level_up,
    lie_bracket,
    nijenhuis_at,
    nijenhuis_from_jets,
    scalar_jets_plan,
    scaled,
    sigma_power,
    slot_action,
    torsion_at,
    torsion_many,
    tower,
    tower_verdicts,
)
from torsionlab.manifest import fixture_path, load_manifest

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


def test_sigma_power_step_matches_definition_oracle(lfa1):
    # 9 distinct random points per dimension, a skew tower tensor and a
    # non-skew one: the step is the skew part of R_sigma T for any T
    rng = np.random.default_rng(59)
    for n in (3, 5, 7):
        vals = rng.uniform(-2.0, 2.0, size=(9, n, n))
        derivs = rng.uniform(-2.0, 2.0, size=(9, n, n, n))
        for t in (nijenhuis_from_jets(vals, derivs), rng.standard_normal((9, n, n, n))):
            got = sigma_power(t, vals, 1)
            want = level_up_oracle(t, vals)
            want = (want - want.swapaxes(2, 3)) / 2
            for g, w in zip(got, want):
                assert rel_err(g, w) <= 1e-13
            assert np.array_equal(got, -got.swapaxes(2, 3))
    # the tower's level-up is R_sigma of the general kernel, level by level
    k1 = lfa1.operators["K1"]
    pts = sample_points(lfa1.domain, 5)
    vals, derivs = k1.jet_many(pts)
    levels = list(tower(vals, derivs, 4))
    for p, point in enumerate(pts):
        ap = OperatorAtPoint(vals[p], point)
        for m in (1, 2, 3):
            image = rep_apply(TriPoly.sigma(), TorsionTensor(m, point, levels[m - 1][p]), ap)
            # level 4 vanishes: both sides are roundoff of the level's bound
            bound = tower_bound(vals[p:p + 1], derivs[p:p + 1], m + 1)[0]
            assert bounded_err(levels[m][p], image.components, bound) <= 1e-12


def _nijenhuis_definition(vals, derivs):
    """T^i_jk = D^i_jk - D^i_kj, D^i_jk = A^l_j d_l A^i_k - A^i_l d_j A^l_k, by einsum."""
    d = (np.einsum("plj,plik->pijk", vals, derivs)
         - np.einsum("pil,pjlk->pijk", vals, derivs))
    return d - d.swapaxes(2, 3)


def test_sigma_power_matches_chained_definition_oracle():
    # 6 distinct random points per case, T not skew: k unskewed steps of
    # level_up_oracle, then the skew part, against the factored power, which
    # leaves its input as it was.  The error is relative to R_sigma^k T, not
    # to its skew part, which cancels to roundoff for n = 2 and k >= 2.
    rng = np.random.default_rng(107)
    for n in (2, 3, 5, 7):
        vals = rng.uniform(-2.0, 2.0, size=(6, n, n))
        t = rng.standard_normal((6, n, n, n))
        before = t.copy()
        want = t
        for k in range(1, 5):
            want = level_up_oracle(want, vals)
            got = sigma_power(t, vals, k)
            for g, w in zip(got, want):
                skew = (w - w.swapaxes(1, 2)) / 2
                assert np.max(np.abs(g - skew)) <= 1e-13 * max(1.0, np.max(np.abs(w)))
            assert np.array_equal(got, -got.swapaxes(2, 3))
            assert t.tobytes() == before.tobytes()


def test_level_image_matches_the_chained_definition_oracle():
    # 7 distinct random points per case: T^(m) from the einsum definition of
    # T^(1) and m - 1 steps of level_up_oracle, each made skew, against the
    # factored image, which is made skew once; and against the tower's top
    rng = np.random.default_rng(97)
    for n in (3, 5, 7):
        vals = rng.uniform(-2.0, 2.0, size=(7, n, n))
        derivs = rng.uniform(-2.0, 2.0, size=(7, n, n, n))
        want = _nijenhuis_definition(vals, derivs)
        top = None
        for m, level in zip(range(1, 6), tower(vals, derivs, 5)):
            if m > 1:
                want = level_up_oracle(want, vals)
                want = (want - want.swapaxes(2, 3)) / 2
            got = level_image(vals, derivs, m)
            for g, w, t in zip(got, want, level):
                assert rel_err(g, w) <= 1e-13
                assert rel_err(g, t) <= 1e-13
            assert np.array_equal(got, -got.swapaxes(2, 3))
            if m <= 2:  # the same operations as the tower's first step
                assert got.tobytes() == level.tobytes()
            top = got
        assert np.abs(top).max() > 0
    with pytest.raises(ValueError):
        level_image(vals, derivs, 0)


def test_level_max_is_the_point_max_of_a_skew_level():
    # bitwise, on tower levels, on levels that are all zero (where max T
    # reads -0.0) and on levels holding an infinity or a NaN (whose sign bit
    # max T may keep)
    rng = np.random.default_rng(101)
    n = 4
    vals = rng.uniform(-2.0, 2.0, size=(9, n, n))
    derivs = rng.uniform(-2.0, 2.0, size=(9, n, n, n))
    levels = list(tower(vals, derivs, 3))
    zero = np.zeros((5, n, n, n))
    zero[1::2] = -0.0
    levels.append(zero)
    odd = levels[0].copy()
    odd[0, 1, 2, 3], odd[0, 1, 3, 2] = np.inf, -np.inf
    odd[1, 0, 0, 1] = odd[1, 0, 1, 0] = np.nan
    odd[2, n - 1, n - 1, n - 2] = odd[2, n - 1, n - 2, n - 1] = -np.nan
    levels.append(odd)
    for level in levels:
        assert fl._level_max(level).tobytes() == fl._point_max(level).tobytes()


def test_slot_action_contracts_one_index():
    # out[p, .., x, ..] = sum_l mat[p, x, l] t[p, .., l, ..] at each axis;
    # Z, Lambda and M commute
    rng = np.random.default_rng(83)
    specs = {1: "pxl,pljk->pxjk", 2: "pxl,pilk->pixk", 3: "pxl,pijl->pijx"}
    for n in (2, 3, 5):
        t = rng.standard_normal((4, n, n, n))
        mat = rng.standard_normal((4, n, n))
        for axis, spec in specs.items():
            got = slot_action(mat, t, axis)
            assert rel_err(got, np.einsum(spec, mat, t)) <= 1e-14
        z = lambda u: slot_action(mat, u, 1)
        lam = lambda u: slot_action(mat.swapaxes(1, 2), u, 2)
        mu = lambda u: slot_action(mat.swapaxes(1, 2), u, 3)
        for f, g in ((z, lam), (z, mu), (lam, mu)):
            assert rel_err(f(g(t)), g(f(t))) <= 1e-13
    with pytest.raises(ValueError, match="slot axis"):
        slot_action(mat, t, 0)


def test_sigma_power_peak_memory():
    # one call holds at most three (N, n, n, n) arrays, its result included,
    # for one step and for several
    rng = np.random.default_rng(61)
    t = rng.standard_normal((2000, 7, 7, 7))
    vals = rng.standard_normal((2000, 7, 7))
    for k in (1, 3):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sigma_power(t, vals, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * t.nbytes * 1.05


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3, 5, 7]), n_pts=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_tower_commutes_with_point_order(n, n_pts, seed, data):
    # reordering the points reorders every level bit for bit
    perm = np.array(data.draw(st.permutations(range(n_pts))))
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-2.0, 2.0, size=(n_pts, n, n))
    derivs = rng.uniform(-2.0, 2.0, size=(n_pts, n, n, n))
    moved = tower(vals[perm], derivs[perm], 4)
    for whole, part in zip(tower(vals, derivs, 4), moved, strict=True):
        assert np.array_equal(whole[perm], part)


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


def test_tower_yields_every_level(lfa1):
    k1 = lfa1.operators["K1"]
    pts = sample_points(lfa1.domain, 12)
    levels = list(tower(*k1.jet_many(pts), 4))
    assert len(levels) == 4
    for m, torsions in enumerate(levels, start=1):
        assert np.array_equal(torsions, torsion_many(k1, m, pts))
    with pytest.raises(ValueError):
        torsion_many(k1, 0, pts)


def test_one_walk_matches_separate_verdicts(lta):
    # the lower levels of one walk are bitwise the reports of separate sweeps
    for op in lta.operators.values():
        top = is_vanishing(op, 3, lta.domain, 200, 1e-8)
        reports = (*top.lower, top)
        assert [r.level for r in reports] == [1, 2, 3]
        for rep in reports:
            alone = is_vanishing(op, rep.level, lta.domain, 200, 1e-8)
            assert rep.max_residual == alone.max_residual
            assert rep.vanishing == alone.vanishing
            assert np.array_equal(rep.worst_point, alone.worst_point)
            assert (rep.n_points, rep.seed) == (alone.n_points, alone.seed)
            assert [r.level for r in alone.lower] == list(range(1, rep.level))


def test_given_sample_judges_as_a_fresh_draw(lta):
    op = lta.operators["L2"]
    pts = sample_points(lta.domain, 50)
    drawn = is_vanishing(op, 3, lta.domain, 50, 1e-8)
    given_pts = is_vanishing(op, 3, lta.domain, 50, 1e-8, pts=pts)
    for a, b in zip((*drawn.lower, drawn), (*given_pts.lower, given_pts)):
        assert (a.level, a.max_residual, a.vanishing) == (b.level, b.max_residual, b.vanishing)
        assert np.array_equal(a.worst_point, b.worst_point)
    with pytest.raises(DimensionMismatchError, match=r"got shape \(49, 5\)"):
        is_vanishing(op, 3, lta.domain, 50, 1e-8, pts=pts[:49])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3, 5, 7]),
       size=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 2)]),
       flat=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_chunked_verdicts_equal_whole_tower_verdicts(n, size, flat, seed):
    # N around the chunk boundaries: a dropped tail chunk or an argmax taken
    # within one chunk changes a report; a flat jet has a zero tower, so every
    # level vanishes and the worst point is the first one
    step = max(1, CHUNK_BYTES // (8 * n ** 3))
    n_pts = size[0] * step + size[1]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.5, 1.5, size=(n_pts, n))
    vals = rng.uniform(-2.0, 2.0, size=(n_pts, n, n))
    derivs = rng.uniform(-2.0, 2.0, size=(n_pts, n, n, n)) * (0.0 if flat else 1.0)
    chunked = tower_verdicts(stacked_jet(vals, derivs).__getitem__, 4, pts, seed, 1e-8)
    whole = [vanishing_report(t, vals, derivs, level, pts, seed, 1e-8)
             for level, t in enumerate(tower(vals, derivs, 4), start=1)]
    assert len(chunked) == len(whole) == 4
    for got, want in zip(chunked, whole):
        assert (got.level, got.n_points, got.seed) == (want.level, want.n_points, want.seed)
        assert got.max_residual == want.max_residual
        assert got.vanishing == want.vanishing
        assert got.vanishing or not flat
        assert np.array_equal(got.worst_point, want.worst_point)


def test_chunked_walk_names_the_lowest_non_finite_level():
    # level 1 is non-finite only at a point of the last chunk; a point of the
    # first chunk overflows only from level 2 on.  Judging chunk by chunk would
    # name level 2 at the early point; the walk over all points names level 1.
    n = 3
    step = CHUNK_BYTES // (8 * n ** 3)
    rng = np.random.default_rng(67)
    pts = rng.uniform(0.5, 1.5, size=(2 * step + 5, n))
    vals = rng.uniform(1.0, 2.0, size=(pts.shape[0], n, n))
    derivs = rng.uniform(1.0, 2.0, size=(pts.shape[0], n, n, n))
    early, late = 3, pts.shape[0] - 2
    vals[early] *= 1e110
    vals[late] *= 1e10
    derivs[late] *= 1e300

    def whole_tower():
        for level, t in enumerate(tower(vals, derivs, 3), start=1):
            vanishing_report(t, vals, derivs, level, pts, 0, 1e-8)

    messages = []
    jet_at = stacked_jet(vals, derivs).__getitem__
    for walk in (whole_tower, lambda: tower_verdicts(jet_at, 3, pts, 0, 1e-8)):
        with pytest.warns(RuntimeWarning), pytest.raises(EvalDomainError) as info:
            walk()
        messages.append(str(info.value))
    expected = f"level-1 torsion is not finite at point {tuple(pts[late].tolist())}"
    assert messages == [expected, expected]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3, 5, 7]),
       size=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 2)]),
       flat=st.lists(st.booleans(), min_size=1, max_size=4), seed=st.integers(0, 2 ** 32 - 1))
def test_candidate_walk_equals_one_candidate_walks(n, size, flat, seed):
    # N around the chunk boundaries: several candidates judged in one
    # chunk-major walk get, bit for bit, the reports of one walk each and of
    # the whole levels; the walk asks for each chunk's candidates once, in
    # point order
    step = max(1, CHUNK_BYTES // (8 * n ** 3))
    n_pts = size[0] * step + size[1]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.5, 1.5, size=(n_pts, n))
    jets = [stacked_jet(rng.uniform(-2.0, 2.0, size=(n_pts, n, n)),
                        rng.uniform(-2.0, 2.0, size=(n_pts, n, n, n)) * (0.0 if f else 1.0))
            for f in flat]
    parts = []

    def candidates_at(part):
        parts.append((part.start, part.stop))
        return ((jet[part], tower(*jet[part], 3)) for jet in jets)

    together = candidate_verdicts(candidates_at, range(1, 4), pts, seed, 1e-8)
    assert parts == [(start, start + step) for start in range(0, n_pts, step)]
    assert len(together) == len(jets)
    for got, jet in zip(together, jets):
        alone = tower_verdicts(jet.__getitem__, 3, pts, seed, 1e-8)
        whole = [vanishing_report(t, *jet, level, pts, seed, 1e-8)
                 for level, t in enumerate(tower(*jet, 3), start=1)]
        for g, a, w in zip(got, alone, whole, strict=True):
            for want in (a, w):
                assert (g.level, g.n_points, g.seed, g.tol_rel) == \
                    (want.level, want.n_points, want.seed, want.tol_rel)
                assert g.max_residual == want.max_residual
                assert g.vanishing == want.vanishing
                assert np.array_equal(g.worst_point, want.worst_point)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_candidate_walk_raises_the_candidate_major_error(order):
    # candidate A is first non-finite at level 3, at a point of the middle
    # chunk and one of the last, and at level 4 already at a point of the
    # first chunk; candidate B at level 1, at a point of the first chunk.
    # The chunk-major walk meets B's level 1 and A's level 4 first, but it
    # names what walking the candidates one after another, each level over
    # all points, names: the first candidate's lowest level, first point.
    n, m = 3, 4
    step = CHUNK_BYTES // (8 * n ** 3)
    rng = np.random.default_rng(79)
    pts = rng.uniform(0.5, 1.5, size=(3 * step, n))

    def jet():
        return stacked_jet(rng.uniform(1.0, 2.0, size=(pts.shape[0], n, n)),
                           rng.uniform(1.0, 2.0, size=(pts.shape[0], n, n, n)))

    a, b = jet(), jet()
    a.vals[5] *= 1e50                 # level 4 overflows, level 3 does not
    a.vals[step + 7] *= 1e80          # level 3 overflows
    a.vals[2 * step + 1] *= 1e80
    b.vals[2] *= 1e10                 # level 1 overflows
    b.derivs[2] *= 1e300
    cands = [(a, b)[i] for i in order]

    def candidate_major():
        for cand in cands:
            for level, t in enumerate(tower(*cand, m), start=1):
                vanishing_report(t, *cand, level, pts, 0, 1e-8)

    messages = []
    chunk_major = lambda: candidate_verdicts(  # noqa: E731
        lambda part: ((cand[part], tower(*cand[part], m)) for cand in cands),
        range(1, m + 1), pts, 0, 1e-8)
    for walk in (candidate_major, chunk_major):
        with pytest.warns(RuntimeWarning), pytest.raises(EvalDomainError) as info:
            walk()
        messages.append(str(info.value))
    level, point = (3, step + 7) if order == (0, 1) else (1, 2)
    assert messages == [f"level-{level} torsion is not finite at point "
                        f"{tuple(pts[point].tolist())}"] * 2


def test_candidate_walk_drops_each_candidate_before_the_next():
    # a caller that builds each candidate's level when the walk asks for it
    # finds every earlier one freed, so one candidate's level is alive at a time
    n, m = 3, 2
    step = CHUNK_BYTES // (8 * n ** 3)
    rng = np.random.default_rng(89)
    pts = rng.uniform(0.5, 1.5, size=(2 * step, n))
    jets = [stacked_jet(rng.uniform(-2.0, 2.0, size=(len(pts), n, n)),
                        rng.uniform(-2.0, 2.0, size=(len(pts), n, n, n))) for _ in range(3)]
    built = []

    def candidate(jet):
        level = level_image(*jet, m)
        built.append(weakref.ref(level))
        return jet, (level,)

    def candidates_at(part):
        for jet in jets:
            assert all(ref() is None for ref in built)
            yield candidate(jet[part])

    candidate_verdicts(candidates_at, (m,), pts, 0, 1e-8)
    assert len(built) == 2 * len(jets)


def test_chunked_walk_peak_memory():
    # one verdict walk holds a few chunk-sized levels, not whole (N, n, n, n) ones
    rng = np.random.default_rng(71)
    n_pts, n = 2000, 7
    pts = rng.uniform(0.5, 1.5, size=(n_pts, n))
    vals = rng.uniform(-2.0, 2.0, size=(n_pts, n, n))
    derivs = rng.uniform(-2.0, 2.0, size=(n_pts, n, n, n))
    jet = stacked_jet(vals, derivs)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tower_verdicts(jet.__getitem__, 4, pts, 0, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 0.25 * derivs.nbytes


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
# scale-free residuals
# ---------------------------------------------------------------------------

def test_relative_reads_zero_over_zero_as_zero_and_x_over_zero_as_inf():
    residual = np.array([0.0, 2.0, 3.0, 0.0, 1e-300])
    bound = np.array([0.0, 0.0, 4.0, 5.0, 0.0])
    got = fl.relative(residual, bound)
    assert got.tolist() == [0.0, np.inf, 0.75, 0.0, np.inf]
    assert got.tolist() == relative_oracle(residual, bound).tolist()
    assert fl.relative(residual, 0.0).tolist() == [0.0, np.inf, np.inf, 0.0, np.inf]
    assert float(fl.relative(0.0, 0.0)) == 0.0
    assert float(fl.relative(1.0, 0.0)) == np.inf
    assert not fl.relative(1.0, 0.0) <= 1e-8  # x/0 fails every tolerance


def test_a_constant_operator_has_zero_residual_at_every_level():
    # dA = 0: every level is 0 against a bound of 0
    dom = SampleDomain(box=((0.5, 1.5),) * 3, seed=5)
    a = op_from_strings(CH3, [["2", "1", "0"], ["0", "3", "-1"], ["5", "0", "1/2"]])
    rep = is_vanishing(a, 4, dom, 30, 1e-8)
    assert [r.max_residual for r in (*rep.lower, rep)] == [0.0] * 4
    assert all(r.vanishing for r in (*rep.lower, rep))


FIXTURE_OPERATORS = [("lfa1", name) for name in ("K1", "K2", "K3")] + \
    [("lta", name) for name in ("L1", "L2", "L3")]


@functools.lru_cache(maxsize=None)
def _fixture_tower(fixture, name):
    """The manifest level, 200 manifest-seed points, the operator's 1-jet
    there and its verdicts on levels 1..level."""
    man = load_manifest(fixture_path(f"{fixture}.json"))
    pts = sample_points(man.domain, 200)
    jet = man.operators[name].jet_many(pts)
    return man.level, pts, jet, tower_verdicts(jet.__getitem__, man.level, pts, 0, 1e-8)


def _assert_scaled_verdicts(case, scale):
    """The verdicts on the jet ``Jet(scale * stack)`` are those on the jet."""
    m, pts, jet, want = _fixture_tower(*case)
    got = tower_verdicts(Jet(scale * jet.stack).__getitem__, m, pts, 0, 1e-8)
    assert [r.vanishing for r in got] == [r.vanishing for r in want]
    first = [next((r.level for r in reps if r.vanishing), None) for reps in (got, want)]
    assert first[0] == first[1] is not None
    for g, w in zip(got, want):
        if not w.vanishing:
            assert abs(g.max_residual - w.max_residual) <= 1e-12 * w.max_residual


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=st.sampled_from(FIXTURE_OPERATORS), exponent=st.floats(-8.0, 8.0))
def test_tower_verdicts_do_not_change_when_the_derivatives_are_scaled(case, exponent):
    # dA -> c dA, as the coordinate change x -> x / c gives it: T^(l) is
    # linear in dA
    scale = np.ones((1, _fixture_tower(*case)[1].shape[1] + 1, 1, 1))
    scale[:, 1:] = 10.0 ** exponent
    _assert_scaled_verdicts(case, scale)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=st.sampled_from(FIXTURE_OPERATORS), exponent=st.floats(-4.0, 4.0))
def test_tower_verdicts_do_not_change_when_the_operator_is_scaled(case, exponent):
    # A -> sA scales A and dA, so T^(l) by s^(2l)
    _assert_scaled_verdicts(case, 10.0 ** exponent)


@functools.lru_cache(maxsize=None)
def _rescaled_tower(fixture, name, k):
    """The manifest-level verdicts on the operator in the coordinates y = c x,
    c = 2^k, substituted into its entries, the guards and the box."""
    man = load_manifest(fixture_path(f"{fixture}.json"))
    c = Fraction(2) ** k
    rep = is_vanishing(rescaled_operator(man.operators[name], c), man.level,
                       rescaled_domain(man.domain, c), 200, 1e-8)
    return c, (*rep.lower, rep)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.integers(-26, 26))
@example(k=-26)
@example(k=26)
def test_tower_verdicts_do_not_change_under_a_whole_manifest_rescaling(k):
    # every value and derivative of the rescaled manifest is the original
    # one times a power of two, so every residual is bitwise the unscaled one
    for case in FIXTURE_OPERATORS:
        (_, want), (c, got) = _rescaled_tower(*case, 0), _rescaled_tower(*case, k)
        for g, w in zip(got, want):
            assert (g.level, g.vanishing, g.max_residual) == (w.level, w.vanishing, w.max_residual)
            assert np.array_equal(g.worst_point, float(c) * w.worst_point)


# ---------------------------------------------------------------------------
# 1-jets of symbolic operators
# ---------------------------------------------------------------------------

BOX3 = SampleDomain(box=((1.0, 2.0),) * 3, seed=5)

# (operator, domain) by kind of entries; lfa1's K1 mixes constant and
# point-dependent entries and derivatives
JET_OPERATORS = {
    "constant": lambda m: (op_from_strings(CH3, [["1", "2", "0"], ["0", "1/2", "3"],
                                                 ["-1", "0", "2"]]), BOX3),
    "dependent": lambda m: (op_from_strings(CH3, [["x1*x2", "x3^2/x1", "sqrt(x2)"],
                                                  ["x1 + x3", "cbrt(x1*x3)", "1/x2"],
                                                  ["x2^3", "x1 - x2", "x1*x2*x3"]]), BOX3),
    "mixed": lambda m: (m.operators["K1"], m.domain),
}


@pytest.mark.parametrize("n_pts", [1, 7, 200])
@pytest.mark.parametrize("kind", sorted(JET_OPERATORS))
def test_template_jets_equal_entry_by_entry_reference(kind, n_pts, lfa1):
    op, domain = JET_OPERATORS[kind](lfa1)
    pts = sample_points(domain, n_pts)
    ref_vals, ref_derivs = jet_reference(op, pts)
    vals, derivs = op.jet_many(pts)
    values = op.values_many(pts)
    n = op.chart.dim
    assert vals.shape == values.shape == (n_pts, n, n) and derivs.shape == (n_pts, n, n, n)
    assert vals.tobytes() == values.tobytes() == ref_vals.tobytes()
    assert derivs.tobytes() == ref_derivs.tobytes()


def test_jet_names_the_same_first_point_as_entry_by_entry():
    op = op_from_strings(CH2, [["2", "1/(x1 - 3/2)"], ["1/(x2 - 3/2)", "sqrt(x1 - 1)"]])
    # entry (0, 1) is singular at row 5 and entry (1, 0) at row 2: the entry
    # first in row-major order names its point
    bad_value = np.full((8, 2), 1.25)
    bad_value[5, 0] = bad_value[2, 1] = 1.5
    # sqrt(x1 - 1) is 0 at x1 = 1, but its derivative divides by 0 there
    bad_derivative = np.full((8, 2), 1.25)
    bad_derivative[4, 0] = 1.0
    for pts, where in ((bad_value, "(1.5, 1.25)"), (bad_derivative, "(1.0, 1.25)")):
        with pytest.raises(SingularityError) as ref:
            jet_reference(op, pts)
        assert str(ref.value).endswith(f"at point {where}")
        with pytest.raises(SingularityError) as got:
            op.jet_many(pts)
        assert str(got.value) == str(ref.value)
    with pytest.raises(SingularityError, match=r"at point \(1\.5, 1\.25\)$"):
        op.values_many(bad_value)
    assert op.values_many(bad_derivative).tobytes() == \
        jet_reference(op, bad_derivative, derivs=False)[0].tobytes()


def test_jet_constant_outside_double_range_is_named():
    big = const(10 ** 400)
    op = OperatorField(CH2, ((big, const(0)), (const(0), Var(0))))
    for what in ("values_many", "jet_many"):
        with pytest.raises(ConstantRangeError,
                           match=f"constant {10 ** 400} is outside the double range"):
            getattr(op, what)(np.ones((3, 2)))
    # 10^200 (10^200 x1) is finite at x1 = 10^-300, but its derivative is the
    # constant 10^400: the value plan does not convert it, the derivative plan does
    op = OperatorField(Chart(1), ((Mul(const(10 ** 200), Mul(const(10 ** 200), Var(0))),),))
    pts = np.full((3, 1), 1e-300)
    assert op.values_many(pts).tolist() == [[[1e200 * (1e200 * 1e-300)]]] * 3
    with pytest.raises(ConstantRangeError,
                       match=f"constant {10 ** 400} is outside the double range"):
        op.jet_many(pts)


def test_jet_evaluates_each_point_dependent_entry_once(monkeypatch, lfa1):
    evaluated = []

    def counted(e, pts):
        evaluated.append(e)
        return eval_many(e, pts)

    eval_many = fl.eval_many
    monkeypatch.setattr(fl, "eval_many", counted)
    op = lfa1.operators["K2"]
    n = op.chart.dim
    entries = [e for row in op.entries for e in row]
    derivs = [diff(op.entries[i][j], l) for l in range(n) for i in range(n) for j in range(n)]
    pts = sample_points(lfa1.domain, 10)

    def distinct(exprs):
        # in order of first appearance: a repeated entry is evaluated once
        return list(dict.fromkeys(e for e in exprs if not isinstance(e, Const)))

    assert len(distinct(entries)) < sum(not isinstance(e, Const) for e in entries)
    for _ in range(2):
        evaluated.clear()
        op.jet_many(pts)
        assert evaluated == distinct(entries) + distinct(derivs)
    evaluated.clear()
    op.values_many(pts)
    assert evaluated == distinct(entries)


FIXTURE_OPERATORS = [*(("lfa1", f"K{k}") for k in (1, 2, 3)),
                     *(("lta", f"L{k}") for k in (1, 2, 3))]


@pytest.mark.parametrize("fixture, name", FIXTURE_OPERATORS)
def test_fixture_jets_equal_entry_by_entry_reference(fixture, name, request):
    # each entry is differentiated only along the variables it contains; the
    # oracle differentiates every entry along every variable
    man = request.getfixturevalue(fixture)
    op = man.operators[name]
    pts = sample_points(man.domain, 40)
    ref_vals, ref_derivs = jet_reference(op, pts)
    vals, derivs = op.jet_many(pts)
    assert vals.tobytes() == ref_vals.tobytes()
    assert derivs.tobytes() == ref_derivs.tobytes()


@pytest.mark.parametrize("chunk", ["one point", "default", "whole sample"])
@pytest.mark.parametrize("fixture, name", FIXTURE_OPERATORS)
def test_sliced_jets_equal_slices_of_the_whole_jet(fixture, name, chunk, request,
                                                   monkeypatch):
    # every chunk the walk asks for has the bytes of the whole-sample jet's
    # slice, the chunks cover the sample once, and is_vanishing reports what
    # the walk over the whole-sample jet reports
    man = request.getfixturevalue(fixture)
    op, n, n_pts = man.operators[name], man.chart.dim, 230
    level = 8 * n ** 3
    monkeypatch.setattr(fl, "CHUNK_BYTES", {"one point": level, "default": CHUNK_BYTES,
                                            "whole sample": n_pts * level}[chunk])
    pts = sample_points(man.domain, n_pts)
    whole = op.jet_many(pts)
    jet_at = op.jet_slices(pts)
    covered = []

    def compared(part):
        got, want = jet_at(part), whole[part]
        assert got.vals.shape == want.vals.shape and got.derivs.shape == want.derivs.shape
        assert got.vals.tobytes() == want.vals.tobytes()
        assert got.derivs.tobytes() == want.derivs.tobytes()
        covered.extend(range(n_pts)[part])
        return got

    sliced = fl.tower_verdicts(compared, man.level, pts, man.domain.seed, 1e-8)
    assert covered == list(range(n_pts))
    assert len(sliced) == man.level and sliced[-1].vanishing
    top = is_vanishing(op, man.level, man.domain, n_pts, 1e-8, pts=pts)
    reference = fl.tower_verdicts(whole.__getitem__, man.level, pts, man.domain.seed, 1e-8)
    for got, want in zip((*top.lower, top), reference, strict=True):
        assert (got.level, got.max_residual, got.vanishing) == \
            (want.level, want.max_residual, want.vanishing)
        assert np.array_equal(got.worst_point, want.worst_point)


def _composites(man):
    """One composite operator of each kind over the fixture's operators."""
    (_, a), (_, b) = sorted(man.operators.items())[:2]
    x = [Var(i) for i in range(man.chart.dim)]
    return [LinCombOperator(man.chart, ((add(x[0], x[1]), a), (mul(x[2], x[2]), b))),
            ProductOperator(a, b),
            PolyOperator(a, (x[-1], x[0], const(1))),
            PowerOperator(b, 3)]


@pytest.mark.parametrize("chunk", ["one point", "default", "whole sample"])
@pytest.mark.parametrize("fixture", ["lfa1", "lta"])
def test_composite_jets_are_evaluated_per_chunk(fixture, chunk, request, monkeypatch):
    # every chunk of a composite's sliced jet has the bytes of the slice of
    # its whole-sample jet, without diff being called again per chunk
    man = request.getfixturevalue(fixture)
    n, n_pts = man.chart.dim, 230
    level = 8 * n ** 3
    monkeypatch.setattr(fl, "CHUNK_BYTES", {"one point": level, "default": CHUNK_BYTES,
                                            "whole sample": n_pts * level}[chunk])
    pts = sample_points(man.domain, n_pts)
    for op in _composites(man):
        whole = op.jet_many(pts)
        jet_at = op.jet_slices(pts)
        diffs = []
        monkeypatch.setattr(fl, "diff", lambda *args: diffs.append(args) or diff(*args))
        for part in fl.chunks(n_pts, n):
            got, want = jet_at(part), whole[part]
            assert got.vals.tobytes() == want.vals.tobytes()
            assert got.derivs.tobytes() == want.derivs.tobytes()
        monkeypatch.setattr(fl, "diff", diff)
        assert diffs == []


def test_composite_jet_overflow_in_a_later_chunk_names_the_whole_jet_point():
    # 10^302 x1^64 is finite at x1 = 1.15 and 1.19, its derivative only at
    # 1.15; the first chunk is finite, a point of the second chunk is not
    op = op_from_strings(CH2, [[f"{10 ** 302}*x1^64", "0"], ["0", "x2"]])
    n_pts = 3 * CHUNK_BYTES // (8 * 2 ** 3)
    pts = np.tile([1.15, 1.0], (n_pts, 1))
    pts[n_pts // 2] = [1.19, 1.0]
    composites = [LinCombOperator(CH2, ((Var(1), op),)),
                  ProductOperator(op, identity_operator(CH2)),
                  PolyOperator(op, (const(0), Var(1))),
                  PowerOperator(op, 1)]
    for composite in composites:
        jet_at = composite.jet_slices(pts)
        parts = list(fl.chunks(n_pts, 2))
        assert len(parts) == 3 and parts[1].start <= n_pts // 2 < parts[1].stop
        assert np.isfinite(jet_at(parts[0]).derivs).all()
        messages = []
        for jet in (lambda: composite.jet_many(pts), lambda: [jet_at(p) for p in parts]):
            with pytest.warns(RuntimeWarning), pytest.raises(EvalDomainError) as info:
                jet()
            messages.append(str(info.value))
        assert messages == ["operator 1-jet is not finite at point (1.19, 1.0)"] * 2


def test_sliced_jet_raises_the_whole_jet_error():
    # 10^302 x1^64 is finite near x1 = 1.19, but its derivative overflows
    # there; values are checked before derivatives, so a later point with an
    # infinite value is the one named when there is one, also when a scalar
    # factor's product rule meets the infinite derivative
    op = op_from_strings(CH2, [[f"{10 ** 302}*x1^64", "0"], ["0", "x2"]])
    scaled_op = LinCombOperator(CH2, ((Var(1), op),))
    derivative_only = np.array([[1.15, 1.0], [1.19, 1.0], [1.15, 2.0]])
    value_later = np.array([[1.15, 1.0], [1.19, 1.0], [1.15, np.inf]])
    for pts, where in ((derivative_only, "(1.19, 1.0)"), (value_later, "(1.15, inf)")):
        messages = []
        for jet in (op.jet_many, op.jet_slices, scaled_op.jet_many):
            with pytest.warns(RuntimeWarning), pytest.raises(EvalDomainError) as info:
                jet(pts)
            messages.append(str(info.value))
        assert messages == [f"operator 1-jet is not finite at point {where}"] * 3


def test_is_vanishing_memory_does_not_grow_with_the_whole_jet(lfa1):
    # the 1-jet is expanded chunk by chunk, so the peak grows by the
    # point-dependent columns, not by N (n^2 + n^3) doubles of a whole jet
    op, n = lfa1.operators["K1"], lfa1.chart.dim
    op.jet_many(sample_points(lfa1.domain, 1))  # build the cached plans
    sizes, peaks = (2000, 8000), []
    for n_pts in sizes:
        pts = sample_points(lfa1.domain, n_pts)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            is_vanishing(op, 4, lfa1.domain, n_pts, 1e-8, pts=pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - base)
    assert peaks[1] - peaks[0] < 0.25 * (sizes[1] - sizes[0]) * 8 * (n ** 2 + n ** 3)


def _raw_ast_strategy(dim: int):
    # raw nodes, no constant folding: a constant divisor, a constant-zero
    # divisor and variables the expression does not contain all occur
    consts = st.builds(lambda n, d: Const(Fraction(n, d)), st.integers(-4, 4), st.integers(1, 3))
    leaves = st.one_of(consts, st.integers(0, dim - 1).map(Var))

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Div, children, consts),
            st.builds(Div, children, st.just(Const(Fraction(0)))),
            st.builds(Neg, children),
            st.builds(Pow, children, st.integers(-3, 3)),
            st.builds(Sqrt, children),
            st.builds(Cbrt, children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _outcome(jet_fn, coeff, pts):
    try:
        vals, derivs = jet_fn(coeff, pts)
    except (TorsionLabError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    return vals.shape, derivs.shape, vals.tobytes(), derivs.tobytes()


def _planned_jets(coeffs, pts):
    """Each coefficient's columns of one :func:`scalar_jets_plan`, shaped as
    :func:`scalar_jet_reference` gives them."""
    cols = scalar_jets_plan(coeffs, pts.shape[1])(pts)
    return [(cols[:, c, :1, None], cols[:, c, 1:, None, None]) for c in range(len(coeffs))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_raw_ast_strategy(4), st.integers(0, 10_000))
def test_scalar_jet_equals_every_variable_reference(coeff, salt):
    # the gradient along a variable the expression lacks is written as 0.0,
    # which is what evaluating its derivative, Const(0), gives
    rng = np.random.default_rng(salt)
    pts = rng.uniform(-0.5, 2.0, size=(6, 4))
    assert _outcome(lambda c, p: _planned_jets([c], p)[0], coeff, pts) == \
        _outcome(scalar_jet_reference, coeff, pts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_raw_ast_strategy(4), min_size=1, max_size=3), st.integers(0, 10_000))
def test_scalar_jets_plan_equals_the_reference(coeffs, salt):
    # one plan of several coefficients gives each one's reference bytes, or
    # the error the reference meets first, coefficient by coefficient
    rng = np.random.default_rng(salt)
    pts = rng.uniform(-0.5, 2.0, size=(6, 4))

    def joined(jets):
        return (np.concatenate([vals for vals, _ in jets], axis=1),
                np.concatenate([grad for _, grad in jets], axis=2))

    planned = _outcome(lambda _, p: joined(_planned_jets(coeffs, p)), None, pts)
    reference = _outcome(lambda _, p: joined([scalar_jet_reference(c, p) for c in coeffs]),
                         None, pts)
    assert planned == reference


def test_scalar_jet_differentiates_only_present_variables(monkeypatch):
    differentiated = []

    def counted(e, var):
        differentiated.append(var)
        return diff(e, var)

    monkeypatch.setattr(fl, "diff", counted)
    coeff = parse_expr("x2*x2 - 3/x4 + 1", Chart(5))
    pts = np.full((3, 5), 1.5)
    cols = scalar_jets_plan([coeff], 5)(pts)
    assert differentiated == [1, 3]
    assert cols[:, 0, 1:].tolist() == [[0.0, 3.0, 0.0, 3 / 1.5 ** 2, 0.0]] * 3
    assert cols.shape == (3, 1, 6)
    differentiated.clear()
    assert scalar_jets_plan([coeff], 0)(pts).tolist() == cols[:, :, :1].tolist()
    assert differentiated == []


def test_jet_slices_are_views_and_products_commute_with_slicing():
    rng = np.random.default_rng(73)
    n_pts, n = 11, 4
    a = Jet(rng.uniform(-2, 2, (n_pts, n + 1, n, n)))
    b = Jet(rng.uniform(-2, 2, (n_pts, n + 1, n, n)))
    f = rng.uniform(-2, 2, (n_pts, n + 1))
    assert a.vals.base is a.stack and a.derivs.base is a.stack
    assert np.array_equal(a.vals, a.stack[:, 0]) and np.array_equal(a.derivs, a.stack[:, 1:])
    for part in (slice(0, 1), slice(3, 8), slice(8, 20), slice(0, n_pts)):
        sliced = a[part]
        assert sliced.stack.base is a.stack
        assert np.array_equal(sliced.vals, a.vals[part])
        for whole, parts in (((a @ b)[part], a[part] @ b[part]),
                             (scaled(f, a)[part], scaled(f[part], a[part])),
                             ((scaled(f, a) + scaled(f, b))[part],
                              scaled(f[part], a[part]) + scaled(f[part], b[part]))):
            assert whole.stack.tobytes() == parts.stack.tobytes()
    # a value-only jet has one row, and its products are the first rows of
    # the 1-jets' products, bit for bit
    value_a, value_b = Jet(a.stack[:, :1]), Jet(b.stack[:, :1])
    assert value_a.derivs.shape == (n_pts, 0, n, n)
    assert (value_a @ value_b).stack.tobytes() == (a @ b).vals.tobytes()
    assert scaled(f[:, :1], value_a).stack.tobytes() == scaled(f, a).vals.tobytes()


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


def test_composite_values_are_the_jet_values():
    # values_many takes the value-only jets of the terms and the coefficients
    rng = np.random.default_rng(67)
    a, b = random_operator(CH3, rng), random_operator(CH3, rng)
    pts = rng.uniform(0.5, 1.5, size=(6, 3))
    f, g = random_poly_expr(CH3, rng), random_poly_expr(CH3, rng)
    for op in (LinCombOperator(CH3, ((f, a), (g, b))), ProductOperator(a, b),
               PolyOperator(a, (g, const(0), f)), PowerOperator(b, 3)):
        vals = op.values_many(pts)
        assert vals.tobytes() == op.jet_many(pts).vals.tobytes()
        assert vals.shape == (6, 3, 3)


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
                # level 3 vanishes: both sides are roundoff of the chain's bound
                assert bounded_err(rhs, contraction, chain_bound(a, m, p, x2, x1)) <= 1e-8


def test_eigenchain_rejects_broken_chain():
    a = op_from_strings(CH2, [["x1", "1"], ["0", "x1"]])
    bad_chain = (Var(0), [basis_field(CH2, 1)])  # not an eigenvector
    # A e2 - x1 e2 = e1: residual 1 against the bound (1 + 1) * 1
    message = (r"^chain relation fails at slot 1: relative residual 5\.000e-01 "
               r"exceeds 1e-08 at point \(1\.0, 1\.0\)$")
    with pytest.raises(ChainConditionError, match=message):
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
