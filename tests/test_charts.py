"""Jacobians, pushforwards, one-form potentials and block detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab.charts as ch
from helpers import finest_block_partition, rel_err
from torsionlab.charts import (
    BlockPartition,
    DiffeoChart,
    OneFormExpr,
    detect_blocks,
    integrate_exact_one_form,
    jacobian_at,
    jacobian_many,
    pushforward_at,
    pushforward_field,
    pushforward_many,
    verify_diffeo,
)
from torsionlab.errors import (
    DimensionMismatchError,
    EvalDomainError,
    NonPolynomialError,
    NotClosedError,
    SingularJacobianError,
)
from torsionlab.expr import (
    Chart,
    SampleDomain,
    Var,
    const,
    diff,
    eval_many,
    format_expr,
    parse_expr,
    sample_points,
    variables,
)
from torsionlab.fields import OperatorField, identity_operator, torsion_many

CH2 = Chart(2)
CH3 = Chart(3)
CH7 = Chart(7)


def op_from_strings(chart, rows):
    return OperatorField(chart, tuple(tuple(parse_expr(s, chart) for s in row) for row in rows))


def identity_chart(chart):
    return DiffeoChart(src=chart, dst=chart,
                       forward=tuple(Var(i) for i in range(chart.dim)),
                       inverse=tuple(Var(i) for i in range(chart.dim)))


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

def test_jacobian_identity_chart():
    c = identity_chart(CH3)
    assert np.array_equal(jacobian_at(c, (0.3, 0.4, 0.5)), np.eye(3))


def test_fixture_charts_are_diffeomorphisms(lta, lfa1):
    for man in (lta, lfa1):
        pts = sample_points(man.domain, 25)
        worst = verify_diffeo(man.charts["y"], pts, tol=1e-8)
        assert worst <= 1e-8


def test_verify_diffeo_rejects_degenerate_map():
    c = DiffeoChart(src=CH2, dst=CH2, forward=(Var(0), Var(0)))
    with pytest.raises(SingularJacobianError):
        verify_diffeo(c, np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("inverse", [None, (Var(0), Var(1))])
def test_verify_diffeo_rejects_nonfinite_jacobian(inverse):
    # d/dx1 of x1^64 x2^64 - x1^64 x2^64 is inf - inf on this point
    c = DiffeoChart(src=CH2, dst=CH2, inverse=inverse,
                    forward=(parse_expr("x1 + x1^64*x2^64 - x1^64*x2^64", CH2), Var(1)))
    with pytest.warns(RuntimeWarning), \
            pytest.raises(EvalDomainError, match=r"chart Jacobian is not finite at point \(1500"):
        verify_diffeo(c, np.array([[1500.0, 1200.0]]))


def test_jacobian_lta_chart_rows(lta):
    c = lta.charts["y"]
    p = sample_points(lta.domain, 1)[0]
    jac = jacobian_at(c, p)
    expected_const = np.array([
        [1, 1, 0, 1, 0],
        [1, -1, 0, -1, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0],
    ])
    assert np.array_equal(jac[:4], expected_const)
    # row 5 of y5 = x1 + x4 + x3 x5 depends on the point
    assert np.allclose(jac[4], [1, 0, p[4], 1, p[2]])


def test_jacobian_row_for_cubic_minus_x6():
    # y6 = x1^3/3 - x6 has gradient ((x1)^2, 0, 0, 0, 0, -1, 0)
    c = DiffeoChart(
        src=CH7, dst=Chart(7, tuple(f"y{i}" for i in range(1, 8))),
        forward=tuple(parse_expr(s, CH7) for s in
                      ["x1", "x2", "x3", "x4", "x5", "x1^3/3 - x6", "x7"]))
    p = (1.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    jac = jacobian_at(c, p)
    assert np.allclose(jac[5], [1.5**2, 0, 0, 0, 0, -1, 0])


# ---------------------------------------------------------------------------
# pushforwards
# ---------------------------------------------------------------------------

def test_pushforward_identity_chart():
    a = op_from_strings(CH2, [["x1", "1"], ["x2", "x1*x2"]])
    p = (0.7, 1.3)
    assert np.allclose(pushforward_at(a, identity_chart(CH2), p),
                       a.values_many(np.array([p]))[0])


def test_pushforward_matches_printed_lta_matrices(lta):
    chart = lta.charts["y"]
    pts = sample_points(lta.domain, 30)
    ys = chart.forward_many(pts)
    for name, op in lta.operators.items():
        mats = pushforward_many(op, chart, pts)
        gold = lta.pushforward_golden["y"][name]
        expected = np.empty_like(mats)
        for i in range(5):
            for j in range(5):
                expected[:, i, j] = eval_many(gold[i][j], ys)
        assert rel_err(mats, expected) <= 1e-8


def test_pushforward_matches_printed_lfa1_matrices(lfa1):
    chart = lfa1.charts["y"]
    pts = sample_points(lfa1.domain, 30)
    ys = chart.forward_many(pts)
    for name, op in lfa1.operators.items():
        mats = pushforward_many(op, chart, pts)
        gold = lfa1.pushforward_golden["y"][name]
        expected = np.empty_like(mats)
        for i in range(7):
            for j in range(7):
                expected[:, i, j] = eval_many(gold[i][j], ys)
        assert rel_err(mats, expected) <= 1e-6


def _clustered_means(mat, radius):
    vals = np.sort(np.linalg.eigvals(mat).real)
    groups = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= radius:
            groups[-1].append(v)
        else:
            groups.append([v])
    return np.array([np.mean(g) for g in groups])


def test_pushforward_preserves_eigenvalues(lta):
    # defective eigenvalues split by O(sqrt(eps)) individually; their cluster
    # means are similarity invariants at 1e-8 scale
    chart = lta.charts["y"]
    pts = sample_points(lta.domain, 10)
    for op in lta.operators.values():
        pushed = pushforward_many(op, chart, pts)
        raw = op.values_many(pts)
        for k in range(len(pts)):
            scale = 1.0 + np.max(np.abs(raw[k]))
            ev1 = _clustered_means(raw[k], 1e-4 * scale)
            ev2 = _clustered_means(pushed[k], 1e-4 * scale)
            assert ev1.shape == ev2.shape
            assert np.max(np.abs(ev1 - ev2)) <= 1e-8 * scale


def test_pushforward_singular_jacobian_rejected():
    c = DiffeoChart(src=CH2, dst=CH2,
                    forward=(Var(0), parse_expr("x1", CH2)))  # rank-1 map
    a = identity_operator(CH2)
    with pytest.raises(SingularJacobianError):
        pushforward_at(a, c, (0.5, 0.5))


def test_symbolic_pushforward_torsion_covariance(lta):
    # the torsion verdict is chart-independent: the level-3 torsion of the
    # symbolic pushforward vanishes, its level-2 does not
    chart = lta.charts["y"]
    op = lta.operators["L1"]
    pushed = pushforward_field(op, chart)
    pts = sample_points(lta.domain, 25)
    ys = chart.forward_many(pts)

    direct = pushforward_many(op, chart, pts)
    assert rel_err(pushed.values_many(ys), direct) <= 1e-9

    t3 = torsion_many(pushed, 3, ys)
    vals = pushed.values_many(ys)
    norm3 = np.max(np.abs(t3), axis=(1, 2, 3)) / (1 + np.max(np.abs(vals), axis=(1, 2)) ** 5)
    assert np.max(norm3) <= 1e-8
    t2 = torsion_many(pushed, 2, ys)
    norm2 = np.max(np.abs(t2), axis=(1, 2, 3)) / (1 + np.max(np.abs(vals), axis=(1, 2)) ** 3)
    assert np.max(norm2) > 1e-3


# ---------------------------------------------------------------------------
# one-form integration
# ---------------------------------------------------------------------------

def test_integrate_constant_form(lta):
    w = OneFormExpr(lta.chart, tuple(map(const, (1, 1, 0, 1, 0))))
    f = integrate_exact_one_form(w)
    assert f == parse_expr("x1 + x2 + x4", lta.chart)


def test_integrate_cubic_form():
    # (x1)^2 dx1 + dx6 integrates to x1^3/3 + x6 (the separating coordinate)
    w = OneFormExpr(CH7, tuple(parse_expr(s, CH7) for s in
                               ["x1^2", "0", "0", "0", "0", "1", "0"]))
    f = integrate_exact_one_form(w)
    expected = parse_expr("1/3*x1^3 + x6", CH7)
    assert f == expected
    # scalar multiples are equally valid annihilators; the sign-flipped
    # generator integrates to the sign-flipped potential
    w2 = OneFormExpr(CH7, tuple(parse_expr(s, CH7) for s in
                                ["x1^2", "0", "0", "0", "0", "-1", "0"]))
    f2 = integrate_exact_one_form(w2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(10, 7))
    assert np.allclose(eval_many(f2, pts), eval_many(f, pts) - 2 * pts[:, 5])


def test_integrate_not_closed():
    w = OneFormExpr(CH2, (Var(1), const(0)))  # x2 dx1
    with pytest.raises(NotClosedError):
        integrate_exact_one_form(w)


def test_integrate_non_polynomial():
    w = OneFormExpr(CH2, (parse_expr("1/x1", CH2), const(0)))
    with pytest.raises(NonPolynomialError):
        integrate_exact_one_form(w)


def test_integrate_all_fixture_annihilators(lta, lfa1):
    rng = np.random.default_rng(1)
    for man in (lta, lfa1):
        pts = rng.uniform(0.5, 1.5, size=(10, man.chart.dim))
        for name, forms in man.annihilators.items():
            for w in forms:
                f = integrate_exact_one_form(w)
                for i in range(man.chart.dim):
                    from torsionlab.expr import diff
                    got = eval_many(diff(f, i), pts)
                    want = eval_many(w.components[i], pts)
                    assert np.max(np.abs(got - want)) <= 1e-10


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _outcome(fn):
    """The value of ``fn()``, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    return got == want


def _every_variable(monkeypatch):
    """Make the chart layer differentiate along every variable, as it did
    before it asked :func:`variables`: the reference path."""
    monkeypatch.setattr(ch, "variables", lambda e: tuple(range(64)))


def test_jacobian_differentiates_only_present_variables(lfa1, monkeypatch):
    # a component is differentiated along each variable it contains, and once
    # along one it lacks (the tree diff gives along all of those); only the
    # derivatives that are not the exact zero are evaluated
    c = lfa1.charts["y"]
    n = lfa1.chart.dim
    pts = sample_points(lfa1.domain, 20)
    present = [variables(y) for y in c.forward]
    diffs = _count_calls(monkeypatch, ch, "diff")
    evals = _count_calls(monkeypatch, ch, "eval_many")
    jac = jacobian_many(c, pts)
    assert len(diffs) == sum(len(v) + (len(v) < n) for v in present) < n * n
    assert len(evals) == sum(map(len, present))
    reference = np.stack([np.stack([eval_many(diff(y, i), pts) for i in range(n)], axis=1)
                          for y in c.forward], axis=1)
    assert np.array_equal(jac, reference)


CHART_CASES = [
    ("x1^2", "x2 + x3^2", "x3 * x1"),
    ("x1", "x2/0", "x3"),
    ("x1", "1/0", "x3"),                     # no variable: diff still raises along each
    ("x1", "sqrt(x2 - 5) + 1/0", "x3"),      # the lacking x1 raises before sqrt
    ("x1", "sqrt(x2 - 5)", "x3"),
    ("x1", "x2", "x1/(x2 - x2)"),
    ("x1", "2", "x3"),
    ("x1", "(10^60)^7 * x2", "x3"),
]


@pytest.mark.parametrize("forward", CHART_CASES)
def test_jacobian_outcome_matches_every_variable_path(forward, monkeypatch):
    c = DiffeoChart(CH3, CH3, tuple(parse_expr(s, CH3) for s in forward))
    pts = np.random.default_rng(1).uniform(0.5, 1.5, size=(20, 3))
    calls = (lambda: jacobian_many(c, pts), lambda: verify_diffeo(c, pts))
    with np.errstate(over="ignore"):
        got = [_outcome(fn) for fn in calls]
        _every_variable(monkeypatch)
        want = [_outcome(fn) for fn in calls]
    for g, w in zip(got, want):
        assert _same_outcome(g, w)


def test_one_form_probe_differentiates_only_present_variables(lfa1, lta, monkeypatch):
    # every fixture annihilator: diff runs only along the variables a
    # component contains, and the potentials are those of the every-variable path
    forms = [w for man in (lfa1, lta) for ws in man.annihilators.values() for w in ws]
    diffs = _count_calls(monkeypatch, ch, "diff")
    potentials = [integrate_exact_one_form(w) for w in forms]
    expected = 0
    for w, f in zip(forms, potentials):
        comps, n = w.components, w.chart.dim
        # the closedness probe pair by pair, then the check of dF = w
        expected += sum((i in variables(comps[j])) + (j in variables(comps[i]))
                        for i in range(n) for j in range(i + 1, n))
        expected += len(variables(f))
    assert len(diffs) == expected < sum(w.chart.dim ** 2 for w in forms)
    _every_variable(monkeypatch)
    assert [integrate_exact_one_form(w) for w in forms] == potentials


FORM_CASES = [
    ("x2", "x1", "0"),
    ("x2", "2*x1", "0"),
    ("x3", "x3", "x1"),
    ("1", "x3", "x2"),
    ("x1/x2", "1", "0"),
    ("(10^60)^7*x2", "x1", "0"),
    ("x2*x3", "x1*x3", "x1*x2 + 1"),
]


@pytest.mark.parametrize("components", FORM_CASES)
def test_one_form_outcome_matches_every_variable_path(components, monkeypatch):
    w = OneFormExpr(CH3, tuple(parse_expr(s, CH3) for s in components))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _outcome(lambda: integrate_exact_one_form(w))
        _every_variable(monkeypatch)
        want = _outcome(lambda: integrate_exact_one_form(w))
    assert got == want


# ---------------------------------------------------------------------------
# block detection
# ---------------------------------------------------------------------------

def test_detect_blocks_diagonal():
    mats = [np.diag([1.0, 2.0, 3.0])]
    part, residual = detect_blocks(mats, None, 1e-8)
    assert part.sizes == (1, 1, 1)
    assert residual <= 1e-8


def test_detect_blocks_lta_partition(lta):
    chart = lta.charts["y"]
    pts = sample_points(lta.domain, 50)
    mats = np.concatenate([pushforward_many(op, chart, pts)
                           for op in lta.operators.values()])
    part, residual = detect_blocks(list(mats), None, lta.tolerances["block"])
    assert part.sizes == (1, 1, 1, 2)
    assert residual <= lta.tolerances["block"]
    verified, residual2 = detect_blocks(list(mats), part, lta.tolerances["block"])
    assert verified.sizes == part.sizes and residual2 == residual


def test_detect_blocks_lfa1_partition(lfa1):
    chart = lfa1.charts["y"]
    pts = sample_points(lfa1.domain, 50)
    mats = np.concatenate([pushforward_many(op, chart, pts)
                           for op in lfa1.operators.values()])
    part, residual = detect_blocks(list(mats), None, lfa1.tolerances["block"])
    assert part.sizes == (1, 1, 1, 1, 3)
    assert residual <= lfa1.tolerances["block"]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), n_mats=st.integers(1, 3), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_detect_blocks_finds_the_finest_partition(n, n_mats, density, seed):
    # entries are zero, far below the threshold or far above it
    rng = np.random.default_rng(seed)
    level = rng.choice([0.0, 1e-12, 1.0], size=(n_mats, n, n),
                       p=[1.0 - density, density / 2, density / 2])
    mats = level * rng.uniform(0.5, 2.0, size=(n_mats, n, n))
    part, residual = detect_blocks(list(mats), None, 1e-8)
    assert part.sizes == finest_block_partition(mats, 1e-8)
    assert residual <= 1e-8


def test_detect_blocks_hint_failure_reported():
    mats = [np.array([[1.0, 0.5], [0.0, 2.0]])]
    part, residual = detect_blocks(mats, BlockPartition((1, 1)), 1e-8)
    assert residual > 1e-8
    auto, _ = detect_blocks(mats, None, 1e-8)
    assert auto.sizes == (2,)


def test_detect_blocks_hint_of_the_wrong_dimension_names_both_sizes():
    with pytest.raises(DimensionMismatchError,
                       match="hint sizes sum to 2, the matrices have dimension 3"):
        detect_blocks([np.eye(3)], BlockPartition((1, 1)), 1e-8)
