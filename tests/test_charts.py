"""Jacobians, pushforwards, one-form potentials and block detection."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab.charts as ch
from helpers import exact_at, exact_monomials, finest_block_partition, random_poly_expr, rel_err
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
    ChartMismatchError,
    DimensionMismatchError,
    EvalDomainError,
    NonPolynomialError,
    NotClosedError,
    SingularJacobianError,
    TorsionLabError,
)
from torsionlab.expr import (
    Chart,
    Var,
    add,
    const,
    diff,
    eval_many,
    format_expr,
    mul,
    neg,
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


def _normalised_torsion(field, level, ys):
    """Worst level-``level`` torsion over ``ys``, in the normalisation of
    test_symbolic_pushforward_torsion_covariance."""
    t = torsion_many(field, level, ys)
    vals = field.values_many(ys)
    return np.max(np.max(np.abs(t), axis=(1, 2, 3))
                  / (1 + np.max(np.abs(vals), axis=(1, 2)) ** (2 * level - 1)))


@pytest.mark.parametrize("name", ["K1", "K2", "K3"])
def test_symbolic_pushforward_torsion_covariance_lfa1(lfa1, name):
    # n = 7, through an inverse map with cube roots: level 4 still vanishes
    # in y-coordinates and level 3 still does not
    chart = lfa1.charts["y"]
    op = lfa1.operators[name]
    pushed = pushforward_field(op, chart)
    pts = sample_points(lfa1.domain, 25)
    ys = chart.forward_many(pts)
    assert rel_err(pushed.values_many(ys), pushforward_many(op, chart, pts)) <= 1e-12
    assert _normalised_torsion(pushed, 4, ys) <= 1e-8
    assert _normalised_torsion(pushed, 3, ys) > 1e-3


def triangular_chart(n):
    """y1 = x1, y_i = x_i + x_(i-1)^2, with its exact polynomial inverse."""
    ch = Chart(n)
    forward = [Var(0)] + [add(Var(i), mul(Var(i - 1), Var(i - 1))) for i in range(1, n)]
    inverse = [Var(0)]
    for i in range(1, n):
        inverse.append(Var(i) - inverse[-1] ** 2)
    return DiffeoChart(ch, ch, tuple(forward), tuple(inverse))


def test_symbolic_pushforward_through_a_triangular_chart_at_n9():
    n = 9
    chart = triangular_chart(n)
    ch = chart.src
    rng = np.random.default_rng(5)
    op = OperatorField(ch, tuple(tuple(
        add(mul(const(int(rng.integers(-3, 4))), Var((i + j) % n)), const(int(rng.integers(1, 4))))
        for j in range(n)) for i in range(n)))
    pts = rng.uniform(-0.5, 0.5, size=(30, n))
    pushed = pushforward_field(op, chart)
    assert pushed.chart == chart.dst
    assert rel_err(pushed.values_many(chart.forward_many(pts)),
                   pushforward_many(op, chart, pts)) <= 1e-12


def test_symbolic_pushforward_with_a_non_constant_determinant():
    # det J = 1/(1 + x2); the entries under sqrt, cbrt and ^-1 are composed
    # with the inverse map
    chart = DiffeoChart(CH3, CH3,
                        tuple(parse_expr(s, CH3) for s in ("x1/(1 + x2)", "x2", "x3 + x1")),
                        tuple(parse_expr(s, CH3) for s in
                              ("x1*(1 + x2)", "x2", "x3 - x1*(1 + x2)")))
    op = op_from_strings(CH3, [["sqrt(x1 + x3)", "x2^-1", "1"],
                               ["cbrt(x1 - 2*x3)", "x1*x2", "x3^-2"],
                               ["0", "sqrt(x2)*x1^-1", "cbrt(x3)"]])
    pts = np.random.default_rng(2).uniform(0.5, 1.5, size=(40, 3))
    pushed = pushforward_field(op, chart)
    assert rel_err(pushed.values_many(chart.forward_many(pts)),
                   pushforward_many(op, chart, pts)) <= 1e-12


def test_symbolic_pushforward_needs_the_inverse_and_the_source_chart(lta):
    op = lta.operators["L1"]
    chart = lta.charts["y"]
    with pytest.raises(ChartMismatchError, match="needs the inverse coordinate map"):
        pushforward_field(op, DiffeoChart(chart.src, chart.dst, chart.forward))
    other = identity_chart(CH3)
    with pytest.raises(ChartMismatchError, match="operator must live on the source chart"):
        pushforward_field(op, other)
    with pytest.raises(ChartMismatchError, match="operator must live on the source chart"):
        pushforward_many(op, other, np.ones((2, 3)))


def test_verify_diffeo_rejects_a_wrong_inverse():
    c = DiffeoChart(CH2, CH2, (Var(0), add(Var(1), mul(Var(0), Var(0)))),
                    (Var(0), add(Var(1), mul(Var(0), Var(0)))))  # sign of x1^2 flipped
    pts = np.array([[0.5, 1.0], [1.0, 2.0]])
    with pytest.raises(ChartMismatchError, match=r"inverse map fails the round trip by 2\.000e\+00"):
        verify_diffeo(c, pts)


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


def test_integrate_negated_terms():
    # a Neg node expands to its argument's monomials with their signs flipped
    x1, x2 = Var(0), Var(1)
    assert ch._to_monomials(neg(mul(x1, x2)), 2) == {(1, 1): -1}
    w = OneFormExpr(CH2, (neg(mul(x1, x2)), neg(mul(const(Fraction(1, 2)), mul(x1, x1)))))
    assert format_expr(integrate_exact_one_form(w), CH2) == "-(1/2 * x1^2 * x2)"


def test_integrate_rejects_a_negative_power():
    w = OneFormExpr(CH2, (parse_expr("x1^-1", CH2), const(0)))
    with pytest.raises(NonPolynomialError, match="negative power is not polynomial"):
        integrate_exact_one_form(w)


def test_integrate_the_zero_form():
    # every coefficient cancels, so the potential has no monomial
    w = OneFormExpr(CH3, (parse_expr("x1 - x1", CH3), const(0), const(0)))
    assert integrate_exact_one_form(w) == const(0)


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


# each fixture annihilator's potential, as blockdiag prints it
FIXTURE_POTENTIALS = {
    "lfa1": {"E1": ["x2 + x3 - x4 - x6 + x7"], "E2": ["x1 + x4 - 2 * x7"], "E3": ["x1 - x4"],
             "E4": ["x3 - x6"],
             "E5": ["x3", "1/3 * x1^3 + x6", "x1 + x2 - x4 + x5 - x6 + x7"]},
    "lta": {"E1": ["x1 + x2 + x4"], "E2": ["x1 - x2 - x4"], "E3": ["x3 + x5"],
            "E4": ["x3", "x1 + x3 * x5 + x4"]},
}


def test_one_form_integration_evaluates_nothing(lfa1, lta, monkeypatch):
    # closedness and dF = w are decided on exact monomials: no tree is
    # differentiated, evaluated at points or drawn from a random generator
    diffs = _count_calls(monkeypatch, ch, "diff")
    evals = _count_calls(monkeypatch, ch, "eval_many")
    monkeypatch.setattr(np.random, "default_rng", None)
    for key, man in (("lfa1", lfa1), ("lta", lta)):
        got = {name: [format_expr(integrate_exact_one_form(w), man.chart) for w in forms]
               for name, forms in man.annihilators.items()}
        assert got == FIXTURE_POTENTIALS[key]
    assert diffs == [] and evals == []


def test_monomial_expansion_is_bounded(lfa1, lta):
    # (x1 + .. + x7)^64 has about 1.3e8 monomials: the expansion stops at the
    # first step over MAX_MONOMIAL_PRODUCTS instead of running for hours,
    # while every fixture annihilator still integrates to its potential
    w = OneFormExpr(CH7, (parse_expr("(x1+x2+x3+x4+x5+x6+x7)^64", CH7),) + (const(0),) * 6)
    start = time.perf_counter()
    with pytest.raises(TorsionLabError, match=r"\(21021 products; at most 20000 allowed\)$"):
        integrate_exact_one_form(w)
    assert time.perf_counter() - start < 1.0
    for key, man in (("lfa1", lfa1), ("lta", lta)):
        got = {name: [format_expr(integrate_exact_one_form(form), man.chart) for form in forms]
               for name, forms in man.annihilators.items()}
        assert got == FIXTURE_POTENTIALS[key]


FORM_CASES = [
    (("x2", "x1", "0"), "x1 * x2"),
    (("x2", "2*x1", "0"), NotClosedError),
    (("x3", "x3", "x1"), NotClosedError),
    (("1", "x3", "x2"), "x1 + x2 * x3"),
    (("x1/x2", "1", "0"), NonPolynomialError),
    (("(10^60)^7*x2", "x1", "0"), NotClosedError),
    (("x2*x3", "x1*x3", "x1*x2 + 1"), "x1 * x2 * x3 + x3"),
    # d_2 w_1 = 1e-11 against d_1 w_2 = 0: exactly unequal at any scale
    (("1/100000000000*x2", "0", "0"), NotClosedError),
    # 10^6 d(x1^3 x2^2 / 7 + x1 x2), closed exactly though its float
    # derivatives differ by rounding
    (("10^6*(3/7*x1^2*x2^2 + x2)", "10^6*(2/7*x1^3*x2 + x1)", "0"),
     "1000000/7 * x1^3 * x2^2 + 1000000 * x1 * x2"),
]


@pytest.mark.parametrize("components", FORM_CASES)
def test_one_form_outcome_matches_every_variable_path(components):
    strings, expected = components
    w = OneFormExpr(CH3, tuple(parse_expr(s, CH3) for s in strings))
    if isinstance(expected, str):
        assert format_expr(integrate_exact_one_form(w), CH3) == expected
    else:
        with pytest.raises(expected):
            integrate_exact_one_form(w)


def test_not_closed_names_the_first_differing_monomial():
    # d_2 w_3 = x2 + x3 and d_3 w_2 = x2 + 3 x3^2 differ at x3 and at x3^2;
    # x3 comes first in sorted exponent order
    w = OneFormExpr(CH3, tuple(parse_expr(s, CH3) for s in
                               ("0", "x2*x3 + x3^3", "1/2*x2^2 + x2*x3")))
    with pytest.raises(NotClosedError, match=r"^d_2 w_3 != d_3 w_2: monomial x3 has "
                                             r"coefficient 1 against 0$"):
        integrate_exact_one_form(w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), k=st.integers(-12, 12), seed=st.integers(0, 10_000))
def test_integration_recovers_every_scaled_potential(n, k, seed):
    chart = Chart(n)
    rng = np.random.default_rng(seed)
    # degree <= 4: a product of two random quadratics plus a third
    f = random_poly_expr(chart, rng) * random_poly_expr(chart, rng) + random_poly_expr(chart, rng)
    s = Fraction(10) ** k
    w = tuple(diff(const(s) * f, i) for i in range(n))
    potential = integrate_exact_one_form(OneFormExpr(chart, w))
    want = {key: s * c for key, c in exact_monomials(f, n, 4).items() if any(key)}
    assert exact_monomials(potential, n, 4) == want
    point = tuple(Fraction(int(v), 7) for v in rng.integers(-9, 10, size=n))
    assert exact_at(potential, point) == s * (exact_at(f, point) - exact_at(f, (0,) * n))
    # adding c x_j dx_i (i != j) breaks closedness at every scale c = 10^k
    i, j = rng.choice(n, size=2, replace=False)
    broken = tuple(add(c, mul(const(s), Var(int(j)))) if m == i else c for m, c in enumerate(w))
    with pytest.raises(NotClosedError):
        integrate_exact_one_form(OneFormExpr(chart, broken))


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


@settings(max_examples=200, deadline=None, derandomize=True)
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


@pytest.mark.parametrize("mats", [[np.zeros((2, 3))], [np.zeros(3)], [np.zeros((1, 2, 2))]])
def test_detect_blocks_rejects_matrices_that_are_not_square(mats):
    with pytest.raises(DimensionMismatchError, match="expected a sequence of square matrices"):
        detect_blocks(mats)


def test_detect_blocks_hint_of_the_wrong_dimension_names_both_sizes():
    with pytest.raises(DimensionMismatchError,
                       match="hint sizes sum to 2, the matrices have dimension 3"):
        detect_blocks([np.eye(3)], BlockPartition((1, 1)), 1e-8)
