"""Expression parsing, differentiation, evaluation and sampling."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_difference, sample_points_reference
from torsionlab.errors import (
    ConstantRangeError,
    DomainExhaustedError,
    EvalDomainError,
    ExprParseError,
    SingularityError,
    UnknownVariableError,
)
from torsionlab.expr import (
    Add,
    Cbrt,
    Chart,
    Const,
    Div,
    Mul,
    Pow,
    SampleDomain,
    Var,
    add,
    const,
    diff,
    div,
    eval_at,
    eval_many,
    format_expr,
    mul,
    neg,
    parse_expr,
    pow_int,
    sample_points,
    sqrt,
    cbrt,
    sub,
    variables,
)

CH5 = Chart(5)
CH2 = Chart(2)
CHY7 = Chart(7, tuple(f"y{i}" for i in range(1, 8)))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_sum_of_variables():
    e = parse_expr("x1 + x2 + x4", CH5)
    assert e == Add(Add(Var(0), Var(1)), Var(3))


def test_parse_reciprocal_and_singularity():
    e = parse_expr("1/x1", CH5)
    assert e == Div(Const(Fraction(1)), Var(0))
    with pytest.raises(SingularityError):
        eval_at(e, (0.0, 1.0, 1.0, 1.0, 1.0))


def test_parse_chi_cube_root():
    e = parse_expr("cbrt(3*(y4 - y5 + y6))", CHY7)
    assert isinstance(e, Cbrt)
    # 3 (y4 - y5 + y6) = -8  ->  real cube root is exactly -2
    p = (0.0, 0.0, 0.0, 1.0, 2.0, Fraction(-5, 3), 0.0)
    assert eval_at(e, [float(c) for c in p]) == -2.0


def test_parse_rational_number_folding():
    assert parse_expr("1/2", CH5) == Const(Fraction(1, 2))
    assert parse_expr("-3/4", CH5) == Const(Fraction(-3, 4))
    assert parse_expr("0.5", CH5) == Const(Fraction(1, 2))


def test_parse_precedence_and_power():
    e = parse_expr("x1 + x2*x3^2", CH5)
    assert e == Add(Var(0), Mul(Var(1), Pow(Var(2), 2)))
    e = parse_expr("x1^-2", CH5)
    assert e == Pow(Var(0), -2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ExprParseError) as err:
        parse_expr("x1 + * x2", CH5)
    assert err.value.pos == 5


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse_expr("x1 + foo", CH5)


@pytest.mark.parametrize("name", ["x0", "x6", "x01", "x", "y1", "X1", "x" + "9" * 5000])
def test_default_names_are_x1_to_xn(name):
    with pytest.raises(UnknownVariableError):
        parse_expr(name, CH5)


def test_default_names_are_not_spelled_out():
    assert [parse_expr(f"x{i}", CH5) for i in range(1, 6)] == [Var(i) for i in range(5)]
    assert Chart(3, ("x1", "x2", "x3")) == Chart(3) and Chart(3).var_names == ()
    assert Chart(3, ("x1", "x3", "x2")) != Chart(3)
    huge = Chart(10 ** 9)
    assert format_expr(parse_expr("x1000000000 - x1", huge), huge) == "x1000000000 - x1"


def test_parse_exponent_bound():
    parse_expr("x1^64", CH5)
    with pytest.raises(ExprParseError):
        parse_expr("x1^65", CH5)


@pytest.mark.parametrize("text,chart", [
    ("x1 + x2 + x4", CH5),
    ("1/x1", CH5),
    ("-x3 - 1", CH5),
    ("x4 + x3*(x5 + 1)", CH5),
    ("x4 + x3*x5 - 1", CH5),
    ("(y1 + y2)/2 + 1", CHY7),
    ("-(y3 - 2*y4)^2", CHY7),
    ("cbrt(3*(y4 - y5 + y6)) + 3*(y4 - y5 + y6)", CHY7),
    ("-1/cbrt(3*(y4 - y5 + y6))", CHY7),
    ("sqrt(x1) * x2^3 / (x3 - 7/2)", CH5),
])
def test_parse_print_parse_fixed_point(text, chart):
    first = parse_expr(text, chart)
    second = parse_expr(format_expr(first, chart), chart)
    assert first == second


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_diff_product_of_variables():
    e = parse_expr("x1*x2", CH5)
    assert diff(e, 0) == Var(1)
    assert diff(e, 1) == Var(0)


def test_diff_reciprocal():
    e = parse_expr("1/x1", CH5)
    d = diff(e, 0)
    p = (1.7, 0.0, 0.0, 0.0, 0.0)
    assert eval_at(d, p) == pytest.approx(-1 / 1.7**2, rel=1e-14)


def test_diff_cbrt_matches_finite_differences():
    # d cbrt(3 x4) checked against central differences at guarded points
    e = parse_expr("cbrt(3*x4)", CH5)
    d = diff(e, 3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(0.5, 2.5, size=5)
        fd = central_difference(e, 3, p)
        assert eval_at(d, p) == pytest.approx(fd, rel=1e-6)


def test_diff_sqrt():
    e = sqrt(Var(0))
    assert eval_at(diff(e, 0), (4.0, 0.0)) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_variables_are_those_the_expression_contains():
    e = parse_expr("x3*sqrt(x1) - cbrt(2/x3)^2 + -x5", CH5)
    assert variables(e) == (0, 2, 4)
    assert variables(const(3)) == ()
    # along every other variable the derivative is the exact zero
    assert [diff(e, var) for var in (1, 3)] == [const(0), const(0)]


def test_eval_simple_sum():
    e = parse_expr("x1 + x2", CH5)
    assert eval_at(e, (2.0, 3.0, 0.0, 0.0, 0.0)) == 5.0


def test_eval_sqrt_domain_error():
    e = parse_expr("sqrt(x1 - 2)", CH5)
    with pytest.raises(EvalDomainError):
        eval_at(e, (1.0, 0.0, 0.0, 0.0, 0.0))


def test_eval_negative_power_guard_is_singularity():
    e = parse_expr("x1^-2", CH5)
    with pytest.raises(SingularityError):
        eval_at(e, (0.0, 0.0, 0.0, 0.0, 0.0))


def test_singularity_names_the_first_point():
    pts = np.array([[2.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0, 0.0]])
    for text in ("1/(x1 - 1)", "(x1 - 1)^-2"):
        with pytest.raises(SingularityError, match=r"at point \(1\.0, 0\.5, 0\.0, 0\.0, 0\.0\)$"):
            eval_many(parse_expr(text, CH5), pts)
    # a constant divisor fails at every point, so the first one is named
    with pytest.raises(SingularityError, match=r"at point \(2\.0, 0\.0, 0\.0, 0\.0, 0\.0\)$"):
        eval_many(Div(Const(Fraction(1)), Const(Fraction(0))), pts)
    with pytest.raises(SingularityError, match="during evaluation$"):
        eval_many(Div(Const(Fraction(1)), Const(Fraction(0))), pts[:0])


def test_eval_many_vectorized_matches_scalar():
    e = parse_expr("x1*x2 - 1/x3 + cbrt(x4)", CH5)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.5, 2.0, size=(40, 5))
    batch = eval_many(e, pts)
    for k in range(40):
        assert batch[k] == pytest.approx(eval_at(e, pts[k]), rel=1e-15)


def test_eval_many_returns_fresh_float_arrays():
    pts = np.arange(15.0).reshape(3, 5)
    for e in (const(2), Var(0), parse_expr("x1 + x2", CH5)):
        out = eval_many(e, pts)
        assert out.shape == (3,) and out.dtype == np.float64
        assert out.flags.writeable and not np.shares_memory(out, pts)
    assert eval_many(const(2), pts).tolist() == [2.0, 2.0, 2.0]
    assert eval_many(Var(0), pts).tolist() == pts[:, 0].tolist()


@pytest.mark.parametrize("e", [
    parse_expr(f"{10 ** 400}*x1", CH2),
    parse_expr(f"{10 ** 401}/10 + x1", CH2),
    # the quotient rule folds the squared denominator into one constant
    diff(parse_expr(f"x1^2/{10 ** 200}", CH2), 0),
], ids=["literal", "folded-division", "derivative"])
def test_constant_outside_double_range_is_named(e):
    with pytest.raises(ConstantRangeError,
                       match=f"constant {10 ** 400} is outside the double range"):
        eval_many(e, np.ones((3, 2)))


# ---------------------------------------------------------------------------
# guarded sampling
# ---------------------------------------------------------------------------

def test_sample_points_reproducible():
    dom = SampleDomain(box=((1, 2),) * 5, guards=(Var(0),), guard_eps=1e-3, seed=42)
    a = sample_points(dom, 3)
    b = sample_points(dom, 3)
    assert np.array_equal(a, b)
    assert a.shape == (3, 5)
    # a longer draw extends the same sequence
    c = sample_points(dom, 10)
    assert np.array_equal(c[:3], a)


def test_sample_points_guard_contract():
    dom = SampleDomain(box=((-1, 1),), guards=(Var(0),), guard_eps=0.5, seed=7)
    pts = sample_points(dom, 200)
    assert np.all(np.abs(pts[:, 0]) > 0.5)


def test_sample_points_guard_constant_outside_double_range():
    # the guard drops rows on singular or domain errors; this one fails every row
    dom = SampleDomain(box=((1, 2),) * 2, guards=(parse_expr(f"{10 ** 400}*x1", CH2),))
    with pytest.raises(ConstantRangeError):
        sample_points(dom, 5)


def test_sample_points_guard_failing_every_batch_judges_row_by_row():
    # sqrt(x1 - 3/2) leaves the real domain on about half of any batch, so
    # each batch falls back to judging its rows one at a time
    guard = parse_expr("sqrt(x1 - 3/2)", CH2)
    dom = SampleDomain(box=((1, 2),) * 2, guards=(guard,), guard_eps=0.1, seed=5)
    cands = 1 + np.random.default_rng(5).random((200, 2))
    with pytest.raises(EvalDomainError):
        eval_many(guard, cands[:20])  # the first batch of sample_points(dom, 20)
    # the candidates are drawn row by row, so a longer draw is the same stream
    kept = [row for row in cands if row[0] >= 1.5 and np.sqrt(row[0] - 1.5) > 0.1]
    got = sample_points(dom, 20)
    assert got.tobytes() == np.array(kept[:20]).tobytes()


def test_sample_points_domain_exhausted():
    dom = SampleDomain(box=((0.0, 0.1),), guards=(Var(0),), guard_eps=0.5, seed=0)
    with pytest.raises(DomainExhaustedError):
        sample_points(dom, 1, max_rejections=500)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lows=st.lists(st.integers(-8, 8), min_size=3, max_size=3),
       widths=st.lists(st.integers(0, 12), min_size=3, max_size=3),
       dim=st.integers(1, 3),
       guards=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                 st.integers(-16, 16), st.booleans()), max_size=3),
       guard_eps=st.sampled_from([0.05, 0.3, 0.9, 1.5]), count=st.integers(1, 40),
       max_rejections=st.integers(0, 60), seed=st.integers(0, 2 ** 32))
def test_sample_points_matches_row_by_row_reference(lows, widths, dim, guards, guard_eps,
                                                   count, max_rejections, seed):
    # box sides [lo/4, (lo + w)/4]; guards x_i - c/8 or x_i x_j - c/8
    box = tuple((lo / 4, (lo + w) / 4) for lo, w in zip(lows[:dim], widths[:dim]))
    guards = tuple((Var(i % dim) * Var(j % dim) if quadratic else Var(i % dim))
                   - const(Fraction(c, 8)) for i, j, c, quadratic in guards)
    dom = SampleDomain(box=box, guards=guards, guard_eps=guard_eps, seed=seed)
    try:
        expected = sample_points_reference(dom, count, max_rejections)
    except DomainExhaustedError as exc:
        with pytest.raises(DomainExhaustedError) as got:
            sample_points(dom, count, max_rejections=max_rejections)
        assert str(got.value) == str(exc)
        return
    got = sample_points(dom, count, max_rejections=max_rejections)
    assert got.shape == expected.shape == (count, dim) and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_sample_points_counts_rejections_across_batches():
    # accepts x1 < 0.1 and x1 > 0.9; at this seed the first batch of 16
    # candidates holds 4 of the 6 points and ends in 5 rejections, and the
    # second batch starts with 3 more: the only run of 8 straddles the boundary
    dom = SampleDomain(box=((0.0, 1.0),), guards=(Var(0) - const("1/2"),),
                       guard_eps=0.4, seed=19)
    ok = np.abs(np.random.default_rng(19).random(32) - 0.5) > 0.4
    assert ok[:16].sum() == 4 and not ok[11:19].any() and ok[10] and ok[19]
    with pytest.raises(DomainExhaustedError,
                       match="^8 consecutive rejections; guards too strict for the box$"):
        sample_points(dom, 6, max_rejections=8)
    got = sample_points(dom, 6, max_rejections=9)
    assert got.tobytes() == sample_points_reference(dom, 6, 9).tobytes()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def _ast_strategy(dim: int):
    leaves = st.one_of(
        st.integers(-5, 5).map(const),
        st.builds(lambda n, d: const(Fraction(n, d)), st.integers(-6, 6), st.integers(1, 4)),
        st.integers(0, dim - 1).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.builds(add, children, children),
            st.builds(sub, children, children),
            st.builds(mul, children, children),
            st.builds(div, children, children),
            st.builds(neg, children),
            st.builds(pow_int, children, st.integers(-3, 3)),
            st.builds(sqrt, children),
            st.builds(cbrt, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_ast_strategy(3))
def test_printer_is_faithful(e):
    chart = Chart(3)
    printed = format_expr(e, chart)
    assert parse_expr(printed, chart) == e


def _poly_strategy(dim: int):
    leaves = st.one_of(
        st.integers(-4, 4).map(const),
        st.integers(0, dim - 1).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.builds(add, children, children),
            st.builds(sub, children, children),
            st.builds(mul, children, children),
            st.builds(lambda c, k: pow_int(c, k), children, st.integers(2, 3)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_poly_strategy(3), st.integers(0, 2), st.integers(0, 10_000))
def test_derivative_matches_central_difference(e, var, salt):
    rng = np.random.default_rng(salt)
    p = rng.uniform(0.5, 1.5, size=3)
    fd = central_difference(e, var, p)
    exact = eval_at(diff(e, var), p)
    assert abs(exact - fd) <= 1e-5 * max(1.0, abs(fd), abs(exact))
