"""Expression parsing, differentiation, evaluation and sampling."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_difference
from torsionlab.errors import (
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
    Neg,
    Pow,
    SampleDomain,
    Sqrt,
    Sub,
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
    # the same name is accepted when allowed as a parameter
    e = parse_expr("x1 + foo", CH5, params=("foo",))
    assert eval_many(e, np.ones((1, 5)), params={"foo": 2.0})[0] == 3.0


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


def test_sample_points_domain_exhausted():
    dom = SampleDomain(box=((0.0, 0.1),), guards=(Var(0),), guard_eps=0.5, seed=0)
    with pytest.raises(DomainExhaustedError):
        sample_points(dom, 1, max_rejections=500)


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
