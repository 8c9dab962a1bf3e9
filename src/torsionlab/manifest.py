"""Manifest ingestion: JSON descriptions of charts, operators and checks.

A manifest declares one chart, named operator fields (matrices of expression
strings), a guarded sample domain, tolerances, and optionally coordinate
changes, vector-field families, annihilator one-forms and golden data for
spectra, pushforwards and Jordan chains.  Each JSON node is checked and built
by one reader of the table in :func:`_manifest`.  All expression strings are
parsed eagerly so that errors carry their manifest location; within one load
each distinct string is parsed once per chart.  ``schema`` is the integer 1;
an unknown key at any level, a node of the wrong JSON type or range, and a
golden entry keyed by a name that is not an operator (or a chart) are errors
naming their path.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Container
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from .charts import DiffeoChart, OneFormExpr
from .errors import ExprParseError, ManifestError
from .expr import Chart, Expr, SampleDomain, parse_expr
from .fields import OperatorField, VectorFieldExpr
from .spectral import CLUSTER_TOL, RANK_TOL

__all__ = ["Manifest", "SpectrumGolden", "ChainSpec", "load_manifest", "fixture_path"]

DEFAULT_TOLERANCES = {
    "vanish_rel": 1e-8,
    "rank": RANK_TOL,
    "cluster": CLUSTER_TOL,
    "block": 1e-8,
}
DEFAULT_SAMPLES = 200
DEFAULT_SEED = 20220515


@dataclass(frozen=True)
class SpectrumGolden:
    """Reference spectral data: per-operator eigenvalue fields plus shared
    eigen-distributions and annihilator covectors, listed in one fixed order."""

    eigenvalues: dict[str, tuple[Expr, ...]]
    riesz: tuple[int, ...]
    ranks: tuple[int, ...]
    distributions: tuple[tuple[VectorFieldExpr, ...], ...]
    annihilators: tuple[tuple[OneFormExpr, ...], ...]


@dataclass(frozen=True)
class ChainSpec:
    """A Jordan chain shared by the fixture family, with per-operator eigenvalue."""

    eigenvalue: dict[str, Expr]
    fields: tuple[VectorFieldExpr, ...]


@dataclass(frozen=True)
class Manifest:
    path: str
    chart: Chart
    level: int
    domain: SampleDomain
    tolerances: dict[str, float]
    operators: dict[str, OperatorField]
    charts: dict[str, DiffeoChart] = field(default_factory=dict)
    fields: dict[str, tuple[VectorFieldExpr, ...]] = field(default_factory=dict)
    annihilators: dict[str, tuple[OneFormExpr, ...]] = field(default_factory=dict)
    spectrum: SpectrumGolden | None = None
    pushforward_golden: dict[str, dict[str, tuple[tuple[Expr, ...], ...]]] = field(default_factory=dict)
    chains: dict[str, ChainSpec] = field(default_factory=dict)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture manifest (e.g. ``"lta.json"``)."""
    if not name.endswith(".json"):
        name += ".json"
    return Path(str(resources.files("torsionlab") / "fixtures" / name))


# A reader takes a JSON node and its path ("" for the top level), checks the
# node and returns what it denotes, or raises a ManifestError naming the path.
_Reader = Callable[[Any, str], Any]


def _fail(where: str, text: str) -> ManifestError:
    return ManifestError(f"{where}: {text}" if where else text)


_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _expect(value: Any, where: str, kind: type) -> Any:
    """``value``, if it is a JSON object, array or string as ``kind`` says."""
    if not isinstance(value, kind):
        raise _fail(where, f"expected {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _fixed(fields: dict[str, tuple[_Reader, Any]], build: Callable[..., Any] = dict) -> _Reader:
    """An object with no key outside ``fields``, which gives each key's reader
    and the JSON value read in place of an absent key (None if it is required).
    The keys are read in the order of ``fields``; ``build`` takes what they denote
    as keyword arguments."""
    known = ", ".join(fields)

    def read(value: Any, where: str) -> Any:
        for key in _expect(value, where, dict):
            if key not in fields:
                raise _fail(where, f"unknown key {key!r} (known: {known})")
        return build(**{key: reader(value.get(key, default), f"{where}.{key}" if where else key)
                        for key, (reader, default) in fields.items()})
    return read


def _names(item: _Reader, known: Container[str] | None = None, what: str = "") -> _Reader:
    """An object of chosen names, each value read by ``item``; with ``known``,
    every name must be one of those (a ``what``)."""
    def read(value: Any, where: str) -> dict[str, Any]:
        out = {}
        for name, node in _expect(value, where, dict).items():
            if known is not None and name not in known:
                raise _fail(where, f"unknown {what} {name!r}")
            out[name] = item(node, f"{where}.{name}")
        return out
    return read


def _array(item: _Reader, length: int | None = None, what: str = "") -> _Reader:
    """An array, of ``length`` entries (``what``) if it is given, each read by ``item``."""
    def read(value: Any, where: str) -> tuple:
        if length is None:
            _expect(value, where, list)
        elif not isinstance(value, list) or len(value) != length:
            raise _fail(where, f"expected {length} {what}")
        return tuple(item(node, f"{where}[{i}]") for i, node in enumerate(value))
    return read


def _integer(minimum: int) -> _Reader:
    def read(value: Any, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise _fail(where, f"expected an integer >= {minimum}, got {value!r}")
        return value
    return read


def _number(bound: Callable[[float], bool] | None = None, rule: str = "") -> _Reader:
    """A finite number as a double; with ``bound``, one it holds for (``rule``)."""
    def read(value: Any, where: str) -> float:
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            try:
                num = float(value)
            except OverflowError:
                num = math.inf
            if math.isfinite(num):
                if bound is not None and not bound(num):
                    raise _fail(where, f"must be {rule}, got {num}")
                return num
        raise _fail(where, f"expected a finite number, got {value!r}")
    return read


def _json(value: Any, where: str) -> Any:
    return value


def _nullable(item: _Reader) -> _Reader:
    """A node read by ``item``, or null, which denotes None."""
    return lambda value, where: None if value is None else item(value, where)


def _schema(value: Any, where: str) -> int:
    if type(value) is not int or value != 1:
        raise _fail(where, f"unsupported schema {value!r}")
    return value


def _interval(value: Any, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail(where, f"expected an interval [lo, hi], got {value!r}")
    lo, hi = (_NUMBER(v, where) for v in value)
    if lo > hi:
        raise _fail(where, f"empty interval [{lo}, {hi}]")
    return lo, hi


# The readers that need no chart.
_NUMBER = _number()
_NAMES = _array(lambda value, where: _expect(value, where, str))
_POSITIVE_INT = _integer(1)
_COUNTS = _array(_POSITIVE_INT)
_SEED = _integer(0)
_GUARD_EPS = _number(lambda x: x > 0, "positive")
_TOLERANCES = _fixed({key: (_number(lambda x: x >= 0, ">= 0"), default)
                      for key, default in DEFAULT_TOLERANCES.items()})
_DIFFEO = _fixed({"names": (_NAMES, []), "forward": (_json, None), "inverse": (_json, None)})


def _chart(dim: int, names: tuple[str, ...], where: str) -> Chart:
    """The chart of ``dim`` and the variable ``names`` of the chart object at ``where``."""
    try:
        return Chart(dim, names)
    except ValueError as exc:
        raise _fail(f"{where}.names", str(exc)) from exc


_CHART = _fixed({"dim": (_POSITIVE_INT, None), "names": (_NAMES, [])},
                lambda dim, names: _chart(dim, names, "chart"))


# Expressions parsed so far in one load_manifest call, keyed on (text, chart).
# A failed parse raises before it is stored.
_Memo = dict[tuple[str, Chart], Expr]


def _on(chart: Chart, memo: _Memo) -> tuple[_Reader, _Reader, _Reader]:
    """The expression, vector and matrix readers on ``chart``, parsing through ``memo``."""
    def expr(value: Any, where: str) -> Expr:
        if not isinstance(value, str):
            raise _fail(where, f"expected an expression string, got {type(value).__name__}")
        key = (value, chart)
        if key not in memo:
            try:
                memo[key] = parse_expr(value, chart)
            except ExprParseError as exc:
                raise _fail(where, str(exc)) from exc
        return memo[key]

    n = chart.dim
    return expr, _array(expr, n, "components"), _array(_array(expr, n, "entries"), n, "rows")


def _manifest(chart: Chart, path: str) -> _Reader:
    """The reader of a manifest whose ``chart`` has been read, as README's
    "Manifest format" lays it out.  The sections are read in this order, so
    ``operators`` and ``charts`` are known to the golden sections that name them."""
    memo: _Memo = {}
    expr, vector, matrix = _on(chart, memo)
    # filled as they are read, before the golden sections that name their entries
    operators: dict[str, OperatorField] = {}
    charts: dict[str, DiffeoChart] = {}

    def operator(value: Any, where: str) -> OperatorField:
        return OperatorField(chart, matrix(value, where))

    def vector_field(value: Any, where: str) -> VectorFieldExpr:
        return VectorFieldExpr(chart, vector(value, where))

    def one_form(value: Any, where: str) -> OneFormExpr:
        return OneFormExpr(chart, vector(value, where))

    def diffeo(value: Any, where: str) -> DiffeoChart:
        spec = _DIFFEO(value, where)
        dst = _chart(chart.dim, spec["names"], where)
        _, dst_vector, _ = _on(dst, memo)
        return DiffeoChart(src=chart, dst=dst, forward=vector(spec["forward"], f"{where}.forward"),
                           inverse=_nullable(dst_vector)(spec["inverse"], f"{where}.inverse"))

    def operators_section(value: Any, where: str) -> dict[str, OperatorField]:
        if not isinstance(value, dict) or not value:
            raise _fail(where, "need at least one named matrix")
        operators.update(_names(operator)(value, where))
        return operators

    def charts_section(value: Any, where: str) -> dict[str, DiffeoChart]:
        charts.update(_names(diffeo)(value, where))
        return charts

    def pushforward_golden(value: Any, where: str) -> dict:
        out = {}
        for name, per_op in _names(_json, charts, "chart")(value, where).items():
            _, _, dst_matrix = _on(charts[name].dst, memo)
            out[name] = _names(dst_matrix, operators, "operator")(per_op, f"{where}.{name}")
        return out

    return _fixed({
        "schema": (_schema, 1),
        "chart": (lambda value, where: chart, None),  # read first, by load_manifest
        "level": (_POSITIVE_INT, 1),
        "domain": (_fixed({
            "box": (_array(_interval, chart.dim, "intervals"), None),
            "guards": (_array(expr), []),
            "guard_eps": (_GUARD_EPS, 1e-3),
            "seed": (_SEED, DEFAULT_SEED),
        }, SampleDomain), {}),
        "tolerances": (_TOLERANCES, {}),
        "operators": (operators_section, None),
        "charts": (charts_section, {}),
        "fields": (_names(_array(vector_field)), {}),
        "annihilators": (_names(_array(one_form)), {}),
        "spectrum": (_nullable(_fixed({
            "eigenvalues": (_names(_array(expr), operators, "operator"), {}),
            "riesz": (_COUNTS, []),
            "ranks": (_COUNTS, []),
            "distributions": (_array(_array(vector_field)), []),
            "annihilators": (_array(_array(one_form)), []),
        }, SpectrumGolden)), None),
        "pushforward_golden": (pushforward_golden, {}),
        "chains": (_names(_fixed({
            "eigenvalue": (_names(expr, operators, "operator"), {}),
            "fields": (_array(vector_field), []),
        }, ChainSpec)), {}),
    }, lambda schema, **sections: Manifest(path=path, **sections))


def load_manifest(path: str | Path) -> Manifest:
    """Read, parse and validate a manifest file."""
    path = Path(path)
    if not path.exists():
        bundled = fixture_path(path.name)
        if bundled.exists():
            path = bundled
        else:
            raise ManifestError(f"manifest file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read the manifest: {exc.strerror}") from exc

    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: top level must be an object")
    # every expression depends on the chart, so it is read first
    return _manifest(_CHART(raw.get("chart"), "chart"), str(path))(raw, "")
