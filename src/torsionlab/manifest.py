"""Manifest ingestion: JSON descriptions of charts, operators and checks.

A manifest declares one chart, named operator fields (matrices of expression
strings), a guarded sample domain, tolerances, and optionally coordinate
changes, vector-field families, annihilator one-forms and golden data for
spectra and pushforwards.  All expression strings are parsed eagerly so that
errors carry their manifest location; within one load each distinct string
is parsed once per chart.  Unknown top-level, ``domain`` and ``tolerances``
keys and counts or numbers of the wrong type are errors naming their field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from .charts import DiffeoChart, OneFormExpr
from .errors import ExprParseError, ManifestError
from .expr import Chart, Expr, SampleDomain, parse_expr
from .fields import OperatorField, VectorFieldExpr

__all__ = ["Manifest", "SpectrumGolden", "ChainSpec", "load_manifest", "fixture_path"]

DEFAULT_TOLERANCES = {
    "vanish_rel": 1e-8,
    "rank": 1e-8,
    "cluster": 1e-4,
    "block": 1e-8,
}
DEFAULT_SAMPLES = 200
DEFAULT_SEED = 20220515
TOP_LEVEL_KEYS = ("schema", "chart", "level", "domain", "tolerances", "operators", "charts",
                  "fields", "annihilators", "spectrum", "pushforward_golden", "chains")
DOMAIN_KEYS = ("box", "guards", "guard_eps", "seed")


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


# Expressions parsed so far in one load_manifest call, keyed on (text, chart).
# A failed parse raises before it is stored.
_Memo = dict[tuple[str, Chart], Expr]


def _parse(text: Any, chart: Chart, where: str, memo: _Memo) -> Expr:
    if not isinstance(text, str):
        raise ManifestError(f"{where}: expected an expression string, got {type(text).__name__}")
    key = (text, chart)
    if key not in memo:
        try:
            memo[key] = parse_expr(text, chart)
        except ExprParseError as exc:
            raise ManifestError(f"{where}: {exc}") from exc
    return memo[key]


def _object(value: Any, where: str, known: tuple[str, ...]) -> dict:
    """``value`` as a JSON object whose keys are all in ``known``."""
    if not isinstance(value, dict):
        raise ManifestError(f"{where}: expected an object, got {type(value).__name__}")
    for key in value:
        if key not in known:
            raise ManifestError(f"{where}: unknown key {key!r} (known: {', '.join(known)})")
    return value


def _integer(value: Any, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ManifestError(f"{where}: expected an integer >= {minimum}, got {value!r}")
    return value


def _number(value: Any, where: str) -> float:
    """``value`` as a finite double."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(num := float(value)):
                return num
        except OverflowError:
            pass
    raise ManifestError(f"{where}: expected a finite number, got {value!r}")


def _parse_matrix(rows: Any, chart: Chart, where: str,
                  memo: _Memo) -> tuple[tuple[Expr, ...], ...]:
    n = chart.dim
    if not isinstance(rows, list) or len(rows) != n:
        raise ManifestError(f"{where}: expected {n} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ManifestError(f"{where}[{i}]: expected {n} entries")
        out.append(tuple(_parse(entry, chart, f"{where}[{i}][{j}]", memo)
                         for j, entry in enumerate(row)))
    return tuple(out)


def _parse_vector(comps: Any, chart: Chart, where: str, memo: _Memo) -> tuple[Expr, ...]:
    if not isinstance(comps, list) or len(comps) != chart.dim:
        raise ManifestError(f"{where}: expected {chart.dim} components")
    return tuple(_parse(c, chart, f"{where}[{k}]", memo) for k, c in enumerate(comps))


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
    _object(raw, str(path), TOP_LEVEL_KEYS)
    schema = raw.get("schema", 1)
    if schema != 1:
        raise ManifestError(f"{path}: unsupported schema {schema!r}")
    level = _integer(raw.get("level", 1), "level", 1)

    chart_spec = raw.get("chart")
    if not isinstance(chart_spec, dict) or "dim" not in chart_spec:
        raise ManifestError("chart: need an object with at least 'dim'")
    try:
        chart = Chart(_integer(chart_spec["dim"], "chart.dim", 1),
                      tuple(chart_spec.get("names", ())))
    except ValueError as exc:
        raise ManifestError(f"chart.names: {exc}") from exc
    memo: _Memo = {}

    dom_spec = _object(raw.get("domain", {}), "domain", DOMAIN_KEYS)
    box = dom_spec.get("box")
    if not isinstance(box, list) or len(box) != chart.dim:
        raise ManifestError(f"domain.box: expected {chart.dim} intervals")
    intervals = []
    for i, interval in enumerate(box):
        if not isinstance(interval, list) or len(interval) != 2:
            raise ManifestError(f"domain.box[{i}]: expected an interval [lo, hi], "
                                f"got {interval!r}")
        lo, hi = (_number(v, f"domain.box[{i}]") for v in interval)
        if lo > hi:
            raise ManifestError(f"domain.box[{i}]: empty interval [{lo}, {hi}]")
        intervals.append((lo, hi))
    guards = tuple(_parse(g, chart, f"domain.guards[{i}]", memo)
                   for i, g in enumerate(dom_spec.get("guards", [])))
    guard_eps = _number(dom_spec.get("guard_eps", 1e-3), "domain.guard_eps")
    if guard_eps <= 0:
        raise ManifestError(f"domain.guard_eps: must be positive, got {guard_eps}")
    domain = SampleDomain(
        box=tuple(intervals),
        guards=guards,
        guard_eps=guard_eps,
        seed=_integer(dom_spec.get("seed", DEFAULT_SEED), "domain.seed", 0),
    )

    tolerances = dict(DEFAULT_TOLERANCES)
    tol_spec = _object(raw.get("tolerances", {}), "tolerances", tuple(DEFAULT_TOLERANCES))
    for key, val in tol_spec.items():
        tolerances[key] = _number(val, f"tolerances.{key}")
        if tolerances[key] < 0:
            raise ManifestError(f"tolerances.{key}: must be >= 0, got {tolerances[key]}")

    ops_spec = raw.get("operators")
    if not isinstance(ops_spec, dict) or not ops_spec:
        raise ManifestError("operators: need at least one named matrix")
    operators = {
        name: OperatorField(chart, _parse_matrix(rows, chart, f"operators.{name}", memo))
        for name, rows in ops_spec.items()
    }

    charts: dict[str, DiffeoChart] = {}
    for name, spec in raw.get("charts", {}).items():
        dst = Chart(chart.dim, tuple(spec.get("names", ())))
        forward = _parse_vector(spec.get("forward"), chart, f"charts.{name}.forward", memo)
        inverse = None
        if spec.get("inverse") is not None:
            inverse = _parse_vector(spec["inverse"], dst, f"charts.{name}.inverse", memo)
        charts[name] = DiffeoChart(src=chart, dst=dst, forward=forward, inverse=inverse)

    families: dict[str, tuple[VectorFieldExpr, ...]] = {}
    for name, vectors in raw.get("fields", {}).items():
        families[name] = tuple(
            VectorFieldExpr(chart, _parse_vector(v, chart, f"fields.{name}[{i}]", memo))
            for i, v in enumerate(vectors))

    annihilators: dict[str, tuple[OneFormExpr, ...]] = {}
    for name, forms in raw.get("annihilators", {}).items():
        annihilators[name] = tuple(
            OneFormExpr(chart, _parse_vector(f, chart, f"annihilators.{name}[{i}]", memo))
            for i, f in enumerate(forms))

    spectrum = None
    if "spectrum" in raw:
        spec = raw["spectrum"]
        eigenvalues = {
            op: tuple(_parse(e, chart, f"spectrum.eigenvalues.{op}[{i}]", memo)
                      for i, e in enumerate(exprs))
            for op, exprs in spec.get("eigenvalues", {}).items()
        }
        distributions = tuple(
            tuple(VectorFieldExpr(chart, _parse_vector(
                      v, chart, f"spectrum.distributions[{i}][{j}]", memo))
                  for j, v in enumerate(basis))
            for i, basis in enumerate(spec.get("distributions", [])))
        ann = tuple(
            tuple(OneFormExpr(chart, _parse_vector(
                      w, chart, f"spectrum.annihilators[{i}][{j}]", memo))
                  for j, w in enumerate(basis))
            for i, basis in enumerate(spec.get("annihilators", [])))
        spectrum = SpectrumGolden(
            eigenvalues=eigenvalues,
            riesz=tuple(int(r) for r in spec.get("riesz", ())),
            ranks=tuple(int(r) for r in spec.get("ranks", ())),
            distributions=distributions,
            annihilators=ann,
        )

    golden: dict[str, dict[str, tuple[tuple[Expr, ...], ...]]] = {}
    for chart_name, per_op in raw.get("pushforward_golden", {}).items():
        if chart_name not in charts:
            raise ManifestError(f"pushforward_golden: unknown chart {chart_name!r}")
        dst = charts[chart_name].dst
        golden[chart_name] = {
            op: _parse_matrix(rows, dst, f"pushforward_golden.{chart_name}.{op}", memo)
            for op, rows in per_op.items()
        }

    chains: dict[str, ChainSpec] = {}
    for name, spec in raw.get("chains", {}).items():
        eigen = {op: _parse(e, chart, f"chains.{name}.eigenvalue.{op}", memo)
                 for op, e in spec.get("eigenvalue", {}).items()}
        chain_fields = tuple(
            VectorFieldExpr(chart, _parse_vector(v, chart, f"chains.{name}.fields[{i}]", memo))
            for i, v in enumerate(spec.get("fields", [])))
        chains[name] = ChainSpec(eigenvalue=eigen, fields=chain_fields)

    return Manifest(
        path=str(path),
        chart=chart,
        level=level,
        domain=domain,
        tolerances=tolerances,
        operators=operators,
        charts=charts,
        fields=families,
        annihilators=annihilators,
        spectrum=spectrum,
        pushforward_golden=golden,
        chains=chains,
    )
