"""Command-line front end.

Subcommands mirror the verification pipeline: ``torsion`` sweeps the tower
levels of named operators, ``spectrum`` reports pointwise spectral structure
and its regularity, ``algebra`` checks commutativity and module/ring closure,
``blockdiag`` integrates annihilator one-forms, pushes operators through a
chart and verifies the block partition.  ``--tol`` overrides the manifest
tolerance a subcommand judges by: ``vanish_rel`` for ``torsion`` and
``algebra``, ``block`` for ``blockdiag``; ``spectrum`` takes its cluster and
rank tolerances from the manifest only.

Reports are printed as markdown; ``--json OUT`` writes a machine-readable
report that is byte-identical across reruns with the same inputs (timing is
reported on stdout only) and never holds NaN or Infinity.  The exit code is
0 when every verdict passes, 1 when one fails and 2 on an input error, with
an ``error: ...`` line on stderr.  An evaluation
that leaves the domain, a non-finite value or a divisor below
``expr.SINGULARITY_EPS`` included, exits 2 and names the point; a constant
outside the double range exits 2 and names the constant, except in an
annihilator one-form, which ``blockdiag`` integrates in exact rationals
without converting any constant to a double.  So does bad
command-line input: a count below its minimum, a ``--tol`` that is negative
or not finite, a ``--hint`` that is not a list of positive block sizes
summing to the chart dimension, or an ``--operator`` named twice.  A
manifest that cannot be read or breaks the format (an unknown key, a
non-integer count, an empty interval, a bad tolerance, a section of the
wrong JSON type) exits 2 naming the file or field; so do a negative
``--seed``, guards that reject every candidate point and an unwritable
``--json`` path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra as alg
from . import charts as ch
from . import fields as fl
from . import spectral as sp
from .errors import (ConstantRangeError, DomainExhaustedError, EvalDomainError,
                     SingularityError, TorsionLabError)
from .expr import SampleDomain, format_expr, sample_points
from .manifest import DEFAULT_SAMPLES, Manifest, load_manifest

SCHEMA_VERSION = 1
# exit 2, never a failed check
_INPUT_ERRORS = (EvalDomainError, ConstantRangeError, SingularityError, DomainExhaustedError)


@dataclass
class Report:
    """Result of one CLI command: per-check verdicts plus an echo of inputs."""

    command: str
    manifest: str
    seed: int
    options: dict
    checks: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def add(self, name: str, passed: bool, **details) -> None:
        self.checks.append({"name": name, "passed": bool(passed), **details})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self) -> dict:
        # timing deliberately excluded: reruns must be byte-identical
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "manifest": os.path.basename(self.manifest),
            "seed": self.seed,
            "options": self.options,
            "checks": self.checks,
            "passed": self.passed,
        }

    def to_markdown(self) -> str:
        lines = [f"# torsionlab {self.command}",
                 "",
                 f"- manifest: `{self.manifest}`",
                 f"- seed: {self.seed}",
                 f"- options: `{json.dumps(self.options, sort_keys=True)}`",
                 ""]
        lines.append("| check | verdict | detail |")
        lines.append("|---|---|---|")
        for c in self.checks:
            detail = {k: v for k, v in c.items() if k not in ("name", "passed")}
            cell = json.dumps(detail, sort_keys=True).replace("|", "\\|")
            lines.append(f"| {c['name']} | {'PASS' if c['passed'] else 'FAIL'} | `{cell}` |")
        lines.append("")
        lines.append(f"overall: **{'PASS' if self.passed else 'FAIL'}** "
                     f"({self.elapsed_seconds:.2f}s)")
        return "\n".join(lines)


def _inputs(args, min_samples: int = 1) -> tuple[Manifest, SampleDomain, int, list[str]]:
    """The manifest, its domain under ``--seed``, the sample count and the operators."""
    if args.seed is not None:
        _at_least(args, "seed", 0)
    man = load_manifest(args.manifest)
    domain = man.domain if args.seed is None else replace(man.domain, seed=args.seed)
    n_pts = _at_least(args, "samples", min_samples)
    return man, domain, n_pts, _select_operators(man, args.operator)


def _resolve_level(man: Manifest, args) -> int:
    level = man.level if args.level is None else args.level
    if level < 1:
        raise TorsionLabError(f"torsion level must be >= 1, got {level}")
    return level


def _at_least(args, option: str, minimum: int = 1) -> int:
    value = getattr(args, option)
    if value < minimum:
        raise TorsionLabError(f"--{option} must be >= {minimum}, got {value}")
    return value


def _check_tol(tol: float | None) -> None:
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise TorsionLabError(f"--tol must be finite and >= 0, got {tol}")


def _block_hint(text: str) -> ch.BlockPartition:
    try:
        return ch.BlockPartition(tuple(int(s) for s in text.split(",")))
    except ValueError:
        raise TorsionLabError(
            f"--hint must be comma-separated positive block sizes, got {text!r}") from None


def _select_operators(man: Manifest, names: list[str]) -> list[str]:
    if not names:
        return sorted(man.operators)
    for i, name in enumerate(names):
        if name not in man.operators:
            raise TorsionLabError(
                f"operator {name!r} not in manifest (have: {', '.join(sorted(man.operators))})")
        if name in names[:i]:
            raise TorsionLabError(f"operator {name!r} is named twice")
    return names


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_torsion(args) -> Report:
    man, domain, n_pts, names = _inputs(args)
    level = _resolve_level(man, args)
    tol = args.tol if args.tol is not None else man.tolerances["vanish_rel"]
    report = Report("torsion", man.path, domain.seed,
                    {"operators": names, "level": level, "samples": n_pts, "tol": tol})

    pts = sample_points(domain, n_pts)
    for name in names:
        # one walk up the tower judges every level 1..level
        top = fl.is_vanishing(man.operators[name], level, domain, n_pts, tol, pts=pts)
        reps = (*top.lower, top)
        first = next((r.level for r in reps if r.vanishing), None)
        for r in reps:
            report.add(f"{name} tau^({r.level})", True,
                       residual=r.max_residual, vanishing=r.vanishing)
        report.add(f"{name} vanishes by level {level}", first is not None,
                   first_vanishing_level=first)
    return report


def cmd_spectrum(args) -> Report:
    man, domain, n_pts, names = _inputs(args, min_samples=2)  # regularity compares points
    cluster = man.tolerances["cluster"]
    rank_tol = man.tolerances["rank"]
    report = Report("spectrum", man.path, domain.seed,
                    {"operators": names, "samples": n_pts})
    pts = sample_points(domain, n_pts)  # one sample, shared by the operators
    for name in names:
        op = man.operators[name]
        try:
            spec = sp.spectrum_at(op, pts[0], cluster, rank_tol)
            degree = spec.minimal_poly_degree(rank_tol)
            reg = sp.regularity_check(op, domain, n_pts, cluster, rank_tol, pts=pts)
        except _INPUT_ERRORS:
            raise
        except TorsionLabError as exc:
            report.add(f"{name} spectrum", False, error=str(exc))
            continue
        report.add(
            f"{name} spectrum", reg.constant,
            eigenvalues=[round(v, 12) for v in spec.eigenvalues],
            riesz=list(spec.riesz),
            ranks=list(spec.ranks),
            minimal_poly_degree=degree,
            annihilator_dims=[b.shape[0] for b in spec.annihilators],
            regular=reg.constant,
            detail=reg.details,
        )
    return report


def cmd_algebra(args) -> Report:
    man, domain, n_pts, names = _inputs(args)
    level = _resolve_level(man, args)
    tol = args.tol if args.tol is not None else man.tolerances["vanish_rel"]
    _at_least(args, "combos")
    ops = [man.operators[n] for n in names]
    report = Report("algebra", man.path, domain.seed,
                    {"operators": names, "level": level, "combos": args.combos,
                     "samples": n_pts, "tol": tol})
    try:
        rep = alg.check_algebra(ops, level, domain, n_pts, args.combos, tol)
    except _INPUT_ERRORS:
        raise
    except TorsionLabError as exc:
        report.add("algebra closure", False, error=str(exc))
        return report
    report.add("commutativity", rep.commute_ok, worst_residual=rep.commute_worst)
    report.add("module closure", rep.module_closed, worst_residual=rep.module_worst)
    report.add("ring closure", rep.ring_closed, worst_residual=rep.ring_worst)
    pts = sample_points(domain, 1)
    try:
        exps = alg.cyclic_basis(ops[0], pts[0], man.tolerances["cluster"],
                                man.tolerances["rank"])
        report.add(f"{names[0]} cyclic basis", True, exponents=exps)
    except TorsionLabError as exc:
        report.add(f"{names[0]} cyclic basis", False, error=str(exc))
    return report


def cmd_blockdiag(args) -> Report:
    man, domain, n_pts, names = _inputs(args)
    tol = args.tol if args.tol is not None else man.tolerances["block"]
    if args.chart not in man.charts:
        raise TorsionLabError(
            f"chart {args.chart!r} not in manifest (have: {', '.join(sorted(man.charts))})")
    chart = man.charts[args.chart]
    hint = _block_hint(args.hint) if args.hint else None
    if hint is not None and hint.dim != chart.src.dim:
        raise TorsionLabError(f"--hint {args.hint} sums to {hint.dim}, "
                              f"the chart dimension is {chart.src.dim}")
    report = Report("blockdiag", man.path, domain.seed,
                    {"operators": names, "chart": args.chart, "samples": n_pts,
                     "tol": tol, "hint": args.hint})

    for name, forms in man.annihilators.items():
        for idx, form in enumerate(forms):
            try:
                potential = ch.integrate_exact_one_form(form)
                report.add(f"integrate {name}[{idx}]", True,
                           potential=format_expr(potential, man.chart))
            except _INPUT_ERRORS:
                raise
            except TorsionLabError as exc:
                report.add(f"integrate {name}[{idx}]", False, error=str(exc))

    pts = sample_points(domain, n_pts)
    frame = ch.jacobian_frame(chart, pts)  # one Jacobian for every operator
    golden = man.pushforward_golden.get(args.chart, {})
    for name in names:
        mats = ch.pushforward_many(man.operators[name], chart, pts, frame)
        part, residual = ch.detect_blocks(mats, hint, tol)
        ok = residual <= tol if hint is not None else True
        report.add(f"{name} blocks", ok,
                   partition="|".join(str(s) for s in part.sizes),
                   off_block_residual=residual)
        if name in golden:
            expected = ch.values_at_image(fl.OperatorField(chart.dst, golden[name]),
                                          chart, pts)
            scale = 1.0 + np.max(np.abs(expected))
            err = float(np.max(np.abs(mats - expected)) / scale)
            report.add(f"{name} matches printed matrix", err <= tol, residual=err)
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Torsion towers, spectra and block-diagonalization of operator fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def tol_option(p, key):
        p.add_argument("--tol", type=float, default=None,
                       help=f"override the manifest tolerance {key!r}")

    def common(p):
        p.add_argument("--manifest", required=True, help="manifest JSON file (or bundled fixture name)")
        p.add_argument("--operator", action="append", default=[],
                       help="operator name (repeatable; default: all)")
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="sample point count")
        p.add_argument("--seed", type=int, default=None, help="override the domain seed")
        p.add_argument("--json", dest="json_out", default=None, help="write JSON report here")

    p = sub.add_parser("torsion", help="first vanishing torsion level per operator")
    common(p)
    tol_option(p, "vanish_rel")
    p.add_argument("--level", type=int, default=None, help="highest level to test")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("spectrum", help="pointwise spectra and regularity")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("algebra", help="commutativity and module/ring closure")
    common(p)
    tol_option(p, "vanish_rel")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--combos", type=int, default=50, help="random combinations f K_a + g K_b "
                   "to draw (module law; the ring law checks every product K_a K_b)")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("blockdiag", help="pushforward and block structure under a chart")
    common(p)
    tol_option(p, "block")
    p.add_argument("--chart", required=True, help="name of the coordinate change")
    p.add_argument("--hint", default=None, help="comma-separated block sizes to verify")
    p.set_defaults(func=cmd_blockdiag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        _check_tol(getattr(args, "tol", None))  # spectrum has no --tol
        report: Report = args.func(args)
    except TorsionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed_seconds = time.perf_counter() - t0
    print(report.to_markdown())
    if args.json_out:
        try:
            payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True,
                                 allow_nan=False) + "\n"
        except ValueError as exc:  # NaN or Infinity: not valid JSON (RFC 8259)
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write --json {args.json_out}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
