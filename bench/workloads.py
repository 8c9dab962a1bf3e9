"""Workload definitions and the correctness oracle of the benchmark.

A workload is a fixed list of ``torsionlab`` CLI invocations; one pass runs
the whole list once.  The oracle takes its expected verdicts from the raw
fixture manifests (read here with :mod:`json`, not with the package's own
loader), so a report is judged against the fixture, not against itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

FIXTURES = ("lfa1.json", "lta.json")

# Block partitions printed in the source paper (README, "Two bundled fixture
# manifests"); the manifests carry no hint of their own.
HINTS = {"lfa1.json": "1,1,1,1,3", "lta.json": "1,1,1,2"}

# tower level each fixture vanishes at, as in the manifests' "level"
LEVELS = {"lfa1.json": "4", "lta.json": "3"}

WORKLOADS = ("tower", "spectral", "closure")


def invocations(workload: str, seed: int | None, tiny: bool = False) -> list[list[str]]:
    """CLI argument lists of one pass; ``tiny`` shrinks the sizes for the
    self-check.  ``seed`` reaches the program only as ``--seed``; ``None``
    keeps each manifest's own seed."""
    if workload == "tower":
        runs = [["torsion", "--manifest", f, "--level", LEVELS[f],
                 "--samples", "100" if tiny else "2000"] for f in FIXTURES]
    elif workload == "spectral":
        runs = [["spectrum", "--manifest", f] for f in FIXTURES]
    elif workload == "closure":
        runs = [["algebra", "--manifest", f, "--level", LEVELS[f],
                 "--combos", "2" if tiny else "50"] for f in FIXTURES]
        runs += [["blockdiag", "--manifest", f, "--chart", "y", "--hint", HINTS[f]]
                 for f in FIXTURES]
    else:
        raise ValueError(f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})")
    if tiny and workload != "tower":
        runs = [r + ["--samples", "16"] for r in runs]
    if seed is not None:
        runs = [r + ["--seed", str(seed)] for r in runs]
    return runs


def load_fixtures(fixture_dir: Path) -> dict[str, dict]:
    return {name: json.loads((fixture_dir / name).read_text(encoding="utf-8"))
            for name in FIXTURES}


def _opt(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_report(argv: list[str], report: dict, fixtures: dict[str, dict]) -> list[str]:
    """Problems found in one ``--json`` report; an empty list means correct.

    Residuals are checked against the manifest tolerance, never bit for bit,
    since a kernel change may move them in the last digits.
    """
    name = _opt(argv, "--manifest")
    man = fixtures[name]
    checks = {c["name"]: c for c in report.get("checks", [])}
    problems: list[str] = []

    def need(cond: bool, what: str) -> None:
        if not cond:
            problems.append(f"{argv[0]} {name}: {what}")

    def check(label: str) -> dict:
        c = checks.get(label)
        need(c is not None, f"missing check {label!r}")
        return c or {}

    need(report.get("command") == argv[0], "wrong command echoed")
    need(report.get("manifest") == name, "wrong manifest echoed")
    seed = _opt(argv, "--seed")
    want_seed = int(seed) if seed is not None else man["domain"]["seed"]
    need(report.get("seed") == want_seed, f"seed {report.get('seed')} != {want_seed}")
    need(report.get("passed") is True, "report not passed")
    ops = sorted(man["operators"])
    tols = man["tolerances"]

    if argv[0] == "torsion":
        level = man["level"]
        for op in ops:
            c = check(f"{op} vanishes by level {level}")
            need(c.get("first_vanishing_level") == level,
                 f"{op} first vanishing level {c.get('first_vanishing_level')} != {level}")
            for m in range(1, level + 1):
                c = check(f"{op} tau^({m})")
                res = c.get("residual")
                need(_finite(res), f"{op} tau^({m}) residual {res!r} not finite")
                if _finite(res):
                    need((res <= tols["vanish_rel"]) == (m == level),
                         f"{op} tau^({m}) residual {res:.3e} on the wrong side of the tolerance")
                need(c.get("vanishing") is (m == level), f"{op} tau^({m}) wrong vanishing flag")
    elif argv[0] == "spectrum":
        gold = man["spectrum"]
        want = sorted(zip(gold["riesz"], gold["ranks"]))
        for op in ops:
            c = check(f"{op} spectrum")
            need(c.get("passed") is True, f"{op} spectrum failed")
            # eigenvalues are listed in ascending order at the first sample
            # point, so the golden (Riesz index, rank) pairs match as a multiset
            got = sorted(zip(c.get("riesz", []), c.get("ranks", [])))
            need(got == want, f"{op} (riesz, rank) pairs {got} != {want}")
            # the golden eigenvalues are expressions in the point, which the
            # report does not carry: check their number and the constant ones
            golden = gold["eigenvalues"][op]
            eigs = c.get("eigenvalues", [])
            need(len(eigs) == len(golden), f"{op} {len(eigs)} eigenvalues != {len(golden)}")
            for expr in golden:
                try:
                    value = float(expr)
                except ValueError:
                    continue
                need(any(_finite(e) and abs(e - value) <= tols["cluster"] for e in eigs),
                     f"{op} constant eigenvalue {expr} missing from {eigs}")
            need(c.get("regular") is True, f"{op} not regular")
            need(c.get("minimal_poly_degree") == sum(gold["riesz"]),
                 f"{op} minimal polynomial degree {c.get('minimal_poly_degree')}")
    elif argv[0] == "algebra":
        for label in ("commutativity", "module closure", "ring closure"):
            c = check(label)
            need(c.get("passed") is True, f"{label} failed")
            res = c.get("worst_residual")
            need(_finite(res) and res <= tols["vanish_rel"], f"{label} residual {res!r}")
        c = check(f"{ops[0]} cyclic basis")
        need(c.get("exponents") == list(range(sum(man["spectrum"]["riesz"]))),
             f"cyclic basis exponents {c.get('exponents')}")
    elif argv[0] == "blockdiag":
        chart = _opt(argv, "--chart")
        partition = _opt(argv, "--hint").replace(",", "|")
        for op in ops:
            c = check(f"{op} blocks")
            # with a hint the program reports the hint as the partition, so
            # this only checks the echo; the off-block residual checks it
            need(c.get("partition") == partition,
                 f"{op} partition {c.get('partition')} != {partition}")
            res = c.get("off_block_residual")
            need(_finite(res) and res <= tols["block"], f"{op} off-block residual {res!r}")
        for op in man.get("pushforward_golden", {}).get(chart, {}):
            c = check(f"{op} matches printed matrix")
            res = c.get("residual")
            need(_finite(res) and res <= tols["block"], f"{op} printed-matrix residual {res!r}")
        for form, rows in man.get("annihilators", {}).items():
            for idx in range(len(rows)):
                need(check(f"integrate {form}[{idx}]").get("passed") is True,
                     f"integrate {form}[{idx}] failed")
    return problems
