"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import torsionlab.algebra as alg
import torsionlab.cli as cli
import torsionlab.fields as fl
import torsionlab.manifest as manifest_module
from torsionlab.cli import main
from torsionlab.errors import DomainExhaustedError, EvalDomainError, ManifestError
from torsionlab.expr import Var, sample_points
from torsionlab.manifest import fixture_path, load_manifest


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def cli_env(**extra):
    """The environment of a CLI subprocess: this checkout's package first."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def write_manifest(tmp_path, payload, name="man.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


IDENTITY_MANIFEST = {
    "schema": 1,
    "chart": {"dim": 2},
    "level": 1,
    "domain": {"box": [[0.5, 1.5], [0.5, 1.5]], "seed": 7},
    "operators": {"I": [["1", "0"], ["0", "1"]]},
}

NONCOMMUTING_MANIFEST = {
    "schema": 1,
    "chart": {"dim": 2},
    "level": 2,
    "domain": {"box": [[0.5, 1.5], [0.5, 1.5]], "seed": 7},
    "operators": {
        "A": [["1", "1"], ["0", "2"]],
        "B": [["1", "0"], ["1", "2"]],
    },
}


# the entry is zero, but x1^64 x2^64 overflows to inf on this box: inf - inf
NONFINITE_MANIFEST = {
    "schema": 1,
    "chart": {"dim": 2},
    "level": 1,
    "domain": {"box": [[1e3, 2e3], [1e3, 2e3]], "seed": 7},
    "operators": {"A": [["x1^64*x2^64 - x1^64*x2^64", "0"], ["0", "1"]]},
}


def test_torsion_identity_manifest(tmp_path, capsys):
    path = write_manifest(tmp_path, IDENTITY_MANIFEST)
    code, out = run_cli(["torsion", "--manifest", path, "--operator", "I",
                         "--level", "1", "--samples", "20"], capsys)
    assert code == 0
    assert "PASS" in out


def test_torsion_of_a_constant_operator_reads_zero_at_every_level(tmp_path, capsys):
    # dA = 0: each level is 0 against a bound of 0, which reads 0, and the
    # report stays valid JSON
    man = dict(IDENTITY_MANIFEST, operators={"C": [["2", "1"], ["0", "3"]]})
    out_json = tmp_path / "out.json"
    code, _ = run_cli(["torsion", "--manifest", write_manifest(tmp_path, man), "--level", "3",
                       "--samples", "20", "--json", str(out_json)], capsys)
    assert code == 0
    checks = json.loads(out_json.read_text())["checks"]
    assert [(c["name"], c["residual"], c["vanishing"]) for c in checks[:3]] == \
        [(f"C tau^({level})", 0.0, True) for level in (1, 2, 3)]
    assert checks[3]["first_vanishing_level"] == 1


def test_torsion_lta_first_vanishing_level(tmp_path, capsys):
    path = str(fixture_path("lta.json"))
    code, out = run_cli(["torsion", "--manifest", path, "--operator", "L1",
                         "--level", "3", "--samples", "40"], capsys)
    assert code == 0
    assert '"first_vanishing_level": 3' in out


def test_spectrum_command(capsys):
    code, out = run_cli(["spectrum", "--manifest", str(fixture_path("lta.json")),
                         "--operator", "L1", "--samples", "5"], capsys)
    assert code == 0
    assert '"minimal_poly_degree": 5' in out


def test_spectrum_constant_diagonal(tmp_path, capsys):
    man = dict(IDENTITY_MANIFEST)
    man["operators"] = {"D": [["2", "0"], ["0", "5"]]}
    path = write_manifest(tmp_path, man)
    code, out = run_cli(["spectrum", "--manifest", path, "--samples", "5"], capsys)
    assert code == 0
    assert '"ranks": [1, 1]' in out.replace("1,\n", "1, ")


def test_algebra_command_noncommuting_fails(tmp_path, capsys):
    path = write_manifest(tmp_path, NONCOMMUTING_MANIFEST)
    code, out = run_cli(["algebra", "--manifest", path, "--level", "2",
                         "--combos", "2", "--samples", "10"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_algebra_ring_law_misses_no_pair(tmp_path, capsys):
    # x2 I and diag(1, 0) are torsion-free, their product is not
    man = {**IDENTITY_MANIFEST, "domain": {"box": [[1, 2], [1, 2]], "seed": 0},
           "operators": {"A": [["x2", "0"], ["0", "x2"]], "B": [["1", "0"], ["0", "0"]]}}
    path = write_manifest(tmp_path, man)
    code, out = run_cli(["algebra", "--manifest", path, "--combos", "1"], capsys)
    assert code == 1
    assert "| ring closure | FAIL |" in out


def test_algebra_lta_family(capsys):
    code, out = run_cli(["algebra", "--manifest", str(fixture_path("lta.json")),
                         "--level", "3", "--combos", "3", "--samples", "20"], capsys)
    assert code == 0


def test_torsion_lfa1_first_vanishing_level(capsys):
    code, out = run_cli(["torsion", "--manifest", str(fixture_path("lfa1.json")),
                         "--operator", "K2", "--level", "4", "--samples", "25"], capsys)
    assert code == 0
    assert '"first_vanishing_level": 4' in out


def test_spectrum_lfa1(capsys):
    code, out = run_cli(["spectrum", "--manifest", str(fixture_path("lfa1.json")),
                         "--operator", "K3", "--samples", "4"], capsys)
    assert code == 0
    assert '"minimal_poly_degree": 7' in out


def test_algebra_lfa1_commuting_triple(capsys):
    code, out = run_cli(["algebra", "--manifest", str(fixture_path("lfa1.json")),
                         "--level", "4", "--combos", "3", "--samples", "20"], capsys)
    assert code == 0


def test_blockdiag_lfa1(capsys):
    code, out = run_cli(["blockdiag", "--manifest", str(fixture_path("lfa1.json")),
                         "--chart", "y", "--hint", "1,1,1,1,3", "--samples", "25"], capsys)
    assert code == 0
    assert "1\\|1\\|1\\|1\\|3" in out  # markdown-escaped partition


def test_blockdiag_lta(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, out = run_cli([
        "blockdiag", "--manifest", str(fixture_path("lta.json")), "--chart", "y",
        "--hint", "1,1,1,2", "--samples", "40", "--json", str(out_json)], capsys)
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert any("matches printed matrix" in n for n in names)
    assert any(c.get("partition") == "1|1|1|2" for c in payload["checks"])
    assert any(c.get("potential") == "x1 + x2 + x4" for c in payload["checks"])


def test_blockdiag_reports_an_oversized_expansion_as_a_failed_integration(tmp_path, capsys):
    n = 7
    man = {**IDENTITY_MANIFEST, "chart": {"dim": n}, "domain": {"box": [[0.5, 1.5]] * n, "seed": 7},
           "operators": {"I": [["1" if i == j else "0" for j in range(n)] for i in range(n)]},
           "charts": {"y": {"forward": [f"x{i + 1}" for i in range(n)]}},
           "annihilators": {"E": [["(x1+x2+x3+x4+x5+x6+x7)^64"] + ["0"] * (n - 1)]}}
    out_json = tmp_path / "report.json"
    code, _ = run_cli(["blockdiag", "--manifest", write_manifest(tmp_path, man), "--chart", "y",
                       "--samples", "10", "--json", str(out_json)], capsys)
    assert code == 1
    check = next(c for c in json.loads(out_json.read_text())["checks"]
                 if c["name"] == "integrate E[0]")
    assert not check["passed"]
    assert check["error"].endswith("(21021 products; at most 20000 allowed)")


def test_blockdiag_identity_chart(tmp_path, capsys):
    man = dict(IDENTITY_MANIFEST)
    man["operators"] = {"A": [["x1", "1"], ["0", "x2"]]}
    man["charts"] = {"id": {"forward": ["x1", "x2"]}}
    path = write_manifest(tmp_path, man)
    code, out = run_cli(["blockdiag", "--manifest", path, "--chart", "id",
                         "--samples", "10"], capsys)
    assert code == 0
    assert '"partition": "2"' in out


def test_json_reports_byte_identical(tmp_path, capsys):
    args = ["torsion", "--manifest", str(fixture_path("lta.json")),
            "--operator", "L2", "--level", "2", "--samples", "15"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(args + ["--json", str(a)])
    main(args + ["--json", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_unknown_operator_is_an_error(capsys):
    code = main(["torsion", "--manifest", str(fixture_path("lta.json")),
                 "--operator", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("extra", [["torsion"], ["spectrum"], ["algebra"],
                                   ["blockdiag", "--chart", "y"]])
def test_repeated_operator_is_an_error(capsys, extra):
    # a report keyed by check name would merge the two copies' checks
    code = main([*extra, "--manifest", str(fixture_path("lta.json")), "--operator", "L2",
                 "--operator", "L1", "--operator", "L2", "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "operator 'L2' is named twice" in captured.err


@pytest.mark.parametrize("command", ["torsion", "algebra"])
def test_level_below_one_is_an_error(capsys, command):
    code = main([command, "--manifest", str(fixture_path("lta.json")), "--level", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "torsion level must be >= 1" in err


@pytest.mark.parametrize("args, message", [
    (["torsion", "--samples", "-5"], "--samples must be >= 1, got -5"),
    (["torsion", "--samples", "0"], "--samples must be >= 1, got 0"),
    (["blockdiag", "--chart", "y", "--samples", "-5"], "--samples must be >= 1, got -5"),
    (["spectrum", "--samples", "1"], "--samples must be >= 2, got 1"),
    (["algebra", "--combos", "-3"], "--combos must be >= 1, got -3"),
    (["algebra", "--combos", "0"], "--combos must be >= 1, got 0"),
])
def test_counts_below_their_minimum_are_errors(capsys, args, message):
    code = main(args + ["--manifest", str(fixture_path("lta.json"))])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


@pytest.mark.parametrize("hint", ["1,x", "1,,3", "0,7", "-1,8", "7,"])
def test_bad_block_hint_is_an_input_error(capsys, hint):
    code = main(["blockdiag", "--manifest", str(fixture_path("lfa1.json")), "--chart", "y",
                 f"--hint={hint}", "--samples", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --hint must be comma-separated positive block sizes, got {hint!r}\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
@pytest.mark.parametrize("command", [["torsion"], ["spectrum"], ["algebra"],
                                     ["blockdiag", "--chart", "y"]])
def test_bad_tol_is_an_input_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                   command, tol):
    def no_work(*args, **kwargs):
        raise AssertionError("the manifest was loaded")

    monkeypatch.setattr(cli, "load_manifest", no_work)
    out_json = tmp_path / "out.json"
    argv = command + ["--manifest", str(fixture_path("lta.json")), f"--tol={tol}",
                      "--json", str(out_json)]
    if command == ["spectrum"]:
        # spectrum takes no --tol at all: the parser rejects it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
        assert f"error: unrecognized arguments: --tol={tol}\n" in capsys.readouterr().err
    else:
        code = main(argv)
        err = capsys.readouterr().err
        assert err == f"error: --tol must be finite and >= 0, got {float(tol)}\n"
    assert code == 2
    assert not out_json.exists()


def test_spectrum_rejects_tol_before_loading_the_manifest(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the manifest was loaded")

    monkeypatch.setattr(cli, "load_manifest", no_work)
    out_json = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--manifest", str(fixture_path("lta.json")), "--tol", "5",
              "--json", str(out_json)])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --tol 5" in capsys.readouterr().err
    assert not out_json.exists()


def test_hint_of_the_wrong_dimension_is_an_input_error_before_any_work(capsys,
                                                                       monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the hint was checked")

    monkeypatch.setattr(cli.ch, "integrate_exact_one_form", no_work)
    monkeypatch.setattr(cli.ch, "jacobian_frame", no_work)
    monkeypatch.setattr(cli.ch, "pushforward_many", no_work)
    code = main(["blockdiag", "--manifest", str(fixture_path("lfa1.json")), "--chart", "y",
                 "--hint", "1,1", "--samples", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: --hint 1,1 sums to 2, the chart dimension is 7\n"


BIG = str(10 ** 400)  # no double holds it


BLOCKDIAG = ["blockdiag", "--chart", "y"]


@pytest.mark.parametrize("command, where", [
    *((cmd, where) for where in ("entry", "guard")
      for cmd in (["torsion"], ["spectrum"], ["algebra", "--combos", "2"], BLOCKDIAG)),
    (BLOCKDIAG, "annihilator"),
])
def test_constant_outside_double_range_exits_2(tmp_path, capsys, command, where):
    man = {**IDENTITY_MANIFEST, "charts": {"y": {"forward": ["x1", "x2"]}},
           "annihilators": {"I": [["1", "0"]]}}
    if where == "entry":
        man["operators"] = {"I": [[f"{BIG}*x1", "0"], ["0", "1"]]}
    elif where == "guard":
        man["domain"] = {**man["domain"], "guards": [f"{BIG}*x1"]}
    else:
        man["annihilators"] = {"I": [[f"{BIG}", "0"]]}
    path = write_manifest(tmp_path, man)
    code = main(command + ["--manifest", path, "--samples", "10"])
    out, err = capsys.readouterr()
    if where == "annihilator":
        # one-forms are integrated in exact rationals: the constant is never
        # converted to a double, so the potential keeps it
        assert code == 0 and err == ""
        assert f"{BIG} * x1" in out
        return
    assert code == 2
    assert f"constant {BIG} is outside the double range" in err


@pytest.mark.parametrize("command, expected", [("torsion", 2), ("spectrum", 0)])
def test_constant_folded_by_the_quotient_rule_exits_2(tmp_path, capsys, command, expected):
    # x1^2 / 10^200 evaluates; its derivative divides by the constant 10^400
    man = {**IDENTITY_MANIFEST, "operators": {"A": [[f"x1^2/{10 ** 200}", "0"], ["0", "1"]]}}
    path = write_manifest(tmp_path, man)
    code = main([command, "--manifest", path, "--samples", "10"])
    err = capsys.readouterr().err
    assert code == expected
    if expected == 2:
        assert f"constant {BIG} is outside the double range" in err


def test_manifest_parse_error_location(tmp_path, capsys):
    man = json.loads(json.dumps(IDENTITY_MANIFEST))
    man["operators"]["I"][0][1] = "x1 + + 3"
    path = write_manifest(tmp_path, man)
    code = main(["torsion", "--manifest", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "operators.I[0][1]" in err


def _with(path, value):
    """IDENTITY_MANIFEST with the entry at the key ``path`` set to ``value``."""
    man = json.loads(json.dumps(IDENTITY_MANIFEST))
    *parents, leaf = path
    owner = man
    for key in parents:
        owner = owner.setdefault(key, {})
    owner[leaf] = value
    return man


@pytest.mark.parametrize("man, message", [
    (_with(("chart", "dim"), "five"), "chart.dim: expected an integer >= 1, got 'five'"),
    (_with(("chart", "dim"), 2.5), "chart.dim: expected an integer >= 1, got 2.5"),
    (_with(("chart", "dim"), 0), "chart.dim: expected an integer >= 1, got 0"),
    (_with(("level",), "abc"), "level: expected an integer >= 1, got 'abc'"),
    (_with(("level",), 1.5), "level: expected an integer >= 1, got 1.5"),
    (_with(("domain", "seed"), 7.9), "domain.seed: expected an integer >= 0, got 7.9"),
    (_with(("domain", "seed"), -1), "domain.seed: expected an integer >= 0, got -1"),
    (_with(("domain", "box"), [[0.5, 1.5, 2.0], [0.5, 1.5]]),
     "domain.box[0]: expected an interval [lo, hi], got [0.5, 1.5, 2.0]"),
    (_with(("domain", "box"), [[0.5, 1.5], [1.5, 0.5]]),
     "domain.box[1]: empty interval [1.5, 0.5]"),
    (_with(("domain", "guard_eps"), -1), "domain.guard_eps: must be positive, got -1.0"),
    (_with(("domain", "sede"), 3), "domain: unknown key 'sede'"),
    (_with(("tolerances", "rank"), "tiny"),
     "tolerances.rank: expected a finite number, got 'tiny'"),
    (_with(("tolerances", "vanish-rel"), 1e-3), "tolerances: unknown key 'vanish-rel'"),
    (_with(("levle",), 2), "unknown key 'levle'"),
    (_with(("schema",), True), "unsupported schema True"),
    (_with(("schema",), 1.0), "unsupported schema 1.0"),
])
def test_bad_manifest_field_exits_2_naming_it(tmp_path, capsys, man, message):
    # each was a traceback (exit 1, like a failed verdict) or silently absorbed
    path = write_manifest(tmp_path, man)
    code = main(["torsion", "--manifest", path, "--samples", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err


def _node(man, path):
    """The node of the JSON value ``man`` at the key ``path``."""
    for key in path:
        man = man[key]
    return man


def _fixture_with(path, value, fixture="lta.json"):
    """A bundled fixture with the entry at the key ``path`` set to ``value``."""
    man = json.loads(fixture_path(fixture).read_text(encoding="utf-8"))
    _node(man, path[:-1])[path[-1]] = value
    return man


@pytest.mark.parametrize("path, value, message", [
    (("charts",), [1], "charts: expected an object, got list"),
    (("charts", "y"), "y", "charts.y: expected an object, got str"),
    (("charts", "y", "names"), ["a"], "charts.y.names: need exactly one name per dimension"),
    (("chart", "names"), 5, "chart.names: expected an array, got int"),
    (("chart", "names"), [1, 2, 3, 4, 5], "chart.names[0]: expected a string, got int"),
    (("domain", "guards"), "x1 > 0", "domain.guards: expected an array, got str"),
    (("fields",), [], "fields: expected an object, got list"),
    (("fields", "D4_span"), {}, "fields.D4_span: expected an array, got dict"),
    (("annihilators",), "E1", "annihilators: expected an object, got str"),
    (("annihilators", "E1"), 1, "annihilators.E1: expected an array, got int"),
    (("spectrum",), [], "spectrum: expected an object, got list"),
    (("spectrum", "riesz"), ["a"], "spectrum.riesz[0]: expected an integer >= 1, got 'a'"),
    (("spectrum", "ranks"), [1.5], "spectrum.ranks[0]: expected an integer >= 1, got 1.5"),
    (("spectrum", "eigenvalues", "L1"), "0",
     "spectrum.eigenvalues.L1: expected an array, got str"),
    (("spectrum", "distributions"), [1], "spectrum.distributions[0]: expected an array, got int"),
    (("pushforward_golden",), None, "pushforward_golden: expected an object, got NoneType"),
    (("pushforward_golden", "y"), [], "pushforward_golden.y: expected an object, got list"),
    (("chains",), [], "chains: expected an object, got list"),
    (("chains", "D4"), 1, "chains.D4: expected an object, got int"),
    (("chains", "D4", "eigenvalue"), [], "chains.D4.eigenvalue: expected an object, got list"),
    (("chains", "D4", "fields"), {}, "chains.D4.fields: expected an array, got dict"),
])
def test_mistyped_optional_section_exits_2_naming_it(tmp_path, capsys, path, value, message):
    # most died with a TypeError, AttributeError or ValueError traceback,
    # whose exit 1 reads as a failed verdict; the others were absorbed
    # (a 1.5 rank read as 1, an object of fields read as no fields) or
    # named the wrong field (a guards string parsed letter by letter)
    code = main(["torsion", "--manifest", write_manifest(tmp_path, _fixture_with(path, value)),
                 "--samples", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("entries", [("pushforward_golden", "y"), ("spectrum", "eigenvalues"),
                                     ("chains", "D4", "eigenvalue")])
def test_golden_entry_of_no_operator_exits_2_naming_it(tmp_path, capsys, entries):
    # a golden entry under a misspelt operator name was never checked: with
    # pushforward_golden.y.L9, blockdiag --chart y passed and never ran
    # "L1 matches printed matrix"
    man = json.loads(fixture_path("lta.json").read_text(encoding="utf-8"))
    golden = _node(man, entries)
    golden["L9"] = golden.pop("L1")
    code = main(["blockdiag", "--manifest", write_manifest(tmp_path, man), "--chart", "y",
                 "--samples", "5"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {'.'.join(entries)}: unknown operator 'L9'\n"


def test_chart_dim_beyond_the_box_costs_no_memory(tmp_path):
    # the default variable names of chart.dim are not built, so a dim no
    # box matches is rejected at the box without memory per dimension
    path = write_manifest(tmp_path, {**IDENTITY_MANIFEST, "chart": {"dim": 10 ** 6},
                                     "domain": {"box": [[0, 1]]}})
    tracemalloc.start()
    try:
        with pytest.raises(ManifestError, match=r"^domain\.box: expected 1000000 intervals$"):
            load_manifest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# every object of the format whose keys are fixed, by fixture
FIXED_KEY_OBJECTS = [(fixture, where) for fixture in ("lfa1.json", "lta.json")
                     for where in [(), ("chart",), ("domain",), ("tolerances",), ("charts", "y"),
                                   ("spectrum",), ("chains", "D4")]
                     if fixture == "lta.json" or where != ("chains", "D4")]


@pytest.mark.parametrize("fixture, where", FIXED_KEY_OBJECTS,
                         ids=[f"{f}:{'.'.join(w) or 'top'}" for f, w in FIXED_KEY_OBJECTS])
def test_unknown_key_in_a_fixed_key_object_names_its_path(tmp_path, fixture, where):
    # chart, charts.<name>, spectrum and chains.<name> ignored unknown keys,
    # so a misspelt chains.D4.feilds loaded as a chain with no fields
    man = json.loads(fixture_path(fixture).read_text(encoding="utf-8"))
    _node(man, where)["feilds"] = []
    prefix = f"{'.'.join(where)}: " if where else ""
    with pytest.raises(ManifestError, match=f"^{re.escape(prefix)}unknown key 'feilds' "):
        load_manifest(write_manifest(tmp_path, man))


def _nodes(node, path=()):
    """The key path of ``node`` and of every node below it; of an array,
    only the first entry is walked."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node[:1]) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def test_every_mutated_manifest_node_loads_or_raises_manifest_error(tmp_path):
    # each node of both fixtures is replaced, in turn, by each value below;
    # anything but a load or a ManifestError is a traceback, whose exit 1
    # reads as a failed verdict
    mutations = 0
    for fixture in ("lfa1.json", "lta.json"):
        man = json.loads(fixture_path(fixture).read_text(encoding="utf-8"))
        for where in list(_nodes(man))[1:]:
            for value in (1, "a", [], {}, None, 1.5, -1, [1], ["a"], True):
                path = write_manifest(tmp_path, _fixture_with(where, value, fixture))
                try:
                    load_manifest(path)
                except ManifestError:
                    pass
                except Exception as exc:  # name the mutation that escaped
                    pytest.fail(f"{fixture} {where} = {value!r}: {type(exc).__name__}: {exc}")
                mutations += 1
    assert mutations == 1820


@pytest.mark.parametrize("case", ["directory", "latin-1", "json-dir", "seed"])
def test_bad_path_or_seed_exits_2_naming_it(tmp_path, capsys, case):
    argv = ["torsion", "--manifest", write_manifest(tmp_path, IDENTITY_MANIFEST),
            "--samples", "5"]
    if case == "directory":
        argv[2], message = str(tmp_path), f"{tmp_path}: cannot read the manifest"
    elif case == "latin-1":
        (tmp_path / "bad.json").write_bytes('{"chart": "\xe9"}'.encode("latin-1"))
        argv[2], message = str(tmp_path / "bad.json"), "bad.json: not UTF-8 text"
    elif case == "json-dir":
        out = tmp_path / "missing" / "out.json"
        argv += ["--json", str(out)]
        message = f"cannot write --json {out}"
    else:
        argv += ["--seed", "-1"]
        message = "--seed must be >= 0, got -1"
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["spectrum", "algebra"])
def test_exhausted_domain_exits_2(monkeypatch, capsys, command):
    # guards too strict for the box are a manifest error, not a failed check
    # (``spectrum`` draws its sample in the command, ``algebra`` in the check)
    def exhausted(domain, count, *args):
        if count > 1:
            raise DomainExhaustedError("8 consecutive rejections; guards too strict for the box")
        return sample_points(domain, count, *args)

    for module in (alg, cli, cli.sp):
        monkeypatch.setattr(module, "sample_points", exhausted)
    code = main([command, "--manifest", str(fixture_path("lta.json")), "--samples", "5"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: 8 consecutive rejections; guards too strict for the box\n"


def test_manifest_repeated_strings_parse_as_entry_by_entry(tmp_path, monkeypatch):
    # the same text on two charts whose names are swapped means different
    # variables, so the per-load memo is keyed on (text, chart)
    man = {**IDENTITY_MANIFEST, "chart": {"dim": 2, "names": ["a", "b"]},
           "operators": {"P": [["a*b", "a"], ["a", "a*b"]], "Q": [["a", "a*b"], ["b", "1"]]},
           "charts": {"y": {"names": ["b", "a"], "forward": ["b", "a"], "inverse": ["b", "a"]}},
           "fields": {"F": [["a*b", "a"]]}}
    path = write_manifest(tmp_path, man)
    parsed = []

    def counted(text, chart):
        parsed.append((text, chart))
        return parse_expr(text, chart)

    parse_expr = manifest_module.parse_expr
    monkeypatch.setattr(manifest_module, "parse_expr", counted)
    loaded = load_manifest(path)
    src, dst = loaded.chart, loaded.charts["y"].dst
    for name, rows in man["operators"].items():
        assert loaded.operators[name].entries == tuple(
            tuple(parse_expr(text, src) for text in row) for row in rows)
    assert loaded.charts["y"].forward == (parse_expr("b", src), parse_expr("a", src))
    assert loaded.charts["y"].inverse == (parse_expr("b", dst), parse_expr("a", dst))
    assert loaded.charts["y"].forward == (Var(1), Var(0))
    assert loaded.charts["y"].inverse == (Var(0), Var(1))
    assert loaded.fields["F"][0].components == (parse_expr("a*b", src), parse_expr("a", src))
    # each distinct (text, chart) once per load; a second load parses again
    assert sorted(parsed, key=str) == sorted(
        [("a*b", src), ("a", src), ("b", src), ("1", src), ("b", dst), ("a", dst)], key=str)
    load_manifest(path)
    assert len(parsed) == 12


def test_manifest_repeated_bad_string_names_the_first_entry(tmp_path):
    man = json.loads(json.dumps(IDENTITY_MANIFEST))
    man["operators"]["I"][0][1] = man["operators"]["I"][1][0] = "x1 + + 3"
    with pytest.raises(ManifestError, match=r"^operators\.I\[0\]\[1\]: "):
        load_manifest(write_manifest(tmp_path, man))
    man["operators"]["I"][0][1] = "0"
    with pytest.raises(ManifestError, match=r"^operators\.I\[1\]\[0\]: "):
        load_manifest(write_manifest(tmp_path, man))


def test_blas_thread_count_changes_no_byte(tmp_path):
    # BLAS threads are read at import, so each count needs its own process
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"torsion-{threads}.json"
        env = cli_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "torsionlab.cli", "torsion",
             "--manifest", str(fixture_path("lfa1.json")), "--level", "4",
             "--samples", "30", "--json", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", [["torsion"], ["algebra", "--combos", "2"], ["spectrum"]])
def test_nonfinite_value_exits_2_naming_the_point(tmp_path, capsys, command):
    path = write_manifest(tmp_path, NONFINITE_MANIFEST)
    out_json = tmp_path / "report.json"
    with pytest.warns(RuntimeWarning):
        code = main(command + ["--manifest", path, "--samples", "10",
                               "--json", str(out_json)])
    err = capsys.readouterr().err
    first = sample_points(load_manifest(path).domain, 1)[0]
    assert code == 2
    assert f"not finite at point {tuple(first.tolist())}" in err
    assert not out_json.exists()


# finite generator entries whose level-1 torsion c^2 (x2 - x1) overflows at
# every point, and with it every higher level
OVERFLOW_TOWER_MANIFEST = {
    **IDENTITY_MANIFEST,
    "operators": {"A": [[f"{10 ** 200}*x2", "0"], ["0", f"{10 ** 200}*x1"]]},
}


@pytest.mark.parametrize("level", [1, 2, 3])
def test_algebra_overflow_names_level_m(tmp_path, capsys, level):
    # algebra judges level m alone, so it names level m and the first point
    path = write_manifest(tmp_path, OVERFLOW_TOWER_MANIFEST)
    with pytest.warns(RuntimeWarning):
        code = main(["algebra", "--manifest", path, "--level", str(level),
                     "--combos", "2", "--samples", "10"])
    err = capsys.readouterr().err
    first = sample_points(load_manifest(path).domain, 1)[0]
    assert code == 2
    assert err == f"error: level-{level} torsion is not finite at point {tuple(first.tolist())}\n"


# 10^302 x1^64 is at most 1.2e307 on these boxes, but its derivative is
# above the double range past x1 = 1.177: everywhere on [1.19, 1.2], and
# first at the second sample point on [1.1, 1.2]
@pytest.mark.parametrize("low, row", [(1.19, 0), (1.1, 1)])
def test_derivative_only_nonfinite_exits_2_naming_the_point(tmp_path, capsys, low, row):
    payload = {**IDENTITY_MANIFEST, "domain": {"box": [[low, 1.2], [0.5, 1.5]], "seed": 7},
               "operators": {"A": [[f"{10 ** 302}*x1^64", "0"], ["0", "1"]]}}
    path = write_manifest(tmp_path, payload)
    man = load_manifest(path)
    pts = sample_points(man.domain, 10)
    assert np.isfinite(man.operators["A"].values_many(pts)).all()
    # the whole-sample jet names the point the walk must name
    with pytest.warns(RuntimeWarning), pytest.raises(EvalDomainError) as whole:
        man.operators["A"].jet_many(pts)
    assert str(whole.value) == \
        f"operator 1-jet is not finite at point {tuple(pts[row].tolist())}"
    out_json = tmp_path / "report.json"
    with pytest.warns(RuntimeWarning):
        code = main(["torsion", "--manifest", path, "--samples", "10",
                     "--json", str(out_json)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {whole.value}\n"
    assert not out_json.exists()


@pytest.mark.parametrize("command", [["torsion"], ["algebra", "--combos", "2"], ["spectrum"]])
def test_singular_divisor_exits_2_naming_the_point(tmp_path, capsys, command):
    man = {**IDENTITY_MANIFEST, "operators": {"A": [["1/(x1-x1)", "0"], ["0", "1"]]}}
    path = write_manifest(tmp_path, man)
    out_json = tmp_path / "report.json"
    code = main(command + ["--manifest", path, "--samples", "10", "--json", str(out_json)])
    err = capsys.readouterr().err
    first = sample_points(load_manifest(path).domain, 1)[0]
    assert code == 2
    assert f"divisor magnitude below 1e-12 at point {tuple(first.tolist())}" in err
    assert not out_json.exists()


# identity operator, but the chart Jacobian d/dx1 (x1 + x1^64 x2^64 - ...) is inf - inf
NONFINITE_JACOBIAN_MANIFEST = {
    **NONFINITE_MANIFEST,
    "operators": {"A": [["1", "0"], ["0", "1"]]},
    "charts": {"y": {"forward": ["x1 + x1^64*x2^64 - x1^64*x2^64", "x2"]}},
}

# identity chart, so the golden matrix is evaluated at the sample points themselves
NONFINITE_GOLDEN_MANIFEST = {
    **NONFINITE_MANIFEST,
    "operators": {"A": [["1", "0"], ["0", "1"]]},
    "charts": {"y": {"forward": ["x1", "x2"]}},
    "pushforward_golden": {"y": {"A": [["x1^64*x2^64 - x1^64*x2^64 + 1", "0"],
                                       ["0", "1"]]}},
}


# finite Jacobian, but y1 = x1 + 10^308 x2 is inf: the golden matrix sits at y = inf
NONFINITE_CHART_VALUE_MANIFEST = {
    **NONFINITE_GOLDEN_MANIFEST,
    "charts": {"y": {"forward": [f"x1 + {10 ** 308}*x2", "x2"]}},
    "pushforward_golden": {"y": {"A": [["x1 - x1 + 1", "0"], ["0", "1"]]}},
}

# y = (2 x1, x2): the error names the sample point x, not y(x)
SCALED_GOLDEN_MANIFEST = {
    **NONFINITE_GOLDEN_MANIFEST,
    "charts": {"y": {"forward": ["2*x1", "x2"]}},
    "pushforward_golden": {"y": {"A": [["x1^64*x2^64 - x1^64*x2^64 + 2", "0"],
                                       ["0", "1"]]}},
}


@pytest.mark.parametrize("with_json", [False, True])
@pytest.mark.parametrize("manifest, what", [
    (NONFINITE_JACOBIAN_MANIFEST, "chart Jacobian"),
    (NONFINITE_GOLDEN_MANIFEST, "operator value"),
    (NONFINITE_CHART_VALUE_MANIFEST, "chart value"),
    (SCALED_GOLDEN_MANIFEST, "operator value"),
])
def test_blockdiag_nonfinite_exits_2_naming_the_point(tmp_path, capsys, manifest, what,
                                                      with_json):
    path = write_manifest(tmp_path, manifest)
    out_json = tmp_path / "report.json"
    args = ["blockdiag", "--manifest", path, "--chart", "y", "--samples", "10"]
    with pytest.warns(RuntimeWarning):
        code = main(args + (["--json", str(out_json)] if with_json else []))
    err = capsys.readouterr().err
    first = sample_points(load_manifest(path).domain, 1)[0]
    assert code == 2
    assert f"{what} is not finite at point {tuple(first.tolist())}" in err
    assert not out_json.exists()


def test_torsion_walks_the_tower_once_per_operator(monkeypatch, capsys):
    # one sample per command, shared by the operators; per operator one
    # evaluation of its 1-jet plan's point-dependent columns and one walk,
    # whose chunks each expand that plan once and take one Nijenhuis step
    calls = {"sample": 0, "columns": 0, "expand": 0, "nijenhuis": 0, "verdict": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fl, "sample_points", counted("sample", fl.sample_points))
    monkeypatch.setattr(cli, "sample_points", counted("sample", cli.sample_points))
    monkeypatch.setattr(fl._EntryPlan, "columns", counted("columns", fl._EntryPlan.columns))
    monkeypatch.setattr(fl._EntryPlan, "expand", counted("expand", fl._EntryPlan.expand))
    monkeypatch.setattr(fl, "nijenhuis_from_jets",
                        counted("nijenhuis", fl.nijenhuis_from_jets))
    monkeypatch.setattr(fl, "is_vanishing", counted("verdict", fl.is_vanishing))
    man = load_manifest(fixture_path("lta.json"))
    n_pts = 250
    chunks = -(-n_pts // (fl.CHUNK_BYTES // (8 * man.chart.dim ** 3)))
    assert chunks == 3
    code, out = run_cli(["torsion", "--manifest", str(fixture_path("lta.json")),
                         "--level", "3", "--samples", str(n_pts)], capsys)
    assert code == 0
    n_ops = len(man.operators)
    assert calls == {"sample": 1, "columns": n_ops, "expand": chunks * n_ops,
                     "nijenhuis": chunks * n_ops, "verdict": n_ops}
    for name in man.operators:
        for m in (1, 2, 3):
            assert f"| {name} tau^({m}) |" in out


@pytest.mark.parametrize("fixture", ["lfa1.json", "lta.json"])
def test_spectrum_analyses_each_operator_in_two_walks(fixture, monkeypatch, capsys):
    # per operator one evaluation and one spectral walk at the first sample
    # point, which also gives the minimal polynomial degree, and one of each
    # for the regularity sweep; the command draws the sample once, for every
    # operator's sweep, and analyses its first point
    calls = {"walk": 0, "values": 0}
    draws = []
    spectra, values_many = cli.sp._spectra, fl.OperatorBase.values_many

    def walk(*args):
        calls["walk"] += 1
        return spectra(*args)

    def values(self, pts):
        calls["values"] += 1
        return values_many(self, pts)

    def draw(domain, count):
        draws.append(count)
        return sample_points(domain, count)

    monkeypatch.setattr(cli.sp, "_spectra", walk)
    monkeypatch.setattr(fl.OperatorBase, "values_many", values)
    monkeypatch.setattr(cli, "sample_points", draw)
    code, out = run_cli(["spectrum", "--manifest", fixture, "--samples", "20"], capsys)
    assert code == 0
    assert calls == {"walk": 6, "values": 6} and draws == [20]
    assert out.count(" spectrum | PASS |") == 3


@pytest.mark.parametrize("fixture, hint", [("lfa1.json", "1,1,1,1,3"), ("lta.json", "1,1,1,2")])
def test_blockdiag_evaluates_the_chart_jacobian_once(fixture, hint, monkeypatch, capsys):
    # one Jacobian, |det J| check and inverse per command, shared by the operators
    calls = []
    jacobian_many = cli.ch.jacobian_many

    def counted(*args):
        calls.append(args)
        return jacobian_many(*args)

    monkeypatch.setattr(cli.ch, "jacobian_many", counted)
    code, _ = run_cli(["blockdiag", "--manifest", str(fixture_path(fixture)), "--chart", "y",
                       "--hint", hint, "--samples", "20"], capsys)
    assert code == 0
    assert len(load_manifest(fixture_path(fixture)).operators) == 3
    assert len(calls) == 1


def test_algebra_builds_one_tower_per_product_and_per_combo(monkeypatch, capsys):
    # one walk for every candidate: each chunk yields every ordered generator
    # pair K_a K_b (ring law), then one f K_a + g K_b per combo
    walks, per_chunk = [], []

    def counted(candidates_at, levels, *args, **kwargs):
        walks.append(tuple(levels))

        def counting(part):
            per_chunk.append(0)
            for jet in candidates_at(part):
                per_chunk[-1] += 1
                yield jet
        return candidate_verdicts(counting, levels, *args, **kwargs)

    candidate_verdicts = alg.candidate_verdicts
    monkeypatch.setattr(alg, "candidate_verdicts", counted)
    code, _ = run_cli(["algebra", "--manifest", str(fixture_path("lta.json")),
                       "--level", "3", "--combos", "2", "--samples", "20"], capsys)
    assert code == 0
    k = len(load_manifest(fixture_path("lta.json")).operators)
    assert walks == [(3,)]
    assert per_chunk == [k * k + 2] == [11]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", "torsion",
         "--manifest", str(fixture_path("lta.json")),
         "--operator", "L1", "--level", "1", "--samples", "10"],
        capture_output=True, text=True, env=cli_env())
    # level-1 torsion of L1 does not vanish: exit code 1, but a real report
    assert proc.returncode == 1
    assert "torsionlab torsion" in proc.stdout
