"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import subprocess
import sys

import pytest

from torsionlab.cli import main
from torsionlab.expr import sample_points
from torsionlab.manifest import fixture_path, load_manifest


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


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


def test_manifest_parse_error_location(tmp_path, capsys):
    man = json.loads(json.dumps(IDENTITY_MANIFEST))
    man["operators"]["I"][0][1] = "x1 + + 3"
    path = write_manifest(tmp_path, man)
    code = main(["torsion", "--manifest", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "operators.I[0][1]" in err


def test_thread_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORSIONLAB_THREADS", "2")
    path = write_manifest(tmp_path, IDENTITY_MANIFEST)
    code, _ = run_cli(["torsion", "--manifest", path, "--level", "1",
                       "--samples", "10"], capsys)
    assert code == 0
    # the worker count must not change a byte of the reports
    lfa1 = str(fixture_path("lfa1.json"))
    for args in (["torsion", "--manifest", lfa1, "--level", "4", "--samples", "30"],
                 ["blockdiag", "--manifest", lfa1, "--chart", "y",
                  "--hint", "1,1,1,1,3", "--samples", "30"]):
        reports = []
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("TORSIONLAB_THREADS")
            else:
                monkeypatch.setenv("TORSIONLAB_THREADS", threads)
            out = tmp_path / f"{args[0]}-{threads}.json"
            assert main(args + ["--json", str(out)]) == 0
            reports.append(out.read_bytes())
        capsys.readouterr()
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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", "torsion",
         "--manifest", str(fixture_path("lta.json")),
         "--operator", "L1", "--level", "1", "--samples", "10"],
        capture_output=True, text=True)
    # level-1 torsion of L1 does not vanish: exit code 1, but a real report
    assert proc.returncode == 1
    assert "torsionlab torsion" in proc.stdout
