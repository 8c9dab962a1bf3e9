"""Self-check of the benchmark: one tiny pass per workload.

Run from the repository root::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import SELF_TIME_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_report, invocations, load_fixtures  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
FIXTURES = load_fixtures(run.SRC / "torsionlab" / "fixtures")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    result, record = run.measure(workload, seed=None, seconds=0, trace=trace, tiny=True)
    run.emit(result, record)
    lines = capsys.readouterr().out.splitlines()

    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    rows = {line.split()[0]: line.split() for line in lines[1:-2]}
    for m in declared + [{"name": "failed_frac", "unit": "ratio"}]:
        assert rows[m["name"]][2] == m["unit"]
        float(rows[m["name"]][1])

    rec = json.loads(lines[-2])["record"]
    for key in ("git_sha", "python", "numpy", "cpu_count", "TORSIONLAB_THREADS",
                "blas_env", "caches", "pass_s"):
        assert key in rec


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Real reports of one tiny pass per workload, keyed by (command, fixture)."""
    main = run.load_program()
    out = tmp_path_factory.mktemp("reports") / "report.json"
    found = {}
    for workload in WORKLOADS:
        for argv in invocations(workload, None, tiny=True):
            assert main(argv + ["--json", str(out)]) == 0
            found[argv[0], argv[2]] = argv, json.loads(out.read_text(encoding="utf-8"))
    return found


def _check(checks, label):
    return next(c for c in checks if c["name"] == label)


def _level_off_by_one(r):
    _check(r["checks"], "L1 vanishes by level 3")["first_vanishing_level"] = 2


def _earlier_level_vanishes(r):
    _check(r["checks"], "L2 tau^(2)")["vanishing"] = True


def _nan_residual(r):
    _check(r["checks"], "L3 tau^(3)")["residual"] = float("nan")


def _wrong_partition(r):
    _check(r["checks"], "K2 blocks")["partition"] = "1|1|2|3"


def _printed_matrix_mismatch(r):
    _check(r["checks"], "K3 matches printed matrix")["residual"] = 1e-3


def _wrong_riesz(r):
    _check(r["checks"], "L1 spectrum")["riesz"] = [1, 1, 1, 1]


def _extra_eigenvalue(r):
    c = _check(r["checks"], "L2 spectrum")
    c["eigenvalues"] = c["eigenvalues"] + [7.5]


def _constant_eigenvalue_moved(r):
    c = _check(r["checks"], "K1 spectrum")
    c["eigenvalues"] = [e + 1e-3 if abs(e + 1) < 1e-9 else e for e in c["eigenvalues"]]


def _not_regular(r):
    _check(r["checks"], "K1 spectrum")["regular"] = False


def _ring_not_closed(r):
    c = _check(r["checks"], "ring closure")
    c["passed"], c["worst_residual"] = False, 0.5


def _wrong_seed(r):
    r["seed"] += 1


@pytest.mark.parametrize("key, doctor", [
    (("torsion", "lta.json"), _level_off_by_one),
    (("torsion", "lta.json"), _earlier_level_vanishes),
    (("torsion", "lta.json"), _nan_residual),
    (("blockdiag", "lfa1.json"), _wrong_partition),
    (("blockdiag", "lfa1.json"), _printed_matrix_mismatch),
    (("spectrum", "lta.json"), _wrong_riesz),
    (("spectrum", "lta.json"), _extra_eigenvalue),
    (("spectrum", "lfa1.json"), _constant_eigenvalue_moved),
    (("spectrum", "lfa1.json"), _not_regular),
    (("algebra", "lfa1.json"), _ring_not_closed),
    (("algebra", "lta.json"), _wrong_seed),
])
def test_oracle_rejects_doctored_reports(reports, key, doctor):
    argv, report = reports[key]
    assert check_report(argv, report, FIXTURES) == []
    doctored = json.loads(json.dumps(report))
    doctor(doctored)
    assert check_report(argv, doctored, FIXTURES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_pass(workload, tmp_path):
    import numpy as np
    import torsionlab.expr
    import torsionlab.fields

    main = run.load_program()
    originals = (np.linalg.svd, torsionlab.expr.eval_many, torsionlab.fields.OperatorField.jet_many)
    tracer = Tracer()
    with tracer.installed():
        wall, failures = run.run_pass(main, invocations(workload, None, tiny=True),
                                      FIXTURES, tmp_path, tracer)
    assert not failures
    metrics = layer_metrics(tracer)
    assert sum(metrics[k] for k in SELF_TIME_METRICS) == pytest.approx(wall, rel=0.05)
    assert all(metrics[k] >= 0 for k in SELF_TIME_METRICS)
    # the layers each workload is meant to leave alone stay untouched
    if workload == "tower":
        assert metrics["fields.verdict_calls"] > 0 and metrics["spectral.spectrum_calls"] == 0
    if workload == "spectral":
        assert metrics["spectral.svd_calls"] > metrics["spectral.spectrum_calls"] > 0
        assert metrics["fields.verdict_calls"] == 0 and metrics["algebra.combos"] == 0
    if workload == "closure":
        assert metrics["algebra.combos"] > 0 and metrics["charts.detect_s"] > 0
    assert originals == (np.linalg.svd, torsionlab.expr.eval_many,
                         torsionlab.fields.OperatorField.jet_many)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tower", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
