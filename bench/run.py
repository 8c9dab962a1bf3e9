"""Time-to-verdict benchmark of the torsionlab CLI.

Run from the root of a source checkout::

    python3 bench/run.py --workload {tower,spectral,closure} [--seed N]
                         [--seconds S] [--trace 0|1]

One client drives ``torsionlab.cli.main(argv)`` in this process as a closed
loop: each invocation starts after the previous one returns, and a pass runs
the workload's invocation list once.  Every invocation writes its ``--json``
report, which the oracle in ``workloads.py`` checks against the fixture
manifests.  With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates plain and traced passes
and reports the per-layer metrics, writing the spans of the last traced
pass to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a ``record`` with sample counts, quartiles and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import SELF_TIME_METRICS, Tracer, layer_metrics, write_spans
from workloads import FIXTURES, WORKLOADS, check_report, invocations, load_fixtures

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_program():
    """Import ``torsionlab`` from this checkout's sources; return ``cli.main``."""
    init = SRC / "torsionlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no torsionlab sources at {init}")
    sys.path.insert(0, str(SRC))
    import torsionlab.cli

    if Path(torsionlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported torsionlab from {torsionlab.__file__}, not {init}")
    return torsionlab.cli.main


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_sha() -> str:
    """Commit of the checkout, or ``unknown`` outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cache_sizes() -> dict[str, str]:
    """Data/unified cache sizes of CPU 0 as the kernel reports them (read only)."""
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (idx / "type").read_text().strip()
            if kind in ("Data", "Unified"):
                out["L" + (idx / "level").read_text().strip()] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "TORSIONLAB_THREADS": os.environ.get("TORSIONLAB_THREADS"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "caches": cache_sizes(),
    }


def summary(values: list[float]) -> dict:
    """Sample count, median and quartiles; a tail percentile only when at
    least ten samples lie beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    out["q1"], out["q3"] = q[0], q[2]
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


# The child prints when it is done: perf_counter is the system-wide monotonic
# clock, and waiting on the child with a timeout would poll in 50 ms steps.
SETUP_CODE = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import torsionlab\n"
              f"for f in {FIXTURES!r}: torsionlab.load_manifest(f)\n"
              "import time; print(time.perf_counter())")


def time_setup() -> float:
    """Time from starting a fresh interpreter until it has imported torsionlab
    and loaded the fixtures."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True, timeout=60,
                          capture_output=True, text=True)
    return float(proc.stdout) - t0


def run_pass(main, invs: list[list[str]], fixtures: dict, tmp: Path,
             tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """Run every invocation once; return the pass wall time and one problem
    string per failed invocation.  Only the invocations are timed."""
    outs = [tmp / f"report{i}.json" for i in range(len(invs))]
    for out in outs:
        out.unlink(missing_ok=True)
    codes = []
    t0 = time.perf_counter()
    for argv, out in zip(invs, outs):
        full = argv + ["--json", str(out)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(tracer.call(main, full) if tracer else main(full))
        except Exception as exc:  # an invocation that raises counts as failed
            codes.append(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0

    failures = []
    for argv, out, code in zip(invs, outs, codes):
        if code != 0:
            failures.append(f"{' '.join(argv)}: exit {code!r}")
            continue
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"{' '.join(argv)}: unreadable report ({exc})")
            continue
        problems = check_report(argv, report, fixtures)
        if problems:
            failures.append(f"{' '.join(argv)}: {'; '.join(problems)}")
    return elapsed, failures


def measure(workload: str, seed: int | None, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return the result object and the record."""
    main = load_program()
    fixtures = load_fixtures(SRC / "torsionlab" / "fixtures")
    invs = invocations(workload, seed, tiny)
    why = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}
    record = {"workload": workload, "seed": seed, "why": why[workload],
              "invocations": invs, **environment()}
    os.environ.pop("TORSIONLAB_THREADS", None)  # default: one worker

    OUT.mkdir(exist_ok=True)
    plain, setup, traced, layers, failures = [], [], [], [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        tmp = Path(tmpdir)
        # warm-up on the self-check sizes: same code paths, not counted
        run_pass(main, invocations(workload, seed, tiny=True), fixtures, tmp)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            elapsed, failed = run_pass(main, invs, fixtures, tmp)
            plain.append(elapsed)
            failures += failed
            if not trace:
                # one fresh interpreter per pass, so that set-up is sampled
                # over the same stretch of time as the passes
                setup.append(time_setup())
            else:
                tracer = Tracer(origin=start)
                with tracer.installed():
                    elapsed, failed = run_pass(main, invs, fixtures, tmp, tracer)
                traced.append(elapsed)
                layers.append(layer_metrics(tracer))
                failures += failed
            # stop before a round that would end past the deadline
            now = time.perf_counter()
            if now + (now - t0) - start > seconds:
                break

    attempted = len(invs) * (len(plain) + len(traced))
    record.update(passes=len(plain), failed_frac=len(failures) / attempted,
                  failures=failures[:5], pass_s=summary(plain))
    if trace:
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.pass_s"] = statistics.median(traced)
        # paired with the plain pass of the same round, so that slow drift of
        # the machine's speed cancels
        values["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, traced))
        record["traced_pass_s"] = summary(traced)
        record["self_time_sum_s"] = statistics.median(
            sum(m[k] for k in SELF_TIME_METRICS) for m in layers)
        spans = OUT / f"trace-{workload}-seed{seed}.jsonl"
        write_spans(spans, tracer)
        record["spans"] = str(spans.relative_to(ROOT))
        declared = benchmark_spec()["per_layer"]
    else:
        record["setup_s"] = summary(setup)
        values = {"pass_s": statistics.median(plain),
                  "setup_s": statistics.median(setup),
                  # ru_maxrss is in KiB on Linux
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        declared = benchmark_spec()["end_to_end"]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    return result, record


def emit(result: dict, record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  passes {record['passes']}"
          f"  (closed loop, one client)")
    for name, m in result["metrics"].items():
        print(f"  {name:26s} {m['value']:12.6g} {m['unit']}")
    print(f"  {'failed_frac':26s} {record['failed_frac']:12.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} invocations)")
    for problem in record["failures"]:
        print(f"  FAILED {problem}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to every invocation as --seed (default: each manifest's seed)")
    # kept although it defaults to run_seconds: callers of BENCHMARK.json's
    # command pass --seconds <run_seconds> on every run
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"],
                        help="measuring time of the run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
