"""dmrecon benchmark: `dmrecon run` timed end to end, or per module when traced.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run it from the repository root; it uses the sources under src/ and installs
nothing. The workload seed generates the config (see workloads.py). Each
measured run is a fresh interpreter (child.py) doing one `dmrecon run`, one
process at a time (a closed loop with one client), until --seconds is spent,
with at least MIN_RUNS runs. BLAS libraries are pinned to BLAS_THREADS
threads and bytecode is cached under .bench_build/, so both sides of a
comparison run with the same environment.

--trace 0 reports the end-to-end metrics of untraced runs:
    setup_s      import dmrecon.cli + io.parse_config, fresh process (s)
    run_s        cli.main(["run", ...]) until results.csv is written (s)
    rows_per_s   result rows written / run_s (rows/s)
    peak_rss_mb  peak resident memory of the child process (MB)
    error_rate   failed runs / runs attempted, printed with the counts
--trace 1 alternates untraced and traced runs and reports per-function calls
and self time, a few counters, and trace.overhead_s (traced run_s minus
untraced run_s).

Every run passes the correctness gate in gate.py, and all runs of one
workload and seed must write the same results.csv bytes. Traced runs must
repeat every call count exactly, and each wrapped function must be called on
the workloads that exercise it (sampling functions only where sampling runs).
Failures count into `failed` and make `correct` false.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A record of the
runs, with the environment, goes to .bench_results/. With --tiny the
workloads shrink to a few seeds and theta points, for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
PYCACHE = ROOT / ".bench_build" / "pycache"
BLAS_THREADS = "1"
MIN_RUNS = {0: 3, 1: 4}
CHILD_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    drop = ("DMRECON_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "PYTHONOPTIMIZE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(PYCACHE),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def _git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = "unknown"
    env = child_env()
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def run_child(wcfg, cfg_path: Path, out_dir: Path, traced: bool, spans: Path | None) -> dict:
    """One measured `dmrecon run`, gated; the returned record has ok and problems set."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(cfg_path),
           "--out", str(out_dir)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    record = {"traced": traced, "ok": False, "problems": []}
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["problems"].append(f"timed out after {CHILD_TIMEOUT_S} s")
        return record
    lines = proc.stdout.strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        pass
    if proc.returncode != 0 or "run_s" not in record:
        tail = proc.stderr.strip().splitlines()[-3:]
        record["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return record
    data = (out_dir / "results.csv").read_bytes()
    rows = gate.parse_rows(data.decode("utf-8"))
    record.update(
        rows=len(rows),
        csv_bytes=len(data),
        sha256=hashlib.sha256(data).hexdigest(),
        degenerate=gate.degenerate_counts(rows),
    )
    record["problems"] += gate.check(wcfg, rows)
    if traced:
        record["problems"] += coverage_problems(record["trace"], wcfg.sampled)
    return record


def coverage_problems(trace: dict, sampled: bool) -> list[str]:
    """Each wrapped function must run where the workload exercises it."""
    problems = []
    for name, stats in trace["functions"].items():
        expect_calls = sampled or name not in tracer.SAMPLING_ONLY
        if (stats["calls"] > 0) != expect_calls:
            problems.append(
                f"{name} called {stats['calls']} times; expected "
                + ("at least once" if expect_calls else "never")
            )
    return problems


def exact_counts(trace: dict) -> dict[str, int]:
    counts = {"correlations.records_built": trace["records_built"]}
    for name, stats in trace["functions"].items():
        counts[f"{name}.calls"] = stats["calls"]
        counts[f"{name}.raised"] = stats["raised"]
    return counts


def check_repeats(runs: list[dict]) -> None:
    """Fail every run whose results.csv bytes or exact counts differ from the first."""
    written = [r for r in runs if "sha256" in r]
    traced = [r for r in runs if r["traced"] and "trace" in r]
    for r in written[1:]:
        if r["sha256"] != written[0]["sha256"]:
            r["problems"].append(
                f"results.csv sha256 {r['sha256']} differs from {written[0]['sha256']}"
            )
    for r in traced[1:]:
        first, this = exact_counts(traced[0]["trace"]), exact_counts(r["trace"])
        diff = sorted(k for k in first.keys() | this.keys() if first.get(k) != this.get(k))
        if diff:
            r["problems"].append(f"exact counts differ from the first traced run: {diff}")
    for r in runs:
        r["ok"] = not r["problems"]


def measure(wcfg, seconds: float, trace: int, work: Path, spans: Path) -> list[dict]:
    cfg_path = work / "config.txt"
    cfg_path.write_text(wcfg.text(), encoding="utf-8")
    runs: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while len(runs) < MIN_RUNS[trace] or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        traced = trace == 1 and len(runs) % 2 == 1
        first_traced = traced and not any(r["traced"] for r in runs)
        out_dir = work / f"out{len(runs)}"
        runs.append(run_child(wcfg, cfg_path, out_dir, traced, spans if first_traced else None))
        shutil.rmtree(out_dir, ignore_errors=True)
        longest = max(longest, time.perf_counter() - t0)
    check_repeats(runs)
    return runs


def tail(values: list[float], higher_is_better: bool) -> tuple[str, float]:
    """The worst-side percentile with at least ten samples beyond it, else the extreme.

    Below twenty samples that percentile would sit on the good side of the
    median, so the worst sample is reported instead.
    """
    ordered = sorted(values, reverse=higher_is_better)
    n = len(ordered)
    if n < 20:
        return ("min" if higher_is_better else "max"), ordered[-1]
    q = 100 * (n - 10) / n
    return (f"p{100 - q:.0f}" if higher_is_better else f"p{q:.0f}"), ordered[n - 11]


def end_to_end(runs: list[dict]) -> tuple[dict, list[str]]:
    ok = [r for r in runs if r["ok"] and not r["traced"]]
    samples = {
        "setup_s": ([r["setup_s"] for r in ok], "s", False),
        "run_s": ([r["run_s"] for r in ok], "s", False),
        "rows_per_s": ([r["rows"] / r["run_s"] for r in ok], "rows/s", True),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in ok], "MB", False),
    }
    metrics, lines = {}, []
    for name, (values, unit, higher_is_better) in samples.items():
        median = statistics.median(values)
        label, high = tail(values, higher_is_better)
        metrics[name] = {"value": median, "unit": unit}
        lines.append(f"  {name:<12} median {median:.6g} {label} {high:.6g} n={len(values)} {unit}")
    return metrics, lines


def per_layer(runs: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in runs if r["ok"] and r["traced"]]
    untraced = [r for r in runs if r["ok"] and not r["traced"]]
    first = traced[0]
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, stats in first["trace"]["functions"].items():
        put(f"{name}.calls", stats["calls"], "count")
        put(f"{name}.self_s",
            statistics.median(r["trace"]["functions"][name]["self_s"] for r in traced), "s")
    functions = first["trace"]["functions"]
    put("correlations.records_built", first["trace"]["records_built"], "count")
    if "reconstruct.finalize" in functions:
        put("reconstruct.finalize.failed", functions["reconstruct.finalize"]["raised"], "count")
    attempts = sum(functions[f]["calls"] for f in tracer.ESTIMATORS if f in functions)
    returned = attempts - sum(functions[f]["raised"] for f in tracer.ESTIMATORS if f in functions)
    if attempts:
        put("reconstruct.ok_ratio", returned / attempts, "fraction")
    put("io.csv_bytes", first["csv_bytes"], "B")
    for method, count in first["degenerate"].items():
        put(f"rows.degenerate.{method}", count, "count")
    put("trace.overhead_s",
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in untraced), "s")
    lines = [f"  {name:<48} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    absent = first["trace"]["absent"]
    if absent:
        lines.append(f"  absent (not wrapped, no metrics): {', '.join(absent)}")
    lines.append(f"  spans {first['trace']['spans']} over {first['trace']['trace_ids']} grid points;"
                 f" patched references: {len(first['trace']['patched'])}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dmrecon" / "cli.py").is_file():
        print(f"no dmrecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    probe = subprocess.run([sys.executable, "-c", "import dmrecon.cli"], env=child_env(),
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0:
        print(f"cannot import dmrecon.cli:\n{probe.stderr}", file=sys.stderr)
        return 1

    workload = workloads.WORKLOADS[args.workload]
    wcfg = workload.config(args.seed, args.tiny)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        runs = measure(wcfg, args.seconds, args.trace, work,
                       RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in runs)
    problems = [f"run {i}: {p}" for i, r in enumerate(runs) for p in r["problems"]]
    n_traced = sum(r["traced"] for r in runs)
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} runs "
          f"({n_traced} traced), closed loop, one dmrecon run at a time; "
          f"{wcfg.expected_rows} rows per run")
    print(f"  why: {workload.why}")
    needed = {False, True} if args.trace else {False}
    if not needed <= {r["traced"] for r in runs if r["ok"]}:
        print("\n".join(problems) or "no run succeeded", file=sys.stderr)
        return 1
    metrics, lines = (per_layer if args.trace else end_to_end)(runs)
    print("\n".join(lines))
    print(f"  {'error_rate':<12} {failed / len(runs):.6g} ({failed} failed / {len(runs)} "
          f"attempted) fraction")
    print(f"  results.csv sha256 {sorted({r['sha256'] for r in runs if 'sha256' in r})}")
    for problem in problems:
        print(f"  FAILED: {problem}", file=sys.stderr)

    correct = not problems
    record = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": environment(args.seed), "config": wcfg.text(),
        "expected_rows": wcfg.expected_rows, "correct": correct, "attempted": len(runs),
        "failed": failed, "error_rate": failed / len(runs), "problems": problems,
        "metrics": metrics, "runs": runs,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
