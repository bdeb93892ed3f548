"""seqrac benchmark: run workloads, check their outputs, print metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--workload`` is ``sweep``, ``boundary``, ``cli`` or ``all``.  Each
workload runs in fresh single-threaded processes (``bench/worker.py``)
importing seqrac from this checkout's ``src/``.  With ``--trace 0`` the
result carries the end-to-end metrics; set-up time is the median over
several process starts.  With ``--trace 1`` an untraced and a traced loop
of equal length run back to back and the result carries the per-layer
metrics and the tracing overhead.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
1 when any output check failed and 2 when the checkout has no seqrac.
Spans and a run record go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sweep", "boundary", "cli")
ITEM_UNITS = {"sweep": "strategy", "boundary": "level", "cli": "session"}
SETUP_PROBES = 4  # extra process starts per untraced run, for the set-up median
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SEQRAC_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), repr(seconds), mode, repr(started)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    probes = [spawn(workload, seed, seconds, "probe") for _ in range(SETUP_PROBES)]
    result = spawn(workload, seed, seconds, "run")
    result["setup_samples"] = [p["setup_s"] for p in probes] + [result["setup_s"]]
    result["wall"]["setup_s"] = statistics.median(
        [p["setup_wall_s"] for p in probes] + [result["setup_wall_s"]])
    result["wall"]["peak_rss_mb"] = result["peak_rss_mb"]
    result["metrics"] = {
        "items_per_s": result["items_per_s"],
        "item_p50_ms": result["item_p50_ms"],
        "item_tail_ms": result["item_tail_ms"],
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    plain = spawn(workload, seed, seconds, "run")
    traced = spawn(workload, seed, seconds, "trace")
    traced["metrics"] = dict(traced["per_layer"])
    traced["metrics"][metrics.TRACING_RATIO] = traced["items_per_s"] / plain["items_per_s"]
    traced["untraced"] = {k: plain[k] for k in ("items_per_s", "attempted", "failed", "failures")}
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] = plain["failures"] + traced["failures"]
    return traced


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def report(workload: str, seed: int, trace: bool, result: dict) -> None:
    """Human-readable block: every metric by name and unit, then metadata."""
    unit = ITEM_UNITS[workload]
    n = result["attempted"]
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}; item = one {unit})")
    if trace:
        specs = metrics.per_layer_specs()
        moves = {m: (w, t) for m, _, _, w, t in metrics.PER_LAYER}
        for name, value in result["metrics"].items():
            w, targets = moves.get(name, (workload, "tracing overhead"))
            if value or w == workload:
                note = "" if w == workload else f"  (exercised by {w})"
                print(f"  {name:42s} {value:14.6g} {specs[name][0]:11s} -> {targets}{note}")
        errors = {k: v for k, v in result["errors"].items() if v}
        print(f"  errors (exceptions leaving a wrapped call): {errors or 'none'}")
        print(f"  spans recorded: {result['spans']}; untraced loop: "
              f"{result['untraced']['items_per_s']:.6g} items/s")
        print("  waiting time: none (one thread, no queue)")
    else:
        print(f"  {'metric':14s} {'scaled':>14s} {'wall clock':>14s}  unit")
        for name, value in result["metrics"].items():
            print(f"  {name:14s} {value:14.6g} {result['wall'][name]:14.6g}  "
                  f"{metrics.END_TO_END[name][0]}")
        print(f"  {metrics.FAILED_RATIO:14s} {result['failed'] / n:14.6g} ratio"
              f" ({result['failed']} of {n})")
        print(f"  tail percentile: p{result['tail_percentile']} of {n} items; "
              f"set-up median of {len(result['setup_samples'])} process starts; "
              f"times scaled to the speed at which a calibration pass takes "
              f"{calibration.REFERENCE_PASS_S * 1e6:g} us")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    versions = result["versions"]
    print(f"  # commit {git_commit()}; python {versions['python']}, numpy {versions['numpy']},"
          f" scipy {versions['scipy']}; nproc {os.cpu_count()}; cpu {cpu_model()};"
          f" src lines {src_lines()}; BLAS/OpenMP threads 1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "seqrac" / "__init__.py").is_file():
        print(f"bench: no seqrac package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    run = run_traced if args.trace else run_untraced
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds)
            report(name, args.seed, bool(args.trace), results[name])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"commit": git_commit(), "cpu": cpu_model(), "nproc": os.cpu_count(),
         "src_lines": src_lines(), "seconds": args.seconds, "results": results},
        indent=1))

    units = metrics.per_layer_specs() if args.trace else metrics.END_TO_END
    prefix = len(names) > 1
    out_metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": units[metric][0]}
        for name, result in results.items()
        for metric, value in result["metrics"].items()
    }
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
