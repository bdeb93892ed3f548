"""One workload in one fresh process; ``run.py`` starts it.

Usage: ``python3 bench/worker.py WORKLOAD SEED SECONDS MODE SPAWNED_AT``
where MODE is ``probe`` (set up, then report the set-up time and exit),
``run`` (the untraced measured loop) or ``trace`` (the loop with spans).
SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process, so set-up time counts interpreter start-up and imports.
The result is one JSON line on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
import traceback
from collections import Counter
from hashlib import sha256
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
FIRST_BLOCK_S = 0.001


def measure(workload, seconds: float, tracer=None, max_items: int | None = None) -> dict:
    """Closed loop: items back to back until ``seconds`` of item time, or
    ``max_items`` items when given (the self-tests use a fixed count).

    Only ``run_item`` is on the clock; input generation, output checks and
    a calibration block after every item run between items.  Each item's
    wall time is rescaled by the blocks just before and just after it.
    """
    import calibration
    import metrics

    latencies, factors, failures, counters = [], [], [], Counter()
    pass_s = calibration.block(FIRST_BLOCK_S)
    digest = sha256()
    timed = 0.0
    i = 0
    while timed < seconds and i != max_items:
        item = workload.make_input(i)
        if tracer:
            tracer.begin_item(i)
        start = time.perf_counter()
        try:
            output, failure = workload.run_item(item), None
        except Exception as exc:  # a raising item counts as failed
            output, failure = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_item()
        after_s = calibration.block(calibration.BLOCK_SHARE * elapsed)
        factors.append(calibration.scale(0.5 * (pass_s + after_s)))
        pass_s = after_s
        timed += elapsed
        latencies.append(elapsed)
        if failure is None:
            try:
                failure = workload.check(item, output)
            except Exception as exc:
                failure = f"check raised {type(exc).__name__}: {exc}"
        if failure is None:
            digest.update(f"{i}:{workload.digest(output)}\n".encode())
            counters.update(workload.counters(output))
        else:
            failures.append(f"item {i}: {failure}")
        i += 1
    scaled = [t * f for t, f in zip(latencies, factors)]
    result = metrics.latency_summary(scaled, sum(scaled))
    result.update(
        wall=metrics.latency_summary(latencies, timed),
        attempted=i,
        failed=len(failures),
        failures=failures[:5],
        digest=digest.hexdigest(),
        counters=dict(counters),
        factors=factors,
    )
    return result


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, spawned_at = argv
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)

    import numpy
    import scipy
    import seqrac

    if Path(seqrac.__file__).resolve().parent != ROOT / "src" / "seqrac":
        print(f"worker: imported seqrac from {seqrac.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import calibration
    import metrics
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[name](seed, Path(workdir))
        workload.warm_up()
        setup_wall_s = time.monotonic() - spawned_at
        pass_s = calibration.block(calibration.BLOCK_SHARE * setup_wall_s)
        result = {
            "setup_s": setup_wall_s * calibration.scale(pass_s),
            "setup_wall_s": setup_wall_s,
        }
        if mode != "probe":
            tracer = tracing.Tracer() if mode == "trace" else None
            if tracer:
                tracer.install()
            try:
                result.update(measure(workload, seconds, tracer))
            finally:
                if tracer:
                    tracer.uninstall()
            if tracer:
                tracer.write(OUT / f"spans-{name}-seed{seed}.csv.gz")
                totals = tracing.self_times(tracer.spans, result["factors"])
                result["per_layer"] = metrics.per_layer_values(
                    totals, result["counters"], result["attempted"])
                result["errors"] = {
                    span: tracer.errors[span] for _, _, span in tracing.TRACED
                }
                result["spans"] = len(tracer.spans)
    result.pop("factors", None)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
