"""The simulator's benchmark: cost per packet of whole multibroadcast runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-k256 --seed 1 --seconds 18 --trace 0

One process runs one workload on one thread.  It sets the topology up
several times (``setup_s`` is the median), discards one warm-up run,
then runs seeded multibroadcasts until ``--seconds`` have passed (at
least three), checking every run's output.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` replays a run set with the layer
wrappers installed and prints the per-layer metrics instead, writing
every span to ``perfbench/traces/``.  The last stdout line is the JSON
result; the line before it records the seeds and the mode.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

MIN_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def clear_caches() -> None:
    """Reset the integrity layer's global memo caches and collect garbage.

    The caches outlive a run, so without this each run would start with
    whatever the previous one left behind.
    """
    from repro.coding import integrity

    integrity.packet_checksum.cache_clear()
    integrity._auth_tag_cached.cache_clear()
    integrity.node_auth_key.cache_clear()
    gc.collect()


class Run:
    """One timed multibroadcast and what its checks found."""

    def __init__(self, workload, net, seeds, k: Optional[int] = None):
        run_net, packets, algorithm = workload.inputs(net, seeds, k)
        clear_caches()
        t0 = time.perf_counter()
        result = algorithm.run(packets)
        self.seconds = time.perf_counter() - t0
        self.seeds = seeds
        self.success = bool(result.success)
        self.k = len(packets)
        self.rounds = result.total_rounds
        timing = result.timing
        self.stage_rounds = (timing.leader_election, timing.bfs,
                             timing.collection, timing.dissemination)
        self.informed = float(result.informed_fraction)
        self.problem = workload.check(result, run_net)


def set_up(workload, reps: int):
    """Build the network ``reps`` times; returns the last and the times."""
    times: List[float] = []
    for _ in range(reps):
        net = None
        gc.collect()
        t0 = time.perf_counter()
        net = workload.build()
        times.append(time.perf_counter() - t0)
    return net, times


def run_for(workload, net, seed: int, seconds: float,
            minimum: int) -> List[Run]:
    """Seeded runs 1, 2, ... until ``seconds`` pass and ``minimum`` ran."""
    from workloads import sample_seeds

    runs: List[Run] = []
    start = time.perf_counter()
    while len(runs) < minimum or time.perf_counter() - start < seconds:
        runs.append(Run(workload, net, sample_seeds(seed, len(runs) + 1)))
    return runs


def warm_up(workload, net, seed: int) -> None:
    from workloads import WARMUP_K, sample_seeds

    Run(workload, net, sample_seeds(seed, 0), k=min(workload.k, WARMUP_K))


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def untraced(workload, seed: int, seconds: float) -> Tuple[dict, dict]:
    """End-to-end metrics; returns (result line, record line)."""
    net, setup_times = set_up(workload, workload.setup_reps)
    warm_up(workload, net, seed)
    runs = run_for(workload, net, seed, seconds, MIN_SAMPLES)
    successes = sum(r.success for r in runs)
    wall = sum(r.seconds for r in runs)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "run_s_p50": _metric(statistics.median(r.seconds for r in runs), "s"),
        "packets_per_s": _metric(workload.k * successes / wall, "packets/s"),
        "success_rate": _metric(successes / len(runs), "ratio"),
        "informed_fraction": _metric(
            statistics.fmean(r.informed for r in runs), "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    problems = [r.problem for r in runs if r.problem]
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(runs) - successes,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name, "mode": "untraced", "seed": seed,
        "setup_s": setup_times, "run_s": [r.seconds for r in runs],
        "run_seeds": [list(r.seeds) for r in runs], "problems": problems,
    }
    return result, record


def traced(workload, seed: int, seconds: float,
           trace_path: Path) -> Tuple[dict, dict]:
    """Per-layer metrics from a traced replay of an untraced run set."""
    import layers
    from spans import Tracer

    with Tracer() as setup_tracer:
        setup_tracer.install(layers.setup_targets())
        net = workload.build()
    warm_up(workload, net, seed)
    plain = run_for(workload, net, seed, seconds / 2, 1)
    with Tracer() as tracer:
        tracer.install(layers.run_targets())
        replay = [Run(workload, net, r.seeds) for r in plain]

    metrics, direct = layers.run_metrics(tracer.spans, len(replay))
    metrics.update(layers.setup_metrics(setup_tracer.spans))
    metrics["rounds_per_packet"] = statistics.fmean(
        r.rounds / r.k for r in plain)
    metrics["trace.overhead_s"] = (
        sum(r.seconds for r in replay) - sum(r.seconds for r in plain)
    ) / len(plain)

    problems = [r.problem for r in plain + replay if r.problem]
    for a, b in zip(plain, replay):
        if a.stage_rounds != b.stage_rounds:
            problems.append(
                f"traced rounds {b.stage_rounds} != untraced "
                f"{a.stage_rounds} for seeds {a.seeds}")
    if direct != [workload.direct] * len(replay):
        problems.append(
            f"dissemination.direct {direct}, expected {workload.direct}")

    declared = _declared_per_layer()
    result = {
        "correct": not problems,
        "attempted": len(plain) + len(replay),
        "failed": sum(not r.success for r in plain + replay),
        "metrics": {
            name: _metric(metrics[name], layers.UNITS[name])
            for name in declared
        },
    }
    record = {
        "workload": workload.name, "mode": "traced", "seed": seed,
        "run_seeds": [list(r.seeds) for r in plain],
        "untraced_s": [r.seconds for r in plain],
        "traced_s": [r.seconds for r in replay],
        "stage_rounds": [list(r.stage_rounds) for r in plain],
        "problems": problems,
    }
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(trace_path, "wt", compresslevel=1) as out:
        json.dump({
            **record,
            "metrics": {name: _metric(value, layers.UNITS[name])
                        for name, value in sorted(metrics.items())},
            "span_fields": ["name", "start", "end", "parent", "counts"],
            "setup_spans": setup_tracer.spans,
            "spans": tracer.spans,
        }, out)
    record["trace_file"] = str(trace_path)
    return result, record


def _declared_per_layer() -> List[str]:
    with open(BENCHMARK_JSON) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = args.seed % (1 << 63)  # SeedSequence entropy is non-negative
    if args.trace:
        path = TRACE_DIR / f"{workload.name}-seed{args.seed}.json.gz"
        result, record = traced(workload, seed, args.seconds, path)
    else:
        result, record = untraced(workload, seed, args.seconds)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
