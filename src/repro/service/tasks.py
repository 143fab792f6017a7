"""Job execution — the picklable entry point the worker pool runs.

Every kind is a pure function of ``(seed, params)``: no wall clock or
unseeded randomness reaches a result, so a job recovered after a crash
(or retried after a worker death) reproduces the same result bytes and
the manifest byte-identity contract holds end to end.

Execution-only parameters (``sleep_s``, ``hang_s``) shape how long a
noop job *takes* without appearing in its result — the service-layer
analogue of the orchestrator rule that execution knobs never leak into
manifests.  They exist for benchmarks (occupying a worker for a known
time) and supervision tests (forcing the timeout/hang paths).
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict

from repro.core import MultipleMessageBroadcast
from repro.core.config import PRESETS


def _run_noop(seed: int, params: dict) -> dict:
    """Deterministic placeholder work for benchmarks and self-tests."""
    if params.get("fail"):
        raise ValueError(f"noop job failed deterministically (seed {seed})")
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0:
        time.sleep(sleep_s)
    hang_s = float(params.get("hang_s", 0.0))
    if hang_s > 0:
        time.sleep(hang_s)
    value = hashlib.sha256(f"noop:{seed}".encode("utf-8")).hexdigest()[:16]
    return {"kind": "noop", "seed": seed, "value": value}


def _run_simulation(seed: int, params: dict) -> dict:
    """One full multiple-message broadcast on a spec'd topology."""
    from repro.resilience.chaos.fuzzer import (
        build_topology_spec,
        build_workload_spec,
    )

    network = build_topology_spec(
        params.get("topology", {"kind": "grid", "rows": 4, "cols": 4})
    )
    workload = dict(params.get("workload", {"kind": "uniform", "k": 4}))
    workload.setdefault("seed", seed)
    packets = build_workload_spec(network, workload)
    preset = str(params.get("preset", "default"))
    result = MultipleMessageBroadcast(
        network, params=PRESETS[preset](), seed=seed
    ).run(packets)
    return {
        "kind": "simulation",
        "seed": seed,
        "n": result.n,
        "k": result.k,
        "total_rounds": result.total_rounds,
        "leader": result.leader,
        "success": bool(result.success),
    }


def _run_chaos(seed: int, params: dict) -> dict:
    """One chaos-fuzz trial (sampled campaign + oracle catalog)."""
    from repro.resilience.chaos.runner import (
        CampaignConfig,
        run_fuzz_trial,
    )

    config = CampaignConfig.from_json(params.get("config", {}))
    trial = run_fuzz_trial(config, seed)
    return {
        "kind": "chaos",
        "seed": seed,
        "violations": [v["name"] for v in trial["violations"]],
        "total_rounds": trial.get("total_rounds"),
        "fault_atoms": trial.get("fault_atoms"),
    }


def _run_continuous(seed: int, params: dict) -> dict:
    """A bounded continuous-broadcast run; returns the accounting view."""
    from repro.coding.packets import required_packet_bits
    from repro.dynamic import (
        ContinuousBroadcast,
        ContinuousPolicy,
        PoissonProcess,
    )
    from repro.resilience.chaos.fuzzer import build_topology_spec

    network = build_topology_spec(
        params.get("topology", {"kind": "grid", "rows": 4, "cols": 4})
    )
    rounds = int(params.get("rounds", 1500))
    rate = float(params.get("rate", 0.003))
    preset = str(params.get("preset", "default"))
    algo = PRESETS[preset]().with_overrides(
        collection_estimate_factor=0.25, mspg_enabled=False,
    )
    process = PoissonProcess(
        rate=rate, size_bits=required_packet_bits(network.n), seed=seed,
    )
    policy = ContinuousPolicy(
        queue_capacity=int(params.get("queue_capacity", 16)),
        drop_policy=str(params.get("drop_policy", "drop_newest")),
        slo_rounds=int(params.get("slo_rounds", 2000)),
    )
    summary = ContinuousBroadcast(
        network, process, policy=policy, params=algo, seed=seed + 1,
    ).run(rounds).summary()
    return {
        "kind": "continuous",
        "seed": seed,
        "rounds": summary["rounds"],
        "arrivals": summary["arrivals"],
        "delivered": summary["delivered"],
        "throughput": summary["throughput"],
        "max_queue_len": summary["max_queue_len"],
        "accounting_exact": bool(summary["accounting_exact"]),
    }


_RUNNERS: Dict[str, object] = {
    "noop": _run_noop,
    "simulation": _run_simulation,
    "chaos": _run_chaos,
    "continuous": _run_continuous,
}


def execute_job(payload: dict) -> dict:
    """Run one job payload (``JobSpec.payload()``) to its result dict.

    This is the ``task_fn`` handed to
    :class:`repro.experiments.orchestrator.WorkerPool` — module-level
    and picklable, dispatching on the payload's ``kind``.
    """
    kind = payload["kind"]
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise ValueError(f"unknown job kind {kind!r}")
    return runner(int(payload.get("seed", 0)),
                  dict(payload.get("params", {})))
