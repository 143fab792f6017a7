"""Which calls the traced run wraps, and the per-layer metrics it derives.

Layers are the ``repro`` packages: ``repro.topology`` (set-up),
``repro.primitives`` (leader election, BFS, Decay coin matrices),
``repro.core`` (the four stages), ``repro.radio`` (reception resolvers
and the erasure wrapper) and ``repro.coding`` (GF(2) and integrity
decoders).  Stage spans are the calls ``repro.core.multibroadcast``
makes; kernel spans nest under the stage that called them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from spans import Target, children_of, self_time

STAGES = ("election", "bfs", "collection", "dissemination")


def _rounds(args, out, pre):
    return {"rounds": int(out.rounds)}


def _dissemination(args, out, pre):
    return {
        "rounds": int(out.rounds),
        "coded_tx": int(out.coded_transmissions),
        "innovative_rx": int(out.innovative_receptions),
    }


def setup_targets() -> List[Target]:
    """Topology generation, exact diameter and CSR build."""
    from repro.radio.network import RadioNetwork
    from repro.topology import generators

    return [
        Target("topology.generate", generators, "grid"),
        Target("topology.generate", generators, "random_geometric"),
        Target("topology.diameter", RadioNetwork, "diameter", "property"),
        Target("radio.csr_build", RadioNetwork, "csr_adjacency", "method"),
    ]


def run_targets() -> List[Target]:
    """The four stages and the kernels they call."""
    from repro.coding.gf2 import PackedGF2Basis
    from repro.coding.integrity import HardenedGroupDecoder
    from repro.core import collection, dissemination
    from repro.primitives import bfs, decay, leader_election
    from repro.radio.faults import FaultyRadioNetwork
    from repro.radio.network import RadioNetwork

    return [
        Target("election", leader_election, "elect_leader", count=_rounds),
        Target("bfs", bfs, "build_distributed_bfs", count=_rounds),
        Target("collection", collection, "run_collection_stage",
               count=_rounds),
        Target("dissemination", dissemination, "run_dissemination_stage",
               count=_dissemination),
        Target("decay.matrix", decay, "decay_transmit_matrix",
               count=lambda a, out, p: {"cells": int(out.size)}),
        Target("radio.resolve_vector", RadioNetwork, "resolve_round_vector",
               "method",
               count=lambda a, out, p: {"tx": len(a[1]), "rx": len(out[0])}),
        Target("radio.resolve_round", RadioNetwork, "resolve_round", "method",
               count=lambda a, out, p: {"tx": len(a[1]), "rx": len(out)}),
        Target("faults.resolve_round", FaultyRadioNetwork, "resolve_round",
               "method", pre=lambda a: a[0].receptions_erased,
               count=lambda a, out, p: {
                   "erased": a[0].receptions_erased - p}),
        Target("gf2.absorb_block", PackedGF2Basis, "absorb_block", "method",
               pre=lambda a: a[0].rank,
               count=lambda a, out, p: {
                   "rows": len(a[1]), "innovative": a[0].rank - p}),
        Target("integrity.decoder_absorb", HardenedGroupDecoder, "absorb",
               "method"),
    ]


#: Every per-layer metric the traced run derives, with its unit.  The
#: benchmark's stdout line carries those listed in ``BENCHMARK.json``;
#: the trace file carries all of them.
UNITS: Dict[str, str] = {
    "topology.generate_s": "s",
    "topology.diameter_s": "s",
    "radio.csr_build_s": "s",
    **{f"{stage}.{key}": unit for stage in STAGES
       for key, unit in (("s", "s"), ("rounds", "rounds"), ("self_s", "s"))},
    "dissemination.direct": "flag",
    "dissemination.coded_tx": "count",
    "dissemination.innovative_rx": "count",
    "dissemination.innovative_per_coded_tx": "ratio",
    "rounds_per_packet": "rounds",
    "decay.matrix.calls": "count",
    "decay.matrix.s": "s",
    "decay.matrix.cells": "count",
    "radio.resolve.s": "s",
    "radio.resolve_vector.calls": "count",
    "radio.resolve_vector.s": "s",
    "radio.resolve_vector.tx": "count",
    "radio.resolve_vector.rx": "count",
    "radio.resolve_round.calls": "count",
    "radio.resolve_round.s": "s",
    "radio.rx_per_tx": "ratio",
    "faults.resolve_round.s": "s",
    "faults.erased": "count",
    "coding.decode.s": "s",
    "gf2.absorb_block.calls": "count",
    "gf2.absorb_block.s": "s",
    "gf2.absorb_block.rows": "count",
    "gf2.innovative_per_row": "ratio",
    "integrity.decoder_absorb.calls": "count",
    "integrity.decoder_absorb.s": "s",
    "trace.overhead_s": "s",
}


def setup_metrics(spans: Sequence[list]) -> Dict[str, float]:
    """Set-up times of one traced set-up."""
    total = defaultdict(float)
    for name, start, end, _, _ in spans:
        total[name] += end - start
    return {
        "topology.generate_s": total["topology.generate"],
        "topology.diameter_s": total["topology.diameter"],
        "radio.csr_build_s": total["radio.csr_build"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_metrics(spans: Sequence[list], runs: int) -> Tuple[Dict[str, float],
                                                           List[int]]:
    """Per-layer metrics of ``runs`` traced multibroadcast runs.

    Times, calls and counts are means per run.  Returns the metrics and
    the per-run ``dissemination.direct`` flags (1 when that run's
    dissemination stage called the vector resolver itself).
    """
    children = children_of(spans)
    calls: Dict[str, int] = defaultdict(int)
    seconds: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    stage_self: Dict[str, float] = defaultdict(float)
    direct: List[int] = []
    for index, (name, start, end, _, ctr) in enumerate(spans):
        calls[name] += 1
        seconds[name] += end - start
        for key, value in (ctr or {}).items():
            counts[f"{name}.{key}"] += value
        if name in STAGES:
            stage_self[name] += self_time(spans, index, children)
        if name == "dissemination":
            direct.append(int(any(
                spans[c][0] == "radio.resolve_vector"
                for c in children.get(index, ())
            )))

    metrics: Dict[str, float] = {}
    for stage in STAGES:
        metrics[f"{stage}.s"] = seconds[stage] / runs
        metrics[f"{stage}.rounds"] = counts[f"{stage}.rounds"] / runs
        metrics[f"{stage}.self_s"] = stage_self[stage] / runs
    metrics["dissemination.direct"] = float(bool(direct) and all(direct))
    metrics["dissemination.coded_tx"] = counts["dissemination.coded_tx"] / runs
    metrics["dissemination.innovative_rx"] = (
        counts["dissemination.innovative_rx"] / runs)
    metrics["dissemination.innovative_per_coded_tx"] = _ratio(
        counts["dissemination.innovative_rx"],
        counts["dissemination.coded_tx"])
    for kernel in ("decay.matrix", "radio.resolve_vector",
                   "radio.resolve_round", "gf2.absorb_block",
                   "integrity.decoder_absorb"):
        metrics[f"{kernel}.calls"] = calls[kernel] / runs
        metrics[f"{kernel}.s"] = seconds[kernel] / runs
    metrics["decay.matrix.cells"] = counts["decay.matrix.cells"] / runs
    for key in ("tx", "rx"):
        metrics[f"radio.resolve_vector.{key}"] = (
            counts[f"radio.resolve_vector.{key}"] / runs)
    metrics["radio.resolve.s"] = (
        metrics["radio.resolve_vector.s"] + metrics["radio.resolve_round.s"])
    metrics["radio.rx_per_tx"] = _ratio(
        counts["radio.resolve_vector.rx"] + counts["radio.resolve_round.rx"],
        counts["radio.resolve_vector.tx"] + counts["radio.resolve_round.tx"])
    metrics["faults.resolve_round.s"] = seconds["faults.resolve_round"] / runs
    metrics["faults.erased"] = counts["faults.resolve_round.erased"] / runs
    metrics["gf2.absorb_block.rows"] = counts["gf2.absorb_block.rows"] / runs
    metrics["gf2.innovative_per_row"] = _ratio(
        counts["gf2.absorb_block.innovative"], counts["gf2.absorb_block.rows"])
    metrics["coding.decode.s"] = (
        metrics["gf2.absorb_block.s"] + metrics["integrity.decoder_absorb.s"])
    return metrics, direct
