"""The benchmark's three workloads: topology, packet count and faults.

The topology is fixed by the workload; the ``--seed`` argument sets the
packet placement, the algorithm seed and the fault seed of every run.
All three run the ``columnar`` engine.  Why each was chosen is in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro import MultipleMessageBroadcast
from repro.core.config import AlgorithmParameters
from repro.experiments.workloads import uniform_random_placement
from repro.radio.faults import FaultyRadioNetwork
from repro.radio.network import RadioNetwork
from repro.topology import generators

#: The random geometric graph is drawn once, from this seed, so the
#: topology is the same for every ``--seed``.
RGG_TOPOLOGY_SEED = 21

#: k of the discarded warm-up run.  It runs all four stages on the
#: workload's own network and parameters (so lazily built adjacency
#: bitsets, numpy dispatch and interpreter specialisation are warm)
#: without paying a full k=256 dissemination.
WARMUP_K = 16


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str              # "grid" (size x size) or "rgg" (size nodes)
    size: int
    k: int
    setup_reps: int            # set-ups per run; setup_s is their median
    erasure_prob: float = 0.0
    root_plain_repetitions: int = 1

    @property
    def honest(self) -> bool:
        return self.erasure_prob == 0.0

    @property
    def direct(self) -> int:
        """The dissemination path the run must take: 1 = vector."""
        return int(self.honest)

    def params(self) -> AlgorithmParameters:
        return AlgorithmParameters(
            engine="columnar",
            root_plain_repetitions=self.root_plain_repetitions,
        )

    def build(self) -> RadioNetwork:
        """Set-up: topology, exact diameter and CSR adjacency."""
        if self.topology == "grid":
            net = generators.grid(self.size, self.size)
        else:
            net = generators.random_geometric(
                self.size, seed=RGG_TOPOLOGY_SEED)
        net.diameter
        net.csr_adjacency()
        return net

    def tiny(self) -> "Workload":
        """The same workload at n≈100, for smoke tests."""
        size = 10 if self.topology == "grid" else 100
        return replace(self, size=size, k=min(self.k, 8), setup_reps=1)

    def inputs(self, net: RadioNetwork, seeds: Tuple[int, int, int],
               k: Optional[int] = None):
        """One run's network, packets and algorithm object.

        The erasure wrapper is rebuilt per run because its fault stream
        is part of the run's seed; it inherits the base's diameter.
        """
        placement, algo, fault = seeds
        run_net = net
        if not self.honest:
            run_net = FaultyRadioNetwork(
                net, erasure_prob=self.erasure_prob, seed=fault)
            run_net.set_diameter_hint(net.diameter)
        packets = uniform_random_placement(
            net, k=self.k if k is None else k, seed=placement)
        algorithm = MultipleMessageBroadcast(
            run_net, params=self.params(), seed=algo)
        return run_net, packets, algorithm

    def check(self, result, run_net) -> Optional[str]:
        """Why this run's output is wrong, or None.

        A run that reports success must have delivered every packet to
        every node.  Honest workloads must succeed; the erasure workload
        may fail (counted by the caller) but its faults must have fired.
        """
        delivered = (
            result.dissemination is not None
            and bool(result.dissemination.has_group.all())
            and result.informed_fraction == 1.0
        )
        if result.success and not delivered:
            return "success reported but not every packet delivered"
        if self.honest and not result.success:
            return "honest run failed"
        if not self.honest and run_net.receptions_erased == 0:
            return "no reception was erased"
        return None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("grid-k256", "grid", 30, 256, setup_reps=15),
    Workload("rgg-k8", "rgg", 4000, 8, setup_reps=2),
    Workload("grid-erasure-k64", "grid", 30, 64, setup_reps=15,
             erasure_prob=0.02, root_plain_repetitions=8),
)}


def sample_seeds(seed: int, index: int) -> Tuple[int, int, int]:
    """Placement, algorithm and fault seeds of run ``index`` (0 = warm-up)."""
    state = np.random.SeedSequence([seed, index]).generate_state(3)
    return tuple(int(s) for s in state)
