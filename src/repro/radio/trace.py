"""Round traces: lightweight transcripts of simulated executions.

Traces serve two purposes: tests assert fine-grained protocol behaviour
against them, and the experiment harness derives its summary statistics
(busy rounds, collision counts, delivered messages) from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sized, Tuple


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one simulated round.

    Attributes
    ----------
    round_index:
        Global round number (0-based).
    num_transmitters:
        How many nodes transmitted.
    num_receivers:
        How many nodes successfully received (exactly-one-neighbor rule).
    num_collision_victims:
        Nodes reached by ≥ 2 transmitters (heard nothing, learned nothing).
    """

    round_index: int
    num_transmitters: int
    num_receivers: int
    num_collision_victims: int


class RoundTrace:
    """Accumulates :class:`RoundRecord` entries and summary statistics.

    Recording full per-round detail for million-round executions would be
    wasteful, so the trace always keeps aggregate counters and only keeps
    per-round records when ``keep_records`` is true.
    """

    def __init__(self, keep_records: bool = False):
        self.keep_records = keep_records
        self.records: List[RoundRecord] = []
        self.total_rounds = 0
        self.busy_rounds = 0
        self.total_transmissions = 0
        self.total_receptions = 0
        self.total_collision_victims = 0
        self.total_tx_suppressed = 0
        self.total_rx_suppressed = 0
        self.total_rx_corrupted = 0
        self.total_rx_corrupt_discarded = 0
        self.total_byzantine_rx_discarded = 0
        self.total_forged_acks_rejected = 0
        self.total_poisoned_rows_attributed = 0

    def observe(
        self,
        round_index: int,
        transmissions: Sized,
        received: Sized,
        reach_counts: Mapping[int, int] = None,
    ) -> None:
        """Record one resolved round.

        Only the sizes of ``transmissions`` and ``received`` are read, so
        any sized collection will do: the dict loops pass their round
        dicts, the vector paths their transmitter and receiver arrays.
        ``reach_counts`` (node -> number of transmitting neighbors) is
        optional; ``total_collision_victims`` counts only rounds that
        pass it, and no stage driver does.
        """
        num_tx = len(transmissions)
        num_rx = len(received)
        victims = 0
        if reach_counts is not None:
            victims = sum(1 for c in reach_counts.values() if c >= 2)

        self.total_rounds = max(self.total_rounds, round_index + 1)
        if num_tx:
            self.busy_rounds += 1
        self.total_transmissions += num_tx
        self.total_receptions += num_rx
        self.total_collision_victims += victims

        if self.keep_records:
            self.records.append(
                RoundRecord(
                    round_index=round_index,
                    num_transmitters=num_tx,
                    num_receivers=num_rx,
                    num_collision_victims=victims,
                )
            )

    def observe_faults(
        self,
        tx_suppressed: int = 0,
        rx_suppressed: int = 0,
        rx_corrupted: int = 0,
    ) -> None:
        """Record fault-layer suppression (crashed transmitters silenced,
        receptions dropped at dead/jammed nodes or over downed links) and
        adversarial corruption (receptions delivered with flipped bits —
        *not* suppressed; they reach the receiver and are accounted again
        only if the integrity layer discards them)."""
        self.total_tx_suppressed += tx_suppressed
        self.total_rx_suppressed += rx_suppressed
        self.total_rx_corrupted += rx_corrupted

    def observe_integrity(self, rx_corrupt_discarded: int = 0) -> None:
        """Record receiver-side integrity rejections: receptions whose
        checksum failed or whose row was quarantined before Gaussian
        elimination.  Mirrors the fault-suppression counters so every
        dropped packet is accounted for exactly once — a reception is
        either suppressed by the fault layer (``total_rx_suppressed``) or
        delivered-then-discarded here, never both."""
        self.total_rx_corrupt_discarded += rx_corrupt_discarded

    def observe_byzantine(
        self,
        rx_discarded: int = 0,
        forged_acks: int = 0,
        poisoned_rows: int = 0,
    ) -> None:
        """Record receiver-side Byzantine rejections, disjoint from the
        integrity counters: receptions dropped because the sender is
        blacklisted or its hop tag failed (``rx_discarded``), ACKs whose
        root tag was forged (``forged_acks``), and coded/plain rows whose
        content check failed under a verified hop tag — i.e. provably
        poisoned by the signer (``poisoned_rows``).  Forged ACKs and
        poisoned rows are counted *in addition to* being discarded, so
        the three buckets partition the evidence, not the drops."""
        self.total_byzantine_rx_discarded += rx_discarded
        self.total_forged_acks_rejected += forged_acks
        self.total_poisoned_rows_attributed += poisoned_rows

    def advance_to(self, round_index: int) -> None:
        """Note that time has advanced (possibly through silent rounds)."""
        self.total_rounds = max(self.total_rounds, round_index)

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics for reporting."""
        return {
            "total_rounds": self.total_rounds,
            "busy_rounds": self.busy_rounds,
            "total_transmissions": self.total_transmissions,
            "total_receptions": self.total_receptions,
            "total_collision_victims": self.total_collision_victims,
            "total_tx_suppressed": self.total_tx_suppressed,
            "total_rx_suppressed": self.total_rx_suppressed,
            "total_rx_corrupted": self.total_rx_corrupted,
            "total_rx_corrupt_discarded": self.total_rx_corrupt_discarded,
            "total_byzantine_rx_discarded": self.total_byzantine_rx_discarded,
            "total_forged_acks_rejected": self.total_forged_acks_rejected,
            "total_poisoned_rows_attributed":
                self.total_poisoned_rows_attributed,
            "delivery_ratio": (
                self.total_receptions / self.total_transmissions
                if self.total_transmissions
                else 0.0
            ),
        }


def merge_summaries(summaries: List[Dict[str, float]]) -> Dict[str, Tuple[float, float]]:
    """Mean and max per key across several trace summaries."""
    if not summaries:
        return {}
    keys = summaries[0].keys()
    out: Dict[str, Tuple[float, float]] = {}
    for key in keys:
        values = [s[key] for s in summaries]
        out[key] = (sum(values) / len(values), max(values))
    return out
