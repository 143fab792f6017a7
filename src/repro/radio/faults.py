"""Fault injection: erasure and jamming on top of any radio network.

:class:`FaultyRadioNetwork` is a transparent proxy (like
:class:`repro.radio.transcript.RecordingNetwork`): the wrapped network
supplies the collision rule and every other attribute (topology, cached
diameter, engine, a churn layer's clock), and this layer applies
additional loss *after* the collision rule:

- **erasures** — every successful reception is independently dropped with
  probability ``erasure_prob`` (fading, checksum failures);
- **jamming** — receptions at the ``jammed_nodes`` are dropped with
  probability ``jam_prob`` (a localized interferer).

The protocols in this library are built from acknowledged retries
(Stage 3), fixed redundancy budgets (Decay/BGI epochs) and rateless
coding (Stage 4), so they degrade gracefully under erasures — experiment
E15 measures exactly how much budget headroom each loss rate consumes.

Faults are applied through the same :meth:`resolve_round` interface, so
every engine runs unchanged, and the fault process is seeded (same seed ⇒
same loss pattern).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.radio.network import RadioNetwork
from repro.radio.rng import SeedLike, make_rng


class FaultyRadioNetwork:
    """A radio network with post-collision reception faults.

    Parameters
    ----------
    base:
        The fault-free network.  Its ``resolve_round`` supplies the
        collision semantics — wrapping a SINR or erasure network
        preserves that model's reception rule, with this layer's faults
        applied on top — and every other attribute (n, D, Δ, engine, …)
        is read from it.
    erasure_prob:
        Probability each successful reception is independently dropped.
    jammed_nodes:
        Nodes subject to jamming.
    jam_prob:
        Drop probability at jammed nodes (applied after erasures).
    seed:
        Seed for the fault process.
    """

    def __init__(
        self,
        base: RadioNetwork,
        erasure_prob: float = 0.0,
        jammed_nodes: Iterable[int] = (),
        jam_prob: float = 1.0,
        seed: SeedLike = None,
    ):
        if not 0.0 <= erasure_prob < 1.0:
            raise ValueError("erasure_prob must be in [0, 1)")
        if not 0.0 <= jam_prob <= 1.0:
            raise ValueError("jam_prob must be in [0, 1]")
        self._base = base
        self.name = f"faulty({base.name},e={erasure_prob})"
        self.erasure_prob = float(erasure_prob)
        self.jammed = frozenset(int(v) for v in jammed_nodes)
        if any(not 0 <= v < base.n for v in self.jammed):
            raise ValueError("jammed node id out of range")
        self.jam_prob = float(jam_prob)
        self._fault_rng = make_rng(seed)
        self.receptions_erased = 0
        self.receptions_jammed = 0

    def resolve_round(self, transmissions: Mapping[int, object]) -> Dict[int, object]:
        received = self._base.resolve_round(transmissions)
        if not received:
            return received
        surviving: Dict[int, object] = {}
        for receiver, message in received.items():
            if (
                self.erasure_prob > 0.0
                and self._fault_rng.random() < self.erasure_prob
            ):
                self.receptions_erased += 1
                continue
            if (
                receiver in self.jammed
                and self._fault_rng.random() < self.jam_prob
            ):
                self.receptions_jammed += 1
                continue
            surviving[receiver] = message
        return surviving

    def __getattr__(self, name: str):
        if name == "_base":  # guard against recursion during unpickling
            raise AttributeError(name)
        return getattr(self._base, name)
