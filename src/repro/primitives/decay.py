"""The Decay procedure (Bar-Yehuda, Goldreich, Itai 1992).

One *epoch* of Decay consists of ``⌈log2 Δ⌉ + 1`` slots; in slot
``s = 1, 2, ...`` every participating node transmits independently with
probability ``2^{-s}`` (this is the variant the paper's ``FORWARD``
sub-routine specifies).  The classic guarantee: a node with at least one
and at most Δ participating neighbors receives a message during the epoch
with probability bounded below by a positive constant (≈ 1/(2e)).

The classic 1992 formulation (`variant="classic"`) has each node transmit
in a prefix of slots of geometric length; both variants enjoy the constant
success probability and both are exposed for the E12 experiment.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace

#: A message factory: called as ``f(node_id, slot_index)`` each time the node
#: actually transmits, so coded schemes can generate a fresh message per
#: transmission (as FORWARD requires).
MessageFn = Callable[[int, int], object]


def decay_slots(max_degree: int) -> int:
    """Number of slots per Decay epoch for a given Δ: ``⌈log2 Δ⌉ + 1``.

    The ``+1`` slot (probability 1/2 down to ``2^{-(⌈log Δ⌉+1)}``) covers the
    boundary case of exactly Δ competing neighbors; it only changes constants.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return max(1, math.ceil(math.log2(max_degree))) + 1


def transmission_probabilities(num_slots: int) -> List[float]:
    """The per-slot transmission probabilities 1/2, 1/4, ..., 2^-num_slots."""
    return [2.0 ** -(s + 1) for s in range(num_slots)]


@lru_cache(maxsize=None)
def _probability_column(num_slots: int) -> np.ndarray:
    """:func:`transmission_probabilities` as a read-only ``(slots, 1)``
    column, built once per slot count."""
    column = np.array(
        transmission_probabilities(num_slots), dtype=np.float64
    )[:, None]
    column.flags.writeable = False
    return column


def decay_transmit_matrix(
    num_participants: int,
    rng: np.random.Generator,
    num_slots: int,
    variant: str = "independent",
) -> np.ndarray:
    """Whole-epoch transmit decisions as a ``(num_slots, m)`` bool matrix.

    ``matrix[s, i]`` says whether participant ``i`` transmits in slot
    ``s``.  The draws consume the *identical* RNG stream that
    :func:`run_decay_epoch` consumes for the same participant count:
    ``rng.random((num_slots, m))`` fills rows sequentially (C order), so
    row ``s`` holds exactly the ``m`` doubles the per-slot
    ``rng.random(m)`` call would have drawn, and the classic variant's
    geometric stops are drawn once up front in both.  The BFS, flood and
    dissemination drivers take their coin flips from this matrix.
    """
    m = int(num_participants)
    if variant == "independent":
        if m == 0:
            return np.zeros((num_slots, 0), dtype=bool)
        return rng.random((num_slots, m)) < _probability_column(num_slots)
    if variant == "classic":
        if m == 0:
            return np.zeros((num_slots, 0), dtype=bool)
        stops = rng.geometric(0.5, size=m)
        return np.arange(num_slots)[:, None] < stops[None, :]
    raise ValueError(f"unknown Decay variant {variant!r}")


def run_decay_epoch(
    network: RadioNetwork,
    participants: Sequence[int],
    message_fn: MessageFn,
    rng: np.random.Generator,
    num_slots: Optional[int] = None,
    variant: str = "independent",
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
) -> List[Dict[int, object]]:
    """Run one Decay epoch.

    Parameters
    ----------
    participants:
        Nodes that hold the message(s) and contend for the channel.
    message_fn:
        Called per actual transmission to obtain the message to send.
    num_slots:
        Slots in the epoch; defaults to :func:`decay_slots` of the network's Δ.
    variant:
        ``"independent"`` — transmit in slot ``s`` independently with
        probability ``2^{-s}`` (the paper's FORWARD formulation);
        ``"classic"`` — transmit in slots ``1..X`` where ``X`` is geometric
        (the original 1992 "decay" shape).

    Returns
    -------
    list of dict
        One ``receiver -> message`` map per slot.
    """
    if num_slots is None:
        num_slots = decay_slots(network.max_degree)
    participants = list(participants)
    receptions: List[Dict[int, object]] = []

    if variant == "classic":
        # Each node transmits in slots 0..stop-1 where stop is geometric,
        # capped at num_slots.
        stops = rng.geometric(0.5, size=len(participants)) if participants else []

    for slot in range(num_slots):
        transmissions: Dict[int, object] = {}
        if variant == "independent":
            p = 2.0 ** -(slot + 1)
            if participants:
                coins = rng.random(len(participants)) < p
                for i, node in enumerate(participants):
                    if coins[i]:
                        transmissions[node] = message_fn(node, slot)
        elif variant == "classic":
            for i, node in enumerate(participants):
                if slot < stops[i]:
                    transmissions[node] = message_fn(node, slot)
        else:
            raise ValueError(f"unknown Decay variant {variant!r}")

        received = network.resolve_round(transmissions)
        if trace is not None:
            trace.observe(round_offset + slot, transmissions, received)
        receptions.append(received)

    return receptions


def epoch_success_probability_lower_bound() -> float:
    """The constant from the BGI analysis: per-epoch reception probability
    for a node with 1..Δ participating neighbors is at least ~1/(2e).

    Exposed so experiments can compare measurements against the analytical
    constant.
    """
    return 1.0 / (2.0 * math.e)
