"""Stage 3: packet collection at the root (OSPG / MSPG / GRAB / ALARM).

The stage runs in *phases*; each phase is a grabbing epoch (sub-routine
``GRAB(x)`` for the current estimate ``x`` of ``k``) followed by an alarming
epoch (a fixed-length multi-source BGI broadcast of a 1-bit alarm by every
node still holding an unacknowledged packet).  The estimate starts at
``(D + log n)·log n`` and doubles after every phase in which an alarm is
heard; the stage ends with a silent alarming epoch.

``OSPG(y)`` (One_Shot_Partial_Gather): every unacknowledged packet draws a
uniform launch round in ``[1, 6y]`` and is unicast hop-by-hop toward the
root along the BFS tree; no collision recovery.  The root then unicasts
acknowledgments back along the recorded reverse paths, spaced 3 rounds
apart (BFS layering makes that spacing collision-free).  The procedure
occupies exactly ``24y + 5D`` rounds.

``MSPG(x, z)`` is identical except each packet launches ``z`` independent
copies with launch rounds drawn from ``[1, 6x]``.

``GRAB(x)`` runs ``OSPG(x), OSPG(x/2), …, OSPG(c log n)`` and finishes with
``MSPG(c² log² n, c log n)``.

Simulation notes
----------------
- Every transmission is resolved through
  :meth:`RadioNetwork.resolve_round`; interference between unrelated
  unicasts (and between stray packets and ACKs) is real, not modeled away.
- A node transmits at most one message per round.  When a relay duty and a
  scheduled launch (or two relays) collide at a node in the same round, the
  relayed in-flight packet wins and the other copy is dropped — it stays
  unacknowledged and retries in a later procedure.
- The engine skips provably silent rounds computationally but charges them
  to the round budget, so timings match the protocol exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.integrity import (
    ack_root_tag,
    collection_hop_tag,
    packet_origin_tag,
    verify_auth_tag,
)
from repro.coding.packets import Packet
from repro.core.config import AlgorithmParameters
from repro.primitives.bgi_broadcast import bgi_broadcast
from repro.primitives.decay import decay_slots
from repro.radio.errors import ProtocolError
from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace


@dataclass
class GatherEpochResult:
    """Outcome of one OSPG/MSPG procedure."""

    rounds: int
    collected: List[int]          # pids newly received by the root, arrival order
    acked: Set[int]               # pids whose origin received the acknowledgment
    launches: int                 # packet copies actually launched
    lost_to_collisions: int       # copies that died before reaching the root
    byzantine_rx_discarded: int = 0   # receptions dropped by the auth gate
    forged_acks_rejected: int = 0     # acks whose root tag failed
    flagged: Set[int] = field(default_factory=set)  # provably bad senders


@dataclass
class CollectionResult:
    """Outcome of the whole Stage 3.

    Attributes
    ----------
    rounds:
        Total rounds consumed by the stage.
    collected_order:
        All packet ids at the root, in collection order (root-origin
        packets first, then arrivals).
    all_collected:
        The root holds every packet.
    synchronized:
        Every alarming epoch reached every node, so all nodes share the
        estimate/phase schedule (the w.h.p. agreement, measured).
    phases:
        Number of (GRAB + ALARM) phases executed.
    estimates:
        The estimate ``x`` used in each phase.
    grab_rounds / alarm_rounds:
        Round split between the two epoch kinds.
    """

    rounds: int
    collected_order: List[int]
    all_collected: bool
    synchronized: bool
    phases: int
    estimates: List[int]
    grab_rounds: int
    alarm_rounds: int
    epoch_results: List[GatherEpochResult] = field(default_factory=list, repr=False)
    byzantine_rx_discarded: int = 0
    forged_acks_rejected: int = 0
    flagged: Set[int] = field(default_factory=set)

    @property
    def success(self) -> bool:
        return self.all_collected


# ----------------------------------------------------------------------
# One gather procedure (OSPG / MSPG share this engine)
# ----------------------------------------------------------------------


def run_gather_procedure(
    network: RadioNetwork,
    parent: Sequence[int],
    root: int,
    launches: Sequence[Tuple[int, int, int]],
    window: int,
    depth_bound: int,
    already_collected: Optional[Set[int]] = None,
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
    auth_key: Optional[int] = None,
    blacklist: frozenset = frozenset(),
) -> GatherEpochResult:
    """Simulate one OSPG/MSPG procedure.

    Parameters
    ----------
    launches:
        ``(pid, origin, launch_round)`` triples with
        ``launch_round ∈ [1, window]``; one triple per packet *copy*
        (MSPG passes several per packet).  Same-node/same-round conflicts
        are resolved inside (one copy transmitted, others dropped).
        Contract: a pid identifies one packet globally, so every copy of
        a pid carries the same origin (copies differ only in the round).
    window:
        The ``6y`` launch window of the procedure.
    depth_bound:
        The known upper bound on D used in the fixed procedure length
        ``(window + depth_bound) + (3·(window + depth_bound) + depth_bound)``.
    already_collected:
        Pids the root already holds; re-arrivals are acknowledged but not
        re-collected.
    auth_key:
        Master authentication key, or ``None`` for the paper's
        trusting-nodes wire format.  With a key, packets carry the
        origin's tag and ACKs the root's tag, every hop signs its
        transmission, and receivers verify before relaying: traffic from
        blacklisted senders or with a bad hop tag is discarded, and a
        *verified* hop carrying an invalid inner tag provably convicts
        the sender (honest nodes verify before relaying), which lands it
        in ``flagged``.  Tags are deterministic — the gather procedure
        draws no randomness either way.
    blacklist:
        Senders whose traffic honest nodes ignore outright.

    Returns
    -------
    GatherEpochResult
        With ``rounds`` equal to the procedure's fixed length (idle rounds
        are charged but not iterated).
    """
    t1 = window + depth_bound                       # end of the forwarding part
    total = t1 + 3 * t1 + depth_bound               # full procedure length
    collected_before = set(already_collected or ())

    origin_of: Dict[int, int] = {}
    for pid, origin, _ in launches:
        origin_of[pid] = origin

    # pending[t] = list of (pid, holder, is_launch, otag) copies to
    # transmit in round t; is_launch marks the origin's first hop (for
    # loss accounting), otag the origin's signature carried by relays.
    pending: Dict[int, List[Tuple[int, int, bool, Optional[int]]]] = {}
    for pid, origin, launch_round in launches:
        if origin == root:
            raise ProtocolError("root packets are collected, not launched")
        if not 1 <= launch_round <= window:
            raise ProtocolError(
                f"launch round {launch_round} outside [1, {window}]"
            )
        otag = (packet_origin_tag(origin, pid, auth_key)
                if auth_key is not None else None)
        pending.setdefault(launch_round, []).append((pid, origin, True, otag))

    # ack_pending[t] = list of (pid, holder, rtag) ACK hops for round t;
    # the root's acknowledgments are scheduled once part 1 closes.
    ack_pending: Dict[int, List[Tuple[int, int, Optional[int]]]] = {}

    came_from: Dict[Tuple[int, int], int] = {}      # (node, pid) -> child
    collected: List[int] = []
    collected_set: Set[int] = set()
    acked_this_epoch: Set[int] = set()
    launched = 0
    delivered_copies = 0
    byz_discarded = 0
    forged_rejected = 0
    flagged: Set[int] = set()

    # Single pass over the fixed-length procedure: forwarding traffic
    # lives in rounds [1, t1] and acknowledgments in [t1+1, total], but
    # one loop handles both kinds in any round so injected (Byzantine)
    # traffic cannot fall between two specialised passes.  With honest
    # traffic the resolved-round sequence is identical to the historical
    # two-pass engine: empty rounds are still skipped, never resolved.
    for t in range(1, total + 1):
        if t == t1 + 1:
            # Part 1 is over; the root acknowledges what it collected,
            # spaced 3 rounds apart (BFS layering keeps that clean).
            for i, pid in enumerate(collected):
                rtag = (ack_root_tag(root, pid, auth_key)
                        if auth_key is not None else None)
                ack_pending.setdefault(t1 + 1 + 3 * i, []).append(
                    (pid, root, rtag)
                )

        copies = pending.pop(t, None)
        hops = ack_pending.pop(t, None)
        if not copies and not hops:
            continue
        transmissions: Dict[int, tuple] = {}
        # Relay duty wins over a scheduled launch at the same node: sort so
        # relays (is_launch=False) claim the transmission slot first.
        for pid, holder, is_launch, otag in sorted(
            copies or (), key=lambda c: c[2]
        ):
            if holder in transmissions:
                continue  # one message per node per round; extra copy dies
            dest = parent[holder]
            if auth_key is not None:
                htag = collection_hop_tag(holder, "pkt", pid, dest, otag,
                                          auth_key)
                transmissions[holder] = ("pkt", pid, dest, holder, otag, htag)
            else:
                transmissions[holder] = ("pkt", pid, dest, holder)
            if is_launch:
                launched += 1
        for pid, holder, rtag in hops or ():
            child = came_from.get((holder, pid))
            if child is None:
                continue  # path record missing (should not happen)
            if holder in transmissions:
                continue
            if auth_key is not None:
                htag = collection_hop_tag(holder, "ack", pid, child, rtag,
                                          auth_key)
                transmissions[holder] = ("ack", pid, child, holder, rtag, htag)
            else:
                transmissions[holder] = ("ack", pid, child, holder)

        received = network.resolve_round(transmissions)
        if trace is not None:
            trace.observe(round_offset + t - 1, transmissions, received)
        for receiver, msg in received.items():
            if not (isinstance(msg, tuple) and len(msg) >= 4):
                continue  # not collection traffic
            kind, pid, dest, sender = msg[0], msg[1], msg[2], msg[3]
            if kind not in ("pkt", "ack"):
                continue
            if receiver != dest:
                continue  # overheard, not addressed to this node
            if auth_key is not None:
                if sender in blacklist:
                    byz_discarded += 1
                    continue
                inner = msg[4] if len(msg) == 6 else None
                htag = msg[5] if len(msg) == 6 else None
                if not verify_auth_tag(
                    htag, sender, (kind, pid, dest, inner), auth_key
                ):
                    # unsigned or mis-signed hop: drop, but no conviction
                    # (anyone can transmit noise under someone's name)
                    byz_discarded += 1
                    continue
                if kind == "pkt":
                    origin = origin_of.get(pid)
                    if origin is None or inner != packet_origin_tag(
                        origin, pid, auth_key
                    ):
                        # the sender signed a packet whose origin tag is
                        # forged — honest relays verify before relaying,
                        # so the forgery is the sender's own
                        byz_discarded += 1
                        flagged.add(sender)
                        continue
                else:
                    if inner != ack_root_tag(root, pid, auth_key):
                        # forged acknowledgment, provably minted by the
                        # sender: the packet stays un-collected
                        byz_discarded += 1
                        forged_rejected += 1
                        flagged.add(sender)
                        continue
            if kind == "pkt":
                key = (receiver, pid)
                if key not in came_from:
                    came_from[key] = sender
                if receiver == root:
                    delivered_copies += 1
                    if (pid not in collected_set
                            and pid not in collected_before):
                        collected_set.add(pid)
                        collected.append(pid)
                    elif pid in collected_before and pid not in collected_set:
                        # Re-arrival of a packet collected in an earlier
                        # epoch: acknowledge it again so the origin learns.
                        collected_set.add(pid)
                        collected.append(pid)
                elif t + 1 <= t1:
                    otag = msg[4] if len(msg) == 6 else None
                    pending.setdefault(t + 1, []).append(
                        (pid, receiver, False, otag)
                    )
                # else: the forwarding window closed; the copy is dropped.
            else:
                if origin_of.get(pid) == receiver:
                    acked_this_epoch.add(pid)
                elif t + 1 <= total:
                    rtag = msg[4] if len(msg) == 6 else None
                    ack_pending.setdefault(t + 1, []).append(
                        (pid, receiver, rtag)
                    )

    if trace is not None and (byz_discarded or forged_rejected):
        trace.observe_byzantine(
            rx_discarded=byz_discarded, forged_acks=forged_rejected
        )

    return GatherEpochResult(
        rounds=total,
        collected=collected,
        acked=acked_this_epoch,
        launches=launched,
        lost_to_collisions=launched - delivered_copies,
        byzantine_rx_discarded=byz_discarded,
        forged_acks_rejected=forged_rejected,
        flagged=flagged,
    )


# ----------------------------------------------------------------------
# GRAB(x): the cascade of OSPGs plus the final MSPG
# ----------------------------------------------------------------------


def grab_schedule(x: int, c_log_n: int) -> List[int]:
    """The window parameters ``y`` of the OSPG cascade inside GRAB(x):
    ``x, ⌈x/2⌉, …`` down to (and including) ``c·log n``."""
    ys: List[int] = []
    y = max(int(x), c_log_n)
    while y > c_log_n:
        ys.append(y)
        y = (y + 1) // 2
    ys.append(c_log_n)
    return ys


@dataclass
class GrabResult:
    rounds: int
    collected: List[int]
    acked: Set[int]
    epoch_results: List[GatherEpochResult]
    byzantine_rx_discarded: int = 0
    forged_acks_rejected: int = 0
    flagged: Set[int] = field(default_factory=set)


def run_grab(
    network: RadioNetwork,
    parent: Sequence[int],
    root: int,
    unacked: Dict[int, int],
    x: int,
    params: AlgorithmParameters,
    rng: np.random.Generator,
    depth_bound: int,
    already_collected: Set[int],
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
    auth_key: Optional[int] = None,
    blacklist: frozenset = frozenset(),
) -> GrabResult:
    """Run sub-routine GRAB(x).

    Parameters
    ----------
    unacked:
        ``pid -> origin`` for packets whose origins have not yet received
        an acknowledgment.  Mutated: acked pids are removed.
    already_collected:
        Pids the root holds from previous phases/procedures.  Mutated.
    """
    c_log_n = params.c_log_n(network.n)
    rounds = 0
    collected_all: List[int] = []
    acked_all: Set[int] = set()
    epoch_results: List[GatherEpochResult] = []

    window_factor = max(1, int(params.ospg_window_factor))

    def launch_and_run(window: int, copies: int) -> GatherEpochResult:
        nonlocal rounds
        # One draw for every (packet, copy) launch round; numpy fills the
        # matrix row by row, the stream of one draw per packet.
        items = list(unacked.items())
        draws = rng.integers(
            1, window_factor * window + 1, size=(len(items), copies)
        )
        launches = [
            (pid, origin, int(r))
            for (pid, origin), row in zip(items, draws)
            for r in row
        ]
        result = run_gather_procedure(
            network,
            parent,
            root,
            launches,
            window=window_factor * window,
            depth_bound=depth_bound,
            already_collected=already_collected,
            trace=trace,
            round_offset=round_offset + rounds,
            auth_key=auth_key,
            blacklist=blacklist,
        )
        rounds += result.rounds
        for pid in result.collected:
            if pid not in already_collected:
                already_collected.add(pid)
                collected_all.append(pid)
        for pid in result.acked:
            unacked.pop(pid, None)
            acked_all.add(pid)
        epoch_results.append(result)
        return result

    for y in grab_schedule(x, c_log_n):
        launch_and_run(y, copies=1)

    if params.mspg_enabled:
        launch_and_run(c_log_n * c_log_n, copies=c_log_n)

    return GrabResult(
        rounds=rounds,
        collected=collected_all,
        acked=acked_all,
        epoch_results=epoch_results,
        byzantine_rx_discarded=sum(
            e.byzantine_rx_discarded for e in epoch_results
        ),
        forged_acks_rejected=sum(
            e.forged_acks_rejected for e in epoch_results
        ),
        flagged=set().union(*(e.flagged for e in epoch_results))
        if epoch_results else set(),
    )


# ----------------------------------------------------------------------
# The full Stage 3 driver
# ----------------------------------------------------------------------


def run_collection_stage(
    network: RadioNetwork,
    parent: Sequence[int],
    distance: Sequence[int],
    root: int,
    packets: Sequence[Packet],
    params: AlgorithmParameters,
    rng: np.random.Generator,
    depth_bound: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
    blacklist: frozenset = frozenset(),
) -> CollectionResult:
    """Collect all packets at the root (Lemma 5).

    Requires a valid BFS ``parent``/``distance`` labeling from Stage 2
    (every non-root node must have a parent on a path to the root).

    When ``params.authentication`` is on, every gather procedure runs
    the verified wire format (see :func:`run_gather_procedure`);
    ``blacklist`` names senders whose traffic honest nodes ignore.
    """
    if depth_bound is None:
        depth_bound = network.diameter
    for p in packets:
        if p.origin != root and parent[p.origin] < 0:
            raise ProtocolError(
                f"packet {p.pid} originates at node {p.origin} which has no "
                f"BFS parent; run Stage 2 first"
            )

    # Root-origin packets are collected from the start.
    collected_order: List[int] = [p.pid for p in packets if p.origin == root]
    already_collected: Set[int] = set(collected_order)
    unacked: Dict[int, int] = {
        p.pid: p.origin for p in packets if p.origin != root
    }

    auth_key = params.auth_master_key if params.authentication else None

    x = params.initial_collection_estimate(network, depth_bound)
    rounds = 0
    grab_rounds = 0
    alarm_rounds = 0
    phases = 0
    estimates: List[int] = []
    synchronized = True
    all_epochs: List[GatherEpochResult] = []
    alarm_epochs = params.bgi_epochs(network)

    while phases < params.max_collection_phases:
        phases += 1
        estimates.append(x)

        grab = run_grab(
            network,
            parent,
            root,
            unacked,
            x,
            params,
            rng,
            depth_bound,
            already_collected,
            trace=trace,
            round_offset=round_offset + rounds,
            auth_key=auth_key,
            blacklist=blacklist,
        )
        rounds += grab.rounds
        grab_rounds += grab.rounds
        collected_order.extend(grab.collected)
        all_epochs.extend(grab.epoch_results)

        # Alarming epoch: fixed length, sources = origins still unacked.
        # The window elapses in full even when silent — silence is how
        # the other nodes learn the stage is over.
        sources = sorted(set(unacked.values()))
        if sources:
            alarm = bgi_broadcast(
                network,
                sources,
                rng,
                message=1,
                epochs=alarm_epochs,
                stop_early=False,
                trace=trace,
                round_offset=round_offset + rounds,
            )
            epoch_rounds = alarm.rounds
        else:
            alarm = None
            epoch_rounds = alarm_epochs * decay_slots(network.max_degree)
        rounds += epoch_rounds
        alarm_rounds += epoch_rounds

        if not sources:
            # Silence: every node hears nothing and concludes the stage is
            # over.  (A node with an unacked packet is itself a source, so
            # no node wrongly concludes completion.)
            break

        if not alarm.complete:
            # Some node missed the alarm and will not double its estimate:
            # the schedule desynchronizes.  Record it and carry on with the
            # doubled estimate so the run can still be measured end to end.
            synchronized = False
        x *= 2
        if x > params.max_k_estimate(network.n):
            # The paper's standing assumption is k ≤ poly(n) with the
            # polynomial known to all nodes.  Alarms persisting past that
            # bound mean something other than underestimation is wrong
            # (e.g. a lossy channel eating every acknowledgment); give up
            # honestly instead of doubling forever.
            break

    return CollectionResult(
        rounds=rounds,
        collected_order=collected_order,
        all_collected=not unacked,
        synchronized=synchronized,
        phases=phases,
        estimates=estimates,
        grab_rounds=grab_rounds,
        alarm_rounds=alarm_rounds,
        epoch_results=all_epochs,
        byzantine_rx_discarded=sum(
            e.byzantine_rx_discarded for e in all_epochs
        ),
        forged_acks_rejected=sum(
            e.forged_acks_rejected for e in all_epochs
        ),
        flagged=set().union(*(e.flagged for e in all_epochs))
        if all_epochs else set(),
    )
