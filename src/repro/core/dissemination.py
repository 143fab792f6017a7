"""Stage 4: pipelined dissemination with network coding (FORWARD, Lemma 6/7).

The root partitions the ``k`` collected packets into ``g = ⌈k/⌈log n⌉⌉``
groups of up to ``⌈log n⌉`` packets.  Group ``j`` starts ``group_spacing``
phases after group ``j-1``; within its schedule, the group advances one BFS
layer per phase:

- layer-1 delivery: the root transmits the group's packets *plainly*, one
  per round (it is the only transmitter its neighbors hear — with the
  paper's spacing of 3, concurrent groups transmit at layers ≥ 3);
- layer ``d ≥ 2`` delivery: sub-routine ``FORWARD`` — the layer-``(d-1)``
  nodes that know the whole group run Decay epochs; whenever one transmits,
  it draws a fresh uniformly random subset of the group, XORs the selected
  payloads, and sends the sum with the subset bitmap as header.  A
  layer-``d`` node decodes once its received coefficient matrix has full
  rank (Lemma 3); it then joins the transmitter set for the next phase.

Every transmission of every concurrent group is resolved in the same round
(through :meth:`RadioNetwork.resolve_round`, or on the columnar direct path
through :meth:`RadioNetwork.resolve_round_vector`), so inter-group
interference is real: with the paper's spacing of 3 the BFS layering keeps
groups out of each other's way, and the A2 ablation (spacing 1 or 2) shows
the collisions that appear when the spacing is too small.

The phase length is fixed (``max(group width, epochs·slots)`` rounds) and
the stage length is deterministic:
``(spacing·(g-1) + ecc) · phase_length`` — the Lemma 7 count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.integrity import (
    HardenedGroupDecoder,
    coded_hop_tag,
    packet_checksum,
    plain_hop_tag,
    plain_root_tag,
)
from repro.coding.gf2 import PackedGF2Basis
from repro.coding.packets import CodedMessage, Packet
from repro.core.config import AlgorithmParameters
from repro.primitives.decay import decay_slots, decay_transmit_matrix
from repro.radio.errors import ProtocolError
from repro.radio.network import RadioNetwork, runs_vector_path
from repro.radio.trace import RoundTrace

#: Widest group for which the 2^width subset-XOR table is materialized.
#: ``width = ⌈log n⌉`` in every real configuration, so the table is ~n
#: entries; the cap only guards hand-built parameter sets.
_XOR_TABLE_MAX_WIDTH = 20

#: Widest group the columnar direct path runs: its coded masks are the
#: top ``gs`` bits of one uint32 draw each.
_DIRECT_MAX_WIDTH = 32


def epoch_draws(
    rng: np.random.Generator, bounds: np.ndarray, coded: bool
) -> np.ndarray:
    """All of one Decay epoch's per-transmission draws at once.

    ``bounds[i]`` is the size of transmission ``i``'s group, in draw
    order (slot first, then group, then sender).  Coded transmissions get
    a uniform subset mask in ``[0, 2**bounds[i])``, plain ones a uniform
    packet index in ``[0, bounds[i])``.

    The draws are stream-identical to one ``rng.integers(0, 1 << gs,
    size)`` (coded) or ``rng.integers(0, gs, size)`` (plain) call per
    (slot, group).  For a power-of-two range numpy's bounded draw takes
    the top bits of one uint32 and never rejects, so every coded mask is
    one uint32 draw shifted right by ``32 - gs``; plain draws may reject,
    so they take one call per maximal run of equal bound.  Bounds must
    be at most 32.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if coded:
        words = rng.integers(0, 1 << 32, size=bounds.size, dtype=np.uint64)
        return (words >> (32 - bounds).astype(np.uint64)).astype(np.int64)
    out = np.empty(bounds.size, dtype=np.int64)
    cuts = np.flatnonzero(np.diff(bounds)) + 1
    starts = [0, *cuts.tolist()]
    ends = [*cuts.tolist(), bounds.size]
    for a, b in zip(starts, ends):
        if a < b:
            out[a:b] = rng.integers(0, int(bounds[a]), size=b - a)
    return out


@dataclass
class DisseminationResult:
    """Outcome of Stage 4.

    Attributes
    ----------
    rounds:
        Total rounds (deterministic given the parameters).
    num_groups / group_width:
        The paper's ``g`` and ``⌈log n⌉``.
    phases:
        Total pipeline phases executed.
    phase_length:
        Rounds per phase.
    has_group:
        Boolean matrix ``[node][group]``: who decoded what.
    complete:
        Every node decoded every group *correctly* (no mis-decodes).
    failed_receivers:
        ``(node, group)`` pairs that ended without the group.
    coded_transmissions / innovative_receptions:
        Air-time accounting for the coding-efficiency experiments.
    corrupted_discarded:
        Receptions rejected by the integrity layer before Gaussian
        elimination (checksum mismatch or malformed header).
    quarantined_rows:
        Rows the hardened decoders quarantined (subset of the above plus
        keyless inconsistency detections).
    mis_decodes / mis_decoded_receivers:
        ``(node, group)`` pairs that completed with *wrong* payloads —
        possible with ``integrity_checks`` disabled under a corruption
        adversary, or with an insider poisoning checksum-valid rows when
        authentication is off; always 0 with the authenticated path.
    byzantine_rx_discarded:
        Receptions dropped at the authentication gate (blacklisted
        sender or failed hop tag) or attributed as poison.
    poisoned_rows_attributed:
        Rows whose hop tag verified but whose content failed the root
        tag (plain) or the group-span check (coded) — provable insider
        poison, attributed to the signer in ``flagged_senders``.
    """

    rounds: int
    num_groups: int
    group_width: int
    phases: int
    phase_length: int
    has_group: np.ndarray
    complete: bool
    failed_receivers: List[Tuple[int, int]]
    coded_transmissions: int = 0
    innovative_receptions: int = 0
    plain_transmissions: int = 0
    corrupted_discarded: int = 0
    quarantined_rows: int = 0
    mis_decodes: int = 0
    mis_decoded_receivers: List[Tuple[int, int]] = field(default_factory=list)
    byzantine_rx_discarded: int = 0
    poisoned_rows_attributed: int = 0
    flagged_senders: Set[int] = field(default_factory=set)

    @property
    def success(self) -> bool:
        return self.complete


def run_dissemination_stage(
    network: RadioNetwork,
    distance: Sequence[int],
    root: int,
    packets: Sequence[Packet],
    params: AlgorithmParameters,
    rng: np.random.Generator,
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
    blacklist: frozenset = frozenset(),
) -> DisseminationResult:
    """Broadcast all ``packets`` (held by the root) to every node.

    ``distance`` is the per-node BFS layer from Stage 2 (``distance[root]``
    must be 0 and all nodes must be labeled).

    When ``params.authentication`` is on, plain packets carry the root's
    tag and every transmission its sender's hop tag; receivers verify
    both — plus the group-span check on coded rows, standing in for a
    homomorphic network-coding MAC — before anything reaches a decoder.
    Tags are deterministic, so the RNG stream is untouched either way.
    ``blacklist`` names senders whose traffic honest nodes ignore.
    """
    n = network.n
    if distance[root] != 0:
        raise ProtocolError("distance[root] must be 0")
    dist = np.asarray(distance, dtype=np.int64)
    if (dist < 0).any():
        raise ProtocolError(
            "all nodes need a BFS distance before dissemination"
        )

    k = len(packets)
    width = params.group_width(n)
    groups: List[List[Packet]] = [
        list(packets[j : j + width]) for j in range(0, k, width)
    ]
    g = len(groups)
    group_payloads: List[List[int]] = [[p.payload for p in grp] for grp in groups]

    ecc = int(dist.max())
    spacing = params.group_spacing
    if spacing < 1:
        raise ProtocolError("group_spacing must be >= 1")

    epochs = params.forward_epochs(width)
    slots = decay_slots(network.max_degree)
    phase_length = max(width, epochs * slots)

    has_group = np.zeros((n, max(g, 1)), dtype=bool)
    has_group[root, :] = True

    if k == 0 or n == 1 or ecc == 0:
        return DisseminationResult(
            rounds=0,
            num_groups=g,
            group_width=width,
            phases=0,
            phase_length=phase_length,
            has_group=has_group,
            complete=True,
            failed_receivers=[],
        )

    # Pre-bucket nodes by BFS layer.
    layers: List[List[int]] = [[] for _ in range(ecc + 1)]
    for v in range(n):
        layers[int(dist[v])].append(v)

    # Precomputed subset-XOR tables: entry ``mask`` of table ``j`` is the
    # XOR of the group-``j`` payloads selected by ``mask``.  Groups are
    # ``⌈log n⌉`` wide, so each table has ~n entries, built in one DP
    # sweep; encoding a coded row and checking the span of a received one
    # become O(1) lookups instead of per-bit loops.  Guarded for
    # pathological widths where 2^width would not be worth materializing.
    if width <= _XOR_TABLE_MAX_WIDTH:
        xor_tables: Optional[List[List[int]]] = []
        for payloads_j in group_payloads:
            table = [0] * (1 << len(payloads_j))
            for b, pv in enumerate(payloads_j):
                base = 1 << b
                for lo in range(base):
                    table[base + lo] = table[lo] ^ pv
            xor_tables.append(table)
    else:
        xor_tables = None

    def subset_xor(j: int, mask: int) -> int:
        """XOR of the group-``j`` payloads selected by ``mask``."""
        if xor_tables is not None:
            return xor_tables[j][mask]
        payloads = group_payloads[j]
        xor = 0
        m = mask
        while m:
            b = (m & -m).bit_length() - 1
            xor ^= payloads[b]
            m &= m - 1
        return xor

    integrity = params.integrity_checks
    key = params.integrity_key
    auth = params.authentication
    akey = params.auth_master_key
    decoders: Dict[Tuple[int, int], HardenedGroupDecoder] = {}
    # (receiver, group) -> {packet index -> payload as received}
    plain_seen: Dict[Tuple[int, int], Dict[int, int]] = {}
    mis_decoded: Set[Tuple[int, int]] = set()
    total_phases = spacing * (g - 1) + ecc
    coded_tx = 0
    plain_tx = 0
    innovative_rx = 0
    corrupt_discarded = 0
    byz_discarded = 0
    poisoned_attributed = 0
    flagged: Set[int] = set()

    def seal_plain(sender: int, j: int, idx: int, payload: int, gs: int):
        """Wire tuple for a plain packet: a unit coefficient vector, so
        the same keyed checksum covers both wire formats.  Honest
        forwarders transmit the true payload, so the root tag they carry
        is the one the root minted for it."""
        chk = packet_checksum(j, 1 << idx, payload, gs, key) \
            if integrity else None
        if not auth:
            if chk is None:
                return ("plain", j, idx, payload, gs)
            return ("plain", j, idx, payload, gs, chk)
        rtag = plain_root_tag(root, j, idx, payload, akey)
        htag = plain_hop_tag(sender, j, idx, payload, gs,
                             -1 if chk is None else chk, rtag, akey)
        return ("plain", j, idx, payload, gs, chk, rtag, sender, htag)

    def seal_coded(sender: int, j: int, mask: int, xor: int, gs: int):
        chk = packet_checksum(j, mask, xor, gs, key) if integrity else None
        if not auth:
            if chk is None:
                return ("coded", j, mask, xor, gs)
            return ("coded", j, mask, xor, gs, chk)
        htag = coded_hop_tag(sender, j, mask, xor, gs,
                             -1 if chk is None else chk, akey)
        return ("coded", j, mask, xor, gs, chk, sender, htag)

    def in_group_span(j: int, mask: int, xor: int) -> bool:
        """The homomorphic-MAC stand-in: is ``xor`` exactly the XOR of
        the group-``j`` payloads selected by ``mask``?  An insider can
        recompute the shared checksum over poisoned data but cannot
        forge membership of the true span."""
        gs = len(groups[j])
        if not 0 <= mask < (1 << gs):
            return False
        return xor == subset_xor(j, mask)

    def group_layer(j: int, phase: int) -> int:
        """Layer group j is being delivered to during this 1-based phase,
        or 0 if the group is inactive."""
        d = phase - spacing * j
        return d if 1 <= d <= ecc else 0

    def flag_mis_decode(receiver: int, j: int) -> None:
        """Honest accounting of a completion with wrong payloads.

        Only reachable with ``integrity_checks`` off under a corruption
        adversary: the node *believes* it holds the group, but the data
        is wrong.  It is recorded (and excluded from the forwarder sets,
        so the simulation never launders truth through it) instead of
        silently delivering wrong plaintexts.
        """
        mis_decoded.add((receiver, j))
        has_group[receiver, j] = True

    def try_complete(receiver: int, j: int) -> None:
        """Promote a receiver to group holder if it can now decode."""
        if has_group[receiver, j]:
            return
        gs = len(groups[j])
        seen = plain_seen.get((receiver, j))
        if seen is not None and len(seen) == gs:
            if [seen[i] for i in range(gs)] == group_payloads[j]:
                has_group[receiver, j] = True
            else:
                flag_mis_decode(receiver, j)
            return
        dec = decoders.get((receiver, j))
        if dec is not None and dec.is_complete:
            decoded = dec.decode()
            if decoded != group_payloads[j]:
                # Reachable with integrity on: an insider knows the
                # shared checksum key, so checksum-valid poison passes
                # the gate when authentication (span checking) is off.
                # Honest accounting, never a silent wrong delivery.
                flag_mis_decode(receiver, j)
                return
            has_group[receiver, j] = True

    def process_received(
        received: Dict[int, object], phase: int, touched: Set[Tuple[int, int]]
    ) -> None:
        """Verify and absorb one resolved round's receptions.

        The Stage-4 receiver pipeline (layer acceptance →
        authentication → integrity → decoder) of the dict phase loop.
        The direct path needs none of it: it only runs honest,
        unblacklisted rounds, where every check passes.
        """
        nonlocal corrupt_discarded, byz_discarded, poisoned_attributed
        nonlocal innovative_rx
        round_discarded = 0
        round_byz = 0
        round_poisoned = 0
        for receiver, msg in received.items():
            if not (isinstance(msg, tuple) and len(msg) >= 5):
                continue  # not dissemination traffic
            kind = msg[0]
            if kind not in ("plain", "coded"):
                continue  # stray control traffic (e.g. forged ACKs)
            chk = msg[5] if len(msg) > 5 else None
            sender: Optional[int] = None
            if kind == "plain":
                _, j, idx, payload, gs = msg[:5]
                if has_group[receiver, j]:
                    continue
                d = group_layer(j, phase)
                accept = (
                    params.opportunistic_decoding
                    or (d and int(dist[receiver]) == d)
                )
                if not accept:
                    continue
                if auth:
                    if len(msg) != 9:
                        round_byz += 1
                        continue
                    rtag, sender, htag = msg[6], msg[7], msg[8]
                    if sender in blacklist:
                        round_byz += 1
                        continue
                    if htag != plain_hop_tag(
                        sender, j, idx, payload, gs,
                        -1 if chk is None else chk, rtag, akey,
                    ):
                        # unsigned/mis-signed hop: drop, no conviction
                        round_byz += 1
                        continue
                    if rtag != plain_root_tag(root, j, idx, payload,
                                              akey):
                        # the signer vouched for a payload the root
                        # never minted: provable poison
                        round_byz += 1
                        round_poisoned += 1
                        flagged.add(sender)
                        continue
                # verify before accepting: a malformed index is
                # detectable without the key; a flipped bit anywhere
                # breaks the keyed checksum
                if not 0 <= idx < gs:
                    corrupt_discarded += 1
                    round_discarded += 1
                    continue
                if integrity and chk is not None and chk != (
                    packet_checksum(j, 1 << idx, payload, gs, key)
                ):
                    corrupt_discarded += 1
                    round_discarded += 1
                    continue
                plain_seen.setdefault((receiver, j), {})[idx] = payload
                touched.add((receiver, j))
            else:
                _, j, mask, payload, gs = msg[:5]
                if has_group[receiver, j]:
                    continue
                d = group_layer(j, phase)
                accept = (
                    params.opportunistic_decoding
                    or (d and int(dist[receiver]) == d)
                )
                if not accept:
                    continue
                if auth:
                    if len(msg) != 8:
                        round_byz += 1
                        continue
                    sender, htag = msg[6], msg[7]
                    if sender in blacklist:
                        round_byz += 1
                        continue
                    if htag != coded_hop_tag(
                        sender, j, mask, payload, gs,
                        -1 if chk is None else chk, akey,
                    ):
                        round_byz += 1
                        continue
                    if not in_group_span(j, mask, payload):
                        # checksum-valid but outside the true span:
                        # only the signer could have produced it
                        round_byz += 1
                        round_poisoned += 1
                        flagged.add(sender)
                        continue
                pair = (receiver, j)
                dec = decoders.get(pair)
                if dec is None:
                    dec = HardenedGroupDecoder(
                        group_id=j, group_size=gs, key=key
                    )
                    decoders[pair] = dec
                elif dec.is_complete:
                    # A full-rank RREF basis cannot change: further
                    # rows are redundant (or quarantine fodder) and
                    # the decode result is already fixed, so skip
                    # the elimination.  Promotion still happens at
                    # phase end via ``touched``.
                    touched.add(pair)
                    continue
                coded = CodedMessage(
                    group_id=j,
                    subset_mask=mask,
                    payload=payload,
                    group_size=gs,
                    checksum=chk,
                )
                # FORWARD verifies before Gaussian elimination: the
                # hardened decoder checksums / width-checks the row
                # and quarantines instead of inserting
                rejected_before = len(dec.quarantined)
                if dec.absorb(coded, sender=sender):
                    innovative_rx += 1
                newly_rejected = len(dec.quarantined) - rejected_before
                corrupt_discarded += newly_rejected
                round_discarded += newly_rejected
                touched.add(pair)
        byz_discarded += round_byz
        poisoned_attributed += round_poisoned
        if trace is not None:
            if round_discarded:
                trace.observe_integrity(
                    rx_corrupt_discarded=round_discarded
                )
            if round_byz or round_poisoned:
                trace.observe_byzantine(
                    rx_discarded=round_byz,
                    poisoned_rows=round_poisoned,
                )

    def run_phases_direct() -> int:
        """Columnar direct path: each phase is a per-epoch vector program.

        Runs on a bare honest :class:`RadioNetwork` (no blacklist,
        groups at most 32 wide) with no wire tuples at all:

        - *One draw per epoch.*  The epoch's Decay coin matrices come
          from the same :func:`decay_transmit_matrix` calls, in the same
          order, as in columnar :func:`run_phases_dict`.  Concatenated to
          ``(slots × M)`` their nonzeros come out in that loop's draw
          order (slot, group, sender), so :func:`epoch_draws` takes all
          of the epoch's coded masks (or plain picks) in one call,
          stream-identical to its per-(slot, group) draws.
        - *One pass per slot.*  Each slot is one
          :meth:`RadioNetwork.resolve_round_vector` call, reported to
          ``trace`` like a dict round.  Receptions are
          attributed to groups at phase end through the sender's BFS
          layer (concurrent groups forward from distinct layers; the
          root is layer 0) and filtered there by ``has_group``, which
          only changes at phase end.
        - *Payload-free decoding.*  Honest rows are span-consistent, so
          rank alone decides completion: coded rows go into one
          coefficient-only :class:`PackedGF2Basis` per (receiver, group),
          one ``absorb_block`` per pair and phase, and plain packets into
          a received-index bitmask.  The innovative count equals the
          rank gain in any absorption order, and every integrity and
          authentication counter is provably zero.

        Returns the rounds consumed (``total_phases * phase_length``).
        """
        nonlocal coded_tx, plain_tx
        reps = max(1, params.root_plain_repetitions)
        n_decay = epochs * slots
        coding = params.coding_enabled
        layer_arrays = [np.array(lay, dtype=np.int64) for lay in layers]
        group_sizes = [len(grp) for grp in groups]
        plain_bits: Dict[Tuple[int, int], int] = {}
        bases: Dict[Tuple[int, int], PackedGF2Basis] = {}
        # Per-slot scatter buffer: what each transmitter sent this slot
        # (a coded mask, or a plain packet's index bit).
        val_of_tx = np.zeros(n, dtype=np.int64)
        group_of_layer = np.full(ecc + 1, -1, dtype=np.int64)
        root_arr = np.array([root], dtype=np.int64)
        rounds = 0

        def settle_phase(
            recv: np.ndarray, s_layer: np.ndarray, val: np.ndarray
        ) -> None:
            """Phase end: attribute, filter and absorb the phase's
            receptions (receiver, sender layer, value sent), then promote
            the receivers that can now decode."""
            nonlocal innovative_rx
            grp = group_of_layer[s_layer]
            keep = ~has_group[recv, grp]
            if not params.opportunistic_decoding:
                keep &= dist[recv] == s_layer + 1
            recv, grp, val = recv[keep], grp[keep], val[keep]
            # The root's packets (and, uncoded, every packet) are plain.
            if coding:
                plain = s_layer[keep] == 0
            else:
                plain = np.ones(recv.size, dtype=bool)
            done: List[Tuple[int, int]] = []
            if plain.any():
                key = recv[plain] * g + grp[plain]
                pairs, inverse = np.unique(key, return_inverse=True)
                bits = np.zeros(pairs.size, dtype=np.int64)
                np.bitwise_or.at(bits, inverse, val[plain])
                for kv, got in zip(pairs.tolist(), bits.tolist()):
                    pair = divmod(kv, g)
                    got |= plain_bits.get(pair, 0)
                    plain_bits[pair] = got
                    if got == (1 << group_sizes[pair[1]]) - 1:
                        done.append(pair)
            coded = ~plain
            if coded.any():
                c_recv, c_grp, c_rows = recv[coded], grp[coded], val[coded]
                order = np.lexsort((c_recv, c_grp))
                c_recv, c_grp = c_recv[order], c_grp[order]
                rows = c_rows[order]
                starts = np.flatnonzero(
                    np.diff(c_recv, prepend=-1) | np.diff(c_grp, prepend=-1)
                ).tolist()
                ends = starts[1:] + [rows.size]
                for a, b, v, j in zip(starts, ends, c_recv[starts].tolist(),
                                      c_grp[starts].tolist()):
                    pair = (v, j)
                    basis = bases.get(pair)
                    if basis is None:
                        basis = bases[pair] = PackedGF2Basis(group_sizes[j])
                    before = basis.rank
                    basis.absorb_block(rows[a:b].tolist(), [0] * (b - a))
                    innovative_rx += basis.rank - before
                    if basis.is_complete:
                        done.append(pair)
            for v, j in done:
                has_group[v, j] = True

        for phase in range(1, total_phases + 1):
            root_group = -1
            fwd: List[np.ndarray] = []
            fwd_bounds: List[int] = []
            group_of_layer.fill(-1)
            for j in range(g):
                d = group_layer(j, phase)
                if not d:
                    continue
                group_of_layer[d - 1] = j
                if d == 1:
                    root_group = j
                    continue
                lay = layer_arrays[d - 1]
                senders = lay[has_group[lay, j]]
                if senders.size:
                    fwd.append(senders)
                    fwd_bounds.extend([group_sizes[j]] * senders.size)
            if fwd:
                fwd_nodes = np.concatenate(fwd)
                bounds_of_col = np.array(fwd_bounds, dtype=np.int64)
            gs_root = group_sizes[root_group] if root_group >= 0 else 0
            rx_recv: List[np.ndarray] = []
            rx_send: List[np.ndarray] = []
            rx_val: List[np.ndarray] = []

            for slot in range(phase_length):
                a = b = 0
                if fwd and slot < n_decay:
                    epoch_slot = slot % slots
                    if epoch_slot == 0:
                        coins = np.concatenate(
                            [decay_transmit_matrix(s.size, rng, slots)
                             for s in fwd],
                            axis=1,
                        )
                        tx_slot, tx_col = np.nonzero(coins)
                        tx_nodes = fwd_nodes[tx_col]
                        vals = epoch_draws(rng, bounds_of_col[tx_col], coding)
                        if coding:
                            coded_tx += vals.size
                        else:
                            plain_tx += vals.size
                            vals = np.left_shift(1, vals)
                        cut = np.searchsorted(
                            tx_slot, np.arange(slots + 1)
                        ).tolist()
                    a, b = cut[epoch_slot], cut[epoch_slot + 1]
                root_tx = root_group >= 0 and slot < gs_root * reps
                if not root_tx and a == b:
                    continue
                if root_tx:
                    plain_tx += 1
                    val_of_tx[root] = 1 << (slot % gs_root)
                if a < b:
                    tx = tx_nodes[a:b]
                    val_of_tx[tx] = vals[a:b]
                    if root_tx:
                        tx = np.concatenate((tx, root_arr))
                else:
                    tx = root_arr
                receivers, senders_of = network.resolve_round_vector(tx)
                if trace is not None:
                    trace.observe(round_offset + rounds + slot, tx, receivers)
                if receivers.size:
                    rx_recv.append(receivers)
                    rx_send.append(senders_of)
                    rx_val.append(val_of_tx[senders_of])

            rounds += phase_length
            if rx_recv:
                settle_phase(
                    np.concatenate(rx_recv),
                    dist[np.concatenate(rx_send)],
                    np.concatenate(rx_val),
                )
        return rounds

    def run_phases_dict() -> int:
        """Dict phase loop: sealed wire tuples through
        ``network.resolve_round`` every round.

        Runs every engine wherever :func:`run_phases_direct` cannot:
        non-columnar engines, fault wrappers and blacklists.
        Each round is verified by :func:`process_received` and its
        receivers promoted at phase end by :func:`try_complete`.  Per
        (slot, group) the coded subset masks (or plain picks) are one
        batched ``rng.integers`` call.  The Decay coins are the one
        engine-dependent step: columnar draws each group's whole epoch
        with one :func:`decay_transmit_matrix` call, the other engines
        draw ``rng.random(m) < 2**-(s+1)`` per slot.  So columnar here
        draws the direct path's exact stream, and on an honest network
        the two agree on every outcome.

        Returns the rounds consumed (``total_phases * phase_length``).
        """
        nonlocal coded_tx, plain_tx
        reps = max(1, params.root_plain_repetitions)
        n_decay = epochs * slots
        layer_arrays = [np.array(lay, dtype=np.int64) for lay in layers]
        per_epoch_coins = getattr(network, "engine", None) == "columnar"
        rounds = 0

        for phase in range(1, total_phases + 1):
            root_group = -1
            fsets: List[Tuple[int, np.ndarray, int]] = []
            for j in range(g):
                d = group_layer(j, phase)
                if not d:
                    continue
                if d == 1:
                    root_group = j
                    continue
                lay = layer_arrays[d - 1]
                sel = has_group[lay, j]
                if mis_decoded:
                    sel = sel & np.array(
                        [(int(v), j) not in mis_decoded for v in lay]
                    )
                senders = lay[sel]
                if senders.size:
                    fsets.append((j, senders, len(groups[j])))

            gs_root = len(groups[root_group]) if root_group >= 0 else 0
            touched: Set[Tuple[int, int]] = set()
            epoch_coins: Dict[int, np.ndarray] = {}

            for slot in range(phase_length):
                in_decay = slot < n_decay
                epoch_slot = slot % slots
                p_slot = 2.0 ** -(epoch_slot + 1)
                if per_epoch_coins and in_decay and epoch_slot == 0:
                    for j, senders, gs in fsets:
                        epoch_coins[j] = decay_transmit_matrix(
                            senders.size, rng, slots
                        )

                root_tx = root_group >= 0 and slot < gs_root * reps
                transmissions: Dict[int, object] = {}
                if root_tx:
                    plain_tx += 1
                    idx = slot % gs_root
                    pkt = groups[root_group][idx]
                    transmissions[root] = seal_plain(
                        root, root_group, idx, pkt.payload, gs_root
                    )
                if in_decay:
                    for j, senders, gs in fsets:
                        if per_epoch_coins:
                            coins = epoch_coins[j][epoch_slot]
                        else:
                            coins = rng.random(senders.size) < p_slot
                        hot = senders[coins]
                        if hot.size == 0:
                            continue
                        if params.coding_enabled:
                            vals = rng.integers(0, 1 << gs, size=hot.size)
                            coded_tx += hot.size
                            for s_, m_ in zip(hot.tolist(), vals.tolist()):
                                transmissions[s_] = seal_coded(
                                    s_, j, m_, subset_xor(j, m_), gs
                                )
                        else:
                            # A1 ablation: uncoded store-and-forward —
                            # send one uniformly random plain packet.
                            vals = rng.integers(0, gs, size=hot.size)
                            plain_tx += hot.size
                            payloads = group_payloads[j]
                            for s_, pick in zip(hot.tolist(), vals.tolist()):
                                transmissions[s_] = seal_plain(
                                    s_, j, pick, payloads[pick], gs
                                )

                if not transmissions:
                    continue
                received = network.resolve_round(transmissions)
                if trace is not None:
                    trace.observe(
                        round_offset + rounds + slot,
                        transmissions,
                        received,
                    )
                process_received(received, phase, touched)

            rounds += phase_length
            for v, j in touched:
                try_complete(v, j)
        return rounds

    direct = (
        runs_vector_path(network)
        and not blacklist
        and width <= _DIRECT_MAX_WIDTH
    )
    rounds = run_phases_direct() if direct else run_phases_dict()
    failed = [
        (v, j)
        for v in range(n)
        for j in range(g)
        if not has_group[v, j]
    ]
    quarantined = sum(len(d.quarantined) for d in decoders.values())
    return DisseminationResult(
        rounds=rounds,
        num_groups=g,
        group_width=width,
        phases=total_phases,
        phase_length=phase_length,
        has_group=has_group,
        complete=not failed and not mis_decoded,
        failed_receivers=failed,
        coded_transmissions=coded_tx,
        innovative_receptions=innovative_rx,
        plain_transmissions=plain_tx,
        corrupted_discarded=corrupt_discarded,
        quarantined_rows=quarantined,
        mis_decodes=len(mis_decoded),
        mis_decoded_receivers=sorted(mis_decoded),
        byzantine_rx_discarded=byz_discarded,
        poisoned_rows_attributed=poisoned_attributed,
        flagged_senders=flagged,
    )
