"""Topology churn: node join/leave, mobility edge flips, partitions.

The resilience stack so far (crash/jam/corrupt/Byzantine) perturbs the
*packet* layer of a fixed graph.  This module makes the graph itself a
function of time, the regime of Ahmadi–Kuhn (1610.02931):

- a :class:`ChurnSchedule` is a declarative, round-indexed timeline of
  **membership** changes (``join``/``leave``) and **edge** changes
  (``edge_down``/``edge_up`` mobility flips, batched
  ``partition``/``heal`` events);
- a :class:`ChurnNetwork` applies that timeline through the standard
  ``resolve_round`` interface, *beneath*
  :class:`repro.resilience.network.DynamicFaultNetwork` — so topology
  churn composes with every existing fault layer (a node can crash
  while its neighborhood is flapping, a jam window can cover a
  partition, an insider can depart mid-lie).

Model
-----
All nodes that ever exist belong to the **footprint** graph (the union
of every edge that is ever active).  A node is either *present* or
*absent*; an edge is either *active* or *severed*.  Unlike a downed
link (which still carries interference — the signal is in the air, the
link is merely undecodable), an absent node or severed edge is
physically gone: no signal, no interference.  ``ChurnNetwork``
therefore resolves each round on the *current* graph — the footprint
minus its severed edges, as a plain :class:`RadioNetwork` rebuilt after
each edge event — instead of on the footprint.  That is the dynamic-graph
model: the static reception rule applied to the graph of the round.

Like :class:`FaultSchedule`, a churn timeline is fully concrete and
seeded sampling is deterministic: the same schedule replayed against
the same transmissions yields bit-identical receptions (the layer
carries no RNG at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.radio.network import RadioNetwork
from repro.radio.rng import SeedLike, make_rng

#: Event kinds understood by ChurnNetwork.
CHURN_KINDS = ("join", "leave", "edge_down", "edge_up", "partition", "heal")

#: Worst-case strategies understood by AdversarialChurnSpec.
ADVERSARIAL_STRATEGIES = (
    "leader_target", "cut_edges", "partition_sync", "combined",
)


def _norm_edge(edge: Tuple[int, int]) -> Tuple[int, int]:
    u, v = int(edge[0]), int(edge[1])
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled topology change.

    ``round`` is the absolute round at which the change takes effect
    (before that round is resolved, matching
    :class:`~repro.resilience.schedule.FaultEvent` semantics).  Churn is
    environment-driven, so timing is always concrete — there is no
    symbolic ``after_stage`` variant.
    """

    kind: str
    round: int
    node: int = -1
    edge: Optional[Tuple[int, int]] = None
    edges: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in CHURN_KINDS:
            raise ValueError(f"unknown churn kind {self.kind!r}")
        if self.round < 0:
            raise ValueError("churn event round must be non-negative")
        if self.kind in ("join", "leave"):
            if self.node < 0:
                raise ValueError(f"{self.kind} event needs a node id")
        elif self.kind in ("edge_down", "edge_up"):
            if self.edge is None:
                raise ValueError(f"{self.kind} event needs an edge")
            _check_edge(self.kind, self.edge)
        else:  # partition / heal
            if not self.edges:
                raise ValueError(f"{self.kind} event needs a cut-set")
            for e in self.edges:
                _check_edge(self.kind, e)

    def cut_edges(self) -> Tuple[Tuple[int, int], ...]:
        """The edges this event severs or restores (normalized)."""
        if self.edge is not None:
            return (_norm_edge(self.edge),)
        return tuple(_norm_edge(e) for e in self.edges)


def _check_edge(kind: str, edge: Tuple[int, int]) -> None:
    u, v = edge
    if u == v:
        raise ValueError(f"{kind} event edge must join distinct nodes")
    if u < 0 or v < 0:
        raise ValueError(f"{kind} event edge needs non-negative node ids")


@dataclass
class ChurnSchedule:
    """An ordered timeline of membership and edge changes.

    ``initially_absent`` lists footprint nodes that have not yet joined
    when the run starts (future joiners).  Builder methods return
    ``self`` so schedules read declaratively::

        churn = (ChurnSchedule(initially_absent=[9])
                 .join(9, at_round=200)
                 .leave(4, at_round=350)
                 .edge_down((2, 3), at_round=100)
                 .edge_up((2, 3), at_round=180)
                 .partition([(0, 1), (0, 4)], at_round=400)
                 .heal([(0, 1), (0, 4)], at_round=500))
    """

    events: List[ChurnEvent] = field(default_factory=list)
    initially_absent: FrozenSet[int] = frozenset()

    def __post_init__(self):
        self.initially_absent = frozenset(
            int(v) for v in self.initially_absent
        )
        if any(v < 0 for v in self.initially_absent):
            raise ValueError("initially_absent node ids must be >= 0")

    # -- builders ------------------------------------------------------

    def join(self, node: int, at_round: int) -> "ChurnSchedule":
        self.events.append(
            ChurnEvent("join", round=int(at_round), node=int(node))
        )
        return self

    def leave(self, node: int, at_round: int) -> "ChurnSchedule":
        self.events.append(
            ChurnEvent("leave", round=int(at_round), node=int(node))
        )
        return self

    def edge_down(self, edge: Tuple[int, int], at_round: int) -> "ChurnSchedule":
        self.events.append(
            ChurnEvent("edge_down", round=int(at_round), edge=_norm_edge(edge))
        )
        return self

    def edge_up(self, edge: Tuple[int, int], at_round: int) -> "ChurnSchedule":
        self.events.append(
            ChurnEvent("edge_up", round=int(at_round), edge=_norm_edge(edge))
        )
        return self

    def partition(
        self, edges: Iterable[Tuple[int, int]], at_round: int
    ) -> "ChurnSchedule":
        self.events.append(ChurnEvent(
            "partition", round=int(at_round),
            edges=tuple(_norm_edge(e) for e in edges),
        ))
        return self

    def heal(
        self, edges: Iterable[Tuple[int, int]], at_round: int
    ) -> "ChurnSchedule":
        self.events.append(ChurnEvent(
            "heal", round=int(at_round),
            edges=tuple(_norm_edge(e) for e in edges),
        ))
        return self

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def changes_membership(self) -> bool:
        """True when any node joins or leaves (or starts absent)."""
        return bool(self.initially_absent) or any(
            e.kind in ("join", "leave") for e in self.events
        )

    @property
    def joiners(self) -> FrozenSet[int]:
        return frozenset(e.node for e in self.events if e.kind == "join")

    @property
    def leavers(self) -> FrozenSet[int]:
        return frozenset(e.node for e in self.events if e.kind == "leave")

    @property
    def max_round(self) -> int:
        return max((e.round for e in self.events), default=0)

    def sorted_events(self) -> List[ChurnEvent]:
        """Events in application order: by round, insertion order within
        a round (exactly how :class:`ChurnNetwork` applies them)."""
        return sorted(self.events, key=lambda e: e.round)

    def membership(self) -> "MembershipTimeline":
        """The presence timeline implied by this schedule."""
        return MembershipTimeline(self)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        """Plain-dict rendering; inverse of :meth:`from_json` (the pair
        round-trips exactly, which chaos artifacts rely on)."""
        events = []
        for e in self.events:
            entry: dict = {"kind": e.kind, "round": e.round}
            if e.kind in ("join", "leave"):
                entry["node"] = e.node
            elif e.edge is not None:
                entry["edge"] = [e.edge[0], e.edge[1]]
            else:
                entry["edges"] = [[u, v] for u, v in e.edges]
            events.append(entry)
        return {
            "events": events,
            "initially_absent": sorted(self.initially_absent),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChurnSchedule":
        events = [
            ChurnEvent(
                kind=entry["kind"],
                round=int(entry["round"]),
                node=int(entry.get("node", -1)),
                edge=(
                    tuple(int(v) for v in entry["edge"])
                    if entry.get("edge") is not None else None
                ),
                edges=tuple(
                    (int(u), int(v)) for u, v in entry.get("edges", ())
                ),
            )
            for entry in data.get("events", ())
        ]
        return cls(
            events=events,
            initially_absent=frozenset(
                int(v) for v in data.get("initially_absent", ())
            ),
        )

    # -- validation ----------------------------------------------------

    def validate(self, n: int) -> None:
        """Raise on out-of-range ids and internally inconsistent
        timelines.

        Structural errors rejected:

        - a ``join`` of a node that is already present, or a ``leave``
          of a node that is already absent (double-toggles always
          indicate a mis-built schedule);
        - severing an already-severed edge or restoring an active one
          (the ``edge_down``/``edge_up`` analogue of the fault
          schedule's overlapping-jam-window check — a double sever
          would silently make the later ``edge_up`` a no-op);
        - an ``initially_absent`` node that never joins is legal (it
          simply never exists for this run), but a ``join`` of a node
          that was never absent is not.
        """
        for v in self.initially_absent:
            if not 0 <= v < n:
                raise ValueError(
                    f"initially_absent references node {v}, but n={n}"
                )
        for e in self.events:
            ids = (e.node,) if e.kind in ("join", "leave") else tuple(
                v for edge in e.cut_edges() for v in edge
            )
            for v in ids:
                if not 0 <= v < n:
                    raise ValueError(
                        f"churn event {e} references node {v}, but n={n}"
                    )

        absent: Set[int] = set(self.initially_absent)
        severed: Set[FrozenSet[int]] = set()
        for e in self.sorted_events():
            if e.kind == "join":
                if e.node not in absent:
                    raise ValueError(
                        f"node {e.node} joins at round {e.round} but is "
                        f"already present (not initially absent and no "
                        f"prior leave)"
                    )
                absent.discard(e.node)
            elif e.kind == "leave":
                if e.node in absent:
                    raise ValueError(
                        f"node {e.node} leaves at round {e.round} but is "
                        f"already absent"
                    )
                absent.add(e.node)
            elif e.kind in ("edge_down", "partition"):
                for edge in e.cut_edges():
                    key = frozenset(edge)
                    if key in severed:
                        raise ValueError(
                            f"{e.kind} at round {e.round} severs edge "
                            f"{edge}, already severed with no intervening "
                            f"restore"
                        )
                    severed.add(key)
            else:  # edge_up / heal
                for edge in e.cut_edges():
                    key = frozenset(edge)
                    if key not in severed:
                        raise ValueError(
                            f"{e.kind} at round {e.round} restores edge "
                            f"{edge}, which is not severed"
                        )
                    severed.discard(key)


class MembershipTimeline:
    """Presence-as-a-function-of-time, derived from a schedule.

    Used by the churn oracles to audit transcripts: for each node the
    timeline holds its sorted presence toggle rounds, so
    :meth:`is_present` is a binary search, O(log toggles).
    """

    def __init__(self, schedule: ChurnSchedule):
        self._toggles: Dict[int, List[int]] = {}
        self._initial_absent = frozenset(schedule.initially_absent)
        for e in schedule.sorted_events():
            if e.kind in ("join", "leave"):
                self._toggles.setdefault(e.node, []).append(e.round)

    def is_present(self, node: int, round_index: int) -> bool:
        """Presence of ``node`` while ``round_index`` is resolved (an
        event at round r takes effect before round r resolves)."""
        import bisect

        flips = self._toggles.get(node, ())
        applied = bisect.bisect_right(flips, round_index)
        start_absent = node in self._initial_absent
        return (not start_absent) == (applied % 2 == 0)

    def toggles(self, node: int) -> Tuple[int, ...]:
        """The node's sorted presence-flip rounds (possibly empty)."""
        return tuple(self._toggles.get(node, ()))

    def present_at(self, round_index: int, n: int) -> FrozenSet[int]:
        return frozenset(
            v for v in range(n) if self.is_present(v, round_index)
        )

    def absent_forever_after(self, n: int) -> FrozenSet[int]:
        """Nodes absent at the end of the whole timeline."""
        last = max(
            (f[-1] for f in self._toggles.values()), default=0
        )
        return frozenset(
            v for v in range(n) if not self.is_present(v, last)
        )


class ChurnNetwork:
    """A radio network whose graph follows a :class:`ChurnSchedule`.

    Presents the :class:`~repro.radio.network.RadioNetwork` interface
    (``resolve_round``, ``n``, ``has_edge`` …) so protocol engines and
    the fault layer run unchanged.  Static topology queries
    (``has_edge``, ``neighbors``, ``max_degree``, ``diameter``) report
    the *footprint* graph — they are the conservative bounds budgets
    are sized from; the time-varying view is exposed through
    :meth:`edge_active`, :meth:`active_neighbors`, :meth:`is_present`.

    ``resolve_round`` implements the paper's reception rule over the
    current graph: a present node receives iff exactly one present
    neighbor across an active edge transmits and the node itself does
    not.  Absent transmitters are filtered (and counted) first — a
    departed node's signal is not in the air and does not collide.  The
    rest is :meth:`RadioNetwork.resolve_round` on the footprint minus
    the severed edges (cached, rebuilt lazily after an edge event, on
    the base's engine), with absent receivers removed from its result.

    ``deliver_to_absent`` is the planted-bug switch for the chaos
    self-test: when true the layer "forgets" to gate receivers on
    presence, exactly the phantom-delivery bug the
    ``no_phantom_delivery`` oracle exists to catch.  Never set it
    outside tests.
    """

    def __init__(
        self,
        base: RadioNetwork,
        churn: Optional[ChurnSchedule] = None,
        deliver_to_absent: bool = False,
    ):
        self._base = base
        self.churn = churn if churn is not None else ChurnSchedule()
        self.churn.validate(base.n)
        self.deliver_to_absent = bool(deliver_to_absent)

        self.clock = 0
        self.absent: Set[int] = set(self.churn.initially_absent)
        self.severed: Set[FrozenSet[int]] = set()
        self._pending: List[ChurnEvent] = self.churn.sorted_events()
        #: the footprint minus ``severed``; None until the next round
        #: after an edge event
        self._graph: Optional[RadioNetwork] = None

        # churn-exposure counters
        self.tx_suppressed_absent = 0
        self.rx_phantom_delivered = 0  # nonzero only under the planted bug
        self.joins_applied = 0
        self.leaves_applied = 0
        self.edges_severed = 0
        self.edges_restored = 0

    # ------------------------------------------------------------------
    # Clock and event machinery (mirrors DynamicFaultNetwork)
    # ------------------------------------------------------------------

    def _apply(self, event: ChurnEvent) -> None:
        if event.kind == "join":
            self.absent.discard(event.node)
            self.joins_applied += 1
        elif event.kind == "leave":
            self.absent.add(event.node)
            self.leaves_applied += 1
        elif event.kind in ("edge_down", "partition"):
            for edge in event.cut_edges():
                key = frozenset(edge)
                if key not in self.severed:
                    self.severed.add(key)
                    self.edges_severed += 1
                    self._graph = None
        else:  # edge_up / heal
            for edge in event.cut_edges():
                key = frozenset(edge)
                if key in self.severed:
                    self.severed.discard(key)
                    self.edges_restored += 1
                    self._graph = None

    def _catch_up(self, limit: int) -> None:
        if not self._pending:
            return
        remaining: List[ChurnEvent] = []
        for event in self._pending:
            if event.round <= limit:
                self._apply(event)
            else:
                remaining.append(event)
        self._pending = remaining

    def advance(self, rounds: int) -> None:
        """Let ``rounds`` silent/idle rounds elapse."""
        if rounds < 0:
            raise ValueError("cannot advance by a negative round count")
        self.advance_to(self.clock + rounds)

    def advance_to(self, round_index: int) -> None:
        """Jump the clock forward to ``round_index`` (no-op if behind)."""
        if round_index <= self.clock:
            return
        self.clock = round_index
        self._catch_up(round_index - 1)

    @property
    def next_event_round(self) -> Optional[int]:
        """Round of the earliest pending event (None when drained)."""
        return self._pending[0].round if self._pending else None

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    def is_present(self, node: int) -> bool:
        return node not in self.absent

    def present_nodes(self) -> List[int]:
        return [v for v in range(self._base.n) if v not in self.absent]

    @property
    def departed_nodes(self) -> FrozenSet[int]:
        return frozenset(self.absent)

    def edge_active(self, u: int, v: int) -> bool:
        """True when the edge exists *right now*: in the footprint, not
        severed, both endpoints present."""
        return (
            self._base.has_edge(u, v)
            and frozenset((u, v)) not in self.severed
            and u not in self.absent
            and v not in self.absent
        )

    def active_neighbors(self, v: int) -> List[int]:
        if v in self.absent:
            return []
        return [
            int(u) for u in self._base.neighbors(v)
            if self.edge_active(v, int(u))
        ]

    def churn_stats(self) -> Dict[str, int]:
        return {
            "tx_suppressed_absent": self.tx_suppressed_absent,
            "rx_phantom_delivered": self.rx_phantom_delivered,
            "joins_applied": self.joins_applied,
            "leaves_applied": self.leaves_applied,
            "edges_severed": self.edges_severed,
            "edges_restored": self.edges_restored,
            "currently_absent": len(self.absent),
            "currently_severed": len(self.severed),
        }

    # ------------------------------------------------------------------
    # The churned reception rule
    # ------------------------------------------------------------------

    def resolve_round(self, transmissions: Mapping[int, object]) -> Dict[int, object]:
        self._catch_up(self.clock)
        self.clock += 1

        # Absent transmitters are not on the air at all (no interference).
        if self.absent:
            filtered = {
                tx: msg for tx, msg in transmissions.items()
                if tx not in self.absent
            }
            self.tx_suppressed_absent += len(transmissions) - len(filtered)
        else:
            filtered = transmissions

        if self._graph is None:
            self._graph = RadioNetwork(
                [e for e in self._base.edge_list()
                 if frozenset(e) not in self.severed],
                n=self._base.n,
                require_connected=False,
                engine=self._base.engine,
            )
        received = self._graph.resolve_round(filtered)
        departed = [v for v in received if v in self.absent]
        if self.deliver_to_absent:
            # planted bug: phantom delivery to departed nodes
            self.rx_phantom_delivered += len(departed)
        else:
            for v in departed:
                del received[v]
        return received

    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        if name == "_base":  # guard against recursion during unpickling
            raise AttributeError(name)
        return getattr(self._base, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChurnNetwork({self._base!r}, events={len(self.churn)}, "
            f"clock={self.clock}, absent={sorted(self.absent)})"
        )


# ----------------------------------------------------------------------
# Mobility lowering
# ----------------------------------------------------------------------

def churn_from_mobility(
    edge_sets: Sequence[Iterable[Tuple[int, int]]],
    epoch_length: int,
    start_round: int = 0,
) -> Tuple[List[Tuple[int, int]], ChurnSchedule]:
    """Lower a sequence of per-epoch edge sets to a churn schedule.

    ``edge_sets[i]`` is the graph during epoch ``i`` (rounds
    ``[start_round + i*epoch_length, ...)``); consecutive epochs are
    diffed into ``edge_down``/``edge_up`` flips at the boundary.  The
    returned footprint edge list is the union over all epochs — build
    the :class:`ChurnNetwork` base from it.  Edges absent from epoch 0
    but present later start severed via an ``edge_down`` at round 0.
    """
    if epoch_length < 1:
        raise ValueError("epoch_length must be >= 1")
    if not edge_sets:
        raise ValueError("need at least one epoch")
    normalized = [
        {_norm_edge(e) for e in epoch} for epoch in edge_sets
    ]
    footprint = sorted(set().union(*normalized))
    schedule = ChurnSchedule()
    initially_off = [e for e in footprint if e not in normalized[0]]
    for e in initially_off:
        schedule.edge_down(e, at_round=start_round)
    prev = normalized[0]
    for i, cur in enumerate(normalized[1:], start=1):
        boundary = start_round + i * epoch_length
        for e in sorted(prev - cur):
            schedule.edge_down(e, at_round=boundary)
        for e in sorted(cur - prev):
            schedule.edge_up(e, at_round=boundary)
        prev = cur
    return footprint, schedule


# ----------------------------------------------------------------------
# Seeded sampling
# ----------------------------------------------------------------------

def random_churn_schedule(
    network: RadioNetwork,
    horizon: int,
    seed: SeedLike = None,
    leave_frac: float = 0.0,
    join_frac: float = 0.0,
    edge_flips: int = 0,
    rejoin_prob: float = 0.0,
    restore_prob: float = 0.7,
    partition_prob: float = 0.0,
    exclude: Iterable[int] = (),
) -> ChurnSchedule:
    """Draw one valid churn schedule over ``network``'s footprint.

    - ``leave_frac`` of the eligible nodes depart at seeded rounds in
      ``[1, horizon)``; each rejoins later with ``rejoin_prob``.
    - ``join_frac`` of the eligible nodes start absent and join at a
      seeded round (they are disjoint from the leavers).
    - ``edge_flips`` mobility flips sever a random edge (both endpoints
      untouched by membership churn) and restore it with
      ``restore_prob``; each edge is flipped at most once, so the
      timeline always validates.
    - with ``partition_prob`` one partition/heal pair severs the
      footprint cut around a random seed node's 1-ball.

    Same seed, same schedule — byte-for-byte in its JSON form.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    rng = make_rng(seed)
    n = network.n
    excluded = set(int(v) for v in exclude)
    eligible = [v for v in range(n) if v not in excluded]

    schedule = ChurnSchedule()
    touched: Set[int] = set()

    def _draw(pool: List[int], count: int) -> List[int]:
        if count <= 0 or not pool:
            return []
        count = min(count, len(pool))
        chosen = rng.choice(len(pool), size=count, replace=False)
        return sorted(pool[int(i)] for i in chosen)

    # joiners first: they start absent, so they must not also leave
    joiners = _draw(eligible, int(math.floor(join_frac * len(eligible))))
    for v in joiners:
        touched.add(v)
    schedule.initially_absent = frozenset(joiners)
    for v in joiners:
        schedule.join(v, at_round=int(rng.integers(1, horizon)))

    leavers = _draw(
        [v for v in eligible if v not in touched],
        int(math.floor(leave_frac * len(eligible))),
    )
    for v in leavers:
        touched.add(v)
        at = int(rng.integers(1, horizon))
        schedule.leave(v, at_round=at)
        if rng.random() < rejoin_prob:
            schedule.join(
                v, at_round=at + int(rng.integers(1, max(2, horizon // 3)))
            )

    # mobility flips on edges whose endpoints keep stable membership
    stable_edges = [
        (u, int(v))
        for u in range(n)
        for v in network.neighbors(u)
        if u < int(v) and u not in touched and int(v) not in touched
    ]
    flipped: Set[Tuple[int, int]] = set()
    for _ in range(int(edge_flips)):
        candidates = [e for e in stable_edges if e not in flipped]
        if not candidates:
            break
        edge = candidates[int(rng.integers(0, len(candidates)))]
        flipped.add(edge)
        down_at = int(rng.integers(1, horizon))
        schedule.edge_down(edge, at_round=down_at)
        if rng.random() < restore_prob:
            schedule.edge_up(
                edge,
                at_round=down_at + int(rng.integers(1, max(2, horizon // 3))),
            )

    if partition_prob > 0 and rng.random() < partition_prob:
        center = eligible[int(rng.integers(0, len(eligible)))]
        island = {center} | {int(u) for u in network.neighbors(center)}
        cut = [
            e for e in stable_edges
            if (e[0] in island) != (e[1] in island) and e not in flipped
        ]
        if cut:
            at = int(rng.integers(1, horizon))
            schedule.partition(cut, at_round=at)
            schedule.heal(
                cut, at_round=at + int(rng.integers(1, max(2, horizon // 2)))
            )

    schedule.validate(n)
    return schedule


# ----------------------------------------------------------------------
# Adversarial (worst-case) churn
# ----------------------------------------------------------------------
#
# Seeded churn answers "how does the system fare on average?"; the
# adversarial scheduler answers "how does it fare against an adversary
# that knows the protocol?" (the Ahmadi–Kuhn 1610.02931 regime, where
# topology changes are chosen by an adversary subject to a rate
# budget).  Each strategy exploits a specific structural dependence of
# the continuous driver:
#
# - ``leader_target`` removes the expected election winners (highest
#   surviving ids) one after another, each departure timed so the
#   freshly re-elected leader is the next to go — every leave forces a
#   full re-election + catch-up cycle;
# - ``cut_edges`` flaps the footprint's bridges (the edges whose loss
#   disconnects the most nodes), each outage sized to one repair
#   window so the Decay repair pays full price every time;
# - ``partition_sync`` severs a whole cut in lock-step with the
#   driver's periodic invariant check: the partition lands just after
#   a check, holds across the next one (burning a repair budget on an
#   unhealable split), and heals immediately before the following
#   check re-pays the repair cost.
#
# The output is a plain, fully validated :class:`ChurnSchedule`, so
# ``ChurnNetwork``, the chaos sampler, and
# ``FaultSchedule.validate(churn=)`` compose with it unchanged.  All
# strategies are deterministic functions of (spec, footprint): the
# ``seed`` only rotates target selection, so the same spec always
# rebuilds the byte-identical schedule (the property the
# ``adversarial_budget_respected`` oracle checks).


@dataclass(frozen=True)
class ChurnBudget:
    """The adversary's rate limits.

    ``max_events`` bounds the total number of schedule events,
    ``max_absent_frac`` the fraction of footprint nodes absent at any
    instant, and ``max_severed_edges`` the number of concurrently
    severed edges (a partition's cut counts each edge).
    """

    max_events: int = 16
    max_absent_frac: float = 0.25
    max_severed_edges: int = 8

    def __post_init__(self):
        if self.max_events < 0:
            raise ValueError("max_events must be >= 0")
        if not 0.0 <= self.max_absent_frac <= 1.0:
            raise ValueError("max_absent_frac must be in [0, 1]")
        if self.max_severed_edges < 0:
            raise ValueError("max_severed_edges must be >= 0")

    def absent_cap(self, n: int) -> int:
        return max(1, int(math.floor(self.max_absent_frac * n)))

    def violations(self, schedule: ChurnSchedule, n: int) -> List[str]:
        """Every way ``schedule`` exceeds this budget (empty = ok)."""
        problems: List[str] = []
        total = len(schedule.events) + len(schedule.initially_absent)
        if total > self.max_events:
            problems.append(
                f"{total} events (incl. initially_absent) exceed "
                f"max_events={self.max_events}"
            )
        absent = set(schedule.initially_absent)
        severed: Set[FrozenSet[int]] = set()
        cap = self.absent_cap(n)
        for e in schedule.sorted_events():
            if e.kind == "join":
                absent.discard(e.node)
            elif e.kind == "leave":
                absent.add(e.node)
                if len(absent) > cap:
                    problems.append(
                        f"{len(absent)} nodes absent at round {e.round} "
                        f"exceed absent cap {cap} "
                        f"(max_absent_frac={self.max_absent_frac})"
                    )
            elif e.kind in ("edge_down", "partition"):
                severed.update(frozenset(c) for c in e.cut_edges())
                if len(severed) > self.max_severed_edges:
                    problems.append(
                        f"{len(severed)} edges severed at round {e.round} "
                        f"exceed max_severed_edges={self.max_severed_edges}"
                    )
            else:
                for c in e.cut_edges():
                    severed.discard(frozenset(c))
        return problems

    def to_json(self) -> dict:
        return {
            "max_events": self.max_events,
            "max_absent_frac": self.max_absent_frac,
            "max_severed_edges": self.max_severed_edges,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChurnBudget":
        return cls(
            max_events=int(data["max_events"]),
            max_absent_frac=float(data["max_absent_frac"]),
            max_severed_edges=int(data["max_severed_edges"]),
        )


def _footprint_adjacency(network: RadioNetwork) -> Dict[int, List[int]]:
    return {
        u: sorted(int(v) for v in network.neighbors(u))
        for u in range(network.n)
    }


def _bridges_with_weight(
    adj: Dict[int, List[int]]
) -> List[Tuple[int, Tuple[int, int]]]:
    """Footprint bridges as ``(min_side_size, edge)``, heaviest first.

    Iterative Tarjan lowlink; the weight of a bridge is the size of the
    smaller component its removal creates — the number of nodes the
    adversary disconnects by severing it.
    """
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    subtree = [1] * n
    parent_edge = [-1] * n
    bridges: List[Tuple[int, Tuple[int, int]]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: List[Tuple[int, int, int]] = [(root, -1, 0)]
        order: List[int] = []
        while stack:
            v, parent, idx = stack.pop()
            if idx == 0:
                disc[v] = low[v] = timer
                timer += 1
                parent_edge[v] = parent
                order.append(v)
            resumed = False
            for j in range(idx, len(adj[v])):
                u = adj[v][j]
                if u == parent:
                    continue
                if disc[u] == -1:
                    stack.append((v, parent, j + 1))
                    stack.append((u, v, 0))
                    resumed = True
                    break
                low[v] = min(low[v], disc[u])
            if resumed:
                continue
        for v in reversed(order):
            p = parent_edge[v]
            if p >= 0:
                low[p] = min(low[p], low[v])
                subtree[p] += subtree[v]
                if low[v] > disc[p]:
                    side = min(subtree[v], n - subtree[v])
                    bridges.append((side, _norm_edge((p, v))))
    bridges.sort(key=lambda item: (-item[0], item[1]))
    return bridges


@dataclass(frozen=True)
class AdversarialChurnSpec:
    """A compact, replayable recipe for a worst-case churn schedule.

    ``build(network)`` lowers the spec to a concrete, validated
    :class:`ChurnSchedule` deterministically — campaigns store the spec
    (JSON round-trips exactly) and the oracle re-derives the schedule
    to prove the one in the artifact is the adversary's, untampered and
    within budget.  ``exclude`` pins nodes (pre-chosen leader, insider
    ids, jam-window targets) whose membership the adversary may not
    touch, keeping cross-validation with fault schedules satisfiable.
    """

    strategy: str
    horizon: int
    budget: ChurnBudget = ChurnBudget()
    seed: int = 0
    repair_window: int = 64
    start_round: int = 1
    exclude: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.strategy not in ADVERSARIAL_STRATEGIES:
            raise ValueError(
                f"unknown adversarial strategy {self.strategy!r}; "
                f"expected one of {ADVERSARIAL_STRATEGIES}"
            )
        if self.horizon < 4:
            raise ValueError("adversarial horizon must be >= 4")
        if self.repair_window < 1:
            raise ValueError("repair_window must be >= 1")
        if self.start_round < 1:
            raise ValueError("start_round must be >= 1")
        object.__setattr__(
            self, "exclude",
            tuple(sorted(set(int(v) for v in self.exclude))),
        )

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "horizon": self.horizon,
            "budget": self.budget.to_json(),
            "seed": self.seed,
            "repair_window": self.repair_window,
            "start_round": self.start_round,
            "exclude": list(self.exclude),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AdversarialChurnSpec":
        return cls(
            strategy=str(data["strategy"]),
            horizon=int(data["horizon"]),
            budget=ChurnBudget.from_json(data["budget"]),
            seed=int(data["seed"]),
            repair_window=int(data["repair_window"]),
            start_round=int(data["start_round"]),
            exclude=tuple(int(v) for v in data.get("exclude", ())),
        )

    # -- lowering ------------------------------------------------------

    def build(self, network: RadioNetwork) -> ChurnSchedule:
        """Lower to a concrete schedule over ``network``'s footprint.

        Deterministic: the same spec and footprint always produce the
        byte-identical schedule.  The result is validated and provably
        within budget before it is returned.
        """
        n = network.n
        schedule = ChurnSchedule()
        if self.strategy == "leader_target":
            self._leader_target(network, schedule, self.budget.max_events)
        elif self.strategy == "cut_edges":
            self._cut_edges(network, schedule, self.budget.max_events)
        elif self.strategy == "partition_sync":
            self._partition_sync(network, schedule, self.budget.max_events)
        else:  # combined
            half = self.budget.max_events // 2
            self._leader_target(network, schedule, half)
            self._partition_sync(
                network, schedule, self.budget.max_events - half
            )
        schedule.validate(n)
        problems = self.budget.violations(schedule, n)
        if problems:  # pragma: no cover - construction guarantees empty
            raise AssertionError(
                f"adversarial schedule exceeds its own budget: {problems}"
            )
        return schedule

    def _leader_target(
        self,
        network: RadioNetwork,
        schedule: ChurnSchedule,
        event_budget: int,
    ) -> None:
        """Stagger leave/re-join pairs of the expected election winners.

        Victims are the highest non-excluded ids, in the order the
        election would crown them; each re-joins before the next leave
        so at most one adversarial absence is in flight (well under any
        absent cap).
        """
        excluded = set(self.exclude)
        victims = [v for v in range(network.n - 1, -1, -1)
                   if v not in excluded]
        if not victims or event_budget < 2:
            return
        pairs = min(event_budget // 2, len(victims),
                    max(1, (self.horizon - self.start_round)
                        // max(2, self.repair_window)))
        rotation = self.seed % len(victims)
        victims = victims[rotation:] + victims[:rotation]
        period = max(2, (self.horizon - self.start_round) // pairs)
        gap = max(1, min(period - 1, 2 * self.repair_window))
        made = 0
        for i, v in enumerate(victims):
            if made >= pairs:
                break
            at = self.start_round + i * period
            back = at + gap
            if back >= self.horizon:
                break
            schedule.leave(v, at_round=at)
            schedule.join(v, at_round=back)
            made += 1

    def _cut_edges(
        self,
        network: RadioNetwork,
        schedule: ChurnSchedule,
        event_budget: int,
    ) -> None:
        """Flap the highest-weight bridges, one repair window each."""
        adj = _footprint_adjacency(network)
        ranked = [edge for _, edge in _bridges_with_weight(adj)]
        if not ranked:
            # no bridges: fall back to the most fragile edges (lowest
            # combined endpoint degree — the sparsest connectivity)
            ranked = sorted(
                (
                    _norm_edge((u, v))
                    for u in adj for v in adj[u] if u < v
                ),
                key=lambda e: (len(adj[e[0]]) + len(adj[e[1]]), e),
            )
        if not ranked or event_budget < 2:
            return
        count = min(
            event_budget // 2,
            self.budget.max_severed_edges,
            len(ranked),
        )
        rotation = self.seed % len(ranked)
        ranked = ranked[rotation:] + ranked[:rotation]
        span = max(2, (self.horizon - self.start_round) // max(1, count))
        outage = max(1, min(span - 1, self.repair_window))
        made = 0
        for i, edge in enumerate(ranked):
            if made >= count:
                break
            down = self.start_round + i * span
            up = down + outage
            if up >= self.horizon:
                break
            schedule.edge_down(edge, at_round=down)
            schedule.edge_up(edge, at_round=up)
            made += 1

    def _partition_sync(
        self,
        network: RadioNetwork,
        schedule: ChurnSchedule,
        event_budget: int,
    ) -> None:
        """Partition/heal pairs phase-locked to the repair window.

        The cut is the heaviest affordable bridge, or failing that the
        full incident cut of the lowest-degree node (isolating it);
        each partition lands one round after a repair-window boundary
        and heals one window later, straddling exactly one invariant
        check.
        """
        adj = _footprint_adjacency(network)
        cut: List[Tuple[int, int]] = []
        bridges = [
            edge for _, edge in _bridges_with_weight(adj)
        ]
        if bridges and self.budget.max_severed_edges >= 1:
            cut = [bridges[self.seed % len(bridges)]]
        else:
            isolatable = sorted(
                (v for v in adj
                 if 0 < len(adj[v]) <= self.budget.max_severed_edges),
                key=lambda v: (len(adj[v]), v),
            )
            if isolatable:
                victim = isolatable[self.seed % len(isolatable)]
                cut = [_norm_edge((victim, u)) for u in adj[victim]]
        if not cut or event_budget < 2:
            return
        window = max(2, self.repair_window)
        pairs = min(
            event_budget // 2,
            max(1, (self.horizon - self.start_round) // (2 * window)),
        )
        for j in range(pairs):
            at = self.start_round + j * 2 * window
            heal_at = at + window
            if heal_at >= self.horizon:
                break
            schedule.partition(cut, at_round=at)
            schedule.heal(cut, at_round=heal_at)


def adversarial_churn_schedule(
    network: RadioNetwork,
    horizon: int,
    strategy: str = "leader_target",
    budget: Optional[ChurnBudget] = None,
    seed: int = 0,
    repair_window: int = 64,
    start_round: int = 1,
    exclude: Iterable[int] = (),
) -> Tuple[AdversarialChurnSpec, ChurnSchedule]:
    """Convenience: build a spec and lower it in one call."""
    spec = AdversarialChurnSpec(
        strategy=strategy,
        horizon=int(horizon),
        budget=budget or ChurnBudget(),
        seed=int(seed),
        repair_window=int(repair_window),
        start_round=int(start_round),
        exclude=tuple(exclude),
    )
    return spec, spec.build(network)
