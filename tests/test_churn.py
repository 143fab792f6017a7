"""Unit tests for topology churn: schedules, timelines, ChurnNetwork,
mobility lowering, and the FaultSchedule × ChurnSchedule cross checks."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packets import required_packet_bits
from repro.core import AlgorithmParameters
from repro.dynamic import (
    ChurnEvent,
    ChurnNetwork,
    ChurnSchedule,
    ContinuousBroadcast,
    PoissonProcess,
    churn_from_mobility,
    random_churn_schedule,
)
from repro.radio import RadioNetwork
from repro.radio.transcript import RecordingNetwork
from repro.resilience.schedule import FaultSchedule
from repro.testing.differential import transcript_digest
from repro.topology import grid, line, mobile_rgg, random_geometric


class TestChurnEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent("teleport", round=0, node=1)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent("leave", round=-1, node=1)

    def test_membership_event_needs_node(self):
        with pytest.raises(ValueError):
            ChurnEvent("join", round=0)

    def test_edge_event_needs_edge(self):
        with pytest.raises(ValueError):
            ChurnEvent("edge_down", round=0)
        with pytest.raises(ValueError):
            ChurnEvent("edge_up", round=0, edge=(3, 3))

    def test_partition_needs_cut_set(self):
        with pytest.raises(ValueError):
            ChurnEvent("partition", round=0)

    def test_cut_edges_normalized(self):
        e = ChurnEvent("partition", round=5, edges=((4, 1), (2, 3)))
        assert e.cut_edges() == ((1, 4), (2, 3))


class TestChurnScheduleValidate:
    def test_builder_round_trip(self):
        churn = (ChurnSchedule(initially_absent=[7])
                 .join(7, at_round=100)
                 .leave(3, at_round=50)
                 .edge_down((1, 2), at_round=10)
                 .edge_up((1, 2), at_round=20))
        churn.validate(9)
        clone = ChurnSchedule.from_json(churn.to_json())
        assert clone.to_json() == churn.to_json()
        assert clone.changes_membership

    def test_out_of_range_node(self):
        with pytest.raises(ValueError, match="n=4"):
            ChurnSchedule().leave(9, at_round=5).validate(4)

    def test_out_of_range_initially_absent(self):
        with pytest.raises(ValueError, match="initially_absent"):
            ChurnSchedule(initially_absent=[10]).validate(4)

    def test_join_of_present_node_rejected(self):
        with pytest.raises(ValueError, match="already present"):
            ChurnSchedule().join(2, at_round=5).validate(4)

    def test_double_leave_rejected(self):
        sched = ChurnSchedule().leave(2, at_round=5).leave(2, at_round=9)
        with pytest.raises(ValueError, match="already absent"):
            sched.validate(4)

    def test_double_sever_rejected(self):
        sched = (ChurnSchedule()
                 .edge_down((0, 1), at_round=5)
                 .edge_down((1, 0), at_round=9))
        with pytest.raises(ValueError, match="already severed"):
            sched.validate(4)

    def test_restore_of_active_edge_rejected(self):
        with pytest.raises(ValueError, match="not severed"):
            ChurnSchedule().edge_up((0, 1), at_round=5).validate(4)

    def test_leave_then_rejoin_valid(self):
        (ChurnSchedule()
         .leave(1, at_round=5)
         .join(1, at_round=9)
         .leave(1, at_round=20)).validate(4)

    def test_initially_absent_never_joining_is_legal(self):
        ChurnSchedule(initially_absent=[3]).validate(4)


class TestMembershipTimeline:
    def test_presence_flips_at_event_round(self):
        timeline = ChurnSchedule().leave(2, at_round=10).membership()
        assert timeline.is_present(2, 9)
        # an event at round r takes effect before round r resolves
        assert not timeline.is_present(2, 10)
        assert timeline.toggles(2) == (10,)

    def test_initially_absent_until_join(self):
        churn = ChurnSchedule(initially_absent=[1]).join(1, at_round=30)
        timeline = churn.membership()
        assert not timeline.is_present(1, 0)
        assert timeline.is_present(1, 30)

    def test_present_at_and_absent_forever(self):
        churn = (ChurnSchedule()
                 .leave(0, at_round=5)
                 .leave(1, at_round=5)
                 .join(1, at_round=8))
        timeline = churn.membership()
        assert timeline.present_at(6, 4) == frozenset({2, 3})
        assert timeline.absent_forever_after(4) == frozenset({0})


class TestChurnNetwork:
    def test_absent_node_neither_sends_nor_receives(self):
        net = ChurnNetwork(line(3), ChurnSchedule().leave(0, at_round=0))
        # 0 -- 1 -- 2; node 0 left before round 0 resolved
        received = net.resolve_round({0: "a"})
        assert received == {}
        assert net.churn_stats()["tx_suppressed_absent"] == 1
        received = net.resolve_round({1: "b"})
        assert received == {2: "b"}  # not node 0

    def test_departed_transmitter_does_not_collide(self):
        # 0 and 2 both neighbor 1; with 0 absent, 2's lone signal gets
        # through instead of colliding.
        net = ChurnNetwork(line(3), ChurnSchedule().leave(0, at_round=0))
        assert net.resolve_round({0: "x", 2: "y"}) == {1: "y"}

    def test_severed_edge_blocks_reception(self):
        net = ChurnNetwork(
            line(3), ChurnSchedule().edge_down((0, 1), at_round=0)
        )
        assert net.resolve_round({0: "a"}) == {}
        assert net.edge_active(1, 2) and not net.edge_active(0, 1)

    def test_events_apply_on_schedule(self):
        net = ChurnNetwork(line(3), ChurnSchedule().leave(2, at_round=2))
        assert net.resolve_round({1: "a"}) == {0: "a", 2: "a"}  # round 0
        assert net.resolve_round({1: "b"}) == {0: "b", 2: "b"}  # round 1
        assert net.resolve_round({1: "c"}) == {0: "c"}          # round 2
        assert net.is_present(2) is False

    def test_advance_to_is_monotone(self):
        net = ChurnNetwork(line(3), ChurnSchedule().leave(2, at_round=5))
        net.advance_to(10)
        assert net.clock == 10 and not net.is_present(2)
        net.advance_to(3)  # behind: no-op
        assert net.clock == 10

    def test_footprint_queries_unchanged(self):
        base = grid(3, 3)
        net = ChurnNetwork(base, ChurnSchedule().leave(4, at_round=0))
        net.resolve_round({})  # applies the round-0 leave
        assert net.n == base.n
        assert net.max_degree == base.max_degree
        assert net.has_edge(4, 1)  # footprint still reports the edge
        assert not net.edge_active(4, 1)

    def test_schedule_without_events_keeps_initially_absent(self):
        # A schedule with no events is still a schedule: its future
        # joiners start absent.
        net = ChurnNetwork(line(3), ChurnSchedule(initially_absent=[0]))
        assert not net.is_present(0)
        assert net.resolve_round({1: "m"}) == {2: "m"}

    def test_deliver_to_absent_plants_phantoms(self):
        churn = ChurnSchedule().leave(0, at_round=0)
        buggy = ChurnNetwork(line(3), churn, deliver_to_absent=True)
        assert buggy.resolve_round({1: "m"}) == {0: "m", 2: "m"}
        assert buggy.churn_stats()["rx_phantom_delivered"] == 1


class TestMobilityLowering:
    def test_diff_to_flips(self):
        epochs = [[(0, 1), (1, 2)], [(0, 1)], [(0, 1), (1, 2)]]
        footprint, sched = churn_from_mobility(epochs, epoch_length=100)
        assert footprint == [(0, 1), (1, 2)]
        kinds = [(e.kind, e.round, e.edge) for e in sched.sorted_events()]
        assert kinds == [
            ("edge_down", 100, (1, 2)),
            ("edge_up", 200, (1, 2)),
        ]
        sched.validate(3)

    def test_edge_missing_from_epoch0_starts_severed(self):
        epochs = [[(0, 1)], [(0, 1), (1, 2)]]
        _, sched = churn_from_mobility(epochs, epoch_length=10)
        first = sched.sorted_events()[0]
        assert (first.kind, first.round, first.edge) == (
            "edge_down", 0, (1, 2)
        )

    def test_mobile_rgg_lowering_validates(self):
        net, edge_sets = mobile_rgg(16, epochs=4, step=0.08, seed=3)
        assert len(edge_sets) == 4
        footprint, sched = churn_from_mobility(edge_sets, epoch_length=50)
        assert set(footprint) <= {
            (u, int(v))
            for u in range(net.n) for v in net.neighbors(u) if u < int(v)
        } | {
            (int(v), u)
            for u in range(net.n) for v in net.neighbors(u) if u < int(v)
        }
        sched.validate(net.n)

    def test_mobile_rgg_deterministic(self):
        a = mobile_rgg(12, epochs=3, seed=7)[1]
        b = mobile_rgg(12, epochs=3, seed=7)[1]
        assert a == b


class TestRandomChurnSchedule:
    def test_same_seed_same_schedule(self):
        net = grid(4, 4)
        kwargs = dict(leave_frac=0.2, join_frac=0.1, edge_flips=3,
                      rejoin_prob=0.5, partition_prob=1.0)
        a = random_churn_schedule(net, 500, seed=11, **kwargs)
        b = random_churn_schedule(net, 500, seed=11, **kwargs)
        assert a.to_json() == b.to_json()

    def test_exclude_respected(self):
        net = grid(4, 4)
        excl = {0, 5, 10}
        sched = random_churn_schedule(
            net, 300, seed=2, leave_frac=0.5, join_frac=0.3, exclude=excl
        )
        touched = {e.node for e in sched.events
                   if e.kind in ("join", "leave")}
        assert not touched & excl
        assert not sched.initially_absent & excl

    def test_always_validates(self):
        net = grid(4, 4)
        for seed in range(12):
            random_churn_schedule(
                net, 400, seed=seed, leave_frac=0.3, join_frac=0.2,
                edge_flips=5, rejoin_prob=0.6, partition_prob=0.4,
            ).validate(net.n)


class TestFaultScheduleChurnCrossChecks:
    """Satellite: FaultSchedule.validate must reject events targeting
    nodes the churn timeline says are not there."""

    def test_event_on_departed_node_rejected(self):
        churn = ChurnSchedule().leave(3, at_round=10)
        faults = FaultSchedule().crash(3, at_round=20)
        with pytest.raises(ValueError, match="absent at that round"):
            faults.validate(9, churn=churn)

    def test_event_before_departure_accepted(self):
        churn = ChurnSchedule().leave(3, at_round=10)
        FaultSchedule().crash(3, at_round=5).validate(9, churn=churn)

    def test_event_on_not_yet_joined_node_rejected(self):
        churn = ChurnSchedule(initially_absent=[2]).join(2, at_round=50)
        faults = FaultSchedule().crash(2, at_round=10)
        with pytest.raises(ValueError, match="absent at that round"):
            faults.validate(9, churn=churn)
        # after the join it is fair game
        FaultSchedule().crash(2, at_round=60).validate(9, churn=churn)

    def test_link_event_with_absent_endpoint_rejected(self):
        churn = ChurnSchedule().leave(4, at_round=10)
        faults = FaultSchedule().link_down((4, 5), at_round=30)
        with pytest.raises(ValueError, match="absent at that round"):
            faults.validate(9, churn=churn)

    def test_event_on_never_present_node_rejected(self):
        churn = ChurnSchedule(initially_absent=[6])  # never joins
        faults = FaultSchedule().crash(6, at_round=0)
        with pytest.raises(ValueError, match="never joins"):
            faults.validate(9, churn=churn)

    def test_jam_window_fully_absent_rejected(self):
        churn = ChurnSchedule().leave(1, at_round=10)
        faults = FaultSchedule().jam({1}, start=20, stop=40)
        with pytest.raises(ValueError, match="entire span"):
            faults.validate(9, churn=churn)

    def test_jam_window_with_mid_window_rejoin_accepted(self):
        churn = (ChurnSchedule()
                 .leave(1, at_round=10)
                 .join(1, at_round=30))
        FaultSchedule().jam({1}, start=20, stop=40).validate(
            9, churn=churn
        )

    def test_byzantine_on_never_present_node_rejected(self):
        churn = ChurnSchedule(initially_absent=[8])
        with pytest.raises(ValueError, match="never exists"):
            FaultSchedule().validate(9, byzantine=[8], churn=churn)

    def test_no_churn_keeps_legacy_behavior(self):
        FaultSchedule().crash(3, at_round=20).validate(9)


# ----------------------------------------------------------------------
# The churned reception rule against a naive oracle
# ----------------------------------------------------------------------


def _naive_churned_round(base, absent, severed, transmissions,
                         deliver_to_absent):
    """The reception rule over the current graph, written out per node:
    ``v`` hears iff exactly one present transmitter reaches it across a
    footprint edge that is not severed, and ``v`` is not transmitting.
    Absent receivers hear nothing unless phantom delivery is planted.
    Returns the receptions (ascending) and the phantom count."""
    on_air = {tx: m for tx, m in transmissions.items() if tx not in absent}
    received, phantoms = {}, 0
    for v in range(base.n):
        if v in on_air:
            continue
        heard = [
            tx for tx in on_air
            if base.has_edge(tx, v) and frozenset((tx, v)) not in severed
        ]
        if len(heard) != 1:
            continue
        if v in absent:
            if not deliver_to_absent:
                continue
            phantoms += 1
        received[v] = on_air[heard[0]]
    return received, phantoms


@st.composite
def _churned_runs(draw):
    """A footprint, a valid churn timeline over it (one batch of events
    per round, drawn against the state it leaves behind) and one
    transmitter set per round."""
    if draw(st.booleans()):
        base = grid(draw(st.integers(2, 4)), draw(st.integers(2, 5)))
    else:
        base = random_geometric(draw(st.integers(4, 20)),
                                seed=draw(st.integers(0, 99)))
    n = base.n
    footprint = base.edge_list()
    nodes = st.integers(0, n - 1)
    initially_absent = draw(st.frozensets(nodes, max_size=n // 3))
    absent, severed = set(initially_absent), set()
    churn = ChurnSchedule(initially_absent=initially_absent)
    rounds = draw(st.integers(1, 10))
    transmissions = []
    for r in range(rounds):
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(
                ["leave", "join", "edge_down", "edge_up", "partition"]))
            present = sorted(set(range(n)) - absent)
            active = [e for e in footprint if frozenset(e) not in severed]
            cut = sorted(tuple(sorted(e)) for e in severed)
            if kind == "leave" and present:
                v = draw(st.sampled_from(present))
                churn.leave(v, at_round=r)
                absent.add(v)
            elif kind == "join" and absent:
                v = draw(st.sampled_from(sorted(absent)))
                churn.join(v, at_round=r)
                absent.discard(v)
            elif kind == "edge_down" and active:
                e = draw(st.sampled_from(active))
                churn.edge_down(e, at_round=r)
                severed.add(frozenset(e))
            elif kind == "edge_up" and cut:
                e = draw(st.sampled_from(cut))
                churn.edge_up(e, at_round=r)
                severed.discard(frozenset(e))
            elif kind == "partition" and active:
                edges = draw(st.lists(st.sampled_from(active), min_size=1,
                                      max_size=4, unique=True))
                churn.partition(edges, at_round=r)
                severed.update(frozenset(e) for e in edges)
        senders = draw(st.lists(nodes, max_size=n, unique=True))
        transmissions.append({v: f"m{r}.{v}" for v in senders})
    return base, churn, transmissions


@settings(max_examples=150, deadline=None)
@given(run=_churned_runs(), deliver_to_absent=st.booleans())
def test_churned_reception_matches_naive_oracle(run, deliver_to_absent):
    base, churn, transmissions = run
    churn.validate(base.n)
    net = ChurnNetwork(base, churn, deliver_to_absent=deliver_to_absent)
    absent = set(churn.initially_absent)
    severed = set()
    events = churn.sorted_events()
    phantoms = 0
    for r, tx in enumerate(transmissions):
        for e in events:
            if e.round != r:
                continue
            if e.kind == "leave":
                absent.add(e.node)
            elif e.kind == "join":
                absent.discard(e.node)
            elif e.kind in ("edge_down", "partition"):
                severed.update(frozenset(c) for c in e.cut_edges())
            else:
                severed.difference_update(
                    frozenset(c) for c in e.cut_edges())
        expected, new_phantoms = _naive_churned_round(
            base, absent, severed, tx, deliver_to_absent)
        phantoms += new_phantoms
        got = net.resolve_round(tx)
        assert list(got.items()) == list(expected.items()), r
        assert net.rx_phantom_delivered == phantoms
    assert net.absent == absent and net.severed == severed


# ----------------------------------------------------------------------
# Pinned continuous runs under churn
# ----------------------------------------------------------------------

#: sha256 over a continuous run's summary and the ``RecordingNetwork``
#: transcript of its churned rounds.  A change to the churned reception
#: rule, to event timing or to any draw order of the continuous driver
#: changes these.
CONTINUOUS_CHURN_PINS = {
    "grid-leave-flip":
        "ffdefa8db8231dd47493701c57c5d9aa20e36e1f9c7ad8621876575a658a6e0e",
    "rgg-join-partition":
        "d7d04f1d52e47fa278931d37d372bf58789458a5c8693d44128d7a833c792ba5",
    "mobile-rgg":
        "0a201e88b459cefaff648482d11f3254472db72ec2a45c95da729b757556aa8e",
}


def _continuous_churn_scenario(name):
    if name == "grid-leave-flip":
        base = grid(4, 4)
        churn = random_churn_schedule(base, 3000, seed=5, leave_frac=0.1,
                                      edge_flips=2)
        return base, churn, 0.003, 3000
    if name == "rgg-join-partition":
        base = random_geometric(20, seed=3)
        churn = random_churn_schedule(
            base, 2000, seed=4, leave_frac=0.1, join_frac=0.1,
            rejoin_prob=0.5, edge_flips=4, partition_prob=1.0,
        )
        return base, churn, 0.004, 2000
    assert name == "mobile-rgg", name
    net, edge_sets = mobile_rgg(16, epochs=6, step=0.03, seed=3)
    footprint, churn = churn_from_mobility(edge_sets, epoch_length=400)
    base = RadioNetwork(footprint, n=net.n, require_connected=False)
    return base, churn, 0.003, 2000


@pytest.mark.parametrize("name", sorted(CONTINUOUS_CHURN_PINS))
def test_continuous_run_under_churn_pinned(name):
    base, churn, rate, rounds = _continuous_churn_scenario(name)
    rec = RecordingNetwork(ChurnNetwork(base, churn))
    result = ContinuousBroadcast(
        rec,
        PoissonProcess(rate=rate, size_bits=required_packet_bits(base.n),
                       seed=7),
        params=AlgorithmParameters().with_overrides(
            collection_estimate_factor=0.25, mspg_enabled=False),
        seed=8,
    ).run(rounds)
    assert result.accounting_exact
    h = hashlib.sha256()
    h.update(json.dumps(result.summary(), sort_keys=True).encode())
    h.update(transcript_digest(rec.transcript).encode())
    assert h.hexdigest() == CONTINUOUS_CHURN_PINS[name]
