"""Integration tests for the full four-stage algorithm (Theorem 2)."""

import numpy as np
import pytest

from repro.coding.packets import make_packets
from repro.core import ENGINES, AlgorithmParameters, MultipleMessageBroadcast
from repro.experiments.workloads import (
    all_nodes_one_packet,
    hotspot_placement,
    single_source_burst,
    uniform_random_placement,
)
from repro.radio.trace import RoundTrace
from repro.topology import (
    balanced_tree,
    barbell,
    caterpillar,
    grid,
    line,
    random_connected_gnp,
    random_geometric,
    ring,
    star,
)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "net",
        [
            line(10),
            ring(12),
            grid(4, 4),
            star(12),
            balanced_tree(2, 3),
            caterpillar(5, 2),
            barbell(4, 3),
            random_geometric(30, seed=1),
            random_connected_gnp(25, seed=2),
        ],
        ids=lambda net: net.name.split("(")[0],
    )
    def test_success_across_topologies(self, net):
        packets = uniform_random_placement(net, k=8, seed=5)
        result = MultipleMessageBroadcast(net, seed=11).run(packets)
        assert result.success
        assert result.informed_fraction == 1.0
        assert result.k == 8

    def test_single_packet(self):
        net = grid(3, 3)
        packets = make_packets([4], size_bits=8, seed=0)
        result = MultipleMessageBroadcast(net, seed=3).run(packets)
        assert result.success
        assert result.leader == 4  # only candidate

    def test_no_packets_trivial(self):
        net = line(4)
        result = MultipleMessageBroadcast(net, seed=0).run([])
        assert result.success
        assert result.total_rounds == 0

    def test_single_source_burst(self):
        net = grid(4, 4)
        packets = single_source_burst(net, k=20, source=5, seed=1)
        result = MultipleMessageBroadcast(net, seed=9).run(packets)
        assert result.success
        assert result.leader == 5

    def test_all_nodes_one_packet(self):
        net = grid(3, 3)
        packets = all_nodes_one_packet(net, seed=2)
        result = MultipleMessageBroadcast(net, seed=4).run(packets)
        assert result.success
        assert result.leader == net.n - 1  # max-ID holder

    def test_hotspot(self):
        net = random_geometric(30, seed=3)
        packets = hotspot_placement(net, k=15, seed=6)
        result = MultipleMessageBroadcast(net, seed=8).run(packets)
        assert result.success

    def test_origin_out_of_range_rejected(self):
        net = line(3)
        packets = make_packets([7], size_bits=8, seed=0)
        with pytest.raises(ValueError, match="origin"):
            MultipleMessageBroadcast(net, seed=0).run(packets)


class TestResultAccounting:
    def test_stage_timings_sum_to_total(self):
        net = grid(3, 4)
        packets = uniform_random_placement(net, k=6, seed=1)
        result = MultipleMessageBroadcast(net, seed=2).run(packets)
        t = result.timing
        assert (
            t.leader_election + t.bfs + t.collection + t.dissemination
            == result.total_rounds
        )
        assert all(
            v > 0
            for v in [t.leader_election, t.bfs, t.collection, t.dissemination]
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_spans_the_whole_run(self, engine):
        """Each stage traces from the rounds used before it, and the
        trace ends where the run does."""
        net = grid(5, 5)
        packets = uniform_random_placement(net, k=10, seed=5)
        algo = MultipleMessageBroadcast(
            net, AlgorithmParameters(engine=engine), seed=11
        )
        algo.trace = RoundTrace(keep_records=True)
        result = algo.run(packets)
        assert result.trace.summary()["total_rounds"] == result.total_rounds
        index = np.array([r.round_index for r in result.trace.records])
        assert (np.diff(index) > 0).all()
        t = result.timing
        windows = np.cumsum(
            [0, t.leader_election, t.bfs, t.collection, t.dissemination]
        )
        assert windows[-1] == result.total_rounds
        per_stage, _ = np.histogram(index, bins=windows)
        assert (per_stage > 0).all()
        assert per_stage.sum() == index.size

    def test_amortized_metric(self):
        net = line(5)
        packets = uniform_random_placement(net, k=4, seed=0)
        result = MultipleMessageBroadcast(net, seed=1).run(packets)
        assert result.amortized_rounds_per_packet == result.total_rounds / 4

    def test_network_parameters_recorded(self):
        net = grid(3, 3)
        packets = uniform_random_placement(net, k=3, seed=0)
        result = MultipleMessageBroadcast(net, seed=0).run(packets)
        assert result.n == 9
        assert result.diameter == 4
        assert result.max_degree == 4

    def test_deterministic_given_seed(self):
        net = random_geometric(25, seed=4)
        packets = uniform_random_placement(net, k=5, seed=7)
        r1 = MultipleMessageBroadcast(net, seed=13).run(packets)
        r2 = MultipleMessageBroadcast(net, seed=13).run(packets)
        assert r1.total_rounds == r2.total_rounds
        assert r1.success == r2.success
        assert r1.leader == r2.leader

    def test_schedule_deterministic_but_behaviour_stochastic(self):
        """Stage budgets are fixed-length (nodes cannot detect completion),
        so total rounds are seed-independent for the same phase schedule —
        while the stochastic internals (collection order) do vary."""
        net = random_geometric(25, seed=4)
        packets = uniform_random_placement(net, k=8, seed=7)
        results = [
            MultipleMessageBroadcast(net, seed=s).run(packets) for s in range(5)
        ]
        assert all(r.success for r in results)
        assert len({r.total_rounds for r in results}) == 1
        orders = {tuple(r.collection.collected_order) for r in results}
        assert len(orders) > 1


class TestParameterPresets:
    def test_paper_preset_more_conservative_than_fast(self):
        fast = AlgorithmParameters.fast()
        paper = AlgorithmParameters.paper()
        assert paper.bgi_epochs_factor > fast.bgi_epochs_factor
        assert paper.forward_surplus > fast.forward_surplus

    def test_fast_params_still_succeed_on_small_nets(self):
        net = grid(3, 3)
        packets = uniform_random_placement(net, k=5, seed=1)
        result = MultipleMessageBroadcast(
            net, params=AlgorithmParameters.fast(), seed=21
        ).run(packets)
        assert result.success

    def test_with_overrides(self):
        p = AlgorithmParameters().with_overrides(group_spacing=2)
        assert p.group_spacing == 2
        assert AlgorithmParameters().group_spacing == 3


class TestRepeatedRuns:
    def test_high_success_rate(self):
        """The w.h.p. guarantee, measured: nearly all seeds succeed."""
        net = random_geometric(30, seed=10)
        packets = uniform_random_placement(net, k=10, seed=3)
        wins = sum(
            MultipleMessageBroadcast(net, seed=s).run(packets).success
            for s in range(15)
        )
        assert wins >= 14
