"""Observing a run must not change it.

A :class:`RoundTrace` only counts what a stage driver hands it, so a
traced run and a bare run from the same seed must agree on every result
field and leave the RNG in the same state, on every engine.  On a bare
columnar network the traced run must also take the same path as the bare
one, the array-native vector path, and report the same per-round counts
the dict loop reports.
"""

import dataclasses

import numpy as np
import pytest

from repro.coding.packets import make_packets
from repro.core import AlgorithmParameters, MultipleMessageBroadcast
from repro.core.dissemination import run_dissemination_stage
from repro.experiments.workloads import uniform_random_placement
from repro.radio.network import ENGINES
from repro.radio.trace import RoundTrace
from repro.radio.transcript import RecordingNetwork
from repro.topology import grid, random_geometric
from tests.conftest import _canon
from tests.test_columnar_properties import STAGES
from tests.test_dissemination_columnar import CONFIGS


def _dissemination(config):
    def run(net, rng, trace):
        packets = make_packets([0] * 20, size_bits=24, seed=21)
        return run_dissemination_stage(
            net, net.bfs_distances(0).tolist(), 0, packets,
            AlgorithmParameters(**CONFIGS[config]), rng, trace=trace,
        )
    return (lambda: random_geometric(40, seed=11), 21, run)


CASES = dict(STAGES)
CASES.update({f"dissemination-{c}": _dissemination(c) for c in CONFIGS})


def _run(case, engine, trace, wrap=False):
    """``(canonical result, RNG end state)`` of one stage run."""
    make, seed, run = CASES[case]
    net = make()
    net.set_engine(engine)
    if wrap:
        net = RecordingNetwork(net)
    rng = np.random.default_rng(seed)
    result = run(net, rng, trace)
    return _canon(result), rng.bit_generator.state


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_stage_equals_bare_stage(case, engine):
    trace = RoundTrace()
    assert _run(case, engine, trace) == _run(case, engine, None)
    assert trace.total_transmissions > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_vector_path_traces_like_the_dict_loop(case):
    """A traced bare columnar run (vector path) and a traced wrapped one
    (dict loop) see the same rounds, so their traces agree too."""
    direct, fallback = RoundTrace(), RoundTrace()
    assert _run(case, "columnar", direct) == \
        _run(case, "columnar", fallback, wrap=True)
    assert direct.summary() == fallback.summary()


def _counting(net):
    """Count ``resolve_round`` and ``resolve_round_vector`` calls through
    instance attributes (the vector-path check looks at the class)."""
    calls = {"resolve_round": 0, "resolve_round_vector": 0}
    for name in calls:
        method = getattr(net, name)

        def counted(tx, _name=name, _method=method):
            calls[_name] += 1
            return _method(tx)

        setattr(net, name, counted)
    return calls


@pytest.mark.parametrize("stage", ["bfs", "bgi", "dissemination-coded"])
def test_traced_columnar_run_takes_the_vector_path(stage):
    make, seed, run = CASES[stage]
    net = make()
    net.set_engine("columnar")
    calls = _counting(net)
    run(net, np.random.default_rng(seed), RoundTrace())
    assert calls["resolve_round"] == 0
    assert calls["resolve_round_vector"] > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_traced_multibroadcast_equals_untraced(engine):
    """End to end on an 8x8 grid, where a columnar flood saturates well
    inside its epoch budget."""
    outcomes = []
    for keep_trace in (False, True):
        net = grid(8, 8)
        packets = uniform_random_placement(net, 24, seed=5)
        algo = MultipleMessageBroadcast(
            net, AlgorithmParameters(engine=engine), seed=11,
            keep_trace=keep_trace,
        )
        result = algo.run(packets)
        assert result.success
        assert (result.trace is not None) == keep_trace
        outcomes.append((
            _canon(dataclasses.replace(result, trace=None)),
            algo.rng.bit_generator.state,
        ))
    assert outcomes[0] == outcomes[1]
