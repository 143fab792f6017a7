"""The benchmark's own tests: span arithmetic, wrapper hygiene, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import gzip
import json
from pathlib import Path

import pytest

import layers
import run
from spans import Tracer, children_of, self_time
from workloads import WORKLOADS

DECLARED = json.loads(
    (Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def _units(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


# ----------------------------------------------------------------------
# Self-time arithmetic on synthetic spans
# ----------------------------------------------------------------------

#: [name, start, end, parent, counts]
NESTED = [
    ["dissemination", 0.0, 10.0, -1, None],       # 0
    ["gf2.absorb_block", 1.0, 3.0, 0, None],      # 1
    ["radio.resolve_vector", 2.0, 4.0, 0, None],  # 2: overlaps 1
    ["decay.matrix", 1.5, 2.0, 1, None],          # 3: grandchild of 0
    ["radio.resolve_vector", 9.0, 12.0, 0, None],  # 4: runs past 0's end
    ["collection", 20.0, 25.0, -1, None],         # 5: no children
]


def test_self_time_subtracts_merged_clipped_children():
    children = children_of(NESTED)
    assert children == {0: [1, 2, 4], 1: [3]}
    # children of 0 cover [1, 4] and [9, 10]: 3 + 1 seconds
    assert self_time(NESTED, 0, children) == pytest.approx(6.0)
    assert self_time(NESTED, 1, children) == pytest.approx(1.5)
    assert self_time(NESTED, 5, children) == pytest.approx(5.0)


def test_disjoint_children_are_each_subtracted():
    spans = [["bfs", 0.0, 4.0, -1, None],
             ["decay.matrix", 0.5, 1.0, 0, None],
             ["radio.resolve_vector", 2.0, 3.0, 0, None]]
    assert self_time(spans, 0, children_of(spans)) == pytest.approx(2.5)


def test_run_metrics_are_per_run_and_flag_the_direct_path():
    spans = NESTED + [
        ["dissemination", 30.0, 32.0, -1, {"rounds": 7, "coded_tx": 4,
                                            "innovative_rx": 2}],
        ["radio.resolve_round", 30.5, 31.0, 6, {"tx": 3, "rx": 1}],
    ]
    metrics, direct = layers.run_metrics(spans, runs=2)
    assert direct == [1, 0]
    assert metrics["dissemination.direct"] == 0.0
    assert metrics["dissemination.s"] == pytest.approx(6.0)
    assert metrics["dissemination.self_s"] == pytest.approx((6.0 + 1.5) / 2)
    assert metrics["radio.resolve_vector.calls"] == 1.0
    assert metrics["radio.rx_per_tx"] == pytest.approx(1 / 3)
    assert metrics["dissemination.innovative_per_coded_tx"] == 0.5


# ----------------------------------------------------------------------
# Wrappers never change which path a run takes
# ----------------------------------------------------------------------


def test_class_wrappers_keep_the_direct_path_check():
    from repro.radio.faults import FaultyRadioNetwork
    from repro.radio.network import RadioNetwork
    from repro.topology import grid

    original = RadioNetwork.__dict__["resolve_round"]
    bare = grid(3, 3)
    faulty = FaultyRadioNetwork(bare, erasure_prob=0.1, seed=1)
    with Tracer() as tracer:
        tracer.install(layers.run_targets())
        assert RadioNetwork.__dict__["resolve_round"] is not original
        assert type(bare).resolve_round is RadioNetwork.resolve_round
        assert type(faulty).resolve_round is not RadioNetwork.resolve_round
        bare.resolve_round({0: "m"})
    assert RadioNetwork.__dict__["resolve_round"] is original
    assert [s[0] for s in tracer.spans] == ["radio.resolve_round"]
    assert tracer.spans[0][4] == {"tx": 1, "rx": 2}


def test_function_wrappers_reach_names_bound_by_import():
    from repro.core import multibroadcast
    from repro.primitives import leader_election

    original = leader_election.elect_leader
    with Tracer() as tracer:
        tracer.install(layers.run_targets())
        assert multibroadcast.elect_leader is not original
    assert multibroadcast.elect_leader is original
    assert leader_election.elect_leader is original


# ----------------------------------------------------------------------
# Smoke runs of every workload at n~100
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced_emits_every_end_to_end_metric(name):
    result, record = run.untraced(WORKLOADS[name].tiny(), seed=3, seconds=0)
    assert result["correct"], record["problems"]
    assert result["attempted"] == run.MIN_SAMPLES
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _units("end_to_end")
    assert record["mode"] == "untraced" and record["seed"] == 3
    assert len(record["run_seeds"]) == result["attempted"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_emits_every_per_layer_metric(name, tmp_path):
    workload = WORKLOADS[name].tiny()
    path = tmp_path / "trace.json.gz"
    result, record = run.traced(workload, seed=3, seconds=0, trace_path=path)
    assert result["correct"], record["problems"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _units("per_layer")
    metrics = result["metrics"]
    assert metrics["dissemination.direct"]["value"] == workload.direct
    if workload.honest:
        assert metrics["gf2.absorb_block.calls"]["value"] > 0
        assert metrics["integrity.decoder_absorb.calls"]["value"] == 0
    else:
        assert metrics["gf2.absorb_block.calls"]["value"] == 0
        assert metrics["faults.erased"]["value"] > 0
    with gzip.open(path, "rt") as f:
        written = json.load(f)
    assert set(written["metrics"]) == set(layers.UNITS)
    assert written["spans"] and written["setup_spans"]
    assert record["stage_rounds"] and record["mode"] == "traced"
