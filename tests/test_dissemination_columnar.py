"""The columnar dissemination driver: direct path against fallback.

On a bare honest columnar :class:`RadioNetwork`, Stage 4 runs as a
per-epoch vector program: one draw per epoch, one
``resolve_round_vector`` pass per slot, payload-free GF(2) bases.
Wrapping the network in a :class:`RecordingNetwork` forces the fallback
loop (sealed wire tuples through ``resolve_round`` and the shared
receiver pipeline).  Both draw
the same RNG stream, so every outcome and counter must agree — and the
direct path's results are pinned by digest, so a change to how it draws
or attributes receptions fails loudly here.  Every engine's Stage 4 is
pinned too: traced, behind an erasure layer and bare.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packets import make_packets
from repro.core.config import AlgorithmParameters
from repro.core.dissemination import epoch_draws, run_dissemination_stage
from repro.radio.network import ENGINES
from repro.radio.transcript import RecordingNetwork
from repro.topology import grid, random_geometric
from tests.conftest import PIN_MODES, pin_digest, pin_network

FIELDS = (
    "rounds",
    "coded_transmissions",
    "innovative_receptions",
    "plain_transmissions",
    "complete",
)


def _columnar(net):
    net.set_engine("columnar")
    return net


def _run(net, k, seed, params):
    """One Stage-4 run from the root, counting ``resolve_round`` calls."""
    calls = []
    resolve_round = net.resolve_round

    def counting(transmissions):
        calls.append(len(transmissions))
        return resolve_round(transmissions)

    # An instance attribute: the direct-path check looks at the class.
    net.resolve_round = counting
    try:
        packets = make_packets([0] * k, size_bits=24, seed=seed)
        result = run_dissemination_stage(
            net, net.bfs_distances(0).tolist(), 0, packets, params,
            np.random.default_rng(seed),
        )
    finally:
        del net.resolve_round
    return result, len(calls)


def _digest(result):
    h = hashlib.sha256()
    h.update(repr(tuple(getattr(result, f) for f in FIELDS)).encode())
    h.update(repr(result.failed_receivers).encode())
    h.update(repr(result.has_group.shape).encode())
    h.update(result.has_group.tobytes())
    return h.hexdigest()


TOPOLOGIES = {
    "grid8x9": (lambda: grid(8, 9), 37),
    "grid5x6": (lambda: grid(5, 6), 14),
    "rgg40": (lambda: random_geometric(40, seed=11), 20),
}


# (seed, forward_epochs_factor): the paper's epoch budget, and one so
# short that many (node, group) pairs end partially decoded.
BUDGETS = [(1, 1.0), (2, 0.3)]


@pytest.mark.parametrize("seed,epochs_factor", BUDGETS,
                         ids=["full", "short"])
@pytest.mark.parametrize("opportunistic", [False, True])
@pytest.mark.parametrize("coding", [True, False])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_direct_matches_fallback(
    topology, coding, opportunistic, seed, epochs_factor
):
    make, k = TOPOLOGIES[topology]
    params = AlgorithmParameters(
        coding_enabled=coding,
        opportunistic_decoding=opportunistic,
        forward_epochs_factor=epochs_factor,
    )
    direct, direct_calls = _run(_columnar(make()), k, seed, params)
    fallback, fallback_calls = _run(
        RecordingNetwork(_columnar(make())), k, seed, params
    )
    # the two paths really ran
    assert direct_calls == 0
    assert fallback_calls > 0
    for f in FIELDS:
        assert getattr(direct, f) == getattr(fallback, f), f
    assert (direct.has_group == fallback.has_group).all()
    assert direct.failed_receivers == fallback.failed_receivers


# Computed from the direct path before it became a per-epoch vector
# program; the rewrite must reproduce them bit for bit.
PINNED = [
    ("grid6x7-coded", lambda: grid(6, 7), 30, 3, {},
     "6e4c6aa7548d0fcebfd2d54fe17410c853b51d28967ac3a9b5ecd6bb4149cb05"),
    ("grid6x7-plain", lambda: grid(6, 7), 30, 4,
     {"coding_enabled": False},
     "4dae2ce39991dd2465f5286d06e03144aec9761687617a264a1a9ce7844a1a63"),
    ("rgg60-opportunistic", lambda: random_geometric(60, seed=5), 25, 6,
     {"opportunistic_decoding": True},
     "4875bfdaed0ff1403fca13dc09f960153130b49668b6490c6d23d59438330029"),
    ("grid5x8-spacing1-reps2", lambda: grid(5, 8), 40, 7,
     {"group_spacing": 1, "root_plain_repetitions": 2},
     "573261e7b9b8e3da2444de61c3297f84a4562efea8454ed76e9108d3f8447a26"),
]


@pytest.mark.parametrize(
    "make,k,seed,overrides,expected",
    [case[1:] for case in PINNED],
    ids=[case[0] for case in PINNED],
)
def test_direct_path_pinned_digest(make, k, seed, overrides, expected):
    result, calls = _run(
        _columnar(make()), k, seed, AlgorithmParameters(**overrides)
    )
    assert calls == 0
    assert _digest(result) == expected


# Stage 4 on every engine and mode.  Computed on the tree that still had
# one dict loop per engine; the shared phase loop must reproduce them.
CONFIGS = {
    "coded": {},
    "plain": {"coding_enabled": False},
    "opportunistic": {"opportunistic_decoding": True},
}
STAGE_PINS = {
    "coded-fast-trace":
        "534c334ed2f68ed3f71d5360b73ee83e4e455996f073a91d8ffc725c853477d6",
    "coded-fast-faulty":
        "93ad34aa09338be2737fc830a65d9722c2f5cdf532a19abb00f997206d3a0313",
    "coded-fast-bare":
        "dc74fa6f485298ff257155d965b9359c3c65c3da40c82b8e46cf7a6c00d5c2aa",
    "coded-reference-trace":
        "534c334ed2f68ed3f71d5360b73ee83e4e455996f073a91d8ffc725c853477d6",
    "coded-reference-faulty":
        "93ad34aa09338be2737fc830a65d9722c2f5cdf532a19abb00f997206d3a0313",
    "coded-reference-bare":
        "dc74fa6f485298ff257155d965b9359c3c65c3da40c82b8e46cf7a6c00d5c2aa",
    "coded-columnar-trace":
        "63418577f32b9358f0a03ef5cad26cd42856f8e75fae6914572f18ace444e528",
    "coded-columnar-faulty":
        "2a66b3971440ba80849205ce496205f7de4da7645a24941ee82dd05cae6665aa",
    "coded-columnar-bare":
        "216abfae56ebf2292f4ed3865609205af9104907620b37573a1b20325e2070cd",
    "opportunistic-fast-trace":
        "534c334ed2f68ed3f71d5360b73ee83e4e455996f073a91d8ffc725c853477d6",
    "opportunistic-fast-faulty":
        "009da372dcddf03830659df04cd6ec8904140f0099b83a6070a4af12f99238ad",
    "opportunistic-fast-bare":
        "dc74fa6f485298ff257155d965b9359c3c65c3da40c82b8e46cf7a6c00d5c2aa",
    "opportunistic-reference-trace":
        "534c334ed2f68ed3f71d5360b73ee83e4e455996f073a91d8ffc725c853477d6",
    "opportunistic-reference-faulty":
        "009da372dcddf03830659df04cd6ec8904140f0099b83a6070a4af12f99238ad",
    "opportunistic-reference-bare":
        "dc74fa6f485298ff257155d965b9359c3c65c3da40c82b8e46cf7a6c00d5c2aa",
    "opportunistic-columnar-trace":
        "63418577f32b9358f0a03ef5cad26cd42856f8e75fae6914572f18ace444e528",
    "opportunistic-columnar-faulty":
        "dc209bd7e01a4eb5dc88548834fbcaedb374cf116582812b9ae647968bb4cdb8",
    "opportunistic-columnar-bare":
        "216abfae56ebf2292f4ed3865609205af9104907620b37573a1b20325e2070cd",
    "plain-fast-trace":
        "aec2e1ff95d25423685bbb107ce6fd6e3ee704a46eac5138b3398938c7e73fb9",
    "plain-fast-faulty":
        "e97e5ede1fbae47da6757d694614e3162263c4738555d2f249a9df67f5f992cb",
    "plain-fast-bare":
        "cf3fce122a231e413bfcef843bc3724ef8ec5807e502d26591c3db1f3055af8a",
    "plain-reference-trace":
        "aec2e1ff95d25423685bbb107ce6fd6e3ee704a46eac5138b3398938c7e73fb9",
    "plain-reference-faulty":
        "e97e5ede1fbae47da6757d694614e3162263c4738555d2f249a9df67f5f992cb",
    "plain-reference-bare":
        "cf3fce122a231e413bfcef843bc3724ef8ec5807e502d26591c3db1f3055af8a",
    "plain-columnar-trace":
        "04b3fab3b539bd492835acb62cf9996a74a8bc8dde9ebf37e0a83fa230f543f7",
    "plain-columnar-faulty":
        "16cdfb4d436135d60507dabc11e998c04b368a97c1f9adb18d4f04b3edb7876a",
    "plain-columnar-bare":
        "ec0dd2914c084f6d5c96c7b8f732e520c0d31caf4d9715298aaa976bede9950a",
}


@pytest.mark.parametrize("mode", PIN_MODES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_stage_pinned_digest(config, engine, mode):
    base = random_geometric(40, seed=11)
    dist = base.bfs_distances(0).tolist()
    net, trace = pin_network(base, engine, mode)
    rng = np.random.default_rng(21)
    packets = make_packets([0] * 20, size_bits=24, seed=21)
    result = run_dissemination_stage(
        net, dist, 0, packets, AlgorithmParameters(**CONFIGS[config]), rng,
        trace=trace,
    )
    assert pin_digest(result, rng, net, trace) == \
        STAGE_PINS[f"{config}-{engine}-{mode}"]


# ----------------------------------------------------------------------
# The epoch draw helper
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    runs=st.lists(
        st.tuples(st.integers(0, 12), st.integers(1, 32)), max_size=12
    ),
    coded=st.booleans(),
    before=st.integers(0, 3),
    after=st.integers(1, 3),
)
def test_epoch_draws_stream_identical(seed, runs, coded, before, after):
    """One :func:`epoch_draws` call consumes exactly the stream of one
    ``rng.integers`` call per (slot, group), and leaves the generator in
    the same state: the doubles drawn afterwards agree too."""
    ref = np.random.default_rng(seed)
    ours = np.random.default_rng(seed)
    assert np.array_equal(ref.random(before), ours.random(before))
    pieces = [
        ref.integers(0, 1 << gs if coded else gs, size=size)
        for size, gs in runs
    ]
    bounds = np.repeat(
        np.array([gs for _, gs in runs], dtype=np.int64),
        [size for size, _ in runs],
    )
    draws = epoch_draws(ours, bounds, coded)
    assert draws.dtype == np.int64
    assert np.array_equal(
        draws, np.concatenate([np.zeros(0, dtype=np.int64), *pieces])
    )
    assert np.array_equal(ref.random(after), ours.random(after))


def test_epoch_draws_empty_epoch_draws_nothing():
    ref = np.random.default_rng(5)
    ours = np.random.default_rng(5)
    for coded in (True, False):
        assert epoch_draws(ours, np.zeros(0, dtype=np.int64), coded).size == 0
    assert ours.random() == ref.random()
