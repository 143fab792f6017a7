"""Property tests pitting the columnar kernels against naive oracles.

Hypothesis drives random topologies, transmit sets, and seeds through
the vectorized building blocks the columnar engine is made of — the CSR
reception resolver, the batched Decay schedule — and checks them against
deliberately naive pure-Python reimplementations.  Degenerate shapes the
array code paths are most likely to get wrong (no transmitters, isolated
nodes, a single-node network, a fully-connected clique) get explicit
cases on top of the random sweep.

Two stronger, deterministic equivalences ride along:

- the columnar BFS driver is RNG-stream-identical to the reference
  construction, so their parent/distance arrays must match *exactly*;
- the columnar flood's direct (``resolve_round_vector``) and fallback
  (dict ``resolve_round`` through a proxy) modes consume the same RNG
  stream, so wrapping the network must not change any outcome.

Stages 2 and 3 and the BGI flood are also pinned by digest on every
engine, traced, behind an erasure layer and bare.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packets import make_packets
from repro.core.collection import run_collection_stage
from repro.core.config import AlgorithmParameters
from repro.primitives.bfs import build_distributed_bfs
from repro.primitives.bgi_broadcast import bgi_broadcast
from repro.primitives.decay import (
    decay_transmit_matrix,
    transmission_probabilities,
)
from repro.radio.network import ENGINES, RadioNetwork
from repro.radio.rng import make_rng
from repro.radio.transcript import RecordingNetwork
from repro.topology import (
    clique,
    grid,
    hypercube,
    line,
    ring,
    star,
    torus,
)
from tests.conftest import PIN_MODES, pin_digest, pin_network


def naive_resolve(network, tx_set):
    """The paper's reception rule, coded as plainly as possible."""
    received = {}
    for v in range(network.n):
        if v in tx_set:
            continue
        talking = sorted(u for u in network.neighbors(v) if u in tx_set)
        if len(talking) == 1:
            received[v] = talking[0]
    return received


@st.composite
def sparse_network_and_tx(draw, max_n=24):
    """A possibly-disconnected graph (isolated nodes allowed) plus a
    transmit set."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(
            st.lists(
                st.sampled_from(pairs),
                max_size=3 * n,
                unique=True,
            )
        )
        if pairs
        else []
    )
    tx = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    net = RadioNetwork(edges, n=n, require_connected=False)
    return net, tx


@st.composite
def connected_network(draw, max_n=20):
    """A random connected graph: a random attachment tree plus extras."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extras = draw(
        st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)
    )
    seen = set(map(frozenset, edges))
    for e in extras:
        if frozenset(e) not in seen:
            edges.append(e)
            seen.add(frozenset(e))
    return RadioNetwork(edges, n=n)


# ----------------------------------------------------------------------
# CSR reception resolver vs the naive oracle
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(sparse_network_and_tx())
def test_vector_resolver_matches_naive_oracle(net_tx):
    net, tx = net_tx
    receivers, senders = net.resolve_round_vector(
        np.array(sorted(tx), dtype=np.int64)
    )
    expected = naive_resolve(net, tx)
    assert [int(v) for v in receivers] == sorted(expected)
    for rcv, snd in zip(receivers, senders):
        assert expected[int(rcv)] == int(snd)


@settings(max_examples=40, deadline=None)
@given(sparse_network_and_tx())
def test_vector_resolver_matches_dict_resolver(net_tx):
    """Same physics through both APIs: the dict path delivers message m
    to exactly the nodes the vector path delivers sender-of to."""
    net, tx = net_tx
    receivers, senders = net.resolve_round_vector(
        np.array(sorted(tx), dtype=np.int64)
    )
    received = net.resolve_round({v: f"m{v}" for v in sorted(tx)})
    assert [int(v) for v in receivers] == list(received)
    for rcv, snd in zip(receivers, senders):
        assert received[int(rcv)] == f"m{int(snd)}"


def test_vector_resolver_degenerate_cases():
    # single-node network: nothing to receive, ever
    solo = RadioNetwork([], n=1, require_connected=False)
    r, s = solo.resolve_round_vector(np.array([], dtype=np.int64))
    assert r.size == 0 and s.size == 0
    r, s = solo.resolve_round_vector(np.array([0], dtype=np.int64))
    assert r.size == 0

    # isolated transmitter: its signal reaches nobody
    iso = RadioNetwork([(0, 1)], n=3, require_connected=False)
    r, s = iso.resolve_round_vector(np.array([2], dtype=np.int64))
    assert r.size == 0
    r, s = iso.resolve_round_vector(np.array([0, 2], dtype=np.int64))
    assert list(r) == [1] and list(s) == [0]

    # fully-connected clique: one transmitter reaches everyone, two
    # transmitters jam everyone
    kn = clique(6)
    r, s = kn.resolve_round_vector(np.array([3], dtype=np.int64))
    assert list(r) == [0, 1, 2, 4, 5]
    assert set(s.tolist()) == {3}
    r, s = kn.resolve_round_vector(np.array([1, 4], dtype=np.int64))
    assert r.size == 0

    # empty transmit set
    r, s = kn.resolve_round_vector(np.array([], dtype=np.int64))
    assert r.size == 0


# ----------------------------------------------------------------------
# Batched Decay schedule vs per-slot draws
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=40),
    num_slots=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_decay_matrix_bit_identical_to_per_slot_draws(m, num_slots, seed):
    """The independent variant consumes the exact per-slot RNG stream:
    row s of the matrix equals the s-th sequential ``rng.random(m)``."""
    probs = transmission_probabilities(num_slots)
    matrix = decay_transmit_matrix(m, make_rng(seed), num_slots)
    assert matrix.shape == (num_slots, m)
    oracle_rng = make_rng(seed)
    for s in range(num_slots):
        expected = oracle_rng.random(m) < probs[s]
        assert (matrix[s] == expected).all()


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=40),
    num_slots=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_decay_matrix_classic_variant_matches_geometric_oracle(
    m, num_slots, seed
):
    """Classic Decay transmits in a prefix of slots of geometric
    length; the matrix must be exactly that prefix per participant."""
    matrix = decay_transmit_matrix(
        m, make_rng(seed), num_slots, variant="classic"
    )
    stops = make_rng(seed).geometric(0.5, size=m)
    for i in range(m):
        prefix = min(int(stops[i]), num_slots)
        assert matrix[:prefix, i].all()
        assert not matrix[prefix:, i].any()


def test_decay_matrix_rejects_unknown_variant():
    with pytest.raises(ValueError):
        decay_transmit_matrix(3, make_rng(0), 4, variant="bogus")


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=30),
    copies=st.integers(min_value=1, max_value=12),
    w=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_grab_launch_matrix_matches_per_packet_draws(m, copies, w, seed):
    """GRAB draws every (packet, copy) launch round as one ``(m, c)``
    matrix: the stream of ``m`` per-packet draws of size ``c``, leaving
    the generator in the same state."""
    batched = make_rng(seed)
    per_packet = make_rng(seed)
    matrix = batched.integers(1, w + 1, size=(m, copies))
    rows = [per_packet.integers(1, w + 1, size=copies) for _ in range(m)]
    assert matrix.tolist() == [row.tolist() for row in rows]
    assert batched.random() == per_packet.random()


# ----------------------------------------------------------------------
# Columnar stage drivers: deterministic equivalences
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    net=connected_network(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    root=st.integers(min_value=0, max_value=10**9),
)
def test_columnar_bfs_identical_to_reference(net, seed, root):
    """The columnar BFS consumes the reference construction's exact RNG
    stream, so parents, distances, and round counts must all match."""
    root = root % net.n
    import copy

    ref_net = copy.deepcopy(net)
    ref_net.set_engine("reference")
    col_net = copy.deepcopy(net)
    col_net.set_engine("columnar")
    ref = build_distributed_bfs(ref_net, root, make_rng(seed))
    col = build_distributed_bfs(col_net, root, make_rng(seed))
    assert ref.rounds == col.rounds
    assert (np.asarray(ref.distance) == np.asarray(col.distance)).all()
    assert (np.asarray(ref.parent) == np.asarray(col.parent)).all()


@settings(max_examples=20, deadline=None)
@given(
    net=connected_network(max_n=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    source=st.integers(min_value=0, max_value=10**9),
)
def test_columnar_flood_direct_and_fallback_modes_agree(net, seed, source):
    """Direct mode (CSR kernel, no wire dicts) and fallback mode (dict
    rounds through a recording proxy) draw the same RNG stream, so a
    wrapped network must produce the identical flood outcome."""
    source = source % net.n
    import copy

    bare = copy.deepcopy(net)
    bare.set_engine("columnar")
    wrapped_base = copy.deepcopy(net)
    wrapped_base.set_engine("columnar")
    wrapped = RecordingNetwork(wrapped_base)

    direct = bgi_broadcast(bare, [source], make_rng(seed), message="x")
    fallback = bgi_broadcast(wrapped, [source], make_rng(seed), message="x")
    assert direct.rounds == fallback.rounds
    assert (direct.informed == fallback.informed).all()
    # connected graph + default epoch budget: the flood saturates
    assert direct.informed.all()


# ----------------------------------------------------------------------
# Stage pins: result, RNG end state and trace summary, per engine × mode
# ----------------------------------------------------------------------


def _pin_bfs(net, rng, trace):
    return build_distributed_bfs(net, 0, rng, trace=trace)


def _pin_bgi(net, rng, trace):
    return bgi_broadcast(net, [7], rng, message="m", stop_early=False,
                         trace=trace)


def _pin_collection(net, rng, trace):
    packets = make_packets([3, 3, 8, 11, 19, 19, 14, 0], size_bits=16,
                           seed=4)
    return run_collection_stage(
        net, net.bfs_tree(0), net.bfs_distances(0).tolist(), 0, packets,
        AlgorithmParameters(), rng, trace=trace,
    )


STAGES = {
    "bfs": (lambda: grid(5, 6), 11, _pin_bfs),
    "bgi": (lambda: grid(5, 6), 12, _pin_bgi),
    "collection": (lambda: grid(4, 5), 13, _pin_collection),
}

# Computed on the tree that still had one dict loop per engine; the
# shared stage drivers must reproduce them bit for bit.
STAGE_PINS = {
    "bfs-fast-trace":
        "d51fbb3716fc1b004aa23802d9328785194595578f30fcb0958bacfedf443a7e",
    "bfs-fast-faulty":
        "c3ad76d12fc33ce7ed283754e8386b7879cfdc19a539fed6c4b503145a55aa02",
    "bfs-fast-bare":
        "da76e13776870283ab3a561b595b8ff8cb0e17cd4b06caa47f39aa6c4dc15a35",
    "bfs-reference-trace":
        "d51fbb3716fc1b004aa23802d9328785194595578f30fcb0958bacfedf443a7e",
    "bfs-reference-faulty":
        "c3ad76d12fc33ce7ed283754e8386b7879cfdc19a539fed6c4b503145a55aa02",
    "bfs-reference-bare":
        "da76e13776870283ab3a561b595b8ff8cb0e17cd4b06caa47f39aa6c4dc15a35",
    "bfs-columnar-trace":
        "d51fbb3716fc1b004aa23802d9328785194595578f30fcb0958bacfedf443a7e",
    "bfs-columnar-faulty":
        "c3ad76d12fc33ce7ed283754e8386b7879cfdc19a539fed6c4b503145a55aa02",
    "bfs-columnar-bare":
        "da76e13776870283ab3a561b595b8ff8cb0e17cd4b06caa47f39aa6c4dc15a35",
    "bgi-fast-trace":
        "bfbeb25fd9fbe0032fee67ca253d027e4c0820af3a338f4eedb950bd75ef4eeb",
    "bgi-fast-faulty":
        "6756e79260ebbfe7819bc58762d12db569e5c4c97ac6e9c6d1a7faab0c5c8cca",
    "bgi-fast-bare":
        "4ec5b894a0d8ccd08765dce25a7246ddb1f81997f465f6fced7441e03cf6b125",
    "bgi-reference-trace":
        "bfbeb25fd9fbe0032fee67ca253d027e4c0820af3a338f4eedb950bd75ef4eeb",
    "bgi-reference-faulty":
        "6756e79260ebbfe7819bc58762d12db569e5c4c97ac6e9c6d1a7faab0c5c8cca",
    "bgi-reference-bare":
        "4ec5b894a0d8ccd08765dce25a7246ddb1f81997f465f6fced7441e03cf6b125",
    # Re-pinned when traced floods began skipping saturated epochs on
    # columnar too; result and RNG end state equal bgi-columnar-bare's.
    "bgi-columnar-trace":
        "0fc989aba08b63fbd44d5da86ef1ebcef951e405bc5f12f734739aa0765a7e7e",
    "bgi-columnar-faulty":
        "87af22f47fd0d2a46d76a45a0a88f1b4f6ab25224e712f22b928f5074fb918d0",
    "bgi-columnar-bare":
        "2c6af971b986420f2202e3753b90fc289fbc88802d7dff46cb65dc2cd446b53a",
    "collection-fast-trace":
        "56482a08991e05c8a1f353fd96433f2804d837d71bd7f55df26fddc37add72ea",
    "collection-fast-faulty":
        "8785e3b3d99fded2752f8aa654fe4b9e5402893c901b0f5ad71dff0d1998e53c",
    "collection-fast-bare":
        "d9d600b0caefc434f4da46d2b8eb633a80671221f17fa3b362930e46e7e199ec",
    "collection-reference-trace":
        "56482a08991e05c8a1f353fd96433f2804d837d71bd7f55df26fddc37add72ea",
    "collection-reference-faulty":
        "8785e3b3d99fded2752f8aa654fe4b9e5402893c901b0f5ad71dff0d1998e53c",
    "collection-reference-bare":
        "d9d600b0caefc434f4da46d2b8eb633a80671221f17fa3b362930e46e7e199ec",
    "collection-columnar-trace":
        "56482a08991e05c8a1f353fd96433f2804d837d71bd7f55df26fddc37add72ea",
    "collection-columnar-faulty":
        "8785e3b3d99fded2752f8aa654fe4b9e5402893c901b0f5ad71dff0d1998e53c",
    "collection-columnar-bare":
        "d9d600b0caefc434f4da46d2b8eb633a80671221f17fa3b362930e46e7e199ec",
}


@pytest.mark.parametrize("mode", PIN_MODES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stage_pinned_digest(stage, engine, mode):
    make, seed, run = STAGES[stage]
    net, trace = pin_network(make(), engine, mode)
    rng = make_rng(seed)
    result = run(net, rng, trace)
    assert pin_digest(result, rng, net, trace) == \
        STAGE_PINS[f"{stage}-{engine}-{mode}"]


# ----------------------------------------------------------------------
# Diameter hints
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: line(7),
        lambda: line(2),
        lambda: ring(9),
        lambda: ring(4),
        lambda: star(8),
        lambda: star(2),
        lambda: clique(5),
        lambda: grid(3, 6),
        lambda: grid(1, 4),
        lambda: hypercube(4),
        lambda: torus(4, 6),
        lambda: torus(3, 3),
    ],
)
def test_generator_diameter_hints_are_exact(make):
    net = make()
    hinted = net.diameter
    recomputed = RadioNetwork(
        [(u, v) for u in range(net.n) for v in net.neighbors(u) if u < v],
        n=net.n,
    ).diameter
    assert hinted == recomputed
