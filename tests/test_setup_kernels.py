"""Oracle tests for the set-up kernels: the cell-list unit-disk edge
list against the all-pairs computation, and the bit-parallel diameter
sweep against ``max(eccentricity(v))``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.radio.network as network_module
from repro.radio import RadioNetwork
from repro.radio.errors import TopologyError
from repro.topology import caterpillar, random_geometric, torus
from repro.topology.generators import _disk_edges


def all_pairs_disk_edges(points, radius):
    """The O(n^2) broadcast computation the cell list replaced."""
    n = points.shape[0]
    deltas = points[:, None, :] - points[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", deltas, deltas)
    close = dist2 <= radius * radius
    iu = np.triu_indices(n, k=1)
    mask = close[iu]
    return list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))


def eccentricity_oracle(net):
    return max(1, max(net.eccentricity(v) for v in range(net.n)))


# ----------------------------------------------------------------------
# Unit-disk edges
# ----------------------------------------------------------------------

#: Coordinates that are exact multiples of ``1/m`` (cell borders when
#: the radius is ``1/m``), the clip bounds 0.0 and 1.0, or anywhere.
def _coordinates(m):
    return st.one_of(
        st.integers(0, m).map(lambda i: i / m),
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 1.0),
    )


@st.composite
def point_clouds(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 80))
    coord = _coordinates(m)
    points = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):  # duplicate some points
        copies = draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n))
        points += [points[i] for i in copies]
    radius = draw(st.one_of(
        st.just(1.0 / m),
        st.just(2.0 / m),
        st.floats(1.0, 3.0),
        st.just(1e-6),
        st.floats(1e-3, 0.5),
    ))
    return np.array(points, dtype=np.float64).reshape(-1, 2), radius


@settings(max_examples=200, deadline=None)
@given(point_clouds())
def test_disk_edges_match_all_pairs(cloud):
    points, radius = cloud
    assert _disk_edges(points, radius) == all_pairs_disk_edges(points, radius)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 3, 10, 37, 300, 1000])
def test_disk_edges_match_all_pairs_uniform(n, seed):
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    radius = 1.3 * np.sqrt(np.log(max(n, 2)) / (np.pi * n))
    assert _disk_edges(points, radius) == all_pairs_disk_edges(points, radius)


@pytest.mark.parametrize("m", [2, 3, 5, 7, 10, 16])
def test_radius_one_over_m_on_lattice(m):
    # every lattice point sits on a cell border, and neighbours are
    # ``radius`` apart up to rounding (exactly, for powers of two)
    axis = np.arange(m + 1) / m
    points = np.array([(x, y) for x in axis for y in axis])
    edges = _disk_edges(points, 1.0 / m)
    assert edges == all_pairs_disk_edges(points, 1.0 / m)
    if m & (m - 1) == 0:
        assert len(edges) == 2 * m * (m + 1)


@pytest.mark.parametrize("radius", [1e-6, 1e-300])
def test_tiny_radius_keeps_the_cell_grid_small(radius):
    points = np.random.default_rng(0).random((30, 2))
    points[10:20] = points[:10]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflowing cell index
        edges = _disk_edges(points, radius)
    assert edges == [(i, i + 10) for i in range(10)]
    with pytest.raises(TopologyError, match="connected"):
        random_geometric(30, radius=1e-6, seed=0, max_attempts=3)


def test_duplicates_and_single_point():
    assert _disk_edges(np.array([[0.5, 0.5]]), 0.1) == []
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    assert _disk_edges(points, 1e-6) == [(0, 2), (1, 3)]
    assert _disk_edges(points, 2.0) == all_pairs_disk_edges(points, 2.0)


# ----------------------------------------------------------------------
# Exact diameter
# ----------------------------------------------------------------------

@st.composite
def graphs(draw, max_n=90):
    n = draw(st.integers(1, max_n))
    p = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return n, list(zip(*(a.tolist() for a in np.nonzero(upper))))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_diameter_matches_eccentricity_sweep(graph):
    n, edges = graph
    net = RadioNetwork(edges, n=n, require_connected=False)
    assert net.diameter == eccentricity_oracle(net)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=200))
def test_diameter_matches_eccentricity_sweep_one_word_chunks(graph):
    n, edges = graph
    saved = network_module._SWEEP_BYTES
    network_module._SWEEP_BYTES = 1  # one 64-source word per chunk
    try:
        net = RadioNetwork(edges, n=n, require_connected=False)
        assert net.diameter == eccentricity_oracle(net)
    finally:
        network_module._SWEEP_BYTES = saved


@pytest.mark.parametrize("seed", range(5))
def test_connected_random_geometric(seed):
    net = random_geometric(150, seed=seed)
    assert net.diameter == eccentricity_oracle(net)


@pytest.mark.parametrize("n", [1, 63, 64, 65])
def test_word_boundaries(n):
    # a path and a star on n nodes, rebuilt without a hint
    path = RadioNetwork([(i, i + 1) for i in range(n - 1)], n=n)
    assert path.diameter == max(1, n - 1) == eccentricity_oracle(path)
    star = RadioNetwork([(0, i) for i in range(1, n)], n=n)
    assert star.diameter == eccentricity_oracle(star)


def test_disconnected_components():
    # a 5-path, a triangle and two isolated nodes (one of them last)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (6, 7), (7, 8), (6, 8)]
    net = RadioNetwork(edges, n=10, require_connected=False)
    assert net.diameter == 4 == eccentricity_oracle(net)
    lone = RadioNetwork([], n=3, require_connected=False)
    assert lone.diameter == 1 == eccentricity_oracle(lone)


def test_more_than_one_source_chunk():
    hinted = torus(70, 70)
    net = RadioNetwork(hinted.edge_list(), n=hinted.n)
    indices = net.csr_adjacency()[1]
    chunk = network_module._SWEEP_BYTES // (8 * (net.n + indices.size))
    assert (net.n + 63) // 64 > chunk  # the sweep runs several chunks
    assert net.diameter == hinted.diameter == 70


@pytest.mark.parametrize("spine,legs", [(1, 0), (1, 5), (60, 0), (120, 2)])
def test_large_diameter_unhinted(spine, legs):
    net = caterpillar(spine, legs)
    assert net.diameter == eccentricity_oracle(net)
    assert net.diameter == max(1, spine - 1 + 2 * min(legs, 1))
