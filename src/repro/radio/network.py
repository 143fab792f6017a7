"""The radio network: an undirected graph plus the collision-reception rule.

A :class:`RadioNetwork` is immutable once constructed.  Its central method is
:meth:`RadioNetwork.resolve_round`, the model's reception semantics for the
whole library, resolved by one kernel (the CSR gather behind
:meth:`RadioNetwork.resolve_round_vector`) with the ``"reference"``
engine's neighbor scan as its oracle:

    a node receives a message in a round iff exactly one of its neighbors
    transmits in that round, and the node itself is not transmitting.

Everything else (diameter, BFS layers, degree statistics) is supporting
machinery used by protocols and by the experiment harness.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.radio.errors import TopologyError

#: The interchangeable implementations of the reception rule / protocol
#: execution.  Every engine runs the same stage drivers.  ``"reference"``
#: resolves dict rounds with the original per-transmitter neighbor scan
#: (the oracle); ``"fast"`` with the CSR gather of
#: :meth:`RadioNetwork.resolve_round_vector`.  Those two produce
#: bit-identical results — same receivers, same messages, same
#: (ascending) dict order — which the differential harness
#: (:mod:`repro.testing.differential`) verifies digest-exactly.
#: ``"columnar"`` resolves dict rounds like ``"fast"``; in addition, a
#: bare columnar network runs the array-native vector path (see
#: :func:`runs_vector_path`), dissemination draws its Decay coins once
#: per epoch, and a flood stops simulating once saturated.
#: Those legitimately reorder RNG streams, so it is gated by
#: semantic-equivalence oracles (:mod:`repro.testing.semantic`) instead
#: of transcript digests.
ENGINES = ("fast", "reference", "columnar")

_default_engine = "fast"

#: Working-set target of the diameter sweep's gather, in bytes.
_SWEEP_BYTES = 1 << 23


def set_default_engine(name: str) -> None:
    """Set the engine newly constructed networks use (see :data:`ENGINES`)."""
    global _default_engine
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
    _default_engine = name


def get_default_engine() -> str:
    """The engine newly constructed networks resolve rounds with."""
    return _default_engine


def runs_vector_path(network) -> bool:
    """Whether a stage driver may run ``network`` on the array-native
    :meth:`RadioNetwork.resolve_round_vector` path.

    Only a bare columnar :class:`RadioNetwork` qualifies.  Anything
    overriding ``resolve_round`` (fault layers, SINR physics) needs real
    per-round dicts.  A trace does not matter: the vector path reports
    each resolved slot to it as the dict loop does.  This is a function,
    not a method: the proxy wrappers forward unknown attributes to the
    wrapped base, which would answer for them.
    """
    return (
        isinstance(network, RadioNetwork)
        and type(network).resolve_round is RadioNetwork.resolve_round
        and network.engine == "columnar"
    )


class RadioNetwork:
    """An undirected multi-hop radio network on nodes ``0 .. n-1``.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs.  Each edge is undirected; duplicates
        are tolerated and collapsed.  Self-loops are rejected.
    n:
        Number of nodes.  If omitted, inferred as ``max node id + 1``.
    require_connected:
        When true (the default) the constructor raises
        :class:`TopologyError` for a disconnected graph.  The paper's model
        assumes connectivity (otherwise broadcast is impossible).
    name:
        Optional human-readable label used in reports.
    engine:
        Protocol/reception engine: one of :data:`ENGINES`
        (``"fast"``, ``"reference"``, ``"columnar"``).  Defaults to the
        module default (:func:`get_default_engine`).  ``fast`` and
        ``reference`` are bit-for-bit equivalent; ``columnar`` resolves
        dict rounds identically to ``fast`` but additionally enables the
        vector path and batched draws (see :data:`ENGINES`).
    diameter_hint:
        Optional exact diameter, when the caller knows it in closed form
        (topology generators do for lines, rings, grids, tori,
        hypercubes, …).  Seeds the :attr:`diameter` cache so that
        columnar-scale networks skip the all-sources BFS sweep
        (O(D·(n+m)·n/64) word operations).  Must be exact — round
        budgets derive from it.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[int, int]],
        n: Optional[int] = None,
        require_connected: bool = True,
        name: str = "",
        engine: Optional[str] = None,
        diameter_hint: Optional[int] = None,
    ):
        adjacency: Dict[int, set] = {}
        max_id = -1
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            if u < 0 or v < 0:
                raise TopologyError(f"negative node id in edge ({u}, {v})")
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
            max_id = max(max_id, u, v)

        if n is None:
            n = max_id + 1
        if n <= 0:
            raise TopologyError("network must have at least one node")
        if max_id >= n:
            raise TopologyError(f"edge references node {max_id} but n={n}")

        self._n = n
        self._name = name or f"network(n={n})"
        self._neighbors: List[np.ndarray] = [
            np.array(sorted(adjacency.get(v, ())), dtype=np.int64) for v in range(n)
        ]
        self._degrees = np.array([len(a) for a in self._neighbors], dtype=np.int64)
        self._num_edges = int(self._degrees.sum()) // 2
        self._diameter: Optional[int] = None
        if diameter_hint is not None:
            if diameter_hint < 1:
                raise TopologyError(
                    f"diameter_hint must be >= 1, got {diameter_hint}"
                )
            self._diameter = int(diameter_hint)
        self._engine = engine if engine is not None else _default_engine
        if self._engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self._engine!r}; expected one of {ENGINES}"
            )
        # CSR adjacency (indptr, indices) for the reception kernel;
        # memory is O(n + m) so it scales to n=10^5-10^6.  Built lazily
        # on first use.
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

        if require_connected and n > 1 and not self.is_connected():
            raise TopologyError(f"{self._name} is disconnected")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def engine(self) -> str:
        """Which reception-resolution implementation this network uses."""
        return self._engine

    def set_engine(self, name: str) -> None:
        """Switch to another engine from :data:`ENGINES`.

        Switching between ``fast`` and ``reference`` is safe at any point
        — the two are bit-for-bit equivalent, so switching mid-run never
        changes an execution.  Switching ``columnar`` on/off mid-run is
        well-defined but changes which RNG draw order subsequent stages
        use.
        """
        if name not in ENGINES:
            raise ValueError(
                f"unknown engine {name!r}; expected one of {ENGINES}"
            )
        self._engine = name

    def set_diameter_hint(self, diameter: int) -> None:
        """Seed the :attr:`diameter` cache with a known-exact value."""
        if diameter < 1:
            raise TopologyError(f"diameter_hint must be >= 1, got {diameter}")
        self._diameter = int(diameter)

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def max_degree(self) -> int:
        """The paper's Δ. By convention at least 1 (so log Δ terms are sane)."""
        return max(1, int(self._degrees.max()))

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted array of neighbors of ``v`` (do not mutate)."""
        return self._neighbors[v]

    def has_edge(self, u: int, v: int) -> bool:
        arr = self._neighbors[u]
        i = int(np.searchsorted(arr, v))
        return i < len(arr) and arr[i] == v

    def edge_list(self) -> List[Tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return [
            (u, int(v))
            for u in range(self._n)
            for v in self._neighbors[u]
            if u < v
        ]

    def nodes(self) -> range:
        return range(self._n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RadioNetwork({self._name!r}, n={self._n}, m={self._num_edges}, "
            f"Δ={self.max_degree})"
        )

    # ------------------------------------------------------------------
    # Graph structure queries
    # ------------------------------------------------------------------

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distances from ``source``; unreachable nodes get -1.

        Runs a CSR frontier expansion (one vectorized gather per BFS
        level) rather than a per-node queue; hop distances are unique,
        so the result is identical to a scalar BFS.  ``diameter`` does
        not call it: it runs every source at once (see
        :meth:`_max_eccentricity`).
        """
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        indptr, indices = self.csr_adjacency()
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            cum = np.cumsum(counts)
            pos = np.arange(total, dtype=np.int64) + np.repeat(
                indptr[frontier] - (cum - counts), counts
            )
            nbrs = indices[pos]
            fresh = nbrs[dist[nbrs] < 0]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)
            level += 1
            dist[frontier] = level
        return dist

    def bfs_layers(self, source: int) -> List[List[int]]:
        """Nodes grouped by hop distance from ``source`` (layer 0 = source)."""
        dist = self.bfs_distances(source)
        depth = int(dist.max())
        layers: List[List[int]] = [[] for _ in range(depth + 1)]
        for v in range(self._n):
            if dist[v] >= 0:
                layers[int(dist[v])].append(v)
        return layers

    def bfs_tree(self, source: int) -> List[int]:
        """A canonical BFS tree: ``parent[v]`` for each node, -1 at the root.

        Used as ground truth when validating the *distributed* BFS protocol;
        the distributed tree need not equal this one, but distances must.
        """
        parent = np.full(self._n, -1, dtype=np.int64)
        seen = np.zeros(self._n, dtype=bool)
        seen[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    queue.append(int(v))
        return [int(p) for p in parent]

    def is_connected(self) -> bool:
        if self._n == 1:
            return True
        return bool((self.bfs_distances(0) >= 0).all())

    def eccentricity(self, v: int) -> int:
        return int(self.bfs_distances(v).max())

    @property
    def diameter(self) -> int:
        """Exact diameter (max eccentricity); computed once and cached.

        Without a hint it is the largest finite eccentricity, from one
        bit-parallel BFS sweep over all sources.  By the paper's
        convention D ≥ 1 even for a single node, so that phase counts
        and logarithms stay well defined.
        """
        if self._diameter is None:
            self._diameter = max(1, self._max_eccentricity())
        return self._diameter

    def _max_eccentricity(self) -> int:
        """Largest finite eccentricity, by a BFS from every node at once.

        A bit-parallel sweep: ``reach[v]`` holds one bit per source,
        set once the source reaches ``v``; each level ORs every node's
        row with its neighbours' rows (one CSR gather and segmented
        OR).  The number of levels that change some row is the largest
        eccentricity over the sources, unreachable pairs ignored, as
        ``max(eccentricity(v))`` reads it.  Sources go in chunks of
        64-bit words sized so the gathered rows stay near
        :data:`_SWEEP_BYTES` whatever n and m are.
        """
        indptr, indices = self.csr_adjacency()
        n, words = self._n, (self._n + 63) // 64
        # reduceat segments: one per node with neighbours
        active = np.flatnonzero(np.diff(indptr))
        starts = indptr[active]
        chunk = max(1, _SWEEP_BYTES // (8 * (n + indices.size)))
        ecc = 0
        for w0 in range(0, words, chunk):
            sources = np.arange(64 * w0, min(n, 64 * (w0 + chunk)))
            reach = np.zeros((n, min(chunk, words - w0)), dtype=np.uint64)
            reach[sources, sources // 64 - w0] = (
                np.uint64(1) << (sources % 64).astype(np.uint64))
            levels = 0
            while True:
                heard = reach.copy()
                heard[active] |= np.bitwise_or.reduceat(reach[indices], starts)
                if np.array_equal(heard, reach):
                    break
                reach = heard
                levels += 1
            ecc = max(ecc, levels)
        return ecc

    # ------------------------------------------------------------------
    # The reception rule
    # ------------------------------------------------------------------

    def resolve_round(self, transmissions: Mapping[int, object]) -> Dict[int, object]:
        """Apply one synchronous round of the radio model.

        Parameters
        ----------
        transmissions:
            Mapping ``transmitter -> message`` for every node transmitting
            this round.  Messages are opaque to the model.

        Returns
        -------
        dict
            ``receiver -> message`` for every node that successfully
            receives: exactly one of its neighbors transmitted, and it did
            not itself transmit (radios are half-duplex).

        Notes
        -----
        This is the single authoritative statement of the model's
        interference semantics; all protocol engines route through it.
        The ``"reference"`` engine answers with the per-transmitter
        neighbor scan, kept as the oracle; every other engine hands the
        transmitter ids to the CSR gather behind
        :meth:`resolve_round_vector` and builds the dict from its
        ``(receivers, senders)``.  Both uphold the same contract, which
        downstream layers rely on:

        **Receivers are returned in ascending node order.**  The fault
        layers (:class:`repro.radio.faults.FaultyRadioNetwork`,
        :class:`repro.resilience.network.DynamicFaultNetwork`) draw one
        random number per delivered reception while iterating this dict,
        so the iteration order is part of the seeded-reproducibility
        contract — any resolver that returned the same *set* in a
        different *order* would silently perturb every downstream RNG
        stream.  ``tests/test_rng_stream_order.py`` pins this with a
        digest regression test.
        """
        if self._engine == "reference":
            return self._resolve_round_reference(transmissions)
        if not transmissions:
            return {}
        receivers, senders = self._gather_receptions(np.fromiter(
            transmissions.keys(), dtype=np.int64, count=len(transmissions)
        ))
        return dict(zip(
            receivers.tolist(),
            map(transmissions.__getitem__, senders.tolist()),
        ))

    def _resolve_round_reference(
        self, transmissions: Mapping[int, object]
    ) -> Dict[int, object]:
        """Per-transmitter neighbor scan (the original implementation)."""
        if not transmissions:
            return {}

        if len(transmissions) == 1:
            # Fast path for the overwhelmingly common case (Decay rounds
            # mostly have 0-2 transmitters): a lone transmitter reaches
            # exactly its neighborhood (sorted, hence ascending order).
            ((tx, message),) = transmissions.items()
            return {int(v): message for v in self._neighbors[tx]}

        # reach_count[v] = number of transmitting neighbors of v
        reach_count = np.zeros(self._n, dtype=np.int64)
        sender_of = np.full(self._n, -1, dtype=np.int64)
        for tx in transmissions:
            nbrs = self._neighbors[tx]
            reach_count[nbrs] += 1
            sender_of[nbrs] = tx

        received: Dict[int, object] = {}
        hearers = np.nonzero(reach_count == 1)[0]  # ascending
        for v in hearers:
            v = int(v)
            if v in transmissions:
                continue  # half-duplex: a transmitter cannot receive
            received[v] = transmissions[int(sender_of[v])]
        return received

    # ------------------------------------------------------------------
    # Columnar (array-in / array-out) reception
    # ------------------------------------------------------------------

    def csr_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, indices)`` (built once, then cached).

        ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor list of
        ``v``.  Memory is O(n + m), so it is safe at columnar scale
        (n=10^5-10^6).  Do not mutate.
        """
        if self._csr is None:
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            if self._num_edges:
                indices = np.concatenate(self._neighbors)
            else:
                indices = np.zeros(0, dtype=np.int64)
            self._csr = (indptr, indices)
        return self._csr

    def resolve_round_vector(
        self, tx_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array-native reception: who hears whom, with no dict round-trip.

        Parameters
        ----------
        tx_ids:
            int64 array of transmitting node ids (any order, no
            duplicates).

        Returns
        -------
        (receivers, senders):
            ``receivers`` is the ascending int64 array of nodes that
            successfully receive this round (exactly one transmitting
            neighbor, not themselves transmitting); ``senders[i]`` is the
            unique transmitting neighbor heard by ``receivers[i]``.

        This is the reception kernel: :meth:`resolve_round` runs every
        non-reference dict round through the same O(n + work) CSR
        gather, so the two agree on receivers, senders and order by
        construction.  This entry point lets the columnar stage drivers
        batch whole rounds without materializing per-node message
        dicts.
        """
        return self._gather_receptions(np.asarray(tx_ids, dtype=np.int64))

    def _gather_receptions(
        self, tx_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR gather behind :meth:`resolve_round_vector` and the
        non-reference :meth:`resolve_round` (``tx_ids`` is int64).

        Dict rounds call it by this name, so a wrapper around
        :meth:`resolve_round_vector` (a profiler, say) sees array-path
        rounds only.
        """
        n = self._n
        if tx_ids.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        indptr, indices = self.csr_adjacency()
        counts = self._degrees[tx_ids]
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        # Gather all transmitters' neighbor lists in one vector pass:
        # positions indptr[t] .. indptr[t]+deg(t) for each t, flattened.
        starts = indptr[tx_ids]
        cum = np.cumsum(counts)
        pos = np.arange(total, dtype=np.int64)
        pos += np.repeat(starts - (cum - counts), counts)
        all_nbrs = indices[pos]
        reach = np.bincount(all_nbrs, minlength=n)
        reach[tx_ids] = 0  # half-duplex: transmitters never receive
        sender_of = np.zeros(n, dtype=np.int64)
        sender_of[all_nbrs] = np.repeat(tx_ids, counts)
        receivers = np.flatnonzero(reach == 1)
        return receivers, sender_of[receivers]

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Sequence[Sequence[int]],
        require_connected: bool = True,
        name: str = "",
    ) -> "RadioNetwork":
        """Build from an adjacency-list representation."""
        edges = [
            (u, v)
            for u, nbrs in enumerate(adjacency)
            for v in nbrs
            if u < v
        ]
        return cls(edges, n=len(adjacency), require_connected=require_connected, name=name)
