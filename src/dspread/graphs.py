"""Simple undirected graphs and their distance-derived statistics.

Graphs are immutable once constructed (vertex count plus a normalized edge
set; adjacency lists and bitmasks are cached on first use); everything
derived from shortest-path distances is computed once into a
DistanceProfile. All functions here are pure.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np


class InputError(ValueError):
    """Input from outside the program that cannot be used (CLI exit 2)."""


class GraphParseError(InputError):
    """Malformed textual graph input. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as (u, v) tuples with u < v; no self-loops, no
    duplicates, every endpoint < n.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered endpoint pairs (normalized, deduplicated)."""
        return cls(n=n, edges=frozenset((u, v) if u < v else (v, u) for u, v in pairs))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The neighbours of each vertex as a bitmask, for the clique searches."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def graph6(self) -> str:
        """encode_graph6(self); parse_graph6 sets it to the line it read, the same text."""
        return encode_graph6(self)


@dataclass(eq=False)
class DistanceProfile:
    """All shortest-path distances of a connected graph plus derived scalars.

    dist[i, j] is the BFS distance, tr the transmissions (row sums), wiener
    the sum of distances over unordered pairs, closed_tr[i] the transmission
    sum over the closed neighbourhood of vertex i, degree[i] its degree and
    dist_sq_sum the sum of all dist[i, j]**2.
    """

    dist: np.ndarray
    tr: np.ndarray
    wiener: int
    diameter: int
    closed_tr: np.ndarray
    degree: np.ndarray
    dist_sq_sum: int


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from source to every vertex; -1 where unreachable."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    return all(d >= 0 for d in bfs_distances(g, 0))


# Distances come from matrix products when (levels + 1) * n**3 multiply-adds
# are at most this many times the n * (n + 2m) steps of per-vertex BFS.
_MULADDS_PER_BFS_STEP = 2000
# An order shares the padded product loop of a larger one when its padding
# costs at most this many multiply-adds a level, about what a loop of its own
# costs: timed on G(n, p) blocks of two orders, n = 3..64, the shared loop
# won below 25,000, was even up to 100,000 and lost from 140,000.
_MULADDS_PER_LOOP = 50_000


def distance_profile(g: Graph) -> DistanceProfile:
    """distance_profiles([g]) of a connected graph; a disconnected one raises
    ValueError("requires connected graph"), so callers need not check."""
    [profile] = distance_profiles([g])
    if profile is None:
        raise ValueError("requires connected graph")
    return profile


def distance_profiles(graphs: Sequence[Graph]) -> list[Optional[DistanceProfile]]:
    """The distance profile of each graph, None for a disconnected one.

    Each distance matrix comes from whichever of two methods costs less:

    - matrix products (_reach_distances): every source advances one BFS
      level per float32 product in BLAS, about (levels + 1) * n**3
      multiply-adds. The graphs of one order that take them share one loop
      of batched products on their (G, n, n) stack, which also finds the
      disconnected ones. An order n joins the loop of the largest order N
      of its band, the orders with one (n - 1).bit_length() (1, 2, 3-4,
      5-8, 9-16, ...), when padding its count graphs to order N,
      count * (N**3 - n**3) multiply-adds a level, costs at most
      _MULADDS_PER_LOOP = 50,000; the padding is isolated vertices, which
      no profile reads;
    - per-vertex BFS: one Python BFS from each vertex, about n * (n + 2m)
      interpreter steps, written row by row.

    Products are chosen when their multiply-adds are at most
    _MULADDS_PER_BFS_STEP = 2000 times the BFS steps: where the two methods
    crossed over when timed on paths, cycles, grids, a path joined to a
    clique and G(n, p), n = 20..500, with OpenBLAS on 2 cores (from 1,300 on
    cycles to 2,500 on grids). The level estimate is at most 2 * ecc(0) <=
    2n - 2, so a graph with (2n - 1) * n**2 <= 2000 * (n + 2m), such as any
    connected graph of order <= 54, takes the products without any BFS.
    Any other graph runs a BFS from vertex 0, which finds it disconnected or
    gives ecc(0), and a second one from a vertex at distance ecc(0) (a
    double sweep), whose eccentricity is the level estimate: at most the
    diameter, and equal to it on paths, cycles and grids. So `cycle:100`
    and the 5 x 32 grid take the products, `path:100` and `cycle:200`
    per-vertex BFS, which reuses both rows.

    Distances, transmissions, closed-neighbourhood transmission sums,
    degrees and the Wiener index are exact integers.
    """
    profiles: list[Optional[DistanceProfile]] = [None] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        n, steps = g.n, _MULADDS_PER_BFS_STEP * (g.n + 2 * len(g.edges))
        if (2 * n - 1) * n * n > steps:
            row0 = bfs_distances(g, 0)
            if min(row0) < 0:
                continue
            far = row0.index(max(row0))
            row = bfs_distances(g, far)
            if (max(row) + 1) * n * n > steps:
                dist = np.empty((1, n, n), dtype=np.int64)
                for v in range(n):
                    dist[0, v] = row0 if v == 0 else row if v == far else bfs_distances(g, v)
                profiles[i] = _profiles([g], dist)[0]
                continue
        by_order.setdefault(n, []).append(i)
    top = {(n - 1).bit_length(): n for n in sorted(by_order)}
    loops: dict[int, list[int]] = {}
    for n, idx in by_order.items():
        big = top[(n - 1).bit_length()]
        loops.setdefault(big if len(idx) * (big ** 3 - n ** 3) <= _MULADDS_PER_LOOP else n,
                         []).extend(idx)
    for idx in loops.values():
        for i, profile in zip(idx, _profiles([graphs[i] for i in idx], None)):
            profiles[i] = profile
    return profiles


def _profiles(group: list[Graph], dist: Optional[np.ndarray]) -> list[Optional[DistanceProfile]]:
    """The profiles of a group of graphs from their (G, n, n) distance stack,
    n the largest order, or, where dist is None, from matrix products; the
    zero padding past a graph's order is in no sum and no profile."""
    count, orders = len(group), [g.n for g in group]
    n = max(orders)
    # every edge in both directions, vertex v of graph k numbered k * n + v:
    # vertex src[e] is adjacent to dst[e]
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in group)),
                       dtype=np.intp).reshape(-1, 2)
    ends += np.repeat(np.arange(count) * n, [len(g.edges) for g in group])[:, None]
    src, dst = ends.ravel(), ends[:, ::-1].ravel()
    # outputs before stacks and no allocation in the product loop: the freed
    # stacks then leave no holes under live arrays in the C heap (20 MB at n = 200)
    degree = np.bincount(src, minlength=count * n).reshape(count, n)
    tr, closed = np.empty((count, n), dtype=np.int64), np.empty((count, n), dtype=np.int64)
    connected = np.ones(count, dtype=bool)
    if dist is None:
        dist, connected = _reach_distances(orders, src, dst)
    dist.sum(axis=2, out=tr)
    sq = np.einsum("kij,kij->k", dist, dist).tolist()
    # the neighbours' transmission sums are integers below 2**53, exact in float64
    nbr_tr = np.bincount(src, weights=tr.ravel()[dst], minlength=count * n)
    np.add(tr, nbr_tr.reshape(count, n), out=closed, casting="unsafe")
    wiener, diameter = (tr.sum(axis=1) // 2).tolist(), dist.max(axis=(1, 2)).tolist()
    # one view per order of the group, so each profile takes plain rows
    cut = {m: (dist[:, :m, :m], tr[:, :m], closed[:, :m], degree[:, :m]) for m in set(orders)}
    return [DistanceProfile(d[k], t[k], wiener[k], diameter[k], s[k], g[k], sq[k])
            if connected[k] else None for k, (d, t, s, g) in enumerate(map(cut.get, orders))]


def _reach_distances(orders: list[int], src, dst) -> tuple[np.ndarray, np.ndarray]:
    """The (count, n, n) distance stack of graphs of the given orders, n the
    largest, by BFS from all sources of all graphs at once, and which graphs
    are connected. Vertices past a graph's order are isolated padding with
    no identity entry: nothing reaches them, their distances are 0, and the
    counts below read real vertices only.

    reach[k, s, v] is 1 once v lies within the current level of s in graph
    k. One batched product with the adjacency plus the identity advances
    every source one level (its float32 counts, at most n, are exact), and
    dist[k, s, v] counts the levels at which v was still unreached from s;
    it means nothing in a disconnected graph. The loop stops once every
    vertex is reached or once a product reaches no new vertex, so it runs
    at most n - 1 products.
    """
    count, n, padded = len(orders), max(orders), min(orders) < max(orders)
    real = np.arange(n) < np.array(orders)[:, None] if padded else True
    step = np.zeros((count, n, n), dtype=np.float32)
    step.reshape(count * n, n)[src, dst % n] = 1
    idx = np.arange(n)
    step[:, idx, idx] = real
    # level 0 is the identity, level 1 the step itself
    reached = np.broadcast_to(np.eye(n, dtype=np.float32), step.shape).copy()
    reach, spare, levels = step.copy(), np.empty_like(step), 1
    before, now, full = sum(orders), np.count_nonzero(step), sum(m * m for m in orders)
    while before < now < full:
        reached += reach
        np.matmul(reach, step, out=spare)
        reach, spare = np.minimum(spare, 1, out=spare), reach
        levels += 1
        before, now = now, np.count_nonzero(reach)
    dist = np.subtract(levels, reached, out=reached).astype(np.int64)
    if padded:  # distance 0 at every pair with a padding vertex
        dist *= real[:, :, None] & real[:, None, :]
    return dist, (reach[:, 0] >= real).all(axis=1)


def is_bipartite(g: Graph,
                 profile: DistanceProfile) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The even and the odd BFS levels from vertex 0 (profile.dist[0]) of a
    connected graph, or None if an edge joins two vertices of one level,
    which is exactly when the graph is not bipartite."""
    level = profile.dist[0].tolist()
    if any(level[u] == level[v] for u, v in g.edges):
        return None
    return (tuple(v for v in range(g.n) if level[v] % 2 == 0),
            tuple(v for v in range(g.n) if level[v] % 2))


# --- text formats ---------------------------------------------------------

_G6_HEADER = ">>graph6<<"


# largest order of the 4-byte long-form header; the 8-byte form is not read
_G6_MAX_ORDER = 258047
# the largest order and edge count of any input graph (graph6, family spec,
# --seed-random), read only by check_size; `analyze cycle:2000` peaks
# at 330 MiB, `analyze complete:1000` (499,500 edges) runs, K_2000 would hold 476 MB
MAX_FAMILY_ORDER = 2000
MAX_FAMILY_EDGES = 500_000
# the offsets within a graph6 byte (0 = most significant of its 6 bits) of
# the bits set in each value 0..63
_SET_BITS = tuple(tuple(i for i in range(6) if (val >> (5 - i)) & 1) for val in range(64))
# the number of those bits for each byte '?'..'~', 255 for any other byte
_G6_BIT_COUNTS = bytes(len(_SET_BITS[b - 63]) if 63 <= b <= 126 else 255 for b in range(256))


def check_size(what: str, n: int, m: int) -> None:
    """Raise InputError, naming the graph `what`, if it has more than MAX_FAMILY_ORDER
    vertices or MAX_FAMILY_EDGES edges; every input calls it before O(n^2) work. A count
    of more than 18 digits is shown as its first 6 digits and its number of digits."""
    for count, cap, text in ((n, MAX_FAMILY_ORDER, "order {} exceeds the cap of {} vertices"),
                             (m, MAX_FAMILY_EDGES, "{} edges exceeds the cap of {} edges")):
        if count > cap:  # no len(str(count)): str refuses over 4300 digits by default
            exp = int(math.log10(count))  # one too high or low where the float rounds
            exp += (10 ** (exp + 1) <= count) - (10 ** exp > count)
            shown = count if exp < 18 else f"{count // 10 ** (exp - 5)}... ({exp + 1} digits)"
            raise InputError(f"{what} of " + text.format(shown, cap))


def _g6_order(data: bytes) -> tuple[int, int]:
    """The vertex count of a graph6 header, its bytes in range, and the offset of the bit string.

    Short form: one byte 63 + n for n <= 62. Long form: '~' and three bytes
    holding n in 18 bits, most significant 6 first, for 63 <= n <= 258047.
    """
    first = data[0] - 63
    if first < 63:
        if first == 0:
            raise GraphParseError("graph of order 0 is not supported", offset=0)
        return first, 1
    if len(data) > 1 and data[1] == 126:
        raise GraphParseError(
            f"8-byte long-form graph6 (n > {_G6_MAX_ORDER}) is not supported", offset=1)
    if len(data) < 4:
        raise GraphParseError("truncated long-form graph6 header", offset=len(data))
    n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    if n == 0:
        raise GraphParseError("graph of order 0 is not supported", offset=1)
    if n <= 62:
        raise GraphParseError(f"long-form graph6 header for n = {n}, which needs the short form",
                              offset=1)
    return n, 4


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line (short form n <= 62, long form up to
    MAX_FAMILY_ORDER vertices) of at most MAX_FAMILY_EDGES edges.

    The format is McKay's printable encoding: the order n in a one-byte
    (63 + n) or a four-byte ('~' and 18 bits) header, then the upper
    triangle in column-major order packed 6 bits per byte (most significant
    bit first), padded with zero bits. Byte offsets in errors refer to the
    stripped line, which the graph keeps as its graph6. One translate pass
    finds the first byte outside '?'..'~' and counts the edges. A line is
    refused for, in this order, a bad byte, header, length or padding bits
    (GraphParseError), then by check_size (InputError), and only then decoded.
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise GraphParseError("empty graph6 input")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise GraphParseError("graph6 input is not ASCII") from None
    counts = data.translate(_G6_BIT_COUNTS)
    if (bad := counts.find(255)) >= 0:
        raise GraphParseError(f"character {s[bad]!r} outside graph6 range", offset=bad)
    n, start = _g6_order(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) < start + nbytes:
        raise GraphParseError(
            f"truncated bit string: need {nbytes} data bytes, found {len(data) - start}",
            offset=len(data),
        )
    if len(data) > start + nbytes:
        raise GraphParseError("trailing characters after bit string", offset=start + nbytes)
    if nbits % 6 and (data[-1] - 63) & ((1 << (6 - nbits % 6)) - 1):
        raise GraphParseError("nonzero padding bits", offset=len(data) - 1)
    check_size("graph", n, sum(counts[start:]))  # zero padding: the set bits are the edges
    edges = []
    u, v = 0, 1  # the pair of the first bit of the byte
    for byte in data[start:]:
        for bit in _SET_BITS[byte - 63]:
            a, b = u + bit, v
            while a >= b:
                a -= b
                b += 1
            edges.append((a, b))
        u += 6
        while u >= v:
            u -= v
            v += 1
    g = Graph.from_edges(n, edges)
    g.__dict__["graph6"] = s  # the graph6 cached_property, as encode_graph6 would give it
    return g


def encode_graph6(g: Graph) -> str:
    """Encode a graph as graph6, in the short form for n <= 62 and the
    long form for 63 <= n <= 258047."""
    n = g.n
    if n > _G6_MAX_ORDER:
        raise ValueError(f"graph6 supports at most {_G6_MAX_ORDER} vertices")
    out = [63 + n] if n <= 62 else [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    vals = [0] * ((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        bit = v * (v - 1) // 2 + u
        vals[bit // 6] |= 1 << (5 - bit % 6)
    out.extend(63 + x for x in vals)
    return bytes(out).decode("ascii")
