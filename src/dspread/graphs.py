"""Simple undirected graphs and their distance-derived statistics.

Graphs are immutable once constructed (vertex count plus a normalized edge
set; adjacency lists and bitmasks are cached on first use); everything
derived from shortest-path distances is computed once into a
DistanceProfile. All functions here are pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np


class GraphParseError(ValueError):
    """Malformed textual graph input. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DisconnectedGraphError(ValueError):
    """A distance-based quantity was asked of a disconnected graph."""


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
        norm = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        return cls(n=n, edges=frozenset(norm))

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

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges


@dataclass(eq=False)
class DistanceProfile:
    """All shortest-path distances of a connected graph plus derived scalars.

    dist[i, j] is the BFS distance, tr the transmissions (row sums), wiener
    the sum of distances over unordered pairs, and avg_dist_deg[i] the mean
    transmission over the neighbors of vertex i.
    """

    dist: np.ndarray
    tr: np.ndarray
    wiener: int
    diameter: int
    avg_dist_deg: np.ndarray

    @property
    def n(self) -> int:
        return len(self.tr)


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


# Distances come from matrix products when (2*ecc(0) + 1) * n**3 multiply-adds
# are at most this many times the n * (n + 2m) steps of per-vertex BFS.
_MULADDS_PER_BFS_STEP = 2000


def distance_profile(g: Graph) -> DistanceProfile:
    """All shortest-path distances and the statistics derived from them.

    One BFS from vertex 0 comes first. A disconnected graph raises
    DisconnectedGraphError (a ValueError) after it, so callers need no
    separate connectivity check. It also gives ecc(0), and the diameter,
    which is the number of BFS levels, is at most 2*ecc(0). The distance
    matrix then comes from whichever of two methods costs less:

    - matrix products (_reach_distances): every source advances one level
      per product of an n x n float32 matrix, at most (2*ecc(0) + 1) * n**3
      multiply-adds in BLAS;
    - per-vertex BFS: one Python BFS from each further vertex, about
      n * (n + 2m) interpreter steps, written row by row.

    Products are chosen when their multiply-adds are at most
    _MULADDS_PER_BFS_STEP = 2000 times the BFS steps. That is where the two
    methods crossed over when timed on paths, cycles, grids, a path joined
    to a clique and G(n, p), n = 20..500, with OpenBLAS on 2 cores: from
    about 1,300 (cycles) to 2,500 (grids). Dense and small graphs take the
    products, long paths and cycles (`path:62`, `cycle:200`) the BFS.

    Distances, transmissions and the Wiener index are exact integers.
    avg_dist_deg[i] is the sum of the transmissions of the neighbours of i
    over the degree of i. The sums are integers below 2**53, so they are
    exact in float64 and every quotient is correctly rounded.
    """
    n = g.n
    row0 = bfs_distances(g, 0)
    if min(row0) < 0:
        raise DisconnectedGraphError("requires connected graph")
    ends = np.array(tuple(g.edges), dtype=np.intp).reshape(-1, 2)
    # every edge in both directions: vertex src[k] is adjacent to dst[k]
    src, dst = ends.ravel(), ends[:, ::-1].ravel()
    if (2 * max(row0) + 1) * n * n <= _MULADDS_PER_BFS_STEP * (n + len(src)):
        dist = _reach_distances(n, src, dst)
    else:
        dist = np.empty((n, n), dtype=np.int64)
        dist[0] = row0
        for v in range(1, n):
            dist[v] = bfs_distances(g, v)
    tr = dist.sum(axis=1)
    nbr_tr = np.bincount(src, weights=tr[dst], minlength=n)
    avg = nbr_tr / np.maximum(np.bincount(src, minlength=n), 1)
    return DistanceProfile(
        dist=dist,
        tr=tr,
        wiener=int(tr.sum()) // 2,
        diameter=int(dist.max()),
        avg_dist_deg=avg,
    )


def _reach_distances(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Distance matrix of a connected graph by BFS from all sources at once.

    reach[s, v] is 1 once v lies within the current level of s. One product
    with the adjacency plus the identity advances every source one level
    (its float32 counts, at most n, are exact), and dist[s, v] counts the
    levels at which v was still unreached from s.
    """
    step = np.eye(n, dtype=np.float32)
    step[src, dst] = 1
    reach = np.eye(n, dtype=np.float32)
    reached = np.zeros((n, n), dtype=np.float32)
    levels = 0
    while not reach.all():
        reached += reach
        reach = np.sign(reach @ step)
        levels += 1
    return (levels - reached).astype(np.int64)


def is_transmission_regular(profile: DistanceProfile) -> Optional[int]:
    """Return the common transmission k if all vertices share it, else None.

    Transmissions are integers, so the comparison is exact.
    """
    tr = profile.tr
    k = int(tr[0])
    if np.all(tr == k):
        return k
    return None


def is_bipartite(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """2-color via BFS; return the two parts (vertex 0 in the first) or None."""
    color = [-1] * g.n
    adj = g.adjacency
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    part0 = tuple(v for v in range(g.n) if color[v] == 0)
    part1 = tuple(v for v in range(g.n) if color[v] == 1)
    return part0, part1


def remove_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    u, v = edge
    if u > v:
        u, v = v, u
    if (u, v) not in g.edges:
        raise ValueError(f"edge ({u}, {v}) not present")
    return Graph(n=g.n, edges=g.edges - {(u, v)})


def induced_paths(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield every induced 3-vertex path (u, v, w): uv, vw edges, uw a non-edge."""
    for v in range(g.n):
        nbrs = g.adjacency[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                u, w = nbrs[i], nbrs[j]
                if not g.has_edge(u, w):
                    yield u, v, w


# --- text formats ---------------------------------------------------------

_G6_HEADER = ">>graph6<<"


# largest order of the 4-byte long-form header; the 8-byte form is not read
_G6_MAX_ORDER = 258047
# the offsets within a graph6 byte (0 = most significant of its 6 bits) of
# the bits set in each value 0..63
_SET_BITS = tuple(tuple(i for i in range(6) if (val >> (5 - i)) & 1) for val in range(64))


def _g6_char(data: bytes, i: int) -> int:
    """The 6-bit value of data[i]; an error if it is not one of '?'..'~'."""
    val = data[i] - 63
    if val < 0 or val > 63:
        raise GraphParseError(f"character {chr(data[i])!r} outside graph6 range", offset=i)
    return val


def _g6_order(data: bytes) -> tuple[int, int]:
    """The vertex count of a graph6 header and the offset of the bit string.

    Short form: one byte 63 + n for n <= 62. Long form: '~' and three bytes
    holding n in 18 bits, most significant 6 first, for 63 <= n <= 258047.
    """
    first = _g6_char(data, 0)
    if first < 63:
        if first == 0:
            raise GraphParseError("graph of order 0 is not supported", offset=0)
        return first, 1
    if len(data) > 1 and data[1] == 126:
        raise GraphParseError(
            f"8-byte long-form graph6 (n > {_G6_MAX_ORDER}) is not supported", offset=1)
    if len(data) < 4:
        raise GraphParseError("truncated long-form graph6 header", offset=len(data))
    n = (_g6_char(data, 1) << 12) | (_g6_char(data, 2) << 6) | _g6_char(data, 3)
    if n <= 62:
        raise GraphParseError(f"long-form graph6 header for n = {n}, which needs the short form",
                              offset=1)
    return n, 4


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line (short form n <= 62, long form n <= 258047).

    The format is McKay's printable encoding: the order n in a one-byte
    (63 + n) or a four-byte ('~' and 18 bits) header, then the upper
    triangle in column-major order packed 6 bits per byte (most significant
    bit first), padded with zero bits. Byte offsets in errors refer to the
    stripped line.
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
    edges = []
    u, v = 0, 1  # the pair of the first bit of byte i
    for i in range(start, start + nbytes):
        val = _g6_char(data, i)
        for bit in _SET_BITS[val]:
            a, b = u + bit, v
            while a >= b:
                a -= b
                b += 1
            edges.append((a, b))
        u += 6
        while u >= v:
            u -= v
            v += 1
    # padding bits of the last byte must be zero
    if nbits % 6 and (data[-1] - 63) & ((1 << (6 - nbits % 6)) - 1):
        raise GraphParseError("nonzero padding bits", offset=len(data) - 1)
    return Graph.from_edges(n, edges)


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
