#!/usr/bin/env python3
"""Regenerate the shipped exhaustive connected-bipartite corpora (n = 3..6).

Method: enumerate every labeled graph on n vertices as an edge bitmask
(2^C(n,2) of them), keep the connected bipartite ones, and deduplicate up to
isomorphism by the minimum bitmask over all vertex permutations. Each class
representative is re-encoded in graph6. Expected class counts: 1, 3, 5, 17
for n = 3, 4, 5, 6.

Run from the repository root:  python3 scripts/gen_bipartite_corpora.py
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dspread.graphs import Graph, distance_profile, encode_graph6, is_bipartite, is_connected

EXPECTED = {3: 1, 4: 3, 5: 5, 6: 17}
OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "dspread" / "data"


def pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: i for i, pair in enumerate(combinations(range(n), 2))}


def mask_to_graph(n: int, mask: int, pairs: list[tuple[int, int]]) -> Graph:
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def canonical_mask(n: int, mask: int, pairs, index) -> int:
    best = None
    edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    for perm in permutations(range(n)):
        m = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            m |= 1 << index[(a, b) if a < b else (b, a)]
        if best is None or m < best:
            best = m
    return best


def generate_order(n: int) -> list[str]:
    pairs = list(combinations(range(n), 2))
    index = pair_index(n)
    seen: set[int] = set()
    reps: list[tuple[int, str]] = []
    for mask in range(1 << len(pairs)):
        g = mask_to_graph(n, mask, pairs)
        if not is_connected(g) or is_bipartite(g, distance_profile(g)) is None:
            continue
        canon = canonical_mask(n, mask, pairs, index)
        if canon in seen:
            continue
        seen.add(canon)
        rep = mask_to_graph(n, canon, pairs)
        reps.append((rep.edge_count, encode_graph6(rep)))
    reps.sort()
    return [g6 for _, g6 in reps]


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for n, expected in EXPECTED.items():
        lines = generate_order(n)
        if len(lines) != expected:
            raise SystemExit(f"n={n}: got {len(lines)} classes, expected {expected}")
        path = OUT_DIR / f"bipartite_connected_n{n}.g6"
        header = [
            f"# All connected bipartite graphs on {n} vertices, one graph6 line each.",
            "# Exhaustive: every labeled graph enumerated, filtered for connectivity",
            "# and bipartiteness, deduplicated by minimum edge-bitmask over all",
            f"# vertex permutations ({len(lines)} isomorphism classes).",
            "# Regenerate with scripts/gen_bipartite_corpora.py.",
        ]
        path.write_text("\n".join(header + lines) + "\n", encoding="ascii")
        print(f"wrote {path} ({len(lines)} graphs)")


if __name__ == "__main__":
    main()
