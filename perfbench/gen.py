"""Seeded inputs for the perfbench workloads.

Self-contained on purpose: it uses stdlib ``random`` and its own short-form
graph6 writer, never dspread, so a library change cannot change the inputs.
The same (workload, seed) always gives byte-identical input files.

Every workload's inputs are split into chunk files; one CLI job reads one
chunk. The chunks of a workload share one shape (the same orders and the
same mix of densities), so their jobs cost about the same and the median job
time does not depend on where a run stops. One pass over all chunks is the
full input set the workload is defined by.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

ALPHA_GRID = "0,0.1,0.25,0.5,0.75,0.9,1"
ALPHAS = tuple(float(a) for a in ALPHA_GRID.split(","))

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "sweep-small": "500 graphs of order 3..12 swept over 7 alphas: per-call "
    "cost of small eigensolves and 59,500 bound reports",
    "analyze-n62": "6 graphs of order 56..62 analysed over 7 alphas: O(n^3) "
    "eigensolves of large n, no bound registry",
    "bounds-mid": "24 graphs of order 16..40 through the registry, rendered: "
    "clique search, duplicate CLI work and 1.1 MB of JSON",
}
WORKLOADS = tuple(WHY)

SWEEP_DENSITIES = (0.3, 0.5, 0.8)
ANALYZE_ORDERS = (56, 62)
ANALYZE_DENSITIES = (0.08, 0.2, 0.5)
BOUNDS_ORDERS = (16, 28, 40)
BOUNDS_DENSITIES = (0.15, 0.3, 0.5)


def random_connected(rng: random.Random, n: int, p: float, max_tries: int = 100_000):
    """Erdos-Renyi G(n, p) conditioned on connectivity, by rejection."""
    for _ in range(max_tries):
        edges = [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p]
        if _connected(n, edges):
            return edges
    raise RuntimeError(f"no connected G({n}, {p}) in {max_tries} tries")


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


def encode_graph6(n: int, edges) -> str:
    """Short-form graph6 (n <= 62): upper triangle column by column, 6 bits a byte."""
    if not 1 <= n <= 62:
        raise ValueError(f"short-form graph6 needs 1 <= n <= 62, got {n}")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(u, v) in present for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    data = [63 + n]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        data.append(63 + val)
    return bytes(data).decode("ascii")


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of encode_graph6, for the output checks."""
    data = line.strip().encode("ascii")
    n = data[0] - 63
    edges, bit = [], 0
    for v in range(1, n):
        for u in range(v):
            if ((data[1 + bit // 6] - 63) >> (5 - bit % 6)) & 1:
                edges.append((u, v))
            bit += 1
    return n, edges


def _shapes(workload: str) -> list[list[tuple[int, float]]]:
    """(order, density) of every graph, grouped by chunk."""
    if workload == "sweep-small":
        # criterion-4 shape: orders cycle 3..12 inside blocks of ten, the
        # density changes per block; chunk c takes blocks c, c+10, ..., c+40
        return [
            [(3 + i, SWEEP_DENSITIES[b % 3]) for b in range(c, 50, 10) for i in range(10)]
            for c in range(10)
        ]
    if workload == "analyze-n62":
        return [
            [(n, ANALYZE_DENSITIES[(k + c) % 3]) for k, n in enumerate(ANALYZE_ORDERS)]
            for c in range(3)
        ]
    if workload == "bounds-mid":
        return [
            [(n, BOUNDS_DENSITIES[(k + c) % 3]) for k, n in enumerate(BOUNDS_ORDERS)]
            for c in range(8)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _argv(workload: str, path: str) -> list[str]:
    if workload == "sweep-small":
        return ["sweep", "--corpus", path, "--alphas", ALPHA_GRID]
    if workload == "analyze-n62":
        return ["analyze", path, "--alpha-grid", ALPHA_GRID]
    # `bounds` has no alpha option for a grid; its default is the same grid
    return ["bounds", path]


def _job(workload: str, path: Path, lines: list[str]) -> dict:
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    argv = _argv(workload, str(path))
    return {
        "command": argv[0],
        "argv": argv,
        "graphs": lines,
        "pairs": len(lines) * len(ALPHAS),
    }


def make_jobs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's chunk files under directory and describe the jobs.

    Returns {"jobs": [...], "warmup": job, "inputs": {file name: sha256}}.
    Each job holds the CLI argv, the graph6 lines it reads and its
    (graph, alpha) pair count.
    """
    rng = random.Random(f"{workload}/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for c, shapes in enumerate(_shapes(workload)):
        lines = [encode_graph6(n, random_connected(rng, n, p)) for n, p in shapes]
        jobs.append(_job(workload, directory / f"chunk{c:02d}.g6", lines))
    # a 5-cycle through the same command path, so lazy set-up is not timed
    warmup = _job(workload, directory / "warmup.g6",
                  [encode_graph6(5, [(i, (i + 1) % 5) for i in range(5)])])
    inputs = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.glob("*.g6"))
    }
    return {"jobs": jobs, "warmup": warmup, "inputs": inputs}
