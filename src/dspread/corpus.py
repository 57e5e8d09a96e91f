"""Corpus sweeps: stress bounds over many graphs, probe the bipartite
minimum-spread conjecture, and generate reproducible random graphs.

A sweep works through blocks of graphs and merges the block summaries in
order. Merging is associative but not commutative: a tie between worst
margins keeps the first one merged, so summaries reproduce bit-exactly only
when they are merged in corpus order.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bounds import BLOCK_GRAPHS, BOUND_IDS, DEFAULT_TOL, EQ_TOL
from .bounds import EvalContext, evaluate, solve_spectra
from .families import FamilySpec, generate
from .graphs import DisconnectedGraphError, Graph, is_connected, parse_graph6

ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@dataclass
class BoundTally:
    """Counts of one bound over a sweep, with the (graph, alpha) key of its
    smallest margin to violation: gap for lower bounds, -gap for upper."""

    applicable: int = 0
    holds: int = 0
    equalities: int = 0
    worst_gap: Optional[float] = None
    worst_key: Optional[str] = None
    _worst_margin: Optional[float] = None

    def merge(self, other: "BoundTally") -> None:
        self.applicable += other.applicable
        self.holds += other.holds
        self.equalities += other.equalities
        if other._worst_margin is not None and (
            self._worst_margin is None or other._worst_margin < self._worst_margin
        ):
            self._worst_margin, self.worst_gap = other._worst_margin, other.worst_gap
            self.worst_key = other.worst_key


@dataclass
class CorpusSummary:
    graphs_seen: int = 0
    skipped_disconnected: int = 0
    tallies: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)

    def merge(self, other: "CorpusSummary") -> "CorpusSummary":
        self.graphs_seen += other.graphs_seen
        self.skipped_disconnected += other.skipped_disconnected
        for bid, tally in other.tallies.items():
            if bid in self.tallies:
                self.tallies[bid].merge(tally)
            else:
                self.tallies[bid] = tally
        self.violations.extend(other.violations)
        self.discrepancies.extend(other.discrepancies)
        return self

    def to_json(self) -> dict:
        return {
            "graphs_seen": self.graphs_seen,
            "skipped_disconnected": self.skipped_disconnected,
            "bounds": {
                bid: {k: v for k, v in asdict(t).items() if not k.startswith("_")}
                for bid, t in sorted(self.tallies.items())
            },
            "violations": sorted(
                self.violations, key=lambda v: (v["graph6"], v["bound_id"], v["alpha"])
            ),
            "discrepancies": sorted(
                self.discrepancies, key=lambda v: (v["graph6"], v["bound_id"], v["alpha"])
            ),
        }


def iter_graph6_lines(lines: Iterable[str]) -> Iterator[str]:
    """Yield graph6 payload lines, skipping blanks and '#' comments."""
    for line in lines:
        s = line.strip()
        if s and not s.startswith("#"):
            yield s


def load_corpus(path) -> list[Graph]:
    with open(path, "r", encoding="ascii") as fh:
        return [parse_graph6(s) for s in iter_graph6_lines(fh)]


def sweep(
    graphs: Iterable[Graph], alphas: Sequence[float] = ALPHA_GRID, tol: float = DEFAULT_TOL
) -> CorpusSummary:
    """Evaluate the whole bound registry on every (graph, alpha).

    Graphs go through evaluate() BLOCK_GRAPHS at a time and the block
    summaries merge in order, so ties keep the first (graph, alpha).
    Disconnected graphs are counted and skipped. Violations list failed
    proven bounds; claimed-formula mismatches land in discrepancies.
    """
    summary, it, alphas = CorpusSummary(), iter(graphs), list(alphas)
    while block := list(islice(it, BLOCK_GRAPHS)):
        summary.merge(_sweep_block(block, alphas, tol))
    return summary


def _sweep_block(graphs: list[Graph], alphas: list[float], tol: float) -> CorpusSummary:
    part = CorpusSummary()
    ctxs = []
    for g in graphs:
        try:
            ctxs.append(EvalContext(g))
        except DisconnectedGraphError:
            part.skipped_disconnected += 1
    part.graphs_seen = len(ctxs)
    ev = evaluate(ctxs, alphas, tol=tol)
    keys = [ctx.graph6 for ctx in ctxs]
    margin = ev.margin()
    for i, bid in enumerate(BOUND_IDS):
        if ev.applicable[i].any():
            # the first minimum in (graph, alpha) order, as a sequential scan finds
            g, j = np.unravel_index(np.argmin(margin[i]), margin[i].shape)
            part.tallies[bid] = BoundTally(
                int(ev.applicable[i].sum()), int(ev.holds[i].sum()), int(ev.equality[i].sum()),
                float(ev.gap[i, g, j]), f"{keys[g]}@{alphas[j]:g}", float(margin[i, g, j]))
    for i, g, j in zip(*np.nonzero(ev.violated)):
        part.violations.append({"graph6": keys[g], "bound_id": BOUND_IDS[i],
                                "alpha": alphas[j], "gap": float(ev.gap[i, g, j])})
    for i, g, j in zip(*np.nonzero(ev.claimed_miss)):
        part.discrepancies.append({"graph6": keys[g], "bound_id": BOUND_IDS[i],
                                   "alpha": alphas[j], "claimed": float(ev.bound[i, g, j]),
                                   "actual": float(ev.actual[i, g, j]),
                                   "gap": float(ev.gap[i, g, j])})
    return part


@dataclass
class ConjectureResult:
    """Minimum-spread scan of an exhaustive bipartite corpus of one order."""

    n: int
    alpha: float
    graphs_seen: int
    candidate_min_graph: str
    candidate_min_spread: float
    conjectured_graph_spread: float
    confirmed: bool

    def to_json(self) -> dict:
        return asdict(self)


def check_problem_39(graphs: Iterable[Graph], n: int, alpha: float) -> ConjectureResult:
    """Does the balanced complete bipartite graph minimize the spread?

    The corpus must be the complete set of connected bipartite graphs of
    order n; missing the conjectured graph raises ValueError. Ties in the
    minimum are broken by graph6 string so reruns are bit-identical.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    ctxs = []
    for g in graphs:
        if g.n != n:
            raise ValueError(f"corpus graph of order {g.n} in an order-{n} scan")
        try:
            ctx = EvalContext(g)
        except DisconnectedGraphError:
            ctx = None
        if ctx is None or not ctx.bipartite:
            raise ValueError("corpus contains a non-(connected bipartite) graph")
        ctxs.append(ctx)
    if not ctxs:
        raise ValueError("empty corpus")
    solve_spectra(ctxs, [alpha])
    best = min((ctx.spread(alpha), ctx.graph6) for ctx in ctxs)
    # every graph here is bipartite, so at most floor(n/2)*ceil(n/2) edges,
    # and only K_{floor(n/2),ceil(n/2)} has that many
    edges = n // 2 * (n - n // 2)
    balanced = [ctx.spread(alpha) for ctx in ctxs if ctx.graph.edge_count == edges]
    if not balanced:
        raise ValueError(
            "incomplete corpus: balanced complete bipartite graph not present"
        )
    conjectured_spread = balanced[-1]
    return ConjectureResult(
        n=n,
        alpha=alpha,
        graphs_seen=len(ctxs),
        candidate_min_graph=best[1],
        candidate_min_spread=best[0],
        conjectured_graph_spread=conjectured_spread,
        confirmed=conjectured_spread <= best[0] + EQ_TOL,
    )


def check_theorem_36_ordering(n: int, alpha: float, tol: float = DEFAULT_TOL) -> bool:
    """Spreads of complete bipartite graphs K_{a,n-a} computed numerically:
    non-increasing in a on 1..n//2, with the star the strict maximum."""
    if n < 4:
        raise ValueError("need n >= 4")
    ctxs = [EvalContext(generate(FamilySpec("kbip", (a, n - a)))) for a in range(1, n // 2 + 1)]
    solve_spectra(ctxs, [alpha])
    spreads = [ctx.spread(alpha) for ctx in ctxs]
    ordered = all(spreads[i] >= spreads[i + 1] - tol for i in range(len(spreads) - 1))
    star_max = all(spreads[0] >= s - tol for s in spreads[1:])
    return ordered and star_max


def random_connected_graph(
    n: int, edge_prob: float, seed: int, max_tries: int = 200
) -> Graph:
    """Erdos-Renyi sample conditioned on connectivity.

    Uses the stdlib Mersenne Twister, which is stable across platforms and
    Python versions for a fixed seed, so corpora regenerate identically.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in (0, 1]")
    rng = random.Random(seed)
    for _ in range(max_tries):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g
    raise ValueError(
        f"no connected sample in {max_tries} tries (n={n}, p={edge_prob})"
    )
