"""Corpus sweeps: stress bounds over many graphs, probe the bipartite
minimum-spread conjecture, and generate reproducible random graphs.

Both corpus checks return their JSON document as a plain dict. A sweep
folds its blocks of graphs into one document in corpus order: counts add
up, and an entry's worst margin moves only to a strictly smaller one, so
a tie keeps the first (graph, alpha) of the corpus.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bounds import BLOCK_GRAPHS, BOUND_IDS, DEFAULT_TOL, EQ_TOL
from .bounds import EvalContext, evaluate, solve_spectra
from .graphs import DisconnectedGraphError, Graph, is_connected, parse_graph6
from .jsonfmt import fmt_float

ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


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
) -> dict:
    """Evaluate the whole bound registry on every (graph, alpha).

    Graphs go through evaluate() BLOCK_GRAPHS at a time, folded in corpus
    order. Disconnected graphs are counted and skipped. The document lists
    every entry that applied somewhere, with its counts and the (graph,
    alpha) key of its smallest margin to violation (gap for lower bounds,
    -gap for upper), ties keeping the first. Violations list failed proven
    bounds; claimed-formula mismatches land in discrepancies.
    """
    it, alphas = iter(graphs), list(alphas)
    seen = skipped = 0
    tallies: dict[str, dict] = {}
    worst_margin: dict[str, float] = {}
    violations, discrepancies = [], []
    while block := list(islice(it, BLOCK_GRAPHS)):
        ctxs = []
        for g in block:
            try:
                ctxs.append(EvalContext(g))
            except DisconnectedGraphError:
                skipped += 1
        seen += len(ctxs)
        ev = evaluate(ctxs, alphas, tol=tol)
        keys = [ctx.graph6 for ctx in ctxs]
        counts = np.stack([ev.applicable, ev.holds, ev.equality]).sum(axis=(2, 3)).tolist()
        margin = ev.margin()
        for i, bid in enumerate(BOUND_IDS):
            if not counts[0][i]:
                continue
            t = tallies.setdefault(bid, {"applicable": 0, "holds": 0, "equalities": 0,
                                         "worst_gap": None, "worst_key": None})
            t["applicable"] += counts[0][i]
            t["holds"] += counts[1][i]
            t["equalities"] += counts[2][i]
            # the block's first minimum in (graph, alpha) order, as a
            # sequential scan finds it
            g, j = np.unravel_index(np.argmin(margin[i]), margin[i].shape)
            if bid not in worst_margin or margin[i, g, j] < worst_margin[bid]:
                worst_margin[bid] = float(margin[i, g, j])
                t["worst_gap"] = float(ev.gap[i, g, j])
                t["worst_key"] = f"{keys[g]}@{fmt_float(alphas[j])}"
        for i, g, j in zip(*np.nonzero(ev.violated)):
            violations.append({"graph6": keys[g], "bound_id": BOUND_IDS[i],
                               "alpha": alphas[j], "gap": float(ev.gap[i, g, j])})
        for i, g, j in zip(*np.nonzero(ev.claimed_miss)):
            discrepancies.append({"graph6": keys[g], "bound_id": BOUND_IDS[i],
                                  "alpha": alphas[j], "claimed": float(ev.bound[i, g, j]),
                                  "actual": float(ev.actual[i, g, j]),
                                  "gap": float(ev.gap[i, g, j])})

    def order(entry: dict) -> tuple:
        return entry["graph6"], entry["bound_id"], entry["alpha"]

    return {
        "graphs_seen": seen,
        "skipped_disconnected": skipped,
        "bounds": dict(sorted(tallies.items())),
        "violations": sorted(violations, key=order),
        "discrepancies": sorted(discrepancies, key=order),
    }


def check_problem_39(graphs: Iterable[Graph], n: int, alpha: float) -> dict:
    """Does the balanced complete bipartite graph minimize the spread?
    Returns the scan's JSON document.

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
    return {
        "n": n,
        "alpha": alpha,
        "graphs_seen": len(ctxs),
        "candidate_min_graph": best[1],
        "candidate_min_spread": best[0],
        "conjectured_graph_spread": conjectured_spread,
        "confirmed": conjectured_spread <= best[0] + EQ_TOL,
    }


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
