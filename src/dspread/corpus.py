"""Corpus sweeps: stress bounds over many graphs, probe the bipartite
minimum-spread conjecture, and generate reproducible random graphs.

Every command evaluates blocks() one at a time. Both corpus checks fold
its blocks in corpus order into their JSON document, a plain dict. In a
sweep, counts add up, and an entry's worst margin moves only to a strictly
smaller one, so a tie keeps the first (graph, alpha) of the corpus.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bounds import BOUND_IDS, DEFAULT_TOL, EQ_TOL
from .bounds import EvalContext, evaluate, solve_spectra
from .graphs import Graph, InputError, distance_profiles, is_connected, parse_graph6
from .jsonfmt import fmt_float

ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
MAX_TRIES = 200
# graphs per block, so an eigensolve stack holds at most BLOCK_GRAPHS * k
# matrices however large the corpus
BLOCK_GRAPHS = 64


def load_corpus(path) -> list[Graph]:
    """Every graph of a graph6 corpus file, one a stripped line, blanks and
    "#" comments skipped; an unreadable file raises InputError naming it, and
    a non-ASCII line (comments too) or one that does not parse names the line."""
    try:
        with open(path, "r", encoding="latin-1") as fh:
            graphs = []
            for lineno, line in enumerate(fh, 1):
                if not line.isascii():
                    raise InputError("corpus line is not ASCII graph6 text")
                s = line.strip()
                if s and not s.startswith("#"):
                    graphs.append(parse_graph6(s))
            return graphs
    except OSError as exc:
        raise InputError(f"cannot read corpus {path}: {exc}") from None
    except InputError as exc:  # raised in the loop; a GraphParseError keeps its byte offset
        exc.args = (f"{path}: line {lineno}: {exc}",)
        raise


def blocks(graphs: Iterable[Graph]) -> Iterator[list[tuple[Graph, Optional[EvalContext]]]]:
    """Blocks of BLOCK_GRAPHS graphs (read at call time), one distance_profiles
    call per block: each graph with its EvalContext, or None if disconnected."""
    it = iter(graphs)
    while block := list(islice(it, BLOCK_GRAPHS)):
        yield [(g, None if p is None else EvalContext(g, p))
               for g, p in zip(block, distance_profiles(block))]


def sweep(
    graphs: Iterable[Graph], alphas: Sequence[float] = ALPHA_GRID, tol: float = DEFAULT_TOL
) -> dict:
    """Evaluate the whole bound registry on every (graph, alpha).

    Each block of blocks() goes through evaluate() in turn, folded
    in corpus order. Disconnected graphs are counted and
    skipped. The document lists every entry that applied somewhere, with
    its counts and the (graph, alpha) key of its smallest margin to
    violation (gap for lower bounds, -gap for upper), ties keeping the
    first. Violations list failed proven bounds; claimed-formula mismatches
    land in discrepancies.
    """
    alphas = list(alphas)
    seen = skipped = 0
    tallies: dict[str, dict] = {}
    worst_margin: dict[str, float] = {}
    violations, discrepancies = [], []
    for block in blocks(graphs):
        ctxs = [ctx for _, ctx in block if ctx is not None]
        skipped += len(block) - len(ctxs)
        seen += len(ctxs)
        if not ctxs:
            continue
        ev = evaluate(ctxs, alphas, tol=tol)
        keys = [ctx.graph.graph6 for ctx in ctxs]
        counts = np.stack([ev.applicable, ev.holds, ev.equality]).sum(axis=(2, 3)).T.tolist()
        # each entry's first minimum over its flattened (G * k) margins: in
        # (graph, alpha) order, as a sequential scan finds it
        margin, flat_gap = (a.reshape(len(BOUND_IDS), -1) for a in (ev.margin(), ev.gap))
        first = margin.argmin(axis=1)
        pick = np.arange(len(BOUND_IDS)), first
        least, least_gap = margin[pick].tolist(), flat_gap[pick].tolist()
        for bid, count, m, m_gap, at in zip(BOUND_IDS, counts, least, least_gap, first.tolist()):
            if not count[0]:
                continue
            t = tallies.setdefault(bid, {"applicable": 0, "holds": 0, "equalities": 0,
                                         "worst_gap": None, "worst_key": None})
            t["applicable"] += count[0]
            t["holds"] += count[1]
            t["equalities"] += count[2]
            if bid not in worst_margin or m < worst_margin[bid]:
                g, j = divmod(at, len(alphas))
                worst_margin[bid], t["worst_gap"] = m, m_gap
                t["worst_key"] = f"{keys[g]}@{fmt_float(alphas[j])}"
        where = np.nonzero(ev.violated)
        for i, g, j, gap in zip(*(x.tolist() for x in where), ev.gap[where].tolist()):
            violations.append({"graph6": keys[g], "bound_id": BOUND_IDS[i],
                               "alpha": alphas[j], "gap": gap})
        where = np.nonzero(ev.claimed_miss)
        for i, g, j, claimed, actual, gap in zip(*(x.tolist() for x in where),
                                                 ev.bound[where].tolist(),
                                                 ev.actual[where].tolist(),
                                                 ev.gap[where].tolist()):
            discrepancies.append({"graph6": keys[g], "bound_id": BOUND_IDS[i],
                                  "alpha": alphas[j], "claimed": claimed,
                                  "actual": actual, "gap": gap})

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
    order n; n < 2, the first graph of another order or not connected
    bipartite, an empty corpus or one missing the conjectured graph raises
    InputError. Each block is folded into the minimum, ties broken by
    graph6 string so reruns are bit-identical.
    """
    if n < 2:
        raise InputError("need n >= 2")
    # every graph here is bipartite, so at most floor(n/2)*ceil(n/2) edges,
    # and only K_{floor(n/2),ceil(n/2)} has that many
    edges = n // 2 * (n - n // 2)
    seen, best, conjectured_spread = 0, (float("inf"), ""), None
    for block in blocks(graphs):
        for g, ctx in block:
            if g.n != n:
                raise InputError(f"corpus graph of order {g.n} in an order-{n} scan")
            if ctx is None or not ctx.bipartite:
                raise InputError("corpus contains a non-(connected bipartite) graph")
        solve_spectra([ctx for _, ctx in block], [alpha])
        spreads = [ctx.spread(alpha) for _, ctx in block]
        seen += len(block)
        best = min(best, *zip(spreads, (g.graph6 for g, _ in block)))
        balanced = [s for s, (g, _) in zip(spreads, block) if g.edge_count == edges]
        conjectured_spread = balanced[-1] if balanced else conjectured_spread
    if not seen:
        raise InputError("empty corpus")
    if conjectured_spread is None:
        raise InputError(
            "incomplete corpus: balanced complete bipartite graph not present"
        )
    return {
        "n": n,
        "alpha": alpha,
        "graphs_seen": seen,
        "candidate_min_graph": best[1],
        "candidate_min_spread": best[0],
        "conjectured_graph_spread": conjectured_spread,
        "confirmed": conjectured_spread <= best[0] + EQ_TOL,
    }


def check_connected_draws(n: int, edge_prob: float) -> None:
    """Raise ValueError where MAX_TRIES draws of G(n, p) almost surely miss the n - 1 edges of
    a connected graph: where n - 1 > N*p over N = n(n-1)/2 pairs, one draw has that many with
    probability at most exp(-N*KL((n-1)/N || p)) (Chernoff), and MAX_TRIES times that < 1e-30."""
    pairs = n * (n - 1) / 2
    q = (n - 1) / pairs if pairs else 0.0
    if q <= edge_prob:
        return
    rest = (1 - q) * math.log((1 - q) / (1 - edge_prob)) if q < 1 else 0.0
    if pairs * (q * math.log(q / edge_prob) + rest) > math.log(MAX_TRIES / 1e-30):
        raise ValueError(f"no connected sample in reach (n={n}, p={edge_prob}): a connected "
                         f"graph needs {n - 1} edges, a draw has {pairs * edge_prob:g} on average")


def random_connected_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi sample conditioned on connectivity, from at most
    MAX_TRIES draws.

    Uses the stdlib Mersenne Twister, which is stable across platforms and
    Python versions for a fixed seed, so corpora regenerate identically.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in (0, 1]")
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
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
        f"no connected sample in {MAX_TRIES} tries (n={n}, p={edge_prob})"
    )
