from itertools import combinations

import pytest

from dspread.bounds import BOUND_IDS, evaluate_all, solve_spectra
from dspread.cli import _packaged_corpus
from dspread.corpus import blocks, load_corpus
from dspread.families import family
from dspread.graphs import Graph, is_connected


@pytest.fixture(scope="session")
def zoo():
    """Small named graphs exercised throughout the suite."""
    return {
        "K2": family("complete", 2),
        "K3": family("complete", 3),
        "K4": family("complete", 4),
        "K5": family("complete", 5),
        "P3": family("path", 3),
        "P4": family("path", 4),
        "P5": family("path", 5),
        "C4": family("cycle", 4),
        "C5": family("cycle", 5),
        "C6": family("cycle", 6),
        "K13": family("kbip", 1, 3),
        "K23": family("kbip", 2, 3),
        "K33": family("kbip", 3, 3),
        "CS25": family("split", 2, 5),
        "CS22": family("split", 2, 4),  # the diamond
    }


def evaluate_bound(bound_id: str, g: Graph, alpha: float, ctx=None) -> dict:
    """The `bounds` entry of one registry entry on (g, alpha)."""
    return evaluate_all(g, alpha, ctx)[BOUND_IDS.index(bound_id)]


def contexts(graphs, alphas=()) -> list:
    """The EvalContexts of connected graphs as the commands build them:
    profiles from corpus.blocks, spectra from one solve_spectra call per
    block at alphas (none when alphas is empty)."""
    out = []
    for block in blocks(graphs):
        ctxs = [ctx for _, ctx in block]
        assert None not in ctxs, "disconnected graph"
        if alphas:
            solve_spectra(ctxs, alphas)
        out += ctxs
    return out


def packaged_corpus(n: int) -> list:
    """The graphs of the packaged connected bipartite corpus of order n, read
    as `conjecture` reads them."""
    return load_corpus(_packaged_corpus(n))


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def connected_graph_from_mask(n: int, mask: int) -> Graph | None:
    g = graph_from_mask(n, mask)
    return g if is_connected(g) else None
