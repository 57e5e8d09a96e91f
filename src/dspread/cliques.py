"""Exact clique and independence numbers on adjacency bitmasks.

One branch and bound serves both: clique_number searches the graph (and
finds the extreme weight sums of its maximum cliques) and
independence_number its complement, with zero weights. Each search is
limited to SEARCH_BUDGET branch-and-bound nodes and returns None when it
needs more, so a search gives up on every machine at the same point.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .graphs import Graph

# branch-and-bound nodes each exact search may visit: a count, not
# seconds, so a search that runs out does so on every machine
SEARCH_BUDGET = 100_000
CLIQUE_BUDGET_SPENT = f"clique search ran out of its {SEARCH_BUDGET}-node budget"
INDEPENDENCE_BUDGET_SPENT = f"independence search ran out of its {SEARCH_BUDGET}-node budget"
# up to this many candidates a node bounds its branches by |P|, which is
# cheaper than colouring them; 8 to 14 time the same on graphs of order 16
# to 40, and 12 keeps graphs of order 12 or less off the colouring
SMALL_CANDIDATES = 12


class SearchBudgetExceeded(RuntimeError):
    """Unwinds _maximum_cliques once it has visited SEARCH_BUDGET nodes."""


def _maximum_cliques(masks: Sequence[int],
                     weights: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The clique number with the least and greatest weight sum over the
    maximum cliques.

    Branch and bound in the MCQ style (Tomita and Seki, 2003): a node
    colours its candidates P greedily and branches from the highest colour
    down, as a clique takes at most one vertex of each colour class. A
    branch that adds at most k vertices to R is pruned when |R| + k cannot
    reach the best size so far, or can at best tie it with a sum in
    [s + k*min(weights), s + k*max(weights)] that lies inside the least and
    greatest sums found so far (s the weight sum of R). With equal weights
    every tie is pruned, so the search stops at the first maximum clique
    found. A node with at most SMALL_CANDIDATES candidates bounds by |P|
    instead. The result is None when the search needs more than
    SEARCH_BUDGET nodes.
    """
    best_size, lo, hi = 0, math.inf, -math.inf
    w_min, w_max = min(weights), max(weights)
    nodes, budget = 0, SEARCH_BUDGET

    def small(size: int, s: int, p: int) -> None:
        # |P| <= SMALL_CANDIDATES here and below, so this recursion stays
        # shallow: bound by |P|
        nonlocal best_size, lo, hi, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded
        if not p:
            if size > best_size:
                best_size, lo, hi = size, s, s
            elif size == best_size:
                lo, hi = min(lo, s), max(hi, s)
            return
        while p and (size + (k := p.bit_count()) > best_size or size + k == best_size
                     and (s + k * w_min < lo or s + k * w_max > hi)):
            bit = p & -p
            v = bit.bit_length() - 1
            small(size + 1, s + weights[v], p & masks[v])
            p ^= bit

    def coloured(size: int, s: int, p: int) -> Iterator[tuple[int, int, int]]:
        # the children (size, s, p) of a node; greedy colouring makes each
        # class an independent set, lowest vertex first
        classes, uncoloured = [], p
        while uncoloured:
            q, cls = uncoloured, 0
            while q:
                bit = q & -q
                cls |= bit
                q &= ~(masks[bit.bit_length() - 1] | bit)
            classes.append(cls)
            uncoloured ^= cls
        for colour in range(len(classes), 0, -1):
            cls, reach = classes[colour - 1], size + colour
            while cls:
                if reach < best_size or reach == best_size and (
                        lo <= s + colour * w_min and s + colour * w_max <= hi):
                    return
                bit = cls & -cls
                v = bit.bit_length() - 1
                yield size + 1, s + weights[v], p & masks[v]
                p ^= bit
                cls ^= bit

    # coloured nodes sit on an explicit stack, so a clique of any size is
    # searched without deep recursion
    stack = [iter([(0, 0, (1 << len(masks)) - 1)])]
    try:
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            elif child[2].bit_count() <= SMALL_CANDIDATES:
                small(*child)
            else:
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded
                stack.append(coloured(*child))
    except SearchBudgetExceeded:
        return None
    return best_size, lo, hi


def clique_number(g: Graph, weights: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """Exact clique number with the least and greatest sum of the vertex
    weights (thm41 passes the transmissions) over the maximum cliques;
    None when the search runs out of its budget."""
    return _maximum_cliques(g.masks, weights)


def independence_number(g: Graph) -> Optional[int]:
    """Exact independence number (the clique number of the complement, with
    zero weights, so the search stops at the first maximum set found), or
    None as for clique_number."""
    full = (1 << g.n) - 1
    non_adjacent = [full & ~(m | 1 << v) for v, m in enumerate(g.masks)]
    found = _maximum_cliques(non_adjacent, [0] * g.n)
    return None if found is None else found[0]
