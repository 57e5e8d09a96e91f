"""Exact maximum cliques and independence number on adjacency bitmasks.

One branch and bound serves both: clique_number searches the graph and
independence_number its complement. Each search is limited to
SEARCH_BUDGET branch-and-bound nodes and returns None when it needs more,
so a search gives up on every machine at the same point.
"""

from __future__ import annotations

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


def _maximum_cliques(masks: Sequence[int], every: bool) -> tuple[Optional[list[int]], int]:
    """Maximum cliques as bitmasks, and the number of search nodes visited.

    Branch and bound in the MCQ style (Tomita and Seki, 2003): a node
    colours its candidates P greedily and branches from the highest colour
    down, as a clique takes at most one vertex of each colour class. A
    branch is pruned when |R| plus its colour cannot reach the best size so
    far, which keeps every maximum clique (every=True), or cannot beat it
    (every=False, which returns the first maximum clique found). A node
    with at most SMALL_CANDIDATES candidates bounds by |P| instead. The
    cliques are None when the search needs more than SEARCH_BUDGET nodes.
    """
    best: list[int] = []
    best_size, slack = 0, 0 if every else 1
    nodes, budget = 0, SEARCH_BUDGET

    def small(r: int, size: int, p: int) -> None:
        # |P| <= SMALL_CANDIDATES here and below, so this recursion stays
        # shallow: bound by |P|
        nonlocal best, best_size, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded
        if not p:
            if size > best_size:
                best, best_size = [r], size
            elif size == best_size:
                best.append(r)
            return
        while p and size + p.bit_count() >= best_size + slack:
            bit = p & -p
            small(r | bit, size + 1, p & masks[bit.bit_length() - 1])
            p ^= bit

    def coloured(r: int, size: int, p: int) -> Iterator[tuple[int, int, int]]:
        # the children (r, size, p) of a node; greedy colouring makes each
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
            cls = classes[colour - 1]
            while cls:
                if size + colour < best_size + slack:
                    return
                bit = cls & -cls
                yield r | bit, size + 1, p & masks[bit.bit_length() - 1]
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
        return None, budget
    return best, nodes


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def clique_number(
    g: Graph, nodes: Optional[dict[str, int]] = None
) -> Optional[tuple[int, list[tuple[int, ...]]]]:
    """Exact clique number together with every maximum clique, in
    lexicographic order; None when the search runs out of its budget.

    nodes, when given, gets the search's node count under "clique".
    """
    cliques, spent = _maximum_cliques(g.masks, True)
    if nodes is not None:
        nodes["clique"] = spent
    if cliques is None:
        return None
    return cliques[0].bit_count(), sorted(map(_mask_to_tuple, cliques))


def independence_number(g: Graph, nodes: Optional[dict[str, int]] = None) -> Optional[int]:
    """Exact independence number (the clique number of the complement), or
    None as for clique_number; nodes likewise, the count under "independence".
    """
    full = (1 << g.n) - 1
    non_adjacent = [full & ~(m | 1 << v) for v, m in enumerate(g.masks)]
    sets, spent = _maximum_cliques(non_adjacent, every=False)
    if nodes is not None:
        nodes["independence"] = spent
    return None if sets is None else sets[0].bit_count()
