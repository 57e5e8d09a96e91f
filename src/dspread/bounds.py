"""Spread bound registry, evaluated on blocks of (graph, alpha) pairs at once.

Each registry entry is a record (id, direction, formula, checks, claimed,
exact) with an array formula for one displayed inequality on the spread or
extreme eigenvalues of the generalized distance matrix. evaluate() maps
per-graph columns (G, 1) and spectra (G, k) of a block to (17, G, k)
arrays; the checks mask out inapplicable entries, which report a reason
instead of failing, so corpus sweeps never abort. Evaluation.reports() and
Evaluation.discrepancies() build the `bounds` JSON of one pair from them.

Entries carry a trust status. "proven" bounds are expected to hold on every
connected graph; a violation of one of those is a genuine soundness failure.
"claimed" entries are closed forms that desk checks refute on concrete small
graphs, so their misses are routed to a separate discrepancies channel:

* thm35_bipartite_lower, star branch, alpha > 0: the formula takes the
  quotient root as the smallest eigenvalue, but the leaves' co-neighbor
  eigenvalue alpha*(2n-1)-2 undercuts it for small alpha (star on 4 vertices
  at alpha = 0.1). Sound as a lower bound, wrong as the stated exact value.
* thm38_bipartite_lower, 1/2 <= alpha <= 1: violated by the 4-cycle at
  alpha = 0.5 (bound 3.28 vs spread 3.0).
* thm43_independence_lower, 1/2 <= alpha <= 1: violated by the complete
  split graph with clique 2 and independent set 2 at alpha = 0.5
  (bound 2.90 vs spread 2.62). Both refutations trace to the same step: the
  smallest eigenvalue of an induced-path principal block is bounded by a
  fixed 3-vertex closed form, but the block inherits the host graph's
  transmissions, which pushes its smallest eigenvalue above that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .cliques import (
    CLIQUE_BUDGET_SPENT,
    INDEPENDENCE_BUDGET_SPENT,
    SearchBudgetExceeded,
    clique_number,
    independence_number,
)
from .eigen import sym_eigen
from .graphs import (
    DisconnectedGraphError,
    Graph,
    distance_profile,
    encode_graph6,
    is_bipartite,
    remove_edge,
)
from .matrices import generalized_distance_matrix

PROVEN = "proven"
CLAIMED = "claimed"

DEFAULT_TOL = 1e-8
EQ_TOL = 1e-6
# graphs per eigensolve stack and per sweep block, so a stack holds at most
# BLOCK_GRAPHS * k matrices however large the corpus
BLOCK_GRAPHS = 64


# --- structural checks ------------------------------------------------------


def check_interlacing(parent_values: np.ndarray, child_values: np.ndarray) -> bool:
    """a_i >= b_i >= a_{n-r+i} within DEFAULT_TOL for descending eigenvalue vectors;
    applies equally to quotient-matrix and principal-submatrix children."""
    a = np.sort(np.asarray(parent_values, dtype=float))[::-1]
    b = np.sort(np.asarray(child_values, dtype=float))[::-1]
    n, r = len(a), len(b)
    if r > n:
        raise ValueError("child order exceeds parent order")
    return bool(np.all(b <= a[:r] + DEFAULT_TOL) and np.all(b >= a[n - r:] - DEFAULT_TOL))


def check_edge_deletion_monotonicity(g: Graph, edge: tuple[int, int], alpha: float) -> bool:
    """True when every eigenvalue weakly increases, within DEFAULT_TOL, after
    deleting the edge.

    Only meaningful for 1/2 <= alpha <= 1 and when the deletion keeps the
    graph connected; out-of-range alpha or a bridge raises ValueError.
    """
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("monotonicity check requires alpha in [1/2, 1]")
    try:
        smaller = EvalContext(remove_edge(g, edge))
    except DisconnectedGraphError:
        raise ValueError("edge deletion disconnects the graph") from None
    before = EvalContext(g)
    solve_spectra([before, smaller], [alpha])
    return bool(np.all(smaller.values(alpha) >= before.values(alpha) - DEFAULT_TOL))


# --- evaluation context and batched spectra ---------------------------------


class EvalContext:
    """Per-graph data the registry reads: the distance profile, and on first
    use bipartiteness, cliques and independence number (each None when its
    search runs out of cliques.SEARCH_BUDGET nodes; search_nodes holds the
    nodes of each search run) and the spectra of D_alpha as solve_spectra()
    caches them.

    A disconnected graph raises DisconnectedGraphError from the one BFS
    pass of its distance profile.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.profile = distance_profile(graph)
        # alpha -> (descending eigenvalues, [top, bottom, |D|_F^2, trace])
        self._solved: dict[float, tuple[np.ndarray, list[float]]] = {}
        self.search_nodes: dict[str, int] = {}

    @cached_property
    def bipartite(self) -> bool:
        return is_bipartite(self.graph) is not None

    @cached_property
    def graph6(self) -> str:
        return encode_graph6(self.graph)

    def values(self, alpha: float) -> np.ndarray:
        """Eigenvalues of D_alpha, descending."""
        if alpha not in self._solved:
            solve_spectra([self], [alpha])
        return self._solved[alpha][0]

    def spread(self, alpha: float) -> float:
        v = self.values(alpha)
        return float(v[0] - v[-1])  # 0 for a single vertex

    @cached_property
    def cliques(self) -> Optional[tuple[int, list[tuple[int, ...]]]]:
        try:
            return clique_number(self.graph, self.search_nodes)
        except SearchBudgetExceeded:
            return None

    @cached_property
    def independence(self) -> Optional[int]:
        try:
            return independence_number(self.graph, self.search_nodes)[0]
        except SearchBudgetExceeded:
            return None


def solve_spectra(ctxs: Sequence[EvalContext], alphas: Sequence[float]) -> None:
    """Cache the spectrum of D_alpha for every context and alpha.

    D_alpha is affine in alpha, so a graph's alphas form one (k, n, n)
    stack, and graphs of one order share one eigvalsh call on their
    (G*k, n, n) stack, BLOCK_GRAPHS graphs at a time. The stack also gives
    the squared Frobenius norm and the trace that mirsky_upper reads.
    """
    groups: dict[tuple, list[EvalContext]] = {}
    for ctx in ctxs:
        todo = tuple(a for a in dict.fromkeys(alphas) if a not in ctx._solved)
        if todo:
            groups.setdefault((ctx.graph.n, todo), []).append(ctx)
    for (n, todo), group in groups.items():
        for start in range(0, len(group), BLOCK_GRAPHS):
            chunk = group[start:start + BLOCK_GRAPHS]
            stack = np.stack([generalized_distance_matrix(c.profile, todo) for c in chunk])
            stack = stack.reshape(-1, n, n)  # (G*k, n, n)
            values = sym_eigen(stack)
            stats = np.stack([values[:, 0], values[:, -1], (stack ** 2).sum(axis=(1, 2)),
                              np.trace(stack, axis1=1, axis2=2)], axis=1)
            k = len(todo)
            for i, ctx in enumerate(chunk):
                rows = slice(i * k, (i + 1) * k)
                ctx._solved.update(zip(todo, zip(values[rows], stats[rows].tolist())))


# --- registry ---------------------------------------------------------------


def _sqrt(x):
    return np.sqrt(np.maximum(x, 0.0))


def _order(k: int) -> tuple[Callable, str]:
    return lambda c: c.n >= k, f"requires n >= {k}"


# omega and indep are NaN where their search ran out of budget, so these
# checks come before the clique and independence checks, which read them
_CLIQUES_SEARCHED = (lambda c: ~np.isnan(c.omega), CLIQUE_BUDGET_SPENT)
_INDEPENDENCE_SEARCHED = (lambda c: ~np.isnan(c.indep), INDEPENDENCE_BUDGET_SPENT)
_BIPARTITE = (lambda c: c.bipartite, "not bipartite")
_CLIQUE = (lambda c: c.omega >= 2, "clique number < 2")
_INDEPENDENT = (lambda c: c.indep >= 2, "independence number < 2")
_HALF = (lambda c: c.a >= 0.5, "alpha outside [1/2,1]")
_ZERO_OR_HALF = (lambda c: (c.a == 0.0) | (c.a >= 0.5), "alpha outside {0} and [1/2,1]")


@dataclass(frozen=True)
class Entry:
    """One registry entry: a displayed inequality as an array formula.

    formula maps the block columns (see _columns) to (bound, actual), each
    broadcastable to (G, k). checks are the (mask, reason) conditions of the
    inequality in reporting order: order, then requirement, then alpha
    domain, after the search budget where a requirement reads omega or
    indep. Each mask maps the columns to where its condition is met; the
    entry applies where all are met, and otherwise reports the reason of
    the first that is not. claimed and exact map the columns to masks of
    values that are only claimed, and of exact-value claims (none by default).
    """

    id: str
    direction: str  # "lower" | "upper"
    formula: Callable
    checks: tuple[tuple[Callable, str], ...] = (_order(2),)
    claimed: Callable = lambda c: False
    exact: Callable = lambda c: False


def _best_quotient_spread(ai, bi, m1, m2, where):
    """The largest spread sqrt(ai^2 - 4 bi m1 m2) / (m1 m2), and at least 0, of a 2x2
    quotient with parts of m1 and m2 vertices over the last-axis candidates `where` marks."""
    root = _sqrt(ai * ai - 4.0 * bi * m1 * m2) / (m1 * m2)
    return np.max(root, axis=-1, initial=0.0, where=where)


def _thm35(c):
    # star (bipartite with a dominating vertex): closed forms in n and alpha
    n, a = c.n, c.a
    star = np.where(a == 0.0, n + _sqrt(n * n - 3.0 * n + 3.0), _sqrt(
        c.a_minus_2_sq * (n * n - 2.0 * n + 2.0) + 2.0 * (n - 1.0) * (a * a - 2.0)))
    # otherwise the best quotient of a maximum-degree vertex with its
    # neighbours against the rest, vertices on a last axis
    n, w, delta, a = (x[..., None] for x in (c.n, c.wiener, c.delta, c.a))
    s = c.avg_dist_deg * delta + c.tr
    k = s - 2.0 * delta * delta
    lin = (delta + 1.0) * (2.0 * w - 2.0 * c.avg_dist_deg * delta - 2.0 * c.tr)
    ai = a * n * k + 2.0 * n * delta * delta + lin
    # float_power squares with libm pow, as Python's ** does; s * s may
    # round differently in the last bit
    bi = 2.0 * a * w * k + 4.0 * w * delta * delta - np.float_power(s, 2.0)
    best = _best_quotient_spread(ai, bi, delta + 1.0, n - delta - 1.0, c.degree == delta)
    return np.where(c.delta == c.n - 1, star, best), c.spread


def _thm38(c):
    n, a = c.n, c.a
    fl, ce = n // 2, n - n // 2
    at_zero = n + _sqrt(ce * ce + fl * fl - fl * ce)
    theta = _sqrt(
        n * n * a * a - 4.0 * (a - 1.0) * (fl * fl + ce * ce) - 4.0 * fl * ce
    ) + _sqrt(9.0 * a * a - 20.0 * a + 12.0)
    half = (a * (n - 3.0) + 2.0 * n - 6.0 + theta) / 2.0
    return np.where(a == 0.0, at_zero, half), c.spread


def _thm41(c):
    n, w, omega = (x[..., None] for x in (c.n, c.wiener, c.omega))
    a, si = c.a[..., None], c.clique_tr
    # trace term: the (1-a) factor scales only n*(omega-1), not 2W -- this
    # is what the trace of the clique/rest quotient matrix works out to, and
    # the quotient-spread cross-check in the tests pins it
    ai = si * (a * n - 2.0 * omega) + omega * (2.0 * w + (1.0 - a) * n * (omega - 1.0))
    bi = 2.0 * w * omega * (omega - 1.0) - si * si + 2.0 * w * a * (si - omega * (omega - 1.0))
    best = _best_quotient_spread(ai, bi, omega, n - omega, ~np.isnan(si))
    return np.where(c.omega == c.n, (1.0 - c.a) * c.n, best), c.spread


def _thm43(c):
    n, t, a = c.n, c.indep, c.a
    at_zero = (n + t + 1.0 + _sqrt((n - t + 1.0) ** 2 + 4.0 * t * t - 4.0 * t)) / 2.0
    s = n - t  # clique side of the enclosing complete split graph
    theta = (
        (5.0 - 4.0 * a) * s * s
        + (6.0 * a * n - 8.0 * n - 4.0 * a + 6.0) * s
        + n * n * c.a_minus_2_sq
        + 2.0 * n * a
        - 4.0 * n
        + 1.0
    )
    half = (
        n + t + a * (n - 3.0) - 5.0 + _sqrt(theta) + _sqrt(9.0 * a * a - 20.0 * a + 12.0)
    ) / 2.0
    return np.where(a == 0.0, at_zero, half), c.spread


REGISTRY: tuple[Entry, ...] = (
    Entry("thm24_lower", "lower",
          lambda c: (np.abs(c.a * c.tr_range - (1.0 - c.a) * c.spread0), c.spread)),
    Entry("thm24_upper", "upper",
          lambda c: (c.a * c.tr_range + (1.0 - c.a) * c.spread0, c.spread)),
    Entry("ineq24_radius_lower", "lower",
          lambda c: (c.a * c.tr_min + (1.0 - c.a) * c.top0, c.top)),
    Entry("ineq24_radius_upper", "upper",
          lambda c: (c.a * c.tr_max + (1.0 - c.a) * c.top0, c.top)),
    Entry("ineq25_smallest_lower", "lower",
          lambda c: (c.a * c.tr_min + (1.0 - c.a) * c.bottom0, c.bottom)),
    Entry("ineq25_smallest_upper", "upper",
          lambda c: (c.a * c.tr_max + (1.0 - c.a) * c.bottom0, c.bottom)),
    Entry("thm25_lower", "lower",
          lambda c: (c.n / (c.n - 1.0) * c.top - 2.0 * c.a * c.wiener / (c.n - 1.0), c.spread)),
    Entry("thm26_lower", "lower",
          lambda c: (c.top - _sqrt((c.power_sum - c.top * c.top) / (c.n - 1.0)), c.spread)),
    Entry("cor27_lower", "lower",
          lambda c: ((2.0 * c.wiener - _sqrt((c.n * c.n * c.power_sum - 4.0 * c.wiener * c.wiener)
                                             / (c.n - 1.0))) / c.n, c.spread)),
    Entry("thm28_lower", "lower",
          lambda c: (2.0 / c.n * _sqrt(c.n * c.power_sum - 4.0 * c.a * c.a * c.wiener * c.wiener),
                     c.spread)),
    Entry("mirsky_upper", "upper",
          lambda c: (_sqrt(2.0 * c.fro_sq - 2.0 / c.n * (c.trace * c.trace)), c.spread)),
    # same value as mirsky_upper but assembled from the distance and
    # transmission power sums instead of the matrix itself
    Entry("thm210_upper", "upper",
          lambda c: (_sqrt(2.0 * c.power_sum - 8.0 / c.n * ((c.a * c.wiener) * (c.a * c.wiener))),
                     c.spread)),
    Entry("halfrange_radius_upper", "upper", lambda c: (c.top, c.spread),
          checks=(_order(2), _HALF)),
    Entry("thm35_bipartite_lower", "lower", _thm35, checks=(_order(3), _BIPARTITE),
          claimed=lambda c: (c.delta == c.n - 1) & (c.a != 0.0),
          exact=lambda c: c.delta == c.n - 1),
    Entry("thm38_bipartite_lower", "lower", _thm38,
          checks=(_order(3), _BIPARTITE, _ZERO_OR_HALF), claimed=lambda c: c.a != 0.0),
    Entry("thm41_clique_lower", "lower", _thm41, checks=(_CLIQUES_SEARCHED, _order(3), _CLIQUE)),
    Entry("thm43_independence_lower", "lower", _thm43,
          checks=(_INDEPENDENCE_SEARCHED, _order(3), _INDEPENDENT, _ZERO_OR_HALF),
          claimed=lambda c: c.a != 0.0),
)

BOUND_IDS = tuple(e.id for e in REGISTRY)
_UPPER = np.array([e.direction == "upper" for e in REGISTRY])[:, None, None]


def _padded(rows: list) -> np.ndarray:
    """Ragged per-graph rows as one (G, 1, width) array, NaN past the end
    of each row."""
    lengths = np.array([len(r) for r in rows])
    out = np.full((len(rows), lengths.max()), np.nan)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.concatenate(rows)
    return out[:, None, :]


def _clique_sums(ctx: EvalContext) -> list[float]:
    if ctx.cliques is None:
        return [np.nan]  # thm41 does not apply
    tr = ctx.profile.tr.tolist()
    return list({float(sum(tr[v] for v in cl)) for cl in ctx.cliques[1]})


def _columns(ctxs: Sequence[EvalContext], alphas: Sequence[float]) -> SimpleNamespace:
    """What the formulas read: the alpha row (1, k), per-graph columns
    (G, 1), spectral arrays (G, k), and per-vertex and per-clique arrays
    (G, 1, width), NaN-padded."""

    def col(xs):
        return np.array(xs, dtype=float)[:, None]

    c = SimpleNamespace(a=np.array(alphas, dtype=float)[None, :])
    # squares of alpha-only terms keep Python's pow, so values match the
    # scalar formulas to the last bit
    c.a_minus_2_sq = np.array([(a - 2.0) ** 2 for a in alphas])[None, :]
    one_minus_a_sq = np.array([(1.0 - a) ** 2 for a in alphas])[None, :]
    c.n = col([ctx.graph.n for ctx in ctxs])
    c.bipartite = np.array([ctx.bipartite for ctx in ctxs])[:, None]
    c.wiener = col([ctx.profile.wiener for ctx in ctxs])
    # per-vertex columns: degree, mean neighbour transmission, transmission
    c.degree = _padded([[len(nbrs) for nbrs in ctx.graph.adjacency] for ctx in ctxs])
    c.avg_dist_deg = _padded([ctx.profile.avg_dist_deg for ctx in ctxs])
    c.tr = _padded([ctx.profile.tr for ctx in ctxs])
    c.delta = np.nanmax(c.degree, axis=-1)
    c.tr_min, c.tr_max = np.nanmin(c.tr, axis=-1), np.nanmax(c.tr, axis=-1)
    c.tr_range = c.tr_max - c.tr_min
    # NaN where a search ran out of budget: thm41 or thm43 does not apply
    c.omega = col([np.nan if ctx.cliques is None else ctx.cliques[0] for ctx in ctxs])
    # thm41 reads the transmission sum of each maximum clique
    c.clique_tr = _padded([_clique_sums(ctx) for ctx in ctxs])
    c.indep = col([np.nan if ctx.independence is None else ctx.independence for ctx in ctxs])
    stats = np.array([[ctx._solved[a][1] for a in alphas] for ctx in ctxs])
    stats = stats.reshape(len(ctxs), len(alphas), 4)
    c.top, c.bottom, c.fro_sq, c.trace = np.moveaxis(stats, -1, 0)
    c.spread = c.top - c.bottom
    zero = np.array([ctx._solved[0.0][1] for ctx in ctxs])
    c.top0, c.bottom0 = col(zero[:, 0]), col(zero[:, 1])
    c.spread0 = c.top0 - c.bottom0
    # sum of squared eigenvalues: (1-a)^2 sum_{i,j} d^2 + a^2 sum Tr^2
    c.power_sum = (one_minus_a_sq * col([(ctx.profile.dist ** 2).sum() for ctx in ctxs])
                   + c.a * c.a * np.nansum(c.tr * c.tr, axis=-1))
    return c


@dataclass
class Evaluation:
    """The registry on a block of graphs and alphas.

    Every array is indexed [entry, graph, alpha] in REGISTRY, context and
    alpha order. Values outside `applicable` mean nothing, and every mask
    is False there.
    """

    bound: np.ndarray
    actual: np.ndarray
    gap: np.ndarray
    applicable: np.ndarray
    failed: np.ndarray  # int8: where not applicable, the index of the first unmet check
    claimed: np.ndarray  # the formula is only claimed, not proven
    exact: np.ndarray  # the formula claims the exact value
    holds: np.ndarray
    equality: np.ndarray
    violated: np.ndarray  # applicable proven bounds that failed
    claimed_miss: np.ndarray  # applicable claimed formulas that missed

    def margin(self) -> np.ndarray:
        """Distance to violation: gap for lower bounds, -gap for upper
        bounds, and inf where an entry does not apply."""
        return np.where(self.applicable, np.where(_UPPER, -self.gap, self.gap), np.inf)

    def reports(self, g: int, j: int) -> list[dict]:
        """The `bounds` entries of graph g at alpha j, in registry order: gap
        is actual - bound, holds allows a max(tol, tol*|bound|) cushion and
        equality means |gap| <= EQ_TOL; an entry that does not apply has
        null values and the reason of its first unmet check."""
        # one tolist() per (17,) column gives plain bools, ints and floats
        columns = (a[:, g, j].tolist() for a in (
            self.applicable, self.failed, self.claimed, self.bound, self.actual, self.holds,
            self.gap, self.equality))
        out = []
        for e, applicable, failed, claimed, *row in zip(REGISTRY, *columns):
            bound, actual, holds, gap, equality = row if applicable else (None,) * 5
            out.append({"bound_id": e.id, "direction": e.direction, "bound": bound,
                        "actual": actual, "holds": holds, "gap": gap, "equality": equality,
                        "applicable": applicable,
                        "reason": None if applicable else e.checks[failed][1],
                        "status": CLAIMED if claimed else PROVEN})
        return out

    def discrepancies(self, g: int, j: int) -> list[dict]:
        """The claimed formulas that missed on graph g at alpha j, in
        registry order: informational, never soundness."""
        return [{"bound_id": BOUND_IDS[i],
                 "kind": "exact-value mismatch" if self.exact[i, g, j] else "bound violated",
                 "claimed": float(self.bound[i, g, j]), "actual": float(self.actual[i, g, j]),
                 "gap": float(self.gap[i, g, j])}
                for i in np.flatnonzero(self.claimed_miss[:, g, j])]


def evaluate(
    ctxs: Sequence[EvalContext], alphas: Sequence[float], tol: float = DEFAULT_TOL
) -> Evaluation:
    """Every registry entry on every (context, alpha) pair, as arrays.

    The spectra come from one solve_spectra() call. Those at alpha = 0,
    which thm24 and ineq24/25 read at every alpha, join the same batch when
    0 is not among the alphas.
    """
    shape = (len(REGISTRY), len(ctxs), len(alphas))
    bound, actual = np.zeros(shape), np.zeros(shape)
    applicable, claimed, exact = (np.zeros(shape, dtype=bool) for _ in range(3))
    failed = np.zeros(shape, dtype=np.int8)
    if not ctxs:
        return Evaluation(bound, actual, bound, applicable, failed, *(applicable,) * 6)
    solve_spectra(ctxs, [*alphas, 0.0])
    c = _columns(ctxs, alphas)
    # masked-out entries (n = 1, a star in the general branch, ...) may divide
    # by zero; their values are never read. A huge tol may overflow the
    # cushion to inf, where every bound holds, as it should
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, e in enumerate(REGISTRY):
            bound[i], actual[i] = e.formula(c)
            # met counts the leading checks that hold: the index of the
            # first unmet one where the entry does not apply
            ok, met = True, 0
            for mask, _ in e.checks:
                ok = ok & mask(c)
                met = met + ok
            applicable[i], failed[i] = ok, met
            claimed[i], exact[i] = e.claimed(c), e.exact(c)
        gap = actual - bound
        cushion = np.maximum(tol, tol * np.abs(bound))
        holds = applicable & np.where(_UPPER, gap <= cushion, gap >= -cushion)
        equality = applicable & (np.abs(gap) <= EQ_TOL)
    claimed &= applicable
    exact &= applicable
    # a claimed exact value misses whenever it disagrees, a claimed
    # inequality only when it is outright violated
    missed = claimed & np.where(exact, ~equality, ~holds)
    return Evaluation(bound, actual, gap, applicable, failed, claimed, exact, holds, equality,
                      applicable & ~claimed & ~holds, missed)


def evaluate_all(g: Graph, alpha: float, ctx: Optional[EvalContext] = None) -> list[dict]:
    """The `bounds` entries of (g, alpha), inapplicable ones included: the
    one-graph, one-alpha view of evaluate()."""
    ctx = EvalContext(g) if ctx is None else ctx
    return evaluate([ctx], [alpha]).reports(0, 0)


def evaluate_bound(
    bound_id: str, g: Graph, alpha: float, ctx: Optional[EvalContext] = None
) -> dict:
    """The `bounds` entry of a single registry entry on (g, alpha)."""
    if bound_id not in BOUND_IDS:
        raise KeyError(f"unknown bound_id {bound_id!r}")
    return evaluate_all(g, alpha, ctx)[BOUND_IDS.index(bound_id)]

