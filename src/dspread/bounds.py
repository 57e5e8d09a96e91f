"""Spread bound registry, evaluated on blocks of (graph, alpha) pairs at once.

Each registry entry is a record (id, direction, compares, formula, checks,
claimed, exact) with an array formula for one displayed inequality on the
spread or an extreme eigenvalue of the generalized distance matrix. evaluate() maps
per-graph columns (G, 1) and spectra (G, k) of a block to (17, G, k)
arrays; the checks mask out inapplicable entries, which report a reason
instead of failing, so corpus sweeps never abort. Evaluation.reports() and
Evaluation.discrepancies() give the `bounds` entries and discrepancies of one
pair as dicts; `bounds --format json` renders the entries' text straight
from the arrays.

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
    clique_number,
    independence_number,
)
from .eigen import sym_eigen
from .graphs import DistanceProfile, Graph, distance_profile, is_bipartite
from .matrices import generalized_distance_matrix

PROVEN = "proven"
CLAIMED = "claimed"

DEFAULT_TOL = 1e-8
EQ_TOL = 1e-6


# --- evaluation context and batched spectra ---------------------------------


class EvalContext:
    """Per-graph data the registry reads: the distance profile, given by
    corpus.blocks(), and on first use bipartiteness (off the profile's BFS
    levels), the clique number with the least and greatest transmission sum
    over the maximum cliques, and the independence number (each None when
    its search runs out of cliques.SEARCH_BUDGET nodes). spectra holds the
    eigenvalues of each alpha solve_spectra() has solved it at.
    """

    def __init__(self, graph: Graph, profile: DistanceProfile):
        self.graph = graph
        self.profile = profile
        self.spectra: dict[float, np.ndarray] = {}

    @cached_property
    def bipartite(self) -> bool:
        return is_bipartite(self.graph, self.profile) is not None

    def values(self, alpha: float) -> np.ndarray:
        """Eigenvalues of D_alpha, descending; KeyError if unsolved at alpha."""
        return self.spectra[alpha]

    def spread(self, alpha: float) -> float:
        v = self.values(alpha)
        return float(v[0] - v[-1])  # 0 for a single vertex

    @cached_property
    def cliques(self) -> Optional[tuple[int, int, int]]:
        return clique_number(self.graph, self.profile.tr.tolist())

    @cached_property
    def independence(self) -> Optional[int]:
        return independence_number(self.graph)


def solve_spectra(ctxs: Sequence[EvalContext], alphas: Sequence[float]) -> None:
    """Solve every context at every alpha and keep each alpha's eigenvalues
    in its spectra.

    D_alpha is affine in alpha, so the contexts of one order get their
    (G*k, n, n) stack from one generalized_distance_matrix call on their
    stacked distances and transmissions, and share one eigvalsh call on it.
    Every entry is the same elementwise product as in a one-graph call.
    Callers give at most one block of corpus.blocks(), so a stack holds at
    most corpus.BLOCK_GRAPHS * k matrices.
    """
    want = tuple(dict.fromkeys(alphas))
    groups: dict[int, list[EvalContext]] = {}
    for ctx in ctxs:
        groups.setdefault(ctx.graph.n, []).append(ctx)
    for n, members in groups.items():
        # (G, 1, n, n) distances and (G, 1, n) transmissions give (G, k, n, n);
        # the stacked distances are freed before the eigensolve
        stack = generalized_distance_matrix(SimpleNamespace(
            dist=np.stack([ctx.profile.dist for ctx in members])[:, None],
            tr=np.stack([ctx.profile.tr for ctx in members])[:, None]), want).reshape(-1, n, n)
        for ctx, v in zip(members, sym_eigen(stack).reshape(len(members), -1, n)):
            ctx.spectra.update(zip(want, v))


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

    formula maps the block columns (see _columns) to the bound on column
    compares, broadcastable to (G, k). checks are the (mask, reason)
    conditions of the inequality in reporting order: order, then
    requirement, then alpha domain, after the search budget where a
    requirement reads omega or indep. Each mask maps the columns to where
    its condition is met; the entry applies where all are met, and
    otherwise reports the reason of the first that is not. claimed maps the
    columns to a mask of values that are only claimed, as exact values if exact.
    """

    id: str
    direction: str  # "lower" | "upper"
    compares: str  # "spread", "top" (largest eigenvalue) or "bottom" (smallest)
    formula: Callable
    checks: tuple[tuple[Callable, str], ...] = (_order(2),)
    claimed: Callable = lambda c: False
    exact: bool = False


def _best_quotient_spread(u, v, m1, n, b, where):
    """The largest spread, and at least 0, of a 2x2 quotient of D_alpha with parts of m1
    and n - m1 vertices over the last-axis candidates `where` marks:
    sqrt((u - b v)^2 + 4 (m1 / n) b u v) / (m1 (n - m1)), with b = 1 - alpha and u, v
    exact integers. Where u v < 0 the second term takes at most a share m1 / n of the
    first, so nothing cancels."""
    root = _sqrt(np.square(u - b * v) + 4.0 * m1 / n * b * u * v) / (m1 * (n - m1))
    return np.max(root, axis=-1, initial=0.0, where=where)


def _mirsky(c):
    # Theorem 2.10, sqrt(2 |D_alpha|_F^2 - 2 (tr D_alpha)^2 / n), on centred transmissions
    return _sqrt(2.0 * (c.one_minus_a_sq * c.dist_sq_sum + c.a * c.a * c.tr_dev / c.n))


def _thm35(c):
    # star (bipartite with a dominating vertex): closed forms in n and alpha
    n, a = c.n, c.a
    star = np.where(a == 0.0, n + _sqrt(n * n - 3.0 * n + 3.0), _sqrt(
        c.a_minus_2_sq * (n * n - 2.0 * n + 2.0) + 2.0 * (n - 1.0) * (a * a - 2.0)))
    # otherwise the best quotient of a maximum-degree vertex with its
    # neighbours, pairwise at distance 2, against the rest, vertices on a last axis
    n, w, delta, b = (x[..., None] for x in (c.n, c.wiener, c.delta, 1.0 - c.a))
    s = c.closed_tr
    best = _best_quotient_spread(n * s - 2.0 * (delta + 1.0) * w, n * (s - 2.0 * delta * delta),
                                 delta + 1.0, n, b, c.degree == delta)
    return np.where(c.delta == c.n - 1, star, best)


def _thm38(c):
    n, a = c.n, c.a
    fl, ce = n // 2, n - n // 2
    at_zero = n + _sqrt(ce * ce + fl * fl - fl * ce)
    theta = _sqrt(
        n * n * a * a - 4.0 * (a - 1.0) * (fl * fl + ce * ce) - 4.0 * fl * ce
    ) + _sqrt(9.0 * a * a - 20.0 * a + 12.0)
    half = (a * (n - 3.0) + 2.0 * n - 6.0 + theta) / 2.0
    return np.where(a == 0.0, at_zero, half)


def _thm41(c):
    n, w, omega, b = (x[..., None] for x in (c.n, c.wiener, c.omega, 1.0 - c.a))
    s = c.clique_tr
    best = _best_quotient_spread(n * s - 2.0 * omega * w, n * (s - omega * (omega - 1.0)),
                                 omega, n, b, ~np.isnan(s))
    return np.where(c.omega == c.n, (1.0 - c.a) * c.n, best)


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
    return np.where(a == 0.0, at_zero, half)


REGISTRY: tuple[Entry, ...] = (
    Entry("thm24_lower", "lower", "spread",
          lambda c: np.abs(c.a * c.tr_range - (1.0 - c.a) * c.spread0)),
    Entry("thm24_upper", "upper", "spread", lambda c: c.a * c.tr_range + (1.0 - c.a) * c.spread0),
    Entry("ineq24_radius_lower", "lower", "top", lambda c: c.a * c.tr_min + (1.0 - c.a) * c.top0),
    Entry("ineq24_radius_upper", "upper", "top", lambda c: c.a * c.tr_max + (1.0 - c.a) * c.top0),
    Entry("ineq25_smallest_lower", "lower", "bottom",
          lambda c: c.a * c.tr_min + (1.0 - c.a) * c.bottom0),
    Entry("ineq25_smallest_upper", "upper", "bottom",
          lambda c: c.a * c.tr_max + (1.0 - c.a) * c.bottom0),
    Entry("thm25_lower", "lower", "spread",
          lambda c: c.n / (c.n - 1.0) * c.top - 2.0 * c.a * c.wiener / (c.n - 1.0)),
    Entry("thm26_lower", "lower", "spread",
          lambda c: c.top - _sqrt((c.power_sum - c.top * c.top) / (c.n - 1.0))),
    Entry("cor27_lower", "lower", "spread",
          lambda c: (2.0 * c.wiener - _sqrt((c.n * c.n * c.power_sum - 4.0 * c.wiener * c.wiener)
                                            / (c.n - 1.0))) / c.n),
    Entry("thm28_lower", "lower", "spread",
          lambda c: 2.0 / c.n * _sqrt(c.n * c.one_minus_a_sq * c.dist_sq_sum
                                      + c.a * c.a * c.tr_dev)),
    Entry("mirsky_upper", "upper", "spread", _mirsky),
    Entry("thm210_upper", "upper", "spread", _mirsky),
    Entry("halfrange_radius_upper", "upper", "spread", lambda c: c.top, checks=(_order(2), _HALF)),
    Entry("thm35_bipartite_lower", "lower", "spread", _thm35, checks=(_order(3), _BIPARTITE),
          claimed=lambda c: (c.delta == c.n - 1) & (c.a != 0.0), exact=True),
    Entry("thm38_bipartite_lower", "lower", "spread", _thm38,
          checks=(_order(3), _BIPARTITE, _ZERO_OR_HALF), claimed=lambda c: c.a != 0.0),
    Entry("thm41_clique_lower", "lower", "spread", _thm41,
          checks=(_CLIQUES_SEARCHED, _order(3), _CLIQUE)),
    Entry("thm43_independence_lower", "lower", "spread", _thm43,
          checks=(_INDEPENDENCE_SEARCHED, _order(3), _INDEPENDENT, _ZERO_OR_HALF),
          claimed=lambda c: c.a != 0.0),
)

BOUND_IDS = tuple(e.id for e in REGISTRY)
_UPPER = np.array([e.direction == "upper" for e in REGISTRY])[:, None, None]
_EXACT = np.array([e.exact for e in REGISTRY])[:, None, None]


def _padded(rows: list) -> np.ndarray:
    """Ragged per-graph rows as one (G, 1, width) array, NaN past the end
    of each row."""
    lengths = np.array([len(r) for r in rows])
    out = np.full((len(rows), lengths.max()), np.nan)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.concatenate(rows)
    return out[:, None, :]


def _columns(ctxs: Sequence[EvalContext], alphas: Sequence[float]) -> SimpleNamespace:
    """What the formulas read: the alpha row (1, k), per-graph columns
    (G, 1), the extreme eigenvalues (G, k) at the alphas and (G, 1) at 0
    from the contexts' spectra, per-vertex arrays (G, 1, width), NaN-padded,
    and the (G, 1, 2) least and greatest transmission sums over the maximum
    cliques."""

    def col(xs):
        return np.array(xs, dtype=float)[:, None]

    c = SimpleNamespace(a=np.array(alphas, dtype=float)[None, :])
    # squares of alpha-only terms keep Python's pow, so values match the
    # scalar formulas to the last bit
    c.a_minus_2_sq = np.array([(a - 2.0) ** 2 for a in alphas])[None, :]
    c.one_minus_a_sq = np.array([(1.0 - a) ** 2 for a in alphas])[None, :]
    c.n = col([ctx.graph.n for ctx in ctxs])
    c.bipartite = np.array([ctx.bipartite for ctx in ctxs])[:, None]
    c.wiener = col([ctx.profile.wiener for ctx in ctxs])
    c.dist_sq_sum = col([ctx.profile.dist_sq_sum for ctx in ctxs])
    # per-vertex columns: degree, closed-neighbourhood transmission sum, transmission
    c.degree = _padded([ctx.profile.degree for ctx in ctxs])
    c.closed_tr = _padded([ctx.profile.closed_tr for ctx in ctxs])
    c.tr = _padded([ctx.profile.tr for ctx in ctxs])
    # exact: sum tr^2 < 2**53 at the order cap, and n sum tr^2 - (sum tr)^2 in Python ints
    tr_sq = np.nansum(c.tr * c.tr, axis=-1)
    c.tr_dev = col([ctx.graph.n * int(s) - 4 * ctx.profile.wiener ** 2
                    for ctx, s in zip(ctxs, tr_sq[:, 0].tolist())])
    c.delta = np.nanmax(c.degree, axis=-1)
    c.tr_min, c.tr_max = np.nanmin(c.tr, axis=-1), np.nanmax(c.tr, axis=-1)
    c.tr_range = c.tr_max - c.tr_min
    # NaN where a search ran out of budget: thm41 or thm43 does not apply.
    # thm41 reads the least and greatest transmission sum of a maximum clique
    cliques = np.array([(np.nan,) * 3 if ctx.cliques is None else ctx.cliques for ctx in ctxs],
                       dtype=float)
    c.omega, c.clique_tr = cliques[:, :1], cliques[:, None, 1:]
    c.indep = col([np.nan if ctx.independence is None else ctx.independence for ctx in ctxs])
    ends = np.array([[(ctx.spectra[a][0], ctx.spectra[a][-1]) for a in (*alphas, 0.0)]
                     for ctx in ctxs])
    c.top, c.bottom = ends[:, :-1, 0], ends[:, :-1, 1]
    c.spread = c.top - c.bottom
    c.top0, c.bottom0 = ends[:, -1:, 0], ends[:, -1:, 1]
    c.spread0 = c.top0 - c.bottom0
    # sum of squared eigenvalues: (1-a)^2 sum_{i,j} d^2 + a^2 sum Tr^2
    c.power_sum = c.one_minus_a_sq * c.dist_sq_sum + c.a * c.a * tr_sq
    return c


def entry_report(e: Entry, applicable, failed, claimed, bound, actual, holds, gap,
                 equality) -> dict:
    """One `bounds` entry; where e does not apply, its values are null and
    its reason is that of check `failed`."""
    if not applicable:
        bound = actual = holds = gap = equality = None
    return {"bound_id": e.id, "direction": e.direction, "bound": bound, "actual": actual,
            "holds": holds, "gap": gap, "equality": equality, "applicable": applicable,
            "reason": None if applicable else e.checks[failed][1],
            "status": CLAIMED if claimed else PROVEN}


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
        return [entry_report(*row) for row in zip(REGISTRY, *columns)]

    def discrepancies(self, g: int, j: int) -> list[dict]:
        """The claimed formulas that missed on graph g at alpha j, in
        registry order: informational, never soundness."""
        return [{"bound_id": BOUND_IDS[i],
                 "kind": "exact-value mismatch" if REGISTRY[i].exact else "bound violated",
                 "claimed": float(self.bound[i, g, j]), "actual": float(self.actual[i, g, j]),
                 "gap": float(self.gap[i, g, j])}
                for i in np.flatnonzero(self.claimed_miss[:, g, j])]


def evaluate(
    ctxs: Sequence[EvalContext], alphas: Sequence[float], tol: float = DEFAULT_TOL
) -> Evaluation:
    """Every registry entry on every (context, alpha) pair, as arrays.

    ctxs is at most one block of corpus.blocks(), never empty, and the
    per-vertex columns are padded to its largest order. The spectra come
    from one solve_spectra() call; those at alpha = 0, which thm24 and
    ineq24/25 read at every alpha, join the same batch when 0 is not among
    the alphas.
    """
    shape = (len(REGISTRY), len(ctxs), len(alphas))
    bound, actual = np.zeros(shape), np.zeros(shape)
    applicable, claimed = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    failed = np.zeros(shape, dtype=np.int8)
    solve_spectra(ctxs, [*alphas, 0.0])
    c = _columns(ctxs, alphas)
    # masked-out entries (n = 1, a star in the general branch, ...) may divide
    # by zero; their values are never read. A huge tol may overflow the
    # cushion to inf, where every bound holds, as it should
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, e in enumerate(REGISTRY):
            bound[i], actual[i] = e.formula(c), getattr(c, e.compares)
            # met counts the leading checks that hold: the index of the
            # first unmet one where the entry does not apply
            ok, met = True, 0
            for mask, _ in e.checks:
                ok = ok & mask(c)
                met = met + ok
            applicable[i], failed[i] = ok, met
            claimed[i] = e.claimed(c)
        gap = actual - bound
        cushion = np.maximum(tol, tol * np.abs(bound))
        holds = applicable & np.where(_UPPER, gap <= cushion, gap >= -cushion)
        equality = applicable & (np.abs(gap) <= EQ_TOL)
    claimed &= applicable
    # a claimed exact value misses whenever it disagrees, a claimed
    # inequality only when it is outright violated
    missed = claimed & np.where(_EXACT, ~equality, ~holds)
    return Evaluation(bound, actual, gap, applicable, failed, claimed, holds, equality,
                      applicable & ~claimed & ~holds, missed)


def evaluate_all(g: Graph, alpha: float, ctx: Optional[EvalContext] = None) -> list[dict]:
    """The `bounds` entries of (g, alpha), inapplicable ones included: the
    one-graph, one-alpha view of evaluate()."""
    ctx = EvalContext(g, distance_profile(g)) if ctx is None else ctx
    return evaluate([ctx], [alpha]).reports(0, 0)

