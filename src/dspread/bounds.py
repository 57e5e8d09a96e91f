"""Spread bound registry: evaluate every registered bound on a (graph, alpha).

Each registry entry computes one displayed inequality on the spectral spread
(or on the extreme eigenvalues) of the generalized distance matrix and emits
a structured BoundReport. Inapplicable entries (wrong alpha range, not
bipartite, trivial clique number, ...) report applicable=False with a reason
instead of failing, so corpus sweeps never abort.

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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .eigen import sym_eigen
from .graphs import (
    Graph,
    complement,
    distance_profile,
    is_bipartite,
    is_connected,
    remove_edge,
)
from .matrices import frobenius_sq, generalized_distance_matrix, trace

PROVEN = "proven"
CLAIMED = "claimed"

DEFAULT_TOL = 1e-8
EQ_TOL = 1e-6
CLIQUE_SEARCH_CAP = 40


@dataclass
class BoundReport:
    """Outcome of one bound on one (graph, alpha) pair.

    gap is actual - bound (signed); holds follows the direction with a
    max(tol, tol*|bound|) cushion; equality means |gap| <= eq_tol.
    """

    bound_id: str
    direction: str  # "lower" | "upper"
    applicable: bool
    reason: Optional[str]
    status: str  # "proven" | "claimed"
    exact_claim: bool
    bound_value: Optional[float]
    actual_value: Optional[float]
    holds: Optional[bool]
    gap: Optional[float]
    equality: Optional[bool]

    def to_json(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "direction": self.direction,
            "bound": self.bound_value,
            "actual": self.actual_value,
            "holds": self.holds,
            "gap": self.gap,
            "equality": self.equality,
            "applicable": self.applicable,
            "reason": self.reason,
            "status": self.status,
        }


# --- exact clique / independence search ------------------------------------


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _maximal_cliques(masks: list[int], n: int) -> list[int]:
    """All maximal cliques as bitmasks (branch and bound with pivoting)."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        pivot, best = -1, -1
        m = pool
        while m:
            u = (m & -m).bit_length() - 1
            deg = (p & masks[u]).bit_count()
            if deg > best:
                best, pivot = deg, u
            m &= m - 1
        cand = p & ~masks[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            expand(r | bit, p & masks[v], x & masks[v])
            p &= ~bit
            x |= bit
            cand &= ~bit

    expand(0, (1 << n) - 1, 0)
    return out


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def clique_number(g: Graph, cap: int = CLIQUE_SEARCH_CAP) -> tuple[int, list[tuple[int, ...]]]:
    """Exact clique number together with every maximum clique."""
    if g.n > cap:
        raise ValueError(f"exact clique search capped at {cap} vertices, got {g.n}")
    cliques = _maximal_cliques(_adjacency_masks(g), g.n)
    omega = max(c.bit_count() for c in cliques)
    maxima = sorted(_mask_to_tuple(c) for c in cliques if c.bit_count() == omega)
    return omega, maxima


def independence_number(g: Graph, cap: int = CLIQUE_SEARCH_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with one maximum independent set."""
    t, sets = clique_number(complement(g), cap=cap)
    return t, sets[0]


# --- structural checks ------------------------------------------------------


def check_interlacing(
    parent_values: np.ndarray,
    child_values: np.ndarray,
    tol: float = DEFAULT_TOL,
    kind: str = "quotient",
) -> bool:
    """a_i >= b_i >= a_{n-r+i} within tol for descending eigenvalue vectors.

    Applies equally to quotient-matrix and principal-submatrix children; kind
    is informational only.
    """
    a = np.sort(np.asarray(parent_values, dtype=float))[::-1]
    b = np.sort(np.asarray(child_values, dtype=float))[::-1]
    n, r = len(a), len(b)
    if r > n:
        raise ValueError("child order exceeds parent order")
    for i in range(r):
        if b[i] > a[i] + tol or b[i] < a[n - r + i] - tol:
            return False
    return True


def check_edge_deletion_monotonicity(
    g: Graph, edge: tuple[int, int], alpha: float, tol: float = DEFAULT_TOL
) -> bool:
    """True when every eigenvalue weakly increases after deleting the edge.

    Only meaningful for 1/2 <= alpha <= 1 and when the deletion keeps the
    graph connected; out-of-range alpha or a bridge raises ValueError.
    """
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("monotonicity check requires alpha in [1/2, 1]")
    smaller = remove_edge(g, edge)
    if not is_connected(smaller):
        raise ValueError("edge deletion disconnects the graph")
    before = sym_eigen(
        generalized_distance_matrix(distance_profile(g), alpha), vectors=False
    ).values
    after = sym_eigen(
        generalized_distance_matrix(distance_profile(smaller), alpha), vectors=False
    ).values
    return bool(np.all(after >= before - tol))


# --- evaluation context -----------------------------------------------------


class EvalContext:
    """Per-graph cache shared across alphas during bound evaluation."""

    def __init__(self, graph: Graph):
        if not is_connected(graph):
            raise ValueError("requires connected graph")
        self.graph = graph
        self.profile = distance_profile(graph)
        self._spectra: dict[float, np.ndarray] = {}
        self._cliques: Optional[tuple[int, list[tuple[int, ...]]]] = None
        self._independence: Optional[int] = None
        self._bipartition = is_bipartite(graph)
        p = self.profile
        self.n = p.n
        self.wiener = p.wiener
        self.tr_min = float(p.tr.min())
        self.tr_max = float(p.tr.max())
        self.sum_d2_pairs = float((p.dist.astype(float) ** 2).sum()) / 2.0
        self.sum_tr_sq = float((p.tr.astype(float) ** 2).sum())

    def matrix(self, alpha: float) -> np.ndarray:
        return generalized_distance_matrix(self.profile, alpha)

    def values(self, alpha: float) -> np.ndarray:
        got = self._spectra.get(alpha)
        if got is None:
            got = sym_eigen(self.matrix(alpha), vectors=False).values
            self._spectra[alpha] = got
        return got

    def spread(self, alpha: float) -> float:
        v = self.values(alpha)
        return float(v[0] - v[-1]) if len(v) > 1 else 0.0

    @property
    def bipartite(self) -> bool:
        return self._bipartition is not None

    @property
    def cliques(self) -> tuple[int, list[tuple[int, ...]]]:
        if self._cliques is None:
            self._cliques = clique_number(self.graph)
        return self._cliques

    @property
    def independence(self) -> int:
        if self._independence is None:
            self._independence = independence_number(self.graph)[0]
        return self._independence

    def power_sum(self, alpha: float) -> float:
        """2(1-a)^2 sum_{i<j} d^2 + a^2 sum Tr^2, which equals sum of squared
        eigenvalues of the generalized distance matrix."""
        return (
            2.0 * (1.0 - alpha) ** 2 * self.sum_d2_pairs
            + alpha * alpha * self.sum_tr_sq
        )


# --- registry ---------------------------------------------------------------

_Eval = Callable[[EvalContext, float], tuple]
# evaluators return (applicable, reason, status, exact_claim, bound, actual)


def _needs_order(ctx: EvalContext, k: int) -> Optional[str]:
    return None if ctx.n >= k else f"requires n >= {k}"


def _sqrt(x: float) -> float:
    return math.sqrt(max(x, 0.0))


def _ev_thm24_lower(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    bound = abs(a * (ctx.tr_max - ctx.tr_min) - (1.0 - a) * ctx.spread(0.0))
    return True, None, PROVEN, False, bound, ctx.spread(a)


def _ev_thm24_upper(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    bound = a * (ctx.tr_max - ctx.tr_min) + (1.0 - a) * ctx.spread(0.0)
    return True, None, PROVEN, False, bound, ctx.spread(a)


def _ev_ineq24_lower(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    bound = a * ctx.tr_min + (1.0 - a) * float(ctx.values(0.0)[0])
    return True, None, PROVEN, False, bound, float(ctx.values(a)[0])


def _ev_ineq24_upper(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    bound = a * ctx.tr_max + (1.0 - a) * float(ctx.values(0.0)[0])
    return True, None, PROVEN, False, bound, float(ctx.values(a)[0])


def _ev_ineq25_lower(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    bound = a * ctx.tr_min + (1.0 - a) * float(ctx.values(0.0)[-1])
    return True, None, PROVEN, False, bound, float(ctx.values(a)[-1])


def _ev_ineq25_upper(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    bound = a * ctx.tr_max + (1.0 - a) * float(ctx.values(0.0)[-1])
    return True, None, PROVEN, False, bound, float(ctx.values(a)[-1])


def _ev_thm25_lower(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    n = ctx.n
    bound = n / (n - 1.0) * float(ctx.values(a)[0]) - 2.0 * a * ctx.wiener / (n - 1.0)
    return True, None, PROVEN, False, bound, ctx.spread(a)


def _ev_thm26_lower(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    top = float(ctx.values(a)[0])
    bound = top - _sqrt((ctx.power_sum(a) - top * top) / (ctx.n - 1.0))
    return True, None, PROVEN, False, bound, ctx.spread(a)


def _ev_cor27_lower(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    n, w = ctx.n, ctx.wiener
    bound = (2.0 * w - _sqrt((n * n * ctx.power_sum(a) - 4.0 * w * w) / (n - 1.0))) / n
    return True, None, PROVEN, False, bound, ctx.spread(a)


def _ev_thm28_lower(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    n, w = ctx.n, ctx.wiener
    bound = 2.0 / n * _sqrt(n * ctx.power_sum(a) - 4.0 * a * a * w * w)
    return True, None, PROVEN, False, bound, ctx.spread(a)


def _ev_mirsky_upper(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    m = ctx.matrix(a)
    bound = _sqrt(2.0 * frobenius_sq(m) - 2.0 / ctx.n * trace(m) ** 2)
    return True, None, PROVEN, False, bound, ctx.spread(a)


def _ev_thm210_upper(ctx, a):
    # same value as mirsky_upper but assembled from the distance and
    # transmission power sums instead of the matrix itself
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    bound = _sqrt(2.0 * ctx.power_sum(a) - 8.0 / ctx.n * (a * ctx.wiener) ** 2)
    return True, None, PROVEN, False, bound, ctx.spread(a)


def _ev_halfrange_upper(ctx, a):
    if r := _needs_order(ctx, 2):
        return False, r, PROVEN, False, None, None
    if a < 0.5:
        return False, "alpha outside [1/2,1]", PROVEN, False, None, None
    return True, None, PROVEN, False, float(ctx.values(a)[0]), ctx.spread(a)


def _ev_thm35(ctx, a):
    if r := _needs_order(ctx, 3):
        return False, r, PROVEN, False, None, None
    if not ctx.bipartite:
        return False, "not bipartite", PROVEN, False, None, None
    g, p = ctx.graph, ctx.profile
    n, w = ctx.n, ctx.wiener
    degs = [g.degree(v) for v in range(n)]
    delta = max(degs)
    if delta == n - 1:
        # bipartite with a dominating vertex means the star
        if a == 0.0:
            bound = n + _sqrt(n * n - 3.0 * n + 3.0)
            return True, None, PROVEN, True, bound, ctx.spread(a)
        bound = _sqrt(
            (a - 2.0) ** 2 * (n * n - 2.0 * n + 2.0) + 2.0 * (n - 1.0) * (a * a - 2.0)
        )
        return True, None, CLAIMED, True, bound, ctx.spread(a)
    m1 = delta + 1.0
    m2 = n - delta - 1.0
    best = 0.0
    for v in range(n):
        if degs[v] != delta:
            continue
        k = p.avg_dist_deg[v] * delta + float(p.tr[v]) - 2.0 * delta * delta
        ai = (
            a * n * k
            + 2.0 * n * delta * delta
            + m1 * (2.0 * w - 2.0 * p.avg_dist_deg[v] * delta - 2.0 * float(p.tr[v]))
        )
        bi = (
            2.0 * a * w * k
            + 4.0 * w * delta * delta
            - (p.avg_dist_deg[v] * delta + float(p.tr[v])) ** 2
        )
        best = max(best, _sqrt(ai * ai - 4.0 * bi * m1 * m2) / (m1 * m2))
    return True, None, PROVEN, False, best, ctx.spread(a)


def _ev_thm38(ctx, a):
    if r := _needs_order(ctx, 3):
        return False, r, PROVEN, False, None, None
    if not ctx.bipartite:
        return False, "not bipartite", PROVEN, False, None, None
    n = ctx.n
    fl, ce = n // 2, n - n // 2
    if a == 0.0:
        bound = n + _sqrt(ce * ce + fl * fl - fl * ce)
        return True, None, PROVEN, False, bound, ctx.spread(a)
    if 0.5 <= a <= 1.0:
        theta = _sqrt(
            n * n * a * a - 4.0 * (a - 1.0) * (fl * fl + ce * ce) - 4.0 * fl * ce
        ) + _sqrt(9.0 * a * a - 20.0 * a + 12.0)
        bound = (a * (n - 3.0) + 2.0 * n - 6.0 + theta) / 2.0
        return True, None, CLAIMED, False, bound, ctx.spread(a)
    return False, "alpha outside {0} ∪ [1/2,1]", PROVEN, False, None, None


def _ev_thm41(ctx, a):
    if r := _needs_order(ctx, 3):
        return False, r, PROVEN, False, None, None
    omega, maxima = ctx.cliques
    if omega < 2:
        return False, "clique number < 2", PROVEN, False, None, None
    n, w = ctx.n, ctx.wiener
    if omega == n:
        return True, None, PROVEN, True, (1.0 - a) * n, ctx.spread(a)
    best = 0.0
    for cl in maxima:
        si = float(ctx.profile.tr[list(cl)].sum())
        # trace term: the (1-a) factor scales only n*(omega-1), not 2W --
        # this is what the trace of the clique/rest quotient matrix works
        # out to, and the quotient-spread cross-check in the tests pins it
        ai = si * (a * n - 2.0 * omega) + omega * (2.0 * w + (1.0 - a) * n * (omega - 1.0))
        bi = (
            2.0 * w * omega * (omega - 1.0)
            - si * si
            + 2.0 * w * a * (si - omega * (omega - 1.0))
        )
        best = max(best, _sqrt(ai * ai - 4.0 * bi * omega * (n - omega)) / (omega * (n - omega)))
    return True, None, PROVEN, False, best, ctx.spread(a)


def _ev_thm43(ctx, a):
    if r := _needs_order(ctx, 3):
        return False, r, PROVEN, False, None, None
    t = ctx.independence
    if t < 2:
        return False, "independence number < 2", PROVEN, False, None, None
    n = ctx.n
    if a == 0.0:
        bound = (n + t + 1.0 + _sqrt((n - t + 1.0) ** 2 + 4.0 * t * t - 4.0 * t)) / 2.0
        return True, None, PROVEN, False, bound, ctx.spread(a)
    if 0.5 <= a <= 1.0:
        c = n - t  # clique side of the enclosing complete split graph
        theta = (
            (5.0 - 4.0 * a) * c * c
            + (6.0 * a * n - 8.0 * n - 4.0 * a + 6.0) * c
            + n * n * (a - 2.0) ** 2
            + 2.0 * n * a
            - 4.0 * n
            + 1.0
        )
        bound = (
            n + t + a * (n - 3.0) - 5.0 + _sqrt(theta) + _sqrt(9.0 * a * a - 20.0 * a + 12.0)
        ) / 2.0
        return True, None, CLAIMED, False, bound, ctx.spread(a)
    return False, "alpha outside {0} ∪ [1/2,1]", PROVEN, False, None, None


_REGISTRY: dict[str, tuple[str, _Eval]] = {
    "thm24_lower": ("lower", _ev_thm24_lower),
    "thm24_upper": ("upper", _ev_thm24_upper),
    "ineq24_radius_lower": ("lower", _ev_ineq24_lower),
    "ineq24_radius_upper": ("upper", _ev_ineq24_upper),
    "ineq25_smallest_lower": ("lower", _ev_ineq25_lower),
    "ineq25_smallest_upper": ("upper", _ev_ineq25_upper),
    "thm25_lower": ("lower", _ev_thm25_lower),
    "thm26_lower": ("lower", _ev_thm26_lower),
    "cor27_lower": ("lower", _ev_cor27_lower),
    "thm28_lower": ("lower", _ev_thm28_lower),
    "mirsky_upper": ("upper", _ev_mirsky_upper),
    "thm210_upper": ("upper", _ev_thm210_upper),
    "halfrange_radius_upper": ("upper", _ev_halfrange_upper),
    "thm35_bipartite_lower": ("lower", _ev_thm35),
    "thm38_bipartite_lower": ("lower", _ev_thm38),
    "thm41_clique_lower": ("lower", _ev_thm41),
    "thm43_independence_lower": ("lower", _ev_thm43),
}

BOUND_IDS = tuple(_REGISTRY)


def _build_report(
    bound_id: str, ctx: EvalContext, alpha: float, tol: float, eq_tol: float
) -> BoundReport:
    direction, fn = _REGISTRY[bound_id]
    applicable, reason, status, exact_claim, bound, actual = fn(ctx, alpha)
    if not applicable:
        return BoundReport(
            bound_id=bound_id,
            direction=direction,
            applicable=False,
            reason=reason,
            status=status,
            exact_claim=exact_claim,
            bound_value=None,
            actual_value=None,
            holds=None,
            gap=None,
            equality=None,
        )
    gap = actual - bound
    cushion = max(tol, tol * abs(bound))
    holds = gap >= -cushion if direction == "lower" else gap <= cushion
    return BoundReport(
        bound_id=bound_id,
        direction=direction,
        applicable=True,
        reason=None,
        status=status,
        exact_claim=exact_claim,
        bound_value=bound,
        actual_value=actual,
        holds=holds,
        gap=gap,
        equality=abs(gap) <= eq_tol,
    )


def evaluate_bound(
    bound_id: str,
    g: Graph,
    alpha: float,
    tol: float = DEFAULT_TOL,
    eq_tol: float = EQ_TOL,
    ctx: Optional[EvalContext] = None,
) -> BoundReport:
    """Evaluate a single registry entry on (g, alpha)."""
    if bound_id not in _REGISTRY:
        raise KeyError(f"unknown bound_id {bound_id!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if ctx is None:
        ctx = EvalContext(g)
    return _build_report(bound_id, ctx, alpha, tol, eq_tol)


def evaluate_all(
    g: Graph,
    alpha: float,
    tol: float = DEFAULT_TOL,
    eq_tol: float = EQ_TOL,
    ctx: Optional[EvalContext] = None,
) -> list[BoundReport]:
    """One report per registry entry, inapplicable ones included."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if ctx is None:
        ctx = EvalContext(g)
    return [_build_report(bid, ctx, alpha, tol, eq_tol) for bid in _REGISTRY]


def violations(reports: Sequence[BoundReport]) -> list[BoundReport]:
    """Applicable proven bounds that failed: the soundness failures."""
    return [r for r in reports if r.applicable and r.status == PROVEN and not r.holds]


def claimed_miss(r: BoundReport) -> bool:
    """An applicable claimed formula that missed: an exact-value claim
    whenever the numeric value disagrees, an inequality claim only when it
    is outright violated."""
    if not (r.applicable and r.status == CLAIMED):
        return False
    return not r.equality if r.exact_claim else not r.holds


def discrepancies(reports: Sequence[BoundReport]) -> list[dict]:
    """Mismatches of claimed formulas -- informational, never soundness."""
    return [
        {
            "bound_id": r.bound_id,
            "kind": "exact-value mismatch" if r.exact_claim else "bound violated",
            "claimed": r.bound_value,
            "actual": r.actual_value,
            "gap": r.gap,
        }
        for r in reports
        if claimed_miss(r)
    ]
