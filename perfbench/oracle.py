"""Independent checks of dspread's CLI output.

Nothing here imports dspread. Distances come from this module's own BFS,
spectra from ``numpy.linalg.eigvalsh`` of an independently built
``alpha*Tr + (1-alpha)*D``, and the expected `sweep` discrepancies from the
paper's three claimed formulas evaluated on those spectra. No check compares
bytes: floats are compared with a relative tolerance, because a change of
eigensolver legitimately moves the 12th printed digit.

check_output() returns a list of problems; an empty list means the job's
output is correct.
"""

from __future__ import annotations

import json
import math
from collections import deque
from functools import lru_cache

import numpy as np

from gen import ALPHAS, decode_graph6

SPECTRUM_RTOL = 1e-9
BOUND_TOL = 1e-8  # dspread's default bound tolerance (SPREAD_TOL)
EQ_TOL = 1e-6  # dspread's equality tolerance for exact-value claims
REGISTRY_SIZE = 17
# a claimed bound this close to its miss threshold may fall either way
# between two correct eigensolvers, so it is not held against the output;
# well above their disagreement (~1e-13 at the sweep's n <= 12), well below
# BOUND_TOL, so an exact equality (gap 0) still counts as held
BORDERLINE = 1e-9


class Graph:
    """What the checks need to know about one input graph."""

    def __init__(self, line: str):
        self.graph6 = line
        self.n, edges = decode_graph6(line)
        self.adj = [set() for _ in range(self.n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.dist = np.array([self._bfs(s) for s in range(self.n)], dtype=float)
        self.tr = self.dist.sum(axis=1)
        self.wiener = int(self.tr.sum()) // 2
        self.diameter = int(self.dist.max())
        self.spectra = {a: self._spectrum(a) for a in ALPHAS}

    def _bfs(self, source: int) -> list[int]:
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if min(dist) < 0:
            raise ValueError(f"input graph {self.graph6} is disconnected")
        return dist

    def _spectrum(self, alpha: float) -> np.ndarray:
        m = (1.0 - alpha) * self.dist + alpha * np.diag(self.tr)
        return np.linalg.eigvalsh(m)[::-1]

    def spread(self, alpha: float) -> float:
        s = self.spectra[alpha]
        return float(s[0] - s[-1])

    def bipartite(self) -> bool:
        # connected: 2-colourable iff every edge joins BFS layers of both parities
        depth = self.dist[0]
        return all((depth[u] + depth[v]) % 2 == 1 for u in range(self.n) for v in self.adj[u])

    def independence(self) -> int:
        masks = [sum(1 << w for w in self.adj[v]) for v in range(self.n)]

        def best(cand: int) -> int:
            if not cand:
                return 0
            v = (cand & -cand).bit_length() - 1
            rest = cand & ~(1 << v)
            return max(best(rest), 1 + best(rest & ~masks[v]))

        return best((1 << self.n) - 1)


@lru_cache(maxsize=None)
def graph(line: str) -> Graph:
    return Graph(line)


def _close(got, want, scale: float) -> bool:
    return abs(float(got) - float(want)) <= SPECTRUM_RTOL * max(1.0, scale)


def _sqrt(x: float) -> float:
    return math.sqrt(max(x, 0.0))


def claimed_misses(g: Graph) -> tuple[set, set]:
    """(graph6, bound_id, alpha) keys the claimed registry entries must miss,
    and the borderline keys that may go either way.

    The three claimed formulas are the paper's: thm35 on the star (an exact
    value for alpha > 0), thm38 on bipartite graphs and thm43 via the
    independence number (lower bounds for alpha >= 1/2).
    """
    must, maybe = set(), set()
    n = g.n
    if n < 3:
        return must, maybe
    bip = g.bipartite()
    star = bip and max(len(a) for a in g.adj) == n - 1
    t = g.independence()
    for a in ALPHAS:
        spread = g.spread(a)
        if star and a > 0.0:
            bound = _sqrt((a - 2.0) ** 2 * (n * n - 2.0 * n + 2.0) + 2.0 * (n - 1.0) * (a * a - 2.0))
            _classify(must, maybe, (g.graph6, "thm35_bipartite_lower", a),
                      abs(spread - bound) - EQ_TOL)
        if a < 0.5:
            continue
        theta9 = _sqrt(9.0 * a * a - 20.0 * a + 12.0)
        if bip:
            fl, ce = n // 2, n - n // 2
            theta = _sqrt(n * n * a * a - 4.0 * (a - 1.0) * (fl * fl + ce * ce) - 4.0 * fl * ce)
            bound = (a * (n - 3.0) + 2.0 * n - 6.0 + theta + theta9) / 2.0
            _classify_lower(must, maybe, (g.graph6, "thm38_bipartite_lower", a), bound, spread)
        if t >= 2:
            c = n - t
            theta = ((5.0 - 4.0 * a) * c * c + (6.0 * a * n - 8.0 * n - 4.0 * a + 6.0) * c
                     + n * n * (a - 2.0) ** 2 + 2.0 * n * a - 4.0 * n + 1.0)
            bound = (n + t + a * (n - 3.0) - 5.0 + _sqrt(theta) + theta9) / 2.0
            _classify_lower(must, maybe, (g.graph6, "thm43_independence_lower", a), bound, spread)
    return must, maybe


def _classify_lower(must: set, maybe: set, key, bound: float, actual: float) -> None:
    cushion = max(BOUND_TOL, BOUND_TOL * abs(bound))
    _classify(must, maybe, key, (bound - actual) - cushion)


def _classify(must: set, maybe: set, key, excess: float) -> None:
    """excess > 0 is a miss; within BORDERLINE of 0 it is either."""
    if abs(excess) <= BORDERLINE:
        maybe.add(key)
    elif excess > 0:
        must.add(key)


def _check_base(r: dict, g: Graph, alpha: float) -> list[str]:
    where = f"{g.graph6}@{alpha:g}"
    if r.get("graph6") != g.graph6 or r.get("n") != g.n or r.get("alpha") != alpha:
        return [f"{where}: report is for {r.get('graph6')}@{r.get('alpha')}"]
    out = []
    if r.get("wiener") != g.wiener or r.get("diameter") != g.diameter:
        out.append(f"{where}: wiener/diameter {r.get('wiener')}/{r.get('diameter')}, "
                   f"expected {g.wiener}/{g.diameter}")
    want = g.spectra[alpha]
    got = r.get("spectrum")
    scale = float(np.abs(want).max())
    if not isinstance(got, list) or len(got) != g.n:
        out.append(f"{where}: spectrum has the wrong length")
    elif not all(_close(x, y, scale) for x, y in zip(got, want)):
        out.append(f"{where}: spectrum differs from eigvalsh")
    if not _close(r.get("spread", math.nan), g.spread(alpha), scale):
        out.append(f"{where}: spread {r.get('spread')} differs from {g.spread(alpha)}")
    return out


def _check_reports(doc: dict, job: dict) -> list[str]:
    reports = doc.get("reports")
    keys = [(line, a) for line in job["graphs"] for a in ALPHAS]
    if not isinstance(reports, list) or len(reports) != len(keys):
        return [f"expected {len(keys)} reports"]
    out = []
    for (line, a), r in zip(keys, reports):
        out += _check_base(r, graph(line), a)
        if job["command"] == "bounds":
            ids = {b.get("bound_id") for b in r.get("bounds", [])}
            if len(r.get("bounds", [])) != REGISTRY_SIZE or len(ids) != REGISTRY_SIZE:
                out.append(f"{line}@{a:g}: expected {REGISTRY_SIZE} distinct bound entries")
    return out


def _check_sweep(doc: dict, job: dict) -> list[str]:
    out = []
    graphs = [graph(line) for line in job["graphs"]]
    if doc.get("graphs_seen") != len(graphs) or doc.get("skipped_disconnected") != 0:
        out.append(f"graphs_seen {doc.get('graphs_seen')}, expected {len(graphs)}")
    if doc.get("alphas") != list(ALPHAS):
        out.append(f"alphas {doc.get('alphas')}")
    applicable = [t.get("applicable", -1) for t in doc.get("bounds", {}).values()]
    if not applicable or max(applicable) != job["pairs"] or min(applicable) < 0:
        out.append(f"no registry entry counts all {job['pairs']} pairs")
    if doc.get("violations") != []:
        out.append(f"{len(doc.get('violations') or [])} proven-bound violations")
    got = {(d["graph6"], d["bound_id"], d["alpha"]) for d in doc.get("discrepancies", [])}
    must, maybe = set(), set()
    for g in graphs:
        m, b = claimed_misses(g)
        must |= m
        maybe |= b
    if must - got:
        out.append(f"missing discrepancies {sorted(must - got)[:3]}")
    if got - must - maybe:
        out.append(f"unexpected discrepancies {sorted(got - must - maybe)[:3]}")
    return out


def check_output(job: dict, rc, text: str) -> list[str]:
    """Problems with one job's exit code and stdout; [] when correct."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("command") != job["command"]:
        return ["stdout is not a report of the job's command"]
    try:
        return _check_sweep(doc, job) if job["command"] == "sweep" else _check_reports(doc, job)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
