"""Structured graph families and their analytic generalized-distance spectra.

The generators use a canonical labeling (clique / first part at the low
indices) so positional partitions line up with the block structure the
closed forms assume. Every closed form is meant to be cross-checked against
the numeric solver (matches_numeric), whose spectrum is the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph


# kind -> (arity, parameter range check, message when the check fails,
# builder of the (order, edges) of the graph)
_FAMILIES = {
    "complete": (1, lambda n: n >= 1, "complete graph needs n >= 1",
                 lambda n: (n, [(u, v) for u in range(n) for v in range(u + 1, n)])),
    "kbip": (2, lambda r, s: r >= 1 and s >= 1, "complete bipartite graph needs r, s >= 1",
             lambda r, s: (r + s, [(u, r + v) for u in range(r) for v in range(s)])),
    "split": (2, lambda t, n: 1 <= t <= n - 1, "complete split graph needs 1 <= t <= n-1",
              # a clique on 0..t-1, joined to every later vertex
              lambda t, n: (n, [(u, v) for u in range(t) for v in range(u + 1, n)])),
    "path": (1, lambda n: n >= 1, "path needs n >= 1",
             lambda n: (n, [(i, i + 1) for i in range(n - 1)])),
    "cycle": (1, lambda n: n >= 3, "cycle needs n >= 3",
              lambda n: (n, [(i, (i + 1) % n) for i in range(n)])),
    "star": (1, lambda n: n >= 2, "star needs n >= 2",
             lambda n: (n, [(0, v) for v in range(1, n)])),
}


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance, e.g. kind="kbip", params=(2, 3).

    Construction checks the kind, the arity and the parameter ranges, so
    every spec names a graph that generate() can build.
    """

    kind: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        arity, in_range, need, _ = _FAMILIES[self.kind]
        if len(self.params) != arity:
            raise ValueError(
                f"family {self.kind!r} takes {arity} parameter(s), got {len(self.params)}"
            )
        if not in_range(*self.params):
            raise ValueError(need)


def parse_family(text: str) -> FamilySpec:
    """Parse CLI strings like "complete:4", "kbip:2,3", "split:2,5"."""
    kind, sep, rest = text.partition(":")
    kind = kind.strip()
    if not sep or kind not in _FAMILIES:
        raise ValueError(f"unknown family spec {text!r}")
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError:
        raise ValueError(f"non-integer parameter in family spec {text!r}") from None
    return FamilySpec(kind=kind, params=params)


def generate(spec: FamilySpec) -> Graph:
    """Build the named graph with canonical vertex labeling."""
    return Graph.from_edges(*_FAMILIES[spec.kind][3](*spec.params))


@dataclass
class AnalyticSpectrum:
    """Closed-form eigenvalues as (value, multiplicity) pairs."""

    entries: list[tuple[float, int]]

    @property
    def order(self) -> int:
        return sum(m for _, m in self.entries)

    def values(self) -> np.ndarray:
        """Expand to a descending eigenvalue vector."""
        out: list[float] = []
        for val, mult in self.entries:
            out.extend([val] * mult)
        return np.array(sorted(out, reverse=True))


def _entries(pairs: list[tuple[float, int]]) -> AnalyticSpectrum:
    kept = [(float(v), int(m)) for v, m in pairs if m > 0]
    kept.sort(key=lambda e: -e[0])
    return AnalyticSpectrum(entries=kept)


def spectrum_complete(n: int, alpha: float) -> AnalyticSpectrum:
    """{n-1 once, n*alpha-1 with multiplicity n-1}."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if n == 1:
        return _entries([(0.0, 1)])
    return _entries([(n - 1.0, 1), (n * alpha - 1.0, n - 1)])


def spectrum_complete_bipartite(r: int, s: int, alpha: float) -> AnalyticSpectrum:
    """Co-neighbor eigenvalues of both parts plus the two quotient roots."""
    if r < 1 or s < 1:
        raise ValueError("r, s >= 1 required")
    disc = (r * r + s * s) * (alpha - 2.0) ** 2 + 2.0 * r * s * (alpha * alpha - 2.0)
    root = math.sqrt(max(disc, 0.0))
    base = alpha * (s + r) + 2.0 * (s + r) - 4.0
    return _entries(
        [
            (alpha * (2 * r + s) - 2.0, r - 1),
            (alpha * (2 * s + r) - 2.0, s - 1),
            ((base + root) / 2.0, 1),
            ((base - root) / 2.0, 1),
        ]
    )


def spectrum_complete_split(t: int, n: int, alpha: float) -> AnalyticSpectrum:
    """Clique and independent-set co-neighbor eigenvalues plus quotient roots."""
    if not 1 <= t <= n - 1:
        raise ValueError("1 <= t <= n-1 required")
    theta = (
        (5.0 - 4.0 * alpha) * t * t
        + (6.0 * alpha * n - 8.0 * n - 4.0 * alpha + 6.0) * t
        + n * n * (alpha - 2.0) ** 2
        + 2.0 * n * alpha
        - 4.0 * n
        + 1.0
    )
    root = math.sqrt(max(theta, 0.0))
    base = 2.0 * n - t + alpha * n - 3.0
    return _entries(
        [
            (alpha * n - 1.0, t - 1),
            (alpha * (2 * n - t) - 2.0, n - t - 1),
            ((base + root) / 2.0, 1),
            ((base - root) / 2.0, 1),
        ]
    )


def sigma_complete_bipartite(a: int, n: int, alpha: float) -> float:
    """Discriminant of the two quotient eigenvalues of K_{a,n-a}."""
    return (
        n * n * alpha * alpha
        - (n * n + 2 * a * a - 2 * a * n) * 4.0 * alpha
        + 4.0 * (n * n - 3.0 * a * n + 3.0 * a * a)
    )


def matches_numeric(analytic: AnalyticSpectrum, values: np.ndarray) -> bool:
    """Multiset comparison of a closed-form spectrum against solver output,
    entrywise within 1e-8."""
    a = analytic.values()
    b = np.sort(np.asarray(values))[::-1]
    if len(a) != len(b):
        return False
    return bool(np.max(np.abs(a - b)) <= 1e-8)
