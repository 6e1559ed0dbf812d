"""Independent validation of extraction outcomes.

Deliberately shares no logic with the engine: every check is a direct
transcription of the definition being claimed, built from graph-core
primitives only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, components_after_removal
from .outcomes import (
    ForbiddenInduced,
    HamiltonPath,
    Outcome,
    SmallCut,
    ToughnessWitness,
)


@dataclass(frozen=True)
class ValidationReport:
    """``code`` names the first failed check, or is "ok" on acceptance."""

    code: str = "ok"
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.code == "ok"


# every accepting check returns this one report; it is frozen, so sharing is safe
_ACCEPTED = ValidationReport()


def _check_hamilton(G: Graph, u: int, v: int, outcome: HamiltonPath) -> ValidationReport:
    """The path visits each of G's n vertices once, runs from u to v, and
    each consecutive pair is an edge. Once the spanning check has passed,
    every entry is a vertex of G, so the edge test reads the adjacency
    bitmasks directly."""
    path = outcome.path
    if len(path) != G.n or set(path) != set(range(G.n)):
        return ValidationReport("not-spanning", "path does not visit every vertex once")
    if path[0] != u or path[-1] != v:
        return ValidationReport("endpoints", f"endpoints are not ({u},{v})")
    adj = G.adj
    for a, b in zip(path, path[1:]):
        if not adj[a] >> b & 1:
            return ValidationReport("missing-edge", f"consecutive pair {a}-{b} not adjacent")
    return _ACCEPTED


def _check_small_cut(G: Graph, k: int, outcome: SmallCut) -> ValidationReport:
    cut = outcome.cut
    if any(not 0 <= w < G.n for w in cut):
        return ValidationReport("range", "cut contains a non-vertex")
    if len(cut) >= 2 * k:
        return ValidationReport("too-large", f"|cut|={len(cut)} is not below {2 * k}")
    if len(components_after_removal(G, cut)) < 2:
        return ValidationReport("not-a-cut", "removal leaves fewer than two components")
    return _ACCEPTED


def _check_forbidden(G: Graph, k: int, outcome: ForbiddenInduced) -> ValidationReport:
    z, w = outcome.edge
    members = outcome.independent
    if any(not 0 <= c < G.n for c in (z, w, *members)):
        return ValidationReport("range", "witness contains a non-vertex")
    if len(members) != k:
        return ValidationReport("size", f"independent set has {len(members)} vertices, not {k}")
    if z == w or z in members or w in members:
        return ValidationReport("distinct", "the k+2 witness vertices are not distinct")
    if not G.has_edge(z, w):
        return ValidationReport("no-edge", f"claimed edge {z}-{w} is absent")
    for c in members:
        if G.has_edge(c, z) or G.has_edge(c, w):
            return ValidationReport("edge-adjacent", f"vertex {c} touches the edge")
    for c in members:
        for d in members:
            if c < d and G.has_edge(c, d):
                return ValidationReport("not-independent", f"edge {c}-{d} inside the set")
    return _ACCEPTED


def _check_toughness(G: Graph, outcome: ToughnessWitness) -> ValidationReport:
    cut = outcome.cut
    members = outcome.independent
    if any(not 0 <= c < G.n for c in cut | members):
        return ValidationReport("range", "witness contains a non-vertex")
    if cut & members or cut | members != set(range(G.n)):
        return ValidationReport("partition", "cut and witness set do not partition V(G)")
    for c in members:
        for d in members:
            if c < d and G.has_edge(c, d):
                return ValidationReport("not-independent", f"edge {c}-{d} inside the set")
    comps = components_after_removal(G, cut)
    if len(comps) < 2:
        return ValidationReport("not-a-cut", "removal leaves fewer than two components")
    if len(cut) > len(comps):
        return ValidationReport(
            "ratio",
            f"|cut|={len(cut)} exceeds the component count {len(comps)}; "
            "toughness <= 1 not established",
        )
    if len(cut) < 1:
        return ValidationReport("empty-cut", "toughness witness needs a nonempty cut")
    return _ACCEPTED


def validate_outcome(G: Graph, k: int, u: int, v: int, outcome: Outcome) -> ValidationReport:
    """Accept iff the outcome proves what its kind claims about (G,k,u,v);
    a claim about k < 1 or about a pair that is not two distinct vertices
    of G is rejected whatever its kind."""
    if k < 1:
        return ValidationReport("bad-k", f"k={k} is below 1")
    if not (0 <= u < G.n and 0 <= v < G.n) or u == v:
        return ValidationReport("bad-pair", f"({u},{v}) is not two distinct vertices of G")
    if isinstance(outcome, HamiltonPath):
        return _check_hamilton(G, u, v, outcome)
    if isinstance(outcome, SmallCut):
        return _check_small_cut(G, k, outcome)
    if isinstance(outcome, ForbiddenInduced):
        return _check_forbidden(G, k, outcome)
    if isinstance(outcome, ToughnessWitness):
        return _check_toughness(G, outcome)
    return ValidationReport("unknown-kind", "not a validatable outcome")
