"""Immutable simple graphs on dense vertex ids 0..n-1.

Adjacency is kept as one int bitmask per vertex, which keeps every
exponential oracle in this package fast at desk scale (n <= 62).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import CapacityError, GraphInputError

MAX_VERTICES = 62  # short-form graph6 ceiling; everything here is desk scale
EXHAUSTIVE_CEILING = 7  # 2^21 labeled graphs on 7 vertices


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[u]`` is the neighbor bitmask of u."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphInputError("graph needs at least one vertex")
        if self.n > MAX_VERTICES:
            raise CapacityError(f"n={self.n} exceeds the ceiling of {MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphInputError("adjacency length does not match n")
        for u, m in enumerate(self.adj):
            if m >> self.n:
                raise GraphInputError(f"vertex {u} has a neighbor >= n")
            if m & (1 << u):
                raise GraphInputError(f"loop at vertex {u}")
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if not self.adj[v] & (1 << u):
                    raise GraphInputError(f"asymmetric adjacency {u}-{v}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> list[int]:
        return list(bits(self.adj[u]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def is_complete(self) -> bool:
        full = self.full_mask
        return all(self.adj[u] == full ^ (1 << u) for u in range(self.n))

    def complement_candidates(self, u: int) -> int:
        """Mask of vertices distinct from and non-adjacent to u."""
        return self.full_mask & ~self.adj[u] & ~(1 << u)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates coalesce silently."""
    if n < 1:
        raise GraphInputError("graph needs at least one vertex")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphInputError(f"loop ({u},{u}) is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def components_masks(adj: tuple[int, ...], remaining: int) -> list[int]:
    """Connected components of the subgraph induced on ``remaining``,
    ordered by their lowest vertex. A frontier fill: each vertex is
    expanded once, adding its neighbors not yet reached.
    """
    out = []
    rem = remaining
    while rem:
        comp = frontier = rem & -rem
        rem ^= comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & rem
            if new:
                rem ^= new
                comp |= new
                frontier |= new
        out.append(comp)
    return out


def components_after_removal(G: Graph, removed: Iterable[int]) -> list[frozenset[int]]:
    """Components of G - S, ordered by their smallest vertex."""
    rm = mask_of(removed)
    if rm & ~G.full_mask:
        raise GraphInputError("removal set contains a vertex >= n")
    comps = components_masks(G.adj, G.full_mask & ~rm)
    return [frozenset(bits(c)) for c in comps]


def is_connected(G: Graph) -> bool:
    return len(components_masks(G.adj, G.full_mask)) <= 1


# --- graph families ---------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """One of: complete, bipartite, cycle, path, gnp, exhaustive."""

    kind: str
    n: int = 0
    s: int = 0
    t: int = 0
    p: Fraction = Fraction(0)
    seed: int = 0

    def describe(self) -> str:
        if self.kind == "bipartite":
            return f"bipartite:{self.s},{self.t}"
        if self.kind == "gnp":
            return f"gnp:{self.n},{self.p.numerator}/{self.p.denominator}"
        return f"{self.kind}:{self.n}"


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with parts {0..s-1} and {s..s+t-1}."""
    return build_graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs of K_n in lexicographic order; bit i of a graph
    code is the i-th pair."""
    if n > MAX_VERTICES:  # before building, so the cache stays small
        raise CapacityError(f"n={n} exceeds the ceiling of {MAX_VERTICES}")
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def gnp_graph(n: int, p: Fraction, seed: int, index: int = 0) -> Graph:
    """The ``index``-th G(n,p) sample of a seeded stream; exact-rational p."""
    if not 0 <= p <= 1:
        raise GraphInputError("p must lie in [0,1]")
    rng = random.Random(f"hamcert-gnp:{seed}:{index}")
    num, den = p.numerator, p.denominator
    edges = [(u, v) for u, v in _pairs(n) if rng.randrange(den) < num]
    return build_graph(n, edges)


def graph_from_code(n: int, code: int) -> Graph:
    """Labeled graph whose edge set is the bits of ``code`` over lexicographic pairs."""
    if n < 1:
        raise GraphInputError("graph needs at least one vertex")
    pairs = _pairs(n)
    if not 0 <= code < 1 << len(pairs):
        raise GraphInputError(f"graph code {code} is outside [0, 2^{len(pairs)}) for n={n}")
    adj = [0] * n
    while code:
        low = code & -code
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        code ^= low
    return Graph(n, tuple(adj))


def exhaustive_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, in code order."""
    if n > EXHAUSTIVE_CEILING:
        raise CapacityError(
            f"exhaustive enumeration is capped at n={EXHAUSTIVE_CEILING}, got n={n}"
        )
    for code in range(1 << (n * (n - 1) // 2)):
        yield graph_from_code(n, code)


def generate(spec: FamilySpec, samples: int | None = None) -> Iterator[Graph]:
    """Stream the graphs of a family; deterministic given the spec."""
    if spec.kind == "complete":
        yield complete_graph(spec.n)
    elif spec.kind == "bipartite":
        yield complete_bipartite(spec.s, spec.t)
    elif spec.kind == "cycle":
        yield cycle_graph(spec.n)
    elif spec.kind == "path":
        yield path_graph(spec.n)
    elif spec.kind == "gnp":
        count = 1 if samples is None else samples
        for i in range(count):
            yield gnp_graph(spec.n, spec.p, spec.seed, i)
    elif spec.kind == "exhaustive":
        yield from exhaustive_graphs(spec.n)
    else:
        raise GraphInputError(f"unknown family kind {spec.kind!r}")


def parse_family(text: str) -> FamilySpec:
    """Parse CLI family specs like ``complete:5``, ``bipartite:4,4``, ``gnp:10,1/2``."""
    kind, _, rest = text.partition(":")
    try:
        if kind in ("complete", "cycle", "path", "exhaustive"):
            return FamilySpec(kind=kind, n=int(rest))
        if kind == "bipartite":
            s, t = (int(x) for x in rest.split(","))
            return FamilySpec(kind=kind, n=s + t, s=s, t=t)
        if kind == "gnp":
            n_text, p_text = rest.split(",")
            return FamilySpec(kind=kind, n=int(n_text), p=Fraction(p_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphInputError(f"bad family spec {text!r}: {exc}") from exc
    raise GraphInputError(f"unknown family {kind!r}")
