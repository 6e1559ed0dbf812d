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


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; ``adj[u]`` is the neighbor bitmask of u and
    ``full_mask`` the vertex set.

    ``Graph(n, adj)`` validates adjacency that comes from outside the
    package, such as a sweep's input graphs: 1 <= n <= 62, one row per
    vertex, no neighbor >= n, no loop, and symmetry. The builders
    ``build_graph`` and ``graph_from_code``, and every family, graph6 word
    and sample that goes through them, check only their own input (edge
    endpoints and loops, the code's range, the ceiling), build symmetric
    loop-free rows by construction and fill the graph through ``_trusted``."""

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
            back = 1 << u
            if m & back:
                raise GraphInputError(f"loop at vertex {u}")
            for v in bits(m):
                if not self.adj[v] & back:
                    raise GraphInputError(f"asymmetric adjacency {u}-{v}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """The graph with rows ``adj``, from a builder that has checked its
        own input and made the rows symmetric, loop-free and within
        1 <= n <= 62. It fills the slots through their descriptors, which
        skips the frozen ``__setattr__`` and ``__post_init__``'s walk over
        every edge."""
        G = object.__new__(cls)
        _set_n(G, n)
        _set_adj(G, adj)
        return G

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> list[int]:
        return list(bits(self.adj[u]))

    def edges(self) -> list[tuple[int, int]]:
        return list(edges_within(self.adj, self.full_mask))

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def is_complete(self) -> bool:
        full = self.full_mask
        return all(self.adj[u] == full ^ (1 << u) for u in range(self.n))


# the slots' own setters, which bypass the frozen ``__setattr__``
_set_n, _set_adj = (vars(Graph)[name].__set__ for name in ("n", "adj"))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates coalesce silently."""
    if n < 1:
        raise GraphInputError("graph needs at least one vertex")
    if n > MAX_VERTICES:  # before the rows are allocated
        raise CapacityError(f"n={n} exceeds the ceiling of {MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphInputError(f"loop ({u},{u}) is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._trusted(n, tuple(adj))


def components_masks(adj: tuple[int, ...], remaining: int) -> list[int]:
    """Connected components of the subgraph induced on ``remaining``,
    ordered by their lowest vertex. A frontier fill: each vertex is
    expanded once, adding its neighbors not yet reached, and the fill
    stops as soon as no vertex is left to reach. It is the package's one
    component fill: the engine's off-path components, the validator
    (through ``components_after_removal``), ``is_connected``, Hamilton
    backtracking's pruning and the brute-force connectivity oracle.
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
                if not rem:  # nothing left to reach: comp is complete
                    break
                frontier |= new
        out.append(comp)
    return out


def edges_within(adj: tuple[int, ...], mask: int) -> Iterator[tuple[int, int]]:
    """The edges of G[mask] as (z, w) with z < w, in lexicographic order,
    yielded as they are needed: the package's one edge walk, which
    ``Graph.edges`` lists, the forbidden-pattern search walks edge by edge,
    and the engine's rules 2, 4 and 7 read for a set's first inner edge."""
    for z in bits(mask):
        for w in bits(adj[z] & mask >> z + 1 << z + 1):
            yield z, w


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

# every family kind, with the number of arguments it takes besides n
FAMILY_ARITY = {"complete": 0, "bipartite": 2, "cycle": 0, "path": 0, "gnp": 1, "exhaustive": 0}


@dataclass(frozen=True)
class FamilySpec:
    """A family of graphs on n vertices: K_n, C_n or P_n (``complete``,
    ``cycle``, ``path``), K_{s,t} (``bipartite``, args (s, t)), seeded
    G(n, p) samples (``gnp``, args (p,)), or every labeled graph in code
    order (``exhaustive``). Like ``Graph``, a spec checks itself when built;
    sweeps and the CLI ask it, never its kind, how to count and build graphs."""

    kind: str
    n: int
    args: tuple = ()

    def __post_init__(self):
        if self.kind not in FAMILY_ARITY:
            raise GraphInputError(f"unknown family kind {self.kind!r}")
        if len(self.args) != FAMILY_ARITY[self.kind]:
            raise GraphInputError(f"{self.kind} takes {FAMILY_ARITY[self.kind]} args, not {self.args}")
        sizes = (self.n, *self.args) if self.kind == "bipartite" else (self.n,)
        if not all(isinstance(x, int) for x in sizes):
            raise GraphInputError(f"n and part sizes must be ints, got {sizes}")
        if self.kind == "bipartite" and (min(self.args) < 0 or sum(self.args) != self.n):
            raise GraphInputError(f"part sizes {self.args} must be non-negative and sum to n={self.n}")
        if self.kind == "gnp" and not isinstance(self.args[0], Fraction):
            raise GraphInputError(f"p must be an exact Fraction, got {self.args[0]!r}")
        if self.kind == "gnp" and not 0 <= self.args[0] <= 1:
            raise GraphInputError("p must lie in [0,1]")
        least = 3 if self.kind == "cycle" else 1
        if self.n < least:
            raise GraphInputError(f"n must be at least {least}")
        ceiling = EXHAUSTIVE_CEILING if self.kind == "exhaustive" else MAX_VERTICES
        if self.n > ceiling:
            raise CapacityError(f"n={self.n} exceeds the ceiling of {ceiling}")

    @property
    def seeded(self) -> bool:
        return self.kind == "gnp"

    def count(self, samples: int) -> int:
        """How many graphs a sweep taking ``samples`` from each seeded family takes."""
        if self.seeded:
            return samples
        if self.kind == "exhaustive":
            return 1 << (self.n * (self.n - 1) // 2)
        return 1

    def graph(self, i: int = 0, seed: int = 0) -> Graph:
        """Graph i; a seeded family draws it from ``seed``'s stream."""
        if self.kind == "complete":
            return complete_graph(self.n)
        if self.kind == "bipartite":
            return complete_bipartite(*self.args)
        if self.kind == "cycle":
            return cycle_graph(self.n)
        if self.kind == "path":
            return path_graph(self.n)
        if self.seeded:
            return gnp_graph(self.n, self.args[0], seed, i)
        return graph_from_code(self.n, i)

    def task(self, i: int, seed: int) -> tuple:
        """Graph i as a sweep task, less its index. A code or a sample is
        built by the worker that runs the task; a single graph is built here."""
        if self.kind == "exhaustive":
            return ("code", self.n, i)
        if self.seeded:
            p = self.args[0]
            return ("gnp", self.n, p.numerator, p.denominator, seed, i)
        G = self.graph()
        return ("graph", G.n, G.adj)


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
    return Graph._trusted(n, tuple(adj))


def exhaustive_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, in code order."""
    yield from generate(FamilySpec("exhaustive", n))


def generate(spec: FamilySpec) -> Iterator[Graph]:
    """Stream the graphs of a deterministic family, in the order a sweep
    takes them. A seeded family has no seed of its own: draw its samples
    with ``spec.graph(i, seed)``."""
    if spec.seeded:
        raise GraphInputError(f"{spec.kind} families are sampled with a seed")
    for i in range(spec.count(1)):
        yield spec.graph(i)


def parse_family(text: str) -> FamilySpec:
    """Split a CLI family spec such as ``complete:5``, ``bipartite:4,4`` or
    ``gnp:10,1/2`` into a ``FamilySpec``, which checks it. A malformed or
    refused spec raises ``GraphInputError`` naming the text, and one past
    its kind's ceiling ``CapacityError``, before any graph is built."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "bipartite":
            s, t = (int(x) for x in rest.split(","))
            return FamilySpec(kind, s + t, (s, t))
        if kind == "gnp":
            n_text, p_text = rest.split(",")
            return FamilySpec(kind, int(n_text), (Fraction(p_text),))
        return FamilySpec(kind, int(rest))
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphInputError(f"bad family spec {text!r}: {exc}") from exc
