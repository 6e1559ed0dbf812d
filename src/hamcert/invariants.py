"""Exact oracles for the four graph properties the toolkit reasons about:
vertex connectivity, rational toughness, freeness from the induced
edge-plus-k-isolated-vertices pattern, and hamiltonian-connectivity.

Everything here is deterministic (lowest-index tie-breaks) and exact;
toughness comparisons never touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import CapacityError, GraphInputError
from .graph import Graph, bits, components_masks, mask_of
from .outcomes import ForbiddenInduced

TOUGHNESS_CEILING = 16  # subset enumeration; 2^16 cuts


# --- vertex connectivity ----------------------------------------------------


def _local_connectivity(G: Graph, s: int, t: int, cap: int) -> int:
    """Max number of internally disjoint s-t paths (s,t non-adjacent),
    by unit-capacity augmentation on the vertex-split digraph.
    Stops early once the value reaches ``cap``.
    """
    n = G.n
    # nodes: 2u = u_in, 2u+1 = u_out
    capacity: dict[tuple[int, int], int] = {}
    for u in range(n):
        capacity[(2 * u, 2 * u + 1)] = 1 if u not in (s, t) else n
        for v in bits(G.adj[u]):
            capacity[(2 * u + 1, 2 * v)] = n
    out_arcs: dict[int, list[int]] = {x: [] for x in range(2 * n)}
    for (a, b) in capacity:
        out_arcs[a].append(b)
        out_arcs.setdefault(b, []).append(a)  # residual direction
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        parent = {source: -1}
        queue = [source]
        while queue and sink not in parent:
            nxt = []
            for a in queue:
                for b in out_arcs[a]:
                    if b not in parent and capacity.get((a, b), 0) > 0:
                        parent[b] = a
                        nxt.append(b)
            queue = nxt
        if sink not in parent:
            break
        b = sink
        while b != source:
            a = parent[b]
            capacity[(a, b)] = capacity.get((a, b), 0) - 1
            capacity[(b, a)] = capacity.get((b, a), 0) + 1
            b = a
        flow += 1
    return flow


def vertex_connectivity(G: Graph) -> int:
    """kappa(G) via minimum vertex cuts between non-adjacent pairs;
    kappa(K_n) = n - 1 by convention.
    """
    n = G.n
    if G.is_complete():
        return n - 1
    best = n - 1
    for s in range(n):
        for t in range(s + 1, n):
            if not G.has_edge(s, t):
                best = min(best, _local_connectivity(G, s, t, best))
                if best == 0:
                    return 0
    return best


def vertex_connectivity_bruteforce(G: Graph) -> int:
    """Independent oracle: smallest separator by direct subset search."""
    n = G.n
    if G.is_complete():
        return n - 1
    verts = range(n)
    for size in range(n - 1):
        for sub in combinations(verts, size):
            rm = mask_of(sub)
            if len(components_masks(G.adj, G.full_mask & ~rm)) >= 2:
                return size
    return n - 1


# --- toughness --------------------------------------------------------------


@dataclass(frozen=True)
class Toughness:
    """Exact toughness; infinite exactly for complete graphs."""

    is_infinite: bool
    value: Fraction | None = None
    cut: frozenset[int] = frozenset()
    component_count: int = 0

    def __ge__(self, t: Fraction) -> bool:
        return self.is_infinite or self.value >= t

    def describe(self) -> str:
        if self.is_infinite:
            return "inf"
        return f"{self.value.numerator}/{self.value.denominator}"


def _scan_cuts(G: Graph, kappa_cap: int, exact: bool) -> tuple[int, int, int, int, int]:
    """The one subset-enumeration kernel behind every cut-based oracle.

    Visits removal sets S by ascending size, so the first separator gives
    kappa exactly; returns ``(min(kappa, kappa_cap), num, den, cut, c)``
    with num/den the least |S|/c(G-S) met, first reached at ``cut``
    (den = 0: no separator met). Exact mode stops once kappa is known and
    |S|/(n-|S|), which bounds every later ratio, reaches the best ratio.
    Threshold mode decides only whether toughness <= 1: it stops once kappa
    is settled up to the cap and a cut with |S| <= c(G-S) is met or |S| > n/2.
    """
    n = G.n
    if n > TOUGHNESS_CEILING:
        raise CapacityError(
            f"exact cut scan is capped at n={TOUGHNESS_CEILING}, got n={n}"
        )
    if G.is_complete():
        return min(n - 1, kappa_cap), 0, 0, 0, 0
    adj = G.adj
    full = G.full_mask
    kappa = -1
    num = den = cut = best_c = 0

    def settled(size: int) -> bool:
        if kappa < 0 and size < kappa_cap:
            return False
        if exact:
            return den > 0 and size * den >= num * (n - size)
        return (den > 0 and num <= den) or 2 * size > n

    vertex_bits = [1 << v for v in range(n)]
    for size in range(n - 1):
        if settled(size):
            break
        for sub in combinations(vertex_bits, size):
            rm = sum(sub)
            c = len(components_masks(adj, full & ~rm))
            if c >= 2:
                if kappa < 0:
                    kappa = size
                if not den or size * den < num * c:
                    num, den, cut, best_c = size, c, rm, c
                    if settled(size):
                        break
    return (min(kappa, kappa_cap) if kappa >= 0 else kappa_cap), num, den, cut, best_c


def cut_scan(G: Graph) -> tuple[int, Toughness]:
    """Exact connectivity (smallest disconnecting set) and exact toughness
    with its witness cut, from one scan of vertex subsets. Among cuts of
    least ratio the witness has the fewest vertices, then the
    lexicographically first sorted vertex list.
    """
    kappa, num, den, cut, c = _scan_cuts(G, G.n - 1, exact=True)
    if not den:
        return kappa, Toughness(is_infinite=True)
    return kappa, Toughness(False, Fraction(num, den), frozenset(bits(cut)), c)


def toughness(G: Graph) -> Toughness:
    """Exact minimization of |S| / c(G-S) over all cuts, with witness."""
    return cut_scan(G)[1]


def is_t_tough(G: Graph, t: Fraction) -> bool:
    if t <= 0:
        raise GraphInputError("t must be positive")
    return toughness(G) >= Fraction(t)


# --- forbidden induced pattern ---------------------------------------------


def _independent_subset(G: Graph, candidates: int, k: int) -> int | None:
    """Lowest-first backtracking search for an independent k-set inside
    the candidate mask; returns a mask or None.
    """
    if k == 0:
        return 0
    if candidates.bit_count() < k:
        return None
    v = (candidates & -candidates).bit_length() - 1
    rest = candidates & ~(1 << v)
    taken = _independent_subset(G, rest & ~G.adj[v], k - 1)
    if taken is not None:
        return taken | (1 << v)
    return _independent_subset(G, rest, k)


def find_induced_p2_plus_kp1(G: Graph, k: int) -> ForbiddenInduced | None:
    """Search for an induced pattern: one edge (z,w) plus an independent
    k-set avoiding the closed neighborhoods of z and w.
    """
    if k < 1:
        raise GraphInputError("k must be at least 1")
    for z, w in G.edges():
        candidates = G.full_mask & ~G.adj[z] & ~G.adj[w] & ~(1 << z) & ~(1 << w)
        found = _independent_subset(G, candidates, k)
        if found is not None:
            return ForbiddenInduced(edge=(z, w), independent=frozenset(bits(found)))
    return None


def find_forbidden_naive(G: Graph, k: int) -> bool:
    """Independent oracle: does any (k+2)-subset induce exactly one edge
    whose removal leaves k isolated vertices (i.e. the forbidden pattern)?
    """
    for sub in combinations(range(G.n), k + 2):
        sub_mask = mask_of(sub)
        degs = [(G.adj[v] & sub_mask).bit_count() for v in sub]
        if sum(degs) == 2 and max(degs) == 1:
            return True
    return False


# --- hamilton paths ---------------------------------------------------------


def hamilton_path_between(G: Graph, u: int, v: int) -> list[int] | None:
    """Hamilton (u,v)-path by backtracking with connectivity and degree
    pruning; lowest-index-first, deterministic.
    """
    if u == v:
        raise GraphInputError("endpoints must be distinct")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise GraphInputError("endpoint outside vertex range")
    n = G.n
    adj = G.adj
    full = G.full_mask
    vbit = 1 << v
    path = [u]

    def feasible(current: int, visited: int) -> bool:
        remaining = (full & ~visited) | (1 << current)
        comps = components_masks(adj, remaining)
        if len(comps) > 1:
            return False
        for w in bits(remaining & ~(1 << current) & ~vbit):
            if (adj[w] & remaining).bit_count() < 2:
                return False
        return bool(adj[v] & remaining & ~vbit) or remaining == (1 << current) | vbit

    def search(current: int, visited: int) -> bool:
        if visited == full:
            return current == v
        if visited | vbit == full:
            if adj[current] & vbit:
                path.append(v)
                return True
            return False
        if not feasible(current, visited):
            return False
        for w in bits(adj[current] & ~visited & ~vbit):
            path.append(w)
            if search(w, visited | (1 << w)):
                return True
            path.pop()
        return False

    if search(u, 1 << u):
        return path
    return None


@dataclass(frozen=True)
class HamiltonConnectivityReport:
    is_hamiltonian_connected: bool
    failing_pair: tuple[int, int] | None = None
    checked_pairs: int = 0


def is_hamiltonian_connected(G: Graph, stop_at_failure: bool = True) -> HamiltonConnectivityReport:
    if G.n < 3:
        raise GraphInputError("hamiltonian-connectivity needs n >= 3")
    failing = None
    checked = 0
    for u in range(G.n):
        for v in range(u + 1, G.n):
            checked += 1
            if hamilton_path_between(G, u, v) is None:
                failing = (u, v)
                if stop_at_failure:
                    return HamiltonConnectivityReport(False, failing, checked)
    return HamiltonConnectivityReport(failing is None, failing, checked)


# --- combined hypothesis report ---------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    k: int
    connectivity: int
    is_2k_connected: bool
    forbidden_free: bool
    forbidden_witness: ForbiddenInduced | None
    toughness: Toughness
    toughness_exceeds_one: bool
    all_hypotheses: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "all_hypotheses",
            self.is_2k_connected and self.forbidden_free and self.toughness_exceeds_one,
        )


def hypothesis_check(G: Graph, k: int) -> HypothesisReport:
    """Evaluate all three hypotheses of the main theorem for (G, k)."""
    if k < 1:
        raise GraphInputError("k must be at least 1")
    kappa, tough = cut_scan(G)
    witness = find_induced_p2_plus_kp1(G, k)
    return HypothesisReport(
        k=k,
        connectivity=kappa,
        is_2k_connected=kappa >= 2 * k,
        forbidden_free=witness is None,
        forbidden_witness=witness,
        toughness=tough,
        toughness_exceeds_one=tough.is_infinite or tough.value > 1,
    )
