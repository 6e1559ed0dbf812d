"""Exact oracles for the four graph properties the toolkit reasons about:
vertex connectivity, rational toughness, freeness from the induced
edge-plus-k-isolated-vertices pattern, and hamiltonian-connectivity.

Everything here is deterministic (lowest-index tie-breaks) and exact;
toughness comparisons never touch floating point.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from operator import or_, xor

from .errors import CapacityError, GraphInputError
from .graph import Graph, bits, components_masks, edges_within, mask_of
from .outcomes import ForbiddenInduced

# the cut kernel caches 3n + 1 ints of at most 2^n bits per n and reads
# neighbour lists from two byte tables; Hamilton backtracking shares the cap
TOUGHNESS_CEILING = 16


# --- vertex connectivity ----------------------------------------------------


def vertex_connectivity(G: Graph) -> int:
    """kappa(G), the size of a smallest disconnecting set, read off
    ``cut_scan``; kappa(K_n) = n - 1 by convention. Capped at n = 16 like
    the scan: a larger graph raises ``CapacityError``.
    """
    return cut_scan(G)[0]


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

    def describe(self) -> str:
        if self.is_infinite:
            return "inf"
        return f"{self.value.numerator}/{self.value.denominator}"


@lru_cache(maxsize=None)
def _subset_planes(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Bit-parallel indicators over the 2**n vertex sets of an n-vertex
    graph, one 2**n-bit int each, bit R standing for the set with mask R:
    ``planes[v]`` has bit R set when v is in R, ``layers[s]`` when R has
    s members, ``tops[v]`` when v is R's highest member. Built once per n
    (3n + 1 ints) in one doubling loop: step v adds v to each set of the
    vertices below v by moving it up 2**v, and the sets so made are
    ``tops[v]``.
    """
    planes, layers, tops = [], [1], []
    for v in range(n):
        w = 1 << v
        top = ((1 << w) - 1) << w
        planes = [p | p << w for p in planes] + [top]
        layers = [a | b << w for a, b in zip(layers + [0], [0] + layers)]
        tops.append(top)
    return tuple(planes), tuple(layers), tuple(tops)


# the set bit positions of every byte value, and of every byte value moved
# up by 8: a neighbour list with n <= TOUGHNESS_CEILING is two lookups
_BYTE_BITS = [list(bits(m)) for m in range(256)]
_HIGH_BYTE_BITS = [[v + 8 for v in low] for low in _BYTE_BITS]


def _reversed(mask: int, n: int) -> int:
    """``mask``'s n low bits in reverse order: bit v moves to bit n-1-v."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def _close(
    reach: list[int], within: list[int] | tuple[int, ...], nbrs: list[list[int]], adj: Sequence[int]
) -> list[int]:
    """Grow each ``reach[v]``, one bit per vertex set, by the reach of v's
    neighbours, kept within ``within[v]``, until nothing grows; returns
    ``reach``, changed in place. ``dirty`` holds the vertices still to
    read: every vertex at first, and each growth of ``reach[v]`` marks v's
    neighbours (``adj[v]``) again. Sweeps read the dirty vertices in index
    order until none is left, so a vertex none of whose neighbours grew
    since its last read is not read again. Reach only grows, so this is
    the same least fixpoint a sweep over every vertex reaches. Every
    cut-kernel closure runs here."""
    dirty = (1 << len(within)) - 1
    while dirty:
        v = 0
        for w in within:
            if dirty >> v & 1:
                dirty ^= 1 << v
                if w:  # reach[v] lies within w, so with w empty it stays empty
                    r = reach[v]
                    for u in nbrs[v]:
                        r |= reach[u]
                    r &= w
                    if r != reach[v]:
                        reach[v] = r
                        dirty |= adj[v]
            v += 1
    return reach


def _peel(
    rest: Sequence[int], reach: list[int], nbrs: list[list[int]], adj: Sequence[int]
) -> tuple[list[int], list[int]]:
    """One peel of the cut kernel: ``_close`` grows ``reach[v]`` within
    ``rest[v]`` from the seeds ``reach``, and ``rest ^= reach`` takes the
    reached component off; returns ``(rest, below)``, ``below[v]`` the union
    of ``rest[u]`` for u < v. So ``below[-1]`` is the next mark, the sets
    with a vertex left, and ``w ^ (w & low)`` for w, low in ``rest`` and
    ``below`` seeds the next closure at each set's lowest vertex left
    (``w & ~low`` would give the same, but its negative operand costs
    CPython a copy of the whole plane)."""
    rest = list(map(xor, rest, _close(reach, rest, nbrs, adj)))
    return rest, list(accumulate(rest, or_, initial=0))


def _scan_cuts(G: Graph, exact: bool) -> tuple[int, int, int, int]:
    """The one cut kernel behind every cut-based oracle; returns
    ``(kappa, num, den, cut)``, with kappa = n - 1 for a complete graph.

    Stage 1 counts the components of G[R] for every vertex set R at once,
    on the 2**n-bit planes of ``_subset_planes`` taken with vertex v at
    bit n-1-v, so that a lower index R is a lexicographically earlier cut
    S = V - R. ``rest[v]`` starts as the sets that hold v and ``reach[v]``
    as those whose lowest member is v; ``_close`` grows ``reach[v]``
    within ``rest[v]``, and then ``reach[v]`` holds the sets in which v
    lies in the component of the lowest vertex left. ``_peel`` takes that
    component off ``rest``: the sets with a vertex left make the next
    mark, and the next closure runs within the new ``rest[v]`` from each
    set's lowest vertex left. So ``marks[c - 2]`` is the sets whose G[R]
    has at least c components, ``marks[0]`` the disconnected ones, and
    kappa is the least |S| whose layer meets it.

    Stage 2 goes up from |S| = kappa, keeping the least ratio num/den =
    |S|/c first reached at ``cut``. A layer's most components c is one
    more than the number of marks it meets, and its witness the lowest
    index among its sets in ``marks[c - 2]``, so the witness is the least
    ratio, then the fewest vertices, then the first sorted vertex list;
    den is 0 if no S separates. A further mark is peeled only when a layer
    meets every mark built so far, up to n - 1 marks (n components) in
    exact mode. Exact mode stops once |S|/(n-|S|), which bounds every
    later ratio, reaches the best. Threshold mode decides only whether
    toughness is at most 1: it returns before any peel if a separator has
    at most 2 vertices, since c >= 2 (num, den and cut then name no
    particular cut), peels at most n // 2 - 1 marks, as a layer it visits
    has |S| <= n/2 and so never needs more components than that, and
    stops at a cut with |S| <= c(G-S), or once |S| > n/2.
    """
    n = G.n
    if n > TOUGHNESS_CEILING:
        raise CapacityError(
            f"exact cut scan is capped at n={TOUGHNESS_CEILING}, got n={n}"
        )
    planes, layers, tops = _subset_planes(n)
    adj = G.adj
    nbrs = [_BYTE_BITS[a & 255] + _HIGH_BYTE_BITS[a >> 8] for a in adj]
    rest, below = _peel(planes[::-1], list(tops[::-1]), nbrs, adj)  # vertex v at bit n-1-v
    marks = [below[-1]]
    kappa = 0  # the least |S| whose layer meets marks[0]
    while kappa < n - 1 and not marks[0] & layers[n - kappa]:
        kappa += 1
    if not exact and marks[0] and kappa <= 2:  # a separator with c >= 2 >= |S|
        return kappa, kappa, 2, 0
    cap = n - 1 if exact else n // 2 - 1  # marks for up to n or n/2 components

    num = den = best = 0
    for s in range(kappa, n - 1):
        if exact:
            if den and s * den >= num * (n - s):
                break
        elif (den and num <= den) or 2 * s > n:
            break
        layer = layers[n - s]  # every S of s vertices, as R = V - S
        # the layer's most components: it meets marks[c - 2] but not
        # marks[c - 1]; a layer that meets every mark so far peels the next
        c = 1
        while layer & marks[c - 1]:
            c += 1
            if c > len(marks):
                if len(marks) >= cap:
                    break
                rest, below = _peel(rest, [w ^ (w & low) for w, low in zip(rest, below)], nbrs, adj)
                marks.append(below[-1])
        if c > 1 and (not den or s * den < num * c):
            num, den, best = s, c, layer & marks[c - 2]
    # best ^ (best - 1) has every bit up to best's lowest set; best & -best
    # would copy the whole 2**n-bit plane into a negative operand
    cut = _reversed(((1 << n) - 1) ^ ((best ^ (best - 1)).bit_length() - 1), n) if den else 0
    return kappa, num, den, cut


def cut_scan(G: Graph) -> tuple[int, Toughness]:
    """Exact connectivity (smallest disconnecting set) and exact toughness
    with its witness cut, from one run of the cut kernel. Among cuts of
    least ratio the witness has the fewest vertices, then the
    lexicographically first sorted vertex list.
    """
    kappa, num, den, cut = _scan_cuts(G, exact=True)
    if not den:
        return kappa, Toughness(is_infinite=True)
    return kappa, Toughness(False, Fraction(num, den), frozenset(bits(cut)), den)


def quick_hypotheses(G: Graph) -> tuple[int, bool]:
    """(kappa, toughness > 1) from the threshold mode of the cut kernel
    behind ``cut_scan``, which finds kappa exactly and stops as soon as it
    knows whether toughness exceeds 1: the light sweep's hypothesis scan."""
    kappa, num, den, _ = _scan_cuts(G, exact=False)
    return kappa, not den or num > den


def toughness(G: Graph) -> Toughness:
    """Exact minimization of |S| / c(G-S) over all cuts, with witness."""
    return cut_scan(G)[1]


# --- forbidden induced pattern ---------------------------------------------


def _first_independent(
    adj: tuple[int, ...], k: int, order: Sequence[int], allowed: int, i: int = 0
) -> int | None:
    """The first independent k-set, as a mask, among the vertices of
    ``allowed``, all of which appear in ``order`` at position i or later:
    include-first backtracking in ``order``, pruned once fewer than k
    vertices are left. Its first leaf takes each allowed vertex that sees
    none taken before it, so wherever that greedy pick reaches k vertices
    it is the answer; the search is complete, so None means no k-set exists.
    """
    if not k:
        return 0
    if allowed.bit_count() < k:
        return None
    v = order[i]
    while not allowed >> v & 1:
        i += 1
        v = order[i]
    rest = allowed & ~(1 << v)
    taken = _first_independent(adj, k - 1, order, rest & ~adj[v], i + 1)
    if taken is not None:
        return taken | 1 << v
    return _first_independent(adj, k, order, rest, i + 1)


def forbidden_at(
    G: Graph, k: int, edge: tuple[int, int], order: Sequence[int], allowed: int
) -> ForbiddenInduced | None:
    """The edge plus the first independent k-set in ``order`` drawn from
    ``allowed``, a mask of vertices of ``order``, less the edge's ends and
    their neighbours; None if there is none. The one forbidden-witness
    builder: ``find_induced_p2_plus_kp1`` calls it once per edge with every
    vertex, lowest first, and the engine at every rule that certifies this
    pattern with that rule's candidate list.
    """
    z, w = edge
    adj = G.adj
    found = _first_independent(adj, k, order, allowed & ~(adj[z] | adj[w] | 1 << z | 1 << w))
    if found is None:
        return None
    return ForbiddenInduced(edge=edge, independent=frozenset(bits(found)))


def find_induced_p2_plus_kp1(G: Graph, k: int) -> ForbiddenInduced | None:
    """Search for an induced pattern: the first edge (z,w) in ``G.edges()``
    order with an independent k-set avoiding the closed neighborhoods of
    z and w, and its lowest-first such set. ``edges_within`` yields the
    edges in that order as they are needed, since most searches stop at
    an early edge.
    """
    if k < 1:
        raise GraphInputError("k must be at least 1")
    order, full = range(G.n), G.full_mask
    for edge in edges_within(G.adj, full):
        found = forbidden_at(G, k, edge, order, full)
        if found is not None:
            return found
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
    pruning; lowest-index-first, deterministic. Capped at
    ``TOUGHNESS_CEILING`` vertices before any search.
    """
    if G.n > TOUGHNESS_CEILING:
        raise CapacityError(
            f"Hamilton backtracking is capped at n={TOUGHNESS_CEILING}, got n={G.n}"
        )
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


def is_hamiltonian_connected(G: Graph) -> HamiltonConnectivityReport:
    """Hamilton path between every pair; stops at the first pair without one."""
    if G.n < 3:
        raise GraphInputError("hamiltonian-connectivity needs n >= 3")
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if hamilton_path_between(G, u, v) is None:
                return HamiltonConnectivityReport(False, (u, v))
    return HamiltonConnectivityReport(True)


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

    @property
    def all_hypotheses(self) -> bool:
        return self.is_2k_connected and self.forbidden_free and self.toughness_exceeds_one


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
