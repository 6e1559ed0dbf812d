import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import (
    Graph,
    GraphInputError,
    build_graph,
    complete_bipartite,
    complete_graph,
    components_after_removal,
    cut_scan,
    cycle_graph,
    exhaustive_graphs,
    find_induced_p2_plus_kp1,
    gnp_graph,
    graph_from_code,
    hamilton_path_between,
    hypothesis_check,
    is_hamiltonian_connected,
    path_graph,
    toughness,
    vertex_connectivity,
    vertex_connectivity_bruteforce,
)
from hamcert import invariants
from hamcert.graph import bits, components_masks, mask_of
from hamcert.invariants import (
    _close,
    _first_independent,
    _scan_cuts,
    _subset_planes,
    find_forbidden_naive,
    forbidden_at,
    quick_hypotheses,
)
from hamcert.outcomes import ForbiddenInduced


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def small_random_graphs(count, max_n=8, seed_tag="inv"):
    from random import Random

    rng = Random(f"hamcert-tests:{seed_tag}")
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        code = rng.getrandbits(n * (n - 1) // 2)
        out.append(graph_from_code(n, code))
    return out


def bruteforce_least_cut(G):
    """(|S|/c(G-S), |S|, sorted S, c(G-S)) least over every disconnecting
    S, so S is the toughness witness under the fewest-vertices-then-
    lexicographic tie-break; None when no S disconnects G."""
    best = None
    for size in range(G.n - 1):
        for cut in combinations(range(G.n), size):
            c = len(components_after_removal(G, cut))
            if c >= 2 and (best is None or (Fraction(size, c), size, cut) < best[:3]):
                best = (Fraction(size, c), size, cut, c)
    return best


class TestConnectivity:
    def test_known_values(self):
        assert vertex_connectivity(complete_graph(5)) == 4
        assert vertex_connectivity(cycle_graph(6)) == 2
        assert vertex_connectivity(path_graph(5)) == 1
        assert vertex_connectivity(complete_bipartite(2, 3)) == 2
        assert vertex_connectivity(complete_bipartite(4, 4)) == 4
        assert vertex_connectivity(build_graph(4, [(0, 1), (2, 3)])) == 0
        assert vertex_connectivity(petersen()) == 3

    def test_single_vertex(self):
        assert vertex_connectivity(complete_graph(1)) == 0

    def test_scan_matches_bruteforce_small(self):
        for n in range(1, 6):
            for G in exhaustive_graphs(n):
                assert vertex_connectivity(G) == vertex_connectivity_bruteforce(G)

    def test_scan_matches_bruteforce_random(self):
        for G in small_random_graphs(150, max_n=8, seed_tag="kappa"):
            assert vertex_connectivity(G) == vertex_connectivity_bruteforce(G)


class TestToughness:
    def test_complete_is_infinite(self):
        t = toughness(complete_graph(6))
        assert t.is_infinite and t.describe() == "inf"

    def test_known_values(self):
        assert toughness(cycle_graph(6)).value == Fraction(1)
        assert toughness(path_graph(5)).value == Fraction(1, 2)
        assert toughness(complete_bipartite(2, 3)).value == Fraction(2, 3)
        assert toughness(complete_bipartite(4, 4)).value == Fraction(1)
        assert toughness(petersen()).value == Fraction(4, 3)

    def test_disconnected_is_zero(self):
        assert toughness(build_graph(4, [(0, 1), (2, 3)])).value == Fraction(0)

    def test_witness_revalidates(self):
        for G in small_random_graphs(100, max_n=8, seed_tag="tough"):
            if G.is_complete():
                continue
            t = toughness(G)
            comps = components_after_removal(G, t.cut)
            assert len(comps) == t.component_count >= 2
            assert Fraction(len(t.cut), len(comps)) == t.value

    def test_witness_is_minimal_bruteforce(self):
        for G in exhaustive_graphs(4):
            if G.is_complete():
                continue
            assert toughness(G).value == bruteforce_least_cut(G)[0]

    def test_witness_tie_break(self):
        # among cuts of least ratio: fewest vertices, then lexicographically first
        for n in range(2, 6):
            for G in exhaustive_graphs(n):
                if G.is_complete():
                    continue
                assert toughness(G).cut == frozenset(bruteforce_least_cut(G)[2])

    def test_cut_scan_agrees_with_separate_oracles(self):
        for G in small_random_graphs(100, max_n=7, seed_tag="scan"):
            kappa, tough = cut_scan(G)
            assert kappa == vertex_connectivity_bruteforce(G)
            if not G.is_complete():
                value, _, cut, _ = bruteforce_least_cut(G)
                assert (tough.value, tough.cut) == (value, frozenset(cut))


LARGER_GRAPHS = {
    **{
        f"gnp-{n}-{p.replace('/', 'of')}": gnp_graph(n, Fraction(p), seed=n)
        for n in (9, 11, 13, 16)
        for p in ("1/4", "1/2", "3/4")
    },
    # least cuts that leave three or more components, so that the witness
    # comes from a mark past the first
    **{
        f"gnp-{n}-{p.replace('/', 'of')}-seed{seed}-c{c}": gnp_graph(n, Fraction(p), seed=seed)
        for n, p, seed, c in ((12, "1/2", 2, 4), (13, "1/3", 1, 5), (14, "1/2", 4, 6), (16, "2/5", 5, 6))
    },
    "path-16": path_graph(16),
    "cycle-16": cycle_graph(16),
    "bipartite-8-8": complete_bipartite(8, 8),
    "disconnected-16": build_graph(
        16, [*combinations(range(8), 2), *((8 + i, 8 + (i + 1) % 8) for i in range(8))]
    ),
    # 15 components, the deepest peel at the ceiling
    "star-16": complete_bipartite(1, 15),
}


class TestScanAtLargerN:
    """n = 9-16, where the bit-parallel closure takes several sweeps over
    planes of 2**n bits and long diameters give many BFS layers."""

    @pytest.mark.parametrize("G", LARGER_GRAPHS.values(), ids=LARGER_GRAPHS.keys())
    def test_matches_bruteforce(self, G):
        kappa, tough = cut_scan(G)
        assert kappa == vertex_connectivity_bruteforce(G)
        value, _, cut, c = bruteforce_least_cut(G)
        assert not tough.is_infinite
        assert (tough.value, tough.cut, tough.component_count) == (value, frozenset(cut), c)
        assert quick_hypotheses(G) == (kappa, value > 1)


SEEDED_GNP = {
    f"gnp-{n}-{p.replace('/', 'of')}-seed{seed}": gnp_graph(n, Fraction(p), seed=seed)
    for n in range(11, 15)
    for p in ("1/4", "1/2", "3/4")
    for seed in (1, 2)
}


class TestScanOracles:
    """The cut kernel against the independent brute-force oracles on
    seeded G(n, p), and its subset planes against direct membership."""

    @pytest.mark.parametrize("G", SEEDED_GNP.values(), ids=SEEDED_GNP.keys())
    def test_cut_scan_and_quick_hypotheses(self, G):
        kappa, tough = cut_scan(G)
        assert kappa == vertex_connectivity_bruteforce(G)
        value, _, cut, c = bruteforce_least_cut(G)
        assert not tough.is_infinite
        assert (tough.value, tough.cut, tough.component_count) == (value, frozenset(cut), c)
        assert quick_hypotheses(G) == (kappa, value > 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_subset_planes_bit_by_bit(self, n):
        planes, layers, tops = _subset_planes(n)
        assert len(planes) == len(tops) == n and len(layers) == n + 1
        assert all(x >> (1 << n) == 0 for x in planes + layers + tops)
        for R in range(1 << n):
            assert [x >> R & 1 for x in planes] == [R >> v & 1 for v in range(n)]
            assert [x >> R & 1 for x in layers] == [s == R.bit_count() for s in range(n + 1)]
            assert [x >> R & 1 for x in tops] == [v == R.bit_length() - 1 for v in range(n)]


MARKED_GRAPHS = [
    *(G for n in range(1, 6) for G in exhaustive_graphs(n)),
    *(gnp_graph(n, Fraction(p), seed=seed) for n in (6, 7, 8) for p in ("1/4", "1/2", "3/4")
      for seed in (1, 2, 3)),
]


def marks_through_close(G):
    """(marks, members) for G: the kernel's peel, ``_close`` from each
    set's lowest vertex left until no set has a vertex left, with planes
    and seeds built here from their definitions, and the vertex mask of
    each set R, vertex v at bit n-1-v of R."""
    n = G.n
    members = [sum(1 << v for v in range(n) if R >> (n - 1 - v) & 1) for R in range(1 << n)]
    planes = [sum(1 << R for R in range(1 << n) if members[R] >> v & 1) for v in range(n)]
    nbrs = [list(bits(a)) for a in G.adj]

    def lowest(within):  # bit R of entry v: v is the lowest vertex whose entry holds R
        return [w & ~reduce(or_, within[:v], 0) for v, w in enumerate(within)]

    marks, rest = [], planes
    while True:
        rest = [w ^ r for w, r in zip(rest, _close(lowest(rest), rest, nbrs, G.adj))]
        if not any(rest):
            return marks, members
        marks.append(reduce(or_, rest, 0))


class TestComponentMarks:
    def test_marks_bit_by_bit(self):
        """Closed from each set's lowest member, ``_close`` leaves unreached
        exactly the sets R with G[R] disconnected; each further closure,
        from the lowest vertex still unreached, peels off one more
        component, so mark c - 2 is exactly the sets with c or more
        components, and the peel ends after the most components less one."""
        for G in MARKED_GRAPHS:
            marks, members = marks_through_close(G)
            counts = [len(components_masks(G.adj, mask)) for mask in members]
            assert len(marks) == max(counts) - 1, G.adj
            for R, c in enumerate(counts):
                peeled = [m >> R & 1 for m in marks]
                assert peeled == [c >= d for d in range(2, len(marks) + 2)], (G.adj, R)


def closure_reference(reach, within, adj):
    """The least fixpoint that ``_close`` must reach, by plain sweeps: every
    vertex takes its neighbours' reach within its own mask, until a whole
    sweep changes nothing."""
    reach = list(reach)
    changed = True
    while changed:
        changed = False
        for v, w in enumerate(within):
            r = reach[v]
            for u in bits(adj[v]):
                r |= reach[u]
            if r & w != reach[v]:
                reach[v], changed = r & w, True
    return reach


@st.composite
def closure_inputs(draw):
    """(graph, within, seeds): a graph with n <= 10, a mask per vertex over
    2**n set indices (some of them empty) and seeds inside those masks."""
    n = draw(st.integers(1, 10))
    G = graph_from_code(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    plane = st.one_of(st.just(0), st.integers(0, (1 << (1 << n)) - 1))
    within = draw(st.lists(plane, min_size=n, max_size=n))
    seeds = [w & draw(plane) for w in within]
    return G, within, seeds


class TestClose:
    @settings(max_examples=400, deadline=None)
    @given(closure_inputs())
    def test_matches_sweeping_reference(self, case):
        """The dirty-vertex closure reads only vertices whose neighbours
        grew, yet reaches the same least fixpoint as sweeping every vertex."""
        G, within, seeds = case
        nbrs = [list(bits(a)) for a in G.adj]
        expected = closure_reference(seeds, within, G.adj)
        assert _close(list(seeds), within, nbrs, G.adj) == expected


def count_closures(monkeypatch):
    """A list that gains one entry per ``_close`` call from now on."""
    calls = []

    def counted(*args):
        calls.append(None)
        return _close(*args)

    monkeypatch.setattr(invariants, "_close", counted)
    return calls


class TestOnDemandPeel:
    """Stage 2 peels a further mark only when a layer it visits meets every
    mark built so far."""

    def test_path_reads_six_marks(self, monkeypatch):
        # the ratio bound stops stage 2 at |S| = 6; the layer |S| = 5 leaves
        # at most 6 components, so the marks of 8 and 9 are never peeled
        calls = count_closures(monkeypatch)
        assert _scan_cuts(path_graph(16), exact=True) == (1, 1, 2, 0b10)
        assert len(calls) == 6

    def test_no_layer_visited_no_peel(self, monkeypatch):
        # K7 less a matching: kappa = 5, and every separator leaves 2 components
        G = build_graph(7, [e for e in combinations(range(7), 2) if e not in {(0, 1), (2, 3), (4, 5)}])
        calls = count_closures(monkeypatch)
        assert _scan_cuts(G, exact=False)[0] == 5
        assert len(calls) == 1  # 2 * 5 > 7: threshold mode visits no layer
        del calls[:]
        assert _scan_cuts(G, exact=True) == (5, 5, 2, 0b1001111)  # S = V - {4, 5}
        assert len(calls) == 2  # the layer |S| = 5 meets the first mark


class TestScanMemory:
    def test_repeated_scans_keep_no_memory(self):
        """After a warm-up, scans leave no allocations behind, such as
        tuples built from generators that stay on CPython's free lists
        (neighbour lists built as tuples left about 218 KiB in this test)."""
        # dense, so that tracing stays cheap, yet several layers get counted
        graphs = [gnp_graph(n, Fraction(3, 4), seed=i) for i in range(10) for n in (12, 13, 14)]
        for G in graphs:
            cut_scan(G)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                cut_scan(graphs[i % len(graphs)])
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert left < 64 * 1024, left


class TestForbiddenPattern:
    def test_known_free(self):
        # the 4-cycle has no induced edge plus one isolated vertex
        assert find_induced_p2_plus_kp1(cycle_graph(4), 1) is None
        assert find_induced_p2_plus_kp1(complete_graph(5), 3) is None
        assert find_induced_p2_plus_kp1(complete_bipartite(4, 4), 2) is None

    def test_known_witnesses(self):
        w = find_induced_p2_plus_kp1(cycle_graph(6), 1)
        assert w is not None
        z, a = w.edge
        assert cycle_graph(6).has_edge(z, a)
        w = find_induced_p2_plus_kp1(path_graph(6), 2)
        assert w is not None and len(w.independent) == 2

    def test_witness_invariants(self):
        for G in small_random_graphs(150, max_n=8, seed_tag="forb"):
            for k in (1, 2):
                w = find_induced_p2_plus_kp1(G, k)
                if w is None:
                    continue
                z, a = w.edge
                assert G.has_edge(z, a)
                members = sorted(w.independent)
                assert len(members) == k
                assert z not in members and a not in members
                for c in members:
                    assert not G.has_edge(c, z) and not G.has_edge(c, a)
                for i, c in enumerate(members):
                    for d in members[i + 1 :]:
                        assert not G.has_edge(c, d)

    def test_matches_naive_enumeration(self):
        for n in range(1, 6):
            for G in exhaustive_graphs(n):
                for k in (1, 2):
                    found = find_induced_p2_plus_kp1(G, k) is not None
                    assert found == find_forbidden_naive(G, k)

    def test_rejects_bad_k(self):
        with pytest.raises(GraphInputError):
            find_induced_p2_plus_kp1(cycle_graph(4), 0)


def _greedy_pick(G, k, order):
    """Each vertex of ``order`` that sees none taken before it, until k."""
    chosen = []
    for w in order:
        if not any(G.has_edge(w, c) for c in chosen):
            chosen.append(w)
            if len(chosen) == k:
                return frozenset(chosen)
    return None


def _independent(G, vertices):
    return not any(G.has_edge(a, b) for a, b in combinations(vertices, 2))


@st.composite
def _graphs_with_orders(draw):
    """A graph on 1-9 vertices, k 1-4, and an ordered list of distinct
    candidates: a random prefix of a random permutation."""
    n = draw(st.integers(1, 9))
    G = graph_from_code(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    order = draw(st.permutations(range(n)))
    return G, draw(st.integers(1, 4)), order[: draw(st.integers(0, n))]


class TestFirstIndependent:
    """The one independent-set search behind every forbidden witness,
    against a greedy pick and ``itertools.combinations``."""

    @settings(max_examples=400, deadline=None)
    @given(_graphs_with_orders())
    def test_greedy_then_complete(self, case):
        G, k, order = case
        found = _first_independent(G.adj, k, order, mask_of(order))
        greedy = _greedy_pick(G, k, order)
        exists = any(_independent(G, c) for c in combinations(order, k))
        assert (found is not None) == exists
        if greedy is not None:
            assert frozenset(bits(found)) == greedy
        if found is not None:
            members = list(bits(found))
            assert len(members) == k and set(members) <= set(order)
            assert _independent(G, members)

    @settings(max_examples=200, deadline=None)
    @given(_graphs_with_orders())
    def test_find_matches_bruteforce(self, case):
        """The first edge in ``G.edges()`` order that has an independent
        k-set off its closed neighbourhoods, with the lexicographically
        first such set."""
        G, k, _ = case
        expected = None
        for z, w in G.edges():
            far = [c for c in range(G.n) if c not in (z, w)
                   and not G.has_edge(c, z) and not G.has_edge(c, w)]
            first = next((c for c in combinations(far, k) if _independent(G, c)), None)
            if first is not None:
                expected = ForbiddenInduced(edge=(z, w), independent=frozenset(first))
                break
        assert find_induced_p2_plus_kp1(G, k) == expected

    def test_pick_in_candidate_order_when_greedy_fails(self):
        """K_{1,3} with centre 0, plus the edge 4-5. In the order 0, 3, 2, 1
        the greedy takes 0 and then finds every leaf adjacent to it; the
        search goes on to the first set in that order, {3, 2}, where a
        lowest-first search would give {1, 2}."""
        G = build_graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
        order = [0, 3, 2, 1]
        assert _greedy_pick(G, 2, order) is None
        assert forbidden_at(G, 2, (4, 5), order, mask_of(order)) == ForbiddenInduced(
            edge=(4, 5), independent=frozenset({2, 3})
        )
        assert forbidden_at(G, 2, (4, 5), [1, 2, 3], 0b1110).independent == {1, 2}
        assert forbidden_at(G, 4, (4, 5), order, mask_of(order)) is None


class TestHamiltonPath:
    def test_cycle_pairs(self):
        C = cycle_graph(6)
        assert hamilton_path_between(C, 0, 1) is not None
        assert hamilton_path_between(C, 0, 3) is None

    def test_path_is_valid(self):
        G = complete_bipartite(3, 3)
        p = hamilton_path_between(G, 0, 3)
        assert p is not None and p[0] == 0 and p[-1] == 3
        assert sorted(p) == list(range(6))
        assert all(G.has_edge(a, b) for a, b in zip(p, p[1:]))

    def test_unbalanced_bipartite_same_part_only(self):
        G = complete_bipartite(2, 3)
        # spanning paths must start and end in the larger part
        assert hamilton_path_between(G, 2, 3) is not None
        assert hamilton_path_between(G, 0, 2) is None

    def test_two_vertices(self):
        """n = 2 is the only order at which the search reaches its base case
        with a last vertex that misses v: from n = 3 on, the feasibility
        check already makes the last vertex see v."""
        assert hamilton_path_between(Graph(2, (0, 0)), 0, 1) is None
        assert hamilton_path_between(complete_graph(2), 0, 1) == [0, 1]

    def test_rejects_bad_endpoints(self):
        with pytest.raises(GraphInputError):
            hamilton_path_between(cycle_graph(4), 1, 1)
        with pytest.raises(GraphInputError):
            hamilton_path_between(cycle_graph(4), 0, 9)

    def test_matches_naive_search(self):
        from itertools import permutations

        for G in exhaustive_graphs(4):
            for u in range(4):
                for v in range(u + 1, 4):
                    naive = any(
                        all(G.has_edge(a, b) for a, b in zip(p, p[1:]))
                        for p in permutations(range(4))
                        if p[0] == u and p[-1] == v
                    )
                    assert (hamilton_path_between(G, u, v) is not None) == naive

    def test_hamiltonian_connected_reports(self):
        assert is_hamiltonian_connected(complete_graph(5)).is_hamiltonian_connected
        rep = is_hamiltonian_connected(complete_bipartite(3, 3))
        assert not rep.is_hamiltonian_connected
        assert rep.failing_pair is not None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 7), st.integers(0, 1 << 21))
    def test_path_when_found_is_always_valid(self, n, code):
        G = graph_from_code(n, code % (1 << (n * (n - 1) // 2)))
        p = hamilton_path_between(G, 0, n - 1)
        if p is not None:
            assert sorted(p) == list(range(n))
            assert all(G.has_edge(a, b) for a, b in zip(p, p[1:]))


class TestHypothesisReport:
    def test_complete_graph_passes(self):
        rep = hypothesis_check(complete_graph(5), 1)
        assert rep.all_hypotheses
        assert rep.connectivity == 4
        assert rep.toughness.is_infinite

    def test_balanced_bipartite_fails_on_toughness_only(self):
        rep = hypothesis_check(complete_bipartite(4, 4), 2)
        assert rep.is_2k_connected
        assert rep.forbidden_free
        assert not rep.toughness_exceeds_one
        assert not rep.all_hypotheses

    def test_cycle_fails_forbidden(self):
        rep = hypothesis_check(cycle_graph(6), 1)
        assert not rep.forbidden_free and rep.forbidden_witness is not None

    def test_all_hypotheses_is_conjunction(self):
        for G in small_random_graphs(50, max_n=6, seed_tag="hyp"):
            rep = hypothesis_check(G, 1)
            assert rep.all_hypotheses == (
                rep.is_2k_connected and rep.forbidden_free and rep.toughness_exceeds_one
            )
