from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import (
    GraphInputError,
    build_graph,
    complete_bipartite,
    complete_graph,
    components_after_removal,
    cut_scan,
    cycle_graph,
    exhaustive_graphs,
    find_induced_p2_plus_kp1,
    graph_from_code,
    hamilton_path_between,
    hypothesis_check,
    is_hamiltonian_connected,
    is_t_tough,
    path_graph,
    toughness,
    vertex_connectivity,
    vertex_connectivity_bruteforce,
)
from hamcert.invariants import find_forbidden_naive


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

    def test_flow_matches_bruteforce_small(self):
        for n in range(1, 6):
            for G in exhaustive_graphs(n):
                assert vertex_connectivity(G) == vertex_connectivity_bruteforce(G)

    def test_flow_matches_bruteforce_random(self):
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
        from itertools import combinations

        for G in exhaustive_graphs(4):
            if G.is_complete():
                continue
            best = None
            for size in range(G.n - 1):
                for sub in combinations(range(G.n), size):
                    c = len(components_after_removal(G, sub))
                    if c >= 2:
                        r = Fraction(size, c)
                        best = r if best is None else min(best, r)
            assert toughness(G).value == best

    def test_witness_tie_break(self):
        # among cuts of least ratio: fewest vertices, then lexicographically first
        from itertools import combinations

        for n in range(2, 6):
            for G in exhaustive_graphs(n):
                if G.is_complete():
                    continue
                cuts = []
                for size in range(n - 1):
                    for cut in combinations(range(n), size):
                        c = len(components_after_removal(G, cut))
                        if c >= 2:
                            cuts.append((Fraction(size, c), size, cut))
                assert toughness(G).cut == frozenset(min(cuts)[2])

    def test_is_t_tough(self):
        assert is_t_tough(cycle_graph(5), Fraction(1))
        assert not is_t_tough(path_graph(4), Fraction(1))
        with pytest.raises(GraphInputError):
            is_t_tough(cycle_graph(4), Fraction(0))

    def test_cut_scan_agrees_with_separate_oracles(self):
        for G in small_random_graphs(100, max_n=7, seed_tag="scan"):
            kappa, tough = cut_scan(G)
            assert kappa == vertex_connectivity_bruteforce(G)
            if not G.is_complete():
                assert tough.value == toughness(G).value


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
