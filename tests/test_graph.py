import pytest
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import (
    CapacityError,
    Graph,
    Graph6ParseError,
    GraphInputError,
    build_graph,
    complete_bipartite,
    complete_graph,
    components_after_removal,
    cycle_graph,
    exhaustive_graphs,
    generate,
    gnp_graph,
    graph_from_code,
    is_connected,
    parse_family,
    parse_graph6,
    path_graph,
    write_graph6,
)
from hamcert.graph import components_masks


def random_graph_strategy(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda code: graph_from_code(n, code),
            st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
        )
    )


class TestGraph:
    def test_build_and_edges(self):
        G = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert G.edges() == [(0, 1), (1, 2), (2, 3)]
        assert G.edge_count() == 3
        assert G.has_edge(1, 0) and not G.has_edge(0, 2)
        assert G.degree(1) == 2
        assert G.neighbors(1) == [0, 2]

    def test_duplicate_edges_coalesce(self):
        G = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert G.edge_count() == 1

    def test_rejects_loops_and_range(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 0)])
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 3)])
        with pytest.raises(GraphInputError):
            Graph(2, (1, 0))  # asymmetric

    def test_rejects_too_large(self):
        with pytest.raises(CapacityError):
            build_graph(63, [])
        # rejected before the pair table of K_n is built
        with pytest.raises(CapacityError):
            gnp_graph(10**5, Fraction(1, 2), seed=0)
        with pytest.raises(CapacityError):
            graph_from_code(10**5, 0)

    def test_complete_detection(self):
        assert complete_graph(5).is_complete()
        assert not cycle_graph(4).is_complete()
        assert complete_graph(1).is_complete()


class TestComponents:
    def test_components_after_removal(self):
        G = cycle_graph(6)
        comps = components_after_removal(G, [0, 3])
        assert comps == [frozenset({1, 2}), frozenset({4, 5})]

    def test_connected(self):
        assert is_connected(cycle_graph(5))
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))

    def test_removal_range_checked(self):
        with pytest.raises(GraphInputError):
            components_after_removal(cycle_graph(4), [7])

    def test_frontier_fill_matches_reference(self):
        def reference(adj, remaining):
            """The iterative fill the frontier fill replaced: regrow each
            component from scratch until it stops changing."""
            out = []
            rem = remaining
            while rem:
                comp = rem & -rem
                while True:
                    grown = comp
                    for v in range(len(adj)):
                        if comp >> v & 1:
                            grown |= adj[v] & rem
                    if grown == comp:
                        break
                    comp = grown
                out.append(comp)
                rem &= ~comp
            return out

        rng = Random("hamcert-tests:fill")
        for _ in range(10_000):
            n = rng.randint(1, 16)
            G = graph_from_code(n, rng.getrandbits(n * (n - 1) // 2))
            remaining = rng.getrandbits(n)
            assert components_masks(G.adj, remaining) == reference(G.adj, remaining)


class TestFamilies:
    def test_complete_bipartite_parts(self):
        G = complete_bipartite(2, 3)
        assert G.n == 5
        # no edges inside a part, all edges across
        assert not G.has_edge(0, 1)
        assert not G.has_edge(2, 3)
        assert all(G.has_edge(a, b) for a in (0, 1) for b in (2, 3, 4))

    def test_cycle_and_path(self):
        C = cycle_graph(5)
        assert C.edge_count() == 5 and all(C.degree(v) == 2 for v in range(5))
        P = path_graph(5)
        assert P.edge_count() == 4 and P.degree(0) == 1

    def test_gnp_deterministic(self):
        a = gnp_graph(9, Fraction(1, 2), seed=7, index=3)
        b = gnp_graph(9, Fraction(1, 2), seed=7, index=3)
        c = gnp_graph(9, Fraction(1, 2), seed=7, index=4)
        assert a.adj == b.adj
        assert a.adj != c.adj  # overwhelmingly likely and frozen here

    def test_gnp_extremes(self):
        assert gnp_graph(6, Fraction(0), 0).edge_count() == 0
        assert gnp_graph(6, Fraction(1), 0).is_complete()

    def test_exhaustive_counts(self):
        assert sum(1 for _ in exhaustive_graphs(4)) == 64
        with pytest.raises(CapacityError):
            next(exhaustive_graphs(8))

    def test_graph_from_code_order(self):
        # lexicographic pair order: bit 0 is (0,1), bit 1 is (0,2), bit 2 is (0,3)
        G = graph_from_code(4, 0b101)
        assert G.edges() == [(0, 1), (0, 3)]

    def test_graph_from_code_range(self):
        assert graph_from_code(7, (1 << 21) - 1).is_complete()
        for n, code in ((7, -1), (7, 1 << 21), (4, 1 << 64), (1, 1)):
            with pytest.raises(GraphInputError):
                graph_from_code(n, code)
        with pytest.raises(GraphInputError):
            graph_from_code(0, 0)

    def test_parse_family(self):
        assert parse_family("complete:5").kind == "complete"
        spec = parse_family("bipartite:4,4")
        assert (spec.s, spec.t, spec.n) == (4, 4, 8)
        spec = parse_family("gnp:10,1/2")
        assert spec.n == 10 and spec.p == Fraction(1, 2)
        with pytest.raises(GraphInputError):
            parse_family("weird:3")
        with pytest.raises(GraphInputError):
            parse_family("gnp:10")

    def test_generate_matches_constructors(self):
        assert next(generate(parse_family("cycle:6"))).adj == cycle_graph(6).adj
        assert next(generate(parse_family("path:4"))).adj == path_graph(4).adj


class TestGraph6:
    def test_known_words(self):
        # the two-vertex graph with one edge encodes to "A_"
        assert write_graph6(build_graph(2, [(0, 1)])) == "A_"
        assert write_graph6(build_graph(2, [])) == "A?"
        assert parse_graph6("A_").edges() == [(0, 1)]

    def test_header_tolerated(self):
        G = parse_graph6(">>graph6<<A_")
        assert G.n == 2 and G.edge_count() == 1

    def test_parse_errors(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")
        with pytest.raises(Graph6ParseError):
            parse_graph6("~??")  # long form
        with pytest.raises(Graph6ParseError):
            parse_graph6("D")  # truncated n=5
        with pytest.raises(Graph6ParseError):
            parse_graph6("A_?")  # trailing byte
        with pytest.raises(Graph6ParseError):
            parse_graph6("A" + chr(62))  # outside alphabet
        # n=2 has one data bit; five nonzero padding bits must be rejected
        with pytest.raises(Graph6ParseError):
            parse_graph6("A" + chr(63 + 0b011111))

    def test_error_carries_offset(self):
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6("A_trailing")
        assert exc.value.offset == 2

    @settings(max_examples=200, deadline=None)
    @given(random_graph_strategy())
    def test_roundtrip(self, G):
        assert parse_graph6(write_graph6(G)).adj == G.adj

    def test_roundtrip_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for G in exhaustive_graphs(n):
                word = write_graph6(G)
                assert parse_graph6(word).adj == G.adj
