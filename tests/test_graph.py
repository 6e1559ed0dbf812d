import pickle
from itertools import combinations

import pytest
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import (
    CapacityError,
    FamilySpec,
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
    hypothesis_check,
    is_connected,
    is_hamiltonian_connected,
    parse_family,
    parse_graph6,
    path_graph,
    read_graph6_lines,
    write_graph6,
)
from hamcert.graph import bits, components_masks, edges_within


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
        with pytest.raises(GraphInputError, match="loop at vertex 0"):
            Graph(2, (1, 0))  # bit 0 of vertex 0's row is a loop

    @pytest.mark.parametrize(
        "adj, message",
        [
            ((2, 0), "asymmetric adjacency 0-1"),
            ((2,), "adjacency length does not match n"),
            ((4, 0), "vertex 0 has a neighbor >= n"),
        ],
    )
    def test_rejects_bad_adjacency(self, adj, message):
        with pytest.raises(GraphInputError, match=message):
            Graph(2, adj)

    def test_rejects_too_large(self):
        with pytest.raises(CapacityError):
            build_graph(63, [])
        # rejected before the pair table of K_n is built
        with pytest.raises(CapacityError):
            gnp_graph(10**5, Fraction(1, 2), seed=0)
        with pytest.raises(CapacityError):
            graph_from_code(10**5, 0)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: Graph(0, ()), GraphInputError, "graph needs at least one vertex"),
            (lambda: Graph(63, (0,) * 63), CapacityError, "n=63 exceeds the ceiling of 62"),
            (lambda: build_graph(0, []), GraphInputError, "graph needs at least one vertex"),
            (lambda: cycle_graph(2), GraphInputError, "cycle needs at least 3 vertices"),
            (lambda: gnp_graph(5, Fraction(3, 2), 0), GraphInputError, "p must lie in [0,1]"),
            (
                lambda: is_hamiltonian_connected(complete_graph(2)),
                GraphInputError,
                "hamiltonian-connectivity needs n >= 3",
            ),
            (
                lambda: hypothesis_check(complete_graph(3), 0),
                GraphInputError,
                "k must be at least 1",
            ),
        ],
        ids=["graph-empty", "graph-over-ceiling", "build-empty", "cycle-2", "gnp-p-above-1",
             "hamiltonian-connected-n2", "hypotheses-k0"],
    )
    def test_input_checks_raise_one_line(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message

    def test_complete_detection(self):
        assert complete_graph(5).is_complete()
        assert not cycle_graph(4).is_complete()
        assert complete_graph(1).is_complete()


def assert_validates(G):
    """A graph from a trusted builder is the graph that full validation
    builds from the same rows."""
    assert G == Graph(G.n, G.adj), (G.n, G.adj)


class TestTrustedBuilders:
    """``build_graph`` and ``graph_from_code`` skip ``Graph``'s validation;
    every graph they build must pass it unchanged."""

    def test_every_small_code_and_a_sample_of_larger_ones(self):
        for n in range(1, 6):
            for code in range(1 << n * (n - 1) // 2):
                assert_validates(graph_from_code(n, code))
        rng = Random("hamcert-tests:trusted-codes")
        for n in (6, 7):
            for _ in range(2000):
                assert_validates(graph_from_code(n, rng.getrandbits(n * (n - 1) // 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 62])
    def test_fixed_families(self, n):
        graphs = [complete_graph(n), path_graph(n), complete_bipartite(n // 2, n - n // 2)]
        if n >= 3:
            graphs.append(cycle_graph(n))
        for G in graphs:
            assert_validates(G)

    def test_gnp_samples(self):
        for n in (1, 2, 9, 24, 62):
            for p in (Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(7, 8), Fraction(1)):
                for i in range(3):
                    assert_validates(gnp_graph(n, p, seed=5, index=i))

    def test_graph6_round_trips(self):
        rng = Random("hamcert-tests:trusted-graph6")
        for _ in range(300):
            n = rng.randint(1, 62)
            G = graph_from_code(n, rng.getrandbits(n * (n - 1) // 2))
            assert_validates(parse_graph6(write_graph6(G)))

    def test_build_graph_edge_list(self):
        rng = Random("hamcert-tests:trusted-edges")
        for _ in range(300):
            n = rng.randint(2, 62)
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
            assert_validates(build_graph(n, edges))


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


class TestEdgesWithin:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_every_pair_in_order(self, data):
        G = data.draw(random_graph_strategy(16))
        mask = data.draw(st.integers(0, G.full_mask))
        adj = G.adj
        expected = [(a, b) for a, b in combinations(sorted(bits(mask)), 2) if adj[a] >> b & 1]
        assert list(edges_within(adj, mask)) == expected


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
        assert (spec.args, spec.n) == ((4, 4), 8)
        spec = parse_family("gnp:10,1/2")
        assert spec.n == 10 and spec.args == (Fraction(1, 2),)
        with pytest.raises(GraphInputError):
            parse_family("weird:3")
        with pytest.raises(GraphInputError):
            parse_family("gnp:10")
        with pytest.raises(GraphInputError):
            parse_family("bipartite:-1,3")
        # p outside [0, 1] is refused from the spec, not at the first sample
        for text in ("gnp:8,3/2", "gnp:8,-1/2"):
            with pytest.raises(GraphInputError, match=r"p must lie in \[0,1\]"):
                parse_family(text)
        assert parse_family("gnp:8,0").args == (0,) and parse_family("gnp:8,1").args == (1,)
        # so is a family too small for its constructor
        for text in ("complete:0", "path:0", "exhaustive:0", "gnp:0,1/2", "bipartite:0,0",
                     "complete:-3", "cycle:2"):
            with pytest.raises(GraphInputError, match="bad family spec .*n must be at least"):
                parse_family(text)
        assert parse_family("complete:1").n == 1 and parse_family("cycle:3").n == 3

    @pytest.mark.parametrize(
        "text", ["cycle:63", "bipartite:40,40", "gnp:63,1/2", "complete:1000000000"]
    )
    def test_parse_family_refuses_past_the_ceiling(self, text):
        # refused from the spec alone, before any graph is built
        with pytest.raises(CapacityError, match="exceeds the ceiling of 62"):
            parse_family(text)

    def test_parse_family_accepts_the_ceiling(self):
        assert parse_family("cycle:62").n == parse_family("bipartite:31,31").n == 62

    @pytest.mark.parametrize(
        "kind, n, args, error",
        [
            ("wheel", 5, (), GraphInputError),  # an unknown kind, refused when built, not mid-sweep
            ("bipartite", 0, (10, 10), GraphInputError),  # n disagrees with the parts
            ("bipartite", 2, (-1, 3), GraphInputError),
            ("bipartite", 5, (5,), GraphInputError),
            ("bipartite", 5, (2.5, 2.5), GraphInputError),  # sizes a graph cannot be built from
            ("cycle", 5.0, (), GraphInputError),
            ("gnp", 8, (), GraphInputError),
            ("gnp", 8, (Fraction(3, 2),), GraphInputError),
            ("gnp", 8, (0.5,), GraphInputError),  # a sample needs p's numerator and denominator
            ("cycle", 6, (1,), GraphInputError),
            ("cycle", 2, (), GraphInputError),
            ("complete", 0, (), GraphInputError),
            ("exhaustive", 8, (), CapacityError),
            ("path", 63, (), CapacityError),
        ],
    )
    def test_spec_checks_itself(self, kind, n, args, error):
        with pytest.raises(error):
            FamilySpec(kind=kind, n=n, args=args)

    def test_spec_counts_and_tasks(self):
        gnp = FamilySpec("gnp", 8, (Fraction(3, 4),))
        exhaustive = FamilySpec("exhaustive", 3)
        bipartite = FamilySpec("bipartite", 3, (1, 2))
        assert (gnp.seeded, exhaustive.seeded, bipartite.seeded) == (True, False, False)
        assert (gnp.count(5), exhaustive.count(5), bipartite.count(5)) == (5, 8, 1)
        assert gnp.task(4, 9) == ("gnp", 8, 3, 4, 9, 4)
        assert gnp.graph(4, 9).adj == gnp_graph(8, Fraction(3, 4), 9, 4).adj
        assert exhaustive.task(5, 9) == ("code", 3, 5)
        assert exhaustive.graph(5).adj == graph_from_code(3, 5).adj
        assert bipartite.task(0, 9) == ("graph", 3, complete_bipartite(1, 2).adj)
        assert pickle.loads(pickle.dumps(gnp)) == gnp  # a pool sends specs to its workers

    def test_generate_matches_constructors(self):
        assert next(generate(parse_family("cycle:6"))).adj == cycle_graph(6).adj
        assert next(generate(parse_family("path:4"))).adj == path_graph(4).adj
        with pytest.raises(GraphInputError):
            next(generate(parse_family("gnp:6,1/2")))  # samples need a seed


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

    def test_bad_order_byte(self):
        # "?" encodes n = 0, below the least order graph6 can hold here
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6("?")
        assert (exc.value.message, exc.value.offset) == ("bad order byte '?'", 0)

    def test_file_error_names_its_line(self):
        with pytest.raises(Graph6ParseError) as exc:
            read_graph6_lines(["A_\n", "\n", "A_?\n", "A_\n"])
        assert exc.value.line == 3 and exc.value.offset == 2
        assert str(exc.value) == "trailing bytes after graph6 word (line 3, byte offset 2)"

    @pytest.mark.parametrize(
        "lines, line, offset",
        [(["A_\n", "   A_?\n"], 2, 5), (["  >>graph6<<A_?"], 1, 14)],
        ids=["indented", "indented-header"],
    )
    def test_file_error_offset_counts_from_line_start(self, lines, line, offset):
        with pytest.raises(Graph6ParseError) as exc:
            read_graph6_lines(lines)
        assert (exc.value.line, exc.value.offset) == (line, offset)
        assert lines[line - 1][offset] == "?"

    @settings(max_examples=200, deadline=None)
    @given(random_graph_strategy())
    def test_roundtrip(self, G):
        assert parse_graph6(write_graph6(G)).adj == G.adj

    def test_roundtrip_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for G in exhaustive_graphs(n):
                word = write_graph6(G)
                assert parse_graph6(word).adj == G.adj
