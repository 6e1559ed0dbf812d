import hashlib
import inspect
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamcert import (
    FamilySpec,
    ForbiddenInduced,
    GraphInputError,
    HamiltonPath,
    SmallCut,
    Stalled,
    SweepConfig,
    ToughnessWitness,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    exhaustive_graphs,
    extract,
    find_induced_p2_plus_kp1,
    gnp_graph,
    graph_from_code,
    hamilton_path_between,
    hypothesis_check,
    is_connected,
    outcome_to_json,
    parse_graph6,
    run_sweep,
    validate_outcome,
)
from hamcert import engine
from hamcert.engine import (
    EngineError,
    ExtractionResult,
    OrientedPath,
    extend_or_certify,
    initial_path,
    three_case,
    via_component_path,
)
from hamcert.graph import mask_of
from test_acceptance import _truly_valid


def _union_graph(n: int, *seqs: tuple[int, ...]):
    """The graph whose edges are the consecutive pairs of every sequence."""
    return build_graph(n, sorted({tuple(sorted(e)) for s in seqs for e in zip(s, s[1:])}))


def _spy_three_case(monkeypatch) -> list[int]:
    """Route engine.three_case through a spy; the returned list collects
    the a of every call."""
    calls = []
    real = engine.three_case

    def spy(*args):
        calls.append(inspect.signature(real).bind(*args).arguments["a"])
        return real(*args)

    monkeypatch.setattr(engine, "three_case", spy)
    return calls


def _simple_paths(G, u: int, v: int):
    """Every simple (u,v)-path of G, by exhaustive depth-first search."""
    stack = [(u,)]
    while stack:
        p = stack.pop()
        if p[-1] == v:
            yield p
            continue
        stack.extend(p + (w,) for w in G.neighbors(p[-1]) if w not in p)


@st.composite
def _connected_graphs(draw):
    """A connected graph on 2-8 vertices: a random spanning tree plus a
    few chords, sparse enough that shortest paths often tie."""
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(n)))
    edges = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    return build_graph(n, [(a, b) for a, b in edges if a != b])


@st.composite
def _graphs_with_paths(draw):
    """A connected graph on 3-12 vertices with a simple path of 2 or more
    vertices drawn first: the path's edges, a random tree that hangs every
    other vertex on an earlier one, and a few chords."""
    n = draw(st.integers(3, 12))
    order = draw(st.permutations(range(n)))
    length = draw(st.integers(2, n))
    path = tuple(order[:length])
    edges = list(zip(path, path[1:]))
    edges += [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(length, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    G = build_graph(n, [(a, b) for a, b in edges if a != b])
    return G, OrientedPath(path), draw(st.integers(1, 3))


@st.composite
def _splices(draw):
    """A path P of a graph G on 3-9 vertices that misses one vertex or
    more, a stretch of P given by head >= 1 and tail >= 0, and a middle:
    the replaced stretch and one or more off-path vertices in drawn
    order, then perhaps corrupted by inserting any vertex, deleting one or
    replacing one with an off-path vertex. G holds P's edges, the built
    sequence's edges but perhaps one, and a few chords."""
    n = draw(st.integers(3, 9))
    order = draw(st.permutations(range(n)))
    length = draw(st.integers(2, n - 1))
    path = tuple(order[:length])
    head = draw(st.integers(1, length - 1))
    tail = draw(st.integers(0, length - head))
    extra = order[length : length + 1] + [w for w in order[length + 1 :] if draw(st.booleans())]
    middle = draw(st.permutations([*path[head : length - tail], *extra]))
    edits = st.tuples(
        st.sampled_from(("insert", "delete", "replace")), st.integers(0, n), st.integers(0, n - 1)
    )
    for edit, i, w in draw(st.lists(edits, max_size=2)):
        if edit == "insert":
            middle.insert(i, w)
        elif edit == "replace" and middle:
            middle[i % len(middle)] = order[length + w % (n - length)]
        elif middle:
            del middle[i % len(middle)]
    middle = tuple(middle)
    seq = path[:head] + middle + path[length - tail :]
    edges = list(zip(path, path[1:]))
    # a join left out, unless P holds it
    skip = draw(st.one_of(st.just(-1), st.integers(-1, len(seq) - 2)))
    edges += [e for i, e in enumerate(zip(seq, seq[1:])) if i != skip]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    G = build_graph(n, [(a, b) for a, b in edges if a != b])
    return G, OrientedPath(path), head, middle, tail


def _off_path_components(G, path):
    """The components of G minus the path, each a set, by depth-first
    search over neighbour lists, in order of their lowest vertex."""
    left = set(range(G.n)) - set(path)
    comps = []
    while left:
        stack = [min(left)]
        comp = set(stack)
        while stack:
            for w in G.neighbors(stack.pop()):
                if w in left and w not in comp:
                    comp.add(w)
                    stack.append(w)
        left -= comp
        comps.append(comp)
    return comps


def _distance_inside(G, comp, sources, targets):
    """The number of vertices on a shortest path inside comp from sources
    to targets."""
    layer, seen, dist = set(sources), set(sources), 1
    while not layer & targets:
        layer = {w for z in layer for w in G.neighbors(z) if w in comp and w not in seen}
        seen |= layer
        dist += 1
    return dist


class TestOrientedPath:
    def test_rejects_repeats(self):
        with pytest.raises(EngineError):
            OrientedPath((0, 1, 0))

    def test_reversed(self):
        P = OrientedPath((0, 1, 2)).reversed()
        assert P.seq == (2, 1, 0)

    def test_trusted_path_matches_the_constructor(self):
        """A path filled through ``_trusted``'s slot setters is the path the
        constructor builds: equal, hashing and printing alike, with the same
        vertex set (also once reversed), no instance dictionary and no
        assignable field."""
        seq = (3, 1, 4, 0, 2)
        built, trusted = OrientedPath(seq), OrientedPath._trusted(seq, mask_of(seq))
        assert trusted == built and hash(trusted) == hash(built)
        assert repr(trusted) == repr(built) == f"OrientedPath(seq={seq})"
        assert trusted.mask == built.mask == mask_of(seq)
        # a class-level __getattr__ sends every attribute read through
        # CPython's slow fallback: P.seq took 33 ns with one and 9 ns without
        # (timeit, Python 3.11.7)
        assert not hasattr(OrientedPath, "__getattr__")
        for P in (built, trusted):
            R = P.reversed()
            assert R.seq == seq[::-1] and R.mask == P.mask
            assert not hasattr(P, "__dict__")
            with pytest.raises(FrozenInstanceError):
                P.seq = (0, 1)
            with pytest.raises(FrozenInstanceError):
                P.mask = 0
            with pytest.raises(AttributeError):
                P.missing

    def test_start_path_is_checked_outside_the_disconnected_conversion(self, monkeypatch):
        # a layer search that returned 2, which 0 does not see, is an engine
        # bug, not a disconnected pair
        G = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        monkeypatch.setattr(engine, "_path_through_component", lambda *args: (2,))
        with pytest.raises(EngineError, match="start path: path uses missing edge 0-2"):
            initial_path(G, 0, 3)
        with pytest.raises(EngineError, match="start path: path uses missing edge 0-2"):
            extract(G, 1, 0, 3)

    def test_initial_path_is_shortest(self):
        G = cycle_graph(6)
        assert initial_path(G, 0, 2).seq == (0, 1, 2)
        # the 6-cycle 0-4-2-3-1-5-0: both (0,4,2,3) and (0,5,1,3) are
        # shortest, and the start path is the one least read from u
        G = build_graph(6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)])
        assert initial_path(G, 0, 3).seq == (0, 4, 2, 3)
        with pytest.raises(GraphInputError):
            initial_path(build_graph(4, [(0, 1), (2, 3)]), 0, 2)
        with pytest.raises(GraphInputError):
            initial_path(G, 2, 2)

    @settings(max_examples=300, deadline=None)
    @given(_connected_graphs())
    def test_initial_path_is_the_least_shortest_path(self, G):
        for u in range(G.n):
            for v in range(G.n):
                if u != v:
                    least = min(_simple_paths(G, u, v), key=lambda p: (len(p), p))
                    assert initial_path(G, u, v).seq == least


class TestRotations:
    def test_rule1_insertion_between_consecutive_neighbours(self):
        # xj=1 follows xi=0, so the reversed stretch is just 1
        G = build_graph(4, [(0, 1), (1, 2), (0, 3), (3, 1)])
        P = OrientedPath((0, 1, 2))
        out = via_component_path(G, P, 0, 1, (3,))
        assert out.seq == (0, 3, 1, 2)

    def test_via_component_path(self):
        # path (1,2,3,4) with 5 adjacent to 1 and 3, and edge 2-4 present;
        # the splice takes the positions 0 and 2 of vertices 1 and 3
        G = build_graph(6, [(1, 2), (2, 3), (3, 4), (1, 5), (3, 5), (2, 4)])
        P = OrientedPath((1, 2, 3, 4))
        out = via_component_path(G, P, 0, 2, (5,))
        assert out.seq == (1, 5, 3, 2, 4)

    def test_three_case_template_a(self):
        G = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                            (0, 3), (2, 5), (1, 4), (0, 2), (3, 6), (1, 5),
                            (2, 4), (0, 4), (1, 6)])
        P = OrientedPath((0, 1, 2, 3, 4, 5))
        # branch A: a=0 lies before the bases xp=1 and xq=3, whose
        # successors 2 and 4 see a and a+=1
        out = three_case(G, P, 0, mask_of((2, 4)), 6)
        assert out.seq == (0, 2, 3, 6, 1, 4, 5)

    def test_three_case_template_b(self):
        # branch B: a=5 lies after the bases xp=1 and xq=3, whose
        # successors 2 and 4 see a and a+=6; x=8 joins xp to xq
        P = OrientedPath((0, 1, 2, 3, 4, 5, 6, 7))
        expected = (0, 1, 8, 3, 2, 5, 4, 6, 7)
        G = _union_graph(9, P.seq, expected, (2, 6))
        out = three_case(G, P, 5, mask_of((2, 4)), 8)
        assert out.seq == expected

    def test_three_case_template_c(self):
        # branch C: a=3 lies between the bases xp=1 and xq=5, whose
        # successors 2 and 6 see a and a+=4; x=8 joins xp to xq
        P = OrientedPath((0, 1, 2, 3, 4, 5, 6, 7))
        expected = (0, 1, 8, 5, 4, 2, 3, 6, 7)
        G = _union_graph(9, P.seq, expected, (4, 6))
        out = three_case(G, P, 3, mask_of((2, 6)), 8)
        assert out.seq == expected

    def test_three_case_needs_two_common_neighbors(self):
        G = complete_graph(7)
        P = OrientedPath((0, 1, 2, 3, 4, 5))
        with pytest.raises(EngineError, match="needs two common neighbors, got 1"):
            three_case(G, P, 0, mask_of((2,)), 6)

    def test_rule8_absorption_of_x_and_y(self):
        # x=6 sits between xp=1 and the reversed middle; y=7 sees the
        # successors 2 and 4 of xp and xq
        G = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                            (1, 6), (3, 6), (2, 7), (4, 7)])
        P = OrientedPath((0, 1, 2, 3, 4, 5))
        out = via_component_path(G, P, 1, 3, (6,), (7,))
        assert out.seq == (0, 1, 6, 3, 2, 7, 4, 5)

    def test_rotation_rejects_invalid(self):
        G = build_graph(4, [(0, 1), (1, 2)])
        P = OrientedPath((0, 1, 2))
        with pytest.raises(EngineError, match="detour"):
            via_component_path(G, P, 0, 1, (3,))

    @pytest.mark.parametrize(
        "splice, problem",
        [
            (lambda G, P: via_component_path(G, P, 0, 2, (3,)), "detour moved the endpoints"),
            (lambda G, P: via_component_path(G, P, 0, 1, ()), "detour did not lengthen the path"),
            (lambda G, P: via_component_path(G, P, 0, 1, (1,)), "detour: repeated vertex"),
            (lambda G, P: via_component_path(G, P, 0, 1, (4,)), "detour: path uses missing edge 0-4"),
            (
                lambda G, P: via_component_path(G, P, 2, 1, (3,)),
                r"detour: stretch \[3:2\] out of range for \(0, 1, 2\)",
            ),
            (
                lambda G, P: engine._checked(G, P, 0, (3,), 1, "probe"),
                r"probe: stretch \[0:2\] out of range for \(0, 1, 2\)",
            ),
        ],
        ids=["endpoints", "length", "repeat", "missing-edge", "positions-out-of-order",
             "out-of-range"],
    )
    def test_rotation_checks_name_the_splice(self, splice, problem):
        # every edge of K5 but 0-4
        G = build_graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 4)])
        with pytest.raises(EngineError, match=problem):
            splice(G, OrientedPath((0, 1, 2)))

    @pytest.mark.parametrize("head, tail", [(2, 2), (1, -1)])
    def test_rotation_check_refuses_a_stretch_off_the_path(self, head, tail):
        # the stretch must end no earlier than it starts and lie inside P;
        # the "out-of-range" splice above keeps P's first vertex
        with pytest.raises(EngineError, match="probe: stretch .* out of range"):
            engine._checked(complete_graph(5), OrientedPath((0, 1, 2)), head, (3,), tail, "probe")

    def test_rotation_check_needs_edges(self):
        G = build_graph(3, [(0, 1)])
        with pytest.raises(EngineError, match="probe: path uses missing edge 0-2"):
            engine._checked(G, OrientedPath((0, 1)), 1, (2,), 1, "probe")

    def test_rotation_check_needs_the_closing_join(self):
        # 0-3 and P's own edges are present; the join from 3 back to 1 is not
        G = build_graph(4, [(0, 1), (1, 2), (0, 3)])
        with pytest.raises(EngineError, match="probe: path uses missing edge 3-1"):
            engine._checked(G, OrientedPath((0, 1, 2)), 1, (3,), 2, "probe")

    def test_rotation_check_refuses_a_kept_vertex_in_the_middle(self):
        # (0, 1, 2, 0, 3, 4) has every edge in K6, P's endpoints and every
        # vertex of P, but 0 is kept before the stretch and comes back in it
        P = OrientedPath((0, 1, 2, 3, 4))
        with pytest.raises(EngineError, match=r"probe: repeated vertex in path \(0, 1, 2, 0, 3, 4\)"):
            engine._checked(complete_graph(6), P, 2, (2, 0), 2, "probe")

    def test_rotation_check_lets_the_middle_reuse_the_replaced_stretch(self):
        # the replaced vertex 1 is not kept, so the middle may carry it
        out = engine._checked(complete_graph(5), OrientedPath((0, 1, 2)), 1, (3, 1), 1, "probe")
        assert out.seq == (0, 3, 1, 2) and out.mask == mask_of(out.seq)

    def test_rotation_check_catches_a_dropped_vertex(self):
        # longer, same endpoints, every edge present, but 1 is gone
        with pytest.raises(EngineError, match="probe dropped a path vertex"):
            engine._checked(complete_graph(5), OrientedPath((0, 1, 2)), 1, (3, 4), 1, "probe")

    def test_rotation_check_catches_a_dropped_stretch_vertex(self):
        # the middle carries 1 of the replaced stretch (1, 2) but not 2
        with pytest.raises(EngineError, match="probe dropped a path vertex"):
            engine._checked(complete_graph(6), OrientedPath((0, 1, 2, 3)), 1, (4, 5, 1), 1, "probe")

    @settings(max_examples=600, deadline=None)
    @given(_splices())
    def test_rotation_check_agrees_with_a_full_walk(self, case):
        """On any path P of G, the stretch check accepts exactly the
        splices whose built sequence an independent walk over the whole
        sequence accepts, and returns that sequence with its vertex set."""
        G, P, head, middle, tail = case
        seq = P.seq[:head] + middle + P.seq[len(P.seq) - tail :]
        valid = (
            len(set(seq)) == len(seq)
            and all(G.has_edge(a, b) for a, b in zip(seq, seq[1:]))
            and (seq[0], seq[-1]) == (P.seq[0], P.seq[-1])
            and len(seq) > len(P.seq)
            and set(P.seq) <= set(seq)
        )
        if len(seq) == G.n:  # P misses a vertex, so criterion 4's Hamilton path check applies
            record = {"kind": "hamilton_path", "path": list(seq)}
            assert valid == _truly_valid(G, 1, P.seq[0], P.seq[-1], record)
        try:
            out = engine._checked(G, P, head, middle, tail, "probe")
        except EngineError:
            assert not valid
        else:
            assert valid and out.seq == seq and out.mask == mask_of(seq)

    @settings(max_examples=300, deadline=None)
    @given(_graphs_with_paths())
    def test_returned_paths_match_the_public_constructor(self, case):
        """Every path the cascade returns, built from the check's own
        vertex set, is the path the public constructor builds from its
        sequence: equal, hashing the same, with the same vertex set."""
        G, P, k = case
        for _ in range(G.n):
            _, step = extend_or_certify(G, k, P)
            if not isinstance(step, OrientedPath):
                break
            seq = step.seq
            assert step == OrientedPath(seq) and hash(step) == hash(OrientedPath(seq))
            assert step.mask == mask_of(seq)
            P = step


class TestRuleOneChoice:
    """Rule 1 splices through the off-path component with the lowest vertex,
    at the first pair of its consecutive path neighbors in path order."""

    def test_lowest_component_and_first_pair_in_path_order(self):
        # component {6} sees the consecutive pairs (5, 4) and (2, 1);
        # component {7} sees (0, 5), earlier on the path but a higher vertex
        P = OrientedPath((0, 5, 4, 3, 2, 1))
        G = _union_graph(8, P.seq, (5, 6, 4), (2, 6, 1), (0, 7, 5))
        rule, step = extend_or_certify(G, 1, P)
        assert (rule, step) == ("rule1", OrientedPath((0, 5, 6, 4, 3, 2, 1)))

    def test_splice_through_the_lowest_shared_neighbor(self):
        # the anchors 0 and 1 share the component neighbors 4 and 5; 3 sees only 0
        P = OrientedPath((0, 1, 2))
        G = _union_graph(6, P.seq, (0, 3, 4, 5), (0, 4, 1), (0, 5, 1))
        assert engine._path_through_component(G, mask_of((3, 4, 5)), 0, 1) == (4,)
        rule, step = extend_or_certify(G, 1, P)
        assert (rule, step) == ("rule1", OrientedPath((0, 4, 1, 2)))

    @pytest.mark.parametrize(
        "routes, interior",
        [
            (((0, 3, 4, 5, 1),), (3, 4, 5)),
            (((0, 4, 5, 1), (0, 3, 5, 1)), (3, 5)),  # lowest vertex of the first layer
            (((0, 3, 5, 6, 1), (0, 3, 4, 6, 1)), (3, 4, 6)),  # and of a middle layer
            (((0, 3, 5, 1), (0, 3, 4, 1)), (3, 4)),  # lowest target
        ],
        ids=["one-route", "tie-first-layer", "tie-middle-layer", "tie-target"],
    )
    def test_splice_through_a_longer_component_path(self, routes, interior):
        P = OrientedPath((0, 1, 2))
        G = _union_graph(7, P.seq, *routes)
        comp = mask_of(w for r in routes for w in r[1:-1])
        assert engine._path_through_component(G, comp, 0, 1) == interior

    @settings(max_examples=400, deadline=None)
    @given(_graphs_with_paths())
    def test_first_pair_from_any_start_path(self, case):
        """From an arbitrary simple path: the reference is the lowest-vertex
        component with two consecutive path neighbours, at its first such
        pair in path order, found here from each component's neighbour set."""
        G, P, k = case
        path = P.seq
        expected = None
        for comp in _off_path_components(G, path):
            seen_by = {a for a in path if any(G.has_edge(a, c) for c in comp)}
            pairs = [i for i in range(len(path) - 1) if {path[i], path[i + 1]} <= seen_by]
            if pairs:
                expected = comp, pairs[0]
                break
        rule, step = extend_or_certify(G, k, P)
        if expected is None:
            assert rule != "rule1"
            return
        comp, i = expected
        assert rule == "rule1"
        a, b = path[i], path[i + 1]
        interior = step.seq[i + 1 : len(step.seq) - (len(path) - i - 1)]
        assert step.seq == path[: i + 1] + interior + path[i + 1 :]
        assert set(interior) <= comp
        near_a = {c for c in comp if G.has_edge(a, c)}
        near_b = {c for c in comp if G.has_edge(b, c)}
        assert len(interior) == _distance_inside(G, comp, near_a, near_b)

    @pytest.mark.parametrize("comp, message", [((3,), "without anchors"), ((3, 4), "exhausted")])
    def test_failed_search_is_an_engine_error(self, comp, message):
        # 3 sees only 0 and 4 sees only 1, so no path inside {3, 4} joins them
        G = _union_graph(5, (0, 1, 2), (0, 3), (1, 4))
        with pytest.raises(EngineError, match=message):
            engine._path_through_component(G, mask_of(comp), 0, 1)


@st.composite
def _extractions(draw):
    """A graph on 3-9 vertices, a pair of distinct vertices and a k."""
    n = draw(st.integers(3, 9))
    G = graph_from_code(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return G, draw(st.integers(1, 4)), u, v


@st.composite
def _dense_graphs_with_walks(draw):
    """A G(n,p) on 5-10 vertices with p 6/10-9/10, a k in {1, 2} and a
    simple path drawn as a random walk that never revisits a vertex."""
    n = draw(st.integers(5, 10))
    p10 = draw(st.integers(6, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    coins = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    G = build_graph(n, [e for e, c in zip(pairs, coins) if c < p10])
    path = [draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(1, n - 1))):
        steps = [w for w in G.neighbors(path[-1]) if w not in path]
        if not steps:
            break
        path.append(draw(st.sampled_from(steps)))
    return G, draw(st.integers(1, 2)), tuple(path)


class TestKFree:
    """A result reached by rules 1-2 alone holds for every k."""

    @settings(max_examples=300, deadline=None)
    @given(_extractions())
    def test_k_free_result_is_the_same_for_every_k(self, case):
        G, k, u, v = case
        res = extract(G, k, u, v)
        assume(res.k_free)
        for other in range(1, 5):
            assert extract(G, other, u, v) == res

    @pytest.mark.parametrize(
        "trace, k_free",
        [
            (("done",), True),
            (("disconnected",), True),
            (("rule1", "rule2", "rule1", "done"), True),
            (("rule1", "rule3"), False),
            (("rule2", "rule6", "done"), False),
            (("rule1", "rule7"), False),
            (("rule1",), False),
            ((), False),
        ],
    )
    def test_trace_decides(self, trace, k_free):
        assert ExtractionResult(outcome=SmallCut(cut=frozenset()), trace=trace).k_free is k_free


class TestExtract:
    def test_complete_graph_hamilton(self):
        G = complete_graph(7)
        res = extract(G, 1, 0, 6)
        assert isinstance(res.outcome, HamiltonPath)
        assert validate_outcome(G, 1, 0, 6, res.outcome).accepted

    def test_balanced_bipartite_toughness_witness(self):
        G = complete_bipartite(4, 4)
        res = extract(G, 2, 0, 1)
        assert isinstance(res.outcome, ToughnessWitness)
        assert res.outcome.cut in (frozenset(range(4)), frozenset(range(4, 8)))
        assert validate_outcome(G, 2, 0, 1, res.outcome).accepted
        assert res.trace[-1] == "rule9"

    def test_cycle_forbidden_witness(self):
        G = cycle_graph(6)
        res = extract(G, 1, 0, 3)
        assert res.outcome.kind == "forbidden_induced"
        assert validate_outcome(G, 1, 0, 3, res.outcome).accepted

    def test_disconnected_small_cut(self):
        G = build_graph(4, [(0, 1), (2, 3)])
        res = extract(G, 1, 0, 1)
        assert isinstance(res.outcome, SmallCut) and res.outcome.cut == frozenset()
        assert validate_outcome(G, 1, 0, 1, res.outcome).accepted

    def test_sparse_component_small_cut(self):
        # a pendant triangle hangs off one articulation vertex: k=1 needs
        # 2 path neighbors, the component has only 1
        G = build_graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (5, 3)])
        res = extract(G, 1, 0, 2)
        assert isinstance(res.outcome, SmallCut)
        assert validate_outcome(G, 1, 0, 2, res.outcome).accepted

    def test_input_validation(self):
        with pytest.raises(GraphInputError):
            extract(complete_graph(4), 0, 0, 1)
        with pytest.raises(GraphInputError):
            extract(complete_graph(4), 1, 2, 2)
        with pytest.raises(GraphInputError):
            extract(complete_graph(2), 1, 0, 1)

    def test_progress_bound_and_agreement_exhaustive_5(self):
        """Every extraction on every 5-vertex graph terminates within the
        step bound, validates, and agrees with the brute-force oracle."""
        for G in exhaustive_graphs(5):
            for u in range(5):
                for v in range(u + 1, 5):
                    res = extract(G, 1, u, v)
                    assert res.extended_steps <= G.n - 2
                    if isinstance(res.outcome, HamiltonPath):
                        assert validate_outcome(G, 1, u, v, res.outcome).accepted
                    elif isinstance(res.outcome, Stalled):
                        # stalls may only happen off-hypothesis
                        assert not hypothesis_check(G, 1).all_hypotheses
                    else:
                        assert validate_outcome(G, 1, u, v, res.outcome).accepted

    def test_hamilton_on_satisfying_graphs_exhaustive_6(self):
        """On every 6-vertex graph meeting all hypotheses (k=1,2), every
        pair yields a spanning path."""
        for G in exhaustive_graphs(6):
            for k in (1, 2):
                if not hypothesis_check(G, k).all_hypotheses:
                    continue
                for u in range(6):
                    for v in range(u + 1, 6):
                        res = extract(G, k, u, v)
                        assert isinstance(res.outcome, HamiltonPath), (
                            G.adj, k, u, v, res.outcome, res.trace
                        )
                        assert validate_outcome(G, k, u, v, res.outcome).accepted

    @settings(max_examples=300, deadline=None)
    @given(_dense_graphs_with_walks())
    def test_any_start_path_on_a_satisfying_graph_ends_hamiltonian(self, case):
        """The theorem from an arbitrary start path: on a graph meeting all
        three hypotheses, iterating the cascade from any simple (u,v)-path
        ends in an accepted Hamilton path, never a certificate or a stall."""
        G, k, path = case
        assume(len(path) >= 2 and hypothesis_check(G, k).all_hypotheses)
        P = OrientedPath(path)
        for _ in range(G.n - len(path) + 1):
            rule, step = extend_or_certify(G, k, P)
            if not isinstance(step, OrientedPath):
                break
            P = step
        assert isinstance(step, HamiltonPath), (G.adj, k, path, rule, step)
        assert validate_outcome(G, k, path[0], path[-1], step).accepted

    def test_certificates_name_a_failing_hypothesis(self):
        """Whenever the engine certifies, the named hypothesis genuinely
        fails per the exact oracles."""
        from random import Random

        rng = Random("hamcert-tests:certoracle")
        checked = 0
        while checked < 200:
            n = rng.randint(4, 8)
            code = rng.getrandbits(n * (n - 1) // 2)
            G = graph_from_code(n, code)
            u, v = rng.sample(range(n), 2)
            k = rng.randint(1, 2)
            res = extract(G, k, u, v)
            rep = hypothesis_check(G, k)
            if res.outcome.kind == "hamilton_path":
                assert hamilton_path_between(G, u, v) is not None
            elif res.outcome.kind == "small_cut":
                assert not rep.is_2k_connected
            elif res.outcome.kind == "forbidden_induced":
                assert not rep.forbidden_free
            elif res.outcome.kind == "toughness_witness":
                assert not rep.toughness_exceeds_one
            else:
                assert not rep.all_hypotheses
            checked += 1

    def test_trace_is_informative(self):
        res = extract(complete_graph(5), 1, 0, 1)
        assert res.trace[-1] == "done"
        assert all(isinstance(r, str) and r for r in res.trace)

    def test_step_is_a_path_or_an_outcome(self):
        G = cycle_graph(5)
        rule, step = extend_or_certify(G, 1, OrientedPath((0, 1)))
        assert rule == "rule1" and step == OrientedPath((0, 4, 3, 2, 1))
        rule, step = extend_or_certify(G, 1, step)
        assert (rule, step) == ("done", HamiltonPath((0, 4, 3, 2, 1)))

    def test_stall_is_reported_under_its_rule(self, monkeypatch):
        """A rule that can neither extend nor certify ends the extraction
        as Stalled, and the trace names that rule; nothing rescues it."""
        G = parse_graph6("ELr?")
        assert extract(G, 1, 2, 3).trace == ("rule1", "rule7")
        monkeypatch.setattr(engine, "forbidden_at", lambda *args: None)
        res = extract(G, 1, 2, 3)
        assert isinstance(res.outcome, Stalled)
        assert res.trace == ("rule1", "rule7")
        assert not validate_outcome(G, 1, 2, 3, res.outcome).accepted

    def test_rule7_stalls_from_a_constructed_start_path(self):
        """A real stall, off-hypothesis. x = 19 sees 4, 8, 12 and 16. The
        edge z-w = 0-1 joins the head's odd position 3, counted back from
        4, to the tail's, counted on from 16. z sees every successor and w
        every predecessor, so of {x} | N+ | N- only x avoids the edge, one
        vertex short of k = 2. The graph's forbidden pattern lies outside
        that pool, and its minimum degree 3 is below 2k."""
        G = parse_graph6("SrEGJC@_gGk@?@_a_aJ?@??EAGiGaGPCO")
        P = OrientedPath((0, *range(2, 19), 1))
        assert G.full_mask & ~P.mask == 1 << 19
        assert extend_or_certify(G, 2, P) == ("rule7", Stalled(
            "edge 0-1 inside the odd-position set, "
            "but no independent witness set of the required size"
        ))
        assert find_induced_p2_plus_kp1(G, 2) == ForbiddenInduced(
            edge=(0, 1), independent=frozenset({4, 6})
        )
        assert min(G.degree(w) for w in range(G.n)) == 3

    def test_rule5_rotates_from_a_constructed_start_path(self, monkeypatch):
        """The parity scan's three-case return through branch C. x = 10 sees 0, 4, 6 and 8; besides its path neighbours, w = 3 sees
        1, 5 and 7, and a = 2 sees 5 and 7. a lies between the bases xp = 0
        and xq = 4, which gives branch C. The graph is off-hypothesis
        (kappa = 1)."""
        G = parse_graph6("JjCwHc@?KT?")
        calls = _spy_three_case(monkeypatch)
        assert extend_or_certify(G, 2, OrientedPath(tuple(range(10)))) == (
            "rule5", OrientedPath((0, 10, 4, 3, 1, 2, 5, 6, 7, 8, 9))
        )
        assert calls == [2]
        assert hypothesis_check(G, 2).connectivity == 1

    def test_rule8_witness_is_guaranteed(self, monkeypatch):
        """Rule 8 has no stall: once rule 7 has passed, a witness always
        exists, so failing to assemble one is an engine bug."""
        G = parse_graph6("Es]O")
        assert extract(G, 1, 3, 0).trace == ("rule1", "rule8")
        monkeypatch.setattr(engine, "forbidden_at", lambda *args: None)
        with pytest.raises(EngineError, match="guaranteed forbidden witness"):
            extract(G, 1, 3, 0)


# graph6, k, start path, the a of three_case's one call, rule, rotated path
THREE_CASE_ROWS = [
    pytest.param(
        "J~q}Mj]sNy?", 2, (0, 4, 10, 3, 7, 1, 2, 5, 8, 6), 10,
        "rule6", (0, 4, 10, 7, 1, 9, 3, 2, 5, 8, 6),
        id="a-rule6",
    ),
    pytest.param(
        "H|Dzc[k", 2, (5, 1, 6, 3, 4, 8, 2, 0), 2,
        "rule6", (5, 7, 6, 1, 2, 8, 4, 3, 0),
        id="b-rule6",
    ),
    pytest.param(
        "LW|rh[A^Qvd]~n", 2, (10, 7, 5, 6, 1, 12, 3, 9, 4, 0, 2, 11), 9,
        "rule5", (10, 8, 6, 5, 7, 9, 3, 12, 1, 4, 0, 2, 11),
        id="b-rule5-scan",
    ),
]

# graph6, k, u, v, the engine's trace and outcome
DEEP_RULE_ROWS = [
    pytest.param(
        r"I~n\z~BUO", 2, 1, 4,
        ("rule1",) * 6 + ("rule6", "done"),
        HamiltonPath((1, 9, 7, 8, 6, 5, 3, 2, 0, 4)),
        id="rule6-on-hypothesis",
    ),
    pytest.param(
        "HpJ|ZEZ", 2, 2, 6,  # off-hypothesis: kappa = 3
        ("rule1",) * 5 + ("rule6",),
        ForbiddenInduced(edge=(7, 1), independent=frozenset({3, 4})),
        id="rule6-witness",
    ),
    pytest.param(
        "IsaB@Y{^?", 2, 6, 7,
        ("rule1",) * 3 + ("rule5",),
        ForbiddenInduced(edge=(1, 6), independent=frozenset({3, 5})),
        id="rule5-reversed-head-witness",
    ),
    pytest.param(
        "Il[VdYcj?", 1, 6, 1,
        ("rule1",) * 6 + ("rule5", "done"),
        HamiltonPath((6, 3, 4, 7, 5, 8, 2, 9, 0, 1)),
        id="rule5-reversed-head-path",
    ),
    pytest.param(
        "EsZo", 1, 0, 2,
        ("rule1", "rule1", "rule8", "done"),
        HamiltonPath((0, 3, 5, 1, 4, 2)),
        id="rule8-two-neighbour-absorption",
    ),
    pytest.param(
        "GFl_{G", 1, 5, 2,
        ("rule1",) * 3 + ("rule8",),
        ForbiddenInduced(edge=(7, 0), independent=frozenset({6})),
        id="rule8-witness",
    ),
    pytest.param(
        "GBF}Wk", 1, 4, 1,
        ("rule1",) * 4 + ("rule9",),
        ToughnessWitness(cut=frozenset({3, 5, 6}), independent=frozenset({0, 1, 2, 4, 7})),
        id="rule9",
    ),
    pytest.param(
        "Es]O", 1, 3, 0,
        ("rule1", "rule8"),
        ForbiddenInduced(edge=(5, 3), independent=frozenset({2})),
        id="rule8-odd-position-witness",
    ),
    pytest.param(
        "JeVn^i^OYi?", 2, 6, 3,
        ("rule1",) * 6 + ("rule5",),
        ForbiddenInduced(edge=(0, 6), independent=frozenset({9, 10})),
        id="rule5-scan-hit-witness",
    ),
    pytest.param(
        "JZrQkaCv}I_", 2, 0, 10,
        ("rule1",) * 6 + ("rule7",),
        ForbiddenInduced(edge=(7, 10), independent=frozenset({2, 6})),
        id="rule7-witness-k2",
    ),
]


class TestThreeCaseBranches:
    """The three-case rotation's branches A and B reached through
    extend_or_certify from a constructed start path; each graph is
    off-hypothesis (it has the forbidden pattern). A seeded search over 4.0M
    random start paths (n 7-14, k 1-3) hit branch A 2 times, B 13 and C 11."""

    @pytest.mark.parametrize("word, k, start, a, rule, path", THREE_CASE_ROWS)
    def test_rotation(self, word, k, start, a, rule, path, monkeypatch):
        G = parse_graph6(word)
        calls = _spy_three_case(monkeypatch)
        assert extend_or_certify(G, k, OrientedPath(start)) == (rule, OrientedPath(path))
        assert calls == [a]
        assert hypothesis_check(G, k).forbidden_witness is not None


# graph6, k, u, v, trace and outcome of rules 2 and 4 from extract's own
# start path, each on a set with several inner edges: taking any edge but
# the lexicographically first one changes the outcome
FIRST_EDGE_ROWS = [
    pytest.param(
        "ELN?", 1, 0, 1,
        ("rule4",),
        ForbiddenInduced(edge=(2, 3), independent=frozenset({5})),
        id="rule4-first-component-edge",
    ),
    pytest.param(
        "FTvtO", 1, 0, 1,
        ("rule1",) * 3 + ("rule2", "done"),
        HamiltonPath((0, 6, 4, 3, 2, 5, 1)),
        id="rule2-first-successor-edge",
    ),
]


class TestDeepRules:
    """The rules that only fire deep in the cascade, and the first inner
    edge that rules 2 and 4 take, pinned through extract: each expected
    trace and outcome is the engine's own output, and each outcome must
    pass the independent validator."""

    @pytest.mark.parametrize("word, k, u, v, trace, outcome", DEEP_RULE_ROWS + FIRST_EDGE_ROWS)
    def test_trace_and_outcome(self, word, k, u, v, trace, outcome):
        G = parse_graph6(word)
        res = extract(G, k, u, v)
        assert res.trace == trace
        assert res.outcome == outcome
        assert validate_outcome(G, k, u, v, res.outcome).accepted

    def test_forced_anchors_lead_in_path_order(self):
        # one step from a constructed start path: rule 5's scan forces the
        # segment's first vertex and the first successor an odd position
        # sees, and the reference set lists the two in path order; listed
        # the other way round, they give the witness {0, 9}
        G = parse_graph6("KGWLny~Az{~}")
        start = (7, 5, 11, 3, 6, 9, 10, 1, 2, 4, 8)
        out = ForbiddenInduced(edge=(1, 2), independent=frozenset({0, 5}))
        assert extend_or_certify(G, 2, OrientedPath(start)) == ("rule5", out)
        assert validate_outcome(G, 2, 7, 8, out).accepted


def _assert_lemma_premise(G, k, P, x, at):
    """Steps 1-4 of the lemma that rules 5-9 need n >= 4k + 1 on a graph
    meeting the hypotheses: x's t path neighbours, at the positions
    ``at``, number at least 2k, x sees none of their successors, the
    successors are pairwise non-adjacent, so x and the successors form an
    independent set of at least 2k vertices. Positions and successors are
    read off the sequence here, not through the engine."""
    path = P.seq
    assert x not in path
    assert at == tuple(i for i, w in enumerate(path) if G.has_edge(x, w))
    assert len(at) >= 2 * k
    succ = [path[i + 1] for i in at if i + 1 < len(path)]
    assert not any(G.has_edge(x, s) for s in succ)
    assert not any(G.has_edge(a, b) for i, a in enumerate(succ) for b in succ[i + 1 :])
    assert len({x, *succ}) >= 2 * k


def _spy_singleton_phase(monkeypatch) -> list[tuple]:
    """Route engine._singleton_phase through a spy that checks the lemma's
    premise on entry, before the phase runs; the returned list collects
    the arguments of every call."""
    entries = []
    real = engine._singleton_phase

    def spy(*args):
        _assert_lemma_premise(*args)
        entries.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "_singleton_phase", spy)
    return entries


class TestSingletonLemma:
    """The premise of the lemma's step 4 on every entry to the singleton
    phase: the deep-rule rows, the three-case rows and a seeded G(n,p)
    sample. Steps 1-4 follow from the cascade alone, so they must hold
    on and off the hypotheses."""

    @pytest.mark.parametrize("word, k, u, v, trace, outcome", DEEP_RULE_ROWS)
    def test_deep_rule_rows(self, word, k, u, v, trace, outcome, monkeypatch):
        entries = _spy_singleton_phase(monkeypatch)
        extract(parse_graph6(word), k, u, v)
        assert entries

    @pytest.mark.parametrize("word, k, start, a, rule, path", THREE_CASE_ROWS)
    def test_three_case_rows(self, word, k, start, a, rule, path, monkeypatch):
        entries = _spy_singleton_phase(monkeypatch)
        extend_or_certify(parse_graph6(word), k, OrientedPath(start))
        assert len(entries) == 1

    def test_seeded_gnp(self, monkeypatch):
        entries = _spy_singleton_phase(monkeypatch)
        for G, k, u, v in _deep_sample():
            extract(G, k, u, v)
        assert len(entries) >= 50


def _multipartite_graphs(n: int):
    """Every complete multipartite graph on n labelled vertices whose parts
    all have fewer than n/2 vertices, one per set partition of range(n)
    into such parts. (P2 + P1)-free graphs are exactly the complete
    multipartite ones, and such a graph is 2-connected with toughness > 1
    exactly when every part is smaller than n/2: these are the graphs that
    meet the hypotheses at k = 1, built without any of hamcert's oracles."""
    cap = (n - 1) // 2  # the largest part size below n/2

    def partitions(w, parts):
        if w == n:
            yield parts
            return
        for i, part in enumerate(parts):
            if len(part) < cap:
                yield from partitions(w + 1, parts[:i] + [part + [w]] + parts[i + 1 :])
        yield from partitions(w + 1, parts + [[w]])

    for parts in partitions(0, []):
        label = {w: i for i, part in enumerate(parts) for w in part}
        yield build_graph(n, [(a, b) for a, b in combinations(range(n), 2) if label[a] != label[b]])


def _states(G):
    """Every simple path of G, in both orientations, with at least two
    vertices and fewer than n: the states one cascade step starts from."""
    stack = [(w,) for w in range(G.n)]
    while stack:
        path = stack.pop()
        if 2 <= len(path) < G.n:
            yield path
        stack.extend(path + (w,) for w in G.neighbors(path[-1]) if w not in path)


class TestKOne:
    """At k = 1 the hypotheses name a known class, so the oracles and the
    cascade can be checked against it."""

    def test_multipartite_oracle_matches_the_sweep(self):
        counts = {}
        for n in range(3, 8):
            graphs = list(_multipartite_graphs(n))
            counts[n] = len(graphs)
            assert all(hypothesis_check(G, 1).all_hypotheses for G in graphs)
            if n <= 6:
                cfg = SweepConfig(
                    families=(FamilySpec("exhaustive", n),), ks=(1,),
                    pair_policy=("none", 0), keep_records=False,
                )
                assert run_sweep(cfg).satisfying == {1: counts[n]}
        # n = 7 is criterion 2's k = 1 pin
        assert counts == {3: 1, 4: 1, 5: 26, 6: 76, 7: 652}

    def test_every_step_is_rule1(self):
        """One step from every simple non-spanning path of at least two
        vertices fires rule 1. If an off-path component meets two parts,
        every path vertex sees it, so the path's first two vertices do.
        Otherwise it is one vertex x, every off-path vertex lies in x's
        part A, and if no two consecutive path vertices lie outside A then
        |A| >= n - ceil(m/2) >= n/2 for a path of m <= n - 1 vertices."""
        states = 0
        for n in range(3, 7):
            for G in _multipartite_graphs(n):
                for path in _states(G):
                    rule, _ = extend_or_certify(G, 1, OrientedPath(path))
                    assert rule == "rule1", (G, path)
                    states += 1
        assert states == 59_582


def _one_step_from_every_state(graphs) -> Counter:
    """One ``extend_or_certify`` step from every state of every graph, at
    each k in 1-3. A returned path keeps the state's ends and vertices and
    is longer; a certificate is accepted by the validator for the state's
    ends; no step stalls or raises. Counts the steps per (k, rule)."""
    steps = Counter()
    for G in graphs:
        for path in _states(G):
            for k in (1, 2, 3):
                rule, step = extend_or_certify(G, k, OrientedPath(path))
                steps[k, rule] += 1
                if isinstance(step, OrientedPath):
                    seq = step.seq
                    assert (seq[0], seq[-1]) == (path[0], path[-1]), (G, k, path, rule)
                    assert set(path) < set(seq), (G, k, path, rule)
                else:
                    assert not isinstance(step, Stalled), (G, k, path, rule)
                    report = validate_outcome(G, k, path[0], path[-1], step)
                    assert report.accepted, (G, k, path, rule, report.code)
    return steps


def _per_rule(steps: Counter) -> dict[str, int]:
    """Step counts per rule, summed over k."""
    out = Counter()
    for (_, rule), c in steps.items():
        out[rule] += c
    return dict(out)


class TestEveryState:
    """The cascade from every state (G, k, P) of small graphs, not only
    from the start paths ``extract`` builds: P is any simple path of G
    with at least two vertices that misses a vertex. The engine's guards
    claim to hold from each of them."""

    def test_every_connected_graph_up_to_five_vertices(self):
        graphs = [G for n in range(3, 6) for G in exhaustive_graphs(n) if is_connected(G)]
        assert len(graphs) == 770
        steps = _one_step_from_every_state(graphs)
        assert _per_rule(steps) == {
            "rule1": 70_914, "rule2": 1_440, "rule3": 34_284,
            "rule4": 1_080, "rule5": 1_440, "rule9": 1_128,
        }
        assert {rule for k, rule in steps if k > 1} == {"rule1", "rule2", "rule3"}

    def test_seeded_six_vertex_slice(self):
        """The first 200 connected graphs among seeded 6-vertex codes; the
        full n = 6 run is a documented command in the ROADMAP."""
        rng = random.Random("hamcert-states:6")
        graphs = []
        while len(graphs) < 200:
            G = graph_from_code(6, rng.randrange(1 << 15))
            if is_connected(G):
                graphs.append(G)
        assert _per_rule(_one_step_from_every_state(graphs)) == {
            "rule1": 70_734, "rule2": 2_793, "rule3": 16_593, "rule4": 872,
            "rule5": 1_545, "rule7": 40, "rule8": 39, "rule9": 360,
        }


def _deep_sample():
    """2,000 seeded extractions with n 7-30, k 1-3 and p 3/16-3/8, the
    densities where the cascade most often leaves rules 1-4 behind."""
    rng = random.Random("hamcert-tests:singleton-lemma")
    ps = [Fraction(i, 16) for i in range(3, 7)]
    for i in range(2000):
        n = rng.randint(7, 30)
        G = gnp_graph(n, rng.choice(ps), 0, i)
        u, v = rng.sample(range(n), 2)
        yield G, rng.randint(1, 3), u, v


def _spy_witness_sites(monkeypatch) -> Counter:
    """Route engine._forbidden_or_bug through a spy that asserts, on every
    call, that its candidate list is pairwise non-adjacent; the returned
    Counter counts the calls per site. Spies on the singleton phase and
    the parity scan tell the sites apart: rule 4 runs before the phase,
    rule 5 inside a scan of P or of its reversed head, rule 6 on an edge
    at x, and rule 8 on an edge from an outside vertex to a successor of
    x's path neighbours or, failing that, to the odd-position set."""
    sites = Counter()
    phase = {}
    real_phase, real_scan, real_forbidden = (
        engine._singleton_phase, engine._scan_segment, engine._forbidden_or_bug
    )

    def spy_phase(G, k, P, x, at):
        path = P.seq
        succ = {path[i + 1] for i in at if i + 1 < len(path)}
        phase.update(P=P, x=x, succ=succ, scan=None)
        try:
            return real_phase(G, k, P, x, at)
        finally:
            phase.clear()

    def spy_scan(G, k, P, *rest):
        phase["scan"] = "rule5" if P is phase["P"] else "rule5-reversed-head"
        try:
            return real_scan(G, k, P, *rest)
        finally:
            phase["scan"] = None

    def spy_forbidden(G, k, edge, candidates):
        assert not any(G.has_edge(a, b) for a, b in combinations(candidates, 2))
        if not phase:
            sites["rule4"] += 1
        elif phase["scan"]:
            sites[phase["scan"]] += 1
        elif edge[0] == phase["x"]:
            sites["rule6"] += 1
        else:
            sites["rule8-successor" if edge[1] in phase["succ"] else "rule8-odd-position"] += 1
        return real_forbidden(G, k, edge, candidates)

    monkeypatch.setattr(engine, "_singleton_phase", spy_phase)
    monkeypatch.setattr(engine, "_scan_segment", spy_scan)
    monkeypatch.setattr(engine, "_forbidden_or_bug", spy_forbidden)
    return sites


class TestWitnessCandidates:
    """Every guaranteed forbidden witness is drawn from a pairwise
    non-adjacent candidate list, so the witness is the first k usable
    candidates in list order: over the deep-rule rows, the three-case
    rows and the seeded sample above, which between them reach each call
    site. Rule 7, whose candidates may hold an edge, is not among them."""

    def test_rows(self, monkeypatch):
        sites = _spy_witness_sites(monkeypatch)
        for word, k, u, v, *_ in (row.values for row in DEEP_RULE_ROWS):
            extract(parse_graph6(word), k, u, v)
        for word, k, start, *_ in (row.values for row in THREE_CASE_ROWS):
            extend_or_certify(parse_graph6(word), k, OrientedPath(start))
        assert {"rule5-reversed-head", "rule6", "rule8-successor", "rule8-odd-position"} <= set(sites)

    def test_seeded_gnp(self, monkeypatch):
        sites = _spy_witness_sites(monkeypatch)
        for G, k, u, v in _deep_sample():
            extract(G, k, u, v)
        assert sites["rule4"] and sites["rule5"]


def _pin_corpus():
    """A fixed extraction corpus: every ordered pair at k = 1-3 on 300
    seeded 6-vertex codes, then 1,500 seeded G(n,p) extractions with n
    8-62 and p 1/8-3/4, each with a seeded pair and k."""
    rng = random.Random("hamcert-tests:byte-identity")
    for code in sorted(rng.sample(range(1 << 15), 300)):
        G = graph_from_code(6, code)
        for k in (1, 2, 3):
            for u in range(6):
                for v in range(6):
                    if u != v:
                        yield G, k, u, v
    ps = [Fraction(i, 8) for i in range(1, 7)]
    for i in range(1500):
        n = rng.randint(8, 62)
        G = gnp_graph(n, rng.choice(ps), 0, i)
        u, v = rng.sample(range(n), 2)
        yield G, rng.randint(1, 3), u, v


class TestByteIdentity:
    """The engine's output on a fixed corpus, pinned as one digest. A
    change that means to keep every outcome and trace must keep it; one
    that means to change them must say why and re-pin."""

    def test_corpus_digest(self):
        h = hashlib.sha256()
        count = 0
        for G, k, u, v in _pin_corpus():
            res = extract(G, k, u, v)
            h.update(f"{outcome_to_json(res.outcome, k, u, v)}\t{' '.join(res.trace)}\n".encode())
            count += 1
        assert count == 300 * 90 + 1500
        assert h.hexdigest() == "20a8d6edf45d22b5d46b8f75e9e3790c78d86706edf7605f36a1a9a302f7787e"
