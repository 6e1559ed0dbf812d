import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import (
    ForbiddenInduced,
    GraphInputError,
    HamiltonPath,
    SmallCut,
    Stalled,
    ToughnessWitness,
    ValidationReport,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    outcome_from_json,
    outcome_to_json,
    path_graph,
    validate_outcome,
)


class TestHamiltonValidation:
    def test_accepts_valid(self):
        G = cycle_graph(5)
        out = HamiltonPath((0, 4, 3, 2, 1))
        assert validate_outcome(G, 1, 0, 1, out).accepted

    def test_rejects_missing_edge(self):
        G = path_graph(4)
        out = HamiltonPath((0, 1, 3, 2))
        rep = validate_outcome(G, 1, 0, 2, out)
        assert not rep.accepted and rep.code == "missing-edge"

    def test_rejects_wrong_endpoints(self):
        G = complete_graph(4)
        out = HamiltonPath((1, 0, 2, 3))
        rep = validate_outcome(G, 1, 0, 3, out)
        assert not rep.accepted and rep.code == "endpoints"

    def test_rejects_not_spanning(self):
        G = complete_graph(4)
        rep = validate_outcome(G, 1, 0, 2, HamiltonPath((0, 1, 2)))
        assert not rep.accepted and rep.code == "not-spanning"
        rep = validate_outcome(G, 1, 0, 1, HamiltonPath((0, 2, 2, 1)))
        assert not rep.accepted


def _hamilton_code(G, k, u, v, path) -> str:
    """The report code a Hamilton claim earns, transcribed from the
    definition with vertex lists, apart from the validator's bitmasks."""
    if k < 1:
        return "bad-k"
    if u == v or u not in range(G.n) or v not in range(G.n):
        return "bad-pair"
    if sorted(path) != list(range(G.n)):
        return "not-spanning"
    if (path[0], path[-1]) != (u, v):
        return "endpoints"
    for a, b in zip(path, path[1:]):
        if b not in G.neighbors(a):
            return "missing-edge"
    return "ok"


@st.composite
def _hamilton_claims(draw):
    """A graph, a claimed (k, u, v) and a claimed path: an ordering of the
    vertices, then perhaps one defect drawn from wrong lengths, repeats,
    out-of-range and negative entries and swapped endpoints. Dense graphs
    make a claim with every edge present common; sparse ones miss edges."""
    n = draw(st.integers(3, 8))
    p = draw(st.sampled_from((0.3, 0.7, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    G = build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
    path = draw(st.permutations(range(n)))
    defect = draw(
        st.sampled_from(("none", "none", "short", "long", "repeat", "big", "negative", "swap"))
    )
    if defect == "short":
        path = path[:-1]
    elif defect == "long":
        path = path + [draw(st.integers(0, n - 1))]
    elif defect == "repeat":
        path[draw(st.integers(1, n - 1))] = path[0]
    elif defect in ("big", "negative"):
        bad = draw(st.integers(n, n + 70) if defect == "big" else st.integers(-70, -1))
        path[draw(st.integers(0, n - 1))] = bad
    elif defect == "swap":
        path[0], path[-1] = path[-1], path[0]
    u, v = path[0], path[-1]
    if draw(st.sampled_from((False, False, True))):  # a pair that need not match the ends
        u, v = draw(st.integers(-1, n)), draw(st.integers(-1, n))
    return G, draw(st.sampled_from((0, 1, 1, 2, 3))), u, v, tuple(path)


@settings(max_examples=600, deadline=None)
@given(_hamilton_claims())
def test_hamilton_check_matches_a_transcription(claim):
    """Every Hamilton claim earns the report code of a direct transcription
    of the definition, and only an accepted one reads "ok"."""
    G, k, u, v, path = claim
    rep = validate_outcome(G, k, u, v, HamiltonPath(path))
    assert rep.code == _hamilton_code(G, k, u, v, path)
    assert rep.accepted == (rep.code == "ok")


class TestSmallCutValidation:
    def test_accepts_valid(self):
        G = path_graph(5)
        assert validate_outcome(G, 1, 0, 4, SmallCut(frozenset({2}))).accepted

    def test_accepts_empty_cut_of_disconnected(self):
        G = build_graph(4, [(0, 1), (2, 3)])
        assert validate_outcome(G, 1, 0, 1, SmallCut(frozenset())).accepted

    def test_rejects_oversized(self):
        G = path_graph(5)
        rep = validate_outcome(G, 1, 0, 4, SmallCut(frozenset({1, 3})))
        assert not rep.accepted and rep.code == "too-large"

    def test_rejects_non_cut(self):
        G = complete_graph(5)
        rep = validate_outcome(G, 2, 0, 4, SmallCut(frozenset({1})))
        assert not rep.accepted and rep.code == "not-a-cut"

    def test_rejects_out_of_range(self):
        G = path_graph(4)
        rep = validate_outcome(G, 1, 0, 3, SmallCut(frozenset({9})))
        assert not rep.accepted and rep.code == "range"


class TestForbiddenValidation:
    def test_accepts_valid(self):
        G = cycle_graph(6)
        out = ForbiddenInduced(edge=(0, 1), independent=frozenset({3}))
        assert validate_outcome(G, 1, 0, 5, out).accepted

    def test_rejects_absent_edge(self):
        G = cycle_graph(6)
        out = ForbiddenInduced(edge=(0, 2), independent=frozenset({4}))
        rep = validate_outcome(G, 1, 0, 5, out)
        assert not rep.accepted and rep.code == "no-edge"

    def test_rejects_adjacent_member(self):
        G = cycle_graph(6)
        out = ForbiddenInduced(edge=(0, 1), independent=frozenset({2}))
        rep = validate_outcome(G, 1, 0, 5, out)
        assert not rep.accepted and rep.code == "edge-adjacent"

    def test_rejects_wrong_size(self):
        G = cycle_graph(6)
        out = ForbiddenInduced(edge=(0, 1), independent=frozenset({3, 4}))
        rep = validate_outcome(G, 1, 0, 5, out)
        assert not rep.accepted and rep.code == "size"

    def test_rejects_dependent_set(self):
        G = path_graph(7)
        out = ForbiddenInduced(edge=(0, 1), independent=frozenset({3, 4}))
        rep = validate_outcome(G, 2, 0, 6, out)
        assert not rep.accepted and rep.code == "not-independent"

    def test_rejects_overlap(self):
        G = cycle_graph(6)
        out = ForbiddenInduced(edge=(0, 1), independent=frozenset({0}))
        rep = validate_outcome(G, 1, 0, 5, out)
        assert not rep.accepted and rep.code == "distinct"


class TestToughnessValidation:
    def test_accepts_valid(self):
        G = complete_bipartite(3, 3)
        out = ToughnessWitness(
            cut=frozenset({0, 1, 2}), independent=frozenset({3, 4, 5})
        )
        assert validate_outcome(G, 1, 0, 1, out).accepted

    def test_rejects_bad_partition(self):
        G = complete_bipartite(3, 3)
        out = ToughnessWitness(cut=frozenset({0, 1}), independent=frozenset({3, 4}))
        rep = validate_outcome(G, 1, 0, 1, out)
        assert not rep.accepted and rep.code == "partition"

    def test_rejects_dependent_witness(self):
        G = cycle_graph(6)
        out = ToughnessWitness(
            cut=frozenset({0, 3}), independent=frozenset({1, 2, 4, 5})
        )
        rep = validate_outcome(G, 1, 0, 1, out)
        assert not rep.accepted and rep.code == "not-independent"

    def test_rejects_bad_ratio(self):
        # K5 less the edge 3-4: removing {0, 1, 2} leaves the independent
        # {3, 4} as 2 components, so the ratio 3/2 > 1 proves nothing; every
        # earlier check passes
        G = build_graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (3, 4)])
        out = ToughnessWitness(cut=frozenset({0, 1, 2}), independent=frozenset({3, 4}))
        rep = validate_outcome(G, 1, 0, 1, out)
        assert rep.code == "ratio"

    def test_rejects_empty_cut(self):
        G = build_graph(2, [])
        out = ToughnessWitness(cut=frozenset(), independent=frozenset({0, 1}))
        rep = validate_outcome(G, 1, 0, 1, out)
        assert rep.code == "empty-cut"

    def test_rejects_non_cut(self):
        # K3 minus {0, 1} is one vertex: a single component
        out = ToughnessWitness(cut=frozenset({0, 1}), independent=frozenset({2}))
        rep = validate_outcome(complete_graph(3), 1, 0, 1, out)
        assert not rep.accepted and rep.code == "not-a-cut"


@pytest.mark.parametrize(
    "out",
    [
        ForbiddenInduced(edge=(0, 1), independent=frozenset({9})),
        ToughnessWitness(cut=frozenset({1, 2}), independent=frozenset({0, 3, 9})),
    ],
    ids=["forbidden_induced", "toughness_witness"],
)
def test_witness_naming_a_non_vertex_is_rejected(out):
    rep = validate_outcome(path_graph(4), 1, 0, 3, out)
    assert not rep.accepted and rep.code == "range"


C5_CLAIMS = [
    HamiltonPath((0, 1, 2, 3, 4)),
    SmallCut(frozenset({0, 2})),
    ForbiddenInduced(edge=(0, 1), independent=frozenset({3})),
    ToughnessWitness(cut=frozenset({0, 2}), independent=frozenset({1, 3, 4})),
    Stalled("x"),
]


class TestClaimValidation:
    """Whatever its kind, a record must be about a real (G, k, u, v)."""

    @pytest.mark.parametrize("out", C5_CLAIMS, ids=lambda o: o.kind)
    def test_rejects_k_below_one(self, out):
        rep = validate_outcome(cycle_graph(5), 0, 0, 4, out)
        assert not rep.accepted and rep.code == "bad-k"

    @pytest.mark.parametrize("out", C5_CLAIMS, ids=lambda o: o.kind)
    def test_rejects_u_out_of_range(self, out):
        for u in (-1, 5):
            rep = validate_outcome(cycle_graph(5), 1, u, 4, out)
            assert not rep.accepted and rep.code == "bad-pair"

    @pytest.mark.parametrize("out", C5_CLAIMS, ids=lambda o: o.kind)
    def test_rejects_v_out_of_range(self, out):
        for v in (-1, 5):
            rep = validate_outcome(cycle_graph(5), 1, 0, v, out)
            assert not rep.accepted and rep.code == "bad-pair"

    @pytest.mark.parametrize("out", C5_CLAIMS, ids=lambda o: o.kind)
    def test_rejects_equal_endpoints(self, out):
        rep = validate_outcome(cycle_graph(5), 1, 4, 4, out)
        assert not rep.accepted and rep.code == "bad-pair"

    def test_small_cut_about_no_pair_of_the_graph(self):
        G = cycle_graph(5)
        out = SmallCut(frozenset({0, 2}))
        assert validate_outcome(G, 2, 0, 1, out).accepted
        assert not validate_outcome(G, 2, 99, 99, out).accepted

    def test_forbidden_pattern_with_k_zero(self):
        out = ForbiddenInduced(edge=(0, 1), independent=frozenset())
        assert not validate_outcome(cycle_graph(5), 0, 0, 2, out).accepted


class TestStalledAndUnknown:
    def test_stalled_never_validates(self):
        rep = validate_outcome(complete_graph(4), 1, 0, 1, Stalled("x"))
        assert not rep.accepted and rep.code == "unknown-kind"


class TestSerialization:
    def test_roundtrip_all_kinds(self):
        cases = [
            HamiltonPath((0, 1, 2)),
            SmallCut(frozenset({1, 2})),
            ForbiddenInduced(edge=(0, 1), independent=frozenset({3})),
            ToughnessWitness(cut=frozenset({0}), independent=frozenset({1, 2})),
            Stalled("why"),
        ]
        for out in cases:
            line = outcome_to_json(out, 2, 0, 1)
            back, k, u, v = outcome_from_json(line)
            assert (back, k, u, v) == (out, 2, 0, 1)

    def test_lines_are_single_json_objects(self):
        line = outcome_to_json(SmallCut(frozenset({2, 0})), 1, 0, 3)
        d = json.loads(line)
        assert d["kind"] == "small_cut" and d["cut"] == [0, 2]
        assert (d["k"], d["u"], d["v"]) == (1, 0, 3)

    def test_malformed_records_rejected(self):
        with pytest.raises(GraphInputError):
            outcome_from_json("not json")
        with pytest.raises(GraphInputError):
            outcome_from_json('{"kind": "mystery", "k": 1, "u": 0, "v": 1}')
        with pytest.raises(GraphInputError):
            outcome_from_json('{"kind": "small_cut"}')

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "small_cut", "cut": [1.0]},
            {"kind": "small_cut", "cut": [True]},
            {"kind": "small_cut", "cut": ["1"]},
            {"kind": "small_cut", "cut": "1"},
            {"kind": "small_cut", "k": True, "cut": [1]},
            {"kind": "small_cut", "k": "1", "cut": [1]},
            {"kind": "small_cut", "u": 0.0, "cut": [1]},
            {"kind": "small_cut", "v": None, "cut": [1]},
            {"kind": "hamilton_path", "path": [0, 2.0, 1]},
            {"kind": "forbidden_induced", "edge": [0, 1, 2], "independent": [3]},
            {"kind": "forbidden_induced", "edge": [0], "independent": [3]},
            {"kind": "forbidden_induced", "edge": "01", "independent": [3]},
            {"kind": "forbidden_induced", "edge": [0, 1], "independent": [False]},
            {"kind": "toughness_witness", "cut": [0], "independent": [1.5]},
            {"kind": "stalled", "k": 1.0},
            {"kind": "stalled", "diagnostic": [1]},
            {"kind": "stalled"},
        ],
    )
    def test_numbers_must_be_json_integers(self, fields):
        record = {"k": 1, "u": 0, "v": 1, **fields}
        with pytest.raises(GraphInputError):
            outcome_from_json(json.dumps(record))

    @pytest.mark.parametrize("text", ["[]", "1", '"small_cut"', "null", "[" * 100_000])
    def test_record_must_be_an_object(self, text):
        with pytest.raises(GraphInputError):
            outcome_from_json(text)


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
vertexish = st.integers(-2, 7) | json_scalars
vertex_lists = st.lists(vertexish, max_size=6) | json_values
outcome_records = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(
            ["hamilton_path", "small_cut", "forbidden_induced", "toughness_witness", "stalled", "?"]
        ),
        "k": vertexish,
        "u": vertexish,
        "v": vertexish,
    },
    optional={
        "path": vertex_lists,
        "cut": vertex_lists,
        "edge": vertex_lists,
        "independent": vertex_lists,
        "diagnostic": json_values,
    },
)


class TestParseThenValidate:
    @settings(max_examples=400, deadline=None)
    @given(json_values | outcome_records)
    def test_any_json_is_reported_or_rejected_as_input(self, value):
        """Parsing then validating either yields a report or raises
        GraphInputError; no other exception escapes."""
        try:
            outcome, k, u, v = outcome_from_json(json.dumps(value))
        except GraphInputError:
            return
        assert isinstance(validate_outcome(cycle_graph(5), k, u, v, outcome), ValidationReport)


class TestValidatorIndependence:
    def test_validator_does_not_import_the_engine(self):
        """The validator must stay an independent check: its module may
        depend on the graph primitives and outcome types only."""
        import hamcert.certify as certify

        with open(certify.__file__) as fh:
            imports = [
                line.strip()
                for line in fh
                if line.strip().startswith(("import ", "from "))
            ]
        for line in imports:
            assert "engine" not in line, line
            assert "invariants" not in line, line
            assert "sweep" not in line, line
