import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from hamcert import (
    CapacityError,
    FamilySpec,
    GraphInputError,
    HamiltonPath,
    SmallCut,
    Stalled,
    SweepConfig,
    complete_bipartite,
    complete_graph,
    components_after_removal,
    cut_scan,
    exhaustive_graphs,
    graph_from_code,
    hamilton_path_between,
    parse_family,
    run_sweep,
    vertex_connectivity,
)
from hamcert import invariants, sweep, write_graph6
from hamcert.certify import ValidationReport
from hamcert.cli import main
from hamcert.engine import ExtractionResult
from hamcert.errors import EngineError
from hamcert.sweep import parse_pair_policy, quick_hypotheses


def assert_light_matches_exact(G):
    """quick_hypotheses against kappa and t > 1 from the exact scan."""
    kappa, tough = cut_scan(G)
    assert quick_hypotheses(G) == (kappa, tough.is_infinite or tough.value > 1), (G.n, G.adj)


class TestQuickHypotheses:
    def test_matches_exact_scan_on_every_small_graph(self):
        for n in range(1, 7):
            for G in exhaustive_graphs(n):
                assert_light_matches_exact(G)

    def test_matches_exact_scan_on_random_graphs(self):
        rng = Random("hamcert-tests:light")
        for _ in range(2000):
            n = rng.randint(7, 10)
            assert_light_matches_exact(graph_from_code(n, rng.getrandbits(n * (n - 1) // 2)))

    def test_low_minimum_degree_leaves_toughness_at_most_one(self):
        """A graph with minimum degree below 3 that is not complete has
        toughness at most 1: S = N(v), for a lowest vertex v of least
        degree, leaves v alone and some non-neighbor of v, so at least
        max(2, |S|) components. A degree prefilter in front of the light
        scan would rest on this."""
        rng = Random("hamcert-tests:min-degree")
        sample = [graph_from_code(7, rng.getrandbits(21)) for _ in range(3000)]
        checked = 0
        for G in [G for n in range(1, 7) for G in exhaustive_graphs(n)] + sample:
            degrees = [G.degree(v) for v in range(G.n)]
            if min(degrees) >= 3 or G.is_complete():
                continue
            v = degrees.index(min(degrees))
            S = G.neighbors(v)
            assert not quick_hypotheses(G)[1], (G.n, G.adj)
            assert len(components_after_removal(G, S)) >= max(2, len(S)), (G.n, G.adj)
            checked += 1
        assert checked > 30000

    def test_capped_before_work(self):
        with pytest.raises(CapacityError):
            quick_hypotheses(complete_graph(17))
        with pytest.raises(CapacityError):
            vertex_connectivity(complete_graph(17))
        with pytest.raises(CapacityError):
            hamilton_path_between(complete_graph(17), 0, 1)


def _no_task(task, cfg):
    raise AssertionError("a task ran before the capacity check")


class TestRunSweep:
    def test_family_over_cap_rejected_before_first_task(self, monkeypatch):
        monkeypatch.setattr(sweep, "process_task", _no_task)
        cfg = SweepConfig(
            families=(FamilySpec(kind="cycle", n=5), FamilySpec(kind="gnp", n=24, args=(Fraction(9, 10),))),
            ks=(1,),
            keep_records=False,
        )
        with pytest.raises(CapacityError):
            run_sweep(cfg)

    def test_input_graph_over_cap_rejected_before_first_task(self, monkeypatch):
        monkeypatch.setattr(sweep, "process_task", _no_task)
        small, big = complete_graph(4), complete_graph(17)
        cfg = SweepConfig(
            families=(),
            ks=(1,),
            keep_records=False,
            input_graphs=((small.n, small.adj), (big.n, big.adj)),
        )
        with pytest.raises(CapacityError):
            run_sweep(cfg)

    @pytest.mark.parametrize(
        "change",
        [
            {"ks": ()},
            {"ks": (0,)},
            {"pair_policy": ("bogus", 0)},
            {"pair_policy": ("sample", -1)},
            {"families": (parse_family("cycle:5"), parse_family("gnp:8,1/2")), "samples": -3},
            {"ks": (1, 1)},
        ],
        ids=["no-k", "k-zero", "unknown-policy", "negative-sample", "family-selects-nothing", "repeated-k"],
    )
    def test_config_that_checks_nothing_rejected_before_first_task(self, change, monkeypatch):
        monkeypatch.setattr(sweep, "process_task", _no_task)
        cfg = SweepConfig(families=(FamilySpec(kind="cycle", n=5),), ks=(1,))
        with pytest.raises(GraphInputError):
            run_sweep(replace(cfg, **change))

    def test_bipartite_n_disagreeing_with_its_parts_refused_before_first_task(self, monkeypatch):
        monkeypatch.setattr(sweep, "process_task", _no_task)
        with pytest.raises(GraphInputError, match="sum to n=0"):
            run_sweep(SweepConfig(
                families=(FamilySpec(kind="cycle", n=5), FamilySpec(kind="bipartite", n=0, args=(10, 10))),
                ks=(1,),
            ))
        cfg = SweepConfig(families=(parse_family("cycle:5"), parse_family("bipartite:10,10")), ks=(1,))
        with pytest.raises(CapacityError, match="capped at n=16"):
            run_sweep(cfg)

    def test_zero_graphs_is_an_input_error(self):
        cfg = SweepConfig(
            families=(FamilySpec(kind="gnp", n=6, args=(Fraction(1, 2),)),), ks=(1,), samples=0
        )
        with pytest.raises(GraphInputError):
            run_sweep(cfg)

    def test_jobs_do_not_change_results(self):
        extra = complete_bipartite(3, 4)
        cfg = SweepConfig(
            families=(
                FamilySpec(kind="gnp", n=8, args=(Fraction(2, 3),)),
                FamilySpec(kind="exhaustive", n=4),
            ),
            ks=(1, 2),
            pair_policy=("sample", 2),
            samples=40,
            seed=5,
            input_graphs=((extra.n, extra.adj),),
        )
        results = []
        for jobs in (1, 2):
            lines: list[str] = []
            summary = run_sweep(replace(cfg, jobs=jobs), sink=lines.append)
            summary.elapsed_s = 0.0
            records = [json.loads(line) for line in lines]
            for rec in records:
                del rec["elapsed_ms"]
            results.append((summary, records))
        assert results[0][0].graphs == 1 + 40 + 64
        assert results[0] == results[1]


class TestHamiltonianConnectedField:
    """A record's hamiltonian_connected comes from the validated all-pairs
    extraction, never from Hamilton backtracking."""

    def test_read_off_the_accepted_paths(self, monkeypatch):
        def no_backtracking(*args):
            raise AssertionError("the sweep ran Hamilton backtracking")

        # the name the sweep imports, and the backtracking every route reaches
        monkeypatch.setattr(sweep, "is_hamiltonian_connected", no_backtracking)
        monkeypatch.setattr(invariants, "hamilton_path_between", no_backtracking)
        K5 = complete_graph(5)
        lines: list[str] = []
        cfg = SweepConfig(families=(), ks=(1,), input_graphs=((K5.n, K5.adj),))
        summary = run_sweep(cfg, sink=lines.append)
        assert summary.clean
        (record,) = [json.loads(line) for line in lines]
        assert record["all_hypotheses"] is True
        assert record["hamiltonian_connected"] is True
        assert record["pairs"] == {"hamilton_path": 10}

    def test_null_off_hypothesis(self):
        lines: list[str] = []
        families = (FamilySpec(kind="exhaustive", n=2), FamilySpec(kind="exhaustive", n=4))
        run_sweep(SweepConfig(families=families, ks=(1, 2)), sink=lines.append)
        records = [json.loads(line) for line in lines]
        assert len(records) == 2 * (2 + 64)
        assert sum(rec["all_hypotheses"] for rec in records) == 1  # K4 with k = 1
        for rec in records:
            assert rec["hamiltonian_connected"] is (True if rec["all_hypotheses"] else None)


def _broken_on_k4(real_extract):
    def extract(G, k, u, v):
        if G.is_complete() and (u, v) == (1, 2):
            raise EngineError("injected fault")
        return real_extract(G, k, u, v)

    return extract


EXHAUSTIVE_4_ALL_PAIRS = SweepConfig(
    families=(FamilySpec(kind="exhaustive", n=4),), ks=(1,), pair_policy=("all", 0)
)


class TestEngineErrors:
    """An engine bug is recorded as a violation; the sweep carries on."""

    def test_recorded_as_a_violation(self, monkeypatch):
        monkeypatch.setattr(sweep, "extract", _broken_on_k4(sweep.extract))
        lines: list[str] = []
        summary = run_sweep(EXHAUSTIVE_4_ALL_PAIRS, sink=lines.append)
        assert summary.graphs == 64
        word = write_graph6(complete_graph(4))
        assert summary.violations == [f"engine error on {word} k=1 pair=(1,2): injected fault"]
        assert not summary.clean
        records = {rec["graph6"]: rec for rec in map(json.loads, lines)}
        assert records[word]["all_hypotheses"] is True
        assert records[word]["hamiltonian_connected"] is False

    @pytest.mark.parametrize("layer", ["extract", "validate_outcome"])
    def test_any_exception_recorded_as_a_violation(self, layer, monkeypatch):
        real = getattr(sweep, layer)

        def broken(G, k, u, v, *outcome):
            if G.is_complete() and (u, v) == (1, 2):
                raise KeyError(7)
            return real(G, k, u, v, *outcome)

        clean = run_sweep(EXHAUSTIVE_4_ALL_PAIRS).outcome_tally
        monkeypatch.setattr(sweep, layer, broken)
        summary = run_sweep(EXHAUSTIVE_4_ALL_PAIRS)
        assert summary.graphs == 64
        word = write_graph6(complete_graph(4))
        assert summary.violations == [f"engine error on {word} k=1 pair=(1,2): KeyError: 7"]
        assert not summary.clean
        # a pair whose extraction raised is not tallied; one whose validation raised is
        if layer == "extract":
            clean["hamilton_path"] -= 1
        assert summary.outcome_tally == clean

    def test_unreadable_result_recorded_as_a_violation(self, monkeypatch):
        real = sweep.extract

        def extract(G, k, u, v):
            return object() if G.is_complete() and (u, v) == (1, 2) else real(G, k, u, v)

        monkeypatch.setattr(sweep, "extract", extract)
        summary = run_sweep(K4_ONLY)
        (violation,) = summary.violations
        assert violation.startswith(f"engine error on {K4_WORD} k=1 pair=(1,2): AttributeError: ")
        assert summary.outcome_tally == {"hamilton_path": 5}

    def test_cli_sweep_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sweep, "extract", _broken_on_k4(sweep.extract))
        code = main(["sweep", "--family", "exhaustive:4", "--k", "1", "--pairs", "all"])
        out = capsys.readouterr().out
        assert code == 1
        assert "graphs=64 " in out and "injected fault" in out


def _on_k4_pair_1_2(real, outcome):
    """``extract`` that returns ``outcome`` on K4's pair (1, 2)."""

    def extract(G, k, u, v):
        if G.is_complete() and (u, v) == (1, 2):
            return ExtractionResult(outcome=outcome, trace=("rule7",))
        return real(G, k, u, v)

    return extract


K4_ONLY = SweepConfig(families=(FamilySpec(kind="complete", n=4),), ks=(1,))
K4_WORD = write_graph6(complete_graph(4))


class TestViolations:
    """Each wrong answer on a hypothesis-satisfying graph is named; K4
    meets every hypothesis for k = 1, so all six pairs are extracted."""

    def test_stalled_on_a_satisfying_graph(self, monkeypatch):
        monkeypatch.setattr(sweep, "extract", _on_k4_pair_1_2(sweep.extract, Stalled("injected")))
        summary = run_sweep(K4_ONLY)
        assert summary.violations == [f"stalled on hypothesis-satisfying graph {K4_WORD} k=1 pair=(1,2)"]
        assert summary.validation_failures == 0 and not summary.clean
        assert summary.outcome_tally == {"hamilton_path": 5, "stalled": 1}

    def test_rejected_outcome(self, monkeypatch):
        # (1, 0, 2) skips vertex 3, so the validator rejects it
        monkeypatch.setattr(sweep, "extract", _on_k4_pair_1_2(sweep.extract, HamiltonPath((1, 0, 2))))
        summary = run_sweep(K4_ONLY)
        assert summary.violations == [f"invalid hamilton_path on {K4_WORD} k=1 pair=(1,2): not-spanning"]
        assert summary.validation_failures == 1 and not summary.clean

    def test_rejected_outcome_cli_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sweep, "extract", _on_k4_pair_1_2(sweep.extract, HamiltonPath((1, 0, 2))))
        code = main(["sweep", "--family", "complete:4", "--k", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "validation_failures=1" in out and "not-spanning" in out

    def test_accepted_certificate_on_a_satisfying_graph(self, monkeypatch):
        cut = SmallCut(cut=frozenset())
        monkeypatch.setattr(sweep, "extract", _on_k4_pair_1_2(sweep.extract, cut))
        monkeypatch.setattr(sweep, "validate_outcome", lambda G, k, u, v, outcome: ValidationReport())
        summary = run_sweep(K4_ONLY)
        assert summary.violations == [
            f"certificate small_cut on hypothesis-satisfying graph {K4_WORD} k=1 pair=(1,2)"
        ]
        assert summary.certificates == 1 and summary.validation_failures == 0
        assert not summary.clean

    def test_only_the_first_100_kept(self, monkeypatch):
        rejected = ValidationReport(code="injected")
        monkeypatch.setattr(sweep, "validate_outcome", lambda G, k, u, v, outcome: rejected)
        every = [
            text
            for idx, task in enumerate(sweep._task_stream(EXHAUSTIVE_4_ALL_PAIRS))
            for text in sweep.process_task((idx, *task), EXHAUSTIVE_4_ALL_PAIRS)[1]["violations"]
        ]
        summary = run_sweep(EXHAUSTIVE_4_ALL_PAIRS)
        assert summary.validation_failures == len(every) > 100
        assert summary.violations == every[:100]


class TestDeterministicFamilies:
    def test_sweep_over_every_generated_family(self):
        families = tuple(
            parse_family(text) for text in ("complete:5", "bipartite:3,3", "cycle:6", "path:4")
        )
        cfg = SweepConfig(families=families, ks=(1, 2), pair_policy=("all", 0))
        summary = run_sweep(cfg)
        assert summary.graphs == 4
        assert summary.satisfying == {1: 1, 2: 1}
        assert summary.clean


class TestPairPolicy:
    def test_parses(self):
        assert parse_pair_policy("all") == ("all", 0)
        assert parse_pair_policy("none") == ("none", 0)
        assert parse_pair_policy("sample:3") == ("sample", 3)
        assert parse_pair_policy("sample:0") == ("sample", 0)

    @pytest.mark.parametrize("text", ["sample:x", "sample:-1", "sample:", "sample:1.5", "some"])
    def test_rejects(self, text):
        with pytest.raises(GraphInputError):
            parse_pair_policy(text)


PIN_CFG = SweepConfig(
    families=(FamilySpec(kind="exhaustive", n=5), FamilySpec(kind="gnp", n=8, args=(Fraction(3, 4),))),
    ks=(1, 2, 3),
    pair_policy=("sample", 2),
    samples=30,
    seed=11,
)
PIN_TALLY = {"small_cut": 4522, "hamilton_path": 2489, "toughness_witness": 60, "forbidden_induced": 93}


class TestPinnedOutput:
    """The records and summary of one fixed sweep, taken from an earlier
    release's output; any change to what a sweep reports shows here."""

    def test_records_mode(self):
        lines: list[str] = []
        summary = run_sweep(PIN_CFG, sink=lines.append)
        records = [json.loads(line) for line in lines]
        for rec in records:
            del rec["elapsed_ms"]
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest == "130b328b8eedd0432a5ac1e954912e0908fa7a98b26676d4a43c9fe7afbaa542"
        assert (summary.graphs, summary.records) == (1024 + 30, 3 * (1024 + 30))
        assert summary.satisfying == {1: 27, 2: 23, 3: 1}
        assert summary.outcome_tally == PIN_TALLY
        assert summary.certificates == 4522 + 60 + 93
        assert summary.validation_failures == 0 and summary.violations == []
        assert summary.max_extension_overshoot == 0

    def test_light_mode_agrees(self):
        light = replace(PIN_CFG, keep_records=False)
        summary = run_sweep(light)
        assert summary.records == 0
        assert summary.satisfying == {1: 27, 2: 23, 3: 1}
        assert summary.outcome_tally == PIN_TALLY
        assert summary.clean
        # and graph by graph: both modes return the same summary delta
        for idx, task in enumerate(sweep._task_stream(PIN_CFG)):
            task = (idx, *task)
            assert sweep.process_task(task, light)[1] == sweep.process_task(task, PIN_CFG)[1], task


def _merged(deltas: list[dict]) -> dict:
    """The single-k deltas of one graph, in k order, as one delta."""
    out = {"satisfying": {}, "tally": {}, "validation_failures": 0, "violations": [], "max_overshoot": 0}
    for d in deltas:
        out["satisfying"].update(d["satisfying"])
        for kind, c in d["tally"].items():
            out["tally"][kind] = out["tally"].get(kind, 0) + c
        out["validation_failures"] += d["validation_failures"]
        out["violations"] += d["violations"]
        out["max_overshoot"] = max(out["max_overshoot"], d["max_overshoot"])
    return out


class TestKFreeReuse:
    """A pair whose extraction used only rules 1-2 is extracted once per
    graph and validated for every k; the output is that of one run per k."""

    @pytest.mark.parametrize(
        "task, policy, extractions",
        [
            # gnp:10,7/8 at seed 3, sample 5: satisfies k = 1, 2, 3, so
            # all 45 pairs are attempted for each k, and each is k-free
            ((5, "gnp", 10, 7, 8, 3, 5), ("sample", 2), 45),
            # a sparse graph: certificates, which read k, are not reused
            ((2, "gnp", 9, 1, 2, 4, 2), ("all", 0), None),
        ],
        ids=["dense-satisfying", "sparse-all-pairs"],
    )
    def test_same_output_as_one_run_per_k(self, task, policy, extractions, monkeypatch):
        cfg = SweepConfig(families=(), ks=(1, 2, 3), pair_policy=policy)
        calls = []
        real = sweep.extract
        monkeypatch.setattr(sweep, "extract", lambda G, k, u, v: calls.append(k) or real(G, k, u, v))
        records, delta = sweep.process_task(task, cfg)
        reused = len(calls)
        calls.clear()
        singles = [sweep.process_task(task, replace(cfg, ks=(k,))) for k in cfg.ks]
        separate = len(calls)
        single_records = [rec for recs, _ in singles for rec in recs]
        for rec in records + single_records:
            del rec["elapsed_ms"]
        assert records == single_records
        assert delta == _merged([d for _, d in singles])
        attempted = sum(rec["pairs_attempted"] for rec in records)
        assert separate == attempted and reused < attempted
        if extractions is not None:
            assert delta["satisfying"] == {1: 1, 2: 1, 3: 1} and attempted == 3 * 45
            assert reused == extractions

    def test_a_result_that_reads_k_is_not_reused(self, monkeypatch):
        calls = []

        def extract(G, k, u, v):
            calls.append((k, u, v))
            return ExtractionResult(outcome=SmallCut(cut=frozenset({0})), trace=("rule1", "rule3"))

        monkeypatch.setattr(sweep, "extract", extract)
        monkeypatch.setattr(sweep, "validate_outcome", lambda G, k, u, v, outcome: ValidationReport())
        cfg = replace(K4_ONLY, ks=(1, 2), pair_policy=("all", 0))
        sweep.process_task((0, "graph", 4, complete_graph(4).adj), cfg)
        assert calls == [(k, u, v) for k in (1, 2) for u in range(4) for v in range(u + 1, 4)]
