import json
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from hamcert import (
    CapacityError,
    FamilySpec,
    GraphInputError,
    SweepConfig,
    complete_bipartite,
    complete_graph,
    cut_scan,
    exhaustive_graphs,
    find_induced_p2_plus_kp1,
    graph_from_code,
    run_sweep,
)
from hamcert import sweep
from hamcert.sweep import parse_pair_policy, quick_hypotheses

KS_CHOICES = ((1,), (2,), (1, 2, 3), ())


def assert_light_matches_exact(G):
    """quick_hypotheses against the light verdict derived from the exact
    scan, for every k-tuple in KS_CHOICES."""
    kappa, tough = cut_scan(G)
    tough_gt1 = tough.is_infinite or tough.value > 1
    for ks in KS_CHOICES:
        expected = {}
        for k in ks:
            is2k = kappa >= 2 * k
            free = find_induced_p2_plus_kp1(G, k) is None if is2k and tough_gt1 else None
            expected[k] = (is2k, free, tough_gt1)
        assert quick_hypotheses(G, ks) == expected, (G.n, G.adj, ks)


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

    def test_empty_ks(self):
        assert quick_hypotheses(complete_bipartite(3, 3), ()) == {}

    def test_capped_before_work(self):
        with pytest.raises(CapacityError):
            quick_hypotheses(complete_graph(17), (1,))


def _no_task(task, cfg):
    raise AssertionError("a task ran before the capacity check")


class TestRunSweep:
    def test_family_over_cap_rejected_before_first_task(self, monkeypatch):
        monkeypatch.setattr(sweep, "process_task", _no_task)
        cfg = SweepConfig(
            families=(FamilySpec(kind="cycle", n=5), FamilySpec(kind="gnp", n=24, p=Fraction(9, 10))),
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

    def test_zero_graphs_is_an_input_error(self):
        cfg = SweepConfig(
            families=(FamilySpec(kind="gnp", n=6, p=Fraction(1, 2)),), ks=(1,), samples=0
        )
        with pytest.raises(GraphInputError):
            run_sweep(cfg)

    def test_jobs_do_not_change_results(self):
        extra = complete_bipartite(3, 4)
        cfg = SweepConfig(
            families=(
                FamilySpec(kind="gnp", n=8, p=Fraction(2, 3), seed=5),
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
