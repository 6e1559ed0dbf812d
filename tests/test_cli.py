import io
import json
import multiprocessing
import os

import pytest

from hamcert import (
    ExtractionResult,
    FamilySpec,
    Stalled,
    SweepSummary,
    cli,
    complete_bipartite,
    complete_graph,
    invariants,
    write_graph6,
)
from hamcert.cli import main, tightness_report


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


K44 = write_graph6(complete_bipartite(4, 4))


class TestInvariantsCommand:
    def test_balanced_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--graph6", K44, "--k", "2")
        assert code == 0
        assert "connectivity=4" in out
        assert "toughness=1/1" in out
        assert "forbidden_free=True" in out
        assert "all_hypotheses=False" in out

    def test_complete_family(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--family", "complete:5", "--k", "1")
        assert code == 0
        assert "toughness=inf" in out and "all_hypotheses=True" in out

    def test_malformed_graph6_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--graph6", "~??", "--k", "1")
        assert code == 2 and "error:" in err

    def test_requires_exactly_one_graph_source(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--k", "1")
        assert code == 2
        code, _, err = run_cli(
            capsys, "invariants", "--graph6", K44, "--family", "complete:4", "--k", "1"
        )
        assert code == 2

    def test_gnp_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--family", "gnp:8,1/2", "--k", "1")
        assert code == 2 and "seed" in err

    def test_seed_picks_the_gnp_sample(self, capsys):
        words = set()
        for seed in ("0", "5"):
            code, out, _ = run_cli(
                capsys, "invariants", "--family", "gnp:12,1/2", "--seed", seed, "--k", "1"
            )
            assert code == 0
            words.add(out.split("graph6=")[1].split()[0])
        assert len(words) == 2

    @pytest.mark.parametrize("command", ["invariants", "sweep"])
    def test_negative_part_size_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--family", "bipartite:-1,3", "--k", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("invariants", ("--k", "1")),
            ("extract", ("--k", "1", "--u", "0", "--v", "1")),
            ("validate", ("--outcome", "-")),
        ],
    )
    def test_oversized_family_exits_2_before_building(self, capsys, monkeypatch, command, flags):
        def forbidden(spec, *args):
            raise AssertionError("built a family graph past the vertex ceiling")

        monkeypatch.setattr(FamilySpec, "graph", forbidden)
        code, out, err = run_cli(capsys, command, "--family", "complete:1000000000", *flags)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "exceeds the ceiling of 62" in err

    def test_input_file(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text(K44 + "\n")
        code, out, _ = run_cli(capsys, "invariants", "--input", str(f), "--k", "2")
        assert code == 0 and "connectivity=4" in out

    def test_over_cap_exits_2_before_any_search(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("searched a graph beyond the cut-scan ceiling")

        # building the subset planes is the cut kernel's first work
        monkeypatch.setattr(invariants, "_subset_planes", forbidden)
        monkeypatch.setattr(invariants, "find_induced_p2_plus_kp1", forbidden)
        code, _, err = run_cli(capsys, "invariants", "--family", "gnp:17,1/2", "--seed", "1", "--k", "1")
        assert code == 2 and "capped at n=16" in err


class TestExtractCommand:
    def test_same_part_pair_certificate(self, capsys, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "extract", "--graph6", K44, "--k", "2",
            "--u", "0", "--v", "1", "--output", str(dest),
        )
        assert code == 0
        assert "outcome=toughness_witness" in out
        assert "rule9" in out
        assert "validated=True" in out
        record = json.loads(dest.read_text())
        assert record["kind"] == "toughness_witness"

    def test_hamilton_path_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "extract", "--family", "complete:7", "--k", "1", "--u", "0", "--v", "6"
        )
        assert code == 0 and "outcome=hamilton_path" in out

    def test_disconnected_is_still_success(self, capsys):
        # two disjoint edges: the certificate is the tool's answer, exit 0
        code, out, _ = run_cli(
            capsys, "extract", "--graph6", "C`", "--k", "1", "--u", "0", "--v", "1"
        )
        assert code == 0 and "small_cut" in out

    def test_stall_is_not_validated(self, capsys, monkeypatch):
        # a stall carries no certificate, so there is nothing to validate
        stalled = ExtractionResult(outcome=Stalled("probe"), trace=("rule7",))
        monkeypatch.setattr(cli, "extract", lambda *args: stalled)

        def forbidden(*args):
            raise AssertionError("validate_outcome called on a stall")

        monkeypatch.setattr(cli, "validate_outcome", forbidden)
        code, out, _ = run_cli(
            capsys, "extract", "--family", "complete:5", "--k", "2", "--u", "0", "--v", "1"
        )
        assert code == 0 and "outcome=stalled" in out
        assert "validated=n/a (no certificate emitted)" in out


class TestSweepCommand:
    def test_small_exhaustive_clean(self, capsys, tmp_path):
        dest = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "exhaustive:4", "--k", "1",
            "--pairs", "all", "--output", str(dest),
        )
        assert code == 0
        assert "violations=0" in out
        lines = [json.loads(ln) for ln in dest.read_text().splitlines()]
        assert len(lines) == 64
        assert all(ln["n"] == 4 and ln["k"] == 1 for ln in lines)
        tallies = [sum(ln["pairs"].values()) for ln in lines]
        assert tallies == [ln["pairs_attempted"] for ln in lines]

    def test_reproducible_modulo_elapsed(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for dest in (a, b):
            code, _, _ = run_cli(
                capsys, "sweep", "--family", "gnp:8,1/2", "--samples", "30",
                "--k", "2", "--seed", "11", "--pairs", "sample:2",
                "--output", str(dest),
            )
            assert code == 0

        def strip(path):
            out = []
            for ln in path.read_text().splitlines():
                d = json.loads(ln)
                d.pop("elapsed_ms")
                out.append(json.dumps(d, sort_keys=True))
            return out

        assert strip(a) == strip(b)

    def test_progress_bound_exceeded_exits_1(self, capsys, monkeypatch):
        # an overshoot is an engine bug even when no violation was recorded
        overshot = SweepSummary(max_extension_overshoot=2)
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: overshot)
        code, out, _ = run_cli(capsys, "sweep", "--family", "exhaustive:4", "--k", "1")
        assert code == 1
        assert "extension bound exceeded by 2" in out and "violations=0" not in out

    def test_progress_line_every_50000_graphs(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--family", "gnp:3,0", "--samples", "50000",
            "--seed", "0", "--k", "1", "--pairs", "none",
        )
        assert code == 0
        assert err == "... 50000 graphs processed\n"

    def test_over_ceiling_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--family", "exhaustive:8", "--k", "1")
        assert code == 2

    def test_gnp_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--family", "gnp:8,1/2", "--k", "1")
        assert code == 2 and "seed" in err

    def test_light_sweep_over_cap_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--family", "gnp:24,9/10", "--seed", "1", "--k", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "capped at n=16" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gnp:8,3/2", "p must lie in [0,1]"),
            ("complete:0", "bad family spec 'complete:0'"),
            ("path:0", "bad family spec 'path:0'"),
            ("exhaustive:0", "bad family spec 'exhaustive:0'"),
            ("gnp:0,1/2", "bad family spec 'gnp:0,1/2'"),
            ("bipartite:0,0", "bad family spec 'bipartite:0,0'"),
            ("complete:-3", "bad family spec 'complete:-3'"),
            ("cycle:2", "bad family spec 'cycle:2'"),
        ],
        ids=["gnp-p", "complete-0", "path-0", "exhaustive-0", "gnp-0", "bipartite-0-0",
             "complete-neg", "cycle-2"],
    )
    def test_bad_family_spec_exits_2_before_any_record(self, capsys, tmp_path, spec, message):
        # the good family comes first, so a late refusal would already have written its records
        dest = tmp_path / "f.jsonl"
        code, out, err = run_cli(
            capsys, "sweep", "--family", "exhaustive:4", "--family", spec, "--seed", "1",
            "--k", "1", "--output", str(dest),
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and message in err
        assert not dest.exists()

    def test_input_graph_over_cap_exits_2(self, capsys, tmp_path):
        f = tmp_path / "graphs.g6"
        f.write_text(K44 + "\n" + write_graph6(complete_graph(17)) + "\n")
        code, out, err = run_cli(capsys, "sweep", "--input", str(f), "--k", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "capped at n=16" in err

    def test_input_graph_over_cap_leaves_no_output_file(self, capsys, tmp_path):
        f = tmp_path / "graphs.g6"
        f.write_text(write_graph6(complete_graph(17)) + "\n")
        dest = tmp_path / "out.jsonl"
        code, out, err = run_cli(capsys, "sweep", "--input", str(f), "--k", "1", "--output", str(dest))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "capped at n=16" in err
        assert not dest.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--pairs", "sample:x"),
            ("--pairs", "sample:-1"),
            ("--samples", "-3"),
            ("--samples", "0"),
        ],
    )
    def test_bad_numbers_exit_2(self, capsys, flags):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "cycle:6", "--family", "gnp:6,1/2", "--seed", "1",
            "--k", "1", *flags,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_exit_2_before_any_pool(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        code, out, err = run_cli(
            capsys, "sweep", "--family", "cycle:6", "--k", "1", f"--jobs={jobs}"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_input_file_sweep(self, capsys, tmp_path):
        f = tmp_path / "graphs.g6"
        f.write_text(K44 + "\n" + K44 + "\n")
        code, out, _ = run_cli(
            capsys, "sweep", "--input", str(f), "--k", "2", "--pairs", "sample:1"
        )
        assert code == 0 and "graphs=2" in out


class TestTightnessCommand:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_boundary_profile(self, n):
        rep = tightness_report(n)
        assert rep["toughness"] == "1/1"
        assert rep["kappa"] == n // 2
        assert rep["forbidden_free"] is True
        assert rep["hamiltonian_connected"] is False
        assert rep["outcome_kind"] == "toughness_witness"
        assert rep["outcome_validated"] is True
        assert rep["cut_is_one_part"] is True

    def test_flagging_of_non_multiple_of_four(self):
        assert tightness_report(6)["k_flagged"] is True
        assert tightness_report(8)["k_flagged"] is False

    def test_cli_output(self, capsys):
        code, out, _ = run_cli(capsys, "tightness", "--n", "8")
        assert code == 0
        assert "toughness = 1/1" in out and "connectivity = 4" in out

    def test_odd_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "tightness", "--n", "7")
        assert code == 2


class TestValidateCommand:
    def test_accept_and_reject(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps({
                "kind": "toughness_witness", "k": 2, "u": 0, "v": 1,
                "cut": [0, 1, 2, 3], "independent": [4, 5, 6, 7],
            }) + "\n"
        )
        code, out, _ = run_cli(
            capsys, "validate", "--graph6", K44, "--outcome", str(good)
        )
        assert code == 0 and "accept" in out

        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({
                "kind": "toughness_witness", "k": 2, "u": 0, "v": 1,
                "cut": [0, 1, 2], "independent": [3, 4, 5, 6, 7],
            }) + "\n"
        )
        code, out, _ = run_cli(
            capsys, "validate", "--graph6", K44, "--outcome", str(bad)
        )
        assert code == 1 and "reject" in out

    def test_malformed_outcome_exits_2(self, capsys, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text("{nope}\n")
        code, _, err = run_cli(capsys, "validate", "--graph6", K44, "--outcome", str(f))
        assert code == 2

    @pytest.mark.parametrize("cut", ["[1.0]", "[true]", '["1"]'])
    def test_non_integer_vertex_exits_2(self, capsys, monkeypatch, cut):
        record = '{"kind":"small_cut","k":1,"u":0,"v":1,"cut":%s}\n' % cut
        monkeypatch.setattr("sys.stdin", io.StringIO(record))
        code, out, err = run_cli(capsys, "validate", "--family", "cycle:5", "--outcome", "-")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_stalled_record_without_a_string_diagnostic_exits_2(self, capsys, monkeypatch):
        record = '{"kind":"stalled","k":1,"u":0,"v":1,"diagnostic":[1]}\n'
        monkeypatch.setattr("sys.stdin", io.StringIO(record))
        code, out, err = run_cli(capsys, "validate", "--family", "cycle:5", "--outcome", "-")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "diagnostic needs a string" in err

    def test_claim_about_no_pair_of_the_graph_is_rejected(self, capsys, monkeypatch):
        record = '{"kind":"small_cut","k":2,"u":99,"v":99,"cut":[0,2]}\n'
        monkeypatch.setattr("sys.stdin", io.StringIO(record))
        code, out, _ = run_cli(capsys, "validate", "--family", "cycle:5", "--outcome", "-")
        assert code == 1 and "reject (bad-pair" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "--k", "1", "--input"),
        ("sweep", "--k", "1", "--input"),
        ("validate", "--graph6", K44, "--outcome"),
    ],
)
def test_non_utf8_file_exits_2(capsys, tmp_path, argv):
    f = tmp_path / "binary"
    f.write_bytes(bytes(range(0x80, 0x100)))  # no UTF-8 text starts with a continuation byte
    code, out, err = run_cli(capsys, *argv, str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


EMPTY_FILE = "<an empty file>"  # replaced by the path of one


@pytest.mark.parametrize(
    "argv, message",
    [
        (("invariants", "--k", "1", "--family", "exhaustive:4"), "only make sense under sweep"),
        (("invariants", "--k", "1", "--family", "exhaustive:8"), "exceeds the ceiling of 7"),
        (("invariants", "--k", "1", "--input", EMPTY_FILE), "no graph6 lines"),
        (("sweep", "--k", "1,x"), "bad --k list '1,x'"),
        (("sweep", "--k", "0,1"), "a sweep needs at least one k, each at least 1"),
        (("sweep", "--k", "1"), "the sweep selected no graphs"),
        (("sweep", "--k", "1", "--input", EMPTY_FILE), "no graph6 lines in "),
        (("validate", "--graph6", K44, "--outcome", EMPTY_FILE), "no outcome record"),
        (("tightness", "--n", "16"), "capped at n=12"),
        (("invariants", "--family", "exhaustive:4"), "required: --k"),
        (("invariants", "--family", "exhaustive:4", "--k", "x"), "invalid int value: 'x'"),
        (("frobnicate",), "invalid choice: 'frobnicate'"),
    ],
    ids=["invariants-exhaustive", "invariants-exhaustive-over-ceiling", "invariants-empty-input",
         "sweep-bad-k", "sweep-k-0", "sweep-no-graphs", "sweep-empty-input", "validate-empty-outcome",
         "tightness-over-cap", "invariants-missing-k", "invariants-bad-k", "unknown-command"],
)
def test_bad_input_exits_2(capsys, tmp_path, argv, message):
    empty = tmp_path / "empty"
    empty.write_text("")
    code, out, err = run_cli(capsys, *(str(empty) if a == EMPTY_FILE else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
