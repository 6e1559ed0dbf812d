import json

import pytest

from hamcert import complete_bipartite, complete_graph, invariants, write_graph6
from hamcert.cli import main, tightness_report


def run_cli(capsys, *argv):
    code = main(list(argv))
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

    def test_input_file(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text(K44 + "\n")
        code, out, _ = run_cli(capsys, "invariants", "--input", str(f), "--k", "2")
        assert code == 0 and "connectivity=4" in out

    def test_over_cap_exits_2_before_any_search(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("searched a graph beyond the cut-scan ceiling")

        monkeypatch.setattr(invariants, "vertex_connectivity", forbidden)
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

    def test_input_graph_over_cap_exits_2(self, capsys, tmp_path):
        f = tmp_path / "graphs.g6"
        f.write_text(K44 + "\n" + write_graph6(complete_graph(17)) + "\n")
        code, out, err = run_cli(capsys, "sweep", "--input", str(f), "--k", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "capped at n=16" in err

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
