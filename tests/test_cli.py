import io
import json
import warnings

import pytest

from synchrokit import search, sync
from synchrokit.cli import main
from synchrokit.core import loads_dfa
from synchrokit.families import v


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestGen:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "v", "--n", "5")
        assert code == 0
        assert out == (
            "5 5\n"
            "a1 1 0 2 3 4\n"
            "a2 0 2 1 3 4\n"
            "a3 0 1 3 2 4\n"
            "a4 0 1 2 4 3\n"
            "a5 0 0 2 3 4\n"
        )
        assert loads_dfa(out) == v(5)

    def test_json_output(self, capsys):
        code, obj, _ = run_json(capsys, "gen", "--family", "cerny", "--n", "3", "--format", "json")
        assert code == 0
        assert obj == {
            "n": 3,
            "letters": [
                {"name": "a", "images": [1, 2, 0]},
                {"name": "b", "images": [1, 1, 2]},
            ],
        }

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "d.txt"
        code, out, _ = run(capsys, "gen", "--family", "cb", "--n", "6", "--k", "2", "-o", str(target))
        assert code == 0 and out == ""
        assert loads_dfa(target.read_text()).letter_names() == ("a", "b", "c")

    def test_bad_parameters_exit_2_without_stdout(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "f", "--n", "6")
        assert code == 2 and out == ""
        assert "error" in err


class TestRt:
    def test_reads_stdin_pipeline_equivalent(self, capsys, tmp_path):
        path = tmp_path / "v5.txt"
        run(capsys, "gen", "--family", "v", "--n", "5", "-o", str(path))
        code, obj, _ = run_json(capsys, "rt", str(path))
        assert code == 0
        assert obj["rt"] == 10
        assert obj["synchronizing"] is True
        assert len(obj["word"]) == 10

    def test_family_shortcut(self, capsys):
        code, obj, _ = run_json(capsys, "rt", "--family", "cerny", "--n", "4")
        assert code == 0 and obj["rt"] == 9

    def test_not_synchronizing_is_exit_1_with_json(self, capsys):
        code, obj, err = run_json(capsys, "rt", "--family", "f", "--n", "7")
        assert code == 1
        assert obj == {"n": 7, "synchronizing": False, "rt": None, "word": None}
        assert "not synchronizing" in err

    def test_fractional_json_images_are_usage_error(self, capsys, monkeypatch):
        letters = [{"name": "a", "images": [1.9, 0.2]}, {"name": "b", "images": [0, 0]}]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": 2, "letters": letters})))
        code, out, err = run(capsys, "rt", "-")
        assert code == 2 and out == ""
        assert "1.9 is not an integer" in err

    def test_cap_exceeded_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "rt", "--family", "cerny", "--n", "40")
        assert code == 2 and out == ""

    def test_memory_exceeded_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sync, "_physical_memory", lambda: 100000)
        code, out, err = run(capsys, "rt", "--family", "cerny", "--n", "12")
        assert code == 2 and out == ""
        assert "133120 bytes, more than the 100000 bytes of physical memory" in err

    def test_file_and_family_conflict(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("2 1\na 0 0\n")
        code, out, _ = run(capsys, "rt", str(path), "--family", "v", "--n", "3")
        assert code == 2 and out == ""

    def test_missing_input(self, capsys):
        code, out, _ = run(capsys, "rt")
        assert code == 2 and out == ""

    def test_unreadable_file(self, capsys):
        code, out, _ = run(capsys, "rt", "/no/such/file.txt")
        assert code == 2 and out == ""


class TestWord:
    def test_default_pairchase(self, capsys):
        code, obj, _ = run_json(capsys, "word", "--family", "cerny", "--n", "10")
        assert code == 0
        assert obj["method"] == "pairchase" and obj["verified"] is True

    def test_exact(self, capsys):
        code, obj, _ = run_json(capsys, "word", "--family", "v", "--n", "5", "--method", "exact")
        assert code == 0
        assert obj["length"] == 10 and obj["method"] == "exact_bfs"

    def test_extension(self, capsys):
        code, obj, _ = run_json(capsys, "word", "--family", "v", "--n", "12", "--method", "extension")
        assert code == 0
        assert obj["verified"] is True and obj["length"] <= 2 * 144 - 72 + 5

    def test_exact_past_32_states_is_usage_error(self, capsys):
        code, out, err = run(capsys, "word", "--family", "cerny", "--n", "40", "--method", "exact")
        assert code == 2 and out == ""
        assert "at most 32 states" in err

    def test_pairchase_rejection_is_exit_1(self, capsys):
        code, obj, err = run_json(capsys, "word", "--family", "f", "--n", "7")
        assert code == 1
        assert obj == {"n": 7, "error": "automaton is not synchronizing"}

    def test_extension_rejection_is_exit_1(self, capsys):
        code, obj, err = run_json(
            capsys, "word", "--family", "rystsov", "--n", "6", "--method", "extension"
        )
        assert code == 1
        assert "error" in obj and "2-transitive" in obj["error"]

    def test_cb_method(self, capsys):
        code, obj, _ = run_json(capsys, "word", "--method", "cb", "--n", "9", "--k", "2")
        assert code == 0
        assert obj["method"] == "cb_rounds" and obj["verified"] is True

    def test_cb_method_needs_n(self, capsys):
        code, out, _ = run(capsys, "word", "--method", "cb")
        assert code == 2 and out == ""

    def test_cb_method_rejects_other_families(self, capsys):
        code, out, _ = run(capsys, "word", "--family", "v", "--n", "5", "--method", "cb")
        assert code == 2 and out == ""

    def test_cb_method_rejects_input_files(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3 1\na 1 1 2\n")
        code, out, _ = run(capsys, "word", str(path), "--method", "cb", "--n", "5")
        assert code == 2 and out == ""


class TestMonoidCheck:
    def test_full(self, capsys):
        code, obj, _ = run_json(capsys, "monoid-check", "--family", "v", "--n", "6")
        assert code == 0
        assert obj["full_transition_monoid"] is True
        assert obj["permutations_generate_symmetric_group"] is True
        assert obj["rank_n_minus_one_letters"] == ["a6"]

    def test_not_full_is_exit_1(self, capsys):
        code, obj, _ = run_json(capsys, "monoid-check", "--family", "cerny", "--n", "5")
        assert code == 1
        assert obj["full_transition_monoid"] is False
        assert obj["permutation_letters"] == ["a"]


class TestPairDiam:
    def test_single_automaton(self, capsys):
        code, obj, _ = run_json(capsys, "pair-diam", "--family", "f", "--n", "7")
        assert code == 0
        assert obj["diameter"] == 15 and obj["strongly_connected"] is True
        assert obj["vertices"] == 21

    def test_disconnected_is_exit_1(self, capsys):
        code, obj, _ = run_json(capsys, "pair-diam", "--family", "cerny", "--n", "4")
        assert code == 1
        assert obj["strongly_connected"] is False and obj["diameter"] is None

    def test_random_experiment(self, capsys):
        code, obj, _ = run_json(
            capsys, "pair-diam", "--experiment", "random", "--n", "10", "--trials", "8", "--seed", "1"
        )
        assert code == 0
        assert obj["trials"] == 8 and obj["mode"] == "random"

    def test_exhaustive_experiment(self, capsys):
        code, obj, _ = run_json(capsys, "pair-diam", "--experiment", "exhaustive", "--n", "5")
        assert code == 0
        assert obj["max"] == 7

    def test_exhaustive_experiment_is_capped_at_nine(self, capsys):
        code, out, err = run(capsys, "pair-diam", "--experiment", "exhaustive", "--n", "10")
        assert code == 2 and out == ""
        assert "capped at n = 9" in err

    def test_experiment_needs_n(self, capsys):
        code, out, _ = run(capsys, "pair-diam", "--experiment", "random")
        assert code == 2 and out == ""


class TestCertify:
    def test_certificate_bound_and_tightness(self, capsys):
        code, obj, _ = run_json(capsys, "certify", "--family", "f", "--n", "11")
        assert code == 0
        assert obj["valid"] is True
        assert obj["bound"] == 37
        assert obj["bfs_distance"] == 37
        assert obj["tight"] is True

    def test_seven_states(self, capsys):
        code, obj, _ = run_json(capsys, "certify", "--family", "f", "--n", "7")
        assert code == 0
        assert obj["bound"] == 15 and obj["tight"] is True
        assert obj["start_pair"] == [1, 3] and obj["target_pair"] == [3, 6]

    def test_unsupported_size(self, capsys):
        code, out, _ = run(capsys, "certify", "--family", "f", "--n", "9")
        assert code == 2 and out == ""

    def test_other_families_rejected(self, capsys):
        code, out, _ = run(capsys, "certify", "--family", "cerny", "--n", "5")
        assert code == 2 and out == ""


class TestSearch:
    def test_exhaustive(self, capsys):
        code, obj, _ = run_json(capsys, "search", "--n", "4", "--mode", "exhaustive")
        assert code == 0
        assert obj["max_rt"] == 8
        assert obj["record"]["rt"] == 8

    def test_random_and_summarize(self, capsys, tmp_path):
        out_file = tmp_path / "run.jsonl"
        code, obj, _ = run_json(
            capsys,
            "search", "--n", "8", "--mode", "random",
            "--trials", "10", "--seed", "1", "--out", str(out_file),
        )
        assert code == 0 and obj["synchronizing"] == 10
        code, digest, _ = run_json(capsys, "search", "summarize", str(out_file))
        assert code == 0
        assert digest["complete"] is True and digest["summary"] == obj

    def test_exhaustive_at_eight_states_needs_no_flag(self, capsys, monkeypatch):
        # a census block that finds cerny(8), plus an identity letter, first
        identity, cycle = tuple(range(8)), tuple(range(1, 8)) + (0,)
        merge = (1,) + tuple(range(1, 8))

        def block(args):
            p1 = args[1]
            return (p1, 49, cycle, merge) if p1 == identity else (p1, -1, None, None)

        monkeypatch.setattr(search, "_census_block", block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, obj, _ = run_json(capsys, "search", "--n", "8", "--mode", "exhaustive", "--workers", "1")
        assert code == 0 and obj["max_rt"] == 49

    def test_exhaustive_past_physical_memory_is_usage_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sync, "_physical_memory", lambda: 8 << 30)
        out_path = tmp_path / "census.jsonl"
        code, out, err = run(
            capsys, "search", "--n", "10", "--mode", "exhaustive", "--workers", "1", "--out", str(out_path)
        )
        assert code == 2 and out == ""
        assert "more than the 8589934592 bytes of physical memory" in err
        assert not out_path.exists()

    def test_allow_large_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "8", "--mode", "exhaustive", "--allow-large"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and "--allow-large" in captured.err

    @staticmethod
    def journal_with(tmp_path, edit) -> tuple:
        """An n = 4 census journal whose first record line is replaced by
        ``edit(record)``, a JSON value, and which ends in a line cut off
        mid-write; and the journal's bytes."""
        path = tmp_path / "census.jsonl"
        search.max_reset_threshold_exhaustive(4, output_path=path)
        lines = path.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if '"type":"record"' in line)
        lines[i] = json.dumps(edit(json.loads(lines[i]))) + "\n"
        path.write_text("".join(lines[:-1]) + lines[-1][:5])
        return path, path.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: {**obj, "witness": ["zz"] + obj["witness"][1:]},
            lambda obj: {key: value for key, value in obj.items() if key != "witness"},
            lambda obj: [1, 2],
            lambda obj: {"type": "block"},
        ],
        ids=["unknown-letter", "no-witness", "not-an-object", "block-without-p1"],
    )
    def test_resume_from_a_malformed_journal_is_usage_error(self, capsys, tmp_path, edit):
        path, data = self.journal_with(tmp_path, edit)
        code, out, err = run(capsys, "search", "--mode", "exhaustive", "--n", "4", "--out", str(path))
        assert code == 2 and out == "" and "error" in err
        assert path.read_bytes() == data

    def test_summarize_a_record_without_rt_is_usage_error(self, capsys, tmp_path):
        path, _ = self.journal_with(tmp_path, lambda obj: {"type": "record"})
        code, out, err = run(capsys, "search", "summarize", str(path))
        assert code == 2 and out == "" and "not an integer" in err

    def test_summarize_needs_file(self, capsys):
        code, out, _ = run(capsys, "search", "summarize")
        assert code == 2 and out == ""

    def test_needs_mode_and_n(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "4")
        assert code == 2 and out == ""

    def test_stray_positional(self, capsys):
        code, out, _ = run(capsys, "search", "summarize", "x.jsonl", "--n", "4")
        assert code == 2 and out == ""


class TestExportDot:
    def test_automaton_dot(self, capsys):
        code, out, _ = run(capsys, "export-dot", "--family", "cerny", "--n", "3")
        assert code == 0
        assert out.startswith("digraph dfa {")
        assert '0 [label="q1"];' in out
        assert '0 -> 1 [label="a,b"];' in out

    def test_zero_based_labels(self, capsys):
        code, out, _ = run(capsys, "export-dot", "--family", "cerny", "--n", "3", "--zero-based-labels")
        assert '0 [label="0"];' in out

    def test_pair_digraph(self, capsys):
        code, out, _ = run(capsys, "export-dot", "--family", "f", "--n", "7", "--pair-digraph")
        assert code == 0
        assert out.startswith("digraph pairs {")

    def test_certificate_annotation(self, capsys):
        code, out, _ = run(
            capsys, "export-dot", "--family", "f", "--n", "7", "--pair-digraph", "--certificate"
        )
        assert code == 0 and 'q2q4\\n15' in out

    def test_certificate_without_pair_digraph(self, capsys):
        code, out, _ = run(capsys, "export-dot", "--family", "f", "--n", "7", "--certificate")
        assert code == 2 and out == ""


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("synchrokit ")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "synchrokit", "rt", "--family", "cerny", "--n", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rt"] == 9
