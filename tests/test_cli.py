import hashlib
import io
import json
import warnings

import pytest

from synchrokit import cli, search, sync
from synchrokit.cli import main
from synchrokit.core import loads_dfa
from synchrokit.families import v
from synchrokit.pairgraph import CertificateCheck
from synchrokit.sync import reset_threshold_exact


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
        assert "153600 bytes, more than the 100000 bytes of physical memory" in err

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

    def test_exact_reports_the_reset_check(self, capsys, monkeypatch):
        checked = []

        def refuse(d, w):
            checked.append(w)
            return False

        monkeypatch.setattr(cli, "_resets", refuse, raising=False)
        code, obj, _ = run_json(capsys, "word", "--family", "v", "--n", "5", "--method", "exact")
        assert code == 0 and obj["verified"] is False
        assert [len(w) for w in checked] == [obj["length"]]

    def test_exact_not_synchronizing_is_exit_1_with_json(self, capsys):
        code, obj, err = run_json(capsys, "word", "--family", "f", "--n", "7", "--method", "exact")
        assert code == 1
        assert obj == {"n": 7, "synchronizing": False, "word": None}
        assert "not synchronizing" in err

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

    def test_exhaustive_experiment_past_physical_memory_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sync, "_physical_memory", lambda: 8 << 30)
        code, out, err = run(capsys, "pair-diam", "--experiment", "exhaustive", "--n", "11")
        assert code == 2 and out == ""
        assert "more than the 8589934592 bytes of physical memory" in err

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

    def test_failing_edge_is_exit_1_with_counterexample(self, capsys, monkeypatch):
        failing = CertificateCheck(False, ((1, 3), "a", (2, 0)))
        monkeypatch.setattr(cli, "verify_certificate", lambda p, cert: failing)
        code, obj, _ = run_json(capsys, "certify", "--family", "f", "--n", "7")
        assert code == 1
        assert obj["valid"] is False and obj["tight"] is False
        assert obj["counterexample"] == {"pair": [1, 3], "letter": "a", "image": [2, 0]}

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

    BAD_WORKERS = pytest.mark.parametrize(
        "flags, env",
        [(("--workers", "0"), None), ((), "x"), ((), "0")],
        ids=["flag-0", "env-x", "env-0"],
    )

    @BAD_WORKERS
    def test_random_mode_ignores_workers(self, capsys, monkeypatch, flags, env):
        argv = ("search", "--n", "5", "--mode", "random", "--trials", "2")
        plain = run(capsys, *argv)
        if env is not None:
            monkeypatch.setenv("SYNCHROKIT_WORKERS", env)
        assert run(capsys, *argv, *flags) == plain
        assert plain[0] == 0

    @BAD_WORKERS
    def test_census_refuses_bad_workers(self, capsys, monkeypatch, flags, env):
        if env is not None:
            monkeypatch.setenv("SYNCHROKIT_WORKERS", env)
        code, out, err = run(capsys, "search", "--n", "4", "--mode", "exhaustive", *flags)
        assert code == 2 and out == "" and "error" in err

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
            lambda obj: {**obj, "witness": "".join(obj["witness"])},
        ],
        ids=["unknown-letter", "no-witness", "not-an-object", "block-without-p1", "witness-a-string"],
    )
    def test_resume_from_a_malformed_journal_is_usage_error(self, capsys, tmp_path, edit):
        path, data = self.journal_with(tmp_path, edit)
        code, out, err = run(capsys, "search", "--mode", "exhaustive", "--n", "4", "--out", str(path))
        assert code == 2 and out == "" and "error" in err
        assert path.read_bytes() == data

    def test_summarize_a_record_without_rt_is_usage_error(self, capsys, tmp_path):
        path, _ = self.journal_with(tmp_path, lambda obj: {"type": "record"})
        code, out, err = run(capsys, "search", "summarize", str(path))
        assert code == 2 and out == "" and "malformed record JSON: 'dfa'" in err

    def test_summarize_refuses_a_record_the_resume_refuses(self, capsys, tmp_path):
        # the record's rt is a valid 8, but its witness names no letter
        path, _ = self.journal_with(tmp_path, lambda obj: {**obj, "witness": ["zz"] + obj["witness"][1:]})
        code, out, err = run(capsys, "search", "summarize", str(path))
        assert code == 2 and out == "" and "no letter named 'zz'" in err

    def test_summarize_refuses_trials_past_the_header_count(self, capsys, tmp_path):
        path = tmp_path / "pairs.jsonl"
        cfg = search.SearchConfig(n=6, mode=search.SearchMode.RANDOM, trials=10, seed=3, output_path=path)
        search.random_pair_diameter_experiment(cfg)
        objs = [json.loads(line) for line in path.read_text().splitlines()][:-1]
        objs += [dict(objs[-1], trial=10), dict(objs[-1], trial=11)]
        path.write_text("".join(map(search._json_line, objs)))
        code, out, err = run(capsys, "search", "summarize", str(path))
        assert code == 2 and out == "" and "line 12: trial 10 past the header's 10 trials" in err

    def test_summarize_refuses_trials_past_the_orbit_count(self, capsys, tmp_path):
        # an n = 5 exhaustive file has 89 pair orbits, so 89 trials at most
        path = tmp_path / "pairs.jsonl"
        search.random_pair_diameter_experiment(
            search.SearchConfig(n=5, mode=search.SearchMode.EXHAUSTIVE, output_path=path)
        )
        objs = [json.loads(line) for line in path.read_text().splitlines()][:-1]
        objs += [dict(objs[-1], trial=89), dict(objs[-1], trial=90)]
        path.write_text("".join(map(search._json_line, objs)))
        code, out, err = run(capsys, "search", "summarize", str(path))
        assert code == 2 and out == "" and "line 91: trial 89 past the header's 89 trials" in err

    def test_summarize_needs_file(self, capsys):
        code, out, _ = run(capsys, "search", "summarize")
        assert code == 2 and out == ""

    def test_needs_mode_and_n(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "4")
        assert code == 2 and out == ""

    def test_stray_positional(self, capsys):
        code, out, _ = run(capsys, "search", "summarize", "x.jsonl", "--n", "4")
        assert code == 2 and out == ""


def lines_edited(change):
    """An edit of a journal's bytes that applies ``change`` to its list of
    line objects and writes them back as the census writes its lines."""
    def edit(data: bytes) -> bytes:
        objs = [json.loads(line) for line in data.splitlines()]
        return "".join(map(search._json_line, change(objs))).encode("ascii")
    return edit


def smaller_record() -> dict:
    """A valid 4-state record of rt 3, below the census maximum of 8."""
    d = loads_dfa("4 1\na 0 0 1 2\n")
    rt, word = reset_threshold_exact(d)
    return search.record_to_json_dict(search.SearchRecord(d, rt, word))


# Edits of the clean n = 4 census journal (header, 24 blocks with the one
# record after the first, and the result line), and a foreign file with no
# newline.  Every reader refuses them.
REFUSED_JOURNALS = {
    "block-without-p1": lines_edited(lambda o: o[:1] + [{"type": "block"}] + o[2:]),
    "wrong-format": lines_edited(lambda o: [{**o[0], "format": 2}] + o[1:]),
    "config-extra-key": lines_edited(lambda o: [{**o[0], "config": {**o[0]["config"], "x": 0}}] + o[1:]),
    "kind-a-list": lines_edited(lambda o: [{**o[0], "kind": ["max-rt-census"]}] + o[1:]),
    "header-not-first": lines_edited(lambda o: [o[1], o[0]] + o[2:]),
    "no-header": lines_edited(lambda o: o[1:]),
    "max-rt-not-an-integer": lines_edited(lambda o: o[:-1] + [{**o[-1], "max_rt": "x"}]),
    "max-rt-not-the-record's": lines_edited(lambda o: o[:-1] + [{**o[-1], "max_rt": 99}]),
    "unknown-type": lines_edited(lambda o: o[:2] + [{"type": "note"}] + o[2:]),
    "two-headers": lines_edited(lambda o: o[:1] + o),
    "line-after-result": lines_edited(lambda o: o + o[-1:]),
    "rt-goes-down": lines_edited(lambda o: o[:3] + [smaller_record()] + o[3:]),
    "p1-a-string": lines_edited(lambda o: o[:1] + [{"type": "block", "p1": "0123"}] + o[2:]),
    "p1-of-wrong-length": lines_edited(lambda o: o[:1] + [{"type": "block", "p1": [0, 1, 2]}] + o[2:]),
    "p1-twice": lines_edited(lambda o: o[:2] + o[1:]),
    "trial-in-a-census": lines_edited(lambda o: o[:2] + [{"type": "trial", "trial": 0}] + o[2:]),
    "result-without-record": lines_edited(lambda o: [obj for obj in o if obj["type"] != "record"]),
    "not-a-journal": lambda data: b"not a journal",
}
# Journals a crash can leave before any block is done: every reader takes them.
PARTIAL_JOURNALS = {
    "header-only": lambda data: data[: data.index(b"\n") + 1],
    "cut-inside-header": lambda data: data[:20],
}


class TestOneJournalReader:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory) -> bytes:
        path = tmp_path_factory.mktemp("census") / "census.jsonl"
        search.max_reset_threshold_exhaustive(4, output_path=path)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "edit,accepted",
        [pytest.param(edit, False, id=name) for name, edit in REFUSED_JOURNALS.items()]
        + [pytest.param(edit, True, id=name) for name, edit in PARTIAL_JOURNALS.items()],
    )
    def test_every_reader_gives_one_verdict(self, capsys, tmp_path, clean, edit, accepted):
        path = tmp_path / "census.jsonl"
        path.write_bytes(edit(clean))
        data = path.read_bytes()
        summary_code, summary_out, _ = run(capsys, "search", "summarize", str(path))
        resume = ("search", "--mode", "exhaustive", "--n", "4", "--out", str(path))
        if accepted:
            assert search.load_records(path) == []
            summary = search.summarize_results(path)
            assert summary["records"] == summary["blocks_done"] == 0 and not summary["complete"]
            assert summary_code == 0 and json.loads(summary_out) == summary
            code, out, _ = run(capsys, *resume)
            assert code == 0 and json.loads(out)["max_rt"] == 8
            assert path.read_bytes() == clean
        else:
            with pytest.raises(ValueError):
                search.load_records(path)
            with pytest.raises(ValueError):
                search.summarize_results(path)
            assert (summary_code, summary_out) == (2, "")
            code, out, err = run(capsys, *resume)
            assert (code, out) == (2, "") and "error" in err
            assert path.read_bytes() == data

    @pytest.mark.parametrize(
        "experiment",
        [search.random_rt_experiment, search.random_pair_diameter_experiment],
        ids=["random-rt", "pair-diameter"],
    )
    def test_census_resume_refuses_an_experiment_file(self, capsys, tmp_path, experiment):
        path = tmp_path / "experiment.jsonl"
        experiment(search.SearchConfig(n=4, mode=search.SearchMode.RANDOM, trials=3, output_path=path))
        data = path.read_bytes()
        code, out, err = run(capsys, "search", "--mode", "exhaustive", "--n", "4", "--out", str(path))
        assert (code, out) == (2, "") and "not a census journal" in err
        assert path.read_bytes() == data


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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--family", "cerny", "--n", "3"),
             "8e37d77c89af94d2ce0dbf59a6ccb32281258c94665279af93dd66a89e6d064e"),
            (("--family", "cerny", "--n", "3", "--zero-based-labels"),
             "f3f522e885f5589003788266c2a0f60415254318ad57396c5010c18fc45f1657"),
            (("--family", "v", "--n", "5"),
             "03f5b23409b2851701a0a9b483a8ad60102e835a259f097a0754ebb513a1f0a9"),
            (("--family", "f", "--n", "7", "--pair-digraph", "--certificate"),
             "8a498a1dc799a0ba476d8a888064126bdf55cfc1ff166843419b1aedc55cd335"),
            (("--family", "f", "--n", "7"),
             "adb6b625409448c44379d204c834692b08a7a54290b7450b146aa25133307a91"),
            (("--family", "rystsov", "--n", "4"),
             "273984ea8febbe23d19557f47c971ea2451b42669c13bc7fbc7cf2d317d84280"),
            (("--family", "cb", "--n", "4", "--k", "2"),
             "87ad1c162631b98da88d018e37f563c75bdb1f4e3b0ecbef646e6147f2301bc1"),
        ],
        ids=["cerny-3", "cerny-3-zero-based", "v-5", "f-7-certificate", "f-7", "rystsov-4", "cb-4-2"],
    )
    def test_pinned_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, "export-dot", *argv)
        assert code == 0 and hashlib.sha256(out.encode("ascii")).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--n", "4", "--mode", "exhaustive", "--out"),
            ("search", "--n", "4", "--mode", "exhaustive", "--no-resume", "--out"),
            ("search", "--n", "4", "--mode", "random", "--trials", "3", "--out"),
            ("gen", "--family", "cerny", "--n", "4", "-o"),
        ],
        ids=["census", "census-no-resume", "random", "gen"],
    )
    def test_an_output_path_the_system_refuses_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, str(tmp_path))
        assert code == 2 and out == "" and str(tmp_path) in err

    def test_a_broken_pipe_still_exits_1(self, capsys, monkeypatch):
        def broken(args):
            raise BrokenPipeError
        monkeypatch.setattr(cli, "_cmd_gen", broken)
        assert run(capsys, "gen", "--family", "cerny", "--n", "4") == (1, "", "")

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
