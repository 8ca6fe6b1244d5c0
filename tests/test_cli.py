"""Command-line surface: goldens, exit codes, formats, thread plumbing."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mstd
from mstd import (IntSet, SearchReport, UNIVERSE_CAP, UniverseOverflowError, k_set,
                  nathanson_set, partition3_feasible)
from mstd import cli, constructions
from mstd.constructions import default_blocks, middle_window


def run_cli(argv):
    # usage failures leave run() via SystemExit(64); fold them in
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return exc.code


# stdout, exit code and last stderr line of every leaf in each --format,
# plus the usage (64), data (65) and budget (2) error paths
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def golden_id(case):
    env = [f"{name}={value}" for name, value in case["env"].items()]
    return " ".join(env + case["argv"])


@pytest.mark.parametrize("case", GOLDEN, ids=golden_id)
def test_golden(case, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_THREADS, raising=False)
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    assert run_cli(case["argv"]) == case["exit"]
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    lines = captured.err.splitlines()
    assert (lines[-1] if lines else "") == case["stderr_tail"]


class TestClassify:
    def test_balanced(self, capsys):
        assert run_cli(["classify", "{3,5,7,9,11}"]) == 0
        assert capsys.readouterr().out == "balanced excess=0\n"

    def test_sum_dominant(self, capsys):
        assert run_cli(["classify", "{0,2,3,4,7,11,12,14}"]) == 0
        assert capsys.readouterr().out == "sum-dominant excess=1\n"

    def test_difference_dominant(self, capsys):
        assert run_cli(["classify", "{0, 1, 3}"]) == 0
        assert capsys.readouterr().out == "difference-dominant excess=-1\n"

    def test_gap_notation_operand(self, capsys):
        assert run_cli(["classify", "(0 | 2, 1, 1, 3, 4, 1, 2)"]) == 0
        assert capsys.readouterr().out == "sum-dominant excess=1\n"

    def test_json(self, capsys):
        assert run_cli(["classify", "{0,2,3,4,7,11,12,14}",
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"kind": "sum-dominant", "sum_card": 26,
                       "diff_card": 25, "excess": 1}

    def test_empty_set_is_data_error(self, capsys):
        assert run_cli(["classify", "{}"]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error:")


class TestSetArithmetic:
    def test_sumset_plain(self, capsys):
        assert run_cli(["sumset", "{0,1,3}"]) == 0
        assert capsys.readouterr().out == "{0, 1, 2, 3, 4, 6}\n"

    def test_sumset_json(self, capsys):
        assert run_cli(["sumset", "{0,1,3}", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [0, 1, 2, 3, 4, 6]

    def test_diffset_plain(self, capsys):
        assert run_cli(["diffset", "{0,1,3}"]) == 0
        assert capsys.readouterr().out == "{0, 1, 2, 3} cardinality=7\n"

    def test_diffset_json(self, capsys):
        assert run_cli(["diffset", "{0,1,3}", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "magnitudes": [0, 1, 2, 3], "cardinality": 7}

    def test_malformed_operand(self, capsys):
        assert run_cli(["sumset", "{0,,3}"]) == 65
        assert "error:" in capsys.readouterr().err

    def test_integer_too_long_to_read(self, capsys):
        # more digits than int() converts: one error line and exit 65
        assert run_cli(["classify", "{" + "1" * 5000 + "}"]) == 65
        assert capsys.readouterr().err == \
            "error: integer of 5000 digits is too long (offset 1)\n"


class TestSpohn:
    def test_parse(self, capsys):
        assert run_cli(["spohn", "parse", "(0 | 2, 1)"]) == 0
        assert capsys.readouterr().out == "{0, 2, 3}\n"

    def test_parse_singleton(self, capsys):
        assert run_cli(["spohn", "parse", "(7 |)"]) == 0
        assert capsys.readouterr().out == "{7}\n"

    def test_format(self, capsys):
        assert run_cli(["spohn", "format", "{0, 2, 3}"]) == 0
        assert capsys.readouterr().out == "(0 | 2, 1)\n"

    def test_format_json_is_string(self, capsys):
        assert run_cli(["spohn", "format", "{7}", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == "(7 |)"

    def test_round_trip(self, capsys):
        run_cli(["spohn", "format", "{0,2,3,4,7,11,12,14}"])
        text = capsys.readouterr().out.strip()
        run_cli(["spohn", "parse", text])
        assert capsys.readouterr().out == "{0, 2, 3, 4, 7, 11, 12, 14}\n"

    def test_bad_notation(self, capsys):
        assert run_cli(["spohn", "parse", "(0 | 2 1)"]) == 65
        assert "error:" in capsys.readouterr().err

    def test_integer_too_long_to_read(self, capsys):
        assert run_cli(["spohn", "parse", "(0 | " + "1" * 5000 + ")"]) == 65
        assert capsys.readouterr().err == \
            "error: integer of 5000 digits is too long (offset 5)\n"


class TestLemma:
    def test_ms1_applies(self, capsys):
        assert run_cli(["lemma", "ms1", "{0,1,2,4}"]) == 0
        assert capsys.readouterr().out \
            == "applies=yes guarantee=not-sum-dominant\n"

    def test_ms1_does_not_apply(self, capsys):
        assert run_cli(["lemma", "ms1", "{0,1,2,4,7}"]) == 0
        assert capsys.readouterr().out == "applies=no\n"

    def test_ms2_json(self, capsys):
        assert run_cli(["lemma", "ms2", "{0,1,2,5,6,7}", "3",
                        "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "applies": True, "guarantee": "not-sum-dominant"}

    @pytest.mark.parametrize("text,out", [
        ("{0,1,5}", "applies=no\n"), ("{3,4,5,6}", "applies=no\n"),
        ("{7}", "applies=yes guarantee=not-sum-dominant\n")])
    def test_ms2_huge_m_answers_at_once(self, text, out, capsys):
        # m = 2**60 is legal; it is compared with the set's gaps, never shifted by
        start = time.perf_counter()
        assert run_cli(["lemma", "ms2", text, str(2**60)]) == 0
        assert time.perf_counter() - start < 0.1
        assert capsys.readouterr().out == out

    def test_ms2_bad_m_is_data_error(self, capsys):
        assert run_cli(["lemma", "ms2", "{0,1}", "1"]) == 65
        assert "error:" in capsys.readouterr().err

    def test_extend(self, capsys):
        assert run_cli(["lemma", "extend", "{0,1,2,3,4,5}", "6"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_extend_json(self, capsys):
        assert run_cli(["lemma", "extend", "{0,1,2,3,10,11}", "4",
                        "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == 3


class TestConstruct:
    def test_kset_plain(self, capsys):
        assert run_cli(["construct", "kset", "9"]) == 0
        assert capsys.readouterr().out \
            == "{0, 1, 2, 4, 7, 8, 9, 13, 15, 16}\n"

    def test_kset_spohn(self, capsys):
        assert run_cli(["construct", "kset", "9", "--format", "spohn"]) == 0
        assert capsys.readouterr().out == "(0 | 1, 1, 2, 3, 1, 1, 4, 2, 1)\n"

    def test_kset_below_domain(self, capsys):
        assert run_cli(["construct", "kset", "8"]) == 65
        assert "error:" in capsys.readouterr().err

    def test_nathanson(self, capsys):
        assert run_cli(["construct", "nathanson", "5"]) == 0
        assert capsys.readouterr().out \
            == "{0, 2, 3, 4, 7, 11, 15, 19, 20, 22}\n"

    def test_ap(self, capsys):
        assert run_cli(["construct", "ap", "7", "4", "5"]) == 0
        assert capsys.readouterr().out == "{7, 11, 15, 19, 23}\n"

    def test_partition3_default_matches_explicit_blocks(self, capsys):
        assert run_cli(["construct", "partition3", "21"]) == 0
        default = capsys.readouterr().out
        assert run_cli(["construct", "partition3", "21",
                        "--m1", "{71,72}", "--m2", "{67,74,75,76,79}"]) == 0
        assert capsys.readouterr().out == default
        assert default.startswith("a1={1, 2, 3, 4, 8, 9, 11, 13, 14, 15, 20,")
        assert "s={66, 68, 69, 70, 73, 77, 78, 80}\n" in default

    def test_partition3_json_keys(self, capsys):
        assert run_cli(["construct", "partition3", "21",
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"m", "span", "a1", "a2", "s"}
        assert doc["span"] == 145
        assert doc["s"] == [66, 68, 69, 70, 73, 77, 78, 80]

    def test_partition3_lone_block_flag_is_usage_error(self, capsys):
        assert run_cli(["construct", "partition3", "21",
                        "--m1", "{71,72}"]) == 64
        assert "together" in capsys.readouterr().err

    def test_partition3_invalid_spec_is_data_error(self, capsys):
        assert run_cli(["construct", "partition3", "21",
                        "--m1", "{71,72}", "--m2", "{71,74,75,76,79}"]) == 65
        assert "error:" in capsys.readouterr().err

    # the least parameters past the cap: a check that came after the list
    # would spend seconds and ~1.5 GB on 2**24 elements
    @pytest.mark.parametrize("argv", [
        ["construct", "kset", str(UNIVERSE_CAP - 7)],
        ["construct", "nathanson", str(UNIVERSE_CAP // 4)],
        ["construct", "partition3", str(UNIVERSE_CAP - 124)],
        ["construct", "partition3", str(UNIVERSE_CAP - 124), "--m1", "{71,72}", "--m2", "{67}"],
        ["search", "partition3", str(UNIVERSE_CAP)],
    ])
    def test_beyond_the_cap_is_a_fast_data_error(self, argv, capsys):
        # the top element is checked from the parameter, before any list
        t0 = time.perf_counter()
        assert run_cli(argv) == 65
        assert time.perf_counter() - t0 < 0.1
        assert "at or beyond the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("build", [
        lambda: k_set(UNIVERSE_CAP - 7),
        lambda: nathanson_set(UNIVERSE_CAP // 4),
        lambda: middle_window(UNIVERSE_CAP - 124),
        lambda: default_blocks(UNIVERSE_CAP - 124),
        lambda: partition3_feasible(UNIVERSE_CAP),
    ])
    def test_library_checks_the_cap_first(self, build):
        t0 = time.perf_counter()
        with pytest.raises(UniverseOverflowError):
            build()
        assert time.perf_counter() - t0 < 0.1

    def test_cap_check_admits_the_top_position(self):
        constructions._within_cap(UNIVERSE_CAP - 1, "top")
        with pytest.raises(UniverseOverflowError, match="top reaches 16777216"):
            constructions._within_cap(UNIVERSE_CAP, "top")


class TestSearchLargest:
    def test_plain(self, capsys):
        assert run_cli(["search", "largest", "15"]) == 0
        assert capsys.readouterr().out \
            == "n=15 N=9 witness={0, 1, 2, 4, 5, 9, 12, 13, 14}\n"

    def test_absent(self, capsys):
        assert run_cli(["search", "largest", "14"]) == 0
        assert capsys.readouterr().out == "n=14 N=absent\n"

    def test_json(self, capsys):
        assert run_cli(["search", "largest", "15", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"search", "params", "examined", "witnesses",
                            "elapsed_s", "n_value"}
        assert doc["n_value"] == 9
        assert doc["examined"] == 4096
        assert doc["elapsed_s"] == 0.0
        assert doc["witnesses"] == [[0, 1, 2, 4, 5, 9, 12, 13, 14],
                                    [0, 1, 2, 5, 9, 10, 12, 13, 14]]

    def test_budget_exceeded(self, capsys):
        assert run_cli(["search", "largest", "30", "--max-discard", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "n=30 N=unresolved examined=407\n"
        assert "error:" in captured.err

    def test_budget_exceeded_json(self, capsys):
        assert run_cli(["search", "largest", "30", "--max-discard", "2",
                        "--format", "json"]) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["n_value"] is None and doc["examined"] == 407

    def test_negative_budget_is_usage_error(self, capsys):
        assert run_cli(["search", "largest", "15", "--max-discard", "-1"]) == 64

    def test_spohn_witness(self, capsys):
        assert run_cli(["search", "largest", "15", "--format", "spohn"]) == 0
        assert capsys.readouterr().out \
            == "n=15 N=9 witness=(0 | 1, 1, 2, 1, 4, 3, 1, 1)\n"


class TestSearchScans:
    def test_minsize_plain(self, capsys):
        assert run_cli(["search", "minsize", "14"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "search=minsize examined=9907 witnesses=2"
        assert out[1] == "witness={0, 2, 3, 4, 7, 11, 12, 14}"
        assert out[2] == "witness={0, 2, 3, 7, 10, 11, 12, 14}"

    def test_minsize_eight_element_witness_is_not_refuting(self, capsys):
        # the expected minimum has 8 elements, so finding it exits 0
        assert run_cli(["search", "minsize", "14"]) == 0
        capsys.readouterr()

    def test_appairs_clean(self, capsys):
        assert run_cli(["search", "appairs", "12", "2"]) == 0
        assert capsys.readouterr().out \
            == "search=appairs examined=10682 witnesses=0\n"

    def test_twoap_clean_json(self, capsys):
        assert run_cli(["search", "twoap", "10", "3",
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["examined"] == 16384 and doc["witnesses"] == []

    def test_partition3_infeasible(self, capsys):
        assert run_cli(["search", "partition3", "23"]) == 0
        assert capsys.readouterr().out \
            == "r=23 status=infeasible reason=3x8 > 23\n"

    def test_partition3_feasible(self, capsys):
        assert run_cli(["search", "partition3", "145"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "r=145 status=feasible"
        assert out[1].startswith("a1={1, 2, 3, 4, 8,")
        assert out[3] == "s={66, 68, 69, 70, 73, 77, 78, 80}"

    def test_partition3_unknown(self, capsys):
        assert run_cli(["search", "partition3", "100"]) == 0
        assert capsys.readouterr().out == "r=100 status=unknown\n"

    def test_partition3_exhaustive_json(self, capsys):
        assert run_cli(["search", "partition3", "24", "--exhaustive",
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "infeasible"
        assert "exhaustive" in doc["reason"]
        assert doc["witnesses"] == []
        assert doc["examined"] == 245157


class TestRefutingWitnessExit:
    # genuine refuting witnesses cannot exist in these ranges, so the
    # exit-1 paths are exercised with stubbed-in scan results
    def fake_report(self, name, witnesses):
        return SearchReport(name, {}, 3, [IntSet(w) for w in witnesses], 0.0)

    def test_appairs_witness_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            mstd, "ap_pair_scan",
            lambda span, diff, workers=1: self.fake_report(
                "appairs", [[0, 2, 3, 4, 7, 11, 12, 14]]))
        assert run_cli(["search", "appairs", "14", "1"]) == 1
        out = capsys.readouterr().out
        assert "witnesses=1" in out

    def test_twoap_witness_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            mstd, "two_ap_general_scan",
            lambda span, diff, workers=1: self.fake_report(
                "twoap", [[0, 2, 3, 4, 7, 11, 12, 14]]))
        assert run_cli(["search", "twoap", "14", "2"]) == 1
        capsys.readouterr()

    def test_minsize_small_witness_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            mstd, "min_size_scan",
            lambda diameter, workers=1: self.fake_report(
                "minsize", [[0, 1, 2, 4, 5, 9, 12]]))
        assert run_cli(["search", "minsize", "12"]) == 1
        capsys.readouterr()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"]) == 64
        capsys.readouterr()

    def test_missing_argument(self, capsys):
        assert run_cli(["classify"]) == 64
        capsys.readouterr()

    def test_non_integer_argument(self, capsys):
        assert run_cli(["construct", "kset", "nine"]) == 64
        capsys.readouterr()

    def test_bad_format_value(self, capsys):
        assert run_cli(["classify", "{1,2}", "--format", "xml"]) == 64
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert run_cli([]) == 64
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["classify", "{0,1,3}", "--threads", "2"],
        ["construct", "kset", "9", "--threads", "2"],
        ["--threads", "2", "search", "minsize", "5"],
        ["construct", "kset", "9", "--max-discard", "3"],
        ["search", "minsize", "5", "--max-discard", "3"],
        ["search", "partition3", "24", "--max-discard", "3"],
    ])
    def test_flag_outside_its_commands(self, capsys, argv):
        # --threads belongs to the search commands, --max-discard to
        # `search largest`; elsewhere they are unrecognized
        assert run_cli(argv) == 64
        assert "error:" in capsys.readouterr().err


class TestThreads:
    def test_zero_threads_is_usage_error(self, capsys):
        assert run_cli(["search", "minsize", "5", "--threads", "0"]) == 64
        capsys.readouterr()

    def test_flag_reaches_engine(self, capsys, monkeypatch):
        seen = {}

        def recorder(diameter, workers=1):
            seen["workers"] = workers
            return SearchReport("minsize", {"max_diameter": diameter},
                                0, [], 0.0)

        monkeypatch.setattr(mstd, "min_size_scan", recorder)
        assert run_cli(["search", "minsize", "5", "--threads", "3"]) == 0
        assert seen["workers"] == 3
        capsys.readouterr()

    def test_env_var_fallback(self, capsys, monkeypatch):
        seen = {}

        def recorder(diameter, workers=1):
            seen["workers"] = workers
            return SearchReport("minsize", {"max_diameter": diameter},
                                0, [], 0.0)

        monkeypatch.setattr(mstd, "min_size_scan", recorder)
        monkeypatch.setenv(cli.ENV_THREADS, "4")
        assert run_cli(["search", "minsize", "5"]) == 0
        assert seen["workers"] == 4
        capsys.readouterr()

    def test_flag_overrides_env(self, capsys, monkeypatch):
        seen = {}

        def recorder(diameter, workers=1):
            seen["workers"] = workers
            return SearchReport("minsize", {"max_diameter": diameter},
                                0, [], 0.0)

        monkeypatch.setattr(mstd, "min_size_scan", recorder)
        monkeypatch.setenv(cli.ENV_THREADS, "7")
        assert run_cli(["search", "minsize", "5", "--threads", "2"]) == 0
        assert seen["workers"] == 2
        capsys.readouterr()

    def test_invalid_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "many")
        assert run_cli(["search", "minsize", "5"]) == 64
        capsys.readouterr()

    def test_env_is_not_read_outside_searches(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "abc")
        assert run_cli(["classify", "{0,1,3}"]) == 0
        assert capsys.readouterr().out == "difference-dominant excess=-1\n"

    def test_output_identical_across_worker_counts(self, capsys):
        outs = []
        for t in ("1", "2", "4"):
            assert run_cli(["search", "largest", "16", "--format", "json",
                            "--threads", t]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]


# every golden case, then help, usage and unknown-command variants:
# --format before and after the command, abbreviated flags, help at each
# level, missing and extra words
PARSER_CASES = GOLDEN + [{"env": {}, "argv": argv} for argv in [
    ["--format", "json", "classify", "{0,1,3}"],
    ["--format=spohn", "sumset", "{0,1,3}"],
    ["--format", "plain", "--format=json", "search", "twoap", "10", "3"],
    ["classify", "{0,1,3}", "--format", "json"],
    ["classify", "{0,1,3}", "--format=json"],
    ["--form", "json", "classify", "{0,1,3}"],
    ["--format=js", "classify", "{0,1,3}"],
    ["classify", "{0,1,3}", "--form", "json"],
    ["search", "largest", "15", "--max-disc", "3"],
    ["--format", "xml", "classify", "{0,1,3}"],
    ["--format"],
    ["--format", "--format", "json", "classify", "{0,1,3}"],
    ["--format", "-h", "classify", "{0,1,3}"],
    ["-h"], ["--help"], ["--format", "json", "-h"], ["-h", "classify"],
    ["search", "-h"], ["--format", "json", "search", "--help"], ["spohn", "-h"],
    ["classify", "-h"], ["search", "largest", "-h"], ["--format=json", "lemma", "ms2", "--help"],
    ["classify"], ["search", "largest"], ["lemma", "ms2", "{0,1}"], ["search"], [],
    ["search", "frob", "3"], ["frobnicate"], ["classify", "{0,1,3}", "extra"],
    ["Classify", "{0,1,3}"], ["search", "largest", "largest", "15"],
    ["--threads", "2", "search", "minsize", "5"],
    ["construct", "kset", "9", "--threads", "2"],
    ["search", "minsize", "5", "--threads", "0"],
    ["--", "classify", "{0,1,3}"],
]]


@pytest.mark.parametrize("case", PARSER_CASES, ids=golden_id)
def test_narrow_parser_matches_the_full_one(case, capsys, monkeypatch):
    # run() builds one command's parser when argv names it; forcing the
    # full build must not change stdout, stderr or the exit code
    monkeypatch.delenv(cli.ENV_THREADS, raising=False)
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    outcomes = []
    for named in (cli._named_command, lambda argv: None):
        monkeypatch.setattr(cli, "_named_command", named)
        code = run_cli(list(case["argv"]))
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


def test_narrow_parser_is_taken():
    # every golden case names its command up front, but the usage errors
    # that name none; help at the top or group level names none either
    unnamed = [case["argv"] for case in GOLDEN if cli._named_command(case["argv"]) is None]
    assert unnamed == [[], ["frobnicate"], ["search"]]
    assert cli._named_command(["--format=json", "search", "largest", "16"]) == "search largest"
    for argv in (["-h"], ["search", "-h"], ["--form", "json", "classify", "{1}"], []):
        assert cli._named_command(argv) is None


def test_a_command_builds_only_its_parsers(capsys, monkeypatch):
    # the top parser, the command's group if it has one, and its leaf;
    # help at the top builds every parser
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(cli, "_Parser", Counting)
    for argv, parsers in ((["classify", "{0,1,3}"], 2),
                          (["--format", "json", "lemma", "ms1", "{0,1,2,4}"], 3),
                          (["search", "largest", "15", "--format=spohn"], 3)):
        built.clear()
        assert run_cli(argv) == 0
        assert len(built) == parsers <= 3
    built.clear()
    assert run_cli(["--help"]) == 0
    assert len(built) == 1 + len(cli._GROUPS) + len(cli._COMMANDS) == 22
    capsys.readouterr()


# command output, short and long, and help from the full parser and from one
# built for the command alone
WRITES = pytest.mark.parametrize("argv", [
    ["classify", "{0,1,3}"], ["construct", "kset", "200000"], ["--help"], ["search", "--help"],
    ["search", "largest", "-h"]], ids=["short", "long", "help", "group_help", "leaf_help"])


@WRITES
def test_closed_pipe_ends_quietly(argv):
    # the reader is gone before the output is written, as after `| head`:
    # no traceback, exit 128 + SIGPIPE, also for output still buffered
    proc = subprocess.Popen([sys.executable, "-m", "mstd.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == cli.EX_PIPE == 141
    assert err == b""


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@WRITES
def test_full_disk_is_one_error_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "mstd.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == cli.EX_IOERR == 74
    assert proc.stderr.startswith("error: cannot write the output: ")
    assert proc.stderr.count("\n") == 1


# what a command may pull in: the engines, lemmas and constructions it does
# not run, the decimal product, and the stdlib modules plain output and
# the records do not need
WATCHED = {"mstd.search", "mstd.constructions", "mstd.lemmas", "decimal",
           "dataclasses", "json"}


@pytest.mark.parametrize("statement, loads", [
    ("from mstd import cli; cli.run(['classify', '{0,2,3,4,7,11,12,14}'])", set()),
    ("from mstd import cli; cli.run(['search', 'largest', '16', '--format', 'json'])",
     {"mstd.search", "json"}),
    ("from mstd import cli; cli.run(['search', 'partition3', '145'])",
     {"mstd.search", "mstd.constructions", "mstd.lemmas"}),
    ("import mstd", set()),
    ("import mstd; mstd.search", {"mstd.search"}),
    ("from mstd import cli; cli.run(['sumset', '{0,1,3}'])", set()),
    ("from mstd import cli; cli.run(['diffset', '{0,2,3,4,7,11,12,14}'])", set()),
    ("from mstd import cli; cli.run(['lemma', 'extend', '{0,1,3}', '9'])", {"mstd.lemmas"}),
    # a random set of density 1/20 below 2**17: the run kernel gives its
    # sums to the product
    ("from mstd import cli; cli.run(['sumset', '{%s}' % ','.join(map(str, "
     "__import__('random').Random(1).sample(range(1 << 17), 6553)))])", {"decimal"}),
    # the evens below 2**14: the interval path takes them, no product
    ("from mstd import cli; cli.run(['diffset', '{%s}' % ','.join(map(str, "
     "range(0, 1 << 14, 2)))])", set()),
])
def test_a_command_loads_only_what_it_runs(statement, loads):
    code = ("import sys\nbefore = set(sys.modules)\n" + statement + "\n"
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    loaded = set(out.stdout.splitlines()[-1].split())
    assert loaded & WATCHED == loads
    if statement == "import mstd":
        assert {name for name in loaded if name.startswith("mstd.")} == set()


@pytest.mark.skipif(shutil.which("mstd") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["mstd", "classify", "{0,2,3,4,7,11,12,14}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "sum-dominant excess=1\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mstd.cli", "classify", "{3,5,7,9,11}"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "balanced excess=0\n"
