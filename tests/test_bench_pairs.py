"""tools/bench_pairs.py's seed parsing, summary and claim verdict, on
synthetic records; no benchmark runs."""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def test_parse_seeds_reads_ranges_and_lists():
    assert bench_pairs.parse_seeds("721-724") == [721, 722, 723, 724]
    assert bench_pairs.parse_seeds("721,725,729") == [721, 725, 729]


@pytest.mark.parametrize("text", ["731", "5-3", "7-7"])
def test_parse_seeds_rejects_fewer_than_two(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_seeds(text)


def test_one_seed_exits_2_before_any_run(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "export_commit", no_run)
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--slug", "x", "--seeds", "731"])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("claim, message", [
    ("long:op_ms_p50", "workload:metric:fraction"),
    ("lng:op_ms_p50:0.03", "workload 'lng'"),
    ("train:op_ms_p50:0.03", "workload 'train'"),  # not among --workloads
    ("long:op_ms:0.03", "metric 'op_ms'"),
    ("long:op_ms_p50:x", "fraction 'x'"),
    ("long:op_ms_p50:-0.1", "fraction '-0.1'"),
    ("long:op_ms_p50:nan", "fraction 'nan'"),
    ("long:op_ms_p50:inf", "fraction 'inf'"),
])
def test_unjudgeable_claim_exits_2_before_any_run(monkeypatch, capsys, claim, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")
    monkeypatch.setattr(bench_pairs, "export_commit", no_run)
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--slug", "x", "--seeds", "1-2", "--workloads", "long", "multi",
                          "--claim", claim])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--claim" in err and message in err


def _record(op_ms, ops_per_s, failed=0, op_times_s=(0.1,), cal_ms=(5.0,)):
    return {"result": {"attempted": 10, "failed": failed, "correct": failed == 0,
                       "metrics": {"op_ms_p50": {"value": op_ms},
                                   "ops_per_s": {"value": ops_per_s}}},
            "op_times_s": list(op_times_s), "cal_ms": list(cal_ms),
            "setup_builds_s": [0.5, 0.25], "setup_cal_ms": [2.0, 4.0]}


def test_summarize_counts_wins_per_direction_and_ties_for_neither():
    parent = [(10.0, 1.0), (10.0, 2.0), (12.0, 3.0), (14.0, 4.0)]
    change = [(9.0, 2.0), (10.0, 2.0), (13.0, 1.0), (11.0, 5.0)]
    pairs = [{"parent": _record(*p), "change": _record(*c, failed=i == 3)}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(pairs, [1, 2, 3, 4], METRICS)
    assert summary["pairs"] == 4
    assert summary["attempted"] == {"parent": 40, "change": 40}
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["correct"] is False
    assert summary["setup_records"]["change"] == {"setup_builds_s_total": [0.75] * 4,
                                                  "setup_cal_ms_mean": [3.0] * 4}
    op = summary["metrics"]["op_ms_p50"]
    assert op["change_wins"] == "2/4"  # 9 < 10 and 11 < 14; 10 = 10 is a tie
    assert op["parent_median"] == 11.0 and op["change_median"] == 10.5
    assert op["parent_quartiles"] == [10.0, 12.5]
    assert op["parent"] == [p[0] for p in parent]
    rate = summary["metrics"]["ops_per_s"]
    assert rate["better"] == "higher"
    assert rate["change_wins"] == "2/4"  # 2 > 1 and 5 > 4; 2 = 2 is a tie


def test_summarize_records_each_runs_raw_op_and_calibration_medians():
    # equal raw op times read 118 and 181 reference ms when the host-speed
    # kernel's median differs, 7.49 against 4.93 ms; the raw medians show it
    raw = [0.170, 0.178, 0.190]
    pairs = [{"parent": _record(118.0, 8.0, op_times_s=raw, cal_ms=[7.4, 7.49, 7.6]),
              "change": _record(181.0, 5.0, op_times_s=raw[::-1], cal_ms=[4.9, 4.93, 5.1])},
             {"parent": _record(120.0, 8.0, op_times_s=[0.2, 0.1], cal_ms=[7.0, 8.0]),
              "change": _record(119.0, 8.0, op_times_s=[0.3], cal_ms=[7.5])}]
    summary = bench_pairs.summarize(pairs, [1, 2], METRICS)
    raw_records = summary["raw_records"]
    assert raw_records["parent"]["op_ms_p50_raw"] == pytest.approx([178.0, 150.0])
    assert raw_records["change"]["op_ms_p50_raw"] == pytest.approx([178.0, 300.0])
    assert raw_records["parent"]["cal_ms_p50"] == [7.49, 7.5]
    assert raw_records["change"]["cal_ms_p50"] == [4.93, 7.5]
    assert summary["metrics"]["op_ms_p50"]["parent"] == [118.0, 120.0]



def test_summarize_records_each_runs_calibration_quartiles():
    # two runs with one calibration median, 6 ms, but one spread 2-10 ms
    # within the run and the other 5.9-6.1; a run of one op has one value
    pairs = [{"parent": _record(100.0, 8.0, cal_ms=[2.0, 4.0, 6.0, 8.0, 10.0]),
              "change": _record(100.0, 8.0, cal_ms=[5.9, 6.0, 6.0, 6.0, 6.1])},
             {"parent": _record(100.0, 8.0, cal_ms=[7.0, 8.0]),
              "change": _record(100.0, 8.0, cal_ms=[7.5])}]
    raw_records = bench_pairs.summarize(pairs, [1, 2], METRICS)["raw_records"]
    assert raw_records["parent"]["cal_ms_p50"] == [6.0, 7.5]
    assert raw_records["change"]["cal_ms_p50"] == [6.0, 7.5]
    assert raw_records["parent"]["cal_ms_quartiles"] == [[4.0, 8.0], [7.25, 7.75]]
    assert raw_records["change"]["cal_ms_quartiles"] == [[6.0, 6.0], [7.5, 7.5]]

def _workloads(better, parent_median, change_median, quartiles, wins):
    return {"long": {"metrics": {"m": {
        "better": better, "parent_median": parent_median,
        "change_median": change_median, "parent_quartiles": quartiles,
        "change_wins": wins}}}}


@pytest.mark.parametrize("better, medians, quartiles, wins, met", [
    ("lower", (100.0, 80.0), [95.0, 105.0], "9/10", True),
    ("lower", (100.0, 80.0), [95.0, 105.0], "8/10", False),   # too few wins
    ("lower", (100.0, 80.0), [85.0, 110.0], "10/10", False),  # gap within the IQR
    ("lower", (100.0, 95.0), [99.0, 101.0], "10/10", False),  # under min_gain
    ("higher", (10.0, 12.0), [9.5, 10.5], "10/10", True),
    ("higher", (10.0, 8.0), [9.5, 10.5], "10/10", False),     # worse
])
def test_judge_claim(better, medians, quartiles, wins, met):
    verdict = bench_pairs.judge_claim(
        "long:m:0.1", _workloads(better, *medians, quartiles, wins))
    assert verdict["min_gain"] == 0.1
    assert verdict["result"]["met"] is met
    gain = (medians[0] - medians[1]) / medians[0]
    assert verdict["result"]["gain"] == pytest.approx(gain if better == "lower" else -gain)
    assert verdict["result"]["parent_iqr"] == quartiles[1] - quartiles[0]


def test_summary_lines_give_medians_wins_and_the_claim_per_workload():
    parent = [(10.0, 1.0), (10.0, 2.0), (12.0, 3.0), (14.0, 4.0)]
    change = [(9.0, 2.0), (10.0, 2.0), (13.0, 1.0), (11.0, 5.0)]
    pairs = [{"parent": _record(*p), "change": _record(*c)} for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, [1, 2, 3, 4], METRICS)
    workloads = {"long": summary, "multi": summary}
    claim = bench_pairs.judge_claim("long:op_ms_p50:0.04", workloads)
    lines = bench_pairs.summary_lines(workloads, claim)
    # change/parent: 0.9 and 13/12 with the parent first, 1 and 11/14 with the change first
    row = ("op_ms_p50 11 -> 10.5 (2/4), raw op ms 100 -> 100, "
           "change/parent 0.992 parent-first, 0.893 change-first, ops_per_s 2.5 -> 2 (2/4)")
    # a 4.5% gain over 4 pairs, 2 of them won: under 9 of 10
    # ops_per_s: parent quartiles 1.75-3.25 are wider than 25% of 2.5, and
    # the change's 1 does not beat the parent's 4
    row += "; ops_per_s unresolved"
    assert lines == [f"long: {row}; claim op_ms_p50 +4.5% not met", f"multi: {row}"]
    assert bench_pairs.summary_lines(workloads) == [f"long: {row}", f"multi: {row}"]


def test_summary_lines_give_raw_op_medians_beside_reference_ones():
    # equal raw op times, but the change's host-speed kernel ran slower
    # beside it: reference ms read a 35% gain that the raw medians do not
    raw = [0.170, 0.178, 0.190]
    pairs = [{"parent": _record(118.0 + i, 8.0, op_times_s=raw, cal_ms=[4.93]),
              "change": _record(77.0 + i, 12.0, op_times_s=raw, cal_ms=[7.49])}
             for i in range(3)]
    summary = bench_pairs.summarize(pairs, [1, 2, 3], METRICS)
    line = bench_pairs.summary_lines({"train": summary})[0]
    assert line == ("train: op_ms_p50 119 -> 78 (3/3), raw op ms 178 -> 178, "
                    "change/parent 0.655 parent-first, 0.655 change-first, "
                    "ops_per_s 8 -> 12 (3/3)")


def test_summary_lines_show_an_order_effect_by_the_side_that_ran_first():
    # whichever side runs second reads 10% faster: the medians agree, and
    # the two orders' change/parent ratios, 0.9 and 1.1, show the effect
    ms = [(100.0, 90.0), (90.0, 100.0)] * 3  # (parent, change), parent first in even pairs
    pairs = [{"parent": _record(p, 1.0), "change": _record(c, 1.0)} for p, c in ms]
    summary = bench_pairs.summarize(pairs, list(range(6)), METRICS)
    assert summary["op_ms_p50_ratio_by_first"] == pytest.approx(
        {"parent_first": 0.9, "change_first": 100.0 / 90.0})
    assert summary["metrics"]["op_ms_p50"]["change_wins"] == "3/6"
    line = bench_pairs.summary_lines({"multi": summary})[0]
    assert "op_ms_p50 95 -> 95 (3/6)" in line
    assert "change/parent 0.900 parent-first, 1.111 change-first" in line


@pytest.mark.parametrize("better, parent, change, expected", [
    # median 100 -> 111: worse by more than 10 of 100
    ("lower", [98.0, 100.0, 102.0], [109.0, 111.0, 113.0], "worse"),
    # median 100 -> 108, inside the bound, but the parent spreads 90-110
    ("lower", [80.0, 100.0, 120.0], [107.0, 108.0, 109.0], "unresolved"),
    # the same spread, but every change run beats every parent run
    ("lower", [80.0, 100.0, 120.0], [70.0, 75.0, 79.0], "ok"),
    # inside the bound, and the parent's spread is narrower than it
    ("lower", [98.0, 100.0, 102.0], [103.0, 105.0, 107.0], "ok"),
    # higher is better: 20 -> 17 is worse by more than 2 of 20
    ("higher", [19.0, 20.0, 21.0], [16.0, 17.0, 18.0], "worse"),
    ("higher", [19.0, 20.0, 21.0], [18.0, 19.0, 20.0], "ok"),
    ("higher", [10.0, 20.0, 30.0], [19.0, 21.0, 23.0], "unresolved"),
    ("higher", [10.0, 20.0, 30.0], [31.0, 32.0, 33.0], "ok"),
])
def test_verdict_per_metric_reads_its_bound(better, parent, change, expected):
    metric = {"name": "m", "unit": "x", "better": better, "bound": 0.1}
    pairs = [{"parent": _record(p, p), "change": _record(c, c)}
             for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, [1, 2, 3], [
        {**metric, "name": "op_ms_p50"}, {**metric, "name": "ops_per_s"}])
    for m in summary["metrics"].values():
        assert m["bound"] == 0.1 and m["verdict"] == expected
    line = bench_pairs.summary_lines({"long": summary})[0]
    flagged = "" if expected == "ok" else f"; op_ms_p50 {expected}, ops_per_s {expected}"
    assert line.endswith(f"({summary['metrics']['ops_per_s']['change_wins']}){flagged}")


def test_summary_lines_show_the_traced_counts_that_differ():
    # a traced pair: the run writes 17 fewer files and splats once less;
    # equal counts and timings are not listed
    pair = {"seed": 5,
            "parent": {"fileio.files_written": 57.0, "geometry.render_part_masks_calls": 4.0,
                       "pmp.model.refine_calls": 1.0, "fileio.write_condition_ms": 5.34},
            "change": {"fileio.files_written": 40.0, "geometry.render_part_masks_calls": 3.0,
                       "pmp.model.refine_calls": 1.0, "fileio.write_condition_ms": 2.33}}
    names = ["fileio.files_written", "geometry.render_part_masks_calls",
             "pmp.model.refine_calls", "simgen.generate_calls"]
    counts = bench_pairs.count_changes(pair, names)
    assert counts == ["fileio.files_written 57 -> 40", "geometry.render_part_masks_calls 4 -> 3"]
    pairs = [{"parent": _record(10.0, 1.0), "change": _record(9.0, 1.0)}] * 2
    summary = bench_pairs.summarize(pairs, [1, 2], METRICS)
    lines = bench_pairs.summary_lines({"fixtures": summary, "long": summary},
                                      counts={"fixtures": counts, "long": []})
    assert lines[0].endswith("; traced fileio.files_written 57 -> 40, "
                             "geometry.render_part_masks_calls 4 -> 3")
    assert "traced" not in lines[1]
    assert lines[1] == bench_pairs.summary_lines({"long": summary})[0]


def test_count_changes_leaves_out_counts_that_move_with_run_speed():
    # trace.ops and counts that are not whole per op changed on workloads
    # whose code did not change; whole per-op counts are still listed
    pair = {"seed": 5,
            "parent": {"trace.ops": 217.0, "perturb.calls": 14.54,
                       "simgen.render_frames": 24.5, "pmp.model.refine_calls": 2.0},
            "change": {"trace.ops": 234.0, "perturb.calls": 14.51,
                       "simgen.render_frames": 24.0, "pmp.model.refine_calls": 3.0}}
    assert bench_pairs.count_changes(pair, list(pair["parent"])) == [
        "pmp.model.refine_calls 2 -> 3"]
