"""Benchmark a change against its parent commit in alternating pairs.

    python3 tools/bench_pairs.py --slug clip_eval --seeds 721-730 \\
        --workloads fixtures multi --seconds 20 \\
        [--parent HEAD] [--title "..."] [--trace-seed 731] \\
        [--claim fixtures:op_ms_p50:0.12]

Run from the repository root. The parent's committed files are exported
with ``git archive`` into a temporary directory; the change is the working
tree as it stands. For each workload and seed, ``perfbench/run.py`` runs
once on each side, and the side that runs first alternates from pair to
pair, so a host that drifts slows both sides alike. Each run's record is
read back from ``perfbench/out`` of its own checkout. The result goes to
``BENCH_<slug>.json`` at the repository root: per workload and end-to-end
metric, both sides' medians, quartiles, per-run values and the number of
pairs the change won, plus each run's raw median op time and the median
and quartiles of its host-speed calibration (so a gap that only the
reference scaling makes, or a calibration that spread within a run, shows in
the file), the set-up records, the traced per-layer values
of one pair per workload (``--trace-seed``), the environment and, with
``--claim workload:metric:fraction``, whether the change improved that
metric by at least the fraction in the median, won at least 9 of 10 pairs
and moved the median by more than the parent's interquartile range. Each
end-to-end metric also gets a no-regression verdict against its ``bound``
in ``BENCHMARK.json``: ``worse``, ``unresolved`` or ``ok`` (see
``verdict``). The script ends with one line per workload: each end-to-end
metric's parent -> change medians and the pairs the change won, the raw op
ms medians beside ``op_ms_p50``'s, the median change/parent ratio of
``op_ms_p50`` over the pairs the parent ran first and over those the change
ran first (so a side that reads faster for running second shows), every
metric that is not ``ok``, the traced per-layer counts (unit ``count``) that
differ between the sides, such as ``fileio.files_written 57 -> 40``, and the
claim's verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """``721-730`` or ``721,725,729``: at least two seeds, since each side's
    runs are summarized by their quartiles."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(v) for v in text.split(",")]
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} names {len(seeds)} seeds, "
                                         "quartiles need at least 2")
    return seeds


def export_commit(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; return its hash."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = dest / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                       check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run; returns its record from perfbench/out."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    out = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())


def run_order(i: int) -> tuple[str, str]:
    """The sides of pair ``i`` in the order they run."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def run_pairs(sides: dict[str, Path], workload: str, seeds: list[int],
              seconds: float, trace: int) -> list[dict[str, dict]]:
    pairs = []
    for i, seed in enumerate(seeds):
        pair = {}
        for side in run_order(i):
            pair[side] = run_once(sides[side], workload, seed, seconds, trace)
            value = pair[side]["result"]["metrics"].get("op_ms_p50", {}).get("value")
            print(f"{workload} seed {seed} {side}: op_ms_p50 {value}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def quartiles(values: list[float]) -> list[float]:
    """Lower and upper quartiles (inclusive method); one value is both."""
    if len(values) == 1:
        return [values[0]] * 2
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def verdict(better: str, bound: float, parent: list[float], change: list[float]) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound`` times the parent's median magnitude; ``unresolved`` when
    it is not, but the parent's interquartile range is wider than that
    margin and not every change run beats every parent run; else ``ok``."""
    sign = 1 if better == "lower" else -1
    margin = bound * abs(statistics.median(parent))
    if sign * (statistics.median(change) - statistics.median(parent)) > margin:
        return "worse"
    lo, hi = quartiles(parent)
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    return "unresolved" if hi - lo > margin and not beats_all else "ok"


def summarize(pairs: list[dict[str, dict]], seeds: list[int],
              metrics: list[dict]) -> dict:
    sides = ("parent", "change")
    results = {side: [p[side]["result"] for p in pairs] for side in sides}
    summary = {
        "seeds": seeds, "pairs": len(pairs),
        "attempted": {s: sum(r["attempted"] for r in results[s]) for s in sides},
        "failed": {s: sum(r["failed"] for r in results[s]) for s in sides},
        "correct": all(r["correct"] for s in sides for r in results[s]),
        "metrics": {},
        # median change/parent op_ms_p50 over the pairs each side ran first in
        "op_ms_p50_ratio_by_first": {f"{first}_first": statistics.median(
            p["change"]["result"]["metrics"]["op_ms_p50"]["value"]
            / p["parent"]["result"]["metrics"]["op_ms_p50"]["value"]
            for i, p in enumerate(pairs) if run_order(i)[0] == first) for first in sides},
        "raw_records": {s: {
            "op_ms_p50_raw": [statistics.median(p[s]["op_times_s"]) * 1e3 for p in pairs],
            "cal_ms_p50": [statistics.median(p[s]["cal_ms"]) for p in pairs],
            "cal_ms_quartiles": [quartiles(p[s]["cal_ms"]) for p in pairs],
        } for s in sides},
        "setup_records": {s: {
            "setup_builds_s_total": [sum(p[s]["setup_builds_s"]) for p in pairs],
            "setup_cal_ms_mean": [statistics.fmean(p[s]["setup_cal_ms"]) for p in pairs],
        } for s in sides},
    }
    for metric in metrics:
        name = metric["name"]
        values = {s: [r["metrics"][name]["value"] for r in results[s]] for s in sides}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        summary["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent_median": statistics.median(values["parent"]),
            "change_median": statistics.median(values["change"]),
            "parent_quartiles": quartiles(values["parent"]),
            "change_quartiles": quartiles(values["change"]),
            "change_wins": f"{wins}/{len(pairs)}",
            "bound": metric["bound"],
            "verdict": verdict(metric["better"], metric["bound"], values["parent"],
                               values["change"]),
            "parent": values["parent"], "change": values["change"],
        }
    return summary


def check_claim(spec: str, workloads: list[str], metrics: list[str]) -> None:
    """Refuse a ``workload:metric:fraction`` claim that ``judge_claim``
    could not judge: the workload must be benchmarked, the metric an
    end-to-end one and the fraction a finite number of at least 0."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"{spec!r} is not workload:metric:fraction")
    workload, metric, fraction = parts
    if workload not in workloads:
        raise ValueError(f"workload {workload!r} is not one of {workloads}")
    if metric not in metrics:
        raise ValueError(f"metric {metric!r} is not one of {metrics}")
    try:
        gain = float(fraction)
    except ValueError:
        gain = math.nan
    if not 0 <= gain < math.inf:
        raise ValueError(f"fraction {fraction!r} is not a finite number >= 0")


def judge_claim(spec: str, workloads: dict) -> dict:
    workload, metric, fraction = spec.split(":")
    m = workloads[workload]["metrics"][metric]
    wins, pairs = (int(v) for v in m["change_wins"].split("/"))
    lo, hi = m["parent_quartiles"]
    gap = m["parent_median"] - m["change_median"]
    if m["better"] == "higher":
        gap = -gap
    return {
        "workload": workload, "metric": metric, "min_gain": float(fraction),
        "rule": ("the change's median is better by at least min_gain of the "
                 "parent's, it wins at least 9 of 10 pairs and the median gap "
                 "exceeds the parent's interquartile range"),
        "result": {
            "met": (gap >= float(fraction) * abs(m["parent_median"])
                    and wins * 10 >= 9 * pairs and gap > hi - lo),
            "change_wins": m["change_wins"],
            "parent_median": m["parent_median"],
            "change_median": m["change_median"],
            "gain": gap / abs(m["parent_median"]),
            "parent_iqr": hi - lo,
        },
    }


def count_changes(pair: dict, names: list[str]) -> list[str]:
    """``name parent -> change`` for each of the named per-layer values of a
    traced pair that the two sides both report and that differ."""
    return [f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
            for name in names if name in pair["parent"] and name in pair["change"]
            and pair["parent"][name] != pair["change"][name]]


def summary_lines(workloads: dict, claim: dict | None = None,
                  counts: dict | None = None) -> list[str]:
    """One line per workload: each end-to-end metric's parent -> change
    medians and the pairs the change won, with the medians of the runs' raw
    op ms after ``op_ms_p50`` (a reference-ms gap that the raw times do not
    show came from the host-speed calibration) and its change/parent ratio
    by the side that ran first (ratios that differ by order show an order
    effect), every metric whose verdict is not ``ok``, the traced counts that
    differ (``counts``, per workload, from ``count_changes``), then the
    claim's verdict on the line of its workload."""
    lines = []
    for workload, summary in workloads.items():
        entries = []
        for name, m in summary["metrics"].items():
            entries.append(f"{name} {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                           f"({m['change_wins']})")
            if name == "op_ms_p50":
                raw = [statistics.median(summary["raw_records"][side]["op_ms_p50_raw"])
                       for side in ("parent", "change")]
                entries.append(f"raw op ms {raw[0]:.4g} -> {raw[1]:.4g}")
                ratio = summary["op_ms_p50_ratio_by_first"]
                entries.append(f"change/parent {ratio['parent_first']:.3f} parent-first, "
                               f"{ratio['change_first']:.3f} change-first")
        line = f"{workload}: " + ", ".join(entries)
        flagged = [f"{name} {m['verdict']}" for name, m in summary["metrics"].items()
                   if m["verdict"] != "ok"]
        if flagged:
            line += "; " + ", ".join(flagged)
        if counts and counts.get(workload):
            line += "; traced " + ", ".join(counts[workload])
        if claim and claim["workload"] == workload:
            result = claim["result"]
            line += (f"; claim {claim['metric']} {result['gain']:+.1%} "
                     f"{'met' if result['met'] else 'not met'}")
        lines.append(line)
    return lines


def environment(record: dict) -> dict:
    """A run's environment record without its workload, seed, commit and
    the BLAS build's install directories, which name no setting."""
    env = {k: v for k, v in record.items() if k not in ("workload", "seed", "commit")}
    if isinstance(env.get("blas"), dict):
        env["blas"] = {k: v for k, v in env["blas"].items() if not k.endswith("directory")}
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--slug", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workloads", nargs="+",
                        default=["train", "fixtures", "long", "multi"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--title", default="")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--claim", help="workload:metric:fraction")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    count_names = [m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"]
    if args.claim:
        try:
            check_claim(args.claim, args.workloads, [m["name"] for m in metrics])
        except ValueError as exc:
            parser.error(f"--claim: {exc}")

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_commit = export_commit(args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "tree", "change": ROOT}
        workloads, traced, env = {}, {}, None
        for workload in args.workloads:
            pairs = run_pairs(sides, workload, args.seeds, args.seconds, 0)
            workloads[workload] = summarize(pairs, args.seeds, metrics)
            env = env or pairs[0]["change"]["environment"]
            if args.trace_seed is not None:
                pair = run_pairs(sides, workload, [args.trace_seed], args.seconds, 1)[0]
                traced[workload] = [{"seed": args.trace_seed, **{
                    side: {k: m["value"] for k, m in rec["result"]["metrics"].items()}
                    for side, rec in pair.items()}}]

    cmd = "python3 perfbench/run.py --workload W --seed S --seconds {:g} --trace {}"
    doc = {
        "title": args.title,
        "command": cmd.format(args.seconds, 0),
        "pairing": "parent and change alternate which runs first, pair by pair",
        "units": "op_ms_p50 is in reference ms: perfbench scales op times to "
                 "its host-speed kernel; raw_records holds each run's raw median "
                 "op ms and its calibration ms median and quartiles, in run order",
        "parent_commit": parent_commit,
        "workloads": workloads,
    }
    if traced:
        doc["traced"] = {"command": cmd.format(args.seconds, 1),
                         "note": "per-layer values of one traced pair per "
                                 "workload; per-layer times are raw ms",
                         "workloads": traced}
    if args.claim:
        doc["claim"] = judge_claim(args.claim, workloads)
    doc["environment"] = environment(env)
    out = ROOT / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    counts = {w: count_changes(pairs[0], count_names) for w, pairs in traced.items()}
    print("\n".join(summary_lines(workloads, doc.get("claim"), counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
