"""Tests of the benchmark itself: tiny runs of every workload, and checks
that a corrupted or non-deterministic output is counted as failed.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import harness  # noqa: E402
import hostspeed  # noqa: E402
from motionloop import longvideo, pipeline  # noqa: E402
from motionloop.pmp import train as pmp_train  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = harness.run_workload(workload, seed=3, seconds=0.0, trace=False, tiny=True)
    assert result["detail"]["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_matches_untraced():
    result = harness.run_workload("long", seed=3, seconds=0.0, trace=True, tiny=True)
    # the in-process repeat check compares the traced ops with the untraced ones
    assert result["correct"], result["detail"]["problems"]
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["longvideo.extend_ms"]["value"] > 0
    spans = result["detail"]["spans"]
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_sampler_takes_its_own_time_out_of_the_clock():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        paused, t_raw, t = sampler.paused, time.perf_counter(), sampler.clock()
        while time.perf_counter() - t_raw < 0.8:
            sum(range(1000))
        elapsed, raw = sampler.clock() - t, time.perf_counter() - t_raw
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3  # one on start, then one per 0.25 s
    assert raw - elapsed == pytest.approx(sampler.paused - paused, abs=1e-4)
    assert sampler.paused - paused > 0
    window = [ms for s, ms in sampler.samples
              if t_raw - hostspeed.WINDOW_S <= s <= t_raw + raw + hostspeed.WINDOW_S]
    assert sampler.mean_ms(t_raw, t_raw + raw) == pytest.approx(sum(window) / len(window))


def test_changed_report_value_fails_the_reference_check(monkeypatch):
    real = pipeline.eval_metrics

    def skewed(*args):
        rep = real(*args)
        return pipeline.EvalReport(rep.traj_mse, rep.mask_miou,
                                   rep.psnr * (1 + 1e-7), rep.ssim)

    monkeypatch.setattr(pipeline, "eval_metrics", skewed)
    result = harness.run_workload("fixtures", seed=3, seconds=0.0, trace=False, tiny=True)
    assert not result["correct"]
    assert any(p.startswith("probe") and "psnr" in p for p in result["detail"]["problems"])


def test_non_finite_loss_is_counted(monkeypatch):
    real = pmp_train.pmp_loss
    calls = []

    def broken(model, batch):
        loss, grads = real(model, batch)
        calls.append(loss)
        return (float("nan") if len(calls) == 20 else loss), grads

    monkeypatch.setattr(pmp_train, "pmp_loss", broken)
    result = harness.run_workload("train", seed=3, seconds=0.0, trace=False, tiny=True)
    assert not result["correct"]
    assert any("nan" in p for p in result["detail"]["problems"])


def test_output_that_differs_between_runs_is_counted(monkeypatch):
    real = longvideo.stitch
    calls = []

    def drifting(clips, plan):
        calls.append(1)
        clip = real(clips, plan)
        if len(calls) < 3:  # the probe and the first timed op are untouched
            return clip
        frames = list(clip.frames)
        frames[0] = frames[0].copy()
        frames[0][0, 0] ^= 1
        return type(clip)(frames=tuple(frames), fps=clip.fps, resolution=clip.resolution)

    monkeypatch.setattr(longvideo, "stitch", drifting)
    result = harness.run_workload("long", seed=3, seconds=0.0, trace=False, tiny=True)
    assert not result["correct"]
    assert result["detail"]["problems"] == ["in-process repeat: op 0 outputs differ between runs"]
