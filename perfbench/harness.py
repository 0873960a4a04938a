"""Runs one workload: set-up, timed phases, checks, metrics.

An untraced run reports the end-to-end metrics. A traced run (``trace``)
times the same ops twice, untraced and with every wrapper in
``TRACE_TARGETS`` installed: op by op in turn for the scene and clip
workloads, one phase after the other for ``train``. It reports per-layer
metrics from the spans and the tracing overhead (traced minus untraced
median op time), and checks that both produced identical outputs.

During set-up and the untraced ops a ``hostspeed.Sampler`` times a fixed
reference kernel every 0.25 s; the end-to-end times are normalized by it
(reference ms, see ``hostspeed``), and the raw times are reported as
per-layer metrics.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from motionloop.pmp import model as pmp_model
from motionloop.pmp import train as pmp_train

import hostspeed
from tracing import Patches, Recorder, traced
from workloads import WORKLOADS, Checks, OpResult, Train

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPS = 3


def _pmp_flops(config, b: int, f: int, m: int) -> tuple[int, int]:
    """Computed gemm FLOPs (2 per multiply-add) of one forward and one
    backward call on b sequences of f frames with an m-row memory."""
    d, p, ffn = config.model_dim, config.max_pose_dim, config.ffn_dim
    rows = b * f
    in_proj = 2 * rows * (p + len(pmp_model.CATEGORIES)) * d
    strength = 2 * b * pmp_model.FOURIER_FEATURES * d
    layer = (2 * rows * d * d * 4        # self-attention q, k, v, o
             + 2 * 2 * b * f * f * d     # self-attention scores, context
             + 2 * rows * d * d * 2      # cross-attention q, o
             + 2 * b * m * d * d * 2     # cross-attention k, v on the memory
             + 2 * 2 * b * f * m * d     # cross-attention scores, context
             + 2 * rows * d * ffn * 2)   # feedforward
    fwd = in_proj + strength + config.layers * layer + 2 * rows * d * p
    # backward: a weight and an input gradient per gemm, except no input
    # gradient for the input projection and the strength features
    return fwd, 2 * fwd - in_proj - strength


def _forward_counts(args, result):
    model, x, tok_mask = args[0], args[1], args[4]
    return {"flops": _pmp_flops(model.config, x.shape[0], x.shape[1], tok_mask.shape[1])[0]}


def _backward_counts(args, result):
    model, cache, dy = args
    return {"flops": _pmp_flops(model.config, dy.shape[0], dy.shape[1], cache[1].shape[1])[1]}


# (module, function, span name); a function that no longer exists is skipped
TRACE_TARGETS = (
    ("motionloop.pmp.model", "forward", "pmp.model.forward", _forward_counts),
    ("motionloop.pmp.model", "backward", "pmp.model.backward", _backward_counts),
    ("motionloop.pmp.model", "pmp_loss", "pmp.model.pmp_loss", None),
    ("motionloop.pmp.model", "pmp_refine", "pmp.model.refine", None),
    ("motionloop.perturb", "sample_perturbation", "perturb.sample", None),
    ("motionloop.perturb", "sample_composed", "perturb.sample", None),
    ("motionloop.pipeline", "run_pipeline", "pipeline.run", None),
    ("motionloop.pipeline", "stage1_coarse", "pipeline.stage1", None),
    ("motionloop.pipeline", "stage2_optimize", "pipeline.stage2", None),
    ("motionloop.pipeline", "extract_motion", "pipeline.extract", None),
    ("motionloop.pipeline", "stage3_regenerate", "pipeline.stage3", None),
    ("motionloop.pipeline", "gt_masks_for", "pipeline.gt_masks", None),
    ("motionloop.pipeline", "eval_metrics", "pipeline.eval", None),
    ("motionloop.pipeline", "_persist_run", "pipeline.persist", None),
    ("motionloop.simgen", "generate", "simgen.generate", None),
    ("motionloop.simgen", "render_video", "simgen.render_video",
     lambda a, r: {"frames": r.frame_count}),
    ("motionloop.simgen", "synthesize_gt_motion", "simgen.synthesize_gt", None),
    ("motionloop.simgen", "object_render_points", "simgen.object_render_points",
     lambda a, r: {"points": int(r[0].shape[0])}),
    ("motionloop.geometry", "render_part_masks", "geometry.render_part_masks",
     lambda a, r: {"points": sum(int(np.asarray(p).shape[0]) for p, _ in a[0])}),
    ("motionloop.geometry", "build_condition", "geometry.build_condition", None),
    ("motionloop.core", "forward_kinematics", "core.forward_kinematics", None),
    ("motionloop.longvideo", "extend_motion", "longvideo.extend", None),
    ("motionloop.longvideo", "stitch", "longvideo.stitch", None),
    ("motionloop.longvideo", "stitch_motion", "longvideo.stitch", None),
    ("motionloop.fileio", "write_clip", "fileio.write_clip", None),
    ("motionloop.fileio", "write_condition", "fileio.write_condition", None),
)


class _Stop(Exception):
    """Raised from the step clock to end the open-ended training call."""


@dataclass
class Phase:
    op_times: list[float] = field(default_factory=list)  # seconds per op
    intervals: list[tuple[float, float]] = field(default_factory=list)  # perf_counter
    cal_ms: list[float] = field(default_factory=list)  # mean kernel time per op
    results: list[OpResult] = field(default_factory=list)  # first min_ops ops
    quality: dict = field(default_factory=dict)  # output values, first min_ops ops
    counts: dict = field(default_factory=dict)  # OpResult counts summed over all ops


def _trace_patches(rec: Recorder) -> Patches:
    patches = Patches()
    for module, attr, name, measure in TRACE_TARGETS:
        patches.replace(module, attr, traced(rec, name, measure))
    return patches


def _one_op(wl, state, inp, tag: str, rec: Recorder | None,
            sampler: hostspeed.Sampler | None) -> tuple[OpResult, float, tuple]:
    """Run and check one op, under the trace wrappers if given a recorder
    and with host-speed samples if given a sampler; returns the checked
    result, the op's time (less the sampler's) and its perf_counter interval."""
    patches = _trace_patches(rec) if rec is not None else Patches()
    span = rec.open("op") if rec is not None else None
    if sampler is not None:
        sampler.start()
    clock = sampler.clock if sampler is not None else perf_counter
    t_raw, t = perf_counter(), clock()
    try:
        outputs = wl.op(state, inp, tag)
    except Exception:  # a failing op is counted, the run goes on
        outputs = None
        res = OpResult([traceback.format_exc(limit=-3).strip()], "", {}, {})
    finally:
        elapsed = clock() - t
        interval = (t_raw, perf_counter())
        if sampler is not None:
            sampler.stop()
        if span is not None:
            rec.close(span)
        patches.restore()
    if outputs is not None:
        try:
            res = wl.check(outputs)
        except Exception:  # e.g. a file the op should have written is missing
            res = OpResult([traceback.format_exc(limit=-3).strip()], "", {}, {})
    return res, elapsed, interval


def _run_ops(wl, state, seconds: float, min_ops: int, checks: Checks,
             rec: Recorder | None) -> list[Phase]:
    """Cycle through the set-up inputs until ``seconds`` have passed and at
    least ``min_ops`` ops are done; each op's outputs are checked. With a
    recorder each op runs twice in a row, untraced and traced, in turns
    first, so drift in the machine's speed and any second-run advantage
    cancel out of the tracing overhead. Only the untraced ops are sampled
    for host speed."""
    phases = [Phase() for _ in range(1 if rec is None else 2)]
    sampler = hostspeed.Sampler()
    inputs = state["inputs"]
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        pairs = list(zip(phases, (None, rec)))
        for phase, r in pairs if i % 2 == 0 else pairs[::-1]:
            res, elapsed, interval = _one_op(wl, state, inputs[i % len(inputs)], f"op{i}",
                                             r, sampler if r is None else None)
            phase.op_times.append(elapsed)
            phase.intervals.append(interval)
            checks.record(f"op {i}" if r is None else f"traced op {i}", res.problems)
            for key, value in res.counts.items():
                phase.counts[key] = phase.counts.get(key, 0) + value
            if i < min_ops:
                phase.results.append(res)
        i += 1
    phases[0].cal_ms = [sampler.mean_ms(*s) for s in phases[0].intervals]
    for phase in phases:
        keys = {k for r in phase.results for k in r.quality}
        phase.quality = {k: float(np.mean([r.quality[k] for r in phase.results
                                           if k in r.quality])) for k in keys}
    return phases


def _run_steps(wl: Train, state, seconds: float, min_ops: int, checks: Checks,
               rec: Recorder | None) -> Phase:
    """One open-ended ``pmp_train`` call, under the trace wrappers if given a
    recorder, else with host-speed samples. A clock on ``pmp_loss`` marks
    each step's start and ends the call once time is up; step k's time is
    the gap between the k-th and (k+1)-th ``pmp_loss`` entries, less the
    sampler's time."""
    sampler = hostspeed.Sampler() if rec is None else None
    now = sampler.clock if sampler is not None else perf_counter
    entries: list[float] = []  # on ``now``
    raw: list[float] = []  # the same on perf_counter
    losses: list[float] = []

    def clock(original):
        def step(model, batch):
            entries.append(now())
            raw.append(perf_counter())
            if len(entries) > min_ops and raw[-1] - raw[0] >= seconds:
                raise _Stop
            loss, grads = original(model, batch)
            losses.append(loss)
            return loss, grads

        return step

    patches = _trace_patches(rec) if rec is not None else Patches()
    try:
        patches.replace("motionloop.pmp.train", "pmp_loss", clock)
        config = pmp_train.TrainConfig(steps=10**9)
        if sampler is not None:
            sampler.start()
        pmp_train.pmp_train(state["model"].copy(), state["corpus"], config, seed=wl.seed)
    except _Stop:
        pass
    finally:
        if sampler is not None:
            sampler.stop()
        patches.restore()
    for k, loss in enumerate(losses):
        checks.record(f"step {k}", [] if math.isfinite(loss) else [f"loss {loss!r}"])
    head = losses[:min_ops]
    intervals = list(zip(raw, raw[1:]))
    return Phase(op_times=list(np.diff(entries)), intervals=intervals,
                 cal_ms=[sampler.mean_ms(*s) for s in intervals] if sampler is not None else [],
                 results=[OpResult([], repr(v), {}, {}) for v in head],
                 quality={"loss_end": float(np.mean(head[-wl.loss_window:]))})


def _loss_problems(phase: Phase) -> list[str]:
    """Training lowers the loss: loss_end is below the first 4 steps' mean."""
    first = float(np.mean([float(r.digest) for r in phase.results[:4]]))
    end = phase.quality["loss_end"]
    return [] if end < first else [f"loss did not fall: {first!r} -> {end!r}"]


def _same_outputs(a: Phase, b: Phase) -> list[str]:
    return [f"op {i} outputs differ between runs"
            for i, (x, y) in enumerate(zip(a.results, b.results))
            if x.digest != y.digest]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, tiny: bool = False) -> dict:
    """Run one workload; returns the result object the benchmark prints,
    plus a ``detail`` entry (problems, per-phase numbers, spans)."""
    reference = json.loads(REFERENCE.read_text())
    out_root = BENCH_DIR / "out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    try:
        wl = WORKLOADS[name](seed, work, reference)
        min_ops = wl.min_ops if not tiny else wl.loss_window if isinstance(wl, Train) else 1
        checks = Checks()

        # set-up is normalized by host-speed samples of its own: the host
        # can change speed between set-up and the timed ops
        builds, timings = [], {}
        sampler = hostspeed.Sampler()
        sampler.start()
        try:
            for _ in range(1 if tiny else SETUP_REPS):
                t = sampler.clock()
                state = wl.build(checks, timings)
                builds.append(sampler.clock() - t)
            t = sampler.clock()
            probe = wl.warm_up(state, checks)
            warm_s = sampler.clock() - t
        finally:
            sampler.stop()
        setup_cal = [ms for _, ms in sampler.samples]
        setup_raw_s = import_s + statistics.median(builds) + warm_s
        setup_s = setup_raw_s * hostspeed.REF_MS / statistics.fmean(setup_cal)

        # the repeat that the in-process check compares with: the traced ops
        # in a traced run, op 0 once more otherwise
        rec = Recorder() if trace else None
        if isinstance(wl, Train):
            plain = _run_steps(wl, state, seconds, min_ops, checks, None)
            again = _run_steps(wl, state, seconds if trace else 0.0,
                               min_ops if trace else 1, checks, rec)
        else:
            phases = _run_ops(wl, state, seconds, min_ops, checks, rec)
            plain = phases[0]
            again = phases[1] if trace else _run_ops(wl, state, 0.0, 1, checks, None)[0]
        checks.record("in-process repeat", _same_outputs(plain, again))
        if isinstance(wl, Train):
            checks.record("loss trajectory", _loss_problems(plain))

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref_times = [t * hostspeed.REF_MS / c for t, c in zip(plain.op_times, plain.cal_ms)]
        host_ms = statistics.fmean(plain.cal_ms)
        if trace:
            metrics = _layer_metrics(rec, plain, again, timings, import_s,
                                     statistics.median(builds), warm_s, state, wl)
            metrics.update({
                "op_ms_p90": (float(np.percentile(ref_times, 90)) * 1e3, "ms"),
                "op_ms_p50_raw": (statistics.median(plain.op_times) * 1e3, "ms"),
                "ops_per_s_raw": (len(plain.op_times) / sum(plain.op_times), "1/s"),
                "setup_s_raw": (setup_raw_s, "s"),
                "host.calibration_ms": (host_ms, "ms"),
                "host.setup_calibration_ms": (statistics.fmean(setup_cal), "ms")})
        else:
            metrics = {"setup_s": (setup_s, "s"),
                       "op_ms_p50": (statistics.median(ref_times) * 1e3, "ms"),
                       "ops_per_s": (len(ref_times) / sum(ref_times), "1/s"),
                       "peak_rss_mb": (peak_rss_mb, "MB"),
                       "probe_mse": (probe["probe_mse"], "mse")}
        detail = {"problems": checks.problems, "ops": len(plain.op_times),
                  "op_times_s": plain.op_times, "cal_ms": plain.cal_ms,
                  "op_times_ref_s": ref_times, "setup_cal_ms": setup_cal,
                  "quality": plain.quality, "counts": plain.counts,
                  "setup_builds_s": builds,
                  "warm_up_s": warm_s, "import_s": import_s,
                  "spans": rec.to_json() if rec is not None else None,
                  "self_s": rec.self_times() if rec is not None else None}
        return {"correct": checks.failed == 0, "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {k: {"value": float(v), "unit": u}
                            for k, (v, u) in metrics.items()},
                "detail": detail}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_metrics(rec: Recorder, plain: Phase, traced_phase: Phase, timings: dict,
                   import_s: float, build_s: float, warm_s: float, state, wl) -> dict:
    ops = len(traced_phase.op_times)
    totals = rec.totals()
    selfs = rec.self_times()

    def ms(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names) * 1e3 / ops

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / ops

    fwd_bwd_s = sum(totals.get(n, (0, 0.0))[1] for n in ("pmp.model.forward", "pmp.model.backward"))
    flops = rec.count_sum("pmp.model.forward", "flops") + rec.count_sum("pmp.model.backward", "flops")
    frames = rec.count_sum("simgen.render_video", "frames")
    video_points = rec.count_sum("simgen.object_render_points", "points",
                                 parent_name="simgen.render_video")
    mask_calls = totals.get("geometry.render_part_masks", (0, 0.0))[0]
    model = state["model"] if "model" in state else state["prior"]
    plain_p50 = statistics.median(plain.op_times) * 1e3
    traced_p50 = statistics.median(traced_phase.op_times) * 1e3
    step_ms = float(np.mean(traced_phase.op_times)) * 1e3
    quality = plain.quality
    is_train = isinstance(wl, Train)
    m = {
        "pmp.model.forward_ms": (ms("pmp.model.forward"), "ms"),
        "pmp.model.backward_ms": (ms("pmp.model.backward"), "ms"),
        "pmp.model.forward_calls": (calls("pmp.model.forward"), "count"),
        "pmp.model.gflops": (flops / fwd_bwd_s / 1e9 if fwd_bwd_s else 0.0, "GFLOP/s"),
        "pmp.model.gflop_per_op": (flops / ops / 1e9, "GFLOP"),
        "pmp.model.param_bytes": (sum(v.nbytes for v in model.params.values()), "bytes"),
        "pmp.model.refine_ms": (ms("pmp.model.refine"), "ms"),
        "pmp.model.refine_calls": (calls("pmp.model.refine"), "count"),
        "pmp.model.pmp_loss_self_ms": (selfs.get("pmp.model.pmp_loss", 0.0) * 1e3 / ops, "ms"),
        "pmp.model.checkpoint_save_ms": (timings.get("save_checkpoint", 0.0) * 1e3, "ms"),
        "pmp.model.checkpoint_load_ms": (timings.get("load_checkpoint", 0.0) * 1e3, "ms"),
        "pmp.train.loss_ms": (ms("pmp.model.pmp_loss") if is_train else 0.0, "ms"),
        "pmp.train.perturb_ms": (ms("perturb.sample") if is_train else 0.0, "ms"),
        "pmp.train.other_ms": (step_ms - ms("pmp.model.pmp_loss", "perturb.sample")
                               if is_train else 0.0, "ms"),
        "pmp.train.loss_end": (quality.get("loss_end", 0.0), "mse"),
        "perturb.calls": (calls("perturb.sample"), "count"),
        "pipeline.run_self_ms": (selfs.get("pipeline.run", 0.0) * 1e3 / ops, "ms"),
        "pipeline.stage1_ms": (ms("pipeline.stage1"), "ms"),
        "pipeline.stage2_ms": (ms("pipeline.stage2"), "ms"),
        "pipeline.extract_ms": (ms("pipeline.extract"), "ms"),
        "pipeline.stage3_ms": (ms("pipeline.stage3"), "ms"),
        "pipeline.gt_masks_ms": (ms("pipeline.gt_masks"), "ms"),
        "pipeline.eval_ms": (ms("pipeline.eval"), "ms"),
        "pipeline.persist_ms": (ms("pipeline.persist"), "ms"),
        "pipeline.ssim": (quality.get("ssim", 0.0), "ssim"),
        "pipeline.refined_traj_mse": (quality.get("refined_traj_mse", 0.0), "mse"),
        "pipeline.raw_traj_mse": (quality.get("raw_traj_mse", 0.0), "mse"),
        "simgen.generate_ms": (ms("simgen.generate"), "ms"),
        "simgen.generate_calls": (calls("simgen.generate"), "count"),
        "simgen.render_video_ms": (ms("simgen.render_video"), "ms"),
        "simgen.render_video_calls": (calls("simgen.render_video"), "count"),
        "simgen.render_frames": (frames / ops, "count"),
        "simgen.points_per_frame": (video_points / frames if frames else 0.0, "count"),
        "simgen.synthesize_gt_ms": (ms("simgen.synthesize_gt"), "ms"),
        "simgen.synthesize_gt_calls": (calls("simgen.synthesize_gt"), "count"),
        "simgen.object_render_points_calls": (calls("simgen.object_render_points"), "count"),
        "geometry.render_part_masks_ms": (ms("geometry.render_part_masks"), "ms"),
        "geometry.render_part_masks_calls": (calls("geometry.render_part_masks"), "count"),
        "geometry.points_per_frame": (rec.count_sum("geometry.render_part_masks", "points")
                                      / mask_calls if mask_calls else 0.0, "count"),
        "geometry.build_condition_ms": (ms("geometry.build_condition"), "ms"),
        "core.forward_kinematics_ms": (ms("core.forward_kinematics"), "ms"),
        "core.forward_kinematics_calls": (calls("core.forward_kinematics"), "count"),
        "longvideo.extend_ms": (ms("longvideo.extend"), "ms"),
        "longvideo.stitch_ms": (ms("longvideo.stitch"), "ms"),
        "longvideo.extend_mse": (quality.get("extend_mse", 0.0), "mse"),
        "fileio.write_clip_ms": (ms("fileio.write_clip"), "ms"),
        "fileio.write_condition_ms": (ms("fileio.write_condition"), "ms"),
        "longvideo.seam_over_bound": (_per_op(plain, "seam_over_bound"), "ratio"),
        "fileio.bytes_written": (_per_op(plain, "bytes"), "bytes"),
        "fileio.files_written": (_per_op(plain, "files"), "count"),
        "scenes.make_corpus_ms": (timings.get("make_corpus", 0.0) * 1e3, "ms"),
        "setup.import_ms": (import_s * 1e3, "ms"),
        "setup.build_ms": (build_s * 1e3, "ms"),
        "setup.warmup_ms": (warm_s * 1e3, "ms"),
        "trace.overhead_ms": (traced_p50 - plain_p50, "ms"),
        "trace.overhead_frac": ((traced_p50 - plain_p50) / plain_p50, "ratio"),
        "trace.spans_per_op": (len(rec.spans) / ops, "count"),
        "trace.ops": (ops, "count"),
    }
    return m


def _per_op(phase: Phase, key: str) -> float:
    return phase.counts.get(key, 0) / len(phase.op_times)


def environment(seed: int, workload: str) -> dict:
    """Machine, interpreter, library and BLAS settings of this run."""
    import os
    import platform

    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload, "seed": seed, "cpu": cpu,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_commit(BENCH_DIR.parent),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
