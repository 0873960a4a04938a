"""Command-line entry point.

Every subcommand is a thin adapter over the library: parse flags, call, and
print output paths on stdout (logs go to stderr). Exit codes: 0 success,
1 domain error, 2 usage error. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileio
from .core import (
    Category,
    load_json,
    motion_from_json,
    motion_to_json,
    motions_from_json,
    motions_to_json,
    preset,
)
from .errors import InvalidConfig, MotionError, ShapeMismatch, TooManyFrames
from .geometry import ConditionChannels, ConditionMode
from .longvideo import plan_windows, stitch, extend_motion
from .pipeline import (
    UserCondition,
    eval_metrics,
    extract_motion,
    run_from_json,
    run_pipeline,
)
from .pmp import (
    CorpusItem,
    PmpConfig,
    TrainConfig,
    conditioning_for,
    grad_check,
    load_checkpoint,
    pmp_init,
    pmp_refine,
    pmp_train,
    save_checkpoint,
    save_log_csv,
)
from .scenes import make_corpus, scene_from_json
from .simgen import FINE_CONFIG, GeneratorConfig, SceneSpec, render


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(path) -> None:
    print(str(path))


def _load_scene(path) -> SceneSpec:
    return scene_from_json(Path(path).read_bytes())


# five-digit names (motion_00000..motion_99999) list in draw order
MAX_CORPUS_COUNT = 100_000


def cmd_gen_corpus(args) -> int:
    if not 1 <= args.count <= MAX_CORPUS_COUNT:  # before any motion is drawn
        raise InvalidConfig(f"--count must lie in 1..{MAX_CORPUS_COUNT}, got {args.count}")
    max_frames = PmpConfig().max_frames  # train-pmp refuses longer motions
    if args.frames > max_frames:
        raise TooManyFrames(f"--frames {args.frames} > max_frames {max_frames}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    # each record is written as it is drawn, so memory does not grow with --count
    for i, rec in enumerate(make_corpus(args.count, seed=args.seed, frames=args.frames)):
        name = f"motion_{i:05d}.json"
        (out / name).write_text(motion_to_json(rec.item.motion))
        index.append({"file": name, "tags": list(rec.item.tags),
                      "mode": rec.mode.value})
    (out / "index.json").write_text(json.dumps(index))
    _log(f"wrote {len(index)} motions")
    _emit(out / "index.json")
    return 0


def _load_corpus(corpus_dir) -> list[CorpusItem]:
    d = Path(corpus_dir)
    index = load_json((d / "index.json").read_bytes(), "corpus index.json")
    try:
        entries = [(d / e["file"], tuple(e["tags"])) for e in index]
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"corpus index.json entries need \"file\" and \"tags\" "
                            f"({type(exc).__name__}: {exc})") from None
    return [CorpusItem(motion=motion_from_json(path.read_bytes()), tags=tags)
            for path, tags in entries]


def cmd_train_pmp(args) -> int:
    corpus = _load_corpus(args.corpus)
    config = PmpConfig(layers=args.layers)
    model = pmp_init(config, seed=args.seed)
    tc = TrainConfig(steps=args.steps, batch_size=args.batch_size, lr=args.lr)
    # a diverging run is named once, by save_checkpoint's non-finite check
    with np.errstate(over="ignore", invalid="ignore"):
        model, log = pmp_train(model, corpus, tc, seed=args.seed)
    save_checkpoint(model, args.out)
    _log(f"trained {args.steps} steps on {len(corpus)} motions")
    _emit(args.out)
    if args.log_csv:
        save_log_csv(log, args.log_csv)
        _emit(args.log_csv)
    return 0


def cmd_grad_check(args) -> int:
    config = PmpConfig(layers=args.layers)
    model = pmp_init(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    spec = preset(Category.HUMAN)
    from .core import MotionSequence
    perturbed = MotionSequence(spec, 16.0, rng.normal(size=(8, spec.pose_dim)) * 0.4)
    target = MotionSequence(spec, 16.0, rng.normal(size=(8, spec.pose_dim)) * 0.4)
    cond = conditioning_for(config, perturbed, ["human", "walk"], strength=0.3)
    err = grad_check(model, (perturbed, target, cond), epsilon=args.epsilon,
                     samples=args.samples, seed=args.seed)
    print(f"max relative error {err:.3e}")
    return 0 if err < 1e-4 else 1


def cmd_denoise(args) -> int:
    model = load_checkpoint(args.checkpoint)
    seq = motion_from_json(Path(args.infile).read_bytes())
    tags = args.tokens.split(",") if args.tokens else ()
    out = pmp_refine(model, seq, conditioning_for(model.config, seq, tags, args.strength))
    Path(args.out).write_text(motion_to_json(out))
    _emit(args.out)
    return 0


def cmd_extract(args) -> int:
    scene = _load_scene(args.scene)
    clip = fileio.read_clip(args.clip)
    if clip.resolution[0] > scene.camera.size[0]:
        raise ShapeMismatch(f"clip resolution {clip.resolution} is wider than the "
                            f"scene camera {scene.camera.size}")
    config = GeneratorConfig(
        resolution_scale=clip.resolution[0] / scene.camera.size[0],
        frame_fraction=1.0)
    motions = extract_motion(clip, scene, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(motions_to_json(motions))
    _emit(out)
    return 0


def cmd_rasterize(args) -> int:
    scene = _load_scene(args.scene)
    motions = motions_from_json(Path(args.motion).read_bytes())
    masks = render(scene, motions, FINE_CONFIG)[1]
    fileio.write_condition(args.out, ConditionChannels(masks, ConditionMode.FULL_MOTION))
    _log(f"wrote {len(masks)} part masks")
    _emit(args.out)
    return 0


def cmd_run(args) -> int:
    config, scene = run_from_json(Path(args.config).read_bytes(), args.seed)
    # the checkpoint in use (flag, else file) is recorded as an absolute
    # path, so the run replays from its run.json alone
    checkpoint = args.checkpoint or config.pmp_checkpoint
    if not checkpoint:
        raise InvalidConfig("a PMP checkpoint is required (--checkpoint)")
    config = replace(config, pmp_checkpoint=str(Path(checkpoint).resolve()))
    model = load_checkpoint(config.pmp_checkpoint)
    result = run_pipeline(scene, UserCondition(), config, model,
                          out_dir=args.out)
    _log(f"final traj_mse {result.report.traj_mse:.6f} "
         f"coarse {result.coarse_traj_mse:.6f}")
    _emit(Path(args.out) / "report.json")
    return 0


def cmd_extend(args) -> int:
    model = load_checkpoint(args.checkpoint)
    seq = motion_from_json(Path(args.infile).read_bytes())
    tags = args.tokens.split(",") if args.tokens else ()
    out = extend_motion(seq, args.target, model, conditioning_for(model.config, seq, tags))
    Path(args.out).write_text(motion_to_json(out))
    _emit(args.out)
    return 0


def cmd_stitch(args) -> int:
    plan = plan_windows(args.total, window=args.window, stride=args.stride)
    merged = stitch([fileio.read_clip(p) for p in args.clips], plan)
    fileio.write_clip(args.out, merged.frames, merged.fps)
    _emit(args.out)
    return 0


def cmd_eval(args) -> int:
    pred = fileio.read_clip(args.pred)
    ref = fileio.read_clip(args.ref)
    pred_motions, gt_motions = [], []
    if (args.pred_motions is None) != (args.gt_motions is None):
        raise InvalidConfig("--pred-motions and --gt-motions go together")
    if args.pred_motions is not None:
        pred_motions = motions_from_json(Path(args.pred_motions).read_bytes())
        gt_motions = motions_from_json(Path(args.gt_motions).read_bytes())
    report = eval_metrics(pred, ref, pred_motions, gt_motions, [], [])
    print(report.to_json())
    if args.out:
        Path(args.out).write_text(report.to_json())
        _emit(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionloop",
        description="extract-optimize-reinforce motion pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="synthesize a training corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=512)
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train-pmp", help="train the motion prior")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--log-csv", default=None)
    p.set_defaults(func=cmd_train_pmp)

    p = sub.add_parser("grad-check", help="verify analytic gradients")
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("denoise", help="refine one motion JSON file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tokens", default="")
    p.add_argument("--strength", type=float, default=None)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("extract", help="recover motion from a clip")
    p.add_argument("--clip", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("rasterize", help="motion to part-mask PGMs")
    p.add_argument("--motion", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("run", help="full three-stage pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("extend", help="extend a motion to a target length")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tokens", default="")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("stitch", help="blend overlapping window clips")
    p.add_argument("--clips", nargs="+", required=True)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--window", type=int, default=32)
    p.add_argument("--stride", type=int, default=24)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stitch)

    p = sub.add_parser("eval", help="metrics between two clips")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--pred-motions", default=None)
    p.add_argument("--gt-motions", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MotionError as exc:
        _log(f"error [{exc.name}]: {exc}")
        return 1
    except OSError as exc:
        _log(f"error [IO]: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
