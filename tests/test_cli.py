from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motionloop
from motionloop import fileio
from motionloop.cli import main
from motionloop.core import motion_from_json, motion_to_json
from motionloop.pipeline import PipelineConfig, UserCondition, run_pipeline
from motionloop.pmp import load_checkpoint, save_checkpoint
from motionloop.scenes import fixture_scene, make_corpus, scene_to_json
from motionloop.simgen import FINE_CONFIG, generate, render, synthesize_gt_motion
from motionloop.geometry import ConditionMode


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    corpus_dir = d / "corpus"
    assert run_cli("gen-corpus", "--out", str(corpus_dir), "--count", "8",
                   "--frames", "8", "--seed", "1") == 0
    ckpt = d / "pmp.ckpt"
    assert run_cli("train-pmp", "--corpus", str(corpus_dir), "--out", str(ckpt),
                   "--steps", "3", "--layers", "1", "--seed", "1",
                   "--log-csv", str(d / "log.csv")) == 0
    return ckpt


def test_gen_corpus_writes_motions(tmp_path):
    out = tmp_path / "corpus"
    assert run_cli("gen-corpus", "--out", str(out), "--count", "5",
                   "--frames", "8", "--seed", "3") == 0
    index = json.loads((out / "index.json").read_text())
    assert len(index) == 5
    for entry in index:
        assert (out / entry["file"]).exists()
        assert entry["mode"] in ("FullMotion", "TargetPose", "Empty")
    # conditioning mix recorded per item; sanity on a larger draw
    out2 = tmp_path / "corpus2"
    run_cli("gen-corpus", "--out", str(out2), "--count", "300",
            "--frames", "8", "--seed", "4")
    modes = [e["mode"] for e in json.loads((out2 / "index.json").read_text())]
    frac_full = modes.count("FullMotion") / len(modes)
    assert 0.3 < frac_full < 0.5  # 0.4 target


def test_gen_corpus_memory_does_not_grow_with_count(tmp_path):
    # each motion is written before the next is drawn: 32 more motions of 128
    # frames raise the traced peak by far less than holding their frames would
    def peak(count):
        tracemalloc.start()
        try:
            assert run_cli("gen-corpus", "--out", str(tmp_path / str(count)), "--count",
                           str(count), "--frames", "128", "--seed", "5") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    held = sum(rec.item.motion.frames.nbytes
               for rec in list(make_corpus(40, seed=5, frames=128))[8:])
    assert peak(40) - peak(8) < held / 4


def test_train_pmp_and_log(tiny_checkpoint):
    assert tiny_checkpoint.exists()
    log = tiny_checkpoint.parent / "log.csv"
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 4  # header + 3 steps


def test_grad_check_command(capsys):
    assert run_cli("grad-check", "--layers", "1", "--samples", "60",
                   "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    err = float(out.strip().rsplit(" ", 1)[1])
    assert err < 1e-4


def test_denoise_round_trip(tiny_checkpoint, tmp_path):
    scene = fixture_scene(0, duration=8)
    motion = synthesize_gt_motion(scene, seed=2)[0]
    src = tmp_path / "in.json"
    src.write_text(motion_to_json(motion))
    dst = tmp_path / "out.json"
    assert run_cli("denoise", "--checkpoint", str(tiny_checkpoint),
                   "--in", str(src), "--out", str(dst),
                   "--tokens", "object,drop") == 0
    refined = motion_from_json(dst.read_text())
    assert refined.frames.shape == motion.frames.shape


def test_extract_command(tmp_path):
    scene = fixture_scene(2, duration=8)
    clip, _ = generate(scene, ConditionMode.EMPTY, FINE_CONFIG, seed=5)
    clip_dir = tmp_path / "clip"
    fileio.write_clip(clip_dir, list(clip.frames), clip.fps)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(scene_to_json(scene))
    out = tmp_path / "motions.json"
    assert run_cli("extract", "--clip", str(clip_dir), "--scene",
                   str(scene_path), "--out", str(out)) == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 1
    assert len(docs[0]["frames"]) == clip.frame_count


def test_rasterize_command(tmp_path, tiny_checkpoint):
    scene = fixture_scene(0, duration=6)
    motions = synthesize_gt_motion(scene, seed=6)
    motion_path = tmp_path / "motion.json"
    motion_path.write_text(json.dumps(
        [json.loads(motion_to_json(m)) for m in motions]))
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(scene_to_json(scene))
    out = tmp_path / "masks"
    assert run_cli("rasterize", "--motion", str(motion_path), "--scene",
                   str(scene_path), "--out", str(out)) == 0
    # a condition record of the full motion's masks, as stage 3 writes it
    channels = fileio.read_condition(out)
    assert channels.mode is ConditionMode.FULL_MOTION
    masks = render(scene, motions, FINE_CONFIG)[1]
    assert masks.shape[0] == 6 and masks.max() >= 1
    np.testing.assert_array_equal(channels.part_masks, masks)
    # rasterize on a run's refined motion gives its masks at the default fine config
    scene = fixture_scene(1, duration=8)
    result = run_pipeline(scene, UserCondition(), PipelineConfig(),
                          load_checkpoint(tiny_checkpoint), out_dir=tmp_path / "run")
    scene_path.write_text(scene_to_json(scene))
    assert run_cli("rasterize", "--motion", str(tmp_path / "run" / "stage2" / "refined.json"),
                   "--scene", str(scene_path), "--out", str(tmp_path / "s3")) == 0
    masks = render(scene, result.refined_motions, PipelineConfig().fine)[1]
    assert masks.shape[0] == 8 and masks.max() >= 1
    np.testing.assert_array_equal(fileio.read_condition(tmp_path / "s3").part_masks, masks)


def test_run_command_deterministic(tiny_checkpoint, tmp_path):
    scene = fixture_scene(2, duration=12)
    cfg = {"scene": json.loads(scene_to_json(scene)), "seed": 11}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "runA", tmp_path / "runB"
    for out in (a, b):
        assert run_cli("run", "--config", str(cfg_path), "--seed", "11",
                       "--out", str(out), "--checkpoint", str(tiny_checkpoint)) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    for sub in ("stage2/raw.json", "stage2/refined.json"):
        assert (a / sub).read_bytes() == (b / sub).read_bytes()


def test_run_replays_from_its_run_json(tiny_checkpoint, tmp_path):
    # a weaker coarse attenuation changes the coarse clip, and the replay
    # matches it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fixture": 3, "seed": 7, "pipeline": {
        "coarse": {"attenuation": [0.01, 0.2, 0.5]}}}))
    a, b, default = tmp_path / "a", tmp_path / "b", tmp_path / "default"
    assert run_cli("run", "--config", str(cfg_path), "--out", str(a),
                   "--checkpoint", str(tiny_checkpoint)) == 0
    assert run_cli("run", "--config", str(a / "run.json"), "--out", str(b)) == 0
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    doc = json.loads((a / "run.json").read_text())
    assert doc["seed"] == 7
    assert doc["scene"] == json.loads(scene_to_json(fixture_scene(3)))
    assert doc["pipeline"]["coarse"]["attenuation"] == [0.01, 0.2, 0.5]
    assert doc["pipeline"]["pmp_checkpoint"] == str(tiny_checkpoint.resolve())
    cfg_path.write_text(json.dumps({"fixture": 3, "seed": 7}))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(default),
                   "--checkpoint", str(tiny_checkpoint)) == 0
    assert any((a / "coarse" / name).read_bytes() != (default / "coarse" / name).read_bytes()
               for name in os.listdir(a / "coarse") if name.endswith(".pgm"))


def test_library_run_replays_from_its_run_json(tiny_checkpoint, tmp_path):
    # a generator field the CLI never sets still reaches run.json: a weaker
    # coarse corruption changes the coarse clip, and the replay matches it
    from motionloop.pipeline import PipelineConfig, UserCondition, run_pipeline
    from motionloop.pmp import load_checkpoint
    from motionloop.simgen import COARSE_CONFIG

    coarse = replace(COARSE_CONFIG, attenuation=(0.01, 0.2, 0.5))
    config = PipelineConfig(coarse=coarse, seed=7,
                            pmp_checkpoint=str(tiny_checkpoint.resolve()))
    a, b = tmp_path / "a", tmp_path / "b"
    run_pipeline(fixture_scene(3), UserCondition(), config,
                 load_checkpoint(tiny_checkpoint), out_dir=a)
    assert run_cli("run", "--config", str(a / "run.json"), "--out", str(b)) == 0
    frames = [f"coarse/{p.name}" for p in sorted((a / "coarse").glob("frame_*.pgm"))]
    assert len(frames) == 8
    for name in frames + ["stage2/raw.json", "report.json", "run.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_run_is_a_thin_adapter(tiny_checkpoint, tmp_path):
    # a library call with the same parsed config reproduces the CLI output
    from motionloop.pipeline import PipelineConfig, UserCondition, run_pipeline
    from motionloop.pmp import load_checkpoint

    scene = fixture_scene(2, duration=12)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scene": json.loads(scene_to_json(scene)),
                                    "seed": 7}))
    out = tmp_path / "cli_run"
    assert run_cli("run", "--config", str(cfg_path), "--seed", "7",
                   "--out", str(out), "--checkpoint", str(tiny_checkpoint)) == 0
    model = load_checkpoint(tiny_checkpoint)
    result = run_pipeline(scene, UserCondition(), PipelineConfig(seed=7), model)
    assert (out / "report.json").read_text() == result.report.to_json()


def test_run_on_an_object_off_the_frame_exits_1_with_one_named_error(tiny_checkpoint,
                                                                     tmp_path):
    scene = json.loads(scene_to_json(fixture_scene(2)))
    scene["objects"][0]["placement"][0] = 4.0
    code, err = _run_in_process(*_bad_run_config(json.dumps({"scene": scene}))(
        tmp_path, tiny_checkpoint))
    assert code == 1
    assert err.startswith("error [ExtractionFailed]: ") and len(err.splitlines()) == 1, err
    assert not (tmp_path / "run").exists()


def test_eval_identity(tmp_path, capsys):
    rng = np.random.default_rng(80)
    frames = [rng.integers(0, 255, size=(9, 12)).astype(np.uint8)
              for _ in range(3)]
    clip_dir = tmp_path / "clip"
    fileio.write_clip(clip_dir, frames, fps=8.0)
    assert run_cli("eval", "--pred", str(clip_dir), "--ref", str(clip_dir)) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["psnr"] == 99.0
    assert doc["ssim"] == pytest.approx(1.0)


def test_stitch_command(tmp_path):
    rng = np.random.default_rng(81)
    base = rng.integers(0, 255, size=(6, 8)).astype(np.uint8)
    dirs = []
    for k in range(2):
        d = tmp_path / f"w{k}"
        fileio.write_clip(d, [base.copy() for _ in range(32)], fps=16.0)
        dirs.append(str(d))
    out = tmp_path / "merged"
    assert run_cli("stitch", "--clips", *dirs, "--total", "56",
                   "--out", str(out)) == 0
    frames = fileio.read_clip(out).frames
    assert len(frames) == 56
    np.testing.assert_array_equal(frames[30], base)


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required flags
    assert exc.value.code == 2


def test_domain_error_exit_code_1(tmp_path, capsys):
    bad = tmp_path / "missing.ckpt"
    bad.write_bytes(b"XXXX\x00\x00\x00\x00")
    src = tmp_path / "in.json"
    scene = fixture_scene(0, duration=8)
    src.write_text(motion_to_json(synthesize_gt_motion(scene, seed=1)[0]))
    code = run_cli("denoise", "--checkpoint", str(bad), "--in", str(src),
                   "--out", str(tmp_path / "o.json"))
    assert code == 1
    assert "InvalidConfig" in capsys.readouterr().err


# ------------------------------------------------------- input boundaries

def _motion_doc() -> dict:
    scene = fixture_scene(0, duration=8)
    return json.loads(motion_to_json(synthesize_gt_motion(scene, seed=1)[0]))


def _denoise(tmp_path, checkpoint, doc) -> list[str]:
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    return ["denoise", "--checkpoint", str(checkpoint), "--in", str(src),
            "--out", str(tmp_path / "out.json")]


def _bad_checkpoint(edit):
    """denoise with a copy of the checkpoint whose bytes went through edit."""
    def argv(tmp_path, checkpoint):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(edit(checkpoint.read_bytes()))
        return _denoise(tmp_path, bad, _motion_doc())
    return argv


def _config_bytes(edit):
    """Checkpoint bytes with the config JSON replaced by edit(config)."""
    def apply(raw: bytes) -> bytes:
        (n,) = struct.unpack_from("<I", raw, 4)
        cfg = edit(raw[8:8 + n])
        return raw[:4] + struct.pack("<I", len(cfg)) + cfg + raw[8 + n:]
    return apply


def _bad_motion(edit):
    def argv(tmp_path, checkpoint):
        doc = _motion_doc()
        edit(doc)
        return _denoise(tmp_path, checkpoint, doc)
    return argv


def _bad_run_config(text):
    def argv(tmp_path, checkpoint):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        return ["run", "--config", str(cfg), "--out", str(tmp_path / "run"),
                "--checkpoint", str(checkpoint)]
    return argv


def _bad_scene(edit, fixture=1):
    """run on a fixture (1: a walking human) as a scene block, after edit(doc)."""
    scene = json.loads(scene_to_json(fixture_scene(fixture)))
    edit(scene)
    return _bad_run_config(json.dumps({"scene": scene}))


def _bad_clip(edit):
    """eval on a two-frame clip directory after edit(directory)."""
    def argv(tmp_path, checkpoint):
        clip = tmp_path / "clip"
        fileio.write_clip(clip, [np.full((6, 8), 9, dtype=np.uint8)] * 2, fps=8.0)
        edit(clip)
        return ["eval", "--pred", str(clip), "--ref", str(clip)]
    return argv


def _truncate_second_frame(clip):
    frame = clip / "frame_0001.pgm"
    frame.write_bytes(frame.read_bytes()[:-5])


def _sixteen_bit_second_frame(clip):
    # a 16-bit PGM of the right size: big-endian pixels of 300
    (clip / "frame_0001.pgm").write_bytes(b"P5\n8 6\n65535\n" + b"\x01\x2c" * 48)


def _second_frame_bytes(header: bytes, payload: int):
    """A clip edit that replaces the second frame with a header and
    ``payload`` bytes of pixels."""
    def edit(clip):
        (clip / "frame_0001.pgm").write_bytes(header + b"\x09" * payload)
    return edit


# deeper than the JSON decoder's recursion limit
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _denoise_text(text):
    """denoise on a motion file holding text."""
    def argv(tmp_path, checkpoint):
        args = _denoise(tmp_path, checkpoint, None)
        (tmp_path / "in.json").write_text(text)
        return args
    return argv


def _motions_file(tmp_path, name, docs) -> str:
    path = tmp_path / name
    path.write_text(docs if isinstance(docs, str) else json.dumps(docs))
    return str(path)


def _eval_motions(pred, gt):
    """eval on a valid clip with the given pred and gt motion files; a None
    leaves that flag out."""
    def argv(tmp_path, checkpoint):
        clip = tmp_path / "clip"
        fileio.write_clip(clip, [np.full((6, 8), 9, dtype=np.uint8)] * 2, fps=8.0)
        flags = [(flag, _motions_file(tmp_path, name, docs))
                 for flag, name, docs in (("--pred-motions", "pred.json", pred),
                                          ("--gt-motions", "gt.json", gt))
                 if docs is not None]
        return ["eval", "--pred", str(clip), "--ref", str(clip),
                *(arg for pair in flags for arg in pair)]
    return argv


def _extract_edited_clip(fixture, edit):
    """extract on a clip of the fixture scene whose frames edit reshapes."""
    def argv(tmp_path, checkpoint):
        scene = fixture_scene(fixture, duration=8)
        clip, _ = generate(scene, ConditionMode.EMPTY, FINE_CONFIG, seed=5)
        fileio.write_clip(tmp_path / "clip", [edit(f) for f in clip.frames], clip.fps)
        (tmp_path / "scene.json").write_text(scene_to_json(scene))
        return ["extract", "--clip", str(tmp_path / "clip"), "--scene",
                str(tmp_path / "scene.json"), "--out", str(tmp_path / "motions.json")]
    return argv


def _rasterize(motions, objects=(0,)):
    """rasterize the given motion file over a scene of fixture objects."""
    def argv(tmp_path, checkpoint):
        scene = replace(fixture_scene(objects[0], duration=8),
                        objects=tuple(fixture_scene(i).objects[0] for i in objects))
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(scene_to_json(scene))
        return ["rasterize", "--scene", str(scene_path), "--out", str(tmp_path / "masks"),
                "--motion", _motions_file(tmp_path, "motions.json", motions)]
    return argv


def _rasterize_on_scene(edit):
    """rasterize a valid motion over fixture 0's scene after edit(doc)."""
    def argv(tmp_path, checkpoint):
        args = _rasterize([_motion_doc()])(tmp_path, checkpoint)
        scene_path = tmp_path / "scene.json"
        doc = json.loads(scene_path.read_text())
        edit(doc)
        scene_path.write_text(json.dumps(doc))
        return args
    return argv


def _rasterize_on_camera(**camera):
    """rasterize a valid motion over fixture 0's scene with camera keys replaced."""
    return _rasterize_on_scene(lambda doc: doc["camera"].update(camera))


# a JSON document followed by a byte that is not UTF-8
_NOT_UTF8 = b'{"a": 1}\xff'


def _not_utf8(build, name):
    """build's argv, with the file it names ``name`` under tmp_path
    overwritten by _NOT_UTF8."""
    def argv(tmp_path, checkpoint):
        args = build(tmp_path, checkpoint)
        (tmp_path / name).write_bytes(_NOT_UTF8)
        return args
    return argv


def _extend(tmp_path, checkpoint):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_motion_doc()))
    return ["extend", "--checkpoint", str(checkpoint), "--in", str(src),
            "--target", "12", "--out", str(tmp_path / "out.json")]


def _bad_corpus(index_text):
    def argv(tmp_path, checkpoint):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "index.json").write_text(index_text)
        return ["train-pmp", "--corpus", str(corpus), "--out", str(tmp_path / "p.ckpt"),
                "--steps", "1", "--layers", "1"]
    return argv


def _non_finite_tensor(raw: bytes) -> bytes:
    """Checkpoint bytes with the first weight of the last tensor set to NaN."""
    cfg = json.loads(raw[8:8 + struct.unpack_from("<I", raw, 4)[0]])
    pose_dim = cfg["max_pose_dim"]
    at = len(raw) - 8 * pose_dim
    return raw[:at] + struct.pack("<d", float("nan")) + raw[at + 8:]


def _run_with_checkpoint(edit):
    """run on fixture 2 with a copy of the checkpoint edited by edit."""
    def argv(tmp_path, checkpoint):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(edit(checkpoint.read_bytes()))
        return _bad_run_config('{"fixture": 2}')(tmp_path, bad)
    return argv


def _train_pmp_with(*flags):
    """train-pmp on the corpus the tiny checkpoint came from, with flags."""
    def argv(tmp_path, checkpoint):
        return ["train-pmp", "--corpus", str(checkpoint.parent / "corpus"),
                "--out", str(tmp_path / "p.ckpt"), *flags]
    return argv


def _train_pmp_with_lr(lr, steps="2"):
    """train-pmp for a few steps at learning rate lr."""
    return _train_pmp_with("--steps", steps, "--layers", "1", "--lr", lr)


def _denoise_with_strength(strength):
    def argv(tmp_path, checkpoint):
        return [*_denoise(tmp_path, checkpoint, _motion_doc()), "--strength", strength]
    return argv


def _gen_corpus(count, frames):
    def argv(tmp_path, checkpoint):
        return ["gen-corpus", "--out", str(tmp_path / "corpus"), "--count", count,
                "--frames", frames]
    return argv


def _run_without_checkpoint(tmp_path, checkpoint):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"fixture": 1}')
    return ["run", "--config", str(cfg), "--out", str(tmp_path / "run")]


def _stitch_mixed_fps(tmp_path, checkpoint):
    dirs = []
    for k, fps in enumerate((16.0, 8.0)):
        dirs.append(str(tmp_path / f"w{k}"))
        fileio.write_clip(dirs[-1], [np.zeros((6, 8), dtype=np.uint8)] * 32, fps=fps)
    return ["stitch", "--clips", *dirs, "--total", "56", "--out", str(tmp_path / "out")]


# case: (argv builder, error name[, words the error line must hold])
BOUNDARY_CASES = {
    "checkpoint-trailing-bytes": (_bad_checkpoint(lambda b: b + b"\0"), "InvalidConfig"),
    "checkpoint-unknown-config-key": (_bad_checkpoint(_config_bytes(
        lambda c: json.dumps({**json.loads(c), "dropout": 0.1}).encode())),
        "InvalidConfig"),
    "checkpoint-short-header": (_bad_checkpoint(lambda b: b[:6]), "InvalidConfig"),
    # each iteration is a forward pass, and the tensor sizes never bound it
    "checkpoint-huge-refine-iterations": (_bad_checkpoint(_config_bytes(
        lambda c: json.dumps({**json.loads(c), "refine_iterations": 10**9}).encode())),
        "InvalidConfig", "refine_iterations"),
    "checkpoint-config-not-json": (_bad_checkpoint(_config_bytes(
        lambda c: b"layers=1")), "InvalidConfig"),
    "checkpoint-config-declares-more-than-the-file": (_bad_checkpoint(_config_bytes(
        lambda c: json.dumps({**json.loads(c), "max_pose_dim": 10**11}).encode())),
        "InvalidConfig"),
    "checkpoint-nan-weight": (_bad_checkpoint(_non_finite_tensor), "InvalidConfig"),
    "run-checkpoint-nan-weight": (_run_with_checkpoint(_non_finite_tensor),
                                  "InvalidConfig"),
    "train-pmp-nan-lr": (_train_pmp_with_lr("nan"), "InvalidConfig"),
    "train-pmp-infinite-lr": (_train_pmp_with_lr("inf"), "InvalidConfig"),
    "train-pmp-diverging-lr": (_train_pmp_with_lr("1e300"), "InvalidConfig"),
    "motion-unknown-category": (_bad_motion(lambda d: d.update(category="Nope")),
                                "DimensionMismatch"),
    "motion-missing-pose-dim": (_bad_motion(lambda d: d.pop("pose_dim")),
                                "DimensionMismatch"),
    "motion-all-nan": (_bad_motion(lambda d: d.update(
        frames=[[float("nan")] * len(row) for row in d["frames"]])),
        "DimensionMismatch"),
    "pgm-short-payload": (_bad_clip(_truncate_second_frame), "ShapeMismatch"),
    "pgm-maxval-zero": (_bad_clip(_second_frame_bytes(b"P5 8 6 0\n", 48)),
                        "ShapeMismatch"),
    "pgm-maxval-above-16-bit": (_bad_clip(_second_frame_bytes(b"P5 8 6 65536\n", 96)),
                                "ShapeMismatch"),
    "clip-json-nested-too-deeply": (_bad_clip(lambda clip: (clip / "clip.json")
                                              .write_text(_DEEP_JSON)), "ShapeMismatch"),
    "run-config-nested-too-deeply": (_bad_run_config(_DEEP_JSON), "InvalidConfig"),
    "motion-json-nested-too-deeply": (_denoise_text(_DEEP_JSON), "DimensionMismatch"),
    "run-misspelled-key": (_bad_run_config(
        '{"pipeline": {"coarse": {"splat_radus": 2.0}}}'), "InvalidConfig"),
    "run-unknown-top-level-key": (_bad_run_config('{"fixtures": 3}'), "InvalidConfig"),
    "run-string-resolution-scale": (_bad_run_config(
        '{"pipeline": {"fine": {"resolution_scale": "x"}}}'), "InvalidConfig"),
    "run-two-value-triple": (_bad_run_config(
        '{"pipeline": {"confidence_triple": [1.0, 0.5]}}'), "InvalidConfig"),
    "run-top-level-list": (_bad_run_config('[{"fixture": 3}]'), "InvalidConfig"),
    "run-string-fixture": (_bad_run_config('{"fixture": "a"}'), "InvalidConfig"),
    "run-not-json": (_bad_run_config("fixture: 3"), "InvalidConfig"),
    "run-no-checkpoint": (_run_without_checkpoint, "InvalidConfig"),
    "scene-missing-camera": (_bad_run_config('{"scene": {"objects": []}}'),
                             "InvalidConfig"),
    "run-infinite-fine-splat-radius": (_bad_run_config(
        '{"pipeline": {"fine": {"splat_radius": Infinity}}}'), "InvalidConfig"),
    "run-nan-fine-splat-radius": (_bad_run_config(
        '{"pipeline": {"fine": {"splat_radius": NaN}}}'), "InvalidConfig"),
    "run-nan-coarse-splat-radius": (_bad_run_config(
        '{"pipeline": {"coarse": {"splat_radius": NaN}}}'), "InvalidConfig"),
    "run-nan-condition-attenuation": (_bad_run_config(
        '{"pipeline": {"fine": {"attenuation": [0.02, NaN, 1.0]}}}'), "InvalidConfig",
        "finite values"),
    "scene-nan-fps": (_bad_scene(lambda d: d.update(fps=float("nan"))), "InvalidConfig"),
    "scene-infinite-depth": (_bad_scene(
        lambda d: d["objects"][0]["placement"].__setitem__(2, float("inf"))),
        "DimensionMismatch"),
    "scene-two-value-placement": (_bad_scene(
        lambda d: d["objects"][0].update(placement=[0.0, 0.0])), "DimensionMismatch"),
    "scene-nan-placement-x": (_bad_scene(
        lambda d: d["objects"][0]["placement"].__setitem__(0, float("nan"))),
        "DimensionMismatch"),
    "scene-nan-shape-scale": (_bad_scene(
        lambda d: d["objects"][0].update(shape_scale=float("nan"))),
        "DimensionMismatch"),
    "scene-zero-shape-scale": (_bad_scene(
        lambda d: d["objects"][0].update(shape_scale=0.0)), "DimensionMismatch"),
    "scene-negative-shape-scale": (_bad_scene(
        lambda d: d["objects"][0].update(shape_scale=-1.0)), "DimensionMismatch"),
    "scene-nan-generic-initial-pose": (_bad_scene(
        lambda d: d["objects"][0]["initial_pose"].__setitem__(0, float("nan")), fixture=2),
        "DimensionMismatch"),
    "scene-nan-focal": (_bad_scene(lambda d: d["camera"].update(focal=float("nan"))),
                        "NonPositiveDepth"),
    "clip-json-missing-resolution": (_bad_clip(lambda clip: (clip / "clip.json")
                                               .write_text('{"fps": 8.0}')),
                                     "ShapeMismatch"),
    "clip-sixteen-bit-frame": (_bad_clip(_sixteen_bit_second_frame), "ShapeMismatch"),
    "eval-pred-motions-not-json": (_eval_motions("not json", [_motion_doc()]),
                                   "DimensionMismatch"),
    "eval-gt-motions-not-json": (_eval_motions([_motion_doc()], "not json"),
                                 "DimensionMismatch"),
    "eval-motion-count-mismatch": (_eval_motions([_motion_doc()] * 2, [_motion_doc()]),
                                   "ShapeMismatch"),
    "eval-pred-motions-without-gt-motions": (_eval_motions([_motion_doc()], None),
                                             "InvalidConfig"),
    "eval-gt-motions-without-pred-motions": (_eval_motions(None, [_motion_doc()]),
                                             "InvalidConfig"),
    # the left half: same height, half the width, so no camera scale fits it
    "extract-clip-aspect-differs-from-scene": (_extract_edited_clip(
        2, lambda f: f[:, :f.shape[1] // 2]), "ShapeMismatch"),
    "extract-clip-wider-than-camera": (_extract_edited_clip(
        0, lambda f: np.pad(f, ((0, 0), (0, 1)))), "ShapeMismatch"),
    "rasterize-motion-not-json": (_rasterize("not json"), "DimensionMismatch"),
    "rasterize-fewer-motions-than-objects": (_rasterize([_motion_doc()], objects=(0, 2)),
                                             "DimensionMismatch"),
    "rasterize-more-motions-than-objects": (_rasterize([_motion_doc()] * 2),
                                            "DimensionMismatch"),
    "rasterize-motion-of-another-category": (_rasterize([_motion_doc()], objects=(1,)),
                                             "DimensionMismatch"),
    "scene-fractional-camera-size": (_rasterize_on_camera(size=[192.5, 108]),
                                     "InvalidConfig"),
    "scene-boolean-camera-size": (_rasterize_on_camera(size=[True, True], principal=[0, 0]),
                                  "InvalidConfig"),
    "scene-camera-size-past-numpy-dimension": (_rasterize_on_camera(size=[10**30, 108]),
                                               "ShapeMismatch"),
    # the fine render keeps the scene's camera: float64 would round the width
    "scene-camera-width-past-float-precision": (
        _rasterize_on_camera(size=[10**30, 108]), "ShapeMismatch",
        "of 1000000000000000000000000000000x108 pixels"),
    "denoise-nan-strength": (_denoise_with_strength("nan"), "InvalidConfig"),
    "denoise-infinite-strength": (_denoise_with_strength("inf"), "InvalidConfig"),
    "gen-corpus-negative-count": (_gen_corpus("-5", "8"), "InvalidConfig"),
    # five-digit file names list 100000 motions in draw order
    "gen-corpus-count-past-its-file-names": (_gen_corpus("100001", "8"), "InvalidConfig",
                                             "1..100000, got 100001"),
    "corpus-index-not-json": (_bad_corpus("not json"), "InvalidConfig"),
    "corpus-index-entry-without-file": (_bad_corpus('[{"tags": ["walk"]}]'),
                                        "InvalidConfig"),
    "stitch-fps-differs": (_stitch_mixed_fps, "PlanMismatch"),
    # every JSON reader reads bytes, so a byte that is not UTF-8 is named
    "scene-not-utf8": (_not_utf8(_rasterize([_motion_doc()]), "scene.json"),
                       "InvalidConfig"),
    "run-config-not-utf8": (_not_utf8(_bad_run_config('{"fixture": 1}'), "cfg.json"),
                            "InvalidConfig"),
    "corpus-index-not-utf8": (_not_utf8(_bad_corpus("[]"), "corpus/index.json"),
                              "InvalidConfig"),
    "corpus-motion-not-utf8": (_not_utf8(_bad_corpus('[{"file": "m.json", "tags": ["walk"]}]'),
                                         "corpus/m.json"), "DimensionMismatch"),
    "denoise-motion-not-utf8": (_not_utf8(_bad_motion(lambda d: None), "in.json"),
                                "DimensionMismatch"),
    "extend-motion-not-utf8": (_not_utf8(_extend, "in.json"), "DimensionMismatch"),
    "rasterize-motion-not-utf8": (_not_utf8(_rasterize([_motion_doc()]), "motions.json"),
                                  "DimensionMismatch"),
    "eval-pred-motions-not-utf8": (_not_utf8(_eval_motions([_motion_doc()], [_motion_doc()]),
                                             "pred.json"), "DimensionMismatch"),
    "eval-gt-motions-not-utf8": (_not_utf8(_eval_motions([_motion_doc()], [_motion_doc()]),
                                           "gt.json"), "DimensionMismatch"),
    "clip-json-not-utf8": (_bad_clip(lambda clip: (clip / "clip.json").write_bytes(_NOT_UTF8)),
                           "ShapeMismatch"),
    # a clip is numbered 0..frames-1, with exactly the keys fps, frames and resolution
    "clip-stray-frame": (_bad_clip(lambda clip: (clip / "frame_extra.pgm").write_bytes(
        (clip / "frame_0000.pgm").read_bytes())), "ShapeMismatch", "numbered"),
    "clip-unknown-key": (_bad_clip(lambda clip: (clip / "clip.json").write_text(
        '{"fps": 8.0, "frames": 2, "resolution": [8, 6], "note": 1}')), "ShapeMismatch",
        "keys"),
    # scene durations and walk periods are JSON integers
    "scene-infinite-duration": (_rasterize_on_scene(lambda d: d.update(duration=float("inf"))),
                                "InvalidConfig", "duration"),
    "scene-fractional-duration": (_rasterize_on_scene(lambda d: d.update(duration=2.7)),
                                  "InvalidConfig", "duration"),
    "scene-infinite-walk-period": (_rasterize_on_scene(
        lambda d: d.update(walk_period=float("inf"))), "InvalidConfig", "walk_period"),
    "motion-infinite-fps": (_bad_motion(lambda d: d.update(fps=float("inf"))),
                            "DimensionMismatch"),
    # frame counts past 2**53 overflowed float64 in the frame arithmetic
    "run-duration-past-float-range": (_bad_scene(lambda d: d.update(duration=10**400)),
                                      "InvalidConfig", "duration"),
    "run-walk-period-past-float-range": (_bad_scene(lambda d: d.update(walk_period=10**400)),
                                         "InvalidConfig", "walk_period"),
    # every scene and motion number is a JSON number: no string, no boolean
    "scene-string-fps": (_rasterize_on_scene(lambda d: d.update(fps="16")),
                         "InvalidConfig", "fps"),
    "scene-boolean-fps": (_rasterize_on_scene(lambda d: d.update(fps=True)),
                          "InvalidConfig", "fps"),
    "scene-string-shape-scale": (_rasterize_on_scene(
        lambda d: d["objects"][0].update(shape_scale="2")), "InvalidConfig", "shape_scale"),
    "scene-boolean-shape-scale": (_rasterize_on_scene(
        lambda d: d["objects"][0].update(shape_scale=True)), "InvalidConfig", "shape_scale"),
    "scene-boolean-focal": (_rasterize_on_camera(focal=True), "InvalidConfig", "focal"),
    "scene-boolean-principal": (_rasterize_on_camera(principal=[True, 1]), "InvalidConfig",
                                "principal"),
    "scene-boolean-placement": (_rasterize_on_scene(
        lambda d: d["objects"][0].update(placement=[True, 0, 5])), "InvalidConfig",
        "placement"),
    "scene-string-initial-pose": (_rasterize_on_scene(lambda d: d["objects"][0].update(
        initial_pose=[str(v) for v in d["objects"][0]["initial_pose"]])), "InvalidConfig",
        "initial_pose"),
    "motion-string-fps": (_bad_motion(lambda d: d.update(fps="16")), "DimensionMismatch",
                          "fps"),
    "motion-boolean-fps": (_bad_motion(lambda d: d.update(fps=True)), "DimensionMismatch",
                           "fps"),
    "motion-string-frames": (_bad_motion(lambda d: d.update(
        frames=[[str(v) for v in row] for row in d["frames"]])), "DimensionMismatch",
        "frames"),
    "motion-boolean-frames": (_bad_motion(lambda d: d["frames"][0].__setitem__(0, True)),
                              "DimensionMismatch", "frames"),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_malformed_input_exits_1_with_a_named_error(case, tiny_checkpoint,
                                                     tmp_path, capsys):
    build, name, *detail = BOUNDARY_CASES[case]
    assert run_cli(*build(tmp_path, tiny_checkpoint)) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith(f"error [{name}]: "), err
    assert all(words in err for words in detail), err
    assert "Traceback" not in err


_PGM_TOKENS = st.one_of(
    st.sampled_from([b"P5", b"P2", b"-8", b"8.0", b"0x8", b""]),
    st.sampled_from([0, 1, 6, 8, 255, 256, 65535, 65536, 2**63, 10**20]).map(
        lambda n: str(n).encode()),
    st.integers(0, 10**22).map(lambda n: str(n).encode()),
    st.binary(max_size=4))


@st.composite
def _mutated_pgm(draw):
    """A valid 8x6 frame's bytes with header tokens, separators and the
    payload replaced, then a few bytes set, inserted or deleted anywhere."""
    tokens = [b"P5", b"8", b"6", b"255"]
    for i in draw(st.sets(st.integers(0, 3))):
        tokens[i] = draw(_PGM_TOKENS)
    seps = st.sampled_from([b" ", b"\n", b"\t", b"  ", b"\n# c\n", b"#", b"", b"\n#"])
    raw = b"".join(tok + draw(seps) for tok in tokens)
    payload = bytes(range(100, 148))
    raw += draw(st.one_of(st.just(payload), st.integers(0, 47).map(lambda k: payload[:k]),
                          st.binary(max_size=120), st.just(payload * 3)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(raw)))
        edit = draw(st.binary(max_size=3))
        raw = raw[:at] + edit + raw[at + draw(st.integers(0, 3)):]
    return raw


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(frame=_mutated_pgm())
# zero width, and a height past numpy's largest dimension: once a traceback
@example(frame=b"P5 0 100000000000000000000 255\n" + bytes(48))
def test_fuzzed_pgm_frame_exits_0_or_names_shape_mismatch(frame):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        clip = Path(tmp) / "clip"
        fileio.write_clip(clip, [np.full((6, 8), 9, dtype=np.uint8)] * 2, fps=8.0)
        (clip / "frame_0001.pgm").write_bytes(frame)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli("eval", "--pred", str(clip), "--ref", str(clip))
    err = err.getvalue()
    assert code in (0, 1), err
    if code == 1:
        assert len(err.strip().splitlines()) == 1, err
        assert err.startswith("error [ShapeMismatch]: "), err
    else:
        assert err == ""


# numbers set to 0, negative, huge, fractional, NaN or infinite, or to an
# integer past the float range
_ODD_NUMBERS = st.sampled_from([0, -1, 2.7, 10**30, 1e300, float("nan"), float("inf"),
                                10**400])


@st.composite
def _near(draw, doc):
    """``doc`` after one to three edits, each at a node reached by a walk
    from one of the root's entries: the node set to an odd number or other
    JSON, dropped from its parent, or, if an object, given another key."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while (isinstance(node, (dict, list)) and node
               and (parent is None or draw(st.booleans()))):
            parent, key = node, draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        edit = draw(st.sampled_from(["number", "json", "drop", "add"]))
        if parent is None:  # an edit before left the root empty or not a container
            doc = draw(_ANY_JSON)
        elif edit == "add" and isinstance(node, dict):
            node[draw(st.text(max_size=6))] = draw(_ANY_JSON)
        elif edit == "drop":
            del parent[key]
        else:
            parent[key] = draw(_ODD_NUMBERS if edit == "number" else _ANY_JSON)
    return doc


_ANY_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                         lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                         max_leaves=6)


def _run_in_process(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*argv)
    return code, err.getvalue()


def _assert_exit_0_or_one_named_error(code: int, err: str) -> None:
    assert code in (0, 1), err
    assert "Traceback" not in err, err
    if code == 1:
        assert len(err.strip().splitlines()) == 1, err
        assert re.match(r"error \[\w+\]: ", err), err


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_near(_motion_doc()))
def test_fuzzed_motion_json_exits_0_or_names_one_error(doc, tiny_checkpoint, tmp_path_factory):
    # denoise reads any document near a motion: it refines it, writing
    # strict JSON, or names one error
    d = tmp_path_factory.mktemp("motion")
    code, err = _run_in_process(*_denoise(d, tiny_checkpoint, doc))
    _assert_exit_0_or_one_named_error(code, err)
    if code == 0:
        _strict_json((d / "out.json").read_text())


def _large_camera(doc) -> bool:
    """Whether a scene document's camera size holds a number of 1024 or more,
    which could ask for frames too large to render in the test process (the
    rest of a scene sizes nothing that rasterize allocates)."""
    camera = doc.get("camera") if isinstance(doc, dict) else None
    size = camera.get("size") if isinstance(camera, dict) else None
    return isinstance(size, list) and any(
        isinstance(v, (int, float)) and not abs(v) < 1024 for v in size)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=_near(json.loads(scene_to_json(fixture_scene(0, duration=8)))))
def test_fuzzed_scene_json_exits_0_or_names_one_error(doc, tiny_checkpoint, tmp_path_factory):
    # rasterize reads any document near a scene: it writes the masks or
    # names one error; a large camera runs in a child with capped memory
    d = tmp_path_factory.mktemp("scene")
    argv = _rasterize([_motion_doc()])(d, tiny_checkpoint)
    (d / "scene.json").write_text(json.dumps(doc))
    if _large_camera(doc):
        proc = run_cli_capped(*argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = _run_in_process(*argv)
    _assert_exit_0_or_one_named_error(code, err)


def _run_doc() -> dict:
    """A run config of the pipeline block and fixture 0's scene at 8 frames
    (the seed, a single number, is left to its default)."""
    return {"pipeline": json.loads(PipelineConfig().to_json()),
            "scene": json.loads(scene_to_json(fixture_scene(0, duration=8)))}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(doc=_near(_run_doc()))
# a duration past the float range: once a traceback
@example(doc={**_run_doc(), "scene": {**_run_doc()["scene"], "duration": 10**400}})
def test_fuzzed_run_config_exits_0_or_names_one_error(doc, tiny_checkpoint, tmp_path_factory):
    # run reads any document near a run config: it runs, or names one
    # error; a large camera runs in a child with capped memory
    d = tmp_path_factory.mktemp("run")
    argv = _bad_run_config(json.dumps(doc))(d, tiny_checkpoint)
    if isinstance(doc, dict) and _large_camera(doc.get("scene")):
        proc = run_cli_capped(*argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = _run_in_process(*argv)
    _assert_exit_0_or_one_named_error(code, err)


def test_refused_number_is_cut_short_in_the_error_line(tiny_checkpoint, tmp_path):
    # the scene's fps is an integer of 401 digits: the line names it by its
    # first 80 characters
    scene = json.loads(scene_to_json(fixture_scene(0, duration=8)))
    config = json.dumps({"scene": {**scene, "fps": 10**400}})
    code, err = _run_in_process(*_bad_run_config(config)(tmp_path, tiny_checkpoint))
    assert code == 1
    assert err == f"error [InvalidConfig]: scene fps must be like 0.0, got {'1' + '0' * 79}\n"


def test_diverged_training_leaves_no_checkpoint(tiny_checkpoint, tmp_path, capsys):
    argv = _train_pmp_with_lr("1e300")(tmp_path, tiny_checkpoint)
    assert run_cli(*argv) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "p.ckpt").exists()


# ------------------------------------------------------ memory boundaries

CHILD_ADDRESS_SPACE = 1536 * 2**20


def run_cli_capped(*argv, timeout=120):
    """Run the CLI in a child process whose address space is capped, so an
    input that makes it allocate without bound fails in the child alone."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE,) * 2)
    src = str(Path(motionloop.__file__).parents[1])
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "motionloop.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=cap, env=env)


def test_diverging_training_prints_one_error_line_and_no_numpy_warning(
        tiny_checkpoint, tmp_path):
    proc = run_cli_capped(*_train_pmp_with_lr("1e300", steps="3")(tmp_path, tiny_checkpoint))
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error [InvalidConfig]: "), proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("command", ["denoise", "extend", "run"])
def test_overflowing_prior_prints_one_error_line_and_no_numpy_warning(
        command, tiny_checkpoint, tmp_path):
    # finite weights near the float range: the forward pass overflows in
    # its layer norm, and each command that refines names it once
    model = load_checkpoint(tiny_checkpoint)
    model.params["in_proj_w"] *= 1e300
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(model, ckpt)
    if command == "denoise":
        argv = _denoise(tmp_path, ckpt, _motion_doc())
    elif command == "extend":
        src = tmp_path / "in.json"
        src.write_text(json.dumps(_motion_doc()))
        argv = ["extend", "--checkpoint", str(ckpt), "--in", str(src), "--target", "12",
                "--out", str(tmp_path / "out.json")]
    else:
        argv = _bad_run_config('{"fixture": 1}')(tmp_path, ckpt)
    proc = run_cli_capped(*argv)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error [InvalidConfig]: "), proc.stderr
    assert "Warning" not in proc.stderr


def _huge_layer_count(tmp_path, checkpoint):
    bad = tmp_path / "layers.ckpt"
    cfg = json.dumps({"layers": 100_000_000}).encode()
    bad.write_bytes(b"PMP1" + struct.pack("<I", len(cfg)) + cfg + bytes(64))
    return _denoise(tmp_path, bad, _motion_doc())


def _huge_extend_target(tmp_path, checkpoint):
    src = tmp_path / "in.json"
    src.write_text(motion_to_json(synthesize_gt_motion(fixture_scene(1), seed=1)[0]))
    return ["extend", "--checkpoint", str(checkpoint), "--in", str(src),
            "--target", "100000000", "--out", str(tmp_path / "out.json")]


def _huge_stitch_total(tmp_path, checkpoint):
    clip = tmp_path / "c0"
    fileio.write_clip(clip, [np.zeros((6, 8), dtype=np.uint8)] * 32, fps=16.0)
    return ["stitch", "--clips", str(clip), "--total", "1000000000",
            "--out", str(tmp_path / "out")]


def _huge_scene_duration(tmp_path, checkpoint):
    scene = json.loads(scene_to_json(fixture_scene(1)))
    scene["duration"] = 1_000_000_000
    return _bad_run_config(json.dumps({"scene": scene}))(tmp_path, checkpoint)


MEMORY_CASES = {
    # read(n) would allocate the declared length before reading the file
    "checkpoint-config-length-past-the-file": (_bad_checkpoint(
        lambda b: b[:4] + struct.pack("<I", 2**31) + b[8:]), "InvalidConfig"),
    "checkpoint-huge-layer-count": (_huge_layer_count, "InvalidConfig"),
    "extend-huge-target": (_huge_extend_target, "TooManyFrames"),
    "stitch-huge-total": (_huge_stitch_total, "PlanMismatch"),
    "run-huge-duration": (_huge_scene_duration, "TooManyFrames"),
    "gen-corpus-huge-frames": (_gen_corpus("2", "1000000000"), "TooManyFrames"),
    # refused before any motion is drawn or written
    "gen-corpus-huge-count": (_gen_corpus("1000000000000", "16"), "InvalidConfig"),
    "rasterize-huge-camera": (_rasterize_on_camera(size=[100000, 100000]), "ShapeMismatch"),
    # a flag that sizes the prior's tensors or a training batch
    "train-pmp-huge-batch": (_train_pmp_with("--batch-size", "1000000000"), "InvalidConfig"),
    "train-pmp-huge-layers": (_train_pmp_with("--layers", "100000000"), "InvalidConfig"),
    "grad-check-huge-layers": (lambda tmp_path, checkpoint: [
        "grad-check", "--layers", "100000000"], "InvalidConfig"),
}
# the value each flag case's error line names
_FLAG_VALUES = {"train-pmp-huge-batch": "1000000000", "train-pmp-huge-layers": "100000000",
                "grad-check-huge-layers": "100000000", "gen-corpus-huge-count": "1000000000000"}


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_input_that_would_exhaust_memory_exits_1_with_a_named_error(
        case, tiny_checkpoint, tmp_path):
    build, name = MEMORY_CASES[case]
    argv = build(tmp_path, tiny_checkpoint)
    before = sorted(tmp_path.rglob("*"))
    proc = run_cli_capped(*argv)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"error [{name}]: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert _FLAG_VALUES.get(case, "") in proc.stderr
    assert sorted(tmp_path.rglob("*")) == before  # the refused command wrote nothing


# ------------------------------------------------------ checkpoint bytes

# eight bytes of a weight: a NaN (quiet, or with every bit set), an infinity,
# a finite value near the float range, or any other bits
_F64_BYTES = (st.sampled_from([struct.pack("<d", v) for v in (math.nan, math.inf, -math.inf,
                                                              1e300, -1e300)] + [b"\xff" * 8])
              | st.binary(min_size=8, max_size=8))


@st.composite
def _mutated_checkpoint(draw, raw: bytes):
    """A valid checkpoint's bytes after one to three edits of its parts: the
    magic, the declared config length, the config JSON (a document near it,
    or raw bytes), the tensors cut short or extended, and eight bytes of a
    tensor set to a NaN, an infinity, a huge value or any other bits. Also
    returns the edited config document, if there is one."""
    (n,) = struct.unpack_from("<I", raw, 4)
    magic, length, cfg, tensors = raw[:4], None, raw[8:8 + n], raw[8 + n:]
    doc = None
    parts = ["magic", "length", "config", "cut", "extend", "bits"]
    for part in draw(st.lists(st.sampled_from(parts), min_size=1, max_size=3, unique=True)):
        if part == "magic":
            magic = draw(st.sampled_from([b"", b"PMP", b"PMP0", b"pmp1", bytes(4)])
                         | st.binary(max_size=5))
        elif part == "length":
            length = draw(st.sampled_from([0, 1, n - 1, n + 1, 2**31, 2**32 - 1])
                          | st.integers(0, 2**32 - 1))
        elif part == "config" and draw(st.booleans()):
            doc = draw(_near(json.loads(cfg)))
            cfg = json.dumps(doc).encode()
        elif part == "config":
            at = draw(st.integers(0, len(cfg)))
            cfg = cfg[:at] + draw(st.binary(max_size=4)) + cfg[at + draw(st.integers(0, 4)):]
        elif part == "cut":
            tensors = tensors[:len(tensors) - draw(st.sampled_from([1, 7, 8, 9, 1024])
                                                   | st.integers(1, len(tensors)))]
        elif part == "extend":
            tensors += draw(st.binary(min_size=1, max_size=16))
        elif tensors:
            at = 8 * draw(st.integers(0, (len(tensors) - 1) // 8))
            tensors = tensors[:at] + draw(_F64_BYTES) + tensors[at + 8:]
    length = len(cfg) if length is None else length
    return magic + struct.pack("<I", length) + cfg + tensors, doc


def _large_config(doc) -> bool:
    """Whether a checkpoint config holds a number of 2**16 or more, such as a
    tensor size or layer count too large to allocate in the test process."""
    if isinstance(doc, dict):
        return any(_large_config(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_large_config(v) for v in doc)
    return isinstance(doc, (int, float)) and not isinstance(doc, bool) and not abs(doc) < 2**16


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_checkpoint_bytes_exit_0_or_name_one_error(data, tiny_checkpoint,
                                                          tmp_path_factory):
    # denoise loads any bytes near a checkpoint: it refines the motion,
    # writing strict JSON, or names one error; a config holding a large
    # number runs in a child with capped memory
    raw, doc = data.draw(_mutated_checkpoint(tiny_checkpoint.read_bytes()))
    d = tmp_path_factory.mktemp("checkpoint")
    (d / "fuzzed.ckpt").write_bytes(raw)
    argv = _denoise(d, d / "fuzzed.ckpt", _motion_doc())
    if _large_config(doc):
        proc = run_cli_capped(*argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = _run_in_process(*argv)
    _assert_exit_0_or_one_named_error(code, err)
    if code == 0:
        _strict_json((d / "out.json").read_text())
