from __future__ import annotations

import json
import os
import resource
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import motionloop
from motionloop import fileio
from motionloop.cli import main
from motionloop.core import motion_from_json, motion_to_json
from motionloop.scenes import fixture_scene, scene_to_json
from motionloop.simgen import FINE_CONFIG, generate, synthesize_gt_motion
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


def test_rasterize_command(tmp_path):
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
    files = sorted(out.glob("part_*.pgm"))
    assert len(files) == 6
    assert fileio.read_pgm(files[0]).max() >= 1


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
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fixture": 3, "seed": 7,
                                    "pipeline": {"coarse": {"steps": 20}}}))
    a, b = tmp_path / "a", tmp_path / "b"
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
    assert doc["pipeline"]["coarse"]["steps"] == 20
    assert doc["pipeline"]["pmp_checkpoint"] == str(tiny_checkpoint.resolve())


def test_library_run_replays_from_its_run_json(tiny_checkpoint, tmp_path):
    # a generator field the CLI never sets still reaches run.json: a weaker
    # coarse corruption changes the coarse clip, and the replay matches it
    from motionloop.pipeline import PipelineConfig, UserCondition, run_pipeline
    from motionloop.pmp import load_checkpoint
    from motionloop.simgen import COARSE_CONFIG

    coarse = replace(COARSE_CONFIG, condition_fidelity=(
        (0.0, 0.5), (0.5, 0.2), (1.0, 0.01)))
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
    fileio.write_pgm(clip / "frame_0001.pgm", np.full((6, 8), 300), maxval=65535)


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


def _extract_cropped_clip(tmp_path, checkpoint):
    """extract on the left half of a clip of the scene: same height, half
    the width, so no camera scale fits it."""
    scene = fixture_scene(2, duration=8)
    clip, _ = generate(scene, ConditionMode.EMPTY, FINE_CONFIG, seed=5)
    w = clip.resolution[0] // 2
    fileio.write_clip(tmp_path / "clip", [f[:, :w] for f in clip.frames], clip.fps)
    (tmp_path / "scene.json").write_text(scene_to_json(scene))
    return ["extract", "--clip", str(tmp_path / "clip"), "--scene",
            str(tmp_path / "scene.json"), "--out", str(tmp_path / "motions.json")]


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


def _bad_corpus(index_text):
    def argv(tmp_path, checkpoint):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "index.json").write_text(index_text)
        return ["train-pmp", "--corpus", str(corpus), "--out", str(tmp_path / "p.ckpt"),
                "--steps", "1", "--layers", "1"]
    return argv


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


BOUNDARY_CASES = {
    "checkpoint-trailing-bytes": (_bad_checkpoint(lambda b: b + b"\0"), "InvalidConfig"),
    "checkpoint-unknown-config-key": (_bad_checkpoint(_config_bytes(
        lambda c: json.dumps({**json.loads(c), "dropout": 0.1}).encode())),
        "InvalidConfig"),
    "checkpoint-short-header": (_bad_checkpoint(lambda b: b[:6]), "InvalidConfig"),
    "checkpoint-config-not-json": (_bad_checkpoint(_config_bytes(
        lambda c: b"layers=1")), "InvalidConfig"),
    "checkpoint-config-declares-more-than-the-file": (_bad_checkpoint(_config_bytes(
        lambda c: json.dumps({**json.loads(c), "max_pose_dim": 10**11}).encode())),
        "InvalidConfig"),
    "motion-unknown-category": (_bad_motion(lambda d: d.update(category="Nope")),
                                "DimensionMismatch"),
    "motion-missing-pose-dim": (_bad_motion(lambda d: d.pop("pose_dim")),
                                "DimensionMismatch"),
    "motion-all-nan": (_bad_motion(lambda d: d.update(
        frames=[[float("nan")] * len(row) for row in d["frames"]])),
        "DimensionMismatch"),
    "pgm-short-payload": (_bad_clip(_truncate_second_frame), "ShapeMismatch"),
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
        '{"pipeline": {"fine": {"condition_fidelity": '
        '[[0.0, 1.0], [0.5, NaN], [1.0, 0.02]]}}}'), "InvalidConfig"),
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
    "extract-clip-aspect-differs-from-scene": (_extract_cropped_clip, "ShapeMismatch"),
    "rasterize-motion-not-json": (_rasterize("not json"), "DimensionMismatch"),
    "rasterize-fewer-motions-than-objects": (_rasterize([_motion_doc()], objects=(0, 2)),
                                             "DimensionMismatch"),
    "rasterize-more-motions-than-objects": (_rasterize([_motion_doc()] * 2),
                                            "DimensionMismatch"),
    "rasterize-motion-of-another-category": (_rasterize([_motion_doc()], objects=(1,)),
                                             "DimensionMismatch"),
    "denoise-nan-strength": (_denoise_with_strength("nan"), "InvalidConfig"),
    "denoise-infinite-strength": (_denoise_with_strength("inf"), "InvalidConfig"),
    "gen-corpus-negative-count": (_gen_corpus("-5", "8"), "InvalidConfig"),
    "corpus-index-not-json": (_bad_corpus("not json"), "InvalidConfig"),
    "corpus-index-entry-without-file": (_bad_corpus('[{"tags": ["walk"]}]'),
                                        "InvalidConfig"),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_malformed_input_exits_1_with_a_named_error(case, tiny_checkpoint,
                                                     tmp_path, capsys):
    build, name = BOUNDARY_CASES[case]
    assert run_cli(*build(tmp_path, tiny_checkpoint)) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith(f"error [{name}]: "), err
    assert "Traceback" not in err


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
    "checkpoint-huge-layer-count": (_huge_layer_count, "InvalidConfig"),
    "extend-huge-target": (_huge_extend_target, "TooManyFrames"),
    "stitch-huge-total": (_huge_stitch_total, "PlanMismatch"),
    "run-huge-duration": (_huge_scene_duration, "TooManyFrames"),
    "gen-corpus-huge-frames": (_gen_corpus("2", "1000000000"), "TooManyFrames"),
}


@pytest.mark.parametrize("case", sorted(MEMORY_CASES))
def test_input_that_would_exhaust_memory_exits_1_with_a_named_error(
        case, tiny_checkpoint, tmp_path):
    build, name = MEMORY_CASES[case]
    proc = run_cli_capped(*build(tmp_path, tiny_checkpoint))
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"error [{name}]: "), proc.stderr
    assert "Traceback" not in proc.stderr
