"""Long-motion extension and overlapped clip stitching.

A short motion is grown by interpolation (double the frames), then
extrapolation up to the target, then one refinement pass. Long clips are
produced window by window (default 32-frame windows at stride 24, so
consecutive windows share 8 frames) and cross-faded across each overlap
with a linear ramp whose weights stay strictly inside (0, 1), avoiding
duplicated hard cuts at the overlap borders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MotionSequence, extrapolate, resample
from .errors import PlanMismatch, SequenceTooShort, TooManyFrames, TotalTooShort
from .pmp import Conditioning, PmpModel, pmp_refine
from .simgen import VideoClip

DEFAULT_WINDOW = 32
DEFAULT_STRIDE = 24


@dataclass(frozen=True)
class WindowPlan:
    window: int
    stride: int
    windows: tuple[tuple[int, int], ...]
    total: int  # padded total length
    padding: int  # frames added beyond the requested length

    @property
    def overlap(self) -> int:
        return self.window - self.stride


def extend_motion(seq: MotionSequence, target_len: int, pmp: PmpModel,
                  cond: Conditioning) -> MotionSequence:
    """Interpolate, extrapolate, then refine to reach target_len frames."""
    if seq.frame_count < 2:
        raise SequenceTooShort("extension needs at least 2 frames")
    if target_len < seq.frame_count:
        raise SequenceTooShort("target_len must be >= current length")
    # checked before the motion grows, so a huge target allocates nothing
    if target_len > pmp.config.max_frames:
        raise TooManyFrames(f"{target_len} frames > max_frames {pmp.config.max_frames}")
    out = seq
    if target_len > out.frame_count:
        out = resample(out, min(2 * out.frame_count, target_len))
    if target_len > out.frame_count:
        out = extrapolate(out, target_len - out.frame_count)
    return pmp_refine(pmp, out, cond)


def plan_windows(total_len: int, window: int = DEFAULT_WINDOW,
                 stride: int = DEFAULT_STRIDE) -> WindowPlan:
    """Sliding windows covering [0, total); pads the target up so the last
    window lands flush, recording how many frames were added."""
    if stride < 1 or window < 1 or stride > window:
        raise PlanMismatch("need 1 <= stride <= window")
    if window > 2 * stride:
        raise PlanMismatch("window > 2 * stride would triple-overlap frames")
    if total_len < window:
        raise TotalTooShort(f"total {total_len} < window {window}")
    k = int(np.ceil((total_len - window) / stride))
    padded = window + k * stride
    windows = tuple((i * stride, i * stride + window) for i in range(k + 1))
    return WindowPlan(window=window, stride=stride, windows=windows,
                      total=padded, padding=padded - total_len)


def blend_weights(overlap: int) -> np.ndarray:
    """Ramp weights for the later clip: j/(L+1), j = 1..L."""
    return np.arange(1, overlap + 1) / (overlap + 1.0)


def _blend_grids(grids: list, plan: WindowPlan) -> list[np.ndarray]:
    """Copy windows verbatim, then apply the blend in each pairwise overlap:
    out_j = (1 - w_j) * earlier + w_j * later, w = blend_weights(L)."""
    out: list[np.ndarray | None] = [None] * plan.total
    for (start, end), frames in zip(plan.windows, grids):
        for j in range(plan.window):
            out[start + j] = np.asarray(frames[j], dtype=np.float64)
    weights = blend_weights(plan.overlap)
    for k in range(1, len(plan.windows)):
        s_prev = plan.windows[k - 1][0]
        s_cur = plan.windows[k][0]
        for j, w in enumerate(weights, start=1):
            g = s_cur + j - 1
            earlier = np.asarray(grids[k - 1][g - s_prev], dtype=np.float64)
            later = np.asarray(grids[k][j - 1], dtype=np.float64)
            out[g] = (1.0 - w) * earlier + w * later
    return out


def stitch(clips: list[VideoClip], plan: WindowPlan) -> VideoClip:
    """Cross-fade overlapping windows into one clip.

    Overlap frames mix the earlier and later clip with the linear ramp; all
    other frames are copied verbatim. Pixels round half to even.
    """
    if len(clips) != len(plan.windows):
        raise PlanMismatch(f"{len(clips)} clips for {len(plan.windows)} windows")
    for clip in clips:
        if clip.frame_count != plan.window:
            raise PlanMismatch("every clip must be exactly one window long")
        if clip.resolution != clips[0].resolution:
            raise PlanMismatch("clip resolutions differ")
    blended = _blend_grids([clip.frames for clip in clips], plan)
    frames = tuple(np.rint(g).astype(np.uint8) for g in blended)
    return VideoClip(frames=frames, fps=clips[0].fps,
                     resolution=clips[0].resolution)


def stitch_motion(seqs: list[MotionSequence], plan: WindowPlan) -> MotionSequence:
    """Same ramped blend applied in parameter space (no rounding)."""
    if len(seqs) != len(plan.windows):
        raise PlanMismatch(f"{len(seqs)} sequences for {len(plan.windows)} windows")
    for seq in seqs:
        if seq.frame_count != plan.window:
            raise PlanMismatch("every sequence must be exactly one window long")
    blended = _blend_grids([seq.frames for seq in seqs], plan)
    return seqs[0].with_frames(np.vstack([row[None, :] for row in blended]))
