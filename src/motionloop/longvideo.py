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
    total: int  # padded total length
    padding: int  # frames added beyond the requested length

    @property
    def overlap(self) -> int:
        return self.window - self.stride

    @property
    def starts(self) -> range:
        """First frame of each window; its len() is free for any total."""
        return range(0, self.total - self.window + 1, self.stride)

    @property
    def windows(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, s + self.window) for s in self.starts)


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
    padding = (window - total_len) % stride
    return WindowPlan(window=window, stride=stride, total=total_len + padding,
                      padding=padding)


def blend_weights(overlap: int) -> np.ndarray:
    """Ramp weights for the later clip: j/(L+1), j = 1..L."""
    return np.arange(1, overlap + 1) / (overlap + 1.0)


def _blend(windows: list, plan: WindowPlan, noun: str) -> np.ndarray:
    """Lay the windows end to end in their own dtype. Only the overlaps are
    computed, in float64: out_j = (1 - w_j) * earlier + w_j * later with
    w = blend_weights(L), rounded half to even for integer data."""
    lengths = [len(frames) for frames in windows]
    if len(lengths) != len(plan.starts) or set(lengths) != {plan.window}:
        raise PlanMismatch(f"{noun} lengths {lengths} for {len(plan.starts)} windows "
                           f"of {plan.window} frames")
    first = np.asarray(windows[0][0])
    if any(np.shape(frames[0]) != first.shape for frames in windows):
        raise PlanMismatch(f"{noun} frame shapes differ")
    out = np.empty((plan.total, *first.shape), dtype=first.dtype)
    ramp = blend_weights(plan.overlap).reshape(-1, *(1,) * first.ndim)
    for k, (start, frames) in enumerate(zip(plan.starts, windows)):
        lap = plan.overlap if k else 0
        out[start + lap:start + plan.window] = frames[lap:]
        if lap:
            # the earlier window's tail already sits in out[start:start + lap];
            # equal integers blend to themselves after rounding, so integer
            # data is computed only where the two windows differ
            a, b = out[start:start + lap], np.asarray(frames[:lap])
            d = a != b if out.dtype.kind in "iu" else ...
            w = np.broadcast_to(ramp, a.shape)[d]
            mix = (1.0 - w) * a[d] + w * b[d]
            a[d] = np.rint(mix) if out.dtype.kind in "iu" else mix
    return out


def stitch(clips: list[VideoClip], plan: WindowPlan) -> VideoClip:
    """Cross-fade overlapping window clips into one; pixels round half to even."""
    rates = sorted({clip.fps for clip in clips})
    if len(rates) > 1:
        raise PlanMismatch(f"clip frame rates differ: {rates} fps")
    frames = _blend([clip.frames for clip in clips], plan, "clip")
    return VideoClip(frames, clips[0].fps)


def stitch_motion(seqs: list[MotionSequence], plan: WindowPlan) -> MotionSequence:
    """Same ramped blend applied in parameter space (no rounding)."""
    return seqs[0].with_frames(_blend([seq.frames for seq in seqs], plan, "sequence"))
