"""Bounding-box geometry: IoU, the patch-center rule, perturbations.

Boxes are (x0, y0, x1, y1) in normalized [0, 1] image coordinates with
x0 < x1 and y0 < y1. A patch "belongs" to a box iff its center lies inside
under the half-open rule x0 <= cx < x1, y0 <= cy < y1. `patch_membership`
is the one place that rule is applied to a patch grid. Its three callers are
the synthetic generator (`benchgen.world._render_pool`), mask construction
(`fusion.region_mask_from_bbox`) and the loader's check that every box covers
a patch center (`benchgen.pipeline._check_references`), so a planted region,
its mask and the boxes a benchmark may hold can never disagree. `in_bounds`
is the one statement of the bounds rule.
"""

from __future__ import annotations

import math

import numpy as np

from focalcir.errors import ContractError

BBox = tuple[float, float, float, float]


def in_bounds(bbox: BBox) -> bool:
    """0 <= x0 < x1 <= 1 and likewise for y; NaN and infinities fail it."""
    x0, y0, x1, y1 = bbox
    return 0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0


def validate_bbox(bbox: BBox) -> None:
    if not in_bounds(bbox):
        raise ContractError(f"bbox must satisfy 0 <= x0 < x1 <= 1 and likewise for y, got {bbox}")


def patch_center(row, col, grid: tuple[int, int]):
    """Center of grid cell (row, col) for an h x w patch grid.

    row and col may be ints or numpy index arrays; arrays give arrays."""
    h, w = grid
    return ((col + 0.5) / w, (row + 0.5) / h)


def center_inside(bbox: BBox, cx, cy):
    """The half-open containment rule, elementwise when cx, cy are arrays."""
    x0, y0, x1, y1 = bbox
    return (x0 <= cx) & (cx < x1) & (y0 <= cy) & (cy < y1)


def patch_membership(boxes, grid: tuple[int, int]) -> np.ndarray:
    """(B, h*w) bool: patch k (raster order) of an h x w grid belongs to box b.

    `boxes` is a sequence of B boxes (or a (B, 4) array). One vectorised
    `center_inside` test covers every box; nothing is validated and nothing
    raises, so a box that covers no center gives an all-False row."""
    h, w = grid
    cx, cy = patch_center(np.arange(h)[:, None], np.arange(w)[None, :], grid)
    corners = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T[:, :, None, None]
    return center_inside(corners, cx, cy).reshape(-1, h * w)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    iy = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0.0 else 0.0


def _scaled_about_center(bbox: BBox, s: float) -> BBox:
    if s == 1.0:  # exact identity; center arithmetic would round
        return bbox
    x0, y0, x1, y1 = bbox
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    hw, hh = (x1 - x0) / 2.0 * s, (y1 - y0) / 2.0 * s
    return (cx - hw, cy - hh, cx + hw, cy + hh)


def _scale_to_iou(bbox: BBox, target_iou: float, rng: np.random.Generator) -> BBox:
    # shrinking by sqrt(t) gives IoU exactly t (new box inside old);
    # growing by 1/sqrt(t) does the same when it stays in bounds
    shrink = _scaled_about_center(bbox, math.sqrt(target_iou))
    grow = _scaled_about_center(bbox, 1.0 / math.sqrt(target_iou))
    if in_bounds(grow) and rng.random() < 0.5:
        return grow
    return shrink


def perturb_bbox(bbox: BBox, mode: str, target_iou: float, rng: np.random.Generator) -> BBox:
    """Perturbed copy of bbox with IoU(original, result) ~= target_iou.

    mode "scale" rescales about the center (exact IoU); mode "scale_shift"
    also offsets the center along a random direction, landing within +-0.02
    of the target, drawing from the caller's generator rng. Raises
    ContractError when no in-bounds box can meet the target.
    """
    validate_bbox(bbox)
    if not (0.0 < target_iou <= 1.0):
        raise ContractError(f"target IoU must be in (0, 1], got {target_iou}")
    if mode == "scale":
        return _scale_to_iou(bbox, target_iou, rng)
    if mode != "scale_shift":
        raise ContractError(f"unknown perturbation mode {mode!r}")

    # scale part way, then shift the rest of the distance down to the target
    mid = (1.0 + target_iou) / 2.0
    scaled = _scale_to_iou(bbox, mid, rng)
    if target_iou >= 1.0:
        return scaled
    x0, y0, x1, y1 = scaled
    start_angle = rng.uniform(0.0, 2.0 * math.pi)
    for attempt in range(8):
        ang = start_angle + attempt * (math.pi / 4.0)
        dx, dy = math.cos(ang), math.sin(ang)
        # largest in-bounds displacement along this direction
        d_max = math.inf
        if dx > 0:
            d_max = min(d_max, (1.0 - x1) / dx)
        elif dx < 0:
            d_max = min(d_max, x0 / -dx)
        if dy > 0:
            d_max = min(d_max, (1.0 - y1) / dy)
        elif dy < 0:
            d_max = min(d_max, y0 / -dy)
        if not math.isfinite(d_max) or d_max <= 0.0:
            continue

        def shifted(d: float) -> BBox:
            return (x0 + d * dx, y0 + d * dy, x1 + d * dx, y1 + d * dy)

        if iou(bbox, shifted(d_max)) > target_iou + 0.02:
            continue  # even the farthest in-bounds shift keeps IoU too high
        lo, hi = 0.0, d_max
        for _ in range(80):
            d = (lo + hi) / 2.0
            if iou(bbox, shifted(d)) > target_iou:
                lo = d
            else:
                hi = d
        cand = shifted((lo + hi) / 2.0)
        if abs(iou(bbox, cand) - target_iou) <= 0.02 and in_bounds(cand):
            return cand
    raise ContractError(
        f"no in-bounds perturbation of {bbox} reaches IoU {target_iou} in mode {mode}"
    )
