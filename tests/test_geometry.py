"""Box geometry against an independent rectangle-overlap oracle."""

import re

import numpy as np
import pytest

from focalcir.errors import ContractError
from focalcir.geometry import (
    center_inside,
    iou,
    patch_center,
    patch_membership,
    perturb_bbox,
    validate_bbox,
)


def iou_oracle(a, b):
    """Closed-form overlap of axis-aligned rectangles, written separately."""
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def test_iou_identity():
    box = (0.2, 0.3, 0.7, 0.9)
    assert iou(box, box) == pytest.approx(1.0, abs=1e-15)


def test_iou_disjoint():
    assert iou((0.0, 0.0, 0.2, 0.2), (0.5, 0.5, 0.9, 0.9)) == 0.0


def test_iou_matches_oracle_on_random_boxes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        def rand_box():
            x0, y0 = rng.uniform(0, 0.7, size=2)
            return (x0, y0, x0 + rng.uniform(0.05, 0.3), y0 + rng.uniform(0.05, 0.3))
        a, b = rand_box(), rand_box()
        assert iou(a, b) == pytest.approx(iou_oracle(a, b), abs=1e-12)


def test_scale_hits_target_exactly():
    box = (0.25, 0.25, 0.75, 0.75)
    for seed in range(20):
        got = perturb_bbox(box, "scale", 0.8, np.random.default_rng(seed))
        assert iou(box, got) == pytest.approx(0.8, abs=1e-9)
        # center preserved
        assert (got[0] + got[2]) / 2 == pytest.approx(0.5, abs=1e-12)
        assert (got[1] + got[3]) / 2 == pytest.approx(0.5, abs=1e-12)


def test_scale_shift_within_tolerance_over_many_seeds():
    rng = np.random.default_rng(1)
    for seed in range(100):
        x0, y0 = rng.uniform(0.05, 0.45, size=2)
        box = (x0, y0, x0 + rng.uniform(0.2, 0.4), y0 + rng.uniform(0.2, 0.4))
        for mode, t in (("scale", 0.8), ("scale_shift", 0.5), ("scale_shift", 0.8)):
            got = perturb_bbox(box, mode, t, np.random.default_rng(seed))
            assert abs(iou(box, got) - t) <= 0.02, (mode, t, box)
            validate_bbox(got)  # stays in bounds


def test_scale_shift_moves_center():
    box = (0.3, 0.3, 0.6, 0.6)
    got = perturb_bbox(box, "scale_shift", 0.5, np.random.default_rng(3))
    c_old = ((box[0] + box[2]) / 2, (box[1] + box[3]) / 2)
    c_new = ((got[0] + got[2]) / 2, (got[1] + got[3]) / 2)
    assert abs(c_old[0] - c_new[0]) + abs(c_old[1] - c_new[1]) > 1e-3


def test_infeasible_shift_raises():
    # the full-frame box contains every in-bounds box, so IoU under
    # scale_shift is pinned by the scale stage and no shift can reach 0.2
    named = "no in-bounds perturbation of (0.0, 0.0, 1.0, 1.0) reaches IoU 0.2 in mode scale_shift"
    with pytest.raises(ContractError, match=re.escape(named)):
        perturb_bbox((0.0, 0.0, 1.0, 1.0), "scale_shift", 0.2, np.random.default_rng(0))


def test_bad_target_iou_raises():
    with pytest.raises(ContractError, match=re.escape("target IoU must be in (0, 1], got 0.0")):
        perturb_bbox((0.2, 0.2, 0.5, 0.5), "scale", 0.0, np.random.default_rng(0))
    with pytest.raises(ContractError, match=re.escape("target IoU must be in (0, 1], got 1.5")):
        perturb_bbox((0.2, 0.2, 0.5, 0.5), "scale", 1.5, np.random.default_rng(0))


def test_unknown_mode_raises():
    with pytest.raises(ContractError):
        perturb_bbox((0.2, 0.2, 0.5, 0.5), "rotate", 0.5, np.random.default_rng(0))


def test_invalid_bbox_raises():
    with pytest.raises(ContractError):
        validate_bbox((0.5, 0.2, 0.4, 0.8))


def test_patch_center_rule_is_half_open():
    # grid centers on a 4x4 grid sit at 0.125, 0.375, 0.625, 0.875
    assert patch_center(0, 0, (4, 4)) == (0.125, 0.125)
    assert center_inside((0.0, 0.0, 0.5, 0.5), 0.375, 0.375)
    assert not center_inside((0.0, 0.0, 0.5, 0.5), 0.5, 0.375)  # boundary excluded
    assert center_inside((0.5, 0.0, 1.0, 0.5), 0.5, 0.375)  # but included on the right side


def membership_loop(boxes, grid):
    """Scalar reference: one center_inside call per box and patch."""
    h, w = grid
    return np.array([[bool(center_inside(b, *patch_center(r, c, grid)))
                      for r in range(h) for c in range(w)] for b in boxes], dtype=bool)


def test_patch_membership_matches_scalar_loop_on_random_boxes():
    rng = np.random.default_rng(4)
    for grid in ((4, 4), (3, 5), (8, 8), (1, 6)):
        boxes = []
        for _ in range(60):
            x0, y0 = rng.uniform(0, 0.9, size=2)
            boxes.append((x0, y0, x0 + rng.uniform(0.01, 1.0 - x0), y0 + rng.uniform(0.01, 1.0 - y0)))
        # edges exactly on centers, a full cover, and a box between centers
        boxes += [(0.375, 0.375, 0.625, 0.625), (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.01, 0.01)]
        got = patch_membership(boxes, grid)
        assert got.dtype == bool and got.shape == (len(boxes), grid[0] * grid[1])
        assert np.array_equal(got, membership_loop(boxes, grid))
    # a 4x4 box from center 0.375 to center 0.625 holds exactly patch (1, 1)
    assert np.flatnonzero(patch_membership([(0.375, 0.375, 0.625, 0.625)], (4, 4))).tolist() == [5]


def test_patch_membership_never_raises():
    # empty and reversed boxes give all-False rows; validation is the caller's
    got = patch_membership([(0.9, 0.9, 0.95, 0.95), (0.6, 0.2, 0.4, 0.8)], (4, 4))
    assert got.shape == (2, 16) and not got.any()
    assert patch_membership(np.empty((0, 4)), (3, 5)).shape == (0, 15)
