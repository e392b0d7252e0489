"""Unit tests for repro.core.boundary."""

import numpy as np
import pytest

from repro.core import Box, ShapeError, boundary_shape, extract_boundary, region_box


class TestBox:
    def test_end_and_cells(self):
        box = Box((1, 2), (3, 4))
        assert box.end == (4, 6)
        assert box.n_cells == 12

    def test_empty(self):
        assert Box((0, 0), (0, 5)).is_empty()
        assert not Box((0, 0), (1, 5)).is_empty()

    def test_contains_point(self):
        box = Box((1, 1), (2, 2))
        assert box.contains_point((1, 2))
        assert box.contains_point((2, 2))
        assert not box.contains_point((3, 2))  # half-open
        assert not box.contains_point((0, 1))

    def test_contains_points_vectorized(self):
        box = Box((1, 1), (2, 2))
        pts = np.array([[1, 1], [2, 2], [3, 3], [0, 0]], dtype=np.uint64)
        assert box.contains_points(pts).tolist() == [True, True, False, False]

    def test_intersects(self):
        a = Box((0, 0), (5, 5))
        assert a.intersects(Box((4, 4), (5, 5)))
        assert not a.intersects(Box((5, 5), (5, 5)))  # touching edges
        assert not a.intersects(Box((0, 0), (0, 5)))  # empty never overlaps

    def test_intersection(self):
        a = Box((0, 0), (5, 5))
        b = Box((3, 2), (5, 5))
        inter = a.intersection(b)
        assert inter.origin == (3, 2)
        assert inter.size == (2, 3)

    def test_covers(self):
        a = Box((0, 0), (5, 5))
        assert a.covers(a)
        assert a.covers(Box((1, 2), (4, 3)))
        assert not a.covers(Box((1, 2), (5, 3)))  # one past the end
        assert not a.covers(Box((4, 4), (5, 5)))
        assert a.covers(Box((9, 9), (0, 1)))  # an empty box
        with pytest.raises(ShapeError):
            a.covers(Box((0,), (1,)))

    def test_disjoint_intersection_is_empty(self):
        a = Box((0, 0), (2, 2))
        assert a.intersection(Box((5, 5), (2, 2))).is_empty()

    def test_grid_coords(self):
        box = Box((1, 2), (2, 2))
        grid = box.grid_coords()
        assert grid.tolist() == [[1, 2], [1, 3], [2, 2], [2, 3]]

    def test_grid_coords_empty(self):
        assert Box((0,), (0,)).grid_coords().shape == (0, 1)

    def test_sample_coords_distinct_and_inside(self, rng):
        box = Box((10, 10, 10), (6, 6, 6))
        pts = box.sample_coords(50, rng)
        assert pts.shape == (50, 3)
        assert box.contains_points(pts).all()
        assert np.unique(pts, axis=0).shape[0] == 50

    def test_sample_more_than_cells_clamps(self, rng):
        box = Box((0, 0), (2, 2))
        pts = box.sample_coords(100, rng)
        assert pts.shape == (4, 2)

    def test_sample_from_large_box(self, rng):
        # Exercises the non-materializing sampling path.
        box = Box((0, 0, 0), (1000, 1000, 1000))
        pts = box.sample_coords(64, rng)
        assert pts.shape == (64, 3)
        assert box.contains_points(pts).all()

    def test_corners(self):
        corners = set(Box((0, 0), (2, 3)).iter_corners())
        assert corners == {(0, 0), (1, 0), (0, 2), (1, 2)}

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            Box((0, 0), (1,))

    def test_negative_rejected(self):
        with pytest.raises(ShapeError):
            Box((0,), (-1,))


class TestExtractBoundary:
    def test_simple(self):
        coords = np.array([[2, 5], [7, 3]], dtype=np.uint64)
        box = extract_boundary(coords)
        assert box.origin == (2, 3)
        assert box.size == (6, 3)  # inclusive max -> size max-min+1

    def test_empty(self):
        box = extract_boundary(np.empty((0, 3), dtype=np.uint64))
        assert box.is_empty()

    def test_single_point(self):
        box = extract_boundary(np.array([[4, 4, 4]], dtype=np.uint64))
        assert box.origin == (4, 4, 4)
        assert box.size == (1, 1, 1)

    @pytest.mark.parametrize("n", [3, 64, 65, 1000])
    def test_matches_columnwise_min_max(self, rng, n):
        coords = rng.integers(0, 1 << 40, size=(n, 3)).astype(np.uint64)
        box = extract_boundary(coords)
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        assert box.origin == tuple(int(v) for v in lo)
        assert box.size == tuple(int(h - l + 1) for l, h in zip(lo, hi))

    def test_boundary_shape(self):
        coords = np.array([[2, 5], [7, 3]], dtype=np.uint64)
        assert boundary_shape(coords) == (8, 6)


class TestRegionBox:
    def test_paper_read_region(self):
        # start (m/2, ...), size (m/10, ...) for m=512.
        box = region_box((512, 512, 512), start_frac=0.5, size_frac=0.1)
        assert box.origin == (256, 256, 256)
        assert box.size == (51, 51, 51)

    def test_region_clipped_to_shape(self):
        box = region_box((10,), start_frac=0.9, size_frac=0.5)
        assert box.origin == (9,)
        assert box.size == (1,)

    def test_msp_region(self):
        box = region_box((90, 90), start_frac=1 / 3, size_frac=1 / 3)
        assert box.origin == (30, 30)
        assert box.size == (30, 30)
