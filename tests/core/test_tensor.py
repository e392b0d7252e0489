"""Unit tests for repro.core.tensor."""

import numpy as np
import pytest

from repro.core import Box, ShapeError, SparseTensor, from_linear, infer_shape


class TestConstruction:
    def test_from_points(self, fig1_tensor):
        assert fig1_tensor.nnz == 5
        assert fig1_tensor.ndim == 3
        assert fig1_tensor.shape == (3, 3, 3)

    def test_from_dense_round_trip(self, rng):
        dense = np.zeros((6, 7))
        dense[1, 2] = 3.5
        dense[5, 6] = -1.0
        t = SparseTensor.from_dense(dense)
        assert t.nnz == 2
        assert np.array_equal(t.to_dense(), dense)

    def test_empty(self):
        t = SparseTensor.empty((4, 4))
        assert t.nnz == 0
        assert t.density == 0.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ShapeError, match="outside"):
            SparseTensor.from_points((2, 2), [(2, 0)])

    def test_misaligned_values_rejected(self):
        with pytest.raises(ShapeError):
            SparseTensor((2, 2), np.array([[0, 0]], dtype=np.uint64),
                         np.array([1.0, 2.0]))

    def test_coords_must_be_2d(self):
        with pytest.raises(ShapeError):
            SparseTensor((4,), np.array([1, 2], dtype=np.uint64),
                         np.array([1.0, 2.0]))


class TestProperties:
    def test_density(self):
        t = SparseTensor.from_points((10, 10), [(0, 0), (5, 5)])
        assert t.density == pytest.approx(0.02)

    def test_bounding_box(self, fig1_tensor):
        box = fig1_tensor.bounding_box
        assert box.origin == (0, 0, 1)
        assert box.end == (3, 3, 3)

    def test_coord_nbytes(self, fig1_tensor):
        assert fig1_tensor.coord_nbytes() == 5 * 3 * 8


class TestDuplicates:
    def test_detects(self):
        t = SparseTensor.from_points((4, 4), [(1, 1), (1, 1)])
        assert t.has_duplicates()

    def test_clean(self, fig1_tensor):
        assert not fig1_tensor.has_duplicates()

    def test_dedup_keep_last(self):
        t = SparseTensor.from_points((4, 4), [(1, 1), (2, 2), (1, 1)],
                                     [1.0, 2.0, 3.0])
        d = t.deduplicated(keep="last")
        assert d.nnz == 2
        dense = d.to_dense()
        assert dense[1, 1] == 3.0

    def test_dedup_keep_first(self):
        t = SparseTensor.from_points((4, 4), [(1, 1), (2, 2), (1, 1)],
                                     [1.0, 2.0, 3.0])
        d = t.deduplicated(keep="first")
        assert d.to_dense()[1, 1] == 1.0

    @pytest.mark.parametrize("keep", ["first", "last"])
    @pytest.mark.parametrize("shape", [(9, 8, 7), (1 << 40, 1 << 40)])
    def test_dedup_sort_is_one_sort_of_two(self, rng, keep, shape):
        coords = np.column_stack(
            [rng.integers(0, min(m, 6), size=400, dtype=np.uint64)
             for m in shape]
        )
        t = SparseTensor(shape, coords, rng.standard_normal(400))
        got = t.deduplicated(keep=keep, sort=True)
        want = t.deduplicated(keep=keep).sorted_lexicographic()
        assert np.array_equal(got.coords, want.coords)
        assert np.array_equal(got.values, want.values)

    def test_dedup_bad_keep(self, fig1_tensor):
        with pytest.raises(ValueError):
            fig1_tensor.deduplicated(keep="middle")


class TestTransforms:
    def test_sorted_by_linear(self, rng, tensor_3d):
        s = tensor_3d.sorted_by_linear()
        addr = s.linear_addresses()
        assert np.all(addr[1:] >= addr[:-1])
        assert s.same_points(tensor_3d)

    def test_sorted_lexicographic(self, tensor_3d):
        s = tensor_3d.sorted_lexicographic()
        # Lexicographic order == linear-address order for origin tensors.
        assert np.array_equal(
            s.coords, tensor_3d.sorted_by_linear().coords
        )

    def test_select_box(self, fig1_tensor):
        sel = fig1_tensor.select_box(Box((0, 0, 0), (1, 3, 3)))
        assert sel.nnz == 3

    def test_permuted_dims_round_trip(self, tensor_3d):
        p = tensor_3d.permuted_dims([2, 0, 1])
        back = p.permuted_dims([1, 2, 0])
        assert back.shape == tensor_3d.shape
        assert np.array_equal(back.coords, tensor_3d.coords)

    def test_permuted_dims_invalid(self, tensor_3d):
        with pytest.raises(ShapeError):
            tensor_3d.permuted_dims([0, 0, 1])

    def test_to_dense_guard(self):
        t = SparseTensor.empty((1 << 14, 1 << 14))
        with pytest.raises(ShapeError, match="densify"):
            t.to_dense()


class TestHelpers:
    def test_from_linear(self, fig1_tensor):
        addr = fig1_tensor.linear_addresses()
        rebuilt = from_linear(fig1_tensor.shape, addr, fig1_tensor.values)
        assert rebuilt.same_points(fig1_tensor)

    def test_infer_shape(self):
        coords = np.array([[3, 9], [5, 2]], dtype=np.uint64)
        assert infer_shape(coords) == (6, 10)

    def test_same_points_order_insensitive(self, fig1_tensor, rng):
        perm = rng.permutation(fig1_tensor.nnz)
        shuffled = SparseTensor(
            fig1_tensor.shape,
            fig1_tensor.coords[perm],
            fig1_tensor.values[perm],
        )
        assert fig1_tensor.same_points(shuffled)

    def test_same_points_detects_difference(self, fig1_tensor):
        other = SparseTensor.from_points(
            (3, 3, 3), [(0, 0, 1)], [9.0]
        )
        assert not fig1_tensor.same_points(other)
