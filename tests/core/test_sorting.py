"""Unit tests for repro.core.sorting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ShapeError,
    apply_map,
    counts_to_pointer,
    invert_permutation,
    is_permutation,
    lexsort_rows,
    segment_boundaries,
    stable_argsort,
)
from repro.core.sorting import FEW_RUNS, PACK_MIN_KEYS

#: Key dtypes: 32- and 64-bit keys, and uint16 (packed into a uint32
#: word when it fits, else NumPy's radix path).
KEY_DTYPES = (np.int32, np.int64, np.uint32, np.uint64, np.uint16)
#: Sizes around every cut-off of the kernel.
SIZES = (0, 1, 2, PACK_MIN_KEYS - 1, PACK_MIN_KEYS, 3 * PACK_MIN_KEYS)
LAYOUTS = ("sorted", "few_runs", "runs_at_cutoff", "many_runs", "random",
           "narrow", "duplicates", "wide")


def make_keys(dtype, n: int, layout: str, offset: int, seed: int) -> np.ndarray:
    """Keys of one layout, shifted by ``offset`` (negative or near 2**64).

    ``few_runs`` concatenates fewer than ``FEW_RUNS`` sorted runs
    (timsort); ``runs_at_cutoff`` exactly ``FEW_RUNS`` and ``many_runs``
    dozens (the packed sort).  Keys span up to 2**36 (a ``uint64``
    word), ``narrow`` and ``duplicates`` keys fit a ``uint32`` word, and
    ``wide`` keys span the dtype's whole range, so 64-bit keys overflow
    any word.
    """
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    if layout == "wide":
        return rng.integers(info.min, info.max, size=n, dtype=dtype,
                            endpoint=True)
    span = min(info.max - max(offset, info.min), 1 << 36)
    if layout == "narrow":
        span = min(span, 1 << 16)
    elif layout == "duplicates":
        span = 3
    raw = rng.integers(0, span, size=n, dtype=np.uint64)
    if layout == "sorted":
        raw.sort()
    elif layout in ("few_runs", "runs_at_cutoff", "many_runs"):
        runs = {
            "few_runs": FEW_RUNS - 1,
            "runs_at_cutoff": FEW_RUNS,
            "many_runs": 8 * FEW_RUNS,
        }[layout]
        for chunk in np.array_split(raw, runs):
            chunk.sort()
    keys = np.array([offset + int(r) for r in raw], dtype=object)
    return keys.astype(dtype) if n else np.empty(0, dtype=dtype)


def offsets_for(dtype) -> list[int]:
    info = np.iinfo(dtype)
    out = [0]
    if info.min < 0:
        out.append(-(1 << 20) if info.bits > 32 else -(1 << 16))
    if dtype is np.uint64:
        out.append(info.max - (1 << 20))  # near 2**64, narrow span
    return out


class TestStableArgsort:
    def test_sorts(self):
        keys = np.array([3, 1, 2], dtype=np.uint64)
        assert stable_argsort(keys).tolist() == [1, 2, 0]

    def test_stability(self):
        # Equal keys keep input order — required for the GCSR++ map vector.
        keys = np.array([1, 0, 1, 0, 1], dtype=np.uint64)
        assert stable_argsort(keys).tolist() == [1, 3, 0, 2, 4]

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            stable_argsort(np.zeros((2, 2)))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_matches_numpy_every_branch(self, dtype, layout):
        for n in SIZES:
            for offset in offsets_for(dtype):
                keys = make_keys(dtype, n, layout, offset, seed=n)
                expected = np.argsort(keys, kind="stable")
                got = stable_argsort(keys)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (n, offset)

    def test_narrow_keys_too_long_for_a_uint32_word(self):
        # 16-bit keys plus a 17-bit index need 33 bits: NumPy's radix sort.
        keys = np.random.default_rng(5).integers(0, 1 << 16, 70_000)
        keys = keys.astype(np.uint16)
        assert np.array_equal(
            stable_argsort(keys), np.argsort(keys, kind="stable")
        )

    def test_other_dtypes(self):
        rng = np.random.default_rng(3)
        for keys in (rng.random(2000), rng.integers(0, 2, 2000).astype(bool),
                     rng.integers(-100, 100, 2000).astype(np.int8)):
            assert np.array_equal(
                stable_argsort(keys), np.argsort(keys, kind="stable")
            )


@st.composite
def key_vectors(draw):
    dtype = draw(st.sampled_from(KEY_DTYPES))
    n = draw(st.one_of(
        st.sampled_from(SIZES),
        st.integers(min_value=0, max_value=4 * PACK_MIN_KEYS),
    ))
    layout = draw(st.sampled_from(LAYOUTS))
    offset = draw(st.sampled_from(offsets_for(dtype)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return make_keys(dtype, n, layout, offset, seed)


class TestStableArgsortProperty:
    @settings(max_examples=200, deadline=None)
    @given(key_vectors())
    def test_equals_numpy_stable_argsort(self, keys):
        expected = np.argsort(keys, kind="stable")
        got = stable_argsort(keys)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestLexsortRows:
    def test_dim0_most_significant(self):
        coords = np.array([[1, 0], [0, 5], [0, 2], [1, 1]], dtype=np.uint64)
        perm = lexsort_rows(coords)
        assert coords[perm].tolist() == [[0, 2], [0, 5], [1, 0], [1, 1]]

    def test_matches_linear_order(self, rng):
        from repro.core import linearize

        shape = (9, 8, 7)
        coords = np.column_stack(
            [rng.integers(0, m, size=300, dtype=np.uint64) for m in shape]
        )
        perm = lexsort_rows(coords)
        addr = linearize(coords, shape)
        assert np.array_equal(np.sort(addr), addr[perm])

    def test_single_column(self):
        coords = np.array([[3], [1], [2]], dtype=np.uint64)
        assert lexsort_rows(coords).tolist() == [1, 2, 0]

    def test_empty(self):
        assert lexsort_rows(np.empty((0, 2), dtype=np.uint64)).shape == (0,)


class TestPermutations:
    def test_invert(self, rng):
        perm = rng.permutation(40)
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(40))
        assert np.array_equal(inv[perm], np.arange(40))

    def test_is_permutation(self, rng):
        assert is_permutation(rng.permutation(10))
        assert is_permutation(np.array([], dtype=np.intp))
        assert not is_permutation(np.array([0, 0, 2]))
        assert not is_permutation(np.array([0, 3]))
        assert not is_permutation(np.zeros((2, 2), dtype=np.intp))

    def test_apply_map_none_is_noop(self):
        buf = np.arange(5.0)
        assert apply_map(buf, None) is buf

    def test_apply_map_gathers(self):
        buf = np.array([10.0, 20.0, 30.0])
        perm = np.array([2, 0, 1])
        assert apply_map(buf, perm).tolist() == [30.0, 10.0, 20.0]

    def test_apply_map_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_map(np.arange(3.0), np.array([0, 1]))


class TestPointersAndSegments:
    def test_counts_to_pointer(self):
        ptr = counts_to_pointer(np.array([3, 0, 2]))
        assert ptr.tolist() == [0, 3, 3, 5]

    def test_counts_to_pointer_empty(self):
        assert counts_to_pointer(np.array([], dtype=int)).tolist() == [0]

    def test_segment_boundaries(self):
        keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.uint64)
        uniq, offs = segment_boundaries(keys)
        assert uniq.tolist() == [2, 5, 7]
        assert offs.tolist() == [0, 2, 3, 6]

    def test_segment_boundaries_empty(self):
        uniq, offs = segment_boundaries(np.array([], dtype=np.uint64))
        assert uniq.shape == (0,)
        assert offs.tolist() == [0]
