"""The sparse tensor container shared by every organization.

The paper's input contract (§II-A): "The input of our sparse tensor is
assumed to be an unsorted 1D coordinate vector" plus a value buffer.
:class:`SparseTensor` wraps exactly that — an ``(n, d)`` uint64 coordinate
buffer ``b_coor`` and a length-``n`` value buffer ``b_data`` — together with
the tensor shape, and provides the validation, densification, and
deduplication utilities the generators, formats, and benchmark harness all
share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .boundary import Box, boundary_shape, extract_boundary
from .dtypes import INDEX_DTYPE, as_index_array, cell_count, check_linearizable
from .errors import ShapeError
from .linearize import delinearize, linearize
from .sorting import lexsort_rows, stable_argsort

#: Default value dtype (the paper measures index cost only; values just ride
#: along — we default to float64 samples).
VALUE_DTYPE = np.dtype(np.float64)


@dataclass
class SparseTensor:
    """An unsorted coordinate-list sparse tensor.

    Attributes
    ----------
    shape:
        Extent per dimension, ``(m_1, ..., m_d)``.
    coords:
        ``(n, d)`` uint64 coordinate buffer (``b_coor``), one point per row,
        in arbitrary order.
    values:
        Length-``n`` value buffer (``b_data``), aligned with ``coords``.
    """

    shape: tuple[int, ...]
    coords: np.ndarray
    values: np.ndarray
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.shape = tuple(int(m) for m in self.shape)
        self.coords = as_index_array(self.coords)
        self.values = np.asarray(self.values)
        if self.coords.ndim != 2:
            raise ShapeError("coords must be (n, d)")
        if self.coords.shape[1] != len(self.shape):
            raise ShapeError(
                f"coords have {self.coords.shape[1]} dims, shape has "
                f"{len(self.shape)}"
            )
        if self.values.ndim != 1 or self.values.shape[0] != self.coords.shape[0]:
            raise ShapeError("values must be 1D and aligned with coords")
        self.validate_bounds()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        shape: Sequence[int],
        points: Sequence[Sequence[int]],
        values: Sequence[float] | np.ndarray | None = None,
    ) -> "SparseTensor":
        """Build from a Python list of coordinate tuples (test/demo helper)."""
        coords = np.asarray(points, dtype=INDEX_DTYPE).reshape(len(points), len(shape))
        if values is None:
            vals = np.arange(1, len(points) + 1, dtype=VALUE_DTYPE)
        else:
            vals = np.asarray(values)
        return cls(tuple(shape), coords, vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseTensor":
        """Extract the non-zero cells of a dense array."""
        dense = np.asarray(dense)
        idx = np.nonzero(dense)
        coords = np.stack([as_index_array(i) for i in idx], axis=1)
        return cls(dense.shape, coords, dense[idx].astype(VALUE_DTYPE, copy=False))

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "SparseTensor":
        """A tensor of ``shape`` with zero stored points."""
        d = len(shape)
        return cls(
            tuple(shape),
            np.empty((0, d), dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored (non-empty) points, the paper's ``n``."""
        return int(self.coords.shape[0])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def density(self) -> float:
        """``nnz / prod(shape)`` — Table II's density metric."""
        total = cell_count(self.shape)
        return self.nnz / total if total else 0.0

    @property
    def bounding_box(self) -> Box:
        """Tight bounding box of the stored points (the paper's ``s_l``)."""
        return extract_boundary(self.coords)

    def coord_nbytes(self) -> int:
        """Raw COO index footprint, ``n * d * 8`` bytes."""
        return int(self.coords.size) * self.coords.dtype.itemsize

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate_bounds(self) -> None:
        """Ensure every coordinate lies inside ``shape``."""
        if self._validated or self.nnz == 0:
            self._validated = True
            return
        bounds = as_index_array(list(self.shape))
        if np.any(self.coords >= bounds[np.newaxis, :]):
            mask = np.any(self.coords >= bounds[np.newaxis, :], axis=1)
            bad = int(np.argmax(mask))
            raise ShapeError(
                f"point {tuple(int(c) for c in self.coords[bad])} outside "
                f"shape {self.shape}"
            )
        self._validated = True

    def has_duplicates(self) -> bool:
        """Whether any coordinate appears more than once."""
        if self.nnz < 2:
            return False
        check_linearizable(self.shape)
        addr = self.linear_addresses()
        uniq = np.unique(addr)
        return uniq.shape[0] != addr.shape[0]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def linear_addresses(self, *, order: str = "row") -> np.ndarray:
        """Row-major linear address of every stored point."""
        return linearize(self.coords, self.shape, order=order, validate=False)

    def sorted_by_linear(self) -> "SparseTensor":
        """A copy with points sorted by row-major linear address.

        The benchmark READ returns results in this order (Algorithm 3
        line 12), so tests compare against it.
        """
        perm = stable_argsort(self.linear_addresses())
        return self._gathered(perm)

    def sorted_lexicographic(self) -> "SparseTensor":
        """A copy with points sorted lexicographically by coordinates."""
        perm = lexsort_rows(self.coords)
        return self._gathered(perm)

    def deduplicated(
        self, *, keep: str = "last", sort: bool = False
    ) -> "SparseTensor":
        """A copy with duplicate coordinates collapsed.

        ``keep="last"`` mimics overwrite semantics of repeated writes;
        ``keep="first"`` keeps the earliest occurrence.  Shapes whose cell
        count overflows uint64 are grouped lexicographically instead of by
        linear address (same result, no overflow).

        The survivors keep their input order; with ``sort=True`` they come
        back in row-major order instead, taken from the grouping sort —
        the same tensor as ``deduplicated(keep=keep).sorted_by_linear()``
        for one sort instead of two.
        """
        if self.nnz == 0:
            return self
        from .dtypes import fits_index_dtype

        if fits_index_dtype(self.shape):
            addr = self.linear_addresses()
            order = stable_argsort(addr)
            sorted_addr = addr[order]
            neq = sorted_addr[1:] != sorted_addr[:-1]
        else:
            order = lexsort_rows(self.coords)
            sorted_coords = self.coords[order]
            neq = np.any(sorted_coords[1:] != sorted_coords[:-1], axis=1)
        is_first = np.empty(self.nnz, dtype=bool)
        is_first[0] = True
        is_first[1:] = neq
        if keep == "first":
            sel = order[is_first]
        elif keep == "last":
            is_last = np.empty(self.nnz, dtype=bool)
            is_last[-1] = True
            is_last[:-1] = neq
            sel = order[is_last]
        else:
            raise ValueError(f"keep must be 'first' or 'last', got {keep!r}")
        if not sort:
            sel = np.sort(sel)
        return self._gathered(sel)

    def _gathered(self, rows: np.ndarray) -> "SparseTensor":
        """The points at ``rows``, in that order."""
        # ``take`` along axis 0 copies whole rows; plain fancy indexing of
        # an (n, d) array is several times slower.
        return SparseTensor(
            self.shape, np.take(self.coords, rows, axis=0), self.values[rows]
        )

    def to_dense(self) -> np.ndarray:
        """Materialize a dense array (small tensors only).

        Raises
        ------
        ShapeError
            When the dense form would exceed ~2^26 cells (guard against
            accidentally densifying benchmark-scale tensors).
        """
        total = cell_count(self.shape)
        if total > (1 << 26):
            raise ShapeError(
                f"refusing to densify {total} cells; use sparse access paths"
            )
        out = np.zeros(self.shape, dtype=self.values.dtype)
        if self.nnz:
            out[tuple(self.coords[:, i] for i in range(self.ndim))] = self.values
        return out

    def select_box(self, box: Box) -> "SparseTensor":
        """The stored points falling inside ``box`` (order preserved)."""
        mask = box.contains_points(self.coords) if self.nnz else np.zeros(0, bool)
        return SparseTensor(self.shape, self.coords[mask], self.values[mask])

    def permuted_dims(self, perm: Sequence[int]) -> "SparseTensor":
        """Reorder tensor dimensions (used by CSF's dimension sorting)."""
        perm = list(perm)
        if sorted(perm) != list(range(self.ndim)):
            raise ShapeError(f"invalid dimension permutation {perm}")
        new_shape = tuple(self.shape[p] for p in perm)
        return SparseTensor(new_shape, self.coords[:, perm], self.values)

    # ------------------------------------------------------------------
    # Comparison helpers (tests)
    # ------------------------------------------------------------------

    def same_points(self, other: "SparseTensor") -> bool:
        """Set-equality of (coordinate, value) pairs, ignoring order."""
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        a = self.sorted_by_linear()
        b = other.sorted_by_linear()
        return bool(
            np.array_equal(a.coords, b.coords) and np.allclose(a.values, b.values)
        )


def random_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard value buffer for generated datasets."""
    return rng.standard_normal(n).astype(VALUE_DTYPE)


def from_linear(
    shape: Sequence[int], addresses: np.ndarray, values: np.ndarray
) -> SparseTensor:
    """Rebuild a tensor from linear addresses (inverse of linearization)."""
    coords = delinearize(as_index_array(addresses), shape)
    return SparseTensor(tuple(shape), coords, values)


def infer_shape(coords: np.ndarray) -> tuple[int, ...]:
    """Tight origin-anchored shape covering ``coords`` (boundary shape)."""
    return boundary_shape(coords)
