"""CanonicalCoords — the shared intermediate of every BUILD (write side).

The paper benchmarks five BUILD algorithms on the *same* unsorted
coordinate buffer, yet each of them re-derives the same prerequisites:
the row-major linear addresses (LINEAR, GCSR++/GCSC++ fold, COO-SORTED),
a stable sort by those addresses (COO-SORTED, CSF with the identity
dimension permutation), and the duplicate-run structure (store-level
dedup).  Chou et al.'s format-abstraction line of work expresses formats
as assemblers over one shared coordinate intermediate; this module is
that intermediate for our BUILD/READ contract.

Every derived artifact is computed lazily, exactly once, and cached on
the instance, so ``encode_all`` over N formats pays for linearize + sort
once instead of N times.  Observability:

``build.canonical.linearize``
    linearize passes actually computed,
``build.canonical.sorts``
    stable sorts actually computed (address argsorts and permuted-order
    sorts alike),
``build.canonical.dedup_runs``
    duplicate-run computations,
``build.canonical.reuse``
    cache hits — a request for an artifact that was already computed.

Duplicate policy
----------------
The **central duplicate-coordinate policy** of the codebase lives here:

``DUPLICATE_POLICY = "last"`` — when the same coordinate appears more
than once in one input buffer, the *last* occurrence in input order
wins.  This matches overwrite semantics of repeated writes
(:meth:`SparseTensor.deduplicated` with ``keep="last"``, fragment-store
newest-wins merges) and, since this PR, every format READ: a query for a
duplicated coordinate returns the value written last.  Formats never
drop duplicates on their own — deduplication is an explicit
:meth:`CanonicalCoords.dedup_selection` / store-level step — but when a
payload does carry duplicates, all read paths agree on the winner.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.boundary import Box, extract_boundary
from ..core.dtypes import as_index_array, fits_index_dtype
from ..core.errors import ShapeError
from ..core.linearize import (
    DEFAULT_ADDRESS_ORDER,
    delinearize_order,
    fits_addr_order,
    linearize,
    linearize_order,
    validate_addr_order,
)
from ..core.sorting import lexsort_rows, stable_argsort, segment_boundaries
from ..obs import counter_add

#: The codebase-wide resolution rule for duplicate coordinates in one
#: buffer: the last occurrence in input order wins (newest write).
DUPLICATE_POLICY = "last"


class CanonicalCoords:
    """One input buffer's canonical form: lazy, cached build prerequisites.

    Construct via :meth:`from_coords` (the paper's input contract — an
    unsorted ``(n, d)`` coordinate buffer) or :meth:`from_addresses`
    (payload-to-payload paths that never materialized coordinates).
    Either representation derives the other on demand, so a LINEAR
    payload can be converted without ever delinearizing and a COO buffer
    can be encoded into every format with a single linearize pass.

    Instances are immutable views plus caches; they never mutate the
    buffers they were given.
    """

    def __init__(
        self,
        shape: Sequence[int],
        *,
        coords: np.ndarray | None = None,
        addresses: np.ndarray | None = None,
        sort_perm: np.ndarray | None = None,
        sorted_addresses: np.ndarray | None = None,
        addr_order: str = DEFAULT_ADDRESS_ORDER,
    ):
        self.shape = tuple(int(m) for m in shape)
        self.addr_order = validate_addr_order(addr_order)
        if coords is None and addresses is None:
            raise ShapeError(
                "CanonicalCoords needs coords or addresses"
            )
        self._coords = coords
        self._addresses = addresses
        self._sort_perm = sort_perm
        self._sorted_addresses = sorted_addresses
        self._runs: tuple[np.ndarray, np.ndarray] | None = None
        self._sorted_coords: np.ndarray | None = None
        self._bbox: Box | None = None
        if coords is not None:
            self._n = int(coords.shape[0])
        else:
            self._n = int(addresses.shape[0])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_coords(
        cls,
        coords: np.ndarray,
        shape: Sequence[int],
        *,
        addr_order: str = DEFAULT_ADDRESS_ORDER,
    ) -> "CanonicalCoords":
        """Wrap an unsorted ``(n, d)`` coordinate buffer."""
        coords = as_index_array(coords)
        if coords.ndim != 2:
            raise ShapeError(f"coords must be (n, d); got {coords.shape}")
        if coords.shape[1] != len(shape):
            raise ShapeError(
                f"coords have {coords.shape[1]} dims, shape has {len(shape)}"
            )
        return cls(shape, coords=coords, addr_order=addr_order)

    @classmethod
    def from_addresses(
        cls,
        addresses: np.ndarray,
        shape: Sequence[int],
        *,
        is_sorted: bool = False,
        sort_perm: np.ndarray | None = None,
        sorted_addresses: np.ndarray | None = None,
        addr_order: str = DEFAULT_ADDRESS_ORDER,
    ) -> "CanonicalCoords":
        """Wrap a linear-address vector; coordinates derive lazily.

        ``is_sorted=True`` declares the vector already ascending, so the
        sort permutation is the identity and no sort is ever paid.
        Alternatively a caller that *knows* the sort permutation (the
        merge path does — concatenating sorted runs determines it
        without a comparison sort) can pass ``sort_perm`` /
        ``sorted_addresses`` directly.
        """
        addresses = as_index_array(addresses)
        if addresses.ndim != 1:
            raise ShapeError("addresses must be 1D")
        if is_sorted:
            if sort_perm is not None or sorted_addresses is not None:
                raise ShapeError(
                    "pass either is_sorted or explicit sort_perm, not both"
                )
            sort_perm = np.arange(addresses.shape[0], dtype=np.intp)
            sorted_addresses = addresses
        return cls(
            shape,
            addresses=addresses,
            sort_perm=sort_perm,
            sorted_addresses=sorted_addresses,
            addr_order=addr_order,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of points (duplicates included)."""
        return self._n

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def linearizable(self) -> bool:
        """Whether the shape fits the uint64 address space in this order.

        Row-major checks the cell count; ALTO checks the (stricter)
        interleaved bit budget ``sum(ceil(log2(m_d))) <= 64``.
        """
        return fits_addr_order(self.shape, self.addr_order)

    @property
    def row_major_sorted(self) -> bool:
        """Whether the cached sort artifacts are in row-major address order.

        Consumers that equate "sorted by address" with "sorted
        lexicographically" (CSF's identity-permutation fast path,
        translation-invariant relative rebasing) must gate on this, not
        on :attr:`linearizable`: an ALTO-ordered canonical is perfectly
        linearizable but its sorted order interleaves the modes.
        """
        return self.addr_order == DEFAULT_ADDRESS_ORDER and self.linearizable

    # ------------------------------------------------------------------
    # Lazy artifacts
    # ------------------------------------------------------------------

    @property
    def coords(self) -> np.ndarray:
        """The ``(n, d)`` coordinate buffer (delinearized on demand)."""
        if self._coords is None:
            counter_add("build.canonical.delinearize")
            self._coords = delinearize_order(
                self._addresses, self.shape, self.addr_order, validate=False
            )
        else:
            counter_add("build.canonical.reuse")
        return self._coords

    @property
    def addresses(self) -> np.ndarray:
        """Linear address of every point in this instance's address order.

        Raises :class:`~repro.core.dtypes.IndexOverflowError` when the
        shape is not linearizable — exactly like the formats that need
        addresses do.
        """
        if self._addresses is None:
            counter_add("build.canonical.linearize")
            self._addresses = linearize_order(
                self._coords, self.shape, self.addr_order, validate=False
            )
        else:
            counter_add("build.canonical.reuse")
        return self._addresses

    @property
    def sort_perm(self) -> np.ndarray:
        """Stable gather permutation sorting points by linear address.

        ``addresses[sort_perm]`` is ascending; equal addresses keep input
        order (so the last entry of an equal run is the newest write —
        the anchor of :data:`DUPLICATE_POLICY`).
        """
        if self._sort_perm is None:
            addresses = self.addresses
            counter_add("build.canonical.sorts")
            self._sort_perm = stable_argsort(addresses)
        else:
            counter_add("build.canonical.reuse")
        return self._sort_perm

    def is_sort_perm(self, perm: np.ndarray | None) -> bool:
        """Whether ``perm`` is the cached :attr:`sort_perm` object itself
        (the one permutation several formats can share)."""
        return perm is not None and perm is self._sort_perm

    @property
    def sorted_addresses(self) -> np.ndarray:
        if self._sorted_addresses is None:
            self._sorted_addresses = self.addresses[self.sort_perm]
        else:
            counter_add("build.canonical.reuse")
        return self._sorted_addresses

    @property
    def sorted_coords(self) -> np.ndarray:
        """The ``(n, d)`` coordinates in ascending linear-address order.

        Shared by every consumer of the sorted point order (COO-SORTED's
        payload, CSF's identity-permutation tree input), so the gather is
        paid once per buffer.  When the instance was built from
        addresses, the sorted coordinates come from a sequential
        delinearize of :attr:`sorted_addresses` — bit-identical to the
        gather (delinearize inverts linearize point-wise) and cheaper
        than materializing the unsorted coordinates first.
        """
        if self._sorted_coords is None:
            if self._coords is None:
                counter_add("build.canonical.delinearize")
                self._sorted_coords = delinearize_order(
                    self.sorted_addresses, self.shape, self.addr_order,
                    validate=False,
                )
            else:
                self._sorted_coords = self.coords[self.sort_perm]
        else:
            counter_add("build.canonical.reuse")
        return self._sorted_coords

    @property
    def dedup_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(unique_addresses, run_offsets)`` over the sorted order.

        ``run_offsets`` has a trailing ``n`` entry: duplicate run ``i``
        spans ``sort_perm[run_offsets[i]:run_offsets[i+1]]``.
        """
        if self._runs is None:
            sorted_addresses = self.sorted_addresses
            counter_add("build.canonical.dedup_runs")
            self._runs = segment_boundaries(sorted_addresses)
        else:
            counter_add("build.canonical.reuse")
        return self._runs

    @property
    def n_unique(self) -> int:
        return int(self.dedup_runs[0].shape[0])

    def has_duplicates(self) -> bool:
        return self.n_unique != self.n

    @property
    def bounding_box(self) -> Box:
        """Tight per-dimension extents of the point set."""
        if self._bbox is None:
            self._bbox = extract_boundary(self.coords)
        else:
            counter_add("build.canonical.reuse")
        return self._bbox

    # ------------------------------------------------------------------
    # Derived orderings and selections
    # ------------------------------------------------------------------

    def dedup_selection(self, *, keep: str = DUPLICATE_POLICY) -> np.ndarray:
        """Ascending input indices of the duplicate-run winners.

        Mirrors :meth:`SparseTensor.deduplicated` exactly (same stable
        sort, same winner, same ascending re-ordering), so store-level
        dedup and canonical dedup are bit-identical.
        """
        if self.n == 0:
            return np.empty(0, dtype=np.intp)
        perm = self.sort_perm
        _, offsets = self.dedup_runs
        if keep == "last":
            sel = perm[offsets[1:].astype(np.intp) - 1]
        elif keep == "first":
            sel = perm[offsets[:-1].astype(np.intp)]
        else:
            raise ValueError(f"keep must be 'first' or 'last', got {keep!r}")
        return np.sort(sel)

    def ordering_for_dims(
        self, dim_perm: Sequence[int], permuted_shape: Sequence[int]
    ) -> np.ndarray:
        """Stable lexicographic order of points under a dimension permutation.

        CSF sorts points lexicographically in its (size-sorted) dimension
        order.  For the identity permutation that order *is* the linear
        address order, so the cached :attr:`sort_perm` is reused; any
        other permutation costs one sort — by the permuted linear address
        when it fits uint64 (single-key, cheaper than a d-key lexsort),
        by :func:`lexsort_rows` otherwise.  All three paths are stable
        sorts of the same key order, hence return identical permutations.
        """
        dims = [int(p) for p in dim_perm]
        if dims == list(range(self.d)) and self.row_major_sorted:
            return self.sort_perm
        pcoords = self.coords[:, dims]
        counter_add("build.canonical.sorts")
        if fits_index_dtype(permuted_shape):
            return stable_argsort(
                linearize(pcoords, permuted_shape, validate=False)
            )
        return lexsort_rows(pcoords)

    def rebased(
        self, origin: Sequence[int], shape: Sequence[int]
    ) -> "CanonicalCoords":
        """This point set translated by ``-origin`` into a local box.

        Row-major address order equals lexicographic coordinate order,
        and translation preserves lexicographic order, so the cached
        sort permutation carries over to the rebased copy — relative
        -coordinate fragment writes keep the no-resort fast path.  The
        ALTO interleaving is shape-dependent (the local box compiles its
        own bit masks), so an ALTO instance rebases without the cached
        permutation and re-sorts lazily in the local address space.
        """
        org = as_index_array(list(origin))
        carry = (
            self._sort_perm
            if self.addr_order == DEFAULT_ADDRESS_ORDER
            else None
        )
        rebased = CanonicalCoords(
            shape,
            coords=self.coords - org[np.newaxis, :],
            sort_perm=carry,
            addr_order=self.addr_order,
        )
        return rebased

    def with_order(self, addr_order: str) -> "CanonicalCoords":
        """This point set re-linearized in ``addr_order``.

        Returns ``self`` when the order already matches.  The converted
        instance keeps the same point sequence (so value buffers stay
        aligned) and re-derives addresses and sort artifacts lazily in
        the new order; the stable re-sort preserves the newest-last
        position of duplicate coordinates, so :data:`DUPLICATE_POLICY`
        survives conversion.
        """
        validate_addr_order(addr_order)
        if addr_order == self.addr_order:
            return self
        return CanonicalCoords(
            self.shape, coords=self.coords, addr_order=addr_order
        )
