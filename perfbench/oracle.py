"""Brute-force newest-wins reference the benchmark checks every response against.

The oracle keeps the live point set as plain NumPy arrays sorted by
row-major address and uses nothing from the store under test: its own
address arithmetic, its own dedup, its own box filter.  A response that
differs from it in membership, value or row-major order is a failure.
"""

from __future__ import annotations

import numpy as np


class Oracle:
    """Live point set of one logical store, newest write wins."""

    def __init__(self, shape):
        self.shape = tuple(int(m) for m in shape)
        self._strides = np.array(
            [int(np.prod(self.shape[i + 1:])) for i in range(len(self.shape))],
            dtype=np.uint64,
        )
        self.addr = np.empty(0, dtype=np.uint64)
        self.coords = np.empty((0, len(self.shape)), dtype=np.uint64)
        self.values = np.empty(0, dtype=np.float64)

    @property
    def nnz(self) -> int:
        return int(self.addr.shape[0])

    def address(self, coords: np.ndarray) -> np.ndarray:
        return (np.asarray(coords, dtype=np.uint64) * self._strides).sum(
            axis=1, dtype=np.uint64
        )

    def upsert(self, coords: np.ndarray, values: np.ndarray) -> None:
        """Apply one write: later rows beat earlier rows and the old state."""
        addr = self.address(coords)
        values = np.asarray(values, dtype=np.float64)
        # Last occurrence of each address inside the batch.
        rev_unique, rev_first = np.unique(addr[::-1], return_index=True)
        last = addr.shape[0] - 1 - rev_first
        addr, values = rev_unique, values[last]
        pos = np.searchsorted(self.addr, addr)
        inside = pos < self.addr.shape[0]
        hit = np.zeros(addr.shape[0], dtype=bool)
        hit[inside] = self.addr[pos[inside]] == addr[inside]
        self.values[pos[hit]] = values[hit]
        if hit.all():
            return
        new_addr, new_vals = addr[~hit], values[~hit]
        merged = np.concatenate([self.addr, new_addr])
        order = np.argsort(merged, kind="stable")
        self.addr = merged[order]
        self.values = np.concatenate([self.values, new_vals])[order]
        self.coords = self._coords_of(self.addr)

    def _coords_of(self, addr: np.ndarray) -> np.ndarray:
        out = np.empty((addr.shape[0], len(self.shape)), dtype=np.uint64)
        rest = addr.copy()
        for i, stride in enumerate(self._strides):
            out[:, i] = rest // stride
            rest = rest % stride
        return out

    def lookup(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(found, values_of_found)`` for a point query, in query order."""
        addr = self.address(coords)
        pos = np.searchsorted(self.addr, addr)
        inside = pos < self.addr.shape[0]
        found = np.zeros(addr.shape[0], dtype=bool)
        found[inside] = self.addr[pos[inside]] == addr[inside]
        return found, self.values[pos[found]]

    def box(self, origin, size) -> tuple[np.ndarray, np.ndarray]:
        """Every live point in the half-open box, in row-major order."""
        lo = int(origin[0]) * int(self._strides[0])
        hi = (int(origin[0]) + int(size[0])) * int(self._strides[0])
        a, b = np.searchsorted(self.addr, np.array([lo, hi], dtype=np.uint64))
        coords = self.coords[a:b]
        mask = np.ones(coords.shape[0], dtype=bool)
        for i in range(len(self.shape)):
            mask &= coords[:, i] >= origin[i]
            mask &= coords[:, i] < origin[i] + size[i]
        return coords[mask], self.values[a:b][mask]

    def absent_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` uniformly drawn coordinates that hold no live point."""
        out = np.empty((0, len(self.shape)), dtype=np.uint64)
        while out.shape[0] < n:
            cand = np.stack(
                [rng.integers(0, m, size=2 * n, dtype=np.uint64)
                 for m in self.shape],
                axis=1,
            )
            found, _ = self.lookup(cand)
            out = np.concatenate([out, cand[~found]])
        return out[:n]


def points_match(oracle: Oracle, query: np.ndarray, outcome) -> bool:
    found, values = oracle.lookup(query)
    return bool(
        np.array_equal(np.asarray(outcome.found), found)
        and np.array_equal(np.asarray(outcome.values, dtype=np.float64), values)
    )


def box_matches(oracle: Oracle, origin, size, tensor) -> bool:
    coords, values = oracle.box(origin, size)
    return bool(
        np.array_equal(np.asarray(tensor.coords, dtype=np.uint64), coords)
        and np.array_equal(np.asarray(tensor.values, dtype=np.float64), values)
    )
