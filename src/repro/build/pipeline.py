"""Build-once-encode-many: the staged write-side pipeline.

``encode_all`` is the shape of the paper's Fig 3/4 benchmark loop — one
unsorted input buffer, every format built from it — with the canonical
prerequisites (linearize, stable address sort) computed once and shared
through :class:`~repro.build.canonical.CanonicalCoords` instead of being
recomputed per format.  Payloads are bit-identical to calling each
format's :meth:`~repro.formats.SparseFormat.encode` independently; only
the redundant work disappears.

OpCounter attribution stays per-format: pass ``counters`` and each
format's BUILD charges its own counter exactly as the standalone
faithful path does — the paper's Table III accounting is about what the
algorithm *would* do, which is independent of the cache the production
pipeline reads prerequisites from.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.costmodel import NULL_COUNTER, OpCounter
from ..core.tensor import SparseTensor
from ..formats.base import EncodedTensor
from ..formats.registry import PAPER_FORMATS, resolve_format
from ..obs import span
from .canonical import CanonicalCoords


def encode_all(
    tensor: SparseTensor,
    formats: Sequence = PAPER_FORMATS,
    *,
    counters: Mapping[str, OpCounter] | None = None,
) -> dict[str, EncodedTensor]:
    """Encode one tensor into every requested format, sharing prerequisites.

    Parameters
    ----------
    tensor:
        The input buffer (paper contract: unsorted coordinates + values).
    formats:
        Format names or instances; defaults to the paper's five.
    counters:
        Optional per-format :class:`~repro.core.OpCounter` map (keyed by
        resolved format name) for Table-III-style build accounting.
        Charges are identical to standalone ``build`` calls.

    Returns
    -------
    dict[str, EncodedTensor]
        Resolved format name -> encoded tensor, in input order.
    """
    canon = CanonicalCoords.from_coords(tensor.coords, tensor.shape)
    if canon.row_major_sorted:
        # Shared by several formats: keep the canonical in address form,
        # so the sorted coordinates (COO-SORTED's payload, CSF's tree
        # input) come from a sequential delinearize of the sorted
        # addresses instead of a random gather of (n, d) rows.
        canon = CanonicalCoords.from_addresses(canon.addresses, tensor.shape)
    values = np.asarray(tensor.values)
    out: dict[str, EncodedTensor] = {}
    gather_cache: dict = {}
    with span("build.encode_all") as sp:
        for fmt in formats:
            fmt = resolve_format(fmt)
            counter = NULL_COUNTER
            if counters is not None:
                counter = counters.get(fmt.name, NULL_COUNTER)
            out[fmt.name] = fmt.encode_canonical(
                canon, values, counter=counter, gather_cache=gather_cache
            )
        sp.add_nnz(tensor.nnz * max(1, len(out)))
    return out
