"""Delta + varint compressed adjacency (the ``"compressed"`` storage mode).

The paper stores the nn subgraph with 64-bit global destination ids — the one
part of the partitioning whose memory the delegate split cannot bound.  This
module compresses exactly the *normal-source* subgraphs (nn and nd): within a
CSR row the column ids are sorted ascending and unique, so each row is stored
as its first column followed by strictly-positive gaps, every value LEB128
varint encoded (7 payload bits per byte, high bit = continuation).  Delegate
rows (dn/dd) stay raw, matching the paper's split: delegates are few, their
adjacency is the hot replicated working set, and their 32-bit local ids are
already compact.

Decoding is vectorized and *lazy*: a traversal super-step only touches the
rows in its frontier (forward) or candidate set (backward), so
:meth:`CompressedCSR.decode_rows` materializes a masked
:class:`~repro.graph.csr.CSRGraph` with only those rows populated and hands it
to the unmodified visit kernels via :class:`DecodingProvider` — a
:class:`~repro.exec.providers.KernelProvider` wrapper, so every backend and
provider (NumPy or Numba) runs bit-identically over compressed storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exec.providers import KernelProvider
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.utils.sets import sorted_unique
from repro.utils.timing import now_s

__all__ = [
    "CompressedCSR",
    "DecodingProvider",
    "compress_csr",
    "varint_encode",
    "varint_sizes",
]

#: Largest value the encoder accepts: 9 varint groups of 7 bits.
_MAX_ENCODABLE = (1 << 63) - 1


def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of every value (vectorized, 1..9 bytes each)."""
    v = np.asarray(values, dtype=np.uint64)
    sizes = np.ones(v.size, dtype=np.int64)
    for k in range(1, 10):
        sizes += v >= (np.uint64(1) << np.uint64(7 * k))
    return sizes


def varint_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode non-negative int64 values into a flat byte stream.

    Returns
    -------
    (payload, sizes):
        ``payload`` is the concatenated ``uint8`` varint stream and
        ``sizes[i]`` the byte length of value ``i`` within it.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    if int(v.min()) < 0:
        raise ValueError("varint_encode requires non-negative values")
    u = v.astype(np.uint64)
    sizes = varint_sizes(u)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    for j in range(int(sizes.max())):
        sel = sizes > j
        byte = ((u[sel] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        byte[(sizes[sel] - 1) > j] |= 0x80
        out[starts[sel] + j] = byte
    return out, sizes


def _varint_decode(buf: np.ndarray) -> np.ndarray:
    """Decode a flat varint byte stream back into int64 values (vectorized).

    Works byte-parallel: continuation bits mark value boundaries, each byte's
    7 payload bits are shifted to their position within their value, and the
    disjoint contributions are summed per value with ``np.add.reduceat``.
    """
    if buf.size == 0:
        return np.zeros(0, dtype=np.int64)
    is_start = np.empty(buf.size, dtype=bool)
    is_start[0] = True
    is_start[1:] = (buf[:-1] & 0x80) == 0
    starts = np.flatnonzero(is_start)
    value_id = np.cumsum(is_start) - 1
    pos = np.arange(buf.size, dtype=np.int64) - starts[value_id]
    contrib = (buf & 0x7F).astype(np.uint64) << (np.uint64(7) * pos.astype(np.uint64))
    return np.add.reduceat(contrib, starts).astype(np.int64)


@dataclass
class CompressedCSR:
    """A CSR whose column stream is stored delta + varint encoded.

    Mirrors the read-side surface of :class:`~repro.graph.csr.CSRGraph` that
    the engine and the bench accounting consume (``num_edges``,
    ``out_degrees``, ``column_dtype``, ``nbytes``); the adjacency itself is
    reached through :meth:`decode_rows`.

    Attributes
    ----------
    payload:
        ``uint8`` varint stream: per row, the first column id raw, then the
        gaps to each following column.
    byte_offsets:
        ``int64`` array of length ``num_rows + 1``; row ``r`` occupies
        ``payload[byte_offsets[r]:byte_offsets[r+1]]``.
    row_offsets:
        Value offsets (identical to the raw CSR's ``row_offsets``), so degree
        queries never touch the payload.
    """

    payload: np.ndarray
    byte_offsets: np.ndarray
    row_offsets: np.ndarray
    num_rows: int
    num_cols: int
    column_dtype: np.dtype
    #: Optional per-edge ``float64`` weights, stored raw in encoded edge
    #: order (per row the columns encode ascending — exactly the raw CSR's
    #: lexsorted order, so the weight stream needs no re-permutation).
    edge_weights: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        """Number of encoded (directed) edges."""
        return int(self.row_offsets[-1]) if self.row_offsets.size else 0

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every row (free: value offsets are stored raw)."""
        return np.diff(self.row_offsets)

    def nbytes(self) -> int:
        """Stored bytes: payload, both offset arrays, and any weight stream."""
        total = int(self.payload.nbytes + self.byte_offsets.nbytes + self.row_offsets.nbytes)
        if self.edge_weights is not None:
            total += int(self.edge_weights.nbytes)
        return total

    def compression_ratio(self) -> float:
        """Raw column bytes divided by payload bytes (1.0 for empty rows)."""
        raw = self.num_edges * np.dtype(self.column_dtype).itemsize
        return raw / self.payload.nbytes if self.payload.nbytes else 1.0

    def decode_rows(self, rows: np.ndarray) -> CSRGraph:
        """Materialize a masked CSR holding only the requested rows.

        The result has the full ``(num_rows, num_cols)`` shape with the
        requested rows' exact neighbour lists and every other row empty, so
        the unmodified forward/backward kernels — which only ever read the
        frontier or candidate rows they are handed — see bit-identical
        adjacency, degrees and ``edges_examined`` accounting.
        """
        rows = sorted_unique(np.asarray(rows, dtype=np.int64))
        empty_w = (
            np.zeros(0, dtype=np.float64) if self.edge_weights is not None else None
        )
        masked = np.zeros(self.num_rows + 1, dtype=np.int64)
        if rows.size == 0:
            return CSRGraph.unchecked(
                masked, np.zeros(0, dtype=self.column_dtype), self.num_rows, self.num_cols,
                edge_weights=empty_w,
            )
        counts = self.row_offsets[rows + 1] - self.row_offsets[rows]
        masked[rows + 1] = counts
        np.cumsum(masked, out=masked)
        live = counts > 0
        rows_nz, counts_nz = rows[live], counts[live]
        if rows_nz.size == 0:
            return CSRGraph.unchecked(
                masked, np.zeros(0, dtype=self.column_dtype), self.num_rows, self.num_cols,
                edge_weights=empty_w,
            )
        byte_counts = self.byte_offsets[rows_nz + 1] - self.byte_offsets[rows_nz]
        total_bytes = int(byte_counts.sum())
        out_starts = np.zeros(rows_nz.size, dtype=np.int64)
        np.cumsum(byte_counts[:-1], out=out_starts[1:])
        span = np.repeat(np.arange(rows_nz.size, dtype=np.int64), byte_counts)
        idx = (
            np.arange(total_bytes, dtype=np.int64)
            - out_starts[span]
            + self.byte_offsets[rows_nz][span]
        )
        values = _varint_decode(np.asarray(self.payload)[idx])
        # Segmented prefix sum turns (first, gap, gap, ...) back into columns.
        cum = np.cumsum(values)
        seg_start = np.zeros(rows_nz.size, dtype=np.int64)
        np.cumsum(counts_nz[:-1], out=seg_start[1:])
        base = cum[seg_start] - values[seg_start]
        columns = (cum - np.repeat(base, counts_nz)).astype(self.column_dtype)
        weights = None
        if self.edge_weights is not None:
            # Weights are stored raw in the same per-row order the columns
            # encode, so a positional gather aligns them with the decode.
            raw_pos = (
                np.arange(columns.size, dtype=np.int64)
                - np.repeat(seg_start, counts_nz)
                + np.repeat(self.row_offsets[rows_nz], counts_nz)
            )
            weights = np.asarray(self.edge_weights)[raw_pos]
        return CSRGraph.unchecked(
            masked, columns, self.num_rows, self.num_cols, edge_weights=weights
        )

    def decode(self) -> CSRGraph:
        """Decode the full adjacency (round-trip testing and export)."""
        return self.decode_rows(np.arange(self.num_rows, dtype=np.int64))


def compress_csr(csr: CSRGraph) -> CompressedCSR:
    """Encode a raw CSR (sorted, duplicate-free rows) into a :class:`CompressedCSR`."""
    if csr.num_cols > _MAX_ENCODABLE:
        raise ValueError("column universe too large for varint encoding")
    ro = np.asarray(csr.row_offsets, dtype=np.int64)
    cols = np.asarray(csr.column_indices, dtype=np.int64)
    lengths = np.diff(ro)
    deltas = np.empty(cols.size, dtype=np.int64)
    if cols.size:
        deltas[0] = cols[0]
        deltas[1:] = cols[1:] - cols[:-1]
        first_positions = ro[:-1][lengths > 0]
        deltas[first_positions] = cols[first_positions]
        if int(deltas.min()) < 0:
            raise ValueError("rows must be sorted ascending with unique columns")
    payload, sizes = varint_encode(deltas)
    byte_cum = np.zeros(cols.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=byte_cum[1:])
    return CompressedCSR(
        payload=payload,
        byte_offsets=byte_cum[ro],
        row_offsets=ro.copy(),
        num_rows=csr.num_rows,
        num_cols=csr.num_cols,
        column_dtype=np.dtype(csr.column_dtype),
        edge_weights=csr.edge_weights,
    )


class DecodingProvider(KernelProvider):
    """Kernel provider wrapper that decodes compressed rows before each visit.

    Wraps any base provider; visit calls whose CSR is a
    :class:`CompressedCSR` first decode exactly the rows the kernel will read
    (the frontier for forward pushes, the candidate set for backward pulls)
    into a masked raw CSR, then delegate.  Every other call passes straight
    through, so raw subgraphs (dn/dd) and all bitmask/filter operations pay
    nothing.  ``name`` mirrors the base provider: the wrapper is a storage
    detail, not a kernels axis — counters and results are identical.
    """

    def __init__(self, base: KernelProvider) -> None:
        self._base = base
        self.name = base.name

    @staticmethod
    def _dense(csr, rows):
        if not isinstance(csr, CompressedCSR):
            return csr
        tracer = get_tracer()
        if not tracer.enabled:
            return csr.decode_rows(rows)
        started = now_s()
        dense = csr.decode_rows(rows)
        tracer.record_span(
            "lazy-decode", cat="storage", start=started, dur=now_s() - started,
            args={"rows": int(len(rows))},
        )
        return dense

    def filter_frontier(self, frontier, out_degrees):
        """Delegate (degree arrays are stored raw in every storage mode)."""
        return self._base.filter_frontier(frontier, out_degrees)

    def forward_visit(self, csr, frontier):
        """Decode the frontier rows, then run the base forward push."""
        return self._base.forward_visit(self._dense(csr, frontier), frontier)

    def weighted_forward_visit(self, csr, frontier):
        """Decode the frontier rows (weights ride along), then delegate."""
        return self._base.weighted_forward_visit(self._dense(csr, frontier), frontier)

    def contrib_visit(self, csr, rows, row_values):
        """Decode the active rows, then run the base contribution scatter."""
        return self._base.contrib_visit(self._dense(csr, rows), rows, row_values)

    def backward_visit(self, reverse_csr, candidates, parent_in_frontier):
        """Decode the candidate rows, then run the base backward pull."""
        return self._base.backward_visit(
            self._dense(reverse_csr, candidates), candidates, parent_in_frontier
        )

    def batched_filter_frontier(self, rows, words, out_degrees):
        """Delegate; no adjacency is touched."""
        return self._base.batched_filter_frontier(rows, words, out_degrees)

    def batched_forward_visit(self, csr, frontier_rows, frontier_words):
        """Decode the frontier rows, then run the base batched push."""
        return self._base.batched_forward_visit(
            self._dense(csr, frontier_rows), frontier_rows, frontier_words
        )

    def batched_backward_visit(self, reverse_csr, candidates, parent_words, wanted_words):
        """Decode the candidate rows, then run the base batched pull."""
        return self._base.batched_backward_visit(
            self._dense(reverse_csr, candidates), candidates, parent_words, wanted_words
        )

    def bitmask_set_many(self, mask, indices):
        """Delegate; bitmasks are storage-independent."""
        return self._base.bitmask_set_many(mask, indices)

    def bitmask_test_many(self, mask, indices):
        """Delegate; bitmasks are storage-independent."""
        return self._base.bitmask_test_many(mask, indices)
