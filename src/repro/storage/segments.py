"""Memory-mapped graph stores: one segment file + a JSON manifest.

A *store* is a directory holding the complete partitioned graph as flat
binary arrays in a single ``graph.bin`` segment (every array 8-byte aligned,
the same packing discipline :class:`repro.exec.shm.SharedGraphStore` uses for
its POSIX shared-memory segment) plus a ``manifest.json`` naming each array's
offset, dtype and shape alongside the partitioning metadata (layout,
threshold, census, per-GPU subgraph shapes).

Loading attaches the file once with ``mmap`` and exposes every array as a
zero-copy :func:`numpy.frombuffer` view, so the Inline and Thread backends
traverse straight out of the page cache; the Process backend ships the same
offsets to its workers as a ``file://`` segment descriptor through the
existing attach/LRU cache in :mod:`repro.exec.shm`.  Compressed stores keep
the nn/nd column streams as varint payloads (:mod:`repro.storage.codec`);
dn/dd and every offset/degree/separation array stay raw in both modes.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.partition.delegates import DegreeSeparation, EdgeCategoryCensus
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import GPUPartition, PartitionedGraph
from repro.storage.codec import CompressedCSR, compress_csr

__all__ = [
    "MANIFEST_NAME",
    "SEGMENT_NAME",
    "SCHEMA",
    "SCHEMA_VERSION",
    "SCHEMA_VERSION_WEIGHTED",
    "SUPPORTED_VERSIONS",
    "SegmentWriter",
    "StoreHandle",
    "StoreIntegrityError",
    "open_store",
    "save_graph_store",
    "load_graph_store",
    "store_graph_descriptor",
]

MANIFEST_NAME = "manifest.json"
SEGMENT_NAME = "graph.bin"
SCHEMA = "repro.storage"
SCHEMA_VERSION = 1
#: Weighted stores carry per-edge weight arrays older readers cannot see;
#: they are written as version 2 so a weight-ignorant build fails with a
#: clear versioned error instead of silently traversing an unweighted view.
#: Unweighted stores stay version 1, byte-identical to earlier builds.
SCHEMA_VERSION_WEIGHTED = 2
SUPPORTED_VERSIONS = (SCHEMA_VERSION, SCHEMA_VERSION_WEIGHTED)

#: The four per-GPU subgraphs, in their fixed on-disk order.
CSR_KEYS = ("nn", "nd", "dn", "dd")
#: Subgraphs with normal-vertex source rows — the only ones ever compressed.
COMPRESSIBLE = ("nn", "nd")

_ALIGN = 8


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class SegmentWriter:
    """Append-only writer for a store's ``graph.bin`` segment.

    Arrays are written sequentially (8-byte aligned) and recorded in the
    manifest table; :meth:`append_blocks` streams an array of unknown final
    length from an iterator of blocks, which is how the out-of-core build
    writes column streams without ever materializing them.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.directory / SEGMENT_NAME, "wb")
        self._offset = 0
        self.arrays: dict[str, dict] = {}

    def _pad(self) -> None:
        aligned = _align(self._offset)
        if aligned != self._offset:
            self._fh.write(b"\x00" * (aligned - self._offset))
            self._offset = aligned

    def add(self, name: str, array: np.ndarray) -> None:
        """Write one in-memory array and record it in the manifest table."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already written")
        arr = np.ascontiguousarray(array)
        self._pad()
        entry = {
            "offset": self._offset,
            "dtype": arr.dtype.name,
            "shape": list(arr.shape),
        }
        self._fh.write(arr.tobytes())
        self._offset += arr.nbytes
        self.arrays[name] = entry

    def append_blocks(self, name: str, dtype, blocks) -> int:
        """Stream an array from ``blocks`` (an iterable of 1-D chunks).

        Returns the total element count; only one block is resident at a
        time, so the writer's memory stays bounded by the block size.
        """
        if name in self.arrays:
            raise ValueError(f"array {name!r} already written")
        dtype = np.dtype(dtype)
        self._pad()
        offset = self._offset
        count = 0
        for block in blocks:
            arr = np.ascontiguousarray(block, dtype=dtype)
            self._fh.write(arr.tobytes())
            self._offset += arr.nbytes
            count += arr.size
        self.arrays[name] = {"offset": offset, "dtype": dtype.name, "shape": [count]}
        return count

    def finish(self, metadata: dict, version: int = SCHEMA_VERSION) -> None:
        """Close the segment and write ``manifest.json``."""
        self._fh.close()
        manifest = {
            "schema": SCHEMA,
            "version": int(version),
            "arrays": self.arrays,
        }
        manifest.update(metadata)
        path = self.directory / MANIFEST_NAME
        with path.open("w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")


class StoreIntegrityError(ValueError):
    """A store's segment file does not match what its manifest records."""


def _segment_extent(arrays: dict) -> int:
    """Bytes ``graph.bin`` must hold: the end of the last array the manifest
    records (the writer leaves no trailing padding)."""
    end = 0
    for entry in arrays.values():
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        end = max(end, int(entry["offset"]) + count * np.dtype(entry["dtype"]).itemsize)
    return end


class StoreHandle:
    """An attached store: the manifest plus one long-lived read-only mmap."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"{self.directory} is not a graph store (no {MANIFEST_NAME})")
        with get_tracer().span("mmap-attach", cat="storage") as span:
            with manifest_path.open("r", encoding="utf-8") as fh:
                self.manifest = json.load(fh)
            if self.manifest.get("schema") != SCHEMA:
                raise ValueError(f"{manifest_path} has schema {self.manifest.get('schema')!r}")
            if self.manifest.get("version") not in SUPPORTED_VERSIONS:
                raise ValueError(
                    f"unsupported store version {self.manifest.get('version')!r} "
                    f"(this build reads versions {SUPPORTED_VERSIONS})"
                )
            self.segment_path = self.directory / SEGMENT_NAME
            self._file = open(self.segment_path, "rb")
            size = os.fstat(self._file.fileno()).st_size
            expected = _segment_extent(self.manifest["arrays"])
            if size != expected:
                self._file.close()
                raise StoreIntegrityError(
                    f"{self.segment_path}: segment holds {size} bytes but the "
                    f"manifest records {expected} (truncated or corrupted store)"
                )
            self._mm = (
                mmap.mmap(self._file.fileno(), size, access=mmap.ACCESS_READ) if size else None
            )
            span.annotate(store=str(self.directory), bytes=size)

    def array(self, name: str) -> np.ndarray:
        """Zero-copy view of a named array in the segment."""
        entry = self.manifest["arrays"][name]
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        if count == 0:
            return np.zeros(shape, dtype=entry["dtype"])
        return np.frombuffer(
            self._mm, dtype=entry["dtype"], count=count, offset=entry["offset"]
        ).reshape(shape)

    def array_offset(self, name: str) -> int:
        """Byte offset of a named array within ``graph.bin``."""
        return int(self.manifest["arrays"][name]["offset"])

    def close(self) -> None:
        """Release the mapping (views created earlier keep it alive)."""
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                pass
            self._mm = None
        self._file.close()


#: Attached stores by resolved path: loads of the same store share one mmap,
#: and the handle stays alive as long as the process (views reference it).
_HANDLES: dict[str, StoreHandle] = {}


def open_store(directory: str | Path) -> StoreHandle:
    """Attach a store directory (cached: one mmap per store per process)."""
    key = str(Path(directory).resolve())
    handle = _HANDLES.get(key)
    if handle is None:
        handle = StoreHandle(key)
        _HANDLES[key] = handle
    return handle


def _census_metadata(census: EdgeCategoryCensus) -> dict:
    return {
        "threshold": census.threshold,
        "num_vertices": census.num_vertices,
        "num_edges": census.num_edges,
        "num_delegates": census.num_delegates,
        "nn_edges": census.nn_edges,
        "nd_edges": census.nd_edges,
        "dn_edges": census.dn_edges,
        "dd_edges": census.dd_edges,
    }


def _csr_meta(name: str, csr) -> dict:
    meta = {
        "num_rows": int(csr.num_rows),
        "num_cols": int(csr.num_cols),
        "num_edges": int(csr.num_edges),
        "dtype": np.dtype(csr.column_dtype).name,
        "kind": "compressed" if isinstance(csr, CompressedCSR) else "raw",
    }
    if getattr(csr, "edge_weights", None) is not None:
        meta["weighted"] = True
    return meta


def save_graph_store(
    graph: PartitionedGraph, directory: str | Path, storage: str = "mmap"
) -> Path:
    """Write an in-memory :class:`PartitionedGraph` as a store directory.

    ``storage`` selects the on-disk flavour: ``"mmap"`` keeps every column
    stream raw; ``"compressed"`` varint-encodes the nn/nd streams.  The
    streaming builder (:mod:`repro.storage.extsort`) writes the identical
    format without ever holding the graph in memory; this function is the
    in-memory counterpart used by runtime conversion and round-trip tests.
    """
    if storage not in ("mmap", "compressed"):
        raise ValueError(f"storage must be 'mmap' or 'compressed', got {storage!r}")
    if getattr(graph, "storage", "memory") != "memory":
        raise ValueError("save_graph_store expects an in-memory graph")
    directory = Path(directory)
    writer = SegmentWriter(directory)
    sep = graph.separation
    writer.add("sep.degrees", sep.degrees)
    writer.add("sep.is_delegate", sep.is_delegate)
    writer.add("sep.delegate_vertices", sep.delegate_vertices)
    writer.add("sep.delegate_id_of", sep.delegate_id_of)

    gpus_meta: list[dict] = []
    for g, part in enumerate(graph.gpus):
        csr_meta: dict[str, dict] = {}
        for key in CSR_KEYS:
            csr = getattr(part, key)
            stored = csr
            if storage == "compressed" and key in COMPRESSIBLE:
                stored = compress_csr(csr)
            csr_meta[key] = _csr_meta(key, stored)
            prefix = f"g{g}.{key}"
            writer.add(f"{prefix}.ro", np.asarray(stored.row_offsets, dtype=np.int64))
            if isinstance(stored, CompressedCSR):
                writer.add(f"{prefix}.bo", stored.byte_offsets)
                writer.add(f"{prefix}.pl", stored.payload)
            else:
                writer.add(f"{prefix}.ci", stored.column_indices)
            if getattr(stored, "edge_weights", None) is not None:
                writer.add(
                    f"{prefix}.w", np.asarray(stored.edge_weights, dtype=np.float64)
                )
        writer.add(f"g{g}.local_is_normal", part.local_is_normal)
        writer.add(f"g{g}.nd_source_list", part.nd_source_list)
        writer.add(f"g{g}.dn_source_mask", part.dn_source_mask)
        writer.add(f"g{g}.dd_source_mask", part.dd_source_mask)
        gpus_meta.append({"num_local": int(part.num_local), "csrs": csr_meta})

    writer.finish(
        {
            "storage": storage,
            "layout": graph.layout.notation(),
            "threshold": int(graph.threshold),
            "num_vertices": int(graph.num_vertices),
            "num_directed_edges": int(graph.num_directed_edges),
            "census": _census_metadata(graph.census),
            "gpus": gpus_meta,
        },
        version=SCHEMA_VERSION_WEIGHTED if graph.is_weighted else SCHEMA_VERSION,
    )
    return directory


def _load_csr(handle: StoreHandle, g: int, key: str, meta: dict):
    prefix = f"g{g}.{key}"
    ro = handle.array(f"{prefix}.ro")
    weights = handle.array(f"{prefix}.w") if meta.get("weighted") else None
    if meta["kind"] == "compressed":
        return CompressedCSR(
            payload=handle.array(f"{prefix}.pl"),
            byte_offsets=handle.array(f"{prefix}.bo"),
            row_offsets=ro,
            num_rows=meta["num_rows"],
            num_cols=meta["num_cols"],
            column_dtype=np.dtype(meta["dtype"]),
            edge_weights=weights,
        )
    return CSRGraph.unchecked(
        ro,
        handle.array(f"{prefix}.ci"),
        meta["num_rows"],
        meta["num_cols"],
        edge_weights=weights,
    )


def load_graph_store(directory: str | Path) -> PartitionedGraph:
    """Attach a store and rebuild the :class:`PartitionedGraph` over mmap views.

    Every array — subgraph offsets and columns, separation, per-GPU masks —
    is a read-only view into the shared mapping; nothing is copied.  The
    returned graph's ``storage`` records the store flavour and
    ``storage_path`` the directory, which is how the execution layer picks
    zero-copy descriptors (process backend) and the decode wrapper
    (compressed stores).
    """
    handle = open_store(directory)
    manifest = handle.manifest
    layout = ClusterLayout.from_notation(manifest["layout"])
    census = EdgeCategoryCensus(**manifest["census"])
    separation = DegreeSeparation(
        threshold=int(manifest["threshold"]),
        degrees=handle.array("sep.degrees"),
        is_delegate=handle.array("sep.is_delegate"),
        delegate_vertices=handle.array("sep.delegate_vertices"),
        delegate_id_of=handle.array("sep.delegate_id_of"),
    )
    d = separation.num_delegates
    gpus: list[GPUPartition] = []
    for g, meta in enumerate(manifest["gpus"]):
        csrs = {key: _load_csr(handle, g, key, meta["csrs"][key]) for key in CSR_KEYS}
        gpus.append(
            GPUPartition(
                flat_gpu=g,
                layout=layout,
                num_local=int(meta["num_local"]),
                num_delegates=d,
                local_is_normal=handle.array(f"g{g}.local_is_normal"),
                nn=csrs["nn"],
                nd=csrs["nd"],
                dn=csrs["dn"],
                dd=csrs["dd"],
                nd_source_list=handle.array(f"g{g}.nd_source_list"),
                dn_source_mask=handle.array(f"g{g}.dn_source_mask"),
                dd_source_mask=handle.array(f"g{g}.dd_source_mask"),
            )
        )
    return PartitionedGraph(
        layout=layout,
        threshold=int(manifest["threshold"]),
        num_vertices=int(manifest["num_vertices"]),
        num_directed_edges=int(manifest["num_directed_edges"]),
        separation=separation,
        census=census,
        gpus=gpus,
        storage=manifest["storage"],
        storage_path=str(Path(directory)),
    )


def store_graph_descriptor(directory: str | Path) -> dict:
    """Build the process-backend graph descriptor for a store.

    Raw subgraphs use the same 6-tuple entries the shared-memory path ships
    (``(ro_offset, num_rows, ci_offset, num_edges, dtype, num_cols)``);
    compressed subgraphs use a ``("z", ...)`` tagged entry carrying the
    payload and byte-offset locations instead of a column array.  The
    segment name is a ``file://`` URI that
    :class:`repro.exec.shm.SegmentCache` attaches by mmap rather than by
    POSIX shared memory — workers reuse the identical LRU/view machinery.
    """
    handle = open_store(directory)
    entries: dict = {}
    compressed = False
    for g, meta in enumerate(handle.manifest["gpus"]):
        for key in CSR_KEYS:
            cmeta = meta["csrs"][key]
            prefix = f"g{g}.{key}"
            ro_off = handle.array_offset(f"{prefix}.ro")
            # Weighted subgraphs append the weight-array offset; readers key
            # off the entry length, so unweighted descriptors are unchanged.
            w_tail = (
                (handle.array_offset(f"{prefix}.w"),) if cmeta.get("weighted") else ()
            )
            if cmeta["kind"] == "compressed":
                compressed = True
                entries[(g, key)] = (
                    "z",
                    ro_off,
                    handle.array_offset(f"{prefix}.bo"),
                    handle.array_offset(f"{prefix}.pl"),
                    int(handle.manifest["arrays"][f"{prefix}.pl"]["shape"][0]),
                    cmeta["num_rows"],
                    cmeta["num_edges"],
                    cmeta["dtype"],
                    cmeta["num_cols"],
                ) + w_tail
            else:
                entries[(g, key)] = (
                    ro_off,
                    cmeta["num_rows"],
                    handle.array_offset(f"{prefix}.ci"),
                    cmeta["num_edges"],
                    cmeta["dtype"],
                    cmeta["num_cols"],
                ) + w_tail
    return {
        "segment": f"file://{handle.segment_path}",
        "csrs": entries,
        "compressed": compressed,
    }
