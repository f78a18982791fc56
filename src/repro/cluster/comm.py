"""Inter-GPU communication for the simulated cluster (paper §V).

Two communication patterns exist in the paper's model, and both are
implemented here with *real* buffer movement plus modeled cost:

**Delegate masks** (:meth:`Communicator.allreduce_delegate_masks`)
    The visited status of delegates is a packed bitmask replicated on every
    GPU.  Updates are combined with a two-phase OR-reduction: a local phase
    where every GPU in a rank pushes its mask to GPU0 over NVLink and GPU0
    reduces, and a global phase where the GPU0s of all ranks perform a
    tree-like (I)AllReduce over the network, after which the result is
    broadcast back locally.

**Normal vertices** (:meth:`Communicator.exchange_normals`)
    Newly-visited normal destinations of nn edges are sent point-to-point to
    their owner GPU.  Before transmission the sender bins vertices by
    destination GPU and converts the 64-bit global ids into 32-bit local ids
    (4 bytes per vertex on the wire — the paper's ``4|Enn|`` volume).  Two
    optional optimizations are modeled exactly as described: *local all2all*
    (first gather traffic within each rank onto the GPU with the destination's
    within-rank index, reducing the number of communicating pairs from ``p²``
    to ``p²/pgpu``) and *uniquification* (dropping duplicate destinations
    before sending).

The batched (MS-BFS style) engine path reuses both patterns with a lane-word
payload: :meth:`Communicator.exchange_batch` ships (vertex, source-bitset)
pairs — 4 bytes of local id plus ``8 * nwords`` bytes of lane words per
vertex, always OR-deduplicated per destination before transmission — and
:meth:`Communicator.allreduce_delegate_batch` OR-reduces the 2-D delegate
masks so one reduction of ``d x B`` bits amortizes the per-reduction latency
across the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.utils.bitmask import BatchBitmask, Bitmask
from repro.utils.sets import sorted_unique

__all__ = [
    "CommStats",
    "ExchangeResult",
    "BatchExchangeResult",
    "ReduceResult",
    "ValueReduceResult",
    "BatchReduceResult",
    "Communicator",
]


@dataclass
class CommStats:
    """Cumulative communication accounting for one BFS run."""

    normal_bytes_remote: int = 0
    normal_bytes_local: int = 0
    normal_vertices_sent: int = 0
    normal_vertices_deduplicated: int = 0
    normal_messages: int = 0
    delegate_mask_bytes: int = 0
    delegate_reductions: int = 0
    #: Bytes of per-delegate *value* reductions (programs whose delegate
    #: updates carry a payload — parent ids, component labels — instead of
    #: the 1-bit visited masks plain BFS needs).
    delegate_value_bytes: int = 0
    #: Extra bytes the normal-vertex exchange spent on per-vertex payloads.
    normal_payload_bytes: int = 0

    def total_bytes(self) -> int:
        """All bytes that crossed a link (local or remote)."""
        return (
            self.normal_bytes_remote
            + self.normal_bytes_local
            + self.delegate_mask_bytes
            + self.delegate_value_bytes
        )

    def as_dict(self) -> dict:
        """Flat dictionary for reporting."""
        return {
            "normal_bytes_remote": self.normal_bytes_remote,
            "normal_bytes_local": self.normal_bytes_local,
            "normal_vertices_sent": self.normal_vertices_sent,
            "normal_vertices_deduplicated": self.normal_vertices_deduplicated,
            "normal_messages": self.normal_messages,
            "delegate_mask_bytes": self.delegate_mask_bytes,
            "delegate_reductions": self.delegate_reductions,
            "delegate_value_bytes": self.delegate_value_bytes,
            "normal_payload_bytes": self.normal_payload_bytes,
        }


@dataclass
class ExchangeResult:
    """Outcome of one normal-vertex exchange super-step."""

    #: Per destination GPU, the concatenated array of received *local slot*
    #: ids (int64, possibly with duplicates unless uniquify was on).
    inboxes: list[np.ndarray]
    #: Modeled time of the on-GPU binning/conversion and the intra-rank
    #: local-all2all phase (max over GPUs), in seconds.
    local_time_s: float
    #: Modeled time of the point-to-point network phase (max over source
    #: GPUs), in seconds.
    remote_time_s: float
    #: Bytes sent over inter-rank links.
    remote_bytes: int
    #: Bytes moved over intra-rank (NVLink) links by the local all2all.
    local_bytes: int
    #: Per destination GPU, the int64 payload value travelling with each
    #: received slot id (parallel to ``inboxes``); ``None`` when the exchange
    #: carried bare vertex ids, as plain BFS does.
    payload_inboxes: list | None = None


@dataclass
class BatchExchangeResult:
    """Outcome of one batched normal-vertex exchange super-step."""

    #: Per destination GPU, the received *local slot* ids (int64, unique per
    #: sender after the OR-dedup, but possibly repeated across senders).
    inboxes: list[np.ndarray]
    #: Per destination GPU, the ``(len, nwords)`` uint64 lane words parallel
    #: to ``inboxes``.
    word_inboxes: list[np.ndarray]
    #: Modeled time of the on-GPU binning/dedup phase (max over GPUs), s.
    local_time_s: float
    #: Modeled time of the point-to-point network phase (max over GPUs), s.
    remote_time_s: float
    #: Bytes sent over inter-rank links.
    remote_bytes: int
    #: Bytes moved over intra-rank (NVLink) links.
    local_bytes: int


@dataclass
class ReduceResult:
    """Outcome of one delegate-mask reduction."""

    #: The OR of all input masks (shared by every GPU afterwards).
    merged: Bitmask
    #: Modeled time of the intra-rank push-to-GPU0 + broadcast phases.
    local_time_s: float
    #: Modeled time of the inter-rank (I)AllReduce phase.
    global_time_s: float
    #: Bytes exchanged between ranks.
    global_bytes: int


@dataclass
class ValueReduceResult:
    """Outcome of one delegate-value reduction."""

    #: Element-wise combine of all input arrays (shared by every GPU).
    merged: np.ndarray
    #: Modeled time of the intra-rank push-to-GPU0 + broadcast phases.
    local_time_s: float
    #: Modeled time of the inter-rank (I)AllReduce phase.
    global_time_s: float
    #: Bytes exchanged between ranks.
    global_bytes: int


@dataclass
class BatchReduceResult:
    """Outcome of one batched (2-D) delegate-mask reduction."""

    #: The OR of all input batch masks (shared by every GPU afterwards).
    merged: BatchBitmask
    #: Modeled time of the intra-rank push-to-GPU0 + broadcast phases.
    local_time_s: float
    #: Modeled time of the inter-rank (I)AllReduce phase.
    global_time_s: float
    #: Bytes exchanged between ranks.
    global_bytes: int


@dataclass
class Communicator:
    """Moves buffers between virtual GPUs and accounts for time and volume."""

    topology: ClusterTopology
    netmodel: NetworkModel
    stats: CommStats = field(default_factory=CommStats)

    # ------------------------------------------------------------------ #
    # Delegate masks
    # ------------------------------------------------------------------ #
    def allreduce_delegate_masks(
        self, masks: list[Bitmask], blocking: bool = True
    ) -> ReduceResult:
        """Two-phase OR-reduction of per-GPU delegate update masks.

        Parameters
        ----------
        masks:
            One packed mask per GPU (all the same size ``d`` bits).
        blocking:
            ``True`` models ``MPI_Allreduce``; ``False`` models
            ``MPI_Iallreduce`` with the software penalty observed on Ray.
        """
        layout = self.topology.layout
        if len(masks) != layout.num_gpus:
            raise ValueError(
                f"expected {layout.num_gpus} masks (one per GPU), got {len(masks)}"
            )
        if not masks:
            raise ValueError("cannot reduce zero masks")
        size = masks[0].size
        merged = Bitmask(size)
        for mask in masks:
            if mask.size != size:
                raise ValueError("all delegate masks must have the same size")
            merged.or_with(mask)

        nbytes = merged.nbytes
        local_time = 0.0
        if layout.gpus_per_rank > 1:
            local_time = self.netmodel.local_reduce_time(
                nbytes, layout.gpus_per_rank
            ) + self.netmodel.local_broadcast_time(nbytes, layout.gpus_per_rank)
        global_time = self.netmodel.global_allreduce_time(
            nbytes, layout.num_ranks, blocking=blocking
        )
        global_bytes = 0
        if layout.num_ranks > 1:
            # Reduction + broadcast trees each move one mask per participating
            # rank per phase; the paper counts 2 * d * prank / 8 bytes.
            global_bytes = 2 * nbytes * layout.num_ranks

        self.stats.delegate_mask_bytes += global_bytes
        self.stats.delegate_reductions += 1
        return ReduceResult(
            merged=merged,
            local_time_s=local_time,
            global_time_s=global_time,
            global_bytes=global_bytes,
        )

    def allreduce_delegate_values(
        self,
        values: list[np.ndarray],
        combine=np.minimum,
        blocking: bool = True,
    ) -> "ValueReduceResult":
        """Two-phase element-wise reduction of per-GPU delegate value arrays.

        The movement pattern is identical to :meth:`allreduce_delegate_masks`
        (intra-rank push to GPU0, inter-rank tree (I)AllReduce, broadcast
        back), but each delegate carries a 64-bit value instead of one bit —
        the channel frontier programs with per-vertex payloads (parent
        pointers, component labels) use, at 64x the mask volume.

        Parameters
        ----------
        values:
            One int64 array per GPU, all of size ``d``; positions a GPU did
            not update hold the combine identity (e.g. ``+inf``-like sentinel
            for ``np.minimum``).
        combine:
            Binary ufunc merging two value arrays element-wise.
        blocking:
            Same meaning as for the mask reduction.
        """
        layout = self.topology.layout
        if len(values) != layout.num_gpus:
            raise ValueError(
                f"expected {layout.num_gpus} value arrays (one per GPU), got {len(values)}"
            )
        if not values:
            raise ValueError("cannot reduce zero value arrays")
        size = values[0].size
        merged = np.array(values[0], dtype=np.int64, copy=True)
        for arr in values[1:]:
            if arr.size != size:
                raise ValueError("all delegate value arrays must have the same size")
            merged = combine(merged, arr)

        nbytes = merged.nbytes
        local_time = 0.0
        if layout.gpus_per_rank > 1:
            local_time = self.netmodel.local_reduce_time(
                nbytes, layout.gpus_per_rank
            ) + self.netmodel.local_broadcast_time(nbytes, layout.gpus_per_rank)
        global_time = self.netmodel.global_allreduce_time(
            nbytes, layout.num_ranks, blocking=blocking
        )
        global_bytes = 0
        if layout.num_ranks > 1:
            global_bytes = 2 * nbytes * layout.num_ranks

        self.stats.delegate_value_bytes += global_bytes
        self.stats.delegate_reductions += 1
        return ValueReduceResult(
            merged=merged,
            local_time_s=local_time,
            global_time_s=global_time,
            global_bytes=global_bytes,
        )

    def allreduce_delegate_batch(
        self, masks: list[BatchBitmask], blocking: bool = True
    ) -> BatchReduceResult:
        """Two-phase OR-reduction of per-GPU 2-D delegate update masks.

        The movement pattern is identical to
        :meth:`allreduce_delegate_masks`, but each delegate carries one bit
        per batch lane instead of a single visited bit: one reduction of
        ``d * B`` bits serves all B concurrent traversals, so the
        per-reduction latency (the dominant cost of thin iterations)
        amortizes across the whole batch.
        """
        layout = self.topology.layout
        if len(masks) != layout.num_gpus:
            raise ValueError(
                f"expected {layout.num_gpus} masks (one per GPU), got {len(masks)}"
            )
        if not masks:
            raise ValueError("cannot reduce zero masks")
        merged = masks[0].copy()
        for mask in masks[1:]:
            merged.or_with(mask)

        nbytes = merged.packed_nbytes
        local_time = 0.0
        if layout.gpus_per_rank > 1:
            local_time = self.netmodel.local_reduce_time(
                nbytes, layout.gpus_per_rank
            ) + self.netmodel.local_broadcast_time(nbytes, layout.gpus_per_rank)
        global_time = self.netmodel.global_allreduce_time(
            nbytes, layout.num_ranks, blocking=blocking
        )
        global_bytes = 0
        if layout.num_ranks > 1:
            global_bytes = 2 * nbytes * layout.num_ranks

        self.stats.delegate_mask_bytes += global_bytes
        self.stats.delegate_reductions += 1
        return BatchReduceResult(
            merged=merged,
            local_time_s=local_time,
            global_time_s=global_time,
            global_bytes=global_bytes,
        )

    def exchange_batch(
        self, outboxes: list[np.ndarray], outbox_words: list[np.ndarray]
    ) -> BatchExchangeResult:
        """Route batched (vertex, source-bitset) updates to their owner GPUs.

        Parameters
        ----------
        outboxes:
            One array of *global* destination vertex ids per source GPU (the
            unique destinations of that GPU's batched nn visit).
        outbox_words:
            Per source GPU, the ``(len, nwords)`` uint64 lane words parallel
            to its outbox.

        Each sender bins by destination owner, OR-combines duplicate
        destinations (batched traffic is always uniquified — merging lane
        words is free and strictly reduces volume), and sends 4-byte local
        ids plus ``8 * nwords`` bytes of lane words per vertex.  The id bytes
        are charged like the plain exchange; the lane words are accounted as
        payload bytes.
        """
        layout = self.topology.layout
        p = layout.num_gpus
        if len(outboxes) != p or len(outbox_words) != p:
            raise ValueError(f"expected {p} outboxes and word arrays")

        binned: list[list[np.ndarray]] = []
        binned_words: list[list[np.ndarray]] = []
        per_gpu_filter_time = np.zeros(p, dtype=np.float64)
        nwords = 1
        for src_gpu, out in enumerate(outboxes):
            out = np.asarray(out, dtype=np.int64).ravel()
            words = np.asarray(outbox_words[src_gpu], dtype=np.uint64)
            if words.ndim == 2 and words.shape[1] > 0:
                nwords = max(nwords, words.shape[1])
            if words.shape[0] != out.size:
                raise ValueError(
                    f"words of GPU {src_gpu} have {words.shape[0]} rows, "
                    f"expected {out.size}"
                )
            per_gpu_filter_time[src_gpu] += self.netmodel.filter_time(out.size)
            dest_owner = layout.flat_gpu_of(out)
            local_slot = layout.local_index_of(out).astype(np.int32)
            order = np.argsort(dest_owner, kind="stable")
            sorted_slots = local_slot[order]
            sorted_words = words[order]
            bounds = np.zeros(p + 1, dtype=np.int64)
            np.cumsum(np.bincount(dest_owner, minlength=p), out=bounds[1:])
            buckets: list[np.ndarray] = []
            wbuckets: list[np.ndarray] = []
            for g in range(p):
                chunk = sorted_slots[bounds[g]:bounds[g + 1]]
                wchunk = sorted_words[bounds[g]:bounds[g + 1]]
                if chunk.size:
                    # OR-dedup per destination before transmission.
                    unique, inverse = np.unique(chunk, return_inverse=True)
                    if unique.size != chunk.size:
                        reduced = np.zeros((unique.size, wchunk.shape[1]), dtype=np.uint64)
                        np.bitwise_or.at(reduced, inverse, wchunk)
                        chunk, wchunk = unique, reduced
                        per_gpu_filter_time[src_gpu] += self.netmodel.filter_time(
                            int(inverse.size)
                        )
                buckets.append(chunk)
                wbuckets.append(wchunk)
            binned.append(buckets)
            binned_words.append(wbuckets)

        inbox_parts: list[list[np.ndarray]] = [[] for _ in range(p)]
        word_parts: list[list[np.ndarray]] = [[] for _ in range(p)]
        per_gpu_send_time = np.zeros(p, dtype=np.float64)
        remote_bytes = 0
        local_bytes = 0
        payload_bytes = 0
        for src_gpu in range(p):
            for dst_gpu in range(p):
                chunk = binned[src_gpu][dst_gpu]
                if chunk.size == 0:
                    continue
                wchunk = binned_words[src_gpu][dst_gpu]
                inbox_parts[dst_gpu].append(chunk)
                word_parts[dst_gpu].append(wchunk)
                if dst_gpu == src_gpu:
                    continue
                nbytes = chunk.nbytes + wchunk.nbytes
                same_rank = bool(self.topology.same_rank(src_gpu, dst_gpu))
                per_gpu_send_time[src_gpu] += self.netmodel.p2p_time(nbytes, same_rank)
                if same_rank:
                    local_bytes += nbytes
                else:
                    remote_bytes += nbytes
                payload_bytes += wchunk.nbytes
                self.stats.normal_messages += 1
                self.stats.normal_vertices_sent += int(chunk.size)

        inboxes = [
            np.concatenate(parts).astype(np.int64)
            if parts
            else np.zeros(0, dtype=np.int64)
            for parts in inbox_parts
        ]
        word_inboxes = [
            np.concatenate(parts)
            if parts
            else np.zeros((0, nwords), dtype=np.uint64)
            for parts in word_parts
        ]
        self.stats.normal_bytes_remote += remote_bytes
        self.stats.normal_bytes_local += local_bytes
        self.stats.normal_payload_bytes += payload_bytes
        return BatchExchangeResult(
            inboxes=inboxes,
            word_inboxes=word_inboxes,
            local_time_s=float(per_gpu_filter_time.max()) if p else 0.0,
            remote_time_s=float(per_gpu_send_time.max()) if p else 0.0,
            remote_bytes=remote_bytes,
            local_bytes=local_bytes,
        )

    # ------------------------------------------------------------------ #
    # Normal-vertex exchange
    # ------------------------------------------------------------------ #
    def exchange_normals(
        self,
        outboxes: list[np.ndarray],
        local_all2all: bool = False,
        uniquify: bool = False,
        payloads: list[np.ndarray] | None = None,
        payload_combine=np.minimum,
        payload_identity: int | np.int64 | None = None,
    ) -> ExchangeResult:
        """Route newly-visited normal-vertex updates to their owner GPUs.

        Parameters
        ----------
        outboxes:
            One array of *global* destination vertex ids per source GPU (the
            raw output of that GPU's nn visit kernel, duplicates included).
        local_all2all:
            Enable the intra-rank pre-exchange (paper's "L" option).
        uniquify:
            Drop duplicate destinations before the remote send (paper's "U"
            option; only effective together with ``local_all2all``, matching
            the paper's pipeline where uniquify runs after the local
            exchange).
        payloads:
            Optional int64 value per outbox entry (parallel arrays).  Frontier
            programs whose vertex state is a payload (parent pointers,
            component labels) ship it over this channel; plain BFS leaves it
            ``None`` and pays only the paper's ``4|Enn|`` volume.
        payload_combine:
            Binary ufunc used to merge the payloads of duplicate destinations
            when ``uniquify`` is on (e.g. ``np.minimum`` for parent/label
            programs).
        payload_identity:
            Neutral element of ``payload_combine`` (defaults to the
            ``np.minimum`` identity, ``INT64_MAX``); pass the program's
            ``combine_identity`` when using a different combine.

        Returns
        -------
        ExchangeResult
            Per-destination-GPU arrays of local slot ids plus modeled times;
            ``payload_inboxes`` carries the received values when ``payloads``
            was given.
        """
        layout = self.topology.layout
        p = layout.num_gpus
        if len(outboxes) != p:
            raise ValueError(f"expected {p} outboxes, got {len(outboxes)}")
        has_payload = payloads is not None
        if has_payload and len(payloads) != p:
            raise ValueError(f"expected {p} payload arrays, got {len(payloads)}")
        if payload_identity is None:
            payload_identity = np.iinfo(np.int64).max

        pgpu = layout.gpus_per_rank
        empty_payload = np.zeros(0, dtype=np.int64)
        # Phase 1: per source GPU, bin by destination owner and convert the
        # 64-bit global ids to 32-bit local slots.  Charged as filter work.
        binned: list[list[np.ndarray]] = []
        binned_payloads: list[list[np.ndarray]] = []
        per_gpu_filter_time = np.zeros(p, dtype=np.float64)
        for src_gpu, out in enumerate(outboxes):
            out = np.asarray(out, dtype=np.int64).ravel()
            if has_payload:
                payload = np.asarray(payloads[src_gpu], dtype=np.int64).ravel()
                if payload.size != out.size:
                    raise ValueError(
                        f"payload of GPU {src_gpu} has {payload.size} entries, "
                        f"expected {out.size}"
                    )
            per_gpu_filter_time[src_gpu] += self.netmodel.filter_time(out.size)
            dest_owner = layout.flat_gpu_of(out)
            local_slot = layout.local_index_of(out).astype(np.int32)
            # Bucket by destination owner with one stable counting sort and a
            # prefix-sum split instead of p boolean scans over the outbox
            # (O(|out| log |out|) once vs O(p·|out|)); stability keeps each
            # bucket in original emission order, so the buckets are identical
            # to what the per-destination scans produced.
            order = np.argsort(dest_owner, kind="stable")
            sorted_slots = local_slot[order]
            bounds = np.zeros(p + 1, dtype=np.int64)
            np.cumsum(np.bincount(dest_owner, minlength=p), out=bounds[1:])
            buckets = [sorted_slots[bounds[g]:bounds[g + 1]] for g in range(p)]
            pbuckets: list[np.ndarray] = []
            if has_payload:
                sorted_payload = payload[order]
                pbuckets = [sorted_payload[bounds[g]:bounds[g + 1]] for g in range(p)]
            binned.append(buckets)
            binned_payloads.append(pbuckets)

        local_bytes = 0
        staging_payload_bytes = 0
        local_phase_time = np.zeros(p, dtype=np.float64)

        def chunk_nbytes(chunk: np.ndarray, pchunk: np.ndarray | None) -> int:
            return chunk.nbytes + (pchunk.nbytes if pchunk is not None else 0)

        if local_all2all and pgpu > 1:
            # Phase 2: within each rank, gather traffic destined for
            # within-rank index j (of any rank) onto the local GPU with index j.
            regrouped: list[list[tuple]] = [[] for _ in range(p)]
            for src_gpu in range(p):
                src_rank = src_gpu // pgpu
                for dst_gpu in range(p):
                    chunk = binned[src_gpu][dst_gpu]
                    if chunk.size == 0:
                        continue
                    pchunk = binned_payloads[src_gpu][dst_gpu] if has_payload else None
                    staging_gpu = src_rank * pgpu + (dst_gpu % pgpu)
                    if staging_gpu != src_gpu:
                        nbytes = chunk_nbytes(chunk, pchunk)
                        local_bytes += nbytes
                        if pchunk is not None:
                            staging_payload_bytes += pchunk.nbytes
                        t = self.netmodel.intra_node_time(nbytes)
                        local_phase_time[src_gpu] += t
                    regrouped[staging_gpu].append((dst_gpu, chunk, pchunk))
            # Phase 3 (optional): uniquify per destination on the staging GPU.
            staged: list[list[np.ndarray]] = []
            staged_payloads: list[list[np.ndarray]] = []
            for staging_gpu in range(p):
                buckets = [np.zeros(0, dtype=np.int32) for _ in range(p)]
                pbuckets = [empty_payload for _ in range(p)]
                groups: dict[int, list[np.ndarray]] = {}
                pgroups: dict[int, list[np.ndarray]] = {}
                for dst_gpu, chunk, pchunk in regrouped[staging_gpu]:
                    groups.setdefault(dst_gpu, []).append(chunk)
                    if has_payload:
                        pgroups.setdefault(dst_gpu, []).append(pchunk)
                for dst_gpu, chunks in groups.items():
                    merged = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                    if has_payload:
                        pchunks = pgroups[dst_gpu]
                        pmerged = np.concatenate(pchunks) if len(pchunks) > 1 else pchunks[0]
                    else:
                        pmerged = None
                    if uniquify and merged.size:
                        before = merged.size
                        if has_payload:
                            # Duplicate destinations keep the combined payload
                            # (e.g. the smallest parent id / label).
                            unique, inverse = np.unique(merged, return_inverse=True)
                            preduced = np.full(
                                unique.size, payload_identity, dtype=np.int64
                            )
                            payload_combine.at(preduced, inverse, pmerged)
                            merged, pmerged = unique, preduced
                        else:
                            merged = sorted_unique(merged)
                        removed = before - merged.size
                        self.stats.normal_vertices_deduplicated += int(removed)
                        local_phase_time[staging_gpu] += self.netmodel.filter_time(before)
                    buckets[dst_gpu] = merged
                    if has_payload:
                        pbuckets[dst_gpu] = pmerged
                staged.append(buckets)
                staged_payloads.append(pbuckets)
            send_plan = staged
            payload_plan = staged_payloads
        else:
            send_plan = binned
            payload_plan = binned_payloads

        # Phase 4: the remote exchange.  Each source GPU sends its buckets
        # point-to-point; sends from one GPU are serialised, different GPUs
        # proceed in parallel, so the modeled remote time is the maximum over
        # source GPUs of their serial send time.
        inbox_parts: list[list[np.ndarray]] = [[] for _ in range(p)]
        payload_parts: list[list[np.ndarray]] = [[] for _ in range(p)]
        per_gpu_send_time = np.zeros(p, dtype=np.float64)
        remote_bytes = 0
        payload_bytes = 0
        for src_gpu in range(p):
            for dst_gpu in range(p):
                chunk = send_plan[src_gpu][dst_gpu]
                if chunk.size == 0:
                    continue
                pchunk = payload_plan[src_gpu][dst_gpu] if has_payload else None
                if dst_gpu == src_gpu:
                    inbox_parts[dst_gpu].append(chunk)
                    if has_payload:
                        payload_parts[dst_gpu].append(pchunk)
                    continue
                nbytes = chunk_nbytes(chunk, pchunk)
                same_rank = bool(self.topology.same_rank(src_gpu, dst_gpu))
                t = self.netmodel.p2p_time(nbytes, same_rank)
                per_gpu_send_time[src_gpu] += t
                if same_rank:
                    local_bytes += nbytes
                else:
                    remote_bytes += nbytes
                if has_payload:
                    payload_bytes += pchunk.nbytes
                self.stats.normal_messages += 1
                self.stats.normal_vertices_sent += int(chunk.size)
                inbox_parts[dst_gpu].append(chunk)
                if has_payload:
                    payload_parts[dst_gpu].append(pchunk)

        inboxes = [
            np.concatenate(parts).astype(np.int64) if parts else np.zeros(0, dtype=np.int64)
            for parts in inbox_parts
        ]
        payload_inboxes = None
        if has_payload:
            payload_inboxes = [
                np.concatenate(parts) if parts else empty_payload
                for parts in payload_parts
            ]
        self.stats.normal_bytes_remote += remote_bytes
        self.stats.normal_bytes_local += local_bytes
        self.stats.normal_payload_bytes += payload_bytes + staging_payload_bytes

        local_time = float((per_gpu_filter_time + local_phase_time).max()) if p else 0.0
        remote_time = float(per_gpu_send_time.max()) if p else 0.0
        return ExchangeResult(
            inboxes=inboxes,
            local_time_s=local_time,
            remote_time_s=remote_time,
            remote_bytes=remote_bytes,
            local_bytes=local_bytes,
            payload_inboxes=payload_inboxes,
        )
