"""The benchmark's workloads, built only through the public API of ``repro``.

A workload has three parts:

``setup(seed, spans)``
    Builds the served graph from the seed: generate, threshold, partition
    (or out-of-core build and attach).  Timed as ``setup_s``.
``session(inputs, seed, spans, trace)``
    Draws the operation keys from the seed (traversal roots, or query waves)
    and returns a session whose ``run_op(key, traced)`` performs one timed
    operation and reports its latency, its answers and its deterministic
    counters.  One pass runs every key once, in order.
``check(key, answer)`` (on the session)
    Verifies one answer against an independent reference; it runs after
    the timed loop, once per distinct answer key.

Every engine is pinned: the inline backend, NumPy kernels, layout 4x1x2
and the storage each workload names.  A session made with ``trace`` also
holds a second engine over the same graph, built on the timing backend and
kernel provider of :mod:`perfbench.tracing`; ``run_op(key, traced=True)``
runs on it, and ``traced=False`` on the plain inline engine.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.tracing import SpanRecorder, TimingBackend, TimingProvider, TracedEngine, clock
from repro.baselines.weighted import dijkstra_sssp
from repro.core import BFSLevels
from repro.exec import InlineBackend
from repro.graph import EdgeList, generate_rmat
from repro.graph.degree import out_degrees
from repro.graph.rmat import generate_rmat_edge_chunks
from repro.partition import (
    ClusterLayout,
    build_partitions,
    separate_by_degree,
    suggest_threshold,
)
from repro.serve import QueryService, ZipfWorkload
from repro.storage import external_build, load_graph_store
from repro.utils.rng import random_sources
from repro.validate import validate_distances
from repro.weighted import DeltaSteppingSSSP

LAYOUT = "4x1x2"
#: Scratch space for on-disk stores, inside the benchmark's own directory.
WORK_DIR = Path(__file__).resolve().parent / ".work"
#: The value the engine stores for vertices a traversal did not reach.
UNREACHED = -1


@dataclass
class Op:
    """One timed operation: latency, answers ``[(answer_key, array)]``, counters."""

    latency_s: float
    answers: list
    record: dict
    #: Latency of each part of the operation, when it has several.
    parts: dict | None = None


@dataclass
class Inputs:
    """What one set-up built."""

    graph: object
    edges: EdgeList | None = None
    store_dir: tempfile.TemporaryDirectory | None = None

    def close(self) -> None:
        if self.store_dir is not None:
            self.store_dir.cleanup()


def run_counters(results: list) -> dict:
    """Deterministic counters of engine results, summed."""
    counters = {
        "core.runs": 0, "core.super_steps": 0, "core.edges_examined": 0,
        "cluster.nn_bytes_remote": 0, "cluster.nn_messages": 0,
        "cluster.delegate_reductions": 0, "cluster.delegate_bytes": 0,
        "perfmodel.computation_ms": 0.0, "perfmodel.local_comm_ms": 0.0,
        "perfmodel.normal_exchange_ms": 0.0, "perfmodel.delegate_reduce_ms": 0.0,
        "perfmodel.elapsed_ms": 0.0, "weighted.phases": 0, "lanes": 0,
    }
    for result in results:
        stats, timing = result.comm_stats, result.timing
        counters["core.runs"] += 1
        counters["core.super_steps"] += int(result.iterations)
        counters["core.edges_examined"] += int(result.total_edges_examined)
        counters["cluster.nn_bytes_remote"] += int(stats.normal_bytes_remote)
        counters["cluster.nn_messages"] += int(stats.normal_messages)
        counters["cluster.delegate_reductions"] += int(stats.delegate_reductions)
        counters["cluster.delegate_bytes"] += int(
            stats.delegate_mask_bytes + stats.delegate_value_bytes
        )
        counters["perfmodel.computation_ms"] += timing.computation
        counters["perfmodel.local_comm_ms"] += timing.local_communication
        counters["perfmodel.normal_exchange_ms"] += timing.remote_normal_exchange
        counters["perfmodel.delegate_reduce_ms"] += timing.remote_delegate_reduce
        counters["perfmodel.elapsed_ms"] += timing.elapsed_ms
        counters["weighted.phases"] += int(getattr(result, "phases", 0))
        counters["lanes"] += int(getattr(result, "width", 1))
    return counters


def make_engine(graph, spans: SpanRecorder, traced: bool) -> TracedEngine:
    """An engine pinned to the inline backend and NumPy kernels."""
    if traced:
        backend, kernels = TimingBackend(graph, spans), TimingProvider(spans)
    else:
        backend, kernels = InlineBackend(graph), "numpy"
    return TracedEngine(graph, spans, backend=backend, kernels=kernels)


def make_engines(graph, spans: SpanRecorder, trace: bool) -> dict:
    """The plain engine under ``False``; with ``trace``, the timing one under ``True``."""
    engines = {False: make_engine(graph, spans, traced=False)}
    if trace:
        engines[True] = make_engine(graph, spans, traced=True)
    return engines


def partition(edges: EdgeList, spans: SpanRecorder):
    """Threshold, degree separation and per-GPU subgraphs, each spanned."""
    layout = ClusterLayout.from_notation(LAYOUT)
    with spans.span("partition.threshold"):
        threshold = suggest_threshold(edges, layout.num_gpus)
    with spans.span("partition.separate"):
        separation = separate_by_degree(edges, threshold)
    with spans.span("partition.build"):
        return build_partitions(edges, layout, threshold, separation=separation)


def sssp_certificate(edges: EdgeList, source: int, dist_bits: np.ndarray) -> bool:
    """Whether ``dist_bits`` are exact shortest-path distances from ``source``.

    The source is at 0, no edge can shorten any distance, and every other
    reached vertex has a strictly closer in-neighbour whose distance plus the
    edge weight gives its own exactly, so each distance is realised by a path.
    """
    if dist_bits.shape != (edges.num_vertices,) or dist_bits[source] != 0:
        return False
    dist = np.where(dist_bits == UNREACHED, np.inf, dist_bits.view(np.float64))
    via = dist[edges.src] + edges.weights
    target = dist[edges.dst]
    if np.any(target > via):
        return False
    tight = np.zeros(edges.num_vertices, dtype=bool)
    tight[edges.dst[np.isfinite(via) & (target == via) & (dist[edges.src] < target)]] = True
    reached = np.isfinite(dist)
    reached[source] = False
    return bool(np.all(tight[reached]))


# --------------------------------------------------------------------------- #
# Traversal workloads: one operation runs each of the workload's kernels
# from one root
# --------------------------------------------------------------------------- #
class TraversalSession:
    """Roots drawn from the seed; ``run_op(root, traced)`` traverses from one root."""

    def __init__(self, workload, inputs: Inputs, seed: int, spans, trace: bool) -> None:
        self.workload = workload
        self.inputs = inputs
        self.engines = make_engines(inputs.graph, spans, trace)
        edges = inputs.edges
        # Graph500 draws non-isolated roots with replacement; keep the first
        # distinct ones.
        picked = random_sources(
            edges.num_vertices, 4 * workload.roots, rng=seed + 2, degrees=out_degrees(edges)
        )
        self.keys = list(dict.fromkeys(int(root) for root in picked))[: workload.roots]

    def run_op(self, root: int, traced: bool = False) -> Op:
        engine = self.engines[traced]
        answers, parts = [], {}
        for kernel in self.workload.kernels:
            program = (
                DeltaSteppingSSSP(root, delta=self.workload.delta)
                if kernel == "sssp" else BFSLevels(source=root)
            )
            started = clock()
            result = engine.run(program)
            parts[kernel] = clock() - started
            answer = result.dist_bits if kernel == "sssp" else result.distances
            answers.append(((kernel, root), answer))
        record = run_counters(engine.take_results())
        return Op(sum(parts.values()), answers, record, parts)

    def check(self, key: tuple, answer: np.ndarray) -> bool:
        kernel, root = key
        edges = self.inputs.edges
        if kernel == "bfs":
            return validate_distances(edges, root, answer).valid
        if not sssp_certificate(edges, root, answer):
            return False
        if root not in self.keys[: self.workload.dijkstra_roots]:
            return True
        reference = dijkstra_sssp(edges.src, edges.dst, edges.weights, edges.num_vertices, root)
        dist = np.where(answer == UNREACHED, np.inf, answer.view(np.float64))
        return bool(np.array_equal(reference, dist))


@dataclass(frozen=True)
class TraversalWorkload:
    """BFS levels and/or delta-stepping SSSP from seeded roots of weighted
    RMAT, in memory."""

    name: str
    why: str
    scale: int
    roots: int
    setup_reps: int
    tail_percentile: float
    kernels: tuple = ("bfs",)
    delta: float = 0.125
    #: Roots (first in key order) whose SSSP answer is also checked against
    #: Dijkstra, which takes seconds per root; every other one gets the
    #: linear-time certificate.
    dijkstra_roots: int = 0
    storage: str = "memory"

    def setup(self, seed: int, spans: SpanRecorder) -> Inputs:
        with spans.span("graph.generate"):
            edges = generate_rmat(self.scale, rng=seed, weights_seed=seed + 1)
        return Inputs(graph=partition(edges, spans), edges=edges)

    def session(self, inputs: Inputs, seed: int, spans, trace: bool) -> TraversalSession:
        return TraversalSession(self, inputs, seed, spans, trace)


# --------------------------------------------------------------------------- #
# Serving workload: one operation is one closed-loop wave of queries
# --------------------------------------------------------------------------- #
class ServeSession:
    """A Zipf query stream in waves; each pass replays it from a cold service.

    Sources are Zipf(1.0) over every non-isolated vertex, and the service
    keeps its default cache.  A fresh service at the start of each pass makes
    every wave's cache hits, and so its counters and cost, the same on every
    pass, whatever the run's length.
    """

    def __init__(self, workload, inputs: Inputs, seed: int, spans, trace: bool) -> None:
        self.workload = workload
        self.inputs = inputs
        self.spans = spans
        self.engines = make_engines(inputs.graph, spans, trace)
        graph = inputs.graph
        stream = ZipfWorkload(
            num_queries=workload.waves * workload.clients,
            skew=workload.skew,
            pool=graph.num_vertices,
            seed=seed + 2,
        )
        self.queries = stream.generate(graph.num_vertices, degrees=graph.separation.degrees)
        self.keys = list(range(workload.waves))
        self.service = None
        self._edges = None
        self._seed = seed

    def run_op(self, wave: int, traced: bool = False) -> Op:
        engine = self.engines[traced]
        if wave == 0:
            self.service = QueryService(engine, batch_size=self.workload.clients)
        service = self.service
        before = _serve_counters(service)
        clients = self.workload.clients
        batch = self.queries[wave * clients:(wave + 1) * clients]
        started = clock()
        for query in batch:
            service.submit(query)
        with self.spans.span("serve.flush"):
            results = service.flush()
        latency = clock() - started
        record = run_counters(engine.take_results())
        after = _serve_counters(service)
        record.update({name: after[name] - before[name] for name in after})
        answers = [(query.source, result.distances) for query, result in zip(batch, results)]
        return Op(latency, answers, record)

    def check(self, source: int, answer: np.ndarray) -> bool:
        if self._edges is None:
            # The store holds no raw edges: regenerate the same chunks and
            # prepare them the way the out-of-core build does.
            chunks = list(generate_rmat_edge_chunks(
                self.workload.scale, seed=self._seed, chunk_edges=self.workload.chunk_edges
            ))
            self._edges = EdgeList(
                np.concatenate([src for src, _ in chunks]),
                np.concatenate([dst for _, dst in chunks]),
                1 << self.workload.scale,
            ).prepared(hash_seed=1)
        return validate_distances(self._edges, source, answer).valid


def _serve_counters(service: QueryService) -> dict:
    stats, cache = service.stats, service.cache.stats
    return {
        "serve.queries": stats.queries,
        "serve.coalesced": stats.coalesced,
        "serve.traversals": stats.traversals,
        "serve.batches": stats.batches,
        "serve.batched_sources": stats.batched_sources,
        "serve.cache_hits": cache.hits,
        "serve.cache_misses": cache.misses,
    }


@dataclass(frozen=True)
class ServeWorkload:
    """Closed-loop clients against ``QueryService`` over a compressed store."""

    name: str
    why: str
    scale: int
    waves: int
    clients: int
    skew: float
    setup_reps: int
    tail_percentile: float
    chunk_edges: int = 1 << 18
    storage: str = "compressed"

    def setup(self, seed: int, spans: SpanRecorder) -> Inputs:
        WORK_DIR.mkdir(exist_ok=True)
        store_dir = tempfile.TemporaryDirectory(prefix="store-", dir=WORK_DIR)
        chunks = _spanned(
            generate_rmat_edge_chunks(self.scale, seed=seed, chunk_edges=self.chunk_edges),
            spans,
        )
        layout = ClusterLayout.from_notation(LAYOUT)
        with spans.span("storage.build"):
            path, _ = external_build(
                chunks, 1 << self.scale, layout, Path(store_dir.name) / "store",
                storage=self.storage,
            )
        with spans.span("storage.attach"):
            graph = load_graph_store(path)
        return Inputs(graph=graph, store_dir=store_dir)

    def session(self, inputs: Inputs, seed: int, spans, trace: bool) -> ServeSession:
        return ServeSession(self, inputs, seed, spans, trace)


def _spanned(chunks, spans: SpanRecorder):
    """Yield the generator's chunks, spanning each draw as ``graph.generate``."""
    iterator = iter(chunks)
    while True:
        with spans.span("graph.generate"):
            chunk = next(iterator, None)
        if chunk is None:
            return
        yield chunk


def store_bytes(inputs: Inputs) -> int:
    """Bytes of the on-disk store (0 for in-memory graphs)."""
    if inputs.store_dir is None:
        return 0
    return sum(p.stat().st_size for p in Path(inputs.store_dir.name).rglob("*") if p.is_file())


WORKLOADS = {
    w.name: w
    for w in (
        TraversalWorkload(
            name="graph500",
            why="The paper's workload: Graph500 kernels 2 (BFS) and 3 (delta-stepping SSSP) "
            "from 64 seeded roots of weighted scale-16 RMAT; visit kernels, delegate reductions, "
            "set-up",
            scale=16, roots=64, setup_reps=5, tail_percentile=75,
            kernels=("bfs", "sssp"), dijkstra_roots=1,
        ),
        ServeWorkload(
            name="serve-zipf",
            why="32 closed-loop clients, Zipf(1.0) over all non-isolated vertices of scale-15 "
            "RMAT, default QueryService on a compressed store; ~41% of queries hit the cache, "
            "~12% coalesce",
            # 96 waves (3,072 queries) reach ~1,400 distinct sources, past the
            # cache's 1,024 entries, so it evicts; each source's check costs
            # ~25 ms, which bounds how many a run can afford.
            scale=15, waves=96, clients=32, skew=1.0, setup_reps=5,
            tail_percentile=90,
        ),
    )
}


def remove_work_dir() -> None:
    """Remove the store scratch directory if no store is left in it."""
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # absent, or still holds a store
