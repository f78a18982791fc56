"""The distributed traversal engine (paper §IV and §V, Figures 3 and 4).

:class:`TraversalEngine` runs every frontier program through one
level-synchronous super-step driver, :meth:`TraversalEngine.run_steps`,
over a degree-separated :class:`repro.partition.PartitionedGraph`.  Each
super-step has the same stages, whatever the program:

1. **Plan and direction** (Fig. 3): previsit filters trim every GPU's input
   frontier per subgraph, and one visit task per subgraph is chosen in the
   direction its own direction-optimization state picks —

   * nn (normal→normal): always forward; its discoveries are *remote* normal
     updates that enter the exchange stage,
   * nd (normal→delegate): forward pushes propose delegate updates, backward
     pulls let unvisited delegates search their local normal parents,
   * dn (delegate→normal): forward pushes mark local normal vertices,
     backward pulls let unvisited local normals search their delegate parents,
   * dd (delegate→delegate): both directions stay within the delegates.

2. **Kernels**: the plan's per-GPU visit tasks run on an execution backend.

3. **Fold and communication** (Fig. 4): the program folds the kernel
   outputs; the nn outputs are binned, converted to 32-bit local ids and
   exchanged point-to-point (optionally with local-all2all and uniquify,
   and with an 8-byte value payload when the program needs one); delegate
   updates are reduced in two phases (NVLink within a rank, tree-like
   (I)AllReduce between ranks) whenever any GPU produced an update.  The
   step's modeled time is computed in the paper's four phases, with
   computation/communication overlap at a configurable efficiency (§VI-B).

What differs between programs is only the *frontier representation*, a
:class:`StepFrontier`:

* :class:`ValueFrontier` — one int64 value per vertex plus the changed-vertex
  frontiers (:class:`repro.core.state.TraversalState`); it runs every
  :class:`repro.core.programs.FrontierProgram` (:meth:`TraversalEngine.run`),
  delegating what a discovered vertex *means* — its value, acceptance and
  duplicate merging — to the program's hooks, with 1-bit delegate masks or
  64-bit delegate values on the reduction;
* :class:`LaneFrontier` — B-wide lane words per vertex for the batched
  MS-BFS programs (:meth:`TraversalEngine.run_batch`);
* driver programs build on these through ``program.drive``: delta-stepping
  SSSP picks a bucket of a :class:`ValueFrontier` before each step, PageRank
  supplies contribution sweeps.

A representation supplies its queue filter, backward workload (the paper's
estimate, or exact parent lists for lane words), visit tasks and folds.
The loop (level limits, overlay hook, accounting, tracing), the plan
skeleton (nn visit, backward candidates, nd → dn → dd direction decisions)
and the finalize skeleton (per-kernel accounting, fold → nn-exchange →
delegate-reduce, modeled time) are written once.

*Where* the kernels run is owned by neither engine nor program: each
super-step is a declarative :class:`repro.exec.SuperStepPlan` (per-GPU
kernel tasks as pure data; the folds, exchange and delegate reduction behind
the plan's ``finalize``) handed to an :class:`repro.exec.ExecutionBackend` —
``"inline"`` for the in-process simulator, ``"thread"`` for a shared thread
pool, ``"process"`` for a worker pool over shared-memory CSR buffers.
Results, workload counters and modeled times are backend-independent; only
the measured ``wall_s`` phases change.

For mutable graphs (:mod:`repro.dynamic`) the driver accepts two
extensions: a pre-seeded ``init`` replacing the program's ``init_state``
(the resumable-from-frontier entry point incremental repair starts from)
and an ``overlay`` of not-yet-compacted edge insertions, relaxed from each
super-step's input frontier on the coordinator so results stay
backend-invariant.

:class:`DistributedBFS` remains as the seed's entry point: a thin wrapper
running :class:`repro.core.programs.BFSLevels` through the generic engine
with behaviour (answers, iteration counts, modeled timings) identical to the
original hardwired implementation.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.comm import Communicator
from repro.cluster.hardware import HardwareSpec
from repro.cluster.netmodel import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.core.direction import DirectionState, estimate_backward_workload
from repro.core.options import BFSOptions
from repro.core.programs.base import FrontierProgram, VisitContext
from repro.core.programs.batched import (
    BatchedBFSLevels,
    BatchedFrontierProgram,
    BatchedReachability,
)
from repro.core.programs.bfs_levels import BFSLevels
from repro.core.results import BatchResult, BFSResult, IterationRecord, TraversalResult
from repro.core.state import UNVISITED, TraversalState
from repro.exec.backend import ExecutionBackend, resolve_backend
from repro.exec.plan import BatchedVisitSpec, GPUPlan, SuperStepPlan, VisitSpec
from repro.exec.providers import resolve_provider
from repro.partition.subgraphs import PartitionedGraph
from repro.utils.bitmask import BatchBitmask, Bitmask
from repro.obs.tracer import get_tracer
from repro.utils.timing import TimingBreakdown, now_s

__all__ = [
    "TraversalEngine",
    "DistributedBFS",
    "StepFrontier",
    "ValueFrontier",
    "LaneFrontier",
]

#: Default lane count per batched sweep when ``run_many`` routes through the
#: batched path; wider batches amortize better but grow the lane words.
DEFAULT_BATCH_SIZE = 32


def _plan_pulls(plan) -> int:
    """How many of a plan's visit tasks run backward (the direction decision).

    Recorded as a ``plan+direction`` span argument when tracing is on: 0
    means an all-forward-push step, higher counts mean direction
    optimization switched subgraph quadrants to backward-pull.
    """
    return sum(
        1 for gp in plan.gpu_plans for spec in gp.visits if spec.backward
    )


def _program_dedup_key(program) -> tuple | None:
    """A hashable identity for programs whose re-run would be a pure waste.

    ``None`` marks programs this engine cannot prove deduplicable (custom
    subclasses may carry extra state, so only exact shipped types match).
    """
    from repro.core.programs.bfs_parents import BFSParents
    from repro.core.programs.components import ConnectedComponents
    from repro.core.programs.khop import KHopReachability

    t = type(program)
    if t is BFSLevels:
        return ("levels", program.source)
    if t is KHopReachability:
        return ("khop", program.source, program.max_levels)
    if t is BFSParents:
        return ("parents", program.source)
    if t is ConnectedComponents:
        return ("components",)
    return None


def _batched_equivalent(programs: list, batch_size: int):
    """A factory building batched sweeps for a homogeneous program list.

    Returns ``None`` when the list is not batchable (mixed types, payload
    programs, or differing hop caps); otherwise a callable mapping a list of
    sources to the batched program covering them.
    """
    from repro.core.programs.khop import KHopReachability

    if batch_size < 2 or len(programs) < 2:
        return None
    types = {type(p) for p in programs}
    if types == {BFSLevels}:
        return lambda sources: BatchedBFSLevels(sources)
    if types == {KHopReachability}:
        caps = {p.max_levels for p in programs}
        if len(caps) == 1:
            cap = caps.pop()
            return lambda sources: BatchedReachability(sources, max_hops=cap)
    return None


class TraversalEngine:
    """Algorithm-agnostic traversal over a degree-separated partitioning.

    Parameters
    ----------
    graph:
        The partitioned graph produced by
        :func:`repro.partition.build_partitions`.
    options:
        Runtime options (direction optimization, exchange optimizations,
        reduction flavour, switching factors).
    hardware:
        Machine parameters for the performance model; defaults to the paper's
        Ray system.
    backend:
        Where super-steps execute: an :class:`repro.exec.ExecutionBackend`
        instance, a registry name (``"inline"`` / ``"process"`` /
        ``"thread"``), or ``None`` to use the ``REPRO_BACKEND`` environment
        default (inline).  Named backends are created lazily on first use and
        owned (closed) by the engine; passed-in instances are shared and stay
        caller-owned.
    kernels:
        How the visit kernels compute: a
        :class:`repro.exec.KernelProvider` instance, a provider name
        (``"numpy"`` / ``"numba"`` / ``"auto"``), or ``None`` to use the
        ``REPRO_KERNELS`` environment default (``auto`` — Numba when
        importable, NumPy otherwise).  Providers are stateless and shared;
        results and counters are provider-invariant.

    Examples
    --------
    >>> from repro.core.programs import BFSLevels, ConnectedComponents
    >>> from repro.graph import generate_rmat
    >>> from repro.partition import ClusterLayout, build_partitions
    >>> edges = generate_rmat(10, rng=7)
    >>> layout = ClusterLayout(num_ranks=2, gpus_per_rank=2)
    >>> graph = build_partitions(edges, layout, threshold=32)
    >>> engine = TraversalEngine(graph)
    >>> int(engine.run(BFSLevels(source=0)).distances[0])
    0
    >>> engine.run(ConnectedComponents()).num_components >= 1
    True
    """

    def __init__(
        self,
        graph: PartitionedGraph,
        options: BFSOptions | None = None,
        hardware: HardwareSpec | None = None,
        backend=None,
        kernels=None,
    ) -> None:
        self.graph = graph
        self.options = options if options is not None else BFSOptions()
        self.hardware = hardware if hardware is not None else HardwareSpec()
        self.netmodel = NetworkModel(self.hardware)
        self.topology = ClusterTopology(graph.layout)
        self._backend_spec = backend
        self._backend = None
        self._owns_backend = False
        self._kernels_spec = kernels
        self._provider = None
        # Cache per-GPU out-degree arrays of every subgraph; they are needed
        # for previsit filtering and forward-workload computation each
        # super-step and never change.
        self._degrees = [
            {
                "nn": gpu.nn.out_degrees(),
                "nd": gpu.nd.out_degrees(),
                "dn": gpu.dn.out_degrees(),
                "dd": gpu.dd.out_degrees(),
            }
            for gpu in graph.gpus
        ]

    # ------------------------------------------------------------------ #
    # Execution backend
    # ------------------------------------------------------------------ #
    @property
    def backend(self):
        """The live execution backend (resolved lazily on first use)."""
        if self._backend is None:
            self._backend, self._owns_backend = resolve_backend(
                self._backend_spec, self.graph
            )
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the backend in effect, without forcing creation.

        Reading the name must stay side-effect free (monitoring reads it on
        idle engines), so an unresolved spec is answered from the spec
        itself; validation still happens at resolution time.
        """
        if self._backend is not None:
            return self._backend.name
        spec = self._backend_spec
        if isinstance(spec, ExecutionBackend):
            return spec.name
        from repro.exec.backend import default_backend_name

        return default_backend_name() if spec is None else str(spec).strip().lower()

    def use_backend(self, backend) -> "TraversalEngine":
        """Switch execution backends (name, instance or ``None`` for default).

        The previously resolved backend is closed if this engine created it;
        shared instances passed in by the caller are left running.  Asking
        for the name of the backend already running is a no-op — tearing a
        process backend down just to re-export the same graph into shared
        memory would be pure churn.
        """
        if backend is not None and backend is self._backend:
            return self
        if (
            isinstance(backend, str)
            and self._backend is not None
            and backend.strip().lower() == self._backend.name
        ):
            self._backend_spec = backend
            return self
        self.close()
        self._backend_spec = backend
        return self

    def close(self) -> None:
        """Release the engine-owned backend (idempotent; engine stays usable —
        the next run resolves a fresh backend from the current spec)."""
        if self._backend is not None and self._owns_backend:
            self._backend.close()
        self._backend = None
        self._owns_backend = False

    # ------------------------------------------------------------------ #
    # Kernel provider
    # ------------------------------------------------------------------ #
    @property
    def provider(self):
        """The live kernel provider (resolved lazily on first use).

        Graphs on compressed storage get the resolved provider wrapped in a
        :class:`repro.storage.codec.DecodingProvider`, which decodes exactly
        the frontier/candidate rows of each visit before delegating — a
        storage detail, invisible to counters, results and the provider name.
        """
        if self._provider is None:
            provider = resolve_provider(self._kernels_spec)
            if getattr(self.graph, "storage", "memory") == "compressed":
                from repro.storage.codec import DecodingProvider

                provider = DecodingProvider(provider)
            self._provider = provider
        return self._provider

    @property
    def provider_name(self) -> str:
        """Resolved registry name of the kernel provider in effect.

        Unlike :attr:`backend_name` this *does* resolve the spec (``auto``
        and fallbacks only settle at resolution), but resolution is cheap —
        providers are stateless process-wide singletons, no pools or shared
        memory — so the read is still safe on idle engines.
        """
        return self.provider.name

    def use_kernels(self, kernels) -> "TraversalEngine":
        """Switch kernel providers (name, instance or ``None`` for default).

        Providers are stateless singletons, so unlike :meth:`use_backend`
        there is nothing to close — the next super-step simply plans with
        the newly resolved provider.
        """
        self._kernels_spec = kernels
        self._provider = None
        return self

    def __enter__(self) -> "TraversalEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self, program: FrontierProgram, init=None, overlay=None
    ) -> TraversalResult:
        """Run ``program`` to completion and return its result.

        Parameters
        ----------
        program:
            The frontier program to execute.
        init:
            Optional pre-seeded :class:`repro.core.programs.ProgramInit`
            replacing ``program.init_state`` — the resumable-from-frontier
            entry point: incremental maintenance seeds the per-vertex values
            with an existing answer and the frontier with only the repair
            seeds, and the super-step loop runs from there instead of from
            scratch.
        overlay:
            Optional :class:`repro.dynamic.OverlayBuffer` of edges not yet
            compacted into the CSR; each super-step additionally relaxes the
            overlay edges leaving that step's input frontier, so traversals
            of a mutable graph see the union graph.
        """
        # Driver programs (delta-stepping SSSP, PageRank, ...) schedule their
        # own steps on the same driver and build their own result.
        if hasattr(program, "drive"):
            return program.drive(self, init=init, overlay=overlay)

        if getattr(program, "needs_weights", False) and not self.graph.is_weighted:
            raise ValueError(
                f"program {program.name!r} needs edge weights but the graph has "
                "none; build it with weights (e.g. --weights on the generators)"
            )
        frontier = ValueFrontier(self, program, init)
        base = self.run_steps(frontier, overlay)
        return program.make_result(frontier.state.gather_values(), base)

    def run_many(
        self, programs, batch_size: int | None = None, overlay=None
    ) -> "Campaign":
        """Run several programs and aggregate their results into a Campaign.

        Duplicate programs (same shipped type and parameters) are traversed
        once and fanned back out to every requesting position — the results
        are deterministic, so re-running them is pure waste; the campaign's
        ``saved_traversals`` counter records how many runs the dedup saved.

        With ``batch_size`` set (>= 2) and a homogeneous list of
        :class:`~repro.core.programs.BFSLevels` or
        :class:`~repro.core.programs.KHopReachability` programs, the unique
        sources are routed through the batched MS-BFS path
        (:meth:`run_batch`) in chunks of up to ``batch_size`` lanes.  Each
        position still receives a per-source result with bit-identical
        answers; counters and timing on those results describe the shared
        batched sweeps.

        A batch never has one lane: ``batch_size`` of ``None``/1, a
        single-program list, and the final chunk of an uneven split all run
        through the plain sequential path — a 1-lane sweep would pay the
        lane-word machinery (``BatchBitmask`` state, OR-dedup exchange) for
        zero amortization.  Serve hits this with cold caches.
        """
        from repro.core.campaign import Campaign

        programs = list(programs)
        if batch_size is not None and batch_size < 2:
            batch_size = None
        unique_programs: list = []
        fan: list[int] = []
        index_of: dict[tuple, int] = {}
        for program in programs:
            key = _program_dedup_key(program)
            if key is not None and key in index_of:
                fan.append(index_of[key])
                continue
            idx = len(unique_programs)
            if key is not None:
                index_of[key] = idx
            unique_programs.append(program)
            fan.append(idx)
        saved = len(programs) - len(unique_programs)

        batch_factory = (
            _batched_equivalent(unique_programs, batch_size) if batch_size else None
        )
        if batch_factory is not None:
            unique_results: list = []
            sources = [p.source for p in unique_programs]
            for start in range(0, len(sources), batch_size):
                chunk = sources[start:start + batch_size]
                if len(chunk) == 1:
                    unique_results.append(self.run(unique_programs[start], overlay=overlay))
                    continue
                batch = self.run_batch(batch_factory(chunk), overlay=overlay)
                unique_results.extend(batch.per_source_results())
        else:
            unique_results = [self.run(prog, overlay=overlay) for prog in unique_programs]
        return Campaign.from_results(
            [unique_results[i] for i in fan], saved_traversals=saved
        )

    def run_batch(self, program: BatchedFrontierProgram, overlay=None) -> BatchResult:
        """Run one batched program (B sources, one fused sweep) to completion.

        Every lane's answer is bit-identical to the corresponding sequential
        single-source run; the counters and modeled times describe the fused
        sweep.  Direction optimization applies per subgraph exactly as in the
        sequential path, but with the batched backward workload (full parent
        lists — a batched pull has no early exit).  ``overlay`` edges (a
        mutable graph's not-yet-compacted insertions) are relaxed per
        super-step with OR-propagated lane words, mirroring the sequential
        path, so the per-lane equivalence holds on dynamic graphs too.
        """
        program.begin(self.graph)
        return program.make_result(self.run_steps(LaneFrontier(self, program), overlay))

    # ------------------------------------------------------------------ #
    # The super-step driver
    # ------------------------------------------------------------------ #
    def run_steps(self, frontier: "StepFrontier", overlay=None) -> dict:
        """Advance ``frontier`` super-step by super-step until it is done.

        Every engine-driven program runs through this loop.  Each step is
        ``frontier.advance()`` (select the step's input frontier; ``False``
        ends the run), the plan with its direction decisions, the backend's
        kernel stage, the finalize folds and communication and — with a
        non-empty ``overlay`` — the relaxation of the overlay edges leaving
        the step's input frontier.  The loop also stops once the program's
        ``max_levels`` steps have run, and raises past
        ``options.max_iterations``.

        Returns the result ``base`` dict every result type is built from:
        ``iterations``, ``records``, ``timing``, ``comm_stats``,
        ``total_edges_examined``, ``num_directed_edges`` and ``wall_s``.
        """
        opts = self.options
        program = frontier.program
        communicator = Communicator(self.topology, self.netmodel)
        records: list[IterationRecord] = []
        timing = TimingBreakdown()
        total_edges = 0
        level = 0
        # Wall-clock accounting of the simulation itself (not modeled time):
        # per-phase seconds the bench harness reads off the result.
        wall = {"kernels": 0.0, "exchange": 0.0, "delegate_reduce": 0.0}
        backend = self.backend
        overlay_live = overlay is not None and not overlay.empty
        tracer = get_tracer()
        run_started = now_s()

        while program.max_levels is None or level < program.max_levels:
            plan_started = now_s()
            if not frontier.advance():
                break
            level += 1
            if level > opts.max_iterations:
                raise RuntimeError(
                    f"{program.name} exceeded max_iterations={opts.max_iterations}; "
                    "the graph or the engine state is inconsistent"
                )
            # The finalize replaces the frontier arrays; keep the input ones.
            pre_frontier = frontier.capture() if overlay_live else None
            plan = self._plan(frontier, communicator, level, wall)
            plan_done = now_s()
            wall["kernels"] += plan_done - plan_started
            if tracer.enabled:
                tracer.record_span(
                    "plan+direction", cat="engine", start=plan_started,
                    dur=plan_done - plan_started,
                    args={"level": level, "pulls": _plan_pulls(plan)},
                )
            record = backend.run_super_step(plan)
            if overlay_live:
                relax_started = now_s()
                frontier.relax(overlay, pre_frontier, level, record)
                relax_done = now_s()
                wall["kernels"] += relax_done - relax_started
                if tracer.enabled:
                    tracer.record_span(
                        "overlay-relax", cat="engine", start=relax_started,
                        dur=relax_done - relax_started, args={"level": level},
                    )
            if tracer.enabled:
                tracer.record_span(
                    "super-step", cat="engine", start=plan_started,
                    dur=now_s() - plan_started,
                    args={"level": level, "program": program.name, **frontier.span_args},
                )
            records.append(record)
            total_edges += record.total_edges_examined()
            timing.computation += record.computation_s * 1e3
            timing.local_communication += record.local_communication_s * 1e3
            timing.remote_normal_exchange += record.remote_normal_exchange_s * 1e3
            timing.remote_delegate_reduce += record.remote_delegate_reduce_s * 1e3
            timing.elapsed_ms += record.elapsed_s * 1e3
            timing.per_iteration.append(record)

        timing.iterations = len(records)
        wall["traversal"] = now_s() - run_started
        if tracer.enabled:
            tracer.record_span(
                "traversal", cat="engine", start=run_started, dur=wall["traversal"],
                args={
                    "program": program.name,
                    "iterations": len(records),
                    **frontier.span_args,
                },
            )
        return {
            "iterations": len(records),
            "records": records,
            "timing": timing,
            "comm_stats": communicator.stats,
            "total_edges_examined": total_edges,
            "num_directed_edges": self.graph.num_directed_edges,
            "wall_s": wall,
        }

    def _plan(
        self,
        frontier: "StepFrontier",
        communicator: Communicator,
        level: int,
        wall: dict,
    ) -> SuperStepPlan:
        """Describe one super-step as a backend-executable plan.

        The frontier emits one :class:`repro.exec.GPUPlan` of pure-data
        kernel tasks per GPU.  The plan's ``finalize`` closure is the serial
        half of the step, always run on the coordinating process, so
        results, counters and modeled times are identical under every
        backend.
        """
        frontier.begin_step()
        gpu_plans = [frontier.plan_gpu(g) for g in range(self.graph.num_gpus)]

        def finalize(outputs: list) -> IterationRecord:
            return self._finalize(frontier, communicator, level, wall, outputs)

        return SuperStepPlan(
            level=level,
            batched=frontier.batched,
            gpu_plans=gpu_plans,
            finalize=finalize,
            wall=wall,
            dense_delegate=frontier.dense_delegate,
            provider=self.provider,
        )

    def _finalize(
        self,
        frontier: "StepFrontier",
        communicator: Communicator,
        level: int,
        wall: dict,
        outputs: list,
    ) -> IterationRecord:
        """Account and fold kernel outputs, exchange, reduce: the serial half."""
        opts = self.options
        netmodel = self.netmodel
        tracer = get_tracer()
        fold_started = now_s()
        comp = frontier.comp
        edges_examined = {"nn": 0, "nd": 0, "dn": 0, "dd": 0}
        frontier.edges_examined = edges_examined
        for g, outs in enumerate(outputs):
            for kernel in frontier.fold_order:
                out = outs.get(kernel)
                if out is not None:
                    comp[g] += netmodel.traversal_time(
                        out.edges_examined, backward=out.backward
                    )
                    edges_examined[kernel] += out.edges_examined
            frontier.fold(g, outs, level)

        exchange_started = now_s()
        wall["kernels"] += exchange_started - fold_started
        if tracer.enabled:
            tracer.record_span(
                "fold", cat="engine", start=fold_started,
                dur=exchange_started - fold_started, args={"level": level},
            )
        exchange, discovered = frontier.exchange(communicator, level)

        reduce_started = now_s()
        wall["exchange"] += reduce_started - exchange_started
        if tracer.enabled:
            tracer.record_span(
                "nn-exchange", cat="engine", start=exchange_started,
                dur=reduce_started - exchange_started, args={"level": level},
            )
        reduced, reduce_local_s, reduce_global_s, found = frontier.reduce(
            communicator, level
        )
        reduce_done = now_s()
        wall["delegate_reduce"] += reduce_done - reduce_started
        if tracer.enabled:
            tracer.record_span(
                "delegate-reduce", cat="engine", start=reduce_started,
                dur=reduce_done - reduce_started, args={"level": level},
            )

        # Modeled timing for this super-step.
        computation_s = float(comp.max()) if comp.size else 0.0
        local_comm_s = exchange.local_time_s + reduce_local_s
        remote_normal_s = exchange.remote_time_s
        remote_delegate_s = reduce_global_s
        comm_total = local_comm_s + remote_normal_s + remote_delegate_s
        overlap = opts.overlap_efficiency * min(computation_s, comm_total)
        elapsed_s = computation_s + comm_total - overlap

        return IterationRecord(
            iteration=level,
            normal_frontier_size=frontier.sizes[0],
            delegate_frontier_size=frontier.sizes[1],
            edges_examined=edges_examined,
            directions=frontier.directions,
            discovered=discovered + found,
            delegate_reduce=reduced,
            computation_s=computation_s,
            local_communication_s=local_comm_s,
            remote_normal_exchange_s=remote_normal_s,
            remote_delegate_reduce_s=remote_delegate_s,
            elapsed_s=elapsed_s,
        )


#: The CSR a backward pull of each DO-capable kernel scans (its reverse
#: edges); also the kernel whose candidates size the paper's BV estimate.
_REVERSE = {"nd": "dn", "dn": "nd", "dd": "dd"}


def _empty() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _or_merge(rows: list, words: list, nwords: int) -> tuple:
    """Deduplicate lane-word rows, OR-combining the words of repeated rows."""
    unique, inverse = np.unique(np.concatenate(rows), return_inverse=True)
    merged = np.zeros((unique.size, nwords), dtype=np.uint64)
    np.bitwise_or.at(merged, inverse, np.concatenate(words))
    return unique, merged


class StepFrontier:
    """A frontier representation the super-step driver advances.

    :meth:`TraversalEngine.run_steps` owns the loop, the accounting and the
    tracing; a frontier owns the per-vertex state and answers the driver's
    hooks, in this order per step:

    ``advance()``
        Select the step's input frontier; ``False`` ends the run.  Programs
        that schedule their own steps (delta-stepping buckets, PageRank
        sweeps) override it.
    ``capture()``
        With a live overlay: snapshot the input frontier.
    ``begin_step()`` then ``plan_gpu(g)`` per GPU
        Per-step shared buffers, then one GPU's visit tasks.  The default
        :meth:`plan_gpu` is the traversal plan skeleton; it asks the
        representation for queues, candidates, workloads and task specs.
    ``fold(g, outputs, level)``, ``exchange(...)``, ``reduce(...)``
        The finalize stages, after the driver has accounted every kernel's
        edges and modeled computation into :attr:`comp` (summed in
        :attr:`fold_order`) and :attr:`edges_examined`.
    ``relax(overlay, captured, level, record)``
        With a live overlay: relax the overlay edges leaving the captured
        frontier.

    A step's plan also reads :attr:`dense_delegate` (the replicated
    delegate frontier backward pulls test) and its record reads
    :attr:`sizes` (input normal and delegate frontier sizes) and
    :attr:`directions` (backward kernels per DO-capable subgraph).
    """

    #: Whether plans carry lane-word (batched) tasks.
    batched = False
    #: Kernel order of the per-GPU modeled-computation sums.
    fold_order = ("nn", "nd", "dn", "dd")

    def __init__(self, engine: TraversalEngine, program, direction_ok: bool) -> None:
        self.engine = engine
        self.program = program
        self.graph = engine.graph
        self.netmodel = engine.netmodel
        self.provider = engine.provider
        self.degrees = engine._degrees
        opts = engine.options
        # Backward pulls need the options' DO switch and a representation
        # for which they are meaningful; disabled states always push.
        self.pull_ok = opts.direction_optimized and direction_ok
        self.dirs = {
            kind: [
                DirectionState(getattr(opts, f"{kind}_factors"), enabled=self.pull_ok)
                for _ in range(self.graph.num_gpus)
            ]
            for kind in _REVERSE
        }
        #: Extra arguments of this run's ``super-step``/``traversal`` spans.
        self.span_args: dict = {}

    # ---- driver hooks -------------------------------------------------- #
    def advance(self) -> bool:
        raise NotImplementedError

    def capture(self) -> list:
        raise NotImplementedError

    def relax(self, overlay, segments: list, level: int, record: IterationRecord) -> None:
        raise NotImplementedError

    def begin_step(self) -> None:
        self.comp = np.zeros(self.graph.num_gpus, dtype=np.float64)
        self.directions = {"nd": 0, "dn": 0, "dd": 0}

    # ---- the traversal plan skeleton ----------------------------------- #
    def plan_gpu(self, g: int) -> GPUPlan:
        """One GPU's visit tasks for a traversal step.

        nn always pushes.  nd, dn and dd each compare their forward workload
        with the representation's backward workload and keep or switch
        direction (paper §IV-B), in the fixed nd → dn → dd order the
        stateful :class:`DirectionState` objects rely on.
        """
        graph = self.graph
        part = graph.gpus[g]
        deg = self.degrees[g]
        d = graph.num_delegates
        self.comp[g] = self.netmodel.iteration_overhead() + self.netmodel.filter_time(
            2 * self.normal_size(g) + 2 * self.delegate_size
        )
        visits = [self.forward_spec("nn", self.queue(g, "nn")[1])]

        # Shared backward candidate sets: the delegates and the nd source
        # slots that can still be reached (only pulls ever read them).
        if self.pull_ok and d:
            open_d = self.open_delegates
            cand = {
                "nd": open_d[part.dn_source_mask[open_d]],
                "dd": open_d[part.dd_source_mask[open_d]],
            }
        else:
            cand = {"nd": _empty(), "dd": _empty()}
        nd_src = part.nd_source_list
        cand["dn"] = (
            nd_src[self.open_normals(g, nd_src)]
            if self.pull_ok and nd_src.size
            else _empty()
        )

        dense_normal = None
        for kernel in _REVERSE:
            if not d or (kernel == "dn" and not part.num_local):
                continue
            rows, queue = self.queue(g, kernel)
            forward = int(deg[kernel][rows].sum()) if rows.size else 0
            backward = self.backward_workload(g, kernel, cand, deg)
            if self.dirs[kernel][g].decide(forward, backward):
                self.directions[kernel] += 1
                if kernel == "nd":
                    # A backward nd pull scans the reverse edges (the dn
                    # CSR) against this GPU's dense normal frontier.
                    dense_normal = self.normal_dense(g)
                visits.append(self.backward_spec(g, kernel, cand[kernel]))
            else:
                visits.append(self.forward_spec(kernel, queue))
        return GPUPlan(gpu=g, visits=visits, dense_normal=dense_normal)

    # ---- shared helpers ------------------------------------------------ #
    def _global_ids(self, g: int, rows: np.ndarray) -> np.ndarray:
        """Global ids of local slots on GPU ``g`` (``g < 0``: delegate ids)."""
        if g < 0:
            return self.graph.delegate_vertices[rows]
        return self.graph.gpus[g].global_ids_of_locals(rows)

    def _by_owner(self, ids: np.ndarray):
        """Yield ``(gpu, mask, local slots)`` of normal vertex ids per owner."""
        if not ids.size:
            return
        layout = self.graph.layout
        owners = layout.flat_gpu_of(ids)
        slots = layout.local_index_of(ids)
        for g in np.unique(owners):
            mask = owners == g
            yield int(g), mask, slots[mask]

    def _charge_overlay(self, record: IterationRecord, edges: int) -> bool:
        """Charge examined overlay edges to the step's counters and modeled
        computation (unoverlapped — the overlay is a serial side-structure);
        returns whether there was anything to relax."""
        if edges == 0:
            return False
        record.edges_examined["overlay"] = record.edges_examined.get("overlay", 0) + edges
        extra = self.netmodel.traversal_time(edges, backward=False)
        record.computation_s += extra
        record.elapsed_s += extra
        return True


class ValueFrontier(StepFrontier):
    """Value-array frontiers of a :class:`FrontierProgram` run.

    The state is a :class:`repro.core.state.TraversalState` seeded from
    ``init`` (or the program's ``init_state``): per-vertex int64 values and
    the changed-vertex frontiers.  Discoveries become values through the
    program's ``visit_value``/``accept``/``merge_remote`` hooks; delegates
    reduce as 1-bit visited masks or, for programs with a ``"values"``
    delegate channel, as combined 64-bit values.  Backward workloads use the
    paper's early-exit estimate.
    """

    def __init__(self, engine: TraversalEngine, program: FrontierProgram, init=None) -> None:
        super().__init__(engine, program, program.direction_optimized_ok)
        graph = self.graph
        if init is None:
            init = program.init_state(graph)
        d = graph.num_delegates
        self.state = TraversalState(
            graph=graph,
            normal_values=init.normal_values,
            delegate_values=init.delegate_values,
            delegate_visited=Bitmask.from_indices(
                d, np.flatnonzero(init.delegate_values != UNVISITED)
            )
            if d
            else Bitmask(0),
            normal_frontiers=init.normal_frontiers,
            delegate_frontier=init.delegate_frontier,
        )
        self.mask_channel = program.delegate_channel == "mask"
        self.needs_sources = program.payload_exchange or not self.mask_channel
        # Weighted programs gather edge weights on every forward visit (they
        # never pull: needs_weights implies direction_optimized_ok=False).
        self.weighted = getattr(program, "needs_weights", False)
        self.keep_sources = {
            "nn": program.payload_exchange,
            "nd": not self.mask_channel,
            "dn": self.needs_sources,
            "dd": not self.mask_channel,
        }

    def advance(self) -> bool:
        return not self.state.frontier_empty()

    # ---- plan ---------------------------------------------------------- #
    def begin_step(self) -> None:
        super().begin_step()
        state = self.state
        d = self.graph.num_delegates
        frontier_d = state.delegate_frontier
        flags = np.zeros(d, dtype=bool)
        if frontier_d.size:
            flags[frontier_d] = True
        self.dense_delegate = flags
        self.open_delegates = (
            state.unvisited_delegates() if self.pull_ok and d else _empty()
        )
        self.delegate_size = int(frontier_d.size)
        self.sizes = (
            int(sum(f.size for f in state.normal_frontiers)),
            self.delegate_size,
        )
        self.nn_outboxes: list[np.ndarray] = []
        self.nn_payloads: list[np.ndarray] = []
        self.out_masks: list[Bitmask] = []
        self.proposals: list[np.ndarray] = []
        self.proposals_any = False
        self.fresh_from_dn: list[np.ndarray] = []

    def normal_size(self, g: int) -> int:
        return int(self.state.normal_frontiers[g].size)

    def queue(self, g: int, kernel: str) -> tuple:
        state = self.state
        frontier = (
            state.normal_frontiers[g] if kernel in ("nn", "nd") else state.delegate_frontier
        )
        queue = self.provider.filter_frontier(frontier, self.degrees[g][kernel])
        return queue, queue

    def open_normals(self, g: int, rows: np.ndarray) -> np.ndarray:
        return self.state.normal_values[g][rows] == UNVISITED

    def backward_workload(self, g: int, kernel: str, cand: dict, deg: dict) -> float:
        q = self.normal_size(g) if kernel == "nd" else self.delegate_size
        return estimate_backward_workload(
            cand[kernel].size, q=q, s=int(cand[_REVERSE[kernel]].size)
        )

    def normal_dense(self, g: int) -> np.ndarray:
        flags = np.zeros(self.graph.gpus[g].num_local, dtype=bool)
        frontier = self.state.normal_frontiers[g]
        if frontier.size:
            flags[frontier] = True
        return flags

    def forward_spec(self, kernel: str, queue: np.ndarray) -> VisitSpec:
        return VisitSpec(
            kernel,
            kernel,
            backward=False,
            queue=queue,
            keep_sources=self.keep_sources[kernel],
            weighted=self.weighted,
        )

    def backward_spec(self, g: int, kernel: str, candidates: np.ndarray) -> VisitSpec:
        return VisitSpec(
            kernel,
            _REVERSE[kernel],
            backward=True,
            candidates=candidates,
            flags="normal" if kernel == "nd" else "delegate",
            keep_sources=self.keep_sources[kernel],
        )

    # ---- finalize ------------------------------------------------------ #
    def _value(
        self, kernel, g, level, discovered, backward=False, sources=(None, None), weights=None
    ) -> np.ndarray:
        """The program's proposed values for ``discovered``."""
        return self.program.visit_value(
            VisitContext(
                kernel=kernel,
                gpu=g,
                level=level,
                backward=backward,
                discovered=discovered,
                source_ids=sources[0],
                source_values=sources[1],
                edge_weights=weights,
            )
        )

    def _sources(self, g: int, kernel: str, out) -> tuple:
        """Global ids and program values of a kernel's discovering sources."""
        src = out.sources
        state = self.state
        if kernel in ("nn", "nd"):
            # nn/nd edges originate at local normal vertices; forward rows
            # and backward-pull hit parents are both local slots.
            ids = self.graph.gpus[g].global_ids_of_locals(src)
            vals = state.normal_values[g][src]
        else:
            # dn/dd edges originate at delegates in both directions.
            ids = self.graph.delegate_vertices[src]
            vals = state.delegate_values[src]
        return np.asarray(ids, dtype=np.int64), np.asarray(vals, dtype=np.int64)

    def _delegate_update(self, g: int, kernel: str, out, out_mask: Bitmask, level: int) -> None:
        """Fold a kernel's delegate discoveries into the g-th GPU's update.

        Mask channel: deduplicate, drop delegates whose replicated status is
        already visited (a free local filter), set bits.  Values channel:
        propose program values, keep only proposals the (replicated) current
        values would accept, and combine them into the dense per-GPU
        proposal array.
        """
        if out.discovered.size == 0:
            return
        state = self.state
        if self.mask_channel:
            found = np.unique(out.discovered)
            # Drop delegates that are already visited (their status is
            # replicated, so this local filter needs no communication
            # and avoids pointless mask reductions).
            found = found[~self.provider.bitmask_test_many(state.delegate_visited, found)]
            if found.size:
                self.provider.bitmask_set_many(out_mask, found)
            return
        ids = np.asarray(out.discovered, dtype=np.int64)
        vals = self._value(
            kernel, g, level, ids, out.backward, self._sources(g, kernel, out), out.weights
        )
        keep = self.program.accept(state.delegate_values[ids], vals)
        ids, vals = ids[keep], vals[keep]
        if ids.size:
            self.program.combine.at(self.proposals[g], ids, vals)
            self.proposals_any = True

    def fold(self, g: int, outs: dict, level: int) -> None:
        program = self.program
        d = self.graph.num_delegates
        out_mask = Bitmask(d)
        if not self.mask_channel:
            self.proposals.append(np.full(d, program.combine_identity, dtype=np.int64))
        out_nn = outs["nn"]
        self.nn_outboxes.append(out_nn.discovered)
        if program.payload_exchange:
            self.nn_payloads.append(
                self._value(
                    "nn", g, level, out_nn.discovered,
                    sources=self._sources(g, "nn", out_nn), weights=out_nn.weights,
                )
            )
        if d:
            self._delegate_update(g, "nd", outs["nd"], out_mask, level)
        newly_local = newly_local_values = _empty()
        out_dn = outs.get("dn")
        if out_dn is not None:
            newly_local = out_dn.discovered
            if newly_local.size:
                sources = self._sources(g, "dn", out_dn) if self.needs_sources else (None, None)
                newly_local_values = self._value(
                    "dn", g, level, newly_local, out_dn.backward, sources, out_dn.weights
                )
        if d:
            self._delegate_update(g, "dd", outs["dd"], out_mask, level)
        slots, values = program.merge_remote(newly_local, newly_local_values)
        self.fresh_from_dn.append(
            self.state.update_normals(g, slots, values, program.accept)
        )
        self.out_masks.append(out_mask)

    def exchange(self, communicator: Communicator, level: int) -> tuple:
        opts = self.engine.options
        program = self.program
        state = self.state
        exchange = communicator.exchange_normals(
            self.nn_outboxes,
            local_all2all=opts.local_all2all,
            uniquify=opts.uniquify,
            payloads=self.nn_payloads if program.payload_exchange else None,
            payload_combine=program.combine,
            payload_identity=program.combine_identity,
        )
        discovered = 0
        for g, inbox in enumerate(exchange.inboxes):
            if program.payload_exchange:
                inbox_values = exchange.payload_inboxes[g]
            else:
                inbox_values = self._value("recv", g, level, inbox)
            slots, values = program.merge_remote(inbox, inbox_values)
            fresh_recv = state.update_normals(g, slots, values, program.accept)
            fresh_dn = self.fresh_from_dn[g]
            if fresh_dn.size or fresh_recv.size:
                state.normal_frontiers[g] = np.union1d(fresh_dn, fresh_recv)
            else:
                state.normal_frontiers[g] = _empty()
            discovered += int(state.normal_frontiers[g].size)
        return exchange, discovered

    def reduce(self, communicator: Communicator, level: int) -> tuple:
        opts = self.engine.options
        program = self.program
        state = self.state
        if self.mask_channel and any(mask.any() for mask in self.out_masks):
            reduce = communicator.allreduce_delegate_masks(
                self.out_masks, blocking=opts.blocking_reduce
            )
            ids = reduce.merged.and_not(state.delegate_visited).to_indices()
            fresh = state.update_delegates(
                ids,
                np.full(ids.size, program.level_value(level), dtype=np.int64),
                program.accept,
            )
        elif not self.mask_channel and self.proposals_any:
            reduce = communicator.allreduce_delegate_values(
                self.proposals, combine=program.combine, blocking=opts.blocking_reduce
            )
            candidates = np.flatnonzero(reduce.merged != program.combine_identity)
            fresh = state.update_delegates(
                candidates, reduce.merged[candidates], program.accept
            )
        else:
            state.delegate_frontier = _empty()
            return False, 0.0, 0.0, 0
        state.delegate_frontier = fresh
        return True, reduce.local_time_s, reduce.global_time_s, int(fresh.size)

    # ---- overlay ------------------------------------------------------- #
    def capture(self) -> list:
        state = self.state
        segments = [
            (g, slots) for g, slots in enumerate(state.normal_frontiers) if slots.size
        ]
        if state.delegate_frontier.size:
            segments.append((-1, state.delegate_frontier))
        return segments

    def relax(self, overlay, segments: list, level: int, record: IterationRecord) -> None:
        """Relax the overlay edges leaving the step's input frontier.

        Runs on the coordinator after the planned kernels finish (so it is
        backend-invariant), proposes values through the program's
        ``visit_value``/``accept`` hooks exactly like a kernel discovery
        would, and merges fresh vertices into the next frontier.  Source
        values are read after the step, as a kernel of the next step would.
        """
        if not segments:
            return
        graph, state, program = self.graph, self.state, self.program
        src_ids = np.concatenate([self._global_ids(g, rows) for g, rows in segments])
        src_vals = np.concatenate([
            state.normal_values[g][rows] if g >= 0 else state.delegate_values[rows]
            for g, rows in segments
        ])
        weights = None
        if self.weighted:
            dst, rep_ids, rep_vals, weights, edges = overlay.propagate_weighted(
                src_ids, src_vals
            )
        else:
            dst, rep_ids, rep_vals, edges = overlay.propagate(src_ids, src_vals)
        if not self._charge_overlay(record, edges):
            return
        values = self._value(
            "overlay", -1, level, dst, sources=(rep_ids, rep_vals), weights=weights
        )
        ids, vals = program.merge_remote(dst, values)
        delegate_ids = graph.delegate_id_of_vertex(ids)
        is_delegate = delegate_ids >= 0
        fresh = state.update_delegates(
            delegate_ids[is_delegate], vals[is_delegate], program.accept
        )
        if fresh.size:
            state.delegate_frontier = np.union1d(state.delegate_frontier, fresh)
            record.discovered += int(fresh.size)
        normal_vals = vals[~is_delegate]
        for g, mask, slots in self._by_owner(ids[~is_delegate]):
            fresh = state.update_normals(g, slots, normal_vals[mask], program.accept)
            if fresh.size:
                state.normal_frontiers[g] = np.union1d(state.normal_frontiers[g], fresh)
                record.discovered += int(fresh.size)


class LaneFrontier(StepFrontier):
    """Lane-word frontiers of a :class:`BatchedFrontierProgram` run.

    Per GPU, a :class:`BatchBitmask` over the local normal slots plus the
    (rows, words) frontier of the last super-step's discoveries; replicated,
    the delegate batch mask and frontier.  Forward tasks OR-propagate the
    source rows' words, backward tasks collect the full parent lists (no
    early exit — each lane needs its own parents, so the backward workload
    is exact), the exchange ships (vertex, source-bitset) pairs and one 2-D
    delegate reduction serves the whole batch.
    """

    batched = True

    def __init__(self, engine: TraversalEngine, program: BatchedFrontierProgram) -> None:
        super().__init__(engine, program, direction_ok=True)
        graph = self.graph
        width = program.width
        self.width = width
        self.nwords = nwords = (width + 63) // 64
        self.span_args = {"width": width}
        # Lane-word mask of the valid lanes in the last word (the padding
        # lanes beyond B must never go hot).
        self.full_words = np.full(nwords, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        if width & 63:
            self.full_words[-1] = np.uint64((1 << (width & 63)) - 1)

        self.visited_n = [BatchBitmask(gpu.num_local, width) for gpu in graph.gpus]
        self.visited_d = BatchBitmask(graph.num_delegates, width)
        lanes = np.arange(width, dtype=np.int64)
        sources = np.asarray(program.sources, dtype=np.int64)
        delegate_ids = graph.separation.delegate_id_of[sources]
        is_delegate = delegate_ids >= 0
        if is_delegate.any():
            self.visited_d.set_lanes(
                np.asarray(delegate_ids[is_delegate], dtype=np.int64), lanes[is_delegate]
            )
        owners = graph.layout.flat_gpu_of(sources[~is_delegate])
        slots = graph.layout.local_index_of(sources[~is_delegate])
        for g in np.unique(owners):
            mask = owners == g
            self.visited_n[int(g)].set_lanes(
                np.asarray(slots[mask], dtype=np.int64), lanes[~is_delegate][mask]
            )
        # The initial frontiers are exactly the seeds (nothing else is set).
        self.frontier_n_rows = [mask.nonzero_rows() for mask in self.visited_n]
        self.frontier_n_words = [
            mask.get_rows(rows) for mask, rows in zip(self.visited_n, self.frontier_n_rows)
        ]
        self.frontier_d_rows = self.visited_d.nonzero_rows()
        self.frontier_d_words = (
            self.visited_d.get_rows(self.frontier_d_rows)
            if self.frontier_d_rows.size
            else np.zeros((0, nwords), dtype=np.uint64)
        )

    def advance(self) -> bool:
        if self.frontier_d_rows.size:
            return True
        return any(rows.size for rows in self.frontier_n_rows)

    def _no_words(self) -> np.ndarray:
        return np.zeros((0, self.nwords), dtype=np.uint64)

    def _claim(self, visited: BatchBitmask, rows, proposed, ids_of, level: int) -> tuple:
        """Set the lanes of ``proposed`` not yet in ``visited`` and record
        them as first visits; returns the (rows, words) that were new."""
        new = proposed & np.bitwise_not(visited.words[rows]) & self.full_words[None, :]
        keep = new.any(axis=1)
        rows, new = rows[keep], new[keep]
        if rows.size:
            visited.or_rows(rows, new)
            self.program.record(ids_of(rows), new, level)
        return rows, new

    # ---- plan ---------------------------------------------------------- #
    def begin_step(self) -> None:
        super().begin_step()
        graph = self.graph
        d = graph.num_delegates
        full = self.full_words[None, :]
        rows_d = self.frontier_d_rows
        dense = np.zeros((d, self.nwords), dtype=np.uint64)
        if rows_d.size:
            dense[rows_d] = self.frontier_d_words
        self.dense_delegate = dense
        # Lanes each delegate / local slot still wants; only the
        # delegate-coupled kernels read them, so the all-normal partition
        # never pays for them.
        self.wanted_d = (
            np.bitwise_and(np.bitwise_not(self.visited_d.words), full)
            if d
            else self._no_words()
        )
        self.wanted_n = [
            np.bitwise_and(np.bitwise_not(mask.words), full) if d else self._no_words()
            for mask in self.visited_n
        ]
        self.open_delegates = (
            np.flatnonzero(self.wanted_d.any(axis=1)).astype(np.int64)
            if self.pull_ok and d
            else _empty()
        )
        self.delegate_size = int(rows_d.size)
        self.sizes = (int(sum(r.size for r in self.frontier_n_rows)), self.delegate_size)
        self.outboxes: list[np.ndarray] = []
        self.outbox_words: list[np.ndarray] = []
        self.update_masks: list[BatchBitmask] = []
        self.fresh_dn: list[tuple] = []

    def normal_size(self, g: int) -> int:
        return int(self.frontier_n_rows[g].size)

    def queue(self, g: int, kernel: str) -> tuple:
        if kernel in ("nn", "nd"):
            rows, words = self.frontier_n_rows[g], self.frontier_n_words[g]
        else:
            rows, words = self.frontier_d_rows, self.frontier_d_words
        queue = self.provider.batched_filter_frontier(rows, words, self.degrees[g][kernel])
        return queue[0], queue

    def open_normals(self, g: int, rows: np.ndarray) -> np.ndarray:
        return self.wanted_n[g][rows].any(axis=1)

    def backward_workload(self, g: int, kernel: str, cand: dict, deg: dict) -> int:
        # A batched pull has no early exit, so its workload is not the
        # paper's expected-first-hit estimate but the exact full parent
        # lists of the candidates — computable from the reverse CSR.
        rows = cand[kernel]
        return int(deg[_REVERSE[kernel]][rows].sum()) if rows.size else 0

    def normal_dense(self, g: int) -> np.ndarray:
        dense = np.zeros((self.graph.gpus[g].num_local, self.nwords), dtype=np.uint64)
        rows = self.frontier_n_rows[g]
        if rows.size:
            dense[rows] = self.frontier_n_words[g]
        return dense

    def forward_spec(self, kernel: str, queue: tuple) -> BatchedVisitSpec:
        return BatchedVisitSpec(kernel, kernel, backward=False, rows=queue[0], words=queue[1])

    def backward_spec(self, g: int, kernel: str, candidates: np.ndarray) -> BatchedVisitSpec:
        wanted = self.wanted_n[g] if kernel == "dn" else self.wanted_d
        return BatchedVisitSpec(
            kernel,
            _REVERSE[kernel],
            backward=True,
            candidates=candidates,
            wanted=wanted[candidates],
            parents="normal" if kernel == "nd" else "delegate",
        )

    # ---- finalize ------------------------------------------------------ #
    def _propose_delegates(self, update: BatchBitmask, out) -> None:
        """Fold a kernel's delegate discoveries into this GPU's update,
        dropping lanes already visited (the free replicated-status filter,
        exactly as the sequential mask channel does)."""
        if out.discovered.size == 0:
            return
        words = out.words & self.wanted_d[out.discovered]
        keep = words.any(axis=1)
        if keep.any():
            update.or_rows(out.discovered[keep], words[keep])

    def fold(self, g: int, outs: dict, level: int) -> None:
        d = self.graph.num_delegates
        update = BatchBitmask(d, self.width)
        out_nn = outs["nn"]
        self.outboxes.append(out_nn.discovered)
        self.outbox_words.append(out_nn.words)
        if d:
            self._propose_delegates(update, outs["nd"])
        fresh = (_empty(), self._no_words())
        out_dn = outs.get("dn")
        if out_dn is not None and out_dn.discovered.size:
            fresh = self._claim(
                self.visited_n[g], out_dn.discovered, out_dn.words,
                self.graph.gpus[g].global_ids_of_locals, level,
            )
        if d:
            self._propose_delegates(update, outs["dd"])
        self.update_masks.append(update)
        self.fresh_dn.append(fresh)

    def exchange(self, communicator: Communicator, level: int) -> tuple:
        exchange = communicator.exchange_batch(self.outboxes, self.outbox_words)
        discovered = 0
        for g, inbox in enumerate(exchange.inboxes):
            rows, proposed = _or_merge([inbox], [exchange.word_inboxes[g]], self.nwords)
            rows, words = self._claim(
                self.visited_n[g], rows, proposed,
                self.graph.gpus[g].global_ids_of_locals, level,
            )
            fresh_rows, fresh_words = self.fresh_dn[g]
            self.frontier_n_rows[g], self.frontier_n_words[g] = _or_merge(
                [fresh_rows, rows], [fresh_words, words], self.nwords
            )
            discovered += int(self.frontier_n_rows[g].size)
        return exchange, discovered

    def reduce(self, communicator: Communicator, level: int) -> tuple:
        if not any(mask.any() for mask in self.update_masks):
            self.frontier_d_rows, self.frontier_d_words = _empty(), self._no_words()
            return False, 0.0, 0.0, 0
        reduce = communicator.allreduce_delegate_batch(
            self.update_masks, blocking=self.engine.options.blocking_reduce
        )
        new_bits = reduce.merged.and_not(self.visited_d)
        rows = new_bits.nonzero_rows()
        words = new_bits.words[rows]
        self.visited_d.or_with(new_bits)
        self.frontier_d_rows, self.frontier_d_words = rows, words
        if rows.size:
            self.program.record(self.graph.delegate_vertices[rows], words, level)
        return True, reduce.local_time_s, reduce.global_time_s, int(rows.size)

    # ---- overlay ------------------------------------------------------- #
    def capture(self) -> list:
        segments = [
            (g, rows, self.frontier_n_words[g])
            for g, rows in enumerate(self.frontier_n_rows)
            if rows.size
        ]
        if self.frontier_d_rows.size:
            segments.append((-1, self.frontier_d_rows, self.frontier_d_words))
        return segments

    def relax(self, overlay, segments: list, level: int, record: IterationRecord) -> None:
        """Lane-word overlay relaxation: OR-propagate the input frontier's
        words across the overlay edges and record first visits per lane,
        keeping every lane bit-identical to its sequential run on the same
        mutable graph."""
        if not segments:
            return
        graph, nwords = self.graph, self.nwords
        dst, words, edges = overlay.propagate_batch(
            np.concatenate([self._global_ids(g, rows) for g, rows, _ in segments]),
            np.concatenate([w for _, _, w in segments]),
            nwords,
        )
        if not self._charge_overlay(record, edges):
            return
        delegate_ids = graph.delegate_id_of_vertex(dst)
        is_delegate = delegate_ids >= 0
        if is_delegate.any():
            rows, new = self._claim(
                self.visited_d, delegate_ids[is_delegate], words[is_delegate],
                graph.delegate_vertices.__getitem__, level,
            )
            if rows.size:
                self.frontier_d_rows, self.frontier_d_words = _or_merge(
                    [self.frontier_d_rows, rows], [self.frontier_d_words, new], nwords
                )
                record.discovered += int(rows.size)
        normal_words = words[~is_delegate]
        for g, mask, slots in self._by_owner(dst[~is_delegate]):
            rows, new = self._claim(
                self.visited_n[g], slots, normal_words[mask],
                graph.gpus[g].global_ids_of_locals, level,
            )
            if rows.size:
                self.frontier_n_rows[g], self.frontier_n_words[g] = _or_merge(
                    [self.frontier_n_rows[g], rows], [self.frontier_n_words[g], new], nwords
                )
                record.discovered += int(rows.size)


class DistributedBFS:
    """Distributed breadth-first search over a degree-separated partitioning.

    The seed API, kept verbatim: a thin wrapper running
    :class:`repro.core.programs.BFSLevels` through the generic
    :class:`TraversalEngine` with identical answers and modeled timings.

    Parameters
    ----------
    graph:
        The partitioned graph produced by
        :func:`repro.partition.build_partitions`.
    options:
        Runtime options (direction optimization, exchange optimizations,
        reduction flavour, switching factors).
    hardware:
        Machine parameters for the performance model; defaults to the paper's
        Ray system.

    Examples
    --------
    >>> from repro.graph import generate_rmat
    >>> from repro.partition import ClusterLayout, build_partitions
    >>> edges = generate_rmat(10, rng=7)
    >>> layout = ClusterLayout(num_ranks=2, gpus_per_rank=2)
    >>> graph = build_partitions(edges, layout, threshold=32)
    >>> bfs = DistributedBFS(graph)
    >>> result = bfs.run(source=0)
    >>> int(result.distances[0])
    0
    """

    def __init__(
        self,
        graph: PartitionedGraph,
        options: BFSOptions | None = None,
        hardware: HardwareSpec | None = None,
        backend=None,
        kernels=None,
    ) -> None:
        self.engine = TraversalEngine(
            graph, options=options, hardware=hardware, backend=backend, kernels=kernels
        )

    @property
    def graph(self) -> PartitionedGraph:
        return self.engine.graph

    def close(self) -> None:
        """Release the engine's execution backend (idempotent)."""
        self.engine.close()

    @property
    def options(self) -> BFSOptions:
        return self.engine.options

    @property
    def hardware(self) -> HardwareSpec:
        return self.engine.hardware

    @property
    def netmodel(self) -> NetworkModel:
        return self.engine.netmodel

    @property
    def topology(self) -> ClusterTopology:
        return self.engine.topology

    def run(self, source: int) -> BFSResult:
        """Run one BFS from ``source`` and return distances plus metrics."""
        return self.engine.run(BFSLevels(source=int(source)))

    def run_many(
        self, sources: np.ndarray | list[int], batch_size: int | None = None
    ) -> "Campaign":
        """Run BFS from several sources (the paper reports 140 per data point).

        Returns a :class:`repro.core.campaign.Campaign`, an aggregating
        sequence of the per-source results (indexable and iterable like the
        plain list earlier versions returned).  Duplicate sources are
        traversed once and fanned back out (``campaign.saved_traversals``
        counts the skips); ``batch_size >= 2`` routes the unique sources
        through the batched MS-BFS path.
        """
        return self.engine.run_many(
            [
                BFSLevels(source=int(s))
                for s in np.asarray(sources, dtype=np.int64).ravel()
            ],
            batch_size=batch_size,
        )
