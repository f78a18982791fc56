"""Deterministic fixed-point PageRank over the partitioned engine.

Rank mass travels as ``int64`` fixed-point integers (one rank unit =
``SCALE``), and every fold along the way — the per-edge contribution
scatter, the exchange payload combine, the delegate all-reduce — is an
integer add.  Integer addition is associative and commutative, so the
answer is bit-identical regardless of which backend, kernel provider or
storage tier ran the sweep, and regardless of arrival order.  The
damping multiply is exact too: :func:`damped` splits the operand with a
``divmod`` so no intermediate exceeds ``2**54``.

Two modes share the machinery:

* ``"fixed"`` — the textbook power sweep, run for exactly
  ``iterations`` rounds.  Every vertex with out-edges contributes
  ``damped(rank) // outdeg`` along each edge; dangling mass is spread
  uniformly.
* ``"push"`` — residual push: vertices accumulate rank monotonically
  and only push when their un-propagated residual crosses ``eps``;
  the sweep stops when no vertex is active.  Work scales with how much
  mass still moves instead of with the vertex count.

PageRank runs on weighted and unweighted graphs alike — the paper's
contribution model is degree-based, so edge weights are ignored.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import StepFrontier
from repro.exec.plan import GPUPlan, VisitSpec
from repro.weighted.results import PageRankResult

__all__ = ["PageRank", "SCALE", "DAMP_DEN", "damped"]

#: Fixed-point scale of one rank unit (a probability of 1.0).
SCALE = 1 << 34
#: Denominator of the damping fraction (damping is rounded to 1/2^20).
DAMP_DEN = 1 << 20


def damped(x, damp_num: int):
    """``x * damping`` exactly, in integers, overflow-free.

    ``x`` is at most ``SCALE`` (2^34) and ``damp_num`` at most ``DAMP_DEN``
    (2^20); splitting ``x`` with a divmod keeps every intermediate below
    ``2^54``.
    """
    q, rem = np.divmod(x, DAMP_DEN)
    return q * damp_num + (rem * damp_num) // DAMP_DEN


class PageRank:
    """PageRank driver: self-scheduled contribution sweeps.

    The engine dispatches to :meth:`drive`, which runs the engine's
    super-step driver over contribution sweeps: each round plans one
    super-step (a ``contrib_visit`` task per subgraph kernel), folds the
    received mass with integer adds, and updates the rank vector.

    Parameters
    ----------
    damping:
        Teleport damping factor in (0, 1); rounded to a multiple of
        ``1 / 2^20`` so the arithmetic stays integral.
    mode:
        ``"fixed"`` (power sweeps) or ``"push"`` (residual push).
    iterations:
        Sweep count for ``"fixed"`` mode.
    eps:
        Residual threshold for ``"push"`` mode, as a fraction of total
        rank mass: a vertex pushes when its un-propagated residual is at
        least ``eps * SCALE``.
    """

    name = "pagerank"
    needs_weights = False
    max_levels = None

    def __init__(
        self,
        damping: float = 0.85,
        mode: str = "fixed",
        iterations: int = 20,
        eps: float = 1e-7,
    ) -> None:
        damping = float(damping)
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping!r}")
        if mode not in ("fixed", "push"):
            raise ValueError(f"mode must be 'fixed' or 'push', got {mode!r}")
        iterations = int(iterations)
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations!r}")
        eps = float(eps)
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps!r}")
        self.damping = damping
        self.mode = mode
        self.iterations = iterations
        self.eps = eps
        self.damp_num = int(round(damping * DAMP_DEN))

    def drive(self, engine, init=None, overlay=None) -> PageRankResult:
        if init is not None:
            raise ValueError("pagerank does not support seeded init / repair")
        frontier = _Sweeps(engine, self, overlay)
        base = engine.run_steps(frontier)
        return PageRankResult(
            damping=self.damping,
            mode=self.mode,
            scale=SCALE,
            ranks=frontier.ranks,
            **base,
        )


class _Sweeps(StepFrontier):
    """PageRank's contribution sweeps as a frontier of the engine's driver.

    :meth:`advance` picks the contributing vertices of the next sweep;
    each step scatters their contributions along their out-edges (one
    ``contrib_visit`` task per non-empty subgraph queue), the folds add the
    received mass with integer adds, and :meth:`reduce` lands it in the
    rank vector.  Overlay edges (not yet compacted into the CSR) relax on
    the coordinator inside the step, so every backend sees the union graph.
    """

    #: The contribution fold sums modeled computation in this kernel order.
    fold_order = ("nn", "dn", "nd", "dd")

    def __init__(self, engine, program: PageRank, overlay) -> None:
        super().__init__(engine, program, direction_ok=False)
        graph = self.graph
        n = graph.num_vertices
        d = graph.num_delegates
        dv = graph.delegate_vertices
        if overlay is not None and not overlay.empty:
            self.o_src, self.o_dst, _ = overlay.edges()
        else:
            self.o_src = self.o_dst = np.zeros(0, dtype=np.int64)
        self.owned = [gpu.owned_global_ids() for gpu in graph.gpus]

        # Global out-degrees.  nn/nd rows are a GPU's owned (normal) slots
        # and live only on the owner; dn/dd rows are delegate ids and each
        # GPU holds a disjoint slice of a delegate's out-edges, so summing
        # over GPUs recovers the full degree.  Overlay edges count too.
        outdeg = np.zeros(n, dtype=np.int64)
        for g, deg in enumerate(self.degrees):
            outdeg[self.owned[g]] += deg["nn"] + deg["nd"]
            if d:
                outdeg[dv] += deg["dn"] + deg["dd"]
        if self.o_src.size:
            np.add.at(outdeg, self.o_src, 1)
        self.outdeg = outdeg
        self.nz = outdeg > 0

        self.teleport = np.int64((SCALE - int(damped(SCALE, program.damp_num))) // n)
        self.sweeps = 0
        if program.mode == "fixed":
            self.ranks = np.full(n, SCALE // n, dtype=np.int64)
        else:
            self.eps_scaled = max(1, int(round(program.eps * SCALE)))
            self.ranks = np.full(n, self.teleport, dtype=np.int64)
            self.pushed = np.zeros(n, dtype=np.int64)
        # Contribution sweeps never pull.
        self.dense_delegate = np.zeros(d, dtype=bool)

    def advance(self) -> bool:
        program = self.program
        nz, outdeg = self.nz, self.outdeg
        if program.mode == "fixed" and self.sweeps == program.iterations:
            return False
        dr = damped(self.ranks, program.damp_num)
        if program.mode == "fixed":
            self.sweeps += 1
            self.contrib = np.zeros(self.graph.num_vertices, dtype=np.int64)
            self.contrib[nz] = dr[nz] // outdeg[nz]
            self.dangling = int(dr[~nz].sum())
            self.active = nz
            return True
        self.want = np.where(nz, dr // np.maximum(outdeg, 1), dr)
        resid = self.want - self.pushed
        self.active = nz & (resid * outdeg >= self.eps_scaled)
        self.active_dangling = ~nz & (resid >= self.eps_scaled)
        if not self.active.any() and not self.active_dangling.any():
            return False
        self.contrib = np.where(self.active, resid, np.int64(0))
        self.dangling = int(resid[self.active_dangling].sum())
        return True

    # ---- plan ---------------------------------------------------------- #
    def begin_step(self) -> None:
        super().begin_step()
        graph = self.graph
        d = graph.num_delegates
        active_delegates = int(np.count_nonzero(self.active[graph.delegate_vertices])) if d else 0
        self.sizes = [0, active_delegates]
        self.local_accum = [np.zeros(gpu.num_local, dtype=np.int64) for gpu in graph.gpus]
        self.delegate_accum = [np.zeros(d, dtype=np.int64) for _ in graph.gpus]
        self.nn_outboxes: list[np.ndarray] = []
        self.nn_payloads: list[np.ndarray] = []

    def plan_gpu(self, g: int) -> GPUPlan:
        """Scatter tasks for the active rows of each of GPU ``g``'s subgraphs."""
        dv = self.graph.delegate_vertices
        deg = self.degrees[g]
        # nn/nd rows are this GPU's owned slots, dn/dd rows delegate ids.
        kernels = [("nn", self.owned[g])]
        if self.graph.num_delegates:
            kernels.append(("nd", self.owned[g]))
            if self.graph.gpus[g].num_local:
                kernels.append(("dn", dv))
            kernels.append(("dd", dv))
        visits: list[VisitSpec] = []
        for kernel, ids in kernels:
            rows = np.flatnonzero((deg[kernel] > 0) & self.active[ids])
            if rows.size:
                visits.append(
                    VisitSpec(
                        kernel,
                        kernel,
                        backward=False,
                        queue=rows,
                        keep_sources=False,
                        row_values=self.contrib[ids[rows]],
                    )
                )
        queued = sum(int(spec.queue.size) for spec in visits)
        self.comp[g] = self.netmodel.iteration_overhead() + self.netmodel.filter_time(
            2 * queued
        )
        self.sizes[0] += queued
        return GPUPlan(gpu=g, visits=visits)

    # ---- finalize ------------------------------------------------------ #
    def fold(self, g: int, outs: dict, level: int) -> None:
        out = outs.get("nn")
        empty = np.zeros(0, dtype=np.int64)
        self.nn_outboxes.append(out.discovered if out is not None else empty)
        self.nn_payloads.append(out.values if out is not None else empty)
        out = outs.get("dn")
        if out is not None:
            np.add.at(self.local_accum[g], out.discovered, out.values)
        for kernel in ("nd", "dd"):
            out = outs.get(kernel)
            if out is not None:
                np.add.at(self.delegate_accum[g], out.discovered, out.values)

    def exchange(self, communicator, level: int) -> tuple:
        opts = self.engine.options
        exchange = communicator.exchange_normals(
            self.nn_outboxes,
            local_all2all=opts.local_all2all,
            uniquify=opts.uniquify,
            payloads=self.nn_payloads,
            payload_combine=np.add,
            payload_identity=np.int64(0),
        )
        for g, inbox in enumerate(exchange.inboxes):
            if inbox.size:
                np.add.at(self.local_accum[g], inbox, exchange.payload_inboxes[g])
        return exchange, 0

    def reduce(self, communicator, level: int) -> tuple:
        graph = self.graph
        n = graph.num_vertices
        # Assemble the global received-mass vector.  Ownership is disjoint;
        # mass for delegate vertices arrives only through the nd/dd reduce.
        recv = np.zeros(n, dtype=np.int64)
        for g, owned in enumerate(self.owned):
            recv[owned] = self.local_accum[g]
        reduce_local_s = reduce_global_s = 0.0
        reduced = graph.num_delegates > 0 and any(a.any() for a in self.delegate_accum)
        if reduced:
            vreduce = communicator.allreduce_delegate_values(
                self.delegate_accum, combine=np.add,
                blocking=self.engine.options.blocking_reduce,
            )
            recv[graph.delegate_vertices] += vreduce.merged
            reduce_local_s = vreduce.local_time_s
            reduce_global_s = vreduce.global_time_s

        if self.o_src.size:
            take = self.active[self.o_src]
            overlay_edges = int(np.count_nonzero(take))
            if overlay_edges:
                np.add.at(recv, self.o_dst[take], self.contrib[self.o_src[take]])
                self.comp[0] += self.netmodel.traversal_time(overlay_edges, backward=False)
                self.edges_examined["overlay"] = overlay_edges

        # Land the sweep in the rank vector.
        spread = np.int64(self.dangling // n)
        if self.program.mode == "fixed":
            self.ranks = self.teleport + recv + spread
        else:
            self.pushed[self.active] = self.want[self.active]
            self.pushed[self.active_dangling] = self.want[self.active_dangling]
            self.ranks = self.ranks + recv + spread
        return reduced, reduce_local_s, reduce_global_s, int(np.count_nonzero(recv))
