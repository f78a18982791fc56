"""The benchmark's own spans, recorded from outside the program.

Every span sits at a call from the benchmark into one layer of ``repro``,
or at a hook the program's public interfaces accept:

* :class:`TracedEngine` is a :class:`repro.TraversalEngine` whose ``run``
  and ``run_batch`` open a ``core.run`` span (``weighted.run`` for programs
  that own their phase loop, such as delta-stepping) and keep every result
  for the workload to read its counters;
* :class:`TimingBackend` is an inline :class:`repro.exec.ExecutionBackend`
  passed as ``backend=``: it spans each super-step, its kernel stage and
  the plan's ``finalize`` (fold, exchange, delegate reduction);
* :class:`TimingProvider` is a :class:`repro.exec.KernelProvider` passed as
  ``kernels=``: it spans every call into the NumPy kernels and counts
  calls and examined edges.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans add up exactly to the duration of the outermost ones.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.core import TraversalEngine
from repro.exec import InlineBackend, KernelProvider, get_provider

clock = time.perf_counter


class SpanRecorder:
    """In-memory spans: ``(name, start_s, duration_s)`` plus per-name self time.

    ``enabled`` may be switched between spans; a disabled recorder records
    nothing and costs one attribute test per call.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[tuple[str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def begin(self, name: str) -> None:
        if self.enabled:
            self._stack.append([name, clock(), 0.0])

    def end(self) -> None:
        if not self.enabled:
            return
        ended = clock()
        name, started, children = self._stack.pop()
        duration = ended - started
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        self.events.append((name, started, duration))

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def durations(self, name: str) -> list[float]:
        """Durations of every recorded span called ``name``."""
        return [duration for span, _, duration in self.events if span == name]


class _Span:
    __slots__ = ("recorder", "name")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        self.recorder.begin(self.name)

    def __exit__(self, *exc) -> None:
        self.recorder.end()


class TracedEngine(TraversalEngine):
    """A traversal engine that spans each run and keeps its results."""

    def __init__(self, graph, spans: SpanRecorder, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self.spans = spans
        self.results: list = []

    def run(self, program, init=None, overlay=None):
        name = "weighted.run" if hasattr(program, "drive") else "core.run"
        with self.spans.span(name):
            result = super().run(program, init=init, overlay=overlay)
        self.results.append(result)
        return result

    def run_batch(self, program, overlay=None):
        with self.spans.span("core.run"):
            result = super().run_batch(program, overlay=overlay)
        self.results.append(result)
        return result

    def take_results(self) -> list:
        """The results produced since the previous call."""
        results, self.results = self.results, []
        return results


class TimingBackend(InlineBackend):
    """The inline backend, with the super-step, kernel stage and finalize spanned."""

    def __init__(self, graph, spans: SpanRecorder) -> None:
        super().__init__(graph)
        self.spans = spans

    def run_super_step(self, plan):
        finalize = plan.finalize
        spans = self.spans

        def timed_finalize(outputs):
            with spans.span("exec.finalize"):
                return finalize(outputs)

        plan.finalize = timed_finalize
        spans.count("exec.steps")
        spans.count("exec.tasks", sum(len(gpu_plan.visits) for gpu_plan in plan.gpu_plans))
        with spans.span("exec.super_step"):
            return super().run_super_step(plan)

    def _execute_kernels(self, plan):
        with self.spans.span("exec.kernel_stage"):
            return super()._execute_kernels(plan)


class TimingProvider(KernelProvider):
    """The NumPy kernel provider, with every call spanned and counted.

    Visit kernels record under ``kernels.visit``; previsit filters and
    bitmask bulk operations under ``kernels.filter``.
    """

    name = "numpy"

    def __init__(self, spans: SpanRecorder) -> None:
        self.spans = spans
        self.inner = get_provider("numpy")

    def _visit(self, method, *args):
        with self.spans.span("kernels.visit"):
            out = method(*args)
        self.spans.count("kernels.calls")
        self.spans.count("kernels.edges", int(out.edges_examined))
        return out

    def _filter(self, method, *args):
        with self.spans.span("kernels.filter"):
            return method(*args)

    def filter_frontier(self, frontier, out_degrees):
        return self._filter(self.inner.filter_frontier, frontier, out_degrees)

    def forward_visit(self, csr, frontier):
        return self._visit(self.inner.forward_visit, csr, frontier)

    def backward_visit(self, reverse_csr, candidates, parent_in_frontier):
        return self._visit(
            self.inner.backward_visit, reverse_csr, candidates, parent_in_frontier
        )

    def weighted_forward_visit(self, csr, frontier):
        return self._visit(self.inner.weighted_forward_visit, csr, frontier)

    def contrib_visit(self, csr, rows, row_values):
        return self._visit(self.inner.contrib_visit, csr, rows, row_values)

    def batched_filter_frontier(self, rows, words, out_degrees):
        return self._filter(self.inner.batched_filter_frontier, rows, words, out_degrees)

    def batched_forward_visit(self, csr, frontier_rows, frontier_words):
        return self._visit(
            self.inner.batched_forward_visit, csr, frontier_rows, frontier_words
        )

    def batched_backward_visit(self, reverse_csr, candidates, parent_words, wanted_words):
        return self._visit(
            self.inner.batched_backward_visit,
            reverse_csr, candidates, parent_words, wanted_words,
        )

    def bitmask_set_many(self, mask, indices):
        return self._filter(self.inner.bitmask_set_many, mask, indices)

    def bitmask_test_many(self, mask, indices):
        return self._filter(self.inner.bitmask_test_many, mask, indices)
