"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload graph500 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30            # every workload, one process each

One run sets up the workload's graph, makes whole passes over the
operation keys drawn from the seed until a pass ends after ``--seconds``
have gone by, checks every answer, then sets up again a few times
(``setup_s`` is the median of all set-ups).  Every repeat of a key must
give bit-identical answers and counters; failures are counted, never
raised.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

``setup_s``         median wall of one set-up (generate + partition, or
                    out-of-core build + attach);
``teps``            directed edges times answers delivered, per second of
                    operation wall: the harmonic-mean TEPS over roots and
                    kernels, or queries/s times edges when serving;
``latency_ms_p50``  median operation latency: one root's traversals, or one
                    wave of queries from admission to flush return;
``latency_ms_tail`` a fixed tail percentile of the same samples, chosen per
                    workload to leave at least ten samples beyond it;
``modeled_gteps``   the paper's modeled rate over the first pass: sources
                    traversed times directed edges over modeled cluster time;
``peak_rss_mb``     peak resident memory of the process before the checks.

``teps`` and the latencies are divided by the host's slowdown, measured in
the same run by a reference computation sampled between operations (see
``perfbench/calibrate.py``); the times as measured are printed beside them.
``setup_s`` is as measured: set-up time follows the reference too loosely
for the division to steady it.  The first set-up serves the operations; the
others run after ``peak_rss_mb`` is read, so it is one set-up's peak.

``--trace 1`` alternates untraced passes, on the plain inline engine, with
traced passes on the timing engine (at least one of each) and reports the
per-layer metrics: the counters of one pass, and the self time of each layer
over the traced set-ups and operations.  The self times plus ``other_s``
(benchmark code between calls into the program) add up to ``wall_s``;
``trace.overhead_s`` is a traced pass minus an untraced one.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    raise SystemExit(f"no repro sources under {ROOT / 'src'}; run from a source checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import repro  # noqa: E402
from perfbench.calibrate import Calibrator  # noqa: E402
from perfbench.tracing import SpanRecorder, clock  # noqa: E402
from perfbench.workloads import LAYOUT, WORKLOADS, remove_work_dir, store_bytes  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "teps": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "modeled_gteps": "GTEPS",
    "peak_rss_mb": "MB",
}

#: Layer self times; with ``other_s`` they add up to ``wall_s``.
LEDGER = {
    "graph.generate_s": "graph.generate",
    "partition.threshold_s": "partition.threshold",
    "partition.separate_s": "partition.separate",
    "partition.build_s": "partition.build",
    "storage.build_s": "storage.build",
    "storage.attach_s": "storage.attach",
    "core.self_s": "core.run",
    "weighted.self_s": "weighted.run",
    "exec.dispatch_s": "exec.super_step",
    "exec.stage_overhead_s": "exec.kernel_stage",
    "exec.finalize_s": "exec.finalize",
    "kernels.visit_s": "kernels.visit",
    "kernels.filter_s": "kernels.filter",
    "serve.self_s": "serve.flush",
}
#: The benchmark's own root spans; their self time is ``other_s``.
ROOT_SPANS = ("setup", "op")

PER_LAYER = {
    **{name: "s" for name in LEDGER},
    "other_s": "s",
    "wall_s": "s",
    "trace.overhead_s": "s",
    "graph.edges": "count",
    "partition.delegates": "count",
    "partition.csr_bytes": "B",
    "storage.store_bytes": "B",
    "core.runs": "count",
    "core.super_steps": "count",
    "core.edges_examined": "count",
    "core.step_us_p50": "us",
    "core.step_us_p99": "us",
    "exec.kernel_stage_s": "s",
    "exec.tasks_per_step": "count",
    "kernels.calls": "count",
    "kernels.edges_per_call": "count",
    "cluster.nn_bytes_remote": "B",
    "cluster.nn_messages": "count",
    "cluster.delegate_reductions": "count",
    "cluster.delegate_bytes": "B",
    "perfmodel.computation_ms": "ms",
    "perfmodel.local_comm_ms": "ms",
    "perfmodel.normal_exchange_ms": "ms",
    "perfmodel.delegate_reduce_ms": "ms",
    "weighted.phases": "count",
    "serve.flush_s": "s",
    "serve.cache_hit_rate": "frac",
    "serve.lanes_per_batch": "count",
    "serve.coalesced": "count",
    "serve.traversals": "count",
}

#: The names the end-to-end metrics go by when serving; traversal workloads
#: print their per-kernel ``bfs_*``/``sssp_*`` figures as notes.
ALIASES = {
    "serve-zipf": {"latency_ms_p50": "query_ms_p50", "latency_ms_tail": "query_ms_tail"},
}


def checksum(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=8).hexdigest()


def compact(array: np.ndarray) -> np.ndarray:
    """A lossless copy of ``array`` in the narrowest integer type that holds
    it, so the answers kept for the checks take little memory."""
    if array.dtype.kind == "i" and array.size:
        low, high = array.min(), array.max()
        for dtype in (np.int8, np.int16, np.int32):
            if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
                return array.astype(dtype)
    return array.copy()


def fingerprint(workload) -> dict:
    """What a measurement depends on besides the code."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass  # not Linux: keep the platform's name for the processor
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        "backend": "inline",
        "kernels": "numpy",
        "storage": workload.storage,
        "layout": LAYOUT,
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the timed passes, check every answer; return raw results."""
    spans = SpanRecorder(enabled=trace)
    calibrator = Calibrator()
    setup_walls = []

    def set_up():
        spans.enabled = trace
        started = clock()
        with spans.span("setup"):
            built = workload.setup(seed, spans)
        setup_walls.append(clock() - started)
        return built

    inputs = set_up()
    try:
        session = workload.session(inputs, seed, spans, trace)

        # A traced run alternates passes on the plain engine and on the timing
        # one, so the two compare.
        passes_needed = 2 if trace else 1
        samples: tuple[dict, dict] = ({}, {})  # untraced, traced: key -> latencies
        parts: dict = {}  # part of an untraced operation -> latencies
        records: dict = {}
        first_pass: list[dict] = []
        # answer key -> [compact copy of the first answer, its dtype, its
        # checksum, answers matching it]
        first: dict = {}
        answers = failed = drift = 0
        counts_pass1: dict = {}
        loop_started = clock()
        pass_index = 0
        while pass_index < passes_needed or clock() - loop_started < seconds:
            traced = trace and pass_index % 2 == 1
            spans.enabled = traced
            for key in session.keys:
                calibrator.maybe_sample()
                with spans.span("op"):
                    op = session.run_op(key, traced)
                samples[traced].setdefault(key, []).append(op.latency_s)
                if not traced:
                    for part, latency in (op.parts or {}).items():
                        parts.setdefault(part, []).append(latency)
                record = dict(op.record, answers=[])
                for answer_key, array in op.answers:
                    answers += 1
                    digest = checksum(array)
                    record["answers"].append(digest)
                    seen = first.get(answer_key)
                    if seen is None:
                        seen = first[answer_key] = [compact(array), array.dtype, digest, 0]
                    if seen[2] == digest:
                        seen[3] += 1
                    else:
                        failed += 1
                if records.setdefault(key, record) != record:
                    drift += 1
                if pass_index == 0:
                    first_pass.append(record)
            if pass_index == 1:
                counts_pass1 = dict(spans.counts)
            pass_index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spans.enabled = False

        for answer_key, (array, dtype, _, matching) in first.items():
            if not session.check(answer_key, array.astype(dtype)):
                failed += matching
        inputs_summary = {
            "edges": int(inputs.graph.num_directed_edges),
            "delegates": int(inputs.graph.num_delegates),
            "csr_bytes": int(inputs.graph.total_nbytes()),
            "store_bytes": store_bytes(inputs),
        }
        del session
    finally:
        inputs.close()
    # The other set-ups come after peak_rss_mb is read: a graph built where a
    # freed one was leaves a heap whose peak varies from run to run.
    del inputs
    try:
        for _ in range(workload.setup_reps - 1):
            gc.collect()
            set_up().close()
    finally:
        spans.enabled = False
        remove_work_dir()
    return {
        "spans": spans,
        "calibrator": calibrator,
        "setup_walls": setup_walls,
        "samples": samples,
        "parts": parts,
        "first_pass": first_pass,
        "counts_pass1": counts_pass1,
        "answers": answers,
        "distinct": len(first),
        "failed": failed + drift,
        "drift": drift,
        "peak_rss_mb": peak_rss_mb,
        "inputs": inputs_summary,
    }


def _sum_records(records: list[dict]) -> dict:
    total: dict = {}
    for record in records:
        for name, value in record.items():
            if name != "answers":
                total[name] = total.get(name, 0) + value
    return total


def end_to_end(workload, raw: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and notes on the samples they rest on.

    Operation wall times are divided by the run's host slowdown (see
    :mod:`perfbench.calibrate`), so they read as on the reference host.
    """
    samples = raw["samples"][0]
    calibrator: Calibrator = raw["calibrator"]
    slowdown = calibrator.slowdown()
    latencies = np.concatenate([samples[key] for key in samples]) / slowdown
    edges = raw["inputs"]["edges"]
    counts = _sum_records(raw["first_pass"])
    tail = workload.tail_percentile
    metrics = {
        "setup_s": statistics.median(raw["setup_walls"]),
        "teps": raw["answers"] * edges / float(latencies.sum()),
        "latency_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
        "latency_ms_tail": float(np.percentile(latencies, tail)) * 1e3,
        "modeled_gteps": counts["lanes"] * edges / (counts["perfmodel.elapsed_ms"] * 1e-3) / 1e9,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    beyond = int(np.count_nonzero(latencies > np.percentile(latencies, tail)))
    notes = [
        calibrator.summary() + "; operation wall times below are divided by it",
        f"as measured: latency_ms_p50 {metrics['latency_ms_p50'] * slowdown:.6g} ms, "
        f"teps {metrics['teps'] / slowdown:.6g} 1/s",
        f"{len(raw['setup_walls'])} set-ups (setup_s is their median: "
        f"{', '.join(f'{wall:.4g}' for wall in raw['setup_walls'])} s); {latencies.size} "
        f"operations over {len(samples)} keys, {raw['answers'] / latencies.size:g} answers each; "
        f"latency_ms_tail is p{tail:g}, with {beyond} samples beyond it",
    ]
    answers_per_s = raw["answers"] / latencies.sum()
    notes.append(f"answers_per_s {answers_per_s:.6g} 1/s (serve_qps when serving)")
    for part, walls in raw["parts"].items():
        walls = np.asarray(walls) / slowdown
        notes.append(
            f"{part}: {part}_ms_p50 {np.percentile(walls, 50) * 1e3:.6g} ms, "
            f"{part}_ms_p{tail:g} {np.percentile(walls, tail) * 1e3:.6g} ms, "
            f"{part}_teps {walls.size * edges / walls.sum():.6g} 1/s (n={walls.size})"
        )
    return metrics, notes


def per_layer(raw: dict) -> dict:
    spans: SpanRecorder = raw["spans"]
    counts = _sum_records(raw["first_pass"])
    wrapped = raw["counts_pass1"]
    steps = np.asarray(spans.durations("exec.super_step")) * 1e6
    metrics = {name: spans.self_s.get(span, 0.0) for name, span in LEDGER.items()}
    metrics["other_s"] = sum(spans.self_s.get(span, 0.0) for span in ROOT_SPANS)
    metrics["wall_s"] = sum(sum(spans.durations(span)) for span in ROOT_SPANS)
    unattributed = set(spans.self_s) - set(LEDGER.values()) - set(ROOT_SPANS)
    attributed = sum(metrics[name] for name in LEDGER) + metrics["other_s"]
    if unattributed or abs(attributed - metrics["wall_s"]) > 1e-9 * (1 + metrics["wall_s"]):
        raise RuntimeError(f"span ledger does not close: {sorted(unattributed)}")
    untraced, traced = raw["samples"]
    both = [key for key in traced if key in untraced]
    hits, misses = counts.get("serve.cache_hits", 0), counts.get("serve.cache_misses", 0)
    batches = counts.get("serve.batches", 0)
    metrics.update({
        "trace.overhead_s": sum(
            statistics.fmean(traced[key]) - statistics.fmean(untraced[key]) for key in both
        ),
        "graph.edges": raw["inputs"]["edges"],
        "partition.delegates": raw["inputs"]["delegates"],
        "partition.csr_bytes": raw["inputs"]["csr_bytes"],
        "storage.store_bytes": raw["inputs"]["store_bytes"],
        "core.step_us_p50": float(np.percentile(steps, 50)) if steps.size else 0.0,
        "core.step_us_p99": float(np.percentile(steps, 99)) if steps.size else 0.0,
        "exec.kernel_stage_s": sum(spans.durations("exec.kernel_stage")),
        "exec.tasks_per_step": wrapped.get("exec.tasks", 0) / max(1, wrapped.get("exec.steps", 0)),
        "kernels.calls": wrapped.get("kernels.calls", 0),
        "kernels.edges_per_call": (
            wrapped.get("kernels.edges", 0) / max(1, wrapped.get("kernels.calls", 0))
        ),
        "serve.flush_s": sum(spans.durations("serve.flush")),
        "serve.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.lanes_per_batch": counts.get("serve.batched_sources", 0) / max(1, batches),
        "serve.coalesced": counts.get("serve.coalesced", 0),
        "serve.traversals": counts.get("serve.traversals", 0),
    })
    for name in PER_LAYER:
        if name not in metrics:
            metrics[name] = counts[name]
    return metrics


def determinism_digest(first_pass: list[dict]) -> str:
    text = json.dumps(first_pass, sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """Measure one workload; return the report lines and the result object."""
    raw = measure(workload, seed, seconds, trace)
    lines = [
        f"workload {workload.name}  seed {seed}  trace {int(trace)}",
        "fingerprint " + json.dumps(fingerprint(workload), sort_keys=True),
    ]
    aliases = ALIASES.get(workload.name, {})
    if trace:
        metrics, units = per_layer(raw), PER_LAYER
        traced_ops = sum(len(latencies) for latencies in raw["samples"][1].values())
        lines.append(
            f"ledger over {len(raw['setup_walls'])} set-ups and {traced_ops} traced operations: "
            "layer self times + other_s = wall_s"
        )
    else:
        (metrics, notes), units = end_to_end(workload, raw), END_TO_END
        lines.extend(notes)
    for name, value in metrics.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        lines.append(f"{name + alias:<36} {value:>16.6g} {units[name]}")
    lines.append(
        f"failed_frac {raw['failed'] / raw['answers']:.6g} "
        f"({raw['failed']} of {raw['answers']} answers, {raw['distinct']} distinct ones checked; "
        f"{raw['drift']} non-repeating operations)"
    )
    lines.append(f"determinism digest {determinism_digest(raw['first_pass'])}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["answers"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The engines below are pinned explicitly; drop the program's ambient
    # defaults too, so nothing they configure can leak into a measurement.
    for var in ("REPRO_BACKEND", "REPRO_KERNELS", "REPRO_STORAGE", "REPRO_TRACE"):
        os.environ.pop(var, None)
    if args.workload is None:
        status = 0
        for name in WORKLOADS:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(command, check=False).returncode
        return status
    lines, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
