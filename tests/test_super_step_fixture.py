"""Replay pinned per-super-step records of every engine-driven program.

The engine's answers, counters and modeled times are deterministic, so a
fixed set of small runs pins them exactly: every :class:`IterationRecord`
field of every super-step, plus checksums of the answer, the timing
breakdown and the communication statistics.  The runs cover each program
family the super-step driver executes (visit-once BFS, label propagation,
hop-capped BFS, batched lanes with duplicates and a multi-word lane mask,
delta-stepping SSSP, fixed PageRank, and the overlay relaxation of
mutable graphs), each on a scale-8 RMAT graph at threshold 1 (every vertex
of degree > 1 is a delegate) and above the maximum degree (no delegates),
under a 1x1 and a 2x2 layout.

Aggregate counter gates only compare sums; this fixture compares every
step, so a refactor that reorders a floating-point sum or moves one edge
between kernels fails here.  Regenerate the fixture only for a change that
is meant to move counters::

    PYTHONPATH=src python tests/test_super_step_fixture.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import TraversalEngine
from repro.core.programs import (
    BatchedBFSLevels,
    BFSLevels,
    ConnectedComponents,
    KHopReachability,
)
from repro.core.results import IterationRecord
from repro.dynamic.graph import OverlayBuffer
from repro.graph.degree import out_degrees
from repro.graph.rmat import generate_rmat
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.weighted import DeltaSteppingSSSP, PageRank

FIXTURE = Path(__file__).with_name("data") / "super_step_fixture.json"

LAYOUTS = {"1x1": (1, 1), "2x2": (2, 2)}
SOURCE = 3
#: 70 lanes span two lane words; the repeats exercise independent duplicates.
BATCH_SOURCES = [3, 3, 0, 17, 3, 200, 0, 41] + list(range(60, 122))


def _edges():
    return generate_rmat(8, rng=3, weights_seed=5)


def _thresholds(edges) -> dict:
    return {"th1": 1, "thmax": int(out_degrees(edges).max()) + 1}


def _overlay(graph) -> OverlayBuffer:
    rng = np.random.default_rng(11)
    n = graph.num_vertices
    src = rng.integers(0, n, size=48, dtype=np.int64)
    dst = rng.integers(0, n, size=48, dtype=np.int64)
    keep = src != dst
    overlay = OverlayBuffer(graph)
    overlay.add(src[keep], dst[keep], rng.random(int(keep.sum())))
    return overlay


def _digest(array) -> str:
    array = np.ascontiguousarray(np.asarray(array))
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def _case_runs():
    """``(name, run(engine, graph) -> (result, answer))`` for every case."""
    sssp = DeltaSteppingSSSP(SOURCE, delta=0.25)
    return [
        ("bfs", lambda e, g: _answer(e.run(BFSLevels(SOURCE)), "distances")),
        ("components", lambda e, g: _answer(e.run(ConnectedComponents()), "labels")),
        ("khop", lambda e, g: _answer(
            e.run(KHopReachability(SOURCE, max_hops=2)), "distances")),
        ("batched", lambda e, g: _answer(
            e.run_batch(BatchedBFSLevels(BATCH_SOURCES)), "distances")),
        ("sssp-delta", lambda e, g: _answer(e.run(sssp), "dist_bits")),
        ("pagerank", lambda e, g: _answer(e.run(PageRank(iterations=4)), "ranks")),
        ("bfs-overlay", lambda e, g: _answer(
            e.run(BFSLevels(SOURCE), overlay=_overlay(g)), "distances")),
        ("batched-overlay", lambda e, g: _answer(
            e.run_batch(BatchedBFSLevels(BATCH_SOURCES[:9]), overlay=_overlay(g)),
            "distances")),
        ("sssp-overlay", lambda e, g: _answer(
            e.run(sssp, overlay=_overlay(g)), "dist_bits")),
        ("pagerank-overlay", lambda e, g: _answer(
            e.run(PageRank(iterations=3), overlay=_overlay(g)), "ranks")),
    ]


def _answer(result, attribute: str):
    return result, getattr(result, attribute)


def _record_row(record: IterationRecord) -> dict:
    row = {f.name: getattr(record, f.name) for f in fields(IterationRecord)}
    row["edges_examined"] = {k: int(v) for k, v in record.edges_examined.items()}
    row["directions"] = {k: int(v) for k, v in record.directions.items()}
    row["delegate_reduce"] = bool(record.delegate_reduce)
    return row


def _summarize(result, answer) -> dict:
    timing = result.timing
    return {
        "answer": _digest(answer),
        "iterations": int(result.iterations),
        "total_edges_examined": int(result.total_edges_examined),
        "timing": [
            timing.computation,
            timing.local_communication,
            timing.remote_normal_exchange,
            timing.remote_delegate_reduce,
            timing.elapsed_ms,
        ],
        "comm_stats": {k: int(v) for k, v in result.comm_stats.as_dict().items()},
        "records": [_record_row(r) for r in result.records],
    }


def compute_fixture() -> dict:
    edges = _edges()
    out: dict = {}
    for th_name, threshold in _thresholds(edges).items():
        for layout_name, (ranks, gpus) in LAYOUTS.items():
            layout = ClusterLayout(num_ranks=ranks, gpus_per_rank=gpus)
            graph = build_partitions(edges, layout, threshold)
            engine = TraversalEngine(graph, backend="inline", kernels="numpy")
            for case, run in _case_runs():
                result, answer = run(engine, graph)
                out[f"{case}/{th_name}/{layout_name}"] = _summarize(result, answer)
            engine.close()
    return out


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_fixture()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(computed, pinned):
    assert sorted(computed) == sorted(pinned)
    # The no-delegate and all-delegate graphs both occur.
    assert any(r["delegate_reduce"] for r in pinned["bfs/th1/2x2"]["records"])
    assert not any(r["delegate_reduce"] for r in pinned["bfs/thmax/2x2"]["records"])


@pytest.mark.parametrize(
    "key",
    [
        f"{case}/{th}/{layout}"
        for case, _ in _case_runs()
        for th in ("th1", "thmax")
        for layout in LAYOUTS
    ],
)
def test_super_steps_match_fixture(computed, pinned, key):
    got, want = computed[key], pinned[key]
    assert got["answer"] == want["answer"]
    assert len(got["records"]) == len(want["records"])
    for step, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"{key}: super-step {step + 1} differs"
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_super_step_fixture.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_fixture(), indent=None, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
