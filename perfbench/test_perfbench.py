"""Toy-size runs of every benchmark workload (seconds in total).

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from perfbench.calibrate import REFERENCE_S, Calibrator
from perfbench.run import LEDGER, ROOT, run_workload
from perfbench.workloads import WORKLOADS, TraversalSession

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY = {
    "graph500": dict(scale=9, roots=3, setup_reps=1),
    "serve-zipf": dict(scale=9, waves=3, setup_reps=2),
}


def toy(name: str):
    return dataclasses.replace(WORKLOADS[name], **TOY[name])


def digest(lines: list[str]) -> str:
    return next(line.split()[-1] for line in lines if line.startswith("determinism digest"))


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert set(TOY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name):
    lines, plain = run_workload(toy(name), seed=3, seconds=0, trace=False)
    traced_lines, traced = run_workload(toy(name), seed=3, seconds=0, trace=True)
    _, again = run_workload(toy(name), seed=3, seconds=0, trace=False)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in plain["metrics"].values())
    # Deterministic counters repeat exactly, traced or not.
    assert digest(lines) == digest(traced_lines)
    assert plain["metrics"]["modeled_gteps"] == again["metrics"]["modeled_gteps"]
    # The layer self times and other_s add up to the traced wall.
    layers = traced["metrics"]
    attributed = sum(layers[name]["value"] for name in (*LEDGER, "other_s"))
    assert attributed == pytest.approx(layers["wall_s"]["value"], rel=1e-9)


def test_slowdown_is_the_geometric_mean_of_the_parts_ratios():
    calibrator = Calibrator()
    calibrator.sample()
    assert calibrator.slowdown() > 0
    calibrator.samples = {part: [2 * ref, 5 * ref, 3 * ref] for part, ref in REFERENCE_S.items()}
    assert calibrator.slowdown() == pytest.approx(3.0)
    calibrator.samples["python"] = [REFERENCE_S["python"] * 24]
    assert calibrator.slowdown() == pytest.approx((24 * 3 * 3) ** (1 / 3))


def test_a_corrupted_answer_counts_as_failed(monkeypatch):
    original = TraversalSession.run_op

    def corrupting(self, root, traced=False):
        op = original(self, root, traced)
        if root == self.keys[0]:
            key, answer = op.answers[0]
            op.answers[0] = (key, answer + 1)
        return op

    monkeypatch.setattr(TraversalSession, "run_op", corrupting)
    lines, result = run_workload(toy("graph500"), seed=3, seconds=0, trace=False)
    assert result["failed"] == 1 and not result["correct"]
    assert any(line.startswith(f"failed_frac {1 / result['attempted']:.6g}") for line in lines)


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "graph500", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and '"correct"' not in done.stdout
