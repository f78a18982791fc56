"""Comparing two benchmark artifacts: the perf-regression gate.

:func:`compare_artifacts` matches scenarios by name between an *old* (baseline)
and a *new* (candidate) artifact and classifies each one:

``regression``
    New traversal wall time exceeds the old by more than the tolerance.
``improvement``
    New traversal wall time undercuts the old by more than the tolerance.
``ok``
    Within the noise band.
``counter-drift``
    The scenario specs match but the deterministic workload counters (or the
    modeled times derived from them) differ — the traversal *behaved*
    differently, which is a correctness-level finding, not a perf one.
``added`` / ``removed``
    Scenario exists in only one artifact (informational).

Wall-clock comparisons are tolerance-gated because they depend on the host;
counters are compared exactly because they must not.  A changed spec (same
name, different graph/options) downgrades the scenario to informational —
timings of different workloads are not comparable.  When the two artifacts
come from hosts that differ in core count or numpy version, the report
carries a one-line ``host_note`` saying so (artifacts written before the
host fingerprint recorded ``nproc`` are compared on what they have).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.artifact import validate_artifact

__all__ = ["ScenarioDelta", "CompareReport", "compare_artifacts"]

#: The wall phase the gate is keyed on when a record does not declare its
#: own (graph build and partitioning are shared infrastructure; the
#: traversal is what the optimizations target).  Records may override it via
#: a ``gate_phase`` key — out-of-core build scenarios gate on
#: ``graph_build``, because the build *is* their workload.
GATE_PHASE = "traversal"

#: Host fingerprint keys whose difference makes wall clocks incomparable.
HOST_KEYS = ("nproc", "numpy")


@dataclass
class ScenarioDelta:
    """Comparison outcome for one scenario name."""

    name: str
    status: str
    old_wall_s: float | None = None
    new_wall_s: float | None = None
    note: str = ""

    @property
    def ratio(self) -> float | None:
        """new/old traversal wall time (``None`` when either side is absent)."""
        if not self.old_wall_s or self.new_wall_s is None:
            return None
        return self.new_wall_s / self.old_wall_s

    @property
    def wall_delta_s(self) -> float | None:
        """new - old gate-phase wall seconds (``None`` when either side is absent)."""
        if self.old_wall_s is None or self.new_wall_s is None:
            return None
        return self.new_wall_s - self.old_wall_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "old_wall_s": self.old_wall_s,
            "new_wall_s": self.new_wall_s,
            "wall_delta_s": self.wall_delta_s,
            "ratio": self.ratio,
            "note": self.note,
        }


@dataclass
class CompareReport:
    """All per-scenario deltas plus the aggregate verdict."""

    tolerance: float
    deltas: list = field(default_factory=list)
    host_note: str = ""

    def by_status(self, status: str) -> list:
        return [d for d in self.deltas if d.status == status]

    @property
    def regressions(self) -> list:
        return self.by_status("regression")

    @property
    def improvements(self) -> list:
        return self.by_status("improvement")

    @property
    def counter_drifts(self) -> list:
        return self.by_status("counter-drift")

    @property
    def ok(self) -> bool:
        """No regression and no counter drift (the CI gate's pass condition)."""
        return not self.regressions and not self.counter_drifts

    @property
    def counters_ok(self) -> bool:
        """No counter drift (the *blocking* half of the CI gate).

        Counter drift means the traversal behaved differently — a
        correctness-level finding that must block, while wall-clock
        regressions on foreign hardware only warn; ``repro bench compare
        --fail-on counters`` keys its exit code on this property.
        """
        return not self.counter_drifts

    def as_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "host_note": self.host_note,
            "ok": self.ok,
            "counters_ok": self.counters_ok,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "counter_drifts": len(self.counter_drifts),
            # Names + first divergence per drifting scenario, so CI logs and
            # scripts can name the offenders without walking `scenarios`.
            "counter_drift_scenarios": [
                {"name": d.name, "note": d.note} for d in self.counter_drifts
            ],
            "regression_scenarios": [d.name for d in self.regressions],
            "scenarios": [d.as_dict() for d in self.deltas],
        }

    def summary_lines(self) -> list:
        """Human-readable report, one line per scenario plus a verdict."""
        lines = [self.host_note] if self.host_note else []
        for delta in self.deltas:
            if delta.old_wall_s is None or delta.new_wall_s is None:
                lines.append(f"  {delta.name:<28} {delta.status:<12} {delta.note}")
                continue
            ratio = delta.ratio
            change = f"{(ratio - 1) * 100:+.1f}%" if ratio is not None else "n/a"
            line = (
                f"  {delta.name:<28} {delta.status:<12} "
                f"{delta.old_wall_s * 1e3:9.2f} ms -> {delta.new_wall_s * 1e3:9.2f} ms "
                f"({change})"
            )
            if delta.note:
                line += f"  [{delta.note}]"
            lines.append(line)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {len(self.regressions)} regression(s), "
            f"{len(self.counter_drifts)} counter drift(s), "
            f"{len(self.improvements)} improvement(s) "
            f"at ±{self.tolerance * 100:.0f}% tolerance"
        )
        return lines


def _wall(record: dict) -> float | None:
    value = record.get("wall_s", {}).get(record.get("gate_phase", GATE_PHASE))
    return float(value) if value is not None else None


def _counter_note(old: dict, new: dict) -> str | None:
    """Describe the first deterministic divergence between two records."""
    old_counters, new_counters = old["counters"], new["counters"]
    for key in sorted(set(old_counters) | set(new_counters)):
        if old_counters.get(key) != new_counters.get(key):
            return (
                f"counters[{key}]: {old_counters.get(key)!r} != {new_counters.get(key)!r}"
            )
    return None


def _host_note(old: dict, new: dict) -> str:
    """Name the :data:`HOST_KEYS` on which both artifacts record different values."""
    old_host, new_host = old.get("host", {}), new.get("host", {})
    diffs = [
        f"{key} {old_host[key]} -> {new_host[key]}"
        for key in HOST_KEYS
        if key in old_host and key in new_host and old_host[key] != new_host[key]
    ]
    if not diffs:
        return ""
    return f"note: different hosts ({', '.join(diffs)}); wall-clock deltas are not like for like"


def compare_artifacts(
    old: dict, new: dict, tolerance: float = 0.2, min_delta_s: float = 0.010
) -> CompareReport:
    """Diff two artifacts scenario by scenario.

    Parameters
    ----------
    old, new:
        Artifact dictionaries (validated here; pass the output of
        :func:`repro.bench.artifact.load_artifact` or the runner directly).
    tolerance:
        Relative wall-clock band treated as noise, e.g. ``0.2`` = ±20 %.
        Counters are never tolerance-gated.
    min_delta_s:
        Absolute wall-clock floor: a change is only classified as
        regression/improvement when ``|new - old|`` also exceeds this many
        seconds.  Sub-10ms scenarios sit near the timer/scheduler noise
        floor, where a large *ratio* can be a tiny absolute wobble.
    """
    if not 0.0 <= tolerance < 10.0:
        raise ValueError(f"tolerance must be in [0, 10), got {tolerance}")
    if min_delta_s < 0.0:
        raise ValueError(f"min_delta_s must be non-negative, got {min_delta_s}")
    validate_artifact(old, source="old artifact")
    validate_artifact(new, source="new artifact")
    report = CompareReport(tolerance=tolerance, host_note=_host_note(old, new))
    old_scenarios, new_scenarios = old["scenarios"], new["scenarios"]

    for name in sorted(set(old_scenarios) | set(new_scenarios)):
        if name not in new_scenarios:
            report.deltas.append(
                ScenarioDelta(name, "removed", old_wall_s=_wall(old_scenarios[name]),
                              note="only in old artifact")
            )
            continue
        if name not in old_scenarios:
            report.deltas.append(
                ScenarioDelta(name, "added", new_wall_s=_wall(new_scenarios[name]),
                              note="only in new artifact")
            )
            continue
        old_rec, new_rec = old_scenarios[name], new_scenarios[name]
        old_wall, new_wall = _wall(old_rec), _wall(new_rec)
        if old_rec["spec"] != new_rec["spec"]:
            report.deltas.append(
                ScenarioDelta(
                    name, "spec-changed", old_wall, new_wall,
                    note="scenario definition changed; timings not comparable",
                )
            )
            continue
        drift = _counter_note(old_rec, new_rec)
        if drift is not None:
            report.deltas.append(
                ScenarioDelta(name, "counter-drift", old_wall, new_wall, note=drift)
            )
            continue
        if old_wall is None or new_wall is None or old_wall == 0.0:
            report.deltas.append(
                ScenarioDelta(name, "ok", old_wall, new_wall, note="no gate phase timing")
            )
            continue
        ratio = new_wall / old_wall
        if abs(new_wall - old_wall) <= min_delta_s:
            status = "ok"
        elif ratio > 1.0 + tolerance:
            status = "regression"
        elif ratio < 1.0 - tolerance:
            status = "improvement"
        else:
            status = "ok"
        report.deltas.append(ScenarioDelta(name, status, old_wall, new_wall))
    return report
