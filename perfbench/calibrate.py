"""A fixed reference computation that tracks how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by a quarter or
more over minutes, as neighbours load the cores' shared cache and memory.
A run interleaves short samples of a reference computation with its timed
operations and divides their wall times by the host's *slowdown*: the
reference's median time in the run over its time on a reference host.  The
reference uses no code of ``repro``, so a change to the program moves the
normalised times and a change of host speed does not.

The reference has three parts, each of the kind the program spends its time
on: interpreted Python (the engine's per-super-step driver), a NumPy sort
(``np.unique`` in the kernels) and a random gather from a table the size of
a CSR slice (neighbour reads).  The slowdown is the geometric mean of the
three parts' ratios.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from perfbench.tracing import clock

#: Median seconds of each part on the reference host (an Intel Xeon with a
#: 300 MiB shared L3, two vCPUs, Python 3.12, NumPy 2.4), at its usual speed.
REFERENCE_S = {"python": 0.0045, "sort": 0.0027, "gather": 0.0031}
#: Least time between two samples: about one per graph500 operation, one per
#: two serving waves, a few per cent of a run.
INTERVAL_S = 0.25


def _python_part(n: int = 50_000) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class Calibrator:
    """Samples the reference every ``INTERVAL_S`` seconds at most."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20260817)
        self._keys = rng.integers(0, 1 << 40, 1 << 18)
        self._table = rng.integers(0, 1 << 30, 1 << 21)  # 16 MiB
        self._index = rng.integers(0, self._table.size, 1 << 18)
        self.samples: dict[str, list[float]] = {part: [] for part in REFERENCE_S}
        self._last = -math.inf

    def sample(self) -> None:
        """Time each part of the reference once."""
        started = clock()
        _python_part()
        sorted_at = clock()
        np.sort(self._keys)
        gathered_at = clock()
        int(self._table[self._index].sum())
        ended = clock()
        self.samples["python"].append(sorted_at - started)
        self.samples["sort"].append(gathered_at - sorted_at)
        self.samples["gather"].append(ended - gathered_at)
        self._last = ended

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than ``INTERVAL_S``."""
        if clock() - self._last >= INTERVAL_S:
            self.sample()

    def slowdown(self) -> float:
        """The host's slowdown against the reference host (1.0 = as fast)."""
        logs = [
            math.log(statistics.median(self.samples[part]) / reference)
            for part, reference in REFERENCE_S.items()
        ]
        return math.exp(statistics.fmean(logs))

    def summary(self) -> str:
        medians = ", ".join(
            f"{part} {statistics.median(times) * 1e3:.3g} ms"
            for part, times in self.samples.items()
        )
        return (f"host slowdown {self.slowdown():.4g} over {len(self.samples['python'])} "
                f"reference samples (medians: {medians})")
