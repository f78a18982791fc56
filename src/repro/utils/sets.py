"""Sort-based set algebra on integer id arrays.

Every frontier merge, previsit filter, edge-key dedup and store decode in
this package reduces to "sorted distinct values of an integer array".  From
numpy 2.3 on, plain ``np.unique(x)`` — and everything built on it, such as
``np.union1d`` and ``np.setdiff1d`` without ``assume_unique`` — takes a hash
path that is 5–40x slower than a sort plus a neighbour-inequality mask on
integer keys, with identical output.  These helpers are that sort plus mask,
and they return exactly what ``np.unique`` / ``np.union1d`` return: the same
values, order and dtype.

``runs=True`` states that the input is a concatenation of a few already
sorted runs (the union of two sorted frontiers, a merge window over sorted
spill files, a sorted pool plus a small batch).  The helpers then use the
run-aware stable sort, which merges pre-sorted runs 2–3x faster than the
default sort; the output is the same either way.

Only integer arrays are accepted.  ``np.unique`` collapses NaNs while a
plain inequality mask would not, so float input raises :class:`TypeError`
rather than silently diverging.  The serial oracles in
:mod:`repro.baselines` deliberately keep numpy's own set operations, so they
stay independent of the code they check.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique", "sorted_union"]


def _integer_ids(values) -> np.ndarray:
    arr = np.asarray(values).ravel()
    if arr.dtype.kind not in "iu":
        raise TypeError(f"set operations take integer arrays, got dtype {arr.dtype}")
    return arr


def _unique_of(arr: np.ndarray, runs: bool) -> np.ndarray:
    arr = np.sort(arr, kind="stable" if runs else None)
    if arr.size < 2:
        return arr
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def sorted_unique(values, *, runs: bool = False) -> np.ndarray:
    """Sorted distinct values of an integer array; equals ``np.unique(values)``.

    Always returns a new array (never a view of ``values``).
    """
    return _unique_of(_integer_ids(values), runs)


def sorted_union(a, b, *, runs: bool = False) -> np.ndarray:
    """Sorted distinct values of two integer arrays; equals ``np.union1d(a, b)``.

    The result dtype is the promotion of both inputs' dtypes, as in numpy.
    """
    return _unique_of(_integer_ids(np.concatenate((a, b), axis=None)), runs)
