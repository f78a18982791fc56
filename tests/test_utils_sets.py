"""Sort-based set helpers: byte-for-byte agreement with numpy, plus a guard
that keeps numpy's hash-path set operations out of the package."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.sets import sorted_union, sorted_unique

INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32)


def _ids(dtype, max_size=60):
    info = np.iinfo(dtype)
    return st.lists(
        st.integers(int(info.min), int(info.max)), max_size=max_size
    ).map(lambda xs: np.array(xs, dtype=dtype))


def _small_ids(dtype=np.int64, max_size=80):
    """Narrow value range, so duplicates and negative ids are common."""
    return st.lists(st.integers(-20, 20), max_size=max_size).map(
        lambda xs: np.array(xs, dtype=dtype)
    )


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(INT_DTYPES))
def test_sorted_unique_matches_numpy(data, dtype):
    values = data.draw(_ids(dtype))
    _assert_same(sorted_unique(values), np.unique(values))


@settings(max_examples=150, deadline=None)
@given(values=_small_ids(), runs=st.booleans())
def test_sorted_unique_duplicates_and_negatives(values, runs):
    _assert_same(sorted_unique(values, runs=runs), np.unique(values))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    dtype_a=st.sampled_from((np.int32, np.int64)),
    dtype_b=st.sampled_from((np.int32, np.int64)),
)
def test_sorted_union_matches_numpy_mixed_width(data, dtype_a, dtype_b):
    a = data.draw(_ids(dtype_a))
    b = data.draw(_ids(dtype_b))
    _assert_same(sorted_union(a, b), np.union1d(a, b))


@settings(max_examples=150, deadline=None)
@given(a=_small_ids(), b=_small_ids(np.int32))
def test_sorted_union_of_sorted_runs(a, b):
    """The stable path (``runs=True``) on already-sorted inputs, the way the
    engine merges sorted frontiers."""
    a, b = np.unique(a), np.unique(b)
    _assert_same(sorted_union(a, b, runs=True), np.union1d(a, b))
    _assert_same(sorted_union(a, b), np.union1d(a, b))


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_empty_and_single_element(dtype):
    for values in (np.zeros(0, dtype=dtype), np.array([7], dtype=dtype)):
        _assert_same(sorted_unique(values), np.unique(values))
        _assert_same(sorted_union(values, values), np.union1d(values, values))
    empty32, empty = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=dtype)
    _assert_same(sorted_union(empty32, empty), np.union1d(empty32, empty))


def test_all_duplicates_and_scalar_input():
    values = np.full(1000, -3, dtype=np.int64)
    _assert_same(sorted_unique(values), np.unique(values))
    _assert_same(sorted_unique(np.int64(5)), np.unique(np.int64(5)))
    _assert_same(sorted_unique(values.reshape(10, 100)), np.unique(values.reshape(10, 100)))


def test_result_is_a_fresh_array():
    values = np.array([3], dtype=np.int64)
    out = sorted_unique(values)
    out[0] = 9
    assert values[0] == 3


@pytest.mark.parametrize("dtype", (np.float32, np.float64, np.bool_))
def test_non_integer_input_raises(dtype):
    values = np.array([1, 0, 1], dtype=dtype)
    with pytest.raises(TypeError, match="integer"):
        sorted_unique(values)
    with pytest.raises(TypeError, match="integer"):
        sorted_union(values, values)


def test_nan_and_float_promotion_raise():
    with pytest.raises(TypeError):
        sorted_unique(np.array([np.nan, np.nan, 1.0]))
    # int64 + float32 (or uint64 + int64) promote to float64 in numpy.
    with pytest.raises(TypeError):
        sorted_union(np.arange(3), np.zeros(2, dtype=np.float32))
    with pytest.raises(TypeError):
        sorted_union(np.arange(3), np.arange(2, dtype=np.uint64))


# --------------------------------------------------------------------------
# Guard: no hash-path numpy set operation in the package.

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
EXEMPT = (SRC / "utils" / "sets.py", SRC / "baselines")


def _hash_path_calls(tree: ast.AST):
    """Yield ``(line, description)`` for each numpy set-op call that takes
    the hash path on numpy >= 2.3."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        if func.attr == "union1d":
            yield node.lineno, "np.union1d"
        elif func.attr == "unique" and not any(
            k and k.startswith("return_") for k in keywords
        ):
            yield node.lineno, "np.unique without return_*"
        elif func.attr in ("setdiff1d", "intersect1d", "setxor1d"):
            flag = keywords.get("assume_unique")
            if not (isinstance(flag, ast.Constant) and flag.value is True):
                yield node.lineno, f"np.{func.attr} without assume_unique=True"


def test_no_hash_path_set_ops_in_package():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == EXEMPT[0] or EXEMPT[1] in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, what in _hash_path_calls(tree):
            offenders.append(f"{path.relative_to(SRC.parent)}:{line}: {what}")
    assert not offenders, (
        "use repro.utils.sets.sorted_unique / sorted_union instead of numpy's "
        "hash-path set operations:\n  " + "\n  ".join(offenders)
    )


def test_guard_flags_each_hash_path_call():
    source = (
        "import numpy as np\n"
        "np.unique(x)\n"
        "np.unique(x, return_inverse=True)\n"
        "np.union1d(a, b)\n"
        "np.setdiff1d(a, b)\n"
        "np.setdiff1d(a, b, assume_unique=True)\n"
        "numpy.unique(x)\n"
        "np.intersect1d(a, b, assume_unique=False)\n"
    )
    found = list(_hash_path_calls(ast.parse(source)))
    assert [line for line, _ in found] == [2, 4, 5, 7, 8]
