"""``read_npy`` returns exactly what ``np.load`` does, without numpy's
``ast``-based header parser (which is not thread-safe on CPython 3.11)."""

import ast
import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.store import read_npy, read_npz_member

DTYPES = st.sampled_from(["<f8", ">f8", "<f4", "<i8", "|u1", "|b1", "<c16", "<U7"])


def npy_bytes(arr, version=None) -> bytes:
    buf = io.BytesIO()
    if version is None:
        np.save(buf, arr)
    else:
        np.lib.format.write_array(buf, arr, version=version)
    return buf.getvalue()


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.flags.writeable
    assert got.tobytes(order="A") == want.tobytes(order="A")


@settings(max_examples=150, deadline=None)
@given(
    arr=DTYPES.flatmap(lambda dt: hnp.arrays(
        dt, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))),
    fortran=st.booleans(),
    version=st.sampled_from([None, (1, 0), (2, 0), (3, 0)]),
)
def test_matches_np_load(arr, fortran, version):
    if fortran:
        arr = np.asfortranarray(arr)
    raw = npy_bytes(arr, version)
    assert_same(read_npy(io.BytesIO(raw)), np.load(io.BytesIO(raw)))


def test_npz_member_matches_np_load(tmp_path):
    path = str(tmp_path / "f.npz")
    arrays = {"u": np.arange(24.0).reshape(2, 3, 4), "time": np.array(1.5),
              "meta": np.array('{"nu": 1}')}
    np.savez_compressed(path, **arrays)
    with zipfile.ZipFile(path) as zf, np.load(path) as data:
        for name in arrays:
            assert_same(read_npz_member(zf, name), data[name])


def test_structured_dtype_falls_back_to_numpy_parser():
    arr = np.zeros(3, dtype=[("a", "<f8"), ("b", "<i4")])
    raw = npy_bytes(arr)
    assert_same(read_npy(io.BytesIO(raw)), np.load(io.BytesIO(raw)))


def test_plain_headers_never_reach_ast(monkeypatch):
    def refuse(_):
        raise AssertionError("ast.literal_eval called")

    monkeypatch.setattr(ast, "literal_eval", refuse)
    raw = npy_bytes(np.ones((4, 5)))
    assert read_npy(io.BytesIO(raw)).shape == (4, 5)


def test_truncated_payload_rejected():
    raw = npy_bytes(np.ones(10))
    with pytest.raises(ValueError, match="truncated"):
        read_npy(io.BytesIO(raw[:-8]))
