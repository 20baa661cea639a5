"""The bench trajectory appender (``benchmarks/conftest.append_bench_record``):
a missing file starts a history, a damaged one is reported, never replaced."""

import importlib.util
import json
import os

import pytest

_CONFTEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks", "conftest.py")


@pytest.fixture(scope="module")
def append_bench_record():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.append_bench_record


def test_missing_file_starts_a_fresh_history(tmp_path, append_bench_record, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_LABEL", raising=False)
    path = str(tmp_path / "BENCH.json")
    append_bench_record(path, {"wall": 1.0})
    append_bench_record(path, {"wall": 2.0}, label="serve")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["runs"] == [{"wall": 1.0}, {"wall": 2.0, "label": "serve"}]


@pytest.mark.parametrize("content", ['{"runs": [{"wall": 1.0}', "[1, 2]",
                                     '{"runs": "none"}'])
def test_corrupt_file_raises_with_its_path(tmp_path, append_bench_record, content):
    path = tmp_path / "BENCH.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match="BENCH.json"):
        append_bench_record(str(path), {"wall": 3.0})
    assert path.read_text(encoding="utf-8") == content  # history untouched
