"""Tests of the benchmark itself: its output checks fire on wrong bytes, the
tracer accounts time correctly, and the result format holds.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import pb_batch
import pb_serve
from pb_layers import PER_LAYER
from pb_trace import Span, Tracer, install, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class TinyT1(pb_batch.T1BatchNpz):
    CASE = {**pb_batch.T1BatchNpz.CASE,
            "subsample": {**pb_batch.T1BatchNpz.CASE["subsample"],
                          "num_hypercubes": 4, "num_samples": 8,
                          "nxsl": 4, "nysl": 4, "nzsl": 4}}

    def build_dataset(self):
        return pb_batch.generate_p1f100((16, 8, 16), 3, self.seed)


class TinyT1T2(pb_batch.T1T2StreamProc):
    EPOCHS = 1
    CASE = {**pb_batch.T1T2StreamProc.CASE,
            "subsample": {**pb_batch.T1T2StreamProc.CASE["subsample"],
                          "num_hypercubes": 8, "num_samples": 4,
                          "nxsl": 4, "nysl": 4, "nzsl": 4}}

    def build_dataset(self):
        from repro.data import build_dataset

        return build_dataset("SST-P1F4", scale=0.5, rng=self.seed, n_snapshots=4)


@pytest.mark.parametrize("cls", [TinyT1, TinyT1T2])
def test_batch_check_fires_on_wrong_bytes(cls, tmp_path):
    wl = cls(seed=3)
    wl.setup(str(tmp_path / "setup"))
    try:
        warmup = wl.prepare()
        assert warmup[0].ok, warmup[0].error
        good = wl.run_job("check", None)
        assert good.ok, good.error
        digest, *rest = wl.ref
        wl.ref = ("0" * len(digest), *rest)
        bad = wl.run_job("check", None)
    finally:
        wl.close()
    assert not bad.ok
    assert "differ" in bad.error
    attempted, errors = wl.operations(warmup, [[good, bad]])
    assert (attempted, len(errors)) == (3, 1)


def test_serve_checks_fire_on_wrong_bytes(tmp_path):
    wl = pb_serve.ServeMix(seed=3)
    wl.setup(str(tmp_path / "setup"))
    try:
        # A fixed number of requests: which are hits depends on the seed only.
        reqs = [wl.request(wl.next_request("check")) for _ in range(8)]
        wl._check_answers(reqs)
        window = pb_serve.Window(reqs, {})
        assert all(r.ok for r in reqs), [r.error for r in reqs]
        hits = [r for r in window.requests if r.cls == "hit"]
        misses = [r for r in window.requests if r.cls == "miss"]
        assert hits and misses
        # A hit whose bytes differ from the miss that stored its key.
        wl.known[hits[0].key] = "0" * 64
        wl._check_answers(window.requests)
        assert not hits[0].ok and "differs" in hits[0].error
        # Misses whose bytes differ from a direct Experiment run.
        for req in misses:
            req.digest = "0" * 64
        checked = wl.finish([window])
    finally:
        wl.close()
    assert checked and all(not r.ok for r in checked)
    assert all("direct Experiment" in r.error for r in checked)


def test_serve_requests_are_seeded():
    def stream(seed):
        wl = pb_serve.ServeMix(seed)
        return [wl.next_request("p").seed for _ in range(200)]

    a = stream(5)
    assert a == stream(5) and a != stream(6)
    repeats = sum(seed in a[:i] for i, seed in enumerate(a))
    assert 0.4 < repeats / len(a) < 0.6


def test_peak_rss_reset_drops_an_earlier_peak():
    from pb_common import peak_rss_mb, reset_peak_rss

    block = np.ones(64 * 2**20 // 8)       # 64 MiB resident
    before = peak_rss_mb()
    del block
    if not reset_peak_rss():
        pytest.skip("kernel does not allow resetting the RSS high-water mark")
    assert peak_rss_mb() < before - 32


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("a", None, "job", "job", 0.0, 10.0),
        Span("b", "a", "sampling.phase1", "sampling", 2.0, 5.0),
        Span("c", "a", "data.decode", "data", 4.0, 6.0),
        Span("d", "a", "parallel.collective", "parallel", 1.0, 2.0, rank=1),
    ]
    selfs = self_times(spans)
    assert selfs["a"] == pytest.approx(6.0)   # rank-1 span is off the timeline
    assert selfs["b"] == pytest.approx(3.0)
    assert "d" not in selfs


def test_install_wraps_and_restores():
    from repro.data.sources import ShardDirSource
    from repro.sim import fields

    before = (ShardDirSource.snapshot, dict(fields.DERIVED_VARIABLES))
    installed = install(Tracer())
    try:
        assert ShardDirSource.snapshot is not before[0]
        assert fields.DERIVED_VARIABLES["pv"] is not before[1]["pv"]
    finally:
        installed.remove()
    assert (ShardDirSource.snapshot, fields.DERIVED_VARIABLES) == before


def test_forked_rank_spans_reach_the_parent():
    import repro.parallel

    tracer = Tracer()
    installed = install(tracer)
    try:
        with tracer.span("job", "job", job="j"):
            result = repro.parallel.run_spmd(
                lambda comm: comm.allreduce(np.ones(4)), 2, backend="process")
    finally:
        installed.remove()
    assert [v.tolist() for v in result.values] == [[2.0] * 4] * 2
    collectives = [s for s in tracer.spans() if s.name == "parallel.collective"]
    assert sorted(s.rank for s in collectives) == [0, 1]
    assert all(s.job == "j" and s.attrs["bytes"] == 32 for s in collectives)


def test_benchmark_json_names_every_metric():
    sys.path.insert(0, HERE)
    from run import END_TO_END, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout



_LEAVE_PROCESSES = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from multiprocessing import resource_tracker
from pb_common import own_descendants, stop_children

own_descendants()
print(resource_tracker._resource_tracker._pid, flush=True)
child = os.fork()
if child == 0:              # leaves an orphan behind
    orphan = os.fork()
    if orphan == 0:
        time.sleep(60)
        os._exit(0)
    print(orphan, flush=True)
    os._exit(0)
os.waitpid(child, 0)
stop_children()
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def test_stop_children_ends_the_tracker_and_adopted_orphans():
    out = subprocess.run(
        [sys.executable, "-c", _LEAVE_PROCESSES, HERE],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    tracker, orphan = map(int, out.stdout.split())
    assert not _running(tracker)
    assert not _running(orphan)
