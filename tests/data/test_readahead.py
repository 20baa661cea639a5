"""Invariants of ShardDirSource's member read-ahead.

Each ``snapshot(i)`` opens the next shard(s) of the access order as lazy
fields; a background thread decodes on them the members the consumer has
read.  Read-ahead must never change what a consumer sees, never hold more
than ``max_cached`` shards, never decode a member twice, and never leave a
thread (or a reference cycle) behind.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.data import ShardDirSource, build_dataset, save_dataset
from repro.data.sources import DEFAULT_PREFETCH
from repro.sampling import subsample
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig

CODECS = ("npz", "raw", "chunked")


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=0.5, rng=3, n_snapshots=6)


@pytest.fixture(scope="module")
def shard_dirs(sst, tmp_path_factory):
    dirs = {}
    for codec in CODECS:
        path = str(tmp_path_factory.mktemp(f"shards_{codec}"))
        save_dataset(sst, path, codec=codec)
        dirs[codec] = path
    return dirs


def small_case():
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(hypercubes="maxent", method="maxent",
                                  num_hypercubes=4, num_samples=16,
                                  num_clusters=4, nxsl=8, nysl=8, nzsl=8),
        train=TrainConfig(arch="mlp_transformer"),
    )


def readahead_threads():
    return [t for t in threading.enumerate() if t.name == "shard-readahead"]


def wait_idle(timeout_s=10.0):
    """Wait until every read-ahead thread ran out of work and exited."""
    deadline = time.monotonic() + timeout_s
    while readahead_threads():
        assert time.monotonic() < deadline, "read-ahead thread never went idle"
        time.sleep(0.002)


class TestDefaults:
    def test_default_depth_and_gating(self, shard_dirs):
        assert DEFAULT_PREFETCH == 1
        with ShardDirSource(shard_dirs["npz"]) as src:
            assert src.prefetch_depth == 1 and src.readahead_depth == 1
        with ShardDirSource(shard_dirs["chunked"], max_cached=4, prefetch=5) as src:
            assert src.readahead_depth == 3  # capped at max_cached - 1
        for kw in ({"prefetch": 0}, {"max_cached": 1}, {"lazy": False}):
            with ShardDirSource(shard_dirs["npz"], **kw) as src:
                assert src.readahead_depth == 0, kw
        with ShardDirSource(shard_dirs["raw"], prefetch=3, max_cached=4) as src:
            assert src.readahead_depth == 0  # an mmap decode has nothing to overlap

    @pytest.mark.parametrize("kw", [{"prefetch": 0}, {"max_cached": 1}, {"lazy": False}])
    def test_off_means_no_thread_and_no_prefetched(self, shard_dirs, sst, kw):
        with ShardDirSource(shard_dirs["npz"], **kw) as src:
            src.prefetch(range(sst.n_snapshots))
            for i in range(sst.n_snapshots):
                src.snapshot(i).get("u")
                assert not readahead_threads()
            assert src.cache_info()["counters"]["prefetched"] == 0

    def test_raw_codec_never_reads_ahead(self, shard_dirs, sst):
        with ShardDirSource(shard_dirs["raw"], max_cached=3, prefetch=2) as src:
            for i in range(sst.n_snapshots):
                src.snapshot(i).get("u")
            c = src.cache_info()["counters"]
        assert c["prefetched"] == 0 and c["misses"] == sst.n_snapshots


class TestResidencyAndCounters:
    @pytest.mark.parametrize("codec", ["npz", "chunked"])
    @pytest.mark.parametrize("max_cached,prefetch", [(2, 1), (3, 2), (3, 5), (5, 4)])
    def test_residency_bounded(self, shard_dirs, sst, codec, max_cached, prefetch):
        n = sst.n_snapshots
        order = [*range(n), *range(n - 1, -1, -1), 3, 0, 5, 1, 1, 4]
        with ShardDirSource(shard_dirs[codec], max_cached=max_cached,
                            prefetch=prefetch) as src:
            src.prefetch([4, 2, 0, 5])
            for i in order:
                src.snapshot(i).get("u")
                assert src.cache_info()["gauges"]["resident"] <= max_cached
            info = src.cache_info()
        assert info["gauges"]["max_resident"] <= max_cached

    @pytest.mark.parametrize("codec", ["npz", "chunked"])
    @pytest.mark.parametrize("max_cached,prefetch", [(2, 1), (3, 2), (4, 3)])
    def test_forward_pass_opens_each_shard_once(self, shard_dirs, sst, codec,
                                                max_cached, prefetch):
        n = sst.n_snapshots
        with ShardDirSource(shard_dirs[codec], max_cached=max_cached,
                            prefetch=prefetch) as src:
            for i in range(n):
                src.snapshot(i).get("w")
            c = src.cache_info()["counters"]
        assert c["misses"] + c["prefetched"] == n
        assert c["misses"] == 1 and c["prefetch_hits"] == n - 1

    def test_counters_are_deterministic(self, shard_dirs, sst):
        """Shards are opened on the calling thread, so the counters are a
        function of the access sequence, not of thread timing."""
        def run():
            with ShardDirSource(shard_dirs["npz"], max_cached=3, prefetch=2) as src:
                for i in [0, 1, 2, 5, 4, 3, 0, 1]:
                    src.snapshot(i).get("u")
                return src.cache_info()["counters"]

        first = run()
        assert all(run() == first for _ in range(3))

    def test_current_shard_never_evicted_by_lookahead(self, shard_dirs, sst):
        with ShardDirSource(shard_dirs["npz"], max_cached=2, prefetch=1) as src:
            for i in range(sst.n_snapshots):
                field = src.snapshot(i)
                assert src.snapshot(i) is field  # still resident: a hit
            assert src.cache_info()["counters"]["hits"] >= sst.n_snapshots

    def test_follows_the_hint(self, shard_dirs):
        with ShardDirSource(shard_dirs["npz"], max_cached=2, prefetch=1) as src:
            src.prefetch([3, 1, 5])  # opens 3 right away
            assert src.cache_info()["counters"]["prefetched"] == 1
            src.snapshot(3)  # prefetch hit; opens 1
            src.snapshot(1)  # prefetch hit; opens 5
            src.snapshot(5)  # prefetch hit; end of the hint
            c = src.cache_info()["counters"]
            assert (c["misses"], c["prefetched"], c["prefetch_hits"]) == (0, 3, 3)
            src.snapshot(0)  # off the hint: drop it, fall back to index order
            src.snapshot(1)
            c = src.cache_info()["counters"]
            assert (c["misses"], c["prefetched"], c["prefetch_hits"]) == (1, 5, 4)


class TestMemberDecode:
    def test_background_decodes_what_the_consumer_read(self, shard_dirs, sst):
        with ShardDirSource(shard_dirs["npz"], max_cached=3, prefetch=1) as src:
            src.snapshot(0).get("u")  # the consumer reads u ...
            wait_idle()
            src.snapshot(1)           # ... so read-ahead decodes u on shard 2
            wait_idle()
            ahead = src.snapshot(2)
            assert ahead.decoded_members() == ["u"]
            assert np.array_equal(ahead.get("u"), sst.snapshots[2].get("u"))

    def test_derived_variables_are_not_computed_ahead(self, shard_dirs, sst):
        with ShardDirSource(shard_dirs["npz"], max_cached=3, prefetch=1) as src:
            src.snapshot(0).get("pv")  # reads u, v, w, r through the derivation
            src.snapshot(1)
            wait_idle()
            ahead = src.snapshot(2)
            assert ahead.decoded_members() == ["r", "u", "v", "w"]
            assert "pv" not in ahead._cache
            assert np.array_equal(ahead.get("pv"), sst.snapshots[2].get("pv"))

    def test_no_member_decoded_twice(self, shard_dirs, sst, monkeypatch):
        from repro.data import store

        loads = []
        init = store.LazyMembers.__init__

        def counting_init(self, members, load_one, load_all=None):
            def load(key):
                loads.append((threading.current_thread().name, key))
                return load_one(key)
            init(self, members, load, load_all)

        monkeypatch.setattr(store.LazyMembers, "__init__", counting_init)
        with ShardDirSource(shard_dirs["npz"], max_cached=2, prefetch=1) as src:
            for i in range(sst.n_snapshots):
                snap = src.snapshot(i)
                snap.get("u"), snap.get("p")
        # One decode per (shard, member) visited, whichever thread did it.
        assert sorted(k for _, k in loads) == sorted(["u", "p"] * sst.n_snapshots)


class TestSampleBytes:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("mode", ["batch", "stream"])
    @pytest.mark.parametrize("nranks", [1, 2])
    def test_default_matches_prefetch_off(self, shard_dirs, codec, mode, nranks):
        results = []
        for kw in ({}, {"prefetch": 0}):
            with ShardDirSource(shard_dirs[codec], **kw) as src:
                res = subsample(src, small_case(), nranks=nranks, seed=5, mode=mode)
            results.append(res)
        default, off = results
        assert np.array_equal(default.selected_cube_ids, off.selected_cube_ids)
        assert default.points.coords.tobytes() == off.points.coords.tobytes()
        for var, vals in off.points.values.items():
            assert default.points.values[var].tobytes() == vals.tobytes(), var


class TestLifecycle:
    def test_no_thread_alive_after_close(self, shard_dirs, sst):
        src = ShardDirSource(shard_dirs["npz"], max_cached=3, prefetch=2)
        for i in range(sst.n_snapshots):
            src.snapshot(i).get("pv")
        src.close()
        assert not readahead_threads()
        src.snapshot(0).get("u")  # still serves reads after close ...
        src.snapshot(1).get("u")
        assert not readahead_threads()  # ... without reading ahead

    def test_closed_source_and_fields_freed_by_refcount(self, shard_dirs, sst):
        gc.collect()
        gc.disable()
        try:
            src = ShardDirSource(shard_dirs["npz"], max_cached=3, prefetch=2)
            fields = [src.snapshot(i) for i in range(3)]
            for f in fields:
                f.get("pv")
            src.close()
            refs = [weakref.ref(src), *(weakref.ref(f) for f in fields)]
            del src, fields, f
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestConcurrentConsumers:
    def test_shared_source_under_thread_contention(self, shard_dirs, sst):
        """More consumer threads than cores, switching every microsecond,
        share one source: every read returns the stored bytes, residency
        stays bounded, every call is counted once, and close leaves no
        read-ahead thread."""
        import sys

        n = sst.n_snapshots
        src = ShardDirSource(shard_dirs["npz"], max_cached=3, prefetch=2)
        errors, calls = [], []
        old_interval = sys.getswitchinterval()

        def consume(worker):
            try:
                rng = np.random.default_rng(worker)
                for _ in range(40):
                    i = int(rng.integers(n))
                    if rng.random() < 0.2:
                        src.prefetch(rng.permutation(n)[:3])
                    for var in ("u", "r"):
                        got = src.snapshot(i).get(var)
                        calls.append(i)
                        if not np.array_equal(got, sst.snapshots[i].get(var)):
                            errors.append((worker, i, var))
                    if src.cache_info()["gauges"]["resident"] > 3:
                        errors.append((worker, "resident"))
            except Exception as exc:  # surfaced by the assertion below
                errors.append((worker, repr(exc)))

        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=consume, args=(w,), daemon=True)
                       for w in range(6)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
        finally:
            sys.setswitchinterval(old_interval)
            src.close()
        assert errors == []
        info = src.cache_info()
        assert info["counters"]["hits"] + info["counters"]["misses"] == len(calls)
        assert info["gauges"]["max_resident"] <= 3
        assert not readahead_threads()
