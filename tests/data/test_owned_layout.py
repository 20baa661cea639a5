"""Tests for per-rank span sources — each rank owning a private source over
its snapshot range — and the cross-rank cache_info aggregation."""

import os

import numpy as np
import pytest

from repro.data import (
    InMemorySource,
    PartitionedSource,
    RemoteTieredSource,
    ShardDirSource,
    aggregate_cache_info,
    build_dataset,
    save_dataset,
)
from repro.parallel.partition import stream_partitions


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=5)


@pytest.fixture(scope="module")
def shard_dir(sst, tmp_path_factory):
    path = tmp_path_factory.mktemp("span-shards")
    save_dataset(sst, str(path))
    return str(path)


def assert_same_snapshot(got, want):
    assert got.time == want.time
    for name, arr in want.variables.items():
        assert np.array_equal(got.get(name), arr), name


class TestSpanSource:
    def test_span_serves_its_shards(self, shard_dir, sst):
        with ShardDirSource(shard_dir) as base:
            for lo, hi in [(0, 3), (3, 5)]:
                with base.span(lo, hi) as src:
                    assert type(src) is ShardDirSource
                    assert src.n_snapshots == hi - lo
                    assert src.label == sst.label
                    for j in range(src.n_snapshots):
                        assert_same_snapshot(src.snapshot(j), sst.snapshots[lo + j])
                    with pytest.raises(IndexError):
                        src.snapshot(hi - lo)

    def test_ownership_is_disjoint_and_covering(self, shard_dir, sst):
        times = []
        with ShardDirSource(shard_dir) as base:
            for part in stream_partitions(base.n_snapshots, 3):
                with base.span(part.lo, part.hi) as src:
                    times.extend(src.times)
        # Every snapshot appears exactly once, in global order.
        assert times == list(sst.times)

    def test_empty_tail_span(self, shard_dir, sst):
        with ShardDirSource(shard_dir) as base:
            base.snapshot(0)
            with base.span(sst.n_snapshots, sst.n_snapshots) as tail:
                assert tail.n_snapshots == 0
                assert tail.nbytes() == 0
                assert tail.grid_shape == sst.grid_shape
                assert list(tail.iter_tables(["u"])) == []
                assert list(tail.iter_snapshots()) == []

    def test_target_sliced_per_rank(self, tmp_path):
        ds = build_dataset("OF2D", scale=0.3, rng=0, n_snapshots=4)
        assert ds.target is not None
        path = str(tmp_path / "of2d")
        save_dataset(ds, path)
        with ShardDirSource(path) as base:
            for lo, hi in [(0, 2), (2, 4)]:
                with base.span(lo, hi) as src:
                    assert np.allclose(src.target, ds.target[lo:hi])
                    assert np.array_equal(src.times, ds.times[lo:hi])

    def test_rank_source_is_private(self, shard_dir):
        with ShardDirSource(shard_dir, max_cached=1) as base:
            a, b = base.span(0, 3), base.span(3, 5)
            try:
                a.snapshot(0)
                assert a.cache_info()["counters"]["misses"] == 1
                assert b.cache_info()["counters"]["misses"] == 0  # no shared cache
                assert base.cache_info()["counters"]["misses"] == 0
                assert a.max_cached == 1 and a.prefetch_depth == base.prefetch_depth
            finally:
                a.close()
                b.close()

    def test_span_of_a_span(self, shard_dir, sst):
        with ShardDirSource(shard_dir) as base:
            with base.span(1, 5) as outer, outer.span(1, 3) as inner:
                assert inner.n_snapshots == 2
                for j in range(2):
                    assert_same_snapshot(inner.snapshot(j), sst.snapshots[2 + j])

    def test_span_writes_nothing(self, shard_dir, tmp_path, monkeypatch):
        """A span reads the directory in place: no layout, no temp dir."""
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        before = sorted(os.listdir(shard_dir))
        with ShardDirSource(shard_dir) as base, base.span(1, 4) as src:
            for j in range(src.n_snapshots):
                src.snapshot(j).get("u")
        assert sorted(os.listdir(shard_dir)) == before
        assert os.listdir(scratch) == []

    def test_validation(self, shard_dir):
        with ShardDirSource(shard_dir) as base:
            for lo, hi in [(-1, 2), (3, 2), (0, 6)]:
                with pytest.raises(ValueError, match="span"):
                    base.span(lo, hi)

    def test_remote_span_stages_privately(self, shard_dir, sst):
        remote = RemoteTieredSource(shard_dir, max_staged=3, latency_s=0.25)
        try:
            with remote.span(2, 4) as src:
                assert type(src) is RemoteTieredSource
                assert src.remote_path == remote.remote_path
                assert src.max_staged == 3 and src.latency_s == 0.25
                assert src.path != remote.path  # private staging tier
                assert_same_snapshot(src.snapshot(1), sst.snapshots[3])
                assert np.array_equal(src.times, sst.times[2:4])
                assert src.cache_info()["counters"]["remote_fetches"] == 1
                staging = src.path
            assert not os.path.isdir(staging)
            assert os.path.isdir(remote.path)
        finally:
            remote.close()

    def test_in_memory_span_is_a_shared_view(self, sst):
        base = InMemorySource(sst)
        view = base.span(1, 3)
        assert isinstance(view, PartitionedSource)
        assert view.snapshot(0) is sst.snapshots[1]
        view.close()  # a no-op: the base stays usable
        assert base.snapshot(1) is sst.snapshots[1]


class TestAggregateCacheInfo:
    def test_sums_counters_and_derives_decodes(self):
        infos = [
            {"hits": 2, "misses": 3, "prefetched": 1, "evictions": 0},
            {"hits": 1, "misses": 2, "prefetched": 0, "evictions": 4},
        ]
        agg = aggregate_cache_info(infos)
        assert agg["ranks"] == 2
        assert agg["hits"] == 3 and agg["misses"] == 5
        assert agg["decodes"] == 5 + 1
        assert agg["evictions"] == 4

    def test_skips_none_entries(self):
        agg = aggregate_cache_info([None, {"misses": 2}, None])
        assert agg["ranks"] == 1 and agg["decodes"] == 2

    def test_empty(self):
        agg = aggregate_cache_info([])
        assert agg["ranks"] == 0 and agg["decodes"] == 0


class TestCloseLifecycle:
    def test_close_joins_prefetch_thread(self, shard_dir, busy_readahead):
        src = ShardDirSource(shard_dir, max_cached=2, prefetch=2)
        src.prefetch([0, 1])
        src.snapshot(0)
        assert busy_readahead(), "read-ahead never started"
        src.close()
        leaked = busy_readahead()
        assert leaked == [], f"read-ahead thread leaked: {leaked}"

    def test_context_manager_closes(self, shard_dir, busy_readahead):
        with ShardDirSource(shard_dir, max_cached=2, prefetch=1) as src:
            src.snapshot(0)
            src.snapshot(1)
            assert busy_readahead(), "read-ahead never started"
        assert busy_readahead() == []
        # Closing is idempotent and reentry-safe.
        src.close()
