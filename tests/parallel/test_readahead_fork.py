"""Shard read-ahead threads across the process backend's fork.

A forked child holds only the forking thread.  Had a read-ahead thread
been inside a member decode at the fork, the child would inherit that
shard's member lock held forever and hang on its first read of the
member.  The source therefore stops every read-ahead thread before a fork
and resumes it in the parent only.
"""

import threading
import time

import numpy as np

from repro.data import ShardDirSource, build_dataset, save_dataset, store
from repro.parallel import run_spmd
from repro.sampling.pipeline import run_subsample
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


def _case():
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(hypercubes="maxent", method="maxent",
                                  num_hypercubes=6, num_samples=16,
                                  num_clusters=4, nxsl=8, nysl=8, nzsl=8),
        train=TrainConfig(arch="mlp_transformer"),
    )


def _readahead_alive() -> bool:
    return any(t.name == "shard-readahead" for t in threading.enumerate())


def test_process_batch_after_parent_reads_ahead(tmp_path, monkeypatch):
    dataset = build_dataset("SST-P1F4", scale=0.5, rng=2, n_snapshots=6)
    path = str(tmp_path / "shards")
    save_dataset(dataset, path, codec="npz")
    want = run_spmd(run_subsample, 2, dataset, _case(), seed=4)[0]

    # Slow every background member decode, so the fork below lands while
    # one is in progress.
    init = store.LazyMembers.__init__

    def slow_init(self, members, load_one, load_all=None):
        def load(key):
            if threading.current_thread().name == "shard-readahead":
                time.sleep(0.3)
            return load_one(key)
        init(self, members, load, load_all)

    monkeypatch.setattr(store.LazyMembers, "__init__", slow_init)
    src = ShardDirSource(path, max_cached=3, prefetch=2)
    try:
        src.snapshot(0).get(src.cluster_var)  # the parent reads a member ...
        src.snapshot(1)  # ... so shards 2 and 3 decode it in the background
        assert _readahead_alive()
        got = run_spmd(run_subsample, 2, src, _case(), seed=4,
                       backend="process", timeout=60)[0]
        # The parent's read-ahead resumed after the fork and drains.
        deadline = time.monotonic() + 10.0
        while _readahead_alive():
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        src.close()
    assert not _readahead_alive()
    assert np.array_equal(got.selected_cube_ids, want.selected_cube_ids)
    assert got.points.coords.tobytes() == want.points.coords.tobytes()
    for var, vals in want.points.values.items():
        assert got.points.values[var].tobytes() == vals.tobytes(), var
