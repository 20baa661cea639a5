"""Shard-codec registry tests: every codec round-trips byte-identically,
stream subsampling is codec-invariant per (seed, nranks) — per-rank span
sources and both backends included — and lazy decode keeps real Mapping
semantics."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.api import Experiment
from repro.data import (
    ShardDirSource,
    build_dataset,
    codec_names,
    get_codec,
    load_dataset,
    open_source,
    register_codec,
    save_dataset,
)
from repro.data.codecs import ShardCodec
from repro.data.store import MANIFEST, read_manifest, write_manifest
from repro.sampling import subsample
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig

ALL_CODECS = ("npz", "raw", "chunked")


@pytest.fixture(scope="module")
def sst():
    return build_dataset("SST-P1F4", scale=1.0, rng=0, n_snapshots=6)


@pytest.fixture(scope="module")
def codec_dirs(sst, tmp_path_factory):
    """One saved shard directory per codec, from the same dataset."""
    dirs = {}
    for codec in ALL_CODECS:
        path = tmp_path_factory.mktemp(f"shards_{codec}")
        save_dataset(sst, str(path), codec=codec)
        dirs[codec] = str(path)
    return dirs


def stream_case(**overrides):
    sub = dict(hypercubes="maxent", method="maxent", num_hypercubes=4,
               num_samples=32, num_clusters=4, nxsl=8, nysl=8, nzsl=8)
    sub.update(overrides)
    return CaseConfig(
        shared=SharedConfig(dims=3),
        subsample=SubsampleConfig(**sub),
        train=TrainConfig(arch="mlp_transformer"),
    )


class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert set(ALL_CODECS) <= set(codec_names())

    def test_get_codec_accepts_instance_and_name(self):
        raw = get_codec("raw")
        assert get_codec(raw) is raw
        assert get_codec("raw") is raw  # registry holds singletons

    def test_unknown_codec_is_loud(self):
        with pytest.raises(KeyError, match="unknown shard codec 'zstd'"):
            get_codec("zstd")

    def test_register_codec_extends_registry(self):
        class NullCodec(ShardCodec):
            name = "test-null"

            def shard_name(self, index):
                return f"{index}.null"

            def encode(self, directory, index, field):
                raise NotImplementedError

            def decode(self, directory, index):
                raise NotImplementedError

            def decode_lazy(self, directory, index):
                raise NotImplementedError

            def shard_time(self, directory, index):
                raise NotImplementedError

        try:
            register_codec(NullCodec)
            assert "test-null" in codec_names()
            assert get_codec("test-null").shard_name(3) == "3.null"
        finally:
            from repro.data.codecs import CODECS

            CODECS.pop("test-null", None)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_save_load_is_bit_exact(self, sst, codec_dirs, codec):
        ds = load_dataset("sst-binary", path=codec_dirs[codec])
        assert ds.label == sst.label
        assert ds.n_snapshots == sst.n_snapshots
        for got, want in zip(ds.snapshots, sst.snapshots):
            assert got.time == want.time
            assert sorted(got.variables) == sorted(want.variables)
            for name, arr in want.variables.items():
                got_arr = np.asarray(got.variables[name])
                assert got_arr.dtype == arr.dtype, name
                assert np.array_equal(got_arr, arr), name

    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_manifest_self_describes_and_source_autodetects(
        self, codec_dirs, codec
    ):
        manifest = read_manifest(codec_dirs[codec])
        assert manifest["codec"] == codec
        src = ShardDirSource(codec_dirs[codec])
        assert src.codec.name == codec

    def test_legacy_manifest_without_codec_key_reads_as_npz(
        self, sst, tmp_path
    ):
        path = str(tmp_path / "legacy")
        save_dataset(sst, path)  # npz default
        manifest = read_manifest(path)
        del manifest["codec"]
        write_manifest(path, manifest)
        src = ShardDirSource(path)
        assert src.codec.name == "npz"
        assert np.array_equal(
            src.snapshot(0).get("u"), sst.snapshots[0].get("u")
        )

    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_source_times_and_nbytes_match_npz(self, codec_dirs, codec):
        ref = ShardDirSource(codec_dirs["npz"])
        src = ShardDirSource(codec_dirs[codec])
        assert np.array_equal(src.times, ref.times)
        assert src.nbytes() == ref.nbytes()
        assert src.grid_shape == ref.grid_shape


class TestStreamGolden:
    """Acceptance: stream-subsample output is byte-identical to the npz
    golden for every codec, per (seed, nranks)."""

    @pytest.mark.parametrize("seed,nranks", [(0, 1), (0, 2), (3, 2)])
    def test_codecs_match_npz_golden(self, codec_dirs, seed, nranks):
        def run(path):
            src = open_source(path, max_cached=2)
            try:
                return subsample(src, stream_case(), nranks=nranks,
                                 seed=seed, mode="stream")
            finally:
                src.close()

        golden = run(codec_dirs["npz"])
        for codec in ("raw", "chunked"):
            got = run(codec_dirs[codec])
            assert np.array_equal(golden.points.coords, got.points.coords), codec
            assert np.array_equal(golden.points.time, got.points.time), codec
            for var, vals in golden.points.values.items():
                assert np.array_equal(vals, got.points.values[var]), (codec, var)

    def test_remote_tier_matches_npz_golden(self, codec_dirs):
        golden_src = open_source(codec_dirs["npz"], max_cached=2)
        remote_src = open_source(
            f"remote://{codec_dirs['raw']}?latency_s=0.01&max_staged=2"
        )
        try:
            golden = subsample(golden_src, stream_case(), nranks=2, seed=0,
                               mode="stream")
            got = subsample(remote_src, stream_case(), nranks=2, seed=0,
                            mode="stream")
        finally:
            golden_src.close()
            remote_src.close()
        assert np.array_equal(golden.points.coords, got.points.coords)
        for var, vals in golden.points.values.items():
            assert np.array_equal(vals, got.points.values[var]), var
        assert remote_src.cache_info()["counters"]["remote_fetches"] > 0


#: sha256 of the stream-subsample points, and the per-epoch (train, test)
#: losses of the stream-trained fit on top, per rank count, for
#: :meth:`TestSpanGolden.run`.  Recorded before per-rank span sources
#: existed, from both earlier rank views — hardlinked per-rank shard
#: directories and one shared cache — which agreed for every codec and
#: backend.
SPAN_GOLDEN = {
    2: ("be411c73306a5c939f60f2110527edd884d06172fa2f78ca46ce37ceb71a29b3",
        [0.015996927286198212, 0.014826156014140205],
        [0.01469442406656403, 0.01419587472842064]),
    4: ("5f07db612efbd2ecd5c9d9200de28d5b9a58585e4d3997e8147cac63764a1dfb",
        [0.01706309796377847, 0.01574234180202701],
        [0.015476738684059755, 0.014990936777915576]),
}


class TestSpanGolden:
    """Multi-rank stream subsample + stream train over a shard directory,
    where every rank reads a private span source: byte-identical samples
    and identical losses for every codec, backend and rank count."""

    @pytest.fixture(scope="class")
    def span_dirs(self, tmp_path_factory):
        ds = build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=12)
        dirs = {}
        for codec in ALL_CODECS:
            path = tmp_path_factory.mktemp(f"span_{codec}")
            save_dataset(ds, str(path), codec=codec)
            dirs[codec] = str(path)
        return dirs

    @staticmethod
    def run(path, backend, nranks):
        case = stream_case()
        case.train = TrainConfig(epochs=2, batch=4, window=2, horizon=1,
                                 arch="mlp_transformer")
        src = open_source(path, max_cached=2)
        try:
            return (Experiment.from_case(case).with_source(src).with_seed(0)
                    .with_backend(backend).with_train_ranks(nranks)
                    .subsample(mode="stream", ranks=nranks)
                    .train(mode="stream"))
        finally:
            src.close()

    @pytest.mark.parametrize("nranks", (2, 4))
    @pytest.mark.parametrize("backend", ("thread", "process"))
    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_span_sources_match_parent_golden(self, span_dirs, codec, backend,
                                              nranks):
        exp = self.run(span_dirs[codec], backend, nranks)
        points = exp.subsample_artifact.result.points
        h = hashlib.sha256()
        for arr in (points.coords, points.time,
                    *(points.values[v] for v in sorted(points.values))):
            h.update(np.ascontiguousarray(arr).tobytes())
        fit = exp.train_artifact.result
        assert (h.hexdigest(), fit.train_losses, fit.test_losses) == SPAN_GOLDEN[nranks]
        assert exp.subsample_artifact.result.meta["cache"]["total"]["ranks"] == nranks
        assert fit.meta["cache"]["total"]["ranks"] == nranks


class TestLazyMappingSemantics:
    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_lazy_members_are_a_real_mapping(self, sst, codec_dirs, codec):
        snap = ShardDirSource(codec_dirs[codec], lazy=True).snapshot(0)
        assert snap.decoded_members() == []
        assert snap.grid_shape == sst.grid_shape  # metadata only, no decode
        assert snap.decoded_members() == []
        u = snap.get("u")
        assert snap.decoded_members() == ["u"]
        assert np.array_equal(u, sst.snapshots[0].get("u"))
        assert snap.variables.get("not-a-var", "sentinel") == "sentinel"
        full = dict(snap.variables)
        assert sorted(full) == sorted(sst.snapshots[0].variables)
        assert all(np.asarray(v).size for v in full.values())
        assert len(snap.variables) == len(sst.snapshots[0].variables)

    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_lazy_nbytes_is_header_only(self, codec_dirs, codec):
        lazy = ShardDirSource(codec_dirs[codec], lazy=True).snapshot(0)
        eager = ShardDirSource(codec_dirs[codec], lazy=False).snapshot(0)
        assert lazy.nbytes() == eager.nbytes()
        assert lazy.decoded_members() == []

    @pytest.mark.parametrize("codec", ("raw", "chunked"))
    def test_derived_variables_compose_with_lazy_members(
        self, sst, codec_dirs, codec
    ):
        snap = ShardDirSource(codec_dirs[codec], lazy=True).snapshot(0)
        assert np.allclose(snap.get("pv"), sst.snapshots[0].get("pv"))


class TestAtomicManifest:
    def test_write_manifest_replaces_atomically(self, tmp_path):
        path = str(tmp_path)
        write_manifest(path, {"n_snapshots": 1})
        assert read_manifest(path) == {"n_snapshots": 1}
        write_manifest(path, {"n_snapshots": 2})
        assert read_manifest(path) == {"n_snapshots": 2}
        assert not os.path.exists(os.path.join(path, MANIFEST + ".tmp"))

    def test_killed_writer_leaves_no_half_valid_dir(self, sst, tmp_path):
        """Satellite bugfix: a writer dying mid-save must leave a directory
        that ShardDirSource refuses, never one it silently opens."""
        path = str(tmp_path / "halfway")

        calls = {"n": 0}
        real_replace = os.replace

        def dying_replace(src, dst, *a, **kw):
            if dst.endswith(MANIFEST):
                calls["n"] += 1
                raise KeyboardInterrupt("killed mid-save")  # before commit
            return real_replace(src, dst, *a, **kw)

        import repro.data.store as store_mod

        store_mod.os.replace, saved = dying_replace, store_mod.os.replace
        try:
            with pytest.raises(KeyboardInterrupt):
                save_dataset(sst, path, codec="raw")
        finally:
            store_mod.os.replace = saved
        assert calls["n"] == 1
        # Shards exist but the commit record does not: opening must fail.
        assert os.path.isdir(path) and os.listdir(path)
        assert not os.path.exists(os.path.join(path, MANIFEST))
        with pytest.raises(FileNotFoundError, match="no manifest.json"):
            ShardDirSource(path)

    def test_torn_tmp_file_never_shadows_manifest(self, sst, tmp_path):
        """The tmp file is invisible to readers even if it survives."""
        path = str(tmp_path / "ds")
        save_dataset(sst, path, codec="chunked")
        torn = os.path.join(path, MANIFEST + ".tmp")
        with open(torn, "w", encoding="utf-8") as fh:
            fh.write('{"n_snapshots":')  # torn JSON
        manifest = read_manifest(path)
        assert manifest["codec"] == "chunked"
        assert json.loads(open(os.path.join(path, MANIFEST)).read()) == manifest
