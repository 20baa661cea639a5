"""Content-key stability — the dedupe identity must not drift.

Pins the satellite contract: keys are invariant to dict ordering,
defaulted-vs-spelled-out case fields, and the SPMD backend (the PR 6
conformance grid makes backends byte-interchangeable), and sensitive to
everything that perturbs artifact bytes (seed, ranks, scale, kind).
"""

import copy
import re

import pytest

from repro.api import SubsampleArtifact
from repro.serve.keys import (
    canonical_json,
    content_key,
    dir_fingerprint,
    source_fingerprint,
)
from repro.spec import RunSpec, SpecError

from _serve_cases import TINY_CASE


def reordered(doc: dict) -> dict:
    """Deep copy with every dict's insertion order reversed."""
    if isinstance(doc, dict):
        return {k: reordered(doc[k]) for k in reversed(list(doc))}
    if isinstance(doc, list):
        return [reordered(v) for v in doc]
    return copy.deepcopy(doc)


class TestCanonicalJson:
    def test_ordering_invariant(self):
        assert canonical_json({"b": 1, "a": {"y": 2, "x": 3}}) == \
            canonical_json({"a": {"x": 3, "y": 2}, "b": 1})

    def test_minimal_and_ascii(self):
        text = canonical_json({"k": "v", "n": 1.5})
        assert text == '{"k":"v","n":1.5}'
        text.encode("ascii")  # must not raise

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"loss": float("nan")})

    def test_content_key_is_sha256_hex(self):
        key = content_key({"a": 1})
        assert len(key) == 64
        int(key, 16)  # hex


class TestJobSpecKeys:
    def spec(self, **over) -> RunSpec:
        base = {"kind": "subsample", "case": copy.deepcopy(TINY_CASE),
                "seed": 3, "ranks": 2, "scale": 0.5}
        base.update(over)
        return RunSpec.from_json(base)

    def test_stable_across_case_dict_ordering(self):
        assert self.spec().content_key() == \
            self.spec(case=reordered(TINY_CASE)).content_key()

    def test_stable_across_defaulted_fields(self):
        """A case round-tripped through CaseConfig (every default spelled
        out) must hash identically to the terse client-side dict."""
        from repro.utils.config import CaseConfig

        expanded = CaseConfig.from_dict(copy.deepcopy(TINY_CASE)).to_dict()
        assert expanded != TINY_CASE  # defaults really were filled in
        assert self.spec().content_key() == \
            self.spec(case=expanded).content_key()

    def test_backend_excluded(self):
        assert self.spec(backend="thread").content_key() == \
            self.spec(backend="process").content_key()

    def test_execution_policy_excluded(self):
        assert self.spec().content_key() == \
            self.spec(retries=3).content_key()
        train = self.spec(kind="train", epochs=2)
        assert train.content_key() == \
            self.spec(kind="train", epochs=2,
                      checkpoint_every=5).content_key()

    @pytest.mark.parametrize("field,value", [
        ("seed", 4),
        ("ranks", 3),
        ("scale", 0.75),
        ("mode", "stream"),
        ("stream_shuffle", 7),
    ])
    def test_identity_fields_included(self, field, value):
        assert self.spec().content_key() != \
            self.spec(**{field: value}).content_key()

    def test_kind_included(self):
        sub = self.spec()
        train = self.spec(kind="train", epochs=2)
        assert sub.content_key() != train.content_key()

    def test_epochs_perturb_train_keys(self):
        assert self.spec(kind="train", epochs=2).content_key() != \
            self.spec(kind="train", epochs=3).content_key()

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown job spec field"):
            RunSpec.from_json({"kind": "subsample", "case": TINY_CASE,
                               "sed": 3})


class TestPinnedContentKeys:
    """Keys recorded with the key scheme at KEY_SCHEMA 2: a store written
    then must keep answering for the same specs."""

    PINNED = {
        "batch-catalog": (
            {"kind": "subsample", "seed": 3, "ranks": 1, "scale": 0.5},
            "bf2a465f6275927ff37d64abcc953db64d6594e18318928d0617ac1b23e764ee"),
        "stream-2rank-reweight": (
            {"kind": "subsample", "seed": 3, "ranks": 2, "scale": 0.5,
             "mode": "stream", "on_rank_failure": "reweight"},
            "d4ba943d4f992589b4b20a6aa841e3bfe50f2d8a4c6a907316b3120578e0d60b"),
        "train-epochs2": (
            {"kind": "train", "seed": 3, "ranks": 1, "scale": 0.5, "epochs": 2},
            "2f67dcd822400bcb39f6371800e3ec27a04fe2fb144f22a2b83fa55ad5045242"),
        "tune-random": (
            {"kind": "tune", "seed": 3, "scale": 0.5, "tune_trials": 2,
             "tune_strategy": "random"},
            "7ff2c7a2d0d8cd0eef78b6fe334b85a04b700c1f9519e2089e0d6cdd6b142a80"),
        "sim-max-cached-3": (
            {"kind": "subsample", "seed": 3, "scale": 0.5, "source": "sim",
             "max_cached_shards": 3},
            "265e2e4a009a83ab6d330a8a17247360b0269b5d225367de7a7e8891682b89c1"),
        "shards-prefetch-0": (
            {"kind": "subsample", "seed": 3, "scale": 0.5, "source": "SHARDS",
             "prefetch": 0},
            "f89819d04425195f011039c6413357cf0633e9e0b4a44a38fda5645adb8325f6"),
    }

    @pytest.fixture(scope="class")
    def shard_dir(self, tmp_path_factory):
        from repro.data import build_dataset, save_dataset

        path = str(tmp_path_factory.mktemp("pinned") / "shards")
        save_dataset(
            build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2), path)
        return path

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_key_matches_recorded_value(self, name, shard_dir):
        fields, key = self.PINNED[name]
        if fields.get("source") == "SHARDS":
            fields = {**fields, "source": shard_dir}
        spec = RunSpec.from_json({"case": copy.deepcopy(TINY_CASE), **fields})
        spec.validate()
        assert spec.content_key() == key
        assert spec.key_doc()["schema"] == 2

    def test_to_dict_round_trips(self):
        """Spool job.json records hold to_dict(); a restore parses them."""
        spec = RunSpec.from_json({"kind": "train", "case": TINY_CASE,
                                  "seed": 3, "epochs": 2})
        assert RunSpec.from_json(spec.to_dict()) == spec
        assert set(spec.to_dict()) == {
            "kind", "case", "seed", "ranks", "mode", "backend", "source",
            "scale", "epochs", "max_cached_shards", "prefetch",
            "on_rank_failure", "stream_shuffle", "inject_rank_failure",
            "tune_trials", "tune_strategy", "retries", "checkpoint_every"}


class TestSubmitTimeRejections:
    """Specs the service used to admit and then fail at run time (or
    crash the handler on) are rejected by RunSpec at submit."""

    @pytest.mark.parametrize("over,match", [
        ({"max_cached_shards": 0}, "max_cached_shards must be >= 1"),
        ({"max_cached_shards": -2}, "max_cached_shards must be >= 1"),
        ({"source": "sim", "max_cached_shards": 0},
         "max_cached_shards must be >= 1"),
        ({"ranks": 0}, "ranks must be >= 1"),
        ({"scale": 0}, "scale must be > 0"),
        ({"kind": "train", "epochs": 0}, "epochs must be >= 1"),
        ({"kind": "tune", "tune_trials": 2, "backend": "process"},
         "backend='process' would be silently ignored"),
        ({"kind": "tune", "tune_trials": 2, "tune_strategy": "grid"},
         "tune_strategy must be random|bayes"),
    ])
    def test_out_of_range_rejected(self, over, match):
        spec = RunSpec.from_json({"kind": "subsample", "case": TINY_CASE,
                                  **over})
        with pytest.raises(SpecError, match=re.escape(match)):
            spec.validate()

    @pytest.mark.parametrize("over,field", [
        ({"ranks": "2"}, "ranks"),
        ({"scale": None}, "scale"),
        ({"seed": True}, "seed"),
        ({"epochs": 1.5}, "epochs"),
        ({"case": [1, 2]}, "case"),
        ({"source": 3}, "source"),
    ])
    def test_wrong_types_rejected(self, over, field):
        with pytest.raises(SpecError, match=f"^{field} must be") as err:
            RunSpec.from_json({"kind": "subsample", "case": TINY_CASE,
                               **over})
        assert err.value.field == field


class TestSourceFingerprint:
    def test_catalog_vs_sim_distinct(self):
        cat = source_fingerprint(None, dtype="sst-binary", scale=0.5, seed=0)
        sim = source_fingerprint("sim", dtype="sst-binary", scale=0.5, seed=0)
        assert cat["kind"] == "catalog"
        assert sim["kind"] == "sim"
        assert content_key(cat) != content_key(sim)

    def test_dir_fingerprint_requires_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            dir_fingerprint(str(tmp_path))

    def test_dir_fingerprint_tracks_structure(self, tmp_path):
        from repro.data import build_dataset, save_dataset

        shard_dir = str(tmp_path / "shards")
        save_dataset(
            build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2),
            shard_dir)
        first = dir_fingerprint(shard_dir)
        assert first == dir_fingerprint(shard_dir)  # stable
        (tmp_path / "shards" / "extra.bin").write_bytes(b"xx")
        assert dir_fingerprint(shard_dir) != first

    def test_cache_knobs_are_identity(self, tmp_path):
        from repro.data import build_dataset, save_dataset

        shard_dir = str(tmp_path / "shards")
        save_dataset(
            build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2),
            shard_dir)
        kw = {"dtype": "sst-binary", "scale": 0.5, "seed": 0}
        base = source_fingerprint(shard_dir, **kw)
        assert source_fingerprint(shard_dir, **kw) == base
        assert source_fingerprint(shard_dir, prefetch=2, **kw) != base
        assert source_fingerprint(shard_dir, max_cached=5, **kw) != base

    def test_omitted_prefetch_keys_as_the_source_default(self, tmp_path):
        from repro.data import build_dataset, save_dataset
        from repro.data.sources import DEFAULT_PREFETCH

        shard_dir = str(tmp_path / "shards")
        save_dataset(
            build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2),
            shard_dir)
        kw = {"dtype": "sst-binary", "scale": 0.5, "seed": 0}
        base = source_fingerprint(shard_dir, **kw)
        assert source_fingerprint(shard_dir, prefetch=DEFAULT_PREFETCH, **kw) == base
        assert source_fingerprint(shard_dir, prefetch=0, **kw) != base
        case = copy.deepcopy(TINY_CASE)
        omitted = RunSpec.from_json({"kind": "subsample", "case": case,
                                     "source": shard_dir})
        spelled = RunSpec.from_json({"kind": "subsample", "case": case,
                                     "source": shard_dir,
                                     "prefetch": DEFAULT_PREFETCH})
        assert omitted.prefetch is None
        assert omitted.content_key() == spelled.content_key()

    def test_explicit_prefetch_requires_a_shard_source(self):
        case = copy.deepcopy(TINY_CASE)
        RunSpec.from_json({"kind": "subsample", "case": case}).validate()
        for value in (0, 2):
            with pytest.raises(SpecError, match="shard-directory"):
                RunSpec.from_json({"kind": "subsample", "case": case,
                                   "prefetch": value}).validate()
        with pytest.raises(SpecError, match=">= 0"):
            RunSpec.from_json({"kind": "subsample", "case": case, "source": "x",
                               "prefetch": -1}).validate()


class TestArtifactFingerprint:
    def meta(self) -> dict:
        return {"seed": 3, "scale": 0.5, "ranks": 2, "backend": "thread",
                "case": copy.deepcopy(TINY_CASE)}

    def test_stable_across_meta_ordering(self):
        a = SubsampleArtifact(meta=self.meta())
        b = SubsampleArtifact(meta=reordered(self.meta()))
        assert a.fingerprint() == b.fingerprint()

    def test_backend_and_checkpoint_dropped(self):
        a = SubsampleArtifact(meta=self.meta())
        b = SubsampleArtifact(meta={**self.meta(), "backend": "process",
                                    "checkpoint": "/tmp/x.npz"})
        assert a.fingerprint() == b.fingerprint()

    def test_seed_and_kind_matter(self):
        a = SubsampleArtifact(meta=self.meta())
        assert a.fingerprint() != \
            SubsampleArtifact(meta={**self.meta(), "seed": 4}).fingerprint()
        from repro.api import TrainArtifact

        assert a.fingerprint() != \
            TrainArtifact(meta=self.meta()).fingerprint()
