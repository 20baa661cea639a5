"""RunSpec: one field set, one rule set, one rendering per front end."""

import copy
import dataclasses

import pytest

from repro.api import Experiment
from repro.spec import (
    FLAGS,
    RunSpec,
    SpecError,
    check_field,
    flag_spelling,
    json_spelling,
)

#: the SST case of tests/test_cli.py
CASE = {
    "shared": {"dims": 3, "dtype": "sst-binary", "input_vars": ["u", "v", "w"],
               "output_vars": "p", "cluster_var": "pv", "gravity": "z"},
    "subsample": {"hypercubes": "maxent", "num_hypercubes": 3,
                  "method": "maxent", "num_samples": 64, "num_clusters": 4,
                  "nxsl": 8, "nysl": 8, "nzsl": 8},
    "train": {"epochs": 2, "batch": 4, "window": 1, "arch": "MLP_transformer"},
}


def spec(**over) -> RunSpec:
    return RunSpec(**{"kind": "subsample", "case": copy.deepcopy(CASE), **over})


class TestFields:
    def test_exactly_the_job_spec_fields(self):
        assert [f.name for f in dataclasses.fields(RunSpec)] == [
            "kind", "case", "seed", "ranks", "mode", "backend", "source",
            "scale", "epochs", "max_cached_shards", "prefetch",
            "on_rank_failure", "stream_shuffle", "inject_rank_failure",
            "tune_trials", "tune_strategy", "retries", "checkpoint_every"]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec().ranks = 2

    def test_int_scale_becomes_float(self):
        assert spec(scale=1).scale == 1.0
        assert isinstance(spec(scale=1).scale, float)

    @pytest.mark.parametrize("field,value", [
        ("ranks", "2"), ("ranks", True), ("ranks", 1.0), ("scale", None),
        ("scale", False), ("mode", None), ("source", 1), ("case", "x.yaml"),
        ("prefetch", "0"),
    ])
    def test_type_checked_from_annotation(self, field, value):
        with pytest.raises(SpecError) as err:
            spec(**{field: value})
        assert err.value.field == field

    def test_every_flag_names_a_field(self):
        assert set(FLAGS) <= {f.name for f in dataclasses.fields(RunSpec)}


class TestRules:
    @pytest.mark.parametrize("over,field", [
        ({"kind": "fit"}, "kind"),
        ({"mode": "online"}, "mode"),
        ({"backend": "mpi"}, "backend"),
        ({"ranks": 0}, "ranks"),
        ({"scale": -1.0}, "scale"),
        ({"epochs": 0}, "epochs"),
        ({"max_cached_shards": 0}, "max_cached_shards"),
        ({"source": "d", "prefetch": -1}, "prefetch"),
        ({"on_rank_failure": "ignore"}, "on_rank_failure"),
        ({"stream_shuffle": -1}, "stream_shuffle"),
        ({"kind": "tune", "tune_trials": 0}, "tune_trials"),
        ({"kind": "tune", "tune_trials": 1, "tune_strategy": "grid"},
         "tune_strategy"),
        ({"retries": -1}, "retries"),
        ({"kind": "train", "checkpoint_every": 0}, "checkpoint_every"),
    ])
    def test_field_bounds(self, over, field):
        with pytest.raises(SpecError) as err:
            spec(**over).validate()
        assert err.value.field == field

    @pytest.mark.parametrize("over,field", [
        ({"prefetch": 1}, "prefetch"),
        ({"source": "sim", "prefetch": 0}, "prefetch"),
        ({"ranks": 2, "on_rank_failure": "reweight"}, "on_rank_failure"),
        ({"mode": "stream", "on_rank_failure": "raise"}, "on_rank_failure"),
        ({"inject_rank_failure": 0, "ranks": 2}, "inject_rank_failure"),
        ({"inject_rank_failure": 0, "mode": "stream"}, "inject_rank_failure"),
        ({"inject_rank_failure": 2, "mode": "stream", "ranks": 2},
         "inject_rank_failure"),
        ({"inject_rank_failure": -1, "mode": "stream", "ranks": 2},
         "inject_rank_failure"),
        ({"kind": "tune"}, "tune_trials"),
        ({"kind": "tune", "tune_trials": 2, "mode": "stream"}, "mode"),
        ({"kind": "tune", "tune_trials": 2, "ranks": 2}, "ranks"),
        ({"kind": "tune", "tune_trials": 2, "backend": "process"}, "backend"),
        ({"kind": "train", "tune_trials": 2}, "tune_trials"),
        ({"checkpoint_every": 2}, "checkpoint_every"),
        ({"kind": "tune", "tune_trials": 2, "checkpoint_every": 2},
         "checkpoint_every"),
        ({"case": {"subsample": {"method": "nope"}}}, "case"),
    ])
    def test_cross_field_rules(self, over, field):
        with pytest.raises(SpecError) as err:
            spec(**over).validate()
        assert err.value.field == field

    @pytest.mark.parametrize("over", [
        {},
        {"source": "shards/", "prefetch": 0, "max_cached_shards": 1},
        {"mode": "stream", "ranks": 2, "on_rank_failure": "reweight",
         "inject_rank_failure": 1},
        {"kind": "train", "mode": "stream", "ranks": 3, "checkpoint_every": 4,
         "epochs": 2, "stream_shuffle": 8, "retries": 2},
        {"kind": "tune", "tune_trials": 3, "tune_strategy": "random"},
    ])
    def test_valid_specs_pass(self, over):
        assert spec(**over).validate().subsample.method == "maxent"

    def test_validate_does_no_io(self, tmp_path):
        """A missing shard directory is the runner's problem, not a rule."""
        spec(source=str(tmp_path / "absent"), prefetch=2).validate()

    def test_warnings(self):
        assert [w.field for w in spec(max_cached_shards=3).warnings()] == [
            "max_cached_shards"]
        assert [w.field for w in spec(backend="process").warnings()] == [
            "backend"]
        assert spec(source="sim", max_cached_shards=3, ranks=2,
                    backend="process").warnings() == []


class TestSpelling:
    def test_each_front_end_spells_fields_its_own_way(self):
        with pytest.raises(SpecError) as err:
            spec(ranks=2, on_rank_failure="reweight").validate()
        assert str(err.value).startswith(
            "on_rank_failure requires mode='stream'")
        assert err.value.render(flag_spelling).startswith(
            "--on-rank-failure requires --stream")
        assert err.value.render(json_spelling) == str(err.value)

    def test_flag_spelling(self):
        assert flag_spelling("prefetch") == "--prefetch"
        assert flag_spelling("tune_trials") == "--tune"
        assert flag_spelling("kind=tune") == "--tune"
        assert flag_spelling("backend=process") == "--backend process"

    def test_user_values_are_not_templates(self):
        with pytest.raises(SpecError) as err:
            spec(mode="{ranks}").validate()
        assert err.value.render(flag_spelling).endswith("got '{ranks}'")

    def test_check_field_skips_none(self):
        check_field("epochs", None)
        with pytest.raises(SpecError, match="epochs must be >= 1, got 0"):
            check_field("epochs", 0)


class TestExperimentProjection:
    @pytest.mark.parametrize("over,ranks,train_ranks", [
        ({"ranks": 3}, 3, 1),
        ({"kind": "train", "ranks": 3}, 1, 3),
        ({"kind": "train", "ranks": 3, "mode": "stream"}, 3, 3),
        ({"kind": "tune", "tune_trials": 1}, 1, 1),
    ])
    def test_rank_rule(self, over, ranks, train_ranks):
        with spec(**over).experiment() as exp:
            assert (exp.ranks, exp.train_ranks) == (ranks, train_ranks)

    def test_knobs_reach_the_experiment(self):
        s = spec(kind="train", seed=5, scale=0.5, backend="process", ranks=2,
                 mode="stream", stream_shuffle=4, epochs=3,
                 on_rank_failure="reweight", inject_rank_failure=1)
        with s.experiment() as exp:
            assert (exp.seed, exp.scale, exp.backend, exp.stream_shuffle,
                    exp.epochs, exp.on_rank_failure) == (
                5, 0.5, "process", 4, 3, "reweight")
            assert exp.fault_hook(1, rows_fed=10)
            assert not exp.fault_hook(1, rows_fed=0)
            assert not exp.fault_hook(0, rows_fed=10)
        with spec().experiment() as exp:
            assert exp.fault_hook is None and exp.on_rank_failure == "raise"

    def test_invalid_spec_never_builds(self):
        with pytest.raises(SpecError):
            spec(ranks=0).experiment()

    def test_sim_source_opened_and_closed(self, monkeypatch):
        from repro.data.sources import SimulationSource

        closed = []
        monkeypatch.setattr(SimulationSource, "close",
                            lambda self: closed.append(self), raising=False)
        with spec(source="sim", max_cached_shards=3, scale=0.5).experiment() as exp:
            src = exp.source
            assert isinstance(src, SimulationSource)
            assert src.max_cached == 3
        assert closed == [src]

    def test_shard_source_gets_the_cache_knobs(self, tmp_path):
        from repro.data import build_dataset, save_dataset
        from repro.data.sources import DEFAULT_MAX_CACHED

        shards = str(tmp_path / "shards")
        save_dataset(build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2),
                     shards)
        with spec(source=shards, prefetch=0).experiment() as exp:
            info = exp.source.cache_info()["gauges"]
            assert info["max_cached"] == DEFAULT_MAX_CACHED
            assert exp.source.prefetch_depth == 0

    def test_experiment_setters_use_the_field_rules(self):
        exp = Experiment.from_case(copy.deepcopy(CASE))
        for setter, value, field in (
            (exp.with_ranks, 0, "ranks"),
            (exp.with_train_ranks, 0, "ranks"),
            (exp.with_scale, 0.0, "scale"),
            (exp.with_epochs, 0, "epochs"),
            (exp.with_backend, "mpi", "backend"),
            (exp.with_stream_shuffle, -1, "stream_shuffle"),
            (exp.with_rank_failure, "ignore", "on_rank_failure"),
        ):
            with pytest.raises(SpecError) as err:
                setter(value)
            assert err.value.field == field
