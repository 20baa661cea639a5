"""End-to-end tests for the YAML-driven CLI (the paper's T1 -> T2 chain)."""

import pytest

from repro.cli import main, subsample_main, train_main

SST_CASE = """
shared:
  dims: 3
  dtype: sst-binary
  input_vars: [u, v, w]
  output_vars: p
  cluster_var: pv
  gravity: z
  fileprefix: "cli-test"
subsample:
  hypercubes: maxent
  num_hypercubes: 3
  method: maxent
  num_samples: 64
  num_clusters: 4
  nxsl: 8
  nysl: 8
  nzsl: 8
train:
  epochs: 2
  batch: 4
  window: 1
  arch: MLP_transformer
"""

LSTM_CASE = """
shared:
  dims: 2
  dtype: openfoam
  input_vars: [u, v]
  output_vars: []
  cluster_var: p
subsample:
  hypercubes: random
  method: random
  num_hypercubes: 3
  num_samples: 16
  num_clusters: 4
  nxsl: 12
  nysl: 12
  nzsl: 1
train:
  epochs: 2
  batch: 4
  window: 3
  arch: lstm
"""


@pytest.fixture()
def sst_case(tmp_path):
    path = tmp_path / "case.yaml"
    path.write_text(SST_CASE)
    return str(path)


@pytest.fixture()
def lstm_case(tmp_path):
    path = tmp_path / "case.yaml"
    path.write_text(LSTM_CASE)
    return str(path)


class TestSubsampleCli:
    def test_runs_and_reports_energy(self, sst_case, capsys):
        code = subsample_main([sst_case, "--scale", "0.5", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Total Energy Consumed" in out
        assert "Subsampled" in out

    def test_parallel_ranks(self, sst_case, capsys):
        code = subsample_main([sst_case, "--scale", "0.5", "--ranks", "2"])
        assert code == 0
        assert "Elapsed Time" in capsys.readouterr().out

    def test_output_dir_persists(self, sst_case, tmp_path, capsys):
        out_dir = str(tmp_path / "snapshots")
        code = subsample_main([sst_case, "--scale", "0.5", "--output_dir", out_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "Saved subsample" in out
        assert "reduction" in out


class TestSourceFlags:
    def test_sharded_source_flag(self, sst_case, tmp_path, capsys):
        from repro.data import build_dataset, save_dataset

        shard_dir = str(tmp_path / "shards")
        save_dataset(build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2),
                     shard_dir)
        code = subsample_main([sst_case, "--source", shard_dir,
                               "--max-cached-shards", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Subsampled" in out

    def test_sim_source_flag(self, sst_case, capsys):
        code = subsample_main([sst_case, "--scale", "0.5", "--source", "sim"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Subsampled" in out

    def test_stream_flag(self, sst_case, capsys):
        code = subsample_main([sst_case, "--scale", "0.5", "--stream"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Subsampled" in out
        assert "Total Energy Consumed" in out

    def test_stream_in_situ_combination(self, sst_case, tmp_path, capsys):
        """The headline path: sample while the simulation runs, then persist."""
        out_dir = str(tmp_path / "snapshots")
        code = subsample_main([sst_case, "--scale", "0.5", "--source", "sim",
                               "--stream", "--output_dir", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "Saved subsample" in out

    def test_stream_multirank_flag(self, sst_case, capsys):
        """--stream --ranks N drives the multi-producer merge path."""
        code = subsample_main([sst_case, "--scale", "0.5", "--stream",
                               "--ranks", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Subsampled" in out
        assert "Total Energy Consumed" in out

    def test_stream_sharded_prefetch(self, sst_case, tmp_path, capsys):
        """Sharded source + --prefetch + multi-rank stream, end to end."""
        from repro.data import load_dataset, save_dataset

        shard_dir = str(tmp_path / "shards")
        save_dataset(load_dataset("sst-binary", scale=0.5, rng=0), shard_dir)
        code = subsample_main([sst_case, "--scale", "0.5", "--stream",
                               "--ranks", "2", "--source", shard_dir,
                               "--max-cached-shards", "4", "--prefetch", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Subsampled" in out


class TestOwnedShardFlags:
    @pytest.fixture()
    def shard_dir(self, tmp_path):
        from repro.data import build_dataset, save_dataset

        path = str(tmp_path / "shards")
        save_dataset(build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=4),
                     path)
        return path

    def test_stream_span_sources_process_backend(self, sst_case, shard_dir,
                                                 capsys):
        """Each forked rank opens a private span source of the directory."""
        code = subsample_main([sst_case, "--stream", "--ranks", "2",
                               "--source", shard_dir, "--backend", "process"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Subsampled" in out

    def test_injected_failure_reweights(self, sst_case, shard_dir, capsys):
        code = subsample_main([sst_case, "--stream", "--ranks", "2",
                               "--source", shard_dir,
                               "--on-rank-failure", "reweight",
                               "--inject-rank-failure", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Merged partial streams" in out
        assert "[1]" in out

    def test_injected_failure_raises_by_default(self, sst_case, shard_dir):
        with pytest.raises(RuntimeError, match="reweight"):
            subsample_main([sst_case, "--stream", "--ranks", "2",
                            "--source", shard_dir,
                            "--inject-rank-failure", "0"])


class TestFlagValidation:
    """Satellite: flags that cannot apply error out instead of being
    silently dropped."""

    def test_prefetch_requires_shard_source(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            subsample_main([sst_case, "--prefetch", "2"])
        assert "--prefetch" in capsys.readouterr().err

    def test_prefetch_rejected_for_sim_source(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            subsample_main([sst_case, "--source", "sim", "--prefetch", "2"])
        assert "in-situ" in capsys.readouterr().err

    def test_explicit_prefetch_zero_also_requires_shard_source(self, sst_case,
                                                              capsys):
        with pytest.raises(SystemExit):
            subsample_main([sst_case, "--prefetch", "0"])
        assert "--prefetch" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,depth", [([], None), (["--prefetch", "0"], 0),
                                             (["--prefetch", "2"], 2)])
    def test_prefetch_defaults_to_the_source_default(self, sst_case, tmp_path,
                                                     monkeypatch, flags, depth):
        import repro.data
        from repro.data import build_dataset, save_dataset
        from repro.data.sources import DEFAULT_PREFETCH

        shard_dir = str(tmp_path / "shards")
        save_dataset(build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=2),
                     shard_dir)
        opened = []
        open_source = repro.data.open_source

        def recording_open_source(spec, **kw):
            opened.append(open_source(spec, **kw))
            return opened[-1]

        monkeypatch.setattr(repro.data, "open_source", recording_open_source)
        assert subsample_main([sst_case, "--scale", "0.5", "--source", shard_dir,
                               *flags]) == 0
        want = DEFAULT_PREFETCH if depth is None else depth
        assert [src.prefetch_depth for src in opened] == [want]

    def test_max_cached_warns_without_source(self, sst_case, capsys):
        code = subsample_main([sst_case, "--scale", "0.5",
                               "--max-cached-shards", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no effect" in captured.err

    def test_on_rank_failure_requires_stream(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            subsample_main([sst_case, "--ranks", "2",
                            "--on-rank-failure", "reweight"])
        assert "--on-rank-failure requires --stream" in capsys.readouterr().err

    def test_on_rank_failure_requires_multiple_ranks(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            subsample_main([sst_case, "--stream",
                            "--on-rank-failure", "reweight"])
        assert "--ranks >= 2" in capsys.readouterr().err

    def test_inject_rank_failure_range_checked(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            subsample_main([sst_case, "--stream", "--ranks", "2",
                            "--inject-rank-failure", "5"])
        assert "out of range" in capsys.readouterr().err

    def test_inject_rank_failure_requires_stream(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            subsample_main([sst_case, "--inject-rank-failure", "0"])
        assert "--inject-rank-failure" in capsys.readouterr().err


class TestTrainCli:
    def test_reconstruction_training(self, sst_case, capsys):
        code = train_main([sst_case, "--scale", "0.5", "--epochs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Evaluation on test set" in out
        assert "Total Energy Consumed" in out

    def test_lstm_drag_training(self, lstm_case, capsys):
        code = train_main([lstm_case, "--scale", "0.4", "--epochs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Evaluation on test set" in out

    def test_stream_training(self, sst_case, capsys):
        code = train_main([sst_case, "--scale", "0.5", "--epochs", "2",
                           "--stream"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Streamed" in out
        assert "Evaluation on test set" in out

    def test_stream_training_from_shards(self, sst_case, tmp_path, capsys):
        from repro.data import build_dataset, save_dataset

        shard_dir = str(tmp_path / "shards")
        save_dataset(build_dataset("SST-P1F4", scale=0.5, rng=0, n_snapshots=6),
                     shard_dir)
        code = train_main([sst_case, "--epochs", "2", "--stream",
                           "--source", shard_dir, "--max-cached-shards", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Evaluation on test set" in out

    def test_checkpoint_then_resume_matches_uninterrupted(self, sst_case,
                                                          tmp_path, capsys):
        ck = str(tmp_path / "ck.npz")
        assert train_main([sst_case, "--scale", "0.5", "--epochs", "3",
                           "--stream"]) == 0
        full = capsys.readouterr().out
        assert train_main([sst_case, "--scale", "0.5", "--epochs", "1",
                           "--stream", "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert train_main([sst_case, "--scale", "0.5", "--epochs", "3",
                           "--stream", "--resume", ck]) == 0
        resumed = capsys.readouterr().out

        def eval_line(text):
            return [ln for ln in text.splitlines()
                    if ln.startswith("Evaluation on test set")][0]

        assert eval_line(full) == eval_line(resumed)

    def test_tune_reports_best(self, sst_case, capsys):
        code = train_main([sst_case, "--scale", "0.5", "--tune", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Best of 2 trials" in out
        assert "lr=" in out


class TestTrainFlagValidation:
    """Satellite: repro-train rejects silently-ignored flag combos, in the
    same style as repro-subsample."""

    def test_tune_rejects_stream(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            train_main([sst_case, "--tune", "2", "--stream"])
        assert "--tune" in capsys.readouterr().err

    def test_tune_rejects_resume(self, sst_case, tmp_path, capsys):
        ck = tmp_path / "ck.npz"
        ck.write_bytes(b"")
        with pytest.raises(SystemExit):
            train_main([sst_case, "--tune", "2", "--resume", str(ck)])
        assert "--checkpoint/--resume" in capsys.readouterr().err

    def test_tune_rejects_multirank(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            train_main([sst_case, "--tune", "2", "--ranks", "2"])
        assert "--ranks" in capsys.readouterr().err

    def test_resume_missing_checkpoint(self, sst_case, tmp_path, capsys):
        with pytest.raises(SystemExit):
            train_main([sst_case, "--resume", str(tmp_path / "nope.npz")])
        assert "no checkpoint" in capsys.readouterr().err

    def test_checkpoint_every_requires_checkpoint(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            train_main([sst_case, "--checkpoint-every", "2"])
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_every_must_be_positive(self, sst_case, tmp_path, capsys):
        with pytest.raises(SystemExit):
            train_main([sst_case, "--checkpoint", str(tmp_path / "ck.npz"),
                        "--checkpoint-every", "0"])
        assert "positive" in capsys.readouterr().err

    def test_prefetch_requires_shard_source(self, sst_case, capsys):
        with pytest.raises(SystemExit):
            train_main([sst_case, "--prefetch", "2"])
        assert "--prefetch" in capsys.readouterr().err

    def test_max_cached_warns_without_source(self, sst_case, capsys):
        code = train_main([sst_case, "--scale", "0.5", "--epochs", "2",
                           "--max-cached-shards", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no effect" in captured.err


class TestRunSpecRules:
    """Out-of-range values and bad case files fail at the parser (exit 2,
    ``error:`` on stderr) instead of as a traceback from deep in a run."""

    @pytest.mark.parametrize("main_fn,flags,match", [
        (subsample_main, ["--ranks", "0"], "--ranks must be >= 1"),
        (subsample_main, ["--scale", "0"], "--scale must be > 0"),
        (subsample_main, ["--max-cached-shards", "0", "--source", "sim"],
         "--max-cached-shards must be >= 1"),
        (subsample_main, ["--max-cached-shards", "0"],
         "--max-cached-shards must be >= 1"),
        (train_main, ["--epochs", "0"], "--epochs must be >= 1"),
        (train_main, ["--ranks", "0"], "--ranks must be >= 1"),
        (train_main, ["--tune", "2", "--backend", "process"],
         "--tune trials run serially; --backend process"),
    ])
    def test_out_of_range_is_an_argparse_error(self, sst_case, capsys,
                                               main_fn, flags, match):
        with pytest.raises(SystemExit) as exc:
            main_fn([sst_case, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and match in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("main_fn", [subsample_main, train_main])
    def test_bad_case_config_is_an_argparse_error(self, tmp_path, capsys,
                                                  main_fn):
        path = tmp_path / "bad.yaml"
        path.write_text(SST_CASE.replace("method: maxent", "method: nope"))
        with pytest.raises(SystemExit) as exc:
            main_fn([str(path)])
        assert exc.value.code == 2
        assert "invalid case config" in capsys.readouterr().err

    def test_missing_case_file_is_an_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            subsample_main([str(tmp_path / "absent.yaml")])
        assert exc.value.code == 2
        assert "cannot read case file" in capsys.readouterr().err

    def test_option_strings_unchanged(self, parser_options):
        assert parser_options(subsample_main) == [
            "--backend", "--help", "--inject-rank-failure",
            "--max-cached-shards", "--on-rank-failure", "--output_dir",
            "--prefetch", "--ranks", "--scale", "--seed", "--source",
            "--stream", "-h"]
        assert parser_options(train_main) == [
            "--backend", "--checkpoint", "--checkpoint-every", "--epochs",
            "--help", "--max-cached-shards", "--prefetch", "--ranks",
            "--resume", "--scale", "--seed", "--source", "--stream", "--tune",
            "-h"]


class TestDispatcher:
    def test_usage_on_bad_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_dispatch_subsample(self, sst_case, capsys):
        assert main(["subsample", sst_case, "--scale", "0.5"]) == 0
        assert "Subsampled" in capsys.readouterr().out
