"""Flag-surface tests for ``repro-submit`` and ``repro-serve`` arg parsing.

Invalid combinations must die at the parser (exit code 2, message on
stderr) before any network traffic — same rejection style as
repro-subsample / repro-train (see tests/test_cli.py).
"""

import copy
import json

import pytest

from repro.cli import main
from repro.serve.cli import serve_main, submit_main
from repro.serve.scheduler import Scheduler
from repro.serve.server import ReproServer
from repro.serve.store import ArtifactStore

from _serve_cases import TINY_CASE, TINY_CASE_YAML


@pytest.fixture()
def case_file(tmp_path):
    path = tmp_path / "case.yaml"
    path.write_text(TINY_CASE_YAML)
    return str(path)


def rejects(argv, match: str, capsys):
    with pytest.raises(SystemExit) as exc:
        submit_main(argv)
    assert exc.value.code == 2
    assert match in capsys.readouterr().err


class TestSubmitRejections:
    def test_case_required_without_resume(self, capsys):
        rejects([], "case YAML file is required", capsys)

    def test_resume_takes_no_spec_flags(self, case_file, capsys):
        rejects([case_file, "--resume", "j000001"],
                "--resume continues an already-checkpointed job", capsys)
        rejects(["--resume", "j000001", "--train"], "do not apply", capsys)
        rejects(["--resume", "j000001", "--stream"], "do not apply", capsys)
        rejects(["--resume", "j000001", "--tune", "3"], "do not apply", capsys)
        rejects(["--resume", "j000001", "--source", "sim"], "do not apply",
                capsys)

    def test_tune_combos(self, case_file, capsys):
        rejects([case_file, "--tune", "0"], "at least 1 trial", capsys)
        rejects([case_file, "--tune", "3", "--train"],
                "different job kinds", capsys)
        rejects([case_file, "--tune", "3", "--stream"],
                "cannot combine with --stream", capsys)
        rejects([case_file, "--tune", "3", "--ranks", "2"],
                "run serially", capsys)

    def test_output_needs_wait(self, case_file, capsys):
        rejects([case_file, "--output", "out.npz", "--no-wait"],
                "needs --wait", capsys)

    def test_retry_and_checkpoint_bounds(self, case_file, capsys):
        rejects([case_file, "--retries", "-1"], "--retries must be >= 0",
                capsys)
        rejects([case_file, "--train", "--checkpoint-every", "0"],
                "positive epoch count", capsys)
        rejects([case_file, "--checkpoint-every", "2"],
                "applies only to --train", capsys)


class TestServeArgRejections:
    def test_worker_and_budget_bounds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            serve_main(["--workers", "0"])
        assert exc.value.code == 2
        assert "at least 1 worker" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            serve_main(["--rank-budget", "0"])
        assert exc.value.code == 2
        assert "at least 1 rank" in capsys.readouterr().err


class TestSubmitAgainstLiveServer:
    @pytest.fixture()
    def server(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        scheduler = Scheduler(store, spool=str(tmp_path / "spool"), workers=1)
        with ReproServer("127.0.0.1", 0, scheduler) as srv:
            yield srv

    def test_submit_waits_and_downloads(self, server, case_file, tmp_path,
                                        capsys):
        out_path = str(tmp_path / "sample")
        code = submit_main([case_file, "--url", server.url, "--seed", "3",
                            "--scale", "0.5", "--output", out_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "status" not in out  # human format, not raw JSON
        assert ": done" in out
        assert (tmp_path / "sample.npz").is_file()

    def test_second_submit_reports_cache_hit_json(self, server, case_file,
                                                  capsys):
        assert submit_main([case_file, "--url", server.url, "--seed", "3",
                            "--scale", "0.5"]) == 0
        capsys.readouterr()
        code = submit_main([case_file, "--url", server.url, "--seed", "3",
                            "--scale", "0.5", "--json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["cache_hit"] is True
        assert snap["status"] == "done"

    def test_dispatch_via_umbrella_cli(self, server, case_file, capsys):
        code = main(["submit", case_file, "--url", server.url,
                     "--scale", "0.5"])
        assert code == 0
        assert "job j" in capsys.readouterr().out

    def test_unreachable_server_is_an_error_exit(self, case_file, capsys):
        code = submit_main([case_file, "--url", "http://127.0.0.1:9",
                            "--scale", "0.5"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_rejected_submission_is_an_error_exit(self, server, case_file,
                                                  capsys):
        code = submit_main([case_file, "--url", server.url, "--ranks", "64",
                            "--scale", "0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "HTTP 429" in err


class TestSpecParity:
    @pytest.fixture()
    def posted(self, monkeypatch):
        """Record the documents repro-submit posts (no server needed)."""
        from repro.serve.client import ServeClient

        docs = []

        def fake_submit(self, spec):
            docs.append(spec.to_dict())
            return {"id": "j000001", "status": "queued"}

        monkeypatch.setattr(ServeClient, "submit", fake_submit)
        return docs

    def test_cli_spec_matches_direct_spec_key(self, case_file, posted):
        """A spec built from CLI flags and one built from the raw dict must
        hash to the same content key (the case file and the dict are one
        case)."""
        from repro.spec import RunSpec

        assert submit_main([case_file, "--seed", "3", "--ranks", "2",
                            "--scale", "0.5", "--no-wait"]) == 0
        via_cli = RunSpec.from_json(posted[0]).content_key()
        direct = RunSpec.from_json({
            "kind": "subsample", "case": copy.deepcopy(TINY_CASE),
            "seed": 3, "ranks": 2, "scale": 0.5}).content_key()
        assert via_cli == direct

    def test_prefetch_sent_only_when_given(self, case_file, posted):
        """An omitted --prefetch leaves the source default to the server
        (null); an explicit value, 0 included, is sent."""
        for flags in ([], ["--prefetch", "0"], ["--prefetch", "3"]):
            assert submit_main([case_file, "--source", "shards/", "--no-wait",
                                *flags]) == 0
        assert [doc["prefetch"] for doc in posted] == [None, 0, 3]


class TestSubmitRunSpecRules:
    @pytest.mark.parametrize("flags,match", [
        (["--ranks", "0"], "--ranks must be >= 1"),
        (["--scale", "0"], "--scale must be > 0"),
        (["--train", "--epochs", "0"], "--epochs must be >= 1"),
        (["--source", "sim", "--max-cached-shards", "0"],
         "--max-cached-shards must be >= 1"),
        (["--tune", "2", "--backend", "process"],
         "--backend process would be silently ignored"),
    ])
    def test_out_of_range_is_an_argparse_error(self, case_file, capsys,
                                               flags, match):
        rejects([case_file, *flags], match, capsys)

    def test_option_strings_unchanged(self, parser_options):
        assert parser_options(submit_main) == [
            "--backend", "--checkpoint-every", "--epochs", "--help",
            "--inject-rank-failure", "--json", "--max-cached-shards",
            "--no-wait", "--on-rank-failure", "--output", "--prefetch",
            "--ranks", "--resume", "--retries", "--scale", "--seed",
            "--source", "--stream", "--stream-shuffle", "--timeout",
            "--train", "--tune", "--url", "--wait", "-h"]
