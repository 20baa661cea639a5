"""End-to-end HTTP service tests against the real pipeline.

The headline dedupe proof lives here: two identical submissions cost one
compute, the second is flagged ``cache_hit``, and the fetched artifact is
byte-identical to a direct ``Experiment.subsample()`` save.
"""

import copy
import time

import pytest

from repro.api import Experiment
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import AdmissionPolicy, Scheduler
from repro.serve.server import ReproServer
from repro.serve.store import ArtifactStore

from _serve_cases import TINY_CASE


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One in-process server (ephemeral port) shared by the module."""
    root = tmp_path_factory.mktemp("serve")
    store = ArtifactStore(str(root / "store"))
    scheduler = Scheduler(store, spool=str(root / "spool"), workers=2,
                          policy=AdmissionPolicy(rank_budget=4))
    server = ReproServer("127.0.0.1", 0, scheduler)
    server.start()
    try:
        yield server, store
    finally:
        server.close(timeout=30.0)


@pytest.fixture()
def client(service):
    server, _ = service
    return ServeClient(server.url, timeout=10.0)


def spec(**over) -> dict:
    base = {"kind": "subsample", "case": copy.deepcopy(TINY_CASE),
            "seed": 3, "ranks": 2, "scale": 0.5}
    base.update(over)
    return base


class TestEndToEndDedupe:
    def test_repeat_submission_hits_cache_byte_identically(
            self, client, service, tmp_path):
        _, store = service
        before = len(store.keys())
        first = client.submit(spec())
        first = client.wait(first["id"], timeout=120.0)
        assert first["status"] == "done"
        assert not first["cache_hit"]
        assert first["result"]["n_samples"] > 0
        assert len(store.keys()) == before + 1

        # Same identity, different dict ordering and SPMD backend.
        shuffled = spec(backend="process")
        shuffled["case"] = {k: shuffled["case"][k]
                            for k in reversed(list(shuffled["case"]))}
        second = client.submit(shuffled)
        assert second["status"] == "done"
        assert second["cache_hit"]
        assert len(store.keys()) == before + 1  # still a single entry

        served = client.fetch_artifact(second["id"],
                                       str(tmp_path / "served"))
        direct = (Experiment.from_case(copy.deepcopy(TINY_CASE))
                  .with_seed(3).with_scale(0.5).with_ranks(2))
        direct.subsample()
        direct_path = direct.subsample_artifact.save(str(tmp_path / "direct"))
        with open(served, "rb") as lhs, open(direct_path, "rb") as rhs:
            assert lhs.read() == rhs.read()

    def test_stats_reflect_the_dedupe(self, client):
        stats = client.stats()
        assert stats["counters"]["cache_hits"] >= 1
        assert stats["counters"]["completed"] >= 1
        assert stats["store"]["entries"] >= 1
        assert stats["energy_total"] > 0

    def test_progress_doc_is_served(self, client):
        job = client.submit(spec())  # cache hit or fresh, either is fine
        job = client.wait(job["id"], timeout=120.0)
        snap = client.job(job["id"])
        assert snap["kind"] == "subsample"
        assert "progress" in snap


class TestFaultInjection:
    def test_injected_rank_death_fails_cleanly(self, client):
        job = client.submit(spec(seed=11, mode="stream",
                                 inject_rank_failure=1))
        job = client.wait(job["id"], timeout=120.0)
        assert job["status"] == "failed"
        assert job["error"]
        assert not job["artifact_ready"]
        assert client.health()["ok"]  # the pool survived the job

    def test_reweight_policy_survives_injected_death(self, client):
        job = client.submit(spec(seed=11, mode="stream",
                                 inject_rank_failure=1,
                                 on_rank_failure="reweight"))
        job = client.wait(job["id"], timeout=120.0)
        assert job["status"] == "done"
        assert job["result"]["failed_ranks"] == [1]


class TestErrorMapping:
    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServeError) as err:
            client.submit({"kind": "subsample", "case": TINY_CASE, "sed": 1})
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.submit(spec(kind="tune", mode="stream", tune_trials=2))
        assert err.value.status == 400
        # Wrong-typed fields and out-of-range values: a 400 naming the
        # field, never a dropped connection or an admitted job that fails.
        for bad, field in (
            (spec(ranks="2"), "ranks"),
            (spec(scale=None), "scale"),
            (spec(seed=True), "seed"),
            (spec(max_cached_shards=0), "max_cached_shards"),
            (spec(kind="tune", ranks=1, tune_trials=2, backend="process"),
             "backend"),
            (spec(kind="tune", ranks=1, tune_trials=2, tune_strategy="grid"),
             "tune_strategy"),
        ):
            with pytest.raises(ServeError) as err:
                client.submit(bad)
            assert err.value.status == 400
            assert field in str(err.value)
        assert client.health()["ok"]

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.job("j999999")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.resume("j999999")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client._json("GET", "/v2/everything")
        assert err.value.status == 404

    def test_artifact_before_ready_is_409(self, client):
        job = client.submit(spec(seed=11, mode="stream",
                                 inject_rank_failure=1))
        job = client.wait(job["id"], timeout=120.0)
        assert job["status"] == "failed"
        with pytest.raises(ServeError) as err:
            client.fetch_artifact(job["id"], "/tmp/never-written")
        assert err.value.status == 409

    def test_resume_non_checkpointed_is_409(self, client):
        job = client.submit(spec())
        job = client.wait(job["id"], timeout=120.0)
        assert job["status"] == "done"
        with pytest.raises(ServeError) as err:
            client.resume(job["id"])
        assert err.value.status == 409

    def test_oversized_job_is_429(self, client):
        with pytest.raises(ServeError) as err:
            client.submit(spec(ranks=64))
        assert err.value.status == 429


class TestDrainOverHttp:
    def test_draining_scheduler_returns_503(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        scheduler = Scheduler(store, spool=str(tmp_path / "spool"), workers=1)
        with ReproServer("127.0.0.1", 0, scheduler) as server:
            client = ServeClient(server.url, timeout=10.0)
            scheduler.drain()
            with pytest.raises(ServeError) as err:
                client.submit(spec())
            assert err.value.status == 503

    def test_shutdown_endpoint_requests_drain(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        scheduler = Scheduler(store, spool=str(tmp_path / "spool"), workers=1)
        with ReproServer("127.0.0.1", 0, scheduler) as server:
            client = ServeClient(server.url, timeout=10.0)
            assert client.health() == {"ok": True, "draining": False}
            assert client.shutdown()["draining"]
            assert server.wait_shutdown(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while not client.health()["draining"]:
                assert time.monotonic() < deadline
                time.sleep(0.05)
