"""Scheduler lifecycle: attach, cache hits, admission, retry, drain, resume.

Job compute is stubbed (``repro.serve.scheduler.execute_job``) so each
test controls exactly when a "job" blocks, dies, checkpoints, or
finishes — the real pipeline is exercised end-to-end in
test_serve_http.py.
"""

import copy
import os
import threading
import time

import pytest

import repro.serve.scheduler as sched_mod
from repro.serve.runner import JobOutcome, STOP_FILE
from repro.serve.scheduler import (
    AdmissionPolicy,
    AdmissionRejected,
    Scheduler,
    ServiceDraining,
)
from repro.serve.store import ArtifactStore
from repro.spec import RunSpec

from _serve_cases import TINY_CASE


def make_spec(**over) -> RunSpec:
    base = {"kind": "subsample", "case": copy.deepcopy(TINY_CASE),
            "seed": 3, "ranks": 1, "scale": 0.5}
    base.update(over)
    return RunSpec.from_json(base)


def wait_for(predicate, timeout: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


class FakeArtifact:
    """Duck-typed api.Artifact: enough for ArtifactStore.put."""

    kind = "subsample"

    def __init__(self, payload: bytes = b"fake-npz-bytes") -> None:
        self.payload = payload

    def save(self, path: str) -> str:
        if not path.endswith(".npz"):
            path = path + ".npz"
        with open(path, "wb") as fh:
            fh.write(self.payload)
        return path


class StubRunner:
    """Scriptable execute_job replacement.

    ``gate[seed]`` — job blocks until the event is set.
    ``fail_once[seed]`` — first execution raises that exception.
    ``park_on_stop`` — job polls for its STOP file, then checkpoints.
    Records every ``(seed, resume_checkpoint)`` call.
    """

    def __init__(self) -> None:
        self.gate: dict[int, threading.Event] = {}
        self.fail_once: dict[int, Exception] = {}
        self.park_on_stop = False
        self.cache: dict | None = None  # meta["cache"] of finished jobs
        self.calls: list[tuple[int, str | None]] = []
        self._lock = threading.Lock()

    def __call__(self, spec, workdir, resume_checkpoint=None) -> JobOutcome:
        with self._lock:
            self.calls.append((spec.seed, resume_checkpoint))
            exc = self.fail_once.pop(spec.seed, None)
        if exc is not None:
            raise exc
        gate = self.gate.get(spec.seed)
        if gate is not None and not gate.wait(timeout=10.0):
            raise AssertionError(f"seed {spec.seed} gate never opened")
        os.makedirs(workdir, exist_ok=True)
        if self.park_on_stop:
            stop = os.path.join(workdir, STOP_FILE)
            wait_for(lambda: os.path.exists(stop), what="STOP file")
            ckpt = os.path.join(workdir, "checkpoint.npz")
            with open(ckpt, "wb") as fh:
                fh.write(b"ckpt")
            return JobOutcome(status="checkpointed",
                              meta={"epochs_run": 1, "epochs_target": 50},
                              checkpoint_path=ckpt)
        meta = {"n_samples": 64, "total_energy": 1.5}
        if self.cache is not None:
            meta["cache"] = self.cache
        return JobOutcome(status="done", artifact=FakeArtifact(), meta=meta)


@pytest.fixture()
def stub(monkeypatch):
    runner = StubRunner()
    monkeypatch.setattr(sched_mod, "execute_job", runner)
    return runner


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def scheduler_for(store, tmp_path, **kw) -> Scheduler:
    kw.setdefault("workers", 1)
    return Scheduler(store, spool=str(tmp_path / "spool"), **kw)


class TestDedupe:
    def test_concurrent_duplicates_attach(self, stub, store, tmp_path):
        stub.gate[3] = threading.Event()
        with scheduler_for(store, tmp_path) as sched:
            first = sched.submit(make_spec())
            assert first["status"] in ("queued", "running")
            assert not first["attached"]
            second = sched.submit(make_spec(backend="process"))
            assert second["attached"]
            assert second["id"] == first["id"]
            stub.gate[3].set()
            wait_for(lambda: sched.job(first["id"])["status"] == "done",
                     what="job completion")
            # one compute, one store entry, attach counted
            assert len(stub.calls) == 1
            assert len(store.keys()) == 1
            stats = sched.stats()
            assert stats["counters"]["attached"] == 1
            assert stats["counters"]["completed"] == 1
            assert sched.job(first["id"])["attach_count"] == 1

    def test_resubmit_after_done_is_cache_hit(self, stub, store, tmp_path):
        with scheduler_for(store, tmp_path) as sched:
            first = sched.submit(make_spec())
            wait_for(lambda: sched.job(first["id"])["status"] == "done",
                     what="job completion")
            again = sched.submit(make_spec())
            assert again["status"] == "done"
            assert again["cache_hit"]
            assert again["artifact_ready"]
            assert again["id"] != first["id"]
            assert len(stub.calls) == 1  # no second compute
            assert sched.stats()["counters"]["cache_hits"] == 1

    def test_distinct_specs_compute_separately(self, stub, store, tmp_path):
        with scheduler_for(store, tmp_path, workers=2) as sched:
            a = sched.submit(make_spec(seed=1))
            b = sched.submit(make_spec(seed=2))
            assert a["id"] != b["id"]
            wait_for(lambda: all(
                sched.job(j)["status"] == "done" for j in (a["id"], b["id"])),
                what="both jobs")
            assert len(store.keys()) == 2


class TestAdmission:
    def test_oversized_job_rejected(self, stub, store, tmp_path):
        policy = AdmissionPolicy(rank_budget=2)
        with scheduler_for(store, tmp_path, policy=policy) as sched:
            with pytest.raises(AdmissionRejected, match="budget units"):
                sched.submit(make_spec(ranks=4))
            assert sched.stats()["counters"]["rejected"] == 1

    def test_z_margin_inflates_cost(self, stub, store, tmp_path):
        # deterministic equivalent: 2 ranks * (1 + 1.0*0.5) = 3 > budget 2
        policy = AdmissionPolicy(rank_budget=2, z_margin=1.0)
        with scheduler_for(store, tmp_path, policy=policy) as sched:
            with pytest.raises(AdmissionRejected):
                sched.submit(make_spec(ranks=2))

    def test_queue_bound_gives_fast_reject(self, stub, store, tmp_path):
        stub.gate[1] = threading.Event()
        policy = AdmissionPolicy(rank_budget=4, max_queued=1)
        with scheduler_for(store, tmp_path, policy=policy) as sched:
            running = sched.submit(make_spec(seed=1))
            wait_for(lambda: sched.job(running["id"])["status"] == "running",
                     what="first job to start")
            sched.submit(make_spec(seed=2))  # fills the queue
            with pytest.raises(AdmissionRejected, match="queue is full"):
                sched.submit(make_spec(seed=3))
            stub.gate[1].set()

    def test_backfill_never_starves_fitting_jobs(self, stub, store, tmp_path):
        """A small job behind a blocked big one starts first (FIFO with
        backfill), and the big one still runs once budget frees up."""
        stub.gate[1] = threading.Event()
        policy = AdmissionPolicy(rank_budget=3)
        with scheduler_for(store, tmp_path, workers=2,
                           policy=policy) as sched:
            big = sched.submit(make_spec(seed=1, ranks=2))
            wait_for(lambda: sched.job(big["id"])["status"] == "running",
                     what="big job to start")
            blocked = sched.submit(make_spec(seed=2, ranks=2))  # 2 > headroom 1
            small = sched.submit(make_spec(seed=3, ranks=1))    # fits headroom
            wait_for(lambda: sched.job(small["id"])["status"] == "done",
                     what="backfilled small job")
            assert sched.job(blocked["id"])["status"] == "queued"
            stub.gate[1].set()
            wait_for(lambda: sched.job(blocked["id"])["status"] == "done",
                     what="blocked job after budget freed")


class TestFailureAndRetry:
    def test_worker_death_retries_then_succeeds(self, stub, store, tmp_path):
        stub.fail_once[3] = RuntimeError("rank 1 died unexpectedly (exit -9)")
        with scheduler_for(store, tmp_path) as sched:
            snap = sched.submit(make_spec(retries=1))
            wait_for(lambda: sched.job(snap["id"])["status"] == "done",
                     what="retried job")
            final = sched.job(snap["id"])
            assert final["retries_used"] == 1
            assert len(stub.calls) == 2
            assert sched.stats()["counters"]["retried"] == 1

    def test_worker_death_without_retries_fails(self, stub, store, tmp_path):
        stub.fail_once[3] = RuntimeError("rank 0 timed out after 30.0s")
        with scheduler_for(store, tmp_path) as sched:
            snap = sched.submit(make_spec())
            wait_for(lambda: sched.job(snap["id"])["status"] == "failed",
                     what="failed job")
            assert "timed out" in sched.job(snap["id"])["error"]

    def test_deterministic_error_never_retries(self, stub, store, tmp_path):
        stub.fail_once[3] = ValueError("num_samples exceeds candidate pool")
        with scheduler_for(store, tmp_path) as sched:
            snap = sched.submit(make_spec(retries=5))
            wait_for(lambda: sched.job(snap["id"])["status"] == "failed",
                     what="failed job")
            final = sched.job(snap["id"])
            assert final["retries_used"] == 0
            assert final["error"].startswith("ValueError")
            assert len(stub.calls) == 1

    def test_failed_key_is_released_for_recompute(self, stub, store, tmp_path):
        stub.fail_once[3] = ValueError("boom")
        with scheduler_for(store, tmp_path) as sched:
            first = sched.submit(make_spec())
            wait_for(lambda: sched.job(first["id"])["status"] == "failed",
                     what="failed job")
            second = sched.submit(make_spec())  # fresh compute, not attach
            assert not second["attached"]
            assert second["id"] != first["id"]
            wait_for(lambda: sched.job(second["id"])["status"] == "done",
                     what="recomputed job")


class TestDrainAndResume:
    def test_drain_cancels_queued_and_parks_running(self, stub, store,
                                                    tmp_path):
        stub.park_on_stop = True
        stub.gate[1] = threading.Event()
        stub.gate[1].set()  # running job goes straight to STOP-polling
        sched = scheduler_for(store, tmp_path)
        try:
            running = sched.submit(make_spec(seed=1, kind="train", epochs=50))
            wait_for(lambda: sched.job(running["id"])["status"] == "running",
                     what="train job to start")
            queued = sched.submit(make_spec(seed=2))
            summary = sched.close(timeout=15.0)
        finally:
            sched.close(timeout=1.0)
        assert summary["cancelled"] == [queued["id"]]
        assert summary["checkpointed"] == [running["id"]]
        assert summary["jobs"][queued["id"]] == "cancelled"
        parked = sched.job(running["id"])
        assert parked["status"] == "checkpointed"
        assert parked["resumable"]
        workdir = os.path.join(sched.spool, running["id"])
        assert os.path.isfile(os.path.join(workdir, "job.json"))
        assert os.path.isfile(os.path.join(workdir, "checkpoint.npz"))
        assert store.keys() == []  # partial fits are never cached

    def test_submit_during_drain_rejected(self, stub, store, tmp_path):
        sched = scheduler_for(store, tmp_path)
        try:
            sched.drain()
            with pytest.raises(ServiceDraining):
                sched.submit(make_spec())
            with pytest.raises(ServiceDraining):
                sched.resume("j000001")
        finally:
            sched.close(timeout=1.0)

    def test_restore_then_resume_across_restart(self, stub, store, tmp_path):
        # First server lifetime: drain an in-flight train job.
        stub.park_on_stop = True
        with scheduler_for(store, tmp_path) as sched:
            parked = sched.submit(make_spec(kind="train", epochs=50))
            wait_for(lambda: sched.job(parked["id"])["status"] == "running",
                     what="train job to start")
        # Second lifetime over the same spool: the record is re-adopted.
        stub.park_on_stop = False
        with scheduler_for(store, tmp_path) as sched2:
            restored = sched2.job(parked["id"])
            assert restored["status"] == "checkpointed"
            assert restored["resumable"]
            resumed = sched2.resume(parked["id"])
            assert resumed["id"] != parked["id"]
            wait_for(lambda: sched2.job(resumed["id"])["status"] == "done",
                     what="resumed job")
            # the resumed execution received the parked checkpoint
            seed, ckpt = stub.calls[-1]
            assert seed == 3
            assert ckpt is not None and ckpt.endswith("checkpoint.npz")
            assert sched2.job(parked["id"])["resumed_to"] == resumed["id"]
            assert sched2.stats()["counters"]["resumed"] == 1
            with pytest.raises(ValueError, match="already resumed"):
                sched2.resume(parked["id"])

    def test_resume_errors(self, stub, store, tmp_path):
        with scheduler_for(store, tmp_path) as sched:
            done = sched.submit(make_spec())
            wait_for(lambda: sched.job(done["id"])["status"] == "done",
                     what="job completion")
            with pytest.raises(KeyError):
                sched.resume("j999999")
            with pytest.raises(ValueError, match="not 'checkpointed'"):
                sched.resume(done["id"])


class TestStats:
    def test_energy_and_cache_aggregates(self, stub, store, tmp_path):
        with scheduler_for(store, tmp_path) as sched:
            a = sched.submit(make_spec(seed=1))
            b = sched.submit(make_spec(seed=2))
            wait_for(lambda: all(
                sched.job(j)["status"] == "done" for j in (a["id"], b["id"])),
                what="both jobs")
            stats = sched.stats()
            assert stats["energy_total"] == pytest.approx(3.0)  # 2 x 1.5
            assert stats["store"]["entries"] == 2
            assert stats["jobs"]["done"] == 2
            assert stats["running_cost"] == 0

    def test_cache_aggregate_sums_rank_counters(self, stub, store, tmp_path):
        """/v1/stats sums the per-rank counters of every finished job."""
        stub.cache = {
            "per_rank": [{"counters": {"misses": 2, "prefetched": 1}},
                         {"counters": {"misses": 3, "prefetched": 0}}],
            "total": {"ranks": 2, "misses": 5, "prefetched": 1, "decodes": 6},
        }
        with scheduler_for(store, tmp_path) as sched:
            a = sched.submit(make_spec(seed=1))
            b = sched.submit(make_spec(seed=2))
            wait_for(lambda: all(
                sched.job(j)["status"] == "done" for j in (a["id"], b["id"])),
                what="both jobs")
            cache = sched.stats()["cache"]
        assert cache["ranks"] == 4
        assert cache["misses"] == 10 and cache["decodes"] == 12
