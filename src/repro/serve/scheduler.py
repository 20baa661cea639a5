"""Job queue, worker pool, and budget-aware admission.

The :class:`Scheduler` owns every job's lifecycle::

    submit ──► cache hit ──────────────► done (cache_hit=True)
          └──► duplicate in flight ────► attach to the running job
          └──► over budget/queue ──────► AdmissionRejected (HTTP 429)
          └──► queued ──► running ──► done | failed | checkpointed
                               ▲          │
                               └── retry ─┘   (worker death, retries_left)

Admission follows the chance-constrained knapsack shape of Li et al.
(arXiv:2306.14690): each admitted job pins an uncertain share of the
compute budget (its SPMD ranks, plus straggler/retry variance), and the
policy admits on the deterministic equivalent ``cost · (1 + z·spread) ≤
headroom`` rather than the bare mean — ``z_margin`` trades utilization
for the probability that a retry burst oversubscribes the host.  The
queue itself is FIFO with backfill: a small job behind a blocked big one
may start first, but a runnable job is never skipped.

Concurrency discipline: one mutex (``_lock``) guards every piece of
shared state; worker threads are owned by the scheduler (stored on
``self``, joined in :meth:`close`); job compute runs outside the lock.
Runs clean under ``repro-lint`` RPL003/RPL005/RPL009 and the
``REPRO_SANITIZE=1`` runtime guard.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.serve.runner import (
    PROGRESS_FILE,
    STOP_FILE,
    JobOutcome,
    execute_job,
)
from repro.serve.store import ArtifactStore
from repro.spec import RunSpec
from repro.utils.log import get_logger

__all__ = [
    "AdmissionPolicy",
    "AdmissionRejected",
    "Scheduler",
    "ServiceDraining",
    "JOB_STATES",
]

_LOG = get_logger("repro.serve")

JOB_STATES = ("queued", "running", "done", "failed", "cancelled",
              "checkpointed")


class ServiceDraining(RuntimeError):
    """The scheduler is shutting down and not accepting submissions."""


class AdmissionRejected(RuntimeError):
    """The admission policy refused the job (budget or queue bound)."""


@dataclass(frozen=True)
class AdmissionPolicy:
    """Deterministic-equivalent admission bounds (see module docstring).

    ``rank_budget`` caps the summed effective cost of running jobs;
    ``max_job_ranks`` rejects single jobs no schedule could ever fit;
    ``max_queued`` bounds the backlog so clients get a fast 429 instead
    of an unbounded wait; ``z_margin``/``cost_spread`` inflate each job's
    nominal cost by its uncertainty (the chance-constraint safety term —
    0 means admit on the bare mean).
    """

    rank_budget: int = 4
    max_job_ranks: int | None = None
    max_queued: int = 64
    z_margin: float = 0.0
    cost_spread: float = 0.5

    def cost(self, spec: RunSpec) -> float:
        """Effective budget units one running instance of ``spec`` pins."""
        return max(1, int(spec.ranks)) * (1.0 + self.z_margin * self.cost_spread)

    def reject_reason(self, cost: float, queued: int) -> str | None:
        """Why a job with ``cost`` cannot even be queued (None = admissible)."""
        cap = self.rank_budget
        if self.max_job_ranks is not None:
            cap = min(cap, self.max_job_ranks)
        if cost > cap:
            return (f"job needs {cost:g} budget units but the policy caps a "
                    f"single job at {cap} (rank_budget={self.rank_budget}"
                    + (f", max_job_ranks={self.max_job_ranks}"
                       if self.max_job_ranks is not None else "") + ")")
        if queued >= self.max_queued:
            return (f"queue is full ({queued}/{self.max_queued} jobs "
                    "waiting); retry later")
        return None


@dataclass
class _Job:
    """Internal mutable job record (all mutation under the scheduler lock)."""

    id: str
    spec: RunSpec
    key: str
    workdir: str
    cost: float = 1.0
    status: str = "queued"
    cache_hit: bool = False
    attach_count: int = 0
    error: str | None = None
    retries_left: int = 0
    retries_used: int = 0
    artifact_path: str | None = None
    checkpoint_path: str | None = None
    resume_checkpoint: str | None = None
    resumed_to: str | None = None
    result_meta: dict = field(default_factory=dict)
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None


class Scheduler:
    """Bounded worker pool + dedupe + admission over an ArtifactStore."""

    def __init__(
        self,
        store: ArtifactStore,
        spool: str,
        workers: int = 2,
        policy: AdmissionPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.spool = os.path.abspath(spool)
        os.makedirs(self.spool, exist_ok=True)
        self.policy = policy or AdmissionPolicy()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._jobs: dict[str, _Job] = {}
        self._by_key: dict[str, str] = {}   # key -> in-flight job id
        self._queue: list[str] = []
        self._running_cost = 0.0
        self._draining = False
        self._closed = False
        self._seq = 0
        self._counters = {
            "submitted": 0, "cache_hits": 0, "attached": 0, "rejected": 0,
            "completed": 0, "failed": 0, "retried": 0, "cancelled": 0,
            "checkpointed": 0, "resumed": 0,
        }
        self._cache_infos: list[dict] = []
        self._energy_total = 0.0
        self._restore_spool()
        # Pool threads are owned here and joined in close().
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=False,
                             name=f"repro-serve-worker-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def __enter__(self) -> Scheduler:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _restore_spool(self) -> None:
        """Re-adopt checkpointed jobs a previous server drained here.

        A drained train job's record (spec, key, checkpoint path) is
        persisted as ``job.json`` in its spool directory, so after a
        restart ``POST /v1/jobs/<id>/resume`` still works — the drain →
        SIGTERM → restart → resume loop needs no external bookkeeping.
        Runs from ``__init__`` before any worker thread exists.
        """
        import json

        if not os.path.isdir(self.spool):
            return
        for name in sorted(os.listdir(self.spool)):
            record_path = os.path.join(self.spool, name, "job.json")
            try:
                with open(record_path, encoding="utf-8") as fh:
                    record = json.load(fh)
            except (FileNotFoundError, ValueError):
                continue
            if record.get("status") != "checkpointed":
                continue
            ckpt = record.get("checkpoint")
            if record.get("resumed_to") or not (ckpt and os.path.isfile(ckpt)):
                continue
            try:
                spec = RunSpec.from_json(record["spec"])
            except Exception:
                _LOG.warning("spool record %s has an unreadable spec; "
                             "skipping restore", record_path)
                continue
            job = _Job(id=record["id"], spec=spec, key=record["key"],
                       workdir=os.path.join(self.spool, name),
                       cost=self.policy.cost(spec), status="checkpointed",
                       checkpoint_path=ckpt,
                       result_meta=record.get("result") or {},
                       created_at=float(record.get("created_at") or 0.0))
            self._jobs[job.id] = job
            digits = job.id.lstrip("j")
            if digits.isdigit():
                self._seq = max(self._seq, int(digits))

    # ---- submission -------------------------------------------------------

    def submit(self, spec: RunSpec) -> dict:
        """Admit one validated spec; returns the job's status snapshot.

        Raises :class:`~repro.spec.SpecError` for a bad spec,
        :class:`ServiceDraining` during shutdown, and
        :class:`AdmissionRejected` when the budget policy refuses it.
        """
        spec.validate()
        key = spec.content_key()
        cost = self.policy.cost(spec)
        with self._lock:
            if self._draining or self._closed:
                raise ServiceDraining(
                    "server is draining; submissions are not accepted"
                )
            self._counters["submitted"] += 1
            inflight_id = self._by_key.get(key)
            inflight = self._jobs.get(inflight_id) if inflight_id else None
            if inflight is not None and inflight.status in ("queued", "running"):
                inflight.attach_count += 1
                self._counters["attached"] += 1
                return self._snapshot_locked(inflight, attached=True)
            if self.store.has(key):
                job = self._register_locked(spec, key, cost)
                entry = self.store.entry(key)
                job.status = "done"
                job.cache_hit = True
                job.artifact_path = entry.artifact_path
                job.result_meta = {k: v for k, v in entry.meta.items()
                                   if k not in ("kind", "key")}
                job.finished_at = time.time()
                self._counters["cache_hits"] += 1
                return self._snapshot_locked(job)
            reason = self.policy.reject_reason(cost, queued=len(self._queue))
            if reason is not None:
                self._counters["rejected"] += 1
                raise AdmissionRejected(reason)
            job = self._register_locked(spec, key, cost)
            job.retries_left = int(spec.retries)
            self._queue.append(job.id)
            self._by_key[key] = job.id
            snap = self._snapshot_locked(job)
        self._wake.set()
        return snap

    def resume(self, job_id: str) -> dict:
        """Continue a drained (checkpointed) train job; returns the new job."""
        with self._lock:
            if self._draining or self._closed:
                raise ServiceDraining(
                    "server is draining; submissions are not accepted"
                )
            old = self._jobs.get(job_id)
            if old is None:
                raise KeyError(f"no such job {job_id!r}")
            if old.status != "checkpointed":
                raise ValueError(
                    f"job {job_id} is {old.status!r}, not 'checkpointed' — "
                    "only drained train jobs can be resumed"
                )
            if old.resumed_to is not None:
                raise ValueError(
                    f"job {job_id} was already resumed as {old.resumed_to}"
                )
            ckpt = old.checkpoint_path
            if ckpt is None or not os.path.isfile(ckpt):
                raise ValueError(
                    f"job {job_id} has no checkpoint on disk (expected "
                    f"{ckpt!r})"
                )
            cost = self.policy.cost(old.spec)
            reason = self.policy.reject_reason(cost, queued=len(self._queue))
            if reason is not None:
                self._counters["rejected"] += 1
                raise AdmissionRejected(reason)
            job = self._register_locked(old.spec, old.key, cost)
            job.retries_left = int(old.spec.retries)
            job.resume_checkpoint = ckpt
            old.resumed_to = job.id
            self._queue.append(job.id)
            self._by_key[old.key] = job.id
            self._counters["resumed"] += 1
            snap = self._snapshot_locked(job)
        self._persist_record(old)  # record resumed_to so restores skip it
        self._wake.set()
        return snap

    def _register_locked(self, spec: RunSpec, key: str, cost: float) -> _Job:
        """Create and index a job record (scheduler lock held)."""
        self._seq += 1
        job_id = f"j{self._seq:06d}"
        job = _Job(id=job_id, spec=spec, key=key, cost=cost,
                   workdir=os.path.join(self.spool, job_id),
                   created_at=time.time())
        self._jobs[job_id] = job
        return job

    # ---- queries ----------------------------------------------------------

    def job(self, job_id: str) -> dict:
        """Status snapshot for one job (KeyError if unknown)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such job {job_id!r}")
            snap = self._snapshot_locked(job)
        return snap

    def jobs(self) -> list[dict]:
        with self._lock:
            snaps = [self._snapshot_locked(j)
                     for j in sorted(self._jobs.values(), key=lambda j: j.id)]
        return snaps

    def artifact_path(self, job_id: str) -> str | None:
        """Path of a finished job's artifact (None until done)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such job {job_id!r}")
            return job.artifact_path

    def stats(self) -> dict:
        """Service-wide counters, budget state, and cache aggregates."""
        from repro.data.sources import aggregate_cache_info

        with self._lock:
            by_status = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_status[job.status] += 1
            doc = {
                "counters": dict(self._counters),
                "jobs": by_status,
                "queued": len(self._queue),
                "running_cost": self._running_cost,
                "rank_budget": self.policy.rank_budget,
                "draining": self._draining,
                "energy_total": self._energy_total,
                "cache": aggregate_cache_info(self._cache_infos),
            }
        doc["store"] = self.store.stats()
        return doc

    def _snapshot_locked(self, job: _Job, attached: bool = False) -> dict:
        """JSON-safe public view of a job record (scheduler lock held)."""
        snap = {
            "id": job.id,
            "key": job.key,
            "kind": job.spec.kind,
            "status": job.status,
            "cache_hit": job.cache_hit,
            "attached": attached,
            "attach_count": job.attach_count,
            "error": job.error,
            "retries_left": job.retries_left,
            "retries_used": job.retries_used,
            "result": job.result_meta or None,
            "artifact_ready": job.artifact_path is not None,
            "resumable": job.status == "checkpointed",
            "resumed_to": job.resumed_to,
            "created_at": job.created_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "progress_path": os.path.join(job.workdir, PROGRESS_FILE),
        }
        return snap

    def job_progress(self, job_id: str) -> dict | None:
        """Latest per-epoch progress doc a running job has streamed out."""
        import json

        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such job {job_id!r}")
            path = os.path.join(job.workdir, PROGRESS_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):
            return None

    # ---- worker pool ------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = None
            with self._lock:
                if not self._draining:
                    job = self._claim_locked()
                should_exit = job is None and self._closed
            if should_exit:
                return
            if job is None:
                self._wake.wait(timeout=0.1)
                self._wake.clear()
                continue
            self._run_one(job)

    def _claim_locked(self) -> _Job | None:
        """FIFO-with-backfill dispatch (scheduler lock held): pop the first
        queued job whose cost fits the remaining budget."""
        headroom = self.policy.rank_budget - self._running_cost
        for idx, job_id in enumerate(self._queue):
            job = self._jobs[job_id]
            if job.cost <= headroom:
                del self._queue[idx]
                job.status = "running"
                job.started_at = time.time()
                self._running_cost += job.cost
                return job
        return None

    def _run_one(self, job: _Job) -> None:
        try:
            outcome = execute_job(job.spec, job.workdir,
                                  resume_checkpoint=job.resume_checkpoint)
        except Exception as exc:  # job isolation: record, don't kill the pool
            self._finish_error(job, exc)
        else:
            self._finish_ok(job, outcome)
        self._wake.set()

    def _finish_ok(self, job: _Job, outcome: JobOutcome) -> None:
        if outcome.status == "checkpointed":
            with self._lock:
                self._running_cost -= job.cost
                job.status = "checkpointed"
                job.checkpoint_path = outcome.checkpoint_path
                job.result_meta = outcome.meta
                job.finished_at = time.time()
                self._counters["checkpointed"] += 1
                # A fresh identical submission must recompute (or resume),
                # not attach to a parked partial.
                if self._by_key.get(job.key) == job.id:
                    del self._by_key[job.key]
            self._persist_record(job)
            return
        entry = self.store.put(job.key, outcome.artifact, meta={
            "job_kind": job.spec.kind,
            **{f"result_{k}": v for k, v in outcome.meta.items()},
        })
        with self._lock:
            self._running_cost -= job.cost
            job.status = "done"
            job.artifact_path = entry.artifact_path
            job.checkpoint_path = outcome.checkpoint_path
            job.result_meta = outcome.meta
            job.finished_at = time.time()
            self._counters["completed"] += 1
            cache = outcome.meta.get("cache")
            if cache is not None:
                self._cache_infos.extend(cache["per_rank"])
            energy = outcome.meta.get("total_energy")
            if energy is not None:
                self._energy_total += float(energy)
            if self._by_key.get(job.key) == job.id:
                del self._by_key[job.key]

    def _persist_record(self, job: _Job) -> None:
        """Write a checkpointed job's resume record to its spool dir (see
        :meth:`_restore_spool`); reads job fields without the lock, after
        the job has reached a terminal state."""
        import json

        record = {
            "id": job.id,
            "key": job.key,
            "status": job.status,
            "spec": job.spec.to_dict(),
            "checkpoint": job.checkpoint_path,
            "result": job.result_meta,
            "resumed_to": job.resumed_to,
            "created_at": job.created_at,
        }
        os.makedirs(job.workdir, exist_ok=True)
        path = os.path.join(job.workdir, "job.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)

    def _finish_error(self, job: _Job, exc: Exception) -> None:
        transient = _is_worker_death(exc)
        with self._lock:
            self._running_cost -= job.cost
            if transient and job.retries_left > 0 and not self._draining:
                job.retries_left -= 1
                job.retries_used += 1
                job.status = "queued"
                job.started_at = None
                self._queue.append(job.id)
                self._counters["retried"] += 1
                requeued = True
            else:
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
                self._counters["failed"] += 1
                if self._by_key.get(job.key) == job.id:
                    del self._by_key[job.key]
                requeued = False
        if requeued:
            _LOG.warning("job %s hit worker death (%s); requeued "
                         "(%d retries left)", job.id, exc, job.retries_left)
        else:
            _LOG.warning("job %s failed: %s", job.id, exc)

    # ---- shutdown ---------------------------------------------------------

    def drain(self) -> dict:
        """Stop admitting, cancel queued jobs, ask running ones to park.

        Running train jobs see their STOP file at the next epoch boundary
        and exit through the checkpoint path; subsample/tune jobs run to
        completion (single bounded passes).  Idempotent.
        """
        with self._lock:
            first = not self._draining
            self._draining = True
            cancelled = []
            if first:
                for job_id in self._queue:
                    job = self._jobs[job_id]
                    job.status = "cancelled"
                    job.error = "cancelled by drain"
                    job.finished_at = time.time()
                    if self._by_key.get(job.key) == job.id:
                        del self._by_key[job.key]
                    cancelled.append(job_id)
                self._queue.clear()
                self._counters["cancelled"] += len(cancelled)
            running = [self._jobs[jid].workdir
                       for jid in sorted(self._jobs)
                       if self._jobs[jid].status == "running"]
        for workdir in running:
            os.makedirs(workdir, exist_ok=True)
            stop = os.path.join(workdir, STOP_FILE)
            with open(stop, "w", encoding="utf-8") as fh:
                fh.write("drain\n")
        self._wake.set()
        return {"cancelled": cancelled, "stopping": len(running)}

    def close(self, timeout: float | None = None) -> dict:
        """Drain, wait for running jobs to park or finish, join the pool.

        Returns a shutdown summary (final status of every job).  The wait
        is bounded by ``timeout`` (None = wait for the jobs; worker hangs
        are already bounded by ``REPRO_PROC_TIMEOUT`` on the process
        backend).
        """
        summary = self.drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                busy = any(j.status == "running" for j in self._jobs.values())
            if not busy:
                break
            if deadline is not None and time.monotonic() >= deadline:
                _LOG.warning("close(): running jobs still busy after %.1fs",
                             timeout)
                break
            time.sleep(0.05)
        with self._lock:
            self._closed = True
        self._wake.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        with self._lock:
            jobs = {j.id: j.status for j in self._jobs.values()}
            checkpointed = sorted(j.id for j in self._jobs.values()
                                  if j.status == "checkpointed")
            counters = dict(self._counters)
        return {**summary, "jobs": jobs, "checkpointed": checkpointed,
                "counters": counters}


def _is_worker_death(exc: Exception) -> bool:
    """Does this exception look like SPMD worker death / timeout (the
    retryable class from :mod:`repro.parallel.procomm`) rather than a
    deterministic job error?"""
    if not isinstance(exc, RuntimeError):
        return False
    text = str(exc)
    needles = ("died unexpectedly", "timed out", "failed")
    return any(needle in text for needle in needles)
