"""``serve-mix``: an in-process ``repro-serve`` driven by one closed-loop client.

The daemon (2 worker threads) runs thread-backend subsample jobs over a
small npz shard directory of SST-P1F4 (16x16x8, 2 snapshots).  One client
sends a seeded sequence of requests one at a time: submit, wait for the
job, fetch the artifact bytes; the next request goes out when the last one
is answered (a closed loop).  With one request in flight nothing queues,
so the latencies measure the service path (HTTP, dispatch, job, artifact
store) and not how a load generator's timing meets the worker threads.

Each request repeats the spec of an earlier request with probability
``HIT_SHARE`` and is answered from the artifact store (a hit); otherwise
it carries a new seed and is computed, then written to the store (a miss).
Latency runs from the submit call to the artifact bytes on disk.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from pb_common import file_digest, median, percentile
from pb_layers import compute_metrics, serve_metrics, serve_shares

WORKERS = 2
#: the served flow is synthesized from this fixed seed and the workload
#: seed draws the request stream: job cost depends on the flow (serial
#: cost differed by up to 12% between flows), which would otherwise move
#: every latency between seeds.
DATA_SEED = 0
#: chance that a request repeats an earlier spec.  An arbitrary choice, not
#: a measured traffic mix: an even split gives the hit and miss medians
#: each over a hundred samples in a 20 s window.
HIT_SHARE = 0.5
#: interval at which the client polls a computed job's status
POLL_S = 0.005
#: a request not answered this long after it was sent counts as failed
REQUEST_DEADLINE_S = 30.0
HTTP_TIMEOUT_S = 10.0
#: untimed requests made before measuring (the first requests after set-up
#: run slower)
WARMUP_S = 2.0
#: misses re-run directly through ``Experiment`` after the window
DIRECT_CHECKS = 3

CASE = {
    "shared": {"dims": 3},
    "subsample": {
        "hypercubes": "maxent", "method": "maxent",
        "num_hypercubes": 8, "num_samples": 16, "num_clusters": 4,
        "nxsl": 4, "nysl": 4, "nzsl": 4,
    },
    "train": {"arch": "mlp_transformer"},
}


@dataclass
class Request:
    seed: int
    tag: str              # job id of the client-side spans
    cls: str = ""         # "hit" | "miss"
    job_id: str = ""
    key: str = ""
    latency_s: float = 0.0
    #: the computed job's server timestamps, on this process's
    #: ``perf_counter`` clock (None for hits)
    created_at: float | None = None
    started_at: float | None = None
    energy_j: float | None = None
    scanned: int = 0
    digest: str = ""
    ok: bool = False
    error: str | None = None


@dataclass
class Window:
    """One closed-loop window's requests and the service counters it moved."""

    requests: list
    stats: dict


class ServeMix:
    name = "serve-mix"
    #: run the whole process on one CPU.  The client, HTTP handler and
    #: worker threads share one GIL, so a second core adds little, but
    #: handing the GIL between threads on two cores made latency bimodal:
    #: four alternating runs of one seed gave job_s.p50 0.064-0.135 s
    #: unpinned and 0.069-0.080 s pinned (hit latency 3.5-9.1 ms against
    #: 3.6-3.9 ms) on a 2-core host.
    one_cpu = True
    #: set-ups per benchmark run (``setup_s`` is their median); one takes
    #: about 0.1 s, so more of them keep the median steady
    setup_repeats = 9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, 7])
        self.known: dict[str, str] = {}     # key -> digest of the stored miss
        self.sent: list[int] = []           # seeds of computed specs
        self.server = None
        self.tracer = None
        self._n = 0

    def spec(self, seed: int) -> dict:
        return {"kind": "subsample", "case": CASE, "seed": int(seed),
                "source": self.shards, "backend": "thread", "ranks": 1}

    # ---- set-up ----------------------------------------------------------

    def setup(self, workdir: str) -> None:
        """Synthesize and shard the dataset and start the daemon (timed,
        repeated)."""
        from repro.data import build_dataset
        from repro.data.loaders import save_dataset
        from repro.serve.client import ServeClient
        from repro.serve.scheduler import AdmissionPolicy, Scheduler
        from repro.serve.server import ReproServer
        from repro.serve.store import ArtifactStore

        self.workdir = workdir
        self.shards = os.path.abspath(os.path.join(workdir, "shards"))
        self.fetch_dir = os.path.join(workdir, "fetched")
        dataset = build_dataset("SST-P1F4", scale=0.5, rng=DATA_SEED, n_snapshots=2)
        save_dataset(dataset, self.shards)
        store = ArtifactStore(os.path.join(workdir, "store"))
        scheduler = Scheduler(store, spool=os.path.join(workdir, "spool"),
                              workers=WORKERS,
                              policy=AdmissionPolicy(rank_budget=WORKERS))
        self.server = ReproServer("127.0.0.1", 0, scheduler)
        self.server.start()
        self.client = ServeClient(self.server.url, timeout=HTTP_TIMEOUT_S)
        self.known = {}
        self.sent = []

    def discard(self) -> None:
        if self.server is not None:
            self.server.close(timeout=30.0)
            self.server = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def prepare(self) -> list[Window]:
        return [self.measure(WARMUP_S, None, "warmup")]

    # ---- the closed loop -------------------------------------------------

    def next_request(self, phase: str) -> Request:
        self._n += 1
        if self.sent and self.rng.random() < HIT_SHARE:
            seed = self.sent[int(self.rng.integers(len(self.sent)))]
        else:
            seed = self.seed * 10_000_000 + self._n
            self.sent.append(seed)
        return Request(seed, tag=f"{phase}-{self._n}")

    def measure(self, seconds: float, tracer, phase: str) -> Window:
        self.tracer = tracer
        before = self.client.stats()["counters"]
        reqs = []
        deadline = time.perf_counter() + seconds
        while not reqs or time.perf_counter() < deadline:
            reqs.append(self.request(self.next_request(phase)))
        after = self.client.stats()["counters"]
        self._check_answers(reqs)
        return Window(reqs, {k: after[k] - before.get(k, 0) for k in after})

    def request(self, req: Request) -> Request:
        """Submit, wait for the job when it is computed, fetch the bytes."""
        from repro.serve.client import ServeError

        if self.tracer is not None:
            self.tracer.set_thread_job(req.tag)
        t0 = time.perf_counter()
        try:
            snap = self.client.submit(self.spec(req.seed))
            req.job_id, req.key = snap["id"], snap["key"]
            req.cls = "hit" if snap["cache_hit"] else "miss"
            if req.cls == "miss":
                snap = self._wait(req.job_id, t0 + REQUEST_DEADLINE_S)
            path = self.client.fetch_artifact(
                req.job_id, os.path.join(self.fetch_dir, req.tag))
        except (ServeError, OSError) as exc:  # TimeoutError is an OSError
            req.cls = req.cls or "miss"
            req.error = f"{type(exc).__name__}: {exc}"
            return req
        req.latency_s = time.perf_counter() - t0
        req.digest = file_digest(path)
        os.remove(path)
        if req.cls == "miss":
            self.known.setdefault(req.key, req.digest)
            # Server stamps are time.time(); move them onto the
            # perf_counter clock the spans and latencies use.
            shift = time.time() - time.perf_counter()
            req.created_at = snap["created_at"] - shift
            req.started_at = snap["started_at"] - shift
            result = snap["result"] or {}
            req.energy_j = result.get("total_energy")
            req.scanned = int(result.get("n_points_scanned", 0))
        req.ok = True
        return req

    def _wait(self, job_id: str, deadline: float) -> dict:
        from repro.serve.client import TERMINAL_STATES, ServeError

        while True:
            snap = self.client.job(job_id)
            if snap["status"] == "done":
                return snap
            if snap["status"] in TERMINAL_STATES:
                raise ServeError(f"job {job_id} {snap['status']}: {snap['error']}")
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no answer {REQUEST_DEADLINE_S}s after it was sent")
            time.sleep(POLL_S)

    def _check_answers(self, reqs: list[Request]) -> None:
        """Every hit must carry the bytes of the miss that stored its key."""
        for req in reqs:
            if not req.ok or req.cls == "miss":
                continue
            want = self.known.get(req.key)
            if want is None:
                req.ok, req.error = False, "no stored miss to compare the answer with"
            elif req.digest != want:
                req.ok, req.error = False, "answer differs from the miss that stored the key"

    # ---- after the window --------------------------------------------------

    def finish(self, windows: list[Window]) -> list[Request]:
        """Re-run a seeded subset of misses directly through ``Experiment``
        (as the service's runner does) and compare bytes."""
        from repro.api import Experiment
        from repro.data import open_source

        misses = [r for w in windows for r in w.requests if r.cls == "miss" and r.ok]
        if not misses:
            return []
        picks = self.rng.choice(len(misses), size=min(DIRECT_CHECKS, len(misses)),
                                replace=False)
        checked = []
        for i in sorted(int(p) for p in picks):
            req = misses[i]
            source = open_source(self.shards, max_cached=2, prefetch=0)
            try:
                exp = (Experiment.from_case(CASE).with_seed(req.seed).with_scale(1.0)
                       .with_backend("thread").with_source(source))
                exp.with_ranks(1).subsample()
                path = exp.subsample_artifact.save(
                    os.path.join(self.fetch_dir, f"direct-{req.tag}"))
            finally:
                source.close()
            if file_digest(path) != req.digest:
                req.ok, req.error = False, "served bytes differ from a direct Experiment run"
            os.remove(path)
            checked.append(req)
        return checked

    def close(self) -> None:
        self.discard()

    # ---- results -----------------------------------------------------------

    @staticmethod
    def e2e(window: Window) -> dict[str, tuple[float, int]]:
        """End-to-end values with their sample counts."""
        ok = [r for r in window.requests if r.ok]
        hits = [r.latency_s for r in ok if r.cls == "hit"]
        misses = [r.latency_s for r in ok if r.cls == "miss"]
        energy = [r.energy_j for r in ok if r.energy_j is not None]
        if not (hits and misses and energy):
            return {}
        return {
            "job_s.p50": (median(misses), len(misses)),
            "hit_latency_s.p50": (median(hits), len(hits)),
            "energy_j": (median(energy), len(energy)),
        }

    @staticmethod
    def operations(warmup: list[Window], windows: list[Window]) -> tuple[int, list[str]]:
        """(attempted, errors) over every request."""
        reqs = [r for w in [*warmup, *windows] for r in w.requests]
        return len(reqs), [f"{r.tag}: {r.error}" for r in reqs if not r.ok]

    @staticmethod
    def layers(window: Window, spans) -> dict[str, float]:
        computed = [r for r in window.requests if r.ok and r.cls == "miss"]
        out = compute_metrics(spans, [r.job_id for r in computed])
        out.update(serve_metrics(spans, window.requests, window.stats))
        out.update(serve_shares(spans, window.requests))
        out["sampling.points_scanned"] = median([r.scanned for r in computed]) if computed else 0.0
        return out

    @staticmethod
    def health(window: Window) -> dict:
        ok = [r for r in window.requests if r.ok]
        hits = [r.latency_s for r in ok if r.cls == "hit"]
        misses = [r.latency_s for r in ok if r.cls == "miss"]
        return {
            "requests": len(window.requests),
            "hits": len(hits),
            "misses": len(misses),
            "hit_latency_s.p90": percentile(hits, 90) if hits else None,
            "miss_latency_s.p90": percentile(misses, 90) if misses else None,
        }
