"""Per-layer metrics and the layer-share table, computed from a traced run.

Time metrics are seconds per job (for ``serve-mix``, per computed job) and
use self times on the caller's timeline: the caller's threads plus rank 0
of each SPMD region (see :func:`pb_trace.critical`).  Counts and bytes sum
every rank.  Shares split the traced job wall among the layers; ``other``
is the remainder no layer span covers.
"""

from __future__ import annotations

from collections import defaultdict

from pb_common import median, percentile
from pb_trace import LAYERS, critical, descendants, layer_self, self_times, union_length

#: per-layer metric name -> unit; the order BENCHMARK.json lists them in
PER_LAYER = {
    "data.decode_s": "s",
    "data.decode_bytes": "bytes",
    "data.snapshot_calls": "count",
    "data.cache_hit_ratio": "ratio",
    "sim.derive_s": "s",
    "sim.derive_calls": "count",
    "sim.derive_useful_ratio": "ratio",
    "sampling.phase1_s": "s",
    "sampling.select_s": "s",
    "sampling.phase2_s": "s",
    "sampling.feed_s": "s",
    "sampling.merge_s": "s",
    "sampling.points_scanned": "count",
    "parallel.launch_s": "s",
    "parallel.collective_s": "s",
    "parallel.collective_calls": "count",
    "parallel.collective_bytes": "bytes",
    "parallel.model_error": "ratio",
    "train.fit_s": "s",
    "train.feed_wait_s": "s",
    "train.optimizer_s": "s",
    "train.steps": "count",
    "train.samples": "count",
    "train.test_loss": "MSE",
    "serve.submit_s": "s",
    "serve.store_read_s": "s",
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.store_put_s": "s",
    "serve.hit_ratio": "ratio",
    "serve.rejected": "count",
    "serve.retried": "count",
    "serve.hit_latency_s.p90": "s",
    "serve.miss_latency_s.p90": "s",
    **{f"share.{layer}": "fraction" for layer in (*LAYERS, "other")},
    "share.serve_of_hit": "fraction",
    "trace.overhead": "ratio",
}

#: span name -> per-layer time metric fed by its critical self time
_SELF_METRICS = {
    "data.decode": "data.decode_s",
    "sim.derive": "sim.derive_s",
    "sampling.phase1": "sampling.phase1_s",
    "sampling.select": "sampling.select_s",
    "sampling.phase2": "sampling.phase2_s",
    "sampling.feed": "sampling.feed_s",
    "sampling.merge": "sampling.merge_s",
    "parallel.launch": "parallel.launch_s",
    "parallel.collective": "parallel.collective_s",
    "train.fit": "train.fit_s",
    "train.feed": "train.feed_wait_s",
    "train.optimizer": "train.optimizer_s",
    "train.step": "train.optimizer_s",
}


def compute_metrics(spans, jobs: list[str]) -> dict[str, float]:
    """The data/sim/sampling/parallel/train metrics over ``jobs``' spans."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    wanted = set(jobs)
    mine = [s for s in spans if s.job in wanted]
    selfs = self_times(mine)
    hits = misses = 0
    derived = set()
    for s in mine:
        metric = _SELF_METRICS.get(s.name)
        if metric is not None and s.sid in selfs:
            out[metric] += selfs[s.sid]
        if s.name == "data.decode":
            out["data.decode_bytes"] += s.attrs.get("bytes", 0)
        elif s.name == "data.snapshot":
            out["data.snapshot_calls"] += 1
        elif s.name == "data.cache":
            hits += s.attrs["hits"]
            misses += s.attrs["misses"]
        elif s.name == "sim.derive":
            out["sim.derive_calls"] += 1
            derived.add((s.job, s.attrs["t"], s.attrs["var"]))
        elif s.name == "parallel.collective":
            out["parallel.collective_calls"] += 1
            out["parallel.collective_bytes"] += s.attrs["bytes"]
        elif s.name == "train.step":
            out["train.steps"] += 1
        elif s.name == "train.feed":
            out["train.samples"] += s.attrs.get("samples", 0)
    calls = out["sim.derive_calls"]
    n = max(1, len(jobs))
    out = {name: value / n for name, value in out.items()}
    if calls:
        out["sim.derive_useful_ratio"] = len(derived) / calls
    if hits + misses:
        out["data.cache_hit_ratio"] = hits / (hits + misses)
    return out


def model_error(spans, virtual_by_job: dict[str, float]) -> float:
    """Median |virtual - wall| / wall of each job's T1 SPMD region."""
    first: dict[str, object] = {}
    for s in spans:
        if (s.name == "parallel.launch" and s.attrs.get("site") == "sampling"
                and s.job in virtual_by_job and critical(s)):
            if s.job not in first or s.start < first[s.job].start:
                first[s.job] = s
    errors = [abs(virtual_by_job[j] - s.duration) / s.duration
              for j, s in first.items() if s.duration > 0]
    return median(errors) if errors else 0.0


def batch_shares(spans, jobs: list[str]) -> dict[str, float]:
    """Each layer's share of the summed job wall; ``other`` is the self
    time of the benchmark's job spans (API glue, artifact writes)."""
    wanted = set(jobs)
    mine = [s for s in spans if s.job in wanted]
    selfs = self_times(mine)
    roots = [s for s in mine if s.name == "job"]
    wall = sum(s.duration for s in roots)
    totals = layer_self(mine, selfs)
    out = {f"share.{layer}": totals[layer] / wall for layer in LAYERS}
    out["share.other"] = sum(selfs[s.sid] for s in roots) / wall
    return out


def serve_shares(spans, requests) -> dict[str, float]:
    """Shares of computed-request latency (submit to bytes fetched), and
    the serve layer's share of hit latency.

    A computed request's path is: submit and dispatch wait (up to the job's
    start), the job (its worker spans, split by layer), the store write,
    the fetch.  What remains (noticing completion between status polls,
    HTTP handling outside the spans) is ``other``.
    """
    by_job = defaultdict(list)
    for s in spans:
        if s.job is not None:
            by_job[s.job].append(s)
    totals = dict.fromkeys(LAYERS, 0.0)
    wall = hit_wall = hit_serve = 0.0
    for req in requests:
        if not req.ok:
            continue
        client = by_job.get(req.tag, [])
        if req.cls == "hit":
            hit_wall += req.latency_s
            hit_serve += sum(s.duration for s in client)
            continue
        worker = by_job.get(req.job_id, [])
        run = [s for s in worker if s.name == "serve.run"]
        if req.started_at is None or not run:
            continue
        tree = run + descendants(worker, run[0].sid)
        layers = layer_self(tree, self_times(tree))
        start = run[0].start
        before = [(s.start, min(s.end, start)) for s in client if s.name == "serve.submit"]
        before.append((req.created_at, min(req.started_at, start)))
        layers["serve"] += (
            union_length([(lo, hi) for lo, hi in before if hi > lo])
            + sum(s.duration for s in worker if s.name == "serve.store_put")
            + sum(s.duration for s in client if s.name == "serve.store_read"))
        for layer in LAYERS:
            totals[layer] += layers[layer]
        wall += req.latency_s
    out = {f"share.{layer}": (totals[layer] / wall if wall else 0.0) for layer in LAYERS}
    out["share.other"] = 1.0 - sum(out.values()) if wall else 0.0
    out["share.serve_of_hit"] = hit_serve / hit_wall if hit_wall else 0.0
    return out


def serve_metrics(spans, requests, stats: dict) -> dict[str, float]:
    """The serve-layer metrics of one traced window."""
    ok = [r for r in requests if r.ok]
    hits = [r for r in ok if r.cls == "hit"]
    misses = [r for r in ok if r.cls == "miss"]
    computed = [r for r in misses if r.started_at is not None]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    hit_tags = {r.tag for r in hits}
    jobs = {r.job_id for r in computed}
    run_spans = [s for s in by_name["serve.run"] if s.job in jobs]
    selfs = self_times([s for s in spans if s.job in jobs])
    n_jobs = max(1, len(computed))
    return {
        "serve.submit_s": _mean([s.duration for s in by_name["serve.submit"]]),
        "serve.store_read_s": _mean([s.duration for s in by_name["serve.store_read"]
                                     if s.job in hit_tags]),
        "serve.queue_wait_s": _mean([r.started_at - r.created_at for r in computed]),
        "serve.run_s": sum(selfs.get(s.sid, 0.0) for s in run_spans) / n_jobs,
        "serve.store_put_s": _mean([s.duration for s in by_name["serve.store_put"]]),
        "serve.hit_ratio": len(hits) / max(1, len(requests)),
        "serve.rejected": float(stats.get("rejected", 0)),
        "serve.retried": float(stats.get("retried", 0)),
        "serve.hit_latency_s.p90": _p90([r.latency_s for r in hits]),
        "serve.miss_latency_s.p90": _p90([r.latency_s for r in misses]),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _p90(values) -> float:
    return percentile(values, 90) if values else 0.0
