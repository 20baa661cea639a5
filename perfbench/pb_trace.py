"""In-memory span tracer and the wrappers that install it around each layer.

Spans are recorded from the benchmark's own files: :func:`install` replaces
public functions and methods of the ``repro.*`` layers with thin wrappers
that open a span around the original call, and :func:`Installation.remove`
puts the originals back.  Nothing under ``src/`` changes.

A span records its name, layer, start, end, parent, rank, job id and a dict
of counters.  Spans live in per-thread buffers and are only read when the
run ends.  Forked SPMD ranks (and thread ranks) record into a private buffer
that the rank wrapper ships back to the caller beside the rank's value, so
the parent sees every rank's spans.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which is
one clock for the parent and its forked ranks.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

#: rank id of spans recorded outside any SPMD region (the caller's threads)
MAIN_RANK = -1

LAYERS = ("data", "sim", "sampling", "parallel", "train", "serve")


@dataclass(slots=True)
class Span:
    sid: str
    parent: str | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    rank: int = MAIN_RANK
    job: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    """One thread's open-span stack, span buffer and context."""

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.buffer: list[Span] = []
        self.rank = MAIN_RANK
        self.job: str | None = None
        self.root_parent: str | None = None


class Tracer:
    """Collects spans from every thread of the process (and, via the rank
    wrapper, from forked ranks)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self._shipped: list[Span] = []
        self._ids = itertools.count()

    # ---- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._buffers.append(state.buffer)
        return state

    def _open(self, name: str, layer: str, attrs: dict) -> Span:
        state = self._state()
        top = state.stack[-1] if state.stack else None
        span = Span(
            sid=f"{os.getpid()}.{next(self._ids)}",
            parent=top.sid if top is not None else state.root_parent,
            name=name, layer=layer, start=time.perf_counter(),
            rank=state.rank,
            job=attrs.pop("job", None) or (top.job if top is not None else state.job),
            attrs=attrs,
        )
        state.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        state.buffer.append(span)

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Record a span around the ``with`` body; yields its counter dict."""
        span = self._open(name, layer, attrs)
        try:
            yield span.attrs
        finally:
            self._close(span)

    def event(self, name: str, layer: str, **attrs) -> None:
        """Record a zero-length span carrying counters only."""
        span = self._open(name, layer, attrs)
        span.end = span.start
        state = self._state()
        state.stack.pop()
        state.buffer.append(span)

    def current(self) -> Span | None:
        state = self._state()
        return state.stack[-1] if state.stack else None

    def set_thread_job(self, job: str | None) -> None:
        """Job id for spans this thread opens with no enclosing span."""
        self._state().job = job

    # ---- SPMD ranks ----------------------------------------------------

    def wrap_rank_fn(self, fn, launch: Span, layer: str):
        """Rank function that records into a private buffer and returns
        ``(value, spans)`` so the caller can merge the rank's spans."""
        tracer = self

        def traced_rank(comm, *args, **kwargs):
            state = tracer._state()
            saved = (state.stack, state.buffer, state.rank, state.job,
                     state.root_parent)
            state.stack, state.buffer = [], []
            state.rank, state.job, state.root_parent = comm.rank, launch.job, launch.sid
            try:
                with tracer.span(f"{layer}.rank", layer):
                    value = fn(comm, *args, **kwargs)
                return value, state.buffer
            finally:
                (state.stack, state.buffer, state.rank, state.job,
                 state.root_parent) = saved

        return traced_rank

    def add_shipped(self, spans: list[Span]) -> None:
        with self._lock:
            self._shipped.extend(spans)

    def spans(self) -> list[Span]:
        with self._lock:
            out = [s for buf in self._buffers for s in buf]
            return out + list(self._shipped)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


class Installation:
    """The attributes :func:`install` replaced; ``remove`` restores them."""

    def __init__(self) -> None:
        self._undo: list = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``."""
        had = attr in vars(owner)
        raw = vars(owner)[attr] if had else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        setattr(owner, attr, wrapped)
        if had:
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def patch_item(self, mapping: dict, key, make_wrapper) -> None:
        """Replace ``mapping[key]`` with ``make_wrapper(original)``."""
        raw = mapping[key]
        mapping[key] = make_wrapper(raw)
        self._undo.append(lambda: mapping.__setitem__(key, raw))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _spanned(tracer: Tracer, name: str, layer: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _spanned_iter(tracer: Tracer, name: str, layer: str, count_samples: bool):
    """Wrap a method returning an iterator: each ``next`` is one span, so
    the consumer's work between items stays outside it."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                with tracer.span(name, layer) as attrs:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    if count_samples:
                        attrs["samples"] = len(item[0])
                yield item
        return wrapper
    return make


def _install_data(tracer: Tracer, inst: Installation) -> None:
    from repro.data.sources import ShardDirSource
    from repro.data.store import LazyMembers

    inst.patch(ShardDirSource, "snapshot", _spanned(tracer, "data.snapshot", "data"))

    def traced_loader(load, many: bool):
        if load is None:
            return None

        def loader(arg):
            with tracer.span("data.decode", "data") as attrs:
                out = load(arg)
                arrays = out.values() if many else (out,)
                attrs["bytes"] = sum(int(a.nbytes) for a in arrays)
                return out
        return loader

    def make_init(init):
        @functools.wraps(init)
        def wrapper(self, members, load_one, load_all=None):
            init(self, members, traced_loader(load_one, False),
                 traced_loader(load_all, True))
        return wrapper

    inst.patch(LazyMembers, "__init__", make_init)

    closed: weakref.WeakSet = weakref.WeakSet()

    def make_close(close):
        @functools.wraps(close)
        def wrapper(self):
            if self not in closed:
                closed.add(self)
                counters = self.cache_info()["counters"]
                tracer.event("data.cache", "data", hits=counters["hits"],
                             misses=counters["misses"])
            return close(self)
        return wrapper

    inst.patch(ShardDirSource, "close", make_close)


def _install_sim(tracer: Tracer, inst: Installation) -> None:
    from repro.sim import fields

    def traced_derive(var):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(field):
                with tracer.span("sim.derive", "sim", var=var, t=float(field.time)):
                    return fn(field)
            return wrapper
        return make

    for var in list(fields.DERIVED_VARIABLES):
        inst.patch_item(fields.DERIVED_VARIABLES, var, traced_derive(var))


def _install_sampling(tracer: Tracer, inst: Installation) -> None:
    from repro import api
    from repro.sampling import stages
    from repro.sampling.base import StreamSampler

    for cls, name in (
        (stages.SubsamplePipeline, "sampling.pipeline"),
        (stages.CubeIndexStage, "sampling.index"),
        (stages.Phase1SummarizeStage, "sampling.phase1"),
        (stages.CubeSelectStage, "sampling.select"),
        (stages.PointSampleStage, "sampling.phase2"),
        (stages.GatherStage, "sampling.gather"),
    ):
        inst.patch(cls, "run", _spanned(tracer, name, "sampling"))
    inst.patch(api, "subsample", _spanned(tracer, "sampling.subsample", "sampling"))

    pending = list(StreamSampler.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "feed" in vars(cls):
            inst.patch(cls, "feed", _spanned(tracer, "sampling.feed", "sampling"))
    inst.patch(StreamSampler, "merge_partial",
               _spanned(tracer, "sampling.merge", "sampling"))


def _install_parallel(tracer: Tracer, inst: Installation) -> None:
    import repro.parallel
    from repro.parallel.comm import payload_nbytes
    from repro.parallel.procomm import ProcessComm
    from repro.parallel.threadcomm import ThreadComm
    from repro.sampling import pipeline, streaming

    def traced_collective(op):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                top = tracer.current()
                if top is not None and top.name == "parallel.collective":
                    return fn(self, *args, **kwargs)
                payload = args[0] if args and op not in ("barrier", "recv") else None
                with tracer.span("parallel.collective", "parallel", op=op,
                                 bytes=payload_nbytes(payload)):
                    return fn(self, *args, **kwargs)
            return wrapper
        return make

    ops = ("barrier", "bcast", "scatter", "gather", "allgather", "reduce",
           "allreduce", "alltoall", "send", "recv")
    for cls in (ThreadComm, ProcessComm):
        for op in ops:
            inst.patch(cls, op, traced_collective(op))

    def traced_launch(site):
        def make(run_spmd):
            @functools.wraps(run_spmd)
            def wrapper(fn, nranks, *args, **kwargs):
                with tracer.span("parallel.launch", "parallel", site=site):
                    launch = tracer.current()
                    result = run_spmd(tracer.wrap_rank_fn(fn, launch, site),
                                      nranks, *args, **kwargs)
                    for value, spans in result.values:
                        tracer.add_shipped(spans)
                    result.values = [value for value, _ in result.values]
                    return result
            return wrapper
        return make

    inst.patch(pipeline, "run_spmd", traced_launch("sampling"))
    inst.patch(streaming, "run_spmd", traced_launch("sampling"))
    inst.patch(repro.parallel, "run_spmd", traced_launch("train"))


def _install_train(tracer: Tracer, inst: Installation) -> None:
    from repro import api
    from repro.nn import optim
    from repro.train import feeds, loop

    inst.patch(loop.TrainLoop, "fit", _spanned(tracer, "train.fit", "train"))
    for cls in (feeds.ArrayFeed, feeds.StreamFeed):
        inst.patch(cls, "train_batches",
                   _spanned_iter(tracer, "train.feed", "train", count_samples=True))
        inst.patch(cls, "eval_batches",
                   _spanned_iter(tracer, "train.feed", "train", count_samples=False))
    inst.patch(feeds.ShardedFeed, "for_rank", _spanned(tracer, "train.feed_build", "train"))
    inst.patch(api, "stream_assembler", _spanned(tracer, "train.feed_build", "train"))
    inst.patch(api, "build_model_for_case", _spanned(tracer, "train.model_build", "train"))
    for cls in (optim.Adam, optim.SGD):
        inst.patch(cls, "step", _spanned(tracer, "train.step", "train"))
    inst.patch(optim._Optimizer, "zero_grad", _spanned(tracer, "train.optimizer", "train"))
    inst.patch(loop, "clip_grad_norm", _spanned(tracer, "train.optimizer", "train"))


def _install_serve(tracer: Tracer, inst: Installation) -> None:
    from repro.serve import scheduler
    from repro.serve.client import ServeClient
    from repro.serve.store import ArtifactStore

    inst.patch(ServeClient, "submit", _spanned(tracer, "serve.submit", "serve"))
    inst.patch(ServeClient, "fetch_artifact", _spanned(tracer, "serve.store_read", "serve"))

    def make_execute(execute_job):
        @functools.wraps(execute_job)
        def wrapper(spec, workdir, *args, **kwargs):
            job = os.path.basename(os.path.normpath(workdir))
            tracer.set_thread_job(job)
            with tracer.span("serve.run", "serve", job=job):
                return execute_job(spec, workdir, *args, **kwargs)
        return wrapper

    inst.patch(scheduler, "execute_job", make_execute)
    inst.patch(ArtifactStore, "put", _spanned(tracer, "serve.store_put", "serve"))


def install(tracer: Tracer) -> Installation:
    """Wrap every traced layer's public entry points; returns the handle
    whose ``remove()`` restores the originals."""
    inst = Installation()
    for installer in (_install_data, _install_sim, _install_sampling,
                      _install_parallel, _install_train, _install_serve):
        installer(tracer, inst)
    return inst


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def critical(span: Span) -> bool:
    """Spans on the caller's timeline: the caller's threads and rank 0."""
    return span.rank in (MAIN_RANK, 0)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time of every critical span: its duration minus the part of it
    its critical child spans cover."""
    crit = [s for s in spans if critical(s)]
    children: dict[str, list[tuple[float, float]]] = {}
    bounds = {s.sid: (s.start, s.end) for s in crit}
    for s in crit:
        if s.parent in bounds:
            lo, hi = bounds[s.parent]
            lo, hi = max(s.start, lo), min(s.end, hi)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {
        s.sid: s.duration - union_length(children.get(s.sid, []))
        for s in crit
    }


def descendants(spans: list[Span], root_sid: str) -> list[Span]:
    by_parent: dict[str | None, list[Span]] = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    out, pending = [], [root_sid]
    while pending:
        for child in by_parent.get(pending.pop(), []):
            out.append(child)
            pending.append(child.sid)
    return out


def layer_self(spans: list[Span], selfs: dict[str, float]) -> dict[str, float]:
    """Sum of critical self time per layer over ``spans``."""
    totals = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s.layer in totals and s.sid in selfs:
            totals[s.layer] += selfs[s.sid]
    return totals
