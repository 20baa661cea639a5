"""Real-process SPMD communicator with a shared-memory fast path.

:class:`ThreadComm` gives correct collective semantics but runs every rank
under one GIL, so its speedups exist only in virtual time.  This module backs
the same :class:`~repro.parallel.comm.Communicator` contract with
``multiprocessing`` workers so the identical stream/DDP code paths run with
true parallelism.

Topology is hub-and-spoke: the parent process is the switchboard.  Each rank
is a forked worker holding one duplex pipe to the parent; the parent runs an
event loop (:class:`_Hub`) that assembles collectives, routes point-to-point
messages, and watches process sentinels so a dead worker aborts its peers
instead of deadlocking them.

Transport is pickle protocol 5 with out-of-band buffers: any contiguous
buffer at or above ``shm_threshold`` bytes (default 64 KiB) is placed in a
single per-message :class:`multiprocessing.shared_memory.SharedMemory`
segment and travels as a (name, offset, size) handle rather than a copy
through the pipe.  The receiver copies buffers out into fresh ``bytearray``\\ s
(value semantics — mutating a received array never corrupts a peer) and
unlinks the segment, so segments live exactly one hop.

Determinism contract: collectives complete in rank order with the same
reduction fold as every other backend (:func:`~repro.parallel.comm.reduce_many`)
and each worker advances its :class:`~repro.parallel.perfmodel.VirtualClock`
with the identical per-op byte accounting as :class:`ThreadComm`, so results
*and* virtual clocks are bitwise identical across ``backend="thread"`` and
``backend="process"`` for the same (seed, nranks).

Requires a platform with the ``fork`` start method (Linux): rank functions
are arbitrary closures, which survive fork but do not pickle.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from multiprocessing import connection, get_context, resource_tracker, shared_memory
from collections.abc import Callable, Sequence
from typing import Any

from repro.parallel.comm import Communicator, payload_nbytes, reduce_many
from repro.parallel.perfmodel import PerfModel, VirtualClock
from repro.parallel.threadcomm import RankFailure

__all__ = ["ProcessComm", "ProcessCommWorld", "run_process_spmd", "DEFAULT_SHM_THRESHOLD"]

#: payload buffers at or above this many bytes ride shared memory, not the pipe
DEFAULT_SHM_THRESHOLD = 64 * 1024

#: seconds the hub waits for workers to exit after an abort before terminating
_TEARDOWN_GRACE = 5.0

#: slice length for interruptible waits inside workers (seconds)
_POLL_SLICE = 0.5

_SHM_KIND = "shared_memory"  # resource_tracker resource type


def _proc_timeout_from_env() -> float | None:
    raw = os.environ.get("REPRO_PROC_TIMEOUT", "").strip()
    if not raw:
        return None
    value = float(raw)
    return value if value > 0 else None


# --------------------------------------------------------------------------
# Packing: pickle-5 with large buffers hoisted into one shm segment
# --------------------------------------------------------------------------


def _pack(obj: Any, threshold: int) -> tuple[bytes, str | None, list[tuple[int, int]]]:
    """Serialize `obj`; buffers >= `threshold` go out-of-band into one shm segment.

    Returns ``(pickle_bytes, shm_name | None, [(offset, size), ...])``.  The
    caller owns nothing afterwards: the segment is closed locally and its
    resource-tracker registration is handed to the receiver (who re-registers
    on attach and unregisters on unlink, so the books stay balanced).
    """
    big: list[memoryview] = []

    def keep_out_of_band(pb: pickle.PickleBuffer) -> bool:
        try:
            raw = pb.raw()
        except BufferError:  # non-contiguous: let pickle serialize it in-band
            return True
        if raw.nbytes >= threshold:
            big.append(raw)
            return False
        return True

    data = pickle.dumps(obj, protocol=5, buffer_callback=keep_out_of_band)
    if not big:
        return data, None, []
    total = sum(b.nbytes for b in big)
    shm = shared_memory.SharedMemory(create=True, size=total)
    spans: list[tuple[int, int]] = []
    offset = 0
    for buf in big:
        shm.buf[offset : offset + buf.nbytes] = buf
        spans.append((offset, buf.nbytes))
        offset += buf.nbytes
    name = shm.name
    shm.close()
    # Ownership moves with the message; the receiver's attach re-registers.
    resource_tracker.unregister(shm._name, _SHM_KIND)
    return data, name, spans


def _unpack(packed: tuple[bytes, str | None, list[tuple[int, int]]]) -> Any:
    """Rebuild an object from :func:`_pack` output, consuming its shm segment."""
    data, name, spans = packed
    if name is None:
        return pickle.loads(data)
    shm = shared_memory.SharedMemory(name=name)
    try:
        # bytearray copies give the receiver writable, independently-owned
        # buffers — mpi4py-style value semantics, and safe to use after unlink.
        buffers = [bytearray(shm.buf[off : off + size]) for off, size in spans]
    finally:
        shm.close()
        shm.unlink()
    return pickle.loads(data, buffers=buffers)


def _dispose(packed: tuple[bytes, str | None, list[tuple[int, int]]]) -> None:
    """Release the shm segment of a message that will never be unpacked."""
    _, name, _ = packed
    if name is None:
        return
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    shm.close()
    shm.unlink()


def _pickle_exception(rank: int, exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc)
    except Exception:  # exotic unpicklable exception: degrade to its repr
        return pickle.dumps(RuntimeError(f"rank {rank}: {type(exc).__name__}: {exc}"))


# --------------------------------------------------------------------------
# World + worker endpoint
# --------------------------------------------------------------------------


class ProcessCommWorld:
    """Configuration shared (via fork) between the hub and all rank workers."""

    def __init__(
        self,
        size: int,
        model: PerfModel | None = None,
        fault_hook: Callable[..., bool] | None = None,
        timeout: float | None = None,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.model = model or PerfModel()
        self.fault_hook = fault_hook
        #: seconds a worker blocks on the hub before raising; None = forever
        #: (determinism runs).  ``REPRO_PROC_TIMEOUT`` arms it globally (CI).
        self.timeout = timeout if timeout is not None else _proc_timeout_from_env()
        self.shm_threshold = int(shm_threshold)


class ProcessComm(Communicator):
    """One forked rank's endpoint; all traffic goes through the parent hub."""

    def __init__(self, world: ProcessCommWorld, rank: int, conn: connection.Connection) -> None:
        if not (0 <= rank < world.size):
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self._rank = rank
        self._conn = conn
        self._clock = VirtualClock(model=world.model)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    @property
    def clock(self) -> VirtualClock:
        return self._clock

    def maybe_fail(self, **context: Any) -> None:
        """Fault-injection checkpoint, same contract as ThreadComm."""
        hook = self._world.fault_hook
        if hook is not None and hook(self._rank, **context):
            raise RankFailure(f"rank {self._rank} killed by fault hook at {context!r}")

    # Hub round-trips -------------------------------------------------------

    def _await_reply(self, op_desc: str) -> tuple[Any, ...]:
        """Block until the hub replies; every blocking wait honors the timeout."""
        timeout = self._world.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait_for = _POLL_SLICE
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"rank {self._rank}: {op_desc} timed out after {timeout}s "
                        "waiting on peers (dead or deadlocked worker?)"
                    )
                wait_for = min(wait_for, remaining)
            if not self._conn.poll(wait_for):
                continue
            try:
                msg = self._conn.recv()
            except (EOFError, OSError):
                raise RuntimeError(
                    f"rank {self._rank}: SPMD hub closed the channel during {op_desc}"
                ) from None
            if msg[0] == "abort":
                raise RuntimeError(f"peer rank failed: {msg[1]}")
            return msg

    def _collective(self, op: str, contribution: Any, root: int | None, reduce_op: str | None):
        packed = _pack(contribution, self._world.shm_threshold)
        self._conn.send(("coll", op, root, reduce_op, packed, self._clock.t))
        _, packed_result, arrival_max = self._await_reply(op)
        return _unpack(packed_result), arrival_max

    def _sync(self, arrival_max: float, op: str, nbytes: int) -> None:
        self._clock.sync_to(arrival_max, op, nbytes, self.size)

    # Collectives -----------------------------------------------------------

    def barrier(self) -> None:
        _, arrival = self._collective("barrier", None, None, None)
        self._sync(arrival, "barrier", 0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_root(root)
        result, arrival = self._collective("bcast", obj if self._rank == root else None, root, None)
        self._sync(arrival, "bcast", payload_nbytes(result))
        return result

    def scatter(self, chunks: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_root(root)
        if self._rank == root:
            if chunks is None:
                raise ValueError("root rank must supply chunks")
            chunks = list(chunks)
            if len(chunks) != self.size:
                raise ValueError(f"scatter needs {self.size} chunks, got {len(chunks)}")
        mine, arrival = self._collective(
            "scatter", chunks if self._rank == root else None, root, None
        )
        self._sync(arrival, "scatter", payload_nbytes(mine))
        return mine

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_root(root)
        result, arrival = self._collective("gather", obj, root, None)
        self._sync(arrival, "gather", payload_nbytes(obj))
        return result

    def allgather(self, obj: Any) -> list[Any]:
        result, arrival = self._collective("allgather", obj, None, None)
        self._sync(arrival, "allgather", payload_nbytes(obj))
        return result

    def reduce(self, obj: Any, op: str = "sum", root: int = 0) -> Any:
        self._check_root(root)
        from repro.parallel.comm import REDUCE_OPS

        if op not in REDUCE_OPS:
            raise ValueError(f"unknown reduce op {op!r}")
        result, arrival = self._collective("reduce", obj, root, op)
        self._sync(arrival, "reduce", payload_nbytes(obj))
        return result

    def allreduce(self, obj: Any, op: str = "sum") -> Any:
        from repro.parallel.comm import REDUCE_OPS

        if op not in REDUCE_OPS:
            raise ValueError(f"unknown reduce op {op!r}")
        result, arrival = self._collective("allreduce", obj, None, op)
        self._sync(arrival, "allreduce", payload_nbytes(obj))
        return result

    def alltoall(self, chunks: Sequence[Any]) -> list[Any]:
        chunks = list(chunks)
        if len(chunks) != self.size:
            raise ValueError(f"alltoall needs {self.size} chunks, got {len(chunks)}")
        result, arrival = self._collective("alltoall", chunks, None, None)
        self._sync(arrival, "alltoall", payload_nbytes(chunks))
        return result

    # Point-to-point --------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise ValueError(f"dest {dest} out of range")
        if dest == self._rank:
            raise ValueError("self-send would deadlock a blocking rendezvous")
        self._clock.add_p2p(payload_nbytes(obj))
        packed = _pack(obj, self._world.shm_threshold)
        self._conn.send(("p2p_send", dest, tag, packed, self._clock.t))

    def recv(self, source: int, tag: int = 0) -> Any:
        if not (0 <= source < self.size):
            raise ValueError(f"source {source} out of range")
        self._conn.send(("p2p_recv", source, tag))
        _, packed, sent_t = self._await_reply(f"recv(source={source}, tag={tag})")
        self._clock.t = max(self._clock.t, sent_t)
        return _unpack(packed)


def _worker_main(
    world: ProcessCommWorld,
    rank: int,
    parent_conns: list[connection.Connection],
    child_conns: list[connection.Connection],
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
) -> None:
    # Fork duplicates every pipe end; keep only this rank's child end so fd
    # hygiene (and EOF behaviour) stays sane.
    for i, (p, c) in enumerate(zip(parent_conns, child_conns)):
        p.close()
        if i != rank:
            c.close()
    conn = child_conns[rank]
    comm = ProcessComm(world, rank, conn)
    try:
        value = fn(comm, *args, **kwargs)
        conn.send(
            ("done", _pack(value, world.shm_threshold), pickle.dumps(comm.clock, protocol=5))
        )
    except BaseException as exc:  # any failure must reach the hub
        try:
            conn.send(("error", _pickle_exception(rank, exc)))
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# --------------------------------------------------------------------------
# Hub: the parent-side switchboard
# --------------------------------------------------------------------------

_COLLECTIVE_SENTINEL = object()


class _Hub:
    """Parent event loop: collective assembly, p2p routing, death watch."""

    def __init__(
        self,
        world: ProcessCommWorld,
        procs: list[Any],
        conns: list[connection.Connection],
    ) -> None:
        self.world = world
        self.procs = procs
        self.conns = conns
        size = world.size
        self.values: list[Any] = [None] * size
        self.clocks: list[VirtualClock] = [VirtualClock(model=world.model) for _ in range(size)]
        self.failure: BaseException | None = None
        self.failure_rank: int | None = None
        self._pending: dict[int, tuple[str, int | None, str | None, Any, float]] = {}
        self._recv_waiters: dict[int, tuple[int, int]] = {}
        self._mailbox: dict[tuple[int, int, int], deque] = {}
        self._alive: set[int] = set(range(size))
        self._finished: set[int] = set()
        self._abort_deadline: float | None = None

    # Failure handling ------------------------------------------------------

    def _fail(self, rank: int, exc: BaseException) -> None:
        """Record the originating failure and unblock every other worker."""
        if self.failure is None:
            self.failure = exc
            self.failure_rank = rank
            self._abort_deadline = time.monotonic() + _TEARDOWN_GRACE
            for r in self._alive:
                if r == rank or r in self._finished:
                    continue
                try:
                    self.conns[r].send(("abort", repr(exc)))
                except (OSError, BrokenPipeError):
                    pass
        # Payloads parked for a run that is going down will never be read.
        self._drop_parked()

    def _drop_parked(self) -> None:
        for _, _, _, packed, _ in self._pending.values():
            _dispose(packed)
        self._pending.clear()
        for box in self._mailbox.values():
            for packed, _ in box:
                _dispose(packed)
        self._mailbox.clear()
        self._recv_waiters.clear()

    # Message handling ------------------------------------------------------

    def _handle(self, rank: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "done":
            _, packed_value, clock_blob = msg
            if self.failure is None:
                self.values[rank] = _unpack(packed_value)
                self.clocks[rank] = pickle.loads(clock_blob)
            else:
                _dispose(packed_value)
            self._finished.add(rank)
            self._check_stranded_collective()
            return
        if kind == "error":
            exc = pickle.loads(msg[1])
            if not self._is_secondary(exc):
                self._fail(rank, exc)
            self._finished.add(rank)
            return
        if self.failure is not None:
            # The run is going down; just release any shm the message carries.
            if kind in ("coll", "p2p_send"):
                _dispose(msg[4] if kind == "coll" else msg[3])
            return
        if kind == "coll":
            _, op, root, reduce_op, packed, t = msg
            self._pending[rank] = (op, root, reduce_op, packed, t)
            if len(self._pending) == self.world.size:
                self._complete_collective()
            else:
                self._check_stranded_collective()
            return
        if kind == "p2p_send":
            _, dest, tag, packed, sent_t = msg
            if self._recv_waiters.get(dest) == (rank, tag):
                del self._recv_waiters[dest]
                self._reply(dest, ("p2p", packed, sent_t))
            else:
                self._mailbox.setdefault((rank, dest, tag), deque()).append((packed, sent_t))
            return
        if kind == "p2p_recv":
            _, source, tag = msg
            box = self._mailbox.get((source, rank, tag))
            if box:
                packed, sent_t = box.popleft()
                self._reply(rank, ("p2p", packed, sent_t))
            else:
                self._recv_waiters[rank] = (source, tag)
            return
        raise AssertionError(f"unknown hub message {kind!r} from rank {rank}")

    @staticmethod
    def _is_secondary(exc: BaseException) -> bool:
        """Peers dying from an abort must not mask the originating failure."""
        return isinstance(exc, RuntimeError) and str(exc).startswith("peer rank failed")

    def _reply(self, rank: int, msg: tuple) -> None:
        try:
            self.conns[rank].send(msg)
        except (OSError, BrokenPipeError):
            pass

    def _check_stranded_collective(self) -> None:
        """A collective some ranks entered can never finish once another rank
        has exited — fail fast instead of letting the waiters time out."""
        if not self._pending or self.failure is not None:
            return
        possible = self._pending.keys() | (self._alive - self._finished)
        if len(possible) < self.world.size:
            waiting = sorted(self._pending)
            gone = sorted(set(range(self.world.size)) - possible)
            op = next(iter(self._pending.values()))[0]
            self._fail(
                gone[0],
                RuntimeError(
                    f"rank(s) {gone} exited while rank(s) {waiting} wait in collective {op!r}"
                ),
            )

    # Collective completion -------------------------------------------------

    def _complete_collective(self) -> None:
        size = self.world.size
        entries = [self._pending[r] for r in range(size)]
        self._pending.clear()
        ops = {(op, root, reduce_op) for op, root, reduce_op, _, _ in entries}
        if len(ops) != 1:
            self._fail(
                0, RuntimeError(f"mismatched collectives across ranks: {sorted(ops)}")
            )
            return
        op, root, reduce_op = entries[0][:3]
        try:
            slots = [_unpack(packed) for _, _, _, packed, _ in entries]
        except Exception as exc:  # corrupt payload: unrecoverable
            self._fail(0, RuntimeError(f"failed to decode collective payload: {exc!r}"))
            return
        arrival_max = max(t for _, _, _, _, t in entries)
        try:
            results = self._collective_results(op, root, reduce_op, slots, size)
        except Exception as exc:
            self._fail(root if root is not None else 0, exc)
            return
        threshold = self.world.shm_threshold
        for r in range(size):
            self._reply(r, ("coll", _pack(results[r], threshold), arrival_max))

    @staticmethod
    def _collective_results(
        op: str, root: int | None, reduce_op: str | None, slots: list[Any], size: int
    ) -> list[Any]:
        if op == "barrier":
            return [None] * size
        if op == "bcast":
            return [slots[root]] * size
        if op == "scatter":
            chunks = slots[root]
            if chunks is None or len(chunks) != size:
                raise RuntimeError("scatter root supplied no/mis-sized chunk list")
            return list(chunks)
        if op == "gather":
            return [list(slots) if r == root else None for r in range(size)]
        if op == "allgather":
            return [list(slots)] * size
        if op in ("reduce", "allreduce"):
            reduced = reduce_many(slots, reduce_op)
            if op == "reduce":
                return [reduced if r == root else None for r in range(size)]
            return [reduced] * size
        if op == "alltoall":
            return [[slots[src][r] for src in range(size)] for r in range(size)]
        raise RuntimeError(f"unknown collective {op!r}")

    # Event loop ------------------------------------------------------------

    def run(self) -> None:
        while self._alive:
            waitables: list[Any] = [self.conns[r] for r in self._alive]
            waitables += [self.procs[r].sentinel for r in self._alive]
            connection.wait(waitables, timeout=0.2)
            for r in sorted(self._alive):
                self._drain(r)
                if not self.procs[r].is_alive():
                    self._drain(r)  # catch messages buffered before exit
                    self._alive.discard(r)
                    if r not in self._finished and self.failure is None:
                        code = self.procs[r].exitcode
                        self._fail(
                            r,
                            RuntimeError(
                                f"worker process for rank {r} died unexpectedly "
                                f"(exitcode {code})"
                            ),
                        )
                        self._finished.add(r)
                    self._check_stranded_collective()
            if self._abort_deadline is not None and time.monotonic() > self._abort_deadline:
                break  # stragglers ignored the abort; caller terminates them

    def _drain(self, rank: int) -> None:
        conn = self.conns[rank]
        while True:
            try:
                if not conn.poll(0):
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                return
            self._handle(rank, msg)


# --------------------------------------------------------------------------
# Launcher
# --------------------------------------------------------------------------


def run_process_spmd(
    fn: Callable[..., Any],
    nranks: int,
    args: tuple,
    kwargs: dict,
    *,
    model: PerfModel | None = None,
    fault_hook: Callable[..., bool] | None = None,
    timeout: float | None = None,
    shm_threshold: int = DEFAULT_SHM_THRESHOLD,
) -> tuple[list[Any], list[VirtualClock]]:
    """Run ``fn(comm, *args, **kwargs)`` on `nranks` forked processes.

    Returns ``(values, clocks)`` in rank order, or raises
    ``RuntimeError("rank N failed")`` chained from the originating exception —
    the exact contract of the thread backend.  Used via
    :func:`repro.parallel.spmd.run_spmd` with ``backend="process"``.
    """
    try:
        ctx = get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        raise RuntimeError(
            "backend='process' needs the fork start method (POSIX only); "
            "use backend='thread' on this platform"
        ) from None
    world = ProcessCommWorld(
        nranks,
        model=model,
        fault_hook=fault_hook,
        timeout=timeout,
        shm_threshold=shm_threshold,
    )
    pipes = [ctx.Pipe(duplex=True) for _ in range(nranks)]
    parent_conns = [p for p, _ in pipes]
    child_conns = [c for _, c in pipes]
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(world, rank, parent_conns, child_conns, fn, args, kwargs),
            name=f"spmd-rank-{rank}",
            daemon=True,
        )
        for rank in range(nranks)
    ]
    for p in procs:
        p.start()
    for c in child_conns:
        c.close()

    hub = _Hub(world, procs, parent_conns)
    try:
        hub.run()
    finally:
        # After a failure the hub already waited out its abort grace; don't
        # stack a second long join on top of it.
        grace = 1.0 if hub.failure is not None else _TEARDOWN_GRACE
        deadline = time.monotonic() + grace
        for p in procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - terminate() refused
                p.kill()
                p.join(timeout=5.0)
        for c in parent_conns:
            try:
                c.close()
            except OSError:
                pass
        for p in procs:
            p.close()

    if hub.failure is not None:
        raise RuntimeError(f"rank {hub.failure_rank} failed") from hub.failure
    return hub.values, hub.clocks
