"""Persistence for fields, datasets, and subsampled point sets.

The paper highlights that SICKLE "provides a convenient way to significantly
reduce file storage requirements, by storing feature-rich subsampled
datasets"; :class:`SubsampleStore` implements that: compressed npz files of
PointSets plus the bookkeeping to report the storage-reduction factor
against the raw fields they came from.
"""

from __future__ import annotations

import ast
import json
import math
import os
import re
import threading
import zipfile
from collections.abc import Callable, Iterable, Mapping

import numpy as np
from numpy.lib import format as _npformat

from repro.data.points import PointSet
from repro.sim.fields import FlowField

__all__ = [
    "SubsampleStore",
    "save_field",
    "load_field",
    "load_field_lazy",
    "read_npy",
    "read_npz_member",
    "LazyMembers",
    "LazyField",
    "LazyNpzField",
    "points_payload",
    "points_from_npz",
    "read_manifest",
    "write_manifest",
    "META_KEY",
    "MANIFEST",
]

#: npz entry holding the JSON-encoded metadata, shared by every serializer
#: in this repo (SubsampleStore, field snapshots, repro.api artifacts).
META_KEY = "__meta_json__"
_META_KEYS = META_KEY

#: dataset-directory manifest name, shared by save_dataset/load_dataset and
#: the out-of-core :class:`repro.data.sources.ShardDirSource`.
MANIFEST = "manifest.json"


def write_manifest(path: str, manifest: dict) -> None:
    """Atomically write a shard-directory manifest (tmp file + rename).

    The manifest is the last thing a writer produces and the first thing
    :class:`~repro.data.sources.ShardDirSource` validates, so it doubles as
    the directory's commit record: a writer killed mid-``json.dump`` must
    not leave a truncated ``manifest.json`` that readers would silently
    open.  ``os.replace`` makes the final step atomic on POSIX and Windows.
    """
    final = os.path.join(path, MANIFEST)
    tmp = final + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)


def read_manifest(path: str) -> dict:
    """Read a shard-directory manifest, failing clearly when absent."""
    manifest_path = os.path.join(path, MANIFEST)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(
            f"no {MANIFEST} under {path!r} — not a save_dataset() directory"
        )
    with open(manifest_path, encoding="utf-8") as fh:
        return json.load(fh)


def points_payload(points: PointSet) -> dict[str, np.ndarray]:
    """The canonical npz array payload for one PointSet (sans meta).

    Shared by :class:`SubsampleStore` and :mod:`repro.api` artifacts so the
    on-disk format has exactly one definition.
    """
    payload: dict[str, np.ndarray] = {f"val_{k}": v for k, v in points.values.items()}
    payload["coords"] = points.coords
    payload["time"] = np.asarray(points.time)
    return payload


def points_from_npz(data, meta: dict | None = None) -> PointSet:
    """Rebuild a PointSet from an open npz written with :func:`points_payload`."""
    values = {k[4:]: data[k] for k in data.files if k.startswith("val_")}
    time = data["time"]
    return PointSet(
        coords=data["coords"],
        values=values,
        time=float(time) if time.ndim == 0 else time,
        meta=dict(meta) if meta else {},
    )


def save_field(path: str, field: FlowField) -> None:
    """Save one snapshot as a compressed npz."""
    payload: dict[str, np.ndarray] = {f"var_{k}": v for k, v in field.variables.items()}
    payload["time"] = np.array(field.time)
    payload[_META_KEYS] = np.array(json.dumps(field.meta))
    np.savez_compressed(path, **payload)


def load_field(path: str) -> FlowField:
    """Load a snapshot saved by :func:`save_field`."""
    with np.load(path, allow_pickle=False) as data:
        variables = {k[4:]: data[k] for k in data.files if k.startswith("var_")}
        time = float(data["time"])
        meta = json.loads(str(data[_META_KEYS])) if _META_KEYS in data.files else {}
    return FlowField(variables=variables, time=time, meta=meta)


#: the header dict ``np.save`` writes for a plain (non-structured) dtype
_NPY_HEADER = re.compile(
    r"\{'descr': '([^']+)', 'fortran_order': (True|False), 'shape': \(([0-9, ]*)\), \}"
)


def _read_npy_header(fh) -> tuple[tuple[int, ...], np.dtype, bool]:
    """(shape, dtype, fortran_order) from the header of the ``.npy`` stream
    at `fh`, leaving `fh` at the start of the array bytes.

    numpy parses the header with ``ast.literal_eval``.  CPython 3.11 keeps
    AST-construction state per interpreter, not per thread, so two threads
    parsing at once can fail with ``SystemError`` ("AST constructor
    recursion depth mismatch") — and shard members are read on a
    read-ahead thread while the consumer opens the next shard.  Headers in
    ``np.save``'s plain form are therefore matched with a regular
    expression; anything else (structured dtypes) falls back to ``ast``.
    """
    major, _ = _npformat.read_magic(fh)
    size = int.from_bytes(fh.read(2 if major == 1 else 4), "little")
    header = fh.read(size).decode("latin1" if major < 3 else "utf8")
    match = _NPY_HEADER.match(header)
    if match is None:
        d = ast.literal_eval(header)
        return tuple(d["shape"]), _npformat.descr_to_dtype(d["descr"]), d["fortran_order"]
    descr, fortran, dims = match.groups()
    shape = tuple(int(n) for n in dims.split(",") if n.strip())
    return shape, np.dtype(descr), fortran == "True"


def read_npy(fh) -> np.ndarray:
    """Read one ``.npy`` stream: the array ``np.load`` returns for it, with
    the header parsed by :func:`_read_npy_header` (thread-safe)."""
    shape, dtype, fortran = _read_npy_header(fh)
    if dtype.hasobject:
        raise ValueError("object arrays cannot be read without pickle")
    nbytes = math.prod(shape) * dtype.itemsize
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise ValueError("truncated .npy payload")
    arr = np.frombuffer(data, dtype=dtype).copy()  # writable, like np.load
    return arr.reshape(shape[::-1]).transpose() if fortran else arr.reshape(shape)


def read_npz_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """Array ``name`` of an open npz archive (``np.load(path)[name]``)."""
    with zf.open(f"{name}.npy") as fh:
        return read_npy(fh)


class LazyMembers(Mapping):
    """Mapping of variable name → array that decodes members on first
    access, whatever the codec underneath.

    ``load_one(name)`` decodes a single member; the optional
    ``load_all(names)`` decodes several in one I/O pass (e.g. one npz open
    instead of V zip-directory rescans) and is what :meth:`decode_all`
    batches through.  A consumer that only reads the cluster variable pays
    for exactly that member.  Iteration/`in`/`len` reflect the full member
    list without decoding; anything that needs the arrays (``[key]``,
    ``get``, ``values()``, ``items()``, ``dict(...)``) decodes what it
    touches.  A real :class:`collections.abc.Mapping` (not a dict
    subclass), so every generic mapping operation routes through
    ``__getitem__`` — there is no C fast path that could silently skip the
    decode.
    """

    def __init__(
        self,
        members: Iterable[str],
        load_one: Callable[[str], np.ndarray],
        load_all: Callable[[list[str]], dict[str, np.ndarray]] | None = None,
    ) -> None:
        self._members = tuple(members)
        self._load_one = load_one
        self._load_all = load_all
        self._decoded: dict[str, np.ndarray] = {}
        self._decode_lock = threading.Lock()
        self._on_decode: Callable[[str], None] | None = None

    def __getitem__(self, key: str) -> np.ndarray:
        # Benign race: atomic dict read of an immutable entry — a miss just
        # falls through to the locked decode path below.
        arr = self._decoded.get(key)  # repro-lint: ignore[RPL003]
        if arr is not None:
            return arr
        if key not in self._members:
            raise KeyError(key)
        # One lock per shard: a thread asking for a member another thread
        # is decoding waits here and then reads the stored array.
        with self._decode_lock:
            if key in self._decoded:  # racing thread decoded it
                return self._decoded[key]
            arr = self._load_one(key)
            self._decoded[key] = arr
        if self._on_decode is not None:
            self._on_decode(key)
        return arr

    def __contains__(self, key: object) -> bool:
        return key in self._members

    def __iter__(self):
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def on_decode(self, callback: Callable[[str], None]) -> None:
        """Call ``callback(name)`` after each member decoded through
        ``[name]``, on whichever thread decoded it.  Shard sources use it
        to learn which members their consumer reads."""
        self._on_decode = callback

    def before_load(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` before every deferred member read (already-decoded
        members are unaffected).  Tiered sources use this to re-stage shard
        files a bounded staging tier may have evicted since decode time."""
        load_one, load_all = self._load_one, self._load_all

        def hooked_one(key: str) -> np.ndarray:
            hook()
            return load_one(key)

        self._load_one = hooked_one
        if load_all is not None:
            def hooked_all(missing: list[str]) -> dict[str, np.ndarray]:
                hook()
                return load_all(missing)

            self._load_all = hooked_all

    def decode_all(self) -> None:
        """Decode every member, batched through ``load_all`` when the codec
        provides one."""
        with self._decode_lock:
            missing = [k for k in self._members if k not in self._decoded]
            if not missing:
                return
            if self._load_all is not None:
                self._decoded.update(self._load_all(missing))
            else:
                for k in missing:
                    self._decoded[k] = self._load_one(k)

    def decoded(self) -> list[str]:
        """Members decoded so far (test/diagnostic hook)."""
        with self._decode_lock:
            return sorted(self._decoded)


class LazyField(FlowField):
    """A :class:`FlowField` view with per-variable lazy decode: geometry
    comes from shard metadata, and each stored variable is read only when
    first accessed (derived variables still compose on top via
    :meth:`FlowField.get`).  Codecs build these through
    :class:`LazyMembers` with their own member loaders."""

    def __init__(
        self,
        members: LazyMembers,
        grid_shape: tuple[int, ...],
        itemsize: int,
        time: float,
        meta: dict | None = None,
    ) -> None:
        # Deliberately skip FlowField.__init__: nothing is decoded yet, so
        # there are no arrays to validate against each other.
        self.variables = members
        self.time = float(time)
        self.meta = dict(meta or {})
        self._cache = {}
        self._lazy_shape = tuple(grid_shape)
        self._itemsize = int(itemsize)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self._lazy_shape

    def nbytes(self) -> int:
        """Would-be decoded footprint, from metadata alone (no decode)."""
        return int(np.prod(self._lazy_shape)) * self._itemsize * len(self.variables)

    def materialize(self) -> LazyField:
        """Decode every stored member in one I/O pass."""
        self.variables.decode_all()
        return self

    def decoded_members(self) -> list[str]:
        return self.variables.decoded()


class LazyNpzField(LazyField):
    """:class:`LazyField` over one npz shard: members are individually
    compressed zip entries, so decoding one variable never decompresses
    the others, and :meth:`materialize` batches through a single open."""

    def __init__(
        self,
        path: str,
        members: list[str],
        grid_shape: tuple[int, ...],
        itemsize: int,
        time: float,
        meta: dict | None = None,
    ) -> None:
        def load_one(key: str) -> np.ndarray:
            with zipfile.ZipFile(path) as zf:
                return read_npz_member(zf, f"var_{key}")

        def load_all(missing: list[str]) -> dict[str, np.ndarray]:
            with zipfile.ZipFile(path) as zf:
                return {k: read_npz_member(zf, f"var_{k}") for k in missing}

        super().__init__(
            LazyMembers(members, load_one, load_all),
            grid_shape, itemsize, time, meta,
        )


def load_field_lazy(path: str) -> LazyNpzField:
    """Open a snapshot saved by :func:`save_field` without decoding fields.

    Only the scalar ``time`` and JSON meta members are decompressed (both
    tiny); array members decode individually on first access.
    """
    with zipfile.ZipFile(path) as zf:
        names = [n[:-4] for n in zf.namelist() if n.endswith(".npy")]
        members = [n[4:] for n in names if n.startswith("var_")]
        if not members:
            raise ValueError(f"{path!r} holds no field variables")
        time = float(read_npz_member(zf, "time"))
        meta = json.loads(str(read_npz_member(zf, _META_KEYS))) if _META_KEYS in names else {}
        # The first member's header gives the geometry; its payload stays
        # compressed.
        with zf.open(f"var_{members[0]}.npy") as fh:
            shape, dtype, _ = _read_npy_header(fh)
    return LazyNpzField(path, members, shape, dtype.itemsize, time, meta)


class SubsampleStore:
    """Directory of compressed subsampled PointSets with size accounting."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        if os.sep in name or name.startswith("."):
            raise ValueError(f"invalid store entry name {name!r}")
        return os.path.join(self.root, f"{name}.npz")

    def save(self, name: str, points: PointSet) -> str:
        """Persist one PointSet; returns the file path."""
        payload = points_payload(points)
        payload[_META_KEYS] = np.array(json.dumps(points.meta))
        path = self._path(name)
        np.savez_compressed(path, **payload)
        return path

    def load(self, name: str) -> PointSet:
        path = self._path(name)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data[_META_KEYS])) if _META_KEYS in data.files else {}
            points = points_from_npz(data, meta)
        return points

    def entries(self) -> list[str]:
        return sorted(
            os.path.splitext(f)[0] for f in os.listdir(self.root) if f.endswith(".npz")
        )

    def stored_bytes(self, name: str) -> int:
        """On-disk (compressed) size of one entry."""
        return os.path.getsize(self._path(name))

    def reduction_factor(self, name: str, raw_bytes: int) -> float:
        """Raw-field bytes divided by stored subsample bytes."""
        stored = self.stored_bytes(name)
        if stored <= 0:
            raise ValueError("stored entry is empty")
        return raw_bytes / stored
