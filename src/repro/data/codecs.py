"""Shard codecs: pluggable on-disk formats behind :class:`ShardDirSource`.

A shard directory written by :func:`repro.data.loaders.save_dataset` holds
one shard per snapshot plus a ``manifest.json``.  How a shard is laid out
on disk is the codec's business; everything above it — the bounded LRU,
the member read-ahead, per-rank span sources, the remote staging tier — is
codec-agnostic.  The registry mirrors the Sampler/CubeSelector/
StreamSampler registries: codecs register by name,
``save_dataset(codec=...)`` selects one at write time and stamps it into
the manifest (``"codec"``), and readers auto-detect it from there
(manifests without the key are ``npz``, the historical format).

Three codecs ship:

* ``npz`` — one compressed ``snapshot_XXXXX.npz`` per snapshot (the
  original format, byte-identical to the pre-registry files); members are
  individually compressed, so lazy decode of one variable skips the
  others' *decompression* but still opens the one zip file.
* ``raw`` — one ``snapshot_XXXXX.raw/`` directory per snapshot with an
  uncompressed ``.npy`` per variable: arrays are memory-mapped on decode
  (zero-copy — no decompression at all), and lazy decode of one variable
  never opens the others' files.
* ``chunked`` — one ``snapshot_XXXXX.chunked/`` directory per snapshot
  with each variable split into several ``.npy`` chunk files: lazy decode
  of one variable reads only that variable's chunks, so untouched
  variables skip the I/O itself, not just the decompression.

Every codec round-trips arrays bit-exactly (``.npy`` is a lossless
container), which the codec-golden tests pin per (seed, nranks).
"""

from __future__ import annotations

import abc
import json
import os
import shutil
import zipfile
from typing import ClassVar

import numpy as np

from repro.data.store import (
    LazyField,
    LazyMembers,
    load_field,
    load_field_lazy,
    read_npy,
    read_npz_member,
    save_field,
)
from repro.sim.fields import FlowField

__all__ = [
    "ShardCodec",
    "NpzCodec",
    "RawCodec",
    "ChunkedCodec",
    "CODECS",
    "register_codec",
    "get_codec",
    "codec_names",
]

#: per-shard metadata file inside directory-shaped shards (raw/chunked)
_SHARD_META = "field.json"


def _link_or_copy(src: str, dst: str) -> None:
    """Hardlink `src` to `dst`, copying when the filesystem refuses links
    (a staging directory on another device)."""
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)


class ShardCodec(abc.ABC):
    """One on-disk layout for one snapshot shard.

    Implementations are stateless (the registry holds a single shared
    instance) and addressed by ``(directory, index)``: every method
    operates on shard ``index`` of a ``save_dataset`` directory.  The
    contract the stack above relies on:

    * :meth:`encode` / :meth:`decode` round-trip a
      :class:`~repro.sim.fields.FlowField` bit-exactly;
    * :meth:`decode_lazy` returns a field whose ``variables`` is a real
      lazy Mapping (``materialize()`` / ``decoded_members()`` supported,
      ``nbytes()`` from metadata alone);
    * :meth:`shard_time` reads the snapshot time without decoding arrays;
    * :meth:`shard_name` names the shard's single file or directory, so
      staging tiers can fetch and evict it as a unit.
    """

    #: registry key, stamped into manifests as ``"codec"``
    name: ClassVar[str]

    #: whether decoding one member does real work (inflate, file reads)
    #: that a read-ahead thread can overlap with the consumer's compute;
    #: ``False`` where a member decode is only a memory map
    decode_does_work: ClassVar[bool] = True

    # ---- layout ------------------------------------------------------------

    @abc.abstractmethod
    def shard_name(self, index: int) -> str:
        """Basename (file or directory) holding shard `index`."""

    def shard_path(self, directory: str, index: int) -> str:
        return os.path.join(directory, self.shard_name(index))

    def shard_files(self, directory: str, index: int) -> list[str]:
        """Paths of every regular file composing shard `index` (for size
        accounting and integrity checks)."""
        path = self.shard_path(directory, index)
        if os.path.isfile(path):
            return [path]
        files = []
        for root, _, names in os.walk(path):
            files.extend(os.path.join(root, f) for f in sorted(names))
        return files

    def shard_disk_bytes(self, directory: str, index: int) -> int:
        """On-disk footprint of shard `index` (what a tier fetch moves)."""
        return sum(os.path.getsize(f) for f in self.shard_files(directory, index))

    def link_shard(self, src_dir: str, dst_dir: str, index: int) -> None:
        """Materialize shard `index` of `src_dir` in `dst_dir` via hardlinks
        (copies across filesystems) — the staging step of remote tiers."""
        src = self.shard_path(src_dir, index)
        dst = self.shard_path(dst_dir, index)
        if os.path.isfile(src):
            _link_or_copy(src, dst)
            return
        for root, _, names in os.walk(src):
            rel = os.path.relpath(root, src)
            target = dst if rel == "." else os.path.join(dst, rel)
            os.makedirs(target, exist_ok=True)
            for f in names:
                _link_or_copy(os.path.join(root, f), os.path.join(target, f))

    def remove_shard(self, directory: str, index: int) -> None:
        """Delete shard `index`'s file or directory (staging-tier evict)."""
        path = self.shard_path(directory, index)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        elif os.path.exists(path):
            os.remove(path)

    # ---- payload -----------------------------------------------------------

    @abc.abstractmethod
    def encode(self, directory: str, index: int, field: FlowField) -> None:
        """Write `field` as shard `index` under `directory`."""

    @abc.abstractmethod
    def decode(self, directory: str, index: int) -> FlowField:
        """Read shard `index` eagerly (every variable resident)."""

    @abc.abstractmethod
    def decode_lazy(self, directory: str, index: int) -> LazyField:
        """Open shard `index` without reading arrays: geometry and time
        come from metadata, members decode on first access."""

    @abc.abstractmethod
    def shard_time(self, directory: str, index: int) -> float:
        """Snapshot time of shard `index`, without decoding arrays."""


#: name → shared codec instance (the registry readers auto-detect against)
CODECS: dict[str, ShardCodec] = {}


def register_codec(cls: type[ShardCodec]) -> type[ShardCodec]:
    """Class decorator: register a codec under its ``name``."""
    name = getattr(cls, "name", None)
    if not name:
        raise ValueError(f"{cls.__name__} needs a non-empty 'name' attribute")
    CODECS[name] = cls()
    return cls


def get_codec(name: str | ShardCodec) -> ShardCodec:
    """Resolve a codec by registry name (a codec instance passes through)."""
    if isinstance(name, ShardCodec):
        return name
    try:
        return CODECS[name]
    except KeyError:
        raise KeyError(
            f"unknown shard codec {name!r}; registered: {sorted(CODECS)}"
        ) from None


def codec_names() -> list[str]:
    return sorted(CODECS)


# ---------------------------------------------------------------------------
# npz — the historical format, byte-identical
# ---------------------------------------------------------------------------


@register_codec
class NpzCodec(ShardCodec):
    """One compressed npz per snapshot (``save_field``'s format, unchanged:
    directories written before the registry existed read back through this
    codec byte-for-byte)."""

    name = "npz"

    def shard_name(self, index: int) -> str:
        return f"snapshot_{index:05d}.npz"

    def encode(self, directory: str, index: int, field: FlowField) -> None:
        save_field(self.shard_path(directory, index), field)

    def decode(self, directory: str, index: int) -> FlowField:
        return load_field(self.shard_path(directory, index))

    def decode_lazy(self, directory: str, index: int) -> LazyField:
        return load_field_lazy(self.shard_path(directory, index))

    def shard_time(self, directory: str, index: int) -> float:
        # Members are compressed separately, so reading just the scalar
        # "time" entry never decodes the field arrays.
        with zipfile.ZipFile(self.shard_path(directory, index)) as zf:
            return float(read_npz_member(zf, "time"))


# ---------------------------------------------------------------------------
# raw — memory-mapped .npy per variable
# ---------------------------------------------------------------------------


def _write_shard_meta(path: str, field: FlowField, extra: dict | None = None) -> None:
    arr = next(iter(field.variables.values()))
    meta = {
        "time": field.time,
        "meta": field.meta,
        "variables": list(field.variables),
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        **(extra or {}),
    }
    with open(os.path.join(path, _SHARD_META), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def _read_shard_meta(path: str) -> dict:
    with open(os.path.join(path, _SHARD_META), encoding="utf-8") as fh:
        return json.load(fh)


@register_codec
class RawCodec(ShardCodec):
    """Uncompressed ``.npy`` per variable, decoded by memory mapping.

    ``decode`` returns fields whose arrays are ``np.memmap`` views — the
    kernel pages bytes in on touch, so "decode" copies nothing and evicting
    the shard from the LRU drops only page-cache references.  Lazy decode
    of one variable never opens the other variables' files.
    """

    name = "raw"
    decode_does_work = False

    def shard_name(self, index: int) -> str:
        return f"snapshot_{index:05d}.raw"

    def encode(self, directory: str, index: int, field: FlowField) -> None:
        path = self.shard_path(directory, index)
        os.makedirs(path, exist_ok=True)
        for name, arr in field.variables.items():
            np.save(os.path.join(path, f"{name}.npy"), np.asarray(arr))
        _write_shard_meta(path, field)

    def _load_var(self, path: str, name: str) -> np.ndarray:
        return np.load(os.path.join(path, f"{name}.npy"), mmap_mode="r")

    def decode(self, directory: str, index: int) -> FlowField:
        path = self.shard_path(directory, index)
        meta = _read_shard_meta(path)
        variables = {n: self._load_var(path, n) for n in meta["variables"]}
        return FlowField(variables=variables, time=meta["time"], meta=meta["meta"])

    def decode_lazy(self, directory: str, index: int) -> LazyField:
        path = self.shard_path(directory, index)
        meta = _read_shard_meta(path)
        members = LazyMembers(meta["variables"], lambda n: self._load_var(path, n))
        return LazyField(
            members, tuple(meta["shape"]), np.dtype(meta["dtype"]).itemsize,
            meta["time"], meta["meta"],
        )

    def shard_time(self, directory: str, index: int) -> float:
        return float(_read_shard_meta(self.shard_path(directory, index))["time"])


# ---------------------------------------------------------------------------
# chunked — per-variable chunk files
# ---------------------------------------------------------------------------


@register_codec
class ChunkedCodec(ShardCodec):
    """Each variable split into ``n_chunks`` flat ``.npy`` chunk files.

    The zarr-style trade: lazy decode of one variable reads exactly that
    variable's chunk files — untouched variables skip the I/O itself, not
    just the decompression — and a partial reader could stop after any
    chunk boundary.  Chunk count is fixed at encode time and recorded in
    the shard metadata.
    """

    name = "chunked"

    #: chunks per variable (small shards store fewer: at most one row each)
    n_chunks = 4

    def shard_name(self, index: int) -> str:
        return f"snapshot_{index:05d}.chunked"

    def encode(self, directory: str, index: int, field: FlowField) -> None:
        path = self.shard_path(directory, index)
        os.makedirs(path, exist_ok=True)
        n_chunks = None
        for name, arr in field.variables.items():
            flat = np.asarray(arr).reshape(-1)
            chunks = np.array_split(flat, min(self.n_chunks, max(1, flat.size)))
            n_chunks = len(chunks)
            for c, chunk in enumerate(chunks):
                np.save(os.path.join(path, f"{name}.c{c:04d}.npy"), chunk)
        _write_shard_meta(path, field, extra={"n_chunks": n_chunks})

    def _load_var(self, path: str, name: str, meta: dict) -> np.ndarray:
        parts = []
        for c in range(meta["n_chunks"]):
            with open(os.path.join(path, f"{name}.c{c:04d}.npy"), "rb") as fh:
                parts.append(read_npy(fh))
        return np.concatenate(parts).reshape(meta["shape"])

    def decode(self, directory: str, index: int) -> FlowField:
        path = self.shard_path(directory, index)
        meta = _read_shard_meta(path)
        variables = {n: self._load_var(path, n, meta) for n in meta["variables"]}
        return FlowField(variables=variables, time=meta["time"], meta=meta["meta"])

    def decode_lazy(self, directory: str, index: int) -> LazyField:
        path = self.shard_path(directory, index)
        meta = _read_shard_meta(path)
        members = LazyMembers(
            meta["variables"], lambda n: self._load_var(path, n, meta)
        )
        return LazyField(
            members, tuple(meta["shape"]), np.dtype(meta["dtype"]).itemsize,
            meta["time"], meta["meta"],
        )

    def shard_time(self, directory: str, index: int) -> float:
        return float(_read_shard_meta(self.shard_path(directory, index))["time"])
