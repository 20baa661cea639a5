"""Job specs — the service's JSON submission format.

A job spec is a flat JSON object naming the stage to run (``kind``:
``subsample`` / ``train`` / ``tune``), the case config snapshot, and the
same knobs the CLI exposes.  Parsing is strict (unknown fields are
rejected, not dropped — a typo'd knob must not silently become a
different, cacheable job), validation reuses the registry-backed
:class:`~repro.utils.config.CaseConfig` checks plus the CLI's
invalid-combination rejections, and :meth:`JobSpec.content_key` is the
dedupe identity used by the artifact store.

Example::

    {"kind": "subsample", "case": {...}, "seed": 7, "ranks": 2,
     "mode": "stream", "source": "sim", "backend": "process"}
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.serve.keys import content_key, source_fingerprint

__all__ = ["JobSpec", "JobSpecError", "KEY_SCHEMA"]

#: bump when the key document layout changes, so stores never serve
#: entries computed under a different identity scheme.
KEY_SCHEMA = 2


class JobSpecError(ValueError):
    """A submitted job spec is malformed or names an invalid combination."""


@dataclass
class JobSpec:
    """One validated job submission (see module docstring for the grammar)."""

    kind: str
    case: dict
    seed: int = 0
    ranks: int = 1
    mode: str = "batch"
    backend: str = "thread"
    source: str | None = None
    scale: float = 1.0
    epochs: int | None = None
    max_cached_shards: int | None = None
    prefetch: int | None = None  # None: the source default
    on_rank_failure: str | None = None
    stream_shuffle: int = 0
    inject_rank_failure: int | None = None
    tune_trials: int | None = None
    tune_strategy: str = "bayes"
    retries: int = 0
    checkpoint_every: int = 1

    @classmethod
    def from_json(cls, doc: object) -> JobSpec:
        """Parse a submission document; unknown fields are an error."""
        if not isinstance(doc, dict):
            raise JobSpecError(
                f"job spec must be a JSON object, got {type(doc).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise JobSpecError(
                f"unknown job spec field(s) {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        if "kind" not in doc:
            raise JobSpecError("job spec needs 'kind' (subsample|train|tune)")
        if "case" not in doc:
            raise JobSpecError("job spec needs 'case' (a case config object)")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise JobSpecError(f"bad job spec: {exc}") from None

    # ---- validation -------------------------------------------------------

    def validate(self):
        """Full registry + combination validation; returns the CaseConfig.

        Mirrors the CLI's invalid-combo rejections (`repro.cli`): every
        combination rejected here would otherwise be silently ignored by
        the pipeline, making a typo'd submission look like a distinct,
        successfully-cached job.
        """
        from repro.parallel import SPMD_BACKENDS
        from repro.utils.config import CaseConfig

        if self.kind not in ("subsample", "train", "tune"):
            raise JobSpecError(
                f"kind must be subsample|train|tune, got {self.kind!r}"
            )
        if not isinstance(self.case, dict):
            raise JobSpecError("'case' must be a case config object")
        try:
            case = CaseConfig.from_dict(self.case)
        except (ValueError, TypeError, KeyError) as exc:
            raise JobSpecError(f"invalid case config: {exc}") from None
        if self.mode not in ("batch", "stream"):
            raise JobSpecError(f"mode must be batch|stream, got {self.mode!r}")
        if self.backend not in SPMD_BACKENDS:
            raise JobSpecError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{sorted(SPMD_BACKENDS)}"
            )
        if self.ranks < 1:
            raise JobSpecError("ranks must be >= 1")
        if self.seed != int(self.seed):
            raise JobSpecError("seed must be an integer")
        if self.scale <= 0:
            raise JobSpecError("scale must be > 0")
        if self.epochs is not None and self.epochs < 1:
            raise JobSpecError("epochs must be >= 1")
        if self.retries < 0:
            raise JobSpecError("retries must be >= 0")
        if self.checkpoint_every < 1:
            raise JobSpecError("checkpoint_every must be >= 1")
        if self.stream_shuffle < 0:
            raise JobSpecError("stream_shuffle must be >= 0")

        sharded = bool(self.source) and self.source != "sim"
        if self.prefetch is not None and self.prefetch < 0:
            raise JobSpecError("prefetch must be >= 0")
        if self.prefetch is not None and not sharded:
            raise JobSpecError(
                "prefetch applies only to shard-directory sources; the "
                "catalog/sim source has no shards to decode ahead"
            )
        if self.on_rank_failure is not None:
            if self.on_rank_failure not in ("reweight", "raise"):
                raise JobSpecError(
                    "on_rank_failure must be 'reweight' or 'raise'"
                )
            if self.mode != "stream":
                raise JobSpecError(
                    "on_rank_failure requires mode='stream' (batch mode has "
                    "no partial-stream merge)"
                )
            if self.ranks < 2:
                raise JobSpecError(
                    "on_rank_failure requires ranks >= 2 (a single producer "
                    "has no rank to lose)"
                )
        if self.inject_rank_failure is not None:
            if self.mode != "stream" or self.ranks < 2:
                raise JobSpecError(
                    "inject_rank_failure requires mode='stream' and ranks >= 2"
                )
            if not 0 <= self.inject_rank_failure < self.ranks:
                raise JobSpecError(
                    f"inject_rank_failure rank {self.inject_rank_failure} out "
                    f"of range for ranks {self.ranks}"
                )
        if self.kind == "tune":
            if self.tune_trials is None or self.tune_trials < 1:
                raise JobSpecError("tune needs tune_trials >= 1")
            if self.mode == "stream":
                raise JobSpecError(
                    "tune searches over resident training arrays; it cannot "
                    "combine with mode='stream' (drop one)"
                )
            if self.ranks > 1:
                raise JobSpecError(
                    "tune trials run serially; ranks > 1 would be silently "
                    "ignored (drop it)"
                )
        elif self.tune_trials is not None:
            raise JobSpecError(
                f"tune_trials applies only to kind='tune' (got "
                f"kind={self.kind!r})"
            )
        if self.kind != "train" and self.checkpoint_every != 1:
            raise JobSpecError(
                "checkpoint_every applies only to kind='train'"
            )
        return case

    # ---- identity ---------------------------------------------------------

    def key_doc(self) -> dict:
        """The canonical identity document hashed by :meth:`content_key`.

        Includes everything that perturbs artifact bytes; excludes the
        SPMD backend (byte-identical across backends per the PR 6
        conformance grid) and execution policy (retries, checkpoint
        cadence).  The case snapshot is round-tripped through CaseConfig
        so defaulted fields and dict ordering hash alike.
        """
        from repro.utils.config import CaseConfig

        case = CaseConfig.from_dict(self.case)
        doc = {
            "schema": KEY_SCHEMA,
            "kind": self.kind,
            "case": case.to_dict(),
            "seed": int(self.seed),
            "ranks": int(self.ranks),
            "scale": float(self.scale),
            "mode": self.mode,
            "source": source_fingerprint(
                self.source, dtype=case.shared.dtype, scale=self.scale,
                seed=self.seed, max_cached=self.max_cached_shards,
                prefetch=self.prefetch,
            ),
            "on_rank_failure": self.on_rank_failure or "raise",
            "stream_shuffle": int(self.stream_shuffle),
            "inject_rank_failure": self.inject_rank_failure,
        }
        if self.kind in ("train", "tune"):
            doc["epochs"] = self.epochs
        if self.kind == "tune":
            doc["tune_trials"] = int(self.tune_trials)
            doc["tune_strategy"] = self.tune_strategy
        return doc

    def content_key(self) -> str:
        """sha256 identity of this job (see :meth:`key_doc`)."""
        return content_key(self.key_doc())

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
