"""One run spec: the parameters of a SICKLE stage run, checked once.

The paper runs every stage as ``srun -n N python subsample.py case.yaml``:
a case file plus a few run parameters.  :class:`RunSpec` holds exactly
those parameters, and every front end is a projection of it:

- the CLIs (``repro-subsample``, ``repro-train``, ``repro-submit``)
  declare their flags from :data:`FLAGS` and build a spec with
  :meth:`RunSpec.from_args`;
- the service parses a posted JSON document with :meth:`RunSpec.from_json`
  and keys its artifact cache by :meth:`RunSpec.content_key`;
- :meth:`RunSpec.experiment` configures the :class:`~repro.api.Experiment`
  that runs it, and the ``Experiment.with_*`` setters check their values
  with the same per-field rules (:func:`check_field`).

Every field is type-checked from its annotation when a spec is built, and
:meth:`RunSpec.validate` holds every field bound and every cross-field
rule.  A broken rule raises :class:`SpecError`, which names the field and
spells it the way the front end does: ``--prefetch`` in the CLIs,
``prefetch`` in the service's 400 body.

Example job document::

    {"kind": "subsample", "case": {...}, "seed": 7, "ranks": 2,
     "mode": "stream", "source": "sim", "backend": "process"}
"""

from __future__ import annotations

import dataclasses
import sys
import typing
from collections.abc import Callable
from dataclasses import dataclass

from repro.data.sources import DEFAULT_MAX_CACHED
from repro.parallel import SPMD_BACKENDS
from repro.utils.config import CaseConfig
from repro.utils.miniyaml import load_file

if typing.TYPE_CHECKING:
    from repro.api import Experiment

__all__ = ["FLAGS", "KEY_SCHEMA", "RunSpec", "SpecError", "check_field"]

#: bump when the key document layout changes, so stores never serve
#: entries computed under a different identity scheme.
KEY_SCHEMA = 2

KINDS = ("subsample", "train", "tune")
MODES = ("batch", "stream")
RANK_FAILURE_POLICIES = ("reweight", "raise")
TUNE_STRATEGIES = ("random", "bayes")


def _esc(text: str) -> str:
    """``text`` made safe to embed in a message template."""
    return text.replace("{", "{{").replace("}", "}}")


def _lit(value) -> str:
    return _esc(repr(value))


def json_spelling(token: str) -> str:
    """A field as the JSON document spells it (``mode=stream`` -> ``mode='stream'``)."""
    name, _, value = token.partition("=")
    return f"{name}={value!r}" if value else name


class _Spelled(dict):
    def __init__(self, spell: Callable[[str], str]) -> None:
        super().__init__()
        self.spell = spell

    def __missing__(self, token: str) -> str:
        return self.spell(token)


class SpecError(ValueError):
    """A run spec is malformed or names an invalid combination.

    ``field`` is the offending :class:`RunSpec` field (None for the
    document as a whole).  The message template spells a field as
    ``{name}`` and a field set to a value as ``{name=value}``, so each
    front end renders it in its own terms (:meth:`render`); ``str()``
    uses the JSON field names.
    """

    def __init__(self, field: str | None, template: str) -> None:
        self.field = field
        self.template = template
        super().__init__(self.render(json_spelling))

    def render(self, spell: Callable[[str], str]) -> str:
        return self.template.format_map(_Spelled(spell))


#: per-field bounds: (holds, message); a None value always passes
_FIELD_RULES: dict[str, tuple[Callable[[typing.Any], bool], str]] = {
    "kind": (KINDS.__contains__, "{kind} must be subsample|train|tune"),
    "mode": (MODES.__contains__, "{mode} must be batch|stream"),
    "backend": (SPMD_BACKENDS.__contains__,
                f"{{backend}} must be one of {list(SPMD_BACKENDS)}"),
    "ranks": (lambda v: v >= 1, "{ranks} must be >= 1"),
    "scale": (lambda v: v > 0, "{scale} must be > 0"),
    "epochs": (lambda v: v >= 1, "{epochs} must be >= 1"),
    "max_cached_shards": (lambda v: v >= 1, "{max_cached_shards} must be >= 1"),
    "prefetch": (lambda v: v >= 0, "{prefetch} must be >= 0"),
    "on_rank_failure": (RANK_FAILURE_POLICIES.__contains__,
                        "{on_rank_failure} must be 'reweight' or 'raise'"),
    "stream_shuffle": (lambda v: v >= 0, "{stream_shuffle} must be >= 0"),
    "tune_trials": (lambda v: v >= 1, "{tune_trials} needs at least 1 trial"),
    "tune_strategy": (TUNE_STRATEGIES.__contains__,
                      "{tune_strategy} must be random|bayes"),
    "retries": (lambda v: v >= 0, "{retries} must be >= 0"),
    "checkpoint_every": (lambda v: v >= 1,
                         "{checkpoint_every} needs a positive epoch count"),
}


def check_field(name: str, value) -> None:
    """Raise :class:`SpecError` unless ``value`` is within field ``name``'s bounds."""
    holds, message = _FIELD_RULES[name]
    if value is not None and not holds(value):
        raise SpecError(name, f"{message}, got {_lit(value)}")


@dataclass(frozen=True)
class RunSpec:
    """One run of a SICKLE stage (see the module docstring for the grammar)."""

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

    def __post_init__(self) -> None:
        for name, types in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and type(None) in types:
                continue
            if float in types and isinstance(value, int) and not isinstance(value, bool):
                object.__setattr__(self, name, float(value))
            elif isinstance(value, bool) or not isinstance(value, types):
                want = " or ".join(_TYPE_NAMES[t] for t in types)
                raise SpecError(name, f"{{{name}}} must be {want}, got {_lit(value)}")

    # ---- the JSON projection ---------------------------------------------

    @classmethod
    def from_json(cls, doc: object) -> RunSpec:
        """Parse a job document; unknown fields are an error, not dropped
        (a typo'd knob must not silently become a different, cacheable job)."""
        if not isinstance(doc, dict):
            raise SpecError(None, f"job spec must be a JSON object, got "
                                  f"{type(doc).__name__}")
        known = sorted(_FIELD_TYPES)
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise SpecError(None, f"unknown job spec field(s) {_lit(unknown)}; "
                                  f"expected a subset of {known}")
        if "kind" not in doc:
            raise SpecError("kind", "job spec needs {kind} (subsample|train|tune)")
        if "case" not in doc:
            raise SpecError("case", "job spec needs {case} (a case config object)")
        return cls(**doc)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    # ---- the one rule set --------------------------------------------------

    def validate(self) -> CaseConfig:
        """Check every field bound and cross-field rule; returns the case.

        Pure (no I/O).  Every combination rejected here would otherwise
        be silently ignored by the pipeline, making a typo'd run look
        like a distinct, successful one.
        """
        for name in _FIELD_RULES:
            check_field(name, getattr(self, name))
        try:
            case = CaseConfig.from_dict(self.case)
        except (ValueError, TypeError, KeyError) as exc:
            raise SpecError("case", f"invalid case config: {_esc(str(exc))}") from None

        sharded = bool(self.source) and self.source != "sim"
        if self.prefetch is not None and not sharded:
            where = "in-situ simulation" if self.source == "sim" else "in-memory catalog"
            raise SpecError(
                "prefetch",
                "{prefetch} applies only to shard-directory sources; the "
                f"{where} source has no shards to decode ahead (drop "
                "{prefetch} or add {source} <shard-dir>)",
            )
        if self.on_rank_failure is not None:
            if self.mode != "stream":
                raise SpecError("on_rank_failure",
                                "{on_rank_failure} requires {mode=stream} (batch "
                                "mode has no partial-stream merge)")
            if self.ranks < 2:
                raise SpecError("on_rank_failure",
                                "{on_rank_failure} requires {ranks} >= 2 (a single "
                                "producer has no rank to lose)")
        if self.inject_rank_failure is not None:
            if self.mode != "stream" or self.ranks < 2:
                raise SpecError("inject_rank_failure",
                                "{inject_rank_failure} requires {mode=stream} and "
                                "{ranks} >= 2")
            if not 0 <= self.inject_rank_failure < self.ranks:
                raise SpecError(
                    "inject_rank_failure",
                    f"{{inject_rank_failure}} rank {self.inject_rank_failure} out "
                    f"of range for {{ranks}} {self.ranks}",
                )
        if self.kind == "tune":
            if self.tune_trials is None:
                raise SpecError("tune_trials", "{kind=tune} needs {tune_trials} >= 1")
            if self.mode == "stream":
                raise SpecError("mode",
                                "{kind=tune} searches over resident training arrays; "
                                "it cannot combine with {mode=stream} (drop one)")
            if self.ranks > 1:
                raise SpecError("ranks",
                                "{kind=tune} trials run serially; {ranks} > 1 would "
                                "be silently ignored (drop it)")
            if self.backend == "process":
                raise SpecError("backend",
                                "{kind=tune} trials run serially; {backend=process} "
                                "would be silently ignored (drop it)")
        elif self.tune_trials is not None:
            raise SpecError("tune_trials",
                            "{tune_trials} applies only to {kind=tune} jobs (got "
                            f"kind={self.kind!r})")
        if self.kind != "train" and self.checkpoint_every != 1:
            raise SpecError("checkpoint_every",
                            "{checkpoint_every} applies only to {kind=train} jobs")
        return case

    def warnings(self) -> list[SpecError]:
        """Legal settings that have no effect here (the CLIs print them)."""
        notes = []
        if self.max_cached_shards is not None and not self.source:
            notes.append(SpecError(
                "max_cached_shards",
                "{max_cached_shards} has no effect on the in-memory catalog "
                "source (everything is resident); add {source} <shard-dir> or "
                "{source} sim",
            ))
        if self.backend == "process" and self.ranks < 2:
            notes.append(SpecError(
                "backend",
                "{backend=process} has no effect with {ranks} 1 (single-rank "
                "runs execute inline on a serial communicator)",
            ))
        return notes

    # ---- identity ------------------------------------------------------------

    def key_doc(self) -> dict:
        """The canonical identity document hashed by :meth:`content_key`.

        Includes everything that perturbs artifact bytes; excludes the
        SPMD backend (byte-identical across backends per the conformance
        grid) and execution policy (retries, checkpoint cadence).  The
        case snapshot is round-tripped through CaseConfig so defaulted
        fields and dict ordering hash alike.
        """
        from repro.serve.keys import source_fingerprint

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
        """sha256 identity of this run (see :meth:`key_doc`)."""
        from repro.serve.keys import content_key

        return content_key(self.key_doc())

    # ---- the Experiment projection ---------------------------------------

    def experiment(self) -> Experiment:
        """The :class:`~repro.api.Experiment` that runs this spec.

        Validates first, opens the source (``sim`` is the in-situ
        simulation; anything else goes through
        :func:`~repro.data.open_source`) and arms the rank-failure policy.
        Use it as a context manager: leaving the block closes the source.
        """
        from repro.api import Experiment

        case = self.validate()
        exp = (
            Experiment.from_case(case)
            .with_seed(self.seed)
            .with_scale(self.scale)
            .with_backend(self.backend)
            .with_stream_shuffle(self.stream_shuffle)
            .with_epochs(self.epochs)
            .with_rank_failure(self.on_rank_failure or "raise", self._fault_hook())
        )
        # Batch subsample output depends on the rank count, so batch-mode
        # training keeps the single-rank subsample; stream-mode training
        # streams from the same ranks it trains on (one producer per rank).
        if self.kind == "subsample" or self.mode == "stream":
            exp.with_ranks(self.ranks)
        if self.kind != "subsample":
            exp.with_train_ranks(self.ranks)
        if self.source is not None:
            exp.with_source(self._open_source(case))
        return exp

    def _open_source(self, case: CaseConfig):
        from repro.data import open_source, stream_dataset

        max_cached = (DEFAULT_MAX_CACHED if self.max_cached_shards is None
                      else self.max_cached_shards)
        if self.source == "sim":
            return stream_dataset(case.shared.dtype, scale=self.scale,
                                  seed=self.seed, max_cached=max_cached)
        return open_source(self.source, max_cached=max_cached,
                           prefetch=self.prefetch)

    def _fault_hook(self):
        """Testing: ``inject_rank_failure`` kills that stream producer
        after its first chunk."""
        if self.inject_rank_failure is None:
            return None
        victim = self.inject_rank_failure

        def kill_victim(rank, snapshots_done=0, rows_fed=0):
            return rank == victim and rows_fed > 0

        return kill_victim

    # ---- the CLI projection ----------------------------------------------

    @staticmethod
    def add_flags(parser, *names: str, **helps: str) -> None:
        """Declare the flags for fields ``names`` on ``parser`` (types and
        defaults come from the fields; ``helps`` overrides a field's text)."""
        for name in names:
            flag, kwargs = FLAGS[name]
            kwargs = {"dest": name, "default": _FIELD_DEFAULTS[name], **kwargs}
            if "action" not in kwargs:
                kwargs["type"] = _FIELD_TYPES[name][0]
            if name in helps:
                kwargs["help"] = helps[name]
            parser.add_argument(flag, **kwargs)

    @classmethod
    def from_args(cls, parser, args, kind: str) -> RunSpec:
        """The validated spec a CLI's parsed flags name.

        An unreadable case file and every :class:`SpecError` become
        ``parser.error`` (exit 2); :meth:`warnings` go to stderr.
        """
        try:
            case = load_file(args.case)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read case file {args.case!r}: {exc}")
        fields = {name: getattr(args, name) for name in FLAGS if hasattr(args, name)}
        try:
            spec = cls(kind=kind, case=case, **fields)
            spec.validate()
        except SpecError as exc:
            parser.error(exc.render(flag_spelling))
        for note in spec.warnings():
            print(f"warning: {note.render(flag_spelling)}", file=sys.stderr)
        return spec


_FIELD_TYPES = {
    name: typing.get_args(hint) or (hint,)
    for name, hint in typing.get_type_hints(RunSpec).items()
}
_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunSpec)}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               dict: "an object", type(None): "null"}

_SOURCE_HELP = (
    "ingestion source: 'sim' (in-situ generation from the case dtype), a "
    "path to a shard directory written by save_dataset() (any codec, "
    "auto-detected), or an open_source() spec such as 'raw+dir://DIR' or "
    "'remote://DIR?latency_s=0.01'; default generates the catalog dataset "
    "in memory"
)

#: RunSpec field -> (flag, argparse keywords): the one flag declaration
#: that repro-subsample, repro-train and repro-submit share.
FLAGS: dict[str, tuple[str, dict]] = {
    "ranks": ("--ranks", {"help": "simulated SPMD ranks"}),
    "seed": ("--seed", {}),
    "scale": ("--scale", {"help": "dataset resolution scale"}),
    "epochs": ("--epochs", {"help": "override case epochs"}),
    "source": ("--source", {"help": _SOURCE_HELP}),
    "mode": ("--stream", {
        "action": "store_const", "const": "stream",
        "help": "stream mode (single-pass samplers / stream-first training)",
    }),
    "backend": ("--backend", {
        "choices": SPMD_BACKENDS,
        "help": "SPMD substrate for multi-rank runs: 'thread' (deterministic "
                "virtual-time modeling, default) or 'process' (forked workers "
                "with shared-memory transport — real wall-clock parallelism, "
                "byte-identical results)",
    }),
    "max_cached_shards": ("--max-cached-shards", {
        "help": "decoded snapshots resident at once for out-of-core/in-situ "
                f"sources (default {DEFAULT_MAX_CACHED})",
    }),
    "prefetch": ("--prefetch", {
        "help": "shards to read ahead of the consumer; a background thread "
                "decodes their members while the stage computes "
                "(shard-directory sources only; default 1, 0 turns read-ahead "
                "off)",
    }),
    "on_rank_failure": ("--on-rank-failure", {
        "choices": RANK_FAILURE_POLICIES,
        "help": "stream-mode policy when a producer rank dies mid-span: "
                "'reweight' merges the partial streams by delivered mass, "
                "'raise' (default) fails the draw",
    }),
    "inject_rank_failure": ("--inject-rank-failure", {
        "metavar": "RANK",
        "help": "testing: kill stream producer RANK after its first chunk "
                "(exercises --on-rank-failure)",
    }),
    "stream_shuffle": ("--stream-shuffle", {
        "help": "shuffle-buffer capacity for stream-mode training feeds",
    }),
    "tune_trials": ("--tune", {
        "metavar": "N",
        "help": "instead of one fit, run N hyperparameter-search trials "
                "(lr/batch, TPE-style) and report the best configuration",
    }),
    "retries": ("--retries", {
        "help": "re-run the job this many times if an SPMD worker dies "
                "(deterministic errors never retry)",
    }),
    "checkpoint_every": ("--checkpoint-every", {
        "metavar": "N", "help": "epochs between checkpoint writes (default 1)",
    }),
}

_FLAG_TOKENS = {"kind=train": "--train", "kind=tune": "--tune", "mode=stream": "--stream"}


def flag_spelling(token: str) -> str:
    """A field as the CLIs spell it (``prefetch`` -> ``--prefetch``,
    ``backend=process`` -> ``--backend process``)."""
    if token in _FLAG_TOKENS:
        return _FLAG_TOKENS[token]
    name, _, value = token.partition("=")
    flag = FLAGS[name][0] if name in FLAGS else name
    return f"{flag} {value}" if value else flag
