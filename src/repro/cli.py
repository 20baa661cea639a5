"""Command-line entry points mirroring the paper's workflow scripts.

The paper drives everything as::

    srun -n 32 python subsample.py case.yaml
    srun -n 8  python train.py case.yaml

Here the same case files drive :func:`subsample_main` and :func:`train_main`
(``python -m repro.cli subsample case.yaml --ranks 32``); ranks are simulated
threads.  Both commands are thin shells over the
:class:`repro.api.Experiment` facade — the same fluent chain available from
Python (``Experiment.from_case(path).with_ranks(32).subsample().train()``)
— so anything registered with ``register_sampler`` / ``register_selector``
is reachable from YAML.  ``--source`` picks the ingestion mode (catalog
in-memory, out-of-core shard directory, or ``sim`` for in-situ generation)
and ``--stream`` switches the subsample to the single-pass streaming
samplers — and, for ``train``, switches training to the stream-first path
(windows assembled incrementally off the merged stream, no resident
dataset).  ``repro-train`` also takes ``--checkpoint``/``--resume`` for
bit-deterministic interrupted fits and ``--tune N`` for the paper's
DeepHyper-style hyperparameter search.  Outputs keep the paper's greppable
log contract (``CPU Energy``, ``Total Energy Consumed``, ``Evaluation on
test set``).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.api import Experiment, build_model_for_case
from repro.data import SubsampleStore

__all__ = ["main", "subsample_main", "train_main", "build_model_for_case"]

#: sentinel for "--max-cached-shards not given" (the resolved default is 2)
_DEFAULT_MAX_CACHED = 2


def _resolve_source(args, case) -> object | None:
    """Build the SnapshotSource named by ``--source`` (None = case default).

    ``sim`` is the CLI-only spelling for the in-situ simulation source;
    everything else (a shard directory, ``codec+dir://`` spec, or
    ``remote://`` spec) goes through :func:`repro.data.open_source`.
    """
    if not args.source:
        return None
    max_cached = (
        _DEFAULT_MAX_CACHED if args.max_cached_shards is None
        else args.max_cached_shards
    )
    if args.source == "sim":
        from repro.data import stream_dataset

        return stream_dataset(
            case.shared.dtype, scale=args.scale, seed=args.seed,
            max_cached=max_cached,
        )
    from repro.data import open_source

    return open_source(
        args.source, max_cached=max_cached,
        prefetch=getattr(args, "prefetch", None),
    )


def _check_source_flags(parser: argparse.ArgumentParser, args) -> None:
    """Source-flag sanity shared by the subsample and train commands."""
    sharded = bool(args.source) and args.source != "sim"
    if args.prefetch is not None and not sharded:
        parser.error(
            "--prefetch applies only to shard-directory sources; the "
            f"{'in-situ simulation' if args.source == 'sim' else 'in-memory catalog'}"
            " source has no shards to decode ahead (drop --prefetch or add "
            "--source <shard-dir>)"
        )
    if args.max_cached_shards is not None and not args.source:
        print(
            "warning: --max-cached-shards has no effect on the in-memory "
            "catalog source (everything is resident); add --source "
            "<shard-dir> or --source sim",
            file=sys.stderr,
        )


def _validate_subsample_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject flag combinations that would otherwise be silently ignored.

    Every rejected combination here used to be dropped on the floor —
    ``--prefetch`` against an in-memory source, stream-only policies in
    batch mode — which made typos look like successful runs.
    """
    _check_source_flags(parser, args)
    if args.on_rank_failure is not None:
        if not args.stream:
            parser.error("--on-rank-failure requires --stream (batch mode "
                         "has no partial-stream merge)")
        if args.ranks < 2:
            parser.error("--on-rank-failure requires --ranks >= 2 (a single "
                         "producer has no rank to lose)")
    if args.inject_rank_failure is not None:
        if not args.stream or args.ranks < 2:
            parser.error("--inject-rank-failure requires --stream and "
                         "--ranks >= 2")
        if not 0 <= args.inject_rank_failure < args.ranks:
            parser.error(
                f"--inject-rank-failure rank {args.inject_rank_failure} out "
                f"of range for --ranks {args.ranks}"
            )
    _warn_backend_single_rank(args)


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="SPMD substrate for multi-rank runs: 'thread' (deterministic "
             "virtual-time modeling, default) or 'process' (forked workers "
             "with shared-memory transport — real wall-clock parallelism, "
             "byte-identical results)",
    )


def _warn_backend_single_rank(args) -> None:
    if args.backend == "process" and args.ranks < 2:
        print(
            "warning: --backend process has no effect with --ranks 1 "
            "(single-rank runs execute inline on a serial communicator)",
            file=sys.stderr,
        )


def subsample_main(argv: list[str] | None = None) -> int:
    """``subsample.py case.yaml`` equivalent."""
    parser = argparse.ArgumentParser(prog="repro-subsample", description=subsample_main.__doc__)
    parser.add_argument("case", help="YAML case file")
    parser.add_argument("--ranks", type=int, default=1, help="simulated MPI ranks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="dataset resolution scale")
    parser.add_argument("--output_dir", default=None, help="store the subsample here")
    parser.add_argument(
        "--source", default=None,
        help="ingestion source: 'sim' (in-situ generation from the case "
             "dtype), a path to a shard directory written by save_dataset() "
             "(any codec, auto-detected), or an open_source() spec such as "
             "'raw+dir://DIR' or 'remote://DIR?latency_s=0.01'; default "
             "generates the catalog dataset in memory",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="single-pass streaming subsample (reservoir / online MaxEnt) "
             "instead of the two-phase pipeline; with --ranks N each rank "
             "streams its own snapshot partition and the per-rank samples "
             "merge by weighted draw",
    )
    parser.add_argument(
        "--max-cached-shards", type=int, default=None,
        help="decoded snapshots resident at once for out-of-core/in-situ "
             f"sources (default {_DEFAULT_MAX_CACHED})",
    )
    parser.add_argument(
        "--prefetch", type=int, default=None,
        help="shards to read ahead of the consumer; a background thread "
             "decodes their members while sampling computes (shard-directory "
             "sources only; default 1, 0 turns read-ahead off)",
    )
    parser.add_argument(
        "--on-rank-failure", choices=("reweight", "raise"), default=None,
        help="stream-mode policy when a producer rank dies mid-span: "
             "'reweight' merges the partial streams by delivered mass, "
             "'raise' (default) fails the draw",
    )
    parser.add_argument(
        "--inject-rank-failure", type=int, default=None, metavar="RANK",
        help="testing: kill stream producer RANK after its first chunk "
             "(exercises --on-rank-failure)",
    )
    _add_backend_flag(parser)
    args = parser.parse_args(argv)
    _validate_subsample_args(parser, args)

    fault_hook = None
    if args.inject_rank_failure is not None:
        victim = args.inject_rank_failure

        def _kill_after_first_chunk(rank, snapshots_done=0, rows_fed=0):
            return rank == victim and rows_fed > 0

        fault_hook = _kill_after_first_chunk

    exp = (
        Experiment.from_case(args.case)
        .with_ranks(args.ranks)
        .with_seed(args.seed)
        .with_scale(args.scale)
        .with_backend(args.backend)
    )
    source = _resolve_source(args, exp.case)
    if source is not None:
        exp.with_source(source)
    try:
        exp.subsample(
            mode="stream" if args.stream else "batch",
            on_rank_failure=args.on_rank_failure or "raise",
            fault_hook=fault_hook,
        )
        result = exp.subsample_artifact.result
        print(exp.subsample_artifact.summary())
        failed = result.meta.get("failed_ranks") or []
        if failed:
            print(f"Merged partial streams: rank(s) {failed} died mid-span; "
                  "allocation reweighted by delivered mass")
        if args.output_dir and result.points is not None:
            store = SubsampleStore(args.output_dir)
            name = exp.case.shared.fileprefix.replace("/", "_") or "subsample"
            path = store.save(name, result.points)
            print(f"Saved subsample to {path} "
                  f"({store.reduction_factor(name, exp.source.nbytes()):.0f}x reduction)")
    finally:
        # Teardown: join any read-ahead thread the source owns.
        if source is not None and hasattr(source, "close"):
            source.close()
    return 0


def _validate_train_args(parser: argparse.ArgumentParser, args) -> None:
    """Same invalid-combo rejection style as the subsample command."""
    _check_source_flags(parser, args)
    if args.tune is not None:
        if args.tune < 1:
            parser.error("--tune needs at least 1 trial")
        if args.stream:
            parser.error("--tune searches over resident training arrays; "
                         "it cannot combine with --stream (drop one)")
        if args.resume or args.checkpoint:
            parser.error("--tune runs many short fits; per-fit "
                         "--checkpoint/--resume do not apply (drop them)")
        if args.ranks > 1:
            parser.error("--tune trials run serially; --ranks > 1 would be "
                         "silently ignored (drop it)")
    if args.resume is not None and not os.path.isfile(
        args.resume if args.resume.endswith(".npz") else args.resume + ".npz"
    ):
        parser.error(f"--resume: no checkpoint at {args.resume!r}")
    if args.checkpoint_every < 1:
        parser.error("--checkpoint-every needs a positive epoch count")
    if args.checkpoint_every != 1 and not args.checkpoint:
        parser.error("--checkpoint-every needs --checkpoint PATH")
    if args.tune is not None and args.backend == "process":
        parser.error("--tune trials run serially; --backend process would be "
                     "silently ignored (drop it)")
    _warn_backend_single_rank(args)


def train_main(argv: list[str] | None = None) -> int:
    """``train.py case.yaml`` equivalent: subsample (if needed) then train."""
    parser = argparse.ArgumentParser(prog="repro-train", description=train_main.__doc__)
    parser.add_argument("case", help="YAML case file")
    parser.add_argument("--ranks", type=int, default=1, help="simulated DDP ranks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--epochs", type=int, default=None, help="override case epochs")
    parser.add_argument(
        "--source", default=None,
        help="ingestion source: 'sim' (in-situ generation from the case "
             "dtype), a path to a shard directory written by save_dataset() "
             "(any codec, auto-detected), or an open_source() spec such as "
             "'raw+dir://DIR' or 'remote://DIR?latency_s=0.01'; default "
             "generates the catalog dataset in memory",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="stream-first training: run the subsample in stream mode and "
             "fit incrementally off the merged stream (windows built as "
             "snapshots arrive; bounded memory, no resident dataset)",
    )
    parser.add_argument(
        "--max-cached-shards", type=int, default=None,
        help="decoded snapshots resident at once for out-of-core/in-situ "
             f"sources (default {_DEFAULT_MAX_CACHED})",
    )
    parser.add_argument(
        "--prefetch", type=int, default=None,
        help="shards to read ahead of the consumer; a background thread "
             "decodes their members while training computes (shard-directory "
             "sources only; default 1, 0 turns read-ahead off)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable checkpoint here every --checkpoint-every "
             "epochs (model, optimizer, scheduler, RNG, feed cursor, "
             "energy counters)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="epochs between checkpoint writes (default 1)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="resume an interrupted fit from this checkpoint; the completed "
             "fit is bit-identical to an uninterrupted one",
    )
    parser.add_argument(
        "--tune", type=int, default=None, metavar="N",
        help="instead of one fit, run N hyperparameter-search trials "
             "(lr/batch, TPE-style) and report the best configuration",
    )
    _add_backend_flag(parser)
    args = parser.parse_args(argv)
    _validate_train_args(parser, args)

    exp = (
        Experiment.from_case(args.case)
        .with_seed(args.seed)
        .with_scale(args.scale)
        .with_train_ranks(args.ranks)
        .with_epochs(args.epochs)
        .with_backend(args.backend)
    )
    if args.stream:
        # Stream mode: the same ranks produce the subsample (one stream
        # producer per rank).  Batch subsample output is nranks-dependent,
        # so batch-mode training keeps the historical single-rank subsample
        # regardless of the DDP rank count.
        exp.with_ranks(args.ranks)
    source = _resolve_source(args, exp.case)
    if source is not None:
        exp.with_source(source)
    try:
        if args.tune is not None:
            exp.tune(n_trials=args.tune)
            print(exp.tune_artifact.summary())
            return 0
        exp.train(
            mode="stream" if args.stream else "batch",
            resume=args.resume,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
        )
        if args.stream:
            feed_meta = exp.train_artifact.result.meta.get("feed") or {}
            print(f"Streamed {feed_meta.get('samples', '?')} window samples "
                  f"({feed_meta.get('kind', 'StreamFeed')})")
        print(exp.train_artifact.result.report())
    finally:
        # Teardown: join any read-ahead thread the source owns.
        if source is not None and hasattr(source, "close"):
            source.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("subsample", "train", "serve", "submit"):
        print("usage: python -m repro.cli {subsample|train|serve|submit} "
              "[options]", file=sys.stderr)
        return 2
    cmd, rest = argv[0], argv[1:]
    if cmd in ("serve", "submit"):
        # Lazy: the serve package pulls in the HTTP/scheduler stack, which
        # plain subsample/train runs never need.
        from repro.serve.cli import serve_main, submit_main

        return serve_main(rest) if cmd == "serve" else submit_main(rest)
    return subsample_main(rest) if cmd == "subsample" else train_main(rest)


if __name__ == "__main__":
    raise SystemExit(main())
