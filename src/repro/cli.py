"""Command-line entry points mirroring the paper's workflow scripts.

The paper drives everything as::

    srun -n 32 python subsample.py case.yaml
    srun -n 8  python train.py case.yaml

Here the same case files drive :func:`subsample_main` and :func:`train_main`
(``python -m repro.cli subsample case.yaml --ranks 32``); ranks are simulated
threads.  Both commands turn their flags into a
:class:`repro.spec.RunSpec` (checked by ``RunSpec.validate``, the rule set
the service uses too) and run the :class:`repro.api.Experiment` it
configures — the same fluent chain available from Python
(``Experiment.from_case(path).with_ranks(32).subsample().train()``) — so
anything registered with ``register_sampler`` / ``register_selector``
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

from repro.api import build_model_for_case
from repro.data import SubsampleStore
from repro.spec import RunSpec

__all__ = ["main", "subsample_main", "train_main", "build_model_for_case"]


def subsample_main(argv: list[str] | None = None) -> int:
    """``subsample.py case.yaml`` equivalent."""
    parser = argparse.ArgumentParser(prog="repro-subsample", description=subsample_main.__doc__)
    parser.add_argument("case", help="YAML case file")
    parser.add_argument("--output_dir", default=None, help="store the subsample here")
    RunSpec.add_flags(
        parser, "ranks", "seed", "scale", "source", "mode", "max_cached_shards",
        "prefetch", "on_rank_failure", "inject_rank_failure", "backend",
        mode="single-pass streaming subsample (reservoir / online MaxEnt) "
             "instead of the two-phase pipeline; with --ranks N each rank "
             "streams its own snapshot partition and the per-rank samples "
             "merge by weighted draw",
    )
    args = parser.parse_args(argv)
    spec = RunSpec.from_args(parser, args, kind="subsample")

    with spec.experiment() as exp:
        exp.subsample(mode=spec.mode)
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
    return 0


def train_main(argv: list[str] | None = None) -> int:
    """``train.py case.yaml`` equivalent: subsample (if needed) then train."""
    parser = argparse.ArgumentParser(prog="repro-train", description=train_main.__doc__)
    parser.add_argument("case", help="YAML case file")
    RunSpec.add_flags(
        parser, "ranks", "seed", "scale", "epochs", "source", "mode",
        "max_cached_shards", "prefetch", "checkpoint_every", "tune_trials",
        "backend",
        mode="stream-first training: run the subsample in stream mode and "
             "fit incrementally off the merged stream (windows built as "
             "snapshots arrive; bounded memory, no resident dataset)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable checkpoint here every --checkpoint-every "
             "epochs (model, optimizer, scheduler, RNG, feed cursor, "
             "energy counters)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="resume an interrupted fit from this checkpoint; the completed "
             "fit is bit-identical to an uninterrupted one",
    )
    args = parser.parse_args(argv)
    # Checkpoint paths are this command's own flags, not run parameters.
    if args.tune_trials is not None and (args.resume or args.checkpoint):
        parser.error("--tune runs many short fits; per-fit "
                     "--checkpoint/--resume do not apply (drop them)")
    if args.resume is not None and not os.path.isfile(
        args.resume if args.resume.endswith(".npz") else args.resume + ".npz"
    ):
        parser.error(f"--resume: no checkpoint at {args.resume!r}")
    if args.checkpoint_every != 1 and not args.checkpoint:
        parser.error("--checkpoint-every needs --checkpoint PATH")
    spec = RunSpec.from_args(
        parser, args, kind="train" if args.tune_trials is None else "tune")

    with spec.experiment() as exp:
        if spec.kind == "tune":
            exp.tune(n_trials=spec.tune_trials, strategy=spec.tune_strategy)
            print(exp.tune_artifact.summary())
            return 0
        exp.train(
            mode=spec.mode,
            resume=args.resume,
            checkpoint=args.checkpoint,
            checkpoint_every=spec.checkpoint_every,
        )
        if spec.mode == "stream":
            feed_meta = exp.train_artifact.result.meta.get("feed") or {}
            print(f"Streamed {feed_meta.get('samples', '?')} window samples "
                  f"({feed_meta.get('kind', 'StreamFeed')})")
        print(exp.train_artifact.result.report())
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
