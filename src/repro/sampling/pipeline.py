"""The distributed two-phase subsampling pipeline (= the paper's subsample.py).

Runs SPMD over a :class:`~repro.parallel.comm.Communicator`, mirroring
``srun -n N python subsample.py case.yaml``:

1.  every rank deterministically enumerates the hypercube tiling of all
    snapshots and takes its block of the cube list;
2.  **phase 1** — each rank summarizes its cubes (moments + histogram of the
    cluster variable on globally agreed edges); summaries are gathered to
    rank 0, which runs the registered
    :class:`~repro.sampling.selectors.CubeSelector` named by the case's
    ``hypercubes:`` key (Hmaxent / Hrandom / entropy / anything third-party)
    and broadcasts the selected cube ids;
3.  **phase 2** — each rank runs the configured point sampler (Xmaxent /
    UIPS / random / LHS / stratified) inside its share of the selected cubes,
    or keeps the cubes fully dense (``method='full'``);
4.  results are gathered to rank 0 and concatenated.

Since the stream-first redesign :func:`subsample` is the single entry point
for all three ingestion modes: pass a resident
:class:`~repro.data.dataset.TurbulenceDataset` (or
:class:`~repro.data.sources.InMemorySource`) for batch, a
:class:`~repro.data.sources.ShardDirSource` (any registered shard codec;
optionally behind a :class:`~repro.data.sources.RemoteTieredSource`) for
out-of-core shards, or a
:class:`~repro.data.sources.SimulationSource` for in-situ generation — the
stage pipeline fetches snapshots through the source on demand and never
requires the dataset to be resident.  ``mode="stream"`` switches to the
single-pass streaming samplers (:mod:`repro.sampling.streaming`) registered
beside the offline ones, which sample while the data streams by without a
phase-2 revisit.

The stage pipeline itself lives in :mod:`repro.sampling.stages` as
composable :class:`~repro.sampling.stages.Stage` objects (CubeIndex →
Phase1Summarize → CubeSelect → PointSample → Gather) driven by
:class:`~repro.sampling.stages.SubsamplePipeline`; this module keeps the
historical entry points ``run_subsample`` / ``subsample`` as thin
seed-for-seed-equivalent wrappers over the default stage list.

Each rank meters its own energy (thread-local
:class:`~repro.energy.meter.EnergyMeter`) and charges compute work to its
virtual clock, so the same run yields Fig 7's scalability numbers (virtual
makespan vs rank count) and Fig 8's energy numbers.  Per-method work-unit
costs come from the ``cost_per_point`` attribute on the sampler/selector
classes, so registered third-party strategies need no cost-table entry.
"""

from __future__ import annotations

from repro.data.dataset import TurbulenceDataset
from repro.data.sources import InMemorySource, SimulationSource, SnapshotSource, open_source
from repro.energy.meter import EnergyMeter
from repro.parallel.comm import Communicator
from repro.parallel.perfmodel import PerfModel
from repro.parallel.spmd import run_spmd
from repro.sampling.stages import SubsamplePipeline, SubsampleResult
from repro.utils.config import CaseConfig

__all__ = ["SubsampleResult", "SubsamplePipeline", "run_subsample", "subsample"]


def run_subsample(
    comm: Communicator,
    data: SnapshotSource | TurbulenceDataset,
    config: CaseConfig,
    seed: int = 0,
    hist_bins: int = 50,
) -> SubsampleResult:
    """Execute the two-phase pipeline on one rank of an SPMD run.

    Thin wrapper over the default :class:`SubsamplePipeline` stage list;
    `data` is any snapshot source or a resident dataset.
    """
    return SubsamplePipeline().run(comm, data, config, seed=seed, hist_bins=hist_bins)


def subsample(
    data: SnapshotSource | TurbulenceDataset,
    config: CaseConfig,
    nranks: int = 1,
    seed: int = 0,
    model: PerfModel | None = None,
    mode: str = "batch",
    on_rank_failure: str = "raise",
    fault_hook=None,
    backend: str = "thread",
) -> SubsampleResult:
    """One ``subsample()`` for batch, out-of-core, and in-situ ingestion.

    ``mode="batch"`` (default) launches the two-phase SPMD pipeline over any
    :class:`~repro.data.sources.SnapshotSource` and returns rank 0's result;
    the returned ``virtual_time`` is the makespan (slowest rank) and the
    energy meter is the merge of all ranks' meters.  ``mode="stream"`` runs
    the single-pass streaming samplers instead (no phase-2 revisit; with
    ``nranks > 1`` each rank streams its own snapshot partition and the
    per-rank states merge by weighted draw — see
    :func:`repro.sampling.streaming.run_stream_subsample`).

    The stream-only knobs: ``on_rank_failure`` chooses between reweighting
    the merge by delivered mass (``"reweight"``) and failing the draw
    (``"raise"``) when a producer dies mid-span, and ``fault_hook`` injects
    such deaths for testing.

    ``backend`` applies to both modes and picks the SPMD substrate:
    ``"thread"`` (deterministic virtual-time modeling, the default) or
    ``"process"`` (forked workers with shared-memory transport — real
    wall-clock parallelism, byte-identical results for the same
    (seed, nranks)).  See :func:`repro.parallel.spmd.run_spmd`.
    """
    source = open_source(data)
    if mode == "stream":
        from repro.sampling.streaming import run_stream_subsample

        return run_stream_subsample(
            source, config, seed=seed, nranks=nranks, model=model,
            on_rank_failure=on_rank_failure, fault_hook=fault_hook,
            backend=backend,
        )
    if mode != "batch":
        raise ValueError(f"mode must be 'batch' or 'stream', got {mode!r}")
    if fault_hook is not None or on_rank_failure != "raise":
        raise ValueError(
            "on_rank_failure / fault_hook apply to "
            "mode='stream' only — the batch pipeline has no partial-stream "
            "merge to configure"
        )

    if isinstance(source, InMemorySource):
        # Materialize derived variables once, outside the parallel region
        # (resident data only — lazy sources stay lazy).
        for snap in source.dataset.snapshots:
            snap.get(source.cluster_var)
    elif (
        isinstance(source, SimulationSource)
        and nranks > 1
        and source.max_cached < source.n_snapshots
    ):
        # Thread ranks interleave snapshot requests; a replay-on-backstep
        # source would re-run the simulation O(ranks * snapshots) times.
        raise ValueError(
            "a SimulationSource with max_cached < n_snapshots would replay "
            "the simulation for nearly every cross-rank access under "
            f"nranks={nranks}; use nranks=1, raise max_cached to "
            f">= {source.n_snapshots}, or shard the stream to disk first"
        )

    spmd = run_spmd(
        run_subsample, nranks, source, config, seed=seed, model=model, backend=backend
    )
    root: SubsampleResult = spmd[0]
    merged = EnergyMeter()
    for res in spmd.values:
        if res.energy is not None:
            merged.merge(res.energy)
    merged.elapsed = spmd.virtual_time
    root.energy = merged
    root.virtual_time = spmd.virtual_time
    return root
