"""The two batch workloads: repeated jobs through the ``Experiment`` facade.

``t1-batch-npz``
    The paper's T1: two-phase MaxEnt (Hmaxent cube selection, then Xmaxent
    point sampling) over an npz shard directory of SST-P1F100 at 64x16x64
    with 16 snapshots: 64 of the 2048 8^3 cubes, 40 points each, one rank,
    shard LRU of 2.  Shard decode, derived-field FFTs and the sampling
    stages do nearly all the work; the SPMD layer runs inline.

``t1t2-stream-proc``
    Streaming MaxEnt T1 chained into streaming DDP T2 (``mlp_transformer``)
    on 2 process-backend ranks over ``raw`` (mmap) shards of SST-P1F4 at
    32x32x16 with 8 snapshots.  Each job forks twice and all-reduces
    gradients every step; decode is cheap, so launch and transport show.

Every job runs the same spec, so a run's job times are repeated samples of
one job.  After each job the saved artifact is read back
``READS_PER_JOB`` times (``Artifact.load``, timed as the read path) and
checked against a reference made once per run, before the timed window.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from pb_common import median, points_digest
from pb_layers import batch_shares, compute_metrics, model_error

#: times each job's artifact is read back.  A read takes about 3 ms, and
#: with one read per job the median rested on 15 samples a run: two runs
#: with equal job times differed by up to 30% in read time.
READS_PER_JOB = 5


@dataclass
class JobRecord:
    """One job of a batch workload."""

    job: str
    wall_s: float = 0.0
    reads: list = field(default_factory=list)
    energy_j: float = 0.0
    virtual_s: float = 0.0
    points_scanned: int = 0
    test_loss: float | None = None
    ok: bool = False
    error: str | None = None


def generate_p1f100(shape: tuple[int, int, int], n_snapshots: int, seed: int):
    """SST-P1F100 snapshots from the catalog's solver settings, advanced two
    solver steps per snapshot (the catalog builder takes ten, which makes
    set-up dominated by the spin-up of a dataset the workload only reads)."""
    from repro.data.catalog import CATALOG
    from repro.data.dataset import TurbulenceDataset
    from repro.sim.stratified import generate_stratified

    entry = CATALOG["SST-P1F100"]
    snapshots = generate_stratified(
        shape=shape, n_snapshots=n_snapshots, steps_per_snapshot=2, rng=seed,
        gravity=entry.gravity, forced=True, n_buoyancy=3.0,
    )
    return TurbulenceDataset(
        label=entry.label, snapshots=snapshots,
        input_vars=list(entry.input_vars), output_vars=list(entry.output_vars),
        cluster_var=entry.kcv, gravity=entry.gravity,
        description=entry.description,
    )


class _JobLoop:
    """Set-up, reference, warm-up and a timed loop of identical jobs."""

    name = ""
    one_cpu = False
    #: set-ups per benchmark run (``setup_s`` is their median)
    setup_repeats = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workdir = ""
        self.shards = ""
        self._n = 0

    # ---- hooks ---------------------------------------------------------

    def build_dataset(self):
        raise NotImplementedError

    def codec(self) -> str:
        raise NotImplementedError

    def make_reference(self, dataset) -> None:
        raise NotImplementedError

    def job(self, out: str, rec: JobRecord) -> None:
        raise NotImplementedError

    # ---- lifecycle -----------------------------------------------------

    def setup(self, workdir: str) -> None:
        """Synthesize the dataset and write its shards (timed, repeated)."""
        from repro.data.loaders import save_dataset

        self.workdir = workdir
        self.shards = os.path.join(workdir, "shards")
        self._dataset = self.build_dataset()
        save_dataset(self._dataset, self.shards, codec=self.codec())

    def discard(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def prepare(self) -> list[JobRecord]:
        """Reference outputs, then one untimed warm-up job."""
        self.make_reference(self._dataset)
        self._dataset = None
        return [self.run_job("warmup", None)]

    def measure(self, seconds: float, tracer, phase: str) -> list[JobRecord]:
        records = []
        deadline = time.perf_counter() + seconds
        while not records or time.perf_counter() < deadline:
            records.append(self.run_job(phase, tracer))
        return records

    def run_job(self, phase: str, tracer) -> JobRecord:
        self._n += 1
        rec = JobRecord(job=f"{phase}-{self._n}")
        out = os.path.join(self.workdir, "out", rec.job)
        ctx = tracer.span("job", "job", job=rec.job) if tracer else nullcontext()
        try:
            with ctx:
                self.job(out, rec)
        except Exception as exc:  # a failed job is a counted failure
            rec.ok, rec.error = False, f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return rec

    @staticmethod
    def read_back(load, rec: JobRecord):
        """Call ``load`` ``READS_PER_JOB`` times, timing each call into
        ``rec.reads``; returns the last result."""
        for _ in range(READS_PER_JOB):
            t0 = time.perf_counter()
            value = load()
            rec.reads.append(time.perf_counter() - t0)
        return value

    def finish(self, windows: list) -> None:
        """Nothing to re-check: every job was checked as it finished."""

    def close(self) -> None:
        self.discard()

    # ---- results -------------------------------------------------------

    @staticmethod
    def e2e(window: list[JobRecord]) -> dict[str, tuple[float, int]]:
        """End-to-end values with their sample counts."""
        ok = [r for r in window if r.ok]
        if not ok:
            return {}
        reads = [t for r in ok for t in r.reads]
        return {
            "job_s.p50": (median([r.wall_s for r in ok]), len(ok)),
            "hit_latency_s.p50": (median(reads), len(reads)),
            "energy_j": (median([r.energy_j for r in ok]), len(ok)),
        }

    @staticmethod
    def operations(warmup: list[JobRecord], windows: list) -> tuple[int, list[str]]:
        """(attempted, errors) over every job the run made."""
        records = [*warmup, *(r for w in windows for r in w)]
        return len(records), [f"{r.job}: {r.error}" for r in records if not r.ok]

    @staticmethod
    def layers(window: list[JobRecord], spans) -> dict[str, float]:
        jobs = [r.job for r in window]
        out = compute_metrics(spans, jobs)
        out.update(batch_shares(spans, jobs))
        out["sampling.points_scanned"] = median([r.points_scanned for r in window])
        out["parallel.model_error"] = model_error(spans, {r.job: r.virtual_s for r in window})
        losses = [r.test_loss for r in window if r.test_loss is not None]
        out["train.test_loss"] = median(losses) if losses else 0.0
        return out

    @staticmethod
    def health(window: list[JobRecord]) -> dict:
        return {"jobs": len(window)}


class T1BatchNpz(_JobLoop):
    name = "t1-batch-npz"
    CASE = {
        "shared": {"dims": 3},
        "subsample": {
            "hypercubes": "maxent", "method": "maxent",
            "num_hypercubes": 64, "num_samples": 40, "num_clusters": 4,
            "nxsl": 8, "nysl": 8, "nzsl": 8,
        },
        "train": {"arch": "mlp_transformer"},
    }

    def build_dataset(self):
        return generate_p1f100((64, 16, 64), 16, self.seed)

    def codec(self) -> str:
        return "npz"

    def make_reference(self, dataset) -> None:
        from repro.api import Experiment

        exp = Experiment.from_case(self.CASE).with_seed(self.seed).with_source(dataset)
        result = exp.subsample().subsample_artifact.result
        self.ref = (points_digest(result.points), result.selected_cube_ids.tobytes())

    def job(self, out: str, rec: JobRecord) -> None:
        from repro.api import Experiment, SubsampleArtifact

        t0 = time.perf_counter()
        exp = Experiment.from_case(self.CASE).with_seed(self.seed).with_source(self.shards)
        try:
            exp.subsample()
            path = exp.save(out)["subsample"]
        finally:
            exp.source.close()
        rec.wall_s = time.perf_counter() - t0
        art = self.read_back(lambda: SubsampleArtifact.load(path), rec)
        result = exp.subsample_artifact.result
        rec.energy_j = result.energy.total_energy
        rec.virtual_s = result.virtual_time
        rec.points_scanned = result.n_points_scanned
        got = (points_digest(art.points), art.selected_cube_ids.tobytes())
        rec.ok = got == self.ref
        if not rec.ok:
            rec.error = "sample bytes differ from the in-memory reference"


class T1T2StreamProc(_JobLoop):
    name = "t1t2-stream-proc"
    #: one set-up takes about 1 s; more of them keep the median steady
    setup_repeats = 5
    RANKS = 2
    EPOCHS = 8
    #: the Experiment seed is fixed: final test loss moves by ~30% across
    #: training seeds, while the flow the workload seed synthesizes moves it
    #: by ~3%, so a fixed training seed keeps test_loss comparable
    TRAIN_SEED = 0
    CASE = {
        "shared": {"dims": 3},
        "subsample": {
            "hypercubes": "maxent", "method": "maxent",
            "num_hypercubes": 32, "num_samples": 8, "num_clusters": 4,
            "nxsl": 8, "nysl": 8, "nzsl": 8,
        },
        "train": {"arch": "mlp_transformer", "batch": 4, "window": 2},
    }

    def build_dataset(self):
        from repro.data import build_dataset

        return build_dataset("SST-P1F4", scale=1.0, rng=self.seed, n_snapshots=8)

    def codec(self) -> str:
        return "raw"

    def _experiment(self, backend: str):
        from repro.api import Experiment

        return (
            Experiment.from_case(self.CASE).with_seed(self.TRAIN_SEED)
            .with_ranks(self.RANKS).with_train_ranks(self.RANKS)
            .with_backend(backend).with_epochs(self.EPOCHS)
            .with_source(self.shards)
        )

    @staticmethod
    def _fingerprint(sub, train) -> tuple:
        return (points_digest(sub.points), list(train.train_losses),
                list(train.test_losses))

    def make_reference(self, dataset) -> None:
        """The same job on the thread backend: the backends must agree
        byte-for-byte on the sample and the per-epoch losses."""
        exp = self._experiment("thread")
        try:
            exp.subsample(mode="stream").train(mode="stream")
        finally:
            exp.source.close()
        self.ref = self._fingerprint(exp.subsample_artifact, exp.train_artifact.result)

    def job(self, out: str, rec: JobRecord) -> None:
        from repro.api import SubsampleArtifact, TrainArtifact

        t0 = time.perf_counter()
        exp = self._experiment("process")
        try:
            exp.subsample(mode="stream").train(mode="stream")
            paths = exp.save(out)
        finally:
            exp.source.close()
        rec.wall_s = time.perf_counter() - t0
        sub, train = self.read_back(
            lambda: (SubsampleArtifact.load(paths["subsample"]),
                     TrainArtifact.load(paths["train"]).result), rec)
        sub_res = exp.subsample_artifact.result
        fit = exp.train_artifact.result
        rec.energy_j = sub_res.energy.total_energy + fit.energy.total_energy
        rec.virtual_s = sub_res.virtual_time
        rec.points_scanned = sub_res.n_points_scanned
        rec.test_loss = fit.final_test_loss
        rec.ok = self._fingerprint(sub, train) == self.ref
        if not rec.ok:
            rec.error = "sample or losses differ from the thread-backend reference"
