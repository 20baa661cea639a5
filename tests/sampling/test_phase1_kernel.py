"""The batched phase-1 kernel against the per-cube reference.

``Phase1SummarizeStage`` computes each cube's moments and histogram on
stacked blocks of cubes (``cube_moments`` and ``cube_histograms`` over
``iter_cube_blocks``).
The reference below is the per-cube loop it replaced; every summary and
histogram must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import InMemorySource
from repro.data.dataset import TurbulenceDataset
from repro.parallel import run_spmd
from repro.sampling import stages
from repro.sampling.stages import (
    CubeIndexStage,
    Phase1SummarizeStage,
    PipelineContext,
    cube_histograms,
    cube_moments,
    iter_cube_blocks,
)
from repro.sim.fields import FlowField
from repro.utils.config import CaseConfig, SharedConfig, SubsampleConfig, TrainConfig


def reference_row_stats(flat: np.ndarray, edges: np.ndarray):
    """One cube's phase-1 summary and histogram, computed on its own."""
    bins = len(edges) - 1
    mean, std = flat.mean(), flat.std()
    centred = flat - mean
    summary = [
        mean,
        std,
        (centred**3).mean() / max(std**3, 1e-12),
        (centred**4).mean() / max(std**4, 1e-12),
    ]
    counts, _ = np.histogram(flat, bins=edges)
    total = counts.sum()
    hist = counts / total if total > 0 else np.full(bins, 1.0 / bins)
    return summary, hist


def reference_phase1(ctx: PipelineContext):
    """The per-cube phase-1 loop: edges, summaries, histograms, scanned."""
    values = []
    for s, origin in ctx.my_cubes:
        slicer = tuple(slice(o, o + c) for o, c in zip(origin, ctx.cube_shape))
        values.append(ctx.source.snapshot(s).get(ctx.cluster_var)[slicer])
    local_min = min((float(v.min()) for v in values), default=np.inf)
    local_max = max((float(v.max()) for v in values), default=-np.inf)
    gmin = ctx.comm.allreduce(local_min, op="min")
    gmax = ctx.comm.allreduce(local_max, op="max")
    if gmin == gmax:
        gmax = gmin + 1.0
    edges = np.linspace(gmin, gmax, ctx.hist_bins + 1)
    summaries = np.zeros((len(values), 4))
    histograms = np.zeros((len(values), ctx.hist_bins))
    for i, vals in enumerate(values):
        summaries[i], histograms[i] = reference_row_stats(vals.reshape(-1), edges)
    return edges, summaries, histograms, sum(v.size for v in values)


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---- kernel level -------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def blocks(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["normal", "constant", "integers", "floats"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        block = rng.normal(draw(finite), draw(st.floats(1e-3, 1e3)), (k, n))
    elif kind == "constant":
        block = np.full((k, n), draw(finite))
    elif kind == "integers":
        block = rng.integers(-3, 4, (k, n)).astype(np.float64)
    else:
        block = np.array(draw(st.lists(finite, min_size=k * n, max_size=k * n)))
        block = block.reshape(k, n)
    lo, hi = float(block.min()), float(block.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, draw(st.integers(1, 60)) + 1)
    if draw(st.booleans()):
        # Values on the top edge land in the last (closed) bin.
        block.flat[:: max(1, block.size // 3)] = edges[-1]
    return block, edges


@settings(max_examples=200, deadline=None)
@given(blocks())
def test_kernel_matches_per_cube_reference(case):
    block, edges = case
    summaries, histograms = cube_moments(block), cube_histograms(block, edges)
    for i, row in enumerate(block):
        want_summary, want_hist = reference_row_stats(row.copy(), edges)
        assert_bitwise(summaries[i], np.array(want_summary))
        assert_bitwise(histograms[i], np.asarray(want_hist, dtype=np.float64))


def test_kernel_drops_values_outside_the_edges():
    block = np.array([[-5.0, 0.0, 0.5, 1.0, 7.0], [9.0, 9.0, 9.0, 9.0, 9.0]])
    edges = np.linspace(0.0, 1.0, 3)
    histograms = cube_histograms(block, edges)
    for i, row in enumerate(block):
        _, want = reference_row_stats(row, edges)
        assert_bitwise(histograms[i], want)
    assert histograms[1].tolist() == [0.5, 0.5]  # nothing inside: uniform


# ---- stage level ----------------------------------------------------------------


def make_source(grid, n_snapshots, seed, constant):
    rng = np.random.default_rng(seed)
    snapshots = []
    for t in range(n_snapshots):
        c = np.full(grid, 2.5) if constant else rng.normal(size=grid) ** 3
        snapshots.append(FlowField({"c": c, "u": rng.normal(size=grid)}, time=float(t)))
    dataset = TurbulenceDataset(
        label="K", snapshots=snapshots, input_vars=["u"], output_vars=[],
        cluster_var="c",
    )
    return InMemorySource(dataset)


def make_case(cube, num_hypercubes=1):
    edges = dict(zip(("nxsl", "nysl", "nzsl"), (*cube, 1, 1)))
    return CaseConfig(
        shared=SharedConfig(dims=len(cube)),
        subsample=SubsampleConfig(hypercubes="maxent", method="maxent",
                                  num_hypercubes=num_hypercubes, num_samples=1,
                                  num_clusters=2, **edges),
        train=TrainConfig(arch="mlp_transformer"),
    )


def run_both(source, case, nranks, hist_bins, block_points=None):
    """Per rank: the batched stage's products and the reference's, with
    blocks cut at `block_points` values when given."""

    def rank(comm):
        ctx = PipelineContext(comm=comm, source=source, config=case, hist_bins=hist_bins)
        CubeIndexStage().run(ctx)
        want = reference_phase1(ctx)
        blocks = list(iter_cube_blocks(ctx))
        assert [lo for lo, _ in blocks] == sorted(lo for lo, _ in blocks)
        assert sum(len(b) for _, b in blocks) == len(ctx.my_cubes)
        Phase1SummarizeStage().run(ctx)
        return (ctx.edges, ctx.summaries, ctx.histograms, ctx.scanned), want

    saved = stages.BLOCK_POINTS
    if block_points is not None:
        stages.BLOCK_POINTS = block_points
    try:
        return run_spmd(rank, nranks).values
    finally:
        stages.BLOCK_POINTS = saved


@st.composite
def layouts(draw):
    dims = draw(st.sampled_from([2, 3]))
    cube = tuple(draw(st.integers(1, 3)) for _ in range(dims))
    # grid edges from one to two cubes plus a remainder the tiling drops
    grid = tuple(c * draw(st.integers(1, 2)) + draw(st.integers(0, c - 1 if c > 1 else 0))
                 for c in cube)
    return grid, cube


@settings(max_examples=40, deadline=None)
@given(
    layout=layouts(),
    n_snapshots=st.integers(1, 3),
    nranks=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    constant=st.booleans(),
    hist_bins=st.integers(1, 12),
    block_points=st.sampled_from([None, 1, 5]),
)
def test_stage_matches_reference(layout, n_snapshots, nranks, seed, constant,
                                 hist_bins, block_points):
    """Rank blocks that start and end mid-snapshot, 2-D and 3-D tilings with
    remainder cells, constant fields, and blocks cut below one snapshot."""
    grid, cube = layout
    source = make_source(grid, n_snapshots, seed, constant)
    for (edges, summaries, histograms, scanned), want in run_both(
        source, make_case(cube), nranks, hist_bins, block_points
    ):
        want_edges, want_summaries, want_histograms, want_scanned = want
        assert_bitwise(edges, want_edges)
        assert_bitwise(summaries, want_summaries)
        assert_bitwise(histograms, want_histograms)
        assert scanned == want_scanned


@pytest.mark.parametrize("nranks", [1, 3])
def test_stage_matches_reference_on_a_catalog_flow(nranks):
    """A real derived cluster variable (pv) over the SST catalog grid."""
    from repro.data import build_dataset

    source = InMemorySource(build_dataset("SST-P1F4", scale=0.5, rng=1, n_snapshots=3))
    for got, want in run_both(source, make_case((4, 4, 4)), nranks, 50):
        for g, w in zip(got[:3], want[:3]):
            assert_bitwise(g, w)
