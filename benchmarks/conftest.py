"""Shared fixtures and reporting helpers for the per-figure benchmarks.

Each bench regenerates one table/figure of the paper at reduced scale,
prints the rows/series, and writes them to ``benchmarks/results/<name>.txt``
so the output survives pytest's capture.  Timing goes through
pytest-benchmark (``--benchmark-only``).
"""

from __future__ import annotations

import os

import pytest

from repro.data import build_dataset

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        default=os.path.join(REPO_ROOT, "BENCH_fig7.json"),
        help="path of the machine-readable bench trajectory written by the "
        "fig7 wall-clock benchmark (default: repo-root BENCH_fig7.json)",
    )


@pytest.fixture(scope="session")
def bench_json_path(request) -> str:
    return request.config.getoption("--bench-json")


def append_bench_record(path: str, record: dict, label: str | None = None) -> None:
    """Append one run record to the ``BENCH_fig7.json`` trajectory.

    Shared by every fig7 bench (bounded 50-record history).  A missing
    file starts a fresh history; a file that is not a trajectory (bad
    JSON, or no ``runs`` list) raises ``ValueError`` naming the path and
    is left untouched, so a damaged history is never overwritten.
    ``label`` — or the ``REPRO_BENCH_LABEL`` environment variable — tags
    the record's provenance so service-path runs (jobs executed through
    ``repro-serve``) stay distinguishable from direct-path runs in the
    trajectory; legacy records without the field remain valid (readers
    must treat absence as direct-path).
    """
    import json

    label = label or os.environ.get("REPRO_BENCH_LABEL")
    if label:
        record = {**record, "label": str(label)}
    doc = {"bench": "fig7_wallclock_stream", "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            try:
                prev = json.load(fh)
            except ValueError as exc:
                raise ValueError(
                    f"{path}: not valid JSON ({exc}); refusing to overwrite "
                    "the bench history — repair or move the file"
                ) from exc
        if not (isinstance(prev, dict) and isinstance(prev.get("runs"), list)):
            raise ValueError(
                f"{path}: not a bench trajectory (expected an object with a "
                "'runs' list); refusing to overwrite it"
            )
        doc["runs"] = prev["runs"]
    doc["runs"] = [*doc["runs"], record][-50:]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"[trajectory appended to {path}]")


def emit(name: str, text: str) -> str:
    """Print a bench report and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n[written to {path}]")
    return path


@pytest.fixture(scope="session")
def of2d_dataset():
    """OF2D at reduced resolution: 60 snapshots (3 shedding periods)."""
    return build_dataset("OF2D", scale=0.6, rng=0, n_snapshots=60)


@pytest.fixture(scope="session")
def tc2d_dataset():
    return build_dataset("TC2D", scale=0.75, rng=0)


#: CI's benchmark smoke step sets this to run reduced configurations.
BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


@pytest.fixture(scope="session")
def sst_p1f4_dataset():
    """SST-P1F4 at 32x32x16, 6 snapshots of the TG transition (3 in the
    REPRO_BENCH_SMOKE=1 reduced configuration)."""
    return build_dataset("SST-P1F4", scale=1.0, rng=0,
                         n_snapshots=3 if BENCH_SMOKE else 6)


@pytest.fixture(scope="session")
def sst_p1f100_dataset():
    """SST-P1F100 (forced, gravity y) at 32x8x32, 8 snapshots."""
    return build_dataset("SST-P1F100", scale=1.0, rng=0, n_snapshots=8)


@pytest.fixture(scope="session")
def gests_dataset():
    """GESTS-2048 scaled to one 32^3 brick."""
    return build_dataset("GESTS-2048", scale=1.0, rng=0, spinup_steps=30)
