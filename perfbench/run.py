"""Repository benchmark: three workloads through the public ``repro`` API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload t1-batch-npz --seed 1 --seconds 20 --trace 0

Workloads (see ``pb_batch.py`` and ``pb_serve.py``):

* ``t1-batch-npz``     two-phase MaxEnt T1 over npz shards, one rank;
* ``t1t2-stream-proc`` streaming T1 into DDP T2 on 2 process-backend ranks;
* ``serve-mix``        an in-process ``repro-serve`` with a closed-loop client,
  run on one CPU (see ``ServeMix.one_cpu``).

Each run sets its workload up ``setup_repeats`` times from ``--seed``
(``setup_s`` is the median), makes its reference outputs and a warm-up
operation untimed, then measures for ``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` runs the window in two halves, the first untraced and the
second with spans installed around every layer (``pb_trace.py``), and
prints the per-layer metrics of the traced half, the layer-share table
and the tracing overhead (traced against untraced ``job_s.p50``).

Outputs are checked in every mode; an operation that fails, times out or
returns wrong bytes counts in ``failed``.  The last stdout line is the JSON
result; the line before it carries provenance and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from pb_batch import T1BatchNpz, T1T2StreamProc
from pb_common import (cpu_ticks, median, own_descendants, peak_rss_mb, provenance,
                       reset_peak_rss, steal_share, stop_children)
from pb_layers import PER_LAYER
from pb_serve import ServeMix
from pb_trace import Tracer, install

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {cls.name: cls for cls in (T1BatchNpz, T1T2StreamProc, ServeMix)}

#: end-to-end metric name -> unit
END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "hit_latency_s.p50": "s",
    "energy_j": "J",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, details)."""
    prov = provenance(ROOT, args.workload, args.seed, bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed)
    if wl.one_cpu:
        # Before any thread starts, so every thread inherits the mask.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        prov["pinned_cpu"] = cpu
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    try:
        setup_times = []
        for i in range(wl.setup_repeats):
            if i:
                wl.discard()
            t0 = time.perf_counter()
            wl.setup(os.path.join(workdir, f"setup{i}"))
            setup_times.append(time.perf_counter() - t0)
        warmup = wl.prepare()
        # peak_rss_mb covers the timed jobs, not set-up and the reference.
        prov["rss_peak_since"] = "window" if reset_peak_rss() else "process start"
        ticks = cpu_ticks()
        if args.trace:
            plain = wl.measure(args.seconds / 2, None, "plain")
            tracer = Tracer()
            installed = install(tracer)
            try:
                window = wl.measure(args.seconds / 2, tracer, "traced")
            finally:
                installed.remove()
            windows = [plain, window]
        else:
            window = wl.measure(args.seconds, None, "run")
            windows = [window]
            peak_mb = peak_rss_mb()
        # Time other guests took from this one's CPUs while it measured:
        # host contention that the benchmark cannot control shows here.
        steal = steal_share(ticks, cpu_ticks())
        wl.finish(windows)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, errors = wl.operations(warmup, windows)
    e2e = wl.e2e(window)
    samples = {name: n for name, (_, n) in e2e.items()}
    if args.trace:
        metrics = wl.layers(window, tracer.spans())
        base = wl.e2e(plain).get("job_s.p50")
        if base and e2e:
            metrics["trace.overhead"] = e2e["job_s.p50"][0] / base[0] - 1.0
        units = PER_LAYER
    else:
        metrics = {name: value for name, (value, _) in e2e.items()}
        metrics["setup_s"] = median(setup_times)
        metrics["peak_rss_mb"] = peak_mb
        samples["setup_s"] = len(setup_times)
        units = END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    details = {
        "provenance": prov,
        "samples": samples,
        "fail_share": result["failed"] / max(1, attempted),
        "window": wl.health(window),
        "steal_share": steal,
        "errors": errors[:20],
    }
    return result, details


def _report(result: dict, details: dict) -> None:
    prov = details["provenance"]
    print(f"perfbench {prov['workload']} seed={prov['seed']} trace={int(prov['trace'])} "
          f"cores={prov['cores']} python={prov['python']} numpy={prov['numpy']} "
          f"commit={prov['commit'][:12]}")
    for name, m in result["metrics"].items():
        n = details["samples"].get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}{count}")
    shares = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("share.")}
    if shares:
        print("  layer share of traced job wall: " + "  ".join(
            f"{k[6:]}={v:.1%}" for k, v in shares.items()))
    print(f"  fail_share = {result['failed']}/{result['attempted']} = "
          f"{details['fail_share']:.4f}")
    if details["steal_share"] is not None:
        print(f"  host steal share = {details['steal_share']:.4f}")
    for err in details["errors"]:
        print(f"  failed: {err}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # A wedged process-backend rank raises after this long instead of
    # stalling the run.
    os.environ.setdefault("REPRO_PROC_TIMEOUT", "60")
    own_descendants()
    try:
        result, details = run(args)
    finally:
        stop_children()
    _report(result, details)
    print(json.dumps(details, sort_keys=True, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
