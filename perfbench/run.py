"""Layered TENDS benchmark: runs one workload and prints one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps every layer's public entry
point in a span and reports the per-layer metrics instead.  The last
line of standard output is the result object; the line before it holds
the host facts.  Exit code 2 means the benchmark refused to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Each of these silently changes the execution or counting backend.
REFUSED_ENV = (
    "REPRO_EXECUTOR",
    "REPRO_N_JOBS",
    "REPRO_KERNEL",
    "REPRO_MAX_ATTEMPTS",
    "REPRO_CHUNK_TIMEOUT",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "f_score": "ratio",
    "ok_frac": "ratio",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_cps": "1/s",
}

PER_LAYER_UNITS = {
    "simulation.s": "s",
    "simulation.cascades_per_s": "1/s",
    "stats.s": "s",
    "stats.pair_cells": "count",
    "stats.cells_per_s": "1/s",
    "tiles.s": "s",
    "tiles.count": "count",
    "tiles.spilled_bytes": "bytes",
    "imi.s": "s",
    "imi.pairs": "count",
    "threshold.s": "s",
    "threshold.values": "count",
    "search.s": "s",
    "search.prune_s": "s",
    "search.nodes": "count",
    "search.evaluations": "count",
    "search.us_per_eval": "us",
    "search.candidates_per_node": "count",
    "tends.s": "s",
    "update.dirty_nodes": "count",
    "update.residual_s": "s",
    "journal.append_p50_ms": "ms",
    "journal.bytes_per_batch": "bytes",
    "serve.s": "s",
    "serve.submit_p50_ms": "ms",
    "serve.submit_p90_ms": "ms",
    "queue.wait_p50_s": "s",
    "absorb.p50_s": "s",
    "absorb.batches_per_absorb": "count",
    "snapshot.count": "count",
    "absorb.retries": "count",
    "loadgen.late_max_ms": "ms",
    "loadgen.max_rate_cps": "1/s",
    "unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "obs.stage_coverage": "ratio",
}


def _refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def host_facts() -> dict:
    """CPU count, interpreter, numpy, BLAS vendor and threads, kernel."""
    import ctypes

    import numpy as np

    from repro.core.kernels import resolve_kernel

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # numpy wheels bundle OpenBLAS next to the package; ask it directly.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")):
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(ctypes.CDLL(str(library)), symbol, None)
            if getter is not None:
                threads = int(getter())
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "kernel": resolve_kernel(None),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the smoke test",
    )
    args = parser.parse_args(argv)

    present = [name for name in REFUSED_ENV if name in os.environ]
    if present:
        return _refuse(f"unset {', '.join(present)}: it changes the backend")
    if not (ROOT / "src" / "repro").is_dir():
        return _refuse(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import SCALES, WORKLOADS, Context

    if args.workload not in WORKLOADS:
        return _refuse(
            f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})"
        )
    host = host_facts()
    if host["blas_threads"] is not None and host["blas_threads"] > (host["nproc"] or 1):
        return _refuse(f"BLAS uses {host['blas_threads']} threads on {host['nproc']} CPUs")

    scratch = ROOT / ".perfbench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](
            Context(
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                sizes=SCALES[args.scale],
                workdir=workdir,
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    facts = {"workload": args.workload, "host": host, "samples": outcome.samples}
    print(json.dumps({**facts, "gates": outcome.gates}))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and all(outcome.gates.values()),
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
