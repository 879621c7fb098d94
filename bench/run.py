"""capsintent benchmark: one workload, timed, checked, one JSON result.

    python3 bench/run.py --workload {train,curve,infer} --seed N --seconds S --trace {0,1}

Run it from a source checkout: it imports ``capsintent`` from ``src/`` next
to this directory and exits with code 2, printing no result, when that is
missing. The seed is the corpus seed; the same seed gives the same inputs.

Each run sets up its inputs seven times (``setup_s`` is the median), warms
up, then repeats the workload's unit of work, each followed by a few timed
``predict`` calls, until the next unit would end after ``--seconds``, and
checks every output. The reference kernel (reference.py) is timed after
every set-up, every unit and every batch of ``predict`` calls, and
``setup_s`` and the ``*_ref`` metrics are those times scaled to a fixed host
speed. The last line of standard
output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every unit runs twice, untraced and then traced, and the
metrics are per-layer self times from the traced copies (see tracing.py).
The exit code is 1 when a check failed. NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer metrics of set-up work are per set-up; all others per timed unit
SETUP_LAYERS = ("datasets.", "checkpoint.")


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, refused unless at least ten samples
    lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it, fewer than 10")
    return sorted(values)[rank - 1]


E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "utt_per_s_ref": "1/s",
             "predict_ms_p50_ref": "ms", "predict_ms_p90_ref": "ms"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_us_per_frame"):
        return "us/frame"
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace."):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    from reference import reference_seconds, scale
    from tracing import Tracer, root_time
    from workloads import CHECK_CALLS, ROUND_CALLS

    references = []
    scaled_latencies = []

    def rescale_since(first: int) -> float:
        """Time the reference kernel and scale the latencies recorded since
        index ``first`` by it. Returns the kernel's time."""
        references.append(reference_seconds())
        scaled_latencies.extend(scale(ms, references[-1]) for ms in workload.latencies[first:])
        return references[-1]

    def serve(k: int, calls: int) -> None:
        first = len(workload.latencies)
        workload.serve(k, calls)
        rescale_since(first)

    setup_tracer = Tracer() if trace else None
    setup_walls, scaled_setups = [], []
    reference_seconds()   # warm the kernel up
    with setup_tracer or contextlib.nullcontext():
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup()
            setup_walls.append(perf_counter() - start)
            scaled_setups.append(scale(setup_walls[-1], rescale_since(0)))
    workload.warmup()

    unit_tracer = Tracer() if trace else None
    rates, scaled_rates, walls, traced_walls = [], [], [], []
    loop_start = perf_counter()
    k = 0
    while True:
        first = len(workload.latencies)
        start = perf_counter()
        work = workload.unit(k)
        walls.append(perf_counter() - start)
        reference = rescale_since(first)
        rates.append(work / walls[-1])
        scaled_rates.append(work / scale(walls[-1], reference))
        if unit_tracer is not None:
            with unit_tracer:
                start = perf_counter()
                workload.unit(k)
                traced_walls.append(perf_counter() - start)
        if workload.probe_calls:
            serve(k, workload.probe_calls)
        k += 1
        elapsed = perf_counter() - loop_start
        if k >= (1 if trace else workload.min_units) and elapsed * (k + 1) / k > seconds:
            break
    while len(scaled_latencies) < CHECK_CALLS:
        serve(k, ROUND_CALLS)
        k += 1
    quality = workload.finish()
    latencies = workload.latencies

    if trace:
        per_setup = setup_tracer.layer_metrics(per=SETUP_REPEATS)
        per_unit = unit_tracer.layer_metrics(per=len(traced_walls))
        metrics = {name: (per_setup if name.startswith(SETUP_LAYERS) else per_unit)[name]
                   for name in per_unit}
        metrics["trace.coverage"] = root_time(unit_tracer.spans) / sum(traced_walls)
        metrics["trace.overhead"] = statistics.median(
            t / u for t, u in zip(traced_walls, walls))
        absent = sorted(setup_tracer.absent)
    else:
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "utt_per_s_ref": statistics.median(scaled_rates),
        }
        try:
            metrics["predict_ms_p50_ref"] = percentile(scaled_latencies, 50)
            metrics["predict_ms_p90_ref"] = percentile(scaled_latencies, 90)
        except ValueError as exc:
            workload.fail(f"predict latency: {exc}")
        absent = []
    return {
        "info": {"units": len(walls), "predict_calls_timed": len(latencies),
                 "raw": {"setup_s": statistics.median(setup_walls),
                         "utt_per_s": statistics.median(rates),
                         "predict_ms_p50": percentile(latencies, 50),
                         "predict_ms_p90": percentile(latencies, 90),
                         "reference_ms": 1e3 * statistics.median(references),
                         "reference_ms_range": [1e3 * min(references), 1e3 * max(references)]},
                 "setup_walls_s": setup_walls, "unit_walls_s": walls,
                 "traced_walls_s": traced_walls, "absent_metrics": absent,
                 "quality": quality, "problems": workload.problems},
        "result": {
            "correct": not workload.problems,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "curve", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "capsintent" / "__init__.py").is_file():
        print(f"bench: {src}/capsintent not found; run from a capsintent source checkout",
              file=sys.stderr)
        return 2
    # one BLAS thread, set before NumPy loads its BLAS: the benchmark measures
    # one process, and BLAS threads would compete with it for the cores
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    with tempfile.TemporaryDirectory(prefix=".benchtmp-", dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        out = measure(workload, args.seconds, bool(args.trace))
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(), **out["info"]}
    for problem in workload.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
