"""Run one workload over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 bench/spread.py --workload train --seeds 1 2 3 4 5 --seconds 25

The spread is (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``. A metric whose spread exceeds a
third of its bound is marked ``WIDE``. Runs are sequential, one process at
a time, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        flag = "WIDE" if spread > metric["bound"] / 3 else "ok"
        print(f"{args.workload:6s} {metric['name']:16s} median {median:.6g} {metric['unit']:4s} "
              f"spread {spread:.4f} bound {metric['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
