"""Run the benchmark once per seed and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/repeat.py --workload ba-mule --workload extremal20 \
        --seeds 1-10 --seconds 30 --json point.json --label <commit>

Each (workload, seed) is one `run.py` invocation, one after another.  For
every metric it prints the median of the per-seed values, their quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median.  With
--json it writes those figures and a machine description to a file: one
point of the trajectory kept in perfbench/trajectory/.  Exit 1 if any
invocation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def summarise(workload: str, args) -> dict | None:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"{workload} seed {seed}: exit {proc.returncode}",
                  file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            + f" (invocation {time.perf_counter() - start:.1f} s)", flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                       else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "values": vals}
        print(f"{workload} {name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f} {units[name]}", flush=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path,
                        help="write the summary here as a trajectory point")
    parser.add_argument("--label", default="",
                        help="what was measured, e.g. a commit id")
    args = parser.parse_args(argv)

    workloads = {}
    for workload in args.workload:
        summary = summarise(workload, args)
        if summary is None:
            return 1
        workloads[workload] = summary
    if args.json:
        point = {"label": args.label, "seeds": args.seeds,
                 "seconds": args.seconds, "trace": args.trace,
                 "machine": machine(), "workloads": workloads}
        args.json.write_text(json.dumps(point, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
