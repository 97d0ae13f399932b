"""Run the benchmark over several seeds and record the results.

    python3 perfbench/record.py --seeds 1-10 --trace 0 --out perfbench/results/run.json

For each workload and seed it runs perfbench/run.py once for run_seconds
of BENCHMARK.json (sequentially, so runs do not compete for the two cores)
and keeps its result line, sample counts and raw values.  Per workload and
metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, both for the
metrics at the reference speed and for the raw values as measured.  The
output file also holds the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import speed
from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETAIL = "# detail "


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def machine():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=[1])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    report = {"machine": machine(), "seconds": seconds, "trace": args.trace,
              "ref_calibration_ms": speed.REF_S * 1e3, "seeds": args.seeds,
              "workloads": {}}
    for w in WORKLOADS:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, proc.returncode),
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            detail = json.loads(lines[-2][len(DETAIL):])
            runs.append(dict(json.loads(lines[-1]), seed=seed, **detail))
            print("%s seed %d done" % (w, seed), file=sys.stderr)
        units = {n: m["unit"] for n, m in runs[0]["metrics"].items()}
        report["workloads"][w] = {
            "runs": runs,
            "metrics": {
                n: dict(summarize([r["metrics"][n]["value"] for r in runs]),
                        unit=units[n])
                for n in units
            },
            "raw": {n: summarize([r["raw"][n] for r in runs])
                    for n in runs[0]["raw"]},
        }
        for n, s in report["workloads"][w]["metrics"].items():
            print("%-20s %-44s median %14.6f %-6s spread %s" % (
                w, n, s["median"], s["unit"],
                "-" if s["spread"] is None else "%.4f" % s["spread"]))
        for n, s in report["workloads"][w]["raw"].items():
            print("%-20s %-44s median %14.6f raw    spread %.4f" % (
                w, n, s["median"], s["spread"]))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
