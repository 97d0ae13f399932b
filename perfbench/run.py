"""deltastar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-algebra --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (the program is imported from
``src/``; nothing is installed).  The workload runs in a fresh
interpreter (perfbench/worker.py); untraced, set-up is measured over
``SETUP_RUNS`` fresh interpreters in all and reported as their median.
End-to-end times are reported at the reference speed of speed.py; the
table above the result line also gives them as measured (``raw``), and
the line ``# detail`` holds the sample counts and raw values as JSON.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced).  ``correct`` is
false when any op failed for a reason other than the known kappa-bracket
misses of ``bound_states``; every failed op is logged on standard error
and in ``perfbench/out``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exact-algebra", "point-interactions", "cli-mix")
SETUP_RUNS = 5
# the whole run, set-ups included, must end within 180 s
TIMEOUT_S = 170


def spawn(args, deadline):
    """Run the worker; return the seconds from spawn to ready, at the
    reference speed and as measured, and the worker's result.

    The worker runs in its own process group, so a timeout also stops the
    CLI processes it may have started.  Set-up is scaled to the reference
    speed with calibrations just before the spawn and just after ready."""
    before = speed.calibrate()
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    result = json.loads(out.strip().splitlines()[-1])
    setup = result["ready"] - t0
    factor, = speed.window_factors([before, result["ready_cal"]], 1)
    return setup * factor, setup, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "deltastar", "__init__.py")):
        print("error: no deltastar source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or bench["run_seconds"]

    speed.calibrate()  # the first call runs cold
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = [spawn(common + ["--setup-only"], deadline)
                  for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        setups.append(spawn(common, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    result = setups[-1][2]

    values, raw = dict(result["metrics"]), dict(result["raw"])
    samples = dict(result["samples"])
    if not args.trace:
        values["setup_s"] = statistics.median(s[0] for s in setups)
        raw["setup_s"] = statistics.median(s[1] for s in setups)
        samples["setup_s"] = len(setups)
    names = [m["name"] for m in specs]
    if sorted(values) != sorted(names):
        print("error: metrics %s do not match BENCHMARK.json %s"
              % (sorted(set(values) ^ set(names)), "per_layer" if args.trace
                 else "end_to_end"), file=sys.stderr)
        return 1

    print("# %s seed=%d trace=%d  attempted=%d failed=%d unexplained=%d"
          % (args.workload, args.seed, args.trace, result["attempted"],
             result["failed"], result["unexplained"]))
    if not args.trace:
        print("# times at reference speed (calibration %.3f ms); raw: as "
              "measured, median calibration %.3f ms"
              % (speed.REF_S * 1e3, raw["calibration_ms"]))
    for m in specs:
        n = m["name"]
        print("%-48s %16.6f %-6s n=%-8d%s" % (
            n, values[n], m["unit"], samples[n],
            "raw %.6f" % raw[n] if n in raw else ""))
    print("# detail " + json.dumps({"samples": samples, "raw": raw}, sort_keys=True))
    print(json.dumps({
        "correct": result["unexplained"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
