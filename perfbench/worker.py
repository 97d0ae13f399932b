"""One workload run in a fresh interpreter.  Started by run.py; not a CLI
for people.

Set-up (imports, input generation, expected outputs, warm-up) ends at the
first timed op; the ``ready`` timestamp printed with the result is on the
system-wide monotonic clock, so the parent can measure set-up from its own
spawn time, and ``ready_cal`` is a speed calibration (speed.py) taken right
after it.  ``--setup-only`` stops there.

Each run works through a fixed set of ``OP_SET`` inputs made from the
seed, in passes, until ``--seconds`` have passed and at least one whole
pass is done.  ``attempted`` is the size of that set and ``failed`` the
number of its inputs whose op failed a check, so both depend on the seed
alone and not on how fast the machine ran.

Untraced (``--trace 0``): one closed loop of ops for ``--seconds``; the
times are reported at the reference speed (``metrics``) and as measured,
with the median calibration of the loop (``raw``).
Traced (``--trace 1``): the loop untraced for half the time, then traced
for the other half on the same inputs (their ratio is the tracing
overhead), then a fixed probe of the other two op kinds, a scalar
micro-batch and the CLI import and interpreter floors, so that every
per-layer metric has samples.  Spans are written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import ops  # noqa: E402
import speed  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

# inputs of one run, a whole number of generator blocks (gen.py) taking
# about a third of run_seconds per pass on the recorded machine
OP_SET = {"exact-algebra": 768, "point-interactions": 240, "cli-mix": 12}
# inputs generated and prepared during set-up; the rest are made on demand
# between ops of the first pass, outside the timed region
POOL = {"exact-algebra": 128, "point-interactions": 120, "cli-mix": 12}
WARMUP = {"exact-algebra": 6, "point-interactions": 20, "cli-mix": 1}
CALIBRATE_EVERY_S = 0.5
# reach of the calibrations that scale a window (speed.window_factors):
# windows of in-process ops last CALIBRATE_EVERY_S, a cli-mix window one op
CALIBRATION_REACH = {"exact-algebra": 2, "point-interactions": 2, "cli-mix": 1}

IN_PROCESS_LAYERS = (
    "dist_core.star", "dist_core.derivative", "dist_core.add",
    "limit_oracle.star_limit_oracle",
    "expr_io.parse_dist", "expr_io.format_dist", "expr_io.encode",
    "expr_io.decode",
    "boundary_ops.constraint_rows",
    "schrodinger.extract_bc", "schrodinger.BCMatrix.reduced",
    "schrodinger.BCMatrix.kernel_basis", "schrodinger.classify",
    "schrodinger.represent", "schrodinger.sesquilinear_form",
    "numerics.scattering", "numerics.bound_states",
    "numerics.grid_hamiltonian", "numerics.grid_eigenvalues",
)
CLI_LAYERS = gen.SUBCOMMANDS + ("error_exit",)


def make_kind(workload):
    cls = ops.KINDS[workload]
    return cls(ROOT) if workload == "cli-mix" else cls()


class Inputs:
    """The run's ``size`` op inputs by index, with their prepared form."""

    def __init__(self, kind, workload, seed, size, pool):
        self.kind, self.make, self.seed = kind, gen.GENERATORS[workload], seed
        self.size = size
        self.pool = []
        for i in range(min(pool, size)):
            self[i]

    def __getitem__(self, i):
        while len(self.pool) <= i:
            x = self.make(self.seed, len(self.pool))
            self.pool.append((x, self.kind.prepare(x)))
        return self.pool[i]


class Log:
    """Failed ops: one line each on stderr and in perfbench/out."""

    def __init__(self, workload, seed, path):
        self.workload, self.seed, self.path = workload, seed, path
        self.lines = []
        self.unexplained = 0

    def add(self, op, index, x, failure):
        if not failure.known:
            self.unexplained += 1
        line = ("FAILED workload=%s seed=%d op=%s index=%s layer=%s known=%s "
                "reason=%s input=%s") % (
            self.workload, self.seed, op, index, failure.layer,
            "yes" if failure.known else "NO", failure.reason,
            json.dumps(x, sort_keys=True))
        self.lines.append(line)
        print(line, file=sys.stderr)

    def write(self):
        with open(self.path, "w") as fh:
            fh.writelines(line + "\n" for line in self.lines)


def run_op(kind, x, p, tr, op, log, index):
    """One op on input ``index``: time the program calls, then check the
    result untimed."""
    tr.op = op
    t0 = perf_counter()
    try:
        out = kind.run(x, p, tr)
    except Exception as exc:  # an op must not stop the run; it is a failure
        elapsed = perf_counter() - t0
        log.add(op, index, x, ops.Failure(
            "raised %s" % traceback.format_exception_only(exc)[-1].strip(),
            "op", False))
        return elapsed, False
    elapsed = perf_counter() - t0
    failure = kind.check(x, p, out, tr)
    if failure:
        tr.mark_failed(op, failure.layer)
        log.add(op, index, x, failure)
    return elapsed, failure is None


def loop(kind, inputs, seconds, tr, log, reach):
    """Closed loop over the inputs, in passes from input 0, until
    ``seconds`` pass and at least one whole pass is done.

    Returns the op latencies scaled to the reference speed (speed.py;
    calibrated at least every CALIBRATE_EVERY_S, each window scaled by the
    calibrations within ``reach``) and as measured, the calibrations taken
    and the indices of the inputs whose op failed."""
    windows, cals, pending, failed = [], [speed.calibrate()], [], set()
    deadline = perf_counter() + seconds
    next_cal = perf_counter() + CALIBRATE_EVERY_S
    op = 0
    while True:
        index = op % inputs.size
        x, p = inputs[index]
        elapsed, ok = run_op(kind, x, p, tr, op, log, index)
        pending.append(elapsed)
        if not ok:
            failed.add(index)
        op += 1
        now = perf_counter()
        done = now >= deadline and op >= inputs.size
        if now >= next_cal or done:
            cals.append(speed.calibrate())
            windows.append(pending)
            pending = []
            next_cal = perf_counter() + CALIBRATE_EVERY_S
            if done:
                break
    factors = speed.window_factors(cals, reach)
    lat = [t * f for window, f in zip(windows, factors) for t in window]
    raw = [t for window in windows for t in window]
    return lat, raw, cals, failed


def rate(lat):
    """Ops per second of op time."""
    return len(lat) / sum(lat)


def pct(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# traced-run extras


def probe(workload, seed, tr, log):
    attempted = failed = 0
    for name in ops.KINDS:
        if name == workload:
            continue
        kind = make_kind(name)
        for j, x in enumerate(gen.probe_inputs(name, seed)):
            op = "probe:%s:%d" % (name, j)
            _, ok = run_op(kind, x, kind.prepare(x), tr, op, log, op)
            attempted += 1
            failed += not ok
    return attempted, failed


def scalar_ns():
    """ns per Scalar mul/add/div over operands of exact-algebra seed 0."""
    from deltastar import expr_io
    vals = []
    for i in range(64):
        x = gen.exact_input(0, i)
        for text in (x["f"], x["g"]):
            F = expr_io.parse_dist(text, n_cap=x["n"])
            vals += [c for piece in F.pieces for c in piece.coeffs]
            vals += [d.coeff for d in F.deltas]
    pairs = list(zip(vals, vals[1:] + vals[:1]))
    out, n = {}, {}
    for name, fn in (("mul", operator.mul), ("add", operator.add),
                     ("div", operator.truediv)):
        batch = [(a, b) for a, b in pairs if name != "div" or not b.is_zero]
        times = []
        for _ in range(7):
            t0 = perf_counter()
            for a, b in batch:
                fn(a, b)
            times.append((perf_counter() - t0) / len(batch))
        key = "dist_core.Scalar.%s_ns" % name
        out[key] = statistics.median(times) * 1e9
        n[key] = len(batch) * len(times)
    return out, n


def _python(code, env):
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)


def cli_floors():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = ("import time; t = time.perf_counter(); import deltastar.cli; "
            "print(time.perf_counter() - t)")
    imports = [float(_python(code, env).stdout) for _ in range(3)]
    floors = []
    for _ in range(5):
        t0 = perf_counter()
        _python("pass", env)
        floors.append(perf_counter() - t0)
    return ({"cli.import_s": statistics.median(imports),
             "cli.floor_s": statistics.median(floors)},
            {"cli.import_s": len(imports), "cli.floor_s": len(floors)})


def layer_metrics(tr):
    """Per-layer metrics and the sample count behind each."""
    stats = tr.layer_stats()
    out, n = {}, {}
    for name in IN_PROCESS_LAYERS:
        calls, busy, p50, failed = stats.get(name, (0, 0.0, 0.0, 0))
        out[name + ".calls"] = calls
        out[name + ".busy_ms"] = busy * 1e3
        out[name + ".p50_us"] = p50 * 1e6
        out[name + ".failed"] = failed
        n.update(dict.fromkeys((name + s for s in (".calls", ".busy_ms",
                                                   ".p50_us", ".failed")), calls))
    for sub in CLI_LAYERS:
        calls, _, p50, _ = stats.get("cli." + sub, (0, 0, 0.0, 0))
        out["cli.%s.p50_ms" % sub] = p50 * 1e3
        n["cli.%s.p50_ms" % sub] = calls
    c = tr.counts
    out["expr_io.parse_dist.bytes"] = c.get("expr_io.parse_dist.bytes", 0)
    n["expr_io.parse_dist.bytes"] = stats.get("expr_io.parse_dist", (0,))[0]
    expected = c.get("numerics.bound_states.expected", 0)
    out["numerics.bound_states.found_ratio"] = (
        c.get("numerics.bound_states.found", 0) / expected if expected else 1.0)
    n["numerics.bound_states.found_ratio"] = expected
    out["numerics.scattering.singular"] = c.get("numerics.scattering.singular", 0)
    n["numerics.scattering.singular"] = stats.get("numerics.scattering", (0,))[0]
    return out, n


# --------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ops.KINDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    w = args.workload

    kind = make_kind(w)
    inputs = Inputs(kind, w, args.seed, OP_SET[w], POOL[w])
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (w, args.seed, args.trace))
    log = Log(w, args.seed, stem + ".failures.log")
    for i in range(WARMUP[w]):
        x, p = inputs[i]
        kind.run(x, p, NULL)
    ready = time.monotonic()
    speed.calibrate()  # the first call runs cold
    ready_cal = speed.calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_cal": ready_cal}))
        return 0

    reach = CALIBRATION_REACH[w]
    if not args.trace:
        lat, raw_lat, cals, failed = loop(kind, inputs, args.seconds, NULL, log, reach)
        metrics, raw = {}, {}
        for out, values in ((metrics, lat), (raw, raw_lat)):
            out.update(ops_per_s=rate(values), op_p50_ms=pct(values, 50) * 1e3)
        metrics["peak_rss_mib"] = peak_rss_mib(w)
        raw["calibration_ms"] = statistics.median(cals) * 1e3
        samples = dict.fromkeys(metrics, len(lat))
        samples["peak_rss_mib"] = 1
        attempted, failed = inputs.size, len(failed)
    else:
        lat, _, _, failed = loop(kind, inputs, args.seconds / 2, NULL, log, reach)
        tr = Tracer()
        tlat, _, _, tfailed = loop(kind, inputs, args.seconds / 2, tr, log, reach)
        pa, pf = probe(w, args.seed, tr, log)
        metrics, samples = layer_metrics(tr)
        for more, n in (scalar_ns(), cli_floors()):
            metrics.update(more)
            samples.update(n)
        metrics["trace.overhead_frac"] = rate(lat) / rate(tlat) - 1.0
        metrics["op_p90_ms"] = pct(lat, 90) * 1e3
        metrics["op_p99_ms"] = pct(lat, 99) * 1e3
        metrics["failed_frac"] = len(failed) / inputs.size
        samples.update(dict.fromkeys(("op_p90_ms", "op_p99_ms"), len(lat)))
        samples["failed_frac"] = inputs.size
        samples["trace.overhead_frac"] = len(lat) + len(tlat)
        attempted = inputs.size + pa
        failed = len(failed | tfailed) + pf
        raw = {}
        tr.write(stem + ".spans.jsonl")
    log.write()
    print(json.dumps({
        "ready": ready, "ready_cal": ready_cal,
        "attempted": attempted, "failed": failed,
        "unexplained": log.unexplained, "metrics": metrics, "samples": samples,
        "raw": raw,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
