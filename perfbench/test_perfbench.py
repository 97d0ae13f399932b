"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import ops  # noqa: E402
import ref  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

WORKLOADS = sorted(gen.GENERATORS)


def digest(seed):
    inputs = {w: [gen.GENERATORS[w](seed, i) for i in range(60)]
              + gen.probe_inputs(w, seed) for w in WORKLOADS}
    return hashlib.sha256(gen.dumps(inputs)).hexdigest()


def test_same_seed_gives_byte_identical_inputs():
    code = ("import sys; sys.path.insert(0, %r); import test_perfbench as t; "
            "print(t.digest(7))" % HERE)
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run([sys.executable, "-c", code], env=env, cwd=HERE,
                           capture_output=True, text=True, check=True)
    assert other.stdout.strip() == digest(7) == digest(7)
    assert digest(8) != digest(7)


def test_exact_checker_rejects_perturbed_star():
    from deltastar import add, delta_dist
    kind = ops.ExactAlgebra()
    x = gen.exact_input(1, 0)
    out = kind.run(x, None, NULL)
    assert kind.check(x, None, out, NULL) is None
    out["P"] = add(out["P"], delta_dist(0, 0, 1, n=out["P"].n))
    failure = kind.check(x, None, out, NULL)
    assert failure.layer == "dist_core.star" and not failure.known


def _first_point_with_states():
    kind = ops.PointInteractions()
    for i in range(200):
        x = gen.point_input(1, i)
        p = kind.prepare(x)
        out = kind.run(x, p, NULL)
        if kind.check(x, p, out, NULL) is None and out.get("bound_states"):
            return kind, x, p, out
    raise AssertionError("no spec with a bound state in 200 ops")


def test_point_checker_rejects_dropped_bound_state():
    kind, x, p, out = _first_point_with_states()
    out["bound_states"] = out["bound_states"][1:]
    tr = Tracer()
    failure = kind.check(x, p, out, tr)
    assert failure.layer == "numerics.bound_states"
    assert not failure.known  # the state lies inside the kappa grid
    assert tr.counts["numerics.bound_states.found"] < tr.counts[
        "numerics.bound_states.expected"]


def test_bound_state_misses_outside_the_grid_are_known():
    # delta well of strength -200: rows [100, 100, -1, 1] and [1, -1, 0, 0]
    q = lambda v: (Fraction(v), Fraction(0))  # noqa: E731
    rows = ((q(100), q(100), q(-1), q(1)), (q(1), q(-1), q(0), q(0)))
    assert ref.bound_state_kappas(rows) == [100.0]
    failure = ops._check_bound_states([], rows, NULL)
    assert failure.known and ops.KNOWN_MISS in failure.reason
    assert ops._check_bound_states([-10000.0], rows, NULL) is None


def test_failed_inputs_depend_on_the_seed_only(tmp_path):
    # a run counts the failed inputs of its fixed op set, whatever the
    # number of passes the machine's speed allows
    import worker
    w = "point-interactions"
    kind = worker.make_kind(w)
    inputs = worker.Inputs(kind, w, 1, 2 * len(gen.POINT_SLOTS), 0)
    runs = []
    for seconds in (0, 0.5):
        log = worker.Log(w, 1, str(tmp_path / "failures.log"))
        lat, _, _, failed = worker.loop(kind, inputs, seconds, NULL, log, 1)
        assert len(lat) >= inputs.size and log.unexplained == 0
        runs.append(failed)
    assert runs[0] == runs[1]
    assert runs[0] and max(runs[0]) < inputs.size


def test_self_adjointness_criterion_matches_the_generator_intent():
    sa_kinds = set(gen.POINT_SLOTS[:14]) | {"delta_prime"}
    kind = ops.PointInteractions()
    for i in range(40):
        x = gen.point_input(3, i)
        if x["kind"] not in sa_kinds:
            continue
        out = kind.run(x, kind.prepare(x), NULL)
        assert ref.self_adjoint(ops._qrows(out["rows"])), x


def _cli_out(rc, out="", err=""):
    return {"layer": "cli.x", "timeout": False, "rc": rc, "out": out, "err": err}


def test_cli_checker_rejects_wrong_exit_code():
    kind = ops.CliMix(ROOT)
    bad = next(x for x in (gen.cli_input(1, i) for i in range(40)) if x["exit"])
    p = kind.prepare(bad)
    assert kind.check(bad, p, _cli_out(bad["exit"]), NULL) is None
    assert "exit 0" in kind.check(bad, p, _cli_out(0), NULL).reason
    tb = _cli_out(bad["exit"], err="Traceback (most recent call last):\nBoom")
    assert "traceback" in kind.check(bad, p, tb, NULL).reason


def test_cli_checker_compares_output_with_the_api():
    kind = ops.CliMix(ROOT)
    x = {"sub": "product", "argv": ["product", "delta(0)*heaviside(0)"], "exit": 0}
    p = kind.prepare(x)
    assert kind.check(x, p, _cli_out(0, "delta(0)\n"), NULL) is None
    assert kind.check(x, p, _cli_out(0, "0\n"), NULL) is not None
    out = kind.run(x, p, NULL)
    assert kind.check(x, p, out, NULL) is None


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "exact-algebra", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    specs = _bench()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}
    assert lines[-2].startswith("# detail ")
    detail = json.loads(lines[-2][len("# detail "):])
    assert sorted(detail["samples"]) == sorted(result["metrics"])
    if not trace:
        assert sorted(detail["raw"]) == ["calibration_ms", "op_p50_ms",
                                         "ops_per_s", "setup_s"]


def test_workload_names_match_benchmark_json():
    import run
    assert sorted(w["name"] for w in _bench()["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
