import argparse
import contextlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import deltastar
from deltastar import boundary_ops, delta_dist, dist_core, limit_oracle, numerics, schrodinger
from deltastar.cli import build_parser, main
from deltastar.expr_io import decode, parse_dist
from deltastar.schrodinger import (
    InteractingSA,
    PointPotential,
    PseudoPotential,
    classify,
)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0, err
    return json.loads(out)


def cell(value):
    return complex(value.replace("i", "j"))


def test_product_text(capsys):
    rc, out, err = run(capsys, "product", "delta(0)*heaviside(0)")
    assert rc == 0
    assert out == "delta(0)\n"


def fresh(*args, timeout=10):
    """Run python with args in a fresh process on this source tree."""
    src = os.path.dirname(os.path.dirname(deltastar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_product_high_delta_order_is_fast():
    # a fresh process, killed at the bound: the product expands the delta
    # against the constant right piece of heaviside, which has one
    # nonvanishing derivative, so the order must not set the work
    done = fresh("-m", "deltastar", "product",
                 "delta^100000000(0)*heaviside(0)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "delta^100000000(0)\n"


def test_product_json_record_decodes(capsys):
    payload = run_json(capsys, "product", "D(heaviside(0))")
    assert payload["status"] == "ok"
    assert payload["result"] == "delta(0)"
    assert decode(payload["record"]) == delta_dist(0, 0)


def test_product_parse_error_exits_2(capsys):
    rc, out, err = run(capsys, "product", "delta(")
    assert rc == 2
    assert "offset" in err and out == ""


def test_product_regularity_cap_exits_2(capsys):
    rc, out, err = run(capsys, "product", "delta^2(0)", "--n-cap", "1")
    assert rc == 2


def test_negative_cap_is_refused_naming_the_cap(capsys):
    # the cap was blamed on the text: "regularity index must be a
    # nonnegative integer at offset 12", "delta order 0 exceeds the
    # regularity cap -1 at offset 0"
    for expr in ("piece(0,1:x)", "delta(0)"):
        rc, out, err = run(capsys, "product", expr, "--n-cap=-1")
        assert rc == 2 and out == ""
        assert err == ("parse error: regularity cap must be a nonnegative "
                       "integer, got -1\n")
    for cap in (-1, 1.5, "1"):
        with pytest.raises(ValueError, match="^regularity cap must be a "
                           "nonnegative integer, got %r$" % (cap,)):
            parse_dist("delta(0)", n_cap=cap)


def test_product_hostile_inputs_exit_2(capsys):
    for expr in ("piece(0,1: x^100000000)", "(" * 3000 + "1" + ")" * 3000,
                 "1/0", "delta(1/0)"):
        rc, out, err = run(capsys, "product", expr)
        assert rc == 2
        assert err.startswith("parse error:") and out == ""


def test_classify_delta_well(capsys):
    payload = run_json(capsys, "classify", "--c1", "-1", "--c2", "-1")
    assert payload["kind"] == "interacting"
    assert payload["jump"] == "-2"
    assert decode(payload["classification"]) == InteractingSA(0, 0, -1)


def test_classify_reads_exponent_tokens(capsys):
    # the sign after "e" is the exponent's, not the one between two parts
    for c1, same in (("1e-5i", "1/100000i"), ("2+1E+2i", "2+100i")):
        rc, out, err = run(capsys, "classify", "--c1", c1, "--c2", "0")
        assert rc == 0 and err == ""
        assert (rc, out, err) == run(capsys, "classify", "--c1", same, "--c2", "0")


def test_classify_theta_family(capsys):
    payload = run_json(capsys, "classify", "--b1", "1/3", "--b2", "1/3")
    assert payload["kind"] == "interacting"
    assert payload["theta"] == "2"


def test_classify_not_self_adjoint(capsys):
    payload = run_json(capsys, "classify", "--c1", "1i")
    assert payload["kind"] == "not-self-adjoint"


def test_classify_bad_scalar_exits_2(capsys):
    rc, out, err = run(capsys, "classify", "--c1", "abc")
    assert rc == 2
    # a zero denominator is malformed input, not a division; an exponent
    # past 4300 would have Fraction compute 10**exponent; an empty value
    # still selects its flag
    for argv, message in (
        (["classify", "--c1", "1/0"], "zero denominator"),
        (["represent", "--interacting", "1/0,0,0"], "zero denominator"),
        (["weaklimit", "--dist", "piece(0,1:x)", "--test", "1/0"],
         "zero denominator"),
        (["classify", "--c1", "1e20000000"], "exponent too large"),
        (["classify", "--c1", "1e-4301"], "exponent too large"),
        (["classify", "--c1", "1e-20000000i"], "exponent too large"),
        (["classify", "--c1", "1.5/2"], "malformed number '1.5/2'"),
        (["represent", "--interacting=1e20000000,0,0"], "exponent too large"),
        (["spectrum", "--theta="], "empty scalar token"),
        (["spectrum", "--delta="], "empty scalar token"),
        (["scatter", "--potential="], "--potential takes 4"),
        (["spectrum", "--deltaprime="], "--deltaprime takes 4"),
        (["represent", "--interacting="], "--interacting takes 3"),
        (["represent", "--separating="], "--separating takes 4"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("parse error: " + message), err


def test_long_number_exits_2_naming_the_limit(capsys):
    # past Python's 4300-digit limit on int text the message is about the
    # input, not the interpreter's sys.set_int_max_str_digits()
    for argv, tail in ((["product", "delta(%s)" % ("1" * 5000)], " at offset 6"),
                       (["classify", "--c1", "7" * 5000, "--c2", "0"], "")):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "parse error: number has more than 4300 digits%s\n" % tail


def test_huge_exponent_exits_2_fast():
    # a fresh process, killed at the bound: 10**20000000 is never built
    done = fresh("-m", "deltastar", "classify", "--c1", "1e20000000")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        "parse error: exponent too large in '1e20000000'\n")


def test_long_sum_parses_fast(monkeypatch):
    # a fresh process, killed at the bound: a running sum re-merged every
    # breakpoint once per term, cubic in the number of terms
    ks = range(2000)
    hi = [str(k + 1) for k in ks[:-1]] + ["inf"]
    terms = {
        "delta(%d)": ["delta(%d)" % k for k in ks],
        "3*heaviside(%d)": ["piece(%d,%s: %d)" % (k, hi[k], 3 * k + 3) for k in ks],
        "piece(%d,inf: x)": ["piece(%d,%s: %d*x)" % (k, hi[k], k + 1) for k in ks],
    }
    for term, want in terms.items():
        done = fresh("-m", "deltastar", "product", "+".join(term % k for k in ks))
        assert done.returncode == 0, done.stderr
        assert done.stdout == " + ".join(want).replace(" 1*x", " x") + "\n"
    # the same sums without a clock: the parts handed to the canonical
    # builder, and the Poly additions, grow as N log N at most (a ratio of
    # ~4.7 from 1 000 to 4 000 terms); a running sum would hand the builder
    # ~N^2 / 2 parts, and adding each wide piece into every interval it
    # covers would take ~N^2 / 2 additions (a ratio of ~16)
    build, plus, parts, adds = dist_core._build, dist_core.Poly.__add__, [0], [0]

    def counting(n, pts, ps, deltas, F=None):
        parts[0] += len(pts) + len(ps) + len(deltas)
        return build(n, pts, ps, deltas, F)

    def counting_plus(p, q):
        adds[0] += 1
        return plus(p, q)

    monkeypatch.setattr(dist_core, "_build", counting)
    monkeypatch.setattr(dist_core.Poly, "__add__", counting_plus)
    for term in terms:
        counts = []
        for size in (1000, 4000):
            parts[0] = adds[0] = 0
            parse_dist("+".join(term % k for k in range(size)))
            counts.append((parts[0], adds[0]))
        for before, after in zip(*counts):
            assert after <= 6 * before, (term, counts)


def test_represent_interacting_round_trip(capsys):
    payload = run_json(capsys, "represent", "--interacting", "0,1/2,-3/2")
    assert payload["family"] == "conjugate-pair"
    spec = decode(payload["specs"][0])
    assert classify(spec) == InteractingSA(0, "1/2", "-3/2")


def test_represent_opposite_sign_with_override(capsys):
    payload = run_json(
        capsys, "represent", "--interacting", "0,0,2", "--b1", "1/3"
    )
    assert payload["family"] == "opposite-sign"
    spec = decode(payload["specs"][0])
    assert classify(spec) == InteractingSA(0, 0, 2)


def test_represent_pseudo_only(capsys):
    payload = run_json(capsys, "represent", "--interacting", "0,1i,1")
    assert payload["family"] == "pseudo-only"
    assert isinstance(decode(payload["specs"][0]), PseudoPotential)
    assert payload["notes"]


def test_represent_degenerate_exits_3(capsys):
    # (1 + conj b)(1 - b) = a c: the rows separate the half-lines
    rc, out, err = run(capsys, "represent", "--interacting", "0,1,5")
    assert rc == 3 and out == ""
    assert err == ("error: the conditions separate the half-lines: "
                   "SeparatingSA(a_minus=0, b_minus=1, a_plus=1, b_plus=5/2)\n")


def test_represent_separating_overrides(capsys):
    payload = run_json(
        capsys, "represent", "--separating", "0,1,0,1", "--c1", "3", "--c2", "4"
    )
    assert payload["family"] == "separating"
    assert payload["params"]["free"] == "c1,c2"


# argv selecting a family -> (its printed name, the overrides it takes)
_FAMILY_OVERRIDES = {
    "--interacting=0,0,2": ("opposite-sign", ("b1", "c1")),
    "--interacting=0,1/2,-3/2": ("conjugate-pair", ("k1",)),
    "--separating=0,1,0,1": ("separating", ("c1", "c2")),
    "--interacting=0,1i,1": ("pseudo-only", ()),
    "--separating=1,1,1,1": ("pseudo-only", ()),
    "--bc=0,0,1,0;0,0,0,1": ("from-bc", ()),
}


def test_represent_refuses_overrides_the_family_does_not_take(capsys):
    # every set of one or two overrides, with a good and a malformed value:
    # an override the family does not take was ignored, with exit 0
    names = ("k1", "b1", "c1", "c2")
    sets = [(a,) for a in names] + list(itertools.combinations(names, 2))
    for selector, (family, takes) in _FAMILY_OVERRIDES.items():
        for given in sets:
            for value in ("1/3", "abc"):
                argv = ["--%s=%s" % (name, value) for name in given]
                rc, out, err = run(capsys, "represent", selector, *argv)
                refused = [name for name in given if name not in takes]
                if refused:
                    assert rc == 3 and out == "", (selector, argv)
                    assert err == "error: family %s takes no --%s override\n" % (
                        family, refused[0])
                elif value == "abc":
                    assert rc == 2 and err.startswith("parse error:")
                else:
                    assert rc == 0, (selector, argv, err)
                    assert out.startswith("family %s\n" % family)
    # the family's own check stays: c2 is fixed when only c1 is free
    rc, out, err = run(capsys, "represent", "--separating=0,1,1,2", "--c2=2")
    assert rc == 3 and err == "error: c2 is fixed in this family\n"


def test_represent_from_bc_neumann(capsys):
    payload = run_json(capsys, "represent", "--bc", "0,0,1,0;0,0,0,1")
    assert payload["family"] == "from-bc"
    assert any("not representable" in n for n in payload["notes"])
    assert isinstance(decode(payload["specs"][0]), PseudoPotential)


def test_represent_from_bc_recognizes_jump(capsys):
    payload = run_json(capsys, "represent", "--bc", "1,-1,0,0;2,0,1,-1")
    # continuity with psi'(0+) - psi'(0-) = 2 psi(0)
    assert any("jump 2" in n for n in payload["notes"])
    assert len(payload["specs"]) == 2
    # psi(0+) = theta psi(0-), psi'(0+) = psi'(0-)/theta; theta = -1 has
    # no potential, so it gets no note; and the double Dirichlet form
    for rows, note, spec in (
        ("2,-1,0,0;0,0,1,-2", "theta conditions with theta 2",
         PointPotential(0, 0, Fraction(1, 3), Fraction(1, 3))),
        ("1,1,0,0;0,0,1,1", None, None),
        ("1,0,0,0;0,1,0,0", "double Dirichlet point form",
         PointPotential(1, 1, 1, -1)),
        ("2,3,0,0;1,-1,0,0", "double Dirichlet point form",
         PointPotential(1, 1, 1, -1)),
    ):
        payload = run_json(capsys, "represent", "--bc", rows)
        assert payload["notes"] == ([note] if note else [])
        assert [decode(r) for r in payload["specs"][1:]] == ([spec] if spec else [])


def test_represent_bc_rank_check_exits_3(capsys):
    rc, out, err = run(capsys, "represent", "--bc", "1,0,0,0;2,0,0,0")
    assert rc == 3


def test_scatter_table(capsys):
    payload = run_json(capsys, "scatter", "--delta", "-2", "--k", "1,2")
    assert payload["columns"][0] == "k"
    assert len(payload["rows"]) == 2
    row = payload["rows"][0]
    t = cell(row[2])
    assert abs(t - 2j / (2j + 2)) < 1e-12
    assert abs(float(row[5]) + float(row[6]) - 1.0) < 1e-12
    assert row[7] == "0"


def test_scatter_singular_row(capsys):
    payload = run_json(capsys, "scatter", "--bc", "1,0,0,0;0,0,1,0")
    assert payload["rows"][0][7] == "1"
    assert payload["rows"][0][1] == "nan"


def test_spectrum_bound_state(capsys):
    payload = run_json(capsys, "spectrum", "--delta", "-2")
    rows = payload["rows"]
    assert rows and rows[0][0] == "bound"
    assert abs(float(rows[0][2]) + 1.0) < 1e-9


def test_spectrum_with_grid(capsys):
    payload = run_json(
        capsys, "spectrum", "--delta", "-2", "--grid", "0.2,10,400"
    )
    sources = {r[0] for r in payload["rows"]}
    assert sources == {"bound", "grid"}
    grid_e = [float(r[2]) for r in payload["rows"] if r[0] == "grid"]
    assert grid_e[0] < 0


def test_spectrum_grid_needs_strength(capsys):
    rc, out, err = run(capsys, "spectrum", "--bc", "0,1,0,0;1,0,0,0",
                       "--grid", "0.1,10,100")
    assert rc == 3


def test_scatter_infinite_k_exits_3(capsys):
    rc, out, err = run(capsys, "scatter", "--delta", "-2", "--k=inf")
    assert rc == 3
    assert out == ""
    assert "finite" in err and "Traceback" not in err


def test_scatter_huge_k_is_unitary(capsys):
    payload = run_json(capsys, "scatter", "--delta", "-2", "--k=1e308")
    row = payload["rows"][0]
    assert row[7] == "0"
    r, t = cell(row[1]), cell(row[2])
    assert abs(r) ** 2 + abs(t) ** 2 == 1.0
    assert float(row[5]) + float(row[6]) == 1.0


def test_spectrum_deep_well(capsys):
    rc, out, err = run(capsys, "spectrum", "--delta=-200")
    assert rc == 0
    assert out.splitlines() == ["source,index,energy", "bound,0,-10000"]


def test_spectrum_of_roots_below_the_float_range(capsys):
    # kappa = 3e-400 and 1e-400: the energies round to -0, not a traceback
    rc, out, err = run(capsys, "spectrum", "--bc=-3e-400,0,1,0;0,1e-400,0,1")
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["source,index,energy", "bound,0,-0", "bound,1,-0"]


def test_spectrum_of_coefficients_past_the_float_range(capsys):
    # kappa = 1 beside a row holding 1e400, and kappa = 1e154, whose energy
    # -1e308 is a float: no coefficient of D has to be one
    for bc, want in (("1e400,0,1,0;0,1,0,1", "bound,0,-1"),
                     ("-1e154,0,1,0;0,-1e154,0,1", "bound,0,-1e+308")):
        rc, out, err = run(capsys, "spectrum", "--bc=" + bc)
        assert (rc, err) == (0, "")
        assert out.splitlines() == ["source,index,energy", want]


def test_values_past_the_float_range_exit_3(capsys):
    # the energies -2.5e399 and -1e800 have no float; an infinite N has no int
    for argv in (["spectrum", "--delta=-1e200"],
                 ["spectrum", "--bc=-1e400,0,1,0;0,1,0,1"],
                 ["spectrum", "--delta", "-2", "--grid", "0.05,20,inf"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_values_too_large_to_print_exit_3(capsys):
    # exact and valid, but past Python's 4300-digit limit on int text
    for argv in (["represent", "--interacting", "0,1e3000,1e-3000"],
                 ["classify", "--c1", "1e4300"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 3 and out == ""
        assert err == "error: exact value too large to print\n"


def test_flags_with_no_effect_exit_2(capsys):
    # each ran with exit 0: the flag was dropped, or an empty list gave a
    # header only, or an empty item was skipped
    for argv, message in (
        (["spectrum", "--delta=-2", "--strength=-2"], "--strength and --levels"),
        (["spectrum", "--delta=-2", "--levels=2"], "--strength and --levels"),
        (["spectrum", "--delta=-2", "--grid="], "--grid takes"),
        (["spectrum", "--delta=-2", "--grid=0.05,,20,4000"], "--grid takes"),
        (["scatter", "--delta=-2", "--k="], "--k takes"),
        (["scatter", "--delta=-2", "--k=1,,2"], "--k takes"),
        (["scatter", "--delta=-2", "--k=1,2,"], "--k takes"),
        (["weaklimit", "--dist=heaviside(0)", "--eps="], "--eps takes"),
        (["weaklimit", "--dist=heaviside(0)", "--eps=0.1, ,0.05"], "--eps takes"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("parse error: " + message), err


def test_double_dash_value_exits_2_naming_the_flag(capsys):
    # argparse strips the "--" of "--X=--" and stored the empty list left
    # over: a traceback, or a wrong answer with exit 0 (--strength ran the
    # free grid, --k1 was dropped, --format printed text)
    top = build_parser()
    subparsers, = (a for a in top._actions
                   if isinstance(a, argparse._SubParsersAction))
    argvs = [[name, flag + "=--"]
             for name, parser in subparsers.choices.items()
             for action in parser._actions if action.nargs != 0
             for flag in action.option_strings]
    argvs += [
        ["spectrum", "--delta", "-2", "--grid", "0.05,20,4000", "--strength=--"],
        ["represent", "--interacting", "0,1/2,-3/2", "--k1=--"],
        ["classify", "--c1", "-1", "--format=--"],
    ]
    assert len(argvs) > 30
    for argv in argvs:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        out, err = capsys.readouterr()
        assert exited.value.code == 2 and out == "", argv
        flag = argv[-1][:-3]
        assert err.endswith("error: argument %s: expected one argument\n" % flag)


def test_grid_potential_not_finite_exits_3(capsys):
    # scipy's "array must not contain infs or NaNs" was a parse error, exit 2
    for strength in ("nan", "inf", "1e308"):
        rc, out, err = run(capsys, "spectrum", "--delta=-2",
                           "--grid=0.05,20,4000", "--strength=" + strength)
        assert rc == 3 and out == ""
        assert err == "error: the potential is not finite on the grid\n"


_NON_REAL_GRID = """
import sys
from deltastar import cli
rc = cli.main(["spectrum", "--delta=%s", "--grid=0.05,20,4000"])
print(rc, sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_grid_non_real_delta_needs_strength(capsys):
    # the grid took the real part: -2+1i gave the -2 well's grid energy
    # and 1i the free grid, both with exit 0
    for delta in ("-2+1i", "1i"):
        done = fresh("-c", _NON_REAL_GRID % delta)
        assert done.stdout == "3 []\n"
        assert done.stderr == ("error: --grid needs --strength for the "
                               "non-real --delta %s\n" % delta)
    rc, out, err = run(capsys, "spectrum", "--delta=-2+1i", "--strength=-2",
                       "--grid=0.05,20,4000")
    assert rc == 0 and err == ""
    assert out.splitlines()[1:] == ["grid,0,-0.952076955552759"]


def test_grid_size_is_a_whole_number(capsys):
    # 4000.9 ran with N = 4000, nan was int()'s parse error
    for N in ("4000.9", "nan", "2.5", "inf"):
        rc, out, err = run(capsys, "spectrum", "--delta=-2",
                           "--grid=0.05,20," + N)
        assert rc == 3 and out == ""
        assert err == "error: --grid N=%s is not a whole number\n" % N


def test_grid_past_the_float_range_exits_3(capsys):
    # 1e-300 was a ZeroDivisionError traceback; 1e-150 a LAPACK failure
    # and 1e-151 scipy's "must not contain infs or NaNs", both parse
    # errors; a non-finite L or EPS read "below twice the grid spacing
    # h=nan", or, for EPS=inf, ran with a zero potential
    for flags, message in (
        (["--grid=0.05,1e-300,4000"], "the grid over [-1e-300, 1e-300] with "
         "N=4000 has spacing h=4.99875e-304, whose 1/h^2 is not a finite "
         "nonzero float"),
        (["--strength=0", "--grid=0.05,1e300,4000"], "the grid over [-1e+300, 1e+300] with "
         "N=4000 has spacing h=4.99875e+296, whose 1/h^2 is not a finite "
         "nonzero float"),
        (["--strength=0", "--grid=0.05,1e-151,4000"], "the grid over "
         "[-1e-151, 1e-151] with N=4000 has spacing h=4.99875e-155, whose "
         "1/h^2 is not a finite nonzero float"),
        (["--grid=0.05,1e-150,4000"], "the eigensolver failed on the grid "
         "over [-1e-150, 1e-150] with N=4000: "),
        (["--grid=nan,20,4000"], "--grid EPS=nan is not finite"),
        (["--grid=inf,20,4000"], "--grid EPS=inf is not finite"),
        (["--grid=0.05,nan,4000"], "--grid L=nan is not finite"),
        (["--grid=0.05,-inf,4000"], "--grid L=-inf is not finite"),
    ):
        rc, out, err = run(capsys, "spectrum", "--delta=-2", *flags)
        assert rc == 3 and out == "", flags
        assert err.startswith("error: " + message), err


_HUGE_GRID = """
import sys
from deltastar import cli
rc = cli.main(["spectrum", "--delta=-2", "--grid=0.05,20,1e13"])
print(rc, sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_grid_size_cap_comes_before_numpy():
    # a fresh process: N = 1e13 was a numpy MemoryError traceback
    done = fresh("-c", _HUGE_GRID)
    assert done.stdout == "3 []\n"
    assert done.stderr == ("error: need a whole number of grid points "
                           "3 <= N <= 1000000, got N=10000000000000\n")


def test_grid_takes_three_values(capsys):
    for grid in ("0.05,20", "0.05,20,4000,1"):
        rc, out, err = run(capsys, "spectrum", "--delta", "-2", "--grid", grid)
        assert rc == 2 and out == ""
        assert err == "parse error: --grid takes EPS,L,N at offset 0\n"


def test_spectrum_has_no_kappa_grid_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--delta", "-2", "--samples", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "--kappa-max" not in usage and "--samples" not in usage


def test_spectrum_grid_resolution_precondition(capsys):
    # eps/h = 1.0: the point-sampled kernel gave -1.39 against about -1
    rc, out, err = run(capsys, "spectrum", "--delta", "-2",
                       "--grid", "0.01,20,4000")
    assert rc == 3 and out == ""
    assert "eps=0.01" in err and "h=0.0099975" in err
    for grid in ("0.01,20,7999", "0.05,12,1500"):
        rc, out, err = run(capsys, "spectrum", "--delta", "-2", "--grid", grid)
        assert rc == 0, err
        assert out.splitlines()[-1].startswith("grid,0,-")


def _readme_examples():
    """(argv, shown output, output cut by '...') of each README CLI example."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ deltastar "):
            continue
        shown, cut = [], False
        for nxt in lines[i + 1:]:
            cut = nxt == "..."
            if cut or nxt.startswith(("$ ", "```")):
                break
            shown.append(nxt)
        while shown and not shown[-1]:
            shown.pop()
        examples.append((shlex.split(line[2:], comments=True)[1:], shown, cut))
    return examples


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert len(examples) == 6
    for argv, shown, cut in examples:
        rc, out, err = run(capsys, *argv)
        assert rc == 0, (argv, err)
        got = out.splitlines()
        assert (got[:len(shown)] if cut else got) == shown, argv


def test_cli_corpus_bytes():
    # tests/data/cli_corpus.jsonl holds the exit code, stdout and stderr of
    # 480 seeded inputs, each recorded from a fresh process by
    # tests/make_cli_corpus.py; replayed here in one process, every byte
    # must match
    path = os.path.join(os.path.dirname(__file__), "data", "cli_corpus.jsonl")
    with open(path, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    assert len(entries) == 480
    changed = []
    for entry in entries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(entry["argv"])
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        got = {"argv": entry["argv"], "exit": rc,
               "stdout": out.getvalue(), "stderr": err.getvalue()}
        if got != entry:
            changed.append((entry, got))
    assert not changed, "%d of 480 entries changed; the first:\n%r\nnow:\n%r" % (
        len(changed), *changed[0])


def test_weaklimit_table(capsys):
    payload = run_json(
        capsys, "weaklimit", "--dist", "heaviside(0)", "--eps", "0.1,0.05"
    )
    assert payload["columns"] == ["eps", "value", "exact", "abs_error"]
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        assert float(row[3]) < 1e-8
    assert float(payload["rows"][0][2]) == 1.0


def test_weaklimit_rejects_delta_dist(capsys):
    rc, out, err = run(capsys, "weaklimit", "--dist", "delta(0)")
    assert rc == 3


def test_weaklimit_writes_no_warning():
    # scipy's quad warned of roundoff on this input; tanh-sinh converges
    done = fresh(
        "-m", "deltastar", "weaklimit",
        "--dist=-3*piece(-3/4,0: 1) + piece(-1/4,0: -3/4)"
        " + piece(-3/4,0: -3/2)",
        "--test=-1/3 - 1/3i - 3*x^2", "--order=1", "--side=left",
        "--eps=0.1,0.05,0.025")
    assert done.returncode == 0 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines[0] == "eps,value,exact,abs_error"
    want = [  # quad's cells: the same within its roundoff
        ("0.1", "3.15-3.23899532367072e-16i", "0", "3.15"),
        ("0.05", "1.575-6.47799064734144e-16i", "0", "1.575"),
        ("0.025", "0.787500000000004-1.29559812946829e-15i", "0",
         "0.787500000000004"),
    ]
    assert len(lines) == 1 + len(want)
    for line, row in zip(lines[1:], want):
        for got, old in zip(line.split(","), row):
            assert abs(cell(got) - cell(old)) < 1e-12, (line, row)


def test_weaklimit_eps_out_of_range_exits_3(capsys):
    # eps=inf has no kernel; at eps=1e300 the pairing overflows, and at
    # order 1 the kernel's scale eps**2 overflows a float, or eps=1e-200
    # leaves it at zero
    for eps, order, message in (("inf", "0", "eps must be finite"),
                                ("1e300", "0", "not finite"),
                                ("1e300", "1", "eps=1e+300 overflows the "
                                               "kernel's scale eps**2"),
                                ("1e-200", "1", "underflows")):
        rc, out, err = run(capsys, "weaklimit", "--dist", "piece(0,inf: 1+x)",
                           "--test", "1-x", "--order", order, "--eps=" + eps)
        assert rc == 3 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


_ONE_COMMAND = """
import sys
from deltastar import cli
rc = cli.main(%r)
print("loaded", rc, sorted(m for m in sys.modules if m.split(".")[0] in (
    "deltastar", "numpy", "scipy", "dataclasses", "inspect")))
"""

_PRODUCT_MODULES = ["deltastar", "deltastar.cli", "deltastar.dist_core", "deltastar.expr_io"]
_OPERATOR_MODULES = sorted(_PRODUCT_MODULES + ["deltastar.boundary_ops", "deltastar.schrodinger"])
_NUMERIC_MODULES = sorted(_OPERATOR_MODULES + ["deltastar.numerics"])


def test_only_the_grid_imports_numpy_and_scipy():
    # one fresh process per command: no numpy or scipy, no dataclasses or
    # inspect, and of the program only the modules that the subcommand
    # runs (each is compiled anew where bytecode is not cached); a fresh
    # process does not turn warnings into errors, so stderr must be empty
    # but for a parse error
    malformed = "parse error: unexpected character '@' at offset 9\n"
    for argv, rc, stderr, modules in (
        (["product", "delta(0)*heaviside(0)"], 0, "", _PRODUCT_MODULES),
        (["product", "delta(0) @ heaviside(1)"], 2, malformed, _PRODUCT_MODULES),
        (["classify", "--c1", "-1", "--c2", "-1"], 0, "", _OPERATOR_MODULES),
        (["represent", "--interacting", "0,1/2,-3/2"], 0, "", _OPERATOR_MODULES),
        (["represent", "--bc", "2,-1,0,0;0,0,1,-2"], 0, "", _OPERATOR_MODULES),
        (["scatter", "--delta", "-2", "--k", "1,2"], 0, "", _NUMERIC_MODULES),
        (["spectrum", "--delta", "-2"], 0, "", _NUMERIC_MODULES),
        (["weaklimit", "--dist", "piece(0,inf: 1+x)", "--test", "1-x"], 0, "",
         _NUMERIC_MODULES),
    ):
        done = fresh("-c", _ONE_COMMAND % (argv,))
        assert done.returncode == 0 and done.stderr == stderr, (argv, done.stderr)
        assert done.stdout.splitlines()[-1] == "loaded %d %r" % (rc, modules), argv
    done = fresh("-c", _ONE_COMMAND % (["spectrum", "--delta", "-2", "--grid", "0.05,20,4000"],),
                 timeout=60)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout.splitlines()[-2] == "grid,0,-0.952076955552759"


def test_lazy_imports_keep_every_public_path(capsys, monkeypatch):
    from deltastar import star_limit_oracle
    assert star_limit_oracle is deltastar.star_limit_oracle is limit_oracle.star_limit_oracle
    names = {}
    exec("from deltastar import *", names)
    assert names["star_limit_oracle"] is star_limit_oracle
    assert names["limit_oracle"] is limit_oracle
    # the submodules that "import deltastar" or "import deltastar.cli" bound
    # are attributes still, loaded on first use
    done = fresh("-c", "import sys, deltastar\n"
                 "assert deltastar.limit_oracle.star_limit_oracle is deltastar.star_limit_oracle\n"
                 "import deltastar.cli\n"
                 "assert 'deltastar.schrodinger' not in sys.modules\n"
                 "for name in ('boundary_ops', 'numerics', 'schrodinger'):\n"
                 "    assert getattr(deltastar, name) is sys.modules['deltastar.' + name]\n")
    assert done.returncode == 0 and done.stderr == "", done.stderr
    # one PreconditionError, defined in dist_core: main maps it to exit 3
    # without importing the modules that raise it
    for module in (boundary_ops, schrodinger, numerics):
        assert module.PreconditionError is dist_core.PreconditionError
    rc, out, err = run(capsys, "scatter", "--delta=-2", "--k=inf")  # numerics
    assert rc == 3 and out == "" and err == "error: wavenumber must be finite\n"

    def off_origin(spec):
        sd = boundary_ops.SidedDelta("right", 0, 1)
        return boundary_ops.apply_shifting_delta(sd, boundary_ops.BoundaryJet(1, 1, 0, 0))

    monkeypatch.setattr(schrodinger, "extract_bc", off_origin)  # boundary_ops
    rc, out, err = run(capsys, "classify", "--c1=1")
    assert rc == 3 and out == "" and err == "error: jets carry data at the origin only\n"


_GRID_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = sys.modules["scipy"] = None  # import raises
from deltastar import cli
sys.exit(cli.main(["spectrum", "--delta", "-2", "--grid", "0.05,20,4000"]))
"""


def test_grid_without_numpy_exits_3():
    done = fresh("-c", _GRID_WITHOUT_NUMPY)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == "error: spectrum --grid needs numpy and scipy\n"
    # the kernel-width rule is read off the well before numpy is imported
    done = fresh("-c", _GRID_WITHOUT_NUMPY.replace("0.05,20", "0.01,20"))
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("error: --grid kernel width eps=0.01 is below "
                           "twice the grid spacing h=0.0099975; raise N or eps\n")


# -- fuzz: every argument vector ends in exit 0, 2 or 3 ---------------------

def _mostly(good, bad):
    """One of the values, a bad one about one time in four."""
    return st.sampled_from(good * 3 + bad)


def _joined(part, sep, count):
    """count parts; none, one more or one fewer about one time in three."""
    return st.sampled_from((count,) * 6 + (0, count - 1, count + 1)).flatmap(
        lambda k: st.lists(part, min_size=k, max_size=k).map(sep.join))


_SCALAR = _mostly(
    ("0", "1", "-1", "1/2", "-3/4", "2i", "1-1/2i", "-i", "1/3+2i", "1e5"),
    ("", "1/0", "1e99999999", "-1e200", "abc", "1.5/2", " "))
_ATOM = _mostly(
    ("delta(0)", "delta'(1/2)", "delta^2(-1)", "heaviside(0)",
     "piece(-1,1: 1 - x + 2x^2)", "piece(0,inf: 1+x)", "D(heaviside(0))",
     "3/4", "2i", "delta^99999999999999999999(0)"),
    ("x", "1/0", "delta(1/0)", "piece(0,1: x^100000000)", "(",
     "piece(1,0: x)", ""))
_EXPR = st.lists(_ATOM, min_size=1, max_size=4).flatmap(
    lambda atoms: st.lists(st.sampled_from("+-*"), min_size=len(atoms) - 1,
                           max_size=len(atoms) - 1).map(
        lambda ops: atoms[0] + "".join(o + a for o, a in zip(ops, atoms[1:]))))
_FLOATS = _joined(_mostly(("1", "0.5", "2", "0.05", "3"),
                          ("0", "-1", "1e-300", "1e308", "inf", "nan", "x", "")),
                  ",", 2)
# a grid size is drawn apart from the other floats: N past the cap of
# 1e6 is refused before numpy allocates anything of its size
_GRID = st.tuples(_mostly(("0.5", "1"), ("0.05", "0", "-1", "inf", "nan", "x")),
                  _mostly(("5", "10"), ("0", "-1", "inf", "1e308", "x")),
                  _mostly(("50", "200"), ("0", "-5", "2.5", "inf", "nan", "x",
                                          "1e9", "1e13", "4000.9")),
                  ).map(",".join)
_ROWS = _joined(_joined(_SCALAR, ",", 4), ";", 2)


def _flag(name, values):
    return values.map(("--%s=" % name).__add__)


def _flags(*flags):
    """Each flag present or not, in a drawn order."""
    return st.tuples(*(st.one_of(st.just([]), f.map(lambda a: [a]))
                       for f in flags)).map(lambda fs: sum(fs, [])).flatmap(
        st.permutations)


_OPERATOR = st.one_of(
    _flag("delta", _SCALAR), _flag("theta", _SCALAR),
    _flag("potential", _joined(_SCALAR, ",", 4)),
    _flag("deltaprime", _joined(_SCALAR, ",", 4)), _flag("bc", _ROWS),
).map(lambda flag: [flag])

_ARGV = st.one_of(
    st.tuples(st.just(["product"]), _EXPR.map(lambda e: [e]),
              _flags(_flag("n-cap", st.sampled_from(("0", "1", "2", "-1"))))),
    st.tuples(st.just(["classify"]),
              _flags(*(_flag(n, _SCALAR) for n in ("c1", "c2", "b1", "b2")))),
    st.tuples(st.just(["represent"]), st.one_of(
        _flag("interacting", _joined(_SCALAR, ",", 3)),
        _flag("separating", _joined(_SCALAR, ",", 4)),
        _flag("bc", _ROWS)).map(lambda flag: [flag]),
        _flags(*(_flag(n, _SCALAR) for n in ("k1", "b1", "c1", "c2")))),
    st.tuples(st.just(["scatter"]), _OPERATOR, _flags(_flag("k", _FLOATS))),
    st.tuples(st.just(["spectrum"]), _OPERATOR, _flags(
        _flag("grid", _GRID), _flag("strength", _FLOATS),
        _flag("levels", st.sampled_from(("1", "2", "0", "-1"))))),
    st.tuples(st.just(["weaklimit"]), _flag("dist", _EXPR).map(lambda a: [a]),
              _flags(_flag("test", _mostly(("1", "1-x", "x^2+2i"),
                                           ("", "1/0", "abc"))),
                     _flag("order", st.sampled_from(("0", "1", "2"))),
                     _flag("side", st.sampled_from(("left", "right", "up"))),
                     _flag("eps", _FLOATS))),
    st.sampled_from((["spectrum"], ["--help"], ["nosuch"], ["product"],
                     ["product", "delta(0)", "--bogus"])).map(lambda a: (a,)),
).flatmap(lambda parts: st.booleans().map(
    lambda json: sum(parts, []) + ["--format=json"] * json))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_ARGV)
def test_cli_fuzz_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            rc = exc.code
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
