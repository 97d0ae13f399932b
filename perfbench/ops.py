"""The three op kinds: what one op calls in the program and how it is checked.

Each kind has ``prepare(x)`` (turn a generated input into program objects
and, for ``cli-mix``, compute the expected output in-process; untimed),
``run(x, p, tr)`` (the timed op: only calls into the program, each inside
a span named ``<module>.<function>``) and ``check(x, p, out, tr)``
(compare against the benchmark's own references; untimed).  ``check``
returns None or a ``Failure``.

Modules of the program are imported inside each kind, so a workload
loads only what it uses: ``exact-algebra`` never imports ``numerics``
(and with it scipy).
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import ref
from gen import unpair

Failure = namedtuple("Failure", "reason layer known")

# bound_states brackets roots on a kappa grid running from
# kappa_max / samples to kappa_max (defaults 50 and 10000); a root outside
# it is the known silent miss listed as ROADMAP item 4.
KAPPA_GRID = (50.0 / 10000, 50.0)
KNOWN_MISS = "kappa-bracket-miss"

# Grid check of attractive delta wells with |a| <= 4.  Lengths are scaled
# by 1/|a| (the problem is scale-invariant), so every well sees the same
# kernel width eps*|a| = 0.05, box L*|a| = 8 and 19 grid points across the
# kernel.  The lowest eigenvalue of the mollified well then lies +2.4%
# (relative) above -a^2/4: that is the kernel-width shift of the regularized
# operator, converged in N (N=20000 gives the same to 1e-4).  GRID_TOL
# allows for it with a factor of two.
GRID_MAX_STRENGTH = 4
GRID_EPS, GRID_L, GRID_N = 0.05, 8.0, 3000
GRID_TOL = 0.05

CLI_TIMEOUT_S = 30


def _q(s):
    """Fraction pair of a program Scalar."""
    return (Fraction(s.re), Fraction(s.im))


def _qrows(rows):
    return tuple(tuple(_q(e) for e in r) for r in rows)


# --------------------------------------------------------------------------
# exact-algebra


class ExactAlgebra:
    name = "exact-algebra"

    def __init__(self):
        from deltastar import dist_core, expr_io, limit_oracle
        self.dc, self.io, self.lo = dist_core, expr_io, limit_oracle

    def prepare(self, x):
        return None

    def run(self, x, p, tr):
        dc, io = self.dc, self.io
        span = tr.span
        with span("expr_io.parse_dist"):
            F = io.parse_dist(x["f"], n_cap=x["n"])
        with span("expr_io.parse_dist"):
            G = io.parse_dist(x["g"], n_cap=x["n"])
        tr.count("expr_io.parse_dist.bytes", len(x["f"]) + len(x["g"]))
        with span("dist_core.star"):
            P = dc.star(F, G)
        with span("limit_oracle.star_limit_oracle"):
            O = self.lo.star_limit_oracle(F, G)
        with span("dist_core.derivative"):
            D = dc.derivative(P)
        with span("dist_core.add"):
            S = dc.add(D, F)
        with span("expr_io.format_dist"):
            text = io.format_dist(S)
        with span("expr_io.encode"):
            rec = io.encode(S)
        with span("expr_io.decode"):
            back = io.decode(rec)
        return {"P": P, "O": O, "S": S, "text": text, "back": back}

    def check(self, x, p, out, tr):
        if out["P"] != out["O"]:
            return Failure("star differs from star_limit_oracle",
                           "dist_core.star", False)
        if out["back"] != out["S"]:
            return Failure("decode(encode(S)) != S", "expr_io.decode", False)
        if not out["text"]:
            return Failure("format_dist returned no text",
                           "expr_io.format_dist", False)
        return None


# --------------------------------------------------------------------------
# point-interactions


class PointInteractions:
    name = "point-interactions"

    def __init__(self):
        from deltastar import boundary_ops, numerics, schrodinger
        from deltastar.dist_core import Scalar
        self.bo, self.nu, self.sc, self.Scalar = (
            boundary_ops, numerics, schrodinger, Scalar)

    def _scalar(self, pr):
        return self.Scalar(*unpair(pr))

    def prepare(self, x):
        bo, sc = self.bo, self.sc
        kind, *args = x["spec"]
        grid = None
        if kind == "potential":
            spec = bo.PointPotential(*(self._scalar(a) for a in args))
        elif kind == "well":
            a = self._scalar(args[0])
            spec = sc.delta_well(a)
            strength = float(Fraction(a.re))
            if strength < 0 and -strength <= GRID_MAX_STRENGTH:
                scale = 1.0 / -strength
                eps = GRID_EPS * scale
                bump = self.nu.bump
                grid = (GRID_L * scale, GRID_N,
                        lambda t: strength * bump(t / eps) / eps)
        elif kind == "theta":
            spec = sc.delta_prime_interaction(self._scalar(args[0]))
        elif kind == "pseudo":
            spec = bo.PseudoPotential(*([self._scalar(e) for e in row]
                                        for row in args))
        else:
            spec = bo.DeltaPrimeFamily(*(self._scalar(a) for a in args))
        jets = [[self._scalar(c) for c in j] for j in x["jets"]]
        return {"spec": spec, "jets": jets, "grid": grid}

    def run(self, x, p, tr):
        bo, sc, nu = self.bo, self.sc, self.nu
        span = tr.span
        spec = p["spec"]
        out = {}
        with span("boundary_ops.constraint_rows"):
            out["rows"] = bo.constraint_rows(spec)
        with span("schrodinger.extract_bc"):
            bc = out["bc"] = sc.extract_bc(spec)
        with span("schrodinger.BCMatrix.reduced"):
            red = out["reduced"] = bc.reduced()
        with span("schrodinger.BCMatrix.kernel_basis"):
            basis = out["basis"] = bc.kernel_basis()
        try:
            with span("schrodinger.classify"):
                cls = sc.classify(spec)
        except bo.PreconditionError as exc:
            cls = exc  # the seed classifies plain point potentials only
        out["classify"] = cls
        sa = isinstance(cls, (sc.InteractingSA, sc.SeparatingSA))
        if sa and isinstance(spec, bo.PointPotential):
            with span("schrodinger.represent"):
                if isinstance(cls, sc.InteractingSA):
                    fam = sc.represent_interacting(cls.a, cls.b, cls.c)
                else:
                    fam = sc.represent_separating(
                        cls.a_minus, cls.b_minus, cls.a_plus, cls.b_plus)
                spec2 = (fam.pseudo if isinstance(fam, sc.NotRepresentable)
                         else fam.default())
            with span("boundary_ops.constraint_rows"):
                out["represent_rows"] = bo.constraint_rows(spec2)
            jets = []
            for c1, c2 in p["jets"] if len(basis) == 2 else ():
                v = [c1 * a + c2 * b for a, b in zip(*basis)]
                jets.append(bo.BoundaryJet(*v))
            forms = {}
            for i, psi in enumerate(jets):
                for j, phi in enumerate(jets):
                    with span("schrodinger.sesquilinear_form"):
                        v = sc.sesquilinear_form(spec, psi, phi)
                    forms[i, j] = (v, sc.boundary_form_raw(psi, phi))
            out["forms"] = forms
        if len(red) == 2:
            scat = []
            for k in x["ks"]:
                with span("numerics.scattering"):
                    scat.append(nu.scattering(bc, k))
            out["scattering"] = scat
            with span("numerics.bound_states"):
                out["bound_states"] = nu.bound_states(bc)
        if p["grid"] is not None:
            L, N, potential = p["grid"]
            with span("numerics.grid_hamiltonian"):
                H = nu.grid_hamiltonian(L, N, potential)
            with span("numerics.grid_eigenvalues"):
                out["grid"] = nu.grid_eigenvalues(H, 1)[0]
        return out

    def check(self, x, p, out, tr):
        bo, sc = self.bo, self.sc
        spec = p["spec"]
        rows = _qrows(out["rows"])
        if isinstance(spec, bo.PointPotential):
            c1, c2, b1, b2 = (_q(getattr(spec, n)) for n in ("c1", "c2", "b1", "b2"))
            want = ((ref.neg(c1), ref.neg(c2), ref.sub(b1, ref.ONE), ref.add(b2, ref.ONE)),
                    (ref.add(b1, ref.ONE), ref.sub(b2, ref.ONE), ref.ZERO, ref.ZERO))
            if rows != want:
                return Failure("constraint rows differ from the documented "
                               "point-potential rows", "boundary_ops.constraint_rows", False)
        if not ref.row_equivalent(_qrows(out["bc"].rows), rows):
            return Failure("extract_bc rows span another space",
                           "schrodinger.extract_bc", False)
        if _qrows(out["reduced"]) != ref.rref(rows):
            return Failure("reduced() is not the reduced row echelon form",
                           "schrodinger.BCMatrix.reduced", False)
        rank = len(ref.rref(rows))
        basis = [tuple(_q(e) for e in v) for v in out["basis"]]
        null_ok = all(
            ref.is_zero(_dot(r, v)) for r in rows for v in basis
        ) and len(basis) == 4 - rank and len(ref.rref(basis)) == len(basis)
        if not null_ok:
            return Failure("kernel_basis is not a basis of the kernel",
                           "schrodinger.BCMatrix.kernel_basis", False)

        sa = ref.self_adjoint(rows)
        cls = out["classify"]
        bad = self._check_classification(cls, rows, sa, spec)
        if bad:
            return Failure(bad, "schrodinger.classify", False)
        if "represent_rows" in out and not ref.row_equivalent(
                _qrows(out["represent_rows"]), rows):
            return Failure("represented spec has other conditions",
                           "schrodinger.represent", False)
        for (i, j), (v, raw) in out.get("forms", {}).items():
            if v != raw or _q(v) != ref.conj(_q(out["forms"][j, i][0])):
                return Failure("sesquilinear_form is not the Hermitian boundary "
                               "form on jet pair %d,%d" % (i, j),
                               "schrodinger.sesquilinear_form", False)

        for s in out.get("scattering", ()):
            if s.singular:
                tr.count("numerics.scattering.singular")
                if sa:
                    return Failure("scattering singular at k=%g for a "
                                   "self-adjoint spec" % s.k,
                                   "numerics.scattering", False)
            elif sa:
                for r, t in ((s.r_left, s.t_left), (s.r_right, s.t_right)):
                    if abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) > 1e-9:
                        return Failure("|r|^2+|t|^2 = %.12g at k=%g"
                                       % (abs(r) ** 2 + abs(t) ** 2, s.k),
                                       "numerics.scattering", False)
        if sa and "bound_states" in out:
            bad = _check_bound_states(out["bound_states"], rows, tr)
            if bad:
                return bad
        if "grid" in out:
            a = float(unpair(x["spec"][1])[0])
            exact = -a * a / 4
            if not abs(out["grid"] - exact) <= GRID_TOL * abs(exact):
                return Failure("grid ground state %.9g vs %.9g beyond %g relative"
                               % (out["grid"], exact, GRID_TOL),
                               "numerics.grid_eigenvalues", False)
        return None

    def _check_classification(self, cls, rows, sa, spec):
        sc = self.sc
        if isinstance(cls, Exception):
            if isinstance(spec, self.bo.PointPotential):
                return "classify raised %r" % (cls,)
            return None
        if isinstance(cls, sc.NotSelfAdjoint):
            if sa:
                return "classify says not self-adjoint; the criterion says self-adjoint"
            if not ref.row_equivalent(_qrows(cls.bc.rows), rows):
                return "NotSelfAdjoint carries other conditions"
            return None
        if not sa:
            return "classify says self-adjoint; the criterion says not"
        if isinstance(cls, sc.InteractingSA):
            want = ref.interacting_rows(_q(cls.a), _q(cls.b), _q(cls.c))
            if ref.separating(rows):
                return "interacting classification of separating conditions"
        else:
            want = ref.separating_rows(_q(cls.a_minus), _q(cls.b_minus),
                                       _q(cls.a_plus), _q(cls.b_plus))
            if not ref.separating(rows):
                return "separating classification of coupling conditions"
        if not ref.row_equivalent(want, rows):
            return "classification parameters give other conditions"
        return None


def _dot(row, vec):
    out = ref.ZERO
    for a, b in zip(row, vec):
        out = ref.add(out, ref.mul(a, b))
    return out


def _check_bound_states(found, rows, tr):
    kappas = ref.bound_state_kappas(rows)
    if kappas is None:
        return None  # determinant vanishes identically: no discrete spectrum check
    want = sorted(-k * k for k in kappas)
    tr.count("numerics.bound_states.expected", len(want))
    left = sorted(found)
    missed = []
    for k, e in zip(kappas, sorted(want, reverse=True)):
        hit = next((f for f in left if math.isclose(f, e, rel_tol=1e-9)), None)
        if hit is None:
            missed.append(k)
        else:
            left.remove(hit)
    tr.count("numerics.bound_states.found", len(want) - len(missed))
    if left:
        return Failure("bound_states returned %r; reference %r" % (found, want),
                       "numerics.bound_states", False)
    if missed:
        lo, hi = KAPPA_GRID
        known = all(k < lo or k > hi for k in missed)
        why = "%s: kappa %s outside the search grid [%g, %g]" % (
            KNOWN_MISS, ", ".join("%.6g" % k for k in missed), lo, hi
        ) if known else "bound state at kappa %r missed inside the grid" % missed
        return Failure("%s; returned %r, reference %r" % (why, found, want),
                       "numerics.bound_states", known)
    return None


# --------------------------------------------------------------------------
# cli-mix


def _cell(text):
    if text == "nan":
        return complex(float("nan"), float("nan"))
    return complex(text.replace("i", "j"))


def _same_number(a, b):
    if cmath.isnan(a) or cmath.isnan(b):
        return cmath.isnan(a) and cmath.isnan(b)
    return (math.isclose(a.real, b.real, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(a.imag, b.imag, rel_tol=1e-9, abs_tol=1e-12))


class CliMix:
    name = "cli-mix"

    def __init__(self, root):
        from deltastar import cli, dist_core, expr_io, numerics, schrodinger
        from deltastar import boundary_ops
        self.cli, self.dc, self.io, self.nu, self.sc, self.bo = (
            cli, dist_core, expr_io, numerics, schrodinger, boundary_ops)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    # -- expected outputs, from the in-process API --------------------------

    def prepare(self, x):
        """Expected exit code and output; malformed inputs carry their code."""
        if x["exit"] != 0:
            return {"exit": x["exit"]}
        args = self.cli.build_parser().parse_args(x["argv"])
        try:
            return dict(getattr(self, "_expect_" + x["sub"])(args), exit=0)
        except (self.bo.PreconditionError, self.dc.AlgebraError):
            return {"exit": 3}

    def _scalars(self, text):
        return [self.dc.parse_scalar(v) for v in text.split(",")]

    def _bc(self, args):
        sc, bo = self.sc, self.bo
        if args.delta:
            return sc.extract_bc(sc.delta_well(self.dc.parse_scalar(args.delta)))
        if args.theta:
            return sc.extract_bc(sc.delta_prime_interaction(
                self.dc.parse_scalar(args.theta)))
        if args.potential:
            return sc.extract_bc(bo.PointPotential(*self._scalars(args.potential)))
        if args.deltaprime:
            return sc.extract_bc(bo.DeltaPrimeFamily(*self._scalars(args.deltaprime)))
        return sc.BCMatrix([self._scalars(r) for r in args.bc.split(";")])

    def _expect_product(self, args):
        F = self.io.parse_dist(args.expr, n_cap=args.n_cap)
        return {"text": self.io.format_dist(F), "record": self.io.encode(F)}

    def _expect_classify(self, args):
        spec = self.bo.PointPotential(*(self.dc.parse_scalar(getattr(args, n))
                                        for n in ("c1", "c2", "b1", "b2")))
        return {"records": [self.io.encode(self.sc.classify(spec)),
                            self.io.encode(self.sc.extract_bc(spec))]}

    def _expect_represent(self, args):
        sc = self.sc
        if args.interacting:
            fam = sc.represent_interacting(*self._scalars(args.interacting))
        elif args.separating:
            fam = sc.represent_separating(*self._scalars(args.separating))
        else:
            r1, r2 = (self._scalars(r) for r in args.bc.split(";"))
            if sc.BCMatrix([r1, r2]).rank != 2:
                raise self.bo.PreconditionError("rank-deficient rows")
            return {"family": "from-bc",
                    "spec": self.io.encode(sc.represent_from_bc(r1, r2))}
        if isinstance(fam, sc.NotRepresentable):
            name, spec = "pseudo-only", fam.pseudo
        else:
            name = {sc.OppositeSignFamily: "opposite-sign",
                    sc.ConjugatePairFamily: "conjugate-pair",
                    sc.SeparatingFamily: "separating"}[type(fam)]
            spec = fam.default()
        return {"family": name, "spec": self.io.encode(spec)}

    def _expect_scatter(self, args):
        bc = self._bc(args)
        rows = []
        for k in (float(v) for v in args.k.split(",")):
            s = self.nu.scattering(bc, k)
            nan = float("nan")
            rows.append([s.k, s.r_left, s.t_left, s.r_right, s.t_right,
                         nan if s.singular else abs(s.r_left) ** 2,
                         nan if s.singular else abs(s.t_left) ** 2,
                         1 if s.singular else 0])
        return {"table": rows, "labels": 0}

    def _expect_spectrum(self, args):
        nu = self.nu
        rows = [["bound", str(i), e]
                for i, e in enumerate(nu.bound_states(self._bc(args)))]
        if args.grid:
            eps, L, N = (float(v) for v in args.grid.split(","))
            strength = float(Fraction(self.dc.parse_scalar(args.delta).re))

            def potential(t):
                return strength * nu.bump(t / eps) / eps

            H = nu.grid_hamiltonian(L, int(N), potential)
            rows += [["grid", "0", nu.grid_eigenvalues(H, 1)[0]]]
        return {"table": rows, "labels": 2}

    def _expect_weaklimit(self, args):
        nu, io = self.nu, self.io
        F, t = io.parse_dist(args.dist), io.parse_poly(args.test)
        exact = complex(nu.weak_limit_value(F, t, args.order, args.side))
        rows = []
        for eps in (float(v) for v in args.eps.split(",")):
            val = nu.mollified_pairing(F, t, args.order, args.side, eps)
            rows.append([eps, val, exact, abs(val - exact)])
        return {"table": rows, "labels": 0}

    # -- the op --------------------------------------------------------------

    def run(self, x, p, tr):
        name = "cli." + (x["sub"] if x["exit"] == 0 else "error_exit")
        try:
            with tr.span(name):
                proc = subprocess.run(
                    [sys.executable, "-m", "deltastar"] + x["argv"],
                    cwd=self.root, env=self.env, capture_output=True,
                    text=True, timeout=CLI_TIMEOUT_S,
                )
        except subprocess.TimeoutExpired:
            return {"layer": name, "timeout": True}
        return {"layer": name, "timeout": False, "rc": proc.returncode,
                "out": proc.stdout, "err": proc.stderr}

    def check(self, x, p, out, tr):
        layer = out["layer"]
        if out["timeout"]:
            return Failure("timed out after %ds" % CLI_TIMEOUT_S, layer, False)
        if "Traceback" in out["err"]:
            return Failure("traceback: %s" % out["err"].strip().splitlines()[-1],
                           layer, False)
        if out["rc"] != p["exit"]:
            return Failure("exit %d, expected %d" % (out["rc"], p["exit"]),
                           layer, False)
        if p["exit"] != 0:
            if out["out"]:
                return Failure("output on a failed command", layer, False)
            return None
        json_mode = "--format=json" in x["argv"]
        try:
            why = getattr(self, "_check_" + x["sub"])(
                p, json.loads(out["out"]) if json_mode else out["out"], json_mode)
        except (ValueError, KeyError, TypeError) as exc:
            why = "unreadable output (%s)" % exc
        return Failure(why, layer, False) if why else None

    def _check_product(self, p, got, json_mode):
        if json_mode:
            if got["result"] != p["text"] or got["record"] != p["record"]:
                return "product differs from format_dist(parse_dist(expr))"
        elif got != p["text"] + "\n":
            return "product differs from format_dist(parse_dist(expr))"
        return None

    def _check_classify(self, p, got, json_mode):
        if json_mode:
            if [got["classification"], got["bc"]] != p["records"]:
                return "classify differs from encode(classify(spec))"
        elif not got.startswith("".join(p["records"])):
            return "classify differs from encode(classify(spec))"
        return None

    def _check_represent(self, p, got, json_mode):
        if json_mode:
            ok = got["family"] == p["family"] and got["specs"][0] == p["spec"]
        else:
            ok = (got.startswith("family %s\n" % p["family"])
                  and p["spec"] in got)
        return None if ok else "represent differs from the in-process family"

    def _table(self, p, got, json_mode):
        if json_mode:
            rows = got["rows"]
        else:
            rows = [line.split(",") for line in got.splitlines()[1:]]
        want = p["table"]
        if len(rows) != len(want):
            return "%d rows, expected %d" % (len(rows), len(want))
        for r, w in zip(rows, want):
            labels = p["labels"]
            if r[:labels] != w[:labels] or len(r) != len(w):
                return "row %r, expected %r" % (r, w)
            for cell, value in zip(r[labels:], w[labels:]):
                if not _same_number(_cell(cell), complex(value)):
                    return "row %r, expected %r" % (r, w)
        return None

    _check_scatter = _check_spectrum = _check_weaklimit = _table


KINDS = {
    "exact-algebra": ExactAlgebra,
    "point-interactions": PointInteractions,
    "cli-mix": CliMix,
}
