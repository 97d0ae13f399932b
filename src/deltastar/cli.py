"""Command-line front end.

Six subcommands: product, classify, represent, scatter, spectrum,
weaklimit.  Exact commands take "p/q" rational (optionally complex,
"1-2i") parameters and print expr_io records; numeric commands take
floats and print CSV.  --format json wraps the same payload in a JSON
object whose record fields round-trip through expr_io.

Exit codes: 0 ok, 2 parse error (with input position), 3 precondition
violation (an exact value beyond the float range counts as one).
Diagnostics go to stderr.

A process runs one subcommand, so each subcommand imports the operator
modules it uses where it runs: product loads only dist_core and expr_io,
classify and represent add boundary_ops and schrodinger, and scatter,
spectrum and weaklimit add numerics.  Without cached bytecode every
module a process imports is compiled again.
"""

from __future__ import annotations

import argparse
import math
import sys

from .dist_core import AlgebraError, PreconditionError, parse_scalar
from .expr_io import ExprError, encode, format_dist, parse_dist, parse_poly


def _scalars(text, count, what):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ExprError(
            "%s takes %d comma-separated values, got %d"
            % (what, count, len(parts))
        )
    return [parse_scalar(p) for p in parts]


def _bc_rows(text):
    rows = [r for r in (part.strip() for part in text.split(";")) if r]
    if len(rows) != 2:
        raise ExprError("--bc takes two rows separated by ';'")
    return [tuple(_scalars(r, 4, "a bc row")) for r in rows]


def _floats(text, what):
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise ExprError("%s takes comma-separated numbers" % what) from None


def _fnum(x):
    if isinstance(x, complex):
        if math.isnan(x.real) and math.isnan(x.imag):
            return "nan"
        if x.imag == 0.0:
            return "%.15g" % x.real
        return "%.15g%+.15gi" % (x.real, x.imag)
    return "%.15g" % x


# -- subcommand bodies: each returns (json payload, text lines) -------------


def _cmd_product(args):
    F = parse_dist(args.expr, n_cap=args.n_cap)
    text = format_dist(F)
    payload = {"status": "ok", "result": text, "record": encode(F)}
    return payload, [text]


def _special_forms(bc):
    """{"jump": a, "theta": theta} for each special form the conditions
    take: continuity with derivative jump a, or theta scaling."""
    from .schrodinger import match_continuity_jump, match_theta_jump
    forms = {"jump": match_continuity_jump(bc), "theta": match_theta_jump(bc)}
    return {name: v for name, v in forms.items() if v is not None}


def _cmd_classify(args):
    from .boundary_ops import PointPotential
    from .schrodinger import classify, extract_bc
    spec = PointPotential(
        parse_scalar(args.c1),
        parse_scalar(args.c2),
        parse_scalar(args.b1),
        parse_scalar(args.b2),
    )
    bc = extract_bc(spec)
    record = encode(classify(bc))
    bc_record = encode(bc)
    notes = {name: v.token() for name, v in _special_forms(bc).items()}
    payload = {
        "status": "ok",
        # the header line reads "classification <kind>"
        "kind": record.split(None, 2)[1],
        "classification": record,
        "bc": bc_record,
    }
    payload.update(notes)
    lines = [record.rstrip("\n"), bc_record.rstrip("\n")]
    lines += ["%s %s" % kv for kv in sorted(notes.items())]
    return payload, lines


def _represent_payload(family, specs, notes, params=None):
    records = [encode(s) for s in specs]
    payload = {
        "status": "ok",
        "family": family,
        "specs": records,
        "notes": notes,
    }
    if params:
        payload["params"] = params
    lines = ["family %s" % family]
    lines += ["%s %s" % kv for kv in (params or {}).items()]
    lines += ["note %s" % n for n in notes]
    lines += [r.rstrip("\n") for r in records]
    return payload, lines


def _overrides(args, family, takes=()):
    """The given overrides as scalars, refusing one the family does not
    take; an empty one ("--b1=") is not given."""
    given = [name for name in ("k1", "b1", "c1", "c2") if getattr(args, name)]
    for name in given:
        if name not in takes:
            raise PreconditionError(
                "family %s takes no --%s override" % (family, name))
    return {name: parse_scalar(getattr(args, name)) for name in given}


def _cmd_represent(args):
    from .schrodinger import (
        ConjugatePairFamily,
        NotRepresentable,
        OppositeSignFamily,
        SeparatingFamily,
        represent_interacting,
        represent_separating,
    )
    if args.bc is not None:
        out = _represent_bc(args.bc)
        _overrides(args, "from-bc")
        return out
    if args.interacting is not None:
        fam = represent_interacting(
            *_scalars(args.interacting, 3, "--interacting"))
    else:
        fam = represent_separating(
            *_scalars(args.separating, 4, "--separating"))
    if isinstance(fam, NotRepresentable):
        _overrides(args, "pseudo-only")
        return _represent_payload("pseudo-only", [fam.pseudo], [fam.reason])
    # family type -> (printed name, the overrides its spec() takes); its
    # other fields are printed as params
    name, takes = {
        OppositeSignFamily: ("opposite-sign", ("b1", "c1")),
        ConjugatePairFamily: ("conjugate-pair", ("k1",)),
        SeparatingFamily: ("separating", ("c1", "c2")),
    }[type(fam)]
    spec = fam.spec(**_overrides(args, name, takes))
    params = {f: getattr(fam, f) for f in fam._fields if f not in takes}
    params = {f: ",".join(v) if isinstance(v, tuple) else v.token()
              for f, v in params.items()}
    return _represent_payload(name, [spec], [], params)


def _represent_bc(text):
    from .schrodinger import (
        BCMatrix,
        check_potential_representable_B3_zero,
        delta_prime_interaction,
        delta_well,
        minors,
        represent_from_bc,
        represent_separating,
    )
    rows = _bc_rows(text)
    bc = BCMatrix(rows)
    if bc.rank != 2:
        raise PreconditionError("--bc rows must be independent (rank 2)")
    specs = [represent_from_bc(*rows)]
    notes = []
    ok, witness = check_potential_representable_B3_zero(bc)
    if not ok:
        notes.append(
            "not representable as a potential: derivative block det %s"
            % witness.det.token()
        )
    forms = _special_forms(bc)
    if "jump" in forms:
        specs.append(delta_well(forms["jump"]))
        notes.append("continuity with jump %s" % forms["jump"].token())
    theta = forms.get("theta")
    if theta is not None and theta != -1:
        specs.append(delta_prime_interaction(theta))
        notes.append("theta conditions with theta %s" % theta.token())
    # psi(0-) = psi(0+) = 0 exactly when only m01 is nonzero
    if not any(minors(bc)[1:]):
        specs.append(represent_separating(0, 1, 0, 1).default())
        notes.append("double Dirichlet point form")
    return _represent_payload("from-bc", specs, notes)


def _operator_bc(args):
    from .boundary_ops import DeltaPrimeFamily, PointPotential
    from .schrodinger import BCMatrix, delta_prime_interaction, delta_well, extract_bc
    # an empty value still selects its flag: "--delta=" is a parse error
    if args.delta is not None:
        return extract_bc(delta_well(parse_scalar(args.delta)))
    if args.theta is not None:
        return extract_bc(delta_prime_interaction(parse_scalar(args.theta)))
    if args.potential is not None:
        return extract_bc(PointPotential(*_scalars(args.potential, 4, "--potential")))
    if args.deltaprime is not None:
        return extract_bc(DeltaPrimeFamily(*_scalars(args.deltaprime, 4, "--deltaprime")))
    return BCMatrix(_bc_rows(args.bc))


def _table(columns, rows):
    payload = {"status": "ok", "columns": columns, "rows": rows}
    lines = [",".join(columns)] + [",".join(r) for r in rows]
    return payload, lines


def _cmd_scatter(args):
    from .numerics import scattering
    bc = _operator_bc(args)
    rows = []
    for k in _floats(args.k, "--k"):
        s = scattering(bc, k)
        # a singular row's amplitudes are NaN, so its squares print nan too
        cells = (s.k, s.r_left, s.t_left, s.r_right, s.t_right,
                 abs(s.r_left) ** 2, abs(s.t_left) ** 2)
        rows.append([_fnum(c) for c in cells] + ["1" if s.singular else "0"])
    return _table(
        ["k", "r_left", "t_left", "r_right", "t_right",
         "refl_left", "trans_left", "singular"],
        rows,
    )


def _cmd_spectrum(args):
    from .numerics import GridWell, bound_states, grid_eigenvalues, grid_hamiltonian
    bc = _operator_bc(args)
    energies = bound_states(bc)
    rows = [["bound", str(i), _fnum(e)] for i, e in enumerate(energies)]
    if args.grid is None:
        if args.strength is not None or args.levels is not None:
            raise ExprError("--strength and --levels do nothing without --grid")
    else:
        grid = _floats(args.grid, "--grid")
        if len(grid) != 3:
            raise ExprError("--grid takes EPS,L,N")
        eps, L, N = grid
        for name, value in (("EPS", eps), ("L", L)):
            if not math.isfinite(value):
                raise PreconditionError("--grid %s=%g is not finite" % (name, value))
        if not N.is_integer():
            raise PreconditionError("--grid N=%g is not a whole number" % N)
        strength = args.strength
        if strength is None:
            if args.delta is None:
                raise PreconditionError(
                    "--grid needs --strength unless the operator is --delta")
            delta = parse_scalar(args.delta)
            # the grid kernel is real: a non-real strength has no grid well
            if not delta.is_real:
                raise PreconditionError(
                    "--grid needs --strength for the non-real --delta %s" % delta)
            strength = float(delta)
        ham = grid_hamiltonian(L, int(N), GridWell(strength, eps) if strength else None)
        levels = 1 if args.levels is None else args.levels
        for i, e in enumerate(grid_eigenvalues(ham, levels)):
            rows.append(["grid", str(i), _fnum(e)])
    return _table(["source", "index", "energy"], rows)


def _cmd_weaklimit(args):
    from .numerics import mollified_pairing, weak_limit_value
    F = parse_dist(args.dist)
    t = parse_poly(args.test)
    exact = complex(weak_limit_value(F, t, args.order, args.side))
    rows = []
    for eps in _floats(args.eps, "--eps"):
        val = mollified_pairing(F, t, args.order, args.side, eps)
        rows.append([
            _fnum(eps), _fnum(val), _fnum(exact), _fnum(abs(val - exact)),
        ])
    return _table(["eps", "value", "exact", "abs_error"], rows)


# -- parser -----------------------------------------------------------------


class _Store(argparse.Action):
    """argparse's store, refusing the value of "--X=--": argparse strips
    the "--" and would store the empty list left over."""

    def __call__(self, parser, namespace, values, option_string=None):
        if isinstance(values, list):
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """A parser, and its subparsers, whose arguments store through _Store."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.register("action", None, _Store)


def build_parser():
    top = _Parser(
        prog="deltastar",
        description="one-sided distribution products and point interactions",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("product", help="evaluate an expression to canonical form")
    p.add_argument("expr")
    p.add_argument("--n-cap", type=int, default=None,
                   help="regularity cap on delta orders")
    common(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("classify", help="classify a point potential")
    for name in ("c1", "c2", "b1", "b2"):
        p.add_argument("--" + name, default="0", metavar="SCALAR")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("represent", help="find operator specs for conditions")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--interacting", metavar="a,b,c")
    g.add_argument("--separating", metavar="am,bm,ap,bp")
    g.add_argument("--bc", metavar="f1;f2")
    p.add_argument("--k1", help="coupling split for the conjugate-pair family")
    p.add_argument("--b1", help="free b1 for the opposite-sign family")
    p.add_argument("--c1", help="free coupling override")
    p.add_argument("--c2", help="free coupling override")
    common(p)
    p.set_defaults(func=_cmd_represent)

    def operator_flags(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--delta", metavar="A", help="delta potential strength")
        g.add_argument("--theta", metavar="TH", help="delta-prime parameter")
        g.add_argument("--potential", metavar="c1,c2,b1,b2")
        g.add_argument("--deltaprime", metavar="c,d,e,f")
        g.add_argument("--bc", metavar="f1;f2")

    p = sub.add_parser("scatter", help="reflection/transmission table")
    operator_flags(p)
    p.add_argument("--k", default="1", metavar="K1,K2,...")
    common(p)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("spectrum", help="bound-state energies")
    operator_flags(p)
    p.add_argument("--grid", metavar="EPS,L,N", default=None,
                   help="also diagonalize the mollified potential on a grid")
    p.add_argument("--strength", type=float, default=None,
                   help="coupling of the mollified delta on the grid "
                        "(defaults to the --delta strength)")
    p.add_argument("--levels", type=int, default=None,
                   help="grid eigenvalues to print")
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("weaklimit", help="mollified one-sided limit errors")
    p.add_argument("--dist", required=True, metavar="EXPR")
    p.add_argument("--test", default="1", metavar="POLY")
    p.add_argument("--order", type=int, default=0, choices=(0, 1))
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.add_argument("--eps", default="0.1,0.05,0.025")
    common(p)
    p.set_defaults(func=_cmd_weaklimit)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload, lines = args.func(args)
    except ExprError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (PreconditionError, AlgebraError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        import json
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
