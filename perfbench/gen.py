"""Seeded input generators for the three workloads.

Every input is plain JSON data (strings, numbers, lists), built from
``random.Random`` seeded with the workload, the seed and the op index, so
the same seed gives byte-identical inputs in any process.  Exact numbers
are written as ``Fraction`` strings and complex rationals as
``[re, im]`` pairs of them.

Op kinds repeat in a fixed order (a block) and magnitudes are stratified
within a block, so the mix of cheap and expensive ops, and with it the
cost of a run, varies little from seed to seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from ref import ONE, ZERO, add, conj, div, is_zero, mul, neg, sub, token

F = Fraction


def rng_for(workload, seed, index):
    # str seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random("%s:%d:%s" % (workload, seed, index))


def slot(slots, index):
    """Kind of op ``index`` and how many ops of that kind precede it in its
    block: kinds repeat in a fixed order, so every seed runs the same mix."""
    pos = index % len(slots)
    return slots[pos], slots[:pos].count(slots[pos])


def pair(u):
    return [str(u[0]), str(u[1])]


def unpair(p):
    return (F(p[0]), F(p[1]))


def dumps(inputs):
    """Canonical bytes of a list of inputs (used to compare generations)."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


# --------------------------------------------------------------------------
# exact-algebra: pairs of expression texts

EXACT_SLOTS = ("small",) * 5 + ("large",)

_SMALL = {
    "points": tuple(F(k, 2) for k in range(-2, 3)),
    "dens": (1, 2, 3, 4),
    "span": 3,
    "degree": (0, 2),
    "terms": (2, 5),
    "npoints": 3,
}
_LARGE = {
    "points": tuple(F(k, 13) for k in range(-26, 27)),
    "dens": (97, 101, 103, 107),
    "span": 10 ** 4,
    "degree": (4, 4),
    "terms": (7, 7),
    "npoints": 6,
}


def _rat(rng, cfg, nonzero=True):
    while True:
        q = F(rng.randint(-cfg["span"], cfg["span"]), rng.choice(cfg["dens"]))
        if q or not nonzero:
            return q


def _coeff(rng, cfg, imag_rate=0.3):
    im = _rat(rng, cfg) if rng.random() < imag_rate else F(0)
    return (_rat(rng, cfg), im)


def _signed(q, body):
    """(sign, text) of q*body with |q| written out unless it is 1."""
    mag = abs(q)
    if not body:
        return (-1 if q < 0 else 1, str(mag))
    return (-1 if q < 0 else 1, body if mag == 1 else "%s*%s" % (mag, body))


def _join(parts):
    if not parts:
        return "0"
    out = ("-" if parts[0][0] < 0 else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out


def _poly_text(rng, cfg):
    lo, hi = cfg["degree"]
    deg = rng.randint(lo, hi)
    parts = []
    for k in range(deg + 1):
        re, im = _coeff(rng, cfg, imag_rate=0.2)
        if k < deg and rng.random() < 0.3:
            re = F(0)
        mono = "" if k == 0 else ("x" if k == 1 else "x^%d" % k)
        if re:
            parts.append(_signed(re, mono))
        if im:
            mag = abs(im)
            body = "%si" % mag + ("*" + mono if mono else "")
            parts.append((-1 if im < 0 else 1, body))
    return _join(parts)


def _term(rng, cfg, n, pts):
    kind = rng.choices(("piece", "delta", "heaviside", "dpiece"),
                       (4, 3, 1.5, 1.5))[0]
    if kind in ("piece", "dpiece"):
        a, b = sorted(rng.sample(pts, 2))
        lo = "-inf" if rng.random() < 0.15 else str(a)
        hi = "inf" if rng.random() < 0.15 else str(b)
        atom = "piece(%s,%s: %s)" % (lo, hi, _poly_text(rng, cfg))
        if kind == "dpiece":
            atom = "D(%s)" % atom
    elif kind == "delta":
        order = rng.randint(0, n)
        name = ("delta", "delta'", "delta^2")[order]
        atom = "%s(%s)" % (name, rng.choice(pts))
    else:
        atom = "heaviside(%s)" % rng.choice(pts)
    re, im = _coeff(rng, cfg)
    if not im:
        return _signed(re, atom)
    return (1, "(%s %s %si)*%s" % (re, "-" if im < 0 else "+", abs(im), atom))


def dist_text(rng, n, cfg):
    pts = sorted(rng.sample(cfg["points"], cfg["npoints"]))
    lo, hi = cfg["terms"]
    return _join([_term(rng, cfg, n, pts) for _ in range(rng.randint(lo, hi))])


def exact_input(seed, index):
    size, _ = slot(EXACT_SLOTS, index)
    rng = rng_for("exact-algebra", seed, index)
    cfg = _LARGE if size == "large" else _SMALL
    n = rng.choice((1, 2))
    return {"n": n, "size": size,
            "f": dist_text(rng, n, cfg), "g": dist_text(rng, n, cfg)}


# --------------------------------------------------------------------------
# point-interactions: operator specs

POINT_SLOTS = (
    ("conjugate_pair",) * 3
    + ("opposite_sign",) * 2
    + ("dirichlet_robin", "robin_dirichlet", "double_dirichlet")
    + ("well_attractive",) * 4
    + ("well_repulsive",) * 2
    + ("delta_prime",) * 2
    + ("not_self_adjoint",) * 2
    + ("pseudo", "deltaprime_family")
)
_SPEC_CFG = {"span": 5, "dens": (1, 2, 3, 4, 5)}


def _crat(rng, imag_rate=0.5):
    return _coeff(rng, _SPEC_CFG, imag_rate)


def _real(rng):
    return (_rat(rng, _SPEC_CFG), F(0))


def _not_unit(rng, imag_rate):
    while True:
        b = _crat(rng, imag_rate)
        if b != ONE and b != neg(ONE) and not is_zero(b):
            return b


def _strength(rng, stratum, strata):
    """|a| log-uniform over [1/1000, 1000], stratified within a block."""
    u = -3.0 + 6.0 * (stratum + rng.random()) / strata
    return F(10.0 ** u).limit_denominator(10 ** 6)


def point_spec(rng, kind, stratum=0):
    """A spec as ["potential"|"pseudo"|"deltaprime"|"well"|"theta", ...]."""
    if kind == "conjugate_pair":
        # b2 = conj(b1); c2 solved so that the coupling c is real
        b1 = _not_unit(rng, 0.5)
        c, c1 = _real(rng), _crat(rng)
        den = sub(mul(sub(conj(b1), b1), sub(conj(b1), b1)), (F(4), F(0)))
        two = (F(2), F(0))
        c2 = div(sub(mul(mul(two, c1), sub(conj(b1), ONE)), mul(c, den)),
                 mul(two, add(b1, ONE)))
        return ["potential", c1, c2, b1, conj(b1)]
    if kind == "opposite_sign":
        b1 = _not_unit(rng, 0.5)
        while not b1[0]:  # purely imaginary b1 falls in the conjugate branch
            b1 = _not_unit(rng, 0.5)
        c, c1 = _real(rng), _crat(rng)
        c2 = sub(mul(mul((F(2), F(0)), c), sub(ONE, b1)), c1)
        return ["potential", c1, c2, b1, neg(b1)]
    if kind == "dirichlet_robin":
        return ["potential", _crat(rng), _real(rng), ONE, ONE]
    if kind == "robin_dirichlet":
        return ["potential", _real(rng), _crat(rng), neg(ONE), neg(ONE)]
    if kind == "double_dirichlet":
        c1, c2 = _crat(rng), _crat(rng)
        while is_zero(add(c1, c2)):
            c2 = _crat(rng)
        return ["potential", c1, c2, ONE, neg(ONE)]
    if kind in ("well_attractive", "well_repulsive"):
        a = _strength(rng, stratum, 4 if kind == "well_attractive" else 2)
        return ["well", (-a if kind == "well_attractive" else a, F(0))]
    if kind == "delta_prime":
        while True:
            t = _real(rng)
            if t != neg(ONE):
                return ["theta", t]
    if kind == "not_self_adjoint":
        return ["potential", _crat(rng, 0.7), _crat(rng, 0.7),
                _not_unit(rng, 0.7), _not_unit(rng, 0.7)]
    if kind == "pseudo":
        return ["pseudo",
                [_crat(rng, 0.3) for _ in range(4)],
                [_crat(rng, 0.3) for _ in range(2)] + [ZERO, ZERO],
                [_crat(rng, 0.3) for _ in range(2)] + [ZERO, ZERO]]
    if kind == "deltaprime_family":
        return ["deltaprime"] + [_crat(rng, 0.3) for _ in range(4)]
    raise ValueError(kind)


def encode_spec(spec):
    """JSON form of a spec: complex rationals as [re, im] strings."""
    def enc(v):
        if isinstance(v, list):
            return [enc(e) for e in v]
        if isinstance(v, tuple):
            return pair(v)
        return v
    return [spec[0]] + [enc(v) for v in spec[1:]]


def point_input(seed, index):
    kind, stratum = slot(POINT_SLOTS, index)
    rng = rng_for("point-interactions", seed, index)
    spec = point_spec(rng, kind, stratum)
    ks = [round(10.0 ** rng.uniform(-1.0, 1.0), 4) for _ in range(3)]
    jets = [[pair(_crat(rng, 0.3)) for _ in range(2)] for _ in range(3)]
    return {"kind": kind, "spec": encode_spec(spec), "ks": ks, "jets": jets}


# --------------------------------------------------------------------------
# cli-mix: argument vectors for one `python -m deltastar` process

SUBCOMMANDS = ("product", "classify", "represent", "scatter", "spectrum",
               "weaklimit")
MALFORMED_EVERY = 10  # op index % 10 == 9 is malformed

_GRID = ("0.05", "12", "1500")  # eps, L, N of `spectrum --grid`


def _toks(values):
    return ",".join(token(v) for v in values)


def _rows_arg(rows):
    return ";".join(_toks(r) for r in rows)


def _random_rows(rng):
    return [[_crat(rng, 0.3) for _ in range(4)] for _ in range(2)]


def _operator_args(rng):
    kind = rng.choice(("well", "theta", "potential", "deltaprime", "bc"))
    if kind == "well":
        a = _strength(rng, rng.randrange(4), 4)
        if rng.random() < 0.75:
            a = -a
        return ["--delta", str(a)], a
    if kind == "theta":
        return ["--theta", token(point_spec(rng, "delta_prime")[1])], None
    if kind == "potential":
        spec = point_spec(rng, rng.choice(POINT_SLOTS[:8]))
        return ["--potential", _toks(spec[1:])], None
    if kind == "deltaprime":
        return ["--deltaprime", _toks(point_spec(rng, "deltaprime_family")[1:])], None
    return ["--bc", _rows_arg(_random_rows(rng))], None


def _mutate_text(rng, text):
    k = rng.randrange(len(text) + 1)
    return text[:k] + "@" + text[k:]


def cli_valid(rng, command):
    if command == "product":
        n = rng.choice((1, 2))
        expr = "(%s)*(%s)" % (dist_text(rng, n, _SMALL), dist_text(rng, n, _SMALL))
        return ["product", expr, "--n-cap", str(n)]
    if command == "classify":
        spec = point_spec(rng, rng.choice(POINT_SLOTS[:8] + ("not_self_adjoint",)))
        argv = ["classify"]
        for name, v in zip(("--c1", "--c2", "--b1", "--b2"), spec[1:]):
            argv += [name, token(v)]
        return argv
    if command == "represent":
        form = rng.choice(("interacting", "separating", "bc"))
        if form == "interacting":
            while True:
                a = ZERO if rng.random() < 0.6 else _real(rng)
                b, c = _crat(rng, 0.5), _real(rng)
                if not is_zero(sub(mul(add(ONE, conj(b)), sub(ONE, b)), mul(a, c))):
                    return ["represent", "--interacting", _toks((a, b, c))]
        if form == "separating":
            sides = []
            for _ in range(2):
                sides += [ZERO, ONE] if rng.random() < 0.4 else [ONE, _real(rng)]
            return ["represent", "--separating", _toks(sides)]
        return ["represent", "--bc", _rows_arg(_random_rows(rng))]
    if command == "scatter":
        args, _ = _operator_args(rng)
        ks = [str(round(10.0 ** rng.uniform(-1.0, 1.0), 4)) for _ in range(3)]
        return ["scatter"] + args + ["--k", ",".join(ks)]
    if command == "spectrum":
        args, a = _operator_args(rng)
        argv = ["spectrum"] + args
        if a is not None and a < 0 and abs(a) <= 4:
            argv += ["--grid", ",".join(_GRID)]
        return argv
    if command == "weaklimit":
        cfg = dict(_SMALL, points=tuple(F(k, 4) for k in range(-4, 5)))
        pts = sorted(rng.sample(cfg["points"], 3))
        parts = []
        for _ in range(rng.randint(1, 3)):
            a, b = sorted(rng.sample(pts, 2))
            re, _ = _coeff(rng, cfg, imag_rate=0.0)
            parts.append(_signed(re, "piece(%s,%s: %s)" % (a, b, _poly_text(rng, cfg))))
        return ["weaklimit", "--dist", _join(parts),
                "--test", _poly_text(rng, cfg),
                "--order", str(rng.randint(0, 1)),
                "--side", rng.choice(("left", "right")),
                "--eps", "0.1,0.05"]
    raise ValueError(command)


def cli_malformed(rng, command):
    """(argv, expected exit code) for a broken invocation of ``command``."""
    if command == "product":
        if rng.random() < 0.25:
            return ["product", "delta(0)", "heaviside(0)"], 2  # wrong arity
        return ["product", _mutate_text(rng, dist_text(rng, 1, _SMALL))], 2
    if command == "classify":
        return ["classify", "--c1", token(_crat(rng)) + "#"], 2
    if command == "weaklimit":
        return ["weaklimit", "--dist", _mutate_text(rng, "piece(0,1: 1 + x)")], 2
    if rng.random() < 0.5:
        r = [_crat(rng, 0.3) for _ in range(4)]
        rows = _rows_arg([r, [mul((F(2), F(0)), e) for e in r]])
        if command == "represent":
            return ["represent", "--bc", rows], 3
        return [command, "--bc", rows], 3
    if command == "represent":
        return ["represent", "--interacting", _toks((ZERO, ONE))], 2
    return [command, "--potential", _toks((ONE, ONE, ZERO))], 2


def _glue(argv):
    """Write every option as "--name=value": values such as "-3/4" would
    otherwise be read as option names."""
    out, k = [], 0
    while k < len(argv):
        if argv[k].startswith("--"):
            out.append("%s=%s" % (argv[k], argv[k + 1]))
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


def cli_input(seed, index):
    """Valid ops cycle through the subcommands; so do the malformed ones."""
    rng = rng_for("cli-mix", seed, index)
    malformed, valid_before = divmod(index + 1, MALFORMED_EVERY)
    if valid_before == 0:
        command = SUBCOMMANDS[(malformed - 1) % len(SUBCOMMANDS)]
        argv, code = cli_malformed(rng, command)
        return {"sub": command, "argv": _glue(argv), "exit": code}
    command = SUBCOMMANDS[(index - index // MALFORMED_EVERY) % len(SUBCOMMANDS)]
    argv = cli_valid(rng, command)
    if rng.random() < 0.5:
        argv += ["--format", "json"]
    return {"sub": command, "argv": _glue(argv), "exit": 0}


GENERATORS = {
    "exact-algebra": exact_input,
    "point-interactions": point_input,
    "cli-mix": cli_input,
}



# --------------------------------------------------------------------------
# probe inputs: a fixed small batch of each kind for traced runs

PROBE_BASE = 10 ** 6  # a multiple of every block length: whole blocks


def probe_inputs(workload, seed):
    if workload == "exact-algebra":
        return [exact_input(seed, PROBE_BASE + j) for j in range(2 * len(EXACT_SLOTS))]
    if workload == "point-interactions":
        return [point_input(seed, PROBE_BASE + j) for j in range(len(POINT_SLOTS))]
    out = []
    for command in SUBCOMMANDS:
        rng = rng_for("cli-probe", seed, command)
        out.append({"sub": command, "argv": _glue(cli_valid(rng, command)), "exit": 0})
    argv, code = cli_malformed(rng_for("cli-probe", seed, "malformed"), "product")
    out.append({"sub": "product", "argv": _glue(argv), "exit": code})
    return out
