"""Independent references the benchmark checks the program against.

Nothing here imports deltastar.  Complex rationals are plain
``(re, im)`` pairs of ``Fraction``; boundary conditions are two rows over
the jet ``(psi(0-), psi(0+), psi'(0-), psi'(0+))``.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def div(u, v):
    d = v[0] * v[0] + v[1] * v[1]
    return ((u[0] * v[0] + u[1] * v[1]) / d, (u[1] * v[0] - u[0] * v[1]) / d)


def conj(u):
    return (u[0], -u[1])


def neg(u):
    return (-u[0], -u[1])


def is_zero(u):
    return not u[0] and not u[1]


def token(u):
    """Scalar text the program's parser reads: "p/q", "p/qi", "a+bi"."""
    re, im = u
    if not im:
        return str(re)
    if not re:
        return "%si" % im
    return "%s%s%si" % (re, "+" if im > 0 else "-", abs(im))


# --------------------------------------------------------------------------
# row spaces


def rref(rows):
    """Reduced row echelon form over complex rationals; zero rows dropped."""
    work = [list(r) for r in rows]
    lead = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next(
            (k for k in range(lead, len(work)) if not is_zero(work[k][col])),
            None,
        )
        if pivot is None:
            continue
        work[lead], work[pivot] = work[pivot], work[lead]
        inv = work[lead][col]
        work[lead] = [div(e, inv) for e in work[lead]]
        for k in range(len(work)):
            if k != lead and not is_zero(work[k][col]):
                f = work[k][col]
                work[k] = [sub(e, mul(f, w)) for e, w in zip(work[k], work[lead])]
        lead += 1
        if lead == len(work):
            break
    return tuple(tuple(r) for r in work if any(not is_zero(e) for e in r))


def row_equivalent(rows_a, rows_b):
    return rref(rows_a) == rref(rows_b)


def self_adjoint(rows):
    """Kostrykin-Schrader criterion on two boundary rows.

    Writing the conditions as A (psi(0-), psi(0+)) + B (psi'(0-), -psi'(0+))
    = 0, the operator is self-adjoint iff rank [A|B] = 2 and A B^* is
    Hermitian (Kostrykin & Schrader, J. Phys. A 32 (1999) 595).
    """
    if len(rref(rows)) != 2:
        return False
    A = [(r[0], r[1]) for r in rows]
    B = [(r[2], neg(r[3])) for r in rows]
    M = [[add(mul(A[i][0], conj(B[j][0])), mul(A[i][1], conj(B[j][1])))
          for j in range(2)] for i in range(2)]
    return all(M[i][j] == conj(M[j][i]) for i in range(2) for j in range(2))


def separating(rows):
    """True when every reduced row reads one side only: (p, r) or (q, s)."""
    for row in rref(rows):
        left = not is_zero(row[0]) or not is_zero(row[2])
        right = not is_zero(row[1]) or not is_zero(row[3])
        if left and right:
            return False
    return True


def interacting_rows(a, b, c):
    """Rows of InteractingSA(a, b, c) as documented by the program."""
    return (
        (neg(c), neg(c), sub(b, ONE), add(b, ONE)),
        (add(conj(b), ONE), sub(conj(b), ONE), a, a),
    )


def separating_rows(am, bm, ap, bp):
    """Rows of the side conditions a psi' = b psi on each half-line."""
    return (
        (neg(bm), ZERO, am, ZERO),
        (ZERO, neg(bp), ZERO, ap),
    )


# --------------------------------------------------------------------------
# bound states


def _poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _poly_rem(a, b):
    a = _poly_trim(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, c in enumerate(b):
            a[shift + j] -= f * c
        a = _poly_trim(a)  # the leading term cancelled exactly
    return a


def _poly_gcd(a, b):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def decay_determinant(rows):
    """Coefficients (c0, c1, c2) of det on the decaying jets, in kappa.

    The jets (1, 0, kappa, 0) and (0, 1, 0, -kappa) span the L2 solutions
    at energy -kappa^2; a bound state is a kappa > 0 where the 2x2 system
    of the two rows on them is singular.
    """
    r1, r2 = rows
    c0 = sub(mul(r1[0], r2[1]), mul(r1[1], r2[0]))
    c1 = add(
        sub(mul(r1[2], r2[1]), mul(r1[0], r2[3])),
        sub(mul(r1[3], r2[0]), mul(r1[1], r2[2])),
    )
    c2 = sub(mul(r1[3], r2[2]), mul(r1[2], r2[3]))
    return c0, c1, c2


def bound_state_kappas(rows):
    """Positive kappa roots of the decaying-jet determinant, ascending.

    Returns None when the determinant vanishes identically.  The real and
    imaginary parts of the determinant are real polynomials of degree <= 2;
    the kappas are the positive real roots of their exact gcd.
    """
    cs = decay_determinant(rows)
    g = _poly_gcd([c[0] for c in cs], [c[1] for c in cs])
    if not g:
        return None
    if len(g) == 1:
        return []
    if len(g) == 2:
        roots = [-g[0] / g[1]]
    else:
        c, b, a = g
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        if disc == 0:
            roots = [-b / (2 * a)]
        else:
            s = math.sqrt(disc)
            q = -(float(b) + math.copysign(s, float(b))) / 2
            roots = [q / float(a), float(c) / q]
    return sorted(float(k) for k in roots if k > 0)
