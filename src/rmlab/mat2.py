"""2x2 matrices over Q with exact arithmetic and Moebius actions.

Matrices are 2x2 tuples of Fractions.  Elements of SL2(Z[1/p]) are
represented directly with their denominators; helpers scale to primitive
integral form where canonical labels are needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotInvertible
from .exact import QuadIrr, val_p

Mat = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def mat(a, b, c, d) -> Mat:
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


IDENT: Mat = mat(1, 0, 0, 1)


def mat_mul(m: Mat, n: Mat) -> Mat:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_det(m: Mat) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inv(m: Mat) -> Mat:
    d = mat_det(m)
    if d == 0:
        raise NotInvertible("singular matrix")
    return ((m[1][1] / d, -m[0][1] / d), (-m[1][0] / d, m[0][0] / d))


def mat_adj(m: Mat) -> Mat:
    """(d, -b; -c, a): det(m) times the inverse, the same Moebius map."""
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def pull_back(coeffs, m: Mat):
    """The triple of F(m.z) |cz + d|^2 for F(z) = A|z|^2 + B Re z + C and
    coeffs = (A, B, C), the Hermitian form m^T (A, B/2; B/2, C) m: its sign
    at z is the sign of F at m.z, so it carries m^-1 applied to F's
    geodesic.  The coefficients may be ints, Fractions or QuadIrr values."""
    A, B, C = coeffs
    (a, b), (c, d) = m
    p, q, r, s = A * a, A * b, C * c, C * d
    return (a * (p + B * c) + c * r,
            2 * (a * q + c * s) + B * (a * d + b * c),
            b * (q + B * d) + d * s)


def mat_scale(m: Mat, c) -> Mat:
    c = Fraction(c)
    return ((m[0][0] * c, m[0][1] * c), (m[1][0] * c, m[1][1] * c))


def p_exponent(m: Mat, p: int) -> int:
    """Smallest k >= 0 with p^k * m integral."""
    k = 0
    for row in m:
        for e in row:
            if e != 0:
                k = max(k, -val_p(e, p))
    return k


def primitive_integral(m: Mat) -> tuple[int, int, int, int]:
    """Scale m by a positive rational to a primitive integral matrix with
    positive first nonzero entry; the canonical label of the line Q*m."""
    entries = [m[0][0], m[0][1], m[1][0], m[1][1]]
    lcm = 1
    for e in entries:
        lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
    ints = [int(e * lcm) for e in entries]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)  # type: ignore[return-value]


def from_ints(q) -> Mat:
    a, b, c, d = q
    return mat(a, b, c, d)


def moebius_quadirr(m: Mat, w: QuadIrr) -> QuadIrr:
    """(aw + b) / (cw + d) inside Q(sqrt D)."""
    num = w * m[0][0] + m[0][1]
    den = w * m[1][0] + m[1][1]
    return num / den

