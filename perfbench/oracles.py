"""Arithmetic the benchmark does on its own, to check rmlab's outputs.

Nothing here imports rmlab.  Outputs are read through their public
attributes (``.vec``, ``.a``/``.b``/``.D``, ``.coeffs``, ``.entries``) and
compared with values computed from the inputs in plain ``Fraction`` and
integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(Exception):
    """An operation's output does not have a property it must have."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Q(sqrt D) as pairs (a, b) meaning a + b*sqrt(D), D fixed by the caller


class QD:
    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D: int = 5):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = D

    def __add__(self, o):
        o = _qd(o, self.D)
        return QD(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QD(-self.a, -self.b, self.D)

    def __sub__(self, o):
        return self + (-_qd(o, self.D))

    def __mul__(self, o):
        o = _qd(o, self.D)
        return QD(self.a * o.a + self.b * o.b * self.D,
                  self.a * o.b + self.b * o.a, self.D)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.D
        if n == 0:
            raise ZeroDivisionError("norm zero")
        return QD(self.a / n, -self.b / n, self.D)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, o):
        o = _qd(o, self.D)
        return self.a == o.a and self.b == o.b

    def __repr__(self):
        return f"QD({self.a}, {self.b}, {self.D})"


def _qd(v, D: int) -> QD:
    if isinstance(v, QD):
        if v.D != D:
            raise ValueError("mixed fields")
        return v
    return QD(v, 0, D)


def read_scalar(v, D: int) -> QD:
    """An rmlab scalar (Fraction, int or QuadIrr) as a QD over sqrt(D).

    A QuadIrr over sqrt(m^2 D) is rescaled; any other field is a failure."""
    if isinstance(v, (int, Fraction)):
        return QD(v, 0, D)
    a, b, vd = Fraction(v.a), Fraction(v.b), int(v.D)
    if b == 0:
        return QD(a, 0, D)
    if vd == D:
        return QD(a, b, D)
    ratio = Fraction(vd, D)
    r_num, r_den = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
    require(ratio > 0 and r_num * r_num == ratio.numerator
            and r_den * r_den == ratio.denominator,
            f"scalar lives over sqrt({vd}), not sqrt({D})")
    return QD(a, b * Fraction(r_num, r_den), D)


# ---------------------------------------------------------------------------
# the quadric in the (1,1) split model


def mat_to_quat(m):
    """Coordinates on (1, i, j, ij) of a 2x2 matrix: the inverse of the split
    isomorphism 1 -> I, i -> diag(1,-1), j -> antidiag(1,1), ij -> antidiag(1,-1)."""
    (a, b), (c, d) = m
    half = Fraction(1, 2)
    return [(a + d) * half, (a - d) * half, (b + c) * half, (b - c) * half]


def normalise(vec):
    lead = next((c for c in vec if not c.is_zero()), None)
    if lead is None:
        raise ValueError("zero vector")
    inv = lead.inverse()
    return [c * inv for c in vec]


def outer(x, y):
    return [[x[0] * y[0], x[0] * y[1]], [x[1] * y[0], x[1] * y[1]]]


def j_times(v):
    """J v with J = [[0, 1], [-1, 0]]."""
    return [v[1], -v[0]]


def mat2_mul(m, n):
    return [[m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]],
            [m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]]]


def mat2_inv(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]


def line_of(m):
    return normalise(mat_to_quat(m))


def split_lines(x, y):
    """The two kernel lines of u = x y^T: x (Jx)^T and (Jy) y^T, in the
    order quadric_split returns them."""
    return line_of(outer(x, j_times(x))), line_of(outer(j_times(y), y))


def conjugate(m, g):
    return mat2_mul(mat2_mul(g, m), mat2_inv(g))


def line_equals(projline, expect, D: int = 5) -> bool:
    vec = [read_scalar(c, D) for c in projline.vec]
    return len(vec) == 4 and all(a == b for a, b in zip(vec, expect))


# ---------------------------------------------------------------------------
# upper half-plane, rational points


def moebius_rational(g, x: Fraction, y: Fraction):
    """Image of x + iy under a real matrix with positive determinant."""
    (a, b), (c, d) = g
    den = (c * x + d) ** 2 + (c * y) ** 2
    det = a * d - b * c
    nx = ((a * x + b) * (c * x + d) + a * c * y * y) / den
    return nx, y * det / den


def side_sign(form, x: Fraction, y: Fraction) -> int:
    A, B, C = form
    v = A * (x * x + y * y) + B * x + C
    return (v > 0) - (v < 0)


def circle(z0, z1):
    """(center, radius^2) of the geodesic through two rational points with
    different real parts."""
    (x0, y0), (x1, y1) = z0, z1
    c = (x1 * x1 + y1 * y1 - x0 * x0 - y0 * y0) / (2 * (x1 - x0))
    return c, (x0 - c) ** 2 + y0 * y0


def arcs_cross(s1, s2):
    """Whether two geodesic arcs with rational endpoints (and no vertical
    side) cross transversally, and the orientation sign of
    (direction of s1, direction of s2) at the crossing; (False, 0) if not."""
    c1, r1 = circle(*s1)
    c2, r2 = circle(*s2)
    if c1 == c2:
        return False, 0
    # subtracting the circle equations leaves a linear equation in x
    x = (r1 - r2 + c2 * c2 - c1 * c1) / (2 * (c2 - c1))
    ysq = r1 - (x - c1) ** 2
    if ysq <= 0:
        return False, 0
    inside = all(min(s[0][0], s[1][0]) < x < max(s[0][0], s[1][0]) for s in (s1, s2))
    if not inside:
        return False, 0
    # tangent (y, -(x - c)) points rightward along an upper semicircle, so a
    # segment travelling to larger x has direction +(y, -(x - c)); the
    # determinant of the two tangents is y (c2 - c1)
    t1 = 1 if s1[1][0] > s1[0][0] else -1
    t2 = 1 if s2[1][0] > s2[0][0] else -1
    sgn = 1 if c2 > c1 else -1
    return True, t1 * t2 * sgn


# ---------------------------------------------------------------------------
# twisted-diagonal labels


def canonical(lbl):
    a, b, c, d = lbl
    g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    v = [a // g, b // g, c // g, d // g]
    lead = next(x for x in v if x != 0)
    if lead < 0:
        v = [-x for x in v]
    return tuple(v)


def swapped_labels(entries: dict) -> dict:
    """The sigma swap: every label replaced by the label of its inverse."""
    out: dict = {}
    for (a, b, c, d), m in entries.items():
        k = canonical((d, -b, -c, a))
        out[k] = out.get(k, 0) + m
    return {k: m for k, m in out.items() if m}


def negated(entries: dict) -> dict:
    return {k: -m for k, m in entries.items()}


# ---------------------------------------------------------------------------
# integers


def sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def psi(n: int) -> int:
    """Dedekind psi: n * prod over primes l | n of (1 + 1/l)."""
    out, m, l = Fraction(n), n, 2
    while m > 1:
        if m % l == 0:
            out *= Fraction(l + 1, l)
            while m % l == 0:
                m //= l
        l += 1
    return int(out)


def valuation(q: Fraction, p: int) -> int:
    q = Fraction(q)
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def in_z_one_over_p(q: Fraction, p: int) -> bool:
    d = Fraction(q).denominator
    while d % p == 0:
        d //= p
    return d == 1


def fundamental_unit(D: int, p: int):
    """(t, U) of the generator of the norm-one units of the Z[1/p]-order of
    discriminant D, with eigenvalue (t + U sqrt D)/2 > 1: the p-part of the
    conductor is stripped, then t^2 - D' u^2 = 4 is solved by a scan in u."""
    # the conductor is the largest f with D / f^2 still a discriminant
    f = next(f for f in range(math.isqrt(D), 0, -1)
             if D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1))
    a = valuation(Fraction(f), p) if f % p == 0 else 0
    Deff = D // p ** (2 * a)
    u = 1
    while True:
        t2 = 4 + Deff * u * u
        t = math.isqrt(t2)
        if t * t == t2:
            return Fraction(t), Fraction(u, p ** a)
        u += 1


def form_image(g, form):
    """The primitive integral form whose root is g . root(form), for a
    rational matrix g of positive determinant."""
    (a, b), (c, d) = g
    den = 1
    for e in (a, b, c, d):
        den = den * Fraction(e).denominator // math.gcd(den, Fraction(e).denominator)
    a, b, c, d = (int(Fraction(e) * den) for e in (a, b, c, d))
    A, B, C = form
    A2 = A * d * d - B * d * c + C * c * c
    B2 = -2 * A * b * d + B * (a * d + b * c) - 2 * C * a * c
    C2 = A * b * b - B * b * a + C * a * a
    g0 = math.gcd(math.gcd(abs(A2), abs(B2)), abs(C2))
    return (A2 // g0, B2 // g0, C2 // g0)


def disc_of(form) -> int:
    A, B, C = form
    return B * B - 4 * A * C


def squarefree_part(n: int):
    """n = m^2 * core with core squarefree; returns (core, m)."""
    core, m, q = 1, 1, 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        m *= q ** (e // 2)
        if e % 2:
            core *= q
        q += 1
    return core * n, m


def root_of(form, core: int) -> QD:
    """(-B + sqrt(disc)) / (2A) over sqrt(core)."""
    A, B, C = form
    c2, m = squarefree_part(disc_of(form))
    if c2 != core:
        raise ValueError("form lives in another field")
    return QD(Fraction(-B, 2 * A), Fraction(m, 2 * A), core)


def maps_root(g, f1, f2) -> bool:
    core = squarefree_part(disc_of(f1))[0]
    w1, w2 = root_of(f1, core), root_of(f2, core)
    (a, b), (c, d) = g
    return w1 * a + b == w2 * (w1 * c + d)


def ptower_matches(value, coords, p: int) -> bool:
    """Whether a PTower value agrees with the rationals coords (on the basis
    1, x, y, xy) to its stated absolute precision."""
    shift, prec = int(value.shift), int(value.prec)
    scale = Fraction(p) ** shift
    for c, q in zip(value.coeffs, coords):
        diff = Fraction(q) - scale * c
        if diff != 0 and valuation(diff, p) < shift + prec:
            return False
    return True
