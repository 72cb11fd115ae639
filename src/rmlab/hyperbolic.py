"""Exact upper half-plane geometry.

Points carry Fraction or QuadIrr coordinates; every predicate (side of a
geodesic, transversal crossing, crossing orientation, winding number) is
decided by exact sign computations, at worst of the shape u + v*sqrt(e)
with u, v, e in one real quadratic field.

Sign conventions, frozen once for the whole package:

* A geodesic is its coefficient triple (A, B, C), the curve
  A(x^2+y^2) + Bx + C = 0; side(f, z) is the sign of that expression for
  the form f = (A, B, C), whose geodesic runs from its conjugate root to
  its root.  A segment's triple seg.coeffs is positive on the right of its
  travel: z -> (x, x^2+y^2) preserves orientation and maps it to a line.
* mat2.pull_back(F, m) has at z the sign F has at m.z; pull_back(F, adj g)
  carries g applied to F's geodesic, with the same right side.
* cross_segment(seg, f) = (side(f, end) - side(f, start)) / 2.
* ez_cross(s1, s2, g) is the sign of det(dir s1, dir g.s2) at the unique
  transversal crossing; equivalently minus the counterclockwise winding
  of the boundary difference loop of the product square.  With b the side
  of s1's end on T = pull_back(s2.coeffs, adj g) and d that of g.s2's end
  on S = s1.coeffs, it is -b d sign(A_T B_S - A_S B_T), which is b for
  these right-positive triples.  This choice makes the translated-segment
  sum identity come out as -(n1 - n0) times the plain crossing number
  (see cocycles.theorem_b_chain_check).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DegenerateConfiguration,
    DegenerateEndpoint,
    MixedDiscriminant,
    SamplesExhausted,
)
from .exact import QuadIrr, floor_exact, quad_sign, sign_plus_root, square_core
from .mat2 import Mat, mat_adj, mat_det, pull_back
from .rmpoints import QForm, in_orbit_component
from .rmpoints import _orbit_bfs, class_key  # noqa: F401 - perfbench rebinds both here

# ---------------------------------------------------------------------------
# points, segments, geodesics


def _join_fields(D1: int | None, D2: int | None) -> int | None:
    """The one quadratic field of two stored discriminants (None is Q):
    equal ones are kept, different ones with the same squarefree core give
    that core."""
    if D1 is None or D1 == D2:
        return D2
    if D2 is None:
        return D1
    core = square_core(D1)[0]
    if core != square_core(D2)[0]:
        raise MixedDiscriminant(f"unsupported field tower: {D1} vs {D2}")
    return core


def _field_of(v) -> int | None:
    return v.D if isinstance(v, QuadIrr) and v.b != 0 else None


def _over(v, D: int) -> QuadIrr:
    """v, an element of Q(sqrt D), written as a QuadIrr over exactly D."""
    if not isinstance(v, QuadIrr):
        return QuadIrr(v, 0, D)
    if v.D == D:
        return v
    return QuadIrr(v.a, 0, D) if v.b == 0 else v.canonical()


class HPoint:
    """Point x + iy of the upper half-plane, y > 0, exact coordinates.

    D is the point's field Q(sqrt D), fixed when the point is built: None
    when both coordinates are rational, otherwise both coordinates are
    QuadIrr values over this one D.  n = x^2 + y^2, the squared modulus,
    is computed once here and read by every predicate."""

    __slots__ = ("x", "y", "D", "n")

    def __init__(self, x, y):
        if not isinstance(x, QuadIrr):
            x = Fraction(x)
        if not isinstance(y, QuadIrr):
            y = Fraction(y)
        D = _join_fields(_field_of(x), _field_of(y))  # raises on an unsupported tower
        if D is not None:
            x, y = _over(x, D), _over(y, D)
        if quad_sign(y) <= 0:
            raise ValueError("points must lie strictly above the real axis")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "n", x * x + y * y)

    def __setattr__(self, *args):
        raise AttributeError("HPoint is immutable")

    def __eq__(self, other):
        return isinstance(other, HPoint) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash(("H", self.x, self.y))

    def __repr__(self):
        return f"HPoint({self.x}, {self.y})"


def moebius_point(g: Mat, z: HPoint) -> HPoint:
    """Image of z under a positive-determinant rational matrix."""
    det = mat_det(g)
    if det <= 0:
        raise ValueError("need positive determinant")
    a, b = g[0]
    c, d = g[1]
    x, n = z.x, z.n
    den = n * (c * c) + x * (2 * c * d) + d * d
    num_x = n * (a * c) + x * (a * d + b * c) + b * d
    return HPoint(num_x / den, z.y * det / den)


class GSegment:
    """Oriented geodesic segment between two distinct points; D is the
    field of both endpoints, as for HPoint, and coeffs the triple of the
    geodesic through both, positive on the right of z0 -> z1."""

    __slots__ = ("z0", "z1", "D", "coeffs")

    def __init__(self, z0: HPoint, z1: HPoint):
        if z0 == z1:
            raise ValueError("segment endpoints must differ")
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "z1", z1)
        # raises on incompatible towers
        object.__setattr__(self, "D", _join_fields(z0.D, z1.D))
        n0, n1 = z0.n, z1.n
        object.__setattr__(self, "coeffs",
                           (z0.x - z1.x, n1 - n0, n0 * z1.x - n1 * z0.x))

    def __setattr__(self, *args):
        raise AttributeError("GSegment is immutable")

    def reversed(self) -> "GSegment":
        return GSegment(self.z1, self.z0)

    def transported(self, g: Mat) -> "GSegment":
        return GSegment(moebius_point(g, self.z0), moebius_point(g, self.z1))

    def __eq__(self, other):
        return isinstance(other, GSegment) and (self.z0, self.z1) == (other.z0, other.z1)

    def __repr__(self):
        return f"GSegment({self.z0}, {self.z1})"


def point_on_geodesic(form: QForm, t: Fraction) -> HPoint:
    """The point at Moebius parameter t > 0 on the geodesic of the form,
    travelling from the conjugate root (t -> 0) to the root (t -> oo);
    t = 1 is the apex."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("parameter must be positive")
    w, wc = form.root(), form.conj_root()
    den = 1 + t * t
    x = (w * (t * t) + wc) / den
    y = QuadIrr(0, Fraction(1, abs(form.A)), form.disc) * (t / den)  # |w - w'|
    return HPoint(x, y)


# ---------------------------------------------------------------------------
# side and crossing predicates


def _two_fields(E: int | None, D: int | None) -> bool:
    """Q(sqrt E) and Q(sqrt D) differ (None is Q): a value built from both
    is then decided as u + v sqrt(D) with u, v over Q(sqrt E)."""
    return (E is not None and D is not None and E != D
            and square_core(E)[0] != square_core(D)[0])


def _form_value_sign(coeffs, E: int | None, z: HPoint) -> int:
    """Exact sign of A(x^2+y^2) + Bx + C for coefficients in Q(sqrt E) and
    a point over its own field."""
    A, B, C = coeffs
    D, x, n = z.D, z.x, z.n
    if not _two_fields(E, D):
        return quad_sign(A * n + B * x + C)
    return sign_plus_root(A * n.a + B * x.a + C, A * n.b + B * x.b, D)


def side(f: QForm, z: HPoint) -> int:
    """Which component of the complement of the form's geodesic the point
    lies in (0 = on it)."""
    return quad_sign(f.A * z.n + f.B * z.x + f.C)


def cross_segment(seg: GSegment, f: QForm) -> int:
    """Signed transversal crossing count of the segment with the full
    geodesic of the form: (side(end) - side(start)) / 2."""
    s0 = side(f, seg.z0)
    s1 = side(f, seg.z1)
    if s0 == 0 or s1 == 0:
        raise DegenerateEndpoint("segment endpoint on the geodesic")
    return (s1 - s0) // 2


def _proportional(c1, c2) -> bool:
    a1, b1, g1 = c1
    a2, b2, g2 = c2
    return a1 * b2 == a2 * b1 and a1 * g2 == a2 * g1 and b1 * g2 == b2 * g1


def _x_overlap(seg1: GSegment, seg2: GSegment) -> bool:
    lo1, hi1 = sorted([seg1.z0.x, seg1.z1.x])
    lo2, hi2 = sorted([seg2.z0.x, seg2.z1.x])
    if lo1 == hi1:  # vertical segments: compare y-intervals
        lo1, hi1 = sorted([seg1.z0.y, seg1.z1.y])
        lo2, hi2 = sorted([seg2.z0.y, seg2.z1.y])
    return not (_lt(hi1, lo2) or _lt(hi2, lo1))


def _lt(a, b) -> bool:
    """a < b, for a and b each in its own quadratic field."""
    D = _field_of(b)
    if not _two_fields(_field_of(a), D):
        return quad_sign(b - a) > 0
    return sign_plus_root(b.a - a, b.b, D) > 0


def ez_cross(seg1: GSegment, seg2: GSegment, g: Mat) -> int:
    """Homology class of the boundary of the product square of seg1 and
    g . seg2 in the punctured product: 0 when the segments are disjoint,
    otherwise the orientation sign of (dir seg1, dir g.seg2) at the
    unique transversal crossing.  Both geodesics move as triples, so no
    point moves unless the two segments share their geodesic."""
    if mat_det(g) <= 0:
        raise ValueError("need positive determinant")
    moved = pull_back(seg2.coeffs, mat_adj(g))  # the geodesic of g.seg2
    a = _form_value_sign(moved, seg2.D, seg1.z0)
    b = _form_value_sign(moved, seg2.D, seg1.z1)
    if a * b > 0:
        return 0  # seg1 strictly misses the geodesic of g.seg2
    if a == 0 and b == 0:  # two points of seg1 on it: one geodesic
        if _x_overlap(seg1, seg2.transported(g)):
            raise DegenerateConfiguration("segments share their geodesic")
        return 0
    back = pull_back(seg1.coeffs, g)  # read at seg2: sides of g.seg2's ends
    c = _form_value_sign(back, seg1.D, seg2.z0)
    d = _form_value_sign(back, seg1.D, seg2.z1)
    if c * d > 0:
        return 0  # g.seg2 strictly misses seg1's geodesic
    if 0 in (a, b, c, d):
        raise DegenerateConfiguration("segment endpoint on the other geodesic")
    return b  # seg1 ends on the right of g.seg2: det(dir seg1, dir g.seg2) > 0


# ---------------------------------------------------------------------------
# winding-number oracle (independent engine)


class _Piece:
    """One boundary arc of the difference loop: points eps*(x, f(x)) + c
    for x running over [x0, x1] (or a vertical segment parametrized by y)."""

    __slots__ = ("coeffs", "p0", "p1", "eps", "cx", "cy", "vertical")

    def __init__(self, coeffs, p0, p1, eps, cx, cy):
        self.coeffs = coeffs
        self.p0 = p0
        self.p1 = p1
        self.eps = eps
        self.cx = cx
        self.cy = cy
        self.vertical = coeffs[0] == 0


def _loop_pieces(seg1: GSegment, t: GSegment) -> list[_Piece]:
    """The four sides of the product square under (z, w) -> z - w, traversed
    counterclockwise in the parameter square."""
    cs, ct = seg1.coeffs, t.coeffs

    def param(seg, z):
        return z.y if seg.coeffs[0] == 0 else z.x

    s_a, s_b = param(seg1, seg1.z0), param(seg1, seg1.z1)
    t_a, t_b = param(t, t.z0), param(t, t.z1)
    return [
        _Piece(cs, s_a, s_b, 1, -t.z0.x, -t.z0.y),     # s: 0 -> 1 at t = 0
        _Piece(ct, t_a, t_b, -1, seg1.z1.x, seg1.z1.y),  # t: 0 -> 1 at s = 1
        _Piece(cs, s_b, s_a, 1, -t.z1.x, -t.z1.y),     # s: 1 -> 0 at t = 1
        _Piece(ct, t_b, t_a, -1, seg1.z0.x, seg1.z0.y),  # t: 1 -> 0 at s = 0
    ]


def _piece_crossings(piece: _Piece, q: Fraction) -> list[int] | None:
    """Signed crossings of the piece with the ray {y = qx, x > 0}.

    Returns None when the configuration is degenerate for this ray (retry
    with another slope)."""
    A, B, C = piece.coeffs
    eps, cx, cy = piece.eps, piece.cx, piece.cy
    out: list[int] = []
    travel = quad_sign(piece.p1 - piece.p0)

    if piece.vertical:
        # points: X = eps*x0 + cx constant, Y = eps*y + cy
        x0 = -C / B
        X = eps * x0 + cx
        # W(y) = eps*y + cy - q X ; zero at y*
        ystar = (q * X - cy) / eps
        lo, hi = piece.p0, piece.p1
        s_lo = quad_sign(ystar - lo)
        s_hi = quad_sign(ystar - hi)
        if s_lo == 0 or s_hi == 0:
            return None
        if s_lo * s_hi < 0:
            sX = quad_sign(X)
            if sX == 0:
                return None
            if sX > 0:
                out.append(eps * travel)
        return out
    # circle piece: substitute y = (q x_glob - cy + q cx ... ) into the circle.
    # Global point: X = eps x + cx, Y = eps f(x) + cy with f on the circle.
    # On the ray: eps f(x) + cy = q (eps x + cx)  =>  f(x) = q x + r
    r = (q * cx - cy) / eps
    alpha = A * (1 + q * q)
    beta = 2 * A * q * r + B
    gamma = A * r * r + C
    disc = beta * beta - 4 * alpha * gamma
    sd = quad_sign(disc)
    if sd == 0:
        return None  # tangency: perturb the ray
    if sd < 0:
        return []
    lo, hi = piece.p0, piece.p1
    for sgn in (1, -1):
        # root x* = (-beta + sgn sqrt(disc)) / (2 alpha)
        twoa = 2 * alpha
        sa = quad_sign(twoa)
        # x* - v has the sign of (-beta - twoa*v) + sgn*sqrt(disc), times sign(twoa)
        def cmp_to(v):
            return sa * sign_plus_root(-beta - twoa * v, Fraction(sgn), disc)

        c_lo, c_hi = cmp_to(lo), cmp_to(hi)
        if c_lo == 0 or c_hi == 0:
            return None
        if c_lo * c_hi >= 0:
            continue  # root outside the open parameter interval
        # y-coordinate on the arc must be positive: f(x*) = q x* + r > 0
        # sign of q x* + r: (q(-beta) + r twoa) + q sgn sqrt(disc), over twoa
        y_sign = sa * sign_plus_root(q * (-beta) + r * twoa, q * sgn, disc) \
            if q != 0 else quad_sign(r)
        if y_sign <= 0:
            continue  # crossing happens on the lower half of the circle
        # X > 0: eps x* + cx > 0
        sX = sign_plus_root(eps * (-beta) + cx * twoa, Fraction(eps * sgn), disc) * sa
        if sX == 0:
            return None
        if sX < 0:
            continue
        # direction: sign of dW/dx * eps * travel, where
        # dW/dx = f'(x) - q = -(2A x + B)/(2A f(x)) - q
        # multiply by (2A f(x))^2 > 0: sign of -(2Ax*+B)(2A f(x*)) - q(2A f(x*))^2
        # with f(x*) = q x* + r linear in x*.  Expand in u + v sqrt(disc).
        xu, xv = -beta, Fraction(sgn)  # numerators over twoa
        # work with t = x* = (xu + xv sqrt)/twoa; f = q t + r
        # g1 = 2A t + B ; g2 = 2A f + 0 = 2A q t + 2A r
        g1u = 2 * A * xu + B * twoa
        g1v = 2 * A * xv
        g2u = 2 * A * q * xu + 2 * A * r * twoa
        g2v = 2 * A * q * xv
        # sign of -(g1)(g2) - q (g2)^2  (all over twoa^2 > 0)
        pu = -(g1u * g2u + g1v * g2v * disc) - q * (g2u * g2u + g2v * g2v * disc)
        pv = -(g1u * g2v + g1v * g2u) - q * (2 * g2u * g2v)
        dW = sign_plus_root(pu, pv, disc)
        if dW == 0:
            return None
        out.append(dW * eps * travel)
    return out


def winding_oracle(seg1: GSegment, seg2: GSegment, g: Mat) -> int:
    """Winding-number engine for the same class as ez_cross, computed by
    exact signed ray-crossing counts over the boundary difference loop.

    Independent of the local-determinant predicate; shares only the global
    orientation convention (the returned value is minus the raw
    counterclockwise winding).  Degenerate ray choices are escaped by
    re-drawing the ray over a fixed list of 16 slopes."""
    if mat_det(g) <= 0:
        raise ValueError("need positive determinant")
    t = seg2.transported(g)
    if _proportional(seg1.coeffs, t.coeffs):
        if _x_overlap(seg1, t):
            raise DegenerateConfiguration("segments share their geodesic")
        return 0
    # corner degeneracy: the loop passes through 0 iff an endpoint pair meets
    for za in (seg1.z0, seg1.z1):
        for zb in (t.z0, t.z1):
            if za == zb:
                raise DegenerateConfiguration("shared endpoint in the square")
    pieces = _loop_pieces(seg1, t)
    slopes = [Fraction(0)] + [Fraction(1, pr) for pr in (97, 89, 101, 83, 103, 79)] \
        + [Fraction(-1, pr) for pr in (97, 89, 101, 83, 103, 79)] \
        + [Fraction(2, pr) for pr in (97, 89, 101)]
    for q in slopes:
        total = 0
        ok = True
        for piece in pieces:
            res = _piece_crossings(piece, q)
            if res is None:
                ok = False
                break
            total += sum(res)
        if ok:
            return -total
    raise SamplesExhausted("no ray slope avoided all degeneracies")


# ---------------------------------------------------------------------------
# orbit geodesics crossing a segment


def _seg_box(seg: GSegment):
    xs = sorted([seg.z0.x, seg.z1.x])
    ys = sorted([seg.z0.y, seg.z1.y])
    return xs[0], xs[1], ys[0]


def enumerate_crossing_orbit(seg: GSegment, base: QForm, p: int,
                             levels: int) -> list[tuple[QForm, int]]:
    """All forms in the SL2(Z[1/p]) orbit of base, of discriminant
    disc * p^(2m) with |m| <= levels, whose geodesic crosses the segment,
    with their crossing signs.

    Completeness: a geodesic (A, B, C) of discriminant d through z = x + iy
    satisfies (2Ax + B)^2 + (2Ay)^2 = d, so over the segment's bounding box
    |A| <= sqrt(d)/(2 y_min) and 2Ax + B is confined to [-sqrt d, sqrt d];
    every candidate in that finite box is tested exactly.
    """
    x_lo, x_hi, y_min = _seg_box(seg)
    d0 = base.disc
    top_disc = d0 * p ** (2 * levels)
    out: list[tuple[QForm, int]] = []

    def scan_A(d, A):
        s = math.isqrt(d)
        vals = sorted([2 * A * x_lo, 2 * A * x_hi])
        b_lo = floor_exact(-s - vals[1]) - 1
        b_hi = floor_exact(s - vals[0]) + 2
        # 4A | B^2 - d forces B = d mod 2
        for B in range(b_lo + (b_lo - d) % 2, b_hi + 1, 2):
            num = B * B - d
            if num % (4 * A) != 0:
                continue
            C = num // (4 * A)
            if math.gcd(A, B, C) != 1:
                continue
            # A != 0, primitive, B^2 - 4AC = d a positive non-square: a form
            f = QForm(A, B, C)
            # cheap rejection first: most candidates miss the segment
            s0 = side(f, seg.z0)
            s1 = side(f, seg.z1)
            if s0 != 0 and s0 == s1:
                continue
            # only orbit members matter, including for degeneracy
            if not in_orbit_component(f, base, p, top_disc):
                continue
            if s0 == 0 or s1 == 0:
                raise DegenerateEndpoint("segment endpoint on an orbit geodesic")
            sgn = (s1 - s0) // 2
            if sgn == 0:
                continue
            out.append((f, sgn))

    for m in range(-levels, levels + 1):
        if m < 0:
            q = p ** (-2 * m)
            if d0 % q != 0:
                continue
            d = d0 // q
        else:
            d = d0 * p ** (2 * m)
        amax_sq = Fraction(d, 4)
        a = 1
        while quad_sign(amax_sq - y_min * y_min * (a * a)) >= 0:
            scan_A(d, a)
            scan_A(d, -a)
            a += 1
    out.sort(key=lambda fs: fs[0].triple())
    return out
