"""Divisor-valued cocycles and their executable identities.

The one-variable cocycle assigns to a group element the signed crossing
divisor of the path x0 -> gamma.x0 with the orbit geodesics; the
two-variable cocycle pairs a product square with the twisted diagonals
it meets.  All values are finite signed divisors with syntactic keys:
forms (A, B, C) for RM points, primitive integral matrices for the
twisted-diagonal labels.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

from .errors import DegenerateConfiguration, DegenerateEndpoint, NotRM
from .exact import QuadIrr, divisors, floor_exact, p_free, quad_sign, val_p
from .hyperbolic import (
    GSegment,
    HPoint,
    _form_value_sign,
    enumerate_crossing_orbit,
    ez_cross,
    moebius_point,
    point_on_geodesic,
)
from .mat2 import (
    IDENT,
    Mat,
    from_ints,
    mat_inv,
    mat_mul,
    p_exponent,
    primitive_integral,
    pull_back,
)
from .rmpoints import QForm, automorph, form_apply, is_rm_for, orbit_conjugator

# ---------------------------------------------------------------------------
# divisors


class SignedSum:
    """Immutable finite signed formal sum: a dict from key to a nonzero int.

    Built from a dict or from (key, multiplicity) pairs; repeated keys add
    up and zero totals are dropped.  Subclasses name what the keys are and
    add the actions on them."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        acc: defaultdict = defaultdict(int)
        for k, m in entries.items() if isinstance(entries, dict) else entries:
            acc[k] += m
        object.__setattr__(self, "entries", {k: m for k, m in acc.items() if m})

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, pairs):
        """A sum of the same kind over the given pairs."""
        return type(self)(pairs)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like([*self.entries.items(), *other.entries.items()])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return self._like((k, c * m) for k, m in self.entries.items())

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return type(other) is type(self) and self.entries == other.entries


class RMDivisor(SignedSum):
    """Finite signed formal sum of RM points, keyed by their forms."""

    __slots__ = ()

    def act(self, g: Mat) -> "RMDivisor":
        return RMDivisor((form_apply(g, f), m) for f, m in self.entries.items())

    def restrict_levels(self, base_disc: int, p: int, levels: int) -> "RMDivisor":
        """Keep points whose disc is base_disc * p^(2m) with |m| <= levels."""
        keep = {}
        for f, m in self.entries.items():
            big, small = max(f.disc, base_disc), min(f.disc, base_disc)
            if big % small:
                continue
            r = big // small
            if p_free(r, p) == 1 and val_p(r, p) <= 2 * levels:
                keep[f] = m
        return RMDivisor(keep)

    def __repr__(self):
        items = sorted(self.entries.items(), key=lambda fm: fm[0].triple())
        return "RMDivisor(" + ", ".join(f"{f.triple()}:{m}" for f, m in items) + ")"

    def to_json(self):
        return [{"form": list(f.triple()), "disc": f.disc, "mult": m}
                for f, m in sorted(self.entries.items(), key=lambda fm: fm[0].triple())]


Label = tuple[int, int, int, int]


def canonical_label(g: Mat) -> Label:
    """Primitive integral matrix with positive leading entry spanning Q* g."""
    return primitive_integral(g)


def label_inverse(lbl: Label) -> Label:
    a, b, c, d = lbl
    return canonical_label(from_ints((d, -b, -c, a)))


def label_p_exponent(lbl: Label, p: int) -> int:
    """k with det = n * p^(2k), gcd(n, p) = 1, for the scaled group element."""
    a, b, c, d = lbl
    return val_p(a * d - b * c, p) // 2


class RQDivisor(SignedSum):
    """Finite signed sum of twisted-diagonal labels (canonical matrices)."""

    __slots__ = ()

    def restrict_p_exponent(self, p: int, radius: int) -> "RQDivisor":
        return RQDivisor({v: m for v, m in self.entries.items()
                          if label_p_exponent(v, p) <= radius})

    def __repr__(self):
        items = sorted(self.entries.items())
        return "RQDivisor(" + ", ".join(f"{v}:{m}" for v, m in items) + ")"

    def to_json(self):
        return [{"v": [[v[0], v[1]], [v[2], v[3]]], "mult": m}
                for v, m in sorted(self.entries.items())]


def sigma_swap(div: RQDivisor) -> RQDivisor:
    """Relabel every twisted diagonal by the inverse group element."""
    return RQDivisor((label_inverse(v), m) for v, m in div.entries.items())


def int_rm(div: RQDivisor, base: QForm, p: int) -> RMDivisor:
    """Push labels through v -> v . root(base), collecting multiplicities."""
    if not is_rm_for(base, p):
        raise NotRM(f"base not RM for p={p}")
    return RMDivisor((form_apply(from_ints(v), base), m) for v, m in div.entries.items())


class ChainSquare:
    """Product square of two segments (the degree-(1,1) EZ component)."""

    __slots__ = ("seg1", "seg2")

    def __init__(self, seg1: GSegment, seg2: GSegment):
        object.__setattr__(self, "seg1", seg1)
        object.__setattr__(self, "seg2", seg2)

    def __setattr__(self, *args):
        raise AttributeError("ChainSquare is immutable")

    def swap(self) -> "ChainSquare":
        """Image under the coordinate swap of the product space.  Reversing
        the new first factor absorbs the orientation sign of swapping the
        two square factors."""
        return ChainSquare(self.seg2.reversed(), self.seg1)

    def act(self, g1: Mat, g2: Mat) -> "ChainSquare":
        return ChainSquare(self.seg1.transported(g1), self.seg2.transported(g2))


# ---------------------------------------------------------------------------
# the one-variable cocycle


def dv_value_on_segment(base: QForm, segment: GSegment | None, p: int,
                        levels: int) -> RMDivisor:
    if segment is None:
        return RMDivisor()
    return RMDivisor(enumerate_crossing_orbit(segment, base, p, levels))


def chain_segment(gamma: Mat, x0: HPoint) -> GSegment | None:
    """The path x0 -> gamma.x0, or None when gamma fixes x0 (zero chain)."""
    z1 = moebius_point(gamma, x0)
    if z1 == x0:
        return None
    return GSegment(x0, z1)


def dv_value(base: QForm, gamma: Mat, x0: HPoint, p: int, levels: int) -> RMDivisor:
    """Signed crossings of the path x0 -> gamma.x0 with the orbit geodesics
    of disc * p^(2m), |m| <= levels; raises DegenerateEndpoint when an
    endpoint sits on an orbit geodesic (callers perturb x0, keeping one
    base point per whole computation so cocycle identities stay exact)."""
    if not is_rm_for(base, p):
        raise NotRM(f"base not RM for p={p}")
    return dv_value_on_segment(base, chain_segment(gamma, x0), p, levels)


def perturbed_base_points(x0: HPoint):
    """Deterministic perturbation ladder for degenerate base points."""
    yield x0
    for prime in (223, 227, 229, 233, 239, 241, 251, 257):
        yield HPoint(x0.x + Fraction(1, prime), x0.y)


def cocycle_defect(base: QForm, g1: Mat, g2: Mat, x0: HPoint, p: int,
                   levels: int) -> RMDivisor:
    """dv(g1 g2) - dv(g1) - g1 . dv(g2), restricted to the level window.

    The g2 divisor is computed on a window widened by the level shift the
    g1-action can cause (2k for p-denominator exponent k), then everything
    is restricted back, so the reported defect is exact per RM point.
    """
    ext = 2 * p_exponent(g1, p)
    last_err: Exception | None = None
    for x in perturbed_base_points(x0):
        try:
            d12 = dv_value(base, mat_mul(g1, g2), x, p, levels)
            d1 = dv_value(base, g1, x, p, levels)
            d2 = dv_value(base, g2, x, p, levels + ext)
        except DegenerateEndpoint as exc:
            last_err = exc
            continue
        moved = d2.act(g1)
        defect = (d12 - d1 - moved).restrict_levels(base.disc, p, levels)
        return defect
    raise DegenerateEndpoint(f"perturbation budget exhausted: {last_err}")


# ---------------------------------------------------------------------------
# the two-variable cocycle


def _sqrt_upper(q: Fraction) -> Fraction:
    """A rational upper bound for sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    scale = 1 << 12
    n = math.isqrt((q.numerator * scale * scale) // q.denominator) + 1
    return Fraction(n, scale)


def _upper(v) -> Fraction:
    """Rational upper bound for a Fraction or QuadIrr value: exact for Q,
    ceil(4096 v) / 4096 otherwise."""
    if not isinstance(v, QuadIrr):
        return Fraction(v)
    return Fraction(-floor_exact(-4096 * v), 4096)


def _lower(v) -> Fraction:
    if not isinstance(v, QuadIrr):
        return Fraction(v)
    return -_upper(-v)


def _lower_pos(v) -> Fraction:
    """Positive rational lower bound for a positive value: the 1/4096 grid
    bound when that is positive, else 1 / (an upper bound for 1/v), which
    is within a factor 1 + v/4096 of v."""
    if quad_sign(v) <= 0:
        raise ValueError("value must be positive")
    lo = _lower(v)
    return lo if lo > 0 else 1 / _upper(1 / v)


def _seg_ranges(seg: GSegment) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Rational bounds (x_lo, x_hi, y_lo, y_hi) containing the whole arc."""
    xs = [seg.z0.x, seg.z1.x]
    ys = [seg.z0.y, seg.z1.y]
    x_lo = min(_lower(x) for x in xs)
    x_hi = max(_upper(x) for x in xs)
    y_lo = min(_lower_pos(y) for y in ys)
    y_hi = max(_upper(y) for y in ys)
    A, B, C = seg.coeffs
    if A != 0:
        x_apex = -B / (2 * A)
        inside = _lower(x_apex) <= x_hi and x_lo <= _upper(x_apex)
        if inside:
            disc = B * B - 4 * A * C
            apex_sq = disc / (4 * A * A)
            y_hi = max(y_hi, _sqrt_upper(_upper(apex_sq)))
    return x_lo, x_hi, y_lo, y_hi


def d1_candidates(seg1: GSegment, seg2: GSegment, p: int, radius: int,
                  det_prime_part: int = 1):
    """All canonical labels g (primitive integral, det = n p^(2k), k <= radius,
    n = det_prime_part) whose Moebius action can move seg2's region to meet
    seg1's region; bounds derived from the two bounding boxes."""
    x1l, x1h, y1l, y1h = _seg_ranges(seg1)
    x2l, x2h, y2l, y2h = _seg_ranges(seg2)
    labels: set[Label] = set()
    for k in range(radius + 1):
        n = det_prime_part * p ** (2 * k)
        m_hi = Fraction(n) * y2h / y1l
        mm_hi = Fraction(n) * y1h / y2l
        c_max = int(_sqrt_upper(m_hi) / y2l) + 1
        sq_m = _sqrt_upper(m_hi)
        sq_mm = _sqrt_upper(mm_hi)
        for c in range(-c_max, c_max + 1):
            if c == 0:
                for a in (sign * e for e in divisors(n) for sign in (1, -1)):
                    d = n // a
                    # w = (a z + b)/d: Re w in [x1l, x1h] for some Re z
                    lo = min(d * x1l, d * x1h) - max(a * x2l, a * x2h)
                    hi = max(d * x1l, d * x1h) - min(a * x2l, a * x2h)
                    for b in range(math.floor(lo) - 1, math.ceil(hi) + 2):
                        g = (a, b, 0, d)
                        _add_label(labels, g)
                continue
            cx = sorted([c * x2l, c * x2h])
            d_lo = math.floor(-sq_m - cx[1]) - 1
            d_hi = math.ceil(sq_m - cx[0]) + 1
            cw = sorted([c * x1l, c * x1h])
            a_lo = math.floor(cw[0] - sq_mm) - 1
            a_hi = math.ceil(cw[1] + sq_mm) + 1
            for d in range(d_lo, d_hi + 1):
                for a in range(a_lo, a_hi + 1):
                    num = a * d - n
                    if num % c:
                        continue
                    b = num // c
                    _add_label(labels, (a, b, c, d))
    return sorted(labels)


def _add_label(labels: set[Label], g: Label):
    a, b, c, d = g
    if a * d - b * c <= 0:
        return
    gg = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    if gg != 1:
        return  # imprimitive, p-multiples too: a smaller label covers it
    lead = next(v for v in g if v != 0)
    if lead < 0:
        g = (-a, -b, -c, -d)
    labels.add(g)


def _folded_pairing(chain: ChainSquare, labels) -> RQDivisor:
    """Product-square pairing of the chain with the twisted diagonal of each
    label, counted with the +-1 folding (each unoriented label carries
    twice the sign)."""
    return RQDivisor((lbl, 2 * ez_cross(chain.seg1, chain.seg2, from_ints(lbl)))
                     for lbl in labels)


def d1_value(chain: ChainSquare, p: int, radius: int) -> RQDivisor:
    """Sum over group elements gamma (p-denominator exponent <= radius) of
    the product-square pairing with the twisted diagonal of gamma."""
    return _folded_pairing(chain, d1_candidates(chain.seg1, chain.seg2, p, radius))


# ---------------------------------------------------------------------------
# the chain identity behind the two-variable / one-variable comparison


def theorem_b_chain_check(delta: GSegment, n0: int, n1: int, base: QForm,
                          p: int, levels: int) -> dict:
    """Exact comparison, per RM point of the level window, of

        LHS(tau) = 2 * sum_n  [square of delta and the automorph step
                               segment, paired with the diagonal of
                               beta_tau gamma_base^n]
        RHS(tau) = -2 (n1 - n0) * (delta crossing Delta_tau)

    together with the two reduction identities: the translated-segment sum
    for (n0, n1) equals (n1 - n0) times the unit-step sum, and the
    unit-step sum equals minus the plain crossing number.
    """
    if not is_rm_for(base, p):
        raise NotRM(f"base not RM for p={p}")
    aut = automorph(base, p)
    support = enumerate_crossing_orbit(delta, base, p, levels)
    report = {
        "base": base.triple(), "p": p, "levels": levels,
        "n0": n0, "n1": n1, "points": [], "all_ok": True,
    }
    half = Fraction(1, 2)  # base point y0 = point_on_geodesic(base, ty)
    for ty in (half, half + Fraction(1, 97), half + Fraction(2, 101),
               half - Fraction(1, 89), half + Fraction(3, 103)):
        try:
            points = _theorem_b_points(delta, n0, n1, base, aut, support, p, ty)
        except DegenerateConfiguration:
            continue
        report["points"] = points
        report["all_ok"] = all(pt["ok"] and pt["mfold_ok"] and pt["single_ok"]
                               for pt in points)
        report["t_y"] = str(ty)
        return report
    raise DegenerateConfiguration("no base point on the geodesic avoided "
                                  "all degeneracies")


def _times_power(beta: Mat, gamma: Mat, n: int) -> Mat:
    """beta gamma^n."""
    step = gamma if n >= 0 else mat_inv(gamma)
    for _ in range(abs(n)):
        beta = mat_mul(beta, step)
    return beta


def _crossing_tile(delta: GSegment, beta: Mat, gamma: Mat, y0: HPoint) -> int:
    """The n whose tile beta gamma^n . [y0, gamma.y0] holds the crossing of
    the orbit geodesic through beta.y0 with delta's carrying geodesic.

    The tiles cover the orbit geodesic end to end and a support form's
    geodesic meets delta's carrying geodesic exactly once, so the points
    beta gamma^n . y0 change side of the latter exactly once.  The side of
    beta.z on delta's geodesic is the side of z on its pull-back by beta,
    so the walk steps the points gamma^n . y0 both ways from n = 0 until
    they do."""
    coeffs = pull_back(delta.coeffs, beta)
    down = mat_inv(gamma)

    def side_of(z: HPoint) -> int:
        s = _form_value_sign(coeffs, delta.D, z)
        if s == 0:
            raise DegenerateConfiguration("tile endpoint on the carrying geodesic")
        return s

    z_up = z_down = y0
    s0 = side_of(y0)
    for k in itertools.count(1):
        z_up = moebius_point(gamma, z_up)
        if side_of(z_up) != s0:
            return k - 1
        z_down = moebius_point(down, z_down)
        if side_of(z_down) != s0:
            return -k


def _theorem_b_points(delta, n0, n1, base, aut, support, p, ty):
    """Each inner sum is read off the tile n* holding delta's crossing:
    beta gamma^n . [gamma^n0 y0, gamma^n1 y0] meets delta exactly when it
    covers that tile, that is for n in (n* - max(n0, n1), n* - min(n0, n1)]."""
    y0 = point_on_geodesic(base, ty)
    gamma = aut.gamma
    seg_unit = GSegment(y0, moebius_point(gamma, y0))
    ends = [moebius_point(_times_power(IDENT, gamma, n), y0) for n in (n0, n1)]
    points = []
    for f, cross in support:
        beta = orbit_conjugator(base, f, p)
        n_star = _crossing_tile(delta, beta, gamma, y0)
        inner_unit = ez_cross(delta, seg_unit, _times_power(beta, gamma, n_star))
        inner = sum(ez_cross(delta, GSegment(*ends), _times_power(beta, gamma, n))
                    for n in range(n_star - max(n0, n1) + 1, n_star - min(n0, n1) + 1))
        lhs = 2 * inner
        rhs = -2 * (n1 - n0) * cross
        points.append({
            "form": f.triple(),
            "cross": cross,
            "inner": inner,
            "lhs": lhs,
            "rhs": rhs,
            "ok": lhs == rhs,
            "mfold_ok": inner == (n1 - n0) * inner_unit,
            "single_ok": inner_unit == -cross,
        })
    return points
