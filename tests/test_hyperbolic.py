import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rmlab.cli import run
from rmlab.cocycles import chain_segment
from rmlab.errors import DegenerateConfiguration, DegenerateEndpoint, MixedDiscriminant
from rmlab.exact import QuadIrr, floor_exact, quad_sign
from rmlab.hyperbolic import (
    _SQRT_RESIDUES,
    GSegment,
    HPoint,
    _endpoint_floors,
    _form_value_sign,
    _sqrt_residues,
    cross_segment,
    enumerate_crossing_orbit,
    ez_cross,
    moebius_point,
    point_on_geodesic,
    side,
    winding_oracle,
)
from rmlab.mat2 import mat, mat_det, mat_inv, pull_back
from rmlab.rmpoints import QForm, automorph, form_apply, is_rm_for
from tests_helpers_brute import box_scan_crossings, brute_force_crossings, float_walk_crossing

GOLDEN = QForm(1, -1, -1)
APEX = point_on_geodesic(GOLDEN, 1)


def seg(x0, y0, x1, y1):
    return GSegment(HPoint(Fraction(x0), Fraction(y0)), HPoint(Fraction(x1), Fraction(y1)))


def test_side_examples():
    z = HPoint(0, 2)
    assert side(GOLDEN, z) == 1  # 4 + 0 - 1 = 3
    assert side(GOLDEN, APEX) == 0
    zin = HPoint(Fraction(3, 10), Fraction(1, 10))
    assert side(GOLDEN, zin) == -1
    neg = -GOLDEN
    assert side(neg, z) == -1
    assert side(neg, zin) == 1


def test_point_fields_and_errors():
    # coordinates over sqrt(20) and sqrt(5) share one field, stored over 5
    z = HPoint(QuadIrr(0, 1, 20), QuadIrr(3, 1, 5))
    assert z.D == 5 and z.x.D == z.y.D == 5 and z.x == QuadIrr(0, 2, 5)
    assert HPoint(Fraction(1, 2), 3).D is None
    assert GSegment(z, HPoint(1, 1)).D == 5
    with pytest.raises(MixedDiscriminant):
        HPoint(QuadIrr(0, 1, 2), QuadIrr(2, 1, 3))
    with pytest.raises(MixedDiscriminant):
        GSegment(HPoint(QuadIrr(0, 1, 2), 1), HPoint(0, QuadIrr(2, 1, 3)))
    with pytest.raises(ValueError):
        HPoint(1, QuadIrr(2, -1, 5))


def test_point_hash_agrees_with_equality():
    a = HPoint(QuadIrr(0, 1, 20), 1)
    b = HPoint(QuadIrr(0, 2, 5), 1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(HPoint(QuadIrr(1, 0, 7), 2)) == hash(HPoint(1, 2))


def test_cross_segment_examples():
    s_same = seg(0, 2, 1, 3)
    assert cross_segment(s_same, GOLDEN) == 0
    s = GSegment(HPoint(0, 2), HPoint(Fraction(3, 10), Fraction(1, 10)))
    assert cross_segment(s, GOLDEN) == -1
    assert cross_segment(s.reversed(), GOLDEN) == 1
    with pytest.raises(DegenerateEndpoint):
        cross_segment(GSegment(APEX, HPoint(0, 2)), GOLDEN)


def test_cross_segment_additive():
    rng = random.Random(21)
    for _ in range(200):
        pts = [HPoint(Fraction(rng.randint(-40, 40), 10),
                      Fraction(rng.randint(1, 40), 10)) for _ in range(3)]
        try:
            c01 = cross_segment(GSegment(pts[0], pts[1]), GOLDEN)
            c12 = cross_segment(GSegment(pts[1], pts[2]), GOLDEN)
            c02 = cross_segment(GSegment(pts[0], pts[2]), GOLDEN)
        except (DegenerateEndpoint, ValueError):
            continue
        assert c01 + c12 == c02


def test_point_on_geodesic_identity():
    # (2Ax + B)^2 + (2Ay)^2 = disc holds exactly on the geodesic, for either
    # sign of A; t = 1 is the apex (-B/2A, sqrt(disc)/2|A|)
    for f in (GOLDEN, QForm(1, 0, -2), QForm(3, 2, -4), QForm(-1, 1, 1),
              QForm(-3, 2, 4)):
        for t in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
            z = point_on_geodesic(f, t)
            lhs = (2 * f.A * z.x + f.B) ** 2 + (2 * f.A * z.y) ** 2
            assert lhs == f.disc
            assert side(f, z) == 0
        apex = point_on_geodesic(f, 1)
        assert apex.x == Fraction(-f.B, 2 * f.A)
        assert apex.y == QuadIrr(0, Fraction(1, 2 * abs(f.A)), f.disc)


def test_moebius_point():
    z = HPoint(0, 1)
    g = mat(1, 1, 0, 1)
    assert moebius_point(g, z) == HPoint(1, 1)
    s = mat(0, -1, 1, 0)
    assert moebius_point(s, z) == HPoint(0, 1)
    assert moebius_point(s, HPoint(0, 2)) == HPoint(0, Fraction(1, 2))
    # determinant-2 matrix scales the metric but stays exact
    assert moebius_point(mat(2, 0, 0, 1), z) == HPoint(0, 2)


def reference_config():
    """Vertical segment crossing the golden geodesic once, and the
    automorph-step segment on the geodesic containing the crossing."""
    d1 = seg(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 2)
    a = automorph(GOLDEN, 2)
    t0 = Fraction(1, 2)
    y0 = point_on_geodesic(GOLDEN, t0)
    y1 = moebius_point(a.gamma, y0)
    d2 = GSegment(y0, y1)
    return d1, d2


def test_ez_cross_reference_orientation():
    # frozen global orientation: the EZ square of an upward segment crossing
    # the geodesic (cross = +1) against the forward automorph step pairs to -1
    d1, d2 = reference_config()
    assert cross_segment(d1, GOLDEN) == 1
    assert ez_cross(d1, d2, mat(1, 0, 0, 1)) == -1
    assert winding_oracle(d1, d2, mat(1, 0, 0, 1)) == -1


def test_ez_cross_disjoint_and_degenerate():
    d1 = seg(0, 1, 0, 2)
    d2 = seg(5, 1, 6, 1)
    ident = mat(1, 0, 0, 1)
    assert ez_cross(d1, d2, ident) == 0
    assert winding_oracle(d1, d2, ident) == 0
    with pytest.raises(DegenerateConfiguration):
        ez_cross(d1, d1, ident)
    # shared endpoint is degenerate for the oracle too
    with pytest.raises(DegenerateConfiguration):
        winding_oracle(d1, seg(0, 2, 3, 2), ident)


def test_ez_cross_simple_crossing():
    d1 = seg(0, 1, 0, 3)           # upward vertical at x = 0
    d2 = GSegment(HPoint(-1, QuadIrr(0, 1, 3)), HPoint(1, QuadIrr(0, 1, 3)))
    # d2 runs left to right over the circle |z| = 2; crossing at (0, 2)
    ident = mat(1, 0, 0, 1)
    assert ez_cross(d1, d2, ident) == -1
    assert ez_cross(d1, d2.reversed(), ident) == 1
    assert ez_cross(d1.reversed(), d2, ident) == 1
    assert winding_oracle(d1, d2, ident) == -1


def test_ez_cross_mixed_fields_reads_each_point_over_its_field():
    # seg1 lies on x^2 + y^2 - 3x - 34 = 0 with rational carrying
    # coefficients; its start has x = sqrt(20), y = 3 + sqrt(5).  t lies on
    # x^2 + y^2 - 5 sqrt(2) x + C = 0, C = -47/2, a circle of radius 6 over
    # Q(sqrt 2).  That form is 34 + C + 6 sqrt(5) - 10 sqrt(10) at seg1's
    # start and 43 + C + 6 sqrt(5) - 15 sqrt(2) - 10 sqrt(10) at its end,
    # both negative, so seg1 misses t's geodesic, although t runs from
    # outside seg1's circle to inside it.
    seg1 = GSegment(HPoint(QuadIrr(0, 1, 20), QuadIrr(3, 1, 5)),
                    HPoint(QuadIrr(3, 2, 5), QuadIrr(3, -1, 5)))
    t = GSegment(HPoint(QuadIrr(0, Fraction(5, 2), 2), 6),
                 HPoint(QuadIrr(Fraction(-18, 5), Fraction(5, 2), 2), Fraction(24, 5)))
    ident = mat(1, 0, 0, 1)
    assert seg1.coeffs == (-3, 9, 102)
    assert ez_cross(seg1, t, ident) == 0
    assert ez_cross(t, seg1, ident) == 0


def rand_segment(rng, field=None):
    """A random segment, rational or with both endpoints over Q(sqrt field)."""
    while True:
        try:
            if field:
                z0 = HPoint(QuadIrr(rng.randint(-3, 3), rng.randint(-2, 2), field),
                            QuadIrr(rng.randint(1, 3), 0, field))
                z1 = HPoint(QuadIrr(rng.randint(-3, 3), rng.randint(-2, 2), field),
                            QuadIrr(rng.randint(1, 3), rng.randint(0, 1), field))
            else:
                z0 = HPoint(Fraction(rng.randint(-30, 30), 7), Fraction(rng.randint(1, 30), 7))
                z1 = HPoint(Fraction(rng.randint(-30, 30), 7), Fraction(rng.randint(1, 30), 7))
            return GSegment(z0, z1)
        except ValueError:
            continue


def test_ez_cross_equals_winding_oracle_random():
    # either segment may be irrational, the first over the second's field
    rng = random.Random(22)
    mats = [mat(1, 0, 0, 1), mat(1, 1, 0, 1), mat(2, 1, 1, 1), mat(1, 0, 0, 2),
            mat(1, -1, 1, 0), mat(3, 1, 2, 1)]
    done = irrational_first = 0
    while done < 1000:
        field = rng.choice([2, 3, 5]) if rng.random() < 0.25 else None
        s1 = rand_segment(rng, field if rng.random() < 0.5 else None)
        s2 = rand_segment(rng, field)
        g = rng.choice(mats)
        try:
            a = ez_cross(s1, s2, g)
            b = winding_oracle(s1, s2, g)
        except DegenerateConfiguration:
            continue
        assert a == b
        done += 1
        irrational_first += s1.D is not None
    assert irrational_first > 50


def test_ez_swap_identity():
    # honest EZ swap: reversing one factor realizes the coordinate swap,
    # so ez(s2, s1, g^-1) = -ez(s1, s2, g)
    rng = random.Random(23)
    mats = [mat(1, 0, 0, 1), mat(1, 1, 0, 1), mat(2, 1, 1, 1)]
    done = 0
    while done < 200:
        s1 = rand_segment(rng)
        s2 = rand_segment(rng)
        g = rng.choice(mats)
        try:
            a = ez_cross(s1, s2, g)
            b = ez_cross(s2, s1, mat_inv(g))
            w = winding_oracle(s2, s1, mat_inv(g))
        except DegenerateConfiguration:
            continue
        assert b == -a
        assert w == b
        done += 1


def test_ez_cross_decides_segments_over_two_fields():
    # crossing arcs over Q(sqrt 2) and Q(sqrt 5), pinned by a float walk
    s1 = GSegment(HPoint(QuadIrr(0, Fraction(1, 10), 2), 1),
                  HPoint(QuadIrr(Fraction(1, 2), Fraction(1, 10), 2), 3))
    s2 = GSegment(HPoint(QuadIrr(-1, Fraction(1, 10), 5), 2),
                  HPoint(QuadIrr(1, Fraction(1, 10), 5), Fraction(21, 10)))
    ident = mat(1, 0, 0, 1)
    assert ez_cross(s1, s2, ident) == float_walk_crossing(s1, s2) == -1
    assert ez_cross(s1.reversed(), s2, ident) == 1
    # arcs of the unit circle over Q(sqrt 2) and Q(sqrt 3): points
    # (s sqrt D, q) with D s^2 + q^2 = 1
    def on2(s, q):
        return HPoint(QuadIrr(0, s, 2), q)

    def on3(s, q):
        return HPoint(QuadIrr(0, s, 3), q)

    wide = GSegment(on2(Fraction(-2, 3), Fraction(1, 3)), on2(Fraction(2, 3), Fraction(1, 3)))
    inner = GSegment(on3(Fraction(-1, 2), Fraction(1, 2)), on3(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(DegenerateConfiguration):
        ez_cross(wide, inner, ident)
    right = GSegment(on2(Fraction(4, 9), Fraction(7, 9)), on2(Fraction(2, 3), Fraction(1, 3)))
    left = GSegment(on3(Fraction(-1, 2), Fraction(1, 2)), on3(Fraction(-4, 13), Fraction(11, 13)))
    assert ez_cross(right, left, ident) == ez_cross(left, right, ident) == 0


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(p=st.sampled_from((2, 3)), k=st.integers(0, 2),
       entries=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       form=st.sampled_from((GOLDEN, QForm(1, 0, -2), QForm(3, 2, -4), QForm(-1, 1, 1))),
       x=st.fractions(-3, 3, max_denominator=12),
       y=st.fractions(Fraction(1, 12), 3, max_denominator=12),
       field=st.sampled_from((None, 2, 5)),
       ends=st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_triples_move_by_the_one_pull_back(p, k, entries, form, x, y, field, ends):
    g = mat(*(Fraction(e, p ** k) for e in entries))
    assume(mat_det(g) > 0)
    z = HPoint(x, y)
    gz = moebius_point(g, z)
    assert side(form_apply(g, form), gz) == side(form, z)
    # a segment's triple, rational or over Q(sqrt field), read at g.z
    x0, x1, b0, b1 = ends
    if field:
        z0 = HPoint(QuadIrr(x0, b0, field), 1)
        z1 = HPoint(QuadIrr(x1, b1, field), 2)
    else:
        z0, z1 = HPoint(x0, 1), HPoint(x1 + Fraction(b1, 3), 2)
    seg = GSegment(z0, z1)
    assert (_form_value_sign(pull_back(seg.coeffs, g), seg.D, z)
            == _form_value_sign(seg.coeffs, seg.D, gz))


_RATIONAL = st.fractions(-9, 9, max_denominator=7)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=st.fractions(-5, 5, max_denominator=30),
       y=st.fractions(Fraction(1, 30), 5, max_denominator=30),
       held_as_quadirr=st.booleans(), field=st.sampled_from((2, 5)),
       kind=st.sampled_from(("int", "fraction", "quadirr")),
       a=st.lists(_RATIONAL, min_size=3, max_size=3),
       b=st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_rational_points_decide_signs_by_weights(x, y, held_as_quadirr, field, kind, a, b):
    # a rational point may hold QuadIrr coordinates with b = 0
    z = (HPoint(QuadIrr(x, 0, field), QuadIrr(y, 0, field)) if held_as_quadirr
         else HPoint(x, y))
    assert z.D is None and all(type(v) is int for v in z.w) and z.w[2] > 0
    n = x * x + y * y
    if kind == "int":
        triple = tuple(math.floor(v) for v in a)
    elif kind == "fraction":
        triple = tuple(a)
    else:
        triple = tuple(QuadIrr(u, v, field) for u, v in zip(a, b))
    A, B, C = triple
    expect = quad_sign(A * n + B * x + C)
    assert _form_value_sign(triple, field if kind == "quadirr" else None, z) == expect
    if kind == "int":
        try:
            f = QForm(*triple)
        except ValueError:
            return  # not a primitive indefinite form
        assert side(f, z) == expect


def test_enumerate_crossing_orbit_matches_brute_force():
    # the 2i -> 1+2i segment sits above every orbit geodesic at this level:
    # both engines agree the list is empty (disc-20 forms fail the parity
    # obstruction, so they are not in the orbit)
    segment = seg(0, 2, 1, 2)
    got = enumerate_crossing_orbit(segment, GOLDEN, 2, 1)
    expect = brute_force_crossings(segment, GOLDEN, 2, 1)
    assert got == expect == []
    # a low segment does cross golden-orbit geodesics
    low = GSegment(HPoint(Fraction(1, 5), Fraction(1, 5)), HPoint(Fraction(3, 2), 2))
    got = enumerate_crossing_orbit(low, GOLDEN, 2, 1)
    expect = brute_force_crossings(low, GOLDEN, 2, 1)
    assert got == expect
    assert got, "the low segment crosses at least one orbit geodesic"


def test_enumerate_empty_when_bound_excludes():
    # high segment: y_min large enough that no |A| >= 1 passes the bound
    segment = seg(0, 50, 1, 50)
    assert enumerate_crossing_orbit(segment, GOLDEN, 2, 1) == []


def test_enumerate_orbit_representative_invariance():
    segment = seg(0, 2, 1, 2)
    base2 = form_apply(mat(1, 1, 0, 1), GOLDEN)
    a = enumerate_crossing_orbit(segment, GOLDEN, 2, 1)
    b = enumerate_crossing_orbit(segment, base2, 2, 1)
    assert a == b


def test_carrying_coeffs_through_points():
    rng = random.Random(24)
    for _ in range(100):
        s = rand_segment(rng)
        A, B, C = s.coeffs
        for z in (s.z0, s.z1):
            val = A * (z.x * z.x + z.y * z.y) + B * z.x + C
            assert val == 0
        # a rational segment's triple is the coprime integer positive
        # multiple of (x0 - x1, n1 - n0, n0 x1 - n1 x0)
        assert all(type(c) is int for c in s.coeffs) and math.gcd(A, B, C) == 1
        n0, n1 = s.z0.n, s.z1.n
        ref = (s.z0.x - s.z1.x, n1 - n0, n0 * s.z1.x - n1 * s.z0.x)
        lam = next(c / r for c, r in zip(s.coeffs, ref) if r)
        assert lam > 0 and s.coeffs == tuple(lam * r for r in ref)
    # the triple is positive on the right of travel, verticals included
    up = seg(0, 1, 0, 3)
    assert up.coeffs == (0, 1, 0) and up.reversed().coeffs == (0, -1, 0)
    assert _form_value_sign(seg(-1, 1, 1, 1).coeffs, None, HPoint(0, 2)) == -1


@pytest.mark.parametrize("v, floor", [
    # float(v) rounds 10^30 - 10^13 to the wrong side of an integer
    (QuadIrr(10 ** 30 - 10 ** 13, Fraction(1, 10 ** 6), 2), 10 ** 30 - 10 ** 13),
    # float(v) overflows
    (QuadIrr(10 ** 400, 1, 2), 10 ** 400 + 1),
    (QuadIrr(Fraction(1, 2), -1, 2), -1),
])
def test_frac_floor_exact(v, floor):
    assert floor_exact(v) == floor


def test_endpoint_floors_are_exact():
    # x lies 1.4e-20 above 1, below float resolution: floor(-2x) is -3; the
    # b = 0 coordinate y = 1/2 gives R = 5 - 4 y^2 = 4 exactly
    near = QuadIrr(1, Fraction(1, 10 ** 20), 2)
    z = HPoint(near, QuadIrr(Fraction(1, 2), 0, 2))
    assert z.w is None and _endpoint_floors(z)(5, 1) == (-3, 4)
    assert _endpoint_floors(z)(5, -1) == (2, 4)
    # a rational point held as b = 0 QuadIrr coordinates reads integers
    rng = random.Random(17)
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        y = Fraction(rng.randint(1, 50), rng.randint(1, 30))
        d, A = rng.choice([5, 8, 12, 13, 17, 45]), rng.choice([-7, -2, -1, 1, 3, 11])
        for z in (HPoint(x, y), HPoint(QuadIrr(x, 0, 5), QuadIrr(y, 0, 5))):
            assert _endpoint_floors(z)(d, A) == (math.floor(-2 * A * x),
                                                  math.floor(d - 4 * A * A * y * y))


_ORACLE_BASES = [QForm(1, -1, -1), QForm(1, 0, -2), QForm(1, 0, -3), QForm(1, 1, -3),
                 QForm(1, 0, -5), QForm(1, 1, -4), QForm(1, 0, -6)]


def _oracle_coordinate(rng, lo, hi, D):
    """A rational in [lo, hi], or over Q(sqrt D): with a small irrational
    part, or held as a b = 0 QuadIrr."""
    v = Fraction(rng.randint(lo * 12, hi * 12), rng.randint(1, 12))
    r = rng.random() if D else 1
    if r < 0.4:
        return QuadIrr(v, Fraction(rng.randint(-3, 3), rng.randint(2, 9)), D)
    return QuadIrr(v, 0, D) if r < 0.7 else v


def _oracle_segment(rng, D):
    """A seeded segment: x in [-2, 2] or, for a wide one, [-6, 6]; a third
    of the endpoints have y scaled by 1/10."""
    width = rng.choice([2, 2, 6])
    while True:
        points = []
        for _ in range(2):
            x = _oracle_coordinate(rng, -width, width, D)
            y = _oracle_coordinate(rng, 0, 2, D)
            if rng.random() < 0.3:
                y = y * Fraction(1, 10)
            points.append((x, y))
        try:
            return GSegment(HPoint(*points[0]), HPoint(*points[1]))
        except ValueError:
            continue  # y <= 0, or twice the same point


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateEndpoint as exc:
        return type(exc)


@pytest.mark.parametrize("fields, draws", [((None,), 120), ((2, 3, 5, 7), 50)])
def test_enumerate_crossing_orbit_matches_box_scan(fields, draws):
    # the per-A B windows against the scan of the whole bounding box, in
    # value or exception type
    rng = random.Random(1717 + draws)
    hits = 0
    for _ in range(draws):
        segment = _oracle_segment(rng, rng.choice(fields))
        base = rng.choice(_ORACLE_BASES)
        p = rng.choice([q for q in (2, 3, 5) if is_rm_for(base, q)])
        levels = rng.choice([0, 1, 1, 2] if p == 2 else [0, 1])  # the box grows with p^levels
        got = _outcome(enumerate_crossing_orbit, segment, base, p, levels)
        assert got == _outcome(box_scan_crossings, segment, base, p, levels), segment
        hits += got != []
    # most draws cross an orbit geodesic or meet one at an endpoint
    assert hits >= 0.6 * draws, hits


def test_sqrt_residues_match_brute_set():
    # the cached residue classes of B mod 2a against a scan of 0 <= r < 2a,
    # for every discriminant below 400, in a seeded order
    rng = random.Random(400)
    pairs = [(d, a) for d in range(5, 400) if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d
             for a in range(1, math.isqrt(d) + 2)]
    rng.shuffle(pairs)
    for d, a in pairs:
        brute = tuple(r for r in range(2 * a) if (r * r - d) % (4 * a) == 0)
        assert _sqrt_residues(d, a) == brute, (d, a)


def _low_segment(rng, D):
    """A seeded segment whose first endpoint lies below y = 1/4, at times
    far below: its A loop runs past isqrt(d) + 1, into B's step of 2."""
    while True:
        far = _oracle_segment(rng, D)
        y = Fraction(rng.randint(1, 24), 100) / rng.choice([1, 1, 2, 5])
        if D and rng.random() < 0.4:
            y = QuadIrr(y / 2, Fraction(1, rng.randint(800, 900)), D)
        try:
            return GSegment(HPoint(far.z0.x, y), far.z1)
        except ValueError:
            continue  # twice the same point


def _degenerate_segment(rng, base):
    """A seeded segment with an endpoint on an orbit geodesic: a point of
    base's geodesic (the rational i + 1 where it lies on it), moved with
    the form by a short word in S and T, then joined to a random point."""
    on = HPoint(1, 1)
    if side(base, on) != 0:
        on = point_on_geodesic(base, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    word = mat(1, rng.randint(-3, 3), 0, 1)
    if rng.random() < 0.5:
        word = mat(0, -1, 1, rng.randint(-2, 2))
    end = moebius_point(word, on)
    other = HPoint(_oracle_coordinate(rng, -2, 2, None),
                   Fraction(rng.randint(30, 200), 100))
    return GSegment(end, other) if rng.random() < 0.5 else GSegment(other, end)


@pytest.mark.parametrize("fields, draws", [((None,), 40), ((2, 3, 5, 7), 25)])
def test_enumerate_crossing_orbit_matches_box_scan_low(fields, draws):
    # segments that dip below y = 1/4 run both the residue classes (|A| up
    # to isqrt(d) + 1) and the step of 2 above them
    rng = random.Random(2525 + draws)
    past_cap = 0
    for _ in range(draws):
        segment = _low_segment(rng, rng.choice(fields))
        base = rng.choice(_ORACLE_BASES)
        p = rng.choice([q for q in (2, 3, 5) if is_rm_for(base, q)])
        levels = rng.choice([0, 0, 1] if p == 2 else [0])  # the box grows with 1/y^2
        got = _outcome(enumerate_crossing_orbit, segment, base, p, levels)
        assert got == _outcome(box_scan_crossings, segment, base, p, levels), segment
        a, y = math.isqrt(base.disc) + 2, segment.z0.y
        past_cap += quad_sign(y * y * (4 * a * a) - base.disc) <= 0
    assert past_cap >= draws // 2, past_cap


def test_enumerate_crossing_orbit_matches_box_scan_degenerate():
    # an endpoint on an orbit geodesic raises DegenerateEndpoint in both
    rng = random.Random(1729)
    for _ in range(40):
        base = rng.choice(_ORACLE_BASES)
        p = rng.choice([q for q in (2, 3, 5) if is_rm_for(base, q)])
        segment = _degenerate_segment(rng, base)
        got = _outcome(enumerate_crossing_orbit, segment, base, p, 0)
        assert got is DegenerateEndpoint, segment
        assert _outcome(box_scan_crossings, segment, base, p, 0) is got, segment


def test_disc_17_path_is_enumerated():
    # the path x0 -> gamma.x0 of disc 17's automorph dips to y = 1.0e-4,
    # where the bounding box held about 10^10 (A, B); the antisym pair exits 0
    t0 = time.time()
    argv = ["antisym", "--f1", "1,1,-1", "--f2", "1,1,-4", "--p", "3", "--levels", "1"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(argv) == 0
    assert json.loads(out.getvalue())["antisym"]["steps"][0]["level"] == 1
    assert time.time() - t0 < 60
    segment = chain_segment(automorph(QForm(1, 1, -4), 3).gamma,
                            HPoint(Fraction(1, 5), Fraction(1, 5)))
    assert segment.z1.y < Fraction(1, 9000)
    found = enumerate_crossing_orbit(segment, QForm(1, 1, -1), 3, 1)
    assert found
    for f, sgn in found:
        assert side(f, segment.z0) == -sgn and side(f, segment.z1) == sgn
    # |A| runs to about 6e4 here; residue tables stop at isqrt(d) + 1
    assert _SQRT_RESIDUES
    assert all(a <= math.isqrt(d) + 1 for d, a in _SQRT_RESIDUES)
