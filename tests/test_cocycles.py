import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rmlab import rmpoints
from rmlab.cocycles import (
    ChainSquare,
    RMDivisor,
    RQDivisor,
    canonical_label,
    cocycle_defect,
    d1_value,
    dv_value,
    int_rm,
    label_inverse,
    sigma_swap,
    theorem_b_chain_check,
    _lower_pos,
    _seg_ranges,
    _theorem_b_points,
    _upper,
)
from rmlab.errors import DegenerateEndpoint, NotRM
from rmlab.exact import QuadIrr, floor_exact
from rmlab.hecke import HeckeElt
from rmlab.hyperbolic import (
    GSegment,
    HPoint,
    cross_segment,
    moebius_point,
    point_on_geodesic,
    winding_oracle,
)
from rmlab.mat2 import IDENT, mat, mat_inv
from rmlab.rmpoints import QForm, automorph, form_apply, form_of_disc, orbit_conjugator
from tests_helpers_brute import from_ints, mat_neg, scan_inner_sum

GOLDEN = QForm(1, -1, -1)
X0 = HPoint(Fraction(1, 5), Fraction(1, 5))


def seg(x0, y0, x1, y1):
    return GSegment(HPoint(Fraction(x0), Fraction(y0)), HPoint(Fraction(x1), Fraction(y1)))


def test_dv_value_trivial_cases():
    assert dv_value(GOLDEN, IDENT, X0, 2, 1).is_zero()
    assert dv_value(GOLDEN, mat_neg(IDENT), X0, 2, 1).is_zero()
    with pytest.raises(NotRM):
        dv_value(GOLDEN, IDENT, X0, 11, 1)


def test_dv_value_high_base_point():
    # x0 = 2i, gamma = T: both engines agree (the divisor is empty at this
    # height; see the enumeration tests for the geometry)
    x0 = HPoint(0, 2)
    d = dv_value(GOLDEN, mat(1, 1, 0, 1), x0, 2, 1)
    from tests_helpers_brute import brute_divisor

    assert d == brute_divisor(GOLDEN, mat(1, 1, 0, 1), x0, 2, 1)


def test_dv_value_nonempty_low_base_point():
    d = dv_value(GOLDEN, mat(2, 1, 1, 1), X0, 2, 1)
    from tests_helpers_brute import brute_divisor

    assert d == brute_divisor(GOLDEN, mat(2, 1, 1, 1), X0, 2, 1)
    assert not d.is_zero()


def test_dv_values_share_one_orbit_bfs(monkeypatch):
    # the orbit component is cached per (class, p, cap), not per call
    calls = []
    bfs = rmpoints._orbit_bfs
    monkeypatch.setattr(rmpoints, "_ORBIT_CACHE", {})
    monkeypatch.setattr(rmpoints, "_orbit_bfs", lambda *a: calls.append(a) or bfs(*a))
    d1 = dv_value(GOLDEN, mat(2, 1, 1, 1), X0, 2, 1)
    d2 = dv_value(GOLDEN, mat(0, -1, 1, 0), X0, 2, 1)
    assert not d1.is_zero() and not d2.is_zero() and d1 != d2
    assert len(calls) == 1


@pytest.mark.parametrize("v", [
    QuadIrr(10 ** 400, 1, 2),  # float(v) overflows
    QuadIrr(Fraction(1, 3), Fraction(-2, 7), 5),
    QuadIrr(Fraction(-10 ** 30, 7), Fraction(1, 10 ** 6), 2),
])
def test_upper_is_exact_grid_ceiling(v):
    u = _upper(v)
    assert v <= u < v + Fraction(1, 4096)
    assert (4096 * u).denominator == 1


# one maker and two distinct keys per signed-sum type
SIGNED_SUMS = {
    "RMDivisor": (RMDivisor, (GOLDEN, QForm(1, 0, -2))),
    "RQDivisor": (RQDivisor, ((2, 1, 1, 1), (1, 0, 0, 2))),
    "HeckeElt": (lambda e: HeckeElt(e, 2), ((1, 1, 0), (1, 2, 0))),
}


@pytest.mark.parametrize("kind", sorted(SIGNED_SUMS))
def test_signed_sum_algebra(kind):
    make, (k1, k2) = SIGNED_SUMS[kind]
    a = make({k1: 2, k2: 0})
    assert a.entries == {k1: 2}
    assert make([(k1, 1), (k2, 3), (k1, 1), (k2, -3)]) == a
    b = make({k1: -1, k2: 5})
    assert (a + (-a)).is_zero()
    assert a - b == a + b.scale(-1) == make({k1: 3, k2: -5})
    assert a.scale(0).is_zero()
    for other, (make_other, _) in SIGNED_SUMS.items():
        if other != kind:
            assert make_other(dict(a.entries)) != a
    if kind == "HeckeElt":
        assert HeckeElt(a.entries, 3) != a
    with pytest.raises(AttributeError):
        a.entries = {}


def test_signed_sum_difference_is_one_sum():
    # a - b builds one sum, with the entries of a + (-b) in the same order
    rng = random.Random(31)
    forms = [QForm(1, b, c) for b in range(-2, 3) for c in (-11, -7, -5)]
    labels = [(a, b, 0, 1) for a in (1, 2, 3) for b in range(-2, 3)]
    for make, keys in ((RMDivisor, forms), (RQDivisor, labels)):
        for _ in range(200):
            a, b = ([(rng.choice(keys), rng.randint(-3, 3)) for _ in range(rng.randint(0, 8))]
                    for _ in range(2))
            x, y = make(a), make(b)
            diff = x - y
            assert type(diff) is make
            assert list(diff.entries.items()) == list((x + (-y)).entries.items())
    with pytest.raises(TypeError):
        RMDivisor() - RQDivisor()


def test_lower_pos_below_any_grid():
    # (3 - 2 sqrt 2)^20 = 1 / (3 + 2 sqrt 2)^20 is about 5e-16 < 2^-48;
    # (1 + sqrt 2)/10^8 has its conjugate far from 0, where a bound through
    # the norm and the conjugate loses a factor of about 6e4
    for v in (QuadIrr(3, -2, 2) ** 20,
              QuadIrr(Fraction(1, 10 ** 8), Fraction(1, 10 ** 8), 2)):
        assert v < Fraction(1, 4096)
        lo = _lower_pos(v)
        assert 0 < lo <= v <= 2 * lo
        with pytest.raises(ValueError):
            _lower_pos(-v)


def test_cocycle_defect_identity():
    for g1 in (mat(1, 1, 0, 1), mat(2, 1, 1, 1)):
        assert cocycle_defect(GOLDEN, g1, IDENT, X0, 2, 1).is_zero()
        assert cocycle_defect(GOLDEN, IDENT, g1, X0, 2, 1).is_zero()


def test_cocycle_defect_generators():
    t = mat(1, 1, 0, 1)
    s = mat(1, 0, 1, 1)
    assert cocycle_defect(GOLDEN, t, s, X0, 2, 1).is_zero()
    assert cocycle_defect(GOLDEN, s, t, X0, 2, 1).is_zero()


def test_cocycle_defect_with_p_denominators():
    u = mat(2, 0, 0, Fraction(1, 2))
    t = mat(1, 1, 0, 1)
    assert cocycle_defect(GOLDEN, u, t, X0, 2, 1).is_zero()
    assert cocycle_defect(GOLDEN, t, u, X0, 2, 1).is_zero()


def random_words(rng, p, count):
    gens = [mat(1, 1, 0, 1), mat(1, -1, 0, 1), mat(1, 0, 1, 1),
            mat(0, -1, 1, 0), mat(p, 0, 0, Fraction(1, p)),
            mat(Fraction(1, p), 0, 0, p)]
    for _ in range(count):
        yield rng.choice(gens), rng.choice(gens)


def test_cocycle_law_random_words():
    rng = random.Random(31)
    for disc, p in (((1, -1, -1), 2), ((1, 0, -2), 3), ((1, 0, -3), 2)):
        base = QForm(*disc)
        for g1, g2 in random_words(rng, p, 12):
            assert cocycle_defect(base, g1, g2, X0, p, 1).is_zero()


def test_rm_divisor_algebra():
    a = RMDivisor({GOLDEN: 2})
    b = RMDivisor({GOLDEN: -2})
    assert (a + b).is_zero()
    moved = a.act(mat(1, 1, 0, 1))
    f2 = form_apply(mat(1, 1, 0, 1), GOLDEN)
    assert moved == RMDivisor({f2: 2})
    # a non-rational, non-integral g moves every point as form_apply does
    g = mat(Fraction(3, 2), 1, Fraction(1, 4), 2)
    many = RMDivisor({GOLDEN: 1, f2: -3, QForm(1, 0, -2): 5})
    assert many.act(g) == RMDivisor({form_apply(g, f): m for f, m in many.entries.items()})
    # det g <= 0 is refused as soon as there is a point to move
    with pytest.raises(ValueError):
        a.act(mat(0, 1, 1, 0))
    assert RMDivisor().act(mat(0, 1, 1, 0)).is_zero()
    assert a.restrict_levels(5, 2, 0) == a
    # 80 = 5 * 2^4 sits at |m| = 2: excluded at levels 1, included at 2
    assert a.restrict_levels(80, 2, 1).is_zero()
    assert a.restrict_levels(80, 2, 2) == a


def test_labels():
    g = mat(2, 1, 1, 1)
    lbl = canonical_label(g)
    assert lbl == (2, 1, 1, 1)
    assert label_inverse(lbl) == (1, -1, -1, 2)
    assert label_inverse(label_inverse(lbl)) == lbl
    assert canonical_label(mat(-2, -1, -1, -1)) == lbl
    assert canonical_label(mat(1, 0, 0, Fraction(1, 2))) == (2, 0, 0, 1)


def test_sigma_swap_involution():
    d = RQDivisor({(2, 1, 1, 1): 2, (1, 0, 0, 2): -4})
    assert sigma_swap(sigma_swap(d)) == d
    assert sigma_swap(RQDivisor()).is_zero()


def test_int_rm_basic():
    assert int_rm(RQDivisor(), GOLDEN, 2).is_zero()
    v = (1, 1, 0, 1)
    d = int_rm(RQDivisor({v: 1}), GOLDEN, 2)
    assert d == RMDivisor({form_apply(from_ints(v), GOLDEN): 1})
    # label action commutes with pushforward through a group element
    t = (2, 1, 1, 1)
    dd = RQDivisor({t: 3})
    lhs = int_rm(dd, GOLDEN, 2)
    assert lhs == RMDivisor({form_apply(from_ints(t), GOLDEN): 3})


def crossing_square():
    # seg1 upward through the golden geodesic region, seg2 to its side
    s1 = seg(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), 3)
    s2 = seg(Fraction(-1, 3), Fraction(1, 2), Fraction(5, 4), Fraction(5, 4))
    return ChainSquare(s1, s2)


def test_d1_value_far_apart_empty():
    c = ChainSquare(seg(Fraction(1, 3), 50, Fraction(4, 3), 51),
                    seg(Fraction(2, 7), Fraction(1, 97), Fraction(5, 7), Fraction(1, 93)))
    assert d1_value(c, 2, 0).is_zero()


def test_d1_value_oracle_per_label():
    c = crossing_square()
    d = d1_value(c, 2, 1)
    assert not d.is_zero()
    for v, m in d.entries.items():
        assert m == 2 * winding_oracle(c.seg1, c.seg2, from_ints(v))


def test_d1_sigma_symmetry():
    c = crossing_square()
    for p, radius in ((2, 1), (3, 1)):
        d = d1_value(c, p, radius)
        ds = d1_value(c.swap(), p, radius)
        assert ds == sigma_swap(d)


def test_theorem_b_zero_cases():
    # segment far above every orbit geodesic: empty support
    high = seg(0, 30, 1, 30)
    rep = theorem_b_chain_check(high, 0, 1, GOLDEN, 2, 1)
    assert rep["all_ok"] and rep["points"] == []
    # n0 == n1: both sides vanish
    delta = seg(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), 3)
    rep = theorem_b_chain_check(delta, 2, 2, GOLDEN, 2, 1)
    assert rep["all_ok"]
    for pt in rep["points"]:
        assert pt["lhs"] == pt["rhs"] == 0


def test_theorem_b_single_crossing():
    delta = seg(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), 3)
    rep = theorem_b_chain_check(delta, 0, 1, GOLDEN, 2, 1)
    assert rep["points"], "the vertical segment crosses the golden geodesic"
    assert rep["all_ok"]


def test_theorem_b_multi_step_and_negative():
    delta = seg(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), 3)
    for (n0, n1) in ((0, 2), (1, 3), (0, -1), (-1, 2)):
        rep = theorem_b_chain_check(delta, n0, n1, GOLDEN, 2, 1)
        assert rep["all_ok"], rep


def test_dv_base_point_coboundary():
    # moving the base point changes the value by an exact coboundary:
    # dv(g; x1) = dv(g; x0) + g.E - E with E the crossings of x0 -> x1
    from rmlab.cocycles import dv_value_on_segment

    x1 = HPoint(Fraction(2, 7), Fraction(3, 7))
    for g in (mat(2, 1, 1, 1), mat(1, 1, 0, 1)):
        ext = 2  # generous window so the relabeled terms stay visible
        lhs = dv_value(GOLDEN, g, x1, 2, 1 + ext)
        rhs = dv_value(GOLDEN, g, X0, 2, 1 + ext)
        e_seg = GSegment(X0, x1)
        e_div = dv_value_on_segment(GOLDEN, e_seg, 2, 1 + ext)
        combined = rhs + e_div.act(g) - e_div
        assert lhs.restrict_levels(GOLDEN.disc, 2, 1) == \
            combined.restrict_levels(GOLDEN.disc, 2, 1)


THEOREM_B_DELTAS = [seg(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), 3),
                    seg(Fraction(2, 7), Fraction(1, 4), Fraction(9, 7), Fraction(5, 3))]


def orbit_point(gamma, z, n):
    """gamma^n . z."""
    step = gamma if n >= 0 else mat_inv(gamma)
    for _ in range(abs(n)):
        z = moebius_point(step, z)
    return z


def scanned_inner_sums(delta, n0, n1, base, p, rep):
    """(inner sum, unit-step sum) of each report point by the scan oracle,
    at the report's base point y0."""
    gamma = automorph(base, p).gamma
    y0 = point_on_geodesic(base, Fraction(rep["t_y"]))
    full = GSegment(orbit_point(gamma, y0, n0), orbit_point(gamma, y0, n1)) \
        if n0 != n1 else None
    unit = GSegment(y0, orbit_point(gamma, y0, 1))
    out = []
    for pt in rep["points"]:
        beta = orbit_conjugator(base, QForm(*pt["form"]), p)
        inner = scan_inner_sum(delta, full, beta, gamma) if full else 0
        out.append((inner, scan_inner_sum(delta, unit, beta, gamma)))
    return out


def test_theorem_b_inner_sums_match_scan():
    for disc in (5, 8, 12):
        base = form_of_disc(disc)
        for p in (2, 3):
            for delta in THEOREM_B_DELTAS:
                for n0, n1 in ((0, 1), (0, 3), (0, -2)):
                    rep = theorem_b_chain_check(delta, n0, n1, base, p, 1)
                    assert rep["points"], (disc, p, delta)
                    got = [(pt["inner"], -pt["cross"]) for pt in rep["points"]]
                    assert got == scanned_inner_sums(delta, n0, n1, base, p, rep)


def test_theorem_b_far_tile():
    # delta is a thin vertical segment meeting the golden geodesic inside
    # the tile gamma^80 . [y0, gamma.y0], about 1.5e-133 wide: far beyond
    # any fixed scan window around n = 0
    base, p, ty = GOLDEN, 2, Fraction(1, 2)
    aut = automorph(base, p)
    y0 = point_on_geodesic(base, ty)
    z80 = orbit_point(aut.gamma, y0, 80)
    z81 = moebius_point(aut.gamma, z80)
    scale = 10 ** 200
    c = Fraction(floor_exact((z80.x + z81.x) * (scale // 2)), scale)
    assert (c - z80.x) * (c - z81.x) < 0
    delta = seg(c, Fraction(1, scale), c, 1)
    cross = cross_segment(delta, base)
    [pt] = _theorem_b_points(delta, 0, 1, base, aut, [(base, cross)], p, ty)
    assert pt["inner"] == -cross == -1
    assert pt["ok"] and pt["mfold_ok"] and pt["single_ok"]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ends=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       heights=st.lists(st.integers(1, 9), min_size=4, max_size=4),
       field=st.sampled_from((None, 2, 5)), den=st.integers(1, 7))
def test_seg_ranges_exact_bounds(ends, heights, field, den):
    # rational segments carry int triples: every bound stays a Fraction
    x0, x1, b0, b1 = ends
    if field:
        z0 = HPoint(QuadIrr(Fraction(x0, den), b0, field), Fraction(heights[0], den))
        z1 = HPoint(QuadIrr(Fraction(x1, den), b1, field), QuadIrr(heights[1], heights[2], field))
    else:
        z0 = HPoint(Fraction(x0, den), Fraction(heights[0], den))
        z1 = HPoint(Fraction(x1, den), Fraction(heights[1], heights[3]))
    if z0 == z1:
        reject()
    s = GSegment(z0, z1)
    bounds = _seg_ranges(s)
    assert all(type(v) is Fraction for v in bounds), bounds
    x_lo, x_hi, y_lo, y_hi = bounds
    for z in (z0, z1):
        assert x_lo <= z.x <= x_hi and 0 < y_lo <= z.y <= y_hi


def test_seg_ranges_apex_decided_exactly():
    # an arc of radius 5e over the apex c, 1.5e-16 above 1: float(c) lies
    # 7e-17 past the arc's right end, so a float apex would leave y_hi at
    # the endpoints' height 4e, below the apex height 5e
    c, e = 1 + Fraction(15, 10 ** 17), Fraction(1, 10 ** 30)
    s = GSegment(HPoint(c - 3 * e, 4 * e), HPoint(c + 3 * e, 4 * e))
    assert float(c) > c + 3 * e
    assert _seg_ranges(s)[3] >= 5 * e


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(x0=st.fractions(-1, 2, max_denominator=40),
       x1=st.fractions(-1, 2, max_denominator=40),
       y0=st.fractions(Fraction(1, 10), 3, max_denominator=40),
       y1=st.fractions(Fraction(1, 10), 3, max_denominator=40),
       disc=st.sampled_from((5, 8, 12)), p=st.sampled_from((2, 3)),
       n0=st.integers(-3, 3), n1=st.integers(-3, 3))
def test_theorem_b_property(x0, x1, y0, y1, disc, p, n0, n1):
    if (x0, y0) == (x1, y1):
        reject()
    delta = seg(x0, y0, x1, y1)
    base = form_of_disc(disc)
    try:
        rep = theorem_b_chain_check(delta, n0, n1, base, p, 1)
    except DegenerateEndpoint:
        reject()  # a rational endpoint on an orbit geodesic
    assert rep["all_ok"], rep
    got = [(pt["inner"], -pt["cross"]) for pt in rep["points"]]
    assert got == scanned_inner_sums(delta, n0, n1, base, p, rep)
