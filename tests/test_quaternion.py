import itertools
import random
from fractions import Fraction

import pytest

from rmlab.errors import NotInvertible, NotIsotropic
from rmlab.exact import QuadIrr
from rmlab.linalg import rref
from rmlab.quaternion import (
    SPLIT,
    ProjLine,
    Quat,
    QuatAlg,
    act_pair,
    bilinear,
    kernel_lines,
    quadric_split,
    quadric_unsplit,
)
from tests_helpers_brute import kernel_lines_nullspace, mult_matrix


def rand_quat(rng, alg=SPLIT, span=9):
    return Quat(*(Fraction(rng.randint(-span, span), rng.randint(1, 4))
                  for _ in range(4)), alg)


def mat_mult(m, n):
    return [[m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]],
            [m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]]]


def test_basis_products():
    for a, b in [(1, 1), (2, 3), (-1, 5)]:
        alg = QuatAlg(a, b)
        i, j, k = alg.gen_i(), alg.gen_j(), alg.gen_k()
        assert i * j == k
        assert j * i == -k
        assert i * i == alg.one().scale(a)
        assert j * j == alg.one().scale(b)
        assert k * k == alg.one().scale(-a * b)


def test_split_model_product_oracle():
    rng = random.Random(10)
    for _ in range(300):
        u, v = rand_quat(rng), rand_quat(rng)
        lhs = (u * v).to_matrix()
        rhs = mat_mult(u.to_matrix(), v.to_matrix())
        assert lhs == rhs
        assert u.nrd() == u.to_matrix()[0][0] * u.to_matrix()[1][1] - \
            u.to_matrix()[0][1] * u.to_matrix()[1][0]
        assert Quat.from_matrix(u.to_matrix()) == u


def test_nrd_multiplicative_and_trace():
    rng = random.Random(11)
    alg = QuatAlg(2, -3)
    for _ in range(10_000):
        u = rand_quat(rng, alg, span=5)
        v = rand_quat(rng, alg, span=5)
        assert (u * v).nrd() == u.nrd() * v.nrd()
        assert u + u.conj() == alg.one().scale(u.trd())


def test_quat_inv():
    alg = SPLIT
    one, i = alg.one(), alg.gen_i()
    assert one.inverse() == one
    assert i.inverse() == i  # i^2 = 1 in the (1,1) model
    u = Quat(1, 1, 1, 0)
    assert u.nrd() == -1
    assert u.inverse() == u.conj().scale(-1)
    assert u * u.inverse() == one
    with pytest.raises(NotInvertible):
        Quat(1, 1, 0, 0).inverse()  # nrd = 0


def test_act_pair():
    rng = random.Random(12)
    one = SPLIT.one()
    v = rand_quat(rng)
    assert act_pair(one, one, v) == v
    g = Quat(2, 1, 0, 1)
    w = Quat(0, 3, -2, 5)
    conj = act_pair(g, g, w)
    assert conj.trd() == w.trd()
    for _ in range(200):
        g1 = rand_quat(rng)
        g2 = rand_quat(rng)
        if g1.nrd() == 0 or g2.nrd() == 0 or g1.nrd() != g2.nrd():
            continue
        u = rand_quat(rng)
        assert act_pair(g1, g2, u).nrd() == u.nrd()


def rank_of(vectors):
    rows = [[Fraction(c) if not isinstance(c, QuadIrr) else c for c in v]
            for v in vectors]
    _, piv = rref(rows)
    return len(piv)


def test_kernel_lines_trace_zero():
    # trace-zero isotropic: both kernel lines are the span of u itself
    u = Quat(0, 1, 1, 0)  # nrd = -1 -1 +0... (1,1): -1*1 -1*1 = -2? pick isotropic
    assert u.nrd() == -2
    u = Quat(0, 0, 1, 1)  # nrd = -b y^2 + ab z^2 = -1 + 1 = 0
    assert u.nrd() == 0 and u.trd() == 0
    left, right = kernel_lines(u)
    assert left == right == ProjLine.from_quat(u, "B0")


def test_kernel_lines_matrix_unit():
    e11 = Quat.from_matrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    left, right = kernel_lines(e11)
    # 2x2 nullspace oracle: ker(l_u)_0 = span(E21), ker(r_u)_0 = span(E12)
    e21 = Quat.from_matrix([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
    e12 = Quat.from_matrix([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    assert left == ProjLine.from_quat(e21, "B0")
    assert right == ProjLine.from_quat(e12, "B0")
    assert left != right


def rand_isotropic(rng, field=None):
    """Random rank-one 2x2 matrix, optionally over Q(sqrt field)."""
    while True:
        if field is None:
            xs = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        else:
            xs = [QuadIrr(rng.randint(-3, 3), rng.randint(-3, 3), field) for _ in range(4)]
        x0, x1, y0, y1 = xs
        m = [[x0 * y0, x0 * y1], [x1 * y0, x1 * y1]]
        u = Quat.from_matrix(m)
        if not u.is_zero():
            return u


def test_kernel_equivariance():
    rng = random.Random(13)
    for _ in range(100):
        u = rand_isotropic(rng)
        g1, g2 = rand_quat(rng), rand_quat(rng)
        if g1.nrd() == 0 or g2.nrd() == 0:
            continue
        moved = g1 * u * g2.inverse()
        if moved.is_zero():
            continue
        _, right = kernel_lines(u)
        _, right_moved = kernel_lines(moved)
        assert right_moved == right.conjugated_by(g1)
        left, _ = kernel_lines(u)
        left_moved, _ = kernel_lines(moved)
        assert left_moved == left.conjugated_by(g2)


def test_subspace_decompositions():
    # for isotropic u with trd(u) != 0:
    #   ker(l_u) = ker(l_u)_0 + span(conj u),  Span(1,u)-perp = ker(l)_0 + ker(r)_0
    rng = random.Random(14)
    done = 0
    while done < 50:
        u = rand_isotropic(rng)
        if u.trd() == 0:
            continue
        left, right = kernel_lines(u)
        lv, rv = left.quat(), right.quat()
        # exact subspace equality via ranks
        assert (u * lv).is_zero() and (u * u.conj()).is_zero()
        kl = [lv.coords(), u.conj().coords()]
        assert rank_of(kl) == 2
        # every kernel vector of l_u lies in that span: l_u has rank 2
        assert rank_of(mult_matrix(u, "left")) == 2
        for v in kl:
            assert (u * Quat(*v)).is_zero()
        # Span(1,u)-perp: vectors w with bilinear(w,1)=bilinear(w,u)=0
        perp_conditions = [[bilinear(e, SPLIT.one()), bilinear(e, u)]
                           for e in (SPLIT.one(), SPLIT.gen_i(), SPLIT.gen_j(), SPLIT.gen_k())]
        for v in (lv, rv):
            assert bilinear(v, SPLIT.one()) == 0 and bilinear(v, u) == 0
        assert rank_of([lv.coords(), rv.coords()]) == 2
        done += 1


def test_quadric_split_trace_zero_diagonal():
    u = Quat(0, 0, 1, 1)
    line = ProjLine.from_quat(u, "B")
    s1, s2 = quadric_split(line)
    assert s1 == s2 == ProjLine.from_quat(u, "B0")
    assert quadric_unsplit(s1, s2) == ProjLine(line.vec, "B")


def test_quadric_round_trip_rational():
    rng = random.Random(15)
    for _ in range(200):
        u = rand_isotropic(rng)
        line = ProjLine.from_quat(u, "B")
        s1, s2 = quadric_split(line)
        assert quadric_unsplit(s1, s2) == line
    with pytest.raises(NotIsotropic):
        quadric_split(ProjLine.from_quat(SPLIT.one(), "B"))


def test_quadric_round_trip_quadratic_field():
    rng = random.Random(16)
    for _ in range(60):
        u = rand_isotropic(rng, field=5)
        line = ProjLine.from_quat(u, "B")
        s1, s2 = quadric_split(line)
        assert quadric_unsplit(s1, s2) == line


def test_quadric_equivariance():
    rng = random.Random(17)
    for _ in range(100):
        u = rand_isotropic(rng)
        g1, g2 = rand_quat(rng), rand_quat(rng)
        if g1.nrd() == 0 or g2.nrd() == 0:
            continue
        moved = g1 * u * g2.inverse()
        if moved.is_zero():
            continue
        s1, s2 = quadric_split(ProjLine.from_quat(u, "B"))
        m1, m2 = quadric_split(ProjLine.from_quat(moved, "B"))
        assert m1 == s1.conjugated_by(g1)
        assert m2 == s2.conjugated_by(g2)


def rand_pure_isotropic(rng):
    """Random trace-zero rank-one 2x2 matrix v w^T with w = c (-v1, v0)
    orthogonal to v: a nonzero isotropic pure quaternion of the split model."""
    while True:
        v0, v1 = rng.randint(-5, 5), rng.randint(-5, 5)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if (v0, v1) != (0, 0) and c != 0:
            return Quat.from_matrix([[-c * v0 * v1, c * v0 * v0],
                                     [-c * v1 * v1, c * v0 * v1]])


def test_unsplit_inverse_of_split_on_pairs():
    rng = random.Random(18)
    done = 0
    while done < 100:
        t1 = rand_pure_isotropic(rng)
        t2 = rand_pure_isotropic(rng)
        assert all(t.coords()[0] == 0 and t.nrd() == 0 and not t.is_zero() for t in (t1, t2))
        l1 = ProjLine.from_quat(t1, "B0")
        l2 = ProjLine.from_quat(t2, "B0")
        if bilinear(t1, t2) == 0 and l1 != l2:
            continue
        line = quadric_unsplit(l1, l2)
        assert quadric_split(line) == (l1, l2)
        done += 1


def oracle_families():
    """Random isotropic vectors of the split model over Q, Q(sqrt 5) and
    Q(sqrt 8), and every nonzero isotropic vector with coordinates in
    [-2, 2] of five other algebras ((3, 3) is a division algebra and has
    none)."""
    rng = random.Random(19)
    vecs = [rand_isotropic(rng, field) for field in (None, 5, 8) for _ in range(25)]
    for a, b in [(2, 2), (1, 4), (-1, 1), (3, 3), (5, -5)]:
        alg = QuatAlg(a, b)
        for c in itertools.product(range(-2, 3), repeat=4):
            u = Quat(*c, alg)
            if not u.is_zero() and u.nrd() == 0:
                vecs.append(u)
    return vecs


def test_closed_forms_match_nullspace_oracle():
    splits = {}
    for u in oracle_families():
        expect = kernel_lines_nullspace(u)
        assert repr(kernel_lines(u)) == repr(expect)
        line = ProjLine.from_quat(u, "B")
        pair = quadric_split(line)
        assert repr(pair) == repr(expect[::-1])
        assert repr(quadric_unsplit(*pair)) == repr(line)
        splits.setdefault((u.alg, getattr(u.t, "D", None)), []).append(pair)
    # unsplit of the right line of one vector with the left line of another:
    # the oracle splits the result back into the same two lines
    rng = random.Random(20)
    assert len(splits) == 7
    for group in splits.values():
        for _ in range(10):
            (l1, _), (_, l2) = rng.choice(group), rng.choice(group)
            line = quadric_unsplit(l1, l2)
            assert kernel_lines_nullspace(line.quat()) == (l2, l1)
    for alg in (SPLIT, QuatAlg(3, 3), QuatAlg(5, -5)):
        for u in (alg.one(), alg.quat(0, 0, 0, 0)):
            with pytest.raises(NotIsotropic):
                kernel_lines(u)


def test_projline_hash_agrees_with_equality():
    irr = ProjLine([QuadIrr(1, 0, 5), QuadIrr(2, 0, 5), 0, 0], "B")
    rat = ProjLine([1, 2, 0, 0], "B")
    assert irr == rat and hash(irr) == hash(rat)
    assert len({irr, rat}) == 1
    root = ProjLine([1, QuadIrr(0, 1, 20), 0, 0], "B")
    assert root == ProjLine([1, QuadIrr(0, 2, 5), 0, 0], "B")
    assert hash(root) == hash(ProjLine([1, QuadIrr(0, 2, 5), 0, 0], "B"))
