import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab.cocycles import ChainSquare, RMDivisor, RQDivisor, dv_value_on_segment, sigma_swap
from rmlab.errors import Mismatch
from rmlab.hecke import (
    CosetList,
    HeckeElt,
    _check_pairwise,
    act_on_dv,
    coset_reps_Tn,
    cosets_of_label,
    double_coset_label,
    hecke_mul,
    key_to_matrix,
    kudla_millson,
    right_coset_key,
)
from rmlab.hyperbolic import GSegment, HPoint
from rmlab.mat2 import mat, mat_inv, mat_mul
from rmlab.rmpoints import QForm
from tests_helpers_brute import (
    coset_closure,
    in_gamma,
    km_hecke_route,
    pairwise_inequivalent,
    right_coset_key_fraction,
    sl2zp_generators,
    tree_neighbor_count,
    upper_triangular_cosets,
)

GOLDEN = QForm(1, -1, -1)


def test_right_coset_key_invariance():
    g = mat(2, 3, 1, 4)  # det 5
    k0 = right_coset_key(g, 3)
    for gamma in (mat(1, 1, 0, 1), mat(0, -1, 1, 0), mat(1, 0, 1, 1),
                  mat(3, 0, 0, Fraction(1, 3)), mat(-1, 0, 0, -1)):
        assert right_coset_key(mat_mul(gamma, g), 3) == k0
    # the canonical representative reproduces the key and stays equivalent
    rep = key_to_matrix(k0, 3)
    assert right_coset_key(rep, 3) == k0
    assert in_gamma(mat_mul(g, mat_inv(rep)), 3) or \
        in_gamma(mat_mul(rep, mat_inv(g)), 3)


def _key_or_error(key, g, p):
    try:
        return key(g, p)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)),
       entries=st.lists(st.integers(-40, 40), min_size=4, max_size=4),
       exps=st.lists(st.integers(0, 3), min_size=4, max_size=4),
       word=st.lists(st.sampled_from("TSDtsd"), max_size=8),
       upper=st.booleans())
def test_right_coset_key_integer_paths(p, entries, exps, word, upper):
    if upper:  # no row operation: the diagonal scaling alone fixes signs
        entries[2] = 0
    g = mat(*(Fraction(e, p ** k) for e, k in zip(entries, exps)))
    key = _key_or_error(right_coset_key, g, p)
    # the Fraction algorithm, step by step on g, agrees in value or error
    assert key == _key_or_error(right_coset_key_fraction, g, p)
    if not isinstance(key, tuple):
        return
    # the key's matrix has the key; so has the integral p^3 g, with t + 6
    assert right_coset_key(key_to_matrix(key, p), p) == key
    scaled = tuple(tuple(int(e * p ** 3) for e in row) for row in g)
    a, b, c0, t = key
    assert right_coset_key(scaled, p) == (a, b, c0, t + 6)
    # left multiplication by a word in T, S, diag(p, 1/p) and their inverses
    gens = {"T": mat(1, 1, 0, 1), "S": mat(0, -1, 1, 0), "D": mat(p, 0, 0, Fraction(1, p))}
    gens.update({k.lower(): mat_inv(v) for k, v in gens.items()})
    gamma = mat(1, 0, 0, 1)
    for letter in word:
        gamma = mat_mul(gens[letter], gamma)
    assert right_coset_key(mat_mul(gamma, g), p) == key


def test_right_coset_key_rejects_entries_outside_z_1_p():
    # 1/3 is no element of Z[1/2]
    with pytest.raises(ValueError):
        right_coset_key(mat(Fraction(1, 3), 0, 0, 3), 2)


def test_coset_reps_examples():
    assert coset_reps_Tn(1, 5).reps == (mat(1, 0, 0, 1),)
    r2 = coset_reps_Tn(2, 3)
    assert set(r2.reps) == {mat(1, 0, 0, 2), mat(1, 1, 0, 2), mat(2, 0, 0, 1)}
    assert len(r2.reps) == tree_neighbor_count(2, 3) == 3
    rp = coset_reps_Tn(2, 2)
    assert len(rp.reps) == tree_neighbor_count(2, 2) == 3
    assert rp.gamma_level == "z"  # lattice-level data: they collapse over Z[1/2]
    # over the Ihara group the three reps are one coset
    keys = {right_coset_key(g, 2) for g in rp.reps}
    assert len(keys) == 1


def test_coset_counts_sigma1():
    for p in (2, 3, 5):
        for n in range(1, 13):
            if math.gcd(n, p) != 1:
                continue
            assert len(coset_reps_Tn(n, p).reps) == sum(
                d for d in range(1, n + 1) if n % d == 0)


def test_coprime_coset_reps_match_the_upper_triangular_loop():
    for p in (2, 3, 5, 7):
        for n in range(1, 36):
            if math.gcd(n, p) != 1:
                continue
            got = coset_reps_Tn(n, p)
            expect = upper_triangular_cosets(n)
            assert got.reps == tuple(expect), (n, p)
            assert got.to_json()["reps"] == [[[str(e) for e in row] for row in g]
                                             for g in expect]


def test_key_check_matches_the_pairwise_product_route():
    # distinct keys, the library's certificate, against alpha_i alpha_j^-1
    # in Gamma for every pair, on each coset list and on the list with one
    # coset repeated under a random word in Gamma
    rng = random.Random(21)
    for p in (2, 3, 5, 7):
        gens = sl2zp_generators(p)
        for n in range(1, 18):
            reps = list(coset_reps_Tn(n, p).reps)
            g = rng.choice(reps)
            for _ in range(rng.randint(1, 4)):
                g = mat_mul(rng.choice(gens), g)
            for cand in (reps, reps + [g]):
                try:
                    _check_pairwise(CosetList(tuple(cand), n, p, "zp"))
                    keys_distinct = True
                except Mismatch:
                    keys_distinct = False
                assert keys_distinct == pairwise_inequivalent(cand, p), (n, p)
            assert pairwise_inequivalent(reps, p) == (n != p)


def _labels_reached():
    """Every (label, p) whose cosets criterion 4 or this module's products
    expand: the terms of both factors and of the product."""
    T, S = HeckeElt.Tn, HeckeElt.T_scalar
    pairs = [(T(m, 3), T(n, 3)) for m in range(2, 21) for n in range(m + 1, 21)
             if math.gcd(m, n) == 1]
    for p in (2, 3, 5):
        for l in (2, 3, 5, 7):
            if l != p:
                pairs += [(T(l, p), T(l ** e, p)) for e in range(1, 4)]
                pairs += [(S(l, p), T(l ** e, p)) for e in range(3)]
        pairs += [(S(p, p), T(p ** k, p)) for k in range(4)]
    pairs += [(T(a, p), T(b, p)) for p, a, b in (
        (5, 2, 3), (5, 3, 4), (3, 2, 2), (3, 2, 4),
        (2, 3, 5), (2, 9, 5), (2, 3, 7), (2, 15, 7))]
    out = set()
    for s, t in pairs:
        for elt in (s, t, hecke_mul(s, t)):
            out |= {(lbl, s.p) for lbl in elt.terms}
    return sorted(out)


def test_cosets_match_generator_closure():
    for lbl, p in _labels_reached():
        assert cosets_of_label(lbl, p) == coset_closure(lbl, p), (lbl, p)
    # grid: every label with p-free e1 e2 <= 30, e1 | e2, t <= 2
    for p in (2, 3, 5, 7):
        for n in range(1, 31):
            if n % p == 0:
                continue
            for e1 in range(1, n + 1):
                if n % e1 == 0 and (n // e1) % e1 == 0:
                    for t in range(3):
                        lbl = (e1, n // e1, t)
                        assert cosets_of_label(lbl, p) == coset_closure(lbl, p), (lbl, p)


def test_cosets_of_label_rejects_non_labels():
    # (2, 3): e1 must divide e2; (1, 2) at p = 2: e2 must be p-free
    for lbl, p in (((2, 3, 0), 5), ((1, 2, 0), 2), ((0, 1, 0), 3)):
        with pytest.raises(ValueError):
            cosets_of_label(lbl, p)


def test_double_coset_labels():
    p = 3
    assert double_coset_label(mat(1, 0, 0, 1), p) == (1, 1, 0)
    assert double_coset_label(mat(2, 0, 0, 2), p) == (2, 2, 0)
    assert double_coset_label(mat(1, 0, 0, 4), p) == (1, 4, 0)
    assert double_coset_label(mat(3, 0, 0, 3), p) == (1, 1, 2)
    assert double_coset_label(mat(1, 0, 0, 9), p) == (1, 1, 2)
    # scalar p and diag(1, p^2) are one double coset over SL2(Z[1/p])
    assert double_coset_label(mat(1, 0, 0, 3), p) == (1, 1, 1)


def test_double_coset_label_of_every_coset():
    # each right coset of a double coset carries that double coset's label
    for p in (2, 3, 5):
        for n in range(1, 13):
            for lbl in HeckeElt.Tn(n, p).terms:
                for alpha in cosets_of_label(lbl, p):
                    assert double_coset_label(alpha, p) == lbl


def test_double_coset_label_rejects_matrices_outside_the_monoid():
    # 1/3 is no element of Z[1/2]; a negative determinant has no label
    for g, p in ((mat(Fraction(1, 3), 0, 0, 3), 2), (mat(-1, 0, 0, 1), 3)):
        with pytest.raises(ValueError):
            double_coset_label(g, p)


def test_hecke_identity_and_t1():
    p = 3
    one = HeckeElt.one(p)
    t5 = HeckeElt.Tn(5, p)
    assert hecke_mul(one, t5) == t5
    assert hecke_mul(t5, one) == t5


def test_relation_a_coprime():
    p = 5
    t2, t3 = HeckeElt.Tn(2, p), HeckeElt.Tn(3, p)
    assert hecke_mul(t2, t3) == HeckeElt.Tn(6, p)
    assert hecke_mul(t3, t2) == HeckeElt.Tn(6, p)
    t4 = HeckeElt.Tn(4, p)
    assert hecke_mul(t3, t4) == HeckeElt.Tn(12, p)


def test_relation_b_l_prime():
    # T_l T_l = T_{l^2} + l T(l,l) away from p
    p = 3
    t2 = HeckeElt.Tn(2, p)
    rhs = HeckeElt.Tn(4, p) + HeckeElt.T_scalar(2, p)
    assert hecke_mul(t2, t2) == HeckeElt.Tn(4, p) + HeckeElt.T_scalar(2, p).scale(2)
    t4 = HeckeElt.Tn(4, p)
    lhs = hecke_mul(t2, t4)
    assert lhs == HeckeElt.Tn(8, p) + hecke_mul(HeckeElt.T_scalar(2, p), t2).scale(2)


def test_relation_c_p_powers():
    for p in (2, 3):
        tpp = HeckeElt.T_scalar(p, p)
        tp = HeckeElt.Tn(p, p)
        for m in (1, 2):
            for eps in (0, 1):
                n = p ** (2 * m + eps)
                lhs = HeckeElt.Tn(n, p)
                rhs = HeckeElt.Tn(p ** eps, p)
                for _ in range(m):
                    rhs = hecke_mul(tpp, rhs)
                assert lhs == rhs
        # T(p,p) is the determinant-p^2 coset itself over this group
        assert tpp == HeckeElt.Tn(p * p, p)
        assert hecke_mul(tp, tp) == tpp


def test_commutativity_sample():
    p = 2
    for a, b in ((3, 5), (9, 5), (3, 7), (15, 7)):
        ta, tb = HeckeElt.Tn(a, p), HeckeElt.Tn(b, p)
        assert hecke_mul(ta, tb) == hecke_mul(tb, ta)


X0 = HPoint(Fraction(1, 5), Fraction(1, 5))


def chain_for(gamma):
    from rmlab.hyperbolic import moebius_point

    return GSegment(X0, moebius_point(gamma, X0))


def test_act_t1_is_dv_value():
    p = 3
    seg = chain_for(mat(2, 1, 1, 1))
    lhs = act_on_dv(HeckeElt.one(p), GOLDEN, seg, p, 1)
    rhs = dv_value_on_segment(GOLDEN, seg, p, 1)
    assert lhs == rhs
    assert not lhs.is_zero()


def test_act_scalar_trivial():
    # T(l, l) acts trivially: the label scaling is projective
    p = 3
    seg = chain_for(mat(2, 1, 1, 1))
    lhs = act_on_dv(HeckeElt.T_scalar(2, p), GOLDEN, seg, p, 1)
    rhs = dv_value_on_segment(GOLDEN, seg, p, 1)
    assert lhs == rhs


def test_act_composition_matches_product():
    p = 3
    seg = chain_for(mat(2, 1, 1, 1))
    t2, t4 = HeckeElt.Tn(2, p), HeckeElt.Tn(4, p)
    prod = hecke_mul(t2, t4)
    direct = act_on_dv(prod, GOLDEN, seg, p, 1)
    # T_2 then T_4 by splitting the action through explicit cosets:
    # act(T_2 * T_4) must match act of the expanded product elementwise
    t8 = HeckeElt.Tn(8, p)
    rest = prod - t8
    assert direct == act_on_dv(t8, GOLDEN, seg, p, 1) + \
        act_on_dv(rest, GOLDEN, seg, p, 1)


def test_act_on_dv_term_by_term():
    p = 3
    seg = chain_for(mat(2, 1, 1, 1))
    t2 = HeckeElt.Tn(2, p)
    total = act_on_dv(t2, GOLDEN, seg, p, 1)
    parts = None
    for alpha in coset_reps_Tn(2, p).reps:
        moved = seg.transported(alpha)
        val = dv_value_on_segment(GOLDEN, moved, p, 1 + 0).act(mat_inv(alpha))
        parts = val if parts is None else parts + val
    assert total == parts.restrict_levels(GOLDEN.disc, p, 1)


def test_act_on_dv_of_no_chain_is_zero():
    assert act_on_dv(HeckeElt.Tn(6, 5), GOLDEN, None, 5, 1) == RMDivisor()


def km_chain():
    # generic denominators keep every candidate label transversal
    s1 = GSegment(HPoint(Fraction(17, 35), Fraction(13, 40)),
                  HPoint(Fraction(19, 37), Fraction(47, 16)))
    s2 = GSegment(HPoint(Fraction(-12, 35), Fraction(15, 31)),
                  HPoint(Fraction(44, 35), Fraction(46, 37)))
    return ChainSquare(s1, s2)


def test_kudla_millson_n1_is_d1():
    from rmlab.cocycles import d1_value

    c = km_chain()
    assert kudla_millson(1, c, 2, 1) == d1_value(c, 2, 1)


def test_kudla_millson_routes_agree_n2():
    c = km_chain()
    d = kudla_millson(2, c, 3, 1)
    assert isinstance(d, RQDivisor)
    assert not d.is_zero()
    assert d == km_hecke_route(2, c, 3, 1)


def test_kudla_millson_sigma_symmetry():
    c = km_chain()
    for n, p in ((1, 2), (2, 3)):
        d = kudla_millson(n, c, p, 1)
        ds = kudla_millson(n, c.swap(), p, 1)
        assert ds == sigma_swap(d)


def test_kudla_millson_rejects_p_multiples():
    with pytest.raises(ValueError):
        kudla_millson(2, km_chain(), 2, 1)


def test_d1_candidates_are_primitive_with_det_n_p_2k():
    from rmlab.cocycles import d1_candidates

    c = km_chain()
    for n, p in ((1, 2), (2, 3)):
        labels = d1_candidates(c.seg1, c.seg2, p, 1, det_prime_part=n)
        assert labels
        for a, b, cc, d in labels:
            assert math.gcd(a, b, cc, d) == 1
            assert a * d - b * cc in (n, n * p * p)
    for n in (0, -1):
        with pytest.raises(ValueError):
            d1_candidates(c.seg1, c.seg2, 3, 1, det_prime_part=n)


def test_act_preserves_cocycle_law():
    # the Hecke-translated cochain still satisfies the cocycle identity
    from rmlab.hyperbolic import moebius_point
    from rmlab.mat2 import mat_mul

    p = 3
    t2 = HeckeElt.Tn(2, p)
    g1, g2 = mat(1, 1, 0, 1), mat(2, 1, 1, 1)
    g12 = mat_mul(g1, g2)

    def seg_of(g):
        return GSegment(X0, moebius_point(g, X0))

    lhs = act_on_dv(t2, GOLDEN, seg_of(g12), p, 2)
    a = act_on_dv(t2, GOLDEN, seg_of(g1), p, 2)
    b = act_on_dv(t2, GOLDEN, seg_of(g2), p, 3)
    total = (a + b.act(g1)).restrict_levels(GOLDEN.disc, p, 2)
    defect = (lhs - total).restrict_levels(GOLDEN.disc, p, 1)
    assert defect.is_zero()
