import random
from fractions import Fraction

import pytest

from rmlab import rmpoints
from rmlab.errors import DoesNotStabilize, Mismatch, NotRM
from rmlab.exact import QuadIrr, is_square_int, quad_sign
from rmlab.mat2 import mat, mat_det, mat_mul, moebius_quadirr
from rmlab.rmpoints import (
    QForm,
    automorph,
    class_key,
    class_witness,
    conductor,
    form_apply,
    form_of_disc,
    is_rm_for,
    lambda_of,
    orbit_conjugator,
    orbit_equivalent,
    pell4_fundamental,
    reduced_cycle,
    rm_discs_up_to,
)
from tests_helpers_brute import automorph_oracle, pell4_scan, witness_search

GOLDEN = QForm(1, -1, -1)  # disc 5, root = golden ratio
SQRT2 = QForm(1, 0, -2)    # disc 8, root = sqrt 2


def test_qform_validation():
    with pytest.raises(ValueError):
        QForm(0, 1, -1)
    with pytest.raises(ValueError):
        QForm(2, 0, -2)  # imprimitive
    with pytest.raises(ValueError):
        QForm(1, 3, 0)  # disc 9 is a square
    with pytest.raises(ValueError):
        QForm(1, 0, 1)  # disc < 0
    assert GOLDEN.disc == 5
    assert GOLDEN.root() == QuadIrr(Fraction(1, 2), Fraction(1, 2), 5)


def test_internal_constructor_matches_public_one():
    # QForm._make skips the checks but gives the same form: equality, the
    # stored hash (that of the triple), disc, repr, set and dict membership
    rng = random.Random(5)
    made, public = [], []
    while len(made) < 300:
        A, B, C = (rng.randint(-40, 40) for _ in range(3))
        try:
            f = QForm(A, B, C)
        except ValueError:
            continue
        g = QForm._make(A, B, C, B * B - 4 * A * C)
        assert g == f and f == g and not g != f
        assert hash(g) == hash(f) == hash((A, B, C))
        assert g.disc == f.disc and repr(g) == repr(f)
        assert g in {f} and {f: 1}[g] == 1 and -g == -f
        made.append(g)
        public.append(f)
    # equal hashes keep the iteration order of sets and dicts
    triples = [f.triple() for f in public]
    assert [f.triple() for f in set(made)] == [f.triple() for f in set(public)] \
        == list(set(triples))
    assert list(dict.fromkeys(made)) == list(dict.fromkeys(public))


def test_is_rm_for_examples():
    assert is_rm_for(GOLDEN, 2)
    assert is_rm_for(GOLDEN, 5)
    assert not is_rm_for(GOLDEN, 11)
    # the field decides, not the conductor: 2 splits in Q(sqrt 17) (disc 68)
    # and 3 splits in Q(sqrt 13) (disc 117 = 3^2 * 13)
    assert not is_rm_for(QForm(1, 0, -17), 2)
    assert not is_rm_for(QForm(1, 1, -29), 3)
    assert is_rm_for(QForm(1, 0, -5), 2)  # disc 20 = 2^2 * 5, 2 inert
    with pytest.raises(NotRM):
        automorph(QForm(1, 0, -17), 2)


def test_automorph_golden():
    a = automorph(GOLDEN, 2)
    assert a.gamma == mat(2, 1, 1, 1)
    assert a.eps == QuadIrr(Fraction(3, 2), Fraction(1, 2), 5)


def test_automorph_sqrt2():
    a = automorph(SQRT2, 3)
    assert a.gamma == mat(3, 4, 2, 3)
    assert a.eps == QuadIrr(3, 1, 8)  # 3 + sqrt 8 = 3 + 2 sqrt 2


def test_automorph_not_rm():
    with pytest.raises(NotRM):
        automorph(GOLDEN, 11)


def test_automorph_conjugated_point():
    g = mat(1, 1, 0, 1)
    moved = form_apply(g, GOLDEN)
    assert moved.root() == moebius_quadirr(g, GOLDEN.root())
    a0 = automorph(GOLDEN, 2)
    a1 = automorph(moved, 2)
    gi = mat(1, -1, 0, 1)
    assert a1.gamma == mat_mul(mat_mul(g, a0.gamma), gi)
    assert a1.eps == a0.eps


def test_automorph_properties_all_discs():
    for p in (2, 3):
        for d in rm_discs_up_to(40, p):
            f = form_of_disc(d)
            a = automorph(f, p)
            w = f.root()
            # gamma (w,1)^t = eps (w,1)^t
            assert w * a.gamma[0][0] + a.gamma[0][1] == a.eps * w
            assert w * a.gamma[1][0] + a.gamma[1][1] == a.eps
            assert mat_det(a.gamma) == 1
            assert quad_sign(a.eps - 1) > 0
            assert a.eps * a.eps.conj() == 1


def test_automorph_p_inverted_conductor():
    # disc 20 = conductor 2 over disc 5: over Z[1/2] the unit of disc 5 appears
    f = QForm(1, 2, -4)
    assert f.disc == 20
    a = automorph(f, 2)
    assert a.eps == QuadIrr(Fraction(3, 2), Fraction(1, 4), 20)  # (3+sqrt5)/2
    # over Z[1/3] the conductor stays, Pell runs on 20 itself: eps = 9 + 4 sqrt 5
    a3 = automorph(f, 3)
    assert a3.eps == QuadIrr(9, 2, 20)
    assert a3.eps == QuadIrr(9, 4, 5)


def test_automorph_matches_oracle_small():
    for p in (2, 3):
        for d in rm_discs_up_to(24, p):
            f = form_of_disc(d)
            a = automorph(f, p)
            nmax = max(64, int(a.eps.b * 2) * p ** 2 + 8)
            o = automorph_oracle(f, p, kmax=2, nmax=nmax)
            assert o.eps == a.eps
            assert o.gamma in (a.gamma,)


def test_automorph_oracle_checks_its_input():
    # the oracle's own asserts run under python -O too (tests/conftest.py)
    with pytest.raises(AssertionError):
        automorph_oracle(GOLDEN, 11, kmax=0, nmax=4)


def test_lambda_of():
    assert lambda_of(mat(1, 0, 0, 1), GOLDEN) == 1
    a = automorph(GOLDEN, 2)
    lam = lambda_of(a.gamma, GOLDEN)
    assert lam == a.eps
    assert lam == GOLDEN.root() + 1  # (3+sqrt5)/2 = omega + 1
    g2 = mat_mul(a.gamma, a.gamma)
    assert lambda_of(g2, GOLDEN) == lam * lam
    with pytest.raises(DoesNotStabilize):
        lambda_of(mat(1, 1, 0, 1), GOLDEN)


def test_pell_and_conductor():
    assert pell4_fundamental(5) == (3, 1)
    assert pell4_fundamental(8) == (6, 2)
    assert conductor(20) == (5, 2)
    assert conductor(8) == (8, 1)
    assert conductor(45) == (5, 3)


def test_form_of_disc_rejects_non_discriminants():
    for d in (10, 11, 14, 15):
        with pytest.raises(ValueError):
            form_of_disc(d)
        with pytest.raises(ValueError):
            pell4_fundamental(d)
    assert form_of_disc(12).disc == 12 and form_of_disc(13).disc == 13


def test_pell_cycle_matches_linear_scan():
    finished = 0
    for D in range(5, 401):
        if D % 4 > 1 or is_square_int(D):
            continue
        scanned = pell4_scan(D, 10 ** 5)
        if scanned is not None:
            assert pell4_fundamental(D) == scanned, D
            finished += 1
    assert finished > 100


def test_automorph_large_units():
    # effective discriminants 421, 604 and 349 (1396 with the 2 stripped;
    # 349 = 5 mod 8, so 2 is inert); u = 18162120 for 349
    for f in (QForm(1, 1, -105), QForm(1, 0, -151), QForm(1, 0, -349)):
        a = automorph(f, 2)
        (g00, _), (g10, g11) = a.gamma
        assert mat_det(a.gamma) == 1
        assert moebius_quadirr(a.gamma, f.root()) == f.root()
        t, U = g00 + g11, g10 / f.A
        assert t * t - f.disc * U * U == 4
        assert a.eps == QuadIrr(t / 2, U / 2, f.disc)
        assert a.eps > 1
    with pytest.raises(NotRM):  # 388 = 2^2 * 97 and 2 splits in Q(sqrt 97)
        automorph(QForm(1, 0, -97), 2)


def test_reduced_cycle_closes():
    for f in (GOLDEN, SQRT2, QForm(3, 2, -4), QForm(1, 4, -1)):
        cyc = reduced_cycle(f)
        assert cyc, "cycle must be nonempty"
        for g in cyc:
            assert g.disc == f.disc
            w = class_witness(f, g.triple())
            assert moebius_quadirr(w, f.root()) == g.root()


def test_orbit_equivalent_examples():
    assert orbit_equivalent(GOLDEN, GOLDEN, 2)
    translated = form_apply(mat(1, 1, 0, 1), GOLDEN)
    assert orbit_equivalent(GOLDEN, translated, 2)
    assert not orbit_equivalent(GOLDEN, SQRT2, 2)
    assert not orbit_equivalent(GOLDEN, SQRT2, 3)


def test_orbit_equivalent_p_scaling():
    # z -> p^2 z is diag(p, 1/p) in SL2(Z[1/p]): disc scales by p^4 / content^2
    g = mat(2, 0, 0, Fraction(1, 2))
    moved = form_apply(g, GOLDEN)
    assert orbit_equivalent(GOLDEN, moved, 2)
    conj = orbit_conjugator(GOLDEN, moved, 2)
    assert moebius_quadirr(conj, GOLDEN.root()) == moved.root()
    assert conj == mat(2, 0, 0, Fraction(1, 2))  # the BFS path, pinned


def test_orbit_inequivalent_odd_parity():
    # single determinant-p step: disc 5 -> disc 20 at p = 2 is NOT in the
    # SL2(Z[1/2]) orbit (odd valuation parity, p inert)
    up = form_apply(mat(1, 0, 0, 2), GOLDEN)
    assert up.disc == 20
    assert not orbit_equivalent(GOLDEN, up, 2)


# every negative orbit_equivalent answer in this file
ORBIT_NEGATIVES = [
    (GOLDEN, SQRT2, 2),
    (GOLDEN, SQRT2, 3),
    (GOLDEN, form_apply(mat(1, 0, 0, 2), GOLDEN), 2),  # odd parity
    # Q(sqrt 10) has class number 2 and 7 is inert: the BFS reaches
    # (2, 0, -5)'s class at neither parity
    (QForm(1, 0, -10), QForm(2, 0, -5), 7),
]


@pytest.mark.parametrize("f1, f2, p", ORBIT_NEGATIVES)
def test_orbit_negatives_have_no_bounded_witness(f1, f2, p):
    assert not orbit_equivalent(f1, f2, p)
    assert witness_search(f1, f2, p, kmax=2, bound=24) is None


def test_automorph_wrong_root_raises_mismatch(monkeypatch):
    monkeypatch.setattr(rmpoints, "moebius_quadirr", lambda g, w: w + 1)
    with pytest.raises(Mismatch):
        automorph(GOLDEN, 2)


def test_orbit_conjugator_identity_translate():
    t = form_apply(mat(1, 2, 0, 1), GOLDEN)
    g = orbit_conjugator(GOLDEN, t, 3)
    assert g == mat(-4, -3, -1, -1)  # the BFS path, pinned
    assert mat_det(g) == 1
    assert moebius_quadirr(g, GOLDEN.root()) == t.root()


def test_class_key_invariance():
    key = class_key(GOLDEN)
    for g in (mat(1, 1, 0, 1), mat(1, 0, 1, 1), mat(0, -1, 1, 0), mat(2, 1, 1, 1)):
        assert class_key(form_apply(g, GOLDEN)) == key
    assert class_key(SQRT2) != key


def test_rm_discs_list():
    d2 = rm_discs_up_to(20, 2)
    assert 5 in d2 and 8 in d2 and 12 in d2 and 13 in d2
    assert 17 not in d2  # 17 = 1 mod 8 splits at 2
    d3 = rm_discs_up_to(20, 3)
    assert 5 in d3 and 8 in d3 and 12 in d3
    assert 13 not in d3  # 13 = 1 mod 3 is a QR mod 3
    assert 68 not in rm_discs_up_to(80, 2)  # 68 = 2^2 * 17
    assert 20 in rm_discs_up_to(80, 2) and 32 in rm_discs_up_to(80, 2)
    assert 117 not in rm_discs_up_to(200, 3)  # 117 = 3^2 * 13
    assert 45 in rm_discs_up_to(200, 3)  # 45 = 3^2 * 5, 3 inert
