"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated budget and exactness."""

import json
import random
import time
from fractions import Fraction

from rmlab.bttree import (
    CochainPatch,
    INFINITY,
    TEdge,
    check_harmonic,
    neighbors,
    reduce_point,
    vdp_residue,
)
from rmlab.cocycles import (
    ChainSquare,
    cocycle_defect,
    d1_value,
    sigma_swap,
    theorem_b_chain_check,
)
from rmlab.evaluate import antisym_experiment, trivial_cocycle_value
from rmlab.exact import PTower
from rmlab.hecke import HeckeElt, act_on_dv, coset_reps_Tn, hecke_mul, kudla_millson
from rmlab.hyperbolic import GSegment, HPoint, ez_cross, moebius_point, winding_oracle
from rmlab.mat2 import mat, mat_inv, mat_mul
from rmlab.modsym import (
    build_space,
    cuspidal_subspace,
    dimension_formula,
    generating_series_check,
    hecke_matrix,
)
from rmlab.quaternion import ProjLine, Quat, quadric_split, quadric_unsplit
from rmlab.rmpoints import (
    QForm,
    automorph,
    form_of_disc,
    is_rm_for,
    rm_discs_up_to,
)
from tests_helpers_brute import automorph_oracle, km_hecke_route, rational_eigenvalues


def report(num: int, label: str, t0: float, budget: float):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded its budget"
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.1f}s / budget {budget:.0f}s)")


def rand_quat(rng, span=9):
    return Quat(*(Fraction(rng.randint(-span, span), rng.randint(1, 4))
                  for _ in range(4)))


def rand_isotropic(rng, quadratic=False):
    from rmlab.exact import QuadIrr

    while True:
        if quadratic:
            xs = [QuadIrr(rng.randint(-3, 3), rng.randint(-3, 3), 5) for _ in range(4)]
        else:
            xs = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        x0, x1, y0, y1 = xs
        m = [[x0 * y0, x0 * y1], [x1 * y0, x1 * y1]]
        u = Quat.from_matrix(m)
        if not u.is_zero():
            return u


def test_criterion_01_quadric_round_trip():
    t0 = time.time()
    rng = random.Random(101)
    for i in range(500):
        u = rand_isotropic(rng, quadratic=i >= 300)
        line = ProjLine.from_quat(u, "B")
        s1, s2 = quadric_split(line)
        assert quadric_unsplit(s1, s2) == line
        rt1, rt2 = quadric_split(quadric_unsplit(s1, s2))
        assert (rt1, rt2) == (s1, s2)
    done = 0
    while done < 100:
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
        done += 1
    report(1, "quadric splitting round-trip and equivariance", t0, 10)


def test_criterion_02_automorphs_match_oracle():
    t0 = time.time()
    checked = 0
    for p in (2, 3):
        for d in rm_discs_up_to(60, p):
            f = form_of_disc(d)
            a = automorph(f, p)
            w = f.root()
            assert w * a.gamma[0][0] + a.gamma[0][1] == a.eps * w
            assert w * a.gamma[1][0] + a.gamma[1][1] == a.eps
            det = a.gamma[0][0] * a.gamma[1][1] - a.gamma[0][1] * a.gamma[1][0]
            assert det == 1
            assert a.eps > 1
            assert a.eps * a.eps.conj() == 1
            nmax = max(64, int(a.eps.b * 2) * p ** 2 + 8)
            o = automorph_oracle(f, p, kmax=2, nmax=nmax)
            assert o.eps == a.eps and o.gamma == a.gamma
            checked += 1
    assert checked >= 30
    report(2, f"automorphs certified against the bounded oracle ({checked} discs)",
           t0, 60)


def test_criterion_03_cocycle_law():
    t0 = time.time()
    rng = random.Random(103)
    x0 = HPoint(Fraction(1, 5), Fraction(1, 5))
    combos = [(d, p) for p in (2, 3) for d in (5, 8, 12, 13)
              if is_rm_for(form_of_disc(d), p)]

    def gens(p):
        return [mat(1, 1, 0, 1), mat(1, -1, 0, 1), mat(1, 0, 1, 1),
                mat(0, -1, 1, 0), mat(p, 0, 0, Fraction(1, p)),
                mat(Fraction(1, p), 0, 0, p)]

    for i in range(100):
        d, p = combos[i % len(combos)]
        g = gens(p)
        g1, g2 = rng.choice(g), rng.choice(g)
        defect = cocycle_defect(form_of_disc(d), g1, g2, x0, p, 1)
        assert defect.is_zero(), (d, p, g1, g2)
    report(3, "cocycle law on 100 random two-letter words", t0, 300)


def test_criterion_04_hecke_relations():
    t0 = time.time()
    # (a) coprime multiplicativity up to 20, including p | mn pairs
    import math

    for p in (3,):
        for m in range(2, 21):
            for n in range(m + 1, 21):
                if math.gcd(m, n) != 1:
                    continue
                tm, tn = HeckeElt.Tn(m, p), HeckeElt.Tn(n, p)
                assert hecke_mul(tm, tn) == HeckeElt.Tn(m * n, p)
    # (b) for l in {2,3,5,7}, e <= 3, l != p
    for p in (2, 3, 5):
        for l in (2, 3, 5, 7):
            if l == p:
                continue
            for e in range(1, 4):
                lhs = hecke_mul(HeckeElt.Tn(l, p), HeckeElt.Tn(l ** e, p))
                rhs = HeckeElt.Tn(l ** (e + 1), p) + hecke_mul(
                    HeckeElt.T_scalar(l, p), HeckeElt.Tn(l ** (e - 1), p)).scale(l)
                assert lhs == rhs, (p, l, e)
    # (c) p-power relations for m <= 2
    for p in (2, 3, 5):
        tpp = HeckeElt.T_scalar(p, p)
        for m in (1, 2):
            for eps in (0, 1):
                lhs = HeckeElt.Tn(p ** (2 * m + eps), p)
                rhs = HeckeElt.Tn(p ** eps, p)
                for _ in range(m):
                    rhs = hecke_mul(tpp, rhs)
                assert lhs == rhs
    # actions at one fixed configuration
    p = 5
    x0 = HPoint(Fraction(1, 5), Fraction(1, 5))
    golden = QForm(1, -1, -1)
    seg = GSegment(x0, moebius_point(mat(2, 1, 1, 1), x0))
    direct = act_on_dv(HeckeElt.Tn(6, p), golden, seg, p, 1)
    from rmlab.cocycles import RMDivisor

    acc = RMDivisor()
    for beta in coset_reps_Tn(3, p).reps:
        inner = act_on_dv(HeckeElt.Tn(2, p), golden, seg.transported(beta), p, 1)
        acc = acc + inner.act(mat_inv(beta))
    nested = acc.restrict_levels(golden.disc, p, 1)
    assert direct == nested
    # (T_n x 1)(D_1) = D_n: the Hecke route equals the direct enumeration
    s1 = GSegment(HPoint(Fraction(17, 35), Fraction(13, 40)),
                  HPoint(Fraction(19, 37), Fraction(47, 16)))
    s2 = GSegment(HPoint(Fraction(-12, 35), Fraction(15, 31)),
                  HPoint(Fraction(44, 35), Fraction(46, 37)))
    chain = ChainSquare(s1, s2)
    for n, p in ((2, 3), (3, 2)):
        km = kudla_millson(n, chain, p, 1)
        assert not km.is_zero()
        assert km == km_hecke_route(n, chain, p, 1)
    report(4, "Hecke relations (a), (b), (c) and the cocycle actions", t0, 120)


GRID_DELTAS = [
    ("vertical", GSegment(HPoint(Fraction(1, 2), Fraction(1, 3)),
                          HPoint(Fraction(1, 2), Fraction(3)))),
    ("slanted", GSegment(HPoint(Fraction(2, 7), Fraction(1, 4)),
                         HPoint(Fraction(9, 7), Fraction(5, 3)))),
]
GRID_NPAIRS = [(0, -2), (0, -1), (2, 2), (0, 1), (0, 2), (0, 3)]


def test_criterion_05_theorem_b_grid():
    t0 = time.time()
    configs = 0
    for disc in (5, 8, 12):
        f = form_of_disc(disc)
        for p in (2, 3):
            for name, delta in GRID_DELTAS:
                for (n0, n1) in GRID_NPAIRS:
                    rep = theorem_b_chain_check(delta, n0, n1, f, p, 1)
                    assert rep["all_ok"], (disc, p, name, n0, n1, rep)
                    configs += 1
    assert configs == 72
    report(5, f"translated-square chain identity on {configs} configurations",
           t0, 600)


def test_criterion_06_sigma_symmetry():
    t0 = time.time()
    checked = 0
    for name, delta in GRID_DELTAS:
        other = GRID_DELTAS[0][1] if name == "slanted" else GRID_DELTAS[1][1]
        chain = ChainSquare(delta, other)
        for p in (2, 3):
            d = d1_value(chain, p, 1)
            assert d1_value(chain.swap(), p, 1) == sigma_swap(d)
            n = 3 if p == 2 else 2
            km = kudla_millson(n, chain, p, 1)
            assert kudla_millson(n, chain.swap(), p, 1) == sigma_swap(km)
            checked += 2
    assert checked == 8
    report(6, "sigma swap fixes the two-variable divisor values", t0, 600)


def rand_segment(rng, irrational=False):
    from rmlab.exact import QuadIrr

    while True:
        try:
            if irrational:
                d = rng.choice([2, 3, 5])
                z0 = HPoint(QuadIrr(rng.randint(-3, 3), rng.randint(-2, 2), d),
                            QuadIrr(rng.randint(1, 3), 0, d))
                z1 = HPoint(QuadIrr(rng.randint(-3, 3), rng.randint(-2, 2), d),
                            QuadIrr(rng.randint(1, 3), rng.randint(0, 1), d))
            else:
                z0 = HPoint(Fraction(rng.randint(-30, 30), 7),
                            Fraction(rng.randint(1, 30), 7))
                z1 = HPoint(Fraction(rng.randint(-30, 30), 7),
                            Fraction(rng.randint(1, 30), 7))
            return GSegment(z0, z1)
        except ValueError:
            continue


def test_criterion_07_intersection_engines_agree():
    t0 = time.time()
    from rmlab.errors import DegenerateConfiguration

    rng = random.Random(107)
    mats = [mat(1, 0, 0, 1), mat(1, 1, 0, 1), mat(2, 1, 1, 1), mat(1, 0, 0, 2),
            mat(1, -1, 1, 0), mat(3, 1, 2, 1), mat(1, 0, 0, 3)]
    done = 0
    while done < 1000:
        s1 = rand_segment(rng)
        s2 = rand_segment(rng, irrational=rng.random() < 0.25)
        g = rng.choice(mats)
        try:
            a = ez_cross(s1, s2, g)
            b = winding_oracle(s1, s2, g)
        except DegenerateConfiguration:
            continue
        assert a == b
        done += 1
    report(7, "ez_cross equals the winding oracle on 1000 configurations", t0, 120)


def test_criterion_08_van_der_put():
    t0 = time.time()
    rng = random.Random(108)
    total = 0
    for p in (2, 3, 5):
        for _ in range(34 if p == 2 else 33):
            a = Fraction(rng.randint(-15, 15), rng.choice([1, 1, 1, 7]))
            b = rng.choice([INFINITY, Fraction(rng.randint(-15, 15))])
            if b is not INFINITY and a == b:
                continue

            def fn(e):
                return vdp_residue([(a, 1), (b, -1)], e, p)

            patch = CochainPatch.from_function(p, 4, fn)
            assert check_harmonic(patch)
            # oriented path indicator: +-1 exactly on the geodesic from b to a
            ray_a = reduce_point(a, p, 10)
            ray_b = reduce_point(b, p, 10)
            i = 0
            while i + 1 < min(len(ray_a), len(ray_b)) and ray_a[i + 1] == ray_b[i + 1]:
                i += 1
            path_edges = set()
            # the geodesic through the join vertex ray_a[i]
            chain = list(reversed(ray_b[i:])) + ray_a[i:][1:]
            for u, w in zip(chain, chain[1:]):
                path_edges.add((u, w))
            for e, val in patch.values.items():
                on_path = (e.source, e.target) in path_edges
                anti_path = (e.target, e.source) in path_edges
                if on_path:
                    assert val == 1
                elif anti_path:
                    assert val == -1
                else:
                    assert val == 0
            total += 1
    assert total >= 98
    report(8, f"van der Put residues are harmonic path indicators ({total} pairs)",
           t0, 60)


def test_criterion_09_trivial_cocycle_values():
    t0 = time.time()
    for p in (2, 3):
        for d in rm_discs_up_to(60, p):
            f = form_of_disc(d)
            v = trivial_cocycle_value(f, p, 12)
            eps = automorph(f, p).eps
            expect = PTower.from_quadirr(eps, p, 12, d, 0)
            assert v.eq_at_precision(expect)
    report(9, "trivial cocycle evaluates to the automorph unit mod p^12", t0, 30)


def test_criterion_10_modularity_desk_scale():
    t0 = time.time()
    for n in (11, 14, 15):
        basis = build_space(n)
        for i in range(basis.dim):
            u = [Fraction(int(j == i)) for j in range(basis.dim)]
            out = generating_series_check(u, n, basis, 30)
            assert len(out["constant_term"]) == basis.dim
    basis11 = build_space(11)
    eigs = rational_eigenvalues(hecke_matrix(2, basis11).matrix)
    assert sorted(set(eigs)) == [-2, 3]
    count = sum(1 for x in range(2) for y in range(2)
                if (y * y + y - (x ** 3 - x * x - 10 * x - 20)) % 2 == 0) + 1
    assert 2 + 1 - count == -2
    report(10, "generating series modular at N = 11, 14, 15 with T_2 oracle",
           t0, 120)


def test_criterion_11_antisymmetry_experiment(tmp_path):
    t0 = time.time()
    f1, f2 = QForm(1, -1, -1), QForm(1, 0, -2)
    rep1 = antisym_experiment(f1, f2, 3, 12, levels=3, radius=5)
    rep2 = antisym_experiment(f1, f2, 3, 12, levels=3, radius=5)
    text1, text2 = (json.dumps(r, indent=2, sort_keys=True) for r in (rep1, rep2))
    assert text1 == text2, "report must be byte-for-byte reproducible"
    (tmp_path / "antisym.json").write_text(text1)
    defects = [s["defect"] for s in rep1["steps"] if s["defect"] is not None]
    assert len(defects) >= 3
    assert all(a <= b for a, b in zip(defects, defects[1:])), defects
    assert rep1["nondecreasing"]
    report(11, f"antisymmetry defect valuations {defects} nondecreasing", t0, 900)
