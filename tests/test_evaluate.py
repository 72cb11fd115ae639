import json
from fractions import Fraction

import pytest

from rmlab.cocycles import RMDivisor, dv_value
from rmlab.errors import NotRegular, PrecisionExhausted, SameOrbit
from rmlab.evaluate import (
    CocycleTable,
    antisym_experiment,
    cross_cochain_eta,
    cross_cochain_kappa,
    pair_value,
    table_value_fn,
    torsion_exponent,
    trivial_cocycle_value,
    truncated_theta_table,
    value_at,
)
import rmlab.evaluate as evaluate
from rmlab.exact import PTower
from rmlab.hyperbolic import HPoint
from rmlab.mat2 import IDENT, mat, mat_inv, mat_mul
from rmlab.rmpoints import QForm, automorph, rm_discs_up_to, form_of_disc
from tests_helpers_brute import mat_neg, table_product

GOLDEN = QForm(1, -1, -1)
SQRT2 = QForm(1, 0, -2)


def test_value_at_empty_table():
    v = value_at(CocycleTable(), GOLDEN, 2, 10)
    assert v.eq_at_precision(PTower.one(2, 10, 5, 0))


def test_trivial_cocycle_value_examples():
    # disc 5, p = 2, N = 10: the value is (3 + sqrt5)/2 in the tower
    v = trivial_cocycle_value(GOLDEN, 2, 10)
    eps = automorph(GOLDEN, 2).eps
    expect = PTower.from_quadirr(eps, 2, 10, 5, 0)
    assert v.eq_at_precision(expect)
    # norm-one: value times conjugate value = 1
    conj = PTower.from_quadirr(eps.conj(), 2, 10, 5, 0)
    assert (v * conj).eq_at_precision(PTower.one(2, 10, 5, 0))


def test_trivial_cocycle_all_discs():
    for p in (2, 3):
        for d in rm_discs_up_to(30, p):
            f = form_of_disc(d)
            v = trivial_cocycle_value(f, p, 12)
            eps = automorph(f, p).eps
            assert v.eq_at_precision(PTower.from_quadirr(eps, p, 12, d, 0))


def test_trivial_cocycle_inverse_power():
    # gamma^-1 carries the inverse value
    f = GOLDEN
    aut = automorph(f, 2)
    c, d = mat_inv(aut.gamma)[1]
    val_inv = f.root() * c + d
    eps = aut.eps
    assert (val_inv * eps) == 1


def test_value_at_single_factor_matches_direct():
    table = CocycleTable({tuple(e for row in automorph(GOLDEN, 3).gamma
                                for e in row): RMDivisor({SQRT2: 2})})
    v = value_at(table, GOLDEN, 3, 10, D1=5, D2=8)
    # direct recomputation in the tower
    z = PTower.from_quadirr(GOLDEN.root(), 3, 10, 5, 8, slot=1)
    w = PTower.from_quadirr(SQRT2.root(), 3, 10, 5, 8, slot=2)
    wc = PTower.from_quadirr(SQRT2.conj_root(), 3, 10, 5, 8, slot=2)
    expect = ((z - w) / (z - wc)) ** 2
    assert v.eq_at_precision(expect)


def test_cocycle_table_accepts_matrix_keys():
    # a 2x2 matrix key is flattened like the four-entry key, not stored as is
    g = automorph(GOLDEN, 3).gamma
    by_matrix = CocycleTable({g: RMDivisor({SQRT2: 2})})
    by_entries = CocycleTable({tuple(e for row in g for e in row): RMDivisor({SQRT2: 2})})
    assert by_matrix.entries == by_entries.entries
    assert by_matrix.factors_for(g) == RMDivisor({SQRT2: 2})
    v = value_at(by_matrix, GOLDEN, 3, 10, D1=5, D2=8)
    assert v.eq_at_precision(value_at(by_entries, GOLDEN, 3, 10, D1=5, D2=8))
    assert not v.eq_at_precision(PTower.one(3, 10, 5, 8))


def test_value_at_multiplicative():
    g = automorph(GOLDEN, 3).gamma
    key = tuple(e for row in g for e in row)
    t1 = CocycleTable({key: RMDivisor({SQRT2: 1})})
    t2 = CocycleTable({key: RMDivisor({SQRT2: 2, QForm(1, 2, -1): 1})})
    prod = table_product(t1, t2)
    v1 = value_at(t1, GOLDEN, 3, 10, D1=5, D2=8)
    v2 = value_at(t2, GOLDEN, 3, 10, D1=5, D2=8)
    v12 = value_at(prod, GOLDEN, 3, 10, D1=5, D2=8)
    assert v12.eq_at_precision(v1 * v2)


def test_value_at_not_regular():
    g = automorph(GOLDEN, 2).gamma
    key = tuple(e for row in g for e in row)
    table = CocycleTable({key: RMDivisor({GOLDEN: 1})})
    with pytest.raises(NotRegular):
        value_at(table, GOLDEN, 2, 8)


def test_value_at_checks_each_table_once(monkeypatch):
    # the automorph and the regularity check run on a table's first value
    # only; a higher precision, a new table or changed entries check again
    g = automorph(GOLDEN, 3).gamma
    key = tuple(e for row in g for e in row)
    table = CocycleTable({key: RMDivisor({SQRT2: 2, QForm(1, 2, -1): 1})})
    calls = []
    monkeypatch.setattr(evaluate, "orbit_equivalent",
                        lambda f, tau, p: calls.append(f) or False)
    values = [value_at(table, GOLDEN, 3, n, D1=5, D2=8) for n in (10, 20, 30)]
    assert len(calls) == 2
    fresh = value_at(CocycleTable(dict(table.entries)), GOLDEN, 3, 30, D1=5, D2=8)
    assert fresh.eq_at_precision(values[2]) and len(calls) == 4
    table.entries[key] = RMDivisor({GOLDEN: 1})
    monkeypatch.undo()
    with pytest.raises(NotRegular):
        value_at(table, GOLDEN, 3, 10)


def test_pair_value_constant_cochain():
    one = PTower.one(3, 10, 5, 8)

    def j2(x, y):
        return one

    assert pair_value(j2, GOLDEN, SQRT2, 3).eq_at_precision(one)
    with pytest.raises(SameOrbit):
        pair_value(j2, GOLDEN, GOLDEN, 3)


def test_pair_value_eta_cross_product():
    # ev(I x eta) capped with the product cycle = I[tau]^(-1)
    p, N = 3, 10
    g_tau = automorph(GOLDEN, p).gamma
    key = tuple(e for row in g_tau for e in row)
    table = CocycleTable({key: RMDivisor({SQRT2: 1})})
    fn = table_value_fn(table, GOLDEN.root(), p, N, 5, 8)
    j2 = cross_cochain_eta(fn, SQRT2, p)
    got = pair_value(j2, GOLDEN, SQRT2, p)
    expect = value_at(table, GOLDEN, p, N, D1=5, D2=8).inverse()
    assert got.eq_at_precision(expect)


def test_eta_reads_any_signed_power():
    # j2((1, 1), (1, h)) = 2^(-eta(h)) exposes the exponent n of h = +-gamma^n
    gamma = automorph(SQRT2, 3).gamma
    j2 = cross_cochain_eta(lambda g: Fraction(2), SQRT2, 3)
    g70 = IDENT
    for _ in range(70):
        g70 = mat_mul(g70, gamma)
    gi = mat_inv(gamma)
    cases = [(IDENT, 0), (gamma, 1), (g70, 70), (mat_neg(gamma), 1),
             (mat_mul(gi, mat_mul(gi, gi)), -3)]
    for h, n in cases:
        assert j2((IDENT, IDENT), (IDENT, h)) == Fraction(2) ** -n
    with pytest.raises(ValueError):
        j2((IDENT, IDENT), (IDENT, mat(1, 1, 0, 1)))


def test_pair_value_kappa_cross_product():
    # a 2-cochain pulled back from the first factor caps to 1
    p, N = 3, 10
    base = PTower.from_rational(Fraction(7, 5), p, N, 5, 8)

    def j_first(g1, g2):
        # normalized 2-cochain on the first factor: trivial on identity pairs
        if g1 == IDENT or g2 == IDENT:
            return PTower.one(p, N, 5, 8)
        return base

    j2 = cross_cochain_kappa(j_first)
    got = pair_value(j2, GOLDEN, SQRT2, p)
    assert got.eq_at_precision(PTower.one(p, N, 5, 8))


def test_pair_value_sigma_antisymmetry_shadow():
    # a coordinate-swap-symmetric cochain pairs antisymmetrically
    p, N = 3, 10
    rng_val = PTower.from_rational(Fraction(2, 7), p, N, 5, 8)
    vals = {}

    def f_raw(x, y):
        key = (x[0], x[1], y[0], y[1])
        if key not in vals:
            vals[key] = rng_val ** (1 + (len(vals) % 3))
        return vals[key]

    def j_sym(x, y):
        sx = (x[1], x[0])
        sy = (y[1], y[0])
        return f_raw(x, y) * f_raw(sx, sy)

    ab = pair_value(j_sym, GOLDEN, SQRT2, p)
    ba = pair_value(j_sym, SQRT2, GOLDEN, p)
    assert (ab * ba).eq_at_precision(PTower.one(p, N, 5, 8))


def test_truncated_theta_table_factors():
    x0 = HPoint(Fraction(1, 5), Fraction(1, 5))
    aut = automorph(GOLDEN, 2)
    t = truncated_theta_table(GOLDEN, aut.gamma, x0, 2, 1)
    facs = t.factors_for(aut.gamma)
    div = dv_value(GOLDEN, aut.gamma, x0, 2, 1)
    assert facs == div


def test_torsion_exponent():
    assert torsion_exponent(2) == 6
    assert torsion_exponent(3) == 8
    assert torsion_exponent(5) == 24


def test_antisym_experiment_smoke():
    rep = antisym_experiment(GOLDEN, SQRT2, 3, 10, levels=2, radius=3)
    assert rep["p"] == 3 and len(rep["steps"]) == 2
    # deterministic: identical reruns give identical reports
    rep2 = antisym_experiment(GOLDEN, SQRT2, 3, 10, levels=2, radius=3)
    assert json.dumps(rep, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    with pytest.raises(SameOrbit):
        antisym_experiment(GOLDEN, GOLDEN, 3, 10, levels=1)


def test_antisym_experiment_raises_when_precision_never_suffices(monkeypatch):
    # every escalation returns two digits: the report must not carry them
    monkeypatch.setattr(evaluate, "value_at",
                        lambda table, form, p, n, D1, D2: PTower.one(p, 2, D1, D2))
    with pytest.raises(PrecisionExhausted):
        antisym_experiment(GOLDEN, SQRT2, 3, 10, levels=1, radius=1)
