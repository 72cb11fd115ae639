from fractions import Fraction

from rmlab import cli, modsym
from rmlab.modsym import (
    P1List,
    atkin_lehner_matrix,
    build_space,
    cusp_eigenvalue,
    cuspidal_subspace,
    dimension_formula,
    eisenstein_qexp,
    generating_series_check,
    hecke_matrices,
    hecke_matrix,
    m2_basis_qexp,
    merel_set,
    path_vector,
    psi_pairing_check,
)
from tests_helpers_brute import mat_product, p1_reduce_scan, rational_eigenvalues


def test_dimension_formula():
    assert dimension_formula(11) == (1, 2, 2)
    assert dimension_formula(2) == (0, 2, 1)
    assert dimension_formula(14) == (1, 4, 4)
    assert dimension_formula(15) == (1, 4, 4)
    assert dimension_formula(37)[0] == 2


def test_build_space_dimensions():
    # quotient dimension = dim M_2 + dim S_2 = 2g + c - 1
    assert build_space(11).dim == 3
    assert build_space(2).dim == 1
    assert build_space(14).dim == 5
    assert build_space(15).dim == 5


def test_p1_reduce_matches_the_unit_scan():
    for N in range(1, 41):
        p1 = P1List(N)
        for c in range(-N, 2 * N):
            for d in range(-N, 2 * N):
                assert p1.reduce((c, d)) == p1_reduce_scan(N, c, d), (N, c, d)


def test_merel_set_determinants():
    for n in (1, 2, 3, 6, 10):
        mats = list(merel_set(n))
        assert all(a * d - b * c == n for a, b, c, d in mats)
        assert len(set(mats)) == len(mats)


def test_hecke_t1_identity():
    basis = build_space(11)
    t1 = hecke_matrix(1, basis)
    ident = [[Fraction(int(i == j)) for j in range(basis.dim)]
             for i in range(basis.dim)]
    assert t1 == ident


def test_hecke_eigenvalues_level_11():
    basis = build_space(11)
    t2 = hecke_matrix(2, basis)
    eigs = rational_eigenvalues(t2)
    assert sorted(set(eigs)) == [-2, 3]
    # point-count oracle: a_2 = 2 + 1 - #E(F_2) for y^2+y = x^3-x^2-10x-20
    count = 0
    for x in range(2):
        for y in range(2):
            if (y * y + y - (x ** 3 - x * x - 10 * x - 20)) % 2 == 0:
                count += 1
    count += 1  # point at infinity
    assert -2 == 2 + 1 - count


def test_hecke_commute_and_multiplicativity():
    basis = build_space(11)
    t2 = hecke_matrix(2, basis)
    t3 = hecke_matrix(3, basis)
    t6 = hecke_matrix(6, basis)
    assert mat_product(t2, t3) == t6
    assert mat_product(t2, t3) == mat_product(t3, t2)
    # relation (b) at l = 2: T_2 T_2 = T_4 + 2 T(2,2), and T(2,2) acts as
    # multiplication by 1 on weight-two symbols (trivial character)
    t4 = hecke_matrix(4, basis)
    lhs = mat_product(t2, t2)
    ident = [[Fraction(int(i == j)) for j in range(basis.dim)]
             for i in range(basis.dim)]
    rhs = [[t4[i][j] + 2 * ident[i][j] for j in range(basis.dim)]
           for i in range(basis.dim)]
    assert lhs == rhs


def test_cusp_eigenvalues_integral():
    for N, known_a2 in ((11, -2), (14, -1), (15, -1)):
        basis = build_space(N)
        cb = cuspidal_subspace(basis)
        assert len(cb) == 2
        a2 = cusp_eigenvalue(hecke_matrix(2, basis), cb)
        assert a2.denominator == 1
        assert a2 == known_a2
        for n in (3, 5, 7):
            an = cusp_eigenvalue(hecke_matrix(n, basis), cb)
            assert an.denominator == 1


def test_eisenstein_qexp():
    e11 = eisenstein_qexp(11, 6)
    assert e11[0] == Fraction(10, 24)
    assert e11[1] == 1 and e11[2] == 3 and e11[3] == 4
    # sigma_1 away from the level, drop at multiples: a_11 would be sigma-11*1
    e2 = eisenstein_qexp(2, 4)
    assert e2[1] == 1 and e2[2] == 3 - 2 * 1 and e2[4] == 7 - 2 * 3


def test_m2_basis_independent():
    for N in (11, 14, 15):
        basis = build_space(N)
        qs = m2_basis_qexp(basis, hecke_matrices(basis, 30))
        g, c, dim_m2 = dimension_formula(N)
        assert len(qs) == dim_m2


def test_psi_pairing():
    assert psi_pairing_check(build_space(11), 2)
    assert psi_pairing_check(build_space(2), 1)
    assert psi_pairing_check(build_space(11), 0)  # vacuous


def test_generating_series_zero_vector():
    basis = build_space(11)
    hecke = hecke_matrices(basis, 12)
    out = generating_series_check([Fraction(0)] * basis.dim, basis, hecke,
                                  m2_basis_qexp(basis, hecke))
    assert out["constant_term"] == [Fraction(0)] * basis.dim


def test_generating_series_basis_vectors():
    for N in (11, 14, 15):
        basis = build_space(N)
        hecke = hecke_matrices(basis, 30)
        qs = m2_basis_qexp(basis, hecke)
        for i in range(basis.dim):
            u = [Fraction(int(j == i)) for j in range(basis.dim)]
            out = generating_series_check(u, basis, hecke, qs)
            assert len(out["constant_term"]) == basis.dim


def test_generating_series_cuspidal_constant_zero():
    basis = build_space(11)
    cb = cuspidal_subspace(basis)
    hecke = hecke_matrices(basis, 30)
    out = generating_series_check(cb[0], basis, hecke, m2_basis_qexp(basis, hecke))
    assert out["constant_term"] == [Fraction(0)] * basis.dim


def test_generating_series_inconsistent_guard():
    # a sequence that matches no modular form: tamper with the Hecke data by
    # checking a fake functional series directly through the solver path
    basis = build_space(11)
    from rmlab.linalg import solve

    qs = m2_basis_qexp(basis, hecke_matrices(basis, 8))
    rows = [[qs[j][n] for j in range(len(qs))] for n in range(1, 9)]
    bad = [Fraction(1), Fraction(0), Fraction(0), Fraction(0),
           Fraction(5), Fraction(0), Fraction(0), Fraction(1)]
    sol = solve(rows, bad)
    if sol is not None:
        residual = any(
            sum(sol[j] * qs[j][n] for j in range(len(qs))) != bad[n - 1]
            for n in range(1, 9))
        assert residual


def test_atkin_lehner_tp_identity():
    # T_p = -w_p on weight-two symbols at prime level
    for N in (11, 2, 3):
        basis = build_space(N)
        tp = hecke_matrix(N, basis)
        wp = atkin_lehner_matrix(basis)
        neg = [[-x for x in row] for row in wp]
        assert tp == neg
        # w_p is an involution
        ident = [[Fraction(int(i == j)) for j in range(basis.dim)]
                 for i in range(basis.dim)]
        assert mat_product(wp, wp) == ident


def test_path_vector_basics():
    basis = build_space(11)
    # {0, 0} vanishes; {inf, 0} + {0, inf} = 0
    zero = path_vector(basis, Fraction(0), Fraction(0))
    assert zero == [Fraction(0)] * basis.dim
    a = path_vector(basis, None, Fraction(0))
    b = path_vector(basis, Fraction(0), None)
    assert [x + y for x, y in zip(a, b)] == [Fraction(0)] * basis.dim


def test_generating_series_eisenstein_constant():
    # an Eisenstein eigenvector (T_2 eigenvalue 3 at level 11) recovers the
    # a_1-normalized constant term (11 - 1)/24 scaled by each functional
    basis = build_space(11)
    t2 = hecke_matrix(2, basis)
    rows = [[t2[i][j] - (3 if i == j else 0) for j in range(basis.dim)]
            for i in range(basis.dim)]
    from rmlab.linalg import nullspace

    eis = nullspace(rows)
    assert len(eis) == 1
    u = eis[0]
    hecke = hecke_matrices(basis, 30)
    out = generating_series_check(u, basis, hecke, m2_basis_qexp(basis, hecke))
    expect = [Fraction(10, 24) * x for x in u]
    assert out["constant_term"] == expect


def test_each_hecke_matrix_is_built_once(monkeypatch, capsys):
    calls = []
    qexp_levels = []
    real = modsym.hecke_matrix
    real_qexp = modsym.m2_basis_qexp

    def counting(n, basis):
        calls.append((basis.N, n))
        return real(n, basis)

    def counting_qexp(basis, hecke):
        qexp_levels.append(basis.N)
        return real_qexp(basis, hecke)

    for module in (modsym, cli):
        if getattr(module, "hecke_matrix", None) is real:
            monkeypatch.setattr(module, "hecke_matrix", counting)
        monkeypatch.setattr(module, "m2_basis_qexp", counting_qexp)
    assert cli.run(["modform", "--level", "11", "--nterms", "30"]) == 0
    capsys.readouterr()
    assert sorted(calls) == [(11, n) for n in range(1, 31)]
    # one q-expansion basis serves the report and every basis vector
    assert qexp_levels == [11]
    # criterion 10's N = 15 level: its five basis vectors share T_1..T_30
    calls.clear()
    basis = build_space(15)
    hecke = hecke_matrices(basis, 30)
    qs = m2_basis_qexp(basis, hecke)
    for i in range(basis.dim):
        u = [Fraction(int(j == i)) for j in range(basis.dim)]
        generating_series_check(u, basis, hecke, qs)
    assert basis.dim == 5
    assert sorted(calls) == [(15, n) for n in range(1, 31)]
