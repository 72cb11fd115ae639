"""Weight-two modular symbols for Gamma_0(N) via Manin symbols.

The presentation is the classical one: symbols indexed by P^1(Z/N), the
two- and three-term relations, Heilbronn-Merel matrices for the Hecke
action, and the boundary map to cusp classes cutting out the cuspidal
subspace.  Everything is exact over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import Inconsistent, Mismatch
from .exact import divisors, kronecker, sigma1, xgcd
from .linalg import mat_vec, nullspace, rref, solve


class P1List:
    """Representatives of P^1(Z/N): a pair (c, d) with gcd(c, d, N) = 1
    reduces to the least member of its orbit under the units of Z/N, read
    off a table built once."""

    def __init__(self, N: int):
        self.N = N
        units = [u for u in range(N) if math.gcd(u, N) == 1]
        self.reps = []
        self._least = {}
        for c in range(N):
            for d in range(N):
                if (c, d) in self._least or math.gcd(c, d, N) > 1:
                    continue
                # met in lexicographic order, (c, d) is its orbit's least member
                self.reps.append((c, d))
                for u in units:
                    self._least[(u * c % N, u * d % N)] = (c, d)
        self.index = {r: i for i, r in enumerate(self.reps)}

    def reduce(self, cd):
        """The representative of (c, d), or None when gcd(c, d, N) > 1."""
        return self._least.get((cd[0] % self.N, cd[1] % self.N))

    def __len__(self):
        return len(self.reps)


S_MAT = (0, -1, 1, 0)
T3_MAT = (0, -1, 1, -1)  # order three


def _act(cd, m, N):
    c, d = cd
    a, b, c2, d2 = m
    return ((c * a + d * c2) % N, (c * b + d * d2) % N)


@dataclass
class ManinBasis:
    N: int
    p1: P1List
    free: list[int]             # indices of free generators
    expand: list[list[Fraction]]  # symbol index -> coordinates on free gens
    dim: int

    def symbol_vector(self, cd) -> list[Fraction]:
        r = self.p1.reduce(cd)
        if r is None:
            return [Fraction(0)] * self.dim
        return self.expand[self.p1.index[r]]


def dimension_formula(N: int) -> tuple[int, int, int]:
    """(genus of X_0(N), number of cusps, dim M_2(Gamma_0(N)))."""
    mu = N
    nu2, nu3 = 1, 1
    n = N
    seen = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            seen.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        seen.append(n)
    for q in seen:
        mu = mu // q * (q + 1)
    if N % 4 == 0:
        nu2 = 0
    else:
        for q in seen:
            nu2 *= 1 + kronecker(-4, q) if q != 2 else 1
    if N % 9 == 0:
        nu3 = 0
    else:
        for q in seen:
            nu3 *= 1 + kronecker(-3, q) if q != 3 else 1
    cusps = sum(_phi(math.gcd(d, N // d)) for d in divisors(N))
    genus = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(cusps, 2)
    if genus.denominator != 1:
        raise Mismatch(f"genus formula gave a non-integer at N={N}")
    g = int(genus)
    return g, cusps, g + cusps - 1


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def build_space(N: int) -> ManinBasis:
    """Quotient of the free module on P^1(Z/N) by the two- and three-term
    relations; the dimension is checked against the genus/cusp formula."""
    p1 = P1List(N)
    n = len(p1)
    rows = []
    for i, cd in enumerate(p1.reps):
        row = [Fraction(0)] * n
        row[i] += 1
        row[p1.index[p1.reduce(_act(cd, S_MAT, N))]] += 1
        rows.append(row)
        row = [Fraction(0)] * n
        row[i] += 1
        row[p1.index[p1.reduce(_act(cd, T3_MAT, N))]] += 1
        t2 = _act(_act(cd, T3_MAT, N), T3_MAT, N)
        row[p1.index[p1.reduce(t2)]] += 1
        rows.append(row)
    red, pivots = rref(rows)
    free = [j for j in range(n) if j not in pivots]
    dim = len(free)
    # express every symbol in terms of the free generators
    expand = []
    for j in range(n):
        if j in free:
            v = [Fraction(0)] * dim
            v[free.index(j)] = Fraction(1)
            expand.append(v)
        else:
            r = pivots.index(j)
            v = [Fraction(0)] * dim
            for kk, fj in enumerate(free):
                v[kk] = -red[r][fj]
            expand.append(v)
    basis = ManinBasis(N, p1, free, expand, dim)
    g, c, dim_m2 = dimension_formula(N)
    if dim != dim_m2 + g:  # 2g + c - 1
        raise Mismatch(f"Manin quotient dim {dim} != 2g + c - 1 at N={N}")
    return basis


# ---------------------------------------------------------------------------
# Hecke operators via Heilbronn-Merel matrices


def merel_set(n: int):
    """Matrices of determinant n computing T_n on weight-two Manin symbols."""
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    yield (a, b, 0, d)
                for c in range(1, d):
                    yield (a, 0, c, d)
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        yield (a, b, bc // b, d)


def hecke_matrix(n: int, basis: ManinBasis) -> list[list[Fraction]]:
    """The matrix of T_n on the free generators (columns are images)."""
    N = basis.N
    cols = []
    for j in basis.free:
        cd = basis.p1.reps[j]
        acc = [Fraction(0)] * basis.dim
        for h in merel_set(n):
            img = _act(cd, h, N)
            if math.gcd(math.gcd(img[0], img[1]), N) > 1:
                continue
            v = basis.symbol_vector(img)
            acc = [x + y for x, y in zip(acc, v)]
        cols.append(acc)
    return [[cols[j][i] for j in range(basis.dim)] for i in range(basis.dim)]


def hecke_matrices(basis: ManinBasis, nmax: int) -> list[list[list[Fraction]]]:
    """[T_1, ..., T_nmax]: each matrix built once, for callers to hand down."""
    return [hecke_matrix(n, basis) for n in range(1, nmax + 1)]


# ---------------------------------------------------------------------------
# cusps and the cuspidal subspace


def _lift_sl2(cd, N: int):
    c, d = cd
    if N == 1:
        return (1, 0, 0, 1)
    d1 = d % N
    c1 = c % N
    if c1 == 0 and d1 == 0:  # pragma: no cover
        raise ValueError("invalid symbol")
    for t in range(4 * N + 2):
        dd = d1 + t * N
        if math.gcd(c1, dd) == 1:
            _, x, y = xgcd(c1, dd)
            # a dd - b c1 = 1 with a = y, b = -x
            return (y, -x, c1, dd)
        if c1 == 0 and dd == 0:
            continue
    raise Mismatch("no coprime lift found")  # pragma: no cover


def _cusp_equiv(N: int, cusp1, cusp2) -> bool:
    """Gamma_0(N)-equivalence of cusps a1/c1 and a2/c2: the classical test
    s1 c2 = s2 c1 mod gcd(c1 c2, N) with a_j s_j = 1 mod c_j."""
    a1, c1 = cusp1
    a2, c2 = cusp2
    s1 = xgcd(a1, c1)[1]
    s2 = xgcd(a2, c2)[1]
    g = math.gcd(N, c1 * c2)
    if g == 0:
        g = N
    return (s1 * c2 - s2 * c1) % g == 0


class CuspClasses:
    def __init__(self, N: int):
        self.N = N
        self.reps: list[tuple[int, int]] = []

    def index(self, cusp) -> int:
        a, c = cusp
        g = math.gcd(abs(a), abs(c))
        if g:
            a, c = a // g, c // g
        if c < 0:
            a, c = -a, -c
        if c == 0:
            a = 1
        for i, r in enumerate(self.reps):
            if _cusp_equiv(self.N, r, (a, c)):
                return i
        self.reps.append((a, c))
        return len(self.reps) - 1


def cuspidal_subspace(basis: ManinBasis) -> list[list[Fraction]]:
    """Basis (as rows) of the kernel of the boundary map."""
    N = basis.N
    classes = CuspClasses(N)
    rows_by_cusp: dict[int, list[Fraction]] = {}
    for col, j in enumerate(basis.free):
        cd = basis.p1.reps[j]
        a, b, c, d = _lift_sl2(cd, N)
        i_inf = classes.index((a, c))
        i_zero = classes.index((b, d))
        for idx, sgn in ((i_inf, 1), (i_zero, -1)):
            row = rows_by_cusp.setdefault(idx, [Fraction(0)] * basis.dim)
            row[col] += sgn
    rows = [rows_by_cusp[i] for i in sorted(rows_by_cusp)]
    ker = nullspace(rows)
    g, c, _ = dimension_formula(N)
    if len(ker) != 2 * g:
        raise Mismatch(f"cuspidal dimension {len(ker)} != 2g at N={N}")
    return ker


def cusp_eigenvalue(tn, cusp_basis) -> Fraction:
    """Eigenvalue of the Hecke matrix tn on the (assumed Hecke-scalar)
    cuspidal subspace."""
    cols = [list(r) for r in zip(*cusp_basis)]
    for w in cusp_basis:
        if solve(cols, mat_vec(tn, w)) is None:
            raise Mismatch("Hecke operator does not preserve the cusp space")
    v = cusp_basis[0]
    tv = mat_vec(tn, v)
    lam = None
    for i, x in enumerate(v):
        if x != 0:
            lam = tv[i] / x
            break
    if lam is None:
        raise Mismatch("zero cusp basis vector")
    if [lam * x for x in v] != tv:
        raise Mismatch("cuspidal space is not Hecke-scalar at this level")
    return lam


# ---------------------------------------------------------------------------
# q-expansion side


def eisenstein_qexp(d: int, nmax: int) -> list[Fraction]:
    """(d E_2(d z) - E_2(z)) / 24: constant (d-1)/24, a_n = sigma1(n) - d sigma1(n/d)."""
    out = [Fraction(d - 1, 24)]
    for n in range(1, nmax + 1):
        a = sigma1(n)
        if n % d == 0:
            a -= d * sigma1(n // d)
        out.append(Fraction(a))
    return out


def m2_basis_qexp(basis: ManinBasis, hecke) -> list[list[Fraction]]:
    """q-expansions (a_0 .. a_nmax) of an explicit basis of M_2(Gamma_0(N), Q):
    level-raised Eisenstein series plus the cuspidal eigenforms read off the
    symbol space.  hecke[n - 1] is the matrix T_n, and nmax = len(hecke)."""
    N = basis.N
    q = [eisenstein_qexp(d, len(hecke)) for d in divisors(N) if d > 1]
    g, _, _ = dimension_formula(N)
    if g > 0:
        cb = cuspidal_subspace(basis)
        q.append([Fraction(0)] + [cusp_eigenvalue(tn, cb) for tn in hecke])
    return q


def psi_pairing_check(basis: ManinBasis, bound: int) -> bool:
    """Desk-scale perfectness of (g, T) -> a_1(T g) = the coefficient
    pairing: the bound x bound Gram block [a_i(g_j)] has full rank."""
    if bound <= 0:
        return True
    qs = m2_basis_qexp(basis, hecke_matrices(basis, bound))
    k = min(len(qs), bound)
    gram = [[qs[j][i] for j in range(k)] for i in range(1, bound + 1)]
    _, piv = rref(gram)
    return len(piv) == k


def generating_series_check(u: list[Fraction], basis: ManinBasis, hecke, qs) -> dict:
    """For each coordinate functional, match n -> alpha(T_n u) against the
    explicit modular-form basis and recover the unique constant term;
    hecke[n - 1] is the matrix T_n, nmax = len(hecke), and qs is
    m2_basis_qexp(basis, hecke).

    Returns {"constant_term": vector}; raises Inconsistent if some
    functional series is not modular."""
    k = len(qs)
    tn_u = [mat_vec(tn, u) for tn in hecke]
    # coefficient matrix rows n = 1..nmax over the k basis forms
    rows = [[q[n] for q in qs] for n in range(1, len(hecke) + 1)]
    _, piv = rref(rows)
    if len(piv) != k:
        raise Mismatch("basis q-expansions are not independent at this depth")
    constants = []
    for i in range(basis.dim):
        rhs = [t[i] for t in tn_u]
        sol = solve(rows, rhs)
        if sol is None:
            raise Inconsistent(f"functional {i}: series is not modular")
        # exact check on every coefficient (solve only guarantees a pivot fit)
        for n, row in enumerate(rows, 1):
            if sum(s * a for s, a in zip(sol, row)) != rhs[n - 1]:
                raise Inconsistent(f"functional {i}: residual at n={n}")
        constants.append(sum(sol[j] * qs[j][0] for j in range(k)))
    return {"constant_term": constants}


# ---------------------------------------------------------------------------
# Atkin-Lehner at prime level


def _cf_convergents(a: int, b: int):
    """Convergents of a/b (b > 0), including the leading 1/0."""
    ps, qs = [1], [0]
    p0, q0 = 0, 1  # previous-previous
    x, y = a, b
    while y:
        q, r = divmod(x, y)
        p_new = q * ps[-1] + p0
        q_new = q * qs[-1] + q0
        p0, q0 = ps[-1], qs[-1]
        ps.append(p_new)
        qs.append(q_new)
        x, y = y, r
    return list(zip(ps, qs))


def path_vector(basis: ManinBasis, r1, r2) -> list[Fraction]:
    """Modular symbol {r1, r2} expanded into Manin symbols (Manin's trick);
    r1, r2 are Fractions or None for infinity."""

    def mt(x):
        # {infinity, x} via the convergent chain of x
        if x is None:
            return [Fraction(0)] * basis.dim
        fr = Fraction(x)
        conv = _cf_convergents(fr.numerator, fr.denominator)
        out = [Fraction(0)] * basis.dim
        for i in range(1, len(conv)):
            (pp, qp), (pn, qn) = conv[i - 1], conv[i]
            det = pn * qp - pp * qn
            g = (pn, det * pp, qn, det * qp)  # {g 0, g inf} = {prev, next}
            if det not in (1, -1) or g[0] * g[3] - g[1] * g[2] != 1:
                raise Mismatch("continued-fraction step is not in SL2(Z)")
            v = basis.symbol_vector((g[2], g[3]))
            out = [x0 + y0 for x0, y0 in zip(out, v)]
        return out

    a = mt(r1)
    b = mt(r2)
    return [y - x for x, y in zip(a, b)]


def atkin_lehner_matrix(basis: ManinBasis) -> list[list[Fraction]]:
    """w_p on the quotient at prime level N = p, via paths {W g 0, W g inf}."""
    N = basis.N
    cols = []
    for j in basis.free:
        cd = basis.p1.reps[j]
        a, b, c, d = _lift_sl2(cd, N)
        # W_p = (0, -1; p, 0); images of the path endpoints g inf = a/c, g 0 = b/d
        def w_image(num, den):
            # W_p . (num/den) = -den / (p num)
            if num == 0:
                return None  # infinity
            return Fraction(-den, N * num)

        # the symbol is {g 0, g inf}; its image is {W g 0, W g inf}
        r1 = w_image(b, d)
        r2 = w_image(a, c)
        cols.append(path_vector(basis, r1, r2))
    return [[cols[j][i] for j in range(basis.dim)] for i in range(basis.dim)]
