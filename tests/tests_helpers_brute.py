"""Shared brute-force oracles for the test suite."""

import math
from fractions import Fraction

from rmlab.cocycles import (
    ChainSquare,
    RMDivisor,
    RQDivisor,
    canonical_label,
    chain_segment,
    d1_value,
)
from rmlab.errors import MixedDiscriminant
from rmlab.exact import QuadIrr, p_free, quad_sign
from rmlab.hecke import coset_reps_Tn, key_to_matrix, right_coset_key
from rmlab.hyperbolic import OrientedGeodesic, cross_segment
from rmlab.linalg import nullspace
from rmlab.mat2 import (
    from_ints,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    moebius_quadirr,
    sl2zp_generators,
)
from rmlab.quaternion import ProjLine, Quat
from rmlab.rmpoints import Automorph, QForm, is_rm_for, orbit_equivalent


def pell4_scan(D: int, cap: int):
    """Minimal (t, u) with t^2 - D u^2 = 4 by a linear scan over u < cap;
    None when the scan does not finish."""
    for u in range(1, cap):
        t2 = 4 + D * u * u
        t = math.isqrt(t2)
        if t * t == t2:
            return t, u
    return None


def coset_closure(label, p: int):
    """Right cosets of the double coset of diag(e1, e2 p^t), closed under
    right multiplication by the generators of SL2(Z[1/p]) and their
    inverses; representatives in sorted key order."""
    e1, e2, t = label
    rep = mat(e1, 0, 0, e2 * Fraction(p) ** t)
    gens = sl2zp_generators(p)
    gens = gens + [mat_inv(g) for g in gens]
    seen = {right_coset_key(rep, p)}
    frontier = [rep]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                gh = mat_mul(g, h)
                k = right_coset_key(gh, p)
                if k not in seen:
                    seen.add(k)
                    new.append(gh)
        frontier = new
    return [key_to_matrix(k, p) for k in sorted(seen)]


def brute_divisor(base: QForm, gamma, x0, p: int, levels: int) -> RMDivisor:
    """Exhaustive |A|, |B| <= 10 scan of crossing orbit geodesics."""
    segment = chain_segment(gamma, x0)
    if segment is None:
        return RMDivisor()
    out = {}
    d0 = base.disc
    for m in range(-levels, levels + 1):
        if m < 0:
            q = p ** (-2 * m)
            if d0 % q:
                continue
            d = d0 // q
        else:
            d = d0 * p ** (2 * m)
        for A in range(-10, 11):
            if A == 0:
                continue
            for B in range(-10, 11):
                num = B * B - d
                if num % (4 * A):
                    continue
                C = num // (4 * A)
                if math.gcd(math.gcd(abs(A), abs(B)), abs(C)) != 1:
                    continue
                f = QForm(A, B, C)
                if not orbit_equivalent(f, base, p):
                    continue
                sgn = cross_segment(segment, OrientedGeodesic(f))
                if sgn:
                    out[f] = out.get(f, 0) + sgn
    return RMDivisor(out)


def automorph_oracle(form: QForm, p: int, kmax: int, nmax: int) -> Automorph:
    """Exhaustive bounded search for the automorph.

    Every det-1 matrix fixing the root is ((t-BU)/2, -CU; AU, (t+BU)/2)
    with t^2 - disc U^2 = 4, and its eigenvalue grows strictly with U > 0.
    Scanning all U = n / p^k with 1 <= n <= nmax, 0 <= k <= kmax therefore
    certifies minimality inside the box; callers pick nmax large enough
    that the candidate automorph lies inside it.
    """
    assert is_rm_for(form, p)
    D = form.disc
    A, B, C = form.triple()
    w = form.root()
    best = None  # (U, t)
    for k in range(kmax + 1):
        P = p ** k
        P2 = P * P
        for n in range(1, nmax + 1):
            if k > 0 and n % p == 0:
                continue
            t2num = 4 * P2 + D * n * n
            T = math.isqrt(t2num)
            if T * T != t2num:
                continue
            U = Fraction(n, P)
            if best is None or U < best[0]:
                best = (U, Fraction(T, P))
    if best is None:
        raise RuntimeError("oracle box contained no stabilizer")
    U, t = best
    g = mat((t - B * U) / 2, -C * U, A * U, (t + B * U) / 2)
    assert mat_det(g) == 1
    for row in g:
        for e in row:
            assert p_free(e.denominator, p) == 1, "stabilizer entry escaped Z[1/p]"
    eps = QuadIrr(t / 2, U / 2, D)
    assert quad_sign(eps - 1) > 0
    assert moebius_quadirr(g, w) == w
    return Automorph(g, eps)


def witness_search(f1: QForm, f2: QForm, p: int, kmax: int, bound: int):
    """Bounded direct search for gamma in SL2(Z[1/p]) with gamma.w1 = w2.

    Solves the two linear conditions for (a, b) in terms of (c, d) and scans
    the box |c|, |d| <= bound / p^k, k <= kmax; None when the box holds no
    witness."""
    w1, w2 = f1.root(), f2.root()
    try:
        prod = w2 * w1
    except MixedDiscriminant:
        return None
    e, fcoef = w1.a, w1.b
    s, t = prod.a, prod.b
    u, v = w2.a, w2.b
    denoms = [Fraction(1)] + [Fraction(1, p ** k) for k in range(1, kmax + 1)]
    for dc in denoms:
        for dd in denoms:
            for cn in range(-bound, bound + 1):
                c = cn * dc
                for dn in range(-bound, bound + 1):
                    d = dn * dd
                    if c == 0 and d == 0:
                        continue
                    a = (c * t + d * v) / fcoef
                    b = c * s + d * u - a * e
                    g = mat(a, b, c, d)
                    if mat_det(g) != 1:
                        continue
                    ok = all(p_free(ent.denominator, p) == 1 for row in g for ent in row)
                    if ok and moebius_quadirr(g, w1) == w2:
                        return g
    return None


def km_hecke_route(n: int, chain: ChainSquare, p: int, radius: int) -> RQDivisor:
    """(T_n x 1)(D_1): the basic two-variable value on each Hecke-translated
    chain alpha . seg1, relabelled back by alpha^-1 on the left and
    restricted to p-exponent <= radius."""
    out: dict = {}
    for alpha in coset_reps_Tn(n, p).reps:
        moved = ChainSquare(chain.seg1.transported(alpha), chain.seg2)
        ainv = mat_inv(alpha)
        for v, m in d1_value(moved, p, radius).entries.items():
            w = canonical_label(mat_mul(ainv, from_ints(v)))
            out[w] = out.get(w, 0) + m
    return RQDivisor(out).restrict_p_exponent(p, radius)


def mult_matrix(u: Quat, side: str):
    """Matrix of v -> u v (side "left") or v -> v u (side "right") on the
    basis (1, i, j, ij)."""
    alg = u.alg
    basis = [alg.one(), alg.gen_i(), alg.gen_j(), alg.gen_k()]
    cols = [(u * e if side == "left" else e * u).coords() for e in basis]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def _over(e, D):
    """e as an entry over Q (D None) or Q(sqrt D)."""
    if isinstance(e, QuadIrr):
        return e
    return Fraction(e) if D is None else QuadIrr(e, 0, D)


def kernel_lines_nullspace(u: Quat):
    """(left, right) kernel lines of an isotropic u from the nullspaces of
    its multiplication matrices with the trace row appended, over the
    field of u's first irrational coordinate."""
    D = next((c.D for c in u.coords() if isinstance(c, QuadIrr)), None)
    out = []
    for side in ("left", "right"):
        rows = mult_matrix(u, side) + [[1, 0, 0, 0]]
        basis = nullspace([[_over(e, D) for e in r] for r in rows])
        assert len(basis) == 1, f"kernel in B0 has dimension {len(basis)}"
        out.append(ProjLine(basis[0], "B0", u.alg))
    return out[0], out[1]
