"""Shared brute-force oracles for the test suite."""

import cmath
import math
from fractions import Fraction

from rmlab.bttree import TVertex, make_vertex
from rmlab.cocycles import (
    ChainSquare,
    RMDivisor,
    RQDivisor,
    canonical_label,
    chain_segment,
    d1_value,
)
from rmlab.errors import (
    DegenerateConfiguration,
    DegenerateEndpoint,
    Mismatch,
    MixedDiscriminant,
)
from rmlab.exact import (
    QuadIrr,
    divisors,
    floor_exact,
    p_free,
    quad_sign,
    sigma1,
    val_p,
    xgcd,
)
from rmlab.hecke import coset_reps_Tn, key_to_matrix, right_coset_key
from rmlab.hyperbolic import cross_segment, ez_cross, side
from rmlab.linalg import nullspace
from rmlab.mat2 import (
    IDENT,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    moebius_quadirr,
)
from rmlab.quaternion import ProjLine, Quat
from rmlab.rmpoints import (
    Automorph,
    QForm,
    in_orbit_component,
    is_rm_for,
    orbit_equivalent,
)


def from_ints(q):
    """The flat integer label (a, b, c, d) as a Fraction matrix."""
    a, b, c, d = q
    return mat(a, b, c, d)


def right_coset_key_fraction(g, p: int):
    """Hermite key of SL2(Z[1/p]) * g computed in Fraction arithmetic, step
    by step on g itself: clear the first column's denominators, xgcd
    row-reduce, scale the diagonal by diag(u, 1/u), u = +-p^j, to a
    positive p-free upper-left entry, then reduce the upper-right entry
    modulo the p-free part of the corner."""
    det = mat_det(g)
    if det <= 0:
        raise ValueError("positive determinant required")
    x, y = g[0][0], g[1][0]
    k = 0
    for e in (x, y):
        if e != 0:
            k = max(k, -val_p(e, p))
    xs, ys = int(x * p ** k), int(y * p ** k)
    if ys == 0:
        red = g
    else:
        d, u, v = xgcd(xs, ys)
        row_op = mat(u, v, Fraction(-ys, d), Fraction(xs, d))
        if mat_det(row_op) != 1:
            raise Mismatch("row operation determinant is not 1")
        red = mat_mul(row_op, g)
    if red[1][0] != 0:
        raise Mismatch("row reduction left a nonzero lower-left entry")
    a = red[0][0]
    va = val_p(a, p)
    sign = 1 if a > 0 else -1
    u = Fraction(sign) * Fraction(p) ** (-va)
    red = mat_mul(mat(u, 0, 0, 1 / u), red)
    a, b = red[0]
    c2 = red[1][1]
    t = val_p(c2, p)
    c_free = c2 / Fraction(p) ** t
    if c_free.denominator != 1 or c_free <= 0:
        raise Mismatch("Hermite corner is not a positive p-free integer")
    c0 = int(c_free)
    if c0 == 1:
        b_red = 0
    else:
        s = max(-val_p(b, p), 0) if b != 0 else 0
        beta = int(b * p ** s)
        b_red = beta * pow(p, -s, c0) % c0 if s else beta % c0
    return (int(a), b_red, c0, t)


def make_vertex_two_stage(p: int, k: int, u) -> TVertex:
    """The vertex (k, u mod p^k Z_p) in two stages: clear the prime-to-p
    part of u's denominator modulo p^(k+j), then reduce the p-power
    fraction modulo p^k."""
    u = Fraction(u)
    den = p_free(u.denominator, p)
    j = val_p(u.denominator, p)
    if den != 1:
        if k + j <= 0:
            return TVertex(k, Fraction(0))
        mod = p ** (k + j)
        num = u.numerator * pow(den, -1, mod) % mod
        u = Fraction(num, p ** j)
    if u == 0:
        return TVertex(k, Fraction(0))
    v = val_p(u, p)
    if v >= k:
        return TVertex(k, Fraction(0))
    j = max(0, -v)
    if k + j <= 0:
        return TVertex(k, Fraction(0))
    mod = p ** (k + j)
    num = int(u * p ** j) % mod
    return TVertex(k, Fraction(num, p ** j))


def pell4_scan(D: int, cap: int):
    """Minimal (t, u) with t^2 - D u^2 = 4 by a linear scan over u < cap;
    None when the scan does not finish."""
    for u in range(1, cap):
        t2 = 4 + D * u * u
        t = math.isqrt(t2)
        if t * t == t2:
            return t, u
    return None


def sl2zp_generators(p: int) -> list:
    """Generators of SL2(Z[1/p]): S, T and the p-scaling torus element."""
    return [mat(0, -1, 1, 0), mat(1, 1, 0, 1), mat(p, 0, 0, Fraction(1, p))]


def digit_ray_oracle(a: Fraction, p: int, R: int) -> list[TVertex]:
    """Digit-peeling oracle for p-integral boundary points: the ray is the
    sequence of truncations of the digit expansion."""
    a = Fraction(a)
    if a != 0 and val_p(a, p) < 0:
        raise ValueError("boundary point must be p-integral")
    out = []
    for m in range(R + 1):
        mod = p ** m
        if m == 0:
            out.append(make_vertex(p, 0, 0))
            continue
        num = a.numerator * pow(a.denominator, -1, mod) % mod
        out.append(make_vertex(p, m, num))
    return out


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


def brute_force_crossings(segment, base: QForm, p: int, levels: int) -> list:
    """Independent scan: all primitive forms with |A|, |B| <= 10 at each
    admissible discriminant, filtered by orbit membership and crossing;
    sorted (form, sign) pairs."""
    out = []
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
                if math.gcd(A, B, C) != 1:
                    continue
                f = QForm(A, B, C)
                if not orbit_equivalent(f, base, p):
                    continue
                sgn = cross_segment(segment, f)
                if sgn:
                    out.append((f, sgn))
    return sorted(out, key=lambda fs: fs[0].triple())


def brute_divisor(base: QForm, gamma, x0, p: int, levels: int) -> RMDivisor:
    """The crossing divisor of x0 -> gamma x0 by the |A|, |B| <= 10 scan."""
    segment = chain_segment(gamma, x0)
    if segment is None:
        return RMDivisor()
    return RMDivisor(dict(brute_force_crossings(segment, base, p, levels)))


def box_scan_crossings(seg, base: QForm, p: int, levels: int) -> list:
    """The segment's crossing orbit forms by a scan of its bounding box:
    a geodesic of discriminant d through z = x + iy has
    (2Ax + B)^2 + (2Ay)^2 = d, so |A| <= sqrt(d)/(2 y_min) and 2Ax + B lies
    in [-sqrt d, sqrt d] for some x in [x_lo, x_hi]; every (A, B) of that
    box is tested, in the enumerator's order, with its exact filters."""
    x_lo, x_hi = sorted([seg.z0.x, seg.z1.x])
    y_min = min(seg.z0.y, seg.z1.y)
    d0 = base.disc
    top_disc = d0 * p ** (2 * levels)
    out = []

    def scan_A(d, A):
        s = math.isqrt(d)
        vals = sorted([2 * A * x_lo, 2 * A * x_hi])
        b_lo = floor_exact(-s - vals[1]) - 1
        b_hi = floor_exact(s - vals[0]) + 2
        for B in range(b_lo + (b_lo - d) % 2, b_hi + 1, 2):
            num = B * B - d
            if num % (4 * A) != 0:
                continue
            C = num // (4 * A)
            if math.gcd(A, B, C) != 1:
                continue
            f = QForm(A, B, C)
            s0, s1 = side(f, seg.z0), side(f, seg.z1)
            if s0 != 0 and s0 == s1:
                continue
            if not in_orbit_component(f, base, p, top_disc):
                continue
            if s0 == 0 or s1 == 0:
                raise DegenerateEndpoint("segment endpoint on an orbit geodesic")
            out.append((f, (s1 - s0) // 2))

    for m in range(-levels, levels + 1):
        if m < 0:
            q = p ** (-2 * m)
            if d0 % q != 0:
                continue
            d = d0 // q
        else:
            d = d0 * p ** (2 * m)
        a = 1
        while quad_sign(Fraction(d, 4) - y_min * y_min * (a * a)) >= 0:
            scan_A(d, a)
            scan_A(d, -a)
            a += 1
    return sorted(out, key=lambda fs: fs[0].triple())


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


def scan_inner_sum(delta, seg, beta, gamma) -> int:
    """Sum over n of ez_cross(delta, seg, beta gamma^n) by a scan.

    The nonzero terms form one contiguous block (the translated segments
    slide monotonically along the geodesic), so the scan starts at 0,
    spirals outward to the first nonzero value within |n| <= 64 (0 when
    there is none), then walks both ways until two consecutive zeros flank
    the block."""
    powers = {0: IDENT}
    vals: dict[int, int] = {}

    def power(n: int):
        if n not in powers:
            step = gamma if n > 0 else mat_inv(gamma)
            powers[n] = mat_mul(power(n - 1 if n > 0 else n + 1), step)
        return powers[n]

    def val(n: int) -> int:
        if n not in vals:
            vals[n] = ez_cross(delta, seg, mat_mul(beta, power(n)))
        return vals[n]

    center = next((n for i in range(65) for n in (i, -i) if val(n) != 0), None)
    if center is None:
        return 0
    lo = hi = center
    while val(hi + 1) != 0 or val(hi + 2) != 0:
        hi += 1
    while val(lo - 1) != 0 or val(lo - 2) != 0:
        lo -= 1
    if any(val(n) == 0 for n in range(lo, hi + 1)):
        raise DegenerateConfiguration("crossing block not contiguous")
    return sum(val(n) for n in range(lo, hi + 1))


def _float_arc(seg, n: int) -> list[complex]:
    """n + 1 points along the segment's geodesic arc, in floating point."""
    z0 = complex(float(seg.z0.x), float(seg.z0.y))
    z1 = complex(float(seg.z1.x), float(seg.z1.y))
    if abs(z0.real - z1.real) < 1e-12:
        return [z0 + (z1 - z0) * (i / n) for i in range(n + 1)]
    c = (abs(z1) ** 2 - abs(z0) ** 2) / (2 * (z1.real - z0.real))
    a0, a1 = cmath.phase(z0 - c), cmath.phase(z1 - c)
    return [c + abs(z0 - c) * cmath.exp(1j * (a0 + (a1 - a0) * i / n)) for i in range(n + 1)]


def float_walk_crossing(seg1, seg2, n: int = 200) -> int:
    """Signed crossings of the two arcs walked as n-step float polylines,
    each signed by det(dir seg1, dir seg2): an oracle for ez_cross at the
    identity that shares no exact arithmetic with it."""
    ps, qs = _float_arc(seg1, n), _float_arc(seg2, n)
    total = 0
    for p, p2 in zip(ps, ps[1:]):
        for q, q2 in zip(qs, qs[1:]):
            d1, d2, e = p2 - p, q2 - q, q - p
            det = d1.real * d2.imag - d1.imag * d2.real
            if det == 0:
                continue
            s = (e.real * d2.imag - e.imag * d2.real) / det
            u = (e.real * d1.imag - e.imag * d1.real) / det
            if 0 <= s < 1 and 0 <= u < 1:
                total += 1 if det > 0 else -1
    return total


def mat_neg(m):
    return ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))


def tree_neighbor_count(n: int, p: int) -> int:
    """Lattice-count oracle: sublattices of index n (= sigma_1) and the
    p+1 tree neighbors for n = p."""
    if n == p:
        return p + 1
    return sigma1(n)


def mat_product(a: list[list], b: list[list]) -> list[list]:
    """Product of two matrices given as lists of rows."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def charpoly(a: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial coefficients [c0, ..., cn] of det(xI - A),
    via the Faddeev-LeVerrier recursion (exact over Q)."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = mat_product(a, m)
        c = -Fraction(sum(m[i][i] for i in range(n)), k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def rational_eigenvalues(a: list[list[Fraction]]) -> list[Fraction]:
    """All rational roots of the characteristic polynomial, with multiplicity."""
    coeffs = charpoly(a)
    # clear denominators to an integer polynomial
    den = math.lcm(*(c.denominator for c in coeffs))
    poly = [int(c * den) for c in coeffs]
    roots: list[Fraction] = []

    def eval_poly(p, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    def candidates(p):
        const = next((c for c in p if c != 0), None)
        if const is None:
            return [Fraction(0)]
        cands = {Fraction(0)}
        for r in divisors(abs(const.numerator)):
            for s in divisors(abs(p[-1].numerator)):
                cands.add(Fraction(r, s))
                cands.add(Fraction(-r, s))
        return cands

    while len(poly) > 1:
        root = next((x for x in candidates(poly) if eval_poly(poly, x) == 0), None)
        if root is None:
            break
        roots.append(root)
        # synthetic division by (x - root)
        out = [Fraction(0)] * (len(poly) - 1)
        acc = Fraction(0)
        for i in range(len(poly) - 1, 0, -1):
            acc = poly[i] + acc * root
            out[i - 1] = acc
        rem = poly[0] + acc * root
        if rem != 0:
            raise Mismatch("synthetic division left a remainder")
        poly = out
    return roots
