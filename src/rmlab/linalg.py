"""Small exact linear algebra over Fraction or QuadIrr entries.

Every routine works for any field-like entries supporting +, -, *, /
and equality with 0; no pivoting heuristics are needed since all
arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Mismatch
from .exact import divisors


def _is_zero(x) -> bool:
    return x == 0


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not _is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows: list[list]) -> list[list]:
    """Basis of the right kernel, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero = rows[0][0] * 0
    one = zero + 1 if not isinstance(rows[0][0], Fraction) else Fraction(1)
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def solve(rows: list[list], rhs: list):
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return []
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    zero = rows[0][0] * 0
    x = [zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a: list[list], v: list) -> list:
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def charpoly(a: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial coefficients [c0, ..., cn] of det(xI - A),
    via the Faddeev-LeVerrier recursion (exact over Q)."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -Fraction(sum(m[i][i] for i in range(n)), k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def rational_eigenvalues(a: list[list[Fraction]]) -> list[Fraction]:
    """All rational roots of the characteristic polynomial, with multiplicity."""
    coeffs = charpoly(a)
    # clear denominators to an integer polynomial
    den = 1
    for c in coeffs:
        den = den * c.denominator // __import__("math").gcd(den, c.denominator)
    ic = [int(c * den) for c in coeffs]
    roots: list[Fraction] = []
    poly = ic[:]

    def eval_poly(p, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    def candidates(p):
        lead = p[-1]
        const = next((c for c in p if c != 0), None)
        if const is None:
            return [Fraction(0)]
        cands = {Fraction(0)}
        for r in divisors(abs(const.numerator)):
            for s in divisors(abs(lead.numerator)):
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

