"""Small exact linear algebra over Fraction or QuadIrr entries.

Every routine works for any field-like entries supporting +, -, *, /
and equality with 0; no pivoting heuristics are needed since all
arithmetic is exact.
"""

from __future__ import annotations


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
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
    one = zero + 1
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


def mat_vec(a: list[list], v: list) -> list:
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]
