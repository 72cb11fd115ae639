"""Shared brute-force oracles for the test suite."""

import math
from fractions import Fraction

from rmlab.cocycles import RMDivisor, chain_segment
from rmlab.hecke import key_to_matrix, right_coset_key
from rmlab.hyperbolic import OrientedGeodesic, cross_segment
from rmlab.mat2 import mat, mat_inv, mat_mul, sl2zp_generators
from rmlab.rmpoints import QForm, orbit_equivalent


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
