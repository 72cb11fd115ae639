"""Hecke double cosets for SL2(Z[1/p]) inside M2(Z[1/p]) and their actions.

Right cosets carry a canonical Hermite-style key over Z[1/p] (p is a unit,
so upper-triangular representatives have p-free diagonal entries and the
translation part is reduced modulo the p-free part of the lower corner).
Double cosets are keyed by the Z[1/p]-elementary divisors plus the p-adic
valuation of the determinant.

Over this group the p-part of the algebra is degenerate: reduced-norm p
elements form a single right coset, and scaling by p identifies T(p,p)
with the determinant-p^2 coset, which is what relation (c) expresses.
The familiar p+1 representatives survive as the lattice neighbors of the
standard vertex; coset_reps_Tn returns them for n = p with inequivalence
checked at the SL2(Z) level, for consumption by the tree module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cocycles import RMDivisor, RQDivisor, SignedSum, dv_value_on_segment, \
    ChainSquare, d1_candidates, _folded_pairing
from .errors import Mismatch
from .exact import divisors, p_free, sigma1, val_p, xgcd
from .hyperbolic import GSegment, ez_cross  # noqa: F401 - perfbench rebinds hecke.ez_cross
from .mat2 import (
    Mat,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    p_exponent,
)
from .rmpoints import QForm

# ---------------------------------------------------------------------------
# canonical coset keys


def right_coset_key(g: Mat, p: int):
    """Canonical key (a, b, c0, t) of the left coset SL2(Z[1/p]) * g, for
    g in M2(Z[1/p]) with positive determinant, computed on the integral
    matrix m = p^k g, p^k the common denominator: an integer row operation of
    determinant one clears m's lower-left entry, leaving (A, B; 0, D), and
    diag(u, 1/u) with u = +-p^j makes the upper-left entry a = |A| p^-v_p(A)
    positive and p-free.  Then g's corner is c0 p^t with c0 = p_free(D),
    and b is the upper-right entry reduced modulo c0 Z[1/p] (0 when c0 = 1)."""
    if mat_det(g) <= 0:
        raise ValueError("positive determinant required")
    den, k = math.lcm(*(e.denominator for row in g for e in row)), 0
    while den % p == 0:
        den, k = den // p, k + 1
    if den != 1:
        raise ValueError("matrix entries must lie in Z[1/p]")
    x, b, y, d = (e.numerator * (p ** k // e.denominator) for row in g for e in row)
    if y:
        e, u, v = xgcd(x, y)  # (u, v; -y/e, x/e) clears y
        x, b, d = e, u * b + v * d, (x * d - y * b) // e
    va = val_p(x, p)
    c0 = p_free(d, p)
    t = val_p(d, p) + va - 2 * k
    b_red = 0 if c0 == 1 else (1 if x > 0 else -1) * b * pow(p, -va, c0) % c0
    return (p_free(x, p), b_red, c0, t)


def key_to_matrix(key, p: int) -> Mat:
    a, b, c0, t = key
    return mat(a, b, 0, c0 * Fraction(p) ** t)


def _integral(key, p: int):
    """(m, j): the key's matrix times p^j, integral, for the least j >= 0."""
    a, b, c0, t = key
    j = max(0, -t)
    s = p ** j
    return ((a * s, b * s), (0, c0 * p ** (t + j))), j


def _key_label(key):
    """(e1, e2, t) of the key's double coset: its p-free elementary divisors
    over Z[1/p] are the content gcd(a, b, c0) (p-free because a is) and
    a c0 over it, and t = val_p(det)."""
    a, b, c0, t = key
    e1 = math.gcd(a, b, c0)
    return (e1, a * c0 // e1, t)


def double_coset_label(g: Mat, p: int):
    """(e1, e2, t): p-free elementary divisors over Z[1/p] and val_p(det).
    The double coset contains g's right coset, so its label is the key's."""
    return _key_label(right_coset_key(g, p))


# ---------------------------------------------------------------------------
# coset lists


@dataclass(frozen=True)
class CosetList:
    reps: tuple[Mat, ...]
    n: int
    p: int
    gamma_level: str  # "zp" for genuine SL2(Z[1/p]) cosets, "z" for lattice reps

    def to_json(self):
        return {"n": self.n, "p": self.p, "level": self.gamma_level,
                "reps": [[[str(e) for e in row] for row in g] for g in self.reps]}


def coset_reps_Tn(n: int, p: int) -> CosetList:
    """Right-coset representatives for the reduced-norm-n Hecke symbol.

    gcd(n, p) = 1: the sigma_1(n) upper-triangular matrices, which stay
    pairwise inequivalent over SL2(Z[1/p]): the Hermite keys of T_n's
    double cosets, in sorted key order.  n = p: the p+1 lattice
    neighbors (SL2(Z)-level data; over SL2(Z[1/p]) they collapse to the
    single coset of diag(1, p)).  Composite p | n: assembled from the
    coprime part and the p-power part via the algebra relations.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if math.gcd(n, p) == 1:
        keys = sorted(k for lbl in HeckeElt.Tn(n, p).terms for k in _coset_keys(lbl, p))
        out = CosetList(tuple(key_to_matrix(k, p) for k in keys), n, p, "zp")
        _check_pairwise(out)
        if len(keys) != sigma1(n):
            raise Mismatch("coset count differs from sigma_1(n)")
        return out
    if n == p:
        reps = [mat(1, b, 0, p) for b in range(p)] + [mat(p, 0, 0, 1)]
        return CosetList(tuple(reps), n, p, "z")
    # composite with p | n: T_n = T_{n0} * T_{p^e}; over this group the
    # p-power part contributes the single coset of diag(1, p)^e
    base = coset_reps_Tn(p_free(n, p), p)
    pe = mat(1, 0, 0, p ** val_p(n, p))
    reps = tuple(mat_mul(a, pe) for a in base.reps)
    out = CosetList(reps, n, p, "zp")
    _check_pairwise(out)
    return out


def _check_pairwise(cl: CosetList) -> None:
    # distinct canonical right-coset keys certify pairwise inequivalence
    keys = {right_coset_key(g, cl.p) for g in cl.reps}
    if len(keys) != len(cl.reps):
        raise Mismatch("coset representatives are not pairwise inequivalent")


# ---------------------------------------------------------------------------
# the Hecke algebra


class HeckeElt(SignedSum):
    """Finite integer combination of double cosets, keyed by
    (e1, e2, val_p det), at the prime p."""

    __slots__ = ("p",)

    def __init__(self, terms, p: int):
        super().__init__(terms)
        object.__setattr__(self, "p", p)

    @property
    def terms(self) -> dict:
        return self.entries

    def _like(self, pairs) -> "HeckeElt":
        return HeckeElt(pairs, self.p)

    @staticmethod
    def Tn(n: int, p: int) -> "HeckeElt":
        """The reduced-norm-n operator: sum of the double cosets of O_n."""
        n0, e = p_free(n, p), val_p(n, p)
        return HeckeElt((((e1, n0 // e1, e), 1) for e1 in divisors(n0)
                         if (n0 // e1) % e1 == 0), p)

    @staticmethod
    def T_scalar(l: int, p: int) -> "HeckeElt":
        """T(l, l) = Gamma . l . Gamma."""
        lbl = double_coset_label(mat(l, 0, 0, l), p)
        return HeckeElt({lbl: 1}, p)

    @staticmethod
    def one(p: int) -> "HeckeElt":
        return HeckeElt({(1, 1, 0): 1}, p)

    def __eq__(self, other):
        return super().__eq__(other) and self.p == other.p

    def __repr__(self):
        items = sorted(self.terms.items())
        return "HeckeElt(" + " + ".join(f"{c}*T{k}" for k, c in items) + ")"


_COSET_CACHE: dict = {}


def _coset_keys(label, p: int) -> list:
    """The right-coset keys of one double coset, in sorted order, cached.

    The cosets of diag(e1, e2 p^t) are exactly the Hermite keys
    (a, b, c0, t) of right_coset_key with a c0 = e1 e2, 0 <= b < c0 and
    content gcd(a, b, c0) = e1; ascending a, then b, is sorted key order."""
    key = (label, p)
    if key in _COSET_CACHE:
        return _COSET_CACHE[key]
    e1, e2, t = label
    if e1 < 1 or e2 % e1 or p_free(e2, p) != e2:
        raise ValueError(f"{label} is not a double-coset label at p = {p}")
    n = e1 * e2
    out = [(a, b, n // a, t) for a in divisors(n)
           for b in range(n // a) if math.gcd(a, b, n // a) == e1]
    _COSET_CACHE[key] = out
    return out


def cosets_of_label(label, p: int) -> list[Mat]:
    """Right-coset representatives of one double coset, in key order: the
    matrices of its Hermite keys."""
    return [key_to_matrix(k, p) for k in _coset_keys(label, p)]


def hecke_mul(s: HeckeElt, t: HeckeElt) -> HeckeElt:
    """Product in the double-coset algebra: expand on right cosets,
    re-collect, and certify that multiplicities are constant along each
    double coset.  Cosets multiply as the integral matrices p^j times their
    keys' matrices, and scaling a matrix by p^j adds 2j to its key's t."""
    if s.p != t.p:
        raise ValueError("Hecke elements at different primes")
    p = s.p
    out = []
    for ls, cs in s.terms.items():
        alphas = [_integral(k, p) for k in _coset_keys(ls, p)]
        for lt, ct in t.terms.items():
            betas = [_integral(k, p) for k in _coset_keys(lt, p)]
            counter: dict = {}
            for ma, ja in alphas:
                for mb, jb in betas:
                    a, b, c0, e = right_coset_key(mat_mul(ma, mb), p)
                    k = (a, b, c0, e - 2 * (ja + jb))
                    counter[k] = counter.get(k, 0) + 1
            # group by double coset and check constancy
            by_label: dict = {}
            for k, cnt in counter.items():
                by_label.setdefault(_key_label(k), []).append((k, cnt))
            for lbl, pairs in by_label.items():
                counts = {cnt for _, cnt in pairs}
                if len(counts) != 1:
                    raise Mismatch(f"non-constant multiplicity on {lbl}")
                if len(_coset_keys(lbl, p)) != len(pairs):
                    raise Mismatch(f"double coset {lbl} only partially covered")
                out.append((lbl, cs * ct * counts.pop()))
    return HeckeElt(out, p)


# ---------------------------------------------------------------------------
# actions on divisor-valued cocycles


def act_on_dv(t: HeckeElt, base: QForm, segment: GSegment | None, p: int,
              levels: int) -> RMDivisor:
    """Value of the Hecke-translated one-variable cocycle on the chain:
    sum over right cosets alpha of alpha^{-1} . (value on alpha . chain)."""
    if segment is None:
        return RMDivisor()
    total = RMDivisor()
    for lbl, coeff in t.terms.items():
        for alpha in cosets_of_label(lbl, p):
            moved = segment.transported(alpha)
            ainv = mat_inv(alpha)
            ext = 2 * p_exponent(ainv, p)
            val = dv_value_on_segment(base, moved, p, levels + ext)
            total = total + val.act(ainv).scale(coeff)
    return total.restrict_levels(base.disc, p, levels)


def kudla_millson(n: int, chain: ChainSquare, p: int, radius: int) -> RQDivisor:
    """The reduced-norm-n two-variable divisor value on the chain, by direct
    enumeration of the primitive integral labels of determinant n p^(2k).

    p-power parts are handled by scaling: determinant p^2 elements are p
    times group elements, so they relabel trivially and reduce to the
    coprime part (gcd(n, p) = 1 is required here; even p-powers reduce to
    it, odd ones act through the norm-p coset).
    """
    if math.gcd(n, p) != 1:
        raise ValueError("kudla_millson expects gcd(n, p) = 1; "
                         "p-powers reduce via the scalar relation")
    return _folded_pairing(chain, d1_candidates(chain.seg1, chain.seg2, p, radius,
                                                det_prime_part=n))
