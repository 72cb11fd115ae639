"""RM points: roots of indefinite integral binary quadratic forms.

A point is identified with its primitive form (A, B, C); the distinguished
root is (-B + sqrt(disc)) / (2A) and the Galois conjugate uses -sqrt(disc).
The module computes automorphs over SL2(Z[1/p]), the eigenvalue map
lambda, and orbit equivalence across discriminants disc * p^(2m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DoesNotStabilize, Mismatch, NotRM
from .exact import QuadIrr, is_square_int, kronecker, p_free, quad_sign, square_core, val_p
from .mat2 import (
    Mat,
    mat,
    mat_adj,
    mat_det,
    mat_inv,
    mat_mul,
    mat_scale,
    moebius_quadirr,
    primitive_integral,
    pull_back,
)


class QForm:
    """Primitive integral indefinite binary quadratic form A x^2 + B xy + C y^2."""

    __slots__ = ("A", "B", "C", "disc")

    def __init__(self, A: int, B: int, C: int):
        if A == 0:
            raise ValueError("A must be nonzero")
        if math.gcd(math.gcd(abs(A), abs(B)), abs(C)) != 1:
            raise ValueError("form must be primitive")
        disc = B * B - 4 * A * C
        if disc <= 0 or is_square_int(disc):
            raise ValueError("discriminant must be positive and not a square")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "disc", disc)

    def __setattr__(self, *args):
        raise AttributeError("QForm is immutable")

    def triple(self) -> tuple[int, int, int]:
        return (self.A, self.B, self.C)

    def root(self) -> QuadIrr:
        return QuadIrr(Fraction(-self.B, 2 * self.A), Fraction(1, 2 * self.A), self.disc)

    def conj_root(self) -> QuadIrr:
        return QuadIrr(Fraction(-self.B, 2 * self.A), Fraction(-1, 2 * self.A), self.disc)

    def __neg__(self) -> "QForm":
        return QForm(-self.A, -self.B, -self.C)

    def __eq__(self, other):
        return isinstance(other, QForm) and self.triple() == other.triple()

    def __hash__(self):
        return hash(self.triple())

    def __repr__(self):
        return f"QForm{self.triple()}"

    def to_json(self):
        return {"A": self.A, "B": self.B, "C": self.C, "disc": self.disc,
                "root": f"({-self.B}+sqrt({self.disc}))/({2 * self.A})"}

    @staticmethod
    def parse(text: str) -> "QForm":
        parts = [int(t) for t in text.split(",")]
        if len(parts) != 3:
            raise ValueError("expected 'A,B,C'")
        return QForm(*parts)


@dataclass(frozen=True)
class Automorph:
    gamma: Mat
    eps: QuadIrr


def is_rm_for(form: QForm, p: int) -> bool:
    """True iff p is non-split in Q(sqrt disc): Kronecker (d_K/p) != 1 for
    the field's fundamental discriminant d_K (the conductor plays no part)."""
    return kronecker(conductor(form.disc)[0], p) != 1


def _require_rm(form: QForm, p: int) -> None:
    if not is_rm_for(form, p):
        raise NotRM(f"p={p} splits in the field of disc {form.disc}")


# ---------------------------------------------------------------------------
# transforms and reduction


def form_mover(g: Mat):
    """f -> form_apply(g, f), with g's primitive integral adjugate computed
    once for every form it moves."""
    if mat_det(g) <= 0:
        raise ValueError("determinant must be positive")
    a, b, c, d = primitive_integral(g)
    adj = mat_adj(((a, b), (c, d)))

    def move(f: QForm) -> QForm:
        A, B, C = pull_back(f.triple(), adj)
        g0 = math.gcd(A, B, C)
        return QForm(A // g0, B // g0, C // g0)
    return move


def form_apply(g: Mat, f: QForm) -> QForm:
    """The primitive form whose distinguished root is g . root(f), for
    g in GL2(Q) with positive determinant."""
    return form_mover(g)(f)


def _is_reduced(f: QForm) -> bool:
    # |sqrt(D) - 2|A|| < B < sqrt(D), decided with floor(sqrt(D)) = s
    s = math.isqrt(f.disc)
    return 0 < f.B <= s and f.B + 2 * abs(f.A) > s and 2 * abs(f.A) - f.B <= s


def _rho(f: QForm) -> tuple[QForm, int]:
    """One reduction step; returns (new form, t) with root(new) = T^-1 root(f)
    for T = (0, -1; 1, t).

    The residue r = -B mod 2|C| is taken in (sqrt(D) - 2|C|, sqrt(D)) when
    |C| < sqrt(D), and absolutely least otherwise (standard indefinite
    reduction; the second branch is what drives far-out forms inward).
    """
    A, B, C = f.triple()
    s = math.isqrt(f.disc)
    ac = abs(C)
    if ac <= s:
        # largest B2 <= s with B2 = -B mod 2|C|
        B2 = -B + 2 * ac * ((s + B) // (2 * ac))
    else:
        # absolutely least residue: -|C| < B2 <= |C|
        B2 = (-B) % (2 * ac)
        if B2 > ac:
            B2 -= 2 * ac
    t = (B2 + B) // (2 * C)
    C2 = (B2 * B2 - f.disc) // (4 * C)
    g = math.gcd(math.gcd(abs(C), abs(B2)), abs(C2))
    return QForm(C // g, B2 // g, C2 // g), t


def _reduction_walk(f: QForm) -> tuple[list[QForm], list[int], int]:
    """The forms rho visits from f into its cycle of reduced forms and once
    round it (the last equals the one at the returned start index), with
    the integer step t taken out of each.

    rho maps reduced forms bijectively around the cycle, so the first
    reduced form reached already lies on it."""
    forms, steps = [f], []
    guard = 4 * f.disc + 64
    while not _is_reduced(forms[-1]):
        nxt, t = _rho(forms[-1])
        forms.append(nxt)
        steps.append(t)
        guard -= 1
        if guard < 0:  # pragma: no cover
            raise Mismatch("reduction did not terminate")
    start = len(steps)
    while True:
        nxt, t = _rho(forms[-1])
        forms.append(nxt)
        steps.append(t)
        if nxt == forms[start]:
            return forms, steps, start


def reduced_cycle(f: QForm) -> list[QForm]:
    """The cycle of reduced forms equivalent to f."""
    forms, _, start = _reduction_walk(f)
    return forms[start:-1]


_CLASS_KEY_CACHE: dict[tuple[int, int, int], tuple[int, int, int]] = {}


def class_key(f: QForm) -> tuple[int, int, int]:
    """Canonical representative (minimal triple) of the proper equivalence
    class of f; syntactic key for SL2(Z)-equivalence of oriented roots."""
    t = f.triple()
    hit = _CLASS_KEY_CACHE.get(t)
    if hit is not None:
        return hit
    cyc = reduced_cycle(f)
    key = min(g.triple() for g in cyc)
    for g in cyc:
        _CLASS_KEY_CACHE[g.triple()] = key
    _CLASS_KEY_CACHE[t] = key
    return key


def class_witness(f: QForm, target_triple: tuple[int, int, int]) -> Mat:
    """A matrix w in SL2(Z) with w . root(f) = root of the member of f's
    reduced cycle with the given triple: the inverse steps (t, 1; -1, 0)
    of the walk up to that member, composed."""
    forms, steps, start = _reduction_walk(f)
    for j in range(start, len(steps)):
        if forms[j].triple() == target_triple:
            a, b, c, d = 1, 0, 0, 1
            for t in steps[:j]:
                a, b, c, d = t * a + c, t * b + d, -a, -b
            return mat(a, b, c, d)
    raise Mismatch("target not in cycle")


# ---------------------------------------------------------------------------
# automorphs


def pell4_fundamental(D: int) -> tuple[int, int]:
    """Minimal (t, u) with t, u > 0 and t^2 - D u^2 = 4.

    root(f) = T . root(rho f) for each reduction step, so the product
    M = T1 T2 ... Tk of the steps once around the reduced cycle fixes the
    root of the reduced form (A, B, C) where the cycle starts, and generates
    its stabilizer in SL2(Z) up to sign (Cohen, GTM 138, 5.7): M is
    +-((t - Bu)/2, -Cu; Au, (t + Bu)/2)^(+-1) for the fundamental solution.
    """
    forms, steps, start = _reduction_walk(form_of_disc(D))
    a, b, c, d = 1, 0, 0, 1
    for t in steps[start:]:
        a, b, c, d = b, t * b - a, d, t * d - c
    return abs(a + d), abs(c // forms[start].A)


def conductor(disc: int) -> tuple[int, int]:
    """disc = f^2 * d_K with d_K the fundamental discriminant; returns (d_K, f)."""
    core, m = square_core(disc)
    if core % 4 == 1:
        return core, m
    # core = 2,3 mod 4: fundamental discriminant is 4*core
    if m % 2 != 0:
        raise ValueError(f"{disc} is not a discriminant")
    return 4 * core, m // 2


def automorph(form: QForm, p: int) -> Automorph:
    """Generator (mod +-1) of the stabilizer of root(form) in SL2(Z[1/p])
    whose eigenvalue on (root, 1) exceeds 1.

    Since p is non-split, the norm-one units of the Z[1/p]-order are those
    of the Z-order with the p-part stripped from the conductor; the Pell
    equation is solved there and the solution rescaled.
    """
    _require_rm(form, p)
    D = form.disc
    _, f = conductor(D)
    a = val_p(f, p) if f % p == 0 else 0
    D_eff = D // p ** (2 * a)
    t, u = pell4_fundamental(D_eff)
    U = Fraction(u, p ** a)  # u * sqrt(D_eff) = U * sqrt(D)
    A, B, C = form.triple()
    gamma = mat(Fraction(t - B * U, 2), -C * U, A * U, Fraction(t + B * U, 2))
    if mat_det(gamma) != 1:
        raise Mismatch("automorph determinant is not 1")
    eps = QuadIrr(Fraction(t, 2), U / 2, D)
    if quad_sign(eps - 1) <= 0:
        raise Mismatch("automorph eigenvalue does not exceed 1")
    w = form.root()
    if moebius_quadirr(gamma, w) != w:
        raise Mismatch("automorph does not fix the root")
    return Automorph(gamma, eps)


def lambda_of(gamma: Mat, form: QForm) -> QuadIrr:
    """Eigenvalue of gamma on the column (root, 1); gamma must fix the root."""
    w = form.root()
    if moebius_quadirr(gamma, w) != w:
        raise DoesNotStabilize("matrix does not fix the point")
    return w * gamma[1][0] + gamma[1][1]


# ---------------------------------------------------------------------------
# orbit equivalence over SL2(Z[1/p])


def _neighbor_moves(p: int) -> list[Mat]:
    return [mat(1, j, 0, p) for j in range(p)] + [mat(p, 0, 0, 1)]


def _orbit_bfs(f: QForm, p: int, disc_cap: int):
    """BFS over (class key, path parity) nodes via determinant-p moves,
    exploring the whole component of discriminants <= disc_cap.

    Returns (visited, parents): parents maps a node to (parent node, move).
    Witnesses are reconstructed lazily by _orbit_witness.
    """
    start = (class_key(f), 0)
    visited = {start}
    parents: dict = {start: None}
    frontier = [start]
    moves = _neighbor_moves(p)
    while frontier:
        new_frontier = []
        for key, parity in frontier:
            g = QForm(*key)
            for mv in moves:
                h = form_apply(mv, g)
                if h.disc > disc_cap:
                    continue
                node = (class_key(h), 1 - parity)
                if node in visited:
                    continue
                visited.add(node)
                parents[node] = ((key, parity), mv)
                new_frontier.append(node)
        frontier = new_frontier
    return visited, parents


_ORBIT_CACHE: dict[tuple[tuple[int, int, int], int, int], tuple[set, dict]] = {}


def _orbit_component(f: QForm, p: int, top_disc: int) -> tuple[set, dict]:
    """_orbit_bfs of f under the cap top_disc, cached per (class key, p,
    cap).

    The BFS reads nothing of f but its class key; _orbit_witness adds the
    f-specific matrix.  By the argument in orbit_equivalent, membership
    read off the component is exact for every form of discriminant at
    most top_disc.
    """
    key = (class_key(f), p, top_disc)
    hit = _ORBIT_CACHE.get(key)
    if hit is None:
        hit = _ORBIT_CACHE[key] = _orbit_bfs(f, p, top_disc)
    return hit


def in_orbit_component(f: QForm, base: QForm, p: int, top_disc: int) -> bool:
    """True iff f's root lies in the SL2(Z[1/p]) orbit of base's root, read
    off base's cached component; exact when top_disc >= f.disc, base.disc."""
    return (class_key(f), 0) in _orbit_component(base, p, top_disc)[0]


def _orbit_witness(f: QForm, parents: dict, node) -> Mat:
    """Matrix w with w . root(f) = root(key form of node), det w = p^length."""
    chain = []
    cur = node
    while parents[cur] is not None:
        parent, mv = parents[cur]
        chain.append((parent, mv, cur))
        cur = parent
    chain.reverse()
    w = class_witness(f, cur[0])
    form = QForm(*cur[0])
    for parent, mv, child in chain:
        h = form_apply(mv, form)
        w = mat_mul(class_witness(h, child[0]), mat_mul(mv, w))
        form = QForm(*child[0])
    return w


def _bfs_conjugator(f1: QForm, f2: QForm, p: int) -> Mat | None:
    """gamma in SL2(Z[1/p]) with gamma . root(f1) = root(f2), read off the
    class-key BFS path to f2's class at even parity; None when the BFS
    does not reach it.  The matrix is verified exactly before it is
    returned."""
    target = (class_key(f2), 0)
    visited, parents = _orbit_component(f1, p, max(f1.disc, f2.disc))
    if target not in visited:
        return None
    w = _orbit_witness(f1, parents, target)
    w2 = class_witness(f2, target[0])  # root(keyform) = w2 . root(f2)
    full = mat_mul(mat_inv(w2), w)
    k, odd = divmod(val_p(mat_det(full), p), 2)
    gamma = mat_scale(full, Fraction(p) ** -k)
    if odd or mat_det(gamma) != 1:
        raise Mismatch("witness determinant is not an even power of p")
    if moebius_quadirr(gamma, f1.root()) != f2.root():
        raise Mismatch("BFS witness failed exact verification")
    return gamma


def orbit_equivalent(f1: QForm, f2: QForm, p: int) -> bool:
    """True iff the roots lie in one SL2(Z[1/p]) orbit.

    Necessary condition: disc ratio is an even power of p.  The decision
    runs a class-key BFS over determinant-p moves (with path parity, which
    is the det-valuation obstruction) and verifies the witness matrix of
    every positive answer exactly.

    The BFS is complete.  Fix w1 = root(f1) and move the lattice instead:
    a determinant-p move steps to a neighbouring vertex of the
    Bruhat-Tits tree of PGL2(Q_p), and since p is non-split the form seen
    at a vertex v has discriminant d p^(2 dist(v, F)), where F is the
    vertex or edge fixed by the local torus of Q(sqrt disc) and d is
    p-free in its conductor.  Distance to a subtree is convex along tree
    geodesics, so the geodesic from f1's vertex to a vertex carrying
    f2's root peaks at one of its ends, i.e. at discriminant
    max(d1, d2).  Its length has the parity of val_p det(p^j gamma) = 2j,
    and its image among SL2(Z)-classes is a BFS path.  The cap of
    _orbit_component, max(d1, d2), contains that path, so a negative
    answer is exact.
    """
    _require_rm(f1, p)
    _require_rm(f2, p)
    if f1 == f2:
        return True
    d1, d2 = f1.disc, f2.disc
    ratio, rem = divmod(max(d1, d2), min(d1, d2))
    if rem or p_free(ratio, p) != 1 or val_p(ratio, p) % 2:
        return False
    return _bfs_conjugator(f1, f2, p) is not None


def orbit_conjugator(f1: QForm, f2: QForm, p: int) -> Mat:
    """A matrix gamma in SL2(Z[1/p]) with gamma . root(f1) = root(f2)."""
    _require_rm(f1, p)
    _require_rm(f2, p)
    d1, d2 = f1.disc, f2.disc
    big, small = max(d1, d2), min(d1, d2)
    if big % small != 0:
        raise NotRM("roots are in different orbits (disc ratio)")
    gamma = _bfs_conjugator(f1, f2, p)
    if gamma is None:
        raise Mismatch("no conjugator found; points not equivalent")
    return gamma


def rm_discs_up_to(bound: int, p: int) -> list[int]:
    """All positive non-square discriminants <= bound with p non-split in
    their field."""
    return [d for d in range(2, bound + 1) if d % 4 in (0, 1) and not is_square_int(d)
            and kronecker(conductor(d)[0], p) != 1]


def form_of_disc(d: int) -> QForm:
    """A primitive form of discriminant d (principal-type representative)."""
    if d % 4 in (2, 3):
        raise ValueError(f"{d} is not a discriminant")
    if d % 4 == 0:
        return QForm(1, 0, -d // 4)
    return QForm(1, 1, (1 - d) // 4)
