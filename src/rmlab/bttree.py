"""The Bruhat-Tits tree of PGL2(Q_p): vertices, rays, residues, cochains.

Vertices are homothety classes of Z_p-lattices in Q_p^2, written in the
normal form (k, u): the class of the lattice spanned by (p^k, 0) and
(u, 1), with u a p-power-denominator rational reduced mod p^k.  The
standard vertex is (0, 0); moving to (k-1, u mod p^(k-1)) is the step
toward the end at infinity.

Boundary points are exact rationals, the infinity sentinel, or truncated
approximations carrying an absolute precision; walking a ray deeper than
the precision raises PrecisionExhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Mismatch, PrecisionExhausted
from .exact import p_free, val_p
from .mat2 import Mat, mat, mat_det, mat_mul

INFINITY = object()  # the boundary point at infinity


@dataclass(frozen=True)
class QpApprox:
    """A boundary point known only modulo p^abs_prec."""

    value: Fraction
    abs_prec: int


def _as_point(a):
    if a is INFINITY or isinstance(a, QpApprox):
        return a
    return Fraction(a)


class TVertex:
    """Normal form (k, u) for a lattice class; hashable and unique."""

    __slots__ = ("k", "u")

    def __init__(self, k: int, u):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "u", Fraction(u))

    def __setattr__(self, *args):
        raise AttributeError("TVertex is immutable")

    def __eq__(self, other):
        return isinstance(other, TVertex) and (self.k, self.u) == (other.k, other.u)

    def __hash__(self):
        return hash((self.k, self.u))

    def __repr__(self):
        return f"TVertex({self.k}, {self.u})"


def make_vertex(p: int, k: int, u) -> TVertex:
    """Canonical vertex: u reduced modulo p^k Z_p."""
    u = Fraction(u)
    den = p_free(u.denominator, p)
    j = val_p(u.denominator, p)
    if den != 1:
        # prime-to-p denominators are p-adic units: clear them modulo p^(k+j)
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


STANDARD = TVertex(0, Fraction(0))


def vertex_matrix(v: TVertex, p: int) -> Mat:
    return mat(Fraction(p) ** v.k, v.u, 0, 1)


def vertex_of_columns(cols, p: int) -> TVertex:
    """Normal form of the class of the Z_p-span of a list of columns of
    rank two (local Hermite reduction)."""
    cols = [(Fraction(x), Fraction(y)) for x, y in cols]
    with_y = [c for c in cols if c[1] != 0]
    if not with_y:
        raise ValueError("columns do not span a lattice")
    piv = min(with_y, key=lambda c: val_p(c[1], p))
    t = val_p(piv[1], p)
    w = piv[0] / piv[1]
    xs = []
    for c in cols:
        if c is piv:
            continue
        # eliminate the second coordinate with a Z_p coefficient
        xr = c[0] - c[1] * w
        if xr != 0:
            xs.append(xr)
    if not xs:
        raise ValueError("columns do not span a lattice")
    k = min(val_p(x, p) for x in xs) - t
    return make_vertex(p, k, w)


def neighbors(v: TVertex, p: int) -> list[TVertex]:
    out = [make_vertex(p, v.k - 1, v.u)]
    for t in range(p):
        out.append(make_vertex(p, v.k + 1, v.u + t * Fraction(p) ** v.k))
    return out


def tree_path(v: TVertex, w: TVertex, p: int) -> list[TVertex]:
    """The geodesic vertex path from v to w (inclusive).

    The rays from v and w toward infinity pass through (j, u mod p^j) for
    j <= k and first meet at level m = min(k_v, k_w, val_p(u_v - u_w)):
    walk up from v to level m, then down to w."""
    m = min(v.k, w.k)
    if v.u != w.u:
        m = min(m, val_p(v.u - w.u, p))
    return ([make_vertex(p, j, v.u) for j in range(v.k, m - 1, -1)]
            + [make_vertex(p, j, w.u) for j in range(m + 1, w.k + 1)])


def tree_distance(v: TVertex, w: TVertex, p: int) -> int:
    return len(tree_path(v, w, p)) - 1


def vertex_parity(v: TVertex) -> int:
    """Distance parity from the standard vertex (the two vertex orbits)."""
    return v.k & 1


def act_vertex(g: Mat, v: TVertex, p: int) -> TVertex:
    m = mat_mul(g, vertex_matrix(v, p))
    return vertex_of_columns([(m[0][0], m[1][0]), (m[0][1], m[1][1])], p)


def vertex_witness(v: TVertex, p: int) -> Mat:
    """An element of SL2(Z[1/p]) carrying the standard vertex (even k) or
    its neighbor (1, 0) (odd k) to v."""
    k, u = v.k, v.u
    m = vertex_matrix(v, p)
    if k % 2 == 0:
        s = Fraction(p) ** (-(k // 2))
        g = mat_mul(m, mat(s, 0, 0, s))
    else:
        # target v1 = (1, 0): v = g . v1 with g = M . M1^-1 . p^-(k-1)/2
        s = Fraction(p) ** (-((k - 1) // 2))
        g = mat_mul(m, mat(s / p, 0, 0, s))
    if mat_det(g) != 1:
        raise Mismatch("vertex transporter determinant is not 1")
    return g


# ---------------------------------------------------------------------------
# rays and point reduction


def reduce_point(a, p: int, R: int) -> list[TVertex]:
    """First R + 1 vertices (from the standard one) of the ray toward a."""
    if isinstance(a, QpApprox):
        ray = reduce_point(a.value, p, min(R, max(a.abs_prec, 0)))
        if len(ray) < R + 1:
            raise PrecisionExhausted(
                f"ray depth {R} exceeds the known precision {a.abs_prec}")
        return ray
    pt = _as_point(a)
    out = [STANDARD]
    for _ in range(R):
        out.append(next_toward(out[-1], pt, p))
    return out


# ---------------------------------------------------------------------------
# edges, residues, harmonic cochains


@dataclass(frozen=True)
class TEdge:
    source: TVertex
    target: TVertex

    def reverse(self) -> "TEdge":
        return TEdge(self.target, self.source)


def next_toward(v: TVertex, a, p: int) -> TVertex:
    """The neighbor of v on the geodesic from v to the boundary point a.

    The line from the end at infinity to a runs through (j, a mod p^j) for
    every j, so v = (k, u) lies on it exactly when a = u mod p^k: then the
    geodesic steps down to (k + 1, a mod p^(k+1)), otherwise up to
    (k - 1, u)."""
    if isinstance(a, QpApprox):
        need = tree_distance(v, STANDARD, p) + 2
        if a.abs_prec < need:
            raise PrecisionExhausted("boundary point too coarse for this vertex")
        a = a.value
    if a is not INFINITY and (a == v.u or val_p(a - v.u, p) >= v.k):
        return make_vertex(p, v.k + 1, a)
    return make_vertex(p, v.k - 1, v.u)


def vdp_residue(factors: list[tuple[object, int]], e: TEdge, p: int) -> int:
    """Residue across e of the degree-zero product prod (z - a_i)^(n_i):
    the weighted count of roots on the target side of the edge."""
    if sum(n for _, n in factors) != 0:
        raise ValueError("the product must have degree zero")
    total = 0
    for a, n in factors:
        step = next_toward(e.source, _as_point(a), p)
        if step == e.target:
            total += n
    return total


class CochainPatch:
    """Integer edge weights on the radius-R ball around the standard vertex,
    stored with both orientations."""

    def __init__(self, p: int, radius: int, values: dict[TEdge, int]):
        self.p = p
        self.radius = radius
        self.values = dict(values)
        for e, x in list(values.items()):
            rev = e.reverse()
            if rev in self.values:
                if self.values[rev] != -x:
                    raise ValueError("stored values are not antisymmetric")
            else:
                self.values[rev] = -x

    @staticmethod
    def ball_vertices(p: int, radius: int) -> list[TVertex]:
        out = {STANDARD}
        frontier = [STANDARD]
        for _ in range(radius):
            new = []
            for v in frontier:
                for w in neighbors(v, p):
                    if w not in out:
                        out.add(w)
                        new.append(w)
            frontier = new
        return sorted(out, key=lambda v: (v.k, v.u))

    @staticmethod
    def from_function(p: int, radius: int, fn) -> "CochainPatch":
        values = {}
        verts = set(CochainPatch.ball_vertices(p, radius))
        for v in verts:
            for w in neighbors(v, p):
                if w in verts:
                    values[TEdge(v, w)] = fn(TEdge(v, w))
        return CochainPatch(p, radius, values)

    def interior_vertices(self) -> list[TVertex]:
        ball = set(self.ball_vertices(self.p, self.radius - 1))
        return sorted(ball, key=lambda v: (v.k, v.u))

    def to_dot(self) -> str:
        lines = ["digraph btpatch {"]
        seen = set()
        for e, x in sorted(self.values.items(), key=lambda kv: repr(kv[0])):
            key = frozenset((e.source, e.target))
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  "{e.source.k},{e.source.u}" -> '
                         f'"{e.target.k},{e.target.u}" [label="{x}"];')
        lines.append("}")
        return "\n".join(lines)


def check_harmonic(patch: CochainPatch) -> bool:
    """Conditions: antisymmetry on every stored edge and zero outflow at
    every interior vertex."""
    for e, x in patch.values.items():
        rev = e.reverse()
        if rev not in patch.values or patch.values[rev] != -x:
            return False
    for v in patch.interior_vertices():
        s = 0
        for w in neighbors(v, patch.p):
            e = TEdge(v, w)
            if e not in patch.values:
                return False
            s += patch.values[e]
        if s != 0:
            return False
    return True
