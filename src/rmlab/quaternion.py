"""Quaternion algebras (a,b / Q), the norm form, and the quadric splitting.

Coordinates live on the basis (1, i, j, ij) with i^2 = a, j^2 = b and
ij = -ji.  Entries are Fraction or QuadIrr (for lines defined over a real
quadratic field).  The split model is (1,1) with the fixed isomorphism

    1 -> I,  i -> diag(1,-1),  j -> antidiag(1,1),  ij -> antidiag(1,-1),

so that reduced norm = det and reduced trace = trace.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, NonSquareNorm, NotInvertible, NotIsotropic
from .exact import QuadIrr, frac_is_square, frac_sqrt, quadirr_sqrt
from .linalg import nullspace  # noqa: F401 - perfbench traces rmlab.linalg.nullspace


class QuatAlg:
    """The algebra (a, b / Q)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise ValueError("algebra parameters must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *args):
        raise AttributeError("QuatAlg is immutable")

    def __eq__(self, other):
        return isinstance(other, QuatAlg) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"QuatAlg({self.a}, {self.b})"

    def is_split_model(self) -> bool:
        return self.a == 1 and self.b == 1

    def quat(self, t, x, y, z) -> "Quat":
        return Quat(t, x, y, z, self)

    def one(self) -> "Quat":
        return self.quat(1, 0, 0, 0)

    def gen_i(self) -> "Quat":
        return self.quat(0, 1, 0, 0)

    def gen_j(self) -> "Quat":
        return self.quat(0, 0, 1, 0)

    def gen_k(self) -> "Quat":
        return self.quat(0, 0, 0, 1)


SPLIT = QuatAlg(1, 1)


def _coerce(v):
    if isinstance(v, QuadIrr):
        return v
    return Fraction(v)


class Quat:
    """Quaternion with exact coordinates (t, x, y, z) on (1, i, j, ij)."""

    __slots__ = ("t", "x", "y", "z", "alg")

    def __init__(self, t, x, y, z, alg: QuatAlg = SPLIT):
        for name, v in zip(("t", "x", "y", "z"), (t, x, y, z)):
            object.__setattr__(self, name, _coerce(v))
        object.__setattr__(self, "alg", alg)

    def __setattr__(self, *args):
        raise AttributeError("Quat is immutable")

    def coords(self):
        return (self.t, self.x, self.y, self.z)

    def _chk(self, other: "Quat"):
        if self.alg != other.alg:
            raise AlgebraMismatch("operands live in different quaternion algebras")

    # -- linear structure

    def __add__(self, other: "Quat") -> "Quat":
        self._chk(other)
        return Quat(*(s + o for s, o in zip(self.coords(), other.coords())), self.alg)

    def __sub__(self, other: "Quat") -> "Quat":
        self._chk(other)
        return Quat(*(s - o for s, o in zip(self.coords(), other.coords())), self.alg)

    def __neg__(self) -> "Quat":
        return Quat(*(-c for c in self.coords()), self.alg)

    def scale(self, c) -> "Quat":
        return Quat(*(v * c for v in self.coords()), self.alg)

    # -- multiplicative structure

    def __mul__(self, other: "Quat") -> "Quat":
        self._chk(other)
        a, b = self.alg.a, self.alg.b
        t1, x1, y1, z1 = self.coords()
        t2, x2, y2, z2 = other.coords()
        return Quat(
            t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
            t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
            t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
            self.alg,
        )

    def conj(self) -> "Quat":
        return Quat(self.t, -self.x, -self.y, -self.z, self.alg)

    def trd(self):
        return 2 * self.t

    def nrd(self):
        a, b = self.alg.a, self.alg.b
        t, x, y, z = self.coords()
        return t * t - a * x * x - b * y * y + a * b * z * z

    def inverse(self) -> "Quat":
        n = self.nrd()
        if n == 0:
            raise NotInvertible("reduced norm vanishes")
        return self.conj().scale(1 / n if isinstance(n, Fraction) else n.inverse())

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords())

    def __eq__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        return self.alg == other.alg and all(
            s == o for s, o in zip(self.coords(), other.coords()))

    def __hash__(self):
        return hash((self.alg, self.coords()))

    def __repr__(self):
        return f"Quat({self.t}, {self.x}, {self.y}, {self.z})"

    # -- split model

    def to_matrix(self):
        """Image in M_2 under the fixed split isomorphism; (1,1) model only."""
        if not self.alg.is_split_model():
            raise AlgebraMismatch("matrix model fixed for (1,1) only")
        t, x, y, z = self.coords()
        return [[t + x, y + z], [y - z, t - x]]

    @staticmethod
    def from_matrix(m, alg: QuatAlg = SPLIT) -> "Quat":
        if not alg.is_split_model():
            raise AlgebraMismatch("matrix model fixed for (1,1) only")
        al, be = m[0]
        ga, de = m[1]
        half = Fraction(1, 2)
        return Quat((al + de) * half, (al - de) * half,
                    (be + ga) * half, (be - ga) * half, alg)

    def to_json(self):
        return {"algebra": {"a": str(self.alg.a), "b": str(self.alg.b)},
                "coords": [str(c) for c in self.coords()]}


def act_pair(g1: Quat, g2: Quat, v: Quat) -> Quat:
    """Twisted two-sided action g1 * v * g2^(-1)."""
    return g1 * v * g2.inverse()


def bilinear(u: Quat, v: Quat):
    """Polarization of the norm form: trd(u * conj(v))."""
    return (u * v.conj()).trd()


# ---------------------------------------------------------------------------
# projective isotropic lines


class ProjLine:
    """Projective line spanned by an isotropic quaternion vector.

    space is "B" (the full norm form) or "B0" (pure quaternions, where the
    first coordinate must vanish).  Vectors are normalized so the first
    nonzero coordinate equals 1, making equality syntactic.
    """

    __slots__ = ("vec", "space", "alg")

    def __init__(self, vec, space: str, alg: QuatAlg = SPLIT):
        if space not in ("B", "B0"):
            raise ValueError("space must be 'B' or 'B0'")
        coords = [_coerce(c) for c in vec]
        if all(c == 0 for c in coords):
            raise ValueError("zero vector spans no line")
        if space == "B0" and coords[0] != 0:
            raise NotIsotropic("B0 lines must have reduced trace zero")
        lead = next(c for c in coords if c != 0)
        inv = (1 / lead) if isinstance(lead, Fraction) else lead.inverse()
        coords = [c * inv for c in coords]
        object.__setattr__(self, "vec", tuple(coords))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "alg", alg)

    def __setattr__(self, *args):
        raise AttributeError("ProjLine is immutable")

    @staticmethod
    def from_quat(u: Quat, space: str) -> "ProjLine":
        return ProjLine(u.coords(), space, u.alg)

    def quat(self) -> Quat:
        return Quat(*self.vec, self.alg)

    def __eq__(self, other):
        if not isinstance(other, ProjLine):
            return NotImplemented
        return (self.space == other.space and self.alg == other.alg
                and all(a == b for a, b in zip(self.vec, other.vec)))

    def __hash__(self):
        return hash((self.space, self.vec))

    def __repr__(self):
        return f"ProjLine({list(self.vec)}, {self.space!r})"

    def conjugated_by(self, g: Quat) -> "ProjLine":
        """Image under v -> g v g^(-1) (the B0-line action)."""
        return ProjLine.from_quat(g * self.quat() * g.inverse(), self.space)


def kernel_lines(u: Quat) -> tuple[ProjLine, ProjLine]:
    """(left, right) kernel lines of an isotropic u: spans of ker(l_u)_0
    and ker(r_u)_0 inside the pure quaternions.

    As u conj(u) = conj(u) u = nrd(u) = 0, ker(l_u) = conj(u) B and
    ker(r_u) = B conj(u); with w = trd(conj(u) e) - trd(conj(u)) e the
    products conj(u) w and w conj(u) have trace zero, and the first of
    e = i, j, k that makes one nonzero spans that side's line."""
    if u.is_zero():
        raise NotIsotropic("zero vector")
    if u.nrd() != 0:
        raise NotIsotropic("kernel lines exist only for isotropic vectors")
    alg, ub = u.alg, u.conj()
    ws = [alg.one().scale((ub * e).trd()) - e.scale(ub.trd())
          for e in (alg.gen_i(), alg.gen_j(), alg.gen_k())]
    left = next(v for v in (ub * w for w in ws) if not v.is_zero())
    right = next(v for v in (w * ub for w in ws) if not v.is_zero())
    return ProjLine.from_quat(left, "B0"), ProjLine.from_quat(right, "B0")


def quadric_split(line: ProjLine) -> tuple[ProjLine, ProjLine]:
    """Isotropic line [u] in B  ->  (ker(r_u)_0, ker(l_u)_0)."""
    u = line.quat()
    if u.nrd() != 0:
        raise NotIsotropic("line is not on the quadric")
    left, right = kernel_lines(u)
    return right, left


def quadric_unsplit(u1: ProjLine, u2: ProjLine) -> ProjLine:
    """Inverse of quadric_split: pair of isotropic B0-lines -> line in B."""
    for line in (u1, u2):
        if line.space != "B0" or line.quat().nrd() != 0:
            raise NotIsotropic("inputs must be isotropic B0 lines")
    if u1 == u2:
        return ProjLine(u1.vec, "B", u1.alg)
    q1, q2 = u1.quat(), u2.quat()
    alg = q1.alg
    # the commutator of two independent pure quaternions is pure and
    # orthogonal to both: it spans the complement of u1 + u2 inside B0
    alpha = q1 * q2 - q2 * q1
    sq = -alpha.nrd()  # alpha^2
    if isinstance(sq, QuadIrr):
        try:
            r = quadirr_sqrt(sq)
        except ValueError as exc:
            raise NonSquareNorm(str(exc)) from exc
    else:
        if not frac_is_square(sq):
            raise NonSquareNorm(f"-nrd(alpha) = {sq} is not a square")
        r = frac_sqrt(sq)
    # quadric_split(u) = (ker r_u, ker l_u) in B0, each a line, and
    # conjugating u swaps the two; u1 u = 0 and u u2 = 0 pick the preimage
    cand = alg.one().scale(r) + alpha
    for u in (cand, cand.conj()):
        if (q1 * u).is_zero() and (u * q2).is_zero():
            return ProjLine.from_quat(u, "B")
    raise NonSquareNorm("round-trip failed for both candidates")  # pragma: no cover
