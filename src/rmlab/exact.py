"""Exact number kernels.

Three layers, all immutable and hashable:

* ``Fraction`` (stdlib) is used directly for arbitrary-precision rationals.
* ``QuadIrr`` models a + b*sqrt(D) for a positive non-square integer D,
  with exact sign decisions under the real embedding sqrt(D) > 0.
* ``PTower`` models finite-precision elements of the rank-four algebra
  Q_p[x, y] / (x^2 - D1, y^2 - D2), with explicit valuation bookkeeping.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import Mismatch, MixedDiscriminant, NotInvertible, PrecisionExhausted

_F0 = Fraction(0)


# ---------------------------------------------------------------------------
# integer / rational helpers


def is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def square_core(n: int) -> tuple[int, int]:
    """Write n = m^2 * core with core squarefree; return (core, m).

    Only defined for n >= 1.  Trial division; inputs stay desk-sized.
    """
    if n < 1:
        raise ValueError("square_core needs a positive integer")
    core, m = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        m *= d ** (e // 2)
        if e % 2:
            core *= d
        d += 1 if d == 2 else 2
    return core * n, m


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b) >= 0."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    q, r = divmod(a, b)
    g, x, y = xgcd(b, r)
    return g, y, x - y * q


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def sigma1(n: int) -> int:
    return sum(divisors(n))


def p_free(n: int, p: int) -> int:
    """|n| with every factor p removed (0 stays 0)."""
    n = abs(n)
    while n and n % p == 0:
        n //= p
    return n


def frac_root(q: Fraction) -> Fraction | None:
    """The root r >= 0 with r^2 = q if q is a rational square, else None."""
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        return None
    return Fraction(n, d)


def frac_is_square(q: Fraction) -> bool:
    return frac_root(q) is not None


def frac_sqrt(q: Fraction) -> Fraction:
    """Exact square root of a rational square."""
    r = frac_root(q)
    if r is None:
        raise ValueError(f"{q} is not a rational square")
    return r


def _p_split(q: Fraction | int, p: int) -> tuple[int, int, int]:
    """(v, n, d) with q = p^v * n / d and n, d prime to p, for a nonzero
    int or Fraction q."""
    if q == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v, n, d


def val_p(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction."""
    return _p_split(q, p)[0]


def kronecker(d: int, p: int) -> int:
    """Kronecker symbol (d/p) for a prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    r = d % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


# ---------------------------------------------------------------------------
# real quadratic irrationalities


_VALID_DISCS: set[int] = set()


def _check_disc(D: int) -> None:
    if D in _VALID_DISCS:
        return
    if D < 2 or is_square_int(D):
        raise ValueError(f"D must be >= 2 and not a perfect square, got {D}")
    _VALID_DISCS.add(D)


def _new_quad(a: Fraction, b: Fraction, D: int) -> "QuadIrr":
    """Internal constructor: operands already validated Fractions."""
    q = object.__new__(QuadIrr)
    object.__setattr__(q, "a", a)
    object.__setattr__(q, "b", b)
    object.__setattr__(q, "D", D)
    return q


class QuadIrr:
    """a + b*sqrt(D) under the real embedding sqrt(D) > 0.

    Arithmetic between two values with b != 0 requires compatible D:
    equal, or related by a square factor (sqrt(4*5) = 2*sqrt(5) style
    rescaling happens automatically).  Everything is exact.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b, D: int):
        _check_disc(D)
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "D", D)

    def __setattr__(self, *args):
        raise AttributeError("QuadIrr is immutable")

    def canonical(self) -> "QuadIrr":
        """Extract the square part of D: a + b*sqrt(m^2*c) -> a + bm*sqrt(c)."""
        core, m = square_core(self.D)
        if core == 1:
            raise ValueError("D collapsed to a square")
        return QuadIrr(self.a, self.b * m, core)

    # -- coercion

    def _align(self, other) -> tuple["QuadIrr", "QuadIrr"]:
        if isinstance(other, (int, Fraction)):
            return self, _new_quad(Fraction(other), _F0, self.D)
        if not isinstance(other, QuadIrr):
            raise TypeError(f"cannot combine QuadIrr with {type(other)}")
        if self.D == other.D:
            return self, other
        if other.b == 0:
            return self, _new_quad(other.a, _F0, self.D)
        if self.b == 0:
            return _new_quad(self.a, _F0, other.D), other
        # allow sqrt(D2) = t*sqrt(D1) when D2/D1 is a rational square; both
        # operands go over the smaller label, whichever side carries it
        small, big = (self, other) if self.D < other.D else (other, self)
        ratio = Fraction(big.D, small.D)
        if not frac_is_square(ratio):
            raise MixedDiscriminant(f"incompatible discriminants {self.D}, {other.D}")
        big = _new_quad(big.a, big.b * frac_sqrt(ratio), small.D)
        return (small, big) if small is self else (big, small)

    # -- ring structure

    def __add__(self, other):
        if isinstance(other, QuadIrr) and self.D == other.D:
            return _new_quad(self.a + other.a, self.b + other.b, self.D)
        x, y = self._align(other)
        return _new_quad(x.a + y.a, x.b + y.b, x.D)

    __radd__ = __add__

    def __neg__(self):
        return _new_quad(-self.a, -self.b, self.D)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadIrr) else -self._align(other)[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QuadIrr) and self.D == other.D:
            x, y = self, other
        elif type(other) is Fraction or type(other) is int:
            return _new_quad(self.a * other, self.b * other, self.D)
        else:
            x, y = self._align(other)
        return _new_quad(x.a * y.a + x.b * y.b * x.D,
                         x.a * y.b + x.b * y.a, x.D)

    __rmul__ = __mul__

    def conj(self) -> "QuadIrr":
        return _new_quad(self.a, -self.b, self.D)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.D

    def inverse(self) -> "QuadIrr":
        n = self.norm()
        if n == 0:
            raise NotInvertible("zero or norm-zero quadratic irrationality")
        return _new_quad(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other):
        x, y = self._align(other)
        return x * y.inverse()

    def __rtruediv__(self, other):
        return QuadIrr(other, 0, self.D) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, QuadIrr(1, 0, self.D))

    # -- exact order structure

    def sign(self) -> int:
        return quad_sign(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadIrr):
            return NotImplemented
        try:
            x, y = self._align(other)
        except MixedDiscriminant:
            return False
        return x.a == y.a and x.b == y.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        c = self.canonical()
        return hash((c.a, c.b, c.D))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D)

    def __repr__(self):
        return f"QuadIrr({self.a}, {self.b}, {self.D})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.D})"
        return f"{self.a} + {self.b}*sqrt({self.D})"


def quad_sign(q) -> int:
    """Exact sign of a + b*sqrt(D), by case analysis on a, b and a^2 vs b^2 D."""
    if isinstance(q, (int, Fraction)):
        return (q > 0) - (q < 0)
    a, b, D = q.a, q.b, q.D
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a| vs |b| sqrt(D) decided by a^2 vs b^2 D
    lhs, rhs = a * a, b * b * D
    if lhs == rhs:
        return 0
    big_is_a = lhs > rhs
    return (1 if a > 0 else -1) if big_is_a else (1 if b > 0 else -1)


def floor_exact(v) -> int:
    """floor(v) for an int, Fraction or QuadIrr, decided exactly."""
    if not isinstance(v, QuadIrr):
        return math.floor(v)
    # s = floor(|b| sqrt D), so floor(v) is lo or lo + 1
    r = v.b * v.b * v.D
    s = math.isqrt(r.numerator * r.denominator) // r.denominator
    lo = math.floor(v.a) + (s if v.b >= 0 else -s - 1)
    return lo + (quad_sign(v - (lo + 1)) >= 0)


def exact_div(u, v):
    """u / v for int, Fraction or QuadIrr operands; int / int is a Fraction
    here, never a float."""
    return (Fraction(u) if isinstance(u, int) else u) / v


def sign_plus_root(u, v, e) -> int:
    """Exact sign of u + v*sqrt(e) with u, v, e rational or QuadIrr, e >= 0.

    Nested radicals like this arise in segment-crossing predicates; the
    recursion bottoms out in quad_sign after one squaring.
    """
    se = quad_sign(e) if not isinstance(e, (int, Fraction)) else (e > 0) - (e < 0)
    if se < 0:
        raise ValueError("negative radicand")
    sv = quad_sign(v)
    if se == 0 or sv == 0:
        return quad_sign(u)
    su = quad_sign(u)
    if su == 0:
        return sv
    if su == sv:
        return su
    # compare u^2 against v^2 e; signs of u and v differ
    d = quad_sign(u * u - v * v * e)
    if d == 0:
        return 0
    return su if d > 0 else sv


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, starting from one."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


# ---------------------------------------------------------------------------
# finite-precision p-adic towers


class PTower:
    """Element of Q_p[x, y]/(x^2 - D1, y^2 - D2) at finite precision.

    Stored as p^shift * (c0 + c1 x + c2 y + c3 xy) with the residues ci
    known mod p^prec and, unless the element is flagged zero at precision,
    at least one ci a p-unit.  D1 = 0 or D2 = 0 marks an absent factor,
    in which case the corresponding coordinates must vanish.
    """

    __slots__ = ("p", "prec", "D1", "D2", "coeffs", "shift", "zero")

    def __new__(cls, p, prec, D1, D2, coeffs, shift=0):
        if prec < 1:
            raise PrecisionExhausted("no significant digits left")
        c = [int(x) for x in coeffs]
        if D1 == 0 and (c[1] or c[3]):
            raise ValueError("x-coordinates present but the x-factor is absent")
        if D2 == 0 and (c[2] or c[3]):
            raise ValueError("y-coordinates present but the y-factor is absent")
        m = p ** prec
        return PTower._make(p, prec, D1, D2, tuple(x % m for x in c), shift)

    @staticmethod
    def _make(p, prec, D1, D2, c, shift) -> "PTower":
        """Internal constructor for arithmetic results: prec >= 1, c is a
        4-tuple of ints already reduced mod p^prec, and absent factors'
        coordinates vanish, so only the content is normalised."""
        g = math.gcd(*c)
        if g and g % p == 0:
            # a nonzero vector reduced mod p^prec has content < p^prec: v < prec
            v = val_p(g, p)
            q = p ** v
            c = tuple(x // q for x in c)
            prec -= v
            shift += v
        t = object.__new__(PTower)
        object.__setattr__(t, "p", p)
        object.__setattr__(t, "prec", prec)
        object.__setattr__(t, "D1", D1)
        object.__setattr__(t, "D2", D2)
        object.__setattr__(t, "coeffs", c)
        object.__setattr__(t, "shift", shift)
        object.__setattr__(t, "zero", not g)
        return t

    def __setattr__(self, *args):
        raise AttributeError("PTower is immutable")

    # -- constructors

    @staticmethod
    def zero_at(p, prec, D1, D2, shift=0) -> "PTower":
        return PTower(p, prec, D1, D2, (0, 0, 0, 0), shift)

    @staticmethod
    def one(p, prec, D1, D2) -> "PTower":
        return PTower(p, prec, D1, D2, (1, 0, 0, 0))

    @staticmethod
    def gen_x(p, prec, D1, D2) -> "PTower":
        return PTower(p, prec, D1, D2, (0, 1, 0, 0))

    @staticmethod
    def gen_y(p, prec, D1, D2) -> "PTower":
        return PTower(p, prec, D1, D2, (0, 0, 1, 0))

    @staticmethod
    def from_rational(q, p, prec, D1, D2) -> "PTower":
        q = Fraction(q)
        if q == 0:
            return PTower.zero_at(p, prec, D1, D2)
        v, n, d = _p_split(q, p)
        m = p ** prec
        return PTower(p, prec, D1, D2, (n * pow(d, -1, m) % m, 0, 0, 0), shift=v)

    @staticmethod
    def from_quadirr(q: QuadIrr, p, prec, D1, D2, slot=1) -> "PTower":
        """Embed a + b*sqrt(Dq) sending sqrt(Dq) to t*x (slot 1) or t*y.

        Requires Dq / Dslot to be a rational square, t its positive root.
        """
        target = D1 if slot == 1 else D2
        if target == 0:
            raise MixedDiscriminant("requested slot is absent from the tower")
        t = frac_root(Fraction(q.D, target))
        if t is None:
            raise MixedDiscriminant(
                f"cannot embed sqrt({q.D}) into the sqrt({target}) slot")
        return PTower._from_coords(q.a, q.b * t, p, prec, D1, D2, slot)

    @staticmethod
    def _from_coords(a: Fraction, b: Fraction, p, prec, D1, D2, slot) -> "PTower":
        """a + b*x (slot 1) or a + b*y (slot 2) for rationals a and b, the
        slot present in the tower.  This is the element, precision and shift
        of from_rational(a) + from_rational(b) * gen: each part is known
        modulo p^(prec + its valuation), a zero part modulo p^prec only."""
        if prec < 1:
            raise PrecisionExhausted("no significant digits left")
        if a == 0 and b == 0:
            return PTower._make(p, 1, D1, D2, (0, 0, 0, 0), prec - 1)
        pa = _p_split(a, p) if a else None
        pb = _p_split(b, p) if b else None
        shift = min(x[0] for x in (pa, pb) if x)
        known = prec + min(pa[0] if pa else 0, pb[0] if pb else 0)
        prec = known - shift
        if prec < 1:
            raise PrecisionExhausted("sum below noise floor")
        m = p ** prec
        c = [0, 0, 0, 0]
        for i, part in ((0, pa), (1 if slot == 1 else 2, pb)):
            if part:
                v, n, d = part
                c[i] = n * p ** (v - shift) * pow(d, -1, m) % m
        return PTower._make(p, prec, D1, D2, tuple(c), shift)

    # -- bookkeeping

    def _lift(self, other) -> "PTower":
        """other as a tower element of self's parameters: a rational is
        embedded at self's precision, a PTower must share p, D1 and D2."""
        if isinstance(other, (int, Fraction)):
            return PTower.from_rational(other, self.p, self.prec, self.D1, self.D2)
        if not isinstance(other, PTower):
            raise TypeError(f"cannot combine PTower with {type(other)}")
        if (self.p, self.D1, self.D2) != (other.p, other.D1, other.D2):
            raise MixedDiscriminant("PTower parameters differ")
        return other

    @property
    def abs_prec(self) -> int:
        """Exponent e with the element known modulo p^e."""
        return self.shift + self.prec

    def valuation(self) -> int:
        """Coordinate-wise minimum valuation; a lower bound, exact when
        the element is nonzero at precision."""
        return self.shift if not self.zero else self.abs_prec

    def is_zero(self) -> bool:
        return self.zero

    # -- arithmetic

    def __add__(self, other):
        other = self._lift(other)
        p, D1, D2 = self.p, self.D1, self.D2
        if self.zero and other.zero:
            s = min(self.abs_prec, other.abs_prec)
            return PTower._make(p, 1, D1, D2, (0, 0, 0, 0), s - 1)
        if self.zero:
            lim = min(self.abs_prec, other.abs_prec)
            prec = lim - other.shift
            if prec < 1:
                raise PrecisionExhausted("sum below noise floor")
            mod = p ** prec
            return PTower._make(p, prec, D1, D2, tuple(c % mod for c in other.coeffs),
                                other.shift)
        if other.zero:
            return other + self
        m = min(self.shift, other.shift)
        lim = min(self.abs_prec, other.abs_prec)
        prec = lim - m
        if prec < 1:
            raise PrecisionExhausted("sum below noise floor")
        mod = p ** prec
        ka, kb = p ** (self.shift - m), p ** (other.shift - m)
        return PTower._make(p, prec, D1, D2,
                            tuple((x * ka + y * kb) % mod
                                  for x, y in zip(self.coeffs, other.coeffs)), m)

    __radd__ = __add__

    def __neg__(self):
        mod = self.p ** self.prec
        return PTower._make(self.p, self.prec, self.D1, self.D2,
                            tuple(-c % mod for c in self.coeffs), self.shift)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        D1, D2 = self.D1, self.D2
        if self.zero or other.zero:
            s = self.valuation() + other.valuation()
            return PTower._make(self.p, 1, D1, D2, (0, 0, 0, 0), s - 1)
        prec = min(self.prec, other.prec)
        mod = self.p ** prec
        a0, a1, a2, a3 = self.coeffs
        b0, b1, b2, b3 = other.coeffs
        c0 = a0 * b0 + D1 * a1 * b1 + D2 * a2 * b2 + D1 * D2 * a3 * b3
        c1 = a0 * b1 + a1 * b0 + D2 * (a2 * b3 + a3 * b2)
        c2 = a0 * b2 + a2 * b0 + D1 * (a1 * b3 + a3 * b1)
        c3 = a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1
        return PTower._make(self.p, prec, D1, D2,
                            (c0 % mod, c1 % mod, c2 % mod, c3 % mod),
                            self.shift + other.shift)

    __rmul__ = __mul__

    def conj_x(self) -> "PTower":
        c0, c1, c2, c3 = self.coeffs
        mod = self.p ** self.prec
        return PTower._make(self.p, self.prec, self.D1, self.D2,
                            (c0, -c1 % mod, c2, -c3 % mod), self.shift)

    def conj_y(self) -> "PTower":
        c0, c1, c2, c3 = self.coeffs
        mod = self.p ** self.prec
        return PTower._make(self.p, self.prec, self.D1, self.D2,
                            (c0, c1, -c2 % mod, -c3 % mod), self.shift)

    def _cofactor(self) -> "PTower":
        """The product of the three tower conjugates of the element."""
        x = self.conj_x()
        return x * self.conj_y() * x.conj_y()

    def algebra_norm(self) -> "PTower":
        """Product of the element with its three tower conjugates: a scalar."""
        return self * self._cofactor()

    def inverse(self) -> "PTower":
        if self.zero:
            raise NotInvertible("zero at precision")
        cof = self._cofactor()
        n = self * cof
        if n.zero:
            raise NotInvertible("algebra norm vanishes at precision (zero divisor)")
        if n.coeffs[1] or n.coeffs[2] or n.coeffs[3]:
            raise Mismatch("algebra norm is not scalar")  # pragma: no cover
        prec = min(cof.prec, n.prec)
        mod = self.p ** prec
        ninv = pow(n.coeffs[0], -1, mod)
        return PTower._make(self.p, prec, self.D1, self.D2,
                            tuple(c * ninv % mod for c in cof.coeffs),
                            cof.shift - n.shift)

    def __truediv__(self, other):
        # a divisor from another tower fails in inverse() before the
        # parameter check in __mul__
        if not isinstance(other, PTower):
            other = self._lift(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, PTower.one(self.p, self.prec, self.D1, self.D2))

    # -- comparisons

    def eq_at_precision(self, other: "PTower") -> bool:
        d = self - other
        return d.is_zero()

    def congruent_one_valuation(self) -> int:
        """val(self - 1); PrecisionExhausted noise is reported as abs_prec."""
        one = PTower.one(self.p, self.prec, self.D1, self.D2)
        try:
            d = self - one
        except PrecisionExhausted:
            return self.abs_prec
        return d.valuation()

    def __eq__(self, other):
        if not isinstance(other, PTower):
            return NotImplemented
        return self.eq_at_precision(other)

    def __repr__(self):
        return (f"PTower(p={self.p}, N={self.prec}, D=({self.D1},{self.D2}), "
                f"coeffs={list(self.coeffs)}, shift={self.shift})")

    def text(self) -> str:
        return (f"p-adic: {self.p}, {self.prec}, "
                f"[{','.join(str(c) for c in self.coeffs)}], {self.shift}")

