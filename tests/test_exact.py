import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from rmlab.errors import MixedDiscriminant, NotInvertible, PrecisionExhausted
from rmlab.exact import (
    PTower,
    QuadIrr,
    frac_is_square,
    frac_sqrt,
    kronecker,
    quad_sign,
    quadirr_sqrt,
    sign_plus_root,
    square_core,
    val_p,
)

getcontext().prec = 220


def decimal_sign(q: QuadIrr) -> int:
    """200-digit interval oracle for the sign of a + b*sqrt(D)."""
    v = Decimal(q.a.numerator) / Decimal(q.a.denominator) + (
        Decimal(q.b.numerator) / Decimal(q.b.denominator)
    ) * Decimal(q.D).sqrt()
    if abs(v) < Decimal(10) ** -150:
        return 0
    return 1 if v > 0 else -1


def test_quad_sign_examples():
    assert quad_sign(QuadIrr(0, 0, 5)) == 0
    assert quad_sign(QuadIrr(-1, 1, 5)) == 1
    assert quad_sign(QuadIrr(3, -2, 2)) == 1


def test_quad_sign_against_decimal_oracle():
    rng = random.Random(1)
    discs = [2, 3, 5, 8, 12, 13, 21, 60]
    for _ in range(10_000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        q = QuadIrr(a, b, rng.choice(discs))
        assert quad_sign(q) == decimal_sign(q)


def test_rat_field_axioms_random():
    rng = random.Random(2)
    for _ in range(500):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 30))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 30))
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 30))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1


def test_quadirr_conjugate_norm():
    rng = random.Random(3)
    for _ in range(300):
        q = QuadIrr(Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                    Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                    rng.choice([2, 5, 13]))
        prod = q * q.conj()
        assert prod.b == 0
        assert prod.a == q.a * q.a - q.b * q.b * q.D


def test_quadirr_field_ops():
    x = QuadIrr(1, 1, 5)
    assert x * x.inverse() == 1
    assert (x ** 3) == x * x * x
    assert x + 1 == QuadIrr(2, 1, 5)
    with pytest.raises(MixedDiscriminant):
        _ = QuadIrr(1, 1, 5) + QuadIrr(1, 1, 2)
    # square-ratio alignment: sqrt(20) = 2 sqrt(5)
    assert QuadIrr(0, 1, 20) == QuadIrr(0, 2, 5)
    assert QuadIrr(0, 1, 20) + QuadIrr(0, 1, 5) == QuadIrr(0, 3, 5)


def test_square_core_and_canonical():
    assert square_core(20) == (5, 2)
    assert square_core(8) == (2, 2)
    assert square_core(5) == (5, 1)
    assert QuadIrr(1, 1, 45).canonical() == QuadIrr(1, 3, 5)


def test_quadirr_sqrt():
    eps = QuadIrr(Fraction(3, 2), Fraction(1, 2), 5)  # (3+sqrt5)/2 = ((1+sqrt5)/2)^2
    r = quadirr_sqrt(eps)
    assert r * r == eps and quad_sign(r) > 0
    assert quadirr_sqrt(QuadIrr(4, 0, 5)) == 2
    assert quadirr_sqrt(QuadIrr(5, 0, 5)) == QuadIrr(0, 1, 5)
    with pytest.raises(ValueError):
        quadirr_sqrt(QuadIrr(0, 1, 5))  # sqrt(sqrt5) leaves the field


def test_sign_plus_root():
    # 1 + 2 sqrt(3) > 0, 5 - 3 sqrt(3) < 0, 2 - sqrt(4) = 0
    assert sign_plus_root(Fraction(1), Fraction(2), Fraction(3)) == 1
    assert sign_plus_root(Fraction(5), Fraction(-3), Fraction(3)) == -1
    assert sign_plus_root(Fraction(2), Fraction(-1), Fraction(4)) == 0
    # nested: (1 + sqrt5) - 1*sqrt(2) with QuadIrr coefficients
    s = sign_plus_root(QuadIrr(1, 1, 5), QuadIrr(-1, 0, 5), Fraction(2))
    assert s == 1


def test_kronecker_and_valp():
    assert kronecker(5, 2) == -1
    assert kronecker(5, 5) == 0
    assert kronecker(5, 11) == 1
    assert val_p(Fraction(12, 5), 2) == 2
    assert val_p(Fraction(5, 8), 2) == -3


def test_frac_sqrt():
    assert frac_is_square(Fraction(9, 4))
    assert frac_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert not frac_is_square(Fraction(2))


# ---------------------------------------------------------------------------
# PTower


def T(p=3, N=10, D1=5, D2=2):
    return dict(p=p, prec=N, D1=D1, D2=D2)


def test_ptower_mul_examples():
    k = T()
    one = PTower.one(**k)
    x = PTower.gen_x(**k)
    y = PTower.gen_y(**k)
    v = PTower(coeffs=(2, 1, 0, 1), **k)
    assert (one * v).eq_at_precision(v)
    assert (x * x).eq_at_precision(PTower.from_rational(5, **k))
    lhs = (x + y) * (x - y)
    assert lhs.eq_at_precision(PTower.from_rational(5 - 2, **k))


def test_ptower_inv_examples():
    k = T(p=2, N=8, D1=5, D2=0)
    one = PTower.one(**k)
    assert one.inverse().eq_at_precision(one)
    p1 = PTower.from_rational(2, **k)
    assert p1.inverse().shift == -1
    u = one + PTower.gen_x(**k)  # 1 + x, x^2 = 5

    # oracle: (1+x)^(-1) = (1-x)/(1-5) computed by independent exact arithmetic,
    # then reduced 2-adically; the valuation drop -2 comes from the norm -4
    inv = u.inverse()
    assert inv.shift == -2
    prec = inv.prec
    mod = 2 ** prec
    quarter = pow((1 - 5) // 4, -1, mod)  # inverse of -1 mod 2^prec
    assert inv.coeffs[0] % mod == (1 * quarter) % mod
    assert inv.coeffs[1] % mod == (-1 * quarter) % mod
    assert (u * inv).eq_at_precision(PTower.one(**k))

    # Hensel-style verification at the unit level: the unit part of 1+x
    # divided by its norm unit reproduces inv's digits after squaring steps
    check = (u * inv - one)
    assert check.is_zero()


def test_ptower_valuation_multiplicative():
    rng = random.Random(4)
    k = T(p=3, N=12)
    for _ in range(200):
        u = PTower(coeffs=[rng.randint(0, 3 ** 6) for _ in range(4)],
                   shift=rng.randint(-2, 2), **k)
        v = PTower(coeffs=[rng.randint(0, 3 ** 6) for _ in range(4)],
                   shift=rng.randint(-2, 2), **k)
        if u.is_zero() or v.is_zero():
            continue
        try:
            nu = u.algebra_norm()
            nv = v.algebra_norm()
            nuv = (u * v).algebra_norm()
        except PrecisionExhausted:
            continue
        if nu.is_zero() or nv.is_zero() or nuv.is_zero():
            continue
        assert nuv.valuation() == nu.valuation() + nv.valuation()


def test_ptower_double_inverse():
    rng = random.Random(5)
    k = T(p=5, N=9, D1=2, D2=3)
    count = 0
    while count < 100:
        u = PTower(coeffs=[rng.randint(0, 5 ** 5) for _ in range(4)],
                   shift=rng.randint(-1, 1), **k)
        if u.is_zero():
            continue
        try:
            inv2 = u.inverse().inverse()
        except NotInvertible:
            continue
        assert inv2.eq_at_precision(u)
        count += 1


def test_ptower_zero_divisor_detection():
    # split algebra: D1 = 4 is a square so x-1 divides zero mod 3-adics
    k = dict(p=3, prec=6, D1=4, D2=0)
    u = PTower(coeffs=(2, 1, 0, 0), **k)  # 2 + x with x^2=4: (2+x)(2-x)=0
    with pytest.raises(NotInvertible):
        u.inverse()


def test_ptower_conjugates_of_zero_are_zero():
    z = PTower.zero_at(3, 5, 5, 8)
    for w in (-z, z.conj_x(), z.conj_y(), z.conj_x().conj_y()):
        assert w.is_zero()
        assert w.valuation() == z.valuation() == 5


def test_ptower_embedding_and_text():
    eps = QuadIrr(Fraction(3, 2), Fraction(1, 2), 5)
    e = PTower.from_quadirr(eps, 3, 10, 5, 0)
    econj = PTower.from_quadirr(eps.conj(), 3, 10, 5, 0)
    assert (e * econj).eq_at_precision(PTower.one(3, 10, 5, 0))
    # sqrt(20) lands in the sqrt(5) slot as 2x
    w = PTower.from_quadirr(QuadIrr(0, 1, 20), 3, 10, 5, 0)
    x = PTower.gen_x(3, 10, 5, 0)
    assert w.eq_at_precision(x + x)
    assert e.text().startswith("p-adic: 3, ")


def test_ptower_precision_exhaustion():
    with pytest.raises(PrecisionExhausted):
        PTower(2, 0, 5, 0, (1, 0, 0, 0))
    # cancellation to the noise floor is flagged as zero-at-precision
    k = dict(p=2, prec=4, D1=5, D2=0)
    u = PTower(coeffs=(1, 1, 0, 0), **k)
    v = PTower(coeffs=(1 + 2 ** 5, 1, 0, 0), **k)
    assert (u - v).is_zero()
    # inverting through the noise floor is refused: norm of 1+x is -4,
    # invisible mod 2^2
    w = PTower(coeffs=(1, 1, 0, 0), p=2, prec=2, D1=5, D2=0)
    with pytest.raises(NotInvertible):
        w.inverse()


def _random_tower(rng, p, prec, D1, D2):
    c = [rng.randint(-p ** 5, p ** 5) * p ** rng.choice((0, 0, 1)) for _ in range(4)]
    if D1 == 0:
        c[1] = c[3] = 0
    if D2 == 0:
        c[2] = c[3] = 0
    return PTower(p, prec, D1, D2, c, shift=rng.randint(-2, 2))


def _agree(u, v) -> bool:
    """u and v agree at the lower of their two precisions.  A difference
    below the noise floor is consistent only when one side is zero at its
    precision (the other then vanishes to that precision)."""
    try:
        return (u - v).is_zero()
    except PrecisionExhausted:
        return u.is_zero() or v.is_zero()


def test_ptower_and_val_p_identities():
    rng = random.Random(18)
    inverted = powered = 0
    for _ in range(600):
        p = rng.choice((2, 3, 5, 7))
        D1 = rng.choice((0, 2, 3, 5, 6, 7, 10, p, 3 * p))
        D2 = rng.choice((0, 2, 3, 5, 13, p, 2 * p))
        a = _random_tower(rng, p, rng.randint(3, 10), D1, D2)
        n = a.algebra_norm()
        assert n.is_zero() or n.coeffs[1:] == (0, 0, 0)
        try:
            inv = a.inverse()
        except NotInvertible:
            assert a.is_zero() or n.is_zero()
            continue
        assert _agree(a * inv, PTower.one(p, a.prec, D1, D2))
        inverted += 1
        e = rng.randint(1, 4)
        try:
            rhs = (a ** e).inverse()
        except NotInvertible:
            continue  # a ** e lost the digits that carry its norm
        assert _agree(a ** -e, rhs)
        powered += 1
    assert inverted >= 500 and powered >= 500
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        D = rng.choice((2, 3, 5, 6, 7, p))
        b = _random_tower(rng, p, 8, D, D)
        # x - y is a zero divisor when x^2 = y^2
        z = b * (PTower.gen_x(p, 8, D, D) - PTower.gen_y(p, 8, D, D))
        with pytest.raises(NotInvertible):
            z.inverse()
        with pytest.raises(NotInvertible):
            b / z
    for _ in range(2000):
        p = rng.choice((2, 3, 5, 7))
        n = rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) * p ** rng.randint(0, 4)
        assert val_p(n, p) == val_p(Fraction(n), p)
