"""The four workloads: seeded inputs, the operations run on them, and the
checks each operation's output must pass.

A workload run is a sequence of rounds.  Round r draws its inputs from
``random.Random(f"{workload}:{seed}:{r}")``, so the same seed gives the same
inputs, and every round has the same make-up (the same kinds of operation,
in the same numbers); only the drawn values differ.  An operation is one
timed call (or a short fixed sequence of calls) into rmlab's public
functions; its check runs afterwards, outside the timed interval, and
compares the output with a property the method must have or with a value
``oracles`` computes without rmlab.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# rmlab's functions are called through their modules, so that a traced run,
# which rebinds module attributes, sees the benchmark's own calls as well
from rmlab import cocycles, evaluate, hecke, quaternion, rmpoints
from rmlab.cocycles import ChainSquare
from rmlab.exact import QuadIrr
from rmlab.hecke import HeckeElt
from rmlab.hyperbolic import GSegment, HPoint
from rmlab.mat2 import mat, mat_mul
from rmlab.quaternion import ProjLine, Quat
from rmlab.rmpoints import QForm

import oracles as orc
from oracles import require

class Op:
    """One timed operation and the check of its output.

    ``slot`` is the operation's place in the round's fixed make-up: the
    operations in the same slot of different rounds do the same kind of
    work on different draws."""

    __slots__ = ("kind", "call", "check", "slot")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check
        self.slot = None


def build_round(name: str, seed: int, r: int) -> list[Op]:
    ops = ROUND_MAKERS[name](random.Random(f"{name}:{seed}:{r}"))
    for i, op in enumerate(ops):
        if op.slot is None:
            op.slot = i
    return ops


# ---------------------------------------------------------------------------
# quadric: isotropic quaternions u = x y^T in the (1,1) split model


QUADRIC_ROUNDTRIPS = 24      # per field, per round
QUADRIC_EQUIVARIANT = 8      # per field, per round
SQRT5 = 5


def _field_vector(rng, quadratic: bool):
    """A nonzero vector of Q^2 or Q(sqrt 5)^2, as (oracle QD values, rmlab values)."""
    while True:
        if quadratic:
            pairs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
        else:
            pairs = [(rng.randint(-6, 6), 0) for _ in range(2)]
        if any(a or b for a, b in pairs):
            own = [orc.QD(a, b, SQRT5) for a, b in pairs]
            lib = [QuadIrr(a, b, SQRT5) if quadratic else Fraction(a) for a, b in pairs]
            return own, lib


def _rank_one(rng, quadratic: bool):
    """u = x y^T with its own-arithmetic factors."""
    x_own, x_lib = _field_vector(rng, quadratic)
    y_own, y_lib = _field_vector(rng, quadratic)
    u = Quat.from_matrix([[x_lib[0] * y_lib[0], x_lib[0] * y_lib[1]],
                          [x_lib[1] * y_lib[0], x_lib[1] * y_lib[1]]])
    return u, x_own, y_own


def _invertible_int_matrix(rng):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def check_split(pair, x, y) -> None:
    first, second = orc.split_lines(x, y)
    require(len(pair) == 2, "quadric_split must return two lines")
    require(orc.line_equals(pair[0], first), "first split line is not x (Jx)^T")
    require(orc.line_equals(pair[1], second), "second split line is not (Jy) y^T")


def check_roundtrip(result, x, y) -> None:
    pair, back = result
    check_split(pair, x, y)
    require(orc.line_equals(back, orc.line_of(orc.outer(x, y))),
            "quadric_unsplit(quadric_split(L)) != L")


def check_equivariant(pair, x, y, g1, g2) -> None:
    m1 = orc.conjugate(orc.outer(x, orc.j_times(x)), g1)
    m2 = orc.conjugate(orc.outer(orc.j_times(y), y), g2)
    require(orc.line_equals(pair[0], orc.line_of(m1)),
            "split of g1 u g2^-1: first line is not g1-conjugate")
    require(orc.line_equals(pair[1], orc.line_of(m2)),
            "split of g1 u g2^-1: second line is not g2-conjugate")


def _quadric_roundtrip(rng, quadratic: bool) -> Op:
    u, x, y = _rank_one(rng, quadratic)
    line = ProjLine.from_quat(u, "B")

    def call():
        pair = quaternion.quadric_split(line)
        return pair, quaternion.quadric_unsplit(*pair)

    return Op("roundtrip", call, lambda res: check_roundtrip(res, x, y))


def _quadric_equivariant(rng, quadratic: bool) -> Op:
    u, x, y = _rank_one(rng, quadratic)
    g1, g2 = _invertible_int_matrix(rng), _invertible_int_matrix(rng)
    q1, q2 = Quat.from_matrix(g1), Quat.from_matrix(g2)

    def call():
        return quaternion.quadric_split(ProjLine.from_quat(quaternion.act_pair(q1, q2, u), "B"))

    return Op("equivariance", call, lambda res: check_equivariant(res, x, y, g1, g2))


def quadric_round(rng) -> list[Op]:
    ops = []
    for quadratic in (False, True):
        ops += [_quadric_roundtrip(rng, quadratic) for _ in range(QUADRIC_ROUNDTRIPS)]
        ops += [_quadric_equivariant(rng, quadratic) for _ in range(QUADRIC_EQUIVARIANT)]
    return ops


# ---------------------------------------------------------------------------
# two_variable: the twisted-diagonal cocycle, Kudla-Millson and Hecke relations


TWO_VAR_PRIMES = ((2, 3), (3, 2))   # (p, n) with gcd(n, p) = 1 for kudla_millson
RADIUS = 1
SEG1_DEN, SEG2_DEN = 1019, 1031     # primes = 3 mod 4 keep endpoints generic


def _jitter(rng, den: int, width: float) -> Fraction:
    return Fraction(rng.randint(-int(width * den), int(width * den)), den)


def crossing_arcs(rng):
    """Two short geodesic arcs with rational endpoints that cross once, and
    the orientation sign of the crossing (computed by ``oracles``).

    Every draw has nearly the same shape (an X about 0.35 wide near height
    1.2), so that the work an operation does varies little between draws;
    the position, the small offsets and the directions are seeded."""
    while True:
        x = Fraction(rng.randint(-SEG1_DEN // 2, SEG1_DEN // 2), SEG1_DEN)
        y = Fraction(6, 5) + _jitter(rng, SEG1_DEN, 0.05)
        z0 = (x, y)
        z1 = (x + Fraction(7, 20) + _jitter(rng, SEG1_DEN, 0.01),
              y + Fraction(2, 25) + _jitter(rng, SEG1_DEN, 0.01))
        mid = ((z0[0] + z1[0]) / 2, (z0[1] + z1[1]) / 2)
        w0 = (mid[0] - Fraction(9, 50) + _jitter(rng, SEG2_DEN, 0.01),
              mid[1] + Fraction(3, 25) + _jitter(rng, SEG2_DEN, 0.01))
        w1 = (mid[0] + Fraction(9, 50) + _jitter(rng, SEG2_DEN, 0.01),
              mid[1] - Fraction(3, 25) + _jitter(rng, SEG2_DEN, 0.01))
        if rng.random() < 0.5:
            z0, z1 = z1, z0
        if rng.random() < 0.5:
            w0, w1 = w1, w0
        crosses, sign = orc.arcs_cross((z0, z1), (w0, w1))
        if crosses:
            return (z0, z1), (w0, w1), sign


def _segment(arc) -> GSegment:
    return GSegment(HPoint(*arc[0]), HPoint(*arc[1]))


IDENTITY_LABEL = (1, 0, 0, 1)


def check_d1(div, sign, p: int) -> None:
    """The arcs cross once, so the identity diagonal carries 2 * sign."""
    require(div.entries.get(IDENTITY_LABEL) == 2 * sign,
            f"identity label has multiplicity {div.entries.get(IDENTITY_LABEL)}, "
            f"expected {2 * sign}")
    check_labels(div, 1, p)


def check_labels(div, n: int, p: int) -> None:
    """Labels are primitive integral matrices with positive leading entry and
    determinant n * p^(2k), carrying nonzero even multiplicities."""
    for lbl, m in div.entries.items():
        require(orc.canonical(lbl) == tuple(lbl), f"label {lbl} is not canonical")
        det = lbl[0] * lbl[3] - lbl[1] * lbl[2]
        while det % (p * p) == 0:
            det //= p * p
        require(det == n, f"label {lbl} has determinant {det} up to p^2 factors")
        require(m != 0 and m % 2 == 0, f"label {lbl} has multiplicity {m}")


def _two_variable_chain(rng, p: int, n: int) -> list[Op]:
    arc1, arc2, sign = crossing_arcs(rng)
    chain = ChainSquare(_segment(arc1), _segment(arc2))
    swapped = chain.swap()
    reversed_first = ChainSquare(chain.seg1.reversed(), chain.seg2)
    got: dict = {}

    def keep(key, check):
        def run(res):
            got[key] = res
            check(res)
        return run

    def same_as(key, transform, what):
        def run(res):
            require(key in got, f"{key} is missing")
            require(res.entries == transform(got[key].entries), what)
        return run

    return [
        Op("d1_value", lambda: cocycles.d1_value(chain, p, RADIUS),
           keep("d1", lambda d: check_d1(d, sign, p))),
        Op("d1_value", lambda: cocycles.d1_value(swapped, p, RADIUS),
           same_as("d1", orc.swapped_labels, "the sigma swap does not fix d1_value")),
        Op("d1_value", lambda: cocycles.d1_value(reversed_first, p, RADIUS),
           same_as("d1", orc.negated, "reversing seg1 does not negate d1_value")),
        Op("kudla_millson", lambda: hecke.kudla_millson(n, chain, p, RADIUS),
           keep("km", lambda d: check_labels(d, n, p))),
        Op("kudla_millson", lambda: hecke.kudla_millson(n, swapped, p, RADIUS),
           same_as("km", orc.swapped_labels, "the sigma swap does not fix kudla_millson")),
    ]


def tn_terms(n: int, p: int) -> dict:
    """Double-coset terms of T_n: labels (e1, n0/e1, v_p(n)) for e1^2 | n0,
    n0 the p-free part of n."""
    n0, e = n, 0
    while n0 % p == 0:
        n0 //= p
        e += 1
    return {(e1, n0 // e1, e): 1 for e1 in range(1, n0 + 1)
            if n0 % e1 == 0 and (n0 // e1) % e1 == 0}


def add_terms(*parts) -> dict:
    out: dict = {}
    for scale, terms in parts:
        for k, c in terms.items():
            out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def _hecke_multiplicative(rng) -> Op:
    p = rng.choice((3, 5))
    while True:
        m, n = rng.randint(2, 12), rng.randint(2, 12)
        if m != n and math.gcd(m, n) == 1:
            break
    tm, tn = HeckeElt.Tn(m, p), HeckeElt.Tn(n, p)
    expect = tn_terms(m * n, p)

    def check(res):
        require(res.terms == expect, f"T_{m} T_{n} != T_{m * n} at p={p}")

    return Op("hecke_mul", lambda: hecke.hecke_mul(tm, tn), check)


def _hecke_prime_power(rng) -> Op:
    p = rng.choice((2, 3, 5))
    l = rng.choice([q for q in (2, 3, 5, 7) if q != p])
    e = rng.randint(1, 2)
    t_l, t_le, t_le1 = HeckeElt.Tn(l, p), HeckeElt.Tn(l ** e, p), HeckeElt.Tn(l ** (e - 1), p)
    t_ll = HeckeElt.T_scalar(l, p)
    scalar_part = {(l * e1, l * e2, t): c for (e1, e2, t), c in tn_terms(l ** (e - 1), p).items()}
    expect = add_terms((1, tn_terms(l ** (e + 1), p)), (l, scalar_part))

    def call():
        return hecke.hecke_mul(t_l, t_le), hecke.hecke_mul(t_ll, t_le1)

    def check(res):
        lhs, part = res
        require(part.terms == scalar_part, f"T({l},{l}) T_{l}^{e - 1} is wrong at p={p}")
        require(lhs.terms == expect,
                f"T_{l} T_{l}^{e} != T_{l}^{e + 1} + {l} T({l},{l}) T_{l}^{e - 1} at p={p}")

    return Op("hecke_mul", call, check)


def check_cosets(lists, n: int, p: int, labels) -> None:
    """One right coset per matrix: upper triangular with the label's
    determinant, pairwise distinct; sigma_1(n) in all, psi(n) for (1, n, 0)."""
    require(sum(len(c) for c in lists) == orc.sigma1(n),
            f"T_{n} has {sum(len(c) for c in lists)} cosets, expected sigma_1 = {orc.sigma1(n)}")
    for (e1, e2, t), cosets in zip(labels, lists):
        if (e1, e2, t) == (1, n, 0):
            require(len(cosets) == orc.psi(n),
                    f"label (1, {n}, 0) has {len(cosets)} cosets, expected psi = {orc.psi(n)}")
        keys = set()
        for g in cosets:
            (a, b), (c, d) = g
            require(c == 0 and a * d == e1 * e2 * Fraction(p) ** t,
                    f"coset {g} is not upper triangular of determinant {e1 * e2}")
            keys.add((a, b, c, d))
        require(len(keys) == len(cosets), "repeated coset representative")


def _hecke_cosets(rng) -> Op:
    p = rng.choice((2, 3, 5))
    n = rng.choice([k for k in range(2, 13) if math.gcd(k, p) == 1])
    labels = sorted(tn_terms(n, p))
    return Op("cosets_of_label", lambda: [hecke.cosets_of_label(lbl, p) for lbl in labels],
              lambda res: check_cosets(res, n, p, labels))


def two_variable_round(rng) -> list[Op]:
    ops = []
    for p, n in TWO_VAR_PRIMES:
        ops += _two_variable_chain(rng, p, n)
    ops += [_hecke_multiplicative(rng), _hecke_prime_power(rng), _hecke_cosets(rng)]
    return ops


# ---------------------------------------------------------------------------
# cocycle_law: the one-variable crossing cocycle on two-letter words


COCYCLE_DISCS = (5, 8, 12, 13)
COCYCLE_PRIMES = (2, 3)
X0_DEN = 1019   # prime = 3 mod 4: x0 lies on no geodesic with |A| < X0_DEN


def principal_form(d: int) -> tuple[int, int, int]:
    return (1, 0, -d // 4) if d % 4 == 0 else (1, 1, (1 - d) // 4)


def non_split(d: int, p: int) -> bool:
    """Kronecker (d/p) != 1, computed here rather than by rmlab."""
    if p == 2:
        return d % 2 == 0 or d % 8 == 5
    r = d % p
    return r == 0 or pow(r, (p - 1) // 2, p) != 1


def generators(p: int):
    """S, T and the torus element diag(p, 1/p): generators of SL2(Z[1/p])."""
    return [mat(0, -1, 1, 0), mat(1, 1, 0, 1), mat(p, 0, 0, Fraction(1, p))]


COCYCLE_COMBOS = [(d, p) for p in COCYCLE_PRIMES for d in COCYCLE_DISCS if non_split(d, p)]


def seeded_x0(rng, y_lo=0.27, y_hi=0.29) -> tuple[Fraction, Fraction]:
    return (Fraction(rng.randint(int(0.15 * X0_DEN), int(0.25 * X0_DEN)), X0_DEN),
            Fraction(rng.randint(int(y_lo * X0_DEN), int(y_hi * X0_DEN)), X0_DEN))


def check_defect(div) -> None:
    require(div.is_zero(), f"cocycle defect is {div!r}")


def check_crossings(div, base: tuple, gamma, x0) -> None:
    """Each point (f, m) of dv_value satisfies m = (sgn f(z1) - sgn f(z0)) / 2
    at the endpoints z0 = x0 and z1 = gamma . x0, and is in the base's field."""
    x, y = x0
    gx, gy = orc.moebius_rational(gamma, x, y)
    core = orc.squarefree_part(orc.disc_of(base))[0]
    for f, m in div.entries.items():
        t = (f.A, f.B, f.C)
        require(orc.squarefree_part(orc.disc_of(t))[0] == core,
                f"{t} lies outside the base field")
        s0, s1 = orc.side_sign(t, x, y), orc.side_sign(t, gx, gy)
        require(m != 0 and 2 * m == s1 - s0,
                f"{t}: multiplicity {m}, sides {s0} -> {s1}")


def cocycle_law_round(rng) -> list[Op]:
    """Every ordered pair of generators for every (disc, p): the words are the
    same in each round, so rounds cost alike; the seed draws each word's base
    point and the order the words run in."""
    ops = []
    found: list[int] = []
    for d, p in COCYCLE_COMBOS:
        base, form = QForm(*principal_form(d)), principal_form(d)
        gens = generators(p)
        for g1 in gens:
            for g2 in gens:
                point = HPoint(*seeded_x0(rng))
                ops.append(Op("cocycle_defect",
                              lambda base=base, g1=g1, g2=g2, p=p, point=point:
                              cocycles.cocycle_defect(base, g1, g2, point, p, 1),
                              check_defect))
        # the sampled word: S followed by the torus element
        gamma, x0 = mat_mul(gens[0], gens[2]), seeded_x0(rng)
        point = HPoint(*x0)

        def check_dv(div, form=form, gamma=gamma, x0=x0):
            check_crossings(div, form, gamma, x0)
            found.append(len(div.entries))

        ops.append(Op("dv_value", lambda base=base, gamma=gamma, p=p, point=point:
                      cocycles.dv_value(base, gamma, point, p, 1), check_dv))
    for i, op in enumerate(ops):
        op.slot = i
    rng.shuffle(ops)
    dv_ops = [op for op in ops if op.kind == "dv_value"]

    def check_last(div, inner=dv_ops[-1].check):
        inner(div)
        require(len(found) == len(COCYCLE_COMBOS) and sum(found) > 0,
                "every sampled dv_value divisor in the round is empty")

    dv_ops[-1].check = check_last
    return ops


# ---------------------------------------------------------------------------
# antisym: the truncated antisymmetry experiment, automorphs and orbits


# Pairs of discriminants (principal forms) per prime, all run in every round
# at level 1, each from its own seeded base point.
ANTISYM_PAIRS = {
    2: ((5, 8), (5, 12), (8, 21)),
    3: ((5, 8), (5, 12), (8, 12)),
    5: ((5, 8), (5, 12), (8, 12)),
}
ANTISYM_PRECISION = 8
ANTISYM_WINDOW = 2
ANTISYM_LEVELS = 1
# p ramified in the field: a determinant-1 element of SL2(Z[1/p]) can move
# the disc by p^2, so these give "yes" orbit answers
RAMIFIED = ((2, 8), (2, 12), (3, 12), (3, 21), (5, 5))
# p inert: one determinant-p step moves the disc by p^2 and the point into
# the other SL2(Z[1/p])-orbit (the step flips the tree-distance parity).  A
# "no" answer pays a brute-force cross-check whose cost grows with the
# form's coefficients, so these pairs stay one step apart.
INERT = ((3, 5), (3, 8))


def check_automorph(aut, form: tuple, p: int) -> None:
    """gamma = ((t - BU)/2, -CU; AU, (t + BU)/2) with t^2 - D U^2 = 4, the
    generator found by ``oracles.fundamental_unit``, fixing the root."""
    A, B, C = form
    D = orc.disc_of(form)
    (a, b), (c, d) = aut.gamma
    t, U = a + d, Fraction(c) / A
    require(a * d - b * c == 1, "automorph determinant is not 1")
    require(t * t - D * U * U == 4, "t^2 - D U^2 != 4")
    k = max(0, -orc.valuation(U, p)) if U else 0
    require((t * p ** k).denominator == 1 and (U * p ** k).denominator == 1,
            "t, U are not in Z[1/p]")
    require(c * B == (d - a) * A and c * C == -b * A, "automorph does not fix the root")
    t0, u0 = orc.fundamental_unit(D, p)
    require((t, U) == (t0, u0), f"automorph unit (t, U) = ({t}, {U}), expected ({t0}, {u0})")
    eps = orc.read_scalar(aut.eps, D)
    require(eps == orc.QD(t / 2, U / 2, D), "automorph eps is not (t + U sqrt D)/2")


def check_trivial(value, form: tuple, p: int) -> None:
    t, U = orc.fundamental_unit(orc.disc_of(form), p)
    require(orc.ptower_matches(value, (t / 2, U / 2, 0, 0), p),
            "trivial_cocycle_value differs from the automorph unit")


def check_antisym(report, levels: int) -> None:
    steps = report["steps"]
    require(len(steps) == levels, f"{len(steps)} steps for {levels} levels")
    defects = []
    for s in steps:
        require(s["factors_a"] > 0 and s["factors_b"] > 0,
                f"level {s['level']}: factor counts {s['factors_a']}, {s['factors_b']}")
        require(s["defect"] is not None, f"level {s['level']}: no defect")
        defects.append(s["defect"])
    require(all(a <= b for a, b in zip(defects, defects[1:])),
            f"defect column {defects} decreases")
    require(report["nondecreasing"] is True, "report flags a decreasing defect column")


def check_conjugator(g, f1: tuple, f2: tuple, p: int) -> None:
    (a, b), (c, d) = g
    require(a * d - b * c == 1, "conjugator determinant is not 1")
    require(all(orc.in_z_one_over_p(e, p) for e in (a, b, c, d)),
            "conjugator entries are not in Z[1/p]")
    require(orc.maps_root(g, f1, f2), "conjugator does not map root to root")


def _sl2z_word(rng):
    g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(rng.randint(1, 3)):
        k = rng.choice((-2, -1, 1, 2))
        g = orc.mat2_mul(g, rng.choice(([[1, k], [0, 1]], [[1, 0], [k, 1]])))
    return g


def _det_p_moves(p: int):
    return [[[Fraction(1), Fraction(j)], [Fraction(0), Fraction(p)]] for j in range(p)] \
        + [[[Fraction(p), Fraction(0)], [Fraction(0), Fraction(1)]]]


def _yes_pair(rng):
    """(p, f, g.f) with g in SL2(Z[1/p]) and disc(g.f) = p^2 disc(f)."""
    p, d = rng.choice(RAMIFIED)
    f = principal_form(d)
    moves = _det_p_moves(p)
    cands = [orc.mat2_mul(m2, m1) for m1 in moves for m2 in moves
             if orc.disc_of(orc.form_image(orc.mat2_mul(m2, m1), f)) == p * p * d]
    g = orc.mat2_mul(_sl2z_word(rng), rng.choice(cands))
    return p, f, orc.form_image(g, f)


def _no_pair(rng):
    p, d = rng.choice(INERT)
    f = principal_form(d)
    return p, f, orc.form_image(rng.choice(_det_p_moves(p)), f)


def _orbit_ops(p, f1, f2, expect: bool) -> list[Op]:
    q1, q2 = QForm(*f1), QForm(*f2)
    answers: list[bool] = []

    def check_answer(res):
        require(res is expect, f"orbit_equivalent{f1, f2} at p={p} answered {res}")
        answers.append(res)

    def check_swapped(res):
        require(answers and res is answers[0], "orbit answer changes when arguments swap")

    ops = [Op("orbit_equivalent", lambda: rmpoints.orbit_equivalent(q1, q2, p), check_answer),
           Op("orbit_equivalent", lambda: rmpoints.orbit_equivalent(q2, q1, p), check_swapped)]
    if expect:
        ops.append(Op("orbit_conjugator", lambda: rmpoints.orbit_conjugator(q1, q2, p),
                      lambda g: check_conjugator(g, f1, f2, p)))
    return ops


def antisym_round(rng) -> list[Op]:
    ops = []
    for p, pairs in ANTISYM_PAIRS.items():
        for d1, d2 in pairs:
            f1, f2 = principal_form(d1), principal_form(d2)
            q1, q2 = QForm(*f1), QForm(*f2)
            x0 = HPoint(*seeded_x0(rng, 0.19, 0.21))
            ops.append(Op("antisym_experiment",
                          lambda q1=q1, q2=q2, p=p, x0=x0: evaluate.antisym_experiment(
                              q1, q2, p, ANTISYM_PRECISION, ANTISYM_LEVELS,
                              radius=ANTISYM_WINDOW, x0=x0),
                          lambda rep: check_antisym(rep, ANTISYM_LEVELS)))
        for d in sorted({d for pair in pairs for d in pair}):
            f = principal_form(d)
            q = QForm(*f)
            ops.append(Op("automorph", lambda q=q, p=p: rmpoints.automorph(q, p),
                          lambda aut, f=f, p=p: check_automorph(aut, f, p)))
            ops.append(Op("trivial_cocycle_value",
                          lambda q=q, p=p: evaluate.trivial_cocycle_value(q, p, ANTISYM_PRECISION),
                          lambda v, f=f, p=p: check_trivial(v, f, p)))
    ops += _orbit_ops(*_yes_pair(rng), expect=True)
    ops += _orbit_ops(*_no_pair(rng), expect=False)
    return ops


ROUND_MAKERS = {
    "quadric": quadric_round,
    "two_variable": two_variable_round,
    "cocycle_law": cocycle_law_round,
    "antisym": antisym_round,
}
NAMES = tuple(ROUND_MAKERS)
