"""Evaluation pairings and the truncated antisymmetry experiment.

One-variable values are products of conjugate-paired cross-ratio factors
((z - w)/(z - w')) evaluated at an RM point inside the rank-four p-adic
tower; the two-variable pairing caps a materialized 2-cochain with the
product of the two fundamental cycles, J(a, b) / J(b, a) for the
commuting pair a = (gamma_tau, 1), b = (1, gamma_omega).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cocycles import RMDivisor, dv_value, perturbed_base_points
from .errors import (
    DegenerateEndpoint,
    MixedDiscriminant,
    NotRegular,
    NotInvertible,
    PrecisionExhausted,
    SameOrbit,
)
from .exact import PTower, QuadIrr, frac_is_square, quad_sign
from .hyperbolic import HPoint
from .mat2 import IDENT, Mat
from .rmpoints import QForm, automorph, is_rm_for, orbit_equivalent


def _mat_key(g: Mat):
    return tuple(e for row in g for e in row)


class CocycleTable:
    """A 1-cochain materialized on finitely many group elements, keyed by
    a 2x2 matrix or its four entries in row order.  The entry at g is the
    divisor whose form f with exponent m stands for ((z - w)/(z - w'))^m,
    w and w' the two roots of f."""

    def __init__(self, entries: dict | None = None):
        self.entries: dict = {}
        for g, div in (entries or {}).items():
            key = _mat_key(g) if len(g) == 2 else g
            self.entries[key] = div

    def factors_for(self, g: Mat) -> RMDivisor:
        return self.entries.get(_mat_key(g), RMDivisor())

    def product_with(self, other: "CocycleTable") -> "CocycleTable":
        out = CocycleTable()
        keys = set(self.entries) | set(other.entries)
        for k in keys:
            out.entries[k] = (self.entries.get(k, RMDivisor())
                              + other.entries.get(k, RMDivisor()))
        return out


def _forms(div: RMDivisor) -> list[QForm]:
    """The divisor's forms in triple order, the order values multiply in."""
    return sorted(div.entries, key=QForm.triple)


def _embed(q: QuadIrr, p: int, N: int, D1: int, D2: int) -> PTower:
    """Embed into whichever tower slot is square-compatible."""
    for slot, D in ((1, D1), (2, D2)):
        if D == 0:
            continue
        if frac_is_square(Fraction(q.D, D)):
            return PTower.from_quadirr(q, p, N, D1, D2, slot=slot)
    if q.b == 0:
        return PTower.from_rational(q.a, p, N, D1, D2)
    raise MixedDiscriminant(f"no tower slot accepts sqrt({q.D})")


def table_value_fn(table: CocycleTable, at: QuadIrr, p: int, N: int,
                   D1: int, D2: int):
    """g -> (product of the table's factors at g) evaluated at the point,
    inside the fixed (D1, D2) tower."""
    z = _embed(at, p, N, D1, D2)

    def fn(g: Mat) -> PTower:
        div = table.factors_for(g)
        out = PTower.one(p, N, D1, D2)
        for f in _forms(div):
            w = _embed(f.root(), p, N, D1, D2)
            wc = _embed(f.conj_root(), p, N, D1, D2)
            out = out * ((z - w) / (z - wc)) ** div.entries[f]
        return out

    return fn


def value_at(table: CocycleTable, tau: QForm, p: int, N: int,
             D1: int | None = None, D2: int | None = None) -> PTower:
    """J(gamma_tau)(tau): the table's product at the automorph of tau,
    evaluated at tau.  The tower slots default to (disc tau, disc of the
    factors); pass both explicitly to keep several values in one tower."""
    if not is_rm_for(tau, p):
        raise SameOrbit(f"tau is not an RM point for p={p}")
    aut = automorph(tau, p)
    forms = _forms(table.factors_for(aut.gamma))
    if D1 is None:
        D1 = tau.disc
    if D2 is None:
        D2 = forms[0].disc if forms else 0
    for f in forms:
        if orbit_equivalent(f, tau, p):
            raise NotRegular("a factor root lies in the orbit of tau")
    return table_value_fn(table, tau.root(), p, N, D1, D2)(aut.gamma)


def trivial_cocycle_value(tau: QForm, p: int, N: int) -> PTower:
    """Value at tau of the cocycle (a b; c d) -> c z + d: equals the
    fundamental automorph unit of tau embedded in the tower."""
    aut = automorph(tau, p)
    c, d = aut.gamma[1]
    val = tau.root() * c + d
    D1 = tau.disc
    return _embed(val if isinstance(val, QuadIrr) else QuadIrr(val, 0, D1),
                  p, N, D1, 0)


def pair_value(j2, tau: QForm, omega: QForm, p: int) -> PTower:
    """Cap of the 2-cochain with the product of the fundamental cycles:
    j2(a, b) / j2(b, a) for a = (gamma_tau, 1), b = (1, gamma_omega)."""
    if orbit_equivalent(tau, omega, p):
        raise SameOrbit("the pairing needs points in distinct orbits")
    gt = automorph(tau, p).gamma
    go = automorph(omega, p).gamma
    a = (gt, IDENT)
    b = (IDENT, go)
    return j2(a, b) / j2(b, a)


def cross_cochain_eta(i_value_fn, omega: QForm, p: int):
    """The evaluated cross-product of a 1-cochain on the first factor with
    the fundamental 1-class of the stabilizer of omega on the second.

    The wedge of two odd-degree cochains carries the Koszul sign, which in
    multiplicative notation is the inverse exponent: the returned 2-cochain
    is ((g1, h1), (g2, h2)) -> I(g1)^(-eta(h2))."""
    w, eps = omega.root(), automorph(omega, p).eps

    def eta(h: Mat) -> int:
        # h = +-gamma_omega^n fixes w with eigenvalue c w + d = +-eps^n
        (a, b), (c, d) = h
        lam = w * c + d
        if lam == 0 or w * a + b != w * lam:
            raise ValueError("argument does not fix the root of omega")
        lam, n = (lam if quad_sign(lam) > 0 else -lam), 0
        while lam >= eps:
            lam, n = lam / eps, n + 1
        while lam < 1:
            lam, n = lam * eps, n - 1
        if lam != 1:
            raise ValueError("argument is not a power of the automorph")
        return n

    def j2(x, y):
        g1, _h1 = x
        _g2, h2 = y
        return i_value_fn(g1) ** (-eta(h2))

    return j2


def cross_cochain_kappa(j_value_fn):
    """Cross-product of a 2-cochain on the first factor with the degree-zero
    class of the second: ((g1, h1), (g2, h2)) -> J(g1, g2)."""

    def j2(x, y):
        return j_value_fn(x[0], y[0])

    return j2


# ---------------------------------------------------------------------------
# the antisymmetry experiment


def torsion_exponent(p: int) -> int:
    """Exponent killing the roots of unity of the quadratic tower slots."""
    return int(math.lcm(2, p * p - 1))


def _defect_valuation(u: PTower, eps1: PTower, eps2: PTower, window: int) -> int:
    """Largest val((u e1^-k1 e2^-k2)^M - 1) over the exponent window."""
    M = torsion_exponent(u.p)
    best = -10 ** 9
    for k1 in range(-window, window + 1):
        for k2 in range(-window, window + 1):
            try:
                d = u * eps1 ** (-k1) * eps2 ** (-k2)
                y = d ** M
                v = y.congruent_one_valuation()
            except (NotInvertible, PrecisionExhausted):
                continue
            best = max(best, v)
    return best


def truncated_theta_table(base: QForm, gamma: Mat, x0: HPoint, p: int,
                          levels: int) -> CocycleTable:
    """Cochain entry at gamma: conjugate-paired factors over the crossing
    divisor of the base orbit."""
    return CocycleTable({gamma: dv_value(base, gamma, x0, p, levels)})


def antisym_experiment(f1: QForm, f2: QForm, p: int, N: int, levels: int,
                       radius: int = 5,
                       x0: HPoint | None = None) -> dict:
    """Truncated antisymmetry data: at each truncation level k <= levels,
    A_k = (theta cochain of f2)(gamma_tau)(tau) and B_k with the roles
    swapped; the report records the valuation distance of A_k B_k from the
    subgroup generated by roots of unity and the two automorph units,
    maximized over exponents |k_i| <= radius.  Monotonicity of the defect
    column is the internal-consistency signal; no external ground truth is
    asserted."""
    if orbit_equivalent(f1, f2, p):
        raise SameOrbit("the experiment needs points in distinct orbits")
    tau, omega = f1, f2
    D1, D2 = tau.disc, omega.disc
    aut_t = automorph(tau, p)
    aut_o = automorph(omega, p)
    eps_t = PTower.from_quadirr(aut_t.eps, p, N, D1, D2, slot=1)
    eps_o = PTower.from_quadirr(aut_o.eps, p, N, D1, D2, slot=2)
    base_x0 = x0 if x0 is not None else HPoint(Fraction(1, 5), Fraction(1, 5))
    steps = []
    for k in range(1, levels + 1):
        row = None
        for x in perturbed_base_points(base_x0):
            try:
                t_omega = truncated_theta_table(omega, aut_t.gamma, x, p, k)
                t_tau = truncated_theta_table(tau, aut_o.gamma, x, p, k)
            except DegenerateEndpoint:
                continue
            n_a = len(t_omega.factors_for(aut_t.gamma).entries)
            n_b = len(t_tau.factors_for(aut_o.gamma).entries)
            if n_a == 0 and n_b == 0:
                row = {"level": k, "defect": None, "factors_a": 0,
                       "factors_b": 0, "note": "no data"}
                break
            # the product of many factors loses tracked digits; raise the
            # working precision until the result is honest modulo p^N (a
            # zero divisor at too low a precision asks for more digits too)
            n_int, prod = N + 8, None
            for _ in range(12):
                try:
                    prod = (value_at(t_omega, tau, p, n_int, D1=D1, D2=D2)
                            * value_at(t_tau, omega, p, n_int, D1=D1, D2=D2))
                except NotInvertible as exc:
                    err = exc
                    n_int += N
                    continue
                if prod.abs_prec >= N:
                    break
                n_int += N - prod.abs_prec + 4
            else:
                if prod is None:
                    raise err
                raise PrecisionExhausted(
                    f"no working precision up to {n_int} gives {N} digits")
            defect = _defect_valuation(prod, eps_t, eps_o, radius)
            row = {"level": k, "defect": min(defect, N),
                   "working_precision": n_int,
                   "factors_a": n_a, "factors_b": n_b,
                   "value": prod.text()}
            break
        if row is None:
            raise DegenerateEndpoint("no base point avoided all geodesics")
        steps.append(row)
    report = {
        "f1": f1.triple(), "f2": f2.triple(), "p": p, "precision": N,
        "levels": levels, "exponent_window": radius,
        "torsion_exponent": torsion_exponent(p),
        "steps": steps,
    }
    defs = [s["defect"] for s in steps if s["defect"] is not None]
    report["nondecreasing"] = all(a <= b for a, b in zip(defs, defs[1:]))
    return report
