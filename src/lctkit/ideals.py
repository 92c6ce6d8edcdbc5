"""The paper's criterion ideals: the Q-ideals built from root products and
root differences, the root-integrality pack, the symbolic plus/minus pair
(closed form for d <= 3), the degree-3 and bottom-band specializations, and
the containment check of the pair along one arc.

These serve as validation routes for criterion.lct_ge and are not on its
path.  Every ideal is a formal qideal.QIdeal and the pair a
qideal.QIdealFrac of two of them, read through their orders along arcs;
only the root-integrality pack multiplies polynomials out.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .criterion import CriterionContext, _validate_coeffs, choose_p
from .errors import BudgetError, ConsistencyError
from .mpoly import (
    MPoly, generic_compound_coeffs, generic_difference_coeffs, taylor_shift,
    z_vars,
)
from .poly import UPoly
from .qideal import (
    QIdeal, QIdealFrac, ord_diff_le_one, qi_power, qi_product, qi_sum,
)
from .series import OrderVal, PSeries, as_frac, as_int, frac_str

_EXACT_ZERO = OrderVal.exact(0)


# ---------------------------------------------------------------------------
# Criterion ideals
# ---------------------------------------------------------------------------

def _z(i, e) -> QIdeal:
    """(z_i)^e; the unit ideal at e = 0."""
    return QIdeal.principal(MPoly.variable(f"z{i}"), e)


def _degree(d):
    """d, a plain int of at least 1, else the TypeError or ValueError that
    names it."""
    if as_int(d, "degree") < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    return d


def _root_sum(coeffs) -> QIdeal:
    """Sum over ell of (coeffs[ell - 1])^(1/ell), zero coefficients
    dropped."""
    return qi_sum([QIdeal([g], Fraction(1, ell), allow_zero=True)
                   for ell, g in enumerate(coeffs, start=1)])


def build_b(d: int) -> QIdeal:
    """Sum of (z_i)^(1/i): its order at (a_1..a_d) is the smallest root
    order."""
    d = _degree(d)
    return qi_sum([_z(i, Fraction(1, i)) for i in range(1, d + 1)])


def build_c(d: int) -> QIdeal:
    """Sum of (z_(d-i))^(1/i) (z_d)^((i-1)/i) with z_0 the unit; subtracting
    its order from ord(a_d) gives the largest root order."""
    d = _degree(d)
    return qi_sum([
        qi_product([_z(d - i, Fraction(1, i)) if i < d else QIdeal.unit(),
                    _z(d, Fraction(i - 1, i))])
        for i in range(1, d + 1)])


def build_bk(d: int, k: int) -> QIdeal:
    """Sum over ell of (A_k^(ell))^(1/ell), where A_k^(ell) expresses the
    ell-th symmetric function of the products of k distinct roots in the
    coefficients.  Its order at (a_1..a_d) is the smallest order among those
    products."""
    d, k = _degree(d), as_int(k, "k")
    return _root_sum(generic_compound_coeffs(d, k))


@lru_cache(maxsize=None)
def _generic_shifted_compound(d, k):
    """A_k^(ell) evaluated at the coefficients of the generic h(y + w):
    polynomials in z_1..z_d and w."""
    hgen = UPoly("y", [MPoly.variable(v) for v in z_vars(d)])
    shifted = taylor_shift(hgen, MPoly.variable("w"))
    mapping = {f"z{i}": shifted.coeff(i) for i in range(1, d + 1)}
    return tuple(c.substitute(mapping) for c in generic_compound_coeffs(d, k))


def build_tilde_bk(d: int, k: int) -> QIdeal:
    """Shifted variant of build_bk: generators live in z_1..z_d and w, and
    the order at (a_1..a_d, w) is the smallest order among products of k
    distinct (alpha_j - w)."""
    d, k = _degree(d), as_int(k, "k")
    if k == 0:
        return QIdeal.unit()
    return _root_sum(_generic_shifted_compound(d, k))


def build_bbar_k(d: int, k: int) -> QIdeal:
    """The explicit monomial form: sum over index tuples (i_1..i_k) with
    i_m >= k - m + 1 of the rational monomial power prod (z_(i_m))^(j_m)."""
    d, k = _degree(d), as_int(k, "k")
    if not 1 <= k <= d:
        raise ValueError("k out of range")
    tuples = [[]]
    for m in range(1, k + 1):
        tuples = [t + [i] for t in tuples for i in range(k - m + 1, d + 1)]
    parts = []
    for tup in tuples:
        factors = []
        for m, i in enumerate(tup, start=1):
            j = Fraction(1, i - k + m)
            for ell in range(1, m):
                il = tup[ell - 1]
                j *= Fraction(il - k + ell - 1, il - k + ell)
            factors.append(_z(i, j))
        parts.append(qi_product(factors))
    return qi_sum(parts)


# ---------------------------------------------------------------------------
# Root-integrality pack
# ---------------------------------------------------------------------------

class Cor3Pack(namedtuple("Cor3Pack", "polys modulus")):
    """Polynomials P_i in the coefficients and a modulus m: if m divides
    ord(P_i(a)) for every i, all roots are unramified."""
    __slots__ = ()


COR3_BUDGET = 2


def build_cor3_pack(d: int) -> Cor3Pack:
    """Divisibility pack from the difference polynomial: each term of the
    bbar_k ideals of its coefficients, multiplied out as prod g^(e m) at
    the common denominator m of the exponents.  That is only tractable for
    d <= 2: the terms of a degree d(d-1) polynomial's ideals raise
    generators to lcm-sized powers."""
    if _degree(d) > COR3_BUDGET:
        raise BudgetError(
            f"integrality pack limited to d <= {COR3_BUDGET}; use "
            "integrality_test for larger degrees")
    if d == 1:
        return Cor3Pack((), 1)
    big_d = d * (d - 1)
    bcoeffs = generic_difference_coeffs(d)
    mapping = {f"z{i}": bcoeffs[i - 1] for i in range(1, big_d + 1)}
    terms = []
    for k in range(1, big_d + 1):
        for t in build_bbar_k(big_d, k).terms:
            t = [(g.substitute(mapping), e) for g, e in t]
            if not any(g.is_zero() for g, _ in t):
                terms.append(t)
    m = math.lcm(*(e.denominator for t in terms for _, e in t))
    polys = []
    for t in terms:
        p = math.prod(g ** int(e * m) for g, e in t)
        if p not in polys:
            polys.append(p)
    return Cor3Pack(tuple(polys), m)


def cor3_divisibility(pack: Cor3Pack, coeffs) -> bool:
    """True when the modulus divides the order of every pack polynomial
    evaluated at the given series coefficients (infinite orders pass)."""
    d = len(coeffs)
    mapping = {f"z{i}": coeffs[i - 1] for i in range(1, d + 1)}
    for p in pack.polys:
        val = p.eval_series(mapping)
        ov = val.order()
        if ov.is_infinite:
            continue
        if not ov.is_exact:
            return False
        if ov.value.denominator != 1 or ov.value % pack.modulus != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# The plus/minus pair (symbolic route, d <= 3)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pair_ideals(d):
    """build_p_plus_minus's Q-ideals, built once per degree: the
    discriminant ideal and, at d = 3, (z2^3, z3^2)."""
    z1, z2, z3 = (MPoly.variable(f"z{i}") for i in (1, 2, 3))
    if d == 2:
        return QIdeal.principal(z1 ** 2 - 4 * z2), None
    return (QIdeal.principal(4 * z2 ** 3 + 27 * z3 ** 2),
            QIdeal([z2 ** 3, z3 ** 2], 1))


def build_p_plus_minus(ctx: CriterionContext) -> QIdealFrac:
    """Closed forms of the plus/minus pair, as the fraction plus / minus.

    d = 2: plus = (z1^2 - 4 z2)^(c2/2), minus trivial.
    d = 3 (depressed input a_1 = 0, ideals in z2, z3):
      p = 1: plus = (z2^3, z3^2)^(c2/6), minus trivial;
      p = 2: split on the sign of c2 - c1 around the discriminant ideal.
    """
    d, c1, c2 = ctx.d, ctx.c1, ctx.c2
    if d > 3:
        raise ValueError("symbolic plus/minus pair is built for d <= 3 only")
    disc, mideal = _pair_ideals(d)
    if d == 2:
        return QIdealFrac(qi_power(disc, c2 / 2))
    if ctx.p == 1:
        return QIdealFrac(qi_power(mideal, c2 / 6))
    if c2 >= c1:
        return QIdealFrac(qi_power(disc, c2 / 2),
                          qi_power(mideal, (c2 - c1) / 6))
    return QIdealFrac(qi_product([qi_power(disc, c2 / 2),
                                  qi_power(mideal, (c1 - c2) / 6)]))


# ---------------------------------------------------------------------------
# The explicit specializations
# ---------------------------------------------------------------------------

def degree3_test(a: PSeries, b: PSeries, c):
    """Explicit degree-3 criterion for the depressed cubic y^3 + a(x) y +
    b(x): build_p_plus_minus's d = 3 pair along z2 -> a, z3 -> b, decided
    by lc_dim1's rule (ord_diff_le_one) on the pair's two orders, which are
    also the diagnostics.  Neither part of the pair is the zero ideal, so
    lc_dim1's malformed-pair check has nothing to refuse.

    For 1/3 < c <= 1/2 the pair is ((a^3, b^2)^((3c-1)/6), trivial); for
    1/2 < c <= 1 the discriminant ideal (4a^3 + 27b^2)^(c - 1/2) combines
    with (a^3, b^2)^((2-3c)/6), the latter moving to the denominator when
    c > 2/3.  A vanishing discriminant (a repeated root) gives an infinite
    numerator order, which is never log canonical.
    """
    ctx = choose_p(3, c)
    for s, name in ((a, "a"), (b, "b")):
        if not s.has_positive_order:
            raise ValueError(f"coefficient {name} must have positive order")
    pair = build_p_plus_minus(ctx)
    arc = {"z2": a, "z3": b}
    on, od = pair.ord_numer(arc), pair.ord_denom(arc)
    diag = {"c": frac_str(ctx.c), "ord_plus": on.to_json()}
    if ctx.p == 2:
        diag["ord_minus"] = od.to_json()
    return ord_diff_le_one(on, od), diag


def example3_test(d: int, c, tail):
    """Bottom band 1/d < c <= 1/(d-1) with a_1 = 0: the verdict is
    (cd - 1) * ord of the sum of (z_i)^(1/i) over i >= 2, tested against 1."""
    c = as_frac(c)
    if as_int(d, "degree") < 2:
        raise ValueError("d must be at least 2")
    if not (Fraction(1, d) < c <= Fraction(1, d - 1)):
        raise ValueError(f"c must lie in (1/{d}, 1/{d - 1}]")
    tail = list(tail)
    if len(tail) != d - 1:
        raise ValueError(f"expected coefficients a_2..a_{d}")
    for a in tail:
        if not a.has_positive_order:
            raise ValueError("coefficients must have positive order")
    vals = [a.order().scale(Fraction(1, i))
            for i, a in enumerate(tail, start=2)]
    ord_p = OrderVal.min_of(vals)
    v = ord_p.scale(c * d - 1)
    return ord_diff_le_one(v, _EXACT_ZERO)


def depressed_cubic(a1: PSeries, a2: PSeries, a3: PSeries):
    """Coordinate shift y -> y - a1/3 removing the quadratic coefficient;
    returns (a, b) with y^3 + a y + b."""
    h = UPoly("y", [a1, a2, a3])
    shifted = taylor_shift(h, a1.scale(Fraction(-1, 3)))
    if not shifted.coeff(1).is_zero():
        raise ConsistencyError(
            "depression failed to clear the quadratic term")
    return shifted.coeff(2), shifted.coeff(3)


# ---------------------------------------------------------------------------
# Containment of the pair (the d/(d-1) bound)
# ---------------------------------------------------------------------------

def containment_check(ctx: CriterionContext, coeffs):
    """Checks ord(plus) >= (d/(d-1)) * ord(minus) for build_p_plus_minus's
    pair along one arc, z_i -> a_i(x), with a cubic depressed first (its
    pair lives in z2, z3).  An ideal bound holds for the integral closure
    exactly when it holds along every arc (the valuative criterion), so a
    caller samples arcs.  `pass` is true only when the bound holds for
    certain; d > 3 raises build_p_plus_minus's ValueError.

    On an exact arc the check cannot fail: at d = 2, and at d = 3 with
    p = 1 or c2 < c1, the minus side is empty; otherwise ord(4a^3 + 27b^2)
    >= M = min(3 ord a, 2 ord b), so ord plus >= (c2/2) M >= (c2 - c1) M / 4
    = (3/2) ord minus.  Only a truncated arc can make `pass` false."""
    pair = build_p_plus_minus(ctx)
    _validate_coeffs(coeffs, ctx.d)
    if ctx.d == 3:
        a, b = depressed_cubic(*coeffs)
        arc = {"z2": a, "z3": b}
    else:
        arc = {"z1": coeffs[0], "z2": coeffs[1]}
    plus, minus = pair.ord_numer(arc), pair.ord_denom(arc)
    bound = minus.scale(Fraction(ctx.d, ctx.d - 1))
    return {"pass": plus.ge(bound) is True, "ord_plus": plus.to_json(),
            "ord_minus": minus.to_json()}
