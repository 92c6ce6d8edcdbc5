"""Q-ideals: finitely generated ideals of polynomials over Q (MPoly) raised
to nonnegative rational exponents, with sums, products, rational powers,
orders of vanishing along arcs, and formal fractions of their products (the
criterion's plus/minus pair) with the one-variable log-canonicity test
lc_dim1.

Only order-along-arc semantics are implemented; the integral-closure order
relation between Q-ideals is out of scope.  Equality of Q-ideals is never
tested structurally anywhere in this package: tests compare orders along
sampled arcs instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BudgetError
from .mpoly import MPoly
from .series import NO, UNKNOWN, YES, OrderVal, as_frac, frac_str


class QIdeal:
    """MPoly generators (ints and Fractions become constants) with a
    rational exponent >= 0.

    The zero Q-ideal carries no generators and is equal to (0)^q for every
    q; its order along any arc is infinite.
    """

    __slots__ = ("gens", "exp", "is_zero")

    def __init__(self, gens, exp, *, allow_zero=False):
        exp = as_frac(exp)
        if exp < 0:
            raise ValueError("Q-ideal exponent must be nonnegative")
        kept = []
        for g in gens:
            if isinstance(g, (int, Fraction)):
                g = MPoly.const(g)
            elif not isinstance(g, MPoly):
                raise TypeError("generators must be MPoly")
            if not g.is_zero():
                kept.append(g)
        if not kept and not allow_zero:
            raise ValueError(
                "no nonzero generators; use QIdeal.zero() for the zero ideal")
        self.gens = tuple(kept)
        self.exp = exp
        self.is_zero = not kept

    @classmethod
    def zero(cls):
        return cls((), Fraction(0), allow_zero=True)

    @classmethod
    def unit(cls):
        return cls((MPoly.const(1),), Fraction(1))

    @classmethod
    def principal(cls, gen, exp=1):
        return cls((gen,), exp)

    def __repr__(self):
        if self.is_zero:
            return "(0)"
        body = ", ".join(repr(g) for g in self.gens)
        return f"({body})^{frac_str(self.exp)}"

    def to_json(self):
        if self.is_zero:
            return {"exp": frac_str(self.exp), "gens": []}
        return {"exp": frac_str(self.exp),
                "gens": [g.to_json() for g in self.gens]}

    @classmethod
    def from_json(cls, obj):
        gens = [MPoly.from_json(g) for g in obj["gens"]]
        if not gens:
            return cls.zero()
        return cls(gens, Fraction(obj["exp"]))


# The term products one sum or product of Q-ideals may spend, its integer
# powers included.  `lctkit criterion` spends at most 9508 at d = 2, 3 and a
# denominator <= 100; it is admitted at every denominator up to 258 (d = 2)
# and 256 (d = 3), in at most 0.5 s a process (CPython 3.11, 2-core shared
# host), and refuses c = 7919/7920, whose (z1^2 - 4 z2)^3959 takes minutes
# to multiply out, as fast.
_POWER_BUDGET = 65536


def _mul(x, y, work):
    """x * y, adding its len(x) * len(y) term products to work[0], the count
    of one sum or product of Q-ideals; BudgetError past _POWER_BUDGET."""
    work[0] += len(x.terms) * len(y.terms)
    if work[0] > _POWER_BUDGET:
        raise BudgetError(f"materializing a Q-ideal exceeds its budget of "
                          f"{_POWER_BUDGET} term products")
    return x * y


def _int_power_gens(gens, k, work):
    """Generators of J^k: the k-fold products g_1^(e_1)...g_n^(e_n) with
    e_1 + ... + e_n = k, built incrementally (one multiplication per node)
    from the unit, which is J^0."""
    n = len(gens)
    out = []

    def rec(i, remaining, acc):
        if i == n - 1:
            cur = acc
            for _ in range(remaining):
                cur = _mul(cur, gens[i], work)
            out.append(cur)
            return
        cur = acc
        for e in range(remaining + 1):
            rec(i + 1, remaining - e, cur)
            if e < remaining:
                cur = _mul(cur, gens[i], work)

    rec(0, k, MPoly.const(1))
    return tuple(_dedup(out))


def _dedup(gens):
    return list(dict.fromkeys(gens))


def qi_product(ideals) -> QIdeal:
    """Product of Q-ideals at the minimal common denominator m:
    prod J_i^(q_i) = (prod J_i^(m q_i))^(1/m)."""
    ideals = list(ideals)
    if not ideals:
        return QIdeal.unit()
    if any(a.is_zero for a in ideals):
        return QIdeal.zero()
    m = math.lcm(*(a.exp.denominator for a in ideals))
    work = [0]
    gens = None
    for a in ideals:
        k = int(a.exp * m)
        gk = _int_power_gens(a.gens, k, work)
        if gens is None:
            gens = list(gk)
        else:
            gens = _dedup([_mul(x, y, work) for x in gens for y in gk])
    return QIdeal(gens, Fraction(1, m))


def qi_sum(ideals) -> QIdeal:
    """Sum of Q-ideals at the minimal common denominator m:
    sum J_i^(q_i) = (sum J_i^(m q_i))^(1/m)."""
    ideals = [a for a in ideals if not a.is_zero]
    if not ideals:
        return QIdeal.zero()
    m = math.lcm(*(a.exp.denominator for a in ideals))
    work = [0]
    gens = []
    for a in ideals:
        k = int(a.exp * m)
        gens.extend(_int_power_gens(a.gens, k, work))
    return QIdeal(_dedup(gens), Fraction(1, m))


def qi_power(a: QIdeal, q) -> QIdeal:
    """Rational power: exponent multiplies, generators unchanged."""
    q = as_frac(q)
    if q < 0:
        raise ValueError("rational power must be nonnegative")
    if a.is_zero:
        return QIdeal.zero()
    return QIdeal(a.gens, a.exp * q)


def _gen_order(gen, arc) -> OrderVal:
    for v in gen.vars:
        if v not in arc:
            raise ValueError(f"arc does not cover variable {v!r}")
    return gen.eval_series({v: arc[v] for v in gen.vars}).order()


def qi_ord(a: QIdeal, arc) -> OrderVal:
    """Order of vanishing along an arc, a map from each generator variable
    to a series of positive order in one variable: the exponent times the
    minimum of the generator orders, in interval semantics."""
    if a.is_zero:
        return OrderVal.infinite()
    for v, u in arc.items():
        if u.order().lower <= 0:
            raise ValueError(f"arc component {v!r} must have positive order")
    vals = [_gen_order(g, arc) for g in a.gens]
    return OrderVal.min_of(vals).scale(a.exp)


class QIdealFrac:
    """Formal fraction numer * denom^(-1) of two products of Q-ideals, each
    a tuple of factors (Q-ideal, exponent >= 0); a plain Q-ideal J is the
    one-factor product ((J, 1),).  Orders along an arc are read factor by
    factor (the semigroup laws make this exact), so only numer, denom and
    to_json build generators."""

    __slots__ = ("numer_factors", "denom_factors")

    def __init__(self, numer_factors=(), denom_factors=()):
        self.numer_factors = tuple(numer_factors)
        self.denom_factors = tuple(denom_factors)

    def ord_numer(self, arc) -> OrderVal:
        return _factors_ord(self.numer_factors, arc)

    def ord_denom(self, arc) -> OrderVal:
        return _factors_ord(self.denom_factors, arc)

    @property
    def numer(self) -> QIdeal:
        return _factors_ideal(self.numer_factors)

    @property
    def denom(self) -> QIdeal:
        return _factors_ideal(self.denom_factors)

    def to_json(self):
        return {"num": self.numer.to_json(), "den": self.denom.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls([(QIdeal.from_json(obj["num"]), 1)],
                   [(QIdeal.from_json(obj["den"]), 1)])


def _factors_ord(factors, arc) -> OrderVal:
    total = OrderVal.exact(0)
    for base, e in factors:
        total = total + qi_ord(base, arc).scale(e)
    return total


def _factors_ideal(factors) -> QIdeal:
    """The product as one Q-ideal; a plain Q-ideal is returned as given."""
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0]
    return qi_product([qi_power(base, e) for base, e in factors])


def lc_dim1(pair: QIdealFrac, arc):
    """One-variable log-canonicity test for a fraction of Q-ideals:
    yes iff ord(numer) - ord(denom) <= 1 along the arc, with interval-aware
    verdicts.

    Raises ValueError when either part has a zero Q-ideal factor
    (malformed pair)."""
    if any(base.is_zero
           for base, _ in pair.numer_factors + pair.denom_factors):
        raise ValueError("log-canonicity test on a zero Q-ideal")
    return ord_diff_le_one(pair.ord_numer(arc), pair.ord_denom(arc))


def ord_diff_le_one(on: OrderVal, od: OrderVal):
    """Three-way verdict for ord(numer) - ord(denom) <= 1 (inf - inf = inf)."""
    if on.is_infinite:
        return NO
    if on.is_exact:
        if od.is_infinite:
            return YES  # finite minus infinite
        if od.is_exact:
            return YES if on.value - od.value <= 1 else NO
        # od true value >= od.value, so diff <= on.value - od.value
        return YES if on.value - od.value <= 1 else UNKNOWN
    # on is at-least: true value in [on.value, inf]
    if od.is_exact:
        return NO if on.value - od.value > 1 else UNKNOWN
    return UNKNOWN
