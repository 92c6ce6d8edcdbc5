"""Q-ideals: ideals of polynomials over Q (MPoly) raised to nonnegative
rational exponents, kept formal, with sums, products, rational powers,
orders along arcs, and formal fractions of two Q-ideals (the criterion's
plus/minus pair) with the one-variable log-canonicity test lc_dim1.

A Q-ideal is the sum of its terms, each a product of generators raised to
positive rational exponents; QIdeal(gens, q) is the sum of the g^q.  A sum
is the union of terms, a product every pairwise product of terms (the
exponents of a shared generator add), a power scales every exponent.  No
operation multiplies polynomials, and terms and factors keep their
first-seen order, so output does not depend on the hash seed.

Only orders along arcs are read: a term's order is sum e * ord(g), and a
Q-ideal's the least of its terms'.  The semigroup laws ord(I + J) = min,
ord(I J) = sum and ord(I^q) = q ord make this exact, and two Q-ideals with
equal orders along every arc have the same integral closure.  Equality of
Q-ideals is never tested structurally: tests compare orders along arcs.
"""

from __future__ import annotations

from fractions import Fraction

from .mpoly import MPoly
from .series import (
    NO, UNKNOWN, YES, OrderVal, _json_rational, as_frac, frac_str,
)


class QIdeal:
    """The sum of the terms g^exp over the MPoly generators g (ints and
    Fractions become constants), exp a rational >= 0.

    The zero Q-ideal has no terms and equals (0)^q for every q; its order
    along any arc is infinite.  The unit Q-ideal is the one empty term.
    """

    __slots__ = ("terms",)

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
        self.terms = _union(((g, exp),) if exp else () for g in kept)

    @property
    def is_zero(self):
        return not self.terms

    @classmethod
    def zero(cls):
        return cls((), 0, allow_zero=True)

    @classmethod
    def unit(cls):
        return _of([()])

    @classmethod
    def principal(cls, gen, exp=1):
        return cls((gen,), exp)

    def __repr__(self):
        if self.is_zero:
            return "(0)"
        return " + ".join(
            "*".join(f"({g!r})^{frac_str(e)}" for g, e in t) or "(1)"
            for t in self.terms)

    def to_json(self):
        return {"terms": [[{"gen": g.to_json(), "exp": frac_str(e)}
                           for g, e in t] for t in self.terms]}

    @classmethod
    def from_json(cls, obj):
        """The Q-ideal that to_json wrote.  A malformed object is a
        ValueError that names the field at fault."""
        terms = obj.get("terms") if isinstance(obj, dict) else None
        if not (isinstance(terms, list) and all(
                isinstance(t, list) and all(
                    isinstance(f, dict) and "gen" in f
                    and _json_rational(f.get("exp")) for f in t)
                for t in terms)):
            raise ValueError('Q-ideal JSON field "terms" must be a list of '
                             'lists of {"gen": polynomial, "exp": rational} '
                             'objects')
        terms = [tuple((MPoly.from_json(f["gen"]), Fraction(f["exp"]))
                       for f in t) for t in terms]
        if any(e <= 0 for t in terms for _, e in t):
            raise ValueError('Q-ideal JSON field "exp" must be positive')
        return _of(_union(terms))


def _of(terms) -> QIdeal:
    """The Q-ideal with the given tuple of terms."""
    a = object.__new__(QIdeal)
    a.terms = tuple(terms)
    return a


def _union(terms):
    """The distinct terms, in first-seen order."""
    return tuple(dict.fromkeys(terms))


def _term_product(s, t):
    """s * t, the exponents of a shared generator added."""
    exps = dict(s)
    for g, e in t:
        exps[g] = exps.get(g, 0) + e
    return tuple(exps.items())


def qi_product(ideals) -> QIdeal:
    """Product of Q-ideals: every product of one term from each."""
    terms = ((),)
    for a in ideals:
        terms = _union(_term_product(s, t) for s in terms for t in a.terms)
    return _of(terms)


def qi_sum(ideals) -> QIdeal:
    """Sum of Q-ideals: the union of their terms."""
    return _of(_union(t for a in ideals for t in a.terms))


def qi_power(a: QIdeal, q) -> QIdeal:
    """Rational power: every exponent multiplies by q (a power 0 is the
    unit, or the zero ideal again)."""
    q = as_frac(q)
    if q < 0:
        raise ValueError("rational power must be nonnegative")
    return _of(_union(tuple((g, e * q) for g, e in t) if q else ()
                      for t in a.terms))


def qi_ord(a: QIdeal, arc) -> OrderVal:
    """Order of vanishing along an arc, a map from each generator variable
    to a series of positive order in one variable: the least order of a
    term, sum e * ord(g) over its factors, in interval semantics.  Each
    distinct generator is evaluated along the arc once."""
    if a.is_zero:
        return OrderVal.infinite()
    for v, u in arc.items():
        if u.order().lower <= 0:
            raise ValueError(f"arc component {v!r} must have positive order")
    orders = {}
    vals = []
    for t in a.terms:
        total = OrderVal.exact(0)
        for g, e in t:
            if g not in orders:
                for v in g.vars:
                    if v not in arc:
                        raise ValueError(
                            f"arc does not cover variable {v!r}")
                orders[g] = g.eval_series(
                    {v: arc[v] for v in g.vars}).order()
            total = total + orders[g].scale(e)
        vals.append(total)
    return OrderVal.min_of(vals)


class QIdealFrac:
    """Formal fraction numer * denom^(-1) of two Q-ideals; the denominator
    defaults to the unit ideal."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer, denom=None):
        self.numer = numer
        self.denom = QIdeal.unit() if denom is None else denom

    def ord_numer(self, arc) -> OrderVal:
        return qi_ord(self.numer, arc)

    def ord_denom(self, arc) -> OrderVal:
        return qi_ord(self.denom, arc)

    def to_json(self):
        return {"num": self.numer.to_json(), "den": self.denom.to_json()}

    @classmethod
    def from_json(cls, obj):
        """The pair that to_json wrote.  A malformed object is a
        ValueError that names the field at fault."""
        for field in ("num", "den"):
            if not isinstance(obj, dict) or field not in obj:
                raise ValueError(f'pair JSON lacks the field "{field}"')
        return cls(QIdeal.from_json(obj["num"]), QIdeal.from_json(obj["den"]))


def lc_dim1(pair: QIdealFrac, arc):
    """One-variable log-canonicity test for a fraction of Q-ideals:
    yes iff ord(numer) - ord(denom) <= 1 along the arc, with interval-aware
    verdicts.

    Raises ValueError when either part is the zero Q-ideal (malformed
    pair)."""
    if pair.numer.is_zero or pair.denom.is_zero:
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
