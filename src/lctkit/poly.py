"""Monic univariate polynomials over series (or over the polynomials of
lctkit.mpoly) and the power-sum kernel: the auxiliary monic polynomials
whose roots are the differences or products of the roots of a given
polynomial.

The difference, cross-difference and compound polynomials come from one
kernel: root power sums by Newton's identities, combined and turned back
into coefficients by the same identities run in reverse.  The identities
are written once, over a domain that supplies their multiply-accumulate
and exact division.  Every polynomial that is built runs them on its own
coefficients: series through `sum_of_products`, polynomials by a plain
fold.  Compound polynomials have no degree cap.

This module is the decision path's share of the polynomial layer.  The
symbolic layer (multivariate polynomials over Q, Taylor shifts, resultants,
the value polynomial and the dense Q[t] helpers) is lctkit.mpoly, which
imports this module and is never imported by it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .series import PSeries, as_int, sum_of_products


# ---------------------------------------------------------------------------
# The coefficient domain.  Elements are PSeries, or polynomials over Q in
# named variables (lctkit.mpoly) with `const(c)`; both support +, -,
# *, scale and is_zero.
# ---------------------------------------------------------------------------

def _lift(value, template):
    """Coerce ints/Fractions into the domain of `template`."""
    if isinstance(value, (int, Fraction)):
        if isinstance(template, PSeries):
            return PSeries.const(template.var, value)
        return type(template).const(value)
    return value


class UPoly:
    """Monic univariate polynomial y^d + a_1 y^(d-1) + ... + a_d with
    coefficients a_i in one shared domain (see _lift)."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("UPoly degree must be positive")
        template = next((c for c in coeffs if hasattr(c, "is_zero")), None)
        if template is None:
            raise ValueError(
                "coefficients must include at least one polynomial or series")
        kind = type(template)
        coeffs = tuple(c if type(c) is kind else _lift(c, template)
                       for c in coeffs)
        if any(type(c) is not kind for c in coeffs):
            raise ValueError("coefficient domain must be homogeneous")
        if kind is PSeries and any(c.var != template.var for c in coeffs):
            raise ValueError("series coefficients use different variables")
        self.var = var
        self.coeffs = coeffs

    @classmethod
    def of_series(cls, var, coeffs):
        """The polynomial of a checked tuple of coefficients in one domain:
        series in one variable, or polynomials of one type.  Nothing is
        lifted or checked."""
        h = object.__new__(cls)
        h.var, h.coeffs = var, coeffs
        return h

    @property
    def degree(self):
        return len(self.coeffs)

    @property
    def is_series(self):
        return isinstance(self.coeffs[0], PSeries)

    def coeff(self, i):
        """a_i for 1 <= i <= d; a_0 is the implicit leading 1."""
        if i == 0:
            return _lift(1, self.coeffs[0])
        return self.coeffs[i - 1]

    def dense(self):
        """Descending coefficient list [1, a_1, ..., a_d]."""
        return [_lift(1, self.coeffs[0])] + list(self.coeffs)

    @classmethod
    def from_roots(cls, var, roots):
        """Monic product of (y - r) over the given roots: domain elements,
        with ints and Fractions among them lifted into that domain."""
        roots = list(roots)
        if not roots:
            raise ValueError("need at least one root")
        # the constructor lifts them into one domain, or refuses them
        roots = cls(var, roots).coeffs
        dense = [_lift(1, roots[0])]
        for r in roots:
            dense.append(_lift(0, r))
            for i in range(len(dense) - 2, -1, -1):
                shifted = dense[i] * r
                dense[i + 1] = dense[i + 1] - shifted
        return cls(var, dense[1:])

    def evaluate(self, w):
        """h(w) by Horner; w in the coefficient domain."""
        w = _lift(w, self.coeffs[0])
        acc = _lift(1, self.coeffs[0])
        for a in self.coeffs:
            acc = acc * w + a
        return acc

    def __eq__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __repr__(self):
        y = self.var
        parts = [f"{y}^{self.degree}"]
        for i, a in enumerate(self.coeffs, start=1):
            if a.is_zero():
                continue
            e = self.degree - i
            ys = "" if e == 0 else (y if e == 1 else f"{y}^{e}")
            parts.append(f"({a!r}){ys}" if ys else f"({a!r})")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Root power sums: one kernel for the polynomials whose roots are
# differences, products or polynomial images of roots (Bostan, Flajolet,
# Salvy and Schost, "Fast computation of special resultants", J. Symbolic
# Comput. 41, 2006).
#
# Newton's identities are written once, over a domain that supplies
# `const(c)`, the multiply-accumulate `mac(terms)` (the sum of k*a*b over
# (k, a, b) triples with int k, k*a where b is None) and the exact division
# `div(x, k)`.  Every polynomial built from roots runs them over `_Exact`:
# series through `sum_of_products`, polynomial coefficients by a fold.
# ---------------------------------------------------------------------------

class _Exact:
    """Series or polynomial coefficients: one `sum_of_products` per
    identity over series, a plain fold over polynomials."""

    def __init__(self, template):
        self.template = template

    def const(self, c):
        return _lift(c, self.template)

    def mac(self, terms):
        if isinstance(self.template, PSeries):
            return sum_of_products(self.template.var, terms)
        acc = self.const(0)
        for k, a, b in terms:
            acc = acc + (a if b is None else a * b).scale(k)
        return acc

    @staticmethod
    def div(x, k):
        return x.scale(Fraction(1, k))


def power_sums(dom, a, n):
    """Root power sums s_0..s_n of the monic polynomial with coefficients
    a = [a_1, ..., a_d] over `dom`, by Newton's identities
    s_k = -(k a_k + a_1 s_(k-1) + ... + a_(k-1) s_1), where a_k = 0 for
    k > d and the sum stops at a_d."""
    d = len(a)
    s = [dom.const(d)]
    for k in range(1, n + 1):
        terms = [(-1, x, y) for x, y in zip(a, s[:0:-1])]
        if k <= d:
            terms.append((-k, a[k - 1], None))
        s.append(dom.mac(terms))
    return s


def from_power_sums(dom, p, n):
    """Coefficients a_1..a_n over `dom` of the monic degree-n polynomial
    whose root power sums are p[1..n] (p[0] is not read): Newton's
    identities in reverse, k a_k = -(p_k + a_1 p_(k-1) + ... +
    a_(k-1) p_1), each an exact division by k."""
    a = []
    for k in range(1, n + 1):
        terms = [(-1, x, y) for x, y in zip(a, p[k - 1:0:-1])]
        terms.append((-1, p[k], None))
        a.append(dom.div(dom.mac(terms), k))
    return a


def _composed_sums(dom, a, b):
    n = len(a) * len(b)
    sf, sg = power_sums(dom, a, n), power_sums(dom, b, n)
    p = [None]
    for k in range(1, n + 1):
        p.append(dom.mac(list(zip(_signed_binomials(k), sf, sg[k::-1]))))
    return from_power_sums(dom, p, n)


@lru_cache(maxsize=None)
def _signed_binomials(k):
    """(-1)^m C(k, m) for m = 0..k."""
    return tuple(-math.comb(k, m) if m % 2 else math.comb(k, m)
                 for m in range(k + 1))


def composed_difference(f: UPoly, g: UPoly) -> UPoly:
    """Monic polynomial of degree deg f * deg g whose roots are the
    differences beta - alpha over the roots alpha of f and beta of g.  Its
    power sums are P_k = sum_m C(k, m) (-1)^m s_m(f) s_(k-m)(g)."""
    if f.is_series and g.is_series and f.coeffs[0].var != g.coeffs[0].var:
        raise ValueError("series variable mismatch: "
                         f"{f.coeffs[0].var!r} vs {g.coeffs[0].var!r}")
    return UPoly(f.var, _composed_sums(_Exact(f.coeffs[0]), f.coeffs,
                                       g.coeffs))


def _difference_sums(dom, a):
    d = len(a)
    n = d * (d - 1) // 2
    s = power_sums(dom, a, 2 * n)
    q = [None]
    for j in range(1, n + 1):
        # the terms m and 2j - m agree, and the middle one is halved
        c = _signed_binomials(2 * j)
        terms = list(zip(c[1:j], s[1:j], s[2 * j - 1:j:-1]))
        terms += [(d, s[2 * j], None), (c[j] // 2, s[j], s[j])]
        q.append(dom.mac(terms))
    return from_power_sums(dom, q, n)


def difference_poly(h: UPoly) -> UPoly:
    """Monic polynomial D of degree d(d-1) whose roots are the ordered
    pairwise differences of the roots of h.

    D(y) = E(y^2), where E has degree N = d(d-1)/2 and the squared
    differences as roots, so the odd coefficients of D vanish exactly.  The
    power sums of E are half the even power sums of the composed difference
    of h with itself (the terms m and 2j - m agree):
    Q_j = d s_(2j) + sum_(0<m<j) C(2j, m) (-1)^m s_m s_(2j-m)
          + C(2j, j)/2 (-1)^j s_j^2.
    """
    if h.degree < 2:
        raise ValueError("difference polynomial needs degree >= 2")
    zero = _lift(0, h.coeffs[0])
    coeffs = []
    for e in _difference_sums(_Exact(h.coeffs[0]), h.coeffs):
        coeffs.extend((zero, e))
    # the kernel made every coefficient in h's own domain
    return UPoly.of_series(h.var, tuple(coeffs))


def _compound_sums(dom, a, k):
    n = math.comb(len(a), k)
    s = power_sums(dom, a, k * n)
    p = [None]
    for m in range(1, n + 1):
        # a_k of the polynomial with roots alpha^m is (-1)^k e_k(alpha^m)
        ak = from_power_sums(dom, [None] + s[m:k * m + 1:m], k)[-1]
        p.append(dom.mac([(-1, ak, None)]) if k % 2 else ak)
    return from_power_sums(dom, p, n)


def compound_poly(h: UPoly, k: int) -> UPoly:
    """Monic polynomial whose roots are the products of k distinct roots
    of h (degree N = C(d, k)).  Its m-th power sum is e_k(alpha^m), which
    Newton's identities give from s_m, s_2m, ..., s_km."""
    if not 1 <= as_int(k, "k") <= h.degree:
        raise ValueError("k out of range")
    return UPoly(h.var, _compound_sums(_Exact(h.coeffs[0]), h.coeffs, k))

