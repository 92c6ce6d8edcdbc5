"""Newton's identities on Kronecker-packed ints: the coefficient orders of
the difference polynomial of exact series input, which the certificate
reads (Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44, 2009).

`lctkit.poly` writes the identities once, over a domain that supplies
`const`, the multiply-accumulate `mac` and the exact division `div`.  This
module runs them once per degree over a recording domain, `_Recorder`,
whose values are slot indices: the result is a straight-line program of
multiply-accumulate ops, kept per (identities, degree), with the unit-norm
bound that sets the digit width.  Every packed run replays that program on
bare ints in one loop.  With the roots scaled by L, the lcm of the
coefficient denominators, and the exponents counted over R, the lcm of the
ramification indices, every power sum and every coefficient built from
them is an int series.  Such a series sum_e c_e t^(e/R) is packed as the
one int sum_e c_e 2^(w e), with balanced w-bit digits, w one bit past
the bound on every digit, and a series product is one int product.  Only
exact input is packed: truncated input, like input too sparse for packing
to pay, takes the series route, whose `sum_of_products` holds the one
truncation rule.  `orders` reads only each output's lowest digit, all
that a Newton polygon needs; no output is unpacked, so every polynomial
that is built runs on the series route, a kernel that shares nothing with
this one beyond the identities.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConsistencyError

# The most digits per stored input term that `orders` packs.  Timed
# against the series route on y^d + x^k, y^d + x^a y + x^b and four-term
# inputs at d = 2..6, packing stops paying between 24 and 512 digits per
# term, at fewer for larger d and more terms (y^2 + x^k still pays at
# 256); on dense random input at d = 6 it still pays 8.7x at 103.
DIGITS_PER_TERM = 64


class _Recorder:
    """The domain that records the identities: each value is a slot index,
    inputs first, then one slot per op.  An op (c, singles, products, k)
    starts from the constant c, adds k' a for each single term
    (k', a, None) and k' a b for each product term (k', a, b), and divides
    the sum exactly by k.  A `div` of the op just recorded folds into that
    op: in the identities every exact division divides the sum just
    formed, which nothing else reads.

    `norms` bounds the L1 norm of each slot's packed series when every
    input has norm at most 1: the norm of a product is at most the product
    of the norms, and that of an exact quotient by k at most the norm over
    k, rounded up so that the bounds of unit norms also bound the rational
    ones (see `orders`).  `top` keeps the largest bound met.  It is taken
    before any division, so it bounds every digit ever formed."""

    def __init__(self, d):
        self.norms = [1] * d
        self.top = 1
        self.ops = []

    def _slot(self, op, norm):
        self.ops.append(op)
        self.norms.append(norm)
        if norm > self.top:
            self.top = norm
        return len(self.norms) - 1

    def const(self, c):
        return self._slot((c, (), (), 1), abs(c))

    def mac(self, terms):
        norms = self.norms
        singles, products, x = [], [], 0
        for term in terms:
            k, a, b = term
            if b is None:
                singles.append(term)
                x += abs(k) * norms[a]
            else:
                products.append(term)
                x += abs(k) * norms[a] * norms[b]
        return self._slot((0, tuple(singles), tuple(products), 1), x)

    def div(self, x, k):
        ops, norm = self.ops, -(-self.norms[x] // k)
        if ops and x == len(self.norms) - 1 and ops[-1][3] == 1:
            c, singles, products, _ = ops[-1]
            ops[-1] = (c, singles, products, k)
            self.norms[x] = norm
            return x
        return self._slot((0, ((1, x, None),), (), k), norm)


@lru_cache(maxsize=64)
def _program(newton, d):
    """`newton` recorded at degree d: its ops, its output slots, and the
    largest unit-norm bound met (see `_Recorder`)."""
    rec = _Recorder(d)
    out = newton(rec, list(range(d)))
    return tuple(rec.ops), tuple(out), rec.top


def _exact_quotient(x, k):
    q, r = divmod(x, k)
    if r:
        raise ConsistencyError(
            f"packed power-sum identity is not divisible by {k}")
    return q


def _replay_ints(program, xs):
    """The program's outputs on exactly known packed ints xs."""
    ops, out, _ = program
    v = list(xs)
    for acc, singles, products, k in ops:
        for m, a, _ in singles:
            acc += m * v[a]
        for m, a, b in products:
            acc += m * v[a] * v[b]
        if k != 1:
            acc = _exact_quotient(acc, k)
        v.append(acc)
    return [v[i] for i in out]


def _width(top):
    """Digit width for digits of size at most `top`, with room for the
    sign."""
    return top.bit_length() + 1


def orders(coeffs, newton, top):
    """(R, digits) for the c_1..c_n that `newton(dom, coeffs)` builds from
    the series `coeffs`: c_j has the order digits[j-1] / R, not reduced,
    or is zero when that is None; None, recording no program, for
    truncated input or input too sparse for packing to pay.  Only each
    output's lowest digit is read: the digits are balanced, so the lowest
    nonzero one of x is v2(x) // w.

    The identities are weighted homogeneous, a_i of weight i and c_j of
    weight `top` j / n, and no value weighs more than c_n.  So no value
    has a digit past top v, v = max_i e_i / i with e_i the last digit of
    a_i.  Past `DIGITS_PER_TERM` such digits per stored input term, the
    packed ints are mostly zero digits and the series products cost less.

    The digit width needs a bound on every value.  With norms n_i <= M^i,
    by the same homogeneity every bound is at most its unit-norm bound
    times M^top, and M^top <= max n_i^ceil(top/i).  One pass takes the
    coefficients' reach and that bound, the next packs a_i L^i."""
    L = R = 1
    for a in coeffs:
        if a._tr is not None:
            return None
        L, R = math.lcm(L, a._den), math.lcm(R, a._ram)
    reach, terms, scale = 0, 0, 1
    for i, a in enumerate(coeffs, 1):
        t = a._t
        if t:
            terms += len(t)
            reach = max(reach, top * max(t) * (R // a._ram) // i)
            scale = max(scale, (L ** i // a._den * sum(map(abs, t.values())))
                        ** -(-top // i))
    if reach > DIGITS_PER_TERM * terms:
        return None
    program = _program(newton, len(coeffs))
    w = _width(program[2] * scale)
    xs = []
    for i, a in enumerate(coeffs, 1):
        x, wg = 0, w * (R // a._ram)
        for e, c in a._t.items():
            x += c << wg * e
        xs.append(x * (L ** i // a._den))
    return R, [((x & -x).bit_length() - 1) // w if x else None
               for x in _replay_ints(program, xs)]
