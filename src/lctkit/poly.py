"""Exact polynomial arithmetic: multivariate polynomials over Q, monic
univariate polynomials over polynomial or series coefficients, resultants,
Taylor shifts, and the auxiliary monic polynomials whose roots are products,
differences, or polynomial images of the roots of a given polynomial.

The difference, cross-difference, compound and value polynomials come from
one kernel: root power sums by Newton's identities, combined and turned
back into coefficients by the same identities run in reverse.  The
identities are written once, over a domain that supplies their
multiply-accumulate and exact division.  Over series input the difference,
cross-difference and compound polynomials run on Kronecker-packed ints, one
int product per series product, unless the input is too sparse for that
to pay; the value polynomial and sparse input run on `sum_of_products`,
and MPoly coefficients on a plain fold.  Compound polynomials have no
degree cap.  The exact certificate reads only the orders of the difference
polynomial's coefficients, which `difference_orders` takes off the packed
ints without unpacking them.

Resultants take one route over both coefficient domains, a fraction-free
subresultant remainder sequence (which keeps truncation loss in check over
series).  It stays as the public `resultant` and as an oracle independent of
the kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import packed
from .errors import ConsistencyError
from .series import PSeries, as_frac, frac_str, sum_of_products

_ZERO = Fraction(0)


class MPoly:
    """Multivariate polynomial over Q: ordered variable tuple plus a map
    exponent-vector -> nonzero rational coefficient."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise ValueError("exponent arity does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in polynomial")
            c = as_frac(c)
            if c:
                clean[exps] = c
        self.vars = vars
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, vars=()):
        return cls(vars, {})

    @classmethod
    def const(cls, c, vars=()):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): as_frac(c)})

    @classmethod
    def variable(cls, name, vars=None):
        if vars is None:
            vars = (name,)
        vars = tuple(vars)
        exps = tuple(1 if v == name else 0 for v in vars)
        if sum(exps) != 1:
            raise ValueError(f"variable {name!r} not in {vars}")
        return cls(vars, {exps: Fraction(1)})

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        if not self.terms:
            return _ZERO
        [(exps, c)] = self.terms.items()
        if any(exps):
            raise ValueError("not a constant polynomial")
        return c

    def with_vars(self, vars):
        """Reinterpret over a superset of variables (order given by `vars`)."""
        vars = tuple(vars)
        pos = {v: i for i, v in enumerate(vars)}
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * len(vars)
            for v, e in zip(self.vars, exps):
                if e:
                    if v not in pos:
                        raise ValueError(f"variable {v!r} missing from {vars}")
                    new[pos[v]] = e
            terms[tuple(new)] = terms.get(tuple(new), _ZERO) + c
        return MPoly(vars, terms)

    @staticmethod
    def _common_vars(a, b):
        if a.vars == b.vars:
            return a.vars
        return tuple(sorted(set(a.vars) | set(b.vars)))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.vars)
        if not isinstance(other, MPoly):
            return NotImplemented
        vars = MPoly._common_vars(self, other)
        a = self if self.vars == vars else self.with_vars(vars)
        b = other if other.vars == vars else other.with_vars(vars)
        terms = dict(a.terms)
        for exps, c in b.terms.items():
            terms[exps] = terms.get(exps, _ZERO) + c
        return MPoly(vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.vars)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = as_frac(c)
        if c == 0:
            return MPoly.zero(self.vars)
        return MPoly(self.vars, {e: c * k for e, k in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        vars = MPoly._common_vars(self, other)
        a = self if self.vars == vars else self.with_vars(vars)
        b = other if other.vars == vars else other.with_vars(vars)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, _ZERO) + c1 * c2
        return MPoly(vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power wants a nonnegative integer")
        result = MPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        vars = MPoly._common_vars(self, other)
        return self.with_vars(vars).terms == other.with_vars(vars).terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- lex order & exact division -------------------------------------------

    def lex_lead(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def div_exact(self, b: "MPoly") -> "MPoly":
        """Exact quotient self/b; raises ConsistencyError if b does not
        divide self."""
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        vars = MPoly._common_vars(self, b)
        a = self if self.vars == vars else self.with_vars(vars)
        bb = b if b.vars == vars else b.with_vars(vars)
        if bb.is_const():
            return a.scale(1 / bb.const_value())
        lead_b, lc_b = bb.lex_lead()
        rem = dict(a.terms)
        out = {}
        while rem:
            m = max(rem)
            diff = tuple(x - y for x, y in zip(m, lead_b))
            if any(e < 0 for e in diff):
                raise ConsistencyError("polynomial division is not exact")
            c = rem[m] / lc_b
            out[diff] = c
            for eb, cb in bb.terms.items():
                k = tuple(x + y for x, y in zip(diff, eb))
                v = rem.get(k, _ZERO) - c * cb
                if v == 0:
                    rem.pop(k, None)
                else:
                    rem[k] = v
        return MPoly(vars, out)

    # -- substitution & evaluation --------------------------------------------

    def substitute(self, mapping) -> "MPoly":
        """Map some variables to MPoly/rational values; others stay symbolic."""
        out = None
        for exps, c in self.terms.items():
            term = MPoly.const(c)
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                val = mapping.get(v)
                if val is None:
                    val = MPoly.variable(v)
                elif isinstance(val, (int, Fraction)):
                    val = MPoly.const(val)
                term = term * val ** e
            out = term if out is None else out + term
        return MPoly.zero(()) if out is None else out

    def eval_series(self, mapping, out_var=None) -> PSeries:
        """Evaluate at series values for every variable."""
        var = out_var
        for s in mapping.values():
            if var is None:
                var = s.var
            elif s.var != var:
                raise ValueError("series arguments use different variables")
        if var is None:
            var = "t"
        total = PSeries.zero(var)
        pow_cache = {}
        for exps, c in self.terms.items():
            term = PSeries.const(var, c)
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                if v not in mapping:
                    raise ValueError(f"no series value for variable {v!r}")
                key = (v, e)
                if key not in pow_cache:
                    pow_cache[key] = mapping[v] ** e
                term = term * pow_cache[key]
            total = total + term
        return total

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [{"exps": list(e), "c": frac_str(c)}
                      for e, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(obj["vars"]),
                   {tuple(t["exps"]): Fraction(t["c"]) for t in obj["terms"]})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items(), reverse=True):
            factors = [f"{v}^{e}" if e > 1 else v
                       for v, e in zip(self.vars, exps) if e]
            if not factors:
                parts.append(frac_str(c))
            else:
                body = "*".join(factors)
                if c == 1:
                    parts.append(body)
                elif c == -1:
                    parts.append(f"-{body}")
                else:
                    parts.append(f"{frac_str(c)}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Coefficient-domain helpers shared by UPoly / resultants.  Elements are
# either MPoly or PSeries; both support +, -, *, scale, is_zero, div_exact.
# ---------------------------------------------------------------------------

def _lift(value, template):
    """Coerce ints/Fractions into the domain of `template`."""
    if isinstance(value, (int, Fraction)):
        if isinstance(template, PSeries):
            return PSeries.const(template.var, value)
        return MPoly.const(value, template.vars)
    return value


def _dom_one(template):
    if isinstance(template, PSeries):
        return PSeries.one(template.var)
    return MPoly.const(1, template.vars)


class UPoly:
    """Monic univariate polynomial y^d + a_1 y^(d-1) + ... + a_d with
    coefficients a_i in one shared domain (MPoly or PSeries)."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("UPoly degree must be positive")
        template = next((c for c in coeffs
                         if isinstance(c, (MPoly, PSeries))), None)
        if template is None:
            raise ValueError(
                "coefficients must include at least one MPoly or PSeries")
        kind = type(template)
        coeffs = tuple(c if type(c) is kind else _lift(c, template)
                       for c in coeffs)
        if any(type(c) is not kind for c in coeffs):
            raise ValueError("coefficient domain must be homogeneous")
        if kind is PSeries and any(c.var != template.var for c in coeffs):
            raise ValueError("series coefficients use different variables")
        self.var = var
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs)

    @property
    def is_series(self):
        return isinstance(self.coeffs[0], PSeries)

    def coeff(self, i):
        """a_i for 1 <= i <= d; a_0 is the implicit leading 1."""
        if i == 0:
            return _dom_one(self.coeffs[0])
        return self.coeffs[i - 1]

    def dense(self):
        """Descending coefficient list [1, a_1, ..., a_d]."""
        return [_dom_one(self.coeffs[0])] + list(self.coeffs)

    @classmethod
    def from_roots(cls, var, roots):
        """Monic product of (y - r) over the given domain elements."""
        roots = list(roots)
        if not roots:
            raise ValueError("need at least one root")
        template = roots[0]
        dense = [_dom_one(template)]
        for r in roots:
            r = _lift(r, template)
            dense.append(_lift(0, template))
            for i in range(len(dense) - 2, -1, -1):
                shifted = dense[i] * r
                dense[i + 1] = dense[i + 1] - shifted
        return cls(var, dense[1:])

    def evaluate(self, w):
        """h(w) by Horner; w in the coefficient domain."""
        w = _lift(w, self.coeffs[0])
        acc = _dom_one(self.coeffs[0])
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
            if isinstance(a, PSeries) and a.is_zero():
                continue
            if isinstance(a, MPoly) and a.is_zero():
                continue
            e = self.degree - i
            ys = "" if e == 0 else (y if e == 1 else f"{y}^{e}")
            parts.append(f"({a!r}){ys}" if ys else f"({a!r})")
        return " + ".join(parts)


def taylor_shift(h: UPoly, w) -> UPoly:
    """h(y + w): synthetic Pascal-style shift, O(d^2) ring operations.

    `w` may be a domain element, a rational, or a fresh symbol name (for
    polynomial-coefficient input).
    """
    if isinstance(w, str):
        if h.is_series:
            raise ValueError("symbolic shift requires polynomial coefficients")
        w = MPoly.variable(w)
    w = _lift(w, h.coeffs[0])
    c = h.dense()
    d = h.degree
    for i in range(d):
        for j in range(1, d + 1 - i):
            c[j] = c[j] + w * c[j - 1]
    return UPoly(h.var, c[1:])


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------

def _strip(f):
    i = 0
    while i < len(f) and f[i].is_zero():
        i += 1
    return f[i:]


def _prem(f, g):
    """Pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g (dense, descending)."""
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        raise ValueError("pseudo-remainder needs deg f >= deg g")
    l = g[0]
    r = list(f)
    n = df - dg + 1
    while r and len(r) - 1 >= dg:
        lcr = r[0]
        # l*r - lcr*g*x^(deg r - dg); the leading terms cancel exactly
        r = [l * c for c in r[1:]]
        for i in range(dg):
            r[i] = r[i] - lcr * g[i + 1]
        r = _strip(r)
        n -= 1
    if n > 0:
        scale = l ** n
        r = [scale * c for c in r]
    return r


def resultant_lists(f, g):
    """Resultant of dense descending coefficient lists over a shared domain
    (general leading coefficients allowed), by the subresultant PRS (Brown's
    algorithm)."""
    f, g = _strip(list(f)), _strip(list(g))
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    n, m = len(f) - 1, len(g) - 1
    sign = 1
    if n < m:
        f, g = g, f
        n, m = m, n
        if n % 2 and m % 2:
            sign = -sign
    one = _dom_one(f[0])
    if n == 0:
        return one  # two nonzero constants
    if m == 0:
        res = g[0] ** n
        return res if sign == 1 else -res
    d = n - m
    b = one if (d + 1) % 2 == 0 else -one
    h = _prem(f, g)
    h = [b * c for c in h]
    lc = g[0]
    c = lc ** d
    subres = [one, c]
    c = -c
    while h:
        k = len(h) - 1
        f, g = g, h
        d = m - k
        m = k
        bb = -(lc * c ** d)
        h = _prem(f, g)
        h = [x.div_exact(bb) for x in h]
        lc = g[0]
        if d > 1:
            q = c ** (d - 1)
            c = ((-lc) ** d).div_exact(q)
        else:
            c = -lc
        subres.append(-c)
    if len(g) - 1 > 0:
        # nonconstant gcd: resultant vanishes
        if isinstance(one, PSeries):
            return PSeries.zero(one.var)
        return MPoly.zero(one.vars)
    res = subres[-1]
    return res if sign == 1 else -res


def resultant(f: UPoly, g: UPoly):
    """Classical resultant eliminating the shared main variable; vanishes
    iff f and g have a common root."""
    if f.var != g.var:
        raise ValueError("resultant requires a shared main variable")
    if f.degree < 1 or g.degree < 1:
        raise ValueError("resultant needs positive-degree inputs")
    return resultant_lists(f.dense(), g.dense())


def z_vars(d):
    return tuple(f"z{i}" for i in range(1, d + 1))


# ---------------------------------------------------------------------------
# Root power sums: one kernel for the polynomials whose roots are
# differences, products or polynomial images of roots (Bostan, Flajolet,
# Salvy and Schost, "Fast computation of special resultants", J. Symbolic
# Comput. 41, 2006).
#
# Newton's identities are written once, over a domain that supplies
# `const(c)`, the multiply-accumulate `mac(terms)` (the sum of k*a*b over
# (k, a, b) triples with int k, k*a where b is None) and the exact division
# `div(x, k)`.  MPoly coefficients fold, and value_poly's series run through
# `sum_of_products`.  The difference, composed-difference and compound
# polynomials of series input run on Kronecker-packed ints
# (`lctkit.packed`), one int product per series product, unless the input
# is too sparse for packing to pay; then they run through
# `sum_of_products` too.
# ---------------------------------------------------------------------------

class _Exact:
    """MPoly or PSeries coefficients: one `sum_of_products` per identity
    over series, a plain fold over MPoly."""

    def __init__(self, template):
        self.template = template

    def const(self, c):
        return _lift(c, self.template)

    def mac(self, terms):
        if isinstance(self.template, PSeries):
            return sum_of_products(self.template.var, terms)
        acc = MPoly.zero(self.template.vars)
        for k, a, b in terms:
            acc = acc + (a if b is None else a * b).scale(k)
        return acc

    @staticmethod
    def div(x, k):
        return x.scale(Fraction(1, k))


def _build(polys, newton, weight, *args):
    """c_1..c_n from `newton` over the coefficients of `polys`: on packed
    ints for series unless they are too sparse, else through `_Exact`."""
    template = polys[0].coeffs[0]
    if isinstance(template, PSeries):
        out = packed.packed(polys, newton, weight, args)
        if out is not None:
            return out
    return newton(_Exact(template), *(p.coeffs for p in polys), *args)


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
    return UPoly(f.var, _build([f, g], _composed_sums, 1))


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
    for e in _build([h], _difference_sums, 2):
        coeffs.extend((zero, e))
    return UPoly(h.var, coeffs)


def difference_orders(h: UPoly):
    """The orders of the coefficients a_1..a_(d(d-1)) of h's difference
    polynomial D over series, as `PSeries.order_units` gives them, read
    without building D: the lowest packed digit of each coefficient E_j of
    E, or on sparse input the E_j of the series route.  D(y) = E(y^2), so
    E_j is D's a_(2j), and the odd coefficients vanish exactly."""
    if h.degree < 2:
        raise ValueError("difference polynomial needs degree >= 2")
    evens = packed.orders([h], _difference_sums, 2, ())
    if evens is None:
        evens = [e.order_units() for e in
                 _difference_sums(_Exact(h.coeffs[0]), h.coeffs)]
    out = []
    for e in evens:
        out += ((None, None), e)
    return out


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
    if not 1 <= k <= h.degree:
        raise ValueError("k out of range")
    return UPoly(h.var, _build([h], _compound_sums, k, k))


def _generic(d):
    """The generic monic y^d + z_1 y^(d-1) + ... + z_d."""
    zs = z_vars(d)
    return UPoly("y", [MPoly.variable(v, zs) for v in zs])


@lru_cache(maxsize=None)
def generic_compound_coeffs(d, k):
    """Coefficients (MPoly in z_1..z_d) of the monic polynomial whose roots
    are the products of k distinct roots of the generic monic degree-d
    polynomial; entry index ell carries (-1)^ell s_ell of the products."""
    return compound_poly(_generic(d), k).coeffs


@lru_cache(maxsize=None)
def generic_difference_coeffs(d):
    """Coefficients (MPoly in z_1..z_d) of the difference polynomial of the
    generic monic y^d + z_1 y^(d-1) + ... + z_d."""
    if d < 2:
        raise ValueError("difference polynomial needs degree >= 2")
    return difference_poly(_generic(d)).coeffs


def _mul_mod(r, g, h: UPoly):
    """Ascending coefficients of r * g modulo the monic h."""
    zero = _lift(0, h.coeffs[0])
    prod = [zero] * (len(r) + len(g) - 1)
    for i, x in enumerate(r):
        for j, y in enumerate(g):
            prod[i + j] = prod[i + j] + x * y
    d = h.degree
    while len(prod) > d:
        top = prod.pop()  # coefficient of y^n, n = len(prod)
        n = len(prod)
        for i in range(1, d + 1):
            prod[n - i] = prod[n - i] - top * h.coeffs[i - 1]
    return prod


def value_poly(h: UPoly, G: MPoly) -> UPoly:
    """Monic degree-d polynomial whose roots are G(a_1..a_d, alpha_i) over
    the roots alpha_i of h.  Its power sums are traces,
    sum_i G(alpha_i)^m = Tr(G^m mod h) with Tr(y^k) = s_k(h)."""
    d = h.degree
    wvar = "w"
    if wvar not in G.vars:
        G = G.with_vars(tuple(G.vars) + (wvar,))
    # split G by powers of w, substituting the actual coefficients for z_i
    wpos = G.vars.index(wvar)
    template = h.coeffs[0]
    by_w = {}
    for exps, c in G.terms.items():
        wexp = exps[wpos]
        rest = {v: e for v, e in zip(G.vars, exps) if v != wvar and e}
        mono = _lift(c, template)
        for v, e in rest.items():
            if not v.startswith("z"):
                raise ValueError(f"unexpected variable {v!r} in G")
            i = int(v[1:])
            if not 1 <= i <= d:
                raise ValueError(f"variable {v!r} outside z1..z{d}")
            mono = mono * h.coeff(i) ** e
        by_w[wexp] = by_w.get(wexp, mono - mono) + mono
    zero = _lift(0, template)
    g = [by_w.get(e, zero) for e in range(max(by_w, default=0) + 1)]
    dom = _Exact(template)
    s = power_sums(dom, h.coeffs, d - 1)
    p = [None]
    r = [_dom_one(template)]
    for _ in range(d):
        r = _mul_mod(r, g, h)
        p.append(dom.mac([(1, x, sk) for x, sk in zip(r, s)]))
    return UPoly(h.var, from_power_sums(dom, p, d))


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q (helpers for squarefree structure,
# discriminants, and edge-polynomial checks).
# ---------------------------------------------------------------------------

def q_strip(f):
    i = 0
    while i < len(f) and f[i] == 0:
        i += 1
    return [as_frac(c) for c in f[i:]]


def q_deriv(f):
    n = len(f) - 1
    return q_strip([c * (n - i) for i, c in enumerate(f[:-1])])


def q_divmod(f, g):
    f, g = q_strip(f), q_strip(g)
    if not g:
        raise ZeroDivisionError
    if len(f) < len(g):
        return [], f
    r = list(f)
    q = []
    for _ in range(len(f) - len(g) + 1):
        c = r[0] / g[0]
        q.append(c)
        for i in range(1, len(g)):
            r[i] -= c * g[i]
        r.pop(0)
    return q_strip(q), q_strip(r)


def q_gcd_monic(f, g):
    f, g = q_strip(f), q_strip(g)
    while g:
        f, g = g, q_divmod(f, g)[1]
    if not f:
        return []
    return [c / f[0] for c in f]


def q_squarefree(f) -> bool:
    f = q_strip(f)
    if len(f) <= 1:
        return True
    return len(q_gcd_monic(f, q_deriv(f))) == 1


def _q_sub(f, g):
    n = max(len(f), len(g))
    f = [_ZERO] * (n - len(f)) + list(f)
    g = [_ZERO] * (n - len(g)) + list(g)
    return q_strip([x - y for x, y in zip(f, g)])


def q_squarefree_decomposition(f):
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)."""
    f = q_strip(f)
    if len(f) <= 1:
        return []
    f = [c / f[0] for c in f]
    df = q_deriv(f)
    a = q_gcd_monic(f, df)
    b = q_divmod(f, a)[0]
    c = q_divmod(df, a)[0]
    d = _q_sub(c, q_deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = q_gcd_monic(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = q_divmod(b, a)[0]
        c = q_divmod(d, a)[0]
        d = _q_sub(c, q_deriv(b))
        i += 1
    return out

