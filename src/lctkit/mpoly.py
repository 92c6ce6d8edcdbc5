"""The symbolic layer: multivariate polynomials over Q, Taylor shifts,
resultants, the generic coefficient polynomials of the paper's ideals, the
value polynomial, and dense univariate helpers over Q.

An MPoly has one stored form: the sorted tuple of the variables that occur
and its terms over exactly those, so equal polynomials hash equal and the
Q-ideals (lctkit.qideal) merge and cache equal generators.  Operands over
different variables are laid over the union of their variables.

None of it runs in a decision.  The criterion ideals (lctkit.ideals,
lctkit.qideal), the oracles and the numeric layer import it; the decision
path never does, so `import lctkit` does not compile it.  MPoly is a
coefficient domain of lctkit.poly's UPoly, and the generic and value
polynomials and resultants run on that module's power-sum kernel.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .poly import (
    UPoly, _Exact, _lift, compound_poly, difference_poly, from_power_sums,
    power_sums,
)
from .series import PSeries, _json_rational, as_frac, frac_str

_ZERO = Fraction(0)


class MPoly:
    """Multivariate polynomial over Q in one stored form: `vars` is the
    sorted tuple of the variables that occur (with a nonzero exponent in
    some term), and `terms` maps exponent vectors over exactly those
    variables to nonzero rational coefficients.

    The constructor takes any tuple of distinct names with int exponents
    aligned to it, drops the columns no term uses and sorts the rest, so
    equal polynomials have equal fields, compare equal and hash equal."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        for i, v in enumerate(vars):
            if v in vars[:i]:
                raise ValueError(f"variable {v!r} repeated in {vars}")
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != len(vars):
                raise ValueError("exponent arity does not match variables")
            for e in exps:
                if type(e) is not int:
                    raise ValueError(
                        f"exponent {e!r} in polynomial is not an int")
                if e < 0:
                    raise ValueError("negative exponent in polynomial")
            c = as_frac(c)
            if c:
                clean[exps] = c
        keep = sorted((i for i, col in enumerate(zip(*clean)) if any(col)),
                      key=vars.__getitem__)
        if keep != list(range(len(vars))):
            vars = tuple(vars[i] for i in keep)
            clean = {tuple(exps[i] for i in keep): c
                     for exps, c in clean.items()}
        self.vars = vars
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls((), {})

    @classmethod
    def const(cls, c):
        return cls((), {(): as_frac(c)})

    @classmethod
    def variable(cls, name):
        return cls((name,), {(1,): Fraction(1)})

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _aligned(self, other):
        """The sorted union of both variable tuples, then each operand's
        terms laid over it."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        vars = tuple(sorted({*self.vars, *other.vars}))
        laid = [vars]
        for p in (self, other):
            # index -1 reads the 0 appended to each exponent vector
            idx = [p.vars.index(v) if v in p.vars else -1 for v in vars]
            laid.append({tuple((exps + (0,))[i] for i in idx): c
                         for exps, c in p.terms.items()})
        return laid

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        vars, a, b = self._aligned(other)
        terms = dict(a)
        for exps, c in b.items():
            terms[exps] = terms.get(exps, _ZERO) + c
        return MPoly(vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = as_frac(c)
        return MPoly(self.vars, {e: c * k for e, k in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        vars, a, b = self._aligned(other)
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, _ZERO) + c1 * c2
        return MPoly(vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power wants a nonnegative integer")
        result = MPoly.const(1)
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
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

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
        return MPoly.zero() if out is None else out

    def eval_series(self, mapping) -> PSeries:
        """Evaluate at series values for every variable.  The values share
        one series variable, which the result takes; with no values (a
        constant polynomial) the result is a series in t."""
        names = {s.var for s in mapping.values()}
        if len(names) > 1:
            raise ValueError("series arguments use different variables")
        var = names.pop() if names else "t"
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
        """The polynomial that to_json wrote.  A malformed object is a
        ValueError that names the field at fault."""
        names = obj.get("vars") if isinstance(obj, dict) else None
        if not (isinstance(names, list)
                and all(isinstance(v, str) for v in names)):
            raise ValueError('polynomial JSON field "vars" must be a list of '
                             'variable names')
        terms = obj.get("terms")
        if not (isinstance(terms, list) and all(
                isinstance(t, dict) and isinstance(t.get("exps"), list)
                and all(type(e) is int for e in t["exps"])
                and _json_rational(t.get("c")) for t in terms)):
            raise ValueError('polynomial JSON field "terms" must be a list of '
                             '{"exps": [int, ...], "c": rational} objects')
        exps = [tuple(t["exps"]) for t in terms]
        if len(set(exps)) != len(exps):
            raise ValueError('polynomial JSON field "terms" repeats an '
                             'exponent vector')
        return cls(tuple(names),
                   {e: Fraction(t["c"]) for e, t in zip(exps, terms)})

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
# Taylor shift
# ---------------------------------------------------------------------------

def taylor_shift(h: UPoly, w) -> UPoly:
    """h(y + w): synthetic Pascal-style shift, O(d^2) ring operations.

    `w` is an element of h's coefficient domain or a rational; a symbolic
    shift passes a polynomial such as MPoly.variable("w").
    """
    w = _lift(w, h.coeffs[0])
    c = h.dense()
    d = h.degree
    for i in range(d):
        for j in range(1, d + 1 - i):
            c[j] = c[j] + w * c[j - 1]
    return UPoly(h.var, c[1:])



# ---------------------------------------------------------------------------
# Generic coefficients, the value polynomial and resultants, on
# lctkit.poly's power-sum kernel
# ---------------------------------------------------------------------------

def z_vars(d):
    return tuple(f"z{i}" for i in range(1, d + 1))


def _generic(d):
    """The generic monic y^d + z_1 y^(d-1) + ... + z_d."""
    return UPoly("y", [MPoly.variable(v) for v in z_vars(d)])


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


def _root_values(h: UPoly, g) -> UPoly:
    """Monic polynomial of degree d = deg h whose roots are g(alpha_i) over
    the roots alpha_i of h, for g the ascending coefficients of a polynomial
    over h's domain.  Its power sums are traces,
    sum_i g(alpha_i)^m = Tr(g^m mod h) with Tr(y^k) = s_k(h)."""
    d = h.degree
    dom = _Exact(h.coeffs[0])
    s = power_sums(dom, h.coeffs, d - 1)
    p = [None]
    r = [dom.const(1)]
    for _ in range(d):
        r = _mul_mod(r, g, h)
        p.append(dom.mac([(1, x, sk) for x, sk in zip(r, s)]))
    return UPoly(h.var, from_power_sums(dom, p, d))


def value_poly(h: UPoly, G: MPoly) -> UPoly:
    """Monic degree-d polynomial whose roots are G(a_1..a_d, alpha_i) over
    the roots alpha_i of h: G, a polynomial in w and z_1..z_d, becomes one
    in w over h's domain by z_i -> a_i, and `_root_values` takes it."""
    d = h.degree
    template = h.coeffs[0]
    by_w = {}
    for exps, c in G.terms.items():
        rest = {v: e for v, e in zip(G.vars, exps) if e}
        wexp = rest.pop("w", 0)
        mono = _lift(c, template)
        for v, e in rest.items():
            if not re.fullmatch(r"z(0|[1-9][0-9]*)", v):
                raise ValueError(f"unexpected variable {v!r} in G")
            i = int(v[1:])
            if not 1 <= i <= d:
                raise ValueError(f"variable {v!r} outside z1..z{d}")
            mono = mono * h.coeff(i) ** e
        by_w[wexp] = by_w.get(wexp, mono - mono) + mono
    zero = _lift(0, template)
    return _root_values(
        h, [by_w.get(e, zero) for e in range(max(by_w, default=0) + 1)])


def resultant(f: UPoly, g: UPoly):
    """Resultant of two UPolys over one coefficient domain (MPoly, or
    series in one variable), eliminating the shared main variable; vanishes
    iff f and g have a common root.  For monic f it is prod_i g(alpha_i)
    over the roots alpha_i of f, so (-1)^deg f times the constant term of
    `_root_values(f, g)`."""
    if f.var != g.var:
        raise ValueError("resultant requires a shared main variable")
    kf, kg = type(f.coeffs[0]), type(g.coeffs[0])
    if kf is not kg:
        raise ValueError("resultant coefficients over two domains: "
                         f"{kf.__name__} and {kg.__name__}")
    last = _root_values(f, g.dense()[::-1]).coeffs[-1]
    return -last if f.degree % 2 else last



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

