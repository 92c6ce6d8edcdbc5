"""Exact truncated power series and Puiseux series in one variable over Q.

A PSeries stores finitely many terms c*t^e with rational c != 0 and rational
e >= 0, plus a truncation bound `trunc`: every exponent strictly below
`trunc` is known, everything at or above it is unknown.  `trunc` may be the
float infinity (INF), which certifies the series is known exactly -- this is
how polynomial input data is represented.  Orders of vanishing are reported
through OrderVal, a three-way value (exact / at-least / infinite) so that
truncated data degrades to "unknown" instead of producing wrong answers.

The series kernel runs on integers.  Exponents are ints over the series'
ramification index (the lcm of the exponent denominators) and coefficients
are int numerators over one positive shared denominator; both are reduced
after every operation, so a value has exactly one stored form and compares
and hashes by its int fields.  Exactly known series carry None as their
internal truncation; a finite truncation stays a Fraction and becomes an int
bound, in the exponent units of the result, wherever terms are cut.  The
public `terms` and `trunc` present the same values as {Fraction: Fraction}
and as INF or a Fraction.  Sums, differences, scalings and products all
go through `sum_of_products`, which forms a whole sum of scaled products in
one dict with one reduction.  It is the series arithmetic, and it runs
Newton's identities for every polynomial that is built: the difference,
cross-difference, compound and value polynomials, and the certificate's
coefficient orders of truncated or sparse input.  Only the certificate's
coefficient orders of exact dense input take them to packed ints
(lctkit.packed), which records them once per degree and replays the
recorded program; this function holds the one truncation rule.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

INF = math.inf

_ZERO = Fraction(0)


def as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    # a bool is an int, but True read as 1 is a caller's mistake
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def frac_str(q) -> str:
    """Serialize a rational as "p" or "p/q" (never floating point)."""
    q = as_frac(q)
    return ratio_str(q.numerator, q.denominator)


def ratio_str(num, den) -> str:
    """The rational num/den (ints, den > 0) in lowest terms, as frac_str
    writes it."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def _trunc_str(t) -> str:
    return "inf" if t == INF else frac_str(t)


def _trunc_parse(s):
    return INF if s == "inf" else Fraction(s)


def _json_rational(value) -> bool:
    """A JSON value that Fraction reads: a string or an integer."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


# The three verdicts of a decision on orders: truncated data that cannot
# settle a comparison gives UNKNOWN, never a guess.
YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class OrderVal:
    """Order of vanishing: Exact(q), AtLeast(q) (from truncation), or Infinite.

    AtLeast(q) means the true order is >= q and is otherwise unknown (it may
    be infinite).  Infinite is only produced from exactly-known zero data.
    """

    __slots__ = ("kind", "value")

    EXACT = "exact"
    ATLEAST = "atleast"
    INFINITE = "inf"
    # the kinds by rank, and each kind's rank: the order sort_key ranks
    # equal lower bounds in
    KINDS = (EXACT, ATLEAST, INFINITE)
    RANK = {EXACT: 0, ATLEAST: 1, INFINITE: 2}

    def __init__(self, kind, value=None):
        if kind not in (self.EXACT, self.ATLEAST, self.INFINITE):
            raise ValueError(f"bad OrderVal kind {kind!r}")
        if kind == self.INFINITE:
            value = None
        else:
            value = as_frac(value)
        self.kind = kind
        self.value = value

    @classmethod
    def exact(cls, q):
        return cls(cls.EXACT, q)

    @classmethod
    def at_least(cls, q):
        return cls(cls.ATLEAST, q)

    @classmethod
    def infinite(cls):
        return cls(cls.INFINITE)

    @property
    def is_exact(self):
        return self.kind == self.EXACT

    @property
    def is_at_least(self):
        return self.kind == self.ATLEAST

    @property
    def is_infinite(self):
        return self.kind == self.INFINITE

    @property
    def lower(self):
        """Certified lower bound (INF for the infinite order)."""
        return INF if self.is_infinite else self.value

    def __eq__(self, other):
        if not isinstance(other, OrderVal):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        if self.is_infinite:
            return "ord(inf)"
        if self.is_at_least:
            return f"ord(>={frac_str(self.value)})"
        return f"ord({frac_str(self.value)})"

    def __add__(self, other):
        if not isinstance(other, OrderVal):
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return OrderVal.infinite()
        v = self.value + other.value
        if self.is_exact and other.is_exact:
            return OrderVal.exact(v)
        return OrderVal.at_least(v)

    def scale(self, c) -> "OrderVal":
        """Multiply by a rational c >= 0; scale(0, anything finite-or-not) = Exact(0).

        Callers that need a different 0*inf convention must special-case
        before scaling.
        """
        c = as_frac(c)
        if c < 0:
            raise ValueError("scale by negative rational")
        if c == 0:
            return OrderVal.exact(0)
        if self.is_infinite:
            return OrderVal.infinite()
        return OrderVal(self.kind, self.value * c)

    def sub(self, other) -> "OrderVal":
        """Difference with the convention inf - inf = inf.

        The subtrahend must be exact: subtracting a value known only from
        below admits no sound lower bound for the difference.
        """
        if self.is_infinite:
            return OrderVal.infinite()
        if other.is_infinite:
            raise ValueError("finite minus infinite order is undefined here")
        if not other.is_exact:
            raise ValueError("cannot subtract an order known only from below")
        if self.is_exact:
            return OrderVal.exact(self.value - other.value)
        return OrderVal.at_least(self.value - other.value)

    def ge(self, other):
        """Three-valued `true order >= other's true order`: True, False, or
        None (unknown)."""
        if self.is_infinite:
            return True
        if other.is_infinite:
            return False if self.is_exact else None
        if other.is_exact and self.value >= other.value:
            return True
        if self.is_exact and other.value > self.value:
            return False
        return None

    def sort_key(self):
        return (self.lower, self.RANK[self.kind])

    @staticmethod
    def min_of(vals) -> "OrderVal":
        vals = list(vals)
        if not vals:
            raise ValueError("min of empty order list")
        lo = min(v.lower for v in vals)
        # exact witness at the global lower bound pins the minimum
        for v in vals:
            if v.is_exact and v.value == lo:
                return v
        if lo == INF:
            return OrderVal.infinite()
        return OrderVal.at_least(lo)

    @staticmethod
    def max_of(vals) -> "OrderVal":
        vals = list(vals)
        if not vals:
            raise ValueError("max of empty order list")
        if any(v.is_infinite for v in vals):
            return OrderVal.infinite()
        hi = max(v.lower for v in vals)
        if all(v.is_exact for v in vals):
            return OrderVal.exact(hi)
        return OrderVal.at_least(hi)

    @staticmethod
    def sum_of(vals) -> "OrderVal":
        total = OrderVal.exact(0)
        for v in vals:
            total = total + v
        return total

    def to_json(self):
        if self.is_infinite:
            return {"kind": "inf"}
        return {"kind": self.kind, "value": frac_str(self.value)}

    @classmethod
    def from_json(cls, obj):
        if obj["kind"] == "inf":
            return cls.infinite()
        return cls(obj["kind"], Fraction(obj["value"]))


def _ceil_units(q, ram) -> int:
    """The least int k with k/ram >= q: a truncation q as an int bound in
    exponent units of 1/ram."""
    return -(-q.numerator * ram // q.denominator)


def _check_name(var):
    if not isinstance(var, str) or not var:
        raise ValueError("series variable must be a nonempty string")


def _series(var, t, ram, den, tr):
    """Internal constructor: the int fields, already in lowest terms."""
    s = object.__new__(PSeries)
    s.var = var
    s._t = t
    s._ram = ram
    s._den = den
    s._tr = tr
    s._hash = None
    s._view = None
    return s


def _reduced(var, t, ram, den, tr):
    """Internal constructor for arithmetic results: drops zero numerators
    and, below a finite tr, the exponents at or past it; then divides ram
    and den by their gcd with the exponents and the numerators."""
    if tr is None:
        t = {e: c for e, c in t.items() if c}
    else:
        bound = _ceil_units(tr, ram)
        t = {e: c for e, c in t.items() if c and e < bound}
    if ram > 1:
        g = math.gcd(ram, *t)
        if g > 1:
            ram //= g
            t = {e // g: c for e, c in t.items()}
    if den > 1:
        g = math.gcd(den, *t.values())
        if g > 1:
            den //= g
            t = {e: c // g for e, c in t.items()}
    return _series(var, t, ram, den, tr)


def sum_of_products(var, triples):
    """Sum of k*a*b over (k, a, b) triples, with b None meaning k*a, built
    in one pass; +, -, scale and * are its one- and two-term cases.

    Numerators accumulate in one dict at the lcm of the operands'
    ramification indices and of the terms' denominators, and the result is
    reduced once.  A product is known below min(T_a + ord_lb(b),
    T_b + ord_lb(a)) and a scaled term below T_a, even when k = 0 or a has
    no terms; the sum is known below the least of these, exactly as if the
    terms were added one at a time.  Terms with k = 0 or an empty operand
    add nothing, and product terms at or past that bound are never formed.
    """
    tr = None
    live = []
    ram = den = 1
    for k, a, b in triples:
        if a.var != var or (b is not None and b.var != var):
            other = a.var if a.var != var else b.var
            raise ValueError(
                f"series variable mismatch: {var!r} vs {other!r}")
        if b is None:
            t = a._tr
        elif a._tr is None and b._tr is None:
            t = None
        else:
            la, lb = a._lower(), b._lower()
            t = None if a._tr is None or lb is None else a._tr + lb
            if b._tr is not None and la is not None:
                u = b._tr + la
                if t is None or u < t:
                    t = u
        if t is not None and (tr is None or t < tr):
            tr = t
        if not k or not a._t or (b is not None and not b._t):
            continue
        kd = k.denominator * a._den
        if a._ram != ram:
            ram = math.lcm(ram, a._ram)
        if b is not None:
            kd *= b._den
            if b._ram != ram:
                ram = math.lcm(ram, b._ram)
        if kd != den:
            den = math.lcm(den, kd)
        live.append((k.numerator, kd, a, b))
    bound = None if tr is None else _ceil_units(tr, ram)
    t = {}
    get = t.get
    for kn, kd, a, b in live:
        f = kn * (den // kd)
        fa = ram // a._ram
        if b is None:
            for e, c in a._t.items():
                e *= fa
                t[e] = get(e, 0) + f * c
            continue
        fb = ram // b._ram
        right = [(e * fb, c * f) for e, c in b._t.items()]
        if bound is None:
            for e1, c1 in a._t.items():
                e1 *= fa
                for e2, c2 in right:
                    e = e1 + e2
                    t[e] = get(e, 0) + c1 * c2
        else:
            for e1, c1 in a._t.items():
                e1 *= fa
                for e2, c2 in right:
                    e = e1 + e2
                    if e < bound:
                        t[e] = get(e, 0) + c1 * c2
    return _reduced(var, t, ram, den, tr)


class PSeries:
    """Truncated Puiseux series: finitely many exact terms below `trunc`.

    Stored on integers: `_t` maps each exponent, an int over the
    ramification index `_ram`, to an int numerator over the shared positive
    denominator `_den`.  `_ram` is the lcm of the exponent denominators and
    `_den` that of the coefficient denominators, so each value has exactly
    one stored form and equality and hashing compare the fields directly
    (the hash is cached).  `_tr` is the truncation as a Fraction, or None
    when the series is known exactly.  `terms` (built on first use and kept
    in `_view`) and `trunc` give the same values as {Fraction: Fraction} and
    as INF or a Fraction.
    """

    __slots__ = ("var", "_t", "_ram", "_den", "_tr", "_hash", "_view")

    def __init__(self, var, terms, trunc=INF):
        _check_name(var)
        if trunc == INF:
            tr = None
        else:
            tr = as_frac(trunc)
            if tr <= 0:
                raise ValueError("truncation bound must be positive")
        clean = {}
        for e, c in terms.items():
            e = as_frac(e)
            c = as_frac(c)
            if c == 0:
                continue
            if e < 0:
                raise ValueError(f"negative exponent {e} in series")
            if tr is not None and e >= tr:
                continue  # at/beyond the truncation bound: unknown, drop
            clean[e] = c
        ram = math.lcm(*(e.denominator for e in clean))
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.var = var
        self._t = {e.numerator * (ram // e.denominator):
                   c.numerator * (den // c.denominator)
                   for e, c in clean.items()}
        self._ram = ram
        self._den = den
        self._tr = tr
        self._hash = None
        self._view = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var, trunc=INF):
        return cls(var, {}, trunc)

    @classmethod
    def one(cls, var):
        return cls.const(var, 1)

    @classmethod
    def const(cls, var, c):
        _check_name(var)
        if type(c) is int:
            return _series(var, {0: c} if c else {}, 1, 1, None)
        c = as_frac(c)
        return _series(var, {0: c.numerator} if c else {}, 1, c.denominator,
                       None)

    @classmethod
    def monomial(cls, var, e, c=1, trunc=INF):
        return cls(var, {as_frac(e): as_frac(c)}, trunc)

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self):
        """Read-only {exponent: coefficient} view, both Fractions."""
        view = self._view
        if view is None:
            ram, den = self._ram, self._den
            view = self._view = MappingProxyType(
                {Fraction(e, ram): Fraction(c, den)
                 for e, c in self._t.items()})
        return view

    @property
    def trunc(self):
        """Truncation bound: INF for exactly known data, else a Fraction."""
        return INF if self._tr is None else self._tr

    @property
    def ram(self) -> int:
        """Ramification index: lcm of the exponent denominators present."""
        return self._ram

    @property
    def is_exactly_zero(self) -> bool:
        return not self._t and self._tr is None

    @property
    def has_positive_order(self) -> bool:
        """ord > 0: no constant term is stored.  Exponents are never
        negative, and a series without stored terms has infinite order or
        one at least its positive truncation."""
        return 0 not in self._t

    def _lower(self):
        """Certified lower bound on the order; None for the infinite one."""
        if self._t:
            return Fraction(min(self._t), self._ram)
        return self._tr

    def order(self) -> OrderVal:
        """Exact for a witnessed least exponent, AtLeast(trunc) when
        no terms are stored, Infinite only for exactly-known zero."""
        if self._t:
            return OrderVal.exact(Fraction(min(self._t), self._ram))
        if self._tr is None:
            return OrderVal.infinite()
        return OrderVal.at_least(self._tr)

    def order_units(self):
        """The order on ints: (k, ram), ord = k / ram over the ramification
        index, when a term witnesses it; else (None, tr), the order being at
        least the truncation tr, or infinite when tr is None."""
        if self._t:
            return min(self._t), self._ram
        return None, self._tr

    def coeff(self, e) -> Fraction:
        e = as_frac(e)
        k, r = divmod(e.numerator * self._ram, e.denominator)
        c = None if r else self._t.get(k)
        return _ZERO if c is None else Fraction(c, self._den)

    def sorted_terms(self):
        ram, den = self._ram, self._den
        return [(Fraction(e, ram), Fraction(c, den))
                for e, c in sorted(self._t.items())]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = PSeries.const(self.var, other)
        return sum_of_products(self.var, ((1, self, None), (1, other, None)))

    __radd__ = __add__

    def __neg__(self):
        return _series(self.var, {e: -c for e, c in self._t.items()},
                       self._ram, self._den, self._tr)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PSeries.const(self.var, other)
        if not isinstance(other, PSeries):
            return NotImplemented
        return sum_of_products(self.var, ((1, self, None), (-1, other, None)))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        return sum_of_products(self.var, ((as_frac(c), self, None),))

    def __mul__(self, other):
        if not isinstance(other, PSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.scale(other)
        return sum_of_products(self.var, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series power wants a nonnegative integer")
        result = PSeries.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        return (self.var == other.var and self._ram == other._ram
                and self._den == other._den and self._tr == other._tr
                and self._t == other._t)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.var, self._ram, self._den, self._tr,
                                   frozenset(self._t.items())))
        return h

    def truncated(self, trunc):
        if trunc == INF:
            return self
        trunc = as_frac(trunc)
        if trunc <= 0:
            raise ValueError("truncation bound must be positive")
        if self._tr is not None and self._tr <= trunc:
            return self
        return _reduced(self.var, self._t, self._ram, self._den, trunc)

    def is_zero(self) -> bool:
        """No stored terms (exactly zero, or zero as far as known)."""
        return not self._t

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "var": self.var,
            "ram": self.ram,
            "trunc": _trunc_str(self.trunc),
            "terms": [{"e": frac_str(e), "c": frac_str(c)}
                      for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, obj):
        """The series that to_json wrote.  A malformed object is a
        ValueError that names the field at fault."""
        if not isinstance(obj, dict):
            raise ValueError(f"a series must be a JSON object, got {obj!r}")
        if "var" not in obj:
            raise ValueError('series JSON lacks the field "var"')
        terms = obj.get("terms")
        if not (isinstance(terms, list) and all(
                isinstance(t, dict) and _json_rational(t.get("e"))
                and _json_rational(t.get("c")) for t in terms)):
            raise ValueError('series JSON field "terms" must be a list of '
                             '{"e": rational, "c": rational} objects')
        if not _json_rational(obj.get("trunc")):
            raise ValueError('series JSON field "trunc" must be "inf" or a '
                             'rational')
        terms = {Fraction(t["e"]): Fraction(t["c"]) for t in terms}
        s = cls(obj["var"], terms, _trunc_parse(obj["trunc"]))
        if "ram" in obj and s.ram != obj["ram"]:
            raise ValueError(
                f"ramification field {obj['ram']} does not match exponents")
        return s

    def __repr__(self):
        if not self._t:
            body = "0"
        else:
            parts = []
            for e, c in self.sorted_terms():
                if e == 0:
                    parts.append(frac_str(c))
                else:
                    cs = "" if c == 1 else ("-" if c == -1 else frac_str(c) + "*")
                    es = self.var if e == 1 else f"{self.var}^{frac_str(e)}"
                    parts.append(f"{cs}{es}")
            body = " + ".join(parts).replace("+ -", "- ")
        if self._tr is None:
            return body
        return f"{body} + O({self.var}^{frac_str(self._tr)})"

