import json
import math
import random
from fractions import Fraction

import pytest

from lctkit.mpoly import MPoly
from lctkit.qideal import QIdeal, ord_diff_le_one, qi_ord
from lctkit.series import (
    INF, OrderVal, PSeries, as_frac, frac_str, sum_of_products,
)


def S(var="t", **terms):
    """Shorthand: S(t3=2, t0=-1) is -1 + 2t^3."""
    return PSeries(var, {Fraction(k[1:].replace("_", "/")): Fraction(v)
                         for k, v in terms.items()})


def mono(e, c=1, var="t", trunc=INF):
    return PSeries.monomial(var, Fraction(e), Fraction(c), trunc)


def rand_series(rng, var="t", max_terms=4, max_exp=8, ram=1, trunc=INF):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = Fraction(rng.randint(0, max_exp * ram), ram)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if c:
            terms[e] = c
    return PSeries(var, terms, trunc)


class TestBasics:
    def test_add_cancellation(self):
        a = mono(1) + mono(2)          # t + t^2
        b = mono(1, -1)                # -t
        s = a + b
        assert s.terms == {Fraction(2): Fraction(1)}
        assert s.trunc == INF

    def test_add_puiseux_merge(self):
        s = mono(Fraction(3, 2)) + mono(1)
        assert s.ram == 2
        assert sorted(s.terms) == [Fraction(1), Fraction(3, 2)]

    def test_add_identity(self):
        a = S(t2=3, t5=1)
        assert a + PSeries.zero("t") == a

    def test_mul_monomials(self):
        assert mono(1) * mono(2) == mono(3)

    def test_mul_binomials(self):
        one = PSeries.one("t")
        t = mono(1)
        assert (one + t) * (one - t) == one - mono(2)

    def test_mul_ram_reduces(self):
        half = mono(Fraction(1, 2))
        p = half * half
        assert p == mono(1)
        assert p.ram == 1

    def test_bools_are_not_rationals(self):
        # True == 1, but a bool where a rational belongs is a mistake
        assert as_frac(1) == 1 and as_frac("3/2") == Fraction(3, 2)
        for flag in (True, False):
            with pytest.raises(TypeError,
                               match=f"^cannot interpret {flag} as an exact"):
                as_frac(flag)
        with pytest.raises(TypeError):
            PSeries("t", {True: True})
        with pytest.raises(TypeError):
            PSeries("t", {Fraction(1): 1}, trunc=True)

    def test_var_mismatch(self):
        with pytest.raises(ValueError):
            mono(1, var="t") + mono(1, var="x")
        with pytest.raises(ValueError):
            mono(1, var="t") * mono(1, var="x")

    def test_rsub(self):
        s = PSeries("t", {1: 2, Fraction(1, 2): -1}, 4)
        assert 1 - s == PSeries.one("t") - s

    def test_pow(self):
        t = mono(1)
        assert (PSeries.one("t") + t) ** 3 == \
            PSeries("t", {Fraction(0): 1, Fraction(1): 3,
                          Fraction(2): 3, Fraction(3): 1})


class TestKeyIdentity:
    """Equal values compare and hash equal however they were built."""

    def test_int_fraction_str_and_unreduced_keys(self):
        forms = [
            PSeries("t", {0: -1, Fraction(3, 2): 2, 4: Fraction(1, 3)}, 9),
            PSeries("t", {"0": "-1", "3/2": "2", "4": "1/3"}, "9"),
            PSeries("t", {"0/5": "-2/2", "6/4": "4/2", "8/2": "2/6"},
                     Fraction(18, 2)),
            PSeries("t", {Fraction(0): Fraction(-1), Fraction(3, 2): 2,
                          Fraction(4): Fraction(2, 6), 5: 0, 10: 1}, 9),
            (mono(Fraction(3, 4)) ** 2 * 2 + mono(4, Fraction(1, 3))
             - PSeries.one("t")).truncated(9),
        ]
        for s in forms[1:]:
            assert s == forms[0]
            assert hash(s) == hash(forms[0])
            assert s.to_json() == forms[0].to_json()
        assert len({*forms}) == 1

    def test_distinct_values_differ(self):
        a = PSeries("t", {1: 2}, 9)
        for b in (PSeries("t", {1: 2}), PSeries("t", {1: 2}, 8),
                  PSeries("t", {1: 3}, 9), PSeries("t", {2: 2}, 9),
                  PSeries("t", {Fraction(1, 2): 2}, 9),
                  PSeries("x", {1: 2}, 9)):
            assert a != b


class TestOrder:
    def test_ord_exact(self):
        assert S(t2=3, t5=1).order() == OrderVal.exact(2)

    def test_ord_empty_truncated(self):
        assert PSeries.zero("t", 64).order() == OrderVal.at_least(64)

    def test_ord_puiseux(self):
        assert mono(Fraction(3, 2)).order() == OrderVal.exact(Fraction(3, 2))

    def test_ord_exact_zero_is_infinite(self):
        assert PSeries.zero("t").order().is_infinite

    def test_ord_rules_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rand_series(rng), rand_series(rng)
            oa, ob = a.order(), b.order()
            om = (a * b).order()
            if oa.is_exact and ob.is_exact:
                assert om == oa + ob
            os_ = (a + b).order()
            assert os_.lower >= min(oa.lower, ob.lower)
            if oa.is_exact and ob.is_exact and oa.value != ob.value:
                assert os_ == OrderVal.min_of([oa, ob])


class TestRingAxioms:
    def test_assoc_distrib_random(self):
        rng = random.Random(42)
        for _ in range(150):
            a, b, c = (rand_series(rng, ram=rng.choice([1, 1, 2]))
                       for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_truncated_axioms(self):
        rng = random.Random(9)
        for _ in range(100):
            a = rand_series(rng, trunc=Fraction(rng.randint(4, 10)))
            b = rand_series(rng, trunc=Fraction(rng.randint(4, 10)))
            c = rand_series(rng)
            lhs = (a + b) + c
            rhs = a + (b + c)
            assert lhs.trunc == rhs.trunc
            assert lhs.terms == rhs.terms

    def test_ram_normalized_after_ops(self):
        a = mono(Fraction(1, 2))
        b = mono(Fraction(1, 2), -1)
        s = a + b + mono(2)
        # only integer exponents survive
        assert s.ram == 1


class TestTruncation:
    def test_add_trunc_min(self):
        a = PSeries("t", {Fraction(1): 1}, 5)
        b = PSeries("t", {Fraction(2): 1}, 9)
        assert (a + b).trunc == 5

    def test_mul_trunc_shifts(self):
        a = PSeries("t", {Fraction(2): 1}, 5)   # t^2 + O(t^5)
        b = mono(3)                              # exact t^3
        p = a * b
        assert p.trunc == 8
        assert p.terms == {Fraction(5): Fraction(1)}

    def test_terms_beyond_trunc_dropped(self):
        s = PSeries("t", {Fraction(2): 1, Fraction(7): 4}, 5)
        assert Fraction(7) not in s.terms

    def test_negative_exponent_and_bound_refused(self):
        with pytest.raises(ValueError, match="negative exponent"):
            PSeries("t", {Fraction(-1, 2): 1})
        for bound in (0, Fraction(-1, 3)):
            with pytest.raises(ValueError, match="must be positive"):
                PSeries("t", {Fraction(1): 1}, bound)
            with pytest.raises(ValueError, match="must be positive"):
                mono(1).truncated(bound)

    def test_truncated_past_own_bound_is_itself(self):
        s = PSeries("t", {Fraction(1): 1, Fraction(3): 2}, 5)
        assert s.truncated(5) is s and s.truncated(9) is s
        assert s.truncated(2) == PSeries("t", {Fraction(1): 1}, 2)


def poly_of(s):
    """An exact series with int exponents as the polynomial in its
    variable."""
    assert s.trunc == INF and s.ram == 1
    return MPoly((s.var,), {(int(e),): c for e, c in s.terms.items()})


class TestSubstitute:
    """Composition f(g) of a polynomial f in x with a series g in t: the
    MPoly evaluation that Q-ideal orders along an arc run."""

    def test_power(self):
        f = poly_of(mono(2, var="x"))
        assert f.eval_series({"x": mono(3)}) == mono(6)

    def test_poly(self):
        f = poly_of(S("x", t1=1, t2=1))
        assert f.eval_series({"x": mono(1)}) == S("t", t1=1, t2=1)

    def test_with_constant(self):
        f = poly_of(PSeries.one("x") + mono(1, var="x"))
        assert f.eval_series({"x": mono(2)}) == PSeries.one("t") + mono(2)

    def test_rejects_order_zero(self):
        f = poly_of(mono(1, var="x"))
        with pytest.raises(ValueError):
            qi_ord(QIdeal([f], 1), {"x": PSeries.one("t") + mono(1)})

    def test_truncation_flows(self):
        f = poly_of(mono(1, var="x") + mono(3, var="x"))
        g = PSeries("t", {Fraction(2): 1}, 6)   # t^2 + O(t^6)
        r = f.eval_series({"x": g})
        assert r.coeff(2) == 1
        assert r.trunc == 6

    def test_exact_composition_stays_exact(self):
        f = poly_of(S("x", t1=2, t4=-1))
        g = S("t", t2=1, t3=1)
        r = f.eval_series({"x": g})
        assert r.trunc == INF


class TestJson:
    def test_roundtrip_bit_exact(self):
        s = PSeries("t", {Fraction(3, 2): Fraction(-4)}, 64)
        blob = json.dumps(s.to_json(), sort_keys=True)
        assert json.loads(blob) == {
            "var": "t", "ram": 2, "trunc": "64",
            "terms": [{"e": "3/2", "c": "-4"}],
        }
        assert PSeries.from_json(json.loads(blob)) == s

    def test_roundtrip_exact_series(self):
        s = S(t0=-1, t2=Fraction(2, 3))
        assert PSeries.from_json(s.to_json()) == s
        assert s.to_json()["trunc"] == "inf"

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(50):
            s = rand_series(rng, ram=rng.choice([1, 2, 3]))
            assert PSeries.from_json(json.loads(json.dumps(s.to_json()))) == s


class TestOrderVal:
    def test_min_exact_wins(self):
        m = OrderVal.min_of([OrderVal.exact(2), OrderVal.at_least(5)])
        assert m == OrderVal.exact(2)

    def test_min_unknown(self):
        m = OrderVal.min_of([OrderVal.exact(7), OrderVal.at_least(5)])
        assert m == OrderVal.at_least(5)

    def test_min_with_infinite(self):
        assert OrderVal.min_of([OrderVal.infinite(), OrderVal.exact(3)]) \
            == OrderVal.exact(3)

    def test_add(self):
        assert OrderVal.exact(2) + OrderVal.exact(Fraction(1, 2)) \
            == OrderVal.exact(Fraction(5, 2))
        assert (OrderVal.exact(2) + OrderVal.infinite()).is_infinite
        assert OrderVal.at_least(2) + OrderVal.exact(1) == OrderVal.at_least(3)

    def test_scale(self):
        assert OrderVal.exact(3).scale(Fraction(5, 6)) \
            == OrderVal.exact(Fraction(5, 2))
        assert OrderVal.infinite().scale(2).is_infinite
        assert OrderVal.infinite().scale(0) == OrderVal.exact(0)

    def test_le_three_valued(self):
        # true order <= b, three-valued, is ord_diff_le_one against b - 1
        def le(v, b):
            return ord_diff_le_one(v, OrderVal.exact(b - 1))
        assert le(OrderVal.exact(1), 1) == "yes"
        assert le(OrderVal.exact(2), 1) == "no"
        assert le(OrderVal.infinite(), 10) == "no"
        assert le(OrderVal.at_least(2), 1) == "no"
        assert le(OrderVal.at_least(1), 2) == "unknown"

    def test_ge_three_valued(self):
        E, A, I = OrderVal.exact, OrderVal.at_least, OrderVal.infinite
        table = [
            (I(), I(), True), (I(), E(3), True), (I(), A(3), True),
            (E(3), I(), False), (A(3), I(), None),
            (E(3), E(2), True), (E(3), E(3), True), (E(2), E(3), False),
            (A(3), E(2), True), (A(3), E(3), True), (A(2), E(3), None),
            (E(2), A(3), False), (E(3), A(3), None), (E(4), A(3), None),
            (A(2), A(3), None), (A(3), A(2), None),
        ]
        for a, b, want in table:
            assert a.ge(b) is want, (a, b)

    def test_ge_against_true_values(self):
        """True exactly when every pair of possible true orders satisfies
        >=, False when none does, else None."""
        grid = [Fraction(k, 2) for k in range(9)]

        def possible(v):
            if v.is_infinite:
                return [math.inf]
            if v.is_exact:
                return [v.value]
            return [q for q in grid if q >= v.value] + [math.inf]

        vals = [OrderVal.infinite()] + [make(q) for q in grid[:7]
                                        for make in (OrderVal.exact,
                                                     OrderVal.at_least)]
        for a in vals:
            for b in vals:
                outcomes = {x >= y for x in possible(a) for y in possible(b)}
                want = outcomes.pop() if len(outcomes) == 1 else None
                assert a.ge(b) is want, (a, b)

    def test_max(self):
        assert OrderVal.max_of([OrderVal.exact(1), OrderVal.exact(4)]) \
            == OrderVal.exact(4)
        assert OrderVal.max_of([OrderVal.exact(1), OrderVal.infinite()]) \
            .is_infinite
        assert OrderVal.max_of([OrderVal.exact(3), OrderVal.at_least(1)]) \
            == OrderVal.at_least(3)

    def test_sub(self):
        E, A, I = OrderVal.exact, OrderVal.at_least, OrderVal.infinite
        assert I().sub(E(3)).is_infinite and I().sub(I()).is_infinite
        assert E(5).sub(E(Fraction(1, 2))) == E(Fraction(9, 2))
        assert A(5).sub(E(2)) == A(3)
        for minuend in (E(5), A(5)):
            with pytest.raises(ValueError, match="finite minus infinite"):
                minuend.sub(I())
            with pytest.raises(ValueError, match="only from below"):
                minuend.sub(A(2))

    def test_bad_arguments_refused(self):
        with pytest.raises(ValueError, match="bad OrderVal kind"):
            OrderVal("exactly", 1)
        with pytest.raises(ValueError, match="negative"):
            OrderVal.exact(1).scale(Fraction(-1, 2))
        for reduce in (OrderVal.min_of, OrderVal.max_of):
            with pytest.raises(ValueError, match="empty"):
                reduce([])

    def test_json(self):
        for v in [OrderVal.exact(Fraction(7, 6)), OrderVal.at_least(64),
                  OrderVal.infinite()]:
            assert OrderVal.from_json(v.to_json()) == v


# ---------------------------------------------------------------------------
# Reference series: a {Fraction: Fraction} map and a truncation (INF or a
# Fraction), the plainest form of the semantics.  The integer kernel of
# PSeries must agree with it field by field.
# ---------------------------------------------------------------------------

class Ref:
    def __init__(self, terms, trunc=INF):
        self.trunc = trunc if trunc == INF else Fraction(trunc)
        self.terms = {Fraction(e): Fraction(c) for e, c in terms.items()
                      if c != 0 and e < self.trunc}

    @classmethod
    def of(cls, s):
        return cls(dict(s.terms), s.trunc)

    def lower(self):
        if self.terms:
            return min(self.terms)
        return self.trunc

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Ref(terms, min(self.trunc, other.trunc))

    def __mul__(self, other):
        trunc = min(self.trunc + other.lower(), other.trunc + self.lower())
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        return Ref(terms, trunc)

    def __pow__(self, n):
        out = Ref({Fraction(0): Fraction(1)})
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c):
        return Ref({e: c * k for e, k in self.terms.items()}, self.trunc)

    @property
    def ram(self):
        return math.lcm(*(e.denominator for e in self.terms))

    def order(self):
        if self.terms:
            return OrderVal.exact(min(self.terms))
        if self.trunc == INF:
            return OrderVal.infinite()
        return OrderVal.at_least(self.trunc)

    def to_json(self):
        return {"var": "t", "ram": self.ram,
                "trunc": "inf" if self.trunc == INF else frac_str(self.trunc),
                "terms": [{"e": frac_str(e), "c": frac_str(c)}
                          for e, c in sorted(self.terms.items())]}


def assert_matches(s, ref):
    assert dict(s.terms) == ref.terms
    assert s.trunc == ref.trunc and type(s.trunc) is type(ref.trunc)
    assert s.ram == ref.ram
    assert s.order() == ref.order()
    assert json.dumps(s.to_json()) == json.dumps(ref.to_json())


def wild_series(rng, exact=False, integral=False):
    """Random series: ram 1..4 (1 when integral), coefficients small or
    large and of both signs, and a truncation whose denominator need not
    divide ram."""
    ram = 1 if integral else rng.randint(1, 4)
    big = rng.random() < 0.3
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = Fraction(rng.randint(0, 6 * ram), ram)
        if big:
            c = Fraction(rng.randint(-10 ** 12, 10 ** 12),
                         rng.randint(1, 10 ** 6))
        else:
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        terms[e] = c
    trunc = INF
    if not exact and rng.random() < 0.4:
        trunc = Fraction(rng.randint(1, 30), rng.choice([1, 2, 3, 5, 7]))
    return PSeries("t", terms, trunc)


class TestAgainstReference:
    def test_add_and_scale(self):
        rng = random.Random(101)
        for _ in range(400):
            a, b = wild_series(rng), wild_series(rng)
            assert_matches(a + b, Ref.of(a) + Ref.of(b))
            assert_matches(a - b, Ref.of(a) + Ref.of(b).scale(-1))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert_matches(a.scale(c), Ref.of(a).scale(c))
            assert_matches(a * c, Ref.of(a).scale(c))

    def test_cancellation(self):
        """a + (-a + b) is b, down to zero and down to a smaller ram."""
        rng = random.Random(102)
        for _ in range(200):
            a = wild_series(rng, exact=True)
            b = wild_series(rng, integral=rng.random() < 0.5)
            s = a + (b - a)
            assert_matches(s, Ref.of(a) + (Ref.of(b) + Ref.of(a).scale(-1)))
            assert s == b
            z = a - a
            assert_matches(z, Ref({}))
            assert z.ram == 1 and z.is_exactly_zero
        half = PSeries("t", {Fraction(1, 2): 3, Fraction(2): 1})
        s = half + PSeries("t", {Fraction(1, 2): -3, Fraction(5, 3): 2}, 7)
        assert s.ram == 3
        assert_matches(s - PSeries.monomial("t", Fraction(5, 3), 2),
                       Ref({Fraction(2): 1}, 7))

    def test_mul_and_pow(self):
        rng = random.Random(103)
        for _ in range(400):
            a, b = wild_series(rng), wild_series(rng)
            assert_matches(a * b, Ref.of(a) * Ref.of(b))
            n = rng.randint(0, 4)
            assert_matches(a ** n, Ref.of(a) ** n)


def fold(triples):
    """sum_of_products one operator at a time: acc + (a*b).scale(k) from
    exact zero."""
    acc = PSeries.zero("t")
    for k, a, b in triples:
        acc = acc + (a if b is None else a * b).scale(k)
    return acc


def fields(s):
    return s._t, s._ram, s._den, s._tr


def rand_operand(rng):
    """A wild series, or an exactly zero or a truncated empty one."""
    r = rng.random()
    if r < 0.1:
        return PSeries.zero("t")
    if r < 0.2:
        return PSeries.zero("t", Fraction(rng.randint(1, 20),
                                          rng.choice([1, 2, 3])))
    return wild_series(rng)


def rand_triples(rng):
    triples = []
    for _ in range(rng.randint(0, 6)):
        k = rng.choice([0, 1, -1, rng.randint(-40, 40),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        b = None if rng.random() < 0.3 else rand_operand(rng)
        triples.append((k, rand_operand(rng), b))
    return triples


class TestSumOfProducts:
    """The fused kernel against the {Fraction: Fraction} reference, and
    against the same sum folded over + and *."""

    def test_matches_fold(self):
        rng = random.Random(106)
        for _ in range(600):
            triples = rand_triples(rng)
            got = sum_of_products("t", triples)
            assert fields(got) == fields(fold(triples))
            want = Ref({})
            for k, a, b in triples:
                term = Ref.of(a) if b is None else Ref.of(a) * Ref.of(b)
                want = want + term.scale(Fraction(k))
            assert_matches(got, want)

    def test_every_bound_source_counts(self):
        a = PSeries("t", {Fraction(1): 2}, 5)
        b = PSeries("t", {Fraction(3): 1}, 4)
        c = PSeries("t", {Fraction(1, 2): 1, Fraction(3): 1})
        # min(T_a + ord(b), T_b + ord(a)) = min(8, 5), in either order
        for x, y in ((a, b), (b, a)):
            assert sum_of_products("t", [(1, x, y)]).trunc == 5
        # beside an exact factor: T_a + ord(c) = 11/2
        assert sum_of_products("t", [(1, c, a), (1, c, None)]).trunc \
            == Fraction(11, 2)
        # a zero k and an operand without terms still bound the sum
        e = PSeries.zero("t", Fraction(7, 2))
        for triple in [(0, a, None), (0, a, c), (2, e, None), (1, c, e)]:
            got = sum_of_products("t", [(1, c, None), triple])
            assert got.trunc == fold([triple]).trunc < INF
            assert fields(got) == fields(fold([(1, c, None), triple]))
        # an exactly zero operand leaves the product exactly zero
        z = PSeries.zero("t")
        assert sum_of_products("t", [(1, z, a), (1, e, z)]).is_exactly_zero

    def test_empty_and_mismatched(self):
        assert sum_of_products("t", []).is_exactly_zero
        with pytest.raises(ValueError):
            sum_of_products("t", [(1, PSeries.one("x"), None)])
        with pytest.raises(ValueError):
            sum_of_products("t", [(1, PSeries.one("t"), PSeries.one("x"))])
