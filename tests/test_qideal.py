import json
import random
from fractions import Fraction

import pytest

from lctkit.criterion import choose_p
from lctkit.ideals import _pair_ideals, build_p_plus_minus, degree3_test
from lctkit.mpoly import MPoly
from lctkit.qideal import (
    NO, QIdeal, QIdealFrac, UNKNOWN, YES, lc_dim1, ord_diff_le_one, qi_ord,
    qi_power, qi_product, qi_sum,
)
from lctkit.series import OrderVal, PSeries

F = Fraction


def x_to(e):
    """The polynomial x^e, read along an arc x -> t-series."""
    return MPoly(("x",), {(e,): F(1)})


def arc_t(e=1):
    """Arc x -> t^e."""
    return {"x": PSeries.monomial("t", F(e))}


def zvar(i):
    return MPoly.variable(f"z{i}")


def rand_gens(rng, nvars=2):
    """Random generators in z1..z_nvars and an exponent."""
    gens = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            terms[exps] = F(rng.randint(-4, 4))
        p = MPoly(tuple(f"z{i}" for i in range(1, nvars + 1)), terms)
        if not p.is_zero():
            gens.append(p)
    if not gens:
        gens = [zvar(1)]
    exp = F(rng.randint(1, 2), rng.randint(1, 3))
    return gens, exp


def rand_ideal(rng, nvars=2):
    return QIdeal(*rand_gens(rng, nvars))


def rand_arc(rng, nvars=2):
    arc = {}
    for i in range(1, nvars + 1):
        terms = {F(rng.randint(1, 4)): F(rng.randint(1, 5))}
        arc[f"z{i}"] = PSeries("t", terms)
    return arc


class TestProductSumPower:
    def test_product_exponents_add(self):
        a = QIdeal([x_to(1)], F(1, 2))
        b = QIdeal([x_to(1)], F(1, 3))
        p = qi_product([a, b])
        assert qi_ord(p, arc_t()) == OrderVal.exact(F(5, 6))

    def test_product_unit_identity(self):
        rng = random.Random(1)
        a = rand_ideal(rng)
        unit = qi_power(QIdeal.unit(), F(3, 7))
        p = qi_product([a, unit])
        for seed in range(10):
            arc = rand_arc(random.Random(seed))
            assert qi_ord(p, arc) == qi_ord(a, arc)

    def test_product_ord_additive(self):
        a = QIdeal([x_to(2), x_to(3)], F(1))
        b = QIdeal([x_to(1)], F(1))
        p = qi_product([a, b])
        assert qi_ord(p, {"x": PSeries.monomial("t", 1)}) == OrderVal.exact(3)

    def test_sum_is_min(self):
        a = QIdeal([x_to(3)], F(1))
        b = QIdeal([x_to(5)], F(1))
        assert qi_ord(qi_sum([a, b]), arc_t()) == OrderVal.exact(3)

    def test_sum_of_root_powers_d3(self):
        b = qi_sum([qi_power(QIdeal([zvar(i)], 1), F(1, i))
                    for i in range(1, 4)])
        assert not b.is_zero
        arc = {"z1": PSeries.zero("t"), "z2": PSeries.zero("t"),
               "z3": PSeries.monomial("t", 3, -1)}
        assert qi_ord(b, arc) == OrderVal.exact(1)

    def test_sum_idempotent_on_orders(self):
        rng = random.Random(5)
        a = rand_ideal(rng)
        s = qi_sum([a, a])
        for seed in range(10):
            arc = rand_arc(random.Random(seed))
            assert qi_ord(s, arc) == qi_ord(a, arc)

    def test_power(self):
        # a power multiplies the exponent of every factor of every term
        a = QIdeal([x_to(1)], F(1, 2))
        assert qi_power(a, 2).terms == (((x_to(1), F(1)),),)
        assert qi_power(a, 1).terms == a.terms
        z1, z2 = MPoly.variable("z1") ** 3, MPoly.variable("z2") ** 2
        b = QIdeal([z1, z2], F(1, 6))
        assert qi_power(b, 3).terms == (((z1, F(1, 2)),), ((z2, F(1, 2)),))
        assert qi_power(b, 0).terms == QIdeal.unit().terms == ((),)
        assert qi_power(QIdeal.zero(), 0).is_zero
        with pytest.raises(ValueError):
            qi_power(a, -1)

    def test_product_adds_the_exponents_of_a_shared_generator(self):
        z1, z2 = zvar(1), zvar(2)
        a = QIdeal([z1, z2], F(1, 2))
        b = QIdeal([z1], F(1, 3))
        assert qi_product([a, b]).terms == (
            ((z1, F(5, 6)),), ((z2, F(1, 2)), (z1, F(1, 3))))
        assert qi_product([a, QIdeal.zero()]).is_zero
        assert qi_product([]).terms == ((),)

    def test_sum_is_the_union_of_terms(self):
        a = QIdeal([zvar(1), zvar(2)], F(1, 2))
        b = QIdeal([zvar(2), zvar(1) ** 2], F(1, 2))
        assert qi_sum([a, b, QIdeal.zero()]).terms == (
            ((zvar(1), F(1, 2)),), ((zvar(2), F(1, 2)),),
            ((zvar(1) ** 2, F(1, 2)),))
        assert qi_sum([]).is_zero


# One polynomial, z1, spelled three ways: over a wider tuple, as a
# cancellation that leaves z2 unused, and over an unsorted tuple.
SPELLINGS = {
    "wider": lambda: MPoly(("z1", "z2"), {(1, 0): 1}),
    "cancelled": lambda: zvar(1) + zvar(2) - zvar(2),
    "unsorted": lambda: MPoly(("z2", "z1"), {(0, 1): 1}),
}


class TestOneStoredForm:
    """Every spelling of a polynomial is stored one way, so Q-ideals merge
    and cache equal generators whatever tuple built them."""

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_spellings_are_one_generator(self, spelling, monkeypatch):
        a, b = zvar(1), SPELLINGS[spelling]()
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        prod = qi_product([QIdeal([a], 1), QIdeal([b], 1)])
        assert prod.terms == (((a, F(2)),),)
        assert repr(prod) == "(z1)^2"
        assert len(qi_sum([QIdeal([a], 1), QIdeal([b], 1)]).terms) == 1

        calls = []
        evaluate = MPoly.eval_series

        def counted(self, mapping):
            calls.append(self)
            return evaluate(self, mapping)

        monkeypatch.setattr(MPoly, "eval_series", counted)
        s = qi_sum([QIdeal([a], 1), QIdeal([b], F(1, 2))])
        arc = {"z1": PSeries.monomial("t", F(2)),
               "z2": PSeries.monomial("t", F(1))}
        assert qi_ord(s, arc) == OrderVal.exact(1)
        assert calls == [a]


class TestOrd:
    def test_principal_along_power_arc(self):
        a = QIdeal([MPoly.variable("x")], F(5, 6))
        got = qi_ord(a, {"x": PSeries.monomial("t", 2)})
        assert got == OrderVal.exact(F(5, 3))

    def test_two_generator_min(self):
        for k in (1, 2, 5):
            a = QIdeal([zvar(1) ** 3, zvar(2) ** 2], F(1, 6))
            arc = {"z1": PSeries.zero("t"),
                   "z2": PSeries.monomial("t", k)}
            assert qi_ord(a, arc) == OrderVal.exact(F(k, 3))

    def test_zero_ideal_infinite(self):
        assert qi_ord(QIdeal.zero(), arc_t()).is_infinite

    def test_arc_positivity_enforced(self):
        a = QIdeal([MPoly.variable("x")], F(1))
        with pytest.raises(ValueError):
            qi_ord(a, {"x": PSeries.one("t")})

    def test_arc_must_cover_every_variable(self):
        a = QIdeal([zvar(1) * zvar(2)], F(1))
        with pytest.raises(ValueError,
                           match="arc does not cover variable 'z2'"):
            qi_ord(a, {"z1": PSeries.monomial("t", 1)})

    def test_morphism_properties_random(self):
        rng = random.Random(99)
        for _ in range(100):
            a, b = rand_ideal(rng), rand_ideal(rng)
            arc = rand_arc(rng)
            oa, ob = qi_ord(a, arc), qi_ord(b, arc)
            assert qi_ord(qi_product([a, b]), arc) == oa + ob
            assert qi_ord(qi_sum([a, b]), arc) == OrderVal.min_of([oa, ob])
            c = F(rng.randint(1, 7), rng.randint(1, 4))
            assert qi_ord(qi_power(a, c), arc) == oa.scale(c)

    def test_common_denominator_invariance(self):
        # (g^2)^(q/2) spells g^q: doubling the exponent denominators must
        # not change any order
        rng = random.Random(7)
        for _ in range(100):
            (ga, ea), (gb, eb) = rand_gens(rng), rand_gens(rng)
            a, b = QIdeal(ga, ea), QIdeal(gb, eb)
            arc = rand_arc(rng)
            p1 = qi_product([a, b])
            s1 = qi_sum([a, b])
            a2 = QIdeal([g * g for g in ga], ea / 2)
            b2 = QIdeal([g * g for g in gb], eb / 2)
            assert qi_ord(qi_product([a2, b2]), arc) == qi_ord(p1, arc)
            assert qi_ord(qi_sum([a2, b2]), arc) == qi_ord(s1, arc)


class TestLcDim1:
    def test_boundary_difference_one(self):
        num = QIdeal([x_to(2)], F(1))
        den = QIdeal([x_to(1)], F(1))
        assert lc_dim1(QIdealFrac(num, den), arc_t()) == YES

    def test_difference_two(self):
        num = QIdeal([x_to(3)], F(1))
        den = QIdeal([x_to(1)], F(1))
        assert lc_dim1(QIdealFrac(num, den), arc_t()) == NO

    def test_effective_half(self):
        num = QIdeal([x_to(1)], F(1, 2))
        den = QIdeal([MPoly.const(1)], F(1))
        assert lc_dim1(QIdealFrac(num, den), arc_t()) == YES
        assert lc_dim1(QIdealFrac(num), arc_t()) == YES

    def test_zero_part_is_error(self):
        num = QIdeal.zero()
        den = QIdeal([x_to(1)], F(1))
        with pytest.raises(ValueError):
            lc_dim1(QIdealFrac(num, den), arc_t())
        # a zero factor makes its product the zero ideal
        with pytest.raises(ValueError, match="zero Q-ideal"):
            lc_dim1(QIdealFrac(den, qi_product([den, num])), arc_t())

    def test_truncation_unknown(self):
        # w along O(t^8): ord >= 8 > 2
        num = QIdeal([MPoly.variable("w")], F(1))
        den = QIdeal([x_to(1)], F(1))
        arc = {**arc_t(), "w": PSeries.zero("t", 8)}
        assert lc_dim1(QIdealFrac(num, den), arc) == NO
        den_big = QIdeal([x_to(7)], F(1))
        assert lc_dim1(QIdealFrac(num, den_big), arc) \
            == UNKNOWN

    @pytest.mark.parametrize("on,od,verdict", [
        (OrderVal.exact(3), OrderVal.infinite(), YES),
        (OrderVal.exact(3), OrderVal.at_least(2), YES),
        (OrderVal.exact(3), OrderVal.at_least(1), UNKNOWN),
        (OrderVal.at_least(3), OrderVal.at_least(1), UNKNOWN),
    ], ids=["exact-inf", "exact-atleast-yes", "exact-atleast-unknown",
            "atleast-atleast"])
    def test_inexact_denominator(self, on, od, verdict):
        # an infinite denominator leaves a finite numerator's difference at
        # -inf; a denominator of at least k bounds the difference by
        # ord(numer) - k from above only
        assert ord_diff_le_one(on, od) == verdict

    def test_fraction_equivalence(self):
        # multiplying both parts by a common ideal preserves the verdict
        rng = random.Random(3)
        for _ in range(50):
            n = QIdeal([x_to(rng.randint(1, 5))], F(rng.randint(1, 3)))
            d = QIdeal([x_to(rng.randint(1, 5))], F(rng.randint(1, 3), 2))
            m = QIdeal([x_to(rng.randint(1, 4))], F(rng.randint(1, 3), 3))
            base = lc_dim1(QIdealFrac(n, d), arc_t())
            scaled = lc_dim1(QIdealFrac(qi_product([n, m]),
                                        qi_product([d, m])), arc_t())
            assert base == scaled


class TestJson:
    def test_roundtrip_poly_gens(self):
        a = QIdeal([zvar(1) ** 3 - zvar(2)], F(2, 3))
        b = QIdeal.from_json(json.loads(json.dumps(a.to_json())))
        assert b.terms == a.terms
        p = qi_product([a, QIdeal([zvar(1), zvar(2)], F(1, 2))])
        assert QIdeal.from_json(json.loads(json.dumps(p.to_json()))).terms \
            == p.terms

    def test_roundtrip_frac(self):
        fr = QIdealFrac(QIdeal([x_to(2)], 1), QIdeal([x_to(1)], F(1, 2)))
        back = QIdealFrac.from_json(json.loads(json.dumps(fr.to_json())))
        assert back.numer.terms == fr.numer.terms
        assert back.denom.terms == fr.denom.terms
        assert fr.to_json()["den"] == {"terms": [[{
            "gen": x_to(1).to_json(), "exp": "1/2"}]]}

    def test_zero_roundtrip(self):
        z = QIdeal.zero()
        assert z.to_json() == {"terms": []}
        assert QIdeal.from_json(z.to_json()).is_zero
        assert QIdeal.unit().to_json() == {"terms": [[]]}
        assert QIdeal.from_json({"terms": [[]]}).terms == ((),)

    @pytest.mark.parametrize("obj,field", [
        ([], "vars"), ({"terms": []}, "vars"), ({"vars": "z1"}, "vars"),
        ({"vars": ["z1"]}, "terms"),
        ({"vars": ["z1"], "terms": [{"exps": [1]}]}, "terms"),
        ({"vars": ["z1"], "terms": [{"exps": ["1"], "c": "1"}]}, "terms"),
    ], ids=["list", "no-vars", "vars-str", "no-terms", "no-c", "exps-str"])
    def test_polynomial_names_the_missing_field(self, obj, field):
        with pytest.raises(ValueError, match=f'field "{field}"'):
            MPoly.from_json(obj)

    @pytest.mark.parametrize("obj,field", [
        ({"exp": "1", "gens": []}, "terms"), ({"terms": {}}, "terms"),
        ({"terms": [[{"gen": zvar(1).to_json()}]]}, "terms"),
        ({"terms": [{"gen": zvar(1).to_json(), "exp": "1"}]}, "terms"),
        ({"terms": [[{"gen": zvar(1).to_json(), "exp": "-1/2"}]]}, "exp"),
        ({"terms": [[{"gen": {"terms": []}, "exp": "1"}]]}, "vars"),
    ], ids=["old-shape", "terms-dict", "no-exp", "flat-terms",
            "negative-exp", "bad-gen"])
    def test_qideal_names_the_missing_field(self, obj, field):
        with pytest.raises(ValueError, match=f'field "{field}"'):
            QIdeal.from_json(obj)

    @pytest.mark.parametrize("obj,field", [
        ({"den": {"terms": [[]]}}, "num"), ({"num": {"terms": [[]]}}, "den"),
        ("pair", "num"), ({"num": {"terms": [[]]}, "den": {}}, "terms"),
    ], ids=["no-num", "no-den", "str", "bad-den"])
    def test_pair_names_the_missing_field(self, obj, field):
        with pytest.raises(ValueError, match=f'field "{field}"'):
            QIdealFrac.from_json(obj)


class TestRepr:
    def test_generators_and_exponent(self):
        a = QIdeal([zvar(1) ** 3, zvar(2) ** 2 - zvar(2)], F(1, 6))
        assert repr(a) == "(z1^3)^1/6 + (z2^2 - z2)^1/6"
        assert repr(qi_product([a, QIdeal([zvar(1)], 1)])) == \
            "(z1^3)^1/6*(z1)^1 + (z2^2 - z2)^1/6*(z1)^1"
        assert repr(QIdeal.zero()) == "(0)"
        assert repr(QIdeal.unit()) == "(1)"


def _consistent(u, v):
    """Two interval orders of one ideal admit a common true value."""
    if u.is_exact and v.is_exact:
        return u.value == v.value
    if u.is_infinite or v.is_infinite:
        return not (u.is_exact or v.is_exact)
    return (not u.is_exact or u.value >= v.value) and \
        (not v.is_exact or v.value >= u.value)


def _rand_formal(rng):
    """A random sum, product or power of random Q-ideals."""
    a, b = rand_ideal(rng), rand_ideal(rng)
    return rng.choice([
        a, qi_sum([a, b]), qi_product([a, b]),
        qi_power(a, F(rng.randint(1, 3), rng.randint(1, 3))),
        qi_sum([qi_product([a, b]), qi_power(b, F(1, 2))])])


class TestAgainstMaterialization:
    """qi_ord against materialized_ord, which multiplies every term out at
    the common denominator of its exponents."""

    def test_random_exact_arcs(self, materialized_ord):
        rng = random.Random(2024)
        for _ in range(200):
            a, arc = _rand_formal(rng), rand_arc(rng)
            assert qi_ord(a, arc) == materialized_ord(a, arc), (a, arc)

    def test_truncated_arcs_never_contradict(self, materialized_ord):
        rng = random.Random(77)
        for _ in range(200):
            a = _rand_formal(rng)
            arc = {v: u.truncated(F(rng.randint(2, 6)))
                   for v, u in rand_arc(rng).items()}
            assert _consistent(qi_ord(a, arc), materialized_ord(a, arc)), \
                (a, arc)

    def test_one_ideal_spelled_two_ways(self, materialized_ord):
        # g = z1 - z2 along z1 = z2 = t + O(t^3) has order >= 3, so (g)(g)
        # and ((g)^(1/2))^4 both read >= 6; multiplied out, g^2 reads >= 4
        g = zvar(1) - zvar(2)
        u = PSeries("t", {F(1): F(1)}, 3)
        arc = {"z1": u, "z2": u}
        square = qi_product([QIdeal.principal(g), QIdeal.principal(g)])
        fourth = qi_power(QIdeal.principal(g, F(1, 2)), 4)
        assert qi_ord(square, arc) == qi_ord(fourth, arc) == \
            OrderVal.at_least(6)
        assert materialized_ord(square, arc) == OrderVal.at_least(4)
        mixed = qi_product([QIdeal.principal(g, F(1, 2)),
                            QIdeal.principal(g, F(1, 3))])
        assert qi_ord(mixed, arc) == OrderVal.at_least(F(5, 2))


def _band(d, b_max=60):
    """Every c = a/b in (1/d, 1] with b <= b_max."""
    return sorted({F(a, b) for b in range(1, b_max + 1)
                   for a in range(1, b + 1) if F(a, b) > F(1, d)})


class TestNoPolynomialProduct:
    def test_qideal_work_multiplies_no_polynomial(self, monkeypatch):
        """Sums, products, powers and orders of Q-ideals, the plus/minus
        pair and degree3_test run with MPoly's products switched off."""
        rng = random.Random(404)
        pool = [rand_ideal(rng) for _ in range(40)]
        arcs = [rand_arc(rng) for _ in range(40)]
        for d in (2, 3):
            _pair_ideals(d)           # the closed forms, built once

        def refuse(*args):
            raise AssertionError("a Q-ideal operation multiplied polynomials")

        for name in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(MPoly, name, refuse)
        with pytest.raises(AssertionError):
            zvar(1) * 2
        for a, b, arc in zip(pool, pool[1:], arcs):
            qi_ord(qi_sum([a, b]), arc)
            qi_ord(qi_product([a, qi_power(b, F(7, 3))]), arc)
        big = {2: [F(7919, 7920)], 3: [F(3999, 4000)]}
        arc2 = {"z1": PSeries.monomial("x", 1), "z2": PSeries.monomial("x", 3)}
        a, b = PSeries.monomial("x", 2), PSeries.monomial("x", 3, -1)
        for d in (2, 3):
            for c in _band(d) + big[d]:
                pair = build_p_plus_minus(choose_p(d, c))
                if d == 2:
                    pair.ord_numer(arc2)
                else:
                    degree3_test(a, b, c)
