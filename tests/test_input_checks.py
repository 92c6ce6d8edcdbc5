"""The public functions refuse malformed arguments with their own message,
before any work: one case per check."""

from fractions import Fraction as F

import pytest

from lctkit.ideals import build_bbar_k, example3_test
from lctkit.mpoly import MPoly
from lctkit.numeric import perturbation_check, puiseux_expand
from lctkit.oracle import (
    lct_binomial_curve, lct_monomial_ideal, lct_plane_nondegenerate,
)
from lctkit.poly import UPoly, composed_difference, compound_poly
from lctkit.qideal import QIdeal
from lctkit.reports import partial_sums
from lctkit.series import PSeries


def _cusp(var="t"):
    """y^2 - var^3."""
    return UPoly("y", [PSeries.zero(var), -PSeries.monomial(var, 3)])


def _cubic():
    """y^3 + t^2 y + t^3."""
    return UPoly("y", [PSeries.zero("t"), PSeries.monomial("t", 2),
                       PSeries.monomial("t", 3)])


CASES = [
    ("from-roots-empty", lambda: UPoly.from_roots("y", []),
     ValueError, "need at least one root"),
    ("composed-difference-variables",
     lambda: composed_difference(_cusp("t"), _cusp("x")),
     ValueError, "series variable mismatch: 't' vs 'x'"),
    ("compound-k-zero", lambda: compound_poly(_cusp(), 0),
     ValueError, "k out of range"),
    ("compound-k-past-degree", lambda: compound_poly(_cusp(), 3),
     ValueError, "k out of range"),
    ("partial-sums-k-zero", lambda: partial_sums(_cusp(), 0),
     ValueError, "k out of range"),
    ("partial-sums-k-past-degree", lambda: partial_sums(_cusp(), 3),
     ValueError, "k out of range"),
    ("puiseux-depth-zero", lambda: puiseux_expand(_cusp(), 0),
     ValueError, "depth must be positive"),
    ("puiseux-depth-negative", lambda: puiseux_expand(_cusp(), "-1/2"),
     ValueError, "depth must be positive"),
    ("perturbation-degrees", lambda: perturbation_check(_cusp(), _cubic(), 4),
     ValueError, "perturbation check needs equal degrees"),
    ("bbar-k-zero", lambda: build_bbar_k(3, 0),
     ValueError, "k out of range"),
    ("bbar-k-past-degree", lambda: build_bbar_k(3, 4),
     ValueError, "k out of range"),
    ("example3-degree", lambda: example3_test(1, F(1, 2), []),
     ValueError, "d must be at least 2"),
    ("example3-tail-length",
     lambda: example3_test(3, F(1, 2), [PSeries.monomial("x", 2)]),
     ValueError, r"expected coefficients a_2\.\.a_3"),
    ("example3-tail-order",
     lambda: example3_test(3, F(1, 2), [PSeries.monomial("x", 2),
                                        PSeries.const("x", 1)]),
     ValueError, "coefficients must have positive order"),
    ("mpoly-arity", lambda: MPoly(("x",), {(1, 2): 1}),
     ValueError, "exponent arity does not match variables"),
    ("mpoly-negative-exponent", lambda: MPoly(("x", "y"), {(1, -1): 1}),
     ValueError, "negative exponent in polynomial"),
    ("qideal-negative-exponent",
     lambda: QIdeal([MPoly.variable("x")], F(-1, 2)),
     ValueError, "Q-ideal exponent must be nonnegative"),
    ("qideal-generator-type", lambda: QIdeal(["x"], 1),
     TypeError, "generators must be MPoly"),
    ("qideal-no-generator", lambda: QIdeal([MPoly.zero(), 0], 1),
     ValueError, "no nonzero generators"),
    ("monomial-no-vectors", lambda: lct_monomial_ideal([]),
     ValueError, "no exponent vectors"),
    ("monomial-mixed-arity", lambda: lct_monomial_ideal([[1], [1, 2]]),
     ValueError, "exponent vectors of mixed arity"),
    ("monomial-negative", lambda: lct_monomial_ideal([[2, -1]]),
     ValueError, "exponents must be nonnegative"),
    ("plane-zero", lambda: lct_plane_nondegenerate(MPoly.zero()),
     ValueError, "zero polynomial"),
    ("binomial-d-zero", lambda: lct_binomial_curve(0, 3),
     ValueError, "exponents must be positive"),
    ("binomial-k-zero", lambda: lct_binomial_curve(2, 0),
     ValueError, "exponents must be positive"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_malformed_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
