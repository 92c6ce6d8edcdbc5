"""The package's public names: each resolves from `lctkit` to the object its
defining module holds, whether `lctkit/__init__.py` imports it eagerly or on
first access, and `dir(lctkit)` lists it."""

import importlib

import pytest

import lctkit

# every name lctkit exports, by the module that defines it
PUBLIC = {
    "errors": ("BudgetError", "ConsistencyError", "DegenerateError",
               "LctkitError", "ParseError", "PrecisionError",
               "TruncationError"),
    "series": ("INF", "NO", "OrderVal", "PSeries", "UNKNOWN", "YES"),
    "poly": ("UPoly", "compound_poly", "difference_poly"),
    "mpoly": ("MPoly", "resultant", "taylor_shift", "value_poly"),
    "qideal": ("QIdeal", "QIdealFrac", "lc_dim1", "qi_ord", "qi_power",
               "qi_product", "qi_sum"),
    "rootdata": ("root_orders",),
    "reports": ("NewtonPolygon", "integrality_test", "max_root_order",
                "newton_polygon", "partial_sums"),
    "numeric": ("DiffOrderTable", "PuiseuxRootSet",
                "contact_order_identity_check", "diff_orders",
                "orders_against_series", "perturbation_check",
                "puiseux_expand"),
    "criterion": ("CriterionContext", "choose_p", "lct_ge"),
    "ideals": ("Cor3Pack", "build_b", "build_bbar_k",
               "build_bk", "build_c", "build_cor3_pack",
               "build_p_plus_minus", "build_tilde_bk", "containment_check",
               "cor3_divisibility", "degree3_test", "depressed_cubic",
               "example3_test"),
    "oracle": ("lct_binomial_curve", "lct_monomial_ideal",
               "lct_plane_nondegenerate"),
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names]


@pytest.mark.parametrize("module,name", NAMES,
                         ids=[name for _, name in NAMES])
def test_name_resolves_to_its_definition(module, name):
    defining = importlib.import_module(f"lctkit.{module}")
    assert getattr(lctkit, name) is getattr(defining, name)


def test_dir_lists_every_name():
    assert {name for _, name in NAMES} <= set(dir(lctkit))
    assert "__version__" in dir(lctkit)


def test_from_import_resolves_lazy_names():
    from lctkit import degree3_test, diff_orders, lct_binomial_curve

    from lctkit.ideals import degree3_test as defined
    assert degree3_test is defined
    assert diff_orders.__module__ == "lctkit.numeric"
    assert lct_binomial_curve.__module__ == "lctkit.oracle"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lctkit.no_such_name
    assert not hasattr(lctkit, "_expanded")
    with pytest.raises(ImportError):
        from lctkit import no_such_name  # noqa: F401


def test_moved_names_have_one_home():
    """The numeric layer, the criterion ideals, the symbolic layer and the
    reports are not re-exported by the modules they left."""
    from lctkit import criterion, poly, rootdata

    assert not [name for name in PUBLIC["numeric"]
                if hasattr(rootdata, name)]
    assert not [name for name in PUBLIC["ideals"] + ("QIdeal",)
                if hasattr(criterion, name)]
    assert not [name for name in PUBLIC["mpoly"] + ("q_squarefree",)
                if hasattr(poly, name)]
    assert not [name for name in PUBLIC["reports"] + (
        "cross_difference_orders",) if hasattr(rootdata, name)]
