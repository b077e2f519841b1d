"""Family identification read from the template cells: what it reports."""

from diffalg.classify import identify_family
from diffalg.templates import generate_templates, instantiate_template

from conftest import build


def test_zero_leading_coefficient_is_a_violation():
    # b1 with the leading slot of its interacting pair cleared; files with
    # such a table are refused on loading, library callers get a violation
    P = build(3, {(1, 3): 0, (3, 1): 2, (1, 2): 5, (2, 1): 4,
                  (2, 3): 5, (3, 2): 4}, {1: 1, 3: 7})
    fam = identify_family(P)
    assert fam.family == "Inconsistent"
    assert ("coefficient of D1 D3 is 0, but the leading slot of every pair "
            "must be invertible") in fam.violations


def test_parameters_are_reported_by_kind_then_index():
    # the cells of this row use gbp1 and gbp2 before gbm1; the report keeps
    # the two sides of each bullet component together
    skel = next(r for r in generate_templates(5, "full")
                if r.family == "A_I" and r.I == (1, 3, 5)
                and r.T_bullet == ((2,), (4,)))
    values = {name: k for k, name in enumerate(skel.params, start=2)}
    fam = identify_family(instantiate_template(skel, values))
    assert fam.family == "A_I"
    assert list(fam.params) == ["g", "gbp1", "gbm1", "gbp2", "gbm2",
                                "x1", "x3", "x5"]
    assert fam.params == {name: values[name] for name in fam.params}
