"""The nine result records: frozen, compared and hashed by class and fields,
printed as dataclasses print them, and rebuilt by copy and pickle.
"""

import copy
import pickle

import pytest

from stagedtree import (
    BNReport,
    ConstraintMatrix,
    DiscreteBN,
    ExpFamForm,
    FitResult,
    ParameterVector,
    SearchConfig,
    SearchResult,
    StagedTree,
    StageEquation,
    constraint_matrix,
    natural_parameters,
    stage_equations,
    star,
)
from stagedtree.errors import StagedTreeError
from stagedtree.fit import MergeStep

THETA = ParameterVector({("r", 1): 0.25, ("r", 2): 0.75})
TREE = star(2)


def fit_result(bic=5.886):
    return FitResult(theta=THETA, log_likelihood=-2.25, d=1, n_obs=4, bic=bic, boundary=False)


def merge_step(kept="v2"):
    return MergeStep(kept, "v3", bic_before=12.5, bic_after=11.0)


def stage_equation(j=1, degree=2):
    """Equation j of the stage of a and b, each with ``degree`` leaves."""
    children = {"r": ["a", "b"], "a": ["x", "y", "u"][:degree], "b": ["z", "w", "t"][:degree]}
    return stage_equations(StagedTree(children, stages={"a": "s", "b": "s"}))[j - 1]


def expfam_form(first=0.5):
    theta = {("r", 1): first, ("r", 2): 0.75 - first, ("r", 3): 0.25}
    return natural_parameters(star(3), ParameterVector(theta))


# per record: a factory of equal instances, a different instance, and the repr
# the dataclass of the same name printed
CASES = {
    "FitResult": (
        fit_result,
        fit_result(bic=6.0),
        "FitResult(log_likelihood=-2.25, d=1, n_obs=4, bic=5.886, boundary=False)",
    ),
    "SearchConfig": (
        lambda: SearchConfig(max_merges=2, same_depth=False, alpha=0.5),
        SearchConfig(max_merges=3, same_depth=False, alpha=0.5),
        "SearchConfig(max_merges=2, same_depth=False, alpha=0.5)",
    ),
    "MergeStep": (
        merge_step,
        merge_step(kept="v1"),
        "MergeStep(kept='v2', absorbed='v3', bic_before=12.5, bic_after=11.0)",
    ),
    "SearchResult": (
        lambda: SearchResult(tree=TREE, fit=fit_result(), trace=(merge_step(),)),
        SearchResult(tree=TREE, fit=fit_result(), trace=()),
        "SearchResult(tree=StagedTree(k=1, n=2, stages=1), fit=FitResult(log_likelihood=-2.25,"
        " d=1, n_obs=4, bic=5.886, boundary=False), trace=(MergeStep(kept='v2', absorbed='v3',"
        " bic_before=12.5, bic_after=11.0),))",
    ),
    "ConstraintMatrix": (
        lambda: ConstraintMatrix((("v1", 1), ("v2", 1)), ((0, 1),)),
        ConstraintMatrix((("v1", 1), ("v3", 1)), ((0, 1),)),
        "ConstraintMatrix(coords=(('v1', 1), ('v2', 1)), rows=((0, 1),))",
    ),
    "StageEquation": (
        stage_equation,
        stage_equation(j=2, degree=3),
        "StageEquation(vi='a', vs='b', j=1, kappa=2, lhs_eta=('a', 1), rhs_eta=('b', 1),"
        " lhs_logs=(FormalPolynomial({(): 1}), FormalPolynomial({(): 1})),"
        " rhs_logs=(FormalPolynomial({(): 1}), FormalPolynomial({(): 1})), linear=True)",
    ),
    "DiscreteBN": (
        lambda: DiscreteBN(("A", "B"), {"A": 2, "B": 3}, (("A", "B"),)),
        DiscreteBN(("A", "B"), {"A": 2, "B": 3}, ()),
        "DiscreteBN(variables=('A', 'B'), cards={'A': 2, 'B': 3}, edges=(('A', 'B'),),"
        " cpts=None)",
    ),
    "BNReport": (
        lambda: BNReport(decomposable=True, simple_ordering=("A", "B"), regular_certified=True),
        BNReport(decomposable=True, simple_ordering=None, regular_certified=True),
        "BNReport(decomposable=True, simple_ordering=('A', 'B'), regular_certified=True)",
    ),
    "ExpFamForm": (
        expfam_form,
        expfam_form(first=0.25),
        "ExpFamForm(layout=(('r', 1), ('r', 2)), eta={('r', 1): 0.6931471805599453,"
        " ('r', 2): 0.0}, psi=1.3862943611198906)",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_the_nine_records_are_covered():
    records = {BNReport, ConstraintMatrix, DiscreteBN, ExpFamForm, FitResult, MergeStep,
               SearchConfig, SearchResult, StageEquation}
    assert {cls.__name__ for cls in records} == set(CASES)


def test_repr_is_that_of_the_dataclass(case):
    make, _, text = case
    assert repr(make()) == text


def test_equality_goes_by_class_and_fields(case):
    make, other, _ = case
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != tuple(getattr(a, name) for name in a.__slots__)


def test_hash_is_that_of_the_fields():
    for name in ("SearchConfig", "MergeStep", "StageEquation", "BNReport", "ConstraintMatrix"):
        make, other, _ = CASES[name]
        assert hash(make()) == hash(make())
        assert len({make(), make(), other}) == 2
    # a mapping field makes a record unhashable, as it made the dataclass
    for name in ("FitResult", "DiscreteBN", "ExpFamForm"):
        with pytest.raises(TypeError, match="unhashable"):
            hash(CASES[name][0]())


def test_assignment_and_deletion_raise_attribute_error(case):
    record = case[0]()
    field = record.__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field {field!r}"):
        delattr(record, field)
    assert getattr(record, field) is before


def test_missing_or_unknown_field_raises_type_error(case):
    record = case[0]()
    cls, values = type(record), {name: getattr(record, name) for name in record.__slots__}
    assert cls(**values) == record
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**values, extra=1)
    if cls is not SearchConfig:  # every field of SearchConfig has a default
        first = record.__slots__[0]
        del values[first]
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
            cls(**values)


def test_defaults():
    assert SearchConfig() == SearchConfig(max_merges=None, same_depth=True, alpha=0.0)
    assert DiscreteBN(("A",), {"A": 2}, ()).cpts is None


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_merges": -1}, "max_merges must be null or an integer >= 0, got -1"),
        ({"max_merges": 1.5}, "max_merges must be null or an integer >= 0, got 1.5"),
        ({"max_merges": True}, "max_merges must be null or an integer >= 0, got True"),
        ({"same_depth": 1}, "same_depth must be a boolean, got 1"),
        ({"alpha": -0.5}, "alpha must be a finite number >= 0, got -0.5"),
        ({"alpha": float("inf")}, "alpha must be a finite number >= 0, got inf"),
    ],
)
def test_search_config_validation(kwargs, message):
    with pytest.raises(StagedTreeError, match=message):
        SearchConfig(**kwargs)


@pytest.mark.parametrize(
    "args, message",
    [
        ((("A", 1), {"A": 2}, ()), "variable name 1 is not a string"),
        ((("A", "A"), {"A": 2}, ()), "repeated variable names"),
        ((("A",), {"A": 1}, ()), "cardinality 1 < 2"),
        ((("A", "B"), {"A": 2, "B": 2}, (("A", "C"),)), "references unknown variable"),
        ((("A", "B"), {"A": 2, "B": 2}, (("A", "B"), ("B", "A"))), "not acyclic"),
        ((("A",), {"A": 2}, (), {"A": [[0.5, 0.6]]}), "sums to"),
    ],
)
def test_discrete_bn_validation(args, message):
    with pytest.raises(StagedTreeError, match=message):
        DiscreteBN(*args)


def test_copy_and_pickle_round_trip(case):
    record = case[0]()
    assert copy.copy(record) == record
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and repr(clone) == repr(record)
        if not isinstance(record, SearchResult):
            assert clone == record


def test_rebuilt_records_with_unequal_parts_keep_their_fields():
    # a StagedTree compares by identity
    result = CASES["SearchResult"][0]()
    clone = pickle.loads(pickle.dumps(result))
    assert clone.fit == result.fit and clone.trace == result.trace
    assert clone.tree.to_spec() == result.tree.to_spec()


def test_constraint_matrices_compare_by_coords_then_elements():
    tree = StagedTree(
        {"r": ["a", "b"], "a": ["x", "y"], "b": ["z", "w"]}, stages={"a": "s", "b": "s"}
    )
    first, second = constraint_matrix(tree), constraint_matrix(tree)
    assert first is not second and len(first.coords) == 3 and len(first.rows) == 1
    assert first == second and not first != second
    assert hash(first) == hash(second)
    coords, ((plus, minus),) = first.coords, first.rows
    assert first != ConstraintMatrix(coords, ((minus, plus),))
    assert first != ConstraintMatrix(coords, ())
