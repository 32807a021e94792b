"""The constructor contract of the package's value classes: the same
parameters, validation, default dicts, equality and hashing whether the
arguments are given by position or by keyword."""

import re

import pytest

from exoticaffine.constructions import ConstructionError, Hypersurface, VarietySystem
from exoticaffine.dualgraph import GraphError, WeightedGraph
from exoticaffine.fpgroups import AbelianGroup, GroupError, Presentation
from exoticaffine.grading import (
    Appropriateness,
    GradingError,
    QuotientRing,
    WeightCountMismatch,
    WeightFunction,
)
from exoticaffine.polyring import GRLEX, InvalidVarSet, Polynomial, VarSet, parse_polynomial
from exoticaffine.smithhom import (
    ChainComplex,
    CyclicAction,
    NotAComplex,
    SimplicialComplex,
    SmithError,
    SmithOperators,
    _OrbitShiftComplex,
)

XY = VarSet(("x", "y"))
X_PLUS_Y = parse_polynomial("x + y", XY)

# (class, arguments by parameter name in declaration order, error, message)
VALIDATIONS = [
    (VarSet, {"names": ("x", "x")}, InvalidVarSet, "duplicate variable names in ('x', 'x')"),
    (VarSet, {"names": ("x", "")}, InvalidVarSet, "empty variable name"),
    (
        Hypersurface,
        {"ambient": XY, "defining": Polynomial(XY), "provenance": {"a": 1}},
        ConstructionError,
        "defining polynomial must be nonzero",
    ),
    (
        VarietySystem,
        {"ambient": XY, "equations": ()},
        ConstructionError,
        "a variety system needs at least one equation",
    ),
    (
        WeightFunction,
        {"varset": XY, "weights": (1,)},
        WeightCountMismatch,
        "one weight per variable required",
    ),
    (
        QuotientRing,
        {"ambient": XY, "relation": Polynomial.constant(XY, 2), "order": GRLEX},
        GradingError,
        "quotient relation must be a nonzero nonunit",
    ),
    (
        WeightedGraph,
        {"vertices": {"a": -1}, "edges": frozenset({frozenset({"a"})})},
        GraphError,
        "edge {'a'} is not a 2-set",
    ),
    (
        WeightedGraph,
        {"vertices": {"a": -1}, "edges": frozenset({frozenset({"a", "b"})})},
        GraphError,
        "edge endpoint 'b' is not a vertex",
    ),
    (
        Presentation,
        {"generators": ("a",), "relators": ((1, -2),)},
        GroupError,
        "letter -2 out of range in relator (1, -2)",
    ),
    (
        AbelianGroup,
        {"free_rank": 0, "torsion": (1,)},
        GroupError,
        "torsion coefficients must exceed 1",
    ),
    (
        AbelianGroup,
        {"free_rank": 1, "torsion": (2, 3)},
        GroupError,
        "torsion coefficients must form a divisibility chain",
    ),
    (CyclicAction, {"order": 0, "perm": {}}, SmithError, "group order 0 is not positive"),
    (
        ChainComplex,
        {"coefficients": "Z", "dims": (1, 1, 1), "boundaries": ([], [{0: 1}], [{0: 1}])},
        NotAComplex,
        "boundary squared is nonzero",
    ),
]


@pytest.mark.parametrize("by_keyword", [False, True], ids=["positional", "keyword"])
@pytest.mark.parametrize(
    "cls, kwargs, error, message",
    VALIDATIONS,
    ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(VALIDATIONS)],
)
def test_validation_raises_the_same_error(cls, kwargs, error, message, by_keyword):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        cls(**kwargs) if by_keyword else cls(*kwargs.values())
    assert type(info.value) is error


def test_default_dicts_are_fresh_per_instance():
    assert Polynomial(XY).terms == {}
    assert Polynomial(XY).terms is not Polynomial(XY).terms
    for cls, data in ((Hypersurface, X_PLUS_Y), (VarietySystem, (X_PLUS_Y,))):
        first, second = cls(XY, data), cls(XY, data)
        assert first.provenance == {}
        assert first.provenance is not second.provenance
    chains = ChainComplex(3, (1,), ([],))
    assert _OrbitShiftComplex(3, [(1, 0)], chains)._homologies == {}
    assert (
        _OrbitShiftComplex(3, [(1, 0)], chains)._homologies
        is not _OrbitShiftComplex(3, [(1, 0)], chains)._homologies
    )


def _copy(value):
    """An equal value that shares no container with the given one."""
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_copy(v) for v in value)
    return value


# the compared value classes: (class, fields in declaration order, a changed
# value for each field)
COMPARED = [
    (VarSet, {"names": ("x", "y")}, {"names": ("y", "x")}),
    (
        Polynomial,
        {"varset": XY, "terms": {(1, 0): 1, (0, 1): 1}},
        {"varset": VarSet(("x", "z")), "terms": {(1, 0): 1}},
    ),
    (
        WeightedGraph,
        {"vertices": {"a": -1, "b": -2}, "edges": frozenset({frozenset({"a", "b"})})},
        {"vertices": {"a": -1, "b": -3}, "edges": frozenset()},
    ),
    (AbelianGroup, {"free_rank": 1, "torsion": (2, 4)}, {"free_rank": 0, "torsion": (2,)}),
    (
        SmithOperators,
        {"p": 3, "sigma": ([{0: 1}],), "tau": ([{}],), "t": ([(0, 1)],)},
        {"p": 5, "sigma": ([{0: 2}],), "tau": ([{0: 1}],), "t": ([(0, -1)],)},
    ),
    (
        Appropriateness,
        {"status": "Failed", "reason": "why"},
        {"status": "Certified", "reason": None},
    ),
    (
        SimplicialComplex,
        {"simplices": ((("a",), ("b",)), (("a", "b"),))},
        {"simplices": ((("a",), ("b",)),)},
    ),
    (CyclicAction, {"order": 2, "perm": {"a": "b", "b": "a"}}, {"order": 4, "perm": {"a": "a"}}),
]
HASHABLE = {VarSet, AbelianGroup, Appropriateness, SimplicialComplex}


@pytest.mark.parametrize(
    "cls, fields, changed", COMPARED, ids=[case[0].__name__ for case in COMPARED]
)
def test_equal_exactly_when_fields_are(cls, fields, changed):
    value = cls(**fields)
    same = cls(**_copy(fields))
    assert value == same and not value != same
    assert value.__eq__(fields) is NotImplemented and value != fields
    for name, other in changed.items():
        different = cls(**dict(fields, **{name: other}))
        assert value != different and not value == different, name
    if cls in HASHABLE:
        assert hash(value) == hash(same)
        assert len({value, same}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)
