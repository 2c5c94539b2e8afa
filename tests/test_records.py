"""The value classes' contract: equality, hashing, frozenness, repr, copies.

Each case builds one instance twice and a second instance that differs in
one field.  The repr strings are pinned to what the classes printed when
they were dataclasses, so callers that log or compare them see no change.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from bsscale import (
    BS1nMatrix,
    CosetTable,
    ElementNormalForm,
    GroupParams,
    ModularValue,
    OmegaNode,
    ScaleValue,
    StructureReport,
    TraceGeometry,
    enumerate_ball,
)

P23 = "GroupParams(m=2, n=3, l=6, g=1, divisor_case=False, r=None)"

CASES = {
    "GroupParams": (lambda: GroupParams(2, 3), lambda: GroupParams(3, 2), P23),
    "GroupParams-divisor": (
        lambda: GroupParams(-2, 4),
        lambda: GroupParams(-2, -4),
        "GroupParams(m=-2, n=4, l=4, g=2, divisor_case=True, r=-2)",
    ),
    "ScaleValue": (
        lambda: ScaleValue(2, 3),
        lambda: ScaleValue(base=2, exponent=4),
        "ScaleValue(base=2, exponent=3, value=8)",
    ),
    "ModularValue": (
        lambda: ModularValue(2, 3),
        lambda: ModularValue(3, 2),
        "ModularValue(numerator=2, denominator=3)",
    ),
    "StructureReport": (
        lambda: StructureReport((2,), (3,), 6, 1, 0, False, False),
        lambda: StructureReport((2,), (3,), 6, 1, 0, False, False, quasi_centre="Z"),
        "StructureReport(primes_vplus=(2,), primes_vminus=(3,), quotient_order_bound=6,"
        " flat_rank=1, kernel_exponent=0, swap_applied=False, discrete=False,"
        " quasi_centre='ker Δ')",
    ),
    "ElementNormalForm": (
        lambda: ElementNormalForm(((1, 1), (0, -1)), 5),
        lambda: ElementNormalForm(((1, 1), (0, -1)), 4),
        "ElementNormalForm(syllables=((1, 1), (0, -1)), tail=5)",
    ),
    "BS1nMatrix": (
        lambda: BS1nMatrix(Fraction(3), Fraction(1, 3)),
        lambda: BS1nMatrix(Fraction(3), Fraction(2, 3)),
        "BS1nMatrix(top_left=Fraction(3, 1), top_right=Fraction(1, 3))",
    ),
    "OmegaNode-defaults": (
        lambda: OmegaNode(1, "root"),
        lambda: OmegaNode(1, "root", level=0),
        "OmegaNode(value=1, kind='root', i=None, j=None, level=None, dist_left=None)",
    ),
    "OmegaNode": (
        lambda: OmegaNode(2, "left_ray", 0, None, 1, 0),
        lambda: OmegaNode(2, "left_ray", 0, None, 1, 1),
        "OmegaNode(value=2, kind='left_ray', i=0, j=None, level=1, dist_left=0)",
    ),
    "TraceGeometry": (
        lambda: TraceGeometry(2, 0, OmegaNode(8, "left_ray", 2, None, 3, 0)),
        lambda: TraceGeometry(2, 0, OmegaNode(8, "left_ray", 2, None, 3, 1)),
        "TraceGeometry(t_max=2, mu=0, end_node="
        "OmegaNode(value=8, kind='left_ray', i=2, j=None, level=3, dist_left=0))",
    ),
    "CosetTable": (
        lambda: enumerate_ball(GroupParams(2, 3), 0),
        lambda: enumerate_ball(GroupParams(2, 3), 1),
        f"CosetTable(params={P23}, radius=0, vertices=[()], edges=[], boundary=frozenset({{0}}))",
    ),
}
FROZEN = [name for name in CASES if name != "CosetTable"]


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_equality_by_field(case):
    make, other, _ = case
    assert make() == make()
    assert not make() != make()
    assert make() != other()


def test_no_equality_across_classes():
    # ModularValue and BS1nMatrix both hold two fields; equal field values
    # do not make instances of different classes equal
    assert ModularValue(2, 3) != BS1nMatrix(2, 3)
    assert ModularValue(2, 3) != (2, 3)
    assert GroupParams(2, 3) != "GroupParams(2, 3)"
    assert OmegaNode(1, "root") != TraceGeometry(1, "root", None)


@pytest.mark.parametrize("name", FROZEN)
def test_equal_values_hash_equal(name):
    make, other, _ = CASES[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), other()}) == 2


def test_coset_table_is_unhashable():
    with pytest.raises(TypeError):
        hash(enumerate_ball(GroupParams(2, 3), 0))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen(name):
    make, _, before = CASES[name]
    obj = make()
    field = before[before.index("(") + 1 : before.index("=")]
    with pytest.raises(AttributeError):
        setattr(obj, field, 7)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert repr(obj) == before


def test_coset_table_is_mutable():
    table = enumerate_ball(GroupParams(2, 3), 1)
    table.radius = 5
    assert table.radius == 5


def test_repr_is_pinned(case):
    make, _, text = case
    assert repr(make()) == text


def test_coset_table_repr_omits_index():
    table = enumerate_ball(GroupParams(2, 3), 0)
    assert table.index == {(): 0}
    assert "index" not in repr(table)


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_round_trips(case, copier):
    make, _, text = case
    obj = make()
    twin = copier(obj)
    assert type(twin) is type(obj)
    assert twin == obj
    assert repr(twin) == text


def test_deepcopy_of_coset_table_is_independent():
    table = enumerate_ball(GroupParams(2, 3), 1)
    twin = copy.deepcopy(table)
    twin.vertices.append(((0, 1), (0, 1)))
    twin.index[((0, 1), (0, 1))] = 6
    assert len(table.vertices) == 6 and len(table.index) == 6
    assert copy.copy(table).vertices is table.vertices


def test_derived_fields_survive_copies():
    p = pickle.loads(pickle.dumps(GroupParams(4, 6)))
    assert (p.l, p.g, p.divisor_case, p.r, p.l_over_n, p.l_over_m) == (12, 2, False, None, 2, 3)
    assert copy.deepcopy(ScaleValue(3, 4)).value == 81


# The constructor contract: parameter names, order and defaults (annotations
# are not part of it), keyword construction, and the TypeError texts.
REQUIRED = inspect.Parameter.empty
SIGNATURES = {
    GroupParams: (("m", REQUIRED), ("n", REQUIRED)),
    ScaleValue: (("base", REQUIRED), ("exponent", REQUIRED)),
    ModularValue: (("numerator", REQUIRED), ("denominator", REQUIRED)),
    StructureReport: (
        ("primes_vplus", REQUIRED),
        ("primes_vminus", REQUIRED),
        ("quotient_order_bound", REQUIRED),
        ("flat_rank", REQUIRED),
        ("kernel_exponent", REQUIRED),
        ("swap_applied", REQUIRED),
        ("discrete", REQUIRED),
        ("quasi_centre", "ker Δ"),
    ),
    ElementNormalForm: (("syllables", REQUIRED), ("tail", REQUIRED)),
    BS1nMatrix: (("top_left", REQUIRED), ("top_right", REQUIRED)),
    OmegaNode: (
        ("value", REQUIRED),
        ("kind", REQUIRED),
        ("i", None),
        ("j", None),
        ("level", None),
        ("dist_left", None),
    ),
    TraceGeometry: (("t_max", REQUIRED), ("mu", REQUIRED), ("end_node", REQUIRED)),
    CosetTable: (
        ("params", REQUIRED),
        ("radius", REQUIRED),
        ("vertices", REQUIRED),
        ("edges", REQUIRED),
        ("boundary", REQUIRED),
        ("index", REQUIRED),
    ),
}
KEYWORDS = {
    GroupParams: {"n": 3, "m": 2},
    ScaleValue: {"exponent": 3, "base": 2},
    ModularValue: {"denominator": 3, "numerator": 2},
    StructureReport: {
        "discrete": False,
        "swap_applied": True,
        "kernel_exponent": 0,
        "flat_rank": 1,
        "quotient_order_bound": 6,
        "primes_vminus": (2,),
        "primes_vplus": (3,),
        "quasi_centre": "Z",
    },
    ElementNormalForm: {"tail": 5, "syllables": ((1, 1),)},
    BS1nMatrix: {"top_right": Fraction(1, 3), "top_left": Fraction(3)},
    OmegaNode: {"kind": "left_ray", "value": 2, "dist_left": 0, "level": 1, "i": 0},
    TraceGeometry: {"end_node": OmegaNode(1, "root"), "mu": 0, "t_max": 2},
    CosetTable: {
        "index": {(): 0},
        "boundary": frozenset({0}),
        "edges": [],
        "vertices": [()],
        "radius": 0,
        "params": GroupParams(2, 3),
    },
}
CLASSES = sorted(SIGNATURES, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == list(SIGNATURES[cls])
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_keyword_construction(cls):
    kwargs = KEYWORDS[cls]
    obj = cls(**kwargs)
    positional = cls(*(kwargs.get(name, default) for name, default in SIGNATURES[cls]))
    assert obj == positional and repr(obj) == repr(positional)
    for name in kwargs:
        if name in cls.__slots__:
            assert getattr(obj, name) == kwargs[name]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_constructor_type_errors(cls):
    required = [name for name, default in SIGNATURES[cls] if default is REQUIRED]
    with pytest.raises(TypeError) as missing:
        cls(*range(len(required) - 1))
    assert str(missing.value) == (
        f"{cls.__name__}.__init__() missing 1 required positional argument: '{required[-1]}'"
    )
    with pytest.raises(TypeError) as unknown:
        cls(**KEYWORDS[cls], bogus=1)
    assert str(unknown.value) == (
        f"{cls.__name__}.__init__() got an unexpected keyword argument 'bogus'"
    )


def test_structure_report_as_dict():
    report = StructureReport((2,), (3, 5), 6, 1, 0, True, False)
    assert report.as_dict() == {
        "primes_vplus": [2],
        "primes_vminus": [3, 5],
        "quotient_order_bound": 6,
        "flat_rank": 1,
        "kernel_exponent": 0,
        "swap_applied": True,
        "discrete": False,
        "quasi_centre": "ker Δ",
    }
    assert list(report.as_dict()) == list(StructureReport.__slots__)


def test_modular_value_as_dict():
    assert ModularValue(2, 3).as_dict() == {"numerator": 2, "denominator": 3}
