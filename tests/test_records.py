"""The value records of the package: what scalars._Record gives each of the
14 classes that were frozen dataclasses, one property per test."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mublines.abelian import (
    Character,
    FiniteAbelianGroup,
    GroupElement,
    RelativeDifferenceSet,
    builtin_rds,
)
from mublines.constructions import (
    BlockPairSpec,
    MubFamily,
    ScalingSpec,
    construction2_family,
    construction3_pair,
    l_block,
    mubs_from_rds,
)
from mublines.framecore import (
    Compose,
    CoordPhases,
    EntryPermutation,
    GramReport,
    VectorPhases,
    gram_analyze,
    lineset_to_json,
)
from mublines.scalars import Scalar, _Record
from mublines.weylheisenberg import Fiducial
from reference import gauss_vector

SRC = Path(__file__).resolve().parents[1] / "src"

G44 = FiniteAbelianGroup((4, 4))
VECTOR = gauss_vector([(1, 0), (0, 1)])
FAMILY = mubs_from_rds(builtin_rds(3))
REPORT = gram_analyze(FAMILY.bases[0])
#: one record of each class
RECORDS = [
    Scalar(1.5, -2.0), Scalar.gauss(3, 4), G44, G44.element((1, 2)), Character(G44, (3, 1)),
    builtin_rds(4), EntryPermutation((1, 0)), VectorPhases((Scalar.gauss(0, 1),)),
    CoordPhases((Scalar.gauss(-1),)), Compose((EntryPermutation((1, 0)),)), REPORT,
    FAMILY, ScalingSpec((1, 3, 4, 2), Scalar.gauss(1)), BlockPairSpec((1, 3, 4, 2), 2.0, 1.0),
    Fiducial(VECTOR),
]


def test_every_record_class_is_one_of_the_fourteen():
    assert len({type(r) for r in RECORDS}) == 14
    assert all(isinstance(r, _Record) for r in RECORDS)


def test_equal_fields_of_two_classes_are_unequal():
    phases = (Scalar.gauss(1), Scalar.gauss(0, 1))
    assert VectorPhases(phases) != CoordPhases(phases)
    assert VectorPhases(phases).__eq__(CoordPhases(phases)) is NotImplemented
    assert VectorPhases(phases) == VectorPhases(tuple(phases))
    assert Scalar(1, 0) != (1, 0, False)


def test_hash_agrees_with_equality():
    pairs = [
        (Scalar(1.0, 2.0), Scalar.from_complex(1 + 2j)),
        (Scalar(1, 2), Scalar.gauss(1, 2)),
        (FiniteAbelianGroup((4, 4)), FiniteAbelianGroup([4.0, 4])),  # normalized by _check
        (FiniteAbelianGroup((4, 4)).element((5, -1)), G44.element((1, 3))),
        (builtin_rds(5), builtin_rds(5)),
        (BlockPairSpec((1, 2), 2, 1), BlockPairSpec(perm=(1, 2), a=2, b=1, variant="default")),
    ]
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y)
    assert Scalar(1.0, 2.0) != Scalar(1, 2)  # equal parts, but one is exact
    assert hash(Scalar(1, 2)) == hash((1, 2, True))
    nan = Scalar(float("nan"), 0.0)
    assert nan == nan  # as the tuple of its fields equals itself


def test_rdss_that_differ_only_in_label_are_equal():
    rds = builtin_rds(5)
    other = RelativeDifferenceSet(rds.group, rds.forbidden, rds.elements, label="file")
    assert (rds.label, other.label) == ("builtin:5", "file")
    assert rds == other and hash(rds) == hash(other)
    assert rds != RelativeDifferenceSet(rds.group, rds.forbidden, rds.elements[:-1])


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_assignment_and_deletion_raise_attribute_error(record):
    field = record._FIELDS[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)


@pytest.mark.parametrize("call", [
    lambda: Scalar(1.0),
    lambda: Scalar(1.0, 2.0, True, 4),
    lambda: Scalar(2.5, 0, True),  # exactness is read from the parts, never given
    lambda: Scalar(2.5, 0, exact=True),
    lambda: Scalar(1.0, 2.0, exactly=True),
    lambda: GroupElement(G44),
    lambda: GroupElement(G44, (1, 2), (3, 4)),
    lambda: GroupElement(G44, exponents=(1, 2), power=2),
    lambda: GroupElement(G44, (1, 2), group=G44),
    lambda: BlockPairSpec((1, 2), 2.0),
    lambda: BlockPairSpec((1, 2), 2.0, 1.0, "default", 5),
    lambda: BlockPairSpec(perm=(1, 2), a=2.0, c=1.0),
    lambda: GramReport(2, (1.0, 1.0)),
])
def test_a_missing_extra_or_unknown_argument_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_defaults_apply():
    assert BlockPairSpec((1, 3, 4, 2), 2.0, 1.0).variant == "default"
    assert BlockPairSpec((1, 3, 4, 2), 2.0, 1.0, "i-twist").variant == "i-twist"
    assert BlockPairSpec(b=1.0, a=2.0, perm=(1, 2)) == BlockPairSpec((1, 2), 2.0, 1.0)
    assert Fiducial(VECTOR).source == "user"
    assert Fiducial(VECTOR, source="builtin-d4").source == "builtin-d4"
    rds = builtin_rds(3)
    assert RelativeDifferenceSet(rds.group, rds.forbidden, rds.elements).label == ""


@pytest.mark.parametrize("call, message", [
    (lambda: FiniteAbelianGroup((0,)), "factor orders must all be >= 1"),
    (lambda: FiniteAbelianGroup(orders=()), "factor orders must all be >= 1"),
    (lambda: FiniteAbelianGroup((4, 4.5)), "non-integer entry in group orders"),
    (lambda: GroupElement(G44, (1,)), "exponent tuple length does not match the group"),
    (lambda: Character(G44, exponents=(1, 2, 3)), "character exponent length does not match"),
    (lambda: RelativeDifferenceSet(G44, (FiniteAbelianGroup((2,)).element((1,)),), ()),
     "RDS data must live in the stated group"),
    (lambda: MubFamily(3, FAMILY.bases[:2], FAMILY.source_rds),
     "a family in C\\^3 must have exactly 3 bases"),
    (lambda: Fiducial(gauss_vector([(0, 0), (0, 0)])), "fiducial vector must be nonzero"),
])
def test_every_check_still_runs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_checks_normalize_the_fields():
    assert FiniteAbelianGroup([4.0, 4]).orders == (4, 4)
    assert G44.element((5, -1)).exponents == (1, 3)
    assert Character(G44, (7, 4)).exponents == (3, 0)


@pytest.mark.parametrize("given, held", [
    ((np.int64(2), 0), (2.0, 0)), ((True, np.float32(0.5)), TypeError),
    ((np.float64(2.5), np.int32(-1)), (2.5, -1.0)), ((2.5, 0), (2.5, 0)), ((2, 1), (2, 1)),
    ((1.0, np.True_), TypeError),
])
def test_a_scalar_and_a_block_pair_hold_python_numbers(given, held):
    if held is TypeError:  # a bool, Python's or numpy's, is refused, never read as 1.0
        flag = next(x for x in given if isinstance(x, (bool, np.bool_)))
        for call in (lambda: Scalar(*given), lambda: BlockPairSpec((1, 2), *given),
                     lambda: construction2_family(flag)):
            with pytest.raises(TypeError, match="as a real number"):
                call()
        return
    scalar, spec = Scalar(*given), BlockPairSpec((1, 2), *given)
    for got in ((scalar.re, scalar.im), (spec.a, spec.b)):
        assert got == held and tuple(map(type, got)) == tuple(map(type, held))


@pytest.mark.parametrize("part", ["2", None, 1j], ids=["str", "None", "complex"])
def test_a_part_that_is_no_real_number_raises_type_error(part):
    with pytest.raises(TypeError, match="as a real number"):
        Scalar(part, 0)
    with pytest.raises(TypeError, match="as a real number"):
        BlockPairSpec((1, 2), 1.0, part)


def test_numpy_constants_give_line_sets_json_can_write():
    fam4, perm = mubs_from_rds(builtin_rds(4)), tuple(np.array([1, 3, 4, 2]))
    provenances = [lineset_to_json(lines)["provenance"] for lines in (
        l_block(fam4, ScalingSpec((1, 3, 4, 2), Scalar(np.int64(2), 0))),
        l_block(fam4, ScalingSpec(perm, Scalar.gauss(2, 1))),
        construction3_pair(fam4, BlockPairSpec((1, 2, 3, 4), np.int64(2), np.int64(1))),
        construction3_pair(fam4, BlockPairSpec(perm, 2, 1)),
        construction2_family(np.int64(1)))]
    assert [json.dumps(p, sort_keys=True) for p in provenances] == [
        '{"construction": "c1-lblock", "perm": [1, 3, 4, 2], "rds": "builtin:4", "v": [2.0, 0]}',
        '{"construction": "c1-lblock", "perm": [1, 3, 4, 2], "rds": "builtin:4", "v": [2, 1]}',
        '{"a": 2.0, "b": 1.0, "construction": "c3-pair", "perm": [1, 2, 3, 4], "rds": '
        '"builtin:4", "variant": "default"}',
        '{"a": 2, "b": 1, "construction": "c3-pair", "perm": [1, 3, 4, 2], "rds": "builtin:4", '
        '"variant": "default"}',
        '{"a": 1.0, "construction": "c2"}']
    # Python constants keep the provenance they had
    assert construction2_family(1).provenance == {"construction": "c2", "a": 1}
    assert l_block(fam4, ScalingSpec([1, 3, 4, 2], Scalar(2.5, 0))).provenance["v"] == [2.5, 0]


def test_repr_names_the_class_and_its_fields():
    assert repr(Scalar(1, 2)) == "Scalar(re=1, im=2)"
    assert repr(G44.element((1, 2))) == (
        "GroupElement(group=FiniteAbelianGroup(orders=(4, 4)), exponents=(1, 2))")
    assert repr(BlockPairSpec((1, 2), 2.0, 1.0)) == (
        "BlockPairSpec(perm=(1, 2), a=2.0, b=1.0, variant='default')")


def same(x, y) -> bool:
    """x == y, and for a MubFamily, whose LineSet bases compare by identity,
    equal fields with the bases' parts equal."""
    if isinstance(x, MubFamily):
        return (type(y) is MubFamily and (x.dim, x.source_rds) == (y.dim, y.source_rds)
                and len(x.bases) == len(y.bases)
                and all(np.array_equal(a.parts, b.parts) for a, b in zip(x.bases, y.bases)))
    return x == y


@pytest.mark.parametrize("record", [
    Scalar.gauss(3, -4), Scalar(0.5, float("inf")), G44.element((1, 2)), builtin_rds(7),
    REPORT, FAMILY,
], ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_deepcopy_and_pickle_round_trip(record, clone):
    twin = clone(record)
    assert type(twin) is type(record) and same(twin, record)
    assert all(same(getattr(twin, name), getattr(record, name)) for name in record._FIELDS
               if name != "bases")
    if isinstance(record, RelativeDifferenceSet):
        assert twin.label == record.label


def test_a_copied_family_keeps_its_cached_tables_working():
    twin = copy.deepcopy(FAMILY)
    assert "_theorem46_table" not in vars(twin)
    parts, floats = twin._union
    assert np.array_equal(parts, FAMILY._union[0]) and floats.dtype == float


def test_no_package_module_loads_dataclasses():
    code = ("import sys; from mublines import abelian, cli, constructions, exprs, framecore, "
            "scalars, weylheisenberg; sys.exit('dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

