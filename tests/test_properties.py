"""Property tests of the Gram path and the JSON format on random
Gaussian-integer line sets, with entries far past 2^32 so that any
fixed-width integer arithmetic would overflow, and of the line-set array
against its CVector view."""

import cmath
import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mublines.abelian import builtin_rds
from mublines.constructions import (
    BlockPairSpec,
    ScalingSpec,
    construction3_pair,
    l_block,
    mubs_from_rds,
)
from mublines.framecore import (
    Compose,
    CoordPhases,
    CVector,
    EntryPermutation,
    LineSet,
    VectorPhases,
    _gram,
    apply_equivalence,
    gram_analyze,
    inner,
    lineset_from_json,
    lineset_to_json,
)
from mublines.scalars import GAUSSIAN_UNITS, Scalar

BIG = 2**40


@st.composite
def gaussian_sets(draw, bound=BIG):
    """A set of 2..6 nonzero vectors in Z[i]^d, d in 1..5."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 6))
    part = st.one_of(st.integers(-3, 3), st.integers(-bound, bound))
    rows = draw(st.lists(st.lists(st.tuples(part, part), min_size=d, max_size=d),
                         min_size=n, max_size=n))
    assume(all(any(a or b for a, b in row) for row in rows))
    return LineSet(d, tuple(CVector.gauss(row) for row in rows))


@settings(max_examples=60, deadline=None)
@given(gaussian_sets())
def test_exact_gram_is_exact_and_agrees_with_float(lines):
    floated = LineSet(lines.dim, tuple(CVector.make(v.to_array()) for v in lines.vectors))
    _, _, mag2, norm2, _ = next(_gram([lines]))
    _, _, mag, norm, _ = next(_gram([floated]))
    n = len(lines)
    for j in range(n):
        assert norm2[j] == lines.vectors[j].norm2()
        assert abs(norm[j] ** 2 - norm2[j]) <= 1e-12 * norm2[j]
        for k in range(n):
            assert mag2[j, k] == inner(lines.vectors[j], lines.vectors[k]).abs2()
            cos2 = mag2[j, k] / (norm2[j] * norm2[k])
            assert abs(cos2 - (mag[j, k] / (norm[j] * norm[k])) ** 2) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(gaussian_sets(), st.data())
def test_gram_analyze_invariant_under_gaussian_unit_equivalences(lines, data):
    units = st.sampled_from(GAUSSIAN_UNITS)
    n, d = len(lines), lines.dim
    transform = Compose((
        EntryPermutation(tuple(data.draw(st.permutations(range(d))))),
        VectorPhases(tuple(data.draw(st.lists(units, min_size=n, max_size=n)))),
        CoordPhases(tuple(data.draw(st.lists(units, min_size=d, max_size=d)))),
    ))
    moved = apply_equivalence(lines, transform)
    assert moved.exact
    assert gram_analyze(moved) == gram_analyze(lines)


@settings(max_examples=60, deadline=None)
@given(gaussian_sets(bound=2**70))
def test_exact_json_roundtrip_is_lossless(lines):
    text = json.dumps(lineset_to_json(lines))
    back = lineset_from_json(json.loads(text))
    assert back.exact
    assert back.dim == lines.dim
    assert back.vectors == lines.vectors
    assert np.array_equal(back.to_matrix(), lines.to_matrix())


# --- the line-set array against its CVector view ----------------------------

FAMILIES = {d: mubs_from_rds(builtin_rds(d)) for d in (2, 3, 4, 5)}
families = st.sampled_from(sorted(FAMILIES)).map(FAMILIES.get)
scalars = st.one_of(
    st.builds(Scalar.gauss, st.integers(-3, 3), st.integers(-3, 3)),
    st.complex_numbers(max_magnitude=4, allow_nan=False).map(Scalar.from_complex))
phases = st.one_of(st.sampled_from(GAUSSIAN_UNITS),
                   st.floats(0, 7).map(lambda t: Scalar.from_complex(cmath.exp(1j * t))))


def floated(lines):
    return LineSet(lines.dim, tuple(CVector.make(v.to_array()) for v in lines.vectors))


def json_round_trip(lines):
    return lineset_from_json(json.loads(json.dumps(lineset_to_json(lines))))


@st.composite
def l_blocks(draw):
    family = draw(families)
    perm = tuple(draw(st.permutations(range(1, family.dim + 1))))
    return l_block(family, ScalingSpec(perm, draw(scalars)))


@st.composite
def block_pairs(draw):
    family = draw(families)
    perm = tuple(draw(st.permutations(range(1, family.dim + 1))))
    part = st.one_of(st.integers(-3, 3), st.floats(-3, 3))
    variant = draw(st.sampled_from(["default", "i-twist"]))
    return construction3_pair(family, BlockPairSpec(perm, draw(part), draw(part), variant))


@st.composite
def moved(draw, sets):
    lines = draw(sets)
    n, d = len(lines), lines.dim
    return apply_equivalence(lines, Compose((
        EntryPermutation(tuple(draw(st.permutations(range(d))))),
        VectorPhases(tuple(draw(st.lists(phases, min_size=n, max_size=n)))),
        CoordPhases(tuple(draw(st.lists(phases, min_size=d, max_size=d)))),
    )))


produced = st.one_of(
    gaussian_sets(), gaussian_sets().map(floated),
    families.flatmap(lambda family: st.sampled_from(family.bases)),
    l_blocks(), block_pairs())
produced = st.one_of(produced, moved(produced))


@settings(max_examples=150, deadline=None)
@given(st.one_of(produced, produced.map(json_round_trip)))
def test_lineset_rebuilt_from_its_view_has_the_same_array(lines):
    again = LineSet(lines.dim, lines.vectors)
    assert again.exact == lines.exact
    assert again.parts.dtype == lines.parts.dtype
    assert again.parts.shape == lines.parts.shape == (2, len(lines), lines.dim)
    if lines.exact:
        assert again.parts.tolist() == lines.parts.tolist()
    else:  # bit for bit, signed zeros included
        assert again.parts.tobytes() == lines.parts.tobytes()
