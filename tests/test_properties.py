"""Property tests of the Gram path and the JSON format on random
Gaussian-integer line sets, with entries far past 2^32 and entries at the
edge of the exact Gram's int64 bound, of the line-set array against its
CVector view, and of the line matching."""

import cmath
import itertools
import json
import math

import numpy as np
import pytest
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
    _perfect_matching,
    apply_equivalence,
    gram_analyze,
    inner,
    lineset_from_json,
    lineset_to_json,
    verify_mubs,
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


# --- the exact Gram at the int64 bound --------------------------------------


def int64_limit(d):
    """The largest M with 4 d^3 M^4 <= 2^63 - 1: the exact Gram of a set in
    Z[i]^d whose parts are at most M in size runs in int64."""
    top = math.isqrt(math.isqrt((2**63 - 1) // (4 * d**3)))
    assert 4 * d**3 * top**4 <= 2**63 - 1 < 4 * d**3 * (top + 1) ** 4
    return top


def assert_gram_is_python_exact(sets):
    """Every block, mag * d and every squared norm of _gram equal the
    inner() / norm2() reference in Python ints."""
    d = sets[0].dim
    blocks = list(_gram(sets, cross=True))
    assert len(blocks) == len(sets) * (len(sets) + 1) // 2
    for j, k, mag, norms_j, norms_k in blocks:
        want = [[inner(x, y).abs2() for y in sets[k].vectors] for x in sets[j].vectors]
        assert mag.tolist() == want
        assert (mag * d).tolist() == [[value * d for value in row] for row in want]
        assert norms_j.tolist() == [x.norm2() for x in sets[j].vectors]
        assert norms_k.tolist() == [y.norm2() for y in sets[k].vectors]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_exact_gram_at_the_int64_bound(d):
    top = int64_limit(d)
    for m, wide in ((top, np.int64), (top + 1, object)):
        extremal = CVector.gauss([(m, m)] * d)  # |<x, x>|^2 = 4 d^2 M^4
        other = CVector.gauss([(m, -m)] + [(-m, m)] * (d - 1))
        lines = LineSet(d, (extremal, other))
        assert next(_gram([lines]))[2].dtype == wide
        assert_gram_is_python_exact([lines, LineSet(d, (other, extremal))])


@pytest.mark.parametrize("side", [0, 1])
def test_verify_mubs_on_either_side_of_the_int64_bound(side):
    scale = int64_limit(2) + side
    bases = []
    for basis in FAMILIES[2].bases:  # times scale * (1 + i), so M = scale
        re, im = basis.parts
        bases.append(LineSet.from_parts(np.array([(re - im) * scale, (re + im) * scale])))
    assert max(abs(x) for b in bases for x in b.parts.flat) == scale
    assert verify_mubs(bases)
    bent = bases[1].parts.copy()
    bent[0, 0, 0] += 1
    assert not verify_mubs([bases[0], LineSet.from_parts(bent)] + bases[2:])


@st.composite
def near_int64_bound(draw):
    """Two sets in Z[i]^d, d in 1..5, whose largest |part| is within two of
    the int64 limit, on either side of it."""
    d = draw(st.integers(1, 5))
    top = int64_limit(d) + draw(st.integers(-2, 1))
    part = st.one_of(st.sampled_from((top, -top, top - 1, 1 - top)), st.integers(-top, top))
    rows = draw(st.lists(st.lists(st.tuples(part, part), min_size=d, max_size=d),
                         min_size=3, max_size=6))
    rows[0][0] = (top, rows[0][0][1])
    assume(all(any(a or b for a, b in row) for row in rows))
    return [LineSet(d, tuple(CVector.gauss(row) for row in half))
            for half in (rows[:2], rows[2:])]


@settings(max_examples=80, deadline=None)
@given(near_int64_bound())
def test_exact_gram_near_the_int64_bound_matches_python_ints(sets):
    assert_gram_is_python_exact(sets)


# --- line matching ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=n, unique=True) if n else st.just([]),
    min_size=n, max_size=n)))
def test_perfect_matching_agrees_with_every_permutation(adj):
    n = len(adj)
    want = any(all(perm[j] in adj[j] for j in range(n))
               for perm in itertools.permutations(range(n)))
    assert _perfect_matching(adj) == want
