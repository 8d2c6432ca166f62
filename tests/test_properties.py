"""Property tests of the Gram path and the JSON format on random
Gaussian-integer line sets, with entries far past 2^32 and entries at the
edge of the exact Gram's int64 bound, of the float analysis against its
per-set form, of verify_mubs against its per-block form, of the line-set
array against its CVector view, of Theorem 4.6's column-pair table, of the
line matching, of the JSON encoder and of the exact norm's rounding."""

import cmath
import copy
import decimal
import itertools
import json
import math
import pickle
import random
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mublines import framecore
from mublines.abelian import builtin_rds
from mublines.constructions import (
    BlockPairSpec,
    MubFamily,
    ScalingSpec,
    construction3_pair,
    l_block,
    mubs_from_rds,
    theorem46_predicate,
)
from mublines.framecore import (
    DEFAULT_TOL,
    Compose,
    CoordPhases,
    CVector,
    EntryPermutation,
    GramReport,
    LineSet,
    VectorPhases,
    ZeroVectorError,
    _CHUNK,
    _adjoint,
    _block,
    _block_rows,
    _encode,
    _exact_norm,
    _float_reports,
    _float_table,
    _perfect_matching,
    _self_grams,
    _stack,
    apply_equivalence,
    gram_analyze,
    lineset_from_json,
    lineset_to_json,
    lines_equal,
    verify_mubs,
)
from mublines.scalars import GAUSSIAN_UNITS, Scalar, _gauss_if_integral
from reference import gauss_vector, inner, norm2

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
    return LineSet(d, tuple(gauss_vector(row) for row in rows))


@settings(max_examples=60, deadline=None)
@given(gaussian_sets())
def test_exact_gram_is_exact_and_agrees_with_float(lines):
    floated = LineSet(lines.dim, tuple(CVector.make(v.to_array()) for v in lines.vectors))
    (mag2,), (norms2,) = _self_grams(_stack([lines]))
    (mag,), (norm,) = _self_grams(_stack([floated]))
    n = len(lines)
    for j in range(n):
        assert norms2[j] == norm2(lines.vectors[j])
        assert abs(norm[j] ** 2 - norms2[j]) <= 1e-12 * norms2[j]
        for k in range(n):
            assert mag2[j, k] == inner(lines.vectors[j], lines.vectors[k]).abs2()
            cos2 = mag2[j, k] / (norms2[j] * norms2[k])
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


@settings(max_examples=60, deadline=None)
@given(st.one_of(gaussian_sets(bound=3), gaussian_sets(), gaussian_sets(bound=2**70)))
@example(LineSet(2, tuple(gauss_vector([(1, 0), (k, 0)]) for k in (0, 1, 2))))  # 1/2, 1/5, 9/10
def test_exact_clusters_count_each_rational_value(lines):
    pairs = itertools.combinations(lines.vectors, 2)
    counts = Counter(Fraction(inner(x, y).abs2(), norm2(x) * norm2(y)) for x, y in pairs)
    want = tuple((math.sqrt(float(key)), counts[key]) for key in sorted(counts))
    assert gram_analyze(lines).angle_clusters == want


def fraction_clusters(lines):
    """The exact clusters of a set from a Counter of Fractions over its
    pairs, one Python-int inner product at a time."""
    pairs = itertools.combinations(lines.vectors, 2)
    counts = Counter(Fraction(inner(x, y).abs2(), norm2(x) * norm2(y)) for x, y in pairs)
    return tuple((math.sqrt(float(key)), counts[key]) for key in sorted(counts))


@st.composite
def multiples(draw, bound):
    """2..8 vectors c u in Z[i]^d, d in 1..4: each a nonzero Gaussian
    multiple c, parts up to bound, of one of 1..3 short vectors u with parts
    in -1..1.  Multiples of one u share their values at unequal norms, so
    equal values have unequal (num, den) until reduced, and orthogonal u
    give inner products 0."""
    d = draw(st.integers(1, 4))
    short = st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=d, max_size=d)
    us = draw(st.lists(short.filter(lambda u: any(a or b for a, b in u)), min_size=1, max_size=3))
    part = st.integers(-bound, bound)
    vectors = []
    for _ in range(draw(st.integers(2, 8))):
        u = draw(st.sampled_from(us))
        c, s = draw(st.tuples(part, part).filter(lambda c: c != (0, 0)))
        vectors.append(gauss_vector([(c * a - s * b, c * b + s * a) for a, b in u]))
    return LineSet(d, tuple(vectors))


def shared_values(scale):
    """Five vectors of C^2 with unequal norms: e1 and its multiples 2 and 3i
    share the value 1, e2 is orthogonal to them, and (1 + i, 1 - i) meets
    each at 1/2; vector k is scaled by scale * (k + 1)."""
    rows = ([(1, 0), (0, 0)], [(0, 0), (1, 0)], [(2, 0), (0, 0)], [(0, 3), (0, 0)],
            [(1, 1), (1, -1)])
    return LineSet(2, tuple(gauss_vector([(scale * (k + 1) * a, scale * (k + 1) * b)
                                          for a, b in row]) for k, row in enumerate(rows)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(multiples(bound=3), multiples(bound=2**10), multiples(bound=2**70)))
@example(shared_values(1))
@example(shared_values(2**70))
def test_exact_clusters_group_equal_values_of_unequal_norms(lines):
    assert gram_analyze(lines).angle_clusters == fraction_clusters(lines)


def test_the_exact_examples_reach_both_paths():
    small, big = shared_values(1), shared_values(2**70)
    assert _stack([small]).dtype == np.int64 and _stack([big]).dtype == object
    for lines in (small, big):
        assert gram_analyze(lines).angle_clusters == ((0.0, 3), (math.sqrt(0.5), 4), (1.0, 3))


# --- the float analysis against its per-set form ---------------------------


def per_set_float_report(lines, tol):
    """gram_analyze of one float set as a loop of its own: one Gram, its
    upper triangle sorted and split at gaps > tol, one cluster equiangular
    only within a spread of 10 * tol."""
    m = len(lines)
    mat = lines.to_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(mat @ mat.conj().T)
    if not np.isfinite(mag).all():
        raise ValueError("non-finite")
    norms = np.sqrt(np.diag(mag))
    if (norms == 0).any():
        raise ZeroVectorError("zero vector")
    values = (mag / np.outer(norms, norms))[np.triu_indices(m, 1)]
    order = np.sort(values)
    chunks = np.split(order, np.flatnonzero(np.diff(order) > tol) + 1)
    clusters = tuple((float(chunk.mean()), len(chunk)) for chunk in chunks)
    equi = len(clusters) == 1 and bool(np.ptp(values) <= 10 * tol)
    return GramReport(m, tuple(float(n) for n in norms), clusters, equi,
                      clusters[0][0] if equi else None, False)


def float_set(rows):
    return LineSet.from_parts(np.array([[[z.real for z in row] for row in rows],
                                        [[z.imag for z in row] for row in rows]], dtype=float))


@st.composite
def float_sets(draw):
    """A float set of 2..10 vectors in C^d, d in 1..4: entries on a coarse
    grid (repeated values: several clusters), jittered by up to 0.05 (chains
    of close values), one vector scaled by up to 1e160 (a squared norm past
    float64), and perhaps one NaN entry or one zero vector."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(2, 10))
    size = 2 * n * d
    grid = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                         min_size=size, max_size=size))
    noise = draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
    jitter = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.05]))
    parts = (np.array(grid) + jitter * np.array(noise)).reshape(2, n, d)
    parts[:, draw(st.integers(0, n - 1))] *= draw(st.sampled_from([1.0, 1e-150, 1e150, 1e160]))
    fault = draw(st.sampled_from([None, None, "nan", "zero"]))
    if fault == "nan":
        entry = draw(st.integers(0, 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
        parts[entry] = math.nan
    elif fault == "zero":
        parts[:, draw(st.integers(0, n - 1))] = 0.0
    return LineSet.from_parts(parts)


@st.composite
def fans(draw):
    """26..41 unit vectors of R^2 at angles whose steps are 0.04..0.06:
    their values |cos(a - b)| lie under 0.06 apart and spread over about
    0.5..1, so at tol = 0.06 they chain into one cluster, wider than 10 * tol
    or not."""
    steps = draw(st.lists(st.floats(0.04, 0.06), min_size=25, max_size=40))
    angles = np.cumsum([0.0, *steps])
    return LineSet.from_parts(np.array([[np.cos(angles), np.sin(angles)],
                                        np.zeros((2, len(angles)))]).transpose(0, 2, 1))


#: the union of the d = 4 MUBs in float: two clusters, 0 and 1/2
MUBS4 = LineSet.from_parts(np.concatenate([b.parts for b in mubs_from_rds(builtin_rds(4)).bases],
                                          axis=1).astype(float))

#: a chain: 21 unit vectors of R^2, 0.06 apart in angle, whose values
#: |cos(0.06 m)| lie under 0.06 apart and spread over 0.6; one cluster at
#: tol = 0.06, but no "yes"
CHAIN = float_set([(math.cos(0.06 * k), math.sin(0.06 * k)) for k in range(21)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(float_sets(), fans()), st.sampled_from([DEFAULT_TOL, 1e-3, 0.01, 0.06, 0.3]))
@example(MUBS4, DEFAULT_TOL)
@example(CHAIN, 0.06)
@example(float_set([(1, 0), (1, 1), (math.nan, 0)]), DEFAULT_TOL)
@example(float_set([(1, 0), (0, 0), (1, 1)]), DEFAULT_TOL)
@example(float_set([(1, 0), (1e160, 1e160), (1, 1)]), DEFAULT_TOL)
@example(float_set([(1, 0), (1e150, 1e150), (1, 1)]), DEFAULT_TOL)
def test_float_gram_analyze_equals_its_per_set_form(lines, tol):
    try:
        want = per_set_float_report(lines, tol)
    except ValueError as exc:  # ZeroVectorError is one
        with pytest.raises(ValueError) as got:
            gram_analyze(lines, tol)
        assert type(got.value) is type(exc)
        return
    assert gram_analyze(lines, tol) == want


def test_the_float_examples_reach_each_case():
    assert len(per_set_float_report(MUBS4, DEFAULT_TOL).angle_clusters) == 2
    chain = per_set_float_report(CHAIN, 0.06)
    assert len(chain.angle_clusters) == 1 and not chain.equiangular
    with pytest.raises(ValueError, match="non-finite"):
        per_set_float_report(float_set([(1, 0), (1e160, 1e160), (1, 1)]), DEFAULT_TOL)
    big = per_set_float_report(float_set([(1, 0), (1e150, 1e150), (1, 1)]), DEFAULT_TOL)
    assert big.norms[1] > 1e150


@pytest.mark.parametrize("shape", [(4096, 6), (256, 120), (104, 300), (64, 2016), (1, 461_280)])
def test_row_sums_of_a_stack_are_the_sums_of_its_rows(shape):
    # _float_reports takes a one-cluster set's sum from one row-wise sum of
    # its stack, and a cluster of a set with cuts from its own slice
    order = np.sort(np.random.default_rng(sum(shape)).random(shape), axis=1)
    assert order.sum(axis=1).tobytes() == np.array([row.sum() for row in order]).tobytes()


@st.composite
def float_stacks(draw):
    """The parts (2, S, n, d) of 1..6 float sets of n in 2..8 nonzero
    vectors in C^d, d in 1..4.  A set is either on a coarse grid, jittered
    or not (tied values, several clusters), or n real multiples of one
    vector (one cluster, its values 1 up to rounding)."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(2, 8))
    size = 2 * n * d
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            grid = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                                 min_size=size, max_size=size))
            noise = draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
            jitter = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
            sets.append((np.array(grid) + jitter * np.array(noise)).reshape(2, n, d))
        else:
            vector = draw(st.lists(st.sampled_from([-1.0, 0.5, 1.0, 2.0]),
                                   min_size=2 * d, max_size=2 * d))
            scales = draw(st.lists(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]),
                                   min_size=n, max_size=n))
            sets.append(np.reshape(vector, (2, 1, d)) * np.reshape(scales, (1, n, 1)))
    parts = np.stack(sets, axis=1)
    assume(parts.any(axis=(0, 3)).all())  # no zero vector
    return parts


#: the float union of the d = 4 MUBs (two clusters of tied values, 0 and
#: 1/2) and a Construction 1 hit (one cluster), stacked
MIXED = np.stack([MUBS4.parts, l_block(mubs_from_rds(builtin_rds(4)), ScalingSpec(
    (1, 3, 4, 2), Scalar.from_complex(math.sqrt(2 + math.sqrt(5))))).parts, MUBS4.parts], axis=1)


#: a stack whose second set has a vector of one jittered entry, 1e-12 times
#: 1.07e-243, whose squared norm underflows to 0
UNDERFLOW = np.array([[[[1.0], [2.0]], [[1e-12 * 1.07e-243], [1.0]]],
                      [[[0.0], [0.0]], [[0.0], [0.0]]]])


@settings(max_examples=200, deadline=None)
@given(float_stacks(), st.sampled_from([0.0, DEFAULT_TOL, 1e-3, 0.06, 0.3]))
@example(MIXED, DEFAULT_TOL)
@example(MIXED, 0.0)
@example(UNDERFLOW, 0.0)
def test_a_stacks_float_reports_are_its_sets_own_reports(parts, tol):
    try:
        want = [per_set_float_report(LineSet.from_parts(parts[:, s]), tol)
                for s in range(parts.shape[1])]
    except ZeroVectorError:
        # a nonzero vector whose squared norm underflows is a zero vector to
        # both, and the stack refuses it as its set does
        with pytest.raises(ZeroVectorError):
            _float_reports(parts, tol)
        return
    # bit for bit: a float's repr gives it back exactly, the sign of a zero too
    assert repr(_float_reports(parts, tol)) == repr(want)


def test_the_mixed_stack_has_one_and_several_clusters():
    counts = [len(report.angle_clusters) for report in _float_reports(MIXED, DEFAULT_TOL)]
    assert counts == [2, 1, 2]


# --- the float Gram walked in row tiles ---------------------------------------


def float_union(d):
    """The float union of the builtin MUBs of C^d: d^2 lines."""
    return LineSet.from_parts(np.concatenate(
        [b.parts for b in mubs_from_rds(builtin_rds(d)).bases], axis=1).astype(float))


def clustered_set(m=300, d=3, seed=18):
    """m float lines in C^d, each one of 12 small-integer vectors with a
    1e-12 jitter: many clusters of tied values."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, size=(2, 12, d)).astype(float)
    base[0, :, 0] += 3  # no zero vector
    return LineSet.from_parts(base[:, rng.integers(0, 12, size=m)]
                              + 1e-12 * rng.standard_normal((2, m, d)))


@pytest.mark.parametrize("make", [pytest.param(lambda: float_union(d), id=f"union-{d}")
                                  for d in (17, 23, 29, 31)]
                         + [pytest.param(clustered_set, id="clustered-300")])
@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-13, 1e-3])
def test_a_gram_of_many_tiles_gives_the_full_grams_report(make, tol):
    lines = make()
    assert len(lines) ** 2 > _CHUNK  # more than one row tile
    want = per_set_float_report(lines, tol)
    assert repr(gram_analyze(lines, tol)) == repr(want)  # bit for bit
    if make is clustered_set and tol == DEFAULT_TOL:
        assert len(want.angle_clusters) > 10


def test_a_non_finite_entry_in_the_last_tile_walked_raises_before_a_zero_vector():
    # the walk starts at the last rows, whose zero vector it sees first
    parts = np.array(clustered_set().parts)
    parts[:, -1] = 0
    with pytest.raises(ZeroVectorError):
        gram_analyze(LineSet.from_parts(parts))
    parts[0, 0, 0] = math.nan
    with pytest.raises(ValueError, match="non-finite") as got:
        gram_analyze(LineSet.from_parts(parts))
    assert type(got.value) is ValueError


def test_the_float_gram_of_the_d31_union_stays_within_10_mib():
    # the whole complex Gram of its 961 lines alone takes 14.8 MB
    lines = float_union(31)
    tracemalloc.start()
    try:
        report = gram_analyze(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.angle_clusters) == 2
    assert peak <= 10 * 2**20


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


#: float parts with the values whose bits a float comparison loses
edge_floats = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                        st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def raw_sets(draw, nan=True):
    """The parts of 0..5 vectors in C^d, d in 0..4: float64 ones with signed
    zeros, NaNs and infinities, or Python ints reaching past int64."""
    n, d = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        part = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
        flat = draw(st.lists(part, min_size=2 * n * d, max_size=2 * n * d))
        return LineSet.from_parts(np.array(flat, dtype=object).reshape(2, n, d))
    part = edge_floats if nan else edge_floats.filter(lambda x: not math.isnan(x))
    flat = draw(st.lists(part, min_size=2 * n * d, max_size=2 * n * d))
    return LineSet.from_parts(np.array(flat, dtype=float).reshape(2, n, d))


def scalar_backed(vector):
    """The vector rebuilt entry by entry from fresh Scalars."""
    return CVector(tuple(Scalar(z.re, z.im) for z in vector.entries))


def same_bits(a, b):
    return np.array(a).tobytes() == np.array(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(raw_sets())
def test_lineset_rebuilt_from_its_rows_or_its_scalars_has_the_same_array(lines):
    for vectors in (lines.vectors, tuple(map(scalar_backed, lines.vectors))):
        again = LineSet(lines.dim, vectors)
        assert again.parts.shape == lines.parts.shape
        if not lines.parts.size:  # exact iff every entry is: vacuously
            assert again.exact
        elif lines.exact:
            assert again.exact and again.parts.tolist() == lines.parts.tolist()
        else:  # bit for bit: signed zeros, NaNs and infinities included
            assert not again.exact and again.parts.tobytes() == lines.parts.tobytes()


@settings(max_examples=200, deadline=None)
@given(raw_sets())
def test_a_row_backed_vector_reads_as_its_scalars_do(lines):
    with np.errstate(all="ignore"):  # inf * 0 in a float norm: nan either way
        for row_backed in lines.vectors:
            scalars = scalar_backed(row_backed)
            assert row_backed.dim == scalars.dim == lines.dim
            assert row_backed.exact == scalars.exact == (lines.exact or not lines.dim)
            assert row_backed.is_zero() == scalars.is_zero()
            assert same_bits(row_backed.to_array(), scalars.to_array())
            if lines.exact:
                assert norm2(row_backed) == norm2(scalars)
                assert type(norm2(row_backed)) is int
            else:  # the same float, or NaN for both: a NaN's sign bit is not kept
                a, b = norm2(row_backed), norm2(scalars)
                assert a == b or math.isnan(a) and math.isnan(b)


@settings(max_examples=200, deadline=None)
@given(raw_sets(nan=False))
def test_row_backed_and_scalar_backed_vectors_compare_and_hash_alike(lines):
    # NaN is left out: Scalar(nan, 0.0) equals no other Scalar
    for row_backed in lines.vectors:
        scalars = scalar_backed(row_backed)
        assert row_backed == scalars and scalars == row_backed
        assert hash(row_backed) == hash(scalars)
        assert repr(row_backed) == repr(scalars)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(edge_floats, edge_floats), max_size=6), st.booleans())
def test_make_of_a_complex_or_float_array_is_make_of_its_entries(pairs, real):
    values = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    if real:
        values = values.real.copy()
    made = CVector.make(values)
    per_entry = CVector(tuple(Scalar.coerce(x) for x in values))
    assert same_bits([(z.re, z.im) for z in made.entries],
                     [(z.re, z.im) for z in per_entry.entries])
    assert made.exact == per_entry.exact == (not len(values))  # exact: vacuously
    assert made.dim == per_entry.dim == len(values)
    assert same_bits(made.to_array(), per_entry.to_array())
    if not np.isnan(values).any():
        assert made == per_entry and hash(made) == hash(per_entry)
    values[...] = 7  # make copied the array
    assert same_bits(made.to_array(), per_entry.to_array())


@pytest.mark.parametrize("values", [np.zeros((2, 2)), np.zeros((2, 2), complex)],
                         ids=["2-D", "2-D complex"])
def test_make_refuses_2d_arrays(values):
    with pytest.raises(TypeError, match="cannot interpret"):
        CVector.make(values)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float32, np.complex64],
                         ids=["int", "int32", "uint8", "float32", "complex64"])
def test_make_reads_numpy_numbers_by_the_scalar_rule(dtype):
    values = np.array([1, 0, 2]).astype(dtype)
    made = CVector.make(values)
    assert made == CVector.make(values.tolist())
    assert made.exact == np.issubdtype(dtype, np.integer)


@pytest.mark.parametrize("a, b", [(2.7, 0.9), (2, 0.5), (True, 0), (1, "1"),
                                  pytest.param(0, np.True_, id="0-np.True_")])
def test_gauss_refuses_a_part_that_is_not_an_integer(a, b):
    with pytest.raises(ValueError, match="non-integer entry in Gaussian integer parts"):
        Scalar.gauss(a, b)


@pytest.mark.parametrize("value", [True, False])
def test_coerce_refuses_a_bool(value):
    with pytest.raises(TypeError, match="cannot interpret"):
        Scalar.coerce(value)


@pytest.mark.parametrize("bad", [2.0, np.int64(2)], ids=["float", "int64"])
def test_a_scalar_holding_no_python_int_enters_a_set_as_float(bad):
    vector = CVector((Scalar.gauss(1), Scalar(bad, 0)))
    assert not Scalar(bad, 0).exact and not vector.exact
    row_backed = LineSet.from_parts(np.array([[[1, 0]], [[0, 0]]], dtype=object)).vectors[0]
    alone = LineSet(2, (vector,))
    assert not alone.exact and alone.parts.dtype == np.float64
    assert alone.parts.tolist() == [[[1.0, float(bad)]], [[0.0, 0.0]]]
    beside = LineSet(2, (row_backed, vector))  # next to a row-backed exact vector
    assert not beside.exact and beside.parts.dtype == np.float64
    assert beside.parts.tolist() == [[[1.0, 0.0], [1.0, float(bad)]], [[0.0, 0.0], [0.0, 0.0]]]


#: parts of every type a Scalar may be given: only a Python int is an exact
#: one, and a bool is refused.  Small enough that no sum or product
#: overflows a numpy part
scalar_parts = st.one_of(
    st.integers(-2**20, 2**20), st.floats(-1e6, 1e6), st.booleans(),
    st.booleans().map(np.bool_), st.integers(-9, 9).map(np.int64),
    st.floats(-9, 9).map(np.float64))


@given(scalar_parts, scalar_parts, scalar_parts, scalar_parts)
@example(2, 1, 2.5, 0)
@example(2, 1, True, 0)
def test_a_scalar_is_exact_iff_both_parts_are_python_ints(a, b, c, e):
    if any(isinstance(p, (bool, np.bool_)) for p in (a, b, c, e)):  # never read as 1 or 1.0
        with pytest.raises(TypeError, match="as a real number"):
            Scalar(a, b)
            Scalar(c, e)
        return
    x, y = Scalar(a, b), Scalar(c, e)
    assert x.exact is (type(a) is int and type(b) is int)
    assert y.exact is (type(c) is int and type(e) is int)
    assert (x + y).exact is (x * y).exact is (x.exact and y.exact)
    # a Python int or float part is kept, any other part held as a float
    plain = tuple(t if t in (int, float) else float for t in (type(a), type(b)))
    assert (type(x.re), type(x.im)) == plain and (x.re, x.im) == (a, b)
    for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        twin = clone(x)
        assert twin == x and twin.exact is x.exact
        assert (type(twin.re), type(twin.im)) == plain


# --- scaled entries against Scalar.__mul__ ----------------------------------


def bits(x):
    """A part as it compares bit for bit: an int as itself, a float by its
    bit pattern, so that -0.0 and 0.0 differ."""
    return x if type(x) is int else struct.pack("<d", x)


def scaled_union(family, cols, c, exact, twist=False):
    """The union of the bases with entry cols[j] of every vector of basis j
    multiplied by c, entry by entry through Scalar.__mul__, each entry
    floated first unless exact, and every entry then multiplied by -1 if
    twist: rows of (re, im) bits."""
    minus = Scalar.gauss(-1)
    rows = []
    for j, basis in enumerate(family.bases):
        for re_row, im_row in zip(*basis.parts.tolist()):
            row = [Scalar(re, im) if exact else Scalar(float(re), float(im))
                   for re, im in zip(re_row, im_row)]
            row[cols[j]] = row[cols[j]] * c
            rows.append([(bits(z.re), bits(z.im))
                         for z in ([z * minus for z in row] if twist else row)])
    return rows


def table_bits(lines):
    return [[(bits(re), bits(im)) for re, im in row]
            for row in lines.parts.transpose(1, 2, 0).tolist()]


@settings(max_examples=150, deadline=None)
@given(families, st.data(), st.one_of(
    scalars, st.builds(Scalar.gauss, st.integers(-2**70, 2**70), st.integers(-2**70, 2**70))))
def test_l_block_scales_an_entry_as_scalar_mul(family, data, v):
    perm = tuple(data.draw(st.permutations(range(1, family.dim + 1))))
    lines = l_block(family, ScalingSpec(perm, v))
    exact = v.exact and all(b.exact for b in family.bases)
    assert lines.exact == exact
    assert table_bits(lines) == scaled_union(family, [p - 1 for p in perm], v, exact)


@settings(max_examples=150, deadline=None)
@given(families, st.data(), st.one_of(st.integers(-3, 3), st.floats(-3, 3)),
       st.one_of(st.integers(-3, 3), st.floats(-3, 3)), st.sampled_from(["default", "i-twist"]))
def test_construction3_pair_scales_entries_as_scalar_mul(family, data, a, b, variant):
    perm = tuple(data.draw(st.permutations(range(1, family.dim + 1))))
    lines = construction3_pair(family, BlockPairSpec(perm, a, b, variant))
    v = complex(a, b)
    v, vp = (1j * v, 1j * (2 - v)) if variant == "i-twist" else (v, 2 - v)
    v, vp = _gauss_if_integral(v), _gauss_if_integral(vp)
    exact = v.exact and vp.exact and all(basis.exact for basis in family.bases)
    assert lines.exact == exact
    cols = [p - 1 for p in perm]
    halves = zip(scaled_union(family, cols, v, exact),
                 scaled_union(family, cols, vp, exact, twist=variant == "i-twist"))
    assert table_bits(lines) == [left + right for left, right in halves]


def test_the_scaling_families_are_exact_and_float():
    exact = {d: all(b.exact for b in family.bases) for d, family in FAMILIES.items()}
    assert exact == {2: True, 3: False, 4: True, 5: False}


# --- the exact Gram at the int64 bound --------------------------------------


def int64_limit(d):
    """The largest M with 4 d^3 M^4 <= 2^63 - 1: the exact Gram of a set in
    Z[i]^d whose parts are at most M in size runs in int64."""
    top = math.isqrt(math.isqrt((2**63 - 1) // (4 * d**3)))
    assert 4 * d**3 * top**4 <= 2**63 - 1 < 4 * d**3 * (top + 1) ** 4
    return top


def assert_gram_is_python_exact(sets):
    """Every block of the Gram of sets of one shape, each set's own through
    a one-set stack and through the stacked _self_grams, and each block row
    of _block_rows, with mag * d and every squared norm, equals the inner() /
    norm2() reference in Python ints."""
    d = sets[0].dim
    stack = _stack(sets)
    blocks = [_self_grams(_stack([s])) for s in sets]
    (mags, norms), rows = _self_grams(stack), list(_block_rows(stack))
    assert len(blocks) == len(mags) == len(sets) and len(rows) == len(sets) - 1
    for j, ((mag,), (norms_j,)) in enumerate(blocks):
        want = [[inner(x, y).abs2() for y in sets[j].vectors] for x in sets[j].vectors]
        want_norms = [norm2(x) for x in sets[j].vectors]
        assert mag.tolist() == mags[j].tolist() == want
        assert (mag * d).tolist() == [[value * d for value in row] for row in want]
        assert norms_j.tolist() == norms[j].tolist() == want_norms
    for j, row in enumerate(rows):
        want = [[inner(x, y).abs2() for later in sets[j + 1:] for y in later.vectors]
                for x in sets[j].vectors]
        assert row.tolist() == want
        assert (row * d).tolist() == [[value * d for value in line] for line in want]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_exact_gram_at_the_int64_bound(d):
    top = int64_limit(d)
    for m, wide in ((top, np.int64), (top + 1, object)):
        extremal = gauss_vector([(m, m)] * d)  # |<x, x>|^2 = 4 d^2 M^4
        other = gauss_vector([(m, -m)] + [(-m, m)] * (d - 1))
        lines = LineSet(d, (extremal, other))
        assert _self_grams(_stack([lines]))[0].dtype == wide
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


def test_exact_gram_of_parts_at_and_past_the_int64_range():
    for m in (2**63 - 1, 2**63, -(2**63), 2**64):
        lines = LineSet(2, (gauss_vector([(m, 1), (0, -m)]), gauss_vector([(1, m), (m, 2)])))
        assert _self_grams(_stack([lines]))[0].dtype == object
        assert_gram_is_python_exact([lines, LineSet(2, lines.vectors[::-1])])


def correctly_rounded_sqrt(n2: int) -> float:
    """sqrt(n2) to 700 digits, then rounded once to float64 (inf past it).
    A root of n2 <= 2^2100 that is not a float midpoint lies more than
    10^-640 of itself away from every midpoint, so the decimal rounding
    cannot move it across one."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        return float(decimal.Decimal(n2).sqrt())


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 2**2100),
                 st.integers(1, 2100).flatmap(lambda b: st.integers(2**(b - 1), 2**b))))
@example(5718077380419264044)  # math.sqrt(float(n2)) is one ulp off
@example(2**53 + 1)
@example(2**2048 - 1)  # the root rounds up to 2^1024
def test_exact_norm_is_the_correctly_rounded_root(n2):
    want = correctly_rounded_sqrt(n2)
    if math.isinf(want):
        with pytest.raises(ValueError, match="norm beyond float64"):
            _exact_norm(n2)
    else:
        assert _exact_norm(n2) == want


@st.composite
def near_int64_bound(draw):
    """Two or three sets of n vectors in Z[i]^d, n in 1..3 and d in 1..5,
    whose largest |part| is within two of the int64 limit, on either side of
    it."""
    d, n, count = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    top = int64_limit(d) + draw(st.integers(-2, 1))
    part = st.one_of(st.sampled_from((top, -top, top - 1, 1 - top)), st.integers(-top, top))
    rows = draw(st.lists(st.lists(st.tuples(part, part), min_size=d, max_size=d),
                         min_size=n * count, max_size=n * count))
    rows[0][0] = (top, rows[0][0][1])
    assume(all(any(a or b for a, b in row) for row in rows))
    return [LineSet(d, tuple(gauss_vector(row) for row in rows[s:s + n]))
            for s in range(0, n * count, n)]


@settings(max_examples=80, deadline=None)
@given(near_int64_bound())
def test_exact_gram_near_the_int64_bound_matches_python_ints(sets):
    assert_gram_is_python_exact(sets)


# --- verify_mubs against its per-block form ---------------------------------


def per_block_verify_mubs(bases, tol):
    """verify_mubs with one product per Gram block: each basis against
    itself in turn, then each pair j < k; the first block that fails gives
    the verdict, and no later basis is checked."""
    d = bases[0].dim
    if all(basis.exact for basis in bases):
        parts = [basis.parts for basis in bases]
        big = max(max(int(p.max()), -int(p.min())) for p in parts)  # no int64 wrap
        wide = np.int64 if 4 * d**3 * big**4 <= 2**63 - 1 else object  # past the gate: Python ints
        parts = [p.astype(wide) for p in parts]
    else:
        parts = [basis.to_matrix() for basis in bases]
    exact = parts[0].dtype != complex
    off = ~np.eye(d, dtype=bool)
    norms = []
    for a in parts:
        (mag,), (n,) = _self_grams(a[..., None, :, :])
        norms.append(n)
        ok = (mag[off] == 0) if exact else (mag / np.outer(n, n))[off] <= tol
        if not ok.all():
            return False
    for j, k in itertools.combinations(range(len(parts)), 2):
        mag, scale = _block(parts[j], _adjoint(parts[k])), np.outer(norms[j], norms[k])
        ok = (mag * d == scale) if exact else np.abs(mag / scale - 1 / math.sqrt(d)) <= tol
        if not ok.all():
            return False
    return True


VERIFY_FAMILIES = {**FAMILIES, 7: mubs_from_rds(builtin_rds(7))}


@st.composite
def mub_candidates(draw):
    """(bases, bent, defect): the bases of a builtin family, d in
    {2, 3, 4, 5, 7}, times s (1 + i) with s one or either side of the int64
    limit, each basis as held or floated; bent if one part was moved, by 1
    in an exact basis and by 1 or 1e-4 times s in a float one; defect "nan"
    or "zero" if one vector of a random basis got a NaN or became zero."""
    d = draw(st.sampled_from(sorted(VERIFY_FAMILIES)))
    scale = draw(st.sampled_from([1, int64_limit(d), int64_limit(d) + 1]))
    floated = draw(st.sampled_from(["held", "floated", "mixed"]))
    bases = []
    for basis in VERIFY_FAMILIES[d].bases:
        re, im = basis.parts
        parts = np.array([(re - im) * scale, (re + im) * scale])
        if floated == "floated" or floated == "mixed" and draw(st.booleans()):
            parts = parts.astype(float)
        bases.append(parts)
    spot = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(0, d - 1))
    bent = draw(st.booleans())
    if bent:
        (b, v, c), part = draw(spot), draw(st.integers(0, 1))
        step = draw(st.sampled_from([1, -1]))
        if bases[b].dtype != float:  # exact: int64 or Python ints
            bases[b][part, v, c] += step
        else:
            bases[b][part, v, c] += step * scale * draw(st.sampled_from([1.0, 1e-4]))
    defect = draw(st.sampled_from([None, "nan", "zero"]))
    if defect is not None:
        b, v, c = draw(spot)
        if defect == "nan":
            bases[b] = bases[b].astype(float)
            bases[b][draw(st.integers(0, 1)), v, c] = math.nan
        else:
            bases[b][:, v] = 0
    return [LineSet.from_parts(parts) for parts in bases], bent, defect


def verdict(verify, bases, tol):
    """verify(bases, tol), or the class of the ValueError it raised."""
    try:
        return verify(bases, tol)
    except ValueError as exc:  # ZeroVectorError is one
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(mub_candidates(), st.sampled_from([1e-15, 1e-13, 1e-11, DEFAULT_TOL]))
def test_verify_mubs_equals_its_per_block_form(candidate, tol):
    bases, bent, defect = candidate
    got, want = verdict(verify_mubs, bases, tol), verdict(per_block_verify_mubs, bases, tol)
    if defect is not None and want is False:
        # the stacked Gram checks every basis before any verdict, so a defect
        # behind a failing block raises
        assert got is (ZeroVectorError if defect == "zero" else ValueError)
    else:
        assert got is want
    if not bent and defect is None:
        assert got is True


# --- int64 storage on either side of its bound -------------------------------

#: an exact set holds its parts as int64 below this, as Python ints from it on
PART_BOUND = 2**31


def held_as(parts):
    """The storage rule of an exact set's parts (nested lists of ints)."""
    flat = np.array(parts, dtype=object).ravel()
    return np.dtype(np.int64 if all(abs(x) < PART_BOUND for x in flat) else object)


def python_entries(lines):
    """Each vector's exact Scalars from the set's parts as Python ints."""
    return [tuple(Scalar(re, im) for re, im in zip(*row))
            for row in np.array(lines.parts.tolist(), dtype=object).transpose(1, 0, 2).tolist()]


def python_verify_mubs(bases):
    """verify_mubs of exact bases in Python ints, one inner() at a time."""
    d = bases[0].dim
    vectors = [[CVector(entries) for entries in python_entries(basis)] for basis in bases]
    for j, basis in enumerate(vectors):
        for k, other in enumerate(vectors[j:], start=j):
            for a, x in enumerate(basis):
                for b, y in enumerate(other):
                    mag = inner(x, y).abs2()
                    if j == k and a != b and mag != 0:
                        return False
                    if j != k and mag * d != norm2(x) * norm2(y):
                        return False
    return True


def ceilings(d):
    """Largest |part| values on either side of the storage bound, of
    _stack's int64 gate at d, and far past both."""
    top = int64_limit(d)
    return [top, top + 1, PART_BOUND - 1, PART_BOUND, 2**70]


@st.composite
def straddling_sets(draw):
    """A set of 2..5 nonzero vectors in Z[i]^d, d in 1..4, whose largest
    |part| is one of ceilings(d), with parts +-c, +-(c - 1) and any below."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    c = draw(st.sampled_from(ceilings(d)))
    part = st.one_of(st.sampled_from((c, -c, c - 1, 1 - c)), st.integers(-c, c),
                     st.integers(-3, 3))
    rows = draw(st.lists(st.lists(st.tuples(part, part), min_size=d, max_size=d),
                         min_size=n, max_size=n))
    rows[0][0] = (draw(st.sampled_from((c, -c))), rows[0][0][1])
    assume(all(any(a or b for a, b in row) for row in rows))
    return LineSet(d, tuple(gauss_vector(row) for row in rows))


def scaled_family(d, scale):
    """The builtin exact family of C^d, d in {2, 4}, times scale * (1 + i):
    every |part| is scale or 0."""
    family = FAMILIES[d]
    bases = tuple(LineSet.from_parts(np.array([(re - im) * scale, (re + im) * scale],
                                              dtype=object))
                  for re, im in (np.array(b.parts.tolist(), dtype=object) for b in family.bases))
    return MubFamily(d, bases, family.source_rds)


@settings(max_examples=150, deadline=None)
@given(straddling_sets(), st.data())
def test_sets_either_side_of_the_storage_bound_read_as_python_ints(lines, data):
    parts = lines.parts.tolist()
    assert lines.exact and lines.parts.dtype == held_as(parts)
    entries = python_entries(lines)
    for vector, want in zip(lines.vectors, entries):
        assert vector.entries == want
        assert {type(x) for z in vector.entries for x in (z.re, z.im)} == {int}
        assert norm2(vector) == sum(z.abs2() for z in want)
        assert type(norm2(vector)) is int
    report = gram_analyze(lines)
    assert report.angle_clusters == fraction_clusters(lines)
    assert report.norms == tuple(_exact_norm(sum(z.abs2() for z in row)) for row in entries)
    units = st.sampled_from(GAUSSIAN_UNITS)
    n, d = len(lines), lines.dim
    vphases = data.draw(st.lists(units, min_size=n, max_size=n))
    cphases = data.draw(st.lists(units, min_size=d, max_size=d))
    moved = apply_equivalence(lines, Compose((VectorPhases(tuple(vphases)),
                                              CoordPhases(tuple(cphases)))))
    want = [[z * vphases[j] * cphases[i] for i, z in enumerate(row)]
            for j, row in enumerate(entries)]
    assert moved.parts.dtype == lines.parts.dtype
    assert python_entries(moved) == [tuple(row) for row in want]
    assert gram_analyze(moved) == report


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4]), st.data())
def test_verify_mubs_either_side_of_the_storage_bound_is_python_exact(d, data):
    scale = data.draw(st.sampled_from([1] + ceilings(d)))
    bases = list(scaled_family(d, scale).bases)
    assert {b.parts.dtype for b in bases} == {held_as([scale])}
    if data.draw(st.booleans()):  # one part moved by one
        b, part, v, c = (data.draw(st.integers(0, k)) for k in (d - 1, 1, d - 1, d - 1))
        moved = np.array(bases[b].parts.tolist(), dtype=object)
        moved[part, v, c] += data.draw(st.sampled_from([1, -1]))
        bases[b] = LineSet.from_parts(moved)
    want = python_verify_mubs(bases)
    assert verify_mubs(bases) is want
    assert per_block_verify_mubs(bases, DEFAULT_TOL) is want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 4]), st.sampled_from([1, 3, 2**15, 2**31 - 1, 2**40]), st.data())
def test_l_block_with_an_exact_v_across_the_storage_bound_is_python_exact(d, scale, data):
    family = scaled_family(d, scale)
    k = PART_BOUND // scale  # |re v| + |im v| = k keeps every part below the bound
    wrap = 2**63 // scale + 1  # a product in int64 would wrap
    a = data.draw(st.sampled_from([k - 1, k, k + 1, -k, 1 - k, -1 - k, wrap, -wrap]))
    b = data.draw(st.sampled_from([0, 1, -1]))
    v = Scalar.gauss(a - b if a > 0 else a + b, b)  # |re| + |im| is |a|
    perm = tuple(data.draw(st.permutations(range(1, d + 1))))
    lines = l_block(family, ScalingSpec(perm, v))
    assert lines.exact and lines.parts.dtype == held_as(lines.parts.tolist())
    assert table_bits(lines) == scaled_union(family, [p - 1 for p in perm], v, True)
    assert lines.vectors == tuple(CVector(entries) for entries in python_entries(lines))


# --- Theorem 4.6 from the column-pair table ---------------------------------


def theorem46_reference(family, perm):
    """theorem46_predicate one permutation at a time, as it was before the
    column-pair table: L(pi, 0), its own Gram, the cross-basis blocks."""
    lines = l_block(family, ScalingSpec(perm, Scalar.gauss(0, 0)))
    (mag,), _ = _self_grams(_stack([lines]))
    basis = np.arange(len(lines)) // 4
    cross = mag[basis[:, None] != basis[None, :]]
    if lines.exact:
        return bool(np.all(cross == 2))
    return bool(np.all(np.abs(cross ** 2 - 2) <= DEFAULT_TOL))


def outcome(predicate, family, perm):
    """The answer, or the class of the exception raised."""
    try:
        return predicate(family, perm)
    except Exception as exc:
        return type(exc)


@st.composite
def theorem46_families(draw):
    """Copies of builtin:4, each basis moved by Gaussian units, some or all
    bases floated, and at most one flaw: an entry perturbed (by a Gaussian
    integer or a float), a vector put on one coordinate, a NaN or an entry of
    1e160, whose lines' squared norms overflow unless its column is zeroed."""
    units = st.lists(st.sampled_from(GAUSSIAN_UNITS), min_size=4, max_size=4)
    bases = [apply_equivalence(b, Compose((VectorPhases(tuple(draw(units))),
                                           CoordPhases(tuple(draw(units))))))
             for b in FAMILIES[4].bases]
    parts = [b.parts.astype(float) if draw(st.booleans()) else b.parts.copy() for b in bases]
    j, r, a, col = (draw(st.integers(0, k)) for k in (3, 1, 3, 3))
    flaw = draw(st.sampled_from(["none", "perturb", "one-coordinate", "nan", "huge"]))
    if flaw == "perturb":
        step = draw(st.sampled_from([1, -2, 1e-13, 1e-11, 1e-6, 0.5]))
        if isinstance(step, float):
            parts[j] = parts[j].astype(float)
        parts[j][r, a, col] += step
    elif flaw == "one-coordinate":
        parts[j][:, a] = 0
        parts[j][r, a, col] = 1
    elif flaw in ("nan", "huge"):
        parts[j] = parts[j].astype(float)
        parts[j][r, a, col] = math.nan if flaw == "nan" else 1e160
    return MubFamily(4, tuple(map(LineSet.from_parts, parts)), FAMILIES[4].source_rds)


@settings(max_examples=80, deadline=None)
@given(theorem46_families())
def test_theorem46_table_agrees_with_each_permutations_own_gram(family):
    perms = list(itertools.permutations((1, 2, 3, 4)))
    with np.errstate(over="ignore", invalid="ignore"):
        want = [outcome(theorem46_reference, family, perm) for perm in perms]
        errors = {w for w in want if isinstance(w, type)}
        if errors:
            # the 24 sets hold every zeroed basis, as the table does: where one
            # of them raises, the table's Gram raises for all, its non-finite
            # check before its zero-vector one
            assert errors <= {ValueError, ZeroVectorError}
            want = [ValueError if ValueError in errors else ZeroVectorError] * len(perms)
        assert [outcome(theorem46_predicate, family, perm) for perm in perms] == want


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


def lines_equal_all_pairs(a, b, tol):
    """lines_equal as it was before the candidate screen: the distance of
    every pair, all at once."""
    if a.dim != b.dim or len(a) != len(b):
        return False
    am = a.to_matrix()
    bm = b.to_matrix()
    am = am / np.linalg.norm(am, axis=1, keepdims=True)
    bm = bm / np.linalg.norm(bm, axis=1, keepdims=True)
    x = am[:, None, :]
    phase = np.exp(1j * np.angle(am @ bm.conj().T))
    y = phase[:, :, None] * bm[None, :, :]
    dist = np.linalg.norm(x - y, axis=2) * np.linalg.norm(x + y, axis=2) / math.sqrt(2)
    return _perfect_matching([np.flatnonzero(row).tolist() for row in dist <= tol])


@st.composite
def line_set_copies(draw):
    """(a, b, tol): b is a with each vector times a phase, the vectors
    permuted, and some moved by about tol (or a NaN put in)."""
    a = draw(produced)
    n, d = len(a), a.dim
    tol = draw(st.sampled_from([1e-12, 1e-8, 1e-4, 0.3, 1.0, 1.5, 2.0]))
    b = apply_equivalence(a, VectorPhases(tuple(draw(st.lists(phases, min_size=n, max_size=n)))))
    mat = b.to_matrix()[draw(st.permutations(range(n)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        step = rng.normal(size=d) + 1j * rng.normal(size=d)
        scale = tol * draw(st.sampled_from([0.25, 0.7, 0.99, 1.01, 1.5, 4.0]))
        mat[j] += scale * np.linalg.norm(mat[j]) * step / np.linalg.norm(step)
    if draw(st.booleans()) and draw(st.booleans()):
        mat[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = math.nan
    return a, LineSet.from_parts(np.array([mat.real, mat.imag])), tol


#: a tie at the tolerance: four Gaussian lines in C^2 and a rephased,
#: permuted copy with one vector moved.  Three of their pairs have
#: |<x, y>|^2 = 1/2 exactly, so a projector distance of exactly 1 = tol;
#: lines_equal matches them, which is the exact answer, and the float
#: reference rounds their distances to one ulp above 1
TIE = (LineSet.from_parts(np.array([[[1, 1], [1, -1], [1, 0], [1, 0]],
                                    [[0, -2], [0, 2], [-2, 1], [-2, -1]]], dtype=float)),
       LineSet.from_parts(np.array(
           [[[0.0, 2.0], [0.0, -2.0], [2.818503452507644, -5.692382653454529], [2.0, -1.0]],
            [[-1.0, 1.0], [-1.0, -1.0], [-4.661450092399967, 3.154273375479919], [1.0, 0.0]]])),
       1.0)


@settings(max_examples=200, deadline=None)
@given(line_set_copies())
@example(TIE)
def test_lines_equal_agrees_with_all_pairs(case):
    """lines_equal agrees with the reference wherever rounding cannot decide
    the answer: where the reference matches the sets at tol (1 - delta) and
    where it does not at tol (1 + delta).  delta bounds the relative rounding
    of either's distances, as lines_equal's own screen margin does, so a tie
    at tol (TIE) may go either way."""
    a, b, tol = case
    delta = 64 * (a.dim + 5) * np.finfo(float).eps
    with np.errstate(invalid="ignore"):
        for x, y in ((a, b), (b, a)):
            got = lines_equal(x, y, tol)
            if lines_equal_all_pairs(x, y, tol * (1 - delta)):
                assert got
            if not lines_equal_all_pairs(x, y, tol * (1 + delta)):
                assert not got


# --- the JSON encoder -------------------------------------------------------

#: NaN with a payload: json.dumps writes every NaN as NaN
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
                  5e-324, -5e-324, 1e16, 0.1, 1 / 3, 2.0)


@st.composite
def tables(draw):
    """A table of rows of [re, im] pairs from a small pool of floats,
    sometimes with a flaw: an int, bool or big int among the floats, a
    ragged or empty row, a pair of one or three, a tuple or a dict for a
    pair."""
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                         min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = draw(st.integers(0, 16))
    rows = [[[rng.choice(pool), rng.choice(pool)] for _ in range(d)]
            for _ in range(draw(st.integers(0, 80)))]
    for flaw in draw(st.lists(st.sampled_from(
            ["int", "bool", "bigint", "ragged", "empty row", "short pair", "long pair",
             "tuple", "dict"]), max_size=2)):
        spots = [(row, j) for row in rows for j, pair in enumerate(row)
                 if type(pair) is list and len(pair) == 2]
        if not spots:
            break
        row, j = rng.choice(spots)
        k = rng.randrange(2)
        if flaw in ("int", "bool", "bigint"):
            row[j][k] = {"int": rng.randrange(-3, 3), "bool": True, "bigint": 10**30}[flaw]
        elif flaw == "ragged":
            row.pop()
        elif flaw == "empty row":
            row.clear()
        elif flaw == "short pair":
            row[j].pop()
        elif flaw == "long pair":
            row[j].append(rng.choice(pool))
        elif flaw == "tuple":
            row[j] = tuple(row[j])
        else:
            row[j] = {"re": row[j][0]}
    return rows


keys = st.text(max_size=4)
leaves = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
                   st.text(max_size=4))
values = st.recursive(st.one_of(leaves, tables()), lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(keys, inner, max_size=3),
    st.dictionaries(st.integers(-3, 3), inner, max_size=3)), max_leaves=6)
line_set_docs = st.fixed_dictionaries(
    {"dim": st.integers(0, 12), "field": st.sampled_from(["complex-f64", "gaussian-int"]),
     "vectors": tables(), "provenance": st.dictionaries(keys, leaves, max_size=2)})
documents = st.one_of(
    line_set_docs,
    st.fixed_dictionaries({"bases": st.lists(line_set_docs, max_size=3),
                           "rds": st.dictionaries(keys, st.lists(st.lists(st.integers())),
                                                  max_size=2),
                           "verified": st.booleans()}),
    st.dictionaries(keys, values, max_size=4),
    values)


def encoded(encode, obj):
    """encode(obj), or the type of what it raised."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_json_encoder_writes_what_json_dumps_writes(doc):
    assert (encoded(lambda obj: "".join(_encode(obj)), doc)
            == encoded(lambda obj: json.dumps(obj, sort_keys=True), doc))


@settings(max_examples=300, deadline=None)
@given(documents, st.integers(1, 5))
def test_json_encoder_writes_what_json_dumps_writes_block_by_block(doc, block):
    # a _BLOCK of 1-5 cuts lists into blocks of 1-9 items, which put flaws,
    # -0.0, NaN payloads, tuples and dicts in later blocks, and give blocks
    # of ints or floats only
    with mock.patch.object(framecore, "_BLOCK", block):
        assert (encoded(lambda obj: "".join(_encode(obj)), doc)
                == encoded(lambda obj: json.dumps(obj, sort_keys=True), doc))


def test_json_encoder_takes_a_float_table_once_per_value():
    pool = [0.0, -0.0, math.nan, NAN_PAYLOAD, math.inf, -math.inf, 5e-324, 0.1]
    rows = [[[pool[(3 * j + k) % 8], pool[(j + 5 * k) % 8]] for k in range(16)]
            for j in range(24)]
    assert _float_table(rows) == json.dumps(rows)
    for bad in (1, True, 10**30):
        rows[5][3][1] = bad
        assert _float_table(rows) is None
    doc = lineset_to_json(mubs_from_rds(builtin_rds(31)).bases[0])
    assert "".join(_encode({"bases": [doc, doc], "verified": True})) == json.dumps(
        {"bases": [doc, doc], "verified": True}, sort_keys=True)


# --- the line-set reader ----------------------------------------------------


@st.composite
def line_set_documents(draw):
    """A document of line_set_docs, its dim often set to its first row's
    length and the floats of a gaussian-int table often made integral (NaN
    and infinities stay), at times with an int entry beyond float64, then at
    times one more flaw or change: a dim, field or provenance of another
    kind, a negative or integral float dim, or no dim, vectors, field or
    provenance."""
    doc = draw(line_set_docs)
    rows = doc["vectors"]
    if rows and draw(st.booleans()):
        doc["dim"] = len(rows[0])
    if doc["field"] == "gaussian-int" and draw(st.booleans()):
        kind = draw(st.sampled_from([int, float]))
        doc["vectors"] = [
            [type(pair)(kind(math.floor(x)) if type(x) is float and math.isfinite(x) else x
                        for x in pair) if type(pair) in (list, tuple) else pair
             for pair in row] for row in rows]
    pairs = [pair for row in doc["vectors"] for pair in row if type(pair) is list and pair]
    if pairs and draw(st.integers(0, 3)) == 0:
        draw(st.sampled_from(pairs))[0] = 10**400
    change = draw(st.sampled_from([None, None, None, "dim", "field", "provenance",
                                   "no field", "no provenance", "no dim", "no vectors"]))
    if change == "dim":
        doc["dim"] = draw(st.sampled_from([float(doc["dim"]), 2.7, "2", True, None, -1,
                                           -doc["dim"] - 1]))
    elif change == "field":
        doc["field"] = draw(st.sampled_from(["gaussian_int", 7, None, ["complex-f64"]]))
    elif change == "provenance":
        doc["provenance"] = draw(st.one_of(leaves, st.just([["k", 1]])))
    elif change is not None:
        del doc[change.split()[1]]
    return doc


def well_formed(doc) -> bool:
    """Whether a line-set document keeps every rule README gives it."""
    if "dim" not in doc or "vectors" not in doc:
        return False
    dim, field = doc["dim"], doc.get("field", "complex-f64")
    if type(dim) is float and dim.is_integer():
        dim = int(dim)
    if (type(dim) is not int or dim < 0 or field not in ("gaussian-int", "complex-f64")
            or not isinstance(doc.get("provenance", {}), dict)):
        return False
    for row in doc["vectors"]:
        if len(row) != dim:
            return False
        for pair in row:
            if type(pair) not in (list, tuple) or len(pair) != 2:
                return False
            for x in pair:
                if type(x) not in (int, float):
                    return False
                if field == "gaussian-int" and not (type(x) is int or x.is_integer()):
                    return False
                try:
                    float(x)  # the one way a JSON int is beyond float64
                except OverflowError:
                    if field == "complex-f64":
                        return False
    return True


@settings(max_examples=400, deadline=None)
@given(line_set_documents())
def test_lineset_from_json_reads_every_entry_or_refuses_the_document(doc):
    try:
        lines = lineset_from_json(doc)
    except ValueError:
        assert not well_formed(doc)
        return
    assert well_formed(doc)
    entries = [x for row in doc["vectors"] for pair in row for x in pair]
    got = lines.parts.transpose(1, 2, 0).ravel()
    assert lines.exact == (doc.get("field") == "gaussian-int")
    assert (lines.provenance is doc["provenance"] if "provenance" in doc
            else lines.provenance == {})
    if lines.exact:
        assert [type(g) for g in got.tolist()] == [int] * len(entries)  # int64 or Python ints
        assert got.tolist() == entries
    else:
        assert np.array_equal(got.view(np.uint64),
                              np.array(list(map(float, entries))).view(np.uint64))
