"""c1_search against the exhaustive loop it replaced, kept here as the
reference: every permutation and every candidate v, each certified by
l_block + gram_analyze; its pair masks against a loop over the
candidates and column pairs that scales the bases themselves; and a
search level's masks, built for all its basis pairs at once, against each
pair's own."""

import cmath
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mublines.abelian import builtin_rds
from mublines.constructions import (
    MubFamily,
    ScalingSpec,
    _level_masks,
    c1_magnitudes,
    c1_search,
    l_block,
    mubs_from_rds,
)
from mublines.framecore import (
    DEFAULT_TOL,
    Compose,
    CoordPhases,
    LineSet,
    VectorPhases,
    ZeroVectorError,
    apply_equivalence,
    gram_analyze,
)
from mublines.scalars import GAUSSIAN_UNITS, Scalar
from reference import gauss_vector


def brute_force_c1_search(family, phase_roots=4, tol=DEFAULT_TOL):
    d = family.dim
    mags = c1_magnitudes(d)
    hits = []
    for perm in itertools.permutations(range(1, d + 1)):
        for mag in mags:
            for p in range(phase_roots):
                if mag == 0.0 and p > 0:
                    break
                zeta = cmath.exp(2j * cmath.pi * p / phase_roots)
                spec = ScalingSpec(perm, Scalar.from_complex(zeta * mag))
                report = gram_analyze(l_block(family, spec), tol)
                if report.equiangular:
                    hits.append((spec, report))
    return hits


FAMILIES = {d: mubs_from_rds(builtin_rds(d)) for d in (2, 3, 4, 5)}


# at 40 roots, d = 2 and 3 have 80 candidates, so every mask spans two words
@pytest.mark.parametrize("d, phase_roots", [*itertools.product([2, 3, 4, 5], [1, 4, 8]),
                                            (2, 40), (3, 40)])
def test_c1_search_equals_brute_force(d, phase_roots, chunk):
    family = FAMILIES[d]
    assert c1_search(family, phase_roots) == brute_force_c1_search(family, phase_roots)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 4]), st.sampled_from([1, 4, 8]), st.data())
def test_c1_search_equals_brute_force_on_equivalent_families(d, phase_roots, data):
    units = st.lists(st.sampled_from(GAUSSIAN_UNITS), min_size=d, max_size=d)
    coord = CoordPhases(tuple(data.draw(units)))
    bases = tuple(
        apply_equivalence(b, Compose((VectorPhases(tuple(data.draw(units))), coord)))
        for b in FAMILIES[d].bases)
    family = MubFamily(d, bases, FAMILIES[d].source_rds)
    assert c1_search(family, phase_roots) == brute_force_c1_search(family, phase_roots)


def test_c1_search_d7_has_no_hits():
    assert c1_search(mubs_from_rds(builtin_rds(7)), 4, budget=math.inf) == []


def test_c1_search_memory_does_not_grow_with_the_candidates():
    family = mubs_from_rds(builtin_rds(13))
    tracemalloc.start()
    try:
        hits = c1_search(family, 512, budget=math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == []
    assert peak < 32 * 2**20


@pytest.mark.parametrize("roots", [True, 4.0, np.float64(4), "4"],
                         ids=["bool", "float", "float64", "str"])
def test_c1_search_refuses_phase_roots_that_are_not_an_integer(roots):
    # True once searched a grid of one root, 4 hits at d = 2 against 16
    message = f"phase_roots must be an integer >= 1, got {roots!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        c1_search(FAMILIES[2], roots)


def test_c1_search_reads_a_numpy_integer_as_phase_roots():
    hits = c1_search(FAMILIES[2], np.int64(4))
    assert len(hits) == 16 and hits == c1_search(FAMILIES[2], 4)


def test_c1_search_rejects_a_zero_vector():
    family = FAMILIES[3]
    first = family.bases[0]
    zeroed = LineSet(3, (gauss_vector([(0, 0)] * 3),) + first.vectors[1:])
    bad = MubFamily(3, (zeroed,) + family.bases[1:], family.source_rds)
    with pytest.raises(ZeroVectorError):
        brute_force_c1_search(bad)
    with pytest.raises(ZeroVectorError):
        c1_search(bad)


@pytest.mark.parametrize("phase_roots, tol, survivors, hits",
                         [(64, 0.02, 160, 32), (16, 0.2, 384, 128)])
def test_c1_search_equals_brute_force_where_survivors_fail(phase_roots, tol, survivors, hits,
                                                           monkeypatch):
    # a wide tolerance lets the pair table pass survivors that the stacked
    # certification then refuses: 160 survivors for 32 hits, 384 for 128
    import mublines.constructions as constructions

    certified, certify = [], constructions._float_reports

    def counting(parts, tol):
        certified.append(parts.shape[1])
        return certify(parts, tol)

    monkeypatch.setattr(constructions, "_float_reports", counting)
    found = c1_search(FAMILIES[4], phase_roots, tol=tol)
    assert (sum(certified), len(found)) == (survivors, hits)
    assert found == brute_force_c1_search(FAMILIES[4], phase_roots, tol)


@pytest.mark.parametrize("phase_roots, tol", [(8, DEFAULT_TOL), (16, 0.2)])
def test_c1_search_equals_brute_force_on_a_float_family(phase_roots, tol):
    family = FAMILIES[4]
    floated = MubFamily(4, tuple(LineSet.from_parts(b.parts.astype(float)) for b in family.bases),
                        family.source_rds)
    hits = c1_search(floated, phase_roots, tol=tol)
    assert hits and all(not report.exact for _, report in hits)
    assert hits == brute_force_c1_search(floated, phase_roots, tol)


def _scale(k):
    def change(parts):
        parts *= k
    return change


def _set(index, value):
    def change(parts):
        parts[index] = value
    return change


NON_FINITE = (ValueError, "line set has a non-finite entry")
ZERO = (ZeroVectorError, "line sets may not contain the zero vector")


@pytest.mark.parametrize("changes, error", [
    ({2: _set((1, 3, 0), math.nan)}, NON_FINITE),
    ({1: _set((0, 2, 1), math.inf)}, NON_FINITE),
    ({2: _scale(1e160)}, NON_FINITE),  # squared norms overflow to inf
    ({1: _scale(1e-170)}, ZERO),  # squared norms underflow to 0
    ({0: _set((slice(None), 1), 0.0), 3: _set((0, 3, 0), math.nan)}, NON_FINITE),
], ids=["nan", "inf", "scaled-1e160", "scaled-1e-170", "zero-then-nan"])
def test_c1_search_and_brute_force_raise_alike_on_a_malformed_family(changes, error):
    # changes[j] edits the float parts of basis j; no warning comes first
    family = FAMILIES[4]
    bases = list(family.bases)
    for j, change in changes.items():
        parts = bases[j].parts.astype(float)
        change(parts)
        bases[j] = LineSet.from_parts(parts)
    bad = MubFamily(4, tuple(bases), family.source_rds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as brute:
            brute_force_c1_search(bad)
        with pytest.raises(ValueError) as searched:
            c1_search(bad)
    assert (type(searched.value), str(searched.value)) == (type(brute.value), str(brute.value))
    assert (type(searched.value), str(searched.value)) == error


def test_c1_search_memory_does_not_grow_with_the_survivors():
    # 9,440 hits at a wide tolerance; certifying them in one untiled stack
    # peaks near 220 MB, in tiles of 2^16 Gram entries near 13 MB
    family = FAMILIES[4]
    tracemalloc.start()
    try:
        hits = c1_search(family, 1024, tol=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hits) == 9440
    assert peak < 32 * 2**20


def loop_spreads(x, y, values):
    """spreads[i, p, q]: the range of the normalized magnitudes of the cross
    block of bases x and y (x[a, l]: entry l of vector a) once column p of x
    and column q of y are multiplied by values[i], one block at a time; NaN
    where a vector has norm 0."""
    d = len(x)
    spreads = np.empty((len(values), d, d))
    for i, v in enumerate(values):
        for p in range(d):
            for q in range(d):
                xs, ys = x.copy(), y.copy()
                xs[:, p] *= v
                ys[:, q] *= v
                norms = np.outer(np.linalg.norm(xs, axis=1), np.linalg.norm(ys, axis=1))
                with np.errstate(divide="ignore", invalid="ignore"):
                    cos = np.abs(xs @ ys.conj().T) / norms
                spreads[i, p, q] = cos.max() - cos.min()  # NaN if one is
    return spreads


def off_diagonal(masks):
    """The masks[p][q] with p != q, the only ones c1_search reads: a
    permutation scales a different column in each basis."""
    return [[mask for q, mask in enumerate(row) if q != p] for p, row in enumerate(masks)]


def masks_of(spreads, bound):
    """off_diagonal of masks[p][q], bit i set unless spreads[i, p, q] >
    bound: a NaN keeps its bit."""
    keep = ~(spreads > bound)
    return off_diagonal([[sum(1 << i for i in np.flatnonzero(keep[:, p, q]).tolist())
                          for q in range(keep.shape[2])] for p in range(keep.shape[1])])


def squared_norms(x):
    return (np.abs(x) ** 2).sum(axis=1)


def pair_masks(x, y, values, bound):
    """The masks of the one basis pair (x, y): the one-pair case of
    _level_masks."""
    return _level_masks(x[None], y, squared_norms(x)[None], squared_norms(y), values, bound)[0]


# the chunk fixture sets framecore._CHUNK once for all the examples, and
# no example changes it
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 4), st.integers(1, 10), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-8, 0.05, 0.2, 0.5]), st.booleans())
def test_pair_masks_equal_a_loop_over_candidates_and_columns(chunk, d, count, seed, bound, zero):
    # random orthonormal bases and candidates; with zero, one vector of x
    # has norm 0, so every block reads NaN and keeps every bit
    rng = np.random.default_rng(seed)
    x, y = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            for _ in range(2))
    if zero:
        x[rng.integers(d)] = 0
    values = 2 * (rng.normal(size=count) + 1j * rng.normal(size=count))
    spreads = loop_spreads(x, y, values)
    # the two compute each magnitude in a different order, so a spread
    # within rounding of the bound may fall on either side
    assume(not (np.abs(spreads[:, ~np.eye(d, dtype=bool)] - bound) < 1e-9).any())
    masks = off_diagonal(pair_masks(x, y, values, bound))
    assert masks == masks_of(spreads, bound)
    if zero:
        assert masks == [[(1 << count) - 1] * (d - 1)] * d


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pair_masks_of_a_family_equal_the_loop(d, chunk):
    # the candidates of c1_search at 8 roots on the builtin family, whose
    # spreads are 0 up to rounding wherever a column pair admits v; at d = 5
    # none does, so the search ends at its first basis pair
    x, y = (b.to_matrix() for b in FAMILIES[d].bases[:2])
    values = np.array([cmath.exp(2j * cmath.pi * p / 8) * mag
                       for mag in c1_magnitudes(d) for p in range(8)])
    bound = 10 * DEFAULT_TOL + 1e-12
    spreads = loop_spreads(x, y, values)
    assert not (np.abs(spreads[:, ~np.eye(d, dtype=bool)] - bound) < 1e-9).any()
    masks = off_diagonal(pair_masks(x, y, values, bound))
    assert masks == masks_of(spreads, bound)
    assert any(any(row) for row in masks) == (d < 5)


def unitaries(rng, count, d):
    """count random unitary d x d matrices: orthonormal bases of C^d."""
    return np.array([np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                     for _ in range(count)])


# the chunk fixture sets framecore._CHUNK once for all the examples, and
# no example changes it
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 70), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-8, 0.05, 0.2, 0.5]))
def test_level_masks_equal_each_pairs_own_masks(chunk, d, pairs, count, seed, bound):
    # past 64 candidates each mask spans two words
    rng = np.random.default_rng(seed)
    xs, (y,) = unitaries(rng, pairs, d), unitaries(rng, 1, d)
    values = 2 * (rng.normal(size=count) + 1j * rng.normal(size=count))
    spreads = loop_spreads(xs[-1], y, values)
    assume(not (np.abs(spreads[:, ~np.eye(d, dtype=bool)] - bound) < 1e-9).any())
    level = _level_masks(xs, y, np.array([squared_norms(x) for x in xs]), squared_norms(y),
                         values, bound)
    assert level == [pair_masks(x, y, values, bound) for x in xs]
    assert off_diagonal(level[-1]) == masks_of(spreads, bound)


def test_level_masks_memory_does_not_grow_with_the_pairs():
    # d = 13 takes two candidates per tile; beyond the boolean output (one
    # byte per pair, candidate and column pair), 12 pairs may hold no more
    # than 1 pair does but 64 KiB
    d, count = 13, 70
    rng = np.random.default_rng(13)
    xs, (y,) = unitaries(rng, 12, d), unitaries(rng, 1, d)
    values = 2 * (rng.normal(size=count) + 1j * rng.normal(size=count))
    peaks = {}
    for pairs in (1, 12):
        tracemalloc.start()
        try:
            _level_masks(xs[:pairs], y, np.array([squared_norms(x) for x in xs[:pairs]]),
                         squared_norms(y), values, 1e-8)
            peaks[pairs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[12] - peaks[1] < 11 * count * d * d + 64 * 2**10
