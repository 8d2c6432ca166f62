"""c1_search against the exhaustive loop it replaced, kept here as the
reference: every permutation and every candidate v, each certified by
l_block + gram_analyze."""

import cmath
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublines.abelian import builtin_rds
from mublines.constructions import (
    MubFamily,
    ScalingSpec,
    c1_magnitudes,
    c1_search,
    l_block,
    mubs_from_rds,
)
from mublines.framecore import (
    DEFAULT_TOL,
    Compose,
    CoordPhases,
    CVector,
    LineSet,
    VectorPhases,
    ZeroVectorError,
    apply_equivalence,
    gram_analyze,
)
from mublines.scalars import GAUSSIAN_UNITS, Scalar


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


@pytest.mark.parametrize("phase_roots", [1, 4, 8])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_c1_search_equals_brute_force(d, phase_roots):
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


def test_c1_search_rejects_a_zero_vector():
    family = FAMILIES[3]
    first = family.bases[0]
    zeroed = LineSet(3, (CVector.gauss([(0, 0)] * 3),) + first.vectors[1:])
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


def test_c1_search_and_brute_force_raise_alike_on_a_nan_entry():
    family = FAMILIES[4]
    parts = family.bases[2].parts.astype(float)
    parts[1, 3, 0] = math.nan
    bad = MubFamily(4, family.bases[:2] + (LineSet.from_parts(parts),) + family.bases[3:],
                    family.source_rds)
    with pytest.raises(ValueError) as brute:
        brute_force_c1_search(bad)
    with pytest.raises(ValueError) as searched:
        c1_search(bad)
    assert (type(searched.value), str(searched.value)) == (type(brute.value), str(brute.value))


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
