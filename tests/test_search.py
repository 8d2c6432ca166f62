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
