"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package and prints a single
PASS/FAIL line naming it.  Run with `pytest -v -s tests/test_acceptance.py`
to see the lines as they happen; under default capture they appear in the
captured output of any failing test.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

import fixtures
from mublines.abelian import builtin_rds
from mublines.constructions import (
    BlockPairSpec,
    ScalingSpec,
    c1_search,
    construction2_family,
    construction3_d4_extension,
    construction3_pair,
    hoggar_tensor_orbit,
    l_block,
    mubs_from_rds,
    theorem46_predicate,
)
from mublines.framecore import (
    gram_analyze,
    lines_equal,
    special_bound_f,
    verify_mubs,
)
from mublines.scalars import Scalar
from mublines.weylheisenberg import (
    fiducial_d4,
    normalizer_check,
    wh_orbit,
    zauner_unitary,
)
from reference import inner, norm2

GOOD_PERMS_D4 = {
    (1, 3, 4, 2), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 3, 1),
    (3, 1, 2, 4), (3, 2, 4, 1), (4, 1, 3, 2), (4, 2, 1, 3),
}


def conclude(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_01_rds_to_mubs():
    ok = True
    for d in (2, 3, 4, 5, 7):
        family = mubs_from_rds(builtin_rds(d))
        ok = ok and len(family.bases) == d
        ok = ok and verify_mubs(list(family.bases), 1e-9)
    fam4 = mubs_from_rds(builtin_rds(4))
    for basis, table in zip(fam4.bases, fixtures.MUB4_TABLE):
        for vec, row in zip(basis.vectors, table):
            ok = ok and [s.to_complex() for s in vec.entries] == row
    fam3 = mubs_from_rds(builtin_rds(3))
    for basis, table in zip(fam3.bases, fixtures.mub3_table()):
        for vec, row in zip(basis.vectors, table):
            ok = ok and [s.to_complex() for s in vec.entries] == row
    conclude("full MUB families from difference sets, exact d=3/d=4 tables", ok)


def test_02_single_entry_scaling_golden_sets():
    golden = [
        (2, (1, 2), (math.sqrt(6) + math.sqrt(2)) / 2),
        (3, (1, 2, 3), 0.0),
        (4, (1, 3, 4, 2), math.sqrt(2 + math.sqrt(5))),
    ]
    ok = True
    for d, perm, v in golden:
        family = mubs_from_rds(builtin_rds(d))
        lines = l_block(family, ScalingSpec(perm, Scalar.from_complex(v)))
        report = gram_analyze(lines, 1e-9)
        ok = ok and len(lines) == d * d
        ok = ok and report.equiangular
        ok = ok and abs(report.common_angle - 1 / math.sqrt(d + 1)) < 1e-9
    fam4 = mubs_from_rds(builtin_rds(4))
    v4 = Scalar.from_complex(math.sqrt(2 + math.sqrt(5)))
    lines4 = l_block(fam4, ScalingSpec((1, 3, 4, 2), v4))
    ok = ok and lines_equal(lines4, fixtures.sixteen_lines_d4(), 1e-8)
    conclude("maximal line sets from single-entry scaling at d=2,3,4", ok)


def test_03_permutation_census_d4():
    start = time.monotonic()
    family = mubs_from_rds(builtin_rds(4))
    hits = c1_search(family, phase_roots=4)
    found = {spec.perm for spec, _ in hits}
    ok = found == GOOD_PERMS_D4
    for perm in itertools.permutations((1, 2, 3, 4)):
        ok = ok and theorem46_predicate(family, perm) == (perm in GOOD_PERMS_D4)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    conclude(
        f"d=4 census finds exactly 8 working permutations in {elapsed:.2f}s", ok
    )


def test_04_scaling_magnitude_lemma():
    ok = True
    for d in (2, 3, 4):
        family = mubs_from_rds(builtin_rds(d))
        root = math.sqrt(d + 1)
        for spec, _ in c1_search(family, phase_roots=4):
            m2 = abs(spec.v.to_complex()) ** 2
            ok = ok and min(abs(m2 - (2 + root)), abs(m2 - (2 - root))) < 1e-9
    conclude("every census hit satisfies |v|^2 = 2 +- sqrt(d+1)", ok)


def test_05_one_parameter_64_line_family():
    ok = True
    for a in (0.0, 1.0, -1.0, 0.37, 1e3):
        report = gram_analyze(construction2_family(a), 1e-9)
        ok = ok and report.size == 64 and report.equiangular
        ok = ok and abs(report.common_angle - 1 / 3) < 1e-9
    # at a = 0 the second half-blocks are the negated first half-blocks
    # with coordinates swapped: rows read [B C], [B -C], [-C B], [C B]
    mat = construction2_family(0.0).to_matrix()
    for j in range(4):
        b0, b1, b2, b3 = (mat[16 * j + 4 * t: 16 * j + 4 * t + 4] for t in range(4))
        ok = ok and np.max(np.abs(b1 - np.hstack([b0[:, :4], -b0[:, 4:]]))) < 1e-12
        ok = ok and np.max(np.abs(b2 - np.hstack([-b0[:, 4:], b0[:, :4]]))) < 1e-12
        ok = ok and np.max(np.abs(b3 + b2)) < 1e-12 or np.max(
            np.abs(b3 - np.hstack([b0[:, 4:], b0[:, :4]]))
        ) < 1e-12
    hog = gram_analyze(hoggar_tensor_orbit(), 1e-9)
    ok = ok and hog.size == 64 and hog.equiangular
    ok = ok and abs(hog.common_angle - 1 / 3) < 1e-9
    conclude("one-parameter family of 64 lines in C^8, plus tensor orbit", ok)


def test_06_block_pair_dichotomy(c3_circle):
    rng = random.Random(2026)
    ok = True
    for d in (2, 3, 4, 5):
        family = mubs_from_rds(builtin_rds(d))
        perm = tuple(range(1, d + 1))
        target = 2 * math.sqrt(d)
        for _ in range(25):
            while True:
                a = rng.uniform(-2, 3)
                b = rng.uniform(-2, 2)
                same = 2 * (b * b + (a - 1) ** 2)
                if abs(same - target) > 0.1:
                    break
            report = gram_analyze(
                construction3_pair(family, BlockPairSpec(perm, a, b)), 1e-8
            )
            n2 = report.norms[0] ** 2
            mags = sorted(angle * n2 for angle, _ in report.angle_clusters)
            ok = ok and len(mags) == 2
            ok = ok and abs(mags[0] - min(same, target)) < 1e-8
            ok = ok and abs(mags[1] - max(same, target)) < 1e-8
        for a, b in c3_circle(d, 3):
            report = gram_analyze(
                construction3_pair(family, BlockPairSpec(perm, a, b)), 1e-8
            )
            ok = ok and report.size == d * d and report.equiangular
            ok = ok and abs(report.common_angle - 1 / (1 + math.sqrt(d))) < 1e-8
    conclude("block-pair inner products collapse to exactly two magnitudes", ok)


def test_07_exact_64_line_certificate():
    lines = construction3_d4_extension()
    expected = fixtures.lines64_d8()
    ok = lines.exact and len(lines) == 64
    for got, want in zip(lines.vectors, expected.vectors):
        ok = ok and got.entries == want.entries
    for v in lines.vectors:
        n2 = norm2(v)
        ok = ok and isinstance(n2, int) and n2 == 12
    pair_count = 0
    for j in range(64):
        for k in range(j + 1, 64):
            value = inner(lines.vectors[j], lines.vectors[k])
            ok = ok and value.exact and value.abs2() == 16
            pair_count += 1
    ok = ok and pair_count == 2016
    conclude("64 lines in C^8 certified over the Gaussian integers", ok)


def test_08_order_three_symmetry_unitary():
    ok = True
    for d in range(2, 17):
        z = zauner_unitary(d)
        ok = ok and np.max(np.abs(z @ z.conj().T - np.eye(d))) < 1e-9
        ok = ok and np.max(np.abs(np.linalg.matrix_power(z, 3) - np.eye(d))) < 1e-9
        ok = ok and normalizer_check(d)
    ok = ok and np.max(np.abs(zauner_unitary(4) - fixtures.ZAUNER4_TABLE)) < 1e-12
    conclude("symmetry unitary: unitary, order 3, normalizes the group", ok)


def test_09_group_orbit_of_fiducial():
    f = fiducial_d4()
    x = f.vector.to_array()
    ok = np.max(np.abs(zauner_unitary(4) @ x - x)) < 1e-9
    report = gram_analyze(wh_orbit(f), 1e-8)
    ok = ok and report.size == 16 and report.equiangular
    ok = ok and abs(report.common_angle - 1 / math.sqrt(5)) < 1e-8
    conclude("fiducial orbit gives 16 equiangular lines at 1/sqrt(5)", ok)


def test_10_line_count_bound():
    ok = special_bound_f(4) == 64.0
    d = np.arange(1, 10_001, dtype=float)
    f = np.array([special_bound_f(x) for x in d])
    ok = ok and bool(np.all(2 * d * d < f))
    ok = ok and bool(np.all(f <= 4 * d * d + 1e-7))
    ok = ok and list(d[np.abs(f - 4 * d * d) < 1e-7]) == [4.0]
    ok = ok and special_bound_f(10 ** 6) / (2 * 10 ** 12) < 1.01
    conclude("line-count bound: equals 4d^2 only at d=4, ~2d^2 for large d", ok)
