import cmath
import hashlib
import itertools
import math
import random
import warnings

import numpy as np
import pytest

import fixtures
from mublines.abelian import FiniteAbelianGroup, RelativeDifferenceSet, builtin_rds, rds_from_json
from mublines.constructions import (
    BlockPairSpec,
    BudgetExceeded,
    InvalidRds,
    MubFamily,
    ScalingSpec,
    c1_magnitudes,
    c1_search,
    construction2_family,
    construction3_d4_extension,
    construction3_pair,
    construction3_solve,
    hoggar_tensor_orbit,
    l_block,
    mubs_from_rds,
    theorem46_predicate,
)
from mublines.framecore import (
    DEFAULT_TOL,
    CVector,
    DimensionMismatch,
    LineSet,
    VectorPhases,
    ZeroVectorError,
    apply_equivalence,
    gram_analyze,
    lines_equal,
    verify_mubs,
)
from mublines.scalars import Scalar, max_angle, mub_bound
from mublines.weylheisenberg import wh_generators, zauner_unitary
from reference import godsil_roy_bases, norm2

EIGHT_PERMS = [
    (1, 3, 4, 2), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 3, 1),
    (3, 1, 2, 4), (3, 2, 4, 1), (4, 1, 3, 2), (4, 2, 1, 3),
]


@pytest.fixture(scope="module")
def fam4():
    return mubs_from_rds(builtin_rds(4))


@pytest.fixture(scope="module")
def fam3():
    return mubs_from_rds(builtin_rds(3))


def test_mubs_from_rds_d4_matches_table(fam4):
    for basis, expected_rows in zip(fam4.bases, fixtures.MUB4_TABLE):
        for vec, row in zip(basis.vectors, expected_rows):
            assert vec.exact
            assert [e.to_complex() for e in vec.entries] == row


def test_mubs_from_rds_d3_matches_table(fam3):
    expected = fixtures.mub3_table()
    for basis, rows in zip(fam3.bases, expected):
        for vec, row in zip(basis.vectors, rows):
            assert [e.to_complex() for e in vec.entries] == row


def test_mubs_from_rds_d2_bases(fam4):
    family = mubs_from_rds(builtin_rds(2))
    rows = [[e.to_complex() for e in v.entries] for b in family.bases for v in b.vectors]
    assert rows == [[1, 1], [1, -1], [1, 1j], [1, -1j]]


def test_mubs_from_rds_is_mub_family_for_all_builtins():
    for d in (2, 3, 4, 5, 7):
        family = mubs_from_rds(builtin_rds(d))
        assert verify_mubs(list(family.bases), 1e-9)


def test_mubs_from_rds_rejects_invalid():
    from mublines.abelian import FiniteAbelianGroup, RelativeDifferenceSet

    g = FiniteAbelianGroup((4,))
    bad = RelativeDifferenceSet(
        g, forbidden=(g.element((2,)),), elements=(g.element((0,)), g.element((2,)))
    )
    with pytest.raises(InvalidRds):
        mubs_from_rds(bad)


def test_mubs_from_rds_refuses_a_group_not_of_order_d_squared_before_rds_verify(monkeypatch):
    from mublines import constructions
    from mublines.abelian import FiniteAbelianGroup, RelativeDifferenceSet

    monkeypatch.setattr(constructions, "rds_verify", lambda rds: 1 / 0)
    g = FiniteAbelianGroup((2, 4))
    rds = RelativeDifferenceSet(g, (g.element((0, 2)),), (g.element((0, 0)), g.element((1, 1))))
    with pytest.raises(InvalidRds, match=r"^need a group of order d\^2 = 4 for d = 2 elements, "
                                         r"got order 8$"):
        mubs_from_rds(rds)


def test_l_block_matches_example_table(fam4):
    # symbolic marker constant: any Gaussian integer not among the entries
    marker = Scalar.gauss(7, 3)
    lines = l_block(fam4, ScalingSpec((1, 3, 4, 2), marker))
    expected = fixtures.lblock4_table(complex(7, 3))
    got = [[e.to_complex() for e in v.entries] for v in lines.vectors]
    assert got == expected


def test_l_block_identity_scaling(fam4):
    for perm in [(1, 2, 3, 4), (2, 1, 4, 3)]:
        lines = l_block(fam4, ScalingSpec(perm, Scalar.gauss(1, 0)))
        union = [v for b in fam4.bases for v in b.vectors]
        assert list(lines.vectors) == union


def test_l_block_d3_v0_table(fam3):
    lines = l_block(fam3, ScalingSpec((1, 2, 3), Scalar.gauss(0, 0)))
    w = fixtures.omega3_pow(1)
    w2 = fixtures.omega3_pow(2)
    expected = [
        [0, 1, 1], [0, w, w2], [0, w2, w],
        [1, 0, w], [1, 0, 1], [1, 0, w2],
        [1, 1, 0], [1, w, 0], [1, w2, 0],
    ]
    got = [[e.to_complex() for e in v.entries] for v in lines.vectors]
    assert got == expected
    report = gram_analyze(lines)
    assert report.equiangular
    assert abs(report.norms[0] ** 2 - 2) < 1e-12  # norm^2 = d - 1 at v = 0


def test_l_block_bad_perm(fam4):
    with pytest.raises(ValueError):
        l_block(fam4, ScalingSpec((1, 1, 2, 3), Scalar.gauss(1, 0)))


def test_c1_magnitudes():
    assert c1_magnitudes(4) == [math.sqrt(2 + math.sqrt(5))]
    assert c1_magnitudes(3) == [2.0, 0.0]
    d2 = c1_magnitudes(2)
    assert d2 == pytest.approx([(math.sqrt(6) + math.sqrt(2)) / 2,
                                (math.sqrt(6) - math.sqrt(2)) / 2])
    # squaring recovers 2 +- sqrt(3)
    assert [m * m for m in d2] == pytest.approx([2 + math.sqrt(3), 2 - math.sqrt(3)])


def test_c1_search_d4_census(fam4):
    hits = c1_search(fam4, phase_roots=4)
    assert sorted({spec.perm for spec, _ in hits}) == EIGHT_PERMS
    assert len(hits) == 8 * 4  # every successful perm succeeds at all 4 phases
    for spec, report in hits:
        assert report.equiangular
        assert abs(report.common_angle - 1 / math.sqrt(5)) < 1e-9
        v2 = spec.v.abs2()
        assert abs(v2 - (2 + math.sqrt(5))) < 1e-9


def test_c1_search_d2_all_perms():
    family = mubs_from_rds(builtin_rds(2))
    hits = c1_search(family, phase_roots=4)
    assert sorted({spec.perm for spec, _ in hits}) == [(1, 2), (2, 1)]


def test_c1_search_d3_all_perms(fam3):
    hits = c1_search(fam3, phase_roots=1)
    perms = sorted({spec.perm for spec, _ in hits})
    assert perms == sorted(itertools.permutations((1, 2, 3)))
    # the successes come from the v = 0 branch
    assert all(spec.v.abs2() == pytest.approx(0) for spec, _ in hits)


def householder_family(d):
    """builtin:d with every basis multiplied by the reflection I - 2uu^T/|u|^2,
    u = (1, ..., d): still MUBs, but no longer of unimodular vectors."""
    u = np.arange(1.0, d + 1)
    h = np.eye(d) - 2 * np.outer(u, u) / (u @ u)
    family = mubs_from_rds(builtin_rds(d))
    moved = (basis.to_matrix() @ h for basis in family.bases)
    return MubFamily(d, tuple(LineSet.from_parts(np.stack([m.real, m.imag])) for m in moved),
                     family.source_rds)


@pytest.mark.parametrize("d, phase_roots, tol, survivors, hits", [
    (2, 8, DEFAULT_TOL, 0, 0), (3, 8, DEFAULT_TOL, 0, 0), (4, 8, DEFAULT_TOL, 0, 0),
    (2, 16, 0.2, 64, 0), (3, 16, 0.2, 102, 102), (4, 16, 0.2, 384, 384)])
def test_c1_search_equals_brute_force_on_a_non_unimodular_family(d, phase_roots, tol, survivors,
                                                                  hits, monkeypatch):
    # the pair table leaves the self blocks to the certifier, as they spread
    # by 0 only in bases of unimodular vectors: here it may pass more
    # survivors, but never changes a hit
    import mublines.constructions as constructions
    from test_search import brute_force_c1_search

    certified, certify = [], constructions._float_reports

    def counting(parts, tol):
        certified.append(parts.shape[1])
        return certify(parts, tol)

    monkeypatch.setattr(constructions, "_float_reports", counting)
    family = householder_family(d)
    found = c1_search(family, phase_roots, tol=tol)
    assert (sum(certified), len(found)) == (survivors, hits)
    assert found == brute_force_c1_search(family, phase_roots, tol)


def test_c1_search_budget():
    family = mubs_from_rds(builtin_rds(5))
    with pytest.raises(BudgetExceeded):
        c1_search(family, phase_roots=20, budget=100)


@pytest.mark.parametrize("phase_roots", [0, -3])
def test_c1_search_refuses_a_grid_with_no_roots(fam4, phase_roots):
    with pytest.raises(ValueError, match="phase_roots must be at least 1"):
        c1_search(fam4, phase_roots)


def test_c1_magnitude_lemma_postcheck(fam4, fam3):
    for family, d in ((fam4, 4), (fam3, 3)):
        for spec, _ in c1_search(family, phase_roots=4):
            v2 = spec.v.abs2()
            ok = min(abs(v2 - (2 + math.sqrt(d + 1))),
                     abs(v2 - (2 - math.sqrt(d + 1))))
            assert ok < 1e-9


def test_theorem46_agrees_with_census(fam4):
    successes = {spec.perm for spec, _ in c1_search(fam4, phase_roots=4)}
    for perm in itertools.permutations(range(1, 5)):
        assert theorem46_predicate(fam4, perm) == (perm in successes)


def test_theorem46_examples(fam4):
    assert theorem46_predicate(fam4, (1, 3, 4, 2))
    assert not theorem46_predicate(fam4, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        theorem46_predicate(mubs_from_rds(builtin_rds(3)), (1, 2, 3))


def test_c1_golden_d4_equals_published_lines(fam4):
    v = Scalar.from_complex(complex(fixtures.sqrt_2_plus_sqrt5()))
    lines = l_block(fam4, ScalingSpec((1, 3, 4, 2), v))
    report = gram_analyze(lines)
    assert report.equiangular
    assert lines_equal(lines, fixtures.sixteen_lines_d4(), 1e-8)


# --- Construction 2 ---------------------------------------------------------


def test_construction2_equiangular_over_parameter_range():
    for a in (0.0, 1.0, -1.0, 0.37, 1000.0):
        report = gram_analyze(construction2_family(a))
        assert report.size == 64
        assert report.equiangular
        assert abs(report.common_angle - 1 / 3) < 1e-9
        assert all(abs(n * n - 6) < 1e-9 for n in report.norms)


def test_construction2_random_parameters():
    rng = random.Random(2024)
    for _ in range(50):
        a = rng.uniform(-1000, 1000)
        report = gram_analyze(construction2_family(a))
        assert report.equiangular
        assert abs(report.common_angle - 1 / 3) < 1e-9


def test_construction2_a0_block_structure():
    lines = construction2_family(0.0)
    mat = lines.to_matrix()
    c = complex(-1, 1)
    b4 = [np.array(rows, dtype=complex) for rows in fixtures.MUB4_TABLE]
    for j in range(4):
        block = mat[16 * j:16 * (j + 1)]
        col = np.zeros((4, 4), dtype=complex)
        col[:, j] = c
        expected = np.vstack([
            np.hstack([b4[j], col]),        # [B_j  C_j]
            np.hstack([b4[j], -col]),       # [B_j -C_j]
            np.hstack([-col, b4[j]]),       # [-C_j  B_j]
            np.hstack([col, b4[j]]),        # [ C_j  B_j]
        ])
        assert np.max(np.abs(block - expected)) < 1e-12


def test_construction2_limit_entry_magnitude():
    lines = construction2_family(1e9)
    entry = lines.to_matrix()[0, 4]  # C_1(a) entry of the first vector
    assert abs(entry - complex(1, 1)) < 1e-6
    assert abs(abs(entry) - math.sqrt(2)) < 1e-12


@pytest.mark.parametrize("a", [1e200, -1e300, 1.4e154])
def test_construction2_is_equiangular_where_1_plus_a_squared_overflows(a):
    # sqrt(1 + a * a) is inf here, which once made C_j(a) and D_j(a) zero
    report = gram_analyze(construction2_family(a))
    assert report.equiangular
    assert abs(report.common_angle - 1 / 3) < 1e-9
    assert construction2_family(a).to_matrix()[0, 4] == complex(1, 1) * math.copysign(1, a)


def test_construction2_parts_keep_their_bytes():
    # the sha256 of the parts over these a, as the loop over the bases'
    # matrices built them, signed zeros and the overflow rule included
    digest = hashlib.sha256()
    for a in (0.0, -0.0, 1.0, -1.0, 0.37, -3.0, 1e9, 1e200, -1e300):
        digest.update(construction2_family(a).parts.tobytes())
    assert digest.hexdigest() == "8d0cf5e9caef5277bede6e4c71f5db8b52e76cc63e73b6606208d32d3e57a82a"


def test_hoggar_orbit():
    lines = hoggar_tensor_orbit()
    assert len(lines) == 64
    x = lines.vectors[0].to_array()
    seed = np.array([0, 0, (1 + 1j) / math.sqrt(2), (1 - 1j) / math.sqrt(2),
                     (1 + 1j) / math.sqrt(2), -(1 + 1j) / math.sqrt(2), 0,
                     math.sqrt(2)])
    assert np.max(np.abs(x - seed)) == 0.0
    assert abs(norm2(lines.vectors[0]) - 6) < 1e-12
    report = gram_analyze(lines)
    assert report.equiangular
    assert abs(report.common_angle - 1 / 3) < 1e-9
    # 64 distinct lines: no two proportional
    mat = lines.to_matrix()
    overlap = np.abs(mat @ mat.conj().T) / 6.0
    np.fill_diagonal(overlap, 0.0)
    assert np.max(overlap) < 0.999


# --- Construction 3 ---------------------------------------------------------


def test_construction3_pair_matches_example_table(fam4):
    spec = BlockPairSpec((1, 3, 4, 2), 0.25, 0.5)
    lines = construction3_pair(fam4, spec)
    v = complex(0.25, 0.5)
    vp = 2 - v
    left = fixtures.lblock4_table(v)
    right = fixtures.lblock4_table(vp)
    expected = [l + r for l, r in zip(left, right)]
    got = [[e.to_complex() for e in vec.entries] for vec in lines.vectors]
    assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-15


def test_construction3_pair_on_circle_d4(fam4):
    report = gram_analyze(construction3_pair(fam4, BlockPairSpec((1, 3, 4, 2), 0.0, 1.0)))
    assert report.equiangular
    assert all(abs(n * n - 12) < 1e-9 for n in report.norms)
    # unnormalized magnitude 4 = 2*sqrt(d)
    assert abs(report.common_angle * 12 - 4) < 1e-9


def test_construction3_pair_doubled_mub_union(fam4):
    report = gram_analyze(construction3_pair(fam4, BlockPairSpec((1, 3, 4, 2), 1.0, 0.0)))
    assert not report.equiangular
    mags = sorted(a * report.norms[0] ** 2 for a, _ in report.angle_clusters)
    assert mags == pytest.approx([0.0, 4.0], abs=1e-9)


def test_construction3_dichotomy_off_circle():
    rng = random.Random(99)
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
                construction3_pair(family, BlockPairSpec(perm, a, b)), 1e-9
            )
            n2 = report.norms[0] ** 2
            mags = sorted(angle * n2 for angle, _ in report.angle_clusters)
            assert len(mags) == 2
            assert mags == pytest.approx(sorted([same, target]), abs=1e-8)


def test_construction3_solve_points_lie_on_circle(c3_circle):
    for d in (2, 3, 4, 5):
        for a, b in c3_circle(d, 5):
            assert abs(b * b + (a - 1) ** 2 - math.sqrt(d)) < 1e-12


def test_construction3_solve_d4_canonical_points(fam4):
    points = construction3_solve(4)
    assert points[0] == pytest.approx((1.0, math.sqrt(2)))
    assert points[1] == pytest.approx((1.0 - math.sqrt(2), 0.0))
    # (0, 1) also lies on the d=4 circle and yields equiangular lines
    for a, b in [(0.0, 1.0)] + points:
        report = gram_analyze(construction3_pair(fam4, BlockPairSpec((1, 3, 4, 2), a, b)))
        assert report.equiangular
        assert abs(report.common_angle - 1 / 3) < 1e-9


def test_construction3_on_circle_angle_all_dims(c3_circle):
    for d in (2, 3, 5):
        family = mubs_from_rds(builtin_rds(d))
        perm = tuple(range(1, d + 1))
        for a, b in c3_circle(d, 3):
            report = gram_analyze(construction3_pair(family, BlockPairSpec(perm, a, b)))
            assert report.equiangular
            assert abs(report.common_angle - 1 / (1 + math.sqrt(d))) < 1e-9
            assert len(report.angle_clusters) == 1
            assert report.size == d * d


def test_construction3_d4_extension_matches_published_table():
    lines = construction3_d4_extension()
    expected = fixtures.lines64_d8()
    assert lines.exact
    assert len(lines) == 64
    for got, want in zip(lines.vectors, expected.vectors):
        assert got.entries == want.entries


def test_construction3_d4_extension_almost_flat():
    for v in construction3_d4_extension().vectors:
        mags = sorted(e.abs2() for e in v.entries)
        assert mags == [1] * 7 + [5]


def test_construction3_i_twist_variant(fam4):
    # the i-twist of (a, b) = (2, 1) reproduces the extension's lower-left block
    lines = construction3_pair(
        fam4, BlockPairSpec((1, 3, 4, 2), 2.0, 1.0, variant="i-twist")
    )
    expected = fixtures.lines64_d8().vectors[16:32]
    got = lines.to_matrix()
    want = np.array([[e.to_complex() for e in v.entries] for v in expected])
    assert np.max(np.abs(got - want)) < 1e-12


def test_construction3_pair_where_only_one_constant_is_integral(fam4):
    # a = -(2^52 - 1/2) is not an integer, but 2 - a rounds to one
    for variant in ("default", "i-twist"):
        lines = construction3_pair(fam4, BlockPairSpec((1, 3, 4, 2), -(2**52 - 0.5), 0.0, variant))
        assert not lines.exact and np.isfinite(lines.parts).all()


def test_theorem46_on_a_float_family_matches_the_exact_one(fam4):
    floated = MubFamily(4, tuple(LineSet.from_parts(b.parts.astype(float)) for b in fam4.bases),
                        fam4.source_rds)
    perms = list(itertools.permutations((1, 2, 3, 4)))
    exact = [p for p in perms if theorem46_predicate(fam4, p)]
    assert exact == sorted(EIGHT_PERMS)
    assert [p for p in perms if theorem46_predicate(floated, p)] == exact


def test_a_theorem46_sweep_takes_one_gram_per_family(fam4, monkeypatch):
    import mublines.constructions as constructions

    calls, self_grams = [], constructions._self_grams

    def counting(stack):  # the lines of each set of the stack, as _self_grams reads it
        calls.append([stack.shape[-2]] * stack.shape[-3])
        return self_grams(stack)

    monkeypatch.setattr(constructions, "_self_grams", counting)
    floated = tuple(LineSet.from_parts(b.parts.astype(float)) for b in fam4.bases)
    perms = list(itertools.permutations((1, 2, 3, 4)))
    for bases in (fam4.bases, floated, floated[:2] + fam4.bases[2:]):
        family = MubFamily(4, bases, fam4.source_rds)  # a new family: nothing cached
        calls.clear()
        assert [p for p in perms if theorem46_predicate(family, p)] == sorted(EIGHT_PERMS)
        assert calls == [[64]]


def test_theorem46_raises_for_every_permutation_when_a_zeroed_basis_has_a_zero_line(
        fam4, monkeypatch):
    import mublines.constructions as constructions

    calls, self_grams = [], constructions._self_grams

    def counting(stack):  # the lines of each set of the stack, as _self_grams reads it
        calls.append([stack.shape[-2]] * stack.shape[-3])
        return self_grams(stack)

    monkeypatch.setattr(constructions, "_self_grams", counting)
    # vector 0 of basis 1 becomes e_3, so the table's copy that zeroes
    # column 3 holds a zero line and its Gram raises
    parts = fam4.bases[0].parts.copy()
    parts[:, 0] = 0
    parts[0, 0, 2] = 1
    family = MubFamily(4, (LineSet.from_parts(parts),) + fam4.bases[1:], fam4.source_rds)
    for perm in itertools.permutations((1, 2, 3, 4)):
        with pytest.raises(ZeroVectorError) as exc:
            theorem46_predicate(family, perm)
        assert type(exc.value) is ZeroVectorError
        assert str(exc.value) == "line sets may not contain the zero vector"
    assert calls == [[64]]  # the table's Gram alone, taken once: the family keeps its failure
    assert type(vars(family)["_theorem46_table"]) is ZeroVectorError


def test_theorem46_on_a_non_finite_family_raises_every_time_and_keeps_the_failure(fam4):
    parts = fam4.bases[2].parts.astype(float)
    parts[1, 3, 0] = math.nan
    family = MubFamily(4, fam4.bases[:2] + (LineSet.from_parts(parts),) + fam4.bases[3:],
                       fam4.source_rds)
    for perm in itertools.permutations((1, 2, 3, 4)):
        with pytest.raises(ValueError) as exc:
            theorem46_predicate(family, perm)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "line set has a non-finite entry"
    kept = vars(family)["_theorem46_table"]
    assert type(kept) is ValueError and str(kept) == "line set has a non-finite entry"


def test_hoggar_orbit_is_bit_identical_to_the_kron_loop():
    from mublines.constructions import _HOGGAR_SEED

    # I, Z, X and ZX, the dimension-2 Weyl-Heisenberg coset representatives
    paulis = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]],
                      dtype=complex)
    mat = np.array([np.kron(a, np.kron(b, c)) @ _HOGGAR_SEED
                    for a, b, c in itertools.product(paulis, repeat=3)])
    want = np.stack([mat.real, mat.imag])
    got = hoggar_tensor_orbit().parts
    assert got.shape == want.shape == (2, 64, 8)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_float_basis_floats_every_block(fam4):
    floated = [LineSet.from_parts(b.parts.astype(float)) for b in fam4.bases]
    mixed = MubFamily(4, (fam4.bases[0], floated[1]) + fam4.bases[2:], fam4.source_rds)
    all_float = MubFamily(4, tuple(floated), fam4.source_rds)
    for v in (Scalar.gauss(2, 1), Scalar.gauss(0, 0), Scalar.from_complex(1.5 + 0.5j)):
        got, want = (l_block(f, ScalingSpec((1, 3, 4, 2), v)) for f in (mixed, all_float))
        assert got.parts.dtype == want.parts.dtype == float
        assert got.parts.tobytes() == want.parts.tobytes()
    got, want = (construction3_pair(f, BlockPairSpec((1, 3, 4, 2), 2, 1))
                 for f in (mixed, all_float))
    assert got.parts.tobytes() == want.parts.tobytes()
    for perm in ((1, 3, 4, 2), (1, 2, 3, 4)):
        assert theorem46_predicate(mixed, perm) == theorem46_predicate(all_float, perm)


def _rds(orders, forbidden, elements):
    group = FiniteAbelianGroup(orders)
    return RelativeDifferenceSet(group, tuple(map(group.element, forbidden)),
                                 tuple(map(group.element, elements)))


#: (d, d, d, 1)-RDSs whose forbidden subgroups have other generating sets
#: than the builtins' own: another pair, a redundant triple, a generator
#: that is not a factor's canonical one, and a repeated one
OTHER_RDS = {
    "z4xz4-n-22-02": ((4, 4), [(2, 2), (0, 2)], [(0, 0), (1, 0), (0, 1), (3, 3)]),
    "z4xz4-n-20-02-22": ((4, 4), [(2, 0), (0, 2), (2, 2)], [(0, 0), (1, 0), (0, 1), (3, 3)]),
    "z3xz3-n-20": ((3, 3), [(2, 0)], [(0, 0), (0, 1), (1, 2)]),
    "z5xz5-n-03": ((5, 5), [(0, 3)], [(x, x * x % 5) for x in range(5)]),
    "z7xz7-n-30": ((7, 7), [(3, 0)], [(x * x % 7, x) for x in range(7)]),
    "z4-n-2-2": ((4,), [(2,), (2,)], [(0,), (1,)]),
}


@pytest.mark.parametrize("rds", [
    *(pytest.param(builtin_rds(d), id=str(d))
      for d in [2, 3, 4, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    *(pytest.param(_rds(*spec), id=name) for name, spec in OTHER_RDS.items()),
])
def test_mubs_from_rds_entries_equal_char_eval(rds):
    family = mubs_from_rds(rds)
    reference = godsil_roy_bases(rds)
    d = len(rds.elements)
    assert len(family.bases) == len(reference) == d
    for basis, ref_basis in zip(family.bases, reference):
        assert len(basis.vectors) == len(ref_basis) == d
        # exactness belongs to the whole basis: exact iff every value is
        assert basis.exact == all(e.exact for ref_vec in ref_basis for e in ref_vec)
        for vec, ref_vec in zip(basis.vectors, ref_basis):
            assert [e.to_complex() for e in vec.entries] == [e.to_complex() for e in ref_vec]


#: a bool is not a column, and numpy refuses a float index even when integral
NOT_INDICES = [(True, 3, 4, 2), (1.0, 3.0, 4.0, 2.0)]


@pytest.mark.parametrize("perm", NOT_INDICES)
def test_l_block_refuses_a_permutation_of_non_indices(fam4, perm):
    with pytest.raises(ValueError, match="perm must be a permutation of 1..4"):
        l_block(fam4, ScalingSpec(perm, Scalar.gauss(2, 1)))


@pytest.mark.parametrize("perm", NOT_INDICES)
def test_construction3_pair_refuses_a_permutation_of_non_indices(fam4, perm):
    with pytest.raises(ValueError, match="perm must be a permutation of 1..4"):
        construction3_pair(fam4, BlockPairSpec(perm, 2, 1))


@pytest.mark.parametrize("perm", NOT_INDICES)
def test_theorem46_refuses_a_permutation_of_non_indices(fam4, perm):
    with pytest.raises(ValueError, match="perm must be a permutation of 1..4"):
        theorem46_predicate(fam4, perm)


#: the four entry points that index a family by its shape, each on a
#: family claimed to live in C^4
FAMILY_ENTRIES = {
    "l_block": lambda f: l_block(f, ScalingSpec((1, 3, 4, 2), Scalar.gauss(2, 1))),
    "construction3_pair": lambda f: construction3_pair(f, BlockPairSpec((1, 3, 4, 2), 2, 1)),
    "c1_search": lambda f: c1_search(f),
    "theorem46_predicate": lambda f: theorem46_predicate(f, (1, 3, 4, 2)),
}


@pytest.mark.parametrize("entry", FAMILY_ENTRIES)
@pytest.mark.parametrize("shape, error, message", [
    ("3 bases", ValueError, "exactly 4 bases"), ("5 bases", ValueError, "exactly 4 bases"),
    ("bases in C^3", DimensionMismatch, r"a basis in C\^3"),
    ("a basis of 3 vectors", ValueError, "exactly 4 vectors")])
def test_a_family_of_the_wrong_shape_is_refused(fam4, fam3, entry, shape, error, message):
    short = LineSet.from_parts(fam4.bases[1].parts[:, :3])
    bases = {"3 bases": fam4.bases[:3], "5 bases": fam4.bases + fam4.bases[:1],
             "bases in C^3": fam3.bases + fam3.bases[:1],
             "a basis of 3 vectors": fam4.bases[:1] + (short,) + fam4.bases[2:]}[shape]
    with pytest.raises(error, match=message):
        FAMILY_ENTRIES[entry](MubFamily(4, bases, fam4.source_rds))


@pytest.fixture(scope="module")
def huge4(fam4):
    """builtin:4 with its second basis scaled by 10^400: an exact family of
    MUBs whose parts are past float64."""
    bases = list(fam4.bases)
    bases[1] = LineSet.from_parts(bases[1].parts.astype(object) * 10**400)
    return MubFamily(4, tuple(bases), fam4.source_rds)


def test_an_exact_family_past_float64_is_read_exactly(huge4):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_mubs(list(huge4.bases))
        assert not any(theorem46_predicate(huge4, perm)
                       for perm in itertools.permutations((1, 2, 3, 4)))
        block = l_block(huge4, ScalingSpec((1, 3, 4, 2), Scalar.gauss(1, 1)))
        pair = construction3_pair(huge4, BlockPairSpec((1, 3, 4, 2), 2, 1))
    rows = huge4.bases[1].parts.copy()  # basis 2, its column pi(2) = 3 scaled by 1 + i
    re, im = rows[:, :, 2]
    rows[0, :, 2], rows[1, :, 2] = re - im, re + im
    assert block.exact and np.array_equal(block.parts[:, 4:8], rows)
    assert pair.exact and pair.parts.dtype == object


#: every float conversion of the parts of huge4, each of which refuses them
FLOAT_PATHS = {
    "to_matrix": lambda fam: fam.bases[1].to_matrix(),
    "to_array": lambda fam: fam.bases[1].vectors[0].to_array(),
    "lines_equal": lambda fam: lines_equal(fam.bases[1], fam.bases[1]),
    "apply_equivalence": lambda fam: apply_equivalence(
        fam.bases[1], VectorPhases([Scalar.from_complex(cmath.exp(0.3j))] * 4)),
    "mixed-stack": lambda fam: verify_mubs(
        [LineSet.from_parts(fam.bases[0].parts.astype(float)), *fam.bases[1:]]),
    "c1_search": lambda fam: c1_search(fam),
    "l_block": lambda fam: l_block(fam, ScalingSpec((1, 3, 4, 2), Scalar.from_complex(0.5))),
    "construction3_pair": lambda fam: construction3_pair(
        fam, BlockPairSpec((1, 3, 4, 2), 0.5, 1.0)),
    # a float set or vector floats its exact rows and entries
    "mixed-lineset": lambda fam: LineSet(
        2, [CVector.make([10**400, 0]), CVector.make([0, 1.0])]),
    "mixed-cvector": lambda fam: CVector((Scalar.gauss(10**400), Scalar.from_complex(0.5))),
}


@pytest.mark.parametrize("path", FLOAT_PATHS)
def test_a_float_path_refuses_an_exact_family_past_float64(huge4, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            FLOAT_PATHS[path](huge4)
    assert exc.type is ValueError and str(exc.value) == "line set has a norm beyond float64"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda fam: construction3_pair(fam, BlockPairSpec((1, 2, 3, 4), 1.0, 0.0, "twist")),
                 ValueError, "unknown variant 'twist'", id="c3-variant"),
    pytest.param(lambda fam: mubs_from_rds(rds_from_json(
        {"orders": [1], "forbidden": [], "elements": [[0]]})),
                 InvalidRds, "need a (d,d,d,1)-RDS, got (1, 1, 1, 0)", id="d1-rds"),
])
def test_a_refusal_names_its_rule(fam4, call, error, message):
    with pytest.raises(error) as exc:
        call(fam4)
    assert exc.type is error and str(exc.value) == message


def test_mubs_from_rds_refuses_a_family_that_fails_its_check(monkeypatch):
    import mublines.constructions as constructions

    monkeypatch.setattr(constructions, "verify_mubs", lambda bases, tol=DEFAULT_TOL: False)
    with pytest.raises(InvalidRds) as exc:
        mubs_from_rds(builtin_rds(3))
    assert exc.type is InvalidRds and str(exc.value) == "constructed bases failed the MUB check"


@pytest.mark.parametrize("func", [max_angle, mub_bound, c1_magnitudes, construction3_solve,
                                  wh_generators, zauner_unitary],
                         ids=lambda f: f.__name__)
def test_a_dimension_below_2_is_refused(func):
    with pytest.raises(ValueError) as exc:
        func(1)
    assert exc.type is ValueError and str(exc.value) == "dimension must be >= 2"
