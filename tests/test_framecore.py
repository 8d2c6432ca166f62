import cmath
import errno
import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import fixtures
from mublines import framecore
from mublines.framecore import (
    DEFAULT_TOL,
    Compose,
    CoordPhases,
    CVector,
    DimensionMismatch,
    EntryPermutation,
    LineSet,
    NonUnitPhase,
    VectorPhases,
    ZeroVectorError,
    apply_equivalence,
    dump_json,
    gram_analyze,
    lines_equal,
    lineset_from_json,
    lineset_to_json,
    max_angle,
    mub_bound,
    special_bound_f,
    verify_mubs,
)
from mublines.scalars import Scalar, _indices, _ints
from reference import gauss_vector, inner


def basis_lineset(rows):
    return LineSet(len(rows[0]), tuple(CVector.make(r) for r in rows))


def test_inner_all_ones():
    x = CVector.make([1, 1, 1, 1])
    assert inner(x, x).to_complex() == 4


def test_inner_orthogonal_basis_rows():
    x = CVector.make([1, 1, 1, 1])
    y = CVector.make([1, 1, -1, -1])
    assert inner(x, y).to_complex() == 0


def test_inner_exact_d8_rows():
    x = gauss_vector([(2, 1), (1, 0), (1, 0), (1, 0), (0, -1), (1, 0), (1, 0), (1, 0)])
    y = gauss_vector([(1, 0), (1, 0), (-1, 2), (0, -1), (1, 0), (1, 0), (1, 0), (0, -1)])
    value = inner(x, y)
    assert value.exact
    assert value.abs2() == 16


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(CVector.make([1, 0]), CVector.make([1, 0, 0]))


def test_gram_analyze_sixteen_lines():
    report = gram_analyze(fixtures.sixteen_lines_d4())
    assert report.equiangular
    assert abs(report.common_angle - 1 / math.sqrt(5)) < 1e-9
    assert report.angle_clusters[0][1] == 16 * 15 // 2


def test_gram_analyze_orthogonal_basis():
    report = gram_analyze(basis_lineset(np.eye(3).tolist()))
    assert report.equiangular
    assert report.common_angle == 0.0


def test_gram_analyze_exact_64():
    report = gram_analyze(fixtures.lines64_d8())
    assert report.exact
    assert report.equiangular
    assert abs(report.common_angle - 1 / 3) < 1e-15
    assert all(abs(n * n - 12) < 1e-12 for n in report.norms)


def test_gram_analyze_rejects_zero_vector():
    lines = LineSet(2, (CVector.make([1, 0]), CVector.make([0, 0])))
    with pytest.raises(ZeroVectorError):
        gram_analyze(lines)


def test_gram_cluster_multiplicities_sum():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    report = gram_analyze(basis_lineset(rows.tolist()))
    assert sum(m for _, m in report.angle_clusters) == 7 * 6 // 2


def test_verify_mubs_c2_example():
    b1 = basis_lineset([[1, 0], [0, 1]])
    b2 = basis_lineset([[1, 1], [1, -1]])
    b3 = basis_lineset([[1, 1j], [1, -1j]])
    assert verify_mubs([b1, b2, b3])
    assert not verify_mubs([b1, b1])


def test_verify_mubs_with_standard_basis_d4():
    bases = [basis_lineset(rows) for rows in fixtures.MUB4_TABLE]
    bases.append(basis_lineset(np.eye(4).tolist()))
    assert verify_mubs(bases)  # d+1 = 5 MUBs


def test_verify_mubs_wrong_size():
    b = basis_lineset([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        verify_mubs([b])


def test_max_angle():
    assert abs(max_angle(4) - 1 / math.sqrt(5)) < 1e-15
    assert max_angle(3) == 0.5
    assert abs(max_angle(8) - 1 / 3) < 1e-15


def test_mub_bound():
    assert mub_bound(4) == 5
    assert mub_bound(2) == 3
    assert mub_bound(6) == 7


def test_special_bound_f_values():
    assert special_bound_f(4) == 64.0
    assert abs(special_bound_f(1) - 27 / 7) < 1e-12
    ratio = special_bound_f(10 ** 6) / (2 * 10 ** 12)
    assert 1 < ratio < 1.01


def test_special_bound_f_range_scan():
    d = np.arange(1, 10_001, dtype=float)
    f = np.array([special_bound_f(x) for x in d])
    assert np.all(2 * d * d < f)
    assert np.all(f <= 4 * d * d + 1e-7)
    at_max = d[np.abs(f - 4 * d * d) < 1e-7]
    assert list(at_max) == [4.0]


def random_transform(rng, dim, count):
    kind = rng.randrange(3)
    if kind == 0:
        perm = list(range(dim))
        rng.shuffle(perm)
        return EntryPermutation(tuple(perm))
    phases = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(count if kind == 1 else dim)]
    return VectorPhases(tuple(phases)) if kind == 1 else CoordPhases(tuple(phases))


def test_equivalence_preserves_angle_clusters():
    rng = random.Random(11)
    lines = fixtures.sixteen_lines_d4()
    base = gram_analyze(lines)
    for _ in range(100):
        t = Compose(tuple(random_transform(rng, 4, 16) for _ in range(3)))
        moved = apply_equivalence(lines, t)
        report = gram_analyze(moved)
        assert len(report.angle_clusters) == len(base.angle_clusters)
        for (a1, m1), (a2, m2) in zip(report.angle_clusters, base.angle_clusters):
            assert m1 == m2
            assert abs(a1 - a2) < 1e-9


def test_equivalence_identity_and_phase():
    lines = fixtures.sixteen_lines_d4()
    same = apply_equivalence(lines, EntryPermutation((0, 1, 2, 3)))
    assert same.to_matrix() == pytest.approx(lines.to_matrix())
    phases = [1.0] * 16
    phases[1] = 1j
    spun = apply_equivalence(lines, VectorPhases(tuple(phases)))
    assert gram_analyze(spun).common_angle == pytest.approx(
        gram_analyze(lines).common_angle
    )


@pytest.mark.parametrize("perm", [(1.0, 0.0, 2.0, 3.0), ("1", 0, 2, 3), (True, 0, 2, 3)])
def test_entry_permutation_refuses_non_indices(perm):
    # the rule of scalars._columns: integers by _ints, and no floats
    with pytest.raises(ValueError, match="not a permutation of the entry indices"):
        apply_equivalence(fixtures.sixteen_lines_d4(), EntryPermutation(perm))


@pytest.mark.parametrize("values, want", [
    ([3, 0, 2], [3, 0, 2]), ([np.int64(3), 0], [3, 0]), ([], []),
    ([1.0, 0], None), ([True, 0], None), (["1", 0], None), ([1.5], None)])
def test_indices_reads_integers_and_refuses_floats_bools_and_strings(values, want):
    got = _indices(values)
    assert got == want
    assert got is None or all(type(x) is int for x in got)


def test_equivalence_exact_path_with_gaussian_units():
    lines = fixtures.lines64_d8()
    spun = apply_equivalence(lines, CoordPhases((Scalar.gauss(0, 1),) * 8))
    assert spun.exact
    assert gram_analyze(spun).exact


def test_equivalence_rejects_non_unit_phase():
    lines = fixtures.sixteen_lines_d4()
    with pytest.raises(NonUnitPhase):
        apply_equivalence(lines, VectorPhases((2.0,) + (1.0,) * 15))
    with pytest.raises(NonUnitPhase):
        apply_equivalence(lines, CoordPhases((Scalar.gauss(1, 1),) * 4))


@pytest.mark.parametrize("phase", [complex(math.nan, 0), complex(1, math.nan)],
                         ids=["nan", "1+nan*i"])
@pytest.mark.parametrize("transform", [VectorPhases, CoordPhases])
def test_equivalence_rejects_a_nan_phase(transform, phase):
    # abs(nan - 1) > tol is False, so a NaN phase once passed as a unit and
    # gave a set of NaNs
    lines = fixtures.sixteen_lines_d4()
    count = len(lines) if transform is VectorPhases else lines.dim
    with pytest.raises(NonUnitPhase, match="does not have magnitude 1"):
        apply_equivalence(lines, transform([phase] * count))


def test_from_parts_refuses_complex_parts():
    # astype(float) once kept the real parts alone, with only a ComplexWarning
    parts = np.stack([np.eye(2), np.eye(2)]) * (1 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="line-set parts must be real"):
            LineSet.from_parts(parts)


def random_lines(seed, n, d):
    """n lines in C^d with normal random parts: a "no" to every verdict."""
    return LineSet.from_parts(np.random.default_rng(seed).normal(size=(2, n, d)))


def c1_hits(tol):
    from mublines.abelian import builtin_rds
    from mublines.constructions import c1_search, mubs_from_rds

    return bool(c1_search(mubs_from_rds(builtin_rds(5)), 4, tol=tol))


#: each library verdict at a given tol, on input it says "no" to at the
#: default tol; at tol = inf each once said "yes", and all but lines_equal
#: did at tol = True
VERDICTS = {
    "gram_analyze": lambda tol: gram_analyze(random_lines(0, 10, 3), tol).equiangular,
    "verify_mubs": lambda tol: verify_mubs([random_lines(s, 5, 5) for s in range(5)], tol),
    "c1_search": c1_hits,
    "lines_equal": lambda tol: lines_equal(random_lines(1, 6, 3), random_lines(2, 6, 3), tol),
}


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-12, True,
                                 pytest.param(np.True_, id="np.True_")])
@pytest.mark.parametrize("verdict", VERDICTS)
def test_a_verdict_refuses_a_tol_that_is_not_finite_and_non_negative(verdict, tol):
    assert VERDICTS[verdict](DEFAULT_TOL) is False
    with pytest.raises(ValueError) as exc:
        VERDICTS[verdict](tol)
    assert str(exc.value) == f"tol: must be a finite number >= 0, got {tol}"


def test_lines_equal_reflexive_and_phase_invariant(chunk):
    a = fixtures.sixteen_lines_d4()
    assert lines_equal(a, a)
    rng = random.Random(5)
    b = apply_equivalence(
        a, VectorPhases(tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(16)))
    )
    assert lines_equal(a, b)


def test_lines_equal_detects_replacement():
    a = fixtures.sixteen_lines_d4()
    vectors = list(a.vectors[:15]) + [CVector.make([1, 0, 0, 0])]
    b = LineSet(4, tuple(vectors))
    assert not lines_equal(a, b)


def test_lines_equal_memory_stays_bounded_on_256_lines_in_c16():
    union = [v.to_array() for v in fixtures.sixteen_lines_d4().vectors]
    a = LineSet(16, tuple(CVector.make(np.kron(x, y)) for x in union for y in union))
    rng = random.Random(7)
    b = apply_equivalence(
        LineSet(16, a.vectors[::-1]),
        VectorPhases(tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(256))))
    tracemalloc.start()
    try:
        same = lines_equal(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same
    assert peak < 64 * 2**20
    assert not lines_equal(a, LineSet(16, a.vectors[:-1] + (CVector.make([1] + [0] * 15),)))


def test_lines_equal_memory_stays_bounded_when_every_pair_is_a_candidate():
    # at tol >= sqrt(2) the screen passes all 256^2 pairs on to the distance
    union = [v.to_array() for v in fixtures.sixteen_lines_d4().vectors]
    a = LineSet(16, tuple(CVector.make(np.kron(x, y)) for x in union for y in union))
    rng = random.Random(7)
    b = apply_equivalence(
        LineSet(16, a.vectors[::-1]),
        VectorPhases(tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(256))))
    tracemalloc.start()
    try:
        same = lines_equal(a, b, tol=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same
    assert peak < 64 * 2**20
    assert lines_equal(a, LineSet(16, a.vectors[:-1] + (CVector.make([1] + [0] * 15),)), tol=2)


def test_lines_equal_says_no_to_zero_vectors():
    a = LineSet(2, (CVector.make([0, 0]), CVector.make([1, 0])))
    b = LineSet(2, (CVector.make([0, 1]), CVector.make([0, 0])))
    with np.errstate(invalid="ignore"):
        assert not lines_equal(a, b)


def test_lines_equal_on_entries_whose_squared_norm_overflows():
    big = LineSet(2, (CVector.make([1e160, 0]), CVector.make([0, 1e160])))
    assert lines_equal(big, LineSet(2, big.vectors[::-1]))
    assert not lines_equal(big, LineSet(2, (CVector.make([1e160, 1e160]),
                                            CVector.make([1e160, -1e160]))))


def test_lines_equal_finds_a_matching_that_greedy_misses():
    # x1 is nearest y2, but only y1 is within tol of x1 and y2 of x2: a
    # greedy pass gives y2 to x1 and has nothing left for x2
    def at(t):
        return CVector.make([math.cos(t), math.sin(t)])

    a = LineSet(2, (at(0.0), at(-0.2)))
    b = LineSet(2, (at(0.2), at(0.0)))
    assert lines_equal(a, b, tol=0.4)  # distances sqrt(2) sin 0.2 ~ 0.28
    assert not lines_equal(a, b, tol=0.2)
    assert not lines_equal(a, LineSet(2, (at(0.2), at(0.6))), tol=0.4)


def test_gram_analyze_says_no_to_a_chained_cluster():
    # 30 lines in a real plane, 0.01 rad apart: the magnitudes cos(0.01 k),
    # k = 1..29, are never more than tol apart, yet spread over 10 * tol
    tol = 0.003
    lines = LineSet(2, tuple(CVector.make([math.cos(0.01 * k), math.sin(0.01 * k)])
                             for k in range(30)))
    values = np.sort([math.cos(0.01 * k) for k in range(1, 30)])
    assert np.diff(values).max() <= tol < (values[-1] - values[0]) / 10
    report = gram_analyze(lines, tol)
    assert len(report.angle_clusters) == 1
    assert not report.equiangular
    assert report.common_angle is None


def test_exact_and_float_paths_agree():
    exact = fixtures.lines64_d8()
    floated = LineSet(
        8,
        tuple(CVector.make(v.to_array()) for v in exact.vectors),
    )
    r1 = gram_analyze(exact)
    r2 = gram_analyze(floated)
    assert r1.exact and not r2.exact
    assert abs(r1.common_angle - r2.common_angle) < 1e-12


def test_lineset_json_roundtrip_exact(tmp_path):
    lines = fixtures.lines64_d8()
    data = lineset_to_json(lines)
    assert data["field"] == "gaussian-int"
    text = json.dumps(data, sort_keys=True)
    back = lineset_from_json(json.loads(text))
    assert back.exact
    assert back.vectors == lines.vectors


def test_dump_json_over_a_longer_file_writes_what_a_fresh_file_gets(tmp_path):
    data = lineset_to_json(fixtures.sixteen_lines_d4())
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    dump_json(data, fresh)
    old.write_text("x" * (3 * len(fresh.read_bytes())))
    dump_json(data, old)
    assert old.read_bytes() == fresh.read_bytes()
    assert fresh.read_text() == json.dumps(data, sort_keys=True) + "\n"


def _written_then(error):
    """An _encode that gives its document some 30 KB of pieces, more than
    the file's buffer, then raises error."""
    def encode(obj):
        yield from ("{", '"a": ', json.dumps(list(range(5000))))
        raise error
    return encode


@pytest.mark.parametrize("case", ["unwritable-object", "full-device"])
def test_a_failed_dump_json_leaves_an_empty_file_not_a_splice(tmp_path, monkeypatch, case):
    path = tmp_path / "old.json"
    dump_json(lineset_to_json(fixtures.sixteen_lines_d4()), path)
    if case == "full-device":
        monkeypatch.setattr(framecore, "_encode",
                            _written_then(OSError(errno.ENOSPC, "No space left on device")))
        doc, error = {}, OSError
    else:  # an object JSON cannot hold, after a long first member
        doc, error = {"a": list(range(5000)), "z": object()}, TypeError
    with pytest.raises(error):
        dump_json(doc, path)
    assert path.read_bytes() == b""


def test_dump_json_of_the_d31_union_holds_a_block_at_a_time(tmp_path):
    from mublines.abelian import builtin_rds
    from mublines.constructions import mubs_from_rds

    family = mubs_from_rds(builtin_rds(31))
    doc = lineset_to_json(LineSet(31, tuple(v for b in family.bases for v in b.vectors)))
    path = tmp_path / "u31.json"
    tracemalloc.start()
    try:
        dump_json(doc, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"
    assert peak < 2 * 2**20  # the 961-row table as one string: ~4.3 MiB


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 383, 384, 961])
def test_a_long_list_is_written_in_near_equal_blocks(n, monkeypatch):
    sizes = []
    leaf = framecore._leaf
    monkeypatch.setattr(framecore, "_leaf", lambda obj: sizes.append(len(obj)) or leaf(obj))
    rows = [[[0.5 * j, -0.0], [float(j), 1e-300]] for j in range(n)]
    assert "".join(framecore._encode(rows)) == json.dumps(rows)
    block = framecore._BLOCK
    assert sum(sizes) == n
    assert sizes == [n] if n < 2 * block else (block <= min(sizes) <= max(sizes) < 2 * block
                                               and max(sizes) - min(sizes) <= 1)


def test_lineset_json_roundtrip_float():
    lines = fixtures.sixteen_lines_d4()
    data = json.loads(json.dumps(lineset_to_json(lines)))
    back = lineset_from_json(data)
    assert np.max(np.abs(back.to_matrix() - lines.to_matrix())) == 0.0


@pytest.mark.parametrize("d", [3, 4])  # float and exact families
def test_verify_mubs_rejects_zero_vector(d):
    from mublines.abelian import builtin_rds
    from mublines.constructions import mubs_from_rds

    bases = list(mubs_from_rds(builtin_rds(d)).bases)
    bases[1] = LineSet(d, (CVector.make([0] * d),) + bases[1].vectors[1:])
    with pytest.raises(ZeroVectorError):
        verify_mubs(bases)


@pytest.mark.parametrize("d", [3, 4])  # float and exact families
def test_verify_mubs_checks_every_basis_before_any_verdict(d):
    from mublines.abelian import builtin_rds
    from mublines.constructions import mubs_from_rds

    bases = list(mubs_from_rds(builtin_rds(d)).bases)
    vectors = bases[0].vectors
    bases[0] = LineSet(d, (vectors[0],) + vectors[:-1])  # not orthogonal
    assert not verify_mubs(bases)
    bases[2] = LineSet(d, bases[2].vectors[:-1] + (CVector.make([0] * d),))
    with pytest.raises(ZeroVectorError):
        verify_mubs(bases)


def test_verify_mubs_memory_stays_bounded_at_d47():
    from mublines.abelian import builtin_rds
    from mublines.constructions import mubs_from_rds

    bases = list(mubs_from_rds(builtin_rds(47)).bases)
    tracemalloc.start()
    try:
        ok = verify_mubs(bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 16 * 2**20  # the whole-union Gram alone, 47^4 complex entries, is 78 MB


def test_the_float_verify_mubs_memory_stays_bounded_at_d47():
    # the builtin bases carry phases and are certified without a Gram; float
    # copies of them take the float path, block row by block row
    from mublines.abelian import builtin_rds
    from mublines.constructions import mubs_from_rds

    bases = [LineSet.from_parts(b.parts) for b in mubs_from_rds(builtin_rds(47)).bases]
    tracemalloc.start()
    try:
        ok = verify_mubs(bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 16 * 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_gram_analyze_rejects_non_finite_entries(bad):
    lines = basis_lineset([[1, 0], [bad, 1], [0, 1]])
    with pytest.raises(ValueError, match="non-finite"):
        gram_analyze(lines)


def test_lineset_from_json_rejects_non_integer_gaussian_entries():
    data = lineset_to_json(fixtures.lines64_d8())
    data["vectors"][7][1][0] = 1.7
    with pytest.raises(ValueError, match="non-integer"):
        lineset_from_json(data)


def test_lineset_from_json_reads_integral_floats_exactly():
    data = lineset_to_json(fixtures.lines64_d8())
    data["vectors"] = [[[float(re), float(im)] for re, im in v] for v in data["vectors"]]
    back = lineset_from_json(data)
    assert back.exact
    assert back.vectors == fixtures.lines64_d8().vectors


@pytest.mark.parametrize("dim", [2.0, 2.7, "2", True])
def test_lineset_from_json_reads_dim_as_an_integer(dim):
    data = {"dim": dim, "field": "gaussian-int", "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    if dim == 2.0 and not isinstance(dim, bool):
        assert lineset_from_json(data).dim == 2
    else:
        with pytest.raises(ValueError, match="non-integer entry in line-set dim"):
            lineset_from_json(data)


@pytest.mark.parametrize("bad", [1.0, True, pytest.param(np.int64(1), id="int64")])
def test_exact_lineset_refuses_anything_but_python_ints(bad):
    parts = np.array([[[1, 0]], [[0, 1]]], dtype=object)
    LineSet.from_parts(parts)  # Python ints: accepted
    parts[0, 0, 1] = bad
    with pytest.raises(ValueError, match="Python ints"):
        LineSet.from_parts(parts)
    if type(bad) is bool:  # a Scalar refuses a bool part
        with pytest.raises(TypeError, match="as a real number"):
            Scalar(bad, 0)
        return
    # a Scalar with such a part is a float one, and its set a float set
    assert not Scalar(bad, 0).exact
    lines = LineSet(2, (CVector((Scalar.gauss(1), Scalar(bad, 0))),))
    assert not lines.exact and lines.parts.dtype == np.float64
    assert lines.parts.tolist() == [[[1.0, 1.0]], [[0.0, 0.0]]]


def test_lineset_array_is_owned_and_read_only():
    parts = np.array([[[1, 0], [0, 1]], [[0, 0], [0, 0]]], dtype=object)
    lines = LineSet.from_parts(parts)
    parts[0, 0, 0] = 5  # the caller's array is not the set's
    assert lines.parts[0, 0, 0] == 1
    assert lines.vectors[0].entries[0] == Scalar.gauss(1)
    with pytest.raises(ValueError, match="read-only"):
        lines.parts[0, 0, 0] = 5
    with pytest.raises(AttributeError):
        lines.parts = parts


def test_lineset_exactness_belongs_to_the_set():
    mixed = LineSet(2, (CVector.make([1, 0]), CVector.make([0.5, 1])))
    assert not mixed.exact and mixed.parts.dtype == np.float64
    assert all(not e.exact for v in mixed.vectors for e in v.entries)
    exact = LineSet(2, (CVector.make([1, 0]), CVector.make([0, 1])))
    assert exact.exact and exact.parts.dtype == np.int64
    # int64 while every |part| < 2^31, Python ints from the first part past it
    for top, dtype in ((2**31 - 1, np.int64), (2**31, object), (-2**31, object)):
        lines = LineSet(2, (gauss_vector([(1, 0), (0, top)]), gauss_vector([(0, 0), (1, 0)])))
        assert lines.exact and lines.parts.dtype == dtype
        assert LineSet.from_parts(np.array(lines.parts.tolist())).parts.dtype == dtype


def test_lineset_view_keeps_signed_zeros():
    # -0.0 and 0.0 are different values of the array, and of the view
    lines = LineSet(2, (CVector.make([1.0, 0.0]), CVector.make([-0.0, 1.0])))
    assert math.copysign(1, lines.vectors[1].entries[0].re) == -1
    assert math.copysign(1, lines.vectors[0].entries[1].re) == 1


def test_entries_are_read_from_the_row_on_every_read():
    # a mixed vector's row is float, and so are the entries it reads back
    vector = CVector((Scalar.gauss(1, -2), Scalar(0.5, 0.0), Scalar.gauss(0, 3)))
    first, second = vector.entries, vector.entries
    assert first == second and first is not second
    assert all(a is not b for a, b in zip(first, second))
    assert all(not e.exact for e in first)
    assert [e.to_complex() for e in first] == vector.to_array().tolist() == [1 - 2j, 0.5, 3j]


@pytest.mark.parametrize("field, bad", [
    pytest.param("complex-f64", 10**400, id="f64-10^400"),  # beyond float64
    ("complex-f64", True),
    ("complex-f64", "1.5"),
    ("gaussian-int", True),
    ("gaussian-int", False),
    ("gaussian-int", "1"),
    ("gaussian-int", None),
])
def test_lineset_from_json_rejects_malformed_numbers(field, bad):
    data = lineset_to_json(fixtures.lines64_d8())
    data["field"] = field
    data["vectors"][7][1][0] = bad
    with pytest.raises(ValueError):
        lineset_from_json(data)


def test_ints_passes_plain_ints_through_and_still_checks_the_rest():
    values = [3, -2**70, 0]
    assert _ints(values, "x") == values
    assert _ints([3, 2.0, np.int64(4)], "x") == [3, 2, 4]
    # a list of ints and floats checks its floats alone; 1e300 reads exactly
    mixed = [3, 2.0, -0.0, 1e300, -7]
    assert _ints(mixed, "x") == [3, 2, 0, int(1e300), -7]
    assert _ints(mixed, "x", {int, float}) == _ints(mixed, "x")
    assert _ints([np.int64(5), 1e300, 2], "x") == [5, int(1e300), 2]
    for bad in ([1, True], [False], [1, 2.5], [1, "1"], [1, 2.0, math.inf], [3, -math.inf],
                [1, 2.0, math.nan], [2.0, 0.5, 3], [np.int64(1), 2.0, True], [1.0, 1e300, 0.5]):
        with pytest.raises(ValueError, match="non-integer entry in x"):
            _ints(bad, "x")


def test_a_set_rebuilt_from_int64_rows_stacks_them_as_int64():
    lines = fixtures.lines64_d8()
    assert lines.parts.dtype == np.int64
    again = LineSet(lines.dim, lines.vectors)
    assert again.parts.dtype == np.int64 and np.array_equal(again.parts, lines.parts)
    # a row of Python ints past the storage bound keeps the set in Python ints
    big = LineSet.from_parts(np.array([[[2**40, 0]], [[0, 1]]], dtype=object))
    small = LineSet.from_parts(np.array([[[1, 0]], [[0, 1]]]))
    assert (big.parts.dtype, small.parts.dtype) == (object, np.int64)
    mixed = LineSet(2, big.vectors + small.vectors)
    assert mixed.parts.dtype == object and mixed.parts[0, 0, 0] == 2**40
    assert type(mixed.parts[0, 1, 0]) is int


def test_lineset_from_json_keeps_huge_gaussian_integers_exact():
    data = lineset_to_json(fixtures.lines64_d8())
    data["vectors"][7][1][0] = 10**400
    back = lineset_from_json(json.loads(json.dumps(data)))
    assert back.exact and back.parts[0, 7, 1] == 10**400


@pytest.mark.parametrize("vectors", [
    [[[1, 0], [0, 1]]],  # dim 2 in a dim-4 file
    [[1, 0, 0, 1]] * 4,  # flat entries, not [re, im] pairs
    [[[1, 0, 0]] * 4],  # triples
    5,
])
def test_lineset_from_json_rejects_wrong_shapes(vectors):
    with pytest.raises((ValueError, TypeError)):
        lineset_from_json({"dim": 4, "field": "complex-f64", "vectors": vectors})


@pytest.mark.parametrize("provenance", ["abc", [["k", 1]], None, 5])
def test_lineset_from_json_refuses_a_provenance_that_is_not_an_object(provenance):
    # "abc" once failed only in apply_equivalence's dict(), and [["k", 1]]
    # silently became {"k": 1} there
    data = {"dim": 2, "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    assert lineset_from_json(data).provenance == {}
    assert lineset_from_json({**data, "provenance": {"k": 1}}).provenance == {"k": 1}
    with pytest.raises(ValueError, match="line-set provenance must be a JSON object"):
        lineset_from_json({**data, "provenance": provenance})


@pytest.mark.parametrize("field", ["gaussian_int", "Gaussian-Int", "complex_f64", 7, None, True,
                                   ["gaussian-int"]])
def test_lineset_from_json_refuses_an_unknown_field(field):
    data = {"dim": 2, "field": field, "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    with pytest.raises(ValueError, match="line-set field must be gaussian-int or complex-f64"):
        lineset_from_json(data)


#: two lines in C^2, the set the refusals below act on
E2 = LineSet.from_parts(np.array([[[1, 0], [0, 1]], [[0, 0], [0, 0]]]))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: LineSet(2, (CVector.make([1, 0]), CVector.make([1, 0, 0]))),
                 DimensionMismatch, "all vectors must share the set dimension", id="vector-dim"),
    pytest.param(lambda: LineSet._of_phases(np.array([0, 1, 2]), 3),
                 ValueError, "phases must have shape (n, dim)", id="phases-1d"),
    pytest.param(lambda: LineSet.from_parts(np.zeros((3, 2, 2))),
                 ValueError, "line-set parts must have shape (2, n, dim)", id="parts-3-2-2"),
    pytest.param(lambda: gram_analyze(LineSet.from_parts(np.ones((2, 1, 2)))),
                 ValueError, "need at least two vectors", id="one-vector"),
    pytest.param(lambda: verify_mubs([]), ValueError, "no bases supplied", id="no-bases"),
    pytest.param(lambda: apply_equivalence(E2, VectorPhases([Scalar.gauss(1)])),
                 ValueError, "need one phase per vector", id="vector-phases"),
    pytest.param(lambda: apply_equivalence(E2, CoordPhases([Scalar.gauss(1)] * 3)),
                 ValueError, "need one phase per coordinate", id="coord-phases"),
    pytest.param(lambda: apply_equivalence(E2, "flip"),
                 TypeError, "unknown transform 'flip'", id="unknown-transform"),
])
def test_a_refusal_names_its_rule(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message


def test_lines_equal_says_no_across_dims_and_lengths():
    assert not lines_equal(E2, LineSet.from_parts(np.array([[[1, 0, 0], [0, 1, 0]], [[0] * 3] * 2])))
    assert not lines_equal(E2, LineSet.from_parts(E2.parts[:, :1]))
    assert lines_equal(E2, E2)


def test_a_vector_equals_no_number():
    assert (CVector.make([1]) == 1) is False
