"""The exact certificate of phase-carrying MUB families: LineSet._of_phases,
mubs_from_rds's odd-prime bases and framecore._phase_certificate, against
the float verify_mubs of float copies of the same bases; and the exact
gram_analyze of phase sets whose rows form a group code, against the float
report of the same parts."""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mublines import framecore
from mublines.abelian import builtin_rds
from mublines.constructions import mubs_from_rds
from mublines.framecore import (
    CVector,
    LineSet,
    VectorPhases,
    _phase_certificate,
    _roots,
    apply_equivalence,
    gram_analyze,
    lineset_to_json,
    verify_mubs,
)
from mublines.scalars import GAUSSIAN_UNITS

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def float_copies(bases):
    """The same bases as float sets without phases: the float path's input."""
    return [LineSet.from_parts(b.parts) for b in bases]


def phase_bases(phases, p):
    """One phase-carrying basis per (d, d) block of phases."""
    return [LineSet._of_phases(block, p) for block in phases]


def family_phases(p):
    """The (p, p, p) phases of the builtin family at the odd prime p."""
    return np.array([b._phases[0] for b in mubs_from_rds(builtin_rds(p)).bases])


def coset_phases(p, g, line, order):
    """The phases of the bases that are the cosets of one line K of the
    group code {j1 x + j2 g(x) : j1, j2 in F_p} (x = 0..p-1), in its
    coordinates (j1, j2): K is spanned by line, and the bases are listed in
    order, a permutation of 0..p-1.  g(x) = x^2 and line (1, 0) give the
    builtin family, up to the order of its rows."""
    x, g = np.arange(p), np.array(g)
    step = np.array([0, 1]) if line[1] == 0 else np.array([1, 0])  # off K
    coords = np.array([[(t * step + s * np.array(line)) % p for s in range(p)] for t in order])
    return (coords[..., :1] * x + coords[..., 1:] * g) % p


def every_row_certificate(phases, k, p):
    """The character-sum test of _phase_certificate on every nonzero row of
    the bases phases, of which basis k is the subgroup K, in Python ints:
    |S(u)|^2 = sum_j A_j z^j must be 0 on K and d off it, that is, A_j minus
    that target at j = 0 must not depend on j."""
    d = phases.shape[1]
    for b, basis in enumerate(phases.tolist()):
        for u in basis:
            if not any(u):
                continue
            n = [u.count(r) for r in range(p)]
            auto = [sum(n[r] * n[(r + j) % p] for r in range(p)) for j in range(p)]
            auto[0] -= 0 if b == k else d
            if len(set(auto)) != 1:
                return False
    return True


def test_a_phase_set_keeps_its_phases_and_nothing_built_from_it_does():
    p = 7
    phases = family_phases(p)[2]
    lines = LineSet._of_phases(phases + p, p, {"k": 1})  # reduced mod p
    assert lines._phases[1] == p and np.array_equal(lines._phases[0], phases)
    assert not lines._phases[0].flags.writeable
    assert np.array_equal(lines.parts, _roots(p)[:, phases])
    assert not lines.exact and lines.provenance == {"k": 1}
    copy = LineSet.from_parts(lines.parts, {"k": 1})
    assert json.dumps(lineset_to_json(lines)) == json.dumps(lineset_to_json(copy))
    assert lineset_to_json(lines)["field"] == "complex-f64"
    rebuilt = LineSet(p, lines.vectors)  # its vectors carry their phases
    assert rebuilt._phases[1] == p and np.array_equal(rebuilt._phases[0], lines._phases[0])
    assert not rebuilt.exact and np.array_equal(rebuilt.parts, lines.parts)
    for derived in (copy, apply_equivalence(lines, VectorPhases((GAUSSIAN_UNITS[0],) * p))):
        assert derived._phases is None and not derived.exact
        assert np.array_equal(derived.parts, lines.parts)


@pytest.mark.parametrize("order", [1, 2, 4, 9, 15])
def test_a_phase_order_must_be_an_odd_prime(order):
    with pytest.raises(ValueError, match="odd prime"):
        LineSet._of_phases(np.zeros((2, 2), dtype=int), order)


def test_mubs_from_rds_carries_phases_exactly_for_odd_primes():
    for d in (2, 4):
        assert all(b._phases is None for b in mubs_from_rds(builtin_rds(d)).bases)
    for d in (3, 5, 7):
        bases = mubs_from_rds(builtin_rds(d)).bases
        assert all(b._phases[1] == d for b in bases)


@pytest.mark.parametrize("d", [*ODD_PRIMES, 47, 97])
def test_the_exact_verdict_of_every_builtin_is_the_float_one(d):
    bases = list(mubs_from_rds(builtin_rds(d)).bases)
    assert _phase_certificate(bases) is True
    assert verify_mubs(float_copies(bases)) is True


def test_verify_mubs_of_phase_bases_takes_no_float_gram(monkeypatch):
    bases = list(mubs_from_rds(builtin_rds(31)).bases)

    def refuse(*args):
        raise AssertionError("the float Gram ran")

    monkeypatch.setattr(framecore, "_stack", refuse)
    assert verify_mubs(bases, 1e-300) is True  # the tolerance plays no part
    with pytest.raises(AssertionError, match="float Gram"):
        verify_mubs(float_copies(bases))


@st.composite
def altered_families(draw):
    """(kind, phases, p) of the builtin family with one phase perturbed,
    two rows swapped across bases, one row written over another, its rows
    regrouped by a K that tiles them without being a subgroup, or random
    phases."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    kind = draw(st.sampled_from(("perturbed", "shuffled", "repeated", "tiled", "random")))
    phases = family_phases(p)
    if kind == "perturbed":
        b, j, col = (draw(st.integers(0, p - 1)) for _ in range(3))
        phases[b, j, col] = (phases[b, j, col] + draw(st.integers(1, p - 1))) % p
    elif kind == "shuffled":
        b, c = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
        j, k = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        phases[[b, c], [j, k]] = phases[[c, b], [k, j]]
    elif kind == "repeated":  # one row written over another: p^2 rows, p^2 - 1 distinct
        (b, j), (c, k) = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                                       min_size=2, max_size=2, unique=True))
        phases[b, j] = phases[c, k]
    elif kind == "tiled":
        # K = {(s, f(s))} with f(0) = 0 and f not additive, and its
        # translates by (0, t): they tile the code, and K is no subgroup
        f = [0] + draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
        if all(f[s] == f[1] * s % p for s in range(p)):  # additive, so linear
            f[1] = (f[1] + 1) % p  # then f(2) = 2 f(1) - 2, not 2 f(1)
        x = np.arange(p)
        phases = np.array([[(s * x + ((f[s] + t) % p) * x * x) % p for s in range(p)]
                           for t in range(p)])
    else:
        phases = np.array(draw(st.lists(st.integers(0, p - 1), min_size=p**3,
                                        max_size=p**3))).reshape(p, p, p)
    return kind, phases, p


def test_a_tiling_k_below_is_no_subgroup():
    # the tiled case's K for f = (0, 1, 1) at p = 3: (1, 1) + (1, 1) = (2, 2) is
    # not (2, f(2)) = (2, 1)
    x = np.arange(3)
    f = [0, 1, 1]
    phases = np.array([[(s * x + ((f[s] + t) % 3) * x * x) % 3 for s in range(3)]
                       for t in range(3)])
    bases = phase_bases(phases, 3)
    assert _phase_certificate(bases) is None
    assert verify_mubs(bases) is verify_mubs(float_copies(bases)) is False


@settings(max_examples=200, deadline=None)
@given(altered_families())
def test_no_altered_family_gets_an_exact_yes(case):
    kind, phases, p = case
    bases = phase_bases(phases, p)
    assert _phase_certificate(bases) is not True
    assert verify_mubs(bases) == verify_mubs(float_copies(bases))
    if kind in ("shuffled", "repeated"):  # no cosets, or no group code
        assert _phase_certificate(bases) is None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, 7, 11, 13)).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.integers(0, p - 1), min_size=p, max_size=p),
    st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(lambda v: any(v)),
    st.permutations(range(p)))))
@example((5, [0, 1, 4, 4, 1], (1, 0), [0, 1, 2, 3, 4]))  # the builtin family: yes
@example((7, [0, 1, 4, 2, 2, 4, 1], (3, 0), [6, 5, 4, 3, 2, 1, 0]))  # yes
@example((5, [0, 1, 4, 4, 1], (0, 1), [0, 1, 2, 3, 4]))  # K not orthogonal
@example((5, [0, 2, 4, 1, 3], (1, 0), [0, 1, 2, 3, 4]))  # g linear: rank 1
def test_one_row_per_galois_orbit_decides_as_every_row_does(case):
    p, g, line, order = case
    phases = coset_phases(p, g, line, order)
    bases = phase_bases(phases, p)
    exact = _phase_certificate(bases)
    linear = all((g[x] - g[1] * x) % p == 0 for x in range(p))
    if not linear:
        assert exact is every_row_certificate(phases, order.index(0), p)
    assert (exact is None) == linear  # a code of rank 2, and K a subgroup
    assert verify_mubs(bases) == verify_mubs(float_copies(bases))
    if exact is not None:
        assert exact == verify_mubs(float_copies(bases))


@pytest.mark.parametrize("p", [3, 5])
def test_every_coset_family_of_a_small_code_is_decided_as_every_row_decides(p):
    # every g: F_p -> F_p, K the line (1, 0): a family whose only failing
    # F_p^*-orbit is any one of them is among these
    verdicts = set()
    for g in itertools.product(range(p), repeat=p):
        if all((g[x] - g[1] * x) % p == 0 for x in range(p)):
            continue
        phases = coset_phases(p, g, (1, 0), range(p))
        exact = _phase_certificate(phase_bases(phases, p))
        assert exact is every_row_certificate(phases, 0, p)
        verdicts.add(exact)
    assert verdicts == {True, False}


# --- gram_analyze of a phase set from its character sums ---------------------


def phase_union(d):
    """The union of the builtin bases of C^d as the bench's census builds
    it: LineSet(d, vectors), which keeps their phases."""
    return LineSet(d, tuple(v for b in mubs_from_rds(builtin_rds(d)).bases for v in b.vectors))


def float_report(lines):
    """gram_analyze of a float copy of lines, which carries no phases."""
    return gram_analyze(LineSet.from_parts(lines.parts))


@pytest.mark.parametrize("d", [*ODD_PRIMES, 97])
def test_the_gram_of_a_builtin_union_is_exact_and_takes_no_float_gram(d, monkeypatch):
    lines = phase_union(d)
    assert lines._phases[1] == d

    def refuse(*args):
        raise AssertionError("the float Gram ran")

    monkeypatch.setattr(framecore, "_float_reports", refuse)
    report = gram_analyze(lines)
    monkeypatch.undo()
    within = d * math.comb(d, 2)  # pairs inside one basis
    assert report.exact and not report.equiangular
    (zero, inside), (value, across) = report.angle_clusters
    assert zero == 0.0 and abs(value - 1 / math.sqrt(d)) <= 1e-15
    assert (inside, across) == (within, math.comb(d * d, 2) - within)
    assert report.norms == (math.sqrt(d),) * d * d
    if d <= 31:  # the float report of the same parts, as the float path gave it
        floats = float_report(lines)
        assert not floats.exact
        assert [n for _, n in floats.angle_clusters] == [inside, across]
        for (a, _), (b, _) in zip(report.angle_clusters, floats.angle_clusters):
            assert abs(a - b) <= 1e-15


@st.composite
def group_codes(draw):
    """(words, p): the distinct words of the span of 1-3 random generator
    rows of length 1-6 over F_p, p in {3, 5, 7}, possibly dependent, in a
    random order."""
    p = draw(st.sampled_from((3, 5, 7)))
    rank, length = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    gens = np.array(draw(st.lists(st.lists(st.integers(0, p - 1), min_size=length,
                                           max_size=length),
                                  min_size=rank, max_size=rank)))
    words = {tuple((np.array(c) @ gens % p).tolist()): None
             for c in itertools.product(range(p), repeat=rank)}
    return draw(st.permutations(list(words))), p


@settings(max_examples=200, deadline=None)
@given(group_codes())
@example(([[t * x % 7 for x in (0, 1, 3)] for t in range(7)], 7))  # Fano: exact yes
@example(([[0, t] for t in range(5)], 5))  # |S|^2 irrational: the float path
def test_the_exact_gram_of_a_group_code_agrees_with_the_float_one(case):
    words, p = case
    if len(words) < 2:
        return  # the zero code: one line
    lines = LineSet._of_phases(words, p)
    report, floats = gram_analyze(lines), float_report(lines)
    if not report.exact:  # an irrational |S(u)|^2: the float report, as it is
        assert repr(report) == repr(floats)
        return
    assert report.equiangular == floats.equiangular
    assert [n for _, n in report.angle_clusters] == [n for _, n in floats.angle_clusters]
    for (a, _), (b, _) in zip(report.angle_clusters, floats.angle_clusters):
        assert abs(a - b) <= 1e-12


def test_the_fano_code_is_exactly_equiangular_and_a_code_of_irrational_sums_is_not():
    fano = LineSet._of_phases([[t * x % 7 for x in (0, 1, 3)] for t in range(7)], 7)
    report = gram_analyze(fano)
    assert report.exact and report.equiangular
    assert report.angle_clusters == ((math.sqrt(2 / 9), 21),)
    pair = LineSet._of_phases([[0, t] for t in range(5)], 5)  # |S|^2 = 2 + 2 cos(2 pi t / 5)
    report = gram_analyze(pair)
    assert not report.exact and repr(report) == repr(float_report(pair))


def never_exact(p):
    """Sets that hold the builtin union of C^p but one change, none of them
    a group code with phases of one p, by name."""
    union = phase_union(p)
    vectors = union.vectors
    changed = family_phases(p).reshape(p * p, p)
    changed[4, 2] = (changed[4, 2] + 1) % p
    other = LineSet._of_phases(np.zeros((1, p), dtype=int), 5 if p == 3 else 3).vectors
    return {
        "one phase changed": LineSet._of_phases(changed, p),
        "a row dropped": LineSet(p, vectors[1:]),
        "a row duplicated": LineSet(p, vectors + vectors[5:6]),
        "two primes": LineSet(p, vectors[1:] + other),
        "a made vector": LineSet(p, vectors[1:] + (CVector.make(vectors[0].to_array()),)),
        "a vector of Scalars": LineSet(p, vectors[1:] + (CVector(vectors[0].entries),)),
    }


@pytest.mark.parametrize("p", [3, 7, 13])
def test_a_set_that_is_no_group_code_of_one_prime_gets_the_float_report(p):
    for name, lines in never_exact(p).items():
        report = gram_analyze(lines)
        assert not report.exact, name
        assert repr(report) == repr(float_report(lines)), name
        # the first three keep their phases and fail the group-code test
        kept = name in ("one phase changed", "a row dropped", "a row duplicated")
        assert (lines._phases is not None) == kept, name


#: the characters of F_3^4, one line of C^81 each and pairwise orthogonal
CHARACTERS_3_4 = [[np.dot(a, x) % 3 for x in itertools.product(range(3), repeat=4)]
                  for a in itertools.product(range(3), repeat=4)]


@pytest.mark.parametrize("words, p, clusters, norm", [
    ([[t] for t in range(1009)], 1009, ((1.0, 1009 * 1008 // 2),), 1.0),  # one line of C^1
    (CHARACTERS_3_4, 3, ((0.0, 81 * 80 // 2),), 9.0),
], ids=["length 1 over F_1009", "length 81 over F_3"])
def test_the_exact_gram_of_a_code_stays_small_at_any_length_and_prime(words, p, clusters, norm):
    # the counts of one row per orbit, never a p x p table (~23 MiB at
    # p = 1009) nor the d x d differences of each row (~4 MiB at d = 81)
    lines = LineSet._of_phases(words, p)
    tracemalloc.start()
    try:
        report = gram_analyze(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exact and report.angle_clusters == clusters
    assert report.norms == (norm,) * len(words)
    assert peak < 2**20


def test_the_gram_of_a_phase_union_loads_no_numpy_ma():
    # as in the certificate, no np.unique or np.isin
    code = ("import sys; from mublines import abelian as a, constructions as c, framecore as f;"
            " fam = c.mubs_from_rds(a.builtin_rds(13));"
            " r = f.gram_analyze(f.LineSet(13, tuple(v for b in fam.bases for v in b.vectors)));"
            " sys.exit(not r.exact or 'numpy.ma' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
