import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublines.abelian import (
    FiniteAbelianGroup,
    QuotientInN,
    RdsError,
    RelativeDifferenceSet,
    UnevenCover,
    UnsupportedDimension,
    builtin_rds,
    char_eval,
    characters,
    rds_from_json,
    rds_to_json,
    rds_verify,
)
from reference import elements, phase_fraction


def test_enumerate_z2():
    g = FiniteAbelianGroup((2,))
    assert [e.exponents for e in elements(g)] == [(0,), (1,)]


def test_enumerate_z4xz4():
    g = FiniteAbelianGroup((4, 4))
    elems = elements(g)
    assert len(elems) == 16
    assert elems[0].exponents == (0, 0)
    assert elems[-1].exponents == (3, 3)
    assert len({e.exponents for e in elems}) == 16
    assert [e.exponents for e in elems] == sorted(e.exponents for e in elems)


def test_enumerate_trivial_group():
    g = FiniteAbelianGroup((1,))
    assert [e.exponents for e in elements(g)] == [(0,)]


def test_characters_count_and_values_z4xz4():
    g = FiniteAbelianGroup((4, 4))
    chars = characters(g)
    assert len(chars) == 16
    x = g.element((1, 0))
    y = g.element((0, 1))
    for chi in chars:
        j, k = chi.exponents
        assert char_eval(chi, x).to_complex() == 1j ** j
        assert char_eval(chi, y).to_complex() == 1j ** k


def test_characters_z3xz3_are_cube_roots():
    g = FiniteAbelianGroup((3, 3))
    chars = characters(g)
    assert len(chars) == 9
    for chi in chars:
        for e in elements(g):
            z = char_eval(chi, e).to_complex()
            assert abs(z ** 3 - 1) < 1e-12


def test_characters_trivial_group():
    g = FiniteAbelianGroup((1,))
    chars = characters(g)
    assert len(chars) == 1
    assert char_eval(chars[0], g.element((0,) * len(g.orders))).to_complex() == 1


def test_char_eval_trivial_character():
    g = FiniteAbelianGroup((4, 4))
    chi0 = characters(g)[0]
    for e in elements(g):
        assert char_eval(chi0, e).to_complex() == 1


def test_char_eval_published_values():
    g = FiniteAbelianGroup((4, 4))
    chi11 = [c for c in characters(g) if c.exponents == (1, 1)][0]
    # chi_{1,1}(x^3 y^3) = i^3 * i^3 = -1, exactly
    value = char_eval(chi11, g.element((3, 3)))
    assert value.exact
    assert (value.re, value.im) == (-1, 0)

    g3 = FiniteAbelianGroup((3, 3))
    chi12 = [c for c in characters(g3) if c.exponents == (1, 2)][0]
    import cmath

    omega = cmath.exp(2j * cmath.pi / 3)
    assert abs(char_eval(chi12, g3.element((0, 1))).to_complex() - omega ** 2) < 1e-12


def test_char_eval_group_mismatch():
    g = FiniteAbelianGroup((4,))
    h = FiniteAbelianGroup((2, 2))
    with pytest.raises(ValueError):
        char_eval(characters(g)[1], h.element((0,) * len(h.orders)))


def test_character_orthogonality():
    for orders in [(4,), (3, 3), (4, 4), (2, 2, 2), (6,)]:
        g = FiniteAbelianGroup(orders)
        for chi in characters(g):
            total = sum(char_eval(chi, e).to_complex() for e in elements(g))
            if chi.exponents == (0,) * len(orders):
                assert abs(total - g.order) < 1e-9
            else:
                assert abs(total) < 1e-9


def test_characters_pairwise_distinct():
    g = FiniteAbelianGroup((4, 4))
    gens = [g.element((1, 0)), g.element((0, 1))]
    seen = set()
    for chi in characters(g):
        key = tuple(char_eval(chi, x).to_complex() for x in gens)
        assert key not in seen
        seen.add(key)


def test_char_eval_homomorphism():
    rng = random.Random(7)
    g = FiniteAbelianGroup((4, 3, 2))
    elems = elements(g)
    chars = characters(g)
    for _ in range(200):
        chi = rng.choice(chars)
        a, b = rng.choice(elems), rng.choice(elems)
        ab = g.element([x + y for x, y in zip(a.exponents, b.exponents)])
        lhs = char_eval(chi, ab).to_complex()
        rhs = char_eval(chi, a).to_complex() * char_eval(chi, b).to_complex()
        assert abs(lhs - rhs) < 1e-12


def test_rds_verify_published_examples():
    assert rds_verify(builtin_rds(4)) == (4, 4, 4, 1)
    assert rds_verify(builtin_rds(2)) == (2, 2, 2, 1)
    assert rds_verify(builtin_rds(3)) == (3, 3, 3, 1)
    assert rds_verify(builtin_rds(5)) == (5, 5, 5, 1)


def test_rds_verify_quotient_in_n():
    g = FiniteAbelianGroup((4,))
    bad = RelativeDifferenceSet(
        g, forbidden=(g.element((2,)),), elements=(g.element((0,)), g.element((2,)))
    )
    with pytest.raises(QuotientInN):
        rds_verify(bad)


def test_rds_verify_rejects_single_element_perturbations():
    base = builtin_rds(4)
    g = base.group
    all_elems = elements(g)
    originals = {e.exponents for e in base.elements}
    rejected = 0
    for idx in range(4):
        for replacement in all_elems:
            if replacement.exponents in originals:
                continue
            elems = list(base.elements)
            elems[idx] = replacement
            mutant = RelativeDifferenceSet(g, base.forbidden, tuple(elems))
            with pytest.raises(ValueError):
                rds_verify(mutant)
            rejected += 1
    assert rejected == 4 * 12


def test_builtin_rds_d3_is_published_set():
    rds = builtin_rds(3)
    assert rds.group.orders == (3, 3)
    assert [e.exponents for e in rds.elements] == [(0, 0), (0, 1), (1, 2)]
    assert [e.exponents for e in rds.forbidden] == [(1, 0)]


def test_builtin_rds_unsupported():
    for d in (6, 8, 9, 1):
        with pytest.raises(UnsupportedDimension):
            builtin_rds(d)


def test_builtin_rds_odd_primes_validate():
    for p in (5, 7, 11, 13):
        assert rds_verify(builtin_rds(p)) == (p, p, p, 1)


@pytest.mark.parametrize("d", [2, 3, 4] + [p for p in range(3, 98, 2)
                                           if all(p % q for q in range(3, p, 2))])
def test_every_builtin_rds_verifies(d):
    # builtin_rds leaves verification to mubs_from_rds; this checks its constants
    assert rds_verify(builtin_rds(d)) == (d, d, d, 1)


def test_rds_json_roundtrip():
    rds = builtin_rds(4)
    data = rds_to_json(rds)
    assert data == {
        "orders": [4, 4],
        "forbidden": [[2, 0], [0, 2]],
        "elements": [[0, 0], [1, 0], [0, 1], [3, 3]],
    }
    back = rds_from_json(data)
    assert rds_verify(back) == (4, 4, 4, 1)


def test_char_eval_matches_fraction_definition():
    """chi(g) = e^(2*pi*i*t) with t = sum_i j_i e_i / n_i mod 1, evaluated at
    the reduced fraction, so phase 0 and the quarter turns stay exact."""
    from mublines.scalars import root_of_unity

    g = FiniteAbelianGroup((4, 6, 3))
    for chi in characters(g)[::7]:
        for e in elements(g):
            t = phase_fraction(chi, e)
            value = char_eval(chi, e)
            assert value == root_of_unity(t.numerator, t.denominator)
            assert value.exact == (4 % t.denominator == 0)


@pytest.mark.parametrize("orders", [(4.9, 4), (4, True), (4, np.bool_(True)), ("4", 4), (4, None)])
def test_group_orders_are_never_truncated(orders):
    with pytest.raises(ValueError):
        FiniteAbelianGroup(orders)


@pytest.mark.parametrize("exponents", [(1.7, True), (1, 0.5), (1, "1")])
def test_group_element_exponents_are_never_truncated(exponents):
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 4)).element(exponents)


def test_group_reads_integral_floats_and_generators():
    g = FiniteAbelianGroup((4.0, 4))
    assert g.orders == (4, 4) and all(type(n) is int for n in g.orders)
    assert g.element(e for e in (5.0, -1)).exponents == (1, 3)


def test_group_reads_numpy_integers():
    g = FiniteAbelianGroup((np.int64(4), np.uint8(4)))
    assert g.orders == (4, 4) and all(type(n) is int for n in g.orders)
    e = g.element(np.array([1, -2]))
    assert e.exponents == (1, 2) and all(type(x) is int for x in e.exponents)


def rds_verify_by_loop(rds):
    """rds_verify as it was before its quotients became arrays: a
    quotient of exponent tuples per ordered pair."""
    subgroup = rds.forbidden_subgroup()
    n = len(subgroup)
    v = rds.group.order
    if v % n != 0:
        raise RdsError(f"subgroup order {n} does not divide group order {v}")
    m = v // n
    k = len(rds.elements)
    if len({g.exponents for g in rds.elements}) != k:
        raise RdsError("repeated elements in the difference set")
    counts = {}
    for r1, r2 in itertools.permutations(rds.elements, 2):
        q = tuple((a - b) % order
                  for a, b, order in zip(r1.exponents, r2.exponents, rds.group.orders))
        if q in subgroup:
            raise QuotientInN(
                f"quotient {q} of distinct elements lies in the forbidden subgroup"
            )
        counts[q] = counts.get(q, 0) + 1
    outside = v - n
    if k >= 2:
        multiplicities = set(counts.values())
        if len(counts) != outside or len(multiplicities) != 1:
            raise UnevenCover("quotients do not cover G\\N evenly")
        lam = multiplicities.pop()
    else:
        lam = 0
    if k * (k - 1) != lam * outside:
        raise UnevenCover("quotient count inconsistent with (m,n,k,lambda)")
    return (m, n, k, lam)


def verdict(verify, rds):
    """verify(rds), or the type and message of the RdsError it raised."""
    try:
        return verify(rds)
    except RdsError as exc:
        return type(exc), str(exc)


@st.composite
def rds_candidates(draw):
    """Random element sets in small groups, and mutants of the builtins:
    one element replaced, dropped or repeated, or one added."""
    if draw(st.booleans()):
        rds = builtin_rds(draw(st.sampled_from([2, 3, 4, 5, 7])))
        group, forbidden, members = rds.group, rds.forbidden, list(rds.elements)
        every = elements(group)
        i = draw(st.integers(0, len(members) - 1))
        how = draw(st.sampled_from(["replace", "drop", "repeat", "add", "keep"]))
        if how == "replace":
            members[i] = draw(st.sampled_from(every))
        elif how == "drop":
            del members[i]
        elif how == "repeat":
            members.append(members[i])
        elif how == "add":
            members.insert(i, draw(st.sampled_from(every)))
        return RelativeDifferenceSet(group, forbidden, tuple(members))
    group = FiniteAbelianGroup(tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))))
    every = elements(group)
    forbidden = draw(st.lists(st.sampled_from(every), max_size=2))
    members = draw(st.lists(st.sampled_from(every), max_size=min(len(every), 8),
                            unique_by=lambda g: g.exponents))
    return RelativeDifferenceSet(group, tuple(forbidden), tuple(members))


@settings(max_examples=300, deadline=None)
@given(rds_candidates())
def test_rds_verify_agrees_with_the_quotient_loop(rds):
    assert verdict(rds_verify, rds) == verdict(rds_verify_by_loop, rds)


@pytest.mark.parametrize("orders, forbidden, elements", [
    ((2**64, 3), [(0, 1)], [(0, 0), (1, 0), (5, 2)]),  # past int64: Python-int codes
    ((2**63 - 1,), [(0,)], [(0,), (1,)]),
    ((10**20,), [(5 * 10**19,)], [(0,), (5 * 10**19,)]),
    ((4,), [(2,)], [(0,), (1,)]),
])
def test_rds_verify_agrees_with_the_quotient_loop_in_large_groups(orders, forbidden, elements):
    group = FiniteAbelianGroup(orders)
    rds = RelativeDifferenceSet(group, tuple(map(group.element, forbidden)),
                                tuple(map(group.element, elements)))
    assert verdict(rds_verify, rds) == verdict(rds_verify_by_loop, rds)
