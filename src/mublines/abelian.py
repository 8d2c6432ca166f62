"""Finite abelian groups as products of cyclic factors, their characters,
and relative-difference-set verification.

Groups are only ever presented as explicit products Z_{n_1} x ... x Z_{n_k};
no structure computation from abstract presentations is attempted.
"""

from __future__ import annotations

import itertools
import math

from .scalars import Scalar, _ints, _is_odd_prime, _Record, root_of_unity


class RdsError(ValueError):
    """A claimed relative difference set failed verification."""


class QuotientInN(RdsError):
    """Some quotient r1*r2^-1 lands in the forbidden subgroup."""


class UnevenCover(RdsError):
    """The quotients do not cover G\\N with constant multiplicity."""


class UnsupportedDimension(ValueError):
    """No builtin RDS is available for the requested dimension."""


class FiniteAbelianGroup(_Record):
    """Product of cyclic groups of the given factor orders."""

    __slots__ = _FIELDS = ("orders",)

    def _check(self):
        orders = tuple(_ints(self.orders, "group orders"))
        if not orders or any(n < 1 for n in orders):
            raise ValueError("factor orders must all be >= 1")
        object.__setattr__(self, "orders", orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def element(self, exponents) -> "GroupElement":
        return GroupElement(self, tuple(_ints(exponents, "group element exponents")))


class GroupElement(_Record):
    """The element of group with the exponent tuple exponents, reduced."""

    __slots__ = _FIELDS = ("group", "exponents")

    def _check(self):
        _reduce(self, "exponent tuple length")


class Character(_Record):
    """chi(g) = prod_i zeta_{n_i}^{j_i * e_i}, the j_i being the exponent
    tuple, reduced."""

    __slots__ = _FIELDS = ("group", "exponents")

    def _check(self):
        _reduce(self, "character exponent length")


def _reduce(item: GroupElement | Character, what: str) -> None:
    """Check the exponent count (what) of item and reduce each exponent."""
    if len(item.exponents) != len(item.group.orders):
        raise ValueError(f"{what} does not match the group")
    reduced = tuple(e % n for e, n in zip(item.exponents, item.group.orders))
    object.__setattr__(item, "exponents", reduced)


def _phase_weights(group: FiniteAbelianGroup) -> tuple[int, tuple[int, ...]]:
    """L = lcm of the factor orders and the weights L / n_i: chi_j(g_e) =
    e^(2*pi*i*t/L) with t = sum_i j_i * e_i * L / n_i mod L."""
    modulus = math.lcm(*group.orders)
    return modulus, tuple(modulus // n for n in group.orders)


def _phase(chi: Character, g: GroupElement) -> tuple[int, int]:
    """(t, L) with chi(g) = e^(2*pi*i*t/L) and 0 <= t < L."""
    if g.group != chi.group:
        raise ValueError("element and character belong to different groups")
    modulus, weights = _phase_weights(chi.group)
    t = sum(j * e * w for j, e, w in zip(chi.exponents, g.exponents, weights))
    return t % modulus, modulus


def characters(group: FiniteAbelianGroup) -> list[Character]:
    """All |G| characters, lexicographic by exponent tuple."""
    return [Character(group, exps) for exps in itertools.product(*map(range, group.orders))]


def char_eval(chi: Character, g: GroupElement) -> Scalar:
    """Evaluate a character by scalars.root_of_unity, which decides whether
    the value is exact."""
    return root_of_unity(*_phase(chi, g))


def _subgroup_closure(orders: tuple[int, ...], generators) -> set[tuple[int, ...]]:
    """The subgroup of Z_{n_1} x ... x Z_{n_k} that the exponent tuples
    generators generate, as exponent tuples."""
    seen = {(0,) * len(orders)}
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        for gen in generators:
            nxt = tuple((a + b) % n for a, b, n in zip(current, gen, orders))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class RelativeDifferenceSet(_Record):
    """An (m, n, k, lambda)-RDS candidate of group, forbidden and elements
    (tuples of GroupElements); call rds_verify to validate.  Its label
    names where it came from and takes no part in ==."""

    __slots__ = _FIELDS = ("group", "forbidden", "elements", "label")
    _DEFAULTS = ("",)
    _COMPARE = ("group", "forbidden", "elements")

    def _check(self):
        for g in self.forbidden + self.elements:
            if g.group != self.group:
                raise ValueError("RDS data must live in the stated group")

    def forbidden_subgroup(self) -> set[tuple[int, ...]]:
        return _subgroup_closure(self.group.orders, [g.exponents for g in self.forbidden])


def rds_verify(rds: RelativeDifferenceSet) -> tuple[int, int, int, int]:
    """Brute-force check of the RDS axioms over all k(k-1) quotients.

    Returns (m, n, k, lambda); raises QuotientInN or UnevenCover on failure.
    N is a subgroup, so n divides |G|, and k(k-1) = lambda (|G| - n) holds
    once the quotients cover the classes outside N evenly (0 = 0 for k < 2).
    """
    import numpy as np

    subgroup = rds.forbidden_subgroup()
    n = len(subgroup)
    v = rds.group.order
    m = v // n
    k = len(rds.elements)
    if len({g.exponents for g in rds.elements}) != k:
        raise RdsError("repeated elements in the difference set")

    # each quotient r1 * r2^-1 as one mixed-radix code, in int64 unless the
    # group is too large for it; row r1, column r2, so that row-major order
    # is itertools.permutations order
    orders = rds.group.orders
    weights = [math.prod(orders[i + 1:]) for i in range(len(orders))]
    dtype = np.int64 if v < 2**63 else object
    exps = np.array([g.exponents for g in rds.elements], dtype=dtype).reshape(k, len(orders))
    codes = sum(((col[:, None] - col) % order) * w
                for col, order, w in zip(exps.T, orders, weights))
    inside = np.isin(codes, np.array([sum(e * w for e, w in zip(q, weights)) for q in subgroup],
                                     dtype=dtype))
    np.fill_diagonal(inside, False)
    if inside.any():
        i, j = divmod(int(inside.argmax()), k)
        q = tuple((a - b) % order for a, b, order in
                  zip(rds.elements[i].exponents, rds.elements[j].exponents, orders))
        raise QuotientInN(
            f"quotient {q} of distinct elements lies in the forbidden subgroup"
        )
    counts = np.unique(codes[~np.eye(k, dtype=bool)], return_counts=True)[1].tolist()

    outside = v - n
    if k >= 2:
        multiplicities = set(counts)
        if len(counts) != outside or len(multiplicities) != 1:
            raise UnevenCover("quotients do not cover G\\N evenly")
        lam = multiplicities.pop()
    else:
        lam = 0
    return (m, n, k, lam)


#: largest odd prime for which builtin_rds will synthesize the {(x, x^2)} family
BUILTIN_PRIME_LIMIT = 97


#: factor orders, forbidden-subgroup generators and elements of the builtin
#: RDSs outside the odd-prime family, as exponent tuples
_SMALL_RDS = {
    2: ((4,), [(2,)], [(0,), (1,)]),
    3: ((3, 3), [(1, 0)], [(0, 0), (0, 1), (1, 2)]),
    4: ((4, 4), [(2, 0), (0, 2)], [(0, 0), (1, 0), (0, 1), (3, 3)]),
}


def builtin_rds(d: int) -> RelativeDifferenceSet:
    """The stock (d,d,d,1)-RDS for d in {2, 3, 4} or an odd prime.

    d=2: {1, x} in Z4 relative to <x^2>.
    d=3: {1, y, x*y^2} in Z3 x Z3 relative to <x>.
    d=4: {1, x, y, x^3*y^3} in Z4 x Z4 relative to <x^2, y^2>.
    odd prime p: {(x, x^2) : x in Z_p} in Z_p x Z_p relative to {0} x Z_p.

    mubs_from_rds verifies whatever it is given, so these are not verified
    here; the tests check each one with rds_verify.
    """
    if d in _SMALL_RDS:
        orders, forbidden, elements = _SMALL_RDS[d]
    elif _is_odd_prime(d) and d <= BUILTIN_PRIME_LIMIT:
        orders, forbidden, elements = (d, d), [(0, 1)], [(x, x * x % d) for x in range(d)]
    else:
        raise UnsupportedDimension(
            f"no builtin RDS for d={d}; supply one via the JSON file format"
        )
    group = FiniteAbelianGroup(orders)
    return RelativeDifferenceSet(group, tuple(map(group.element, forbidden)),
                                 tuple(map(group.element, elements)), label=f"builtin:{d}")


def rds_to_json(rds: RelativeDifferenceSet) -> dict:
    return {
        "orders": list(rds.group.orders),
        "forbidden": [list(g.exponents) for g in rds.forbidden],
        "elements": [list(g.exponents) for g in rds.elements],
    }


def rds_from_json(data: dict) -> RelativeDifferenceSet:
    """The RDS of a document read from JSON.  The rules, checked in this
    order: the document is a JSON object with orders, forbidden and elements
    members; orders is a list, and forbidden and elements are lists of
    exponent lists; FiniteAbelianGroup reads the orders and exponents by
    scalars._ints, so 1.7, true or "1" is refused rather than truncated.  A
    broken rule raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("RDS document must be a JSON object")
    if not {"orders", "forbidden", "elements"} <= data.keys():
        raise ValueError("RDS document must have orders, forbidden and elements")
    lists = (list, tuple)
    if not isinstance(data["orders"], lists) or not all(
            isinstance(member, lists) and all(isinstance(e, lists) for e in member)
            for member in (data["forbidden"], data["elements"])):
        raise ValueError("RDS orders must be a list, and forbidden and elements "
                         "lists of exponent lists")
    group = FiniteAbelianGroup(data["orders"])
    return RelativeDifferenceSet(
        group,
        forbidden=tuple(group.element(e) for e in data["forbidden"]),
        elements=tuple(group.element(e) for e in data["elements"]),
        label="file",
    )
