"""Second implementations that the tests compare the library against, one
Scalar or one exponent at a time: the Hermitian product and the squared
norm of vectors, an exact vector from integer pairs, the elements of a
finite abelian group, the phase of a character value as a Fraction, and
the Godsil-Roy bases of a relative difference set."""

import itertools
from fractions import Fraction

from mublines.abelian import char_eval, characters
from mublines.framecore import CVector, DimensionMismatch
from mublines.scalars import Scalar


def inner(x: CVector, y: CVector) -> Scalar:
    """The Hermitian product sum_l x_l * conj(y_l), summed in order: exact
    ints when both vectors are exact."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dims {x.dim} and {y.dim}")
    total = Scalar.gauss(0, 0)
    for a, b in zip(x.entries, y.entries):
        total = total + a * Scalar(b.re, -b.im)
    return total


def norm2(v: CVector):
    """The squared norm sum_l |v_l|^2, summed in order: an int on an exact
    vector, inf where a float square overflows."""
    total = 0
    for entry in v.entries:
        total = total + entry.abs2()
    return total


def gauss_vector(pairs) -> CVector:
    """The exact vector of the Gaussian integers a + bi of (a, b) pairs."""
    return CVector(tuple(Scalar.gauss(a, b) for a, b in pairs))


def elements(group) -> list:
    """All |G| elements of group, in lexicographic order of their exponents."""
    return [group.element(e) for e in itertools.product(*map(range, group.orders))]


def phase_fraction(chi, g) -> Fraction:
    """The t in [0, 1) with chi(g) = e^(2 pi i t): sum_i j_i e_i / n_i mod 1."""
    return sum(Fraction(j * e, n)
               for j, e, n in zip(chi.exponents, g.exponents, chi.group.orders)) % 1


def godsil_roy_bases(rds) -> list:
    """The Godsil-Roy bases one character value at a time: characters grouped
    by their restriction to N, groups in order of their smallest member."""
    subgroup = [rds.group.element(e) for e in sorted(rds.forbidden_subgroup())]
    groups = {}
    for chi in characters(rds.group):
        key = tuple(phase_fraction(chi, g) for g in subgroup)
        groups.setdefault(key, []).append(chi)
    ordered = sorted(groups.values(), key=lambda chars: chars[0].exponents)
    return [[[char_eval(chi, r) for r in rds.elements] for chi in chars]
            for chars in ordered]
