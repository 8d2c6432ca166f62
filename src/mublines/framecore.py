"""Complex vectors, line sets, Gram-angle analysis and equivalence moves.

An exact (Gaussian-integer) line set holds its parts as int64 below
_PART_BOUND and as Python ints past it (LineSet).  The verifiers read two
Gram computations.  _self_grams gives the whole Gram of every set of a
stack: exact on Gaussian-integer input (the tolerance ignored), in int64
from one exact float64 BLAS product under the bound of _gram_stack and in
Python ints past it, and double precision otherwise.  gram_analyze of an
exact set, verify_mubs and constructions.theorem46_predicate read it.  A set
may carry integer phases of an odd prime p (LineSet._of_phases, as
mubs_from_rds builds every odd-prime family).  Where its rows form a group
code (_group_code), every Gram entry is a character sum, read in integers
from one row per Galois orbit (_orbit_squares) with the tolerance ignored:
by _phase_certificate for verify_mubs, and by _phase_report for gram_analyze
when every squared sum is rational.  Only where a precondition fails does
the float Gram decide.  _float_reports, behind the float gram_analyze and
the certifier of constructions.c1_search's survivors, walks a float Gram in
row tiles of at most _CHUNK entries and never holds it whole.  _report alone
says "equiangular".  Zero vectors and non-finite entries raise, never read
as "yes".  lineset_from_json builds the array of a line-set document whose
every rule the numpy-free scalars._line_set_entries has checked, and
dump_json writes a document in pieces of at most a block of rows.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat

import numpy as np

# DEFAULT_TOL, the three bounds and the line-set document rules live in the
# numpy-free scalars module, so that the CLI can read them before numpy
# loads; framecore.* names them too
from .scalars import (  # noqa: F401
    DEFAULT_TOL,
    DimensionMismatch,
    Scalar,
    _check_tol,
    _indices,
    _is_odd_prime,
    _Record,
    _line_set_entries,
    _table_entries,
    max_angle,
    mub_bound,
    root_of_unity,
    special_bound_f,
)


#: entries per tile of a chunked computation, about 1 MB per complex
#: temporary: lines_equal's candidate pairs, c1_search's pair-mask tensors
#: and survivor stacks, and the row tiles of _float_reports' Gram walk; the
#: search workload (d <= 5, at most 16 candidates), a 64-line set and a union
#: of up to 256 lines each fit in one.  Each walk sizes its tiles by _tile
_CHUNK = 2**16


def _tile(width: int) -> int:
    """The items per tile of a walk whose items hold width entries each: as
    many as fit in _CHUNK entries, and at least one."""
    return max(1, _CHUNK // max(1, width))


#: a float set is equiangular only when its normalized values spread by at
#: most _SPREAD_TOLS * tol, as the transitive closure of its clustering can
#: chain values far apart into one cluster; c1_search's pair masks prune by
#: this same bound
_SPREAD_TOLS = 10


#: an exact set holds its parts as int64 while every |part| is below this (LineSet)
_PART_BOUND = 2**31


def _exact_parts(parts: np.ndarray) -> np.ndarray:
    """Integer parts (numpy integers or Python ints) as an exact set holds
    them: int64 while every |part| < _PART_BOUND, Python ints otherwise."""
    ints = parts
    if parts.dtype == object:
        try:
            ints = parts.astype(np.int64)
        except OverflowError:  # a part past int64, so past the bound too
            return parts
    if ints.size and not -_PART_BOUND < int(ints.min()) <= int(ints.max()) < _PART_BOUND:
        return parts.astype(object, copy=False)
    return ints.astype(np.int64, copy=False)


class ZeroVectorError(ValueError):
    pass


class NonUnitPhase(ValueError):
    pass


class CVector:
    """A vector of C^d, held as its row: a read-only (2, d) array of the real
    and imaginary parts, integers when every entry is exact and float64
    otherwise.  An exact row is int64 in a view into a set's int64 parts
    (see LineSet), so every |part| is below _PART_BOUND; it is Python ints
    (dtype=object) in a vector built from its Scalars and in a view into a
    set past that bound.  dim, exact, is_zero and to_array read it.

    CVector(entries) builds the row from its Scalars, LineSet.vectors gives
    rows that are views into the set's parts, and CVector.make of a 1-D
    complex or float ndarray a row of its own.  .entries reads the row: a
    fresh Scalar per column on every read, float in a float row, so a vector
    that mixes exact and float Scalars reads back float ones (floated by
    _floats, which refuses an exact entry past float64).  Equality,
    hashing and repr are those of the entries.  A vector of a set with
    phases carries them as _phases = ((phases, p), j), the set's own tuple
    and its row; any other vector holds None.
    """

    __slots__ = ("_row", "_phases")

    def __init__(self, entries: tuple[Scalar, ...]):
        exact = all(e.exact for e in entries)  # no entry: vacuously
        row = np.array([[e.re for e in entries], [e.im for e in entries]],
                       dtype=object if exact else None)
        if not exact:  # a float vector floats its exact entries, by _floats
            row = _floats(row)
        row.flags.writeable = False
        self._row, self._phases = row, None

    @classmethod
    def _of_row(cls, row: np.ndarray, phases: tuple | None = None) -> "CVector":
        vector = cls.__new__(cls)
        vector._row, vector._phases = row, phases
        return vector

    @staticmethod
    def make(values) -> "CVector":
        if type(values) is np.ndarray and values.ndim == 1 and values.dtype in (complex, float):
            row = np.array((values.real, values.imag))  # a float's imaginary parts are 0.0
            row.flags.writeable = False
            return CVector._of_row(row)
        return CVector(tuple(Scalar.coerce(v) for v in values))

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(re, im) for re, im in zip(*self._row.tolist()))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"CVector(entries={self.entries!r})"

    @property
    def dim(self) -> int:
        return self._row.shape[1]

    @property
    def exact(self) -> bool:
        return self._row.dtype != float or not self._row.size  # no entry: vacuously

    def is_zero(self) -> bool:
        return not self._row.any()

    def to_array(self) -> np.ndarray:
        return _complex(self._row)


class LineSet:
    """Lines in C^dim as one read-only array, parts, of shape (2, n, dim):
    the real and imaginary parts of the n spanning vectors, float64 in a
    float set and integers in an exact Gaussian-integer one.  _own decides
    an exact set's storage in one place: int64 while every |part| is below
    _PART_BOUND = 2^31, so that re^2 + im^2 stays inside int64, and Python
    ints (dtype=object) past it.  An operation that can grow a part (an
    L-block's scaling by an exact v) moves to Python ints before a product
    could leave the bound, so no int64 wrap ever reaches a verdict.

    LineSet(dim, vectors) stacks the rows of CVectors (see
    CVector), exact iff every vector is (a float set floats its exact rows
    by _floats), and in int64 when every row is an int64 view;
    LineSet.from_parts copies an array, exact iff it holds integers: a
    numpy integer array or Python ints.  .vectors, built on first use,
    holds one CVector per line whose row is a view into parts; no Scalar is
    made until a vector's .entries is read.

    A set built by _of_phases, whose every entry is a p-th root of unity
    for an odd prime p, is a float set that also keeps its integer phases
    (n, dim) and p, from which verify_mubs certifies a family and
    gram_analyze reports a group code exactly.  Its parts are derived from
    the phases, its exact is False and its JSON is complex-f64, as for any
    float set.  Its vectors carry their phases, and LineSet(dim, vectors)
    keeps them when every vector carries phases of one p, as the union of a
    family's bases does; from_parts and every operation give sets without
    phases.
    """

    def __init__(self, dim: int, vectors):
        if any(v.dim != dim for v in vectors):
            raise DimensionMismatch("all vectors must share the set dimension")
        marks = [v._phases for v in vectors]
        if marks and all(marks) and len({p for (_, p), _ in marks}) == 1:  # phases of one p
            phases = np.array([set_rows[j] for (set_rows, _), j in marks])
            self._keep_phases(phases, marks[0][0][1], None)
            return
        rows = [v._row for v in vectors]
        if not all(v.exact for v in vectors):  # a float set floats its exact rows
            parts = _floats(np.array(rows))  # object where a row holds Python ints
        elif all(row.dtype == np.int64 for row in rows):  # views into int64 sets
            parts = np.array(rows, dtype=np.int64)
        else:
            parts = np.array(rows, dtype=object)
        self._own(parts.reshape(len(vectors), 2, dim).transpose(1, 0, 2), None)

    #: (phases, p) of a set built by _of_phases, or by LineSet(dim, vectors)
    #: of vectors with phases of one p; None for every other set
    _phases = None

    @classmethod
    def from_parts(cls, parts, provenance: dict | None = None) -> "LineSet":
        lines = cls.__new__(cls)
        lines._own(parts, provenance)
        return lines

    @classmethod
    def _of_phases(cls, phases, order: int, provenance: dict | None = None) -> "LineSet":
        """The float set whose entry (j, l) is root_of_unity(phases[j, l], order),
        order an odd prime p, which keeps its phases (n, dim), reduced mod p
        and held in the smallest unsigned type that holds p - 1 (a byte for
        every builtin, an eighth of the parts), and p.  Its parts are read
        from the float table _roots(p), so the phases and the parts cannot
        disagree."""
        if not _is_odd_prime(order):
            raise ValueError(f"a phase order must be an odd prime, got {order}")
        phases = (np.asarray(phases, dtype=np.int64) % order).astype(np.min_scalar_type(order - 1))
        if phases.ndim != 2:
            raise ValueError("phases must have shape (n, dim)")
        lines = cls.__new__(cls)
        lines._keep_phases(phases, order, provenance)
        return lines

    def _keep_phases(self, phases: np.ndarray, order: int, provenance: dict | None) -> None:
        """Own the parts of the reduced phases (n, dim), gathered from
        _roots(order) by take (several times faster here than fancy
        indexing) into a fresh array, and keep (phases, order)."""
        phases.flags.writeable = False
        self._own(_roots(order).take(phases, axis=1), provenance, copy=False)
        self._phases = phases, order

    def _own(self, parts, provenance: dict | None, copy: bool = True) -> None:
        if copy:  # the set's own copy; without it, parts is a fresh C-order array
            parts = np.array(parts, order="C")
        if parts.dtype.kind in "iuO":  # integers: an exact set
            # what the exact Gram trusts: an object array holds Python ints only
            if parts.dtype == object and not set(map(type, parts.flat)) <= {int}:
                raise ValueError("an exact line set holds Python ints only")
            parts = _exact_parts(parts)
        elif parts.dtype.kind == "c":  # astype(float) would drop every imaginary part
            raise ValueError("line-set parts must be real, with re and im along the first axis")
        else:
            parts = parts.astype(float, copy=False)
        if parts.ndim != 3 or len(parts) != 2:
            raise ValueError("line-set parts must have shape (2, n, dim)")
        parts.flags.writeable = False
        self._parts, self._vectors = parts, None
        self.provenance = {} if provenance is None else provenance

    @property
    def parts(self) -> np.ndarray:
        return self._parts

    @property
    def dim(self) -> int:
        return self._parts.shape[2]

    def __len__(self) -> int:
        return self._parts.shape[1]

    @property
    def exact(self) -> bool:
        return self._parts.dtype != float

    @property
    def vectors(self) -> tuple[CVector, ...]:
        """The lines as CVectors backed by rows of parts."""
        if self._vectors is None:
            rows = self._parts.transpose(1, 0, 2)
            if self._phases is None:
                self._vectors = tuple(map(CVector._of_row, rows))
            else:  # the set's tuple and a row index, not a view per vector:
                # the census keeps thousands of these vectors
                held = self._phases
                self._vectors = tuple(CVector._of_row(row, (held, j))
                                      for j, row in enumerate(rows))
        return self._vectors

    def to_matrix(self) -> np.ndarray:
        return _complex(self._parts)


@functools.lru_cache(maxsize=32)
def _roots(order: int) -> np.ndarray:
    """The read-only float parts (2, order) of root_of_unity(t, order), t < order."""
    values = [root_of_unity(t, order) for t in range(order)]
    table = np.array([[z.re for z in values], [z.im for z in values]], dtype=float)
    table.flags.writeable = False
    return table


def _complex(parts: np.ndarray) -> np.ndarray:
    """The complex array parts[0] + i parts[1], floated by _floats."""
    mat = np.empty(parts.shape[1:], dtype=complex)
    mat.real, mat.imag = _floats(parts)
    return mat


def _floats(parts: np.ndarray) -> np.ndarray:
    """parts as float64: the one float conversion of an exact set's parts,
    which raises ValueError, as an exact norm does, for a part past float64."""
    try:
        return parts.astype(float, copy=False)
    except OverflowError:  # a Python int past float64
        raise ValueError("line set has a norm beyond float64") from None


def _cmul(x: np.ndarray, re, im) -> tuple[np.ndarray, np.ndarray]:
    """(x[0] + i x[1]) * (re + i im) entrywise, as (real, imaginary) parts,
    with the rounding of Scalar.__mul__ and no warning: a non-finite product
    meets _self_grams' finiteness check before any verdict."""
    with np.errstate(invalid="ignore", over="ignore"):
        return x[0] * re - x[1] * im, x[0] * im + x[1] * re


class GramReport(_Record):
    """size: int, norms: tuple of floats, angle_clusters: tuple of
    (angle, count), equiangular: bool, common_angle: float or None,
    exact: bool."""

    __slots__ = _FIELDS = ("size", "norms", "angle_clusters", "equiangular", "common_angle",
                           "exact")

    def to_json(self) -> dict:
        """The fields, with lists for tuples."""
        return dict({name: getattr(self, name) for name in self._FIELDS}, norms=list(self.norms),
                    angle_clusters=[list(cluster) for cluster in self.angle_clusters])


def _report(norms: tuple[float, ...], clusters: tuple[tuple[float, int], ...],
            spread: float | None = None, tol: float | None = None) -> GramReport:
    """The GramReport of a set from its norms and angle clusters: equiangular
    iff one cluster and, for a float set (spread, the range of its
    normalized values, given), a spread of at most _SPREAD_TOLS * tol."""
    exact = spread is None
    equi = len(clusters) == 1 and (exact or spread <= _SPREAD_TOLS * tol)
    # positional: the cheap path of _Record, as c1_search reports every survivor
    return GramReport(len(norms), norms, clusters, equi, clusters[0][0] if equi else None, exact)


def _stack(sets) -> np.ndarray:
    """Sets of one shape (n, d) as one stack for _self_grams and _block, by
    _gram_stack: exact iff every set is, the whole stack floated as soon as
    one is float."""
    parts = np.stack([s.parts for s in sets], axis=1)  # object if any set holds Python ints
    if not all(s.exact for s in sets):  # float the whole stack, exact sets too
        parts = _floats(parts)
    return _gram_stack(parts)


def _gram_stack(parts: np.ndarray) -> np.ndarray:
    """The stack of parts (2, S, n, d) of one kind: the (S, n, d) complex
    matrices of float parts, or the exact parts, int64 when 4 d^3 M^4 <=
    2^63 - 1, M the largest |part|, and Python ints beyond that.  Re<x, y>
    and Im<x, y> are at most 2 d M^2 <= 2^31.5 in size (and so is every
    product and partial sum: _block's float64 product is exact),
    |<x, y>|^2 <= |x|^2 |y|^2 <= 4 d^2 M^4, a squared norm is at most
    2 d M^2, and the spare factor d covers verify_mubs's mag * d.  Python
    ints stay Python ints: a set holds them only past _PART_BOUND, and so
    past this bound."""
    if parts.dtype == float:
        return _complex(parts)
    if parts.dtype == object or not parts.size:
        return parts
    big = max(int(parts.max()), -int(parts.min()))
    return parts if 4 * parts.shape[3]**3 * big**4 <= 2**63 - 1 else parts.astype(object)


def _self_grams(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mag, norms) of every set of a stack against itself, shapes (S, n, n)
    and (S, n): stack holds the (2, S, n, d) int parts of exact sets or the
    (S, n, d) complex matrices of float ones, as _gram_stack gives them.
    Exact blocks are exact: mag[s, a, b] = |<x_a, x_b>|^2 and the norms are
    squared, in int64 or Python ints as _gram_stack decides.  Float blocks
    hold mag[s, a, b] = |<x_a, x_b>| and unsquared norms.  Either way
    mag / outer(norms, norms) is the normalized value.

    Raises ZeroVectorError on a zero vector and ValueError on a non-finite
    entry or a squared norm that overflows float64.
    """
    if stack.dtype == complex:
        mag, norms = _float_rows(stack, _adjoint(stack), 0)
    else:
        mag, norms = _block(stack, _adjoint(stack)), (stack * stack).sum(axis=(0, 3))
    _refuse_zero(norms)
    return mag, norms


def _float_rows(rows: np.ndarray, adjoint: np.ndarray, first: int):
    """(_block, unsquared norms) of the complex rows (S, r, d), lines first,
    first + 1, ... of float sets, against the _adjoint of their sets; a
    non-finite entry raises ValueError, and an empty stack passes."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked here
        mag = _block(rows, adjoint)
        if mag.size and not np.isfinite(mag.max()):  # NaN or inf if any entry is
            raise ValueError("line set has a non-finite entry")
        return mag, np.sqrt(np.diagonal(mag, first, axis1=1, axis2=2))


def _refuse_zero(norms: np.ndarray) -> None:
    if (norms == 0).any():
        raise ZeroVectorError("line sets may not contain the zero vector")


def _block(a: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """mag of the sets a against the sets b, set by set over any leading
    stack axes, from a and _adjoint(b): |<x, y>|^2 from int parts
    (2, ..., n, d), |<x, y>| from complex matrices (..., n, d).

    int64 parts, which _gram_stack gives only under its bound, meet b in
    one complex128 product: each real and imaginary part of it is a sum of
    products of parts, every one of them and every partial sum an integer
    of at most 2 d M^2 < 2^53 in size, which float64 holds exactly in any
    order of summation (BLAS without Strassen-type products).  So Re<x, y>
    and Im<x, y> cast back to int64 exactly before they are squared."""
    if a.dtype == complex:
        return np.abs(a @ adjoint)
    if a.dtype == object:
        (ar, ai), (br, bi) = a, adjoint
        gr = ar @ br + ai @ bi
        gi = ai @ br - ar @ bi
    else:
        g = _complex(a) @ adjoint
        gr, gi = g.real.astype(np.int64), g.imag.astype(np.int64)
    return gr * gr + gi * gi


def _adjoint(b: np.ndarray) -> np.ndarray:
    """The right operand of _block for b: the conjugate transpose of complex
    matrices, and of int64 parts as complex ones; the transposed parts of
    Python ints (_block conjugates those)."""
    if b.dtype == object:
        return b.swapaxes(-1, -2)
    return (b if b.dtype == complex else _complex(b)).conj().swapaxes(-1, -2)


#: the sort key of (n, d, ...) tuples by the rational n / d, d > 0
_BY_RATIO = functools.cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])


def gram_analyze(lines: LineSet, tol: float = DEFAULT_TOL) -> GramReport:
    """Cluster the normalized pairwise inner-product magnitudes.

    Exact (Gaussian-integer) inputs are clustered on rational squared
    magnitudes with the tolerance ignored.  So is a set with phases whose
    rows form a group code and whose every |S(u)|^2 is rational
    (_phase_report), from its character sums and with no Gram.  Any other
    float set is the one-set case of _float_reports.
    """
    _check_tol(tol)
    m = len(lines)
    if m < 2:
        raise ValueError("need at least two vectors")
    report = None if lines._phases is None else _phase_report(*lines._phases)
    if report is not None:
        return report
    if not lines.exact:
        return _float_reports(lines.parts[:, None], tol)[0]
    (mag,), (norms,) = _self_grams(_stack([lines]))
    upper = ~np.tri(m, dtype=bool)  # the pairs j < k
    clusters = _exact_clusters(mag[upper], np.outer(norms, norms)[upper])
    return _report(tuple(map(_exact_norm, norms.tolist())), clusters)


def _exact_clusters(num: np.ndarray, den: np.ndarray, weight: int = 1) -> tuple:
    """The clusters (sqrt(n / d), size) of the exact values num / den > 0,
    each standing for weight pairs.  Each value is put in lowest terms, so
    that equal values have equal (num, den), grouped by one sort; the same
    calls run on int64 and on Python ints.  The distinct values are ordered
    by cross-multiplying as Python ints, so no int64 product decides their
    order, and n / d is the correctly rounded float of each, as
    float(Fraction(n, d)) is."""
    common = np.gcd(num, den)  # den > 0: no zero vector
    num, den = num // common, den // common
    order = np.lexsort((num, den))
    num, den = num[order], den[order]
    first = np.concatenate(([True], (num[1:] != num[:-1]) | (den[1:] != den[:-1])))
    sizes = np.diff(np.append(np.flatnonzero(first), len(num))).tolist()
    values = sorted(zip(num[first].tolist(), den[first].tolist(), sizes), key=_BY_RATIO)
    return tuple((math.sqrt(n / d), weight * size) for n, d, size in values)


def _phase_report(phases: np.ndarray, p: int) -> GramReport | None:
    """gram_analyze of a set with phases (N, d) of p, exact, when its rows
    form a group code R and every |S(u)|^2 is rational; None otherwise.
    <x_c, x_e> = S(c - e), so a nonzero u stands for the N pairs (c, c - u),
    and its F_p^*-orbit, whose p - 1 rows share |S(u)|^2 and hold -u with
    u, for N (p - 1) / 2 unordered pairs at |S(u)|^2 / d^2."""
    code = _group_code(phases, p)
    found = None if code is None else _orbit_squares(phases, p, *code[1:])
    if found is None:
        return None
    n, d = phases.shape
    clusters = _exact_clusters(found[1], np.full(len(found[1]), d * d), n * (p - 1) // 2)
    return _report((_exact_norm(d),) * n, clusters)


def _exact_norm(n2: int) -> float:
    """sqrt(n2) of an exact squared norm, correctly rounded; ValueError where
    the norm is beyond float64.  math.sqrt is correctly rounded and float(n2)
    exact while n2 <= 2^53.  Past that, the integer root of n2 * 4^k has at
    least 55 bits, and setting its last bit when the root is inexact leaves
    the one rounding of float() where the true root's would be."""
    if n2 <= 2**53:
        return math.sqrt(n2)
    k = max(0, 55 - n2.bit_length() // 2)
    scaled = n2 << 2 * k
    root = math.isqrt(scaled)
    root |= root * root != scaled
    try:
        return math.ldexp(float(root), -k)
    except OverflowError:
        raise ValueError("line set has a norm beyond float64") from None


def _float_reports(parts: np.ndarray, tol: float) -> list[GramReport]:
    """gram_analyze of each float set of a stack, parts (2, S, m, d) with
    m >= 2.  The Gram of the stack is walked in row tiles of _tile(S m)
    rows, last rows first.  A tile is the product of its rows with every
    column; a product with only some columns would round differently.  At
    the shipped _CHUNK each entry was checked to keep the bits the whole
    Gram gives it (test_a_gram_of_many_tiles_gives_the_full_grams_report),
    and only there: BLAS may round a shorter tile differently, and at
    _CHUNK = 2^12 one norm of the d = 13 union moved by one ulp.  A tile is
    _float_rows of its rows, as _self_grams' float Gram is of all rows, and
    is divided by the norms known by then (its rows' and later rows').
    Its pairs j < k fill its own run of one (S, m(m - 1)/2) array: those of
    its square diagonal block (a cached mask), then the block to its right
    as it stands.  Only their order within the run differs from row-major,
    and the sort undoes that: no value is -0.0, and the one NaN (0/0, where
    a product of norms underflows) has one bit pattern.  A zero vector
    raises after the walk, so that a non-finite entry anywhere raises
    first, as in _self_grams.

    Each set's sorted values are then clustered by transitive closure,
    split at gaps > tol.  One comparison over the stack, in chunks of
    _tile(S) values per set, finds the gaps, and only a set with one finds
    where they are.  A cluster's mean is the sum of its values over its
    size.  The sets with one cluster take their sums from one row-wise sum
    of the stack, which sums each C-contiguous row as numpy sums that row
    alone, bit for bit (test_row_sums_of_a_stack_are_the_sums_of_its_rows);
    a set with gaps sums each cluster's own 1-D slice."""
    sets, m = parts.shape[1:3]
    mats = _complex(parts)
    adjoint = _adjoint(mats)
    norms = np.empty((sets, m))
    order = np.empty((sets, m * (m - 1) // 2))
    rows = _tile(sets * m)
    for r0 in reversed(range(0, m, rows)):
        r1 = min(r0 + rows, m)
        tile, norms[:, r0:r1] = _float_rows(mats[:, r0:r1], adjoint, r0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
            tile[:, :, r0:] /= norms[:, r0:r1, None] * norms[:, None, r0:]
        start, stop = (r * (2 * m - r - 1) // 2 for r in (r0, r1))  # pairs above row r
        mid = stop - (r1 - r0) * (m - r1)
        order[:, start:mid] = tile[:, :, r0:r1][_upper(sets, r1 - r0)].reshape(sets, -1)
        order[:, mid:stop].reshape(sets, r1 - r0, m - r1)[:] = tile[:, :, r1:]
    _refuse_zero(norms)
    order.sort(axis=1)
    size = order.shape[1]
    gaps = np.empty((sets, size - 1), dtype=bool)
    step = _tile(sets)
    for c in range(0, size - 1, step):
        np.greater(np.diff(order[:, c:c + step + 1], axis=1), tol, out=gaps[:, c:c + step])
    single = ~gaps.any(axis=1)
    totals = iter(order.sum(axis=1)[single].tolist())
    spreads = (order[:, -1] - order[:, 0]).tolist()
    reports = []
    for s, (norm, spread, one) in enumerate(zip(norms.tolist(), spreads, single.tolist())):
        if one:
            clusters = ((next(totals) / size, size),)
        else:
            row, cut = order[s], [0, *(np.flatnonzero(gaps[s]) + 1).tolist(), size]
            clusters = tuple((float(row[a:b].sum()) / (b - a), b - a)
                             for a, b in zip(cut, cut[1:]))
        reports.append(_report(tuple(norm), clusters, spread, tol))
    return reports


@functools.lru_cache(maxsize=32)
def _upper(sets: int, n: int) -> np.ndarray:
    """The read-only mask of the pairs j < k of a stack of n x n blocks,
    shape (sets, n, n): no larger than the tile it masks."""
    mask = np.tile(~np.tri(n, dtype=bool), (sets, 1, 1))
    mask.flags.writeable = False
    return mask


def verify_mubs(bases: list[LineSet], tol: float = DEFAULT_TOL) -> bool:
    """True iff each basis is orthogonal and all cross-basis normalized
    magnitudes equal 1/sqrt(d).  The verdict is exact, with the tolerance
    ignored, when every basis is exact (Gaussian integers, the d = 2 and 4
    families) or when every basis carries phases of one odd prime p (every
    odd-prime family of mubs_from_rds) and they form a group code whose
    bases are the cosets of a subgroup: _phase_certificate then decides from
    the d^2 character sums, in O(d^3) integer work.  Otherwise the float
    path decides, and its "yes" at one tol holds at every larger one.

    One Gram of the stacked bases checks every basis, raising on a zero
    vector or a non-finite entry, before any verdict; then each basis meets
    all later ones in one block row (_block_rows): n - 1 products in all,
    in O(d^3) memory.
    """
    _check_tol(tol)
    if not bases:
        raise ValueError("no bases supplied")
    d = bases[0].dim
    _check_bases(bases, d)
    certified = _phase_certificate(bases)
    if certified is not None:
        return certified

    stack = _stack(bases)
    exact = stack.dtype != complex
    mag, norms = _self_grams(stack)
    off = ~np.eye(d, dtype=bool)
    if exact:
        ok = mag[:, off] == 0
    else:
        ok = (mag / (norms[:, :, None] * norms[:, None, :]))[:, off] <= tol
    if not ok.all():
        return False
    target = 1.0 / math.sqrt(d)
    for j, row in enumerate(_block_rows(stack)):
        scale = np.outer(norms[j], norms[j + 1:])
        ok = (row * d == scale) if exact else (np.abs(row / scale - target) <= tol)
        if not ok.all():
            return False
    return True


def _check_bases(bases, d: int) -> None:
    """The one shape rule for bases of C^d: each is d vectors in C^d."""
    for basis in bases:
        if basis.dim != d:
            raise DimensionMismatch(f"a basis in C^{basis.dim} in a family in C^{d}")
        if len(basis) != d:
            raise ValueError(f"a basis of C^{d} must have exactly {d} vectors")


def _phase_certificate(bases) -> bool | None:
    """verify_mubs of bases that all carry phases of one odd prime p
    (LineSet._of_phases), in integers; None when a precondition fails, and
    then the float path decides.  Row c of the phases is the vector x_c =
    (z^c_1, ..., z^c_d), z = e^(2 pi i / p), so <x_c, x_e> = S(c - e) with
    S(u) = sum_l z^u_l, and every squared norm is d.

    - The N rows must be a group code R (_group_code).
    - Let K be the basis holding the zero row.  The first row of every
      basis plus each element of K, and each element of K plus each, must
      lie in that basis: so K is closed under addition, a subgroup, and
      every basis is a coset of K, not merely a tile of the rows.  Then
      the differences within the bases are K \\ {0} and those across them
      R \\ K.
    - So the bases are orthogonal and mutually unbiased iff |S(u)|^2 is 0
      on K \\ {0} and d on R \\ K.  s u lies in K iff u does, so one row
      per F_p^*-orbit decides (_orbit_squares), and an irrational value is
      a "no".

    The tolerance plays no part."""
    phased = [b._phases for b in bases]
    if any(x is None for x in phased) or len({p for _, p in phased}) != 1:
        return None
    p = phased[0][1]
    rows = np.concatenate([t for t, _ in phased])
    code = _group_code(rows, p)
    if code is None:
        return None
    coords, where, r = code
    n, d = rows.shape
    weights = _phase_plan(p, r)[1]
    k0 = where[0] // d * d  # K's first row
    xs = np.concatenate((np.arange(0, n, d), np.arange(k0, k0 + d)))  # every basis's first row, K
    sums = weights @ ((coords[:, xs, None] + coords[:, None, k0:k0 + d]) % p).reshape(r, -1)
    if not (where[sums].reshape(-1, d) // d == (xs // d)[:, None]).all():
        return None
    found = _orbit_squares(rows, p, where, r)
    if found is None:
        return False
    at, squares = found
    return bool((squares == d * (at // d != k0 // d)).all())  # |S|^2 = d off K, 0 on K


def _group_code(rows: np.ndarray, p: int) -> tuple | None:
    """(coords, where, rank) of the rows (N, d) of phases mod p when, as
    vectors of F_p^d, they are a group code: distinct, and as many as their
    span, p^rank.  None otherwise, and for no rows.  The rows are reduced
    one pivot (any nonzero entry left) at a time: coords[k] holds each
    row's coefficient of pivot k, taken before the row is reduced by it,
    and where[sum_k c_k p^k] is the row of coordinates c.  No step here or
    in _orbit_squares uses np.unique: on numpy 2.4.6 it loads numpy.ma when
    asked for the values alone, in 1-D or along an axis (it checks
    np.ma.is_masked), though not with return_index, return_inverse or
    return_counts; np.isin does not load it."""
    n, d = rows.shape
    if not rows.size:
        return None
    # every product and difference below is under p^2 in size
    left, coords, span = rows.astype(np.int32 if p * p < 2**31 else np.int64), [], 1
    while True:
        i, col = divmod(int(left.argmax()), d)
        lead = int(left[i, col])
        if not lead:  # nothing left: the rows lie in the span of the pivots
            break
        coef = left[:, col]
        coords.append(coef)
        span *= p
        if span > n:
            return None
        left = (left - coef[:, None] * (left[i] * pow(lead, -1, p) % p)) % p
    if span != n:
        return None
    r = len(coords)
    ids, weights = _phase_plan(p, r)[:2]
    coords = np.array(coords, dtype=np.int64).reshape(r, n)
    where = np.full(n, -1)
    where[weights @ coords] = ids  # a row's coordinates as one integer < N
    if (where < 0).any():  # a code missed: a row repeated
        return None
    return coords, where, r


def _orbit_squares(rows: np.ndarray, p: int, where: np.ndarray, r: int) -> tuple | None:
    """(at, squares) of a group code of rank r: at[i] is the row u of one
    F_p^*-orbit of R \\ {0} (its first nonzero coordinate 1), squares[i]
    its |S(u)|^2; None when one is irrational.  With n_j = #{l : u_l = j}
    and A the cyclic autocorrelation of n, |S(u)|^2 = sum_k A_k z^k, and
    the only integer relation among 1, z, ..., z^(p - 1) is that they sum
    to 0: so |S(u)|^2 is rational iff A_1 = ... = A_(p - 1), and then it is
    A_0 - A_1.  S(s u) is the Galois conjugate of S(u) by z -> z^s, which
    fixes a rational value, so the whole orbit shares it.  A is read from a
    strided window view of n: a few count rows per orbit, no p x p table."""
    at = where[_phase_plan(p, r)[2]]
    offsets = np.arange(0, len(at) * p, p)[:, None]
    counts = np.bincount((rows[at] + offsets).ravel(), minlength=len(at) * p).reshape(len(at), p)
    twice = np.concatenate((counts, counts[:, :-1]), axis=1)
    s0, s1 = twice.strides  # window[i, k, j] = twice[i, k + j] = n_(j + k) of row i
    window = np.lib.stride_tricks.as_strided(twice, (len(at), p, p), (s0, s1, s1), writeable=False)
    auto = np.einsum("ij,ikj->ik", counts, window)
    if not (auto[:, 1:] == auto[:, 1:2]).all():
        return None
    return at, auto[:, 0] - auto[:, 1]


@functools.lru_cache(maxsize=32)
def _phase_plan(p: int, r: int) -> tuple:
    """The index arrays of _group_code and _orbit_squares for N = p^r rows:
    the row ids, the weights p^k of the coordinates, the codes of the rows
    whose sums they read, one per F_p^*-orbit."""
    reps = np.array([p**k + p**(k + 1) * j for k in range(r) for j in range(p**(r - k - 1))],
                    dtype=np.int64)
    plan = np.arange(p**r), p ** np.arange(r, dtype=np.int64), reps
    for table in plan:  # shared by every later call
        table.flags.writeable = False
    return plan


def _block_rows(stack: np.ndarray):
    """For each set j of a stack of S sets of n vectors but the last, the
    mag block of set j against all later sets side by side, shape
    (n, (S - 1 - j) n), as _block gives it: S - 1 products in all.  Run it
    after _self_grams, as |<x, y>| <= |x| |y| keeps the rows of checked sets
    finite."""
    n, d = stack.shape[-2:]
    adjoint = _adjoint(stack.reshape(*stack.shape[:-3], -1, d))  # every set's columns
    for j in range(stack.shape[-3] - 1):
        yield _block(stack[..., j, :, :], adjoint[..., (j + 1) * n:])


# --- equivalence operations -------------------------------------------------


class EntryPermutation(_Record):
    """Permute the entries of every vector; perm[i] is the source index."""

    __slots__ = _FIELDS = ("perm",)


class VectorPhases(_Record):
    """Multiply vector j by the unit phase phases[j]."""

    __slots__ = _FIELDS = ("phases",)


class CoordPhases(_Record):
    """Multiply entry i of every vector by the unit phase phases[i]."""

    __slots__ = _FIELDS = ("phases",)


class Compose(_Record):
    """Apply each transform of parts in turn."""

    __slots__ = _FIELDS = ("parts",)


Transform = EntryPermutation | VectorPhases | CoordPhases | Compose


def _check_unit(phase: Scalar) -> Scalar:
    phase = Scalar.coerce(phase)
    if phase.exact:
        if phase.abs2() != 1:
            raise NonUnitPhase(f"{phase} is not a Gaussian unit")
    elif not abs(math.sqrt(phase.abs2()) - 1.0) <= DEFAULT_TOL:  # NaN is no unit
        raise NonUnitPhase(f"{phase} does not have magnitude 1")
    return phase


def apply_equivalence(lines: LineSet, transform: Transform) -> LineSet:
    """Apply one of the three line-set equivalence operations (or a
    composition of them); a float phase must be a unit within DEFAULT_TOL."""
    if isinstance(transform, Compose):
        out = lines
        for part in transform.parts:
            out = apply_equivalence(out, part)
        return out

    parts = lines.parts
    if isinstance(transform, EntryPermutation):
        perm = _indices(transform.perm)
        if perm is None or sorted(perm) != list(range(lines.dim)):
            raise ValueError("not a permutation of the entry indices")
        parts = parts[:, :, perm]
    elif isinstance(transform, (VectorPhases, CoordPhases)):
        vector = isinstance(transform, VectorPhases)
        if len(transform.phases) != (len(lines) if vector else lines.dim):
            raise ValueError(f"need one phase per {'vector' if vector else 'coordinate'}")
        phases = [_check_unit(p) for p in transform.phases]
        if not all(p.exact for p in phases):  # exact iff the set and every phase are
            parts = _floats(parts)
        re, im = np.array([[p.re for p in phases], [p.im for p in phases]], dtype=parts.dtype)
        parts = _cmul(parts, re[:, None], im[:, None]) if vector else _cmul(parts, re, im)
    else:
        raise TypeError(f"unknown transform {transform!r}")
    return LineSet.from_parts(parts, dict(lines.provenance))


def lines_equal(a: LineSet, b: LineSet, tol: float = 1e-8) -> bool:
    """True iff the lines of a can be matched one to one with those of b at
    rank-1 projector (Frobenius) distance at most tol, each vector up to a
    global phase."""
    _check_tol(tol)
    if a.dim != b.dim or len(a) != len(b):
        return False
    # each row is first scaled by its largest |entry|, so that its norm
    # cannot overflow (entries past ~1e154) or underflow
    am, bm = (m / np.abs(m).max(axis=1, initial=0, keepdims=True)
              for m in (a.to_matrix(), b.to_matrix()))
    am = am / np.linalg.norm(am, axis=1, keepdims=True)
    bm = bm / np.linalg.norm(bm, axis=1, keepdims=True)
    # for unit x, y, |P_x - P_y|_F^2 = 2 (1 - |<x, y>|^2), so only a pair with
    # |<x, y>|^2 >= 1 - tol^2 / 2 can match.  The margin covers rounding: the
    # norms of am and bm, the Gram entry and the distance below each err by
    # O(d) units of roundoff, under 8 (d + 5) eps together for tol < sqrt(2)
    # (beyond it every pair is a candidate); the margin is eight times that
    gram = am @ bm.conj().T
    margin = 64 * (a.dim + 5) * np.finfo(float).eps
    rows, cols = np.nonzero(gram.real ** 2 + gram.imag ** 2 >= 1 - tol * tol / 2 - margin)
    # a NaN, from a zero or non-finite vector, is never a candidate.  For
    # unit x, y and theta = arg<x, y>, |P_x - P_y|_F equals
    # |x - e^(i theta) y| * |x + e^(i theta) y| / sqrt(2), which, unlike
    # 2 - 2|<x, y>|^2, does not cancel near equality; it decides each
    # candidate, in chunks so memory stays O(n^2 + chunk * d) at any tol
    match = np.zeros(len(rows), dtype=bool)
    chunk = _tile(a.dim)
    for start in range(0, len(rows), chunk):
        j, k = rows[start:start + chunk], cols[start:start + chunk]
        x = am[j]
        y = np.exp(1j * np.angle(gram[j, k]))[:, None] * bm[k]
        dist = np.linalg.norm(x - y, axis=1) * np.linalg.norm(x + y, axis=1) / math.sqrt(2)
        match[start:start + chunk] = dist <= tol
    adj = [[] for _ in range(len(b))]
    for j, k in zip(rows[match].tolist(), cols[match].tolist()):
        adj[j].append(k)
    return _perfect_matching(adj)


def _perfect_matching(adj: list[list[int]]) -> bool:
    """True iff rows j = 0..n-1 can each take their own column from adj[j],
    by one breadth-first augmenting path per row."""
    owner = [-1] * len(adj)  # column -> its row
    taken = [-1] * len(adj)  # row -> its column
    for root in range(len(adj)):
        via, queue, free = {}, [root], -1  # via: column -> the row reaching it
        for j in queue:  # the queue grows as the search reaches owned columns
            for k in adj[j]:
                if k not in via:
                    via[k] = j
                    if owner[k] < 0:
                        free = k
                        break
                    queue.append(owner[k])
            if free >= 0:
                break
        if free < 0:
            return False
        while free >= 0:  # flip the path back to the root
            j = via[free]
            previous = taken[j]
            owner[free], taken[j] = j, free
            free = previous
    return True


# --- serialization ----------------------------------------------------------


def lineset_to_json(lines: LineSet) -> dict:
    return {
        "dim": lines.dim,
        "field": "gaussian-int" if lines.exact else "complex-f64",
        "vectors": lines.parts.transpose(1, 2, 0).tolist(),
        "provenance": lines.provenance,
    }


def lineset_from_json(data: dict) -> LineSet:
    """The LineSet of a line-set document; scalars._line_set_entries holds
    its rules, and raises where one breaks."""
    return _lineset_of(data, *_line_set_entries(data))


def _lineset_of(data: dict, dim: int, exact: bool, flat: list) -> LineSet:
    """The LineSet of a document that _line_set_entries has read as
    (dim, exact, flat)."""
    if not exact:
        parts = np.fromiter(flat, float, len(flat))
    else:  # int64 at once; _own moves parts past _PART_BOUND to Python ints
        try:
            parts = np.array(flat, dtype=np.int64)
        except OverflowError:  # a part past int64
            parts = np.array(flat, dtype=object)
    return LineSet.from_parts(parts.reshape(len(data["vectors"]), dim, 2).transpose(2, 0, 1),
                              data.get("provenance", {}))


def dump_json(obj, path) -> None:
    """Write obj as JSON and a newline to path in pieces of at most a block
    (_encode), in place: an existing file is not truncated on open, which on
    ext4 makes its close flush the new data, but cut at the end of what was
    written; only a regular file, as ftruncate fails on e.g. /dev/null.  A
    failed write leaves a regular file empty, not the new start on the old tail."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    try:
        with open(fd, "w") as fh:
            fh.writelines(_encode(obj))
            fh.write("\n")
            if regular:
                fh.truncate()
    except BaseException:
        if regular:  # after the close, which flushed what it could
            os.truncate(path, 0)
        raise


#: the fewest items in a block of a list that _encode cuts (~170 KB at d = 31)
_BLOCK = 128


def _encode(obj):
    """json.dumps(obj, sort_keys=True), byte for byte, in pieces, so a large
    document is never held whole: a LineSet as its lineset_to_json, made
    only once reached, and any other list of n items as the _leaf texts of
    max(1, n // _BLOCK) near-equal blocks without brackets, joined by ", "
    as json.dumps joins items.  Only LineSets, str-keyed dicts and lists are walked."""
    if type(obj) is LineSet:
        yield from _encode(lineset_to_json(obj))
    elif type(obj) is dict and all(type(key) is str for key in obj):
        yield "{"
        for n, key in enumerate(sorted(obj)):
            yield f"{', ' if n else ''}{json.dumps(key)}: "
            yield from _encode(obj[key])
        yield "}"
    elif type(obj) is list and obj and all(type(item) in (dict, LineSet) for item in obj):
        for n, item in enumerate(obj):
            yield ", " if n else "["
            yield from _encode(item)
        yield "]"
    elif type(obj) is list:
        n, k = len(obj), max(1, len(obj) // _BLOCK)
        for j in range(k):
            yield ", " if j else "["
            yield _leaf(obj[j * n // k:(j + 1) * n // k])[1:-1]
        yield "]"
    else:
        yield json.dumps(obj, sort_keys=True)


def _leaf(rows: list) -> str:
    text = _float_table(rows)
    return json.dumps(rows, sort_keys=True) if text is None else text


def _float_table(rows: list) -> str | None:
    """The JSON text of rows, at most a block of them (_encode), if it is a
    table of _table_entries with nonempty rows, all floats; None otherwise.
    json.dumps sees each distinct float once, keyed by its bits (0.0 and
    -0.0 apart)."""
    try:  # an int table goes back before any pass over it
        if type(rows[0][0][0]) is not float:
            return None
    except (IndexError, KeyError, TypeError):
        return None
    flat = _table_entries(rows)
    if flat is None or not all(rows) or set(map(type, flat)) != {float}:
        return None
    bits = np.fromiter(flat, float, len(flat)).view(np.uint64)
    values, inverse = np.unique(bits, return_inverse=True)
    text = json.dumps(values.view(float).tolist())[1:-1].split(", ")
    # a token per float, "[re" or "im]", and a row's first and last tokens
    # take its brackets too
    tokens = np.array(["[" + t for t in text] + [t + "]" for t in text], dtype=object)[
        (inverse.reshape(-1, 2) + [0, len(text)]).ravel()]
    ends = 2 * np.cumsum(list(map(len, rows)))
    starts = np.concatenate(([0], ends[:-1]))
    tokens[starts] = "[" + tokens[starts]
    tokens[ends - 1] = tokens[ends - 1] + "]"
    return "[" + ", ".join(tokens.tolist()) + "]"
