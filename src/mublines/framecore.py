"""Complex vectors, line sets, Gram-angle analysis and equivalence moves.

gram_analyze, verify_mubs, constructions.theorem46_predicate and
constructions.c1_search all read one Gram computation, _self_grams over a
stack of sets: exact on Gaussian-integer input (the tolerance ignored),
double precision otherwise.  _stack builds the stack; its exact path runs in
int64 when 4 d^3 M^4 <= 2^63 - 1, M the largest |real or imaginary part|,
and in Python ints beyond that bound, so it never overflows.  gram_analyze
and theorem46_predicate read a one-set stack, _self_grams(_stack([lines])),
and c1_search its survivors through _float_reports; _report alone says
"equiangular".  verify_mubs checks the stack of its bases, then each basis
against all later ones in one block row (_block_rows).  Zero vectors,
non-finite entries and non-integral gaussian-int JSON entries raise, never
read as "yes".
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# DEFAULT_TOL and the three bounds live in the numpy-free scalars module, so
# that the CLI can read them before numpy loads; framecore.* names them too
from .scalars import (  # noqa: F401
    DEFAULT_TOL,
    Scalar,
    _indices,
    _ints,
    max_angle,
    mub_bound,
    special_bound_f,
)


#: entries per tile of a chunked computation, about 1 MB per complex
#: temporary: lines_equal's candidate pairs, and c1_search's pair-mask
#: tensors and survivor Grams; the search workload (d <= 5, at most 16
#: candidates) fits in one
_CHUNK = 2**16

#: a float set is equiangular only when its normalized values spread by at
#: most _SPREAD_TOLS * tol, as the transitive closure of its clustering can
#: chain values far apart into one cluster; c1_search's pair masks prune by
#: this same bound
_SPREAD_TOLS = 10


class DimensionMismatch(ValueError):
    pass


class ZeroVectorError(ValueError):
    pass


class NonUnitPhase(ValueError):
    pass


class CVector:
    """A vector of C^d, held as its row: a read-only (2, d) array of the real
    and imaginary parts, Python ints (dtype=object) when every entry is exact
    and float64 otherwise.  dim, exact, is_zero, norm2 and to_array read it.

    CVector(entries) builds the row from its Scalars and keeps them.
    LineSet.vectors gives rows that are views into the set's parts, and
    CVector.make of a 1-D complex or float ndarray a row of its own; such a
    vector makes its Scalars only when .entries is read, from one pool per
    set (per vector for make), so equal entries share one Scalar.  Equality,
    hashing and repr are those of the entries.
    """

    __slots__ = ("_row", "_entries", "_pool")

    def __init__(self, entries: tuple[Scalar, ...]):
        row = np.array([[e.re for e in entries], [e.im for e in entries]],
                       dtype=object if all(e.exact for e in entries) else float)
        row.flags.writeable = False
        self._row, self._entries, self._pool = row, entries, None

    @classmethod
    def _of_row(cls, row: np.ndarray, pool: dict) -> "CVector":
        vector = cls.__new__(cls)
        vector._row, vector._entries, vector._pool = row, None, pool
        return vector

    @staticmethod
    def make(values) -> "CVector":
        if type(values) is np.ndarray and values.ndim == 1 and values.dtype in (complex, float):
            row = np.array((values.real, values.imag))  # a float's imaginary parts are 0.0
            row.flags.writeable = False
            return CVector._of_row(row, {})
        return CVector(tuple(Scalar.coerce(v) for v in values))

    @staticmethod
    def gauss(pairs) -> "CVector":
        """Exact vector from (a, b) integer pairs."""
        return CVector(tuple(Scalar.gauss(a, b) for a, b in pairs))

    @property
    def entries(self) -> tuple[Scalar, ...]:
        if self._entries is None:
            row, pool = self._row, self._pool
            exact = row.dtype == object
            # a float is keyed by its bits, so 0.0 and -0.0 stay apart
            keys = list(zip(*(row if exact else row.view(np.uint64)).tolist()))
            for key, value in zip(keys, zip(*row.tolist())):
                if key not in pool:
                    pool[key] = Scalar(*value, exact)
            self._entries = tuple(map(pool.__getitem__, keys))
        return self._entries

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
        return self._row.dtype == object or not self._row.size  # no entry: vacuously

    def is_zero(self) -> bool:
        return not self._row.any()

    def norm2(self):
        """Squared norm; an int on the exact path."""
        re, im = self._row
        with np.errstate(over="ignore"):  # inf, as Scalar.abs2 gives it
            squares = (re * re + im * im).tolist()
        total = 0
        for square in squares:  # in order, as the float sum rounds
            total = total + square
        return total

    def to_array(self) -> np.ndarray:
        return _complex(self._row)


def inner(x: CVector, y: CVector) -> Scalar:
    """Standard Hermitian inner product sum x_l * conj(y_l)."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dims {x.dim} and {y.dim}")
    total = Scalar.gauss(0, 0)
    for a, b in zip(x.entries, y.entries):
        total = total + a * b.conj()
    return total


class LineSet:
    """Lines in C^dim as one read-only array, parts, of shape (2, n, dim):
    the real and imaginary parts of the n spanning vectors, Python ints
    (dtype=object) in an exact Gaussian-integer set and float64 otherwise.

    LineSet(dim, vectors, provenance) stacks the rows of CVectors (see
    CVector), exact iff every vector is; LineSet.from_parts copies an array.
    .vectors, built on first use, holds one CVector per line whose row is a
    view into parts; no Scalar is made until a vector's .entries is read.
    """

    def __init__(self, dim: int, vectors, provenance: dict | None = None):
        if any(v.dim != dim for v in vectors):
            raise DimensionMismatch("all vectors must share the set dimension")
        exact = all(v.exact for v in vectors)  # a float set floats its exact rows
        parts = np.array([v._row for v in vectors], dtype=object if exact else float)
        self._own(parts.reshape(len(vectors), 2, dim).transpose(1, 0, 2), provenance)

    @classmethod
    def from_parts(cls, parts, provenance: dict | None = None) -> "LineSet":
        lines = cls.__new__(cls)
        lines._own(parts, provenance)
        return lines

    def _own(self, parts, provenance: dict | None) -> None:
        parts = np.array(parts, order="C")  # the set's own copy
        if parts.dtype != object:
            parts = parts.astype(float, copy=False)
        elif not set(map(type, parts.flat)) <= {int}:  # what the exact Gram trusts
            raise ValueError("an exact line set holds Python ints only")
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
        return self._parts.dtype == object

    @property
    def vectors(self) -> tuple[CVector, ...]:
        """The lines as CVectors backed by rows of parts; equal entries share
        one Scalar of the set's pool."""
        if self._vectors is None:
            pool: dict = {}
            self._vectors = tuple(CVector._of_row(row, pool)
                                  for row in self._parts.transpose(1, 0, 2))
        return self._vectors

    def to_matrix(self) -> np.ndarray:
        return _complex(self._parts)


def _complex(parts: np.ndarray) -> np.ndarray:
    """The complex array parts[0] + i parts[1]."""
    mat = np.empty(parts.shape[1:], dtype=complex)
    mat.real, mat.imag = parts
    return mat


def _cmul(x: np.ndarray, re, im) -> tuple[np.ndarray, np.ndarray]:
    """(x[0] + i x[1]) * (re + i im) entrywise, as (real, imaginary) parts,
    with the rounding of Scalar.__mul__ and no warning: a non-finite product
    meets _self_grams' finiteness check before any verdict."""
    with np.errstate(invalid="ignore", over="ignore"):
        return x[0] * re - x[1] * im, x[0] * im + x[1] * re


@dataclass(frozen=True)
class GramReport:
    size: int
    norms: tuple[float, ...]
    angle_clusters: tuple[tuple[float, int], ...]
    equiangular: bool
    common_angle: float | None
    exact: bool

    def to_json(self) -> dict:
        """The fields, with lists for tuples."""
        return dict(vars(self), norms=list(self.norms),
                    angle_clusters=[list(cluster) for cluster in self.angle_clusters])


def _report(norms: tuple[float, ...], clusters: tuple[tuple[float, int], ...],
            spread: float | None = None, tol: float | None = None) -> GramReport:
    """The GramReport of a set from its norms and angle clusters: equiangular
    iff one cluster and, for a float set (spread, the range of its
    normalized values, given), a spread of at most _SPREAD_TOLS * tol."""
    exact = spread is None
    equi = len(clusters) == 1 and (exact or spread <= _SPREAD_TOLS * tol)
    return GramReport(size=len(norms), norms=norms, angle_clusters=clusters,
                      equiangular=equi, common_angle=clusters[0][0] if equi else None,
                      exact=exact)


def _stack(sets) -> np.ndarray:
    """Sets of one shape (n, d) as one stack for _self_grams and _block: the
    (2, S, n, d) int parts when every set is exact, the (S, n, d) complex
    matrices as soon as one is float.  Exact parts are int64 when 4 d^3 M^4
    <= 2^63 - 1, M the largest |part|, and Python ints beyond that: Re<x, y>
    and Im<x, y> are at most 2 d M^2 in size (and so is every partial sum),
    |<x, y>|^2 <= |x|^2 |y|^2 <= 4 d^2 M^4, a squared norm is at most
    2 d M^2, and the spare factor d covers verify_mubs's mag * d."""
    parts = np.stack([s.parts for s in sets], axis=1)  # object if any set is exact
    if not all(s.exact for s in sets):  # float the whole stack, exact sets too
        return _complex(parts)
    try:  # one cast, which also finds M
        ints = parts.astype(np.int64)
    except OverflowError:  # a part past int64, so past the bound too
        return parts
    big = max(int(ints.max()), -int(ints.min())) if ints.size else 0
    return ints if 4 * parts.shape[3]**3 * big**4 <= 2**63 - 1 else parts


def _self_grams(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mag, norms) of every set of a stack against itself, shapes (S, n, n)
    and (S, n): stack holds the (2, S, n, d) int parts of exact sets or the
    (S, n, d) complex matrices of float ones.  Exact blocks are exact:
    mag[s, a, b] = |<x_a, x_b>|^2 and the norms are squared, in int64 or
    Python ints as _stack decides.  Float blocks hold mag[s, a, b] =
    |<x_a, x_b>| and unsquared norms.  Either way mag / outer(norms, norms)
    is the normalized value.

    Raises ZeroVectorError on a zero vector and ValueError on a non-finite
    entry or a squared norm that overflows float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mag = _block(stack, _adjoint(stack))
    if stack.dtype != complex:
        norms = (stack * stack).sum(axis=(0, 3))
    elif not np.isfinite(mag).all():  # a bad entry spoils its whole row
        raise ValueError("line set has a non-finite entry")
    else:
        norms = np.sqrt(np.diagonal(mag, axis1=1, axis2=2))
    if (norms == 0).any():
        raise ZeroVectorError("line sets may not contain the zero vector")
    return mag, norms


def _block(a: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """mag of the sets a against the sets b, set by set over any leading
    stack axes, from a and _adjoint(b): |<x, y>|^2 from int parts
    (2, ..., n, d), |<x, y>| from complex matrices (..., n, d)."""
    if a.dtype == complex:
        return np.abs(a @ adjoint)
    (ar, ai), (br, bi) = a, adjoint
    gr = ar @ br + ai @ bi
    gi = ai @ br - ar @ bi
    return gr * gr + gi * gi


def _adjoint(b: np.ndarray) -> np.ndarray:
    """The right operand of _block for b: the conjugate transpose of complex
    matrices, the transposed parts of int ones (_block conjugates those)."""
    return b.conj().swapaxes(-1, -2) if b.dtype == complex else b.swapaxes(-1, -2)


def gram_analyze(lines: LineSet, tol: float = DEFAULT_TOL) -> GramReport:
    """Cluster the normalized pairwise inner-product magnitudes.

    Exact (Gaussian-integer) inputs are clustered on rational squared
    magnitudes with the tolerance ignored; a float set is the one-set case
    of _float_reports.
    """
    m = len(lines)
    if m < 2:
        raise ValueError("need at least two vectors")
    if not lines.exact:
        return _float_reports(lines.parts[:, None], tol)[0]
    (mag,), (norms,) = _self_grams(_stack([lines]))
    upper = ~np.tri(m, dtype=bool)  # the pairs j < k
    counts: Counter[Fraction] = Counter()
    # Python ints: Fraction cross-multiplies, which could wrap in int64
    for (num, den), count in Counter(
            zip(mag[upper].tolist(), np.outer(norms, norms)[upper].tolist())).items():
        counts[Fraction(num, den)] += count
    clusters = tuple((math.sqrt(float(key)), counts[key]) for key in sorted(counts))
    return _report(tuple(map(_exact_norm, norms.tolist())), clusters)


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
    m >= 2: one Gram of the stack (_self_grams), then the normalized values
    of each set clustered by transitive closure, its sorted row split at
    gaps > tol.  Each cluster's mean is taken from its own 1-D slice, whose
    rounding a row-wise mean over the stack does not reproduce."""
    m = parts.shape[2]
    mag, norms = _self_grams(_complex(parts))
    np.divide(mag, norms[:, :, None] * norms[:, None, :], out=mag)  # mag is ours
    upper = np.broadcast_to(~np.tri(m, dtype=bool), mag.shape)  # each set's pairs j < k
    order = np.sort(mag[upper].reshape(len(mag), -1), axis=1)
    reports = []
    for row, norm, spread in zip(order, norms.tolist(), (order[:, -1] - order[:, 0]).tolist()):
        cut = [0, *(np.flatnonzero(np.diff(row) > tol) + 1).tolist(), len(row)]
        clusters = tuple((float(row[a:b].sum()) / (b - a), b - a) for a, b in zip(cut, cut[1:]))
        reports.append(_report(tuple(norm), clusters, spread, tol))
    return reports


def verify_mubs(bases: list[LineSet], tol: float = DEFAULT_TOL) -> bool:
    """True iff each basis is orthogonal and all cross-basis normalized
    magnitudes equal 1/sqrt(d); exact, with the tolerance ignored, when every
    basis is exact.

    One Gram of the stacked bases checks every basis, raising on a zero
    vector or a non-finite entry, before any verdict; then each basis meets
    all later ones in one block row (_block_rows): n - 1 products in all,
    in O(d^3) memory.
    """
    if not bases:
        raise ValueError("no bases supplied")
    d = bases[0].dim
    _check_bases(bases, d)

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


@dataclass(frozen=True)
class EntryPermutation:
    """Permute the entries of every vector; perm[i] is the source index."""

    perm: tuple[int, ...]


@dataclass(frozen=True)
class VectorPhases:
    """Multiply vector j by the unit phase phases[j]."""

    phases: tuple


@dataclass(frozen=True)
class CoordPhases:
    """Multiply entry i of every vector by the unit phase phases[i]."""

    phases: tuple


@dataclass(frozen=True)
class Compose:
    parts: tuple


Transform = EntryPermutation | VectorPhases | CoordPhases | Compose


def _check_unit(phase: Scalar, tol: float) -> Scalar:
    phase = Scalar.coerce(phase)
    if phase.exact:
        if phase.abs2() != 1:
            raise NonUnitPhase(f"{phase} is not a Gaussian unit")
    elif abs(math.sqrt(phase.abs2()) - 1.0) > tol:
        raise NonUnitPhase(f"{phase} does not have magnitude 1")
    return phase


def apply_equivalence(lines: LineSet, transform: Transform,
                      tol: float = DEFAULT_TOL) -> LineSet:
    """Apply one of the three line-set equivalence operations (or a
    composition of them)."""
    if isinstance(transform, Compose):
        out = lines
        for part in transform.parts:
            out = apply_equivalence(out, part, tol)
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
        phases = [_check_unit(p, tol) for p in transform.phases]
        if not all(p.exact for p in phases):  # exact iff the set and every phase are
            parts = parts.astype(float, copy=False)
        re, im = np.array([[p.re for p in phases], [p.im for p in phases]], dtype=parts.dtype)
        parts = _cmul(parts, re[:, None], im[:, None]) if vector else _cmul(parts, re, im)
    else:
        raise TypeError(f"unknown transform {transform!r}")
    return LineSet.from_parts(parts, dict(lines.provenance))


def lines_equal(a: LineSet, b: LineSet, tol: float = 1e-8) -> bool:
    """True iff the lines of a can be matched one to one with those of b at
    rank-1 projector (Frobenius) distance at most tol, each vector up to a
    global phase."""
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
    chunk = max(1, _CHUNK // max(1, a.dim))
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
    """field must be "gaussian-int" or "complex-f64" (absent reads as
    complex-f64), dim an integer by scalars._ints (2.0 reads as 2; 2.7, "2"
    and true do not), and entries JSON numbers: integers in a gaussian-int
    set, within float64 range in a complex-f64 one; anything else raises
    ValueError."""
    (dim,) = _ints([data["dim"]], "line-set dim")
    field = data.get("field", "complex-f64")
    if field not in ("gaussian-int", "complex-f64"):
        raise ValueError(f"line-set field must be gaussian-int or complex-f64, got {field!r}")
    rows = data["vectors"]
    flat = _table_entries(rows)
    if flat is None or not set(map(len, rows)) <= {dim}:
        raise DimensionMismatch(f"vectors must be lists of {dim} [re, im] pairs")
    if not set(map(type, flat)) <= {int, float}:
        raise ValueError("line-set entries must be JSON numbers")
    if field == "gaussian-int":
        parts = np.array(_ints(flat, "gaussian-int line set"), dtype=object)
    else:
        try:
            parts = np.fromiter(flat, float, len(flat))
        except OverflowError as exc:
            raise ValueError(f"complex-f64 line set has an entry beyond float64: {exc}")
    return LineSet.from_parts(parts.reshape(len(rows), dim, 2).transpose(2, 0, 1),
                              data.get("provenance", {}))


def _table_entries(rows) -> list | None:
    """The numbers of a table, a list of rows of [re, im] pairs, in order;
    None if rows is not one."""
    if type(rows) not in (list, tuple) or not set(map(type, rows)) <= {list, tuple}:
        return None
    pairs = list(itertools.chain.from_iterable(rows))
    if not set(map(type, pairs)) <= {list, tuple} or not set(map(len, pairs)) <= {2}:
        return None
    return list(itertools.chain.from_iterable(pairs))


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_encode(obj))
        fh.write("\n")


def _encode(obj):
    """json.dumps(obj, sort_keys=True), byte for byte, in pieces, so a large
    document is never held whole; each float table of _float_table is
    encoded once per distinct value.  Only dicts with str keys and lists of
    dicts are walked; anything else goes to json.dumps whole, whose C encoder
    is the fastest there (ints above all)."""
    if type(obj) is dict and all(type(key) is str for key in obj):
        yield "{"
        for n, key in enumerate(sorted(obj)):
            yield f"{', ' if n else ''}{json.dumps(key)}: "
            yield from _encode(obj[key])
        yield "}"
    elif type(obj) is list and obj and all(type(item) is dict for item in obj):
        for n, item in enumerate(obj):
            yield ", " if n else "["
            yield from _encode(item)
        yield "]"
    else:
        text = _float_table(obj) if type(obj) is list else None
        yield json.dumps(obj, sort_keys=True) if text is None else text


#: the fewest floats a table needs to leave json.dumps.  Measured on tables
#: of roots of unity, numpy's fixed cost (~0.15 ms) loses below about 256
#: floats (the d = 4 WH orbit has 128) and wins above (Hoggar's 1,024 take
#: about half the time); 512 leaves a margin
_TABLE_MIN = 512


def _float_table(rows: list) -> str | None:
    """The JSON text of rows if it is a table of _table_entries with nonempty
    rows and at least _TABLE_MIN entries, all floats; None otherwise.
    json.dumps sees each distinct float once, keyed by its bits as in
    CVector.entries, so 0.0 and -0.0 stay apart."""
    try:  # an int table goes back before any pass over it
        if type(rows[0][0][0]) is not float:
            return None
    except (IndexError, KeyError, TypeError):
        return None
    flat = _table_entries(rows)
    if (flat is None or len(flat) < _TABLE_MIN or not all(rows)
            or set(map(type, flat)) != {float}):
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
