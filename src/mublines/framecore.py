"""Complex vectors, line sets, Gram-angle analysis and equivalence moves.

gram_analyze, verify_mubs and constructions.theorem46_predicate all read one
Gram computation, _gram: exact on Gaussian-integer input (Python ints, the
tolerance ignored), double precision otherwise.  Zero vectors, non-finite
entries and non-integral gaussian-int JSON entries raise, never read as "yes".
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .scalars import Scalar, _gauss_if_integral

DEFAULT_TOL = 1e-9


class DimensionMismatch(ValueError):
    pass


class ZeroVectorError(ValueError):
    pass


class NonUnitPhase(ValueError):
    pass


@dataclass(frozen=True)
class CVector:
    entries: tuple[Scalar, ...]

    @staticmethod
    def make(values) -> "CVector":
        return CVector(tuple(Scalar.coerce(v) for v in values))

    @staticmethod
    def gauss(pairs) -> "CVector":
        """Exact vector from (a, b) integer pairs."""
        return CVector(tuple(Scalar.gauss(a, b) for a, b in pairs))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def exact(self) -> bool:
        return all(e.exact for e in self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def norm2(self):
        """Squared norm; an int on the exact path."""
        total = 0
        for e in self.entries:
            total = total + e.abs2()
        return total

    def to_array(self) -> np.ndarray:
        return np.array([e.to_complex() for e in self.entries], dtype=complex)

    def scale(self, factor: Scalar) -> "CVector":
        return CVector(tuple(e * factor for e in self.entries))

    def concat(self, other: "CVector") -> "CVector":
        return CVector(self.entries + other.entries)


def inner(x: CVector, y: CVector) -> Scalar:
    """Standard Hermitian inner product sum x_l * conj(y_l)."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dims {x.dim} and {y.dim}")
    total = Scalar.gauss(0, 0)
    for a, b in zip(x.entries, y.entries):
        total = total + a * b.conj()
    return total


@dataclass(frozen=True)
class LineSet:
    dim: int
    vectors: tuple[CVector, ...]
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for v in self.vectors:
            if v.dim != self.dim:
                raise DimensionMismatch("all vectors must share the set dimension")

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def exact(self) -> bool:
        return all(v.exact for v in self.vectors)

    def to_matrix(self) -> np.ndarray:
        return np.array([v.to_array() for v in self.vectors], dtype=complex)


@dataclass(frozen=True)
class GramReport:
    size: int
    norms: tuple[float, ...]
    angle_clusters: tuple[tuple[float, int], ...]
    equiangular: bool
    common_angle: float | None
    exact: bool

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "norms": list(self.norms),
            "angle_clusters": [[a, m] for a, m in self.angle_clusters],
            "equiangular": self.equiangular,
            "common_angle": self.common_angle,
            "exact": self.exact,
        }


def _cluster_float(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """Transitive-closure clustering: sorted values split at gaps > tol."""
    order = np.sort(values)
    cuts = np.flatnonzero(np.diff(order) > tol) + 1
    return [(float(chunk.mean()), len(chunk)) for chunk in np.split(order, cuts)]


def _gram(sets: list[LineSet], cross: bool = False):
    """The one Gram computation behind every verifier.

    Yields (j, k, mag, norms_j, norms_k), one Gram block at a time: every set
    against itself, then, if cross, every set against each later one.  When
    every entry is a Gaussian integer the block is exact, on Python ints:
    mag[a, b] = |<x_a, y_b>|^2 and the norms are squared.  Otherwise it is
    float64, mag[a, b] = |<x_a, y_b>| and the norms are not squared.  Either
    way mag / outer(norms_j, norms_k) is the normalized value.

    Raises ZeroVectorError on a zero vector and ValueError on a non-finite
    entry or a squared norm that overflows float64.
    """
    exact = all(s.exact for s in sets)
    if exact:  # (re, im) parts, shape (2, n, d)
        parts = [np.array([[(e.re, e.im) for e in v.entries] for v in s.vectors],
                          dtype=object).transpose(2, 0, 1) for s in sets]
    else:
        parts = [(mat, mat.conj().T) for mat in (s.to_matrix() for s in sets)]

    def block(a, b):
        if exact:
            (ar, ai), (br, bi) = a, b
            gr = ar @ br.T + ai @ bi.T
            gi = ai @ br.T - ar @ bi.T
            return gr * gr + gi * gi
        return np.abs(a[0] @ b[1])

    norms = []
    for j, a in enumerate(parts):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            mag = block(a, a)
        if exact:
            nj = (a * a).sum(axis=(0, 2))
        elif not np.isfinite(mag).all():  # a bad entry spoils its whole row
            raise ValueError("line set has a non-finite entry")
        else:
            nj = np.sqrt(np.diag(mag))
        if (nj == 0).any():
            raise ZeroVectorError("line sets may not contain the zero vector")
        norms.append(nj)
        yield j, j, mag, nj, nj
    if cross:  # |<x, y>| <= |x| |y|: blocks between checked sets are finite
        for j, k in itertools.combinations(range(len(parts)), 2):
            yield j, k, block(parts[j], parts[k]), norms[j], norms[k]


def gram_analyze(lines: LineSet, tol: float = DEFAULT_TOL) -> GramReport:
    """Cluster the normalized pairwise inner-product magnitudes.

    Exact (Gaussian-integer) inputs are clustered on rational squared
    magnitudes with the tolerance ignored.
    """
    m = len(lines)
    if m < 2:
        raise ValueError("need at least two vectors")
    _, _, mag, norms, _ = next(_gram([lines]))
    upper = ~np.tri(m, dtype=bool)  # the pairs j < k
    if lines.exact:
        counts: Counter[Fraction] = Counter()
        for (num, den), count in Counter(
                zip(mag[upper], np.outer(norms, norms)[upper])).items():
            counts[Fraction(num, den)] += count
        clusters = tuple((math.sqrt(float(key)), counts[key]) for key in sorted(counts))
        norms = [math.sqrt(n2) for n2 in norms]
    else:
        values = (mag / np.outer(norms, norms))[upper]
        clusters = tuple(_cluster_float(values, tol))
    # transitive closure can chain values far apart into one cluster; such a
    # set is not equiangular (c1_search's pruning table relies on this rule)
    equi = len(clusters) == 1 and (lines.exact or bool(np.ptp(values) <= 10 * tol))
    return GramReport(
        size=m,
        norms=tuple(float(n) for n in norms),
        angle_clusters=clusters,
        equiangular=equi,
        common_angle=clusters[0][0] if equi else None,
        exact=lines.exact,
    )


def verify_mubs(bases: list[LineSet], tol: float = DEFAULT_TOL) -> bool:
    """True iff each basis is orthogonal and all cross-basis normalized
    magnitudes equal 1/sqrt(d); exact, with the tolerance ignored, when every
    entry is a Gaussian integer."""
    if not bases:
        raise ValueError("no bases supplied")
    d = bases[0].dim
    for basis in bases:
        if basis.dim != d:
            raise DimensionMismatch("bases live in different dimensions")
        if len(basis) != d:
            raise ValueError(f"a basis of C^{d} must have exactly {d} vectors")

    exact = all(basis.exact for basis in bases)
    off = ~np.eye(d, dtype=bool)
    target = 1.0 / math.sqrt(d)
    for j, k, mag, nj, nk in _gram(bases, cross=True):
        if exact:
            ok = (mag[off] == 0) if j == k else (mag * d == np.outer(nj, nk))
        else:
            cos = mag / np.outer(nj, nk)
            ok = (cos[off] <= tol) if j == k else (np.abs(cos - target) <= tol)
        if not ok.all():
            return False
    return True


def max_angle(d: int) -> float:
    """The forced common angle 1/sqrt(d+1) of a d^2-line equiangular set."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return 1.0 / math.sqrt(d + 1)


def mub_bound(d: int) -> int:
    """Upper bound d+1 on the number of MUBs in C^d."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return d + 1


def special_bound_f(d) -> float:
    """Bound f(d) = d(2d+1)(2*sqrt(d)+d)^2 / (d^2+4d+2*sqrt(d)) on the number
    of lines in C^(2d) pairwise at angle 1/(1+sqrt(d))."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 1):
        raise ValueError("d must be >= 1")
    s = np.sqrt(d)
    out = d * (2 * d + 1) * (2 * s + d) ** 2 / (d * d + 4 * d + 2 * s)
    return float(out) if out.ndim == 0 else out


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

    if isinstance(transform, EntryPermutation):
        perm = transform.perm
        if sorted(perm) != list(range(lines.dim)):
            raise ValueError("not a permutation of the entry indices")
        vectors = tuple(
            CVector(tuple(v.entries[i] for i in perm)) for v in lines.vectors
        )
    elif isinstance(transform, VectorPhases):
        if len(transform.phases) != len(lines):
            raise ValueError("need one phase per vector")
        phases = [_check_unit(p, tol) for p in transform.phases]
        vectors = tuple(v.scale(p) for v, p in zip(lines.vectors, phases))
    elif isinstance(transform, CoordPhases):
        if len(transform.phases) != lines.dim:
            raise ValueError("need one phase per coordinate")
        phases = [_check_unit(p, tol) for p in transform.phases]
        vectors = tuple(
            CVector(tuple(e * p for e, p in zip(v.entries, phases)))
            for v in lines.vectors
        )
    else:
        raise TypeError(f"unknown transform {transform!r}")
    return LineSet(lines.dim, vectors, dict(lines.provenance))


def lines_equal(a: LineSet, b: LineSet, tol: float = 1e-8) -> bool:
    """True iff the two sets represent the same lines, matched greedily by
    rank-1 projector (Frobenius) distance, each vector up to a global phase."""
    if a.dim != b.dim or len(a) != len(b):
        return False
    am = a.to_matrix()
    bm = b.to_matrix()
    am = am / np.linalg.norm(am, axis=1, keepdims=True)
    bm = bm / np.linalg.norm(bm, axis=1, keepdims=True)
    # for unit x, y and theta = arg<x, y>, |P_x - P_y|_F equals
    # |x - e^(i theta) y| * |x + e^(i theta) y| / sqrt(2), which, unlike
    # 2 - 2|<x, y>|^2, does not cancel near equality; rows go in chunks so
    # memory stays O(chunk * n * d)
    n = len(b)
    chunk = max(1, 2**16 // (n * a.dim))
    dist = np.empty((len(a), n))
    for start in range(0, len(a), chunk):
        x = am[start:start + chunk, None, :]
        phase = np.exp(1j * np.angle(am[start:start + chunk] @ bm.conj().T))
        y = phase[:, :, None] * bm[None, :, :]
        dist[start:start + chunk] = (np.linalg.norm(x - y, axis=2)
                                     * np.linalg.norm(x + y, axis=2) / math.sqrt(2))
    unmatched = list(range(n))
    for j in range(len(a)):
        best = min(unmatched, key=lambda k: (dist[j, k], k))
        if not dist[j, best] <= tol:  # a NaN distance is no match
            return False
        unmatched.remove(best)
    return True


# --- serialization ----------------------------------------------------------


def lineset_to_json(lines: LineSet) -> dict:
    exact = lines.exact
    return {
        "dim": lines.dim,
        "field": "gaussian-int" if exact else "complex-f64",
        "vectors": [
            [[e.re, e.im] for e in v.entries] for v in lines.vectors
        ],
        "provenance": lines.provenance,
    }


def lineset_from_json(data: dict) -> LineSet:
    dim = int(data["dim"])
    exact = data.get("field") == "gaussian-int"
    scale = data.get("scale")
    vectors = []
    for entries in data["vectors"]:
        if exact and scale is None:
            vec = CVector(tuple(_gauss_if_integral(re, im) for re, im in entries))
            if not vec.exact:
                raise ValueError("gaussian-int line set has a non-integer entry")
        else:
            mult = 1.0 if scale is None else float(scale)
            vec = CVector.make([complex(re, im) * mult for re, im in entries])
        vectors.append(vec)
    return LineSet(dim, tuple(vectors), data.get("provenance", {}))


def dump_json(obj: dict, path) -> None:
    # json.dumps runs the C encoder; json.dump to a file never does
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
