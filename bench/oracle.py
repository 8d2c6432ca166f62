"""Reference answers for every benchmark input, computed with plain numpy.

Nothing here imports mublines: the oracle sees only arrays of entries, so
a defect in the package cannot agree with itself.  Float inputs get a float
Gram matrix; Gaussian-integer inputs get an exact int64 Gram matrix.

`selfcheck` reproduces the published answers kept in `tests/fixtures.py`
and the test suite before any timing starts.
"""

from __future__ import annotations

import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

#: spread allowed inside the single angle class of a float "yes"; genuine
#: configurations sit near 1e-15 and perturbed ones are off by > 1e-3
TOL = 1e-8

#: int64 products in `exact_equiangular` stay below 2**62 while
#: 2 * d * max|entry|**2 is below this
_EXACT_ENTRY_LIMIT = 2 ** 15


class OracleMismatch(AssertionError):
    """The oracle failed to reproduce a published answer."""


def usable(mat: np.ndarray) -> bool:
    """Finite entries and no zero row: the precondition for any "yes"."""
    return bool(np.all(np.isfinite(mat))) and bool(np.all(np.any(mat != 0, axis=1)))


def normalized_gram(mat: np.ndarray) -> np.ndarray:
    gram = mat @ mat.conj().T
    norms = np.sqrt(np.abs(np.diag(gram)))
    return np.abs(gram) / np.outer(norms, norms)


def float_equiangular(mat: np.ndarray, tol: float = TOL) -> float | None:
    """The common angle of the lines spanned by the rows, or None."""
    if mat.shape[0] < 2 or not usable(mat):
        return None
    off = normalized_gram(mat)[np.triu_indices(mat.shape[0], k=1)]
    if off.max() - off.min() > tol:
        return None
    return float(off.mean())


def exact_gram(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of sum_l x_l conj(y_l) over int64 rows."""
    re = np.asarray(re, dtype=np.int64)
    im = np.asarray(im, dtype=np.int64)
    return re @ re.T + im @ im.T, im @ re.T - re @ im.T


def exact_equiangular(re: np.ndarray, im: np.ndarray) -> Fraction | None:
    """The common squared angle |<x,y>|^2 / (|x|^2 |y|^2), or None."""
    re = np.asarray(re, dtype=np.int64)
    im = np.asarray(im, dtype=np.int64)
    n, d = re.shape
    peak = int(max(np.abs(re).max(), np.abs(im).max()))
    if 2 * d * peak * peak >= _EXACT_ENTRY_LIMIT:
        raise ValueError("entries too large for the int64 oracle")
    gr, gi = exact_gram(re, im)
    mag2 = gr * gr + gi * gi
    norm2 = np.diag(gr)
    if n < 2 or np.any(norm2 == 0):
        return None
    rows, cols = np.triu_indices(n, k=1)
    num = mag2[rows, cols]
    den = norm2[rows] * norm2[cols]
    # a/b == c/d  <=>  a*d == c*b, all in int64
    if np.any(num * den[0] != num[0] * den):
        return None
    return Fraction(int(num[0]), int(den[0]))


def gaussian_parts(values) -> tuple[np.ndarray, np.ndarray] | None:
    """Integer (re, im) arrays of a nested list of [re, im] pairs, or None if
    any entry is not an integer."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr != np.round(arr)):
        return None
    arr = arr.astype(np.int64)
    return arr[..., 0], arr[..., 1]


def is_mub_family(bases, tol: float = TOL) -> bool:
    """Each basis is orthogonal and every cross-basis normalized magnitude
    equals 1/sqrt(d)."""
    mats = [np.asarray(b, dtype=complex) for b in bases]
    d = mats[0].shape[1]
    if any(m.shape != (d, d) or not usable(m) for m in mats):
        return False
    units = [m / np.linalg.norm(m, axis=1, keepdims=True) for m in mats]
    eye = np.eye(d)
    target = 1 / math.sqrt(d)
    for j, a in enumerate(units):
        if np.max(np.abs(np.abs(a @ a.conj().T) - eye)) > tol:
            return False
        for b in units[j + 1:]:
            if np.max(np.abs(np.abs(a @ b.conj().T) - target)) > tol:
                return False
    return True


def mub_union_classes(d: int) -> dict[float, int]:
    """Angle classes of the d^2 union lines of d MUBs in C^d: same-basis
    pairs at 0, cross-basis pairs at 1/sqrt(d)."""
    same = d * math.comb(d, 2)
    total = math.comb(d * d, 2)
    return {0.0: same, 1 / math.sqrt(d): total - same}


def same_lines(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Do the rows of a and b span the same lines, in some order?  Inputs
    must have pairwise distinct lines."""
    if a.shape != b.shape or not usable(a) or not usable(b):
        return False
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    match = np.abs(a @ b.conj().T) > 1 - tol
    return bool(np.all(match.sum(axis=0) == 1) and np.all(match.sum(axis=1) == 1))


def c1_magnitudes(d: int) -> list[float]:
    """Candidate |v| = sqrt(2 +- sqrt(d+1)) of the scaling search (this is
    the search space, not an answer)."""
    root = math.sqrt(d + 1)
    return [math.sqrt(2 + root)] + ([math.sqrt(2 - root)] if 2 - root >= 0 else [])


def c1_candidates(d: int, phase_roots: int) -> list[complex]:
    values = []
    for mag in c1_magnitudes(d):
        for p in range(1 if mag == 0.0 else phase_roots):
            values.append(mag * np.exp(2j * np.pi * p / phase_roots))
    return values


def c1_hits(bases, phase_roots: int, tol: float = TOL) -> list[tuple[tuple[int, ...], complex]]:
    """Every (perm, v) whose single-entry scaling of the d MUBs gives d^2
    equiangular lines, in (perm, candidate) order."""
    mats = np.asarray(bases, dtype=complex)
    d = mats.shape[0]
    values = np.asarray(c1_candidates(d, phase_roots))
    rows, cols = np.triu_indices(d * d, k=1)
    hits = []
    for perm in itertools.permutations(range(1, d + 1)):
        batch = np.broadcast_to(mats, (len(values),) + mats.shape).copy()
        for j, col in enumerate(perm):
            batch[:, j, :, col - 1] *= values[:, None]
        lines = batch.reshape(len(values), d * d, d)
        gram = np.abs(lines @ lines.conj().transpose(0, 2, 1))
        norms = np.sqrt(np.einsum("kii->ki", gram))
        normed = gram / (norms[:, :, None] * norms[:, None, :])
        off = normed[:, rows, cols]
        ok = off.max(axis=1) - off.min(axis=1) <= tol
        hits.extend((perm, complex(values[i])) for i in np.flatnonzero(ok))
    return hits


def theorem46(re: np.ndarray, im: np.ndarray, perm) -> bool:
    """d = 4: with entry pi(j) of basis j zeroed, every cross-basis squared
    inner product equals 2 (exact)."""
    re = np.array(re, dtype=np.int64)
    im = np.array(im, dtype=np.int64)
    d = re.shape[0]
    for j, col in enumerate(perm):
        re[j, :, col - 1] = 0
        im[j, :, col - 1] = 0
    gr, gi = exact_gram(re.reshape(d * d, d), im.reshape(d * d, d))
    mag2 = gr * gr + gi * gi
    cross = np.repeat(np.arange(d), d)
    mask = cross[:, None] != cross[None, :]
    return bool(np.all(mag2[mask] == 2))


def special_bound_f(d: float) -> float:
    s = math.sqrt(d)
    return d * (2 * d + 1) * (2 * s + d) ** 2 / (d * d + 4 * d + 2 * s)


# --- reproducing the published answers --------------------------------------


def pinned_eight_perms(test_file: Path) -> list[tuple[int, ...]]:
    """EIGHT_PERMS as written in the construction tests."""
    tree = ast.parse(test_file.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "EIGHT_PERMS" for t in node.targets
        ):
            return [tuple(p) for p in ast.literal_eval(node.value)]
    raise OracleMismatch(f"EIGHT_PERMS not found in {test_file}")


def lines64_parts(fixtures) -> tuple[np.ndarray, np.ndarray]:
    """The published 64 Gaussian-integer lines in C^8 as int64 (re, im)."""
    pairs = [[fixtures._TOKENS[t] for t in row.split(",")]
             for row in fixtures._LINES64_ROWS]
    return gaussian_parts(pairs)


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise OracleMismatch(what)


def selfcheck(fixtures, eight_perms, fiducial4: np.ndarray) -> dict:
    """Reproduce the known answers; raise OracleMismatch on any miss.

    `fixtures` is tests/fixtures.py, `eight_perms` the test suite's pinned
    d = 4 permutations and `fiducial4` the dimension-4 fiducial vector.
    """
    mub4 = np.array(fixtures.MUB4_TABLE, dtype=complex)
    mub3 = np.array(fixtures.mub3_table(), dtype=complex)
    _expect(is_mub_family(mub4), "MUB4_TABLE is not 4 MUBs")
    _expect(is_mub_family(mub3), "MUB3 table is not 3 MUBs")

    hits = c1_hits(mub4, 4)
    perms = sorted({p for p, _ in hits})
    _expect(len(hits) == 32 and perms == sorted(eight_perms),
            f"d=4 scaling search: {len(hits)} hits over {perms}")
    re4, im4 = gaussian_parts(np.stack([mub4.real, mub4.imag], axis=-1))
    t46 = sorted(p for p in itertools.permutations(range(1, 5))
                 if theorem46(re4, im4, p))
    _expect(t46 == sorted(eight_perms), f"Theorem 4.6 permutations {t46}")
    # d = 3 at one phase root: all six permutations work (v = 0 branch)
    _expect(sorted({p for p, _ in c1_hits(mub3, 1)})
            == sorted(itertools.permutations((1, 2, 3))), "d=3 scaling search")

    re64, im64 = lines64_parts(fixtures)
    gr, gi = exact_gram(re64, im64)
    mag2 = gr * gr + gi * gi
    off = mag2[np.triu_indices(64, k=1)]
    _expect(bool(np.all(np.diag(gr) == 12)), "lines64 norms^2 are not all 12")
    _expect(bool(np.all(off == 16)), "lines64 squared inner products are not all 16")
    _expect(exact_equiangular(re64, im64) == Fraction(1, 9), "lines64 angle")

    orbit = np.array([[[1, 1j, -1, -1j][p] * fiducial4[i] for p, i in row]
                      for row in fixtures.WH4_ORBIT_PATTERN])
    angle = float_equiangular(orbit)
    _expect(angle is not None and abs(angle - 1 / math.sqrt(5)) < TOL,
            f"d=4 WH orbit angle {angle}")
    sixteen = np.array([[complex(e.re, e.im) for e in v.entries]
                        for v in fixtures.sixteen_lines_d4().vectors])
    angle16 = float_equiangular(sixteen)
    _expect(angle16 is not None and abs(angle16 - 1 / math.sqrt(5)) < TOL,
            "published 16 lines in C^4")
    return {"eight_perms": len(eight_perms), "c1_hits_d4": len(hits),
            "lines64_norm2": 12, "lines64_mag2": 16, "wh4_angle": angle}
