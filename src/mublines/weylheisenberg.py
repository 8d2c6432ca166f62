"""Weyl-Heisenberg generators, the Zauner unitary, and fiducial orbits."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .framecore import DEFAULT_TOL, CVector, LineSet
from .scalars import _check_dimension, _Record


class Fiducial(_Record):
    """A nonzero CVector, vector, and where it came from, source."""

    __slots__ = _FIELDS = ("vector", "source")
    _DEFAULTS = ("user",)

    @property
    def dim(self) -> int:
        return self.vector.dim

    def _check(self):
        if self.vector.is_zero():
            raise ValueError("fiducial vector must be nonzero")


def wh_generators(d: int) -> tuple[np.ndarray, np.ndarray]:
    """U = diag(1, w, ..., w^(d-1)) with w = e^(2*pi*i/d), and the cyclic
    shift V with (Vx)_j = x_(j+1 mod d)."""
    _check_dimension(d)
    omega = cmath.exp(2j * cmath.pi / d)
    u = np.diag([omega ** j for j in range(d)]).astype(complex)
    return u, np.roll(np.eye(d, dtype=complex), 1, axis=1)


def zauner_unitary(d: int) -> np.ndarray:
    """z_jk = e^(pi*i*(d-1)/12)/sqrt(d) * e^(pi*i*(2jk+(d+1)k^2)/d)."""
    _check_dimension(d)
    prefactor = cmath.exp(1j * cmath.pi * (d - 1) / 12) / math.sqrt(d)
    z = np.empty((d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            z[j, k] = prefactor * cmath.exp(
                1j * cmath.pi * (2 * j * k + (d + 1) * k * k) / d
            )
    return z


def wh_orbit(fiducial: Fiducial) -> LineSet:
    """The d^2 vectors U^j V^k x over the coset representatives of the
    center, in (j, k)-lexicographic order."""
    orbit = _coset_representatives(fiducial.dim) @ fiducial.vector.to_array()
    return LineSet.from_parts(np.stack([orbit.real, orbit.imag]),
                              {"construction": "wh-orbit", "fiducial": fiducial.source})


def fiducial_d4() -> Fiducial:
    """The published dimension-4 fiducial: an eigenvalue-1 eigenvector of the
    Zauner unitary, with w = e^(i*pi/4)."""
    omega = cmath.exp(1j * cmath.pi / 4)
    c1 = math.sqrt(3 - 3 / math.sqrt(5)) / (2 * math.sqrt(6))
    c2 = math.sqrt(1 + 3 / math.sqrt(5)) / (2 * math.sqrt(2))
    first = np.array([omega + 1, 1j, omega - 1, 1j], dtype=complex)
    second = np.array([0, omega, 0, -omega], dtype=complex)
    return Fiducial(CVector.make(c1 * first + c2 * second), source="builtin-d4")


def _coset_representatives(d: int) -> np.ndarray:
    """The d^2 products U^j V^k as one (d^2, d, d) array, in (j, k)-lexicographic order."""
    u, v = wh_generators(d)
    us, vs = ([np.linalg.matrix_power(m, j) for j in range(d)] for m in (u, v))
    return np.array([uj @ vk for uj in us for vk in vs])


def normalizer_check(d: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff conjugation by the Zauner unitary maps every coset
    representative U^j V^k to a unit phase times another representative."""
    z = zauner_unitary(d)
    zdag = z.conj().T
    reps = _coset_representatives(d)
    for w in reps:
        conj = z @ w @ zdag
        if not any(_phase_match(conj, rep, tol) for rep in reps):
            return False
    return True


def _phase_match(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Does a = phase * b for some unit phase?  b is a coset representative,
    a monomial unitary, so its largest entry has modulus 1."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - phase * b)) <= tol)
