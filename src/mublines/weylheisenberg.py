"""Weyl-Heisenberg generators, the Zauner unitary, and fiducial orbits."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .framecore import DEFAULT_TOL, CVector, LineSet, _roots
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
    j, k = np.ogrid[:d, :d]
    return (cmath.exp(1j * cmath.pi * (d - 1) / 12) / math.sqrt(d)
            * np.exp(1j * np.pi * (2 * j * k + (d + 1) * k * k) / d))


def wh_orbit(fiducial: Fiducial) -> LineSet:
    """The d^2 vectors U^j V^k x over the coset representatives of the
    center, in (j, k)-lexicographic order."""
    _check_dimension(fiducial.dim)
    orbit = _orbit(fiducial.vector.to_array(), (fiducial.dim,))
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


def _orbit(x: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    """D_(j,k) x for every (j, k) of G x G, G = Z_(n_1) x ... x Z_(n_m), as
    rows in (j, k)-lexicographic order: entry r of D_(j,k) x is
    prod_i zeta_(n_i)^(j_i r_i) * x[r + k].  x is indexed along its first
    axis in mixed radix, n_1 leading as in np.kron, so x = np.eye(d) gives
    the matrices U^j V^k themselves.  The rows are one gather of x by the
    shift table times phases read from _roots(lcm(n_i)), exact +-1, +-i
    when the lcm divides 4; adding 0.0 turns the -0.0 of such a product into
    the +0.0 that a matrix product's sum gives."""
    size = len(x)
    k = np.indices(orders).reshape(len(orders), size, 1)  # the digits of j or k, down
    r = k.reshape(len(orders), 1, size)  # the digits of r, across
    radix = np.reshape(orders, (-1, 1, 1))
    lcm = math.lcm(*orders)
    shift = np.ravel_multi_index(tuple((r + k) % radix), orders)
    power = (lcm // radix * k * r).sum(axis=0) % lcm
    re, im = _roots(lcm)
    phases = (re + 1j * im)[power].reshape((size, 1, size) + (1,) * (x.ndim - 1))
    return (phases * x[shift] + 0.0).reshape((size * size,) + x.shape)


def normalizer_check(d: int) -> bool:
    """True iff conjugation by the Zauner unitary maps every coset
    representative U^j V^k to a unit phase times another, within DEFAULT_TOL."""
    z = zauner_unitary(d)
    reps = _orbit(np.eye(d), (d,))
    cols = np.arange(d * d) % d  # U^j V^k has its entry 1 at (0, k)
    for conj in z @ reps @ z.conj().T:
        phases = conj[0, cols]
        match = (np.abs(np.abs(phases) - 1.0) <= DEFAULT_TOL) & (
            np.abs(conj - phases[:, None, None] * reps).max(axis=(1, 2)) <= DEFAULT_TOL)
        if not match.any():
            return False
    return True
