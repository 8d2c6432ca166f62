import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from mublines.framecore import CVector, gram_analyze, lines_equal
from mublines.weylheisenberg import (
    Fiducial,
    _orbit,
    fiducial_d4,
    normalizer_check,
    wh_generators,
    wh_orbit,
    zauner_unitary,
)


def test_wh_generators_d2():
    u, v = wh_generators(2)
    assert np.allclose(u, np.diag([1, -1]))
    assert np.allclose(v, np.array([[0, 1], [1, 0]]))


def test_wh_generators_d4():
    u, v = wh_generators(4)
    assert np.max(np.abs(u - np.diag([1, 1j, -1, -1j]))) < 1e-15
    expected_v = np.zeros((4, 4))
    expected_v[0, 1] = expected_v[1, 2] = expected_v[2, 3] = expected_v[3, 0] = 1
    assert np.array_equal(v, expected_v)


def test_shift_has_order_d():
    for d in range(2, 13):
        _, v = wh_generators(d)
        assert np.allclose(np.linalg.matrix_power(v, d), np.eye(d))


def test_weyl_commutation():
    for d in range(2, 13):
        u, v = wh_generators(d)
        omega = cmath.exp(2j * cmath.pi / d)
        assert np.max(np.abs(v @ u - omega * (u @ v))) < 1e-12


def test_zauner_d4_matches_table():
    assert np.max(np.abs(zauner_unitary(4) - fixtures.ZAUNER4_TABLE)) < 1e-12


def test_zauner_identities():
    for d in range(2, 17):
        z = zauner_unitary(d)
        assert np.max(np.abs(z @ z.conj().T - np.eye(d))) < 1e-9
        assert np.max(np.abs(np.linalg.matrix_power(z, 3) - np.eye(d))) < 1e-9


def test_normalizer_check():
    for d in range(2, 11):
        assert normalizer_check(d)


def test_normalizer_negative_control():
    # a Haar-ish random unitary almost surely fails the conjugation test:
    # for unitaries A, B of size d, |tr(A^H B)| = d iff B is a phase times A
    rng = np.random.default_rng(42)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    reps = _orbit(np.eye(4), (4,))
    overlaps = np.abs(np.einsum("aij,bij->ab", (q @ reps @ q.conj().T).conj(), reps))
    ok = bool(np.all(np.any(np.abs(overlaps - 4) <= 1e-9, axis=1)))
    assert not ok


def test_fiducial_d4_is_unit_eigenvector():
    f = fiducial_d4()
    x = f.vector.to_array()
    z = zauner_unitary(4)
    assert np.max(np.abs(z @ x - x)) < 1e-9
    assert abs(np.linalg.norm(x) - 1) < 1e-9


def test_wh_orbit_identity_row_and_size():
    f = fiducial_d4()
    orbit = wh_orbit(f)
    assert len(orbit) == 16
    assert np.max(np.abs(orbit.vectors[0].to_array() - f.vector.to_array())) == 0.0


def test_wh_orbit_equiangular_at_correct_angle():
    report = gram_analyze(wh_orbit(fiducial_d4()))
    assert report.equiangular
    assert abs(report.common_angle - 1 / math.sqrt(5)) < 1e-8


def test_wh_orbit_matches_displayed_pattern():
    f = fiducial_d4()
    orbit = wh_orbit(f)
    table = fixtures.wh4_orbit_table(f.vector.to_array())
    assert lines_equal(orbit, table, 1e-10)


def test_wh_orbit_phase_well_defined():
    f = fiducial_d4()
    spun = Fiducial(CVector.make(cmath.exp(0.7j) * f.vector.to_array()))
    r1 = gram_analyze(wh_orbit(f))
    r2 = gram_analyze(wh_orbit(spun))
    assert r1.common_angle == pytest.approx(r2.common_angle, abs=1e-12)


def test_wh_orbit_of_standard_basis_vector_degenerates():
    e1 = Fiducial(CVector.make([1, 0, 0, 0]))
    orbit = wh_orbit(e1)
    mat = orbit.to_matrix()
    # every orbit vector is a standard basis vector up to phase
    assert np.allclose(np.abs(mat).max(axis=1), 1.0)
    assert not gram_analyze(orbit).equiangular


def test_normalizer_check_says_no_outside_the_normalizer(monkeypatch):
    # a Haar-ish random unitary, in place of Zauner's, almost surely fails
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    from mublines import weylheisenberg as wh

    monkeypatch.setattr(wh, "zauner_unitary", lambda d: q)
    assert not normalizer_check(4)


def _kron_orbit(x, orders):
    """U^j V^k x in (j, k)-lexicographic order over G x G, G = Z_(n_1) x
    ... x Z_(n_m), U^j V^k the kron of each factor's U^(j_i) V^(k_i)."""
    gens = [wh_generators(n) for n in orders]
    rows = []
    for j in np.ndindex(*orders):
        for k in np.ndindex(*orders):
            mat = np.eye(1)
            for (u, v), ji, ki in zip(gens, j, k):
                mat = np.kron(mat, np.linalg.matrix_power(u, ji) @ np.linalg.matrix_power(v, ki))
            rows.append(mat @ x)
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(d,) for d in range(2, 10)] + [(2, 2, 2), (3, 3), (2, 4)]),
       st.integers(0, 2**32 - 1))
def test_orbit_is_the_kron_products_of_the_factors_generators(orders, seed):
    size = math.prod(orders)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=size) + 1j * rng.normal(size=size)
    orbit = _orbit(x, orders)
    assert orbit.shape == (size * size, size)
    assert np.max(np.abs(orbit - _kron_orbit(x, orders))) <= 1e-12 * np.max(np.abs(x))
    assert np.array_equal(orbit[0], x)


def test_wh_orbit_memory_is_the_orbits_size():
    # the orbit of 32^3 complex entries is 0.5 MiB; a stack of the 32^2
    # matrices U^j V^k would be 16 MiB
    rng = np.random.default_rng(32)
    fiducial = Fiducial(CVector.make(rng.normal(size=32) + 1j * rng.normal(size=32)))
    tracemalloc.start()
    try:
        orbit = wh_orbit(fiducial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbit) == 32 * 32
    assert peak <= 8 * 2**20
