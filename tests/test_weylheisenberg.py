import cmath
import math

import numpy as np
import pytest

import fixtures
from mublines.framecore import CVector, gram_analyze, lines_equal
from mublines.weylheisenberg import (
    Fiducial,
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
    for d in (2, 3, 4, 5):
        assert normalizer_check(d)


def test_normalizer_negative_control():
    # a Haar-ish random unitary almost surely fails the conjugation test
    rng = np.random.default_rng(42)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    from mublines import weylheisenberg as wh

    reps = wh._coset_representatives(4)
    ok = all(
        any(wh._phase_match(q @ w @ q.conj().T, rep, 1e-9) for rep in reps)
        for w in reps
    )
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
    # the unitary of test_normalizer_negative_control, in place of Zauner's
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    from mublines import weylheisenberg as wh

    monkeypatch.setattr(wh, "zauner_unitary", lambda d: q)
    assert not normalizer_check(4)
