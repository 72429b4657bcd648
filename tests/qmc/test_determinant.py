"""Unit tests for the Dirac determinant: ratios, SM updates, stability."""

import numpy as np
import pytest

from repro.qmc import DiracDeterminant


def random_matrix(rng, n=8):
    # Diagonally-dominated => comfortably non-singular.
    return rng.standard_normal((n, n)) + 3.0 * np.eye(n)


@pytest.fixture
def det(rng):
    return DiracDeterminant(random_matrix(rng))


class TestConstruction:
    def test_logdet_matches_numpy(self, rng):
        A = random_matrix(rng)
        det = DiracDeterminant(A)
        sign, logdet = np.linalg.slogdet(A)
        assert np.isclose(det.log_det, logdet)
        assert det.sign == sign

    def test_inverse_correct(self, det):
        assert det.update_error < 1e-12

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            DiracDeterminant(np.ones((4, 4)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            DiracDeterminant(np.zeros((3, 4)))


class TestRatio:
    def test_ratio_matches_direct_determinants(self, rng):
        A = random_matrix(rng)
        det = DiracDeterminant(A)
        u = rng.standard_normal(8)
        r = det.ratio(2, u)
        A2 = A.copy()
        A2[2] = u
        expected = np.linalg.det(A2) / np.linalg.det(A)
        assert np.isclose(r, expected)

    def test_identity_row_gives_unit_ratio(self, det):
        r = det.ratio(3, det.A[3].copy())
        assert np.isclose(r, 1.0)

    def test_ratio_rejects_bad_shape(self, det):
        with pytest.raises(ValueError):
            det.ratio(0, np.zeros(7))

    def test_ratio_grad_matches_definition(self, rng):
        A = random_matrix(rng)
        det = DiracDeterminant(A)
        u = rng.standard_normal(8)
        du = rng.standard_normal((3, 8))
        r, g = det.ratio_grad(1, u, du)
        expected = (du @ det.Ainv[:, 1]) / r
        np.testing.assert_allclose(g, expected)


class TestShermanMorrison:
    def test_accept_updates_inverse_exactly(self, rng):
        A = random_matrix(rng)
        det = DiracDeterminant(A)
        u = rng.standard_normal(8)
        det.ratio(4, u)
        det.accept_move(4)
        A2 = A.copy()
        A2[4] = u
        np.testing.assert_allclose(det.Ainv, np.linalg.inv(A2), atol=1e-10)
        np.testing.assert_allclose(det.A, A2)

    def test_logdet_tracks_updates(self, rng):
        A = random_matrix(rng)
        det = DiracDeterminant(A)
        for e in (0, 3, 7, 3):
            u = rng.standard_normal(8) + 3.0 * np.eye(8)[e]
            det.ratio(e, u)
            det.accept_move(e)
        sign, logdet = np.linalg.slogdet(det.A)
        assert np.isclose(det.log_det, logdet, atol=1e-10)
        assert det.sign == sign

    def test_sign_flip_tracked(self, rng):
        A = np.eye(4)
        det = DiracDeterminant(A)
        u = np.array([-1.0, 0, 0, 0])
        r = det.ratio(0, u)
        assert r < 0
        det.accept_move(0)
        assert det.sign == -1.0

    def test_many_updates_stay_accurate(self, rng):
        A = random_matrix(rng, 12)
        det = DiracDeterminant(A)
        for _ in range(200):
            e = rng.integers(0, 12)
            u = rng.standard_normal(12) + 3.0 * np.eye(12)[e]
            if abs(det.ratio(e, u)) > 0.05:
                det.accept_move(e)
            else:
                det.reject_move(e)
        assert det.update_error < 1e-6  # bounded drift after 200 updates

    def test_recompute_resets_drift(self, rng):
        A = random_matrix(rng)
        det = DiracDeterminant(A)
        for _ in range(50):
            e = int(rng.integers(0, 8))
            det.ratio(e, rng.standard_normal(8) + 3.0 * np.eye(8)[e])
            det.accept_move(e)
        det.recompute()
        assert det.update_error < 1e-12

    def test_reject_leaves_state(self, rng):
        A = random_matrix(rng)
        det = DiracDeterminant(A)
        ainv = det.Ainv.copy()
        det.ratio(1, rng.standard_normal(8))
        det.reject_move(1)
        np.testing.assert_array_equal(det.Ainv, ainv)

    def test_accept_without_ratio_rejected(self, det):
        with pytest.raises(RuntimeError):
            det.accept_move(0)

    def test_accept_wrong_row_rejected(self, det, rng):
        det.ratio(1, rng.standard_normal(8))
        with pytest.raises(RuntimeError):
            det.accept_move(2)
        det.reject_move(1)

    def test_zero_ratio_accept_rejected(self):
        det = DiracDeterminant(np.eye(4))
        det.ratio(0, np.zeros(4))
        with pytest.raises(ZeroDivisionError):
            det.accept_move(0)


class TestGradLap:
    def test_grad_lap_contraction(self, rng):
        A = random_matrix(rng)
        det = DiracDeterminant(A)
        du = rng.standard_normal((3, 8))
        d2u = rng.standard_normal(8)
        g, l = det.grad_lap(5, du, d2u)
        np.testing.assert_allclose(g, du @ det.Ainv[:, 5])
        assert np.isclose(l, d2u @ det.Ainv[:, 5])
