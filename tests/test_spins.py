import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagchain import (RateTriple, bulk_coefficients, junction_coefficients,
                       spin_matrices, verify_bulk_identity,
                       verify_junction_identity, homogeneous_junction)
from conftest import random_chain

THETA_GRID = np.linspace(0.0, math.pi / 4, 1000, endpoint=False)
IDENTITY_TOL = 1e-30  # relative, as in the verification battery


def rotation(theta):
    return spin_matrices(RateTriple.from_theta(1.0, 1.0, theta))


class TestSpinMatrices:
    def test_theta_zero(self):
        s = rotation(0.0)
        np.testing.assert_allclose(s.s_z, [[1, 1], [0, -1]], atol=1e-15)
        np.testing.assert_allclose(s.s_plus, [[0, -0.5], [0, 0]], atol=1e-15)

    def test_nilpotency_on_grid(self):
        worst = 0.0
        for theta in THETA_GRID:
            s = rotation(theta)
            worst = max(worst,
                        np.max(np.abs(s.s_plus @ s.s_plus)),
                        np.max(np.abs(s.s_minus @ s.s_minus)))
        assert worst < 1e-14

    def test_sz_reconstruction_on_grid(self):
        worst = 0.0
        for theta in THETA_GRID:
            s = rotation(theta)
            worst = max(worst, np.max(np.abs(
                2 * s.s_plus @ s.s_minus - np.eye(2) - s.s_z)))
        assert worst < 1e-13

    def test_sz_squares_to_identity(self):
        for theta in (0.0, 0.2, 0.5, 0.7):
            s = rotation(theta)
            np.testing.assert_allclose(s.s_z @ s.s_z, np.eye(2), atol=1e-13)

    def test_rejects_out_of_range(self):
        from coagchain import ChainValidationError
        with pytest.raises(ChainValidationError):
            RateTriple.from_theta(1.0, 1.0, math.pi / 4)


class TestBulkCoefficients:
    def test_symmetric_theta_zero(self):
        co = bulk_coefficients(RateTriple(1.0, 1.0, 0.0))
        assert (co.a, co.b, co.c, co.d) == (1.0, 1.0, 2.0, 0.0)
        assert co.h == co.h_bar == 0.5
        assert co.t == 0.0
        assert co.f == -1.0

    def test_t_vanishes_at_equal_rates(self):
        co = bulk_coefficients(RateTriple(1.7, 1.7, 2.3))
        assert co.t == 0.0

    @given(st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_f_closed_form(self, p, q, d):
        co = bulk_coefficients(RateTriple(p, q, d))
        assert co.f == pytest.approx(-(p + q) * (2 + d) / 4, rel=1e-13)


class TestBulkIdentity:
    def test_reference_point(self):
        assert verify_bulk_identity(
            RateTriple.from_theta(0.5, 3.0, 0.1)) <= IDENTITY_TOL

    def test_symmetric_point(self):
        assert verify_bulk_identity(RateTriple(1.0, 1.0, 0.0)) <= IDENTITY_TOL

    @given(st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.floats(0.0, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_random_rates(self, p, q, d):
        assert verify_bulk_identity(RateTriple(p, q, d)) <= IDENTITY_TOL


class TestJunctionCoefficients:
    def test_homogeneous_reduces_to_bulk(self):
        r = RateTriple(0.8, 2.5, 1.6)
        co = bulk_coefficients(r)
        coj = junction_coefficients(r, r, homogeneous_junction(r))
        assert coj.alpha == pytest.approx(co.a, rel=1e-13)
        assert coj.beta == pytest.approx(co.b, rel=1e-13)
        assert coj.gamma == pytest.approx(co.c, rel=1e-13)
        assert coj.delta_c == pytest.approx(co.d, rel=1e-13)
        assert coj.eta == pytest.approx(co.h, rel=1e-13)
        assert coj.eta_bar == pytest.approx(co.h_bar, rel=1e-13)
        assert coj.psi == pytest.approx(co.f, rel=1e-13)

    def test_tau_vanishes_for_symmetric_segments(self):
        seg1 = RateTriple(1.2, 1.2, 0.9)
        seg2 = RateTriple(0.4, 0.4, 2.0)
        coj = junction_coefficients(seg1, seg2,
                                    homogeneous_junction(seg1))
        assert coj.tau == 0.0
        assert coj.tau_bar == 0.0

    def test_eta_defining_formula(self, rng):
        spec = random_chain(rng)
        coj = junction_coefficients(spec.seg1, spec.seg2, spec.junction)
        assert coj.eta == pytest.approx(
            spec.junction.p_bar / (2 * spec.seg1.cos_2theta), rel=1e-13)
        assert coj.eta_bar == pytest.approx(
            spec.junction.q_bar / (2 * spec.seg2.cos_2theta), rel=1e-13)


class TestJunctionIdentity:
    def test_homogeneous(self):
        r = RateTriple(0.5, 3.0, 1.0)
        assert verify_junction_identity(
            r, r, homogeneous_junction(r)) <= IDENTITY_TOL

    def test_quench_reference(self, quench_spec):
        assert verify_junction_identity(quench_spec.seg1, quench_spec.seg2,
                                        quench_spec.junction) <= IDENTITY_TOL

    def test_random_chains(self, rng):
        for _ in range(100):
            spec = random_chain(rng)
            assert verify_junction_identity(
                spec.seg1, spec.seg2, spec.junction) <= IDENTITY_TOL
