import math

import numpy as np
import pytest

from coagchain import (ChainValidationError, ConsistencyError, RateTriple,
                       build_script_matrix, bulk_mode, edge_energies,
                       edge_modes, homogeneous_chain, homogeneous_energies,
                       homogeneous_modes, one_particle_spectrum,
                       pairing_residual, secular_function, solve_secular,
                       trivial_zero_modes)
from coagchain.oneparticle import (DegenerateModeWarning, _secular_scaled,
                                   script_matrix_negative_spectrum)
from coagchain.verify import run_verification
from conftest import make_impurity_spec, make_quench_spec, random_chain


def block_eigenvalues(spec):
    return np.linalg.eigvals(build_script_matrix(spec))


class TestHomogeneousEnergies:
    def test_zero_mode_and_count(self):
        sp = homogeneous_energies(RateTriple(0.5, 3.0, 1.0), 6)
        assert sp.lambda_zero == 0.0
        assert sp.count == 8
        assert len(sp.bulk_roots) == 5

    def test_reference_value(self):
        # k=1, L=4, p=1, q=2, delta=1: 2*mu*cos(pi/4) + 2*f = 4cos(pi/4) - 4.5
        sp = homogeneous_energies(RateTriple.from_theta(1.0, 2.0, math.pi / 8), 4)
        assert sp.bulk_roots[0] == pytest.approx(4 * math.cos(math.pi / 4) - 4.5,
                                                 rel=1e-12)

    def test_two_codings_agree(self):
        # angle form vs delta-rational form of the same dispersion
        p, q, theta = 0.5, 3.0, 0.55
        r = RateTriple.from_theta(p, q, theta)
        L = 9
        c2 = math.cos(2 * theta)
        for k in range(1, L):
            angle_form = (2 * math.sqrt(p * q) * math.cos(math.pi * k / L)
                          - (p + q) / 2 * (c2 + 1 / c2)) / c2
            delta_form = 2 * r.mu * math.cos(math.pi * k / L) + 2 * r.f
            assert angle_form == pytest.approx(delta_form, rel=1e-12)
            assert sorted(homogeneous_energies(r, L).bulk_roots)[::-1][k - 1] \
                == pytest.approx(angle_form, rel=1e-12)

    def test_edge_value(self):
        r = RateTriple(0.5, 3.0, 2.0)
        sp = homogeneous_energies(r, 5)
        assert sp.lambda_edge_1 == pytest.approx(-2.5 * 2.0 / 2)
        assert sp.lambda_edge_1 == sp.lambda_edge_2

    def test_zero_hopping_roots_are_2f(self):
        # mu = 0: the band collapses onto 2f, as the Jacobi matrix says
        for rates in (RateTriple(0.0, 3.0, 1.0), RateTriple(2.0, 0.0, 1.0)):
            roots = homogeneous_energies(rates, 6).bulk_roots
            assert np.all(roots == 2 * rates.f)
            assert np.array_equal(
                roots, solve_secular(homogeneous_chain(rates, 3, 3)))


class TestSecularFunction:
    def test_sign_at_zero_matches_root_product(self, homogeneous_spec):
        # g(0) = A * prod(-root_k) with positive leading coefficient A,
        # and every root is negative, so the sign must be +1
        roots = solve_secular(homogeneous_spec)
        assert np.all(roots < 0)
        assert secular_function(homogeneous_spec, 0.0).sign == 1

    def test_value_is_scaled_consistently(self, quench_spec):
        v = secular_function(quench_spec, -1.0)
        assert v.to_float() == pytest.approx(
            v.mantissa * 2.0 ** v.exp2, rel=1e-15)

    def test_rejects_zero_hopping(self):
        r_bad = RateTriple(0.0, 1.0, 0.5)
        r_ok = RateTriple(1.0, 2.0, 0.5)
        from coagchain import JunctionRates, ChainSpec
        spec = ChainSpec(2, 2, r_ok, r_ok, JunctionRates(1, 2, 0.75))
        bad = ChainSpec(2, 2, r_bad, r_ok, JunctionRates(0.0, 1.0, 0.25))
        secular_function(spec, -1.0)
        with pytest.raises(ChainValidationError, match="p\\*q > 0"):
            secular_function(bad, -1.0)


class TestSolveSecular:
    def test_homogeneous_reduction(self, rng):
        # identical segments with the homogeneous junction must reproduce
        # the closed-form energies of the glued chain
        for _ in range(20):
            p, q = rng.uniform(0.2, 3.0, 2)
            theta = float(rng.uniform(0.0, 0.75))
            r = RateTriple.from_theta(float(p), float(q), theta)
            spec = homogeneous_chain(r, 5, 5)
            roots = solve_secular(spec)
            expected = homogeneous_energies(r, 10).bulk_roots
            np.testing.assert_allclose(roots, expected, atol=1e-9)

    def test_impurity_zero_shift_is_homogeneous(self):
        spec = make_impurity_spec(L=5, s=0.0)
        roots = solve_secular(spec)
        expected = homogeneous_energies(spec.seg1, 10).bulk_roots
        np.testing.assert_allclose(roots, expected, atol=1e-9)

    def test_quench_roots_match_block_matrix(self):
        spec = make_quench_spec(L=4)
        roots = solve_secular(spec)
        neg = list(script_matrix_negative_spectrum(block_eigenvalues(spec)))
        e1, e2 = edge_energies(spec)
        for target in (0.0, e1, e2):
            neg.pop(int(np.argmin([abs(v - target) for v in neg])))
        np.testing.assert_allclose(roots, sorted(neg)[::-1], atol=1e-8)

    def test_all_roots_nonpositive_random(self, rng):
        for _ in range(15):
            spec = random_chain(rng)
            roots = solve_secular(spec)
            assert len(roots) == spec.n_sites - 1
            assert np.all(roots <= 1e-10)

    def test_secular_signs_alternate_random(self, rng):
        # the Chebyshev form changes sign strictly between neighbouring
        # roots, so each eigenvalue sits in its own sign interval
        for _ in range(60):
            spec = random_chain(rng, int(rng.integers(1, 16)),
                                int(rng.integers(1, 16)))
            roots = solve_secular(spec)
            assert len(roots) == spec.n_sites - 1
            signs = [secular_function(spec, 0.5 * (a + b)).sign
                     for a, b in zip(roots[:-1], roots[1:])]
            assert 0 not in signs
            assert all(s * t == -1 for s, t in zip(signs[:-1], signs[1:]))

    @pytest.mark.parametrize("spec", [
        make_impurity_spec(L=2000, theta=0.6, s=1.0),
        make_quench_spec(L=2000, delta1=1.0, delta2=1.3),
    ], ids=["impurity", "quench"])
    def test_secular_signs_alternate_n4000(self, spec):
        roots = solve_secular(spec)
        assert len(roots) == 3999
        assert roots[0] <= 1e-10
        mant, _ = _secular_scaled(spec, 0.5 * (roots[:-1] + roots[1:]))
        signs = np.sign(mant)
        assert np.all(signs != 0)
        assert np.all(signs[:-1] * signs[1:] == -1)


class TestBlockMatrix:
    def test_dimension(self):
        spec = make_quench_spec(L=3)
        assert build_script_matrix(spec).shape == (16, 16)

    def test_plus_minus_pairing(self):
        assert pairing_residual(block_eigenvalues(make_quench_spec(L=3))) < 1e-9

    def test_negative_set_matches_spectrum(self, rng):
        for _ in range(10):
            spec = random_chain(rng)
            sp = one_particle_spectrum(spec)
            neg = script_matrix_negative_spectrum(block_eigenvalues(spec))
            np.testing.assert_allclose(np.sort(neg),
                                       np.sort(sp.all_values()), atol=1e-8)

    def test_complex_eigenvalues_are_a_consistency_error(self):
        # a valid chain (impurity theta = 0.6, s = 1, N = 40) whose
        # non-normal block matrix has eigenvalues with imaginary part 0.23
        spec = make_impurity_spec(L=20, theta=0.6, s=1.0)
        with pytest.raises(ConsistencyError, match="complex eigenvalues"):
            script_matrix_negative_spectrum(block_eigenvalues(spec))


class TestOneParticleSpectrum:
    def test_route_recorded(self, quench_spec):
        assert one_particle_spectrum(quench_spec).route == "secular"

    def test_edge_values_quench(self, quench_spec):
        sp = one_particle_spectrum(quench_spec)
        assert sp.lambda_edge_1 == pytest.approx(-2.7)
        assert sp.lambda_edge_2 == pytest.approx(-2.9)

    def test_excitation_labels(self, quench_spec):
        values, labels = one_particle_spectrum(quench_spec).excitations()
        assert labels[:2] == ["edge1", "edge2"]
        assert len(values) == quench_spec.n_sites + 1


class TestTrivialZeroModes:
    def test_residuals(self, quench_spec, homogeneous_spec):
        for spec in (quench_spec, homogeneous_spec):
            modes = trivial_zero_modes(spec, build_script_matrix(spec))
            assert len(modes) == 2
            for mv in modes:
                assert mv.residual < 1e-13

    def test_support_is_four_components(self, impurity_spec):
        for mv in trivial_zero_modes(impurity_spec,
                                     build_script_matrix(impurity_spec)):
            assert np.count_nonzero(mv.flat()) == 4


class TestBulkModes:
    def test_random_chain_residuals(self, rng):
        for _ in range(8):
            spec = random_chain(rng)
            matrix_dispersion_check(spec)

    def test_quench_largest_root(self):
        spec = make_quench_spec(L=4)
        lam = float(solve_secular(spec)[0])
        mv = bulk_mode(spec, lam, build_script_matrix(spec))
        assert mv.residual < 1e-9
        assert np.isfinite(mv.aux["v"])

    def test_homogeneous_reduction_all_roots(self):
        # half of these roots are exact segment resonances: each segment's
        # standing wave has a node one site past its junction end
        r = RateTriple.from_theta(0.5, 3.0, 0.35)
        spec = homogeneous_chain(r, 4, 4)
        matrix = build_script_matrix(spec)
        for lam in solve_secular(spec):
            mv = bulk_mode(spec, float(lam), matrix)
            assert mv.residual < 1e-9

    def test_dispersion_consistency(self, quench_spec):
        # both segment dispersions reproduce the eigenvalue at the root
        lam = float(solve_secular(quench_spec)[1])
        mv = bulk_mode(quench_spec, lam, build_script_matrix(quench_spec))
        for x, seg in ((mv.aux["x1"], quench_spec.seg1),
                       (mv.aux["x2"], quench_spec.seg2)):
            lam_disp = (seg.q * x + seg.p / x) / seg.cos_2theta + 2 * seg.f
            assert abs(lam_disp - lam) < 1e-10


def matrix_dispersion_check(spec):
    matrix = build_script_matrix(spec)
    for lam in solve_secular(spec):
        mv = bulk_mode(spec, float(lam), matrix)
        assert mv.residual < 1e-9


class TestEdgeModes:
    def test_quench_energies_and_residuals(self):
        spec = make_quench_spec(L=4)
        modes = edge_modes(spec, build_script_matrix(spec))
        assert len(modes) == 4
        lams = sorted(mv.lam for mv in modes)
        np.testing.assert_allclose(lams, [-2.9, -2.7, 2.7, 2.9], atol=1e-12)
        for mv in modes:
            assert mv.residual < 1e-9

    def test_impurity_edges_coincide(self):
        spec = make_impurity_spec(L=3, s=-0.2)
        modes = edge_modes(spec, build_script_matrix(spec))
        left = sorted(abs(mv.lam) for mv in modes if mv.kind == "left-edge")
        right = sorted(abs(mv.lam) for mv in modes if mv.kind == "right-edge")
        np.testing.assert_allclose(left, right, atol=1e-12)
        for mv in modes:
            assert mv.residual < 1e-9

    def test_degenerate_edge_warns(self):
        r_flat = RateTriple(1.0, 1.0, 1.0)  # p=q: zero edge energy
        spec = homogeneous_chain(r_flat, 3, 3)
        with pytest.warns(DegenerateModeWarning):
            modes = edge_modes(spec, build_script_matrix(spec))
        assert modes == []


class TestHomogeneousModes:
    def test_first_family_energies(self):
        r = RateTriple(0.5, 3.0, 1.2)
        L = 6
        modes = homogeneous_modes(r, L, "first")
        assert len(modes) == L + 1
        lams = sorted(mv.lam for mv in modes)
        want = sorted([(r.q - r.p) / 2 * r.delta, (r.p - r.q) / 2 * r.delta]
                      + list(homogeneous_energies(r, L).bulk_roots))
        np.testing.assert_allclose(lams, want, atol=1e-10)
        for mv in modes:
            assert mv.residual < 1e-9

    def test_second_family_is_opposite(self):
        r = RateTriple(1.4, 0.6, 2.0)
        L = 5
        first = sorted(mv.lam for mv in homogeneous_modes(r, L, "first"))
        second = sorted(mv.lam for mv in homogeneous_modes(r, L, "second"))
        np.testing.assert_allclose(second, sorted(-v for v in first),
                                   atol=1e-10)
        for mv in homogeneous_modes(r, L, "second"):
            assert mv.residual < 1e-9

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_modes(RateTriple(1, 2, 1), 4, "third")


Q0 = homogeneous_chain(RateTriple(2.0, 0.0, 1.0), 3, 3)
P0 = homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3)


@pytest.mark.parametrize("call", [
    lambda: homogeneous_modes(Q0.seg1, 4),
    lambda: edge_modes(Q0, build_script_matrix(Q0)),
    lambda: bulk_mode(Q0, -1.0, build_script_matrix(Q0)),
    lambda: edge_modes(P0, build_script_matrix(P0)),
], ids=["homogeneous-q0", "edge-q0", "bulk-q0", "edge-p0"])
def test_ansatz_needs_hopping(call):
    # the ansatze divide by p, q and mu: a typed error, not a traceback
    with pytest.raises(ChainValidationError, match="p\\*q > 0"):
        call()


def assert_junction_modes_exact(spec):
    # every edge and bulk mode the gluing step builds is an eigenvector
    matrix = build_script_matrix(spec)
    modes = edge_modes(spec, matrix) + [bulk_mode(spec, float(lam), matrix)
                                        for lam in solve_secular(spec)]
    assert len(modes) == 4 + spec.n_sites - 1
    worst = max(modes, key=lambda mv: mv.residual)
    assert worst.residual < 1e-9, (spec.L1, spec.L2, worst.kind, worst.lam)


class TestGluedModes:
    @pytest.mark.parametrize("n_sites", [20, 40, 120])
    @pytest.mark.parametrize("family", ["impurity", "quench"])
    def test_benchmark_families(self, family, n_sites):
        # impurity theta = 0.6, s = 1 and quench delta1 = 1, delta2 = 1.3
        if family == "impurity":
            spec = make_impurity_spec(L=n_sites // 2, theta=0.6, s=1.0)
        else:
            spec = make_quench_spec(L=n_sites // 2, delta1=1.0, delta2=1.3)
        assert_junction_modes_exact(spec)

    def test_random_chains(self, rng):
        for _ in range(40):
            assert_junction_modes_exact(random_chain(
                rng, int(rng.integers(2, 31)), int(rng.integers(2, 31))))

    def test_long_chain_powers_do_not_overflow(self):
        # x**e of the branch bases passes the float range from N = 700 here
        spec = make_impurity_spec(L=400, theta=0.6, s=1.0)
        roots = solve_secular(spec)
        matrix = build_script_matrix(spec)
        modes = edge_modes(spec, matrix) + [bulk_mode(spec, float(lam), matrix)
                                            for lam in (roots[0], roots[-1])]
        assert len(modes) == 6
        assert max(mv.residual for mv in modes) < 1e-9

    def test_quench_battery_passes_at_twenty_sites(self):
        results = run_verification(make_quench_spec(L=10, delta1=1.0,
                                                    delta2=1.3), level="quick")
        assert [r.name for r in results if not r.passed] == []
