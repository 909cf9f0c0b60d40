import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coagchain import (ConsistencyError, RateTriple, SizeLimitError,
                       assemble_full_spectrum, assemble_generator,
                       brute_force_spectrum, critical_theta, edge_energies,
                       finite_homogeneous_gap, homogeneous_chain,
                       homogeneous_energies, homogeneous_gap,
                       one_particle_spectrum, parity, spectral_gap,
                       vacuum_energy, vacuum_energy_closed_form)
from coagchain import spectrum as spectrum_module
from coagchain.model import DELTA_MAX, ROUNDING
from coagchain.oneparticle import OneParticleSpectrum
from coagchain.spins import junction_coefficients
from conftest import (impurity_chain, make_benchmark_chain,
                      make_impurity_spec, make_quench_spec, mp_chain,
                      quench_chain, random_chain)


class TestVacuumEnergy:
    def test_impurity_positive(self):
        spec = make_impurity_spec(L=3)  # q > p, identical segments
        d = spec.seg1.delta
        assert vacuum_energy_closed_form(spec) == pytest.approx(
            (3.0 - 0.5) / 2 * d)

    def test_quench_vanishes(self, quench_spec):
        assert vacuum_energy_closed_form(quench_spec) == 0.0

    def test_mixed_sign_middle_case(self):
        seg1 = RateTriple(0.5, 2.0, 1.0)   # q > p
        seg2 = RateTriple(2.0, 0.5, 1.0)   # p > q
        from coagchain import build_quench_junction, ChainSpec
        junction, _ = build_quench_junction(seg1, seg2)
        spec = ChainSpec(2, 2, seg1, seg2, junction)
        assert vacuum_energy_closed_form(spec) == 0.0

    def test_dual_computation_random(self, rng):
        for _ in range(30):
            spec = random_chain(rng, L1=int(rng.integers(2, 6)),
                                L2=int(rng.integers(2, 6)))
            sp = one_particle_spectrum(spec)
            omega = vacuum_energy(spec, sp)
            assert omega == pytest.approx(vacuum_energy_closed_form(spec),
                                          abs=1e-8)

    def test_dual_mismatch_raises(self, quench_spec):
        sp = one_particle_spectrum(quench_spec)
        broken = type(sp)(0.0, sp.lambda_edge_1 + 0.5, sp.lambda_edge_2,
                          sp.bulk_roots, sp.route)
        with pytest.raises(ConsistencyError):
            vacuum_energy(quench_spec, broken)

    @pytest.mark.parametrize("family", ["impurity", "quench"])
    @pytest.mark.parametrize("delta", [1.0, 1e9])
    def test_psi_off_by_one_part_in_1e9_raises(self, family, delta,
                                               monkeypatch):
        # the tolerance scales with the terms: one part in 1e9 of psi is
        # caught at delta = 1, and delta = 1e9 is no false alarm
        spec = make_benchmark_chain(family, 120, delta)
        sp = one_particle_spectrum(spec)
        assert vacuum_energy(spec, sp) == vacuum_energy_closed_form(spec)

        def nudged(*args):
            coj = junction_coefficients(*args)
            return dataclasses.replace(coj, psi=coj.psi * (1 + 1e-9))

        monkeypatch.setattr(spectrum_module, "junction_coefficients", nudged)
        with pytest.raises(ConsistencyError, match="vacuum energy mismatch"):
            vacuum_energy(spec, sp)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_deltas=st.tuples(*[st.floats(-3.0, math.log10(DELTA_MAX))] * 2),
           L1=st.integers(2, 200), L2=st.integers(2, 200))
    @settings(max_examples=200, deadline=None)
    def test_no_valid_chain_raises(self, seed, log_deltas, L1, L2):
        deltas = tuple(10.0 ** x for x in log_deltas)
        spec = random_chain(np.random.default_rng(seed), L1, L2, deltas)
        sp = one_particle_spectrum(spec)
        assert vacuum_energy(spec, sp) == vacuum_energy_closed_form(spec)

    def test_returns_closed_form_exactly(self):
        # the first gap-impurity point: the summed energies are 9.4e-14
        # off here, a relative error of 9e-7 in the gap -1.0038e-7
        spec = make_impurity_spec(L=60, theta=0.6, s=-0.5)
        sp = one_particle_spectrum(spec)
        assert vacuum_energy(spec, sp) == vacuum_energy_closed_form(spec)

    def test_sum_route_is_closed_form_at_40_digits(self, rng):
        # the roots sum to tr T, where the (L_i - 1) f_i terms cancel: the
        # sum route is psi + (Q_bar + p_bar + q_bar)/2 - (edge1 + edge2)/2
        # at every N, which is -Q1/2 + Q2/2 + (|Q1| + |Q2|)/2, the closed
        # form's case analysis; p*q = 0 chains cover all three cases
        chains = [random_chain(rng) for _ in range(6)]
        for _ in range(2):
            p, q, d, d2, s = rng.uniform(0.2, 3.0, 5)
            chains += [impurity_chain(RateTriple(0.0, q, d), 3, s),
                       impurity_chain(RateTriple(p, 0.0, d), 3, s),
                       quench_chain(RateTriple(0.0, q, d),
                                    RateTriple(p, 0.0, d2), 3)]
        with mpmath.workdps(40):
            for spec in chains:
                mp = mp_chain(spec)
                j = mp.junction
                psi = junction_coefficients(mp.seg1, mp.seg2, j).psi
                closed = vacuum_energy_closed_form(mp)

                def rel(psi):
                    terms = (psi, (j.Q_bar + j.p_bar + j.q_bar) / 2,
                             -sum(edge_energies(mp)) / 2)
                    return (abs(sum(terms) - closed)
                            / (sum(map(abs, terms)) + abs(closed)))

                assert rel(psi) <= 1e-30, spec
                assert rel(psi * (1 + mpmath.mpf("1e-12"))) > 1e-20, spec

    def test_vieta_consistency(self, rng):
        # the root sum implied by the closed-form vacuum energy matches
        # the numerically found roots
        for _ in range(10):
            spec = random_chain(rng)
            sp = one_particle_spectrum(spec)
            coj = junction_coefficients(spec.seg1, spec.seg2, spec.junction)
            const = ((spec.L1 - 1) * spec.seg1.f
                     + (spec.L2 - 1) * spec.seg2.f + coj.psi)
            implied_sum = 2 * (const - vacuum_energy_closed_form(spec)) \
                - sp.lambda_edge_1 - sp.lambda_edge_2
            assert float(np.sum(sp.bulk_roots)) == pytest.approx(
                implied_sum, abs=1e-8)


class TestParity:
    def test_impurity_is_odd(self):
        assert parity(make_impurity_spec(L=2)) == "odd"

    def test_quench_is_even(self, quench_spec):
        assert parity(quench_spec) == "even"

    def test_symmetric_segments_even(self):
        spec = homogeneous_chain(RateTriple(1.0, 1.0, 1.5), 2, 2)
        assert parity(spec) == "even"

    def test_negative_products_odd(self):
        spec = homogeneous_chain(RateTriple(3.0, 0.5, 1.0), 2, 2)
        assert parity(spec) == "odd"


class TestAssembleFullSpectrum:
    def test_two_site_degenerate_case(self):
        r = RateTriple(1.0, 1.0, 0.0)
        spec = homogeneous_chain(r, 1, 1)
        sp = one_particle_spectrum(spec)
        full = assemble_full_spectrum(sp, 0.0, parity(spec), 2)
        np.testing.assert_allclose(np.sort(full), [-2, -2, 0, 0], atol=1e-10)

    def test_single_edge_excitation_is_stationary(self):
        spec = make_impurity_spec(L=3)
        sp = one_particle_spectrum(spec)
        omega = vacuum_energy(spec, sp)
        # one edge excitation cancels the vacuum energy exactly
        assert omega + sp.lambda_edge_1 == pytest.approx(0.0, abs=1e-9)

    def test_quench_matches_brute_force(self):
        spec = make_quench_spec(L=3)
        sp = one_particle_spectrum(spec)
        omega = vacuum_energy(spec, sp)
        full = assemble_full_spectrum(sp, omega, parity(spec), 6)
        bf = brute_force_spectrum(assemble_generator(spec))
        assert np.max(np.abs(np.sort(bf.real) - np.sort(full))) < 1e-8

    def test_ten_site_chain_matches_brute_force(self):
        # one larger oracle comparison: 1024 eigenvalues; at this size the
        # accuracy limit is the dense eigensolver on the non-normal
        # generator (~1e-7), not the analytic assembly
        spec = make_impurity_spec(L=5, s=0.8)
        sp = one_particle_spectrum(spec)
        omega = vacuum_energy(spec, sp)
        full = assemble_full_spectrum(sp, omega, parity(spec), 10)
        bf = brute_force_spectrum(assemble_generator(spec))
        assert np.max(np.abs(bf.imag)) < 1e-6
        assert np.max(np.abs(np.sort(bf.real) - np.sort(full))) < 1e-6

    def test_count_is_two_to_the_n(self, rng):
        spec = random_chain(rng)
        sp = one_particle_spectrum(spec)
        full = assemble_full_spectrum(sp, vacuum_energy(spec, sp),
                                      parity(spec), spec.n_sites)
        assert len(full) == 2 ** spec.n_sites

    def test_size_guard(self):
        r = RateTriple(0.5, 3.0, 1.0)
        sp = homogeneous_energies(r, 22)
        with pytest.raises(SizeLimitError):
            assemble_full_spectrum(sp, 1.0, "odd", 22)


class TestSpectralGap:
    def test_small_chain_oracle(self, rng):
        for _ in range(10):
            spec = random_chain(rng)
            sp = one_particle_spectrum(spec)
            omega = vacuum_energy(spec, sp)
            result = spectral_gap(sp, omega, parity(spec))
            bf = brute_force_spectrum(assemble_generator(spec)).real
            nonzero = bf[np.abs(bf) > 1e-10 * max(1.0, abs(bf.min()))]
            assert result.gap == pytest.approx(float(nonzero.max()), abs=1e-8)

    def test_quench_pair_labels(self, quench_spec):
        sp = one_particle_spectrum(quench_spec)
        result = spectral_gap(sp, 0.0, "even")
        assert len(result.labels) == 2

    def test_impurity_single_label(self):
        spec = make_impurity_spec(L=3)
        sp = one_particle_spectrum(spec)
        omega = vacuum_energy(spec, sp)
        result = spectral_gap(sp, omega, "odd")
        assert len(result.labels) == 1


def _enumerated_gap(spectrum, omega, par):
    """The O(N^2) reference: every minimal-excitation candidate in
    ``excitations()`` order, the first largest one not indistinguishable
    from zero."""
    values, labels = spectrum.excitations()
    zero_tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    candidates = []
    if par == "odd":
        for lam, lab in zip(values, labels):
            candidates.append((omega + lam, (lab,), (lam,)))
    else:
        for i in range(len(values)):
            for k in range(i + 1, len(values)):
                candidates.append((omega + values[i] + values[k],
                                   (labels[i], labels[k]),
                                   (values[i], values[k])))
    nonzero = [c for c in candidates if abs(c[0]) > zero_tol]
    if not nonzero:
        raise ConsistencyError("all minimal-excitation eigenvalues vanish")
    gap, labs, ens = max(nonzero, key=lambda c: c[0])
    return float(gap), labs, tuple(float(e) for e in ens)


@st.composite
def _gap_inputs(draw):
    """Excitation energies drawn from a small pool, so that edge1 == edge2
    and repeated bulk values are common, with exact zeros and values at
    the zero band; omega puts one candidate at, inside or just outside the
    band +-zero_tol, or makes the sums positive, down to sums that all
    round to omega."""
    pool = draw(st.lists(st.floats(-5.0, 0.0), min_size=1, max_size=4))
    pool += [0.0, -1e-11, -1e-10]
    values = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=40))
    par = draw(st.sampled_from(["odd", "even"]))
    zero_tol = 1e-10 * max(1.0, max(abs(v) for v in values))
    a, b = draw(st.lists(st.integers(0, len(values) - 1), min_size=2,
                         max_size=2, unique=True))
    target = -values[a] if par == "odd" else -(values[a] + values[b])
    shift = draw(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5]))
    omega = draw(st.one_of(st.just(target + shift * zero_tol),
                           st.floats(0.0, 20.0), st.just(0.0),
                           st.sampled_from([1e16, 1e17])))
    return values, omega, par


class TestGapSelection:
    @given(_gap_inputs())
    @example(([0.0, 0.0, -1e-11], 0.0, "odd"))
    @example(([-1.0, -1.0, -1.0, -1.0, -1.0, -1.0], 0.5, "even"))
    # every sum rounds to omega, so the lexicographic first pair lies
    # outside the top four energies and the bound only ties the best
    @example(([-3.0, -3.5, -1.0, -1.5, -2.0, -2.5], 1e17, "even"))
    # the top pairs with the first energy vanish; the fifth energy, not
    # the sixth, bounds the candidates left out
    @example(([-0.5, -1.5, -1.5, -1.5, -1.6, -5.0], 2.0, "even"))
    # (omega + v5) + v1 rounds above (omega + v1) + v5 and ties the best
    @example(([-1.9127555772777218, -0.8132702392002724, -1.9127555772777214,
               -1.9127555772777214, -1.9127555772777214], 0.5413190888213227,
              "even"))
    @settings(max_examples=400, deadline=None)
    def test_matches_enumeration(self, inputs):
        values, omega, par = inputs
        sp = OneParticleSpectrum(0.0, values[0], values[1],
                                 np.array(values[2:]), "secular")
        try:
            want = _enumerated_gap(sp, omega, par)
        except ConsistencyError:
            with pytest.raises(ConsistencyError, match="vanish"):
                spectral_gap(sp, omega, par)
            return
        got = spectral_gap(sp, omega, par)
        assert (got.gap, got.labels, got.energies) == want

    def test_every_candidate_vanishing_raises(self):
        sp = OneParticleSpectrum(0.0, 0.0, 0.0, np.zeros(5), "secular")
        for par in ("odd", "even"):
            with pytest.raises(ConsistencyError, match="vanish"):
                spectral_gap(sp, 0.0, par)

    def test_large_quench_matches_all_pairs(self):
        spec = make_benchmark_chain("quench", 2000)
        sp = one_particle_spectrum(spec)
        omega = vacuum_energy(spec, sp)
        values, labels = sp.excitations()
        i, k = np.triu_indices(len(values), 1)
        sums = (omega + values[i]) + values[k]
        zero_tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
        kept = np.flatnonzero(np.abs(sums) > zero_tol)
        best = kept[np.argmax(sums[kept])]
        got = spectral_gap(sp, omega, "even")
        assert parity(spec) == "even"
        assert got.gap == float(sums[best])
        assert got.labels == (labels[i[best]], labels[k[best]])
        assert got.energies == (float(values[i[best]]),
                                float(values[k[best]]))


class TestFiniteSizeScaling:
    @pytest.mark.parametrize("n_sites", [240, 480, 1000, 4000])
    def test_exact_finite_size_law(self, n_sites):
        # the s = 0 impurity chain is homogeneous: its gap is exactly
        # gap_inf - 2*mu*(1 - cos(pi/L)), here met to rounding of the terms
        rates = RateTriple.from_theta(0.5, 3.0, 0.6)
        spec = make_impurity_spec(n_sites // 2, theta=0.6, s=0.0)
        sp = one_particle_spectrum(spec)
        omega = vacuum_energy(spec, sp)
        result = spectral_gap(sp, omega, parity(spec))
        assert sp.route == "secular" and result.labels == ("bulk1",)
        gap_inf = homogeneous_gap(rates)
        offset = 2 * rates.mu * (1 - math.cos(math.pi / n_sites))
        scale = (abs(omega) + abs(result.energies[0]) + abs(gap_inf)
                 + 2 * rates.mu)
        assert abs(result.gap - (gap_inf - offset)) <= ROUNDING * scale


class TestHomogeneousGap:
    def test_gap_closes_at_transition(self):
        p, q = 0.5, 3.0
        theta = critical_theta(p, q)
        r = RateTriple.from_theta(p, q, theta)
        assert homogeneous_gap(r) == pytest.approx(0.0, abs=1e-12)

    def test_theta_zero_form(self):
        p, q = 0.7, 2.1
        r = RateTriple(p, q, 0.0)
        assert homogeneous_gap(r) == pytest.approx(
            -(math.sqrt(p) - math.sqrt(q)) ** 2, rel=1e-12)

    def test_symmetric_reference_value(self):
        r = RateTriple.from_theta(1.0, 1.0, math.pi / 8)
        assert homogeneous_gap(r) == pytest.approx(
            -2 * (1 - math.sqrt(2) / 2) ** 2, rel=1e-12)

    def test_critical_theta_reference(self):
        assert critical_theta(0.5, 3.0) == pytest.approx(0.575, abs=1e-3)

    def test_finite_gap_converges_from_below(self):
        r = RateTriple.from_theta(0.5, 3.0, 0.5)
        gaps = [finite_homogeneous_gap(r, L) for L in (10, 20, 40, 80)]
        target = homogeneous_gap(r)
        errors = [abs(g - target) for g in gaps]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < abs(target) * 0.02


class TestGapContinuity:
    def test_no_jumps_in_impurity_sweep(self):
        # away from excitation crossings the gap is smooth in the junction
        # shift; adjacent grid differences must stay comparable
        from coagchain import impurity_gap_sweep
        rates = RateTriple.from_theta(0.5, 3.0, 0.5)
        grid = np.linspace(-0.5, 3.0, 41)
        pts = impurity_gap_sweep(rates, 12, grid)
        gaps = np.array([pt.gap for pt in pts])
        labels = [pt.labels for pt in pts]
        jumps = np.abs(np.diff(gaps))
        scale = np.median(jumps) + 1e-9
        for j, jump in enumerate(jumps):
            if labels[j] != labels[j + 1]:
                continue  # excitation crossing: a kink is expected
            assert jump < 30 * scale, f"gap jump {jump:.3e} at s={grid[j]:.3f}"
