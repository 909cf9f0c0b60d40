"""Acceptance suite: one test per shipping criterion, printed pass/fail.

Each test exercises the full pipeline at its stated tolerance; nothing is
loosened for convenience.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one line per criterion.

The finite-size criteria (4 and 5) compare finite-chain gaps with the
thermodynamic closed form through the exact law
``gap_L = gap_inf - 2*mu*(1 - cos(pi/L))``: the top homogeneous band energy
``2*mu*cos(pi/L) + 2f`` sits that far below the band top.  Near the
gap-closing angle the term is a large share of the small closed-form gap
(4.81% at theta=0.6, L=120), so the 2% bound is asserted where that term
allows it, and the 1/L^2 decay of the offset is asserted at theta=0.6.
"""

import math
import time
import warnings
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest

from coagchain import (LatticeState, RateTriple, assemble_full_spectrum,
                       assemble_generator, brute_force_spectrum,
                       build_script_matrix, bulk_mode,
                       critical_theta, edge_energies, edge_modes,
                       finite_homogeneous_gap, homogeneous_chain,
                       homogeneous_energies, homogeneous_gap,
                       homogeneous_modes, impurity_gap_sweep, jacobi_entries,
                       junction_coefficients, one_particle_spectrum,
                       pairing_residual, parity, quench_gap_sweep, run,
                       solve_secular, stationary_vectors, total_variation,
                       trivial_zero_modes, vacuum_energy, verify_bulk_identity,
                       verify_junction_identity)
from coagchain.oneparticle import (DegenerateModeWarning,
                                   script_matrix_negative_spectrum)
from conftest import (make_impurity_spec, make_quench_spec, mp_chain,
                      random_chain)

SEED = 424242


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def _assembled_vs_brute(spec):
    sp = one_particle_spectrum(spec)
    omega = vacuum_energy(spec)
    assembled = assemble_full_spectrum(sp, omega, parity(spec), spec.n_sites)
    bf, _ = brute_force_spectrum(assemble_generator(spec))
    assert bf.dtype == np.float64 and np.all(np.diff(bf) <= 0)
    return float(np.max(np.abs(bf[::-1] - np.sort(assembled))))


def test_oracle_spectral_equivalence():
    with criterion("1. oracle spectral equivalence (random + impurity + "
                   "quench chains)"):
        start = time.monotonic()
        rng = np.random.default_rng(SEED)
        specs = [random_chain(rng, L1=int(rng.integers(2, 4)),
                              L2=int(rng.integers(2, 4))) for _ in range(52)]
        specs.append(make_impurity_spec(L=3, s=-0.3))
        specs.append(make_quench_spec(L=3))
        for spec in specs:
            diff = _assembled_vs_brute(spec)
            assert diff < 1e-8, f"multiset mismatch {diff:.3e} for {spec}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"


def test_decomposition_identities():
    with criterion("2. two-site spin-decomposition identities"):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(100):
            spec = random_chain(rng)
            assert verify_bulk_identity(spec.seg1) <= 1e-30
            assert verify_bulk_identity(spec.seg2) <= 1e-30
            assert verify_junction_identity(spec.seg1, spec.seg2,
                                            spec.junction) <= 1e-30


def test_homogeneous_reduction():
    with criterion("3. secular roots reduce to the homogeneous closed form"):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(20):
            p, q = (float(v) for v in rng.uniform(0.2, 3.0, 2))
            theta = float(rng.uniform(0.0, 0.75))
            rates = RateTriple.from_theta(p, q, theta)
            spec = homogeneous_chain(rates, 5, 5)
            roots = solve_secular(spec)
            expected = homogeneous_energies(rates, 10).bulk_roots
            assert np.max(np.abs(roots - expected)) < 1e-9


def _band_edge_offset(rates, L):
    """Predicted gap_inf - gap_L of the L-site homogeneous chain."""
    return 2 * rates.mu * (1 - math.cos(math.pi / L))


def _offset_report(what, theta, L, gap_L, gap_inf, rates):
    return (f"{what} (theta={theta}, L={L} sites: measured offset "
            f"gap_inf - gap_L = {gap_inf - gap_L:.6e}, predicted "
            f"2*mu*(1-cos(pi/L)) = {_band_edge_offset(rates, L):.6e})")


def test_gap_formula():
    with criterion("4. finite-chain gap = closed form - 2*mu*(1-cos(pi/L)) "
                   "at L=120; 2 percent at L=120 (theta=0.6: 1/L^2 decay, "
                   "2 percent at L=240)"):
        start = time.monotonic()
        p, q = 0.5, 3.0
        assert abs(critical_theta(p, q) - 0.575) <= 1e-3
        failures = []
        for theta in (0.1, 0.5, 0.6, 0.65):
            rates = RateTriple.from_theta(p, q, theta)
            gap_inf = homogeneous_gap(rates)
            sizes = (120, 240, 480) if theta == 0.6 else (120,)
            gaps = {L: finite_homogeneous_gap(rates, L) for L in sizes}
            rel = {L: abs(g - gap_inf) / abs(gap_inf) for L, g in gaps.items()}

            def report(what, L):
                return _offset_report(what, theta, L, gaps[L], gap_inf, rates)

            residual = abs(gaps[120]
                           - (gap_inf - _band_edge_offset(rates, 120)))
            if residual > 1e-10 * abs(gap_inf):
                failures.append(report(
                    f"exact finite-size law misses by {residual:.3e}, over "
                    f"1e-10*|gap_inf|", 120))
            # the band-edge term is 4.81% of gap_inf at theta=0.6, L=120,
            # so there the 2% bound applies from L=240 on and the offset
            # must fall as 1/L^2
            L_bound = 240 if theta == 0.6 else 120
            if rel[L_bound] > 0.02:
                failures.append(report(
                    f"deviation {rel[L_bound]:.2%} exceeds 2%", L_bound))
            if theta == 0.6:
                for L in (120, 240):
                    ratio = rel[L] / rel[2 * L]
                    if abs(ratio - 4.0) > 0.05:
                        failures.append(report(
                            f"deviation fell by {ratio:.4f} from L={L}, "
                            f"expected 4 +/- 0.05 per doubling", 2 * L))
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s"
        assert not failures, "; ".join(failures)


def test_impurity_gap_sweep_behavior():
    with criterion("5. impurity sweep: gap closes at the slowest junction, "
                   "stays flat in the low-density phase, s=0 meets the "
                   "finite-size law and 2 percent at L=120"):
        L = 60
        rates_high = RateTriple.from_theta(0.5, 3.0, 0.6)
        tail = impurity_gap_sweep(rates_high, L, [-0.5, -0.45, -0.4, 0.0])
        gaps = [pt.gap for pt in tail]
        assert all(g is not None for g in gaps)
        # gap -> 0 as s -> -min(p, q), monotonically on the approach
        assert abs(gaps[0]) < abs(gaps[1]) < abs(gaps[2])
        assert abs(gaps[0]) < 1e-3 * abs(gaps[3])

        rates_low = RateTriple.from_theta(0.5, 3.0, 0.1)
        pts = impurity_gap_sweep(rates_low, L, np.linspace(-0.4, 3.0, 35))
        vals = np.array([pt.gap for pt in pts])
        spread = (vals.max() - vals.min()) / np.abs(vals).max()
        assert spread < 0.10, f"theta=0.1 gap spread {spread:.2%}"

        # the s=0 points are homogeneous chains of 2L sites: they must
        # reproduce the closed-form finite gap and the exact finite-size
        # law, and at L=120 per segment meet the thermodynamic closed form
        # at the 2% tolerance
        failures = []
        for theta, sweep_rates in ((0.1, rates_low), (0.6, rates_high)):
            at_zero = impurity_gap_sweep(sweep_rates, L, [0.0])[0].gap
            assert at_zero == pytest.approx(
                finite_homogeneous_gap(sweep_rates, 2 * L), abs=1e-8)
            gap_inf = homogeneous_gap(sweep_rates)
            residual = abs(at_zero - (gap_inf - _band_edge_offset(sweep_rates,
                                                                  2 * L)))
            if residual > 1e-8:
                failures.append(_offset_report(
                    f"L={L} per segment: s=0 gap misses the exact "
                    f"finite-size law by {residual:.3e}", theta, 2 * L,
                    at_zero, gap_inf, sweep_rates))
            wide = impurity_gap_sweep(sweep_rates, 2 * L, [0.0])[0].gap
            rel = abs(wide - gap_inf) / abs(gap_inf)
            if rel > 0.02:
                failures.append(_offset_report(
                    f"L={2 * L} per segment: s=0 gap deviates {rel:.2%} "
                    f"from the closed form, over 2%", theta, 4 * L, wide,
                    gap_inf, sweep_rates))
        assert not failures, "; ".join(failures)


def test_quench_gap_regime_change():
    with criterion("6. quench sweep: one slope-regime change at the "
                   "boundary-energy crossing"):
        for delta1 in (0.5, 1.0, 2.0):
            grid = np.linspace(0.2 * delta1, 2.0 * delta1, 200)
            pts = quench_gap_sweep(0.6, 6.0, 6.0, 0.2, delta1, 60, grid)
            assert all(pt.error is None for pt in pts)
            labels = [frozenset(pt.labels) for pt in pts]
            gaps = np.array([pt.gap for pt in pts])
            switches = [i for i in range(1, len(labels))
                        if labels[i] != labels[i - 1]]
            assert len(switches) == 1, f"delta1={delta1}: {len(switches)}"
            i = switches[0]
            expected = delta1 * 5.4 / 5.8
            assert abs(grid[i] - expected) <= 0.05 * expected
            assert "edge2" in labels[i - 1] and "edge1" in labels[i]
            # slope discontinuity at the switch, nowhere else comparable
            slopes = np.diff(gaps) / np.diff(grid)
            before = float(np.median(slopes[max(0, i - 6):i - 1]))
            after = float(np.median(slopes[i + 1:i + 6]))
            assert abs(after - before) > 1.0
            second = np.abs(np.diff(gaps, 2))
            kink = int(np.argmax(second)) + 1
            assert abs(kink - i) <= 1
            away = np.delete(second, range(max(0, kink - 3), kink + 2))
            assert away.max() < 0.5 * second.max()


def test_eigenvector_ansatz_residuals():
    with criterion("7. eigenvector ansatz residuals below 1e-9"):
        rng = np.random.default_rng(SEED + 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateModeWarning)
            for _ in range(20):
                spec = random_chain(rng, L1=4, L2=4)
                matrix = build_script_matrix(spec)
                for mv in trivial_zero_modes(spec, matrix):
                    assert mv.residual < 1e-9
                edge = edge_modes(spec, matrix)
                assert len(edge) == 4
                for mv in edge:
                    assert mv.residual < 1e-9, (mv.kind, mv.lam, mv.residual)
                for lam in solve_secular(spec):
                    mv = bulk_mode(spec, float(lam), matrix)
                    assert mv.residual < 1e-9, (lam, mv.residual)
                for rates in (spec.seg1, spec.seg2):
                    for family in ("first", "second"):
                        for mv in homogeneous_modes(rates, 8, family):
                            assert mv.residual < 1e-9, (family, mv.lam)


def test_block_matrix_structure():
    with criterion("8. one-particle matrix pairs +/- and matches the "
                   "spectrum"):
        rng = np.random.default_rng(SEED + 4)
        specs = [random_chain(rng) for _ in range(12)]
        specs += [random_chain(rng, L1=4, L2=4) for _ in range(4)]
        specs += [make_impurity_spec(L=4, s=0.7), make_quench_spec(L=4)]
        for spec in specs:
            eigenvalues = np.linalg.eigvals(build_script_matrix(spec))
            assert pairing_residual(eigenvalues) < 1e-9
            neg = script_matrix_negative_spectrum(eigenvalues)
            sp = one_particle_spectrum(spec)
            assert np.max(np.abs(np.sort(neg) - np.sort(sp.all_values()))) \
                < 1e-8


def _energy_sum(spec, energies):
    """The energy-sum formula for the vacuum energy: the constant part of
    the fermionic normal form less half of all one-particle energies."""
    psi = junction_coefficients(spec.seg1, spec.seg2, spec.junction).psi
    terms = ((spec.L1 - 1) * spec.seg1.f, (spec.L2 - 1) * spec.seg2.f, psi,
             -sum(energies) / 2)
    return sum(terms), sum(map(abs, terms))


def test_vacuum_energy_dual_computation():
    with criterion("9. vacuum energy: closed form vs energy-sum formula"):
        rng = np.random.default_rng(SEED + 5)
        specs = [random_chain(rng, L1=int(rng.integers(2, 6)),
                              L2=int(rng.integers(2, 6))) for _ in range(100)]
        for spec in specs:
            omega_sum, _ = _energy_sum(
                spec, one_particle_spectrum(spec).all_values())
            assert abs(omega_sum - vacuum_energy(spec)) < 1e-8
        # at 40 digits the roots enter as their sum, the trace of T
        with mpmath.workdps(40):
            for spec in specs:
                mp = mp_chain(spec)
                trace = sum(jacobi_entries(mp)[0])
                omega_sum, scale = _energy_sum(
                    mp, [*edge_energies(mp), trace])
                assert abs(omega_sum - vacuum_energy(mp)) <= 1e-30 * scale


def test_simulator_oracle():
    with criterion("10. stochastic simulation reproduces the exact "
                   "stationary state"):
        start = time.monotonic()
        spec = make_impurity_spec(L=2, s=-0.3)
        target = stationary_vectors(assemble_generator(spec))[0]

        first = run(spec, LatticeState.full(4), 1_000_000, seed=SEED)
        tv = total_variation(first.histogram(), target)
        assert tv < 0.02, f"TV distance {tv:.4f}"

        replay = run(spec, LatticeState.full(4), 1_000_000, seed=SEED)
        assert replay.config_weights == first.config_weights
        assert replay.total_time == first.total_time
        assert replay.final_state == first.final_state
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s"


def test_trace_identity():
    with criterion("11. generator trace equals the assembled eigenvalue sum"):
        rng = np.random.default_rng(SEED + 6)
        specs = [random_chain(rng, L1=int(rng.integers(2, 6)),
                              L2=int(rng.integers(2, 6))) for _ in range(10)]
        specs += [make_impurity_spec(L=5, s=0.5), make_quench_spec(L=5)]
        for spec in specs:
            assert spec.n_sites <= 10
            sp = one_particle_spectrum(spec)
            omega = vacuum_energy(spec)
            assembled = assemble_full_spectrum(sp, omega, parity(spec),
                                               spec.n_sites)
            trace = float(np.trace(assemble_generator(spec)))
            assert abs(trace - float(np.sum(assembled))) \
                <= 1e-8 * 2 ** spec.n_sites
