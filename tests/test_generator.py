import itertools

import mpmath
import numpy as np
import pytest

from coagchain import (RateTriple, SizeLimitError, assemble_generator, brute_force_spectrum,
                       build_bulk_operator, edge_energies, homogeneous_chain,
                       parity, solve_secular, stationary_vectors,
                       vacuum_energy_closed_form)
from coagchain.model import bulk_matrix, junction_matrix
from conftest import (impurity_chain, kron_generator, make_benchmark_chain,
                      make_impurity_spec, make_quench_spec, mp_chain,
                      quench_chain, random_chain, sampler_events)


class TestIndexing:
    def test_events_match_generator_columns(self, rng):
        # the simulator's bitmask indexes the generator: the events its
        # tables enable in configuration c, summed per target (two bonds
        # can reach one target), are the off-diagonal entries of column c
        for _ in range(12):
            spec = random_chain(rng, int(rng.integers(1, 4)),
                                int(rng.integers(1, 4)))
            n = spec.n_sites
            gen = assemble_generator(spec)
            for c in range(2 ** n):
                got = {}
                for _, target, rate in sampler_events(spec, c):
                    got[target] = got.get(target, 0.0) + rate
                column = gen[:, c].copy()
                column[c] = 0.0
                targets = np.flatnonzero(column)
                assert sorted(got) == list(targets), (n, c)
                np.testing.assert_allclose([got[t] for t in targets],
                                           column[targets], rtol=1e-14)


class TestAssembly:
    def test_matches_kron_reference(self, rng):
        specs = [random_chain(rng, int(rng.integers(1, 5)),
                              int(rng.integers(1, 5))) for _ in range(30)]
        specs += [make_benchmark_chain(family, 10)
                  for family in ("impurity", "quench")]
        for spec in specs:
            ops = [spec.bond_operator(k).entries
                   for k in range(1, spec.n_sites)]
            assert np.array_equal(assemble_generator(spec),
                                  kron_generator(ops)), spec

    def test_single_bond_is_bulk_operator(self):
        r = RateTriple(0.5, 3.0, 1.0)
        gen = assemble_generator(homogeneous_chain(r, 1, 1))
        np.testing.assert_allclose(gen, build_bulk_operator(r).entries,
                                   atol=1e-15)

    def test_empty_lattice_stationary_for_impurity(self):
        spec = make_impurity_spec(L=2)
        gen = assemble_generator(spec)
        e_empty = np.zeros(16)
        e_empty[0] = 1.0
        assert np.max(np.abs(gen @ e_empty)) == 0.0

    def test_quench_junction_creates_from_empty(self):
        # the quench junction spawns pairs out of two empty sites, so the
        # empty lattice is not stationary; the outflow matches the
        # junction operator's empty-pair column
        spec = make_quench_spec(L=2)
        gen = assemble_generator(spec)
        e_empty = np.zeros(16)
        e_empty[0] = 1.0
        out = gen @ e_empty
        col = spec.bond_operator(2).entries[:, 0]
        assert out[0] == pytest.approx(col[0])
        assert np.max(np.abs(out)) > 0.1

    def test_column_sums_and_shape(self):
        spec = make_impurity_spec(L=2)
        gen = assemble_generator(spec)
        assert gen.shape == (16, 16)
        assert np.max(np.abs(gen.sum(axis=0))) < 1e-11

    def test_size_guard(self):
        spec = homogeneous_chain(RateTriple(1, 1, 0), 13, 13)
        with pytest.raises(SizeLimitError):
            assemble_generator(spec)


class TestBruteForce:
    def test_two_site_symmetric_spectrum(self):
        gen = assemble_generator(homogeneous_chain(RateTriple(1, 1, 0), 1, 1))
        ev = np.sort(brute_force_spectrum(gen).real)
        np.testing.assert_allclose(ev, [-2, -2, 0, 0], atol=1e-12)

    def test_generator_spectrum_in_left_half_plane(self, rng):
        for _ in range(5):
            spec = random_chain(rng)
            ev = brute_force_spectrum(assemble_generator(spec))
            assert ev.real.max() < 1e-10
            assert abs(ev.real.max()) < 1e-10  # zero eigenvalue present

    def test_impurity_spectrum_real(self):
        spec = make_impurity_spec(L=3)
        ev = brute_force_spectrum(assemble_generator(spec))
        assert np.max(np.abs(ev.imag)) < 1e-8

    def test_dense_guard(self):
        spec = homogeneous_chain(RateTriple(1, 1, 0), 7, 6)
        with pytest.raises(SizeLimitError):
            assemble_generator(spec)


class TestStationaryVectors:
    def test_homogeneous_kernel_dimension_two(self):
        spec = homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 2, 2)
        basis = stationary_vectors(assemble_generator(spec))
        assert len(basis) == 2

    def test_empty_config_in_kernel(self):
        spec = make_impurity_spec(L=2)
        gen = assemble_generator(spec)
        basis = np.column_stack(stationary_vectors(gen))
        e_empty = np.zeros(16)
        e_empty[0] = 1.0
        # the empty configuration lies in the span of the null space
        coeffs, *_ = np.linalg.lstsq(basis, e_empty, rcond=None)
        assert np.linalg.norm(basis @ coeffs - e_empty) < 1e-9

    def test_quench_kernel_dimension(self):
        # junction pair creation makes the chain irreducible: unique NESS
        spec = make_quench_spec(L=2)
        basis = stationary_vectors(assemble_generator(spec))
        assert len(basis) == 1
        v = basis[0]
        assert v.min() >= 0
        assert v.sum() == pytest.approx(1.0)

    def test_probability_normalization(self):
        spec = homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 2, 1)
        for v in stationary_vectors(assemble_generator(spec)):
            if v.min() >= 0:
                assert v.sum() == pytest.approx(1.0)


class TestExactReduction:
    """det(x0 - G) at 40 digits against the product over fixed-parity
    subsets of (x0 - omega - sum of lambda): at these digits the reduction
    holds to rounding, while the float eigensolver of the non-normal G
    misses the spectrum by 1.7e-5 on the steep impurity chain."""

    @staticmethod
    def secular_roots(mp, factor=1):
        """Eigenvalues of the Jacobi matrix T of the chain ``mp``, restated
        from its diagonal and its squared couplings.  ``factor`` scales the
        first nonzero squared coupling, or the junction diagonal entry
        when every coupling is 0."""
        s1, s2, j = mp.seg1, mp.seg2, mp.junction
        diag = ([2 * s1.f] * (mp.L1 - 1) + [-(j.Q_bar + j.p_bar + j.q_bar)]
                + [2 * s2.f] * (mp.L2 - 1))
        squares = ([s1.p * s1.q * (1 + s1.delta)] * (mp.L1 - 2)
                   + [s1.q * (1 + s1.delta) * j.p_bar,
                      s2.p * (1 + s2.delta) * j.q_bar]
                   + [s2.p * s2.q * (1 + s2.delta)] * (mp.L2 - 2))
        nonzero = [i for i, c2 in enumerate(squares) if c2]
        if nonzero:
            squares[nonzero[0]] *= factor
        else:
            diag[mp.L1 - 1] *= factor
        t = mpmath.diag(diag)
        for i, c2 in enumerate(squares):
            t[i, i + 1] = t[i + 1, i] = mpmath.sqrt(c2)
        return sorted(mpmath.eigsy(t, eigvals_only=True), reverse=True)

    @staticmethod
    def det(rows):
        """Determinant by Gaussian elimination with partial pivoting on
        plain lists, several times faster than ``mpmath.det``'s matrix
        indexing; on x0 - G, far from singular, the two agree digit for
        digit."""
        a = [list(row) for row in rows]
        out = mpmath.mpf(1)
        for k in range(len(a)):
            piv = max(range(k, len(a)), key=lambda i: abs(a[i][k]))
            a[k], a[piv] = a[piv], a[k]
            out *= a[k][k] if piv == k else -a[k][k]
            if not a[k][k]:
                return out
            for i in range(k + 1, len(a)):
                f = a[i][k] / a[k][k]
                if f:
                    a[i][k:] = [x - f * y for x, y in zip(a[i][k:], a[k][k:])]
        return out

    @staticmethod
    def subset_product(x0, omega, lams, odd):
        out = mpmath.mpf(1)
        for chosen in itertools.product((0, 1), repeat=len(lams)):
            if sum(chosen) % 2 == odd:
                out *= x0 - omega - sum(lam for lam, c in zip(lams, chosen)
                                        if c)
        return out

    @pytest.mark.parametrize("spec", [
        make_impurity_spec(3, theta=0.6, s=1.0),
        make_impurity_spec(3, theta=0.78, s=1.0),
        make_quench_spec(3, delta1=1.0, delta2=1.3),
        homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3),
        impurity_chain(RateTriple(2.0, 0.0, 1.0), 3, 0.5),
        quench_chain(RateTriple(0.0, 6.0, 1.0), RateTriple(6.0, 0.2, 1.3), 3),
    ], ids=["impurity-0.6", "impurity-0.78", "quench", "homogeneous-p0",
            "impurity-q0", "quench-p1-0"])
    def test_characteristic_polynomial_at_40_digits(self, spec):
        with mpmath.workdps(40):
            mp = mp_chain(spec)
            s1, s2 = mp.seg1, mp.seg2
            gen = kron_generator([bulk_matrix(s1)] * (mp.L1 - 1)
                                 + [junction_matrix(s1, s2, mp.junction)]
                                 + [bulk_matrix(s2)] * (mp.L2 - 1))
            x0 = mpmath.mpf("0.37")
            det = self.det((x0 * np.eye(len(gen)) - gen).tolist())
            omega = vacuum_energy_closed_form(mp)
            odd = parity(mp) == "odd"

            def rel(flip=False, factor=1):
                roots = self.secular_roots(mp, factor)
                lams = list(edge_energies(mp)) + roots
                return abs(det - self.subset_product(x0, omega, lams,
                                                     odd != flip)) / abs(det)

            assert rel() <= 1e-30
            assert rel(flip=True) > 1e-20
            assert rel(factor=1 + mpmath.mpf("1e-12")) > 1e-20
            roots = np.array(self.secular_roots(mp), dtype=float)
        assert np.max(np.abs(solve_secular(spec) - roots)) \
            <= 1e-12 * np.max(np.abs(roots))
