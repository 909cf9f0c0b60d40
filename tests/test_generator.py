import numpy as np
import pytest

from coagchain import (RateTriple, SizeLimitError, assemble_generator,
                       brute_force_spectrum, build_bulk_operator,
                       generator_trace, homogeneous_chain, stationary_vectors)
from conftest import (make_impurity_spec, make_quench_spec, random_chain,
                      sampler_events)


class TestIndexing:
    def test_events_match_generator_columns(self, rng):
        # the simulator's bitmask indexes the generator: the events its
        # tables enable in configuration c, summed per target (two bonds
        # can reach one target), are the off-diagonal entries of column c
        for _ in range(12):
            spec = random_chain(rng, int(rng.integers(1, 4)),
                                int(rng.integers(1, 4)))
            n = spec.n_sites
            gen = assemble_generator(spec).toarray()
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
    def test_single_bond_is_bulk_operator(self):
        r = RateTriple(0.5, 3.0, 1.0)
        gen = assemble_generator(homogeneous_chain(r, 1, 1))
        np.testing.assert_allclose(np.asarray(gen.todense()),
                                   build_bulk_operator(r).entries, atol=1e-15)

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
        assert np.max(np.abs(np.asarray(gen.sum(axis=0)))) < 1e-11

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
        gen = assemble_generator(spec)
        with pytest.raises(SizeLimitError):
            brute_force_spectrum(gen)


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


class TestTraceHelper:
    def test_trace_matches_dense(self, rng):
        spec = random_chain(rng)
        gen = assemble_generator(spec)
        assert generator_trace(gen) == pytest.approx(
            float(np.trace(np.asarray(gen.todense()))))
