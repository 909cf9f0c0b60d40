import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from coagchain import (ChainSpec, ConsistencyError, RateTriple,
                       SizeLimitError, assemble_full_spectrum,
                       assemble_generator, brute_force_spectrum,
                       build_bulk_operator, edge_energies, homogeneous_chain,
                       jacobi_entries, one_particle_spectrum, parity,
                       solve_secular, stationary_vectors, vacuum_energy)
from coagchain.generator import _run_groups, wall_operator
from coagchain.model import JunctionRates, bulk_matrix, junction_matrix
from conftest import (dense_eigvals, exact_chains, impurity_chain,
                      kron_generator, make_benchmark_chain, make_impurity_spec,
                      make_quench_spec, mp_chain, quench_chain, random_chain,
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
        ev, _ = brute_force_spectrum(gen)
        np.testing.assert_allclose(ev, [0, 0, -2, -2], atol=1e-12)

    def test_generator_spectrum_in_left_half_plane(self, rng):
        for _ in range(5):
            spec = random_chain(rng)
            ev, _ = brute_force_spectrum(assemble_generator(spec))
            assert abs(ev[0]) < 1e-10  # the largest is the zero eigenvalue

    def test_impurity_spectrum_real(self):
        # real by construction, and in descending order
        spec = make_impurity_spec(L=3)
        ev, _ = brute_force_spectrum(assemble_generator(spec))
        assert ev.dtype == np.float64
        assert np.all(np.diff(ev) <= 0)

    def test_dense_guard(self):
        spec = homogeneous_chain(RateTriple(1, 1, 0), 7, 6)
        with pytest.raises(SizeLimitError):
            assemble_generator(spec)

    def test_blocks_match_dense_eigvals(self, rng):
        for _ in range(30):
            spec = random_chain(rng, int(rng.integers(1, 5)),
                                int(rng.integers(1, 5)))
            gen = assemble_generator(spec)
            scale = np.max(np.abs(gen))
            ref = dense_eigvals(gen)
            ev, _ = brute_force_spectrum(gen)
            assert len(ev) == len(ref) == 2 ** spec.n_sites
            assert np.max(np.abs(ev[::-1] - np.sort(ref.real))) \
                <= 1e-12 * scale, spec
            assert ev.dtype == np.float64 and np.all(np.diff(ev) <= 0)

    def test_symmetric_blocks_match_dense_eigvals_at_large_delta(self, rng):
        # the symmetrised blocks against plain eigvals of the whole G, on
        # chains whose rates span several orders of magnitude
        for _ in range(10):
            spec = random_chain(rng, int(rng.integers(1, 5)),
                                int(rng.integers(1, 5)),
                                deltas=(float(rng.uniform(10, 100)), None))
            gen = assemble_generator(spec)
            scale = np.max(np.abs(gen))
            ref = np.sort(dense_eigvals(gen).real)[::-1]
            ev, defect = brute_force_spectrum(gen)
            assert np.max(np.abs(ev - ref)) <= 1e-12 * scale, spec
            assert defect <= 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_run_group_sizes(self, n):
        sizes = [len(g) for g in _run_groups(n)]
        assert sizes == [math.comb(n + 1, 2 * r)
                         for r in range(len(sizes))]
        assert sum(sizes) == 2 ** n

    def test_zero_hopping_chain_gets_assembled_spectrum(self):
        # p = 0: G is defective and the dense eigensolver misses the
        # assembled spectrum by 2e-3 max|G|; the blocks do not
        spec = homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3)
        gen = assemble_generator(spec)
        scale = np.max(np.abs(gen))
        assembled = assemble_full_spectrum(one_particle_spectrum(spec),
                                           vacuum_energy(spec), parity(spec),
                                           spec.n_sites)
        ev, _ = brute_force_spectrum(gen)
        assert np.max(np.abs(ev[::-1] - np.sort(assembled))) \
            <= 1e-12 * scale

    def test_broken_closure_raises(self):
        # moving part of the (-+) -> (+-) hop to (-+) -> (--) keeps every
        # column sum 0 but breaks m[1, 2] == m[1, 3], the empty-interval
        # closure, in bond 2 (bond 1 has no site on its left, so its
        # entries cannot join two runs of empty sites)
        spec = make_impurity_spec(L=3, s=1.0)
        ops = [spec.bond_operator(k).entries.copy()
               for k in range(1, spec.n_sites)]
        moved = 0.25 * ops[1][1, 2]
        ops[1][1, 2] -= moved
        ops[1][3, 2] += moved
        assert np.max(np.abs(ops[1].sum(axis=0))) < 1e-12
        with pytest.raises(ConsistencyError, match="block triangular"):
            brute_force_spectrum(kron_generator(ops))

    @pytest.mark.parametrize("family", ["impurity", "quench"])
    def test_one_scaled_entry_fails(self, family):
        # one rate of G scaled by 1 + 1e-9 moves no eigenvalue by more
        # than the multiset tolerance, but breaks a column sum: the row of
        # total probability gets an entry above the diagonal blocks
        gen = assemble_generator(make_benchmark_chain(family, 8))
        gen[0b10110100, 0b01110100] *= 1 + 1e-9  # a hop on bond 1
        assert gen[0b10110100, 0b01110100] > 0
        with pytest.raises(ConsistencyError, match="block triangular"):
            brute_force_spectrum(gen)

    @staticmethod
    def from_run_count_form(group1):
        """The n = 2 generator G = F^-1 B F whose B has the 3x3 block
        ``group1`` for run group 1 and zeros elsewhere."""
        f = np.kron([[1.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]])
        b = np.zeros((4, 4))
        b[np.ix_(_run_groups(2)[1], _run_groups(2)[1])] = group1
        return np.linalg.solve(f, b @ f)

    @pytest.mark.parametrize("group1, message", [
        # products around the cycle 0 -> 1 -> 2 -> 0: 2 one way, 0.5 back
        ([[-2, 1, 1], [1, -2, 2], [1, 0.5, -2]], "cycle criterion"),
        ([[-2, 1, 0], [-1, -2, 0], [0, 0, -1]], "opposite signs"),
        # 0 -> 2 one way, inside the two-way component {0, 1, 2}
        ([[-2, 1, 1], [1, -2, 1], [0, 1, -2]], "one-way edges"),
        # 0 -> 1 and 1 -> 0 on separate one-way edges via 2
        ([[-2, 1, 0], [0, -2, 1], [1, 0, -2]], "one-way edges"),
    ], ids=["cycle", "signs", "one-way-inside", "one-way-cycle"])
    def test_unsymmetrisable_block_raises(self, group1, message):
        with pytest.raises(ConsistencyError, match=message):
            brute_force_spectrum(self.from_run_count_form(group1))

    def test_one_way_edges_between_components_keep_the_spectrum(self):
        # a block triangular by its one-way edge: S drops the edge and
        # keeps the eigenvalues
        group1 = [[-2.0, 1.0, 0.0], [1.0, -3.0, 0.0], [0.5, 0.0, -1.0]]
        ev, defect = brute_force_spectrum(self.from_run_count_form(group1))
        ref = np.sort(np.append(np.linalg.eigvals(group1).real, 0.0))[::-1]
        np.testing.assert_allclose(ev, ref, atol=1e-14)
        assert defect == 0.0

    def test_overwrites_its_argument(self):
        # the oracle works in place: no second array the size of G; an
        # array in another memory order is copied, not misread
        gen = assemble_generator(make_impurity_spec(L=2))
        fortran = np.asfortranarray(gen)
        before = gen.copy()
        ev, _ = brute_force_spectrum(gen)
        assert not np.array_equal(gen, before)
        assert np.array_equal(brute_force_spectrum(fortran)[0], ev)
        assert np.array_equal(fortran, before)


class TestStationaryVectors:
    def test_homogeneous_kernel_dimension_two(self):
        spec = homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 2, 2)
        basis = stationary_vectors(assemble_generator(spec))
        assert len(basis) == 2

    @pytest.mark.parametrize("spec", [
        make_benchmark_chain("impurity", 6),
        make_benchmark_chain("impurity", 8),
        make_benchmark_chain("quench", 6),
        make_benchmark_chain("quench", 8),
        quench_chain(RateTriple(0.0, 6.0, 1.0), RateTriple(6.0, 0.2, 1.3), 3),
        quench_chain(RateTriple(0.0, 6.0, 1.0), RateTriple(6.0, 0.2, 1.3), 4),
    ], ids=["impurity-6", "impurity-8", "quench-6", "quench-8",
            "quench-p1-0-6", "quench-p1-0-8"])
    def test_substitution_matches_null_space(self, spec):
        # the SVD null space, with no weight on the empty lattice when it
        # is absorbing, normalised by its sum
        gen = assemble_generator(spec)
        before = gen.copy()
        basis = stationary_vectors(gen)
        assert np.array_equal(gen, before)
        ref = scipy.linalg.null_space(gen, rcond=1e-9)
        absorbing = spec.bond_operator(spec.L1).preserves_vacuum
        assert len(basis) == ref.shape[1] == (2 if absorbing else 1)
        ref = (ref[0, 1] * ref[:, 0] - ref[0, 0] * ref[:, 1] if absorbing
               else ref[:, 0])
        assert np.max(np.abs(basis[0] - ref / ref.sum())) <= 1e-12
        if absorbing:
            assert basis[0][0] == 0.0
            assert basis[1].tolist() == [1.0] + [0.0] * (len(gen) - 1)

    def test_frozen_segment_raises(self):
        # p = q = 0 in segment 2: its configurations do not move, and the
        # run-count block of one empty run is singular
        spec = ChainSpec(2, 2, RateTriple(0.5, 3.0, 1.0),
                         RateTriple(0.0, 0.0, 1.0), JunctionRates(1.0, 1.0, 1.0))
        with pytest.raises(ConsistencyError, match="singular"):
            stationary_vectors(assemble_generator(spec))

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
        """Eigenvalues at the working precision of the Jacobi matrix T of
        the chain ``mp``, from the entries of ``jacobi_entries``.
        ``factor`` scales the first nonzero squared coupling, or the
        junction diagonal entry when every coupling is 0."""
        diag, squares = jacobi_entries(mp)
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
            omega = vacuum_energy(mp)
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


class TestWallOperator:
    """The walls' constants in closed form: h[w, w] - T[w, w] = Q2 and
    kappa = -2 Q2 on walls 1..N-1, and h[0, 0] = mt_J[0, 0] = Q2 - Q1."""

    @staticmethod
    def constants(spec, bonds):
        closure, h, _, kappa = wall_operator(bonds)
        diagonal, _ = jacobi_entries(spec)
        shifts = [x - t for x, t in zip(h[1:], diagonal)]
        return closure, shifts, kappa, h[0]

    @pytest.mark.parametrize("name", list(exact_chains()))
    def test_constants_exact_in_fractions(self, name):
        spec = exact_chains()[name]
        s1, s2 = spec.seg1, spec.seg2
        junction = junction_matrix(s1, s2, spec.junction)
        bonds = ([bulk_matrix(s1)] * (spec.L1 - 1) + [junction]
                 + [bulk_matrix(s2)] * (spec.L2 - 1))
        closure, shifts, kappa, h00 = self.constants(spec, bonds)
        assert len(closure) == len({id(m) for m in bonds})
        assert set(shifts) == {s2.Q}
        assert set(kappa) == {-2 * s2.Q}
        assert h00 == junction[0, 0] == s2.Q - s1.Q
        assert type(h00) is Fraction

    @pytest.mark.parametrize("chain", ["impurity", "quench", "s=-0.3"]
                             + [f"random{i}" for i in range(6)])
    def test_constants_in_floats(self, chain):
        if chain.startswith("random"):
            spec = random_chain(np.random.default_rng(int(chain[6:])), 4, 5)
        elif chain == "s=-0.3":
            spec = make_impurity_spec(5, s=-0.3)
        else:
            spec = make_benchmark_chain(chain, 10)
        bonds = [spec.bond_operator(k).entries
                 for k in range(1, spec.n_sites)]
        _, shifts, kappa, h00 = self.constants(spec, bonds)
        scale = max(float(np.max(np.abs(m))) for m in bonds)
        q1, q2 = spec.seg1.Q, spec.seg2.Q
        assert np.allclose(shifts, q2, rtol=0, atol=1e-12 * scale)
        assert np.allclose(kappa, -2 * q2, rtol=0, atol=1e-12 * scale)
        assert h00 == pytest.approx(q2 - q1, abs=1e-12 * scale)
