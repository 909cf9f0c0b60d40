import numpy as np
import pytest

from coagchain import (LatticeState, RateTriple, assemble_generator, gillespie,
                       homogeneous_chain, model, run, stationary_vectors,
                       total_variation)
from conftest import make_impurity_spec, make_quench_spec, sampler_events


class TestEnabledEvents:
    def test_empty_lattice_absorbing_for_impurity(self):
        spec = make_impurity_spec(L=2)
        assert sampler_events(spec, LatticeState.empty(4).occupancy) == []

    def test_benchmark_impurity_vacuum_is_inert(self):
        # theta = 0.6, s = 1 once left rounding residue of ~1e-15 as a
        # pair-creation rate, so the empty lattice was not absorbing
        spec = make_impurity_spec(L=4, s=1.0)
        junction = spec.bond_operator(spec.L1)
        assert np.all(junction.entries[:, 0] == 0.0)
        assert junction.preserves_vacuum
        assert sampler_events(spec, LatticeState.empty(8).occupancy) == []
        result = run(spec, LatticeState.empty(8), 100, seed=1)
        assert result.absorbed and result.n_events == 0

    def test_quench_empty_lattice_not_absorbing(self):
        spec = make_quench_spec(L=2)
        events = sampler_events(spec, LatticeState.empty(4).occupancy)
        assert events
        assert all(bond == spec.L1 for bond, _, _ in events)

    def test_single_particle_mid_segment(self):
        # a lone particle can hop both ways and spawn both neighbours:
        # exactly the off-diagonal entries of the (+-) and (-+) columns
        r = RateTriple(0.5, 3.0, 1.0)
        spec = homogeneous_chain(r, 3, 3)
        state = LatticeState.from_bits([0, 0, 1, 0, 0, 0])
        events = sampler_events(spec, state.occupancy)
        assert len(events) == 4
        rates = sorted(rate for _, _, rate in events)
        assert rates == sorted([r.q, r.p, r.delta * r.q, r.delta * r.p])

    def test_adjacent_pair_coagulation_rates(self):
        r = RateTriple(0.5, 3.0, 0.0)  # delta=0: no spawning
        spec = homogeneous_chain(r, 3, 3)
        state = LatticeState.from_bits([0, 0, 1, 1, 0, 0])
        events = sampler_events(spec, state.occupancy)
        # left partner vanishes with rate p, right partner with rate q,
        # plus the two outward hops of the pair's outer particles
        pair_bond = [rate for bond, _, rate in events if bond == 3]
        assert sorted(pair_bond) == [r.p, r.q]

    def test_rates_reconstruct_generator_diagonal(self, rng):
        spec = make_impurity_spec(L=3, s=0.4)
        gen = assemble_generator(spec)
        for _ in range(10):
            config = int(rng.integers(0, 2 ** 6))
            events = sampler_events(spec, config)
            assert sum(rate for _, _, rate in events) == pytest.approx(
                -float(gen[config, config]), rel=1e-12)


class TestRun:
    def test_empty_start_stays_empty(self):
        spec = make_impurity_spec(L=2)
        result = run(spec, LatticeState.empty(4), 1000, seed=1)
        assert result.absorbed
        assert result.n_events == 0

    def test_absorbed_run_has_its_final_state(self):
        # p = 0: particles only move left, so site 1 ends up holding one
        spec = homogeneous_chain(RateTriple(0.0, 3.0, 1.0), 3, 3)
        result = run(spec, LatticeState.full(6), 1000, seed=1)
        assert result.absorbed and result.n_events == 8
        assert result.final_state.bits() == [1, 0, 0, 0, 0, 0]
        assert result.histogram() == {0b100000: 1.0}
        assert result.density_profile().tolist() == [1, 0, 0, 0, 0, 0]

    def test_deterministic_replay(self):
        spec = make_impurity_spec(L=2)
        a = run(spec, LatticeState.full(4), 20_000, seed=9)
        b = run(spec, LatticeState.full(4), 20_000, seed=9)
        assert a.config_weights == b.config_weights
        assert a.final_state == b.final_state

    def test_histogram_converges_to_stationary(self):
        spec = make_impurity_spec(L=2, s=-0.1)
        gen = assemble_generator(spec)
        basis = stationary_vectors(gen)
        # stationary state of the occupied class: null combination with no
        # weight on the empty configuration
        v0, v1 = basis
        target = v0 - (v0[0] / v1[0]) * v1 if abs(v1[0]) > 1e-12 else v0
        target = np.clip(target, 0, None)
        target /= target.sum()
        tvs = []
        for n in (3_000, 30_000, 300_000):
            res = run(spec, LatticeState.full(4), n, seed=5)
            tvs.append(total_variation(res.histogram(), target))
        assert tvs[-1] < tvs[0]
        assert tvs[-1] < 0.02

    def test_time_horizon(self):
        spec = make_quench_spec(L=2)
        res = run(spec, LatticeState.full(4), 10 ** 9, seed=3, t_max=1.5)
        assert res.total_time == pytest.approx(1.5)

    def test_density_profile_normalised(self):
        spec = make_quench_spec(L=2)
        res = run(spec, LatticeState.full(4), 20_000, seed=11)
        profile = res.density_profile()
        assert profile.shape == (4,)
        assert np.all(profile >= 0) and np.all(profile <= 1)

    def test_one_table_per_distinct_operator(self, monkeypatch):
        # the chain has three distinct bond operators, however long it is
        spec = make_impurity_spec(L=100, s=1.0)
        built, tables = [], []
        for name in ("build_bulk_operator", "build_junction_operator"):
            real_build = getattr(model, name)
            monkeypatch.setattr(model, name, lambda *a, real=real_build:
                                built.append(a) or real(*a))
        real_table = gillespie._event_table
        monkeypatch.setattr(gillespie, "_event_table",
                            lambda m: tables.append(m) or real_table(m))
        result = run(spec, LatticeState.full(200), 1_000, seed=2)
        assert result.n_events == 1_000
        assert len(built) <= 3 and len(tables) <= 3
