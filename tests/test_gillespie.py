import numpy as np
import pytest

from coagchain import (LatticeState, RateTriple, assemble_generator,
                       enabled_events, homogeneous_chain, run,
                       stationary_vectors, total_variation)
from conftest import make_impurity_spec, make_quench_spec


class TestEnabledEvents:
    def test_empty_lattice_absorbing_for_impurity(self):
        spec = make_impurity_spec(L=2)
        assert enabled_events(LatticeState.empty(4), spec) == []

    def test_benchmark_impurity_vacuum_is_inert(self):
        # theta = 0.6, s = 1 once left rounding residue of ~1e-15 as a
        # pair-creation rate, so the empty lattice was not absorbing
        spec = make_impurity_spec(L=4, s=1.0)
        junction = spec.bond_operator(spec.L1)
        assert np.all(junction.entries[:, 0] == 0.0)
        assert junction.preserves_vacuum
        assert enabled_events(LatticeState.empty(8), spec) == []
        result = run(spec, LatticeState.empty(8), 100, seed=1)
        assert result.absorbed and result.n_events == 0

    def test_quench_empty_lattice_not_absorbing(self):
        spec = make_quench_spec(L=2)
        events = enabled_events(LatticeState.empty(4), spec)
        assert events
        assert all(ev.bond == spec.L1 for ev in events)

    def test_single_particle_mid_segment(self):
        # a lone particle can hop both ways and spawn both neighbours:
        # exactly the off-diagonal entries of the (+-) and (-+) columns
        r = RateTriple(0.5, 3.0, 1.0)
        spec = homogeneous_chain(r, 3, 3)
        state = LatticeState.from_bits([0, 0, 1, 0, 0, 0])
        events = enabled_events(state, spec)
        assert len(events) == 4
        rates = sorted(ev.rate for ev in events)
        assert rates == sorted([r.q, r.p, r.delta * r.q, r.delta * r.p])

    def test_adjacent_pair_coagulation_rates(self):
        r = RateTriple(0.5, 3.0, 0.0)  # delta=0: no spawning
        spec = homogeneous_chain(r, 3, 3)
        state = LatticeState.from_bits([0, 0, 1, 1, 0, 0])
        events = enabled_events(state, spec)
        # left partner vanishes with rate p, right partner with rate q,
        # plus the two outward hops of the pair's outer particles
        pair_bond = [ev for ev in events if ev.bond == 3]
        assert sorted(ev.rate for ev in pair_bond) == [r.p, r.q]

    def test_rates_reconstruct_generator_diagonal(self, rng):
        spec = make_impurity_spec(L=3, s=0.4)
        gen = assemble_generator(spec).todense()
        for _ in range(10):
            config = int(rng.integers(0, 2 ** 6))
            events = enabled_events(LatticeState(config, 6), spec)
            assert sum(ev.rate for ev in events) == pytest.approx(
                -float(gen[config, config]), rel=1e-12)


class TestRun:
    def test_empty_start_stays_empty(self):
        spec = make_impurity_spec(L=2)
        result = run(spec, LatticeState.empty(4), 1000, seed=1)
        assert result.absorbed
        assert result.n_events == 0

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

    def test_replicas_merge_order_independent(self):
        from coagchain import run_replicas
        spec = make_quench_spec(L=2)
        merged = run_replicas(spec, LatticeState.full(4), 5_000,
                              seed_base=100, n_replicas=3)
        assert sum(merged.values()) == pytest.approx(1.0)
        # replica streams are the documented seed_base + k rule
        singles = [run(spec, LatticeState.full(4), 5_000, seed=100 + k)
                   for k in range(3)]
        total = sum(r.total_time for r in singles)
        rebuilt = {}
        for r in singles:
            for c, w in r.config_weights.items():
                rebuilt[c] = rebuilt.get(c, 0.0) + w / total
        assert merged == pytest.approx(rebuilt)
