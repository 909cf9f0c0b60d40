import inspect
import math
import textwrap
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np
import pytest

from coagchain import (ChainValidationError, LatticeState, RateTriple,
                       SizeLimitError, assemble_generator, gillespie,
                       homogeneous_chain, model, run, stationary_vectors,
                       total_variation)
from conftest import (make_benchmark_chain, make_impurity_spec,
                      make_quench_spec, sampler_events)


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
        assert result.absorbed and result.n_events == 26
        assert result.final_state.bits() == [1, 0, 0, 0, 0, 0]
        assert result.histogram() == {0b100000: 1.0}
        assert result.density_profile().tolist() == [1, 0, 0, 0, 0, 0]

    def test_shorter_budget_is_a_prefix(self):
        # 1500 events cross the first block of 1024 draws; a run of 3000
        # cut at the short run's final time has made the same 1500 events
        spec = make_benchmark_chain("impurity", 8)
        short = run(spec, LatticeState.full(8), 1_500, seed=6)
        cut = run(spec, LatticeState.full(8), 3_000, seed=6,
                  t_max=short.final_state.time)
        assert short.stop == "budget" and cut.stop == "t_max"
        assert cut.n_events == 1_500
        assert cut.final_state == short.final_state
        assert cut.config_weights == short.config_weights

    def test_events_per_second(self):
        res = run(make_quench_spec(L=2), LatticeState.full(4), 2_000, seed=1)
        assert res.stop == "budget" and res.seconds > 0
        assert res.events_per_s == res.n_events / res.seconds > 0

    def test_deterministic_replay(self):
        spec = make_impurity_spec(L=2)
        a = run(spec, LatticeState.full(4), 20_000, seed=9)
        b = run(spec, LatticeState.full(4), 20_000, seed=9)
        assert a.config_weights == b.config_weights
        assert a.final_state == b.final_state

    def test_histogram_converges_to_stationary(self):
        spec = make_impurity_spec(L=2, s=-0.1)
        # stationary state of the occupied class, with no weight on the
        # empty configuration
        target = stationary_vectors(assemble_generator(spec))[0]
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

    def test_t_max_is_an_absolute_time(self):
        # a run from time 1 with t_max = 1.5 lasts 0.5 and ends at 1.5
        spec = make_quench_spec(L=2)
        res = run(spec, LatticeState(15, 4, 1.0), 10 ** 9, seed=3, t_max=1.5)
        assert res.stop == "t_max"
        assert res.final_state.time == 1.5
        assert res.total_time == pytest.approx(0.5)

    def test_initial_time_past_t_max_raises(self):
        spec = make_impurity_spec(L=2)
        with pytest.raises(ChainValidationError, match="past t_max"):
            run(spec, LatticeState(15, 4, 5.0), 100, seed=1, t_max=2.0)
        # starting exactly at t_max is a run of length 0
        res = run(spec, LatticeState(15, 4, 2.0), 100, seed=1, t_max=2.0)
        assert res.total_time == 0.0 and res.n_events == 0
        assert res.density_profile().tolist() == [1, 1, 1, 1]

    def test_histogram_refused_above_size_limit(self):
        # a 20-site run keeps no configuration weights, so it has no
        # histogram; its density profile is what it measured
        spec = make_impurity_spec(L=10, s=1.0)
        res = run(spec, LatticeState.full(20), 100, seed=1)
        assert not res.absorbed and res.config_weights == {}
        with pytest.raises(SizeLimitError):
            res.histogram()
        assert res.density_profile().shape == (20,)

    def test_zero_draw_picks_a_bond_with_events(self, monkeypatch):
        # rng.random() can return exactly 0.0; from 0001 only bond 3 has
        # events, and the run must take one of them
        class Draws:
            def standard_exponential(self, size):
                return np.ones(size)

            def random(self, size):
                return np.zeros(size)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        spec = make_impurity_spec(L=2)
        res = run(spec, LatticeState.from_bits([0, 0, 0, 1]), 1, seed=0)
        assert res.n_events == 1
        assert res.final_state.occupancy in {
            occ for bond, occ, _ in sampler_events(spec, 0b0001)}

    @pytest.mark.parametrize("n_sites", [6, 3])
    def test_initial_state_of_another_size_refused(self, n_sites):
        spec = make_impurity_spec(L=2, s=1.0)
        with pytest.raises(ChainValidationError, match=f"{n_sites} sites"):
            run(spec, LatticeState.full(n_sites), 50, seed=1)

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


def plain_sums(totals):
    """The rate sum, and a picker of (bond, remainder) for a draw u in
    [0, rate sum), over one running sum of all bond totals."""
    cum = list(accumulate(totals))

    def pick(u):
        b = bisect_right(cum, u)
        return b, u - cum[b - 1] if b else u
    return cum[-1], pick


def blocks_of(totals):
    """Block width max(32, ceil(sqrt(N - 1))), each block's running sums
    and the running sum of the block sums."""
    w = max(32, math.ceil(math.sqrt(len(totals))))
    runs = [list(accumulate(totals[s:s + w]))
            for s in range(0, len(totals), w)]
    return w, runs, list(accumulate(r[-1] for r in runs))


def blocked_sums(totals):
    """As ``plain_sums``, over blocks: a bisection of the block prefix,
    then one inside the block."""
    w, runs, prefix = blocks_of(totals)

    def pick(u):
        k = bisect_right(prefix, u)
        if k:
            u -= prefix[k - 1]
        run_k = runs[k]
        i = (bisect_right(run_k, u) if u < run_k[-1]
             else bisect_left(run_k, run_k[-1]))
        return k * w + i, u - run_k[i - 1] if i else u
    return prefix[-1], pick


def block_draws(seed):
    """The run's draw contract: from one PCG64 stream, blocks of 1024 unit
    exponentials then 1024 uniforms, as (waiting time, uniform) pairs."""
    rng = np.random.default_rng(seed)
    while True:
        waits = rng.standard_exponential(1024).tolist()
        yield from zip(waits, rng.random(1024).tolist())


def reference_run(spec, initial, n_events, seed, t_max=None,
                  sums=plain_sums):
    """``run`` without its incremental bookkeeping: every bond total and
    every running sum is recomputed before each event, and every occupied
    site adds each waiting time.  The RNG draws and the bond selection
    ``sums`` are the same, so the trajectory must be too."""
    draws = block_draws(seed)
    tables = gillespie._bond_tables(spec)
    n = spec.n_sites
    occ, t = initial.occupancy, initial.time
    weights, site_occ = {}, np.zeros(n)
    executed, stop = 0, "budget"
    while executed < n_events:
        rate_sum, pick = sums([
            tables[j][gillespie._pair_of(occ, j + 1, n)][2]
            for j in range(n - 1)])
        if rate_sum == 0.0:
            stop = "absorbed"
            break
        wait, uniform = next(draws)
        dt = wait / rate_sum
        past_t_max = t_max is not None and t + dt > t_max
        if past_t_max:
            dt = t_max - t
        if n <= gillespie._HISTOGRAM_MAX_SITES:
            weights[occ] = weights.get(occ, 0.0) + dt
        site_occ += dt * np.array(LatticeState(occ, n).bits())
        if past_t_max:
            t, stop = t_max, "t_max"
            break
        t += dt
        b, u = pick(uniform * rate_sum)
        targets, cum, _ = tables[b][gillespie._pair_of(occ, b + 1, n)]
        new = targets[min(bisect_right(cum, u), len(cum) - 1)]
        occ = gillespie._apply_pair(occ, b + 1, n, new)
        executed += 1
    return (LatticeState(occ, n, t), executed, stop, weights, site_occ,
            t - initial.time)


class TestIncrementalBookkeeping:
    @pytest.mark.parametrize("n", [8, 30, 40, 300])
    @pytest.mark.parametrize("stop", ["budget", "t_max", "absorbed"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_full_recomputation(self, n, stop, seed):
        # up to 32 bonds one block holds them all, and the run draws the
        # plain running sum's trajectory bit for bit; past that, the
        # blocked one's
        sums = plain_sums if n <= 33 else blocked_sums
        if stop == "absorbed":
            # p = 0: every particle drifts to site 1 and merges there; at
            # 300 sites, without pair creation, in ~4k events, not ~36k
            delta = 1.0 if n <= 40 else 0.0
            spec = homogeneous_chain(RateTriple(0.0, 3.0, delta),
                                     n // 2, n // 2)
            budget, t_max = 10 ** 6, None
        else:
            spec = make_impurity_spec(L=n // 2, s=1.0)
            budget, t_max = ((2_000, None) if stop == "budget"
                             else (10 ** 6, 30.0 / n))
        initial = LatticeState.full(n)
        res = run(spec, initial, budget, seed=seed, t_max=t_max)
        final, executed, ref_stop, weights, site_occ, total = reference_run(
            spec, initial, budget, seed, t_max, sums)
        assert res.stop == ref_stop == stop
        assert res.absorbed == (stop == "absorbed")
        assert (res.n_events == budget) == (stop == "budget")
        assert (res.total_time == t_max) == (stop == "t_max")
        assert res.final_state == final
        assert res.n_events == executed
        assert res.config_weights == weights
        assert res.total_time == total
        np.testing.assert_allclose(res.site_occupation, site_occ, rtol=0,
                                   atol=1e-12 * res.total_time)

    def test_blocks_wider_than_32(self):
        # 1089 bonds make 33 blocks of 33
        n = 1090
        spec = make_impurity_spec(L=n // 2, s=1.0)
        initial = LatticeState.full(n)
        res = run(spec, initial, 300, seed=1)
        final, executed, stop, _, _, total = reference_run(
            spec, initial, 300, 1, sums=blocked_sums)
        assert res.stop == stop == "budget"
        assert res.final_state == final
        assert res.total_time == total

    @pytest.mark.parametrize("n", [8, 16])
    def test_site_occupation_sums_config_weights(self, n):
        spec = make_quench_spec(L=n // 2)
        res = run(spec, LatticeState.full(n), 20_000, seed=4)
        expected = np.zeros(n)
        for config, w in res.config_weights.items():
            expected += w * np.array(LatticeState(config, n).bits())
        np.testing.assert_allclose(res.site_occupation, expected, rtol=0,
                                   atol=1e-12 * res.total_time)


class FixedDraws:
    """Stands in for the run's generator: unit waiting times, and ``u``
    as every uniform draw."""

    def __init__(self, u):
        self.u = u

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return np.full(size, self.u)


class TestBlockBoundaries:
    def test_draws_at_block_edges_pick_bonds_with_events(self, monkeypatch):
        # one particle on site 289 of 300: blocks 0-7 have no events,
        # block 8 only its last bond, block 9 only its first
        n = 300
        spec = make_impurity_spec(L=n // 2, s=1.0)
        initial = LatticeState.from_bits([0] * 288 + [1] + [0] * 11)
        events = sampler_events(spec, initial.occupancy)
        bond_of = {occ: bond for bond, occ, _ in events}
        assert set(bond_of.values()) == {288, 289}
        tables = gillespie._bond_tables(spec)
        w, runs, prefix = blocks_of([
            tables[j][gillespie._pair_of(initial.occupancy, j + 1, n)][2]
            for j in range(n - 1)])
        assert w == 32 and prefix[7] == 0.0 < prefix[8] < prefix[9]
        # every running sum, each block's offset by the sums before it
        edges = [(base + c) / prefix[-1]
                 for base, r in zip([0.0] + prefix[:-1], runs) for c in r
                 if base + c < prefix[-1]]
        draws = ([0.0, np.nextafter(1, 0)] + edges
                 + [np.nextafter(e, 0) for e in edges if e > 0])
        taken = set()
        for u in draws:
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed, u=u: FixedDraws(u))
            res = run(spec, initial, 1, seed=0)
            assert res.n_events == 1
            assert res.final_state.occupancy in bond_of
            taken.add(bond_of[res.final_state.occupancy])
        assert taken == {288, 289}

    def test_remainder_rounded_to_the_block_sum_takes_its_last_bond(
            self, monkeypatch):
        # block 0 sums to 1.5 ulp(1), block 1 to s = 1 + 2 ulp(1) on its
        # first bond alone.  The block prefix rounds 1 + 3.5 ulp(1) up to
        # 1 + 4 ulp(1); a draw of 1 + 3 ulp(1) falls in block 1, and its
        # remainder rounds (to even) up to s, past every bond of the block
        # with events.  The next bond has none.
        ulp = 2.0 ** -52
        rates = [0.0] * 65
        rates[31], rates[32] = 1.5 * ulp, 1 + 2 * ulp
        tables = [[([source ^ 1], [r], r) if r else ([], [], 0.0)
                   for source in range(4)] for r in rates]
        monkeypatch.setattr(gillespie, "_bond_tables", lambda spec: tables)
        _, runs, prefix = blocks_of(rates)
        target = 1 + 3 * ulp
        assert prefix == [rates[31], 1 + 4 * ulp, 1 + 4 * ulp]
        assert target - prefix[0] == runs[1][-1]
        u = target / prefix[-1]
        while u * prefix[-1] != target:
            u = np.nextafter(u, 0 if u * prefix[-1] > target else 1)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: FixedDraws(u))
        spec = make_impurity_spec(L=33)
        res = run(spec, LatticeState.empty(66), 1, seed=0)
        assert res.n_events == 1
        # bond 33 (index 32) flipped its right site, site 34
        assert res.final_state.bits() == [0] * 33 + [1] + [0] * 32



def compensator_z(res, spec):
    """The run's clock against the exact exit rates: sum over c of
    ``config_weights[c]`` times -G[c, c], less the event count, over its
    square root.  Each waiting time is a unit exponential over the exit
    rate of its state, so the sum is that of the run's n unit draws, and
    this is a standardised sum of n of them."""
    gen = assemble_generator(spec)
    total = sum(w * -gen[c, c] for c, w in res.config_weights.items())
    return (total - res.n_events) / math.sqrt(res.n_events)


class TestClock:
    @pytest.mark.parametrize("family", ["impurity", "quench"])
    def test_compensator_counts_the_events(self, family):
        spec = make_benchmark_chain(family, 8)
        res = run(spec, LatticeState.full(8), 20_000, seed=1)
        assert res.n_events == 20_000
        assert abs(compensator_z(res, spec)) < 5

    @pytest.mark.parametrize("family", ["impurity", "quench"])
    def test_scaled_waiting_times_fail(self, family, monkeypatch):
        # a stationary law cannot see this: every state keeps its share
        class Scaled:
            def __init__(self, rng):
                self.rng = rng

            def standard_exponential(self, size):
                return 1.1 * self.rng.standard_exponential(size)

            def random(self, size):
                return self.rng.random(size)
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Scaled(real(seed)))
        spec = make_benchmark_chain(family, 8)
        res = run(spec, LatticeState.full(8), 20_000, seed=1)
        assert compensator_z(res, spec) > 5

    def test_stale_rate_sum_fails(self):
        # run's source with each waiting time over the rate sum of the
        # state before the last event; on the quench this moves the sum
        # by only about 4 sigma at 20k events, on the impurity chain by 19
        line = "dt = waits[d] / rate_sum"
        source = textwrap.dedent(inspect.getsource(gillespie.run))
        assert source.count(line) == 1
        namespace = dict(vars(gillespie))
        exec(source.replace(line, "dt = waits[d] / (last if executed else "
                            "rate_sum); last = rate_sum"), namespace)
        spec = make_benchmark_chain("impurity", 8)
        res = namespace["run"](spec, LatticeState.full(8), 20_000, seed=1)
        assert res.n_events == 20_000
        assert compensator_z(res, spec) > 5
