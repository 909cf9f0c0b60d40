"""The four workloads: seeded inputs, the timed call, and its checks.

A workload yields rounds of operations.  Each operation is one closed-loop
call into coagchain (its ``call``) and a ``classify`` step that runs
outside the timed region and turns the call's result into an OpOutcome.
The program sees only the chains built here; the seed never reaches it
except as the simulator's own stream seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from coagchain import (gillespie, model, oneparticle, spectrum, sweeps,
                       verify)

import checks

# CLI-default families of the two headline studies
IMPURITY_P, IMPURITY_Q = 0.5, 3.0
THETAS = (0.1, 0.5, 0.6, 0.65)
S_MIN, S_MAX = -min(IMPURITY_P, IMPURITY_Q), 3.0
QUENCH_RATES = (0.6, 6.0, 6.0, 0.2)          # p1, q1, p2, q2
DELTAS1 = (0.5, 1.0, 2.0)
D2_LO, D2_HI = 0.2, 2.0                      # delta2 range, times delta1

SWEEP_L = 60                                 # N = 120
LADDER = (500, 1000, 1500)
ORACLE_SIZES = (8, 10, 12, 20, 40)
SIM_RUNS = {200: 5, 1000: 1}                 # runs per round, by N
SIM_EVENTS = 300


@dataclass
class Op:
    slot: str
    call: Callable[[], object]
    classify: Callable[[object], dict]


def impurity_chain(n_sites: int, theta: float, s: float):
    rates = model.RateTriple.from_theta(IMPURITY_P, IMPURITY_Q, theta)
    junction, _ = model.build_impurity_junction(rates, s)
    return model.ChainSpec(n_sites // 2, n_sites // 2, rates, rates, junction,
                           junction_kind="impurity", impurity_s=s)


def quench_chain(n_sites: int, delta1: float, delta2: float):
    p1, q1, p2, q2 = QUENCH_RATES
    seg1, seg2 = model.RateTriple(p1, q1, delta1), model.RateTriple(p2, q2, delta2)
    junction, _ = model.build_quench_junction(seg1, seg2)
    return model.ChainSpec(n_sites // 2, n_sites // 2, seg1, seg2, junction,
                           junction_kind="quench")


GOLDEN = (5 ** 0.5 - 1) / 2


def evenly(rng, lo: float, hi: float):
    """Endless draws from [lo, hi): a golden-ratio sequence from a seeded
    start.  Any run of consecutive draws covers the range nearly evenly,
    so a run's mean cost depends little on the seed, although the cost of
    one N = 120 point swings from 12 ms to 190 ms with s."""
    u = rng.random()
    while True:
        yield lo + (hi - lo) * u
        u = (u + GOLDEN) % 1.0


def cycled(rng, values):
    """Endless draws that use every value once per block, in random order."""
    while True:
        for i in rng.permutation(len(values)):
            yield values[i]


def _spectrum_problems(spec, sp, omega, par, gap, check_seed):
    """Root and gap checks; ``check_seed`` places the interior window of
    the sign check, drawn apart from the inputs so checking never shifts
    the input stream."""
    rng = np.random.default_rng(check_seed)
    return (checks.root_problems(spec, sp, rng)
            + checks.gap_problems(sp, omega, par, gap))


# -- gap-sweep ---------------------------------------------------------------

def _sweep_point_op(slot, call, spec, rates, s, check_seed):
    def classify(points):
        (pt,) = points
        if pt.error:
            return {"error_point": pt.error}
        sp = oneparticle.one_particle_spectrum(spec)
        problems = _spectrum_problems(spec, sp, pt.omega, spectrum.parity(spec),
                                      pt.gap, check_seed)
        if s == 0.0:
            problems += checks.homogeneous_problems(rates, spec.n_sites, sp)
        return {"check_errors": tuple(problems)}
    return Op(slot, call, classify)


def gap_sweep_rounds(rng):
    """One round is a point per theta and per delta1; the first round puts
    every impurity point at s = 0."""
    s_draws = {theta: evenly(rng, S_MIN, S_MAX) for theta in THETAS}
    d2_draws = {d1: evenly(rng, D2_LO * d1, D2_HI * d1) for d1 in DELTAS1}
    first = True
    while True:
        ops = []
        for theta in THETAS:
            s = 0.0 if first else next(s_draws[theta])
            rates = model.RateTriple.from_theta(IMPURITY_P, IMPURITY_Q, theta)
            spec = impurity_chain(2 * SWEEP_L, theta, s)
            ops.append(_sweep_point_op(
                f"impurity theta={theta}",
                lambda r=rates, s=s: sweeps.impurity_gap_sweep(r, SWEEP_L, [s]),
                spec, rates, s, int(rng.integers(2 ** 32))))
        for delta1 in DELTAS1:
            d2 = next(d2_draws[delta1])
            spec = quench_chain(2 * SWEEP_L, delta1, d2)
            ops.append(_sweep_point_op(
                f"quench delta1={delta1}",
                lambda d1=delta1, d2=d2: sweeps.quench_gap_sweep(
                    *QUENCH_RATES, d1, SWEEP_L, [d2]),
                spec, None, None, int(rng.integers(2 ** 32))))
        first = False
        yield ops


# -- large-chain -------------------------------------------------------------

def _pipeline(spec):
    sp = oneparticle.one_particle_spectrum(spec)
    omega = spectrum.vacuum_energy(spec, sp)
    par = spectrum.parity(spec)
    return sp, omega, par, spectrum.spectral_gap(sp, omega, par)


def _pipeline_op(slot, spec, check_seed):
    def classify(out):
        sp, omega, par, gap = out
        return {"check_errors": tuple(
            _spectrum_problems(spec, sp, omega, par, gap.gap, check_seed))}
    return Op(slot, lambda: _pipeline(spec), classify)


# The single-pass workloads run each (family, N) slot once per pass, so a
# fresh draw per seed would decide the run's cost: a secular search at
# N >= 1000 takes 3 s to 30 s depending on (theta, s), and an N <= 10
# verification 1.1 s to 1.6 s.  They use one fixed point of each family
# instead, in a fixed order: peak RSS depended on the order (memory the
# allocator kept from the O(N^2) gap at N = 1500 stacked under the next
# dense matrix).  The seed picks oracle-check's family at N = 12 and the
# interior sign-check windows.
FIXED_IMPURITY = (0.6, 1.0)                  # theta, s
FIXED_QUENCH = (1.0, 1.3)                    # delta1, delta2


def large_chain_rounds(rng):
    ops = []
    for n in LADDER:
        ops.append(_pipeline_op(f"impurity N={n}",
                                impurity_chain(n, *FIXED_IMPURITY),
                                int(rng.integers(2 ** 32))))
        ops.append(_pipeline_op(f"quench N={n}",
                                quench_chain(n, *FIXED_QUENCH),
                                int(rng.integers(2 ** 32))))
    while True:
        yield ops


# -- oracle-check ------------------------------------------------------------

def _verification_op(slot, spec):
    def classify(results):
        return {"failed_checks": tuple(r.name for r in results if not r.passed),
                "check_errors": tuple(
                    checks.verification_problems(spec.n_sites, results))}
    return Op(slot, lambda: verify.run_verification(spec, level="full"),
              classify)


def oracle_rounds(rng):
    """Both families at every size but N = 12, where one verification takes
    about 34 s single-threaded (nearly all of it the dense 4096 x 4096
    eigensolver, for either family); one family there keeps a pass near
    45 s."""
    chains = {"impurity": lambda n: impurity_chain(n, *FIXED_IMPURITY),
              "quench": lambda n: quench_chain(n, *FIXED_QUENCH)}
    while True:
        ops = []
        for n in ORACLE_SIZES:
            families = list(chains)
            if n == 12:
                families = [families[int(rng.integers(2))]]
            ops.extend(_verification_op(f"{f} N={n}", chains[f](n))
                       for f in families)
        yield ops


# -- simulate ----------------------------------------------------------------

def _simulation_op(slot, spec, sim_seed):
    initial = gillespie.LatticeState.full(spec.n_sites)

    def classify(result):
        return {"events": result.n_events, "check_errors": tuple(
            checks.simulation_problems(result, spec.n_sites, SIM_EVENTS))}
    return Op(slot, lambda: gillespie.run(spec, initial, SIM_EVENTS,
                                          seed=sim_seed), classify)


def simulate_rounds(rng):
    """One round is SIM_RUNS[N] runs at each size from the full lattice,
    about the same time per size at the current per-event costs; theta
    cycles through the family, s is drawn evenly."""
    draws = {n: (cycled(rng, THETAS), evenly(rng, S_MIN, S_MAX))
             for n in SIM_RUNS}
    while True:
        yield [_simulation_op(
                   f"impurity N={n}",
                   impurity_chain(n, next(draws[n][0]), next(draws[n][1])),
                   int(rng.integers(2 ** 31)))
               for n, runs in SIM_RUNS.items() for _ in range(runs)]


# -- set-up ------------------------------------------------------------------

def warm_up(name: str) -> None:
    """First calls on small chains, so lazy set-up is paid before timing."""
    if name == "gap-sweep":
        rates = model.RateTriple.from_theta(IMPURITY_P, IMPURITY_Q, THETAS[0])
        sweeps.impurity_gap_sweep(rates, 4, [0.0])
        sweeps.quench_gap_sweep(*QUENCH_RATES, DELTAS1[0], 4, [DELTAS1[0]])
    elif name == "large-chain":
        _pipeline(impurity_chain(8, *FIXED_IMPURITY))
        _pipeline(quench_chain(8, *FIXED_QUENCH))
    elif name == "oracle-check":
        verify.run_verification(impurity_chain(4, 0.5, 0.5), level="quick")
    elif name == "simulate":
        gillespie.run(impurity_chain(8, 0.5, 0.5),
                      gillespie.LatticeState.full(8), 100, seed=0)


WORKLOADS = {
    "gap-sweep": gap_sweep_rounds,
    "large-chain": large_chain_rounds,
    "oracle-check": oracle_rounds,
    "simulate": simulate_rounds,
}
