"""Exact stochastic simulation of the chain, independent of the spectra.

Events are read off the columns of the very same local operators that
build the generator, so the simulator and the matrix machinery cannot
disagree about rates.  Bonds that share an operator share its event
table.  The sampler is the direct method: an exponential waiting time,
then bisections of the running bond totals and of the chosen bond's
cumulative rates; an event refreshes only its own and the two adjacent
bond totals.  A run draws from one PCG64 stream seeded by the caller.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ChainValidationError, SizeLimitError
from .model import ChainSpec


@dataclass
class LatticeState:
    """Occupancy bitmask (site 1 = most significant bit) and current time."""

    occupancy: int
    n_sites: int
    time: float = 0.0

    @classmethod
    def empty(cls, n_sites: int) -> "LatticeState":
        return cls(0, n_sites)

    @classmethod
    def full(cls, n_sites: int) -> "LatticeState":
        return cls((1 << n_sites) - 1, n_sites)

    @classmethod
    def from_bits(cls, bits) -> "LatticeState":
        occ = 0
        for b in bits:
            occ = (occ << 1) | (1 if b else 0)
        return cls(occ, len(bits))

    def bits(self) -> list[int]:
        return [(self.occupancy >> (self.n_sites - 1 - k)) & 1
                for k in range(self.n_sites)]


def _event_table(m: np.ndarray) -> list[tuple]:
    """Per source pair of the operator ``m``: the target pairs, their
    cumulative rates and the total rate."""
    table = []
    for source in range(4):
        targets = [t for t in range(4) if t != source and m[t, source] > 0]
        cum = list(accumulate(float(m[t, source]) for t in targets))
        table.append((targets, cum, cum[-1] if cum else 0.0))
    return table


def _bond_tables(spec: ChainSpec):
    """Event table of every bond, one table per distinct operator."""
    by_operator = {}
    tables = []
    for k in range(1, spec.n_sites):
        op = spec.bond_operator(k)
        if id(op) not in by_operator:
            by_operator[id(op)] = _event_table(op.entries)
        tables.append(by_operator[id(op)])
    return tables


def _pair_of(occ: int, bond: int, n: int) -> int:
    return (occ >> (n - 1 - bond)) & 3


def _apply_pair(occ: int, bond: int, n: int, pair: int) -> int:
    shift = n - 1 - bond
    return (occ & ~(3 << shift)) | (pair << shift)


@dataclass
class SimulationResult:
    config_weights: dict[int, float]  # time-weighted occupation per config
    site_occupation: np.ndarray       # time-weighted density per site
    total_time: float
    n_events: int
    absorbed: bool
    final_state: LatticeState
    seed: int

    def histogram(self) -> dict[int, float]:
        """Configuration weights normalized to a probability distribution.

        An absorbed run stays in its final state forever, and a run that
        took no time has only that state: both give its point mass.
        """
        if self.absorbed or self.total_time <= 0:
            return {self.final_state.occupancy: 1.0}
        if self.final_state.n_sites > _HISTOGRAM_MAX_SITES:
            raise SizeLimitError(f"no histogram above {_HISTOGRAM_MAX_SITES} "
                                 "sites: use density_profile()")
        return {c: w / self.total_time for c, w in self.config_weights.items()}

    def density_profile(self) -> np.ndarray:
        if self.absorbed or self.total_time <= 0:
            return np.asarray(self.final_state.bits(), dtype=float)
        return self.site_occupation / self.total_time


# track per-config weights only while the state space stays enumerable
_HISTOGRAM_MAX_SITES = 16


def run(spec: ChainSpec, initial: LatticeState, n_events: int,
        seed: int, t_max: float | None = None) -> SimulationResult:
    """Simulate up to ``n_events`` transitions (or ``t_max`` time units)."""
    if initial.n_sites != spec.n_sites:
        raise ChainValidationError(
            f"initial state has {initial.n_sites} sites, the chain "
            f"{spec.n_sites}")
    rng = np.random.default_rng(seed)
    tables = _bond_tables(spec)
    n = spec.n_sites
    keep_hist = n <= _HISTOGRAM_MAX_SITES
    weights: dict[int, float] = {}
    occ, t = initial.occupancy, initial.time
    totals = [tables[j][_pair_of(occ, j + 1, n)][2] for j in range(n - 1)]
    affected = [range(max(j - 1, 0), min(j + 2, n - 1)) for j in range(n - 1)]
    since = [t] * n           # when each site last flipped
    site_occ = [0.0] * n      # its occupied time before that flip
    executed, absorbed = 0, False
    while executed < n_events:
        cum_totals = list(accumulate(totals))
        rate_sum = cum_totals[-1]
        if rate_sum == 0.0:
            absorbed = True
            break
        dt = rng.exponential() / rate_sum
        if t_max is not None and t + dt > t_max:
            if keep_hist:
                weights[occ] = weights.get(occ, 0.0) + (t_max - t)
            t = t_max
            break
        if keep_hist:
            weights[occ] = weights.get(occ, 0.0) + dt
        t += dt
        u = rng.random() * rate_sum
        b = bisect_right(cum_totals, u)  # bond b + 1, on sites b and b + 1
        u -= cum_totals[b - 1] if b else 0.0
        pair = (occ >> (n - 2 - b)) & 3  # _pair_of(occ, b + 1, n), inlined
        targets, cum, _ = tables[b][pair]
        new = targets[bisect_right(cum, u) if u < cum[-1] else len(cum) - 1]
        for site, bit in ((b, 2), (b + 1, 1)):
            if (pair ^ new) & bit:
                if pair & bit:  # the site empties
                    site_occ[site] += t - since[site]
                since[site] = t
        occ = _apply_pair(occ, b + 1, n, new)
        for j in affected[b]:
            totals[j] = tables[j][(occ >> (n - 2 - j)) & 3][2]
        executed += 1

    final = LatticeState(occ, n, t)  # occupied sites add their last stretch
    site_occ = np.add(site_occ, np.multiply(final.bits(), t - np.array(since)))
    return SimulationResult(weights, site_occ, t - initial.time, executed,
                            absorbed, final, seed)


def total_variation(histogram: dict[int, float], exact: np.ndarray) -> float:
    """TV distance between an empirical histogram and an exact distribution."""
    dim = len(exact)
    emp = np.zeros(dim)
    for c, w in histogram.items():
        emp[c] = w
    return 0.5 * float(np.sum(np.abs(emp - exact)))
