"""Exact stochastic simulation of the chain, independent of the spectra.

Events are read off the columns of the very same local operators that
build the generator, so the simulator and the matrix machinery cannot
disagree about rates.  Bonds that share an operator share its event
table.  The sampler is the direct method: an exponential waiting time,
then a bond, then one of its events by bisecting its cumulative rates.
The bond totals sit in blocks of about sqrt(N) bonds (at least 32),
each with its own running sums, under a running sum of the block sums;
a bond is found by one bisection at each level, in O(sqrt N).  An event refreshes its own
and the two adjacent bond totals, then rebuilds the running sums of the
one or two blocks that hold them and the block level from those totals,
never by differences, so no sum drifts and a zero rate sum is exact.  A
run draws from one PCG64 stream seeded by the caller.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

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
    stop: str                         # "budget", "t_max" or "absorbed"
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


# below this many bonds one running sum costs less than two levels, and
# a chain of up to 33 sites keeps the single-sum trajectory bit for bit
_MIN_BLOCK = 32


def _block_width(n_bonds: int) -> int:
    """Bonds per block: ceil(sqrt(n_bonds)), and never fewer than
    ``_MIN_BLOCK``."""
    return max(_MIN_BLOCK, isqrt(n_bonds - 1) + 1)


def run(spec: ChainSpec, initial: LatticeState, n_events: int,
        seed: int, t_max: float | None = None) -> SimulationResult:
    """Simulate up to ``n_events`` transitions, or until the clock reaches
    the absolute time ``t_max`` (not a duration: a run from
    ``initial.time`` = 1 with ``t_max`` = 3 lasts at most 2 time units).
    Raises ``ChainValidationError`` when ``initial.time`` is past
    ``t_max``."""
    if initial.n_sites != spec.n_sites:
        raise ChainValidationError(
            f"initial state has {initial.n_sites} sites, the chain "
            f"{spec.n_sites}")
    if t_max is not None and initial.time > t_max:
        raise ChainValidationError(
            f"initial time {initial.time} is past t_max = {t_max}")
    rng = np.random.default_rng(seed)
    exponential, random = rng.exponential, rng.random
    tables = _bond_tables(spec)
    n = spec.n_sites
    n_bonds = n - 1
    last_bond = n_bonds - 1
    width = _block_width(n_bonds)
    # configuration weights by index, while the state space stays small
    keep_hist = n <= _HISTOGRAM_MAX_SITES
    hist = [0.0] * (1 << n) if keep_hist else []
    t_end = np.inf if t_max is None else t_max
    occ, t = initial.occupancy, initial.time
    # each bond's total rate by its pair, shared like the tables
    pair_totals = {id(tb): [e[2] for e in tb] for tb in tables}
    bond_totals = [pair_totals[id(tb)] for tb in tables]
    totals = [bond_totals[j][_pair_of(occ, j + 1, n)] for j in range(n_bonds)]
    # the one or two blocks that hold the totals an event on bond j refreshes
    spans = [slice(s, s + width) for s in range(0, n_bonds, width)]
    touched = [tuple(range(max(j - 1, 0) // width,
                     min(j + 1, n_bonds - 1) // width + 1))
               for j in range(n_bonds)]
    runs = [[*accumulate(totals[span])] for span in spans]
    block_sums = [r[-1] for r in runs]
    prefix = [*accumulate(block_sums)]
    since = [t] * n           # when each site last flipped
    site_occ = [0.0] * n      # its occupied time before that flip
    stop = "budget"
    for executed in range(n_events):
        rate_sum = prefix[-1]
        if rate_sum == 0.0:
            stop = "absorbed"
            break
        dt = exponential() / rate_sum
        if t + dt > t_end:
            if keep_hist:
                hist[occ] += t_end - t
            t, stop = t_end, "t_max"
            break
        if keep_hist:
            hist[occ] += dt
        t += dt
        u = random() * rate_sum
        k = bisect_right(prefix, u)
        if k:
            u -= prefix[k - 1]
        run_k = runs[k]
        # a remainder rounded up to the block's sum takes its last bond
        # with events, never a zero-rate bond after it
        i = (bisect_right(run_k, u) if u < run_k[-1]
             else bisect_left(run_k, run_k[-1]))
        if i:
            u -= run_k[i - 1]
        b = k * width + i  # bond b + 1, on sites b and b + 1
        shift = n - 2 - b
        pair = (occ >> shift) & 3  # _pair_of(occ, b + 1, n), inlined
        targets, cum, _ = tables[b][pair]
        new = targets[bisect_right(cum, u) if u < cum[-1] else len(cum) - 1]
        flips = pair ^ new
        occ ^= flips << shift  # _apply_pair(occ, b + 1, n, new), inlined
        totals[b] = bond_totals[b][new]
        # a neighbouring bond's total changes only with its shared site
        if flips & 2:
            if pair & 2:  # site b empties
                site_occ[b] += t - since[b]
            since[b] = t
            if b:
                totals[b - 1] = bond_totals[b - 1][(occ >> (shift + 1)) & 3]
        if flips & 1:
            if pair & 1:  # site b + 1 empties
                site_occ[b + 1] += t - since[b + 1]
            since[b + 1] = t
            if b < last_bond:
                totals[b + 1] = bond_totals[b + 1][(occ >> (shift - 1)) & 3]
        for k in touched[b]:
            run_k = runs[k] = [*accumulate(totals[spans[k]])]
            block_sums[k] = run_k[-1]
        prefix = [*accumulate(block_sums)]
    else:
        executed = n_events

    final = LatticeState(occ, n, t)  # occupied sites add their last stretch
    site_occ = np.add(site_occ, np.multiply(final.bits(), t - np.array(since)))
    weights = {c: w for c, w in enumerate(hist) if w}
    return SimulationResult(weights, site_occ, t - initial.time, executed,
                            stop == "absorbed", stop, final, seed)


def total_variation(histogram: dict[int, float], exact: np.ndarray) -> float:
    """TV distance between an empirical histogram and an exact distribution."""
    dim = len(exact)
    emp = np.zeros(dim)
    for c, w in histogram.items():
        emp[c] = w
    return 0.5 * float(np.sum(np.abs(emp - exact)))
