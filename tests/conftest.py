"""Shared fixtures: canonical chains and a random valid-chain sampler."""

import math
from dataclasses import astuple
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
import scipy.linalg

from coagchain import (ChainSpec, JunctionRates, RateTriple,
                       build_impurity_junction, build_quench_junction,
                       gillespie, homogeneous_chain)


def impurity_chain(rates, L, s) -> ChainSpec:
    junction, _ = build_impurity_junction(rates, s)
    return ChainSpec(L, L, rates, rates, junction,
                     junction_kind="impurity", impurity_s=s)


def quench_chain(seg1, seg2, L) -> ChainSpec:
    junction, _ = build_quench_junction(seg1, seg2)
    return ChainSpec(L, L, seg1, seg2, junction, junction_kind="quench")


def mp_chain(spec) -> ChainSpec:
    """``spec`` with every rate an mpmath number at the working precision."""
    import mpmath
    s1, s2 = (RateTriple(*map(mpmath.mpf, astuple(r)))
              for r in (spec.seg1, spec.seg2))
    junction = JunctionRates(*map(mpmath.mpf, astuple(spec.junction)))
    return ChainSpec(spec.L1, spec.L2, s1, s2, junction)


def make_impurity_spec(L=3, p=0.5, q=3.0, theta=0.6, s=-0.3) -> ChainSpec:
    return impurity_chain(RateTriple.from_theta(p, q, theta), L, s)


def make_quench_spec(L=3, delta1=1.0, delta2=1.0) -> ChainSpec:
    return quench_chain(RateTriple(0.6, 6.0, delta1),
                        RateTriple(6.0, 0.2, delta2), L)


def make_benchmark_chain(family, n_sites, delta=None) -> ChainSpec:
    """A benchmark family at N sites: impurity theta = 0.6, s = 1, or
    quench delta1 = 1, delta2 = 1.3.  ``delta`` replaces the impurity
    chain's pair rate, or delta1 of the quench (delta2 = 1.3 * delta1)."""
    if family == "quench":
        d1 = 1.0 if delta is None else delta
        return make_quench_spec(n_sites // 2, delta1=d1, delta2=1.3 * d1)
    theta = 0.6 if delta is None else 0.5 * math.atan(math.sqrt(delta))
    return make_impurity_spec(n_sites // 2, theta=theta, s=1.0)


def exact_chains() -> dict:
    """Chains with ``Fraction`` rates: p*q > 0, p*q = 0 and frozen."""
    seg1 = RateTriple(Fraction(3, 5), Fraction(6), Fraction(1))
    seg2 = RateTriple(Fraction(6), Fraction(1, 5), Fraction(13, 10))
    junction, _ = build_quench_junction(seg1, seg2)
    p0 = RateTriple(Fraction(0), Fraction(6), Fraction(1))
    return {
        "impurity": impurity_chain(
            RateTriple(Fraction(1, 2), Fraction(3), Fraction(7, 3)), 3,
            Fraction(1, 3)),
        "even quench": quench_chain(seg1, seg2, 3),
        "odd quench": ChainSpec(3, 4, seg1, seg2, junction),
        "homogeneous p=0": homogeneous_chain(
            RateTriple(Fraction(0), Fraction(3), Fraction(1)), 3, 3),
        "impurity q=0": impurity_chain(
            RateTriple(Fraction(2), Fraction(0), Fraction(1)), 2,
            Fraction(1, 2)),
        "quench p1=0": quench_chain(p0, seg2, 3),
        "frozen": homogeneous_chain(
            RateTriple(Fraction(0), Fraction(0), Fraction(1)), 2, 2),
    }


def sampler_events(spec, occupancy):
    """(bond, new occupancy, rate) of every transition that the simulator's
    event tables enable in ``occupancy``.  Each rate is the operator entry
    of a table target; the table's cumulative rates must be exactly their
    running sums."""
    n = spec.n_sites
    events = []
    for k, table in enumerate(gillespie._bond_tables(spec), start=1):
        pair = gillespie._pair_of(occupancy, k, n)
        targets, cum, total = table[pair]
        column = spec.bond_operator(k).entries[:, pair]
        rates = [float(column[t]) for t in targets]
        assert cum == list(accumulate(rates))
        assert total == (cum[-1] if cum else 0.0)
        events.extend((k, gillespie._apply_pair(occupancy, k, n, t), rate)
                      for t, rate in zip(targets, rates))
    return events


def kron_generator(ops):
    """Dense reference generator: the sum over bonds k of
    I(2^(k-1)) x ops[k-1] x I(2^(N-k-1)), formed with ``np.kron`` in the
    number type of the 4x4 bond matrices ``ops`` (object arrays too)."""
    n = len(ops) + 1
    total = np.zeros((2 ** n, 2 ** n), dtype=np.result_type(*ops))
    for k, op in enumerate(ops, start=1):
        total = total + np.kron(np.kron(np.eye(2 ** (k - 1)), op),
                                np.eye(2 ** (n - k - 1)))
    return total


def dense_eigvals(gen):
    """Reference spectrum: plain ``scipy.linalg.eigvals`` of the whole
    generator, with no use of its block-triangular form."""
    return scipy.linalg.eigvals(gen)


def random_rate_triple(rng, delta=None) -> RateTriple:
    p, q = rng.uniform(0.2, 3.0, 2)
    if delta is None:
        delta = rng.uniform(0.05, 3.0)
    return RateTriple(float(p), float(q), float(delta))


def random_chain(rng, L1=None, L2=None, deltas=(None, None)) -> ChainSpec:
    """A uniformly sampled chain satisfying every positivity constraint.

    ``deltas`` fixes the two segments' delta before they are ordered by Q.

    The junction interval for q_bar*delta2 has width 2*(Q1 - Q2) >= 0, so
    sampling q_bar inside it and Q_bar inside its own interval always
    succeeds once the segments are ordered by Q.
    """
    if L1 is None:
        L1 = int(rng.integers(2, 4))
    if L2 is None:
        L2 = int(rng.integers(2, 4))
    seg1 = random_rate_triple(rng, deltas[0])
    seg2 = random_rate_triple(rng, deltas[1])
    if seg1.Q < seg2.Q:
        seg1, seg2 = seg2, seg1
    # feasibility needs p_bar*delta1 >= -2*Q1 when Q1 < 0
    pd_lo = max(0.0, -2 * seg1.Q)
    p_bar = float(rng.uniform(pd_lo, pd_lo + 3.0 * seg1.delta)) / seg1.delta
    qd_lo = max(0.0, p_bar * seg1.delta + 2 * seg2.Q)
    qd_hi = p_bar * seg1.delta + 2 * seg1.Q
    q_bar = float(rng.uniform(qd_lo, max(qd_hi, qd_lo))) / seg2.delta
    lo = max((p_bar * seg1.delta + q_bar * seg2.delta) / 2, -seg1.Q, seg2.Q)
    hi = min(p_bar * seg1.delta + seg1.Q, q_bar * seg2.delta - seg2.Q)
    Q_bar = float(rng.uniform(lo, max(hi, lo)))
    return ChainSpec(L1, L2, seg1, seg2,
                     JunctionRates(p_bar, q_bar, Q_bar))


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture
def impurity_spec():
    return make_impurity_spec()


@pytest.fixture
def quench_spec():
    return make_quench_spec()


@pytest.fixture
def homogeneous_spec():
    return homogeneous_chain(RateTriple(0.5, 3.0, 1.0), 3, 3)
