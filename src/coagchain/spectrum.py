"""Assembling the full generator spectrum from one-particle energies.

Every eigenvalue of the chain generator is the vacuum energy plus a sum
of one-particle energies over a subset of fixed parity (the zero mode is
discarded).  The parity and the vacuum energy are determined by the signs
of Q_i = delta_i*(q_i - p_i)/2 on the two segments; the spectral gap is the
largest strictly nonzero eigenvalue, which by negativity of the energies
is realized with the minimal number of excitations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainValidationError, ConsistencyError, SizeLimitError
from .model import ChainSpec, RateTriple, homogeneous_chain
from .oneparticle import OneParticleSpectrum, homogeneous_energies

MAX_ASSEMBLY_SITES = 20
_GAP_ZERO_TOL = 1e-10


def _segment_Q(spec: ChainSpec) -> tuple[float, float]:
    """Q_i = delta_i*(q_i - p_i)/2; a valid chain has Q1 >= Q2."""
    Q1, Q2 = spec.seg1.Q, spec.seg2.Q
    if Q1 < Q2:
        raise ChainValidationError(
            f"Q1={Q1:.6g} < Q2={Q2:.6g}: invalid chain orientation")
    return Q1, Q2


def vacuum_energy(spec: ChainSpec, spectrum: OneParticleSpectrum | None = None
                  ) -> float:
    """Vacuum energy by case analysis on Q_i = delta_i*(q_i - p_i)/2.

    The energy-sum formula adds nothing: the secular roots are the
    eigenvalues of the Jacobi matrix T, so they sum to tr T identically
    and the sum reduces to this case analysis at every N.  ``spectrum``
    is not read: it stays only because ``perfbench/workloads.py`` passes
    the chain's spectrum.
    """
    Q1, Q2 = _segment_Q(spec)
    if Q2 > 0:
        return Q2
    if Q1 >= 0:
        return 0.0
    return -Q1


def parity(spec: ChainSpec) -> str:
    """Which excitation-number parity reproduces the generator spectrum."""
    Q1, Q2 = _segment_Q(spec)
    if Q1 >= Q2 > 0 or 0 > Q1 >= Q2:
        return "odd"
    # includes the boundary ties Q1 = 0 and/or Q2 = 0
    return "even"


def assemble_full_spectrum(spectrum: OneParticleSpectrum, omega: float,
                           par: str, n_sites: int) -> np.ndarray:
    """All 2^N generator eigenvalues, sorted descending."""
    if n_sites > MAX_ASSEMBLY_SITES:
        raise SizeLimitError(
            f"full-spectrum assembly capped at N={MAX_ASSEMBLY_SITES}, "
            f"got {n_sites}")
    values, _ = spectrum.excitations()
    if len(values) != n_sites + 1:
        raise ConsistencyError(
            f"expected {n_sites + 1} excitation energies, got {len(values)}")
    even_sums = np.zeros(1)
    odd_sums = np.zeros(0)
    for lam in values:
        even_sums, odd_sums = (np.concatenate((even_sums, odd_sums + lam)),
                               np.concatenate((odd_sums, even_sums + lam)))
    sums = odd_sums if par == "odd" else even_sums
    return np.sort(sums + omega)[::-1]


@dataclass(frozen=True)
class GapResult:
    gap: float
    labels: tuple[str, ...]
    energies: tuple[float, ...] = field(default=())


def spectral_gap(spectrum: OneParticleSpectrum, omega: float,
                 par: str) -> GapResult:
    """Largest strictly nonzero eigenvalue and the excitations forming it.

    Since all one-particle energies are nonpositive, the optimum uses the
    minimal admissible excitation count: one energy in the odd sector, a
    pair in the even sector (the empty even configuration is the
    stationary value).  Candidates indistinguishable from zero are the
    stationary states and are excluded.

    Exact in O(N log N): candidates come from the m largest energies only,
    each summed as ``(omega + v_i) + v_k`` with i < k in ``excitations()``
    order.  Rounded sums are monotone in each term, so m doubles until the
    best candidate using the (m+1)-th energy is strictly below the best
    kept one.  Ties go to the lexicographically first (i, k).
    """
    values, labels = spectrum.excitations()
    zero_tol = _GAP_ZERO_TOL * max(1.0, float(np.max(np.abs(values))))
    order = np.argsort(-values, kind="stable")
    m = 2
    while True:
        m = min(2 * m, len(values))
        top = np.sort(order[:m])
        picks = (top[:, None] if par == "odd"
                 else top[np.column_stack(np.triu_indices(m, 1))])
        sums = omega + values[picks[:, 0]]
        if par == "even":
            sums = sums + values[picks[:, 1]]
        kept = np.flatnonzero(np.abs(sums) > zero_tol)
        if m == len(values):
            break
        first, rest = values[order[0]], values[order[m]]
        bound = (omega + rest if par == "odd"
                 else max((omega + first) + rest, (omega + rest) + first))
        if len(kept) and bound < sums[kept].max():
            break
    if not len(kept):
        raise ConsistencyError(
            "all minimal-excitation eigenvalues vanish; spectrum is "
            "degenerate at this parameter point")
    best = kept[np.argmax(sums[kept])]
    return GapResult(float(sums[best]),
                     tuple(labels[j] for j in picks[best]),
                     tuple(float(values[j]) for j in picks[best]))


def homogeneous_gap(rates: RateTriple) -> float:
    """Thermodynamic-limit gap of the homogeneous chain (closed form)."""
    p, q, c2 = rates.p, rates.q, rates.cos_2theta
    if p > q:
        return -p / c2 ** 2 * (math.sqrt(q / p) - c2) ** 2
    return -q / c2 ** 2 * (math.sqrt(p / q) - c2) ** 2


def critical_theta(p: float, q: float) -> float:
    """Angle where the homogeneous gap closes: sqrt(min/max ratio)=cos(2*theta)."""
    if p == q or p <= 0 or q <= 0:
        raise ChainValidationError(
            "gap closing requires distinct positive rates")
    ratio = math.sqrt(min(p, q) / max(p, q))
    return 0.5 * math.acos(ratio)


def finite_homogeneous_gap(rates: RateTriple, L: int) -> float:
    """Finite-chain gap of the homogeneous model via its closed-form energies."""
    spectrum = homogeneous_energies(rates, L)
    spec = homogeneous_chain(rates, 1, L - 1)
    return spectral_gap(spectrum, vacuum_energy(spec),
                        parity(spec)).gap
