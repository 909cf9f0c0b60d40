"""Rotated spin-1/2 matrices and the two-site operator decompositions.

The local jump operators become quadratic in raising/lowering matrices
only in a theta-dependent (non-orthogonal) representation of the Pauli
algebra.  This module builds that representation from ``delta``, never
through the angle, and the decomposition coefficients for bulk and
junction bonds.  Two verifiers reassemble the 4x4 operators at 40 digits
from exact mpmath copies of the rates, as terms of size ``delta**1.5``
cancel to the entries, and return the largest deviation relative to the
largest summed term magnitude.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .model import JunctionRates, RateTriple, bulk_matrix, junction_matrix

_I2 = np.eye(2)


@dataclass(frozen=True)
class SpinMatrixSet:
    """Raising/lowering/diagonal spin matrices of one segment's rotation."""

    s_plus: np.ndarray
    s_minus: np.ndarray
    s_z: np.ndarray
    s_x: np.ndarray


def spin_matrices(rates: RateTriple) -> SpinMatrixSet:
    """The rotated matrices, in the number type of ``rates``."""
    c2 = rates.cos_2theta
    s_sq, c_sq = rates.sin_theta_sq, rates.cos_theta_sq
    s_plus = np.array([[s_sq, -c2 / 2], [2 * s_sq ** 2 / c2, -s_sq]])
    s_minus = np.array([[c_sq, c2 / 2], [-2 * c_sq ** 2 / c2, -c_sq]])
    s_z = np.array([[c2, c2], [c2 * rates.delta, -c2]])  # delta = tan^2(2*theta)
    return SpinMatrixSet(s_plus, s_minus, s_z, s_plus + s_minus)


@dataclass(frozen=True)
class BulkCoefficients:
    """Weights of the quadratic spin expansion of one bulk bond."""

    a: float
    b: float
    c: float
    d: float
    h: float
    h_bar: float
    t: float
    f: float


def bulk_coefficients(rates: RateTriple) -> BulkCoefficients:
    p, q = rates.p, rates.q
    c2 = rates.cos_2theta
    s4 = rates.sin_theta_sq ** 2
    c4 = rates.cos_theta_sq ** 2
    return BulkCoefficients(
        a=(p * c4 + q * s4) / c2 ** 2,
        b=(q * c4 + p * s4) / c2 ** 2,
        c=(p + q) * c4 / c2 ** 2,
        d=(p + q) * s4 / c2 ** 2,
        h=p / (2 * c2),
        h_bar=q / (2 * c2),
        t=rates.t,
        f=rates.f,
    )


@dataclass(frozen=True)
class JunctionCoefficients:
    """Weights of the mixed-angle spin expansion of the junction bond."""

    alpha: float
    beta: float
    gamma: float
    delta_c: float
    eta: float
    eta_bar: float
    psi: float
    tau: float
    tau_bar: float


def junction_coefficients(seg1: RateTriple, seg2: RateTriple,
                          junction: JunctionRates) -> JunctionCoefficients:
    pb, qb, Qb = junction.p_bar, junction.q_bar, junction.Q_bar
    c21, c22 = seg1.cos_2theta, seg2.cos_2theta
    return JunctionCoefficients(
        alpha=pb * seg1.cos_theta_sq / c21 - qb * seg2.sin_theta_sq / c22 + Qb / 2,
        beta=-pb * seg1.sin_theta_sq / c21 + qb * seg2.cos_theta_sq / c22 + Qb / 2,
        gamma=pb * seg1.cos_theta_sq / c21 + qb * seg2.cos_theta_sq / c22 + Qb / 2,
        delta_c=-pb * seg1.sin_theta_sq / c21 - qb * seg2.sin_theta_sq / c22 + Qb / 2,
        eta=pb / (2 * c21),
        eta_bar=qb / (2 * c22),
        psi=seg1.t - seg2.t - (Qb + pb + qb) / 2,
        # tau terms cancel the segment boundary terms at the junction sites
        tau=seg1.t,
        tau_bar=-seg2.t,
    )


def _relative_residual(left: SpinMatrixSet, right: SpinMatrixSet,
                       weights, exact: np.ndarray) -> float:
    """Relative deviation from ``exact`` of the expansion whose ``weights``
    multiply L+R-, L-R+, L+R+, L-R-, Lz, Rz, 1, Lx and Rx, in that order."""
    terms = [m * w for w, m in zip(weights, (  # mpf * array is slow
        np.kron(left.s_plus, right.s_minus), np.kron(left.s_minus, right.s_plus),
        np.kron(left.s_plus, right.s_plus), np.kron(left.s_minus, right.s_minus),
        np.kron(left.s_z, _I2), np.kron(_I2, right.s_z), np.eye(4),
        np.kron(left.s_x, _I2), np.kron(_I2, right.s_x)))]
    scale = np.max(sum(np.abs(t) for t in terms))
    return float(np.max(np.abs(sum(terms) - exact)) / (scale or 1))


def verify_bulk_identity(rates: RateTriple) -> float:
    """Relative residual of the bulk operator's expansion, at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        rates = RateTriple(*map(mpmath.mpf, astuple(rates)))
        co = bulk_coefficients(rates)
        s = spin_matrices(rates)
        return _relative_residual(
            s, s, (co.a, co.b, co.c, co.d, co.h, co.h_bar, co.f, co.t, -co.t),
            bulk_matrix(rates))


def verify_junction_identity(seg1: RateTriple, seg2: RateTriple,
                             junction: JunctionRates) -> float:
    """Relative residual of the junction operator's expansion, at 40 digits;
    segment-1 matrices act on the left site, segment-2 ones on the right."""
    import mpmath
    with mpmath.workdps(40):
        seg1, seg2 = (RateTriple(*map(mpmath.mpf, astuple(r))) for r in (seg1, seg2))
        junction = JunctionRates(*map(mpmath.mpf, astuple(junction)))
        co = junction_coefficients(seg1, seg2, junction)
        return _relative_residual(
            spin_matrices(seg1), spin_matrices(seg2),
            (co.alpha, co.beta, co.gamma, co.delta_c, co.eta, co.eta_bar,
             co.psi, co.tau, co.tau_bar),
            junction_matrix(seg1, seg2, junction))
