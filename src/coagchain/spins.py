"""Rotated spin-1/2 matrices and the two-site operator decompositions.

The local jump operators become quadratic in raising/lowering matrices
only in a theta-dependent (non-orthogonal) representation of the Pauli
algebra.  This module builds that representation, the decomposition
coefficients for bulk and junction bonds, and numeric verifiers that
reassemble the 4x4 operators from the spin expansion and return the
largest elementwise deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChainValidationError
from .model import JunctionRates, RateTriple, build_bulk_operator, junction_matrix

_I2 = np.eye(2)


@dataclass(frozen=True)
class SpinMatrixSet:
    """Raising/lowering/diagonal spin matrices at a fixed rotation angle."""

    theta: float
    s_plus: np.ndarray
    s_minus: np.ndarray
    s_z: np.ndarray
    s_x: np.ndarray


def spin_matrices(theta: float) -> SpinMatrixSet:
    if not 0 <= theta < math.pi / 4:
        raise ChainValidationError(f"theta must lie in [0, pi/4), got {theta!r}")
    c2 = math.cos(2 * theta)
    s_sq = math.sin(theta) ** 2
    c_sq = math.cos(theta) ** 2
    s_plus = np.array([[s_sq, -c2 / 2], [2 * s_sq ** 2 / c2, -s_sq]])
    s_minus = np.array([[c_sq, c2 / 2], [-2 * c_sq ** 2 / c2, -c_sq]])
    s_z = c2 * np.array([[1.0, 1.0], [math.tan(2 * theta) ** 2, -1.0]])
    s_x = s_plus + s_minus
    return SpinMatrixSet(theta, s_plus, s_minus, s_z, s_x)


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
        psi=((seg1.p - seg1.q) * seg1.delta / 4
             + (seg2.q - seg2.p) * seg2.delta / 4
             - (Qb + pb + qb) / 2),
        # tau terms cancel the segment boundary terms at the junction sites
        tau=seg1.t,
        tau_bar=-seg2.t,
    )


def identity_tolerance(reference: np.ndarray) -> float:
    """Scale-aware residual tolerance; coefficients blow up near theta=pi/4."""
    return max(1e-12, 1e-13 * float(np.max(np.abs(reference))))


def verify_bulk_identity(rates: RateTriple) -> float:
    """Max |reassembled - exact| over the 16 entries of the bulk operator."""
    co = bulk_coefficients(rates)
    s = spin_matrices(rates.theta)
    quadratic = (co.a * np.kron(s.s_plus, s.s_minus)
                 + co.b * np.kron(s.s_minus, s.s_plus)
                 + co.c * np.kron(s.s_plus, s.s_plus)
                 + co.d * np.kron(s.s_minus, s.s_minus)
                 + co.h * np.kron(s.s_z, _I2)
                 + co.h_bar * np.kron(_I2, s.s_z)
                 + co.f * np.eye(4))
    rebuilt = quadratic + co.t * (np.kron(s.s_x, _I2) - np.kron(_I2, s.s_x))
    exact = build_bulk_operator(rates).entries
    return float(np.max(np.abs(rebuilt - exact)))


def verify_junction_identity(seg1: RateTriple, seg2: RateTriple,
                             junction: JunctionRates) -> float:
    """Max |reassembled - exact| for the junction operator.

    The expansion mixes the two representations: segment-1 matrices act on
    the left factor, segment-2 matrices on the right.
    """
    co = junction_coefficients(seg1, seg2, junction)
    s1 = spin_matrices(seg1.theta)
    s2 = spin_matrices(seg2.theta)
    rebuilt = (co.alpha * np.kron(s1.s_plus, s2.s_minus)
               + co.beta * np.kron(s1.s_minus, s2.s_plus)
               + co.gamma * np.kron(s1.s_plus, s2.s_plus)
               + co.delta_c * np.kron(s1.s_minus, s2.s_minus)
               + co.eta * np.kron(s1.s_z, _I2)
               + co.eta_bar * np.kron(_I2, s2.s_z)
               + co.psi * np.eye(4)
               + co.tau * np.kron(s1.s_x, _I2)
               + co.tau_bar * np.kron(_I2, s2.s_x))
    exact = junction_matrix(seg1, seg2, junction)
    return float(np.max(np.abs(rebuilt - exact)))
