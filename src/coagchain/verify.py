"""Cross-verification battery for one chain.

Runs every internal consistency check the package offers against a single
model: the spin-decomposition identities, the +/- pairing of the
one-particle matrix, sign alternation of the Chebyshev secular function
between consecutive roots, eigenvector-ansatz residuals, the brute-force
oracle on the full configuration space, the trace identity, the dual
vacuum-energy computation, and (at the full level) a stochastic
simulation against the exact stationary state.  The two sum identities
allow ``model.ROUNDING`` times the summed magnitudes of their terms, the
two decomposition identities (at 40 digits) 1e-30 times.
The block one-particle matrix is built and diagonalised once: the pairing
and set-vs-matrix checks share its eigenvalues, the mode residuals use it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gillespie
from .errors import ConsistencyError
from .generator import (assemble_generator, brute_force_spectrum,
                        generator_trace, stationary_vectors)
from .model import ROUNDING, ChainSpec, validate_chain
from .oneparticle import (DegenerateModeWarning, _secular_scaled,
                          build_script_matrix, bulk_mode, edge_modes,
                          one_particle_spectrum, pairing_residual,
                          script_matrix_negative_spectrum, trivial_zero_modes)
from .spectrum import (assemble_full_spectrum, parity, spectral_gap,
                       vacuum_energy, vacuum_energy_closed_form)
from .spins import verify_bulk_identity, verify_junction_identity

_SIM_EVENTS, _SIM_SEED, _SIM_TOL = 300_000, 20_240_801, 0.05  # TV check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float | None
    detail: str = ""


def _check(name, residual, tol, detail=""):
    return CheckResult(name, residual <= tol, float(residual),
                       detail or f"tolerance {tol:g}")


def run_verification(spec: ChainSpec, level: str = "full") -> list[CheckResult]:
    """All checks for one chain; on validation failure the rest are skipped."""
    results: list[CheckResult] = []
    validation = validate_chain(spec)
    if not validation.ok:
        results.append(CheckResult("validation", False, None,
                                   "; ".join(validation.violations)))
        return results
    results.append(CheckResult("validation", True, None, "all rate bounds hold"))

    results.append(_check(
        "bulk decomposition",
        max(verify_bulk_identity(spec.seg1), verify_bulk_identity(spec.seg2)),
        1e-30, "relative, tolerance 1e-30"))
    results.append(_check(
        "junction decomposition",
        verify_junction_identity(spec.seg1, spec.seg2, spec.junction),
        1e-30, "relative, tolerance 1e-30"))

    matrix = build_script_matrix(spec)
    eigenvalues = np.linalg.eigvals(matrix)
    results.append(_check("one-particle pairing",
                          pairing_residual(eigenvalues), 1e-9))

    spectrum = one_particle_spectrum(spec)
    try:
        neg = script_matrix_negative_spectrum(eigenvalues)
    except ConsistencyError as exc:
        results.append(CheckResult("one-particle set vs matrix", False, None,
                                   str(exc)))
    else:
        results.append(_check(
            "one-particle set vs matrix",
            float(np.max(np.abs(np.sort(neg) - np.sort(spectrum.all_values())))),
            1e-8, detail=f"route {spectrum.route}"))

    # the Chebyshev form shares no code with the eigensolver: a strict sign
    # change between every pair of neighbouring midpoints puts a root there
    roots = spectrum.bulk_roots
    signs = np.sign(_secular_scaled(spec, 0.5 * (roots[:-1] + roots[1:]))[0])
    bad = int(np.count_nonzero(signs == 0)
              + np.count_nonzero(signs[:-1] * signs[1:] > 0))
    results.append(_check("secular sign alternation", bad, 0,
                          detail=f"{len(signs)} midpoints"))

    omega = vacuum_energy_closed_form(spec)
    try:
        omega = vacuum_energy(spec, spectrum)
        results.append(CheckResult("vacuum dual computation", True, None,
                                   f"omega {omega:.12g}"))
    except ConsistencyError as exc:
        results.append(CheckResult("vacuum dual computation", False, None,
                                   str(exc)))

    # ansatz residuals at desk scale
    worst_mode = 0.0
    n_modes = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateModeWarning)
        for mv in trivial_zero_modes(spec, matrix):
            worst_mode = max(worst_mode, mv.residual)
            n_modes += 1
        if spec.L1 >= 2 and spec.L2 >= 2:
            for mv in edge_modes(spec, matrix):
                worst_mode = max(worst_mode, mv.residual)
                n_modes += 1
            for lam in spectrum.bulk_roots:
                mv = bulk_mode(spec, float(lam), matrix)
                worst_mode = max(worst_mode, mv.residual)
                n_modes += 1
    results.append(_check("eigenvector residuals", worst_mode, 1e-9,
                          detail=f"{n_modes} modes"))

    par = parity(spec)
    gap = spectral_gap(spectrum, omega, par)

    dim = 2 ** spec.n_sites
    if spec.n_sites <= 12 and (level == "full" or dim <= 512):
        gen = assemble_generator(spec)
        assembled = assemble_full_spectrum(spectrum, omega, par, spec.n_sites)
        scale = (float(np.sum(np.abs(gen.diagonal())))
                 + float(np.sum(np.abs(assembled))))
        results.append(_check(
            "trace identity",
            abs(generator_trace(gen) - float(np.sum(assembled))) / scale,
            ROUNDING, detail=f"relative, tolerance {ROUNDING:g}"))
        bf = brute_force_spectrum(gen)
        results.append(_check("brute-force spectrum real",
                              float(np.max(np.abs(bf.imag))), 1e-8))
        results.append(_check(
            "oracle multiset equivalence",
            float(np.max(np.abs(np.sort(bf.real) - np.sort(assembled)))), 1e-8,
            detail=f"parity {par}"))
        nonzero = bf.real[np.abs(bf.real) > 1e-10 * max(1.0, abs(bf.real.min()))]
        bf_gap = float(nonzero.max()) if len(nonzero) else 0.0
        results.append(_check("gap vs brute force", abs(gap.gap - bf_gap), 1e-8,
                              detail=f"gap {gap.gap:.12g}"))
    else:
        results.append(CheckResult(
            "oracle multiset equivalence", True, None,
            f"skipped: N={spec.n_sites} too large for the dense oracle"))

    if level == "full" and spec.n_sites <= 10:
        results.append(_simulation_check(spec))
    return results


def _simulation_check(spec: ChainSpec) -> CheckResult:
    """Simulated long-run occupation vs the exact stationary distribution.

    Runs from the fully occupied lattice.  A junction that creates no
    particles from an empty pair leaves the empty lattice absorbing, so the
    null space is 2-dimensional and the target is its vector with no
    empty-lattice weight; otherwise the null space is one vector, the
    target.  Either way the target is normalised by its sum.
    """
    basis = stationary_vectors(assemble_generator(spec))
    absorbing = spec.bond_operator(spec.L1).preserves_vacuum
    if len(basis) != (2 if absorbing else 1):
        return CheckResult("simulator stationarity", False, None,
                           f"{len(basis)}-dimensional null space")
    target = basis[0]
    if absorbing:
        target = basis[1][0] * basis[0] - basis[0][0] * basis[1]
    result = gillespie.run(spec, gillespie.LatticeState.full(spec.n_sites),
                           _SIM_EVENTS, seed=_SIM_SEED)
    tv = gillespie.total_variation(result.histogram(), target / target.sum())
    return CheckResult("simulator stationarity", tv <= _SIM_TOL, tv,
                       f"TV after {result.n_events} events (tol {_SIM_TOL})")
