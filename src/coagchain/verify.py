"""Cross-verification battery for one chain.

Runs every internal consistency check the package offers against a single
model: the spin-decomposition identities, the +/- pairing of the
one-particle matrix, sign alternation of the Chebyshev secular function
between consecutive roots, eigenvector-ansatz residuals (these two run
only where p*q > 0), the brute-force oracle on the full configuration
space, the trace identity, and (at the full level) a stochastic
simulation against the exact stationary state.  The trace identity
allows ``model.ROUNDING`` times the summed magnitudes of its terms, the
two decomposition identities (at 40 digits) 1e-30 times.
The block one-particle matrix and the dense 2^N generator are each built
once: the pairing and set-vs-matrix checks share the matrix's eigenvalues
and the mode residuals use it; the trace identity, the simulator's
target (block substitution on a copy of G) and then the brute-force
oracle (the package's one dense verdict, which overwrites G with its
block-triangular form) use G.  The oracle's eigenvalues are real by
construction; "block symmetry" reports its cycle defect, or fails with
the message when G's run-count blocks cannot be symmetrised.  No dense
step raises out of the battery: a ``ConsistencyError`` there becomes a
failed check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gillespie
from .errors import ChainValidationError, ConsistencyError
from .generator import (MAX_DENSE_DIM, assemble_generator,
                        brute_force_spectrum, stationary_vectors)
from .model import ROUNDING, ChainSpec, validate_chain
from .oneparticle import (DegenerateModeWarning, _secular_scaled,
                          build_script_matrix, bulk_mode, edge_modes,
                          one_particle_spectrum, pairing_residual,
                          script_matrix_negative_spectrum, trivial_zero_modes)
from .spectrum import (assemble_full_spectrum, parity, spectral_gap,
                       vacuum_energy)
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
    try:
        signs = np.sign(_secular_scaled(spec, (roots[:-1] + roots[1:]) / 2)[0])
    except ChainValidationError as exc:
        results.append(CheckResult("secular sign alternation", True, None,
                                   f"skipped: {exc}"))
    else:
        bad = int(np.count_nonzero(signs == 0)
                  + np.count_nonzero(signs[:-1] * signs[1:] > 0))
        results.append(_check("secular sign alternation", bad, 0,
                              detail=f"{len(signs)} midpoints"))

    # ansatz residuals at desk scale
    ansatz_runs = spec.L1 >= 2 and spec.L2 >= 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateModeWarning)
        modes = trivial_zero_modes(spec, matrix)
        if ansatz_runs:
            try:
                modes += (edge_modes(spec, matrix)
                          + [bulk_mode(spec, float(lam), matrix)
                             for lam in spectrum.bulk_roots])
            except ChainValidationError:  # p*q = 0 in a segment
                ansatz_runs = False
    detail = f"{len(modes)} modes"
    if not ansatz_runs:
        detail += ("; edge and bulk ansatz modes not run (need L1, L2 >= 2 "
                   "and p*q > 0)")
    results.append(_check("eigenvector residuals",
                          max(mv.residual for mv in modes), 1e-9, detail))

    par, omega = parity(spec), vacuum_energy(spec)

    dim, simulation = 2 ** spec.n_sites, []
    if dim <= MAX_DENSE_DIM and (level == "full" or dim <= 512):
        gen = assemble_generator(spec)
        assembled = assemble_full_spectrum(spectrum, omega, par, spec.n_sites)
        scale = (float(np.sum(np.abs(np.diag(gen))))
                 + float(np.sum(np.abs(assembled))))
        results.append(_check(
            "trace identity",
            abs(float(np.trace(gen)) - float(np.sum(assembled))) / (scale or 1),
            ROUNDING, detail=f"relative, tolerance {ROUNDING:g}"))
        # the simulator's target comes from G before the oracle overwrites it
        if level == "full" and spec.n_sites <= 10:
            simulation.append(_simulation_check(spec, gen))
        try:
            bf, defect = brute_force_spectrum(gen)
        except ConsistencyError as exc:
            results.append(CheckResult("block symmetry", False, None,
                                       str(exc)))
            return results + simulation
        results.append(CheckResult(
            "block symmetry", True, defect,
            "cycle defect in log weight, within its rounding bound"))
        results.append(_check(
            "oracle multiset equivalence",
            float(np.max(np.abs(bf[::-1] - np.sort(assembled)))), 1e-8,
            detail=f"parity {par}"))
        nonzero = bf[np.abs(bf) > 1e-10 * max(1.0, abs(bf[-1]))]
        bf_gap = float(nonzero[0]) if len(nonzero) else 0.0
        try:
            gap = spectral_gap(spectrum, omega, par).gap
        except ConsistencyError:  # no nonzero eigenvalue: 0.0, as bf_gap
            gap = 0.0
        results.append(_check("gap vs brute force", abs(gap - bf_gap), 1e-8,
                              detail=f"gap {gap:.12g}"))
    else:
        results.append(CheckResult(
            "oracle multiset equivalence", True, None,
            f"skipped: N={spec.n_sites} too large for the dense oracle"))

    return results + simulation


def _simulation_check(spec: ChainSpec, gen: np.ndarray) -> CheckResult:
    """Simulated long-run occupation vs the stationary distribution of
    ``gen``, the chain's dense generator.

    Runs from the fully occupied lattice.  A junction that creates no
    particles from an empty pair leaves the empty lattice absorbing, so
    ``stationary_vectors`` gives two vectors, the occupied sector's state
    and the empty-lattice point mass; otherwise it gives one.  Either way
    the target is the first, normalised by its sum.  An absorbed run
    (p*q = 0 chains have such states) has the point mass on its final
    state as its histogram.  A singular diagonal block of G's run-count
    form (a frozen segment) fails the check with its message.
    """
    try:
        basis = stationary_vectors(gen)
    except ConsistencyError as exc:
        return CheckResult("simulator stationarity", False, None, str(exc))
    absorbing = spec.bond_operator(spec.L1).preserves_vacuum
    if len(basis) != (2 if absorbing else 1):
        return CheckResult("simulator stationarity", False, None,
                           f"{len(basis)}-dimensional null space")
    target = basis[0]
    result = gillespie.run(spec, gillespie.LatticeState.full(spec.n_sites),
                           _SIM_EVENTS, seed=_SIM_SEED)
    tv = gillespie.total_variation(result.histogram(), target / target.sum())
    return CheckResult("simulator stationarity", tv <= _SIM_TOL, tv,
                       f"TV after {result.n_events} events"
                       f"{', absorbed' if result.absorbed else ''} "
                       f"(tol {_SIM_TOL})")
