"""Cross-verification battery for one chain.

Runs every internal consistency check the package offers against a single
model: the spin-decomposition identities, the empty-interval wall operator
of the stored bond operators against the Jacobi matrix (exact in
``Fraction``s, O(N) at every N), sign alternation of the Chebyshev
secular function between consecutive roots, eigenvector-ansatz residuals
(these two run only where p*q > 0), the brute-force oracle on the full
configuration space, the trace identity, and (at the full level) a
stochastic simulation against the exact stationary state.  The wall
check and the trace identity allow ``model.ROUNDING`` times the summed
magnitudes of their terms, the two decomposition identities (at 40
digits) 1e-30 times.
The block one-particle matrix and the dense 2^N generator are each built
once: the mode residuals use the matrix; the trace identity, the
simulator's target (block substitution on a copy of G) and then the
brute-force oracle (the package's one dense verdict, which overwrites G
with its block-triangular form) use G.  The oracle's eigenvalues are real
by construction; "block symmetry" reports its cycle defect, or fails with
the message when G's run-count blocks cannot be symmetrised.  No dense
step raises out of the battery: a ``ConsistencyError`` there becomes a
failed check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from . import gillespie
from .errors import ChainValidationError, ConsistencyError
from .generator import (MAX_DENSE_DIM, assemble_generator,
                        brute_force_spectrum, stationary_vectors,
                        wall_operator)
from .model import (ROUNDING, ChainSpec, JunctionRates, RateTriple,
                    bulk_matrix, junction_matrix, validate_chain)
from .oneparticle import (DegenerateModeWarning, _secular_scaled,
                          build_script_matrix, bulk_mode, edge_modes,
                          jacobi_entries, one_particle_spectrum,
                          trivial_zero_modes)
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

    results.append(_wall_check(spec))

    spectrum = one_particle_spectrum(spec)
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
    matrix = build_script_matrix(spec)
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


class _Magnitude:
    """A number that stands for the summed magnitudes of the terms that
    formed it: + and - add magnitudes, * and / multiply and divide them.
    The chain's formulas, run on these, give the scale of each value's
    rounding."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = abs(float(v))

    def __add__(self, other):
        return _Magnitude(self.v + abs(float(other)))

    def __mul__(self, other):
        return _Magnitude(self.v * abs(float(other)))

    def __truediv__(self, other):
        return _Magnitude(self.v / abs(float(other)))

    def __neg__(self):
        return self

    def __float__(self):
        return self.v

    def __lt__(self, other):
        return self.v < float(other)

    def __gt__(self, other):
        return self.v > float(other)

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def _wall_defects(spec: ChainSpec, bonds) -> list:
    """Every difference between ``wall_operator(bonds)`` and
    ``jacobi_entries(spec)`` that is 0 in exact arithmetic, in their
    number type.

    The closure entries vanish.  Each squared hop read at an interval's
    left end equals the one read at its right end and T's squared
    coupling.  h[w, w] - T[w, w] and kappa are each one constant on walls
    1..N-1: every value is compared with the one at wall 1.
    """
    closure, h, (left, right), kappa = wall_operator(bonds)
    diagonal, squares = jacobi_entries(spec)
    out = [x for entries in closure for x in entries]
    out += [a - b for a, b in zip(left, right)]
    out += [a - b for a, b in zip(left, squares)]
    c = h[1] - diagonal[0]
    out += [h[w] - diagonal[w - 1] - c for w in range(2, spec.n_sites)]
    out += [k - kappa[0] for k in kappa[1:]]
    return out


def _bond_matrices(spec: ChainSpec) -> list:
    """Bond 1..N-1's matrices formed from the rates, in their number type;
    one object per segment, as ``spec.bond_operator`` gives them."""
    bulk1, bulk2 = bulk_matrix(spec.seg1), bulk_matrix(spec.seg2)
    return ([bulk1] * (spec.L1 - 1)
            + [junction_matrix(spec.seg1, spec.seg2, spec.junction)]
            + [bulk2] * (spec.L2 - 1))


def _wall_check(spec: ChainSpec) -> CheckResult:
    """``_wall_defects`` of the stored bond operators, each within
    ``ROUNDING`` times the summed magnitudes of its terms; O(N).

    The magnitudes are the same defects formed from the stored rates as
    ``_Magnitude`` numbers.  Each rounding moves a value by at most eps/2
    of its terms' magnitudes, and no defect takes more than 28 of them:
    an operator entry at most 7 (a diagonal entry sums a column of entries
    formed in 4), each product with F2 or F2^-1 3, a squared hop
    13 + 13 + 1, and the difference with T's square (itself 3) 1 more.
    28 * eps/2 < ROUNDING = 32 * eps/2.  A rate that ``model`` screens to 0
    is exact where its exact value is 0.
    """
    seg1, seg2 = (RateTriple(*map(_Magnitude, astuple(r)))
                  for r in (spec.seg1, spec.seg2))
    scale = ChainSpec(spec.L1, spec.L2, seg1, seg2, JunctionRates(
        *map(_Magnitude, astuple(spec.junction))))
    mags = _wall_defects(scale, _bond_matrices(scale))
    diffs = _wall_defects(spec, [spec.bond_operator(k).entries
                                 for k in range(1, spec.n_sites)])
    worst = max((abs(d) / m.v if m.v else math.inf
                 for d, m in zip(diffs, mags) if d), default=0.0)
    return _check("wall operator vs Jacobi matrix", worst, ROUNDING,
                  f"relative to the terms' magnitudes, tolerance "
                  f"{ROUNDING:g}")


def _simulation_check(spec: ChainSpec, gen: np.ndarray) -> CheckResult:
    """Simulated long-run occupation vs the stationary distribution of
    ``gen``, the chain's dense generator.

    Runs from the fully occupied lattice.  The target is the first vector
    of ``stationary_vectors``, normalised by its sum: the stationary
    state, of the occupied sector when the empty lattice is absorbing
    (its point mass is then the second vector).  An absorbed run (p*q = 0 chains have such states) has the
    point mass on its final state as its histogram.  A singular diagonal
    block of G's run-count form (a frozen segment) fails the check with
    its message.
    """
    try:
        target = stationary_vectors(gen)[0]
    except ConsistencyError as exc:
        return CheckResult("simulator stationarity", False, None, str(exc))
    result = gillespie.run(spec, gillespie.LatticeState.full(spec.n_sites),
                           _SIM_EVENTS, seed=_SIM_SEED)
    tv = gillespie.total_variation(result.histogram(), target / target.sum())
    return CheckResult("simulator stationarity", tv <= _SIM_TOL, tv,
                       f"TV after {result.n_events} events"
                       f"{', absorbed' if result.absorbed else ''} "
                       f"(tol {_SIM_TOL})")
