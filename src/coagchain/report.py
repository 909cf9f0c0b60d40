"""End-to-end spectrum reports for one chain."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import assemble_generator, brute_force_spectrum
from .model import ChainSpec, validate_chain
from .errors import ChainValidationError
from .oneparticle import OneParticleSpectrum, one_particle_spectrum
from .spectrum import (assemble_full_spectrum, parity, spectral_gap,
                       vacuum_energy)


@dataclass(frozen=True)
class SpectrumReport:
    spec: ChainSpec
    omega: float
    parity: str
    gap: float
    gap_labels: tuple[str, ...]
    one_particle: OneParticleSpectrum
    full_spectrum: np.ndarray | None = None
    checks: dict = field(default_factory=dict)
    brute_force: np.ndarray | None = None  # dense 2^N eigenvalues, desc

    def to_dict(self) -> dict:
        values, labels = self.one_particle.excitations()
        one_particle = [{"label": "zero", "lambda": 0.0}]
        one_particle += [{"label": lab, "lambda": float(v)}
                         for lab, v in zip(labels, values)]
        doc = {
            "omega": self.omega,
            "parity": self.parity,
            "gap": self.gap,
            "gap_labels": list(self.gap_labels),
            "route": self.one_particle.route,
            "one_particle": one_particle,
            "checks": self.checks,
        }
        if self.full_spectrum is not None:
            doc["full_spectrum"] = [float(v) for v in self.full_spectrum]
        return doc


def spectrum_report(spec: ChainSpec, include_full: bool = False,
                    brute_force: bool = False) -> SpectrumReport:
    """Vacuum energy, parity, gap, and consistency checks for one chain."""
    validation = validate_chain(spec)
    if not validation.ok:
        raise ChainValidationError("; ".join(validation.violations))
    spectrum = one_particle_spectrum(spec)
    omega = vacuum_energy(spec, spectrum)
    par = parity(spec)
    gap = spectral_gap(spectrum, omega, par)
    checks: dict = {
        "route": spectrum.route,
        "root_count_ok": len(spectrum.bulk_roots) == spec.n_sites - 1,
        "max_root": float(np.max(spectrum.bulk_roots))
        if len(spectrum.bulk_roots) else 0.0,
    }
    full = bf = None
    if include_full or brute_force:
        full = assemble_full_spectrum(spectrum, omega, par, spec.n_sites)
    if brute_force:
        bf = brute_force_spectrum(assemble_generator(spec))
        checks["brute_force_max_imag"] = float(np.max(np.abs(bf.imag)))
        diff = np.max(np.abs(np.sort(bf.real) - np.sort(full)))
        checks["multiset_max_diff"] = float(diff)
        checks["multisets_match"] = bool(diff < 1e-8)
    return SpectrumReport(spec, omega, par, gap.gap, gap.labels, spectrum,
                          full if include_full else None, checks, bf)
