"""End-to-end spectrum reports for one chain, from the one-particle
formulas alone; ``verify`` compares them with the dense generator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def spectrum_report(spec: ChainSpec,
                    include_full: bool = False) -> SpectrumReport:
    """Vacuum energy, parity, gap, and consistency checks for one chain."""
    validation = validate_chain(spec)
    if not validation.ok:
        raise ChainValidationError("; ".join(validation.violations))
    spectrum = one_particle_spectrum(spec)
    omega = vacuum_energy(spec, spectrum)
    par = parity(spec)
    gap = spectral_gap(spectrum, omega, par)
    checks = {"route": spectrum.route,  # N >= 2, so there is a root
              "max_root": float(np.max(spectrum.bulk_roots))}
    full = (assemble_full_spectrum(spectrum, omega, par, spec.n_sites)
            if include_full else None)
    return SpectrumReport(spec, omega, par, gap.gap, gap.labels, spectrum,
                          full, checks)
