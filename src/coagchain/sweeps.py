"""Gap sweeps over junction and segment parameters.

These drive the two headline studies: the gap of an impurity chain as a
function of the junction shift s, and the gap of a spatial quench as a
function of the second segment's pair-rate strength delta2.  Invalid grid
points are reported in place, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalyticPathError, ChainValidationError, ConsistencyError
from .model import (ChainSpec, RateTriple, build_impurity_junction,
                    build_quench_junction)
from .oneparticle import one_particle_spectrum
from .spectrum import parity, spectral_gap, vacuum_energy


@dataclass(frozen=True)
class SweepPoint:
    x: float
    gap: float | None
    omega: float | None
    labels: tuple[str, ...]
    route: str
    error: str | None = None


@dataclass(frozen=True)
class SweepConfig:
    """A 1-D parameter sweep: which knob, which values, where to write."""

    parameter: str
    values: np.ndarray
    out_path: str | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if len(v) > 1 and not (np.all(np.diff(v) > 0) or np.all(np.diff(v) < 0)):
            raise ChainValidationError("sweep grid must be strictly monotone")
        object.__setattr__(self, "values", v)


def _gap_point(spec: ChainSpec, x: float) -> SweepPoint:
    try:
        spectrum = one_particle_spectrum(spec)
        omega = vacuum_energy(spec, spectrum)
        gap = spectral_gap(spectrum, omega, parity(spec))
        return SweepPoint(x, gap.gap, omega, gap.labels, spectrum.route)
    except (ChainValidationError, ConsistencyError, AnalyticPathError) as exc:
        return SweepPoint(x, None, None, (), "", error=str(exc))


def impurity_gap_sweep(rates: RateTriple, L: int,
                       s_values) -> list[SweepPoint]:
    """Gap of the impurity chain (segments of L sites each) over s."""
    out = []
    for s in np.asarray(s_values, dtype=float):
        try:
            junction, _ = build_impurity_junction(rates, float(s))
        except ChainValidationError as exc:
            out.append(SweepPoint(float(s), None, None, (), "", error=str(exc)))
            continue
        spec = ChainSpec(L, L, rates, rates, junction,
                         junction_kind="impurity", impurity_s=float(s))
        out.append(_gap_point(spec, float(s)))
    return out


def quench_gap_sweep(p1: float, q1: float, p2: float, q2: float,
                     delta1: float, L: int,
                     delta2_values) -> list[SweepPoint]:
    """Gap of the quench chain over delta2 at fixed delta1."""
    seg1 = RateTriple(p1, q1, delta1)
    out = []
    for d2 in np.asarray(delta2_values, dtype=float):
        try:
            seg2 = RateTriple(p2, q2, float(d2))
            junction, _ = build_quench_junction(seg1, seg2)
        except ChainValidationError as exc:
            out.append(SweepPoint(float(d2), None, None, (), "",
                                  error=str(exc)))
            continue
        spec = ChainSpec(L, L, seg1, seg2, junction, junction_kind="quench")
        out.append(_gap_point(spec, float(d2)))
    return out


def sweep_rows(points: list[SweepPoint], x_name: str) -> list[dict]:
    """Rows ready for CSV writing, one per grid point."""
    rows = []
    for pt in points:
        rows.append({
            x_name: pt.x,
            "gap": pt.gap,
            "omega": pt.omega,
            "pair": "+".join(pt.labels),
            "route": pt.route,
            "error": pt.error or "",
        })
    return rows
