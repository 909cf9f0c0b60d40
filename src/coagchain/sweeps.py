"""Gap sweeps over junction and segment parameters.

These drive the two headline studies: the gap of an impurity chain as a
function of the junction shift s, and the gap of a spatial quench as a
function of the second segment's pair-rate strength delta2.  Invalid grid
points are reported in place, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainValidationError, ConsistencyError
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


def _gap_point(x: float, make_spec) -> SweepPoint:
    """Gap of the chain ``make_spec(x)``; an invalid point records its error."""
    try:
        spec = make_spec(x)
        spectrum = one_particle_spectrum(spec)
        omega = vacuum_energy(spec)
        gap = spectral_gap(spectrum, omega, parity(spec))
        return SweepPoint(x, gap.gap, omega, gap.labels, spectrum.route)
    except (ChainValidationError, ConsistencyError) as exc:
        return SweepPoint(x, None, None, (), "", error=str(exc))


def impurity_gap_sweep(rates: RateTriple, L: int,
                       s_values) -> list[SweepPoint]:
    """Gap of the impurity chain (segments of L sites each) over s."""
    def make_spec(s):
        junction, _ = build_impurity_junction(rates, s)
        return ChainSpec(L, L, rates, rates, junction,
                         junction_kind="impurity", impurity_s=s)

    return [_gap_point(float(s), make_spec)
            for s in np.asarray(s_values, dtype=float)]


def quench_gap_sweep(p1: float, q1: float, p2: float, q2: float,
                     delta1: float, L: int,
                     delta2_values) -> list[SweepPoint]:
    """Gap of the quench chain over delta2 at fixed delta1."""
    seg1 = RateTriple(p1, q1, delta1)

    def make_spec(d2):
        seg2 = RateTriple(p2, q2, d2)
        junction, _ = build_quench_junction(seg1, seg2)
        return ChainSpec(L, L, seg1, seg2, junction, junction_kind="quench")

    return [_gap_point(float(d2), make_spec)
            for d2 in np.asarray(delta2_values, dtype=float)]


def sweep_rows(points: list[SweepPoint], x_name: str) -> list[dict]:
    """Rows ready for CSV writing, one per grid point."""
    return [{x_name: pt.x, "gap": pt.gap, "omega": pt.omega,
             "pair": "+".join(pt.labels), "route": pt.route,
             "error": pt.error or ""} for pt in points]
