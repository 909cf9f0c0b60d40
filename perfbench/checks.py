"""Output checks that do not trust the route that produced the output.

Each function returns a list of problems; an empty list means the output
passed.  They run outside the timed region.
"""

from __future__ import annotations

import numpy as np
from coagchain import oneparticle

# midpoints checked at each end of the root list and in one interior window
SIGN_WINDOW = 12
# the zero tolerance spectral_gap uses for "indistinguishable from zero"
GAP_ZERO_TOL = 1e-10
GAP_REL_TOL = 1e-12
HOMOGENEOUS_TOL = 1e-9
DENSITY_TOL = 1e-12


def _midpoint_indices(count: int, rng) -> list[int]:
    """All midpoints of short root lists; for long ones, both band-edge
    windows (where tight root pairs sit) and one window at a seeded
    interior position."""
    if count <= 3 * SIGN_WINDOW:
        return list(range(count))
    start = int(rng.integers(SIGN_WINDOW, count - 2 * SIGN_WINDOW + 1))
    picked = set(range(SIGN_WINDOW)) | set(range(count - SIGN_WINDOW, count))
    picked |= set(range(start, start + SIGN_WINDOW))
    return sorted(picked)


def root_problems(spec, spectrum, rng) -> list[str]:
    """N-1 nonpositive roots at which the public secular function changes
    sign strictly: its signs at consecutive midpoints alternate."""
    roots = np.sort(np.asarray(spectrum.bulk_roots, dtype=float))[::-1]
    problems = []
    if len(roots) != spec.n_sites - 1:
        problems.append(f"{len(roots)} roots, expected {spec.n_sites - 1}")
    if len(roots) and roots[0] > 0:
        problems.append(f"positive root {roots[0]!r}")
    mids = 0.5 * (roots[:-1] + roots[1:])
    signs = {}
    for i in _midpoint_indices(len(mids), rng):
        signs[i] = oneparticle.secular_function(spec, float(mids[i])).sign
        if signs[i] == 0:
            problems.append(f"secular function vanishes at midpoint {i}")
    for i, s in signs.items():
        if i + 1 in signs and s * signs[i + 1] != -1:
            problems.append(f"no sign change between midpoints {i} and {i + 1}")
    return problems


def expected_gap(spectrum, omega: float, par: str) -> float:
    """The gap re-derived from the sorted excitations: the top one (odd
    parity) or the best sum of two (even parity), skipping values
    indistinguishable from zero."""
    values = np.sort(np.concatenate((
        [spectrum.lambda_edge_1, spectrum.lambda_edge_2],
        np.asarray(spectrum.bulk_roots, dtype=float))))[::-1]
    zero_tol = GAP_ZERO_TOL * max(1.0, float(np.max(np.abs(values))))
    # the best candidates come from the top few values; widen only if all
    # of those are stationary (zero) values
    for top in (4, len(values)):
        head = values[:top]
        if par == "odd":
            sums = omega + head
        else:
            i, k = np.triu_indices(len(head), 1)
            sums = omega + head[i] + head[k]
        nonzero = sums[np.abs(sums) > zero_tol]
        if len(nonzero):
            return float(nonzero.max())
    raise ValueError("every candidate eigenvalue vanishes")


def gap_problems(spectrum, omega: float, par: str, gap: float) -> list[str]:
    try:
        want = expected_gap(spectrum, omega, par)
    except ValueError as exc:
        return [str(exc)]
    if abs(gap - want) > GAP_REL_TOL * abs(want):
        return [f"gap {gap!r} differs from re-derived {want!r}"]
    return []


def homogeneous_problems(rates, n_sites: int, spectrum) -> list[str]:
    """At s = 0 the impurity chain is homogeneous: closed-form roots."""
    want = np.sort(oneparticle.homogeneous_energies(rates, n_sites).bulk_roots)
    got = np.sort(np.asarray(spectrum.bulk_roots, dtype=float))
    if len(got) != len(want):
        return [f"{len(got)} roots at s=0, closed form has {len(want)}"]
    err = float(np.max(np.abs(got - want)))
    if err > HOMOGENEOUS_TOL:
        return [f"s=0 roots differ from the closed form by {err:.3g}"]
    return []


def verification_problems(n_sites: int, results) -> list[str]:
    """The battery ran the checks its size calls for: the dense oracle up
    to N = 12 (skipped beyond), the simulator up to N = 10."""
    names = [r.name for r in results]
    problems = []
    if not names or names[0] != "validation":
        problems.append("battery does not start with validation")
    oracle = [r for r in results if r.name == "oracle multiset equivalence"]
    skipped = bool(oracle) and oracle[0].detail.startswith("skipped")
    if len(oracle) != 1 or skipped != (n_sites > 12):
        problems.append(f"dense oracle ran wrongly at N={n_sites}")
    if ("simulator stationarity" in names) != (n_sites <= 10):
        problems.append(f"simulator check ran wrongly at N={n_sites}")
    return problems


def simulation_problems(result, n_sites: int, budget: int) -> list[str]:
    problems = []
    if result.n_events != budget and not result.absorbed:
        problems.append(f"stopped after {result.n_events} of {budget} events "
                        "without a recorded reason")
    density = np.asarray(result.density_profile(), dtype=float)
    if density.shape != (n_sites,):
        problems.append(f"density profile has shape {density.shape}")
    elif density.min() < -DENSITY_TOL or density.max() > 1 + DENSITY_TOL:
        problems.append(f"density outside [0, 1]: {density.min()!r}, "
                        f"{density.max()!r}")
    return problems
