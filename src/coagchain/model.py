"""Model definition: segment rates, junction rates, and local jump operators.

A chain is two homogeneous segments of a coagulation/decoagulation lattice
gas glued by one special bond.  Within a segment, particles hop left/right
with rates ``q``/``p``, adjacent pairs merge (left partner vanishes with
rate ``p``, right partner with rate ``q``), and a particle spawns a
neighbour on an empty site with rate ``delta*q`` (left) or ``delta*p``
(right).  The junction bond carries its own rate set ``(p_bar, q_bar,
Q_bar)`` chosen so that the whole generator still maps onto free fermions.

Local jump operators act on the 4-dimensional state space of one bond in
the basis ``(++, +-, -+, --)`` where ``+`` is empty and ``-`` occupied.
Columns index the source configuration, rows the target, so every column
sums to zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainValidationError

# Rejected above this: every spectral formula divides by cos(2*theta),
# which is 1/sqrt(1+delta).
DELTA_MAX = 1e12

_COL_SUM_TOL = 1e-12
_RATE_TOL = 1e-12


@dataclass(frozen=True)
class RateTriple:
    """Bulk rates (p, q, delta) of one homogeneous segment.

    All trigonometric quantities are derived rationally from ``delta``
    (with one square root), never through the angle itself: ``delta``
    equals ``tan(2*theta)**2``, so ``cos(2*theta) = 1/sqrt(1+delta)``.
    """

    p: float
    q: float
    delta: float

    def __post_init__(self):
        for name in ("p", "q", "delta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ChainValidationError(f"{name} must be finite, got {v!r}")
            if v < 0:
                raise ChainValidationError(f"{name} must be >= 0, got {v!r}")
        if self.delta > DELTA_MAX:
            raise ChainValidationError(
                f"delta={self.delta!r} too close to the tan^2(2*theta) pole "
                f"(limit {DELTA_MAX:g})")

    @classmethod
    def from_theta(cls, p: float, q: float, theta: float) -> "RateTriple":
        if not 0 <= theta < math.pi / 4:
            raise ChainValidationError(f"theta must lie in [0, pi/4), got {theta!r}")
        return cls(p, q, math.tan(2 * theta) ** 2)

    @property
    def theta(self) -> float:
        return 0.5 * math.atan(math.sqrt(self.delta))

    @property
    def cos_2theta(self) -> float:
        return 1.0 / math.sqrt(1.0 + self.delta)

    @property
    def sin_theta_sq(self) -> float:
        return 0.5 * (1.0 - self.cos_2theta)

    @property
    def cos_theta_sq(self) -> float:
        return 0.5 * (1.0 + self.cos_2theta)

    @property
    def f(self) -> float:
        """Constant term of the two-site spin decomposition."""
        return -(self.p + self.q) * (2.0 + self.delta) / 4.0

    @property
    def mu(self) -> float:
        """Half-bandwidth sqrt(p*q)/cos(2*theta) of the one-particle band."""
        return math.sqrt(self.p * self.q * (1.0 + self.delta))

    @property
    def Q(self) -> float:
        """Junction combination delta*(q-p)/2 entering positivity bounds."""
        return self.delta * (self.q - self.p) / 2.0

    @property
    def t(self) -> float:
        """Boundary-term coefficient (p-q)*delta/4."""
        return (self.p - self.q) * self.delta / 4.0


@dataclass(frozen=True)
class JunctionRates:
    """Free rate parameters of the bond joining the two segments."""

    p_bar: float
    q_bar: float
    Q_bar: float

    def __post_init__(self):
        for name in ("p_bar", "q_bar", "Q_bar"):
            if not math.isfinite(getattr(self, name)):
                raise ChainValidationError(f"{name} must be finite")
        if self.p_bar < 0 or self.q_bar < 0:
            raise ChainValidationError(
                f"junction hopping rates must be >= 0, got p_bar={self.p_bar!r}, "
                f"q_bar={self.q_bar!r}")


@dataclass(frozen=True)
class LocalOperator:
    """4x4 generator block of one bond; columns are source configurations."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise ChainValidationError(f"local operator must be 4x4, got {m.shape}")
        col_sums = m.sum(axis=0)
        if np.max(np.abs(col_sums)) > _COL_SUM_TOL:
            raise ChainValidationError(
                f"columns must sum to zero, got {col_sums!r}")
        off = m - np.diag(np.diag(m))
        if off.min() < -_RATE_TOL:
            raise ChainValidationError(
                f"negative transition rate {off.min()!r} in local operator")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def preserves_vacuum(self) -> bool:
        """True when the empty pair is inert (first column identically 0).

        Bulk bonds always preserve the vacuum.  A general junction bond may
        create particle pairs out of two empty sites, so this is a property
        of the rates, not an invariant of the type.
        """
        return bool(np.all(self.entries[:, 0] == 0.0))


@dataclass(frozen=True)
class ChainSpec:
    """Two segments plus the junction bond: the complete model."""

    L1: int
    L2: int
    seg1: RateTriple
    seg2: RateTriple
    junction: JunctionRates
    junction_kind: str = "explicit"  # explicit | impurity | quench
    impurity_s: float | None = None

    def __post_init__(self):
        if self.L1 < 1 or self.L2 < 1:
            raise ChainValidationError(
                f"segment lengths must be >= 1, got L1={self.L1}, L2={self.L2}")

    @property
    def n_sites(self) -> int:
        return self.L1 + self.L2

    def bond_operator(self, k: int) -> LocalOperator:
        """Operator of bond ``k`` (1-based; bond k couples sites k, k+1)."""
        if not 1 <= k <= self.n_sites - 1:
            raise ChainValidationError(f"bond index {k} out of range")
        if k < self.L1:
            return build_bulk_operator(self.seg1)
        if k == self.L1:
            return build_junction_operator(self.seg1, self.seg2, self.junction)
        return build_bulk_operator(self.seg2)


def build_bulk_operator(rates: RateTriple) -> LocalOperator:
    """Two-site generator of a homogeneous segment."""
    p, q, d = rates.p, rates.q, rates.delta
    m = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -(d + 1.0) * q, p, p],
        [0.0, q, -(d + 1.0) * p, q],
        [0.0, d * q, d * p, -p - q],
    ])
    op = LocalOperator(m)
    assert op.preserves_vacuum
    return op


def junction_matrix(seg1: RateTriple, seg2: RateTriple,
                    junction: JunctionRates) -> np.ndarray:
    """Raw 4x4 junction matrix, without positivity screening."""
    Q1, Q2 = seg1.Q, seg2.Q
    d1, d2 = seg1.delta, seg2.delta
    pb, qb, Qb = junction.p_bar, junction.q_bar, junction.Q_bar
    return np.array([
        [Q2 - Q1, 0.0, 0.0, 0.0],
        [qb * d2 - Qb - Q2, -Qb - Q1 - qb, pb, pb],
        [pb * d1 - Qb + Q1, qb, -Qb + Q2 - pb, qb],
        [2 * Qb - pb * d1 - qb * d2, Qb + Q1, Qb - Q2, -pb - qb],
    ])


def build_junction_operator(seg1: RateTriple, seg2: RateTriple,
                            junction: JunctionRates) -> LocalOperator:
    """Junction-bond generator; raises when any rate would be negative."""
    violations = junction_violations(seg1, seg2, junction)
    if violations:
        raise ChainValidationError(
            "invalid junction rates: " + "; ".join(violations))
    return LocalOperator(junction_matrix(seg1, seg2, junction))


def build_impurity_junction(rates: RateTriple,
                            s: float) -> tuple[JunctionRates, LocalOperator]:
    """Junction for a single impurity between identical segments.

    The impurity shifts both hopping rates by ``s`` and scales the pair
    rates accordingly; ``s = 0`` restores the homogeneous chain and
    ``s = -min(p, q)`` is the slowest admissible junction.
    """
    if s < -min(rates.p, rates.q):
        raise ChainValidationError(
            f"impurity shift s={s!r} below -min(p, q)={-min(rates.p, rates.q)!r}")
    junction = JunctionRates(
        p_bar=rates.p + s,
        q_bar=rates.q + s,
        Q_bar=((rates.p + rates.q) / 2.0 + s) * rates.delta,
    )
    return junction, build_junction_operator(rates, rates, junction)


def build_quench_junction(seg1: RateTriple,
                          seg2: RateTriple) -> tuple[JunctionRates, LocalOperator]:
    """Junction joining two arbitrary segments (the spatial-quench choice)."""
    lhs1 = seg2.delta * seg2.p - seg1.delta * seg1.p
    lhs2 = seg1.delta * seg1.q - seg2.delta * seg2.q
    problems = []
    if lhs1 < -_RATE_TOL:
        problems.append(
            f"delta2*p2 >= delta1*p1 violated ({seg2.delta * seg2.p:.6g} < "
            f"{seg1.delta * seg1.p:.6g})")
    if lhs2 < -_RATE_TOL:
        problems.append(
            f"delta1*q1 >= delta2*q2 violated ({seg1.delta * seg1.q:.6g} < "
            f"{seg2.delta * seg2.q:.6g})")
    if problems:
        raise ChainValidationError("invalid quench rates: " + "; ".join(problems))
    junction = JunctionRates(
        p_bar=seg1.p,
        q_bar=seg2.q,
        Q_bar=(seg1.p * seg1.delta + seg2.q * seg2.delta) / 2.0,
    )
    return junction, build_junction_operator(seg1, seg2, junction)


def homogeneous_junction(rates: RateTriple) -> JunctionRates:
    """Junction rates that make the glued chain exactly homogeneous."""
    return JunctionRates(
        p_bar=rates.p,
        q_bar=rates.q,
        Q_bar=(rates.p + rates.q) / 2.0 * rates.delta,
    )


def homogeneous_chain(rates: RateTriple, L1: int, L2: int) -> ChainSpec:
    return ChainSpec(L1, L2, rates, rates, homogeneous_junction(rates))


def junction_violations(seg1: RateTriple, seg2: RateTriple,
                        junction: JunctionRates) -> list[str]:
    """Every violated junction positivity inequality, with its margin."""
    Q1, Q2 = seg1.Q, seg2.Q
    d1, d2 = seg1.delta, seg2.delta
    pb, qb, Qb = junction.p_bar, junction.q_bar, junction.Q_bar
    checks = [
        ("Q1 >= Q2", Q1 - Q2),
        ("p_bar >= 0", pb),
        ("q_bar >= 0", qb),
        ("2*Q_bar >= p_bar*delta1 + q_bar*delta2", 2 * Qb - pb * d1 - qb * d2),
        ("p_bar*delta1 + Q1 >= Q_bar", pb * d1 + Q1 - Qb),
        ("Q_bar >= -Q1", Qb + Q1),
        ("q_bar*delta2 - Q2 >= Q_bar", qb * d2 - Q2 - Qb),
        ("Q_bar >= Q2", Qb - Q2),
    ]
    return [f"{name} (margin {margin:.6g})"
            for name, margin in checks if margin < -_RATE_TOL]


@dataclass(frozen=True)
class ChainValidation:
    ok: bool
    violations: tuple[str, ...] = field(default=())


def validate_chain(spec: ChainSpec) -> ChainValidation:
    """Report-style validation: collects every violated inequality."""
    violations = junction_violations(spec.seg1, spec.seg2, spec.junction)
    return ChainValidation(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _triple_to_dict(r: RateTriple) -> dict:
    return {"p": r.p, "q": r.q, "delta": r.delta}


def _triple_from_dict(d: dict) -> RateTriple:
    return RateTriple(float(d["p"]), float(d["q"]), float(d["delta"]))


def chain_to_dict(spec: ChainSpec) -> dict:
    doc = {
        "L1": spec.L1,
        "L2": spec.L2,
        "seg1": _triple_to_dict(spec.seg1),
        "seg2": _triple_to_dict(spec.seg2),
        "junction": {
            "p_bar": spec.junction.p_bar,
            "q_bar": spec.junction.q_bar,
            "Q_bar": spec.junction.Q_bar,
        },
    }
    if spec.junction_kind != "explicit":
        doc["junction_kind"] = spec.junction_kind
    if spec.junction_kind == "impurity":
        doc["s"] = spec.impurity_s
    return doc


def chain_from_dict(doc: dict) -> ChainSpec:
    seg1 = _triple_from_dict(doc["seg1"])
    seg2 = _triple_from_dict(doc["seg2"])
    kind = doc.get("junction_kind", "explicit")
    s = None
    if kind == "explicit":
        j = doc["junction"]
        junction = JunctionRates(float(j["p_bar"]), float(j["q_bar"]),
                                 float(j["Q_bar"]))
    elif kind == "impurity":
        if _triple_to_dict(seg1) != _triple_to_dict(seg2):
            raise ChainValidationError(
                "impurity junction requires identical segments")
        s = float(doc["s"])
        junction, _ = build_impurity_junction(seg1, s)
    elif kind == "quench":
        junction, _ = build_quench_junction(seg1, seg2)
    else:
        raise ChainValidationError(f"unknown junction_kind {kind!r}")
    L1, L2 = doc["L1"], doc["L2"]
    if type(L1) is not int or type(L2) is not int:  # not 2.7 -> 2, true -> 1
        raise ChainValidationError(
            f"segment lengths must be integers, got L1={L1!r}, L2={L2!r}")
    return ChainSpec(L1, L2, seg1, seg2, junction, junction_kind=kind,
                     impurity_s=s)


def save_chain(spec: ChainSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(chain_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_chain(path) -> ChainSpec:
    """Read a chain file written by ``save_chain``.

    A file that cannot be read, is not JSON, lacks a key or holds a value
    of the wrong type raises ``ChainValidationError``.
    """
    try:
        with open(path) as fh:
            return chain_from_dict(json.load(fh))
    except ChainValidationError:
        raise
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ChainValidationError(
            f"cannot read chain file {path}: {type(exc).__name__}: {exc}"
        ) from exc
