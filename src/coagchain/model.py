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
sums to zero.  A rate formed as a sum of float terms is stored as exactly
0.0 when it lies within ``ROUNDING`` of its terms' summed magnitudes; a
rate that is a product of inputs is stored as computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import ChainValidationError

# Rejected above this: every spectral formula divides by cos(2*theta),
# which is 1/sqrt(1+delta).
DELTA_MAX = 1e12

# Relative rounding allowance of a value formed from a few float terms.
ROUNDING = 16 * np.finfo(float).eps
# Number types held in float arithmetic; mpmath numbers are not.
_FLOATS = (int, float, np.generic)


def _formed(*terms: float) -> float:
    """Sum of ``terms`` left to right; a float sum within rounding is 0.0."""
    value = sum(terms)
    screened = (isinstance(value, _FLOATS)
                and abs(value) <= ROUNDING * sum(map(abs, terms)))
    return 0.0 if screened else value


def column_defect(m: np.ndarray) -> float:
    """Largest column sum of ``m``, relative to that column's magnitudes."""
    return max(abs(sum(col)) / (sum(map(abs, col)) or 1.0)
               for col in m.T.tolist())


@dataclass(frozen=True)
class RateTriple:
    """Bulk rates (p, q, delta) of one homogeneous segment.

    All trigonometric quantities are derived rationally from ``delta``
    (with one square root), never through the angle itself: ``delta``
    equals ``tan(2*theta)**2``, so ``cos(2*theta) = 1/sqrt(1+delta)``.
    Built from mpmath numbers, every derived value but ``mu`` is one too.
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
    def cos_2theta(self) -> float:
        sqrt = (math.sqrt if isinstance(self.delta, _FLOATS)
                else self.delta.context.sqrt)  # mpmath's, at its precision
        return 1 / sqrt(1 + self.delta)

    @property
    def sin_theta_sq(self) -> float:
        return (1 - self.cos_2theta) / 2

    @property
    def cos_theta_sq(self) -> float:
        return (1 + self.cos_2theta) / 2

    @property
    def f(self) -> float:
        """Constant term of the two-site spin decomposition."""
        return -(self.p + self.q) * (2 + self.delta) / 4

    @property
    def mu(self) -> float:
        """Half-bandwidth sqrt(p*q)/cos(2*theta) of the one-particle band."""
        return math.sqrt(self.p * self.q * (1 + self.delta))

    @property
    def Q(self) -> float:
        """Junction combination delta*(q-p)/2 entering positivity bounds."""
        return self.delta * (self.q - self.p) / 2

    @property
    def t(self) -> float:
        """Boundary-term coefficient (p-q)*delta/4."""
        return (self.p - self.q) * self.delta / 4


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
        if column_defect(m) > ROUNDING:
            raise ChainValidationError(
                f"columns must sum to zero, got {m.sum(axis=0)!r}")
        off = m - np.diag(np.diag(m))
        if off.min() < 0:
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
        of the rates, not an invariant of the type.  The test is exact, as
        a rate that vanishes in exact arithmetic is stored as 0.0.
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
        """Operator of bond ``k`` (1-based; bond k couples sites k, k+1).

        Bonds of one segment share one operator, built on first use; an
        invalid junction raises only when its own bond is asked for.
        """
        if not 1 <= k <= self.n_sites - 1:
            raise ChainValidationError(f"bond index {k} out of range")
        if k < self.L1:
            return self._seg1_operator
        if k == self.L1:
            return self._junction_operator
        return self._seg2_operator

    @cached_property
    def _seg1_operator(self) -> LocalOperator:
        return build_bulk_operator(self.seg1)

    @cached_property
    def _junction_operator(self) -> LocalOperator:
        return build_junction_operator(self.seg1, self.seg2, self.junction)

    @cached_property
    def _seg2_operator(self) -> LocalOperator:
        return build_bulk_operator(self.seg2)


def bulk_matrix(rates: RateTriple) -> np.ndarray:
    """The 4x4 generator of a homogeneous segment, unscreened."""
    p, q, d = rates.p, rates.q, rates.delta
    return np.array([
        [0, 0, 0, 0],
        [0, -(d + 1) * q, p, p],
        [0, q, -(d + 1) * p, q],
        [0, d * q, d * p, -p - q],
    ])


def build_bulk_operator(rates: RateTriple) -> LocalOperator:
    """Two-site generator of a homogeneous segment."""
    op = LocalOperator(bulk_matrix(rates))
    assert op.preserves_vacuum
    return op


def junction_matrix(seg1: RateTriple, seg2: RateTriple,
                    junction: JunctionRates) -> np.ndarray:
    """The 4x4 junction generator, unscreened; the one statement of its
    rules: no off-diagonal rate may be negative (diagonal: -column rates).
    """
    Q1, Q2 = seg1.Q, seg2.Q
    d1, d2 = seg1.delta, seg2.delta
    pb, qb, Qb = junction.p_bar, junction.q_bar, junction.Q_bar
    m = [
        [0, 0, 0, 0],
        [_formed(qb * d2, -Qb, -Q2), 0, pb, pb],
        [_formed(pb * d1, -Qb, Q1), qb, 0, qb],
        [_formed(2 * Qb, -pb * d1, -qb * d2), _formed(Qb, Q1),
         _formed(Qb, -Q2), 0],
    ]
    for k, out_rate in enumerate([sum(col) for col in zip(*m)]):
        m[k][k] = 0 - out_rate  # +0.0, not -0.0, for an inert column
    return np.array(m)


def build_junction_operator(seg1: RateTriple, seg2: RateTriple,
                            junction: JunctionRates) -> LocalOperator:
    """Junction-bond generator; raises when any rate would be negative."""
    m = junction_matrix(seg1, seg2, junction)
    violations = junction_violations(m)
    if violations:
        raise ChainValidationError(
            "invalid junction rates: " + "; ".join(violations))
    return LocalOperator(m)


def build_impurity_junction(rates: RateTriple,
                            s: float) -> tuple[JunctionRates, LocalOperator]:
    """Junction for a single impurity between identical segments.

    The impurity shifts both hopping rates by ``s`` and scales the pair
    rates accordingly; ``s = 0`` restores the homogeneous chain and
    ``s = -min(p, q)`` is the slowest admissible junction.  ``Q_bar`` is
    formed from the shifted rates, so the junction cannot create particles
    from an empty pair: its vacuum column is exactly zero.
    """
    p_bar, q_bar = rates.p + s, rates.q + s
    junction = JunctionRates(p_bar, q_bar, (p_bar + q_bar) / 2 * rates.delta)
    return junction, build_junction_operator(rates, rates, junction)


def build_quench_junction(seg1: RateTriple,
                          seg2: RateTriple) -> tuple[JunctionRates, LocalOperator]:
    """Junction joining two arbitrary segments (the spatial-quench choice).

    Valid when ``delta2*p2 >= delta1*p1`` and ``delta1*q1 >= delta2*q2``:
    the junction rules ``q_bar*delta2 - Q2 >= Q_bar`` and
    ``p_bar*delta1 + Q1 >= Q_bar``.
    """
    junction = JunctionRates(
        p_bar=seg1.p,
        q_bar=seg2.q,
        Q_bar=(seg1.p * seg1.delta + seg2.q * seg2.delta) / 2,
    )
    return junction, build_junction_operator(seg1, seg2, junction)


def homogeneous_junction(rates: RateTriple) -> JunctionRates:
    """Junction rates that make the glued chain exactly homogeneous."""
    return build_impurity_junction(rates, 0)[0]


def homogeneous_chain(rates: RateTriple, L1: int, L2: int) -> ChainSpec:
    return ChainSpec(L1, L2, rates, rates, homogeneous_junction(rates))


# Entry of junction_matrix -> the junction rule that its sign states.
_JUNCTION_RULES = {
    (0, 0): "Q1 >= Q2",
    (1, 0): "q_bar*delta2 - Q2 >= Q_bar",
    (2, 0): "p_bar*delta1 + Q1 >= Q_bar",
    (3, 0): "2*Q_bar >= p_bar*delta1 + q_bar*delta2",
    (3, 1): "Q_bar >= -Q1",
    (3, 2): "Q_bar >= Q2",
}
_MARGIN_SIGN = 1.0 - 2.0 * np.eye(4)  # margin of a diagonal entry: -m


def junction_violations(m: np.ndarray) -> list[str]:
    """Every rule that the junction matrix ``m`` breaks, with its margin."""
    margin = (m * _MARGIN_SIGN).tolist()
    return [f"{rule} (margin {margin[i][j]:.6g})"
            for (i, j), rule in _JUNCTION_RULES.items() if margin[i][j] < 0]


@dataclass(frozen=True)
class ChainValidation:
    ok: bool
    violations: tuple[str, ...] = field(default=())


def validate_chain(spec: ChainSpec) -> ChainValidation:
    """Report-style validation: collects every violated inequality."""
    violations = junction_violations(
        junction_matrix(spec.seg1, spec.seg2, spec.junction))
    return ChainValidation(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _triple_from_dict(d: dict) -> RateTriple:
    return RateTriple(float(d["p"]), float(d["q"]), float(d["delta"]))


def chain_to_dict(spec: ChainSpec) -> dict:
    doc = {"L1": spec.L1, "L2": spec.L2, "seg1": asdict(spec.seg1),
           "seg2": asdict(spec.seg2), "junction": asdict(spec.junction)}
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
        if seg1 != seg2:
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
