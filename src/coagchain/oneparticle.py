"""One-particle energies and eigenmodes of the free-fermion reduction.

The 2^N-dimensional generator collapses onto a one-particle problem of
size 2*(N+2): a block-tridiagonal real matrix whose eigenvalues come in
+/- pairs.  Its nonpositive eigenvalues are, in closed form,

* a trivial zero mode,
* two boundary energies -|p_i - q_i| * delta_i / 2, one per segment,
* N-1 roots of a secular polynomial built from Chebyshev U factors of the
  two segments coupled through the junction rates.

The secular condition is written twice.  The production route takes the
roots as the eigenvalues of a real symmetric tridiagonal (Jacobi) matrix
of size N-1 whose characteristic polynomial is the secular one; the
exactly-signed scaled Chebyshev form shares no code with it and serves as
the independent check, next to the dense block matrix.  The eigenvector
constructors mirror the analytic ansatz: plane waves (or their hyperbolic
continuations, reached automatically through a complex branch base) in
each segment.  One gluing step ties them together at the junction: the
segment profiles are weighted by the null vector of the block rows of the
two junction sites.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .chebyshev import ScaledValue, chebyshev_u_pair_scaled
from .errors import ChainValidationError, ConsistencyError, DegenerateModeError
from .model import ChainSpec, RateTriple, homogeneous_chain
from .spins import bulk_coefficients, junction_coefficients

_IMAG_TOL = 1e-8  # largest relative imaginary part that counts as real


@dataclass(frozen=True)
class OneParticleSpectrum:
    """All nonpositive one-particle energies of a chain, with provenance."""

    lambda_zero: float
    lambda_edge_1: float
    lambda_edge_2: float
    bulk_roots: np.ndarray  # sorted descending, length N-1
    route: str              # secular | closed-form

    def __post_init__(self):
        roots = np.sort(np.asarray(self.bulk_roots, dtype=float))[::-1].copy()
        roots.flags.writeable = False
        object.__setattr__(self, "bulk_roots", roots)

    @property
    def count(self) -> int:
        return 3 + len(self.bulk_roots)

    def all_values(self) -> np.ndarray:
        """Every energy including the zero mode, sorted descending."""
        return np.sort(np.concatenate((
            [self.lambda_zero, self.lambda_edge_1, self.lambda_edge_2],
            self.bulk_roots)))[::-1]

    def excitations(self) -> tuple[np.ndarray, list[str]]:
        """Energies entering the spectrum assembly (zero mode discarded)."""
        values = np.concatenate(([self.lambda_edge_1, self.lambda_edge_2],
                                 self.bulk_roots))
        labels = ["edge1", "edge2"] + [f"bulk{i+1}"
                                       for i in range(len(self.bulk_roots))]
        return values, labels


def edge_energies(spec: ChainSpec) -> tuple[float, float]:
    return -abs(spec.seg1.Q), -abs(spec.seg2.Q)


def homogeneous_energies(rates: RateTriple, L: int) -> OneParticleSpectrum:
    """Closed-form one-particle energies of a homogeneous chain of L sites."""
    if L < 2:
        raise ChainValidationError(f"need at least 2 sites, got L={L}")
    k = np.arange(1, L)
    roots = 2 * rates.mu * np.cos(np.pi * k / L) + 2 * rates.f
    edge = -abs(rates.Q)
    return OneParticleSpectrum(0.0, edge, edge, roots, route="closed-form")


# ---------------------------------------------------------------------------
# Secular equation
# ---------------------------------------------------------------------------

def _require_hopping(*segments: RateTriple) -> None:
    """p*q > 0 in every segment, for the two routes that divide by p, q or
    mu: the Chebyshev form and the eigenvector ansatze."""
    if min(r.p * r.q for r in segments) <= 0:
        raise ChainValidationError("the Chebyshev form and the eigenvector "
                                   "ansatze need p*q > 0 in every segment")


def _secular_scaled(spec: ChainSpec, lam):
    """Mantissa and exponent of the secular function at a float lam, or
    mantissas and exponents on an array of them."""
    _require_hopping(spec.seg1, spec.seg2)
    s1, s2, j = spec.seg1, spec.seg2, spec.junction
    x1 = (lam - 2 * s1.f) / (2 * s1.mu)
    x2 = (lam - 2 * s2.f) / (2 * s2.mu)
    u1, u1m, e1 = chebyshev_u_pair_scaled(spec.L1 - 1, x1)
    u2, u2m, e2 = chebyshev_u_pair_scaled(spec.L2 - 1, x2)
    coef = lam + j.Q_bar + j.p_bar + j.q_bar
    mant = (coef * u1 * u2
            - s1.mu * j.p_bar / s1.p * u1m * u2
            - s2.mu * j.q_bar / s2.q * u1 * u2m)
    return mant, e1 + e2


def secular_function(spec: ChainSpec, lam: float) -> ScaledValue:
    """Secular function at one energy, in exact-sign scaled form."""
    return ScaledValue(*_secular_scaled(spec, float(lam)))


def solve_secular(spec: ChainSpec) -> np.ndarray:
    """All N-1 secular roots, descending.

    They are the eigenvalues of a symmetric tridiagonal (Jacobi) matrix T
    with det(lam - T) proportional to the secular function.  The Toeplitz
    block of a segment has mu^(L-1) * U_(L-1)((lam-2f)/2mu) as its
    determinant; bordering the two blocks with the junction entry
    -(Q_bar + p_bar + q_bar) and the couplings c1, c2 reproduces the
    mantissa of ``_secular_scaled`` because c1^2 = mu1^2 * p_bar / p1 and
    c2^2 = mu2^2 * q_bar / q2.  At p*q = 0 a segment's couplings vanish
    and its roots are 2f.
    """
    s1, s2, j = spec.seg1, spec.seg2, spec.junction
    diag = np.concatenate((np.full(spec.L1 - 1, 2 * s1.f),
                           [-(j.Q_bar + j.p_bar + j.q_bar)],
                           np.full(spec.L2 - 1, 2 * s2.f)))
    off = [np.full(max(spec.L1 - 2, 0), s1.mu)]
    if spec.L1 >= 2:
        off.append([math.sqrt(s1.q * (1 + s1.delta) * j.p_bar)])
    if spec.L2 >= 2:
        off.append([math.sqrt(s2.p * (1 + s2.delta) * j.q_bar)])
    off.append(np.full(max(spec.L2 - 2, 0), s2.mu))
    roots = scipy.linalg.eigh_tridiagonal(diag, np.concatenate(off),
                                          eigvals_only=True)[::-1]
    if roots[0] > 1e-10:
        raise ConsistencyError(
            f"positive secular root {roots[0]!r}; spectrum would not be a "
            f"generator's")
    return roots


# ---------------------------------------------------------------------------
# Block one-particle matrix
# ---------------------------------------------------------------------------

def _t_block(t: float) -> np.ndarray:
    return np.array([[-t, -t], [t, t]])


def build_script_matrix(spec: ChainSpec) -> np.ndarray:
    """Block-tridiagonal one-particle matrix of the extended chain.

    Sites 0 .. N+1 each carry a (+, -) component pair; the two extra sites
    absorb the boundary terms of the spin decomposition, and the junction
    bond contributes its own coefficient blocks.  Bond k adds one 4x4 block
    on sites k, k+1; the blocks of neighbouring bonds overlap only on the
    diagonal, so no entry is a sum of more than two terms.
    """
    co1 = bulk_coefficients(spec.seg1)
    co2 = bulk_coefficients(spec.seg2)
    coj = junction_coefficients(spec.seg1, spec.seg2, spec.junction)

    def bond_block(a, b, c, d, h, h_bar):
        return np.array([[2 * h, 0.0, -a, -c], [0.0, -2 * h, d, b],
                         [-b, c, 2 * h_bar, 0.0], [-d, a, 0.0, -2 * h_bar]])

    bulk1 = bond_block(co1.a, co1.b, co1.c, co1.d, co1.h, co1.h_bar)
    bulk2 = bond_block(co2.a, co2.b, co2.c, co2.d, co2.h, co2.h_bar)
    blocks = ([bulk1] * (spec.L1 - 1)
              + [bond_block(coj.alpha, coj.beta, coj.gamma, coj.delta_c,
                            coj.eta, coj.eta_bar)]
              + [bulk2] * (spec.L2 - 1))
    n = spec.n_sites
    m = np.zeros((2 * n + 4, 2 * n + 4))
    for k, block in enumerate(blocks, start=1):
        m[2 * k:2 * k + 4, 2 * k:2 * k + 4] += block
    tb1, tb2 = _t_block(co1.t), _t_block(co2.t)
    m[0:2, 2:4] += tb1
    m[2:4, 0:2] += tb1.T
    m[2 * n:2 * n + 2, 2 * n + 2:] += -tb2
    m[2 * n + 2:, 2 * n:2 * n + 2] += -tb2.T
    return m


def script_matrix_negative_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """Nonpositive half of the block-matrix spectrum (N+2 values, desc),
    from all of its ``eigenvalues``.

    Complex eigenvalues of the non-normal matrix raise ``ConsistencyError``.
    """
    imag = float(np.max(np.abs(eigenvalues.imag)))
    if imag > _IMAG_TOL * max(1.0, np.max(np.abs(eigenvalues.real))):
        raise ConsistencyError(
            f"block matrix produced complex eigenvalues (max imag {imag:.3e})")
    re = np.sort(eigenvalues.real)
    return re[:len(re) // 2][::-1]


def one_particle_spectrum(spec: ChainSpec) -> OneParticleSpectrum:
    """Complete one-particle spectrum: zero mode, two edges, N-1 roots."""
    e1, e2 = edge_energies(spec)
    return OneParticleSpectrum(0.0, e1, e2, solve_secular(spec),
                               route="secular")


def pairing_residual(eigenvalues: np.ndarray) -> float:
    """How far the block-matrix ``eigenvalues`` are from exact +/- symmetry."""
    ev = np.sort(eigenvalues.real)
    return float(np.max(np.abs(ev + ev[::-1])))


# ---------------------------------------------------------------------------
# Eigenvector ansatze
# ---------------------------------------------------------------------------

class DegenerateModeWarning(UserWarning):
    pass


@dataclass(frozen=True)
class ModeVector:
    """One eigenvector of the block matrix in component-pair layout."""

    kind: str                 # trivial-zero | bulk | left-edge | right-edge | ...
    lam: float
    components: np.ndarray    # shape (N+2, 2), complex
    residual: float
    aux: dict = field(default_factory=dict)

    def flat(self) -> np.ndarray:
        return self.components.reshape(-1)


def _mode_residual(matrix: np.ndarray, phi: np.ndarray, lam: float) -> float:
    scale = float(np.max(np.abs(phi)))
    return float(np.max(np.abs(matrix @ phi - lam * phi))) / scale


def _finish_mode(matrix, kind, lam, comp, t1, t2, n, aux):
    """Fill the extended-site components, normalize, measure the residual.

    The first and last block rows of the eigenproblem force the extended
    components exactly, so they are derived rather than posited.
    """
    if abs(lam) < 1e-300:
        raise DegenerateModeError(f"{kind}: zero eigenvalue, components at "
                                  "the extended sites are undetermined")
    comp[0] = _t_block(t1) @ comp[1] / lam
    comp[n + 1] = -_t_block(t2).T @ comp[n] / lam
    scale = np.max(np.abs(comp))
    if scale < 1e-250:
        raise DegenerateModeError(f"{kind}: ansatz collapsed to zero")
    comp = comp / scale
    phi = comp.reshape(-1)
    if np.max(np.abs(phi.imag)) < 1e-30:
        phi = phi.real
        comp = comp.real
    resid = _mode_residual(matrix, phi, lam)
    return ModeVector(kind, lam, comp, resid, aux)


def trivial_zero_modes(spec: ChainSpec, matrix: np.ndarray) -> list[ModeVector]:
    """The two exact zero modes, supported on the extended boundary sites;
    ``matrix`` is the chain's ``build_script_matrix``."""
    n = spec.n_sites
    out = []
    for sign in (+1.0, -1.0):
        comp = np.zeros((n + 2, 2))
        comp[0] = [0.5, 0.5]
        comp[n + 1] = [0.5 * sign, -0.5 * sign]
        phi = comp.reshape(-1)
        resid = float(np.max(np.abs(matrix @ phi)))
        out.append(ModeVector("trivial-zero", 0.0, comp, resid,
                              {"sign": sign}))
    return out


def _branch_base(rates: RateTriple, lam: float) -> tuple[complex, complex]:
    """Both solutions x of the segment dispersion at energy lam.

    Real roots describe junction/edge-localized (hyperbolic) profiles,
    complex-conjugate roots the oscillatory band regime.  The two roots
    multiply to p/q; returns (smaller-|x|, larger-|x|).
    """
    _require_hopping(rates)
    a, b, c = rates.q, -(lam - 2 * rates.f) * rates.cos_2theta, rates.p
    disc = cmath.sqrt(complex(b * b - 4 * a * c))
    xs = sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)], key=abs)
    return xs[0], xs[1]


def _pair_vec(x: complex) -> np.ndarray:
    return np.array([1 + x, 1 - x], dtype=complex)


def _branch_diff(x: complex, xp: complex, exponent: int) -> np.ndarray:
    return x ** exponent * _pair_vec(x) - xp ** exponent * _pair_vec(xp)


def _profile(spec: ChainSpec, segment: int, branches) -> np.ndarray:
    """One segment's part of a mode in the (N+2, 2) layout, max |.| = 1.

    The profile is the sum of c * x**e * (1 + x, 1 - x) over the (c, x) in
    ``branches``, with the exponent e counted from the segment's outer
    end: ell - 1 on segment 1, ell - N - 1 on segment 2.  The powers are
    formed as exp(e * log x) less the largest real part, so long chains
    do not overflow.  Every other site is zero.
    """
    n = spec.n_sites
    ell = (np.arange(1, spec.L1 + 1) if segment == 1
           else np.arange(spec.L1 + 1, n + 1))
    e = ell - (1 if segment == 1 else n + 1)
    logs = [e * cmath.log(x) for _, x in branches]
    top = max(float(np.max(lg.real)) for lg in logs)
    comp = np.zeros((n + 2, 2), dtype=complex)
    for (c, x), lg in zip(branches, logs):
        comp[ell] += c * np.exp(lg - top)[:, None] * _pair_vec(x)
    return comp / np.max(np.abs(comp))


def _diff_profile(spec: ChainSpec, segment: int, lam: float):
    """Branch base and branch-difference profile of a segment at lam.

    The difference of the two dispersion branches meets the segment's
    outer boundary row at any energy.
    """
    rates = spec.seg1 if segment == 1 else spec.seg2
    x, xp = _branch_base(rates, lam)
    if abs(x * x - rates.p / rates.q) < 1e-12 * max(1.0, rates.p / rates.q):
        raise DegenerateModeError(
            f"branch base degenerate at band edge (x^2 = p/q), lam={lam}")
    return x, _profile(spec, segment, [(1.0, x), (-1.0, xp)])


def _glue(spec: ChainSpec, matrix: np.ndarray, kind: str, lam: float,
          profiles, aux: dict) -> ModeVector:
    """Tie segment profiles together at the junction bond.

    Each profile solves every block row of the eigenproblem except the
    four rows of sites L1 and L1+1.  The weights are the null vector of
    the residual (M - lam) phi on those rows, one column per profile; the
    weighted sum goes to ``_finish_mode``, whose residual over the whole
    matrix validates it.  The weights are stored as ``aux["w"]``.
    """
    rows = slice(2 * spec.L1, 2 * spec.L1 + 4)
    flat = np.stack([prof.reshape(-1) for prof in profiles], axis=1)
    weights = np.linalg.svd(matrix[rows] @ flat - lam * flat[rows])[2][-1].conj()
    return _finish_mode(matrix, kind, lam, (flat @ weights).reshape(-1, 2),
                        spec.seg1.t, spec.seg2.t, spec.n_sites,
                        {**aux, "w": weights})


def bulk_mode(spec: ChainSpec, lam: float, matrix: np.ndarray) -> ModeVector:
    """Eigenvector for one secular root, glued across the junction.

    Each segment carries its branch-difference profile and ``_glue``
    weighs the two so the junction rows of ``matrix``, the chain's
    ``build_script_matrix``, hold.  ``aux["v"]`` is the weight ratio w1/w2
    of the two normalised profiles.
    """
    if spec.L1 < 2 or spec.L2 < 2:
        raise DegenerateModeError("bulk-mode ansatz needs both segments >= 2 sites")
    x1, prof1 = _diff_profile(spec, 1, lam)
    x2, prof2 = _diff_profile(spec, 2, lam)
    mode = _glue(spec, matrix, "bulk", lam, [prof1, prof2],
                 {"x1": x1, "x2": x2})
    w1, w2 = mode.aux["w"]
    mode.aux["v"] = w1 / w2 if abs(w2) > 0 else math.inf
    return mode


def edge_modes(spec: ChainSpec, matrix: np.ndarray) -> list[ModeVector]:
    """Up to four junction/boundary-localized modes of ``matrix``, the
    chain's ``build_script_matrix``, both energy signs.

    A left-edge mode sits at one of the energies +/-Q1 (``RateTriple.Q``).
    Segment 1 gives each of its two dispersion branches its own profile
    and segment 2 carries its branch difference; ``_glue`` weighs the
    three.  Right-edge modes swap the segments.  Degenerate cases (zero
    edge energy merging with the zero modes, or a branch collapse) are
    skipped with a warning.
    """
    if spec.L1 < 2 or spec.L2 < 2:
        raise DegenerateModeError("edge-mode ansatz needs both segments >= 2 sites")
    out = []
    for pinned, kind, rates in ((1, "left-edge", spec.seg1),
                                (2, "right-edge", spec.seg2)):
        for lam in (rates.Q, -rates.Q):
            if abs(lam) < 1e-14:
                warnings.warn(
                    f"{kind} energy vanishes (p=q or delta=0); mode merges "
                    f"with the zero modes", DegenerateModeWarning)
                continue
            try:
                profiles = [_profile(spec, pinned, [(1.0, y)])
                            for y in _branch_base(rates, lam)]
                x_free, prof = _diff_profile(spec, 3 - pinned, lam)
                out.append(_glue(spec, matrix, kind, lam, profiles + [prof],
                                 {"x_free": x_free}))
            except DegenerateModeError as exc:
                warnings.warn(str(exc), DegenerateModeWarning)
    return out


def homogeneous_modes(rates: RateTriple, L: int,
                      family: str = "first") -> list[ModeVector]:
    """All L+1 modes of one sign family for a homogeneous chain.

    The first family carries the nonpositive energies (two boundary values
    plus the standing-wave band); the second family carries their
    opposites, built from the particle-hole partner ansatz whose branch
    bases swap the roles of p and q.
    """
    if family not in ("first", "second"):
        raise ValueError(f"unknown family {family!r}")
    if L < 2:
        raise ChainValidationError(f"need at least 2 sites, got L={L}")
    _require_hopping(rates)
    p, q, c2 = rates.p, rates.q, rates.cos_2theta
    # the homogeneous junction makes every split L1 + L2 = L the same matrix
    matrix = build_script_matrix(homogeneous_chain(rates, 1, L - 1))
    out = []

    ratio = p / q if family == "first" else q / p
    xs = [ratio * c2, c2] + [cmath.sqrt(ratio) * cmath.exp(1j * math.pi * k / L)
                             for k in range(1, L)]

    for x in xs:
        try:
            if family == "first":
                lam = (q * x + p / x - (p + q) / 2 * (c2 + 1 / c2)) / c2
                xp = p / (q * x)
                comp = np.zeros((L + 2, 2), dtype=complex)
                for ell in range(1, L + 1):
                    comp[ell] = _branch_diff(x, xp, ell - 1)
                aux = {"x": x}
            else:
                lam = -(p * x + q / x - (p + q) / 2 * (c2 + 1 / c2)) / c2
                # reflection factor kept as an unreduced fraction: the
                # discrete x choices sit exactly on its poles/zeros, where
                # the mode degenerates to a single pure branch
                refl_num = p * q * (x * c2 - 1) * (x - c2)
                refl_den = (p * x * c2 - q) * (p * x - q * c2)
                scale = (p * q) * max(1.0, abs(x)) ** 2
                if max(abs(refl_num), abs(refl_den)) < 1e-12 * scale:
                    raise DegenerateModeError(
                        f"second-family reflection factor indeterminate "
                        f"at x={x}")
                xp = q / (p * x)
                c4 = rates.cos_theta_sq ** 2
                s4 = rates.sin_theta_sq ** 2

                def window(y):
                    return np.array([(1 - y) * c4, (1 + y) * s4], dtype=complex)

                comp = np.zeros((L + 2, 2), dtype=complex)
                for ell in range(1, L + 1):
                    comp[ell] = (refl_den * x ** (ell - 1) * window(x)
                                 - refl_num * xp ** (ell - 1) * window(xp))
                aux = {"x": x, "r_num": refl_num, "r_den": refl_den}
            lam = float(lam.real) if isinstance(lam, complex) else float(lam)
            out.append(_finish_mode(matrix, f"homogeneous-{family}", lam,
                                    comp, rates.t, rates.t, L, aux))
        except DegenerateModeError as exc:
            warnings.warn(str(exc), DegenerateModeWarning)
    return out
