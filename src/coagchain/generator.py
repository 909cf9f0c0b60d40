"""Full configuration-space generator and brute-force spectral oracle.

Configuration indices follow ``gillespie.LatticeState``: site 1 is the
most significant bit and bit 1 means "occupied".  The generator is one
dense float array, guarded to dimension 4096 (N <= 12).  Seen as an array
of shape ``(a, 4, b, a, 4, b)`` with a = 2^(k-1) and b = 2^(N-k-1), bond k
acts on the two middle axes and leaves the outer ones fixed, so its 4x4
operator is added on the diagonal view ``[i, x, j, i, y, j]``.

The oracle reads G's entries only, not the spin decomposition, the
Jacobi matrix or the Chebyshev form.  In the basis of the indicators
"every site of S is empty" (S the zero bits of an index) G becomes
B = F G F^-1 with F = (x)[[1, 0], [1, 1]], and B is block lower
triangular by r, the number of maximal runs in S: the empty-interval
closure.  It follows from ``m[2, 1] == m[2, 3]``, ``m[1, 2] == m[1, 3]``
and a zero first row (no bond empties both its sites) in every bond
operator m.  The spectrum is the union of the diagonal blocks'
eigenvalues; at N = 12 the largest block has dimension 1716 of 4096.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import ConsistencyError, SizeLimitError
from .model import ROUNDING, ChainSpec

MAX_DENSE_DIM = 4096
_NULL_RCOND = 1e-9  # relative singular-value cut for the null space


def assemble_generator(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N generator of the full chain."""
    n = spec.n_sites
    dim = 2 ** n
    if dim > MAX_DENSE_DIM:
        raise SizeLimitError(
            f"dimension {dim} exceeds the dense generator guard "
            f"({MAX_DENSE_DIM})")
    gen = np.zeros((dim, dim))
    for k in range(1, n):
        a, b = 2 ** (k - 1), 2 ** (n - k - 1)
        bond = np.einsum("iajibj->iabj", gen.reshape(a, 4, b, a, 4, b))
        bond += spec.bond_operator(k).entries[:, :, None]
    return gen


def _run_groups(n: int) -> list[np.ndarray]:
    """Indices of the 2^n configurations grouped by r = 0, 1, ..., the
    number of maximal runs of zero bits; group r has C(n + 1, 2r)."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    runs = (1 - bits[:, 0]) + np.sum(bits[:, :-1] > bits[:, 1:], axis=1)
    return [np.flatnonzero(runs == r) for r in range(runs.max() + 1)]


def brute_force_spectrum(gen: np.ndarray) -> np.ndarray:
    """All eigenvalues of the generator ``gen``, sorted by real part (desc).

    Overwrites ``gen`` (a C-contiguous float array) with B = F G F^-1 and
    takes the eigenvalues of B's diagonal blocks.  Raises
    ``ConsistencyError`` when an entry above the block diagonal exceeds
    the rounding bound below.
    """
    gen = np.ascontiguousarray(gen, dtype=float)  # no copy of a C float G
    dim = gen.shape[0]
    n = dim.bit_length() - 1
    scale = max(float(gen.max()), -float(gen.min()))
    rows = gen.reshape((2,) * n + (dim,))
    for axis in range(n):  # row S: sum over the configurations empty on S
        view = np.moveaxis(rows, axis, 0)
        view[1] += view[0]
    cols = gen.reshape((dim,) + (2,) * n)
    for axis in range(1, n + 1):  # times F^-1 = (x)[[1, 0], [-1, 1]]
        view = np.moveaxis(cols, axis, 0)
        view[0] -= view[1]
    # Each entry of B comes out of 2N passes of one addition each.  Their
    # operands are sums of entries of G on the scale of one column's
    # magnitudes, at most 2 max|G| (a column's off-diagonal rates add up
    # to its diagonal).  Each pass is allowed ROUNDING of that, which also
    # covers the bond operators' column sums, zero only to ROUNDING:
    # 2N * ROUNDING * 2 max|G|.
    bound = 4 * n * ROUNDING * scale
    groups = _run_groups(n)
    ev = []
    for r, group in enumerate(groups):
        if r + 1 < len(groups):
            above = gen[np.ix_(group, np.concatenate(groups[r + 1:]))]
            worst = max(float(above.max()), -float(above.min()))
            if worst > bound:
                raise ConsistencyError(
                    f"generator is not block triangular by empty runs: "
                    f"entry {worst:.3g} above the diagonal blocks in run "
                    f"group {r} (bound {bound:.3g})")
        # the transposed block has the block's eigenvalues, is in the
        # Fortran order LAPACK takes without a copy, and on the benchmark
        # chains its eigenvalues lie 10-1000 times closer to the assembled
        # spectrum than those of the block itself
        ev.append(scipy.linalg.eigvals(gen[np.ix_(group, group)].T,
                                       overwrite_a=True))
    ev = np.concatenate(ev)
    order = np.lexsort((ev.imag, -ev.real))
    return ev[order]


def stationary_vectors(gen: np.ndarray) -> list[np.ndarray]:
    """Basis of the right null space (the stationary states).

    Vectors that are entrywise nonnegative up to sign are rescaled to
    probability vectors; the rest are returned with unit norm.
    """
    basis = scipy.linalg.null_space(gen, rcond=_NULL_RCOND)
    out = []
    for k in range(basis.shape[1]):
        v = basis[:, k]
        # orient the dominant component positive
        v = v * np.sign(v[np.argmax(np.abs(v))])
        if v.min() >= -1e-10 and v.sum() > 0:
            v = np.clip(v, 0.0, None)
            v = v / v.sum()
        out.append(v)
    return out
