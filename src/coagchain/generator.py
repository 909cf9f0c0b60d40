"""Full configuration-space generator and brute-force spectral oracle.

Configuration indices follow ``gillespie.LatticeState``: site 1 is the
most significant bit and bit 1 means "occupied".  The generator is one
dense float array, guarded to dimension 4096 (N <= 12).  Seen as an array
of shape ``(a, 4, b, a, 4, b)`` with a = 2^(k-1) and b = 2^(N-k-1), bond k
acts on the two middle axes and leaves the outer ones fixed, so its 4x4
operator is added on the diagonal view ``[i, x, j, i, y, j]``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import SizeLimitError
from .model import ChainSpec

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


def brute_force_spectrum(gen: np.ndarray) -> np.ndarray:
    """All eigenvalues of the generator, sorted by real part (desc)."""
    ev = scipy.linalg.eigvals(gen)
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
