"""Full configuration-space generator and brute-force spectral oracle.

Configuration indices follow ``gillespie.LatticeState``: site 1 is the
most significant bit and bit 1 means "occupied".  The generator is the
sum over bonds of identity-padded local operators; it is kept sparse so
that moderate N stay cheap, while dense eigendecompositions are guarded
to dimension 4096.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import SizeLimitError
from .model import ChainSpec

MAX_ASSEMBLY_SITES = 24
MAX_DENSE_DIM = 4096


def assemble_generator(spec: ChainSpec) -> scipy.sparse.csr_matrix:
    """Sparse 2^N generator of the full chain."""
    n = spec.n_sites
    if n > MAX_ASSEMBLY_SITES:
        raise SizeLimitError(
            f"N={n} sites exceeds the assembly guard ({MAX_ASSEMBLY_SITES})")
    dim = 2 ** n
    total = scipy.sparse.csr_matrix((dim, dim))
    for k in range(1, n):
        op = scipy.sparse.csr_matrix(spec.bond_operator(k).entries)
        left = scipy.sparse.identity(2 ** (k - 1), format="csr")
        right = scipy.sparse.identity(2 ** (n - k - 1), format="csr")
        total = total + scipy.sparse.kron(scipy.sparse.kron(left, op), right,
                                          format="csr")
    return total


def brute_force_spectrum(gen: scipy.sparse.spmatrix) -> np.ndarray:
    """All eigenvalues of the dense generator, sorted by real part (desc)."""
    dim = gen.shape[0]
    if dim > MAX_DENSE_DIM:
        raise SizeLimitError(
            f"dimension {dim} exceeds the dense eigensolver guard "
            f"({MAX_DENSE_DIM})")
    ev = scipy.linalg.eigvals(np.asarray(gen.todense()))
    order = np.lexsort((ev.imag, -ev.real))
    return ev[order]


def stationary_vectors(gen: scipy.sparse.spmatrix,
                       rcond: float = 1e-9) -> list[np.ndarray]:
    """Basis of the right null space (the stationary states).

    Vectors that are entrywise nonnegative up to sign are rescaled to
    probability vectors; the rest are returned with unit norm.
    """
    dim = gen.shape[0]
    if dim > MAX_DENSE_DIM:
        raise SizeLimitError(
            f"dimension {dim} exceeds the dense null-space guard "
            f"({MAX_DENSE_DIM})")
    basis = scipy.linalg.null_space(np.asarray(gen.todense()), rcond=rcond)
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


def generator_trace(gen: scipy.sparse.spmatrix) -> float:
    return float(gen.diagonal().sum())
