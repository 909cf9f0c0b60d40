"""Full configuration-space generator and brute-force dense answers.

Configuration indices follow ``gillespie.LatticeState``: site 1 is the
most significant bit and bit 1 means "occupied".  The generator is one
dense float array, guarded to dimension 4096 (N <= 12).  Seen as an array
of shape ``(a, 4, b, a, 4, b)`` with a = 2^(k-1) and b = 2^(N-k-1), bond k
acts on the two middle axes and leaves the outer ones fixed, so its 4x4
operator is added on the diagonal view ``[i, x, j, i, y, j]``.

Both dense answers read G's entries only, not the spin decomposition, the
Jacobi matrix or the Chebyshev form.  In the basis of the indicators
"every site of S is empty" (S the zero bits of an index) G becomes
B = F G F^-1 with F = (x)[[1, 0], [1, 1]], and B is block lower
triangular by r, the number of maximal runs in S: the empty-interval
closure.  It follows from ``m[2, 1] == m[2, 3]``, ``m[1, 2] == m[1, 3]``
and a zero first row (no bond empties both its sites) in every bond
operator m.  At N = 12 the largest diagonal block has dimension 1716 of
4096.

* The spectrum is the union of the diagonal blocks' eigenvalues.  Each
  block meets Kolmogorov's cycle criterion on its two-way edges (Kelly,
  *Reversibility and Stochastic Networks*, 1979, section 1.5), and its
  one-way edges only order the components of those edges.  So the block
  is similar to a block-triangular matrix whose diagonal blocks are
  symmetrised by a diagonal similarity, and the symmetric S with
  S_ij = sign(B_ij) sqrt(B_ij B_ji) has its eigenvalues.  Both
  conditions are checked before the symmetric eigensolver runs.
* The stationary state solves B x = 0 with x_empty-set = 1 (total
  probability) by forward substitution over the run-count blocks, then
  p = F^-1 x.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import ConsistencyError, SizeLimitError
from .model import ROUNDING, ChainSpec

MAX_DENSE_DIM = 4096
_ROWS = 64  # rows per slab when a block is symmetrised in place
_F2 = np.kron([[1, 0], [1, 1]], [[1, 0], [1, 1]])  # F on one bond's 2 sites
_F2_INV = np.kron([[1, 0], [-1, 1]], [[1, 0], [-1, 1]])
# entries of F2 m F2^-1 that the empty-interval closure makes 0: no bond
# empties two sites, m[2, 1] == m[2, 3], m[1, 2] == m[1, 3], zero column sums
_CLOSURE = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 1),
            (3, 0), (3, 1), (3, 2), (3, 3))


def wall_operator(bonds) -> tuple[list, list, tuple[list, list], list]:
    """The empty-interval walls of a chain, from its N - 1 bond matrices
    ``bonds`` alone, in any number type (ben-Avraham, Burschka & Doering,
    J. Stat. Phys. 60, 695 (1990)).

    Each distinct matrix object is transformed once, to mt = F2 m F2^-1;
    bit 0 of its indices means "this site is empty", bit 1 "no condition".
    The interval of empty sites x+1..y has a wall w at x and y, between
    sites w and w + 1.  A left wall reads row 2 of bond w's mt (to w - 1 at
    mt_w[2, 0], to w + 1 at mt_w[2, 3]), a right wall row 1 (to w + 1 at
    mt_w[1, 0], to w - 1 at mt_w[1, 3]), and a bond inside adds mt[0, 0].
    Returns the closure entries of each distinct mt (mt[0, 1:], mt[1, 2],
    mt[2, 1] and row 3, all 0 in exact arithmetic); h[w, w] for
    w = 0..N-1 (mt_w[2, 2], 0 at w = 0, plus mt_b[0, 0] of every bond
    b > w); h[w, w+1]^2 for w = 1..N-2 read at an interval's left end,
    mt_w[2, 3] mt_(w+1)[2, 0], and at its right end,
    mt_(w+1)[1, 3] mt_w[1, 0]; and kappa for w = 1..N-1, the right wall's
    diagonal (mt_w[1, 1] less mt_b[0, 0] of every bond b >= w) minus
    h[w, w].  Interval (x, y) then has the diagonal
    h[x, x] + h[y, y] + kappa, and h[N, N] = -kappa.
    """
    distinct = {}
    for m in bonds:
        if id(m) not in distinct:
            distinct[id(m)] = (_F2 @ np.asarray(m) @ _F2_INV).tolist()
    mt = [None] + [distinct[id(m)] for m in bonds]  # mt[w] is bond w's
    n = len(mt)
    tail = [0] * (n + 1)  # tail[w]: mt_b[0, 0] summed over bonds b >= w
    for w in range(n - 1, 0, -1):
        tail[w] = tail[w + 1] + mt[w][0][0]
    diagonal = [tail[1]] + [mt[w][2][2] + tail[w + 1] for w in range(1, n)]
    left = [mt[w][2][3] * mt[w + 1][2][0] for w in range(1, n - 1)]
    right = [mt[w + 1][1][3] * mt[w][1][0] for w in range(1, n - 1)]
    kappa = [mt[w][1][1] - tail[w] - diagonal[w] for w in range(1, n)]
    closure = [[m[i][j] for i, j in _CLOSURE] for m in distinct.values()]
    return closure, diagonal, (left, right), kappa


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


def _run_count_form(gen: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Overwrite ``gen`` (a C-contiguous float G) with B = F G F^-1.

    Returns the rounding bound of B's entries and the run groups, after
    checking that no entry above the diagonal blocks exceeds that bound.
    """
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
    for r, group in enumerate(groups[:-1]):
        for later in groups[r + 1:]:
            above = gen[np.ix_(group, later)]
            worst = max(float(above.max()), -float(above.min()))
            if worst > bound:
                raise ConsistencyError(
                    f"generator is not block triangular by empty runs: "
                    f"entry {worst:.3g} above the diagonal blocks in run "
                    f"group {r} (bound {bound:.3g})")
    return bound, groups


def _symmetrise(block: np.ndarray, bound: float) -> tuple:
    """Overwrite the square ``block`` of B with S, ``_ROWS`` rows at a time,
    so that no temporary is larger than one slab.

    Entries at or below ``bound`` count as zero.  Off the diagonal S is
    sign(B) sqrt(B * B^T), 0 on a one-way edge; the diagonal is B's.
    Returns the two-way edges i < j with lw = log|B_ij| - log|B_ji| and
    the rounding bound of lw, bound/|B_ij| + bound/|B_ji|, then the
    one-way edges i -> j (B_ij != 0).  Raises ``ConsistencyError`` on a
    two-way pair of opposite signs.
    """
    m = block.shape[0]
    diag = block.diagonal().copy()
    two, one = [], []
    for k0 in range(0, m, _ROWS):
        k1 = min(k0 + _ROWS, m)
        up = block[k0:k1, k0:]      # B_ij: i in the slab, j >= k0
        lo = block[k0:, k0:k1].T    # B_ji, same shape
        u = np.where((up > bound) | (up < -bound), up, 0.0)
        v = np.where((lo > bound) | (lo < -bound), lo, 0.0)
        prod = u * v
        if np.any(prod < 0):
            raise ConsistencyError(
                "a two-way pair of block entries has opposite signs")
        np.sqrt(prod, out=prod)
        np.copysign(prod, u, out=prod)
        up[...] = prod  # symmetric on the slab's square, so the two
        lo[...] = prod  # writes agree where they overlap
        a, c = np.nonzero(np.triu((u != 0) | (v != 0), 1))  # i < j
        bu, bv = u[a, c], v[a, c]
        i, j = a + k0, c + k0
        both = (bu != 0) & (bv != 0)
        au, av = np.abs(bu[both]), np.abs(bv[both])
        two.append((i[both], j[both], np.log(au) - np.log(av),
                    bound / au + bound / av))
        fwd = bu != 0
        one.append((np.where(fwd, i, j)[~both], np.where(fwd, j, i)[~both]))
    np.fill_diagonal(block, diag)
    ti, tj, lw, err = (np.concatenate(a) for a in zip(*two))
    oi, oj = (np.concatenate(a) for a in zip(*one))
    return ti, tj, lw, err, oi, oj


def _cycle_defect(m: int, ti, tj, lw, err, oi, oj) -> float:
    """Largest cycle defect of a symmetrised block, in log weight.

    Checks that the strong components of the block's graph are the
    connected components of its two-way edges: no one-way edge inside a
    component, and no cycle of one-way edges between components.  Then
    takes log weights w along a BFS tree of the two-way edges
    (w_j - w_i = lw on a tree edge i - j) and returns max |w_j - w_i - lw|
    over all of them.  Raises ``ConsistencyError`` when a check fails or
    an edge's defect exceeds the summed rounding bounds of its cycle.
    """
    src, dst = np.concatenate([ti, tj]), np.concatenate([tj, ti])
    step, slack = np.concatenate([lw, -lw]), np.concatenate([err, err])
    # components: each node takes its neighbours' least label, and the
    # label of its label, until no label changes
    comp = np.arange(m)
    while True:
        low = comp.copy()
        np.minimum.at(low, dst, comp[src])
        low = low[low]
        if np.array_equal(low, comp):
            break
        comp = low
    # topological pass over the components: strip the one-way edges out
    # of components that no remaining edge enters.  If none can be
    # stripped, the remaining edges close a cycle; an edge inside a
    # component is a loop and is never stripped.
    cu, cv = comp[oi], comp[oj]
    while len(cu):
        free = np.bincount(cv, minlength=m)[cu] == 0
        if not np.any(free):
            raise ConsistencyError(
                "one-way edges do not only order the two-way components "
                "of a diagonal block")
        cu, cv = cu[~free], cv[~free]
    # BFS from the least node of each component, one level at a time
    w, acc = np.zeros(m), np.zeros(m)
    seen = comp == np.arange(m)
    front = seen.copy()
    while True:
        edge = np.flatnonzero(front[src] & ~seen[dst])
        if not len(edge):
            break
        nodes, first = np.unique(dst[edge], return_index=True)
        edge = edge[first]
        w[nodes] = w[src[edge]] + step[edge]
        acc[nodes] = acc[src[edge]] + slack[edge]
        seen[nodes] = True
        front[:] = False
        front[nodes] = True
    defect = np.abs(w[tj] - w[ti] - lw)
    over = defect > acc[ti] + acc[tj] + err
    if np.any(over):
        k = int(np.argmax(np.where(over, defect, 0.0)))
        raise ConsistencyError(
            f"diagonal block breaks Kolmogorov's cycle criterion: log "
            f"defect {defect[k]:.3g} on edge ({ti[k]}, {tj[k]}), rounding "
            f"bound {acc[ti[k]] + acc[tj[k]] + err[k]:.3g}")
    return float(defect.max()) if len(defect) else 0.0


def brute_force_spectrum(gen: np.ndarray) -> tuple[np.ndarray, float]:
    """All eigenvalues of the generator ``gen``, real, in descending
    order, and the largest cycle defect of its blocks, in log weight.

    Overwrites ``gen`` (a C-contiguous float array) with B = F G F^-1 and
    takes the eigenvalues of the symmetrised diagonal blocks by
    ``eigvalsh``.  Raises ``ConsistencyError`` when an entry above the
    block diagonal exceeds the rounding bound of B's entries, or when a
    block fails the checks of ``_cycle_defect``.
    """
    gen = np.ascontiguousarray(gen, dtype=float)  # no copy of a C float G
    bound, groups = _run_count_form(gen)
    ev, defect = [], 0.0
    for group in groups:
        block = gen[np.ix_(group, group)]
        defect = max(defect, _cycle_defect(len(group),
                                           *_symmetrise(block, bound)))
        # S is symmetric, so its transpose is the Fortran-order array
        # LAPACK takes without a copy
        ev.append(scipy.linalg.eigvalsh(block.T, overwrite_a=True,
                                        check_finite=False))
    return -np.sort(-np.concatenate(ev)), defect


def stationary_vectors(gen: np.ndarray) -> list[np.ndarray]:
    """Stationary probability vectors of the generator ``gen``.

    Leaves ``gen`` as it is and transforms a copy to B.  Sets
    x_empty-set = 1 and solves B_rr x_r = -sum_(s<r) B_rs x_s for
    r = 1, 2, ..., then returns p = F^-1 x.  When G's empty-lattice
    column is exactly 0 the empty lattice is absorbing: the all-empty row
    of B is then 0 and is replaced by x = 0, so p is the stationary state
    of the occupied sector, and the empty-lattice point mass follows it
    in the returned list.  Raises ``ConsistencyError`` when B is not
    block triangular or a diagonal block is singular.
    """
    b = np.array(gen, dtype=float)
    dim = b.shape[0]
    n = dim.bit_length() - 1
    absorbing = not np.any(b[:, 0])
    _, groups = _run_count_form(b)
    x = np.zeros(dim)
    x[groups[0]] = 1.0  # S empty: every configuration counts
    for r, group in enumerate(groups[1:], start=1):
        if absorbing and r == 1:  # group 1 starts with the empty lattice,
            group = group[1:]     # whose row of B is 0: it keeps x = 0
        rhs = -(b @ x)[group]  # x is 0 on this group and the later ones
        block = b[np.ix_(group, group)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                x[group] = scipy.linalg.solve(block, rhs, overwrite_a=True,
                                              check_finite=False)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
            raise ConsistencyError(
                f"diagonal block of run group {r} is singular: {exc}") from exc
    cube = x.reshape((2,) * n)
    for axis in range(n):  # x becomes p = F^-1 x, F^-1 = (x)[[1, 0], [-1, 1]]
        view = np.moveaxis(cube, axis, 0)
        view[1] -= view[0]
    if not absorbing:
        return [x]
    empty = np.zeros(dim)
    empty[0] = 1.0
    return [x, empty]
