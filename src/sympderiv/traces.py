"""The trace operators on the degree-2 derivation lattice.

Every trace is a linear map of the generators, tabulated once per genus
from the leaf table ``DerivationSpace.leaves`` and the Gram matrix J of
omega: tr_as (every generator) and tr_sym (the tree generators) as 0/1
tables over the pairs i < j (Lambda^2(H/2H)) and i <= j (S^2(H/2H)), tr_A
and tr_B as integer tables over S^2(H'), in ``np.triu_indices`` order.
``_basis_traces`` reads each table at the generator coefficients of its
domain's basis, the transform rows of ``DerivationSpace.generator_span``;
stacks of D_2 coordinate rows (``DerivationSpace.coords``), the kernels
(``kernel``, exact sublattices of Z^r, r = rank D_2) and the image ranks
(``image_rank``) read those.
The S-twisted contraction tr_omegaS goes through each generator's
contraction, tabulated over the entries of S.
"""

from __future__ import annotations

import numpy as np

from .derivspace import DerivationSpace, FiltrationError
from .freelie import iota_matrix
from .intlin import (IntegerLattice, cached, gf2_rank, kernel_lattice,
                     safe_matmul)


def _pair_columns(n: int) -> np.ndarray:
    """The column of each unordered pair {x, y} of n letters among the
    pairs i <= j in ``np.triu_indices(n)`` order, as a symmetric n x n
    index matrix."""
    i, j = np.triu_indices(n)
    col = np.zeros((n, n), dtype=np.intp)
    col[i, j] = col[j, i] = np.arange(len(i))
    return col


# -- the mod-2 traces --------------------------------------------------------

@cached
def _gf2_table(sp: DerivationSpace, which: str) -> np.ndarray:
    """tr_as ("as", every generator) or tr_sym ("sym", the tree generators)
    as a read-only 0/1 table, one row per generator.

    A tree with leaves (p, q, r, s) traces to the classes of its four
    contractions omega(p,s) qr + omega(p,r) qs + omega(q,s) pr
    + omega(q,r) ps; tr_as drops the diagonal classes, and on p (.) q,
    whose leaves are (p, q, p, q), it is (1 + omega(p,q)) p^q instead."""
    j = iota_matrix(sp.g)
    p, q, r, s = sp.leaves.T
    w = np.stack([j[p, s], j[p, r], j[q, s], j[q, r]], axis=1) % 2
    x = np.stack([q, q, p, p], axis=1)
    y = np.stack([r, s, r, s], axis=1)
    m = len(sp.pairs)
    if which == "as":
        # the first contraction of p (.) q's leaves is the class of q, p
        w[:m] = 0
        w[:m, 0] = (1 + j[p[:m], q[:m]]) % 2
        w[x == y] = 0
    else:
        w, x, y = w[m:], x[m:], y[m:]
    col = sp.pair_index if which == "as" else _pair_columns(sp.ctx.n)
    table = np.zeros((len(w), col.max() + 1), dtype=np.int64)
    np.add.at(table, (np.arange(len(w))[:, None], col[x, y]), w)
    return table % 2


def tr_as(sp: DerivationSpace, rows) -> np.ndarray:
    """tr_as of each coordinate row of a stack, as 0/1 rows over the pairs
    i < j: the rows mod 2 times the traces of D_2's basis, mod 2."""
    return safe_matmul(np.asarray(rows) % 2, _basis_traces(sp, "as")) % 2


# -- the A-side and B-side traces ------------------------------------------

@cached
def _side_table(sp: DerivationSpace, side: str) -> np.ndarray:
    """tr_A ("A") or tr_B ("B") as a read-only integer table over S^2 of
    the other side's letters, one row per generator.

    A tree (a, b | c, d) expands to a (x) [b, [c, d]] - b (x) [a, [c, d]]
    + c (x) [d, [a, b]] - d (x) [c, [a, b]].  A term h (x) [x, [y, z]] with
    h on the side and x, y, z off it traces to omega(h, z) xy
    - omega(h, y) xz, and every other term to 0: so does each term of
    p (.) q, whose leaves are (p, q, p, q)."""
    # the terms (h, x, y, z) of every generator, one column each
    terms = sp.leaves[:, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 2, 0, 0],
                          [3, 3, 1, 1]]]
    h, x, y, z = np.moveaxis(terms, 1, 0)
    on = sp.on_side(terms, side)
    sign = np.array([1, -1, 1, -1]) * (on[:, 0] & ~on[:, 1:].any(axis=1))
    j = iota_matrix(sp.g)
    col = _pair_columns(sp.g)
    k = np.arange(len(sp.leaves))[:, None]
    table = np.zeros((len(k), col.max() + 1), dtype=np.int64)
    # the letters off the side are one block of g, read mod g
    np.add.at(table, (k, col[x % sp.g, y % sp.g]), sign * j[h, z])
    np.add.at(table, (k, col[x % sp.g, z % sp.g]), -sign * j[h, y])
    return table


def tr_A(sp: DerivationSpace, rows) -> np.ndarray:
    """Integer rows over the S^2(H') basis {b'_i b'_j, i <= j}, one per
    coordinate row of a stack; a row outside the A-side filtration level 0,
    the domain, raises."""
    if not sp.filtration(0, "A").contains_rows(rows).all():
        raise FiltrationError(
            "element is not in the A-side filtration level 0")
    return safe_matmul(rows, _basis_traces(sp, "A"))


# -- the traces of the domain bases ----------------------------------------

@cached
def _basis_traces(sp: DerivationSpace, which: str) -> np.ndarray:
    """The trace rows of the domain's basis, read-only: the unit rows of
    Z^r for tr_as ("as"), tr_A ("A") and tr_B ("B"), D_2''s for tr_sym
    ("sym").  Their generator coefficients are the transform rows of
    ``generator_span`` (``d2`` checks that all generators span Z^r), so
    they are those rows times the generator table, mod 2 for the mod-2
    traces."""
    sp.d2()
    if which in ("as", "sym"):
        trans = sp.generator_span(which == "sym")[1]
        return safe_matmul(trans % 2, _gf2_table(sp, which)) % 2
    return safe_matmul(sp.generator_span(False)[1], _side_table(sp, which))


# -- the S-twisted contraction ---------------------------------------------

@cached
def _omegaS_table(sp: DerivationSpace) -> np.ndarray:
    """Each generator's S-twisted contraction as a linear map of S: a
    read-only int8 array (g(g+1)/2, generators * 2g * 2g) whose row holds
    the coefficients of the entry S_ij, i <= j in ``np.triu_indices``
    order, in every generator's 2g x 2g value.

    A tree with leaves (p, q, r, t) has the terms S_pt (qr) + S_qr (pt)
    - S_pr (qt) - S_qt (pr), each with its transpose, where S_xy counts
    only on B-letters (S[x - g, y - g]); on the leaves (p, q, p, q) of
    p (.) q they give twice its contraction, so those columns are halved."""
    g = sp.g
    n = 2 * g
    p, q, r, t = sp.leaves.T
    col = _pair_columns(g)
    k = np.arange(len(sp.leaves))
    table = np.zeros((col.max() + 1, len(k), n, n), dtype=np.int8)
    # terms (x, y, a, b, c): c * S[a - g, b - g] at (x, y), then transposed
    for x, y, a, b, c in [(q, r, p, t, 1), (p, t, q, r, 1),
                          (q, t, p, r, -1), (p, r, q, t, -1)]:
        on_b = np.minimum(a, b) >= g  # S lives on the B block only
        np.add.at(table, (col[a[on_b] - g, b[on_b] - g], k[on_b], x[on_b],
                          y[on_b]), c)
    table = table + np.swapaxes(table, 2, 3)
    table[:, :len(sp.pairs)] //= 2
    return table.reshape(len(table), -1)


def tr_omegaS(sp: DerivationSpace, coeffs, s) -> np.ndarray:
    """Values in T_2(H) = H (x) H, as 2g x 2g integer matrices, of the
    elements with the given stack of generator coefficient rows against
    each matrix of a stack of symmetric S: shape (rows, matrices, 2g, 2g),
    one matrix per (row, S) pair.

    The contraction of every generator at every S is one product with the
    tabulated map, then one exact product with the coefficients."""
    s = np.asarray(s, dtype=np.int64)
    g = sp.g
    if not np.array_equal(s, np.swapaxes(s, 1, 2)):
        raise ValueError("S must be symmetric")
    i, j = np.triu_indices(g)
    per_gen = safe_matmul(s[:, i, j], _omegaS_table(sp))
    per_gen = per_gen.reshape(len(s), len(sp.generators), -1)
    out = safe_matmul(coeffs,
                      per_gen.transpose(1, 0, 2).reshape(len(sp.generators), -1))
    return out.reshape(len(out), len(s), 2 * g, 2 * g)


# -- kernels and image ranks -----------------------------------------------

@cached
def kernel(sp: DerivationSpace, which: str) -> IntegerLattice:
    """The kernel of a trace inside its domain, as a sublattice of Z^r: mod
    2, of tr_as ("as") on D_2 = Z^r and tr_sym ("sym") on D_2'; over Z, of
    tr_A ("A") and tr_B ("B") on the side's filtration level 0; any other
    name raises.  One kernel of the traces of the domain's basis gives the
    kernel's coefficients over that basis, mapped back through it; Z^r's
    basis is the identity, so for tr_as they are the kernel, in HNF."""
    t = _traces_of(sp, which, ("as", "sym", "A", "B"))
    if which == "as":
        return kernel_lattice(t.T, mod2=True)
    if which == "sym":
        basis = sp.dprime2().basis
    else:
        basis = sp.filtration(0, which).basis
        t = safe_matmul(basis, t)
    coeffs = kernel_lattice(t.T, mod2=which == "sym")
    return IntegerLattice(sp.rank, safe_matmul(coeffs.basis, basis))


def _traces_of(sp: DerivationSpace, which: str, names) -> np.ndarray:
    """``_basis_traces`` of a trace among the names; any other name raises."""
    if which not in names:
        raise ValueError(f"{which!r} is not one of the traces {names}")
    return _basis_traces(sp, which)


def image_rank(sp: DerivationSpace, which: str) -> int:
    """GF(2) rank of the image of tr_as ("as") or tr_sym ("sym"): that of
    the trace rows, each packed into one int."""
    rows = _traces_of(sp, which, ("as", "sym"))
    packed = np.packbits(rows.astype(np.uint8), axis=1)
    return gf2_rank(int.from_bytes(r.tobytes(), "big") for r in packed)


def image_in_omega_kernel(sp: DerivationSpace, which: str) -> bool:
    """Whether every trace row pairs evenly with the functional omega mod 2
    on S^2(H/2H) ("sym") or Lambda^2(H/2H) ("as"): J's entries at the
    pairs i <= j or i < j."""
    rows = _traces_of(sp, which, ("as", "sym"))
    k = 1 if which == "as" else 0
    func = iota_matrix(sp.g)[np.triu_indices(sp.ctx.n, k)][:, None]
    return not (safe_matmul(rows, func) % 2).any()
