"""The trace operators on the degree-2 derivation lattice.

Every trace is a linear map of the generators, tabulated once per genus
from the leaf table ``DerivationSpace.leaves`` and the Gram matrix J of
omega, and applied to whole stacks as one exact product.  The mod-2 traces
tr_as (on every generator) and tr_sym (on the tree generators) are 0/1
tables over the pairs i < j (Lambda^2(H/2H)) and i <= j (S^2(H/2H)), in
``np.triu_indices`` order, read through the generator coefficients mod 2.
tr_A and tr_B go through an (ambient x S^2(H')) matrix built from the
tensor expansions of the degree-3 Lyndon words, and the S-twisted
contraction tr_omegaS through each generator's contraction, tabulated
over the entries of S.  Kernels are returned as exact sublattices of the
ambient H (x) L_3 coordinates.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .derivspace import DerivationSpace, FiltrationError, iota_matrix
from .intlin import GF2Matrix, IntegerLattice, kernel_lattice, safe_matmul


def _pair_columns(n: int, k: int) -> np.ndarray:
    """The column of each unordered pair {x, y} of n letters among the
    pairs i <= j (k = 0) or i < j (k = 1) in ``np.triu_indices(n, k)``
    order, as a symmetric n x n index matrix (0 on the diagonal for k = 1)."""
    i, j = np.triu_indices(n, k)
    col = np.zeros((n, n), dtype=np.intp)
    col[i, j] = col[j, i] = np.arange(len(i))
    return col


def omega_kernel_dim_sym(g: int) -> int:
    return (g + 1) * (2 * g - 1)


def omega_kernel_dim_ext(g: int) -> int:
    return (g - 1) * (2 * g + 1)


# -- the mod-2 traces --------------------------------------------------------

@lru_cache(maxsize=None)
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
    col = _pair_columns(sp.ctx.n, 1 if which == "as" else 0)
    table = np.zeros((len(w), col.max() + 1), dtype=np.int64)
    np.add.at(table, (np.arange(len(w))[:, None], col[x, y]), w)
    table %= 2
    table.setflags(write=False)
    return table


def _mod2_trace(sp: DerivationSpace, which: str, rows) -> np.ndarray:
    """tr_as or tr_sym of each row of a stack as 0/1 rows: one batched
    generator solve, then the coefficients mod 2 times the table, mod 2."""
    solve = (sp.express_in_generators if which == "as"
             else sp.express_in_tree_generators)
    coeffs = np.asarray(solve(rows) % 2, dtype=np.int64)
    return safe_matmul(coeffs, _gf2_table(sp, which)) % 2


def tr_as(sp: DerivationSpace, rows) -> np.ndarray:
    """tr_as of each row of a stack, as 0/1 rows over the pairs i < j."""
    return _mod2_trace(sp, "as", rows)


# -- the A-side and B-side traces ------------------------------------------

def tr_A(sp: DerivationSpace, v, check_domain: bool = True) -> np.ndarray:
    """Integer vector over the S^2(H') basis {b'_i b'_j, i <= j} of one
    element, or one row per element of a stack."""
    return _side_trace(sp, v, "A", check_domain)


@lru_cache(maxsize=None)
def _side_table(sp: DerivationSpace, side: str) -> np.ndarray:
    """The side trace as a read-only (ambient x S^2(H')) integer matrix.

    Row h * dim(L_3) + i is the trace of e_h (x) (i-th Lyndon bracketing):
    keep H-factors in the side Lagrangian, kill that side in the Lie
    factor, contract the first two tensor slots by omega, and symmetrize
    the last two into S^2 of the quotient."""
    ctx = sp.ctx
    d3 = ctx.dim(3)
    side_letters = ctx.kill_letters(side)
    shift = ctx.g if side == "A" else 0
    j = iota_matrix(ctx.g)
    col = _pair_columns(ctx.g, 0)
    table = np.zeros((sp.ambient_dim, col.max() + 1), dtype=np.int64)
    for h in side_letters:
        for i, w in enumerate(ctx.lyndon(3)):
            for word, c in ctx.bracketing_tensor(w).items():
                if any(l in side_letters for l in word):
                    continue
                om = j[h, word[0]]
                if om:
                    x, y = word[1] - shift, word[2] - shift
                    table[h * d3 + i, col[x, y]] += om * c
    table.setflags(write=False)
    return table


def _side_trace(sp: DerivationSpace, v, side: str,
                check_domain: bool) -> np.ndarray:
    v = np.asarray(v)
    if check_domain and not sp.filtration(0, side).contains_rows(
            np.atleast_2d(v)).all():
        raise FiltrationError(
            "element is not in the %s-side filtration level 0" % side)
    return safe_matmul(v, _side_table(sp, side))


# -- the S-twisted contraction ---------------------------------------------

@lru_cache(maxsize=None)
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
    col = _pair_columns(g, 0)
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
    table = table.reshape(len(table), -1)
    table.setflags(write=False)
    return table


def tr_omegaS(sp: DerivationSpace, coeffs, s) -> np.ndarray:
    """Value in T_2(H) = H (x) H, as a 2g x 2g integer matrix, of the
    element with the given generator coefficients against the symmetric
    matrix S: shape coeffs.shape[:-1] + s.shape[:-2] + (2g, 2g), so a
    stack of coefficient rows and a stack of matrices give one matrix per
    (row, S) pair.

    The contraction of every generator at every S is one product with the
    tabulated map, then one exact product with the coefficients."""
    s = np.asarray(s, dtype=np.int64)
    g = sp.g
    if not np.array_equal(s, np.swapaxes(s, -1, -2)):
        raise ValueError("S must be symmetric")
    i, j = np.triu_indices(g)
    mats = s[..., i, j].reshape(-1, len(i))
    per_gen = safe_matmul(mats, _omegaS_table(sp))
    per_gen = per_gen.reshape(len(mats), len(sp.generators), -1)
    coeffs = np.asarray(coeffs)
    out = safe_matmul(coeffs,
                      per_gen.transpose(1, 0, 2).reshape(len(sp.generators), -1))
    return out.reshape(coeffs.shape[:-1] + s.shape[:-2] + (2 * g, 2 * g))


# -- kernels as integer lattices -------------------------------------------

def _mod2_preimage(t: np.ndarray) -> IntegerLattice:
    """{c in Z^n : t @ c == 0 mod 2} for an integer matrix t (m x n)."""
    m, n = t.shape
    block = np.hstack([t, 2 * np.eye(m, dtype=np.int64)])
    ker = kernel_lattice(block)
    return IntegerLattice(n, ker.basis[:, :n])


def _coeffs_to_ambient(sp: DerivationSpace, coeff_basis,
                       lattice: IntegerLattice) -> IntegerLattice:
    vecs = safe_matmul(np.asarray(coeff_basis), lattice.basis)
    return IntegerLattice(sp.ambient_dim, vecs)


def _gf2_domain(sp: DerivationSpace, which: str) -> IntegerLattice:
    return sp.d2() if which == "as" else sp.dprime2()


@lru_cache(maxsize=None)
def _gf2_image_rows(sp: DerivationSpace, which: str) -> np.ndarray:
    """Trace rows of the basis of D_2 ("as") or of D_2' ("sym"), read-only."""
    rows = _mod2_trace(sp, which, _gf2_domain(sp, which).basis)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _gf2_kernel(sp: DerivationSpace, which: str) -> IntegerLattice:
    t = _gf2_image_rows(sp, which).T
    return _coeffs_to_ambient(sp, _mod2_preimage(t).basis,
                              _gf2_domain(sp, which))


def ker_tr_as(sp: DerivationSpace) -> IntegerLattice:
    """Kernel of tr_as inside D_2."""
    return _gf2_kernel(sp, "as")


def ker_tr_sym(sp: DerivationSpace) -> IntegerLattice:
    """Kernel of tr_sym inside D_2'."""
    return _gf2_kernel(sp, "sym")


@lru_cache(maxsize=None)
def _side_kernel(sp: DerivationSpace, side: str) -> IntegerLattice:
    f0 = sp.filtration(0, side)
    coeff = kernel_lattice(safe_matmul(f0.basis, _side_table(sp, side)).T)
    if coeff.rank == 0:
        return IntegerLattice(sp.ambient_dim)
    return _coeffs_to_ambient(sp, coeff.basis, f0)


def ker_tr_A(sp: DerivationSpace) -> IntegerLattice:
    """Kernel of tr_A inside filtration level 0."""
    return _side_kernel(sp, "A")


def ker_tr_B(sp: DerivationSpace) -> IntegerLattice:
    return _side_kernel(sp, "B")


# -- image ranks over GF(2) -------------------------------------------------

def _image_rank(sp: DerivationSpace, which: str) -> int:
    """GF(2) rank of the trace rows, each packed into one int."""
    packed = np.packbits(_gf2_image_rows(sp, which).astype(np.uint8), axis=1)
    return GF2Matrix([int.from_bytes(r.tobytes(), "big")
                      for r in packed]).rank()


def image_rank_as(sp: DerivationSpace) -> int:
    return _image_rank(sp, "as")


def image_rank_sym(sp: DerivationSpace) -> int:
    return _image_rank(sp, "sym")


def image_in_omega_kernel(sp: DerivationSpace, which: str) -> bool:
    """Whether every trace row pairs evenly with the functional omega mod 2
    on S^2(H/2H) ("sym") or Lambda^2(H/2H) ("as"): J's entries at the
    pairs i <= j or i < j."""
    k = 1 if which == "as" else 0
    func = iota_matrix(sp.g)[np.triu_indices(sp.ctx.n, k)][:, None]
    return not (safe_matmul(_gf2_image_rows(sp, which), func) % 2).any()
