"""The trace operators on the degree-2 derivation lattice.

Every trace is a linear map of the generators, tabulated once per genus
by one rule, the contractions of a tree (``CONTRACTIONS``) on the leaf
table ``DerivationSpace.leaves``: by |J| (omega read from the A-letter),
tr_as and tr_sym as 0/1 tables over the pairs i < j and i <= j (Lambda^2,
S^2 of H/2H), and tr_A and tr_B over S^2(H'), in ``np.triu_indices`` order.
``_basis_traces`` reads each table at the generator coefficients of its
domain's basis, the transform rows of ``DerivationSpace.generator_span``;
stacks of D_2 coordinate rows (``DerivationSpace.gen_rows``), the kernels
(``kernel``, exact sublattices of Z^r, r = rank D_2) and the image ranks
(``image_rank``) read those.
The S-twisted contraction tr_omegaS goes through each generator's
contractions by S, tabulated over the entries of S.
"""

from __future__ import annotations

import numpy as np

from .derivspace import DerivationSpace, FiltrationError
from .freelie import iota_matrix, pair_columns
from .intlin import (IntegerLattice, cached, gf2_rank, kernel_lattice,
                     safe_matmul)


# The four contractions of a tree (p, q | r, s) as leaf positions (sign, u,
# v, x, y): a symmetric form F contracts it to the sum of sign F(u, v) xy,
# F(p,s) qr - F(p,r) qs - F(q,s) pr + F(q,r) ps.
CONTRACTIONS = ((1, 0, 3, 1, 2), (-1, 0, 2, 1, 3), (-1, 1, 3, 0, 2),
                (1, 1, 2, 0, 3))


def _contract(sp: DerivationSpace, forms: np.ndarray) -> np.ndarray:
    """Every generator contracted by each symmetric 2g x 2g form of a
    stack: int8 (forms, generators, 2g, 2g), xy's coefficient at [x, y]."""
    leaf, k = sp.leaves.T, np.arange(len(sp.leaves))
    out = np.zeros((len(forms), len(k), sp.ctx.n, sp.ctx.n), dtype=np.int8)
    for sign, u, v, x, y in CONTRACTIONS:
        out[:, k, leaf[x], leaf[y]] += sign * forms[:, leaf[u], leaf[v]]
    return out


@cached
def _contraction(sp: DerivationSpace) -> np.ndarray:
    """Every generator contracted by |J| = [[0, I], [I, 0]], omega read
    from the A-letter: read-only int8 (generators, 2g, 2g)."""
    return _contract(sp, np.abs(iota_matrix(sp.g)).astype(np.int8)[None])[0]


def _classes(m: np.ndarray, k: int) -> np.ndarray:
    """The S^2 (k = 0, i <= j) or Lambda^2 (k = 1, i < j) classes of each
    matrix of a stack, in ``np.triu_indices`` order: m_ij + m_ji, m_ii."""
    i, j = np.triu_indices(m.shape[-1], k)
    return m[..., i, j] + m[..., j, i] * (i != j)


# -- the mod-2 traces --------------------------------------------------------

@cached
def _gf2_table(sp: DerivationSpace, which: str) -> np.ndarray:
    """tr_as ("as", every generator) or tr_sym ("sym", the tree generators)
    as a read-only 0/1 table, one row per generator: the Lambda^2 or S^2
    classes of its contraction mod 2, as |J| is omega mod 2.  On p (.) q,
    whose leaves are (p, q, p, q), tr_as is (1 + omega(p,q)) p^q instead."""
    m = len(sp.pairs)
    if which != "as":
        return _classes(_contraction(sp)[m:], 0).astype(np.int64) % 2
    table = _classes(_contraction(sp), 1).astype(np.int64) % 2
    p, q = sp.leaves[:m, :2].T  # p (.) q is generator k, and p^q column k
    table[:m] = np.diag(1 + iota_matrix(sp.g)[p, q]) % 2
    return table


def tr_as(sp: DerivationSpace, rows) -> np.ndarray:
    """tr_as of each coordinate row of a stack, as 0/1 rows over the pairs
    i < j: the rows mod 2 times the traces of D_2's basis, mod 2."""
    return safe_matmul(np.asarray(rows) % 2, _basis_traces(sp, "as")) % 2


# -- the A-side and B-side traces ------------------------------------------

@cached
def _side_table(sp: DerivationSpace, side: str) -> np.ndarray:
    """tr_A ("A") or tr_B ("B") as a read-only integer table over S^2 of
    the other side's letters, one row per generator: the S^2 classes of
    its contraction on those letters, negated for B.  Such an entry needs
    both uncontracted leaves off the side, so it comes only from
    contracting the tree's one side leaf h with an off-side leaf (two
    off-side leaves contract to 0): the trace omega(h, z) xy
    - omega(h, y) xz of h (x) [x, [y, z]], omega read from h, |J| on A and
    -|J| on B.  p (.) q has no single side leaf, so its row is 0."""
    off = ~sp.on_side(np.arange(sp.ctx.n), side)
    table = _classes(_contraction(sp)[:, off][:, :, off], 0).astype(np.int64)
    return table if side == "A" else -table


def tr_A(sp: DerivationSpace, rows) -> np.ndarray:
    """Integer rows over the S^2(H') basis {b'_i b'_j, i <= j}, one per
    coordinate row of a stack; a row outside the A-side filtration, the
    domain, raises."""
    if not sp.filtration("A").contains_rows(rows).all():
        raise FiltrationError("element is not in the A-side filtration")
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
    every generator's contractions, plus their transpose, by the unit
    symmetric form of the entry S_ij, i <= j in ``np.triu_indices`` order,
    on the B block; those of p (.) q, whose leaves (p, q, p, q) give twice
    its contraction, are halved."""
    g, col = sp.g, pair_columns(sp.g, 0)
    units = np.zeros((col.max() + 1, 2 * g, 2 * g), dtype=np.int8)
    units[:, g:, g:] = np.moveaxis(np.identity(len(units), np.int8)[col], 2, 0)
    table = _contract(sp, units)
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
    tr_A ("A") and tr_B ("B") on the side's filtration, the span of the
    generators with a leaf on the side; any other name raises.  One kernel
    of the traces of the domain's basis (``kernel_lattice``: mod 2 read
    from one GF(2) elimination of the trace columns, with no integer HNF)
    gives the kernel's coefficients over that basis, mapped back through
    it; Z^r's basis is the identity, so for tr_as they are the kernel, in
    HNF.  ker tr_as & ker tr_A is one kernel
    on tr_A's domain (``checks._double_kernel``)."""
    t = _traces_of(sp, which, ("as", "sym", "A", "B"))
    if which == "as":
        return kernel_lattice(t.T, mod2=True)
    if which == "sym":
        basis = sp.dprime2().basis
    else:
        basis = sp.filtration(which).basis
        t = safe_matmul(basis, t)
    coeffs = kernel_lattice(t.T, mod2=which == "sym")
    return IntegerLattice(sp.rank, safe_matmul(coeffs.basis, basis))


def _traces_of(sp: DerivationSpace, which: str, names) -> np.ndarray:
    """``_basis_traces`` of a trace among the names; any other name raises."""
    if which not in names:
        raise ValueError(f"{which!r} is not one of the traces {names}")
    return _basis_traces(sp, which)


def image_rank(sp: DerivationSpace, which: str) -> int:
    """GF(2) rank of the image of tr_as ("as") or tr_sym ("sym"): the count
    of the trace rows' reduced rows (``gf2_rank``)."""
    return len(gf2_rank(_traces_of(sp, which, ("as", "sym"))))


def image_in_omega_kernel(sp: DerivationSpace, which: str) -> bool:
    """Whether every trace row pairs evenly with the functional omega mod 2
    on S^2(H/2H) ("sym") or Lambda^2(H/2H) ("as"): J's entries at the
    pairs i <= j or i < j."""
    rows = _traces_of(sp, which, ("as", "sym"))
    k = 1 if which == "as" else 0
    func = iota_matrix(sp.g)[np.triu_indices(sp.ctx.n, k)][:, None]
    return not (safe_matmul(rows, func) % 2).any()
