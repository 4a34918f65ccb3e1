"""Derivation lattices D_2, D_2', generator coordinates, filtrations,
the kernel of killing A, and the GL(g, Z) block embedding among the
homology matrices of the Goeritz symmetries (the quarter turn is
``freelie.iota_matrix``; ``catalogs`` moves generator leaves and tripod
letters by them).  Every array method takes stacks, one row per element.

Generators of D_2(H) follow the tree/symmetric-half presentation: one
(.)-generator per basis pair P = (p,q), then one tree generator per
unordered pair of basis pairs P <= Q.  Their format is decided here alone:
every per-generator map reads the leaf table ``DerivationSpace.leaves``,
and ``generators`` only names them.  Their values in H (x) L_3 are the
H-tree expansion of that table, from letter indices (``trees.eta2_terms``),
with the rows of the (.)-generators halved.

D_2 itself, the bracket-map kernel, is the one degree-2 lattice held in
ambient H (x) L_3 coordinates.  The map is block-diagonal by the letter
multiset of a column, each block a genus-2 block with its letters renamed
in order, so its kernel's HNF basis is the genus-2 kernel's rows renamed
into every set of at most 4 letters and sorted by pivot
(``_bracket_kernel``); the map itself, read at the Lyndon words of length
4 (``bracket_word_matrix``), is only ever built at genus 2.  Every other
degree-2 element and lattice, D_2', the filtrations and the projection
kernel among them (a kernel of D_2's basis read at the coordinates that
killing A keeps), lives in Z^r, r = rank D_2, over D_2's HNF basis;
``gen_coords`` reads the generators there from sparse expansions, with no
dense ambient generator matrix, and every other degree-2 element given by
trees on basis letters enters as (row, generator, weight) triplets
(``gen_rows``).
The span of the generator columns, of all of them or of the tree
generators only (D_2'), and the transform rows that form its HNF basis
from them are one cached HNF (``generator_span``).  The generator
coefficients of a coordinate row are the row times the transform of all
generators, as their HNF is the identity (``d2`` checks it).  Sums of
generator columns, from (row, generator, weight) triplets (``gen_rows``),
and the ``gen_coords`` check product are formed by ``intlin``'s one sparse
product, over the nonzeros of both operands.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .freelie import context, pair_columns
from .intlin import (IntegerLattice, _assemble, _hnf_rows, cached,
                     kernel_lattice, narrowed, nonzeros, row_nonzeros,
                     scatter, sparse_terms)
from .trees import eta2_terms


class FiltrationError(ValueError):
    pass


class InconsistencyError(RuntimeError):
    pass


def gl_embed(g: int, p: np.ndarray) -> np.ndarray:
    """diag(P, (P^T)^{-1}) for P in GL(g, Z).  The HNF of [P | I] is
    [UP | U], U unimodular, and its left block is I, as [I | P^{-1}] is in
    HNF, exactly when P is unimodular (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4)."""
    h = IntegerLattice(2 * g, np.hstack([p, np.eye(g, dtype=np.int64)])).basis
    if not np.array_equal(h[:, :g], np.eye(g)):
        raise ValueError("matrix is not in GL(g, Z)")
    m = np.zeros((2 * g, 2 * g), dtype=np.int64)
    m[:g, :g] = p
    m[g:, g:] = h[:, g:].T
    return m


def _summed(keys, vals):
    """Sparse triplets with equal keys summed and zero sums dropped: the
    keys in order and their values."""
    keys, at = np.unique(keys, return_inverse=True)
    out = np.zeros(len(keys), dtype=vals.dtype)
    np.add.at(out, at, vals)
    nonzero = out != 0
    return keys[nonzero], out[nonzero]


class DerivationSpace:
    """All degree-2 lattice data for one genus (built lazily)."""

    def __init__(self, genus: int):
        if genus < 2:
            raise ValueError("genus must be >= 2")
        self.g = genus
        self.ctx = context(genus)
        n = self.ctx.n
        self.pairs: list[tuple[int, int]] = list(itertools.combinations(range(n), 2))
        pairs = np.array(self.pairs)
        m = len(pairs)
        # the index of basis pair {p, q} at [p, q] and at [q, p], read-only
        self.pair_index = self.ctx.pair_index()
        i, j = np.triu_indices(m)  # the order of the tree generators
        self.generators: list[tuple] = (
            [("odot", p) for p in self.pairs]
            + [("tree", self.pairs[a], self.pairs[b]) for a, b in zip(i, j)])
        self.tree_indices = list(range(m, len(self.generators)))
        # the leaf table: the letters (a, b, c, d) of every generator, one
        # row each, p (.) q read as (p, q, p, q) and tree(P, Q) as P + Q
        self.leaves = np.vstack([np.hstack([pairs, pairs]),
                                 np.hstack([pairs[i], pairs[j]])])
        self.leaves.setflags(write=False)
        self.ambient_dim = n * self.ctx.dim(3)

    # -- main lattices ----------------------------------------------------
    @cached
    def _bracket_kernel(self) -> IntegerLattice:
        """The kernel of the bracket map: the rows of the genus-2 kernel
        whose letters are exactly 0..k-1, the templates, each renamed by
        every increasing map of 0..k-1 into the letters, sorted by pivot.

        The map keeps each column's letter multiset, its content, so it is
        block-diagonal by content, and its kernel's HNF is the union of the
        blocks' HNFs sorted by pivot: blocks have disjoint supports.  An
        increasing renaming maps Lyndon words to Lyndon words and commutes
        with standard bracketing (Reutenauer, Free Lie Algebras, ch. 5), so
        it maps the block of a content over 0..k-1 onto the block of the
        renamed content; it keeps the order of the columns (x, w_1, w_2,
        w_3), as ``lyndon(3)`` is sorted, so it maps HNF rows to HNF rows.
        A content has at most 4 letters, so every block is a renamed
        genus-2 block, once."""
        small, n, d = context(2), self.ctx.n, self.ctx.dim(3)
        kernel = kernel_lattice(small.bracket_word_matrix()).basis
        # its nonzeros row by row, and their letters (x, w_1, w_2, w_3),
        # which every nonzero of a row shares
        row, col = nonzeros(kernel)
        val = kernel[row, col]
        x, i = np.divmod(col, small.dim(3))
        letters = np.column_stack([x, np.array(small.lyndon(3))[i]])
        ordered = np.sort(letters, axis=1)
        size = ordered[:, -1] + 1  # k, when the letters are 0..k-1
        template = (np.diff(ordered, axis=1) != 0).sum(axis=1) + 1 == size
        base = n ** np.arange(2, -1, -1)
        place = np.zeros(n ** 3, dtype=np.intp)  # word code -> Lyndon index
        place[np.array(self.ctx.lyndon(3)) @ base] = np.arange(d)
        cols, vals, pivots = [], [], []
        for k in range(2, 5):
            sel = template & (size == k)
            at = np.searchsorted(row[sel], row[sel])  # its row's first nonzero
            named = np.array(list(itertools.combinations(range(n), k)))[
                :, letters[sel]]
            new = named[..., 0] * d + place[named[..., 1:] @ base]
            cols.append(new.ravel())
            vals.append(np.broadcast_to(val[sel], new.shape).ravel())
            pivots.append(new[:, at].ravel())
        # the row of a nonzero is the place of its pivot among the pivots
        heads, rows = np.unique(np.concatenate(pivots), return_inverse=True)
        basis = np.zeros((len(heads), self.ambient_dim), dtype=kernel.dtype)
        basis[rows, np.concatenate(cols)] = np.concatenate(vals)
        return IntegerLattice(self.ambient_dim, basis, canonical=True)

    def _expansions(self):
        """The generators in H (x) L_3, sparsely: keys generator *
        ambient_dim + column of their nonzeros, in order, and the values.
        They are eta2 of the leaf table, each term a signed row of
        ``letter_bracket_table`` in one block (``trees.eta2_terms``), with
        the rows of the (.)-generators halved: eta2(p, q | p, q) is twice
        its first two terms, which are p (.) q."""
        ctx, ambient = self.ctx, self.ambient_dim
        table = ctx.letter_bracket_table()
        keys, vals = [], []
        for x, y, word, sign in eta2_terms(ctx, *self.leaves.T):
            block = table[y, word]
            gen, col = nonzeros(block)
            keys.append(gen * ambient + x[gen] * ctx.dim(3) + col)
            vals.append(sign[gen] * block[gen, col].astype(np.int64))
        keys, vals = _summed(np.concatenate(keys), np.concatenate(vals))
        vals[keys < len(self.pairs) * ambient] //= 2
        return keys, vals

    @cached
    def gen_coords(self) -> np.ndarray:
        """Generator values in D_2 coordinates as ``narrowed`` columns (r x
        generators): every pivot of D_2's HNF basis is 1, so they are the
        expansions' entries at the pivot columns.  Exact by the check
        product of coordinates and basis, its terms over the nonzeros of
        both (``intlin.sparse_terms``) summed, which must equal every
        expansion entry by entry."""
        ker = self._bracket_kernel()
        r, ambient = ker.basis.shape
        keys, vals = self._expansions()
        gen, col = np.divmod(keys, ambient)
        coord = np.full(ambient, -1)  # the coordinate read at a column
        coord[ker._pivots] = np.arange(r)
        at = coord[col] >= 0
        cg, cj, cval = gen[at], coord[col[at]], vals[at]
        pg, pcol, pval = sparse_terms(cg, cj, cval, row_nonzeros(ker.basis))
        pkeys, pvals = _summed(pg * ambient + pcol, pval)
        if not (np.array_equal(pkeys, keys) and np.array_equal(pvals, vals)):
            raise InconsistencyError(
                "a generator is outside the bracket-map kernel")
        c = np.zeros((len(self.leaves), r), dtype=narrowed(cval).dtype)
        c[cg, cj] = cval
        return c.T

    @property
    def rank(self) -> int:
        """r = rank D_2, the width of every coordinate row."""
        return self.d2().rank

    # -- rows as sums of generator columns --------------------------------
    @cached
    def pair_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Generator indices over pairs (P, Q) of basis pairs: ``tree`` holds
        tree(P, Q) at [P, Q] and at [Q, P]; ``half`` holds odot(P), which is
        generator P, at [P, P] and tree(P, Q) above the diagonal.  Both are
        read-only."""
        m = len(self.pairs)
        tree = m + pair_columns(m, 0)  # in the order of the tree generators
        return tree, np.triu(tree, 1) + np.diag(np.arange(m))

    @cached
    def _gen_columns(self):
        """The nonzeros of the generator columns, generator by generator
        (``intlin.row_nonzeros``), read-only."""
        return row_nonzeros(self.gen_coords().T)

    def gen_rows(self, nrows: int, row, gen, weight) -> np.ndarray:
        """Coordinate rows i < nrows, each the sum of weight_t times
        generator column gen_t of ``gen_coords`` over the triplets t with
        row_t = i: the triplets' terms over the nonzeros of the columns
        (``intlin.sparse_terms``), scattered."""
        return scatter((nrows, self.rank),
                       *sparse_terms(row, gen, weight, self._gen_columns()))

    @cached
    def d2(self) -> IntegerLattice:
        """The kernel of the bracket map H (x) L_3 -> L_4, checked to be the
        span of the generators: their coordinates span all of Z^r, as the
        HNF basis of their span is the r x r identity, r ones on the
        diagonal and no other nonzero."""
        ker = self._bracket_kernel()
        span = self.generator_span(False)[0].basis
        if not (span.shape == (ker.rank, ker.rank)
                and np.count_nonzero(span) == ker.rank
                and (np.diagonal(span) == 1).all()):
            raise InconsistencyError(
                "generator span differs from the bracket-map kernel")
        return ker

    def d2_rank_by_count(self) -> int:
        """Independent rank count: pairs-of-pairs minus the quartic piece."""
        n = 2 * self.g
        npairs = math.comb(n, 2)
        return math.comb(npairs + 1, 2) - math.comb(n, 4)

    def dprime2(self) -> IntegerLattice:
        """D_2', the span of the tree generators, in Z^r."""
        return self.generator_span(True)[0]

    # -- the spans of the generator columns -------------------------------
    @cached
    def generator_span(self, trees: bool) -> tuple[IntegerLattice, np.ndarray]:
        """The span in Z^r of the generator columns, of the tree generators
        only if ``trees``, and the transform rows that form its HNF basis
        from them (row i the coefficients of basis row i over those
        generators): the HNF loop's rank rows alone, not the dense [h | u]."""
        cols = self.gen_coords()
        if trees:
            cols = cols[:, self.tree_indices]
        rows, rank = _hnf_rows(cols.T, transform=True)
        h, u = np.hsplit(_assemble(rows[:rank], sum(cols.shape)), [len(cols)])
        return IntegerLattice(len(cols), h, canonical=True), u

    # -- filtration by A-leaves (or B-leaves) ------------------------------
    def on_side(self, letters, side: str) -> np.ndarray:
        """Whether each letter of an array is on the side, "A" or "B", as
        ``SymplecticContext.kill_letters`` names it; any other side raises."""
        return np.isin(letters, self.ctx.kill_letters(side))

    @cached
    def filtration(self, side: str) -> IntegerLattice:
        """The span in Z^r of the generators with a leaf on the side."""
        cols = np.flatnonzero(self.on_side(self.leaves, side).any(axis=1))
        return IntegerLattice(self.rank, self.gen_coords()[:, cols].T)

    # -- the kernel of killing A ------------------------------------------
    @cached
    def ker_projection(self) -> IntegerLattice:
        """Kernel of D_2(H) -> D_2(H/A) in Z^r.  Killing A selects the
        ambient coordinates h (x) w with h on B and w a Lyndon word with no
        A-letter (``SymplecticContext.avoiding``), so this is the kernel of
        D_2's basis read at those columns."""
        on_b = self.on_side(np.arange(self.ctx.n), "B")
        keep = np.outer(on_b, self.ctx.avoiding("A")).ravel()
        return kernel_lattice(self.d2().basis[:, keep].T)


@cached
def space(genus: int) -> DerivationSpace:
    return DerivationSpace(genus)
