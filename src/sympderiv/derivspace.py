"""Derivation lattices D_2, D_2', generator coordinates, filtrations,
quotient kernels, and the matrices of the symplectic homology action
(``catalogs._transform_rows`` applies them).

Generators of D_2(H) follow the tree/symmetric-half presentation: one
(.)-generator per basis pair P = (p,q), then one tree generator per
unordered pair of basis pairs P <= Q.  Their format is decided here alone:
every per-generator map reads the leaf table ``DerivationSpace.leaves``,
and ``generators`` only names them.  Arbitrary elements live in ambient
H (x) L_3 coordinates; generator coefficients are recovered by an HNF
solve, and sums of generator columns are scattered from (row, generator,
weight) triplets by ``gen_rows``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import trees
from .freelie import SymplecticContext, context, standard_factorization
from .intlin import (IntegerLattice, as_int_matrix, fits_int64,
                     hermite_normal_form, kernel_lattice, safe_matmul)


class MembershipError(ValueError):
    pass


class FiltrationError(ValueError):
    pass


class InconsistencyError(RuntimeError):
    pass


def iota_matrix(g: int) -> np.ndarray:
    """a_i -> -b_i, b_i -> a_i; also the Gram matrix J of omega."""
    m = np.zeros((2 * g, 2 * g), dtype=np.int64)
    m[:g, g:] = np.eye(g, dtype=np.int64)
    m[g:, :g] = -np.eye(g, dtype=np.int64)
    return m


def gl_embed(g: int, p: np.ndarray) -> np.ndarray:
    """diag(P, (P^T)^{-1}) for P in GL(g, Z)."""
    # P is unimodular iff its HNF is the identity, and then u = P^{-1}.
    h, u = hermite_normal_form(p, transform=True)
    if not np.array_equal(h, np.eye(g, dtype=np.int64)):
        raise ValueError("matrix is not in GL(g, Z)")
    m = np.zeros((2 * g, 2 * g), dtype=np.int64)
    m[:g, :g] = p
    m[g:, g:] = u.T
    return m


def lie_degree_matrix(ctx: SymplecticContext, m: np.ndarray, k: int) -> np.ndarray:
    """Matrix of L_k(m) over the Lyndon basis.

    Degree by degree, the image of each Lyndon word w = uv (standard
    factorization) is the bracket of the images of u and v; the words of
    one degree that split into the same pair of lengths share one batched
    bracket."""
    images = {1: as_int_matrix(m).T}  # degree -> rows L_d(m) e_w
    for d in range(2, k + 1):
        rows = [None] * ctx.dim(d)
        split: dict[tuple[int, int], list] = {}
        for i, w in enumerate(ctx.lyndon(d)):
            u, v = standard_factorization(w)
            split.setdefault((len(u), len(v)), []).append(
                (i, ctx.lyndon_index(len(u))[u], ctx.lyndon_index(len(v))[v]))
        for (lu, lv), group in split.items():
            at, iu, iv = (list(c) for c in zip(*group))
            brackets = ctx.lie_bracket(lu, images[lu][iu], lv, images[lv][iv])
            for i, row in zip(at, brackets):
                rows[i] = row
        images[d] = np.array(rows)
    return images[k].T


def runs(start, count):
    """The positions start_i + k, k < count_i, of every run i in order, and
    the run of each."""
    owner = np.repeat(np.arange(len(count)), count)
    first = (np.cumsum(count) - count)[owner]
    return owner, start[owner] + np.arange(len(owner)) - first


class _GenSolver:
    """Solve integer systems x @ rows = v once the HNF is precomputed: the
    coefficients over the HNF rows, times the transform rows that form them."""

    def __init__(self, rows: np.ndarray):
        h, u = hermite_normal_form(rows, transform=True)
        mask = (h != 0).any(axis=1)
        self.span = IntegerLattice(h.shape[1], h[mask], canonical=True)
        self.trans = u[mask]

    def solve(self, v):
        """Coefficients of one vector, or of each row of a stack, or None."""
        c = self.span.membership(v)
        return None if c is None else safe_matmul(c, self.trans)


class DerivationSpace:
    """All degree-2 lattice data for one genus (built lazily)."""

    def __init__(self, genus: int):
        if genus < 2:
            raise ValueError("genus must be >= 2")
        self.g = genus
        self.ctx = context(genus)
        n = self.ctx.n
        self.pairs: list[tuple[int, int]] = list(itertools.combinations(range(n), 2))
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        m = len(self.pairs)
        i, j = np.triu_indices(m)  # the order of the tree generators
        self.generators: list[tuple] = (
            [("odot", p) for p in self.pairs]
            + [("tree", self.pairs[a], self.pairs[b]) for a, b in zip(i, j)])
        self.tree_indices = list(range(m, len(self.generators)))
        # the leaf table: the letters (a, b, c, d) of every generator, one
        # row each, p (.) q read as (p, q, p, q) and tree(P, Q) as P + Q
        pairs = np.array(self.pairs)
        self.leaves = np.vstack([np.hstack([pairs, pairs]),
                                 np.hstack([pairs[i], pairs[j]])])
        self.leaves.setflags(write=False)
        self.ambient_dim = n * self.ctx.dim(3)

    # -- main lattices ----------------------------------------------------
    @lru_cache(maxsize=None)
    def gen_matrix(self) -> np.ndarray:
        """Generator values as columns: the (.)-generators, then the trees,
        each kind expanded as one stack from its leaves."""
        m = len(self.pairs)
        a, b, c, d = np.eye(self.ctx.n, dtype=np.int64)[self.leaves.T]
        rows = np.vstack([trees.expand_symhalf(self.ctx, a[:m], b[:m]),
                          trees.eta2(self.ctx, a[m:], b[m:], c[m:], d[m:])])
        return rows.astype(np.int64).T

    # -- rows as sums of generator columns --------------------------------
    @lru_cache(maxsize=None)
    def pair_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Generator indices over pairs (P, Q) of basis pairs: ``tree`` holds
        tree(P, Q) at [P, Q] and at [Q, P]; ``half`` holds odot(P), which is
        generator P, at [P, P] and tree(P, Q) above the diagonal."""
        m = len(self.pairs)
        tree = np.zeros((m, m), dtype=np.intp)
        i, j = np.triu_indices(m)  # the order of the tree generators
        tree[i, j] = tree[j, i] = m + np.arange(len(i))
        return tree, np.triu(tree, 1) + np.diag(np.arange(m))

    @lru_cache(maxsize=None)
    def _gen_columns(self):
        """The nonzeros of the generator columns, generator by generator:
        where each generator's run starts, and the positions and values."""
        cols = self.gen_matrix().T
        gen, pos = np.nonzero(cols)
        start = np.searchsorted(gen, np.arange(len(cols) + 1))
        return start, pos, cols[gen, pos]

    def gen_rows(self, nrows: int, row, gen, weight) -> np.ndarray:
        """Rows r < nrows, each the sum of weight_t times generator column
        gen_t over the triplets t with row_t = r, scattered over the nonzeros
        of the columns.  In int64 when the most triplets of one row, times
        max|weight| times max|gen_matrix()|, is under 2**62, else on Python
        ints."""
        start, pos, val = self._gen_columns()
        per_row = int(np.bincount(row, minlength=1).max())
        bound = (per_row * int(np.abs(weight).max(initial=0))
                 * int(np.abs(val).max()))
        dtype = np.int64 if fits_int64(bound) else object
        # each triplet once per nonzero of its column
        t, at = runs(start[gen], start[gen + 1] - start[gen])
        out = np.zeros(nrows * self.ambient_dim, dtype=dtype)
        np.add.at(out, row[t] * self.ambient_dim + pos[at],
                  weight.astype(dtype)[t] * val[at])
        return out.reshape(nrows, self.ambient_dim)

    @lru_cache(maxsize=None)
    def d2(self) -> IntegerLattice:
        ker = kernel_lattice(self.ctx.bracket_matrix(2))
        if self._full_solver().span != ker:
            raise InconsistencyError(
                "generator span differs from the bracket-map kernel")
        return ker

    def d2_rank_by_count(self) -> int:
        """Independent rank count: pairs-of-pairs minus the quartic piece."""
        n = 2 * self.g
        npairs = math.comb(n, 2)
        return math.comb(npairs + 1, 2) - math.comb(n, 4)

    def dprime2(self) -> IntegerLattice:
        return self._tree_solver().span

    # -- expressing elements over generators ------------------------------
    @lru_cache(maxsize=None)
    def _full_solver(self) -> _GenSolver:
        return _GenSolver(self.gen_matrix().T)

    @lru_cache(maxsize=None)
    def _tree_solver(self) -> _GenSolver:
        return _GenSolver(self.gen_matrix()[:, self.tree_indices].T)

    def express_in_generators(self, v) -> np.ndarray:
        """Coefficients over all generators of v, or of each row of a stack."""
        c = self._full_solver().solve(v)
        if c is None:
            raise MembershipError("element is not in D_2")
        return c

    def express_in_tree_generators(self, v) -> np.ndarray:
        """Coefficients over tree generators only; requires v (every row of
        a stack) in D_2'."""
        c = self._tree_solver().solve(v)
        if c is None:
            raise MembershipError("element is not in the tree sublattice D_2'")
        return c

    # -- filtration by A-leaves (or B-leaves) ------------------------------
    @lru_cache(maxsize=None)
    def filtration(self, level: int, side: str = "A") -> IntegerLattice:
        if not -1 <= level <= 3:
            raise ValueError("filtration level must be in -1..3")
        if level == -1:
            return self.d2()
        on_a = self.leaves < self.g
        on_side = on_a if side == "A" else ~on_a
        cols = np.flatnonzero(on_side.sum(axis=1) >= level + 1)
        return IntegerLattice(self.ambient_dim, self.gen_matrix()[:, cols].T)

    # -- kernels of quotient coordinate maps ------------------------------
    def quotient_map_matrix(self, killed: str) -> np.ndarray:
        """Matrix of the coordinate map H (x) L_3(H) -> H_q (x) L_3(H_q)
        induced by killing one Lagrangian; its kernel on D_2 is the kernel
        of D_2(H) -> D_2(H_q)."""
        ctx = self.ctx
        g = ctx.g
        d3 = ctx.dim(3)
        proj = ctx.lyndon_projection_matrix(3, killed)
        qd3 = proj.shape[0]
        survivors = [h for h in range(ctx.n) if h not in ctx.kill_letters(killed)]
        out = np.zeros((g * qd3, ctx.n * d3), dtype=np.int64)
        for qi, h in enumerate(survivors):
            out[qi * qd3:(qi + 1) * qd3, h * d3:(h + 1) * d3] = proj
        return out

    @lru_cache(maxsize=None)
    def ker_projection(self, killed: str = "A") -> IntegerLattice:
        """Kernel of D_2(H) -> D_2(H/killed) as a sublattice of D_2."""
        basis = self.d2().basis
        m = self.quotient_map_matrix(killed)
        coeff = kernel_lattice(safe_matmul(m, basis.T))
        vecs = safe_matmul(coeff.basis, basis) if coeff.rank else None
        return IntegerLattice(self.ambient_dim, vecs)


@lru_cache(maxsize=None)
def space(genus: int) -> DerivationSpace:
    return DerivationSpace(genus)
