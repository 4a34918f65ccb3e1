"""Colored tree diagrams and their expansions into symplectic derivations.

Degree-1 trees are tripods (u,v,w); degree-2 trees are H-shaped with an
ordered left pair and right pair; symmetric halves u (.) v are primitive
integral generators whose double expands like the tree (u,v|u,v).

These expansions are the definitions, through Lie brackets.  The generators
are read term by term from a bracket table instead
(``DerivationSpace._expansions``), and the catalogs, whose rows are sums of
generator columns, from wedge coordinates (``catalogs._tree_terms``).

Elements of H (x) L_k are flat integer vectors: block h holds the Lyndon
coordinates of the L_k factor tensored with the basis letter h.  Every
expansion takes equal stacks of leaf vectors and gives one row per
element; a single element is a one-row stack.
"""

from __future__ import annotations

import numpy as np

from .freelie import SymplecticContext, standard_factorization
from .intlin import safe_einsum

# in the bracket of tripods (x1,x2,x3) and (y1,y2,y3), contracting leaf i
# against leaf j leaves the ordered pairs (x_{i+1},x_{i+2}) and
# (y_{j+1},y_{j+2}); the overall sign below makes the sum of the eta2 of
# every contraction agree with the derivation bracket d1 d2 - d2 d1
# (pinned by tests against derivation_bracket)
TREE_BRACKET_SIGN = 1


def _hl_sum(terms) -> np.ndarray:
    """Flat H (x) L_k rows of sum_t vec_t (x) lie_t: one exact contraction
    over the stacked terms (int64 under its bound, else Python ints)."""
    vecs = np.stack([v for v, _ in terms], axis=1)
    lies = np.stack([l for _, l in terms], axis=1)
    out = safe_einsum("mth,mtd->mhd", vecs, lies)
    return out.reshape(len(out), vecs.shape[2] * lies.shape[2])


def eta1(ctx: SymplecticContext, u, v, w) -> np.ndarray:
    """Tripod expansion in H (x) L_2, one row per row of the leaf stacks;
    the cherry (x,y) reads as [y,x]."""
    # a (x) [c,b] for the cyclic rotations (a,b,c) of (u,v,w)
    return _hl_sum([(a, ctx.lie_bracket(1, c, 1, b))
                    for a, b, c in ((u, v, w), (v, w, u), (w, u, v))])


def eta2(ctx: SymplecticContext, a, b, c, d) -> np.ndarray:
    """H-tree expansion a(x)[b,[c,d]] + b(x)[[c,d],a] + c(x)[d,[a,b]] + d(x)[[a,b],c],
    one row per row of the leaf stacks."""
    cd = ctx.lie_bracket(1, c, 1, d)
    ab = ctx.lie_bracket(1, a, 1, b)
    return _hl_sum([(a, ctx.lie_bracket(1, b, 2, cd)),
                    (b, ctx.lie_bracket(2, cd, 1, a)),
                    (c, ctx.lie_bracket(1, d, 2, ab)),
                    (d, ctx.lie_bracket(2, ab, 1, c))])


# -- honest derivation-algebra oracle ------------------------------------

def derivation_letter_images(ctx: SymplecticContext, k: int,
                             elem: np.ndarray) -> np.ndarray:
    """Columns: value on each basis letter, for the derivation of x (x) xi
    acting as h -> omega(x, h) xi.  Shape (dim L_{k+1}, 2g)."""
    d = ctx.dim(k + 1)
    cols = np.zeros((d, ctx.n), dtype=np.int64)
    g = ctx.g
    for h in range(ctx.n):
        block = elem[h * d:(h + 1) * d]
        # omega(e_h, e_m) is +1 at m = h+g (h < g) and -1 at m = h-g
        if h < g:
            cols[:, h + g] += block
        else:
            cols[:, h - g] -= block
    return cols


def derivation_on_lyndon(ctx: SymplecticContext, letter_images: np.ndarray,
                         k: int, j: int) -> np.ndarray:
    """Extend a derivation with the given letter images (L_1 -> L_{k+1})
    to L_j -> L_{j+k} by Leibniz over standard bracketings."""
    cache: dict[tuple[int, ...], np.ndarray] = {}

    def d_word(w):
        """The image of the bracketing of w, as a one-row stack."""
        if w in cache:
            return cache[w]
        if len(w) == 1:
            val = letter_images[:, w[0]][None]
        else:
            u, v = standard_factorization(w)
            pu = ctx.tensor_to_lyndon(len(u), ctx.bracketing_tensor(u))[None]
            pv = ctx.tensor_to_lyndon(len(v), ctx.bracketing_tensor(v))[None]
            val = ctx.lie_bracket(len(u) + k, d_word(u), len(v), pv) \
                + ctx.lie_bracket(len(u), pu, len(v) + k, d_word(v))
        cache[w] = val
        return val

    mat = np.zeros((ctx.dim(j + k), ctx.dim(j)), dtype=np.int64)
    for i, w in enumerate(ctx.lyndon(j)):
        mat[:, i] = d_word(w)[0]
    return mat


def derivation_bracket(ctx: SymplecticContext, e1: np.ndarray,
                       e2: np.ndarray) -> np.ndarray:
    """[d1, d2] of two degree-1 elements of H (x) L_2, as H (x) L_3."""
    li1 = derivation_letter_images(ctx, 1, e1)
    li2 = derivation_letter_images(ctx, 1, e2)
    ext1 = derivation_on_lyndon(ctx, li1, 1, 2)
    ext2 = derivation_on_lyndon(ctx, li2, 1, 2)
    comm = ext1 @ li2 - ext2 @ li1  # letter -> L_3
    # invert h -> omega(x, h) xi : coefficients eta with D(a_i) = -eta_{b_i},
    # D(b_i) = eta_{a_i}
    g, d = ctx.g, ctx.dim(3)
    out = np.zeros(ctx.n * d, dtype=np.int64)
    for i in range(g):
        out[i * d:(i + 1) * d] = comm[:, g + i]
        out[(g + i) * d:(g + i + 1) * d] = -comm[:, i]
    return out
