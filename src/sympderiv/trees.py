"""Colored tree diagrams and their expansions into symplectic derivations.

Degree-1 trees are tripods (u,v,w); degree-2 trees are H-shaped with an
ordered left pair and right pair; symmetric halves u (.) v are primitive
integral generators whose double expands like the tree (u,v|u,v).

Leaves are basis letters, given as equal arrays of letter indices, one
entry per element.  A bracket of two letters is a signed Lyndon word of
L_2 (``SymplecticContext.pair_index``), so every term of an expansion is a
signed unit of L_2, for a tripod, or a signed row of
``SymplecticContext.letter_bracket_table``, for an H-tree (``eta2_terms``),
placed in the block of its outer letter.  The generators of D_2 are these
H-trees, summed sparsely (``DerivationSpace._expansions``); the catalogs,
whose rows are sums of generator columns, read wedge coordinates instead
(``catalogs._tree_terms``).

Elements of H (x) L_k are flat integer vectors: block h holds the Lyndon
coordinates of the L_k factor tensored with the basis letter h.
"""

from __future__ import annotations

import numpy as np

from .freelie import SymplecticContext, standard_factorization

# in the bracket of tripods (x1,x2,x3) and (y1,y2,y3), contracting leaf i
# against leaf j leaves the ordered pairs (x_{i+1},x_{i+2}) and
# (y_{j+1},y_{j+2}); the overall sign below makes the sum of the eta2 of
# every contraction agree with the derivation bracket d1 d2 - d2 d1
# (pinned by tests against derivation_bracket)
TREE_BRACKET_SIGN = 1


def _bracket(ctx: SymplecticContext, x, y):
    """[x, y] of two letter arrays as sign times a Lyndon word of L_2: the
    sign of y - x (0 where x == y), in int8, and the word's index."""
    return (np.sign(np.subtract(y, x)).astype(np.int8),
            ctx.pair_index()[x, y])


def eta1(ctx: SymplecticContext, u, v, w) -> np.ndarray:
    """Tripod expansion in H (x) L_2, one int8 row per entry of the letter
    arrays; the cherry (x,y) reads as [y,x].  Each of the three terms
    a (x) [c,b], for the cyclic rotations (a,b,c) of (u,v,w), is a signed
    unit, so every entry is at most 3 in absolute value."""
    out = np.zeros((len(u), ctx.n, ctx.dim(2)), dtype=np.int8)
    rows = np.arange(len(u))
    for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
        sign, word = _bracket(ctx, c, b)
        out[rows, a, word] += sign
    return out.reshape(len(u), ctx.n * ctx.dim(2))


def eta2_terms(ctx: SymplecticContext, a, b, c, d):
    """The four terms of the H-tree expansion a(x)[b,[c,d]] + b(x)[[c,d],a]
    + c(x)[d,[a,b]] + d(x)[[a,b],c] of letter arrays, each as (x, y, word,
    sign): sign times x (x) [y, w], w the Lyndon word at ``word``, which is
    sign times row [y, word] of ``SymplecticContext.letter_bracket_table``
    in block x."""
    cd_sign, cd = _bracket(ctx, c, d)
    ab_sign, ab = _bracket(ctx, a, b)
    return ((a, b, cd, cd_sign), (b, a, cd, -cd_sign),
            (c, d, ab, ab_sign), (d, c, ab, -ab_sign))


def eta2(ctx: SymplecticContext, a, b, c, d) -> np.ndarray:
    """H-tree expansion in H (x) L_3, one int8 row per entry of the letter
    arrays (``eta2_terms``).  An entry sums at most one entry of each
    term, each at most 1 in absolute value, so it is at most 4."""
    table = ctx.letter_bracket_table()
    out = np.zeros((len(a), ctx.n, ctx.dim(3)), dtype=np.int8)
    rows = np.arange(len(a))
    for x, y, word, sign in eta2_terms(ctx, a, b, c, d):
        out[rows, x] += sign[:, None] * table[y, word]
    return out.reshape(len(a), ctx.n * ctx.dim(3))


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
