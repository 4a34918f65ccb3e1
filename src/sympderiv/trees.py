"""Colored tree diagrams and their expansions into symplectic derivations.

Degree-1 trees are tripods (u,v,w); degree-2 trees are H-shaped with an
ordered left pair and right pair; symmetric halves u (.) v are primitive
integral generators whose double expands like the tree (u,v|u,v).

Elements of H (x) L_k are flat integer vectors: block h holds the Lyndon
coordinates of the L_k factor tensored with the basis letter h.
"""

from __future__ import annotations

import numpy as np

from .freelie import SymplecticContext, standard_factorization

# in a tripod (x1,x2,x3), contracting leaf i against leaf j of (y1,y2,y3)
# leaves the ordered pairs (x_{i+1},x_{i+2}) and (y_{j+1},y_{j+2}); the
# overall sign below makes eta2 of the result agree with the derivation
# bracket d1 d2 - d2 d1 (pinned by tests against derivation_bracket)
TREE_BRACKET_SIGN = 1


def hl_zero(ctx: SymplecticContext, k: int) -> np.ndarray:
    return np.zeros(ctx.n * ctx.dim(k), dtype=np.int64)


def hl_add_term(ctx: SymplecticContext, k: int, out: np.ndarray,
                vec, lie_coords, scale: int = 1) -> None:
    """Add vec (x) xi into a flat H (x) L_k vector."""
    d = ctx.dim(k)
    for h, c in enumerate(vec):
        if c:
            out[h * d:(h + 1) * d] += scale * c * lie_coords


def _deg1(ctx: SymplecticContext, vec) -> np.ndarray:
    return np.asarray(vec, dtype=np.int64)


def eta1(ctx: SymplecticContext, u, v, w) -> np.ndarray:
    """Tripod expansion in H (x) L_2; the cherry (x,y) reads as [y,x]."""
    out = hl_zero(ctx, 2)
    for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
        # a (x) [c,b]
        hl_add_term(ctx, 2, out, a,
                    ctx.lie_bracket(1, _deg1(ctx, c), 1, _deg1(ctx, b)))
    return out


def eta2(ctx: SymplecticContext, a, b, c, d) -> np.ndarray:
    """H-tree expansion a(x)[b,[c,d]] + b(x)[[c,d],a] + c(x)[d,[a,b]] + d(x)[[a,b],c]."""
    out = hl_zero(ctx, 3)
    cd = ctx.lie_bracket(1, _deg1(ctx, c), 1, _deg1(ctx, d))
    ab = ctx.lie_bracket(1, _deg1(ctx, a), 1, _deg1(ctx, b))
    hl_add_term(ctx, 3, out, a, ctx.lie_bracket(1, _deg1(ctx, b), 2, cd))
    hl_add_term(ctx, 3, out, b, ctx.lie_bracket(2, cd, 1, _deg1(ctx, a)))
    hl_add_term(ctx, 3, out, c, ctx.lie_bracket(1, _deg1(ctx, d), 2, ab))
    hl_add_term(ctx, 3, out, d, ctx.lie_bracket(2, ab, 1, _deg1(ctx, c)))
    return out


def expand_symhalf(ctx: SymplecticContext, u, v) -> np.ndarray:
    """u (.) v expands to u(x)[v,[u,v]] + v(x)[[u,v],u]; its double is eta2(u,v|u,v)."""
    out = hl_zero(ctx, 3)
    uv = ctx.lie_bracket(1, _deg1(ctx, u), 1, _deg1(ctx, v))
    hl_add_term(ctx, 3, out, u, ctx.lie_bracket(1, _deg1(ctx, v), 2, uv))
    hl_add_term(ctx, 3, out, v, ctx.lie_bracket(2, uv, 1, _deg1(ctx, u)))
    return out


def tree_bracket(ctx: SymplecticContext, s, t) -> np.ndarray:
    """Bracket of two tripods: all nine omega-contractions, in H (x) L_3.

    s and t are triples of H-vectors.  Equals the derivation bracket of the
    eta1 images (see derivation_bracket).
    """
    out = hl_zero(ctx, 3)
    for i in range(3):
        for j in range(3):
            w = ctx.omega(s[i], t[j])
            if w:
                out += TREE_BRACKET_SIGN * w * eta2(
                    ctx, s[(i + 1) % 3], s[(i + 2) % 3],
                    t[(j + 1) % 3], t[(j + 2) % 3])
    return out


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
        if w in cache:
            return cache[w]
        if len(w) == 1:
            val = letter_images[:, w[0]].copy()
        else:
            u, v = standard_factorization(w)
            pu = ctx.tensor_to_lyndon(len(u), ctx.bracketing_tensor(u))
            pv = ctx.tensor_to_lyndon(len(v), ctx.bracketing_tensor(v))
            val = ctx.lie_bracket(len(u) + k, d_word(u), len(v), pv) \
                + ctx.lie_bracket(len(u), pu, len(v) + k, d_word(v))
        cache[w] = val
        return val

    mat = np.zeros((ctx.dim(j + k), ctx.dim(j)), dtype=np.int64)
    for i, w in enumerate(ctx.lyndon(j)):
        mat[:, i] = d_word(w)
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
    out = hl_zero(ctx, 3)
    for i in range(g):
        out[i * d:(i + 1) * d] = comm[:, g + i]
        out[(g + i) * d:(g + i + 1) * d] = -comm[:, i]
    return out
