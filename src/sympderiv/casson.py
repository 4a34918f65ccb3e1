"""Formal linking algebra and the Casson-difference machinery.

Polynomials live in variables l_{pq} = l(e_p, e_q) for ordered basis pairs
p <= q; the relation l(v,u) = l(u,v) + omega(u,v) is applied eagerly, so
equality of polynomials is equality of dicts.  Evaluations substitute a
linking matrix; the base form is [[0,0],[Id,0]] and the form twisted by a
symmetric S is [[0,0],[Id,S]].  The theta polynomial of every generator is
tabulated once per genus, so q-bar and mu are exact products with that
table, mu at every matrix of a stack of S at once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .derivspace import DerivationSpace
from .freelie import SymplecticContext
from .intlin import safe_einsum, safe_matmul
from .traces import tr_omegaS

# mu(v, S) := eps_base(theta(v)) - eps_twisted(theta(v)); this sign makes
# (1/2 omega_S + omega_delta) o tr_omegaS = mu(-, S) hold on the nose
# (verified exactly in the acceptance suite)
MU_SIGN = 1

Poly = dict  # monomial (sorted tuple of (p,q) vars) -> int coefficient


def poly_const(c: int) -> Poly:
    return {(): c} if c else {}


def poly_add(p: Poly, q: Poly, scale: int = 1) -> Poly:
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, 0) + scale * c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            nc = out.get(m, 0) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def l_symbol(ctx: SymplecticContext, u, v) -> Poly:
    """Bilinear expansion of l(u, v) into normal form."""
    out: Poly = {}
    for p, cu in enumerate(u):
        if not cu:
            continue
        for q, cv in enumerate(v):
            if not cv:
                continue
            c = int(cu) * int(cv)
            if p <= q:
                out = poly_add(out, {((p, q),): c})
            else:
                # l(e_p, e_q) = l(e_q, e_p) + omega(e_q, e_p)
                out = poly_add(out, {((q, p),): c})
                w = ctx.omega_letters(q, p)
                if w:
                    out = poly_add(out, poly_const(w * c))
    return out


def theta_tree(ctx, a, b, c, d) -> Poly:
    l = lambda x, y: l_symbol(ctx, x, y)
    out = poly_mul(l(a, c), l(b, d))
    out = poly_add(out, poly_mul(l(a, d), l(b, c)), -1)
    out = poly_add(out, poly_mul(l(d, a), l(c, b)), -1)
    return poly_add(out, poly_mul(l(c, a), l(d, b)))


def theta_odot(ctx, u, v) -> Poly:
    out = poly_mul(l_symbol(ctx, u, u), l_symbol(ctx, v, v))
    return poly_add(out, poly_mul(l_symbol(ctx, u, v), l_symbol(ctx, v, u)), -1)


def dbar_tree(ctx, a, b, c, d) -> int:
    w = ctx.omega
    return w(a, b) * w(c, d) - w(a, c) * w(b, d) + w(a, d) * w(b, c)


def theta_gen(sp: DerivationSpace, gen) -> Poly:
    e = sp.ctx.basis_vector
    if gen[0] == "odot":
        p, q = gen[1]
        return theta_odot(sp.ctx, e(p), e(q))
    (p, q), (r, s) = gen[1], gen[2]
    return theta_tree(sp.ctx, e(p), e(q), e(r), e(s))


def dbar_gen(sp: DerivationSpace, gen) -> int:
    if gen[0] == "odot":
        return 0
    e = sp.ctx.basis_vector
    (p, q), (r, s) = gen[1], gen[2]
    return dbar_tree(sp.ctx, e(p), e(q), e(r), e(s))


# -- linking forms and evaluations -----------------------------------------

@lru_cache(maxsize=None)
def lk_base(g: int) -> np.ndarray:
    """The base linking matrix [[0,0],[Id,0]] (read-only, one per genus)."""
    m = np.zeros((2 * g, 2 * g), dtype=np.int64)
    m[g:, :g] = np.eye(g, dtype=np.int64)
    m.setflags(write=False)
    return m


def lk_twisted(g: int, s) -> np.ndarray:
    """The twisted linking matrix [[0,0],[Id,S]], or one per matrix of a
    stack of symmetric S."""
    s = np.asarray(s, dtype=np.int64)
    if not np.array_equal(s, np.swapaxes(s, -1, -2)):
        raise ValueError("S must be symmetric")
    m = np.broadcast_to(lk_base(g), s.shape[:-2] + (2 * g, 2 * g)).copy()
    m[..., g:, g:] = s
    return m


# -- the derived maps -------------------------------------------------------

@lru_cache(maxsize=None)
def _theta_table(sp: DerivationSpace):
    """theta of every generator over the l-monomials, as a (generators x
    monomials) integer matrix, with each monomial's variables as two
    indices into a flattened linking matrix extended by a 1 (a monomial
    of theta has at most two variables; a missing one reads the 1)."""
    polys = [theta_gen(sp, gen) for gen in sp.generators]
    monos = sorted({m for p in polys for m in p})
    col = {m: i for i, m in enumerate(monos)}
    table = np.zeros((len(polys), len(monos)), dtype=np.int64)
    for i, p in enumerate(polys):
        for m, c in p.items():
            table[i, col[m]] = c
    n = sp.ctx.n
    slots = np.full((len(monos), 2), n * n)
    for i, m in enumerate(monos):
        for j, (p, q) in enumerate(m):
            slots[i, j] = p * n + q
    return table, slots


def _eps_monomials(slots: np.ndarray, lk: np.ndarray) -> np.ndarray:
    """Value of every tabulated monomial at the linking matrix lk, or one
    row of values per matrix of a stack."""
    flat = lk.reshape(lk.shape[:-2] + (-1,))
    flat = np.concatenate([flat, np.ones(flat.shape[:-1] + (1,), flat.dtype)],
                          axis=-1)
    if int(np.abs(flat).max()) >= 2 ** 31:
        flat = flat.astype(object)
    return flat[..., slots[:, 0]] * flat[..., slots[:, 1]]


@lru_cache(maxsize=None)
def _thrice_qbar_column(sp: DerivationSpace) -> np.ndarray:
    """3 qbar of every generator: 3 eps_j(theta), read from the theta table
    at the base linking matrix, plus dbar."""
    table, slots = _theta_table(sp)
    eps = safe_matmul(table, _eps_monomials(slots, lk_base(sp.g))[:, None])
    dbar = np.array([dbar_gen(sp, gen) for gen in sp.generators])
    return 3 * eps[:, 0] + dbar


def qbar_of_coeffs(sp: DerivationSpace, coeffs):
    """eps_j(theta) + (1/3) dbar on a generator expression: a Fraction for
    one row of coefficients, a list of them for a stack."""
    thrice = safe_matmul(coeffs, _thrice_qbar_column(sp)[:, None])[..., 0]
    if thrice.ndim == 0:
        return Fraction(int(thrice), 3)
    return [Fraction(int(x), 3) for x in thrice]


def _per_s(out: np.ndarray, s: np.ndarray):
    """A result with one column per matrix of a stack of S, its last axis,
    back to the caller's shape: that axis dropped for a single S, and an
    int for a single row."""
    if s.ndim == 2:
        out = out[..., 0]
    return int(out) if out.ndim == 0 else out


def mu_of_coeffs(sp: DerivationSpace, coeffs, s):
    """Casson-difference value against the symmetric matrix S of the
    element with the given generator coefficients, of shape
    coeffs.shape[:-1] + s.shape[:-2]: an int for one row and one S, an
    exact integer array for a stack of rows or of matrices.

    Every tabulated monomial is evaluated at every twisted linking matrix
    at once; one exact product with the theta table gives each generator's
    difference eps_base(theta) - eps_twisted(theta) at each S, and one
    more the coefficients' values."""
    s = np.asarray(s)
    table, slots = _theta_table(sp)
    diff = (_eps_monomials(slots, lk_base(sp.g))
            - _eps_monomials(slots, lk_twisted(sp.g, s)))
    per_gen = safe_matmul(table, diff.reshape(-1, len(slots)).T)
    return _per_s(MU_SIGN * safe_matmul(coeffs, per_gen), s)


def r_pairing(s, q):
    """Half of the r-map pairing between a symmetric S and an S^2(H')
    vector over the basis {b'_i b'_j, i <= j}, of shape
    q.shape[:-1] + s.shape[:-2]: an int, or an exact integer array for a
    stack of vectors or of matrices."""
    s = np.asarray(s, dtype=np.int64)
    i, j = np.triu_indices(s.shape[-1])
    upper = s[..., i, j]  # row-major i <= j, the basis order
    return _per_s(safe_matmul(q, upper.reshape(-1, upper.shape[-1]).T), s)


def half_omegaS_plus_delta(sp: DerivationSpace, coeffs, s):
    """(1/2 omega_S + omega_delta) applied to tr_omegaS(coeffs, S), counted
    in halves: the exact integers omega_S(t) + 2 omega_delta(t), twice the
    composite, of shape coeffs.shape[:-1] + s.shape[:-2] (an int for one
    row and one S).

    Both forms are read off one weight matrix per S, [[0,0],[2 Id,S]],
    contracted exactly with t over all 2g x 2g slots."""
    s = np.asarray(s, dtype=np.int64)
    t = tr_omegaS(sp, coeffs, s)
    n2 = (2 * sp.g) ** 2
    weights = (lk_base(sp.g) + lk_twisted(sp.g, s)).reshape(-1, n2)
    t = t.reshape(-1, len(weights), n2)
    out = safe_einsum("rmk,mk->rm", t, weights)
    return _per_s(out.reshape(np.shape(coeffs)[:-1] + (len(weights),)), s)


def d_core(h: int) -> int:
    """Core of the Casson invariant on a genus-h BSCC twist."""
    return 4 * h * (h - 1)
