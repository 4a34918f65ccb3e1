"""The trace operators on the degree-2 derivation lattice.

tr_sym and tr_as land in GF(2) quadratic spaces over H/2H and are computed
through generator expressions; tr_A, tr_B and the S-twisted contraction
tr_omegaS are direct coordinate formulas.  Kernels are returned as exact
sublattices of the ambient H (x) L_3 coordinates.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .derivspace import DerivationSpace, FiltrationError, space
from .intlin import GF2Matrix, IntegerLattice, kernel_lattice, safe_matmul


# -- GF(2) targets ----------------------------------------------------------

def sym2_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def ext2_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@lru_cache(maxsize=None)
def _pair_maps(n: int):
    sym = {p: i for i, p in enumerate(sym2_pairs(n))}
    ext = {p: i for i, p in enumerate(ext2_pairs(n))}
    return sym, ext


def _omega_letters(g: int, p: int, q: int) -> int:
    if q == p + g:
        return 1
    if p == q + g:
        return -1
    return 0


def omega_functional_sym(g: int) -> int:
    """Bitmask of the mod-2 functional S^2(H/2H) -> Z_2 induced by omega."""
    sym, _ = _pair_maps(2 * g)
    bits = 0
    for (p, q), i in sym.items():
        if _omega_letters(g, p, q) % 2:
            bits |= 1 << i
    return bits


def omega_functional_ext(g: int) -> int:
    _, ext = _pair_maps(2 * g)
    bits = 0
    for (p, q), i in ext.items():
        if _omega_letters(g, p, q) % 2:
            bits |= 1 << i
    return bits


def omega_kernel_dim_sym(g: int) -> int:
    return (g + 1) * (2 * g - 1)


def omega_kernel_dim_ext(g: int) -> int:
    return (g - 1) * (2 * g + 1)


# -- generator-level formulas ----------------------------------------------

def _tree_trace_terms(g: int, tree_gen):
    (p, q), (r, s) = tree_gen[1], tree_gen[2]
    w = _omega_letters
    return [(w(g, p, s), (q, r)), (w(g, p, r), (q, s)),
            (w(g, q, s), (p, r)), (w(g, q, r), (p, s))]


def tr_sym_gen(g: int, gen) -> int:
    """Bitmask in S^2(H/2H); defined on tree generators only."""
    if gen[0] != "tree":
        raise ValueError("tr_sym is only defined on tree generators")
    sym, _ = _pair_maps(2 * g)
    bits = 0
    for w, (x, y) in _tree_trace_terms(g, gen):
        if w % 2:
            bits ^= 1 << sym[(min(x, y), max(x, y))]
    return bits


def tr_as_gen(g: int, gen) -> int:
    """Bitmask in Lambda^2(H/2H); defined on all generators."""
    _, ext = _pair_maps(2 * g)
    bits = 0
    if gen[0] == "odot":
        p, q = gen[1]
        if (1 + _omega_letters(g, p, q)) % 2:
            bits ^= 1 << ext[(p, q)]
        return bits
    for w, (x, y) in _tree_trace_terms(g, gen):
        if w % 2 and x != y:
            bits ^= 1 << ext[(min(x, y), max(x, y))]
    return bits


def _trace_bits(sp: DerivationSpace, which: str, vecs) -> list[int]:
    """tr_as or tr_sym bitmasks of each row of vecs, from one batched
    generator solve: XOR of the generator images with odd coefficients."""
    if which == "as":
        coeffs = sp.express_in_generators(vecs)
        gens, fn = sp.generators, tr_as_gen
    else:
        coeffs = sp.express_in_tree_generators(vecs)
        gens = [sp.generators[i] for i in sp.tree_indices]
        fn = tr_sym_gen
    odd = np.atleast_2d(coeffs % 2).astype(bool)
    masks = {j: fn(sp.g, gens[j]) for j in np.flatnonzero(odd.any(axis=0))}
    out = []
    for row in odd:
        bits = 0
        for j in np.flatnonzero(row):
            bits ^= masks[j]
        out.append(bits)
    return out


def tr_sym(sp: DerivationSpace, v) -> int:
    return _trace_bits(sp, "sym", v)[0]


def tr_as(sp: DerivationSpace, v) -> int:
    return _trace_bits(sp, "as", v)[0]


# -- the A-side and B-side traces ------------------------------------------

def tr_A(sp: DerivationSpace, v, check_domain: bool = True) -> np.ndarray:
    """Integer vector over the S^2(H') basis {b'_i b'_j, i <= j}."""
    if check_domain and np.asarray(v) not in sp.filtration(0, "A"):
        raise FiltrationError("element is not in filtration level 0")
    return _side_trace(sp, v, "A")


def tr_B(sp: DerivationSpace, v, check_domain: bool = True) -> np.ndarray:
    if check_domain and np.asarray(v) not in sp.filtration(0, "B"):
        raise FiltrationError("element is not in the B-side filtration level 0")
    return _side_trace(sp, v, "B")


def _side_trace(sp: DerivationSpace, v, side: str) -> np.ndarray:
    """Keep H-factors in the side Lagrangian, kill that side in the Lie
    factor, contract the first two tensor slots by the residual pairing,
    and symmetrize the last two into S^2 of the quotient."""
    ctx = sp.ctx
    g = ctx.g
    d3 = ctx.dim(3)
    v = np.asarray(v)
    pairs = sym2_pairs(g)
    index = {p: i for i, p in enumerate(pairs)}
    out = np.zeros(len(pairs), dtype=np.int64)
    if side == "A":
        h_range = range(0, g)
        keep = lambda l: l >= g
        shift = g
        contract = lambda h, l: 1 if l - g == h else 0
    else:
        h_range = range(g, 2 * g)
        keep = lambda l: l < g
        shift = 0
        contract = lambda h, l: -1 if l == h - g else 0
    for h in h_range:
        block = v[h * d3:(h + 1) * d3]
        if not np.any(block):
            continue
        for word, c in ctx.lyndon_to_tensor(3, block).items():
            if not all(keep(l) for l in word):
                continue
            w = contract(h, word[0])
            if w:
                x, y = word[1] - shift, word[2] - shift
                out[index[(min(x, y), max(x, y))]] += w * int(c)
    return out


def sym2hprime_pairs(g: int) -> list[tuple[int, int]]:
    return sym2_pairs(g)


# -- the S-twisted contraction ---------------------------------------------

def tr_omegaS(sp: DerivationSpace, v, s) -> np.ndarray:
    """Value in T_2(H) = H (x) H as a 2g x 2g integer matrix."""
    s = np.asarray(s, dtype=np.int64)
    g = sp.g
    if not np.array_equal(s, s.T):
        raise ValueError("S must be symmetric")

    def ws(p, q):
        if p >= g and q >= g:
            return int(s[p - g, q - g])
        return 0

    coeffs = sp.express_in_generators(v)
    out = np.zeros((2 * g, 2 * g), dtype=np.int64)

    def add(x, y, c):
        if c:
            out[x, y] += c
            out[y, x] += c

    for c, gen in zip(coeffs, sp.generators):
        c = int(c)
        if not c:
            continue
        if gen[0] == "tree":
            (p, q), (r, t) = gen[1], gen[2]
            add(q, r, c * ws(p, t))
            add(p, t, c * ws(q, r))
            add(q, t, -c * ws(p, r))
            add(p, r, -c * ws(q, t))
        else:
            p, q = gen[1]
            add(p, q, c * ws(p, q))
            out[q, q] -= c * ws(p, p)
            out[p, p] -= c * ws(q, q)
    return out


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


def _gf2_image_rows(sp: DerivationSpace, which: str) -> list[int]:
    """Trace bitmasks of the basis of D_2 ("as") or of D_2' ("sym")."""
    key = "_gf2_rows_" + which
    if not hasattr(sp, key):
        lattice = sp.d2() if which == "as" else sp.dprime2()
        setattr(sp, key, _trace_bits(sp, which, lattice.basis))
    return getattr(sp, key)


def ker_tr_as(sp: DerivationSpace) -> IntegerLattice:
    if not hasattr(sp, "_ker_tr_as"):
        d2 = sp.d2()
        rows = _gf2_image_rows(sp, "as")
        t = np.array([[(r >> j) & 1 for r in rows]
                      for j in range(len(ext2_pairs(2 * sp.g)))], dtype=np.int64)
        sp._ker_tr_as = _coeffs_to_ambient(sp, _mod2_preimage(t).basis, d2)
    return sp._ker_tr_as


def ker_tr_sym(sp: DerivationSpace) -> IntegerLattice:
    """Kernel of tr_sym inside D_2'."""
    if not hasattr(sp, "_ker_tr_sym"):
        dp = sp.dprime2()
        rows = _gf2_image_rows(sp, "sym")
        t = np.array([[(r >> j) & 1 for r in rows]
                      for j in range(len(sym2_pairs(2 * sp.g)))], dtype=np.int64)
        sp._ker_tr_sym = _coeffs_to_ambient(sp, _mod2_preimage(t).basis, dp)
    return sp._ker_tr_sym


def _integer_kernel_on(sp: DerivationSpace, lattice: IntegerLattice,
                       fn) -> IntegerLattice:
    t = np.array([fn(row) for row in lattice.basis], dtype=np.int64).T
    coeff = kernel_lattice(t)
    if coeff.rank == 0:
        return IntegerLattice(sp.ambient_dim)
    return _coeffs_to_ambient(sp, coeff.basis, lattice)


def ker_tr_A(sp: DerivationSpace) -> IntegerLattice:
    """Kernel of tr_A inside filtration level 0."""
    if not hasattr(sp, "_ker_tr_A"):
        f0 = sp.filtration(0, "A")
        sp._ker_tr_A = _integer_kernel_on(
            sp, f0, lambda v: tr_A(sp, v, check_domain=False))
    return sp._ker_tr_A


def ker_tr_B(sp: DerivationSpace) -> IntegerLattice:
    if not hasattr(sp, "_ker_tr_B"):
        f0 = sp.filtration(0, "B")
        sp._ker_tr_B = _integer_kernel_on(
            sp, f0, lambda v: tr_B(sp, v, check_domain=False))
    return sp._ker_tr_B


# -- image ranks over GF(2) -------------------------------------------------

def image_rank_as(sp: DerivationSpace) -> int:
    rows = _gf2_image_rows(sp, "as")
    return GF2Matrix(rows, len(ext2_pairs(2 * sp.g))).rank()


def image_rank_sym(sp: DerivationSpace) -> int:
    rows = _gf2_image_rows(sp, "sym")
    return GF2Matrix(rows, len(sym2_pairs(2 * sp.g))).rank()


def image_in_omega_kernel(sp: DerivationSpace, which: str) -> bool:
    if which == "as":
        rows = _gf2_image_rows(sp, "as")
        func = omega_functional_ext(sp.g)
    else:
        rows = _gf2_image_rows(sp, "sym")
        func = omega_functional_sym(sp.g)
    return all(bin(r & func).count("1") % 2 == 0 for r in rows)
