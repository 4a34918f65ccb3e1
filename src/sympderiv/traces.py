"""The trace operators on the degree-2 derivation lattice.

The mod-2 traces tr_sym and tr_as land in GF(2) quadratic spaces over
H/2H and are computed through generator expressions.  The integer traces
are linear maps tabulated once per genus and applied to whole stacks as
one exact product: tr_A and tr_B through an (ambient x S^2(H')) matrix
built from the tensor expansions of the degree-3 Lyndon words, and the
S-twisted contraction tr_omegaS through each generator's contraction,
tabulated over the entries of S.  Kernels are returned as exact
sublattices of the ambient H (x) L_3 coordinates.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .derivspace import DerivationSpace, FiltrationError
from .freelie import context
from .intlin import GF2Matrix, IntegerLattice, kernel_lattice, safe_matmul


# -- GF(2) targets ----------------------------------------------------------

def sym2_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def ext2_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@lru_cache(maxsize=None)
def _pair_index(n: int, which: str) -> dict[tuple[int, int], int]:
    """Bit of each pair in S^2 ("sym") or Lambda^2 ("as") on n letters."""
    pairs = sym2_pairs(n) if which == "sym" else ext2_pairs(n)
    return {p: i for i, p in enumerate(pairs)}


def _width(g: int, which: str) -> int:
    return len(_pair_index(2 * g, which))


def omega_functional(g: int, which: str) -> int:
    """Bitmask of the mod-2 functional S^2(H/2H) ("sym") or
    Lambda^2(H/2H) ("as") -> Z_2 induced by omega."""
    w = context(g).omega_letters
    bits = 0
    for (p, q), i in _pair_index(2 * g, which).items():
        if w(p, q) % 2:
            bits |= 1 << i
    return bits


def omega_kernel_dim_sym(g: int) -> int:
    return (g + 1) * (2 * g - 1)


def omega_kernel_dim_ext(g: int) -> int:
    return (g - 1) * (2 * g + 1)


# -- generator-level formulas ----------------------------------------------

def _tree_trace_terms(g: int, tree_gen):
    (p, q), (r, s) = tree_gen[1], tree_gen[2]
    w = context(g).omega_letters
    return [(w(p, s), (q, r)), (w(p, r), (q, s)),
            (w(q, s), (p, r)), (w(q, r), (p, s))]


def tr_sym_gen(g: int, gen) -> int:
    """Bitmask in S^2(H/2H); defined on tree generators only."""
    if gen[0] != "tree":
        raise ValueError("tr_sym is only defined on tree generators")
    sym = _pair_index(2 * g, "sym")
    bits = 0
    for w, (x, y) in _tree_trace_terms(g, gen):
        if w % 2:
            bits ^= 1 << sym[(min(x, y), max(x, y))]
    return bits


def tr_as_gen(g: int, gen) -> int:
    """Bitmask in Lambda^2(H/2H); defined on all generators."""
    ext = _pair_index(2 * g, "as")
    bits = 0
    if gen[0] == "odot":
        p, q = gen[1]
        if (1 + context(g).omega_letters(p, q)) % 2:
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


def tr_as(sp: DerivationSpace, rows) -> list[int]:
    """Bitmask of each row of a stack."""
    return _trace_bits(sp, "as", rows)


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
    index = _pair_index(ctx.g, "sym")
    table = np.zeros((sp.ambient_dim, len(index)), dtype=np.int64)
    for h in side_letters:
        for i, w in enumerate(ctx.lyndon(3)):
            for word, c in ctx.bracketing_tensor(w).items():
                if any(l in side_letters for l in word):
                    continue
                om = ctx.omega_letters(h, word[0])
                if om:
                    x, y = word[1] - shift, word[2] - shift
                    table[h * d3 + i, index[(min(x, y), max(x, y))]] += om * c
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
    read-only int8 array (g*g, generators * 2g * 2g) whose row i*g + j
    holds the coefficients of S_ij in every generator's 2g x 2g value.
    A generator has at most 8 terms."""
    g = sp.g
    n = 2 * g
    table = np.zeros((g * g, len(sp.generators), n, n), dtype=np.int8)
    for k, gen in enumerate(sp.generators):
        # terms (x, y, p, q, c): c * S[p - g, q - g] at (x, y)
        if gen[0] == "tree":
            (p, q), (r, t) = gen[1], gen[2]
            terms = [(q, r, p, t, 1), (p, t, q, r, 1),
                     (q, t, p, r, -1), (p, r, q, t, -1)]
            terms += [(y, x, a, b, c) for x, y, a, b, c in terms]
        else:
            p, q = gen[1]
            terms = [(p, q, p, q, 1), (q, p, p, q, 1),
                     (q, q, p, p, -1), (p, p, q, q, -1)]
        for x, y, a, b, c in terms:
            if a >= g and b >= g:  # S lives on the B block only
                table[(a - g) * g + b - g, k, x, y] += c
    table = table.reshape(g * g, -1)
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
    mats = s.reshape(-1, g * g)
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
def _gf2_image_rows(sp: DerivationSpace, which: str) -> list[int]:
    """Trace bitmasks of the basis of D_2 ("as") or of D_2' ("sym")."""
    return _trace_bits(sp, which, _gf2_domain(sp, which).basis)


@lru_cache(maxsize=None)
def _gf2_kernel(sp: DerivationSpace, which: str) -> IntegerLattice:
    rows = _gf2_image_rows(sp, which)
    t = np.array([[(r >> j) & 1 for r in rows]
                  for j in range(_width(sp.g, which))], dtype=np.int64)
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

def image_rank_as(sp: DerivationSpace) -> int:
    return GF2Matrix(_gf2_image_rows(sp, "as")).rank()


def image_rank_sym(sp: DerivationSpace) -> int:
    return GF2Matrix(_gf2_image_rows(sp, "sym")).rank()


def image_in_omega_kernel(sp: DerivationSpace, which: str) -> bool:
    func = omega_functional(sp.g, which)
    return all(bin(r & func).count("1") % 2 == 0
               for r in _gf2_image_rows(sp, which))
