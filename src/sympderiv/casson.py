"""Linking forms and the Casson-difference machinery.

Each generator's theta is a quadratic in the linking symbols l(e_p, e_q)
of its four leaf letters (p, q, p, q for a (.)-generator), and its dbar a
quadratic in the Gram matrix J of omega.  At a linking matrix lk the
symbol l(e_p, e_q) takes the value of its normal form, lk[p, q] for
p <= q and lk[q, p] + omega(e_q, e_p) otherwise, so theta of every
generator is read off that one matrix by index.  The base form is
[[0,0],[Id,0]] and the form twisted by a symmetric S is [[0,0],[Id,S]];
q-bar and mu are exact products of those values with the coefficients,
mu at every matrix of a stack of S at once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .derivspace import DerivationSpace, iota_matrix
from .intlin import fits_int64, safe_einsum, safe_matmul
from .traces import tr_omegaS

# mu(v, S) := eps_base(theta(v)) - eps_twisted(theta(v)); this sign makes
# (1/2 omega_S + omega_delta) o tr_omegaS = mu(-, S) hold on the nose
# (verified exactly in the acceptance suite)
MU_SIGN = 1


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

def _theta(sp: DerivationSpace, lk: np.ndarray) -> np.ndarray:
    """theta of every generator at the linking matrix lk, on the last axis,
    one row per matrix of a stack: l(a,c) l(b,d) - l(a,d) l(b,c)
    - l(d,a) l(c,b) + l(c,a) l(d,b) at the normal-form values
    triu(lk) + tril(lk^T - J, -1)."""
    lt = np.triu(lk) + np.tril(np.swapaxes(lk, -1, -2) - iota_matrix(sp.g), -1)
    # theta sums four products of two entries; at the base linking matrix
    # |theta| <= 4, so a base-minus-twisted difference fits as well
    if not fits_int64(4 * max(int(lt.max()), -int(lt.min())) ** 2):
        lt = lt.astype(object)
    a, b, c, d = sp.leaves.T
    theta = (lt[..., a, c] * lt[..., b, d] - lt[..., a, d] * lt[..., b, c]
             - lt[..., d, a] * lt[..., c, b] + lt[..., c, a] * lt[..., d, b])
    # a (.)-generator's leaves (p, q, p, q) count theta(e_p, e_q) twice
    theta[..., :len(sp.pairs)] //= 2
    return theta


@lru_cache(maxsize=None)
def _thrice_qbar_column(sp: DerivationSpace) -> np.ndarray:
    """3 qbar of every generator: 3 eps_j(theta), theta at the base linking
    matrix, plus dbar = J[a,b] J[c,d] - J[a,c] J[b,d] + J[a,d] J[b,c] of its
    leaves (0 on a (.)-generator)."""
    j = iota_matrix(sp.g)
    a, b, c, d = sp.leaves.T
    dbar = j[a, b] * j[c, d] - j[a, c] * j[b, d] + j[a, d] * j[b, c]
    return 3 * _theta(sp, lk_base(sp.g)) + dbar


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

    theta of every generator is read off the base and every twisted
    linking matrix at once; one exact product of the coefficients with the
    differences eps_base(theta) - eps_twisted(theta) gives the values."""
    s = np.asarray(s)
    diff = _theta(sp, lk_base(sp.g)) - _theta(sp, lk_twisted(sp.g, s))
    per_gen = diff.reshape(-1, diff.shape[-1]).T
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
