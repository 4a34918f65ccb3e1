"""The symplectic module H, Lyndon bases of the free Lie ring, and tensors.

Letters are 0..2g-1 with a_1..a_g = 0..g-1 and b_1..b_g = g..2g-1; Lyndon
words use that letter order.  Degrees are capped at 4, which is all the
degree-2 derivation theory needs.  Tensor elements are dicts from letter
tuples to integer coefficients; they define the bracket once, in a
structure-constant table per pair of degrees, and brackets in Lyndon
coordinates are exact contractions against those tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .intlin import fits_int64, safe_einsum

MAX_DEGREE = 4


class ContextError(ValueError):
    pass


class UnsupportedDegreeError(ValueError):
    pass


def lyndon_words(n_letters: int, length: int) -> list[tuple[int, ...]]:
    """All Lyndon words of exactly the given length (Duval's algorithm)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == length:
            out.append(tuple(w))
        while len(w) < length:
            w.append(w[len(w) - m])
        while w and w[-1] == n_letters - 1:
            w.pop()
    return sorted(out)


def standard_factorization(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """w = uv with v the lexicographically least proper suffix."""
    if len(w) < 2:
        raise ValueError(f"not a bracketable word: {w}")
    i = min(range(1, len(w)), key=lambda j: w[j:])
    return w[:i], w[i:]


def tensor_add(t: dict, other: dict, scale: int = 1) -> None:
    for w, c in other.items():
        nc = t.get(w, 0) + scale * c
        if nc:
            t[w] = nc
        else:
            t.pop(w, None)


def tensor_concat_commutator(x: dict, y: dict) -> dict:
    """xy - yx for homogeneous tensor elements."""
    out: dict = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            tensor_add(out, {wx + wy: cx * cy})
            tensor_add(out, {wy + wx: -cx * cy})
    return out


class SymplecticContext:
    """Genus-g symplectic module with its Lyndon basis tables.

    Tables are computed lazily per degree and shared read-only; all values
    derived from a context are immutable.
    """

    def __init__(self, genus: int, letters: int | None = None):
        if genus < 1:
            raise ContextError("genus must be >= 1")
        self.g = genus
        # quotient contexts reuse the machinery with a smaller free alphabet
        self.n = 2 * genus if letters is None else letters
        self._symplectic = letters is None

    # -- the intersection form -------------------------------------------
    def omega(self, u, v):
        """omega(u, v) of two vectors (an int), or row by row of two equal
        stacks (an exact integer array)."""
        if not self._symplectic:
            raise ContextError("no symplectic form on a quotient alphabet")
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape[-1:] != (self.n,) or v.shape[-1:] != (self.n,):
            raise ContextError("vector length does not match the context")
        g = self.g
        if u.ndim == v.ndim == 1:
            u, v = u.tolist(), v.tolist()
            return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))
        # omega(u, v) = u . Jv with Jv = (v_b, -v_a)
        jv = np.concatenate([v[..., g:], -v[..., :g]], axis=-1)
        return safe_einsum("mi,mi->m", u, jv)

    def basis_vector(self, p: int) -> tuple[int, ...]:
        return tuple(1 if i == p else 0 for i in range(self.n))

    # -- Lyndon tables ----------------------------------------------------
    @lru_cache(maxsize=None)
    def lyndon(self, k: int) -> list[tuple[int, ...]]:
        if not 1 <= k <= MAX_DEGREE:
            raise UnsupportedDegreeError(f"degree {k} outside 1..{MAX_DEGREE}")
        return lyndon_words(self.n, k)

    @lru_cache(maxsize=None)
    def lyndon_index(self, k: int) -> dict[tuple[int, ...], int]:
        return {w: i for i, w in enumerate(self.lyndon(k))}

    def dim(self, k: int) -> int:
        return len(self.lyndon(k))

    @lru_cache(maxsize=None)
    def bracketing_tensor(self, w: tuple[int, ...]) -> dict:
        """Tensor expansion of the standard bracketing of a Lyndon word."""
        if len(w) == 1:
            return {w: 1}
        u, v = standard_factorization(w)
        return tensor_concat_commutator(self.bracketing_tensor(u),
                                        self.bracketing_tensor(v))

    def tensor_to_lyndon(self, k: int, tensor: dict) -> np.ndarray:
        """Coordinates over the Lyndon basis; raises if not a Lie element.

        Uses triangularity: the expansion of a Lyndon bracketing is its word
        plus lexicographically larger words.
        """
        rem = dict(tensor)
        coords = np.zeros(self.dim(k), dtype=np.int64)
        index = self.lyndon_index(k)
        while rem:
            w = min(rem)
            c = rem[w]
            i = index.get(w)
            if i is None:
                raise ValueError(f"tensor element is not in the Lie ring: {w}")
            coords[i] += c
            tensor_add(rem, self.bracketing_tensor(w), -c)
        return coords

    @lru_cache(maxsize=None)
    def bracket_table(self, j: int, k: int) -> np.ndarray:
        """Structure constants of L_j x L_k -> L_{j+k}: entry [a, b] holds
        the bracket of the a-th and b-th Lyndon bracketings in Lyndon
        coordinates, from their tensor expansions.  Read-only, and int8
        when every entry fits (they are at most 2 in absolute value up to
        degree 4), which keeps the genus-4 (1, 3) table at 1.4 MB."""
        if j + k > MAX_DEGREE:
            raise UnsupportedDegreeError("bracket would exceed the degree cap")
        table = np.zeros((self.dim(j), self.dim(k), self.dim(j + k)),
                         dtype=np.int64)
        for a, u in enumerate(self.lyndon(j)):
            tu = self.bracketing_tensor(u)
            for b, v in enumerate(self.lyndon(k)):
                comm = tensor_concat_commutator(tu, self.bracketing_tensor(v))
                table[a, b] = self.tensor_to_lyndon(j + k, comm)
        if np.abs(table).max(initial=0) < 2 ** 7:
            table = table.astype(np.int8)
        table.setflags(write=False)
        return table

    @lru_cache(maxsize=None)
    def _bracket_terms(self, j: int, k: int):
        """The nonzero structure constants of ``bracket_table(j, k)`` as
        triplets (a, b, c) grouped by target coordinate: the targets, where
        each group starts, and the largest |c| times the largest group
        (so a bound on one output entry per unit of |x| |y|)."""
        table = self.bracket_table(j, k)
        a, b, d = np.nonzero(table)
        order = np.argsort(d, kind="stable")
        a, b, d = a[order], b[order], d[order]
        c = table[a, b, d]
        targets, starts, counts = np.unique(d, return_index=True,
                                            return_counts=True)
        scale = int(np.abs(c).max(initial=0)) * int(counts.max(initial=0))
        return a, b, c, targets, starts, scale

    def lie_bracket(self, j: int, x, k: int, y) -> np.ndarray:
        """Bracket L_j x L_k -> L_{j+k} in Lyndon coordinates, of one pair
        or row by row of two stacks.

        Sums x_a y_b c over the nonzero structure constants (a, b, c) of
        each target coordinate, in int64 when a bound allows, else on
        Python ints.
        """
        a, b, c, targets, starts, scale = self._bracket_terms(j, k)
        x = np.asarray(x)
        xs, ys = np.atleast_2d(x, y)
        bound = (scale * max(1, int(np.abs(xs).max(initial=0)))
                 * max(1, int(np.abs(ys).max(initial=0))))
        dtype = np.int64 if fits_int64(bound) else object
        xs, ys = xs.astype(dtype, copy=False), ys.astype(dtype, copy=False)
        out = np.zeros((len(xs), self.dim(j + k)), dtype=xs.dtype)
        if len(c):
            out[:, targets] = np.add.reduceat(xs[:, a] * ys[:, b] * c, starts,
                                              axis=1)
        return out if x.ndim == 2 else out[0]

    def bracket_matrix(self, k: int) -> np.ndarray:
        """Matrix of H (x) L_{k+1} -> L_{k+2}, h (x) xi -> [h, xi].

        Columns are indexed by h * dim(k+1) + lyndon_index; rows by the
        Lyndon basis of degree k+2.
        """
        if k not in (1, 2):
            raise UnsupportedDegreeError("bracket matrix only for degrees 1 and 2")
        return self.bracket_table(1, k + 1).reshape(-1, self.dim(k + 2)).T

    # -- Lagrangian quotients --------------------------------------------
    @lru_cache(maxsize=None)
    def quotient_context(self) -> "SymplecticContext":
        """A free alphabet of g letters for H/A or H/B coordinates."""
        return SymplecticContext(self.g, letters=self.g)

    def kill_letters(self, lagrangian: str) -> range:
        if lagrangian == "A":
            return range(0, self.g)
        if lagrangian == "B":
            return range(self.g, self.n)
        raise ContextError("lagrangian must be 'A' or 'B'")

    @lru_cache(maxsize=None)
    def lyndon_projection_matrix(self, k: int, lagrangian: str) -> np.ndarray:
        """L_k(H) -> L_k(H/A or H/B) over the two Lyndon bases: column i is
        the i-th bracketing tensor without its words through a killed
        letter, in the quotient Lyndon coordinates."""
        killed = set(self.kill_letters(lagrangian))
        shift = self.g if lagrangian == "A" else 0
        qctx = self.quotient_context()
        cols = []
        for w in self.lyndon(k):
            kept = {tuple(l - shift for l in word): c
                    for word, c in self.bracketing_tensor(w).items()
                    if killed.isdisjoint(word)}
            cols.append(qctx.tensor_to_lyndon(k, kept))
        return np.array(cols, dtype=np.int64).T


@lru_cache(maxsize=None)
def context(genus: int) -> SymplecticContext:
    return SymplecticContext(genus)


def witt_dimension(n_letters: int, k: int) -> int:
    """Rank of L_k on n free generators (Mobius / necklace count)."""
    total = 0
    for d in range(1, k + 1):
        if k % d:
            continue
        total += _mobius(k // d) * n_letters ** d
    return total // k


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    res = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            res = -res
        p += 1
    if n > 1:
        res = -res
    return res
