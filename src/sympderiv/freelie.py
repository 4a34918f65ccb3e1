"""The symplectic module H, Lyndon bases of the free Lie ring, and tensors.

Letters are 0..2g-1 with a_1..a_g = 0..g-1 and b_1..b_g = g..2g-1; Lyndon
words use that letter order.  Degrees are capped at 4, which is all the
degree-2 derivation theory needs.  Tensor elements are dicts from letter
tuples to integer coefficients; they define the structure constants of the
bracket, a table per pair of degrees (``bracket_table``), and brackets in
Lyndon coordinates are one exact product against those tables
(``lie_bracket``, read by the oracle ``trees.derivation_bracket``).  The
bracket of a letter with a degree-2 bracketing, which the tree expansions
and D_2 read, is instead one table read from letter order
(``letter_bracket_table``; Reutenauer, Free Lie Algebras, ch. 4-5, for
the standard bracketings), with no tensor.  The bracket map
H (x) L_3 -> L_4 is read at the Lyndon words of T_4, with no degree-4
table: the Lyndon-word block of the bracketings' expansions is
unitriangular (Chen-Fox-Lyndon; Reutenauer, Free Lie Algebras, 5.1), so
that reading is injective on L_4; D_2 reads it at genus 2 only and renames
its kernel's letters for every other genus.  Killing a Lagrangian of H is a
selection of degree-3 Lyndon coordinates (``avoiding``), with no quotient
alphabet.  Every array function takes stacks, one row per element.
"""

from __future__ import annotations

import numpy as np

from .intlin import cached, narrowed, safe_einsum, safe_matmul

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


@cached
def iota_matrix(g: int) -> np.ndarray:
    """a_i -> -b_i, b_i -> a_i; also the Gram matrix J of omega,
    J[p, q] = omega(e_p, e_q).  Read-only, one per genus."""
    m = np.zeros((2 * g, 2 * g), dtype=np.int64)
    m[:g, g:] = np.eye(g, dtype=np.int64)
    m[g:, :g] = -np.eye(g, dtype=np.int64)
    return m


def tensor_add(t: dict, other: dict, scale: int = 1) -> None:
    for w, c in other.items():
        nc = t.get(w, 0) + scale * c
        if nc:
            t[w] = nc
        else:
            t.pop(w, None)


def tensor_concat_commutator(x: dict, y: dict) -> dict:
    """xy - yx for homogeneous tensor elements: every term accumulated in
    place, and the zero sums dropped once."""
    out: dict = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            c = cx * cy
            out[wx + wy] = out.get(wx + wy, 0) + c
            out[wy + wx] = out.get(wy + wx, 0) - c
    return {w: c for w, c in out.items() if c}


class SymplecticContext:
    """Genus-g symplectic module with its Lyndon basis tables.

    Tables are computed lazily per degree and shared read-only; all values
    derived from a context are immutable.
    """

    def __init__(self, genus: int):
        if genus < 1:
            raise ContextError("genus must be >= 1")
        self.g = genus
        self.n = 2 * genus

    # -- the intersection form -------------------------------------------
    def omega(self, u, v) -> np.ndarray:
        """omega(u, v) row by row of two equal stacks, u_m J v_m: an exact
        integer array."""
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape[-1:] != (self.n,) or v.shape[-1:] != (self.n,):
            raise ContextError("vector length does not match the context")
        return safe_einsum("mi,ij,mj->m", u, iota_matrix(self.g), v)

    # -- Lyndon tables ----------------------------------------------------
    @cached
    def lyndon(self, k: int) -> list[tuple[int, ...]]:
        if not 1 <= k <= MAX_DEGREE:
            raise UnsupportedDegreeError(f"degree {k} outside 1..{MAX_DEGREE}")
        return lyndon_words(self.n, k)

    @cached
    def lyndon_index(self, k: int) -> dict[tuple[int, ...], int]:
        return {w: i for i, w in enumerate(self.lyndon(k))}

    def dim(self, k: int) -> int:
        return len(self.lyndon(k))

    @cached
    def pair_index(self) -> np.ndarray:
        """The index in ``lyndon(2)`` of the word of letters {p, q}, p != q,
        at [p, q] and at [q, p]; read-only.  [p, q] is the bracketing of
        that word for p < q, and minus it for p > q.  ``lyndon(2)`` lists
        the pairs p < q in ``np.triu_indices`` order."""
        return pair_columns(self.n, 1)

    @cached
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
        out = np.zeros(self.dim(k), dtype=np.int64)
        index = self.lyndon_index(k)
        while rem:
            w = min(rem)
            c = rem[w]
            i = index.get(w)
            if i is None:
                raise ValueError(f"tensor element is not in the Lie ring: {w}")
            out[i] += c
            tensor_add(rem, self.bracketing_tensor(w), -c)
        return out

    @cached
    def bracket_table(self, j: int, k: int) -> np.ndarray:
        """Structure constants of L_j x L_k -> L_{j+k}: entry [a, b] holds
        the bracket of the a-th and b-th Lyndon bracketings in Lyndon
        coordinates, from their tensor expansions.  Read-only, and
        ``narrowed``: int8, as every entry is at most 2 in absolute value up
        to degree 4; the bracket map into degree 4 needs none of them
        (``bracket_word_matrix``)."""
        if j + k > MAX_DEGREE:
            raise UnsupportedDegreeError("bracket would exceed the degree cap")
        table = np.zeros((self.dim(j), self.dim(k), self.dim(j + k)),
                         dtype=np.int64)
        for a, u in enumerate(self.lyndon(j)):
            tu = self.bracketing_tensor(u)
            for b, v in enumerate(self.lyndon(k)):
                comm = tensor_concat_commutator(tu, self.bracketing_tensor(v))
                table[a, b] = self.tensor_to_lyndon(j + k, comm)
        return narrowed(table)

    @cached
    def letter_bracket_table(self) -> np.ndarray:
        """[x, w] of every letter x and degree-2 Lyndon bracketing w =
        [p, q], p < q, in degree-3 Lyndon coordinates, read from letter
        order: +xpq if x <= p (its own standard bracketing); -pqx if
        p < x <= q, as [[p, q], x] is pqx's; -pqx - pxq if q < x, by
        Jacobi, [[p, q], x] = [p, [q, x]] + [[p, x], q].  The values of
        ``bracket_table(1, 2)``, with no tensor expansion, in int8 and
        read-only; D_2's expansions read this table and the oracle
        ``trees.derivation_bracket`` the other."""
        col = self.lyndon_index(3)
        table = np.zeros((self.n, self.dim(2), self.dim(3)), dtype=np.int8)
        for w, (p, q) in enumerate(self.lyndon(2)):
            for x in range(self.n):
                if x <= p:
                    table[x, w, col[x, p, q]] = 1
                else:
                    table[x, w, col[p, q, x]] = -1
                    if q < x:
                        table[x, w, col[p, x, q]] = -1
        return table

    def lie_bracket(self, j: int, x, k: int, y) -> np.ndarray:
        """Bracket L_j x L_k -> L_{j+k} in Lyndon coordinates, row by row
        of two stacks: the products x_a y_b of each row times the
        structure constants, one exact product (``safe_matmul``)."""
        table = self.bracket_table(j, k)
        table = table.reshape(-1, table.shape[2])
        xy = safe_einsum("ma,mb->mab", x, y)
        return safe_matmul(xy.reshape(len(xy), len(table)), table)

    def bracket_word_matrix(self) -> np.ndarray:
        """Matrix of H (x) L_3 -> T_4, h (x) xi -> [h, xi], read at the
        Lyndon words of length 4: column h * dim(3) + i holds the
        coefficients of those words in x P - P x, with x = e_h and P the
        expansion of the i-th Lyndon bracketing; rows follow ``lyndon(4)``.

        It is the map in Lyndon coordinates times the unitriangular
        Lyndon-word block of the degree-4 expansions, so it has the same
        kernel.  Words are base-n codes, shifted by one letter for x P and
        P x.  An entry sums at most two expansion terms (x w = w' x), each
        at most 2, so the matrix is int8.  It keeps each column's letter
        multiset, so it is block-diagonal by that multiset; D_2 reads it at
        genus 2 alone (``DerivationSpace._bracket_kernel``)."""
        n, d = self.n, self.dim(3)
        terms = [(i, (a * n + b) * n + c, coeff)
                 for i, w in enumerate(self.lyndon(3))
                 for (a, b, c), coeff in self.bracketing_tensor(w).items()]
        owner, code, coeff = np.array(terms).T
        place = np.full(n ** 4, -1)  # word code -> Lyndon index
        place[np.array(self.lyndon(4)) @ n ** np.arange(3, -1, -1)] = \
            np.arange(self.dim(4))
        out = np.zeros((self.dim(4), n * d), dtype=np.int8)
        for h in range(n):
            for words, sign in ((h * n ** 3 + code, 1), (code * n + h, -1)):
                row = place[words]
                keep = row >= 0
                np.add.at(out, (row[keep], h * d + owner[keep]),
                          sign * coeff[keep])
        return out

    # -- Lagrangians -------------------------------------------------------
    def kill_letters(self, lagrangian: str) -> range:
        if lagrangian == "A":
            return range(0, self.g)
        if lagrangian == "B":
            return range(self.g, self.n)
        raise ContextError("lagrangian must be 'A' or 'B'")

    @cached
    def avoiding(self, lagrangian: str) -> np.ndarray:
        """Read-only boolean mask over ``lyndon(3)`` of the words with no
        letter of the Lagrangian.

        Killing the Lagrangian is a selection of these coordinates.  Every
        word of a Lyndon bracketing's expansion rearranges that Lyndon
        word's letters, so the bracketing of a word through a killed letter
        goes to 0, and that of any other word is the quotient's own Lyndon
        bracketing, its letters renumbered in order (Reutenauer, Free Lie
        Algebras, ch. 4-5)."""
        killed = list(self.kill_letters(lagrangian))
        return ~np.isin(np.array(self.lyndon(3)), killed).any(axis=1)


@cached
def context(genus: int) -> SymplecticContext:
    return SymplecticContext(genus)


def pair_columns(n: int, k: int) -> np.ndarray:
    """The index of each unordered pair {x, y} of n letters among the pairs
    of ``np.triu_indices(n, k)`` (x < y for k = 1, x <= y for k = 0), at
    [x, y] and at [y, x]: a symmetric n x n index matrix."""
    i, j = np.triu_indices(n, k)
    col = np.zeros((n, n), dtype=np.intp)
    col[i, j] = col[j, i] = np.arange(len(i))
    return col


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
