"""Exact integer and GF(2) linear algebra.

Integer matrices are numpy arrays.  The Hermite normal form engine works on
int64 for speed and transparently widens to Python ints (dtype=object) when
entries threaten to overflow; everything downstream only ever sees exact
results.  Lattices are stored by their row-style HNF basis, which is the
unique canonical representative, so structural equality of bases is lattice
equality.
"""

from __future__ import annotations

import math

import numpy as np

# int64 row operations are safe as long as every entry stays below this
# bound: |q| * |entry| + |entry| < 2**63 for |q|, |entry| < 2**31.
_INT64_SAFE = 2 ** 31


class NotSublatticeError(ValueError):
    """Raised when an index [L1 : L2] is requested but L2 is not inside L1."""


def as_int_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.dtype == object:
        return a
    return a.astype(np.int64)


def _widen(a: np.ndarray) -> np.ndarray:
    out = np.empty(a.shape, dtype=object)
    out[...] = [[int(x) for x in row] for row in a]
    return out


def hermite_normal_form(m, transform: bool = False):
    """Row-style HNF with positive pivots and reduced entries above pivots.

    Returns ``hnf`` or ``(hnf, u)`` with ``u`` unimodular and ``u @ m == hnf``.
    Rows of the result are *not* trimmed: zero rows sink to the bottom.
    """
    a = as_int_matrix(m)
    nrows, ncols = a.shape
    if transform:
        w = np.zeros((nrows, ncols + nrows), dtype=a.dtype)
        w[:, :ncols] = a
        w[np.arange(nrows), ncols + np.arange(nrows)] = 1
    else:
        w = a.copy()
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # Euclidean reduction of column c below row r.
        while True:
            live = r + np.flatnonzero(w[r:, c])
            if live.size == 0:
                break
            piv = live[np.argmin(np.abs(w[live, c]).astype(object))]
            if piv != r:
                w[[r, piv]] = w[[piv, r]]
            live = (r + 1) + np.flatnonzero(w[r + 1:, c])
            if live.size == 0:
                break
            p = w[r, c]
            qs = w[live, c] // p
            if w.dtype != object:
                bound = int(np.abs(qs).max()) * int(np.abs(w[r]).max()) \
                    + int(np.abs(w[live]).max())
                if bound >= 2 ** 62:
                    w = _widen(w)
                    qs = w[live, c] // p
            w[live] -= qs[:, None] * w[r][None, :]
            if not np.any(w[live, c]):
                break
        if not w[r, c]:
            continue
        if w[r, c] < 0:
            w[r] = -w[r]
        above = np.flatnonzero(w[:r, c])
        if above.size:
            p = w[r, c]
            qs = w[above, c] // p
            if w.dtype != object:
                bound = int(np.abs(qs).max()) * int(np.abs(w[r]).max()) \
                    + int(np.abs(w[above]).max())
                if bound >= 2 ** 62:
                    w = _widen(w)
                    qs = w[above, c] // p
            w[above] -= qs[:, None] * w[r][None, :]
        r += 1
        if w.dtype != object and np.abs(w).max() >= _INT64_SAFE:
            w = _widen(w)
    if transform:
        return w[:, :ncols], w[:, ncols:]
    return w


def _nonzero_rows(h: np.ndarray) -> np.ndarray:
    mask = np.array([bool(np.any(row)) for row in h])
    return h[mask]


def left_kernel(m) -> np.ndarray:
    """Basis (HNF rows) of {v : v @ m == 0}, saturated by construction."""
    a = as_int_matrix(m)
    h, u = hermite_normal_form(a, transform=True)
    zero = np.array([not np.any(row) for row in h])
    basis = u[zero]
    if basis.shape[0] == 0:
        return np.zeros((0, a.shape[0]), dtype=np.int64)
    return _nonzero_rows(hermite_normal_form(basis))


def kernel_lattice(m) -> "IntegerLattice":
    """Full integer kernel {v : m @ v == 0} as a lattice in Z^cols."""
    a = as_int_matrix(m)
    return IntegerLattice(a.shape[1], left_kernel(a.T), canonical=True)


def solve_over_hnf(basis: np.ndarray, pivots: list[int], v):
    """Coefficients y with y @ basis == v, or None.  basis must be HNF rows."""
    v = np.asarray(v)
    if basis.dtype == object or v.dtype == object:
        rem = v.astype(object)
    else:
        rem = v.astype(np.int64)
    coeffs = []
    for i, c in enumerate(pivots):
        p = basis[i, c]
        q, r = divmod(int(rem[c]), int(p))
        if r:
            return None
        coeffs.append(q)
        if q:
            rem = rem - q * basis[i]
    if np.any(rem):
        return None
    return np.array(coeffs, dtype=object)


def _pivot_cols(basis: np.ndarray) -> list[int]:
    return [int(np.flatnonzero(row)[0]) for row in basis]


class IntegerLattice:
    """A f.g. subgroup of Z^n held in canonical (row HNF) form."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, generators=None, canonical: bool = False):
        self.ambient_dim = ambient_dim
        if generators is None or len(generators) == 0:
            self.basis = np.zeros((0, ambient_dim), dtype=np.int64)
        else:
            g = as_int_matrix(generators)
            if g.shape[1] != ambient_dim:
                raise ValueError("generator length != ambient dimension")
            self.basis = g if canonical else _nonzero_rows(hermite_normal_form(g))
        self._pivots = _pivot_cols(self.basis)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def membership(self, v):
        """Integer coefficients of v over the stored basis, or None."""
        return solve_over_hnf(self.basis, self._pivots, v)

    def __contains__(self, v) -> bool:
        return self.membership(v) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerLattice):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis.shape == other.basis.shape
                and bool(np.all(self.basis == other.basis)))

    def __hash__(self):
        return hash((self.ambient_dim, self.basis.tobytes()
                     if self.basis.dtype != object else str(self.basis)))

    def __repr__(self):
        return f"IntegerLattice(dim={self.ambient_dim}, rank={self.rank})"

    def sum(self, other: "IntegerLattice") -> "IntegerLattice":
        self._check(other)
        if self.rank == 0:
            return other
        if other.rank == 0:
            return self
        stacked = np.vstack([self.basis.astype(object),
                             other.basis.astype(object)])
        return IntegerLattice(self.ambient_dim, stacked)

    def intersection(self, other: "IntegerLattice") -> "IntegerLattice":
        self._check(other)
        if self.rank == 0 or other.rank == 0:
            return IntegerLattice(self.ambient_dim)
        stacked = np.vstack([self.basis.astype(object),
                             -other.basis.astype(object)])
        ker = left_kernel(stacked)
        if ker.shape[0] == 0:
            return IntegerLattice(self.ambient_dim)
        vecs = ker[:, :self.rank] @ self.basis.astype(object)
        return IntegerLattice(self.ambient_dim, vecs)

    def index(self, sub: "IntegerLattice"):
        """[self : sub]; math.inf when ranks differ, error if sub not inside."""
        self._check(sub)
        coeff_rows = []
        for row in sub.basis:
            c = self.membership(row)
            if c is None:
                raise NotSublatticeError("not a sublattice")
            coeff_rows.append(c)
        if sub.rank < self.rank:
            return math.inf
        h = _nonzero_rows(hermite_normal_form(np.array(coeff_rows, dtype=object)))
        idx = 1
        for i in range(h.shape[0]):
            idx *= int(h[i, _pivot_cols(h)[i]])
        return idx

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


# ---------------------------------------------------------------------------
# GF(2) linear algebra on int bitsets (bit i of a row <-> column i).

def gf2_from_rows(rows, ncols: int) -> "GF2Matrix":
    packed = []
    for row in rows:
        x = 0
        for i, v in enumerate(row):
            if int(v) & 1:
                x |= 1 << i
        packed.append(x)
    return GF2Matrix(packed, ncols)


class GF2Matrix:
    __slots__ = ("rows", "ncols")

    def __init__(self, rows: list[int], ncols: int):
        self.rows = list(rows)
        self.ncols = ncols

    def rank(self) -> int:
        return len(self._rref()[0])

    def _rref(self):
        work = self.rows[:]
        pivots = []
        echelon = []
        for c in range(self.ncols):
            piv = None
            for i, r in enumerate(work):
                if (r >> c) & 1:
                    piv = i
                    break
            if piv is None:
                continue
            row = work.pop(piv)
            work = [r ^ row if (r >> c) & 1 else r for r in work]
            echelon = [r ^ row if (r >> c) & 1 else r for r in echelon]
            echelon.append(row)
            pivots.append(c)
        return pivots, echelon

    def solve(self, target) -> list[int] | None:
        """x with x @ rows == target (row-combination solve), or None."""
        t = 0
        for i, v in enumerate(target):
            if int(v) & 1:
                t |= 1 << i
        work = [(r, 1 << i) for i, r in enumerate(self.rows)]
        acc = (t, 0)
        reduced = []
        for c in range(self.ncols):
            piv = None
            for i, (r, _) in enumerate(work):
                if (r >> c) & 1:
                    piv = i
                    break
            if piv is None:
                continue
            prow = work.pop(piv)
            work = [(r ^ prow[0], k ^ prow[1]) if (r >> c) & 1 else (r, k)
                    for r, k in work]
            if (acc[0] >> c) & 1:
                acc = (acc[0] ^ prow[0], acc[1] ^ prow[1])
            reduced.append(prow)
        if acc[0]:
            return None
        return [(acc[1] >> i) & 1 for i in range(len(self.rows))]

    def kernel_basis(self) -> list[list[int]]:
        """Basis of {x : x @ rows == 0} over GF(2)."""
        n = len(self.rows)
        work = [(r, 1 << i) for i, r in enumerate(self.rows)]
        out = []
        for c in range(self.ncols):
            piv = None
            for i, (r, _) in enumerate(work):
                if (r >> c) & 1:
                    piv = i
                    break
            if piv is None:
                continue
            prow = work.pop(piv)
            work = [(r ^ prow[0], k ^ prow[1]) if (r >> c) & 1 else (r, k)
                    for r, k in work]
        for r, k in work:
            if r == 0:
                out.append([(k >> i) & 1 for i in range(n)])
        return out


def safe_matmul(a, b) -> np.ndarray:
    """Exact integer product, using int64 when a bound rules out overflow.

    The bound is applied whatever the operand dtypes, so object arrays with
    small entries are multiplied in int64 too.  Each factor counts as at
    least 1, which also keeps every entry of both operands castable.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    bound = (max(1, int(np.abs(a).max())) * max(1, int(np.abs(b).max()))
             * max(1, a.shape[1]))
    if bound < 2 ** 62:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)
