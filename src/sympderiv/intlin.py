"""Exact integer and GF(2) linear algebra.

Every integer matrix the program keeps is ``narrowed``: int8 when every
entry lies in [-127, 127], as almost all do, int64 when every entry fits,
Python ints (dtype=object) otherwise.  Products never run in int8, but
on one of three paths, each under a bound read from ``max_abs`` that keeps
it exact (``safe_matmul``): in float64 for small operands, over the
nonzeros of both operands in int64 when either is sparse, through
``safe_einsum`` in int32 or int64; past its bound each widens to Python
ints.  The one sparse product (``sparse_terms``, summed by ``scatter``)
also scatters ``derivspace``'s generator columns and forms its
``gen_coords`` check.  The HNF computes on Python ints.  Everything
downstream only ever sees exact results.
Lattices are stored by their row-style HNF basis, the unique canonical
representative, so structural equality is lattice equality.

Most lattices here are very sparse (a few nonzeros per row).  Every HNF is
one loop (``_hnf_rows``) over rows held as sparse dicts of Python ints,
read from the nonzeros of an input of any integer dtype, whatever its
density, or of a stream of row blocks, each read as pulled; only what a
caller needs is assembled densely from those rows.  The ``IntegerLattice``
constructor, the one place where generators (a stack or a stream) become
a basis, assembles the nonzero rows, ``kernel_lattice`` the transform
parts of the zero rows, and ``IntegerLattice.intersection`` the right
halves of the rows of one Zassenhaus HNF.  The loop's pivot is a row of
least entry in its column and, among those, of fewest nonzeros, so that
the many dependent rows of a catalog batch, each reduced against the
pivot, stay sparse.

Over GF(2) there is one elimination (``gf2_rank``), on rows packed
into int bitsets, fully reduced.  It gives a GF(2) rank as its count of
rows, and the HNF of a mod-2 kernel {v : m v == 0 mod 2} directly, with
no integer HNF (``kernel_lattice``).

``safe_matmul`` multiplies in float64 (BLAS) when a product has at most
FLOAT_PRODUCT multiply-adds, float64 copies of at most BLOCK entries, and
partial sums below 2**53; otherwise over the nonzeros of both operands
when either has fewer than 1/SPARSE_PRODUCT of its entries nonzero, and
through ``safe_einsum`` otherwise.  Every path returns the same values.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import lru_cache, wraps

import numpy as np


class NotSublatticeError(ValueError):
    """Raised when an index [L1 : L2] is requested but L2 is not inside L1."""


def as_int_matrix(m) -> np.ndarray:
    """m as a 2-d integer array.  Integer and object arrays are returned as
    they are (so a small int8 map is never copied); nested Python ints are
    read exactly, as int64 when every entry fits and as object otherwise.
    Any other entry, such as a float, raises ValueError."""
    a = np.asarray(m)
    if a.dtype.kind not in "iu" and not isinstance(m, np.ndarray):
        # numpy reads an int past int64 as a float or an object
        a = np.array(m, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in a.flat):
            raise ValueError("expected integer entries")
        if all(-2 ** 63 <= x < 2 ** 63 for x in a.flat):
            a = a.astype(np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.dtype != object and a.dtype.kind not in "iu":
        raise ValueError(f"expected an integer matrix, not {a.dtype}")
    return a


def fits_int64(bound: int) -> bool:
    return bound < 2 ** 62


def max_abs(a) -> int:
    """The largest |entry| as a Python int (0 if none), from the max and the
    min: np.abs wraps at a dtype's minimum (np.abs(int8 -128) is -128)."""
    a = np.asarray(a)
    return max(int(a.max()), -int(a.min())) if a.size else 0


def narrowed(a: np.ndarray) -> np.ndarray:
    """a in the dtype of every stored array: int8 when every entry lies in
    [-127, 127] (-128 is left out, so that negation and abs never wrap),
    int64 when every entry lies in [-2**63, 2**63), object otherwise."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    dtype = (np.int8 if -127 <= lo and hi <= 127 else
             np.int64 if -2 ** 63 <= lo and hi < 2 ** 63 else object)
    return a.astype(dtype, copy=False)


def cached(fn):
    """fn memoized on its arguments, for the life of the process, with
    every ndarray of a result, returned alone or in a tuple, made read-only:
    the one rule for every value derived once and shared."""
    @lru_cache(maxsize=None)
    @wraps(fn)
    def memo(*args, **kwargs):
        out = fn(*args, **kwargs)
        for a in out if isinstance(out, tuple) else (out,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return out
    return memo


# Entries in a block of rows: the most in any mask ``nonzeros`` forms, and in
# the moved rows ``catalogs.orbit_closure`` tests at once (unless one
# matrix's alone hold more)
BLOCK = 2 ** 16


def nonzeros(a: np.ndarray):
    """Row and column indices of the nonzeros of a 2-d array, in row-major
    order (much faster than a 2-d ``np.nonzero``).  The mask of nonzeros is
    formed a block of rows of about BLOCK entries at a time, so none the
    size of a large array is held; ``np.flatnonzero`` of an int8 array with
    no mask is 6x slower."""
    width = max(1, a.shape[1])
    step = max(1, BLOCK // width)
    flat = [np.flatnonzero(a[i:i + step] != 0) + i * width
            for i in range(0, max(1, len(a)), step)]
    return np.divmod(np.concatenate(flat), width)


def row_nonzeros(b: np.ndarray):
    """The nonzeros of b row by row (``nonzeros``): where each row's run
    starts, len(b) + 1 places, the last the count of all, then their
    columns and values."""
    row, col = nonzeros(b)
    return np.searchsorted(row, np.arange(len(b) + 1)), col, b[row, col]


def runs(start, count):
    """The positions start_i + k, k < count_i, of every run i in order, and
    the run of each."""
    owner = np.repeat(np.arange(len(count)), count)
    first = (np.cumsum(count) - count)[owner]
    return owner, start[owner] + np.arange(len(owner)) - first


def _hnf_rows(a, transform: bool = False):
    """The one HNF loop: the rows of the HNF of ``a`` (any integer dtype)
    in order, as {column: int} dicts, and the rank.  ``a`` is a 2-d array,
    or an iterable of 2-d blocks of one width, the first's (none, no rows),
    whose rows, stacked, are the input; each block's nonzeros are read into
    the row dicts as the block is pulled, so the blocks are never stacked.
    With ``transform``, row i starts as a_i plus 1 in column ncols + i, so
    each row also holds its row of the transform past column ncols; the
    zero rows of the HNF, the last nrows - rank, then hold nothing before
    it.

    Rows are read from the nonzeros of ``a`` into dicts of Python ints, so
    no entry overflows.  Each row keeps its identity while ``order`` maps
    positions to rows, and ``cols[c]`` holds the rows nonzero in column c,
    so a pivot step touches only the rows live in its column and their
    nonzero entries.  Column by column, the row of least absolute value is
    the pivot, the rows below are reduced by floor quotients until it is
    alone, its sign is made positive, and the rows above are reduced
    modulo it.  Ties go to the row with the fewest nonzeros, transform part
    included, then to the first position (Markowitz's rule): each row
    reduced by the pivot gains at most the pivot's entries, so a sparse
    pivot fills in little, where a dense one fills in every dependent row
    it reduces.  The HNF does not depend on the pivots taken (Cohen, A
    Course in Computational Algebraic Number Theory, 2.4); only the
    transform can.
    """
    rows, cols = [], None
    for block in [a] if isinstance(a, np.ndarray) else a:
        if cols is None:
            cols = [set() for _ in range(block.shape[1])]
        ii, jj = nonzeros(block)
        vals = block[ii, jj].tolist()
        ii += len(rows)
        rows += [{} for _ in range(len(block))]
        for i, j, x in zip(ii.tolist(), jj.tolist(), vals):
            rows[i][j] = x
            cols[j].add(i)
    nrows, ncols = len(rows), len(cols or ())
    if transform:
        for i in range(nrows):
            rows[i][ncols + i] = 1
    order = list(range(nrows))
    pos = list(range(nrows))

    def subtract(t, q, p):
        """Row t -= q * row p (q nonzero)."""
        rt = rows[t]
        for k, x in rows[p].items():
            if k in rt:
                y = rt[k] - q * x
                if y:
                    rt[k] = y
                else:
                    del rt[k]
                    if k < ncols:
                        cols[k].discard(t)
            else:
                rt[k] = -q * x
                if k < ncols:
                    cols[k].add(t)

    def swap_in(t):
        """Move row t to position r."""
        top = order[r]
        order[r], order[pos[t]] = t, top
        pos[top], pos[t] = pos[t], r

    def make_positive(row):
        """Negate the row if its entry in column c is negative."""
        if row[c] < 0:
            for k in row:
                row[k] = -row[k]

    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        if len(cols[c]) == 1:
            # one row holds column c: at or below position r it is the
            # pivot, with no row above to reduce; above r, c is no pivot
            # column
            (t,) = cols[c]
            if pos[t] >= r:
                swap_in(t)
                make_positive(rows[t])
                r += 1
            continue
        # Euclidean reduction of column c below position r.
        while True:
            live = [t for t in cols[c] if pos[t] >= r]
            if not live:
                break
            piv = live[0] if len(live) == 1 else min(
                live, key=lambda t: (abs(rows[t][c]), len(rows[t]), pos[t]))
            swap_in(piv)
            live.remove(piv)
            if not live:
                break
            p = rows[piv][c]
            for t in live:
                subtract(t, rows[t][c] // p, piv)
            # a pivot +-1 leaves no remainder
            if p in (1, -1) or not any(c in rows[t] for t in live):
                break
        prow = rows[order[r]]
        if c not in prow:
            continue
        make_positive(prow)
        p = prow[c]
        for t in [t for t in cols[c] if pos[t] < r]:
            q = rows[t][c] // p
            if q:
                subtract(t, q, order[r])
        r += 1
    return [rows[t] for t in order], r


def _assemble(rows, width: int, shift: int = 0) -> np.ndarray:
    """Row dicts whose columns all lie in shift .. shift + width - 1 as one
    dense matrix of that width, allocated in its ``narrowed`` dtype."""
    entries = [(i, k - shift, x) for i, row in enumerate(rows)
               for k, x in row.items()]
    ii, kk, xs = zip(*entries) if entries else ((), (), ())
    xs = narrowed(np.array(xs, dtype=object))
    w = np.zeros((len(rows), width), dtype=xs.dtype)
    w[list(ii), list(kk)] = xs
    return w


def kernel_lattice(m, mod2: bool = False) -> "IntegerLattice":
    """Full integer kernel {v : m @ v == 0}, or {v : m @ v == 0 mod 2}, as a
    lattice in Z^cols.

    Over Z it is spanned by the transform parts of the zero rows of the
    HNF loop of m.T, rows of a unimodular matrix with v @ m.T == 0, so
    saturated; they are assembled alone, never the dense [h | u], and put
    in HNF by the constructor.  Mod 2 it is read from the GF(2)
    elimination of m's rows (``gf2_rank``), with no HNF: each reduced row
    R_c has its pivot c at its highest set bit, and no other row holds c.
    The basis has one row per column: 2e_c at each pivot column c, and at
    every other column f the row e_f plus e_c for each R_c that holds f, a
    vector of the GF(2) kernel, as R_c meets it at f and c alone.  Those
    rows and 2Z^cols span the preimage, of index 2^rank as the rows'
    determinant is.  They are already its HNF: row f's first nonzero is
    its 1 at f, as c > f; each column holds one pivot; above a pivot 1
    there is no other entry, and above a pivot 2 only 1s.  Bit f of R_c,
    read for every f at once, is column c of the basis past its
    identity."""
    a = as_int_matrix(m)
    n = a.shape[1]
    if not mod2:
        rows, rank = _hnf_rows(a.T, transform=True)
        return IntegerLattice(n, _assemble(rows[rank:], n, shift=len(a)))
    reduced = gf2_rank(a)
    size = (n + 7) // 8
    held = np.unpackbits(
        np.frombuffer(b"".join(r.to_bytes(size, "little") for r in reduced),
                      dtype=np.uint8).reshape(len(reduced), size),
        axis=1, count=n, bitorder="little")
    basis = np.eye(n, dtype=np.int8)
    basis[:, [r.bit_length() - 1 for r in reduced]] += held.T
    return IntegerLattice(n, basis, canonical=True)


def solve_over_hnf(basis: np.ndarray, pivots, rows, remainders=False):
    """Coefficients y with y @ basis == row for each row of a stack, over
    HNF rows, and a boolean mask of the rows they solve (the coefficients
    of the other rows are junk); with ``remainders``, also the rows it does
    not solve, each less y @ basis, formed in the copy that masking makes,
    in int64 unless a row or a product is wide.

    The rows are solved together by substitution on the pivot columns.  HNF
    reduces the entries above a pivot modulo it, so above a pivot 1 they
    are all 0 and its coefficient is the entry of the row itself.  The
    other pivots are solved in waves: each wave takes those with no
    unsolved pivot row above them that is nonzero in their column, dividing
    by the pivot with floor.  One product then checks the open columns of
    every row, which also rejects a remainder.  A column under a pivot 1 is
    not open: it holds no other entry, as the rows above are reduced to 0
    there and the rows below start further right, so y @ basis has the
    pivot's coefficient in it, the row's own entry, and a remainder 0.  The
    open columns are those of the other pivots and the columns without a
    pivot.  Products go through ``safe_matmul`` and widen under its bound.
    """
    rows = np.asarray(rows)
    pivots = np.asarray(pivots, dtype=np.intp)
    wide = basis.dtype == object or not fits_int64(max_abs(rows))
    # a fresh array: the indexing copies the pivot columns
    coeffs = rows[:, pivots].astype(object if wide else np.int64, copy=False)
    heads = basis[np.arange(len(pivots)), pivots]
    unit = heads == 1
    todo = np.flatnonzero(~unit)
    target = coeffs[:, todo]  # the row entries at the unsolved pivots
    coeffs[:, todo] = 0
    while todo.size:
        cols = pivots[todo]
        ready = ~np.triu(basis[todo][:, cols] != 0, 1).any(axis=0)
        rest = (target[:, ready]
                - safe_matmul(coeffs, basis[:, cols[ready]]))
        if rest.dtype == object:
            coeffs = coeffs.astype(object)
        coeffs[:, todo[ready]] = rest // heads[todo[ready]]
        todo, target = todo[~ready], target[:, ~ready]
    is_open = np.ones(basis.shape[1], dtype=bool)
    is_open[pivots[unit]] = False
    cols = np.flatnonzero(is_open)
    used = np.flatnonzero((coeffs != 0).any(axis=0))
    part = safe_matmul(coeffs[:, used], basis[np.ix_(used, cols)])
    solved = ~(part != rows[:, cols]).any(axis=1)
    if not remainders:
        return coeffs, solved
    exact = object if wide or part.dtype == object else np.int64
    rest = rows[~solved].astype(exact, copy=False)
    rest[:, pivots[unit]] = 0
    rest[:, cols] -= part[~solved]
    return coeffs, solved, rest


def _rows_of_width(rows, width: int) -> np.ndarray:
    """A stack of rows in Z^width as ``as_int_matrix`` reads it, an empty
    sequence as no rows: the one width check of every lattice's rows, which
    raises ValueError naming both widths."""
    shape = np.shape(rows)
    if len(shape) == 2 and shape[1] != width:
        raise ValueError(f"rows of width {shape[1]} for a lattice in "
                         f"Z^{width}")
    if shape[:1] == (0,):
        return np.zeros((0, width), dtype=np.int8)
    return as_int_matrix(rows)


def _pivot_cols(basis: np.ndarray) -> np.ndarray:
    """Column of the first nonzero entry of each row (rows are nonzero),
    read from the nonzeros, with no mask the size of the basis."""
    start, col, _ = row_nonzeros(basis)
    return col[start[:-1]]


class IntegerLattice:
    """A f.g. subgroup of Z^n held in canonical (row HNF) form, its basis a
    read-only view."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, generators=None, canonical: bool = False):
        """The span of ``generators``, one stack of rows or an iterator of
        stacks, each width-checked and read into one HNF loop as pulled
        (``_hnf_rows``); with ``canonical``, a stack already in HNF."""
        self.ambient_dim = ambient_dim
        rows = [] if generators is None else generators
        if canonical:
            basis = _rows_of_width(rows, ambient_dim)
            pivots = _pivot_cols(basis)
        else:
            blocks = rows if isinstance(rows, Iterator) else [rows]
            hnf, rank = _hnf_rows(_rows_of_width(b, ambient_dim)
                                  for b in blocks)
            basis = _assemble(hnf[:rank], ambient_dim)
            pivots = [min(row) for row in hnf[:rank]]  # least columns
        # a read-only view, so that a caller's own array stays writable
        self.basis = basis.view()
        self.basis.setflags(write=False)
        self._pivots = np.asarray(pivots, dtype=np.intp)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def _solve(self, rows, remainders=False):
        return solve_over_hnf(self.basis, self._pivots,
                              _rows_of_width(rows, self.ambient_dim),
                              remainders)

    def membership(self, rows):
        """Integer coefficients of each row of a stack over the stored
        basis, or None if some row is outside."""
        coeffs, solved = self._solve(rows)
        return coeffs if solved.all() else None

    def __contains__(self, v) -> bool:
        """Whether the one row v lies in the lattice."""
        return bool(self.contains_rows([v])[0])

    def contains_rows(self, rows) -> np.ndarray:
        """Boolean mask of the rows of a stack that lie in the lattice."""
        return self._solve(rows)[1]

    def remainders(self, rows) -> np.ndarray:
        """The rows of a stack outside the lattice, each less a member
        (``solve_over_hnf``), so spanning with it what they span; over the
        zero lattice, the nonzero rows, with no solve."""
        if self.rank:
            return self._solve(rows, remainders=True)[2]
        rows = _rows_of_width(rows, self.ambient_dim)
        return rows[rows.any(axis=1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerLattice):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis.shape == other.basis.shape
                and bool(np.all(self.basis == other.basis)))

    def __hash__(self):
        # from Python ints, so that bases equal in int8, int64 and object
        # dtype hash alike, as __eq__ calls them equal
        return hash((self.ambient_dim, tuple(map(tuple, self.basis.tolist()))))

    def __repr__(self):
        return f"IntegerLattice(dim={self.ambient_dim}, rank={self.rank})"

    def sum(self, rows) -> "IntegerLattice":
        """The span of the lattice and a stack of rows, or of an iterator of
        such stacks: the lattice of the basis followed by the blocks."""
        if not isinstance(rows, Iterator):
            rows = [rows]
        return IntegerLattice(self.ambient_dim,
                              itertools.chain([self.basis], rows))

    def intersection(self, other: "IntegerLattice") -> "IntegerLattice":
        """Zassenhaus: the HNF of [[A, A], [B, 0]] spans the pairs
        (a + b, a), and its rows whose left half is zero, those with a
        pivot in the right half, hold the HNF of A & B in their right half
        (a = -b lies in both)."""
        self._check(other)
        if self.rank == 0 or other.rank == 0:
            return IntegerLattice(self.ambient_dim)
        n = self.ambient_dim
        a, b = self.basis, other.basis
        rows, rank = _hnf_rows(np.block([[a, a], [b, np.zeros_like(b)]]))
        meet = [row for row in rows[:rank] if min(row) >= n]
        return IntegerLattice(n, _assemble(meet, n, shift=n), canonical=True)

    def index(self, sub: "IntegerLattice"):
        """[self : sub]; math.inf when ranks differ, error if sub not inside."""
        self._check(sub)
        coeffs = self.membership(sub.basis)
        if coeffs is None:
            raise NotSublatticeError("not a sublattice")
        if sub.rank < self.rank:
            return math.inf
        h = IntegerLattice(self.rank, coeffs)
        return math.prod(int(h.basis[i, c]) for i, c in enumerate(h._pivots))

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def gf2_rank(m) -> list[int]:
    """The one GF(2) elimination: the reduced rows of an integer matrix's
    rows read mod 2, as int bitsets (bit c of a row is its column c), one
    per unit of GF(2) rank, so the rank is their count.  Rows are packed
    eight columns to a byte (``np.packbits``).  Each row taken as a pivot
    row has its pivot at its highest set bit, which it clears from every
    other row, those taken before it and those left; the rows left that
    become 0 are dropped."""
    bits = np.packbits((as_int_matrix(m) % 2).astype(np.uint8), axis=1,
                       bitorder="little")
    work = [r for r in (int.from_bytes(b.tobytes(), "little") for b in bits)
            if r]
    done = []
    while work:
        row = work.pop()
        top = 1 << (row.bit_length() - 1)
        done = [r ^ row if r & top else r for r in done]
        work = [r ^ row if r & top else r for r in work]
        work = [r for r in work if r]
        done.append(row)
    return done


def safe_einsum(subscripts: str, *operands) -> np.ndarray:
    """Exact integer einsum over explicit subscripts such as "ab,bc->ac".

    Runs in int64 when the product of the operands' largest entries, times
    the number of terms summed into one output entry, is under 2**62, and
    in int32 when it is under 2**31; each factor counts as at least 1,
    which also keeps every entry of every operand castable.  Otherwise it
    runs on Python ints (dtype=object).  Under the bound the product goes
    through numpy's integer einsum loops (faster than integer matmul).
    """
    ops = [np.asarray(a) for a in operands]
    inputs, output = subscripts.split("->")
    sizes = {}
    for sub, a in zip(inputs.split(","), ops):
        sizes.update(zip(sub, a.shape))
    if any(a.size == 0 for a in ops):
        return np.zeros(tuple(sizes[c] for c in output), dtype=np.int64)
    bound = max(1, math.prod(n for c, n in sizes.items() if c not in output))
    bound *= math.prod(max(1, max_abs(a)) for a in ops)
    if fits_int64(bound):
        dtype = np.int32 if bound < 2 ** 31 else np.int64
        out = np.einsum(subscripts, *(a.astype(dtype, copy=False) for a in ops))
        return out.astype(np.int64, copy=False)
    return np.einsum(subscripts, *(a.astype(object) for a in ops))


# A product with either operand under 1/SPARSE_PRODUCT nonzero is formed
# over the nonzeros of both (``sparse_terms``).  Every integer product of
# `verify --all` is far sparser: 10 of 78 products at genus 3 and 40 of 69
# at genus 4 take that path, the rest float64 (FLOAT_PRODUCT), and none has
# a sparser operand past 1.7 % nonzero, so any threshold from 1/4 to 1/32
# sends the same products.  Replayed hot on a 2-vCPU Xeon VM they took 0.9
# and 6.0 ms, against 4.9 and 119 ms through einsum and 1.0 and 10.4 ms
# over the nonzeros of one operand with a dense row of the other gathered
# for each; the 1,201 integer products of genus-5 `trace-kernels`, of which
# one lies between 1/32 and 1/16 nonzero, 0.45 s against 1.99 and 0.51 s.
SPARSE_PRODUCT = 8


# A product of at most FLOAT_PRODUCT multiply-adds, whose operands and
# result hold at most BLOCK entries each and whose partial sums stay under
# 2**53, runs in float64 through BLAS (``safe_matmul``).  Replayed hot on a
# 2-vCPU Xeon VM, the products of `verify --all` that float64 could take
# ran, on the integer paths against float64: up to 2**20 multiply-adds,
# 8.5 against 2.5 ms at genus 3 (68 products) and 1.7-2.9 against
# 0.6-0.8 ms at genus 4 (29); from 2**20 to 2**21, 1.0 against 0.9 ms
# (8, genus 3); from 2**21 to 2**23, 0.7 against 1.0 ms (2), where the
# float64 copies cost more than BLAS saves.
FLOAT_PRODUCT = 2 ** 20


def safe_matmul(a, b) -> np.ndarray:
    """Exact integer product a @ b of two 2-d operands.

    A product of at most FLOAT_PRODUCT multiply-adds whose float64 copies
    hold at most BLOCK entries each runs in float64 when k max|a| max|b| <
    2**53, k the inner dimension, and returns int64: every partial sum, in
    whatever order BLAS adds, is then an integer of magnitude under 2**53,
    which float64 holds exactly, as it does each operand entry and each
    term.  Otherwise, when either operand has fewer than one nonzero entry
    in SPARSE_PRODUCT, the terms over the nonzeros of both operands
    (``sparse_terms``, the same terms whichever one is sparse) are
    scattered; other products go through ``safe_einsum``.  Every bound is
    applied whatever the operand dtypes, so object arrays with small
    entries are multiplied in float64 or int64."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    (m, k), n = a.shape, b.shape[1]
    if (m * k * n <= FLOAT_PRODUCT and max(a.size, b.size, m * n) <= BLOCK
            and k * max_abs(a) * max_abs(b) < 2 ** 53):
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    if (SPARSE_PRODUCT * np.count_nonzero(a) < a.size
            or SPARSE_PRODUCT * np.count_nonzero(b) < b.size):
        i, j = nonzeros(a)
        return scatter((m, n), *sparse_terms(i, j, a[i, j], row_nonzeros(b)))
    return safe_einsum("ij,jk->ik", a, b)


def sparse_terms(i, j, v, rows_of_b):
    """The terms of sum_t v_t e_i_t (x) b[j_t], one for each nonzero
    b[j_t, k] of row j_t of b, given by ``row_nonzeros(b)``: their rows
    i_t, columns k and values v_t b[j_t, k].  With (i_t, j_t, v_t) the
    nonzeros of a, they are the products of a @ b over the nonzeros of both
    operands (Gustavson's row-by-row product, ACM TOMS 4, 1978).

    The one bound rule: the terms of one output entry come from triplets
    of one row i, at most c, the most triplets of any row, whether or not
    their positions (i_t, j_t) repeat; the values are int64 when
    c max|v| max|b| < 2**62, so that every sum of them is exact too, else
    Python ints.  Only the gathered v_t are cast: v may hold entries past
    int64 that meet no nonzero of b."""
    start, col, val = rows_of_b
    t, at = runs(start[j], start[j + 1] - start[j])
    c = int(np.bincount(i, minlength=1).max())
    dtype = np.int64 if fits_int64(c * max_abs(v) * max_abs(val)) else object
    return i[t], col[at], v[t].astype(dtype) * val[at].astype(dtype)


def scatter(shape, i, k, terms) -> np.ndarray:
    """The terms summed into a zero array of the 2-d ``shape`` at rows i
    and columns k, in the terms' dtype."""
    out = np.zeros(shape, dtype=terms.dtype)
    np.add.at(out.reshape(-1), i * shape[1] + k, terms)
    return out
