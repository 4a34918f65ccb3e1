"""Exact integer / GF(2) linear algebra primitives."""

from fractions import Fraction

import numpy as np
import pytest

from sympderiv import intlin
from sympderiv.intlin import (IntegerLattice, NotSublatticeError,
                              as_int_matrix, gf2_rank, kernel_lattice,
                              narrowed, safe_einsum, safe_matmul,
                              solve_over_hnf)


def dense_hnf(m, transform: bool = False):
    """Every row of the HNF loop (``intlin._hnf_rows``), zero rows last,
    assembled densely (``intlin._assemble``): h, or (h, u) with u @ m == h,
    both in the one ``narrowed`` dtype of their entries together."""
    a = as_int_matrix(m)
    rows, _ = intlin._hnf_rows(a, transform)
    w = intlin._assemble(rows, sum(a.shape) if transform else a.shape[1])
    return tuple(np.hsplit(w, [a.shape[1]])) if transform else w


def left_kernel(m):
    """The HNF basis of {v : v @ m == 0}: ``kernel_lattice`` of m.T."""
    return kernel_lattice(as_int_matrix(m).T).basis


def random_matrix(rng, shape, lo=-5, hi=6):
    return rng.integers(lo, hi, size=shape)


def storage_dtype(entries):
    """The dtype the storage rule gives an array with these entries: int8
    when they all lie in [-127, 127], int64 when they all lie in
    [-2^63, 2^63), object otherwise."""
    entries = [int(x) for x in entries]
    if all(-127 <= x <= 127 for x in entries):
        return np.int8
    return np.int64 if all(-2 ** 63 <= x < 2 ** 63 for x in entries) else object


def test_cached_freezes_every_array_and_returns_the_same_object():
    """A lone array and each array of a tuple are made read-only, other
    values are left as they are, and a repeated call, positional or by
    keyword as before, returns the same object without a second build."""
    calls = []

    @intlin.cached
    def build(kind, n=2):
        calls.append((kind, n))
        if kind == "alone":
            return np.arange(n)
        return np.arange(n), [n], np.ones(n, dtype=np.int8), "label"

    alone = build("alone")
    assert not alone.flags.writeable
    out = build("tuple", n=3)
    assert not out[0].flags.writeable and not out[2].flags.writeable
    assert out[1] == [3] and out[3] == "label"
    out[1].append(4)  # a list in the result stays a list, and mutable
    assert build("alone") is alone and build("tuple", n=3) is out
    assert calls == [("alone", 2), ("tuple", 3)]


def test_hnf_preserves_row_span():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_matrix(rng, (5, 7))
        h = dense_hnf(m)
        assert IntegerLattice(7, m) == IntegerLattice(7, h)


def test_hnf_transform_is_unimodular():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = random_matrix(rng, (4, 6))
        h, u = dense_hnf(m, transform=True)
        assert np.array_equal(safe_matmul(u, np.asarray(m, dtype=object)), h)
        det = round(float(np.linalg.det(u.astype(float))))
        assert det in (1, -1)


def test_left_kernel_annihilates():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_matrix(rng, (6, 4))
        k = left_kernel(m)
        if len(k):
            assert not safe_matmul(k, np.asarray(m, dtype=object)).any()
        # rank-nullity over Q
        rank = np.linalg.matrix_rank(m.astype(float))
        assert len(k) == 6 - rank


def test_kernel_lattice_is_saturated():
    # kernel of v -> 2x + 4y is the saturated line (2,-1) Z
    m = np.array([[2, 4]])
    k = kernel_lattice(m)
    assert k.rank == 1
    assert np.array([2, -1]) in k
    assert np.array([-2, 1]) in k
    assert np.array([1, 0]) not in k


def test_lattice_membership_and_index():
    lat = IntegerLattice(2, np.array([[2, 0], [0, 3]]))
    assert np.array([4, 3]) in lat
    assert np.array([1, 0]) not in lat
    full = IntegerLattice(2, np.eye(2, dtype=np.int64))
    assert full.index(lat) == 6
    with pytest.raises(NotSublatticeError):
        lat.index(full)


LINE = IntegerLattice(3, [[1, 0, 0]])


@pytest.mark.parametrize("call, width, ambient", [
    (lambda: LINE.contains_rows([[0]]), 1, 3),
    (lambda: LINE.contains_rows([[1, 0, 0, 0]]), 4, 3),
    (lambda: LINE.membership([[1, 0]]), 2, 3),
    (lambda: [1, 0] in LINE, 2, 3),
    (lambda: LINE.sum([[1, 0]]), 2, 3),
    (lambda: IntegerLattice(3, [[1, 0]]), 2, 3),
    (lambda: IntegerLattice(3, [[1, 0]], canonical=True), 2, 3),
    (lambda: IntegerLattice(5, np.zeros((0, 3))), 3, 5),
    (lambda: IntegerLattice(3, iter([[[1, 0, 0]], [[1, 0]]])), 2, 3),
    (lambda: LINE.sum(iter([[[0, 1, 0]], [[1, 0]]])), 2, 3),
    (lambda: IntegerLattice(5, iter([np.zeros((0, 3))])), 3, 5),
], ids=["contains-narrower", "contains-wider", "membership", "in", "sum",
        "generators", "canonical", "empty-generators", "stream-second-block",
        "sum-stream-second-block", "empty-generators-stream"])
def test_rows_of_another_width_raise(call, width, ambient):
    # unchecked, a one-column stack would broadcast against the check
    # product, and no rows of width 3 would read as the zero lattice of Z^5
    with pytest.raises(ValueError, match=rf"width {width} .*Z\^{ambient}"):
        call()


def test_streamed_rows_span_the_lattice_of_their_stack():
    """A lattice built from a stream of row blocks, and the sum of a
    lattice and a stream, equal the lattice of the stacked rows: blocks of
    int8, int64 and object entries past 2^62, empty blocks and an empty
    stream included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.integers(-6, 6), st.integers(-2 ** 70, 2 ** 70))

    def streams(n):
        rows = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4)
        return st.tuples(st.just(n), st.lists(rows, max_size=4))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 6).flatmap(streams))
    def check(args):
        n, rows = args
        stack = IntegerLattice(n, [row for block in rows for row in block])
        blocks = [narrowed(np.array(b, dtype=object).reshape(-1, n))
                  for b in rows]
        assert IntegerLattice(n, iter(blocks)) == stack
        first = IntegerLattice(n, blocks[0] if blocks else None)
        assert first.sum(iter(blocks[1:])) == stack

    check()
    assert IntegerLattice(3, iter([])) == IntegerLattice(3)
    assert IntegerLattice(3, iter([])).rank == 0
    assert LINE.sum(iter([])) == LINE


def test_as_int_matrix_reads_ints_exactly_and_rejects_floats():
    # numpy reads 2^63 + 1 in a nested list as a float64, whose int64 cast
    # is wrong; the lattice keeps it exactly, in object dtype
    big = 2 ** 63 + 1
    lat = IntegerLattice(3, [[big, 0, 0]])
    assert lat.basis.dtype == object
    assert lat.basis.tolist() == [[big, 0, 0]]
    wide = intlin.as_int_matrix([[-2 ** 63 - 1, 2 ** 70], [1, 0]])
    assert wide.dtype == object
    assert wide.tolist() == [[-2 ** 63 - 1, 2 ** 70], [1, 0]]
    assert intlin.as_int_matrix([[2 ** 62, -1]]).dtype == np.int64
    assert intlin.as_int_matrix([[]]).dtype == np.int64
    small = np.ones((2, 2), dtype=np.int8)
    assert intlin.as_int_matrix(small) is small
    for bad in ([[1.5, 2]], [[2 ** 64, 0.5]], np.array([[1.0, 2.0]]),
                [["1", "2"]], np.ones((1, 2), dtype=bool)):
        with pytest.raises(ValueError):
            intlin.as_int_matrix(bad)
    with pytest.raises(ValueError):
        IntegerLattice(2, [[1.5, 2]])
    with pytest.raises(ValueError):
        kernel_lattice(np.array([[0.5, 1.0]]))


def test_lattice_sum_and_intersection():
    a = IntegerLattice(2, np.array([[2, 0]]))
    b = IntegerLattice(2, np.array([[0, 2]]))
    s = a.sum(b.basis)
    assert s.rank == 2
    assert a.intersection(b).rank == 0
    c = IntegerLattice(2, np.array([[1, 1]]))
    d = IntegerLattice(2, np.array([[2, 2], [0, 4]]))
    meet = c.intersection(d)
    assert meet.rank == 1
    assert np.array([2, 2]) in meet
    assert np.array([1, 1]) not in meet


def test_lattice_equality_ignores_generator_choice():
    rng = np.random.default_rng(10)
    m = random_matrix(rng, (3, 5))
    doubled = np.vstack([m, m[::-1], 2 * m])
    assert IntegerLattice(5, m) == IntegerLattice(5, doubled)


def bit_rows(bitsets, width):
    """0/1 rows of the given width, bit c of a bitset at column c."""
    return np.array([[(r >> c) & 1 for c in range(width)] for r in bitsets],
                    dtype=np.int64).reshape(len(bitsets), width)


def gf2_rank_by_count(rows):
    """The rank-only GF(2) elimination the reduced rows replaced, kept as
    a reference: rows as int bitsets, each pivot row clears its lowest set
    bit from the rows left, and only the count of pivots is kept."""
    work = [r for r in rows if r]
    rank = 0
    while work:
        row = work.pop()
        low = row & -row
        work = [r ^ row if r & low else r for r in work]
        work = [r for r in work if r]
        rank += 1
    return rank


def test_gf2_rank():
    def rank(bitsets):
        return len(gf2_rank(bit_rows(bitsets, 3)))

    assert rank([0b101, 0b110, 0b011]) == 2
    assert rank([0b001, 0b010, 0b100]) == 3
    assert rank([0, 0b110, 0b110, 0]) == 1
    assert rank([]) == 0


def test_gf2_rank_matches_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix
    rng = np.random.default_rng(20)
    for shape in [(12, 30), (40, 9), (25, 25)]:
        for density in (0.1, 0.5):
            m = (rng.random(shape) < density).astype(int)
            ref = DomainMatrix([[GF(2)(int(x)) for x in row] for row in m],
                               shape, GF(2)).rank()
            assert len(gf2_rank(m)) == ref


def assert_reduced(reduced, m):
    """The reduced rows of m: nonzero, with distinct pivots at their highest
    bits, each pivot set in its own row alone, as many as m's rank by the
    reference, and every row of m a sum of them."""
    tops = [r.bit_length() - 1 for r in reduced]
    assert 0 not in reduced and len(set(tops)) == len(tops)
    for r in reduced:
        assert sum((o >> (r.bit_length() - 1)) & 1 for o in reduced) == 1
    rows = [sum(1 << int(c) for c in np.flatnonzero(row % 2)) for row in m]
    assert len(reduced) == gf2_rank_by_count(rows) \
        == gf2_rank_by_count(rows + reduced)


def test_gf2_elimination_matches_the_rank_only_reference():
    """Random bit rows at several densities and widths (a width of 0, and
    widths on and off a byte's edge), and rows with entries past int64 that
    are read mod 2."""
    rng = np.random.default_rng(21)
    for shape in [(0, 4), (3, 0), (1, 1), (12, 30), (40, 9), (25, 25),
                  (9, 64), (70, 65)]:
        for density in (0.05, 0.3, 0.5, 0.9):
            m = (rng.random(shape) < density).astype(np.int64)
            assert_reduced(gf2_rank(m), m)
    wide = rng.integers(-3, 4, size=(6, 11)).astype(object)
    wide[0] += 2 ** 64
    wide[-1, -1] += 2 ** 63 + 1
    assert_reduced(gf2_rank(wide), wide)


def mod2_kernel_by_left_kernel(m):
    """The mod-2 kernel the GF(2) elimination replaced, kept as a
    reference: the first cols columns of the integer kernel of [m | 2I]."""
    a = as_int_matrix(m)
    n = a.shape[1]
    a = np.hstack([a, 2 * np.eye(len(a), dtype=np.int64)])
    return IntegerLattice(n, narrowed(kernel_lattice(a).basis[:, :n]),
                          canonical=True)


def assert_mod2_kernel_matches_reference(m):
    got, want = kernel_lattice(m, mod2=True), mod2_kernel_by_left_kernel(m)
    assert got == want and got.basis.dtype == want.basis.dtype == np.int8
    assert not got.basis.flags.writeable


def test_mod2_kernel_matches_the_left_kernel_reference():
    """On the hypothesis generators, small and sparse, entries past 2^62
    included, and on matrices with no rows or no columns."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(_int_matrices(st))
    def small(rows):
        assert_mod2_kernel_matches_reference(_as_array(rows))

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(_sparse_matrices(st))
    def sparse(m):
        assert_mod2_kernel_matches_reference(m)

    small()
    sparse()
    for shape in [(0, 5), (0, 0), (3, 0), (0, 9)]:
        assert_mod2_kernel_matches_reference(np.zeros(shape, dtype=np.int64))
    assert kernel_lattice(np.zeros((0, 5), dtype=np.int64), mod2=True) \
        == IntegerLattice(5, np.eye(5, dtype=np.int8))
    big = np.array([[2 ** 70 + 1, 3, -(2 ** 65)], [2 ** 63, 1, 1]],
                   dtype=object)
    assert_mod2_kernel_matches_reference(big)


def test_mod2_kernel_against_sympy():
    """{v : t @ v == 0 mod 2} for random t, some with entries past int64:
    every basis row lies in it, so does 2Z^n, its stored basis is its HNF
    in int8, and its index in Z^n is 2 to the GF(2) rank of t."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix
    rng = np.random.default_rng(30)
    for shape in [(1, 1), (3, 7), (8, 5), (6, 6), (4, 12)]:
        for wide in (False, True):
            t = random_matrix(rng, shape).astype(object)
            if wide:
                t[0] += 2 ** 64  # past int64, same parities
                t[-1, -1] += 2 ** 63 + 1  # past int64, parity flipped
            n = shape[1]
            k = kernel_lattice(t, mod2=True)
            assert k.ambient_dim == n
            assert not (safe_matmul(t, k.basis.T) % 2).any()
            assert k.contains_rows(2 * np.eye(n, dtype=np.int64)).all()
            assert k.basis.dtype == np.int8 and IntegerLattice(n, k.basis) == k
            rank = DomainMatrix([[GF(2)(int(x)) for x in row] for row in t],
                                shape, GF(2)).rank()
            whole = IntegerLattice(n, np.eye(n, dtype=np.int8), canonical=True)
            assert whole.index(k) == 2 ** rank


@pytest.mark.parametrize("a_shape, b_shape, sparse", [
    ((20, 3), (10, 1), "left"), ((40, 10), (3, 20), "right"),
    ((4, 5), (6, 3), "neither")],
    ids=["sparse-left", "sparse-right", "dense"])
def test_safe_matmul_rejects_misaligned_operands(a_shape, b_shape, sparse):
    """Operands whose inner dimensions differ raise whichever operand is
    sparse: the left one, the right one or neither."""
    a = np.zeros(a_shape, dtype=np.int64) + (sparse != "left")
    b = np.zeros(b_shape, dtype=np.int64) + (sparse != "right")
    a[0, 0] = b[0, 0] = 1
    with pytest.raises(ValueError, match="cannot multiply"):
        safe_matmul(a, b)


def test_safe_matmul_wide_entries():
    a = np.array([[10 ** 12]], dtype=object)
    b = np.array([[10 ** 12]], dtype=object)
    assert safe_matmul(a, b)[0, 0] == 10 ** 24
    small = safe_matmul(np.array([[2, 3]]), np.array([[4], [5]]))
    assert small[0, 0] == 23


def test_safe_matmul_int64_bound(monkeypatch):
    # object operands with small entries are multiplied in int64 (the
    # float64 path shut, as it would take them)
    monkeypatch.setattr(intlin, "FLOAT_PRODUCT", 0)
    small = safe_matmul(np.array([[2, 3]], dtype=object),
                        np.array([[4], [5]], dtype=object))
    assert small.dtype == np.int64 and small[0, 0] == 23
    # max|a| * max|b| * inner just below 2**62: int64, exact
    a = np.array([[2 ** 30, -2 ** 30]], dtype=object)
    below = safe_matmul(a, np.array([[2 ** 31 - 1], [-(2 ** 31 - 1)]]))
    assert below.dtype == np.int64
    assert below[0, 0] == 2 * 2 ** 30 * (2 ** 31 - 1)
    # at the bound and past int64 itself: object, exact
    at = safe_matmul(a, np.array([[2 ** 31], [-2 ** 31]]))
    assert at.dtype == object and at[0, 0] == 2 ** 62
    huge = np.array([[2 ** 40, 2 ** 40]], dtype=object)
    past = safe_matmul(huge, huge.T)
    assert past.dtype == object and past[0, 0] == 2 ** 81
    # a zero operand does not admit an entry too wide for int64
    zero = safe_matmul(np.array([[2 ** 70]], dtype=object),
                       np.zeros((1, 1), dtype=np.int64))
    assert zero[0, 0] == 0


def test_safe_einsum_int64_bound():
    """For every contraction the library takes through ``safe_einsum``,
    with every index of size 2 and every entry of an operand alike, so that
    each output entry is the bound itself, the terms summed times the
    largest entries: just under 2**31 and at 2**31, where an int32 sum
    would wrap, the result is int64 and exact; at 2**62 it is object and
    exact.  With any one index of size 0 it is int64 and all zero."""
    for subscripts in ["mi,ij,mj->m", "mp,mq->mpq", "t,t->t", "stk,stk->st",
                       "rmk,mk->rm", "ma,mb->mab"]:
        inputs, output = subscripts.split("->")
        inputs = inputs.split(",")
        terms = 2 ** len(set("".join(inputs)) - set(output))
        for bound, dtype in [(2 ** 31 - 2 ** 16, np.int64),
                             (2 ** 31, np.int64), (2 ** 62, object)]:
            first = bound // (terms * 2 ** (len(inputs) - 1))
            ops = [np.full((2,) * len(sub), 2 if k else first, dtype=np.int64)
                   for k, sub in enumerate(inputs)]
            out = safe_einsum(subscripts, *ops)
            assert out.dtype == dtype, (subscripts, bound)
            assert out.shape == (2,) * len(output), subscripts
            assert (out == bound).all(), (subscripts, bound)
        for empty in set("".join(inputs)):
            ops = [np.ones([0 if c == empty else 2 for c in sub], dtype=np.int8)
                   for sub in inputs]
            out = safe_einsum(subscripts, *ops)
            assert out.dtype == np.int64 and not out.any(), (subscripts, empty)
            assert out.shape == tuple(0 if c == empty else 2
                                      for c in output), (subscripts, empty)


@pytest.mark.parametrize("dtype, other", [(np.int8, 2 ** 61), (np.int64, 2)])
def test_safe_matmul_bound_at_a_dtypes_minimum(monkeypatch, dtype, other):
    # np.abs of a dtype's minimum wraps to the minimum itself: a bound read
    # through it takes the magnitude as 1 and runs -128 * 2^61 or -2^63 * 2
    # in int64, where both wrap to 0.  The minimum on either side, over the
    # nonzeros of both operands, of 1 x 1 operands and of a 1 x 16 row
    # times a 16 x 1 column
    shapes = _record_sparse_operands(monkeypatch)
    least = np.iinfo(dtype).min
    for width in (1, 16):
        row = np.zeros((1, width), dtype=dtype)
        col = np.zeros((width, 1), dtype=np.int64)
        row[0, -1], col[-1, 0] = least, other
        for a, b in [(row, col), (col.T, row.T)]:
            shapes.clear()
            out = safe_matmul(a, b)
            assert shapes == [(1, width)]
            assert out.dtype == object
            assert out.tolist() == (a.astype(object)
                                    @ b.astype(object)).tolist()
            assert out[0, 0] == least * other


def _record_paths(monkeypatch):
    """The integer path ``safe_matmul`` calls take, "sparse" (its terms over
    the nonzeros of both operands), one per call; a call that adds none ran
    in float64."""
    paths = []
    real = intlin.sparse_terms

    def recording(*args):
        paths.append("sparse")
        return real(*args)

    monkeypatch.setattr(intlin, "sparse_terms", recording)
    return paths


def test_safe_matmul_float64_bound(monkeypatch):
    """Operands whose bound k max|a| max|b| lies under 2^53 are multiplied
    in float64, where every partial sum is an integer float64 holds; at
    2^53 and past it they take the integer paths.  Either way the product
    is exact, in int64."""
    paths = _record_paths(monkeypatch)

    def in_float64(a, b):
        paths.clear()
        out = safe_matmul(a, b)
        assert out.dtype == np.int64 and out.shape == (len(a), b.shape[1])
        assert out.tolist() == (a.astype(object) @ b.astype(object)).tolist()
        return paths == []

    x = 2 ** 26
    a = np.array([[x, -x]])
    assert in_float64(a, np.array([[x - 1], [1 - x]]))  # 2^53 - 2^27
    assert not in_float64(a, np.array([[x], [-x]]))  # 2^53
    # 2^53 + 1, which a float64 sum rounds
    ones, wide = np.array([[1, 1]]), np.array([[2 ** 53], [1]])
    assert int((ones.astype(float) @ wide.astype(float))[0, 0]) == 2 ** 53
    assert not in_float64(ones, wide)
    # object operands with small entries
    assert in_float64(np.array([[2, 3]], dtype=object),
                      np.array([[4], [5]], dtype=object))
    # int8's minimum, whose magnitude np.abs would wrap
    least = np.array([[-128, -128]], dtype=np.int8)
    c = (2 ** 53 - 1) // 256
    assert in_float64(least, np.array([[c], [c]]))
    assert not in_float64(least, np.array([[c + 1], [c + 1]]))
    # empty operands
    for shape_a, shape_b in [((0, 3), (3, 4)), ((3, 0), (0, 4)),
                             ((3, 4), (4, 0))]:
        assert in_float64(np.zeros(shape_a, dtype=np.int8),
                          np.zeros(shape_b, dtype=object))
    # past FLOAT_PRODUCT multiply-adds, or with a float64 copy past BLOCK
    # entries (an operand or the product): the integer paths
    n = intlin.FLOAT_PRODUCT // (64 * 128)
    assert 64 * 128 * n == intlin.FLOAT_PRODUCT
    assert in_float64(np.ones((64, 128), dtype=np.int8),
                      np.ones((128, n), dtype=np.int8))
    assert not in_float64(np.ones((64, 128), dtype=np.int8),
                          np.ones((128, n + 1), dtype=np.int8))
    block = intlin.BLOCK
    assert in_float64(np.ones((1, block)), np.ones((block, 1)))
    assert not in_float64(np.ones((1, block + 1)), np.ones((block + 1, 1)))
    assert not in_float64(np.ones((block // 256 + 1, 1)), np.ones((1, 256)))


def test_safe_matmul_float64_path_matches_object_product(monkeypatch):
    """Over shapes, densities and magnitudes whose bound lies on either side
    of 2^53, the product equals the one on Python ints, and runs in float64
    exactly when the bound is under 2^53."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    paths = _record_paths(monkeypatch)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 12), st.integers(0, 12),
                      st.integers(0, 12), st.floats(0.05, 1),
                      st.integers(50, 56), st.integers(0, 56),
                      st.booleans(), st.integers(0, 2 ** 32 - 1))
    def check(m, k, n, density, bits, a_bits, objects, seed):
        # max|a| up to 2^a_bits and max|b| such that the bound is near
        # 2^bits
        rng = np.random.default_rng(seed)
        top_a = 2 ** min(a_bits, bits)
        top_b = max(1, 2 ** bits // (max(k, 1) * top_a))
        a = rng.integers(-top_a, top_a + 1, size=(m, k))
        b = rng.integers(-top_b, top_b + 1, size=(k, n))
        a[rng.random(a.shape) > density] = 0
        if a.size:
            a.flat[rng.integers(a.size)] = top_a * rng.choice([-1, 1])
        if objects:
            a, b = a.astype(object), b.astype(object)
        paths.clear()
        out = safe_matmul(a, b)
        assert out.tolist() == (a.astype(object) @ b.astype(object)).tolist()
        small = k * intlin.max_abs(a) * intlin.max_abs(b) < 2 ** 53
        assert (paths == []) == small
        if small:
            assert out.dtype == np.int64

    check()


def test_safe_matmul_never_calls_safe_einsum(monkeypatch):
    """Every product runs in float64 or over the nonzeros of both operands,
    at every density, the float64 path open or shut, up to fully dense
    64 x 128 times 128 x 129 operands past FLOAT_PRODUCT, with entries
    for int64 terms and for Python ints; none reaches ``safe_einsum``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def refused(*args):
        raise AssertionError("safe_matmul called safe_einsum")

    monkeypatch.setattr(intlin, "safe_einsum", refused)

    def check(a, b):
        out = safe_matmul(a, b)
        assert out.tolist() == (a.astype(object) @ b.astype(object)).tolist()

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 12), st.integers(0, 12),
                      st.integers(0, 12), st.floats(0, 1),
                      st.sampled_from([5, 2 ** 31, 2 ** 62]), st.booleans(),
                      st.integers(0, 2 ** 32 - 1))
    def products(m, k, n, density, big, shut, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-big, big + 1, size=(m, k), dtype=np.int64)
        b = rng.integers(-big, big + 1, size=(k, n), dtype=np.int64)
        a[rng.random(a.shape) >= density] = 0
        with monkeypatch.context() as patch:
            if shut:
                patch.setattr(intlin, "FLOAT_PRODUCT", 0)
            check(a, b)

    products()
    n = intlin.FLOAT_PRODUCT // (64 * 128) + 1
    rng = np.random.default_rng(41)
    for top in (2 ** 20, 2 ** 31):
        check(rng.integers(1, top, size=(64, 128)),
              rng.integers(1, top, size=(128, n)))


def exact_det(m):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(int(x)) for x in row] for row in m]
    det = Fraction(1)
    for i in range(len(a)):
        piv = next((r for r in range(i, len(a)) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


def check_hnf(m, h, u):
    m = np.asarray(m, dtype=object)
    assert np.array_equal(np.asarray(u, dtype=object) @ m, h)
    assert exact_det(u) in (1, -1)
    # an object input gives the same form
    assert np.array_equal(h, dense_hnf(m))


def test_hnf_entries_past_2_31_stay_exact():
    # entries above 2**31, but every update stays below 2**62: int64
    # throughout, and exact
    m = np.array([[1, 0, 2 ** 40], [0, 1, 2 ** 35],
                  [1, 1, 2 ** 40 + 2 ** 35 + 3]])
    h, u = dense_hnf(m, transform=True)
    assert h.dtype == np.int64 and h[2, 2] == 3
    check_hnf(m, h, u)
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = rng.integers(-2 ** 34, 2 ** 34, size=(4, 6))
        h, u = dense_hnf(m, transform=True)
        check_hnf(m, h, u)


def test_hnf_widens_past_update_bound():
    # the second row minus 5 times the first has -2**63 in column 1, past
    # int64: the HNF stays exact on Python ints and returns object
    m = np.array([[1, 2 ** 61, 0], [5, 2 ** 61, 1], [0, 3, 7]])
    h, u = dense_hnf(m, transform=True)
    assert h.dtype == object
    check_hnf(m, h, u)
    rng = np.random.default_rng(14)
    for _ in range(5):
        m = rng.integers(-2 ** 60, 2 ** 60, size=(3, 4))
        h, u = dense_hnf(m, transform=True)
        check_hnf(m, h, u)


def test_solve_over_hnf_batched_matches_rows():
    rng = np.random.default_rng(15)
    lat = IntegerLattice(6, random_matrix(rng, (4, 6)))
    basis, pivots = lat.basis, lat._pivots
    rows = rng.integers(-3, 4, size=(7, lat.rank)) @ basis
    batch, solved = solve_over_hnf(basis, pivots, rows)
    assert batch.shape == (7, lat.rank) and solved.all()
    for row, coeffs in zip(rows, batch):
        assert np.array_equal(solve_over_hnf(basis, pivots, row[None])[0][0],
                              coeffs)
        assert np.array_equal(lat.membership(row[None]), coeffs[None])
    assert np.array_equal(batch @ basis, rows)
    assert np.array_equal(lat.membership(rows), batch)
    # one row outside the span is masked, and fails the whole membership
    outside = rows.copy()
    outside[3, -1] += 1
    assert solve_over_hnf(basis, pivots, outside)[1].tolist() \
        == [True] * 3 + [False] + [True] * 3
    assert lat.membership(outside) is None
    # pivots 2, 2, 3 whose columns hold entries of the rows above: each
    # coefficient waits for those above it
    chain = np.array([[2, 1, 1], [0, 2, 1], [0, 0, 3]])
    ys = rng.integers(-5, 6, size=(6, 3))
    coeffs, solved = solve_over_hnf(chain, [0, 1, 2], ys @ chain)
    assert np.array_equal(coeffs, ys) and solved.all()
    assert not solve_over_hnf(chain, [0, 1, 2], [[2, 1, 2]])[1].any()
    # a non-integer coefficient: (1, 0) is half of a basis vector of 2Z + 3Z
    small = IntegerLattice(2, np.array([[2, 0], [0, 3]]))
    assert small.membership([[4, 3], [1, 0]]) is None
    assert small.membership([[4, 3]]).tolist() == [[2, 1]]


def test_solve_over_hnf_widens_exactly():
    # row 1: y = (2**30, -2**30); the step at the second pivot subtracts
    # 2**30 * (2**40 - 1), past the int64 bound, so it runs in object
    basis = np.array([[1, 2 ** 40 - 1], [0, 2 ** 40]])
    rows = [[2 ** 30, -2 ** 30], [1, 2 ** 41 - 1]]
    coeffs, solved = solve_over_hnf(basis, [0, 1], rows)
    assert coeffs.dtype == object and solved.all()
    assert coeffs.tolist() == [[2 ** 30, -2 ** 30], [1, 1]]
    assert not solve_over_hnf(basis, [0, 1], [[2 ** 30, 1 - 2 ** 30]])[1][0]


def test_solve_over_hnf_checks_the_open_columns():
    """A column under a unit pivot matches by the substitution itself, so
    only the non-unit pivot columns and the non-pivot columns are checked:
    a row that differs from a member at one of those alone is rejected,
    whether or not the difference is a multiple of the pivot."""
    # pivots 1 (column 0) and 3 (column 1); columns 2 and 3 hold none
    basis = np.array([[1, 2, 0, 5], [0, 3, 1, 7]], dtype=np.int8)
    lat = IntegerLattice(4, basis, canonical=True)
    member = [1, 5, 1, 12]  # (1, 1) @ basis
    for col, step in [(1, 1), (1, 2), (1, 3), (2, 1), (3, -1), (0, 1)]:
        row = list(member)
        row[col] += step
        coeffs, solved = solve_over_hnf(lat.basis, lat._pivots, [member, row])
        assert solved.tolist() == [True, False], (col, step)
        assert coeffs[0].tolist() == [1, 1]
        assert lat.membership([row]) is None


def _solve_full_check(basis, pivots, rows):
    """Reference for ``solve_over_hnf``: substitution one pivot after
    another on Python ints, dividing with floor, then every column of
    every row checked."""
    b = np.asarray(basis).astype(object)
    r = np.asarray(rows).astype(object)
    coeffs = np.zeros((len(r), len(pivots)), dtype=object)
    for i, p in enumerate(pivots):
        coeffs[:, i] = (r[:, p] - coeffs[:, :i] @ b[:i, p]) // b[i, p]
    return coeffs, (coeffs @ b == r).all(axis=1)


def _nudged_members(m, seed):
    """The lattice of m's rows, and eight random members of it, the first
    four nudged at one column each, ``narrowed``."""
    lat = IntegerLattice(m.shape[1], m)
    rng = np.random.default_rng(seed)
    y = rng.integers(-3, 4, size=(8, lat.rank)).astype(object)
    rows = y @ lat.basis.astype(object)
    at = rng.integers(0, m.shape[1], size=4)
    rows[np.arange(4), at] += rng.choice([-2, -1, 1, 2, 3], size=4)
    return lat, narrowed(rows)


def test_solve_over_hnf_matches_the_full_check():
    """On the hypothesis generators, small and sparse, the coefficients and
    the mask equal those of substitution with every column checked, for
    members and for members nudged at one column."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def check(m, seed):
        lat, rows = _nudged_members(m, seed)
        coeffs, solved = solve_over_hnf(lat.basis, lat._pivots, rows)
        want, mask = _solve_full_check(lat.basis, lat._pivots, rows)
        assert coeffs.tolist() == want.tolist()
        assert solved.tolist() == mask.tolist()
        assert solved[4:].all()

    seeds = st.integers(0, 2 ** 32 - 1)
    for matrices, examples in [(_int_matrices(st).map(_as_array), 100),
                               (_sparse_matrices(st), 25)]:
        hypothesis.settings(max_examples=examples, deadline=None,
                            database=None)(
            hypothesis.given(matrices, seeds)(check))()


def test_remainders_reduce_rows_over_the_lattice():
    """On the hypothesis generators, small and sparse, entries past 2^31
    and, in object arrays, past 2^62: the remainders ``solve_over_hnf``
    forms are those of the rows the full check rejects, each row less its
    substituted y @ basis, so a row's remainder is zero exactly when the
    row is a member.  Each row less its remainder is a member, each
    remainder is zero on every unit-pivot column, and the lattice and the
    remainders span the lattice of all the rows (``_nudged_members``)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def check(m, seed):
        lat, rows = _nudged_members(m, seed)
        _, solved, rest = solve_over_hnf(lat.basis, lat._pivots, rows,
                                         remainders=True)
        want, mask = _solve_full_check(lat.basis, lat._pivots, rows)
        full = rows.astype(object) - want @ lat.basis.astype(object)
        assert solved.tolist() == mask.tolist()
        assert (full.any(axis=1) == ~mask).all()
        assert rest.tolist() == full[~mask].tolist()
        assert lat.remainders(rows).tolist() == rest.tolist()
        assert lat.contains_rows(rows[~mask].astype(object) - rest).all()
        unit = lat._pivots[lat.basis[np.arange(lat.rank), lat._pivots] == 1]
        assert not rest[:, unit].any()
        assert lat.sum(rest) == lat.sum(rows)

    seeds = st.integers(0, 2 ** 32 - 1)
    for matrices, examples in [(_int_matrices(st).map(_as_array), 100),
                               (_sparse_matrices(st), 25)]:
        hypothesis.settings(max_examples=examples, deadline=None,
                            database=None)(
            hypothesis.given(matrices, seeds)(check))()


def test_remainders_widen_past_int64():
    """An int64 row past 2^62 less a small int64 product: its remainder
    leaves int64, so it is formed on Python ints."""
    lat = IntegerLattice(2, [[1, 1]])
    rows = np.array([[-1, 2 ** 63 - 1], [3, 3]], dtype=np.int64)
    rest = lat.remainders(rows)
    assert rest.dtype == object and rest.tolist() == [[0, 2 ** 63]]


def test_remainders_over_the_zero_lattice_make_no_solve(monkeypatch):
    """Over the zero lattice every nonzero row is its own remainder, read
    with no ``solve_over_hnf``."""
    calls = []
    monkeypatch.setattr(intlin, "solve_over_hnf",
                        lambda *args, **kw: calls.append(args))
    rows = np.array([[0, 2 ** 70, 1], [0, 0, 0], [3, 0, -1]], dtype=object)
    assert IntegerLattice(3).remainders(rows).tolist() == [[0, 2 ** 70, 1],
                                                          [3, 0, -1]]
    assert calls == []


def test_sum_and_intersection_agree_across_dtypes():
    rng = np.random.default_rng(16)
    # column 0 scaled by 2^64: an injective map, so it commutes with sums
    # and intersections, and its pivots take the bases past int64
    scale = np.array([2 ** 64, 1, 1, 1, 1], dtype=object)
    for _ in range(5):
        a = random_matrix(rng, (3, 5))
        b = random_matrix(rng, (4, 5))
        la, lb = IntegerLattice(5, a), IntegerLattice(5, b)
        # the same canonical bases, held as object arrays
        oa = IntegerLattice(5, la.basis.astype(object), canonical=True)
        ob = IntegerLattice(5, lb.basis.astype(object), canonical=True)
        assert oa.basis.dtype == object
        assert la.sum(lb.basis) == oa.sum(ob.basis)
        assert la.intersection(lb) == oa.intersection(ob)
        wa, wb = IntegerLattice(5, a * scale), IntegerLattice(5, b * scale)
        assert wa.basis.dtype == object
        assert wa.sum(wb.basis) == IntegerLattice(
            5, la.sum(lb.basis).basis * scale)
        meet = la.intersection(lb)
        assert wa.intersection(wb) == IntegerLattice(
            5, meet.basis * scale if meet.rank else None)


def test_index_matches_smith_normal_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = np.random.default_rng(17)
    for _ in range(5):
        lat = IntegerLattice(6, random_matrix(rng, (4, 6)))
        c = random_matrix(rng, (lat.rank, lat.rank), -3, 4)
        snf = smith_normal_form(sympy.Matrix(c.tolist()), domain=sympy.ZZ)
        expected = abs(int(sympy.prod(snf.diagonal())))
        sub = IntegerLattice(6, c @ lat.basis)
        if expected == 0:
            assert lat.index(sub) == float("inf")
        else:
            assert lat.index(sub) == expected
    assert IntegerLattice(3).index(IntegerLattice(3)) == 1


def _int_matrices(st):
    """Hypothesis strategy: small integer matrices, now and then with
    entries past 2^31 so that the widening paths run too."""
    entry = st.one_of(st.integers(-6, 6), st.integers(-2 ** 40, 2 ** 40))
    return st.integers(1, 6).flatmap(lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(st.lists(entry, min_size=c, max_size=c),
                           min_size=r, max_size=r)))


def _as_array(rows):
    a = np.array(rows, dtype=object)
    return a if max(abs(x) for x in a.flat) >= 2 ** 31 else a.astype(np.int64)


def sympy_row_hnf(sympy, m):
    """sympy's HNF of the rows of a nonzero matrix, as the row-style form
    used here (nonzero rows only), in lists of ints."""
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
    # sympy's form is column-style with pivots read from the right:
    # transpose and reverse both axes to get the row HNF used here
    ref = sympy_hnf(sympy.Matrix(m[:, ::-1].T.tolist()))
    return ref.T[::-1, ::-1].tolist()


def assert_hnf_matches_sympy(sympy, m):
    h = dense_hnf(m)
    ours = [[int(x) for x in row] for row in h if any(row)]
    assert ours == sympy_row_hnf(sympy, m)


def assert_intersection_matches_sympy(sympy, m):
    """A & B for A spanned by the first two thirds of the rows of m and B
    by the last two, the shared third doubled in B, against two routes
    from the generators: the rows of sympy's HNF of [[A, A], [B, 0]] with
    a zero left half, and the left kernel of [A; -B] mapped through A, in
    sympy's HNF."""
    n = m.shape[1]
    r = len(m)
    a = m[:(2 * r + 2) // 3]
    b = np.vstack([2 * m[r // 3:(2 * r + 2) // 3], m[(2 * r + 2) // 3:]])
    meet = IntegerLattice(n, a).intersection(IntegerLattice(n, b))
    ours = [[int(x) for x in row] for row in meet.basis]
    assert meet.basis.dtype == storage_dtype(x for row in ours for x in row)
    assert meet.basis.shape == (len(ours), n)
    zassenhaus = np.block([[a, a], [b, np.zeros_like(b)]])
    ref = [row[n:] for row in sympy_row_hnf(sympy, zassenhaus)
           if not any(row[:n])] if m.any() else []
    assert ours == ref
    ker = left_kernel(np.vstack([a, -b]))
    through_a = safe_matmul(ker[:, :len(a)], np.asarray(a, dtype=object))
    assert ours == (sympy_row_hnf(sympy, through_a)
                    if through_a.any() else [])


def assert_left_kernel_saturated(sympy, m):
    from sympy.matrices.normalforms import smith_normal_form
    k = left_kernel(m)
    a = sympy.Matrix(m.tolist())
    assert len(k) == a.rows - a.rank()
    if len(k):
        kk = sympy.Matrix([[int(x) for x in row] for row in k])
        assert (kk * a).is_zero_matrix
        # saturated: Z^n / span(k) is torsion-free
        snf = smith_normal_form(kk, domain=sympy.ZZ)
        assert all(abs(snf[i, i]) == 1 for i in range(kk.rows))


def test_hnf_matches_sympy_hermite_normal_form():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(_int_matrices(hypothesis.strategies))
    def check(rows):
        m = _as_array(rows)
        hypothesis.assume(m.any())
        assert_hnf_matches_sympy(sympy, m)

    check()


def test_left_kernel_is_saturated_against_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(_int_matrices(hypothesis.strategies))
    def check(rows):
        assert_left_kernel_saturated(sympy, _as_array(rows))

    check()


def test_intersection_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(_int_matrices(hypothesis.strategies))
    def check(rows):
        assert_intersection_matches_sympy(sympy, _as_array(rows))

    check()


@pytest.mark.parametrize("entry, dtype", [
    (2 ** 63 - 1, np.int64), (2 ** 63, object),
    (-2 ** 63, np.int64), (-2 ** 63 - 1, object),
    (127, np.int8), (-127, np.int8), (128, np.int64), (-128, np.int64)])
def test_left_kernel_dtype_at_the_int64_boundary(entry, dtype):
    # the kernel of v -> (v1 - entry v0, 2^70 v2) is the line (1, entry, 0):
    # its basis is assembled from the transform parts of the zero rows
    # alone, so its dtype follows its own entries, not the 2^70 of a
    # nonzero row: int8 down to -127, not -128, int64 down to -2^63
    m = np.array([[-entry, 0], [1, 0], [0, 2 ** 70]], dtype=object)
    k = left_kernel(m)
    assert k.dtype == dtype
    assert k.tolist() == [[1, entry, 0]]
    assert not safe_matmul(k.astype(object), m).any()
    # and with the large row left out, in int64 when every entry fits
    small = m[:2]
    if all(-2 ** 63 <= x < 2 ** 63 for x in small.flat):
        small = small.astype(np.int64)
    k = left_kernel(small)
    assert k.dtype == dtype and k.tolist() == [[1, entry]]
    assert not safe_matmul(k.astype(object), small.astype(object)).any()


def test_left_kernel_reads_small_integer_dtypes():
    # an int8 map gives the kernel of the same map in int64, both stored
    # in int8, as every entry of the kernel lies in [-127, 127]
    rng = np.random.default_rng(21)
    m = rng.integers(-2, 3, size=(30, 12)) * (rng.random((30, 12)) < 0.2)
    k = left_kernel(m.astype(np.int8))
    assert k.dtype == np.int8 == storage_dtype(k.flat)
    assert left_kernel(m).dtype == np.int8
    assert np.array_equal(k, left_kernel(m))
    assert IntegerLattice(12, m.astype(np.int8)) == IntegerLattice(12, m)


# -- sparse inputs and products -----------------------------------------------

def _sparse_matrices(st):
    """Hypothesis strategy: 20-60 rows of 20-60 columns with 1.5-3 %
    nonzero entries (as most lattices here are), mostly small, and in some
    matrices a few past 2^31 or past 2^62."""
    small = st.integers(-6, 6).filter(bool)

    def fill(r, c, big):
        entry = st.one_of(small, small, small,
                          st.integers(-big, big).filter(bool))
        cells = st.tuples(st.integers(0, r - 1), st.integers(0, c - 1), entry)
        return st.lists(cells, min_size=r * c // 66, max_size=r * c // 33).map(
            lambda cs: _sparse_array(r, c, cs))

    return st.tuples(st.integers(20, 60), st.integers(20, 60),
                     st.sampled_from([6, 2 ** 40, 2 ** 70])).flatmap(
        lambda args: fill(*args))


def _sparse_array(r, c, cells):
    """int64 when every entry fits, else object."""
    a = np.zeros((r, c), dtype=object)
    for i, j, x in cells:
        a[i, j] = x
    return a if any(abs(x) >= 2 ** 63 for *_, x in cells) else a.astype(np.int64)


def test_sparse_hnf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(_sparse_matrices(hypothesis.strategies))
    def check(m):
        hypothesis.assume(m.any())
        assert_hnf_matches_sympy(sympy, m)

    check()


def test_sparse_left_kernel_is_saturated_against_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(_sparse_matrices(hypothesis.strategies))
    def check(m):
        assert_left_kernel_saturated(sympy, m)

    check()


def test_sparse_intersection_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(_sparse_matrices(hypothesis.strategies))
    def check(m):
        assert_intersection_matches_sympy(sympy, m)

    check()


@pytest.mark.parametrize("density", [0.01, 0.05, 0.3, 1.0])
def test_hnf_is_canonical_at_every_density(density):
    # one loop for every input, from nearly empty to full matrices: u is
    # unimodular with u @ m == h, so h spans the rows of m, and h is its
    # own HNF, which is sympy's form of that span.  (sympy takes 9-19 s on
    # a 30 x 40 input itself at these densities, and milliseconds on h.)
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(18)
    for shape in [(30, 40), (40, 25), (12, 12)]:
        m = rng.integers(-4, 5, size=shape) * (rng.random(shape) < density)
        h, u = dense_hnf(m, transform=True)
        assert h.shape == m.shape and u.shape == (len(m), len(m))
        check_hnf(m, h, u)
        assert np.array_equal(dense_hnf(h), h)
        if m.any():
            assert_hnf_matches_sympy(sympy, h)
    # an update past 2^62 stays exact on Python ints: object h
    m = np.array([[1, 2 ** 61, 0, 0], [5, 2 ** 61, 1, 0], [0, 3, 7, 0],
                  [0, 0, 0, 0]])
    h, u = dense_hnf(m, transform=True)
    assert h.dtype == object
    check_hnf(m, h, u)


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (1, 70000), (700, 300),
                                   (5, 4)])
def test_nonzeros_and_pivots_across_row_blocks(shape):
    """The nonzeros, read a block of rows at a time, are those of
    ``np.nonzero`` in row-major order, and the pivot of each nonzero row is
    its first nonzero, in int8, int64 and object arrays."""
    rng = np.random.default_rng(shape[0])
    a = rng.integers(-2, 3, size=shape) * (rng.random(shape) < 0.01)
    for m in (a.astype(np.int8), a, a.astype(object) * 2 ** 70):
        row, col = intlin.nonzeros(m)
        want = np.nonzero(a)
        assert np.array_equal(row, want[0]) and np.array_equal(col, want[1])
        rows = m[np.flatnonzero(a.any(axis=1))]
        pivots = [int(np.flatnonzero(r != 0)[0]) for r in rows]
        assert intlin._pivot_cols(rows).tolist() == pivots


# -- the HNF loop against its scanning form ------------------------------------

def scanning_hnf_rows(a, transform=False):
    """``intlin._hnf_rows`` as it was before single-row columns were
    settled without a scan: every column lists its live rows and takes the
    pivot by ``min``, and every Euclidean pass rescans the column.  The
    reference for the rows, their order and the transform."""
    nrows, ncols = a.shape
    rows = [{} for _ in range(nrows)]
    cols = [set() for _ in range(ncols)]
    ii, jj = intlin.nonzeros(a)
    for i, j, x in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
        rows[i][j] = x
        cols[j].add(i)
    if transform:
        for i in range(nrows):
            rows[i][ncols + i] = 1
    order = list(range(nrows))
    pos = list(range(nrows))

    def subtract(t, q, p):
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

    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            live = [t for t in cols[c] if pos[t] >= r]
            if not live:
                break
            piv = min(live, key=lambda t: (abs(rows[t][c]), len(rows[t]),
                                           pos[t]))
            if pos[piv] != r:
                top = order[r]
                order[r], order[pos[piv]] = piv, top
                pos[top], pos[piv] = pos[piv], r
            live.remove(piv)
            if not live:
                break
            p = rows[piv][c]
            for t in live:
                subtract(t, rows[t][c] // p, piv)
            if not any(c in rows[t] for t in live):
                break
        prow = rows[order[r]]
        if c not in prow:
            continue
        if prow[c] < 0:
            for k in prow:
                prow[k] = -prow[k]
        p = prow[c]
        for t in [t for t in cols[c] if pos[t] < r]:
            q = rows[t][c] // p
            if q:
                subtract(t, q, order[r])
        r += 1
    return [rows[t] for t in order], r


def assert_hnf_rows_match_scanning(m):
    """The HNF loop gives the scanning form's rows, in order, and rank,
    with and without the transform."""
    for transform in (False, True):
        got = intlin._hnf_rows(m, transform)
        want = scanning_hnf_rows(m, transform)
        assert got[1] == want[1]
        assert [list(row.items()) for row in got[0]] \
            == [list(row.items()) for row in want[0]]


def test_single_row_columns_match_the_scanning_loop():
    # the first matrix: columns 0, 2 and 5 held by one row below r (the
    # non-unit 3, the negative -3, the negative unit -1), column 4 by one
    # row above r, and columns 1 and 3 by one live row under a row above
    m = np.array([[0, 2, 0, 5, 0, 0, 1],
                  [3, 1, 0, 0, -4, 0, -1],
                  [0, 0, 0, 7, 0, 0, 2],
                  [0, 0, -3, 0, 0, 0, 1],
                  [0, 0, 0, 0, 0, -1, 0]])
    # the second: Euclidean passes in column 2, the pivot 4 leaving the
    # remainder 1, then the pivot 1 clearing the column, and columns 1 and
    # 3 held by one negative row below r, column 6 by one row above
    m2 = np.array([[0, 0, 5, 0, 1, 0, 0],
                   [3, 0, 7, 0, 0, 0, 2],
                   [0, 0, 0, -2, 0, 0, 0],
                   [0, -1, 2, 0, 0, 0, 0],
                   [0, 0, 0, 0, 1, 4, 0],
                   [0, 0, 4, 0, 0, 1, 0],
                   [0, 0, 6, 0, 0, 0, 0]])
    for a in (m, m2):
        assert_hnf_rows_match_scanning(a)
        h, u = dense_hnf(a, transform=True)
        check_hnf(a, h, u)
    # single entries only, and no entry
    assert_hnf_rows_match_scanning(np.array([[0, -2, 0], [0, 0, 0],
                                             [-1, 0, 4]]))
    assert_hnf_rows_match_scanning(np.zeros((3, 4), dtype=np.int64))


def test_hnf_loop_matches_the_scanning_loop_on_sparse_inputs():
    # many columns held by one row, and rows made dependent on each other
    rng = np.random.default_rng(40)
    for density in (0.05, 0.15, 0.4):
        for shape in [(30, 40), (40, 25), (12, 12)]:
            m = rng.integers(-3, 4, size=shape) * (rng.random(shape) < density)
            assert_hnf_rows_match_scanning(m)
            dependent = rng.integers(-2, 3, size=(shape[0], 6)) @ m[:6]
            assert_hnf_rows_match_scanning(dependent)
    assert_hnf_rows_match_scanning(
        np.array([[1, 2 ** 61, 0, 0], [5, 2 ** 61, 1, 0], [0, 3, 7, 0]]))


# -- pivot ties ---------------------------------------------------------------

def _dependent_matrices(st):
    """Hypothesis strategy: 4-14 rows, each a combination with coefficients
    in -2..2 of the same 1-4 base rows of 3-10 columns.  Most rows are
    dependent, so the Euclidean passes run long, and the base rows have
    1 to all columns nonzero, so rows of equal least entry differ in
    length and the tie-break decides the pivot."""
    def base(c):
        return st.lists(st.integers(0, c - 1), min_size=1, max_size=c,
                        unique=True).flatmap(lambda cols: st.lists(
                            st.integers(-3, 3).filter(bool),
                            min_size=len(cols), max_size=len(cols)).map(
                                lambda vals: (cols, vals)))

    def build(c, k):
        combos = st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                          min_size=4, max_size=14)
        return st.tuples(st.just(c), st.lists(base(c), min_size=k, max_size=k),
                         combos)

    def assemble(args):
        c, bases, combos = args
        b = np.zeros((len(bases), c), dtype=np.int64)
        for i, (cols, vals) in enumerate(bases):
            b[i, cols] = vals
        return np.array(combos, dtype=np.int64) @ b

    return st.tuples(st.integers(3, 10), st.integers(1, 4)).flatmap(
        lambda args: build(*args)).map(assemble)


def test_dependent_rows_hnf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(_dependent_matrices(hypothesis.strategies))
    def check(m):
        hypothesis.assume(m.any())
        h, u = dense_hnf(m, transform=True)
        check_hnf(m, h, u)
        assert_hnf_matches_sympy(sympy, m)
        assert_left_kernel_saturated(sympy, m)

    check()


def test_tie_break_moves_the_pivot_past_a_remainder():
    # column 0 holds 2 in the dense row 0 and -2 in the sparse row 2: row 2
    # is the pivot, and reducing row 1 by it leaves the remainder -1, so a
    # second pass runs with row 2 still live and row 1 as pivot.  Row 0
    # then equals row 3 in column 1 on, and loses the tie there to row 3,
    # whose transform part is shorter
    m = np.array([[2, 1, 1, 1], [3, 0, 0, 0], [-2, 1, 0, 0], [0, 2, 1, 1]])
    h, u = dense_hnf(m, transform=True)
    assert h.tolist() == [[1, 0, 1, 1], [0, 1, 2, 2], [0, 0, 3, 3],
                          [0, 0, 0, 0]]
    check_hnf(m, h, u)
    # the dense row is never a pivot: only the kernel row of u uses it
    # (under first-position ties every row of u does)
    assert not u[:3, 0].any()
    assert u[3].tolist() == [1, 0, 1, -1]
    sympy = pytest.importorskip("sympy")
    assert_hnf_matches_sympy(sympy, m)
    assert_left_kernel_saturated(sympy, m)


def test_sparse_safe_matmul_int64_bound(monkeypatch):
    # a is sparse (3 nonzeros in 50): the product over its nonzeros (the
    # float64 path shut, as it would take the small products below)
    monkeypatch.setattr(intlin, "FLOAT_PRODUCT", 0)
    a = np.zeros((10, 5), dtype=object)
    a[0, 1], a[0, 3], a[2, 4] = 2 ** 30, -2 ** 30, 3

    def check(b):
        out = safe_matmul(a, b)
        assert np.array_equal(out, a @ b.astype(object))
        return out

    # nonzeros per row (2) * max|a| * max|b| just below 2**62: int64, exact
    b = np.full((5, 3), 2 ** 31 - 1, dtype=np.int64)
    b[3] = -(2 ** 31 - 1)
    assert check(b).dtype == np.int64
    # at the bound, and past int64 itself: object, exact
    assert check(np.where(b > 0, 2 ** 31, -2 ** 31)).dtype == object
    assert check(b.astype(object) * 2 ** 40).dtype == object
    # a one-row stack and a zero operand
    row = np.zeros((1, 20), dtype=np.int64)
    row[0, 3] = 1
    assert safe_matmul(row, np.arange(40).reshape(20, 2)).tolist() == [[6, 7]]
    assert not safe_matmul(np.zeros((3, 40), dtype=object),
                           np.full((40, 1), 2 ** 70, dtype=object)).any()
    # rows with up to a dozen nonzeros, some empty
    rng = np.random.default_rng(19)
    m = rng.integers(-9, 10, size=(30, 40)) * (rng.random((30, 40)) < 0.1)
    wide = rng.integers(-2 ** 40, 2 ** 40, size=(40, 3))
    assert np.array_equal(safe_matmul(m, wide),
                          m.astype(object) @ wide.astype(object))
    # two full rows among rows of one nonzero: the steps past the first
    # take the full rows' nonzeros only
    m = np.zeros((200, 60), dtype=np.int64)
    m[np.arange(200), rng.integers(0, 60, 200)] = rng.integers(1, 5, 200)
    m[[7, 150]] = rng.integers(-3, 4, size=(2, 60))
    b = rng.integers(-50, 50, size=(60, 4))
    assert np.array_equal(safe_matmul(m, b), m @ b)


def _record_sparse_operands(monkeypatch):
    """For each call of ``sparse_terms``, the count of the left operand's
    nonzeros it takes and the rows of the right operand, with the float64
    path shut, so that small operands take the paths under test."""
    monkeypatch.setattr(intlin, "FLOAT_PRODUCT", 0)
    shapes = []
    real = intlin.sparse_terms

    def recording(i, j, v, rows_of_b):
        shapes.append((len(i), len(rows_of_b[0]) - 1))
        return real(i, j, v, rows_of_b)

    monkeypatch.setattr(intlin, "sparse_terms", recording)
    return shapes


def test_right_sparse_safe_matmul_int64_bound(monkeypatch):
    # a is dense, b has one nonzero in each of two columns of 40: the
    # product over the nonzeros of both, every nonzero of a taken once
    shapes = _record_sparse_operands(monkeypatch)
    b = np.zeros((4, 40), dtype=np.int64)
    a = np.full((6, 4), 2 ** 30 - 1, dtype=np.int64)
    a[1] = -(2 ** 30 - 1)
    b[0, 3], b[2, 17] = 2 ** 30 - 1, -(2 ** 30 - 1)

    def check(a, b):
        shapes.clear()
        out = safe_matmul(a, b)
        assert shapes == [(np.count_nonzero(a), len(b))]
        assert np.array_equal(out, a.astype(object) @ b.astype(object))
        return out

    # nonzeros per row of a (4) * max|a| * max|b| just below 2**62: int64
    assert check(a, b).dtype == np.int64
    # at the bound: object, exact; so too past int64 itself
    assert check(np.sign(a) * 2 ** 30, np.sign(b) * 2 ** 30).dtype == object
    assert check(a.astype(object) * 2 ** 40, b).dtype == object
    # a one-row stack on the left
    assert check(a[:1], b).dtype == np.int64


def test_right_sparse_safe_matmul_matches_object_product(monkeypatch):
    """A sparse right operand times a dense or a sparse left one, with empty
    rows and columns on either side, equals the product on Python ints;
    the terms are formed once, over the nonzeros of both operands."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    shapes = _record_sparse_operands(monkeypatch)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(_sparse_matrices(st), st.integers(1, 30),
                      st.sampled_from([5, 2 ** 31, 2 ** 62]),
                      st.sampled_from([1, 0.05]), st.booleans(),
                      st.integers(0, 2 ** 32 - 1))
    def check(b, rows, big, density, empty, seed):
        # a dense or sparse left operand, its entries up to a bound that
        # takes the product to int64, to the 2^62 bound, or past it
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 6, size=(rows, b.shape[0])).astype(object)
        a[rng.random(a.shape) < 0.1] = big
        a[rng.random(a.shape) > density] = 0
        if empty:
            # empty rows and columns of a, and empty columns of b
            a[rng.random(rows) < 0.3] = 0
            a[:, rng.random(a.shape[1]) < 0.3] = 0
            b = b.copy()
            b[:, rng.random(b.shape[1]) < 0.3] = 0
        shapes.clear()
        out = safe_matmul(a, b)
        want = a @ b.astype(object)
        assert np.array_equal(out, want)
        assert shapes == [(np.count_nonzero(a), len(b))]

    check()


def test_lattice_hash_agrees_with_equality_across_dtypes():
    # a basis whose widest entry x puts it in each tier of the storage rule
    # in turn, and the same canonical basis held in every dtype that holds
    # it: all equal and hashed alike
    for x, dtype in [(2, np.int8), (127, np.int8), (-127, np.int8),
                     (128, np.int64), (-128, np.int64),
                     (2 ** 63 - 1, np.int64), (-2 ** 63, np.int64),
                     (2 ** 63, object), (-2 ** 63 - 1, object)]:
        basis = np.array([[1, 0, x], [0, 3, 5]], dtype=object)
        stored = IntegerLattice(3, basis)
        assert stored.basis.dtype == dtype
        tiers = [np.int8, np.int64, object]
        held = [IntegerLattice(3, basis.astype(t), canonical=True)
                for t in tiers[tiers.index(dtype):]]
        for lat in held:
            assert lat == stored and hash(lat) == hash(stored)
        assert len({stored, *held}) == 1


def test_contains_rows_masks_each_row():
    lat = IntegerLattice(2, np.array([[2, 0], [0, 3]]))
    rows = np.array([[4, 3], [1, 0], [0, -6], [2, 1]])
    assert lat.contains_rows(rows).tolist() == [True, False, True, False]
    coeffs, solved = solve_over_hnf(lat.basis, lat._pivots, rows)
    assert coeffs[solved].tolist() == [[2, 1], [0, -2]]
    assert lat.membership(rows) is None and rows[1] not in lat
    assert IntegerLattice(2).contains_rows(rows).tolist() == [False] * 4
