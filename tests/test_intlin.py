"""Exact integer / GF(2) linear algebra primitives."""

from fractions import Fraction

import numpy as np
import pytest

from sympderiv.intlin import (GF2Matrix, IntegerLattice, NotSublatticeError,
                              hermite_normal_form, kernel_lattice, left_kernel,
                              safe_matmul, solve_over_hnf)


def random_matrix(rng, shape, lo=-5, hi=6):
    return rng.integers(lo, hi, size=shape)


def test_hnf_preserves_row_span():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_matrix(rng, (5, 7))
        h = hermite_normal_form(m)
        assert IntegerLattice(7, m) == IntegerLattice(7, h)


def test_hnf_transform_is_unimodular():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = random_matrix(rng, (4, 6))
        h, u = hermite_normal_form(m, transform=True)
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


def test_lattice_sum_and_intersection():
    a = IntegerLattice(2, np.array([[2, 0]]))
    b = IntegerLattice(2, np.array([[0, 2]]))
    s = a.sum(b)
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


def test_gf2_rank():
    assert GF2Matrix([0b101, 0b110, 0b011], 3).rank() == 2
    assert GF2Matrix([0b001, 0b010, 0b100], 3).rank() == 3


def test_safe_matmul_wide_entries():
    a = np.array([[10 ** 12]], dtype=object)
    b = np.array([[10 ** 12]], dtype=object)
    assert safe_matmul(a, b)[0, 0] == 10 ** 24
    small = safe_matmul(np.array([[2, 3]]), np.array([[4], [5]]))
    assert small[0, 0] == 23


def test_safe_matmul_int64_bound():
    # object operands with small entries are multiplied in int64
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


def test_safe_matmul_int32_tier():
    # max|a| * max|b| * inner just below 2**31: the int32 loop, exact
    a = np.array([[2 ** 15, 2 ** 15]])
    below = safe_matmul(a, np.array([[2 ** 15 - 1], [2 ** 15 - 1]]))
    assert below.dtype == np.int64 and below[0, 0] == 2 ** 31 - 2 ** 16
    # at 2**31 the sum would wrap in int32; int64 keeps it exact
    at = safe_matmul(a, np.array([[2 ** 15], [2 ** 15]]))
    assert at.dtype == np.int64 and at[0, 0] == 2 ** 31
    # a single row vector on the left
    assert safe_matmul(np.array([1, 2]), np.array([[3], [4]])).tolist() == [11]


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
    # the object path is exact by construction; the int64 path must agree
    assert np.array_equal(h, hermite_normal_form(m))


def test_hnf_entries_past_2_31_stay_exact():
    # entries above 2**31, but every update stays below 2**62: int64
    # throughout, and exact
    m = np.array([[1, 0, 2 ** 40], [0, 1, 2 ** 35],
                  [1, 1, 2 ** 40 + 2 ** 35 + 3]])
    h, u = hermite_normal_form(m, transform=True)
    assert h.dtype == np.int64 and h[2, 2] == 3
    check_hnf(m, h, u)
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = rng.integers(-2 ** 34, 2 ** 34, size=(4, 6))
        h, u = hermite_normal_form(m, transform=True)
        check_hnf(m, h, u)


def test_hnf_widens_past_update_bound():
    # the second row minus 5 times the first has -2**63 in column 1: the
    # update bound crosses 2**62, so the HNF must widen before the update
    m = np.array([[1, 2 ** 61, 0], [5, 2 ** 61, 1], [0, 3, 7]])
    h, u = hermite_normal_form(m, transform=True)
    assert h.dtype == object
    check_hnf(m, h, u)
    rng = np.random.default_rng(14)
    for _ in range(5):
        m = rng.integers(-2 ** 60, 2 ** 60, size=(3, 4))
        h, u = hermite_normal_form(m, transform=True)
        check_hnf(m, h, u)


def test_solve_over_hnf_batched_matches_rows():
    rng = np.random.default_rng(15)
    lat = IntegerLattice(6, random_matrix(rng, (4, 6)))
    basis, pivots = lat.basis, lat._pivots
    rows = rng.integers(-3, 4, size=(7, lat.rank)) @ basis
    batch = solve_over_hnf(basis, pivots, rows)
    assert batch.shape == (7, lat.rank)
    for row, coeffs in zip(rows, batch):
        assert np.array_equal(solve_over_hnf(basis, pivots, row), coeffs)
    assert np.array_equal(batch @ basis, rows)
    # one row outside the span makes the whole batch fail
    outside = rows.copy()
    outside[3, -1] += 1
    assert solve_over_hnf(basis, pivots, outside) is None
    # pivots 2, 2, 3 whose columns hold entries of the rows above: each
    # coefficient waits for those above it
    chain = np.array([[2, 1, 1], [0, 2, 1], [0, 0, 3]])
    ys = rng.integers(-5, 6, size=(6, 3))
    assert np.array_equal(solve_over_hnf(chain, [0, 1, 2], ys @ chain), ys)
    assert solve_over_hnf(chain, [0, 1, 2], [[2, 1, 2]]) is None
    # a non-integer coefficient: (1, 0) is half of a basis vector of 2Z + 3Z
    small = IntegerLattice(2, np.array([[2, 0], [0, 3]]))
    assert solve_over_hnf(small.basis, small._pivots, [[4, 3], [1, 0]]) is None
    assert small.membership([4, 3]).tolist() == [2, 1]


def test_solve_over_hnf_widens_exactly():
    # row 1: y = (2**30, -2**30); the step at the second pivot subtracts
    # 2**30 * (2**40 - 1), past the int64 bound, so it runs in object
    basis = np.array([[1, 2 ** 40 - 1], [0, 2 ** 40]])
    rows = [[2 ** 30, -2 ** 30], [1, 2 ** 41 - 1]]
    coeffs = solve_over_hnf(basis, [0, 1], rows)
    assert coeffs.dtype == object
    assert coeffs.tolist() == [[2 ** 30, -2 ** 30], [1, 1]]
    assert solve_over_hnf(basis, [0, 1], [2 ** 30, 1 - 2 ** 30]) is None


def test_sum_and_intersection_agree_across_dtypes():
    rng = np.random.default_rng(16)
    for _ in range(5):
        a = random_matrix(rng, (3, 5))
        b = random_matrix(rng, (4, 5))
        la, lb = IntegerLattice(5, a), IntegerLattice(5, b)
        oa = IntegerLattice(5, a.astype(object))
        ob = IntegerLattice(5, b.astype(object))
        assert oa.basis.dtype == object
        assert la.sum(lb) == oa.sum(ob)
        assert la.intersection(lb) == oa.intersection(ob)


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


def test_hnf_matches_sympy_hermite_normal_form():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(_int_matrices(hypothesis.strategies))
    def check(rows):
        m = _as_array(rows)
        hypothesis.assume(m.any())
        h = hermite_normal_form(m)
        ours = [[int(x) for x in row] for row in h if any(row)]
        # sympy's form is column-style with pivots read from the right:
        # transpose and reverse both axes to get the row HNF used here
        ref = sympy_hnf(sympy.Matrix(m[:, ::-1].T.tolist())).T[::-1, ::-1]
        assert ours == ref.tolist()

    check()


def test_left_kernel_is_saturated_against_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from sympy.matrices.normalforms import smith_normal_form

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(_int_matrices(hypothesis.strategies))
    def check(rows):
        m = _as_array(rows)
        k = left_kernel(m)
        a = sympy.Matrix(m.tolist())
        assert len(k) == a.rows - a.rank()
        if len(k):
            kk = sympy.Matrix([[int(x) for x in row] for row in k])
            assert (kk * a).is_zero_matrix
            # saturated: Z^n / span(k) is torsion-free
            snf = smith_normal_form(kk, domain=sympy.ZZ)
            assert all(abs(snf[i, i]) == 1 for i in range(kk.rows))

    check()
