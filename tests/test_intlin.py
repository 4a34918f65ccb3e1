"""Exact integer / GF(2) linear algebra primitives."""

import numpy as np
import pytest

from sympderiv.intlin import (GF2Matrix, IntegerLattice, NotSublatticeError,
                              gf2_from_rows, hermite_normal_form,
                              kernel_lattice, left_kernel, safe_matmul)


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


def test_gf2_rank_and_solve():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    m = gf2_from_rows(rows, 3)
    assert m.rank() == 2
    sol = m.solve([0, 1, 1])
    assert sol is not None
    acc = 0
    masks = [0b101, 0b110, 0b011]
    for c, mask in zip(sol, masks):
        if c:
            acc ^= mask
    assert acc == 0b110
    assert m.solve([1, 1, 1]) is None


def test_gf2_kernel_basis():
    m = gf2_from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3)
    for v in m.kernel_basis():
        acc = 0
        rows = [0b011, 0b110, 0b101]
        for i, c in enumerate(v):
            if c:
                acc ^= rows[i]
        assert acc == 0


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
