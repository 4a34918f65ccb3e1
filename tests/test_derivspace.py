"""Degree-1 and degree-2 derivation lattices and the symplectic action."""

import itertools
import math

import numpy as np
import pytest

from sympderiv.catalogs import _transform_rows
from sympderiv.derivspace import MembershipError, gl_embed, iota_matrix, space
from sympderiv.intlin import IntegerLattice, kernel_lattice, safe_matmul
from sympderiv.trees import eta1

D2_RANK = {2: 20, 3: 105}
D1_RANK = {2: 4, 3: 20}  # C(2g, 3)


def gen_column(sp, gen):
    """The value of one generator: its column of the generator matrix."""
    return sp.gen_matrix()[:, sp.generators.index(gen)]


@pytest.mark.parametrize("g", [2, 3])
def test_d2_rank_two_ways(g):
    sp = space(g)
    assert sp.d2().rank == D2_RANK[g] == sp.d2_rank_by_count()


def d1(sp):
    """D_1, the kernel of the degree-1 bracket map H (x) L_2 -> L_3."""
    return kernel_lattice(sp.ctx.bracket_matrix(1))


@pytest.mark.parametrize("g", [2, 3])
def test_d1_rank(g):
    sp = space(g)
    assert d1(sp).rank == math.comb(2 * g, 3) == D1_RANK[g]


def test_d1_equals_tripod_span():
    sp = space(2)
    e = np.eye(sp.ctx.n, dtype=np.int64)
    triples = np.array(list(itertools.combinations(range(sp.ctx.n), 3)))
    tripods = eta1(sp.ctx, *e[triples.T])
    assert IntegerLattice(sp.ctx.n * sp.ctx.dim(2), tripods) == d1(sp)


def test_dprime_index():
    sp = space(2)
    assert sp.d2().index(sp.dprime2()) == 2 ** 6  # 2^{C(2g,2)}


def test_generator_values_live_in_d2():
    sp = space(2)
    d2 = sp.d2()
    for gen in sp.generators[:12]:
        assert gen_column(sp, gen) in d2


def test_express_roundtrip():
    sp = space(2)
    rng = np.random.default_rng(11)
    basis = sp.d2().basis
    v = basis.T @ rng.integers(-2, 3, size=sp.d2().rank)
    c = sp.express_in_generators(v)
    assert np.array_equal(sp.gen_matrix() @ c, v)
    with pytest.raises(MembershipError):
        bad = np.asarray(v).copy()
        bad[0] += 1
        sp.express_in_generators(bad)


def test_tree_expression_requires_dprime():
    sp = space(2)
    odot = gen_column(sp, ("odot", (0, 2)))
    with pytest.raises(MembershipError):
        sp.express_in_tree_generators(odot)
    tree = gen_column(sp, ("tree", (0, 2), (1, 3)))
    c = sp.express_in_tree_generators(tree)
    gm = sp.gen_matrix()[:, sp.tree_indices]
    assert np.array_equal(gm @ c, tree)


def test_classify_type():
    """A generator's type, its counts of A- and B-leaves, read from the
    leaf table."""
    sp = space(2)

    def counts(gen):
        leaves = sp.leaves[sp.generators.index(gen)]
        return int((leaves < sp.g).sum()), int((leaves >= sp.g).sum())

    assert counts(("odot", (0, 1))) == (4, 0)
    assert counts(("odot", (0, 2))) == (2, 2)
    assert counts(("tree", (0, 1), (2, 3))) == (2, 2)
    assert counts(("tree", (2, 3), (2, 3))) == (0, 4)


@pytest.mark.parametrize("g", [2, 3])
def test_leaf_table_reads_generator_names(g):
    """Row k of the leaf table holds the letters of generator k: p (.) q
    as (p, q, p, q) and tree(P, Q) as P + Q."""
    sp = space(g)
    assert not sp.leaves.flags.writeable
    assert sp.leaves.shape == (len(sp.generators), 4)
    for gen, row in zip(sp.generators, sp.leaves.tolist()):
        want = gen[1] + gen[1] if gen[0] == "odot" else gen[1] + gen[2]
        assert tuple(row) == want
    assert sp.tree_indices == [k for k, gen in enumerate(sp.generators)
                               if gen[0] == "tree"]


def test_filtration_is_nested():
    sp = space(2)
    prev = sp.filtration(-1)
    for level in range(4):
        cur = sp.filtration(level)
        assert all(row in prev for row in cur.basis)
        prev = cur
    assert sp.filtration(3).rank < sp.filtration(0).rank


def omega_gram(g):
    """The Gram matrix J = [[0, I], [-I, 0]] of omega."""
    z, i = np.zeros((g, g), dtype=np.int64), np.eye(g, dtype=np.int64)
    return np.block([[z, i], [-i, z]])


def is_symplectic(m):
    j = omega_gram(len(m) // 2)
    return bool(np.array_equal(m.T @ j @ m, j))


def test_symplectic_predicates():
    g = 2
    assert is_symplectic(np.eye(2 * g, dtype=np.int64))
    assert is_symplectic(iota_matrix(g))
    assert np.array_equal(iota_matrix(g), omega_gram(g))
    bad = np.eye(2 * g, dtype=np.int64)
    bad[0, 1] = 1
    assert not is_symplectic(bad)
    p = np.array([[1, 1], [0, 1]])
    assert is_symplectic(gl_embed(g, p))


def test_gl_embed_inverts_exactly():
    p = np.array([[2, 1, 0], [1, 1, 0], [3, 0, 1]])
    m = gl_embed(3, p)
    assert np.array_equal(p.T @ m[3:, 3:], np.eye(3, dtype=np.int64))
    assert is_symplectic(m)
    for bad in ([[2, 0], [0, 1]], [[1, 2], [2, 4]]):
        with pytest.raises(ValueError):
            gl_embed(2, np.array(bad))


def test_iota_swaps_sides():
    g = 2
    m = iota_matrix(g)
    e0 = np.zeros(2 * g, dtype=np.int64)
    e0[0] = 1
    img = m @ e0
    assert abs(img[g]) == 1 and img[0] == 0


def test_action_preserves_d2():
    sp = space(2)
    d2 = sp.d2()
    rng = np.random.default_rng(12)
    p = np.array([[1, 2], [0, 1]])
    m = gl_embed(2, p)
    v = d2.basis.T @ rng.integers(-2, 3, size=d2.rank)
    assert _transform_rows(sp.ctx, m, [v], 3)[0] in d2


def test_action_is_functorial():
    sp = space(2)
    m1 = gl_embed(2, np.array([[1, 1], [0, 1]]))
    m2 = gl_embed(2, np.array([[0, 1], [1, 0]]))
    rows = np.eye(sp.ambient_dim, dtype=np.int64)
    a12 = _transform_rows(sp.ctx, safe_matmul(m1, m2), rows, 3)
    composed = _transform_rows(sp.ctx, m1,
                               _transform_rows(sp.ctx, m2, rows, 3), 3)
    assert np.array_equal(a12, composed)


def test_ker_projection_inside_d2():
    sp = space(2)
    ka = sp.ker_projection("A")
    d2 = sp.d2()
    assert 0 < ka.rank < d2.rank
    for row in ka.basis:
        assert row in d2
        # the quotient coordinate map really kills it
        assert not (sp.quotient_map_matrix("A") @ row).any()
