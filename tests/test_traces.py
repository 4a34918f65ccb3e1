"""Mod-2 and Lagrangian-side trace maps on the degree-2 lattice."""

import math

import numpy as np
import pytest

from sympderiv.derivspace import FiltrationError, space
from sympderiv.trees import eta2
from sympderiv import traces


@pytest.mark.parametrize("g", [2, 3])
def test_mod2_images_fill_omega_kernels(g):
    sp = space(g)
    assert traces.image_rank_sym(sp) == traces.omega_kernel_dim_sym(g) \
        == (g + 1) * (2 * g - 1)
    assert traces.image_rank_as(sp) == traces.omega_kernel_dim_ext(g) \
        == (g - 1) * (2 * g + 1)
    assert traces.image_in_omega_kernel(sp, "sym")
    assert traces.image_in_omega_kernel(sp, "as")


def test_kernel_indices_match_image_sizes():
    sp = space(2)
    assert sp.d2().index(traces.ker_tr_as(sp)) == 2 ** traces.image_rank_as(sp)
    assert sp.dprime2().index(traces.ker_tr_sym(sp)) \
        == 2 ** traces.image_rank_sym(sp)


def test_tr_as_on_generators():
    g = 2
    # a_1 . b_1 has omega = 1, so its antisymmetric trace vanishes
    assert traces.tr_as_gen(g, ("odot", (0, 2))) == 0
    # a_1 . a_2 has omega = 0 and contributes the class a_1 ^ a_2
    assert traces.tr_as_gen(g, ("odot", (0, 1))) != 0


def test_tr_sym_on_generators():
    g = 2
    assert traces.tr_sym_gen(g, ("tree", (0, 1), (2, 3))) != 0
    # both contractions of tree(a1 b1 | a1 b1) hit the same class and cancel
    assert traces.tr_sym_gen(g, ("tree", (0, 2), (0, 2))) == 0
    with pytest.raises(ValueError):
        traces.tr_sym_gen(g, ("odot", (0, 1)))


def test_tr_sym_and_tr_as_agree_off_diagonal():
    """On a tree generator the antisymmetric trace is the symmetric one
    with the diagonal classes dropped."""
    sp = space(2)
    n = 2 * sp.g
    sym_pairs = traces.sym2_pairs(n)
    ext_pairs = traces.ext2_pairs(n)
    ext_index = {p: i for i, p in enumerate(ext_pairs)}
    for i in sp.tree_indices[:30]:
        gen = sp.generators[i]
        s = traces.tr_sym_gen(sp.g, gen)
        a = traces.tr_as_gen(sp.g, gen)
        expect = 0
        for k, (x, y) in enumerate(sym_pairs):
            if (s >> k) & 1 and x != y:
                expect ^= 1 << ext_index[(x, y)]
        assert a == expect


def test_tr_A_unit_value():
    sp = space(2)
    ctx = sp.ctx
    e = [np.array(ctx.basis_vector(p)) for p in range(4)]
    # eta2(a1, b2 | b2, b1) traces to the single class b'_2 b'_2
    v = eta2(ctx, e[0], e[3], e[3], e[2])
    t = traces.tr_A(sp, v)
    expect = np.zeros(len(traces.sym2_pairs(2)), dtype=np.int64)
    expect[[p == (1, 1) for p in traces.sym2_pairs(2)].index(True)] = 1
    assert np.array_equal(np.abs(t), expect)


def test_tr_A_domain_check():
    sp = space(2)
    v = sp.gen_value(("odot", (2, 3)))  # b1 . b2 -- no A leaves at all
    with pytest.raises(FiltrationError):
        traces.tr_A(sp, v)
    # B-side trace accepts it
    traces.tr_B(sp, v)


def test_tr_A_additive():
    sp = space(2)
    rng = np.random.default_rng(21)
    basis = sp.filtration(0, "A").basis
    x = basis.T @ rng.integers(-2, 3, size=len(basis))
    y = basis.T @ rng.integers(-2, 3, size=len(basis))
    assert np.array_equal(traces.tr_A(sp, x + y),
                          traces.tr_A(sp, x) + traces.tr_A(sp, y))


def test_integer_kernels_sit_inside_mod2_kernels():
    sp = space(2)
    ka = traces.ker_tr_A(sp)
    for row in ka.basis[:6]:
        assert not traces.tr_A(sp, row).any()
    kas = traces.ker_tr_as(sp)
    assert traces.tr_as(sp, kas.basis[:6]) == [0] * 6


def test_pair_bases():
    assert len(traces.sym2_pairs(4)) == 10
    assert len(traces.ext2_pairs(4)) == 6
    assert traces.sym2_pairs(2) == [(0, 0), (0, 1), (1, 1)]
