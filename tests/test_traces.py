"""Mod-2 and Lagrangian-side trace maps on the degree-2 lattice."""

import math

import numpy as np
import pytest

from sympderiv.derivspace import FiltrationError, space
from sympderiv.trees import eta2
from sympderiv import traces
from test_freelie import lyndon_to_tensor


def tr_B(sp, v):
    """The B-side trace of one element or of a stack, as ``traces.tr_A``
    is the A-side one."""
    return traces._side_trace(sp, v, "B", True)


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
    # b1 . b2 -- no A leaves at all
    v = sp.gen_matrix()[:, sp.generators.index(("odot", (2, 3)))]
    with pytest.raises(FiltrationError):
        traces.tr_A(sp, v)
    # B-side trace accepts it
    tr_B(sp, v)


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


def side_trace_by_dicts(sp, v, side):
    """Reference side trace, one vector through dict algebra: keep
    H-factors in the side Lagrangian, kill that side in the Lie factor,
    contract the first two tensor slots by omega, and symmetrize the last
    two into S^2 of the quotient."""
    ctx = sp.ctx
    d3 = ctx.dim(3)
    side_letters = ctx.kill_letters(side)
    shift = ctx.g if side == "A" else 0
    index = {p: i for i, p in enumerate(traces.sym2_pairs(ctx.g))}
    out = [0] * len(index)
    for h in side_letters:
        block = v[h * d3:(h + 1) * d3]
        if not np.any(block):
            continue
        for word, c in lyndon_to_tensor(ctx, 3, block).items():
            if any(l in side_letters for l in word):
                continue
            w = ctx.omega_letters(h, word[0])
            if w:
                x, y = word[1] - shift, word[2] - shift
                out[index[(min(x, y), max(x, y))]] += w * int(c)
    return out


def _side_f0_columns(sp, side):
    which = 0 if side == "A" else 1
    cols = [i for i, gen in enumerate(sp.generators)
            if sp.classify_type(gen)[which] >= 1]
    return sp.gen_matrix()[:, cols].T


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("side", ["A", "B"])
def test_side_table_matches_dict_trace_on_generators(g, side):
    sp = space(g)
    rows = _side_f0_columns(sp, side)
    fn = traces.tr_A if side == "A" else tr_B
    stacked = fn(sp, rows)
    assert stacked.shape == (len(rows), len(traces.sym2_pairs(g)))
    for row, got in zip(rows, stacked):
        assert got.tolist() == side_trace_by_dicts(sp, row, side)
        assert np.array_equal(fn(sp, row), got)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("side", ["A", "B"])
def test_side_table_matches_dict_trace_on_combinations(g, side):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sp = space(g)
    basis = sp.filtration(0, side).basis
    fn = traces.tr_A if side == "A" else tr_B

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(st.lists(st.integers(-2 ** 40, 2 ** 40),
                               min_size=len(basis), max_size=len(basis)))
    def check(coeffs):
        v = np.array(coeffs, dtype=object) @ basis
        got = fn(sp, v)
        assert [int(x) for x in got] == side_trace_by_dicts(sp, v, side)

    check()


def test_tr_A_stack_raises_when_any_row_is_outside():
    sp = space(2)
    inside = _side_f0_columns(sp, "A")[:3]
    outside = sp.gen_matrix()[:, sp.generators.index(("odot", (2, 3)))]
    traces.tr_A(sp, inside)
    with pytest.raises(FiltrationError,
                       match="element is not in the A-side filtration level 0"):
        traces.tr_A(sp, np.vstack([inside, outside[None, :]]))
    # unchecked, the same stack is traced row by row
    rows = np.vstack([inside, outside[None, :]])
    got = traces.tr_A(sp, rows, check_domain=False)
    assert [r.tolist() for r in got] \
        == [side_trace_by_dicts(sp, r, "A") for r in rows]


def tr_omegaS_by_generators(sp, coeffs, s):
    """Reference S-twisted contraction on Python ints: each generator's
    2g x 2g contraction against S, then the coefficients' sum."""
    g = sp.g
    out = [[0] * (2 * g) for _ in range(2 * g)]

    def ws(p, q):
        return int(s[p - g][q - g]) if p >= g and q >= g else 0

    def add(x, y, c):
        out[x][y] += c
        out[y][x] += c

    for k, gen in zip(coeffs, sp.generators):
        k = int(k)
        if not k:
            continue
        if gen[0] == "tree":
            (p, q), (r, t) = gen[1], gen[2]
            add(q, r, k * ws(p, t))
            add(p, t, k * ws(q, r))
            add(q, t, -k * ws(p, r))
            add(p, r, -k * ws(q, t))
        else:
            p, q = gen[1]
            add(p, q, k * ws(p, q))
            out[q][q] -= k * ws(p, p)
            out[p][p] -= k * ws(q, q)
    return out


@pytest.mark.parametrize("g", [2, 3])
def test_omegaS_table_matches_generator_loop(g):
    sp = space(g)
    rng = np.random.default_rng(50 + g)
    coeffs = rng.integers(-3, 4, size=(4, len(sp.generators)))
    m = rng.integers(-3, 4, size=(3, g, g))
    mats = m + np.swapaxes(m, 1, 2)
    big = np.full((g, g), 2 ** 62 - 7, dtype=np.int64)
    big[0, 0] = -(2 ** 62) + 3
    mats = np.concatenate([mats, big[None], mats[:1] + 2 ** 31])
    got = traces.tr_omegaS(sp, coeffs, mats)
    assert got.shape == (len(coeffs), len(mats), 2 * g, 2 * g)
    for r, row in enumerate(coeffs):
        for j, s in enumerate(mats):
            want = tr_omegaS_by_generators(sp, row, s)
            assert [[int(x) for x in line] for line in got[r, j]] == want
            assert np.array_equal(traces.tr_omegaS(sp, row, s), got[r, j])
    with pytest.raises(ValueError, match="symmetric"):
        traces.tr_omegaS(sp, coeffs, np.triu(np.ones((g, g), dtype=np.int64)))
