"""Mod-2 and Lagrangian-side trace maps on the degree-2 lattice."""

import math

import numpy as np
import pytest

from sympderiv.derivspace import FiltrationError, space
from sympderiv.freelie import context
from sympderiv.trees import eta2
from sympderiv import traces
from test_freelie import lyndon_to_tensor


def omega(g, p, q):
    """omega(e_p, e_q) of two basis letters."""
    ctx = context(g)
    return ctx.omega(ctx.basis_vector(p), ctx.basis_vector(q))


def sym2_pairs(n):
    """The pairs i <= j of n letters, in the S^2 basis order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def ext2_pairs(n):
    """The pairs i < j of n letters, in the Lambda^2 basis order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _tree_trace_terms(g, tree_gen):
    (p, q), (r, s) = tree_gen[1], tree_gen[2]
    return [(omega(g, p, s), (q, r)), (omega(g, p, r), (q, s)),
            (omega(g, q, s), (p, r)), (omega(g, q, r), (p, s))]


def tr_sym_gen(g, gen):
    """Reference tr_sym of a tree generator, from its name: the set of
    classes x y, x <= y, hit an odd number of times."""
    if gen[0] != "tree":
        raise ValueError("tr_sym is only defined on tree generators")
    out = set()
    for w, (x, y) in _tree_trace_terms(g, gen):
        if w % 2:
            out ^= {(min(x, y), max(x, y))}
    return out


def tr_as_gen(g, gen):
    """Reference tr_as of any generator, from its name: the set of classes
    x ^ y, x < y, hit an odd number of times."""
    if gen[0] == "odot":
        p, q = gen[1]
        return {(p, q)} if (1 + omega(g, p, q)) % 2 else set()
    out = set()
    for w, (x, y) in _tree_trace_terms(g, gen):
        if w % 2 and x != y:
            out ^= {(min(x, y), max(x, y))}
    return out


def classes(row, pairs):
    """The pairs at the 1-entries of a 0/1 trace row."""
    return {pairs[c] for c in np.flatnonzero(row)}


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
    sp = space(2)
    rows = traces._gf2_table(sp, "as")
    # a_1 . b_1 has omega = 1, so its antisymmetric trace vanishes
    assert not rows[sp.generators.index(("odot", (0, 2)))].any()
    # a_1 . a_2 has omega = 0 and contributes the class a_1 ^ a_2
    assert classes(rows[sp.generators.index(("odot", (0, 1)))],
                   ext2_pairs(4)) == {(0, 1)}
    assert tr_as_gen(2, ("odot", (0, 2))) == set()
    assert tr_as_gen(2, ("odot", (0, 1))) == {(0, 1)}


def test_tr_sym_on_generators():
    sp = space(2)
    rows = traces._gf2_table(sp, "sym")

    def row(gen):
        return rows[sp.tree_indices.index(sp.generators.index(gen))]

    assert row(("tree", (0, 1), (2, 3))).any()
    # both contractions of tree(a1 b1 | a1 b1) hit the same class and cancel
    assert not row(("tree", (0, 2), (0, 2))).any()
    assert tr_sym_gen(2, ("tree", (0, 1), (2, 3)))
    assert tr_sym_gen(2, ("tree", (0, 2), (0, 2))) == set()
    with pytest.raises(ValueError):
        tr_sym_gen(2, ("odot", (0, 1)))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_mod2_tables_match_generator_formulas(g):
    """Every row of the tr_as and tr_sym tables is the reference formula
    of its generator, read from the generator's name."""
    sp = space(g)
    n = 2 * g
    as_rows = traces._gf2_table(sp, "as")
    sym_rows = traces._gf2_table(sp, "sym")
    assert as_rows.shape == (len(sp.generators), len(ext2_pairs(n)))
    assert sym_rows.shape == (len(sp.tree_indices), len(sym2_pairs(n)))
    assert set(np.unique(as_rows)) | set(np.unique(sym_rows)) <= {0, 1}
    for gen, row in zip(sp.generators, as_rows):
        assert classes(row, ext2_pairs(n)) == tr_as_gen(g, gen)
    for k, row in zip(sp.tree_indices, sym_rows):
        assert classes(row, sym2_pairs(n)) == tr_sym_gen(g, sp.generators[k])


def test_tr_sym_and_tr_as_agree_off_diagonal():
    """On a tree generator the antisymmetric trace is the symmetric one
    with the diagonal classes dropped."""
    sp = space(2)
    n = 2 * sp.g
    as_rows = traces._gf2_table(sp, "as")[sp.tree_indices]
    sym_rows = traces._gf2_table(sp, "sym")
    for a, s in zip(as_rows, sym_rows):
        assert classes(a, ext2_pairs(n)) == {
            (x, y) for x, y in classes(s, sym2_pairs(n)) if x != y}


@pytest.mark.parametrize("which", ["as", "sym"])
def test_image_in_omega_kernel_fails_on_an_odd_row(monkeypatch, which):
    """One image row that pairs oddly with omega mod 2 (the class a_1 b_1
    added to it) makes the answer False."""
    sp = space(2)
    assert traces.image_in_omega_kernel(sp, which)
    real = traces._gf2_image_rows(sp, which)
    pairs = ext2_pairs(4) if which == "as" else sym2_pairs(4)
    odd = real.copy()
    odd[3, pairs.index((0, 2))] ^= 1
    monkeypatch.setattr(traces, "_gf2_image_rows", lambda sp, which: odd)
    assert not traces.image_in_omega_kernel(sp, which)


def test_tr_A_unit_value():
    sp = space(2)
    ctx = sp.ctx
    e = [np.array(ctx.basis_vector(p)) for p in range(4)]
    # eta2(a1, b2 | b2, b1) traces to the single class b'_2 b'_2
    v = eta2(ctx, e[0], e[3], e[3], e[2])
    t = traces.tr_A(sp, v)
    expect = np.zeros(len(sym2_pairs(2)), dtype=np.int64)
    expect[sym2_pairs(2).index((1, 1))] = 1
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
    as_rows = traces.tr_as(sp, kas.basis[:6])
    assert as_rows.shape == (6, len(ext2_pairs(4))) and not as_rows.any()


def test_pair_bases():
    """The trace columns are the pairs in ``np.triu_indices`` order."""
    assert len(sym2_pairs(4)) == 10
    assert len(ext2_pairs(4)) == 6
    assert sym2_pairs(2) == [(0, 0), (0, 1), (1, 1)]
    for n in (2, 4):
        for k, pairs in ((0, sym2_pairs(n)), (1, ext2_pairs(n))):
            assert list(zip(*np.triu_indices(n, k))) == pairs
            col = traces._pair_columns(n, k)
            assert [col[x, y] for x, y in pairs] == list(range(len(pairs)))
            assert np.array_equal(col, col.T)


def side_trace_by_dicts(sp, v, side):
    """Reference side trace, one vector through dict algebra: keep
    H-factors in the side Lagrangian, kill that side in the Lie factor,
    contract the first two tensor slots by omega, and symmetrize the last
    two into S^2 of the quotient."""
    ctx = sp.ctx
    d3 = ctx.dim(3)
    side_letters = ctx.kill_letters(side)
    shift = ctx.g if side == "A" else 0
    index = {p: i for i, p in enumerate(sym2_pairs(ctx.g))}
    out = [0] * len(index)
    for h in side_letters:
        block = v[h * d3:(h + 1) * d3]
        if not np.any(block):
            continue
        for word, c in lyndon_to_tensor(ctx, 3, block).items():
            if any(l in side_letters for l in word):
                continue
            w = omega(ctx.g, h, word[0])
            if w:
                x, y = word[1] - shift, word[2] - shift
                out[index[(min(x, y), max(x, y))]] += w * int(c)
    return out


def _side_f0_columns(sp, side):
    """The generators with a leaf on the side, from their names."""
    on_side = (lambda l: l < sp.g) if side == "A" else (lambda l: l >= sp.g)
    cols = [i for i, gen in enumerate(sp.generators)
            if any(on_side(l) for pair in gen[1:] for l in pair)]
    return sp.gen_matrix()[:, cols].T


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("side", ["A", "B"])
def test_side_table_matches_dict_trace_on_generators(g, side):
    sp = space(g)
    rows = _side_f0_columns(sp, side)
    fn = traces.tr_A if side == "A" else tr_B
    stacked = fn(sp, rows)
    assert stacked.shape == (len(rows), len(sym2_pairs(g)))
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


def omegaS_of_generator(g, gen, s):
    """Reference S-twisted contraction of one generator against the
    symmetric matrix S, from its name: a 2g x 2g list of Python ints."""
    out = [[0] * (2 * g) for _ in range(2 * g)]

    def ws(p, q):
        return int(s[p - g][q - g]) if p >= g and q >= g else 0

    def add(x, y, c):
        out[x][y] += c
        out[y][x] += c

    if gen[0] == "tree":
        (p, q), (r, t) = gen[1], gen[2]
        add(q, r, ws(p, t))
        add(p, t, ws(q, r))
        add(q, t, -ws(p, r))
        add(p, r, -ws(q, t))
    else:
        p, q = gen[1]
        add(p, q, ws(p, q))
        out[q][q] -= ws(p, p)
        out[p][p] -= ws(q, q)
    return out


def tr_omegaS_by_generators(sp, coeffs, s):
    """Reference S-twisted contraction on Python ints: each generator's
    2g x 2g contraction against S, then the coefficients' sum."""
    n = 2 * sp.g
    out = [[0] * n for _ in range(n)]
    for k, gen in zip(coeffs, sp.generators):
        if int(k):
            one = omegaS_of_generator(sp.g, gen, s)
            for x in range(n):
                for y in range(n):
                    out[x][y] += int(k) * one[x][y]
    return out


@pytest.mark.parametrize("g", [2, 3, 4])
def test_omegaS_table_rows_match_generator_formula(g):
    """The table's row of the entry S_ab, a <= b, is every generator's
    contraction against the unit symmetric matrix at (a, b)."""
    sp = space(g)
    n = 2 * g
    table = traces._omegaS_table(sp)
    assert not table.flags.writeable
    table = table.reshape(-1, len(sp.generators), n, n)
    for row, a, b in zip(table, *np.triu_indices(g)):
        s = np.zeros((g, g), dtype=np.int64)
        s[a, b] = s[b, a] = 1
        for gen, got in zip(sp.generators, row):
            assert got.tolist() == omegaS_of_generator(g, gen, s)


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
