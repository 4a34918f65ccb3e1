"""Mod-2 and Lagrangian-side trace maps on the degree-2 lattice."""

import math

import numpy as np
import pytest

from sympderiv.derivspace import FiltrationError, space
from sympderiv.freelie import context, iota_matrix, pair_columns
from sympderiv.intlin import IntegerLattice, kernel_lattice, safe_matmul
from sympderiv.trees import eta2
from sympderiv import traces
from test_derivspace import express, gen_matrix, whole
from test_intlin import dense_hnf, mod2_kernel_by_left_kernel
from test_freelie import lyndon_to_tensor


def omega(g, p, q):
    """omega(e_p, e_q) of two basis letters."""
    e = np.eye(2 * g, dtype=np.int64)
    return int(context(g).omega(e[p:p + 1], e[q:q + 1])[0])


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


def tr_B(sp, rows):
    """The B-side trace of a stack, as ``traces.tr_A`` is the A-side one."""
    if not sp.filtration("B").contains_rows(rows).all():
        raise FiltrationError("element is not in the B-side filtration")
    return safe_matmul(rows, traces._basis_traces(sp, "B"))


def gf2_table_by_letters(sp, which):
    """Reference tr_as ("as") or tr_sym ("sym") table, from the letters of
    each generator's four contractions: a tree with leaves (p, q, r, s)
    traces to the classes of omega(p,s) qr + omega(p,r) qs + omega(q,s) pr
    + omega(q,r) ps; tr_as drops the diagonal classes, and on p (.) q it
    is (1 + omega(p,q)) p^q instead."""
    j = iota_matrix(sp.g)
    p, q, r, s = sp.leaves.T
    w = np.stack([j[p, s], j[p, r], j[q, s], j[q, r]], axis=1) % 2
    x = np.stack([q, q, p, p], axis=1)
    y = np.stack([r, s, r, s], axis=1)
    m = len(sp.pairs)
    if which == "as":
        # the first contraction of p (.) q's leaves is the class of q, p
        w[:m] = 0
        w[:m, 0] = (1 + j[p[:m], q[:m]]) % 2
        w[x == y] = 0
    else:
        w, x, y = w[m:], x[m:], y[m:]
    col = sp.pair_index if which == "as" else pair_columns(sp.ctx.n, 0)
    table = np.zeros((len(w), col.max() + 1), dtype=np.int64)
    np.add.at(table, (np.arange(len(w))[:, None], col[x, y]), w)
    return table % 2


def side_table_by_terms(sp, side):
    """Reference tr_A ("A") or tr_B ("B") table, from the expansion terms:
    a tree (a, b | c, d) expands to a (x) [b, [c, d]] - b (x) [a, [c, d]]
    + c (x) [d, [a, b]] - d (x) [c, [a, b]], and a term h (x) [x, [y, z]]
    with h on the side and x, y, z off it traces to omega(h, z) xy
    - omega(h, y) xz, every other term to 0."""
    terms = sp.leaves[:, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 2, 0, 0],
                          [3, 3, 1, 1]]]
    h, x, y, z = np.moveaxis(terms, 1, 0)
    on = sp.on_side(terms, side)
    sign = np.array([1, -1, 1, -1]) * (on[:, 0] & ~on[:, 1:].any(axis=1))
    j = iota_matrix(sp.g)
    col = pair_columns(sp.g, 0)
    k = np.arange(len(sp.leaves))[:, None]
    table = np.zeros((len(k), col.max() + 1), dtype=np.int64)
    # the letters off the side are one block of g, read mod g
    np.add.at(table, (k, col[x % sp.g, y % sp.g]), sign * j[h, z])
    np.add.at(table, (k, col[x % sp.g, z % sp.g]), -sign * j[h, y])
    return table


def omegaS_table_by_letters(sp):
    """Reference tr_omegaS table, from the letters of each generator: a tree
    with leaves (p, q, r, t) has the terms S_pt (qr) + S_qr (pt)
    - S_pr (qt) - S_qt (pr), each with its transpose, where S_xy counts
    only on B-letters; the columns of p (.) q are halved."""
    g = sp.g
    n = 2 * g
    p, q, r, t = sp.leaves.T
    col = pair_columns(g, 0)
    k = np.arange(len(sp.leaves))
    table = np.zeros((col.max() + 1, len(k), n, n), dtype=np.int8)
    for x, y, a, b, c in [(q, r, p, t, 1), (p, t, q, r, 1),
                          (q, t, p, r, -1), (p, r, q, t, -1)]:
        on_b = np.minimum(a, b) >= g
        np.add.at(table, (col[a[on_b] - g, b[on_b] - g], k[on_b], x[on_b],
                          y[on_b]), c)
    table = table + np.swapaxes(table, 2, 3)
    table[:, :len(sp.pairs)] //= 2
    return table.reshape(len(table), -1)


def tables_match_letter_references(sp):
    """Assert that tr_as, tr_sym, tr_A, tr_B and tr_omegaS, tabulated from
    the one contraction rule, equal their letter-formula references in
    values and dtype; return how many tables were compared."""
    pairs = [(traces._gf2_table(sp, w), gf2_table_by_letters(sp, w))
             for w in ("as", "sym")]
    pairs += [(traces._side_table(sp, side), side_table_by_terms(sp, side))
              for side in "AB"]
    pairs.append((traces._omegaS_table(sp), omegaS_table_by_letters(sp)))
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    return len(pairs)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_tables_match_the_letter_formulas(g):
    """Every trace table equals the formula read from the letters (genus 6
    in CI)."""
    assert tables_match_letter_references(space(g)) == 5


def test_contraction_is_the_four_terms_of_each_tree():
    """The cached |J| contraction of tree(a1 a2 | b1 b2), leaves
    (0, 1 | 2, 3) at genus 2: |J|(p,s) qr - |J|(p,r) qs - |J|(q,s) pr
    + |J|(q,r) ps = -a2 b2 - a1 b1, and of a1 (.) b1, leaves
    (0, 2 | 0, 2), a1 b1 at [0, 2] and at [2, 0]."""
    sp = space(2)
    c = traces._contraction(sp)
    assert c.dtype == np.int8 and not c.flags.writeable
    want = np.zeros((4, 4), dtype=np.int8)
    want[1, 3] = want[0, 2] = -1
    assert np.array_equal(c[sp.generators.index(("tree", (0, 1), (2, 3)))],
                          want)
    want = np.zeros((4, 4), dtype=np.int8)
    want[2, 0] = want[0, 2] = 1
    assert np.array_equal(c[sp.generators.index(("odot", (0, 2)))], want)


@pytest.mark.parametrize("g", [2, 3])
def test_mod2_images_fill_omega_kernels(g):
    sp = space(g)
    assert traces.image_rank(sp, "sym") == (g + 1) * (2 * g - 1)
    assert traces.image_rank(sp, "as") == (g - 1) * (2 * g + 1)
    assert traces.image_in_omega_kernel(sp, "sym")
    assert traces.image_in_omega_kernel(sp, "as")


def test_kernel_indices_match_image_sizes():
    sp = space(2)
    assert whole(sp).index(traces.kernel(sp, "as")) \
        == 2 ** traces.image_rank(sp, "as")
    assert sp.dprime2().index(traces.kernel(sp, "sym")) \
        == 2 ** traces.image_rank(sp, "sym")


@pytest.mark.parametrize("fn, which", [
    *((traces.kernel, w) for w in ("", "a", "b", "AB", "tr_as", "x")),
    *((traces.image_rank, w) for w in ("A", "B", "", "x")),
    *((traces.image_in_omega_kernel, w) for w in ("A", "B", "", "x"))],
    ids=lambda arg: getattr(arg, "__name__", repr(arg)))
def test_unknown_trace_names_raise(fn, which):
    """kernel knows as, sym, A and B; image_rank and image_in_omega_kernel
    only the mod-2 traces as and sym; any other name raises."""
    with pytest.raises(ValueError, match="is not one of the traces"):
        fn(space(2), which)


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


def gf2_image_rows_by_solve(sp, which):
    """Reference trace rows of the basis of D_2 ("as") or of D_2' ("sym"):
    each basis row solved over the generator columns (all of them, or the
    tree generators) by membership in the HNF of those columns, times the
    HNF's transform, checked to give the basis row back; then the
    coefficients mod 2 times the table, mod 2."""
    cols = sp.gen_coords()
    if which == "as":
        domain = whole(sp)
    else:
        domain, cols = sp.dprime2(), cols[:, sp.tree_indices]
    h, u = dense_hnf(cols.T, transform=True)
    nonzero = (h != 0).any(axis=1)
    span = IntegerLattice(h.shape[1], h[nonzero], canonical=True)
    coeffs = safe_matmul(span.membership(domain.basis), u[nonzero])
    assert np.array_equal(safe_matmul(coeffs, cols.T), domain.basis)
    return safe_matmul(coeffs % 2, traces._gf2_table(sp, which)) % 2


@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("which", ["as", "sym"])
def test_gf2_image_rows_match_a_solve_over_the_generators(g, which):
    """The image rows, read from the generator span's transform, are those
    of a solve of the domain basis over the generators."""
    sp = space(g)
    got = traces._basis_traces(sp, which)
    want = gf2_image_rows_by_solve(sp, which)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


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
    real = traces._basis_traces(sp, which)
    pairs = ext2_pairs(4) if which == "as" else sym2_pairs(4)
    odd = real.copy()
    odd[3, pairs.index((0, 2))] ^= 1
    monkeypatch.setattr(traces, "_basis_traces", lambda sp, which: odd)
    assert not traces.image_in_omega_kernel(sp, which)


def test_tr_A_unit_value():
    sp = space(2)
    ctx = sp.ctx
    # eta2(a1, b2 | b2, b1) traces to the single class b'_2 b'_2
    v = eta2(ctx, [0], [3], [3], [2])
    t = traces.tr_A(sp, sp.d2().membership(v))
    expect = np.zeros((1, len(sym2_pairs(2))), dtype=np.int64)
    expect[0, sym2_pairs(2).index((1, 1))] = 1
    assert np.array_equal(np.abs(t), expect)


def test_tr_A_domain_check():
    sp = space(2)
    # b1 . b2 -- no A leaves at all
    k = sp.generators.index(("odot", (2, 3)))
    v = sp.d2().membership(gen_matrix(sp)[:, [k]].T)
    with pytest.raises(FiltrationError):
        traces.tr_A(sp, v)
    # B-side trace accepts it
    tr_B(sp, v)


def test_tr_A_additive():
    sp = space(2)
    rng = np.random.default_rng(21)
    basis = sp.filtration("A").basis
    x = rng.integers(-2, 3, size=(1, len(basis))) @ basis
    y = rng.integers(-2, 3, size=(1, len(basis))) @ basis
    assert np.array_equal(traces.tr_A(sp, x + y),
                          traces.tr_A(sp, x) + traces.tr_A(sp, y))


def mod2_kernels_match_reference(sp):
    """ker tr_as and ker tr_sym against the [m | 2I] reference: the mod-2
    kernel of the traces of the domain's basis, values and int8 dtype, and
    the kernel mapped back through that basis.  Returns the kernels'
    ranks."""
    ranks = []
    for which, domain in (("as", whole(sp)), ("sym", sp.dprime2())):
        t = traces._basis_traces(sp, which)
        got = kernel_lattice(t.T, mod2=True)
        want = mod2_kernel_by_left_kernel(t.T)
        assert got == want and got.basis.dtype == want.basis.dtype == np.int8
        back = IntegerLattice(sp.rank,
                              safe_matmul(want.basis, domain.basis))
        assert traces.kernel(sp, which) == back
        ranks.append(back.rank)
    return ranks


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_mod2_kernels_match_the_left_kernel_reference(g):
    assert mod2_kernels_match_reference(space(g)) == [space(g).rank] * 2


def test_integer_kernels_sit_inside_mod2_kernels():
    sp = space(2)
    ka = traces.kernel(sp, "A")
    assert not traces.tr_A(sp, ka.basis[:6]).any()
    kas = traces.kernel(sp, "as")
    as_rows = traces.tr_as(sp, kas.basis[:6])
    assert as_rows.shape == (6, len(ext2_pairs(4))) and not as_rows.any()


@pytest.mark.parametrize("g", [2, 3])
def test_tr_as_on_random_rows_matches_generator_coefficients(g):
    """tr_as of random coordinate rows, some past int64, is their generator
    coefficients mod 2 times the generator table, mod 2."""
    sp = space(g)
    rng = np.random.default_rng(80 + g)
    rows = rng.integers(-5, 6, size=(6, sp.rank)).astype(object)
    rows[0] *= 2 ** 64 + 1  # past int64, same parities
    rows[1] *= 2 ** 64  # past int64, all even
    rows[2] += 2 ** 63 + 1  # past int64, every parity flipped
    want = safe_matmul(express(sp, rows) % 2,
                       traces._gf2_table(sp, "as")) % 2
    got = traces.tr_as(sp, rows)
    assert got.shape == (len(rows), len(ext2_pairs(2 * g)))
    assert np.array_equal(got, want)
    assert got[[0, 2]].any(axis=1).all() and not got[1].any()


def test_pair_bases():
    """The trace columns are the pairs in ``np.triu_indices`` order."""
    assert len(sym2_pairs(4)) == 10
    assert len(ext2_pairs(4)) == 6
    assert sym2_pairs(2) == [(0, 0), (0, 1), (1, 1)]
    for n in (2, 4):
        for k, pairs in ((0, sym2_pairs(n)), (1, ext2_pairs(n))):
            assert list(zip(*np.triu_indices(n, k))) == pairs
            col = pair_columns(n, k)
            assert [col[x, y] for x, y in pairs] == list(range(len(pairs)))
            assert np.array_equal(col, col.T)
    # the Lambda^2 columns of tr_as are the basis pairs of D_2's generators
    for g in (2, 3):
        pairs = ext2_pairs(2 * g)
        col = space(g).pair_index
        assert [col[x, y] for x, y in pairs] == list(range(len(pairs)))
        assert np.array_equal(col, col.T)


def ambient_side_table(sp, side):
    """Reference side trace as an (r x S^2(H')) matrix: D_2's basis times
    the trace of the ambient basis.

    The trace of e_h (x) (i-th Lyndon bracketing), ambient row
    h * dim(L_3) + i: keep H-factors in the side Lagrangian, kill that side
    in the Lie factor (only the Lyndon words ``avoiding`` it survive),
    contract the first two tensor slots by omega, and symmetrize the last
    two into S^2 of the quotient."""
    ctx = sp.ctx
    d3 = ctx.dim(3)
    side_letters = ctx.kill_letters(side)
    shift = ctx.g if side == "A" else 0
    j = iota_matrix(ctx.g)
    col = pair_columns(ctx.g, 0)
    words = ctx.lyndon(3)
    table = np.zeros((sp.ambient_dim, col.max() + 1), dtype=np.int64)
    for h in side_letters:
        for i in np.flatnonzero(ctx.avoiding(side)):
            for word, c in ctx.bracketing_tensor(words[i]).items():
                om = j[h, word[0]]
                if om:
                    x, y = word[1] - shift, word[2] - shift
                    table[h * d3 + i, col[x, y]] += om * c
    return safe_matmul(sp.d2().basis, table)


def side_traces_match_reference(sp):
    """Assert, on both sides, that the basis traces equal the ambient
    reference, that each generator's table row is its coordinates times
    the reference, and that every p (.) q row is 0; return how many sides
    were compared."""
    for side in "AB":
        want = ambient_side_table(sp, side)
        assert np.array_equal(traces._basis_traces(sp, side), want)
        table = traces._side_table(sp, side)
        assert np.array_equal(table, safe_matmul(sp.gen_coords().T, want))
        assert not table[:len(sp.pairs)].any()
    return 2


@pytest.mark.parametrize("g", [2, 3, 4])
def test_side_tables_match_the_ambient_reference(g):
    """The leaf-table side traces equal those of the ambient H (x) L_3
    basis (genus 5 in CI)."""
    assert side_traces_match_reference(space(g)) == 2


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
    """The generators with a leaf on the side, from their names, as
    H (x) L_3 rows."""
    on_side = (lambda l: l < sp.g) if side == "A" else (lambda l: l >= sp.g)
    cols = [i for i, gen in enumerate(sp.generators)
            if any(on_side(l) for pair in gen[1:] for l in pair)]
    return gen_matrix(sp)[:, cols].T


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("side", ["A", "B"])
def test_side_table_matches_dict_trace_on_generators(g, side):
    sp = space(g)
    rows = _side_f0_columns(sp, side)
    coords = sp.d2().membership(rows)
    fn = traces.tr_A if side == "A" else tr_B
    stacked = fn(sp, coords)
    assert stacked.shape == (len(rows), len(sym2_pairs(g)))
    for i, (row, got) in enumerate(zip(rows, stacked)):
        assert got.tolist() == side_trace_by_dicts(sp, row, side)
        assert np.array_equal(fn(sp, coords[i:i + 1]), got[None])


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("side", ["A", "B"])
def test_side_table_matches_dict_trace_on_combinations(g, side):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sp = space(g)
    basis = sp.filtration(side).basis
    fn = traces.tr_A if side == "A" else tr_B

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(st.lists(st.integers(-2 ** 40, 2 ** 40),
                               min_size=len(basis), max_size=len(basis)))
    def check(coeffs):
        v = np.array([coeffs], dtype=object) @ basis
        got = fn(sp, v)[0]
        ambient = (v @ sp.d2().basis.astype(object))[0]
        assert [int(x) for x in got] == side_trace_by_dicts(sp, ambient, side)

    check()


def test_tr_A_stack_raises_when_any_row_is_outside():
    sp = space(2)
    inside = _side_f0_columns(sp, "A")[:3]
    outside = gen_matrix(sp)[:, sp.generators.index(("odot", (2, 3)))]
    rows = np.vstack([inside, outside[None, :]])
    coords = sp.d2().membership(rows)
    traces.tr_A(sp, coords[:3])
    with pytest.raises(FiltrationError,
                       match="element is not in the A-side filtration"):
        traces.tr_A(sp, coords)


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
            one = traces.tr_omegaS(sp, coeffs[r:r + 1], s[None])
            assert np.array_equal(one, got[r:r + 1, j:j + 1])
    with pytest.raises(ValueError, match="symmetric"):
        traces.tr_omegaS(sp, coeffs,
                         np.triu(np.ones((1, g, g), dtype=np.int64)))
