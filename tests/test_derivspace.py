"""Degree-1 and degree-2 derivation lattices and the symplectic action."""

import itertools
import math

import numpy as np
import pytest

from sympderiv import catalogs, checks, derivspace, intlin, traces
from sympderiv.derivspace import InconsistencyError, gl_embed, space
from sympderiv.freelie import SymplecticContext, iota_matrix
from sympderiv.intlin import IntegerLattice, kernel_lattice, safe_matmul
from sympderiv.trees import eta1
from test_catalogs import transform_rows
from test_freelie import bracket_matrix, lyndon_projection
from test_intlin import dense_hnf
from test_trees import expand_symhalf, vector_eta2

D2_RANK = {2: 20, 3: 105}
D1_RANK = {2: 4, 3: 20}  # C(2g, 3)


def gen_matrix(sp):
    """The dense reference: generator values in H (x) L_3 as columns, the
    (.)-generators then the trees, each kind expanded as one stack from its
    leaves through Lie brackets."""
    m = len(sp.pairs)
    a, b, c, d = np.eye(sp.ctx.n, dtype=np.int64)[sp.leaves.T]
    rows = np.vstack([expand_symhalf(sp.ctx, a[:m], b[:m]),
                      vector_eta2(sp.ctx, a[m:], b[m:], c[m:], d[m:])])
    return rows.astype(np.int64, copy=False).T


def express(sp, rows):
    """Coefficients over all generators of each coordinate row of a stack:
    the rows times the transform of the generators' HNF, which ``d2``
    checks to be the identity."""
    sp.d2()
    return safe_matmul(rows, sp.generator_span(False)[1])


def gen_column(sp, gen):
    """The value of one generator: its column of the generator matrix."""
    return gen_matrix(sp)[:, sp.generators.index(gen)]


@pytest.mark.parametrize("g", [2, 3])
def test_d2_rank_two_ways(g):
    sp = space(g)
    assert sp.d2().rank == D2_RANK[g] == sp.d2_rank_by_count()


def d1(sp):
    """D_1, the kernel of the degree-1 bracket map H (x) L_2 -> L_3."""
    return kernel_lattice(bracket_matrix(sp.ctx, 1))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_d2_is_the_kernel_in_lyndon_coordinates(g):
    # D_2 is built from the bracket map at the Lyndon words; the kernel of
    # the map in Lyndon coordinates, from the structure constants, is the
    # same lattice, so the same HNF basis
    sp = space(g)
    ref = kernel_lattice(bracket_matrix(SymplecticContext(g), 2))
    assert ref.rank == sp.d2_rank_by_count()
    assert ref == kernel_lattice(sp.ctx.bracket_word_matrix()) == sp.d2()


def content_blocks(ctx):
    """The rows and the columns of ``bracket_word_matrix`` by their letter
    multiset, as sorted tuples: for each multiset, the indices of its rows
    (Lyndon words of length 4) and of its columns (x, w), in order."""
    rows, cols = {}, {}
    for i, w in enumerate(ctx.lyndon(4)):
        rows.setdefault(tuple(sorted(w)), []).append(i)
    for j, (x, w) in enumerate(itertools.product(range(ctx.n), ctx.lyndon(3))):
        cols.setdefault(tuple(sorted((x,) + w)), []).append(j)
    return rows, cols


@pytest.mark.parametrize("g", [3, 4])
def test_bracket_map_blocks_are_renamed_genus_2_blocks(g):
    # the premise of D_2's build: the map keeps each column's letter
    # multiset, and the block of a multiset is the genus-2 block of the
    # multiset with its letters renamed in order, rows and columns in order
    ctx, small = space(g).ctx, space(2).ctx
    m, m2 = ctx.bracket_word_matrix(), small.bracket_word_matrix()
    rows, cols = content_blocks(ctx)
    rows2, cols2 = content_blocks(small)
    columns = list(itertools.product(range(ctx.n), ctx.lyndon(3)))
    columns2 = list(itertools.product(range(small.n), small.lyndon(3)))
    inside = 0
    for content, c in cols.items():
        letters = sorted(set(content))
        at = {a: i for i, a in enumerate(letters)}
        renamed = tuple(at[a] for a in content)
        r, r2, c2 = rows.get(content, []), rows2.get(renamed, []), cols2[renamed]
        assert [tuple(letters[a] for a in small.lyndon(4)[i]) for i in r2] \
            == [ctx.lyndon(4)[i] for i in r]
        assert [(letters[x], tuple(letters[a] for a in w))
                for x, w in (columns2[j] for j in c2)] == [columns[j] for j in c]
        block = m[np.ix_(r, c)]
        assert np.array_equal(block, m2[np.ix_(r2, c2)])
        inside += np.count_nonzero(block)
    assert inside == np.count_nonzero(m)


@pytest.mark.parametrize("g", [3, 4])
def test_d2_reads_the_bracket_map_at_genus_2_only(monkeypatch, g):
    # on a fresh space, so that nothing of the kernel is cached
    read = []
    word_matrix = SymplecticContext.bracket_word_matrix

    def spy(self):
        read.append(self.g)
        return word_matrix(self)

    monkeypatch.setattr(SymplecticContext, "bracket_word_matrix", spy)
    sp = derivspace.DerivationSpace(g)
    assert sp.d2() == space(g).d2()
    assert read == [2]


def test_d2_never_asks_for_degree_4_structure_constants(monkeypatch):
    # on a fresh context, so that no table is cached: building D_2 and the
    # generator coordinates asks for no bracket or table into degree 4, and
    # reads the letter-order table, not the tensor table that the oracle
    # derivation_bracket reads
    asked, tensor = [], []
    table = SymplecticContext.bracket_table
    letter_table = SymplecticContext.letter_bracket_table
    bracket = SymplecticContext.lie_bracket

    def record_table(self, j, k):
        asked.append((j, k))
        tensor.append((j, k))
        return table(self, j, k)

    def record_letter_table(self):
        asked.append((1, 2))
        return letter_table(self)

    def record_bracket(self, j, x, k, y):
        asked.append((j, k))
        return bracket(self, j, x, k, y)

    monkeypatch.setattr(SymplecticContext, "bracket_table", record_table)
    monkeypatch.setattr(SymplecticContext, "letter_bracket_table",
                        record_letter_table)
    monkeypatch.setattr(SymplecticContext, "lie_bracket", record_bracket)
    monkeypatch.setattr(derivspace, "context", SymplecticContext)
    sp = derivspace.DerivationSpace(2)
    assert sp.d2().rank == sp.gen_coords().shape[0] == 20
    assert asked and max(j + k for j, k in asked) == 3
    assert tensor == []


@pytest.mark.parametrize("g", [2, 3])
def test_d1_rank(g):
    sp = space(g)
    assert d1(sp).rank == math.comb(2 * g, 3) == D1_RANK[g]


def test_d1_equals_tripod_span():
    sp = space(2)
    triples = np.array(list(itertools.combinations(range(sp.ctx.n), 3)))
    tripods = eta1(sp.ctx, *triples.T)
    assert IntegerLattice(sp.ctx.n * sp.ctx.dim(2), tripods) == d1(sp)


def test_dprime_index():
    sp = space(2)
    # all of D_2 in its coordinates, Z^r
    assert sp.filtration(-1).index(sp.dprime2()) == 2 ** 6  # 2^{C(2g,2)}


def test_generator_values_live_in_d2():
    sp = space(2)
    d2 = sp.d2()
    for gen in sp.generators[:12]:
        assert gen_column(sp, gen) in d2


def test_express_roundtrip():
    sp = space(2)
    rng = np.random.default_rng(11)
    basis = sp.d2().basis
    v = rng.integers(-2, 3, size=(1, sp.d2().rank)) @ basis
    c = express(sp, sp.d2().membership(v))
    assert np.array_equal(c @ gen_matrix(sp).T, v)
    bad = v.copy()
    bad[0, 0] += 1
    assert sp.d2().membership(bad) is None
    assert not sp.d2().contains_rows(bad).any()


def test_tree_expression_requires_dprime():
    """The transform rows of each generator span form its HNF basis from
    the generator columns: those of the tree generators give the basis of
    D_2', and those of all generators the unit rows of Z^r."""
    sp = space(2)
    cols = sp.gen_coords()
    _, tree_trans = sp.generator_span(True)
    assert np.array_equal(
        safe_matmul(tree_trans, cols[:, sp.tree_indices].T),
        sp.dprime2().basis)
    _, full_trans = sp.generator_span(False)
    assert np.array_equal(safe_matmul(full_trans, cols.T),
                          np.eye(sp.rank, dtype=np.int64))


@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("trees", [False, True])
def test_generator_span_is_the_hnf_with_its_zero_rows_dropped(g, trees):
    """The span and transform assembled from the HNF loop's rank rows alone
    are the nonzero rows of the dense HNF of the generator columns and
    their transform rows, in values and dtype."""
    sp = space(g)
    cols = sp.gen_coords()
    if trees:
        cols = cols[:, sp.tree_indices]
    h, u = dense_hnf(cols.T, transform=True)
    nonzero = (h != 0).any(axis=1)
    span, trans = sp.generator_span(trees)
    for got, want in [(span.basis, h[nonzero]), (trans, u[nonzero])]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


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
def test_pair_index_reads_both_orders(g):
    """pair_index holds the index of basis pair (p, q), p < q, at [p, q]
    and at [q, p], and is read-only."""
    sp = space(g)
    assert not sp.pair_index.flags.writeable
    assert sp.pair_index.shape == (2 * g, 2 * g)
    assert sp.pair_index.dtype == np.intp
    for k, (p, q) in enumerate(sp.pairs):
        assert sp.pair_index[p, q] == sp.pair_index[q, p] == k


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


@pytest.mark.parametrize("side", ["a", "b", "AB", ""])
def test_filtration_rejects_an_unknown_side(side):
    """Only "A" and "B" name a side, at every level; the side traces
    reject any other too."""
    sp = space(2)
    for level in range(-1, 4):
        with pytest.raises(ValueError, match="must be 'A' or 'B'"):
            sp.filtration(level, side)
    with pytest.raises(ValueError, match="must be 'A' or 'B'"):
        traces._side_table(sp, side)
    with pytest.raises(ValueError, match="must be 'A' or 'B'"):
        traces._basis_traces(sp, side)


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


def gl_embed_by_transform(g, p):
    """diag(P, (P^T)^{-1}) from the transform u of P's HNF, u = P^{-1} when
    that HNF is the identity; None otherwise."""
    h, u = dense_hnf(p, transform=True)
    if not np.array_equal(h, np.eye(g)):
        return None
    m = np.zeros((2 * g, 2 * g), dtype=np.int64)
    m[:g, :g], m[g:, g:] = p, u.T
    return m


@pytest.mark.parametrize("g", range(2, 8))
def test_gl_embed_matches_the_transform_route(g):
    """gl_embed, P^{-1} read from the HNF of [P | I], equals the route
    through P's HNF transform on every generator of GL(g, Z) and on
    products of them, and raises wherever that route finds no inverse:
    determinant 2, singular, and a pivot of [P | I] in the right block."""
    gens = catalogs.gl_generators(g)
    for p in gens:
        assert np.array_equal(gl_embed(g, p), gl_embed_by_transform(g, p))
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=20, deadline=None, database=None)
    @hypothesis.given(st.lists(st.integers(0, len(gens) - 1), min_size=2,
                               max_size=12))
    def products(word):
        p = np.linalg.multi_dot([gens[k] for k in word])
        m = gl_embed(g, p)
        assert np.array_equal(m, gl_embed_by_transform(g, p))
        assert is_symplectic(m)

    products()
    double = np.eye(g, dtype=np.int64)
    double[-1, -1] = 2
    singular = np.eye(g, dtype=np.int64)
    singular[:, -1] = singular[:, 0]
    for bad in (double, singular, np.zeros((g, g), dtype=np.int64)):
        assert gl_embed_by_transform(g, bad) is None
        with pytest.raises(ValueError, match="GL"):
            gl_embed(g, bad)
    # the HNF of [P | I] of a singular P has its last pivot in the right block
    h = IntegerLattice(2 * g, np.hstack([singular, np.eye(g, dtype=np.int64)]))
    assert h._pivots[-1] >= g


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
    assert transform_rows(sp.ctx, m, [v], 3)[0] in d2


def test_action_is_functorial():
    sp = space(2)
    m1 = gl_embed(2, np.array([[1, 1], [0, 1]]))
    m2 = gl_embed(2, np.array([[0, 1], [1, 0]]))
    rows = np.eye(sp.ambient_dim, dtype=np.int64)
    a12 = transform_rows(sp.ctx, safe_matmul(m1, m2), rows, 3)
    composed = transform_rows(sp.ctx, m1,
                              transform_rows(sp.ctx, m2, rows, 3), 3)
    assert np.array_equal(a12, composed)


def quotient_map(sp):
    """The reference map H (x) L_3(H) -> H/A (x) L_3(H/A): the B-letter
    blocks, each through ``lyndon_projection``."""
    ctx = sp.ctx
    proj = lyndon_projection(ctx, 3, "A")
    return np.kron(np.eye(ctx.n, dtype=np.int64)[sp.g:], proj)


def test_ker_projection_inside_d2():
    sp = space(2)
    ka = sp.ker_projection()
    d2 = sp.d2()
    assert ka.ambient_dim == d2.rank
    assert 0 < ka.rank < d2.rank
    keep = np.outer(np.arange(sp.ctx.n) >= sp.g, sp.ctx.avoiding("A")).ravel()
    for row in safe_matmul(ka.basis, d2.basis):
        assert row in d2
        # the selected quotient coordinates really vanish
        assert not row[keep].any()


@pytest.mark.parametrize("g", [2, 3, 4])
def test_ker_projection_is_the_kernel_of_the_quotient_map(g):
    sp = space(g)
    ref = kernel_lattice(safe_matmul(quotient_map(sp), sp.d2().basis.T))
    assert sp.ker_projection() == ref


# -- D_2 coordinates ---------------------------------------------------------

@pytest.mark.parametrize("g", [2, 3, 4])
def test_every_d2_pivot_is_one(g):
    """The coordinates of D_2's HNF basis, those of ``coords`` and those
    of ``gen_coords``, are read off its pivot columns."""
    basis = space(g).d2().basis
    pivots = np.argmax(basis != 0, axis=1)
    assert (basis[np.arange(len(basis)), pivots] == 1).all()


@pytest.mark.parametrize("g", [2, 3])
def test_coords_round_trip_past_int64(g):
    """d2().membership(c @ basis) == c, exactly, for coordinates up to and
    past 2**62, one row and stacks."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sp = space(g)
    basis = sp.d2().basis
    r = len(basis)
    entry = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                      st.sampled_from([2 ** 62 - 1, 2 ** 62, -2 ** 62,
                                       2 ** 63, -2 ** 63 - 1]))

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(st.lists(st.lists(entry, min_size=r, max_size=r),
                               min_size=1, max_size=3))
    def check(rows):
        c = np.array(rows, dtype=object)
        got = sp.d2().membership(safe_matmul(c, basis))
        assert [[int(x) for x in row] for row in got] == rows
        assert [[int(x) for x in row] for row in
                sp.d2().membership(safe_matmul(c[:1], basis))] == rows[:1]

    check()


@pytest.mark.parametrize("g", [2, 3])
def test_coords_reject_rows_outside_d2(g):
    """A row outside D_2 is found outside, never read off the pivot columns
    alone, even when it agrees with an element of D_2 there."""
    sp = space(g)
    d2 = sp.d2()
    basis = d2.basis
    pivots = np.argmax(basis != 0, axis=1)
    off = np.setdiff1d(np.arange(sp.ambient_dim), pivots)
    rng = np.random.default_rng(g)
    v = safe_matmul(rng.integers(-3, 4, size=(1, len(basis))), basis)
    for col in off[:: max(1, len(off) // 20)]:
        bad = v.copy()
        bad[0, col] += 1
        assert d2.membership(bad) is None
        assert d2.membership(np.vstack([v, bad])) is None
        assert d2.contains_rows(np.vstack([v, bad])).tolist() == [True, False]
    # twice a non-member is a non-member: D_2 is a kernel, so saturated
    twice = 2 * np.eye(sp.ambient_dim, dtype=np.int64)[off[:1]]
    assert d2.membership(twice) is None and twice[0] not in d2


@pytest.mark.parametrize("g", [2, 3])
def test_gen_coords_are_generator_coordinates(g):
    sp = space(g)
    m = sp.gen_coords()
    assert not m.flags.writeable
    assert m.shape == (sp.rank, len(sp.generators))
    assert np.array_equal(safe_matmul(m.T, sp.d2().basis), gen_matrix(sp).T)


@pytest.mark.parametrize("change", ["double", "off-diagonal", "drop"])
def test_d2_rejects_a_generator_span_other_than_the_identity(monkeypatch,
                                                            change):
    """A generator span with a diagonal 2, an entry off the diagonal, or a
    row short of Z^r is caught."""
    r = space(2).rank
    basis = np.eye(r, dtype=np.int8)
    if change == "double":
        basis[3, 3] = 2
    elif change == "off-diagonal":
        basis[3, 7] = 1
    else:
        basis = basis[1:]
    monkeypatch.setattr(derivspace.DerivationSpace, "generator_span",
                        lambda self, trees: (IntegerLattice(r, basis,
                                                            canonical=True),
                                             None))
    with pytest.raises(InconsistencyError, match="generator span"):
        derivspace.DerivationSpace(2).d2()


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_gen_coords_equal_the_dense_reference(g):
    """The sparse expansions read at D_2's pivots give what the membership
    solve of the dense generator matrix gives: the same values, stored in
    int8, as every one lies in [-127, 127]."""
    sp = space(g)
    want = sp.d2().membership(gen_matrix(sp).T).T
    got = sp.gen_coords()
    assert got.dtype == np.int8
    assert np.abs(want).max() <= 127
    assert np.array_equal(got, want)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_kept_bases_and_coordinates_are_int8_and_read_only(g):
    """The large arrays kept per genus, every entry of which lies in
    [-127, 127] up to genus 4, are stored in int8 and cannot be written."""
    sp = space(g)
    kept = {"d2": sp.d2().basis, "gen_coords": sp.gen_coords(),
            "filtration(-1)": sp.filtration(-1).basis,
            "ker_tr_as": traces.kernel(sp, "as").basis,
            "ker_tr_A": traces.kernel(sp, "A").basis,
            "double_kernel": checks._double_kernel(g).basis}
    for name, trees in [("full", False), ("tree", True)]:
        span, trans = sp.generator_span(trees)
        kept[name + " span"] = span.basis
        kept[name + " trans"] = trans
    for name, a in kept.items():
        assert a.dtype == np.int8, name
        assert not a.flags.writeable, name


@pytest.mark.parametrize("entry", ["first", "middle", "last"])
def test_gen_coords_check_finds_a_wrong_table_entry(monkeypatch, entry):
    """One nonzero of the letter-order bracket table off by one, on a
    fresh context: every (letter, pair) row of it is a term of some
    generator, and D_2's map does not read it, so the check product finds
    the expansions outside D_2."""
    table = SymplecticContext.letter_bracket_table

    def corrupt(self):
        t = table(self).copy()
        nz = np.flatnonzero(t)
        at = {"first": 0, "middle": len(nz) // 2, "last": -1}[entry]
        t.flat[nz[at]] += 1
        return t

    monkeypatch.setattr(SymplecticContext, "letter_bracket_table", corrupt)
    monkeypatch.setattr(derivspace, "context", SymplecticContext)
    with pytest.raises(InconsistencyError):
        derivspace.DerivationSpace(2).gen_coords()


def test_gen_coords_check_finds_a_wrong_basis_entry(monkeypatch):
    """A basis entry off a pivot column, off by one, leaves every
    coordinate read at the pivots as it was, and the check product finds
    it."""
    sp = derivspace.DerivationSpace(2)
    basis = space(2).d2().basis.copy()
    pivots = np.argmax(basis != 0, axis=1)
    basis[0, np.setdiff1d(np.arange(pivots[0], len(basis.T)), pivots)[0]] += 1
    monkeypatch.setattr(derivspace.DerivationSpace, "_bracket_kernel",
                        lambda self: IntegerLattice(sp.ambient_dim, basis,
                                                    canonical=True))
    with pytest.raises(InconsistencyError):
        sp.gen_coords()


def test_gen_coords_check_product_past_the_bound(monkeypatch):
    """With the bound of the sparse product (``intlin.sparse_terms``) taken
    as exceeded, the check product runs on Python ints and gives the same
    coordinates.  The shared tables are built first, unpatched."""
    want = space(3).gen_coords()
    dtypes = []
    summed = derivspace._summed

    def recording(keys, vals):
        dtypes.append(vals.dtype)
        return summed(keys, vals)

    monkeypatch.setattr(intlin, "fits_int64", lambda bound: False)
    monkeypatch.setattr(derivspace, "_summed", recording)
    got = derivspace.DerivationSpace(3).gen_coords()
    assert dtypes == [np.int64, object]
    assert got.dtype == np.int8
    assert np.array_equal(got, want)
