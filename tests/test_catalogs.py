"""Generator catalogs: bounding-curve images, tripod brackets, and the
symmetry-orbit lattices."""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sympderiv import catalogs, intlin, traces
from sympderiv.catalogs import (SymplecticFamilyError, basis_tripods,
                                bscc_image, catalog_lattice,
                                goeritz_symmetries, goeritz_tau1_lattice,
                                goeritz_tau2_entries, gl_generators,
                                johnson_catalog, mixed_wedge_lattice,
                                orbit_closure, realizable_catalog_A,
                                tripod_bracket_entries)
from sympderiv.derivspace import DerivationSpace, space
from sympderiv.freelie import context, iota_matrix, standard_factorization
from sympderiv.intlin import IntegerLattice, safe_matmul
from sympderiv.trees import derivation_bracket, eta1
from test_freelie import letter_name
from test_trees import (expand_symhalf, tree_bracket, tripod_brackets,
                        vector_eta2)


def is_symplectic(m):
    """m^T J m == J for the Gram matrix J = [[0, I], [-I, 0]] of omega."""
    g = len(m) // 2
    z, i = np.zeros((g, g), dtype=np.int64), np.eye(g, dtype=np.int64)
    j = np.block([[z, i], [-i, z]])
    return bool(np.array_equal(m.T @ j @ m, j))


def _e(ctx):
    """The basis letters as one-row stacks."""
    return list(np.eye(ctx.n, dtype=np.int64)[:, None])


def stacked(blocks):
    """Every row of a stream of row blocks, pulled and stacked."""
    return np.vstack(list(blocks))


def test_single_pair_is_symhalf():
    sp = space(2)
    ctx = sp.ctx
    e = _e(ctx)
    v = bscc_image(sp, [(e[0], e[2])])
    assert np.array_equal(
        v, sp.d2().membership(expand_symhalf(ctx, e[0], e[2])))


def test_two_handle_image():
    # per-handle terms plus the single cross tree between the handles
    sp = space(2)
    ctx = sp.ctx
    e = _e(ctx)
    a1, a2, b1, b2 = e[0], e[1], e[2], e[3]
    v = bscc_image(sp, [(a1, b1), (a2, b2)])
    expect = (expand_symhalf(ctx, a1, b1) + expand_symhalf(ctx, a2, b2)
              + vector_eta2(ctx, a1, b1, a2, b2))
    assert np.array_equal(v, sp.d2().membership(expect))
    # the cross tree equals minus tree(a1 b1 | b2 a2)
    assert np.array_equal(vector_eta2(ctx, a1, b1, a2, b2),
                          -vector_eta2(ctx, a1, b1, b2, a2))


def test_sheared_pair_image():
    sp = space(2)
    ctx = sp.ctx
    e = _e(ctx)
    a1, a2, b2 = e[0], e[1], e[3]
    v = bscc_image(sp, [(a1 - b2, a2)])
    expect = (expand_symhalf(ctx, a1, a2)
              - vector_eta2(ctx, a1, a2, b2, a2)
              + expand_symhalf(ctx, b2, a2))
    assert np.array_equal(v, sp.d2().membership(expect))


def test_rejects_non_orthonormal_families():
    sp = space(2)
    e = _e(sp.ctx)
    with pytest.raises(SymplecticFamilyError):
        bscc_image(sp, [(e[0], -e[2])])  # omega = -1
    with pytest.raises(SymplecticFamilyError):
        bscc_image(sp, [(e[0], e[1])])  # omega = 0
    with pytest.raises(SymplecticFamilyError):
        # cross pairing between the two handles
        bscc_image(sp, [(e[0], e[2]), (e[0] + e[1], e[3])])


def test_bscc_images_have_trivial_traces():
    sp = space(2)
    ctx = sp.ctx
    e = _e(ctx)
    for pairs in ([(e[0], e[2])], [(e[0], e[2]), (e[1], e[3])]):
        v = bscc_image(sp, pairs)
        assert v.shape == (1, sp.rank)
        assert safe_matmul(v, sp.d2().basis)[0] in sp.d2()
        assert not traces.tr_as(sp, v).any()


def test_basis_tripod_counts():
    assert len(basis_tripods(2)) == 4
    assert len(basis_tripods(2, "A")) == 4
    assert len(basis_tripods(2, "mixed")) == 4
    assert len(basis_tripods(3)) == 20
    assert len(basis_tripods(3, "A")) == 19
    assert len(basis_tripods(3, "mixed")) == 18


def test_realizable_catalog_genus2():
    sp = space(2)
    entries = realizable_catalog_A(sp)
    ker = traces.kernel(sp, "A").intersection(traces.kernel(sp, "as"))
    lat = catalog_lattice(sp, entries)
    assert lat.rank == 13
    assert ker.rank == 16
    for row in lat.basis:
        assert row in ker


def test_realizable_entries_are_kernel_elements():
    sp = space(2)
    rows = stacked(realizable_catalog_A(sp))[:10]
    # tr_A's domain, which tr_A also checks
    assert sp.filtration("A").contains_rows(rows).all()
    assert not traces.tr_A(sp, rows).any()
    assert not traces.tr_as(sp, rows).any()


def test_johnson_catalog_spans_as_kernel():
    sp = space(2)
    ker = traces.kernel(sp, "as")
    two = catalog_lattice(sp, johnson_catalog(sp))
    assert two.rank == 19  # two-term colors stop one short at genus 2
    three = catalog_lattice(sp, johnson_catalog(sp, three_term=True))
    assert three == ker


def pretty_vector(ctx, vec):
    """Human-readable form of an H-vector, e.g. 'a1-b2'."""
    parts = []
    for p, c in enumerate(np.asarray(vec)):
        c = int(c)
        if c == 0:
            continue
        name = letter_name(ctx, p)
        if c == 1:
            parts.append("+" + name)
        elif c == -1:
            parts.append("-" + name)
        else:
            parts.append("%+d%s" % (c, name))
    if not parts:
        return "0"
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


def test_pretty_vector():
    ctx = context(2)
    v = np.array([1, 0, 0, -1])
    assert pretty_vector(ctx, v) == "a1-b2"
    assert pretty_vector(ctx, np.array([0, 2, 1, 0])) == "2a2+b1"


def _johnson_reference(ctx, colors):
    """The Johnson catalog as nested loops over colors with scalar omega
    tests and one expansion per candidate: (name, value) pairs."""
    def omega(u, v):
        return ctx.omega(u[None], v[None])[0]

    pairs = []
    for i, u in enumerate(colors):
        for v in colors[i + 1:]:
            if omega(u, v) in (1, -1):
                pairs.append((u, v) if omega(u, v) == 1 else (v, u))
    out, seen = [], set()

    def add(name, val):
        if val.tobytes() not in seen and (-val).tobytes() not in seen:
            seen.add(val.tobytes())
            out.append((name, val))

    for u, v in pairs:
        add("odot(%s,%s)" % (pretty_vector(ctx, u), pretty_vector(ctx, v)),
            expand_symhalf(ctx, u[None], v[None])[0])
    for k, (u1, v1) in enumerate(pairs):
        for u2, v2 in pairs[k + 1:]:
            if any(omega(x, y) for x in (u1, v1) for y in (u2, v2)):
                continue
            add("tree(%s,%s|%s,%s)" % tuple(
                pretty_vector(ctx, x) for x in (u1, v1, u2, v2)),
                vector_eta2(ctx, *(x[None] for x in (u1, v1, u2, v2)))[0])
    return out


@pytest.mark.parametrize("three_term", [False, True])
def test_johnson_catalog_matches_loop_reference(three_term):
    sp = space(2)
    blocks = list(johnson_catalog(sp, three_term=three_term))
    want = _johnson_reference(sp.ctx, catalogs._color_set(2, three_term))
    for block in blocks:
        assert block.dtype == np.int64
        assert block.base is None  # owns its data, not a view of a chunk
    got = np.vstack(blocks)
    assert len(got) == len(want)
    for row, (name, val) in zip(got, want):
        assert np.array_equal(row, sp.d2().membership(val[None])[0]), name


def _row_bytes(rows):
    """The bytes of each row of a 2-d array, as a list."""
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1] * rows.itemsize
    return rows.view(np.dtype((np.void, width))).ravel().tolist()


def _unique_blocks(blocks):
    """Reference deduplication by row values: the rows of each block that
    are new up to sign, in order, one block per block, none when all of its
    rows are old.  ``seen`` holds each kept row times the sign of its first
    nonzero entry, keyed by its exact values whatever the block's dtype:
    its bytes as int8 when every entry fits, else as int64 when every entry
    fits, else (an object row past int64) its tuple of Python ints.  A
    key's type and length tell which, so equal keys are equal rows."""
    seen = set()
    for vals in blocks:
        first = vals[np.arange(len(vals)), np.argmax(vals != 0, axis=1)]
        signed = vals * np.sign(first)[:, None]
        lo, hi = signed.min(axis=1), signed.max(axis=1)
        narrow = (lo > -2 ** 7) & (hi < 2 ** 7)
        within = ((lo >= -2 ** 63) & (hi < 2 ** 63) if vals.dtype == object
                  else np.ones(len(vals), dtype=bool))
        keys = np.empty(len(vals), dtype=object)
        keys[narrow] = _row_bytes(signed[narrow].astype(np.int8))
        keys[within & ~narrow] = _row_bytes(
            signed[within & ~narrow].astype(np.int64, copy=False))
        for n in np.flatnonzero(~within):
            keys[n] = tuple(signed[n].tolist())
        keep = []
        for n, key in enumerate(keys.tolist()):
            if key not in seen:
                seen.add(key)
                keep.append(n)
        if keep:
            yield vals[keep]


def johnson_candidates(g, three_term):
    """Reference enumeration of every Johnson candidate: the colors, the
    symplectic pairs (u[i], v[i]) of color indices with omega = 1, in
    ``itertools.combinations`` order, and the pairs of those pairs
    (k[i], l[i]), k < l, whose four cross omegas vanish, in row-major
    order; every omega-test reads the Gram matrix of the colors."""
    colors = np.array(catalogs._color_set(g, three_term))
    gram = safe_matmul(safe_matmul(colors, iota_matrix(g)), colors.T)
    i, j = np.triu_indices(len(colors), 1)  # itertools.combinations order
    w = gram[i, j]
    sympl = np.abs(w) == 1
    u = np.where(w == 1, i, j)[sympl]
    v = np.where(w == 1, j, i)[sympl]
    k, l = [], []
    for c in catalogs._chunks(len(u)):  # CHUNK values of k at a time
        ks = np.arange(len(u))[c]
        ok = ((gram[np.ix_(u[ks], u)] == 0) & (gram[np.ix_(u[ks], v)] == 0)
              & (gram[np.ix_(v[ks], u)] == 0) & (gram[np.ix_(v[ks], v)] == 0)
              & (np.arange(len(u)) > ks[:, None]))
        kc, lc = np.nonzero(ok)
        k.append(ks[kc])
        l.append(lc)
    return colors, u, v, np.concatenate(k), np.concatenate(l)


def deduplicated_candidates(sp, three_term):
    """The wedges of every symplectic pair of ``johnson_candidates``, the
    first pair of each wedge key, in order, and the first (k, l) of each
    unordered pair of keys, in row-major order: every candidate keyed, then
    deduplicated on its key."""
    colors, u, v, k, l = johnson_candidates(sp.g, three_term)
    w = catalogs._wedge(sp, colors[u], colors[v])
    first = w[np.arange(len(w)), np.argmax(w != 0, axis=1)]
    _, h, ids = np.unique(w * np.sign(first)[:, None], axis=0,
                          return_index=True, return_inverse=True)
    ids = ids.ravel()  # its shape differs across numpy 2.0.x
    lo, hi = np.minimum(ids[k], ids[l]), np.maximum(ids[k], ids[l])
    t = np.sort(np.unique(lo.astype(np.int64) * len(h) + hi,
                          return_index=True)[1])
    return w, np.sort(h), k[t], l[t]


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("three_term", [False, True])
def test_johnson_classes_match_every_candidate(g, three_term, monkeypatch):
    """The halves and the (k, l) pairs that ``johnson_catalog`` reads per
    wedge class are those that keying and deduplicating every candidate
    keeps, in the same order, over the same wedges."""
    sp = space(g)
    got = []
    real = catalogs._johnson_rows

    def recording(*args):
        got.append(args[1:])
        return real(*args)

    monkeypatch.setattr(catalogs, "_johnson_rows", recording)
    johnson_catalog(sp, three_term)
    (got,) = got
    want = deduplicated_candidates(sp, three_term)
    assert len(want[2]) > 0
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def candidate_rows(sp, three_term):
    """The rows of every Johnson candidate, before deduplication, read from
    generator columns, CHUNK at a time: the halves, then the trees."""
    colors, u, v, k, l = johnson_candidates(sp.g, three_term)
    w = catalogs._wedge(sp, colors[u], colors[v])
    return catalogs._johnson_rows(sp, w, np.arange(len(u)), k, l)


def lie_path_rows(sp, three_term):
    """The Johnson candidates, CHUNK at a time, each expanded through Lie
    brackets: expand_symhalf of every symplectic pair of colors, then eta2
    of every pair of those pairs."""
    ctx = sp.ctx
    colors, u, v, k, l = johnson_candidates(sp.g, three_term)
    for c in catalogs._chunks(len(u)):
        yield expand_symhalf(ctx, colors[u[c]], colors[v[c]])
    for c in catalogs._chunks(len(k)):
        yield vector_eta2(ctx, colors[u[k[c]]], colors[v[k[c]]],
                          colors[u[l[c]]], colors[v[l[c]]])


def johnson_rows_match_lie_path(sp, three_term):
    """Assert that every block of candidate rows the Johnson row builder
    reads from generator columns, over all candidates, equals the Lie-path
    expansion of its candidates, read in D_2 coordinates, in value and
    dtype; return how many candidates were compared."""
    count = 0
    for got, want in itertools.zip_longest(candidate_rows(sp, three_term),
                                           lie_path_rows(sp, three_term)):
        assert got is not None and want is not None
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, sp.d2().membership(want))
        count += len(got)
    return count


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("three_term", [False, True])
def test_johnson_rows_match_lie_path(g, three_term):
    sp = space(g)
    _, u, _, k, _ = johnson_candidates(g, three_term)
    assert johnson_rows_match_lie_path(sp, three_term) == len(u) + len(k)


def int64_rows(blocks):
    """The rows of a stream of row blocks, one at a time, each block
    asserted to be int64."""
    for block in blocks:
        assert block.dtype == np.int64
        yield from block


def johnson_stream_matches_reference(sp, three_term):
    """Assert that the Johnson stream, deduplicated on wedge keys, holds the
    rows that deduplicating every candidate's row by its values keeps
    (``_unique_blocks``), in value, order and dtype (int64), one row at a
    time, so neither side is held whole; return how many rows it holds."""
    count = 0
    for got, want in itertools.zip_longest(
            int64_rows(johnson_catalog(sp, three_term)),
            int64_rows(_unique_blocks(candidate_rows(sp, three_term)))):
        assert got is not None and want is not None
        assert np.array_equal(got, want)
        count += 1
    return count


@pytest.mark.parametrize("g, three_term, kept", [
    (2, False, 43), (2, True, 143), (3, False, 1134), (3, True, 22914)])
def test_johnson_stream_matches_row_value_dedup(g, three_term, kept):
    """Wedge keys keep the rows that row-value keys keep (genus 4 and 5
    with two-term colors in CI)."""
    assert johnson_stream_matches_reference(space(g), three_term) == kept


@pytest.mark.parametrize("g", [2, 3])
def test_tripod_brackets_match_lie_path_and_oracle(g):
    """Every side's bracket rows equal the reference brackets through Lie
    brackets (zero rows dropped), and each basis-tripod bracket equals the
    derivation bracket of the two eta1 images."""
    sp = space(g)
    ctx = sp.ctx
    e = np.eye(ctx.n, dtype=np.int64)
    oracle = {}
    for side in (None, "A", "mixed"):
        pairs = list(itertools.combinations(basis_tripods(g, side), 2))
        idx = np.array(pairs)
        want = tree_bracket(ctx, [e[idx[:, 0, i]] for i in range(3)],
                            [e[idx[:, 1, i]] for i in range(3)])
        got = stacked(tripod_bracket_entries(sp, side))
        assert got.dtype == np.int64
        assert np.array_equal(
            got, sp.d2().membership(want[(want != 0).any(axis=1)]))
        for (p, q), row in zip(pairs, want):
            if (p, q) not in oracle:
                oracle[p, q] = derivation_bracket(
                    ctx, eta1(ctx, *np.array(p)[:, None])[0],
                    eta1(ctx, *np.array(q)[:, None])[0])
            assert np.array_equal(row, oracle[p, q])


def one_hot_bracket_rows(sp, side):
    """The nonzero brackets of all distinct pairs of basis tripods from the
    side, through ``tripod_brackets`` on one-hot int64 leaf stacks."""
    e = np.eye(sp.ctx.n, dtype=np.int64)
    pairs = list(itertools.combinations(basis_tripods(sp.g, side), 2))
    leaves = e[np.array(pairs).reshape(len(pairs), 6).T]
    vals = tripod_brackets(sp, leaves[:3], leaves[3:])
    return vals[vals.any(axis=1)]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_tripod_bracket_rows_match_one_hot_reference(g):
    """The brackets read from letter indices are the one-hot leaf stacks'
    rows, in order and in int64, for every side."""
    sp = space(g)
    for side in (None, "A", "B", "mixed"):
        got = stacked(tripod_bracket_entries(sp, side))
        assert got.dtype == np.int64
        assert np.array_equal(got, one_hot_bracket_rows(sp, side)), side


def test_tripod_bracket_blocks_hold_at_most_chunk_pairs(monkeypatch):
    """Every block is built from at most CHUNK pairs, and every pair is
    built once."""
    sp = space(4)
    built = []
    real = DerivationSpace.gen_rows

    def recording(self, nrows, row, gen, weight):
        built.append(nrows)
        return real(self, nrows, row, gen, weight)

    monkeypatch.setattr(DerivationSpace, "gen_rows", recording)
    blocks = list(tripod_bracket_entries(sp, None))
    assert len(blocks) == len(built) > 1
    assert max(built) == catalogs.CHUNK
    assert sum(built) == math.comb(len(basis_tripods(4)), 2)
    assert all(len(b) <= n for b, n in zip(blocks, built))


def test_streams_count_the_rows_pulled():
    """The realizable catalog and the tripod brackets are streams: the
    length is 0 before a pull, and the rows pulled after a full one, for
    the realizable catalog the certificate's catalog_size."""
    sp = space(4)
    for stream, rows in ((realizable_catalog_A(sp), 1162),
                         (tripod_bracket_entries(sp, None), 1276)):
        assert len(stream) == 0
        assert sum(map(len, stream)) == len(stream) == rows


def test_tripod_brackets_stream_in_small_blocks():
    """With D_2 built, pulling every genus-4 bracket holds one block's
    transients at a time: its traced peak stays under 2.5 MB (0.7-1.0 MB
    measured, 9.95 MB for the one-hot leaf stacks built at once)."""
    sp = space(4)
    sp.d2()
    tracemalloc.start()
    try:
        rows = sum(map(len, tripod_bracket_entries(sp, None)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 1276
    assert peak < 2.5 * 2 ** 20, peak


def test_scatter_exact_at_int64_bound(monkeypatch):
    """Leaf entries c near 2**31 put the scatter's bound (the most triplets
    of one row, times max|weight|, times max|gen_coords()|) just under
    2**62, then at it: int64 rows, then Python ints, both equal to the Lie
    path read in D_2 coordinates; so too a repeated triplet, against the
    product on Python ints."""
    sp = space(2)
    ctx = sp.ctx
    a1, a2, b1, b2 = _e(ctx)
    dtypes = []
    real = DerivationSpace.gen_rows

    def recording(self, nrows, row, gen, weight):
        out = real(self, nrows, row, gen, weight)
        bound = (int(np.bincount(row).max()) * int(np.abs(weight).max())
                 * int(np.abs(self.gen_coords()).max()))
        assert (out.dtype == np.int64) == (bound < 2 ** 62)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(DerivationSpace, "gen_rows", recording)
    # u ^ v = a1^b1 + c a2^b1: weights 1, c and c^2 in one row, bound 6 c^2
    c = math.isqrt((2 ** 62 - 1) // 6)
    for x in (c, c + 1):
        u, v = a1 + x * a2, b1
        assert np.array_equal(bscc_image(sp, [(u, v)]),
                              sp.d2().membership(expand_symhalf(ctx, u, v)))
    # two contractions, omega(c a1, c b1) = c^2 and omega(b2, a2) = -1
    # against wedges c a1^a2 and -c a1^b1: weight c^2 each, bound 4 c^2
    c = math.isqrt((2 ** 62 - 1) // 4)
    for x in (c, c + 1):
        s, t = (x * a1, a2, b2), (x * b1, a1, a2)
        got = tripod_brackets(sp, s, t)
        assert np.array_equal(got, sp.d2().membership(tree_bracket(ctx, s, t)))
    # one (row, generator) pair twice, on the generator with the widest
    # coordinate: the two triplets meet in every entry of the row, so they
    # bound it together, bound 2 c max|gen_coords()|
    cols = sp.gen_coords()
    top = int(np.abs(cols).max())
    gen = np.repeat(np.argmax(np.abs(cols).max(axis=0)), 2)
    c = (2 ** 62 - 1) // (2 * top)
    for x in (c, c + 1):
        weight = np.array([x, x - 1])
        got = sp.gen_rows(1, np.zeros(2, dtype=np.intp), gen, weight)
        want = cols[:, gen].astype(object) @ weight.astype(object)
        assert np.array_equal(got[0], want)
    assert dtypes == [np.int64, object] * 3


def test_catalog_lattice_tests_rows_past_saturation(monkeypatch):
    # genus 3: the two-term colors span ker tr_as before the last block;
    # every row is pulled and tested against the span so far, but only the
    # rows not yet in it reach an HNF, so the HNFs see fewer rows than the
    # stream held
    sp = space(3)
    ker = traces.kernel(sp, "as")
    total = sum(map(len, johnson_catalog(sp)))
    reduced = []
    real = intlin._hnf_rows

    def counted(blocks):
        for block in blocks:
            reduced.append(len(block))
            yield block

    def recording(a, transform=False):
        if isinstance(a, np.ndarray):
            reduced.append(len(a))
            return real(a, transform)
        return real(counted(a), transform)

    monkeypatch.setattr(intlin, "_hnf_rows", recording)
    stream = johnson_catalog(sp)
    got = catalog_lattice(sp, stream)
    assert len(stream) == total and next(stream, None) is None
    assert 0 < sum(reduced) < total
    assert got == ker and got is not ker


def _target_and_rows(draw, st):
    """A random lattice of full rank r, its generators (echelon rows whose
    pivots, and so those of its HNF, are past 2^31 when the scale 2^33 is
    drawn), and row blocks of integer combinations of them.  When
    ``sparse`` is drawn, the generators are diagonal and each row a
    multiple of one of them, so that every batch of them is sparse
    (``catalogs._sparse``)."""
    n = draw(st.integers(2, 7))
    r = draw(st.integers(1, n))
    scale = draw(st.sampled_from([1, 2 ** 33]))
    sparse = draw(st.booleans())
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * r,
                            max_size=n * r))
    gens = np.triu(np.array(entries, dtype=np.int64).reshape(r, n), 1)
    if sparse:
        gens[:] = 0
    gens[np.arange(r), np.arange(r)] = scale * np.arange(1, r + 1)
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=r * sum(sizes),
                           max_size=r * sum(sizes)))
    coeffs = np.array(coeffs, dtype=np.int64).reshape(-1, r)
    if sparse:
        coeffs *= np.eye(r, dtype=np.int64)[np.arange(len(coeffs)) % r]
    rows = coeffs @ gens
    blocks = np.split(rows, np.cumsum(sizes)[:-1])
    return n, IntegerLattice(n, gens), gens, blocks


@pytest.mark.parametrize("case", ["early", "never", "outside", "late"])
def test_catalog_lattice_equals_ambient_span(case, monkeypatch):
    """The span of any stream is the span of all its rows, and exactly the
    rows of its dense batches are reduced over the span so far; over the
    examples, both sparse and dense batches are drawn."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tested, sides = [], set()
    real = IntegerLattice.remainders

    def recording(self, rows):
        tested.append(len(rows))
        return real(self, rows)

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n, target, gens, blocks = _target_and_rows(data.draw, st)
        assert target.rank == len(gens)
        chunk = 3
        if case in ("outside", "late"):
            row = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=n,
                                              max_size=n)), dtype=np.int64)
            hypothesis.assume(row not in target)
            at = data.draw(st.integers(0, len(blocks)))
        if case == "early":
            # the generators first, as one batch: saturated after it
            blocks, chunk = [gens] + blocks, len(gens)
        elif case == "never":
            # twice the generators: a sublattice of index 2^rank, never all
            blocks = [2 * gens] + [2 * b for b in blocks]
        elif case == "outside":
            # one row outside the target, after rows that cannot saturate
            blocks = ([2 * b for b in blocks[:at]]
                      + [np.vstack([row, gens[:1]])] + blocks[at:])
        else:
            # one row outside the target, after the saturating batch
            blocks = [gens] + blocks[:at] + [row[None]] + blocks[at:]
            chunk = len(gens)
        rows = np.vstack(blocks)
        want = IntegerLattice(n, rows)
        sp = SimpleNamespace(rank=n)
        monkeypatch.setattr(catalogs, "BATCH", chunk)
        batches = list(catalogs._batches(blocks))
        dense = [len(b) for b in batches if not catalogs._sparse(b)]
        sides.update(map(catalogs._sparse, batches))
        stream = catalogs.BlockStream(blocks)
        tested.clear()
        with monkeypatch.context() as m:
            m.setattr(IntegerLattice, "remainders", recording)
            got = catalog_lattice(sp, stream)
        assert got == want
        assert tested == dense
        # every row is pulled, whether or not the span saturates
        assert len(stream) == len(rows)
        if case == "early":
            assert got == target and got is not target
        elif case == "never":
            assert got != target
        else:
            assert target.membership(got.basis) is None
        # all rows in one block: the same span
        assert catalog_lattice(sp, [rows]) == want

    check()
    assert sides == {False, True}


@pytest.mark.parametrize("g", [3, 4])
@pytest.mark.parametrize("catalog", ["realizable", "brackets"])
def test_sparse_catalogs_go_untested_into_the_hnf_loop(g, catalog,
                                                        monkeypatch):
    """The realizable catalog and the tripod brackets average under
    SPARSE_ROW nonzeros per row, so their spans make no membership test:
    each is the lattice of all its rows, read into one HNF loop."""
    sp = space(g)
    make = {"realizable": realizable_catalog_A,
            "brackets": lambda sp: tripod_bracket_entries(sp, None)}[catalog]
    rows = stacked(make(sp))
    want = IntegerLattice(sp.rank, rows)
    calls = []
    real = intlin.solve_over_hnf

    def recording(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(intlin, "solve_over_hnf", recording)
    stream = make(sp)
    got = catalog_lattice(sp, stream)
    assert calls == []
    assert len(stream) == len(rows)
    assert got == want


def test_dense_batch_against_the_empty_span_makes_no_solve(monkeypatch):
    """The first Johnson batch at genus 3 meets the zero lattice and goes
    into the HNF loop with no ``solve_over_hnf``; every later batch, all
    dense, makes one, and the span is the lattice of all the rows."""
    sp = space(3)
    batches = list(catalogs._batches(johnson_catalog(sp)))
    assert len(batches) > 1 and not any(map(catalogs._sparse, batches))
    calls = []
    real = intlin.solve_over_hnf

    def recording(*args, **kwargs):
        calls.append(len(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(intlin, "solve_over_hnf", recording)
    got = catalog_lattice(sp, johnson_catalog(sp))
    assert calls == [len(b) for b in batches[1:]]
    assert got == IntegerLattice(sp.rank, np.vstack(batches))


def test_gl_generators_generate_symplectically():
    for g in (2, 3):
        for p in gl_generators(g):
            assert abs(round(float(np.linalg.det(p.astype(float))))) == 1
        for m in goeritz_symmetries(g):
            assert is_symplectic(m)


def test_orbit_closure_stabilizes():
    sp = space(2)
    lat = goeritz_tau1_lattice(sp)
    mixed = mixed_wedge_lattice(sp)
    assert lat == mixed
    assert lat.rank == 4


def test_orbit_closure_invariant_under_action():
    sp = space(2)
    lat = goeritz_tau1_lattice(sp)
    for m in goeritz_symmetries(2):
        moved = transform_rows(sp.ctx, m, lat.basis, 2)
        for row in moved:
            assert row in lat


# -- the reference homology action m (x) L_k(m) ---------------------------

def lie_degree_matrix(ctx, m, k):
    """Matrix of L_k(m) over the Lyndon basis.

    Degree by degree, the image of each Lyndon word w = uv (standard
    factorization) is the bracket of the images of u and v; the words of
    one degree that split into the same pair of lengths share one batched
    bracket."""
    images = {1: np.asarray(m).T}  # degree -> rows L_d(m) e_w
    for d in range(2, k + 1):
        rows = [None] * ctx.dim(d)
        split = {}
        for i, w in enumerate(ctx.lyndon(d)):
            u, v = standard_factorization(w)
            split.setdefault((len(u), len(v)), []).append(
                (i, ctx.lyndon_index(len(u))[u], ctx.lyndon_index(len(v))[v]))
        for (lu, lv), group in split.items():
            at, iu, iv = (list(c) for c in zip(*group))
            brackets = ctx.lie_bracket(lu, images[lu][iu], lv, images[lv][iv])
            for i, row in zip(at, brackets):
                rows[i] = row
        images[d] = np.array(rows)
    return images[k].T


def transform_rows(ctx, m, rows, k):
    """Apply the degree-k homology action m (x) L_k(m) to a stack of
    H (x) L_k vectors, as two exact products: first L_k(m) on the Lie
    factor of every H-block, then m across the blocks."""
    rows = np.asarray(rows)
    n = len(rows)
    h = 2 * ctx.g
    dk = ctx.dim(k)
    lie = safe_matmul(rows.reshape(n * h, dk), lie_degree_matrix(ctx, m, k).T)
    by_block = lie.reshape(n, h, dk).transpose(1, 0, 2).reshape(h, n * dk)
    out = safe_matmul(m, by_block)
    return out.reshape(h, n, dk).transpose(1, 0, 2).reshape(n, h * dk)


def _kron_action(ctx, m, rows, k):
    """Reference action: rows times the full matrix m (x) L_k(m), exactly."""
    full = np.kron(m, lie_degree_matrix(ctx, m, k)).astype(object)
    return np.asarray(rows, dtype=object) @ full.T


@pytest.mark.parametrize("g,k", [(2, 2), (2, 3), (3, 3)])
def test_transform_rows_matches_kron_action(g, k):
    ctx = context(g)
    rng = np.random.default_rng(10 * g + k)
    rows = rng.integers(-3, 4, size=(5, 2 * g * ctx.dim(k)))
    for m in goeritz_symmetries(g):
        assert np.array_equal(transform_rows(ctx, m, rows, k),
                              _kron_action(ctx, m, rows, k))


def test_transform_rows_exact_at_int64_bound(monkeypatch):
    # Entries c with c * max|L_k(m)| * dim L_k just below 2**62 keep the
    # first product in int64; one more tips it into object dtype.
    ctx = context(2)
    k = 3
    m = goeritz_symmetries(2)[-2]  # the shear, whose L_3 has entries > 1
    lk = lie_degree_matrix(ctx, m, k)
    c = (2 ** 62 - 1) // (int(np.abs(lk).max()) * ctx.dim(k))
    real = safe_matmul
    dtypes = []

    def recording(a, b):
        out = real(a, b)
        dtypes.append(out.dtype)
        return out

    # the reference's own products, read from this module's globals
    monkeypatch.setitem(globals(), "safe_matmul", recording)
    rng = np.random.default_rng(5)
    signs = rng.choice([-1, 1], size=(3, 2 * ctx.g * ctx.dim(k)))
    for entry, first_dtype in ((c, np.int64), (c + 1, object)):
        rows = signs.astype(object) * entry
        dtypes.clear()
        out = transform_rows(ctx, m, rows, k)
        assert dtypes[0] == first_dtype
        assert np.array_equal(out, _kron_action(ctx, m, rows, k))


def _naive_closure(ctx, seed_rows, mats, k):
    """Move the whole basis every round; returns (lattice, rounds)."""
    ambient = 2 * ctx.g * ctx.dim(k)
    lat = IntegerLattice(ambient, np.asarray(seed_rows))
    rounds = 0
    while True:
        rounds += 1
        new = lat
        for m in mats:
            moved = transform_rows(ctx, m, lat.basis, k)
            new = new.sum(moved)
        if new == lat:
            return lat, rounds
        lat = new


def tripod_images(sp):
    """E: eta1 of each basis tripod, one row each, which maps Lambda^3 H
    coordinates over ``basis_tripods`` into H (x) L_2."""
    return eta1(sp.ctx, *np.array(basis_tripods(sp.g)).T)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_tripod_actions_match_the_kron_action(g):
    """Each symmetry's third compound matrix C, on Lambda^3 H coordinates,
    is the reference action through E: C E = E (m (x) L_2(m))^T."""
    sp = space(g)
    e_mat = tripod_images(sp)
    for m in goeritz_symmetries(g):
        c = catalogs._tripod_action(sp, m)
        assert c.dtype == np.int64 and c.shape == (len(e_mat), len(e_mat))
        assert np.array_equal(safe_matmul(c, e_mat),
                              _kron_action(sp.ctx, m, e_mat, 2))


def _goeritz_seed(sp, which):
    """The seed rows and the degree k of a Goeritz orbit closure in
    H (x) L_k, then what ``orbit_closure`` takes for it: the seed rows and
    the actions in the closure's own coordinates, and the matrix that maps
    those coordinates to H (x) L_k.  The tau_2 seed is a stream, which a
    lattice reads once, so it is stacked here for the repeated closures."""
    ctx = sp.ctx
    if which == "tau1":
        seed = eta1(ctx, [0], [sp.g], [sp.g + 1])
        tripods = basis_tripods(sp.g)
        unit = np.eye(len(tripods), dtype=np.int64)[
            [tripods.index((0, sp.g, sp.g + 1))]]
        actions = [catalogs._tripod_action(sp, m)
                   for m in goeritz_symmetries(sp.g)]
        return seed, 2, unit, actions, tripod_images(sp)
    stream = goeritz_tau2_entries(sp)
    assert isinstance(stream, catalogs.BlockStream)
    rows = np.vstack(list(stream))
    basis = sp.d2().basis
    return (safe_matmul(rows, basis), 3, rows, catalogs.coordinate_actions(sp),
            basis)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("which", ["tau1", "tau2"])
def test_orbit_closure_matches_naive_closure(g, which, monkeypatch):
    """The closure equals, mapped to H (x) L_k, a naive closure there that
    moves the whole basis by ``transform_rows`` every round, in as many
    rounds, whether the moved rows are tested a matrix at a time or all
    matrices at once, and formed by one product per tested block."""
    sp = space(g)
    ambient_seed, k, seed, actions, to_ambient = _goeritz_seed(sp, which)
    mats = goeritz_symmetries(g)
    naive, rounds = _naive_closure(sp.ctx, ambient_seed, mats, k)
    assert rounds > 1
    tests, products = [], []
    real = IntegerLattice.contains_rows
    real_product = catalogs.safe_matmul

    def recording(self, rows):
        tests.append(len(rows))
        return real(self, rows)

    def product(a, b):
        products.append(b.shape)
        return real_product(a, b)

    monkeypatch.setattr(IntegerLattice, "contains_rows", recording)
    monkeypatch.setattr(catalogs, "safe_matmul", product)
    # the BLOCK of the program; one so small that every matrix's moved rows
    # are tested alone; one so large that all matrices share one test; one
    # just too small for one matrix, whose blocks of tested rows can still
    # hold several matrices' moved rows
    for block, per_round in ((catalogs.BLOCK, None), (1, len(actions)),
                             (2 ** 40, 1), (actions[0].size - 1, None)):
        monkeypatch.setattr(catalogs, "BLOCK", block)
        tests.clear()
        products.clear()
        monkeypatch.setattr(catalogs, "MAX_ROUNDS", rounds)
        lat = orbit_closure(seed, actions)
        assert IntegerLattice(naive.ambient_dim,
                              safe_matmul(lat.basis, to_ambient)) == naive
        if per_round:
            assert len(tests) == rounds * per_round
        assert len(products) == len(tests)
        # the same number of rounds: one fewer is not enough
        for limit in {1, rounds - 1}:
            monkeypatch.setattr(catalogs, "MAX_ROUNDS", limit)
            with pytest.raises(RuntimeError):
                orbit_closure(seed, actions)


def test_moved_rows_keep_the_order_of_one_product_per_matrix(monkeypatch):
    """One product with the matrices side by side gives the moved rows of
    each matrix in turn, as one product per matrix does, also for no rows:
    the closure of the zero lattice stops after one round."""
    rng = np.random.default_rng(71)
    rows = rng.integers(-3, 4, size=(4, 6))
    actions = [rng.integers(-2, 3, size=(6, 6)).astype(np.int8)
               for _ in range(3)]
    want = np.vstack([rows @ a for a in actions])
    assert np.array_equal(catalogs._moved(rows, actions), want)
    none = catalogs._moved(rows[:0], actions)
    assert none.shape == (0, 6)
    monkeypatch.setattr(catalogs, "MAX_ROUNDS", 1)
    zero = orbit_closure(np.zeros((1, 6), dtype=np.int64), actions)
    assert zero.basis.shape == (0, 6)


def coordinate_actions_match_reference(sp):
    """Assert that each symmetry's r x r matrix equals the reference, D_2's
    basis moved by ``transform_rows`` and read back through ``coords``, in
    value, is stored in int8 as every entry is at most 2, and is read-only;
    return how many were compared."""
    mats = goeritz_symmetries(sp.g)
    actions = catalogs.coordinate_actions(sp)
    assert len(actions) == len(mats)
    for m, a in zip(mats, actions):
        want = sp.d2().membership(transform_rows(sp.ctx, m, sp.d2().basis, 3))
        assert a.dtype == np.int8 and want.dtype == np.int64
        assert not a.flags.writeable
        assert np.array_equal(a, want)
    return len(actions)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_coordinate_actions_match_transform_rows(g):
    """Each symmetry's r x r matrix equals the reference, and on random D_2
    elements (one row past int64) agrees with ``transform_rows`` in
    H (x) L_3 (genus 5 in CI)."""
    sp = space(g)
    assert coordinate_actions_match_reference(sp) == 5
    basis = sp.d2().basis
    rng = np.random.default_rng(60 + g)
    y = rng.integers(-5, 6, size=(4, sp.rank)).astype(object)
    y[0] *= 2 ** 61 + 1
    v = safe_matmul(y, basis)
    for m, a in zip(goeritz_symmetries(g), catalogs.coordinate_actions(sp)):
        moved = transform_rows(sp.ctx, m, v, 3)
        assert np.array_equal(safe_matmul(safe_matmul(y, a), basis), moved)


def test_johnson_stream_deduplicates_as_in_the_ambient():
    """Deduplicating coordinate rows up to sign keeps the rows that
    deduplicating their H (x) L_3 values keeps, in the same order: 1,134 at
    genus 3 (16,954 at genus 4, compared in CI)."""
    sp = space(3)
    got = np.vstack(list(johnson_catalog(sp)))
    want = np.vstack(list(_unique_blocks(lie_path_rows(sp, False))))
    assert len(got) == 1134
    assert np.array_equal(got, sp.d2().membership(want))


def test_unique_blocks_keys_rows_past_int64_by_value():
    """Rows are new or old up to sign by their exact values, whatever the
    dtype of their block: object rows past int64 by their Python ints,
    object rows that fit by the int64 or int8 keys an int64 block gives the
    same row."""
    big = 2 ** 70 + 1
    blocks = [
        np.array([[big, 3], [0, 2 ** 63], [-1, -200]], dtype=object),
        # the first block's rows negated (a distinct object equal to -big
        # among them), and -2**63 leading a row whose sign flip is past
        # int64
        np.array([[-(2 ** 70) - 1, -3], [0, -2 ** 63], [2 ** 62, 1],
                  [1, 200], [-2 ** 63, 5]], dtype=object),
        # an int64 block repeating an object row that fits, negated
        np.array([[-2 ** 62, -1], [2 ** 63 - 1, -128], [3, 4]],
                 dtype=np.int64),
        # object rows repeating int64 rows, and the flipped -2**63 row
        np.array([[-(2 ** 63) + 1, 128], [-3, -4], [2 ** 63, -5]],
                 dtype=object),
    ]
    got = [block.tolist() for block in _unique_blocks(blocks)]
    assert got == [[[big, 3], [0, 2 ** 63], [-1, -200]],
                   [[2 ** 62, 1], [-2 ** 63, 5]],
                   [[2 ** 63 - 1, -128], [3, 4]]]
