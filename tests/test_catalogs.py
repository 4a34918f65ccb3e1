"""Generator catalogs: bounding-curve images, tripod brackets, and the
symmetry-orbit lattices."""

import itertools
import math
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
from sympderiv.derivspace import DerivationSpace, lie_degree_matrix, space
from sympderiv.freelie import context
from sympderiv.intlin import IntegerLattice
from sympderiv.trees import derivation_bracket, eta1, eta2, expand_symhalf
from test_freelie import letter_name
from test_trees import tree_bracket


def is_symplectic(m):
    """m^T J m == J for the Gram matrix J = [[0, I], [-I, 0]] of omega."""
    g = len(m) // 2
    z, i = np.zeros((g, g), dtype=np.int64), np.eye(g, dtype=np.int64)
    j = np.block([[z, i], [-i, z]])
    return bool(np.array_equal(m.T @ j @ m, j))


def _e(ctx):
    return [np.array(ctx.basis_vector(p)) for p in range(ctx.n)]


def test_single_pair_is_symhalf():
    sp = space(2)
    ctx = sp.ctx
    e = _e(ctx)
    v = bscc_image(sp, [(e[0], e[2])])
    assert np.array_equal(v, expand_symhalf(ctx, e[0], e[2]))


def test_two_handle_image():
    # per-handle terms plus the single cross tree between the handles
    sp = space(2)
    ctx = sp.ctx
    e = _e(ctx)
    a1, a2, b1, b2 = e[0], e[1], e[2], e[3]
    v = bscc_image(sp, [(a1, b1), (a2, b2)])
    expect = (expand_symhalf(ctx, a1, b1) + expand_symhalf(ctx, a2, b2)
              + eta2(ctx, a1, b1, a2, b2))
    assert np.array_equal(v, expect)
    # the cross tree equals minus tree(a1 b1 | b2 a2)
    assert np.array_equal(eta2(ctx, a1, b1, a2, b2),
                          -eta2(ctx, a1, b1, b2, a2))


def test_sheared_pair_image():
    sp = space(2)
    ctx = sp.ctx
    e = _e(ctx)
    a1, a2, b2 = e[0], e[1], e[3]
    v = bscc_image(sp, [(a1 - b2, a2)])
    expect = (expand_symhalf(ctx, a1, a2) - eta2(ctx, a1, a2, b2, a2)
              + expand_symhalf(ctx, b2, a2))
    assert np.array_equal(v, expect)


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
        assert v in sp.d2()
        assert not traces.tr_as(sp, v[None]).any()


def test_basis_tripod_counts():
    assert len(basis_tripods(2)) == 4
    assert len(basis_tripods(2, "A")) == 4
    assert len(basis_tripods(2, "mixed")) == 4
    assert len(basis_tripods(3)) == 20
    assert len(basis_tripods(3, "A")) == 19
    assert len(basis_tripods(3, "B")) == 19
    assert len(basis_tripods(3, "mixed")) == 18


def test_realizable_catalog_genus2():
    sp = space(2)
    entries = realizable_catalog_A(sp)
    ker = traces.ker_tr_A(sp).intersection(traces.ker_tr_as(sp))
    lat = catalog_lattice(sp, entries, target=ker)
    assert lat.rank == 13
    assert ker.rank == 16
    for row in lat.basis:
        assert row in ker


def test_realizable_entries_are_kernel_elements():
    sp = space(2)
    rows = realizable_catalog_A(sp)
    for row in rows[:10]:
        assert not traces.tr_A(sp, row, check_domain=False).any()
        assert not traces.tr_as(sp, row[None]).any()


def test_johnson_catalog_spans_as_kernel():
    sp = space(2)
    ker = traces.ker_tr_as(sp)
    two = catalog_lattice(sp, johnson_catalog(sp), target=ker)
    assert two.rank == 19  # two-term colors stop one short at genus 2
    three = catalog_lattice(sp, johnson_catalog(sp, three_term=True),
                            target=ker)
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
    omega = ctx.omega
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
            expand_symhalf(ctx, u, v))
    for k, (u1, v1) in enumerate(pairs):
        for u2, v2 in pairs[k + 1:]:
            if any(omega(x, y) for x in (u1, v1) for y in (u2, v2)):
                continue
            add("tree(%s,%s|%s,%s)" % tuple(
                pretty_vector(ctx, x) for x in (u1, v1, u2, v2)),
                eta2(ctx, u1, v1, u2, v2))
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
        assert np.array_equal(row, val), name


def lie_path_rows(sp, three_term):
    """The Johnson candidates, CHUNK at a time, each expanded through Lie
    brackets: expand_symhalf of every symplectic pair of colors, then eta2
    of every pair of those pairs."""
    ctx = sp.ctx
    colors, u, v, k, l = catalogs._johnson_candidates(sp.g, three_term)
    for c in catalogs._chunks(len(u)):
        yield expand_symhalf(ctx, colors[u[c]], colors[v[c]])
    for c in catalogs._chunks(len(k)):
        yield eta2(ctx, colors[u[k[c]]], colors[v[k[c]]],
                   colors[u[l[c]]], colors[v[l[c]]])


def johnson_rows_match_lie_path(sp, three_term):
    """Assert that every block of candidate rows the Johnson stream reads
    from generator columns, before deduplication, equals the Lie-path
    expansion of its candidates in value and dtype; return how many
    candidates were compared."""
    count = 0
    for got, want in itertools.zip_longest(
            catalogs._johnson_rows(sp, three_term),
            lie_path_rows(sp, three_term)):
        assert got is not None and want is not None
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        count += len(got)
    return count


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("three_term", [False, True])
def test_johnson_rows_match_lie_path(g, three_term):
    sp = space(g)
    _, u, _, k, _ = catalogs._johnson_candidates(g, three_term)
    assert johnson_rows_match_lie_path(sp, three_term) == len(u) + len(k)


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
        got = tripod_bracket_entries(sp, side)
        assert got.dtype == np.int64
        assert np.array_equal(got, want[(want != 0).any(axis=1)])
        for (p, q), row in zip(pairs, want):
            if (p, q) not in oracle:
                oracle[p, q] = derivation_bracket(
                    ctx, eta1(ctx, *e[list(p)]), eta1(ctx, *e[list(q)]))
            assert np.array_equal(row, oracle[p, q])


def test_scatter_exact_at_int64_bound(monkeypatch):
    """Leaf entries c near 2**31 put the scatter's bound (the most triplets
    of one row, times max|weight|, times max|gen_matrix()|) just under
    2**62, then at it: int64 rows, then Python ints, both equal to the Lie
    path."""
    sp = space(2)
    ctx = sp.ctx
    a1, a2, b1, b2 = _e(ctx)
    dtypes = []
    real = DerivationSpace.gen_rows

    def recording(self, nrows, row, gen, weight):
        out = real(self, nrows, row, gen, weight)
        bound = (int(np.bincount(row).max()) * int(np.abs(weight).max())
                 * int(np.abs(self.gen_matrix()).max()))
        assert (out.dtype == np.int64) == (bound < 2 ** 62)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(DerivationSpace, "gen_rows", recording)
    # u ^ v = a1^b1 + c a2^b1: weights 1, c and c^2 in one row, bound 6 c^2
    c = math.isqrt((2 ** 62 - 1) // 6)
    for x in (c, c + 1):
        u, v = a1 + x * a2, b1
        assert np.array_equal(bscc_image(sp, [(u, v)]),
                              expand_symhalf(ctx, u, v))
    # two contractions, omega(c a1, c b1) = c^2 and omega(b2, a2) = -1
    # against wedges c a1^a2 and -c a1^b1: weight c^2 each, bound 4 c^2
    c = math.isqrt((2 ** 62 - 1) // 4)
    for x in (c, c + 1):
        s, t = (x * a1, a2, b2), (x * b1, a1, a2)
        got = catalogs._tripod_brackets(sp, [y[None] for y in s],
                                        [y[None] for y in t])
        assert np.array_equal(got[0], tree_bracket(ctx, s, t))
    assert dtypes == [np.int64, object, np.int64, object]


def test_catalog_lattice_tests_rows_past_saturation(monkeypatch):
    # genus 3: the two-term colors span ker tr_as before the last block;
    # every row is pulled and solved over the target, but only the rows
    # not yet in the span reach the coordinate HNFs, so those see fewer
    # rows than the stream held
    sp = space(3)
    ker = traces.ker_tr_as(sp)
    total = sum(map(len, johnson_catalog(sp)))
    reduced = []
    real = intlin.hermite_normal_form

    def recording(m, transform=False):
        if np.shape(m)[1] == ker.rank:  # in the target's coordinates
            reduced.append(len(m))
        return real(m, transform)

    monkeypatch.setattr(intlin, "hermite_normal_form", recording)
    stream = johnson_catalog(sp)
    assert catalog_lattice(sp, stream, target=ker) is ker
    assert len(stream) == total and next(stream, None) is None
    assert 0 < sum(reduced) < total


def _target_and_rows(draw, st):
    """A random lattice of full rank r, its generators (echelon rows whose
    pivots, and so those of its HNF, are past 2^31 when the scale 2^33 is
    drawn), and row blocks of integer combinations of them."""
    n = draw(st.integers(2, 7))
    r = draw(st.integers(1, n))
    scale = draw(st.sampled_from([1, 2 ** 33]))
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * r,
                            max_size=n * r))
    gens = np.triu(np.array(entries, dtype=np.int64).reshape(r, n), 1)
    gens[np.arange(r), np.arange(r)] = scale * np.arange(1, r + 1)
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=r * sum(sizes),
                           max_size=r * sum(sizes)))
    rows = np.array(coeffs, dtype=np.int64).reshape(-1, r) @ gens
    blocks = np.split(rows, np.cumsum(sizes)[:-1])
    return n, IntegerLattice(n, gens), gens, blocks


@pytest.mark.parametrize("case", ["early", "never", "outside", "late"])
def test_catalog_lattice_with_target_equals_ambient_span(case):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

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
        sp = SimpleNamespace(ambient_dim=n)
        stream = catalogs.BlockStream(blocks)
        got = catalog_lattice(sp, stream, target=target, chunk=chunk)
        assert got == want
        # every row is pulled, whether or not the span saturates
        assert len(stream) == len(rows)
        if case == "early":
            assert got is target
        elif case == "never":
            assert got != target
        else:
            assert target.membership(got.basis) is None
        # one matrix, and no target: the same span
        assert catalog_lattice(sp, rows, target=target, chunk=chunk) == want
        assert catalog_lattice(sp, rows, chunk=chunk) == want

    check()


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
        moved = catalogs._transform_rows(sp.ctx, m, lat.basis, 2)
        for row in moved:
            assert row in lat


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
        assert np.array_equal(catalogs._transform_rows(ctx, m, rows, k),
                              _kron_action(ctx, m, rows, k))


def test_transform_rows_exact_at_int64_bound(monkeypatch):
    # Entries c with c * max|L_k(m)| * dim L_k just below 2**62 keep the
    # first product in int64; one more tips it into object dtype.
    ctx = context(2)
    k = 3
    m = goeritz_symmetries(2)[-2]  # the shear, whose L_3 has entries > 1
    lk = lie_degree_matrix(ctx, m, k)
    c = (2 ** 62 - 1) // (int(np.abs(lk).max()) * ctx.dim(k))
    real = catalogs.safe_matmul
    dtypes = []

    def recording(a, b):
        out = real(a, b)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(catalogs, "safe_matmul", recording)
    rng = np.random.default_rng(5)
    signs = rng.choice([-1, 1], size=(3, 2 * ctx.g * ctx.dim(k)))
    for entry, first_dtype in ((c, np.int64), (c + 1, object)):
        rows = signs.astype(object) * entry
        dtypes.clear()
        out = catalogs._transform_rows(ctx, m, rows, k)
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
            moved = catalogs._transform_rows(ctx, m, lat.basis, k)
            new = new.sum(IntegerLattice(ambient, moved))
        if new == lat:
            return lat, rounds
        lat = new


def _goeritz_seed(sp, which):
    ctx = sp.ctx
    if which == "tau1":
        e = ctx.basis_vector
        return [eta1(ctx, e(0), e(sp.g), e(sp.g + 1))], 2
    return goeritz_tau2_entries(sp), 3


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("which", ["tau1", "tau2"])
def test_orbit_closure_matches_naive_closure(g, which):
    sp = space(g)
    seed, k = _goeritz_seed(sp, which)
    mats = goeritz_symmetries(g)
    naive, rounds = _naive_closure(sp.ctx, seed, mats, k)
    assert rounds > 1
    assert orbit_closure(sp.ctx, seed, mats, k, max_rounds=rounds) == naive
    # the same number of rounds: one fewer is not enough
    for limit in {1, rounds - 1}:
        with pytest.raises(RuntimeError):
            orbit_closure(sp.ctx, seed, mats, k, max_rounds=limit)
