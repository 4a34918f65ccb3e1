"""Tripod and H-tree expansions: symmetries, IHX, and the bracket oracle.

The library expands trees of letter indices from bracket tables
(``trees.eta1``, ``trees.eta2``).  The references here take any leaves in
H: ``vector_eta1`` and ``vector_eta2`` are the definitions, through Lie
brackets of Lyndon coordinates, and ``expand_symhalf`` is the reference
expansion of a symmetric half u (.) v, which the library reads as half of
eta2(u, v | u, v) (``DerivationSpace._expansions``).  The letter-index
expansions must equal them on one-hot leaves.  ``tree_bracket`` is the
reference for tripod brackets with any leaves: it expands every
contraction through ``vector_eta2`` and sums on Python ints.
``tripod_brackets`` reads the same brackets from the wedge coordinates of
vector leaves, through the library's ``_wedge``, ``_tree_terms`` and
``gen_rows``; it is the reference for ``catalogs.tripod_bracket_entries``,
which reads basis tripods from their letter indices alone.
"""

import numpy as np
import pytest

from sympderiv import trees
from sympderiv.catalogs import _tree_terms, _wedge
from sympderiv.derivspace import space
from sympderiv.freelie import (SymplecticContext, context, tensor_add,
                               tensor_concat_commutator)
from sympderiv.intlin import safe_einsum, safe_matmul
from sympderiv.trees import TREE_BRACKET_SIGN, derivation_bracket, eta1, eta2
from test_freelie import lyndon_to_tensor


def hl_sum(terms) -> np.ndarray:
    """Flat H (x) L_k rows of sum_t vec_t (x) lie_t: one exact contraction
    over the stacked terms (int64 under its bound, else Python ints)."""
    vecs = np.stack([v for v, _ in terms], axis=1)
    lies = np.stack([l for _, l in terms], axis=1)
    out = safe_einsum("mth,mtd->mhd", vecs, lies)
    return out.reshape(len(out), vecs.shape[2] * lies.shape[2])


def vector_eta1(ctx, u, v, w):
    """Tripod expansion of leaf stacks in H (x) L_2, one row per row; the
    cherry (x,y) reads as [y,x]."""
    # a (x) [c,b] for the cyclic rotations (a,b,c) of (u,v,w)
    return hl_sum([(a, ctx.lie_bracket(1, c, 1, b))
                   for a, b, c in ((u, v, w), (v, w, u), (w, u, v))])


def vector_eta2(ctx, a, b, c, d):
    """H-tree expansion a(x)[b,[c,d]] + b(x)[[c,d],a] + c(x)[d,[a,b]] +
    d(x)[[a,b],c] of leaf stacks, one row per row."""
    cd = ctx.lie_bracket(1, c, 1, d)
    ab = ctx.lie_bracket(1, a, 1, b)
    return hl_sum([(a, ctx.lie_bracket(1, b, 2, cd)),
                   (b, ctx.lie_bracket(2, cd, 1, a)),
                   (c, ctx.lie_bracket(1, d, 2, ab)),
                   (d, ctx.lie_bracket(2, ab, 1, c))])


def expand_symhalf(ctx, u, v):
    """u (.) v expands to u(x)[v,[u,v]] + v(x)[[u,v],u]; its double is
    eta2(u,v|u,v).  Leaves are stacks giving one row per pair."""
    uv = ctx.lie_bracket(1, u, 1, v)
    return hl_sum([(u, ctx.lie_bracket(1, v, 2, uv)),
                   (v, ctx.lie_bracket(2, uv, 1, u))])


def tree_bracket(ctx, s, t):
    """Bracket of two tripods: the sum over all nine omega-contractions of
    sign times omega(s_i, t_j) times eta2(s_{i+1}, s_{i+2} | t_{j+1},
    t_{j+2}), on Python ints.  s and t are triples of stacks of H-vectors
    giving one row per pair of tripods."""
    out = 0
    for i in range(3):
        for j in range(3):
            w = TREE_BRACKET_SIGN * ctx.omega(s[i], t[j]).astype(object)
            tree = vector_eta2(ctx, s[(i + 1) % 3], s[(i + 2) % 3],
                        t[(j + 1) % 3], t[(j + 2) % 3])
            out = out + w[:, None] * tree.astype(object)
    return out


def tripod_brackets(sp, s, t):
    """Brackets of tripods s = (s1, s2, s3) and t = (t1, t2, t3), leaf stacks
    giving one row per pair, in D_2 coordinates: the sum over the nine
    omega-contractions of sign times omega(s_i, t_j) times eta2(s_{i+1},
    s_{i+2} | t_{j+1}, t_{j+2}), the contractions stacked and kept where
    omega is nonzero, each read from the wedge coordinates of its leaves."""
    nrows = len(s[0])
    ij = [(i, j) for i in range(3) for j in range(3)]
    s = [np.concatenate([s[(i + k) % 3] for i, _ in ij]) for k in range(3)]
    t = [np.concatenate([t[(j + k) % 3] for _, j in ij]) for k in range(3)]
    w = TREE_BRACKET_SIGN * sp.ctx.omega(s[0], t[0])
    at = np.flatnonzero(w)
    m, gen, weight = _tree_terms(
        sp, safe_einsum("m,mP->mP", w[at], _wedge(sp, s[1][at], s[2][at])),
        _wedge(sp, t[1][at], t[2][at]))
    return sp.gen_rows(nrows, at[m] % nrows, gen, weight)


def table_bracket(ctx, s, t):
    """The wedge-coordinate tripod bracket, one row per pair, mapped from
    D_2 coordinates back to H (x) L_3."""
    sp = space(ctx.g)
    return safe_matmul(tripod_brackets(sp, s, t), sp.d2().basis)


def _rand_vecs(ctx, rng, n):
    """n one-row stacks of H-vectors."""
    return [rng.integers(-3, 4, size=(1, ctx.n)) for _ in range(n)]


def test_eta1_cyclic_and_antisymmetric():
    ctx = context(2)
    rng = np.random.default_rng(0)
    u, v, w = _rand_vecs(ctx, rng, 3)
    base = vector_eta1(ctx, u, v, w)
    assert np.array_equal(vector_eta1(ctx, v, w, u), base)
    assert np.array_equal(vector_eta1(ctx, w, u, v), base)
    assert np.array_equal(vector_eta1(ctx, v, u, w), -base)


def test_eta1_multilinear():
    ctx = context(2)
    rng = np.random.default_rng(1)
    u, u2, v, w = _rand_vecs(ctx, rng, 4)
    lhs = vector_eta1(ctx, np.asarray(u) + 2 * np.asarray(u2), v, w)
    rhs = vector_eta1(ctx, u, v, w) + 2 * vector_eta1(ctx, u2, v, w)
    assert np.array_equal(lhs, rhs)


def test_eta2_pair_symmetries():
    ctx = context(2)
    rng = np.random.default_rng(2)
    a, b, c, d = _rand_vecs(ctx, rng, 4)
    base = vector_eta2(ctx, a, b, c, d)
    assert np.array_equal(vector_eta2(ctx, b, a, c, d), -base)
    assert np.array_equal(vector_eta2(ctx, a, b, d, c), -base)
    assert np.array_equal(vector_eta2(ctx, c, d, a, b), base)


def test_eta2_ihx():
    """Summing over the three cyclic mid-edge slidings gives zero."""
    ctx = context(2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c, d = _rand_vecs(ctx, rng, 4)
        total = (vector_eta2(ctx, a, b, c, d)
                 + vector_eta2(ctx, b, c, a, d)
                 + vector_eta2(ctx, c, a, b, d))
        assert not total.any()


def test_symhalf_doubling():
    ctx = context(2)
    rng = np.random.default_rng(4)
    u, v = _rand_vecs(ctx, rng, 2)
    assert np.array_equal(2 * expand_symhalf(ctx, u, v),
                          vector_eta2(ctx, u, v, u, v))
    # symmetric, and insensitive to negating one argument
    assert np.array_equal(expand_symhalf(ctx, v, u), expand_symhalf(ctx, u, v))
    assert np.array_equal(expand_symhalf(ctx, u, -np.asarray(v)),
                          expand_symhalf(ctx, u, v))


def test_symhalf_polarization():
    # (u+v) . w - u . w - v . w = eta2(u, w | v, w)
    ctx = context(2)
    rng = np.random.default_rng(5)
    u, v, w = _rand_vecs(ctx, rng, 3)
    lhs = (expand_symhalf(ctx, np.asarray(u) + np.asarray(v), w)
           - expand_symhalf(ctx, u, w) - expand_symhalf(ctx, v, w))
    assert np.array_equal(lhs, vector_eta2(ctx, u, w, v, w))


def test_tree_bracket_antisymmetric():
    ctx = context(2)
    rng = np.random.default_rng(6)
    s = tuple(_rand_vecs(ctx, rng, 3))
    t = tuple(_rand_vecs(ctx, rng, 3))
    assert np.array_equal(tree_bracket(ctx, s, t), -tree_bracket(ctx, t, s))
    assert np.array_equal(table_bracket(ctx, s, t), -table_bracket(ctx, t, s))


def test_tree_bracket_matches_derivation_oracle():
    """The nine-contraction formula agrees with the honest commutator of
    the associated derivations, computed by Leibniz extension."""
    ctx = context(2)
    rng = np.random.default_rng(7)
    for _ in range(8):
        s = tuple(_rand_vecs(ctx, rng, 3))
        t = tuple(_rand_vecs(ctx, rng, 3))
        via_trees = tree_bracket(ctx, s, t)[0]
        via_derivations = derivation_bracket(ctx, vector_eta1(ctx, *s)[0],
                                             vector_eta1(ctx, *t)[0])
        assert np.array_equal(via_trees, via_derivations)
        assert np.array_equal(table_bracket(ctx, s, t)[0], via_derivations)


def test_tree_bracket_on_basis_tripods_genus3():
    ctx = context(3)
    e = np.eye(ctx.n, dtype=np.int64)[:, None]  # one-row stacks
    s = (e[0], e[1], e[3])
    t = (e[2], e[4], e[5])
    via_trees = tree_bracket(ctx, s, t)[0]
    via_derivations = derivation_bracket(ctx, vector_eta1(ctx, *s)[0],
                                         vector_eta1(ctx, *t)[0])
    assert np.array_equal(via_trees, via_derivations)
    assert np.array_equal(table_bracket(ctx, s, t)[0], via_derivations)
    assert via_trees.any()


def test_lagrangian_tripods_commute():
    # all leaves on the A side: every omega-contraction vanishes
    ctx = context(2)
    e0, e1 = np.eye(ctx.n, dtype=np.int64)[:2, None]
    s = (e0, e1, e0 + e1)
    t = (e1, e0, e0 - e1)
    assert not tree_bracket(ctx, s, t).any()
    assert not table_bracket(ctx, s, t).any()


def _stacks(ctx, rng, n, rows, scale=3):
    """n leaf stacks; row 1 of the first stack is zero, and row 2 is zero
    in every stack."""
    out = [rng.integers(-scale, scale + 1, size=(rows, ctx.n)) for _ in range(n)]
    out[0][1] = 0
    for x in out:
        x[2] = 0
    return out


@pytest.mark.parametrize("g", [2, 3])
def test_batched_expansions_match_rows(g):
    ctx = context(g)
    rng = np.random.default_rng(10 + g)
    a, b, c, d, e, f = _stacks(ctx, rng, 6, 5)
    cases = [(vector_eta1, (a, b, c)), (vector_eta2, (a, b, c, d)),
             (expand_symhalf, (a, b))]
    for fn, leaves in cases:
        rows = fn(ctx, *leaves)
        assert rows.shape[0] == 5 and rows.dtype == np.int64
        for i, row in enumerate(rows):
            one = fn(ctx, *(x[i:i + 1] for x in leaves))
            assert np.array_equal(one, row[None])
        assert not rows[2].any()
    rows = tree_bracket(ctx, (a, b, c), (d, e, f))
    for i, row in enumerate(rows):
        one = tree_bracket(ctx, (a[i:i + 1], b[i:i + 1], c[i:i + 1]),
                           (d[i:i + 1], e[i:i + 1], f[i:i + 1]))
        assert np.array_equal(one, row[None])
    assert not rows[2].any()
    table = table_bracket(ctx, (a, b, c), (d, e, f))
    assert table.dtype == np.int64 and np.array_equal(table, rows)


def _tensor(vec):
    return {(p,): int(c) for p, c in enumerate(vec) if int(c)}


def _eta2_tensors(ctx, a, b, c, d):
    """Per H-letter tensors of eta2 on Python ints: a reference that never
    leaves the dict algebra."""
    br = tensor_concat_commutator
    ta, tb, tc, td = (_tensor(x) for x in (a, b, c, d))
    cd, ab = br(tc, td), br(ta, tb)
    out = [{} for _ in range(ctx.n)]
    for vec, lie in ((a, br(tb, cd)), (b, br(cd, ta)),
                     (c, br(td, ab)), (d, br(ab, tc))):
        for h in range(ctx.n):
            tensor_add(out[h], lie, int(vec[h]))
    return out


def _as_tensors(ctx, row):
    d = ctx.dim(3)
    return [lyndon_to_tensor(ctx, 3, row[h * d:(h + 1) * d])
            for h in range(ctx.n)]


def test_expansions_exact_with_leaves_near_2_20():
    """Degree-4 and degree-6 expansions of leaves near 2**20 leave int64;
    they must widen and agree with Python-int dict algebra."""
    ctx = context(2)
    rng = np.random.default_rng(12)
    big = [2 ** 20 - rng.integers(0, 9, size=(3, ctx.n)) for _ in range(6)]
    for x in big:
        x[:, ::2] *= -1
    a, b, c, d, e, f = big
    rows = vector_eta2(ctx, a, b, c, d)
    assert rows.dtype == object
    for i, row in enumerate(rows):
        assert _as_tensors(ctx, row) == _eta2_tensors(ctx, a[i], b[i], c[i], d[i])
    assert np.array_equal(2 * expand_symhalf(ctx, a, b),
                          vector_eta2(ctx, a, b, a, b))
    rows = tree_bracket(ctx, (a, b, c), (d, e, f))
    for i, row in enumerate(rows):
        s, t = (a[i], b[i], c[i]), (d[i], e[i], f[i])
        want = [{} for _ in range(ctx.n)]
        for p in range(3):
            for q in range(3):
                w = int(ctx.omega(s[p][None], t[q][None])[0])
                quad = (s[(p + 1) % 3], s[(p + 2) % 3],
                        t[(q + 1) % 3], t[(q + 2) % 3])
                for h, tens in enumerate(_eta2_tensors(ctx, *quad)):
                    tensor_add(want[h], tens, w)
        assert _as_tensors(ctx, row) == want
    # the wedge-coordinate rows widen; mapped back, they are the rows
    assert tripod_brackets(space(2), [a, b, c], [d, e, f]).dtype == object
    assert np.array_equal(table_bracket(ctx, (a, b, c), (d, e, f)), rows)
    # small leaves keep int64 (under the safe_einsum bound)
    assert vector_eta2(ctx, *(x % 3 for x in (a, b, c, d))).dtype == np.int64


def _assert_letter_expansions_match(ctx, letters):
    """eta1 of the first three and eta2 of all four letter arrays equal the
    vector references on their one-hot leaves, in int8."""
    e = np.eye(ctx.n, dtype=np.int64)
    leaves = e[letters]
    cases = [(eta1, vector_eta1, 3, ctx.dim(2)),
             (eta2, vector_eta2, 4, ctx.dim(3))]
    for fn, ref, k, d in cases:
        got = fn(ctx, *letters[:k])
        assert got.dtype == np.int8
        assert got.shape == (letters.shape[1], ctx.n * d)
        assert np.array_equal(got, ref(ctx, *leaves[:k]))


@pytest.mark.parametrize("g", [2, 3])
def test_letter_expansions_match_the_vector_reference_on_every_coloring(g):
    ctx = context(g)
    _assert_letter_expansions_match(
        ctx, np.indices((ctx.n,) * 4).reshape(4, -1))


@pytest.mark.parametrize("g", [4, 5])
def test_letter_expansions_match_the_vector_reference_on_random_stacks(g):
    ctx = context(g)
    rng = np.random.default_rng(30 + g)
    letters = rng.integers(0, ctx.n, size=(4, 400))
    letters[:, :5] = letters[0, :5]  # a few with every leaf equal
    _assert_letter_expansions_match(ctx, letters)
    _assert_letter_expansions_match(ctx, letters[:, :0])


def test_derivation_bracket_reads_no_tree_expansion(monkeypatch):
    """The oracle is independent of the expansions it checks: with every
    other function of ``trees``, and the letter-order bracket table that
    the expansions and D_2 read, replaced by one that raises, it still
    gives the bracket of two tripods."""
    oracle = {"derivation_bracket", "derivation_letter_images",
              "derivation_on_lyndon"}
    called = []

    def forbidden(name):
        def fn(*args, **kwargs):
            called.append(name)
            raise AssertionError(name)
        return fn

    ctx = context(2)
    s, t = np.array([[0], [1], [3]]), np.array([[2], [0], [1]])
    e = np.eye(ctx.n, dtype=np.int64)
    want = tree_bracket(ctx, tuple(e[s]), tuple(e[t]))[0]
    left, right = eta1(ctx, *s)[0], eta1(ctx, *t)[0]
    patched = [name for name, fn in vars(trees).items()
               if callable(fn) and getattr(fn, "__module__", None)
               == trees.__name__ and name not in oracle]
    assert {"eta1", "eta2", "eta2_terms", "_bracket"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(trees, name, forbidden(name))
    monkeypatch.setattr(SymplecticContext, "letter_bracket_table",
                        forbidden("letter_bracket_table"))
    assert np.array_equal(derivation_bracket(ctx, left, right), want)
    assert called == []
