"""Lyndon bases and bracket tables for the free Lie ring on 2g letters."""

import itertools

import numpy as np
import pytest

from sympderiv.freelie import (ContextError, SymplecticContext,
                               UnsupportedDegreeError, context, iota_matrix,
                               lyndon_words, standard_factorization,
                               tensor_add, tensor_concat_commutator,
                               witt_dimension)


def lyndon_to_tensor(ctx, k, coords) -> dict:
    """Tensor expansion of Lyndon coordinates: the sum of the bracketings'
    expansions (the other tests read Lie elements as tensors through it)."""
    out: dict = {}
    for w, c in zip(ctx.lyndon(k), coords):
        if c:
            tensor_add(out, ctx.bracketing_tensor(w), int(c))
    return out


def bracket_matrix(ctx, k):
    """Matrix of H (x) L_{k+1} -> L_{k+2}, h (x) xi -> [h, xi], in Lyndon
    coordinates, from the structure constants: columns h * dim(k+1) + i,
    rows the Lyndon basis of degree k+2.  The reference for the library's
    map at the Lyndon words, ``bracket_word_matrix``."""
    return ctx.bracket_table(1, k + 1).reshape(-1, ctx.dim(k + 2)).T


def lyndon_word_block(ctx, k):
    """The coefficient of the Lyndon word u in the expansion of the Lyndon
    bracketing v, at [u, v], over the length-k Lyndon words in order."""
    index = ctx.lyndon_index(k)
    block = np.zeros((ctx.dim(k), ctx.dim(k)), dtype=np.int64)
    for j, v in enumerate(ctx.lyndon(k)):
        for word, c in ctx.bracketing_tensor(v).items():
            if word in index:
                block[index[word], j] = c
    return block


def letter_name(ctx, p) -> str:
    """Name of a basis letter of a symplectic context: a1.., then b1.."""
    return f"a{p + 1}" if p < ctx.g else f"b{p - ctx.g + 1}"


WITT = {2: [4, 6, 20, 60], 3: [6, 15, 70, 315], 4: [8, 28, 168, 1008]}


@pytest.mark.parametrize("g", [2, 3, 4])
def test_lyndon_counts_match_witt_formula(g):
    # Duval enumeration vs the Moebius formula -- two independent routes
    for k in range(1, 5):
        words = lyndon_words(2 * g, k)
        assert len(words) == witt_dimension(2 * g, k) == WITT[g][k - 1]
        assert len(set(words)) == len(words)


def test_lyndon_words_are_lyndon():
    for w in lyndon_words(3, 4):
        for cut in range(1, len(w)):
            assert w < w[cut:], w  # strictly smaller than every proper suffix


def test_standard_factorization_least_suffix():
    for w in lyndon_words(3, 4):
        u, v = standard_factorization(w)
        assert u + v == w
        suffixes = [w[i:] for i in range(1, len(w))]
        assert v == min(suffixes)
        # both halves are Lyndon again
        assert u in set(lyndon_words(3, len(u)))
        assert v in set(lyndon_words(3, len(v)))


def test_tensor_roundtrip():
    ctx = context(2)
    rng = np.random.default_rng(3)
    for k in range(1, 5):
        x = rng.integers(-4, 5, size=ctx.dim(k))
        back = ctx.tensor_to_lyndon(k, lyndon_to_tensor(ctx, k, x))
        assert np.array_equal(back, x)


def test_bracket_antisymmetry_and_jacobi():
    ctx = context(2)
    rng = np.random.default_rng(4)
    x = rng.integers(-3, 4, size=(1, ctx.dim(1)))
    y = rng.integers(-3, 4, size=(1, ctx.dim(1)))
    z = rng.integers(-3, 4, size=(1, ctx.dim(2)))
    assert np.array_equal(ctx.lie_bracket(1, x, 1, y),
                          -ctx.lie_bracket(1, y, 1, x))
    jac = (ctx.lie_bracket(1, x, 3, ctx.lie_bracket(1, y, 2, z))
           - ctx.lie_bracket(1, y, 3, ctx.lie_bracket(1, x, 2, z))
           - ctx.lie_bracket(2, ctx.lie_bracket(1, x, 1, y), 2, z))
    assert not jac.any()


def test_bracket_of_letter_with_itself_vanishes():
    ctx = context(2)
    e = np.zeros((1, 4), dtype=np.int64)
    e[0, 1] = 1
    assert not ctx.lie_bracket(1, e, 1, e).any()


def test_degree_cap_enforced():
    ctx = context(2)
    with pytest.raises(UnsupportedDegreeError):
        ctx.lyndon(5)
    x = np.zeros((1, ctx.dim(2)), dtype=np.int64)
    with pytest.raises(UnsupportedDegreeError):
        ctx.lie_bracket(2, x, 3, np.zeros((1, ctx.dim(3)), dtype=np.int64))


def test_bracket_matrix_columns():
    ctx = context(2)
    m = bracket_matrix(ctx, 1)
    d2 = ctx.dim(2)
    letters = np.eye(ctx.n, dtype=np.int64)
    units = np.eye(d2, dtype=np.int64)
    for h in range(ctx.n):
        for i in range(d2):
            col = ctx.lie_bracket(1, letters[h:h + 1], 2, units[i:i + 1])
            assert np.array_equal(m[:, h * d2 + i], col[0])


def _commutator(x: dict, y: dict) -> dict:
    """xy - yx of tensor dicts, written out here on Python ints."""
    out: dict = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            out[wx + wy] = out.get(wx + wy, 0) + cx * cy
            out[wy + wx] = out.get(wy + wx, 0) - cx * cy
    return {w: c for w, c in out.items() if c}


def letter_table_matches_tensor_table(g):
    """The letter-order table of a fresh context, built first, against the
    tensor table: values, int8 dtype and read-only flag.  Returns the
    number of nonzeros compared."""
    ctx = SymplecticContext(g)
    letter = ctx.letter_bracket_table()
    tensor = ctx.bracket_table(1, 2)
    assert np.array_equal(letter, tensor)
    assert letter.dtype == tensor.dtype == np.int8
    assert not letter.flags.writeable and not tensor.flags.writeable
    return np.count_nonzero(letter)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_letter_bracket_table_matches_the_tensor_table(g):
    assert letter_table_matches_tensor_table(g) > 0


@pytest.mark.parametrize("g", [2, 3])
def test_bracket_table_matches_tensor_commutator(g):
    ctx = SymplecticContext(g)  # fresh, so every table is built here
    for j in range(1, 4):
        for k in range(1, 5 - j):
            table = ctx.bracket_table(j, k)
            assert table.shape == (ctx.dim(j), ctx.dim(k), ctx.dim(j + k))
            assert not table.flags.writeable
            for a, u in enumerate(ctx.lyndon(j)):
                for b, v in enumerate(ctx.lyndon(k)):
                    want = _commutator(ctx.bracketing_tensor(u),
                                       ctx.bracketing_tensor(v))
                    assert lyndon_to_tensor(ctx, j + k, table[a, b]) == want
    with pytest.raises(UnsupportedDegreeError):
        ctx.bracket_table(2, 3)
    # the map at the Lyndon words is the map in Lyndon coordinates read
    # through the expansions' Lyndon-word block
    assert np.array_equal(ctx.bracket_word_matrix(),
                          lyndon_word_block(ctx, 4) @ bracket_matrix(ctx, 2))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_lyndon_word_block_is_unitriangular(g):
    # each Lyndon bracketing expands to its own word plus larger words, so
    # reading a Lie element at the Lyndon words is injective over Z: the
    # map at the words has the kernel of the map in Lyndon coordinates
    ctx = context(g)
    for k in (3, 4):
        block = lyndon_word_block(ctx, k)
        assert np.array_equal(block, np.tril(block))
        assert (np.diag(block) == 1).all()


@pytest.mark.parametrize("g", [2, 3])
def test_bracket_word_matrix_columns_are_commutators(g):
    # column h * dim(3) + i against e_h P - P e_h written out on dicts, read
    # at every Lyndon word of length 4, for P the i-th bracketing's expansion
    ctx = context(g)
    m = ctx.bracket_word_matrix()
    d = ctx.dim(3)
    assert m.dtype == np.int8 and m.shape == (ctx.dim(4), ctx.n * d)
    for h in range(ctx.n):
        for i, w in enumerate(ctx.lyndon(3)):
            comm = _commutator({(h,): 1}, ctx.bracketing_tensor(w))
            want = [comm.get(u, 0) for u in ctx.lyndon(4)]
            assert m[:, h * d + i].tolist() == want


def test_lie_bracket_stack_matches_rows():
    ctx = context(3)
    rng = np.random.default_rng(8)
    x = rng.integers(-3, 4, size=(5, ctx.dim(1)))
    y = rng.integers(-3, 4, size=(5, ctx.dim(2)))
    x[1] = 0
    y[3, :] = 0
    y[:, 4] = 0
    rows = ctx.lie_bracket(1, x, 2, y)
    assert rows.shape == (5, ctx.dim(3))
    for i, row in enumerate(rows):
        assert np.array_equal(ctx.lie_bracket(1, x[i:i + 1], 2, y[i:i + 1]),
                              row[None])
    assert not rows[1].any() and not rows[3].any()
    assert ctx.lie_bracket(1, x[:0], 2, y[:0]).shape == (0, ctx.dim(3))


@pytest.mark.parametrize("j, k", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("x_scale, y_scale, dtype", [
    (2 ** 31 - 1, 2 ** 31 + 1, np.int64),  # x_a y_b = 2**62 - 1
    (2 ** 31, 2 ** 31, object),  # x_a y_b = 2**62
    (2 ** 31 + 1, 2 ** 31 + 1, object),
    (2 ** 40, -2 ** 40, object)])  # past int64 itself
def test_lie_bracket_exact_at_the_int64_bound(j, k, x_scale, y_scale, dtype):
    """Every pair of scaled basis elements of L_j and L_k, one row each:
    each output entry is one product x_a y_b times a structure constant of
    absolute value 1, so the result is int64 up to 2**62 - 1 and object
    from 2**62 on.  A dense row sums every product into an entry, past
    int64 even under the bound on one product, so it is object.  Every
    value is the tensor path on Python ints: the commutator of the
    bracketings' expansions, read in Lyndon coordinates, times x_a y_b."""
    ctx = context(2)
    assert np.abs(ctx.bracket_table(j, k)).max() == 1
    unit = {}  # (a, b) -> [e_a, e_b] through the tensor path
    for a, u in enumerate(ctx.lyndon(j)):
        for b, v in enumerate(ctx.lyndon(k)):
            comm = tensor_concat_commutator(ctx.bracketing_tensor(u),
                                            ctx.bracketing_tensor(v))
            unit[a, b] = ctx.tensor_to_lyndon(j + k, comm).tolist()
    a, b = np.divmod(np.arange(len(unit)), ctx.dim(k))
    x = x_scale * np.eye(ctx.dim(j), dtype=np.int64)[a]
    y = y_scale * np.eye(ctx.dim(k), dtype=np.int64)[b]
    got = ctx.lie_bracket(j, x, k, y)
    assert got.dtype == dtype
    for row, u, v in zip(got.tolist(), a, b):
        assert row == [x_scale * y_scale * c for c in unit[u, v]]
    dense = ctx.lie_bracket(j, np.full((1, ctx.dim(j)), x_scale), k,
                            np.full((1, ctx.dim(k)), y_scale))
    assert dense.dtype == object
    assert dense[0].tolist() == [x_scale * y_scale * sum(col)
                                 for col in zip(*unit.values())]


def test_omega_of_stacks_matches_rows():
    ctx = context(3)
    rng = np.random.default_rng(9)
    u = rng.integers(-5, 6, size=(6, ctx.n))
    v = rng.integers(-5, 6, size=(6, ctx.n))
    assert ctx.omega(u, v).tolist() \
        == [ctx.omega(u[i:i + 1], v[i:i + 1])[0] for i in range(len(u))]
    ones = np.full((1, ctx.n), 2 ** 40, dtype=np.int64)
    big = ones.copy()
    big[0, 0] = -big[0, 0]
    # past int64: only the (a1, b1) term survives, -2**80 - 2**80
    assert ctx.omega(big, ones).tolist() == [-2 ** 81]


def test_omega_symplectic_basis():
    ctx = context(3)
    g = ctx.g
    e = np.eye(ctx.n, dtype=np.int64)
    for p, q in itertools.product(range(ctx.n), repeat=2):
        val = ctx.omega(e[p:p + 1], e[q:q + 1])[0]
        if q == p + g:
            assert val == 1
        elif p == q + g:
            assert val == -1
        else:
            assert val == 0
        assert val == iota_matrix(3)[p, q]  # the Gram matrix J of omega


def test_omega_rejects_bad_lengths():
    ctx = context(2)
    with pytest.raises(ContextError):
        ctx.omega([(1, 0, 0)], [(1, 0, 0, 0)])
    assert ctx.omega(np.array([[1, 2, 0, 0]]), [[0, 0, 3, 5]]).tolist() == [13]


def test_letter_names():
    ctx = context(2)
    assert [letter_name(ctx, p) for p in range(4)] == ["a1", "a2", "b1", "b2"]


def lyndon_projection(ctx, k, lagrangian):
    """The reference for killing a Lagrangian: L_k(H) -> L_k(H/A or H/B)
    over the Lyndon bases on 2g and on g letters.  Column i is the i-th
    bracketing tensor without its words through a killed letter, the
    others renumbered onto the letters 0..g-1, read over
    ``lyndon_words(g, k)`` by triangularity (each bracketing is its word
    plus larger words)."""
    killed = set(ctx.kill_letters(lagrangian))
    shift = ctx.g if lagrangian == "A" else 0
    index = {w: i for i, w in enumerate(lyndon_words(ctx.g, k))}
    out = np.zeros((len(index), ctx.dim(k)), dtype=np.int64)
    for i, w in enumerate(ctx.lyndon(k)):
        rem = {tuple(l - shift for l in word): c
               for word, c in ctx.bracketing_tensor(w).items()
               if killed.isdisjoint(word)}
        while rem:
            u = min(rem)
            c = rem[u]
            out[index[u], i] += c
            tensor_add(rem, ctx.bracketing_tensor(u), -c)
    return out


def test_projection_kills_lagrangian():
    ctx = context(2)
    rng = np.random.default_rng(5)
    for k in (2, 3):
        x = rng.integers(-3, 4, size=ctx.dim(k))
        proj = lyndon_projection(ctx, k, "A") @ x
        assert proj.shape == (witt_dimension(2, k),)
        # projecting a bracket that involves an A-letter in every term gives 0
    e = np.eye(ctx.n, dtype=np.int64)
    br = ctx.lie_bracket(1, e[:1], 1, e[:1] + e[2:3])
    assert (lyndon_projection(ctx, 2, "A") @ br[0]).tolist() \
        == [0] * witt_dimension(2, 2)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
@pytest.mark.parametrize("side", ["A", "B"])
def test_killing_a_lagrangian_selects_the_avoiding_words(g, side):
    """The quotient map on L_3 is the 0/1 selection of the Lyndon words
    with no letter of the side, in order."""
    ctx = context(g)
    keep = ctx.avoiding(side)
    assert np.array_equal(lyndon_projection(ctx, 3, side),
                          np.eye(ctx.dim(3), dtype=np.int64)[keep])
    assert not keep.flags.writeable


def test_avoiding_rejects_a_bad_side():
    with pytest.raises(ContextError):
        context(2).avoiding("C")


def test_tensor_commutator_is_bilinear_bracket():
    t1 = {(0,): 1}
    t2 = {(1,): 1}
    c = tensor_concat_commutator(t1, t2)
    assert c == {(0, 1): 1, (1, 0): -1}
