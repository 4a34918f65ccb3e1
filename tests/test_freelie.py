"""Lyndon bases and bracket tables for the free Lie ring on 2g letters."""

import itertools

import numpy as np
import pytest

from sympderiv.derivspace import iota_matrix
from sympderiv.freelie import (ContextError, SymplecticContext,
                               UnsupportedDegreeError, context, lyndon_words,
                               standard_factorization, tensor_add,
                               tensor_concat_commutator, witt_dimension)


def lyndon_to_tensor(ctx, k, coords) -> dict:
    """Tensor expansion of Lyndon coordinates: the sum of the bracketings'
    expansions (the other tests read Lie elements as tensors through it)."""
    out: dict = {}
    for w, c in zip(ctx.lyndon(k), coords):
        if c:
            tensor_add(out, ctx.bracketing_tensor(w), int(c))
    return out


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
    x = rng.integers(-3, 4, size=ctx.dim(1))
    y = rng.integers(-3, 4, size=ctx.dim(1))
    z = rng.integers(-3, 4, size=ctx.dim(2))
    assert np.array_equal(ctx.lie_bracket(1, x, 1, y),
                          -ctx.lie_bracket(1, y, 1, x))
    jac = (ctx.lie_bracket(1, x, 3, ctx.lie_bracket(1, y, 2, z))
           - ctx.lie_bracket(1, y, 3, ctx.lie_bracket(1, x, 2, z))
           - ctx.lie_bracket(2, ctx.lie_bracket(1, x, 1, y), 2, z))
    assert not jac.any()


def test_bracket_of_letter_with_itself_vanishes():
    ctx = context(2)
    e = np.zeros(4, dtype=np.int64)
    e[1] = 1
    assert not ctx.lie_bracket(1, e, 1, e).any()


def test_degree_cap_enforced():
    ctx = context(2)
    with pytest.raises(UnsupportedDegreeError):
        ctx.lyndon(5)
    x = np.zeros(ctx.dim(2), dtype=np.int64)
    with pytest.raises(UnsupportedDegreeError):
        ctx.lie_bracket(2, x, 3, np.zeros(ctx.dim(3), dtype=np.int64))


def test_bracket_matrix_columns():
    ctx = context(2)
    m = ctx.bracket_matrix(1)
    d2 = ctx.dim(2)
    for h in range(ctx.n):
        eh = ctx.basis_vector(h)
        for i in range(d2):
            e = np.zeros(d2, dtype=np.int64)
            e[i] = 1
            col = ctx.lie_bracket(1, eh, 2, e)
            assert np.array_equal(m[:, h * d2 + i], col)


def _commutator(x: dict, y: dict) -> dict:
    """xy - yx of tensor dicts, written out here on Python ints."""
    out: dict = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            out[wx + wy] = out.get(wx + wy, 0) + cx * cy
            out[wy + wx] = out.get(wy + wx, 0) - cx * cy
    return {w: c for w, c in out.items() if c}


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
    for k in (1, 2):
        assert np.array_equal(
            ctx.bracket_matrix(k),
            ctx.bracket_table(1, k + 1).reshape(-1, ctx.dim(k + 2)).T)


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
    for xi, yi, row in zip(x, y, rows):
        assert np.array_equal(ctx.lie_bracket(1, xi, 2, yi), row)
    assert not rows[1].any() and not rows[3].any()


def test_omega_of_stacks_matches_rows():
    ctx = context(3)
    rng = np.random.default_rng(9)
    u = rng.integers(-5, 6, size=(6, ctx.n))
    v = rng.integers(-5, 6, size=(6, ctx.n))
    assert ctx.omega(u, v).tolist() == [ctx.omega(a, b) for a, b in zip(u, v)]
    ones = np.full(ctx.n, 2 ** 40, dtype=np.int64)
    big = ones.copy()
    big[0] = -big[0]
    # past int64: only the (a1, b1) term survives, -2**80 - 2**80
    assert ctx.omega(big[None], ones[None]).tolist() == [-2 ** 81]
    assert ctx.omega(big, ones) == -2 ** 81


def test_omega_symplectic_basis():
    ctx = context(3)
    g = ctx.g
    for p, q in itertools.product(range(ctx.n), repeat=2):
        val = ctx.omega(ctx.basis_vector(p), ctx.basis_vector(q))
        if q == p + g:
            assert val == 1
        elif p == q + g:
            assert val == -1
        else:
            assert val == 0
        assert val == iota_matrix(3)[p, q]  # the Gram matrix J of omega


def test_omega_rejects_quotient_alphabet_and_bad_lengths():
    ctx = context(2)
    qctx = ctx.quotient_context()
    e = qctx.basis_vector(0)
    with pytest.raises(ContextError):
        qctx.omega(e, e)
    with pytest.raises(ContextError):
        ctx.omega((1, 0, 0), ctx.basis_vector(0))
    assert ctx.omega(np.array([1, 2, 0, 0]), [0, 0, 3, 5]) == 13


def test_letter_names():
    ctx = context(2)
    assert [letter_name(ctx, p) for p in range(4)] == ["a1", "a2", "b1", "b2"]


def test_projection_kills_lagrangian():
    ctx = context(2)
    qctx = ctx.quotient_context()
    rng = np.random.default_rng(5)
    for k in (2, 3):
        x = rng.integers(-3, 4, size=ctx.dim(k))
        proj = ctx.lyndon_projection_matrix(k, "A") @ x
        assert proj.shape == (qctx.dim(k),)
        # projecting a bracket that involves an A-letter in every term gives 0
    ea = ctx.basis_vector(0)
    eb = ctx.basis_vector(2)
    br = ctx.lie_bracket(1, ea, 1, ea + np.array(eb))
    assert (ctx.lyndon_projection_matrix(2, "A") @ br).tolist() \
        == [0] * qctx.dim(2)


def test_tensor_commutator_is_bilinear_bracket():
    t1 = {(0,): 1}
    t2 = {(1,): 1}
    c = tensor_concat_commutator(t1, t2)
    assert c == {(0, 1): 1, (1, 0): -1}
