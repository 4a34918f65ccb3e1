"""Casson-difference maps, linking-form evaluation, and the bridge to
the A-side trace."""

from fractions import Fraction

import numpy as np
import pytest

from sympderiv import casson, checks, traces
from sympderiv.derivspace import space
from sympderiv.freelie import context
from test_checks import sym_matrices_by_loop
from test_derivspace import express, gen_matrix


# -- the polynomial reference: theta expanded, then evaluated -------------
#
# Polynomials live in variables l_{pq} = l(e_p, e_q) for ordered basis
# pairs p <= q; the relation l(v,u) = l(u,v) + omega(u,v) is applied
# eagerly, so equality of polynomials is equality of dicts.  None of this
# calls the library's theta code.

Poly = dict  # monomial (sorted tuple of (p,q) vars) -> int coefficient


def poly_const(c: int) -> Poly:
    return {(): c} if c else {}


def poly_add(p: Poly, q: Poly, scale: int = 1) -> Poly:
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, 0) + scale * c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            nc = out.get(m, 0) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def omega(ctx, u, v) -> int:
    """omega of two vectors, as one-row stacks."""
    return int(ctx.omega(np.asarray(u)[None], np.asarray(v)[None])[0])


def l_symbol(ctx, u, v) -> Poly:
    """Bilinear expansion of l(u, v) into normal form."""
    e = np.eye(ctx.n, dtype=np.int64)
    out: Poly = {}
    for p, cu in enumerate(u):
        if not cu:
            continue
        for q, cv in enumerate(v):
            if not cv:
                continue
            c = int(cu) * int(cv)
            if p <= q:
                out = poly_add(out, {((p, q),): c})
            else:
                # l(e_p, e_q) = l(e_q, e_p) + omega(e_q, e_p)
                out = poly_add(out, {((q, p),): c})
                w = omega(ctx, e[q], e[p])
                if w:
                    out = poly_add(out, poly_const(w * c))
    return out


def theta_tree(ctx, a, b, c, d) -> Poly:
    l = lambda x, y: l_symbol(ctx, x, y)
    out = poly_mul(l(a, c), l(b, d))
    out = poly_add(out, poly_mul(l(a, d), l(b, c)), -1)
    out = poly_add(out, poly_mul(l(d, a), l(c, b)), -1)
    return poly_add(out, poly_mul(l(c, a), l(d, b)))


def theta_odot(ctx, u, v) -> Poly:
    out = poly_mul(l_symbol(ctx, u, u), l_symbol(ctx, v, v))
    return poly_add(out, poly_mul(l_symbol(ctx, u, v), l_symbol(ctx, v, u)), -1)


def dbar_tree(ctx, a, b, c, d) -> int:
    def w(x, y):
        return omega(ctx, x, y)

    return w(a, b) * w(c, d) - w(a, c) * w(b, d) + w(a, d) * w(b, c)


def theta_gen(sp, gen) -> Poly:
    e = np.eye(sp.ctx.n, dtype=np.int64)
    if gen[0] == "odot":
        p, q = gen[1]
        return theta_odot(sp.ctx, e[p], e[q])
    (p, q), (r, s) = gen[1], gen[2]
    return theta_tree(sp.ctx, e[p], e[q], e[r], e[s])


def dbar_gen(sp, gen) -> int:
    if gen[0] == "odot":
        return 0
    e = np.eye(sp.ctx.n, dtype=np.int64)
    (p, q), (r, s) = gen[1], gen[2]
    return dbar_tree(sp.ctx, e[p], e[q], e[r], e[s])


def eps_eval(poly, lk):
    total = 0
    for mono, c in poly.items():
        term = c
        for p, q in mono:
            term *= int(lk[p, q])
            if not term:
                break
        total += term
    return total


def theta_of_coeffs(sp, coeffs):
    out = {}
    for c, gen in zip(coeffs, sp.generators):
        c = int(c)
        if c:
            out = poly_add(out, theta_gen(sp, gen), c)
    return out


def dbar_of_coeffs(sp, coeffs):
    return sum(int(c) * dbar_gen(sp, gen)
               for c, gen in zip(coeffs, sp.generators) if int(c))


def mu_by_polynomial(sp, coeffs, s):
    th = theta_of_coeffs(sp, coeffs)
    return casson.MU_SIGN * (eps_eval(th, casson.lk_base(sp.g))
                             - eps_eval(th, casson.lk_twisted(sp.g, s)))


def qbar_by_polynomial(sp, coeffs):
    th = theta_of_coeffs(sp, coeffs)
    return (Fraction(eps_eval(th, casson.lk_base(sp.g)))
            + Fraction(dbar_of_coeffs(sp, coeffs), 3))


def test_l_symbol_rewrite_rule():
    # l(b1, a1) normalizes to l(a1, b1) + omega(a1, b1)
    ctx = context(2)
    a1, _, b1, _ = np.eye(ctx.n, dtype=np.int64)
    p = l_symbol(ctx, b1, a1)
    assert p == {((0, 2),): 1, (): 1}
    # and l(a1, b1) itself is already normal
    assert l_symbol(ctx, a1, b1) == {((0, 2),): 1}


def test_l_symbol_bilinear():
    ctx = context(2)
    rng = np.random.default_rng(31)
    u, u2, v = (rng.integers(-2, 3, size=4) for _ in range(3))
    lhs = l_symbol(ctx, u + 3 * u2, v)
    rhs = poly_add(l_symbol(ctx, u, v),
                          l_symbol(ctx, u2, v), 3)
    assert lhs == rhs


@pytest.mark.parametrize("g", [2, 3])
def test_odot_theta_is_half_the_repeated_tree(g):
    """Why casson halves the leaf formula on a (.)-generator with leaves
    (p, q, p, q), and needs no dbar case for it: for all basis vectors
    u, v, theta_tree(u, v, u, v) = 2 theta_odot(u, v) and
    dbar_tree(u, v, u, v) = 0."""
    ctx = context(g)
    e = np.eye(ctx.n, dtype=np.int64)
    for p in range(ctx.n):
        for q in range(ctx.n):
            u, v = e[p], e[q]
            assert poly_add(theta_tree(ctx, u, v, u, v),
                            theta_odot(ctx, u, v), -2) == {}
            assert dbar_tree(ctx, u, v, u, v) == 0


@pytest.mark.parametrize("g", [2, 3])
def test_theta_matches_polynomial_at_any_linking_matrix(g):
    """theta of every generator from its leaves, against the expanded
    polynomial, at linking matrices with no zero block, one by one and as
    a stack."""
    sp = space(g)
    rng = np.random.default_rng(80 + g)
    lks = rng.integers(-7, 8, size=(4, 2 * g, 2 * g))
    stacked = casson._theta(sp, lks)
    for lk, row in zip(lks, stacked):
        want = [eps_eval(theta_gen(sp, gen), lk) for gen in sp.generators]
        assert row.tolist() == casson._theta(sp, lk).tolist() == want


def test_eps_eval_on_base_linking():
    ctx = context(2)
    lk = casson.lk_base(2)
    # lk(b_i, a_i) = 1, lk(a_i, b_i) = 0 in the base form
    assert lk[2, 0] == 1 and lk[0, 2] == 0
    e = np.eye(ctx.n, dtype=np.int64)
    p = l_symbol(ctx, e[2], e[0])
    assert eps_eval(p, lk) == 1


def test_dbar_vanishes_on_odot():
    sp = space(2)
    for pair in sp.pairs:
        assert dbar_gen(sp, ("odot", pair)) == 0
    # the library's dbar, 3 qbar - 3 theta at the base form, agrees
    dbar = (casson._thrice_qbar_column(sp)
            - 3 * casson._theta(sp, casson.lk_base(2)))
    assert dbar[:len(sp.pairs)].tolist() == [0] * len(sp.pairs)
    assert dbar.tolist() == [dbar_gen(sp, gen) for gen in sp.generators]


def test_qbar_denominator_and_linearity():
    sp = space(2)
    rng = np.random.default_rng(32)
    n = len(sp.generators)
    for _ in range(10):
        c1 = rng.integers(-2, 3, size=(1, n))
        c2 = rng.integers(-2, 3, size=(1, n))
        [t1] = casson.qbar_of_coeffs(sp, c1)  # 3 qbar
        [t2] = casson.qbar_of_coeffs(sp, c2)
        # only dbar contributes thirds, so 3 qbar is an integer
        assert 3 * qbar_by_polynomial(sp, c1[0]) == int(t1)
        # theta is quadratic in the linking symbols but qbar is evaluated
        # generator by generator, so it is additive in the coefficients
        assert casson.qbar_of_coeffs(sp, c1 + c2).tolist() == [t1 + t2]


def test_qbar_kills_quartic_relations():
    sp = space(2)
    quads, _, rows = checks.quartic_relations(sp)
    assert quads.tolist() == [[0, 1, 2, 3]]
    assert casson.qbar_of_coeffs(sp, rows).tolist() == [0]
    for s_seed in range(3):
        rng = np.random.default_rng(s_seed)
        s = rng.integers(-3, 4, size=(1, 2, 2))
        s = s + np.swapaxes(s, 1, 2)
        assert casson.mu_of_coeffs(sp, rows, s).tolist() == [[0]]


def test_mu_vanishes_at_zero_twist():
    sp = space(2)
    rng = np.random.default_rng(33)
    basis = sp.d2().basis
    v = rng.integers(-2, 3, size=(1, len(basis))) @ basis
    c = express(sp, sp.d2().membership(v))
    zero = np.zeros((1, 2, 2), dtype=np.int64)
    assert casson.mu_of_coeffs(sp, c, zero).tolist() == [[0]]


def test_mu_matches_r_pairing_on_filtered_part():
    """On elements with at least one A-leaf in every generator, the
    Casson-difference equals the r-pairing of S against the A-side trace."""
    sp = space(2)
    rng = np.random.default_rng(34)
    basis = sp.filtration(0, "A").basis
    for _ in range(10):
        v = rng.integers(-2, 3, size=(1, len(basis))) @ basis
        t = traces.tr_A(sp, v)
        s = rng.integers(-3, 4, size=(1, 2, 2))
        s = s + np.swapaxes(s, 1, 2)
        c = express(sp, v)
        assert np.array_equal(casson.mu_of_coeffs(sp, c, s),
                              casson.r_pairing(s, t))


def test_mu_matches_half_omegaS_plus_delta():
    sp = space(2)
    rng = np.random.default_rng(35)
    basis = sp.d2().basis
    for _ in range(5):
        v = rng.integers(-2, 3, size=(1, len(basis))) @ basis
        s = rng.integers(-3, 4, size=(1, 2, 2))
        s = s + np.swapaxes(s, 1, 2)
        c = express(sp, sp.d2().membership(v))
        # the composite is counted in halves
        assert np.array_equal(2 * casson.mu_of_coeffs(sp, c, s),
                              casson.half_omegaS_plus_delta(sp, c, s))


@pytest.mark.parametrize("g", [2, 3])
def test_tabulated_mu_matches_polynomial_evaluation(g):
    """mu_of_coeffs (theta from leaf indices) against the polynomial
    route: expand theta of the coefficients, then evaluate it at both
    linking forms."""
    sp = space(g)
    rng = np.random.default_rng(40 + g)
    coeffs = rng.integers(-3, 4, size=(6, len(sp.generators)))
    coeffs[2] = 0
    coeffs[4] = rng.integers(-(2 ** 20), 2 ** 20, size=len(sp.generators))
    for _ in range(3):
        s = rng.integers(-3, 4, size=(1, g, g))
        s = s + np.swapaxes(s, 1, 2)
        stacked = casson.mu_of_coeffs(sp, coeffs, s)
        assert stacked.shape == (len(coeffs), 1)
        for i, got in enumerate(stacked[:, 0]):
            want = mu_by_polynomial(sp, coeffs[i], s[0])
            assert got == want
            assert casson.mu_of_coeffs(sp, coeffs[i:i + 1], s).tolist() \
                == [[want]]


def test_omegaS_composite_stack_matches_rows():
    sp = space(2)
    rng = np.random.default_rng(36)
    coeffs = rng.integers(-2, 3, size=(4, len(sp.generators)))
    s = np.array([[[2, -1], [-1, 0]]])
    stacked = casson.half_omegaS_plus_delta(sp, coeffs, s)
    assert stacked.tolist() == [
        casson.half_omegaS_plus_delta(sp, coeffs[i:i + 1], s).tolist()[0]
        for i in range(len(coeffs))]
    assert np.array_equal(traces.tr_omegaS(sp, coeffs, s)[1:2],
                          traces.tr_omegaS(sp, coeffs[1:2], s))


def test_lk_twisted_requires_symmetric():
    with pytest.raises(ValueError):
        casson.lk_twisted(2, np.array([[0, 1], [0, 0]]))


def test_d_core_values():
    assert [casson.d_core(h) for h in range(1, 5)] == [0, 8, 24, 48]


@pytest.mark.parametrize("g", [2, 3])
def test_tabulated_qbar_matches_polynomial_evaluation(g):
    sp = space(g)
    rng = np.random.default_rng(60 + g)
    coeffs = rng.integers(-3, 4, size=(5, len(sp.generators)))
    coeffs[1] = 0
    coeffs[3] = rng.integers(-(2 ** 40), 2 ** 40, size=len(sp.generators))
    stacked = casson.qbar_of_coeffs(sp, coeffs)
    assert len(stacked) == len(coeffs)
    for i, got in enumerate(stacked):
        assert Fraction(int(got), 3) == qbar_by_polynomial(sp, coeffs[i])
        assert casson.qbar_of_coeffs(sp, coeffs[i:i + 1]).tolist() == [got]


def _sym_stack(rng, g, count):
    """Small symmetric matrices, then entries near 2^31 and near 2^62, then
    m times a sign pattern with leading 2x2 minor -2 m^2, where a repeated
    tree generator's theta is -4 m^2: m = 2^30 - 1 (the largest theta
    evaluates in int64), 2^30 (the least it widens for) and 2^31 - 1
    (past int64)."""
    m = rng.integers(-3, 4, size=(count, g, g))
    mats = m + np.swapaxes(m, 1, 2)
    near31 = mats[0] + (2 ** 31 - 1)
    near62 = np.full((g, g), 2 ** 62 - 5, dtype=np.int64)
    near62[-1, -1] = -(2 ** 62) + 9
    signs = -np.ones((g, g), dtype=np.int64)
    signs[0, 0] = 1
    edges = [m * signs for m in (2 ** 30 - 1, 2 ** 30, 2 ** 31 - 1)]
    return np.concatenate([mats, near31[None], near62[None], edges])


@pytest.mark.parametrize("g", [2, 3])
def test_stacked_s_matches_per_s_loop(g):
    sp = space(g)
    rng = np.random.default_rng(70 + g)
    mats = _sym_stack(rng, g, 3)
    coeffs = rng.integers(-3, 4, size=(4, len(sp.generators)))
    qs = rng.integers(-5, 6, size=(4, g * (g + 1) // 2))
    mus = casson.mu_of_coeffs(sp, coeffs, mats)
    pairings = casson.r_pairing(mats, qs)
    halves = casson.half_omegaS_plus_delta(sp, coeffs, mats)
    tensors = traces.tr_omegaS(sp, coeffs, mats)
    for got in (mus, pairings, halves):
        assert got.shape == (len(coeffs), len(mats))
    iu = np.triu_indices(g)
    for j, s in enumerate(mats):
        one_s = mats[j:j + 1]
        assert np.array_equal(casson.mu_of_coeffs(sp, coeffs, one_s),
                              mus[:, j:j + 1])
        assert np.array_equal(casson.r_pairing(one_s, qs), pairings[:, j:j + 1])
        assert np.array_equal(casson.half_omegaS_plus_delta(sp, coeffs, one_s),
                              halves[:, j:j + 1])
        assert np.array_equal(traces.tr_omegaS(sp, coeffs, one_s),
                              tensors[:, j:j + 1])
        for r, row in enumerate(coeffs):
            # one-row stack, one S, against references on Python ints
            one_row = coeffs[r:r + 1]
            assert casson.mu_of_coeffs(sp, one_row, one_s)[0, 0] \
                == mus[r, j] == mu_by_polynomial(sp, row, s)
            assert casson.r_pairing(one_s, qs[r:r + 1])[0, 0] \
                == pairings[r, j] == sum(
                    int(a) * int(b) for a, b in zip(qs[r], s[iu]))
            t = [[int(x) for x in line] for line in tensors[r, j]]
            omega_s = sum(int(s[a, b]) * t[g + a][g + b]
                          for a in range(g) for b in range(g))
            omega_delta = sum(t[g + a][a] for a in range(g))
            assert casson.half_omegaS_plus_delta(sp, one_row, one_s)[0, 0] \
                == halves[r, j] == omega_s + 2 * omega_delta
    # both sides of theta's int64 edge run
    assert casson._theta(sp, casson.lk_twisted(g, mats[-3])).dtype == np.int64
    assert casson._theta(sp, casson.lk_twisted(g, mats[-2])).dtype == object


def test_flipped_mu_sign_fails_bridge_at_first_loop_witness(monkeypatch):
    """With the sign of mu flipped, casson-bridge reports the first
    (generator, S) instance that a plain loop over generators, then S,
    finds unequal."""
    g = 2
    monkeypatch.setattr(casson, "MU_SIGN", -1)
    sp = space(g)
    mats = sym_matrices_by_loop(0, g, 100)
    want = None
    for k, gen in enumerate(sp.generators):
        if all(l >= g for pair in gen[1:] for l in pair):
            continue  # no A-leaf
        unit = np.zeros(len(sp.generators), dtype=np.int64)
        unit[k] = 1
        q = traces.tr_A(sp, sp.d2().membership(gen_matrix(sp)[:, [k]].T))
        for s in mats:
            mu = mu_by_polynomial(sp, unit, s)
            pairing = casson.r_pairing(s[None], q)[0, 0]
            if mu != pairing:
                want = {"generator": str(gen), "mu": str(mu),
                        "pairing": str(pairing),
                        "s": [str(int(x)) for x in s.ravel()]}
                break
        if want:
            break
    assert want is not None
    ok, witness = checks._check_casson_bridge(g, 0)
    assert not ok
    assert witness == want
