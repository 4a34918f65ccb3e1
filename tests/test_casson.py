"""Casson-difference polynomials, linking-form evaluation, and the bridge
to the A-side trace."""

from fractions import Fraction

import numpy as np
import pytest

from sympderiv import casson, checks, traces
from sympderiv.checks import quartic_relation
from sympderiv.derivspace import space
from sympderiv.freelie import context


# -- the polynomial reference: theta expanded, then evaluated -------------

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
            out = casson.poly_add(out, casson.theta_gen(sp, gen), c)
    return out


def dbar_of_coeffs(sp, coeffs):
    return sum(int(c) * casson.dbar_gen(sp, gen)
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
    b1 = ctx.basis_vector(2)
    a1 = ctx.basis_vector(0)
    p = casson.l_symbol(ctx, b1, a1)
    assert p == {((0, 2),): 1, (): 1}
    # and l(a1, b1) itself is already normal
    assert casson.l_symbol(ctx, a1, b1) == {((0, 2),): 1}


def test_l_symbol_bilinear():
    ctx = context(2)
    rng = np.random.default_rng(31)
    u, u2, v = (rng.integers(-2, 3, size=4) for _ in range(3))
    lhs = casson.l_symbol(ctx, u + 3 * u2, v)
    rhs = casson.poly_add(casson.l_symbol(ctx, u, v),
                          casson.l_symbol(ctx, u2, v), 3)
    assert lhs == rhs


def test_eps_eval_on_base_linking():
    ctx = context(2)
    lk = casson.lk_base(2)
    # lk(b_i, a_i) = 1, lk(a_i, b_i) = 0 in the base form
    assert lk[2, 0] == 1 and lk[0, 2] == 0
    p = casson.l_symbol(ctx, ctx.basis_vector(2), ctx.basis_vector(0))
    assert eps_eval(p, lk) == 1


def test_dbar_vanishes_on_odot():
    sp = space(2)
    for pair in sp.pairs:
        assert casson.dbar_gen(sp, ("odot", pair)) == 0


def test_qbar_denominator_and_linearity():
    sp = space(2)
    rng = np.random.default_rng(32)
    n = len(sp.generators)
    for _ in range(10):
        c1 = rng.integers(-2, 3, size=n)
        c2 = rng.integers(-2, 3, size=n)
        q1 = casson.qbar_of_coeffs(sp, c1)
        q2 = casson.qbar_of_coeffs(sp, c2)
        assert (3 * q1).denominator == 1  # only dbar contributes thirds
        # theta is quadratic in the linking symbols but qbar is evaluated
        # generator by generator, so it is additive in the coefficients
        assert casson.qbar_of_coeffs(sp, c1 + c2) == q1 + q2


def test_qbar_kills_quartic_relations():
    sp = space(2)
    for quad in [(0, 1, 2, 3)]:
        row = quartic_relation(sp, quad)
        assert casson.qbar_of_coeffs(sp, row) == 0
        for s_seed in range(3):
            rng = np.random.default_rng(s_seed)
            s = rng.integers(-3, 4, size=(2, 2))
            s = s + s.T
            assert casson.mu_of_coeffs(sp, row, s) == 0


def test_mu_vanishes_at_zero_twist():
    sp = space(2)
    rng = np.random.default_rng(33)
    basis = sp.d2().basis
    v = basis.T @ rng.integers(-2, 3, size=len(basis))
    c = sp.express_in_generators(v)
    assert casson.mu_of_coeffs(sp, c, np.zeros((2, 2), dtype=np.int64)) == 0


def test_mu_matches_r_pairing_on_filtered_part():
    """On elements with at least one A-leaf in every generator, the
    Casson-difference equals the r-pairing of S against the A-side trace."""
    sp = space(2)
    rng = np.random.default_rng(34)
    basis = sp.filtration(0, "A").basis
    for _ in range(10):
        v = basis.T @ rng.integers(-2, 3, size=len(basis))
        t = traces.tr_A(sp, v)
        s = rng.integers(-3, 4, size=(2, 2))
        s = s + s.T
        c = sp.express_in_generators(v)
        assert casson.mu_of_coeffs(sp, c, s) == casson.r_pairing(s, t)


def test_mu_matches_half_omegaS_plus_delta():
    sp = space(2)
    rng = np.random.default_rng(35)
    basis = sp.d2().basis
    for _ in range(5):
        v = basis.T @ rng.integers(-2, 3, size=len(basis))
        s = rng.integers(-3, 4, size=(2, 2))
        s = s + s.T
        c = sp.express_in_generators(v)
        # the composite is counted in halves
        assert Fraction(casson.mu_of_coeffs(sp, c, s)) \
            == Fraction(casson.half_omegaS_plus_delta(sp, c, s), 2)


@pytest.mark.parametrize("g", [2, 3])
def test_tabulated_mu_matches_polynomial_evaluation(g):
    """mu_of_coeffs (theta table) against the polynomial route: expand
    theta of the coefficients, then evaluate it at both linking forms."""
    sp = space(g)
    rng = np.random.default_rng(40 + g)
    coeffs = rng.integers(-3, 4, size=(6, len(sp.generators)))
    coeffs[2] = 0
    coeffs[4] = rng.integers(-(2 ** 20), 2 ** 20, size=len(sp.generators))
    for _ in range(3):
        s = rng.integers(-3, 4, size=(g, g))
        s = s + s.T
        stacked = casson.mu_of_coeffs(sp, coeffs, s)
        assert stacked.shape == (len(coeffs),)
        for row, got in zip(coeffs, stacked):
            want = mu_by_polynomial(sp, row, s)
            assert got == want
            assert casson.mu_of_coeffs(sp, row, s) == want


def test_omegaS_composite_stack_matches_rows():
    sp = space(2)
    rng = np.random.default_rng(36)
    coeffs = rng.integers(-2, 3, size=(4, len(sp.generators)))
    s = np.array([[2, -1], [-1, 0]])
    stacked = casson.half_omegaS_plus_delta(sp, coeffs, s)
    assert stacked.tolist() == [casson.half_omegaS_plus_delta(sp, row, s)
                                for row in coeffs]
    assert np.array_equal(traces.tr_omegaS(sp, coeffs, s)[1],
                          traces.tr_omegaS(sp, coeffs[1], s))


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
    for row, got in zip(coeffs, stacked):
        assert got == qbar_by_polynomial(sp, row)
        assert casson.qbar_of_coeffs(sp, row) == got


def _sym_stack(rng, g, count):
    """Small symmetric matrices, then entries near 2^31 and near 2^62."""
    m = rng.integers(-3, 4, size=(count, g, g))
    mats = m + np.swapaxes(m, 1, 2)
    near31 = mats[0] + (2 ** 31 - 1)
    near62 = np.full((g, g), 2 ** 62 - 5, dtype=np.int64)
    near62[-1, -1] = -(2 ** 62) + 9
    return np.concatenate([mats, near31[None], near62[None]])


@pytest.mark.parametrize("g", [2, 3])
def test_stacked_s_matches_per_s_loop(g):
    sp = space(g)
    rng = np.random.default_rng(70 + g)
    mats = _sym_stack(rng, g, 3)
    coeffs = rng.integers(-3, 4, size=(4, len(sp.generators)))
    qs = rng.integers(-5, 6, size=(4, len(traces.sym2_pairs(g))))
    mus = casson.mu_of_coeffs(sp, coeffs, mats)
    pairings = casson.r_pairing(mats, qs)
    halves = casson.half_omegaS_plus_delta(sp, coeffs, mats)
    tensors = traces.tr_omegaS(sp, coeffs, mats)
    for got in (mus, pairings, halves):
        assert got.shape == (len(coeffs), len(mats))
    iu = np.triu_indices(g)
    for j, s in enumerate(mats):
        assert np.array_equal(casson.mu_of_coeffs(sp, coeffs, s), mus[:, j])
        assert np.array_equal(casson.r_pairing(s, qs), pairings[:, j])
        assert np.array_equal(casson.half_omegaS_plus_delta(sp, coeffs, s),
                              halves[:, j])
        assert np.array_equal(traces.tr_omegaS(sp, coeffs, s), tensors[:, j])
        for r, row in enumerate(coeffs):
            # single row, single S, against references on Python ints
            assert casson.mu_of_coeffs(sp, row, s) == mus[r, j] \
                == mu_by_polynomial(sp, row, s)
            assert casson.r_pairing(s, qs[r]) == pairings[r, j] == sum(
                int(a) * int(b) for a, b in zip(qs[r], s[iu]))
            t = [[int(x) for x in line] for line in tensors[r, j]]
            omega_s = sum(int(s[a, b]) * t[g + a][g + b]
                          for a in range(g) for b in range(g))
            omega_delta = sum(t[g + a][a] for a in range(g))
            assert casson.half_omegaS_plus_delta(sp, row, s) \
                == halves[r, j] == omega_s + 2 * omega_delta


def test_flipped_mu_sign_fails_bridge_at_first_loop_witness(monkeypatch):
    """With the sign of mu flipped, casson-bridge reports the first
    (generator, S) instance that a plain loop over generators, then S,
    finds unequal."""
    g = 2
    monkeypatch.setattr(casson, "MU_SIGN", -1)
    sp = space(g)
    rng = np.random.default_rng(0)
    mats = [checks._random_sym_matrix(g, rng) for _ in range(100)]
    want = None
    for k, gen in enumerate(sp.generators):
        if sp.classify_type(gen)[0] < 1:
            continue
        unit = np.zeros(len(sp.generators), dtype=np.int64)
        unit[k] = 1
        q = traces.tr_A(sp, sp.gen_matrix()[:, k])
        for s in mats:
            mu = mu_by_polynomial(sp, unit, s)
            pairing = casson.r_pairing(s, q)
            if mu != pairing:
                want = {"generator": str(gen), "mu": str(mu),
                        "pairing": str(pairing),
                        "s": [str(int(x)) for x in s.ravel()]}
                break
        if want:
            break
    assert want is not None
    ok, witness = checks._check_casson_bridge(g, np.random.default_rng(0))
    assert not ok
    assert witness == want
