"""Casson-difference polynomials, linking-form evaluation, and the bridge
to the A-side trace."""

from fractions import Fraction

import numpy as np
import pytest

from sympderiv import casson, traces
from sympderiv.checks import quartic_relation
from sympderiv.derivspace import space
from sympderiv.freelie import context


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
    assert casson.eps_eval(p, lk) == 1


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
        assert Fraction(casson.mu_of_coeffs(sp, c, s)) \
            == casson.half_omegaS_plus_delta(sp, c, s)


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
            th = casson.theta_of_coeffs(sp, row)
            want = casson.MU_SIGN * (
                casson.eps_eval(th, casson.lk_base(g))
                - casson.eps_eval(th, casson.lk_twisted(g, s)))
            assert got == want
            assert casson.mu_of_coeffs(sp, row, s) == want


def test_omegaS_composite_stack_matches_rows():
    sp = space(2)
    rng = np.random.default_rng(36)
    coeffs = rng.integers(-2, 3, size=(4, len(sp.generators)))
    s = np.array([[2, -1], [-1, 0]])
    stacked = casson.half_omegaS_plus_delta(sp, coeffs, s)
    assert stacked == [casson.half_omegaS_plus_delta(sp, row, s)
                       for row in coeffs]
    assert np.array_equal(traces.tr_omegaS(sp, coeffs, s)[1],
                          traces.tr_omegaS(sp, coeffs[1], s))


def test_lk_twisted_requires_symmetric():
    with pytest.raises(ValueError):
        casson.lk_twisted(2, np.array([[0, 1], [0, 0]]))


def test_d_core_values():
    assert [casson.d_core(h) for h in range(1, 5)] == [0, 8, 24, 48]
