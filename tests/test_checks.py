"""Expected values and failure witnesses of individual checks."""

from fractions import Fraction

import numpy as np
import pytest

from sympderiv import casson, checks, traces, trees
from sympderiv.derivspace import DerivationSpace, FiltrationError, space
from sympderiv.intlin import IntegerLattice


def test_d2_rank_closed_form():
    assert [checks.d2_rank_closed_form(g) for g in (2, 3, 4, 5)] \
        == [20, 105, 336, 825]
    # the independent count agrees past the genera the suite runs
    assert checks.d2_rank_closed_form(5) == DerivationSpace(5).d2_rank_by_count()


def test_levine_stack_failure_keeps_first_witness(monkeypatch):
    # a projection kernel holding only the first one-handle element: the
    # check reports the first element outside, after the two it checked
    sp = space(2)
    e = np.eye(sp.ctx.n, dtype=np.int64)[:, None]  # one-row stacks
    first = trees.eta2(sp.ctx, e[0], e[3], e[3], e[2])  # i=0, j=1
    lat = IntegerLattice(sp.rank, sp.coords(first))
    monkeypatch.setattr(DerivationSpace, "ker_projection",
                        lambda self, killed="A": lat)
    ok, witness = checks._check_levine(2, None)
    assert not ok
    # tr_A of (a_1, b_0 | b_0, b_1) is b'_0 b'_0
    assert witness == {"element": "one-handle, i=1 j=0",
                       "trace": ["1", "0", "0"]}
    assert list(zip(*np.triu_indices(2)))[0] == (0, 0)


def test_levine_raises_at_first_element_outside_domain(monkeypatch):
    # a filtration holding only the first one-handle element: the next
    # one (a two-handle element) is outside it, so tr_A of the stack raises
    sp = space(2)
    proj_kernel = sp.ker_projection()
    e = np.eye(sp.ctx.n, dtype=np.int64)[:, None]  # one-row stacks
    first = trees.eta2(sp.ctx, e[0], e[3], e[3], e[2])  # i=0, j=1
    lat = IntegerLattice(sp.rank, sp.coords(first))
    monkeypatch.setattr(DerivationSpace, "ker_projection",
                        lambda self, killed="A": proj_kernel)
    monkeypatch.setattr(DerivationSpace, "filtration",
                        lambda self, k, side: lat)
    with pytest.raises(FiltrationError, match="A-side"):
        checks._check_levine(2, None)


def test_levine_reports_first_element_with_tr_as(monkeypatch):
    # only the second one-handle element has a nonzero tr_as

    def second_odd(sp, rows):
        out = np.zeros((len(rows), 6), dtype=np.int64)
        out[1, 0] = 1
        return out

    monkeypatch.setattr(traces, "tr_as", second_odd)
    ok, witness = checks._check_levine(2, None)
    assert not ok
    assert witness == {"element": "one-handle, i=1 j=0",
                       "trace": ["1", "0", "0"]}


def test_bridge_composite_witness_is_formatted_from_halves(monkeypatch):
    # a composite one half too large everywhere: the first basis row and
    # the first S fail, and the witness prints the composite as a fraction
    real = casson.half_omegaS_plus_delta
    monkeypatch.setattr(casson, "half_omegaS_plus_delta",
                        lambda sp, coeffs, s: real(sp, coeffs, s) + 1)
    sp = space(2)
    rng = np.random.default_rng(0)
    mats = [checks._random_sym_matrix(2, rng) for _ in range(100)]
    row = sp.d2().basis[:1]
    coeffs = sp.express_in_generators(sp.coords(row))
    mu = int(casson.mu_of_coeffs(sp, coeffs, mats[0][None])[0, 0])
    ok, witness = checks._check_casson_bridge(2, np.random.default_rng(0))
    assert not ok
    assert witness == {"element": [str(int(x)) for x in row[0]],
                       "mu": str(mu),
                       "composite": str(Fraction(2 * mu + 1, 2))}
    assert witness["composite"].endswith("/2")


def test_int_seed_and_generator_give_the_same_bridge_witness(monkeypatch):
    # with the sign of mu flipped the check fails at a drawn S, so its
    # witness shows the draws: an int seed and the Generator made from it
    # draw the same S, and another seed draws another
    monkeypatch.setattr(casson, "MU_SIGN", -1)
    ok, witness = checks._check_casson_bridge(2, 0)
    assert not ok
    assert checks._check_casson_bridge(2, np.random.default_rng(0)) \
        == (ok, witness)
    assert checks._check_casson_bridge(2, 1)[1]["s"] != witness["s"]
