"""Expected values and failure witnesses of individual checks, and the
per-instance loops that the stacked checks must agree with."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from sympderiv import casson, catalogs, checks, traces, trees
from sympderiv.derivspace import DerivationSpace, FiltrationError, space
from sympderiv.freelie import SymplecticContext, context, iota_matrix
from sympderiv.intlin import IntegerLattice, safe_matmul
from test_derivspace import express
from test_trees import vector_eta2


# -- per-instance references ----------------------------------------------

def _dec(v):
    return [str(int(x)) for x in v]


def sym_matrices_by_loop(seed, g, k):
    """k symmetric S = m + m^T, each entry of each g x g matrix m drawn in
    [-3, 4) by one random.Random(seed).random() call."""
    r = random.Random(seed)
    out = []
    for _ in range(k):
        m = np.zeros((g, g), dtype=np.int64)
        for i in range(g):
            for j in range(g):
                m[i, j] = -3 + int(r.random() * 7)
        out.append(m + m.T)
    return out


def relation_draws_by_loop(seed, g):
    """The vectors a, b, c, d, u, v, w of 200 relation instances, each entry
    drawn in [-2, 3) by one random.Random(seed).random() call, as a
    (200, 7, 2g) stack."""
    r = random.Random(seed)
    draws = np.zeros((200, 7, 2 * g), dtype=np.int64)
    for n in range(200):
        for vec in range(7):
            for i in range(2 * g):
                draws[n, vec, i] = -2 + int(r.random() * 5)
    return draws


def _formal_trace(ctx, quads, odots=(), sym=False):
    """Sum over (coeff-free) trees of the symmetric (``sym``) or the
    antisymmetric trace formula, as a GF(2) coefficient dict over monomials
    e_i e_j, i <= j.  The antisymmetric one drops the diagonal and adds the
    symmetric-half rule (1 + omega(a,b)) a^b for entries of ``odots``."""
    out = {}

    def add(x, y, w):
        if w % 2 == 0:
            return
        for i in range(ctx.n):
            for j in range(ctx.n):
                if i == j and not sym:
                    continue
                c = int(x[i]) * int(y[j])
                if c % 2:
                    key = (min(i, j), max(i, j))
                    out[key] = out.get(key, 0) ^ 1

    # (x, y, u, v): x y weighted by omega(u, v), plus 1 for an odot
    terms = [t for a, b, c, d in quads
             for t in ((b, c, a, d), (b, d, a, c), (a, c, b, d), (a, d, b, c))]
    terms += [(u, v, u, v) for u, v in odots]
    _, _, u, v = zip(*terms)
    weights = ctx.omega(np.array(u), np.array(v))
    weights[4 * len(quads):] += 1
    for (x, y, _, _), w in zip(terms, weights.tolist()):
        add(x, y, w)
    return {k: v for k, v in out.items() if v}


def well_definedness_failures_by_loop(g, seed):
    """The relation-instance failures of well-definedness, one instance and
    one family at a time through ``_formal_trace``."""
    ctx = context(g)
    failures = []
    for a, b, c, d, u, v, w in relation_draws_by_loop(seed, g):
        ihx = [(a, b, c, d), (b, c, a, d), (c, a, b, d)]
        cases = [
            ("ihx-sym", _formal_trace(ctx, ihx, sym=True)),
            ("ihx-as", _formal_trace(ctx, ihx)),
            ("as-flip",
             _formal_trace(ctx, [(a, b, c, d), (b, a, c, d)], sym=True)),
            ("square-tree-as", _formal_trace(ctx, [(a, b, a, b)])),
            ("odot-multilinear",
             _formal_trace(ctx, [(u, w, v, w)],
                           odots=[(u + v, w), (u, w), (v, w)])),
        ]
        failures += [(label, _dec(a) + _dec(b))
                     for label, residue in cases if residue]
    return failures


def levine_rows_match_ambient_route(sp):
    """The coordinate rows that tr_A reads in levine-counterexample, built
    from generator triplets, against the ambient route: the loop's
    elements expanded in H (x) L_3 through Lie brackets and solved over
    D_2's basis.  Returns their count."""
    seen = []
    real = traces.tr_A
    traces.tr_A = lambda sp, rows: seen.append(rows) or real(sp, rows)
    try:
        assert checks._check_levine(sp.g, None)[0]
    finally:
        traces.tr_A = real
    _, elements = levine_elements_by_loop(sp)
    assert np.array_equal(seen[0], sp.d2().membership(elements))
    return len(elements)


def quartic_relation(sp, quad):
    """Coefficient vector of the image of e_p^e_q^e_r^e_s in the tree
    coordinates: (pq|rs) - (pr|qs) + (ps|qr)."""
    p, q, r, s = quad
    tree, _ = sp.pair_tables()
    coeffs = np.zeros(len(sp.generators), dtype=np.int64)
    for pair1, pair2, sign in (((p, q), (r, s), 1), ((p, r), (q, s), -1),
                               ((p, s), (q, r), 1)):
        coeffs[tree[sp.pair_index[pair1], sp.pair_index[pair2]]] += sign
    return coeffs


def levine_elements_by_loop(sp):
    """The labels and elements of levine-counterexample in loop order."""
    g = sp.g
    a, b = np.split(np.eye(2 * g, dtype=np.int64), 2)
    labels, elements = [], []
    for i in range(g):
        for j in range(g):
            if i == j:
                continue
            ks = [k for k in range(g) if k != j]
            one = {k: vector_eta2(sp.ctx, a[k:k + 1], b[i:i + 1],
                                  b[j:j + 1], b[k:k + 1])[0] for k in ks}
            labels.append("one-handle, i=%d j=%d" % (i, j))
            elements.append(vector_eta2(sp.ctx, a[i:i + 1], b[j:j + 1],
                                        b[j:j + 1], b[i:i + 1])[0])
            for k in ks:
                for k2 in ks:
                    if k2 >= k:
                        labels.append("two-handle %s" % str((k, k2, i, j)))
                        elements.append(one[k] + one[k2])
    return labels, np.array(elements)


def test_d2_rank_closed_form():
    assert [checks.d2_rank_closed_form(g) for g in (2, 3, 4, 5)] \
        == [20, 105, 336, 825]
    # the independent count agrees past the genera the suite runs
    assert checks.d2_rank_closed_form(5) == DerivationSpace(5).d2_rank_by_count()


def test_levine_stack_failure_keeps_first_witness(monkeypatch):
    # a projection kernel holding only the first one-handle element: the
    # check reports the first element outside, after the two it checked
    sp = space(2)
    first = trees.eta2(sp.ctx, [0], [3], [3], [2])  # i=0, j=1
    lat = IntegerLattice(sp.rank, sp.d2().membership(first))
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
    first = trees.eta2(sp.ctx, [0], [3], [3], [2])  # i=0, j=1
    lat = IntegerLattice(sp.rank, sp.d2().membership(first))
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
    mats = sym_matrices_by_loop(0, 2, 100)
    row = sp.d2().basis[:1]
    coeffs = express(sp, sp.d2().membership(row))
    mu = int(casson.mu_of_coeffs(sp, coeffs, mats[0][None])[0, 0])
    ok, witness = checks._check_casson_bridge(2, 0)
    assert not ok
    assert witness == {"element": [str(int(x)) for x in row[0]],
                       "mu": str(mu),
                       "composite": str(Fraction(2 * mu + 1, 2))}
    assert witness["composite"].endswith("/2")


@pytest.mark.parametrize("h", range(-9, 10))
def test_half_matches_fraction(h):
    assert checks._half(h) == str(Fraction(h, 2))


def test_same_seed_gives_the_same_bridge_witness(monkeypatch):
    # with the sign of mu flipped the check fails at a drawn S, so its
    # witness shows the draws: the same seed draws the same S, and another
    # seed draws another
    monkeypatch.setattr(casson, "MU_SIGN", -1)
    ok, witness = checks._check_casson_bridge(2, 0)
    assert not ok
    assert checks._check_casson_bridge(2, 0) == (ok, witness)
    assert checks._check_casson_bridge(2, 1)[1]["s"] != witness["s"]


# -- the stacked checks against their per-instance references -------------

def _residue_dict(m, sym):
    """A residue matrix M read as ``_formal_trace`` reports it."""
    n = len(m)
    out = {(i, j): int(m[i, j] + m[j, i]) % 2
           for i in range(n) for j in range(i + 1, n)}
    if sym:
        out.update({(i, i): int(m[i, i]) for i in range(n)})
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("g", [2, 3])
def test_stacked_residues_match_the_formal_trace(g):
    # 300 random sums of trees and halves, which are not relations: most of
    # their 600 residues are nonzero, so the comparison is not of zeros only
    ctx = context(g)
    rng = np.random.default_rng(40 + g)
    nonzero = 0
    for n_quads, n_odots in [(1, 0), (2, 1), (3, 3)]:
        vecs = rng.integers(-2, 3, size=(4 * n_quads + 2 * n_odots, 100, ctx.n))
        quads = [tuple(vecs[4 * q:4 * q + 4]) for q in range(n_quads)]
        odots = [tuple(vecs[4 * n_quads + 2 * h:4 * n_quads + 2 * h + 2])
                 for h in range(n_odots)]
        stacked = checks._residues(ctx, quads, odots)
        for m in range(100):
            one_quads = [tuple(x[m] for x in quad) for quad in quads]
            one_odots = [tuple(x[m] for x in odot) for odot in odots]
            for sym in (True, False):
                want = _formal_trace(ctx, one_quads, one_odots, sym=sym)
                assert _residue_dict(stacked[m], sym) == want
                nonzero += bool(want)
    assert nonzero > 300


class Drawn(Exception):
    pass


def first_draw(monkeypatch, cid, g, seed):
    """The array a check draws first, the check ended at that draw."""
    real = checks._draw

    def draw(*args):
        raise Drawn(real(*args))

    monkeypatch.setattr(checks, "_draw", draw)
    with pytest.raises(Drawn) as drawn:
        checks.CHECKS[cid].fn(g, seed)
    return drawn.value.args[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_one_call_draws_equal_the_loop_draws(g, seed, monkeypatch):
    for cid, k in [("well-definedness", None), ("casson-bridge", 100),
                   ("quartic-vanishing", 1)]:
        got = first_draw(monkeypatch, cid, g, seed)
        assert got.dtype == np.int64
        if k is None:
            assert np.array_equal(got, relation_draws_by_loop(seed, g))
        else:
            assert np.array_equal(got + np.swapaxes(got, 1, 2),
                                  sym_matrices_by_loop(seed, g, k))


def test_seed_0_draws_at_genus_2_are_pinned(monkeypatch):
    # random()'s stream for an int seed is the same on every Python
    # version, and numpy does not enter it, so every supported Python and
    # numpy draws these instances
    wd = first_draw(monkeypatch, "well-definedness", 2, 0)
    assert wd.shape == (200, 7, 4)
    assert wd[0].tolist() == [[2, 1, 0, -1], [0, 0, 1, -1], [0, 0, 2, 0],
                              [-1, 1, 1, -1], [2, 2, 2, 2], [-1, 1, 2, 1],
                              [0, -2, 0, 1]]
    cb = first_draw(monkeypatch, "casson-bridge", 2, 0)
    assert cb.shape == (100, 2, 2)
    assert cb[:3].tolist() == [[[2, 2], [-1, -2]], [[0, -1], [2, -1]],
                               [[0, 1], [3, 0]]]
    qv = first_draw(monkeypatch, "quartic-vanishing", 2, 0)
    assert qv.tolist() == [[[2, 2], [-1, -2]]]


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        checks._draw(-1, -3, 4, (1, 2, 2))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_stacked_quartic_rows_match_the_per_quad_rows(g):
    sp = space(g)
    quads, triplets, rows = checks.quartic_relations(sp)
    assert quads.tolist() \
        == [list(q) for q in itertools.combinations(range(2 * g), 4)]
    assert np.array_equal(rows, [quartic_relation(sp, q) for q in quads])
    # the relation test's rows, from the triplets, are the product of the
    # coefficient rows with the generator columns: all zero
    got = sp.gen_rows(len(quads), *triplets)
    assert np.array_equal(got, safe_matmul(rows, sp.gen_coords().T))
    assert got.shape == (len(quads), sp.rank) and not got.any()


@pytest.mark.parametrize("shift", [
    lambda u: 1,  # only odot-multilinear fails
    lambda u: np.asarray(u)[:, 0],  # four of the five families fail
], ids=["plus-1", "plus-u0"])
def test_well_definedness_keeps_the_loop_order_of_failures(shift, monkeypatch):
    # with a shifted omega the relation formulas fail; the check reports
    # the failures that a loop over instances, then families, meets first
    real = SymplecticContext.omega
    monkeypatch.setattr(SymplecticContext, "omega",
                        lambda self, u, v: real(self, u, v) + shift(u))
    ok, witness = checks._check_well_definedness(2, 0)
    want = well_definedness_failures_by_loop(2, 0)
    assert not ok and len(want) >= 5
    assert witness["ihx_colorings"] == 256
    assert witness["failures"] == want[:5]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_levine_stack_matches_the_loop_elements(g):
    # the coordinate rows that tr_A reads are those of the loop's elements
    assert levine_rows_match_ambient_route(space(g)) == g * (g - 1) * (
        1 + g * (g - 1) // 2)
    assert traces.tr_A.__module__ == "sympderiv.traces"


def test_levine_labels_every_element_as_the_loop_does(monkeypatch):
    # make each element in turn the only failing one: the witness names it
    # with the loop's label
    sp = space(3)
    labels, _ = levine_elements_by_loop(sp)
    real = traces.tr_A
    for n, label in enumerate(labels):
        def shifted(sp, rows, n=n):
            out = real(sp, rows)
            out[n] += 1
            return out

        monkeypatch.setattr(traces, "tr_A", shifted)
        assert checks._check_levine(3, None)[1]["element"] == label


def double_kernel_matches_intersection(g):
    """The double kernel, one integer kernel on tr_A's domain, against the
    Zassenhaus intersection of ker tr_as and ker tr_A, values and dtype.
    Returns its rank."""
    sp = space(g)
    want = traces.kernel(sp, "as").intersection(traces.kernel(sp, "A"))
    got = checks._double_kernel(g)
    assert got == want and got.basis.dtype == want.basis.dtype
    return got.rank


@pytest.mark.parametrize("g", [2, 3, 4])
def test_double_kernel_is_the_intersection_of_both_kernels(g):
    assert double_kernel_matches_intersection(g) > 0


def test_cached_values_are_read_only():
    """Every array that ``intlin.cached`` keeps, returned alone or in a
    tuple, and every cached lattice's basis."""
    sp = space(2)
    arrays = [iota_matrix(2), casson.lk_base(2), sp.ctx.bracket_table(1, 2),
              sp.ctx.avoiding("A"), sp.gen_coords(), *sp.pair_tables(),
              *sp._gen_columns(), sp.generator_span(False)[1],
              sp.generator_span(True)[1], casson._thrice_qbar_column(sp),
              catalogs.coordinate_action(sp, 0),
              *catalogs.goeritz_symmetries(2), traces._omegaS_table(sp),
              traces._contraction(sp)]
    arrays += [traces._gf2_table(sp, which) for which in ("as", "sym")]
    arrays += [traces._side_table(sp, side) for side in "AB"]
    arrays += [traces._basis_traces(sp, which)
               for which in ("as", "sym", "A", "B")]
    # built once per genus, as one tuple
    assert catalogs.goeritz_symmetries(2) is catalogs.goeritz_symmetries(2)
    assert isinstance(catalogs.goeritz_symmetries(2), tuple)
    lattices = [sp.d2(), sp.dprime2(), sp.ker_projection(),
                traces.kernel(sp, "as"), traces.kernel(sp, "sym"),
                traces.kernel(sp, "A"), traces.kernel(sp, "B"),
                checks._double_kernel(2)]
    lattices += [sp.filtration(k, side) for k in range(-1, 4) for side in "AB"]
    for a in arrays + [lat.basis for lat in lattices]:
        assert not a.flags.writeable
    # the lattice freezes a view: the caller's own array stays writable
    rows = np.eye(3, dtype=np.int64)
    assert not IntegerLattice(3, rows, canonical=True).basis.flags.writeable
    assert rows.flags.writeable
