"""Named verification checks over the whole stack.

Each check recomputes one statement about the degree-1/degree-2 derivation
lattices from scratch and reports pass/fail with a witness.  Checks are pure
functions of (genus, seed); the CLI and the acceptance tests share them.
A seed is a non-negative int.  A check that draws numbers draws all of
them in one ``_draw`` call from ``random.Random(seed)``, whose ``random()``
stream for an int seed Python keeps the same across versions (numpy's
generators give no such promise across releases).  So no check loads
numpy's random module, nor OpenSSL through it; with numpy 2, which
imports that module only on first use, no verify run loads either.

Every check tests its instances as one stack (or, for the ambient IHX
colorings, fixed blocks of one), and a failure's witness is that of the
first failing instance in the order of a loop over them, read from a mask.
The trace formulas of ``well-definedness`` read ``traces.CONTRACTIONS``.

Statuses:

* ``pass`` / ``fail``  -- the statement is asserted at this genus;
* ``observed``         -- the statement is outside its proved genus range
                          here, so the computed relationship is reported
                          without being asserted;
* ``skipped``          -- the check does not apply at this genus.
"""

import itertools
import operator
import random
import time
import traceback
from dataclasses import dataclass, field
from math import comb, prod

import numpy as np

from . import casson, catalogs, traces, trees
from .derivspace import space
from .freelie import pair_columns
from .intlin import (IntegerLattice, cached, kernel_lattice, safe_matmul,
                     scatter)

VERSION = "0.1.0"


@dataclass
class CheckReport:
    id: str
    anchor: str
    genus: int
    status: str
    witness: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _dec(v):
    return [str(int(x)) for x in np.asarray(v).reshape(-1)]


def _half(h: int) -> str:
    """h/2 as ``str(Fraction(h, 2))`` writes it: "-3", or "-7/2"."""
    return str(h // 2) if h % 2 == 0 else f"{h}/2"


def _draw(seed, low, high, shape) -> np.ndarray:
    """An int64 array of the given shape, filled in C order with
    low + int(r.random() * (high - low)) from r = random.Random(seed)."""
    seed = operator.index(seed)
    if seed < 0:
        # random.Random seeds with |seed|, so -n would draw n's instances
        raise ValueError(f"seed must be a non-negative int, not {seed}")
    r = random.Random(seed).random
    n = high - low
    return np.array([low + int(r() * n) for _ in range(prod(shape))],
                    dtype=np.int64).reshape(shape)


# -- individual checks ---------------------------------------------------

def d2_rank_closed_form(g: int) -> int:
    """n^2 (n^2 - 1) / 12 with n = 2g: 20, 105, 336, 825 at genus 2-5."""
    n2 = (2 * g) ** 2
    return n2 * (n2 - 1) // 12


def _check_d2_rank(g, seed):
    sp = space(g)
    expected = d2_rank_closed_form(g)
    kernel_rank = sp.d2().rank
    count_rank = sp.d2_rank_by_count()
    ok = kernel_rank == count_rank == expected
    return ok, {"kernel_rank": kernel_rank, "count_rank": count_rank,
                "expected": expected}


def _check_dprime_index(g, seed):
    sp = space(g)
    whole = IntegerLattice(sp.rank, np.eye(sp.rank, dtype=np.int8),
                           canonical=True)
    idx = whole.index(sp.dprime2())
    expected = 2 ** comb(2 * g, 2)
    return idx == expected, {"index": str(idx), "expected": str(expected)}


def _check_trace_surjectivity(g, seed):
    r_as = traces.image_rank(sp := space(g), "as")
    r_sym = traces.image_rank(sp, "sym")
    # the dimensions of omega's kernels on Lambda^2(H/2H) and S^2(H/2H)
    e_as = (g - 1) * (2 * g + 1)
    e_sym = (g + 1) * (2 * g - 1)
    in_as = traces.image_in_omega_kernel(sp, "as")
    in_sym = traces.image_in_omega_kernel(sp, "sym")
    ok = r_as == e_as and r_sym == e_sym and in_as and in_sym
    return ok, {"rank_as": r_as, "expected_as": e_as,
                "rank_sym": r_sym, "expected_sym": e_sym,
                "image_in_omega_kernel": bool(in_as and in_sym)}


def _check_trace_kernels(g, seed):
    sp = space(g)
    ka = traces.kernel(sp, "as")
    ents = catalogs.johnson_catalog(sp)
    lat = catalogs.catalog_lattice(sp, ents)
    enlarged = False
    if lat != ka:
        ents = catalogs.johnson_catalog(sp, three_term=True)
        lat = catalogs.catalog_lattice(sp, ents)
        enlarged = True
    as_equal = lat == ka
    ks = traces.kernel(sp, "sym")
    bl = catalogs.catalog_lattice(
        sp, catalogs.tripod_bracket_entries(sp, side=None))
    included = bool(ks.contains_rows(bl.basis).all())
    sym_equal = bl == ks
    wit = {"johnson_rank": lat.rank, "ker_as_rank": ka.rank,
           "johnson_colors_enlarged": enlarged, "as_equal": as_equal,
           "bracket_rank": bl.rank, "ker_sym_rank": ks.rank,
           "bracket_included": included, "sym_equal": sym_equal}
    if g == 2:
        # With four handles' worth of letters there are only C(4,3) = 4
        # basis tripods, so the bracket span is a rank-6 proper sublattice
        # of the rank-20 kernel; equality is impossible at this genus and
        # the exact inclusion is pinned instead.
        ok = as_equal and included and bl.rank == 6
        return ("observed" if ok else "fail"), wit
    return as_equal and sym_equal, wit


def _check_kernel_index(g, seed):
    sp = space(g)
    idx = traces.kernel(sp, "as").index(traces.kernel(sp, "sym"))
    expected = 2 ** (2 * g + comb(2 * g, 2))
    return idx == expected, {"index": str(idx), "expected": str(expected)}


# the ambient IHX test evaluates this many basis colorings at a time
IHX_BLOCK = 1024


def _residues(ctx, quads, odots=()):
    """The mod-2 trace formulas of a sum of (coefficient-free) trees and
    symmetric halves, one instance per row of the leaf stacks: the 0/1
    matrix M = sum_t w_t x_t y_t^T mod 2 over the terms (x, y | u, v).

    A tree has the terms of its contractions ``traces.CONTRACTIONS``,
    weighted w = omega(u, v) (mod 2 their signs are immaterial); a half
    u (.) v has (u, v | u, v), weighted 1 + omega(u, v).  The symmetric
    trace is M's classes of e_i e_j, i <= j; the antisymmetric one drops
    the diagonal, so it is zero when M is symmetric."""
    terms = [(t[x], t[y], t[u], t[v]) for t in quads
             for _, u, v, x, y in traces.CONTRACTIONS]
    terms += [(u, v, u, v) for u, v in odots]
    x, y, u, v = (np.stack(side, axis=1) for side in zip(*terms))
    m, t, n = x.shape
    w = ctx.omega(u.reshape(-1, n), v.reshape(-1, n)).reshape(m, t)
    w[:, 4 * len(quads):] += 1
    return np.einsum("mt,mti,mtj->mij", w % 2, x % 2, y % 2) % 2


def _check_well_definedness(g, seed):
    a, b, c, d, u, v, w = np.moveaxis(_draw(seed, -2, 3, (200, 7, 2 * g)),
                                      1, 0)
    ctx = space(g).ctx
    failures = []
    # ambient IHX on every basis coloring, a block at a time: the three
    # plantings of the 4-leaf tree expand to a zero sum
    colorings = np.indices((2 * g,) * 4).reshape(4, -1).T
    ihx_ok = 0
    for start in range(0, len(colorings), IHX_BLOCK):
        block = colorings[start:start + IHX_BLOCK]
        p, q, r, s = block.T
        nonzero = (trees.eta2(ctx, p, q, r, s) + trees.eta2(ctx, q, r, p, s)
                   + trees.eta2(ctx, r, p, q, s)).any(axis=1)
        failures += [("ihx-ambient", tuple(map(int, block[i])))
                     for i in np.flatnonzero(nonzero)]
        ihx_ok += int(np.sum(~nonzero))
    # random relation instances against the generator-level formulas, every
    # instance of every family at once; mod 2 the signs of the IHX
    # plantings are immaterial
    ihx = _residues(ctx, [(a, b, c, d), (b, c, a, d), (c, a, b, d)])
    cases = [
        ("ihx-sym", ihx, True),
        ("ihx-as", ihx, False),
        ("as-flip", _residues(ctx, [(a, b, c, d), (b, a, c, d)]), True),
        ("square-tree-as", _residues(ctx, [(a, b, a, b)]), False),
        ("odot-multilinear",
         _residues(ctx, [(u, w, v, w)], [(u + v, w), (u, w), (v, w)]), False),
    ]
    labels, residues, sym = zip(*cases)
    m = np.stack(residues, axis=1)  # instance, family, i, j
    bad = ((m != np.swapaxes(m, 2, 3)).any(axis=(2, 3))
           | (np.diagonal(m, axis1=2, axis2=3).any(axis=2) & np.array(sym)))
    failures += [(labels[f], _dec(a[i]) + _dec(b[i]))
                 for i, f in np.argwhere(bad)]
    return not failures, {"relation_instances": bad.size,
                          "ihx_colorings": ihx_ok, "failures": failures[:5]}


def _check_levine(g, seed):
    sp = space(g)
    # one stack of trees (a | b, c | d): the rows (a_i, b_j | b_j, b_i) for
    # every i != j, then the rows (a_k, b_i | b_j, b_k) for every (i, j) and
    # k != j; letter a_i is i and b_i is g + i.  Each is sign(b - a)
    # sign(d - c) times the generator tree({a, b}, {c, d})
    i, j = np.nonzero(~np.eye(g, dtype=bool))
    at, k = np.nonzero(np.arange(g) != j[:, None])
    a, b = np.r_[i, k], g + np.r_[j, i[at]]
    c, d = g + np.r_[j, j[at]], g + np.r_[i, k]
    tree, _ = sp.pair_tables()
    rows = sp.gen_rows(len(a), np.arange(len(a)),
                       tree[sp.pair_index[a, b], sp.pair_index[c, d]],
                       np.sign(b - a) * np.sign(d - c))
    # per (i, j), in loop order: the one-handle element, then the two-handle
    # elements, each the sum of the rows of k and k2, k <= k2 (both != j)
    one, by_k = np.split(rows, [len(i)])
    by_k = by_k.reshape(len(i), g - 1, -1)
    s, t = np.triu_indices(g - 1)
    elements = np.concatenate([one[:, None], by_k[:, s] + by_k[:, t]], axis=1)
    first = np.tile(np.arange(1 + len(s)) == 0, len(i))  # the one-handle ones
    # tr_A is b'_j b'_j on a one-handle element and 2 b'_i b'_j on a
    # two-handle one, the S^2(H') basis vector b'_i b'_j being sym2[i, j]
    sym2 = np.eye(g * (g + 1) // 2, dtype=np.int64)[pair_columns(g, 0)]
    ip, jp = np.repeat(i, 1 + len(s)), np.repeat(j, 1 + len(s))
    want = np.where(first[:, None], sym2[jp, jp], 2 * sym2[ip, jp])
    # every test on one stack of D_2 coordinate rows; the witness is that
    # of the first failing element
    every = elements.reshape(len(first), -1)
    traces_A = traces.tr_A(sp, every)
    ok = (traces_A == want).all(axis=1) & want.any(axis=1)
    ok[first] &= (sp.ker_projection().contains_rows(every[first])
                  & ~traces.tr_as(sp, every[first]).any(axis=1))
    if not ok.all():
        n = np.flatnonzero(~ok)[0]
        p, e = divmod(int(n), 1 + len(s))
        ks = k.reshape(len(i), g - 1)[p]  # the k != j of this (i, j)
        ij = int(i[p]), int(j[p])
        label = ("one-handle, i=%d j=%d" % ij if e == 0 else "two-handle %s"
                 % str((int(ks[s[e - 1]]), int(ks[t[e - 1]])) + ij))
        return False, {"element": label, "trace": _dec(traces_A[n])}
    return True, {"elements_checked": len(every),
                  "strictness_witness": "tr_A = b'_j b'_j != 0 on an element "
                                        "of the projection kernel"}


def _check_casson_bridge(g, seed):
    mats = _draw(seed, -3, 4, (100, g, g))
    mats += np.swapaxes(mats, 1, 2)  # symmetric S
    sp = space(g)
    f0_gens = np.flatnonzero(sp.on_side(sp.leaves, "A").any(axis=1))
    # every (generator, S) instance at once, generators down, S across
    units = np.zeros((len(f0_gens), len(sp.generators)), dtype=np.int8)
    units[np.arange(len(f0_gens)), f0_gens] = 1
    qs = traces.tr_A(sp, sp.gen_coords()[:, f0_gens].T)
    lhs = casson.mu_of_coeffs(sp, units, mats)
    rhs = casson.r_pairing(mats, qs)
    bad = np.argwhere(lhs != rhs)  # row-major: the first failing instance
    if len(bad):
        i, j = bad[0]
        return False, {"generator": str(sp.generators[f0_gens[i]]),
                       "mu": str(lhs[i, j]), "pairing": str(rhs[i, j]),
                       "s": _dec(mats[j])}
    n_bridge = lhs.size
    # every (D_2 basis row, S) instance, from the coefficients of the unit
    # rows, the generators' transform (d2 checks it); the composite is
    # counted in halves, so it is compared with 2 mu
    basis = sp.d2().basis
    coeffs = sp.generator_span(False)[1]
    mus = casson.mu_of_coeffs(sp, coeffs, mats[:10])
    halves = casson.half_omegaS_plus_delta(sp, coeffs, mats[:10])
    bad = np.argwhere(2 * mus != halves)
    if len(bad):
        i, j = bad[0]
        return False, {"element": _dec(basis[i]), "mu": str(mus[i, j]),
                       "composite": _half(int(halves[i, j]))}
    return True, {"bridge_instances": n_bridge,
                  "composite_instances": mus.size}


def quartic_relations(sp):
    """The quads p < q < r < s of basis letters, the images of their
    e_p^e_q^e_r^e_s in the tree generators, (pq|rs) - (pr|qs) + (ps|qr), as
    (row, generator, weight) triplets read from ``pair_tables``, and their
    coefficient rows, the triplets scattered."""
    quads = np.array(list(itertools.combinations(range(2 * sp.g), 4)))
    tree, _ = sp.pair_tables()
    gens = tree[sp.pair_index[quads[:, [0, 0, 0]], quads[:, [1, 2, 3]]],
                sp.pair_index[quads[:, [2, 1, 1]], quads[:, [3, 3, 2]]]]
    triplets = (np.arange(len(quads)).repeat(3), gens.ravel(),
                np.tile([1, -1, 1], len(quads)))
    return quads, triplets, scatter((len(quads), len(sp.generators)),
                                    *triplets)


def _check_quartic_vanishing(g, seed):
    s = _draw(seed, -3, 4, (1, g, g))
    s += np.swapaxes(s, 1, 2)  # symmetric S
    sp = space(g)
    quads, triplets, rows = quartic_relations(sp)
    expected_dim = comb(2 * g, 4)
    # every test on the whole stack; the witness is the first failing quad
    # with its first failing test
    fails = np.stack([sp.gen_rows(len(quads), *triplets).any(axis=1),
                      casson.qbar_of_coeffs(sp, rows) != 0,
                      casson.mu_of_coeffs(sp, rows, s)[:, 0] != 0], axis=1)
    if fails.any():
        n, test = np.argwhere(fails)[0]
        key, value = [("reason", "not a relation"), ("qbar", "nonzero"),
                      ("mu", "nonzero")][test]
        return False, {"quad": quads[n].tolist(), key: value}
    rank = IntegerLattice(len(sp.generators), rows).rank
    if rank != expected_dim:
        return False, {"rank": rank, "expected": expected_dim}
    return True, {"spanning_vectors": rank, "expected": expected_dim}


@cached
def _double_kernel(g):
    """ker tr_as & ker tr_A, built once per genus as one integer kernel on
    tr_A's domain F_0^A, where an integer and a mod-2 condition meet.  With
    F that domain's basis and T the traces of D_2's basis
    (``traces._basis_traces``), the left kernel of
    [[F T_A, F T_as mod 2], [0, 2I]] holds the (x, y) with x F T_A = 0 and
    x F T_as = -2y; y is fixed by x, so its x parts span the coefficients
    over F of the elements with tr_A 0 and tr_as even, and the lattice is
    one HNF of x F."""
    sp = space(g)
    f = sp.filtration("A").basis
    t_a = safe_matmul(f, traces._basis_traces(sp, "A"))
    t_as = safe_matmul(f, traces._basis_traces(sp, "as")) % 2
    p = t_as.shape[1]
    m = np.block([[t_a, t_as], [np.zeros((p, t_a.shape[1]), dtype=np.int64),
                                2 * np.eye(p, dtype=np.int64)]])
    x = kernel_lattice(m.T).basis[:, :len(f)]
    return IntegerLattice(sp.rank, safe_matmul(x, f))


@cached
def _realizable_lattices(g):
    """Catalog size, catalog span and double trace kernel, built once per
    genus for the two checks that read them (the entries are not kept)."""
    sp = space(g)
    target = _double_kernel(g)
    ents = catalogs.realizable_catalog_A(sp)
    lat = catalogs.catalog_lattice(sp, ents)  # pulls every row of ents
    return sp, len(ents), lat, target  # so len counts the whole catalog


def _check_realizable_kernel(g, seed):
    sp, size, lat, target = _realizable_lattices(g)
    included = bool(target.contains_rows(lat.basis).all())
    equal = lat == target
    wit = {"catalog_size": size, "catalog_rank": lat.rank,
           "kernel_rank": target.rank, "included": included, "equal": equal}
    if g < 4:
        if equal:
            wit["observed_index"] = "1"
        return ("observed" if included else "fail"), wit
    return included and equal, wit


def _check_realizable_sum(g, seed):
    sp, _, lat, _ = _realizable_lattices(g)
    ka = traces.kernel(sp, "as")
    quarter_turn = len(catalogs.goeritz_symmetries(g)) - 1
    iota = catalogs.coordinate_action(sp, quarter_turn)
    total = lat.sum(safe_matmul(lat.basis, iota))
    equal = total == ka
    wit = {"sum_rank": total.rank, "ker_as_rank": ka.rank, "equal": equal}
    if g < 4:
        return "observed", wit
    return equal, wit


def _check_goeritz_degree1(g, seed):
    sp = space(g)
    orb = catalogs.goeritz_tau1_lattice(sp)
    mw = catalogs.mixed_wedge_lattice(sp)
    expected = comb(2 * g, 3) - 2 * comb(g, 3)
    ok = orb == mw and orb.rank == expected
    return ok, {"orbit_rank": orb.rank, "expected_rank": expected,
                "equals_mixed_wedge": orb == mw}


def _check_goeritz_kernel(g, seed):
    sp = space(g)
    target = _double_kernel(g).intersection(traces.kernel(sp, "B"))
    lat = catalogs.goeritz_tau2_lattice(sp)
    included = bool(target.contains_rows(lat.basis).all())
    equal = lat == target
    wit = {"catalog_rank": lat.rank, "kernel_rank": target.rank,
           "included": included, "equal": equal}
    if g < 4:
        return ("observed" if included else "fail"), wit
    return included and equal, wit


def _check_core_values(g, seed):
    vals = {h: casson.d_core(h) for h in range(1, 6)}
    ok = vals[1] == 0 and vals[2] == 8 and all(
        vals[h] == 4 * h * (h - 1) for h in vals)
    return ok, {"d_core": {str(h): v for h, v in vals.items()}}


# -- registry ------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    id: str
    anchor: str
    fn: object               # fn(genus, seed) -> (status, witness)
    genera: tuple            # genera where the check runs
    estimate: dict           # genus -> rough wall seconds of one run


# Estimates are the seconds each check took in suite order under
# `verify --all` on a 2-vCPU Xeon VM, rounded up, at least 1; a check run
# alone also pays the builds it shares.  `python3 perfbench/reference.py`
# remeasures them and prints them beside the current values.
ALL_CHECKS = [
    CheckSpec("d2-rank",
              "rank of the degree-2 derivation lattice, two ways",
              _check_d2_rank, (2, 3, 4), {2: 1, 3: 1, 4: 1}),
    CheckSpec("dprime-index",
              "index of the integral tree sublattice is 2^C(2g,2)",
              _check_dprime_index, (2, 3), {2: 1, 3: 1}),
    CheckSpec("trace-surjectivity",
              "trace images fill the omega-kernels over GF(2)",
              _check_trace_surjectivity, (2, 3, 4), {2: 1, 3: 1, 4: 1}),
    CheckSpec("trace-kernels",
              "trace kernels match the bounding-curve and bracket lattices",
              _check_trace_kernels, (2, 3), {2: 1, 3: 1}),
    CheckSpec("kernel-index",
              "index between the two trace kernels is 2^(2g+C(2g,2))",
              _check_kernel_index, (2, 3), {2: 1, 3: 1}),
    CheckSpec("well-definedness",
              "trace formulas kill all presentation relations",
              _check_well_definedness, (2,), {2: 1}),
    CheckSpec("levine-counterexample",
              "one-sided kernel elements with nonzero A-side trace",
              _check_levine, (2, 3, 4), {2: 1, 3: 1, 4: 1}),
    CheckSpec("casson-bridge",
              "re-gluing invariant equals the pairing with the A-side trace",
              _check_casson_bridge, (2, 3), {2: 1, 3: 1}),
    CheckSpec("quartic-vanishing",
              "quadratic re-gluing form kills the quartic wedge relations",
              _check_quartic_vanishing, (2, 3), {2: 1, 3: 1}),
    CheckSpec("realizable-kernel",
              "A-side realizable catalog spans the double trace kernel",
              _check_realizable_kernel, (2, 3, 4), {2: 1, 3: 1, 4: 1}),
    CheckSpec("realizable-sum",
              "catalog plus its quarter-turn image spans the full kernel",
              _check_realizable_sum, (2, 3, 4), {2: 1, 3: 1, 4: 1}),
    CheckSpec("goeritz-degree1",
              "two-sided degree-1 orbit equals the mixed wedge lattice",
              _check_goeritz_degree1, (2, 3, 4), {2: 1, 3: 1, 4: 1}),
    CheckSpec("goeritz-kernel",
              "two-sided degree-2 catalog spans the triple trace kernel",
              _check_goeritz_kernel, (2, 3, 4), {2: 1, 3: 1, 4: 1}),
    CheckSpec("core-values",
              "core of the re-gluing invariant on bounding-curve twists",
              _check_core_values, (2, 3, 4), {2: 1, 3: 1, 4: 1}),
]

CHECKS = {c.id: c for c in ALL_CHECKS}


def run_check(check_id: str, genus: int, seed: int = 0) -> CheckReport:
    entry = CHECKS[check_id]
    if genus not in entry.genera:
        return CheckReport(entry.id, entry.anchor, genus, "skipped",
                           {"reason": "not applicable at this genus"})
    t0 = time.perf_counter()
    try:
        status, witness = entry.fn(genus, seed)
    except Exception as exc:
        # a raising check is a reported failure, not the end of the run;
        # the traceback goes to stderr, the certificate gets type and text
        traceback.print_exc()
        status = "fail"
        witness = {"exception": type(exc).__name__, "message": str(exc)}
    dt = time.perf_counter() - t0
    if isinstance(status, bool):
        status = "pass" if status else "fail"
    return CheckReport(entry.id, entry.anchor, genus, status, witness, dt)
