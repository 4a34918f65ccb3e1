"""Named verification checks over the whole stack.

Each check recomputes one statement about the degree-1/degree-2 derivation
lattices from scratch and reports pass/fail with a witness.  Checks are pure
functions of (genus, seed); the CLI and the acceptance tests share them.

Statuses:

* ``pass`` / ``fail``  -- the statement is asserted at this genus;
* ``observed``         -- the statement is outside its proved genus range
                          here, so the computed relationship is reported
                          without being asserted;
* ``skipped``          -- the check does not apply at this genus, or was
                          cut by the time budget.
"""

import itertools
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from . import casson, catalogs, traces, trees
from .derivspace import FiltrationError, iota_matrix, space
from .intlin import IntegerLattice, safe_matmul

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


# -- individual checks ---------------------------------------------------

def d2_rank_closed_form(g: int) -> int:
    """n^2 (n^2 - 1) / 12 with n = 2g: 20, 105, 336, 825 at genus 2-5."""
    n2 = (2 * g) ** 2
    return n2 * (n2 - 1) // 12


def _check_d2_rank(g, rng):
    sp = space(g)
    expected = d2_rank_closed_form(g)
    kernel_rank = sp.d2().rank
    count_rank = sp.d2_rank_by_count()
    ok = kernel_rank == count_rank == expected
    return ok, {"kernel_rank": kernel_rank, "count_rank": count_rank,
                "expected": expected}


def _check_dprime_index(g, rng):
    sp = space(g)
    idx = sp.d2().index(sp.dprime2())
    expected = 2 ** comb(2 * g, 2)
    return idx == expected, {"index": str(idx), "expected": str(expected)}


def _check_trace_surjectivity(g, rng):
    r_as = traces.image_rank_as(sp := space(g))
    r_sym = traces.image_rank_sym(sp)
    e_as = traces.omega_kernel_dim_ext(g)
    e_sym = traces.omega_kernel_dim_sym(g)
    in_as = traces.image_in_omega_kernel(sp, "as")
    in_sym = traces.image_in_omega_kernel(sp, "sym")
    ok = r_as == e_as and r_sym == e_sym and in_as and in_sym
    return ok, {"rank_as": r_as, "expected_as": e_as,
                "rank_sym": r_sym, "expected_sym": e_sym,
                "image_in_omega_kernel": bool(in_as and in_sym)}


def _check_trace_kernels(g, rng):
    sp = space(g)
    ka = traces.ker_tr_as(sp)
    ents = catalogs.johnson_catalog(sp)
    lat = catalogs.catalog_lattice(sp, ents, target=ka)
    enlarged = False
    if lat != ka:
        ents = catalogs.johnson_catalog(sp, three_term=True)
        lat = catalogs.catalog_lattice(sp, ents, target=ka)
        enlarged = True
    as_equal = lat == ka
    ks = traces.ker_tr_sym(sp)
    bl = catalogs.all_bracket_lattice(sp)
    included = ks.membership(bl.basis) is not None
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


def _check_kernel_index(g, rng):
    sp = space(g)
    idx = traces.ker_tr_as(sp).index(traces.ker_tr_sym(sp))
    expected = 2 ** (2 * g + comb(2 * g, 2))
    return idx == expected, {"index": str(idx), "expected": str(expected)}


def _rand_vec(g, rng):
    return rng.integers(-2, 3, size=2 * g)


def _formal_trace(ctx, quads, odots=(), sym=False):
    """Sum over (coeff-free) trees of the symmetric (``sym``) or the
    antisymmetric trace formula, as a GF(2) coefficient dict over monomials
    e_i e_j, i <= j.  The antisymmetric one drops the diagonal and adds the
    symmetric-half rule (1 + omega(a,b)) a^b for entries of ``odots``."""
    omega = ctx.omega
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

    for a, b, c, d in quads:
        add(b, c, omega(a, d))
        add(b, d, omega(a, c))
        add(a, c, omega(b, d))
        add(a, d, omega(b, c))
    for u, v in odots:
        add(u, v, 1 + omega(u, v))
    return {k: v for k, v in out.items() if v}


def _ihx_quads(a, b, c, d):
    """The three plantings of the 4-leaf tree whose signed sum expands to
    zero; mod 2 the signs are immaterial for the trace formulas."""
    return [(a, b, c, d), (b, c, a, d), (c, a, b, d)]


def _check_well_definedness(g, rng):
    sp = space(g)
    ctx = sp.ctx
    failures = []
    # ambient IHX on every basis coloring
    colorings = list(itertools.product(range(2 * g), repeat=4))
    a, b, c, d = np.eye(2 * g, dtype=np.int64)[np.array(colorings).T]
    combo = (trees.eta2(ctx, a, b, c, d) + trees.eta2(ctx, b, c, a, d)
             + trees.eta2(ctx, c, a, b, d))
    nonzero = combo.any(axis=1)
    failures.extend(("ihx-ambient", colorings[i])
                    for i in np.flatnonzero(nonzero))
    ihx_ok = int(np.sum(~nonzero))
    # randomized relation instances against the generator-level formulas
    n_rel = 0
    for _ in range(200):
        a, b, c, d = (_rand_vec(g, rng) for _ in range(4))
        u, v, w = (_rand_vec(g, rng) for _ in range(3))
        cases = [
            ("ihx-sym", _formal_trace(ctx, _ihx_quads(a, b, c, d), sym=True)),
            ("ihx-as", _formal_trace(ctx, _ihx_quads(a, b, c, d))),
            ("as-flip",
             _formal_trace(ctx, [(a, b, c, d), (b, a, c, d)], sym=True)),
            ("square-tree-as", _formal_trace(ctx, [(a, b, a, b)])),
            ("odot-multilinear",
             _formal_trace(ctx, [(u, w, v, w)],
                           odots=[(u + v, w), (u, w), (v, w)])),
        ]
        for label, residue in cases:
            n_rel += 1
            if residue:
                failures.append((label, _dec(a) + _dec(b)))
    ok = not failures
    return ok, {"relation_instances": n_rel, "ihx_colorings": ihx_ok,
                "failures": failures[:5]}


def _check_levine(g, rng):
    sp = space(g)
    ctx = sp.ctx
    a = [np.asarray(ctx.basis_vector(i)) for i in range(g)]
    b = [np.asarray(ctx.basis_vector(g + i)) for i in range(g)]
    proj_kernel = sp.ker_projection("A")
    # the S^2(H') basis vector b'_i b'_j at [i, j]
    sym2 = np.eye(g * (g + 1) // 2, dtype=np.int64)[traces._pair_columns(g, 0)]
    # per (i, j): the one-handle element and the two-handle elements, from
    # one eta2 stack: (a_i, b_j | b_j, b_i), then (a_k, b_i | b_j, b_k)
    families = []
    for i in range(g):
        for j in range(g):
            if i == j:
                continue
            ks = [k for k in range(g) if k != j]
            rows = trees.eta2(ctx, [a[i]] + [a[k] for k in ks],
                              [b[j]] + [b[i]] * len(ks), [b[j]] * (1 + len(ks)),
                              [b[i]] + [b[k] for k in ks])
            one = dict(zip(ks, rows[1:]))
            two = [((k, k2), one[k] + one[k2])
                   for k in ks for k2 in ks if k2 >= k]
            families.append((i, j, rows[0], two))
    # every test on one stack; the loop reads the results in order, so the
    # witness is that of the first failing element
    one_handle = np.array([t1 for _, _, t1, _ in families])
    in_kernel = proj_kernel.contains_rows(one_handle)
    as_rows = traces.tr_as(sp, one_handle)
    every = np.vstack([row for _, _, t1, two in families
                       for row in [t1] + [t2 for _, t2 in two]])
    in_domain = sp.filtration(0, "A").contains_rows(every)
    traces_A = traces.tr_A(sp, every, check_domain=False)

    def trace_A(n):
        # n: the element's row of `every`, the count of elements checked
        # before it, since the loop stops at the first failure
        if not in_domain[n]:
            raise FiltrationError(
                "element is not in the A-side filtration level 0")
        return traces_A[n]

    checked = 0
    for (i, j, _, two), kernel_ok, as_row in zip(families, in_kernel,
                                                 as_rows):
        want = sym2[j, j]
        tr1 = trace_A(checked)
        if (not kernel_ok or as_row.any() or not np.array_equal(tr1, want)
                or not want.any()):
            return False, {"element": "one-handle, i=%d j=%d" % (i, j),
                           "trace": _dec(tr1)}
        checked += 1
        want2 = 2 * sym2[i, j]
        for key, _ in two:
            tr2 = trace_A(checked)
            if not np.array_equal(tr2, want2):
                return False, {"element": "two-handle %s" % str(key + (i, j)),
                               "trace": _dec(tr2)}
            checked += 1
    return True, {"elements_checked": checked,
                  "strictness_witness": "tr_A = b'_j b'_j != 0 on an element "
                                        "of the projection kernel"}


def _random_sym_matrix(g, rng):
    m = rng.integers(-3, 4, size=(g, g))
    return m + m.T


def _check_casson_bridge(g, rng):
    sp = space(g)
    f0_gens = np.flatnonzero((sp.leaves < g).any(axis=1))  # an A-leaf
    mats = np.array([_random_sym_matrix(g, rng) for _ in range(100)])
    # every (generator, S) instance at once, generators down, S across
    units = np.eye(len(sp.generators), dtype=np.int64)[f0_gens]
    qs = traces.tr_A(sp, sp.gen_matrix()[:, f0_gens].T)
    lhs = casson.mu_of_coeffs(sp, units, mats)
    rhs = casson.r_pairing(mats, qs)
    bad = np.argwhere(lhs != rhs)  # row-major: the first failing instance
    if len(bad):
        i, j = bad[0]
        return False, {"generator": str(sp.generators[f0_gens[i]]),
                       "mu": str(lhs[i, j]), "pairing": str(rhs[i, j]),
                       "s": _dec(mats[j])}
    n_bridge = lhs.size
    # every (D_2 basis row, S) instance, from one generator expression;
    # the composite is counted in halves, so it is compared with 2 mu
    basis = sp.d2().basis
    coeffs = sp.express_in_generators(basis)
    mus = casson.mu_of_coeffs(sp, coeffs, mats[:10])
    halves = casson.half_omegaS_plus_delta(sp, coeffs, mats[:10])
    bad = np.argwhere(2 * mus != halves)
    if len(bad):
        i, j = bad[0]
        return False, {"element": _dec(basis[i]), "mu": str(mus[i, j]),
                       "composite": str(Fraction(int(halves[i, j]), 2))}
    return True, {"bridge_instances": n_bridge,
                  "composite_instances": mus.size}


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


def _check_quartic_vanishing(g, rng):
    sp = space(g)
    quads = list(itertools.combinations(range(2 * g), 4))
    expected_dim = comb(2 * g, 4)
    s = _random_sym_matrix(g, rng)
    rows = np.array([quartic_relation(sp, quad) for quad in quads])
    # every test on the whole stack; the loop reports the first failing
    # quad, with its first failing test
    images = safe_matmul(rows, sp.gen_matrix().T)
    qbars = casson.qbar_of_coeffs(sp, rows)
    mus = casson.mu_of_coeffs(sp, rows, s)
    for quad, image, qbar, mu in zip(quads, images, qbars, mus):
        if image.any():
            return False, {"quad": list(quad), "reason": "not a relation"}
        if qbar != 0:
            return False, {"quad": list(quad), "qbar": "nonzero"}
        if mu != 0:
            return False, {"quad": list(quad), "mu": "nonzero"}
    rank = IntegerLattice(len(sp.generators), rows).rank
    if rank != expected_dim:
        return False, {"rank": rank, "expected": expected_dim}
    return True, {"spanning_vectors": rank, "expected": expected_dim}


@lru_cache(maxsize=None)
def _double_kernel(g):
    """The intersection of ker tr_as and ker tr_A, built once per genus."""
    sp = space(g)
    return traces.ker_tr_as(sp).intersection(traces.ker_tr_A(sp))


@lru_cache(maxsize=None)
def _realizable_lattices(g):
    """Catalog size, catalog span and double trace kernel, built once per
    genus for the two checks that read them (the entries are not kept)."""
    sp = space(g)
    ents = catalogs.realizable_catalog_A(sp)
    target = _double_kernel(g)
    lat = catalogs.catalog_lattice(sp, ents, target=target)
    return sp, len(ents), lat, target


def _check_realizable_kernel(g, rng):
    sp, size, lat, target = _realizable_lattices(g)
    included = target.membership(lat.basis) is not None
    equal = lat == target
    wit = {"catalog_size": size, "catalog_rank": lat.rank,
           "kernel_rank": target.rank, "included": included, "equal": equal}
    if g < 4:
        if equal:
            wit["observed_index"] = "1"
        return ("observed" if included else "fail"), wit
    return included and equal, wit


def _check_realizable_sum(g, rng):
    sp, _, lat, _ = _realizable_lattices(g)
    ka = traces.ker_tr_as(sp)
    moved = catalogs._transform_rows(sp.ctx, iota_matrix(g), lat.basis, 3)
    total = lat.sum(IntegerLattice(sp.ambient_dim, moved))
    equal = total == ka
    wit = {"sum_rank": total.rank, "ker_as_rank": ka.rank, "equal": equal}
    if g < 4:
        return "observed", wit
    return equal, wit


def _check_goeritz_degree1(g, rng):
    sp = space(g)
    orb = catalogs.goeritz_tau1_lattice(sp)
    mw = catalogs.mixed_wedge_lattice(sp)
    expected = comb(2 * g, 3) - 2 * comb(g, 3)
    ok = orb == mw and orb.rank == expected
    return ok, {"orbit_rank": orb.rank, "expected_rank": expected,
                "equals_mixed_wedge": orb == mw}


def _check_goeritz_kernel(g, rng):
    sp = space(g)
    target = _double_kernel(g).intersection(traces.ker_tr_B(sp))
    lat = catalogs.goeritz_tau2_lattice(sp)
    included = target.membership(lat.basis) is not None
    equal = lat == target
    wit = {"catalog_rank": lat.rank, "kernel_rank": target.rank,
           "included": included, "equal": equal}
    if g < 4:
        return ("observed" if included else "fail"), wit
    return included and equal, wit


def _check_core_values(g, rng):
    vals = {h: casson.d_core(h) for h in range(1, 6)}
    ok = vals[1] == 0 and vals[2] == 8 and all(
        vals[h] == 4 * h * (h - 1) for h in vals)
    return ok, {"d_core": {str(h): v for h, v in vals.items()}}


# -- registry ------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    id: str
    anchor: str
    fn: object
    genera: tuple            # genera where the check runs
    estimate: dict           # genus -> rough wall seconds, for budgeting


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


def run_check(check_id: str, genus: int, seed: int = 0,
              budget_left: float | None = None) -> CheckReport:
    entry = CHECKS[check_id]
    if genus not in entry.genera:
        return CheckReport(entry.id, entry.anchor, genus, "skipped",
                           {"reason": "not applicable at this genus"})
    if budget_left is not None and entry.estimate.get(genus, 0) > budget_left:
        return CheckReport(entry.id, entry.anchor, genus, "skipped",
                           {"reason": "budget"})
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    try:
        status, witness = entry.fn(genus, rng)
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
