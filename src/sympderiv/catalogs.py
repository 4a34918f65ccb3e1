"""Explicit generating families inside the degree-2 derivation lattice.

Three catalogs are built here, all with exact integer coordinates:

* the Johnson catalog: symmetric halves u(.)v with omega(u,v) = 1 and
  genus-2 bounding-curve trees, colored by short integral vectors
  (e_p and e_p +- e_q, and optionally three-term sums);
* the handlebody-realizable catalog R_g: bounding-curve images for curves
  that are meridian-bounding on the A-side, together with brackets of
  degree-1 tripods having at least one A-colored leaf;
* the Goeritz catalogs: a degree-1 orbit seed and a degree-2 family of
  two-sided elements, closed under the integral symplectic transformations
  that preserve both Lagrangians (GL(g,Z) block-embedded, and the quarter
  turn iota).

A catalog is its row values only: a stream of row blocks built as they
are pulled (``BlockStream``), which a lattice reads block by block, so
that no catalog or seed is ever held whole; the Johnson candidates are
deduplicated up to sign on the wedge coordinates of their pairs, before
any row is built.  Every degree-2 row is a signed sum
of generator columns: eta2(a, b | c, d) depends on its leaves only through
the wedge coordinates of a^b and c^d over the basis pairs P, and is
sum_{P,Q} (a^b)_P (c^d)_Q tree(P, Q).  The rows are read that way, as
(row, generator, weight) triplets that ``DerivationSpace.gen_rows``
scatters, instead of through Lie brackets; a tripod bracket reads its
basis pairs straight from the letter indices.

The degree-2 rows, their spans and orbit closure live in Z^r over D_2's
HNF basis, where each Goeritz symmetry acts as one r x r integer matrix,
read from the generators with their leaves moved.  The degree-1 orbit
closure runs in Lambda^3 H coordinates, where a symmetry acts by the
minors of the moved tripod letters.  No element of H (x) L_k is moved by
m (x) L_k(m).  ``catalog_lattice`` builds a catalog's span batch by batch:
a sparse batch goes straight into the HNF loop, of a dense one only the
remainders of the rows not yet in the span.
"""

import itertools

import numpy as np

from .trees import TREE_BRACKET_SIGN, eta1
from .derivspace import DerivationSpace, gl_embed
from .freelie import iota_matrix
from .intlin import (BLOCK, IntegerLattice, cached, narrowed, runs,
                     safe_einsum, safe_matmul)


# Johnson candidates or tripod pairs per built block: bounds the rows built
# at once, and so the peak memory of catalog building
CHUNK = 128
BATCH = 256  # the least rows of a catalog batch (``_batches``)
MAX_ROUNDS = 20  # rounds before ``orbit_closure`` gives up

# A catalog batch whose rows average fewer than SPARSE_ROW nonzeros goes
# into the HNF loop untested (``catalog_lattice``).  The membership test
# costs about 9 us a row at width 336, however sparse the row; the HNF loop
# reduces a redundant row of 1-2 nonzeros in 2-4 us, but fills in the dense
# rows of a Johnson batch.  Nonzeros per row at genus 3-5: realizable
# catalog 1.6-2.0, tripod brackets 1.5-1.7 (1.3-2.1 per batch); Johnson
# 9.3-14.0 (3.9-20.6 per batch).  Genus-4 spans, tested -> untested:
# realizable 22 -> 11 ms, brackets 17 -> 10 ms, Johnson 335 -> 570 ms
# (genus 3: 34 -> 23 ms, but its batches stay tested as at every genus).
SPARSE_ROW = 3


def _chunks(n):
    return [slice(i, i + CHUNK) for i in range(0, n, CHUNK)]


class SymplecticFamilyError(ValueError):
    """Raised when a proposed curve system fails the omega-orthogonality test."""


class BlockStream:
    """An iterator over the row blocks of a catalog that counts the rows it
    has handed out; ``len`` is that count, the catalog's size once every
    block has been pulled."""

    def __init__(self, blocks):
        self._blocks = iter(blocks)
        self.rows = 0

    def __iter__(self):
        return self

    def __next__(self):
        block = next(self._blocks)
        self.rows += len(block)
        return block

    def __len__(self):
        return self.rows


# -- rows from wedge coordinates -----------------------------------------

def _wedge(sp: DerivationSpace, x, y):
    """Wedge coordinates x_p y_q - x_q y_p of two leaf stacks, over the
    basis pairs (p, q), p < q; exact, as each product is under 2**62 in
    magnitude when int64."""
    p, q = np.array(sp.pairs).T
    xy = safe_einsum("mp,mq->mpq", x, y)
    return xy[:, p, q] - xy[:, q, p]


def _tree_terms(sp: DerivationSpace, w1, w2, half=False):
    """(row, generator, weight) triplets, one row per row of the wedge
    stacks w1 = a^b and w2 = c^d: eta2(a, b | c, d), which is
    sum_{P,Q} (w1)_P (w2)_Q tree(P, Q) over the nonzeros of both.  With
    ``half`` (w1 = w2 = u^v, w), the symmetric half u(.)v:
    sum_P w_P^2 odot(P) + sum_{P<Q} w_P w_Q tree(P, Q)."""
    r1, p = np.nonzero(w1)
    r2, q = np.nonzero(w2)
    # each nonzero of w1 against every nonzero of w2 in its row
    lo = np.searchsorted(r2, r1)
    i, j = runs(lo, np.searchsorted(r2, r1, side="right") - lo)
    tree, odot = sp.pair_tables()
    if half:
        keep = p[i] <= q[j]
        i, j, tree = i[keep], j[keep], odot
    return (r1[i], tree[p[i], q[j]],
            safe_einsum("t,t->t", w1[r1, p][i], w2[r2, q][j]))


# -- bounding-curve images -----------------------------------------------

def bscc_image(sp: DerivationSpace, pairs):
    """Image of a twist along a curve bounding a subsurface with symplectic
    system ``pairs``: sum of u_i(.)v_i plus all cross trees.  Each u_i and
    v_i is a stack of vectors, and the images are one row per curve.

    Requires omega(u_i, v_j) = delta_ij and omega(u_i, u_j) = omega(v_i, v_j) = 0.
    """
    w = sp.ctx.omega
    for i, (u1, v1) in enumerate(pairs):
        for j, (u2, v2) in enumerate(pairs):
            if ((w(u1, v2) != (i == j)).any()
                    or w(u1, u2).any() or w(v1, v2).any()):
                raise SymplecticFamilyError(
                    "pairs %d,%d are not omega-orthonormal" % (i, j))
    wedges = [_wedge(sp, u, v) for u, v in pairs]
    terms = [_tree_terms(sp, x, x, half=True) for x in wedges]
    terms += [_tree_terms(sp, x, y)
              for x, y in itertools.combinations(wedges, 2)]
    return sp.gen_rows(len(wedges[0]),
                       *(np.concatenate(x) for x in zip(*terms)))


# -- tripod inventories --------------------------------------------------

def basis_tripods(g, side=None):
    """Triples p < q < r of letters.  side='A' keeps those with an A-leaf,
    side='mixed' those with both an A-leaf and a B-leaf."""
    out = []
    for t in itertools.combinations(range(2 * g), 3):
        n_a = sum(1 for p in t if p < g)
        if side == "A" and n_a == 0:
            continue
        if side == "mixed" and n_a in (0, 3):
            continue
        out.append(t)
    return out


def tripod_bracket_entries(sp: DerivationSpace, side):
    """Brackets of all distinct pairs s < t of basis tripods from the side,
    in ``itertools.combinations`` order: a ``BlockStream`` of int64 rows,
    one block per CHUNK pairs, built as pulled, zero brackets dropped.  A
    bracket sums TREE_BRACKET_SIGN omega(s_i, t_j) eta2(s_{i+1}, s_{i+2} |
    t_{j+1}, t_{j+2}) over the nine contractions i, j.  The letters of a
    tripod increase, so each remaining pair is one basis pair, of sign -1
    at i = 1, (s_2, s_0), else +1, and each contraction is one tree(P, Q)."""
    tripods = np.array(basis_tripods(sp.g, side))
    s, t = np.triu_indices(len(tripods), 1)  # combinations order
    # the basis pair left by contracting letter i of each tripod
    rest = sp.pair_index[tripods[:, [1, 2, 0]], tripods[:, [2, 0, 1]]]
    i, j = np.divmod(np.arange(9), 3)  # the nine contractions
    sign = TREE_BRACKET_SIGN * np.outer([1, -1, 1], [1, -1, 1]).ravel()
    tree, _ = sp.pair_tables()

    def block(c):
        w = sign * iota_matrix(sp.g)[tripods[s[c]][:, i], tripods[t[c]][:, j]]
        row, k = np.nonzero(w)
        vals = sp.gen_rows(len(w), row, tree[rest[s[c][row], i[k]],
                                             rest[t[c][row], j[k]]], w[row, k])
        return vals[vals.any(axis=1)]
    return BlockStream(map(block, _chunks(len(s))))


# -- the handlebody-realizable catalog -----------------------------------

def realizable_catalog_A(sp: DerivationSpace):
    """The family R_g as a ``BlockStream``: three blocks of bounding-curve
    images for A-meridian-bounding curves, then the blocks of brackets of
    tripods that each carry an A-leaf (``tripod_bracket_entries``)."""
    g = sp.g
    e = np.eye(2 * g, dtype=np.int64)
    a, b = e[:g], e[g:]
    p, q = np.array(list(itertools.combinations(range(g), 2))).T
    # the other single-pair curves, over the ordered pairs i != l
    perm = list(itertools.permutations(range(g), 2))
    curves = ([(a[i] - a[l], b[i]) for i, l in perm]
              + [c for i, l in perm
                 for c in ((a[i] - b[l], a[l]), (a[l], a[i] + b[l]))]
              + [c for i, l in perm
                 for c in ((a[i] + a[l], b[l] + a[i]), (a[l], b[l] + a[i]))])
    u, v = map(np.array, zip(*curves))
    return BlockStream(itertools.chain(
        [bscc_image(sp, [(a, b)]),
         bscc_image(sp, [(a[p], b[p]), (a[q], b[q])]),
         bscc_image(sp, [(u, v)])],
        tripod_bracket_entries(sp, side="A")))


# -- the Johnson catalog -------------------------------------------------

def _color_set(g, three_term=False):
    basis = [np.eye(2 * g, dtype=np.int64)[p] for p in range(2 * g)]
    colors = list(basis)
    for p, q in itertools.combinations(range(2 * g), 2):
        colors.append(basis[p] + basis[q])
        colors.append(basis[p] - basis[q])
    if three_term:
        for p, q, r in itertools.combinations(range(2 * g), 3):
            for sq, sr in itertools.product((1, -1), repeat=2):
                colors.append(basis[p] + sq * basis[q] + sr * basis[r])
    return colors


def _johnson_rows(sp, w, h, k, l):
    """The rows of the halves over the wedges w[h], then of the trees over
    the wedge pairs (w[k], w[l]), CHUNK candidates at a time."""
    for c in _chunks(len(h)):
        x = w[h[c]]
        yield sp.gen_rows(len(x), *_tree_terms(sp, x, x, half=True))
    for c in _chunks(len(k)):
        yield sp.gen_rows(len(k[c]), *_tree_terms(sp, w[k[c]], w[l[c]]))


def johnson_catalog(sp: DerivationSpace, three_term=False):
    """Symmetric halves and genus-2 bounding trees with short integral colors,
    as a ``BlockStream`` of int64 row blocks built as they are pulled.

    Emits every u(.)v with omega(u, v) = 1 and every tree on a pair of
    omega-orthonormal pairs, colors drawn from {e_p, e_p +- e_q} (plus
    three-term sums when ``three_term``), deduplicated up to sign before
    any row is built, each block CHUNK kept candidates.

    A candidate's row depends on its colors only through the wedges w = u^v
    of its pairs: a half is quadratic in w, so w and -w give one row; a
    tree is bilinear and symmetric in its two wedges (``pair_tables``).  So
    the symplectic pairs, in ``itertools.combinations`` order of colors,
    fall into classes keyed by w times the sign of its first nonzero, and
    the halves kept are those of each class's first pair h, in order.  As
    u^v fixes the plane span{u, v}, two classes' pairs are all
    omega-orthogonal or none, and none is orthogonal to its own class: the
    trees kept are those of the orthogonal h_a < h_b in row-major order,
    each its class pair's first among all pairs of pairs, losing no row.
    """
    colors = np.array(_color_set(sp.g, three_term))
    gram = safe_matmul(safe_matmul(colors, iota_matrix(sp.g)), colors.T)
    i, j = np.triu_indices(len(colors), 1)  # itertools.combinations order
    sympl = np.abs(gram[i, j]) == 1
    i, j = i[sympl], j[sympl]
    u, v = np.where(gram[i, j] == 1, i, j), np.where(gram[i, j] == 1, j, i)
    w = _wedge(sp, colors[u], colors[v])  # of each symplectic pair
    first = w[np.arange(len(w)), np.argmax(w != 0, axis=1)]
    h = np.sort(np.unique(w * np.sign(first)[:, None], axis=0,
                          return_index=True)[1])
    free = (gram[u[h]] == 0) & (gram[v[h]] == 0)  # colors orthogonal to h
    a, b = np.nonzero(np.triu(free[:, u[h]] & free[:, v[h]], 1))
    return BlockStream(_johnson_rows(sp, w, h, h[a], h[b]))


# -- lattices from catalogs ----------------------------------------------

def _batches(blocks):
    """Consecutive row blocks stacked until each stack holds at least BATCH
    rows (the last may hold fewer, but none is empty), pulling each block
    only when a stack needs it."""
    pending, size = [], 0
    for block in filter(len, blocks):
        pending.append(block)
        size += len(block)
        if size >= BATCH:
            yield pending[0] if len(pending) == 1 else np.vstack(pending)
            pending, size = [], 0
    if pending:
        yield np.vstack(pending)


def _sparse(batch):
    """Whether a batch's rows average fewer than SPARSE_ROW nonzeros."""
    return np.count_nonzero(batch) < SPARSE_ROW * len(batch)


def catalog_lattice(sp: DerivationSpace, blocks):
    """Integer span in Z^(sp.rank) of catalog rows, given as an iterable of
    row blocks, stacked at least BATCH rows at a time (``_batches``).

    Every row is pulled.  A run of consecutive sparse batches (``_sparse``)
    goes untested into one HNF loop with the span so far, each batch read
    into it as pulled (``IntegerLattice.sum`` of an iterator), so the run
    is never stacked.  Of a dense batch, only its rows outside the span so
    far join it, through one lattice sum, as their remainders
    (``IntegerLattice.remainders``), each zero at every unit pivot.
    """
    lat = IntegerLattice(sp.rank)
    for sparse, run in itertools.groupby(_batches(blocks), _sparse):
        if sparse:
            lat = lat.sum(run)
            continue
        for batch in run:
            new = lat.remainders(batch)
            if len(new):
                lat = lat.sum(new)
    return lat


# -- Goeritz catalogs ----------------------------------------------------

def gl_generators(g):
    """Standard generating matrices of GL(g, Z)."""
    eye = np.eye(g, dtype=np.int64)
    gens = []
    neg = eye.copy()
    neg[0, 0] = -1
    gens.append(neg)
    if g >= 2:
        swap = eye.copy()
        swap[[0, 1]] = swap[[1, 0]]
        gens.append(swap)
        cyc = eye[list(range(1, g)) + [0]]
        gens.append(cyc)
        trans = eye.copy()
        trans[0, 1] = 1
        gens.append(trans)
    return gens


@cached
def goeritz_symmetries(g):
    """Homology matrices generating the split-preserving symmetries used for
    orbit closures: the GL(g, Z) block embedding, then the quarter turn, as
    a tuple of read-only matrices."""
    return (*(gl_embed(g, p) for p in gl_generators(g)), iota_matrix(g))


@cached
def coordinate_action(sp: DerivationSpace, i: int) -> np.ndarray:
    """The degree-2 action of ``goeritz_symmetries(g)[i]``, i >= 0, as a
    read-only r x r integer matrix on D_2 coordinates, ``narrowed`` (its
    entries are at most 2), acting on rows from the right.  eta2 uses no
    omega, so m moves a generator by moving its leaves:
    m eta2(a, b | c, d) = eta2(ma, mb | mc, md), and m (p (.) q) =
    (m e_p) (.) (m e_q), as 2 u (.) v = eta2(u, v | u, v) and D_2 is
    torsion-free.  With G_m the moved generators, one row each, and U the
    generator coefficients of the unit rows, which are the transform of
    ``generator_span`` (``d2`` checks it), the matrix is U G_m."""
    m = goeritz_symmetries(sp.g)[i]
    n_odot = len(sp.pairs)
    a, b, c, d = m[:, sp.leaves].T  # the moved leaves, one row per generator
    ab = _wedge(sp, a, b)
    half = _tree_terms(sp, ab[:n_odot], ab[:n_odot], half=True)
    row, gen, weight = _tree_terms(sp, ab[n_odot:],
                                   _wedge(sp, c[n_odot:], d[n_odot:]))
    moved = sp.gen_rows(len(sp.leaves), *(
        np.concatenate(x) for x in zip(half, (row + n_odot, gen, weight))))
    sp.d2()
    return narrowed(safe_matmul(sp.generator_span(False)[1], moved))


def coordinate_actions(sp: DerivationSpace) -> list:
    """``coordinate_action`` of every Goeritz symmetry, in order."""
    return [coordinate_action(sp, i)
            for i in range(len(goeritz_symmetries(sp.g)))]


def orbit_closure(seed_rows, actions):
    """Saturate the span of seed_rows, a stack or a stream of row blocks,
    under the given integer matrices, each acting on rows from the right.

    Semi-naive: each round moves only the frontier, the rows that entered
    the lattice in the previous round, since the images of the older part
    are already inside.  The lattice after every round, and so the number
    of rounds, is that of moving the whole basis each time.  The moved rows
    are tested against the lattice as many matrices at a time as fit in
    BLOCK entries, and each block's are formed by one product (``_moved``),
    in the order of one product per matrix.
    """
    lat = IntegerLattice(len(actions[0]), seed_rows)
    frontier = lat.basis
    for _ in range(MAX_ROUNDS):
        # one test per block; genus 4: tau_1 6 ms, 12 ms with a test per
        # matrix; tau_2, whose first frontier fills a block, 32 ms, 38 ms
        # with one test of all of a round's moved rows.  One product per
        # block, the matrices side by side (medians of 5 processes, under
        # the float64 products): genus 4 tau_1 4.0 ms, 4.5 ms with one per
        # matrix; genus 3 tau_1 2.0 and tau_2 4.5 ms, 2.3 and 4.7 ms
        per = max(1, BLOCK // max(1, frontier.size))
        moved = (_moved(frontier, actions[i:i + per])
                 for i in range(0, len(actions), per))
        frontier = np.vstack([rows[~lat.contains_rows(rows)]
                              for rows in moved])
        if not len(frontier):
            return lat
        lat = lat.sum(frontier)
    raise RuntimeError("orbit closure did not stabilize")


def _moved(rows, actions):
    """The rows moved by each square action in turn, stacked, from one
    product with the actions side by side."""
    n = rows.shape[1]
    out = safe_matmul(rows, np.hstack(actions))
    return out.reshape(len(rows), len(actions), n).swapaxes(0, 1).reshape(
        -1, n)


def _tripod_action(sp: DerivationSpace, m):
    """m on Lambda^3 H coordinates over ``basis_tripods(g)``, acting on
    rows from the right: its third compound matrix.  Row S holds
    m e_s1 ^ m e_s2 ^ m e_s3 over the tripods T, the 3 x 3 minors of the
    moved letters x, y, z at T, each expanded along x as
    x_t1 (y^z)_t2t3 - x_t2 (y^z)_t1t3 + x_t3 (y^z)_t1t2."""
    t = np.array(basis_tripods(sp.g))
    x, y, z = m[:, t].T
    rest = sp.pair_index[t[:, [1, 0, 0]], t[:, [2, 2, 1]]]
    return safe_einsum("stk,stk->st", x[:, t] * np.array([1, -1, 1]),
                       _wedge(sp, y, z)[:, rest])


def goeritz_tau1_lattice(sp: DerivationSpace):
    """Orbit closure of the seed tripod (a1, b1, b2) in degree 1, run in
    Lambda^3 H coordinates, each symmetry acting as ``_tripod_action``;
    eta1 uses no omega, so it maps the closure into H (x) L_2 once."""
    tripods = basis_tripods(sp.g)
    seed = np.eye(len(tripods), dtype=np.int64)[
        tripods.index((0, sp.g, sp.g + 1))]
    lat = orbit_closure([seed], [_tripod_action(sp, m)
                                 for m in goeritz_symmetries(sp.g)])
    return IntegerLattice(2 * sp.g * sp.ctx.dim(2), safe_matmul(
        lat.basis, eta1(sp.ctx, *np.array(tripods).T)))


def mixed_wedge_lattice(sp: DerivationSpace):
    """Span of the degree-1 tripods with at least one leaf on each side."""
    leaves = np.array(basis_tripods(sp.g, "mixed")).T
    return IntegerLattice(2 * sp.g * sp.ctx.dim(2), eta1(sp.ctx, *leaves))


def goeritz_tau2_entries(sp: DerivationSpace):
    """Degree-2 elements fixing both sides, one coordinate row each, as a
    ``BlockStream``: the two bounding-curve values, the mixed-tripod
    brackets, and two first-round orbit shifts (by the shear, the last
    GL(g, Z) generator, then the quarter turn)."""
    g = sp.g
    e = np.eye(2 * g, dtype=np.int64)
    a, b = e[:g], e[g:]
    *_, shear, iota = coordinate_actions(sp)
    base = bscc_image(sp, [(a[:1], b[:1])])  # a1 (.) b1
    shift = safe_matmul(base, shear) - base
    return BlockStream(itertools.chain(
        [base, bscc_image(sp, [(a[:1], b[:1]), (a[1:2], b[1:2])])],
        tripod_bracket_entries(sp, side="mixed"),
        [shift, safe_matmul(shift, iota)]))


def goeritz_tau2_lattice(sp: DerivationSpace):
    """Orbit closure in Z^r of the degree-2 two-sided family."""
    return orbit_closure(goeritz_tau2_entries(sp), coordinate_actions(sp))
