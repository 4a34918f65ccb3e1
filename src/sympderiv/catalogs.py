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

A catalog is its row values only: an int64 matrix with one element per
row, or, for the Johnson catalog, a stream of row blocks built as they are
pulled, so that the whole catalog is never held at once.  Every degree-2
row is a signed sum of generator columns: eta2(a, b | c, d) depends on its
leaves only through the wedge coordinates of a^b and c^d over the basis
pairs P, and is sum_{P,Q} (a^b)_P (c^d)_Q tree(P, Q).  The rows are read
that way, as (row, generator, weight) triplets that
``DerivationSpace.gen_rows`` scatters, instead of through Lie brackets.
``catalog_lattice`` decides a span with a known target in the target's
coordinates, reducing only the rows not yet in the span.
"""

import itertools

import numpy as np

from .trees import TREE_BRACKET_SIGN, _stacks, eta1
from .derivspace import (DerivationSpace, gl_embed, iota_matrix,
                         lie_degree_matrix, runs)
from .intlin import IntegerLattice, safe_einsum, safe_matmul


# Johnson candidates per block: bounds the rows built and deduplicated at
# once, and so the peak memory of catalog building
CHUNK = 128


def _chunks(n):
    return [slice(i, i + CHUNK) for i in range(0, n, CHUNK)]


class SymplecticFamilyError(ValueError):
    """Raised when a proposed curve system fails the omega-orthogonality test."""


class BlockStream:
    """An iterator over the row blocks of a catalog that counts the rows it
    has handed out; ``len`` is that count (the benchmark's tracer takes the
    length of what each catalog function returns)."""

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


def _tripod_brackets(sp: DerivationSpace, s, t):
    """Brackets of tripods s = (s1, s2, s3) and t = (t1, t2, t3), leaf stacks
    giving one row per pair: the sum over the nine omega-contractions of
    sign times omega(s_i, t_j) times eta2(s_{i+1}, s_{i+2} | t_{j+1},
    t_{j+2}), the contractions stacked and kept where omega is nonzero.
    Equals the derivation bracket of the eta1 images (see
    derivation_bracket)."""
    nrows = len(s[0])
    ij = [(i, j) for i in range(3) for j in range(3)]
    s = [np.concatenate([s[(i + k) % 3] for i, _ in ij]) for k in range(3)]
    t = [np.concatenate([t[(j + k) % 3] for _, j in ij]) for k in range(3)]
    w = TREE_BRACKET_SIGN * sp.ctx.omega(s[0], t[0])
    at = np.flatnonzero(w)
    m, gen, weight = _tree_terms(
        sp, safe_einsum("m,mP->mP", w[at], _wedge(sp, s[1][at], s[2][at])),
        _wedge(sp, t[1][at], t[2][at]))
    return sp.gen_rows(nrows, at[m] % nrows, gen, weight)


# -- bounding-curve images -----------------------------------------------

def bscc_image(sp: DerivationSpace, pairs):
    """Image of a twist along a curve bounding a subsurface with symplectic
    system ``pairs``: sum of u_i(.)v_i plus all cross trees.  Each u_i and
    v_i is a vector, or a stack giving one row per curve.

    Requires omega(u_i, v_j) = delta_ij and omega(u_i, u_j) = omega(v_i, v_j) = 0.
    """
    stacks, single = _stacks(*(x for pair in pairs for x in pair))
    pairs = list(zip(stacks[::2], stacks[1::2]))
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
    out = sp.gen_rows(len(stacks[0]),
                      *(np.concatenate(x) for x in zip(*terms)))
    return out[0] if single else out


# -- tripod inventories --------------------------------------------------

def basis_tripods(g, side=None):
    """Triples p < q < r of letters.  side='A' keeps those with an A-leaf,
    side='B' those with a B-leaf, side='mixed' those with both."""
    out = []
    for t in itertools.combinations(range(2 * g), 3):
        n_a = sum(1 for p in t if p < g)
        if side == "A" and n_a == 0:
            continue
        if side == "B" and n_a == 3:
            continue
        if side == "mixed" and n_a in (0, 3):
            continue
        out.append(t)
    return out


def tripod_bracket_entries(sp: DerivationSpace, side):
    """Brackets of all distinct pairs of basis tripods from the given side,
    one row each, built in chunks of CHUNK pairs; zero brackets are
    skipped."""
    e = np.eye(sp.ctx.n, dtype=np.int64)
    pairs = list(itertools.combinations(basis_tripods(sp.g, side), 2))
    leaves = e[np.array(pairs).reshape(len(pairs), 6).T]
    vals = _tripod_brackets(sp, leaves[:3], leaves[3:])
    return vals[vals.any(axis=1)]


# -- the handlebody-realizable catalog -----------------------------------

def realizable_catalog_A(sp: DerivationSpace):
    """The family R_g, one element per row: bounding-curve images for
    A-meridian-bounding curves plus brackets of tripods that each carry an
    A-leaf.
    """
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
    return np.vstack([bscc_image(sp, [(a, b)]),
                      bscc_image(sp, [(a[p], b[p]), (a[q], b[q])]),
                      bscc_image(sp, [(u, v)]),
                      tripod_bracket_entries(sp, side="A")])


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


def _unique_blocks(blocks):
    """The rows of each block that are new up to sign, in order, one block
    per block, none when all of its rows are old.  ``seen`` holds the bytes
    of each kept row times the sign of its first nonzero entry, as int8
    when every entry fits (a key's length tells its dtype, so equal keys
    are equal rows)."""
    seen = set()
    for vals in blocks:
        first = vals[np.arange(len(vals)), np.argmax(vals != 0, axis=1)]
        signed = vals * np.sign(first)[:, None]
        narrow = np.abs(signed).max(axis=1) < 128
        keys = [(row.astype(np.int8) if fits else row).tobytes()
                for row, fits in zip(signed, narrow)]
        keep = []
        for n, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                keep.append(n)
        if keep:
            yield vals[keep]


def _johnson_candidates(g, three_term):
    """The colors, the symplectic pairs (u[i], v[i]) of color indices with
    omega = 1, in ``itertools.combinations`` order, and the pairs of those
    pairs (k[i], l[i]), k < l, whose four cross omegas vanish, in row-major
    order; every omega-test reads the Gram matrix of the colors."""
    colors = np.array(_color_set(g, three_term))
    gram = safe_matmul(safe_matmul(colors, iota_matrix(g)), colors.T)
    i, j = np.triu_indices(len(colors), 1)  # itertools.combinations order
    w = gram[i, j]
    sympl = np.abs(w) == 1
    u = np.where(w == 1, i, j)[sympl]
    v = np.where(w == 1, j, i)[sympl]
    k, l = [], []
    for c in _chunks(len(u)):  # CHUNK values of k at a time
        ks = np.arange(len(u))[c]
        ok = ((gram[np.ix_(u[ks], u)] == 0) & (gram[np.ix_(u[ks], v)] == 0)
              & (gram[np.ix_(v[ks], u)] == 0) & (gram[np.ix_(v[ks], v)] == 0)
              & (np.arange(len(u)) > ks[:, None]))
        kc, lc = np.nonzero(ok)
        k.append(ks[kc])
        l.append(lc)
    return colors, u, v, np.concatenate(k), np.concatenate(l)


def _johnson_rows(sp, three_term):
    """The rows of the Johnson candidates, CHUNK at a time: the symmetric
    halves, then the trees."""
    colors, u, v, k, l = _johnson_candidates(sp.g, three_term)
    w = _wedge(sp, colors[u], colors[v])  # of each symplectic pair
    for c in _chunks(len(u)):
        yield sp.gen_rows(len(w[c]), *_tree_terms(sp, w[c], w[c], half=True))
    for c in _chunks(len(k)):
        yield sp.gen_rows(len(k[c]), *_tree_terms(sp, w[k[c]], w[l[c]]))


def johnson_catalog(sp: DerivationSpace, three_term=False):
    """Symmetric halves and genus-2 bounding trees with short integral colors,
    as a ``BlockStream`` of int64 row blocks built as they are pulled.

    Emits every u(.)v with omega(u, v) = 1 and every tree on a pair of
    omega-orthonormal pairs, colors drawn from {e_p, e_p +- e_q} (plus
    three-term sums when ``three_term``), deduplicated up to sign.  Each
    block is CHUNK candidates read from the wedge coordinates of their
    pairs, less the rows already seen.
    """
    return BlockStream(_unique_blocks(_johnson_rows(sp, three_term)))


# -- lattices from catalogs ----------------------------------------------

def _batches(blocks, n):
    """Consecutive row blocks stacked until each stack holds at least n rows
    (the last may hold fewer), pulling each block only when a stack needs
    it."""
    pending, size = [], 0
    for block in blocks:
        pending.append(block)
        size += len(block)
        if size >= n:
            yield pending[0] if len(pending) == 1 else np.vstack(pending)
            pending, size = [], 0
    if pending:
        yield np.vstack(pending)


def catalog_lattice(sp: DerivationSpace, blocks, target=None, chunk=256):
    """Integer span of catalog rows, given as one matrix or as an iterable
    of row blocks, taken ``chunk`` rows at a time.

    With a ``target`` lattice of rank r, each batch is solved over the
    target's basis, and the span is reduced in those rank-r coordinates,
    where it is the whole target exactly when its HNF is the r x r
    identity.  Only the coordinates of rows not yet in the span enter that
    reduction, so once the span is the whole target no row does.  A row is
    inside only if the exact check product of the target's ``membership``
    confirms it; if one is not, the result is the ambient span of every
    row.
    """
    ambient = sp.ambient_dim
    if isinstance(blocks, np.ndarray):
        blocks = np.split(blocks, range(chunk, len(blocks), chunk))
    batches = _batches(blocks, chunk)
    lat = IntegerLattice(ambient)
    if target is not None:
        basis, r = target.basis, target.rank
        coords = IntegerLattice(r)
        for batch in batches:
            y = target.membership(batch)
            if y is None:
                lat = IntegerLattice(ambient, np.vstack(
                    [safe_matmul(coords.basis, basis), batch]))
                break
            new = y[~coords.contains_rows(y)]
            if len(new):
                coords = IntegerLattice(r, np.vstack([coords.basis, new]))
        else:
            if np.array_equal(coords.basis, np.eye(r, dtype=np.int64)):
                return target
            return IntegerLattice(ambient, safe_matmul(coords.basis, basis))
    for batch in batches:
        lat = lat.sum(IntegerLattice(ambient, batch))
    return lat


def all_bracket_lattice(sp: DerivationSpace):
    """Span of brackets of every pair of degree-1 basis tripods."""
    return catalog_lattice(sp, tripod_bracket_entries(sp, side=None))


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


def goeritz_symmetries(g):
    """Homology matrices generating the split-preserving symmetries used for
    orbit closures: the GL(g, Z) block embedding and the quarter turn."""
    mats = [gl_embed(g, p) for p in gl_generators(g)]
    mats.append(iota_matrix(g))
    return mats


def _transform_rows(ctx, m, rows, k, lk=None):
    """Apply the degree-k homology action m (x) L_k(m) to a stack of
    H (x) L_k vectors, as two exact products: first L_k(m) on the Lie
    factor of every H-block, then m across the blocks.  ``lk`` is L_k(m)
    if the caller already holds it."""
    rows = np.asarray(rows)
    n = len(rows)
    h = 2 * ctx.g
    dk = ctx.dim(k)
    if lk is None:
        lk = lie_degree_matrix(ctx, m, k)
    lie = safe_matmul(rows.reshape(n * h, dk), lk.T)
    by_block = lie.reshape(n, h, dk).transpose(1, 0, 2).reshape(h, n * dk)
    out = safe_matmul(m, by_block)
    return out.reshape(h, n, dk).transpose(1, 0, 2).reshape(n, h * dk)


def orbit_closure(ctx, seed_rows, mats, k, max_rounds=20):
    """Saturate the span of seed_rows under the given homology matrices.

    Semi-naive: each round moves only the frontier, the rows that entered
    the lattice in the previous round, since the images of the older part
    are already inside.  The lattice after every round, and so the number
    of rounds, is that of moving the whole basis each time.
    """
    ambient = 2 * ctx.g * ctx.dim(k)
    lat = IntegerLattice(ambient, np.asarray(seed_rows))
    frontier = lat.basis
    lks = [lie_degree_matrix(ctx, m, k) for m in mats]
    for _ in range(max_rounds):
        # one membership test per matrix: stacking every moved row of the
        # round in one test held several times their size at once
        moved = (_transform_rows(ctx, m, frontier, k, lk)
                 for m, lk in zip(mats, lks))
        frontier = np.vstack([rows[~lat.contains_rows(rows)] for rows in moved])
        if not len(frontier):
            return lat
        lat = lat.sum(IntegerLattice(ambient, frontier))
    raise RuntimeError("orbit closure did not stabilize")


def goeritz_tau1_lattice(sp: DerivationSpace):
    """Orbit closure of the seed tripod (a1, b1, b2) in degree 1."""
    ctx = sp.ctx
    seed = eta1(ctx, ctx.basis_vector(0), ctx.basis_vector(sp.g),
                ctx.basis_vector(sp.g + 1))
    return orbit_closure(ctx, [seed], goeritz_symmetries(sp.g), 2)


def mixed_wedge_lattice(sp: DerivationSpace):
    """Span of the degree-1 tripods with at least one leaf on each side."""
    e = np.eye(sp.ctx.n, dtype=np.int64)
    leaves = e[np.array(basis_tripods(sp.g, "mixed")).T]
    return IntegerLattice(2 * sp.g * sp.ctx.dim(2), eta1(sp.ctx, *leaves))


def goeritz_tau2_entries(sp: DerivationSpace):
    """Degree-2 elements fixing both sides, one per row: the two
    bounding-curve values, mixed-tripod brackets, and two first-round orbit
    shifts."""
    ctx = sp.ctx
    g = sp.g
    e = np.eye(2 * g, dtype=np.int64)
    a, b = e[:g], e[g:]
    base = bscc_image(sp, [(a[0], b[0])])  # a1 (.) b1
    shear = gl_embed(g, gl_generators(g)[-1])
    shift = _transform_rows(ctx, shear, [base], 3)[0] - base
    return np.vstack([base,
                      bscc_image(sp, [(a[0], b[0]), (a[1], b[1])]),
                      tripod_bracket_entries(sp, side="mixed"),
                      shift,
                      _transform_rows(ctx, iota_matrix(g), [shift], 3)[0]])


def goeritz_tau2_lattice(sp: DerivationSpace):
    """Orbit closure of the degree-2 two-sided family."""
    return orbit_closure(sp.ctx, goeritz_tau2_entries(sp),
                         goeritz_symmetries(sp.g), 3)
