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
pulled, so that the whole catalog is never held at once.
``catalog_lattice`` decides a span with a known target in the target's
coordinates until the span is the whole target, and tests every later row
for membership in it.
"""

import itertools

import numpy as np

from .freelie import SymplecticContext
from .trees import (_stacks, eta1, eta2, expand_symhalf, hl_zero,
                    tree_bracket)
from .derivspace import (DerivationSpace, gl_embed, iota_matrix,
                         lie_degree_matrix)
from .intlin import IntegerLattice, safe_matmul


# candidates expanded per batch: bounds the temporaries of a stacked
# expansion, and so the peak memory of catalog building
CHUNK = 128


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


# -- bounding-curve images -----------------------------------------------

def bscc_image(ctx: SymplecticContext, pairs):
    """Image of a twist along a curve bounding a subsurface with symplectic
    system ``pairs``: sum of u_i(.)v_i plus all cross trees.  Each u_i and
    v_i is a vector, or a stack giving one row per curve.

    Requires omega(u_i, v_j) = delta_ij and omega(u_i, u_j) = omega(v_i, v_j) = 0.
    """
    stacks, single = _stacks(*(x for pair in pairs for x in pair))
    pairs = list(zip(stacks[::2], stacks[1::2]))
    w = ctx.omega
    for i, (u1, v1) in enumerate(pairs):
        for j, (u2, v2) in enumerate(pairs):
            if ((w(u1, v2) != (i == j)).any()
                    or w(u1, u2).any() or w(v1, v2).any()):
                raise SymplecticFamilyError(
                    "pairs %d,%d are not omega-orthonormal" % (i, j))
    out = hl_zero(ctx, 3)
    for u, v in pairs:
        out = out + expand_symhalf(ctx, u, v)
    for (u1, v1), (u2, v2) in itertools.combinations(pairs, 2):
        out = out + eta2(ctx, u1, v1, u2, v2)
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
    one row each, expanded in chunks of CHUNK pairs; zero brackets are
    skipped."""
    e = np.eye(sp.ctx.n, dtype=np.int64)
    pairs = list(itertools.combinations(basis_tripods(sp.g, side), 2))
    leaves = e[np.array(pairs).reshape(len(pairs), 6).T]
    vals = np.vstack([tree_bracket(sp.ctx, x[:3], x[3:]) for x in np.split(
        leaves, range(CHUNK, len(pairs), CHUNK), axis=1)])
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
    return np.vstack([bscc_image(sp.ctx, [(a, b)]),
                      bscc_image(sp.ctx, [(a[p], b[p]), (a[q], b[q])]),
                      bscc_image(sp.ctx, [(u, v)]),
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


def _unique_blocks(ctx, seen, colors, cands, expand):
    """Blocks of the expansions of colors[cands] (leaf tuples) that are new
    up to sign, in order: one block per CHUNK candidates, none when all of
    them are old.  ``seen`` holds the bytes of each kept row times the sign
    of its first nonzero entry, as int8 when every entry fits (a key's
    length tells its dtype, so equal keys are equal rows)."""
    for start in range(0, len(cands), CHUNK):
        chunk = colors[cands[start:start + CHUNK]]
        vals = expand(ctx, *chunk.transpose(1, 0, 2))
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


def _johnson_blocks(ctx, g, three_term):
    colors = np.array(_color_set(g, three_term))
    gram = safe_matmul(safe_matmul(colors, iota_matrix(g)), colors.T)
    i, j = np.triu_indices(len(colors), 1)  # itertools.combinations order
    w = gram[i, j]
    sympl = np.abs(w) == 1
    u = np.where(w == 1, i, j)[sympl]
    v = np.where(w == 1, j, i)[sympl]
    seen = set()
    yield from _unique_blocks(ctx, seen, colors, np.column_stack([u, v]),
                              expand_symhalf)
    # pairs of pairs k < l whose four cross omegas vanish, in row-major
    # (k, l) order, for CHUNK values of k at a time
    quads = []
    for start in range(0, len(u), CHUNK):
        ks = np.arange(start, min(start + CHUNK, len(u)))
        ok = ((gram[np.ix_(u[ks], u)] == 0) & (gram[np.ix_(u[ks], v)] == 0)
              & (gram[np.ix_(v[ks], u)] == 0) & (gram[np.ix_(v[ks], v)] == 0)
              & (np.arange(len(u)) > ks[:, None]))
        k, l = np.nonzero(ok)
        k = ks[k]
        quads.append(np.column_stack([u[k], v[k], u[l], v[l]]))
    yield from _unique_blocks(ctx, seen, colors, np.vstack(quads), eta2)


def johnson_catalog(sp: DerivationSpace, three_term=False):
    """Symmetric halves and genus-2 bounding trees with short integral colors,
    as a ``BlockStream`` of int64 row blocks built as they are pulled.

    Emits every u(.)v with omega(u, v) = 1 and every tree on a pair of
    omega-orthonormal pairs, colors drawn from {e_p, e_p +- e_q} (plus
    three-term sums when ``three_term``), deduplicated up to sign.  Every
    omega-test reads the Gram matrix of the colors.
    """
    return BlockStream(_johnson_blocks(sp.ctx, sp.g, three_term))


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
    identity.  After that, the later batches are only tested for
    membership in the target, with no further reduction.  A row is inside
    only if the exact check product of the target's ``membership`` confirms
    it; if one is not, the result is the ambient span of every row.
    """
    ambient = sp.ambient_dim
    if isinstance(blocks, np.ndarray):
        blocks = np.split(blocks, range(chunk, len(blocks), chunk))
    batches = _batches(blocks, chunk)
    lat = IntegerLattice(ambient)
    if target is not None:
        basis, r = target.basis, target.rank
        coords = IntegerLattice(r)
        saturated = False
        for batch in batches:
            if saturated and target.contains_rows(batch).all():
                continue
            y = None if saturated else target.membership(batch)
            if y is None:
                lat = IntegerLattice(ambient, np.vstack(
                    [safe_matmul(coords.basis, basis), batch]))
                break
            coords = IntegerLattice(r, np.vstack([coords.basis, y]))
            saturated = np.array_equal(coords.basis, np.eye(r, dtype=np.int64))
        else:
            return target if saturated else IntegerLattice(
                ambient, safe_matmul(coords.basis, basis))
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


def _transform_rows(ctx, m, rows, k):
    """Apply the degree-k homology action m (x) L_k(m) to a stack of
    H (x) L_k vectors, as two exact products: first L_k(m) on the Lie
    factor of every H-block, then m across the blocks."""
    rows = np.asarray(rows)
    n = len(rows)
    h = 2 * ctx.g
    dk = ctx.dim(k)
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
    for _ in range(max_rounds):
        # one membership test per matrix: stacking every moved row of the
        # round in one test held several times their size at once
        moved = (_transform_rows(ctx, m, frontier, k) for m in mats)
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
    base = expand_symhalf(ctx, a[0], b[0])
    shear = gl_embed(g, gl_generators(g)[-1])
    shift = _transform_rows(ctx, shear, [base], 3)[0] - base
    return np.vstack([bscc_image(ctx, [(a[0], b[0])]),
                      bscc_image(ctx, [(a[0], b[0]), (a[1], b[1])]),
                      tripod_bracket_entries(sp, side="mixed"),
                      shift,
                      _transform_rows(ctx, iota_matrix(g), [shift], 3)[0]])


def goeritz_tau2_lattice(sp: DerivationSpace):
    """Orbit closure of the degree-2 two-sided family."""
    return orbit_closure(sp.ctx, goeritz_tau2_entries(sp),
                         goeritz_symmetries(sp.g), 3)
