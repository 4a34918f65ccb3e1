"""Explicit generating families inside the degree-2 derivation lattice.

Three catalogs are built here, all with exact integer coordinates:

* the Johnson catalog: symmetric halves u(.)v with omega(u,v) = 1 and
  genus-2 bounding-curve trees, colored by short integral vectors;
* the handlebody-realizable catalog R_g: bounding-curve images for curves
  that are meridian-bounding on the A-side, together with brackets of
  degree-1 tripods having at least one A-colored leaf;
* the Goeritz catalogs: a degree-1 orbit seed and a degree-2 family of
  two-sided elements, closed under the integral symplectic transformations
  that preserve both Lagrangians (GL(g,Z) block-embedded, and the quarter
  turn iota).

Entries carry a printable name so certificates can cite the element that
witnessed a rank or membership claim.
"""

import itertools

import numpy as np

from .freelie import SymplecticContext
from .trees import eta1, eta2, expand_symhalf, hl_zero, tree_bracket
from .derivspace import (DerivationSpace, gl_embed, iota_matrix,
                         lie_degree_matrix)
from .intlin import IntegerLattice, safe_matmul


# candidates expanded per batch: bounds the temporaries of a stacked
# expansion, and so the peak memory of catalog building
CHUNK = 128


class SymplecticFamilyError(ValueError):
    """Raised when a proposed curve system fails the omega-orthogonality test."""


class CatalogEntry:
    """A named element of the degree-2 derivation lattice."""

    __slots__ = ("name", "description", "value")

    def __init__(self, name, description, value):
        self.name = name
        self.description = description
        self.value = np.asarray(value)

    def __repr__(self):
        return "CatalogEntry(%s)" % self.name


# -- vector helpers ------------------------------------------------------

def pretty_vector(ctx, vec):
    """Human-readable form of an H-vector, e.g. 'a1-b2'."""
    parts = []
    for p, c in enumerate(np.asarray(vec)):
        c = int(c)
        if c == 0:
            continue
        name = ctx.letter_name(p)
        if c == 1:
            parts.append("+" + name)
        elif c == -1:
            parts.append("-" + name)
        else:
            parts.append("%+d%s" % (c, name))
    if not parts:
        return "0"
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


# -- bounding-curve images -----------------------------------------------

def bscc_image(ctx: SymplecticContext, pairs):
    """Image of a twist along a curve bounding a subsurface with symplectic
    system ``pairs``: sum of u_i(.)v_i plus all cross trees.

    Requires omega(u_i, v_j) = delta_ij and omega(u_i, u_j) = omega(v_i, v_j) = 0.
    """
    w = ctx.omega
    pairs = [(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
             for u, v in pairs]
    for i, (u1, v1) in enumerate(pairs):
        for j, (u2, v2) in enumerate(pairs):
            if (w(u1, v2) != (1 if i == j else 0)
                    or w(u1, u2) != 0 or w(v1, v2) != 0):
                raise SymplecticFamilyError(
                    "pairs %d,%d are not omega-orthonormal" % (i, j))
    out = hl_zero(ctx, 3)
    for u, v in pairs:
        out = out + expand_symhalf(ctx, u, v)
    for (u1, v1), (u2, v2) in itertools.combinations(pairs, 2):
        out = out + eta2(ctx, u1, v1, u2, v2)
    return out


def _bscc_entry(ctx, pairs, label):
    desc = "bounding-curve image of " + "; ".join(
        "(%s, %s)" % (pretty_vector(ctx, u), pretty_vector(ctx, v))
        for u, v in pairs)
    return CatalogEntry(label, desc, bscc_image(ctx, pairs))


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


def _tripod_name(ctx, t):
    return "(" + ",".join(ctx.letter_name(p) for p in t) + ")"


def tripod_bracket_entries(sp: DerivationSpace, side):
    """Brackets of all distinct pairs of basis tripods from the given side,
    expanded in chunks of CHUNK pairs; zero brackets are skipped."""
    ctx = sp.ctx
    e = np.eye(ctx.n, dtype=np.int64)
    pairs = list(itertools.combinations(basis_tripods(sp.g, side), 2))
    entries = []
    for start in range(0, len(pairs), CHUNK):
        chunk = pairs[start:start + CHUNK]
        leaves = np.array([t1 + t2 for t1, t2 in chunk]).T
        vals = tree_bracket(ctx, e[leaves[:3]], e[leaves[3:]])
        for (t1, t2), val in zip(chunk, vals):
            if not val.any():
                continue
            name = "bracket[%s,%s]" % (_tripod_name(ctx, t1), _tripod_name(ctx, t2))
            entries.append(CatalogEntry(
                name, "bracket of degree-1 tripods", val.copy()))
    return entries


# -- the handlebody-realizable catalog -----------------------------------

def realizable_catalog_A(sp: DerivationSpace):
    """The family R_g: bounding-curve images for A-meridian-bounding curves
    plus brackets of tripods that each carry an A-leaf.
    """
    ctx = sp.ctx
    g = sp.g
    a = [np.asarray(ctx.basis_vector(i)) for i in range(g)]
    b = [np.asarray(ctx.basis_vector(g + i)) for i in range(g)]
    entries = []
    for i in range(g):
        entries.append(_bscc_entry(ctx, [(a[i], b[i])], "bscc:gamma_%d" % (i + 1)))
    for i, j in itertools.combinations(range(g), 2):
        entries.append(_bscc_entry(
            ctx, [(a[i], b[i]), (a[j], b[j])],
            "bscc:gamma_%d,%d" % (i + 1, j + 1)))
    for j in range(g):
        for l in range(g):
            if l == j:
                continue
            entries.append(_bscc_entry(
                ctx, [(a[j] - a[l], b[j])],
                "bscc:(a%d-a%d,b%d)" % (j + 1, l + 1, j + 1)))
    for i in range(g):
        for l in range(g):
            if l == i:
                continue
            entries.append(_bscc_entry(
                ctx, [(a[i] - b[l], a[l])],
                "bscc:(a%d-b%d,a%d)" % (i + 1, l + 1, l + 1)))
            entries.append(_bscc_entry(
                ctx, [(a[l], a[i] + b[l])],
                "bscc:(a%d,a%d+b%d)" % (l + 1, i + 1, l + 1)))
    for i in range(g):
        for k in range(g):
            if k == i:
                continue
            entries.append(_bscc_entry(
                ctx, [(a[i] + a[k], b[k] + a[i])],
                "bscc:(a%d+a%d,b%d+a%d)" % (i + 1, k + 1, k + 1, i + 1)))
            entries.append(_bscc_entry(
                ctx, [(a[k], b[k] + a[i])],
                "bscc:(a%d,b%d+a%d)" % (k + 1, k + 1, i + 1)))
    entries.extend(tripod_bracket_entries(sp, side="A"))
    return entries


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


def _unique_entries(ctx, seen, colors, cands, expand, name, description):
    """Entries for the rows of colors[cands] (leaf tuples) whose expansion
    is new up to sign, in order.  Expansions run in chunks of CHUNK
    candidates, and kept values are copied out of the chunk."""
    entries = []
    for start in range(0, len(cands), CHUNK):
        chunk = colors[cands[start:start + CHUNK]]
        for leaves, val in zip(chunk, expand(ctx, *chunk.transpose(1, 0, 2))):
            key = val.tobytes()
            if key in seen or (-val).tobytes() in seen:
                continue
            seen.add(key)
            entries.append(CatalogEntry(
                name % tuple(pretty_vector(ctx, x) for x in leaves),
                description, val.copy()))
    return entries


def johnson_catalog(sp: DerivationSpace, three_term=False):
    """Symmetric halves and genus-2 bounding trees with short integral colors.

    Emits every u(.)v with omega(u, v) = 1 and every tree on a pair of
    omega-orthonormal pairs, colors drawn from {e_p, e_p +- e_q} (plus
    three-term sums when ``three_term``), deduplicated up to sign.  Every
    omega-test reads the Gram matrix of the colors.
    """
    ctx = sp.ctx
    colors = np.array(_color_set(sp.g, three_term))
    gram = safe_matmul(safe_matmul(colors, iota_matrix(sp.g)), colors.T)
    i, j = np.triu_indices(len(colors), 1)  # itertools.combinations order
    w = gram[i, j]
    sympl = np.abs(w) == 1
    u = np.where(w == 1, i, j)[sympl]
    v = np.where(w == 1, j, i)[sympl]
    seen = set()
    entries = _unique_entries(
        ctx, seen, colors, np.column_stack([u, v]), expand_symhalf,
        "odot(%s,%s)", "symmetric half of a genus-1 bounding curve")
    # pairs of pairs k < l whose four cross omegas vanish
    quads = []
    for k in range(len(u)):
        l = np.arange(k + 1, len(u))
        l = l[(gram[u[k], u[l]] == 0) & (gram[u[k], v[l]] == 0)
              & (gram[v[k], u[l]] == 0) & (gram[v[k], v[l]] == 0)]
        quads.append(np.column_stack([np.full(len(l), u[k]),
                                      np.full(len(l), v[k]), u[l], v[l]]))
    entries += _unique_entries(
        ctx, seen, colors, np.vstack(quads), eta2,
        "tree(%s,%s|%s,%s)", "cross tree of a genus-2 bounding curve")
    return entries


# -- lattices from catalogs ----------------------------------------------

def catalog_lattice(sp: DerivationSpace, entries, target=None, chunk=256):
    """Integer span of the entry values.  With a ``target`` lattice the rows
    are absorbed in chunks and the scan stops as soon as the span equals the
    target (spans here typically saturate long before the list is exhausted).
    """
    ambient = sp.ambient_dim
    lat = IntegerLattice(ambient)
    rows = [e.value for e in entries]
    for start in range(0, len(rows), chunk):
        block = IntegerLattice(ambient, np.array(rows[start:start + chunk]))
        lat = lat.sum(block)
        if target is not None and lat == target:
            break
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
    """Degree-2 elements fixing both sides: the two bounding-curve values,
    mixed-tripod brackets, and two first-round orbit shifts."""
    ctx = sp.ctx
    g = sp.g
    a = [np.asarray(ctx.basis_vector(i)) for i in range(g)]
    b = [np.asarray(ctx.basis_vector(g + i)) for i in range(g)]
    entries = [
        _bscc_entry(ctx, [(a[0], b[0])], "bscc:gamma_1"),
        _bscc_entry(ctx, [(a[0], b[0]), (a[1], b[1])], "bscc:gamma_1,2"),
    ]
    entries.extend(tripod_bracket_entries(sp, side="mixed"))
    base = expand_symhalf(ctx, a[0], b[0])
    shear = gl_embed(g, gl_generators(g)[-1])
    shift = _transform_rows(ctx, shear, [base], 3)[0] - base
    entries.append(CatalogEntry(
        "shear(a1(.)b1)-a1(.)b1", "first-round orbit shift of a1(.)b1", shift))
    entries.append(CatalogEntry(
        "iota-image", "quarter-turn image of the orbit shift",
        _transform_rows(ctx, iota_matrix(g), [shift], 3)[0]))
    return entries


def goeritz_tau2_lattice(sp: DerivationSpace):
    """Orbit closure of the degree-2 two-sided family."""
    rows = [e.value for e in goeritz_tau2_entries(sp)]
    return orbit_closure(sp.ctx, rows, goeritz_symmetries(sp.g), 3)
