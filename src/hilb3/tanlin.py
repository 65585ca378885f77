"""Tangent dimension dim Hom_S(I, S/I) by syzygies and exact linear algebra.

For a zero-dimensional ideal I with generators g_1, ..., g_r, a
homomorphism I -> S/I is an r-tuple (h_1, ..., h_r) of classes killing
every syzygy of the generators: sum_j s_j h_j = 0 in S/I.  Expressing
each h_j in the standard monomial basis and each syzygy coefficient as a
multiplication matrix turns Hom into the kernel of a block matrix over
F_p, whose dimension equals the tangent dimension of the point [S/I] of
the Hilbert scheme.  Syzygies come from the recorded S-pair reductions
of a Groebner basis; these generate the whole syzygy module.  The block
matrix is never formed, nor any of its blocks: each coefficient's normal
form is split into terms, each distinct standard monomial's matrix is
listed once as COO entries (gfp.dense_entries), and every term gathers
those entries, offset to its block and scaled by its coefficient, into
one gfp.sparse_rank call, which peels singleton rows and columns exactly
before any dense elimination.  A box's Koszul coefficients all reduce to
zero, so its rank has no entries and costs no elimination at all.

hom_dim is the cross-check and shares no syzygy code with this route: it
reads the same dimension as the tangent space of the border-basis
scheme, an open subscheme of Hilb^d cut out by the commutators of the
multiplication matrices (Mourrain 1999; Kreuzer-Robbiano 2008).  Its
unknowns are the border polynomials' coefficients, its equations the
commutators linearised at the point, each a Sylvester map whose entries
come from gfp.sylvester_entries, and its rank from gfp.sparse_rank.
generator_syzygies, the syzygies of the given generators, serves
poly3.intersect.

For a monomial ideal the same Hom splits by weight into union-find
counts over the minimal generators (hom_dim_weight), on bitmasks: a
weight's unknowns are an alive mask over the generators, each condition
is the bit pair of a generator pair, the classes are disjoint masks
merged by the conditions and the forced zeros are ORed into one killed
mask.  mono_hom_dims computes every weight in one transposed pass:
staircase x generators gives each weight its alive mask, staircase x
generator lcms its conditions.  It keys the weights by integers it packs
from the heights (a mixed radix twice each extent, so a weight is the
difference of two packed monomials) and unpacks only the nonzero ones.
It is the graded cross-check of tancomb's bounded components and shares
no code or table with them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import gfp, poly3
from .errors import InvariantError
from .mono3 import MonomialIdeal3
from .poly3 import Exponent, Poly, PolyIdeal, reduce_full, s_poly


@dataclass
class SyzygySet:
    """Syzygies of a fixed generator list: each row s has sum s_j g_j = 0."""

    generators_used: tuple[Poly, ...]
    syzygies: tuple[tuple[Poly, ...], ...]


def schreyer_syzygies(basis: Sequence[Poly]) -> SyzygySet:
    """Syzygies of a degrevlex Groebner basis from its S-pair reductions.

    For each pair i < j the reduction of the S-polynomial to zero yields
    m_ij e_i - m_ji e_j - sum q_k e_k; these generate the syzygy module.
    """
    basis = tuple(basis)
    if not basis:
        return SyzygySet(generators_used=(), syzygies=())
    ring = basis[0].ring
    rows = []
    for j in range(len(basis)):
        for i in range(j):
            s, mi, mj = s_poly(basis[i], basis[j])
            rem, quots = reduce_full(s, basis, track=True)
            if not rem.is_zero:
                raise InvariantError("input basis is not a Groebner basis")
            row = [-q for q in quots]
            row[i] = row[i] + ring.monomial(mi)
            row[j] = row[j] - ring.monomial(mj)
            rows.append(tuple(row))
    return SyzygySet(generators_used=basis, syzygies=tuple(rows))


def syzygies(I: PolyIdeal) -> SyzygySet:
    """Syzygies of the reduced Groebner basis of I."""
    return schreyer_syzygies(poly3.groebner(I))


def generator_syzygies(I: PolyIdeal) -> SyzygySet:
    """Syzygies of the generators of I exactly as given.

    Buchberger's unreduced basis G = T . F begins with the nonzero given
    generators made monic, f_j = c_j g_k with row e_j / c_j, so F = U . G
    for U with those entries.  The syzygies of F are the Schreyer
    syzygies of G (any Groebner basis, reduced or not) pushed through T,
    together with the rows of Id - U T: all zero but the unit row e_j of
    each zero generator.
    """
    gens = tuple(I.gens)
    ring = I.ring
    basis, T = poly3.buchberger(gens, track=True)
    rows = [tuple(sum((s[i] * T[i][j] for i in range(len(basis))), ring.zero())
                  for j in range(len(gens)))
            for s in schreyer_syzygies(basis).syzygies]
    for j, f in enumerate(gens):
        if f.is_zero:
            rows.append(tuple(ring.one() if k == j else ring.zero() for k in range(len(gens))))
    return SyzygySet(generators_used=gens, syzygies=tuple(rows))


# ---------------------------------------------------------------------------
# Hom dimension
# ---------------------------------------------------------------------------

def _hom_dim_from_syzygies(syz: SyzygySet, qd: poly3.QuotientData) -> int:
    """r d - rank of the block matrix with block (n, j) the matrix of
    syzygy n's coefficient s_j on S/I: the dimension of the tuples
    (h_1, ..., h_r) in (S/I)^r with sum_j s_j h_j = 0 for every syzygy.

    Each coefficient is replaced by its normal form, as evaluate_at_matrices
    does, and split into terms.  The COO entries (gfp.dense_entries) of each
    distinct standard monomial's matrix are listed once; every term gathers
    those of its monomial, offset to (n d, j d) and scaled by its
    coefficient (a product of two residues, below 2^62).  One
    gfp.sparse_rank call sums the entries that share a position and ranks
    them all, so no block and no dense matrix of the whole is formed.
    """
    import numpy as np

    r, d = len(syz.generators_used), qd.colength
    index: dict[Exponent, int] = {}  # standard monomial -> its place in the table
    terms = []  # (table place, row offset, column offset, coefficient) per term
    for n, s in enumerate(syz.syzygies):
        for j, coeff in enumerate(s):
            if any(e not in qd.standard_set for e in coeff.terms):
                coeff, _ = reduce_full(coeff, qd.groebner_basis)
            terms += [(index.setdefault(e, len(index)), n * d, j * d, c)
                      for e, c in coeff.terms.items()]
    if not terms:
        return r * d
    table = [gfp.dense_entries(poly3.evaluate_at_matrices(qd.ring.monomial(e), qd), 0, 0)
             for e in index]
    sizes = np.array([len(t[0]) for t in table])
    starts = np.cumsum(sizes) - sizes
    t_rows, t_cols, t_vals = (np.concatenate(x) for x in zip(*table))
    place, row_off, col_off, coeffs = (np.array(x, dtype=np.int64) for x in zip(*terms))
    counts = sizes[place]
    # entry k of term i sits at starts[place[i]] + k of the table
    pos = np.repeat(starts[place] - (np.cumsum(counts) - counts), counts) \
        + np.arange(counts.sum())
    rows = t_rows[pos] + np.repeat(row_off, counts)
    cols = t_cols[pos] + np.repeat(col_off, counts)
    vals = t_vals[pos] * np.repeat(coeffs, counts)
    return r * d - gfp.sparse_rank(rows, cols, vals, (len(syz.syzygies) * d, r * d),
                                   qd.ring.p)


def hom_dim(I: PolyIdeal) -> int:
    """dim_k Hom_S(I, S/I) as the tangent space of the border-basis scheme.

    Let B be the standard monomials of I (d of them) and M_x, M_y, M_z
    the multiplication matrices.  The ideals with standard basis B form
    an open subscheme of Hilb^d, the border-basis scheme, cut out by the
    commutators of the generic multiplication matrices (Mourrain,
    AAECC-13, LNCS 1719, 1999; Kreuzer and Robbiano, Collect. Math.
    59(3), 2008), so its tangent space at [S/I] is Hom_S(I, S/I).  There
    is one unknown vector in F_p^d per border term t = x_v m not in B: it
    is column m of dM_v wherever x_v m = t, and every other column of
    dM_v is zero.  The equations are the three commutators linearised at
    the point, [dM_u, M_v] + [M_u, dM_v] = 0, and dim T = d |border| -
    rank.  The pair (u, v) is the Sylvester map dM_v -> M_u dM_v - dM_v M_u
    minus dM_u -> M_v dM_u - dM_u M_v, where entry (k, j) of dM_u is
    entry k of the unknown vector of x_u m_j when that is a border term
    (gfp.sylvester_entries).  This reads only quotient_data,
    gfp.sylvester_entries and gfp.sparse_rank, and shares no syzygy code
    with tangent_excess, which it cross-checks.

    Raises NotZeroDimensionalError unless S/I is finite.
    """
    import numpy as np

    qd = poly3.quotient_data(I)
    d, mats = qd.colength, qd.mult_matrices
    border: dict[Exponent, int] = {}
    # column j of dM_u holds the unknown vector of its border term, if any
    delta = np.full((3, d, d), -1, dtype=np.int64)
    for u in range(3):
        for j, (x, y, z) in enumerate(qd.standard_monomials):
            t = (x + (u == 0), y + (u == 1), z + (u == 2))
            if t not in qd.standard_set:
                delta[u, :, j] = border.setdefault(t, len(border)) * d + np.arange(d)
    rows, cols, vals = [], [], []
    for n, (u, v) in enumerate(((0, 1), (0, 2), (1, 2))):
        # [dM_u, M_v] + [M_u, dM_v] = (M_u dM_v - dM_v M_u) - (M_v dM_u - dM_u M_v)
        for a, x, sign in ((u, delta[v], 1), (v, delta[u], -1)):
            r, c, val = gfp.sylvester_entries(mats[a], mats[a], x)
            rows.append(r + n * d * d)
            cols.append(c)
            vals.append(sign * val)
    rank = gfp.sparse_rank(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                           (3 * d * d, d * len(border)), qd.ring.p)
    return d * len(border) - rank


def tangent_excess(I: PolyIdeal) -> tuple[int, int, int]:
    """(colength d, dim T, excess dim T - 3d)."""
    qd = poly3.quotient_data(I)
    t = _hom_dim_from_syzygies(syzygies(I), qd)
    return qd.colength, t, t - 3 * qd.colength


# ---------------------------------------------------------------------------
# graded (per-weight) dimensions for monomial ideals
# ---------------------------------------------------------------------------

def _graded_dim(alive: int, conditions: list[int]) -> int:
    """Classes of the unknowns c_j, bit j of alive, under the conditions.

    A condition is the bit pair of (i, j): it forces c_i = c_j when both
    are unknowns; when only one of them is, it forces that one, and so its
    class, to 0.  The classes that conditions join are disjoint bitmasks,
    merged as a pair meets them; the forced zeros are ORed into killed.
    The answer counts the joined classes and the alive singletons that
    hold no killed bit.
    """
    classes: list[int] = []
    killed = 0
    for pair in conditions:
        both = pair & alive
        if both != pair:
            killed |= both
            continue
        rest = []
        for c in classes:
            if c & pair:
                pair |= c
            else:
                rest.append(c)
        rest.append(pair)
        classes = rest
    joined = count = 0
    for c in classes:
        joined |= c
        count += not c & killed
    return count + (alive & ~joined & ~killed).bit_count()


def hom_dim_weight(ideal: MonomialIdeal3, a: tuple[int, int, int]) -> int:
    """dim of the degree-a graded piece of Hom_S(I, S/I), for monomial I.

    A graded hom of weight a is determined by scalars c_j at the
    generators g_j with g_j + a in the staircase; each pairwise syzygy
    whose lcm stays outside I after the shift forces c_i = c_j, or
    c_i = 0 when g_j + a lies in I.  The dimension is therefore the number
    of classes of unknowns under c_i = c_j that hold no forced zero, over
    any field.  This builds the one bucket of weight a that mono_hom_dims
    builds for every weight at once: the alive generators as a bitmask and
    the conditions as bit pairs, counted by the same _graded_dim.  The
    pairwise lcms are the ideal's cached generator_lcms.  This route is
    independent of the bounded-component count.
    """
    stair = ideal.staircase
    a0, a1, a2 = a
    alive = sum(1 << j for j, (x, y, z) in enumerate(ideal.mingens)
                if (x + a0, y + a1, z + a2) in stair)
    conditions = [1 << i | 1 << j for i, j, (x, y, z) in ideal.generator_lcms
                  if (x + a0, y + a1, z + a2) in stair]
    return _graded_dim(alive, conditions)


def mono_hom_dims(ideal: MonomialIdeal3) -> dict[tuple[int, int, int], int]:
    """{weight a: dim of the degree-a piece of Hom_S(I, S/I)}, nonzero ones only.

    One transposed pass over the ideal instead of a pass per weight: each
    staircase monomial m sets bit j in the alive mask of weight m - g_j
    (the unknowns of hom_dim_weight), then adds the bit pair of (i, j) to
    the conditions of m - lcm(g_i, g_j) when that weight has a mask.  So
    the route finds its own weights, reading neither tancomb's candidates
    nor its staircase bits.  Each weight is counted by _graded_dim.

    Weights are keyed by integers packed from the heights: with X x Y x Z
    the staircase's box, v is v0*px + v1*py + v2 for py = 2Z and
    px = 2Y*py.  Staircase monomials lie in the box and generators and
    their lcms in [0, X] x [0, Y] x [0, Z], so every weight here has
    -X <= a0 < X, -Y <= a1 < Y and -Z <= a2 < Z.  On that range the key
    of m - g is the difference of their keys and no two weights share
    one.  Only the nonzero weights are unpacked.
    """
    H = ideal.heights
    Y, Z = (len(H[0]), H[0][0]) if H else (0, 0)
    py = 2 * Z
    px = 2 * Y * py
    cells = [i * px + j * py + k for i, row in enumerate(H)
             for j, h in enumerate(row) for k in range(h)]
    gens = tuple((1 << j, u * px + v * py + w) for j, (u, v, w) in enumerate(ideal.mingens))
    pairs = tuple((1 << i | 1 << j, u * px + v * py + w)
                  for i, j, (u, v, w) in ideal.generator_lcms)
    alive: dict[int, int] = {}
    for m in cells:
        for bit, g in gens:
            a = m - g
            alive[a] = alive.get(a, 0) | bit
    conditions: dict[int, list[int]] = {a: [] for a in alive}
    for m in cells:
        for pair, lcm in pairs:
            bucket = conditions.get(m - lcm)
            if bucket is not None:
                bucket.append(pair)
    dims = {}
    for a, bucket in conditions.items():
        n = _graded_dim(alive[a], bucket)
        if n:
            q, a2 = divmod(a + Z, py)
            a0, a1 = divmod(q + Y, 2 * Y)
            dims[a0, a1 - Y, a2 - Z] = n
    return dims


def mono_hom_dim(ideal: MonomialIdeal3) -> int:
    """Tangent dimension of a monomial ideal via the graded linear route:
    the sum of mono_hom_dims."""
    return sum(mono_hom_dims(ideal).values())
