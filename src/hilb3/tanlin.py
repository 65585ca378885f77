"""Tangent dimension dim Hom_S(I, S/I) by syzygies and exact linear algebra.

For a zero-dimensional ideal I with generators g_1, ..., g_r, a
homomorphism I -> S/I is an r-tuple (h_1, ..., h_r) of classes killing
every syzygy of the generators: sum_j s_j h_j = 0 in S/I.  Expressing
each h_j in the standard monomial basis and each syzygy coefficient as a
multiplication matrix turns Hom into the kernel of a block matrix over
F_p, whose dimension equals the tangent dimension of the point [S/I] of
the Hilbert scheme.

Syzygies come from the recorded S-pair reductions of a Groebner basis;
these generate the whole syzygy module.  Hom_S(I, -) does not depend on
the chosen generating set, which the second code path (syzygies lifted
to the originally given generators) makes checkable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gfp, poly3
from .errors import InvariantError
from .mono3 import MonomialIdeal3
from .poly3 import Poly, PolyIdeal, reduce_full, s_poly, sub_multiples
from .tancomb import weight_candidates


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

    Writes the Groebner basis as G = T . F and each given generator as
    F = U . G; the syzygies of F are then the Schreyer syzygies of G
    pushed through T together with the rows of Id - U T.
    """
    gens = tuple(I.gens)
    ring = I.ring
    basis, T = poly3.buchberger(gens, track=True)
    basis, T = poly3.reduce_basis(basis, rows=T)
    schreyer = schreyer_syzygies(basis)
    rows = []
    for s in schreyer.syzygies:
        rows.append(tuple(sum((s[i] * T[i][j] for i in range(len(basis))), ring.zero())
                          for j in range(len(gens))))
    for j, f in enumerate(gens):
        rem, quots = reduce_full(f, basis, track=True)
        if not rem.is_zero:
            raise InvariantError(f"generator {j} does not reduce to zero by its Groebner basis")
        unit = [ring.zero()] * len(gens)
        unit[j] = ring.one()
        row = sub_multiples(unit, quots, T)
        if any(not a.is_zero for a in row):
            rows.append(tuple(row))
    return SyzygySet(generators_used=gens, syzygies=tuple(rows))


# ---------------------------------------------------------------------------
# Hom dimension
# ---------------------------------------------------------------------------

def _hom_dim_from_syzygies(syz: SyzygySet, qd: poly3.QuotientData) -> int:
    gens = syz.generators_used
    r, d, p = len(gens), qd.colength, qd.ring.p
    if r == 0:
        return 0
    blocks = []
    for s in syz.syzygies:
        row = np.zeros((d, r * d), dtype=np.int64)
        for j, coeff in enumerate(s):
            if coeff.is_zero:
                continue
            row[:, j * d:(j + 1) * d] = poly3.evaluate_at_matrices(coeff, qd)
        blocks.append(row)
    if not blocks:
        return r * d
    mat = np.vstack(blocks)
    return r * d - gfp.rank(mat, p)


def hom_dim(I: PolyIdeal) -> int:
    """dim_k Hom_S(I, S/I) from the syzygies of the given generators I.gens.

    Raises NotZeroDimensionalError unless S/I is finite.  tangent_excess
    computes the same dimension from the Groebner basis.
    """
    qd = poly3.quotient_data(I)
    return _hom_dim_from_syzygies(generator_syzygies(I), qd)


def tangent_excess(I: PolyIdeal) -> tuple[int, int, int]:
    """(colength d, dim T, excess dim T - 3d)."""
    qd = poly3.quotient_data(I)
    t = _hom_dim_from_syzygies(syzygies(I), qd)
    return qd.colength, t, t - 3 * qd.colength


# ---------------------------------------------------------------------------
# graded (per-weight) dimensions for monomial ideals
# ---------------------------------------------------------------------------

def hom_dim_weight(ideal: MonomialIdeal3, a: tuple[int, int, int]) -> int:
    """dim of the degree-a graded piece of Hom_S(I, S/I), for monomial I.

    A graded hom of weight a is determined by scalars c_j at the
    generators g_j with g_j + a in the staircase; each pairwise syzygy
    whose lcm stays outside I after the shift forces c_i = c_j, or
    c_i = 0 when g_j + a lies in I.  The dimension is therefore the number
    of classes of unknowns under c_i = c_j that hold no forced zero, over
    any field.  The pairwise lcms are the ideal's cached generator_lcms,
    so only their shifts depend on a.  This route is independent of the
    bounded-component count.
    """
    gens = ideal.mingens
    stair = ideal.staircase
    parent = {j: j for j, g in enumerate(gens)
              if (g[0] + a[0], g[1] + a[1], g[2] + a[2]) in stair}
    if not parent:
        return 0

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    killed = []
    for i, j, l in ideal.generator_lcms:
        if (l[0] + a[0], l[1] + a[1], l[2] + a[2]) not in stair:
            continue  # both sides die in S/I, no condition
        if i in parent and j in parent:
            parent[find(i)] = find(j)
        elif i in parent or j in parent:
            killed.append(i if i in parent else j)
    return len({find(j) for j in parent} - {find(k) for k in killed})


def mono_hom_dim(ideal: MonomialIdeal3) -> int:
    """Tangent dimension of a monomial ideal via the graded linear route."""
    return sum(hom_dim_weight(ideal, a) for a in weight_candidates(ideal))
