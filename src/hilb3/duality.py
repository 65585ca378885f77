"""Dual module, Gorenstein type, and the bicanonical degree of S/I.

For a finite quotient R = S/I with standard monomial basis m_1, ..., m_d,
the dual module omega_R = Hom_k(R, k) carries the R-action
(r.f)(m) = f(rm); in the dual basis the action of a variable is the
transpose of its multiplication matrix.  The Gorenstein type is the
dimension of the socle (0 : m), the simultaneous kernel of the three
multiplication matrices acting on R.

The bicanonical module is Sym^2_R omega_R: the k-linear symmetric square
of omega_R, dimension d(d+1)/2, modulo the relations
(r f) . g - f . (r g) for algebra generators r (telescoping extends
these to all of R).  Its degree is compared with two Hom spaces:
Hom_R(omega_R, R) (matrices F with F M_v^T = M_v F) and its symmetric
part (F also literally symmetric, since R and omega_R carry dual bases);
in characteristic != 2 the symmetric part has the same dimension as the
bicanonical module.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import gfp, poly3
from .errors import CharTwoError, InvariantError
from .poly3 import PolyIdeal


@dataclass
class BicanonicalReport:
    colength: int
    sym2_omega_deg: int
    homsym_dim: int
    hom_full_dim: int


def gorenstein_type(I: PolyIdeal) -> int:
    """dim soc(S/I); type 1 means Gorenstein."""
    qd = poly3.quotient_data(I)
    if qd.colength == 0:
        return 0
    stacked = np.vstack(qd.mult_matrices)
    return qd.colength - gfp.rank(stacked, qd.ring.p)


def _sym2_relation_rank(mats, d: int, p: int) -> int:
    """Rank of the span of (r e_i) . e_j - e_i . (r e_j) in Sym^2."""
    idx = {ij: n for n, ij in enumerate(itertools.combinations_with_replacement(range(d), 2))}
    nsym = len(idx)
    rows = []
    for m in mats:
        for i in range(d):
            for j in range(i, d):
                row = np.zeros(nsym, dtype=np.int64)
                for k in range(d):
                    c = int(m[i, k])
                    if c:
                        a, b = (k, j) if k <= j else (j, k)
                        row[idx[(a, b)]] = (row[idx[(a, b)]] + c) % p
                    c = int(m[j, k])
                    if c:
                        a, b = (i, k) if i <= k else (k, i)
                        row[idx[(a, b)]] = (row[idx[(a, b)]] - c) % p
                if row.any():
                    rows.append(row)
    if not rows:
        return 0
    return gfp.rank(np.vstack(rows), p)


def _intertwiner_dims(mats, d: int, p: int) -> tuple[int, int]:
    """dims of {F : F M_v^T = M_v F for all v}: F symmetric, then F arbitrary.

    On row-major vec(F) the map F -> M_v F - F M_v^T is M_v (x) I - I (x) M_v.
    A symmetric F is spanned by E_ij + E_ji (i <= j), whose columns are
    the sum of columns ij and ji; the diagonal ones come out doubled,
    which keeps the rank for odd p.
    """
    eye = np.eye(d, dtype=np.int64)
    mat = np.vstack([(np.kron(m, eye) - np.kron(eye, m)) % p for m in mats])
    i, j = np.triu_indices(d)
    sym = (mat[:, i * d + j] + mat[:, j * d + i]) % p
    return len(i) - gfp.rank(sym, p), d * d - gfp.rank(mat, p)


def bicanonical_degree(I: PolyIdeal, verify: bool = False) -> BicanonicalReport:
    """Degree of Sym^2_R omega_R plus the two Hom dimensions.

    With verify the Sym^2 relations are regenerated with r running over
    every standard monomial of positive degree instead of just the three
    variables; the ranks must agree.
    """
    qd = poly3.quotient_data(I)
    p = qd.ring.p
    if p == 2:
        raise CharTwoError("bicanonical computations need characteristic != 2")
    d = qd.colength
    mats = qd.mult_matrices
    nsym = d * (d + 1) // 2
    rel_rank = _sym2_relation_rank(mats, d, p)
    if verify:
        cache: dict = {}
        all_mats = [poly3.evaluate_at_matrices(qd.ring.monomial(e), qd, cache)
                    for e in qd.standard_monomials if sum(e) > 0]
        full_rank = _sym2_relation_rank(all_mats, d, p)
        if full_rank != rel_rank:
            raise InvariantError("algebra generators missed Sym^2 relations")
    homsym_dim, hom_full_dim = _intertwiner_dims(mats, d, p)
    if homsym_dim != nsym - rel_rank:
        raise InvariantError(f"symmetric Hom has dimension {homsym_dim}, "
                             f"Sym^2 omega has degree {nsym - rel_rank}")
    return BicanonicalReport(colength=d, sym2_omega_deg=nsym - rel_rank,
                             homsym_dim=homsym_dim, hom_full_dim=hom_full_dim)
