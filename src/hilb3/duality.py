"""Dual module, Gorenstein type, and the bicanonical degree of S/I.

For a finite quotient R = S/I with standard monomial basis m_1, ..., m_d,
the dual module omega_R = Hom_k(R, k) carries the R-action
(r.f)(m) = f(rm); in the dual basis the action of a variable is the
transpose of its multiplication matrix.  The Gorenstein type is the
dimension of the socle (0 : m) at the one rational point where R is
local: the simultaneous kernel of the three multiplication matrices,
each shifted by that point's coordinate.

The bicanonical module is Sym^2_R omega_R: the k-linear symmetric square
of omega_R, dimension d(d+1)/2, modulo the relations
(r f) . g - f . (r g) for algebra generators r (telescoping extends
these to all of R).  It is read off Hom_R(omega_R, R), the matrices F
with M_v F = F M_v^T, and its symmetric part, F also literally
symmetric (R and omega_R carry dual bases).  One rank gives both the
symmetric part and the degree: row (v, {i, j}) of the relation matrix
is, entry for entry, row (v, i, j) of the map F -> M_v F - F M_v^T on
symmetric F, and row (v, j, i) is its negative.  So deg Sym^2 omega_R
= homsym_dim, an identity of the assembly that tests/test_duality.py
pins against a dense relation matrix.

Both maps are Sylvester maps X -> A X - X B with A = M_v, B = M_v^T,
built as sparse entries by gfp.sylvester_entries and ranked by
``gfp.sparse_rank``: singleton rows and columns peel off, and the rest
goes over the connected components of the row-column graph.
For a monomial ideal every entry carries a torus weight, so the
components are small; in generic coordinates there is one component
and one dense elimination.

Both entry points read the multiplication matrices from the ideal's
cached QuotientData (poly3.quotient_data); those arrays are read-only,
and every shifted or stacked matrix here is a new array.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import gfp, poly3
from .errors import CharTwoError, InputError, InvariantError, UnitIdealError
from .poly3 import PolyIdeal


@dataclass
class BicanonicalReport:
    colength: int
    sym2_omega_deg: int
    homsym_dim: int
    hom_full_dim: int
    gorenstein_type: int


def gorenstein_type(I: PolyIdeal) -> int:
    """dim soc(S/I) for S/I local at one rational point; type 1 means Gorenstein.

    At the point (l_x, l_y, l_z) the maximal ideal is (x - l_x, ...), so
    the socle is the common kernel of the shifted matrices M_v - l_v.
    These are nilpotent, so trace(M_v) = d l_v and l_v = trace(M_v)/d
    (0 for a monomial ideal).  Each M_v - l_v must be nilpotent,
    else InputError is raised: S/I is not local at one rational point,
    or p divides d, so that the trace does not give l_v (inv_mod(d, p)
    is then 0).
    """
    import numpy as np

    qd = poly3.quotient_data(I)
    d, p = qd.colength, qd.ring.p
    if d == 0:
        return 0
    shifted = []
    for m in qd.mult_matrices:
        coord = int(np.trace(m)) * gfp.inv_mod(d, p) % p
        if coord:
            m = (m - coord * np.eye(d, dtype=np.int64)) % p
        if not _is_nilpotent(m, p):
            raise InputError("S/I is not local at one rational point (or p divides d)")
        shifted.append(m)
    return d - gfp.rank(np.vstack(shifted), p)


def _is_nilpotent(m: np.ndarray, p: int) -> bool:
    """m^(2^k) == 0 for the least 2^k >= len(m), by repeated squaring."""
    power, n = m, 1
    while n < len(m) and power.any():
        power, n = gfp.matmul(power, power, p), 2 * n
    return not power.any()


def _intertwiner_rank(mats, unknown: np.ndarray, p: int) -> int:
    """Rank of F -> (M_v F - F M_v^T for each v), entry (s, t) of F being
    the unknown numbered unknown[s, t]; the block of v starts at row v d^2."""
    import numpy as np

    if not len(mats):
        return 0
    d = len(unknown)
    rows, cols, vals = zip(*(gfp.sylvester_entries(m, m.T, unknown) for m in mats))
    rows = [r + v * d * d for v, r in enumerate(rows)]
    return gfp.sparse_rank(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                           (len(mats) * d * d, int(unknown.max()) + 1), p)


def _symmetric_unknowns(d: int) -> np.ndarray:
    """F[s, t] = F[t, s] numbered by the pair {s, t} in the row-major upper triangle."""
    import numpy as np

    s, t = np.triu_indices(d)
    unknown = np.empty((d, d), dtype=np.int64)
    unknown[s, t] = unknown[t, s] = np.arange(len(s))
    return unknown


def bicanonical_degree(I: PolyIdeal, verify: bool = False) -> BicanonicalReport:
    """Degree of Sym^2_R omega_R plus the two Hom dimensions.

    The degree is homsym_dim, from one rank of the symmetric intertwiner
    map (see the module docstring for why that rank is the relation
    rank).  With verify that rank is recomputed with M_v running over
    the matrices of every standard monomial of positive degree instead
    of the three variables; the two must agree, else InvariantError.
    The unit ideal raises UnitIdealError.
    """
    import numpy as np

    qd = poly3.quotient_data(I)
    p = qd.ring.p
    if p == 2:
        raise CharTwoError("bicanonical computations need characteristic != 2")
    d = qd.colength
    if d == 0:
        raise UnitIdealError("the ideal is the whole ring")
    mats, sym = qd.mult_matrices, _symmetric_unknowns(d)
    sym_rank = _intertwiner_rank(mats, sym, p)
    if verify:
        all_mats = [poly3.evaluate_at_matrices(qd.ring.monomial(e), qd)
                    for e in qd.standard_monomials if sum(e) > 0]
        if _intertwiner_rank(all_mats, sym, p) != sym_rank:
            raise InvariantError("algebra generators missed Sym^2 relations")
    homsym_dim = d * (d + 1) // 2 - sym_rank
    full_rank = _intertwiner_rank(mats, np.arange(d * d).reshape(d, d), p)
    return BicanonicalReport(colength=d, sym2_omega_deg=homsym_dim,
                             homsym_dim=homsym_dim, hom_full_dim=d * d - full_rank,
                             gorenstein_type=gorenstein_type(I))
