"""Dual module, Gorenstein type, and the bicanonical degree of S/I.

For a finite quotient R = S/I with standard monomial basis m_1, ..., m_d,
the dual module omega_R = Hom_k(R, k) carries the R-action
(r.f)(m) = f(rm); in the dual basis the action of a variable is the
transpose of its multiplication matrix.  The Gorenstein type is the
dimension of the socle (0 : m) at the one rational point where R is
local: the simultaneous kernel of the three multiplication matrices,
each shifted by that point's coordinate.  Each shifted matrix must be
nilpotent; a strictly lower triangular one is (every M_v of a monomial
or homogeneous ideal in the ascending degrevlex basis), and only the
others are squared to prove it.

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

Both maps are Sylvester maps X -> A X - X B with A = M_v, B = M_v^T.
Their sparse entries are built once, by one gfp.sylvester_entries call
on the stack of the three M_v, with F[s, t] numbered s d + t, and ranked
twice by ``gfp.sparse_rank``: as they are for the full map, and with
each column s d + t relabelled as the pair {s, t} for the symmetric one.
The relabelled entries are exactly those built with the symmetric
numbering, since the builder reads the numbering only to look up column
numbers and drops negative ones, which neither numbering holds.  In each
rank singleton rows and columns peel off, and the rest goes over the
connected components of the row-column graph.
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
    """Whether m is nilpotent: at once when m is strictly lower triangular
    (then m^len(m) = 0), else by m^(2^k) == 0 for the least 2^k >= len(m),
    by repeated squaring.

    In the ascending degrevlex basis x_v m_j > m_j, and for a homogeneous
    ideal NF(x_v m_j) is homogeneous of degree deg m_j + 1, so every M_v
    of a monomial or homogeneous ideal is strictly lower triangular: it
    needs no product, and its trace 0 leaves it unshifted.  Translated
    points and other non-homogeneous local algebras are squared.
    """
    import numpy as np

    if not np.triu(m).any():
        return True
    power, n = m, 1
    while n < len(m) and power.any():
        power, n = gfp.matmul(power, power, p), 2 * n
    return not power.any()


def _intertwiner_entries(mats, unknown: np.ndarray):
    """COO entries of F -> (M_v F - F M_v^T for each v), entry (s, t) of F
    being the unknown numbered unknown[s, t]; the block of v starts at row
    v d^2."""
    import numpy as np

    stack = np.stack(mats)
    return gfp.sylvester_entries(stack, stack.transpose(0, 2, 1), unknown)


def _intertwiner_rank(mats, unknown: np.ndarray, p: int) -> int:
    """Rank of the map of _intertwiner_entries."""
    if not len(mats):
        return 0
    d = len(unknown)
    return gfp.sparse_rank(*_intertwiner_entries(mats, unknown),
                           (len(mats) * d * d, int(unknown.max()) + 1), p)


def _symmetric_unknowns(d: int) -> np.ndarray:
    """F[s, t] = F[t, s] numbered by the pair {s, t} in the row-major upper
    triangle: for s <= t, the rows above s hold s (2d - 1 - s) / 2 pairs."""
    import numpy as np

    i = np.arange(d)
    lo, hi = np.minimum.outer(i, i), np.maximum.outer(i, i)
    return lo * (2 * d - 1 - lo) // 2 + hi


def _intertwiner_dims(mats, d: int, p: int) -> tuple[int, int]:
    """(homsym_dim, hom_full_dim): the dimensions of the symmetric and of
    all F with M_v F = F M_v^T, from one assembly ranked twice (see the
    module docstring)."""
    import numpy as np

    nsym = d * (d + 1) // 2
    rows, cols, vals = _intertwiner_entries(mats, np.arange(d * d).reshape(d, d))
    shape = len(mats) * d * d
    sym_cols = _symmetric_unknowns(d).ravel()[cols]
    return (nsym - gfp.sparse_rank(rows, sym_cols, vals, (shape, nsym), p),
            d * d - gfp.sparse_rank(rows, cols, vals, (shape, d * d), p))


def bicanonical_degree(I: PolyIdeal, verify: bool = False) -> BicanonicalReport:
    """Degree of Sym^2_R omega_R plus the two Hom dimensions.

    The degree is homsym_dim, from one rank of the symmetric intertwiner
    map (see the module docstring for why that rank is the relation
    rank).  Both Hom dimensions come from one assembly of the intertwiner
    map with F[s, t] numbered s d + t, ranked as it is and with each
    column relabelled as the pair {s, t}, which is exact because the
    assembly reads the numbering only to look up columns.  With verify
    the symmetric rank is recomputed, with its own assembly, with M_v
    running over the matrices of every standard monomial of positive
    degree instead of the three variables; the two must agree, else
    InvariantError.  The unit ideal raises UnitIdealError.
    """
    qd = poly3.quotient_data(I)
    p = qd.ring.p
    if p == 2:
        raise CharTwoError("bicanonical computations need characteristic != 2")
    d = qd.colength
    if d == 0:
        raise UnitIdealError("the ideal is the whole ring")
    homsym_dim, hom_full_dim = _intertwiner_dims(qd.mult_matrices, d, p)
    if verify:
        all_mats = [poly3.evaluate_at_matrices(qd.ring.monomial(e), qd)
                    for e in qd.standard_monomials if sum(e) > 0]
        sym_rank = _intertwiner_rank(all_mats, _symmetric_unknowns(d), p)
        if d * (d + 1) // 2 - sym_rank != homsym_dim:
            raise InvariantError("algebra generators missed Sym^2 relations")
    return BicanonicalReport(colength=d, sym2_omega_deg=homsym_dim,
                             homsym_dim=homsym_dim, hom_full_dim=hom_full_dim,
                             gorenstein_type=gorenstein_type(I))
