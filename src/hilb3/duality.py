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
these to all of R).  Its degree is compared with two Hom spaces:
Hom_R(omega_R, R) (matrices F with F M_v^T = M_v F) and its symmetric
part (F also literally symmetric, since R and omega_R carry dual bases);
in characteristic != 2 the symmetric part has the same dimension as the
bicanonical module.

Both the relation matrix and the intertwiner matrix (3 d^2 x d^2) are
built as sparse entries straight from the nonzeros of the multiplication
matrices, and their ranks are summed over the connected components of
the row-column graph (``gfp.sparse_rank``).  For a monomial ideal every
entry carries a torus weight, so the components are small; in generic
coordinates there is one component and one dense elimination.

Both entry points read the multiplication matrices from the ideal's
cached QuotientData (poly3.quotient_data); those arrays are read-only,
and every shifted or stacked matrix here is a new array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _entries(mats, d: int) -> list[np.ndarray]:
    """(v, s, k, c, t) for every nonzero c = mats[v][s, k] and every t < d."""
    stack = np.asarray(mats, dtype=np.int64).reshape(len(mats), d, d)
    v, s, k = np.nonzero(stack)
    fields = (x[:, None] for x in (v, s, k, stack[v, s, k]))
    return [x.ravel() for x in np.broadcast_arrays(*fields, np.arange(d))]


def _pair(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Position of {a, b} in the row-major upper triangle of a d x d matrix."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return lo * d - lo * (lo - 1) // 2 + hi - lo


def _sym2_relation_rank(mats, d: int, p: int) -> int:
    """Rank of the span of (r e_i) . e_j - e_i . (r e_j) in Sym^2.

    With m the matrix of the v-th r, row (v, {i, j}) holds +m[i, k] at
    {k, j} and -m[j, k] at {i, k}: each nonzero m[s, k] meets every t,
    as i = s <= t = j and as i = t <= s = j.
    """
    nsym = d * (d + 1) // 2
    v, s, k, c, t = _entries(mats, d)
    rows, cols = v * nsym + _pair(s, t, d), _pair(k, t, d)
    up, down = t >= s, t <= s
    return gfp.sparse_rank(np.concatenate([rows[up], rows[down]]),
                           np.concatenate([cols[up], cols[down]]),
                           np.concatenate([c[up], -c[down]]), (len(mats) * nsym, nsym), p)


def _intertwiner_dims(mats, d: int, p: int) -> tuple[int, int]:
    """dims of {F : F M_v^T = M_v F for all v}: F symmetric, then F arbitrary.

    On row-major vec(F) the map F -> M_v F - F M_v^T takes a nonzero
    c = M_v[s, k] to +c at (st, kt) and -c at (ts, tk) for every t.
    A symmetric F is spanned by E_ab + E_ba (a <= b), whose columns are
    the sum of columns ab and ba: both kt and tk land on column {k, t}.
    """
    nsym = d * (d + 1) // 2
    v, s, k, c, t = _entries(mats, d)
    rows = np.concatenate([(v * d + s) * d + t, (v * d + t) * d + s])
    vals = np.concatenate([c, -c])
    shape = len(mats) * d * d
    full = gfp.sparse_rank(rows, np.concatenate([k * d + t, t * d + k]), vals, (shape, d * d), p)
    pairs = _pair(k, t, d)
    sym = gfp.sparse_rank(rows, np.concatenate([pairs, pairs]), vals, (shape, nsym), p)
    return nsym - sym, d * d - full


def bicanonical_degree(I: PolyIdeal, verify: bool = False) -> BicanonicalReport:
    """Degree of Sym^2_R omega_R plus the two Hom dimensions.

    With verify the Sym^2 relations are regenerated with r running over
    every standard monomial of positive degree instead of just the three
    variables; the ranks must agree.  The unit ideal raises UnitIdealError.
    """
    qd = poly3.quotient_data(I)
    p = qd.ring.p
    if p == 2:
        raise CharTwoError("bicanonical computations need characteristic != 2")
    d = qd.colength
    if d == 0:
        raise UnitIdealError("the ideal is the whole ring")
    mats = qd.mult_matrices
    nsym = d * (d + 1) // 2
    rel_rank = _sym2_relation_rank(mats, d, p)
    if verify:
        all_mats = [poly3.evaluate_at_matrices(qd.ring.monomial(e), qd)
                    for e in qd.standard_monomials if sum(e) > 0]
        full_rank = _sym2_relation_rank(all_mats, d, p)
        if full_rank != rel_rank:
            raise InvariantError("algebra generators missed Sym^2 relations")
    homsym_dim, hom_full_dim = _intertwiner_dims(mats, d, p)
    if homsym_dim != nsym - rel_rank:
        raise InvariantError(f"symmetric Hom has dimension {homsym_dim}, "
                             f"Sym^2 omega has degree {nsym - rel_rank}")
    return BicanonicalReport(colength=d, sym2_omega_deg=nsym - rel_rank,
                             homsym_dim=homsym_dim, hom_full_dim=hom_full_dim,
                             gorenstein_type=gorenstein_type(I))
