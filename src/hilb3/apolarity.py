"""Macaulay inverse systems: contraction and annihilator ideals.

The dual polynomial ring P = k[X, Y, Z] is an S = k[x, y, z]-module via
contraction: x acts on X^a Y^b Z^c by decrementing a (zero if a = 0),
and similarly for y and z; the action extends linearly and
multiplicatively.  For dual polynomials f_1, ..., f_r the annihilator
Ann(f_1, ..., f_r) = {s : s o f_i = 0 for all i} cuts out a finite local
algebra, Gorenstein when r = 1, and every finite local quotient of S
arises this way.

Contraction never cancels two terms, so a monomial x^m annihilates
every f_i exactly when m divides none of their terms.  Those monomials
span the largest monomial ideal A inside Ann, whose standard monomials
(its cells) are the divisors of the terms, and Ann/A is an ideal of
S/A: the kernel of the contraction map on the cells (homogeneity of the
f_i is not needed).  poly3.span_ideal reads the annihilator's reduced
basis and quotient off one elimination of that map, taken as the
relations, without Buchberger.  The same contractions, read one f_i per
row, span the inverse system, whose dimension checks the colength.  Dual
polynomials use uppercase variables in the text grammar of the ring.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from . import gfp, poly3
from .errors import InvariantError, SmallCharacteristicError, ZeroInputError
from .poly3 import Poly, PolyIdeal, PolyRing

DUAL_NAMES = ("X", "Y", "Z")


def dual_ring(p: int) -> PolyRing:
    return PolyRing(p, DUAL_NAMES)


def parse_dual(text: str, p: int) -> Poly:
    return poly3.parse_poly(text, dual_ring(p))


def annihilator(fs: Sequence[Poly], ring: PolyRing, verify: bool = False) -> PolyIdeal:
    """Ann(f_1, ..., f_r) as an ideal of the (lowercase) polynomial ring.

    The cells are the divisors of the terms of the f_k, and the ambient A
    is generated by the border monomials cell + e_v that are not cells.
    A term c X^t contracted by x^m, for m dividing t, is c X^(t - m), so
    one pass over (k, term, divisor) fills con[k, t - m, m] = c.  Read as
    rows k d + e, con is the transpose of the contraction map on the
    cells, which poly3.span_ideal takes as the relations and turns into
    Ann (checked against Buchberger when verify is set); read as rows
    m r + k, it spans the inverse system, and its rank post-verifies the
    colength.  The reduced basis of Ann is unique, so any ambient inside
    Ann gives the same answer; this one keeps X^40 at 41 cells where m^41
    has 12341.
    """
    import numpy as np

    fs = [f for f in fs]
    if not fs or any(f.is_zero for f in fs):
        raise ZeroInputError("annihilator needs nonzero dual polynomials")
    p = ring.p
    top = max(f.degree() for f in fs)
    if p <= top:
        raise SmallCharacteristicError(
            f"characteristic {p} <= top degree {top}; divided-power subtleties refused")
    entries = [(k, (a - i, b - j, c - l), (i, j, l), v)
               for k, f in enumerate(fs) for (a, b, c), v in f.terms.items()
               for i, j, l in itertools.product(range(a + 1), range(b + 1), range(c + 1))]
    cells = {m for _, _, m, _ in entries}
    border = {e for a, b, c in cells for e in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))}
    ambient = poly3.ideal(ring, map(ring.monomial, sorted(border - cells)))
    # the standard monomials of the ambient both act and index the contractions
    mons = poly3.quotient_data(ambient).standard_monomials
    d = len(mons)
    col = {m: i for i, m in enumerate(mons)}
    con = np.zeros((len(fs), d, d), dtype=np.int64)
    for k, e, m, v in entries:
        con[k, col[e], col[m]] = v
    ann = poly3.span_ideal(ambient, con.reshape(-1, d), verify=verify)
    expected = gfp.rank(con.transpose(2, 0, 1).reshape(-1, d), p)
    got = poly3.quotient_data(ann).colength
    if got != expected:
        raise InvariantError(f"annihilator colength {got} != closure dim {expected}")
    return ann
