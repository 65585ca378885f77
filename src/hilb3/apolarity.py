"""Macaulay inverse systems: contraction and annihilator ideals.

The dual polynomial ring P = k[X, Y, Z] is an S = k[x, y, z]-module via
contraction: x acts on X^a Y^b Z^c by decrementing a (zero if a = 0),
and similarly for y and z; the action extends linearly and
multiplicatively.  For dual polynomials f_1, ..., f_r the annihilator
Ann(f_1, ..., f_r) = {s : s o f_i = 0 for all i} cuts out a finite local
algebra, Gorenstein when r = 1, and every finite local quotient of S
arises this way.

If D is the largest total degree of the f_i, a monomial of degree D + 1
divides no term of any f_i, so it annihilates them all, as does x^(a+1)
for a the largest exponent of X among their terms, and likewise y^(b+1)
and z^(c+1).  So Ann contains the ambient A these generate, and Ann/A is
an ideal of S/A, whose standard monomials are the monomials of degree
<= D in the box [0, a] x [0, b] x [0, c].  It is the kernel of the
contraction map on them (homogeneity of the f_i is not needed), and
poly3.span_ideal reads the annihilator's reduced basis and quotient off
one elimination of that map, taken as the relations, without Buchberger.
That contraction matrix, read one f_i per row, spans the inverse system,
whose dimension checks the colength.  Dual polynomials use uppercase
variables in the text grammar of the ring.
"""
from __future__ import annotations

from typing import Sequence

from . import gfp, poly3
from .errors import InvariantError, SmallCharacteristicError, ZeroInputError
from .poly3 import Poly, PolyIdeal, PolyRing, exp_divides, exp_sub

DUAL_NAMES = ("X", "Y", "Z")


def dual_ring(p: int) -> PolyRing:
    return PolyRing(p, DUAL_NAMES)


def parse_dual(text: str, p: int) -> Poly:
    return poly3.parse_poly(text, dual_ring(p))


def contract_monomial(m: tuple[int, int, int], f: Poly) -> Poly:
    """x^m o f: exponent subtraction, terms going negative vanish."""
    terms = {}
    for e, c in f.terms.items():
        if exp_divides(m, e):
            terms[exp_sub(e, m)] = c
    return Poly(f.ring, terms)


def annihilator(fs: Sequence[Poly], ring: PolyRing, verify: bool = False) -> PolyIdeal:
    """Ann(f_1, ..., f_r) as an ideal of the (lowercase) polynomial ring.

    The kernel of the contraction map on the standard monomials of the
    ambient A = m^(D+1) + (x^(a+1), y^(b+1), z^(c+1)) is Ann/A, so
    poly3.span_ideal takes that map's transpose (row k d + e holds the
    coefficients of the e-th monomial in each x^m o f_k) as the relations
    and turns them into Ann (checked against Buchberger when verify is
    set).  The reduced basis of Ann is unique, so any ambient inside Ann
    gives the same answer; the powers keep X^40 at 41 cells where m^41
    has 12341, and a dual with X^D, Y^D and Z^D as terms keeps m^(D+1).
    The colength is post-verified against the rank of the contractions.
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
    n = top + 1
    a, b, c = map(max, zip(*(e for f in fs for e in f.terms)))
    powers = ((a + 1, 0, 0), (0, b + 1, 0), (0, 0, c + 1))
    ambient = poly3.ideal(ring, map(ring.monomial, powers + tuple(
        (i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i))))
    # the standard monomials of the ambient both act and index the contractions
    mons = poly3.quotient_data(ambient).standard_monomials
    d = len(mons)
    col = {m: i for i, m in enumerate(mons)}
    mat = np.zeros((d, len(fs) * d), dtype=np.int64)
    for r, m in enumerate(mons):
        for k, f in enumerate(fs):
            g = contract_monomial(m, f)
            for e, c in g.terms.items():
                mat[r, k * d + col[e]] = c
    ann = poly3.span_ideal(ambient, mat.T, verify=verify)
    expected = gfp.rank(mat.reshape(-1, d), p)
    got = poly3.quotient_data(ann).colength
    if got != expected:
        raise InvariantError(f"annihilator colength {got} != closure dim {expected}")
    return ann
