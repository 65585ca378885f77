"""Macaulay inverse systems: contraction and annihilator ideals.

The dual polynomial ring P = k[X, Y, Z] is an S = k[x, y, z]-module via
contraction: x acts on X^a Y^b Z^c by decrementing a (zero if a = 0),
and similarly for y and z; the action extends linearly and
multiplicatively.  For dual polynomials f_1, ..., f_r the annihilator
Ann(f_1, ..., f_r) = {s : s o f_i = 0 for all i} cuts out a finite local
algebra, Gorenstein when r = 1, and every finite local quotient of S
arises this way.

If D is the largest total degree of the f_i, every monomial of degree
D + 1 annihilates them all, so the annihilator is generated in degrees
at most D + 1; a single kernel computation over all monomials of degree
<= D + 1 therefore finds a full generating set (homogeneity of the f_i
is not needed).  Dual polynomials use uppercase variables in the same
text grammar as the polynomial ring.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import gfp, poly3
from .errors import InvariantError, SmallCharacteristicError, ZeroInputError
from .poly3 import Poly, PolyIdeal, PolyRing

DUAL_NAMES = ("X", "Y", "Z")


def dual_ring(p: int) -> PolyRing:
    return PolyRing(p, DUAL_NAMES)


def parse_dual(text: str, p: int) -> Poly:
    return poly3.parse_poly(text, dual_ring(p))


def contract_monomial(m: tuple[int, int, int], f: Poly) -> Poly:
    """x^m o f: exponent subtraction, terms going negative vanish."""
    terms = {}
    for e, c in f.terms.items():
        if all(ei >= mi for ei, mi in zip(e, m)):
            terms[tuple(ei - mi for ei, mi in zip(e, m))] = c
    return Poly(f.ring, terms)


def _monomials_up_to(degree: int) -> list[tuple[int, int, int]]:
    mons = [e for e in itertools.product(range(degree + 1), repeat=3)
            if sum(e) <= degree]
    return sorted(mons, key=poly3.degrevlex_key)


def contraction_closure_dim(fs: Sequence[Poly], p: int) -> int:
    """dim_k of the S-submodule of P generated by the f_i under contraction.

    Equals the colength of Ann(f_1, ..., f_r).
    """
    top = max(f.degree() for f in fs)
    dual_mons = _monomials_up_to(top)
    col = {m: i for i, m in enumerate(dual_mons)}
    rows = []
    for m in _monomials_up_to(top):
        for f in fs:
            g = contract_monomial(m, f)
            if g.is_zero:
                continue
            row = np.zeros(len(dual_mons), dtype=np.int64)
            for e, c in g.terms.items():
                row[col[e]] = c
            rows.append(row)
    return gfp.rank(np.vstack(rows), p)


def annihilator(fs: Sequence[Poly], ring: PolyRing) -> PolyIdeal:
    """Ann(f_1, ..., f_r) as an ideal of the (lowercase) polynomial ring.

    Kernel of the contraction map on monomials of degree <= D + 1; the
    result is post-verified against the contraction-closure dimension.
    """
    fs = [f for f in fs]
    if not fs or any(f.is_zero for f in fs):
        raise ZeroInputError("annihilator needs nonzero dual polynomials")
    p = ring.p
    top = max(f.degree() for f in fs)
    if p <= top:
        raise SmallCharacteristicError(
            f"characteristic {p} <= top degree {top}; divided-power subtleties refused")
    acting = _monomials_up_to(top + 1)
    dual_mons = _monomials_up_to(top)
    col = {m: i for i, m in enumerate(dual_mons)}
    mat = np.zeros((len(acting), len(fs) * len(dual_mons)), dtype=np.int64)
    for r, m in enumerate(acting):
        for k, f in enumerate(fs):
            g = contract_monomial(m, f)
            for e, c in g.terms.items():
                mat[r, k * len(dual_mons) + col[e]] = c
    kernel = gfp.kernel_basis(mat.T, p)
    gens = []
    for vec in kernel:
        terms = {acting[i]: int(c) for i, c in enumerate(vec) if c}
        gens.append(ring.poly(terms))
    ann = poly3.ideal(ring, gens)
    expected = contraction_closure_dim(fs, p)
    got = poly3.quotient_data(ann).colength
    if got != expected:
        raise InvariantError(f"annihilator colength {got} != closure dim {expected}")
    return ann
