"""Smooth/singular classification of monomial points and the smooth census.

A singularizing triple is a set of three socle monomials a, b, c with

    a1 > b1, c1     b2 > a2, c2     c3 > a3, b3.

A monomial point of Hilb^d(A^3) is smooth exactly when no such triple
exists.  Both halves of that statement come from one pass over the
socle, the maxima peel: repeatedly remove an element that attains the
coordinate maxima of the elements left in two coordinates.  If the peel
gets stuck, each element left attains at most one maximum, and the three
maxima witnesses form a triple; when a triple exists every
doubly-negative signature carries a tangent vector and the tangent
dimension is at least 3d + 6.  Otherwise the peel orders the socle so
that each element dominates all later ones in two coordinates, and
colon by pure powers of the remaining variable, read off the same pass,
gives a flag of principal ideals with Gorenstein subquotients (a broken
Gorenstein structure without flips), which this module emits as a
checkable certificate.

The census needs only the verdict: it counts the ideals whose peel
empties the socle and builds no triple.  Whether the peel gets stuck does
not depend on which peelable element goes first: while all three members
of a triple are left, each attains at most one maximum, so none of them
is ever peeled.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import mono3
from .errors import HasTripleError, InputError, InvariantError
from .mono3 import ExponentVec, MonomialIdeal3, monomial_str

SINGULAR_EXCESS_LOWER_BOUND = 6


@dataclass(frozen=True)
class SingularizingTriple:
    """Socle monomials a, b, c; a is extremal in x, b in y, c in z."""

    a: ExponentVec
    b: ExponentVec
    c: ExponentVec

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        ok = (a[0] > b[0] and a[0] > c[0] and b[1] > a[1] and b[1] > c[1]
              and c[2] > a[2] and c[2] > b[2])
        if not ok:
            raise InvariantError(f"not a singularizing triple: {a}, {b}, {c}")

    def monomials(self) -> tuple[str, str, str]:
        return (monomial_str(self.a), monomial_str(self.b), monomial_str(self.c))


@dataclass(frozen=True)
class BGChainCert:
    """Broken Gorenstein structure without flips, as checkable data.

    multipliers f_1, ..., f_k are pure variable powers; quotient i is the
    monomial ideal of the i-th Gorenstein subquotient, i.e.
    (I : f_1...f_i) + (f_{i+1}), with the last quotient (I : f_1...f_k)
    itself Gorenstein.  Colengths of the quotients sum to the colength
    of the input ideal.
    """

    multipliers: tuple[ExponentVec, ...]
    quotients: tuple[MonomialIdeal3, ...]
    colengths: tuple[int, ...]

    def validate(self, ideal: MonomialIdeal3) -> None:
        if len(self.quotients) != len(self.multipliers) + 1:
            raise InvariantError("need one quotient more than multipliers")
        if sum(self.colengths) != ideal.colength:
            raise InvariantError("colengths do not add up")
        cur = ideal
        for i, q in enumerate(self.quotients):
            if len(mono3.socle(q)) != 1:
                raise InvariantError(f"quotient {i} is not Gorenstein")
            if q.colength != self.colengths[i]:
                raise InvariantError(f"quotient {i} has colength {q.colength}")
            if i < len(self.multipliers):
                f = self.multipliers[i]
                if q != mono3.add_monomial(cur, f):
                    raise InvariantError(f"quotient {i} is not J + ({monomial_str(f)})")
                cur = mono3.colon_by_monomial(cur, f)
            elif q != cur:
                raise InvariantError("last quotient is not the final colon ideal")


@dataclass(frozen=True)
class Classification:
    verdict: str  # "smooth" | "singular"
    chain: Optional[BGChainCert] = None
    triple: Optional[SingularizingTriple] = None
    excess_lower_bound: int = 0


def _peel(remaining: list[ExponentVec]) -> Iterator[tuple[ExponentVec, int]]:
    """The maxima peel of a sorted socle, removing each peeled element in place.

    Yields (s, k) where s is the lexicographically first element of
    `remaining` that attains the coordinate maxima in both coordinates
    other than k (the largest such k when s attains all three).  Stops when
    `remaining` is empty, or stuck: every element left attains at most
    one maximum, and `remaining` hands those elements back.
    """
    while remaining:
        mx, my, mz = map(max, zip(*remaining))
        for pos, s in enumerate(remaining):
            hx, hy, hz = s[0] == mx, s[1] == my, s[2] == mz
            if hx + hy + hz >= 2:
                break
        else:
            return
        del remaining[pos]
        yield s, (2 if hx and hy else 1 if hx else 0)


def _witness_triple(stuck: list[ExponentVec]) -> SingularizingTriple:
    """The per-coordinate maxima of a stuck peel (one maximum each)."""
    mx = tuple(map(max, zip(*stuck)))
    picks = [min(s for s in stuck if s[i] == mx[i]) for i in range(3)]
    return SingularizingTriple(a=picks[0], b=picks[1], c=picks[2])


def _unpeeled(ideal: MonomialIdeal3) -> list[ExponentVec]:
    """The socle elements left when the maxima peel stops; empty iff no triple."""
    remaining = list(mono3.socle(ideal))
    for _ in _peel(remaining):
        pass
    return remaining


def find_triple(ideal: MonomialIdeal3) -> Optional[SingularizingTriple]:
    """Some singularizing triple among the socle monomials, if one exists.

    The maxima peel, run until it stops: if it gets stuck, the
    per-coordinate maxima witnesses of the elements left form a triple.
    """
    remaining = _unpeeled(ideal)
    return _witness_triple(remaining) if remaining else None


def noflip_chain(ideal: MonomialIdeal3) -> BGChainCert:
    """Broken Gorenstein chain without flips for a triple-free ideal.

    Let the peel order the socle of I as s_1, ..., s_n, s_i not dominated
    in coordinate k_i, and let J_0 = I, J_i = (J_{i-1} : f_i).  Every later
    s_j exceeds s_i in coordinate k_i, so the socle of J_i is
    {s_{i+1}, ..., s_n} divided by f_1...f_i, and its peel takes the same
    steps.  So the multipliers are read off the one pass: with k = k_i and
    acc = f_1...f_{i-1}, f_i = x_k^(s_i[k] - acc[k] + 1).  J_{i-1} + (f_i)
    is Gorenstein with socle {s_i / acc}, and so is J_{n-1}, with socle
    {s_n / f_1...f_{n-1}}.
    """
    remaining = list(mono3.socle(ideal))
    steps = list(_peel(remaining))
    if remaining:
        raise HasTripleError(_witness_triple(remaining).monomials())
    multipliers: list[ExponentVec] = []
    quotients: list[MonomialIdeal3] = []
    acc = [0, 0, 0]
    cur = ideal
    for s, k in steps[:-1]:
        f = tuple(s[k] - acc[k] + 1 if i == k else 0 for i in range(3))
        acc[k] += f[k]
        multipliers.append(f)
        quotients.append(mono3.add_monomial(cur, f))
        cur = mono3.colon_by_monomial(cur, f)
    quotients.append(cur)
    cert = BGChainCert(multipliers=tuple(multipliers), quotients=tuple(quotients),
                       colengths=tuple(q.colength for q in quotients))
    cert.validate(ideal)
    return cert


def classify(ideal: MonomialIdeal3) -> Classification:
    """Smooth (with a no-flip chain) or singular (with a triple, excess >= 6)."""
    triple = find_triple(ideal)
    if triple is None:
        return Classification(verdict="smooth", chain=noflip_chain(ideal))
    return Classification(verdict="singular", triple=triple,
                          excess_lower_bound=SINGULAR_EXCESS_LOWER_BOUND)


def smooth_census(dmax: int) -> list[tuple[int, int, int]]:
    """Rows (d, total ideals, smooth ideals) for d = 1..dmax; InputError if dmax < 0.

    An ideal is smooth when the maxima peel empties its socle; no
    witness triple is built for the singular ones.
    """
    if dmax < 0:
        raise InputError("census bound must be >= 0")
    rows = []
    for d in range(1, dmax + 1):
        total = smooth = 0
        for ideal in mono3.enumerate_ideals(d):
            total += 1
            smooth += not _unpeeled(ideal)
        rows.append((d, total, smooth))
    return rows
