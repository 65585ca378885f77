"""Smooth/singular classification of monomial points and the smooth census.

A singularizing triple is a set of three socle monomials a, b, c with

    a1 > b1, c1     b2 > a2, c2     c3 > a3, b3.

A monomial point of Hilb^d(A^3) is smooth exactly when no such triple
exists, and in that case the socle monomials can be ordered so that each
dominates all later ones in two coordinates; peeling off pure powers of
the remaining variable produces a flag of principal ideals with
Gorenstein subquotients (a broken Gorenstein structure without flips),
which this module emits as a checkable certificate.  When a triple does
exist, every doubly-negative signature carries a tangent vector and the
tangent dimension is at least 3d + 6.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import mono3
from .errors import HasTripleError, InvariantError
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
            raise ValueError(f"not a singularizing triple: {a}, {b}, {c}")

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


def _max_coords(elems: Iterable[ExponentVec]) -> list[int]:
    return [max(s[i] for s in elems) for i in range(3)]


def _greedy_step(remaining: list[ExponentVec]):
    """One step of the per-coordinate-maxima ordering.

    Returns (element, dominated coordinate pair, non-dominated coordinate)
    or None when every remaining element attains at most one coordinate
    maximum, in which case a singularizing triple exists.
    """
    mx = _max_coords(remaining)
    for s in sorted(remaining):  # lexicographic tie-break, deterministic
        hits = [i for i in range(3) if s[i] == mx[i]]
        if len(hits) >= 2:
            # With several valid pairs, drop the largest non-dominated index.
            k = max(i for i in range(3)
                    if all(j in hits for j in range(3) if j != i))
            pair = tuple(j for j in range(3) if j != k)
            return s, pair, k
    return None


def _witness_triple(remaining: list[ExponentVec]) -> SingularizingTriple:
    """Extract a triple from a stuck greedy step (one maximum each)."""
    mx = _max_coords(remaining)
    picks = [min(s for s in remaining if s[i] == mx[i]) for i in range(3)]
    return SingularizingTriple(a=picks[0], b=picks[1], c=picks[2])


def find_triple(ideal: MonomialIdeal3) -> Optional[SingularizingTriple]:
    """Some singularizing triple among the socle monomials, if one exists.

    Runs the maxima-peeling order; whenever it gets stuck, the three
    per-coordinate maxima witnesses of the remaining set form a triple.
    """
    remaining = list(mono3.socle(ideal))
    while len(remaining) >= 3:
        step = _greedy_step(remaining)
        if step is None:
            return _witness_triple(remaining)
        remaining.remove(step[0])
    return None


def socle_order(ideal: MonomialIdeal3) -> list[tuple[ExponentVec, tuple[int, int]]]:
    """Order the socle so each element dominates all later ones twice.

    Each entry is (socle monomial, pair of dominating coordinates); the
    element is strictly smaller than all later ones in the remaining
    coordinate.  Raises HasTripleError when no such order exists.
    """
    remaining = list(mono3.socle(ideal))
    order = []
    while remaining:
        step = _greedy_step(remaining)
        if step is None:
            raise HasTripleError(_witness_triple(remaining).monomials())
        s, pair, _k = step
        order.append((s, pair))
        remaining.remove(s)
    return order


def noflip_chain(ideal: MonomialIdeal3) -> BGChainCert:
    """Broken Gorenstein chain without flips for a triple-free ideal.

    Repeatedly take the leading socle monomial s of the current ideal J,
    with non-dominated coordinate k; then J + (x_k^(s_k + 1)) is
    Gorenstein with socle {s}, and the tail of the chain is the chain of
    (J : x_k^(s_k + 1)).
    """
    multipliers: list[ExponentVec] = []
    quotients: list[MonomialIdeal3] = []
    colengths: list[int] = []
    cur = ideal
    while True:
        soc = mono3.socle(cur)
        if len(soc) == 1:
            quotients.append(cur)
            colengths.append(cur.colength)
            break
        step = _greedy_step(list(soc))
        if step is None:
            raise HasTripleError(_witness_triple(list(soc)).monomials())
        s, _pair, k = step
        f = tuple(s[k] + 1 if i == k else 0 for i in range(3))
        multipliers.append(f)
        q = mono3.add_monomial(cur, f)
        quotients.append(q)
        colengths.append(q.colength)
        cur = mono3.colon_by_monomial(cur, f)
    cert = BGChainCert(multipliers=tuple(multipliers), quotients=tuple(quotients),
                       colengths=tuple(colengths))
    cert.validate(ideal)
    return cert


def classify(ideal: MonomialIdeal3) -> Classification:
    """Smooth (with a no-flip chain) or singular (with a triple, excess >= 6)."""
    triple = find_triple(ideal)
    if triple is None:
        return Classification(verdict="smooth", chain=noflip_chain(ideal))
    return Classification(verdict="singular", triple=triple,
                          excess_lower_bound=SINGULAR_EXCESS_LOWER_BOUND)


def _census_chunk(ideals: list[MonomialIdeal3]) -> int:
    return sum(1 for ideal in ideals if find_triple(ideal) is None)


def smooth_census(dmax: int, workers: int = 1) -> list[tuple[int, int, int]]:
    """Rows (d, total ideals, smooth ideals) for d = 1..dmax."""
    rows = []
    for d in range(1, dmax + 1):
        ideals = list(mono3.enumerate_ideals(d))
        if workers > 1 and len(ideals) >= 4 * workers:
            import multiprocessing

            chunks = [ideals[i::workers] for i in range(workers)]
            with multiprocessing.Pool(workers) as pool:
                smooth = sum(pool.map(_census_chunk, chunks))
        else:
            smooth = _census_chunk(ideals)
        rows.append((d, len(ideals), smooth))
    return rows


def census_csv(rows: list[tuple[int, int, int]]) -> str:
    lines = ["d,total_ideals,smooth_ideals"]
    lines += [f"{d},{total},{smooth}" for d, total, smooth in rows]
    return "\n".join(lines) + "\n"
