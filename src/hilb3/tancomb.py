"""Tangent space of a monomial point of Hilb^d(A^3), combinatorially.

The degree-a graded piece of Hom_S(I, S/I) has dimension equal to the
number of bounded connected components of (I+a) \\ I inside Z^3, where
adjacency is by unit steps and a component is bounded exactly when it
stays inside N^3.  Summing over all weights a that can support a nonzero
graded homomorphism gives the tangent dimension of [S/I].

Weights are bucketed by signature: each coordinate is classed p
("positive or zero") or n ("negative"); the constant classes ppp and nnn
carry no tangent vectors, leaving six signatures.  A weight is
doubly-negative when exactly two coordinates are negative; nonvanishing
in any doubly-negative signature forces the point to be singular.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .mono3 import MonomialIdeal3, ev_sub

SIGNATURES = ("ppn", "pnp", "npp", "nnp", "npn", "pnn")
DOUBLY_NEGATIVE = ("nnp", "npn", "pnn")


def signature_of(a: tuple[int, int, int]) -> str:
    """p for >= 0, n for < 0, per coordinate."""
    return "".join("p" if c >= 0 else "n" for c in a)


@dataclass(frozen=True)
class TangentReport:
    """Tangent dimension of a monomial point, split by weight signature.

    excess is total - 3d; it vanishes exactly at the smooth monomial
    points.  doubly_negative_weights lists the weights with at least one
    bounded component in the signatures nnp, npn, pnn.
    """

    colength: int
    by_signature: dict[str, int]
    total: int
    excess: int
    doubly_negative_weights: tuple[tuple[tuple[int, int, int], int], ...]


def bounded_components(ideal: MonomialIdeal3, a: tuple[int, int, int]) -> int:
    """Number of bounded connected components of (I+a) \\ I.

    Exploration runs over the part of the set inside N^3, which lies in
    the (finite) staircase; a component is discarded as unbounded the
    moment one of its neighbours inside the set leaves N^3.  Visited
    points are shared across seeds so no component is counted twice.
    """
    st = ideal.staircase
    in_ideal = ideal.__contains__

    def in_shifted_ideal(v: tuple[int, int, int]) -> bool:
        return in_ideal((v[0] - a[0], v[1] - a[1], v[2] - a[2]))

    seeds = sorted(v for v in st if in_shifted_ideal(v))
    visited: set[tuple[int, int, int]] = set()
    count = 0
    for s in seeds:
        if s in visited:
            continue
        visited.add(s)
        stack = [s]
        bounded = True
        while stack:
            v = stack.pop()
            for i in range(3):
                for step in (1, -1):
                    w = list(v)
                    w[i] += step
                    w = tuple(w)
                    if w[i] < 0:
                        # w is outside N^3 hence outside I; it belongs to the
                        # set iff w - a lies in I, and then the component is
                        # unbounded.
                        if in_shifted_ideal(w):
                            bounded = False
                        continue
                    if w in visited or w not in st or not in_shifted_ideal(w):
                        continue
                    visited.add(w)
                    stack.append(w)
        if bounded:
            count += 1
    return count


def weight_candidates(ideal: MonomialIdeal3) -> set[tuple[int, int, int]]:
    """All weights that can carry a nonzero graded homomorphism I -> S/I.

    A graded hom of degree a sends some minimal generator g to a nonzero
    multiple of the staircase monomial g + a, so a = m - g for some
    staircase m.  The zero weight never occurs (g is in I, m is not).
    """
    return {ev_sub(m, g) for m in ideal.staircase for g in ideal.mingens}


def tangent_report(ideal: MonomialIdeal3) -> TangentReport:
    """Sum bounded component counts over all candidate weights."""
    by_signature = {s: 0 for s in SIGNATURES}
    doubly_negative = []
    total = 0
    for a in sorted(weight_candidates(ideal)):
        n = bounded_components(ideal, a)
        if n == 0:
            continue
        sig = signature_of(a)
        # ppp weights cannot occur among candidates and nnn weights never
        # carry bounded components; both would indicate a bug.
        if sig not in by_signature:
            raise InvariantError(f"unexpected nonzero weight {a} ({sig})")
        by_signature[sig] += n
        total += n
        if sig in DOUBLY_NEGATIVE:
            doubly_negative.append((a, n))
    d = ideal.colength
    return TangentReport(colength=d, by_signature=by_signature, total=total,
                         excess=total - 3 * d,
                         doubly_negative_weights=tuple(doubly_negative))
