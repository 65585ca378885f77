"""Tangent space of a monomial point of Hilb^d(A^3), combinatorially.

The degree-a graded piece of Hom_S(I, S/I) has dimension equal to the
number of bounded connected components of (I+a) \\ I inside Z^3, where
adjacency is by unit steps and a component is bounded exactly when it
stays inside N^3.  Summing over all weights a that can support a nonzero
graded homomorphism gives the tangent dimension of [S/I].  The search
runs on the ideal's cached staircase graph; a cell v is in I+a when
v >= a componentwise and v - a is outside the staircase, tested inline.

Weights are bucketed by signature: each coordinate is classed p
("positive or zero") or n ("negative"); the constant classes ppp and nnn
carry no tangent vectors, leaving six signatures.  A weight is
doubly-negative when exactly two coordinates are negative; nonvanishing
in any doubly-negative signature forces the point to be singular.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .mono3 import MonomialIdeal3
from .poly3 import exp_sub

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
    bounded component in the signatures nnp, npn, pnn.  dims maps each
    weight with a bounded component to their number, in sorted order.
    """

    colength: int
    by_signature: dict[str, int]
    total: int
    excess: int
    doubly_negative_weights: tuple[tuple[tuple[int, int, int], int], ...]
    dims: dict[tuple[int, int, int], int]


def bounded_components(ideal: MonomialIdeal3, a: tuple[int, int, int]) -> int:
    """Number of bounded connected components of (I+a) \\ I.

    Exploration runs over the part of the set inside N^3, which lies in
    the (finite) staircase, along the ideal's cached staircase graph; a
    component is unbounded when a neighbour with a negative entry lies in
    I+a (it is outside N^3, hence outside I).  Only the membership of each
    cell v in I+a depends on a, and it is decided inline: v >= a
    componentwise and v - a outside the staircase.
    """
    cells, adjacent, outside = ideal.staircase_graph
    stair = ideal.staircase
    a0, a1, a2 = a
    # todo[n]: cells[n] lies in (I+a) \ I and no search has reached it yet
    todo = [x >= a0 and y >= a1 and z >= a2 and (x - a0, y - a1, z - a2) not in stair
            for x, y, z in cells]
    count = 0
    for s, seed in enumerate(todo):
        if not seed:
            continue
        todo[s] = False
        stack = [s]
        bounded = True
        while stack:
            n = stack.pop()
            if bounded:
                for x, y, z in outside[n]:
                    if x >= a0 and y >= a1 and z >= a2 and (x - a0, y - a1, z - a2) not in stair:
                        bounded = False
                        break
            for m in adjacent[n]:
                if todo[m]:
                    todo[m] = False
                    stack.append(m)
        count += bounded
    return count


def weight_candidates(ideal: MonomialIdeal3) -> set[tuple[int, int, int]]:
    """All weights that can carry a nonzero graded homomorphism I -> S/I.

    A graded hom of degree a sends some minimal generator g to a nonzero
    multiple of the staircase monomial g + a, so a = m - g for some
    staircase m.  The zero weight never occurs (g is in I, m is not).
    """
    return {exp_sub(m, g) for m in ideal.staircase for g in ideal.mingens}


def tangent_report(ideal: MonomialIdeal3) -> TangentReport:
    """Sum bounded component counts over all candidate weights.

    Raises InvariantError on an odd excess: at a monomial point
    dim T = d (mod 2) (Maulik-Nekrasov-Okounkov-Pandharipande 2006).
    """
    by_signature = {s: 0 for s in SIGNATURES}
    doubly_negative = []
    dims = {}
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
        dims[a] = n
        if sig in DOUBLY_NEGATIVE:
            doubly_negative.append((a, n))
    d = ideal.colength
    total = sum(dims.values())
    if (total - d) % 2:
        raise InvariantError(f"dim T = {total} and colength {d} differ in parity")
    return TangentReport(colength=d, by_signature=by_signature, total=total,
                         excess=total - 3 * d,
                         doubly_negative_weights=tuple(doubly_negative), dims=dims)
