"""Tangent space of a monomial point of Hilb^d(A^3), combinatorially.

The degree-a graded piece of Hom_S(I, S/I) has dimension equal to the
number of bounded connected components of (I+a) \\ I inside Z^3, where
adjacency is by unit steps and a component is bounded exactly when it
stays inside N^3.  Summing over all weights a that can support a nonzero
graded homomorphism gives the tangent dimension of [S/I].  The search
runs on bitmasks over the ideal's cached staircase bits: the cells of
(I+a) \\ I are ge(a) & ~blocked[a] (v >= a componentwise, v - a outside
the staircase), a flood fill through the neighbour masks splits them into
components, and the leak rule marks a component unbounded when it holds
a cell v with v_k = 0, a_k < 0 and v - e_k - a in I, so that its
neighbour v - e_k, outside N^3, lies in I+a.

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

SIGNATURES = ("ppn", "pnp", "npp", "nnp", "npn", "pnn")
DOUBLY_NEGATIVE = ("nnp", "npn", "pnn")


# the signature of every sign pattern, indexed by the bits (a0 < 0, a1 < 0, a2 < 0)
_SIGNATURE_BY_SIGNS = tuple("".join("n" if bits >> (2 - k) & 1 else "p" for k in range(3))
                            for bits in range(8))


def signature_of(a: tuple[int, int, int]) -> str:
    """p for >= 0, n for < 0, per coordinate."""
    return _SIGNATURE_BY_SIGNS[(a[0] < 0) << 2 | (a[1] < 0) << 1 | (a[2] < 0)]


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

    The part of the set inside N^3 lies in the (finite) staircase; on the
    ideal's cached staircase bits it is M = ge(a) & ~blocked[a], the cells
    v >= a with v - a outside the staircase.  A component is unbounded
    when one of its cells v, with v_k = 0 and a_k < 0, has its neighbour
    v - e_k (outside N^3, hence outside I) in I+a, that is v - e_k - a in
    I: those cells make up the leak mask, face[k] & ge(a + e_k) &
    ~blocked[a + e_k], where ge(a + e_k) bounds no cell in coordinate k,
    as a_k + 1 <= 0.
    Components are flood-filled through adj from the lowest bit left, and
    each one that misses the leak counts.
    """
    _, adj, (gx, gy, gz), blocked, face = ideal.staircase_bits
    a0, a1, a2 = a
    # ge(a) per coordinate, clamped: every cell below a table, none above it
    cx = gx[a0] if 0 <= a0 < len(gx) else gx[0] if a0 < 0 else 0
    cy = gy[a1] if 0 <= a1 < len(gy) else gy[0] if a1 < 0 else 0
    cz = gz[a2] if 0 <= a2 < len(gz) else gz[0] if a2 < 0 else 0
    todo = cx & cy & cz & ~blocked.get(a, 0)
    if not todo:
        return 0
    leak = 0
    if a0 < 0:
        leak |= face[0] & cy & cz & ~blocked.get((a0 + 1, a1, a2), 0)
    if a1 < 0:
        leak |= face[1] & cx & cz & ~blocked.get((a0, a1 + 1, a2), 0)
    if a2 < 0:
        leak |= face[2] & cx & cy & ~blocked.get((a0, a1, a2 + 1), 0)
    count = 0
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & todo & ~comp
            comp |= new
            frontier |= new
        todo &= ~comp
        count += not comp & leak
    return count


def weight_candidates(ideal: MonomialIdeal3) -> set[tuple[int, int, int]]:
    """All weights that can carry a nonzero graded homomorphism I -> S/I.

    A graded hom of degree a sends some minimal generator g to a nonzero
    multiple of the staircase monomial g + a, so a = m - g for some
    staircase m.  The zero weight never occurs (g is in I, m is not).
    """
    gens = ideal.mingens
    return {(x - u, y - v, z - w) for x, y, z in ideal.staircase for u, v, w in gens}


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
