"""Tangent space of a monomial point of Hilb^d(A^3), combinatorially.

The degree-a graded piece of Hom_S(I, S/I) has dimension equal to the
number of bounded connected components of (I+a) \\ I inside Z^3, where
adjacency is by unit steps and a component is bounded exactly when it
stays inside N^3.  Summing over all weights a that can support a nonzero
graded homomorphism gives the tangent dimension of [S/I].  The count runs
on the ideal's staircase bits, the staircase S on a padded bit grid
where one shift by the integer off(a) moves every cell by a (see
mono3.StaircaseBits).  The cells of (I+a) \\ I in N^3 are T = ge(a) &
~shift(S, off(a)): v >= a componentwise with v - a outside S.  A
component is unbounded when it holds a cell v with v_k = 0, a_k < 0 and
v - e_k - a in I, so that its neighbour v - e_k, outside N^3, lies in
I+a; those cells make up the leak mask.

T is closed upwards in S: if v is in T and w in S has w >= v, then
w - a >= v - a lies in I.  So the cone of cells >= a cell of T lies in T
and is connected (walk down from w to v), T is the union of the cones of
its minimal cells, and a cell of T one step above a cone lies in it.
Hence two minimal cells share a component exactly when a chain of their
cones meets, each component is the union of the cones of one class, and
it counts when that union misses the leak mask.

Weights are bucketed by signature: each coordinate is classed p
("positive or zero") or n ("negative"); the constant classes ppp and nnn
carry no tangent vectors, leaving six signatures.  A weight is
doubly-negative when exactly two coordinates are negative; nonvanishing
in any doubly-negative signature forces the point to be singular.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .mono3 import MonomialIdeal3, StaircaseBits

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


def _bounded_at(bits: StaircaseBits, off: int) -> int:
    """Bounded components of (I+a) \\ I for the weight a keyed by off.

    off must lie in the grid range (see StaircaseBits).  T = ge(a) &
    ~shift(S, off); the leak through coordinate k, for a_k < 0, is the
    cells of T on the plane v_k = 0 with v - e_k - a in I, that is outside
    shift(S, off + stride_k).  The minimal cells of T have no unit step
    down in T; their cones are merged into classes as they meet, and each
    class that misses the leak counts.
    """
    (_, Y, Z), (sx, sy, _), S, (gx, gy, gz), cone = bits
    # a = (a0, a1, a2), unpacked as StaircaseBits.weight does
    q, a2 = divmod(off + Z, sy)
    a0, a1 = divmod(q + Y, 2 * Y)
    a1 -= Y
    a2 -= Z
    todo = S & ~(S << off if off >= 0 else S >> -off)
    if a0 > 0:
        todo &= gx[a0]
    if a1 > 0:
        todo &= gy[a1]
    if a2 > 0:
        todo &= gz[a2]
    if not todo:
        return 0
    # the leak is left unmasked by todo: it is only ever tested against todo
    # or a class of it
    leak = 0
    if a0 < 0:
        o = off + sx
        leak = ~(gx[1] | (S << o if o >= 0 else S >> -o))
    if a1 < 0:
        o = off + sy
        leak |= ~(gy[1] | (S << o if o >= 0 else S >> -o))
    if a2 < 0:
        o = off + 1
        leak |= ~(gz[1] | (S << o if o >= 0 else S >> -o))
    mins = todo & ~(todo << 1 | todo << sy | todo << sx)
    if not mins & (mins - 1):
        return int(not todo & leak)
    classes: list[int] = []
    while mins:
        low = mins & -mins
        mins ^= low
        comp = cone[low.bit_length() - 1]
        rest = []
        for c in classes:
            if c & comp:
                comp |= c
            else:
                rest.append(c)
        rest.append(comp)
        classes = rest
    return sum(not c & leak for c in classes)


def bounded_components(ideal: MonomialIdeal3, a: tuple[int, int, int]) -> int:
    """Number of bounded connected components of (I+a) \\ I.

    0 outside the grid range -X <= a0 < X, -Y <= a1 < Y, -Z <= a2 < Z of
    the staircase's X x Y x Z box: there, either some a_k is at least the
    extent, so no staircase cell v has v >= a, or some a_k < -extent_k.
    In that case v - a and v - e_k - a both lie past the box in
    coordinate k, so each is in I exactly when it is in N^3, and both are
    when v is in the set; the column below a cell of the set stays in it
    down to v_k = 0, where it leaks.
    """
    bits = ideal.staircase_bits
    if not all(-n <= t < n for t, n in zip(a, bits.dims)):
        return 0
    return _bounded_at(bits, bits.offset(a))


def weight_candidates(ideal: MonomialIdeal3) -> set[tuple[int, int, int]]:
    """All weights that can carry a nonzero graded homomorphism I -> S/I.

    A graded hom of degree a sends some minimal generator g to a nonzero
    multiple of the staircase monomial g + a, so a = m - g for some
    staircase m.  The zero weight never occurs (g is in I, m is not).
    """
    gens = ideal.mingens
    return {(x - u, y - v, z - w) for x, y, z in ideal.staircase for u, v, w in gens}


def tangent_report(ideal: MonomialIdeal3) -> TangentReport:
    """Sum bounded component counts over all candidate weights, the
    weight_candidates keyed by their grid offsets.

    Raises InvariantError on an odd excess: at a monomial point
    dim T = d (mod 2) (Maulik-Nekrasov-Okounkov-Pandharipande 2006).
    """
    bits = ideal.staircase_bits
    gens = [bits.offset(g) for g in ideal.mingens]
    count, weight = _bounded_at, bits.weight
    by_signature = {s: 0 for s in SIGNATURES}
    doubly_negative = []
    dims = {}
    # each cell m and generator g give the weight m - g; in the grid range
    # its key is the difference of their bits, and keys sort as weights do
    for off in sorted({m - g for m in bits.cone for g in gens}):
        n = count(bits, off)
        if n == 0:
            continue
        a = weight(off)
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
