"""Zero-dimensional monomial ideals of k[x,y,z] as plane partitions.

A monomial x^a y^b z^c is identified with its exponent vector (a, b, c).
A finite-colength monomial ideal I is stored as its height array
heights[i][j] = #{k : x^i y^j z^k not in I}, a plane partition of the
colength; h(i, j) reads 0 off the array.  The rest is read off h
locally: the minimal generators are the corners (i, j, h(i, j)) where h
drops against both lower neighbours, the socle of S/I is the cells
(i, j, h(i, j) - 1) where h drops in both directions (read row against
row, with no bounds-checked lookups), and the staircase
(the exponent vectors outside I) is expanded only on demand, and so are
the per-ideal tables the two monomial tangent routes read, one each.
tancomb reads the staircase bits, the staircase on a padded bit grid:
with X x Y x Z its bounding box, cell (i, j, k) is bit i*sx + j*sy + k
for the strides sy = 2Z and sx = 2Y*sy, so each coordinate has a slot
twice its extent.  One integer shift, by off(a) = a0*sx + a1*sy + a2,
then moves every cell by a weight a with -X <= a0 < X, -Y <= a1 < Y and
-Z <= a2 < Z, and no cell that leaves the box lands on a cell; on that
range off(a) is injective and increasing in the lexicographic order, so
it keys the weight.  The tables (the staircase mask, the cells with a
coordinate >= t, the cells >= each cell) take O(d) big-integer
operations.  tanlin reads the pairwise generator lcms.

All colength-d ideals come from plane_partitions(d), a depth-first walk
with an explicit stack.  Each level runs through a cached tuple of the
candidate rows under the row above it; the tuples are kept by (largest
row sum that fits, row above), and only they are cached, never whole
lists of plane partitions.  MacMahon's product formula  prod_{i>=1} (1 - q^i)^{-i}
generates the counts of plane partitions and serves as an enumeration
oracle.

Exponent triples, and the helpers on them (ORIGIN, exp_lcm,
monomial_str), are poly3's.  Text is read with poly3's polynomial
grammar; a list of monic monomials is a monomial ideal.  The JSON form
lists exponent triples.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import poly3
from .errors import InputError, NotZeroDimensionalError, UnitIdealError
from .gfp import DEFAULT_PRIME
from .poly3 import ORIGIN, Exponent as ExponentVec, exp_lcm, monomial_str

_INF = float("inf")


class StaircaseBits(NamedTuple):
    """The staircase S on a padded bit grid; cell (i, j, k) is bit
    i*sx + j*sy + k.

    dims     (X, Y, Z), the staircase's bounding box
    strides  (sx, sy, 1) with sy = 2Z and sx = 2Y*sy
    mask     S, the bits of the cells
    ge       ge[c][t]: the cells whose coordinate c is >= t, for t from 0
             to the extent of coordinate c (where it is 0)
    cone     cone[n]: the cells >= the cell at bit n, for every cell

    Let a be a weight with -X <= a0 < X, -Y <= a1 < Y and -Z <= a2 < Z.
    Shifting by offset(a) moves a cell v to the bit of v + a when that
    lies in the box.  Otherwise the bit falls off the grid, or some slot
    reads at or past its extent (a slot is twice the extent wide, so a
    coordinate in [-n, 2n - 1) never wraps onto a cell's); it is never a
    cell.  On that range offset is injective and increasing in the
    lexicographic order, so it keys the weight, and weight inverts it.
    """

    dims: tuple[int, int, int]
    strides: tuple[int, int, int]
    mask: int
    ge: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    cone: dict[int, int]

    def offset(self, v: ExponentVec) -> int:
        """The shift of the weight v, or the bit of the cell v."""
        sx, sy, _ = self.strides
        return v[0] * sx + v[1] * sy + v[2]

    def weight(self, off: int) -> ExponentVec:
        """The weight in the grid range whose offset is off."""
        _, Y, Z = self.dims
        q, a2 = divmod(off + Z, self.strides[1])
        a0, a1 = divmod(q + Y, 2 * Y)
        return (a0, a1 - Y, a2 - Z)


def _at(heights, i: int, j: int):
    """h(i, j): 0 off the array, unbounded at a negative index."""
    if i < 0 or j < 0:
        return _INF
    return heights[i][j] if i < len(heights) and j < len(heights[i]) else 0


@dataclass(frozen=True)
class MonomialIdeal3:
    """A monomial ideal of k[x,y,z] of finite colength.

    heights          the canonical height array (positive entries, no
                     empty rows), the only stored field, so equality is
                     ideal equality
    mingens          minimal generators, sorted (derived, cached)
    staircase        exponent vectors outside the ideal (derived, cached)
    staircase_bits   the staircase on a padded bit grid (derived, cached)
    generator_lcms   lcms of the pairs of minimal generators (derived,
                     cached)
    colength         dim_k S/I, the sum of the heights
    """

    heights: tuple[tuple[int, ...], ...]

    def __contains__(self, v: tuple[int, int, int]) -> bool:
        """Monomial membership; a vector with a negative entry is never in I."""
        return v[0] >= 0 and v[1] >= 0 and v[2] >= 0 and v not in self.staircase

    @cached_property
    def staircase(self) -> frozenset[ExponentVec]:
        return frozenset((i, j, k) for i, row in enumerate(self.heights)
                         for j, h in enumerate(row) for k in range(h))

    @cached_property
    def mingens(self) -> tuple[ExponentVec, ...]:
        """Corners (i, j, h(i, j)) where h drops against both lower neighbours."""
        H = self.heights
        if not H:
            return (ORIGIN,)
        return tuple((i, j, h) for i in range(len(H) + 1)
                     for j in range(len(H[max(i - 1, 0)]) + 1)
                     if (h := _at(H, i, j)) < _at(H, i - 1, j) and h < _at(H, i, j - 1))

    @cached_property
    def staircase_bits(self) -> StaircaseBits:
        """The staircase on its padded bit grid (see StaircaseBits).

        The mask is one run of bits per column of the heights.  ge[c][t]
        is S & (S << t * stride_c): a cell v whose v - t e_c is a cell
        (S is closed downwards), which no shift by at most the extent
        can fake.  Each cone is ge[0][i] & ge[1][j] & ge[2][k].
        """
        H = self.heights
        X, Y, Z = len(H), len(H[0]) if H else 0, H[0][0] if H else 0
        sy = 2 * Z
        sx = 2 * Y * sy
        mask = 0
        for i, row in enumerate(H):
            for j, h in enumerate(row):
                mask |= ((1 << h) - 1) << (i * sx + j * sy)
        ge = tuple(tuple(mask & (mask << t * stride) for t in range(n + 1))
                   for n, stride in ((X, sx), (Y, sy), (Z, 1)))
        gx, gy, gz = ge
        cone = {}
        for i, row in enumerate(H):
            for j, h in enumerate(row):
                base, column = i * sx + j * sy, gx[i] & gy[j]
                for k in range(h):
                    cone[base + k] = column & gz[k]
        return StaircaseBits((X, Y, Z), (sx, sy, 1), mask, ge, cone)

    @cached_property
    def generator_lcms(self) -> tuple[tuple[int, int, ExponentVec], ...]:
        """(i, j, lcm(g_i, g_j)) for every pair i < j of minimal generators."""
        g = self.mingens
        return tuple((i, j, exp_lcm(g[i], g[j])) for j in range(len(g)) for i in range(j))

    @property
    def colength(self) -> int:
        return sum(map(sum, self.heights))

    @property
    def is_unit(self) -> bool:
        return not self.heights

    def __repr__(self) -> str:
        if self.is_unit:
            return "MonomialIdeal3(1)"
        gens = ", ".join(monomial_str(g) for g in self.mingens)
        return f"MonomialIdeal3({gens})"


#: Distinguished unit-ideal value, legal as a colon result only.
UNIT_IDEAL = MonomialIdeal3(())


def _canonical(rows: Iterable[tuple[int, ...]]) -> MonomialIdeal3:
    """The ideal of a height array whose empty rows all come last."""
    heights = tuple(row for row in rows if row)
    return MonomialIdeal3(heights) if heights else UNIT_IDEAL


def from_generators(gens: Iterable[ExponentVec]) -> MonomialIdeal3:
    """Build the ideal; generators need not be minimal.

    h(i, j) is the least g_z over generators g with g_x <= i, g_y <= j.
    Raises UnitIdealError if 1 is among the generators and
    NotZeroDimensionalError if some coordinate axis never enters the ideal.
    """
    gens = [(int(a), int(b), int(c)) for a, b, c in gens]
    if not gens:
        raise InputError("empty generator list")
    if min(itertools.chain.from_iterable(gens)) < 0:
        raise InputError(f"negative exponent in {gens}")
    # the variables each generator involves, as the bits 1, 2, 4 for x, y, z
    support = {(a > 0) + 2 * (b > 0) + 4 * (c > 0) for a, b, c in gens}
    if 0 in support:
        raise UnitIdealError("1 is a generator")
    missing = [name for name, bit in zip(poly3.VAR_NAMES, (1, 2, 4)) if bit not in support]
    if missing:
        raise NotZeroDimensionalError(
            f"no pure power of {', '.join(missing)} among the generators")
    # the least c over the generators (a, b, c), written last
    low = {(a, b): c for a, b, c in sorted(gens, reverse=True)}
    # h(i, j) = min(low(i, j), h(i - 1, j), h(i, j - 1)); row i - 1 ends
    # where h drops to 0, which ends row i too, and the pure powers end the
    # first row and the sweep
    rows: list[tuple[int, ...]] = []
    above = itertools.repeat(_INF)  # the row above row 0 is unbounded
    for i in itertools.count():
        row: list[int] = []
        h = _INF
        for j, up in enumerate(above):
            h = min(h, up, low.get((i, j), h))
            if not h:
                break
            row.append(h)
        if not row:
            return MonomialIdeal3(tuple(rows))
        rows.append(tuple(row))
        above = row


def socle(ideal: MonomialIdeal3) -> tuple[ExponentVec, ...]:
    """Maximal staircase elements, sorted; their number is the Gorenstein type.

    They are the cells (i, j, h - 1) where h drops in both directions:
    h is read against the next entry of its row and against the entry
    under it in the next row, row by row, so the cells come out sorted.
    """
    H = ideal.heights
    out = []
    for i, row in enumerate(H):
        below = H[i + 1] if i + 1 < len(H) else ()
        last, under = len(row) - 1, len(below)
        for j, h in enumerate(row):
            if (j == last or h > row[j + 1]) and (j >= under or h > below[j]):
                out.append((i, j, h - 1))
    return tuple(out)


def colon_by_monomial(ideal: MonomialIdeal3, f: ExponentVec) -> MonomialIdeal3:
    """(I : f); for f = (a, b, c) its heights are max(0, h(i + a, j + b) - c).

    Returns the distinguished UNIT_IDEAL value when f lies in I.
    """
    a, b, c = f
    return _canonical(tuple(h - c for h in row[b:] if h > c) for row in ideal.heights[a:])


def add_monomial(ideal: MonomialIdeal3, f: ExponentVec) -> MonomialIdeal3:
    """I + (f); for f = (a, b, c) it clips h to c on i >= a, j >= b."""
    a, b, c = f
    # with c = 0 the clipped part of a row is dropped
    return _canonical(row if i < a else row[:b] + tuple(min(h, c) for h in row[b:] if c)
                      for i, row in enumerate(ideal.heights))


def macmahon_series(n: int) -> list[int]:
    """Coefficients of q^0..q^n of prod_{i>=1} (1-q^i)^(-i)."""
    if n < 0:
        raise InputError("series order must be >= 0")
    c = [1] + [0] * n
    for i in range(1, n + 1):
        for _ in range(i):
            for k in range(i, n + 1):
                c[k] += c[k - i]
    return c


@functools.cache
def _partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k as nonincreasing tuples, largest first part first."""
    def rec(remaining: int, maxpart: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
        for v in range(min(maxpart, remaining), 0, -1):
            for rest in rec(remaining - v, v):
                yield (v,) + rest
    return tuple(rec(k, k))


@functools.lru_cache(maxsize=1 << 13)
def _candidate_rows(top: int, bound: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The partitions of each k = top, ..., 1 that fit pointwise under `bound`.

    The rows a plane partition can take next under the row `bound` when
    `top` cells are left (at most sum(bound)).  The enumeration up to
    d = 16 asks for 2228 of these tuples, and up to d = 19 for 5724.
    """
    return tuple(p for k in range(top, 0, -1) for p in _partitions(k)
                 if len(p) <= len(bound) and all(v <= b for v, b in zip(p, bound)))


def plane_partitions(d: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Plane partitions of d as tuples of rows, largest row readings first.

    Rows are nonincreasing, and each row is pointwise bounded by the one
    above it, so entries are nonincreasing along rows and columns.  A
    depth-first walk with an explicit stack: each level runs through the
    cached candidate rows under the row above it (the first level under
    (d, ..., d)), and a row that takes all the cells left ends a plane
    partition.
    """
    if d == 0:
        yield ()
    rows: list[tuple[int, ...]] = []
    stack = [(iter(_candidate_rows(d, (d,) * d)), d)]
    while stack:
        level, remaining = stack[-1]
        row = next(level, None)
        if row is None:
            stack.pop()
            if rows:
                rows.pop()
            continue
        rest = remaining - sum(row)
        if rest:
            rows.append(row)
            stack.append((iter(_candidate_rows(min(rest, remaining - rest), row)), rest))
        else:
            yield (*rows, row)


def ideal_from_plane_partition(pp: tuple[tuple[int, ...], ...]) -> MonomialIdeal3:
    """The ideal whose height array is the plane partition pp, a tuple of
    row tuples (as plane_partitions yields them), wrapped as given."""
    return MonomialIdeal3(pp)


def enumerate_ideals(d: int) -> Iterator[MonomialIdeal3]:
    """All colength-d monomial ideals, one per plane partition of d."""
    if d < 1:
        raise InputError("colength must be >= 1")
    for pp in plane_partitions(d):
        yield ideal_from_plane_partition(pp)


# ---------------------------------------------------------------------------
# text / JSON input formats
# ---------------------------------------------------------------------------

_RING = poly3.PolyRing(DEFAULT_PRIME)


def first_non_monomial(gens: Iterable[poly3.Poly]) -> poly3.Poly | None:
    """The first polynomial that is not a monic monomial, or None."""
    return next((g for g in gens if len(g.terms) != 1 or 1 not in g.terms.values()), None)


def from_monomials(gens: Sequence[poly3.Poly]) -> MonomialIdeal3:
    """The ideal of monic monomials in x, y, z (see from_generators);
    InputError names the first generator that is not one."""
    bad = first_non_monomial(gens)
    if bad is not None:
        raise InputError(f"{poly3.poly_str(bad)!r} is not a monic monomial")
    return from_generators(e for g in gens for e in g.terms)


def parse_monomial_ideal(text: str) -> MonomialIdeal3:
    """Parse "x^2, x*y, x*z, y^2, y*z, z^3" with poly3's grammar."""
    return from_monomials(poly3.parse_ideal(text, _RING).gens)


def parse_exponent_json(text: str) -> MonomialIdeal3:
    """Parse the JSON exponent-triple form [[2,0,0],[1,1,0],...]."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from exc
    if (not isinstance(data, list) or not data
            or not all(isinstance(g, list) and len(g) == 3
                       and all(type(e) is int and e >= 0 for e in g) for g in data)):
        raise InputError("expected a nonempty list of 3 nonnegative integers each")
    return from_generators(tuple(g) for g in data)
