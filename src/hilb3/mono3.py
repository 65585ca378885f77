"""Zero-dimensional monomial ideals of k[x,y,z] as plane partitions.

A monomial x^a y^b z^c is identified with its exponent vector (a, b, c).
A finite-colength monomial ideal I is stored as its height array
heights[i][j] = #{k : x^i y^j z^k not in I}, a plane partition of the
colength; h(i, j) reads 0 off the array.  The rest is read off h
locally: the minimal generators are the corners (i, j, h(i, j)) where h
drops against both lower neighbours, the socle of S/I is the cells
(i, j, h(i, j) - 1) where h drops in both directions, and the staircase
(the exponent vectors outside I) is expanded only on demand.

MacMahon's product formula  prod_{i>=1} (1 - q^i)^{-i}  generates the
counts of plane partitions and serves as an enumeration oracle.
"""
from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InputError, NotZeroDimensionalError, UnitIdealError

ExponentVec = tuple[int, int, int]

ORIGIN: ExponentVec = (0, 0, 0)
VAR_NAMES = ("x", "y", "z")
_INF = float("inf")


def ev_sub(a: ExponentVec, b: ExponentVec) -> tuple[int, int, int]:
    """Componentwise difference; may be negative (a signed triple)."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def monomial_str(a: ExponentVec) -> str:
    """Render (1,0,2) as "x*z^2"; the zero vector renders as "1"."""
    parts = []
    for name, e in zip(VAR_NAMES, a):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _at(heights, i: int, j: int):
    """h(i, j): 0 off the array, unbounded at a negative index."""
    if i < 0 or j < 0:
        return _INF
    return heights[i][j] if i < len(heights) and j < len(heights[i]) else 0


@dataclass(frozen=True)
class MonomialIdeal3:
    """A monomial ideal of k[x,y,z] of finite colength.

    heights    the canonical height array (positive entries, no empty
               rows), the only stored field, so equality is ideal equality
    mingens    minimal generators, sorted (derived, cached)
    staircase  exponent vectors outside the ideal (derived, cached)
    colength   dim_k S/I, the sum of the heights
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
    gens = [tuple(int(e) for e in g) for g in gens]
    if not gens:
        raise InputError("empty generator list")
    if any(min(g) < 0 for g in gens):
        raise InputError(f"negative exponent in {gens}")
    if ORIGIN in gens:
        raise UnitIdealError("1 is a generator")
    missing = [VAR_NAMES[i] for i in range(3) if not any(g[i] == sum(g) for g in gens)]
    if missing:
        raise NotZeroDimensionalError(
            f"no pure power of {', '.join(missing)} among the generators")
    low: dict[tuple[int, int], int] = {}
    for a, b, c in gens:
        low[a, b] = min(c, low.get((a, b), c))
    # the pure powers keep every h finite and end the sweep
    rows: list[tuple[int, ...]] = []
    for i in itertools.count():
        row: list[int] = []
        for j in itertools.count():
            h = min(low.get((i, j), _INF), _at(rows, i - 1, j), row[-1] if row else _INF)
            if not h:
                break
            row.append(h)
        if not row:
            return MonomialIdeal3(tuple(rows))
        rows.append(tuple(row))


def socle(ideal: MonomialIdeal3) -> tuple[ExponentVec, ...]:
    """Maximal staircase elements, sorted; their number is the Gorenstein type.

    They are the cells (i, j, h - 1) where h drops in both directions.
    """
    H = ideal.heights
    return tuple((i, j, h - 1) for i, row in enumerate(H) for j, h in enumerate(row)
                 if h > _at(H, i + 1, j) and h > _at(H, i, j + 1))


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


def is_strongly_stable(ideal: MonomialIdeal3) -> bool:
    """True iff (x_i/x_j) m stays in I for every generator m, x_j | m, i < j.

    The variable order is x > y > z.
    """
    for m in ideal.mingens:
        for j in range(3):
            if m[j] == 0:
                continue
            for i in range(j):
                shifted = list(m)
                shifted[j] -= 1
                shifted[i] += 1
                if tuple(shifted) not in ideal:
                    return False
    return True


def hilbert_function(ideal: MonomialIdeal3) -> tuple[int, ...]:
    """Counts of staircase monomials by total degree, trailing zeros trimmed.

    Column (i, j) holds one monomial in each degree i + j, ..., i + j + h - 1.
    """
    hf: list[int] = []
    for i, row in enumerate(ideal.heights):
        for j, h in enumerate(row):
            hf.extend([0] * (i + j + h - len(hf)))
            for k in range(i + j, i + j + h):
                hf[k] += 1
    return tuple(hf)


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


def _partitions_bounded(total: int, bound: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Nonincreasing positive tuples summing to `total`, pointwise <= bound."""
    def rec(remaining: int, maxpart: int, j: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if j >= len(bound):
            return
        for v in range(min(maxpart, bound[j], remaining), 0, -1):
            for rest in rec(remaining - v, v, j + 1):
                yield (v,) + rest
    yield from rec(total, total, 0)


def plane_partitions(d: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Plane partitions of d as tuples of rows, largest row readings first.

    Rows are nonincreasing, and each row is pointwise bounded by the one
    above it, so entries are nonincreasing along rows and columns.
    """
    def rec(remaining: int, bound: tuple[int, ...]) -> Iterator[tuple]:
        if remaining == 0:
            yield ()
            return
        for k in range(min(remaining, sum(bound)), 0, -1):
            for row in _partitions_bounded(k, bound):
                for rest in rec(remaining - k, row):
                    yield (row,) + rest
    yield from rec(d, tuple([d] * d))


def ideal_from_plane_partition(pp: Iterable[Iterable[int]]) -> MonomialIdeal3:
    """The ideal whose height array is the plane partition pp."""
    return MonomialIdeal3(tuple(map(tuple, pp)))


def enumerate_ideals(d: int) -> Iterator[MonomialIdeal3]:
    """All colength-d monomial ideals, one per plane partition of d."""
    if d < 1:
        raise InputError("colength must be >= 1")
    for pp in plane_partitions(d):
        yield ideal_from_plane_partition(pp)


# ---------------------------------------------------------------------------
# text / JSON input formats
# ---------------------------------------------------------------------------

_MONO_TOKEN = re.compile(r"\s*(?:([xyz])(?:\s*\^\s*(\d+))?|(\*)|(1))\s*")


def parse_monomial(text: str) -> ExponentVec:
    """Parse a single monomial like "x^2", "x*y", "xy" or "1"."""
    exps = [0, 0, 0]
    pos = 0
    seen = False
    while pos < len(text):
        m = _MONO_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise InputError(f"bad monomial {text!r} at position {pos}")
        var, power, _star, one = m.group(1), m.group(2), m.group(3), m.group(4)
        if var:
            exps[VAR_NAMES.index(var)] += int(power) if power else 1
            seen = True
        elif one:
            seen = True
        pos = m.end()
    if not seen:
        raise InputError(f"empty monomial in {text!r}")
    return tuple(exps)


def parse_monomial_ideal(text: str) -> MonomialIdeal3:
    """Parse "x^2, x*y, x*z, y^2, y*z, z^3" into an ideal."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError("no generators given")
    return from_generators(parse_monomial(p) for p in parts)


def parse_exponent_json(text: str) -> MonomialIdeal3:
    """Parse the JSON exponent-triple form [[2,0,0],[1,1,0],...]."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from exc
    if (not isinstance(data, list) or not data
            or not all(isinstance(g, list) and len(g) == 3
                       and all(isinstance(e, int) and e >= 0 for e in g) for g in data)):
        raise InputError("expected a nonempty list of 3 nonnegative integers each")
    return from_generators(tuple(g) for g in data)
