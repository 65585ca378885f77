"""Pfaffians of skew-symmetric polynomial matrices and layered ideals.

An odd-size skew-symmetric matrix A has submaximal Pfaffians Pf(A)_i,
the Pfaffians of A with row and column i removed; they generate a
codimension-3 Gorenstein ideal when they cut out a finite scheme.  Given
matrices A_0, ..., A_k of odd sizes, setting alpha_{i+1} = Pf(A_i)_1 the
ideal

    Pf(A_0)_{>=2} + alpha_1 Pf(A_1)_{>=2} + ...
        + alpha_1 ... alpha_{k-1} Pf(A_{k-1})_{>=2}
        + alpha_1 ... alpha_k Pf(A_k)

carries a flag of principal ideals with Gorenstein subquotients
S/Pf(A_i); its colength is the sum of the layer colengths.  The
constructor validates both facts and reports them.

Sign convention: Pf([[0, a], [-a, 0]]) = a, with recursive first-row
expansion; the generated ideals do not depend on it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import duality, poly3
from .errors import EvenSizeError, InputError
from .poly3 import Poly, PolyIdeal, PolyRing


@dataclass(frozen=True)
class SkewMatrix:
    """Skew-symmetric matrix stored by its strict upper triangle."""

    n: int
    upper: tuple[tuple[tuple[int, int], Poly], ...]  # ((i, j), entry), i < j

    @classmethod
    def from_upper_rows(cls, n: int, entries: Sequence[Poly]) -> "SkewMatrix":
        """Row-major upper triangle: (0,1), (0,2), ..., (0,n-1), (1,2), ..."""
        if n < 2:
            raise InputError(f"a skew matrix needs size n >= 2, got {n}")
        want = n * (n - 1) // 2
        if len(entries) != want:
            raise InputError(f"expected {want} upper entries for size {n}, got {len(entries)}")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return cls(n=n, upper=tuple(zip(pairs, entries)))

    @cached_property
    def _table(self) -> dict[tuple[int, int], Poly]:
        return dict(self.upper)

    def entry(self, i: int, j: int) -> Poly:
        if i > j:
            return -self.entry(j, i)
        return self._table.get((i, j), self.ring.zero())

    @property
    def ring(self) -> PolyRing:
        return self.upper[0][1].ring


def _pfaffian(a: SkewMatrix, indices: tuple[int, ...], cache: dict) -> Poly:
    """Pf of the submatrix on the increasing indices, expanded along its
    first row; cache maps index tuples to their Pfaffians."""
    if not indices:
        return a.ring.one()
    if indices not in cache:
        first, rest = indices[0], indices[1:]
        acc = a.ring.zero()
        for pos, j in enumerate(rest):  # position 2, 3, ... in 1-based terms
            e = a.entry(first, j)
            if e.is_zero:
                continue
            term = e * _pfaffian(a, tuple(k for k in rest if k != j), cache)
            acc = acc + term if pos % 2 == 0 else acc - term
        cache[indices] = acc
    return cache[indices]


def submax_pfaffians(a: SkewMatrix) -> tuple[Poly, ...]:
    """(Pf(A)_1, Pf(A)_2, ...) for odd-size A, sharing one table of
    sub-Pfaffians."""
    if a.n % 2 != 1:
        raise EvenSizeError(f"submaximal Pfaffians need odd size, got {a.n}")
    cache: dict[tuple[int, ...], Poly] = {}
    return tuple(_pfaffian(a, tuple(k for k in range(a.n) if k != i), cache)
                 for i in range(a.n))


@dataclass
class BrokenIdealReport:
    ideal: PolyIdeal
    layer_colengths: tuple[int, ...]
    layer_types: tuple[int, ...]
    total_colength: int
    colength_additive: bool
    layers_gorenstein: bool


def broken_ideal(mats: Sequence[SkewMatrix]) -> BrokenIdealReport:
    """Assemble the layered ideal and validate its advertised structure.

    Raises EvenSizeError for an even layer, NotZeroDimensionalError
    when some layer's Pfaffian ideal is not zero-dimensional, and
    InputError when some layer's quotient is not local at one rational
    point, where its Gorenstein type is not defined.
    """
    if not mats:
        raise InputError("need at least one matrix")
    ring = mats[0].ring
    k = len(mats) - 1
    vectors = [submax_pfaffians(a) for a in mats]  # raises on even sizes
    layer_ideals = [poly3.ideal(ring, v) for v in vectors]
    layer_colengths = tuple(poly3.quotient_data(L).colength for L in layer_ideals)
    layer_types = []
    for i, L in enumerate(layer_ideals):
        try:
            layer_types.append(duality.gorenstein_type(L))
        except InputError as exc:
            raise InputError(f"layer {i}: {exc}") from exc
    gens: list[Poly] = []
    prefix = ring.one()
    for i in range(k):
        gens.extend(prefix * g for g in vectors[i][1:])
        prefix = prefix * vectors[i][0]  # alpha_{i+1} = Pf(A_i)_1
    gens.extend(prefix * g for g in vectors[k])
    ideal = poly3.ideal(ring, gens)
    total = poly3.quotient_data(ideal).colength
    return BrokenIdealReport(
        ideal=ideal,
        layer_colengths=layer_colengths,
        layer_types=tuple(layer_types),
        total_colength=total,
        colength_additive=(total == sum(layer_colengths)),
        layers_gorenstein=all(t == 1 for t in layer_types),
    )


def parse_skew_json(text: str, ring: PolyRing) -> list[SkewMatrix]:
    """JSON form: {"matrices": [{"n": 3, "upper": ["z", "y", "x"]}, ...]}."""
    data = poly3.parse_json(text)
    if not isinstance(data, dict) or "matrices" not in data \
            or not isinstance(data["matrices"], list) or not data["matrices"]:
        raise InputError("expected an object with a nonempty 'matrices' list")
    mats = []
    for i, m in enumerate(data["matrices"]):
        if not isinstance(m, dict) or "n" not in m or "upper" not in m:
            raise InputError("each matrix needs 'n' and 'upper'")
        n, upper = m["n"], m["upper"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise InputError(f"matrix {i}: 'n' must be an integer, got {json.dumps(n)}")
        if not isinstance(upper, list):
            raise InputError(f"matrix {i}: 'upper' must be a list of polynomials")
        entries = [poly3.parse_poly(str(s), ring) for s in upper]
        mats.append(SkewMatrix.from_upper_rows(n, entries))
    return mats
