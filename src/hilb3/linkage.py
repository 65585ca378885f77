"""Links of zero-dimensional ideals by length-3 regular sequences.

For three polynomials alpha in I that cut out a finite scheme (hence a
regular sequence), the link is (alpha : I).  Valid links satisfy the
double-link identity I = (alpha : (alpha : I)) and colength additivity
d_source + d_target = d_alpha, and they preserve the tangent excess
dim T - 3d; a chain of n links asserts all three with n + 1 tangent
computations.  A parity report flags ideals with dim T != d (mod 2),
which cannot lie in the linkage class of any homogeneous ideal (in
particular are not licci).

A small catalog provides explicit link families connecting families of
singular monomial ideals of tangent excess 6 (tripods I^tri(a,b,c), and
the strongly stable J(1,b,c) and J(a,b,b)) to the square of the maximal
ideal.  They are not all the ideals of excess 6 (60 of the 261 at d = 11
are in these families up to a permutation of the variables), and J(a,b,c)
with a >= 2 and c > b has a larger excess in the cases checked (J(2,2,3)
has 12).  The catalog targets are the computed colon ideals; see the
family builders for the exact sequences.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from . import poly3, tanlin
from .errors import (ExcessMismatchError, InputError, InvariantError, NotContainedError,
                     NotRegularError, NotZeroDimensionalError, UnitIdealError)
from .poly3 import Poly, PolyIdeal, PolyRing


@dataclass
class LinkStep:
    target: PolyIdeal
    colengths: tuple[int, int, int]  # (d_source, d_alpha, d_target)


def link(I: PolyIdeal, alpha: Sequence[Poly], verify: bool = False) -> LinkStep:
    """The link (alpha : I) by three polynomials, validated.

    Checks alpha is contained in I and cuts out a finite scheme and that I
    is not the unit ideal (UnitIdealError), then verifies colength
    additivity and the double-link identity.  The target may be (1).  With
    verify set, both colons are checked against Buchberger (poly3.colon).
    """
    if len(alpha) != 3:
        raise InputError("a linking sequence must have exactly three entries")
    for f in alpha:
        if not poly3.contains(I, f):
            raise NotContainedError(f"{poly3.poly_str(f)} does not lie in the ideal")
    A = poly3.ideal(I.ring, alpha)
    try:
        d_alpha = poly3.quotient_data(A).colength
    except NotZeroDimensionalError as exc:
        raise NotRegularError(f"the sequence does not cut out a finite scheme: {exc}") from exc
    d_source = poly3.quotient_data(I).colength
    if d_source == 0:  # the link of (1) is (alpha), but (1) is not a point
        raise UnitIdealError("the source ideal is the whole ring")
    target = poly3.colon(A, I, verify=verify)
    d_target = poly3.quotient_data(target).colength
    # both are theorems for valid links; a failure means a broken engine
    if d_source + d_target != d_alpha:
        raise InvariantError(f"colength additivity fails: {d_source} + {d_target} != {d_alpha}")
    if not poly3.equal_ideals(poly3.colon(A, target, verify=verify), I):
        raise InvariantError("double-link identity fails")
    return LinkStep(target=target, colengths=(d_source, d_alpha, d_target))


@dataclass
class ChainReport:
    steps: list[LinkStep]
    excesses: list[tuple[int, int]]  # (excess at source, excess at target)
    canonical_degrees: list[int]     # dim (alpha : I)/(alpha) per step

    @property
    def excess(self) -> int | None:
        return self.excesses[0][0] if self.excesses else None


def verify_link_chain(chain: Sequence[tuple[PolyIdeal, Sequence[Poly]]],
                      verify: bool = False) -> ChainReport:
    """Validate every step and assert the tangent excess is constant.

    Consecutive steps must satisfy target_i = source_{i+1}, so the tangent
    excess dim T - 3d is computed at the first source and at each target
    only; a change along a step is a hard failure.  The canonical-module
    degree dim (alpha:I)/(alpha) is recorded per step (it equals the
    source colength).  verify is passed on to every link.
    """
    steps: list[LinkStep] = []
    tangents: list[tuple[int, int, int]] = []  # (d, dim T, excess) per ideal
    for I, alpha in chain:
        if steps and not poly3.equal_ideals(steps[-1].target, I):
            raise InputError("chain steps do not compose: target != next source")
        step = link(I, alpha, verify=verify)
        if not tangents:
            tangents.append(tanlin.tangent_excess(I))
        tangents.append(tanlin.tangent_excess(step.target))
        (d_src, t_src, e_src), (d_tgt, t_tgt, e_tgt) = tangents[-2:]
        if e_src != e_tgt:
            raise ExcessMismatchError(
                f"excess {e_src} at source vs {e_tgt} at target "
                f"(d={d_src}->{d_tgt}, T={t_src}->{t_tgt})")
        steps.append(step)
    excesses = [(src[2], tgt[2]) for src, tgt in zip(tangents, tangents[1:])]
    degrees = [s.colengths[1] - s.colengths[2] for s in steps]
    return ChainReport(steps=steps, excesses=excesses, canonical_degrees=degrees)


@dataclass
class ParityReport:
    colength: int
    tangent_dim: int
    obstructed: bool
    verdict: str


def parity_report(I: PolyIdeal) -> ParityReport:
    """Flag dim T != d (mod 2): no homogeneous linkage class, not licci."""
    d, t, _ = tanlin.tangent_excess(I)
    if d == 0:
        raise UnitIdealError("the ideal is the whole ring")
    obstructed = (t - d) % 2 != 0
    if obstructed:
        verdict = ("dim T and the colength differ mod 2: the ideal is not in "
                   "the linkage class of any homogeneous ideal; in particular "
                   "it is not licci")
    else:
        verdict = "no parity obstruction"
    return ParityReport(colength=d, tangent_dim=t, obstructed=obstructed,
                        verdict=verdict)


# ---------------------------------------------------------------------------
# catalog: families of singular ideals of tangent excess 6, linked to m^2
# ---------------------------------------------------------------------------

def tripod(ring: PolyRing, a: int, b: int, c: int) -> PolyIdeal:
    """I^tri(a,b,c) = (x^a, y^b, z^c, xy, xz, yz), a, b, c >= 2."""
    return poly3.parse_ideal(f"x^{a}, y^{b}, z^{c}, x*y, x*z, y*z", ring)


def j_ideal(ring: PolyRing, a: int, b: int, c: int) -> PolyIdeal:
    """J(a,b,c) = (x^2, xy, y^2, xz^a, yz^b, z^(c+1)), 1 <= a <= b <= c."""
    return poly3.parse_ideal(f"x^2, x*y, y^2, x*z^{a}, y*z^{b}, z^{c+1}", ring)


def maximal_square(ring: PolyRing) -> PolyIdeal:
    return poly3.parse_ideal("x^2, x*y, x*z, y^2, y*z, z^2", ring)


def family_tripod22_to_m2(ring: PolyRing, c: int):
    """(xz, xy+yz, x^2+y^2+z^c) links I^tri(2,2,c) to m^2."""
    alpha = poly3.parse_ideal(f"x*z, x*y + y*z, x^2 + y^2 + z^{c}", ring).gens
    return tripod(ring, 2, 2, c), alpha, maximal_square(ring)


def family_tripod_to_tripod22(ring: PolyRing, a: int, b: int, c: int):
    """(xy, xz+yz, x^a+y^b+z^c) links I^tri(a,b,c) to I^tri(2,2,c)."""
    alpha = poly3.parse_ideal(f"x*y, x*z + y*z, x^{a} + y^{b} + z^{c}", ring).gens
    return tripod(ring, a, b, c), alpha, tripod(ring, 2, 2, c)


def family_j1_to_tripod(ring: PolyRing, b: int, c: int):
    """(xz, y^2, z^(c+1)+x^2) links J(1,b,c) to I^tri(2,2,c-b+2)."""
    alpha = poly3.parse_ideal(f"x*z, y^2, z^{c + 1} + x^2", ring).gens
    return j_ideal(ring, 1, b, c), alpha, tripod(ring, 2, 2, c - b + 2)


def family_jabb_to_j1(ring: PolyRing, a: int, b: int):
    """(x^2, y^2, x^2+z^(b+1)) links J(a,b,b) to J(1, b-a+1, b)."""
    alpha = poly3.parse_ideal(f"x^2, y^2, x^2 + z^{b + 1}", ring).gens
    return j_ideal(ring, a, b, b), alpha, j_ideal(ring, 1, b - a + 1, b)


def borel_p3_instance(ring: PolyRing):
    """(xy, xz+y^3, x^2+z^3) links (x^2,xy,xz,y^3,(yz)^2,z^3) to I^tri(2,2,3)."""
    src = poly3.parse_ideal("x^2, x*y, x*z, y^3, y^2*z^2, z^3", ring)
    alpha = poly3.parse_ideal("x*y, x*z + y^3, x^2 + z^3", ring).gens
    return src, alpha, tripod(ring, 2, 2, 3)


# ---------------------------------------------------------------------------
# JSON chain input: [{"ideal": "...", "alpha": ["...", "...", "..."]}]
# ---------------------------------------------------------------------------

def parse_chain_json(text: str, ring: PolyRing) -> list[tuple[PolyIdeal, tuple[Poly, ...]]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InputError("chain file must hold a JSON list of steps")
    chain = []
    for entry in data:
        if not isinstance(entry, dict) or "ideal" not in entry or "alpha" not in entry:
            raise InputError("each step needs 'ideal' and 'alpha' fields")
        alpha = entry["alpha"]
        if not isinstance(alpha, list) or len(alpha) != 3:
            raise InputError("'alpha' must list exactly three polynomials")
        I = poly3.parse_ideal(str(entry["ideal"]), ring)
        chain.append((I, tuple(poly3.parse_poly(str(s), ring) for s in alpha)))
    return chain
