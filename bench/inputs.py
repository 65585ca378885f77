"""Seeded benchmark inputs, built without importing hilb3.

Everything the program under test receives is text made here: monomial
ideals enumerated from the benchmark's own staircase code, their images
under random invertible linear changes of coordinates, and random
combinations of generators.  A change inside hilb3 therefore cannot
change an input.  All coefficients live in F_p for the default prime.
"""
from __future__ import annotations

import itertools
import random

P = 2**31 - 1
SECOND_PRIME = 2**31 - 19
VARS = ("x", "y", "z")
UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def macmahon(n: int) -> list[int]:
    """Plane partition counts a(0..n) by a(m) = (1/m) sum sigma_2(k) a(m-k)."""
    sigma2 = [0] + [sum(q * q for q in range(1, k + 1) if k % q == 0)
                    for k in range(1, n + 1)]
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(sigma2[k] * a[m - k] for k in range(1, m + 1)) // m)
    return a


def staircases(d: int) -> list[frozenset]:
    """All downward-closed sets of d cells in N^3, grown one corner at a time."""
    level = {frozenset()}
    for _ in range(d):
        nxt = set()
        for st in level:
            for cell in addable_cells(st):
                nxt.add(st | {cell})
        level = nxt
    return sorted(level, key=lambda st: sorted(st))


def addable_cells(st: frozenset) -> list[tuple[int, int, int]]:
    """Cells outside st whose lower neighbours all lie in st."""
    cands = {(0, 0, 0)} | {tuple(c + u for c, u in zip(v, e)) for v in st for e in UNIT}
    return [c for c in cands if c not in st and all(
        c[i] == 0 or tuple(c[j] - (j == i) for j in range(3)) in st for i in range(3))]


def mingens(st: frozenset) -> list[tuple[int, int, int]]:
    """Minimal monomial generators of the ideal whose staircase is st."""
    return sorted(addable_cells(st))


def monomial(e) -> str:
    parts = [v if k == 1 else f"{v}^{k}" for v, k in zip(VARS, e) if k]
    return "*".join(parts) or "1"


def mono_ideal_text(gens, rng: random.Random | None = None) -> str:
    gens = list(gens)
    if rng is not None:
        rng.shuffle(gens)
    return ", ".join(monomial(g) for g in gens)


# ---------------------------------------------------------------------------
# sparse polynomials over F_P: dict exponent -> coefficient
# ---------------------------------------------------------------------------

def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = (out.get(e, 0) + c1 * c2) % P
    return {e: c for e, c in out.items() if c}


def poly_text(f: dict) -> str:
    terms = sorted(f.items(), key=lambda ec: (-sum(ec[0]), ec[0]))
    return " + ".join(monomial(e) if c == 1 else
                      (f"{c}*{monomial(e)}" if any(e) else str(c)) for e, c in terms)


def random_gl3(rng: random.Random) -> list[list[int]]:
    """A random invertible 3x3 matrix over F_P."""
    while True:
        a = [[rng.randrange(1, P) for _ in range(3)] for _ in range(3)]
        det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
               - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
               + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])) % P
        if det:
            return a


def linear_image(gens, rng: random.Random) -> str:
    """The ideal generated by the monomials gens after x_i -> sum_j a_ij x_j."""
    a = random_gl3(rng)
    forms = [{UNIT[j]: a[i][j] for j in range(3)} for i in range(3)]
    polys = []
    for g in gens:
        f = {(0, 0, 0): 1}
        for i, k in enumerate(g):
            for _ in range(k):
                f = poly_mul(f, forms[i])
        polys.append(poly_text(f))
    return ", ".join(polys)


def generic_forms(degree: int, count: int, rng: random.Random) -> list[str]:
    """count random forms of the given degree, every coefficient nonzero."""
    monos = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]
    return [poly_text({e: rng.randrange(1, P) for e in monos}) for _ in range(count)]
