"""The benchmark workloads: CLI argument lists and their result checks.

Four op groups (census, tangent_mono, linalg, groebner) make up the two
workloads at the bottom.  Each is a fixed list of `hilb3` invocations
(ops).  An op's check receives the `result` payload of the JSON the CLI
printed and returns an error message, or None when the result is right.
The checks rest on facts that do not depend on the code path being timed:
plane-partition counts, the paper's smooth counts, Bezout, colength of a
staircase counted by the benchmark itself, complete intersections being
smooth points, and tangent dimensions that a different route fixed once.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import inputs
from inputs import SECOND_PRIME, mono_ideal_text, monomial

Check = Callable[[dict], Optional[str]]


@dataclass
class Op:
    argv: list[str]
    check: Check


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    pass_check: Optional[Callable[[list[dict]], Optional[str]]] = None


def expect(**want) -> Check:
    def check(res: dict) -> Optional[str]:
        got = {k: res.get(k) for k in want}
        return None if got == want else f"got {got}, want {want}"
    return check


def parse_monomial(text: str):
    """Exponent vector of a monic monomial such as "x^2*z", else None."""
    e = [0, 0, 0]
    for factor in text.split("*"):
        var, _, power = factor.strip().partition("^")
        if var not in inputs.VARS or (power and not power.isdigit()):
            return None
        e[inputs.VARS.index(var)] += int(power or 1)
    return tuple(e)


def colength(gens) -> int:
    """Staircase size of an m-primary monomial ideal, counted in its box."""
    box = [min(g[i] for g in gens if sum(g) == g[i]) for i in range(3)]
    return sum(1 for v in itertools.product(*map(range, box))
               if not any(all(g[i] <= v[i] for i in range(3)) for g in gens))


def degree_monomials(k: int) -> list[tuple[int, int, int]]:
    return [e for e in itertools.product(range(k + 1), repeat=3) if sum(e) == k]


# ---------------------------------------------------------------------------
# census: one op, the whole smooth census up to CENSUS_D
# ---------------------------------------------------------------------------

CENSUS_D = 16
#: the paper's counts for d <= 14; d = 15, 16 from derive_census_counts.py,
#: an exhaustive tancomb excess-zero count and the only guard past d = 14
SMOOTH = [None, 1, 3, 6, 12, 21, 36, 58, 91, 138, 204, 300, 417, 597, 816, 1116, 1497]


def census_op(dmax: int) -> Op:
    total = inputs.macmahon(dmax)
    want = [[d, total[d], SMOOTH[d]] for d in range(1, dmax + 1)]
    return Op(["census", str(dmax), "--verify"], expect(rows=want))


def census(rng: random.Random, workdir: str) -> Workload:
    """The input is fixed; the seed changes nothing."""
    return Workload(ops=[census_op(CENSUS_D)], warmup=[census_op(8)])


# ---------------------------------------------------------------------------
# tangent_mono: tangent --verify on every colength-11 monomial ideal
# ---------------------------------------------------------------------------

TANGENT_D = 11
SMOOTH_AT_11 = 300


def tangent_mono_op(st, rng) -> Op:
    d = len(st)

    def check(res):
        if res.get("route") != "monomial" or res.get("colength") != d:
            return f"route/colength {res.get('route')}/{res.get('colength')}, want monomial/{d}"
        if res["excess"] != res["total"] - 3 * d or res["excess"] < 0:
            return f"excess {res['excess']} inconsistent with total {res['total']}"
        return None
    return Op(["tangent", "--verify", mono_ideal_text(inputs.mingens(st), rng)], check)


def tangent_mono(rng: random.Random, workdir: str) -> Workload:
    sts = inputs.staircases(TANGENT_D)
    rng.shuffle(sts)

    def pass_check(results):
        smooth = sum(1 for r in results if r and r.get("excess") == 0)
        return None if smooth == SMOOTH_AT_11 else f"{smooth} smooth ideals, want {SMOOTH_AT_11}"
    warmup = [tangent_mono_op(st, rng) for st in inputs.staircases(3)]
    return Workload(ops=[tangent_mono_op(st, rng) for st in sts], warmup=warmup,
                    pass_check=pass_check)


# ---------------------------------------------------------------------------
# linalg: syzygy-route parity on boxes, bicanonical on m^k, generic tangents
# ---------------------------------------------------------------------------

#: generators and dim T of monomial sources, dim T fixed once by the tancomb
#: route; the syzygy route must give the same (d, dim T) on generic images
SOURCES = {
    "m3": (degree_monomials(3), 60),
    "box333": ([(3, 0, 0), (0, 3, 0), (0, 0, 3)], 81),
    "sixgen14": ([(3, 0, 0), (0, 3, 0), (0, 0, 3), (0, 1, 2), (2, 0, 1), (1, 2, 0)], 48),
    "m2_z3": ([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 3)], 21),
    "m2": (degree_monomials(2), 18),
    "box222": ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 24),
    "box222_xyz": ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 21),
    "j233": ([(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 3), (0, 0, 4)], 33),
    "tripod345": ([(3, 0, 0), (0, 4, 0), (0, 0, 5), (1, 1, 0), (1, 0, 1), (0, 1, 1)], 36),
}


def generic_tangent_op(name: str, rng, verify: bool) -> Op:
    gens, t = SOURCES[name]
    argv = ["tangent"] + (["--verify"] if verify else []) + [inputs.linear_image(gens, rng)]
    return Op(argv, expect(route="syzygy", colength=colength(gens), total=t))


def box_op(a: int, b: int, c: int, rng) -> Op:
    exps = [a, b, c]
    rng.shuffle(exps)
    gens = [tuple(k * (i == j) for j in range(3)) for i, k in enumerate(exps)]
    d = a * b * c  # complete intersections are smooth points: dim T = 3d
    return Op(["parity", mono_ideal_text(gens, rng)],
              expect(colength=d, tangent_dim=3 * d, obstructed=False))


def bicanonical_op(k: int, rng) -> Op:
    want = expect(colength=comb(k + 2, 3), gorenstein_type=comb(k + 1, 2))

    def check(res):
        if res.get("homsym_dim") != res.get("sym2_omega_deg"):
            return f"homsym_dim {res.get('homsym_dim')} != sym2_omega_deg {res.get('sym2_omega_deg')}"
        return want(res)
    return Op(["bicanonical", mono_ideal_text(degree_monomials(k), rng)], check)


def linalg(rng: random.Random, workdir: str) -> Workload:
    ops = [box_op(a, b, c, rng)
           for a in range(2, 7) for b in range(a, 7) for c in range(b, 7)]
    ops += [bicanonical_op(k, rng) for k in range(2, 6)]
    ops += [generic_tangent_op(n, rng, verify=False) for n in ("m3", "box333", "sixgen14")]
    rng.shuffle(ops)
    warmup = [box_op(2, 2, 2, rng), bicanonical_op(2, rng),
              generic_tangent_op("m2", rng, verify=False)]
    return Workload(ops=ops, warmup=warmup)


# ---------------------------------------------------------------------------
# groebner: links, a chain, tracked-Groebner tangents, parity, annihilators
# ---------------------------------------------------------------------------

def tripod(a, b, c):
    return [(a, 0, 0), (0, b, 0), (0, 0, c), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def j_ideal(a, b, c):
    return [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, a), (0, 1, b), (0, 0, c + 1)]


def target_check(source, d_alpha: Optional[int], target=None) -> Check:
    """Colength additivity; the target is the expected monomial ideal."""
    d_source = colength(source)

    def check(res):
        c = res["colengths"]
        if c["source"] != d_source or c["source"] + c["target"] != c["alpha"]:
            return f"colengths {c} (source should be {d_source}, additive)"
        if d_alpha is not None and c["alpha"] != d_alpha:
            return f"d_alpha {c['alpha']}, want {d_alpha}"
        if target is not None:
            got = sorted(parse_monomial(g) or (-1,) for g in res["target"])
            if got != sorted(target):
                return f"target {res['target']}, want {[monomial(g) for g in sorted(target)]}"
        return None
    return check


def catalog_links():
    """(source, alpha, target) for the paper's link families."""
    out = []
    for c in (3, 4, 5, 6):
        out.append((tripod(2, 2, c), f"x*z, x*y + y*z, x^2 + y^2 + z^{c}",
                    degree_monomials(2)))
    for a, b, c in ((3, 5, 4), (2, 3, 3), (3, 3, 4), (4, 4, 4)):
        out.append((tripod(a, b, c), f"x*y, x*z + y*z, x^{a} + y^{b} + z^{c}",
                    tripod(2, 2, c)))
    for b, c in ((2, 3), (2, 4), (3, 4), (3, 5)):
        out.append((j_ideal(1, b, c), f"x*z, y^2, z^{c + 1} + x^2", tripod(2, 2, c - b + 2)))
    for a, b in ((2, 3), (2, 4), (3, 4)):
        out.append((j_ideal(a, b, b), f"x^2, y^2, x^2 + z^{b + 1}", j_ideal(1, b - a + 1, b)))
    borel = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0), (0, 2, 2), (0, 0, 3)]
    out.append((borel, "x*y, x*z + y^3, x^2 + z^3", tripod(2, 2, 3)))
    return out


#: (generators, D): every monomial of degree D lies in the ideal, so three
#: generic forms of degree D are a regular sequence inside it, of colength D^3
GENERIC_LINKS = [
    (degree_monomials(3), 3),
    ([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)], 2),
    ([(3, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2), (1, 0, 1), (0, 1, 1)], 3),
    ([(2, 0, 0), (1, 1, 0), (0, 3, 0), (0, 0, 2), (1, 0, 1), (0, 1, 1)], 3),
]

#: the demo chain J(2,3,3) -> J(1,2,3) -> I^tri(2,2,3) -> m^2, excess 6 throughout
CHAIN = [(j_ideal(2, 3, 3), ["x^2", "y^2", "x^2 + z^4"]),
         (j_ideal(1, 2, 3), ["x*z", "y^2", "z^4 + x^2"]),
         (tripod(2, 2, 3), ["x*z", "x*y + y*z", "x^2 + y^2 + z^3"])]
CHAIN_EXCESS = 6

#: the paper's binomial ideal with odd dim T - d; (d, dim T) = (12, 45) fixed
#: once by the syzygy route and its given-generators cross-check
BINOMIAL = "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z"


def chain_op(path: str) -> Op:
    def check(res):
        steps = res["steps"]
        if len(steps) != len(CHAIN) or res["excess"] != CHAIN_EXCESS \
                or any(s["excess"] != [CHAIN_EXCESS] * 2 for s in steps):
            return f"excess {res['excess']}, want {CHAIN_EXCESS} at every step"
        for (src, _), step in zip(CHAIN, steps):
            d_src, d_alpha, d_tgt = step["colengths"]
            if d_src != colength(src) or d_src + d_tgt != d_alpha:
                return f"colengths {step['colengths']} at source of colength {colength(src)}"
        last = sorted(parse_monomial(g) or (-1,) for g in steps[-1]["target"])
        return None if last == sorted(degree_monomials(2)) else f"chain ends at {last}, not m^2"
    return Op(["verify-chain", path], check)


def ann_op(duals: list[str], hilbert: list[int]) -> Op:
    def check(res):
        h = res["hilbert_function"]
        if h != hilbert or res["colength"] != sum(h):
            return f"Hilbert function {h} (colength {res['colength']}), want {hilbert}"
        return None
    return Op(["ann", ", ".join(duals)], check)


def generic_dual(degree: int, rng) -> str:
    return inputs.generic_forms(degree, 1, rng)[0].translate(str.maketrans("xyz", "XYZ"))


def link_op(source, alpha: str, check: Check, *extra: str) -> Op:
    return Op(["link", mono_ideal_text(source), "--alpha", alpha, *extra], check)


def groebner(rng: random.Random, workdir: str) -> Workload:
    # catalog targets are monomial ideals, identical over both primes
    ops = [link_op(src, alpha, target_check(src, None, tgt), "--second-prime", str(SECOND_PRIME))
           for src, alpha, tgt in catalog_links()]
    # generic targets carry coefficients that depend on the prime, so these
    # links cannot be compared across primes
    ops += [link_op(gens, ", ".join(inputs.generic_forms(D, 3, rng)), target_check(gens, D ** 3))
            for gens, D in GENERIC_LINKS]
    chain_path = os.path.join(workdir, "chain.json")
    with open(chain_path, "w", encoding="utf-8") as fh:
        json.dump([{"ideal": mono_ideal_text(src), "alpha": alpha} for src, alpha in CHAIN], fh)
    ops.append(chain_op(chain_path))
    ops += [generic_tangent_op(n, rng, verify=True)
            for n in ("m2_z3", "m2", "box222", "box222_xyz", "j233", "tripod345", "m3",
                      "sixgen14")]
    ops.append(Op(["parity", BINOMIAL, "--second-prime", str(SECOND_PRIME)],
                  expect(colength=12, tangent_dim=45, obstructed=True)))
    # a generic form of degree j has h_i = min(dim S_i, dim S_{j-i}): symmetric
    ops += [ann_op([generic_dual(3, rng)], [1, 3, 3, 1]),
            ann_op([generic_dual(4, rng)], [1, 3, 6, 3, 1]),
            ann_op([generic_dual(5, rng)], [1, 3, 6, 6, 3, 1]),
            ann_op(["X^3 - Y^3", "X*Y^2 + X*Z^2"], [1, 3, 5, 2])]
    rng.shuffle(ops)
    src, alpha, tgt = catalog_links()[0]
    warmup = [link_op(src, alpha, target_check(src, None, tgt)),
              generic_tangent_op("m2", rng, verify=True),
              ann_op([generic_dual(2, rng)], [1, 3, 1])]
    return Workload(ops=ops, warmup=warmup)


def combined(*parts):
    """One workload running the ops of several, in order; pass checks see all results."""
    def build(rng: random.Random, workdir: str) -> Workload:
        built = [part(rng, workdir) for part in parts]
        checks = [w.pass_check for w in built if w.pass_check is not None]

        def pass_check(results):
            return next((err for err in (c(results) for c in checks) if err), None)
        return Workload(ops=[op for w in built for op in w.ops],
                        warmup=[op for w in built for op in w.warmup],
                        pass_check=pass_check if checks else None)
    return build


#: Two workloads, each the union of two op groups, so that a run of the
#: benchmark's length averages over the machine's slow spells; see README.md.
WORKLOADS = {"monomial": combined(census, tangent_mono),
             "polynomial": combined(linalg, groebner)}
