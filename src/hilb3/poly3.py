"""Sparse polynomials over F_p in x, y, z and Buchberger Groebner bases.

Everything an ideal-theoretic computation downstream needs lives here:
reduced Groebner bases with optional cofactor rows, normal forms,
intersection by syzygies, quotient-ring data (standard monomial basis
plus the three commuting multiplication matrices) for zero-dimensional
ideals, and the colon (I : J) of a zero-dimensional I as a kernel on S/I.
The one monomial order is degree reverse lexicographic with x > y > z.

Coefficients are integers in [0, p) for a fixed prime p carried by the
ring.  Buchberger runs with the coprime and chain criteria and a normal
(smallest-lcm-first) selection strategy; reduced bases are unique, so
ideal equality is Groebner-basis equality.
"""
from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, NotZeroDimensionalError
from .gfp import inv_mod, kernel_basis, require_exact

Exponent = tuple[int, ...]


def degrevlex_key(e: Exponent):
    """Sort key of the monomial order: larger key = larger monomial."""
    return (sum(e), tuple(-e[i] for i in range(len(e) - 1, -1, -1)))


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

class PolyRing:
    """F_p[names]; equality is by prime and variable names."""

    def __init__(self, p: int, names: Sequence[str] = ("x", "y", "z")):
        require_exact(p)
        self.p = int(p)
        self.names = tuple(names)
        self.nvars = len(self.names)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and (self.p, self.names) == (other.p, other.names)

    def __hash__(self):
        return hash((self.p, self.names))

    def __repr__(self):
        return f"PolyRing(p={self.p}, vars={','.join(self.names)})"

    def poly(self, terms: dict[Exponent, int]) -> "Poly":
        p = self.p
        clean = {}
        for e, c in terms.items():
            c %= p
            if c:
                clean[tuple(e)] = c
        return Poly(self, clean)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: 1})

    def constant(self, c: int) -> "Poly":
        return self.poly({(0,) * self.nvars: c})

    def var(self, i: int) -> "Poly":
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): 1})

    def monomial(self, e: Exponent, c: int = 1) -> "Poly":
        return self.poly({tuple(e): c})


class Poly:
    """Immutable sparse polynomial: exponent tuple -> coefficient in (0, p)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exponent, int]):
        self.ring = ring
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        p = self.ring.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        p = self.ring.p
        out: dict[Exponent, int] = {}
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    def scale(self, c: int) -> "Poly":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Poly(self.ring, {e: co * c % p for e, co in self.terms.items()})

    def mul_monomial(self, e: Exponent, c: int = 1) -> "Poly":
        p = self.ring.p
        c %= p
        return Poly(self.ring, {tuple(a + b for a, b in zip(e, te)): tc * c % p
                                for te, tc in self.terms.items()})

    def leading(self) -> tuple[Exponent, int]:
        e = max(self.terms, key=degrevlex_key)
        return e, self.terms[e]

    def monic(self) -> "Poly":
        _, c = self.leading()
        return self.scale(inv_mod(c, self.ring.p)) if c != 1 else self

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def poly_str(f: Poly) -> str:
    """Deterministic human-readable form, degrevlex-descending terms."""
    if f.is_zero:
        return "0"
    names = f.ring.names
    p = f.ring.p
    parts = []
    for e in sorted(f.terms, key=degrevlex_key, reverse=True):
        c = f.terms[e]
        sign = "+"
        if c > p // 2:  # print balanced representatives for readability
            sign, c = "-", p - c
        factors = []
        for n, k in zip(names, e):
            if k == 1:
                factors.append(n)
            elif k > 1:
                factors.append(f"{n}^{k}")
        body = "*".join(factors)
        if not body:
            body = str(c)
        elif c != 1:
            body = f"{c}*{body}"
        parts.append((sign, body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# parsing:  "x^2 - y*z",  "z^3 + 2*x",  "-3"
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|(\^)|(\*)|(\+)|(-))")


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse integer-coefficient polynomials in the ring's variable names."""
    names = ring.names
    pos, n = 0, len(text)
    terms: dict[Exponent, int] = {}
    sign = 1
    cur_coeff: Optional[int] = None
    cur_exp: Optional[list[int]] = None
    prev = "start"  # start | sign | star | factor

    def flush():
        nonlocal sign, cur_coeff, cur_exp
        c = sign * (1 if cur_coeff is None else cur_coeff)
        e = tuple(cur_exp) if cur_exp is not None else (0,) * ring.nvars
        terms[e] = (terms.get(e, 0) + c) % ring.p
        sign, cur_coeff, cur_exp = 1, None, None

    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise InputError(f"bad character in {text!r} at position {pos}")
            break
        pos = m.end()
        num, var, caret, star, plus, minus = m.groups()
        if plus or minus:
            if prev == "star":
                raise InputError(f"sign after '*' in {text!r}")
            if prev == "factor":
                flush()
            if minus:
                sign = -sign
            prev = "sign"
        elif star:
            if prev != "factor":
                raise InputError(f"misplaced '*' in {text!r}")
            prev = "star"
        elif num:
            if prev == "factor":
                raise InputError(f"missing '*' before {num!r} in {text!r}")
            cur_coeff = int(num) if cur_coeff is None else cur_coeff * int(num)
            prev = "factor"
        elif var:
            # a run like "xy" is implicit multiplication of single letters
            letters = [var] if var in names else list(var)
            if any(ch not in names for ch in letters):
                raise InputError(f"unknown variable {var!r} in {text!r}")
            if cur_exp is None:
                cur_exp = [0] * ring.nvars
            power = 1  # a trailing ^k applies to the last letter of the run
            m2 = _TOKEN.match(text, pos)
            if m2 and m2.group(3):  # caret
                pos = m2.end()
                m3 = _TOKEN.match(text, pos)
                if not m3 or not m3.group(1):
                    raise InputError(f"missing exponent in {text!r}")
                power = int(m3.group(1))
                pos = m3.end()
            for ch in letters[:-1]:
                cur_exp[names.index(ch)] += 1
            cur_exp[names.index(letters[-1])] += power
            prev = "factor"
        elif caret:
            raise InputError(f"misplaced '^' in {text!r}")
    if prev != "factor":
        raise InputError(f"incomplete polynomial in {text!r}")
    flush()
    return ring.poly(terms)


# ---------------------------------------------------------------------------
# division, S-polynomials, Buchberger
# ---------------------------------------------------------------------------

def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _quotient_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def _lcm_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def reduce_full(f: Poly, basis: Sequence[Poly], track: bool = False):
    """Full division of f by the (monic) basis.

    Returns (remainder, quotients) where quotients[i] is a Poly with
    f = sum quotients[i] * basis[i] + remainder; quotients is None unless
    track is set.  No remainder term is divisible by any basis leading
    term.
    """
    ring = f.ring
    p = ring.p
    lts = [g.leading()[0] for g in basis]
    work = dict(f.terms)
    remainder: dict[Exponent, int] = {}
    quotients = [dict() for _ in basis] if track else None
    while work:
        e = max(work, key=degrevlex_key)
        c = work.pop(e)
        for i, lt in enumerate(lts):
            if _divides(lt, e):
                q = _quotient_exp(e, lt)
                if track:
                    quotients[i][q] = (quotients[i].get(q, 0) + c) % p
                for te, tc in basis[i].terms.items():
                    if te == lt:
                        continue
                    we = tuple(a + b for a, b in zip(q, te))
                    v = (work.get(we, 0) - c * tc) % p
                    if v:
                        work[we] = v
                    else:
                        work.pop(we, None)
                break
        else:
            remainder[e] = c
    rem = Poly(ring, remainder)
    if track:
        return rem, [ring.poly(q) for q in quotients]
    return rem, None


def s_poly(f: Poly, g: Poly) -> tuple[Poly, Exponent, Exponent]:
    """S-polynomial m_f f - m_g g of two monic polynomials, with m_f, m_g."""
    lf = f.leading()[0]
    lg = g.leading()[0]
    l = _lcm_exp(lf, lg)
    mf, mg = _quotient_exp(l, lf), _quotient_exp(l, lg)
    return f.mul_monomial(mf) - g.mul_monomial(mg), mf, mg


def _monic(f: Poly, row: Optional[list[Poly]]):
    """f made monic, with its cofactor row (if any) scaled to match."""
    c = f.leading()[1]
    if row is not None and c != 1:
        c = inv_mod(c, f.ring.p)
        row = [a.scale(c) for a in row]
    return f.monic(), row


def sub_multiples(row: list[Poly], quots: Sequence[Poly],
                  rows: Sequence[list[Poly]]) -> list[Poly]:
    """row - sum_k quots[k] * rows[k], entrywise."""
    for q, other in zip(quots, rows):
        if not q.is_zero:
            row = [a - q * b for a, b in zip(row, other)]
    return row


def buchberger(gens: Sequence[Poly], track: bool = False):
    """A (non-reduced) Groebner basis, deterministic.

    Pairs are processed smallest lcm first; the coprime criterion and the
    chain criterion prune reductions.  With track set, returns (basis, T)
    where the cofactor rows T satisfy basis[i] = sum_j T[i][j] * gens[j].
    """
    basis: list[Poly] = []
    rows: list = []
    for j, g in enumerate(gens):
        if g.is_zero:
            continue
        unit = None
        if track:
            unit = [g.ring.zero()] * len(gens)
            unit[j] = g.ring.one()
        g, unit = _monic(g, unit)
        basis.append(g)
        rows.append(unit)
    if not basis:
        return ([], []) if track else []
    lts = [g.leading()[0] for g in basis]
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push(i: int, j: int):
        l = _lcm_exp(lts[i], lts[j])
        heapq.heappush(heap, (degrevlex_key(l), i, j))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        l = _lcm_exp(lts[i], lts[j])
        if l == tuple(a + b for a, b in zip(lts[i], lts[j])):
            continue  # coprime leading terms
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(lts[k], l) \
                    and (min(i, k), max(i, k)) not in pending \
                    and (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        s, mi, mj = s_poly(basis[i], basis[j])
        rem, quots = reduce_full(s, basis, track=track)
        if rem.is_zero:
            continue
        row = None
        if track:
            row = [a.mul_monomial(mi) - b.mul_monomial(mj)
                   for a, b in zip(rows[i], rows[j])]
            row = sub_multiples(row, quots, rows)
        rem, row = _monic(rem, row)
        basis.append(rem)
        rows.append(row)
        lts.append(rem.leading()[0])
        new = len(basis) - 1
        for k in range(new):
            push(k, new)
    return (basis, rows) if track else basis


def reduce_basis(basis: Sequence[Poly], rows: Optional[Sequence[list[Poly]]] = None):
    """The reduced Groebner basis: minimal, interreduced, monic, sorted.

    Given cofactor rows (basis[i] = sum_j rows[i][j] * gens[j], as from
    buchberger with track set), returns (reduced basis, rows) with the
    rows carried through every step.
    """
    track = rows is not None
    elems = [_monic(g, row)
             for g, row in zip(basis, rows if track else [None] * len(basis))
             if not g.is_zero]
    # minimalize: drop any element whose leading term another one divides
    lts = [g.leading()[0] for g, _ in elems]
    keep = [elems[i] for i, lt in enumerate(lts)
            if not any(j != i and _divides(lts[j], lt) and (lts[j] != lt or j < i)
                       for j in range(len(elems)))]
    basis = [g for g, _ in keep]
    rows = [row for _, row in keep]
    # tail-reduce each against the others until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            if not others:
                continue
            rem, quots = reduce_full(basis[i], others, track=track)
            if rem.is_zero:
                basis.pop(i)
                rows.pop(i)
                changed = True
                break
            row = sub_multiples(rows[i], quots, rows[:i] + rows[i + 1:]) if track else None
            rem, row = _monic(rem, row)
            if rem != basis[i]:
                basis[i], rows[i] = rem, row
                changed = True
    by_lt = sorted(range(len(basis)), key=lambda i: degrevlex_key(basis[i].leading()[0]))
    reduced = tuple(basis[i] for i in by_lt)
    return (reduced, [rows[i] for i in by_lt]) if track else reduced


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

@dataclass
class PolyIdeal:
    """A finitely generated ideal with its reduced Groebner basis cached."""

    ring: PolyRing
    gens: tuple[Poly, ...]
    _gb: Optional[tuple[Poly, ...]] = field(default=None, repr=False)

    def __eq__(self, other):
        if not isinstance(other, PolyIdeal) or self.ring != other.ring:
            return NotImplemented
        return equal_ideals(self, other)

    def __repr__(self):
        return "PolyIdeal(" + ", ".join(poly_str(g) for g in self.gens) + ")"


def ideal(ring: PolyRing, gens: Iterable[Poly]) -> PolyIdeal:
    gens = tuple(g for g in gens if not g.is_zero)
    return PolyIdeal(ring=ring, gens=gens)


def parse_ideal(text: str, ring: PolyRing) -> PolyIdeal:
    """Comma-separated polynomial list."""
    parts = [s for s in text.split(",") if s.strip()]
    if not parts:
        raise InputError("no generators given")
    return ideal(ring, (parse_poly(s, ring) for s in parts))


def groebner(I: PolyIdeal) -> tuple[Poly, ...]:
    """Reduced degrevlex Groebner basis, cached on the ideal."""
    if I._gb is None:
        I._gb = reduce_basis(buchberger(I.gens))
    return I._gb


def normal_form(f: Poly, I: PolyIdeal) -> Poly:
    rem, _ = reduce_full(f, groebner(I))
    return rem


def contains(I: PolyIdeal, f: Poly) -> bool:
    return normal_form(f, I).is_zero


def equal_ideals(I: PolyIdeal, J: PolyIdeal) -> bool:
    return groebner(I) == groebner(J)


# ---------------------------------------------------------------------------
# intersection by syzygies
# ---------------------------------------------------------------------------

def intersect(I: PolyIdeal, J: PolyIdeal) -> PolyIdeal:
    """I cap J, for any two ideals of the ring.

    Every syzygy s of (f_1..f_r, -g_1..-g_s) gives sum_i s_i f_i, which
    lies in both ideals; these sums over a generating set of the syzygy
    module generate I cap J (Greuel-Pfister, A Singular Introduction to
    Commutative Algebra, 1.8.7).
    """
    from .tanlin import generator_syzygies  # tanlin imports this module

    ring = I.ring
    gens = I.gens + tuple(-g for g in J.gens)
    syz = generator_syzygies(PolyIdeal(ring=ring, gens=gens))
    return ideal(ring, (sum((a * f for a, f in zip(s, I.gens)), ring.zero())
                        for s in syz.syzygies))


# ---------------------------------------------------------------------------
# quotient-ring data, and the colon as a kernel on the finite algebra S/I
# ---------------------------------------------------------------------------

@dataclass
class QuotientData:
    """Finite quotient S/I: standard monomials and multiplication matrices.

    standard_monomials are sorted ascending in degrevlex (the first one
    is 1); standard_set holds the same monomials for membership tests.
    mult_matrices[v] is the matrix of multiplication by the v-th
    variable: column j holds the coordinates of NF(x_v * m_j).
    groebner_basis is the reduced basis of I, which evaluate_at_matrices
    uses to replace f by f mod I.
    """

    ring: PolyRing
    standard_monomials: tuple[Exponent, ...]
    standard_set: frozenset[Exponent]
    colength: int
    mult_matrices: tuple[np.ndarray, ...]
    groebner_basis: tuple[Poly, ...]


def standard_monomials(gb: Sequence[Poly]) -> list[Exponent]:
    """Monomials not divisible by any leading term; raises if infinite."""
    if not gb:
        raise NotZeroDimensionalError("the zero ideal is not zero-dimensional")
    ring = gb[0].ring
    n = ring.nvars
    lts = [g.leading()[0] for g in gb]
    for i in range(n):
        if not any(all(lt[j] == 0 for j in range(n) if j != i) for lt in lts):
            raise NotZeroDimensionalError(
                f"no pure power of {ring.names[i]} among the leading terms")
    found: set[Exponent] = set()
    origin = (0,) * n
    if not any(_divides(lt, origin) for lt in lts):
        found.add(origin)
    frontier = [origin] if found else []
    while frontier:
        m = frontier.pop()
        for i in range(n):
            w = list(m)
            w[i] += 1
            w = tuple(w)
            if w in found or any(_divides(lt, w) for lt in lts):
                continue
            found.add(w)
            frontier.append(w)
    return sorted(found, key=degrevlex_key)


def quotient_data(I: PolyIdeal) -> QuotientData:
    gb = groebner(I)
    basis = standard_monomials(gb)
    d = len(basis)
    index = {m: i for i, m in enumerate(basis)}
    ring = I.ring
    mats = []
    for v in range(ring.nvars):
        mat = np.zeros((d, d), dtype=np.int64)
        for j, m in enumerate(basis):
            shifted = list(m)
            shifted[v] += 1
            shifted = tuple(shifted)
            if shifted in index:
                mat[index[shifted], j] = 1
                continue
            nf, _ = reduce_full(ring.monomial(shifted), gb)
            for e, c in nf.terms.items():
                mat[index[e], j] = c
        mats.append(mat)
    return QuotientData(ring=ring, standard_monomials=tuple(basis),
                        standard_set=frozenset(basis), colength=d,
                        mult_matrices=tuple(mats), groebner_basis=gb)


def quotient_hilbert_function(qd: QuotientData) -> tuple[int, ...]:
    """Standard monomials counted by total degree (the Hilbert function
    of S/I whenever I is homogeneous)."""
    if qd.colength == 0:
        return ()
    top = max(sum(m) for m in qd.standard_monomials)
    h = [0] * (top + 1)
    for m in qd.standard_monomials:
        h[sum(m)] += 1
    return tuple(h)


def evaluate_at_matrices(f: Poly, qd: QuotientData,
                         cache: Optional[dict[Exponent, np.ndarray]] = None) -> np.ndarray:
    """Matrix of multiplication by f on S/I, via the variable matrices.

    Multiplication by f on S/I depends only on f mod I (Cox, Little,
    O'Shea, Using Algebraic Geometry, ch. 2 section 4), so an f with a
    term outside the staircase is first replaced by its normal form; an
    f whose terms are all standard monomials is used as it is.  Standard
    monomials are closed under division, so the monomial matrices built
    from the variable matrices are all standard too: one cache holds at
    most colength - 1 products and never a power that is zero on S/I.
    """
    from .gfp import matmul

    p = qd.ring.p
    d = qd.colength
    if any(e not in qd.standard_set for e in f.terms):
        f, _ = reduce_full(f, qd.groebner_basis)
    if cache is None:
        cache = {}
    origin = (0,) * qd.ring.nvars
    if origin not in cache:
        cache[origin] = np.eye(d, dtype=np.int64)

    def mono_matrix(e: Exponent) -> np.ndarray:
        if e in cache:
            return cache[e]
        i = next(i for i in range(len(e)) if e[i] > 0)
        prev = list(e)
        prev[i] -= 1
        m = matmul(qd.mult_matrices[i], mono_matrix(tuple(prev)), p)
        cache[e] = m
        return m

    out = np.zeros((d, d), dtype=np.int64)
    for e, c in f.terms.items():
        out = (out + c * mono_matrix(e)) % p
    return out


def colon(I: PolyIdeal, J) -> PolyIdeal:
    """(I : J) for a zero-dimensional I and J an ideal or a single polynomial.

    (I : J)/I is the common kernel of multiplication by the generators of
    J on S/I; its vectors, read on the standard monomials, are added to I.
    """
    ring = I.ring
    gens = [g for g in ((J,) if isinstance(J, Poly) else J.gens) if not g.is_zero]
    if not gens:  # (I : 0) = (1)
        return ideal(ring, (ring.one(),))
    qd = quotient_data(I)
    cache: dict[Exponent, np.ndarray] = {}
    stacked = np.vstack([evaluate_at_matrices(g, qd, cache) for g in gens])
    lifts = [ring.poly(dict(zip(qd.standard_monomials, map(int, v))))
             for v in kernel_basis(stacked, ring.p)]
    return ideal(ring, I.gens + tuple(lifts))
