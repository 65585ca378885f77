"""Sparse polynomials over F_p in x, y, z and Buchberger Groebner bases.

Everything an ideal-theoretic computation downstream needs lives here:
reduced Groebner bases, normal forms, cofactor rows on Buchberger's
unreduced basis (tanlin.generator_syzygies reads the syzygies intersect
needs off them), quotient-ring data (standard monomial basis plus the
three commuting multiplication matrices) for zero-dimensional ideals, and
the colon (I : J) of a zero-dimensional I as a kernel on S/I.
The one monomial order is degree reverse lexicographic with x > y > z.

The multiplication matrices take no division: the normal forms of the
border terms x_v m outside the staircase are read off the reduced basis
in increasing degrevlex order, as in FGLM (Faugere, Gianni, Lazard and
Mora, J. Symb. Comp. 16, 1993), each from the tail of a basis element or
from the normal forms of smaller border terms (see quotient_data).

Buchberger runs only where no quotient is known.  A list of monomials has
its minimal exponents as its reduced basis.  An ideal A + V, with V an
ideal of a known finite quotient S/A cut out by linear relations (a
colon, an annihilator), is read off one elimination of those relations by
span_ideal, basis and quotient data together (Marinari, Moeller and Mora,
AAECC 4, 1993).

A PolyIdeal caches its reduced Groebner basis and its QuotientData, each
built on first use; the QuotientData in turn caches the matrix of every
standard monomial that evaluate_at_matrices has formed.  Every caller of
the ideal shares these, so the cached matrices are read-only numpy arrays.

Every ring has three variables, so an exponent is a triple (a, b, c);
ORIGIN, exp_divides, exp_sub, exp_lcm and monomial_str are the package's
one set of helpers on it.  Coefficients are integers in [0, p) for a
fixed prime p carried by the ring.  Buchberger runs with the coprime and
chain criteria and a normal (smallest-lcm-first) selection strategy;
reduced bases are unique, so ideal equality is Groebner-basis equality.

parse_poly reads the package's one text grammar in one pass over its
tokens.  Terms are joined by signs; a run of signs may precede a term
(x - -y) but not follow '*'.  A term's factors are integers and letters,
with '*', whitespace or nothing between them (2*x*y, x y, 2x, xy);
integers multiply (2*3*x), and one after another factor needs its '*'
(x*2, not x2).  A '^k' binds to the last letter of its run (xy^2 is
x*y^2).
"""
from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import InputError, InvariantError, NotZeroDimensionalError
from .gfp import inv_mod, kernel_basis, require_exact

Exponent = tuple[int, int, int]

ORIGIN: Exponent = (0, 0, 0)
VAR_NAMES = ("x", "y", "z")
_VARIABLES: tuple[Exponent, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # x, y, z


def degrevlex_key(e: Exponent) -> tuple[int, int, int, int]:
    """Sort key of the monomial order: larger key = larger monomial."""
    a, b, c = e
    return (a + b + c, -c, -b, -a)


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True iff x^a divides x^b."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    """Componentwise difference; may be negative (a signed triple)."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


def monomial_str(e: Exponent, names: Sequence[str] = VAR_NAMES) -> str:
    """Render (1, 0, 2) as "x*z^2"; ORIGIN renders as "1"."""
    parts = []
    for name, k in zip(names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

class PolyRing:
    """F_p[names] for three variable names; equality is by prime and names."""

    def __init__(self, p: int, names: Sequence[str] = VAR_NAMES):
        require_exact(p)
        self.p = int(p)
        self.names = tuple(names)

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
        return Poly(self, {ORIGIN: 1})

    def monomial(self, e: Exponent, c: int = 1) -> "Poly":
        return self.poly({tuple(e): c})


class Poly:
    """Immutable sparse polynomial: exponent tuple -> coefficient in (0, p).

    terms must not change after construction: leading() caches its
    answer on first use.  A caller that already knows the leading term
    (exponent, coefficient) may pass it as leading, which fills the cache.
    """

    __slots__ = ("ring", "terms", "_leading")

    def __init__(self, ring: PolyRing, terms: dict[Exponent, int],
                 leading: Optional[tuple[Exponent, int]] = None):
        self.ring = ring
        self.terms = terms
        self._leading = leading

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
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
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
        return Poly(self.ring, {(e[0] + te[0], e[1] + te[1], e[2] + te[2]): tc * c % p
                                for te, tc in self.terms.items()})

    def leading(self) -> tuple[Exponent, int]:
        if self._leading is None:
            e = max(self.terms, key=degrevlex_key)
            self._leading = e, self.terms[e]
        return self._leading

    def monic(self) -> "Poly":
        _, c = self.leading()
        return self.scale(inv_mod(c, self.ring.p)) if c != 1 else self

    def degree(self) -> int:
        return max((a + b + c for a, b, c in self.terms), default=-1)

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
        body = monomial_str(e, names)
        if e == ORIGIN:
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

# a number, a letter run with its optional ^k, an operator, or a bad character
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)(?:\s*(\^)\s*(\d*))?|([*+^-])|(\S))")


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse an integer-coefficient polynomial in the ring's variable names.

    Terms are joined by signs; a run of signs may precede a term (x - -y)
    but not follow '*'.  A term's factors are integers and letters, with
    '*', whitespace or nothing between them (2*x*y, x y, 2x, xy);
    integers multiply (2*3*x), and one after another factor needs its '*'
    (x*2, not x2).  A '^k' binds to the last letter of its run (xy^2 is
    x*y^2).  Coefficients are reduced mod p.
    """
    names = ring.names
    terms: dict[Exponent, int] = {}
    coeff, exp = 1, [0, 0, 0]  # the term being read; signs multiply into coeff
    prev = "start"  # start | sign | star | factor
    for num, var, caret, power, op, bad in _TOKEN.findall(text):
        if var:
            if var in names:
                letters = (var,)
            elif all(ch in names for ch in var):
                letters = var
            else:
                raise InputError(f"unknown variable {var!r} in {text!r}")
            if caret and not power:
                raise InputError(f"missing exponent in {text!r}")
            for ch in letters[:-1]:
                exp[names.index(ch)] += 1
            exp[names.index(letters[-1])] += int(power) if caret else 1
        elif op == "*":
            if prev != "factor":
                raise InputError(f"misplaced '*' in {text!r}")
            prev = "star"
            continue
        elif op == "+" or op == "-":
            if prev == "star":
                raise InputError(f"sign after '*' in {text!r}")
            if prev == "factor":  # the sign ends a term
                terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
                coeff, exp = 1, [0, 0, 0]
            if op == "-":
                coeff = -coeff
            prev = "sign"
            continue
        elif num:
            if prev == "factor":
                raise InputError(f"missing '*' before {num!r} in {text!r}")
            coeff *= int(num)
        elif op:
            raise InputError(f"misplaced '^' in {text!r}")
        else:  # the position is looked up only here, on the error path
            at = next(m.start() for m in _TOKEN.finditer(text) if m.group(6))
            raise InputError(f"bad character in {text!r} at position {at}")
        prev = "factor"
    if prev != "factor":
        raise InputError(f"incomplete polynomial in {text!r}")
    terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    return ring.poly(terms)


# ---------------------------------------------------------------------------
# division, S-polynomials, Buchberger
# ---------------------------------------------------------------------------

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
            if exp_divides(lt, e):
                q = exp_sub(e, lt)
                if track:
                    quotients[i][q] = (quotients[i].get(q, 0) + c) % p
                qa, qb, qc = q
                for te, tc in basis[i].terms.items():
                    if te == lt:
                        continue
                    we = (qa + te[0], qb + te[1], qc + te[2])
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
    l = exp_lcm(lf, lg)
    mf, mg = exp_sub(l, lf), exp_sub(l, lg)
    return f.mul_monomial(mf) - g.mul_monomial(mg), mf, mg


def _monic(f: Poly, row: Optional[list[Poly]]):
    """f made monic, with its cofactor row (if any) scaled to match."""
    c = f.leading()[1]
    if row is not None and c != 1:
        c = inv_mod(c, f.ring.p)
        row = [a.scale(c) for a in row]
    return f.monic(), row


def buchberger(gens: Sequence[Poly], track: bool = False):
    """A (non-reduced) Groebner basis, deterministic.

    Pairs are processed smallest lcm first; the coprime criterion and the
    chain criterion prune reductions.  With track set, returns (basis, T)
    where the cofactor rows T satisfy basis[i] = sum_j T[i][j] * gens[j].
    The basis begins with the nonzero gens[j] made monic, in order, each
    with the row e_j / c_j for c_j its leading coefficient.
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
        l = exp_lcm(lts[i], lts[j])
        heapq.heappush(heap, (degrevlex_key(l), i, j))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)

    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        li, lj = lts[i], lts[j]
        l = exp_lcm(li, lj)
        if l == (li[0] + lj[0], li[1] + lj[1], li[2] + lj[2]):
            continue  # coprime leading terms
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if exp_divides(lts[k], l) \
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
            for q, other in zip(quots, rows):
                if not q.is_zero:
                    row = [a - q * b for a, b in zip(row, other)]
        rem, row = _monic(rem, row)
        basis.append(rem)
        rows.append(row)
        lts.append(rem.leading()[0])
        new = len(basis) - 1
        for k in range(new):
            push(k, new)
    return (basis, rows) if track else basis


def reduce_basis(basis: Sequence[Poly]) -> tuple[Poly, ...]:
    """The reduced Groebner basis: minimal, interreduced, monic, sorted."""
    elems = [g.monic() for g in basis if not g.is_zero]
    # minimalize: drop any element whose leading term another one divides
    lts = [g.leading()[0] for g in elems]
    basis = [elems[i] for i, lt in enumerate(lts)
             if not any(j != i and exp_divides(lts[j], lt) and (lts[j] != lt or j < i)
                        for j in range(len(elems)))]
    # no leading term divides another, so reducing each element once by the
    # others keeps every leading term and leaves every element reduced
    for i in range(len(basis)):
        basis[i], _ = reduce_full(basis[i], basis[:i] + basis[i + 1:])
    return tuple(sorted(basis, key=lambda g: degrevlex_key(g.leading()[0])))


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

@dataclass
class PolyIdeal:
    """A finitely generated ideal; its reduced Groebner basis (groebner)
    and, once asked for, its quotient data (quotient_data) are cached."""

    ring: PolyRing
    gens: tuple[Poly, ...]
    _gb: Optional[tuple[Poly, ...]] = field(default=None, repr=False)
    _qd: Optional[QuotientData] = field(default=None, repr=False)

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


def parse_json(text: str):
    """json.loads, with InputError for text that is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from exc


def groebner(I: PolyIdeal) -> tuple[Poly, ...]:
    """Reduced degrevlex Groebner basis, cached on the ideal.

    Generators that are all monomials skip Buchberger: every S-polynomial
    of two monomials is zero, so the reduced basis is the minimal
    exponents among them, monic and sorted.
    """
    if I._gb is None:
        if all(len(g.terms) == 1 for g in I.gens):
            # a proper divisor has lower degree, so it comes first in
            # degrevlex: each exponent is minimal unless one kept in a lower
            # degree divides it
            minimal: list[Exponent] = []
            lower, degree = 0, -1  # minimal[:lower] has degree < degree
            for e in sorted({e for g in I.gens for e in g.terms}, key=degrevlex_key):
                if sum(e) > degree:
                    lower, degree = len(minimal), sum(e)
                if not any(exp_divides(o, e) for o in minimal[:lower]):
                    minimal.append(e)
            I._gb = tuple(Poly(I.ring, {e: 1}, (e, 1)) for e in minimal)
        else:
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
    """I cap J for any two ideals of the ring, as its reduced Groebner basis.

    Every syzygy s of (f_1..f_r, -g_1..-g_s) gives sum_i s_i f_i, which
    lies in both ideals; these sums over a generating set of the syzygy
    module generate I cap J (Greuel-Pfister, A Singular Introduction to
    Commutative Algebra, 1.8.7), but compound in degree when chained.
    """
    from .tanlin import generator_syzygies  # tanlin imports this module

    ring = I.ring
    gens = I.gens + tuple(-g for g in J.gens)
    syz = generator_syzygies(PolyIdeal(ring=ring, gens=gens))
    gb = groebner(ideal(ring, (sum((a * f for a, f in zip(s, I.gens)), ring.zero())
                               for s in syz.syzygies)))
    return PolyIdeal(ring=ring, gens=gb, _gb=gb)


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
    uses to replace f by f mod I.  monomial_matrices caches the matrix of
    each standard monomial that evaluate_at_matrices has built.

    quotient_data caches one instance on the ideal, which every caller of
    that ideal then shares, so each cached array (the multiplication
    matrices and the monomial matrices) is read-only.
    """

    ring: PolyRing
    standard_monomials: tuple[Exponent, ...]
    standard_set: frozenset[Exponent]
    colength: int
    mult_matrices: tuple[np.ndarray, ...]
    groebner_basis: tuple[Poly, ...]
    monomial_matrices: dict[Exponent, np.ndarray] = field(default_factory=dict, repr=False)


def standard_monomials(gb: Sequence[Poly]) -> list[Exponent]:
    """Monomials not divisible by any leading term; raises if infinite."""
    if not gb:
        raise NotZeroDimensionalError("the zero ideal is not zero-dimensional")
    lts = [g.leading()[0] for g in gb]
    # the variables each leading term involves, as the bits 1, 2, 4 for x, y, z
    support = {(a > 0) + 2 * (b > 0) + 4 * (c > 0) for a, b, c in lts}
    if 0 in support:  # 1 is in the ideal
        return []
    for name, bit in zip(gb[0].ring.names, (1, 2, 4)):
        if bit not in support:
            raise NotZeroDimensionalError(f"no pure power of {name} among the leading terms")
    from .mono3 import from_generators  # mono3 imports this module

    heights = from_generators(lts).heights
    return sorted(((i, j, k) for i, row in enumerate(heights)
                   for j, h in enumerate(row) for k in range(h)), key=degrevlex_key)


def _border_normal_forms(gb: Sequence[Poly], index: dict[Exponent, int],
                         p: int) -> dict[Exponent, dict[int, int]]:
    """NF(t), as {standard index: coefficient}, for each border term t that
    a leading term with a tail divides, in increasing degrevlex order (see
    quotient_data); every other border term lies in I."""
    basis = list(index)
    tailed: dict[Exponent, dict[int, int]] = {}
    for g in gb:
        lt = g.leading()[0]
        if len(g.terms) > 1:
            if any(e != lt and e not in index for e in g.terms):
                raise InvariantError("a tail of the reduced basis is not standard")
            tailed[lt] = {index[e]: p - c for e, c in g.terms.items() if e != lt}
    if not tailed:
        return {}
    border = {(a + x, b + y, c + z) for a, b, c in basis for x, y, z in _VARIABLES}
    nfs: dict[Exponent, dict[int, int]] = {}
    for t in sorted((t for t in border - index.keys()
                     if any(a <= t[0] and b <= t[1] and c <= t[2] for a, b, c in tailed)),
                    key=degrevlex_key):
        if t in tailed:
            nfs[t] = tailed[t]
            continue
        u = next(u for k, u in zip(t, _VARIABLES) if k and exp_sub(t, u) not in index)
        x, y, z = u
        acc: dict[int, int] = {}
        for k, c in nfs.get(exp_sub(t, u), {}).items():
            a, b, w = basis[k]
            s = (a + x, b + y, w + z)
            if s in index:
                acc[index[s]] = acc.get(index[s], 0) + c
            else:
                for i, ci in nfs.get(s, {}).items():
                    acc[i] = acc.get(i, 0) + c * ci
        nfs[t] = {i: c % p for i, c in acc.items() if c % p}
    return nfs


def quotient_data(I: PolyIdeal) -> QuotientData:
    """The quotient data of a zero-dimensional I, cached on the ideal.

    The multiplication matrices are read off the reduced basis with no
    division (the FGLM construction: Faugere, Gianni, Lazard and Mora,
    J. Symb. Comp. 16, 1993).  Column j of M_v is NF(x_v m_j): x_v m_j
    itself when it is standard, else the normal form of a border term t.
    A t that leads an element g of the reduced basis has NF(t) = t - g,
    minus g's tail, which is standard because the basis is reduced
    (InvariantError otherwise).  A t that no leading term with a tail
    divides lies in the ideal of the monomial elements, so its column is
    0.  Every other t lies in LT(I) without being a minimal generator, so
    t/x_u is not standard for some u; as t/x_v = m_j is standard, u != v
    and t' = t/x_u = x_v (m_j/x_u) is a border term.  Then
    NF(t) = x_u NF(t') = sum_k c_k NF(x_u m_k) over NF(t') = sum_k c_k m_k,
    and since degrevlex is multiplicative and each m_k < t', every
    x_u m_k < t.  So taking those t in increasing degrevlex order finds
    each column they need already built.  The columns are gathered
    sparsely and the three matrices filled by two indexed assignments:
    the 1s of the standard x_v m_j, then the border normal forms.
    """
    if I._qd is not None:
        return I._qd
    import numpy as np

    gb = groebner(I)
    basis = standard_monomials(gb)
    d = len(basis)
    index = {m: i for i, m in enumerate(basis)}
    nfs = _border_normal_forms(gb, index, I.ring.p)
    # entries of the stacked matrices, at v*d*d + row*d + column
    ones, flat, vals = [], [], []
    row_of = index.get
    for v, (x, y, z) in enumerate(_VARIABLES):
        for col, (a, b, c) in enumerate(basis, v * d * d):
            t = (a + x, b + y, c + z)
            i = row_of(t)
            if i is not None:
                ones.append(col + d * i)
            elif t in nfs:
                for i, ci in nfs[t].items():
                    flat.append(col + d * i)
                    vals.append(ci)
    mats = np.zeros((3, d, d), dtype=np.int64)
    np.put(mats, ones, 1)
    np.put(mats, flat, vals)
    mats.setflags(write=False)
    I._qd = QuotientData(ring=I.ring, standard_monomials=tuple(basis),
                         standard_set=frozenset(basis), colength=d,
                         mult_matrices=tuple(mats), groebner_basis=gb)
    return I._qd


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


def evaluate_at_matrices(f: Poly, qd: QuotientData) -> np.ndarray:
    """Matrix of multiplication by f on S/I, via the variable matrices.

    Multiplication by f on S/I depends only on f mod I (Cox, Little,
    O'Shea, Using Algebraic Geometry, ch. 2 section 4), so an f with a
    term outside the staircase is first replaced by its normal form; an
    f whose terms are all standard monomials is used as it is.  Standard
    monomials are closed under division, so the monomial matrices built
    from the variable matrices are all standard too: qd.monomial_matrices
    holds at most colength of them (read-only, shared by every caller of
    qd) and never a power that is zero on S/I.  A variable's entry is its
    multiplication matrix itself, and each monomial of degree >= 2 costs
    one product.  The returned matrix is a new, writable array.
    """
    import numpy as np
    from .gfp import matmul

    p = qd.ring.p
    d = qd.colength
    if any(e not in qd.standard_set for e in f.terms):
        f, _ = reduce_full(f, qd.groebner_basis)
    cache = qd.monomial_matrices
    if ORIGIN not in cache:
        cache[ORIGIN] = np.eye(d, dtype=np.int64)
        cache[ORIGIN].setflags(write=False)

    def mono_matrix(e: Exponent) -> np.ndarray:
        if e in cache:
            return cache[e]
        i = 0 if e[0] else 1 if e[1] else 2
        prev = exp_sub(e, _VARIABLES[i])
        m = qd.mult_matrices[i] if prev == ORIGIN else \
            matmul(qd.mult_matrices[i], mono_matrix(prev), p)
        m.setflags(write=False)
        cache[e] = m
        return m

    out = np.zeros((d, d), dtype=np.int64)
    for e, c in f.terms.items():
        out = (out + c * mono_matrix(e)) % p
    return out


def span_ideal(A: PolyIdeal, relations, verify: bool = False) -> PolyIdeal:
    """A + V for a zero-dimensional A and V = {v : relations v = 0}, an
    ideal of S/A in coordinates on A's standard monomials; basis and
    quotient filled in.

    One elimination of the relations replaces Buchberger, as for ideals
    given by functionals (Marinari, Moeller and Mora, AAECC 4, 1993).
    The standard monomials ascend in degrevlex, and gfp.kernel_basis gives
    V's basis with the row of each free column f holding a 1 at f, 0 at
    the other free columns and its other entries at pivot columns left of
    f, which are smaller monomials.  Read with the columns in descending
    degrevlex order that is already V's reduced echelon form, so the free
    columns (the pivots below) are the leading terms of V.  An f in A + V
    whose leading term lies outside LT(A) has NF_A(f) in V with the same
    leading term, so the standard monomials of A + V are A's less the
    pivots.  Reducing A's multiplication matrices by V's basis gives those
    of A + V, and x_v V inside V is checked on the way (InvariantError
    otherwise).  The reduced basis is read off the new matrices: column m
    of M_v is NF(x_v m), so a minimal generator t of the new leading terms,
    a border term whose every t/x_u is standard, has t - NF(t) as its
    element, NF(t) being column t/x_v of M_v for any v with t_v > 0.
    With verify set, the reduced basis is compared with the one Buchberger
    finds from A's generators and V's basis.
    """
    import numpy as np
    from .gfp import matmul

    qd = quotient_data(A)
    ring, p, d = A.ring, A.ring.p, qd.colength
    relations = np.asarray(relations, dtype=np.int64).reshape(len(relations), d)
    red, pivots = kernel_basis(relations, p)  # row i: 1 at pivots[i], 0 at the other pivots
    keep = sorted(set(range(d)).difference(pivots))
    free = red[:, keep]  # the rows off the pivots
    # column j of block v: NF_A(x_v m_j) less its pivot coordinates times
    # the rows; one product serves the three variables
    lifted = matmul(free.T, np.hstack([m[pivots] for m in qd.mult_matrices]), p)
    blocks = [(m[keep] - x) % p for m, x in zip(qd.mult_matrices, np.hsplit(lifted, 3))]
    # x_v V inside V: each row's image reduces to zero
    images = matmul(np.vstack([b[:, keep] for b in blocks]), free.T, p)
    if ((np.vstack([b[:, pivots] for b in blocks]) + images) % p).any():
        raise InvariantError("the rows do not span an ideal of the quotient")
    mats = [b[:, keep] for b in blocks]
    for m in mats:
        m.setflags(write=False)
    std = tuple(qd.standard_monomials[j] for j in keep)
    std_set = frozenset(std)
    gb = [] if std else [ring.one()]
    for v, (mat, step) in enumerate(zip(mats, _VARIABLES)):
        for j, m in enumerate(std):
            t = (m[0] + step[0], m[1] + step[1], m[2] + step[2])
            # t = x_v m_j has NF(t) in column j of M_v; a minimal generator
            # of the new leading terms is taken at its first variable only
            if t in std_set or any(t[:v]) or not all(
                    not k or exp_sub(t, u) in std_set for k, u in zip(t, _VARIABLES)):
                continue
            terms = {s: p - c for s, c in zip(std, mat[:, j].tolist()) if c}
            terms[t] = 1
            gb.append(Poly(ring, terms, (t, 1)))
    gb = tuple(sorted(gb, key=lambda g: degrevlex_key(g.leading()[0])))
    if verify:
        lifts = (ring.poly(dict(zip(qd.standard_monomials, map(int, v)))) for v in red)
        if groebner(ideal(ring, A.gens + tuple(lifts))) != gb:
            raise InvariantError("the echelon-form basis differs from Buchberger's")
    qd = QuotientData(ring=ring, standard_monomials=std, standard_set=std_set,
                      colength=len(std), mult_matrices=tuple(mats), groebner_basis=gb)
    return PolyIdeal(ring=ring, gens=gb, _gb=gb, _qd=qd)


def colon(I: PolyIdeal, J, verify: bool = False) -> PolyIdeal:
    """(I : J) for a zero-dimensional I and J an ideal or a single polynomial.

    (I : J)/I is the common kernel of multiplication by the generators of
    J on S/I, an ideal of S/I.  Their stacked matrices are its relations,
    from which span_ideal reads (I : J) with one elimination, checked
    against Buchberger when verify is set.
    """
    import numpy as np

    ring = I.ring
    gens = [g for g in ((J,) if isinstance(J, Poly) else J.gens) if not g.is_zero]
    if not gens:  # (I : 0) = (1)
        return ideal(ring, (ring.one(),))
    qd = quotient_data(I)
    stacked = np.vstack([evaluate_at_matrices(g, qd) for g in gens])
    return span_ideal(I, stacked, verify=verify)
