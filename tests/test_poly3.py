import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hilb3 import apolarity, gfp, linkage, mono3, poly3, tancomb, tanlin
from hilb3.errors import InputError, InvariantError, NotZeroDimensionalError
from helpers import GENERIC_ALPHA, IDENTITY, invertible, linear_forms, linear_image, shifts_to

P = gfp.DEFAULT_PRIME
R = poly3.PolyRing(P)


def pp(text):
    return poly3.parse_poly(text, R)


def pi(text):
    return poly3.parse_ideal(text, R)


def is_unit_ideal(I):
    return poly3.groebner(I) == (I.ring.one(),)


def mono_ideal(ideal, ring=R):
    """The monomial ideal with the same minimal generators, in the ring."""
    return poly3.ideal(ring, map(ring.monomial, ideal.mingens))


QUADRIC_APOLAR = pi("x^2 - y*z, x*z, x*y, y^2, z^2")


class TestParsing:
    def test_terms(self):
        f = pp("x^2 - y*z")
        assert f.terms == {(2, 0, 0): 1, (0, 1, 1): P - 1}
        assert pp("2*x + 3").terms == {(1, 0, 0): 2, (0, 0, 0): 3}
        assert pp("-x").terms == {(1, 0, 0): P - 1}
        assert pp("x - x").is_zero
        assert pp("xy^2").terms == {(1, 2, 0): 1}
        assert pp("x^2y").terms == {(2, 1, 0): 1}

    def test_coefficients_reduced_mod_p(self):
        assert poly3.parse_poly("5*x", poly3.PolyRing(5)).is_zero

    def test_rejects_garbage(self):
        for bad in ["w", "x^", "x +", "", "x ^ -2", "x**2"]:
            with pytest.raises(InputError):
                pp(bad)

    def test_str_round_trip(self):
        for text in ["x^2 - y*z", "z^3 + x^2", "x*y*z - 1", "2*x^4 + 3*y - z"]:
            f = pp(text)
            assert poly3.parse_poly(poly3.poly_str(f), R) == f


# ---------------------------------------------------------------------------
# the step-by-step tokenizer parse_poly replaced, kept as a reference only
# ---------------------------------------------------------------------------

_ORACLE_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|(\^)|(\*)|(\+)|(-))")


def oracle_parse_poly(text, ring):
    """parse_poly as it was: one token per match, with lookahead for '^k'."""
    names = ring.names
    pos, n = 0, len(text)
    terms = {}
    sign = 1
    cur_coeff = None
    cur_exp = [0, 0, 0]
    prev = "start"  # start | sign | star | factor

    def flush():
        nonlocal sign, cur_coeff, cur_exp
        c = sign * (1 if cur_coeff is None else cur_coeff)
        e = tuple(cur_exp)
        terms[e] = (terms.get(e, 0) + c) % ring.p
        sign, cur_coeff, cur_exp = 1, None, [0, 0, 0]

    while pos < n:
        m = _ORACLE_TOKEN.match(text, pos)
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
            letters = [var] if var in names else list(var)
            if any(ch not in names for ch in letters):
                raise InputError(f"unknown variable {var!r} in {text!r}")
            power = 1
            m2 = _ORACLE_TOKEN.match(text, pos)
            if m2 and m2.group(3):
                pos = m2.end()
                m3 = _ORACLE_TOKEN.match(text, pos)
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


def _outcome(parse, text, ring):
    try:
        return parse(text, ring).terms
    except InputError as exc:
        return str(exc)


PARSE_ALPHABET = "xyzXYw0123456789^*+- \t/."
# whole tokens as well as single characters, so that valid polynomials
# with runs, exponents and sign runs come up often
PARSE_PIECES = ["x", "y", "z", "X", "Y", "Z", "w", "xy", "yx", "zx^2", "XY", "YZ^3", "2", "13", "0",
                "^", "^2", "^ 3", "*", "*-", "+", "-", " ", "\t", "/", "."]
PARSE_TEXT = st.one_of(st.text(alphabet=PARSE_ALPHABET, max_size=16),
                       st.lists(st.sampled_from(PARSE_PIECES), max_size=10).map("".join))
PARSE_RINGS = [R, poly3.PolyRing(101, ("X", "Y", "Z")), poly3.PolyRing(5)]


class TestParseOracle:
    @settings(max_examples=600, deadline=None)
    @given(text=PARSE_TEXT)
    @example(text=" /")
    @example(text="x*-y")
    @example(text="xy^2")
    def test_matches_oracle(self, text):
        # the same terms, or the same InputError message, in every ring
        for ring in PARSE_RINGS:
            assert _outcome(poly3.parse_poly, text, ring) == \
                _outcome(oracle_parse_poly, text, ring)

    def test_grammar_examples(self):
        # the rules the parse_poly docstring states
        assert pp("x y") == pp("x*y") == pp("xy")
        assert pp("2x") == pp("2*x") == pp("2 x")
        assert pp("2*3*x") == pp("6*x")
        assert pp("x - -y") == pp("x + y")
        assert pp("xy^2") == pp("x*y^2") and pp("x^2y") == pp("x^2*y")
        assert pp("x*2") == pp("2*x")
        for bad, message in [("x*-y", "sign after '*'"), ("x2", "missing '*' before '2'"),
                             ("2^3", "misplaced '^'"), ("x ^ ", "missing exponent"),
                             (" z  / 2", "bad character in ' z  / 2' at position 2")]:
            with pytest.raises(InputError, match=re.escape(message)):
                pp(bad)


def fresh_leading(f):
    e = max(f.terms, key=poly3.degrevlex_key)
    return e, f.terms[e]


class TestLeadingTerm:
    def test_cached_leading_term_is_the_maximum(self):
        f, g = pp("3*x^2*y - y*z^3 + 5"), pp("x*y - 2*z^2 + x")
        f.leading(), g.leading()  # a cache copied into a result would go stale
        built = [f + g, f + pp("y*z^3"), f - g, -f, f * g, f.scale(7), f.mul_monomial((1, 0, 2), 3),
                 f.monic(), R.poly({(0, 2, 1): 4, (1, 0, 0): 2}), R.monomial((2, 0, 1)),
                 R.one(), pp("z^4 - x*y*z")]
        rem, quots = poly3.reduce_full(f * g + pp("y^5 + x"), [g.monic(), pp("z^3 - x")],
                                       track=True)
        built += [rem] + quots
        # bases that fill the cache as they build: the all-monomial branch
        # of groebner, and span_ideal's (here through a colon)
        built += poly3.groebner(poly3.parse_ideal("x^2, x*y, y^3, x*z, z^2, y^2*z", R))
        built += poly3.colon(poly3.parse_ideal("x^3, y^2, z^2", R), pp("x + y*z")).gens
        for h in built:
            if h.is_zero:
                continue
            first = h.leading()
            assert first == fresh_leading(h)
            assert h.leading() is first  # cached, not recomputed


class TestOrders:
    def test_degrevlex_degree_two(self):
        mons = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        ranked = sorted(mons, key=poly3.degrevlex_key, reverse=True)
        assert ranked == mons  # x^2 > xy > y^2 > xz > yz > z^2


TRIPLES = st.tuples(*[st.integers(0, 6)] * 3)


def any_arity_degrevlex_key(e):
    """The key for any number of variables, kept as the oracle of degrevlex_key."""
    return (sum(e), tuple(-e[i] for i in range(len(e) - 1, -1, -1)))


class TestExponentTriples:
    @settings(max_examples=300, deadline=None)
    @given(TRIPLES, TRIPLES)
    def test_degrevlex_key_orders_like_the_any_arity_key(self, a, b):
        new, old = poly3.degrevlex_key, any_arity_degrevlex_key
        assert (new(a) < new(b)) == (old(a) < old(b))
        assert (new(a) == new(b)) == (a == b) == (old(a) == old(b))

    @settings(max_examples=300, deadline=None)
    @given(TRIPLES, TRIPLES)
    def test_helpers_are_componentwise(self, a, b):
        assert poly3.exp_divides(a, b) == all(x <= y for x, y in zip(a, b))
        assert poly3.exp_sub(a, b) == tuple(x - y for x, y in zip(a, b))
        assert poly3.exp_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))

    def test_monomial_str(self):
        assert poly3.monomial_str(poly3.ORIGIN) == "1"
        assert poly3.monomial_str((2, 0, 1), ("X", "Y", "Z")) == "X^2*Z"
        assert poly3.poly_str(pp("3*x*z^2 - y + 5")) == "3*x*z^2 - y + 5"


class TestGroebner:
    def test_quadric_apolar_standard_monomials(self):
        gb = poly3.groebner(QUADRIC_APOLAR)
        std = poly3.standard_monomials(gb)
        assert set(std) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)}

    def test_unit_ideal(self):
        assert poly3.groebner(pi("1")) == (R.one(),)
        assert is_unit_ideal(pi("x, x - 1"))

    def test_monomial_generators_unchanged(self):
        I = pi("x^2, x*y, z^3")
        gb = poly3.groebner(I)
        assert {frozenset(g.terms) for g in gb} == {frozenset(g.terms) for g in I.gens}

    def test_idempotent(self):
        gb = poly3.groebner(QUADRIC_APOLAR)
        again = poly3.reduce_basis(poly3.buchberger(list(gb)))
        assert again == gb

    def test_membership(self):
        f = pp("x^2")
        g = pp("y*z")
        assert poly3.contains(QUADRIC_APOLAR, f - g)
        assert not poly3.contains(QUADRIC_APOLAR, f)

    def test_gb_invariant_under_generator_shuffle(self):
        rng = random.Random(3)
        gens = list(QUADRIC_APOLAR.gens)
        for _ in range(5):
            rng.shuffle(gens)
            assert poly3.groebner(poly3.ideal(R, gens)) == poly3.groebner(QUADRIC_APOLAR)


TRACKED_INPUTS = [
    "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z",
    "x^2 - y*z, x*z, x*y, y^2, z^2",
    # non-monic, redundant and repeated generators
    "2*x^2 - 2*y*z, 3*x*z, x*y, x*y + x*z, y^2, z^2, y^2, x^3",
    "5*x^2 + y, 7*x*y - z, y^2 + 3*x^2 + y, x*y - z",
]


def combine(row, gens):
    return sum((t * g for t, g in zip(row, gens)), R.zero())


class TestTrackedGroebner:
    @pytest.mark.parametrize("text", TRACKED_INPUTS)
    def test_rows_reproduce_basis(self, text):
        gens = list(pi(text).gens) + [R.zero()]
        basis, rows = poly3.buchberger(gens, track=True)
        assert basis == poly3.buchberger(gens)
        assert len(rows) == len(basis)
        for g, row in zip(basis, rows):
            assert len(row) == len(gens)
            assert combine(row, gens) == g

    def test_rows_scale_with_non_monic_input(self):
        basis, rows = poly3.buchberger([pp("3*x"), R.zero()], track=True)
        assert basis == [pp("x")]
        assert rows == [[R.monomial((0, 0, 0), gfp.inv_mod(3, P)), R.zero()]]

    def test_empty_input(self):
        assert poly3.buchberger([]) == []
        assert poly3.buchberger([R.zero()], track=True) == ([], [])


class TestNormalForm:
    def test_single_reduction(self):
        assert poly3.normal_form(pp("x^2"), QUADRIC_APOLAR) == pp("y*z")

    def test_one_mod_proper(self):
        assert poly3.normal_form(R.one(), QUADRIC_APOLAR) == R.one()

    def test_generators_reduce_to_zero(self):
        for g in QUADRIC_APOLAR.gens:
            assert poly3.normal_form(g, QUADRIC_APOLAR).is_zero

    def test_linearity(self):
        rng = random.Random(5)
        mons = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
        for _ in range(10):
            f = R.poly({rng.choice(mons): rng.randrange(1, P) for _ in range(4)})
            g = R.poly({rng.choice(mons): rng.randrange(1, P) for _ in range(4)})
            nf = poly3.normal_form
            assert nf(f + g, QUADRIC_APOLAR) == nf(f, QUADRIC_APOLAR) + nf(g, QUADRIC_APOLAR)


def substituted(gens, forms):
    """Each polynomial with x, y, z replaced by the three forms."""
    ring = forms[0].ring
    out = []
    for g in gens:
        f = ring.zero()
        for e, c in g.terms.items():
            term = ring.monomial((0, 0, 0), c)
            for form, k in zip(forms, e):
                for _ in range(k):
                    term = term * form
            f = f + term
        out.append(f)
    return out


def moved(I, point):
    """The ideal moved to the point: x, y, z -> x - a, y - b, z - c in every generator."""
    return poly3.ideal(I.ring, substituted(I.gens, shifts_to(I.ring, point)))


def translate(ideal, point):
    """The monomial ideal moved to the point."""
    return moved(mono_ideal(ideal), point)


SMALL_IDEALS = [I for d in range(1, 6) for I in mono3.enumerate_ideals(d)]
points = st.tuples(*[st.integers(-3, 3)] * 3)


COLON_IDEALS = [I for d in range(3, 9) for I in mono3.enumerate_ideals(d)]


def polys(low, high, ring=R):
    """Nonzero polynomials of up to three terms, of degree low to high."""
    exps = st.tuples(*[st.integers(0, high)] * 3).filter(lambda e: low <= sum(e) <= high)
    coeffs = st.integers(1, ring.p - 1)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=3).map(ring.poly)


@st.composite
def zero_dim_ideals(draw, ring=R):
    """A monomial ideal of colength 3 to 8, moved to a random point, plus up
    to two polynomials of degree 2 to 3; unit ideals are discarded.  Moving
    the base matters: at the origin the extra terms mostly lie in the
    monomial ideal already, and the Groebner basis stays monomial."""
    base = moved(mono_ideal(draw(st.sampled_from(COLON_IDEALS)), ring), draw(points))
    I = poly3.ideal(ring, base.gens + tuple(draw(st.lists(polys(2, 3, ring), max_size=2))))
    assume(not is_unit_ideal(I))
    return I


class TestReduceBasis:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from(TRACKED_INPUTS).map(pi), zero_dim_ideals()))
    def test_one_interreduction_pass(self, I):
        calls = []
        original = poly3.reduce_full
        basis = poly3.buchberger(I.gens)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(poly3, "reduce_full",
                      lambda f, b, track=False: calls.append(f) or original(f, b, track))
            reduced = poly3.reduce_basis(basis)
        assert len(calls) == len(reduced)  # one reduction per element
        lts = [g.leading() for g in reduced]
        assert all(c == 1 for _, c in lts)
        for i, g in enumerate(reduced):
            for j, (lt, _) in enumerate(lts):
                assert i == j or not any(poly3.exp_divides(lt, e) for e in g.terms)


class TestIntersect:
    def test_principal(self):
        assert poly3.intersect(pi("x"), pi("y")) == pi("x*y")

    def test_containment(self):
        m = pi("x, y, z")
        m2 = pi("x^2, x*y, x*z, y^2, y*z, z^2")
        assert poly3.intersect(m, m2) == m2

    def test_two_planes(self):
        assert poly3.intersect(pi("x, y"), pi("x, z")) == pi("x, y*z")

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(SMALL_IDEALS), st.sampled_from(SMALL_IDEALS), points, points)
    def test_disjoint_supports_add_colength_and_tangent(self, A, B, a, b):
        # the scheme of the intersection is the disjoint union of the two
        # points, so d and dim T add up
        if a == b:
            b = (b[0] + 1,) + b[1:]
        meet = poly3.intersect(translate(A, a), translate(B, b))
        d, t, _ = tanlin.tangent_excess(meet)
        assert d == A.colength + B.colength
        assert t == tancomb.tangent_report(A).total + tancomb.tangent_report(B).total

    @settings(max_examples=40, deadline=None)
    @given(zero_dim_ideals(), zero_dim_ideals())
    def test_zero_dimensional_pairs(self, I, J):
        # membership in both gives meet <= I cap J; the colength identity
        # d(I cap J) + d(I + J) = d(I) + d(J) then forces equality
        meet = poly3.intersect(I, J)
        # generated by its own reduced basis
        assert meet.gens == poly3.groebner(poly3.ideal(R, meet.gens))
        for g in meet.gens:
            assert poly3.contains(I, g) and poly3.contains(J, g)

        def d(K):
            return poly3.quotient_data(K).colength

        assert d(meet) + d(poly3.ideal(R, I.gens + J.gens)) == d(I) + d(J)


# the colon by intersection: (I : f) = (I cap (f)) / f, intersected over f in J

def divide_exact(f, g):
    """f / g for f in the principal ideal (g)."""
    rem, quots = poly3.reduce_full(f, [g.monic()], track=True)
    assert rem.is_zero
    return quots[0].scale(gfp.inv_mod(g.leading()[1], P))


def oracle_colon(I, J):
    result = None
    for f in J.gens:
        meet = poly3.intersect(I, poly3.ideal(R, (f,)))
        step = poly3.ideal(R, (divide_exact(g, f) for g in meet.gens))
        result = step if result is None else poly3.intersect(result, step)
    return result


@st.composite
def colon_inputs(draw):
    """I: a zero-dimensional ideal; J: one to three polynomials, all of them
    inside I when `inside` is drawn."""
    I = draw(zero_dim_ideals())
    inside = draw(st.booleans())
    gens = []
    for f in draw(st.lists(polys(1, 2), min_size=1, max_size=3)):
        if inside:
            f = f * draw(st.sampled_from(I.gens))
        gens.append(f)
    return I, poly3.ideal(R, gens), inside


class TestColon:
    def test_principal_example(self):
        assert poly3.colon(pi("x^2, y, z"), pp("x")) == pi("x, y, z")

    def test_positive_dimensional_rejected(self):
        with pytest.raises(NotZeroDimensionalError):
            poly3.colon(pi("x^2"), pp("x"))

    def test_by_zero(self):
        assert is_unit_ideal(poly3.colon(pi("x^2, y, z"), R.zero()))
        assert is_unit_ideal(poly3.colon(pi("x^2, y, z"), poly3.ideal(R, ())))

    @settings(max_examples=60, deadline=None)
    @given(colon_inputs())
    def test_matches_elimination_oracle(self, inputs):
        I, J, inside = inputs
        got = poly3.colon(I, J)
        assert got == oracle_colon(I, J)
        if inside:
            assert is_unit_ideal(got)

    def test_by_unit(self):
        I = pi("x^2, y^3, z")
        assert poly3.colon(I, pi("1")) == I

    def test_surplus_six_link(self):
        I = pi("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2")
        J = poly3.colon(pi("x^3, y^3, z^3"), I)
        assert J == pi("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2, x*y*z")

    def test_matches_staircase_colon_on_monomials(self):
        rng = random.Random(9)
        ideals = list(mono3.enumerate_ideals(5))
        for ideal in rng.sample(ideals, 6):
            I = mono_ideal(ideal)
            f = (1, 1, 0)
            got = poly3.colon(I, R.monomial(f))
            want_m = mono3.colon_by_monomial(ideal, f)
            if want_m.is_unit:
                assert is_unit_ideal(got)
            else:
                assert got == mono_ideal(want_m)


RINGS = (R, poly3.PolyRing(gfp.SECOND_PRIME))


def oracle_evaluate(f, qd):
    """Sum of c * M^e over the terms of f: every monomial matrix is a chain
    of gfp.matmul products of the variable matrices, and f is not reduced."""
    p, d = qd.ring.p, qd.colength
    out = np.zeros((d, d), dtype=np.int64)
    for e, c in f.terms.items():
        m = np.eye(d, dtype=np.int64)
        for v, k in enumerate(e):
            for _ in range(k):
                m = gfp.matmul(qd.mult_matrices[v], m, p)
        out = (out + c * m) % p
    return out


@st.composite
def evaluate_inputs(draw):
    """A zero-dimensional ideal over either prime, a polynomial f, and a
    random combination of the generators (an element of the ideal).  The
    ideal sits at a random point: at the origin its Groebner basis is
    nearly always monomial, and then every non-standard term lies in I."""
    ring = draw(st.sampled_from(RINGS))
    I = draw(zero_dim_ideals(ring))
    f = draw(polys(0, 4, ring))
    member = ring.zero()
    for g in I.gens:
        if draw(st.booleans()):
            member = member + draw(polys(0, 2, ring)) * g
    return I, f, member


class TestQuotientData:
    def test_m2(self):
        qd = poly3.quotient_data(pi("x^2, x*y, x*z, y^2, y*z, z^2"))
        assert qd.colength == 4
        # ascending degrevlex: 1 < z < y < x
        assert qd.standard_monomials == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_quadric_apolar(self):
        assert poly3.quotient_data(QUADRIC_APOLAR).colength == 5

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensionalError):
            poly3.quotient_data(pi("x, y"))

    def test_matrices_commute_and_satisfy_generators(self):
        for I in [QUADRIC_APOLAR, pi("x^2 - y, y^2 - z, z^2"),
                  pi("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2")]:
            qd = poly3.quotient_data(I)
            mats = qd.mult_matrices
            for a in range(3):
                for b in range(a + 1, 3):
                    lhs = gfp.matmul(mats[a], mats[b], P)
                    rhs = gfp.matmul(mats[b], mats[a], P)
                    assert (lhs == rhs).all()
            for g in I.gens:
                assert not oracle_evaluate(g, qd).any()

    def test_colength_matches_mono3(self):
        rng = random.Random(1)
        for d in range(1, 7):
            ideals = list(mono3.enumerate_ideals(d))
            for ideal in rng.sample(ideals, min(4, len(ideals))):
                I = mono_ideal(ideal)
                assert poly3.quotient_data(I).colength == d

    @settings(max_examples=60, deadline=None)
    @given(evaluate_inputs())
    def test_evaluate_is_multiplication_by_normal_form(self, inputs):
        I, f, member = inputs
        qd = poly3.quotient_data(I)
        got = poly3.evaluate_at_matrices(f, qd)
        assert (got == oracle_evaluate(f, qd)).all()
        # column 0 is f times the standard monomial 1
        index = {m: i for i, m in enumerate(qd.standard_monomials)}
        want = np.zeros(qd.colength, dtype=np.int64)
        for e, c in poly3.normal_form(f, I).terms.items():
            want[index[e]] = c
        assert (got[:, 0] == want).all()
        assert not poly3.evaluate_at_matrices(member, qd).any()

    def test_cached_on_the_ideal(self, quotient_builds):
        I = pi("x^2 - y, y^2 - z, z^2")
        qd = poly3.quotient_data(I)
        assert poly3.quotient_data(I) is qd
        assert len(quotient_builds) == 1

    def test_cached_arrays_are_read_only(self, monkeypatch):
        qd = poly3.quotient_data(pi("x^2 - y, y^2 - z, z^2"))
        f = pp("x*y + 2*z")
        want = oracle_evaluate(f, qd)
        products = []
        original = gfp.matmul
        monkeypatch.setattr(gfp, "matmul", lambda a, b, p: products.append(p) or original(a, b, p))
        got = poly3.evaluate_at_matrices(f, qd)
        got[0, 0] = 5  # the caller's own array
        assert (poly3.evaluate_at_matrices(f, qd) == want).all()
        assert len(products) == 1  # M_x M_y; y and z are M_y and M_z, and the second call reuses all
        assert set(qd.monomial_matrices) == {(0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)}
        for m in qd.mult_matrices + tuple(qd.monomial_matrices.values()):
            with pytest.raises(ValueError):
                m[0, 0] = 1

    def test_first_standard_monomial_is_one(self):
        qd = poly3.quotient_data(pi("x^2 - y, y^2 - z, z^2"))
        assert qd.standard_monomials[0] == (0, 0, 0)
        assert qd.colength == 8  # complete intersection of degrees 2,2,2

    @pytest.mark.parametrize("text", [
        "x^3, y^2, z^2, x*y*z",  # monomial: no tail, every border column 0 or a shift
        "x^2 - y*z, x*z, x*y, y^2, z^2",  # monomial elements beside one with a tail
        "x^2 - y, y^2 - z, z^2",  # border terms that are no leading term
        GENERIC_ALPHA,
    ])
    def test_no_division(self, text):
        I = pi(text)
        poly3.groebner(I)  # Buchberger's basis reduction divides; the quotient must not
        calls = []
        original = poly3.reduce_full
        with pytest.MonkeyPatch.context() as m:
            m.setattr(poly3, "reduce_full",
                      lambda f, b, track=False: calls.append(f) or original(f, b, track))
            poly3.quotient_data(I)
        assert calls == []


class TestDoubleColon:
    def test_round_trip_through_link(self):
        alpha = pi("x^3, y^3, z^3")
        I = pi("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2")
        J = poly3.colon(alpha, I)
        back = poly3.colon(alpha, J)
        assert back == I


# quotient_data against the builder it replaced, one division per border
# monomial, on ideals with and without tails in their reduced basis

def oracle_quotient(gb):
    """Standard monomials (from the box under the pure powers) and the three
    multiplication matrices, column j of M_v being reduce_full(x_v m_j)."""
    lts = [g.leading()[0] for g in gb]
    box = [min(lt[v] for lt in lts if lt[v] == sum(lt)) for v in range(3)]
    basis = sorted((e for e in itertools.product(*map(range, box))
                    if not any(poly3.exp_divides(lt, e) for lt in lts)), key=poly3.degrevlex_key)
    index = {m: i for i, m in enumerate(basis)}
    mats = []
    for v in IDENTITY:
        mat = np.zeros((len(basis), len(basis)), dtype=np.int64)
        for j, m in enumerate(basis):
            shifted = tuple(a + b for a, b in zip(m, v))
            if shifted in index:
                mat[index[shifted], j] = 1
                continue
            nf, _ = poly3.reduce_full(R.monomial(shifted), gb)
            for e, c in nf.terms.items():
                mat[index[e], j] = c
        mats.append(mat)
    return tuple(basis), mats


@st.composite
def coordinate_changes(draw):
    """An invertible affine change x_i -> sum_j a[i][j] x_j + t[i] whose
    off-diagonal and translation entries are each 0 or random, so the
    images range from monomial ideals (every entry 0) to generic ones, with
    reduced bases that mix monomial elements and elements with tails."""
    entry = st.one_of(st.just(0), st.integers(1, P - 1))
    three = st.lists(entry, min_size=3, max_size=3)
    diag = draw(st.lists(st.integers(1, P - 1), min_size=3, max_size=3))
    a = invertible(draw(three), draw(three), diag, draw(st.permutations(range(3))))
    return a, draw(three)


LINK_FAMILIES = (
    lambda n: linkage.family_tripod22_to_m2(R, n),
    lambda n: linkage.family_tripod_to_tripod22(R, 2, 3, n),
    lambda n: linkage.family_j1_to_tripod(R, 2, n),
    lambda n: linkage.family_jabb_to_j1(R, 2, n),
)


@st.composite
def link_targets(draw):
    """The link of a catalog source after a coordinate change."""
    src, alpha, _ = draw(st.sampled_from(LINK_FAMILIES))(draw(st.integers(2, 4)))
    forms = linear_forms(R, *draw(coordinate_changes()))
    return linkage.link(poly3.ideal(R, substituted(src.gens, forms)),
                        substituted(alpha, forms)).target


def annihilators():
    exps = st.tuples(*[st.integers(0, 4)] * 3).filter(lambda e: sum(e) <= 4)
    duals = st.dictionaries(exps, st.integers(1, P - 1), min_size=1, max_size=4).map(
        apolarity.dual_ring(P).poly)
    return st.lists(duals, min_size=1, max_size=2).map(lambda fs: apolarity.annihilator(fs, R))


def quotient_inputs():
    images = st.builds(lambda J, change: linear_image(J, R, *change),
                       st.sampled_from(COLON_IDEALS), coordinate_changes())
    return st.one_of(st.sampled_from(COLON_IDEALS).map(mono_ideal), images, link_targets(),
                     annihilators(), zero_dim_ideals())


class TestQuotientFromBasis:
    @settings(max_examples=120, deadline=None)
    @given(quotient_inputs())
    def test_matches_a_division_per_border_monomial(self, I):
        gb = poly3.groebner(I)
        # a fresh ideal: span_ideal's quotients (links, annihilators) are
        # cached on theirs, read off the parent's matrices
        qd = poly3.quotient_data(poly3.PolyIdeal(ring=R, gens=gb, _gb=gb))
        basis, mats = oracle_quotient(gb)
        assert qd.standard_monomials == basis
        for got, want in zip(qd.mult_matrices, mats):
            assert (got == want).all()
        for a in range(3):
            for b in range(a + 1, 3):
                lhs = gfp.matmul(qd.mult_matrices[a], qd.mult_matrices[b], P)
                assert (lhs == gfp.matmul(qd.mult_matrices[b], qd.mult_matrices[a], P)).all()

    def test_tail_off_the_staircase_is_rejected(self):
        # the tail x of y^2 + x is no standard monomial of (z, x, y^2)
        gb = (R.monomial((0, 0, 1)), R.monomial((1, 0, 0)), pp("y^2 + x"))
        with pytest.raises(InvariantError, match="tail"):
            poly3.quotient_data(poly3.PolyIdeal(ring=R, gens=gb, _gb=gb))


# span_ideal against Buchberger, the route it replaced: the reduced basis of
# A's generators plus the kernel vectors read as polynomials

def lift_rows(A, rows):
    std = poly3.quotient_data(A).standard_monomials
    return [A.ring.poly(dict(zip(std, map(int, v)))) for v in rows]


def oracle_span(A, rows):
    return poly3.reduce_basis(poly3.buchberger(A.gens + tuple(lift_rows(A, rows))))


def assert_same_quotient(got, gb):
    """got carries gb as its basis and the quotient data built from gb."""
    assert poly3.groebner(got) == gb
    want = poly3.quotient_data(poly3.PolyIdeal(ring=got.ring, gens=gb))
    qd = poly3.quotient_data(got)
    assert qd.standard_monomials == want.standard_monomials
    assert qd.standard_set == want.standard_set
    assert qd.colength == want.colength
    assert qd.groebner_basis == gb
    for m, w in zip(qd.mult_matrices, want.mult_matrices):
        assert (m == w).all()
        with pytest.raises(ValueError):
            m[...] = 0


@st.composite
def span_inputs(draw):
    """A zero-dimensional A: a monomial ideal plus up to two polynomials of
    degree 2 to 3, moved to a random point; J: one to three polynomials of
    degree 1 to 2, moved to the same point.  Everything vanishes at the
    point, so A is not (1), and (A : J) is in general neither A nor (1)."""
    point = draw(points)
    base = mono_ideal(draw(st.sampled_from(COLON_IDEALS)))
    A = poly3.ideal(R, base.gens + tuple(draw(st.lists(polys(2, 3), max_size=2))))
    J = poly3.ideal(R, draw(st.lists(polys(1, 2), min_size=1, max_size=3)))
    return moved(A, point), moved(J, point)


def colon_rows(A, J):
    qd = poly3.quotient_data(A)
    stacked = np.vstack([poly3.evaluate_at_matrices(g, qd) for g in J.gens])
    return gfp.kernel_basis(stacked, P)[0]


def relations(rows):
    """Relations whose kernel is the span of rows: the kernel of the kernel
    is the row space."""
    return gfp.kernel_basis(np.asarray(rows, dtype=np.int64), P)[0]


class TestSpanIdeal:
    @settings(max_examples=80, deadline=None)
    @given(span_inputs())
    def test_colon_matches_buchberger(self, inputs):
        A, J = inputs
        got = poly3.colon(A, J)
        assert_same_quotient(got, oracle_span(A, colon_rows(A, J)))
        assert got.gens == poly3.groebner(got)

    @settings(max_examples=20, deadline=None)
    @given(span_inputs())
    def test_verify_agrees(self, inputs):
        A, J = inputs
        assert poly3.colon(A, J, verify=True) == poly3.colon(A, J)

    @pytest.mark.parametrize("text", ["x^3, y^3, z^3, y*z^2, x^2*z, x*y^2",
                                      "x^2 - y*z, x*z, x*y, y^2, z^2", "x^2 - y, y^2 - z, z^2"])
    def test_zero_and_everything(self, text):
        A = pi(text)
        d = poly3.quotient_data(A).colength
        assert_same_quotient(poly3.span_ideal(A, relations(np.zeros((0, d)))),
                             poly3.groebner(A))
        full = poly3.span_ideal(A, relations(3 * np.eye(d)))
        assert_same_quotient(full, (R.one(),))
        assert poly3.quotient_data(full).colength == 0

    def test_dependent_rows(self):
        # y*z, x*y*z and their sum span the ideal (y*z) of S/A
        A = pi("x^2, y^2, z^2")
        std = poly3.quotient_data(A).standard_monomials
        v = np.zeros((3, len(std)), dtype=np.int64)
        v[0, std.index((0, 1, 1))] = 1
        v[1, std.index((1, 1, 1))] = 5
        v[2] = (v[0] + v[1]) % P
        assert_same_quotient(poly3.span_ideal(A, relations(v)),
                             poly3.groebner(pi("x^2, y^2, z^2, y*z")))

    def test_tails_reduced_by_the_rows(self):
        # A's element y^2 + (z - 1)^2 keeps its leading term, but its tail
        # holds the pivot z^2 of V = ((z - 1)^2), so it becomes y^2
        A = moved(pi("z^3, y^2*z, y^4, x, y^2 + z^2"), (0, 0, 1))
        got = poly3.colon(A, pp("z - 1"))
        assert [poly3.poly_str(g) for g in poly3.groebner(got)] == ["x", "z^2 - 2*z + 1", "y^2"]
        assert_same_quotient(got, oracle_span(A, colon_rows(A, pi("z - 1"))))

    def test_unit_ambient(self):
        A = pi("x + 1, x")
        got = poly3.colon(A, pp("x"))
        assert_same_quotient(got, (R.one(),))

    @pytest.mark.parametrize("text, j", [("x^3, y^3, z^3, x*y*z", "x, y^2 + z"),
                                         ("x^2 - y, y^2 - z, z^2", "y")])
    def test_one_elimination(self, text, j, monkeypatch):
        # the stacked maps are the relations: span_ideal's kernel is the
        # only elimination, its basis already the echelon form of (I : J)/I
        A, J = pi(text), pi(j)
        calls = []
        original = gfp.rref
        monkeypatch.setattr(gfp, "rref", lambda a, p: calls.append(a.shape) or original(a, p))
        got = poly3.colon(A, J)
        assert len(calls) == 1
        assert_same_quotient(got, oracle_span(A, colon_rows(A, J)))

    @pytest.mark.parametrize("text, row", [
        ("x^3, x^2*y, x^2*z, x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3", "x"),
        ("x^3, x^2*y, x^2*z, x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3", "x + y^2"),
        ("x^2 - y, y^2 - z, z^2", "y"),
    ])
    def test_rows_spanning_no_ideal_are_rejected(self, text, row):
        # x alone in S/m^3 is not closed under multiplication: x^2 is missing
        A = pi(text)
        std = poly3.quotient_data(A).standard_monomials
        f = pp(row)
        v = np.array([[f.terms.get(m, 0) for m in std]], dtype=np.int64)
        with pytest.raises(InvariantError):
            poly3.span_ideal(A, relations(v))


@st.composite
def monomial_lists(draw):
    """Monomials with any coefficient, repeats and the unit allowed."""
    exps = st.tuples(*[st.integers(0, 4)] * 3)
    terms = draw(st.lists(st.tuples(exps, st.integers(1, P - 1)), min_size=1, max_size=8))
    return [R.monomial(e, c) for e, c in terms + draw(st.lists(st.sampled_from(terms)))]


class TestMonomialGroebner:
    @settings(max_examples=100, deadline=None)
    @given(monomial_lists())
    def test_matches_buchberger(self, gens):
        got = poly3.groebner(poly3.ideal(R, gens))
        assert got == poly3.reduce_basis(poly3.buchberger(gens))

    def test_runs_no_buchberger(self, buchberger_runs):
        gb = poly3.groebner(pi("3*x^2, x*y, x^3, 2*y, z^4"))
        assert [poly3.poly_str(g) for g in gb] == ["y", "x^2", "z^4"]
        assert buchberger_runs == []
