import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hilb3 import gfp, mono3, poly3, tancomb, tanlin
from hilb3.errors import InputError, NotZeroDimensionalError

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


class TestOrders:
    def test_degrevlex_degree_two(self):
        mons = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        ranked = sorted(mons, key=poly3.degrevlex_key, reverse=True)
        assert ranked == mons  # x^2 > xy > y^2 > xz > yz > z^2


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

    @pytest.mark.parametrize("text", TRACKED_INPUTS)
    def test_reduced_rows_reproduce_groebner(self, text):
        I = pi(text)
        gens = list(I.gens)
        basis, rows = poly3.buchberger(gens, track=True)
        reduced, rows = poly3.reduce_basis(basis, rows=rows)
        assert reduced == poly3.groebner(I)
        for g, row in zip(reduced, rows):
            assert combine(row, gens) == g

    def test_rows_scale_with_non_monic_input(self):
        basis, rows = poly3.buchberger([pp("3*x"), R.zero()], track=True)
        assert basis == [pp("x")]
        assert rows == [[R.constant(gfp.inv_mod(3, P)), R.zero()]]

    def test_empty_input(self):
        assert poly3.buchberger([]) == []
        assert poly3.buchberger([R.zero()], track=True) == ([], [])
        assert poly3.reduce_basis([], rows=[]) == ((), [])


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


def moved(I, point):
    """The ideal moved to the point: x, y, z -> x - a, y - b, z - c in every generator."""
    ring = I.ring
    shifts = [ring.var(v) - ring.constant(c) for v, c in enumerate(point)]
    gens = []
    for g in I.gens:
        f = ring.zero()
        for e, c in g.terms.items():
            term = ring.constant(c)
            for shift, k in zip(shifts, e):
                for _ in range(k):
                    term = term * shift
            f = f + term
        gens.append(f)
    return poly3.ideal(ring, gens)


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
        # the raw syzygy sums grow in degree with every intersection; their
        # reduced basis generates the same ideal and keeps the next one small
        result = poly3.ideal(R, poly3.groebner(result))
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
        cache = {}
        got = poly3.evaluate_at_matrices(f, qd, cache)
        assert (got == oracle_evaluate(f, qd)).all()
        # column 0 is f times the standard monomial 1
        index = {m: i for i, m in enumerate(qd.standard_monomials)}
        want = np.zeros(qd.colength, dtype=np.int64)
        for e, c in poly3.normal_form(f, I).terms.items():
            want[index[e]] = c
        assert (got[:, 0] == want).all()
        assert not poly3.evaluate_at_matrices(member, qd, cache).any()

    def test_first_standard_monomial_is_one(self):
        qd = poly3.quotient_data(pi("x^2 - y, y^2 - z, z^2"))
        assert qd.standard_monomials[0] == (0, 0, 0)
        assert qd.colength == 8  # complete intersection of degrees 2,2,2


class TestDoubleColon:
    def test_round_trip_through_link(self):
        alpha = pi("x^3, y^3, z^3")
        I = pi("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2")
        J = poly3.colon(alpha, I)
        back = poly3.colon(alpha, J)
        assert back == I
