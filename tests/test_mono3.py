import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb3 import mono3, poly3
from hilb3.errors import InputError, NotZeroDimensionalError, UnitIdealError
from helpers import ev, is_strongly_stable

I1 = mono3.parse_monomial_ideal("x^2, x*y, x*z, y^2, y*z, z^3")
I2 = mono3.parse_monomial_ideal("x^2, x*y, x*z, y^2, z^2")


UNIT_VECS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def ev_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


# ---------------------------------------------------------------------------
# brute-force oracle: the bounding-box code that mono3 ran before it stored
# the height array, kept here as the reference for the local rules
# ---------------------------------------------------------------------------

def ev_leq(a, b):
    """Divisibility order: a <= b componentwise."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def oracle_minimalize(gens):
    gens = sorted(set(gens))
    return [g for g in gens if not any(h != g and ev_leq(h, g) for h in gens)]


def oracle_staircase(gens):
    """Cells of the box under the pure powers that no generator divides."""
    bounds = [min(g[i] for g in gens if sum(g) == g[i]) for i in range(3)]
    return frozenset(v for v in itertools.product(*map(range, bounds))
                     if not any(ev_leq(g, v) for g in gens))


def oracle_mingens(staircase):
    """Minimal monomials outside a downward-closed finite set, by box scan."""
    if not staircase:
        return ((0, 0, 0),)
    bounds = [max(v[i] for v in staircase) + 1 for i in range(3)]
    gens = []
    for v in itertools.product(*(range(b + 1) for b in bounds)):
        if v in staircase:
            continue
        if all(v[i] == 0 or (v[0] - (i == 0), v[1] - (i == 1), v[2] - (i == 2)) in staircase
               for i in range(3)):
            gens.append(v)
    return tuple(sorted(gens))


def oracle_socle(staircase):
    return tuple(sorted(v for v in staircase
                        if all(ev_add(v, e) not in staircase for e in UNIT_VECS)))


def oracle_partitions_bounded(total, bound):
    """Nonincreasing positive tuples summing to `total`, pointwise <= bound."""
    def rec(remaining, maxpart, j):
        if remaining == 0:
            yield ()
            return
        if j >= len(bound):
            return
        for v in range(min(maxpart, bound[j], remaining), 0, -1):
            for rest in rec(remaining - v, v, j + 1):
                yield (v,) + rest
    yield from rec(total, total, 0)


def oracle_plane_partitions(d):
    """The recursive enumeration mono3 ran before its explicit-stack walk:
    plane partitions of d, largest row readings first."""
    def rec(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for k in range(min(remaining, sum(bound)), 0, -1):
            for row in oracle_partitions_bounded(k, bound):
                for rest in rec(remaining - k, row):
                    yield (row,) + rest
    yield from rec(d, tuple([d] * d))


def oracle_hilbert_function(staircase):
    if not staircase:
        return ()
    h = [0] * (max(map(sum, staircase)) + 1)
    for v in staircase:
        h[sum(v)] += 1
    return tuple(h)


def hilbert_function(ideal):
    """Counts of staircase monomials by total degree, trailing zeros trimmed,
    read off the height array: column (i, j) holds one monomial in each
    degree i + j, ..., i + j + h - 1."""
    hf = []
    for i, row in enumerate(ideal.heights):
        for j, h in enumerate(row):
            hf.extend([0] * (i + j + h - len(hf)))
            for k in range(i + j, i + j + h):
                hf[k] += 1
    return tuple(hf)


def oracle_colon(staircase, f):
    return frozenset(poly3.exp_sub(v, f) for v in staircase if ev_leq(f, v))


def oracle_add(staircase, f):
    return frozenset(v for v in staircase if not ev_leq(f, v))


exps = st.integers(min_value=0, max_value=4)
monomials = st.tuples(exps, exps, exps)
pure = st.integers(min_value=1, max_value=5)


@st.composite
def primary_generators(draw):
    """An m-primary generator list: three pure powers plus random monomials."""
    a, b, c = draw(pure), draw(pure), draw(pure)
    extra = draw(st.lists(monomials.filter(any), max_size=6))
    gens = [(a, 0, 0), (0, b, 0), (0, 0, c)] + extra
    return draw(st.permutations(gens))


@st.composite
def plane_partitions(draw):
    """Any plane partition inside a 4x4x5 box: running minima of a random grid."""
    grid = draw(st.lists(st.lists(st.integers(0, 5), min_size=4, max_size=4),
                         min_size=1, max_size=4))
    rows = []
    for i, raw in enumerate(grid):
        row = []
        for j, h in enumerate(raw):
            h = min([h] + row[-1:] + ([rows[i - 1][j]] if i else []))
            row.append(h)
        rows.append(row)
    return tuple(t for t in (tuple(h for h in row if h) for row in rows) if t)


def check_against_oracle(ideal, staircase):
    assert ideal.staircase == staircase
    assert ideal.colength == len(staircase)
    assert ideal.mingens == oracle_mingens(staircase)
    assert mono3.socle(ideal) == oracle_socle(staircase)
    assert hilbert_function(ideal) == oracle_hilbert_function(staircase)
    assert mono3.from_generators(ideal.mingens) == ideal


class TestAgainstOracle:
    def test_one_stored_field(self):
        assert [f.name for f in dataclasses.fields(mono3.MonomialIdeal3)] == ["heights"]

    @settings(max_examples=150, deadline=None)
    @given(primary_generators())
    def test_from_generators(self, gens):
        ideal = mono3.from_generators(gens)
        check_against_oracle(ideal, oracle_staircase(gens))
        assert ideal.mingens == tuple(oracle_minimalize(gens))

    @settings(max_examples=150, deadline=None)
    @given(plane_partitions())
    def test_plane_partition(self, pp):
        ideal = mono3.ideal_from_plane_partition(pp)
        assert ideal.heights == pp
        staircase = frozenset((i, j, k) for i, row in enumerate(pp)
                              for j, h in enumerate(row) for k in range(h))
        if pp:
            check_against_oracle(ideal, staircase)
        else:
            assert ideal.is_unit and ideal == mono3.UNIT_IDEAL

    @settings(max_examples=150, deadline=None)
    @given(plane_partitions().filter(bool), monomials)
    def test_colon_and_add(self, pp, f):
        ideal = mono3.ideal_from_plane_partition(pp)
        colon = mono3.colon_by_monomial(ideal, f)
        want = oracle_colon(ideal.staircase, f)
        assert colon.staircase == want
        assert (colon is mono3.UNIT_IDEAL) == (not want)
        if want:
            check_against_oracle(colon, want)
        added = mono3.add_monomial(ideal, f)
        want = oracle_add(ideal.staircase, f)
        assert added.staircase == want
        if want:
            check_against_oracle(added, want)

    def test_every_small_ideal(self):
        for d in range(1, 8):
            for ideal in mono3.enumerate_ideals(d):
                check_against_oracle(ideal, ideal.staircase)
                assert ideal.mingens == tuple(oracle_minimalize(ideal.mingens))


class TestFromGenerators:
    def test_staircase_example(self):
        # staircase {1, x, y, z, z^2}, colength 5
        assert I1.colength == 5
        assert I1.staircase == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2)}

    def test_maximal_ideal(self):
        m = mono3.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert m.colength == 1
        assert m.staircase == {(0, 0, 0)}

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensionalError):
            mono3.from_generators([(1, 0, 0), (0, 1, 0)])

    def test_unit(self):
        with pytest.raises(UnitIdealError):
            mono3.from_generators([(0, 0, 0), (1, 0, 0)])

    def test_minimalization(self):
        i = mono3.from_generators([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert i.mingens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


class TestSocle:
    def test_first_staircase_example(self):
        assert set(mono3.socle(I1)) == {ev("x"), ev("y"), ev("z^2")}

    def test_second_staircase_example(self):
        assert set(mono3.socle(I2)) == {ev("x"), ev("y*z")}

    def test_square_of_max_ideal(self):
        m2 = mono3.parse_monomial_ideal("x^2,y^2,z^2,x*y,x*z,y*z")
        assert set(mono3.socle(m2)) == {ev("x"), ev("y"), ev("z")}

    def test_matches_staircase_maxima(self):
        for d in range(1, 11):
            for ideal in mono3.enumerate_ideals(d):
                assert mono3.socle(ideal) == oracle_socle(ideal.staircase), ideal.heights

    def test_socle_characterization(self):
        for d in range(1, 7):
            for ideal in mono3.enumerate_ideals(d):
                for s in mono3.socle(ideal):
                    assert s in ideal.staircase
                    for e in UNIT_VECS:
                        assert ev_add(s, e) in ideal


class TestColon:
    def test_translation(self):
        got = mono3.colon_by_monomial(I1, ev("z"))
        assert got == mono3.parse_monomial_ideal("x, y, z^2")

    def test_by_one(self):
        assert mono3.colon_by_monomial(I1, (0, 0, 0)) == I1

    def test_forced_by_degree(self):
        m2 = mono3.parse_monomial_ideal("x^2,y^2,z^2,x*y,x*z,y*z")
        assert mono3.colon_by_monomial(m2, ev("x")) == mono3.parse_monomial_ideal("x,y,z")

    def test_unit_result(self):
        got = mono3.colon_by_monomial(I1, ev("x^2"))
        assert got.is_unit
        assert got is mono3.UNIT_IDEAL

    def test_composition(self):
        rng = random.Random(11)
        ideals = list(mono3.enumerate_ideals(6))
        for ideal in rng.sample(ideals, 12):
            f = (1, 0, 1)
            g = (0, 2, 0)
            lhs = mono3.colon_by_monomial(mono3.colon_by_monomial(ideal, f), g)
            rhs = mono3.colon_by_monomial(ideal, ev_add(f, g))
            assert lhs == rhs


class TestStronglyStable:
    def test_square_max_ideal(self):
        assert is_strongly_stable(mono3.parse_monomial_ideal("x^2,y^2,z^2,x*y,x*z,y*z"))

    def test_definition_check(self):
        assert is_strongly_stable(
            mono3.parse_monomial_ideal("x^2, x*y, y^2, x*z, y*z^2, z^4"))

    def test_negative(self):
        assert not is_strongly_stable(mono3.parse_monomial_ideal("x^2, y, z"))


class TestHilbertFunction:
    def test_point(self):
        assert hilbert_function(mono3.parse_monomial_ideal("x,y,z")) == (1,)

    def test_square(self):
        assert hilbert_function(mono3.parse_monomial_ideal("x^2,y^2,z^2,x*y,x*z,y*z")) == (1, 3)

    def test_sum_is_colength(self):
        for d in range(1, 8):
            for ideal in mono3.enumerate_ideals(d):
                h = hilbert_function(ideal)
                assert sum(h) == d
                assert h[-1] > 0

    def test_i2(self):
        assert hilbert_function(I2) == (1, 3, 1)


class TestEnumeration:
    def test_d1(self):
        ideals = list(mono3.enumerate_ideals(1))
        assert ideals == [mono3.parse_monomial_ideal("x,y,z")]

    def test_counts_match_series(self):
        coeffs = mono3.macmahon_series(16)
        for d in range(1, 17):
            n = sum(1 for _ in mono3.enumerate_ideals(d))
            assert n == coeffs[d], d

    def test_no_duplicates_small(self):
        for d in range(1, 9):
            ideals = list(mono3.enumerate_ideals(d))
            assert len({i.staircase for i in ideals}) == len(ideals)

    def test_staircases_downward_closed(self):
        for d in range(1, 8):
            for ideal in mono3.enumerate_ideals(d):
                st = ideal.staircase
                for v in st:
                    for i in range(3):
                        if v[i] > 0:
                            w = list(v)
                            w[i] -= 1
                            assert tuple(w) in st

    def test_order_pinned_to_recursive_oracle(self):
        for d in range(13):
            assert list(mono3.plane_partitions(d)) == list(oracle_plane_partitions(d)), d


class TestSeries:
    def test_low_coefficients(self):
        assert mono3.macmahon_series(0) == [1]
        assert mono3.macmahon_series(1) == [1, 1]
        assert mono3.macmahon_series(5) == [1, 1, 3, 6, 13, 24]


class TestParsing:
    def test_round_trip(self):
        # the text of the minimal generators reads back as the same ideal
        for d in range(1, 8):
            for ideal in mono3.enumerate_ideals(d):
                text = ", ".join(mono3.monomial_str(g) for g in ideal.mingens)
                assert mono3.parse_monomial_ideal(text) == ideal, text
        assert mono3.monomial_str((1, 0, 2)) == "x*z^2"
        assert mono3.monomial_str((0, 0, 0)) == "1"

    def test_spellings(self):
        # implicit '*', a coefficient 1, repeated and zero generators
        want = mono3.from_generators([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)])
        assert mono3.parse_monomial_ideal("xy, x^2, y y, 1*z, 0, z, x - x") == want

    def test_rejects_garbage(self):
        for bad in ["w", "x^-1", "x +", "", " , ", "x*, y, z", "*x, y, z",
                    "x**y, y, z, x^2", "2*x, y, z"]:
            with pytest.raises(InputError):
                mono3.parse_monomial_ideal(bad)
        with pytest.raises(InputError, match="'x \\+ y' is not a monic monomial"):
            mono3.parse_monomial_ideal("x^2, x + y, y^2, z")
        with pytest.raises(UnitIdealError):
            mono3.parse_monomial_ideal("1, x")

    def test_json_form(self):
        ideal = mono3.parse_exponent_json("[[2,0,0],[1,1,0],[1,0,1],[0,2,0],[0,1,1],[0,0,3]]")
        assert ideal == I1
        for bad in ["{}", "[]", "[[1,2]]", "[[1,2,-1]]", "not json", "[[true,0,0]]"]:
            with pytest.raises(InputError):
                mono3.parse_exponent_json(bad)
