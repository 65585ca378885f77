import random

import pytest

from hilb3 import duality, gfp, pfaffian, poly3, tanlin
from hilb3.errors import EvenSizeError, InputError, OddSizeError

P = gfp.DEFAULT_PRIME
R = poly3.PolyRing(P)


def pp(text):
    return poly3.parse_poly(text, R)


def skew(n, *entries):
    return pfaffian.SkewMatrix.from_upper_rows(n, [pp(e) for e in entries])


def pfaffian_ideal(a):
    """The ideal of all submaximal Pfaffians of an odd-size matrix."""
    return poly3.ideal(a.ring, pfaffian.submax_pfaffians(a))


def determinant(a):
    """det(A) by Laplace expansion along the first row: the reference for
    Pf(A)^2 = det(A)."""

    def det(rows, cols):
        if not rows:
            return R.one()
        acc = R.zero()
        for pos, c in enumerate(cols):
            e = a.entry(rows[0], c)
            if e.is_zero:
                continue
            term = e * det(rows[1:], tuple(k for k in cols if k != c))
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc

    idx = tuple(range(a.n))
    return det(idx, idx)


def generic_skew(n, rng):
    entries = []
    for _ in range(n * (n - 1) // 2):
        terms = {(1, 0, 0): rng.randrange(1, P), (0, 1, 0): rng.randrange(1, P),
                 (0, 0, 1): rng.randrange(1, P)}
        entries.append(R.poly(terms))
    return pfaffian.SkewMatrix(n=n, upper=tuple(
        zip([(i, j) for i in range(n) for j in range(i + 1, n)], entries)))


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian.pfaffian(skew(2, "x + y")) == pp("x + y")

    def test_four_by_four_generic(self):
        # upper entries a,b,c,d,e,f -> af - be + cd (with distinct monomials)
        a = skew(4, "x", "y", "z", "x^2", "y^2", "z^2")
        want = pp("x*z^2 - y*y^2 + z*x^2")
        assert pfaffian.pfaffian(a) == want

    def test_zero_matrix(self):
        zero = pfaffian.SkewMatrix.from_upper_rows(4, [R.zero()] * 6)
        assert pfaffian.pfaffian(zero).is_zero

    def test_odd_size_rejected(self):
        with pytest.raises(OddSizeError):
            pfaffian.pfaffian(skew(3, "x", "y", "z"))

    def test_square_is_determinant(self):
        rng = random.Random(41)
        for n in (2, 4, 6):
            a = generic_skew(n, rng)
            pf = pfaffian.pfaffian(a)
            assert pf * pf == determinant(a)


class TestSubmaxPfaffians:
    def test_three_by_three_entries(self):
        a = skew(3, "x^2", "y^2", "z^2")  # upper (a12, a13, a23)
        assert pfaffian.submax_pfaffians(a) == (pp("z^2"), pp("y^2"), pp("x^2"))

    def test_zyx_gives_point(self):
        a = skew(3, "z", "y", "x")
        vec = pfaffian.submax_pfaffians(a)
        assert vec == (pp("x"), pp("y"), pp("z"))
        assert poly3.quotient_data(pfaffian_ideal(a)).colength == 1

    def test_even_size_rejected(self):
        with pytest.raises(EvenSizeError):
            pfaffian.submax_pfaffians(skew(2, "x"))

    def test_five_by_five_generic_is_gorenstein(self):
        rng = random.Random(43)
        a = generic_skew(5, rng)
        I = pfaffian_ideal(a)
        assert poly3.quotient_data(I).colength == 5
        assert duality.gorenstein_type(I) == 1


class TestBrokenIdeal:
    def test_single_layer_point(self):
        rep = pfaffian.broken_ideal([skew(3, "z", "y", "x")])
        assert poly3.equal_ideals(rep.ideal, poly3.parse_ideal("x, y, z", R))
        assert rep.total_colength == 1
        assert rep.colength_additive and rep.layers_gorenstein

    def test_two_equal_layers(self):
        a = skew(3, "z", "y", "x")
        rep = pfaffian.broken_ideal([a, a])
        assert poly3.equal_ideals(rep.ideal, poly3.parse_ideal("y, z, x^2", R))
        assert rep.layer_colengths == (1, 1)
        assert rep.total_colength == 2

    def test_random_compatible_layers(self):
        # Shapes where a later layer's Pfaffian ideal absorbs the colon
        # (Pf(A_i)_{>=2} : alpha_{i+1}); a generic linear 3x3 layer has
        # Pfaffian ideal (x,y,z) and absorbs anything homogeneous.
        rng = random.Random(47)
        for shape in [(3,), (5,), (3, 3), (5, 3)]:
            mats = [generic_skew(n, rng) for n in shape]
            rep = pfaffian.broken_ideal(mats)
            assert rep.colength_additive, shape
            assert rep.layers_gorenstein, shape
            if rep.total_colength <= 12:
                d, t, excess = tanlin.tangent_excess(rep.ideal)
                assert d == rep.total_colength
                assert excess <= 0, (shape, excess)

    def test_incompatible_layers_truncate_but_stay_broken(self):
        # A deep layer that cannot absorb the colon gets cut off: the
        # report flags the additivity failure, yet the flag that does
        # survive still has Gorenstein subquotients, so the excess bound
        # continues to hold.
        rng = random.Random(53)
        for shape in [(3, 5), (5, 5)]:
            mats = [generic_skew(n, rng) for n in shape]
            rep = pfaffian.broken_ideal(mats)
            assert not rep.colength_additive, shape
            assert rep.layers_gorenstein, shape
            assert rep.total_colength < sum(rep.layer_colengths)
            d, t, excess = tanlin.tangent_excess(rep.ideal)
            assert excess <= 0, (shape, excess)

    def test_repeated_three_by_three_chain(self):
        rng = random.Random(59)
        a = generic_skew(3, rng)
        rep = pfaffian.broken_ideal([a, a, a])
        assert rep.layer_colengths == (1, 1, 1)
        assert rep.total_colength == 3
        assert rep.colength_additive

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            pfaffian.broken_ideal([])


class TestJsonInput:
    def test_round_trip(self):
        text = '{"matrices": [{"n": 3, "upper": ["z", "y", "x"]}]}'
        mats = pfaffian.parse_skew_json(text, R)
        assert len(mats) == 1 and mats[0].n == 3

    def test_rejects_malformed(self):
        for bad in ["{}", '{"matrices": []}', '{"matrices": [{"n": 3}]}',
                    '{"matrices": [{"n": 4, "upper": ["x"]}]}', "nope"]:
            with pytest.raises(InputError):
                pfaffian.parse_skew_json(bad, R)
