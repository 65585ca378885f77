import random

import pytest

from hilb3 import apolarity, duality, gfp, mono3, poly3
from hilb3.errors import SmallCharacteristicError, ZeroInputError

P = gfp.DEFAULT_PRIME
R = poly3.PolyRing(P)


def dual(text):
    return apolarity.parse_dual(text, P)


def pi(text):
    return poly3.parse_ideal(text, R)


def contract(s, f):
    """s o f for a polynomial s in the acting ring."""
    out = f.ring.zero()
    for e, c in s.terms.items():
        out = out + apolarity.contract_monomial(e, f).scale(c)
    return out


class TestContract:
    def test_single_steps(self):
        X = dual("X")
        assert apolarity.contract_monomial((1, 0, 0), X) == dual("1")
        assert apolarity.contract_monomial((0, 1, 0), X).is_zero

    def test_mixed_monomial(self):
        f = dual("X^2*Y^3")
        assert apolarity.contract_monomial((0, 1, 0), f) == dual("X^2*Y^2")

    def test_multiplicative(self):
        f = dual("X^3*Z + Y^2")
        s1 = poly3.parse_poly("x*z", R)
        step = contract(poly3.parse_poly("x", R), f)
        step = contract(poly3.parse_poly("z", R), step)
        assert contract(s1, f) == step

    def test_linear(self):
        f, g = dual("X^2 + Y*Z"), dual("Z^3 - X")
        s = poly3.parse_poly("x + 2*y^2", R)
        assert contract(s, f + g) == \
            contract(s, f) + contract(s, g)


class TestAnnihilator:
    def test_quadric(self):
        ann = apolarity.annihilator([dual("X^2 + Y*Z")], R)
        assert ann == pi("x^2 - y*z, x*z, x*y, y^2, z^2")

    def test_quadric_is_gorenstein(self):
        ann = apolarity.annihilator([dual("X^2 + Y*Z")], R)
        assert duality.gorenstein_type(ann) == 1

    def test_two_cubics_flip_example(self):
        ann = apolarity.annihilator([dual("X^3 - Y^3"), dual("X*Y^2 + X*Z^2")], R)
        want = pi("y*z, x^2*z, x*y^2 - x*z^2, x^2*y, x^3 + y^3, x^4, y^4, z^3")
        assert ann == want
        qd = poly3.quotient_data(ann)
        hf = [0] * 4
        for m in qd.standard_monomials:
            hf[sum(m)] += 1
        assert tuple(hf) == (1, 3, 5, 2)

    def test_single_variable(self):
        assert apolarity.annihilator([dual("X")], R) == pi("x^2, y, z")

    def test_recovers_smooth_staircase_example(self):
        # Ann(X, YZ) is the colength-5 ideal with socle {x, yz}
        ann = apolarity.annihilator([dual("X"), dual("Y*Z")], R)
        assert ann == pi("x^2, x*y, x*z, y^2, z^2")

    def test_colength_equals_closure_dim(self):
        rng = random.Random(23)
        mons = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
                if i + j + k <= 3]
        for _ in range(8):
            f = apolarity.dual_ring(P).poly(
                {rng.choice(mons): rng.randrange(1, P) for _ in range(4)})
            if f.is_zero:
                continue
            ann = apolarity.annihilator([f], R)
            assert poly3.quotient_data(ann).colength == \
                apolarity.contraction_closure_dim([f], P)

    def test_gorenstein_for_single_dual_poly(self):
        rng = random.Random(29)
        mons = [(i, j, k) for i in range(5) for j in range(5) for k in range(5)
                if i + j + k <= 4]
        for _ in range(10):
            f = apolarity.dual_ring(P).poly(
                {rng.choice(mons): rng.randrange(1, P) for _ in range(5)})
            if f.is_zero:
                continue
            assert duality.gorenstein_type(apolarity.annihilator([f], R)) == 1

    def test_rejects_zero(self):
        with pytest.raises(ZeroInputError):
            apolarity.annihilator([], R)
        with pytest.raises(ZeroInputError):
            apolarity.annihilator([apolarity.dual_ring(P).zero()], R)

    def test_rejects_small_characteristic(self):
        tiny = poly3.PolyRing(3)
        f = apolarity.parse_dual("X^3 + Y^3", 3)
        with pytest.raises(SmallCharacteristicError):
            apolarity.annihilator([f], tiny)

    def test_inhomogeneous_input(self):
        ann = apolarity.annihilator([dual("X^2 + X + Y")], R)
        d = poly3.quotient_data(ann).colength
        assert d == apolarity.contraction_closure_dim([dual("X^2 + X + Y")], P)
        assert duality.gorenstein_type(ann) == 1


class TestDualParsing:
    def test_uppercase_only(self):
        with pytest.raises(Exception):
            apolarity.parse_dual("x + Y", P)
