import random

import pytest

from hilb3 import gfp, mono3, poly3, tancomb, tanlin
from hilb3.errors import NotZeroDimensionalError

P = gfp.DEFAULT_PRIME
P2 = gfp.SECOND_PRIME
R = poly3.PolyRing(P)


def pi(text):
    return poly3.parse_ideal(text, R)


GGGL = "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z"


class TestSyzygies:
    def test_koszul_for_maximal_ideal(self):
        syz = tanlin.syzygies(pi("x, y, z"))
        assert len(syz.syzygies) == 3
        syz.validate()

    def test_monomial_taylor_relations(self):
        I = pi("x^2, x*y, z^3")
        syz = tanlin.syzygies(I)
        assert len(syz.syzygies) == 3
        syz.validate()
        # the (x^2, x*y) pair gives y e_1 - x e_2
        comps = {tuple(sorted((i, j) for row in [s] for j, c in enumerate(row) if not c.is_zero))
                 for i, s in enumerate(syz.syzygies)}
        assert all(len(pair) == 2 for pair in comps)

    def test_principal_ideal_empty(self):
        syz = tanlin.syzygies(pi("x^2 + y*z"))
        assert syz.syzygies == ()

    def test_validate_on_mixed_ideal(self):
        syz = tanlin.syzygies(pi(GGGL))
        syz.validate()
        assert len(syz.syzygies) >= 1

    def test_generator_syzygies_validate(self):
        for text in [GGGL, "x^2 - y*z, x*z, x*y, y^2, z^2", "x, y, z"]:
            I = pi(text)
            syz = tanlin.generator_syzygies(I)
            assert syz.generators_used == I.gens
            syz.validate()


class TestHomDim:
    def test_maximal_ideal(self):
        assert tanlin.hom_dim(pi("x, y, z")) == 3

    def test_m2(self):
        assert tanlin.hom_dim(pi("x^2, x*y, x*z, y^2, y*z, z^2")) == 18

    def test_gggl_example(self):
        I = pi(GGGL)
        d, t, excess = tanlin.tangent_excess(I)
        assert d == 12
        assert t == 45
        assert excess == 45 - 36

    def test_gggl_second_prime(self):
        R2 = poly3.PolyRing(P2)
        I = poly3.parse_ideal(GGGL, R2)
        assert tanlin.hom_dim(I) == 45

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensionalError):
            tanlin.hom_dim(pi("x, y"))

    def test_generating_set_independence(self):
        for text in [GGGL, "x^2 - y*z, x*z, x*y, y^2, z^2",
                     "x^2, x*y, x*z, y^2, y*z, z^3"]:
            I = pi(text)
            assert tanlin.hom_dim(I, use_given_generators=True) == tanlin.hom_dim(I)

    def test_agrees_with_bounded_components(self):
        rng = random.Random(17)
        for d in range(1, 6):
            ideals = list(mono3.enumerate_ideals(d))
            for ideal in rng.sample(ideals, min(6, len(ideals))):
                I = tanlin.mono_ideal(R, ideal)
                assert tanlin.hom_dim(I) == tancomb.tangent_report(ideal).total


class TestGradedRoute:
    def test_weight_dims_match_bounded_components(self):
        for text in ["x,y,z", "x^2, x*y, x*z, y^2, y*z, z^2",
                     "x^2, x*y, x*z, y^2, z^2", "x^3,y^3,z^3,y*z^2,x^2*z,x*y^2"]:
            ideal = mono3.parse_monomial_ideal(text)
            total = 0
            for a in tancomb.weight_candidates(ideal):
                n = tanlin.hom_dim_weight(ideal, a)
                assert tancomb.bounded_components(ideal, a) == n, (text, a)
                total += n
            assert total == tanlin.mono_hom_dim(ideal) == tancomb.tangent_report(ideal).total

    def test_exhaustive_small(self):
        for d in range(1, 6):
            for ideal in mono3.enumerate_ideals(d):
                assert tanlin.mono_hom_dim(ideal) == tancomb.tangent_report(ideal).total

    def test_per_weight_exhaustive(self):
        # every weight of every ideal of colength <= 6, both routes
        for d in range(1, 7):
            for ideal in mono3.enumerate_ideals(d):
                for a in sorted(tancomb.weight_candidates(ideal)):
                    assert tancomb.bounded_components(ideal, a) == \
                        tanlin.hom_dim_weight(ideal, a), (ideal, a)
