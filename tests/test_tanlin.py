import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb3 import gfp, linkage, mono3, poly3, tancomb, tanlin
from hilb3.errors import NotZeroDimensionalError

P = gfp.DEFAULT_PRIME
P2 = gfp.SECOND_PRIME
R = poly3.PolyRing(P)


def pi(text):
    return poly3.parse_ideal(text, R)


GGGL = "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z"


def linear_image(ideal, ring, a, t):
    """The monomial ideal after the change of coordinates x_i -> sum_j a[i][j] x_j + t[i]."""
    forms = [sum((ring.var(j).scale(a[i][j]) for j in range(3)), ring.constant(t[i]))
             for i in range(3)]
    gens = []
    for g in ideal.mingens:
        f = ring.one()
        for form, k in zip(forms, g):
            for _ in range(k):
                f = f * form
        gens.append(f)
    return poly3.ideal(ring, gens)


def invertible(low, up, diag, perm):
    """perm . L . U with L unit lower triangular and U upper triangular with
    the given nonzero diagonal; every invertible 3x3 matrix has this form."""
    L = [[1, 0, 0], [low[0], 1, 0], [low[1], low[2], 1]]
    U = [[diag[0], up[0], up[1]], [0, diag[1], up[2]], [0, 0, diag[2]]]
    LU = [[sum(L[i][k] * U[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return [LU[i] for i in perm]


def random_change(rng, p):
    """A random invertible matrix over F_p and a random translation."""
    def entries():
        return [rng.randrange(p) for _ in range(3)]

    diag = [rng.randrange(1, p) for _ in range(3)]
    return invertible(entries(), entries(), diag, rng.sample(range(3), 3)), entries()


@st.composite
def coordinate_changes(draw):
    """An invertible matrix over both primes and a translation."""
    entries = st.tuples(*[st.integers(0, P2 - 1)] * 3)
    diag = draw(st.tuples(*[st.integers(1, P2 - 1)] * 3))
    a = invertible(draw(entries), draw(entries), diag, draw(st.permutations(range(3))))
    return a, list(draw(entries))


@pytest.fixture
def matmul_calls(monkeypatch):
    """A one-element list counting the gfp.matmul calls made during the test."""
    calls = [0]
    original = gfp.matmul

    def counting(a, b, p):
        calls[0] += 1
        return original(a, b, p)

    monkeypatch.setattr(gfp, "matmul", counting)
    return calls


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
                I = poly3.ideal(R, map(R.monomial, ideal.mingens))
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


UP_TO_TEN = [I for d in range(1, 11) for I in mono3.enumerate_ideals(d)]


class TestCoordinateChange:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((P, P2)), st.sampled_from(UP_TO_TEN), coordinate_changes())
    def test_tangent_excess_is_invariant(self, p, ideal, change):
        # a linear change of coordinates plus a translation is an automorphism
        # of A^3, so the image is a point of the same Hilbert scheme with the
        # same tangent space
        I = linear_image(ideal, poly3.PolyRing(p), *change)
        d, t, excess = tanlin.tangent_excess(I)
        rep = tancomb.tangent_report(ideal)
        assert (d, t, excess) == (ideal.colength, rep.total, rep.excess)


class TestMatrixTraffic:
    def test_box_koszul_coefficients_need_no_products(self, matmul_calls):
        # the parity subcommand's path: every syzygy coefficient of a box is
        # a pure power inside the ideal, so it reduces to 0 before any product
        rep = linkage.parity_report(pi("x^6, y^6, z^6"))
        assert (rep.colength, rep.tangent_dim) == (216, 648)
        assert matmul_calls == [0]

    @pytest.mark.parametrize("text", ["x^2, x*y, x*z, y^2, y*z, z^2",
                                      "x^3, y^3, z^3, y*z^2, x^2*z, x*y^2",
                                      "x^2, y^3, z^3"])
    def test_one_cache_builds_fewer_products_than_the_colength(self, matmul_calls, text):
        ideal = mono3.parse_monomial_ideal(text)
        I = linear_image(ideal, R, *random_change(random.Random(text), P))
        assert tanlin.hom_dim(I) == tancomb.tangent_report(ideal).total
        assert 0 < matmul_calls[0] <= ideal.colength - 1
