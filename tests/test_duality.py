import random

import numpy as np
import pytest

from hilb3 import apolarity, duality, gfp, mono3, poly3, smoothcls
from hilb3.errors import CharTwoError

P = gfp.DEFAULT_PRIME
R = poly3.PolyRing(P)


def pi(text):
    return poly3.parse_ideal(text, R)


def mono_poly_ideal(ideal, ring=R):
    return poly3.ideal(ring, map(ring.monomial, ideal.mingens))


def planar_ideals(d):
    """Colength-d monomial ideals of k[x,y]: every height is 1, so z is a generator."""
    return (I for I in mono3.enumerate_ideals(d) if all(h == 1 for row in I.heights for h in row))


def homsym_dim_reference(mats, d, p):
    """dim {F symmetric : F M^T = M F}, one pair of products per E_ij + E_ji.

    An independent construction to check duality's column sums of the
    Kronecker matrix against.
    """
    cols = []
    for i in range(d):
        for j in range(i, d):
            basis = np.zeros((d, d), dtype=np.int64)
            basis[i, j] = 1
            basis[j, i] = 1
            cols.append(np.concatenate(
                [((gfp.matmul(m, basis, p) - gfp.matmul(basis, m.T, p)) % p).ravel()
                 for m in mats]))
    return len(cols) - gfp.rank(np.stack(cols, axis=1), p)


def random_presentation(mats, p, rng):
    """The matrices conjugated by a random invertible matrix over F_p."""
    d = mats[0].shape[0]
    while True:
        g = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64)
        red, pivots = gfp.rref(np.hstack([g, gfp.identity(d)]), p)
        if pivots == list(range(d)):
            ginv = red[:, d:]
            return [gfp.matmul(gfp.matmul(g, m, p), ginv, p) for m in mats]


M2 = pi("x^2, x*y, x*z, y^2, y*z, z^2")
PLANAR_97 = pi("x^2, x*y^2, y^5, z")


class TestGorensteinType:
    def test_m2(self):
        assert duality.gorenstein_type(M2) == 3

    def test_quadric_apolar(self):
        assert duality.gorenstein_type(pi("x^2 - y*z, x*z, x*y, y^2, z^2")) == 1

    def test_two_socle_example(self):
        assert duality.gorenstein_type(pi("x^2, x*y, x*z, y^2, z^2")) == 2

    def test_matches_socle_size_on_monomial_ideals(self):
        for d in range(1, 7):
            for ideal in mono3.enumerate_ideals(d):
                got = duality.gorenstein_type(mono_poly_ideal(ideal))
                assert got == len(mono3.socle(ideal))


class TestBicanonical:
    def test_planar_nine_seven_example(self):
        rep = duality.bicanonical_degree(PLANAR_97)
        assert rep.colength == 7
        assert rep.hom_full_dim == 9
        assert rep.homsym_dim == 7
        assert rep.sym2_omega_deg == 7

    def test_gorenstein_instance(self):
        rep = duality.bicanonical_degree(pi("x^2 - y*z, x*z, x*y, y^2, z^2"))
        assert rep.colength == 5
        assert rep.sym2_omega_deg == 5
        assert rep.homsym_dim == 5

    def test_m2_recorded_value(self):
        # no broken structure for m^2, and indeed the degree exceeds d
        rep = duality.bicanonical_degree(M2)
        assert rep.sym2_omega_deg == 6
        assert rep.sym2_omega_deg == rep.homsym_dim

    def test_sym2_equals_homsym_on_samples(self):
        samples = [M2, PLANAR_97, pi("x^3, y^2, z^2"),
                   pi("x^2 - y*z, x*z, x*y, y^2, z^2"),
                   pi("x^2, x*y, x*z, y^2, z^2")]
        for I in samples:
            rep = duality.bicanonical_degree(I)
            assert rep.sym2_omega_deg == rep.homsym_dim, I

    def test_verification_flag(self):
        rep = duality.bicanonical_degree(PLANAR_97, verify=True)
        assert rep.sym2_omega_deg == 7

    def test_planar_fiber_degree_small(self):
        for d in range(1, 7):
            for ideal in planar_ideals(d):
                rep = duality.bicanonical_degree(mono_poly_ideal(ideal))
                assert rep.sym2_omega_deg == d, ideal

    def test_triple_free_bound_small(self):
        for d in range(1, 7):
            for ideal in mono3.enumerate_ideals(d):
                if smoothcls.find_triple(ideal) is not None:
                    continue
                rep = duality.bicanonical_degree(mono_poly_ideal(ideal))
                assert rep.sym2_omega_deg <= d, ideal

    def test_gorenstein_samples_have_degree_d(self):
        # Gorenstein forces sym2 = d; the converse fails (planar ideals
        # of any type reach d), so m^2 is the only sharp non-example here.
        gorenstein = [pi("x^2 - y*z, x*z, x*y, y^2, z^2"), pi("x, y, z^4"),
                      pi("x^2 - y, y^2 - z, z^2"), pi("x^3, y^3, z^3")]
        for I in gorenstein:
            rep = duality.bicanonical_degree(I)
            assert duality.gorenstein_type(I) == 1
            assert rep.sym2_omega_deg == rep.colength, I
        rep = duality.bicanonical_degree(M2)
        assert duality.gorenstein_type(M2) == 3
        assert rep.sym2_omega_deg != rep.colength

    def test_homsym_matches_per_basis_reference(self):
        rng = random.Random(5)
        for p in (gfp.DEFAULT_PRIME, gfp.SECOND_PRIME):
            ring = poly3.PolyRing(p)
            for d in range(1, 7):
                ideals = list(mono3.enumerate_ideals(d))
                for ideal in rng.sample(ideals, min(4, len(ideals))):
                    qd = poly3.quotient_data(mono_poly_ideal(ideal, ring))
                    mats = random_presentation(list(qd.mult_matrices), p, rng)
                    got = duality._intertwiner_dims(mats, d, p)[0]
                    assert got == homsym_dim_reference(mats, d, p), (p, ideal)
            for text in ["x^2 - y*z, x*z, x*y, y^2, z^2", "x^2 - y, y^2 - z, z^3",
                         "x^2 + y*z, x*y^2, y^5, z - x"]:
                qd = poly3.quotient_data(poly3.parse_ideal(text, ring))
                rep = duality.bicanonical_degree(poly3.parse_ideal(text, ring))
                assert rep.homsym_dim == homsym_dim_reference(
                    qd.mult_matrices, qd.colength, p), (p, text)

    def test_char_two_rejected(self):
        I = poly3.parse_ideal("x, y, z", poly3.PolyRing(2))
        with pytest.raises(CharTwoError):
            duality.bicanonical_degree(I)

    def test_two_prime_agreement(self):
        for text in ["x^2, x*y^2, y^5, z", "x^2 - y*z, x*z, x*y, y^2, z^2",
                     "x^2, x*y, x*z, y^2, y*z, z^2", "x^2 - y, y^2 - z, z^3"]:
            reps = []
            for p in (gfp.DEFAULT_PRIME, gfp.SECOND_PRIME):
                I = poly3.parse_ideal(text, poly3.PolyRing(p))
                r = duality.bicanonical_degree(I)
                reps.append((r.colength, r.sym2_omega_deg, r.homsym_dim,
                             r.hom_full_dim))
            assert reps[0] == reps[1], text
