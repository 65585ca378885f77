import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb3 import apolarity, duality, gfp, mono3, poly3, smoothcls
from hilb3.errors import CharTwoError, InputError
from helpers import linear_image, random_change, shifts_to

P = gfp.DEFAULT_PRIME
R = poly3.PolyRing(P)
PRIMES = [gfp.DEFAULT_PRIME, gfp.SECOND_PRIME, 3]


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


def maximal_ideal_power(k, ring=R):
    return poly3.ideal(ring, [ring.monomial(e) for e in itertools.product(range(k + 1), repeat=3)
                              if sum(e) == k])


def moved_mono_ideal(ideal, point, ring):
    """The monomial ideal moved to the point: x, y, z -> x - a, y - b, z - c."""
    shifts = shifts_to(ring, point)
    gens = []
    for e in ideal.mingens:
        f = ring.one()
        for shift, k in zip(shifts, e):
            for _ in range(k):
                f = f * shift
        gens.append(f)
    return poly3.ideal(ring, gens)


def oracle_sym2_relation_rank(mats, d, p):
    """Rank of the Sym^2 omega relations (r e_i) . e_j - e_i . (r e_j), one dense
    row per (r, i <= j); bicanonical_degree reads it as nsym - homsym_dim."""
    idx = {ij: n for n, ij in enumerate(itertools.combinations_with_replacement(range(d), 2))}
    nsym = len(idx)
    rows = []
    for m in mats:
        for i in range(d):
            for j in range(i, d):
                row = np.zeros(nsym, dtype=np.int64)
                for k in range(d):
                    c = int(m[i, k])
                    if c:
                        a, b = (k, j) if k <= j else (j, k)
                        row[idx[(a, b)]] = (row[idx[(a, b)]] + c) % p
                    c = int(m[j, k])
                    if c:
                        a, b = (i, k) if i <= k else (k, i)
                        row[idx[(a, b)]] = (row[idx[(a, b)]] - c) % p
                if row.any():
                    rows.append(row)
    if not rows:
        return 0
    return gfp.rank(np.vstack(rows), p)


def intertwiner_dims(mats, d, p):
    """(homsym_dim, hom_full_dim) from duality's sparse intertwiner ranks."""
    sym = duality._intertwiner_rank(mats, duality._symmetric_unknowns(d), p)
    full = duality._intertwiner_rank(mats, np.arange(d * d).reshape(d, d), p)
    return d * (d + 1) // 2 - sym, d * d - full


def oracle_intertwiner_dims(mats, d, p):
    """Dense reference for intertwiner_dims, on the Kronecker stack.

    On row-major vec(F) the map F -> M_v F - F M_v^T is M_v (x) I - I (x) M_v.
    A symmetric F is spanned by E_ij + E_ji (i <= j), whose columns are
    the sum of columns ij and ji; the diagonal ones come out doubled,
    which keeps the rank for odd p.
    """
    eye = np.eye(d, dtype=np.int64)
    mat = np.vstack([(np.kron(m, eye) - np.kron(eye, m)) % p for m in mats])
    i, j = np.triu_indices(d)
    sym = (mat[:, i * d + j] + mat[:, j * d + i]) % p
    return len(i) - gfp.rank(sym, p), d * d - gfp.rank(mat, p)


def random_presentation(mats, p, rng):
    """The matrices conjugated by a random invertible matrix over F_p."""
    d = mats[0].shape[0]
    while True:
        g = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64)
        red, pivots = gfp.rref(np.hstack([g, np.eye(d, dtype=np.int64)]), p)
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

    @pytest.mark.parametrize("p", [gfp.DEFAULT_PRIME, gfp.SECOND_PRIME])
    @settings(max_examples=40, deadline=None)
    @given(ideal=st.sampled_from([I for d in range(1, 9) for I in mono3.enumerate_ideals(d)]),
           seed=st.integers(0, 2**32))
    def test_moved_ideal_keeps_the_monomial_socle_size(self, p, ideal, seed):
        # a linear change of coordinates plus a translation moves the point
        # off the origin; the type is read at the point
        I = linear_image(ideal, poly3.PolyRing(p), *random_change(random.Random(seed), p))
        assert duality.gorenstein_type(I) == len(mono3.socle(ideal))

    def test_triangular_matrices_need_no_product(self, monkeypatch):
        # every M_v of a monomial or homogeneous ideal is strictly lower
        # triangular in the ascending degrevlex basis; a moved ideal is not
        calls = []
        matmul = gfp.matmul
        monkeypatch.setattr(gfp, "matmul", lambda a, b, p: calls.append(1) or matmul(a, b, p))
        rng = random.Random(3)
        ideals = [maximal_ideal_power(k) for k in range(2, 6)]
        ideals += [linear_image(I, R, random_change(rng, P)[0], [0, 0, 0])
                   for I in rng.sample(list(mono3.enumerate_ideals(6)), 4)]
        for I in ideals:
            assert duality.gorenstein_type(I) > 0
        assert not calls
        moved = moved_mono_ideal(mono3.from_generators([(2, 0, 0), (0, 2, 0), (0, 0, 1)]),
                                 (1, 2, 3), R)
        assert duality.gorenstein_type(moved) == 1
        assert calls

    @pytest.mark.parametrize("text, p", [
        ("x^2 - x, y, z", gfp.DEFAULT_PRIME),  # two points
        ("x^2 + 1, y, z", gfp.DEFAULT_PRIME),  # one point, not rational: p = 3 mod 4
        ("x^3 - 1, y, z", 3),                  # (x - 1)^3, but p divides d = 3
    ])
    def test_not_local_at_one_rational_point(self, text, p):
        with pytest.raises(InputError):
            duality.gorenstein_type(poly3.parse_ideal(text, poly3.PolyRing(p)))


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

    @pytest.mark.parametrize("text", ["x, y, z", "x - 1, y, z"])
    def test_verification_flag_at_colength_one(self, text):
        # no standard monomial of positive degree, so no matrix to verify with
        rep = duality.bicanonical_degree(pi(text), verify=True)
        assert (rep.sym2_omega_deg, rep.homsym_dim, rep.hom_full_dim) == (1, 1, 1)

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
                    got = intertwiner_dims(mats, d, p)[0]
                    assert got == homsym_dim_reference(mats, d, p), (p, ideal)
            for text in ["x^2 - y*z, x*z, x*y, y^2, z^2", "x^2 - y, y^2 - z, z^3",
                         "x^2 + y*z, x*y^2, y^5, z - x"]:
                qd = poly3.quotient_data(poly3.parse_ideal(text, ring))
                rep = duality.bicanonical_degree(poly3.parse_ideal(text, ring))
                assert rep.homsym_dim == homsym_dim_reference(
                    qd.mult_matrices, qd.colength, p), (p, text)

    @pytest.mark.parametrize("verify, matrices", [(False, 3), (True, 3 + 19)])
    def test_one_assembly_for_both_ranks(self, monkeypatch, verify, matrices):
        # the three variables' entries serve the symmetric and the full
        # rank; only --verify builds more, one per standard monomial of
        # positive degree (19 for m^4)
        built = []
        entries = gfp.sylvester_entries

        def counted(a, b, unknown):
            built.append(np.size(a) // len(unknown) ** 2)
            return entries(a, b, unknown)
        monkeypatch.setattr(gfp, "sylvester_entries", counted)
        rep = duality.bicanonical_degree(maximal_ideal_power(4), verify=verify)
        assert (rep.colength, rep.sym2_omega_deg, rep.hom_full_dim) == (20, 55, 100)
        assert sum(built) == matrices

    def test_reports_the_gorenstein_type(self):
        for I in [M2, PLANAR_97, pi("x^2 - y*z, x*z, x*y, y^2, z^2"), pi("x^3, y^2, z^2")]:
            assert duality.bicanonical_degree(I).gorenstein_type == duality.gorenstein_type(I)

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


def oracle_cases(p, rng):
    """(mats, d) over: every monomial ideal of colength <= 6 and a sample at
    7 and 8, conjugates by random_presentation (dense, one component),
    monomial ideals moved off the origin, and m^2..m^4."""
    ring = poly3.PolyRing(p)
    small = [I for d in range(1, 7) for I in mono3.enumerate_ideals(d)]
    ideals = [mono_poly_ideal(I, ring) for I in small]
    ideals += [mono_poly_ideal(I, ring) for d in (7, 8)
               for I in rng.sample(list(mono3.enumerate_ideals(d)), 6)]
    ideals += [moved_mono_ideal(I, [rng.randrange(1, p) for _ in range(3)], ring)
               for I in rng.sample(small[1:], 8)]
    ideals += [maximal_ideal_power(k, ring) for k in (2, 3, 4)]
    for I in ideals:
        qd = poly3.quotient_data(I)
        yield list(qd.mult_matrices), qd.colength
    for I in rng.sample(small[1:], 8):
        qd = poly3.quotient_data(mono_poly_ideal(I, ring))
        yield random_presentation(list(qd.mult_matrices), p, rng), qd.colength


class TestSparseRanksMatchDenseOracles:
    @pytest.mark.parametrize("p", PRIMES)
    def test_generator_relations_and_intertwiners(self, p):
        rng = random.Random(p)
        for mats, d in oracle_cases(p, rng):
            homsym_dim, hom_full_dim = intertwiner_dims(mats, d, p)
            assert (homsym_dim, hom_full_dim) == oracle_intertwiner_dims(mats, d, p)
            # bicanonical_degree's one assembly, ranked under both numberings
            assert duality._intertwiner_dims(mats, d, p) == (homsym_dim, hom_full_dim)
            # the relation rank is the symmetric intertwiner rank
            assert oracle_sym2_relation_rank(mats, d, p) == d * (d + 1) // 2 - homsym_dim

    @pytest.mark.parametrize("p", PRIMES)
    def test_relations_from_every_standard_monomial(self, p):
        # the relation set bicanonical_degree(..., verify=True) builds
        rng = random.Random(p)
        ring = poly3.PolyRing(p)
        ideals = [maximal_ideal_power(k, ring) for k in (2, 3, 4)]
        ideals += [poly3.parse_ideal(text, ring) for text in
                   ["x^2, x*y^2, y^5, z", "x^2 + y*z, x*y^2, y^5, z - x"]]
        ideals += [moved_mono_ideal(I, [rng.randrange(1, p) for _ in range(3)], ring)
                   for I in rng.sample(list(mono3.enumerate_ideals(6)), 3)]
        for I in ideals:
            qd = poly3.quotient_data(I)
            mats = [poly3.evaluate_at_matrices(ring.monomial(e), qd)
                    for e in qd.standard_monomials if sum(e) > 0]
            d = qd.colength
            sym = duality._intertwiner_rank(mats, duality._symmetric_unknowns(d), p)
            assert sym == oracle_sym2_relation_rank(mats, d, p)


@pytest.mark.parametrize("verify", [False, True])
def test_m5_bicanonical_peak_memory(verify):
    # the dense Kronecker stack for m^5 (d = 35) alone peaked above 120 MB
    I = maximal_ideal_power(5)
    tracemalloc.start()
    try:
        rep = duality.bicanonical_degree(I, verify=verify)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.colength, rep.sym2_omega_deg, rep.hom_full_dim) == (35, 120, 225)
    assert peak < 16 * 2**20
