"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
Every expected value is frozen here; tolerances are exact throughout.
"""
import random

import pytest

from hilb3 import (apolarity, duality, gfp, linkage, mono3, pfaffian, poly3,
                   smoothcls, tancomb, tanlin)

P = gfp.DEFAULT_PRIME
P2 = gfp.SECOND_PRIME

SMOOTH_COUNTS = [1, 3, 6, 12, 21, 36, 58, 91, 138, 204, 300, 417, 597, 816]
PARTITION_COUNTS = [1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479, 2485, 4167]


def ok(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def mono_ideal(ring, ideal):
    return poly3.ideal(ring, map(ring.monomial, ideal.mingens))


def planar_ideals(d):
    """Colength-d monomial ideals of k[x,y]: every height is 1, so z is a generator."""
    return (I for I in mono3.enumerate_ideals(d) if all(h == 1 for row in I.heights for h in row))


@pytest.fixture(scope="session")
def sweep_d10():
    """Per-ideal data for every monomial ideal of colength <= 10."""
    data = []
    for d in range(1, 11):
        for ideal in mono3.enumerate_ideals(d):
            triple = smoothcls.find_triple(ideal)
            chain_ok = False
            if triple is None:
                cert = smoothcls.noflip_chain(ideal)
                cert.validate(ideal)
                chain_ok = True
            rep = tancomb.tangent_report(ideal)
            data.append((ideal, triple, chain_ok, rep))
    return data


def test_criterion_01_smooth_census():
    rows = smoothcls.smooth_census(14)
    got = [smooth for _, _, smooth in rows]
    assert got == SMOOTH_COUNTS
    ok("criterion 1 (smooth census d<=14)", f"counts {got}")


def test_criterion_02_plane_partition_consistency():
    coeffs = mono3.macmahon_series(14)
    for d in range(1, 15):
        n = sum(1 for _ in mono3.enumerate_ideals(d))
        assert n == coeffs[d], d
        assert n == PARTITION_COUNTS[d - 1]
    ok("criterion 2 (enumeration matches the product series d<=14)")


def test_criterion_03_classification_equivalence(sweep_d10):
    for ideal, triple, chain_ok, rep in sweep_d10:
        d = ideal.colength
        smooth_by_tangent = rep.total == 3 * d
        assert (triple is None) == chain_ok == smooth_by_tangent, ideal
        if triple is not None:
            assert all(rep.by_signature[s] >= 1 for s in tancomb.DOUBLY_NEGATIVE)
            assert rep.total >= 3 * d + 6
    ok("criterion 3 (no-triple <=> no-flip chain <=> 3d tangents, exhaustive d<=10)",
       f"{len(sweep_d10)} ideals")


def test_criterion_04_signature_relations_and_parity(sweep_d10):
    for ideal, _, _, rep in sweep_d10:
        d = ideal.colength
        sig = rep.by_signature
        assert sig["ppn"] == sig["nnp"] + d
        assert sig["pnp"] == sig["npn"] + d
        assert sig["npp"] == sig["pnn"] + d
        assert rep.total % 2 == d % 2
    ok("criterion 4 (signature +d relations and parity, exhaustive d<=10)")


def test_criterion_05_specific_tangent_values():
    m2 = mono3.parse_monomial_ideal("x^2,y^2,z^2,x*y,x*z,y*z")
    assert tancomb.tangent_report(m2).total == 18
    surplus = mono3.parse_monomial_ideal("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2")
    rep = tancomb.tangent_report(surplus)
    assert rep.colength == 14 and rep.total == 48
    checked = 0
    for a in range(2, 6):
        for b in range(a, 6):
            for c in range(b, 6):
                tri = mono3.from_generators(
                    [(a, 0, 0), (0, b, 0), (0, 0, c), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
                rep = tancomb.tangent_report(tri)
                assert rep.total == 3 * rep.colength + 6, (a, b, c)
                checked += 1
    ok("criterion 5 (m^2 -> 18, colength-14 ideal -> 48, tripod grid 3d+6)",
       f"{checked} tripods")


def test_criterion_06_oracle_equivalence_two_primes():
    rings = (poly3.PolyRing(P), poly3.PolyRing(P2))
    n = 0
    for d in range(1, 9):
        for ideal in mono3.enumerate_ideals(d):
            want = tancomb.tangent_report(ideal).total
            for ring in rings:
                assert tanlin.hom_dim(mono_ideal(ring, ideal)) == want, ideal
            n += 1
    ok("criterion 6 (syzygy oracle = bounded components, d<=8, two primes)",
       f"{n} ideals x 2 primes")


def test_criterion_07_binomial_example():
    text = "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z"
    for p in (P, P2):
        I = poly3.parse_ideal(text, poly3.PolyRing(p))
        d, t, _ = tanlin.tangent_excess(I)
        assert (d, t) == (12, 45)
    rep = linkage.parity_report(poly3.parse_ideal(text, poly3.PolyRing(P)))
    assert rep.obstructed
    ok("criterion 7 (binomial ideal: d=12, dim T=45, parity-obstructed, two primes)")


def test_criterion_08_linkage_suite():
    ring = poly3.PolyRing(P)
    links = []
    for c in range(2, 6):
        links.append(linkage.family_tripod22_to_m2(ring, c))
    for a in range(2, 6):
        for b in range(a, 6):
            for c in range(b, 6):
                links.append(linkage.family_tripod_to_tripod22(ring, a, b, c))
    for b in range(1, 6):
        for c in range(b, 6):
            links.append(linkage.family_j1_to_tripod(ring, b, c))
    for a in range(1, 6):
        for b in range(a, 6):
            links.append(linkage.family_jabb_to_j1(ring, a, b))
    for src, alpha, want in links:
        report = linkage.verify_link_chain([(src, alpha)])
        step = report.steps[0]
        assert poly3.equal_ideals(step.target, want)
        assert step.colengths[0] + step.colengths[2] == step.colengths[1]
        assert report.excesses[0] == (6, 6)
    # the colength-14 example's link reproduces the stated ideal
    I = poly3.parse_ideal("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2", ring)
    J = poly3.colon(poly3.parse_ideal("x^3, y^3, z^3", ring), I)
    want = poly3.parse_ideal("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2, x*y*z", ring)
    assert poly3.equal_ideals(J, want)
    ok("criterion 8 (four link families a,b,c<=5 + explicit link)",
       f"{len(links)} links validated, excess 6 at both ends")


def test_criterion_09_apolarity():
    ring = poly3.PolyRing(P)
    ann = apolarity.annihilator([apolarity.parse_dual("X^2 + Y*Z", P)], ring)
    assert ann == poly3.parse_ideal("x^2 - y*z, x*z, x*y, y^2, z^2", ring)
    ann2 = apolarity.annihilator([apolarity.parse_dual("X^3 - Y^3", P),
                                  apolarity.parse_dual("X*Y^2 + X*Z^2", P)], ring)
    want2 = poly3.parse_ideal(
        "y*z, x^2*z, x*y^2 - x*z^2, x^2*y, x^3 + y^3, x^4, y^4, z^3", ring)
    assert ann2 == want2
    hf = poly3.quotient_hilbert_function(poly3.quotient_data(ann2))
    assert hf == (1, 3, 5, 2)
    ann3 = apolarity.annihilator([apolarity.parse_dual("X", P),
                                  apolarity.parse_dual("Y*Z", P)], ring)
    assert ann3 == poly3.parse_ideal("x^2, x*y, x*z, y^2, z^2", ring)
    ok("criterion 9 (annihilators match stated ideals; Hilbert function 1,3,5,2)")


def test_criterion_10_bicanonical():
    ring = poly3.PolyRing(P)
    rep = duality.bicanonical_degree(poly3.parse_ideal("x^2, x*y^2, y^5, z", ring))
    assert (rep.hom_full_dim, rep.homsym_dim, rep.sym2_omega_deg) == (9, 7, 7)
    n_planar = 0
    for d in range(1, 9):
        for ideal in planar_ideals(d):
            r = duality.bicanonical_degree(mono_ideal(ring, ideal))
            assert r.sym2_omega_deg == r.homsym_dim == d, ideal
            n_planar += 1
    n_free = 0
    for d in range(1, 9):
        for ideal in mono3.enumerate_ideals(d):
            if smoothcls.find_triple(ideal) is not None:
                continue
            r = duality.bicanonical_degree(mono_ideal(ring, ideal))
            assert r.sym2_omega_deg == r.homsym_dim, ideal
            assert r.sym2_omega_deg <= d, ideal
            n_free += 1
    ok("criterion 10 (9/7 example; sym2 = homsym; planar = d; triple-free <= d)",
       f"{n_planar} planar + {n_free} triple-free ideals")


def test_criterion_11_pfaffian_constructor():
    ring = poly3.PolyRing(P)
    rng = random.Random(20240810)

    def random_linear():
        return ring.poly({(1, 0, 0): rng.randrange(1, P),
                          (0, 1, 0): rng.randrange(1, P),
                          (0, 0, 1): rng.randrange(1, P)})

    def random_skew(n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return pfaffian.SkewMatrix(
            n=n, upper=tuple((ij, random_linear()) for ij in pairs))

    # shapes where successive layers absorb the structure colon: a generic
    # linear 3x3 layer has Pfaffian ideal (x,y,z)
    shapes = [(3,)] * 5 + [(5,)] * 5 + [(3, 3)] * 4 + [(5, 3)] * 4 + [(3, "rep", 3)] * 2
    assert len(shapes) == 20
    checked_excess = 0
    for shape in shapes:
        if "rep" in shape:
            a = random_skew(3)
            mats = [a, a, a]
        else:
            mats = [random_skew(n) for n in shape]
        rep = pfaffian.broken_ideal(mats)
        assert rep.colength_additive, shape
        assert rep.layers_gorenstein, shape
        if rep.total_colength <= 12:
            d, t, excess = tanlin.tangent_excess(rep.ideal)
            assert d == rep.total_colength
            assert excess <= 0, shape
            checked_excess += 1
    ok("criterion 11 (20 random layered instances: additive, Gorenstein, excess <= 0)",
       f"excess checked on {checked_excess} instances")


def test_criterion_12_strongly_stable_classification(sweep_d10):
    # the acceptable family: J(a,b,c) with a <= b <= c, a = 1 or b = c
    family = set()
    for a in range(1, 9):
        for b in range(a, 9):
            for c in range(b, 9):
                if a + b + c + 1 > 10:
                    continue
                if a == 1 or b == c:
                    family.add(mono3.parse_monomial_ideal(
                        f"x^2, x*y, y^2, x*z^{a}, y*z^{b}, z^{c+1}"))
    n_stable = 0
    for ideal, triple, _, rep in sweep_d10:
        if not mono3.is_strongly_stable(ideal):
            continue
        n_stable += 1
        is_minimal_singular = triple is not None and rep.total == 3 * ideal.colength + 6
        assert is_minimal_singular == (ideal in family), ideal
    borel = mono3.parse_monomial_ideal("x^2, x*y, x*z, y^3, y^2*z^2, z^3")
    rep = tancomb.tangent_report(borel)
    assert rep.colength == 9
    assert rep.total == 3 * 9 + 6
    assert not mono3.is_strongly_stable(borel)
    ok("criterion 12 (strongly stable 3d+6 classification d<=10 + char-p-style instance)",
       f"{n_stable} strongly stable ideals checked")
