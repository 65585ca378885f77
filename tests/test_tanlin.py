import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb3 import gfp, linkage, mono3, poly3, tancomb, tanlin
from hilb3.errors import NotZeroDimensionalError
from helpers import GENERIC_ALPHA, IDENTITY, invertible, linear_image, random_change

P = gfp.DEFAULT_PRIME
P2 = gfp.SECOND_PRIME
R = poly3.PolyRing(P)


def pi(text):
    return poly3.parse_ideal(text, R)


GGGL = "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z"


def validate(syz):
    """Every row s of the SyzygySet has sum s_j g_j = 0."""
    ring = syz.generators_used[0].ring
    for s in syz.syzygies:
        acc = ring.zero()
        for coeff, g in zip(s, syz.generators_used):
            acc = acc + coeff * g
        if not acc.is_zero:  # raised under python -O too
            raise AssertionError("syzygy fails to annihilate the generators")


@st.composite
def coordinate_changes(draw):
    """An invertible matrix over both primes and a translation."""
    entries = st.tuples(*[st.integers(0, P2 - 1)] * 3)
    diag = draw(st.tuples(*[st.integers(1, P2 - 1)] * 3))
    a = invertible(draw(entries), draw(entries), diag, draw(st.permutations(range(3))))
    return a, list(draw(entries))


def oracle_hom_dim_weight(ideal, a):
    """Degree-a piece of Hom_S(I, S/I) by a union-find over generator pairs.

    It forms every pairwise lcm at each weight, where hom_dim_weight reads
    the ideal's cached generator_lcms.
    """
    gens = ideal.mingens
    stair = ideal.staircase
    parent = {j: j for j, g in enumerate(gens)
              if (g[0] + a[0], g[1] + a[1], g[2] + a[2]) in stair}

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    killed = []
    for j in range(len(gens)):
        for i in range(j):
            l = tuple(max(u, v) for u, v in zip(gens[i], gens[j]))
            if (l[0] + a[0], l[1] + a[1], l[2] + a[2]) not in stair:
                continue  # both sides die in S/I, no condition
            if i in parent and j in parent:
                parent[find(i)] = find(j)
            elif i in parent or j in parent:
                killed.append(i if i in parent else j)
    return len({find(j) for j in parent} - {find(k) for k in killed})


def oracle_graded_dim(alive, conditions):
    """The union-find count of the graded route on a dict of parents.

    alive lists the unknowns c_j; a condition (i, j) forces c_i = c_j when
    both are unknowns, and forces the one that is, with its class, to 0
    otherwise.  It counts the classes holding no forced zero.
    """
    parent = {j: j for j in alive}

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    killed = []
    for i, j in conditions:
        if i in parent and j in parent:
            parent[find(i)] = find(j)
        elif i in parent or j in parent:
            killed.append(i if i in parent else j)
    return len({find(j) for j in parent} - {find(k) for k in killed})


@st.composite
def graded_buckets(draw):
    """Unknowns among r <= 10 generators and conditions on pairs of them."""
    r = draw(st.integers(1, 10))
    alive = draw(st.sets(st.integers(0, r - 1)))
    pairs = [(i, j) for j in range(r) for i in range(j)]
    conditions = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return sorted(alive), conditions


@st.composite
def elongated_ideals(draw):
    """A monomial ideal of colength <= 60 whose staircase reaches up to 30
    along one axis and at most 4 along the others: the down-closure of
    random cells, each kept while the colength stays in bounds."""
    cells = set()
    for long, a, b in draw(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 3),
                                              st.integers(0, 3)), min_size=1, max_size=6)):
        box = {(i, j, k) for i in range(long + 1) for j in range(a + 1) for k in range(b + 1)}
        if len(cells | box) <= 60:
            cells |= box
    if not cells:
        cells = {(0, 0, 0)}
    axes = draw(st.permutations(range(3)))
    cells = {tuple(v[axes.index(c)] for c in range(3)) for v in cells}
    X = max(v[0] for v in cells) + 1
    Y = max(v[1] for v in cells) + 1
    heights = tuple(tuple(h for h in (sum((i, j, k) in cells for k in range(60))
                                      for j in range(Y)) if h) for i in range(X))
    return mono3.MonomialIdeal3(heights)


def degeneration_bound(I):
    """dim T of the initial ideal in(I), the monomial ideal of the leading
    terms of the reduced Groebner basis.  I degenerates flatly to in(I) and
    dim Hom(I, S/I) is upper semicontinuous in a flat family, so over any
    field this bounds dim T(I) from above."""
    initial = mono3.from_generators(g.leading()[0] for g in poly3.groebner(I))
    return tancomb.tangent_report(initial).total


def oracle_hom_dim_from_syzygies(syz, qd):
    """r d - rank of the block matrix, each nonzero syzygy coefficient
    evaluated densely on S/I (evaluate_at_matrices) and placed as its block."""
    r, d = len(syz.generators_used), qd.colength
    parts = []
    for n, s in enumerate(syz.syzygies):
        for j, coeff in enumerate(s):
            if not coeff.is_zero:
                rows, cols, vals = gfp.dense_entries(poly3.evaluate_at_matrices(coeff, qd))
                parts.append((rows + n * d, cols + j * d, vals))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts)) if parts else ([], [], [])
    return r * d - gfp.sparse_rank(rows, cols, vals, (len(syz.syzygies) * d, r * d),
                                   qd.ring.p)


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
        validate(syz)

    def test_monomial_taylor_relations(self):
        I = pi("x^2, x*y, z^3")
        syz = tanlin.syzygies(I)
        assert len(syz.syzygies) == 3
        validate(syz)
        # the (x^2, x*y) pair gives y e_1 - x e_2
        comps = {tuple(sorted((i, j) for row in [s] for j, c in enumerate(row) if not c.is_zero))
                 for i, s in enumerate(syz.syzygies)}
        assert all(len(pair) == 2 for pair in comps)

    def test_principal_ideal_empty(self):
        syz = tanlin.syzygies(pi("x^2 + y*z"))
        assert syz.syzygies == ()

    def test_validate_on_mixed_ideal(self):
        syz = tanlin.syzygies(pi(GGGL))
        validate(syz)
        assert len(syz.syzygies) >= 1

    def test_generator_syzygies_validate(self):
        for text in [GGGL, "x^2 - y*z, x*z, x*y, y^2, z^2", "x, y, z"]:
            I = pi(text)
            syz = tanlin.generator_syzygies(I)
            assert syz.generators_used == I.gens
            validate(syz)

    @pytest.mark.parametrize("text", [GGGL, "x^2 - y*z, x*z, x*y, y^2, z^2", None],
                             ids=["gggl", "small", "moved"])
    def test_generator_syzygies_generate_the_module(self, text):
        # each row being a syzygy is not enough: a Hom tuple must kill a
        # generating set, or some h_j is left freer and the dimension grows.
        # A zero, a repeated and a scaled generator each need their own rows.
        I = pi(text) if text else linear_image(
            mono3.parse_monomial_ideal("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2"),
            R, *random_change(random.Random(7), P))
        g = I.gens
        messy = poly3.PolyIdeal(ring=R, gens=(g[0], R.zero()) + g[1:] + (g[1], g[-1].scale(5)))
        syz = tanlin.generator_syzygies(messy)
        assert syz.generators_used == messy.gens
        validate(syz)
        got = tanlin._hom_dim_from_syzygies(syz, poly3.quotient_data(I))
        assert got == tanlin.tangent_excess(I)[1]


class TestHomDim:
    def test_maximal_ideal(self):
        assert tanlin.tangent_excess(pi("x, y, z"))[1] == 3

    def test_m2(self):
        assert tanlin.tangent_excess(pi("x^2, x*y, x*z, y^2, y*z, z^2"))[1] == 18

    def test_gggl_example(self):
        I = pi(GGGL)
        d, t, excess = tanlin.tangent_excess(I)
        assert d == 12
        assert t == 45
        assert excess == 45 - 36

    def test_gggl_second_prime(self):
        R2 = poly3.PolyRing(P2)
        I = poly3.parse_ideal(GGGL, R2)
        assert tanlin.tangent_excess(I)[1] == tanlin.hom_dim(I) == 45

    def test_not_zero_dimensional(self):
        with pytest.raises(NotZeroDimensionalError):
            tanlin.tangent_excess(pi("x, y"))
        with pytest.raises(NotZeroDimensionalError):
            tanlin.hom_dim(pi("x, y"))

    def test_generating_set_independence(self):
        for text in [GGGL, "x^2 - y*z, x*z, x*y, y^2, z^2",
                     "x^2, x*y, x*z, y^2, y*z, z^3"]:
            I = pi(text)
            assert tanlin.hom_dim(I) == tanlin.tangent_excess(I)[1]

    def test_agrees_with_bounded_components(self):
        rng = random.Random(17)
        for d in range(1, 6):
            ideals = list(mono3.enumerate_ideals(d))
            for ideal in rng.sample(ideals, min(6, len(ideals))):
                I = poly3.ideal(R, map(R.monomial, ideal.mingens))
                want = tancomb.tangent_report(ideal).total
                assert tanlin.tangent_excess(I)[1] == tanlin.hom_dim(I) == want


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
            rep = tancomb.tangent_report(ideal)
            assert total == tanlin.mono_hom_dim(ideal) == rep.total

    def test_exhaustive_small(self):
        for d in range(1, 6):
            for ideal in mono3.enumerate_ideals(d):
                rep = tancomb.tangent_report(ideal)
                assert tanlin.mono_hom_dim(ideal) == rep.total

    def test_per_weight_exhaustive(self):
        # every weight of every ideal of colength <= 6, both routes
        for d in range(1, 7):
            for ideal in mono3.enumerate_ideals(d):
                for a in sorted(tancomb.weight_candidates(ideal)):
                    assert tancomb.bounded_components(ideal, a) == \
                        tanlin.hom_dim_weight(ideal, a), (ideal, a)


    def test_matches_oracle_on_every_weight(self):
        # every candidate weight of every ideal of colength <= 8
        for d in range(1, 9):
            for ideal in mono3.enumerate_ideals(d):
                for a in sorted(tancomb.weight_candidates(ideal)):
                    assert tanlin.hom_dim_weight(ideal, a) == \
                        oracle_hom_dim_weight(ideal, a), (ideal, a)

    def test_all_weights_match_oracle(self):
        # every candidate weight of every ideal of colength <= 8, one pass each
        for d in range(1, 9):
            for ideal in mono3.enumerate_ideals(d):
                dims = tanlin.mono_hom_dims(ideal)
                cands = tancomb.weight_candidates(ideal)
                assert dims.keys() <= cands, ideal
                assert 0 not in dims.values(), ideal
                for a in cands:
                    assert dims.get(a, 0) == oracle_hom_dim_weight(ideal, a), (ideal, a)

    def test_generator_lcms(self):
        for d in range(1, 7):
            for ideal in mono3.enumerate_ideals(d):
                g = ideal.mingens
                assert ideal.generator_lcms == tuple(
                    (i, j, tuple(map(max, g[i], g[j])))
                    for j in range(len(g)) for i in range(j))

    def test_mono_hom_dim_forms_no_lcm_per_weight(self, monkeypatch):
        # one lcm per generator pair, built once per ideal, none per weight
        calls = [0]
        original = poly3.exp_lcm

        def counting(a, b):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(mono3, "exp_lcm", counting)
        monkeypatch.setattr(tanlin, "exp_lcm", counting, raising=False)
        ideal = mono3.parse_monomial_ideal("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2")
        pairs = len(ideal.mingens) * (len(ideal.mingens) - 1) // 2
        assert tanlin.mono_hom_dim(ideal) == 48
        assert calls == [pairs]
        assert tanlin.mono_hom_dim(ideal) == 48
        assert calls == [pairs]
        assert "generator_lcms" in vars(ideal)
        assert "staircase_bits" not in vars(ideal)

    @settings(max_examples=150, deadline=None)
    @given(elongated_ideals())
    def test_routes_agree_past_the_census_shapes(self, ideal):
        # extents and colengths the d = 11 corpus never reaches, where the
        # grid's padding and the cone classes carry the most weight
        assert tancomb.tangent_report(ideal).dims == tanlin.mono_hom_dims(ideal)

    @settings(max_examples=400, deadline=None)
    @given(graded_buckets())
    def test_bitmask_classes_match_the_dict_union_find(self, bucket):
        alive, conditions = bucket
        masks = [1 << i | 1 << j for i, j in conditions]
        assert tanlin._graded_dim(sum(1 << j for j in alive), masks) == \
            oracle_graded_dim(alive, conditions)


#: {excess: number of colength-d monomial ideals with that tangent excess}
EXCESS_HISTOGRAMS = {
    7: {0: 58, 6: 25, 8: 3},
    8: {0: 91, 6: 51, 8: 15, 12: 3},
    10: {0: 204, 6: 157, 8: 90, 12: 33, 16: 15, 30: 1},
}


class TestExcessHistograms:
    @pytest.mark.parametrize("d", sorted(EXCESS_HISTOGRAMS))
    def test_bounded_components_route(self, d):
        assert Counter(tancomb.tangent_report(I).excess
                         for I in mono3.enumerate_ideals(d)) == EXCESS_HISTOGRAMS[d]

    @pytest.mark.parametrize("d", sorted(EXCESS_HISTOGRAMS))
    def test_graded_route(self, d):
        assert Counter(sum(tanlin.mono_hom_dims(I).values()) - 3 * d
                         for I in mono3.enumerate_ideals(d)) == EXCESS_HISTOGRAMS[d]


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


class TestGatheredEntries:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((P, P2)), st.sampled_from(UP_TO_TEN[:40]), coordinate_changes(),
           st.booleans())
    def test_matches_dense_blocks(self, p, ideal, change, given_generators):
        # the given generators' syzygies carry coefficients outside the
        # staircase, the reduced basis's Schreyer syzygies mostly do not
        I = linear_image(ideal, poly3.PolyRing(p), *change)
        if given_generators:
            I = poly3.ideal(I.ring, I.gens + (I.gens[0] * I.gens[-1],))
        syz = (tanlin.generator_syzygies if given_generators else tanlin.syzygies)(I)
        qd = poly3.quotient_data(I)
        want = oracle_hom_dim_from_syzygies(syz, qd)
        assert tanlin._hom_dim_from_syzygies(syz, qd) == want
        if not given_generators:
            assert want == tancomb.tangent_report(ideal).total

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((3, 5, 7)), st.sampled_from(UP_TO_TEN[:40]), st.booleans(),
           st.data())
    def test_matches_dense_blocks_at_small_primes(self, p, ideal, given_generators, data):
        # a permutation with unit scalings and a translation is invertible
        # mod p; a monomial ideal's tangent space does not see the field
        scale = data.draw(st.tuples(*[st.integers(1, p - 1)] * 3))
        a = invertible((0, 0, 0), (0, 0, 0), scale, data.draw(st.permutations(range(3))))
        I = linear_image(ideal, poly3.PolyRing(p), a,
                         list(data.draw(st.tuples(*[st.integers(0, p - 1)] * 3))))
        if given_generators:
            I = poly3.ideal(I.ring, I.gens + (I.gens[0] * I.gens[-1],))
        syz = (tanlin.generator_syzygies if given_generators else tanlin.syzygies)(I)
        qd = poly3.quotient_data(I)
        got = tanlin._hom_dim_from_syzygies(syz, qd)
        assert got == oracle_hom_dim_from_syzygies(syz, qd) == tancomb.tangent_report(ideal).total

    @pytest.mark.parametrize("text, distinct, nonzero", [
        (GGGL, 9, 50), ("x^2 - y*z, x*z, x*y, y^2, z^2", 3, 12), ("x^6, y^6, z^6", 0, 0)])
    def test_one_evaluation_per_standard_monomial(self, monkeypatch, text, distinct, nonzero):
        # each distinct standard monomial among the reduced coefficients is
        # evaluated once, as a monomial, not each nonzero coefficient; a
        # box's Koszul coefficients all reduce to 0
        I = pi(text)
        syz, qd = tanlin.syzygies(I), poly3.quotient_data(I)
        want = oracle_hom_dim_from_syzygies(syz, qd)
        reduced = [poly3.normal_form(c, I) for s in syz.syzygies for c in s]
        terms = {e for f in reduced for e in f.terms}
        assert (len(terms), sum(not f.is_zero for f in reduced)) == (distinct, nonzero)
        evaluated = []
        original = poly3.evaluate_at_matrices
        monkeypatch.setattr(poly3, "evaluate_at_matrices",
                            lambda f, q: evaluated.append(f) or original(f, q))
        assert tanlin._hom_dim_from_syzygies(syz, qd) == want
        assert sorted(list(f.terms.items()) for f in evaluated) == sorted([[(e, 1)] for e in terms])


class TestBorderRoute:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((P, P2)), st.sampled_from(UP_TO_TEN), coordinate_changes())
    def test_matches_syzygy_and_combinatorial_routes(self, p, ideal, change):
        I = linear_image(ideal, poly3.PolyRing(p), *change)
        want = tancomb.tangent_report(ideal).total
        assert tanlin.hom_dim(I) == tanlin.tangent_excess(I)[1] == want
        assert want <= degeneration_bound(I)

    @pytest.mark.parametrize("p", [P, P2])
    @pytest.mark.parametrize("first, a, second, b", [
        ("x^2, y, z", (0, 0, 0), "x, y, z", (1, 2, 3)),
        ("x^2, x*y, y^2, z", (1, 0, 0), "x^2, x*y, x*z, y^2, y*z, z^2", (0, -1, 2)),
        ("x^3, y^3, z^3, y*z^2, x^2*z, x*y^2", (2, 1, 0), "x, y, z^2", (0, 0, 0)),
    ])
    def test_two_points_add_up(self, p, first, a, second, b):
        # S/I is not local: the scheme is the disjoint union of the two
        # points, so dim T is the sum of theirs
        ring = poly3.PolyRing(p)
        A, B = mono3.parse_monomial_ideal(first), mono3.parse_monomial_ideal(second)
        I = poly3.intersect(linear_image(A, ring, IDENTITY, [-c for c in a]),
                            linear_image(B, ring, IDENTITY, [-c for c in b]))
        want = tancomb.tangent_report(A).total + tancomb.tangent_report(B).total
        assert tanlin.hom_dim(I) == tanlin.tangent_excess(I)[1] == want
        assert want <= degeneration_bound(I)

    def test_two_reduced_points(self):
        assert tanlin.hom_dim(pi("x^2 - x, y, z")) == 6

    def test_unknowns_are_border_terms(self, monkeypatch):
        # m^2: 4 standard monomials, 6 border terms of degree 2, each reached
        # from up to three (variable, monomial) pairs but one unknown vector
        shapes = []
        original = gfp.sparse_rank
        monkeypatch.setattr(gfp, "sparse_rank", lambda r, c, v, shape, p:
                            shapes.append(shape) or original(r, c, v, shape, p))
        assert tanlin.hom_dim(pi("x^2, x*y, x*z, y^2, y*z, z^2")) == 18
        assert shapes == [(3 * 4 * 4, 4 * 6)]


class TestDegenerationBound:
    @pytest.mark.parametrize("p", [P, P2])
    def test_non_monomial_points(self, p):
        # the binomial ideal, and the link of x^2, xy, y^2, z by three
        # generic quadrics: dim T against dim T of the initial ideal
        ring = poly3.PolyRing(p)
        source = poly3.parse_ideal("x^2, x*y, y^2, z", ring)
        target = linkage.link(source, [poly3.parse_poly(f, ring)
                                       for f in GENERIC_ALPHA.split(",")]).target
        for I, t, bound in ((poly3.parse_ideal(GGGL, ring), 45, 54), (target, 15, 21)):
            assert not all(len(g.terms) == 1 for g in poly3.groebner(I))
            assert (tanlin.tangent_excess(I)[1], degeneration_bound(I)) == (t, bound)


class TestMatrixTraffic:
    def test_box_koszul_coefficients_need_no_products(self, matmul_calls):
        # the parity subcommand's path: every syzygy coefficient of a box is
        # a pure power inside the ideal, so it reduces to 0 before any product
        rep = linkage.parity_report(pi("x^6, y^6, z^6"))
        assert (rep.colength, rep.tangent_dim) == (216, 648)
        assert matmul_calls == [0]

    def test_box_koszul_matrix_needs_no_elimination(self, monkeypatch):
        # the 648 x 648 Koszul matrix of the box is all zero, so its sparse
        # rank has no entries to eliminate
        calls = []
        original = gfp.rref
        monkeypatch.setattr(gfp, "rref", lambda a, p: calls.append(a.shape) or original(a, p))
        rep = linkage.parity_report(pi("x^6, y^6, z^6"))
        assert (rep.colength, rep.tangent_dim) == (216, 648)
        assert calls == []

    @pytest.mark.parametrize("p", [P, P2])
    def test_syzygy_route_is_one_sparse_rank(self, monkeypatch, p):
        # one rank of the whole block matrix: (syzygies x d) by (generators x d)
        ring = poly3.PolyRing(p)
        moved = linear_image(mono3.parse_monomial_ideal("x^2, x*y, x*z, y^2, y*z, z^2"),
                             ring, *random_change(random.Random(5), p))
        shapes = []
        original = gfp.sparse_rank
        monkeypatch.setattr(gfp, "sparse_rank", lambda r, c, v, shape, q:
                            shapes.append(shape) or original(r, c, v, shape, q))
        for I, want in ((moved, 18), (poly3.parse_ideal(GGGL, ring), 45)):
            shapes.clear()
            d, t, _ = tanlin.tangent_excess(I)
            syz = tanlin.syzygies(I)
            assert t == want
            assert shapes == [(len(syz.syzygies) * d, len(syz.generators_used) * d)]

    @pytest.mark.parametrize("text", ["x^2, x*y, x*z, y^2, y*z, z^2",
                                      "x^3, y^3, z^3, y*z^2, x^2*z, x*y^2",
                                      "x^2, y^3, z^3"])
    def test_one_cache_builds_fewer_products_than_the_colength(self, matmul_calls, text):
        ideal = mono3.parse_monomial_ideal(text)
        I = linear_image(ideal, R, *random_change(random.Random(text), P))
        assert tanlin.tangent_excess(I)[1] == tancomb.tangent_report(ideal).total
        # one product per cached monomial matrix of degree >= 2 (the variables'
        # are the multiplication matrices), so m^2 needs none
        built = sum(sum(e) >= 2 for e in poly3.quotient_data(I).monomial_matrices)
        assert matmul_calls[0] == built <= ideal.colength - 1
