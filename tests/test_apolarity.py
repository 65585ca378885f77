import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb3 import apolarity, duality, gfp, mono3, poly3
from hilb3.errors import SmallCharacteristicError, ZeroInputError

P = gfp.DEFAULT_PRIME
R = poly3.PolyRing(P)


def dual(text):
    return apolarity.parse_dual(text, P)


def pi(text):
    return poly3.parse_ideal(text, R)


def monomials_up_to(degree):
    """Every exponent of total degree <= degree; the oracles below enumerate
    their own monomials rather than read them off the package."""
    return [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) <= degree]


def contract_monomial(m, f):
    """x^m o f: exponent subtraction, terms going negative vanish."""
    return f.ring.poly({tuple(a - b for a, b in zip(e, m)): c for e, c in f.terms.items()
                        if all(a >= b for a, b in zip(e, m))})


def contraction_closure_dim(fs, p):
    """dim_k of the S-submodule of P generated by the f_i under contraction,
    from the nonzero contractions by monomials of degree <= D; equals the
    colength of Ann(f_1, ..., f_r)."""
    top = max(f.degree() for f in fs)
    dual_mons = monomials_up_to(top)
    col = {m: i for i, m in enumerate(dual_mons)}
    rows = []
    for m in dual_mons:
        for f in fs:
            g = contract_monomial(m, f)
            if g.is_zero:
                continue
            row = np.zeros(len(dual_mons), dtype=np.int64)
            for e, c in g.terms.items():
                row[col[e]] = c
            rows.append(row)
    return gfp.rank(np.vstack(rows), p)


def contract(s, f):
    """s o f for a polynomial s in the acting ring."""
    out = f.ring.zero()
    for e, c in s.terms.items():
        out = out + contract_monomial(e, f).scale(c)
    return out


class TestContract:
    def test_single_steps(self):
        X = dual("X")
        assert contract_monomial((1, 0, 0), X) == dual("1")
        assert contract_monomial((0, 1, 0), X).is_zero

    def test_mixed_monomial(self):
        f = dual("X^2*Y^3")
        assert contract_monomial((0, 1, 0), f) == dual("X^2*Y^2")

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

    def test_pure_power_stays_small(self):
        # the ambient (x^17, y, z) has colength 17, where m^17 has 1140 cells
        # and its three dense multiplication matrices about 31 MB; the
        # ambient of X^10 Y^3 + Z^12 has the 56 divisors of its terms as
        # cells, where the monomials of degree <= 13 in the box
        # [0, 10] x [0, 3] x [0, 12] number 329
        for text in ("X^16", "X^10*Y^3 + Z^12"):
            f = dual(text)
            tracemalloc.start()
            try:
                ann = apolarity.annihilator([f], R)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000, text
            if text == "X^16":
                assert ann == pi("x^17, y, z")
            else:
                assert poly3.quotient_data(ann).colength == 55 == contraction_closure_dim([f], P)

    def test_recovers_smooth_staircase_example(self):
        # Ann(X, YZ) is the colength-5 ideal with socle {x, yz}
        ann = apolarity.annihilator([dual("X"), dual("Y*Z")], R)
        assert ann == pi("x^2, x*y, x*z, y^2, z^2")

    def test_colength_equals_closure_dim(self):
        rng = random.Random(23)
        mons = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
                if i + j + k <= 3]
        for _ in range(12):
            # systems of one to three dual polynomials
            fs = [apolarity.dual_ring(P).poly(
                {rng.choice(mons): rng.randrange(1, P) for _ in range(4)})
                for _ in range(rng.randint(1, 3))]
            if any(f.is_zero for f in fs):
                continue
            ann = apolarity.annihilator(fs, R)
            assert poly3.quotient_data(ann).colength == \
                contraction_closure_dim(fs, P)

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
        assert d == contraction_closure_dim([dual("X^2 + X + Y")], P)
        assert duality.gorenstein_type(ann) == 1


def oracle_annihilator(fs):
    """The reduced basis Buchberger finds from the kernel of the contraction
    map on the monomials of degree <= D + 1, read as polynomials."""
    top = max(f.degree() for f in fs)
    acting = monomials_up_to(top + 1)
    dual_mons = monomials_up_to(top)
    col = {m: i for i, m in enumerate(dual_mons)}
    mat = np.zeros((len(fs) * len(dual_mons), len(acting)), dtype=np.int64)
    for j, m in enumerate(acting):
        for k, f in enumerate(fs):
            for e, c in contract_monomial(m, f).terms.items():
                mat[k * len(dual_mons) + col[e], j] = c
    gens = [R.poly(dict(zip(acting, map(int, v)))) for v in gfp.kernel_basis(mat, P)[0]]
    return poly3.reduce_basis(poly3.buchberger(gens))


def dual_polys(top, p=P, terms=4):
    """A dual polynomial over F_p of one to `terms` terms of degree 1 to top."""
    exps = st.tuples(*[st.integers(0, top)] * 3).filter(lambda e: 1 <= sum(e) <= top)
    coeffs = st.integers(1, p - 1)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=terms).map(
        apolarity.dual_ring(p).poly)


class TestAnnihilatorOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(dual_polys(4), min_size=1, max_size=2))
    def test_matches_buchberger_on_the_kernel(self, fs):
        ann = apolarity.annihilator(fs, R)
        assert poly3.groebner(ann) == oracle_annihilator(fs)
        assert poly3.quotient_data(ann).colength == contraction_closure_dim(fs, P)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(dual_polys(3), min_size=1, max_size=2))
    def test_verify_agrees(self, fs):
        assert apolarity.annihilator(fs, R, verify=True) == apolarity.annihilator(fs, R)

    @pytest.mark.parametrize("p", [P, 11])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sparse_duals_of_high_degree(self, p, data):
        # a few terms of degree up to 10 have few divisors: the ambient is
        # far smaller than the monomials of degree <= D in the exponent box
        fs = data.draw(st.lists(dual_polys(10, p, terms=3), min_size=1, max_size=2))
        ring = poly3.PolyRing(p)
        ann = apolarity.annihilator(fs, ring)
        assert poly3.quotient_data(ann).colength == contraction_closure_dim(fs, p)
        assert apolarity.annihilator(fs, ring, verify=True) == ann

    def test_runs_no_buchberger(self, buchberger_runs):
        # the ambient, spanned by the monomials that divide no term, is
        # monomial and the kernel is read off by rref
        ann = apolarity.annihilator([dual("X^3 - Y^3"), dual("X*Y^2 + X*Z^2")], R)
        assert poly3.quotient_data(ann).colength == 11
        assert buchberger_runs == []

    def test_two_eliminations(self, monkeypatch):
        # the kernel of the contraction map, read by span_ideal, and the
        # rank of the inverse system that checks the colength
        calls = []
        original = gfp.rref
        monkeypatch.setattr(gfp, "rref", lambda a, p: calls.append(a.shape) or original(a, p))
        ann = apolarity.annihilator([dual("X^3 - Y^3"), dual("X*Y^2 + X*Z^2")], R)
        assert poly3.quotient_data(ann).colength == 11
        assert len(calls) == 2

    @pytest.mark.parametrize("text", ["5", "X + 2*Y", "X^3 - Y^3", "X*Y*Z^2 + Y^4", "X^5 + Z^5",
                                      "X^2 + Y^2 + Z^2", "X^3 + X*Y*Z + Y^3 + Z^3"])
    def test_ambient_is_m_to_the_top_degree_plus_one(self, text, monkeypatch):
        # a monomial annihilates exactly when it divides no term, so the
        # ambient's standard monomials are the divisors of the terms (7 for
        # X^2 + Y^2 + Z^2, where m^3 has 10), and S/ambient holds Ann/ambient
        ambients = []
        original = poly3.span_ideal
        monkeypatch.setattr(poly3, "span_ideal", lambda A, relations, verify=False:
                            ambients.append(A) or original(A, relations, verify))
        f = dual(text)
        ann = apolarity.annihilator([f], R)
        (ambient,) = ambients
        cells = {m for m in monomials_up_to(f.degree())
                 if any(all(k <= t for k, t in zip(m, e)) for e in f.terms)}
        assert poly3.quotient_data(ambient).standard_set == cells
        assert poly3.groebner(ann) == oracle_annihilator([f])  # the oracle works mod m^(D+2)


class TestDualParsing:
    def test_uppercase_only(self):
        with pytest.raises(Exception):
            apolarity.parse_dual("x + Y", P)
