import os
import subprocess
import sys
import textwrap

import pytest

from hilb3 import mono3, smoothcls, tancomb
from hilb3.errors import HasTripleError, InvariantError

I1 = mono3.parse_monomial_ideal("x^2, x*y, x*z, y^2, y*z, z^3")
I2 = mono3.parse_monomial_ideal("x^2, x*y, x*z, y^2, z^2")
M2 = mono3.parse_monomial_ideal("x^2,y^2,z^2,x*y,x*z,y*z")


def ev(s):
    return mono3.parse_monomial(s)


class TestFindTriple:
    def test_reads_only_the_socle(self):
        # the census path: neither staircase nor generators get expanded
        for ideal in mono3.enumerate_ideals(7):
            smoothcls.find_triple(ideal)
            assert "staircase" not in vars(ideal)
            assert "mingens" not in vars(ideal)

    def test_singular_staircase_example(self):
        t = smoothcls.find_triple(I1)
        assert t is not None
        assert {t.a, t.b, t.c} == {ev("x"), ev("y"), ev("z^2")}

    def test_smooth_staircase_example(self):
        assert smoothcls.find_triple(I2) is None

    def test_tripod(self):
        t = smoothcls.find_triple(M2)
        assert {t.a, t.b, t.c} == {ev("x"), ev("y"), ev("z")}

    def test_agrees_with_exhaustive_search(self):
        from itertools import permutations

        def exhaustive(ideal):
            soc = mono3.socle(ideal)
            for a, b, c in permutations(soc, 3):
                if a[0] > b[0] and a[0] > c[0] and b[1] > a[1] and b[1] > c[1] \
                        and c[2] > a[2] and c[2] > b[2]:
                    return True
            return False

        for d in range(1, 9):
            for ideal in mono3.enumerate_ideals(d):
                assert (smoothcls.find_triple(ideal) is not None) == exhaustive(ideal)


def peel_steps(ideal):
    return list(smoothcls._peel(sorted(mono3.socle(ideal))))


class TestSocleOrder:
    def test_two_element_socle(self):
        # y*z goes first, dominating in y and z, so the multiplier is a power of x
        assert peel_steps(I2) == [(ev("y*z"), 0), (ev("x"), 2)]
        cert = smoothcls.noflip_chain(I2)
        assert cert.multipliers == (ev("x"),)
        assert mono3.socle(cert.quotients[0]) == (ev("y*z"),)
        # what is left is the socle element x, divided by the multiplier
        assert mono3.socle(cert.quotients[1]) == (ev("1"),)

    def test_singleton(self):
        ideal = mono3.parse_monomial_ideal("x, y^2, z^2")
        assert peel_steps(ideal) == [(ev("y*z"), 2)]
        cert = smoothcls.noflip_chain(ideal)
        assert cert.multipliers == ()
        assert mono3.socle(cert.quotients[0]) == (ev("y*z"),)

    def test_raises_when_triple_exists(self):
        with pytest.raises(HasTripleError) as exc:
            smoothcls.noflip_chain(I1)
        assert exc.value.triple == smoothcls.find_triple(I1).monomials()

    def test_domination_property(self):
        for d in range(1, 8):
            for ideal in mono3.enumerate_ideals(d):
                if smoothcls.find_triple(ideal) is not None:
                    continue
                steps = peel_steps(ideal)
                assert sorted(s for s, _ in steps) == sorted(mono3.socle(ideal))
                for p, (s, k) in enumerate(steps):
                    pair = [i for i in range(3) if i != k]
                    for t, _ in steps[p + 1:]:
                        assert s[pair[0]] >= t[pair[0]]
                        assert s[pair[1]] >= t[pair[1]]
                        assert s[k] < t[k]


class TestNoflipChain:
    def test_worked_example(self):
        cert = smoothcls.noflip_chain(I2)
        assert cert.multipliers == (ev("x"),)
        assert cert.colengths == (4, 1)
        assert cert.quotients[0] == mono3.parse_monomial_ideal("x, y^2, z^2")
        assert mono3.socle(cert.quotients[0]) == (ev("y*z"),)
        assert cert.quotients[1] == mono3.parse_monomial_ideal("x, y, z")

    def test_already_gorenstein(self):
        cert = smoothcls.noflip_chain(mono3.parse_monomial_ideal("x, y^2, z^2"))
        assert cert.multipliers == ()
        assert cert.colengths == (4,)

    def test_point(self):
        cert = smoothcls.noflip_chain(mono3.parse_monomial_ideal("x,y,z"))
        assert cert.multipliers == ()
        assert cert.colengths == (1,)

    def test_raises_on_triple(self):
        with pytest.raises(HasTripleError):
            smoothcls.noflip_chain(I1)

    def test_raised_triple_is_find_triple_in_the_socle(self):
        # the error names the input's own socle monomials, never those of a
        # colon ideal further down the chain
        for d in range(1, 11):
            for ideal in mono3.enumerate_ideals(d):
                triple = smoothcls.find_triple(ideal)
                if triple is None:
                    continue
                with pytest.raises(HasTripleError) as exc:
                    smoothcls.noflip_chain(ideal)
                assert exc.value.triple == triple.monomials(), ideal
                socle = {mono3.monomial_str(s) for s in mono3.socle(ideal)}
                assert set(exc.value.triple) <= socle, ideal

    def test_certificates_validate(self):
        for d in range(1, 9):
            for ideal in mono3.enumerate_ideals(d):
                if smoothcls.find_triple(ideal) is None:
                    cert = smoothcls.noflip_chain(ideal)
                    cert.validate(ideal)
                    assert sum(cert.colengths) == d

    def test_corrupted_certificates_raise(self):
        cert = smoothcls.noflip_chain(I2)
        bad = [smoothcls.BGChainCert(cert.multipliers, cert.quotients, (3, 2)),
               smoothcls.BGChainCert(cert.multipliers, cert.quotients[::-1], (1, 4)),
               smoothcls.BGChainCert(((0, 1, 0),), cert.quotients, cert.colengths),
               smoothcls.BGChainCert((), cert.quotients, cert.colengths)]
        for c in bad:
            with pytest.raises(InvariantError):
                c.validate(I2)

    def test_validate_survives_python_O(self):
        # invariant checks are explicit raises, not asserts, so -O keeps them
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = textwrap.dedent("""
            from hilb3 import mono3, smoothcls
            from hilb3.errors import InvariantError
            ideal = mono3.parse_monomial_ideal("x^2, x*y, x*z, y^2, z^2")
            cert = smoothcls.noflip_chain(ideal)
            bad = smoothcls.BGChainCert(cert.multipliers, cert.quotients, (3, 2))
            try:
                bad.validate(ideal)
            except InvariantError as exc:
                print("raised:", exc)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "raised: quotient 0 has colength 4\n"


class TestClassify:
    def test_smooth(self):
        res = smoothcls.classify(I2)
        assert res.verdict == "smooth"
        assert res.chain is not None

    def test_singular(self):
        res = smoothcls.classify(I1)
        assert res.verdict == "singular"
        assert res.excess_lower_bound == 6

    def test_tripod_excess_exactly_six(self):
        res = smoothcls.classify(M2)
        assert res.verdict == "singular"
        assert tancomb.tangent_report(M2).excess == 6


class TestCensus:
    def test_prefix(self):
        rows = smoothcls.smooth_census(6)
        assert [r[2] for r in rows] == [1, 3, 6, 12, 21, 36]
        assert [r[1] for r in rows] == [1, 3, 6, 13, 24, 48]

    def test_csv_shape(self):
        text = smoothcls.census_csv(smoothcls.smooth_census(2))
        assert text.splitlines() == ["d,total_ideals,smooth_ideals", "1,1,1", "2,3,3"]

    def test_workers_agree(self):
        assert smoothcls.smooth_census(6, workers=2) == smoothcls.smooth_census(6)
