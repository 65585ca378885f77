import json
import os
import subprocess
import sys
import textwrap

import pytest

from hilb3 import cli, mono3, smoothcls, tancomb
from hilb3.errors import HasTripleError, InputError, InvariantError
from helpers import ev

I1 = mono3.parse_monomial_ideal("x^2, x*y, x*z, y^2, y*z, z^3")
I2 = mono3.parse_monomial_ideal("x^2, x*y, x*z, y^2, z^2")
M2 = mono3.parse_monomial_ideal("x^2,y^2,z^2,x*y,x*z,y*z")


class TestFindTriple:
    def test_reads_only_the_socle(self):
        # the census path: no staircase, generators or tangent tables get built
        for ideal in mono3.enumerate_ideals(7):
            smoothcls.find_triple(ideal)
            assert "staircase" not in vars(ideal)
            assert "mingens" not in vars(ideal)
            assert "staircase_bits" not in vars(ideal)
            assert "generator_lcms" not in vars(ideal)

    def test_census_builds_no_tangent_table(self, monkeypatch):
        seen = []
        original = mono3.enumerate_ideals
        monkeypatch.setattr(mono3, "enumerate_ideals",
                            lambda d: (seen.append(I) or I for I in original(d)))
        smoothcls.smooth_census(7)
        assert len(seen) == sum(mono3.macmahon_series(7)[1:])
        for ideal in seen:
            assert "staircase_bits" not in vars(ideal)
            assert "generator_lcms" not in vars(ideal)

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

    def test_same_witnesses_as_the_sorted_peel(self):
        # the witness find_triple and classify gave when the peel ran on a
        # socle sorted afresh: the first per-coordinate maxima of what is left
        for d in range(1, 10):
            for ideal in mono3.enumerate_ideals(d):
                remaining = sorted(mono3.socle(ideal))
                for _ in smoothcls._peel(remaining):
                    pass
                triple = smoothcls.find_triple(ideal)
                assert smoothcls.classify(ideal).triple == triple
                if not remaining:
                    assert triple is None
                    continue
                mx = [max(s[i] for s in remaining) for i in range(3)]
                want = [min(s for s in remaining if s[i] == mx[i]) for i in range(3)]
                assert [triple.a, triple.b, triple.c] == want, ideal

    def test_census_builds_no_witness(self, monkeypatch):
        witness, built = smoothcls._witness_triple, []
        monkeypatch.setattr(smoothcls, "_witness_triple",
                            lambda stuck: built.append(stuck) or witness(stuck))
        seen, enumerate_ideals = [], mono3.enumerate_ideals
        monkeypatch.setattr(mono3, "enumerate_ideals",
                            lambda d: (seen.append(i) or i for i in enumerate_ideals(d)))
        smoothcls.smooth_census(10)
        assert built == [] and len(seen) == sum(mono3.macmahon_series(10)[1:])
        # the census path reads only the socle of the ideals it enumerates
        for ideal in seen:
            assert set(vars(ideal)) == {"heights"}
        smoothcls.find_triple(I1)
        assert len(built) == 1

    def test_bad_witness_is_an_engine_fault(self, monkeypatch, capsys):
        # a triple that breaks the extremality conditions is the engine's
        # fault: exit 1 with a JSON error, not an uncaught exception
        with pytest.raises(InvariantError):
            smoothcls.SingularizingTriple(a=ev("x"), b=ev("x"), c=ev("z"))
        monkeypatch.setattr(smoothcls, "_witness_triple", lambda stuck:
                            smoothcls.SingularizingTriple(*stuck[:1] * 3))
        assert cli.main(["triple", "x^2, x*y, x*z, y^2, y*z, z^3"]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "InvariantError"


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

    def test_negative_bound_rejected(self):
        with pytest.raises(InputError, match="census bound must be >= 0"):
            smoothcls.smooth_census(-1)
        assert smoothcls.smooth_census(0) == []

    def test_smooth_count_is_triple_free_count(self):
        for d, total, smooth in smoothcls.smooth_census(12):
            verdicts = [smoothcls.find_triple(i) is None for i in mono3.enumerate_ideals(d)]
            assert (total, smooth) == (len(verdicts), sum(verdicts)), d

    def test_rows_to_16(self):
        # d <= 14 from the paper; 1116 and 1497 from the exhaustive tancomb
        # excess-zero count in bench/derive_census_counts.py
        smooth = [1, 3, 6, 12, 21, 36, 58, 91, 138, 204, 300, 417, 597, 816,
                  1116, 1497]
        rows = smoothcls.smooth_census(16)
        assert [r[0] for r in rows] == list(range(1, 17))
        assert [r[1] for r in rows] == mono3.macmahon_series(16)[1:]
        assert [r[2] for r in rows] == smooth

    def test_row_17(self):
        # 2016 from the same exhaustive tancomb excess-zero count; past d = 14
        # the paper lists no counts, so that count is the only oracle
        assert smoothcls.smooth_census(17)[-1] == (17, 18334, 2016)
