import importlib.util
import os
import sys

import pytest

from hilb3 import gfp, linkage, mono3, poly3, tancomb, tanlin
from hilb3.errors import ExcessMismatchError, InputError, NotContainedError

P = gfp.DEFAULT_PRIME
R = poly3.PolyRing(P)


def pi(text):
    return poly3.parse_ideal(text, R)


def seq(text):
    return pi(text).gens


class TestLink:
    def test_self_linked_tripod(self):
        src, alpha, _ = linkage.family_tripod_to_tripod22(R, 2, 2, 2)
        step = linkage.link(src, alpha)
        assert poly3.equal_ideals(step.target, src)
        assert step.colengths == (4, 8, 4)

    def test_tripod_354(self):
        src, alpha, want = linkage.family_tripod_to_tripod22(R, 3, 5, 4)
        step = linkage.link(src, alpha)
        assert poly3.equal_ideals(step.target, want)
        d_src, d_alpha, d_tgt = step.colengths
        assert d_src + d_tgt == d_alpha

    def test_not_contained(self):
        with pytest.raises(NotContainedError):
            linkage.link(pi("x^2, y, z"), seq("x, y, z"))

    def test_canonical_degree_equals_source_colength(self):
        src, alpha, _ = linkage.family_j1_to_tripod(R, 1, 3)
        step = linkage.link(src, alpha)
        d_src, d_alpha, d_tgt = step.colengths
        assert d_alpha - d_tgt == d_src


class TestChains:
    def test_j1_family_chain(self):
        src, alpha, want = linkage.family_j1_to_tripod(R, 2, 4)
        report = linkage.verify_link_chain([(src, alpha)])
        assert poly3.equal_ideals(report.steps[0].target, want)
        assert report.excesses == [(6, 6)]

    def test_empty_chain(self):
        report = linkage.verify_link_chain([])
        assert report.steps == []
        assert report.excess is None

    def test_two_step_composition(self):
        # J(2,3,3) -> J(1,2,3) -> I^tri(2,2,3)
        s1, a1, t1 = linkage.family_jabb_to_j1(R, 2, 3)
        s2, a2, t2 = linkage.family_j1_to_tripod(R, 2, 3)
        assert poly3.equal_ideals(t1, s2)
        report = linkage.verify_link_chain([(s1, a1), (s2, a2)])
        assert [e for pair in report.excesses for e in pair] == [6, 6, 6, 6]
        assert report.canonical_degrees == [
            step.colengths[0] for step in report.steps]

    def test_one_tangent_computation_per_ideal(self, monkeypatch):
        # J(2,3,3) -> J(1,2,3) -> I^tri(2,2,3) -> m^2: four ideals, so four
        # syzygy computations; each interior ideal is not recomputed as the
        # next source
        calls = []
        original = tanlin.syzygies
        monkeypatch.setattr(tanlin, "syzygies", lambda I: calls.append(I) or original(I))
        steps = [linkage.family_jabb_to_j1(R, 2, 3),
                 linkage.family_j1_to_tripod(R, 2, 3),
                 linkage.family_tripod22_to_m2(R, 3)]
        report = linkage.verify_link_chain([(src, alpha) for src, alpha, _ in steps])
        assert len(calls) == 4
        assert report.excesses == [(6, 6)] * 3
        assert poly3.equal_ideals(report.steps[-1].target, linkage.maximal_square(R))

    def test_non_composing_chain_rejected(self):
        s1, a1, _ = linkage.family_tripod22_to_m2(R, 3)
        s2, a2, _ = linkage.family_j1_to_tripod(R, 1, 3)
        with pytest.raises(InputError):
            linkage.verify_link_chain([(s1, a1), (s2, a2)])

    def test_borel_p3_instance(self):
        src, alpha, want = linkage.borel_p3_instance(R)
        report = linkage.verify_link_chain([(src, alpha)])
        assert poly3.equal_ideals(report.steps[0].target, want)
        assert report.excesses == [(6, 6)]


class TestOneQuotientPerIdeal:
    def test_link(self, quotient_builds, buchberger_runs):
        # a redundant binomial generator makes the source need Buchberger;
        # the target and the double link are read off alpha's quotient by
        # span_ideal, so they run it not at all and build no quotient
        src, alpha, want = linkage.family_tripod_to_tripod22(R, 3, 5, 4)
        src = poly3.ideal(R, src.gens + (src.gens[3] + src.gens[4],))
        step = linkage.link(src, alpha)
        assert step.target == want
        assert [tuple(gens) for gens in buchberger_runs] == [src.gens, tuple(alpha)]
        assert len(quotient_builds) == 2  # alpha and source

    def test_chain_step(self, quotient_builds, buchberger_runs):
        # a monomial source needs no Buchberger, and the excess at both ends
        # reads the quotients the link built
        src, alpha, _ = linkage.family_j1_to_tripod(R, 2, 4)
        linkage.verify_link_chain([(src, alpha)])
        assert [tuple(gens) for gens in buchberger_runs] == [tuple(alpha)]
        assert len(quotient_builds) == 2  # alpha and source


class TestParity:
    def test_gggl_obstructed(self):
        rep = linkage.parity_report(
            pi("x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z"))
        assert (rep.colength, rep.tangent_dim) == (12, 45)
        assert rep.obstructed
        assert "not licci" in rep.verdict

    def test_m2_not_obstructed(self):
        rep = linkage.parity_report(pi("x^2, x*y, x*z, y^2, y*z, z^2"))
        assert (rep.colength, rep.tangent_dim) == (4, 18)
        assert not rep.obstructed

    def test_point_not_obstructed(self):
        rep = linkage.parity_report(pi("x, y, z"))
        assert (rep.colength, rep.tangent_dim) == (1, 3)
        assert not rep.obstructed


class TestChainJson:
    def test_round_trip(self):
        text = '''[{"ideal": "x^2, x*y, y^2, x*z, y*z^2, z^4",
                    "alpha": ["x*z", "y^2", "z^4 + x^2"]}]'''
        chain = linkage.parse_chain_json(text, R)
        assert len(chain) == 1
        report = linkage.verify_link_chain(chain)
        assert report.excesses[0][0] == report.excesses[0][1]

    def test_rejects_malformed(self):
        for bad in ["{}", "[1]", '[{"ideal": "x"}]',
                    '[{"ideal": "x,y,z", "alpha": ["x"]}]', "nope"]:
            with pytest.raises(InputError):
                linkage.parse_chain_json(bad, R)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


class TestCatalogExcess:
    def test_every_catalog_source_has_excess_six(self, monkeypatch):
        # the benchmark's catalog_links lists the link families' sources as
        # exponent triples; the module is loaded by path and never edited
        monkeypatch.syspath_prepend(BENCH)
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", os.path.join(BENCH, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        sources = [src for src, _, _ in workloads.catalog_links()]
        assert len(sources) == 16
        for src in sources:
            assert tancomb.tangent_report(mono3.from_generators(src)).excess == 6, src

    def test_j_with_a_above_one_and_c_above_b_is_not_in_the_catalog(self):
        # J(a,b,c) with a >= 2 and c > b can leave excess 6, so the catalog
        # holds only J(1,b,c) and J(a,b,b)
        ideal = mono3.from_generators(
            [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2), (0, 0, 4)])
        assert tancomb.tangent_report(ideal).excess == 12
