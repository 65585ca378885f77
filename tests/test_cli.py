import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest

from hilb3 import cli, duality, gfp, mono3, poly3, smoothcls, tancomb, tanlin
from hilb3.errors import PrimeDisagreementError

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCensus:
    def test_csv_row_for_d5(self, capsys):
        code, out = run(capsys, "--format", "csv", "census", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,total_ideals,smooth_ideals"
        assert lines[-1] == "5,24,21"

    def test_csv_shape(self, capsys):
        code, out = run(capsys, "--format", "csv", "census", "2")
        assert code == 0
        assert out.splitlines() == ["d,total_ideals,smooth_ideals", "1,1,1", "2,3,3"]

    def test_json_rows(self, capsys):
        code, data = run_json(capsys, "census", "3")
        assert code == 0
        assert data["schema"] == 1
        assert data["result"]["rows"] == [[1, 1, 1], [2, 3, 3], [3, 6, 6]]

    def test_verify_series_mismatch_is_invariant_error(self, capsys, monkeypatch):
        monkeypatch.setattr(mono3, "macmahon_series", lambda n: [0] * (n + 1))
        code, data = run_json(capsys, "--verify", "census", "3")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"

    @pytest.mark.parametrize("argv", [
        ("--workers", "2", "census", "3"),
        ("census", "3", "--workers", "2"),
        ("--workers", "-5", "series", "3"),
    ])
    def test_removed_workers_flag_is_rejected(self, capsys, argv):
        # argparse rejects the flag before any subcommand runs
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hilb3: error: ")


class TestClassify:
    def test_singular_verdict(self, capsys):
        code, data = run_json(capsys, "classify", "x^2,x*y,x*z,y^2,y*z,z^3")
        assert code == 0
        assert data["result"]["verdict"] == "singular"
        assert data["result"]["triple"] == ["x", "y", "z^2"]

    def test_smooth_verdict_carries_chain(self, capsys):
        code, data = run_json(capsys, "classify", "x^2,x*y,x*z,y^2,z^2")
        assert code == 0
        res = data["result"]
        assert res["verdict"] == "smooth"
        assert res["chain"]["multipliers"] == ["x"]
        assert res["chain"]["colengths"] == [4, 1]

    def test_json_exponent_input(self, capsys):
        code, data = run_json(
            capsys, "classify", "[[2,0,0],[1,1,0],[1,0,1],[0,2,0],[0,1,1],[0,0,3]]")
        assert code == 0
        assert data["result"]["triple"] == ["x", "y", "z^2"]

    @pytest.mark.parametrize("text", ["x^2,x*y,x*z,y^2,y*z,z^3", "x^2,x*y,x*z,y^2,z^2",
                                      "x^2,y^2,z^2,x*y,x*z,y*z", "x,y,z"])
    def test_verify_prints_the_same_report(self, capsys, text):
        assert run(capsys, "--verify", "classify", text) == run(capsys, "classify", text)

    def test_verify_catches_a_smooth_verdict_on_a_triple(self, capsys, monkeypatch):
        # a classify that calls every ideal smooth, with the chain of the point
        point = smoothcls.classify(mono3.parse_monomial_ideal("x,y,z"))
        monkeypatch.setattr(smoothcls, "classify", lambda ideal: point)
        text = "x^2,x*y,x*z,y^2,y*z,z^3"
        assert run_json(capsys, "classify", text)[0] == 0
        code, data = run_json(capsys, "--verify", "classify", text)
        assert code == 1
        assert data["error"]["type"] == "InvariantError"
        assert data["error"]["message"] == \
            "verdict smooth but the graded tangent excess is 6"

    @pytest.mark.parametrize("bound, dims, message", [
        (6, {}, "verdict singular but the graded tangent excess is -15"),
        (8, None, "verdict singular but the graded tangent excess is 6"),
        (6, {(-1, 0, 0): 22}, "verdict singular but the graded tangent excess is 7"),
    ])
    def test_verify_checks_the_singular_bound_and_parity(self, capsys, monkeypatch,
                                                         bound, dims, message):
        verdict = smoothcls.classify(mono3.parse_monomial_ideal("x^2,x*y,x*z,y^2,y*z,z^3"))
        monkeypatch.setattr(smoothcls, "classify", lambda ideal: dataclasses.replace(
            verdict, excess_lower_bound=bound))
        if dims is not None:
            monkeypatch.setattr(tanlin, "mono_hom_dims", lambda ideal: dims)
        code, data = run_json(capsys, "--verify", "classify", "x^2,x*y,x*z,y^2,y*z,z^3")
        assert (code, data["error"]["message"]) == (1, message)

    @pytest.mark.parametrize("command", ["classify", "triple", "chain"])
    def test_non_monomial_is_input_error(self, capsys, command):
        code, data = run_json(capsys, command, "x^2, x + y, y^2, z")
        assert code == 2
        assert data["error"]["message"] == "'x + y' is not a monic monomial"


class TestSeries:
    def test_zero(self, capsys):
        code, data = run_json(capsys, "series", "0")
        assert code == 0
        assert data["result"]["coefficients"] == [1]

    def test_fourteen(self, capsys):
        code, data = run_json(capsys, "series", "14")
        assert data["result"]["coefficients"][-1] == 4167


class TestTangent:
    def test_monomial_route(self, capsys):
        code, data = run_json(capsys, "tangent", "x^2,x*y,x*z,y^2,y*z,z^2")
        assert code == 0
        res = data["result"]
        assert res["route"] == "monomial"
        assert res["total"] == 18
        assert res["excess"] == 6

    def test_syzygy_route(self, capsys):
        code, data = run_json(
            capsys, "tangent",
            "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z")
        assert code == 0
        assert data["result"]["route"] == "syzygy"
        assert data["result"]["total"] == 45

    @pytest.mark.parametrize("argv", [
        ["tangent", "0, x, y, z"],
        ["tangent", "1*x, y y, z, y"],
        ["--prime", "101", "tangent", "102*x, y, z"],  # 102 = 1 in F_101
    ])
    def test_monic_spellings_take_the_monomial_route(self, capsys, argv):
        code, data = run_json(capsys, *argv)
        assert code == 0
        assert (data["result"]["route"], data["result"]["total"]) == ("monomial", 3)

    def test_verify_flag(self, capsys):
        code, data = run_json(capsys, "--verify", "tangent", "x,y,z")
        assert code == 0
        assert data["result"]["total"] == 3

    def test_verify_flag_on_syzygy_route(self, capsys):
        code, data = run_json(capsys, "--verify", "tangent",
                              "x^2 - y*z, x*z, x*y, y^2, z^2")
        assert code == 0
        assert data["result"]["route"] == "syzygy"

    def test_verify_route_disagreement_is_invariant_error(self, capsys, monkeypatch):
        monkeypatch.setattr(tanlin, "mono_hom_dims", lambda ideal: {(-1, 0, 0): -1})
        code, data = run_json(capsys, "--verify", "tangent", "x,y,z")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"

    def test_verify_compares_weight_by_weight(self, capsys, monkeypatch):
        # one unit moves from weight (0, -1, 0) to (-1, 0, 0); the totals agree
        original = tancomb._bounded_at
        moved = {(-1, 0, 0): 1, (0, -1, 0): -1}
        monkeypatch.setattr(tancomb, "_bounded_at", lambda bits, off: original(bits, off)
                            + moved.get(bits.weight(off), 0))
        code, data = run_json(capsys, "--verify", "tangent", "x,y,z")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"
        assert data["error"]["message"] == \
            "at weight (-1, 0, 0): combinatorial 2 vs linear-algebra 1"

    def test_odd_excess_is_invariant_error(self, capsys, monkeypatch):
        # dim T = d (mod 2) at a monomial point; one extra unit breaks it
        original = tancomb._bounded_at
        monkeypatch.setattr(tancomb, "_bounded_at", lambda bits, off: original(bits, off)
                            + (bits.weight(off) == (-1, -1, 1)))
        code, data = run_json(capsys, "tangent", "x^2,x*y,x*z,y^2,y*z,z^2")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"

    def test_verify_runs_one_graded_pass(self, capsys, monkeypatch):
        calls = {"hom_dim_weight": 0, "mono_hom_dims": 0}
        for name in calls:
            original = getattr(tanlin, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(tanlin, name, counting)
        code, data = run_json(capsys, "--verify", "tangent",
                              "x^3, y^3, z^3, y*z^2, x^2*z, x*y^2")
        assert (code, data["result"]["total"]) == (0, 48)
        assert calls == {"hom_dim_weight": 0, "mono_hom_dims": 1}

    def test_verify_border_route_disagreement_is_invariant_error(self, capsys, monkeypatch):
        monkeypatch.setattr(tanlin, "hom_dim", lambda I: -1)
        code, data = run_json(capsys, "--verify", "tangent",
                              "x^2 - y*z, x*z, x*y, y^2, z^2")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"
        assert data["error"]["message"] == "Groebner-basis route 15 vs border-basis route -1"


class TestChainAndTriple:
    def test_triple_absent(self, capsys):
        code, data = run_json(capsys, "triple", "x,y,z")
        assert code == 0
        assert data["result"]["triple"] is None

    def test_chain_on_singular_input_fails(self, capsys):
        code, data = run_json(capsys, "chain", "x^2,x*y,x*z,y^2,y*z,z^3")
        assert code == 1
        assert data["error"]["type"] == "HasTripleError"


class TestLink:
    def test_tripod_link(self, capsys):
        code, data = run_json(
            capsys, "link", "x^3,y^5,z^4,x*y,x*z,y*z",
            "--alpha", "x*y, x*z + y*z, x^3 + y^5 + z^4")
        assert code == 0
        res = data["result"]
        assert res["colengths"] == {"source": 10, "alpha": 16, "target": 6}

    def test_not_contained_is_validation_failure(self, capsys):
        code, data = run_json(capsys, "link", "x^2,y,z", "--alpha", "x,y,z")
        assert code == 1
        assert data["error"]["type"] == "NotContainedError"

    def test_zero_alpha_is_not_regular(self, capsys, tmp_path):
        # --alpha keeps a zero entry, as a verify-chain step does
        code, data = run_json(capsys, "link", "x,y,z", "--alpha", "0, y, z")
        assert (code, data["error"]["type"]) == (1, "NotRegularError")
        f = tmp_path / "chain.json"
        f.write_text(json.dumps([{"ideal": "x,y,z", "alpha": ["0", "y", "z"]}]))
        code, data = run_json(capsys, "verify-chain", str(f))
        assert (code, data["error"]["type"]) == (1, "NotRegularError")


class TestParityAnnBicanonical:
    def test_parity_obstructed(self, capsys):
        code, data = run_json(
            capsys, "parity",
            "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z")
        assert code == 0
        assert data["result"]["obstructed"] is True

    def test_ann(self, capsys):
        code, data = run_json(capsys, "ann", "X^2 + Y*Z")
        assert code == 0
        assert data["result"]["colength"] == 5

    def test_ann_hilbert_function(self, capsys):
        code, data = run_json(capsys, "ann", "X^3 - Y^3, X*Y^2 + X*Z^2")
        assert code == 0
        assert data["result"]["hilbert_function"] == [1, 3, 5, 2]

    def test_bicanonical(self, capsys):
        code, data = run_json(capsys, "bicanonical", "x^2, x*y^2, y^5, z")
        assert code == 0
        res = data["result"]
        assert (res["hom_full_dim"], res["homsym_dim"]) == (9, 7)

    def test_bicanonical_degree_mismatch_exits_1(self, capsys, monkeypatch):
        # --verify ranks the relations of every standard monomial (6 of
        # them here) against those of the 3 variables; shift the former
        rank = duality._intertwiner_rank
        monkeypatch.setattr(duality, "_intertwiner_rank",
                            lambda mats, unknown, p: rank(mats, unknown, p) + (len(mats) > 3))
        code, data = run_json(capsys, "--verify", "bicanonical", "x^2, x*y^2, y^5, z")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"
        assert data["error"]["message"] == "algebra generators missed Sym^2 relations"


class TestFilesAndErrors:
    def test_verify_chain_file(self, capsys, tmp_path):
        chain = [{"ideal": "x^2, x*y, y^2, x*z, y*z^2, z^4",
                  "alpha": ["x*z", "y^2", "z^4 + x^2"]}]
        f = tmp_path / "chain.json"
        f.write_text(json.dumps(chain))
        code, data = run_json(capsys, "verify-chain", str(f))
        assert code == 0
        assert data["result"]["excess"] == 6

    def test_pfaffian_ideal_file(self, capsys, tmp_path):
        f = tmp_path / "mats.json"
        f.write_text('{"matrices": [{"n": 3, "upper": ["z", "y", "x"]},'
                     ' {"n": 3, "upper": ["z", "y", "x"]}]}')
        code, data = run_json(capsys, "pfaffian-ideal", str(f))
        assert code == 0
        res = data["result"]
        assert res["total_colength"] == 2
        assert res["colength_additive"] and res["layers_gorenstein"]

    @pytest.mark.parametrize("argv, builds", [
        (["--verify", "tangent", "x^2 - y*z, x*z, x*y, y^2, z^2"], 1),
        (["ann", "X^2 + Y*Z"], 1),
        (["--verify", "bicanonical", "x^2+y*z, x*y^2, y^5, z-x"], 1),
        (["pfaffian-ideal", "{data}/mats.json"], 3),  # two layers and their sum
    ], ids=["tangent-verify", "ann", "bicanonical-verify", "pfaffian-ideal"])
    def test_one_quotient_per_ideal(self, capsys, quotient_builds, argv, builds):
        # link and verify-chain: tests/test_linkage.py::TestOneQuotientPerIdeal
        code, _ = run_json(capsys, *(a.replace("{data}", DATA) for a in argv))
        assert code == 0
        assert len(quotient_builds) == builds

    @pytest.mark.parametrize("argv", [
        ["ann", "X^2 + Y*Z"],
        ["link", "x^3,y^5,z^4,x*y,x*z,y*z", "--alpha", "x*y, x*z + y*z, x^3 + y^5 + z^4"],
        ["verify-chain", "{data}/chain.json"],
    ], ids=["ann", "link", "verify-chain"])
    def test_verify_compares_with_buchberger(self, capsys, monkeypatch, argv):
        # only the --verify oracle hands Buchberger more than three
        # generators here (the sources are monomial, each alpha has three),
        # so a Buchberger that adds 1 to those bases fails --verify alone
        original = poly3.buchberger
        monkeypatch.setattr(poly3, "buchberger", lambda gens, track=False: original(gens) + (
            [poly3.PolyRing(gfp.DEFAULT_PRIME).one()] if len(gens) > 3 else []))
        argv = [a.replace("{data}", DATA) for a in argv]
        assert run_json(capsys, *argv)[0] == 0
        code, data = run_json(capsys, "--verify", *argv)
        assert code == 1
        assert data["error"]["type"] == "InvariantError"

    def test_missing_file_is_failure(self, capsys):
        code, data = run_json(capsys, "verify-chain", "/nonexistent.json")
        assert code == 1

    def test_bad_ideal_is_input_error(self, capsys):
        code, data = run_json(capsys, "classify", "x^2, nope")
        assert code == 2
        assert "error" in data

    @pytest.mark.parametrize("argv, matrix, code", [
        (["pfaffian-ideal"], {"n": 1, "upper": []}, 2),
        (["pfaffian-ideal"], {"n": True, "upper": []}, 2),
        (["pfaffian-ideal"], {"n": "x", "upper": ["z", "y", "x"]}, 2),
        (["pfaffian-ideal"], {"n": 3.5, "upper": ["z", "y", "x"]}, 2),
        (["pfaffian-ideal"], {"n": 3, "upper": "xyz"}, 2),
        (["tangent", "[[1,0,0],[0,1,0],[0,0,-1]]"], None, 2),
        (["tangent", "[[0,0,0]]"], None, 1),
        (["tangent", "[[true,0,0],[0,true,0],[0,0,1]]"], None, 2),
        (["tangent", "x*, y, z"], None, 2),
        (["classify", "*x, y, z"], None, 2),
        (["triple", "x**y, y, z, x^2"], None, 2),
        (["tangent", "1, x"], None, 1),
    ], ids=["size-one", "bool-size", "string-size", "float-size", "string-upper",
            "negative-exponent", "unit-exponent", "bool-exponent", "trailing-star",
            "leading-star", "double-star", "unit-text"])
    def test_malformed_input_is_a_json_error(self, capsys, tmp_path, argv, matrix, code):
        # no traceback: exit 2 for bad input, 1 for the unit ideal
        if matrix is not None:
            f = tmp_path / "mats.json"
            f.write_text(json.dumps({"matrices": [matrix]}))
            argv = argv + [str(f)]
        got, data = run_json(capsys, *argv)
        assert got == code
        assert set(data["error"]) == {"type", "message"}
        assert "result" not in data

    @pytest.mark.parametrize("argv, builds", [
        (["tangent", "x + 1, x"], 1),
        (["tangent", "x - 1, y, z, x"], 1),
        (["--verify", "tangent", "x + 1, x"], 1),
        (["parity", "1, x"], 1),
        (["bicanonical", "x + 1, x"], 1),
        (["link", "x + 1, x", "--alpha", "x, y, z"], 2),  # alpha, then the source
        (["verify-chain", "{data}/chain_unit_source.json"], 2),
    ])
    def test_unit_ideal_is_not_a_point(self, capsys, quotient_builds, argv, builds):
        # the colength each command computes anyway rejects (1), with no extra basis
        code, data = run_json(capsys, *(a.replace("{data}", DATA) for a in argv))
        assert code == 1
        assert data["error"]["type"] == "UnitIdealError"
        assert len(quotient_builds) == builds

    def test_unit_link_target_is_valid(self, capsys):
        code, data = run_json(capsys, "link", "x, y, z", "--alpha", "x, y, z")
        assert code == 0
        assert data["result"]["target"] == ["1"]
        assert data["result"]["colengths"] == {"source": 1, "alpha": 1, "target": 0}

    def test_each_prime_is_tested_once(self, capsys, monkeypatch):
        calls = []
        original = gfp.is_prime
        monkeypatch.setattr(gfp, "is_prime", lambda n: calls.append(n) or original(n))
        cli._ring.cache_clear()
        for _ in range(2):
            code, _ = run_json(capsys, "--second-prime", "2147483629", "tangent", "x, y, z")
            assert code == 0
        assert sorted(calls) == [2147483629, 2147483647]

    def test_unknown_subcommand_exits_2(self, capsys):
        code = cli.main(["frobnicate"])
        assert code == 2

    def test_composite_prime_rejected(self, capsys):
        code, data = run_json(capsys, "--prime", "91", "series", "1")
        assert code == 2

    def test_prime_above_int64_range_rejected(self, capsys):
        # 4294967311 is prime, but products mod p overflow int64 above 2^31
        code, data = run_json(capsys, "--prime", "4294967311", "bicanonical",
                              "x^2+y*z, x*y^2, y^5, z-x")
        assert code == 2
        assert data["error"]["type"] == "InputError"
        assert "result" not in data

    def test_second_prime_above_int64_range_rejected(self, capsys):
        code, data = run_json(capsys, "--second-prime", "4294967311", "bicanonical",
                              "x^2+y*z, x*y^2, y^5, z-x")
        assert code == 2
        assert data["error"]["type"] == "InputError"
        assert "result" not in data

    def test_composite_second_prime_rejected_for_combinatorial(self, capsys):
        code, data = run_json(capsys, "--second-prime", "91", "series", "3")
        assert code == 2
        assert data["error"] == {"type": "InputError", "message": "91 is not an odd prime"}
        assert data["second_prime"] == 91
        assert "result" not in data

    @pytest.mark.parametrize("argv", [["tangent", "x^2 + y, y^2, z"], ["series", "3"],
                                      ["census", "3"]])
    def test_second_prime_equal_to_prime_rejected(self, capsys, argv):
        # a rerun over the same field would certify nothing
        code, data = run_json(capsys, "--prime", "2147483629",
                              "--second-prime", "2147483629", *argv)
        assert code == 2
        assert data["error"] == {"type": "InputError",
                                 "message": "--second-prime 2147483629 equals --prime; "
                                            "a rerun over the same field checks nothing"}
        assert "result" not in data and "second_prime_checked" not in data

    def test_second_prime_above_int64_range_rejected_for_census(self, capsys):
        code, data = run_json(capsys, "--second-prime", "4294967311", "census", "3")
        assert code == 2
        assert data["error"]["type"] == "InputError"
        assert "result" not in data


class TestDeterminismAndSecondPrime:
    def test_byte_identical_output(self, capsys):
        _, out1 = run(capsys, "classify", "x^2,x*y,x*z,y^2,y*z,z^3")
        _, out2 = run(capsys, "classify", "x^2,x*y,x*z,y^2,y*z,z^3")
        assert out1 == out2

    def test_second_prime_agreement(self, capsys):
        code, data = run_json(capsys, "--second-prime", "2147483629",
                              "parity", "x^2, x*y, x*z, y^2, y*z, z^2")
        assert code == 0
        assert data["second_prime_checked"] is True

    def test_second_prime_compares_fractions(self, capsys):
        # the target's coefficients 10/3, 1/5 and -5 print as different
        # residues over the two primes
        code, data = run_json(capsys, "--second-prime", "2147483629", "link",
                              "x^3,y^3,z^3,x*y*z", "--alpha",
                              "2*x^3 + 3*y^3, 3*y^3 - 2*z^3, z^3 + 5*x*y*z")
        assert code == 0
        assert data["second_prime_checked"] is True
        assert data["result"]["target"][:2] == ["y^2 - 715827879*x*z", "x*y + 858993459*z^2"]

    def test_second_prime_keeps_large_integer_coefficients(self, capsys):
        # 40000 > sqrt(p/2) has no small fraction, but prints alike at both primes
        code, data = run_json(capsys, "--second-prime", "2147483629",
                              "ann", "X^2 + 40000*Y^2 + Z^2")
        assert code == 0
        assert data["second_prime_checked"] is True
        assert "y^2 - 40000*z^2" in data["result"]["generators"]

    def test_same_answer_per_coefficient(self):
        r, r2 = cli._ring(gfp.DEFAULT_PRIME), cli._ring(gfp.SECOND_PRIME)

        def third(p, k=1):  # k/3 as a printed residue mod p
            return k * gfp.inv_mod(3, p) % p

        # a large integer and a fraction in one polynomial
        mixed = "x - 40000*y + {}*z"
        assert cli._same_answer([mixed.format(third(r.p))], [mixed.format(third(r2.p))], r, r2)
        assert not cli._same_answer(mixed.format(third(r.p)),
                                    mixed.format(third(r2.p, 2)), r, r2)
        assert not cli._same_answer("x + y", "x + z", r, r2)
        assert not cli._same_answer("syzygy", "monomial", r, r2)
        assert not cli._same_answer({"total": 3}, {"total": 4}, r, r2)
        with pytest.raises(PrimeDisagreementError, match="40000 mod 2147483647 is no"):
            cli._same_answer("40000*x", "40001*x", r, r2)

    def test_second_prime_disagreement_at_one_prime(self, capsys, monkeypatch):
        # -5 becomes -6 over the second prime only
        original = cli._gb_strings
        monkeypatch.setattr(cli, "_gb_strings", lambda I: [
            s.replace("- 5*y*z", "- 6*y*z") if I.ring.p == gfp.SECOND_PRIME else s
            for s in original(I)])
        code, data = run_json(capsys, "--second-prime", "2147483629", "link",
                              "x^3,y^3,z^3,x*y*z", "--alpha",
                              "2*x^3 + 3*y^3, 3*y^3 - 2*z^3, z^3 + 5*x*y*z")
        assert code == 1
        assert data["error"] == {"type": "PrimeDisagreementError",
                                 "message": "results differ between p=2147483647 "
                                            "and p=2147483629"}

    def test_second_prime_skipped_for_combinatorial(self, capsys):
        code, data = run_json(capsys, "--second-prime", "2147483629",
                              "series", "3")
        assert code == 0
        assert data["second_prime_checked"] is False

    # one run per subcommand; --second-prime reruns exactly these seven
    FIELD_DEPENDENT = {"tangent", "link", "verify-chain", "parity", "ann",
                       "bicanonical", "pfaffian-ideal"}
    ARGV = {
        "tangent": ["x^2, x*y, y^2, z"],
        "classify": ["x^2, x*y, y^2, z"],
        "triple": ["x^2, x*y, y^2, z"],
        "chain": ["x^2, x*y, y^2, z"],
        "census": ["3"],
        "series": ["3"],
        "link": ["x^2, x*y, y^2, z", "--alpha", "x^2, y^2, z"],
        "verify-chain": [os.path.join(DATA, "chain.json")],
        "parity": ["x^2, x*y, x*z, y^2, y*z, z^2"],
        "ann": ["X^2 + Y*Z"],
        "bicanonical": ["x^2, x*y^2, y^5, z"],
        "pfaffian-ideal": [os.path.join(DATA, "mats.json")],
    }

    def test_every_subcommand_has_a_run(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(self.ARGV)

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_second_prime_checked_per_subcommand(self, capsys, command):
        code, data = run_json(capsys, "--second-prime", "2147483629", command,
                              *self.ARGV[command])
        assert code == 0
        assert data["second_prime_checked"] is (command in self.FIELD_DEPENDENT)

    # --verify has a check on exactly these seven; the other five refuse it
    VERIFIES = {"tangent", "classify", "census", "link", "verify-chain", "ann",
                "bicanonical"}

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_verify_refused_where_nothing_reads_it(self, capsys, command):
        code, data = run_json(capsys, "--verify", command, *self.ARGV[command])
        if command in self.VERIFIES:
            assert code == 0 and "result" in data
        else:
            assert code == 2
            assert data["error"] == {"type": "InputError",
                                     "message": f"{command} has no --verify check"}

    def test_note_always_present(self, capsys):
        for fmt in ("json", "text", "csv"):
            code, out = run(capsys, "--format", fmt, "series", "2")
            assert code == 0
            if fmt == "json":
                assert "two large primes" in json.loads(out)["note"]


class TestStartup:
    def test_numpy_loads_only_for_linear_algebra(self):
        # the monomial subcommands are combinatorial, so a fresh process
        # running them never imports numpy; a polynomial tangent does
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = textwrap.dedent("""
            import contextlib, io, json, sys
            from hilb3 import cli

            def main(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(list(argv))

            codes = [main("--verify", "census", "6"),
                     main("--verify", "classify", "x^2, x*y, x*z, y^2, z^2"),
                     main("triple", "x^2, x*y, x*z, y^2, y*z, z^3"),
                     main("chain", "x^2, x*y, x*z, y^2, z^2"),
                     main("series", "9"),
                     main("--verify", "tangent", "x^3, x*y, y^2, z"),
                     main("--verify", "tangent", "[[2,0,0],[1,1,0],[0,2,0],[0,0,1]]"),
                     main("--second-prime", "2147483629", "tangent", "x^2, y^2, z^2")]
            before = "numpy" in sys.modules
            codes.append(main("tangent", "x^2 + y, y^2, z"))
            print(json.dumps([codes, before, "numpy" in sys.modules]))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [[0] * 9, False, True]


class TestTextFormat:
    @staticmethod
    def text(result):
        return cli.render("chain", {"prime": 2, "result": result}, "text").split("\n", 2)[2]

    def test_nesting_is_visible(self):
        # two payloads that differ only in where the inner lists break
        left, right = {"q": [["a", "b"], ["c"]]}, {"q": [["a"], ["b", "c"]]}
        assert self.text(left) == "q:\n  -\n    - a\n    - b\n  -\n    - c\n"
        assert self.text(right) == "q:\n  -\n    - a\n  -\n    - b\n    - c\n"
        assert self.text({"q": [{"k": 1}, {"k": 2}]}) == "q:\n  -\n    k: 1\n  -\n    k: 2\n"

    def test_empty_containers(self):
        assert self.text({"w": [], "v": [[], [1]]}) == "v:\n  - []\n  -\n    - 1\nw: []\n"

    def test_one_marker_per_quotient(self, capsys):
        code, out = run(capsys, "--format", "text", "chain", "x^2,y^2,z^2,x*y*z")
        assert code == 0
        quotients = out.split("quotients:\n")[1].splitlines()
        assert quotients.count("  -") == 3
        assert len(quotients) == 3 + 9


class TestCsvFormat:
    # quoting and the empty list of classify "x,y,z" are pinned in the
    # golden corpus (chain-singular-csv, classify-point-csv)
    @staticmethod
    def csv_rows(result):
        return list(csv.reader(cli.render("chain", {"prime": 2, "result": result},
                                          "csv").splitlines()))

    def test_quotes_empty_containers_and_none(self):
        assert self.csv_rows({"w": [], "v": [{}, [1]], "n": None, "m": '("a", b)'}) == [
            ["key", "value"], ["m", '("a", b)'], ["n", "None"], ["v.0", "{}"], ["v.1.0", "1"],
            ["w", "[]"]]
