import json

import pytest

from hilb3 import cli, duality, mono3, tanlin


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

    def test_workers_flag(self, capsys):
        code, data = run_json(capsys, "--workers", "2", "census", "5")
        assert code == 0
        assert data["result"]["rows"][-1] == [5, 24, 21]

    @pytest.mark.parametrize("workers", ["0", "100000"])
    def test_workers_out_of_range_is_input_error(self, capsys, workers):
        # census 3 is below the pool threshold, so no process starts either way
        code, data = run_json(capsys, "--workers", workers, "census", "3")
        assert code == 2
        assert data["error"]["type"] == "InputError"
        assert "result" not in data


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
        monkeypatch.setattr(tanlin, "mono_hom_dim", lambda ideal: -1)
        code, data = run_json(capsys, "--verify", "tangent", "x,y,z")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"

    def test_verify_generator_route_disagreement_is_invariant_error(self, capsys,
                                                                    monkeypatch):
        monkeypatch.setattr(tanlin, "hom_dim", lambda I, use_given_generators=False: -1)
        code, data = run_json(capsys, "--verify", "tangent",
                              "x^2 - y*z, x*z, x*y, y^2, z^2")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"


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
        rank = duality._sym2_relation_rank
        monkeypatch.setattr(duality, "_sym2_relation_rank",
                            lambda mats, d, p: rank(mats, d, p) + 1)
        code, data = run_json(capsys, "bicanonical", "x^2, x*y^2, y^5, z")
        assert code == 1
        assert data["error"]["type"] == "InvariantError"


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

    def test_missing_file_is_failure(self, capsys):
        code, data = run_json(capsys, "verify-chain", "/nonexistent.json")
        assert code == 1

    def test_bad_ideal_is_input_error(self, capsys):
        code, data = run_json(capsys, "classify", "x^2, nope")
        assert code == 2
        assert "error" in data

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

    def test_second_prime_skipped_for_combinatorial(self, capsys):
        code, data = run_json(capsys, "--second-prime", "2147483629",
                              "series", "3")
        assert code == 0
        assert data["second_prime_checked"] is False

    def test_note_always_present(self, capsys):
        for fmt in ("json", "text", "csv"):
            code, out = run(capsys, "--format", fmt, "series", "2")
            assert code == 0
            if fmt == "json":
                assert "two large primes" in json.loads(out)["note"]
