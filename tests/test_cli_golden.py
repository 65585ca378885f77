"""Golden CLI corpus: byte-identical stdout and exit code for fixed inputs.

Every subcommand, both tangent routes with and without --verify,
--second-prime, the three output formats and the exit-1 and exit-2
paths.  The expected outputs live in data/cli_golden.json; rewrite them
only when an output is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import json
import os

import pytest

from helpers import GENERIC_ALPHA

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(DATA, "cli_golden.json")

MONO = "x^2,x*y,x*z,y^2,y*z,z^2"
SMALL = "x^2 - y*z, x*z, x*y, y^2, z^2"
BINOMIAL = "x^2, x*y^2, x*y*z, x*z^2, y^2*z^2, y*z^3, z^4, y^3 - x*z"
# non-monic, redundant and repeated generators of the ideal SMALL
MESSY = "2*x^2 - 2*y*z, 3*x*z, x*y, x*y + x*z, y^2, z^2, y^2, x^3"
SP = "--second-prime=2147483629"
# a large coefficient leaves the target's coefficients without one small
# fraction read alike at both primes, so the primes disagree
LARGE_ALPHA = "100003*" + GENERIC_ALPHA


def maximal_ideal_power(k):
    """The ideal m^k, written as its degree-k monomials."""
    return ", ".join(f"x^{a}*y^{b}*z^{k - a - b}"
                     for a in range(k, -1, -1) for b in range(k - a, -1, -1))


CASES = {
    "tangent-mono": ["tangent", MONO],
    "tangent-mono-verify": ["--verify", "tangent", MONO],
    "tangent-mono-text": ["--format", "text", "tangent", "x^2,x*y,y^2,z"],
    "tangent-mono-csv": ["--format", "csv", "tangent", "x^3,x*y,y^2,x*z,y*z,z^2"],
    "tangent-mono-json-exponents": ["tangent", "[[2,0,0],[1,1,0],[0,2,0],[0,0,1]]"],
    "tangent-syzygy": ["tangent", SMALL],
    "tangent-syzygy-verify": ["--verify", "tangent", SMALL],
    "tangent-syzygy-messy-verify": ["--verify", "tangent", MESSY],
    "tangent-binomial-verify": ["--verify", "tangent", BINOMIAL],
    "tangent-syzygy-second-prime": [SP, "tangent", "x^2 + y*z, x*y^2, y^5, z - x"],
    "tangent-not-zero-dim": ["tangent", "x*y, x^2 + y"],
    "tangent-json-negative-exponent": ["tangent", "[[1,0,0],[0,1,0],[0,0,-1]]"],
    "tangent-json-unit": ["tangent", "[[0,0,0]]"],
    "tangent-unit-text": ["tangent", "1, x"],
    "tangent-unit-syzygy": ["tangent", "x + 1, x"],
    "tangent-malformed-monomial": ["tangent", "x*, y, z"],
    "classify-malformed-monomial": ["classify", "x**y, y, z, x^2"],
    "classify-singular": ["classify", "x^2,x*y,x*z,y^2,y*z,z^3"],
    "classify-smooth": ["classify", "x^2,x*y,x*z,y^2,z^2"],
    "classify-text": ["--format", "text", "classify", "x^3,x*y,y^2,z"],
    "classify-verify-smooth": ["--verify", "classify", "x^2,x*y,x*z,y^2,z^2"],
    "classify-verify-singular": ["--verify", "classify", "x^2,x*y,x*z,y^2,y*z,z^3"],
    "triple-found": ["triple", "x^2,x*y,x*z,y^2,y*z,z^3"],
    "triple-absent": ["triple", "x,y,z"],
    "chain-ok": ["chain", "x^2,x*y,y^2,x*z,z^3"],
    "chain-singular": ["chain", "x^2,x*y,x*z,y^2,y*z,z^3"],
    "chain-singular-deep": ["chain", "x^2, y^2, z^3, x*y*z, x*z^2, y*z^2"],
    "chain-singular-csv": ["--format", "csv", "chain", "x^2,x*y,x*z,y^2,y*z,z^3"],
    "classify-point-csv": ["--format", "csv", "classify", "x,y,z"],
    "census-json": ["census", "6"],
    "census-csv-verify": ["--format", "csv", "--verify", "census", "7"],
    "census-text": ["--format", "text", "census", "4"],
    "census-negative": ["census", "-1"],
    "census-negative-verify": ["--verify", "census", "-1"],
    "series": ["series", "10"],
    "series-second-prime": [SP, "series", "3"],
    "series-verify-refused": ["series", "3", "--verify"],
    "link-tripod": ["link", "x^3,y^5,z^4,x*y,x*z,y*z",
                    "--alpha", "x*y, x*z + y*z, x^3 + y^5 + z^4"],
    "link-verify": ["--verify", "link", "x^3,y^5,z^4,x*y,x*z,y*z",
                    "--alpha", "x*y, x*z + y*z, x^3 + y^5 + z^4"],
    "link-second-prime": [SP, "link", "x^2, x*y, y^2, x*z, y*z^2, z^4",
                          "--alpha", "x*z, y^2, z^4 + x^2"],
    "link-generic-second-prime": [SP, "link", "x^2, x*y, y^2, z", "--alpha", GENERIC_ALPHA],
    "link-no-rational-reconstruction": [SP, "link", "x^2, x*y, y^2, z", "--alpha", LARGE_ALPHA],
    "link-not-contained": ["link", "x^2,y,z", "--alpha", "x,y,z"],
    "link-two-alphas": ["link", "x^2,y,z", "--alpha", "x^2, y"],
    "link-zero-alpha": ["link", "x,y,z", "--alpha", "0, y, z"],
    "link-unit-source": ["link", "x + 1, x", "--alpha", "x, y, z"],
    "link-unit-target": ["link", "x, y, z", "--alpha", "x, y, z"],
    "verify-chain": ["verify-chain", "{data}/chain.json"],
    "verify-chain-text": ["--format", "text", "verify-chain", "{data}/chain.json"],
    "verify-chain-bad-json": ["verify-chain", "{data}/mats.json"],
    "verify-chain-missing": ["verify-chain", "/nonexistent.json"],
    "verify-chain-unit-source": ["verify-chain", "{data}/chain_unit_source.json"],
    "parity": ["parity", BINOMIAL],
    "parity-second-prime": [SP, "parity", "x^2, x*y, x*z, y^2, y*z, z^2"],
    "parity-unit": ["parity", "1, x"],
    "parity-verify-refused": ["--verify", "parity", BINOMIAL],
    "ann": ["ann", "X^2 + Y*Z"],
    "ann-verify": ["--verify", "ann", "X^2 + Y*Z"],
    "ann-csv": ["--format", "csv", "ann", "X^3 - Y^3, X*Y^2 + X*Z^2"],
    "ann-empty": ["ann", " , "],
    "bicanonical": ["bicanonical", "x^2, x*y^2, y^5, z"],
    "bicanonical-verify": ["--verify", "bicanonical", "x^2+y*z, x*y^2, y^5, z-x"],
    "bicanonical-m5": ["bicanonical", maximal_ideal_power(5)],
    "bicanonical-m4-verify": ["--verify", "bicanonical", maximal_ideal_power(4)],
    "bicanonical-second-prime": [SP, "bicanonical", "x^2+y*z, x*y^2, y^5, z-x"],
    "bicanonical-off-origin": ["bicanonical", "x-1, y, z"],
    "bicanonical-off-origin-second-prime": [SP, "bicanonical", "x^2-2*x+1, y, z"],
    "bicanonical-not-local": ["bicanonical", "x^2-x, y, z"],
    "bicanonical-unit": ["bicanonical", "x + 1, x"],
    "pfaffian-ideal": ["pfaffian-ideal", "{data}/mats.json"],
    "pfaffian-ideal-csv": ["--format", "csv", "pfaffian-ideal", "{data}/mats.json"],
    "pfaffian-ideal-off-origin": ["pfaffian-ideal", "{data}/mats_off_origin.json"],
    "pfaffian-ideal-not-local": ["pfaffian-ideal", "{data}/mats_not_local.json"],
    "pfaffian-ideal-size-one": ["pfaffian-ideal", "{data}/mats_size_one.json"],
    "pfaffian-ideal-string-size": ["pfaffian-ideal", "{data}/mats_string_size.json"],
    "bad-ideal": ["classify", "x^2, nope"],
    "bad-ideal-text": ["--format", "text", "tangent", "x^^2"],
    "parse-sign-after-star": ["tangent", "x*-y"],
    "parse-missing-star": ["tangent", "x2, y, z"],
    "parse-misplaced-caret": ["tangent", "2^3, y"],
    "parse-bad-character": ["tangent", "x, y, z  / 2"],
    "composite-prime": ["--prime", "91", "series", "1"],
    "even-prime": ["--prime", "2", "tangent", "x,y,z"],
    "composite-second-prime": ["--second-prime", "91", "parity", "x,y,z"],
    "second-prime-equals-prime": ["--second-prime", "2147483647", "tangent", "x^2 + y, y^2, z"],
    "small-prime": ["--prime", "101", "tangent", SMALL],
    "unknown-subcommand": ["frobnicate"],
    "missing-argument": ["link", "x,y,z"],
}


def _argv(case):
    return [a.replace("{data}", DATA) for a in CASES[case]]


def _run(case, capsys):
    from hilb3 import cli
    code = cli.main(_argv(case))
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_matches_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, golden, capsys):
    code, out = _run(case, capsys)
    assert (code, out) == (golden[case]["exit"], golden[case]["stdout"])


if __name__ == "__main__":
    import contextlib
    import io

    from hilb3 import cli

    out = {}
    for case in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(_argv(case))
        out[case] = {"exit": code, "stdout": buf.getvalue()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
