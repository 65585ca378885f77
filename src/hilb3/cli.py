"""Command-line front end with deterministic JSON/CSV/text output.

Every subcommand prints a single report. JSON output carries a top-level
"schema": 1 field, serializes exponent vectors as 3-element arrays, and
is byte-identical across runs for identical inputs.  All arithmetic runs
over F_p (default p = 2^31 - 1); characteristic-zero claims are only
certified numerically, so --second-prime reruns field-dependent
computations over a second prime and fails loudly on any disagreement.

Exit codes: 0 success, 1 validation failure (e.g. a broken chain),
2 input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import (apolarity, duality, gfp, linkage, mono3, pfaffian, poly3,
               smoothcls, tancomb, tanlin)
from .errors import (Hilb3Error, InputError, InvariantError,
                     PrimeDisagreementError)

CHAR_NOTE = ("exact arithmetic over F_p; characteristic-zero statements are "
             "certified only by agreement across two large primes "
             "(rerun with --second-prime)")

#: subcommands whose numbers depend on the field (rerun under --second-prime)
FIELD_DEPENDENT = {"tangent", "link", "verify-chain", "parity", "ann",
                   "bicanonical", "pfaffian-ideal"}


def _parse_mono(text: str):
    """Monomial-ideal input: the text grammar or the JSON exponent form."""
    if text.lstrip().startswith("["):
        return mono3.parse_exponent_json(text)
    return mono3.parse_monomial_ideal(text)


def _mono_or_none(text: str):
    """The monomial ideal described by the text, if every generator is a
    monomial (comma list with ^ and implicit *, or exponent JSON), else None."""
    try:
        return _parse_mono(text)
    except Hilb3Error:
        return None


def _ev_str(v) -> list[int]:
    return [int(c) for c in v]


def _gb_strings(I: poly3.PolyIdeal) -> list[str]:
    return [poly3.poly_str(g) for g in poly3.groebner(I)]


def _chain_payload(chain: smoothcls.BGChainCert) -> dict:
    return {
        "multipliers": [mono3.monomial_str(f) for f in chain.multipliers],
        "colengths": list(chain.colengths),
        "quotients": [[mono3.monomial_str(g) for g in q.mingens]
                      for q in chain.quotients],
    }


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload dict, exit code)
# ---------------------------------------------------------------------------

def _cmd_tangent(args, ring) -> tuple[dict, int]:
    ideal_m = _mono_or_none(args.ideal)
    if ideal_m is not None:
        rep = tancomb.tangent_report(ideal_m)
        if args.verify:
            total = tanlin.mono_hom_dim(ideal_m)
            if total != rep.total:
                raise InvariantError(
                    f"combinatorial {rep.total} vs linear-algebra {total}")
        return {
            "route": "monomial",
            "colength": rep.colength,
            "total": rep.total,
            "excess": rep.excess,
            "by_signature": dict(sorted(rep.by_signature.items())),
            "doubly_negative_weights": [
                {"weight": _ev_str(a), "dim": n}
                for a, n in rep.doubly_negative_weights],
        }, 0
    I = poly3.parse_ideal(args.ideal, ring)
    d, t, excess = tanlin.tangent_excess(I)
    if args.verify:
        alt = tanlin.hom_dim(I, use_given_generators=True)
        if alt != t:
            raise InvariantError(
                f"Groebner-basis route {t} vs given-generators route {alt}")
    return {"route": "syzygy", "colength": d, "total": t, "excess": excess}, 0


def _cmd_classify(args, ring) -> tuple[dict, int]:
    ideal_m = _parse_mono(args.ideal)
    res = smoothcls.classify(ideal_m)
    if res.verdict == "singular":
        return {"verdict": "singular",
                "triple": list(res.triple.monomials()),
                "excess_lower_bound": res.excess_lower_bound}, 0
    return {"verdict": "smooth", "chain": _chain_payload(res.chain)}, 0


def _cmd_triple(args, ring) -> tuple[dict, int]:
    ideal_m = _parse_mono(args.ideal)
    t = smoothcls.find_triple(ideal_m)
    if t is None:
        return {"triple": None}, 0
    return {"triple": list(t.monomials()),
            "triple_exponents": [_ev_str(t.a), _ev_str(t.b), _ev_str(t.c)]}, 0


def _cmd_chain(args, ring) -> tuple[dict, int]:
    ideal_m = _parse_mono(args.ideal)
    return _chain_payload(smoothcls.noflip_chain(ideal_m)), 0


def _cmd_census(args, ring) -> tuple[dict, int]:
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise InputError(f"--workers must be between 1 and {cpus}, got {args.workers}")
    rows = smoothcls.smooth_census(args.dmax, workers=args.workers)
    if args.verify:
        coeffs = mono3.macmahon_series(args.dmax)
        for d, total, _ in rows:
            if total != coeffs[d]:
                raise InvariantError(
                    f"enumeration count {total} != series coefficient {coeffs[d]} at d={d}")
    return {"rows": [list(r) for r in rows]}, 0


def _cmd_series(args, ring) -> tuple[dict, int]:
    return {"coefficients": mono3.macmahon_series(args.n)}, 0


def _cmd_link(args, ring) -> tuple[dict, int]:
    I = poly3.parse_ideal(args.ideal, ring)
    alpha_polys = poly3.parse_ideal(args.alpha, ring).gens
    if len(alpha_polys) != 3:
        raise InputError("--alpha must list exactly three polynomials")
    step = linkage.link(I, linkage.regular_sequence(alpha_polys))
    return {
        "colengths": {"source": step.colengths[0], "alpha": step.colengths[1],
                      "target": step.colengths[2]},
        "target": _gb_strings(step.target),
    }, 0


def _cmd_verify_chain(args, ring) -> tuple[dict, int]:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    chain = linkage.parse_chain_json(text, ring)
    report = linkage.verify_link_chain(chain)
    return {
        "steps": [{
            "colengths": list(s.colengths),
            "target": _gb_strings(s.target),
            "excess": list(e),
        } for s, e in zip(report.steps, report.excesses)],
        "excess": report.excess,
        "canonical_degrees": report.canonical_degrees,
    }, 0


def _cmd_parity(args, ring) -> tuple[dict, int]:
    I = poly3.parse_ideal(args.ideal, ring)
    rep = linkage.parity_report(I)
    return {"colength": rep.colength, "tangent_dim": rep.tangent_dim,
            "obstructed": rep.obstructed, "verdict": rep.verdict}, 0


def _cmd_ann(args, ring) -> tuple[dict, int]:
    parts = [s for s in args.dual_polys.split(",") if s.strip()]
    if not parts:
        raise InputError("no dual polynomials given")
    fs = [apolarity.parse_dual(s, ring.p) for s in parts]
    ann = apolarity.annihilator(fs, ring)
    qd = poly3.quotient_data(ann)
    return {
        "generators": _gb_strings(ann),
        "colength": qd.colength,
        "hilbert_function": list(poly3.quotient_hilbert_function(qd)),
    }, 0


def _cmd_bicanonical(args, ring) -> tuple[dict, int]:
    I = poly3.parse_ideal(args.ideal, ring)
    rep = duality.bicanonical_degree(I, verify=args.verify)
    return {"colength": rep.colength,
            "sym2_omega_deg": rep.sym2_omega_deg,
            "homsym_dim": rep.homsym_dim,
            "hom_full_dim": rep.hom_full_dim,
            "gorenstein_type": duality.gorenstein_type(I)}, 0


def _cmd_pfaffian_ideal(args, ring) -> tuple[dict, int]:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    mats = pfaffian.parse_skew_json(text, ring)
    rep = pfaffian.broken_ideal(mats)
    payload = {
        "generators": _gb_strings(rep.ideal),
        "layer_colengths": list(rep.layer_colengths),
        "layer_types": list(rep.layer_types),
        "total_colength": rep.total_colength,
        "colength_additive": rep.colength_additive,
        "layers_gorenstein": rep.layers_gorenstein,
    }
    ok = rep.colength_additive and rep.layers_gorenstein
    return payload, 0 if ok else 1


HANDLERS = {
    "tangent": _cmd_tangent,
    "classify": _cmd_classify,
    "triple": _cmd_triple,
    "chain": _cmd_chain,
    "census": _cmd_census,
    "series": _cmd_series,
    "link": _cmd_link,
    "verify-chain": _cmd_verify_chain,
    "parity": _cmd_parity,
    "ann": _cmd_ann,
    "bicanonical": _cmd_bicanonical,
    "pfaffian-ideal": _cmd_pfaffian_ideal,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_text(payload, indent=0) -> list[str]:
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{payload}")
    return lines


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            rows.extend(_flatten(payload[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def render(command: str, envelope: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
    payload = envelope.get("result", envelope)
    if fmt == "csv":
        if command == "census" and "rows" in payload:
            return smoothcls.census_csv([tuple(r) for r in payload["rows"]])
        lines = ["key,value"]
        lines += [f"{k},{v}" for k, v in _flatten(payload)]
        return "\n".join(lines) + "\n"
    # text
    lines = [f"# {command} (p = {envelope['prime']})", f"# {CHAR_NOTE}"]
    lines += _render_text(payload)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 without argparse's traceback noise
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--prime", type=int, default=d(gfp.DEFAULT_PRIME),
                        help="prime field characteristic (default 2^31 - 1)")
    parser.add_argument("--second-prime", type=int, default=d(None),
                        help="rerun field-dependent computations over this "
                             "prime and fail on disagreement")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default=d("json"), help="output format")
    parser.add_argument("--workers", type=int, default=d(1),
                        help="worker processes for census (1 to the CPU count)")
    parser.add_argument("--verify", action="store_true",
                        default=d(False),
                        help="enable expensive brute-force cross-checks")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hilb3",
        description="Smoothness diagnostics for monomial and finite points "
                    "of the Hilbert scheme of points on affine 3-space.")
    _add_common_flags(parser, suppress=False)
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # flag given before the subcommand from being reset to its default
    common = _ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *positional):
        p = sub.add_parser(name, help=help_text, parents=[common])
        for arg, kw in positional:
            p.add_argument(arg, **kw)
        return p

    add("tangent", "tangent space dimension",
        ("ideal", {"help": "comma-separated generators"}))
    add("classify", "smooth/singular verdict for a monomial ideal",
        ("ideal", {"help": "comma-separated monomials"}))
    add("triple", "find a singularizing triple",
        ("ideal", {"help": "comma-separated monomials"}))
    add("chain", "no-flip chain certificate for a monomial ideal",
        ("ideal", {"help": "comma-separated monomials"}))
    add("census", "smooth monomial point counts", ("dmax", {"type": int}))
    add("series", "plane partition counting series", ("n", {"type": int}))
    p_link = add("link", "link an ideal by a regular sequence", ("ideal", {}))
    p_link.add_argument("--alpha", required=True,
                        help="three comma-separated polynomials")
    add("verify-chain", "validate a JSON chain of links", ("file", {}))
    add("parity", "homogeneous-linkage parity obstruction", ("ideal", {}))
    add("ann", "annihilator of dual polynomials (X, Y, Z)", ("dual_polys", {}))
    add("bicanonical", "bicanonical degree and Hom dimensions", ("ideal", {}))
    add("pfaffian-ideal", "layered Pfaffian ideal from JSON", ("file", {}))
    return parser


_parser = None  # built by the first main() call, then reused


def _ring(prime: int) -> poly3.PolyRing:
    """F_p for an odd prime p below 2^31; anything else is an input error."""
    if not gfp.is_prime(prime) or prime <= 2:
        raise InputError(f"{prime} is not an odd prime")
    return poly3.PolyRing(prime)


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    envelope = {"schema": 1, "command": args.command, "prime": args.prime,
                "note": CHAR_NOTE}
    try:
        ring = _ring(args.prime)
        if args.second_prime is not None:
            envelope["second_prime"] = args.second_prime
            ring2 = _ring(args.second_prime)
        payload, status = HANDLERS[args.command](args, ring)
        if args.second_prime is not None:
            checked = args.command in FIELD_DEPENDENT
            if checked and HANDLERS[args.command](args, ring2)[0] != payload:
                raise PrimeDisagreementError(
                    f"results differ between p={args.prime} and "
                    f"p={args.second_prime}")
            envelope["second_prime_checked"] = checked
        envelope["result"] = payload
    except InputError as exc:
        envelope["error"] = {"type": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(render(args.command, envelope, args.format))
        return 2
    except (Hilb3Error, OSError) as exc:
        envelope["error"] = {"type": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(render(args.command, envelope, args.format))
        return 1
    sys.stdout.write(render(args.command, envelope, args.format))
    return status


if __name__ == "__main__":
    sys.exit(main())
