"""Command-line front end with deterministic JSON/CSV/text output.

Every subcommand prints a single report. JSON output carries a top-level
"schema": 1 field, serializes exponent vectors as 3-element arrays, and
is byte-identical across runs for identical inputs.  All arithmetic runs
over F_p (default p = 2^31 - 1); characteristic-zero claims are only
certified numerically, so --second-prime reruns field-dependent
computations over a second prime and fails loudly on any disagreement.
Printed coefficients are residues; a coefficient that prints differently
at the two primes is compared as the fraction it stands for (rational
reconstruction).

build_parser's add(...) calls are the one subcommand table: each names a
subcommand, its handler, whether --second-prime reruns it, whether --verify
has a check to run, its help and its positionals, and main dispatches on
what the chosen call set.  --verify on a subcommand without a check is an
input error.

Ideals are read with poly3's grammar.  Exponent JSON or a list of monic
monomials is a monomial ideal: tangent's monomial route and the only
input of classify, triple and chain; tangent takes any other ideal by
syzygies.

No module imports numpy at its top, so the combinatorial subcommands
(census, series, classify, triple, chain, monomial tangent) start without
it; the others load it on their first F_p matrix.

Exit codes: 0 success, 1 validation failure (e.g. a broken chain),
2 input error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import (apolarity, duality, gfp, linkage, mono3, pfaffian, poly3,
               smoothcls, tancomb, tanlin)
from .errors import (Hilb3Error, InputError, InvariantError,
                     PrimeDisagreementError, UnitIdealError)

CHAR_NOTE = ("exact arithmetic over F_p; characteristic-zero statements are "
             "certified only by agreement across two large primes "
             "(rerun with --second-prime)")


def _read_ideal(text: str, ring: poly3.PolyRing):
    """The ideal the text names.  Exponent JSON, or a list whose generators
    are all monic monomials, gives a MonomialIdeal3; any other list stays
    the PolyIdeal parsed over the ring."""
    if text.lstrip().startswith("["):
        return mono3.parse_exponent_json(text)
    I = poly3.parse_ideal(text, ring)
    if mono3.first_non_monomial(I.gens) is None:
        return mono3.from_monomials(I.gens)
    return I


def _read_monomial(text: str, ring: poly3.PolyRing) -> mono3.MonomialIdeal3:
    """A monomial ideal; from_monomials rejects any other, naming a generator."""
    ideal = _read_ideal(text, ring)
    return ideal if isinstance(ideal, mono3.MonomialIdeal3) else mono3.from_monomials(ideal.gens)


def _same_answer(a, b, ring: poly3.PolyRing, ring2: poly3.PolyRing) -> bool:
    """Whether payload a (over ring) and payload b (over ring2) agree.

    Equal payloads agree.  Otherwise two polynomial strings agree when they
    have the same terms and each coefficient either prints alike (balanced
    residues: an integer below p/2) or reads at both primes as the same
    fraction a/b with |a|, |b| <= sqrt(p/2); that fraction is the same at
    every prime where it exists.  A coefficient that prints differently and
    has no such fraction raises PrimeDisagreementError naming it.
    """
    if a == b:
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _same_answer(a[k], b[k], ring, ring2) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _same_answer(x, y, ring, ring2) for x, y in zip(a, b))
    if not (isinstance(a, str) and isinstance(b, str)):
        return False
    try:
        f, g = poly3.parse_poly(a, ring), poly3.parse_poly(b, ring2)
    except InputError:
        return False  # a route name or a verdict
    if f.terms.keys() != g.terms.keys():
        return False
    for e, c in f.terms.items():
        c2 = g.terms[e]
        if (c if c <= ring.p // 2 else c - ring.p) \
                == (c2 if c2 <= ring2.p // 2 else c2 - ring2.p):
            continue
        fractions = []
        for r, p in ((c, ring.p), (c2, ring2.p)):
            fractions.append(gfp.rational_reconstruction(r, p))
            if fractions[-1] is None:
                raise PrimeDisagreementError(
                    f"{r} mod {p} is no fraction a/b with |a|, |b| <= sqrt(p/2), "
                    "so the results cannot be compared across primes")
        if fractions[0] != fractions[1]:
            return False
    return True


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
    ideal = _read_ideal(args.ideal, ring)
    if isinstance(ideal, mono3.MonomialIdeal3):
        rep = tancomb.tangent_report(ideal)
        if args.verify:
            dims = tanlin.mono_hom_dims(ideal)
            if dims != rep.dims:
                a = min(a for a in dims.keys() | rep.dims.keys()
                        if dims.get(a) != rep.dims.get(a))
                raise InvariantError(f"at weight {a}: combinatorial {rep.dims.get(a, 0)}"
                                     f" vs linear-algebra {dims.get(a, 0)}")
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
    d, t, excess = tanlin.tangent_excess(ideal)
    if d == 0:
        raise UnitIdealError("the ideal is the whole ring")
    if args.verify:
        alt = tanlin.hom_dim(ideal)
        if alt != t:
            raise InvariantError(
                f"Groebner-basis route {t} vs border-basis route {alt}")
    return {"route": "syzygy", "colength": d, "total": t, "excess": excess}, 0


def _cmd_classify(args, ring) -> tuple[dict, int]:
    ideal_m = _read_monomial(args.ideal, ring)
    res = smoothcls.classify(ideal_m)
    if args.verify:
        # the graded route's excess: 0 exactly at the smooth points, at
        # least the printed bound at the singular ones, and always even
        excess = sum(tanlin.mono_hom_dims(ideal_m).values()) - 3 * ideal_m.colength
        if ((excess == 0) != (res.verdict == "smooth")
                or excess < res.excess_lower_bound or excess % 2):
            raise InvariantError(f"verdict {res.verdict} but the graded tangent "
                                 f"excess is {excess}")
    if res.verdict == "singular":
        return {"verdict": "singular",
                "triple": list(res.triple.monomials()),
                "excess_lower_bound": res.excess_lower_bound}, 0
    return {"verdict": "smooth", "chain": _chain_payload(res.chain)}, 0


def _cmd_triple(args, ring) -> tuple[dict, int]:
    ideal_m = _read_monomial(args.ideal, ring)
    t = smoothcls.find_triple(ideal_m)
    if t is None:
        return {"triple": None}, 0
    return {"triple": list(t.monomials()),
            "triple_exponents": [_ev_str(t.a), _ev_str(t.b), _ev_str(t.c)]}, 0


def _cmd_chain(args, ring) -> tuple[dict, int]:
    ideal_m = _read_monomial(args.ideal, ring)
    return _chain_payload(smoothcls.noflip_chain(ideal_m)), 0


def _cmd_census(args, ring) -> tuple[dict, int]:
    rows = smoothcls.smooth_census(args.dmax)
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
    # each entry is kept, a zero one too, as in a verify-chain file
    alpha_polys = [poly3.parse_poly(s, ring) for s in args.alpha.split(",") if s.strip()]
    if len(alpha_polys) != 3:
        raise InputError("--alpha must list exactly three polynomials")
    step = linkage.link(I, alpha_polys, verify=args.verify)
    return {
        "colengths": {"source": step.colengths[0], "alpha": step.colengths[1],
                      "target": step.colengths[2]},
        "target": _gb_strings(step.target),
    }, 0


def _cmd_verify_chain(args, ring) -> tuple[dict, int]:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    chain = linkage.parse_chain_json(text, ring)
    report = linkage.verify_link_chain(chain, verify=args.verify)
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
    ann = apolarity.annihilator(fs, ring, verify=args.verify)
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
            "gorenstein_type": rep.gorenstein_type}, 0


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


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_text(payload, indent=0) -> list[str]:
    """One line per scalar, led by its key or a `-` list marker; a nonempty
    list or dict gets its key or marker on a line of its own and its
    contents indented under it, and an empty one prints as [] or {}."""
    pad = "  " * indent
    if isinstance(payload, dict):
        items = [(f"{k}:", payload[k]) for k in sorted(payload)]
    elif isinstance(payload, list):
        items = [("-", v) for v in payload]
    else:
        return [f"{pad}{payload}"]
    lines = []
    for head, v in items:
        if isinstance(v, (dict, list)) and v:
            lines.append(f"{pad}{head}")
            lines.extend(_render_text(v, indent + 1))
        else:
            lines.append(f"{pad}{head} {v}")
    return lines


def _flatten(payload, prefix=""):
    """(dotted key, value) per scalar; an empty list or dict is a value."""
    if isinstance(payload, dict) and payload:
        return [row for k in sorted(payload) for row in _flatten(payload[k], f"{prefix}{k}.")]
    if isinstance(payload, list) and payload:
        return [row for i, v in enumerate(payload) for row in _flatten(v, f"{prefix}{i}.")]
    return [(prefix[:-1], payload)]


def render(command: str, envelope: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
    payload = envelope.get("result", envelope)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if command == "census" and "rows" in payload:
            writer.writerow(("d", "total_ideals", "smooth_ideals"))
            writer.writerows(payload["rows"])
        else:  # str keeps None, [] and {} as printed, not as empty fields
            writer.writerow(("key", "value"))
            writer.writerows((k, str(v)) for k, v in _flatten(payload))
        return out.getvalue()
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
    parser.add_argument("--verify", action="store_true",
                        default=d(False),
                        help="enable expensive brute-force cross-checks (tangent, "
                             "classify, census, link, verify-chain, ann and "
                             "bicanonical; the other subcommands refuse it)")


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

    def add(name, handler, field_dependent, verifies, help_text, *positional):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler, field_dependent=field_dependent, verifies=verifies)
        for arg, kw in positional:
            p.add_argument(arg, **kw)
        return p

    # name, handler, whether --second-prime reruns it, whether --verify has a
    # check, help, positionals
    add("tangent", _cmd_tangent, True, True, "tangent space dimension",
        ("ideal", {"help": "comma-separated generators"}))
    add("classify", _cmd_classify, False, True, "smooth/singular verdict for a monomial ideal",
        ("ideal", {"help": "comma-separated monomials"}))
    add("triple", _cmd_triple, False, False, "find a singularizing triple",
        ("ideal", {"help": "comma-separated monomials"}))
    add("chain", _cmd_chain, False, False, "no-flip chain certificate for a monomial ideal",
        ("ideal", {"help": "comma-separated monomials"}))
    add("census", _cmd_census, False, True, "smooth monomial point counts",
        ("dmax", {"type": int}))
    add("series", _cmd_series, False, False, "plane partition counting series",
        ("n", {"type": int}))
    p_link = add("link", _cmd_link, True, True, "link an ideal by a regular sequence",
                 ("ideal", {}))
    p_link.add_argument("--alpha", required=True,
                        help="three comma-separated polynomials")
    add("verify-chain", _cmd_verify_chain, True, True, "validate a JSON chain of links",
        ("file", {}))
    add("parity", _cmd_parity, True, False, "homogeneous-linkage parity obstruction",
        ("ideal", {}))
    add("ann", _cmd_ann, True, True, "annihilator of dual polynomials (X, Y, Z)",
        ("dual_polys", {}))
    add("bicanonical", _cmd_bicanonical, True, True, "bicanonical degree and Hom dimensions",
        ("ideal", {}))
    add("pfaffian-ideal", _cmd_pfaffian_ideal, True, False, "layered Pfaffian ideal from JSON",
        ("file", {}))
    return parser


_parser = None  # built by the first main() call, then reused


@functools.cache
def _ring(prime: int) -> poly3.PolyRing:
    """F_p for an odd prime p below 2^31; anything else is an input error.
    A valid prime is tested once per process."""
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
        if args.verify and not args.verifies:
            raise InputError(f"{args.command} has no --verify check")
        ring = _ring(args.prime)
        if args.second_prime is not None:
            envelope["second_prime"] = args.second_prime
            ring2 = _ring(args.second_prime)
            if args.second_prime == args.prime:
                raise InputError(f"--second-prime {args.second_prime} equals --prime; "
                                 "a rerun over the same field checks nothing")
        payload, status = args.handler(args, ring)
        if args.second_prime is not None:
            if args.field_dependent and not _same_answer(
                    payload, args.handler(args, ring2)[0], ring, ring2):
                raise PrimeDisagreementError(
                    f"results differ between p={args.prime} and "
                    f"p={args.second_prime}")
            envelope["second_prime_checked"] = args.field_dependent
        envelope["result"] = payload
    except (Hilb3Error, OSError) as exc:
        envelope["error"] = {"type": type(exc).__name__, "message": str(exc)}
        status = 2 if isinstance(exc, InputError) else 1
    sys.stdout.write(render(args.command, envelope, args.format))
    return status

if __name__ == "__main__":
    sys.exit(main())
