"""Command-line front end: expand forms, verify claim sets, scan for primes.

Exit codes: 0 when everything asked for succeeded (expected refutations
count as success), 1 when some claim failed or a planted near-miss
unexpectedly passed, 2 for usage errors and malformed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import congruence, etaquot
from .claims import CongruenceClaim, builtin_claims
from .qseries import QSeries, ZZ, residue_ring

def format_polynomial(series: QSeries) -> str:
    """Render a series the way you'd write it on paper: "q - 24q^2 + 252q^3"."""
    parts: List[str] = []
    for n, c in enumerate(series.coeffs):
        if c == 0:
            continue
        if n == 0:
            body = str(abs(c))
        else:
            q = "q" if n == 1 else f"q^{n}"
            body = q if abs(c) == 1 else f"{abs(c)}{q}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


def _parse_modulus(text: str):
    if "^" in text:
        ell_s, t_s = text.split("^", 1)
    else:
        ell_s, t_s = text, "1"
    try:
        ell, t = int(ell_s), int(t_s)
    except ValueError:
        raise ValueError(f"bad modulus {text!r}; expected ell or ell^t") from None
    return residue_ring(ell, t)


def cmd_expand(args: argparse.Namespace) -> int:
    ring = _parse_modulus(args.mod) if args.mod else ZZ
    if args.form:
        quotient = etaquot.lookup(args.form).quotient
    else:
        quotient = etaquot.EtaQuotient.parse(args.eta)
    series = etaquot.expand(quotient, args.terms, ring)
    print(format_polynomial(series))
    return 0


def _load_claim_file(path: str) -> List[CongruenceClaim]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("claims"), list):
        raise ValueError("claim file must be an object with a 'claims' list")
    extra = set(data) - {"claims", "comment"}
    if extra:
        raise ValueError(f"unknown claim-file keys: {sorted(extra)}")
    return [CongruenceClaim.from_json(item) for item in data["claims"]]


_STATUS_TAGS = {
    "ok": "PASS",
    "fail": "FAIL",
    "refuted-as-expected": "PASS(refuted as planted)",
    "unexpected-pass": "FAIL(planted near-miss survived)",
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.claims:
        claims = _load_claim_file(args.claims)
    else:
        claims = list(builtin_claims())
    for pattern in args.only or ():
        claims = [c for c in claims if c.kind == pattern or pattern in c.claim_id]
    if not claims:
        print("no claims selected", file=sys.stderr)
        return 2

    reports = congruence.verify_claims(claims, prime_bound=args.prime_bound)
    if args.format == "json":
        payload = {"reports": [r.to_json() for r in reports]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            bits = [f"bound={r.bound}"]
            if r.first_failure is not None:
                bits.append(f"witness={r.first_failure}")
            if r.primes_checked is not None:
                bits.append(f"primes={r.primes_checked}")
            bits.append(f"{r.seconds:.3f}s")
            print(
                f"{_STATUS_TAGS[r.status]:<32} {r.verdict:<8} {r.rigor:<19} "
                f"{r.claim.claim_id}  ({', '.join(bits)})"
            )
        good = sum(1 for r in reports if r.status in ("ok", "refuted-as-expected"))
        print(f"{good}/{len(reports)} claims as expected")
    bad = [r for r in reports if r.status in ("fail", "unexpected-pass")]
    return 1 if bad else 0


def cmd_scan(args: argparse.Namespace) -> int:
    kind = "two-exponent" if args.type == "I" else "square-class"
    findings = congruence.scan_exceptional(
        args.form, kind, ell_max=args.ell_max, prime_bound=args.prime_bound
    )
    if args.format == "json":
        print(json.dumps({"findings": [f.to_json() for f in findings]}, indent=2, sort_keys=True))
        return 0
    if not findings:
        print("no exceptional primes found")
        return 0
    for f in findings:
        if f.kind == "two-exponent":
            print(f"ell={f.ell}  m={f.m} m'={f.m_prime} psi={f.psi}  primes={f.primes_checked}")
        else:
            tag = "  [masked by a two-exponent congruence]" if f.masked else ""
            print(f"ell={f.ell}  primes={f.primes_checked}{tag}")
    return 0


def _int_at_least(low: int, what: str):
    """An argparse type: an integer >= low, else a usage error (exit 2) naming `what`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= {low}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaq",
        description="expand eta-quotient newforms and verify their coefficient congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("expand", help="print a truncated q-expansion")
    group = p_exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--eta", help="quotient as delta:exponent pairs, e.g. 1:2,11:2")
    group.add_argument("--form", help="catalog form id, e.g. delta or eta3^8")
    p_exp.add_argument("--terms", type=int, default=10, help="highest power of q to print")
    p_exp.add_argument("--mod", help="reduce modulo ell^t, e.g. 5 or 3^2")
    p_exp.set_defaults(func=cmd_expand)

    p_ver = sub.add_parser("verify", help="verify congruence claims and report verdicts")
    p_ver.add_argument("claims", nargs="?", help="JSON claim file (defaults to the built-in set)")
    p_ver.add_argument(
        "--only",
        action="append",
        help="keep claims whose kind equals, or claim id contains, this text (repeatable)",
    )
    p_ver.add_argument(
        "--prime-bound",
        type=int,
        default=congruence.DEFAULT_PRIME_BOUND,
        help="prime scan cutoff for prime-power and unit-factor claims",
    )
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument(
        "--jobs",
        "-j",
        # claims run sequentially; the flag stays, still validated, so that
        # existing command lines keep working
        type=_int_at_least(1, "the thread count"),
        default=1,
        help="accepted and validated; claims run one after another",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="search for exceptional primes of a catalog form")
    p_scan.add_argument("--form", required=True, help="catalog form id")
    p_scan.add_argument("--type", choices=("I", "II"), required=True,
                        help="I: two-exponent congruences; II: square-class congruences")
    p_scan.add_argument("--ell-max", type=_int_at_least(2, "the largest ell"), default=100)
    p_scan.add_argument(
        "--prime-bound", type=int, default=congruence.DEFAULT_PRIME_BOUND
    )
    p_scan.add_argument("--format", choices=("text", "json"), default="text")
    p_scan.set_defaults(func=cmd_scan)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: built once per process, since parsing leaves
    no state in it."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
