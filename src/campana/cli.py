"""Command-line front end.

Exit codes: 0 success, 1 verified failure or search exhaustion, 2 usage
error (any ValueError, from parsing the command line or from the library,
printed as "error: ..."), 141 (128 + SIGPIPE) when the reader of stdout
goes away before the output is written, as `head` can.  A verify check
that raises, a ValueError included, is neither a usage error nor a
traceback: verify.run makes it its row's FAIL, so the command exits 1.
Rationals are written "num/den" or plain integers; the place at infinity
is "inf".  The only settings are verify's --seed and --samples; one left
out takes verify.run's default.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import formulas as fm, parametrize, places, semantics, verify
from .errors import SearchExhausted

USAGE_ERROR = 2
BROKEN_PIPE = 141  # the status of a command that SIGPIPE ended


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r} ({exc})") from None


def _parse_place(text: str):
    """"inf" or the int a place is written as (int's ValueError names any
    other word); places.hilbert proves it prime."""
    text = text.strip()
    return text if text == "inf" else int(text)


def _parse_prime_list(text: str) -> List[int]:
    """The ints of a comma/space separated list; int's ValueError names a
    word that is not one."""
    return [int(t) for t in text.replace(",", " ").split()]


def _given(args, *flags) -> dict:
    """The named flags the command line gave, by name: a flag left out is
    not passed on, so the called function's default is the only one."""
    return {flag: getattr(args, flag) for flag in flags
            if getattr(args, flag) is not None}


def cmd_hilbert(args) -> int:
    a = _parse_rational(args.a)
    b = _parse_rational(args.b)
    v = _parse_place(args.place)
    print(f"{places.hilbert(a, b, v):+d}")
    return 0


def cmd_construct(args) -> int:
    primes = _parse_prime_list(" ".join(args.primes))
    if len(set(primes)) != len(primes):
        raise ValueError("duplicate primes in S")
    report = parametrize.construct_omega(primes)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0 if report.success else 1


def _check_flags(args, what: str, takes: tuple):
    """Refuse a flag that `what` does not take, and a missing one that it
    takes, unless that is --s or --real, the optional ones."""
    for flag in ("n", "real", "s", "abcd"):
        value = getattr(args, flag, None)
        given = value is not None and value is not False
        if given and flag not in takes:
            raise ValueError(f"{what} takes no --{flag}")
        if not given and flag in takes and flag not in ("s", "real"):
            raise ValueError(f"{what} needs --{flag}")


def _parse_abcd(text: str) -> List[Fraction]:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ValueError("--abcd needs exactly four rationals")
    return [_parse_rational(p) for p in parts]


# member kind -> (the flags it takes, its verdict on (args, r))
_MEMBER = {
    "campana": (("n", "s"), lambda args, r: semantics.campana_member(
        _parse_prime_list(args.s or ""), args.n, r)),
    "sintegers": (("s",), lambda args, r: semantics.s_integer_member(
        _parse_prime_list(args.s or ""), r)),
    "J": (("abcd",), lambda args, r: semantics.in_J(*_parse_abcd(args.abcd), r)),
    "Jn": (("abcd", "n"), lambda args, r: semantics.in_Jn(
        *_parse_abcd(args.abcd), args.n, r)),
    "invJn": (("abcd", "n"), lambda args, r: semantics.in_inv_Jn(
        *_parse_abcd(args.abcd), args.n, r)),
}
# member kind -> its flags, as README's member table lists them
_MEMBER_FLAGS = {kind: flags for kind, (flags, _) in _MEMBER.items()}


def cmd_member(args) -> int:
    r = _parse_rational(args.r)
    takes, verdict_of = _MEMBER[args.kind]
    _check_flags(args, args.kind, takes)
    print("true" if verdict_of(args, r) else "false")
    return 0


def cmd_emit(args) -> int:
    target = fm.TARGETS[args.target]
    _check_flags(args, f"target {args.target!r}",
                 ("n",) * target.takes_n + ("real",) * target.has_real)
    formula = target.build(args.n, args.real)
    payload = fm.emit(formula, args.format)
    s = fm.stats(formula)
    stats_line = (f"universals={s.universals} existentials={s.existentials} "
                  f"degree<={s.degree_bound}")
    if args.out is not None:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(stats_line)
    else:
        sys.stdout.buffer.write(payload + b"\n")
        print(stats_line, file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    ok, table = verify.run(args.suite, **_given(args, "seed", "samples"))
    print(table)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="campana",
        description="Hilbert symbols, radical place sets, and forall-exists "
                    "formula compilation for Campana points over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="local Hilbert symbol (a,b)_v")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("place", help="a prime or 'inf'")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("construct", help="build (a,b,c,d) realizing a prime set")
    p.add_argument("primes", nargs="*", help="the target primes")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("member", help="semantic membership tests")
    p.add_argument("kind", choices=list(_MEMBER))
    p.add_argument("r", help="the rational to test")
    p.add_argument("--n", type=int)
    p.add_argument("--s", help="comma/space separated primes")
    p.add_argument("--abcd", help="four rationals, comma separated")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("emit", help="serialize a compiled formula")
    p.add_argument("target", choices=sorted(fm.TARGETS))
    p.add_argument("--n", type=int)
    p.add_argument("--real", action="store_true",
                   help="sum-of-squares combiner (real-embedded variant)")
    p.add_argument("--format", choices=fm.FORMATS, default="json")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all"] + sorted(verify.SUITES))
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return exc.code if exc.code in (0, 2) else USAGE_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout goes to /dev/null, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except ValueError as exc:  # every refusal, by the CLI or the library
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
