"""Command-line frontend: compute graded characters and run verification.

    qchar char   --rank 2 --level 1 --n 1,1 [--format json|csv|text] [--out F]
    qchar verify --suite all [--rank R] [--bound B] [--order N] [--out F]

The occupation flag is level-major: ``--n 1,0;0,1`` means level 1 = (1, 0)
and level 2 = (0, 1).  Output is a pure function of the flags (repeated runs
are byte-identical).  Exit codes: 0 success, 1 verification failure, 2 usage
error (an unwritable --out path included), 3 internal identity violation.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .characters import NVector, char_q_exponent, packed_character, top_component
from .laurent import EXP_MAX
from .rings import NotSymmetric
from .verify import SUITE_FLAGS, run_suite

# Every exception class in ``rings`` but ``NotSymmetric`` is an ArithmeticError.
INTERNAL_ERRORS = (ArithmeticError, NotSymmetric)

# The Whittaker check's time grows as order**3 (1.2 s at order 80, 3.9 s at
# 120 on a 2-CPU box), and its series are exact at any order: a cap.
MAX_ORDER = 100
# Each suite's largest --rank and --bound, below where its run passes about
# 30 s (timed in the README); "all" takes the least cap of its suites.
SUITE_CAPS = {"rank": {"torus": 4, "eigen": 6, "limits": 6, "qsystem": 6}, "bound": {"lemmas": 4, "macdonald": 16, "eigen": 6, "diffeq": 10, "limits": 6, "qsystem": 10}}


def _integer(text: str) -> int:
    """The integer ``text`` spells in ASCII digits, with an optional leading
    "-" and whitespace around; ValueError for the other spellings int()
    takes, such as "+1", "1_0" or non-ASCII digits."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("%r is not an integer" % text)
    return int(text)


def _parse_weight_form(text: str, rank: int) -> list:
    """Fundamental-weight shorthand for level 1: 'w1+w2', '2*w2', 'ω1+ω2'."""
    ell = [0] * rank
    for term in text.replace("ω", "w").split("+"):
        term = term.strip()
        mult, name = term.split("*", 1) if "*" in term else ("1", term)
        if not name.startswith("w"):
            raise argparse.ArgumentTypeError("bad weight term %r" % term)
        try:
            mult, idx = _integer(mult), _integer(name[1:])
        except ValueError:
            raise argparse.ArgumentTypeError("bad weight term %r" % term)
        if mult < 0:
            raise argparse.ArgumentTypeError("bad weight term %r" % term)
        if not 1 <= idx <= rank:
            raise argparse.ArgumentTypeError("weight index %d out of range" % idx)
        ell[idx - 1] += mult
    return [ell]


def parse_n_flag(text: str, rank: int, level: int) -> NVector:
    if "w" in text or "ω" in text:
        if level != 1:
            raise argparse.ArgumentTypeError("weight form is level-1 shorthand")
        levels = _parse_weight_form(text, rank)
    else:
        levels = []
        for chunk in text.split(";"):
            entries = [s.strip() for s in chunk.split(",")]
            try:
                levels.append([_integer(s) for s in entries])
            except ValueError:
                raise argparse.ArgumentTypeError("occupation entries must be integers")
    try:
        return NVector.from_levels(rank, level, levels)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _partition_key(lam, rank):
    full = tuple(lam) + (0,) * (rank + 1 - len(lam))
    return "(%s)" % ",".join(str(x) for x in full)


def character_payload(n: NVector) -> dict:
    """JSON-ready data: Schur coefficients as [q-exponent, integer] pairs,
    read straight off the checked ``packed_character``."""
    rows = packed_character(n).coefficients()
    char = {}
    for lam in sorted(rows, reverse=True):
        char[_partition_key(lam, n.rank)] = [[e, c] for e, c in reversed(rows[lam])]
    return {
        "schema": 1,
        "rank": n.rank,
        "level": n.level,
        "n": [list(row) for row in n.rows],
        "character": char,
    }


def render_character(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, separators=(",", ":")) + "\n"
    if fmt == "csv":
        lines = ["partition,q_exponent,coefficient"]
        for key, pairs in payload["character"].items():
            for e, c in pairs:
                lines.append('"%s",%d,%d' % (key, e, c))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [
            "rank %d level %d n=%s"
            % (
                payload["rank"],
                payload["level"],
                ";".join(",".join(str(x) for x in row) for row in payload["n"]),
            )
        ]
        for key, pairs in payload["character"].items():
            coeff = " + ".join(
                ("q^%d" % e if c == 1 and e else str(c) if not e else "%d*q^%d" % (c, e))
                for e, c in pairs
            )
            lines.append("  %s : %s" % (key, coeff or "0"))
        return "\n".join(lines) + "\n"
    raise ValueError("unknown format %r" % fmt)


def _int_in(low: int, high=float("inf")):
    """An argparse type: an integer in [low, high], else a usage error (exit 2)."""

    def integer(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError("%d is below the minimum %d" % (value, low))
        if value > high:
            raise argparse.ArgumentTypeError("%d is above the maximum %d" % (value, high))
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchar",
        description="Exact graded characters of KR fusion products and the "
        "identity verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("char", help="compute one graded character")
    pc.add_argument("--rank", type=_int_in(1), required=True)
    pc.add_argument("--level", type=_int_in(1), default=1)
    pc.add_argument("--n", required=True, help="level-major occupations, e.g. 1,0;0,1")
    pc.add_argument("--format", choices=("json", "csv", "text"), default="json")
    pc.add_argument("--out", default=None, help="output file (default stdout)")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=tuple(SUITE_FLAGS), default="all")
    pv.add_argument("--rank", type=_int_in(1), default=None)
    pv.add_argument("--bound", type=_int_in(0), default=None)
    pv.add_argument("--order", type=_int_in(0, MAX_ORDER), default=None)
    pv.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def _cannot_write(out, reason) -> bool:
    sys.stderr.write("qchar: cannot write --out %s: %s\n" % (out, reason))
    return False


def _out_writable(out) -> bool:
    """Whether ``out`` (None for stdout) can be opened for writing, checked
    before any work and creating no file: False, with the stderr line
    ``_emit`` would write, for a directory or a path whose parent is not
    an existing directory."""
    if not out:
        return True
    if os.path.isdir(out):
        return _cannot_write(out, os.strerror(errno.EISDIR))
    if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        return _cannot_write(out, os.strerror(errno.ENOENT))
    return True


def _emit(text: str, out) -> bool:
    """Write to the file ``out``, or to stdout when it is None; False, with
    one stderr line naming the path, when the file cannot be written."""
    if not out:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _cannot_write(out, exc.strerror or exc)
    return True


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not _out_writable(args.out):
        return 2
    if args.command == "char":
        try:
            n = parse_n_flag(args.n, args.rank, args.level)
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))  # exits with code 2
        # the raising product carries the top component at q**(-X(n))
        widest = max((-char_q_exponent(n),) + top_component(n)[:1])
        if widest > EXP_MAX:
            parser.error("--n %s needs the exponent %d, beyond EXP_MAX = %d" % (args.n, widest, EXP_MAX))
        try:
            payload = character_payload(n)
        except INTERNAL_ERRORS as exc:
            sys.stderr.write("internal identity violation: %s\n" % exc)
            return 3
        return 0 if _emit(render_character(payload, args.format), args.out) else 2

    for flag in ("rank", "bound", "order"):
        value, caps = getattr(args, flag), [c for s, c in SUITE_CAPS.get(flag, {}).items() if args.suite in (s, "all")]
        if value is not None and flag not in SUITE_FLAGS[args.suite].split():
            parser.error("--suite %s does not read --%s" % (args.suite, flag))
        if value is not None and value > min(caps, default=value):
            parser.error("--%s %d is above the maximum %d of --suite %s" % (flag, value, min(caps), args.suite))
    try:
        reports = run_suite(args.suite, rank=args.rank, bound=args.bound, order=args.order)
    except INTERNAL_ERRORS as exc:
        sys.stderr.write("internal identity violation: %s\n" % exc)
        return 3
    payload = {
        "schema": 1,
        "suite": args.suite,
        "passed": all(r.passed and r.total for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    if not _emit(json.dumps(payload, separators=(",", ":")) + "\n", args.out):
        return 2
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
