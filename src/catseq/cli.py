"""Command-line driver.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 for malformed input (parse or validation failures, bad usage), 2 for
domain errors (a valid sequence outside a partial codec's image).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core
from .core import CatalanError, DomainError, validate

# each handler imports the modules it runs, so a command loads only those
_METHODS = ("closed", "convolution", "linear", "series")  # counting.catalan_<method>


class _Parser(argparse.ArgumentParser):
    # bad usage is malformed input: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # the choices quoted, as CPython 3.10 to 3.13.0 word it, so the text does not change with argparse's version
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catseq", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = commands.add_parser("count", help="print the n-th Catalan number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=_METHODS, default="closed")
    p.set_defaults(handler=_cmd_count)

    p = commands.add_parser("enumerate", help="print all sequences of semilength n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = commands.add_parser("validate", help="check a 0/1 word for the Catalan conditions")
    p.add_argument("bits")
    p.set_defaults(handler=_cmd_validate)

    p = commands.add_parser("encode", help="encode a family object into a sequence")
    p.add_argument("--family", dest="source", required=True, metavar="FAMILY")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_transcode, target="sequence")

    p = commands.add_parser("decode", help="decode a sequence into a family object")
    p.add_argument("--family", dest="target", required=True, metavar="FAMILY")
    p.add_argument("input", metavar="bits")
    p.set_defaults(handler=_cmd_transcode, source="sequence")

    p = commands.add_parser("transcode", help="convert one family's text into another's")
    p.add_argument("--from", dest="source", required=True, metavar="FAMILY")
    p.add_argument("--to", dest="target", required=True, metavar="FAMILY")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_transcode)

    p = commands.add_parser("rank", help="0-based lexicographic rank of a sequence")
    p.add_argument("bits")
    p.set_defaults(handler=_cmd_rank)

    p = commands.add_parser("unrank", help="the k-th sequence of semilength n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(handler=_cmd_unrank)

    p = commands.add_parser("random", help="seeded uniform random sequence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_random)

    p = commands.add_parser("render", help="draw a sequence as text")
    p.add_argument("--format", choices=("mountain", "dot"), required=True)
    p.add_argument("bits")
    p.set_defaults(handler=_cmd_render)

    return parser


def _cmd_count(args) -> None:
    from . import counting
    n, limit = args.n, sys.get_int_max_str_digits()
    counting._check_index(n)  # catalan_series would object to its prefix length instead
    too_long = CatalanError(f"C_{n} has more than {limit} digits, the int-string limit")
    # C_n >= 4^n / ((2n + 1)(n + 1)) > 4^n / 2^(2b + 2) for n < 2^b, and log10(2) > 0.30102999: past the
    # limit by this bound, C_n is not computed, and the capped routes name their cap first instead
    if limit and (2 * n - 2 * n.bit_length() - 2) * 30102999 >= limit * 10**8 and args.method in ("closed", "linear"):
        raise too_long
    route = getattr(counting, f"catalan_{args.method}")
    count = route(n + 1).coefficients[n] if args.method == "series" else route(n)
    try:
        text = str(count)
    except ValueError:  # a cut number is no answer
        raise too_long from None
    print(text)


def _cmd_enumerate(args) -> None:
    from . import ranking
    # streams in constant memory: one write per batch of the prefix walk, joined in C, with no sequence built
    core._check_semilength(args.n, ranking.ENUMERATION_CAP, "enumeration")
    for prefix, ends in ranking._successors(args.n):
        sys.stdout.write(prefix + ("\n" + prefix).join(ends) + "\n")


def _cmd_validate(args) -> None:
    s = validate(args.bits)
    print(f"valid semilength={s.semilength}")


def _cmd_transcode(args) -> None:
    from .families import transcode
    print(transcode(args.source, args.target, args.input))


def _cmd_rank(args) -> None:
    from .ranking import rank
    print(rank(validate(args.bits)))


def _cmd_unrank(args) -> None:
    from .ranking import unrank
    print(unrank(args.n, args.index).bits)


def _cmd_random(args) -> None:
    from .ranking import random_uniform
    print(random_uniform(args.n, args.seed).bits)


def _cmd_render(args) -> None:
    from .render import render_mountain, write_dot
    s = validate(args.bits)
    if args.format == "mountain":
        for line in render_mountain(s):
            print(line)
    else:
        print(write_dot(s))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except BrokenPipeError:
        # the reader closed stdout early, as `catseq enumerate --n 11 | head -1`
        # does; stdout goes to devnull so that the flush at exit cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except DomainError as exc:
        print(f"catseq: domain error: {exc}", file=sys.stderr)
        return 2
    except CatalanError as exc:
        print(f"catseq: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
