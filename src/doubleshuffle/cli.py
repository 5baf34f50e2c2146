"""Command line surface.

Exit status: 0 on success, 1 when ``verify`` finds a failing relation,
2 on malformed input (word syntax, JSON, argument domain, or nesting too deep),
141 (128 + SIGPIPE) when the reader closes stdout early, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core import DomainError, LinComb
from .explicit import explicit_product_b, explicit_product_e, perm_product_b
from .maps import rho
from .recursive import quasi_shuffle, shuffle
from .textio import (RelationWriter, _decimal, format_lincomb, lincomb_to_json,
                     lincomb_to_latex, parse_indexed_word, parse_shuffle_word,
                     relation_from_json)
from .values import euler_relation, relation_stream, verify_relation_numeric


def _group_order(name: str) -> int:
    if name == "trivial":
        return 1
    if name == "sign":
        return 2
    kind, _, order = name.partition(":")
    n = _decimal(order) if kind == "root" else None
    if n is not None:
        if n < 1:
            raise ValueError("group order must be >= 1")
        return n
    raise ValueError(f"unknown group {name!r} (use trivial, sign or root:N)")


def _print_lincomb(lc: LinComb, args) -> None:
    if args.format == "json":
        print(json.dumps(lincomb_to_json(lc)))
    elif args.format == "latex":
        print(lincomb_to_latex(lc, args.group))
    else:
        print(format_lincomb(lc))


def _print_relations(rels, args) -> None:
    """Print each relation as the iterable yields it."""
    writer = RelationWriter()
    line = {"json": writer.relation, "text": writer.text,
            "latex": lambda rel: writer.latex(rel, args.group)}[args.format]
    for rel in rels:
        print(line(rel))


def _cmd_shuffle(args) -> int:
    u = parse_shuffle_word(args.left)
    v = parse_shuffle_word(args.right)
    lc = shuffle(u, v)
    if args.as_indexed:
        lc = lc.map_words(rho)
        _print_lincomb(lc, args)
        return 0
    if args.format == "json":
        terms = [{"coeff": str(c), "word": str(w)} for w, c in lc.items()]
        print(json.dumps({"terms": terms}))
    else:
        print(format_lincomb(lc))
    return 0


_CLOSED_FORMS = {"b": explicit_product_b, "e": explicit_product_e}


def _cmd_product(args) -> int:
    """Print the product of two index words: the subcommand's ``product``,
    or for ``explicit`` the closed form that ``--form`` picks."""
    mu = parse_indexed_word(args.left)
    nu = parse_indexed_word(args.right)
    product = args.product or _CLOSED_FORMS[args.form]
    _print_lincomb(product(mu, nu), args)
    return 0


def _cmd_euler(args) -> int:
    _print_relations([euler_relation(args.r, args.s)], args)
    return 0


def _cmd_relations(args) -> int:
    if args.weight < 1 or args.depth < 1:
        raise ValueError("--weight and --depth must be >= 1")
    _print_relations(relation_stream(args.weight, args.depth, args.order,
                                     hoffman=args.hoffman), args)
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be finite and >= 0")
    if args.terms < 1:
        raise ValueError("--terms must be >= 1")
    stream = args.input if args.input is not None else sys.stdin
    failed = 0
    count = 0
    skipped = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        rel = relation_from_json(json.loads(line))
        try:
            report = verify_relation_numeric(
                rel, args.terms, args.tol,
                allow_conditional=args.allow_conditional)
        except DomainError as exc:
            skipped += 1
            if args.format == "json":
                print(json.dumps({"label": rel.label, "skipped": str(exc)}))
            else:
                print(f"skip {rel.label} ({exc})")
            continue
        count += 1
        if not report.passed:
            failed += 1
        if args.format == "json":
            print(json.dumps({"label": rel.label, "passed": report.passed,
                              "residual": report.residual,
                              "bound": report.bound}))
        else:
            status = "ok" if report.passed else "FAIL"
            print(f"{status} {rel.label} residual={report.residual:.3e} "
                  f"bound={report.bound:.3e}")
    if args.format != "json":
        summary = f"{count - failed}/{count} relations verified"
        print(summary + (f", {skipped} skipped" if skipped else ""))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "latex"),
                        default="text", help="output format")
    common.add_argument("--group", default="trivial",
                        help="mark group: trivial, sign or root:N")
    two_words = argparse.ArgumentParser(add_help=False, parents=[common])
    two_words.add_argument("left")
    two_words.add_argument("right")

    parser = argparse.ArgumentParser(
        prog="doubleshuffle",
        description="Exact double-shuffle products and relations among "
                    "nested-series values.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shuffle", parents=[two_words],
                       help="interleaving product of two letter words")
    p.add_argument("--as-indexed", action="store_true",
                   help="re-encode the result as index words")
    p.set_defaults(func=_cmd_shuffle)

    p = sub.add_parser("stuffle", parents=[two_words],
                       help="merge product of two index words")
    p.set_defaults(func=_cmd_product, product=quasi_shuffle)

    p = sub.add_parser("explicit", parents=[two_words],
                       help="closed-form product of two index words")
    p.add_argument("--form", choices=_CLOSED_FORMS, default="e",
                   help="plain (b) or quotient (e) mark coordinates")
    p.set_defaults(func=_cmd_product, product=None)

    p = sub.add_parser("perm-form", parents=[two_words],
                       help="b-form product via shuffle permutations")
    p.set_defaults(func=_cmd_product, product=perm_product_b)

    p = sub.add_parser("euler", parents=[common],
                       help="two-term decomposition of a depth-1 product")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("relations", parents=[common],
                       help="stream double-shuffle relations")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--hoffman", action="store_true",
                   help="also emit the divergent-word differences")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("verify", parents=[common],
                       help="numerically verify relations read as JSON lines")
    p.add_argument("--terms", type=int, default=100000,
                   help="most terms taken of each series a value is "
                        "summed from")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--allow-conditional", action="store_true",
                   help="sum conditionally convergent words too")
    p.add_argument("--input", type=argparse.FileType("r"), default=None,
                   help="file with one JSON relation per line (default stdin)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.order = _group_order(args.group)
        return args.func(args)
    except (ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: point stdout at the null device, so the
        # flush of what is still buffered, at exit, prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
