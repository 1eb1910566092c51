"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
unreadable or unwritable path), 3 internal error (an invariant violation or
any other unexpected exception, a bare ValueError included: usage is
validated at the edge and reported as ParseError, EvalError or an argparse
error).

Only `eval` and `expand` load the expression evaluator (exprparse); `kpoly`,
`dpoly`, `table` and `verify` import their own modules when they run, and
read the `-R` caps and the usage errors from core.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .core import (as_partition, canonical_kind, check_table_sequence,
                   EvalError, KINDS, ParseError)
# re-exported: the -R caps are also read as cli.MAX_TABLE_WEIGHT and _FACTORS
from .core import MAX_TABLE_FACTORS, MAX_TABLE_WEIGHT  # noqa: F401
from .operators import InvariantViolation

USAGE_ERROR = 2
VERIFY_FAIL = 1
INTERNAL_ERROR = 3


def _json_partition(data):
    """A partition read from JSON: an array of integers, not of bools."""
    if not isinstance(data, list) or any(type(x) is not int for x in data):
        raise ValueError("a partition is a JSON array of integers")
    return as_partition(data)


def _parse_partition_list(text):
    try:
        return _json_partition(json.loads(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("bad partition %r: %s" % (text, exc))


def _parse_sequence(text):
    try:
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("a sequence is a JSON array of partitions")
        return tuple(map(_json_partition, data))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("bad sequence %r: %s" % (text, exc))


def _parse_table_sequence(text):
    rects = _parse_sequence(text)
    try:
        check_table_sequence(rects)
    except EvalError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return rects


def _parse_kind(text):
    try:
        return canonical_kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_kinds(text):
    if text == "all":
        return list(KINDS)
    try:
        return list(dict.fromkeys(canonical_kind(k) for k in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _global_flags(parser, suppress):
    # subcommands re-accept the global flags; suppressed defaults keep a
    # pre-subcommand occurrence from being clobbered by the subparser
    extra = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output", **extra)


@functools.lru_cache(maxsize=None)
def build_parser():
    # built once per process: parse_args leaves the parser as it was
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    top = argparse.ArgumentParser(
        prog="univchar",
        description="Exact universal characters: bases, creation operators, "
                    "deformed tables.")
    _global_flags(top, suppress=False)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate an expression")
    p.add_argument("expr")

    p = sub.add_parser("expand", parents=[common],
                       help="expand an expression in a basis")
    p.add_argument("--basis", type=_parse_kind, required=True)
    p.add_argument("expr")

    p = sub.add_parser("kpoly", parents=[common],
                       help="one deformed-table coefficient")
    p.add_argument("--kind", type=_parse_kind, default="none")
    p.add_argument("--lambda", dest="lam", type=_parse_partition_list,
                   required=True)
    p.add_argument("-R", dest="rects", type=_parse_table_sequence,
                   required=True)

    p = sub.add_parser("dpoly", parents=[common],
                       help="one deformed-product coefficient")
    p.add_argument("--kind", type=_parse_kind, default="vdom")
    p.add_argument("--lambda", dest="lam", type=_parse_partition_list,
                   required=True)
    p.add_argument("-R", dest="rects", type=_parse_table_sequence,
                   required=True)

    p = sub.add_parser("table", parents=[common],
                       help="write coefficient tables")
    p.add_argument("-R", dest="rects", type=_parse_table_sequence,
                   required=True)
    p.add_argument("--kinds", type=_parse_kinds, default="all",
                   help="comma list of kinds, or 'all'")
    p.add_argument("--out", required=True)
    p.add_argument("--latex", action="store_true")

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=["lr", "bases", "operators", "determinants",
                            "kpoly", "duality", "kernels", "all"])
    return top


def cmd_table(rects, kinds, out_dir, latex, as_json):
    from .kpoly import ktables
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for kind, table in ktables(kinds, rects).items():
        paths = [os.path.join(out_dir, "ktable_%s.%s" % (kind, ext))
                 for ext in (("json", "tex") if latex else ("json",))]
        count, first = _write_table(table, paths)
        written += paths
        if count:
            # one note per kind: a large table can have tens of thousands
            lam, poly = first
            print("univchar: note: %d %s with negative data in kind %s, "
                  "first at %s (%s)" % (count, "row" if count == 1 else "rows",
                                        kind, list(lam), poly),
                  file=sys.stderr)
    if as_json:
        print(json.dumps({"written": written}, sort_keys=True))
    else:
        for path in written:
            print(path)
    return 0


def _write_table(table, paths):
    """KTable.write into paths (the JSON file, then the LaTeX one if any),
    each streamed to a temporary name beside it and renamed only after the
    last row, so a table that stops midway leaves no file of its own behind:
    on any exception the temporary files are removed."""
    temps = [path + ".tmp" for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            negative = table.write(*[stack.enter_context(open(temp, "w"))
                                     for temp in temps])
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise
    return negative


def cmd_verify(suite, as_json):
    from .verify import run_suite
    checks = run_suite(suite)
    failed = [c for c in checks if not c[1]]
    if as_json:
        print(json.dumps({
            "suite": suite,
            "checks": [{"name": c[0], "pass": c[1], "detail": c[2],
                        "seconds": round(c.seconds, 6)} for c in checks],
            "failed": len(failed),
        }, sort_keys=True))
    else:
        for name, ok, detail in checks:
            line = "%s %s" % ("PASS" if ok else "FAIL", name)
            if detail and not ok:
                line += "  [%s]" % detail
            print(line)
        print("%d checks, %d failures" % (len(checks), len(failed)))
    return VERIFY_FAIL if failed else 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        code = _dispatch(args)
    except (ParseError, EvalError, OSError) as exc:
        print("univchar: error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except InvariantViolation as exc:
        print("univchar: internal invariant violated: %s" % exc,
              file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:
        print("univchar: internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return INTERNAL_ERROR
    return code


def _dispatch(args):
    if args.command in ("eval", "expand"):
        from .exprparse import (eval_expr, expand_value, format_value,
                                value_to_json)
        value = eval_expr(args.expr)
        if args.command == "expand":
            value = expand_value(value, args.basis)
        print(json.dumps(value_to_json(value), sort_keys=True)
              if args.json else format_value(value))
        return 0
    if args.command == "kpoly":
        from .kpoly import k_via_schur_recurrence
        poly = k_via_schur_recurrence(args.kind, args.lam, args.rects)
        print(json.dumps({"poly": poly.to_json()}, sort_keys=True)
              if args.json else str(poly))
        return 0
    if args.command == "dpoly":
        from .operators import d_polynomial
        poly = d_polynomial(args.kind, args.lam, args.rects)
        print(json.dumps({"poly": poly.to_json()}, sort_keys=True)
              if args.json else str(poly))
        return 0
    if args.command == "table":
        return cmd_table(args.rects, args.kinds, args.out, args.latex,
                         args.json)
    if args.command == "verify":
        return cmd_verify(args.suite, args.json)
    raise ValueError("unknown command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
