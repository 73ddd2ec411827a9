"""Command-line front end: run a script file, print results, emit a report.

Exit codes: 0 success, 1 semantic failure (engine error or a failed
verify/glue/assert), 2 malformed script or unknown --field, or a script
file that cannot be read or a report file that cannot be written.
"""

import argparse
import sys

from .errors import EngineError
from .fields import field_from_name
from .groebner import degree_limit
from .script import ScriptParseError, render_report, run_script


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowcalc",
        description="exact intersection calculus on affine charts")
    parser.add_argument("--script", required=True,
                        help="path to the script file to execute")
    parser.add_argument("--report", metavar="PATH",
                        help="write a JSON report here ('-' for stdout)")
    parser.add_argument("--field", metavar="K",
                        help="default base field: QQ (default) or Fp:<p>")
    parser.add_argument("--max-degree", type=int, metavar="D",
                        help="abort any basis computation that exceeds "
                             "total degree D")
    parser.add_argument("--verbose", action="store_true",
                        help="echo each statement to stderr as it runs")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        field = field_from_name(args.field) if args.field else None
    except EngineError as exc:
        print(f"chowcalc: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.script, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"chowcalc: {exc}", file=sys.stderr)
        return 2

    echo = lambda line: print(line)
    trace = (lambda line: print(f"+ {line}", file=sys.stderr)) \
        if args.verbose else None
    try:
        with degree_limit(args.max_degree):
            report, code = run_script(text, field=field,
                                      echo=echo, trace=trace)
    except ScriptParseError as exc:
        print(f"chowcalc: {exc}", file=sys.stderr)
        return 2

    if args.report:
        rendered = render_report(report)
        if args.report == "-":
            sys.stdout.write(rendered)
        else:
            try:
                with open(args.report, "w", encoding="utf-8") as handle:
                    handle.write(rendered)
            except OSError as exc:
                print(f"chowcalc: {exc}", file=sys.stderr)
                return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
