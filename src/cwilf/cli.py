"""Command-line front end.

Every pipeline is exposed as a subcommand with reproducible output: text is
newline-terminated UTF-8, JSON keeps a stable field order, and identical
configurations always produce identical bytes.

Exit codes: 0 success, 2 usage or parse error, 3 brute-force cap exceeded,
refused up front, 4 inconsistent result (a cross-check discrepancy under
--strict, or a runtime check that fails on any command; the README's "Exit
codes" paragraph lists every check), 130 interrupted (Ctrl-C), 141 stdout
closed by its reader (128 + SIGPIPE). `count` makes one call into the router
(`analysis._series`), `crosscheck` one per engine it compares, and terms
of any length print: `main` lifts Python's int-to-text digit limit.

A process that runs `main()` on its own command line (the `cwilf` script,
`python -m cwilf`) freezes the garbage collector's view of its start-up
heap (`gc.freeze`) before the command runs: the collections during the run
and the one at exit skip the objects that start-up left, which live until
exit anyway.  A caller that passes argv, as the tests do, keeps its
collector as it was.

Only `count` is handled here (`_HANDLERS`).  `main` sends the other four
commands to `survey`, imported when one of them runs, so a `count` process
compiles the parser, the router, the pattern primitives and its engine,
and no other command's code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Sequence

from . import analysis
from .patterns import InconsistentResult, OracleLimitError, parse_pattern_set

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INCONSISTENT = 4
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141


def _add_common(sub, engine=False, strict=False, cap=False):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if cap:
        sub.add_argument("--cap", type=int, default=None,
                         help="brute-force size cap (default 10, or $CWILF_CAP)")
    if engine:
        sub.add_argument("--engine", choices=("auto", "positive", "cluster", "brute"),
                         default="auto")
    if strict:
        sub.add_argument("--strict", action="store_true",
                         help="turn validation discrepancies into exit code 4")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwilf",
        description="Exact enumeration of permutations by consecutive pattern occurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="avoidance or occurrence-tracking series")
    count.add_argument("--avoid", default="", help="semicolon-separated patterns to forbid")
    count.add_argument("--track", default="", help="semicolon-separated patterns to track")
    count.add_argument("--n", type=int, required=True, help="largest size to report")
    _add_common(count, engine=True, cap=True)

    clusters = sub.add_parser("clusters", help="cluster weight enumerators C_n(t)")
    clusters.add_argument("pattern")
    clusters.add_argument("--n", type=int, required=True)
    _add_common(clusters)

    crosscheck = sub.add_parser("crosscheck", help="compare engines against the oracles")
    crosscheck.add_argument("patterns", nargs="?", default=None,
                            help="semicolon-separated pattern set")
    crosscheck.add_argument("--all-s3", action="store_true",
                            help="check every length-3 pattern separately")
    crosscheck.add_argument("--n", type=int, required=True)
    _add_common(crosscheck, strict=True, cap=True)

    parade = sub.add_parser("hitparade", help="rank symmetry classes by avoider count")
    parade.add_argument("k", type=int, nargs="?", default=None)
    parade.add_argument("--k", type=int, dest="k_flag", default=None)
    parade.add_argument("--n", type=int, default=None,
                        help="count depth (default per length: 3->200 4->60 5->40 6->30)")
    _add_common(parade)

    growth = sub.add_parser("growth", help="asymptotic growth estimate for one pattern")
    growth.add_argument("pattern")
    growth.add_argument("--n", type=int, required=True)
    _add_common(growth)

    return parser


def _resolve_cap(args) -> int | None:
    """The brute-force cap: --cap, else $CWILF_CAP, else None (the default)."""
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get("CWILF_CAP")
        if not env:
            return None
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"CWILF_CAP must be a nonnegative integer, not {env!r}") from None
        source = "CWILF_CAP"
    if cap < 0:
        raise ValueError(f"{source} must be nonnegative")
    return cap


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, ensure_ascii=False))


def _series_text(terms) -> str:
    polynomial = any(not isinstance(t, int) and not t.is_constant() for t in terms)
    return ("; " if polynomial else ",").join(map(str, terms))


def _cmd_count(args) -> int:
    avoid = parse_pattern_set(args.avoid)
    track = parse_pattern_set(args.track)
    if set(avoid) & set(track):
        raise ValueError("a pattern cannot be both avoided and tracked")
    report = analysis._series(avoid, track, args.n, args.engine, _resolve_cap(args))
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        _emit(_series_text(report.terms))
    return EXIT_OK


def _survey(args) -> int:
    from . import survey

    return survey.HANDLERS[args.command](args)


_HANDLERS = {"count": _cmd_count}


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # print terms of any length
    parser = build_parser()
    args = parser.parse_args(argv)
    if argv is None:
        # the process's own command line: what start-up built (interpreter,
        # site, imports, parser) lives until exit, so neither the run's
        # collections nor the one at exit need to traverse it
        gc.freeze()
    try:
        if args.n is not None and args.n < 0:  # every command has --n
            raise ValueError("--n must be nonnegative")
        code = _HANDLERS.get(args.command, _survey)(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can be written; send the rest of the buffer nowhere so
        # the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InconsistentResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
