"""Command-line front end.

Every pipeline is exposed as a subcommand with reproducible output: text is
newline-terminated UTF-8, JSON keeps a stable field order, and identical
configurations always produce identical bytes.

Exit codes: 0 success, 2 usage or parse error, 3 brute-force cap exceeded,
4 inconsistent result: a cross-check discrepancy under --strict, a packed
polynomial that fails its P_n(1) = n! check, an avoidance series whose
first terms are not n! (n < k) and k! - |set| (n = k), or a tracked series
with nothing forbidden whose P_n(1) is not n! or whose first moment in a
tracked pattern of length m is not (n-m+1) n!/m!, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import analysis, cluster_dp, permcore
from .weightring import InconsistentResult, WeightPoly, term_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INCONSISTENT = 4
EXIT_INTERRUPTED = 130


def _add_common(sub, engine=False, strict=False):
    sub.add_argument("--format", choices=("text", "json"), default="text")
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
    _add_common(count, engine=True)

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
    _add_common(crosscheck, strict=True)

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
    if args.cap is not None:
        return args.cap
    env = os.environ.get("CWILF_CAP")
    return int(env) if env else None


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, ensure_ascii=False))


def _series_text(terms) -> str:
    texts = [term_text(t) for t in terms]
    polynomial = any(isinstance(t, WeightPoly) and not t.is_constant() for t in terms)
    return "; ".join(texts) if polynomial else ",".join(texts)


def _cmd_count(args) -> int:
    avoid = permcore.parse_pattern_set(args.avoid)
    track = permcore.parse_pattern_set(args.track)
    if set(avoid) & set(track):
        raise ValueError("a pattern cannot be both avoided and tracked")
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    cap = _resolve_cap(args)
    if track:
        report = analysis.tracked_series(track, avoid, args.n, engine=args.engine, cap=cap)
    else:
        report = analysis.avoidance_series(avoid, args.n, engine=args.engine, cap=cap)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        _emit(_series_text(report.terms))
    return EXIT_OK


def _cmd_clusters(args) -> int:
    p = permcore.parse_pattern(args.pattern)
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    terms = cluster_dp.cluster_polys(p, args.n)
    if args.format == "json":
        report = analysis.SeriesReport(
            pattern=permcore.format_pattern(p),
            representative=permcore.format_pattern(p),
            members=tuple(permcore.format_pattern(q) for q in permcore.symmetry_class(p)),
            method="cluster",
            terms=terms,
        )
        _emit_json(report.to_json_dict())
    else:
        for n, c in enumerate(terms):
            _emit(f"C[{n}] = {term_text(c)}")
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    if args.all_s3:
        pattern_sets = [(p,) for p in permcore.all_patterns(3)]
    elif args.patterns is not None:
        pattern_sets = [permcore.parse_pattern_set(args.patterns)]
    else:
        raise ValueError("crosscheck needs a pattern set or --all-s3")
    cap = _resolve_cap(args)
    reports = [analysis.cross_check(ps, args.n, cap=cap) for ps in pattern_sets]
    total = sum(len(r.discrepancies) for r in reports)
    if args.format == "json":
        _emit_json({
            "pattern": " | ".join(";".join(r.patterns) for r in reports),
            "representative": None,
            "class": [],
            "method": "crosscheck",
            "terms": [],
            "growth": None,
            "checks": {
                "n": args.n,
                "discrepancies": total,
                "methods": sorted({m for r in reports for m in r.methods}),
                "first": next((r.first_discrepancy for r in reports if not r.ok), None),
            },
        })
    else:
        if total == 0:
            _emit(f"OK: {total} discrepancies")
        else:
            _emit(f"FAIL: {total} discrepancies")
            for r in reports:
                for d in r.discrepancies:
                    _emit(f"  patterns={';'.join(r.patterns)} n={d['n']} {d['terms']}")
    if total and args.strict:
        return EXIT_INCONSISTENT
    return EXIT_OK


def _cmd_hitparade(args) -> int:
    k = args.k if args.k is not None else args.k_flag
    if k is None:
        raise ValueError("hitparade needs a pattern length")
    rows = analysis.hit_parade(k, args.n)
    if args.format == "json":
        _emit_json([r.to_json_dict() for r in rows])
    else:
        n = rows[0].checks["count_at"]
        _emit(f"rank  class         members                       count(n={n})  growth")
        for rank, row in enumerate(rows, start=1):
            members = ",".join(row.members)
            growth = "n/a" if row.growth is None else f"{row.growth:.6f}"
            _emit(f"{rank:<5} {row.pattern:<13} {members:<29} {row.terms[-1]}  {growth}")
    return EXIT_OK


def _cmd_growth(args) -> int:
    p = permcore.parse_pattern(args.pattern)
    report = analysis.avoidance_series((p,), args.n, engine="auto", cap=_resolve_cap(args))
    est = analysis.growth_estimate(report.terms)
    if args.format == "json":
        out = report.to_json_dict()
        out["growth"] = est.estimate
        out["checks"] = {"tail_ratios": est.tail_ratios}
        _emit_json(out)
    else:
        _emit(f"growth = {est.estimate!r}")
        _emit("tail ratios: " + ", ".join(repr(r) for r in est.tail_ratios))
    return EXIT_OK


_HANDLERS = {
    "count": _cmd_count,
    "clusters": _cmd_clusters,
    "crosscheck": _cmd_crosscheck,
    "hitparade": _cmd_hitparade,
    "growth": _cmd_growth,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except permcore.OracleLimitError as exc:
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
