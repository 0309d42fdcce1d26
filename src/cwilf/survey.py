"""The commands besides `count`: clusters, crosscheck, hitparade, growth.

`cli.main` imports this module only to run one of these four, so a `count`
process never compiles it.  Besides their handlers it holds what only they
use: the cross-method comparison (`cross_check`), the growth estimate from
term ratios and the ranking of the patterns of a given length by how many
permutations avoid them (`hit_parade`).  Floats appear here and nowhere
else.  Every series still comes from the router (`analysis._series`), and
`clusters` takes its class, label and run member from the router's
`analysis._cluster_route`: its C_n(t) comes from the cheapest member,
whose counts at t = 0 must equal every member's probe counts and whose
terms must pass the two-atom check (`_check_two_atoms`) on their first two
coefficients in u = t - 1, read off the t coefficients with binomials.  It
takes the number of two-atom clusters from the window pairs of the moment
checks: the product over the gaps of the shared values of binomials that
interleave the two atoms' own entries (`weightring._window_pairs`).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import comb

from .analysis import SeriesReport, _cluster_route, _series, avoidance_series
from .cli import EXIT_INCONSISTENT, EXIT_OK, _emit, _emit_json, _resolve_cap
from .patterns import (
    InconsistentResult,
    _refuse_above_cap,
    all_patterns,
    format_pattern,
    parse_pattern,
    parse_pattern_set,
)

# Series depth mirroring what the engines are expected to sustain per
# pattern length; single patterns run on the cluster engine at these
# depths, pattern sets on the positive engine.
DEFAULT_DEPTH = {3: 200, 4: 60, 5: 40, 6: 30}


class GrowthEstimate(namedtuple("GrowthEstimate", "estimate tail_ratios")):
    """The refined limit and the last five raw ratios (floats)."""
    __slots__ = ()


def growth_estimate(counts: Sequence[int]) -> GrowthEstimate:
    """Estimate lim a_n / (n * a_{n-1}) from an exact count sequence.

    When the raw ratios r_n converge like L + c/n, one Richardson step
    (n*r_n - (n-1)*r_{n-1}) removes the 1/n term; when they converge
    geometrically, as for consecutive patterns, the step makes the estimate
    worse.  So the 1/n model is fitted through r_{N-2} and r_{N-1}, and the
    step is taken only if that model predicts r_N better than r_{N-1} does;
    otherwise the estimate is r_N.  The last five raw ratios come along so
    callers can judge convergence themselves.
    """
    N = len(counts) - 1
    if N < 10:
        raise ValueError("need at least 11 terms")
    if any(c <= 0 for c in counts):
        raise ValueError("counts must be positive")
    from fractions import Fraction

    ratios = [Fraction(counts[n], n * counts[n - 1]) for n in range(1, N + 1)]
    older, prev, last = ratios[-3:]
    limit = (N - 1) * prev - (N - 2) * older  # the 1/n model through older, prev
    predicted = limit + (N - 1) * (prev - limit) / N
    refined = N * last - (N - 1) * prev if abs(predicted - last) < abs(prev - last) else last
    return GrowthEstimate(float(refined), [float(r) for r in ratios[-5:]])


class CrossCheckReport:
    """Every method's terms per size, and the sizes where they differ."""

    def __init__(self, patterns: tuple[str, ...], n_max: int, methods: tuple[str, ...],
                 rows: list[dict], discrepancies: list[dict] | None = None):
        self.patterns = patterns
        self.n_max = n_max
        self.methods = methods
        self.rows = rows                 # per n: {"n": n, "equal": bool, "terms": {...}}
        self.discrepancies = [] if discrepancies is None else discrepancies

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    @property
    def first_discrepancy(self) -> dict | None:
        return self.discrepancies[0] if self.discrepancies else None


def cross_check(patterns: Sequence[Sequence[int]], n_max: int,
                cap: int | None = None) -> CrossCheckReport:
    """Run every applicable method side by side and compare exactly.

    Each column of a non-empty family is `_series` on one engine: a single
    pattern is tracked on brute, positive and cluster and compared on its
    occurrence polynomials, a set is avoided on brute and positive.  So the
    router's up-front cap refusal (`OracleLimitError`) and its runtime
    checks (`InconsistentResult`) apply; disagreements between the columns
    are report content.  The empty family compares the window oracle and
    the positive engine, with no pattern, against the factorials, and
    refuses an n_max above the cap up front as well.
    """
    patterns = tuple(tuple(p) for p in patterns)
    if patterns:
        single = len(patterns) == 1
        avoid, track = ((), patterns) if single else (patterns, ())
        engines = ("brute", "positive", "cluster") if single else ("brute", "positive")
        columns = {e: _series(avoid, track, n_max, e, cap).terms for e in engines}
    else:
        from . import permcore, positive_dp
        from .factors import PatternAssignment

        _refuse_above_cap(n_max, cap)
        assignment = PatternAssignment.all_one(2)
        columns = {
            "brute": [permcore.brute_weight_enum(n, 2, assignment, cap=cap)
                      for n in range(n_max + 1)],
            "positive": positive_dp.enumerate_series(2, assignment, n_max),
            "factorial": _series((), (), n_max).terms,
        }
    methods = tuple(columns)
    rows = []
    discrepancies = []
    for n, texts in enumerate(zip(*(map(str, c) for c in columns.values()))):
        terms = dict(zip(methods, texts))
        equal = len(set(texts)) == 1
        rows.append({"n": n, "equal": equal, "terms": terms})
        if not equal:
            discrepancies.append({"n": n, "terms": terms})
    return CrossCheckReport(tuple(map(format_pattern, patterns)), n_max, methods,
                            rows, discrepancies)


def hit_parade(k: int, N: int | None = None) -> list[SeriesReport]:
    """Rank the symmetry classes of length-k patterns by avoider count.

    One row per class, sorted by the count at size N descending; each row
    carries the class members, the lexicographically smallest as the
    representative, the counts and a growth estimate.  Each class runs on
    its cheapest member, checked against the others (`_series`).
    """
    if k not in DEFAULT_DEPTH:
        raise ValueError(f"hit parade supports lengths {sorted(DEFAULT_DEPTH)}")
    if N is None:
        N = DEFAULT_DEPTH[k]
    seen = set()
    rows = []
    for p in all_patterns(k):
        if format_pattern(p) in seen:
            continue
        row = _series((p,), (), N, "cluster")
        seen.update(row.members)
        row.growth = growth_estimate(row.terms).estimate if N >= 10 else None
        row.checks = {"count_at": N}
        rows.append(row)
    rows.sort(key=lambda r: (-r.terms[-1], r.pattern))
    return rows


# -- the command handlers ----------------------------------------------------

def _check_two_atoms(p: tuple[int, ...], terms: Sequence[WeightPoly]) -> None:
    """[u]C_n = [n = k] and [u^2]C_n = e(n-k) for the cluster enumerators
    C_n of a pattern of length k, e(d) counting the two-atom clusters whose
    second atom starts d after the first (`_window_pairs`; 0 unless
    0 < d < k).  [u^i]C_n is read off the coefficients c_j of C_n(t) as
    sum_j C(j, i)*c_j, t^j being (u+1)^j."""
    from .weightring import _window_pairs

    k = len(p)
    two_atoms = _window_pairs(p, p)  # offset d at index d+k-1
    for n, c in enumerate(terms):
        d = n - k
        for i, expected in ((1, int(d == 0)), (2, two_atoms[d + k - 1][1] if 0 < d < k else 0)):
            got = sum(comb(j, i) * c_j for (j,), c_j in c.items())
            if got != expected:
                raise InconsistentResult(f"[u^{i}]C_{n} = {got}, expected {expected}")


def _cmd_clusters(args) -> int:
    p = parse_pattern(args.pattern)
    from . import cluster_dp

    members, label, run, check_members = _cluster_route(p, args.n)
    terms = cluster_dp.cluster_polys(run, args.n)
    _check_two_atoms(run, terms)
    check_members(cluster_dp._chop([c.coefficient((0,)) for c in terms], len(p)))
    if args.format == "json":
        _emit_json(SeriesReport(format_pattern(p), label, tuple(map(format_pattern, members)),
                                "cluster", terms).to_json_dict())
    else:
        for n, c in enumerate(terms):
            _emit(f"C[{n}] = {c}")
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    if args.all_s3 and args.patterns is not None:
        raise ValueError("crosscheck got a pattern set and --all-s3; give one")
    if args.all_s3:
        pattern_sets = [(p,) for p in all_patterns(3)]
    elif args.patterns is not None:
        pattern_sets = [parse_pattern_set(args.patterns)]
    else:
        raise ValueError("crosscheck needs a pattern set or --all-s3")
    cap = _resolve_cap(args)
    reports = [cross_check(ps, args.n, cap=cap) for ps in pattern_sets]
    total = sum(len(r.discrepancies) for r in reports)
    if args.format == "json":
        checks = {
            "n": args.n,
            "discrepancies": total,
            "methods": sorted({m for r in reports for m in r.methods}),
            "first": next((r.first_discrepancy for r in reports if not r.ok), None),
        }
        pattern = " | ".join(";".join(r.patterns) for r in reports)
        _emit_json(SeriesReport(pattern, None, (), "crosscheck", [],
                                checks=checks).to_json_dict())
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
    if None not in (args.k, args.k_flag) and args.k != args.k_flag:
        raise ValueError(f"hitparade got length {args.k} and --k {args.k_flag}; give one")
    k = args.k if args.k is not None else args.k_flag
    if k is None:
        raise ValueError("hitparade needs a pattern length")
    rows = hit_parade(k, args.n)
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
    p = parse_pattern(args.pattern)
    report = avoidance_series((p,), args.n)
    est = growth_estimate(report.terms)
    if args.format == "json":
        out = report.to_json_dict()
        out["growth"] = est.estimate
        out["checks"] = {"tail_ratios": est.tail_ratios}
        _emit_json(out)
    else:
        _emit(f"growth = {est.estimate!r}")
        _emit("tail ratios: " + ", ".join(repr(r) for r in est.tail_ratios))
    return EXIT_OK


HANDLERS = {
    "clusters": _cmd_clusters,
    "crosscheck": _cmd_crosscheck,
    "hitparade": _cmd_hitparade,
    "growth": _cmd_growth,
}
