"""Cross-method validation, growth estimation, and pattern ranking.

The counting engines are exact; this module compares them against each
other and against the brute-force oracles, estimates asymptotic growth from
term ratios, and ranks the patterns of a given length by how many
permutations avoid them.  Floats appear here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import cluster_dp, permcore, positive_dp
from .weightring import InconsistentResult, PatternAssignment, WeightPoly, term_text

# Series depth mirroring what the engines are expected to sustain per
# pattern length; single patterns run on the cluster engine at these
# depths, pattern sets on the positive engine.
DEFAULT_DEPTH = {3: 200, 4: 60, 5: 40, 6: 30}


@dataclass
class SeriesReport:
    """One pattern (or pattern set) with its computed series and metadata."""
    pattern: str
    representative: str
    members: tuple[str, ...]
    method: str
    terms: list
    growth: float | None = None
    checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "representative": self.representative,
            "class": list(self.members),
            "method": self.method,
            "terms": [term_text(t) for t in self.terms],
            "growth": self.growth,
            "checks": self.checks,
        }


@dataclass
class GrowthEstimate:
    estimate: float
    tail_ratios: list[float]


def growth_estimate(counts: Sequence[int]) -> GrowthEstimate:
    """Estimate lim a_n / (n * a_{n-1}) from an exact count sequence.

    The raw ratios converge like L + O(1/n); one Richardson step
    (n*r_n - (n-1)*r_{n-1}) removes the 1/n term.  The last five raw ratios
    come along so callers can judge convergence themselves.
    """
    N = len(counts) - 1
    if N < 10:
        raise ValueError("need at least 11 terms")
    if any(c <= 0 for c in counts):
        raise ValueError("counts must be positive")
    ratios = [Fraction(counts[n], n * counts[n - 1]) for n in range(1, N + 1)]
    refined = N * ratios[-1] - (N - 1) * ratios[-2]
    return GrowthEstimate(float(refined), [float(r) for r in ratios[-5:]])


def _int_terms(series: Sequence) -> list[int]:
    out = []
    for w in series:
        out.append(w.constant_value() if isinstance(w, WeightPoly) else int(w))
    return out


def _check_brute_depth(N: int, cap: int | None) -> None:
    # refuse before burning minutes on the sizes below the cap
    limit = permcore.DEFAULT_PERM_CAP if cap is None else cap
    if N > limit:
        raise permcore.OracleLimitError(f"oracle limit: n={N} exceeds cap {limit}")


def avoidance_series(patterns: Sequence[Sequence[int]], N: int,
                     engine: str = "auto", cap: int | None = None) -> SeriesReport:
    """Avoidance counts for sizes 0..N, with the engine recorded.

    auto routes single patterns to the cluster engine (on the cheapest
    symmetry-class member, with t specialized to 0 up front) and pattern
    sets to the positive engine; brute is only used when asked.  The terms
    below and at the shortest pattern length are checked against their
    closed form before returning (`InconsistentResult` on a mismatch).
    """
    patterns = tuple(tuple(p) for p in patterns)
    pattern_text = ";".join(permcore.format_pattern(p) for p in patterns)
    if engine == "auto":
        engine = "factorial" if not patterns else ("cluster" if len(patterns) == 1 else "positive")
    if engine == "factorial" or not patterns:
        terms = [1]
        for n in range(1, N + 1):
            terms.append(terms[-1] * n)
        return SeriesReport(pattern_text, pattern_text, (), "factorial", terms)
    members = tuple(permcore.format_pattern(q) for q in
                    (permcore.symmetry_class(patterns[0]) if len(patterns) == 1 else patterns))
    if engine == "cluster":
        if len(patterns) != 1:
            raise ValueError("cluster engine handles a single pattern")
        rep = cluster_dp.choose_representative(patterns[0])
        terms = cluster_dp.assemble_counts(rep, N, t_value=0)
        report = SeriesReport(pattern_text, permcore.format_pattern(rep), members,
                              "cluster", terms)
    elif engine == "positive":
        series = positive_dp.enumerate_for_patterns(avoid=patterns, N=N)
        report = SeriesReport(pattern_text, pattern_text, members,
                              "positive", _int_terms(series))
    elif engine == "brute":
        _check_brute_depth(N, cap)
        lengths = {len(p) for p in patterns}
        terms = []
        if len(lengths) == 1:
            assignment = PatternAssignment.avoiding(patterns)
            for n in range(N + 1):
                terms.append(permcore.brute_weight_enum(n, assignment.k, assignment,
                                                        cap=cap).constant_value())
        else:
            for n in range(N + 1):
                terms.append(permcore.brute_avoider_count(patterns, n, cap=cap))
        report = SeriesReport(pattern_text, pattern_text, members, "brute", terms)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    _check_initial_terms(patterns, report.terms)
    return report


def _check_initial_terms(patterns: Sequence[tuple[int, ...]], terms: Sequence[int]) -> None:
    """a_n = n! below the shortest pattern length k; a_k = k! - |length-k patterns|."""
    k = min(map(len, patterns))
    fact = 1
    for n, a in enumerate(terms[:k + 1]):
        fact *= n or 1
        expected = fact - (n == k) * len({p for p in patterns if len(p) == k})
        if a != expected:
            raise InconsistentResult(f"avoidance count a_{n} = {a}, expected {expected}")


def tracked_series(track: Sequence[Sequence[int]], avoid: Sequence[Sequence[int]] = (),
                   N: int = 0, engine: str = "auto", cap: int | None = None) -> SeriesReport:
    """Occurrence-tracking series: polynomial terms in the tracked variables.

    With nothing forbidden, every term's value at 1 and first moments are
    checked against their closed forms before returning
    (`InconsistentResult` on a mismatch).
    """
    track = tuple(tuple(p) for p in track)
    avoid = tuple(tuple(p) for p in avoid)
    if not track:
        raise ValueError("nothing tracked")
    pattern_text = ";".join(permcore.format_pattern(p) for p in track + avoid)
    members = tuple(permcore.format_pattern(p) for p in track + avoid)
    if engine == "auto":
        engine = "cluster" if (len(track) == 1 and not avoid) else "positive"
    if engine == "cluster":
        if len(track) != 1 or avoid:
            raise ValueError("cluster engine tracks a single pattern")
        members = tuple(permcore.format_pattern(q) for q in permcore.symmetry_class(track[0]))
        rep = cluster_dp.choose_representative(track[0])
        terms = cluster_dp.assemble_counts(rep, N)
        report = SeriesReport(pattern_text, permcore.format_pattern(rep), members,
                              "cluster", terms)
    elif engine == "positive":
        series = positive_dp.enumerate_for_patterns(avoid=avoid, track=track, N=N)
        report = SeriesReport(pattern_text, pattern_text, members, "positive", series)
    elif engine == "brute":
        _check_brute_depth(N, cap)
        assignment = positive_dp.build_assignment(avoid=avoid, track=track)
        if not isinstance(assignment, PatternAssignment):
            raise ValueError("brute tracking needs patterns of one length")
        terms = [permcore.brute_weight_enum(n, assignment.k, assignment, cap=cap)
                 for n in range(N + 1)]
        report = SeriesReport(pattern_text, pattern_text, members, "brute", terms)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if not avoid:
        _check_first_moments(track, report.terms)
    return report


def _check_first_moments(track: Sequence[tuple[int, ...]], terms: Sequence[WeightPoly]) -> None:
    """P_n(1) = n! and dP_n/dt_i(1) = (n-m+1) n!/m! for tracked pattern i of length m.

    A uniform permutation of size n has n-m+1 windows of length m, each of
    which reduces to a given pattern with probability 1/m!.
    """
    fact = 1
    for n, poly in enumerate(terms):
        fact *= n or 1
        mass = 0
        moments = [0] * len(track)
        for exps, c in poly.items():
            mass += c
            for i, e in enumerate(exps):
                moments[i] += c * e
        if mass != fact:
            raise InconsistentResult(f"P_{n}(1) = {mass}, expected {fact}")
        for p, got in zip(track, moments):
            m = len(p)
            expected = (n - m + 1) * (fact // math.factorial(m)) if n >= m else 0
            if got != expected:
                raise InconsistentResult(
                    f"first moment of {permcore.format_pattern(p)} in P_{n}: {got}, "
                    f"expected {expected}")


@dataclass
class CrossCheckReport:
    patterns: tuple[str, ...]
    n_max: int
    methods: tuple[str, ...]
    rows: list[dict]                 # per n: {"n": n, "equal": bool, "terms": {...}}
    discrepancies: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    @property
    def first_discrepancy(self) -> dict | None:
        return self.discrepancies[0] if self.discrepancies else None


def cross_check(patterns: Sequence[Sequence[int]], n_max: int,
                cap: int | None = None) -> CrossCheckReport:
    """Run every applicable method side by side and compare exactly.

    Single pattern: brute, positive, and cluster, compared on the full
    occurrence polynomials.  Same-length sets: brute and positive on
    avoidance.  Mixed-length sets: direct scan versus the lifted positive
    engine.  Discrepancies are report content, never exceptions.
    """
    patterns = tuple(tuple(p) for p in patterns)
    texts = tuple(permcore.format_pattern(p) for p in patterns)
    columns: dict[str, list] = {}
    if not patterns:
        fact = [1]
        for n in range(1, n_max + 1):
            fact.append(fact[-1] * n)
        assignment = PatternAssignment.all_one(2)
        columns["brute"] = [permcore.brute_weight_enum(n, 2, assignment, cap=cap)
                            for n in range(n_max + 1)]
        columns["positive"] = positive_dp.enumerate_series(2, assignment, n_max)
        columns["factorial"] = fact
    elif len(patterns) == 1:
        p = patterns[0]
        assignment = PatternAssignment.tracking([p])
        columns["brute"] = [permcore.brute_weight_enum(n, len(p), assignment, cap=cap)
                            for n in range(n_max + 1)]
        columns["positive"] = positive_dp.enumerate_series(len(p), assignment, n_max)
        columns["cluster"] = cluster_dp.assemble_counts(p, n_max)
    elif len({len(p) for p in patterns}) == 1:
        assignment = PatternAssignment.avoiding(patterns)
        columns["brute"] = [permcore.brute_weight_enum(n, assignment.k, assignment, cap=cap)
                            for n in range(n_max + 1)]
        columns["positive"] = positive_dp.enumerate_series(assignment.k, assignment, n_max)
    else:
        columns["brute"] = [permcore.brute_avoider_count(patterns, n, cap=cap)
                            for n in range(n_max + 1)]
        columns["positive"] = _int_terms(
            positive_dp.enumerate_for_patterns(avoid=patterns, N=n_max))
    methods = tuple(columns)
    rows = []
    discrepancies = []
    for n in range(n_max + 1):
        texts_by_method = {m: term_text(columns[m][n]) for m in methods}
        distinct = set(texts_by_method.values())
        equal = len(distinct) == 1
        rows.append({"n": n, "equal": equal, "terms": texts_by_method})
        if not equal:
            discrepancies.append({"n": n, "terms": texts_by_method})
    return CrossCheckReport(texts, n_max, methods, rows, discrepancies)


def hit_parade(k: int, N: int | None = None) -> list[SeriesReport]:
    """Rank the symmetry classes of length-k patterns by avoider count.

    One row per class, sorted by the count at size N descending; each row
    carries the class members, the representative that actually ran, the
    count, and a growth estimate.
    """
    if k not in DEFAULT_DEPTH:
        raise ValueError(f"hit parade supports lengths {sorted(DEFAULT_DEPTH)}")
    if N is None:
        N = DEFAULT_DEPTH[k]
    seen = set()
    rows = []
    for p in permcore.all_patterns(k):
        if p in seen:
            continue
        members = permcore.symmetry_class(p)
        seen.update(members)
        rep = cluster_dp.choose_representative(p)
        terms = cluster_dp.assemble_counts(rep, N, t_value=0)
        _check_initial_terms((rep,), terms)
        growth = growth_estimate(terms).estimate if N >= 10 else None
        rows.append(SeriesReport(
            pattern=permcore.format_pattern(members[0]),
            representative=permcore.format_pattern(rep),
            members=tuple(permcore.format_pattern(q) for q in members),
            method="cluster",
            terms=terms,
            growth=growth,
            checks={"count_at": N},
        ))
    rows.sort(key=lambda r: (-r.terms[-1], r.pattern))
    return rows
