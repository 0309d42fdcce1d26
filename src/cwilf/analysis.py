"""The series router behind `count`, `growth` and `hitparade`.

One router, `_series`, serves `count`, `growth`, `hitparade` and every
`crosscheck` column of a non-empty family: it alone picks the engine, the
member list and the label, guards the brute-force depth and runs the
runtime checks.  On the cluster engine the class, its label and the member
that runs come from `_cluster_route`, which `clusters` calls too.  The
checks compare against closed forms.  The moment checks of tracked series
(`weightring._check_moments`) live on the polynomial side, which every
tracked route loads anyway, so the cluster engine's avoidance route never
compiles them.  The engines are exact, and so is everything here.

Each route imports the engine it runs where it runs it, so a process that
counts with one engine never loads the other.  The weight ring
(`weightring`) comes with the positive engine, whose factor table
(`PatternAssignment`) lives there, and with the routes that build
polynomials (tracking, brute force); the cluster engine's avoidance route
never loads it.  Only brute force loads the oracles (`permcore`).

Cross-checks, growth estimates and the hit parade live with the commands
that use them (`survey`).
"""

from __future__ import annotations

from collections.abc import Sequence

from .patterns import InconsistentResult, _refuse_above_cap, format_pattern, symmetry_class


class SeriesReport:
    """One pattern (or pattern set) with its computed series and metadata."""

    def __init__(self, pattern: str, representative: str, members: tuple[str, ...],
                 method: str, terms: list, growth: float | None = None,
                 checks: dict | None = None):
        self.pattern = pattern
        self.representative = representative
        self.members = members
        self.method = method
        self.terms = terms
        self.growth = growth
        self.checks = {} if checks is None else checks

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "representative": self.representative,
            "class": list(self.members),
            "method": self.method,
            "terms": list(map(str, self.terms)),
            "growth": self.growth,
            "checks": self.checks,
        }


def avoidance_series(patterns: Sequence[Sequence[int]], N: int,
                     engine: str = "auto", cap: int | None = None) -> SeriesReport:
    """Avoidance counts for sizes 0..N, with the engine recorded (`_series`)."""
    return _series(patterns, (), N, engine, cap)


def tracked_series(track: Sequence[Sequence[int]], avoid: Sequence[Sequence[int]] = (),
                   N: int = 0, engine: str = "auto", cap: int | None = None) -> SeriesReport:
    """Occurrence-tracking series: polynomial terms in the tracked variables
    (`_series`)."""
    if not track:
        raise ValueError("nothing tracked")
    return _series(avoid, track, N, engine, cap)


def _series(avoid: Sequence[Sequence[int]], track: Sequence[Sequence[int]], N: int,
            engine: str = "auto", cap: int | None = None) -> SeriesReport:
    """The one route from a query to its report: engine, label, members, checks.

    auto sends a single pattern, avoided or tracked, to the cluster engine
    and a set to the positive engine; with no pattern the terms are n!.
    brute runs only when asked and refuses an N above the cap up front.
    The cluster engine runs the cheapest member of the pattern's symmetry
    class, checked against the others (`_cluster_route`), and reports the
    lexicographically smallest member, the first of the sorted class, as
    the representative: counts are identical across the class but the work
    is not, so the label is fixed and the run is chosen.  (The overlap set
    is the same for every member, as reverse and complement preserve it, so
    it cannot rank them.)  A single avoided pattern lists its whole class
    on every engine, a tracked one only on the cluster engine; otherwise
    the patterns stand for themselves.

    Avoidance terms are integers whose terms below and at the shortest
    pattern length must match their closed form; tracked terms are
    polynomials whose values at 1, first and second moments must match
    theirs when nothing is forbidden (`InconsistentResult` on a mismatch).
    """
    avoid = tuple(tuple(p) for p in avoid)
    track = tuple(tuple(p) for p in track)
    patterns = track + avoid
    text = ";".join(format_pattern(p) for p in patterns)
    if not patterns:
        terms = [1]
        for n in range(1, N + 1):
            terms.append(terms[-1] * n)
        return SeriesReport(text, text, (), "factorial", terms)
    single = len(patterns) == 1
    if engine == "auto":
        engine = "cluster" if single else "positive"
    members = symmetry_class(patterns[0]) if single and not track else patterns
    rep = text
    if engine == "cluster":
        if not single:
            raise ValueError("cluster engine tracks a single pattern" if track
                             else "cluster engine handles a single pattern")
        from . import cluster_dp

        members, rep, run, check_members = _cluster_route(patterns[0], N)
        terms = cluster_dp.assemble_counts(run, N, None if track else 0)
        check_members([w.coefficient((0,)) for w in terms] if track else terms)
    elif engine == "positive":
        from . import positive_dp

        terms = positive_dp.enumerate_for_patterns(avoid=avoid, track=track, N=N)
    elif engine == "brute":
        from . import permcore

        _refuse_above_cap(N, cap)
        if len({len(p) for p in patterns}) == 1:
            from .weightring import PatternAssignment

            assignment = PatternAssignment(len(patterns[0]), zero=avoid, tracked=track)
            terms = [permcore.brute_weight_enum(n, assignment.k, assignment, cap=cap)
                     for n in range(N + 1)]
        elif track:
            raise ValueError("brute tracking needs patterns of one length")
        else:
            terms = [permcore.brute_avoider_count(avoid, n, cap=cap) for n in range(N + 1)]
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if not track:
        terms = [w if isinstance(w, int) else w.constant_value() for w in terms]
        _check_initial_terms(avoid, terms)
    elif not avoid:
        from .weightring import _check_moments

        _check_moments(track, terms)
    return SeriesReport(text, rep, tuple(map(format_pattern, members)), engine, terms)


def _cluster_route(p: tuple[int, ...], N: int):
    """The cluster engine's choice for one pattern to size N: (members,
    label, run, check_members).

    Every member of p's symmetry class is probed
    (`cluster_dp.rank_orientations`); the class is sorted, its first member
    is the label and the cheapest member runs.  check_members takes the
    run's avoidance counts and raises `InconsistentResult` unless they equal
    each member's probe counts: the other members build different tables,
    so a fault in the tables of one shows as a mismatch.
    """
    from . import cluster_dp

    ranked = cluster_dp.rank_orientations(p, N)
    run = ranked[0][1]

    def check_members(counts: Sequence[int]) -> None:
        for _work, q, probe in ranked:
            for n, (a, b) in enumerate(zip(counts, probe)):
                if a != b:
                    raise InconsistentResult(
                        f"avoidance count a_{n} = {a} on {format_pattern(run)}, "
                        f"{b} on {format_pattern(q)}")

    members = tuple(sorted(q for _work, q, _probe in ranked))
    return members, format_pattern(members[0]), run, check_members


def _check_initial_terms(patterns: Sequence[tuple[int, ...]], terms: Sequence[int]) -> None:
    """a_n = n! below the shortest pattern length k; a_k = k! - |length-k patterns|."""
    k = min(map(len, patterns))
    fact = 1
    for n, a in enumerate(terms[:k + 1]):
        fact *= n or 1
        expected = fact - (n == k) * len({p for p in patterns if len(p) == k})
        if a != expected:
            raise InconsistentResult(f"avoidance count a_{n} = {a}, expected {expected}")
