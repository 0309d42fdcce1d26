"""Exact enumeration of permutations by consecutive pattern occurrences.

Two complementary polynomial-time engines, cross-validated against brute
force: an incremental append evolution over suffix states (`positive_dp`)
and a cluster-based inclusion-exclusion (`cluster_dp`), both over exact
arbitrary-precision arithmetic (`weightring`).  Both build on the pattern
primitives (`patterns`), and the positive engine and the oracles weigh
windows with one factor table (`factors`).  The series router is
`analysis`, the command line `cli`, with every command but `count` in
`survey`.  The brute-force oracles
live apart, in `permcore`; the naive forms of the engines, which only the
tests run, live with the tests.

Importing the package loads none of its modules.  Each public name in
`__all__` is looked up in its home module when it is first read (PEP 562),
so `cwilf.x` is always the object `cwilf.<module>.x`; the modules
themselves (`cwilf.positive_dp`, ...) resolve the same way.  A process that
runs one engine therefore never imports the other.
"""

__version__ = "0.1.0"

# public name -> home module
_HOME = {
    "SeriesReport": "analysis",
    "assemble_counts": "cluster_dp",
    "cluster_polys": "cluster_dp",
    "overlap_set": "cluster_dp",
    "OracleLimitError": "patterns",
    "complement": "patterns",
    "occurrences": "patterns",
    "parse_pattern": "patterns",
    "parse_pattern_set": "patterns",
    "reduction": "patterns",
    "reverse": "patterns",
    "symmetry_class": "patterns",
    "brute_weight_enum": "permcore",
    "StateTable": "positive_dp",
    "enumerate_for_patterns": "positive_dp",
    "enumerate_series": "positive_dp",
    "init_table": "positive_dp",
    "step_append_aggregated": "positive_dp",
    "GrowthEstimate": "survey",
    "cross_check": "survey",
    "growth_estimate": "survey",
    "hit_parade": "survey",
    "PatternAssignment": "factors",
    "WeightPoly": "weightring",
}

_SUBMODULES = frozenset(_HOME.values())

__all__ = sorted(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
