"""Exact enumeration of permutations by consecutive pattern occurrences.

Two complementary polynomial-time engines, cross-validated against brute
force: an incremental append evolution over suffix states (`positive_dp`)
and a cluster-based inclusion-exclusion (`cluster_dp`), both over exact
arbitrary-precision arithmetic (`weightring`).

Importing the package loads none of its modules.  Each public name in
`__all__` is looked up in its home module when it is first read (PEP 562),
so `cwilf.x` is always the object `cwilf.<module>.x`; the modules
themselves (`cwilf.positive_dp`, ...) resolve the same way.  A process that
runs one engine therefore never imports the other.
"""

__version__ = "0.1.0"

# public name -> home module
_HOME = {
    "GrowthEstimate": "analysis",
    "SeriesReport": "analysis",
    "cross_check": "analysis",
    "growth_estimate": "analysis",
    "hit_parade": "analysis",
    "assemble_counts": "cluster_dp",
    "cluster_polys": "cluster_dp",
    "egf_identity_check": "cluster_dp",
    "extend_cluster": "cluster_dp",
    "overlap_set": "cluster_dp",
    "verify_321_equation": "cluster_dp",
    "ClusterWitness": "permcore",
    "OracleLimitError": "permcore",
    "brute_cluster_enum": "permcore",
    "brute_weight_enum": "permcore",
    "complement": "permcore",
    "occurrences": "permcore",
    "parse_pattern": "permcore",
    "parse_pattern_set": "permcore",
    "reduction": "permcore",
    "reverse": "permcore",
    "symmetry_class": "permcore",
    "weight_monomial": "permcore",
    "StateTable": "positive_dp",
    "append_transition": "positive_dp",
    "enumerate_for_patterns": "positive_dp",
    "enumerate_series": "positive_dp",
    "init_table": "positive_dp",
    "step_append": "positive_dp",
    "step_append_aggregated": "positive_dp",
    "PatternAssignment": "weightring",
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
