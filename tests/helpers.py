"""Shared test utilities: random generators and tiny independent oracles."""

import itertools

from cwilf import cluster_dp, patterns
from cwilf.positive_dp import StateTable
from cwilf.weightring import WeightPoly


def random_poly(rng, nvars, max_terms=5, max_exp=4, max_coeff=30):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = rng.randint(-max_coeff, max_coeff)
    return WeightPoly(nvars, terms)


def random_cells(rng, k, n, nvars=1, cells=12):
    """Arbitrary (not necessarily reachable) valid nonzero cells of size n."""
    pats = patterns.all_patterns(k - 1)
    table = {}
    for _ in range(cells):
        q = pats[rng.randrange(len(pats))]
        j = tuple(sorted(rng.sample(range(1, n + 1), k - 1)))
        w = random_poly(rng, nvars)
        if not w:
            w = WeightPoly.const(rng.randint(1, 5), nvars)
        key = (q, j)
        table[key] = table.get(key, WeightPoly.zero(nvars)) + w
    return {s: w for s, w in table.items() if w}


def random_state_table(rng, k, n, nvars=1, cells=12):
    """An arbitrary (not necessarily reachable) valid table for step tests."""
    return StateTable(n, k, random_cells(rng, k, n, nvars, cells))


def filtering_cluster_enum(n, p):
    """Cluster enumerator by filtering all (permutation, subset) pairs.

    Exponentially slow; exists to validate the chain-extension oracle at
    tiny sizes via a completely different route.
    """
    k = len(p)
    t_minus_1 = WeightPoly(1, {(1,): 1, (0,): -1})
    total = WeightPoly.zero(1)
    for pi in itertools.permutations(range(1, n + 1)):
        occ = patterns.occurrences(pi, p)
        for r in range(1, len(occ) + 1):
            for sub in itertools.combinations(occ, r):
                if sub[0] != 1 or sub[-1] + k - 1 != n:
                    continue
                if any(b - a > k - 1 for a, b in zip(sub, sub[1:])):
                    continue
                total = total + t_minus_1 ** r
    return total


def factorials(N):
    out = [1]
    for n in range(1, N + 1):
        out.append(out[-1] * n)
    return out


def choose_orientation(p, N):
    """The member of p's symmetry class that the cluster route runs to size N:
    the first of `cluster_dp.rank_orientations`."""
    return cluster_dp.rank_orientations(p, N)[0][1]
