"""C_n(t) decoded at t = 2^B against the u = t - 1 reference.

`cluster_polys` reads the cluster enumerators' signed t coefficients
straight off their value at t = 2^B.  The reference decodes them in u at
u = 2^B, where every coefficient is nonnegative, and moves them to t by
Horner's rule in the polynomial ring.
"""

import pytest

from cwilf.cluster_dp import cluster_polys
from cwilf.patterns import all_patterns, symmetry_class
from reference import cluster_polys_shifted, compose_shift


@pytest.mark.parametrize("patterns, N", [
    *((all_patterns(k), 3 * k) for k in (2, 3, 4, 5)),
    (sorted({min(symmetry_class(p)) for p in all_patterns(6)}), 18),
    ([(1, 2, 3)], 100),
], ids=["2", "3", "4", "5", "6", "123"])
def test_t_decoding_matches_the_shifted_reference(patterns, N):
    for p in patterns:
        expected = [compose_shift(c, -1) for c in cluster_polys_shifted(p, N)]
        assert cluster_polys(p, N) == expected, p
