"""The dense oracle's eigenvalues as a multiset, shared by the oracle and
acceptance tests."""

from tetralap import EigenDecomposition
from tetralap.oracle import CLUSTER_TOL


def eigenvalue_multiset(decomp: EigenDecomposition):
    """Clustered (value, multiplicity) pairs, ascending."""
    out: list[tuple[float, int]] = []
    for v in decomp.values:
        if out and abs(v - out[-1][0]) < CLUSTER_TOL:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((float(v), 1))
    return out
