import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from simplicent import example_complex, example_graph, spectral_decomposition  # noqa: E402


@pytest.fixture(scope="session")
def fig_graph():
    return example_graph()


@pytest.fixture(scope="session")
def fig(fig_graph):
    return example_complex(3)


def sid(c, k, labels):
    """Simplex ID from the original node labels, e.g. sid(c, 1, '14')."""
    idx = c.graph.label_index()
    return c.simplex_id(k, sorted(idx[ch] for ch in labels))


def whole_level_eigenpairs(c, k):
    """Eigenvalues (descending) and eigenvectors of the whole combined level-k
    adjacency: those of :func:`spectral_decomposition` on the simplices it
    covers, and (0, e_i) for each isolated simplex i that it leaves out."""
    spec = spectral_decomposition(c, k)
    n, size = c.n_simplices(k), spec.simplices.size
    w = np.concatenate([spec.eigenvalues, np.zeros(n - size)])
    v = np.zeros((n, n))
    v[spec.simplices, :size] = spec.eigenvectors
    v[np.setdiff1d(np.arange(n), spec.simplices), np.arange(size, n)] = 1.0
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]
