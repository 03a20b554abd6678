import itertools
from collections import deque

import pytest

import designdim as dd

PG_ORDERS = (2, 3, 4, 5, 7, 8, 9)
HADAMARD_DESIGN_ORDERS = (8, 12, 16, 20)
BIAFFINE_ORDERS = (2, 3, 4, 5)
HADAMARD_NET_ORDERS = (2, 4, 8, 12, 16)


@pytest.fixture(scope="session")
def corpus():
    """Every design family the suite exercises, built once."""
    designs = {}
    for q in PG_ORDERS:
        designs[f"pg{q}"] = dd.projective_plane(q)
    for n in HADAMARD_DESIGN_ORDERS:
        designs[f"hd{n}"] = dd.hadamard_design(dd.hadamard_matrix(n))
    for q in BIAFFINE_ORDERS:
        designs[f"ba{q}"] = dd.biaffine_plane(q)
    for n in HADAMARD_NET_ORDERS:
        designs[f"hstd{n}"] = dd.hadamard_std(dd.hadamard_matrix(n))
    return designs


@pytest.fixture(scope="session")
def fano(corpus):
    return corpus["pg2"]


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Designs small enough for per-subset or per-graph exhaustive work."""
    return {name: corpus[name] for name in ("pg2", "pg3", "ba2", "ba3", "hstd2", "hstd4")}


@pytest.fixture(scope="session")
def corpus_graphs(corpus):
    return {name: dd.incidence_graph(d) for name, d in corpus.items()}


def _bfs_distances(g):
    """Reference all-pairs hop distances: a plain deque BFS from every vertex
    over g.adj, independent of the graph's own distance layers."""
    rows = []
    for src in range(g.n):
        dist = [None] * g.n
        dist[src] = 0
        queue = deque((src,))
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


@pytest.fixture(scope="session")
def bfs_distances():
    return _bfs_distances


def _layer_distance(g, u, w):
    return next(i for i, layer in enumerate(g.layers[u]) if layer >> w & 1)


@pytest.fixture(scope="session")
def layer_distance():
    """The distance from u to w read off the layers of u."""
    return _layer_distance


def _metric_dimension_bruteforce(g, vertex_order=None):
    """Test oracle: increasing-size lexicographic subset enumeration over
    the given vertex order (identity by default).  The pruned solver must
    agree with this on every instance it can reach."""
    order = tuple(vertex_order) if vertex_order is not None else tuple(range(g.n))
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(order, size):
            if dd.is_resolving(g, combo):
                witness = tuple(sorted(combo))
                return dd.MetricDimensionResult(
                    lower=size, upper=size, landmarks=witness, optimal=True
                )
    raise AssertionError("the full vertex set always resolves")


@pytest.fixture(scope="session")
def metric_dimension_bruteforce():
    return _metric_dimension_bruteforce
