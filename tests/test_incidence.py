import random
import sys
import threading

import pytest

import designdim as dd


def _degrees(g):
    return sorted(len(ns) for ns in g.adj)


def test_fano_graph_is_heawood(fano):
    g = dd.incidence_graph(fano)
    assert g.n == 14
    assert _degrees(g) == [3] * 14
    assert g.diameter == 3
    assert dd.girth(g) == 6
    assert g.part is not None


def test_vertex_layout(fano):
    g = dd.incidence_graph(fano)
    assert g.point_count == 7
    for j, blk in enumerate(fano.blocks):
        assert g.adj[7 + j] == blk


def test_adjacency_iff_containment(fano):
    g = dd.incidence_graph(fano)
    for x in range(7):
        for j, blk in enumerate(fano.blocks):
            d = g.dist[x][7 + j]
            if x in blk:
                assert d == 1
            else:
                assert d == 3  # diameter-3 incidence graphs have no other option


def test_biaffine2_graph_is_eight_cycle():
    g = dd.incidence_graph(dd.biaffine_plane(2))
    assert g.n == 8
    assert _degrees(g) == [2] * 8
    assert g.diameter == 4
    cls = dd.classify(g)
    assert cls.bipartite and cls.antipodal and cls.diameter == 4


def test_pappus_graph_shape():
    g = dd.incidence_graph(dd.biaffine_plane(3))
    assert g.n == 18
    assert _degrees(g) == [3] * 18
    assert dd.girth(g) == 6
    assert g.diameter == 4


def test_hadamard_std4_graph_is_four_cube():
    g = dd.incidence_graph(dd.hadamard_std(dd.hadamard_matrix(4)))
    assert g.n == 16
    assert _degrees(g) == [4] * 16
    assert g.diameter == 4
    cls = dd.classify(g)
    assert cls.bipartite and cls.antipodal


def test_incidence_graph_rejects_invalid_design(fano):
    import dataclasses

    broken = dataclasses.replace(fano, blocks=fano.blocks[:6] + ((0, 1, 2),))
    with pytest.raises(ValueError, match="does not validate"):
        dd.incidence_graph(broken)


def test_incidence_graph_is_kept_on_the_design():
    d = dd.projective_plane(2)
    g = dd.incidence_graph(d)
    assert dd.incidence_graph(d) is g
    assert dd.incidence_graph(dd.projective_plane(2)) is not g
    assert all(type(row) is bytes for row in g.dist)


def test_concurrent_first_use_keeps_an_equal_graph():
    d = dd.projective_plane(3)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(dd.incidence_graph(d)))
        for _ in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    kept = dd.incidence_graph(d)
    assert len(results) == 6 and any(g is kept for g in results)
    assert all(g.adj == kept.adj and g.dist == kept.dist for g in results)


# ---------------------------------------------------------------------------
# intersection arrays
# ---------------------------------------------------------------------------

def test_heawood_intersection_array(fano):
    arr = dd.intersection_array(dd.incidence_graph(fano))
    assert arr == dd.design_intersection_array(3, 1)
    assert arr.c == (1, 1, 3) and arr.a == (0, 0, 0, 0) and arr.b == (3, 2, 2)


def test_pappus_intersection_array():
    arr = dd.intersection_array(dd.incidence_graph(dd.biaffine_plane(3)))
    assert arr == dd.net_intersection_array(1, 3)
    assert arr.c == (1, 1, 2, 3) and arr.b == (3, 2, 2, 1)


def test_array_invariants(corpus_graphs):
    """c_1 = 1, a_0 = 0, and c_i + a_i + b_i = k wherever defined."""
    for name, g in corpus_graphs.items():
        arr = dd.intersection_array(g)
        assert isinstance(arr, dd.IntersectionArray), name
        k = arr.valency
        d = arr.diameter
        assert arr.c[0] == 1 and arr.a[0] == 0
        assert arr.a[0] + arr.b[0] == k
        assert arr.c[d - 1] + arr.a[d] == k
        for i in range(1, d):
            assert arr.c[i - 1] + arr.a[i] + arr.b[i] == k, name


def test_chord_breaks_distance_regularity(fano):
    g = dd.incidence_graph(fano)
    adj = [list(ns) for ns in g.adj]
    # join two points; the graph stays connected but is no longer
    # distance-regular (and no longer bipartite)
    adj[0].append(1)
    adj[1].append(0)
    broken = dd.IncidenceGraph(adj)
    result = dd.intersection_array(broken)
    assert isinstance(result, dd.NotDistanceRegular)
    assert result.first_counts != result.counts


def test_not_drg_witness_is_deterministic(fano):
    g = dd.incidence_graph(fano)
    adj = [list(ns) for ns in g.adj]
    adj[0].append(1)
    adj[1].append(0)
    r1 = dd.intersection_array(dd.IncidenceGraph(adj))
    r2 = dd.intersection_array(dd.IncidenceGraph(adj))
    assert r1 == r2


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_families(corpus_graphs, corpus):
    for name, g in corpus_graphs.items():
        cls = dd.classify(g)
        d = corpus[name]
        assert cls.bipartite, name
        if isinstance(d, dd.SymmetricDesign):
            assert cls.diameter == 3 and not cls.antipodal, name
        else:
            assert cls.diameter == 4 and cls.antipodal, name


def test_classify_matching_complement():
    # K_{4,4} minus a perfect matching is the 3-cube: bipartite and antipodal
    g = dd.incidence_graph(dd.point_complement_design(4))
    cls = dd.classify(g)
    assert cls.bipartite and cls.antipodal and cls.diameter == 3


# ---------------------------------------------------------------------------
# distance matrix sanity
# ---------------------------------------------------------------------------

def test_distance_matrix_properties(corpus_graphs):
    rng = random.Random(20240817)
    for name, g in corpus_graphs.items():
        for u in range(g.n):
            assert g.dist[u][u] == 0
        for _ in range(200):
            u, w, x = (rng.randrange(g.n) for _ in range(3))
            assert g.dist[u][w] == g.dist[w][u]
            assert g.dist[u][w] <= g.dist[u][x] + g.dist[x][w]


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="not connected"):
        dd.IncidenceGraph([(1,), (0,), (3,), (2,)])


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_design_recovered_from_graph(corpus, corpus_graphs):
    for name, d in corpus.items():
        assert dd.blocks_from_graph(corpus_graphs[name]) == d.blocks, name


def test_edge_text_round_trip(corpus_graphs):
    for name in ("pg2", "ba3", "hstd4"):
        g = corpus_graphs[name]
        text = dd.to_edge_text(g)
        header = text.splitlines()[0].split()
        assert header[0] == "G"
        assert int(header[1]) == g.n and int(header[2]) == g.edge_count
        g2 = dd.from_edge_text(text)
        assert g2.adj == g.adj
        assert g2.point_count == g.point_count
        assert g2.dist == g.dist


def test_edge_text_rejects_garbage():
    with pytest.raises(ValueError):
        dd.from_edge_text("")
    with pytest.raises(ValueError):
        dd.from_edge_text("G 4 1 2\n0 1\n2 3\n")
    with pytest.raises(ValueError):
        dd.from_edge_text("G 2 1 0\n0 7\n")
    with pytest.raises(ValueError, match="connected"):
        dd.from_edge_text("G 100000000 0 0\n")
