import dataclasses
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designdim as dd
from designdim import incidence
from designdim.designs import _count_is, _tally, _tally_is


def _degrees(g):
    return sorted(len(ns) for ns in g.adj)


def test_fano_graph_is_heawood(fano):
    g = dd.incidence_graph(fano)
    assert g.n == 14
    assert _degrees(g) == [3] * 14
    assert g.diameter == 3
    assert g.part is not None


def test_vertex_layout(fano):
    g = dd.incidence_graph(fano)
    assert g.point_count == 7
    for j, blk in enumerate(fano.blocks):
        assert g.adj[7 + j] == blk


def test_adjacency_iff_containment(fano, layer_distance):
    g = dd.incidence_graph(fano)
    for x in range(7):
        for j, blk in enumerate(fano.blocks):
            d = layer_distance(g, x, 7 + j)
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
    assert all(type(row) is tuple for row in g.layers)
    assert all(type(layer) is int for row in g.layers for layer in row)


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
    assert all(g.adj == kept.adj and g.layers == kept.layers for g in results)


def _relabelled(d, seed):
    """An isomorphic copy of d under seeded point, block and class orders."""
    rng = random.Random(seed)
    point = list(range(d.point_count))
    rng.shuffle(point)

    def relabel(rows):
        return tuple(tuple(sorted(point[x] for x in row)) for row in rows)

    blocks = list(relabel(d.blocks))
    rng.shuffle(blocks)
    e = dataclasses.replace(d, blocks=tuple(blocks))
    if isinstance(d, dd.TransversalDesign):
        e = dataclasses.replace(e, classes=relabel(d.classes))
    return e


def test_design_graph_equals_adjacency_list_build(corpus, reference_incidence_graph):
    """The graph of a design equals the one the checked constructor builds
    from its adjacency lists: every corpus design and net, their duals, and
    relabelled copies of larger ones."""
    cases = list(corpus.items())
    cases += [(f"dual {name}", dd.dual(d)) for name, d in corpus.items()]
    larger = {
        "pg13": dd.projective_plane(13),
        "hd64": dd.hadamard_design(dd.hadamard_matrix(64)),
        "hstd32": dd.hadamard_std(dd.hadamard_matrix(32)),
        "ba11": dd.biaffine_plane(11),
    }
    cases += [(f"relabelled {name}", _relabelled(d, name)) for name, d in larger.items()]
    for name, d in cases:
        got, want = dd.incidence_graph(d), reference_incidence_graph(d)
        for attr in ("n", "adj", "nbr", "layers", "part", "diameter", "point_count"):
            assert getattr(got, attr) == getattr(want, attr), (name, attr)


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
    # the first conflict in vertex-index order: pairs (u, w) by u, then w
    assert r1 == dd.NotDistanceRegular(
        distance=2, first_pair=(0, 2), first_counts=(1, 1, 1), pair=(0, 6), counts=(1, 0, 2)
    )


def _with_edge(g, u, w):
    adj = [list(ns) for ns in g.adj]
    adj[u].append(w)
    adj[w].append(u)
    return dd.IncidenceGraph(adj)


def test_intersection_array_matches_reference(corpus_graphs, reference_intersection_array):
    """Every corpus graph, and copies with one chord: two points (not
    bipartite), vertex 0 and the first vertex at distance 3 from it (still
    bipartite on a design, where that vertex is a block) and the last two
    vertices."""
    for name, g in corpus_graphs.items():
        assert dd.intersection_array(g) == reference_intersection_array(g), name
        far = g.layers[0][3] & -g.layers[0][3]
        for u, w in ((0, 1), (0, far.bit_length() - 1), (g.n - 2, g.n - 1)):
            if g.nbr[u] >> w & 1:
                continue
            h = _with_edge(g, u, w)
            assert dd.intersection_array(h) == reference_intersection_array(h), (name, u, w)


@st.composite
def tree_plus_edges(draw):
    """Adjacency lists of a random connected graph on 1..14 vertices: a
    random tree (each vertex joins an earlier one) plus up to 12 extra
    edges, relabelled.  Irregular and mostly not distance-regular; some are
    trees and some are bipartite."""
    n = draw(st.integers(1, 14), label="vertices")
    edges = {(draw(st.integers(0, u - 1), label="parent"), u) for u in range(1, n)}
    vertex = st.integers(0, n - 1)
    edges |= {(u, w) for u, w in draw(st.lists(st.tuples(vertex, vertex), max_size=12))
              if u < w}
    label = draw(st.permutations(range(n)), label="labels")
    adj = [[] for _ in range(n)]
    for u, w in edges:
        adj[label[u]].append(label[w])
        adj[label[w]].append(label[u])
    return adj


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(adj=tree_plus_edges())
def test_intersection_array_matches_reference_on_random_graphs(
    reference_intersection_array, adj
):
    g = dd.IncidenceGraph(adj)
    assert dd.intersection_array(g) == reference_intersection_array(g)


SWITCHED = ("pg3", "pg4", "ba4", "hstd8", "hd16")


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_intersection_array_matches_reference_on_switched_incidences(
    corpus, reference_intersection_array, data
):
    """One to three switches of a corpus design or net: pick x in block A
    but not B and y in block B but not A, and swap them (A gets y, B gets
    x).  Every degree is kept, so the graph stays regular and bipartite
    and the neighbor-count tallies alone decide."""
    d = corpus[data.draw(st.sampled_from(SWITCHED), label="design")]
    blocks = [set(blk) for blk in d.blocks]
    index = st.integers(0, len(blocks) - 1)
    for _ in range(data.draw(st.integers(1, 3), label="switches")):
        a, b = data.draw(st.lists(index, min_size=2, max_size=2, unique=True), label="blocks")
        x = data.draw(st.sampled_from(sorted(blocks[a] - blocks[b])), label="x")
        y = data.draw(st.sampled_from(sorted(blocks[b] - blocks[a])), label="y")
        blocks[a] ^= {x, y}
        blocks[b] ^= {x, y}
    v = d.point_count
    adj = [[] for _ in range(v + len(blocks))]
    for j, blk in enumerate(blocks):
        for x in blk:
            adj[x].append(v + j)
            adj[v + j].append(x)
    g = dd.IncidenceGraph(adj, point_count=v)
    assert _degrees(g) == [d.k] * g.n and g.part is not None
    assert dd.intersection_array(g) == reference_intersection_array(g)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(masks=st.lists(st.integers(0, (1 << 70) - 1), max_size=12),
       scope=st.integers(-1, (1 << 70) - 1), count=st.integers(0, 1))
def test_two_mask_count_matches_the_tally(masks, scope, count):
    """Counts of 0 and 1 by the masks seen once and twice, fed one pass."""
    assert _count_is(iter(masks), count, scope) == _tally_is(_tally(masks), count, scope)


def _switched_graph(d, a, b, label):
    """The incidence graph of d with blocks a and b swapping their least
    non-shared points, point x at label(x) and block j at label(v + j)."""
    blocks = [set(blk) for blk in d.blocks]
    swap = {min(blocks[a] - blocks[b]), min(blocks[b] - blocks[a])}
    blocks[a] ^= swap
    blocks[b] ^= swap
    v = d.point_count
    adj = [[] for _ in range(2 * v)]
    for j, blk in enumerate(blocks):
        for x in blk:
            adj[label(x)].append(label(v + j))
            adj[label(v + j)].append(label(x))
    return dd.IncidenceGraph(adj)


def test_a_symmetric_design_graph_tallies_one_side(corpus, reference_intersection_array,
                                                   monkeypatch):
    """On a valid symmetric design the middle layer is counted for the w of
    side 0 only (side 1 follows by Ryser's theorem).  A switched incidence
    counts side 1 too, in the full scan, with the reference's witness: at
    diameter 4 (pg3, where a switch leaves two points on no common line) as
    the only scan, and at diameter 3 (hd16, points and blocks interleaved
    so that block 0 is vertex 1) after a conflict in the first scan, whose
    lowest pair is then on side 1."""
    sides = []

    def count_is(masks, count, scope):
        sides.append(g.part[(scope & -scope).bit_length() - 1])  # scope lies in w's side
        return _count_is(masks, count, scope)

    monkeypatch.setattr(incidence, "_count_is", count_is)
    for name in ("pg3", "hd16"):
        g = dd.incidence_graph(corpus[name])
        sides.clear()
        assert dd.intersection_array(g) == reference_intersection_array(g), name
        assert sides == [0] * corpus[name].v, name
    v = corpus["hd16"].v
    for g, diameter, u in (
            (_switched_graph(corpus["pg3"], 0, 1, lambda x: x), 4, 2),
            (_switched_graph(corpus["hd16"], 0, 2, lambda x: 2 * x if x < v else 2 * (x - v) + 1),
             3, 1)):
        sides.clear()
        result = dd.intersection_array(g)
        assert result == reference_intersection_array(g)
        assert (g.diameter, g.part is not None, result.pair[0]) == (diameter, True, u)
        assert 1 in sides


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
# distance layer sanity
# ---------------------------------------------------------------------------

def test_distance_matrix_properties(corpus_graphs, layer_distance):
    rng = random.Random(20240817)
    for name, g in corpus_graphs.items():
        full = (1 << g.n) - 1
        for u, row in enumerate(g.layers):
            assert len(row) == g.diameter + 1
            assert row[0] == 1 << u
            # the layers of u partition the vertices
            assert sum(layer.bit_count() for layer in row) == g.n
            union = 0
            for layer in row:
                union |= layer
            assert union == full, name
        for _ in range(200):
            u, w, x = (rng.randrange(g.n) for _ in range(3))
            assert layer_distance(g, u, w) == layer_distance(g, w, u)
            assert layer_distance(g, u, w) <= layer_distance(g, u, x) + layer_distance(g, x, w)


def _assert_matches_bfs(g, dists):
    """The layers, diameter and part of g agree with reference BFS
    distances; part is the parity of the distance from vertex 0 when no
    edge joins two vertices of equal parity."""
    assert g.diameter == max(max(row) for row in dists)
    for u, dist in enumerate(dists):
        expected = [0] * (g.diameter + 1)
        for w, i in enumerate(dist):
            expected[i] |= 1 << w
        assert g.layers[u] == tuple(expected), u
    parity = tuple(i & 1 for i in dists[0])
    bipartite = all(parity[u] != parity[w] for u in range(g.n) for w in g.adj[u])
    assert g.part == (parity if bipartite else None)


def test_layers_match_reference_bfs(corpus_graphs, bfs_distances):
    for name, g in corpus_graphs.items():
        _assert_matches_bfs(g, bfs_distances(g))
    # one vertex, and a path whose diameter is the vertex count minus one
    for g in (dd.IncidenceGraph([()]),
              dd.IncidenceGraph([[w for w in (u - 1, u + 1) if 0 <= w < 300] for u in range(300)])):
        _assert_matches_bfs(g, bfs_distances(g))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(adj=tree_plus_edges(), other=tree_plus_edges())
def test_layers_match_reference_bfs_on_random_graphs(bfs_distances, adj, other):
    """Random connected graphs (irregular, often not bipartite, some
    trees); side by side, two of them are rejected as disconnected."""
    g = dd.IncidenceGraph(adj)
    _assert_matches_bfs(g, bfs_distances(g))
    shift = len(adj)
    with pytest.raises(ValueError, match="^graph is not connected$"):
        dd.IncidenceGraph(adj + [[w + shift for w in ns] for ns in other])


def _cycle(n):
    return dd.IncidenceGraph([((u - 1) % n, (u + 1) % n) for u in range(n)])


@pytest.mark.parametrize(
    "n, bipartite, antipodal, diameter",
    [(5, False, False, 2), (6, True, True, 3), (7, False, False, 3), (12, True, True, 6)],
)
def test_cycles(bfs_distances, n, bipartite, antipodal, diameter):
    g = _cycle(n)
    assert dd.classify(g) == dd.GraphClassification(
        bipartite=bipartite, antipodal=antipodal, diameter=diameter
    )
    assert g.layers[0] == tuple(
        sum(1 << w for w, i in enumerate(bfs_distances(g)[0]) if i == d)
        for d in range(diameter + 1)
    )


def test_long_path_is_not_limited_by_distance_storage():
    n = 300
    g = dd.IncidenceGraph([[w for w in (u - 1, u + 1) if 0 <= w < n] for u in range(n)])
    assert g.diameter == n - 1
    assert g.layers[0][n - 1] == 1 << (n - 1)
    assert g.part == tuple(u & 1 for u in range(n))


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="not connected"):
        dd.IncidenceGraph([(1,), (0,), (3,), (2,)])


def _first_adjacency_fault(adj):
    """The message for the first bad entry, vertex by vertex and each
    vertex's neighbors in increasing order: out of range or the vertex
    itself, or an edge missing from the other end's list."""
    adj = [sorted(set(ns)) for ns in adj]
    for u, ns in enumerate(adj):
        for w in ns:
            if not 0 <= w < len(adj) or w == u:
                return f"bad neighbor {w} of vertex {u}"
            if u not in adj[w]:
                return f"edge ({u}, {w}) is not symmetric"
    return None


@pytest.mark.parametrize("adj, message", [
    ([[1, 5], [2], [1]], "edge (0, 1) is not symmetric"),  # before the bad 5
    ([[1], [0, 7]], "bad neighbor 7 of vertex 1"),
    ([[-1, 1], [0]], "bad neighbor -1 of vertex 0"),
    ([[0, 1], [0]], "bad neighbor 0 of vertex 0"),
    ([[2], [0], [0]], "edge (1, 0) is not symmetric"),
    ([[1, 2], [0, 9], [0], [0]], "bad neighbor 9 of vertex 1"),  # before (3, 0)
])
def test_first_adjacency_fault_is_reported(adj, message):
    assert _first_adjacency_fault(adj) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dd.IncidenceGraph(adj)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(adj=st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, n + 1), max_size=4), min_size=n, max_size=n)))
def test_adjacency_faults_in_scan_order(adj):
    """Random adjacency lists with out-of-range entries, loops and one-way
    edges, often several at once: the first fault in scan order is the one
    reported."""
    expected = _first_adjacency_fault(adj)
    try:
        dd.IncidenceGraph(adj)
    except ValueError as exc:
        assert str(exc) == (expected or "graph is not connected")
    else:
        assert expected is None


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_design_recovered_from_graph(corpus, corpus_graphs):
    for name, d in corpus.items():
        g, v = corpus_graphs[name], d.point_count
        assert tuple(g.adj[v + j] for j in range(g.n - v)) == d.blocks, name


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
        assert g2.layers == g.layers
    # bipartite graphs without a split: the header gives one only when the
    # even side is 0..b-1 (a path), and 0 otherwise (a 6-cycle in order)
    path = dd.IncidenceGraph([[2], [2], [0, 1]])
    cycle = dd.IncidenceGraph([[(u - 1) % 6, (u + 1) % 6] for u in range(6)])
    for g, header in ((path, "G 3 2 2"), (cycle, "G 6 6 0")):
        text = dd.to_edge_text(g)
        assert text.splitlines()[0] == header
        g2 = dd.from_edge_text(text)
        assert g2.adj == g.adj
        assert dd.to_edge_text(g2) == text


def test_edge_text_rejects_garbage():
    with pytest.raises(ValueError):
        dd.from_edge_text("")
    with pytest.raises(ValueError):
        dd.from_edge_text("G 4 1 2\n0 1\n2 3\n")
    with pytest.raises(ValueError):
        dd.from_edge_text("G 2 1 0\n0 7\n")
    with pytest.raises(ValueError, match="connected"):
        dd.from_edge_text("G 100000000 0 0\n")
    # a bipartition larger than the graph, or negative
    with pytest.raises(ValueError, match="bipartition"):
        dd.from_edge_text("G 2 1 5\n0 1\n")
    with pytest.raises(ValueError, match="bipartition"):
        dd.from_edge_text("G 2 1 -1\n0 1\n")
    # a header split that the edges do not respect: a triangle, an edge
    # inside the block side, and a split with no block side
    with pytest.raises(ValueError, match="bipartition"):
        dd.from_edge_text("G 3 3 1\n0 1\n1 2\n0 2\n")
    with pytest.raises(ValueError, match="bipartition"):
        dd.from_edge_text("G 4 3 1\n0 1\n1 2\n0 3\n")
    with pytest.raises(ValueError, match="bipartition"):
        dd.from_edge_text("G 2 1 2\n0 1\n")
    # a repeated edge, in either orientation
    with pytest.raises(ValueError, match="duplicate"):
        dd.from_edge_text("G 2 2 0\n0 1\n0 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        dd.from_edge_text("G 3 3 0\n0 1\n1 2\n1 0\n")
