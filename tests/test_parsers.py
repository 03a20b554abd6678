"""Properties of the three text parsers: arbitrary input fails with
ValueError only, and what the writers emit reads back unchanged."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designdim as dd

_TOKENS = st.sampled_from(
    ["SD", "STD", "G", "RS", "full", "split", "semi-points", "semi-blocks", "#", "x", "1.5"]
    + [str(i) for i in range(-3, 10)]
    + ["\n"] * 6
)
# raw text, and lines of parser keywords and small numbers that reach past
# the header checks
TEXTS = st.text(max_size=80) | st.lists(_TOKENS, max_size=40).map(" ".join)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=TEXTS)
def test_parsers_raise_only_value_error(text):
    for parse in (dd.from_text, dd.from_edge_text, dd.witness_from_text):
        try:
            parse(text)
        except ValueError:
            pass


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_design_text_round_trips_relabelled_designs(corpus, data):
    d = corpus[data.draw(st.sampled_from(sorted(corpus)), label="design")]
    point = data.draw(st.permutations(range(d.point_count)), label="points")
    order = data.draw(st.permutations(range(len(d.blocks))), label="blocks")

    def relabel(rows):
        return tuple(tuple(sorted(point[x] for x in row)) for row in rows)

    relabelled = dataclasses.replace(d, blocks=relabel(d.blocks[j] for j in order))
    if isinstance(d, dd.TransversalDesign):
        relabelled = dataclasses.replace(relabelled, classes=relabel(d.classes))
    assert dd.validate_design(relabelled).ok
    assert dd.from_text(dd.to_text(relabelled)) == relabelled


@st.composite
def connected_graphs(draw):
    """A small connected graph: bipartite with its point side 0..b-1 kept
    as point_count, or holding a triangle (not bipartite, no point_count)."""
    if draw(st.booleans(), label="bipartite"):
        b = draw(st.integers(1, 6), label="points")
        n = b + draw(st.integers(1, 6), label="blocks")
        # a spanning tree: each later vertex joins an earlier one across the split
        order = [0, b] + draw(st.permutations([u for u in range(1, n) if u != b]))
        edges = {(0, b)}
        for i, u in enumerate(order[2:], 2):
            w = draw(st.sampled_from([w for w in order[:i] if (w < b) != (u < b)]))
            edges.add((min(u, w), max(u, w)))
        edges |= set(draw(st.lists(st.tuples(st.integers(0, b - 1), st.integers(b, n - 1)),
                                   max_size=8)))
        point_count = b
    else:
        n = draw(st.integers(3, 10), label="vertices")
        edges = {(0, 1), (1, 2), (0, 2)}
        edges |= {(draw(st.integers(0, u - 1)), u) for u in range(3, n)}
        vertex = st.integers(0, n - 1)
        edges |= {(u, w) for u, w in draw(st.lists(st.tuples(vertex, vertex), max_size=8))
                  if u != w}
        label = draw(st.permutations(range(n)), label="labels")
        edges = {(label[u], label[w]) for u, w in edges}
        point_count = None
    adj = [[] for _ in range(n)]
    for u, w in edges:
        if w not in adj[u]:
            adj[u].append(w)
            adj[w].append(u)
    return dd.IncidenceGraph(adj, point_count=point_count)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(g=connected_graphs())
def test_edge_text_round_trips_random_connected_graphs(g):
    h = dd.from_edge_text(dd.to_edge_text(g))
    assert h.adj == g.adj
    assert h.point_count == g.point_count


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(g=connected_graphs(), data=st.data())
def test_edge_text_rejects_a_repeated_edge(g, data):
    """One edge line repeated at a later position, in either orientation,
    with the header's edge count raised to match: a duplicate edge."""
    header, *edges = dd.to_edge_text(g).splitlines()
    i = data.draw(st.integers(0, len(edges) - 1), label="edge")
    repeat = edges[i]
    if data.draw(st.booleans(), label="reversed"):
        repeat = " ".join(reversed(repeat.split()))
    edges.insert(data.draw(st.integers(i + 1, len(edges)), label="at"), repeat)
    _, n, m, bip = header.split()
    text = "\n".join([f"G {n} {int(m) + 1} {bip}", *edges]) + "\n"
    with pytest.raises(ValueError, match="^duplicate edge"):
        dd.from_edge_text(text)


FANO_BODY = "0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"


@pytest.mark.parametrize("parse, text, message", [
    (dd.from_text, "SD 7 x 1\n" + FANO_BODY, "bad header line: 'SD 7 x 1'"),
    (dd.from_text, "SD 7 3\n" + FANO_BODY, "bad header line: 'SD 7 3'"),
    (dd.from_text, "SD 7 3 1 0\n" + FANO_BODY, "bad header line: 'SD 7 3 1 0'"),
    (dd.from_text, "XD 7 3 1\n" + FANO_BODY, "bad header line: 'XD 7 3 1'"),
    (dd.from_text, "7 7 3 1\n" + FANO_BODY, "bad header line: '7 7 3 1'"),
    (dd.from_text, "SD 7 3 1\n0 1 x\n", "bad index line: '0 1 x'"),
    (dd.from_text, "STD 2 2 1\n0 1\n2 y\n", "bad index line: '2 y'"),
    (dd.from_text, "# nothing\n\n", "empty design file"),
    (dd.from_edge_text, "G 2 x 1\n0 1\n", "bad header line: 'G 2 x 1'"),
    (dd.from_edge_text, "G 2 1\n0 1\n", "bad header line: 'G 2 1'"),
    (dd.from_edge_text, "H 2 1 1\n0 1\n", "missing `G n m bipartition_size` header"),
    (dd.from_edge_text, "G\n0 1\n", "bad header line: 'G'"),
    (dd.from_edge_text, "G 3 2 1\n0 1 2\n0 2\n", "bad edge line: '0 1 2'"),
    (dd.from_edge_text, "G 3 2 1\n0 1\n0 z\n", "bad edge line: '0 z'"),
    (dd.witness_from_text, "RS full\n0 1 x\n", "bad witness index line: '0 1 x'"),
    (dd.witness_from_text, "RS full\n1.5\n", "bad witness index line: '1.5'"),
    (dd.witness_from_text, "RS nope\n0\n", "bad witness header: 'RS nope'"),
], ids=[
    "sd-token", "sd-short", "sd-long", "sd-tag", "sd-int-tag", "sd-row", "std-row", "sd-empty",
    "g-token", "g-short", "g-tag", "g-bare", "g-3-tokens", "g-edge-token",
    "rs-token", "rs-float", "rs-head",
])
def test_parser_messages(parse, text, message):
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


def test_tab_separated_header_parses(fano):
    text = dd.to_text(fano).replace(" ", "\t", 3)
    assert text.startswith("SD\t7\t3\t1\n")
    assert dd.from_text(text) == fano
