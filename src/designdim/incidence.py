"""Incidence graphs with precomputed distance layers.

The incidence graph of a design puts its points at vertices 0..v-1 and its
blocks at v..2v-1, joining a point to every block containing it.  The
distance layers Gamma_i(u), the vertex bitsets of the vertices at distance
i from u, are built for every u at once, level by level: the ball of
radius i around u is the union of the radius-(i-1) balls around u and its
neighbors.  Every distance question below reads them.  The finished graph
is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .designs import (
    Design, _bits, _count_is, _derived, block_masks, content_lines, dual, int_line, require_valid,
)


class IncidenceGraph:
    """Undirected connected graph with its distance layers.

    nbr[u] is the neighbor bitset of vertex u; layers[u][i] is Gamma_i(u),
    for i in 0..diameter (0 past the eccentricity of u): layers[u][1] is
    nbr[u], and each further layer takes one round of one OR per vertex and
    edge end.  part tags each vertex with its side of the bipartition (0 =
    point side) when the graph is bipartite, else None.  point_count is the
    size of the point side when the graph came from a design (or an
    imported bipartition header), else None.

    IncidenceGraph(adjacency, point_count) is the checked entry point: it
    sorts and dedupes the adjacency lists and rejects a bad neighbor or an
    asymmetric edge.  The graph of a design (incidence_graph) takes adj from
    the block lists of the design and of its dual, and nbr from the masks
    validation kept, unchecked.  Both build the layers by ball BFS over nbr.
    """

    __slots__ = ("n", "adj", "nbr", "layers", "part", "point_count", "diameter")

    def __init__(self, adjacency, point_count: int | None = None):
        adj = tuple(tuple(sorted(set(ns))) for ns in adjacency)
        n = len(adj)
        if n == 0:
            raise ValueError("empty graph")
        nbr = tuple(sum(1 << w for w in ns if 0 <= w < n) for ns in adj)
        for u, ns in enumerate(adj):
            bit = 1 << u
            for w in ns:
                if not 0 <= w < n or w == u:
                    raise ValueError(f"bad neighbor {w} of vertex {u}")
                if not nbr[w] & bit:
                    raise ValueError(f"edge ({u}, {w}) is not symmetric")
        self._build_layers(adj, nbr, point_count)

    def _build_layers(self, adj, nbr, point_count):
        """Set every attribute from adj (sorted neighbor tuples) and nbr
        (the same as bitsets), which must be symmetric and loop-free: the
        layers, the diameter and part come from one ball BFS for all roots
        at once."""
        self.adj, self.nbr, self.point_count = adj, nbr, point_count
        self.n = n = len(adj)
        full = (1 << n) - 1
        balls = [m | 1 << u for u, m in enumerate(nbr)]
        rows = [[1 << u, m] if m else [1 << u] for u, m in enumerate(nbr)]
        growing = [u for u in range(n) if balls[u] != full]
        while growing:
            below = balls[:]
            for u in growing:
                ball = below[u]
                for x in adj[u]:
                    ball |= below[x]
                if ball == below[u]:
                    raise ValueError("graph is not connected")
                balls[u] = ball
                rows[u].append(ball ^ below[u])
            growing = [u for u in growing if balls[u] != full]
        self.diameter = max(len(row) for row in rows) - 1
        self.layers = tuple(tuple(row) + (0,) * (self.diameter + 1 - len(row)) for row in rows)
        odd = sum(self.layers[0][1::2])  # the layers are disjoint
        part = tuple((odd >> u) & 1 for u in range(n))
        # bipartite iff no layer of vertex 0 contains an edge
        bipartite = all(not nbr[x] & layer for layer in self.layers[0] for x in _bits(layer))
        self.part = part if bipartite else None

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.adj) // 2


def incidence_graph(d: Design) -> IncidenceGraph:
    """The incidence graph of a valid design: points 0..v-1, blocks
    v..2v-1.  Raises InvalidDesign when d does not validate; the graph of a
    valid design is connected, because lambda >= 1.  Built once per design
    object; every later call returns the same graph, whose distance layers
    are tuples of vertex bitsets."""
    require_valid(d)
    return _derived(d, "incidence_graph", _build_incidence_graph)


def _build_incidence_graph(d: Design) -> IncidenceGraph:
    """The graph from the validated design: point x's neighbors are the
    blocks of the dual through x shifted past the points, and block j's are
    its points; the bitsets are the masks validation kept."""
    v = d.point_count
    e = dual(d)
    adj = tuple([tuple(v + j for j in p) for p in e.blocks] + [tuple(sorted(b)) for b in d.blocks])
    nbr = tuple([p << v for p in block_masks(e)] + block_masks(d))
    g = IncidenceGraph.__new__(IncidenceGraph)  # validation did the constructor's checks
    g._build_layers(adj, nbr, v)
    return g


# ---------------------------------------------------------------------------
# distance-regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionArray:
    """The table {c_1..c_d; a_0..a_d; b_0..b_(d-1)} of neighbor counts at
    distance i-1 / i / i+1 from a vertex at distance i."""

    c: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def diameter(self) -> int:
        return len(self.c)

    @property
    def valency(self) -> int:
        return self.b[0]


@dataclass(frozen=True)
class NotDistanceRegular:
    """Witness that two vertex pairs at the same distance see different
    neighbor-count triples (down, same, up)."""

    distance: int
    first_pair: tuple[int, int]
    first_counts: tuple[int, int, int]
    pair: tuple[int, int]
    counts: tuple[int, int, int]


def intersection_array(g: IncidenceGraph) -> IntersectionArray | NotDistanceRegular:
    """Check the neighbor counts (down, same, up) of w in the layers i-1, i
    and i+1 of u for every pair (u, w) at distance i against the lowest
    such pair; return the intersection array if all agree, else the lowest
    conflicting pair as the witness.

    Only the counts that can differ are tallied.  The degree of w is
    down + same + up, and every pair has down = 1 at i = 1 (u itself) and
    up = 0 at i = d, the diameter; same is 0 at i = 0 and in a bipartite
    graph.  So, given the degree check, a non-bipartite graph tallies same
    for i >= 1, and each middle layer 1 < i < d tallies one more count,
    the smaller of down and up: one tally of the layers Gamma_(i-1)(x)
    (or Gamma_(i+1)(x)) of the neighbors x of w counts it for every u in
    Gamma_i(w) at once.  A count of 0 or 1 (c_2 = lambda = 1 on planes,
    b_3 = 1 on nets) takes two running masks instead of a tally.

    A bipartite graph of diameter 3 first tallies its middle layer for the
    vertices w of side 0 only; the degree checks still run for every
    vertex.  If that scan finds no conflict, the graph is k-regular with
    sides of equal size and every two vertices of side 0 share c_2
    neighbors, so its biadjacency matrix N has N N^T = (k - c_2) I + c_2 J
    with k > c_2 (k = c_2 would make it complete bipartite, of diameter 2).
    By Ryser's theorem N^T N is the same matrix, so side 1 passes too.  If
    it finds a conflict, the full scan runs and returns its witness."""
    layers, nbr, d, part = g.layers, g.nbr, g.diameter, g.part

    def counts(u, w, i):
        m = nbr[w]
        down = (m & layers[u][i - 1]).bit_count() if i else 0
        same = (m & layers[u][i]).bit_count()
        return down, same, m.bit_count() - down - same

    firsts = []
    for i in range(d + 1):
        u = next(u for u, row in enumerate(layers) if row[i])
        w = next(_bits(layers[u][i]))
        firsts.append(((u, w), counts(u, w, i)))
    # per middle layer i: the layer of u to tally for w, and its count
    tallied = [None] * (d + 1)
    for i in range(2, d):
        down, _, up = firsts[i][1]
        tallied[i] = (i - 1, down) if down <= up else (i + 1, up)

    def conflicts(skip):
        """Yield each conflicting (u, w, i) whose u is below every earlier
        one, so the last is the lowest pair; a w of side skip tallies no
        middle layer."""
        lower = (1 << g.n) - 1  # the u that would beat the last conflict
        for w, ns in enumerate(g.adj):
            middle = part is None or part[w] != skip
            for i, scope in enumerate(layers[w]):
                if not (scope := scope & lower):
                    continue
                down, same, up = firsts[i][1]
                good = scope if len(ns) == down + same + up else 0
                if i and good and part is None:
                    good = _count_is((layers[x][i] for x in ns), same, good)
                if good and middle and tallied[i]:
                    j, count = tallied[i]
                    good = _count_is((layers[x][j] for x in ns), count, good)
                if bad := scope & ~good:
                    u = next(_bits(bad))
                    yield u, w, i
                    lower = (1 << u) - 1

    witness = None
    if part is None or d != 3 or next(conflicts(1), None):
        for witness in conflicts(None):
            pass
    if witness:
        u, w, i = witness
        return NotDistanceRegular(
            distance=i,
            first_pair=firsts[i][0],
            first_counts=firsts[i][1],
            pair=(u, w),
            counts=counts(u, w, i),
        )
    return IntersectionArray(
        c=tuple(first[0] for _, first in firsts[1:]),
        a=tuple(first[1] for _, first in firsts),
        b=tuple(first[2] for _, first in firsts[:-1]),
    )


def design_intersection_array(k: int, lam: int) -> IntersectionArray:
    """The diameter-3 array of a symmetric-design incidence graph."""
    return IntersectionArray(c=(1, lam, k), a=(0, 0, 0, 0), b=(k, k - 1, k - lam))


def net_intersection_array(lam: int, g: int) -> IntersectionArray:
    """The diameter-4 array of a symmetric-net incidence graph."""
    k = lam * g
    return IntersectionArray(
        c=(1, lam, k - 1, k), a=(0, 0, 0, 0, 0), b=(k, k - 1, lam * (g - 1), 1)
    )


@dataclass(frozen=True)
class GraphClassification:
    bipartite: bool
    antipodal: bool
    diameter: int


def classify(g: IncidenceGraph) -> GraphClassification:
    """Bipartiteness read from g.part; antipodality iff the vertices at maximal
    distance d from each vertex are pairwise at distance d (the distance-d
    graph is a disjoint union of cliques), that is, iff Gamma_d(u) minus w
    lies in Gamma_d(w) for every u and every w in Gamma_d(u)."""
    d = g.diameter
    antipodal = all(
        not (row[d] ^ (1 << w)) & ~g.layers[w][d]
        for row in g.layers
        for w in _bits(row[d])
    )
    return GraphClassification(bipartite=g.part is not None, antipodal=antipodal, diameter=d)


# ---------------------------------------------------------------------------
# edge-list text format: header `G n m bipartition_size`, then `u v` lines.
# A positive bipartition_size b says that every edge joins 0..b-1 to b..n-1;
# 0 gives no split.
# ---------------------------------------------------------------------------

def to_edge_text(g: IncidenceGraph) -> str:
    if g.point_count is not None:
        bip = g.point_count
    elif g.part is not None and g.part == tuple(sorted(g.part)):
        bip = g.part.count(0)  # the point side is exactly 0..bip-1
    else:
        bip = 0
    lines = [f"G {g.n} {g.edge_count} {bip}"]
    for u in range(g.n):
        for w in g.adj[u]:
            if u < w:
                lines.append(f"{u} {w}")
    return "\n".join(lines) + "\n"


def from_edge_text(text: str) -> IncidenceGraph:
    lines = content_lines(text)
    if not lines or lines[0].split()[0] != "G":
        raise ValueError("missing `G n m bipartition_size` header")
    n, m, bip = int_line(lines[0], "header", 4, skip=1)
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    if not 1 <= n <= m + 1:
        # checked before allocating: a connected graph has at least n - 1 edges
        raise ValueError(f"{n} vertices cannot form a connected graph with {m} edges")
    if not 0 <= bip <= n:
        raise ValueError(f"bipartition size {bip} outside 0..{n}")
    adj = [[] for _ in range(n)]
    for ln in lines[1:]:
        u, w = int_line(ln, "edge", 2)
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError(f"edge endpoint out of range: {ln!r}")
        if bip > 0 and (u < bip) == (w < bip):
            raise ValueError(f"edge {ln!r} does not cross the bipartition 0..{bip - 1}")
        adj[u].append(w)
        adj[w].append(u)
    # the constructor merges repeated neighbors, so a repeated edge shows
    # as fewer edges than lines
    g = IncidenceGraph(adj, point_count=bip if bip > 0 else None)
    if g.edge_count != m:
        raise ValueError(f"duplicate edge: {m} edge lines name {g.edge_count} distinct edges")
    return g
