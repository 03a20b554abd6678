"""Incidence graphs with precomputed distance layers.

The incidence graph of a design puts its points at vertices 0..v-1 and its
blocks at v..2v-1, joining a point to every block containing it.  A
frontier-bitset breadth-first search from every vertex u computes its
distance layers Gamma_i(u), the vertex bitsets of the vertices at distance
i from u; every distance question below reads them.  The finished graph is
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .designs import Design, _bits, _derived, content_lines, require_valid


class IncidenceGraph:
    """Undirected connected graph with its distance layers.

    nbr[u] is the neighbor bitset of vertex u; layers[u][i] is Gamma_i(u),
    for i in 0..diameter (0 past the eccentricity of u).  part tags each
    vertex with its side of the bipartition (0 = point side) when the graph
    is bipartite, else None.  point_count is the size of the point side when
    the graph came from a design (or an imported bipartition header), else
    None.
    """

    __slots__ = ("n", "adj", "nbr", "layers", "part", "point_count", "diameter")

    def __init__(self, adjacency, point_count: int | None = None):
        self.adj = tuple(tuple(sorted(set(ns))) for ns in adjacency)
        self.n = n = len(self.adj)
        if n == 0:
            raise ValueError("empty graph")
        for u, ns in enumerate(self.adj):
            for w in ns:
                if not 0 <= w < n or w == u:
                    raise ValueError(f"bad neighbor {w} of vertex {u}")
                if u not in self.adj[w]:
                    raise ValueError(f"edge ({u}, {w}) is not symmetric")
        self.nbr = nbr = tuple(sum(1 << w for w in ns) for ns in self.adj)
        full = (1 << n) - 1
        rows = []
        for u in range(n):
            seen = frontier = 1 << u
            row = [frontier]
            while seen != full:
                reach = 0
                for x in _bits(frontier):
                    reach |= nbr[x]
                frontier = reach & ~seen
                if not frontier:
                    raise ValueError("graph is not connected")
                seen |= frontier
                row.append(frontier)
            rows.append(row)
        self.diameter = max(len(row) for row in rows) - 1
        self.layers = tuple(tuple(row) + (0,) * (self.diameter + 1 - len(row)) for row in rows)
        odd = sum(self.layers[0][1::2])  # the layers are disjoint
        part = tuple((odd >> u) & 1 for u in range(n))
        # bipartite iff no layer of vertex 0 contains an edge
        bipartite = all(not nbr[x] & layer for layer in self.layers[0] for x in _bits(layer))
        self.part = part if bipartite else None
        self.point_count = point_count

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.adj) // 2


def incidence_graph(d: Design) -> IncidenceGraph:
    """The incidence graph of a valid design: points 0..v-1, blocks
    v..2v-1.  Raises ValueError when d does not validate; the graph of a
    valid design is connected, because lambda >= 1.  Built once per design
    object; every later call returns the same graph, whose distance layers
    are tuples of vertex bitsets."""
    require_valid(d)
    return _derived(d, "incidence_graph", _build_incidence_graph)


def _build_incidence_graph(d: Design) -> IncidenceGraph:
    v = d.point_count
    adj = [[] for _ in range(2 * v)]
    for j, blk in enumerate(d.blocks):
        for x in blk:
            adj[x].append(v + j)
            adj[v + j].append(x)
    return IncidenceGraph(adj, point_count=v)


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
    """Tally neighbor counts by distance over every ordered vertex pair
    (u, w): the neighbors of w in the layers i-1 and i of u, and the rest;
    return the intersection array if all counts agree per distance, else the
    first conflicting witness in vertex-index order."""
    seen: list[tuple[tuple[int, int], tuple[int, int, int]] | None] = [None] * (g.diameter + 1)
    for u, row in enumerate(g.layers):
        conflicts = []  # the first (w, i, counts) per layer
        below = 0
        for i, layer in enumerate(row):
            for w in _bits(layer):
                m = g.nbr[w]
                down = (m & below).bit_count()
                same = (m & layer).bit_count()
                counts = (down, same, m.bit_count() - down - same)
                if seen[i] is None:
                    seen[i] = ((u, w), counts)
                elif seen[i][1] != counts:
                    conflicts.append((w, i, counts))
                    break
            below = layer
        if conflicts:
            w, i, counts = min(conflicts)
            return NotDistanceRegular(
                distance=i,
                first_pair=seen[i][0],
                first_counts=seen[i][1],
                pair=(u, w),
                counts=counts,
            )
    return IntersectionArray(
        c=tuple(counts[0] for _, counts in seen[1:]),
        a=tuple(counts[1] for _, counts in seen),
        b=tuple(counts[2] for _, counts in seen[:-1]),
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
    """Bipartiteness by 2-coloring; antipodality iff the vertices at maximal
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
    if not lines or not lines[0].startswith("G "):
        raise ValueError("missing `G n m bipartition_size` header")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError(f"bad header line: {lines[0]!r}")
    try:
        n, m, bip = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise ValueError(f"bad header line: {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    if not 1 <= n <= m + 1:
        # checked before allocating: a connected graph has at least n - 1 edges
        raise ValueError(f"{n} vertices cannot form a connected graph with {m} edges")
    if not 0 <= bip <= n:
        raise ValueError(f"bipartition size {bip} outside 0..{n}")
    adj = [[] for _ in range(n)]
    seen = set()
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        try:
            u, w = int(toks[0]), int(toks[1])
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError(f"edge endpoint out of range: {ln!r}")
        if {(u, w), (w, u)} & seen:
            raise ValueError(f"duplicate edge: {ln!r}")
        if bip > 0 and (u < bip) == (w < bip):
            raise ValueError(f"edge {ln!r} does not cross the bipartition 0..{bip - 1}")
        seen.add((u, w))
        adj[u].append(w)
        adj[w].append(u)
    return IncidenceGraph(adj, point_count=bip if bip > 0 else None)
