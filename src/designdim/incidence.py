"""Incidence graphs with precomputed all-pairs distances.

The incidence graph of a design puts its points at vertices 0..v-1 and its
blocks at v..2v-1, joining a point to every block containing it.  Distances
are computed eagerly by breadth-first search from every vertex and stored
one byte per entry (diameters here are tiny; the BFS itself is generic).
Per-source searches are independent; the finished graph is immutable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .designs import Design, _derived, require_valid

_UNSEEN = 0xFF


def _bfs(adj, src: int, n: int) -> bytearray:
    dist = bytearray([_UNSEEN]) * n
    dist[src] = 0
    queue = deque((src,))
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du + 1 >= _UNSEEN:
            raise ValueError("distance overflow: graph diameter exceeds byte storage")
        for w in adj[u]:
            if dist[w] == _UNSEEN:
                dist[w] = du + 1
                queue.append(w)
    return dist


class IncidenceGraph:
    """Undirected connected graph with an all-pairs hop-distance table.

    part tags each vertex with its side of the bipartition (0 = point side)
    when the graph is bipartite, else None.  point_count is the size of the
    point side when the graph came from a design (or an imported bipartition
    header), else None.
    """

    __slots__ = ("n", "adj", "dist", "part", "point_count", "diameter")

    def __init__(self, adjacency, point_count: int | None = None):
        self.adj = tuple(tuple(sorted(set(ns))) for ns in adjacency)
        self.n = len(self.adj)
        if self.n == 0:
            raise ValueError("empty graph")
        for u, ns in enumerate(self.adj):
            for w in ns:
                if not 0 <= w < self.n or w == u:
                    raise ValueError(f"bad neighbor {w} of vertex {u}")
                if u not in self.adj[w]:
                    raise ValueError(f"edge ({u}, {w}) is not symmetric")
        self.dist = tuple(bytes(_bfs(self.adj, u, self.n)) for u in range(self.n))
        if any(_UNSEEN in row for row in self.dist):
            raise ValueError("graph is not connected")
        self.diameter = max(max(row) for row in self.dist)
        part = tuple(self.dist[0][u] & 1 for u in range(self.n))
        bipartite = all(part[u] != part[w] for u in range(self.n) for w in self.adj[u])
        self.part = part if bipartite else None
        self.point_count = point_count

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.adj) // 2

    def degree(self, u: int) -> int:
        return len(self.adj[u])


def incidence_graph(d: Design) -> IncidenceGraph:
    """The incidence graph of a valid design: points 0..v-1, blocks
    v..2v-1.  Raises ValueError when d does not validate or its graph is
    not connected.  Built once per design object; every later call returns
    the same graph, whose distance rows are immutable bytes."""
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


def blocks_from_graph(g: IncidenceGraph) -> tuple[tuple[int, ...], ...]:
    """Recover the block family from the block-side neighborhoods."""
    if g.point_count is None:
        raise ValueError("graph carries no point/block split")
    v = g.point_count
    return tuple(tuple(g.adj[v + j]) for j in range(g.n - v))


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
    """Tally neighbor counts by distance over every ordered vertex pair;
    return the intersection array if all counts agree per distance, else the
    first conflicting witness in vertex-index order."""
    d = g.diameter
    seen: list[tuple[tuple[int, int], tuple[int, int, int]] | None] = [None] * (d + 1)
    for u in range(g.n):
        row = g.dist[u]
        for w in range(g.n):
            i = row[w]
            down = same = up = 0
            for x in g.adj[w]:
                dx = row[x]
                if dx == i - 1:
                    down += 1
                elif dx == i:
                    same += 1
                else:
                    up += 1
            counts = (down, same, up)
            if seen[i] is None:
                seen[i] = ((u, w), counts)
            elif seen[i][1] != counts:
                return NotDistanceRegular(
                    distance=i,
                    first_pair=seen[i][0],
                    first_counts=seen[i][1],
                    pair=(u, w),
                    counts=counts,
                )
    return IntersectionArray(
        c=tuple(seen[i][1][0] for i in range(1, d + 1)),
        a=tuple(seen[i][1][1] for i in range(d + 1)),
        b=tuple(seen[i][1][2] for i in range(d)),
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
    distance from each vertex are pairwise at maximal distance (the
    distance-d graph is a disjoint union of cliques)."""
    d = g.diameter

    def antipodal() -> bool:
        for u in range(g.n):
            far = [w for w in range(g.n) if g.dist[u][w] == d]
            for i, w1 in enumerate(far):
                for w2 in far[i + 1 :]:
                    if g.dist[w1][w2] != d:
                        return False
        return True

    return GraphClassification(
        bipartite=g.part is not None, antipodal=antipodal(), diameter=d
    )


def girth(g: IncidenceGraph) -> int:
    """Length of a shortest cycle (graphs here are always connected and,
    beyond trees, contain cycles)."""
    best = g.n + 1
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque((root,))
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                break
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    if best > g.n:
        raise ValueError("graph is acyclic")
    return best


# ---------------------------------------------------------------------------
# edge-list text format: header `G n m bipartition_size`, then `u v` lines
# ---------------------------------------------------------------------------

def to_edge_text(g: IncidenceGraph) -> str:
    if g.point_count is not None:
        bip = g.point_count
    elif g.part is not None:
        bip = sum(1 for p in g.part if p == 0)
    else:
        bip = 0
    lines = [f"G {g.n} {g.edge_count} {bip}"]
    for u in range(g.n):
        for w in g.adj[u]:
            if u < w:
                lines.append(f"{u} {w}")
    return "\n".join(lines) + "\n"


def from_edge_text(text: str) -> IncidenceGraph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
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
    adj = [[] for _ in range(n)]
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
        adj[u].append(w)
        adj[w].append(u)
    return IncidenceGraph(adj, point_count=bip if bip > 0 else None)
