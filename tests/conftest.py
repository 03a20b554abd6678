import itertools
import random
from collections import deque
from fractions import Fraction
from math import comb

import pytest

import designdim as dd
from designdim.designs import (
    _bits, _index_masks, _mask, _pair_count_violation, _parallel_classes, pencil_masks,
)
from designdim.fields import make_field, prime_power
from designdim.resolve import BudgetExceeded, _refinement_greedy, separator_masks

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


def _reference_valid(d):
    """Test oracle: whether d is a legal symmetric design or symmetric net,
    decided from the definitions with Python sets, independent of the
    validators' bitsets.

    A symmetric design has v >= 2 points, k > lambda >= 1 and v blocks,
    each a k-subset of the points; every two points lie in lambda common
    blocks and every two blocks meet in lambda points.  A symmetric net has
    g >= 2, lambda >= 1, k = lambda*g and lambda*g^2 blocks, each a k-subset
    of the k*g points; k classes of g points partition the points, every
    block meets every class in one point, two points of one class lie in no
    common block and two of different classes in lambda.  Its blocks fall
    into k parallel classes of g pairwise-disjoint blocks, and two blocks
    of different parallel classes meet in lambda points."""
    net = isinstance(d, dd.TransversalDesign)
    k, lam = d.k, d.lam
    if net:
        g = d.g
        if not (g >= 2 and lam >= 1 and k == lam * g and len(d.blocks) == lam * g * g):
            return False
        v = k * g
    else:
        v = d.v
        if not (v >= 2 and k > lam >= 1 and len(d.blocks) == v):
            return False
    points = set(range(v))

    def subsets(rows, size):
        sets = [set(row) for row in rows]
        ok = all(len(s) == len(row) == size and s <= points for s, row in zip(sets, rows))
        return sets if ok else None

    blocks = subsets(d.blocks, k)
    if blocks is None:
        return False
    if net:
        classes = subsets(d.classes, g)
        if classes is None or len(classes) != k or set().union(*classes) != points:
            return False
        if any(len(b & c) != 1 for b in blocks for c in classes):
            return False
    pencils = [{j for j, b in enumerate(blocks) if x in b} for x in range(v)]
    for x, y in itertools.combinations(range(v), 2):
        same_class = net and any(x in c and y in c for c in classes)
        if len(pencils[x] & pencils[y]) != (0 if same_class else lam):
            return False
    n = len(blocks)
    if net:
        parallel = {
            frozenset(i for i in range(n) if i == j or not blocks[i] & blocks[j])
            for j in range(n)
        }
        if len(parallel) != k or any(len(p) != g for p in parallel):
            return False
        if len(set().union(*parallel)) != n:
            return False
        part = {i: p for p in parallel for i in p}
    for i, j in itertools.combinations(range(n), 2):
        if not (net and part[i] == part[j]) and len(blocks[i] & blocks[j]) != lam:
            return False
    return True


@pytest.fixture(scope="session")
def reference_valid():
    return _reference_valid


def _reference_projective_plane(q):
    """Test oracle: PG(2, q) built by testing every (line, point) dot
    product, v^2 of them, over the same point list and line order as
    dd.projective_plane."""
    pp = prime_power(q)
    if pp is None:
        raise dd.ConstructionError(f"{q} is not a prime power")
    F = make_field(*pp)
    pts = [(1, b, c) for b in F.elements for c in F.elements]
    pts += [(0, 1, c) for c in F.elements]
    pts.append((0, 0, 1))

    def dot(u, w):
        return F.add(F.add(F.mul(u[0], w[0]), F.mul(u[1], w[1])), F.mul(u[2], w[2]))

    blocks = tuple(
        tuple(i for i, pt in enumerate(pts) if dot(line, pt) == 0) for line in pts
    )
    return dd.SymmetricDesign(v=q * q + q + 1, k=q + 1, lam=1, blocks=blocks)


@pytest.fixture(scope="session")
def reference_projective_plane():
    return _reference_projective_plane


def _reference_refinement_greedy(n_items, partitions):
    """Test oracle: the eager refinement greedy, which recomputes every
    candidate's gain at every step.  partitions[i] lists the parts
    (disjoint item bitsets covering every item) of candidate i; returns
    the candidates in the order taken, lowest index on ties."""
    classes = [(1 << n_items) - 1]
    chosen = []
    while classes := [c for c in classes if c.bit_count() > 1]:
        sized = [(c, c.bit_count()) for c in classes]
        # twice the number of same-class pairs each candidate splits
        gains = [
            sum(n * n - sum((c & p).bit_count() ** 2 for p in parts) for c, n in sized)
            for parts in partitions
        ]
        best = gains.index(max(gains))
        assert gains[best] > 0, "valid designs and graphs always separate their items"
        chosen.append(best)
        classes = [c & p for c in classes for p in partitions[best]]
    return chosen


@pytest.fixture(scope="session")
def reference_refinement_greedy():
    return _reference_refinement_greedy


def _reference_seeded_samples(n, s, seed, trials):
    """Test oracle: the seeded sample stream by its randrange definition, a
    fresh random.Random per trial seeded with the splitmix64 finalizer of
    (seed, t) and a partial Fisher-Yates shuffle by randrange(i, n)."""
    mask64 = (1 << 64) - 1
    for trial in range(1, trials + 1):
        x = (seed * 0x9E3779B97F4A7C15 + trial) & mask64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & mask64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & mask64
        rng = random.Random(x ^ x >> 31)
        idx = list(range(n))
        for i in range(s):
            j = rng.randrange(i, n)
            idx[i], idx[j] = idx[j], idx[i]
        yield _mask(idx[:s])


@pytest.fixture(scope="session")
def reference_seeded_samples():
    return _reference_seeded_samples


def _refinement_greedy_on_partitions(n_items, partitions):
    """resolve._refinement_greedy called on the candidate-major partitions
    the reference takes: every part but a candidate's last, part-major (a
    candidate with fewer parts gets empty ones), with their transpose."""
    stored = max(map(len, partitions)) - 1
    parts = [[ps[p] if p < len(ps) - 1 else 0 for ps in partitions] for p in range(stored)]
    rows = [[0] * n_items for _ in parts]
    for part, row in zip(parts, rows):
        for i, m in enumerate(part):
            for x in _bits(m):
                row[x] |= 1 << i
    return _refinement_greedy(n_items, parts, rows)


@pytest.fixture(scope="session")
def refinement_greedy_on_partitions():
    return _refinement_greedy_on_partitions


def _reference_incidence_graph(d):
    """Test oracle: the incidence graph of d built from adjacency lists
    through the checked constructor IncidenceGraph(adj, point_count=v):
    points 0..v-1, blocks v..2v-1, each point joined to every block
    containing it."""
    v = d.point_count
    adj = [[] for _ in range(2 * v)]
    for j, blk in enumerate(d.blocks):
        for x in blk:
            adj[x].append(v + j)
            adj[v + j].append(x)
    return dd.IncidenceGraph(adj, point_count=v)


@pytest.fixture(scope="session")
def reference_incidence_graph():
    return _reference_incidence_graph


def _reference_pencils(d):
    """For each point of d, the bitset of the blocks holding it, by one OR
    per incidence."""
    pencils = [0] * d.point_count
    for j, blk in enumerate(d.blocks):
        for x in blk:
            pencils[x] |= 1 << j
    return pencils


def _reference_dual(d):
    """Test oracle: the dual of a valid design as built before validation
    kept it: each block the bits of a point's pencil mask, lowest first, and
    a net's point classes the parallel classes of its blocks."""
    pencils = _reference_pencils(d)
    new_blocks = tuple(tuple(_bits(p)) for p in pencils)
    if isinstance(d, dd.SymmetricDesign):
        return dd.SymmetricDesign(v=d.v, k=d.k, lam=d.lam, blocks=new_blocks)
    return dd.TransversalDesign(
        g=d.g, k=d.k, lam=d.lam, classes=_parallel_classes(d, pencils), blocks=new_blocks
    )


@pytest.fixture(scope="session")
def reference_dual():
    return _reference_dual


def _reference_side_violation(d, members, pencils, rows, nouns, classes=None):
    """The block side checked as the point side with the roles swapped:
    members are bitsets over the elements, pencils[x] the bitset and
    rows[x] the list of the members holding element x."""
    element, member = nouns
    for j, m in enumerate(members):
        if m.bit_count() != d.k:
            return f"{member} {j} is incident with {m.bit_count()} {element}s, expected k = {d.k}"
    class_masks = None
    if classes is not None:
        if (len(classes) != d.k or any(len(c) != d.g for c in classes)
                or _mask(x for c in classes for x in c) != (1 << len(pencils)) - 1):
            return (f"{element} classes do not split the {element}s"
                    f" into k = {d.k} classes of g = {d.g}")
        everyone = (1 << len(members)) - 1
        class_masks = [0] * len(pencils)
        for ci, c in enumerate(classes):
            seen = twice = 0
            cm = _mask(c)
            for x in c:
                class_masks[x] = cm
                twice |= seen & pencils[x]
                seen |= pencils[x]
            if missed := twice | everyone & ~seen:
                j = next(_bits(missed))
                return f"{member} {j} does not meet {element} class {ci} exactly once"
    if hit := _pair_count_violation(rows, members, d.lam, class_masks):
        x, y, got, want = hit
        return f"{element} pair ({x}, {y}) shares {got} {member}s, expected {want}"
    return None


def _reference_both_sides(d, bmasks):
    pencils = _reference_pencils(d)
    rows = [[] for _ in pencils]
    for j, blk in enumerate(d.blocks):
        for x in blk:
            rows[x].append(j)
    net = isinstance(d, dd.TransversalDesign)
    classes = (d.classes, _parallel_classes(d, pencils)) if net else (None, None)
    points = _reference_side_violation(d, bmasks, pencils, rows, ("point", "block"), classes[0])
    blocks = _reference_side_violation(d, pencils, bmasks, d.blocks, ("block", "point"),
                                       classes[1])
    if net and blocks:
        blocks = f"dual is not a transversal design: {blocks}"
    return [hit for hit in (points, blocks) if hit]


def _reference_violations(d):
    """Test oracle: the violations validate_design reported before
    validation kept the dual, in the same order and wording: the
    parameters, then the point side, then the block side checked with the
    roles of points and blocks swapped, with pencils from their own loop.
    Nothing is kept on d."""
    violations = []
    if isinstance(d, dd.SymmetricDesign):
        v, k, lam = d.v, d.k, d.lam
        if v < 2:
            violations.append(f"v = {v} must be at least 2")
        if k - lam < 1:
            violations.append(f"order k - lambda = {k - lam} must be positive")
        if len(d.blocks) != v:
            violations.append(f"block count {len(d.blocks)} != v = {v}")
        else:
            bmasks, bad = _index_masks(d.blocks, v, "block")
            if bad:
                return (*violations, bad)
            violations += _reference_both_sides(d, bmasks)
        q = k - lam
        if q >= 2:
            if not 4 * q - 1 <= v:
                violations.append(f"order bound violated: 4q-1 = {4 * q - 1} > v = {v}")
            if not v <= q * q + q + 1:
                violations.append(f"order bound violated: v = {v} > q^2+q+1 = {q * q + q + 1}")
        if lam < 1:
            violations.append(f"lambda = {lam} must be at least 1")
        return tuple(violations)
    g, k, lam, v = d.g, d.k, d.lam, d.v
    if k != lam * g:
        violations.append(f"k = {k} != lambda*g = {lam * g}")
    if len(d.blocks) != lam * g * g:
        violations.append(f"block count {len(d.blocks)} != lambda*g^2 = {lam * g * g}")
    if not violations:
        if g < 2:
            violations.append(f"class size g = {g} must be at least 2")
        if lam < 1:
            violations.append(f"lambda = {lam} must be at least 1")
    if violations:
        return tuple(violations)
    bmasks, bad = _index_masks(d.blocks, v, "block")
    bad = _index_masks(d.classes, v, "point class")[1] or bad
    return (bad,) if bad else tuple(_reference_both_sides(d, bmasks))


@pytest.fixture(scope="session")
def reference_violations():
    return _reference_violations


def _reference_intersection_array(g):
    """Test oracle: tally neighbor counts by distance over every ordered
    vertex pair (u, w), u-major: the neighbors of w in the layers i-1 and i
    of u, and the rest; return the intersection array if all counts agree
    per distance, else the first conflicting witness in vertex-index
    order."""
    seen = [None] * (g.diameter + 1)
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
            return dd.NotDistanceRegular(
                distance=i,
                first_pair=seen[i][0],
                first_counts=seen[i][1],
                pair=(u, w),
                counts=counts,
            )
    return dd.IntersectionArray(
        c=tuple(counts[0] for _, counts in seen[1:]),
        a=tuple(counts[1] for _, counts in seen),
        b=tuple(counts[2] for _, counts in seen[:-1]),
    )


@pytest.fixture(scope="session")
def reference_intersection_array():
    return _reference_intersection_array


def _reference_pair_count_violation(masks, lam, class_of=None):
    """Test oracle: the first pair x < y, y-major, whose masks share other
    than the expected number of bits (lam, or 0 for two members of one
    class of class_of), as (x, y, got, expected); None when every pair
    agrees.  One popcount per pair."""
    for y, my in enumerate(masks):
        for x in range(y):
            got = (masks[x] & my).bit_count()
            # got == lam is right except for two members of one class
            if got != lam or class_of is not None and got and class_of[x] == class_of[y]:
                want = lam if class_of is None or class_of[x] != class_of[y] else 0
                if got != want:
                    return x, y, got, want
    return None


@pytest.fixture(scope="session")
def reference_pair_count_violation():
    return _reference_pair_count_violation


def _reference_subset_average(d, s, score):
    """Test oracle: the exact average of score(separators, smask) over
    every s-subset smask of the blocks, one subset at a time by
    itertools.combinations; separators are the pencil symmetric
    differences of d's point pairs."""
    v = d.v
    if not 0 <= s <= v:
        raise ValueError(f"s = {s} outside 0..{v}")
    separators = separator_masks(pencil_masks(d))
    subsets = map(_mask, itertools.combinations(range(v), s))
    return Fraction(sum(score(separators, smask) for smask in subsets), comb(v, s))


@pytest.fixture(scope="session")
def reference_subset_average():
    return _reference_subset_average


def _reference_minimum_hitting_set(
    sets, n_elements: int, budget: int | None, max_size: int | None = None
):
    """Test oracle: the branch and bound of resolve._minimum_hitting_set
    as it was before the packing bound walked only its picks and the
    last level was counted without recursion.  Same arguments, same
    (solution, nodes visited), same BudgetExceeded and ValueError."""
    if budget is not None and budget < 1:
        raise ValueError(f"node budget {budget} must be positive")
    if any(m == 0 for m in sets):
        raise ValueError("an empty set cannot be hit")
    uniq = sorted(set(sets), key=lambda m: (m.bit_count(), m))
    minimal = []
    for m in uniq:
        if not any(kept & m == kept for kept in minimal):
            minimal.append(m)
    covers = [0] * n_elements  # element -> bitmask of set indices it hits
    for i, m in enumerate(minimal):
        while m:
            e = (m & -m).bit_length() - 1
            m &= m - 1
            covers[e] |= 1 << i
    if max_size is None:
        # greedy upper bound: the element hitting the most uncovered sets,
        # lowest index on ties
        best, uncovered = [], (1 << len(minimal)) - 1
        while uncovered:
            hits = [(c & uncovered).bit_count() for c in covers]
            best.append(hits.index(max(hits)))
            uncovered &= ~covers[best[-1]]
        best.sort()
        best_size = len(best)
    else:
        best = None
        best_size = max_size + 1
    nodes = 0
    chosen: list[int] = []

    def packing_exceeds(uncovered: int, allowed: int, slack: int) -> bool:
        # True once pairwise-disjoint uncovered sets, restricted to the
        # allowed elements, outnumber the slack (each needs its own element)
        # or one of them has no allowed element left: either way the branch
        # cannot beat best_size
        taken = count = 0
        u = uncovered
        while u:
            i = (u & -u).bit_length() - 1
            u &= u - 1
            m = minimal[i] & allowed
            if not m:
                return True
            if not m & taken:
                count += 1
                if count > slack:
                    return True
                taken |= m
        return False

    def dfs(uncovered: int, allowed: int):
        nonlocal best, best_size, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"node budget {budget} exceeded")
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = sorted(chosen)
            return
        slack = best_size - len(chosen) - 1
        if slack <= 0 or packing_exceeds(uncovered, allowed, slack):
            return
        pivot = minimal[(uncovered & -uncovered).bit_length() - 1] & allowed
        elems = []
        m = pivot
        while m:
            e = (m & -m).bit_length() - 1
            m &= m - 1
            elems.append((-(covers[e] & uncovered).bit_count(), e))
        elems.sort()
        for _, e in elems:
            chosen.append(e)
            dfs(uncovered & ~covers[e], allowed)
            chosen.pop()
            allowed &= ~(1 << e)  # sibling exclusion (see the docstring)

    dfs((1 << len(minimal)) - 1, (1 << n_elements) - 1)
    return (None if best is None else tuple(best)), nodes


@pytest.fixture(scope="session")
def reference_minimum_hitting_set():
    return _reference_minimum_hitting_set
