"""Resolving sets, semi-resolving sets, and exact metric dimension.

A vertex set S resolves a graph when the vectors of hop distances to S are
pairwise distinct.  On the incidence graph of a design, a block is at
distance 1 from the points it contains and distance 3 from the rest, so a
block set S separates points x and y exactly when B(x) & S != B(y) & S
(S meets the pencil symmetric difference B(x) ^ B(y)).  Every separation
question is answered by grouping points into signature classes by
B(x) & S: the first repeated signature is the witness, and the class sizes
give the unresolved-pair count.  The refinement greedy takes the candidate
(a block, or a vertex's distance layers) splitting the most same-class
pairs; every candidate's gain is kept exact in one packed integer, and
each class split updates all of them at once from a bit-sliced tally of
the smaller side.  Exact search, a minimum hitting set over per-pair
separator sets, starts from its own eager greedy over the minimal sets and
branches so that each sibling excludes the elements its earlier siblings
took: every candidate set is searched once, not once per order of the
pivots.  On a bipartite graph of diameter 3 (a symmetric design's
incidence graph) a counting bound on signatures certifies a lower bound on
the metric dimension: a capped refutation below it needs no search, and every
resolving-set search stops once it holds a set of that size, the set it
would have returned anyway.  A capped refutation also hits one
representative per vertex orbit, from automorphisms found by individualize
and refine and each checked edge by edge; a found set still comes from the
plain search.

Point pairs x < y are taken y-major (by y, then by x); reported witnesses
are the first pair in that order.  All randomness is one seeded sample
stream, shared by the random solver and the Monte Carlo rate in bounds:
trial t of a 64-bit seed expands (seed, t) with a splitmix-style mixer, so
runs are reproducible and independent of PYTHONHASHSEED.  verify_witness
checks every witness, on a design or on a graph read from an edge list.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from collections import Counter
from dataclasses import dataclass

from .designs import (
    Design, _bits, _mask, _tally, block_masks, content_lines, dual, int_line, pencil_masks,
    require_valid,
)
from .incidence import IncidenceGraph, incidence_graph

DEFAULT_EXACT_LIMIT = 40
DEFAULT_NODE_BUDGET = 50_000_000


class RetriesExhausted(RuntimeError):
    """Random sampling never produced a semi-resolving set.  Carries the
    trial count and the best (lowest) unresolved-pair count seen; a small
    per-trial success probability, not a refutation of existence."""

    def __init__(self, trials: int, best_unresolved: int):
        self.trials = trials
        self.best_unresolved = best_unresolved
        super().__init__(
            f"no semi-resolving sample in {trials} trials "
            f"(best trial left {best_unresolved} pairs unresolved)"
        )


class BudgetExceeded(RuntimeError):
    """The exact solver hit its node limit."""


# ---------------------------------------------------------------------------
# pencils and the symmetric-difference characterization
# ---------------------------------------------------------------------------

def separator_masks(masks) -> list[int]:
    """Pencil symmetric differences B(x) ^ B(y) of the given pencil masks,
    one per pair x < y, y-major."""
    out = []
    for y in range(len(masks)):
        my = masks[y]
        for x in range(y):
            out.append(masks[x] ^ my)
    return out


def _signature_collision(masks, smask: int) -> tuple[int, int] | None:
    """The first pair x < y, y-major, with masks[x] & smask ==
    masks[y] & smask, or None when the restricted masks are pairwise
    distinct."""
    first: dict[int, int] = {}
    for y, m in enumerate(masks):
        x = first.setdefault(m & smask, y)
        if x != y:
            return (x, y)
    return None


def _unresolved_count(masks, smask: int) -> int:
    """Number of pairs x < y with masks[x] & smask == masks[y] & smask."""
    sizes = Counter(m & smask for m in masks)
    return sum(c * (c - 1) // 2 for c in sizes.values())


def semi_resolving_witness(d: Design, blocks) -> tuple[int, int] | None:
    """None if every point pair's pencil symmetric difference meets the given
    block set, else the first unseparated pair, y-major.  This is
    the bitset route; it never looks at graph distances."""
    return _signature_collision(pencil_masks(d), _mask(blocks))


def is_semi_resolving(d: Design, blocks) -> bool:
    return semi_resolving_witness(d, blocks) is None


def symm_diff_sizes(d: Design) -> dict[int, int]:
    """Exhaustive histogram of |B(x) ^ B(y)| over all point pairs, one at a time."""
    masks = pencil_masks(d)
    return dict(Counter((mx ^ my).bit_count() for y, my in enumerate(masks) for mx in masks[:y]))


# ---------------------------------------------------------------------------
# distance-vector route
# ---------------------------------------------------------------------------

def resolving_witness(g: IncidenceGraph, vertices) -> tuple[int, int] | None:
    """None if the distance vectors to the given vertices are pairwise
    distinct, else the first colliding vertex pair."""
    return side_resolving_witness(g, vertices, range(g.n))


def is_resolving(g: IncidenceGraph, vertices) -> bool:
    return resolving_witness(g, vertices) is None


def side_resolving_witness(g, landmarks, side_vertices) -> tuple[int, int] | None:
    """Distance-vector collision among side_vertices only (the distance
    oracle for semi-resolving checks): (x, u), u the lowest vertex sharing
    its vector with a lower one, x the lowest of those.  Refines the side by
    each landmark's distance layers, dropping classes of one vertex.  A
    landmark or side vertex outside the graph raises ValueError."""
    landmarks, side_vertices = set(landmarks), set(side_vertices)
    for noun, vertices in (("landmark", landmarks), ("side vertex", side_vertices)):
        if outside := [u for u in vertices if not 0 <= u < g.n]:
            raise ValueError(f"{noun} {min(outside)} out of range")
    side = sum(1 << u for u in side_vertices)
    classes = [side] if side & (side - 1) else []
    for s in landmarks:
        classes = [p for c in classes for layer in g.layers[s] if (p := c & layer) & (p - 1)]
    pairs = (tuple(itertools.islice(_bits(c), 2)) for c in classes)
    return min(pairs, key=lambda pair: pair[1], default=None)


# ---------------------------------------------------------------------------
# sample-size bound
# ---------------------------------------------------------------------------

def _sample_bound(v: int, m: int) -> int:
    """ceil(2*v*ln(v)/m), natural logarithm, for pencil symmetric
    differences of size m (m = 2(k-lambda) in a symmetric design): the one
    formula behind every reported and default sample size."""
    return math.ceil(2 * v * math.log(v) / m)


def semi_resolving_sample_size(d: Design) -> int:
    """ceil(v*ln(v)/(k-lambda)) for a valid design: a uniform random block
    sample of this size leaves fewer than one unresolved pair in
    expectation, so a semi-resolving set of this size exists.  Natural
    logarithm throughout.  Raises ValueError when the bound exceeds the
    block count, which for symmetric designs means order k - lambda = 1."""
    require_valid(d)
    s = _sample_bound(d.v, 2 * (d.k - d.lam))
    if s > d.v:
        raise ValueError(f"sample size {s} exceeds the block count {d.v}")
    return s


def clamped_sample_size(d: Design) -> int:
    """min(ceil(v*ln(v)/(k-lambda)), v): the same bound with the sample size
    capped at the block count, defined for every design with k > lambda."""
    if d.k <= d.lam:
        raise ValueError(f"k - lambda = {d.k - d.lam} must be positive")
    return min(_sample_bound(d.v, 2 * (d.k - d.lam)), d.v)


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _seeded_samples(n: int, s: int, seed: int, trials: int):
    """The one seeded sample stream: for trial t = 1..trials, the bitset of
    s distinct values of range(n), drawn by a partial Fisher-Yates shuffle
    from a generator seeded with the splitmix64 finalizer of (seed, t)."""
    for trial in range(1, trials + 1):
        x = (seed * 0x9E3779B97F4A7C15 + trial) & _MASK64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
        rng = random.Random(x ^ x >> 31)
        idx = list(range(n))
        for i in range(s):
            j = rng.randrange(i, n)
            idx[i], idx[j] = idx[j], idx[i]
        yield _mask(idx[:s])


# ---------------------------------------------------------------------------
# randomized / greedy / exact semi-resolving sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledSemiResolvingSet:
    blocks: tuple[int, ...]
    trials: int
    sample_size: int
    seed: int


def randomized_semi_resolving(
    d: Design, s: int | None = None, seed: int = 0, max_retries: int = 100
) -> SampledSemiResolvingSet:
    """Repeatedly draw a uniform s-subset of blocks until one semi-resolves
    the points; s defaults to clamped_sample_size(d).  Trial t takes the
    t-th sample of the seeded stream."""
    require_valid(d)
    v = d.v
    if s is None:
        s = clamped_sample_size(d)
    if not 1 <= s <= v:
        raise ValueError(f"sample size {s} outside 1..{v}")
    if max_retries < 1:
        raise ValueError(f"max_retries = {max_retries} must be positive")
    masks = pencil_masks(d)
    best_unresolved = math.inf
    for trial, smask in enumerate(_seeded_samples(v, s, seed, max_retries), 1):
        unresolved = _unresolved_count(masks, smask)
        if unresolved == 0:
            return SampledSemiResolvingSet(
                blocks=tuple(_bits(smask)), trials=trial, sample_size=s, seed=seed
            )
        best_unresolved = min(best_unresolved, unresolved)
    raise RetriesExhausted(trials=max_retries, best_unresolved=best_unresolved)


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _refinement_greedy(n_items: int, parts, rows) -> list[int]:
    """Greedy separation by partition refinement.  Candidate i splits the
    items into disjoint parts covering every item: parts[p][i] is its part
    p for every part but the last, and its last part is what those leave.
    rows is the transpose: rows[p][x] is the bitset of the candidates whose
    part p holds item x (a design's pencil masks for its blocks; a graph's
    distance layers below the diameter are their own transpose).  Keeps
    the classes of items not yet told apart and repeatedly takes the
    candidate splitting the most same-class pairs, lowest index on ties.
    Returns the candidates in the order taken.

    Every candidate's gain is exact in one packed int, a w-bit field per
    candidate.  Each class keeps its shares, packed the same way with one
    slab per stored part: the count of its items in that part of every
    candidate.  A class's share of a candidate's last part is what the
    stored parts leave, and a picked candidate's last part is built once,
    at its pick.  When a pick splits class c into A (the smaller side)
    and B, A's shares are a bit-sliced tally of its items' rows, B's are
    c's minus A's, and every candidate loses the A-B pairs it splits:

        n_A S_B + n_B S_A - S_A.S_B - sum_p s_A,p.s_B,p

    fieldwise, S being the sum over the stored parts.  Each product is
    one masked add per tally plane of A, and the products are added
    before anything is subtracted, so no field borrows.  A pick with more
    parts peels its smaller pieces off a class one at a time."""
    if n_items < 2:
        return []
    stored, n = len(parts), len(parts[0])
    everything = (1 << n_items) - 1
    # every field (a gain, or a product of two class shares) stays below n_items^2 / 2
    w = 32 if n_items * n_items < 1 << 31 else 64
    step, code, ones, slab = w // 8, "I" if w == 32 else "Q", (1 << w) - 1, n * w
    # field p*n + i of a row, a plane or a share: candidate i's part p
    packed = list(rows[0])  # the caller's ints, not copies, for one stored part
    for p in range(1, stored):
        packed = [x | row << p * n for x, row in zip(packed, rows[p])]

    def pack(values: list[int]) -> int:
        return int.from_bytes(struct.pack(f"<{len(values)}{code}", *values), "little")

    gains_of = struct.Struct(f"<{n}{code}")
    buf, digits = bytearray(stored * n * step), f"0{stored * n}b"

    def spread(mask: int) -> int:
        # bit f of mask to the low bit of field f
        buf[::step] = format(mask, digits).encode().translate(_BIT_BYTES)[::-1]
        return int.from_bytes(buf, "little")

    low, shifts = (1 << slab) - 1, range(slab, stored * slab, slab)

    def fold(x: int) -> int:
        # the sum over the stored parts, fieldwise
        total = x & low
        for shift in shifts:
            total += x >> shift & low
        return total

    counts = [[m.bit_count() for m in part] for part in parts]
    gain = pack([
        (n_items * n_items - sum(s * s for s in ss) - (n_items - sum(ss)) ** 2) // 2
        for ss in zip(*counts)
    ])
    # live classes, of two items or more: (items, size, shares)
    classes = [(everything, n_items, pack([s for ss in counts for s in ss]))]

    def split(a: int, n_a: int, shares: int, n_b: int) -> tuple[int, int]:
        # the shares of A and of B; takes the A-B pairs off every gain
        nonlocal gain
        if n_a == 1:
            planes = [packed[a.bit_length() - 1]]
        else:
            planes = _tally(map(packed.__getitem__, _bits(a)))
        share_a, masks = 0, []
        for j, plane in enumerate(planes):
            if plane:
                unit = spread(plane)
                share_a += unit << j
                masks.append((j, unit * ones))
        share_b = shares - share_a
        sum_a, sum_b = fold(share_a), fold(share_b)
        both = share_b + sum_b
        for shift in shifts:
            both += sum_b << shift
        products = 0
        for j, m in masks:
            products += (both & m) << j
        gain -= n_a * sum_b + n_b * sum_a - fold(products)
        return share_a, share_b

    chosen = []
    while classes:
        gains = gains_of.unpack(gain.to_bytes(n * step, "little"))
        best = max(gains)
        assert best, "valid designs and graphs always separate their items"
        i = gains.index(best)
        chosen.append(i)
        picked = [part[i] for part in parts]
        picked.append(everything ^ sum(picked))  # the parts are disjoint: sum is union
        kept = []
        for c, size, shares in classes:
            pieces = sorted(((x.bit_count(), x) for p in picked if (x := c & p)), reverse=True)
            for n_a, a in pieces[:0:-1]:
                share_a, shares = split(a, n_a, shares, size - n_a)
                c, size = c ^ a, size - n_a
                if n_a > 1:
                    kept.append((a, n_a, share_a))
                else:
                    packed[a.bit_length() - 1] = 0  # a lone item is never tallied again
            if size > 1:
                kept.append((c, size, shares))
            else:
                packed[c.bit_length() - 1] = 0
        classes = kept
    return chosen


def greedy_semi_resolving(d: Design) -> tuple[int, ...]:
    """Greedy over blocks: take the block separating the most
    still-unseparated point pairs, lowest index on ties."""
    require_valid(d)
    result = tuple(sorted(_refinement_greedy(d.point_count, [block_masks(d)], [pencil_masks(d)])))
    assert is_semi_resolving(d, result)
    return result


# ---------------------------------------------------------------------------
# exact minimum hitting set (shared by min_semi_resolving and metric_dimension)
# ---------------------------------------------------------------------------

def _minimum_hitting_set(
    sets, n_elements: int, budget: int | None, max_size: int | None = None,
    lower: int | None = None,
):
    """Branch and bound for a minimum hitting set.

    Works on two bitmap layers: each input set is a bitmask over elements,
    and the collection of still-uncovered sets is itself one bitmask, so
    choosing an element removes all sets it hits in a single AND.  Branches
    on the allowed elements of the lowest-index uncovered set (a smallest
    one; most-covering element first) and starts from the greedy upper
    bound.  Sibling exclusion: once the branch on element e returns, e is no
    longer allowed in the branches after it, because every cover holding e
    was reachable from that branch, which left best_size no larger than the
    size of any such cover.  Later siblings therefore never revisit a set,
    and the first optimum found is the one the search without exclusion
    finds.  The disjoint-packing lower bound counts uncovered sets by their
    allowed elements and prunes a branch in which an uncovered set has none.
    It walks only its picks, at most slack + 1 of them: the lowest uncovered
    set, after which every set an allowed element of it hits is cleared,
    which leaves the picks of a scan in index order.  At the last level
    (one element left to beat best_size) every child is a cover or pruned
    at once, so the children are counted without recursion and the first
    cover in branch order is kept; nodes visited are the recursive count.
    With max_size given, searches only for solutions of at most that size
    and returns None when a complete search finds no such solution.  With
    lower given, a lower bound on every cover's size, the search stops as
    soon as the size to beat is at most lower: nothing smaller exists, and
    no later cover of equal size would replace the one held, so the
    solution is the unbounded search's, in no more nodes.  A budget below 1
    raises ValueError, a search past the budget BudgetExceeded.
    Deterministic; returns (solution, nodes visited)."""
    if budget is not None and budget < 1:
        raise ValueError(f"node budget {budget} must be positive")
    if any(m == 0 for m in sets):
        raise ValueError("an empty set cannot be hit")
    uniq = sorted(set(sets), key=lambda m: (m.bit_count(), m))
    minimal = []
    for m in uniq:
        if not any(kept & m == kept for kept in minimal):
            minimal.append(m)
    members = [list(_bits(m)) for m in minimal]  # set index -> its elements
    covers = [0] * n_elements  # element -> bitmask of set indices it hits
    for i, elements in enumerate(members):
        for e in elements:
            covers[e] |= 1 << i
    misses = [~c for c in covers]
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
    floor = -1 if lower is None else lower
    nodes = 0
    chosen: list[int] = []

    def packing_exceeds(uncovered: int, allowed: int, slack: int) -> bool:
        # True once pairwise-disjoint uncovered sets, restricted to the
        # allowed elements, outnumber the slack (each needs its own element)
        # or one of them has no allowed element left: either way the branch
        # cannot beat best_size.  Picks the lowest uncovered set, then clears
        # every set an allowed element of the pick hits; a set with no
        # allowed element is never cleared, so it is still reached
        count = 0
        while uncovered:
            i = (uncovered & -uncovered).bit_length() - 1
            if not minimal[i] & allowed:
                return True
            count += 1
            if count > slack:
                return True
            for e in members[i]:
                if allowed >> e & 1:
                    uncovered &= misses[e]
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
        pivot = (uncovered & -uncovered).bit_length() - 1
        if slack == 1:
            # every child is a cover or a node at slack 0: count them all, and
            # keep the first cover in (-hits, e) order, the lowest element
            # hitting every uncovered set
            nodes += (minimal[pivot] & allowed).bit_count()
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"node budget {budget} exceeded")
            for e in members[pivot]:
                if allowed >> e & 1 and not uncovered & misses[e]:
                    best_size = len(chosen) + 1
                    best = sorted([*chosen, e])
                    break
            return
        elems = sorted(
            (-(covers[e] & uncovered).bit_count(), e)
            for e in members[pivot]
            if allowed >> e & 1
        )
        for _, e in elems:
            chosen.append(e)
            dfs(uncovered & misses[e], allowed)
            chosen.pop()
            if best_size <= floor:
                return  # a cover at the lower bound is final
            allowed &= ~(1 << e)  # sibling exclusion (see the docstring)

    if best_size > floor:
        dfs((1 << len(minimal)) - 1, (1 << n_elements) - 1)
    del dfs  # no self-reference left: the tables go on return, not at a collection
    return (None if best is None else tuple(best)), nodes


def min_semi_resolving(
    d: Design,
    budget: int | None = DEFAULT_NODE_BUDGET,
    limit: int = DEFAULT_EXACT_LIMIT,
) -> tuple[int, ...]:
    """A minimum-cardinality semi-resolving block set, by exact hitting-set
    search over the pencil symmetric differences."""
    v = d.v
    if v > limit:
        raise ValueError(f"{v} points exceeds the exact-solver limit {limit}")
    require_valid(d)
    solution, _ = _minimum_hitting_set(separator_masks(pencil_masks(d)), len(d.blocks), budget)
    assert is_semi_resolving(d, solution)
    return solution


# ---------------------------------------------------------------------------
# exact metric dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricDimensionResult:
    lower: int
    upper: int
    landmarks: tuple[int, ...]
    optimal: bool

    @property
    def mu(self) -> int:
        if not self.optimal:
            raise ValueError("only bounds are available for this graph")
        return self.upper


def _vertex_separator_sets(g: IncidenceGraph) -> list[int]:
    """For each vertex pair, the bitset of vertices at different distances
    from the two (never empty: each vertex separates itself from the rest)."""
    full = (1 << g.n) - 1
    return [
        full ^ sum(a & b for a, b in zip(lu, lw))  # the layers of u are disjoint
        for w, lw in enumerate(g.layers)
        for lu in g.layers[:w]
    ]


def _signature_bound(g: IncidenceGraph) -> int:
    """A lower bound on the metric dimension of a bipartite graph of
    diameter 3, such as a symmetric design's incidence graph; 0 for every
    other graph.  Two vertices of one side are at distance 2, so a landmark
    on side A tells only itself apart from the rest of A.  If a resolving
    set has a vertices on A and b on B, the |A| - a vertices of A outside it
    therefore need pairwise distinct signatures N(x) & L over the b
    landmarks L on B.  At most b + 1 of them meet L in fewer than two
    vertices, and at most min(lam_B * C(b, 2), 2^b - b - 1) in two or more,
    lam_B being the most common neighbors two vertices of B have.  The
    bound is the least a + b meeting this count and its mirror image for B.
    Each lam is one popcount per same-side pair of nbr."""
    if g.part is None or g.diameter != 3:
        return 0
    sides = ([], [])
    for u, side in enumerate(g.part):
        sides[side].append(g.nbr[u])
    # diameter 3 puts at least two vertices on each side
    lam_a, lam_b = (
        max((x & y).bit_count() for x, y in itertools.combinations(masks, 2)) for masks in sides
    )
    size_a, size_b = map(len, sides)
    for total in itertools.count():
        for a in range(max(0, total - size_b), min(total, size_a) + 1):
            b = total - a
            if (
                size_a - a <= min(lam_b * math.comb(b, 2), (1 << b) - b - 1) + b + 1
                and size_b - b <= min(lam_a * math.comb(a, 2), (1 << a) - a - 1) + a + 1
            ):
                return total


def metric_dimension(
    g: IncidenceGraph,
    limit: int = DEFAULT_EXACT_LIMIT,
    budget: int | None = DEFAULT_NODE_BUDGET,
) -> MetricDimensionResult:
    """Exact metric dimension as a minimum hitting set over per-pair vertex
    separator sets.  The search stops once it holds a set of the size of
    _signature_bound(g), which certifies that set optimal; it is the set
    the full search would return.  Past the size limit, falls back to the
    greedy upper bound (each vertex splits the others by their distance to
    it) plus the counting lower bound, the least k with
    (diameter+1)^k >= n (k distances take at most diameter+1 values each),
    flagged optimal when they meet."""
    if g.n > limit:
        # distance is symmetric: the layers below the diameter are their own transpose
        layers = tuple(zip(*g.layers))[:-1]
        landmarks = tuple(sorted(_refinement_greedy(g.n, layers, layers)))
        lower = 0
        while (g.diameter + 1) ** lower < g.n:
            lower += 1
        return MetricDimensionResult(
            lower=lower, upper=len(landmarks), landmarks=landmarks,
            optimal=lower == len(landmarks),
        )
    solution, _ = _minimum_hitting_set(
        _vertex_separator_sets(g), g.n, budget, lower=_signature_bound(g)
    )
    assert is_resolving(g, solution)
    return MetricDimensionResult(
        lower=len(solution), upper=len(solution), landmarks=solution, optimal=True
    )


_ORBIT_NODE_CAP = 1_000  # search nodes per target vertex in _orbit_representatives


def _orbit_representatives(g: IncidenceGraph) -> tuple[int, list[list[int]]]:
    """The bitset of the least vertex of each orbit found under the
    automorphisms of g, and the automorphisms found (as vertex maps), by
    individualize and refine over the distance layers.  Individualizing a
    vertex splits every cell by its distance layers; a target vertex is
    tried only when its parts match the source's in distance and size.  A
    discrete partition pairs the vertices into a map, used only once
    checked to be a bijection taking every edge to an edge; each verified
    map merges its cycles into orbits (a union-find whose roots are the
    least vertices).  Every vertex t not yet merged is
    tried as the image of each earlier root, within _ORBIT_NODE_CAP nodes
    per target; a target past the cap keeps its own class, so a missed
    automorphism costs speed, never soundness."""
    n = g.n
    root, found = list(range(n)), []

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    def refine(cells, u):
        # the nonempty parts, and as the key the size of every (cell, layer)
        # part, empty ones too, so that positions stand for distances
        parts = [c & layer for c in cells for layer in g.layers[u]]
        return [p for p in parts if p], [p.bit_count() for p in parts]

    def extend(src, dst):
        # a verified automorphism taking each cell of src onto that of dst, or None
        nonlocal nodes
        nodes += 1
        j = next((j for j, c in enumerate(src) if c & (c - 1)), None)
        if j is None:
            sigma = [0] * n
            for a, b in zip(src, dst):
                sigma[a.bit_length() - 1] = b.bit_length() - 1
            edges_kept = all(
                sum(1 << sigma[x] for x in g.adj[u]) == g.nbr[sigma[u]] for u in range(n)
            )
            return sigma if edges_kept and len(set(sigma)) == n else None
        cells, key = refine(src, (src[j] & -src[j]).bit_length() - 1)
        for w in _bits(dst[j]):
            if nodes >= _ORBIT_NODE_CAP:
                return None
            images, image_key = refine(dst, w)
            if image_key == key and (sigma := extend(cells, images)):
                return sigma
        return None

    for t in range(1, n):
        if find(t) != t:
            continue
        nodes = 0
        images, image_key = refine([(1 << n) - 1], t)
        for r in range(t):
            if find(r) != r:
                continue
            cells, key = refine([(1 << n) - 1], r)
            if key == image_key and (sigma := extend(cells, images)):
                found.append(sigma)
                for x, y in enumerate(sigma):
                    a, b = find(x), find(y)
                    root[max(a, b)] = min(a, b)
                break
    del extend  # as in _minimum_hitting_set
    return sum(1 << r for r in range(n) if find(r) == r), found


def find_resolving_set(
    g: IncidenceGraph, max_size: int, budget: int | None = None
) -> tuple[int, ...] | None:
    """Complete search for a resolving set with at most max_size vertices.
    None certifies that none exists (so the metric dimension exceeds
    max_size); otherwise the smallest set within the cap is returned, the
    one the plain capped search finds.  A cap below _signature_bound(g)
    gets None from that counting certificate alone, with no search.
    Otherwise the certificate rests on verified automorphisms: one maps a
    resolving set onto another of the same size, so if a nonempty one fits
    the cap, so does its image under an automorphism taking one of its
    vertices to that vertex's orbit representative.  The refuting search
    therefore takes _orbit_representatives(g) as one more set to hit (not
    on one vertex, where the empty set resolves); when it finds a set, the
    plain search runs again.  Both searches stop at a set of the bound's
    size.  The budget bounds each search."""
    if max_size < 0:
        raise ValueError(f"max_size = {max_size} must be nonnegative")
    lower = _signature_bound(g)
    if max_size < lower:
        return None
    sets = _vertex_separator_sets(g)
    if sets and _minimum_hitting_set(
        [*sets, _orbit_representatives(g)[0]], g.n, budget, max_size=max_size, lower=lower
    )[0] is None:
        return None
    solution, _ = _minimum_hitting_set(sets, g.n, budget, max_size=max_size, lower=lower)
    if solution is not None:
        assert is_resolving(g, solution)
    return solution


# ---------------------------------------------------------------------------
# split resolving sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitResolvingSet:
    """points semi-resolve the blocks; blocks semi-resolve the points; the
    union resolves the whole incidence graph."""

    points: tuple[int, ...]
    blocks: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.points) + len(self.blocks)

    def graph_vertices(self, point_count: int) -> tuple[int, ...]:
        return tuple(self.points) + tuple(point_count + b for b in self.blocks)


def semi_resolving_set(
    d: Design,
    method: str,
    s: int | None = None,
    seed: int = 0,
    max_retries: int = 100,
    budget: int | None = DEFAULT_NODE_BUDGET,
    limit: int = DEFAULT_EXACT_LIMIT,
) -> tuple[tuple[int, ...], int | None]:
    """A semi-resolving block set of d by the named method ("random",
    "greedy" or "exact") and the random method's trial count (None for the
    others).  The random method samples s blocks, by default
    clamped_sample_size(d)."""
    if method == "exact":
        return min_semi_resolving(d, budget=budget, limit=limit), None
    if method == "greedy":
        return greedy_semi_resolving(d), None
    if method != "random":
        raise ValueError(f"unknown method {method!r}")
    sampled = randomized_semi_resolving(d, s=s, seed=seed, max_retries=max_retries)
    return sampled.blocks, sampled.trials


def split_resolving(
    d: Design,
    method: str = "exact",
    s: int | None = None,
    seed: int = 0,
    max_retries: int = 100,
    budget: int | None = DEFAULT_NODE_BUDGET,
    limit: int = DEFAULT_EXACT_LIMIT,
) -> SplitResolvingSet:
    """Combine a semi-resolving block set for the design with a
    semi-resolving block set of its dual (a point set of the design),
    using the requested method per side (see semi_resolving_set), and
    verify that the union resolves the incidence graph.  The point side's
    random stream uses seed + 1.
    """
    d_dual = dual(d)  # validates d
    options = dict(method=method, s=s, max_retries=max_retries, budget=budget, limit=limit)
    s_blocks, _ = semi_resolving_set(d, seed=seed, **options)
    s_points, _ = semi_resolving_set(d_dual, seed=seed + 1, **options)
    result = SplitResolvingSet(points=s_points, blocks=s_blocks)
    graph = incidence_graph(d)  # built once per design; verify_witness reuses it
    witness = resolving_witness(graph, result.graph_vertices(d.point_count))
    if witness is not None:
        raise AssertionError(
            f"split set fails to resolve the incidence graph at {witness}"
        )
    return result


# ---------------------------------------------------------------------------
# witness files: `RS <role>` header, then one line of indices.
#
# Roles and index spaces:
#   semi-points  block indices (a block set separating the points)
#   semi-blocks  point indices (a point set separating the blocks)
#   split        incidence-graph vertex indices (points 0..v-1, blocks v..2v-1)
#   full         incidence-graph vertex indices
# ---------------------------------------------------------------------------

WITNESS_ROLES = ("semi-points", "semi-blocks", "split", "full")


def witness_to_text(role: str, indices) -> str:
    if role not in WITNESS_ROLES:
        raise ValueError(f"unknown witness role {role!r}")
    return f"RS {role}\n" + " ".join(str(i) for i in sorted(indices)) + "\n"


def witness_from_text(text: str) -> tuple[str, tuple[int, ...]]:
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty witness file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "RS" or head[1] not in WITNESS_ROLES:
        raise ValueError(f"bad witness header: {lines[0]!r}")
    if len(lines) > 2:
        raise ValueError("witness file has trailing content")
    return head[1], int_line(lines[1], "witness index") if len(lines) == 2 else ()


def verify_witness(subject: Design | IncidenceGraph, role: str, indices) -> tuple[bool, str]:
    """Recheck a witness by both the symmetric-difference route and the
    distance route where applicable.  Returns (ok, detail).  Both routes
    use a design's one dual and one incidence graph.  An incidence graph
    (read from an edge list) has no block structure: it takes role "full"
    only, checked by the distance route, and any other role raises
    ValueError."""
    if isinstance(subject, IncidenceGraph):
        if role != "full":
            raise ValueError(f"graph files support only role 'full', not {role!r}")
        graph, v, name = subject, 0, "the graph"  # v sizes only the semi roles
    else:
        graph, v, name = incidence_graph(subject), subject.point_count, "the incidence graph"
    if role not in WITNESS_ROLES:
        raise ValueError(f"unknown witness role {role!r}")
    kind, size = {"semi-points": ("block", graph.n - v), "semi-blocks": ("point", v)}.get(
        role, ("vertex", graph.n)
    )
    if any(not 0 <= i < size for i in indices):
        return False, f"{kind} index out of range"

    def check_semi(design, blocks, landmark_vertices, side_vertices):
        w_mask = semi_resolving_witness(design, blocks)
        w_dist = side_resolving_witness(graph, landmark_vertices, side_vertices)
        if (w_mask is None) != (w_dist is None):
            return False, (
                f"characterizations disagree: bitset route says "
                f"{w_mask}, distance route says {w_dist}"
            )
        if w_mask is not None:
            return False, f"pair {w_mask} is not separated"
        return True, "separates all pairs by both routes"

    if role == "semi-points":
        return check_semi(subject, indices, [v + b for b in indices], range(v))
    if role == "semi-blocks":
        return check_semi(dual(subject), indices, list(indices), range(v, graph.n))
    if role == "split":
        points = [u for u in indices if u < v]
        blocks = [u - v for u in indices if u >= v]
        ok_b, detail_b = check_semi(subject, blocks, [v + b for b in blocks], range(v))
        if not ok_b:
            return False, f"block side: {detail_b}"
        ok_p, detail_p = check_semi(dual(subject), points, points, range(v, graph.n))
        if not ok_p:
            return False, f"point side: {detail_p}"
    w = resolving_witness(graph, indices)
    if w is not None:
        return False, f"vertices {w} have equal distance vectors"
    return True, f"resolves {name}"
