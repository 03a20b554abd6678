import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designdim as dd
from designdim import designs, incidence, resolve
from designdim.designs import pencil_masks
from designdim.resolve import (
    _minimum_hitting_set,
    _orbit_representatives,
    _signature_bound,
    _vertex_separator_sets,
    separator_masks,
    side_resolving_witness,
)


# ---------------------------------------------------------------------------
# is_resolving on the 8-cycle
# ---------------------------------------------------------------------------

def _eight_cycle():
    return dd.incidence_graph(dd.biaffine_plane(2))


def test_adjacent_pair_resolves_eight_cycle():
    g = _eight_cycle()
    assert dd.is_resolving(g, (0, g.adj[0][0]))


def test_antipodal_pair_fails_on_eight_cycle(layer_distance):
    g = _eight_cycle()
    opposite = next(w for w in range(g.n) if layer_distance(g, 0, w) == 4)
    witness = dd.resolving_witness(g, (0, opposite))
    assert witness is not None
    u, w = witness
    assert tuple(layer_distance(g, u, s) for s in (0, opposite)) == tuple(
        layer_distance(g, w, s) for s in (0, opposite)
    )


def test_full_vertex_set_resolves(corpus_graphs):
    for name, g in corpus_graphs.items():
        assert dd.is_resolving(g, range(g.n)), name


# ---------------------------------------------------------------------------
# semi-resolving: bitset route vs distance route
# ---------------------------------------------------------------------------

def _distance_semi_check(graph, v, blocks):
    return side_resolving_witness(graph, [v + b for b in blocks], range(v)) is None


def test_fano_all_blocks_semi_resolve(fano):
    assert dd.is_semi_resolving(fano, range(7))


def test_fano_empty_set_fails(fano):
    assert not dd.is_semi_resolving(fano, ())
    assert dd.semi_resolving_witness(fano, ()) == (0, 1)


def test_fano_single_pencil_agrees_with_distance_oracle(fano):
    masks = pencil_masks(fano)
    pencil0 = [j for j in range(7) if (masks[0] >> j) & 1]
    assert len(pencil0) == 3
    graph = dd.incidence_graph(fano)
    assert dd.is_semi_resolving(fano, pencil0) == _distance_semi_check(graph, 7, pencil0)


def test_characterizations_agree_on_random_subsets(small_corpus):
    """Bitset route == distance route on 200 random block subsets each."""
    rng = random.Random(1729)
    for name, d in small_corpus.items():
        graph = dd.incidence_graph(d)
        v = d.v
        for _ in range(200):
            size = rng.randrange(0, v + 1)
            blocks = rng.sample(range(v), size)
            assert dd.is_semi_resolving(d, blocks) == _distance_semi_check(
                graph, v, blocks
            ), name


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_semi_resolving_witness_is_first_in_triangular_order(small_corpus, data):
    d = small_corpus[data.draw(st.sampled_from(sorted(small_corpus)), label="design")]
    blocks = data.draw(st.sets(st.integers(0, len(d.blocks) - 1)), label="blocks")
    smask = sum(1 << b for b in blocks)
    seps = separator_masks(pencil_masks(d))
    pairs = [(x, y) for y in range(d.point_count) for x in range(y)]  # y-major
    expected = next(
        (pair for pair, sep in zip(pairs, seps, strict=True) if not sep & smask), None
    )
    assert dd.semi_resolving_witness(d, blocks) == expected


def _first_distance_collision(dist, landmarks, side_vertices):
    seen = {}
    for u in side_vertices:
        vec = tuple(dist[u][s] for s in sorted(set(landmarks)))
        if vec in seen:
            return (seen[vec], u)
        seen[vec] = u
    return None


def _with_chords(g, chords):
    adj = [list(ns) for ns in g.adj]
    for a, b in chords:
        if a != b and b not in adj[a]:
            adj[a].append(b)
            adj[b].append(a)
    return dd.IncidenceGraph(adj)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_distance_witnesses_match_reference_scan(small_corpus, bfs_distances, data):
    """The first colliding pair of the distance-vector scan in vertex order,
    on corpus graphs and on non-bipartite copies with chords added."""
    d = small_corpus[data.draw(st.sampled_from(sorted(small_corpus)), label="design")]
    g = dd.incidence_graph(d)
    vertex = st.integers(0, g.n - 1)
    chords = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3), label="chords")
    g = _with_chords(g, chords)
    dist = bfs_distances(g)
    landmarks = data.draw(st.lists(vertex, max_size=8), label="landmarks")
    v = d.point_count
    assert dd.resolving_witness(g, landmarks) == _first_distance_collision(
        dist, landmarks, range(g.n)
    )
    for side in (range(v), range(v, g.n)):
        assert side_resolving_witness(g, landmarks, side) == _first_distance_collision(
            dist, landmarks, side
        )


@pytest.mark.parametrize("landmarks, side, message", [
    ([-1], range(7), "landmark -1 out of range"),
    ([99], range(7), "landmark 99 out of range"),
    ([7], [20, 21], "side vertex 20 out of range"),
], ids=["negative-landmark", "landmark-past-n", "side-past-n"])
def test_distance_route_rejects_vertices_outside_the_graph(fano, landmarks, side, message):
    """A landmark or side vertex outside 0..n-1 raises, with the resolving
    check's message, instead of reading another vertex's layers or dropping
    the vertex."""
    g = dd.incidence_graph(fano)
    with pytest.raises(ValueError) as info:
        side_resolving_witness(g, landmarks, side)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# symmetric-difference histograms
# ---------------------------------------------------------------------------

def test_fano_histogram(fano):
    assert dd.symm_diff_sizes(fano) == {4: 21}


def test_biaffine3_histogram():
    # same-class pairs: 2*lambda*g = 6, cross-class: 2*lambda*(g-1) = 4
    assert dd.symm_diff_sizes(dd.biaffine_plane(3)) == {6: 9, 4: 27}


def test_hadamard_std4_histogram():
    assert dd.symm_diff_sizes(dd.hadamard_std(dd.hadamard_matrix(4))) == {8: 4, 4: 24}


def test_histogram_counts_every_separator(corpus):
    for name, d in corpus.items():
        expected = Counter(sep.bit_count() for sep in separator_masks(pencil_masks(d)))
        assert dd.symm_diff_sizes(d) == dict(expected), name


def test_histogram_streams_its_pairs():
    """pg16 has 37 128 point pairs; keeping every pencil difference at once
    peaks at about 2.5 MiB."""
    d = dd.projective_plane(16)
    tracemalloc.start()
    try:
        hist = dd.symm_diff_sizes(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist == {32: 273 * 272 // 2}
    assert peak < 256 << 10


# ---------------------------------------------------------------------------
# sample-size bound
# ---------------------------------------------------------------------------

def test_sample_size_fano(fano):
    assert dd.semi_resolving_sample_size(fano) == 7


def test_sample_size_pg3(corpus):
    assert dd.semi_resolving_sample_size(corpus["pg3"]) == 12


def test_sample_size_excluded_net_parameters(corpus):
    # (lambda, g) = (1, 2), (1, 3), (2, 2): the only nets with lambda, g < 200
    # whose bound exceeds the block count
    for name, s, v in (("ba2", 6, 4), ("ba3", 10, 9), ("hstd4", 9, 8)):
        with pytest.raises(ValueError, match=f"sample size {s} exceeds the block count {v}$"):
            dd.semi_resolving_sample_size(corpus[name])


def test_sample_size_rejects_order_one():
    with pytest.raises(ValueError, match="sample size 9 exceeds the block count 5$"):
        dd.semi_resolving_sample_size(dd.point_complement_design(5))


@pytest.mark.parametrize("g, k, lam", [(2, 3, 3), (4, 2, 1)])
def test_sample_size_rejects_inconsistent_net_parameters(g, k, lam):
    # k = lambda would divide by zero, k < lambda*g would give s > v
    net = dd.TransversalDesign(g=g, k=k, lam=lam, classes=(), blocks=())
    with pytest.raises(ValueError, match="lambda\\*g"):
        dd.semi_resolving_sample_size(net)


def test_sample_size_never_exceeds_block_count(corpus):
    for name, d in corpus.items():
        try:
            s = dd.semi_resolving_sample_size(d)
        except ValueError:
            continue
        assert 1 <= s <= d.v, name


# ---------------------------------------------------------------------------
# randomized construction
# ---------------------------------------------------------------------------

def test_randomized_fano_full_sample_first_trial(fano):
    res = dd.randomized_semi_resolving(fano, s=7, seed=123)
    assert res.blocks == tuple(range(7))
    assert res.trials == 1


def test_randomized_pg3_always_first_trial(corpus):
    # s = 12 > v - m = 7: every sample misses at most one block per pair
    # separator, so every trial succeeds regardless of seed
    d = corpus["pg3"]
    for seed in range(10):
        res = dd.randomized_semi_resolving(d, s=12, seed=seed)
        assert res.trials == 1
        assert dd.is_semi_resolving(d, res.blocks)


def test_randomized_fano_small_sample_succeeds(fano):
    res = dd.randomized_semi_resolving(fano, s=3, seed=0, max_retries=100)
    assert len(res.blocks) == 3
    assert dd.is_semi_resolving(fano, res.blocks)


def test_randomized_is_reproducible(fano):
    a = dd.randomized_semi_resolving(fano, s=3, seed=42)
    b = dd.randomized_semi_resolving(fano, s=3, seed=42)
    assert a == b


def test_randomized_default_sample_size_is_clamped(corpus):
    # ceil(v ln v/(k - lambda)) = 10 exceeds the 9 blocks of ba3: the default
    # draws all 9, as the method dispatch does
    d = corpus["ba3"]
    res = dd.randomized_semi_resolving(d, seed=5)
    assert res.sample_size == len(res.blocks) == dd.clamped_sample_size(d) == 9
    assert (res.blocks, res.trials) == resolve.semi_resolving_set(d, "random", seed=5)


def test_randomized_rejects_bad_sample_size(fano):
    with pytest.raises(ValueError):
        dd.randomized_semi_resolving(fano, s=0)
    with pytest.raises(ValueError):
        dd.randomized_semi_resolving(fano, s=8)


def test_randomized_rejects_invalid_design(fano):
    broken = dataclasses.replace(fano, blocks=fano.blocks[:6] + ((0, 1, 9),))
    with pytest.raises(ValueError, match="does not validate"):
        dd.randomized_semi_resolving(broken, s=3)


def test_randomized_retries_exhausted_reports_diagnostics():
    # a single block can never separate all pairs of the Fano plane
    fano = dd.projective_plane(2)
    with pytest.raises(dd.RetriesExhausted) as info:
        dd.randomized_semi_resolving(fano, s=1, seed=0, max_retries=5)
    assert info.value.trials == 5
    assert info.value.best_unresolved > 0


PIN_SEEDS = (0, 7, 2**40 + 3)


def test_seeded_samples_are_pinned(corpus):
    """The seeded sample stream that the random solver and the Monte Carlo
    rate share, pinned per seed: Monte Carlo successes in 200 trials, and
    the random solver's blocks and trials, or its RetriesExhausted trials
    and best unresolved count, within 20 retries."""
    successes = {
        ("pg2", 3): (160, 153, 161),
        ("pg3", 6): (132, 127, 130),
        ("ba3", 4): (47, 36, 43),
        ("hd8", 3): (158, 150, 159),
        ("pg5", 12): (57, 55, 68),
    }
    for (name, s), want in successes.items():
        got = tuple(
            dd.monte_carlo_success(corpus[name], s, trials=200, seed=seed).successes
            for seed in PIN_SEEDS
        )
        assert got == want, (name, s)
    sampled = {
        ("pg3", 4): [(None, 20, 3)] * 3,
        ("pg5", 10): [(None, 20, 2)] * 3,
        ("ba3", 4): [((3, 4, 7, 8), 5), ((0, 2, 3, 5), 2), ((0, 1, 6, 8), 6)],
        ("hd8", 3): [((1, 3, 6), 1), ((3, 5, 6), 2), ((1, 2, 3), 1)],
        ("pg5", 14): [
            ((6, 8, 12, 13, 14, 15, 20, 21, 22, 23, 25, 26, 27, 30), 1),
            ((2, 3, 5, 6, 7, 10, 11, 12, 13, 19, 22, 26, 29, 30), 1),
            ((0, 1, 2, 4, 6, 7, 9, 11, 13, 18, 22, 23, 24, 30), 1),
        ],
    }
    for (name, s), want in sampled.items():
        got = []
        for seed in PIN_SEEDS:
            try:
                res = dd.randomized_semi_resolving(corpus[name], s=s, seed=seed, max_retries=20)
                got.append((res.blocks, res.trials))
            except dd.RetriesExhausted as exc:
                got.append((None, exc.trials, exc.best_unresolved))
        assert got == want, (name, s)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 65, 273])
def test_seeded_samples_match_the_randrange_definition(reference_seeded_samples, n):
    """The stream draws what randrange(i, n) drew, rejection loop included:
    widths 2^j and 2^j + 1 (n = 8, 9, 64, 65) reject the most draws."""
    for s in sorted({0, 1, n // 2, n}):
        for seed in (0, 7, 2**40 + 3, 2**64 - 1, -1):
            got = list(resolve._seeded_samples(n, s, seed, 30))
            assert got == list(reference_seeded_samples(n, s, seed, 30)), (n, s, seed)


def test_markov_style_success_frequency(fano, small_corpus):
    """The existence argument: a sample fails to semi-resolve only if it
    leaves a pair unresolved, so the success rate is at least 1 - E, and
    some s-subset succeeds whenever E < 1.  Checked by full enumeration at
    every s of the small corpus and its duals; at s = 3 on the Fano plane,
    E = 3/5, the seeded samples succeed at least 2/5 of the time too."""
    designs = {**small_corpus, **{f"dual {n}": dd.dual(d) for n, d in small_corpus.items()}}
    for name, d in designs.items():
        for s in range(d.v + 1):
            rate = dd.exhaustive_success_rate(d, s)
            expected = dd.exhaustive_expected_unresolved(d, s)
            assert rate >= 1 - expected, (name, s)
            assert rate > 0 or expected >= 1, (name, s)
    assert dd.exhaustive_success_rate(fano, 3) >= Fraction(2, 5)
    mc = dd.monte_carlo_success(fano, 3, trials=500, seed=0)
    assert mc.rate >= 0.4 - 3 * mc.stderr


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------

def test_greedy_fano(fano):
    blocks = dd.greedy_semi_resolving(fano)
    assert dd.is_semi_resolving(fano, blocks)
    assert len(blocks) <= 7


def test_greedy_within_sample_bound(corpus):
    for name, d in corpus.items():
        try:
            bound = dd.semi_resolving_sample_size(d)
        except ValueError:
            continue
        blocks = dd.greedy_semi_resolving(d)
        assert dd.is_semi_resolving(d, blocks), name
        assert len(blocks) <= bound, name


def _pairwise_greedy(separators, n_elements):
    """Reference: take the element separating the most still-unseparated
    pairs (separators[p] is the element bitset separating pair p), lowest
    index on ties."""
    pairs_of = [0] * n_elements
    for p, sep in enumerate(separators):
        for e in range(n_elements):
            if sep >> e & 1:
                pairs_of[e] |= 1 << p
    unseparated = (1 << len(separators)) - 1
    chosen = []
    while unseparated:
        counts = [(m & unseparated).bit_count() for m in pairs_of]
        chosen.append(counts.index(max(counts)))
        unseparated &= ~pairs_of[chosen[-1]]
    return tuple(sorted(chosen))


def test_greedy_matches_pairwise_reference(corpus):
    for name, d in corpus.items():
        for base in (d, dd.dual(d)):
            seps = separator_masks(pencil_masks(base))
            expected = _pairwise_greedy(seps, len(base.blocks))
            assert dd.greedy_semi_resolving(base) == expected, name


def test_metric_dimension_fallback_matches_pairwise_reference(corpus_graphs, layer_distance):
    for name in ("pg2", "pg3", "ba3", "hstd4", "hd8"):
        g = corpus_graphs[name]
        dist = [[layer_distance(g, u, x) for x in range(g.n)] for u in range(g.n)]
        seps = [
            sum(1 << x for x in range(g.n) if dist[u][x] != dist[w][x])
            for w in range(g.n)
            for u in range(w)
        ]
        expected = _pairwise_greedy(seps, g.n)
        assert dd.metric_dimension(g, limit=0).landmarks == expected, name


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(g=st.deferred(lambda: _small_connected_graphs(max_vertices=14)))
def test_metric_dimension_fallback_matches_pairwise_reference_on_random_graphs(
    g, bfs_distances
):
    """Random connected graphs, most with a vertex whose eccentricity is
    below the diameter (so its farthest layer is empty): the fallback's
    landmarks are the pairwise greedy's over separators read from a plain
    BFS, not from the layers."""
    dist = bfs_distances(g)
    seps = [
        sum(1 << x for x in range(g.n) if dist[u][x] != dist[w][x])
        for w in range(g.n)
        for u in range(w)
    ]
    assert dd.metric_dimension(g, limit=0).landmarks == _pairwise_greedy(seps, g.n)


def test_refinement_greedy_matches_eager_reference(
    corpus, corpus_graphs, reference_refinement_greedy, refinement_greedy_on_partitions
):
    """The same ordered picks as the eager scan: block candidates on every
    corpus design and its dual, layer candidates on every corpus graph with
    at most 60 vertices."""
    for name, d in corpus.items():
        for base in (d, dd.dual(d)):
            everything = (1 << base.point_count) - 1
            blocks = [(m, everything ^ m) for m in designs.block_masks(base)]
            expected = reference_refinement_greedy(base.point_count, blocks)
            assert refinement_greedy_on_partitions(base.point_count, blocks) == expected, name
    for name, g in corpus_graphs.items():
        if g.n <= 60:
            expected = reference_refinement_greedy(g.n, g.layers)
            assert refinement_greedy_on_partitions(g.n, g.layers) == expected, name


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_refinement_greedy_ties_match_eager_reference(
    reference_refinement_greedy, refinement_greedy_on_partitions, data
):
    """Random candidate lists on at most 12 items, with duplicated
    candidates, empty parts, the one-part candidate and single-item splits
    (which tie with each other and together separate every item): the
    picks and their order, lowest index on every tie, are the eager scan's."""
    n = data.draw(st.integers(1, 12))
    full = (1 << n) - 1

    def parts_of(labels):
        return tuple(
            sum(1 << x for x, label in enumerate(labels) if label == part) for part in range(4)
        )

    labelled = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(parts_of)
    pool = data.draw(st.lists(labelled, min_size=1, max_size=6)) + [(full,)]
    candidates = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    candidates += [(1 << x, full ^ 1 << x) for x in range(n)]
    candidates = data.draw(st.permutations(candidates))
    expected = reference_refinement_greedy(n, candidates)
    assert refinement_greedy_on_partitions(n, candidates) == expected


@pytest.mark.parametrize("n", [46340, 46341])
def test_refinement_greedy_wide_fields_match_eager_reference(
    reference_refinement_greedy, refinement_greedy_on_partitions, n
):
    """46 341 is the least item count whose square reaches 2^31, where the
    packed gains widen from 32- to 64-bit fields.  On either side, 16
    binary-digit candidates (candidate b parts the items by bit b of their
    index) give the eager scan's picks."""
    full = (1 << n) - 1
    digits = [int("".join(str(x >> b & 1) for x in reversed(range(n))), 2) for b in range(16)]
    candidates = [(full ^ m, m) for m in digits]
    expected = reference_refinement_greedy(n, candidates)
    assert refinement_greedy_on_partitions(n, candidates) == expected


def _relabelled_plane(q: int, seed: int) -> dd.SymmetricDesign:
    """PG(2,q) under the point and block orders drawn as the benchmark's
    relabelling draws them, from random.Random(f"{seed}/pg{q}")."""
    d, rng = dd.projective_plane(q), random.Random(f"{seed}/pg{q}")
    points = list(range(d.v))
    rng.shuffle(points)
    order = list(range(d.v))
    rng.shuffle(order)
    blocks = [()] * d.v
    for j, blk in enumerate(d.blocks):
        blocks[order[j]] = tuple(sorted(points[x] for x in blk))
    return dd.SymmetricDesign(v=d.v, k=d.k, lam=d.lam, blocks=tuple(blocks))


GREEDY_SEMI_PINS = {
    (16, None): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 21, 23, 27, 28, 30, 32, 33, 35,
        36, 48, 50, 64, 80, 84, 96, 103, 112, 127, 128, 144, 160, 170, 176, 192, 208, 224, 242,
    ),
    (16, 1): (
        0, 1, 2, 3, 6, 7, 8, 9, 10, 13, 14, 17, 21, 27, 28, 29, 37, 41, 50, 51, 65, 70, 72, 80,
        83, 103, 104, 106, 110, 113, 116, 117, 130, 135, 148, 176, 178, 180, 186, 208, 224, 235,
        267,
    ),
    (31, None): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
        25, 26, 27, 28, 29, 31, 34, 35, 38, 39, 41, 43, 46, 50, 51, 53, 54, 55, 60, 62, 64, 93,
        94, 124, 130, 155, 186, 190, 217, 220, 248, 267, 279, 293, 310, 331, 341, 372, 382, 403,
        434, 462, 465, 488, 496, 518, 527, 558, 589, 620, 651, 681, 682, 713, 744, 775, 806, 837,
        858, 868, 899, 912, 935,
    ),
    (31, 1): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 18, 19, 20, 21, 22, 24, 25, 31, 34, 36, 38, 46, 47,
        48, 51, 55, 56, 61, 67, 72, 81, 83, 97, 125, 133, 142, 155, 196, 198, 202, 208, 220,
        234, 238, 240, 292, 302, 353, 364, 387, 394, 418, 423, 429, 438, 467, 472, 519, 525, 548,
        558, 609, 619, 626, 641, 644, 650, 683, 700, 701, 712, 727, 733, 743, 748, 756, 763, 787,
        796, 797, 803, 805, 821, 834, 836, 859, 930,
    ),
}


@pytest.mark.parametrize("q, seed", sorted(GREEDY_SEMI_PINS, key=str))
def test_greedy_semi_resolving_pinned_picks(q, seed):
    """The greedy semi-resolving sets of PG(2,16) and PG(2,31), natural and
    relabelled, as the lazy-heap greedy picked them (43 and 88 blocks)."""
    d = dd.projective_plane(q) if seed is None else _relabelled_plane(q, seed)
    assert dd.greedy_semi_resolving(d) == GREEDY_SEMI_PINS[q, seed]


GREEDY_LANDMARK_PINS = {
    7: (0, 1, 2, 3, 4, 7, 8, 9, 10, 14, 15, 25, 28, 35, 57, 58, 59, 61, 64, 65, 66, 67, 71, 72,
        82, 85),
    13: (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 26, 39, 40, 65, 78, 91, 104, 117, 170, 171,
        172, 173, 174, 175, 176, 177, 180, 181, 183, 184, 185, 186, 187, 188, 189, 190, 191, 192,
        193, 194, 195, 196, 209, 222, 223, 235, 248, 261, 274, 287, 300, 313, 326,
    ),
}


@pytest.mark.parametrize("q", sorted(GREEDY_LANDMARK_PINS))
def test_metric_dimension_greedy_pinned_landmarks(q):
    """The greedy fallback's landmarks on PG(2,7) and PG(2,13), as the
    lazy-heap greedy picked them (26 and 56 vertices)."""
    g = dd.incidence_graph(dd.projective_plane(q))
    assert dd.metric_dimension(g, limit=0).landmarks == GREEDY_LANDMARK_PINS[q]


def test_greedy_rejects_invalid_design(fano):
    broken = dataclasses.replace(fano, blocks=fano.blocks[:6] + ((0, 1, 2),))
    with pytest.raises(ValueError, match="does not validate"):
        dd.greedy_semi_resolving(broken)


# ---------------------------------------------------------------------------
# exact minimum semi-resolving
# ---------------------------------------------------------------------------

def _bruteforce_min_semi(d):
    v = d.v
    for size in range(v + 1):
        for combo in itertools.combinations(range(v), size):
            if dd.is_semi_resolving(d, combo):
                return combo
    raise AssertionError


def test_min_semi_resolving_fano(fano):
    best = dd.min_semi_resolving(fano)
    assert len(best) == 3
    assert dd.is_semi_resolving(fano, best)
    for combo in itertools.combinations(range(7), 2):
        assert not dd.is_semi_resolving(fano, combo)


def test_min_semi_matches_bruteforce(small_corpus):
    for name, d in small_corpus.items():
        solver = dd.min_semi_resolving(d)
        brute = _bruteforce_min_semi(d)
        assert len(solver) == len(brute), name
        assert dd.is_semi_resolving(d, solver), name


def test_min_semi_eight_cycle_design_by_full_enumeration(corpus):
    """All 2^4 block subsets of the order-2 net, checked directly."""
    d = corpus["ba2"]
    best = min(
        (c for size in range(5) for c in itertools.combinations(range(4), size)
         if dd.is_semi_resolving(d, c)),
        key=len,
    )
    assert len(dd.min_semi_resolving(d)) == len(best)


def test_min_semi_budget_zero(fano):
    with pytest.raises(ValueError, match="^node budget 0 must be positive$"):
        dd.min_semi_resolving(fano, budget=0)


def test_min_semi_respects_limit(corpus):
    with pytest.raises(ValueError, match="limit"):
        dd.min_semi_resolving(corpus["pg7"], limit=40)


# ---------------------------------------------------------------------------
# exact minimum hitting set against the search without sibling exclusion
# ---------------------------------------------------------------------------

def _reference_minimum_hitting_set(sets, n_elements, max_size=None):
    """The branch and bound before sibling exclusion: every sibling may take
    every element, so a landmark set is searched once per pivot order that
    reaches it.  Same pivots, sibling order, packing bound and greedy start;
    returns (solution, nodes visited)."""
    uniq = sorted(set(sets), key=lambda m: (m.bit_count(), m))
    minimal = []
    for m in uniq:
        if not any(kept & m == kept for kept in minimal):
            minimal.append(m)
    covers = [0] * n_elements
    for i, m in enumerate(minimal):
        for e in range(n_elements):
            if m >> e & 1:
                covers[e] |= 1 << i
    if max_size is None:
        best, uncovered = [], (1 << len(minimal)) - 1
        while uncovered:
            hits = [(c & uncovered).bit_count() for c in covers]
            best.append(hits.index(max(hits)))
            uncovered &= ~covers[best[-1]]
        best.sort()
        best_size = len(best)
    else:
        best, best_size = None, max_size + 1
    nodes = 0
    chosen = []

    def packing_exceeds(uncovered, slack):
        taken = count = 0
        for i in range(len(minimal)):
            if uncovered >> i & 1 and not minimal[i] & taken:
                count += 1
                if count > slack:
                    return True
                taken |= minimal[i]
        return False

    def dfs(uncovered):
        nonlocal best, best_size, nodes
        nodes += 1
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = sorted(chosen)
            return
        slack = best_size - len(chosen) - 1
        if slack <= 0 or packing_exceeds(uncovered, slack):
            return
        pivot = minimal[(uncovered & -uncovered).bit_length() - 1]
        elems = sorted(
            (-(covers[e] & uncovered).bit_count(), e)
            for e in range(n_elements) if pivot >> e & 1
        )
        for _, e in elems:
            chosen.append(e)
            dfs(uncovered & ~covers[e])
            chosen.pop()

    dfs((1 << len(minimal)) - 1)
    return (None if best is None else tuple(best)), nodes


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_hitting_set_matches_search_without_exclusion(data):
    n = data.draw(st.integers(1, 14), label="elements")
    sets = data.draw(
        st.lists(st.integers(1, (1 << n) - 1), max_size=25), label="sets"
    )
    max_size = data.draw(st.none() | st.integers(0, n), label="max_size")
    solution, nodes = _minimum_hitting_set(sets, n, None, max_size=max_size)
    expected, reference_nodes = _reference_minimum_hitting_set(sets, n, max_size)
    assert solution == expected
    assert nodes <= reference_nodes


def _outcome(search, sets, n, budget, max_size):
    try:
        return search(sets, n, budget, max_size=max_size)
    except resolve.BudgetExceeded:
        return resolve.BudgetExceeded


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_hitting_set_matches_reference_search(reference_minimum_hitting_set, data):
    """Same solution, same node count and the same budget outcome as the
    search that scans every uncovered set for its packing bound and
    recurses into the last level."""
    n = data.draw(st.integers(1, 14), label="elements")
    # a drawn length: hypothesis keeps list lengths short, and the deeper
    # searches need tens of sets
    count = data.draw(st.integers(0, 30), label="count")
    sets = data.draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=count, max_size=count),
        label="sets",
    )
    max_size = data.draw(st.none() | st.integers(0, n), label="max_size")
    expected = reference_minimum_hitting_set(sets, n, None, max_size=max_size)
    assert _minimum_hitting_set(sets, n, None, max_size=max_size) == expected
    nodes = expected[1]
    for budget in {1, nodes - 1, nodes, nodes + 1} - {0}:
        assert _outcome(_minimum_hitting_set, sets, n, budget, max_size) == _outcome(
            reference_minimum_hitting_set, sets, n, budget, max_size
        ), budget


@pytest.mark.parametrize(
    "name, max_size, solution, nodes",
    [
        # the search without sibling exclusion: 154 473, 269 917, 65 041 nodes
        ("pg3", 6, None, 4_585),
        ("hstd8", 5, None, 9_801),
        ("ba4", None, (0, 5, 11, 22, 25, 29), 8_998),
        ("ba5", 7, None, 305_433),  # mu(BA(5)) >= 8
    ],
)
def test_hitting_set_node_counts(corpus_graphs, name, max_size, solution, nodes):
    g = corpus_graphs[name]
    sets = _vertex_separator_sets(g)
    assert _minimum_hitting_set(sets, g.n, None, max_size=max_size) == (solution, nodes)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_hitting_set_lower_bound_keeps_the_solution(data):
    """Any lower bound at or below the optimum gives the unbounded search's
    solution in no more nodes, with or without a cap."""
    n = data.draw(st.integers(1, 14), label="elements")
    count = data.draw(st.integers(0, 30), label="count")
    sets = data.draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=count, max_size=count),
        label="sets",
    )
    max_size = data.draw(st.none() | st.integers(0, n), label="max_size")
    optimum = len(_minimum_hitting_set(sets, n, None)[0])
    solution, nodes = _minimum_hitting_set(sets, n, None, max_size=max_size)
    for lower in range(optimum + 1):
        bounded, bounded_nodes = _minimum_hitting_set(
            sets, n, None, max_size=max_size, lower=lower
        )
        assert bounded == solution, lower
        assert bounded_nodes <= nodes, lower


@pytest.mark.parametrize(
    "name, solution, nodes",
    [
        # without the bound: 24 833, 544 592 and 254 736 nodes
        ("pg3", (0, 1, 3, 5, 13, 14, 16, 17), 0),  # the greedy start meets the bound
        ("pg4", (1, 2, 4, 5, 8, 21, 23, 29, 31, 39), 20),
        ("hd16", (0, 1, 6, 10, 15, 16, 18, 22), 0),
    ],
)
def test_mu_search_stops_at_the_signature_bound(corpus_graphs, name, solution, nodes):
    g = corpus_graphs[name]
    sets = _vertex_separator_sets(g)
    assert _minimum_hitting_set(sets, g.n, None, lower=_signature_bound(g)) == (solution, nodes)


# ---------------------------------------------------------------------------
# exact metric dimension
# ---------------------------------------------------------------------------

def test_metric_dimension_heawood_cross_checked(fano, metric_dimension_bruteforce):
    g = dd.incidence_graph(fano)
    solver = dd.metric_dimension(g)
    lex = metric_dimension_bruteforce(g)
    reverse = metric_dimension_bruteforce(g, vertex_order=range(g.n - 1, -1, -1))
    assert solver.mu == lex.mu == reverse.mu
    assert dd.is_resolving(g, solver.landmarks)


def test_metric_dimension_eight_cycle(metric_dimension_bruteforce):
    g = _eight_cycle()
    assert dd.metric_dimension(g).mu == 2
    assert metric_dimension_bruteforce(g).mu == 2


def test_metric_dimension_three_cube():
    g = dd.incidence_graph(dd.point_complement_design(4))
    assert dd.metric_dimension(g).mu == 3


def test_metric_dimension_fallback_above_limit(fano):
    g = dd.incidence_graph(fano)
    result = dd.metric_dimension(g, limit=10)
    assert not result.optimal
    assert result.lower <= result.upper
    assert dd.is_resolving(g, result.landmarks)
    with pytest.raises(ValueError):
        result.mu


def test_metric_dimension_one_vertex_both_paths():
    g = dd.IncidenceGraph([[]])
    exact = dd.metric_dimension(g)
    fallback = dd.metric_dimension(g, limit=0)  # its bounds meet at 0
    for result in (exact, fallback):
        assert (result.lower, result.upper, result.landmarks) == (0, 0, ())
        assert result.optimal and result.mu == 0


def test_metric_dimension_fallback_counting_bound_is_exact():
    """216 = 6^3 vertices at diameter 5: three distances take 216 values,
    so the counting bound is 3 (the float ratio log 216 / log 6 exceeds 3)."""
    adj = [[1], [0, 2], [1, 3], [2, 4], [3, 5], [4]]  # a path of diameter 5
    adj[2] += range(6, 216)  # with 210 leaves on its third vertex
    g = dd.IncidenceGraph(adj + [[2]] * 210)
    assert (g.n, g.diameter) == (216, 5)
    assert dd.metric_dimension(g, limit=0).lower == 3


def test_metric_dimension_landmarks_verified(corpus_graphs):
    for name in ("pg2", "ba2", "ba3", "hstd4"):
        g = corpus_graphs[name]
        result = dd.metric_dimension(g)
        assert result.optimal
        assert dd.is_resolving(g, result.landmarks), name


def test_metric_dimension_projective_plane_order_four(corpus_graphs):
    """mu(PG(2,4)) = 10, below 4q - 4 = 12 (Heger and Takats prove
    mu = 4q - 4 for q >= 23)."""
    g = corpus_graphs["pg4"]
    result = dd.metric_dimension(g, limit=42)
    assert result.optimal and result.mu == 10
    assert result.landmarks == (1, 2, 4, 5, 8, 21, 23, 29, 31, 39)
    assert dd.is_resolving(g, result.landmarks)


def test_find_resolving_set_caps():
    g = _eight_cycle()
    assert dd.find_resolving_set(g, 1) is None  # mu = 2
    found = dd.find_resolving_set(g, 2)
    assert found is not None and len(found) == 2


def test_biaffine_metric_dimension_bounds(corpus, corpus_graphs):
    """2q-2 <= mu <= 3q-6 for the order-4 and order-5 biaffine planes:
    exact at q = 4; at q = 5 a seeded random size-9 witness settles the
    upper side and a complete capped search refutes size 7."""
    assert dd.metric_dimension(corpus_graphs["ba4"]).mu == 6  # 2q-2 = 3q-6 = 6
    g5 = corpus_graphs["ba5"]
    rng = random.Random(0)
    upper_witness = None
    for _ in range(50_000):
        candidate = rng.sample(range(g5.n), 9)
        if dd.is_resolving(g5, candidate):
            upper_witness = candidate
            break
    assert upper_witness is not None  # mu <= 9 = 3q-6
    assert dd.find_resolving_set(g5, 7) is None  # mu >= 8 = 2q-2


def test_find_resolving_set_edge_cases(fano, monkeypatch):
    # the empty set resolves one vertex: no orbit set to hit
    assert dd.find_resolving_set(dd.IncidenceGraph([[]]), 0) == ()
    for g in (dd.IncidenceGraph([[1], [0]]), _eight_cycle(), dd.incidence_graph(fano)):
        assert dd.find_resolving_set(g, 0) is None
    assert dd.find_resolving_set(dd.IncidenceGraph([[1], [0]]), 1) == (0,)
    # at the cap mu(Fano) = 5, the signature bound, a search still runs
    with pytest.raises(resolve.BudgetExceeded):  # the budget bounds each search
        dd.find_resolving_set(dd.incidence_graph(fano), 5, budget=2)

    def no_search(*args, **kwargs):
        raise AssertionError("a cap below the signature bound needs no search")

    monkeypatch.setattr(resolve, "_minimum_hitting_set", no_search)
    assert dd.find_resolving_set(dd.incidence_graph(fano), 4) is None


# ---------------------------------------------------------------------------
# the signature lower bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name, bound",
    [("pg2", 5), ("pg3", 8), ("pg4", 10), ("pg5", 14), ("pg7", 20), ("hd8", 5), ("hd16", 8),
     # the incidence graphs of nets have diameter 4
     ("ba3", 0), ("ba4", 0), ("ba5", 0), ("hstd4", 0), ("hstd8", 0)],
)
def test_signature_bound_on_the_corpus(corpus_graphs, name, bound):
    assert _signature_bound(corpus_graphs[name]) == bound


def test_signature_bound_beyond_the_corpus():
    hd32 = dd.hadamard_design(dd.hadamard_matrix(32))
    assert _signature_bound(dd.incidence_graph(dd.projective_plane(16))) == 44
    assert _signature_bound(dd.incidence_graph(hd32)) == 10
    kvv = [dd.incidence_graph(dd.point_complement_design(v)) for v in (3, 4, 5, 6)]
    assert [_signature_bound(g) for g in kvv] == [2, 3, 4, 4]  # mu: 2, 3, 4, 5


def test_signature_bound_is_zero_off_bipartite_diameter_three():
    assert _signature_bound(_eight_cycle()) == 0  # bipartite, diameter 4
    seven_cycle = dd.IncidenceGraph([[(u - 1) % 7, (u + 1) % 7] for u in range(7)])
    assert (seven_cycle.part, seven_cycle.diameter) == (None, 3)
    assert _signature_bound(seven_cycle) == 0


def test_signature_bound_reads_each_side_its_own_lambda():
    """The 9 elements of a set against its 126 5-subsets: two elements lie
    in 35 common subsets, two subsets share at most 4 elements.  Eight
    elements resolve the graph, so mu = 8 = the bound; with the two lambdas
    swapped the count would claim 9."""
    blocks = list(itertools.combinations(range(9), 5))
    adj = [[9 + j for j, b in enumerate(blocks) if x in b] for x in range(9)]
    g = dd.IncidenceGraph(adj + [list(b) for b in blocks])
    assert (g.part is not None, g.diameter) == (True, 3)
    assert dd.is_resolving(g, range(8))
    assert _signature_bound(g) == 8


@st.composite
def _bipartite_diameter_three_graphs(draw):
    """A bipartite graph of diameter 3 on at most 12 vertices, sides of any
    sizes, under a random labelling.  Random edges, then a common neighbor
    for every same-side pair without one, which makes the diameter at most
    3, then one edge off a complete bipartite graph (diameter 2)."""
    a = draw(st.integers(2, 6), label="side A")
    b = draw(st.integers(2, 12 - a), label="side B")
    sides = (range(a), range(a, a + b))
    nbrs = [set() for _ in range(a + b)]

    def join(u, w):
        nbrs[u].add(w)
        nbrs[w].add(u)

    for x, y in itertools.product(*sides):
        if draw(st.booleans()):
            join(x, y)
    for side, other in (sides, sides[::-1]):
        for u, w in itertools.combinations(side, 2):
            if not nbrs[u] & nbrs[w]:
                z = draw(st.sampled_from(other))
                join(u, z)
                join(w, z)
    if all(len(nbrs[x]) == b for x in sides[0]):
        y = draw(st.sampled_from(sides[1]))
        nbrs[0].discard(y)
        nbrs[y].discard(0)
    label = draw(st.permutations(range(a + b)), label="labels")
    adj = [()] * (a + b)
    for u, ns in enumerate(nbrs):
        adj[label[u]] = [label[w] for w in ns]
    return dd.IncidenceGraph(adj)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(g=_bipartite_diameter_three_graphs())
def test_signature_bound_below_mu_and_refutations_unchanged(g):
    assert g.part is not None and g.diameter == 3
    sets = _vertex_separator_sets(g)
    plain, _ = _minimum_hitting_set(sets, g.n, None)
    result = dd.metric_dimension(g)
    assert _signature_bound(g) <= len(plain) == result.mu
    assert result.landmarks == plain
    for cap in range(g.n + 1):
        capped, _ = _minimum_hitting_set(sets, g.n, None, max_size=cap)
        assert dd.find_resolving_set(g, cap) == capped, cap


# ---------------------------------------------------------------------------
# orbit representatives
# ---------------------------------------------------------------------------

def test_orbit_representatives_keep_a_path_apart():
    path = dd.IncidenceGraph([[1], [0, 2], [1, 3], [2, 4], [3]])
    assert _orbit_representatives(path)[0] == 0b111  # orbits {0, 4}, {1, 3}, {2}
    adj = [[1], [0, 2], [1, 3], [2, 4], [3, 5], [4]]  # a path of diameter 5
    adj[2] += range(6, 9)  # with 3 leaves on its third vertex
    g = dd.IncidenceGraph(adj + [[2]] * 3)
    assert _orbit_representatives(g)[0] == 0b1111111  # only the leaves share an orbit


@st.composite
def _small_connected_graphs(draw, max_vertices=7):
    """A connected graph on at most max_vertices vertices: a random
    spanning tree and random extra edges, under a random labelling."""
    n = draw(st.integers(1, max_vertices), label="vertices")
    edges = [(draw(st.integers(0, u - 1)), u) for u in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += [(u, w) for u, w in draw(st.lists(st.tuples(vertex, vertex), max_size=10)) if u != w]
    label = draw(st.permutations(range(n)), label="labels")
    adj = [[] for _ in range(n)]
    for u, w in edges:
        adj[label[u]].append(label[w])
        adj[label[w]].append(label[u])
    return dd.IncidenceGraph(adj)


def _orbits_of(n, maps):
    """The orbits of the group the vertex maps generate, by closure."""
    orbits = []
    for u in range(n):
        if not any(u in orbit for orbit in orbits):
            orbit, todo = {u}, [u]
            while todo:
                x = todo.pop()
                for image in {sigma[x] for sigma in maps} - orbit:
                    orbit.add(image)
                    todo.append(image)
            orbits.append(frozenset(orbit))
    return set(orbits)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(g=_small_connected_graphs())
def test_orbit_representatives_match_brute_force(g):
    edges = {(u, w) for u in range(g.n) for w in g.adj[u]}
    automorphisms = [
        sigma for sigma in itertools.permutations(range(g.n))
        if all((sigma[u], sigma[w]) in edges for u, w in edges)
    ]
    reps, found = _orbit_representatives(g)
    for sigma in found:
        assert sorted(sigma) == list(range(g.n))
        assert {(sigma[u], sigma[w]) for u, w in edges} == edges
    orbits = _orbits_of(g.n, automorphisms)
    assert _orbits_of(g.n, found) == orbits
    assert reps == sum(1 << min(orbit) for orbit in orbits)
    sets = _vertex_separator_sets(g)
    for cap in range(g.n + 1):
        plain, _ = _minimum_hitting_set(sets, g.n, None, max_size=cap)
        assert dd.find_resolving_set(g, cap) == plain, cap


def _relabelled(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    adj = [()] * g.n
    for u, ns in enumerate(g.adj):
        adj[order[u]] = [order[w] for w in ns]
    return dd.IncidenceGraph(adj)


@pytest.mark.parametrize(
    "name",
    ["pg2", "pg3", "pg4", "ba3", "ba4", "ba5", "hd8", "hd16", "hstd4", "hstd8", "hstd16",
     "kvv3", "kvv4", "kvv5", "kvv6"],
)
def test_design_graphs_are_one_orbit_in_any_labelling(corpus_graphs, name):
    """Vertex 0 alone represents every vertex, in the natural labelling and
    in relabelled copies: the speedup of the refutations rests on it."""
    if name.startswith("kvv"):
        g = dd.incidence_graph(dd.point_complement_design(int(name[3:])))
    else:
        g = corpus_graphs[name]
    assert _orbit_representatives(g)[0] == 1
    for seed in range(3):
        assert _orbit_representatives(_relabelled(g, random.Random(f"{name}/{seed}")))[0] == 1


@pytest.mark.parametrize(
    "name, max_size, nodes",
    [
        # the plain search: 4 585, 9 801, 305 433 and 4 083 841 nodes
        ("pg3", 6, 1_592),
        ("hstd8", 5, 2_570),
        ("ba5", 7, 59_180),
        ("ba5", 8, 876_048),  # mu(BA(5)) >= 9
    ],
)
def test_refutation_node_counts_with_vertex_zero_forced(corpus_graphs, name, max_size, nodes):
    g = corpus_graphs[name]
    reps = _orbit_representatives(g)[0]
    assert reps == 1
    sets = [*_vertex_separator_sets(g), reps]
    assert _minimum_hitting_set(sets, g.n, None, max_size=max_size) == (None, nodes)


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_supersets_stay_resolving(fano):
    g = dd.incidence_graph(fano)
    base = dd.metric_dimension(g).landmarks
    rng = random.Random(7)
    for _ in range(20):
        extra = rng.sample(range(g.n), rng.randrange(0, g.n - len(base)))
        assert dd.is_resolving(g, set(base) | set(extra))


def test_supersets_stay_semi_resolving(fano):
    base = dd.min_semi_resolving(fano)
    rng = random.Random(11)
    for _ in range(20):
        extra = rng.sample(range(7), rng.randrange(0, 4))
        assert dd.is_semi_resolving(fano, set(base) | set(extra))


# ---------------------------------------------------------------------------
# split resolving sets
# ---------------------------------------------------------------------------

def test_split_exact_fano(fano):
    split = dd.split_resolving(fano, method="exact")
    assert len(split.points) == 3 and len(split.blocks) == 3
    g = dd.incidence_graph(fano)
    assert dd.is_resolving(g, split.graph_vertices(7))


def test_split_union_of_semi_sets_resolves(corpus, corpus_graphs):
    """Any cross-side pair is resolved by parity, so two semi-resolving
    sides always assemble into a resolving set."""
    for name in ("pg2", "pg3", "ba3", "hstd4", "hd12"):
        d = corpus[name]
        split = dd.split_resolving(d, method="greedy")
        g = corpus_graphs[name]
        assert dd.is_resolving(g, split.graph_vertices(d.point_count)), name


def test_split_random_reproducible(corpus):
    d = corpus["pg3"]
    a = dd.split_resolving(d, method="random", seed=5)
    b = dd.split_resolving(d, method="random", seed=5)
    assert a == b


def test_metric_dimension_never_exceeds_split_size(corpus, corpus_graphs):
    for name in ("pg2", "ba2", "ba3", "hstd4"):
        d = corpus[name]
        mu = dd.metric_dimension(corpus_graphs[name]).mu
        split = dd.split_resolving(d, method="exact")
        assert mu <= split.size, name


def test_complete_bipartite_has_no_split_resolving_set():
    # every point lies in every block: order k - lambda = 0, so the design
    # is rejected before any solver sees its identical pencils
    every_block = tuple((0, 1, 2, 3) for _ in range(4))
    d = dd.SymmetricDesign(v=4, k=4, lam=4, blocks=every_block)
    assert dd.validate(d).violations == ("order k - lambda = 0 must be positive",)
    with pytest.raises(ValueError, match="^design does not validate: order k - lambda = 0"):
        dd.split_resolving(d, method="exact")


@pytest.mark.parametrize("d, violation", [
    (dd.SymmetricDesign(v=1, k=1, lam=1, blocks=((0,),)), "v = 1 must be at least 2"),
    (dd.TransversalDesign(g=1, k=1, lam=1, classes=((0,),), blocks=((0,),)),
     "class size g = 1 must be at least 2"),
], ids=["sd111", "std111"])
def test_split_rejects_one_point_designs(d, violation):
    # one point: both semi-resolving sides would be empty and cannot resolve K2
    assert dd.validate_design(d).violations[0] == violation
    for method in ("greedy", "exact", "random"):
        with pytest.raises(ValueError, match=f"^design does not validate: {violation}$"):
            dd.split_resolving(d, method=method)


def test_split_then_verify_validates_and_builds_once(monkeypatch):
    validated, built, checked, duals = [], [], [], []
    validate = designs.validate
    monkeypatch.setattr(designs, "validate", lambda d: validated.append(d) or validate(d))
    build_dual = designs._build_dual
    monkeypatch.setattr(designs, "_build_dual", lambda d: duals.append(build_dual(d)) or duals[-1])
    init = incidence.IncidenceGraph.__init__
    build_layers = incidence.IncidenceGraph._build_layers

    def counting_init(self, *args, **kwargs):
        checked.append(self)
        init(self, *args, **kwargs)

    def counting_build_layers(self, *args, **kwargs):
        built.append(self)
        build_layers(self, *args, **kwargs)

    monkeypatch.setattr(incidence.IncidenceGraph, "__init__", counting_init)
    monkeypatch.setattr(incidence.IncidenceGraph, "_build_layers", counting_build_layers)
    d = dd.projective_plane(3)
    split = dd.split_resolving(d, method="greedy")
    ok, _ = dd.verify_witness(d, "split", split.graph_vertices(d.point_count))
    assert ok
    # the dual takes the verdict of d, whose check covered both sides
    assert len(validated) == 1 and validated[0] is d
    assert len(built) == 1
    # a design's graph comes from its validated bitsets, not the checked constructor
    assert len(checked) == 0
    assert len(duals) == 1
    # validation builds the dual and keeps it: dual() hands out that one
    e = dd.projective_plane(2)
    assert dd.validate_design(e).ok and len(duals) == 2
    assert dd.dual(e) is duals[-1] and len(duals) == 2


def test_split_unknown_method(fano):
    with pytest.raises(ValueError, match="method"):
        dd.split_resolving(fano, method="annealing")


# ---------------------------------------------------------------------------
# randomized success-rate invariant over the corpus
# ---------------------------------------------------------------------------

def test_sampled_success_rate_beats_expectation_bound(corpus):
    """Per-trial success frequency over 500 seeded trials is at least
    1 - E_upper - 3 * stderr whenever the sample-size bound applies."""
    for name, d in corpus.items():
        try:
            s = dd.semi_resolving_sample_size(d)
        except ValueError:
            continue
        if isinstance(d, dd.SymmetricDesign):
            e_upper = dd.expected_unresolved(d.v, 2 * (d.k - d.lam), s)
        else:
            e_upper = dd.expected_unresolved_std(d.g, d.k, d.lam, s)[1]
        mc = dd.monte_carlo_success(d, s, trials=500, seed=0)
        assert mc.rate > 0, name
        assert mc.rate >= 1 - float(e_upper) - 3 * mc.stderr, (name, mc.rate)


def test_pencils_have_replication_size(corpus):
    """|B(x)| equals k for every point of every corpus design."""
    for name, d in corpus.items():
        assert all(m.bit_count() == d.k for m in pencil_masks(d)), name


# ---------------------------------------------------------------------------
# witness files
# ---------------------------------------------------------------------------

def test_witness_text_round_trip():
    text = dd.witness_to_text("semi-points", (5, 1, 3))
    assert text == "RS semi-points\n1 3 5\n"
    role, indices = dd.witness_from_text(text)
    assert role == "semi-points" and indices == (1, 3, 5)


def test_witness_text_rejects_garbage():
    with pytest.raises(ValueError):
        dd.witness_from_text("")
    with pytest.raises(ValueError):
        dd.witness_from_text("RS nonsense\n1 2\n")
    with pytest.raises(ValueError):
        dd.witness_from_text("RS full\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        dd.witness_to_text("partial", (1,))


def test_verify_witness_on_a_graph_takes_only_full(fano):
    g = dd.from_edge_text(dd.to_edge_text(dd.incidence_graph(fano)))
    assert dd.verify_witness(g, "full", range(g.n)) == (True, "resolves the graph")
    assert dd.verify_witness(g, "full", (0, g.n)) == (False, "vertex index out of range")
    assert dd.verify_witness(g, "full", (9, 3, 9, 3)) == (False, "vertex index 3 repeated")
    for role in ("semi-points", "semi-blocks", "split"):
        with pytest.raises(ValueError, match="only role 'full'"):
            dd.verify_witness(g, role, (0,))


def test_verify_witness_roles(fano):
    best = dd.min_semi_resolving(fano)
    ok, _ = dd.verify_witness(fano, "semi-points", best)
    assert ok
    ok, detail = dd.verify_witness(fano, "semi-points", ())
    assert not ok and "(0, 1)" in detail
    dual_best = dd.min_semi_resolving(dd.dual(fano))
    ok, _ = dd.verify_witness(fano, "semi-blocks", dual_best)
    assert ok
    split = dd.split_resolving(fano, method="exact")
    ok, _ = dd.verify_witness(fano, "split", split.graph_vertices(7))
    assert ok
    g = dd.incidence_graph(fano)
    mu_set = dd.metric_dimension(g).landmarks
    ok, _ = dd.verify_witness(fano, "full", mu_set)
    assert ok
    ok, _ = dd.verify_witness(fano, "full", (0, 1))
    assert not ok
    # a split set fails on the side whose semi-resolving set is short
    assert dd.verify_witness(fano, "split", [0, 1, 2, 7]) == (
        False, "block side: pair (0, 1) is not separated"
    )
    assert dd.verify_witness(fano, "split", [0, 7, 8, 9]) == (
        False, "point side: pair (0, 1) is not separated"
    )
    # a repeated index is named, the lowest first, before any check runs
    assert dd.verify_witness(fano, "semi-points", (0, 0, 1, 2)) == (
        False, "block index 0 repeated")
    assert dd.verify_witness(fano, "semi-blocks", (5, 2, 5, 2)) == (
        False, "point index 2 repeated")
    assert dd.verify_witness(fano, "split", (0, 1, 2, 7, 7, 8)) == (
        False, "vertex index 7 repeated")
    assert dd.verify_witness(fano, "full", (*mu_set, mu_set[-1])) == (
        False, f"vertex index {mu_set[-1]} repeated")
