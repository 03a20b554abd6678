import dataclasses
import itertools
import tracemalloc
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designdim as dd
from designdim import designs


# ---------------------------------------------------------------------------
# symmetric designs
# ---------------------------------------------------------------------------

def test_fano_parameters(fano):
    assert (fano.v, fano.k, fano.lam) == (7, 3, 1)
    assert len(fano.blocks) == 7
    assert fano.order == 2
    assert dd.validate(fano).ok


def test_projective_plane_q3():
    d = dd.projective_plane(3)
    assert (d.v, d.k, d.lam) == (13, 4, 1)
    assert dd.validate(d).ok


def test_projective_plane_rejects_non_prime_power():
    with pytest.raises(dd.ConstructionError, match="not a prime power"):
        dd.projective_plane(6)


def test_projective_plane_is_deterministic():
    assert dd.projective_plane(4) == dd.projective_plane(4)


def test_projective_plane_matches_dot_product_reference(reference_projective_plane):
    """The same blocks, in the same line order, as testing every (line,
    point) dot product, for every prime power q <= 27: GF(2^e) for e <= 4,
    GF(3^e) for e <= 3, GF(25) and the primes."""
    for q in range(2, 28):
        if dd.prime_power(q):
            assert dd.projective_plane(q) == reference_projective_plane(q), q


def test_validate_counts_every_pair_exhaustively(corpus):
    """Pair counts over all C(v,2) point pairs and block pairs equal lambda."""
    for name, d in corpus.items():
        if not isinstance(d, dd.SymmetricDesign):
            continue
        pencils = dd.designs.pencil_masks(d)
        bmasks = dd.designs.block_masks(d)
        for y in range(d.v):
            for x in range(y):
                assert (pencils[x] & pencils[y]).bit_count() == d.lam, name
        for j2 in range(d.v):
            for j1 in range(j2):
                assert (bmasks[j1] & bmasks[j2]).bit_count() == d.lam, name


def test_masks_are_fresh_lists_of_the_same_bitsets(corpus):
    """Repeated calls return equal lists, never the same list, so a caller
    may change what it gets."""
    for name, d in corpus.items():
        for masks in (designs.pencil_masks, designs.block_masks):
            first, second = masks(d), masks(d)
            assert type(first) is list and first == second and first is not second, name


@pytest.mark.parametrize("bad", [-1, 7, -8, 100])
@pytest.mark.parametrize("at", [0, 4])
def test_pencils_reject_out_of_range_points(fano, bad, at):
    """An index outside 0..v-1 in an unvalidated design's block raises
    ValueError in validation's words, not a wrapped pencil or a bare
    IndexError, and so does every public caller of the pencils."""
    blocks = list(fano.blocks)
    blocks[at] = (*blocks[at][:2], bad)
    broken = dataclasses.replace(fano, blocks=tuple(blocks))
    message = f"block {at} contains an out-of-range point"
    assert dd.validate_design(dataclasses.replace(broken)).violations == (message,)
    for call in (
        designs.pencil_masks,
        lambda d: dd.monte_carlo_success(d, 3, trials=5),
        lambda d: dd.exhaustive_expected_unresolved(d, 3),
        lambda d: dd.exhaustive_success_rate(d, 3),
        dd.symm_diff_sizes,
        lambda d: dd.semi_resolving_witness(d, [0, 1, 2]),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(dataclasses.replace(broken))


def test_perturbed_fano_is_invalid(fano):
    blk = list(fano.blocks[0])
    outside = next(x for x in range(7) if x not in blk)
    blk[0] = outside
    broken = dataclasses.replace(fano, blocks=(tuple(sorted(blk)),) + fano.blocks[1:])
    report = dd.validate(broken)
    assert not report.ok
    assert any("pair" in v for v in report.violations)


def test_order_bounds_hold_on_corpus(corpus):
    for name, d in corpus.items():
        if isinstance(d, dd.SymmetricDesign) and d.order >= 2:
            q = d.order
            assert 4 * q - 1 <= d.v <= q * q + q + 1, name


def test_validate_reports_order_bound_violation():
    # (8, 3, 1) is not a symmetric design; the validator must name a broken
    # axiom rather than raise
    blocks = tuple(tuple(sorted((i, (i + 1) % 8, (i + 3) % 8))) for i in range(8))
    fake = dd.SymmetricDesign(v=8, k=3, lam=1, blocks=blocks)
    report = dd.validate(fake)
    assert not report.ok


def test_point_complement_design():
    d = dd.point_complement_design(4)
    assert (d.v, d.k, d.lam) == (4, 3, 2)
    assert dd.validate(d).ok
    assert d.order == 1


# ---------------------------------------------------------------------------
# Hadamard matrices and their designs
# ---------------------------------------------------------------------------

def test_hadamard_base_cases():
    assert dd.hadamard_matrix(1).rows == ((1,),)
    assert dd.hadamard_matrix(2).rows == ((1, 1), (1, -1))


def test_hadamard_orthogonality():
    for n in (1, 2, 4, 8, 12, 16, 20):
        H = dd.hadamard_matrix(n)
        assert H.n == n
        assert H.is_orthogonal()
        assert all(x in (1, -1) for row in H.rows for x in row)


def test_hadamard_check_on_every_constructed_order():
    """Every order up to 64 that a construction reaches passes the check,
    and one flipped entry fails it."""
    built = []
    for n in range(1, 65):
        try:
            H = dd.hadamard_matrix(n)
        except dd.ConstructionError:
            continue
        built.append(n)
        assert H.is_orthogonal(), n
        if n >= 2:
            rows = [list(r) for r in H.rows]
            rows[-1][0] = -rows[-1][0]
            flipped = dd.HadamardMatrix(n=n, rows=tuple(map(tuple, rows)))
            assert not flipped.is_orthogonal(), n
    # no implemented construction reaches 36 or 52
    assert built == [1, 2] + [n for n in range(4, 65, 4) if n not in (36, 52)]


def test_hadamard_check_needs_an_n_by_n_sign_matrix():
    """A short row tuple and 2 I_4 (orthogonal rows, entries not +-1) fail."""
    H = dd.hadamard_matrix(4)
    assert not dd.HadamardMatrix(n=4, rows=H.rows[:3]).is_orthogonal()
    doubled = tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4))
    assert not dd.HadamardMatrix(n=4, rows=doubled).is_orthogonal()


def test_hadamard_tensor_product_route():
    """Order 784 is reached by neither Sylvester doubling nor the quadratic
    character; it is H(28) x H(28), with orders 196 and 28 read back from
    the cache."""
    H, H28 = dd.hadamard_matrix(784), dd.hadamard_matrix(28)
    assert H.rows == tuple(tuple(x * y for x in a for y in b) for a in H28.rows for b in H28.rows)


def test_hadamard_unreachable_order():
    with pytest.raises(dd.ConstructionError, match="tried"):
        dd.hadamard_matrix(6)


def test_hadamard_design_parameters():
    d8 = dd.hadamard_design(dd.hadamard_matrix(8))
    assert (d8.v, d8.k, d8.lam) == (7, 3, 1)
    assert dd.validate(d8).ok
    d12 = dd.hadamard_design(dd.hadamard_matrix(12))
    assert (d12.v, d12.k, d12.lam) == (11, 5, 2)
    assert dd.validate(d12).ok


def _normalized_entrywise(H):
    """Negate, entry by entry, each row and then each column whose first
    entry is -1."""
    rows = [list(r) for r in H.rows]
    for r in rows:
        if r[0] < 0:
            for j in range(len(r)):
                r[j] = -r[j]
    for j in range(len(rows)):
        if rows[0][j] < 0:
            for r in rows:
                r[j] = -r[j]
    return rows


def test_hadamard_design_matches_entrywise_normalization():
    for n in range(8, 129, 4):
        try:
            H = dd.hadamard_matrix(n)
        except dd.ConstructionError:
            continue
        rows = _normalized_entrywise(H)
        blocks = tuple(
            tuple(j - 1 for j in range(1, n) if rows[i][j] > 0) for i in range(1, n)
        )
        assert dd.hadamard_design(H).blocks == blocks, n


def test_hadamard_design_rejects_small_orders():
    with pytest.raises(dd.ConstructionError):
        dd.hadamard_design(dd.hadamard_matrix(4))
    with pytest.raises(dd.ConstructionError):
        dd.hadamard_design(dd.hadamard_matrix(2))


# ---------------------------------------------------------------------------
# transversal designs
# ---------------------------------------------------------------------------

def test_biaffine_plane_parameters():
    d = dd.biaffine_plane(3)
    assert (d.g, d.k, d.lam) == (3, 3, 1)
    assert d.v == 9 and len(d.blocks) == 9
    assert dd.validate_std(d).ok


def test_biaffine_plane_over_gf4():
    d = dd.biaffine_plane(4)
    assert d.v == 16 and len(d.blocks) == 16
    assert dd.validate_std(d).ok


def test_biaffine_rejects_non_prime_power():
    with pytest.raises(dd.ConstructionError):
        dd.biaffine_plane(6)


def test_hadamard_std_parameters():
    d = dd.hadamard_std(dd.hadamard_matrix(4))
    assert (d.g, d.k, d.lam) == (2, 4, 2)
    assert dd.validate_std(d).ok
    d8 = dd.hadamard_std(dd.hadamard_matrix(8))
    assert d8.v == 16 and len(d8.blocks) == 16
    assert dd.validate_std(d8).ok


def test_hadamard_std_rejects_odd_lambda_above_one():
    with pytest.raises(dd.ConstructionError):
        dd.hadamard_std(dd.HadamardMatrix(n=3, rows=((1,) * 3,) * 3))


def test_std_block_transversality(corpus):
    for name, d in corpus.items():
        if not isinstance(d, dd.TransversalDesign):
            continue
        class_of = {}
        for ci, cls in enumerate(d.classes):
            for x in cls:
                class_of[x] = ci
        for blk in d.blocks:
            assert len({class_of[x] for x in blk}) == d.k, name


def test_std_pair_counts(corpus):
    """Cross-class pairs lie in exactly lambda blocks, same-class in none."""
    for name, d in corpus.items():
        if not isinstance(d, dd.TransversalDesign):
            continue
        pencils = dd.designs.pencil_masks(d)
        class_of = {}
        for ci, cls in enumerate(d.classes):
            for x in cls:
                class_of[x] = ci
        for y in range(d.v):
            for x in range(y):
                want = 0 if class_of[x] == class_of[y] else d.lam
                assert (pencils[x] & pencils[y]).bit_count() == want, name


def test_duplicated_block_breaks_validation():
    d = dd.biaffine_plane(3)
    broken = dataclasses.replace(d, blocks=(d.blocks[0], d.blocks[0]) + d.blocks[2:])
    report = dd.validate_std(broken)
    assert not report.ok


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_is_involution_for_symmetric_designs(fano):
    assert dd.dual(dd.dual(fano)) == fano


def test_dual_preserves_symmetric_design_validity(fano):
    d = dd.dual(fano)
    assert (d.v, d.k, d.lam) == (7, 3, 1)
    assert dd.validate(d).ok


def test_dual_of_biaffine_is_valid_std():
    d = dd.dual(dd.biaffine_plane(3))
    assert (d.g, d.k, d.lam) == (3, 3, 1)
    assert dd.validate_std(d).ok


def test_dual_is_involution_for_nets(corpus):
    for name in ("ba3", "hstd4", "hstd8"):
        d = corpus[name]
        assert dd.dual(dd.dual(d)) == d, name


def test_dual_rejects_invalid_input(fano):
    broken = dataclasses.replace(fano, blocks=fano.blocks[:6] + ((0, 1, 2),))
    with pytest.raises(ValueError, match="does not validate"):
        dd.dual(broken)


def test_dual_is_kept_on_the_design():
    d, twin = dd.biaffine_plane(3), dd.biaffine_plane(3)
    assert dd.dual(d) is dd.dual(d)
    assert dd.dual(twin) == dd.dual(d) and dd.dual(twin) is not dd.dual(d)
    # the kept values take no part in equality or hashing
    assert d == twin and hash(d) == hash(twin)


def test_require_valid_computes_the_verdict_once(monkeypatch):
    calls = []
    validate = designs.validate
    monkeypatch.setattr(designs, "validate", lambda d: calls.append(d) or validate(d))
    fano = dd.projective_plane(2)
    for _ in range(3):
        dd.require_valid(fano)
    broken = dataclasses.replace(fano, blocks=fano.blocks[:6] + ((0, 1, 2),))
    for _ in range(2):
        with pytest.raises(ValueError, match="^design does not validate: point pair"):
            dd.require_valid(broken)
    assert len(calls) == 2
    # validate_design keeps the verdict that everything behind the gate reads
    calls.clear()
    plane = dd.projective_plane(3)
    report = dd.validate_design(plane)
    dd.dual(plane)
    dd.incidence_graph(plane)
    dd.greedy_semi_resolving(plane)
    dd.require_valid(plane)
    assert calls == [plane]
    assert dd.validate_design(plane) is report


def test_dual_takes_the_verdict_of_its_design(corpus, monkeypatch):
    """Validating a design checks both of its sides, which are the two
    sides of its dual: the dual is not checked again, and checking a copy
    of it, with nothing kept, agrees."""
    calls = []
    for check in ("validate", "validate_std"):
        monkeypatch.setattr(designs, check,
                            lambda d, check=getattr(designs, check): calls.append(d) or check(d))
    for name, d in corpus.items():
        fresh = dataclasses.replace(d)  # a new object, with nothing kept on it
        dd.require_valid(dd.dual(fresh))
        assert calls == [fresh], name
        assert dd.validate_design(dataclasses.replace(dd.dual(fresh))).ok, name
        calls.clear()


def test_std_header_does_not_size_an_allocation():
    tracemalloc.start()
    try:
        report = dd.validate_std(dd.from_text("STD 1000000 1 0\n0\n"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert report.violations == ("k = 1 != lambda*g = 0",)


def test_sd_block_count_mismatch_does_not_size_an_allocation():
    """A library-built design with fewer blocks than v points is reported
    by its parameters alone: no pencils, no pair counts over absent blocks."""
    d = dd.SymmetricDesign(v=10**6, k=2, lam=1, blocks=())
    tracemalloc.start()
    try:
        report = dd.validate(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert report.violations == ("block count 0 != v = 1000000",)


def _tiny_designs():
    """Every symmetric design with v <= 4 (every k, every lambda <= k, every
    tuple of v k-subsets), and every block tuple over the point classes of
    the nets (g, k, lambda) = (1, 1, 1), (2, 2, 1) and (0, 0, 0)."""
    for v in range(5):
        for k in range(v + 1):
            subsets = list(itertools.combinations(range(v), k))
            for lam in range(k + 1):
                for blocks in itertools.product(subsets, repeat=v):
                    yield dd.SymmetricDesign(v=v, k=k, lam=lam, blocks=blocks)
    for g, k, lam in ((1, 1, 1), (2, 2, 1), (0, 0, 0)):
        classes = tuple(tuple(range(i * g, (i + 1) * g)) for i in range(k))
        subsets = list(itertools.combinations(range(k * g), k))
        for blocks in itertools.product(subsets, repeat=lam * g * g):
            yield dd.TransversalDesign(g=g, k=k, lam=lam, classes=classes, blocks=blocks)


def test_accepted_designs_have_distinct_pencils():
    """What the validators accept has v >= 2 points, k > lambda >= 1 and
    pairwise distinct pencils, so every valid design has a semi-resolving
    set and no solver needs its own separability check."""
    accepted = 0
    for d in _tiny_designs():
        if dd.validate_design(d).ok:
            accepted += 1
            pencils = designs.pencil_masks(d)
            assert d.v >= 2 and d.k > d.lam >= 1 and len(set(pencils)) == d.v, d
    # 30 symmetric designs and the 24 orderings of ba2; the 32 orderings of
    # the lambda = 0 designs SD 2 1 0, SD 3 1 0 and SD 4 1 0 are rejected
    assert accepted == 54


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_text_round_trip(corpus):
    for name in ("pg2", "pg3", "ba3", "hstd4", "hd12"):
        d = corpus[name]
        assert dd.from_text(dd.to_text(d)) == d, name


def test_text_header_and_comments(fano):
    text = dd.to_text(fano)
    assert text.splitlines()[0] == "SD 7 3 1"
    commented = "# a comment\n" + text
    assert dd.from_text(commented) == fano


def test_std_text_layout():
    d = dd.biaffine_plane(3)
    lines = dd.to_text(d).splitlines()
    assert lines[0] == "STD 3 3 1"
    # k class lines, then lambda*g^2 block lines
    assert len(lines) == 1 + 3 + 9


def test_truncated_text_rejected(fano):
    text = dd.to_text(fano)
    truncated = "\n".join(text.splitlines()[:-1])
    with pytest.raises(ValueError):
        dd.from_text(truncated)
    with pytest.raises(ValueError):
        dd.from_text("")
    with pytest.raises(ValueError):
        dd.from_text("XX 1 2 3\n")


def test_block_count_identity(corpus):
    for name, d in corpus.items():
        if isinstance(d, dd.SymmetricDesign):
            assert len(d.blocks) == d.v, name
        else:
            assert len(d.blocks) == d.lam * d.g * d.g == d.v, name
            assert d.k == d.lam * d.g, name
            assert comb(d.v, 2) > 0


# ---------------------------------------------------------------------------
# the validators against the definitions
# ---------------------------------------------------------------------------

# corpus designs small enough for the set-based oracle at every example
ORACLE_DESIGNS = ("pg2", "pg3", "pg4", "hd8", "hd12", "ba2", "ba3", "ba4",
                  "hstd2", "hstd4", "hstd8")


def _mutate(d, kind, draw):
    """d with one defect of the given kind, drawn by draw(strategy, label)."""
    blocks = [list(b) for b in d.blocks]
    classes = [list(c) for c in getattr(d, "classes", ())]
    rows = classes if kind == "swap-classes" else blocks
    i = draw(st.integers(0, len(rows) - 1), "row")
    j = draw(st.integers(0, len(rows) - 1), "other row")
    outside = sorted(set(range(d.point_count)) - set(rows[i]))
    if kind == "move" and outside:
        rows[i][draw(st.integers(0, len(rows[i]) - 1), "at")] = draw(st.sampled_from(outside), "to")
    elif kind in ("swap-blocks", "swap-classes") and i != j:
        a = draw(st.integers(0, len(rows[i]) - 1), "at")
        b = draw(st.integers(0, len(rows[j]) - 1), "other at")
        rows[i][a], rows[j][b] = rows[j][b], rows[i][a]
    elif kind == "repeat" and i != j:
        rows[j] = list(rows[i])
    elif kind == "grow" and outside:
        rows[i].append(draw(st.sampled_from(outside), "added"))
    elif kind == "shrink":
        del rows[i][draw(st.integers(0, len(rows[i]) - 1), "removed")]
    mutated = dataclasses.replace(d, blocks=tuple(tuple(sorted(b)) for b in blocks))
    if classes:
        mutated = dataclasses.replace(mutated, classes=tuple(tuple(sorted(c)) for c in classes))
    return mutated


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_validators_agree_with_the_definitions(corpus, reference_valid, data):
    """Corpus designs and nets with one moved point, points swapped between
    blocks or between point classes, a repeated block, or a grown or shrunk
    block: the validators accept exactly what the definitions accept."""
    d = corpus[data.draw(st.sampled_from(ORACLE_DESIGNS), label="design")]
    kinds = ["none", "move", "swap-blocks", "repeat", "grow", "shrink"]
    if isinstance(d, dd.TransversalDesign):
        kinds.append("swap-classes")
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    mutated = _mutate(d, kind, lambda strategy, label: data.draw(strategy, label=label))
    assert dd.validate_design(mutated).ok == reference_valid(mutated)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_violations_dual_and_graphs_match_the_references(
        corpus, reference_violations, reference_dual, reference_incidence_graph, data):
    """The mutants of test_validators_agree_with_the_definitions, with the
    points of each block and point class listed in a drawn order (as an
    unsorted file may list them): every violation in the same words and
    order; for a valid mutant the same dual, masks and incidence graphs."""
    d = corpus[data.draw(st.sampled_from(ORACLE_DESIGNS), label="design")]
    kinds = ["none", "move", "swap-blocks", "repeat", "grow", "shrink"]
    if isinstance(d, dd.TransversalDesign):
        kinds.append("swap-classes")
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    m = _mutate(d, kind, lambda strategy, label: data.draw(strategy, label=label))
    if data.draw(st.booleans(), label="shuffle"):
        rng = data.draw(st.randoms(use_true_random=False), label="order")

        def shuffled(rows):
            return tuple(tuple(rng.sample(row, len(row))) for row in rows)

        m = dataclasses.replace(m, blocks=shuffled(m.blocks))
        if isinstance(m, dd.TransversalDesign):
            m = dataclasses.replace(m, classes=shuffled(m.classes))
    report = dd.validate_design(m)
    assert report.violations == reference_violations(m)
    if not report.ok:
        return
    e, want = dd.dual(m), reference_dual(m)
    assert e == want
    assert designs.block_masks(e) == [designs._mask(b) for b in want.blocks]
    assert designs.pencil_masks(e) == designs.block_masks(m)
    for subject in (m, e):
        got, ref = dd.incidence_graph(subject), reference_incidence_graph(subject)
        for attr in ("n", "adj", "nbr", "layers", "part", "diameter", "point_count"):
            assert getattr(got, attr) == getattr(ref, attr), attr


def test_validators_agree_with_the_definitions_on_tiny_designs(reference_valid):
    """Every design of _tiny_designs, and every block tuple of the (2, 2, 1)
    net over class tuples that partition the points or fail to."""
    for d in _tiny_designs():
        assert dd.validate_design(d).ok == reference_valid(d), d
    subsets = list(itertools.combinations(range(4), 2))
    for classes in (((0, 2), (1, 3)), ((0, 3), (1, 2)), ((0, 1), (1, 2)), ((0, 1), (0, 1))):
        for blocks in itertools.product(subsets, repeat=2):
            d = dd.TransversalDesign(g=2, k=2, lam=1, classes=classes, blocks=blocks)
            assert dd.validate_design(d).ok == reference_valid(d), d


def test_tiny_designs_report_the_reference_violations(reference_violations):
    """Every design of _tiny_designs reports the reference's violations in
    the same words and order.  A symmetric design whose point side passes
    with lambda = 0 still gets its block-side violation: Ryser's theorem
    carries the point side over to the blocks only when k > lambda >= 1."""
    for d in _tiny_designs():
        assert dd.validate_design(d).violations == reference_violations(d), d
    d = dd.SymmetricDesign(v=3, k=1, lam=0, blocks=((0,), (0,), (1,)))
    assert dd.validate_design(d).violations == (
        "point 0 is incident with 2 blocks, expected k = 1", "lambda = 0 must be at least 1")


def test_a_valid_symmetric_design_is_checked_on_one_side():
    """On fresh design objects: a valid symmetric design runs the side
    check once, as its block side follows from its point side; a failing
    one, and every net, valid or not, runs it on both sides."""
    def moved(d):
        blocks = [list(b) for b in d.blocks]
        blocks[0][0] = min(set(range(d.point_count)) - set(blocks[0]))
        return dataclasses.replace(d, blocks=tuple(tuple(sorted(b)) for b in blocks))

    for build, ok, calls in (
            (lambda: dd.projective_plane(3), True, 1),
            (lambda: dd.hadamard_design(dd.hadamard_matrix(16)), True, 1),
            (lambda: moved(dd.projective_plane(3)), False, 2),
            (lambda: dd.biaffine_plane(3), True, 2),
            (lambda: dd.hadamard_std(dd.hadamard_matrix(8)), True, 2),
            (lambda: moved(dd.hadamard_std(dd.hadamard_matrix(8))), False, 2)):
        d = build()
        with mock.patch.object(designs, "_side_violation",
                               wraps=designs._side_violation) as side:
            assert dd.validate_design(d).ok is ok, d
        assert side.call_count == calls, d


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_pair_count_violation_matches_reference(corpus, reference_pair_count_violation, data):
    """Random 0/1 incidence matrices, and the point or block side of a small
    corpus design with up to three incidences flipped, each with no
    classes, random classes or (for a net's point side) its own classes:
    the same first bad pair, y-major, with the same counts, whether the
    elements are counted in one run or in runs of one or three lanes."""
    if data.draw(st.booleans(), label="random"):
        width = data.draw(st.integers(1, 12), label="members")
        masks = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=12),
                          label="masks")
        lam = data.draw(st.integers(0, 3), label="lambda")
        own_classes = None
    else:
        d = corpus[data.draw(st.sampled_from(("pg2", "pg3", "ba2", "ba3", "hstd2", "hstd4")),
                             label="design")]
        points = data.draw(st.booleans(), label="point side")
        masks = designs.pencil_masks(d) if points else designs.block_masks(d)
        width = len(d.blocks) if points else d.point_count
        for x, j in data.draw(st.lists(st.tuples(st.integers(0, len(masks) - 1),
                                                 st.integers(0, width - 1)), max_size=3),
                              label="flips"):
            masks[x] ^= 1 << j
        lam = d.lam
        own_classes = getattr(d, "classes", None) if points else None
    class_of = data.draw(st.sampled_from(["none", "random", "own"]), label="classes")
    if class_of == "random":
        class_of = data.draw(st.lists(st.integers(0, 2), min_size=len(masks), max_size=len(masks)),
                             label="class of")
    elif class_of == "own" and own_classes:
        class_of = [0] * len(masks)
        for ci, c in enumerate(own_classes):
            for x in c:
                class_of[x] = ci
    else:
        class_of = None
    rows = [list(designs._bits(m)) for m in masks]
    members = [designs._mask(x for x, row in enumerate(rows) if j in row) for j in range(width)]
    class_masks = class_of and [designs._mask(y for y, c in enumerate(class_of) if c == cx)
                                for cx in class_of]
    expected = reference_pair_count_violation(masks, lam, class_of)
    for budget in (designs._LANE_BYTES, 3, 1):
        with mock.patch.object(designs, "_LANE_BYTES", budget):
            assert designs._pair_count_violation(rows, members, lam, class_masks) == expected, budget


@pytest.mark.parametrize("q", [31, 37])
def test_pair_count_runs_on_large_planes(q, reference_pair_count_violation):
    """PG(2,31) (993 points) is counted in one run and PG(2,37) (1 407) in
    two; both validate.  With the lowest point of block 0 moved to the
    lowest point outside it, as _mutate moves a point, each side's first
    bad pair and its counts are the oracle's: on PG(2,37) the point side's
    lies in the second run, the block side's in the first."""
    d = dd.projective_plane(q)
    assert dd.validate_design(d).ok
    runs = list(designs._lane_runs(d.blocks, designs._LANE_BYTES // ((d.v + 7) // 8)))
    assert len(runs) == (1 if q == 31 else 2)
    blocks = [list(b) for b in d.blocks]
    blocks[0][0] = min(set(range(d.v)) - set(blocks[0]))
    m = dataclasses.replace(d, blocks=tuple(tuple(sorted(b)) for b in blocks))
    pencils, bmasks = designs._build_pencils(m), [designs._mask(b) for b in m.blocks]
    points = [list(designs._bits(p)) for p in pencils]
    for rows, members, masks in ((points, bmasks, pencils), (m.blocks, pencils, bmasks)):
        hit = designs._pair_count_violation(rows, members, m.lam)
        assert hit is not None and hit == reference_pair_count_violation(masks, m.lam)
        assert (hit[1] >= runs[0].stop) == (q == 37 and rows is points)


def test_pair_count_runs_split_at_a_long_row(reference_pair_count_violation):
    """PG(2,31) with point 0 put on every block in place of the block's
    lowest point: point 0's row of 993 blocks is a run of its own, not one
    padding 992 lanes of filler, and the report names the oracle's pair."""
    d = dd.projective_plane(31)
    blocks = [b if 0 in b else (0, *b[1:]) for b in d.blocks]
    m = dataclasses.replace(d, blocks=tuple(blocks))
    pencils = designs._build_pencils(m)
    points = [list(designs._bits(p)) for p in pencils]
    assert len(points[0]) == 993
    assert next(designs._lane_runs(points, designs._LANE_BYTES)) == range(0, 1)
    x, y, got, want = reference_pair_count_violation(pencils, m.lam)
    assert dd.validate_design(m).violations[0] == (
        f"point pair ({x}, {y}) shares {got} blocks, expected {want}")
