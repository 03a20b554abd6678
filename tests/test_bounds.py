import dataclasses
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designdim as dd
from designdim.cli import main


# ---------------------------------------------------------------------------
# exact expectation
# ---------------------------------------------------------------------------

def test_anchor_value_three_fifths():
    assert dd.expected_unresolved(7, 4, 3) == Fraction(3, 5)


def test_zero_when_sample_exceeds_complement():
    assert dd.expected_unresolved(7, 4, 4) == 0
    assert dd.expected_unresolved(7, 4, 7) == 0


def test_empty_sample_leaves_all_pairs():
    assert dd.expected_unresolved(7, 4, 0) == 21


def test_parameter_range_checks():
    with pytest.raises(ValueError):
        dd.expected_unresolved(7, 4, 8)
    with pytest.raises(ValueError):
        dd.expected_unresolved(7, 8, 3)
    with pytest.raises(ValueError):
        dd.expected_unresolved(7, -1, 3)


def test_expectation_matches_exhaustive_average_fano(fano):
    for s in range(8):
        assert dd.expected_unresolved(7, 4, s) == dd.exhaustive_expected_unresolved(
            fano, s
        )


def test_net_expectation_matches_exhaustive_average():
    d = dd.biaffine_plane(3)
    for s in (0, 2, 4, 5):
        closed = dd.expected_unresolved_std(3, 3, 1, s)[0]
        assert closed == dd.exhaustive_expected_unresolved(d, s)


def test_expectation_matches_exhaustive_on_small_corpus(corpus):
    """Closed forms equal full-enumeration averages for every corpus design
    small enough to enumerate all subsets outright (v <= 13, every s)."""
    for name, d in corpus.items():
        if d.v > 13:
            continue
        for s in range(d.v + 1):
            assert dd.design_expected_unresolved(d, s) == (
                dd.exhaustive_expected_unresolved(d, s)
            ), (name, s)


def test_expectation_beats_one_at_sample_size(corpus):
    """E < 1 at s = ceil(v ln v/(k-lambda)) on every corpus design whose
    parameters admit the bound."""
    for name, d in corpus.items():
        try:
            s = dd.semi_resolving_sample_size(d)
        except ValueError:
            continue
        assert dd.design_expected_unresolved(d, s) < 1, name


def test_net_expectation_trivial_cases():
    assert dd.expected_unresolved_std(2, 4, 2, 8)[0] == 0  # s = v
    assert dd.expected_unresolved_std(3, 3, 1, 0)[0] == 36  # C(9,2)


def test_net_expectation_strictly_below_upper(corpus):
    for name, d in corpus.items():
        if not isinstance(d, dd.TransversalDesign):
            continue
        m_small = 2 * (d.k - d.lam)
        for s in range(1, d.v - m_small + 1):
            exact, upper = dd.expected_unresolved_std(d.g, d.k, d.lam, s)
            assert exact < upper, (name, s)


def test_net_expectation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dd.expected_unresolved_std(3, 4, 1, 2)  # k != lambda * g
    with pytest.raises(ValueError):
        dd.expected_unresolved_std(1, 2, 2, 1)


def test_design_expected_unresolved_dispatch(corpus):
    assert dd.design_expected_unresolved(corpus["pg2"], 3) == Fraction(3, 5)
    assert dd.design_expected_unresolved(corpus["ba3"], 5) == Fraction(3, 14)


# ---------------------------------------------------------------------------
# inequality chain
# ---------------------------------------------------------------------------

def test_chain_skipped_when_sample_covers_everything():
    # v = 31, m = 10: s = ceil(2 * 31 * ln 31 / 10) = 22 > v - m = 21
    report = dd.inequality_chain(31, 10)
    assert report.s == 22
    assert report.skipped
    assert report.expected == 0
    assert report.links == ()


@pytest.mark.parametrize("v, m, s", [(7, 1, 28), (7, 2, 14), (13, 1, 67), (2, 1, 3)])
def test_chain_skipped_when_default_sample_exceeds_v(v, m, s):
    """The default s = ceil(2 v ln v / m) can pass v itself; the report is
    then skipped with expected 0, like any s > v - m."""
    report = dd.inequality_chain(v, m)
    assert (report.s, report.skipped, report.expected) == (s, True, 0)
    assert report.links == () and report.equivalence_holds is None


def test_chain_rejects_a_given_sample_outside_0_to_v():
    for s in (-1, 8):
        with pytest.raises(ValueError, match=f"s = {s} outside 0..7"):
            dd.inequality_chain(7, 4, s)


def test_chain_holds_for_order_seven_plane():
    report = dd.inequality_chain(57, 14)
    assert report.s == 33
    assert not report.skipped
    assert report.ok
    assert report.equivalence_holds
    assert len(report.links) == 5
    for link in report.links:
        assert link.holds
        assert not link.marginal
    assert report.links[-1].exact
    assert report.expected < 1


def test_chain_product_equals_binomial_ratio_exactly():
    report = dd.inequality_chain(57, 14, 33)
    final = report.links[-1]
    assert final.holds and final.margin == 0.0


def test_chain_holds_for_order_257_plane():
    """PG(2,257), v = 66 307, m = 514: s = 2 865, every link holds, and
    the falling-factorial product prints as the ratio C(v,2) / E."""
    report = dd.inequality_chain(66307, 514)
    assert not report.skipped and report.ok and report.equivalence_holds
    assert all(link.holds for link in report.links)
    final = report.links[-1]
    assert final.name == "prod(1+m/(v-m-i)) == C(v,s)/C(v-m,s)"
    assert final.lhs == final.rhs


def test_exp_below_quadratic_for_small_argument():
    # e^t < 1 + t + t^2 on 0 < t < 1, spot value t = 4/7
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(4) / Decimal(7)
        assert t.exp() < 1 + t + t * t
        assert float(t.exp()) == pytest.approx(1.770795, abs=1e-6)
        assert float(1 + t + t * t) == pytest.approx(1.897959, abs=1e-6)


def test_chain_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dd.inequality_chain(7, 0)
    with pytest.raises(ValueError):
        dd.inequality_chain(7, 7)
    with pytest.raises(ValueError):
        dd.inequality_chain(1, 0)


def test_chain_sweep_up_to_v_200():
    """Every link holds and E < 1 on all admissible (v, q) pairs; the full
    sweep to 500 runs in the acceptance suite."""
    for v in range(7, 201):
        qmin = max(2, (math.isqrt(4 * v - 3) - 1) // 2)
        for q in range(qmin, (v + 1) // 4 + 1):
            if not 4 * q - 1 <= v <= q * q + q + 1:
                continue
            s = math.ceil(v * math.log(v) / q)
            assert dd.expected_unresolved(v, 2 * q, s) < 1, (v, q)
            report = dd.inequality_chain(v, 2 * q, s)
            if not report.skipped:
                assert report.ok, (v, q)
                assert report.equivalence_holds, (v, q)


# ---------------------------------------------------------------------------
# order bounds
# ---------------------------------------------------------------------------

def test_order_bounds_fano():
    rep = dd.order_bounds_check(7, 3, 1)
    assert rep.lower == 7 and rep.upper == 7
    assert rep.ok and rep.exp_holds and rep.sqrt_form_holds
    assert rep.exp_bound == pytest.approx(7.389, abs=1e-3)


def test_order_bounds_biplane():
    rep = dd.order_bounds_check(11, 5, 2)
    assert rep.lower == 11 and rep.upper == 13
    assert rep.ok


def test_order_bounds_pg3():
    rep = dd.order_bounds_check(13, 4, 1)
    assert rep.lower == 11 and rep.upper == 13
    assert rep.ok


def test_order_bounds_reject_small_order():
    with pytest.raises(ValueError, match="at least 2"):
        dd.order_bounds_check(4, 3, 2)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_full_sample_rate_one(fano):
    mc = dd.monte_carlo_success(fano, 7, trials=50, seed=0)
    assert mc.rate == 1.0
    assert mc.markov_lower == 1.0


def test_monte_carlo_markov_bound(fano):
    mc = dd.monte_carlo_success(fano, 3, trials=500, seed=0)
    assert mc.markov_lower == pytest.approx(0.4)
    assert mc.rate >= mc.markov_lower - 3 * mc.stderr
    # the exact rate over all 35 samples is known; 500 trials sit close
    assert mc.rate == pytest.approx(float(dd.exhaustive_success_rate(fano, 3)), abs=0.1)


def test_monte_carlo_batches_agree(fano):
    """Two disjoint seed batches agree within 3 combined standard errors."""
    a = dd.monte_carlo_success(fano, 3, trials=500, seed=0)
    b = dd.monte_carlo_success(fano, 3, trials=500, seed=1)
    combined = math.sqrt(a.stderr**2 + b.stderr**2)
    assert abs(a.rate - b.rate) <= 3 * combined


def test_monte_carlo_reproducible(fano):
    a = dd.monte_carlo_success(fano, 3, trials=100, seed=9)
    b = dd.monte_carlo_success(fano, 3, trials=100, seed=9)
    assert a == b


def test_monte_carlo_rejects_bad_arguments(fano):
    with pytest.raises(ValueError):
        dd.monte_carlo_success(fano, 3, trials=0)
    with pytest.raises(ValueError):
        dd.monte_carlo_success(fano, 9)


def test_exhaustive_success_rate_fano(fano):
    assert dd.exhaustive_success_rate(fano, 3) == Fraction(28, 35)
    assert dd.exhaustive_success_rate(fano, 7) == 1


def _relabelled(d, rng):
    """An isomorphic copy of d under seeded point, block and class orders,
    drawn in the order the benchmark draws them."""
    points = list(range(d.point_count))
    rng.shuffle(points)
    order = list(range(len(d.blocks)))
    rng.shuffle(order)
    blocks = [()] * len(d.blocks)
    for j, blk in enumerate(d.blocks):
        blocks[order[j]] = tuple(sorted(points[x] for x in blk))
    if isinstance(d, dd.SymmetricDesign):
        return dataclasses.replace(d, blocks=tuple(blocks))
    classes = [tuple(sorted(points[x] for x in c)) for c in d.classes]
    rng.shuffle(classes)
    return dataclasses.replace(d, classes=tuple(classes), blocks=tuple(blocks))


def test_exhaustive_matches_reference_enumeration(corpus, small_corpus, reference_subset_average):
    """Both exhaustive averages equal the one-subset-at-a-time reference at
    every s: on the small corpus, its duals and the benchmark's relabelled
    ba4 and hd16."""
    designs = {**small_corpus, **{f"dual {n}": dd.dual(d) for n, d in small_corpus.items()}}
    for name in ("ba4", "hd16"):
        designs[f"relabelled {name}"] = _relabelled(corpus[name], random.Random(f"1/{name}"))
    _assert_exhaustive_matches_reference(designs, reference_subset_average)


def test_exhaustive_on_narrow_tables_matches_reference(small_corpus, reference_subset_average,
                                                       monkeypatch):
    """With 4-block truth tables every design of the small corpus and its
    dual walks many chunks of high blocks; both exhaustive averages still
    equal the one-subset-at-a-time reference at every s."""
    monkeypatch.setattr(dd.bounds, "TABLE_BITS", 4)
    designs = {**small_corpus, **{f"dual {n}": dd.dual(d) for n, d in small_corpus.items()}}
    _assert_exhaustive_matches_reference(designs, reference_subset_average)


def _assert_exhaustive_matches_reference(designs, reference_subset_average):
    def unresolved(seps, smask):
        return sum(1 for sep in seps if not sep & smask)

    def resolves(seps, smask):
        return all(sep & smask for sep in seps)

    for name, d in designs.items():
        for s in range(d.v + 1):
            assert dd.exhaustive_expected_unresolved(d, s) == (
                reference_subset_average(d, s, unresolved)
            ), (name, s)
            assert dd.exhaustive_success_rate(d, s) == (
                reference_subset_average(d, s, resolves)
            ), (name, s)


def test_exhaustive_past_one_table_on_pg4(corpus):
    """PG(2,4) has v = 21 blocks, 5 past one truth table: the outer loop
    over their assignments still gives the closed form at every s, no
    success while 2^s < v signatures cannot tell the points apart, certain
    success once s > v - m, and a peak heap far below the 2^21-subset
    table that one width would need."""
    d = corpus["pg4"]
    v, m = d.v, 2 * (d.k - d.lam)
    for s in range(v + 1):
        assert dd.exhaustive_expected_unresolved(d, s) == dd.design_expected_unresolved(d, s), s
        if 2**s < v:
            assert dd.exhaustive_success_rate(d, s) == 0, s
        elif s > v - m:
            assert dd.exhaustive_success_rate(d, s) == 1, s
    tracemalloc.start()
    try:
        dd.exhaustive_expected_unresolved(d, 10)
        dd.exhaustive_success_rate(d, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_exhaustive_small_s_on_pg7_takes_narrow_tables():
    """PG(2,7) has v = 57 blocks.  At s = 2 a 2^16-bit table would hold 136
    pairs of the first 16 blocks, and 862 chunks would each scan it whole;
    the width chosen from s and v takes narrow tables, and the average over
    the 1 596 pairs of blocks equals the closed form in well under a second
    (about 0.6 s on a 2-core x86-64 host).  Up to TABLE_BITS blocks one
    table spans them all at every s."""
    d = dd.projective_plane(7)
    assert dd.bounds._table_width(d.v, 2) < dd.bounds.TABLE_BITS
    assert dd.exhaustive_expected_unresolved(d, 2) == dd.design_expected_unresolved(d, 2)
    assert all(
        dd.bounds._table_width(v, s) == v
        for v in range(1, dd.bounds.TABLE_BITS + 1)
        for s in range(v + 1)
    )


def test_exhaustive_rejects_sample_sizes_before_building_tables(corpus, monkeypatch):
    def no_tables(w):
        raise AssertionError("built truth tables for an invalid s")

    monkeypatch.setattr(dd.bounds, "_truth_tables", no_tables)
    d = corpus["pg4"]
    for exhaustive in (dd.exhaustive_expected_unresolved, dd.exhaustive_success_rate):
        for s in (-1, d.v + 1):
            with pytest.raises(ValueError, match=f"s = {s} outside 0..{d.v}"):
                exhaustive(d, s)


def _reference_dec(x):
    return Decimal(x.numerator) / Decimal(x.denominator)


def _signed(magnitudes):
    return st.tuples(st.booleans(), magnitudes).map(lambda t: -t[1] if t[0] else t[1])


# up to 4000-bit operands, any sign; and values halfway between two
# 50-digit decimals, (c + 1/2) * 10^e with c of 50 digits, exactly or
# nudged by 10^-30 * 10^e, far below the digits that the quotient keeps
_operands = st.integers(0, 4000).flatmap(lambda bits: st.integers(0, 1 << bits))
_ties = st.builds(
    lambda c, nudge, e: (c + Fraction(1, 2) + Fraction(nudge, 10**30)) * Fraction(10) ** e,
    st.integers(10**49, 10**50 - 1),
    st.sampled_from((0, 1, -1)),
    st.integers(-80, 80),
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    x=st.one_of(
        st.builds(Fraction, _signed(_operands), _operands.map(lambda d: d + 1)),
        _signed(_ties),
        st.just(Fraction(0)),
    )
)
def test_dec_rounds_like_decimal_division(x):
    """_dec(x) equals Decimal(n) / Decimal(d) in a 50-digit context, in value
    and in the .12E string the chain reports print."""
    with localcontext() as ctx:
        ctx.prec = 50
        got, want = dd.bounds._dec(x), _reference_dec(x)
        assert got == want
        assert format(got, ".12E") == format(want, ".12E")


def test_chain_reports_and_sweep_csv_same_as_by_decimal_division(capsys, monkeypatch):
    """The chain reports at q = 101 and 257 and the bounds --sweep pg
    --qmax 32 CSV do not change when _dec divides whole Decimals."""

    def outputs():
        reports = [dd.inequality_chain(q * q + q + 1, 2 * q) for q in (101, 257)]
        assert main(["bounds", "--sweep", "pg", "--qmax", "32"]) == 0
        return reports, capsys.readouterr().out

    fast = outputs()
    monkeypatch.setattr(dd.bounds, "_dec", _reference_dec)
    assert outputs() == fast


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_projective_sweep_rows():
    rows = dd.bounds.projective_plane_sweep(11)
    qs = [2, 3, 4, 5, 7, 8, 9, 11]
    assert len(rows) == len(qs)
    for row, q in zip(rows, qs):
        assert row["v"] == q * q + q + 1
        assert row["chain_ok"] in ("true", "skipped")
        if row["chain_ok"] != "skipped":
            assert row["s"] <= row["v"] - 2 * q


def test_sweep_sample_size_is_the_one_resolve_reports(corpus):
    rows = {row["v"]: row for row in dd.bounds.projective_plane_sweep(9)}
    for q in (2, 3, 4, 5, 7, 8, 9):
        d = corpus[f"pg{q}"]
        assert rows[d.v]["s"] == dd.semi_resolving_sample_size(d) == dd.clamped_sample_size(d)
