import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import designdim as dd


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
