"""Exact expectation and inequality calculations for random block samples.

For a design in which every point pair's pencil symmetric difference has
size m, a uniform random s-subset of the v blocks misses a given pair's
separator with probability C(v-m, s) / C(v, s), so the expected number of
unresolved pairs is

    E = C(v,2) * C(v-m, s) / C(v, s),

an exact rational.  E < 1 certifies that a semi-resolving set of size s
exists.  The certificate is checked here link by link:

    C(v,2) < v^2/2 < exp(m/v)^s < (1 + m/v + (m/v)^2)^s
           < prod_{i<s} (1 + m/(v-m-i)) = C(v,s) / C(v-m,s)

with exact rational arithmetic wherever possible and 50-digit decimal
arithmetic where exp appears.  For symmetric nets the separator size is
2k for same-class pairs and 2(k-lambda) otherwise, giving an exact
two-term expectation below the single-term bound.

The exhaustive averages, the independent oracle for these closed forms,
enumerate every s-subset of the blocks in truth tables: 2^w-bit integers
whose bit t stands for the subset t of the first w blocks, so one big-int
operation tests 2^w subsets at once.  Each assignment of the v - w blocks
past them that leaves 0..w of the s blocks to the table is a chunk of its
own.  In a chunk each separator that its high blocks miss costs about two
table widths of work: its miss table is doubled up, one block at a time,
from a looked-up table of its first LOOKUP_BITS blocks, and dropped once
scored.  w is v up to TABLE_BITS blocks; past that it is chosen from s
and v, trading the number of chunks against the table size, so small s
takes narrow tables.  Memory stays at a few dozen tables for any v: about
0.2 MiB of heap on PG(2,4), v = 21.  On a 2-core x86-64 host v = 25 takes
about 0.15 s at s = 12, and PG(2,7), v = 57, about 0.3 s at s = 2 and 5.5 s
at s = 3 (8-bit and 9-bit tables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from math import comb
from operator import or_

from .designs import (
    Design, SymmetricDesign, _mask, _tally, _tally_is, pencil_masks, projective_plane,
)
from .fields import prime_power
from .resolve import _sample_bound, _seeded_samples, _signature_collision, separator_masks

DECIMAL_PRECISION = 50  # digits; >= 80 effective bits with margin to spare
MARGINAL_SLACK = 1e-9
TABLE_BITS = 16  # blocks per truth table at most: 2^16-bit (8 KiB) tables
OP_BITS = 1 << 12  # a table op's fixed cost in table bits, fitted to PG(2,5) and PG(2,7) runs
LOOKUP_BITS = 8  # blocks whose miss tables are looked up, not doubled: 2^8 tables of 2^8 bits


def expected_unresolved(v: int, m: int, s: int) -> Fraction:
    """Exact C(v,2) * C(v-m, s) / C(v, s); zero whenever s > v - m."""
    if not 0 <= s <= v:
        raise ValueError(f"s = {s} outside 0..{v}")
    if not 0 <= m <= v:
        raise ValueError(f"m = {m} outside 0..{v}")
    return Fraction(comb(v, 2) * comb(v - m, s), comb(v, s))


def expected_unresolved_std(
    g: int, k: int, lam: int, s: int
) -> tuple[Fraction, Fraction]:
    """(exact, upper) expected unresolved pair counts for a symmetric net:
    same-class pairs have separator size 2k, cross-class pairs 2(k-lambda);
    the upper bound applies the larger failure probability to every pair."""
    if g < 2 or lam < 1 or k != lam * g:
        raise ValueError(
            f"invalid symmetric-net parameters (need k = lambda*g, g >= 2, "
            f"lambda >= 1): g={g}, k={k}, lambda={lam}"
        )
    v = lam * g * g
    if not 0 <= s <= v:
        raise ValueError(f"s = {s} outside 0..{v}")
    total = comb(v, s)
    same = k * comb(g, 2)
    cross = comb(v, 2) - same
    exact = Fraction(
        same * comb(v - 2 * k, s) + cross * comb(v - 2 * (k - lam), s), total
    )
    upper = expected_unresolved(v, 2 * (k - lam), s)
    assert exact <= upper
    return exact, upper


def design_expected_unresolved(d: Design, s: int) -> Fraction:
    """Exact expected unresolved pair count for a concrete design."""
    if isinstance(d, SymmetricDesign):
        return expected_unresolved(d.v, 2 * (d.k - d.lam), s)
    return expected_unresolved_std(d.g, d.k, d.lam, s)[0]


# ---------------------------------------------------------------------------
# the inequality chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainLink:
    name: str
    lhs: str
    rhs: str
    holds: bool
    exact: bool
    margin: float  # relative gap (rhs - lhs) / max(lhs, rhs); 0.0 for equalities
    marginal: bool  # inexact link holding with margin <= MARGINAL_SLACK


@dataclass(frozen=True)
class ChainReport:
    v: int
    m: int
    s: int
    skipped: bool  # s > v - m: every sample hits every separator, E = 0
    expected: Fraction
    links: tuple[ChainLink, ...]
    equivalence_holds: bool | None

    @property
    def ok(self) -> bool:
        return not self.skipped and all(link.holds for link in self.links)


def _dec(x: Fraction) -> Decimal:
    """x rounded once to the context precision, equal to
    Decimal(numerator) / Decimal(denominator) without converting the whole
    operands: an integer quotient of at least prec + 2 digits, then a
    sticky digit (1 when the remainder is nonzero), then one rounding."""
    n, d = x.numerator, x.denominator
    ctx = getcontext()
    if not n:
        return ctx.create_decimal(0)
    # 30103 / 10^5 just exceeds log10(2), so the quotient has >= prec + 2 digits
    k = ctx.prec + 3 - (abs(n).bit_length() - d.bit_length()) * 30103 // 100000
    q, r = divmod(abs(n) * 10**k, d) if k >= 0 else divmod(abs(n), d * 10**-k)
    return ctx.create_decimal(f"{'-' * (n < 0)}{q}{int(r != 0)}E{-k - 1}")


def _fmt(x: Fraction | Decimal) -> str:
    return format(_dec(x) if isinstance(x, Fraction) else x, ".12E")


def _link(name: str, lhs, rhs, equality: bool = False) -> ChainLink:
    """The link lhs < rhs (lhs == rhs for an equality), exact between
    Fractions.  Between Decimals it is a 50-digit approximation, flagged
    marginal when it holds with a relative margin of at most MARGINAL_SLACK."""
    exact = isinstance(lhs, Fraction)
    holds = lhs == rhs if equality else lhs < rhs
    denom = max(abs(lhs), abs(rhs))
    margin = float((rhs - lhs) / denom) if denom and not equality else 0.0
    return ChainLink(
        name=name,
        lhs=_fmt(lhs),
        rhs=_fmt(rhs),
        holds=holds,
        exact=exact,
        margin=margin,
        marginal=not exact and holds and margin <= MARGINAL_SLACK,
    )


def inequality_chain(v: int, m: int, s: int | None = None) -> ChainReport:
    """Evaluate every link of the existence certificate at sample size
    s = ceil(2*v*ln(v)/m) (or as given, within 0..v).  The telescoping
    product is compared with the binomial ratio as an exact equality; exp
    links get 50-digit decimals and must clear a 1e-9 relative slack to
    avoid the marginal flag.  Whenever s > v - m, every s-sample meets every
    separator, so the report is skipped with expected = 0; that includes a
    default s past v."""
    if v < 2:
        raise ValueError(f"v = {v} must be at least 2")
    if not 0 < m < v:
        raise ValueError(f"need 0 < m < v, got m = {m}, v = {v}")
    if s is None:
        s = _sample_bound(v, m)
    elif not 0 <= s <= v:
        raise ValueError(f"s = {s} outside 0..{v}")
    if s > v - m:
        return ChainReport(
            v=v, m=m, s=s, skipped=True, expected=Fraction(0), links=(),
            equivalence_holds=None,
        )
    expected = expected_unresolved(v, m, s)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_PRECISION
        pairs = Fraction(comb(v, 2))
        half_square = Fraction(v * v, 2)
        exp_power = ((Decimal(m) / Decimal(v)).exp()) ** s
        quad_power = Fraction(v * v + m * v + m * m, v * v) ** s
        # prod_{i<s} (v-i)/(v-m-i) as falling factorials; the ratio from E,
        # which is positive here (s <= v - m)
        product = Fraction(math.perm(v, s), math.perm(v - m, s))
        ratio = pairs / expected
        links = (
            _link("C(v,2) < v^2/2", pairs, half_square),
            _link("v^2/2 < exp(m/v)^s", _dec(half_square), exp_power),
            _link("exp(m/v)^s < (1+m/v+(m/v)^2)^s", exp_power, _dec(quad_power)),
            _link("(1+m/v+(m/v)^2)^s < prod(1+m/(v-m-i))", quad_power, product),
            _link(
                "prod(1+m/(v-m-i)) == C(v,s)/C(v-m,s)", product, ratio, equality=True
            ),
        )
        # 2*ln(v) - ln(2) < m*s/v must agree with the v^2/2-vs-exp link: both
        # state the same inequality, one on the log scale.
        log_side = 2 * Decimal(v).ln() - Decimal(2).ln() < Decimal(m * s) / Decimal(v)
        equivalence = log_side == links[1].holds
    return ChainReport(
        v=v, m=m, s=s, skipped=False, expected=expected, links=links,
        equivalence_holds=equivalence,
    )


# ---------------------------------------------------------------------------
# order bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderBoundsReport:
    v: int
    k: int
    lam: int
    q: int
    lower: int  # 4q - 1
    upper: int  # q^2 + q + 1
    lower_holds: bool
    upper_holds: bool
    exp_bound: float  # e^q
    exp_holds: bool  # v < e^q
    sqrt_form_holds: bool  # q^2 + q + 1 >= v

    @property
    def ok(self) -> bool:
        return self.lower_holds and self.upper_holds


def order_bounds_check(v: int, k: int, lam: int) -> OrderBoundsReport:
    """Evaluate 4q-1 <= v <= q^2+q+1 for q = k - lambda >= 2, plus the
    consequences v < e^q and q^2+q+1 >= v."""
    q = k - lam
    if q < 2:
        raise ValueError(f"order q = k - lambda = {q} must be at least 2")
    lower, upper = 4 * q - 1, q * q + q + 1
    exp_bound = math.exp(q)
    return OrderBoundsReport(
        v=v,
        k=k,
        lam=lam,
        q=q,
        lower=lower,
        upper=upper,
        lower_holds=lower <= v,
        upper_holds=v <= upper,
        exp_bound=exp_bound,
        exp_holds=v < exp_bound,
        sqrt_form_holds=upper >= v,
    )


# ---------------------------------------------------------------------------
# empirical success rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloResult:
    successes: int
    trials: int
    rate: float
    stderr: float
    markov_lower: float  # max(0, 1 - E): any trial succeeds at least this often
    sample_size: int
    seed: int


def monte_carlo_success(
    d: Design, s: int, trials: int = 500, seed: int = 0
) -> MonteCarloResult:
    """Fraction of seeded uniform s-subsets of blocks that semi-resolve the
    points, alongside the exact-expectation lower bound on the rate."""
    if trials < 1:
        raise ValueError(f"trials = {trials} must be positive")
    v = d.v
    if not 0 <= s <= v:
        raise ValueError(f"s = {s} outside 0..{v}")
    masks = pencil_masks(d)
    successes = sum(
        _signature_collision(masks, smask) is None
        for smask in _seeded_samples(v, s, seed, trials)
    )
    rate = successes / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    markov = max(0.0, float(1 - design_expected_unresolved(d, s)))
    return MonteCarloResult(
        successes=successes,
        trials=trials,
        rate=rate,
        stderr=stderr,
        markov_lower=markov,
        sample_size=s,
        seed=seed,
    )


def _truth_tables(w: int) -> list[int]:
    """For each block b < w, the 2^w-bit truth table of the subsets of the
    first w blocks that contain b: bit t is set when bit b of t is.  Each
    new block doubles the width of the tables before it."""
    var = []
    for b in range(w):
        half = 1 << b
        var = [t | t << half for t in var]
        var.append(((1 << half) - 1) << half)
    return var


def _table_width(v: int, s: int) -> int:
    """The truth-table width for s-subsets of v blocks: v itself up to
    TABLE_BITS, else the width w <= TABLE_BITS that minimises the chunks
    (assignments of j <= s of the v - w high blocks) times the cost of a
    table op, 2^w bits plus a fixed cost per op."""
    if v <= TABLE_BITS:
        return v

    def cost(w: int) -> int:
        chunks = sum(comb(v - w, j) for j in range(max(0, s - w), min(s, v - w) + 1))
        return chunks * ((1 << w) + OP_BITS)

    return min(range(1, TABLE_BITS + 1), key=cost)


@cache
def _lookup_tables(r: int) -> tuple[int, ...]:
    """For each p < 2^r, the 2^r-bit table of the subsets of the first r
    blocks that miss p.  Each block doubles the tables of the p without it
    and keeps those of the p with it."""
    tables = [1]
    for b in range(r):
        half = 1 << b
        tables = [t | t << half for t in tables] + tables
    return tuple(tables)


@cache
def _doublings(r: int, w: int) -> tuple[tuple[int, ...], ...]:
    """For each p < 2^(w-r), the shifts 2^b of the blocks b = r..w-1 that
    p << r misses, built like _lookup_tables: each block adds its shift for
    the p without it."""
    steps = [()]
    for b in range(r, w):
        half = 1 << b
        steps = [t + (half,) for t in steps] + steps
    return tuple(steps)


def _avoiding(t: int, shifts) -> int:
    """A separator's miss table over the first w blocks, the subsets that
    miss it, from t, its table over the first r, and its _doublings shifts:
    each block past r outside the separator copies the table so far into a
    new upper half (the same subsets with that block added), and each block
    in it leaves that half empty.  About two table widths of work."""
    for half in shifts:
        t |= t << half
    return t


def _subset_average(d: Design, s: int, score) -> Fraction:
    """The exact average over every s-subset of the blocks, by full
    enumeration in truth tables.  The first _table_width(v, s) blocks span
    one table; each assignment of the blocks past them is a chunk, enumerated
    in a loop.  score(size, misses) gets the chunk's table of s-subsets and
    a stream of tables, one per point pair whose separator (pencil
    symmetric difference) the chunk's high blocks miss: the s-subsets that
    miss that separator too, that table and the separator's _avoiding
    table.  Each miss table is built as the stream reaches it, so none
    outlives its score; a separator keeps only its looked-up table of the
    first LOOKUP_BITS blocks and its shifts.  It returns the chunk's integer
    total."""
    v = d.v
    if not 0 <= s <= v:
        raise ValueError(f"s = {s} outside 0..{v}")
    w = _table_width(v, s)
    r = min(w, LOOKUP_BITS)
    planes = _tally(_truth_tables(w))
    lookup, doublings = _lookup_tables(r), _doublings(r, w)
    full, low = (1 << (1 << w)) - 1, (1 << w) - 1
    separators = [
        (sep & ~low, lookup[sep & ((1 << r) - 1)], doublings[(sep & low) >> r])
        for sep in separator_masks(pencil_masks(d))
    ]
    total = 0
    for j in range(max(0, s - w), min(s, v - w) + 1):
        size = _tally_is(planes, s - j, full)
        for high in map(_mask, combinations(range(w, v), j)):
            misses = (
                size & _avoiding(t, shifts) for sep, t, shifts in separators if not sep & high
            )
            total += score(size, misses)
    return Fraction(total, comb(v, s))


def exhaustive_success_rate(d: Design, s: int) -> Fraction:
    """Exact fraction of all s-subsets of blocks that semi-resolve the
    points, by full enumeration: the s-subsets outside every miss table."""
    return _subset_average(
        d, s, lambda size, misses: (size & ~reduce(or_, misses, 0)).bit_count()
    )


def exhaustive_expected_unresolved(d: Design, s: int) -> Fraction:
    """Exact average unresolved-pair count over all s-subsets of blocks, by
    full enumeration: the popcounts of the miss tables.  The independent
    oracle for the closed forms."""
    return _subset_average(d, s, lambda size, misses: sum(m.bit_count() for m in misses))


# ---------------------------------------------------------------------------
# parameter sweeps (CSV rows for the command-line frontend)
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "v", "k", "lambda", "g", "s",
    "E_exact_num", "E_exact_den", "E_float",
    "chain_ok", "mc_rate", "mc_trials", "seed",
)


def projective_plane_sweep(qmax: int, mc_trials: int = 0, seed: int = 0):
    """One row per prime power q <= qmax with projective-plane parameters
    (q^2+q+1, q+1, 1), sorted by q."""
    if qmax < 2:
        raise ValueError(f"qmax = {qmax} must be at least 2")
    rows = []
    for q in range(2, qmax + 1):
        if prime_power(q) is None:
            continue
        v, k, lam = q * q + q + 1, q + 1, 1
        report = inequality_chain(v, 2 * (k - lam))
        s, expected = report.s, report.expected
        chain_ok = "skipped" if report.skipped else str(report.ok).lower()
        mc_rate = ""
        if mc_trials:
            mc = monte_carlo_success(projective_plane(q), s, trials=mc_trials, seed=seed)
            mc_rate = f"{mc.rate:.6f}"
        rows.append({
            "v": v, "k": k, "lambda": lam, "g": "", "s": s,
            "E_exact_num": expected.numerator,
            "E_exact_den": expected.denominator,
            "E_float": f"{float(expected):.6e}",
            "chain_ok": chain_ok,
            "mc_rate": mc_rate,
            "mc_trials": mc_trials or "",
            "seed": seed,
        })
    return rows
