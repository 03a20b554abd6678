"""Symmetric block designs, symmetric transversal designs, Hadamard matrices.

A symmetric design with parameters (v, k, lambda) is a family of v blocks of
size k over v points in which every pair of distinct points lies in exactly
lambda blocks and every pair of distinct blocks meets in exactly lambda
points.  A symmetric transversal design STD_lambda[k; g] partitions its
k*g points into k classes of size g; blocks are transversals of the classes,
cross-class point pairs lie in exactly lambda blocks, and the dual is again
a transversal design (forcing k = lambda*g and lambda*g^2 blocks).

Constructors here are the standard ones (projective planes over GF(q),
Sylvester/Paley Hadamard matrices, biaffine planes from AG(2, q), the
Hadamard-matrix symmetric net).  Correctness never rests on a construction:
validate_design() decides a design's verdict through its per-type checks
validate() and validate_std().  Each checks the parameters (a symmetric
design needs v >= 2 points, a positive order k - lambda and lambda >= 1, a
net g >= 2 and lambda >= 1), builds the dual from the design's pencil
lists and runs one incidence check on the points of each, counting every
pair by bit-sliced tallies in runs of up to 1 024 elements; a symmetric
design's block side follows from its point side (Ryser's theorem) and runs
only to report a failure.  The report lists the parameter violations, then
at most one violation per side.  Every valid design therefore has pairwise
distinct pencils and a connected incidence graph.

All objects are immutable after construction and safe to share across
threads.  Points and blocks are dense 0-based integer indices.

Each design object is validated once and keeps its derived values on the
instance: validate_design() keeps the report that require_valid() reads,
validation the dual it built and both sides' masks, and pencil_masks(),
block_masks() and incidence.incidence_graph() their results (a dual takes
its verdict and masks from its design).  Validation, the dual, the incidence
graph, the solvers and the bounds thus share one set of incidence lists and
bitsets.  Concurrent first use may compute a value twice, which is harmless:
the values are equal and immutable.  validate() and validate_std() keep no
verdict: each call checks afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby, zip_longest

from .fields import make_field, prime_power


class ConstructionError(ValueError):
    """A requested structure cannot be built from the given parameters."""


class InvalidDesign(ValueError):
    """A design that parsed or was built fails validation."""


@dataclass(frozen=True)
class SymmetricDesign:
    v: int
    k: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return self.k - self.lam

    @property
    def point_count(self) -> int:
        return self.v


@dataclass(frozen=True)
class TransversalDesign:
    g: int
    k: int
    lam: int
    classes: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def v(self) -> int:
        return self.k * self.g

    @property
    def order(self) -> int:
        return self.k - self.lam

    @property
    def point_count(self) -> int:
        return self.v


Design = SymmetricDesign | TransversalDesign


@dataclass(frozen=True)
class HadamardMatrix:
    n: int
    rows: tuple[tuple[int, ...], ...]

    def is_orthogonal(self) -> bool:
        """True iff H is an n x n +-1 matrix with H * H^T = n * I.  Each row
        is held as the bitset of its -1 entries; two +-1 rows are orthogonal
        iff they differ in n/2 entries."""
        n = self.n
        if len(self.rows) != n or any(len(r) != n or {*r} - {1, -1} for r in self.rows):
            return False
        minus = [_mask(j for j, x in enumerate(r) if x == -1) for r in self.rows]
        return all(2 * (a ^ b).bit_count() == n for i, a in enumerate(minus) for b in minus[:i])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


# ---------------------------------------------------------------------------
# derived values kept on the design object
# ---------------------------------------------------------------------------

def _derived(d: Design, name: str, compute):
    """compute(d), computed on first use and kept in d's instance __dict__
    (designs are frozen dataclasses; the memo takes no part in equality,
    hashing or repr)."""
    memo = d.__dict__.setdefault("_derived", {})
    if name not in memo:
        memo[name] = compute(d)
    return memo[name]


def require_valid(d: Design) -> None:
    """Raise InvalidDesign naming the first violated axiom unless d
    validates: the gate over validate_design's kept verdict."""
    if not (report := validate_design(d)).ok:
        raise InvalidDesign(f"design does not validate: {report.violations[0]}")


# ---------------------------------------------------------------------------
# bitset helpers
# ---------------------------------------------------------------------------

def _mask(indices) -> int:
    m = 0
    for x in indices:
        m |= 1 << x
    return m


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _tally(masks) -> list[int]:
    """Bit-sliced counts: bit t of planes[b] is bit b of the number of
    masks holding t, summed by one ripple-carry add per mask."""
    planes = []
    for m in masks:
        for b, p in enumerate(planes):
            planes[b] = p ^ m
            if not (m := m & p):
                break
        else:
            planes.append(m)
    return planes


def _tally_is(planes, count: int, scope: int) -> int:
    """The bits of scope whose tally in planes is count."""
    for b, p in enumerate(planes):
        scope &= p if count >> b & 1 else ~p
    return 0 if count >> len(planes) else scope


def _count_is(masks, count: int, scope: int) -> int:
    """The bits of scope held by exactly count of masks.  A count of 0 or 1
    needs no tally: two running masks, the bits seen at least once and at
    least twice, take three big-int operations per mask."""
    if count > 1:
        return _tally_is(_tally(masks), count, scope)
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    return scope & once & ~twice if count else scope & ~once


def block_masks(d: Design) -> list[int]:
    """Each block as a bitset over the point universe.  Computed once per
    design object; every call returns a fresh list."""
    return list(_derived(d, "block_masks", lambda d: tuple(map(_mask, d.blocks))))


def pencil_masks(d: Design) -> list[int]:
    """For each point x, the bitset of indices of blocks containing x.
    Computed once per design object; every call returns a fresh list."""
    return list(_derived(d, "pencil_masks", _build_pencils))


def _build_pencils(d: Design) -> tuple[int, ...]:
    pencils = [0] * d.point_count
    for j, b in enumerate(d.blocks):
        bit = 1 << j
        for x in b:
            pencils[x] |= bit
    return tuple(pencils)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def projective_plane(q: int) -> SymmetricDesign:
    """The projective plane over GF(q): 1-dimensional subspaces of GF(q)^3 as
    points, 2-dimensional subspaces as blocks; parameters (q^2+q+1, q+1, 1).
    Points and lines are the same normalized vectors in the same order, and
    point x lies on line l when l . x = 0, so the incidence matrix is
    symmetric.  The points (1, y, z) come first, at y*q + z, then (0, 1, z)
    at q^2 + z, then (0, 0, 1) at q^2 + q.

    Each line is read from the field's q x q addition and multiplication
    tables, already sorted.  A line (a, b, c) with c != 0 is z = alpha +
    beta*y with alpha = -a/c and beta = -b/c: the points y*q +
    add[alpha][mul[beta][y]] for y = 0..q-1, then q^2 + beta.  With c = 0
    and b != 0 it is y = -a/b with every z, then (0, 0, 1); the line at
    infinity (1, 0, 0) is the last q + 1 points."""
    pp = prime_power(q)
    if pp is None:
        raise ConstructionError(f"{q} is not a prime power")
    F = make_field(*pp)
    add = [[F.add(a, z) for z in F.elements] for a in F.elements]
    mul = [[F.mul(b, y) for y in F.elements] for b in F.elements]
    neg_inv = [0] + [F.neg(F.inv(c)) for c in range(1, q)]  # -1/c
    starts, top = range(0, q * q, q), q * q  # the first index of each y, and of (0, 1, z)

    def line(a, b, c):
        if c:
            alpha, beta = mul[a][neg_inv[c]], mul[b][neg_inv[c]]
            shift = add[alpha]
            return (*[start + shift[m] for start, m in zip(starts, mul[beta])], top + beta)
        if b:
            start = mul[a][neg_inv[b]] * q
            return (*range(start, start + q), top + q)
        return tuple(range(top, top + q + 1))

    pts = [(1, b, c) for b in F.elements for c in F.elements]
    pts += [(0, 1, c) for c in F.elements]
    pts.append((0, 0, 1))
    blocks = tuple(line(*pt) for pt in pts)
    return SymmetricDesign(v=q * q + q + 1, k=q + 1, lam=1, blocks=blocks)


def point_complement_design(v: int) -> SymmetricDesign:
    """The (v, v-1, v-2) design whose blocks are the point complements; its
    incidence graph is the complete bipartite graph minus a perfect matching."""
    if v < 3:
        raise ConstructionError(f"need v >= 3, got {v}")
    blocks = tuple(tuple(x for x in range(v) if x != i) for i in range(v))
    return SymmetricDesign(v=v, k=v - 1, lam=v - 2, blocks=blocks)


def _sylvester_double(rows):
    top = [r + r for r in rows]
    bottom = [r + tuple(-x for x in r) for r in rows]
    return top + bottom


def _kronecker(a_rows, b_rows):
    return [
        tuple(x * y for x in ra for y in rb) for ra in a_rows for rb in b_rows
    ]


def _paley_rows(q: int):
    """Order q+1 rows from the quadratic character of GF(q), q = 3 mod 4."""
    F = make_field(*prime_power(q))
    squares = {F.mul(x, x) for x in range(1, q)}

    def chi(x):
        if x == 0:
            return 0
        return 1 if x in squares else -1

    size = q + 1
    rows = [[0] * size for _ in range(size)]
    rows[0][0] = 1
    for j in range(1, size):
        rows[0][j] = 1
        rows[j][0] = -1
    for i in range(1, size):
        for j in range(1, size):
            rows[i][j] = chi(F.sub(i - 1, j - 1)) + (1 if i == j else 0)
    return [tuple(r) for r in rows]


def _hadamard_rows(n: int, tried: list[str], cache: dict):
    if n in cache:
        return cache[n]
    rows = None
    if n == 1:
        rows = [(1,)]
    elif n == 2:
        rows = [(1, 1), (1, -1)]
    elif n % 4 != 0:
        tried.append(f"order {n}: not 1, 2, or a multiple of 4")
    else:
        half = _hadamard_rows(n // 2, tried, cache)
        if half is not None:
            rows = _sylvester_double(half)
        else:
            tried.append(f"Sylvester doubling from order {n // 2}")
            pp = prime_power(n - 1)
            if pp is not None and (n - 1) % 4 == 3:
                rows = _paley_rows(n - 1)
            else:
                tried.append(f"quadratic-character construction at order {n - 1}")
                for a in range(4, n // 2 + 1, 4):
                    if n % a == 0 and (n // a) % 4 == 0:
                        ra = _hadamard_rows(a, tried, cache)
                        rb = _hadamard_rows(n // a, tried, cache)
                        if ra is not None and rb is not None:
                            rows = _kronecker(ra, rb)
                            break
                        tried.append(f"tensor product {a} x {n // a}")
    cache[n] = rows
    return rows


def hadamard_matrix(n: int) -> HadamardMatrix:
    """A Hadamard matrix of order n via Sylvester doubling, the quadratic
    character of GF(n-1) when n-1 = 3 mod 4 is a prime power, or tensor
    products of smaller orders.  Output is deterministic."""
    if n < 1:
        raise ConstructionError(f"order {n} must be positive")
    tried: list[str] = []
    rows = _hadamard_rows(n, tried, cache={})
    if rows is None:
        raise ConstructionError(
            f"no implemented construction reaches order {n}; tried: "
            + "; ".join(tried)
        )
    H = HadamardMatrix(n=n, rows=tuple(rows))
    assert H.is_orthogonal()
    return H


def _normalize_hadamard(H: HadamardMatrix):
    """Multiply each row by its first entry, then each column by row 0's."""
    rows = [[x * r[0] for x in r] for r in H.rows]
    return [[x * s for x, s in zip(r, rows[0])] for r in rows]


def hadamard_design(H: HadamardMatrix) -> SymmetricDesign:
    """The (4t-1, 2t-1, t-1) design carried by a Hadamard matrix of order
    n = 4t >= 8: normalize, drop the first row and column, and read each
    remaining row's +1 positions as a block."""
    n = H.n
    if n < 8 or n % 4 != 0:
        raise ConstructionError(
            f"order {n} must be a multiple of 4 and at least 8"
        )
    rows = _normalize_hadamard(H)
    blocks = tuple(
        tuple(j - 1 for j in range(1, n) if rows[i][j] > 0) for i in range(1, n)
    )
    t = n // 4
    return SymmetricDesign(v=n - 1, k=2 * t - 1, lam=t - 1, blocks=blocks)


def biaffine_plane(q: int) -> TransversalDesign:
    """The affine plane over GF(q) with the vertical parallel class removed:
    points are GF(q)^2, blocks the lines y = m*x + c, point classes the
    vertical lines.  An STD_1[q; q]."""
    pp = prime_power(q)
    if pp is None:
        raise ConstructionError(f"{q} is not a prime power")
    F = make_field(*pp)
    classes = tuple(tuple(x * q + y for y in range(q)) for x in range(q))
    blocks = []
    for m in range(q):
        for c in range(q):
            blocks.append(tuple(sorted(x * q + F.add(F.mul(m, x), c) for x in range(q))))
    return TransversalDesign(g=q, k=q, lam=1, classes=classes, blocks=tuple(blocks))


def hadamard_std(H: HadamardMatrix) -> TransversalDesign:
    """The symmetric net STD_lambda[2*lambda; 2] carried by a Hadamard matrix
    of order n = 2*lambda.  Points are (row, eps), classes pair the two signs
    of each row, and block (col, delta) takes from class i the point whose
    sign eps satisfies H[i][col] * (-1)^(eps+delta) = +1.  The incidence
    graph is the Hadamard graph of order n."""
    n = H.n
    if n != 2 and (n < 2 or n % 4 != 0):
        raise ConstructionError(
            f"order {n} must be 2 or a multiple of 4 (so lambda = n/2 is 1 or even)"
        )
    classes = tuple((2 * i, 2 * i + 1) for i in range(n))
    blocks = []
    for j in range(n):
        for delta in (0, 1):
            blocks.append(
                tuple(
                    2 * i + (delta if H.rows[i][j] > 0 else 1 - delta)
                    for i in range(n)
                )
            )
    return TransversalDesign(g=2, k=n, lam=n // 2, classes=classes, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_LANE_BYTES = 1 << 17  # one column of a run: a side of up to 1 024 elements is one run


def _lane_runs(rows, size: int):
    """Consecutive ranges of at most size elements whose rows share one
    bit length, so that no row in a range is twice as long as another."""
    end = 0
    for _, run in groupby(map(int.bit_length, map(len, rows))):
        start, end = end, end + len(list(run))
        for y in range(start, end, size):
            yield range(y, min(y + size, end))


def _pair_count_violation(rows, members, lam: int, class_masks=None):
    """The first pair x < y, y-major, that shares other than the expected
    number of members (lam, or 0 when class_masks[x], the bitset of the
    class of x, holds y), as (x, y, got, expected); None when every pair
    agrees.  rows[x] lists the members holding x and members[j] is the
    bitset of the elements of member j.

    The n elements are counted in runs of consecutive elements, by one
    bit-sliced tally per run.  Element y of a run gets a lane of L =
    8*ceil(n/8) bits, whole bytes, at bit (y - y0)*L of a wide int, y0
    being the run's first element.  Column t of the run's rows puts
    members[rows[y][t]] into every lane y (an all-zero member fills the
    short rows), gathered by one int.from_bytes, so after the tally of the
    columns bit (y - y0)*L + x holds c(x, y), the number of members
    holding both.  Only the lower triangle x < y is checked, and as the
    lane is y and the bit within it is x, the lowest bad bit is the lowest
    y, then the lowest x: the y-major first bad pair, and the first run
    with a bad bit holds it.

    A run's columns stay within _LANE_BYTES, so a side of up to 1 024
    elements is one run, and its rows share one bit length, so none is
    twice another and the filler stays below the incidences.  Past about
    3 000 elements per side the gather of k*n*L/8 bytes outweighs the
    interpreter time the lanes save."""
    n = len(rows)
    width = (n + 7) // 8
    lanes = [m.to_bytes(width, "little") for m in members]
    lanes.append(bytes(width))

    def wide(chunks) -> int:
        return int.from_bytes(b"".join(chunks), "little")

    for ys in _lane_runs(rows, max(1, _LANE_BYTES // max(width, 1))):
        columns = zip_longest(*rows[ys.start:ys.stop], fillvalue=len(members))
        planes = _tally(wide(map(lanes.__getitem__, column)) for column in columns)
        below = wide(((1 << y) - 1).to_bytes(width, "little") for y in ys)
        same = wide((class_masks[y] & (1 << y) - 1).to_bytes(width, "little")
                    for y in ys) if class_masks else 0
        good = _tally_is(planes, lam, below & ~same) | (same and _tally_is(planes, 0, same))
        if bad := below & ~good:
            pos = (bad & -bad).bit_length() - 1
            y, x = divmod(pos, 8 * width)
            got = sum((p >> pos & 1) << b for b, p in enumerate(planes))
            return x, ys.start + y, got, 0 if same >> pos & 1 else lam
    return None


def _index_masks(rows, v: int, noun: str):
    """(masks, None) with each row of point indices as a bitset, or
    (None, violation) naming the first row that holds an index outside
    0..v-1 or holds one index twice."""
    masks = []
    for i, row in enumerate(rows):
        if row and (min(row) < 0 or max(row) >= v):
            return None, f"{noun} {i} contains an out-of-range point"
        m = _mask(row)
        if m.bit_count() != len(row):
            return None, f"{noun} {i} repeats a point"
        masks.append(m)
    return masks, None


def _side_violation(d: Design, other: Design, nouns) -> str | None:
    """The first violation of the incidence rule on the point side of d,
    or None.  other is the dual of d: its blocks list, and its block masks
    hold, the blocks of d through each point.  nouns are the (point, block)
    names of d's side.  The rule: every block has k points; the point
    classes of a net split the points into k classes of g and every block
    meets every class once; two points share lambda blocks, or none when
    one class holds both."""
    element, member = nouns
    members, pencils = block_masks(d), block_masks(other)
    for j, m in enumerate(members):
        if m.bit_count() != d.k:
            return f"{member} {j} is incident with {m.bit_count()} {element}s, expected k = {d.k}"
    class_masks = None
    if (classes := getattr(d, "classes", None)) is not None:
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
    if hit := _pair_count_violation(other.blocks, members, d.lam, class_masks):
        x, y, got, want = hit
        return f"{element} pair ({x}, {y}) shares {got} {member}s, expected {want}"
    return None


def _parallel_classes(d: TransversalDesign, pencils) -> tuple[tuple[int, ...], ...]:
    """The blocks of a net grouped into parallel classes, ordered by their
    lowest block.  The class of block j is j and the blocks disjoint from
    it: the complement of the union of its points' pencils."""
    every = (1 << len(d.blocks)) - 1
    classes = {}
    for j, blk in enumerate(d.blocks):
        meets = 0
        for x in blk:
            meets |= pencils[x]
        classes.setdefault(every & ~meets | 1 << j)
    return tuple(tuple(_bits(c)) for c in classes)


def _both_sides(d: Design, bmasks) -> list[str]:
    """The rule run on d and on its dual, whose points are the blocks of d:
    at most one violation per side.  The dual is built here, once, and kept
    on d; a net's dual-side violation says that the dual is not a
    transversal design.  bmasks, checked against the point range, are kept
    on d as its block masks.  A symmetric design with k > lambda >= 1 and a
    passing point side has NN^T = (k - lambda)I + lambda J, N nonsingular,
    so N^T N = NN^T (Ryser): its block side runs only to report a failure."""
    _derived(d, "block_masks", lambda d: tuple(bmasks))
    e = _derived(d, "dual", _build_dual)
    points = _side_violation(d, e, ("point", "block"))
    follows = not points and isinstance(d, SymmetricDesign) and d.k > d.lam >= 1
    blocks = None if follows else _side_violation(e, d, ("block", "point"))
    if blocks and isinstance(d, TransversalDesign):
        blocks = f"dual is not a transversal design: {blocks}"
    return [hit for hit in (points, blocks) if hit]


def validate(d: SymmetricDesign) -> ValidationReport:
    """Check the parameters v >= 2, k - lambda >= 1, v blocks, the order
    bounds 4q-1 <= v <= q^2+q+1 when q >= 2 and lambda >= 1 (lambda = 0
    leaves only the v disjoint edges of k = 1), and, when there are v
    blocks, run the incidence check on the design and, unless Ryser's
    theorem settles it (see _both_sides), on its dual.
    Violations are reported (at most one per side), never raised; the
    lambda check comes last, so it never hides another violation."""
    violations = []
    v, k, lam = d.v, d.k, d.lam
    if v < 2:
        violations.append(f"v = {v} must be at least 2")
    if k - lam < 1:
        violations.append(f"order k - lambda = {k - lam} must be positive")
    if len(d.blocks) != v:
        # the incidence check runs only on v blocks, so v alone never sizes
        # an allocation
        violations.append(f"block count {len(d.blocks)} != v = {v}")
    else:
        bmasks, bad = _index_masks(d.blocks, v, "block")
        if bad:
            return ValidationReport(ok=False, violations=(*violations, bad))
        violations += _both_sides(d, bmasks)
    q = k - lam
    if q >= 2:
        if not 4 * q - 1 <= v:
            violations.append(f"order bound violated: 4q-1 = {4 * q - 1} > v = {v}")
        if not v <= q * q + q + 1:
            violations.append(f"order bound violated: v = {v} > q^2+q+1 = {q * q + q + 1}")
    if lam < 1:
        violations.append(f"lambda = {lam} must be at least 1")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def validate_std(d: TransversalDesign) -> ValidationReport:
    """Check the parameters k = lambda*g, lambda*g^2 blocks, g >= 2 and
    lambda >= 1, and run the incidence check on the net, whose classes are
    its point classes, and on its dual, whose classes are the parallel
    classes of blocks.  Violations are reported (parameters, or else at
    most one per side), never raised."""
    violations = []
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
        # past these checks v = lambda*g^2 is the number of block lines, so
        # the header alone never sizes an allocation
        return ValidationReport(ok=False, violations=tuple(violations))
    bmasks, bad = _index_masks(d.blocks, v, "block")
    bad = _index_masks(d.classes, v, "point class")[1] or bad
    violations = [bad] if bad else _both_sides(d, bmasks)
    return ValidationReport(ok=not violations, violations=tuple(violations))


def validate_design(d: Design) -> ValidationReport:
    """d's verdict: validate() or validate_std() by type, run once per
    design object; every call returns the kept report."""
    check = validate if isinstance(d, SymmetricDesign) else validate_std
    return _derived(d, "validation", check)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def dual(d: Design) -> Design:
    """Swap the roles of points and blocks.  For a symmetric design the
    parameters are unchanged; for a symmetric transversal design the dual's
    point classes are the parallel classes of the input.  Built once per
    design object, by its validation; every call returns it.  d's verdict
    covers both sides (see _both_sides), so the dual keeps it."""
    require_valid(d)
    e = _derived(d, "dual", _build_dual)
    _derived(e, "validation", lambda e: validate_design(d))
    return e


def _build_dual(d: Design) -> Design:
    """The dual of d: its blocks are d's pencils as ascending tuples, one
    append per incidence, and the pencil masks of each side are the block
    masks of the other.  d's blocks must lie in the point range."""
    rows = [[] for _ in range(d.point_count)]
    for j, blk in enumerate(d.blocks):
        for x in blk:
            rows[x].append(j)
    pencils = _derived(d, "pencil_masks", lambda d: tuple(map(_mask, rows)))
    classes = {"classes": _parallel_classes(d, pencils)} if hasattr(d, "classes") else {}
    e = replace(d, blocks=tuple(map(tuple, rows)), **classes)
    _derived(e, "block_masks", lambda e: pencils)
    _derived(e, "pencil_masks", lambda e: tuple(block_masks(d)))
    return e


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
# Line 1 is `SD v k lambda` or `STD g k lambda`.  For an STD the next k lines
# list each class's point indices; then one line per block with ascending
# space-separated point indices.  `#` starts a comment line; encoding ASCII.


def content_lines(text: str) -> list[str]:
    """The stripped lines of text, blank and `#` comment lines dropped: the
    one lexical rule of the design, graph and witness text formats."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def int_line(line: str, what: str, width: int | None = None, skip: int = 0) -> tuple[int, ...]:
    """The integers of line after its first skip tokens: the one reader of
    every integer line of the text formats.  Raises ValueError
    `bad <what> line: ...` unless every such token is an integer and, with
    width given, the line has width tokens in all."""
    toks = line.split()
    try:
        if width is not None and len(toks) != width:
            raise ValueError
        return tuple(map(int, toks[skip:]))
    except ValueError:
        raise ValueError(f"bad {what} line: {line!r}") from None


def to_text(d: Design) -> str:
    lines = []
    if isinstance(d, SymmetricDesign):
        lines.append(f"SD {d.v} {d.k} {d.lam}")
    else:
        lines.append(f"STD {d.g} {d.k} {d.lam}")
        for cls in d.classes:
            lines.append(" ".join(str(x) for x in sorted(cls)))
    for blk in d.blocks:
        lines.append(" ".join(str(x) for x in sorted(blk)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Design:
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty design file")
    tag = lines[0].split()[0]
    # no content line has 0 tokens, so an unknown tag makes a bad header line
    n, k, lam = int_line(lines[0], "header", 4 if tag in ("SD", "STD") else 0, skip=1)
    body = tuple(int_line(ln, "index") for ln in lines[1:])
    if tag == "SD":
        if len(body) != n:
            raise ValueError(f"expected {n} block lines, found {len(body)}")
        return SymmetricDesign(v=n, k=k, lam=lam, blocks=body)
    n_blocks = lam * n * n
    if len(body) != k + n_blocks:
        raise ValueError(
            f"expected {k} class lines and {n_blocks} block lines, found {len(body)}"
        )
    return TransversalDesign(g=n, k=k, lam=lam, classes=body[:k], blocks=body[k:])
