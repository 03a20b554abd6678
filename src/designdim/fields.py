"""Arithmetic in GF(p^e) with integer-encoded elements.

An element is an integer in ``range(p**e)`` whose base-p digits are the
coefficients of its residue polynomial (constant term in the least
significant digit).  Multiplication and inversion go through exp/log
tables built once from a fixed generator, and in GF(p^e) with e >= 2 so do
sums and negation, by Zech logarithms: a + b = a * (1 + b/a).  Fields are
capped at MAX_FIELD_SIZE elements.
"""

from __future__ import annotations

import itertools

MAX_FIELD_SIZE = 1 << 16


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n == p**e and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            m, e = n, 0
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
        p += 1
    return (n, 1)


def _poly_trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a, mod, p) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial mod (coefficient tuples)."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(a[:dm])


def _monic_polys(degree, p):
    """All monic polynomials of the given degree, in increasing order of the
    base-p number their low coefficients spell, constant digit lowest."""
    return (c[::-1] + (1,) for c in itertools.product(range(p), repeat=degree))


def _is_irreducible(poly, p) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(d, p):
            if not _poly_rem(poly, div, p):
                return False
    return True


class FiniteField:
    """GF(p**e) on integer-encoded elements.  Use make_field(), which picks
    the canonical (lexicographically smallest) irreducible modulus."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = tuple(modulus)
        self._build_log_tables()

    # -- encoding ---------------------------------------------------------

    def _decode(self, a: int) -> tuple[int, ...]:
        p, digits = self.p, []
        while a:
            digits.append(a % p)
            a //= p
        return tuple(digits)

    def _encode(self, poly) -> int:
        out = 0
        for c in reversed(poly):
            out = out * self.p + c
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(self._decode(a), self._decode(b), self.p)
        return self._encode(_poly_rem(prod, self.modulus, self.p))

    def _build_log_tables(self):
        q, p = self.order, self.p
        for g in range(1, q):
            exp, x = [], 1
            while True:
                exp.append(x)
                x = self._raw_mul(x, g)
                if x == 1:
                    break
            if len(exp) == q - 1:
                self.generator = g
                self._exp = tuple(exp)
                log = [0] * q
                for i, val in enumerate(exp):
                    log[val] = i
                self._log = tuple(log)
                # 1 + g^i: g^i with its constant digit raised by one mod p
                self._one_plus = tuple(x - x % p + (x + 1) % p for x in exp)
                return
        raise AssertionError("multiplicative group of a finite field is cyclic")

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if not a or not b:
            return a or b
        log = self._log
        return self.mul(a, self._one_plus[(log[b] - log[a]) % (self.order - 1)])

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self.mul(a, self.p - 1)  # -1 is the constant p - 1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        return self._exp[(self._log[a] * n) % (self.order - 1)]

    @property
    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


def make_field(p: int, e: int) -> FiniteField:
    """Build GF(p**e) with the lexicographically smallest monic irreducible
    modulus of degree e, found by exhaustive search (deterministic)."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree {e} must be >= 1")
    if p**e > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}^{e} = {p**e} exceeds maximum {MAX_FIELD_SIZE}")
    for cand in _monic_polys(e, p):
        if _is_irreducible(cand, p):
            return FiniteField(p, e, cand)
    raise AssertionError("an irreducible polynomial of every degree exists")
