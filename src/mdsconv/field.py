"""Exact arithmetic in prime fields GF(p) and binary extension fields GF(2^m).

Field elements are plain Python integers in a canonical encoding: the
residue in [0, p) for a prime field, and the bit-packed coefficient
vector of a polynomial over GF(2) (bit i = coefficient of x^i) for a
binary extension field.  The canonical encoding is also the wire/file
representation of every symbol (decimal in text formats).

Extension fields are reduced modulo a fixed irreducible polynomial so
that encodings are bit-exact across runs:

    GF(4)   : x^2 + x + 1             -> 0b111       = 7
    GF(8)   : x^3 + x + 1             -> 0b1011      = 11
    GF(16)  : x^4 + x + 1             -> 0b10011     = 19
    GF(256) : x^8 + x^4 + x^3 + x + 1 -> 0b100011011 = 283

Every degree up to 16 uses the lexicographically smallest irreducible
polynomial of that degree, which gives the table above.

GF(2^m) with m <= 8 multiplies and inverts on log/exp tables, built on
first use.  Above GF(256) nothing is built in proportion to q: products
are shift and add (`_mul_nolut`), inverses extended Euclid over GF(2)[x].
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .errors import UsageError
from .record import Record, kept

MAX_EXTENSION_DEGREE = 16


# Miller-Rabin with the first thirteen primes as bases has no strong
# pseudoprime below PRIME_LIMIT (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so the test
# is exact there.  Field orders at or above it are refused.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; UsageError for p >= PRIME_LIMIT."""
    if p >= PRIME_LIMIT:
        raise UsageError(
            f"field order {p} is at or above the supported limit {PRIME_LIMIT}, "
            "below which primality is decided exactly"
        )
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _poly_deg(a: int) -> int:
    return a.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    """Remainder of polynomial division over GF(2)."""
    db = _poly_deg(b)
    while _poly_deg(a) >= db and a:
        a ^= b << (_poly_deg(a) - db)
    return a


def _poly_irreducible(mod: int, m: int) -> bool:
    """Exhaustive factor check: no divisor of degree 1..m//2."""
    if _poly_deg(mod) != m:
        return False
    for d in range(1, m // 2 + 1):
        for f in range(1 << d, 1 << (d + 1)):
            if _poly_mod(mod, f) == 0:
                return False
    return True


def _default_modulus(m: int) -> int:
    for cand in range(1 << m, 1 << (m + 1)):
        if _poly_irreducible(cand, m):
            return cand
    raise UsageError(f"no irreducible polynomial of degree {m} found")


class FieldSpec(Record):
    """A finite field GF(p^m) with p prime, and m = 1 or p = 2.

    All operations take and return canonical integer encodings.  A field is
    a record: `(p, m)` identify it, as the modulus is a function of m.  Its
    `modulus` and `q` are set with it, its tables on first use, and it may
    be shared freely across threads.
    """

    p: int
    m: int = 1

    def __post_init__(self):
        p, m = self.p, self.m
        if not _is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        if m < 1:
            raise UsageError(f"extension degree must be >= 1, got {m}")
        if m > 1 and p != 2:
            raise UsageError("extension fields are supported for characteristic 2 only")
        if m > MAX_EXTENSION_DEGREE:
            raise UsageError(f"extension degree {m} exceeds supported maximum {MAX_EXTENSION_DEGREE}")
        _set = object.__setattr__
        _set(self, "modulus", None if m == 1 else _default_modulus(m))
        _set(self, "q", p**m)
        _set(self, "_exp", None)
        _set(self, "_log", None)

    def __repr__(self) -> str:
        return f"GF({self.q})"

    # -- element handling ----------------------------------------------

    def check(self, a: int) -> int:
        """Validate a canonical encoding, returning it unchanged: an exact
        `int` (not a bool or other int subclass) in [0, q).  The message
        names the type of a refused value that is not an `int`."""
        if type(a) is not int or not 0 <= a < self.q:
            shown = repr(a) if type(a) is int else f"{a!r} ({type(a).__name__})"
            raise UsageError(f"{shown} is not a canonical element of {self!r}")
        return a

    def check_all(self, values: Sequence[int]) -> None:
        """`check` every entry of a sequence, with the same outcome.

        Plain ints in range pass without a method call; anything else goes
        through `check`, which refuses it.
        """
        q = self.q
        for a in values:
            if type(a) is not int or not 0 <= a < q:
                self.check(a)

    def elements(self) -> range:
        """All q elements in ascending canonical encoding."""
        return range(self.q)

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return a ^ b

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return a

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self._exp is None:
            if self.q > 256:
                return self._mul_nolut(a, b)
            self._build_tables()
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; a must be nonzero.

        Prime fields use integer extended Euclid; GF(2^m) with m <= 8 reads
        exp[q - 1 - log a] from the tables that `mul` uses, and above GF(256)
        extended Euclid over GF(2)[x] runs on (a, modulus).
        """
        if a == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse in {self!r}")
        if self.m == 1:
            # Integer extended Euclid on (a, p).
            r0, r1 = a % self.p, self.p
            s0, s1 = 1, 0
            while r1:
                quo = r0 // r1
                r0, r1 = r1, r0 - quo * r1
                s0, s1 = s1, s0 - quo * s1
            return s0 % self.p
        if self._exp is None:
            if self.q > 256:
                return self._inv_nolut(a)
            self._build_tables()
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        """a**e by square and multiply; pow(a, 0) == 1 for every a."""
        if e < 0:
            raise UsageError(f"exponent must be >= 0, got {e}")
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def row_tables(self) -> tuple[list[int], list[int]]:
        """The (log, exp) tables that `mul` reads, for the table-driven
        loops of `linalg` and `grs` over GF(2^m) with 1 < m <= 8; see
        `_build_tables`.  Larger fields have none."""
        if self.m == 1 or self.q > 256:
            raise UsageError(f"row tables exist only for fields GF(2^m) with 1 < m <= 8, not {self!r}")
        if self._exp is None:
            self._build_tables()
        return self._log, self._exp

    def product_rows(self) -> list[bytes]:
        """For a byte field (p = 2, q <= 256), rows[c] = bytes(c*v for v in
        the field): the region-multiply table of c, built once and kept.

        Row c is one `bytes.translate` of the logs of the field's elements
        (0's log mapped past every nonzero one) through a window of exp
        starting at log c, padded with zeros.
        """
        return kept(self, "_product_rows", self._derive_product_rows)

    def _derive_product_rows(self) -> list[bytes]:
        if self.p != 2 or self.q > 256:
            raise UsageError(f"product rows exist only for fields of at most 256 elements "
                             f"and characteristic 2, not {self!r}")
        q = self.q
        if self.m == 1:
            return [bytes(2), bytes((0, 1))]
        log, exp = self.row_tables()
        logs = bytes([q - 1, *log[1:]])
        exp_bytes, pad = bytes(exp[: 2 * (q - 1)]), bytes(257 - q)
        rows = [bytes(q)]
        return rows + [logs.translate(exp_bytes[lc : lc + q - 1] + pad) for lc in log[1:]]

    # -- internal binary-field helpers -----------------------------------

    def _mul_nolut(self, a: int, b: int) -> int:
        """Shift-and-add product with the reduction interleaved, so `a`
        stays below degree m and the loop runs once per bit of `b`."""
        out, top, mod = 0, self.q, self.modulus
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return out

    def _inv_nolut(self, a: int) -> int:
        """Extended Euclid over GF(2)[x]: g1 * a = u and g2 * a = v mod the
        modulus until u = 1 (Hankerson, Menezes and Vanstone, Alg. 2.48)."""
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def _build_tables(self) -> None:
        """Log/antilog tables in one form for `mul`, `inv`, `rref` and the
        lane rows of `linalg`, built only for GF(2^m) with 1 < m <= 8.

        exp holds two periods of a generator's powers, so exp[log a + log b]
        is the product of nonzero a and b.  log[0] is 2(q - 1), past every
        sum of two nonzero logs, and exp is 0 from that index on, so the
        same lookup gives 0 when either factor is 0, with no branch.
        """
        order = self.q - 1
        zero = 2 * order
        for gen in range(2, self.q):
            exp = [0] * (2 * zero + 1)
            log = [zero] * self.q
            val = 1
            count = 0
            while True:
                exp[count] = val
                log[val] = count
                count += 1
                val = self._mul_nolut(val, gen)
                if val == 1:
                    break
            if count == order:
                exp[order:zero] = exp[:order]
                object.__setattr__(self, "_exp", exp)
                object.__setattr__(self, "_log", log)
                return
        raise UsageError(f"no generator found for {self!r}")  # pragma: no cover


@lru_cache(maxsize=32)
def GF(q: int) -> FieldSpec:
    """The field of order q; q must be prime or a power of two.

    Memoised, so every code and matrix of a plan over GF(q) shares one
    `FieldSpec` and builds its lookup tables once.
    """
    if q < 2:
        raise UsageError(f"field order must be >= 2, got {q}")
    if _is_prime(q):
        return FieldSpec(q)
    if q & (q - 1) == 0:
        return FieldSpec(2, q.bit_length() - 1)
    raise UsageError(f"unsupported field order {q}: need a prime or a power of 2")
