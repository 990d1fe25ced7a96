"""Reference arithmetic the benchmark checks the program's outputs against.

Nothing here imports mdsconv.  Fields, parity checks and access-cost
bounds are computed from their definitions, slowly and plainly:

- GF(p): integer arithmetic mod p; inverses by Fermat, a^(p-2).
- GF(2^m): carry-less multiplication reduced by the README's pinned
  polynomials; inverses by a^(2^m - 2).
- Extended-Vandermonde parity check of an [n, n-r] code with points
  gamma (n-1) and multipliers w (n): column j < n is
  w_j * (1, gamma_j, ..., gamma_j^(r-1)), column n is (0, ..., 0, w_n).
- Merge bound: initial code i reads r_F symbols when
  r_F <= min(k_i, r_i) and k_i otherwise; writing costs r_F.
- Split bound: final j is feasible when r_j <= min(k_j, r_I); reads are
  k_I minus the best feasible saving k_j - r_j (at least 0); writing
  costs the sum of r_j.
"""

from __future__ import annotations

# Reduction polynomials the README pins for the binary fields.
PINNED_MODULI = {4: 0b111, 8: 0b1011, 16: 0b10011, 256: 0b100011011}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class RefField:
    """GF(q) for a prime q or a q in PINNED_MODULI, on canonical integers."""

    def __init__(self, q: int):
        self.q = q
        if _is_prime(q):
            self.modulus = None
        elif q in PINNED_MODULI:
            self.modulus = PINNED_MODULI[q]
        else:
            raise ValueError(f"no reference arithmetic for GF({q})")
        self.bits = q.bit_length() - 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q if self.modulus is None else a ^ b

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q if self.modulus is None else a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.modulus is None:
            return a * b % self.q
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            if a >> self.bits:
                a ^= self.modulus
            b >>= 1
        return out

    def pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def dot(self, xs, ys) -> int:
        acc = 0
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, y))
        return acc


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"reference arithmetic self-test failed: {what}")


def self_test() -> None:
    """Known answers that do not come from the program; raises on a mismatch."""
    gf256 = RefField(256)
    # FIPS-197 section 4.2: {57}.{83} = {c1}, {57}.{13} = {fe}.
    _expect(gf256.mul(0x57, 0x83) == 0xC1, "{57}.{83} in GF(256)")
    _expect(gf256.mul(0x57, 0x13) == 0xFE, "{57}.{13} in GF(256)")
    # FIPS-197 section 5.1.1: the multiplicative inverse of {53} is {ca}.
    _expect(gf256.inv(0x53) == 0xCA, "{53}^-1 in GF(256)")
    # x * x^2 = x^3 = x + 1 under x^3 + x + 1; x * x^3 = x + 1 under x^4 + x + 1.
    _expect(RefField(8).mul(2, 4) == 3, "x.x^2 in GF(8)")
    _expect(RefField(16).mul(2, 8) == 3, "x.x^3 in GF(16)")
    for p in (257, 1000003):
        f = RefField(p)
        for a in (1, 2, 3, p // 2, p - 1):
            _expect(a * pow(a, p - 2, p) % p == 1, f"a.a^(p-2) in GF({p})")
            _expect(f.mul(a, f.inv(a)) == 1, f"a.a^-1 in GF({p})")
    for q in (8, 16, 256):
        f = RefField(q)
        for a in range(1, q):
            _expect(f.mul(a, f.inv(a)) == 1, f"a.a^-1 in GF({q})")


def parity_check(field: RefField, n: int, r: int, gamma, w) -> list[list[int]]:
    """The r x n extended-Vandermonde parity check, built by its definition."""
    rows = []
    for ell in range(r):
        row = [field.mul(w[j], field.pow(gamma[j], ell)) for j in range(n - 1)]
        row.append(w[n - 1] if ell == r - 1 else 0)
        rows.append(row)
    return rows


def code_ok(field: RefField, code: dict) -> bool:
    """A code document has distinct points and nonzero multipliers."""
    gamma, w = code["gamma"], code["w"]
    return (
        len(gamma) == code["n"] - 1
        and len(w) == code["n"]
        and len(set(gamma)) == len(gamma)
        and all(0 <= x < field.q for x in gamma)
        and all(0 < x < field.q for x in w)
    )


def in_code(field: RefField, h: list[list[int]], symbols) -> bool:
    """`symbols` has the code's length n and satisfies every parity check."""
    return all(len(row) == len(symbols) and field.dot(row, symbols) == 0 for row in h)


def merge_bound(initial, r_final: int) -> tuple[tuple[int, ...], int]:
    """Per-initial read minimums and the total access-cost bound of a merge."""
    reads = tuple(r_final if r_final <= min(k, n - k) else k for n, k in initial)
    return reads, sum(reads) + r_final


def split_bound(initial, final) -> int:
    """Total access-cost bound of a split of one (n, k) code into `final` shapes."""
    n_i, k_i = initial
    r_i = n_i - k_i
    savings = [k - (n - k) for n, k in final if n - k <= min(k, r_i)]
    return k_i - max([0] + savings) + sum(n - k for n, k in final)


def kernel_basis(field: RefField, h: list[list[int]]) -> list[list[int]]:
    """Rows spanning {x : h . x = 0}, read off the reduced row echelon form.

    The reduced echelon form of a matrix is unique, so this basis (one row
    per free column, 1 at that column) is the canonical one.
    """
    a = [list(row) for row in h]
    cols = len(a[0])
    pivots = []
    pr = 0
    for c in range(cols):
        pivot = next((i for i in range(pr, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[pr], a[pivot] = a[pivot], a[pr]
        scale = field.inv(a[pr][c])
        a[pr] = [field.mul(scale, x) for x in a[pr]]
        for i in range(len(a)):
            if i != pr and a[i][c]:
                coef = a[i][c]
                a[i] = [field.sub(x, field.mul(coef, y)) for x, y in zip(a[i], a[pr])]
        pivots.append(c)
        pr += 1
        if pr == len(a):
            break
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.sub(0, a[i][fc])
        basis.append(v)
    return basis


def vecmat(field: RefField, v, rows) -> tuple[int, ...]:
    """v . M for M given as a list of rows."""
    if len(v) != len(rows):
        raise ValueError(f"vector of length {len(v)} times {len(rows)} rows")
    out = [0] * len(rows[0])
    for coef, row in zip(v, rows):
        out = [field.add(x, field.mul(coef, y)) for x, y in zip(out, row)]
    return tuple(out)
