"""Extended generalized Reed-Solomon codes.

A code is defined by evaluation points gamma (n-1 distinct elements)
and nonzero column multipliers w (n elements); its parity check is the
extended Vandermonde-type matrix, giving an [n, n-r] MDS code.  Such a
code restricted to a position set T that keeps the extension position n
is again of the same family, with multipliers in closed form: a dual
codeword supported on T is P*g with P = prod_{j not in T} (x - gamma_j),
so theta_j = w_j * P(gamma_j) / w_n and theta_n = 1 (GRS duality, see
Roth, "Introduction to Coding Theory", ch. 5).

Positions are 1-based throughout, matching codeword coordinates.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache, reduce
from itertools import chain

from . import linalg
from .errors import CorruptionError, InsufficientDataError, UsageError, json_int, json_ints
from .field import FieldSpec, GF
from .linalg import FieldMatrix
from .record import Record, kept


class ExtGrsSpec(Record):
    """An [n, n-r] extended GRS code over `field`."""

    field: FieldSpec
    n: int
    r: int
    gamma: tuple[int, ...]
    w: tuple[int, ...]

    def __post_init__(self):
        if not 0 < self.r < self.n:
            raise UsageError(f"need 0 < r < n, got r={self.r}, n={self.n}")
        if len(self.gamma) != self.n - 1:
            raise UsageError(f"gamma must have {self.n - 1} entries, got {len(self.gamma)}")
        if len(self.w) != self.n:
            raise UsageError(f"w must have {self.n} entries, got {len(self.w)}")
        self.field.check_all(self.gamma)
        if len(set(self.gamma)) != len(self.gamma):
            raise UsageError("gamma entries must be pairwise distinct")
        self.field.check_all(self.w)
        if 0 in self.w:
            raise UsageError("w entries must be nonzero")

    @property
    def k(self) -> int:
        return self.n - self.r


class Codeword(Record):
    """A codeword together with the code it belongs to (None for plan-level outputs)."""

    symbols: tuple[int, ...]
    code: ExtGrsSpec | None = None


@lru_cache(maxsize=1024)
def parity_check(spec: ExtGrsSpec) -> FieldMatrix:
    """The r x n extended Vandermonde-type parity check matrix."""
    return linalg._vandermonde(spec.field, spec.r, spec.n, spec.gamma, spec.w)


@lru_cache(maxsize=1024)
def generator(spec: ExtGrsSpec) -> FieldMatrix:
    """The systematic k x n generator G = [A | I_k], in closed form.

    The leading r columns of the parity check are an invertible scaled
    Vandermonde block (distinct points, nonzero multipliers), so G is the
    canonical kernel basis of the parity check, and A is its unique solution
    by Lagrange interpolation on gamma_1..gamma_r.  With L_p the Lagrange
    basis and D_p = prod_{l != p} (gamma_p - gamma_l):

        A[t][p] = -w_t L_p(gamma_t) / w_p      for each position r < t < n,
        A[n][p] = -w_n / (w_p D_p)             for the extension position,

    because gamma^e with e < r is its own interpolant, and the interpolant of
    x^(r-1) leads with sum_p gamma_p^(r-1) / D_p = 1.  Both rows are
    w_t c_p prod_{l != p} (gamma_t - gamma_l) (an empty product for t = n),
    with c_p = -1 / (w_p D_p): the product over all l, divided by
    (gamma_t - gamma_p), which is nonzero because the points are distinct.
    Over GF(2^m) with 1 < m <= 8, which has log/exp tables, that is one sum
    and difference of logs per entry.
    """
    f = spec.field
    r, k, n = spec.r, spec.k, spec.n
    points, w = spec.gamma[:r], spec.w
    if 1 < f.m <= 8:
        # Every difference below is nonzero: the points are distinct.
        log, exp = f.row_tables()
        order = f.q - 1
        log_c = [-log[w[p]] - sum(log[x ^ y] for y in points if y != x) for p, x in enumerate(points)]
        a_rows = []
        for t in range(r, n - 1):
            diffs = [log[spec.gamma[t] ^ y] for y in points]
            total = log[w[t]] + sum(diffs)
            a_rows.append([exp[(total - d + c) % order] for d, c in zip(diffs, log_c)])
        a_rows.append([exp[(log[w[-1]] + c) % order] for c in log_c])
    else:
        mul, sub, inv = f.mul, f.sub, f.inv

        def product(x: int) -> int:
            """prod_l (x - gamma_l), leaving out x's own point."""
            return reduce(mul, (sub(x, y) for y in points if y != x), 1)

        c = [f.neg(inv(mul(w[p], product(x)))) for p, x in enumerate(points)]
        a_rows = []
        for t in range(r, n - 1):
            x = spec.gamma[t]
            total = mul(w[t], product(x))
            a_rows.append([mul(mul(total, inv(sub(x, y))), cp) for y, cp in zip(points, c)])
        a_rows.append([mul(w[-1], cp) for cp in c])
    rows = (a + [0] * i + [1] + [0] * (k - 1 - i) for i, a in enumerate(a_rows))
    return FieldMatrix._trusted(f, k, n, tuple(chain.from_iterable(rows)))


def encode(spec: ExtGrsSpec, message: Sequence[int]) -> Codeword:
    """message . G, computed systematically: the r parity symbols
    message . A from the first r columns of the generator, then the k
    message symbols.  UsageError for a message of the wrong length or with
    a symbol that is not canonical.

    The code's encoder (`linalg.systematic_encoder`) is compiled on first
    use, from the compiled form of A that the generator keeps, and kept on
    the spec, so a later call is the length check and one checked pass over
    the message: over a byte field one lookup per symbol for up to eight
    parity symbols, over GF(p) one sum of packed ints, over GF(2^m) with
    m > 8 the reference product `linalg.vecmat` on A."""
    k, run = getattr(spec, "_encoder", None) or kept(spec, "_encoder", _encoder, spec)
    if len(message) != k:
        raise UsageError(f"message must have k = {k} symbols, got {len(message)}")
    return Codeword(run(message), spec)


def _encoder(spec: ExtGrsSpec) -> tuple:
    """(k, encoder) for `encode`, built on the generator's compiled parity form."""
    return spec.k, linalg.systematic_encoder(generator(spec), spec.r)


def is_codeword(spec: ExtGrsSpec, symbols: Sequence[int]) -> bool:
    """Whether symbols lie in the code; UsageError (from `matvec`) for a
    non-canonical symbol."""
    if len(symbols) != spec.n:
        return False
    return not any(linalg.matvec(parity_check(spec), symbols))


def recover_erasures(spec: ExtGrsSpec, known: Mapping[int, int]) -> Codeword:
    """The unique codeword agreeing with `known` (position -> symbol, >= k entries).

    Solves the parity-check system for the erased positions; raises
    CorruptionError when the known symbols extend to no codeword.
    """
    for pos in known:
        if not 1 <= pos <= spec.n:
            raise UsageError(f"position {pos} out of range 1..{spec.n}")
    for val in known.values():
        spec.field.check(val)
    if len(known) < spec.k:
        raise InsufficientDataError(
            f"{len(known)} known symbols cannot determine a codeword of dimension {spec.k}"
        )
    f = spec.field
    h = parity_check(spec)
    erased = [p for p in range(1, spec.n + 1) if p not in known]
    rhs = [0] * spec.r
    for pos, val in known.items():
        if val == 0:
            continue
        col = h.col(pos - 1)
        rhs = [f.sub(acc, f.mul(val, c)) for acc, c in zip(rhs, col)]
    x = linalg.solve_linear(linalg.submatrix_cols(h, erased), rhs)
    if x is None:
        raise CorruptionError("known symbols are not a restriction of any codeword")
    symbols = [0] * spec.n
    for pos, val in known.items():
        symbols[pos - 1] = val
    for idx, pos in enumerate(erased):
        symbols[pos - 1] = x[idx]
    return Codeword(tuple(symbols), spec)


def restriction_support(spec: ExtGrsSpec, positions: Iterable[int]) -> list[int]:
    """`positions` ascending, checked to lie in 1..n, keep n and exceed k in number."""
    t = sorted(set(positions))
    for p in t:
        if not 1 <= p <= spec.n:
            raise UsageError(f"position {p} out of range 1..{spec.n}")
    if spec.n not in t:
        raise UsageError(f"restriction must keep the extension position {spec.n}")
    if len(t) <= spec.k:
        raise UsageError(f"restriction must keep more than k = {spec.k} positions")
    return t


def puncture(spec: ExtGrsSpec, positions: Iterable[int]) -> ExtGrsSpec:
    """The code restricted to `positions` T, which must include position n.

    The result has length |T|, redundancy r - (n - |T|), the restricted
    evaluation points, and multipliers in closed form: with
    P = prod_{j not in T} (x - gamma_j), the restricted multipliers are
    theta_j = w_j * P(gamma_j) / w_n for j < n and theta_n = 1.  Cost is
    O(|T| * (n - |T|)) multiplications and one inversion.  The points are
    a subset of spec's, and each theta_j is a product of nonzero elements,
    so the result is built with `ExtGrsSpec._trusted`, without the checks.
    """
    t = restriction_support(spec, positions)
    if len(t) == spec.n and spec.w[-1] == 1:
        return spec  # the whole code, its multipliers already scaled to theta_n = 1
    f = spec.field
    mul, sub = f.mul, f.sub
    kept = set(t)
    dropped = [spec.gamma[p - 1] for p in range(1, spec.n) if p not in kept]
    scale = f.inv(spec.w[-1])
    gamma_t: list[int] = []
    theta: list[int] = []
    for p in t[:-1]:
        x = spec.gamma[p - 1]
        val = mul(scale, spec.w[p - 1])
        for y in dropped:
            val = mul(val, sub(x, y))
        gamma_t.append(x)
        theta.append(val)
    theta.append(1)
    return ExtGrsSpec._trusted(f, len(t), spec.r - len(dropped), tuple(gamma_t), tuple(theta))


# -- serialization ----------------------------------------------------------


def spec_to_dict(spec: ExtGrsSpec) -> dict:
    return {
        "q": spec.field.q,
        "p": spec.field.p,
        "m": spec.field.m,
        "n": spec.n,
        "r": spec.r,
        "gamma": list(spec.gamma),
        "w": list(spec.w),
    }


def spec_from_dict(doc: Mapping) -> ExtGrsSpec:
    try:
        q, p, m, n, r = (json_int(doc[key], key) for key in ("q", "p", "m", "n", "r"))
        gamma, w = json_ints(doc["gamma"], "gamma"), json_ints(doc["w"], "w")
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed code document: {exc}") from exc
    # Compared with GF(q)'s own parameters, not as p**m == q: a document's
    # m is unbounded, and the power would take time growing with it.
    field = GF(q)
    if (field.p, field.m) != (p, m):
        raise UsageError(f"inconsistent field parameters q={q}, p={p}, m={m}")
    return ExtGrsSpec(field, n, r, gamma, w)
