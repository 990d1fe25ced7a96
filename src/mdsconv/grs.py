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
from operator import getitem, mul, xor

from . import linalg
from .errors import CorruptionError, InsufficientDataError, UsageError, json_int, json_ints
from .field import FieldSpec, GF
from .linalg import FieldMatrix
from .record import Record, freeze, kept


class ExtGrsSpec(Record):
    """An [n, n-r] extended GRS code over `field`."""

    field: FieldSpec
    n: int
    r: int
    gamma: tuple[int, ...]
    w: tuple[int, ...]

    def __post_init__(self):
        freeze(self, gamma=1, w=1)
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
    """Symbols together with the code they belong to (None for plan-level outputs).

    The constructor keeps the symbols as a tuple.  Given a code, it checks
    them once: n of them (UsageError), each a canonical element of the
    code's field as `FieldSpec.check` has it.  It does not test the
    syndrome.  With no code nothing is checked.  Codewords the program
    derives are built unchecked: by `Codeword._trusted`, or, where `encode`
    and the stripe loops of `convert.run_conversion` build them in their
    own frame, by its two steps inline (`object.__new__`, then each field
    set by `object.__setattr__`).  Unpickling skips the check, as for
    every record.  So `run_conversion` checks no symbol of an input that
    is a `Codeword` of that input's initial code.
    """

    symbols: tuple[int, ...]
    code: ExtGrsSpec | None = None

    def __post_init__(self):
        symbols, code = tuple(self.symbols), self.code
        if code is not None:
            if len(symbols) != code.n:
                raise UsageError(f"codeword must have n = {code.n} symbols, got {len(symbols)}")
            code.field.check_all(symbols)
        object.__setattr__(self, "symbols", symbols)


@lru_cache(maxsize=1024)
def parity_check(spec: ExtGrsSpec) -> FieldMatrix:
    """The r x n extended Vandermonde-type parity check matrix."""
    return linalg._vandermonde(spec.field, spec.r, spec.gamma, spec.w)


@lru_cache(maxsize=1024)
def generator(spec: ExtGrsSpec) -> FieldMatrix:
    """The systematic k x n generator G = [A | I_k]: the code's parity part
    A (`parity_part`), each row followed by its row of the identity.  The
    encoder and the executor run on A alone and never build G."""
    a = parity_part(spec)
    k, r = a.rows, a.cols
    unit = (0,) * (k - 1) + (1,) + (0,) * (k - 1)  # row t of I_k is unit[k - 1 - t : 2k - 1 - t]
    rows = (a.entries[t * r : (t + 1) * r] + unit[k - 1 - t : 2 * k - 1 - t] for t in range(k))
    return FieldMatrix._trusted(a.field, k, spec.n, tuple(chain.from_iterable(rows)))


def parity_part(spec: ExtGrsSpec) -> FieldMatrix:
    """The k x r parity part A of the systematic generator G = [A | I_k],
    in closed form, derived on the first call and kept on the spec.

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
    and difference of logs per entry.  The identity part of G is never
    built: A alone is k r entries, where G is k n.
    """
    return kept(spec, "_parity", _parity_part, spec)


def _parity_part(spec: ExtGrsSpec) -> FieldMatrix:
    f = spec.field
    r, n = spec.r, spec.n
    points, w = spec.gamma[:r], spec.w
    if 1 < f.m <= 8:
        log, exp = f.row_tables()
        order = f.q - 1
        # d holds log(x - gamma_p) for every point x and each p < r, in rows
        # of r, and a zero row for the extension position.  The points are
        # distinct, so the one zero difference is a point's own, whose log,
        # 2 (q - 1), each log c_p takes back out of its row's sum.
        d = [log[x ^ y] for x in spec.gamma for y in points]
        d += [0] * r
        sums = [sum(d[i : i + r]) for i in range(0, len(d), r)]
        log_c = [2 * order - log[wp] - s for wp, s in zip(w, sums[:r])]
        totals = [log[wt] + s for wt, s in zip(w[r:], sums[r:])]
        entries = [exp[(total - e + c) % order]
                   for total, i in zip(totals, range(r * r, len(d), r)) for e, c in zip(d[i : i + r], log_c)]
        return FieldMatrix._trusted(f, n - r, r, tuple(entries))
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
    return FieldMatrix._trusted(f, n - r, r, tuple(chain.from_iterable(a_rows)))


def encode(spec: ExtGrsSpec, message: Sequence[int]) -> Codeword:
    """message . G, computed systematically: the r parity symbols
    message . A with A the code's parity part (`parity_part`), then the k
    message symbols.  UsageError for a message of the wrong length or with
    a symbol that is not canonical, checked in that order; each message
    symbol is checked, so the codeword, a derived value, is built
    unchecked.

    The code's encoder step (`linalg.systematic_encoder`) is compiled on
    first use, from the compiled form that A keeps, and kept on the spec
    next to k; the generator G itself is not built.  So a later call is the
    length check and the step for the field's form, run here in one frame:
    over a byte field one pass over the message that checks each symbol and
    XORs in its lane row of the first group, for up to eight parity
    symbols, and one reduce for each further group; above GF(256)
    `check_all`, the message as its bytes, low byte first, through every
    group, and the parity bytes back as symbols, each conversion one C
    call; over GF(p) `check_all` and one sum of packed ints, spilled to the
    r parity symbols.  The codeword is built inline, as `Codeword._trusted`
    builds it, so over byte fields a call of encode makes no other
    Python-level call, and over the other fields only `check_all`."""
    k, step = getattr(spec, "_encoder", None) or kept(spec, "_encoder", _encoder, spec)
    if len(message) != k:
        raise UsageError(f"message must have k = {k} symbols, got {len(message)}")
    field = spec.field
    q = field.q
    if field.p == 2:
        rows, lanes, more, pack, unpack = step
        if pack:
            field.check_all(message)
            data = pack(*message)
            parity = reduce(xor, map(getitem, rows, data), 0).to_bytes(lanes, "little")
            for group, width in more:
                parity += reduce(xor, map(getitem, group, data), 0).to_bytes(width, "little")
            parity = unpack(parity)
        else:
            # `FieldSpec.check_all`'s test, fused with the first group's lookups.
            acc = 0
            for a, row in zip(message, rows):
                if type(a) is not int or not 0 <= a < q:
                    field.check(a)
                acc ^= row[a]
            parity = acc.to_bytes(lanes, "little")
            for group, width in more:
                parity += reduce(xor, map(getitem, group, message), 0).to_bytes(width, "little")
    else:
        field.check_all(message)
        p, mask, shifts, rows = step
        acc = sum(map(mul, rows, message))
        parity = []
        for at in shifts:
            parity.append((acc >> at & mask) % p)
    codeword = _new(Codeword)
    _set(codeword, "symbols", (*parity, *message))
    _set(codeword, "code", spec)
    return codeword


# `Codeword._trusted`'s two steps, for a codeword built in its caller's frame.
_new, _set = object.__new__, object.__setattr__


def _encoder(spec: ExtGrsSpec) -> tuple:
    """(k, step) for `encode`: the step data of the code's systematic
    encoder, built on the compiled form of its parity part A."""
    return spec.k, linalg.systematic_encoder(parity_part(spec))


def is_codeword(spec: ExtGrsSpec, symbols: Sequence[int]) -> bool:
    """Whether symbols lie in the code; UsageError (from `matvec`) for a
    non-canonical symbol."""
    if len(symbols) != spec.n:
        return False
    return not any(linalg.matvec(parity_check(spec), symbols))


def recover_erasures(spec: ExtGrsSpec, known: Mapping[int, int]) -> Codeword:
    """The unique codeword agreeing with `known` (position -> symbol, >= k entries).

    Solves the parity-check system for the erased positions; raises
    CorruptionError when the known symbols extend to no codeword.  The
    known symbols are checked, and the solved ones are field elements, so
    the codeword is built unchecked (`_trusted`).
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
    return Codeword._trusted(tuple(symbols), spec)


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


def field_from_dict(doc: Mapping) -> FieldSpec:
    """GF(q) for the "q", "p" and "m" of a field or code document: a
    TypeError or KeyError unless each is an integer, and a UsageError unless
    they name one field."""
    q, p, m = (json_int(doc[key], key) for key in ("q", "p", "m"))
    # Compared with GF(q)'s own parameters, not as p**m == q: a document's
    # m is unbounded, and the power would take time growing with it.
    field = GF(q)
    if (field.p, field.m) != (p, m):
        raise UsageError(f"inconsistent field parameters q={q}, p={p}, m={m}")
    return field


def spec_from_dict(doc: Mapping) -> ExtGrsSpec:
    try:
        field = field_from_dict(doc)
        n, r = json_int(doc["n"], "n"), json_int(doc["r"], "r")
        gamma, w = json_ints(doc["gamma"], "gamma"), json_ints(doc["w"], "w")
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed code document: {exc}") from exc
    return ExtGrsSpec(field, n, r, gamma, w)
