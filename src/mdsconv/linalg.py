"""Dense matrices over a finite field.

Entries are canonical integer encodings stored row-major; the owning
field travels with the matrix.  Reduction follows one pinned echelon
convention (leftmost nonzero column, first nonzero row, pivot scaled
to 1, eliminate above and below) so ranks, kernels and solutions are
deterministic across runs.

Column-selection arguments are 1-based, matching codeword positions.

Entries are checked where they enter from outside: the `FieldMatrix`
constructor, `from_rows` and `matrix_from_text` refuse any entry that is
not a canonical element of the field (UsageError), `matrix_from_text` and
`matrix_from_lines` any text other than the one `matrix_to_text` writes,
and `vandermonde_ext` checks its arguments.  Matrices the program computes
from canonical operands are built with `FieldMatrix._trusted` (`record`).

Byte fields and GF(p) have one compiled form each for their hot products
(`_compiled`), built by exactly two callers: `systematic_encoder`, on the
parity part A of a systematic generator g = [A | I_k], and `fold_step`,
on M = [A | C] for the executor's per-input step.  Over a byte field
(characteristic 2, q <= 256) lane rows, one lookup per input symbol for
up to eight outputs at once; over GF(p) one packed int per input symbol,
one bit field per output, so a product is one sum.  A's form is kept on
g, the one form a matrix keeps, so the encoder and the fold share A's
full lane groups.  Both run on the message symbols alone: `grs.encode`
runs `systematic_encoder`, compiled once per code, and the bound (fold,
spill) pair that `fold_step` returns checks a codeword against its
systematic generator and adds its share of the written symbols in one
pass.  `matvec` and `vecmat` are reference products over `FieldSpec.mul`
and `add`; GF(2^m) with m > 8 has no compiled form, so its encoder and
fold run `vecmat` on A and M themselves.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Iterable, Sequence
from functools import partial, reduce
from itertools import chain, islice
from operator import getitem, mul, xor

from .errors import SingularMatrixError, UsageError, canonical_decimals
from .field import GF, FieldSpec
from .record import Record, kept


class FieldMatrix(Record):
    """Immutable rows x cols matrix over `field`.

    The constructor checks the shape and every entry (UsageError for an
    entry that is not a canonical element of `field`).
    """

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise UsageError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise UsageError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        self.field.check_all(self.entries)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


def from_rows(field: FieldSpec, rows: Sequence[Sequence[int]], cols: int | None = None) -> FieldMatrix:
    """Build a matrix from an iterable of rows; `cols` disambiguates 0-row matrices."""
    rows = [tuple(r) for r in rows]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise UsageError("ragged rows")
        if cols is not None and cols != width:
            raise UsageError(f"rows have {width} columns, expected {cols}")
        cols = width
    elif cols is None:
        raise UsageError("cols required for a matrix with no rows")
    return FieldMatrix(field, len(rows), cols, tuple(chain.from_iterable(rows)))


def identity(field: FieldSpec, n: int) -> FieldMatrix:
    return FieldMatrix(field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def zeros(field: FieldSpec, rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix(field, rows, cols, (0,) * (rows * cols))


def vandermonde_ext(
    field: FieldSpec,
    r: int,
    n: int,
    gamma: Sequence[int],
    w: Sequence[int],
) -> FieldMatrix:
    """Extended Vandermonde-type r x n matrix.

    Column j < n is w_j * (1, gamma_j, ..., gamma_j^(r-1))^T; the last
    column is (0, ..., 0, w_n)^T.  Every argument is checked; `grs` builds
    the parity checks of codes it has already checked with `_vandermonde`.
    """
    if not 0 < r < n:
        raise UsageError(f"need 0 < r < n, got r={r}, n={n}")
    if len(gamma) != n - 1:
        raise UsageError(f"gamma must have n-1 = {n - 1} entries, got {len(gamma)}")
    if len(w) != n:
        raise UsageError(f"w must have n = {n} entries, got {len(w)}")
    field.check_all(gamma)
    field.check_all(w)
    if 0 in w:
        raise UsageError("column multipliers w must be nonzero")
    return _vandermonde(field, r, n, gamma, w)


def _vandermonde(field: FieldSpec, r: int, n: int, gamma: Sequence[int], w: Sequence[int]) -> FieldMatrix:
    """`vandermonde_ext` of arguments already checked."""
    # Row ell + 1 is row ell times gamma: on the log/exp tables over a field
    # that has them (`FieldSpec.row_tables`), else by `FieldSpec.mul`.
    tables = 1 < field.m <= 8
    if tables:
        log, exp = field.row_tables()
        log_gamma = [log[x] for x in gamma]
    row = list(w[: n - 1])
    out = []
    for ell in range(r):
        out.append(row + [w[n - 1] if ell == r - 1 else 0])
        if ell < r - 1:
            if tables:
                row = [exp[log[x] + lg] for x, lg in zip(row, log_gamma)]
            else:
                row = list(map(field.mul, row, gamma))
    return FieldMatrix._trusted(field, r, n, tuple(chain.from_iterable(out)))


# -- reduction and derived operations ------------------------------------


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its 0-based pivot columns.

    Over a field with log/exp tables (GF(2^m), 1 < m <= 8) the scaled
    pivot row is turned into logs once, and each elimination is
    x ^ exp[log c + log y]; over GF(p) and above GF(256) it is
    x - c*y by `FieldSpec.sub` and `mul`.
    """
    f = m.field
    tables = 1 < f.m <= 8
    if tables:
        log, exp = f.row_tables()
    inv, mul, sub = f.inv, f.mul, f.sub
    a = m.to_lists()
    pivots: list[int] = []
    pr = 0
    for c in range(m.cols):
        pivot = None
        for i in range(pr, m.rows):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[pr], a[pivot] = a[pivot], a[pr]
        scale = inv(a[pr][c])
        if tables:
            if scale != 1:
                ls = log[scale]
                a[pr] = [exp[ls + log[x]] for x in a[pr]]
            lead = [log[y] for y in a[pr]]
            for i in range(m.rows):
                coef = a[i][c]
                if i != pr and coef != 0:
                    lc = log[coef]
                    a[i] = [x ^ exp[lc + y] for x, y in zip(a[i], lead)]
        else:
            if scale != 1:
                a[pr] = [mul(scale, x) for x in a[pr]]
            lead = a[pr]
            for i in range(m.rows):
                coef = a[i][c]
                if i != pr and coef != 0:
                    a[i] = [sub(x, mul(coef, y)) for x, y in zip(a[i], lead)]
        pivots.append(c)
        pr += 1
        if pr == m.rows:
            break
    return FieldMatrix._trusted(f, m.rows, m.cols, tuple(chain.from_iterable(a))), tuple(pivots)


def rank(m: FieldMatrix) -> int:
    return len(rref(m)[1])


def transpose(m: FieldMatrix) -> FieldMatrix:
    return FieldMatrix(
        m.field,
        m.cols,
        m.rows,
        tuple(m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows)),
    )


def matmul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """A . B, one `vecmat` per row of A."""
    if a.field != b.field:
        raise UsageError("matrix product across different fields")
    if a.cols != b.rows:
        raise UsageError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return from_rows(a.field, [vecmat(a.row(i), b) for i in range(a.rows)], cols=b.cols)


def matvec(m: FieldMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """M . v^T as a length-rows tuple; UsageError unless v is canonical.  A
    reference product over `FieldSpec.mul` and `add`, which keeps nothing."""
    if len(v) != m.cols:
        raise UsageError(f"vector length {len(v)} does not match {m.cols} columns")
    m.field.check_all(v)
    return tuple(_dot(m.field, m.row(i), v) for i in range(m.rows))


def vecmat(v: Sequence[int], m: FieldMatrix) -> tuple[int, ...]:
    """v . M as a length-cols tuple; UsageError unless v is canonical.  A
    reference product, as `matvec`."""
    if len(v) != m.rows:
        raise UsageError(f"vector length {len(v)} does not match {m.rows} rows")
    m.field.check_all(v)
    return tuple(_dot(m.field, v, m.entries[j :: m.cols]) for j in range(m.cols))


def _dot(field: FieldSpec, a: Sequence[int], b: Sequence[int]) -> int:
    return reduce(field.add, map(field.mul, a, b), 0)


# -- compiled forms: the encoder and the fold -----------------------------


def systematic_encoder(g: FieldMatrix, r: int) -> Callable:
    """message -> message . g as a tuple, for g = [A | I_k], a systematic
    generator with r parity columns: the r parity symbols message . A, then
    the message itself.  The message must have k = g.rows symbols (the
    caller checks its length); each is checked as `FieldSpec.check` does
    (UsageError, naming the first one that is not canonical).

    It runs on A's compiled form, kept on g, whose full lane groups
    `fold_step` shares.  Over a byte field one pass over the message checks
    each symbol and XORs in its lane row of the first group
    (`_lane_encode`), and each further group is one reduce; over GF(p) one
    check and one sum of packed ints (`_mod_encode`); over GF(2^m) with
    m > 8, which has no compiled form, `vecmat` on A (`_plain_encode`).  A
    partial of a module function, so whatever keeps it stays picklable.
    """
    f = g.field
    form = _compiled(f, [g.entries[j :: g.cols] for j in range(r)], g)
    if _is_byte_field(f):
        (rows, lanes), *more = form
        return partial(_lane_encode, f, rows, lanes, tuple(more))
    if f.m == 1:
        return partial(_mod_encode, f, _mod_lane_bits(f.p), r, form)
    return partial(_plain_encode, form)


def fold_step(g: FieldMatrix, r: int, s: FieldMatrix) -> tuple[Callable, Callable]:
    """The executor's check-and-share step for g = [A | I_k], a systematic
    generator with r parity columns, and S, (r + k) x w, as (fold, spill).

    fold(c, acc) takes a vector c of length r + k and an accumulator.  It
    checks c as `FieldSpec.check` does (UsageError), and returns None
    unless c[:r] = c[r:] . A, that is unless c is a codeword; otherwise it
    returns acc + c . S.  0 is the empty accumulator, and spill(acc, w)
    gives an accumulator's w symbols.

    A codeword is c = c[r:] . g, so c . S = c[r:] . C with C = g . S, and
    over every field the fold runs the compiled form of M = [A | C] on the
    message symbols alone.  Over a byte field (`_lane_fold`) one lookup per
    message symbol for all r + w lanes, groups of up to LANES, each after
    the first with its shift: A's full groups are the ones
    `systematic_encoder` runs on, and its other columns share a group with
    the first columns of C.  Over GF(p) (`_mod_fold`) one sum of products
    of message symbols and packed rows of M.  Over GF(2^m) with m > 8
    (`_plain_fold`) `vecmat` on M, the accumulator a list of w symbols,
    so the spill is `islice`.  All are partials of module functions, as in
    `systematic_encoder`.
    """
    f = g.field
    columns = [g.entries[j :: g.cols] for j in range(r)] + _systematic_product(g, r, s)
    if _is_byte_field(f):
        full = r // LANES
        shared = _compiled(f, columns[:r], g)[:full] if full else ()
        (first, _), *rest = (*shared, *_compiled(f, columns[LANES * full :]))
        more = tuple((8 * LANES * at, rows) for at, (rows, _) in enumerate(rest, 1))
        return partial(_lane_fold, f, (r, 8 * r, (1 << 8 * r) - 1, first, more)), _lane_spill
    form = _compiled(f, columns)
    if f.m == 1:
        bits = _mod_lane_bits(f.p)
        step = r, tuple(range(0, bits * r, bits)), (1 << bits) - 1, bits * r, form
        return partial(_mod_fold, f, step), partial(_mod_spill, f.p, bits)
    return partial(_plain_fold, r, form), islice


def _compiled(field: FieldSpec, columns: Sequence[Sequence[int]], generator: FieldMatrix | None = None):
    """The compiled form of v . [columns] over `field`, v indexed as the
    columns' entries: over a byte field lane rows (`_lane_rows`), over GF(p)
    one packed int per input index (`_mod_packed`).  GF(2^m) with m > 8 has
    no compiled form: it is the matrix of the columns itself, for `vecmat`.

    Given the generator whose parity part A the columns are, the form is
    kept on it (`record.kept`), the one form a FieldMatrix keeps.
    """
    if generator is not None:
        return kept(generator, "_parity_form", _compiled, field, columns)
    if _is_byte_field(field):
        return _lane_rows(field, columns)
    if field.m == 1:
        return _mod_packed(_mod_lane_bits(field.p), columns)
    entries = tuple(chain.from_iterable(zip(*columns)))
    return FieldMatrix._trusted(field, len(columns[0]), len(columns), entries)


def _systematic_product(g: FieldMatrix, r: int, s: FieldMatrix) -> list[tuple[int, ...]]:
    """The columns of g . S for g = [A | I_k]: row t of g . S is row r + t
    of S plus A[t, p] times row p of S for each nonzero row p < r.  For
    k = 0 these are S's cols empty columns."""
    f = g.field
    add, mul = (xor if f.p == 2 else f.add), f.mul
    rows = [s.row(r + t) for t in range(g.rows)]
    for p in range(r):
        row = s.row(p)
        if any(row):
            for t, a in enumerate(g.entries[p :: g.cols]):
                rows[t] = [add(x, mul(a, y)) for x, y in zip(rows[t], row)]
    return list(zip(*rows)) or [()] * s.cols


# -- lane rows: the compiled form of byte fields ------------------------------
#
# Over a byte field (characteristic 2, q <= 256) every product fits a byte,
# so the products of one symbol with up to LANES coefficients pack into one
# int, byte l holding lane l.  A lane row of a set of columns is an array
# indexed by symbol: entry v packs (coefficient_l . v) for the lanes l of a
# group of up to LANES columns.  Then v . M for all lanes of a group is the
# XOR of one lookup per symbol: a SWAR form of the split-table region
# multiply (Plank, Greenan and Miller, FAST 2013).

LANES = 8  # bytes of an array("Q") entry


def _is_byte_field(field: FieldSpec) -> bool:
    return field.p == 2 and field.q <= 256


def _lane_rows(field: FieldSpec, lines: Sequence[Sequence[int]]) -> tuple:
    """Lines as ((rows, lanes), ...), one pair per group of up to LANES
    lines, with one lane row per input index.  This runs in C: the field's
    product rows of each lane's coefficients, joined in input order, fill
    that lane of a buffer by one strided slice assignment, and the buffer,
    read as one array, is cut into the rows."""
    prod = field.product_rows().__getitem__
    q = field.q
    groups = []
    for start in range(0, len(lines), LANES):
        group = lines[start : start + LANES]
        size = len(group[0])
        buf = bytearray(LANES * q * size)
        for lane, line in enumerate(group):
            buf[lane::LANES] = b"".join(map(prod, line))
        table = array("Q", buf)
        if sys.byteorder == "big":
            table.byteswap()
        groups.append((tuple(table[i * q : (i + 1) * q] for i in range(size)), len(group)))
    return tuple(groups)


def _lane_encode(field: FieldSpec, rows: Sequence[array], lanes: int, more: tuple,
                 message: Sequence[int]) -> tuple[int, ...]:
    # `FieldSpec.check_all`'s test, fused with the first group's lookups.
    q = field.q
    acc = 0
    for a, row in zip(message, rows):
        if type(a) is not int or not 0 <= a < q:
            field.check(a)
        acc ^= row[a]
    parity = acc.to_bytes(lanes, "little")
    for group, width in more:
        parity += reduce(xor, map(getitem, group, message), 0).to_bytes(width, "little")
    return (*parity, *message)


def _lane_fold(field: FieldSpec, step: tuple, c: Sequence[int], acc: int) -> int | None:
    # The lanes of all groups read as one int, lane l in byte l.  Its
    # starting value holds the parity symbols in lanes 0..r-1 and acc above
    # them, and each group's products XOR in at its shift, so the syndrome
    # is left in the low r lanes and acc plus the shares above.  The check
    # is `FieldSpec.check_all`'s, inlined.
    r, shift, mask, first, more = step
    q = field.q
    for a in c:
        if type(a) is not int or not 0 <= a < q:
            field.check(a)
    message = c[r:]
    out = reduce(xor, map(getitem, first, message), int.from_bytes(c[:r], "little") | acc << shift)
    for at, rows in more:
        out ^= reduce(xor, map(getitem, rows, message), 0) << at
    if out & mask:
        return None
    return out >> shift


def _lane_spill(acc: int, w: int) -> bytes:
    return acc.to_bytes(w, "little")


# GF(2^m) with m > 8 runs the reference product on the matrix itself.


def _plain_encode(a: FieldMatrix, message: Sequence[int]) -> tuple[int, ...]:
    return (*vecmat(message, a), *message)


def _plain_fold(r: int, m: FieldMatrix, c: Sequence[int], acc: list[int] | int) -> list[int] | None:
    m.field.check_all(c)
    out = vecmat(c[r:], m)
    if out[:r] != tuple(c[:r]):
        return None
    return list(map(xor, acc, out[r:])) if acc else list(out[r:])


# Over GF(p) the lanes of a packed int are bit fields wide enough for a sum
# of 2^32 products of canonical entries, so products and a stripe's shares
# add as plain ints, with no carry between lanes, and each lane is reduced
# mod p once.


def _mod_lane_bits(p: int) -> int:
    return ((p - 1) ** 2).bit_length() + 32


def _mod_packed(bits: int, lines: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """One int per input index t, holding lines[j][t] at bit bits * j."""
    return tuple(sum(e << bits * j for j, e in enumerate(row)) for row in zip(*lines))


def _mod_encode(field: FieldSpec, bits: int, r: int, rows: tuple,
                message: Sequence[int]) -> tuple[int, ...]:
    field.check_all(message)
    return (*_mod_spill(field.p, bits, sum(map(mul, rows, message)), r), *message)


def _mod_fold(field: FieldSpec, step: tuple, c: Sequence[int], acc: int) -> int | None:
    r, shifts, mask, shift, rows = step
    field.check_all(c)
    p = field.p
    out = sum(map(mul, rows, c[r:]))
    for at, a in zip(shifts, c):
        if (out >> at & mask) % p != a:
            return None
    return acc + (out >> shift)


def _mod_spill(p: int, bits: int, acc: int, w: int) -> list[int]:
    mask = (1 << bits) - 1
    return [(acc >> at & mask) % p for at in range(0, bits * w, bits)]


def submatrix_cols(m: FieldMatrix, positions: Iterable[int]) -> FieldMatrix:
    """Columns selected by 1-based positions, keeping their relative order."""
    pos = sorted(set(positions))
    for p in pos:
        if not 1 <= p <= m.cols:
            raise UsageError(f"column position {p} out of range 1..{m.cols}")
    idx = [p - 1 for p in pos]
    out = tuple(m.entries[i * m.cols + j] for i in range(m.rows) for j in idx)
    return FieldMatrix(m.field, m.rows, len(idx), out)


def invert(m: FieldMatrix) -> FieldMatrix:
    """m^-1, read off one `rref` of [m | I]; SingularMatrixError if m is singular."""
    if m.rows != m.cols:
        raise UsageError(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    unit = (0,) * (n - 1) + (1,) + (0,) * (n - 1)  # row i of I is unit[n - 1 - i : 2n - 1 - i]
    aug = chain.from_iterable(m.row(i) + unit[n - 1 - i : 2 * n - 1 - i] for i in range(n))
    red, pivots = rref(FieldMatrix._trusted(m.field, n, 2 * n, tuple(aug)))
    if pivots[:n] != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    inverse = chain.from_iterable(red.row(i)[n:] for i in range(n))
    return FieldMatrix._trusted(m.field, n, n, tuple(inverse))


def right_kernel_basis(m: FieldMatrix) -> FieldMatrix:
    """Rows form a deterministic basis of {x : M . x^T = 0}: from the `rref`
    of M, one row per free column fc, 1 at fc, minus column fc of the
    reduced matrix at the pivots."""
    red, pivots = rref(m)
    f = red.field
    free = [c for c in range(red.cols) if c not in pivots]
    rows = []
    for fc in free:
        v = [0] * red.cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(red.at(i, fc))
        rows.append(v)
    return FieldMatrix._trusted(f, len(rows), red.cols, tuple(chain.from_iterable(rows)))


def solve_linear(a: FieldMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One solution x of A . x^T = b^T (free variables 0), or None if inconsistent."""
    if len(b) != a.rows:
        raise UsageError(f"right-hand side length {len(b)} does not match {a.rows} rows")
    a.field.check_all(b)
    aug = from_rows(a.field, [a.row(i) + (b[i],) for i in range(a.rows)], cols=a.cols + 1)
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [0] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = red.at(i, a.cols)
    return tuple(x)


# -- text dump ------------------------------------------------------------


def matrix_to_text(m: FieldMatrix) -> str:
    """One row per line, space-separated encodings; header 'rows cols q'."""
    lines = [f"{m.rows} {m.cols} {m.field.q}"]
    for i in range(m.rows):
        lines.append(" ".join(map(str, m.row(i))))
    return "\n".join(lines)


def matrix_from_text(text: str) -> FieldMatrix:
    """The matrix `matrix_to_text` writes as `text`; UsageError for any other text."""
    return matrix_from_lines(text.split("\n"))


def matrix_from_lines(lines: Sequence[str]) -> FieldMatrix:
    """The matrix whose `matrix_to_text` lines are `lines`; UsageError for
    any other header or row, so a dump round-trips byte for byte."""
    if not lines:
        raise UsageError("empty matrix dump")
    try:
        rows, cols, q = canonical_decimals(lines[0])
    except ValueError as exc:
        raise UsageError(f"bad matrix header {lines[0]!r}") from exc
    field = GF(q)
    if len(lines) - 1 != rows:
        raise UsageError(f"expected {rows} rows, got {len(lines) - 1}")
    out = []
    for ln in lines[1:]:
        try:
            row = canonical_decimals(ln)
        except ValueError as exc:
            raise UsageError(f"bad matrix row {ln!r}") from exc
        if len(row) != cols:
            raise UsageError(f"expected {cols} entries per row, got {len(row)}")
        out.append(row)
    return from_rows(field, out, cols=cols)
