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
k x r parity part A of a systematic generator g = [A | I_k], and
`fold_step`, on M = [A | C] for the executor's per-input step.  Neither
builds g.  Over a byte field (characteristic 2, q <= 256) lane rows, one
lookup per input symbol for up to eight outputs at once; over GF(p) one
packed int per input symbol, one bit field per output, so a product is
one sum.  A's form is kept on A, the one form a matrix keeps, so the
encoder and the fold share A's full lane groups.

Both return data, not a function, for a caller that runs them in its own
frame.  `systematic_encoder` gives the encoder's step, which
`grs.encode` keeps on the code (compiled once per code) and runs on the
message symbols, checking each, as messages come from outside.
`fold_step` gives the step that checks a codeword against its systematic
generator and gives its share of the written symbols in one pass.  Over
a byte field it is lane rows for one lookup pass over the whole
codeword, its parity symbols through the field's unit lane rows
(`_unit_rows`, lists kept on the field), so the syndrome lands in the
low lanes; over GF(p) packed rows of M for one sum of products on the
message symbols, compared with the parity symbols; over GF(2^m) with
m > 8, which has no compiled form, M's columns for `FieldSpec.mul`
products.
The stripe loops of `convert.run_conversion`, one per form, run it
inline for every input of a stripe in one frame, after checking that
input's symbols.  `matvec` and `vecmat` are reference products over
`FieldSpec.mul` and `add`; the encoder of GF(2^m) with m > 8 runs
`vecmat` on A.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import chain

from .errors import SingularMatrixError, UsageError, canonical_decimals
from .field import GF, FieldSpec
from .record import Record, freeze, kept


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
        freeze(self, entries=1)
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
    return _vandermonde(field, r, gamma, w)


def _vandermonde(field: FieldSpec, r: int, gamma: Sequence[int], w: Sequence[int]) -> FieldMatrix:
    """`vandermonde_ext` of arguments already checked, or any run of its
    columns: one column per multiplier in w, the first len(gamma) at the
    points gamma and, when w has one entry more, the extension column last.
    So the columns a..b-1 of a code's parity check are `_vandermonde` of
    its gamma[a:b] and w[a:b], built directly."""
    # Row ell + 1 is row ell times gamma: on the log/exp tables over a field
    # that has them (`FieldSpec.row_tables`), else by `FieldSpec.mul`.
    tables = 1 < field.m <= 8
    if tables:
        log, exp = field.row_tables()
        log_gamma = [log[x] for x in gamma]
    row = w[: len(gamma)]
    tail = (0,) * (len(w) - len(gamma))
    entries: list[int] = []
    for ell in range(r - 1):
        entries += row
        entries += tail
        if tables:
            row = [exp[log[x] + lg] for x, lg in zip(row, log_gamma)]
        else:
            row = list(map(field.mul, row, gamma))
    entries += row
    entries += w[len(gamma) :]  # the extension column's w_n, in the last row only
    return FieldMatrix._trusted(field, r, len(w), tuple(entries))


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


def systematic_encoder(a: FieldMatrix) -> tuple:
    """The step data of the encoder message -> message . [A | I_k] for A,
    the k x r parity part of a systematic generator: the r parity symbols
    message . A, then the message itself.  `grs.encode` keeps them on the
    code and runs them in its own frame, after it checks the message's
    length; it checks each message symbol as `FieldSpec.check` does.

    They are A's compiled form, kept on A, whose full lane groups
    `fold_step` shares:

    - over a byte field, (first, lanes, more): the first lane group's k
      rows and its width, for one pass over the message that checks each
      symbol and XORs in its row, and (rows, width) for each further
      group, one reduce each;
    - over GF(p), (p, mask, shifts, rows): one packed int of A per message
      symbol, so message . A is one sum, and the bit offset of each of its
      r lanes, each reduced mod p;
    - over GF(2^m) with m > 8, which has no compiled form, A itself, for
      `vecmat`.
    """
    f, r = a.field, a.cols
    form = _compiled(f, [a.entries[j::r] for j in range(r)], a)
    if _is_byte_field(f):
        (rows, lanes), *more = form
        return rows, lanes, tuple(more)
    if f.m == 1:
        bits = _mod_lane_bits(f.p)
        return f.p, (1 << bits) - 1, range(0, bits * r, bits), form
    return form


def fold_step(a: FieldMatrix, c: Sequence[Sequence[int]]) -> tuple:
    """The executor's check-and-share step data for A, the k x r parity
    part of a systematic generator g = [A | I_k], and C = g . S, given as
    its w columns of k entries each, for S the (r + k) x w share matrix.

    A stripe loop of `convert` runs the step on a vector c of r + k
    canonical symbols, which it has checked: c is a codeword exactly when
    c[:r] = c[r:] . A, and then its share of the written symbols is c . S.
    A codeword is c = c[r:] . g, so c . S = c[r:] . C, and over every field
    the step is a form of M = [A | C]:

    - over a byte field, (8 r, the mask of the r low lanes, first, more):
      lane rows that read the whole codeword, one lookup per symbol for
      each group of up to LANES of the r + w lanes, each group after the
      first at its shift.  Group g reads c from min(LANES g, r): a parity
      symbol through the unit row of its lane if the group holds that lane,
      else through the zero row (`_unit_rows`), then each message symbol
      through M's row.  So the syndrome c[:r] - c[r:] . A lands in the low
      r lanes with no slice of c, and a share-only group reads the message
      symbols alone.  `first` is the first group's rows; `more` holds
      (start, shift, rows) for each further group.  After their unit rows,
      A's full groups are the very rows `systematic_encoder` runs on, and
      A's other columns share a group with the first columns of C;
    - over GF(p), (r, the bit offsets of the r parity lanes, the offset of
      the first share lane, rows): one packed int of M per message
      symbol, so c[r:] . M is one sum of products;
    - over GF(2^m) with m > 8, (r, columns): M's r + w columns, each a
      tuple of k entries, for `FieldSpec.mul` products.
    """
    f, r = a.field, a.cols
    columns = [a.entries[j::r] for j in range(r)] + list(c)
    if _is_byte_field(f):
        full = r // LANES
        shared = _compiled(f, columns[:r], a)[:full] if full else ()
        units = kept(f, "_unit_rows", _unit_rows, f.q)
        groups = []
        for at, (rows, _) in enumerate((*shared, *_compiled(f, columns[LANES * full :]))):
            # From its start, a group reads the unit rows of its own parity
            # lanes, then a zero row per parity symbol of a later group.
            start = min(LANES * at, r)
            lead = units[: min(r - start, LANES)] + units[LANES:] * (r - start - LANES)
            groups.append((start, 8 * LANES * at, lead + rows))
        (_, _, first), *more = groups
        return 8 * r, (1 << 8 * r) - 1, first, tuple(more)
    if f.m == 1:
        bits = _mod_lane_bits(f.p)
        return r, tuple(range(0, bits * r, bits)), bits * r, _compiled(f, columns)
    return r, tuple(columns)


def _compiled(field: FieldSpec, columns: Sequence[Sequence[int]], parity: FieldMatrix | None = None):
    """The compiled form of v . [columns] over `field`, v indexed as the
    columns' entries: over a byte field lane rows (`_lane_rows`), over GF(p)
    one packed int per input index (`_mod_packed`).  GF(2^m) with m > 8 has
    no compiled form: it is the matrix of the columns itself, for `vecmat`.

    Given the parity part A whose columns they are, the form is kept on it
    (`record.kept`), the one form a FieldMatrix keeps.
    """
    if parity is not None:
        return kept(parity, "_parity_form", _compiled, field, columns)
    if _is_byte_field(field):
        return _lane_rows(field, columns)
    if field.m == 1:
        return _mod_packed(_mod_lane_bits(field.p), columns)
    entries = tuple(chain.from_iterable(zip(*columns)))
    return FieldMatrix._trusted(field, len(columns[0]), len(columns), entries)


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


def _unit_rows(q: int) -> tuple[list[int], ...]:
    """The lane rows of the unit columns over a byte field of q elements:
    for each lane l < LANES the row whose entry v is v in lane l, then the
    zero row.  `fold_step` keeps them on the field (`record.kept`), as its
    product rows are.  One strided slice assignment of the field's
    elements per lane fills a buffer read as one array, as in `_lane_rows`.
    The rows are lists, cut from the array's `tolist`, so each of an
    input's r parity lookups returns an int that exists, where a lookup
    into an array makes one."""
    buf = bytearray(LANES * q * (LANES + 1))
    for lane in range(LANES):
        buf[LANES * q * lane + lane : LANES * q * (lane + 1) : LANES] = bytes(range(q))
    table = array("Q", buf)
    if sys.byteorder == "big":
        table.byteswap()
    values = table.tolist()
    return tuple(values[i * q : (i + 1) * q] for i in range(LANES + 1))


# Over GF(p) the lanes of a packed int are bit fields wide enough for a sum
# of 2^32 products of canonical entries, so products and a stripe's shares
# add as plain ints, with no carry between lanes, and each lane is reduced
# mod p once.


def _mod_lane_bits(p: int) -> int:
    return ((p - 1) ** 2).bit_length() + 32


def _mod_packed(bits: int, lines: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """One int per input index t, holding lines[j][t] at bit bits * j."""
    return tuple(sum(e << bits * j for j, e in enumerate(row)) for row in zip(*lines))


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
    """One row per line, space-separated encodings; header 'rows cols q'.
    One %-format of a row template repeated once per row."""
    row = "\n" + " ".join(["%d"] * m.cols)
    return (f"{m.rows} {m.cols} {m.field.q}" + row * m.rows) % m.entries


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
