"""Dense matrices over a finite field.

Entries are canonical integer encodings stored row-major; the owning
field travels with the matrix.  Reduction follows one pinned echelon
convention (leftmost nonzero column, first nonzero row, pivot scaled
to 1, eliminate above and below) so ranks, kernels and solutions are
deterministic across runs.

Column-selection arguments are 1-based, matching codeword positions.

Entries are checked where they enter from outside: the `FieldMatrix`
constructor, `from_rows` and `matrix_from_text` refuse any entry that is
not a canonical element of the field (UsageError), and `vandermonde_ext`
checks its arguments.  Matrices whose entries the program computes from
canonical operands -- `rref`, `right_kernel_basis`, the parity checks of
checked codes (`_vandermonde`), `grs.generator`, and the slices,
negations and solves of plan lowering and the per-input matrices of the
executor in `convert` -- are built with `_computed`, which skips that
check: table lookups, reductions mod p and selections of canonical
entries are canonical by construction, and the check was about a fifth
of a first lowering.

Every matrix-vector product runs on one row kernel per field
(`row_kernel`) over lines kept on the matrix (`kernel_lines`), in one of
three forms: over a byte field (characteristic 2, q <= 256) lane rows,
one lookup per input symbol for up to eight outputs at once; over
GF(2^m) with m > 8 (log coefficient, index) pairs; over GF(p) dense
coefficient lines.  The executor's step per input, `fold_kernel`, checks
a codeword against its systematic generator and adds its share of the
written symbols in one pass over the message symbols: over a byte field
lane rows whose reduce starts from the parity symbols and the written
symbols so far, over GF(p) one sum of packed ints, so nothing is unpacked
until the last input; over GF(2^m) with m > 8 the row kernel's lines.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Iterable, Sequence
from functools import partial, reduce
from itertools import chain, compress, count
from operator import getitem, mul, xor

from .errors import SingularMatrixError, UsageError
from .field import GF, FieldSpec
from .record import Record


class FieldMatrix(Record):
    """Immutable rows x cols matrix over `field`.

    The constructor checks the shape and every entry (UsageError for an
    entry that is not a canonical element of `field`).  `_computed` builds
    one without the entry check, for entries the program derived from
    canonical operands.
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


def _computed(field: FieldSpec, rows: int, cols: int, entries: tuple[int, ...]) -> FieldMatrix:
    """A FieldMatrix whose entries the program computed from canonical
    operands, so they are canonical: built without `__post_init__`."""
    m = object.__new__(FieldMatrix)
    setattr_ = object.__setattr__
    setattr_(m, "field", field)
    setattr_(m, "rows", rows)
    setattr_(m, "cols", cols)
    setattr_(m, "entries", entries)
    return m


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
    # Row ell + 1 is row ell times gamma, on the row kernel's tables.
    binary = field.m > 1
    if binary:
        log, exp = field.row_tables()
        log_gamma = [log[x] for x in gamma]
    else:
        p = field.p
    row = list(w[: n - 1])
    out = []
    for ell in range(r):
        out.append(row + [w[n - 1] if ell == r - 1 else 0])
        if ell < r - 1:
            if binary:
                row = [exp[log[x] + lg] for x, lg in zip(row, log_gamma)]
            else:
                row = [x * y % p for x, y in zip(row, gamma)]
    return _computed(field, r, n, tuple(chain.from_iterable(out)))


# -- reduction and derived operations ------------------------------------


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its 0-based pivot columns.

    Row operations run on the row kernel's tables: over GF(2^m) the scaled
    pivot row is turned into logs once, and each elimination is
    x ^ exp[log c + log y]; over GF(p) it is (x - c*y) % p.
    """
    f = m.field
    binary = f.m > 1
    if binary:
        log, exp = f.row_tables()
    else:
        p = f.p
    inv = f.inv
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
        if binary:
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
                a[pr] = [scale * x % p for x in a[pr]]
            lead = a[pr]
            for i in range(m.rows):
                coef = a[i][c]
                if i != pr and coef != 0:
                    a[i] = [(x - coef * y) % p for x, y in zip(a[i], lead)]
        pivots.append(c)
        pr += 1
        if pr == m.rows:
            break
    return _computed(f, m.rows, m.cols, tuple(chain.from_iterable(a))), tuple(pivots)


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


def kernel_lines(m: FieldMatrix, by_cols: bool, width: int | None = None):
    """Lines of the field's `row_kernel` for v . M[:, :width] (by_cols) or
    M[:width] . v (width: default all), built when first asked for and
    kept on m.  A FieldMatrix never changes, so kept lines cannot go stale.

    A line is one output's coefficients: a column of m for v . M, a row for
    M . v.  GF(p) keeps the entries; GF(2^m) with m > 8 keeps (log
    coefficient, index) pairs with the zero coefficients dropped (see
    `FieldSpec.row_tables`); a byte field keeps lane rows (`_lane_rows`).
    """
    kept = _kept(m)
    lines = kept.get((by_cols, width))
    if lines is None:
        total = m.cols if by_cols else m.rows
        size = total if width is None else min(width, total)
        if by_cols:
            lines = [m.entries[j :: m.cols] for j in range(size)]
        else:
            lines = [m.row(i) for i in range(size)]
        f = m.field
        if _is_byte_field(f):
            lines = _lane_rows(f, lines)
        elif f.m > 1:
            log = f.row_tables()[0].__getitem__
            lines = [tuple(compress(zip(map(log, line), count()), line)) for line in lines]
        kept[by_cols, width] = lines
    return lines


def _kept(m: FieldMatrix) -> dict:
    """The lines kept on m, keyed by what they compute."""
    kept = getattr(m, "_kernel_lines", None)
    if kept is None:
        kept = {}
        object.__setattr__(m, "_kernel_lines", kept)
    return kept


def row_kernel(field: FieldSpec) -> tuple[Callable, Callable]:
    """The one inner loop of every matrix-vector product over `field`, as
    (vector, run), built once per field and kept on it.

    vector(v) checks every entry of v as `FieldSpec.check` does and returns
    v in kernel form: over GF(2^m) with m > 8 the logs of its entries (0
    maps to the tables' zero log), otherwise v itself.  run(lines, vec)
    takes lines from `kernel_lines` and such a vec, and returns [line . v
    for each line]: one reduction per line over GF(p), an XOR of
    exp[log c + log v_j] lookups over GF(2^m) with m > 8, and over a byte
    field one lookup per symbol for all lanes (`_lane_run`).  All are
    module functions or partials of them, so a plan that keeps them stays
    picklable.
    """
    # getattr, not field.__dict__: reading an instance's __dict__ turns its
    # attributes into a plain dict, and field.mul then runs about 2x slower.
    kernel = getattr(field, "_row_kernel", None)
    if kernel is None:
        if _is_byte_field(field):
            kernel = (partial(_canonical, field), _lane_run)
        elif field.m == 1:
            kernel = (partial(_canonical, field), partial(_mod_lines, field.p))
        else:
            log, exp = field.row_tables()
            kernel = (partial(_logs, field, log), partial(_xor_lines, exp))
        field._row_kernel = kernel
    return kernel


def fold_kernel(field: FieldSpec) -> tuple[Callable, Callable]:
    """The row kernel's check-and-share step over `field`, as (fold, spill),
    built once per field and kept on it.

    Let g = [A | I_k] be the systematic generator of a code with r parity
    symbols and S an (r + k) x w matrix.  fold(step, c, acc) takes
    `fold_step(g, r, S)`, a vector c of length r + k and an accumulator.
    It checks c as `row_kernel`'s vector does (UsageError), and returns None
    unless c[:r] = c[r:] . A, that is unless c is a codeword; otherwise it
    returns acc + c . S.  0 is the empty accumulator, and spill(acc, w)
    gives an accumulator's w symbols.

    A codeword is c = c[r:] . g, so c . S = c[r:] . C with C = g . S, and
    over a byte field and over GF(p) the fold runs M = [A | C] on the
    message symbols alone: over a byte field one lookup per message symbol
    for all r + w lanes (`_lane_fold`), over GF(p) one sum of products of
    message symbols and packed rows of M (`_mod_fold`).  Over GF(2^m) with
    m > 8 the row kernel runs A's lines on the message symbols and S's
    lines, which keep only S's nonzero entries, on c.  All are module
    functions or partials of them, as in `row_kernel`.
    """
    kernel = getattr(field, "_fold_kernel", None)
    if kernel is None:
        if _is_byte_field(field):
            kernel = (partial(_lane_fold, field), _lane_spill)
        elif field.m > 1:
            kernel = (partial(_line_fold, *row_kernel(field)), _line_spill)
        else:
            bits = _mod_lane_bits(field.p)
            kernel = (partial(_mod_fold, field), partial(_mod_spill, field.p, bits))
        field._fold_kernel = kernel
    return kernel


def fold_step(g: FieldMatrix, r: int, s: FieldMatrix) -> tuple:
    """What `fold_kernel`'s fold runs for g = [A | I_k], a systematic
    generator with r parity columns, and S, (r + k) x w.

    Over a byte field: the lane shift and syndrome mask of r lanes and the
    lane rows of the columns of M = [A | g . S], groups of up to LANES
    (`_lane_rows`), each after the first with its shift.  A's full groups
    are the `kernel_lines(g, True, r)` that `grs.encode` runs on; its
    other columns share a group with the first columns of g . S.  Over
    GF(p): the shifts of the r parity lanes, the lane mask, the shift of
    the written lanes, and one packed int per message symbol, row t of M
    with entry j at bit `_mod_lane_bits(p)` times j.  Over GF(2^m) with
    m > 8: r, A's lines and S's lines by columns.
    """
    f = g.field
    if f.m > 1 and not _is_byte_field(f):
        return r, kernel_lines(g, True, r), kernel_lines(s, True)
    c_cols = _systematic_product(g, r, s)
    if _is_byte_field(f):
        full = r // LANES
        reused = kernel_lines(g, True, r)[:full] if full else ()
        a_cols = [g.entries[j :: g.cols] for j in range(LANES * full, r)]
        (first, _), *rest = (*reused, *_lane_rows(f, a_cols + c_cols))
        more = tuple((8 * LANES * at, rows) for at, (rows, _) in enumerate(rest, 1))
        return r, 8 * r, (1 << 8 * r) - 1, first, more
    bits = _mod_lane_bits(f.p)
    a_cols = [g.entries[j :: g.cols] for j in range(r)]
    rows = tuple(sum(e << bits * j for j, e in enumerate(row)) for row in zip(*a_cols, *c_cols))
    return r, tuple(range(0, bits * r, bits)), (1 << bits) - 1, bits * r, rows


def _systematic_product(g: FieldMatrix, r: int, s: FieldMatrix) -> list[tuple[int, ...]]:
    """The columns of g . S for g = [A | I_k]: row t of g . S is row r + t
    of S plus A[t, p] times row p of S for each nonzero row p < r."""
    f = g.field
    add, mul = (xor if f.p == 2 else f.add), f.mul
    rows = [s.row(r + t) for t in range(g.rows)]
    for p in range(r):
        row = s.row(p)
        if any(row):
            for t, a in enumerate(g.entries[p :: g.cols]):
                rows[t] = [add(x, mul(a, y)) for x, y in zip(rows[t], row)]
    return list(zip(*rows))


# -- lane rows: the row kernel of byte fields --------------------------------
#
# Over a byte field (characteristic 2, q <= 256) every product fits a byte,
# so the products of one symbol with up to LANES coefficients pack into one
# int, byte l holding lane l.  A lane row of a kernel line set is an array
# indexed by symbol: entry v packs (coefficient_l . v) for the lanes l of a
# group of up to LANES lines.  Then v . M for all lanes of a group is the
# XOR of one lookup per symbol: a SWAR form of the split-table region
# multiply (Plank, Greenan and Miller, FAST 2013).

LANES = 8  # bytes of an array("Q") entry


def _is_byte_field(field: FieldSpec) -> bool:
    return field.p == 2 and field.q <= 256


def _packed(buf: bytearray) -> array:
    row = array("Q", buf)
    if sys.byteorder == "big":
        row.byteswap()
    return row


def _lane_rows(field: FieldSpec, lines: Sequence[Sequence[int]]) -> tuple:
    """Lines as ((rows, lanes), ...), one pair per group of up to LANES
    lines, with one lane row per input index (`_lane_fill`)."""
    groups = []
    for start in range(0, len(lines), LANES):
        group = lines[start : start + LANES]
        buf = bytearray(LANES * field.q * len(group[0]))
        groups.append((_lane_fill(field, buf, group, 0), len(group)))
    return tuple(groups)


def _lane_fill(field: FieldSpec, buf: bytearray, lines: Sequence[Sequence[int]], first: int) -> tuple:
    """The lane rows of buf, one per input index, after lines fill its lanes
    first, first + 1, ...  This runs in C: the field's product rows of each
    lane's coefficients, joined in input order, fill that lane by one
    strided slice assignment, and the buffer, read as one array, is cut
    into the rows."""
    prod = field.product_rows().__getitem__
    q = field.q
    for lane, line in enumerate(lines, first):
        buf[lane::LANES] = b"".join(map(prod, line))
    table = _packed(buf)
    return tuple(table[i * q : (i + 1) * q] for i in range(len(table) // q))


def _lane_run(lines: tuple, vec: Sequence[int]) -> list[int]:
    out: list[int] = []
    for rows, lanes in lines:
        out += reduce(xor, map(getitem, rows, vec), 0).to_bytes(lanes, "little")
    return out


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
        out ^= reduce(xor, map(getitem, rows, message)) << at
    if out & mask:
        return None
    return out >> shift


def _lane_spill(acc: int, w: int) -> bytes:
    return acc.to_bytes(w, "little")


def _canonical(field: FieldSpec, v: Sequence[int]) -> Sequence[int]:
    field.check_all(v)
    return v


def _logs(field: FieldSpec, log: list[int], v: Sequence[int]) -> list[int]:
    # `FieldSpec.check_all`'s test, fused with the lookups into one loop.
    q = field.q
    out = []
    for a in v:
        if type(a) is not int or not 0 <= a < q:
            field.check(a)
        out.append(log[a])
    return out


def _mod_lines(p: int, lines: list, vec: Sequence[int]) -> list[int]:
    return [sum(map(mul, line, vec)) % p for line in lines]


def _xor_lines(exp: list[int], lines: list, vec: Sequence[int]) -> list[int]:
    out = []
    for line in lines:
        acc = 0
        for a, j in line:
            acc ^= exp[a + vec[j]]
        out.append(acc)
    return out


def _line_fold(vector: Callable, run: Callable, step: tuple,
               c: Sequence[int], acc: list[int] | int) -> list[int] | None:
    r, a_lines, s_lines = step
    vec = vector(c)
    if run(a_lines, vec[r:]) != list(c[:r]):
        return None
    out = run(s_lines, vec)
    return list(map(xor, acc, out)) if acc else out


def _line_spill(acc: list[int], w: int) -> list[int]:
    return acc


# Over GF(p) the lanes of a packed int are bit fields wide enough for a sum
# of 2^32 products of canonical entries, so a stripe's shares add as plain
# ints, with no carry between lanes, and each lane is reduced mod p once.


def _mod_lane_bits(p: int) -> int:
    return ((p - 1) ** 2).bit_length() + 32


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


def matvec(m: FieldMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """M . v^T as a length-rows tuple; UsageError unless v is canonical."""
    if len(v) != m.cols:
        raise UsageError(f"vector length {len(v)} does not match {m.cols} columns")
    vector, run = row_kernel(m.field)
    return tuple(run(kernel_lines(m, False), vector(v)))


def vecmat(v: Sequence[int], m: FieldMatrix, width: int | None = None) -> tuple[int, ...]:
    """v . M as a length-cols tuple, or v . M[:, :width] when `width` is
    given; UsageError unless v is canonical."""
    if len(v) != m.rows:
        raise UsageError(f"vector length {len(v)} does not match {m.rows} rows")
    vector, run = row_kernel(m.field)
    return tuple(run(kernel_lines(m, True, width), vector(v)))


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
    if m.rows != m.cols:
        raise UsageError(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    aug = from_rows(
        m.field,
        [m.row(i) + identity(m.field, n).row(i) for i in range(n)],
        cols=2 * n,
    )
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)) or len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return from_rows(m.field, [red.row(i)[n:] for i in range(n)], cols=n)


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
    return _computed(f, len(rows), red.cols, tuple(chain.from_iterable(rows)))


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise UsageError("empty matrix dump")
    try:
        rows, cols, q = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise UsageError(f"bad matrix header {lines[0]!r}") from exc
    field = GF(q)
    if len(lines) - 1 != rows:
        raise UsageError(f"expected {rows} rows, got {len(lines) - 1}")
    out = []
    for ln in lines[1:]:
        try:
            row = list(map(int, ln.split()))
        except ValueError as exc:
            raise UsageError(f"bad matrix row {ln!r}") from exc
        if len(row) != cols:
            raise UsageError(f"expected {cols} entries per row, got {len(row)}")
        out.append(row)
    return from_rows(field, out, cols=cols)
