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
checked codes (`_vandermonde`), `grs.generator`, the systematic checks of
`check_lines`, and the slices, negations and solves of plan lowering in
`convert` -- are built with `_computed`, which skips that check: table
lookups, reductions mod p and selections of canonical entries are
canonical by construction, and the check was about a fifth of a first
lowering.

Every matrix-vector product runs on one row kernel per field
(`row_kernel`) over lines kept on the matrix (`kernel_lines`), in one of
three forms: over a byte field (characteristic 2, q <= 256) lane rows,
one lookup per input symbol for up to eight outputs at once; over
GF(2^m) with m > 8 (log coefficient, index) pairs; over GF(p) dense
coefficient lines.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, compress, count
from operator import getitem, mul, xor
from typing import Callable, Iterable, Sequence

from .errors import SingularMatrixError, UsageError
from .field import GF, FieldSpec


@dataclass(frozen=True)
class FieldMatrix:
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


def check_lines(g: FieldMatrix, r: int):
    """Kernel lines of the systematic parity check of a generator
    g = [A | I_k]: run on a canonical c of length r + k, they give
    c . [I_r ; -A], which is zero exactly when c[:r] = c[r:] . A, that is
    when c is a codeword.  Built once and kept on g.

    A byte field reuses the lane rows that `grs.encode` runs on (the
    `kernel_lines` of A) after the field's unit rows for the r parity
    positions, so the check of c is one lookup per symbol.
    """
    kept = _kept(g)
    lines = kept.get(("check", r))
    if lines is None:
        f = g.field
        if _is_byte_field(f):
            zero, units = _lane_units(f)
            lines = tuple(
                ((zero,) * start + units[:lanes] + (zero,) * (r - start - lanes) + rows, lanes)
                for start, (rows, lanes) in zip(count(0, LANES), kernel_lines(g, True, r))
            )
        else:
            identity_rows = ((0,) * i + (1,) + (0,) * (r - 1 - i) for i in range(r))
            negated = (map(f.neg, g.row(t)[:r]) for t in range(g.rows))
            c = _computed(f, r + g.rows, r, tuple(chain(*identity_rows, *negated)))
            lines = kernel_lines(c, True)
        kept["check", r] = lines
    return lines


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
    lines, with one lane row per input index.  A group is built in C: the
    field's product rows of each lane's coefficients, joined in input order,
    fill that lane of one buffer by one strided slice assignment, and the
    buffer, read as one array, is cut into the rows."""
    prod = field.product_rows().__getitem__
    q = field.q
    groups = []
    for start in range(0, len(lines), LANES):
        group = lines[start : start + LANES]
        inputs = len(group[0])
        buf = bytearray(LANES * q * inputs)
        for lane, line in enumerate(group):
            buf[lane::LANES] = b"".join(map(prod, line))
        table = _packed(buf)
        groups.append((tuple(table[i * q : (i + 1) * q] for i in range(inputs)), len(group)))
    return tuple(groups)


def _lane_units(field: FieldSpec) -> tuple[array, tuple[array, ...]]:
    """The field's zero lane row and its unit lane rows (entry v is v in
    lane l), built once and kept on the field."""
    units = getattr(field, "_lane_units", None)
    if units is None:
        # The lane rows of I_8 with a zero input appended: e_0, ..., e_7, 0.
        identity = [[int(i == lane) for i in range(LANES + 1)] for lane in range(LANES)]
        ((rows, _),) = _lane_rows(field, identity)
        units = field._lane_units = (rows[-1], rows[:-1])
    return units


def _lane_run(lines: tuple, vec: Sequence[int]) -> list[int]:
    out: list[int] = []
    for rows, lanes in lines:
        out += reduce(xor, map(getitem, rows, vec), 0).to_bytes(lanes, "little")
    return out


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
