import random
from itertools import combinations
from operator import itemgetter
from types import SimpleNamespace

import pytest

from mdsconv import convert, grs, linalg
from mdsconv.errors import CorruptionError, SingularMatrixError, UsageError
from mdsconv.field import GF
from mdsconv.linalg import (
    FieldMatrix,
    from_rows,
    identity,
    invert,
    matmul,
    matrix_from_text,
    matrix_to_text,
    matvec,
    rank,
    right_kernel_basis,
    solve_linear,
    submatrix_cols,
    transpose,
    vandermonde_ext,
    vecmat,
    zeros,
)

GF5 = GF(5)
GF7 = GF(7)

H_EXAMPLE = vandermonde_ext(GF5, 2, 4, (0, 1, 2), (1, 1, 1, 1))


def random_matrix(field, rows, cols, rng):
    return from_rows(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


def test_vandermonde_examples():
    m = vandermonde_ext(GF7, 2, 3, (0, 1), (1, 1, 1))
    assert m.to_lists() == [[1, 1, 0], [0, 1, 1]]
    m1 = vandermonde_ext(GF7, 1, 2, (3,), (4, 5))
    assert m1.to_lists() == [[4, 5]]
    assert H_EXAMPLE.to_lists() == [[1, 1, 1, 0], [0, 1, 2, 1]]


def test_vandermonde_validation():
    with pytest.raises(UsageError):
        vandermonde_ext(GF7, 3, 3, (0, 1), (1, 1, 1))
    with pytest.raises(UsageError):
        vandermonde_ext(GF7, 2, 4, (0, 1), (1, 1, 1, 1))  # gamma too short
    with pytest.raises(UsageError):
        vandermonde_ext(GF7, 2, 3, (0, 1), (1, 0, 1))  # zero weight


def test_rank_examples():
    assert rank(zeros(GF5, 3, 4)) == 0
    assert rank(identity(GF5, 4)) == 4
    assert rank(H_EXAMPLE) == 2


def test_invert():
    assert invert(identity(GF5, 3)) == identity(GF5, 3)
    assert invert(from_rows(GF7, [[3]])).to_lists() == [[5]]
    block = submatrix_cols(H_EXAMPLE, [2, 3])
    assert matmul(invert(block), block) == identity(GF5, 2)
    with pytest.raises(SingularMatrixError):
        invert(from_rows(GF5, [[1, 2], [2, 4]]))
    with pytest.raises(UsageError):
        invert(zeros(GF5, 2, 3))


def test_kernel_examples():
    assert right_kernel_basis(identity(GF5, 4)).rows == 0
    z = zeros(GF5, 1, 5)
    kz = right_kernel_basis(z)
    assert kz.rows == 5 and rank(kz) == 5
    k = right_kernel_basis(H_EXAMPLE)
    assert k.rows == H_EXAMPLE.cols - rank(H_EXAMPLE) == 2
    for i in range(k.rows):
        assert matvec(H_EXAMPLE, k.row(i)) == (0, 0)


def test_kernel_deterministic():
    a = right_kernel_basis(H_EXAMPLE)
    b = right_kernel_basis(H_EXAMPLE)
    assert a == b


def test_submatrix_cols():
    assert submatrix_cols(H_EXAMPLE, [1, 2, 3, 4]) == H_EXAMPLE
    empty = submatrix_cols(H_EXAMPLE, [])
    assert (empty.rows, empty.cols) == (2, 0)
    assert submatrix_cols(H_EXAMPLE, {1, 2, 4}).to_lists() == [[1, 1, 0], [0, 1, 1]]
    with pytest.raises(UsageError):
        submatrix_cols(H_EXAMPLE, [0])
    with pytest.raises(UsageError):
        submatrix_cols(H_EXAMPLE, [5])


def test_matmul_and_solve():
    rng = random.Random(3)
    a = random_matrix(GF7, 3, 3, rng)
    assert matmul(a, identity(GF7, 3)) == a
    b = (2, 3, 4)
    assert solve_linear(identity(GF7, 3), b) == b
    for _ in range(25):
        m = random_matrix(GF7, 4, 3, rng)
        x = solve_linear(m, matvec(m, [rng.randrange(7) for _ in range(3)]))
        assert x is not None
        # multiply back
        rhs = matvec(m, x)
        assert solve_linear(m, rhs) == x
    inconsistent = from_rows(GF5, [[1, 0], [1, 0]])
    assert solve_linear(inconsistent, (1, 2)) is None
    with pytest.raises(UsageError):
        matmul(a, random_matrix(GF7, 2, 2, rng))
    with pytest.raises(UsageError):
        matmul(a, random_matrix(GF5, 3, 3, rng))


def test_invert_multiply_back_randomized():
    rng = random.Random(11)
    for q in (5, 8, 13):
        f = GF(q)
        for _ in range(20):
            n = rng.randrange(1, 5)
            m = random_matrix(f, n, n, rng)
            if rank(m) < n:
                continue
            assert matmul(invert(m), m) == identity(f, n)


def test_transpose():
    t = transpose(H_EXAMPLE)
    assert (t.rows, t.cols) == (4, 2)
    assert transpose(t) == H_EXAMPLE


def test_vecmat_matvec():
    v = (1, 2)
    assert vecmat(v, H_EXAMPLE) == (1, 3, 0, 2)
    assert matvec(H_EXAMPLE, (1, 1, 1, 1)) == (3, 4)


def test_vandermonde_columns_independent_exhaustive():
    # every r columns independent whenever gamma is distinct, up to n = 10
    cases = [
        (GF(11), 3, 10),
        (GF(8), 2, 7),
        (GF(13), 4, 8),
        (GF(16), 5, 9),
    ]
    rng = random.Random(5)
    for f, r, n in cases:
        gamma = tuple(rng.sample(range(f.q), n - 1))
        w = tuple(rng.choice(range(1, f.q)) for _ in range(n))
        m = vandermonde_ext(f, r, n, gamma, w)
        assert rank(m) == r
        for cols in combinations(range(1, n + 1), r):
            assert rank(submatrix_cols(m, cols)) == r


def test_entries_validated():
    with pytest.raises(UsageError):
        FieldMatrix(GF5, 1, 2, (1, 7))
    with pytest.raises(UsageError):
        FieldMatrix(GF5, 2, 2, (1, 2, 3))


def test_text_dump_roundtrip():
    text = matrix_to_text(H_EXAMPLE)
    assert text.splitlines()[0] == "2 4 5"
    m = matrix_from_text(text)
    assert m == H_EXAMPLE
    with pytest.raises(UsageError):
        matrix_from_text("")
    with pytest.raises(UsageError):
        matrix_from_text("1 2 5\n1 2 3")
    with pytest.raises(UsageError):
        matrix_from_text("2 2 5\n1 2")


@pytest.mark.parametrize(
    "text", ["2 2 8\n+1 0_0\n\uff13 1", "2 2 8\n1 0\n0 -1", "+2 2 8\n1 0\n0 1", "2 2 8\n1\u30000\n0 1"]
)
def test_text_dump_entries_are_ascii_digits(text):
    with pytest.raises(UsageError, match="bad matrix"):
        matrix_from_text(text)


def _naive_matvec(m, v):
    f = m.field
    out = []
    for i in range(m.rows):
        acc = 0
        for j in range(m.cols):
            acc = f.add(acc, f.mul(m.at(i, j), v[j]))
        out.append(acc)
    return tuple(out)


def _naive_vecmat(v, m):
    f = m.field
    out = []
    for j in range(m.cols):
        acc = 0
        for i in range(m.rows):
            acc = f.add(acc, f.mul(v[i], m.at(i, j)))
        out.append(acc)
    return tuple(out)


def _encoder(a):
    """`systematic_encoder(a)` for a parity part A and encode(message):
    `grs.encode` run with that step on a stand-in code whose encoder is
    already kept, so it runs the step in its own frame as on a code.
    encode gives message . [A | I_k] as a tuple."""
    step = linalg.systematic_encoder(a)
    code = SimpleNamespace(field=a.field, _encoder=(a.rows, step))  # what encode reads of a code

    def encode(message):
        return grs.encode(code, message).symbols

    return step, encode


def _folder(a, s):
    """`fold_step(a, c)` for a parity part A and C = g . S with
    g = [A | I_k], by the reference product, and fold(c_1, c_2, ...): the
    executor's stripe loop for A's field (`convert._stripe_run`) run with
    that step for every input c_t, raw symbols of r + k each, and no final
    code but the written symbols.  fold gives the sum of the shares c_t . S
    as a tuple, or None when the loop refuses an input as not a codeword."""
    f, r, k = a.field, a.cols, a.rows
    g = from_rows(f, [a.row(t) + tuple(int(i == t) for i in range(k)) for t in range(k)], cols=r + k)
    c = matmul(g, s)
    step = linalg.fold_step(a, [c.entries[j :: c.cols] for j in range(c.cols)])
    code = SimpleNamespace(field=f, n=r + k)  # what the loop reads of an initial code

    def fold(*codewords):
        written = ((None, itemgetter(slice(code.n * len(codewords), None))),)
        run = convert._stripe_run(f, [code] * len(codewords), [step] * len(codewords),
                                  s.cols, written, None)
        try:
            (out,), _ = run(codewords)
        except CorruptionError:
            return None
        return tuple(out.symbols)

    return step, fold


@pytest.mark.parametrize("q", [2, 7, 8, 256, 257, 1 << 16, (1 << 31) - 1])
def test_row_kernel_matches_per_element_reference(q):
    f = GF(q)
    rng = random.Random(q)

    def element():
        # Zero, one and the largest element show up often next to random ones.
        return rng.choice((0, 0, 1, q - 1, rng.randrange(q)))

    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 7), (7, 4), (5, 5)]:
        m = from_rows(f, [[element() for _ in range(cols)] for _ in range(rows)], cols=cols)
        for v in ([element() for _ in range(cols)], [0] * cols):
            assert matvec(m, v) == _naive_matvec(m, v)
            assert matvec(m, v) == _naive_matvec(m, v)  # again: a product keeps no state
        for v in ([element() for _ in range(rows)], [0] * rows):
            assert vecmat(v, m) == _naive_vecmat(v, m)
            assert vecmat(v, m) == _naive_vecmat(v, m)
        assert matvec(zeros(f, rows, cols), [element() for _ in range(cols)]) == (0,) * rows
        with pytest.raises(UsageError):
            matvec(m, [0] * (cols + 1))
        with pytest.raises(UsageError):
            vecmat([0] * (rows + 1), m)


@pytest.mark.parametrize("m", [*range(1, 10), 16])
def test_lane_kernel_matches_per_element_reference(m):
    """Over GF(2^m) products run on lane rows, one group per 8 output
    bytes: every lane count from 0 to 8, and 10 and 17 (as r = 10 of
    [100,90]), with zero coefficients, zero rows and zero vectors.  The
    lanes are the parity columns A of g = [A | I_k], run by the encoder and
    by the fold step in the stripe loop, whose shares run on lanes past
    them; the step's first group leads with the unit rows of the parity
    bytes.  For m = 9 and 16 a symbol is two bytes, low byte first: two
    rows of 256 entries per input symbol, two lanes per output symbol."""
    f = GF(1 << m)
    q = f.q
    size = 2 if m > 8 else 1  # bytes of a symbol
    rng = random.Random(3000 + m)

    def element():
        return rng.choice((0, 0, 1, q - 1, rng.randrange(q)))

    for inputs in (0, 1, 5):
        for lanes in (*range(9), 10, 17):
            entries = [[element() for _ in range(lanes)] for _ in range(inputs)]
            if inputs > 1:
                entries[1] = [0] * lanes
            mat = from_rows(f, entries, cols=lanes)
            groups = linalg._compiled(f, [mat.entries[j::lanes] for j in range(lanes)])
            out = size * lanes  # output bytes
            assert [width for _, width in groups] == [min(8, out - s) for s in range(0, out, 8)]
            assert all(len(rows) == size * inputs and all(len(row) == min(q, 256) for row in rows)
                       for rows, _ in groups)
            if not inputs:
                continue  # a code has k >= 1 message symbols to run on
            w = 3
            s_part = from_rows(f, [[element() for _ in range(w)] for _ in range(lanes + inputs)], cols=w)
            encoder, encode = _encoder(mat) if lanes else (None, None)
            step, fold = _folder(mat, s_part)
            if out >= 8:  # A's first full lane group is built once, on A
                first, shared = step[2], mat._parity_form[0][0]
                assert len(first) == out + size * inputs and len(encoder[0]) == len(shared) == size * inputs
                assert all(a is b is c for a, b, c in zip(first[out:], encoder[0], shared))
            for v in ([element() for _ in range(inputs)], [0] * inputs):
                c = (*_naive_vecmat(v, mat), *v)
                if encoder is not None:
                    assert encode(v) == c
                assert fold(c) == _naive_vecmat(c, s_part)
                if lanes:
                    assert fold((c[0] ^ 1, *c[1:])) is None


@pytest.mark.parametrize("w", [0, 3, 9])
@pytest.mark.parametrize("r", [*range(1, 11), 16, 17])
@pytest.mark.parametrize("q", [4, 16, 256, 512, 1 << 16])
def test_lane_fold_refuses_every_single_symbol_change(q, r, w):
    """The lane fold step reads the whole codeword, each lane group from
    its start, the parity bytes through unit lane rows: in the first
    group, in a second one for more than 8 of them, and none in the
    share-only groups past them.  On a codeword c it gives c . S, and it
    refuses every change of one symbol, parity or message, by XOR with 1
    and with q - 1, and above GF(256) with 256, which changes the high
    byte alone."""
    f = GF(q)
    rng = random.Random(5000 + 100 * q + 10 * r + w)
    k = 5
    # Each row of A has a nonzero entry, so a changed message symbol moves the syndrome.
    a_rows = [[rng.randrange(q) for _ in range(r)] for _ in range(k)]
    for t, row in enumerate(a_rows):
        row[t % r] = rng.randrange(1, q)
    g = from_rows(f, [row + [int(i == t) for i in range(k)] for t, row in enumerate(a_rows)])
    s_part = from_rows(f, [[rng.randrange(q) for _ in range(w)] for _ in range(r + k)], cols=w)
    _, fold = _folder(from_rows(f, a_rows, cols=r), s_part)
    c = vecmat([rng.randrange(q) for _ in range(k)], g)
    assert fold(c) == _naive_vecmat(c, s_part)
    deltas = (1, q - 1, 256) if q > 256 else (1, q - 1)
    for at in range(r + k):
        for delta in deltas:
            assert fold((*c[:at], c[at] ^ delta, *c[at + 1 :])) is None


@pytest.mark.parametrize("q, r", [(256, 3), (256, 9), (256, 17), (257, 9), (1 << 16, 9)])
def test_empty_generator_gives_zero_products_over_every_field(q, r):
    """A generator with no rows (k = 0) encodes the empty message to r zero
    parity symbols, and its fold step accepts only the zero parity and adds w
    zero shares: over a byte field with one lane group or more, over GF(p)
    and over GF(2^16) alike."""
    f = GF(q)
    a = FieldMatrix(f, 0, r, ())
    assert _encoder(a)[1](()) == (0,) * r
    w = 3
    _, fold = _folder(a, zeros(f, r, w))
    assert fold((0,) * r) == (0,) * w
    assert fold((1,) + (0,) * (r - 1)) is None


@pytest.mark.parametrize("q", [2, 16, 256, 257, 512, 1 << 16, 1000003])
def test_check_lines_give_the_systematic_syndrome(q):
    """The executor's per-input check lines: the stripe loop running the
    step that `fold_step` gives for g = [A | I_k] and S refuses c exactly
    when c . [I_r ; -A] is nonzero, that is exactly off the code, and on a
    codeword adds c . S to the written symbols: alone, and after an
    earlier input.  r + w runs past eight lanes too, and S may be zero on
    most rows, as a share of the written symbols is zero off the read
    symbols."""
    f = GF(q)
    rng = random.Random(4000 + q)
    for n in sorted({2, 3, min(q + 1, 12), min(q + 1, 19)}):
        for r in sorted({1, n - 1, min(n - 1, 10)}):
            spec = grs.ExtGrsSpec(f, n, r, tuple(rng.sample(range(q), n - 1)),
                                  tuple(rng.randrange(1, q) for _ in range(n)))
            g = grs.generator(spec)
            a_part = submatrix_cols(g, range(1, r + 1))
            assert grs.parity_part(spec) == a_part
            for w, live in ((0, 1), (1, 1), (9, 1), (9, 0.3)):
                s_part = from_rows(f, [[rng.randrange(q) for _ in range(w)] if rng.random() < live
                                       else [0] * w for _ in range(n)], cols=w)
                _, fold = _folder(a_part, s_part)
                earlier = grs.encode(spec, [rng.randrange(q) for _ in range(spec.k)]).symbols
                assert fold(earlier) == _naive_vecmat(earlier, s_part)
                for c in ([rng.randrange(q) for _ in range(n)], [0] * n,
                          grs.encode(spec, [rng.randrange(q) for _ in range(spec.k)]).symbols):
                    syndrome = map(f.sub, c[:r], _naive_vecmat(c[r:], a_part))
                    got = fold(earlier, c)
                    assert (got is None) == any(syndrome) == (not grs.is_codeword(spec, c))
                    if got is not None:
                        shares = _naive_vecmat(c, s_part)
                        want = map(f.add, _naive_vecmat(earlier, s_part), shares)
                        assert list(got) == list(want)
                        assert fold(c) == shares


@pytest.mark.parametrize("q", [7, 256])
def test_products_refuse_non_canonical_vectors(q):
    """`matvec` and `vecmat` check their vector as `FieldSpec.check` does."""
    f = GF(q)
    m = from_rows(f, [[1, 2, 3], [4, 5, 6], [0, 1, 0]])
    for bad in (q, -1, True, 1.0, None):
        with pytest.raises(UsageError, match="is not a canonical element"):
            matvec(m, [1, bad, 0])
        with pytest.raises(UsageError, match="is not a canonical element"):
            vecmat([0, 1, bad], m)


@pytest.mark.parametrize("q", [2, 7, 8, 256, 257, 1 << 16, (1 << 31) - 1])
def test_matmul_matches_per_element_reference(q):
    f = GF(q)
    rng = random.Random(q)
    for rows, inner, cols in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (4, 7, 5)]:
        a = from_rows(f, [[rng.randrange(q) for _ in range(inner)] for _ in range(rows)], cols=inner)
        b = from_rows(f, [[rng.randrange(q) for _ in range(cols)] for _ in range(inner)], cols=cols)
        assert matmul(a, b) == from_rows(f, [_naive_vecmat(a.row(i), b) for i in range(rows)], cols=cols)


@pytest.mark.parametrize("q", [2, 3, 7, 8, 16, 256, 257, 512, 1 << 16, (1 << 31) - 1])
def test_rref_matches_field_ops_reference(q):
    """rref equals the per-element reduction: same matrix, same pivots."""
    from mdsconv import oracle
    from mdsconv.linalg import rref

    f = GF(q)
    rng = random.Random(1000 + q)

    def element():
        return rng.choice((0, 0, 1, q - 1, rng.randrange(q)))

    def deficient(rows, cols, rank_):
        # rank_ random rows, then random combinations of them, shuffled.
        base = [[element() for _ in range(cols)] for _ in range(rank_)]
        out = [list(r) for r in base]
        for _ in range(rows - rank_):
            row = [0] * cols
            for b in base:
                c = rng.randrange(q)
                row = [f.add(x, f.mul(c, y)) for x, y in zip(row, b)]
            out.append(row)
        rng.shuffle(out)
        return from_rows(f, out, cols=cols)

    cases = [zeros(f, rows, cols) for rows, cols in [(0, 0), (0, 4), (4, 0), (3, 5)]]
    for rows, cols in [(1, 1), (2, 5), (5, 2), (4, 7), (7, 4), (6, 6), (8, 13)]:
        cases.append(from_rows(f, [[element() for _ in range(cols)] for _ in range(rows)], cols=cols))
        cases.append(deficient(rows, cols, min(rows, cols) // 2))
    for m in cases:
        assert rref(m) == oracle.rref_by_field_ops(m)


@pytest.mark.parametrize("q", [2, 3, 7, 8, 16, 256, 257, 512, 1 << 16, (1 << 31) - 1])
def test_vandermonde_matches_field_pow(q):
    """Power rows equal w_j * pow(gamma_j, ell) entry by entry."""
    f = GF(q)
    rng = random.Random(2000 + q)
    for n in range(2, min(q, 12) + 1):
        r = rng.randrange(1, n)
        gamma = rng.sample(range(q), n - 1) if q < 1 << 20 else [rng.randrange(q) for _ in range(n - 1)]
        w = [rng.randrange(1, q) for _ in range(n)]
        h = vandermonde_ext(f, r, n, gamma, w)
        for ell in range(r):
            expect = [f.mul(w[j], f.pow(gamma[j], ell)) for j in range(n - 1)]
            expect.append(w[-1] if ell == r - 1 else 0)
            assert h.row(ell) == tuple(expect)


@pytest.mark.parametrize("bad", [5, -1, True])
def test_public_constructors_refuse_noncanonical_entries(bad):
    """Entries from outside are checked by the constructor, `from_rows` and
    the text parser alike: q, a negative number and a bool are refused."""
    with pytest.raises(UsageError):
        FieldMatrix(GF5, 1, 2, (1, bad))
    with pytest.raises(UsageError):
        from_rows(GF5, [[1, bad]])
    with pytest.raises(UsageError):
        matrix_from_text(f"1 2 5\n1 {bad}")
