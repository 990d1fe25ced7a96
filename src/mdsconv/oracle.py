"""Brute-force verifiers and solving references backing the test suite.

Deliberately slow and trivially correct; every enumerating function
enforces a hard guard and fails loudly instead of running unbounded.
`rref_by_field_ops` is Gaussian elimination with one field call per
element, the reference for the table-driven `linalg.rref`.  The per-stripe
conversions at the end solve each stripe's parity equations directly,
the way plans were executed before lowering; the tests hold
`convert.run_conversion` to them bit for bit.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from itertools import combinations

from . import linalg
from .errors import CorruptionError, InternalError, UsageError
from .grs import (
    Codeword,
    ExtGrsSpec,
    generator,
    is_codeword,
    parity_check,
    recover_erasures,
    restriction_support,
)
from .linalg import FieldMatrix

MDS_MAX_LENGTH = 14
CODEBOOK_MAX_SIZE = 1 << 16


def mds_exhaustive(h: FieldMatrix) -> bool:
    """True iff every r-subset of the columns of the r x n matrix h has rank r."""
    r, n = h.rows, h.cols
    if n > MDS_MAX_LENGTH:
        raise UsageError(f"length {n} exceeds exhaustive-check guard {MDS_MAX_LENGTH}")
    if r > n:
        raise UsageError(f"more rows ({r}) than columns ({n})")
    for subset in combinations(range(1, n + 1), r):
        if linalg.rank(linalg.submatrix_cols(h, subset)) != r:
            return False
    return True


def mds_sampled(h: FieldMatrix, trials: int = 200, seed: int = 0) -> bool:
    """Seeded spot check of the MDS column condition for lengths beyond the guard."""
    r, n = h.rows, h.cols
    if r > n:
        raise UsageError(f"more rows ({r}) than columns ({n})")
    rng = random.Random(seed)
    for _ in range(trials):
        subset = rng.sample(range(1, n + 1), r)
        if linalg.rank(linalg.submatrix_cols(h, subset)) != r:
            return False
    return True


def codebook(spec: ExtGrsSpec, positions: Iterable[int] | None = None) -> set[tuple[int, ...]]:
    """All q^k codewords restricted to `positions` (default: all), as a set."""
    f = spec.field
    if f.q**spec.k > CODEBOOK_MAX_SIZE:
        raise UsageError(f"codebook of size {f.q}^{spec.k} exceeds guard {CODEBOOK_MAX_SIZE}")
    if positions is None:
        pos = list(range(1, spec.n + 1))
    else:
        pos = sorted(set(positions))
        for p in pos:
            if not 1 <= p <= spec.n:
                raise UsageError(f"position {p} out of range 1..{spec.n}")
    g = linalg.submatrix_cols(generator(spec), pos) if pos else None
    if g is None:
        return {()}
    add, mul = f.add, f.mul
    words: list[tuple[int, ...]] = [(0,) * len(pos)]
    for i in range(g.rows):
        row = g.row(i)
        multiples = [tuple(mul(c, x) for x in row) for c in f.elements()]
        words = [tuple(map(add, wd, mult)) for wd in words for mult in multiples]
    return set(words)


def can_generate(
    source: ExtGrsSpec,
    source_positions: Iterable[int],
    target: ExtGrsSpec,
    target_positions: Iterable[int],
) -> bool:
    """True iff the target restriction is a fixed linear image of the source restriction.

    Codeword-wise: one matrix must send c|_B of the source to c|_A of the
    target for every shared message c, which is solvable column by column
    over the source restriction's columns.
    """
    if source.field != target.field:
        raise UsageError("source and target codes must share a field")
    if source.k != target.k:
        raise UsageError("codes must have equal dimension for a message-wise comparison")
    if source.field.q**source.k > CODEBOOK_MAX_SIZE:
        raise UsageError(
            f"enumeration of size {source.field.q}^{source.k} exceeds guard {CODEBOOK_MAX_SIZE}"
        )
    b = sorted(set(source_positions))
    a = sorted(set(target_positions))
    for p in b:
        if not 1 <= p <= source.n:
            raise UsageError(f"source position {p} out of range 1..{source.n}")
    for p in a:
        if not 1 <= p <= target.n:
            raise UsageError(f"target position {p} out of range 1..{target.n}")
    gsrc = linalg.submatrix_cols(generator(source), b)
    gdst = linalg.submatrix_cols(generator(target), a)
    for j in range(gdst.cols):
        if linalg.solve_linear(gsrc, gdst.col(j)) is None:
            return False
    return True


def rref_by_field_ops(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """`linalg.rref` computed with one `FieldSpec.mul`/`sub` call per
    element, under the same pivot convention (leftmost nonzero column,
    first nonzero row, pivot scaled to 1, eliminate above and below)."""
    f = m.field
    mul, sub, inv = f.mul, f.sub, f.inv
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
    return linalg.from_rows(f, a, cols=m.cols), tuple(pivots)


def puncture_by_solve(spec: ExtGrsSpec, positions: Iterable[int]) -> ExtGrsSpec:
    """The restriction `grs.puncture` computes, found by linear solving.

    The restricted dual is spanned by the combinations of parity-check
    rows that vanish off T; the multipliers are the first solution of the
    system placing every row of the candidate extended-Vandermonde
    parity check inside that dual, scaled so that theta_n = 1.
    """
    t = restriction_support(spec, positions)
    f = spec.field
    nt = len(t)
    rp = spec.r - (spec.n - nt)
    h = parity_check(spec)
    kept = set(t)
    complement = [p for p in range(1, spec.n + 1) if p not in kept]
    if complement:
        coeffs = linalg.right_kernel_basis(linalg.transpose(linalg.submatrix_cols(h, complement)))
        dual = linalg.submatrix_cols(linalg.matmul(coeffs, h), t)
    else:
        dual = h
    if linalg.rank(dual) != rp:
        raise InternalError("restricted dual has unexpected dimension")
    gamma_t = tuple(spec.gamma[p - 1] for p in t if p != spec.n)
    # Unknown multipliers theta_1..theta_|T|: each row of the candidate
    # parity check must be orthogonal to the kernel of the dual basis.
    kern = linalg.right_kernel_basis(dual)
    rows = []
    powers = [1] * (nt - 1)
    for ell in range(rp):
        for i in range(kern.rows):
            nu = kern.row(i)
            row = [f.mul(nu[j], powers[j]) for j in range(nt - 1)]
            row.append(nu[nt - 1] if ell == rp - 1 else 0)
            rows.append(row)
        if ell < rp - 1:
            powers = [f.mul(powers[j], gamma_t[j]) for j in range(nt - 1)]
    solutions = linalg.right_kernel_basis(linalg.from_rows(f, rows, cols=nt))
    if solutions.rows == 0:
        raise InternalError("no multiplier vector found for the restricted code")
    theta = solutions.row(0)
    if any(x == 0 for x in theta):
        raise InternalError("restricted-code multipliers are not all nonzero")
    scale = f.inv(theta[-1])
    return ExtGrsSpec(f, nt, rp, gamma_t, tuple(f.mul(scale, x) for x in theta))


# -- per-kind conversion by solving, the references for plan execution --------


def _checked_inputs(specs, codewords) -> list[tuple[int, ...]]:
    if len(codewords) != len(specs):
        raise UsageError(f"expected {len(specs)} input codewords, got {len(codewords)}")
    syms = []
    for i, (spec, cw) in enumerate(zip(specs, codewords), 1):
        symbols = tuple(cw.symbols if isinstance(cw, Codeword) else cw)
        if not is_codeword(spec, symbols):
            raise CorruptionError(f"input {i} is not a codeword of initial code {i}")
        syms.append(symbols)
    return syms


def merge_convert_by_solve(plan, codewords: Sequence) -> Codeword:
    """A merge plan's final codeword, solved from the final parity equations per stripe.

    The reduced-read contributions (through the restricted parity checks)
    and the default-read contributions (through the final-code blocks) are
    accumulated into a right-hand side, and the written symbols solve the
    final written block against it.
    """
    syms = _checked_inputs(plan.initial_specs, codewords)
    f = plan.field
    rf = plan.final_spec.r
    rhs = (0,) * rf
    for i in range(1, plan.params.t1 + 1):
        if i in plan.reduced:
            support = plan.support(i)
            slot = {pos: idx + 1 for idx, pos in enumerate(support)}
            hbar = plan.punctured_parity[i - 1]
            block = linalg.submatrix_cols(hbar, [slot[pos] for pos in plan.reads[i - 1]])
            contrib = linalg.matvec(block, [syms[i - 1][pos - 1] for pos in plan.reads[i - 1]])
            rhs = tuple(f.add(x, y) for x, y in zip(rhs, contrib))
        else:
            block = plan.final_unchanged_blocks[i - 1]
            contrib = linalg.matvec(block, [syms[i - 1][pos - 1] for pos in plan.unchanged[i - 1]])
            rhs = tuple(f.sub(x, y) for x, y in zip(rhs, contrib))
    if plan.final_written_block.rows != plan.final_written_block.cols:
        raise UsageError("written block is not square; plan is not executable")
    written = linalg.solve_linear(plan.final_written_block, rhs)
    if written is None:
        raise InternalError("written-symbol system is inconsistent")
    out = [0] * plan.final_spec.n
    for idx, (code, pos) in enumerate(plan.final_layout()):
        if code <= plan.params.t1:
            out[idx] = syms[code - 1][pos - 1]
        else:
            out[idx] = written[pos - 1]
    return Codeword(tuple(out), plan.final_spec)


def split_convert_by_solve(plan, codeword) -> tuple[Codeword, ...]:
    """A split plan's final codewords, solved per stripe.

    The privileged final's written symbols solve the restricted parity
    relation on the read symbols; every other final is recovered from its
    unchanged symbols by erasure decoding.
    """
    (symbols,) = _checked_inputs((plan.initial_spec,), (codeword,))
    outputs: list[Codeword] = []
    support = plan.support()
    slot = {pos: idx + 1 for idx, pos in enumerate(support)}
    for j in range(1, plan.params.t2 + 1):
        u = plan.unchanged[j - 1]
        spec = plan.final_specs[j - 1]
        if j == plan.privileged:
            hbar = plan.punctured_parity
            read_pos = plan.reads[j - 1]
            block = linalg.submatrix_cols(hbar, [slot[pos] for pos in read_pos])
            rhs = linalg.matvec(block, [symbols[pos - 1] for pos in read_pos])
            v_block = linalg.submatrix_cols(hbar, [slot[pos] for pos in plan.extra_reads])
            written = linalg.solve_linear(v_block, rhs)
            if written is None:
                raise InternalError("privileged written-symbol system is inconsistent")
            outputs.append(Codeword(tuple(symbols[pos - 1] for pos in u) + written, spec))
        else:
            known = {idx: symbols[pos - 1] for idx, pos in enumerate(u, 1)}
            outputs.append(recover_erasures(spec, known))
    return tuple(outputs)


def general_convert_by_layout(plan, codewords: Sequence) -> tuple[Codeword, ...]:
    """A general plan's final codewords, assembled symbol by symbol from its layouts."""
    syms = _checked_inputs(plan.initial_specs, codewords)
    outputs: list[Codeword] = []
    for j in range(1, plan.params.t2 + 1):
        read_vec: list[int] = []
        for i in range(1, plan.params.t1 + 1):
            read_vec.extend(syms[i - 1][pos - 1] for pos in plan.reads[j - 1][i - 1])
        written = linalg.vecmat(read_vec, plan.sigmas[j - 1])
        out = []
        for code, pos in plan.layouts[j - 1]:
            if code <= plan.params.t1:
                out.append(syms[code - 1][pos - 1])
            else:
                out.append(written[pos - 1])
        outputs.append(Codeword(tuple(out), plan.final_specs[j - 1]))
    return tuple(outputs)
