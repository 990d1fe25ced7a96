"""Brute-force verifiers backing the test suite.

Deliberately slow and trivially correct; every function enforces a hard
enumeration guard and fails loudly instead of running unbounded.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

from . import linalg
from .errors import InternalError, UsageError
from .grs import ExtGrsSpec, generator, parity_check, restriction_support
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
    words: list[tuple[int, ...]] = [(0,) * len(pos)]
    for i in range(g.rows):
        row = g.row(i)
        multiples = [linalg.vec_scale(f, c, row) for c in f.elements()]
        words = [linalg.vec_add(f, wd, mult) for wd in words for mult in multiples]
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
