import random
from itertools import combinations

import pytest

from mdsconv.errors import UsageError
from mdsconv.field import GF
from mdsconv.grs import ExtGrsSpec, parity_check, puncture
from mdsconv.linalg import from_rows, rank
from mdsconv.oracle import can_generate, codebook, mds_exhaustive, mds_sampled, puncture_by_solve


def canonical_spec(field, n, r):
    return ExtGrsSpec(field, n, r, tuple(range(n - 1)), (1,) * n)


def all_subsets(n):
    items = list(range(1, n + 1))
    for size in range(n + 1):
        yield from (set(c) for c in combinations(items, size))


def test_mds_exhaustive_examples():
    h = parity_check(canonical_spec(GF(5), 4, 2))
    assert mds_exhaustive(h)
    repeated = from_rows(GF(5), [[1, 1, 2], [3, 3, 4]])
    assert not mds_exhaustive(repeated)
    # r = n - 1: the single-kernel case agrees with the rank test
    tall = parity_check(canonical_spec(GF(7), 4, 3))
    assert mds_exhaustive(tall) == (rank(tall) == 3)


def test_mds_guards():
    big = parity_check(canonical_spec(GF(16), 15, 2))
    with pytest.raises(UsageError):
        mds_exhaustive(big)
    assert mds_sampled(big, trials=50, seed=0)
    with pytest.raises(UsageError):
        mds_exhaustive(from_rows(GF(5), [[1], [2]]))


def test_codebook_basics():
    spec = canonical_spec(GF(2), 2, 1)
    assert codebook(spec, []) == {()}
    assert codebook(spec) == {(0, 0), (1, 1)}
    assert len(codebook(canonical_spec(GF(5), 4, 2))) == 25


def test_codebook_guard():
    with pytest.raises(UsageError):
        codebook(canonical_spec(GF(16), 16, 2))


def test_codebook_matches_puncture():
    spec = ExtGrsSpec(GF(5), 4, 2, (0, 1, 2), (1, 1, 1, 1))
    t = (1, 2, 4)
    assert codebook(spec, t) == codebook(puncture(spec, t))


def test_can_generate_projection():
    spec = canonical_spec(GF(5), 5, 2)
    assert can_generate(spec, [1, 2, 3, 5], spec, [2, 3])
    assert can_generate(spec, [1, 2], spec, [1, 2])


def test_can_generate_same_code_iff_enough_columns():
    # recovery of extra symbols needs at least k source symbols
    for q, n, r in [(5, 5, 2), (4, 5, 3), (3, 4, 2)]:
        spec = canonical_spec(GF(q), n, r)
        k = spec.k
        rng = random.Random(q)
        for _ in range(40):
            b = set(rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
            a = set(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
            if a <= b:
                continue
            assert can_generate(spec, b, spec, a) == (len(b) >= k)


def test_can_generate_across_codes():
    # same dimension, different codes: full-rank source restriction suffices
    src = canonical_spec(GF(7), 5, 2)
    dst = ExtGrsSpec(GF(7), 6, 3, (6, 5, 4, 3, 2), (1, 2, 3, 4, 5, 6))
    assert src.k == dst.k
    assert can_generate(src, [1, 2, 3], dst, [1, 2, 3, 4, 5, 6])
    assert not can_generate(src, [1, 2], dst, [1])


def test_can_generate_validation():
    a = canonical_spec(GF(5), 5, 2)
    b = canonical_spec(GF(7), 5, 2)
    with pytest.raises(UsageError):
        can_generate(a, [1], b, [1])
    c = canonical_spec(GF(5), 5, 3)
    with pytest.raises(UsageError):
        can_generate(a, [1], c, [1])
    with pytest.raises(UsageError):
        can_generate(a, [9], a, [1])


def test_puncture_matches_linear_solve():
    # Differential check of the closed-form restriction against the solve.
    rng = random.Random(2407)
    cases = 0
    for q in (7, 8, 11, 16, 256, 257):
        field = GF(q)
        for _ in range(70):
            n = rng.randint(3, min(q + 1, 12))
            r = rng.randint(1, n - 1)
            gamma = tuple(rng.sample(range(q), n - 1))
            w = tuple(rng.randrange(1, q) for _ in range(n))
            spec = ExtGrsSpec(field, n, r, gamma, w)
            size = rng.randint(spec.k + 1, n)
            t = rng.sample(range(1, n), size - 1) + [n]
            fast, slow = puncture(spec, t), puncture_by_solve(spec, t)
            assert (fast.n, fast.r, fast.gamma, fast.w) == (slow.n, slow.r, slow.gamma, slow.w)
            cases += 1
    assert cases >= 400
