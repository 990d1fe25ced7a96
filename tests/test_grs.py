import random
from itertools import combinations

import pytest

from mdsconv.convert import ConvertParams, build_merge, build_split, merge_params
from mdsconv.errors import CorruptionError, InsufficientDataError, UsageError
from mdsconv.field import GF
from mdsconv import linalg, oracle
from mdsconv.grs import (
    ExtGrsSpec,
    encode,
    generator,
    is_codeword,
    parity_check,
    puncture,
    recover_erasures,
    spec_from_dict,
    spec_to_dict,
)
from mdsconv.record import replace

from test_acceptance import MERGE_MATRIX, SPLIT_MATRIX, SPLIT_MATRIX_INFEASIBLE, smallest_admissible_field

GF5 = GF(5)
SPEC5 = ExtGrsSpec(GF5, 4, 2, (0, 1, 2), (1, 1, 1, 1))


def canonical_spec(field, n, r):
    return ExtGrsSpec(field, n, r, tuple(range(n - 1)), (1,) * n)


def random_spec(field, n, r, rng):
    gamma = tuple(rng.sample(range(field.q), n - 1))
    w = tuple(rng.randrange(1, field.q) for _ in range(n))
    return ExtGrsSpec(field, n, r, gamma, w)


def random_codeword(spec, rng):
    return encode(spec, tuple(rng.randrange(spec.field.q) for _ in range(spec.k)))


def test_spec_validation():
    with pytest.raises(UsageError):
        ExtGrsSpec(GF5, 4, 0, (0, 1, 2), (1, 1, 1, 1))
    with pytest.raises(UsageError):
        ExtGrsSpec(GF5, 4, 4, (0, 1, 2), (1, 1, 1, 1))
    with pytest.raises(UsageError):
        ExtGrsSpec(GF5, 4, 2, (0, 1, 1), (1, 1, 1, 1))  # repeated gamma
    with pytest.raises(UsageError):
        ExtGrsSpec(GF5, 4, 2, (0, 1, 2), (1, 0, 1, 1))  # zero multiplier
    with pytest.raises(UsageError):
        ExtGrsSpec(GF5, 4, 2, (0, 1), (1, 1, 1, 1))


def test_parity_check_examples():
    assert parity_check(SPEC5).to_lists() == [[1, 1, 1, 0], [0, 1, 2, 1]]
    single = canonical_spec(GF(7), 4, 1)
    assert parity_check(single).rows == 1
    for n, r in [(5, 2), (6, 3), (4, 1)]:
        spec = canonical_spec(GF(8), n, r)
        h = parity_check(spec)
        assert (h.rows, h.cols) == (r, n)


def test_generator():
    g = generator(SPEC5)
    h = parity_check(SPEC5)
    assert linalg.matmul(g, linalg.transpose(h)) == linalg.zeros(GF5, 2, 2)
    assert linalg.rank(g) == SPEC5.k == 2
    assert SPEC5.k + SPEC5.r == SPEC5.n


def test_encode():
    zero = encode(SPEC5, (0, 0))
    assert zero.symbols == (0, 0, 0, 0)
    g = generator(SPEC5)
    assert encode(SPEC5, (1, 0)).symbols == g.row(0)
    assert encode(SPEC5, (0, 1)).symbols == g.row(1)
    rng = random.Random(2)
    for _ in range(20):
        cw = random_codeword(SPEC5, rng)
        assert is_codeword(SPEC5, cw.symbols)
    with pytest.raises(UsageError):
        encode(SPEC5, (1, 2, 3))


def test_is_codeword():
    assert is_codeword(SPEC5, (0, 0, 0, 0))
    g = generator(SPEC5)
    for i in range(g.rows):
        assert is_codeword(SPEC5, g.row(i))
    row = list(g.row(0))
    row[2] = GF5.add(row[2], 1)
    assert not is_codeword(SPEC5, tuple(row))
    assert not is_codeword(SPEC5, (0, 0, 0))


def test_recover_erasures_identity_and_zero():
    rng = random.Random(4)
    cw = random_codeword(SPEC5, rng)
    known = {i + 1: s for i, s in enumerate(cw.symbols)}
    assert recover_erasures(SPEC5, known).symbols == cw.symbols
    assert recover_erasures(SPEC5, {1: 0, 2: 0}).symbols == (0, 0, 0, 0)


def test_recover_erasures_restores_any_r_erasures():
    rng = random.Random(9)
    for q, n, r in [(5, 4, 2), (8, 6, 3), (13, 9, 4)]:
        spec = random_spec(GF(q), n, r, rng)
        for _ in range(10):
            cw = random_codeword(spec, rng)
            erased = set(rng.sample(range(1, n + 1), r))
            known = {p: cw.symbols[p - 1] for p in range(1, n + 1) if p not in erased}
            assert recover_erasures(spec, known).symbols == cw.symbols


def test_recover_erasures_errors():
    with pytest.raises(InsufficientDataError):
        recover_erasures(SPEC5, {1: 1})
    with pytest.raises(UsageError):
        recover_erasures(SPEC5, {0: 1, 2: 2})
    # three known symbols not on any codeword: force contradiction on full set
    rng = random.Random(6)
    cw = random_codeword(SPEC5, rng)
    bad = dict(enumerate(cw.symbols, 1))
    bad[4] = GF5.add(bad[4], 1)
    with pytest.raises(CorruptionError):
        recover_erasures(SPEC5, bad)


def test_puncture_full_set_is_identity_up_to_scaling():
    spec = canonical_spec(GF(8), 6, 3)
    assert puncture(spec, range(1, 7)) == spec  # all-ones w stays all-ones
    scaled = replace(spec, w=(3, 1, 1, 1, 1, 2))
    p = puncture(scaled, range(1, 7))
    inv_last = GF(8).inv(2)
    assert p.w == tuple(GF(8).mul(inv_last, x) for x in scaled.w)
    assert p.gamma == scaled.gamma and p.r == scaled.r


def test_puncture_frozen_example():
    p = puncture(SPEC5, [1, 2, 4])
    assert (p.n, p.r) == (3, 1)
    assert p.gamma == (0, 1)
    assert p.w == (3, 4, 1)


def test_puncture_single_redundancy():
    spec = canonical_spec(GF(8), 6, 3)
    p = puncture(spec, [1, 2, 3, 6])
    assert p.r == 1 and p.k == spec.k


def test_puncture_validation():
    with pytest.raises(UsageError):
        puncture(SPEC5, [1, 2, 3])  # misses the extension position
    with pytest.raises(UsageError):
        puncture(SPEC5, [2, 4])  # too small
    with pytest.raises(UsageError):
        puncture(SPEC5, [0, 4])


def test_puncture_codebook_equality_small():
    rng = random.Random(8)
    for q, n, r in [(5, 4, 2), (5, 5, 3), (7, 5, 2), (4, 5, 3)]:
        field = GF(q)
        spec = random_spec(field, n, r, rng)
        k = spec.k
        for size in range(k + 1, n + 1):
            for rest in combinations(range(1, n), size - 1):
                t = tuple(rest) + (n,)
                assert oracle.codebook(spec, t) == oracle.codebook(puncture(spec, t))


def test_mds_property():
    rng = random.Random(12)
    # exhaustive for short codes
    for q, n, r in [(5, 4, 2), (8, 7, 3), (11, 10, 4)]:
        spec = random_spec(GF(q), n, r, rng)
        assert oracle.mds_exhaustive(parity_check(spec))
    # random points and multipliers (build_merge and build_split draw the
    # leading ones) over GF(p) and GF(2^m): exhaustive inside the guard
    for q in (3, 4, 7, 13, 16, 17, 64, 256):
        field = GF(q)
        for _ in range(4):
            n = rng.randrange(2, min(q + 1, oracle.MDS_MAX_LENGTH) + 1)
            spec = random_spec(field, n, rng.randrange(1, n), rng)
            assert oracle.mds_exhaustive(parity_check(spec)), spec
    # sampled beyond the guard
    for q, n, r in [(31, 20, 5), (32, 25, 6), (256, 40, 8)]:
        spec = random_spec(GF(q), n, r, rng)
        assert oracle.mds_sampled(parity_check(spec), trials=200, seed=0), spec


def test_spec_dict_roundtrip():
    doc = spec_to_dict(SPEC5)
    assert doc == {"q": 5, "p": 5, "m": 1, "n": 4, "r": 2, "gamma": [0, 1, 2], "w": [1, 1, 1, 1]}
    assert spec_from_dict(doc) == SPEC5
    ext = canonical_spec(GF(8), 5, 2)
    assert spec_from_dict(spec_to_dict(ext)) == ext
    with pytest.raises(UsageError):
        spec_from_dict({"q": 5})
    with pytest.raises(UsageError):
        spec_from_dict({**doc, "p": 2})


def test_systematic_encode_matches_generator_product():
    """encode is message . G, and G = [A | I_k] is the canonical kernel basis."""
    rng = random.Random(41)
    for q in (3, 7, 8, 13, 16, 256, 257, 1 << 16):
        f = GF(q)
        for _ in range(6):
            n = rng.randrange(2, min(q, 14) + 1)
            spec = random_spec(f, n, rng.randrange(1, n), rng)
            g = generator(spec)
            assert g == linalg.right_kernel_basis(parity_check(spec))
            for t in range(spec.k):
                assert g.row(t)[spec.r :] == tuple(int(u == t) for u in range(spec.k))
            for _ in range(4):
                msg = tuple(rng.randrange(q) for _ in range(spec.k))
                cw = encode(spec, msg)
                assert cw.symbols == linalg.vecmat(msg, g)
                assert cw.symbols[spec.r :] == msg


def test_generator_checks_systematic_pivots(monkeypatch):
    """The closed form needs no pivot check: the leading r columns of every
    parity check are its rref pivots, so [A | I_k] is the canonical kernel
    basis, and `generator` does not read the parity check it agrees with."""
    import mdsconv.grs as grs

    spec = ExtGrsSpec(GF(11), 5, 2, (3, 1, 4, 5), (2, 7, 1, 8, 2))
    h = parity_check(spec)
    assert linalg.rref(h)[1] == (0, 1)
    bad = linalg.from_rows(GF(11), [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]])
    monkeypatch.setattr(grs, "parity_check", lambda _spec: bad)
    grs.generator.cache_clear()
    try:
        assert generator(spec) == linalg.right_kernel_basis(h)
    finally:
        grs.generator.cache_clear()


def _acceptance_codes():
    """Every code of the acceptance plans: initial and final codes, and the
    restrictions their restricted parity checks come from."""
    for shapes, rf in MERGE_MATRIX:
        params = merge_params(shapes, rf)
        plan = build_merge(params, smallest_admissible_field(max(max(params.n_initial), params.n_final[0]) - 1))
        yield from plan.initial_specs
        yield plan.final_spec
        yield from (puncture(plan.initial_specs[i - 1], plan.support(i)) for i in plan.reduced)
    for (ni, ki), finals in SPLIT_MATRIX + SPLIT_MATRIX_INFEASIBLE:
        params = ConvertParams(((ni, ki),), tuple(finals))
        plan = build_split(params, smallest_admissible_field(max(ni, max(n for n, _ in finals)) - 1))
        yield plan.initial_spec
        yield from plan.final_specs
        if plan.privileged is not None:
            yield puncture(plan.initial_spec, plan.support())


def _random_codes():
    """Seeded codes over fields of every kind, with r = 1, r = n - 1 and r
    between; every code has the extension position, whose generator row is
    the closed form's second case."""
    rng = random.Random(43)
    for q in (2, 4, 8, 16, 256, 257, 1 << 16, 1000003):
        f = GF(q)
        top = min(q + 1, 16)
        for n in range(2, top + 1):
            for r in sorted({1, n - 1, rng.randrange(1, n)}):
                yield random_spec(f, n, r, rng)


def test_generator_closed_form_matches_kernel_basis():
    """The closed-form generator equals the canonical kernel basis of the
    parity check, from `rref`, on every acceptance code and on seeded codes."""
    codes = list(_acceptance_codes()) + list(_random_codes())
    for q in (2, 4, 8, 16, 256, 257, 1 << 16, 1000003):
        kinds = {(spec.r == 1, spec.r == spec.n - 1) for spec in codes if spec.field.q == q}
        assert {(True, False), (False, True)} <= kinds, q
    for spec in codes:
        assert generator(spec) == linalg.right_kernel_basis(parity_check(spec)), spec
