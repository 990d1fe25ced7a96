import random

import pytest

from mdsconv.convert import (
    ConvertParams,
    access_report,
    build_merge,
    merge_convert,
    merge_lower_bound,
    merge_params,
    verify_optimal_structure,
    verify_plan,
)
from mdsconv.errors import CertificateError, CorruptionError, ParameterError, UsageError
from mdsconv.field import GF
from mdsconv import oracle, plandoc
from mdsconv.grs import encode, is_codeword, parity_check, recover_erasures
from mdsconv.record import replace


def random_inputs(plan, rng):
    return [
        encode(spec, tuple(rng.randrange(plan.field.q) for _ in range(spec.k)))
        for spec in plan.initial_specs
    ]


def oracle_completion(plan, inputs):
    """MDS-unique final codeword recovered from the unchanged symbols alone."""
    known = {}
    coord = 0
    for i, spec in enumerate(plan.initial_specs, 1):
        for pos in plan.unchanged[i - 1]:
            coord += 1
            known[coord] = inputs[i - 1].symbols[pos - 1]
    return recover_erasures(plan.final_spec, known)


PLAN_GF8 = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))


def test_build_merge_reduced_case():
    plan = PLAN_GF8
    assert sorted(plan.reduced) == [1, 2]
    assert (plan.final_spec.n, plan.final_spec.k) == (8, 6)
    assert oracle.mds_exhaustive(parity_check(plan.final_spec))
    assert verify_optimal_structure(plan).ok
    assert plan.unchanged == ((1, 2, 3), (1, 2, 3))
    assert plan.reads == ((4, 5), (4, 5))


def test_build_merge_default_case():
    # r_F = 3 exceeds every k: no code qualifies for reduced reads
    params = merge_params([(4, 2), (4, 2)], 3)
    plan = build_merge(params, GF(8))
    assert plan.reduced == frozenset()
    assert plan.reads == plan.unchanged
    report = access_report(plan)
    assert (report.rho_r, report.rho_w, report.rho) == (4, 3, 7)
    assert report.bound == 7 and report.optimal
    rng = random.Random(0)
    inputs = random_inputs(plan, rng)
    out, _ = merge_convert(plan, inputs)
    assert is_codeword(plan.final_spec, out.symbols)
    assert out.symbols == oracle_completion(plan, inputs).symbols


def test_build_merge_mixed_classification():
    # code 1 reduced, codes 2 and 3 on the default approach
    params = merge_params([(5, 3), (4, 2), (6, 2)], 2)
    plan = build_merge(params, GF(8))
    assert sorted(plan.reduced) == [1]
    assert verify_optimal_structure(plan).ok
    assert oracle.mds_exhaustive(parity_check(plan.final_spec))
    report = access_report(plan)
    bound = merge_lower_bound(params)
    assert report.per_initial_reads == bound.per_code_reads == (2, 2, 2)
    assert report.rho == bound.rho
    rng = random.Random(1)
    inputs = random_inputs(plan, rng)
    out, _ = merge_convert(plan, inputs)
    assert out.symbols == oracle_completion(plan, inputs).symbols


def test_build_merge_field_too_small():
    with pytest.raises(ParameterError, match="q >= 7"):
        build_merge(merge_params([(5, 3), (5, 3)], 2), GF(5))


def test_build_merge_requires_single_final():
    with pytest.raises(UsageError):
        build_merge(ConvertParams(((8, 6),), ((5, 3), (5, 3))), GF(8))


def test_merge_convert_zero_and_random():
    plan = PLAN_GF8
    zero = [(0,) * spec.n for spec in plan.initial_specs]
    out, report = merge_convert(plan, zero)
    assert out.symbols == (0,) * 8
    assert (report.rho_r, report.rho_w, report.rho) == (4, 2, 6)
    assert report.bound == 6 and report.optimal and report.stable
    rng = random.Random(3)
    for _ in range(50):
        inputs = random_inputs(plan, rng)
        got, _ = merge_convert(plan, inputs)
        assert is_codeword(plan.final_spec, got.symbols)
        assert got.symbols == oracle_completion(plan, inputs).symbols


def test_merge_convert_preserves_unchanged():
    plan = PLAN_GF8
    rng = random.Random(4)
    inputs = random_inputs(plan, rng)
    out, _ = merge_convert(plan, inputs)
    for idx, (code, pos) in enumerate(plan.final_layout()):
        if code <= plan.params.t1:
            assert out.symbols[idx] == inputs[code - 1].symbols[pos - 1]


def test_merge_convert_is_linear():
    plan = PLAN_GF8
    f = plan.field
    rng = random.Random(5)
    a, b = random_inputs(plan, rng), random_inputs(plan, rng)
    alpha = rng.randrange(1, f.q)
    combo = [
        tuple(f.add(f.mul(alpha, x), y) for x, y in zip(ca.symbols, cb.symbols))
        for ca, cb in zip(a, b)
    ]
    out_a, _ = merge_convert(plan, a)
    out_b, _ = merge_convert(plan, b)
    out_combo, _ = merge_convert(plan, combo)
    expected = tuple(
        f.add(f.mul(alpha, x), y) for x, y in zip(out_a.symbols, out_b.symbols)
    )
    assert out_combo.symbols == expected


def test_merge_convert_rejects_corruption():
    plan = PLAN_GF8
    rng = random.Random(6)
    inputs = [cw.symbols for cw in random_inputs(plan, rng)]
    bad = list(inputs)
    tampered = list(bad[0])
    tampered[0] = plan.field.add(tampered[0], 1)
    bad[0] = tuple(tampered)
    with pytest.raises(CorruptionError):
        merge_convert(plan, bad)
    with pytest.raises(UsageError):
        merge_convert(plan, inputs[:1])


def test_oversized_unchanged_rejected():
    plan = PLAN_GF8
    grown = ((1, 2, 3, 4), plan.unchanged[1])
    with pytest.raises(UsageError, match="at most k"):
        replace(plan, unchanged=grown)


def test_verify_structure_diagnostics():
    plan = PLAN_GF8
    assert verify_optimal_structure(plan).ok

    # a final multiplier at code 1's first unchanged symbol scaled: the
    # restricted parity check, derived to match the final parity check on
    # two of code 1's unchanged columns, misses the third
    w = plan.final_spec.w
    final = replace(plan.final_spec, w=(plan.field.mul(2, w[0]),) + w[1:])
    check = verify_optimal_structure(replace(plan, final_spec=final))
    assert not check.ok and "block-mismatch: code 1" in check.diagnostic

    # an oversized read set
    widened = replace(plan, reads=((3, 4, 5), plan.reads[1]))
    check = verify_optimal_structure(widened)
    assert not check.ok and "read-cardinality" in check.diagnostic

    # a read set overlapping the unchanged set
    overlapping = replace(plan, reads=((3, 5), plan.reads[1]))
    check = verify_optimal_structure(overlapping)
    assert not check.ok and "overlap" in check.diagnostic


def test_verify_structure_rejects_wrong_classification():
    plan = build_merge(merge_params([(5, 3), (4, 2)], 2), GF(8))
    assert sorted(plan.reduced) == [1]
    # Outside S, code 1 must read its unchanged symbols.
    wrong = replace(plan, reduced=frozenset(), reads=(plan.unchanged[0], plan.reads[1]))
    check = verify_optimal_structure(wrong)
    assert not check.ok and "classification" in check.diagnostic


def test_reads_outside_s_must_be_the_unchanged_symbols():
    # Lowering reads a code outside S through its unchanged symbols, so a
    # plan declaring other reads for it would report reads it never makes.
    plan = build_merge(merge_params([(5, 3), (4, 2)], 2), GF(8))
    assert sorted(plan.reduced) == [1] and plan.reads[1] == plan.unchanged[1] == (1, 2)
    with pytest.raises(UsageError, match="outside S"):
        replace(plan, reads=(plan.reads[0], (3, 4)))


def test_verify_structure_catches_tampered_final_block():
    """A document's final block must be the final parity check's columns;
    one entry changed is refused as the plan is read, naming the block's
    key and code."""
    plan = build_merge(merge_params([(5, 3), (4, 2)], 2), GF(8))
    doc = plandoc.plan_to_doc(plan)
    (entry,) = doc["final_unchanged_blocks"]
    row = entry["matrix"][1].split()
    row[0] = str(plan.field.add(int(row[0]), 1))
    entry["matrix"][1] = " ".join(row)
    with pytest.raises(CertificateError) as caught:
        plandoc.plan_from_doc(doc)
    assert str(caught.value) == (
        "final_unchanged_blocks: code 2: the document stores a matrix that the codes and grid do not give")


def test_verify_plan_merge():
    results = verify_plan(PLAN_GF8)
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert "optimal structure" in names


def test_merge_smallest_binary_field():
    # GF(2) only admits length <= 3; the merge of two [2,1] codes still works
    params = merge_params([(2, 1), (2, 1)], 1)
    plan = build_merge(params, GF(2))
    assert plan.reduced == frozenset()
    report = access_report(plan)
    assert report.rho == 3 == report.bound
    out, _ = merge_convert(plan, [(1, 1), (0, 0)])
    assert is_codeword(plan.final_spec, out.symbols)


def test_verify_plan_and_convert_long_final():
    # n_F = 16 is past the oracle's exhaustive guard; verify needs no oracle
    params = merge_params([(9, 7), (9, 7)], 2)
    plan = build_merge(params, GF(16))
    results = verify_plan(plan)
    assert all(ok for _, ok, _ in results)
    rng = random.Random(15)
    inputs = random_inputs(plan, rng)
    out, report = merge_convert(plan, inputs)
    assert out.symbols == oracle_completion(plan, inputs).symbols
    assert report.optimal and report.rho == 2 + 2 + 2


def test_point_draw_independent_of_field_order():
    # Points are the leading integers whatever q is, and a prime field of
    # order 2^31 - 1 plans as quickly as GF(8).
    params = merge_params([(5, 3), (5, 3)], 2)
    big = build_merge(params, GF(2147483647))
    for small in (PLAN_GF8, build_merge(params, GF(16))):
        assert [s.gamma for s in big.initial_specs] == [s.gamma for s in small.initial_specs]
        assert big.final_spec.gamma == small.final_spec.gamma
    assert verify_optimal_structure(big).ok
