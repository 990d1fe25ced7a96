import random

import pytest

from mdsconv.convert import (
    ConvertParams,
    access_report,
    build_split,
    split_convert,
    split_lower_bound,
    verify_plan,
)
from mdsconv.errors import CertificateError, CorruptionError, ParameterError, UsageError
from mdsconv.field import GF
from mdsconv import plandoc
from mdsconv.grs import encode, is_codeword, recover_erasures
from mdsconv.record import replace

PARAMS_7_TO_4_3 = ConvertParams(((10, 7),), ((6, 4), (5, 3)))


def random_input(plan, rng):
    spec = plan.initial_spec
    return encode(spec, tuple(rng.randrange(plan.field.q) for _ in range(spec.k)))


def test_build_split_example():
    plan = build_split(PARAMS_7_TO_4_3, GF(16))
    assert plan.privileged == 1
    assert plan.unchanged == ((1, 2, 3, 4), (5, 6, 7))
    assert plan.extra_reads == (9, 10)
    # the privileged final reads the other unchanged symbols plus V
    assert plan.reads == ((5, 6, 7, 9, 10), (5, 6, 7))
    report = access_report(plan)
    assert (report.rho_r, report.rho_w, report.rho) == (5, 4, 9)
    assert report.bound == split_lower_bound(PARAMS_7_TO_4_3).rho == 9
    assert report.optimal and report.stable


def test_split_convert_outputs():
    plan = build_split(PARAMS_7_TO_4_3, GF(16))
    zero_out, _ = split_convert(plan, (0,) * 10)
    assert all(out.symbols == (0,) * spec.n for out, spec in zip(zero_out, plan.final_specs))
    rng = random.Random(21)
    for _ in range(25):
        cw = random_input(plan, rng)
        outs, report = split_convert(plan, cw)
        for j, out in enumerate(outs, 1):
            spec = plan.final_specs[j - 1]
            assert is_codeword(spec, out.symbols)
            u = plan.unchanged[j - 1]
            assert out.symbols[: len(u)] == tuple(cw.symbols[p - 1] for p in u)
            known = {idx: out.symbols[idx - 1] for idx in range(1, spec.k + 1)}
            assert recover_erasures(spec, known).symbols == out.symbols
        assert report.rho_r == 5


def test_split_privileged_tiebreak():
    # equal savings: the smaller index wins
    params = ConvertParams(((11, 7),), ((7, 4), (5, 3)))
    plan = build_split(params, GF(16))
    assert plan.privileged == 1


def test_split_no_feasible_final():
    # r_I = 1 below every final redundancy: default approach everywhere
    params = ConvertParams(((7, 6),), ((5, 3), (5, 3)))
    plan = build_split(params, GF(8))
    assert plan.privileged is None
    assert plan.extra_reads == ()
    report = access_report(plan)
    assert report.per_initial_reads == (6,)
    assert report.rho == 6 + 4 == report.bound
    assert report.optimal
    rng = random.Random(22)
    cw = random_input(plan, rng)
    outs, _ = split_convert(plan, cw)
    for j, out in enumerate(outs, 1):
        assert is_codeword(plan.final_specs[j - 1], out.symbols)


def test_split_single_final_degenerate():
    params = ConvertParams(((10, 7),), ((9, 7),))
    plan = build_split(params, GF(16))
    assert plan.privileged == 1
    report = access_report(plan)
    assert report.rho_r == 2  # k_I - (k_F - r_F) = 7 - 5
    assert report.rho == 4 == report.bound
    rng = random.Random(23)
    cw = random_input(plan, rng)
    outs, _ = split_convert(plan, cw)
    assert is_codeword(plan.final_specs[0], outs[0].symbols)
    assert outs[0].symbols[:7] == tuple(cw.symbols[p - 1] for p in plan.unchanged[0])


def test_split_field_too_small():
    with pytest.raises(ParameterError, match="q >= 9"):
        build_split(PARAMS_7_TO_4_3, GF(8))


def test_split_requires_single_initial():
    with pytest.raises(UsageError):
        build_split(ConvertParams(((5, 3), (5, 3)), ((8, 6),)), GF(8))


def test_split_convert_rejects_corruption():
    plan = build_split(PARAMS_7_TO_4_3, GF(16))
    rng = random.Random(24)
    cw = list(random_input(plan, rng).symbols)
    cw[3] = plan.field.add(cw[3], 1)
    with pytest.raises(CorruptionError):
        split_convert(plan, tuple(cw))


def test_verify_plan_split():
    plan = build_split(PARAMS_7_TO_4_3, GF(16))
    results = verify_plan(plan)
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert "privileged restricted parity" in names


def test_verify_plan_split_catches_tampering():
    """A privileged final whose first multiplier is scaled no longer matches
    the restricted parity check derived on its first r_F coordinates; a
    document whose stored check has one entry changed is refused as it is
    read, naming the check's document key."""
    plan = build_split(PARAMS_7_TO_4_3, GF(16))
    w = plan.final_specs[0].w
    final = replace(plan.final_specs[0], w=(plan.field.mul(2, w[0]),) + w[1:])
    tampered = replace(plan, final_specs=(final, plan.final_specs[1]))
    results = dict((name, (ok, detail)) for name, ok, detail in verify_plan(tampered))
    assert results["privileged restricted parity"] == (
        False, "privileged final code does not match the restricted parity block")
    doc = plandoc.plan_to_doc(plan)
    row = doc["punctured_parity"][1].split()
    row[0] = str(plan.field.add(int(row[0]), 1))
    doc["punctured_parity"][1] = " ".join(row)
    with pytest.raises(CertificateError, match="^punctured_parity: the document stores a matrix"):
        plandoc.plan_from_doc(doc)


def test_non_privileged_reads_must_be_the_unchanged_symbols():
    plan = build_split(PARAMS_7_TO_4_3, GF(16))
    assert plan.privileged == 1 and plan.reads[1] == plan.unchanged[1] == (5, 6, 7)
    with pytest.raises(UsageError, match="not privileged"):
        replace(plan, reads=(plan.reads[0], (6, 7, 8)))
    unprivileged = build_split(ConvertParams(((7, 6),), ((5, 3), (5, 3))), GF(8))
    assert unprivileged.privileged is None
    with pytest.raises(UsageError, match="not privileged"):
        replace(unprivileged, reads=((1, 2, 7), unprivileged.reads[1]))


def test_point_draw_independent_of_field_order():
    big = build_split(PARAMS_7_TO_4_3, GF(2147483647))
    small = build_split(PARAMS_7_TO_4_3, GF(16))
    assert big.initial_spec.gamma == small.initial_spec.gamma
    assert [s.gamma for s in big.final_specs] == [s.gamma for s in small.final_specs]
    assert big.privileged == small.privileged == 1
