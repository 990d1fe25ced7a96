"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete."""

import random
from itertools import combinations
from pathlib import Path

import pytest

from mdsconv.convert import (
    ConvertParams,
    MergePlan,
    access_report,
    build_merge,
    build_split,
    general_convert,
    merge_convert,
    merge_lower_bound,
    merge_params,
    split_convert,
    split_lower_bound,
    verify_optimal_structure,
    verify_plan,
)
from mdsconv.field import GF
from mdsconv.grs import ExtGrsSpec, encode, generator, parity_check, puncture, recover_erasures
from mdsconv import linalg, oracle, plandoc

FIXTURES = Path(__file__).parent / "fixtures"

# 25 merge-parameter cases with n_F <= 12: (initial shapes, final redundancy)
MERGE_MATRIX = [
    ([(5, 3), (5, 3)], 2),
    ([(4, 2), (4, 2)], 3),
    ([(5, 3), (6, 4)], 2),
    ([(4, 2), (4, 2), (4, 2)], 2),
    ([(5, 3), (5, 3), (5, 3)], 2),
    ([(6, 3), (6, 3)], 3),
    ([(6, 3), (6, 3)], 2),
    ([(7, 4), (5, 3)], 3),
    ([(4, 3), (4, 3)], 1),
    ([(6, 2), (6, 2)], 2),
    ([(4, 2), (5, 3), (6, 4)], 1),
    ([(8, 4), (8, 4)], 4),
    ([(8, 4), (8, 4)], 3),
    ([(9, 5), (5, 3)], 2),
    ([(10, 6), (4, 2)], 2),
    ([(4, 2), (4, 2), (4, 2), (4, 2)], 2),
    ([(5, 3), (5, 3), (5, 3), (4, 2)], 1),
    ([(11, 6), (6, 4)], 2),
    ([(6, 4), (6, 4)], 2),
    ([(7, 3), (7, 3)], 4),
    ([(7, 3), (7, 3)], 3),
    ([(7, 3), (7, 3)], 2),
    ([(6, 3), (5, 3), (4, 3)], 2),
    ([(5, 4), (6, 5)], 1),
    ([(12, 2), (4, 2)], 2),
]

# split cases with a feasible favoured final
SPLIT_MATRIX = [
    ((10, 7), [(6, 4), (5, 3)]),
    ((12, 8), [(6, 4), (6, 4)]),
    ((9, 6), [(5, 3), (5, 3)]),
    ((8, 6), [(5, 4), (4, 2)]),
    ((10, 6), [(4, 2), (4, 2), (4, 2)]),
    ((11, 7), [(7, 4), (5, 3)]),
    ((9, 7), [(5, 4), (5, 3)]),
    ((14, 9), [(6, 4), (7, 5)]),
    ((10, 7), [(9, 7)]),
    ((12, 7), [(5, 3), (6, 4)]),
]

# and cases where no final is feasible (r_I below every r_F)
SPLIT_MATRIX_INFEASIBLE = [
    ((7, 6), [(5, 3), (5, 3)]),
    ((5, 4), [(4, 2), (4, 2)]),
]


def smallest_admissible_field(threshold):
    """The smallest supported field order (prime or power of two) >= threshold."""
    q = max(2, threshold)
    while True:
        try:
            return GF(q)
        except Exception:
            q += 1


def report_line(criterion, ok):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    assert ok, criterion


@pytest.fixture(scope="module")
def merge_plans():
    plans = []
    for shapes, rf in MERGE_MATRIX:
        params = merge_params(shapes, rf)
        field = smallest_admissible_field(max(max(params.n_initial), params.n_final[0]) - 1)
        plans.append(build_merge(params, field))
    return plans


@pytest.fixture(scope="module")
def split_plans():
    plans = []
    for (ni, ki), finals in SPLIT_MATRIX:
        params = ConvertParams(((ni, ki),), tuple(finals))
        plans.append(build_split(params, smallest_admissible_field(max(ni, max(n for n, _ in finals)) - 1)))
    return plans


def oracle_mds(spec):
    """The brute-force MDS check: exhaustive inside the oracle's guard, sampled beyond it."""
    h = parity_check(spec)
    if spec.n <= oracle.MDS_MAX_LENGTH:
        return oracle.mds_exhaustive(h)
    return oracle.mds_sampled(h, trials=200, seed=spec.n)


def oracle_completion(plan, inputs):
    known = {}
    coord = 0
    for i in range(1, plan.params.t1 + 1):
        for pos in plan.unchanged[i - 1]:
            coord += 1
            known[coord] = inputs[i - 1][pos - 1]
    return recover_erasures(plan.final_spec, known).symbols


def test_criterion_1_worked_two_by_two_conversion():
    """Bundled (2,2) hand plan reports rho_r = 4, rho_w = 5 exactly."""
    plan = plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))
    rng = random.Random(2024)
    ok = True
    for _ in range(10):
        inputs = [
            encode(spec, tuple(rng.randrange(plan.field.q) for _ in range(spec.k)))
            for spec in plan.initial_specs
        ]
        outs, rep = general_convert(plan, inputs)
        ok &= (rep.rho_r, rep.rho_w) == (4, 5)
        for j in range(1, plan.params.t2 + 1):
            for idx, (code, pos) in enumerate(plan.layouts[j - 1]):
                if code <= plan.params.t1:
                    ok &= outs[j - 1].symbols[idx] == inputs[code - 1].symbols[pos - 1]
    report_line("criterion 1: bundled (2,2) plan reports rho_r=4, rho_w=5 with unchanged symbols intact", ok)


def test_criterion_2_merge_construction_validity(merge_plans):
    """Every matrix case yields an MDS final code and a structurally optimal plan."""
    passed = 0
    for plan in merge_plans:
        final_ok = oracle.mds_exhaustive(parity_check(plan.final_spec))
        structure_ok = verify_optimal_structure(plan).ok
        initial_ok = all(
            oracle.mds_exhaustive(parity_check(spec)) for spec in plan.initial_specs
        )
        if final_ok and structure_ok and initial_ok:
            passed += 1
    report_line(f"criterion 2: merge construction validity ({passed}/{len(merge_plans)} cases)", passed == len(merge_plans))


def test_criterion_3_merge_access_optimality(merge_plans):
    """Access report equals the lower bound, per-code reads meet their minimums."""
    ok = True
    for plan in merge_plans:
        rep = access_report(plan)
        bound = merge_lower_bound(plan.params)
        ok &= rep.rho == bound.rho
        ok &= rep.per_initial_reads == bound.per_code_reads
        ok &= bool(rep.optimal)
    report_line("criterion 3: merge access cost equals the lower bound on all cases", ok)


def test_criterion_4_merge_conversion_oracle(merge_plans):
    """200 random conversions per plan agree with the erasure-recovery completion."""
    ok = True
    for plan in merge_plans:
        rng = random.Random(plan.final_spec.n * 1000 + plan.field.q)
        q = plan.field.q
        for _ in range(200):
            inputs = [
                encode(spec, tuple(rng.randrange(q) for _ in range(spec.k))).symbols
                for spec in plan.initial_specs
            ]
            out, _ = merge_convert(plan, inputs)
            if out.symbols != oracle_completion(plan, inputs):
                ok = False
                break
        if not ok:
            break
    report_line("criterion 4: 200 random conversions per plan match the MDS-unique completion", ok)


def test_criterion_5_puncture_codebook_equality():
    """Restricted codebooks equal the codebooks of the restricted codes, q <= 7, n <= 6."""
    rng = random.Random(55)
    ok = True
    checked = 0
    for q in (2, 3, 4, 5, 7):
        field = GF(q)
        for n in range(2, min(6, q + 1) + 1):
            for r in range(1, n):
                canonical = ExtGrsSpec(field, n, r, tuple(range(n - 1)), (1,) * n)
                gamma = tuple(rng.sample(range(q), n - 1))
                w = tuple(rng.randrange(1, q) for _ in range(n))
                variants = [canonical, ExtGrsSpec(field, n, r, gamma, w)]
                k = n - r
                for spec in variants:
                    for size in range(k + 1, n + 1):
                        for rest in combinations(range(1, n), size - 1):
                            t = tuple(rest) + (n,)
                            if oracle.codebook(spec, t) != oracle.codebook(puncture(spec, t)):
                                ok = False
                            checked += 1
    report_line(f"criterion 5: puncturing preserves codebooks ({checked} restrictions checked)", ok)


def test_plan_restrictions_match_linear_solve(merge_plans, split_plans):
    """Closed-form restrictions of every matrix plan equal the linear-solve oracle."""
    for plan in merge_plans:
        for i in sorted(plan.reduced):
            spec, support = plan.initial_specs[i - 1], plan.support(i)
            assert puncture(spec, support) == oracle.puncture_by_solve(spec, support)
    for plan in split_plans:
        spec, support = plan.initial_spec, plan.support()
        assert puncture(spec, support) == oracle.puncture_by_solve(spec, support)


def test_oracle_confirms_verify_mds_lines(merge_plans, split_plans):
    """verify's MDS lines, taken from the extended-GRS invariant, agree with
    the brute-force check on every code of every matrix plan."""
    checked = 0
    ok = True
    for plan in merge_plans + split_plans:
        if isinstance(plan, MergePlan):
            codes = plan.initial_specs + (plan.final_spec,)
        else:
            codes = (plan.initial_spec,) + plan.final_specs
        lines = [passed for name, passed, _ in verify_plan(plan) if name.endswith(" MDS")]
        ok &= lines == [oracle_mds(spec) for spec in codes] == [True] * len(codes)
        checked += len(codes)
    report_line(f"verify MDS lines match the brute-force oracle ({checked} codes)", ok)


def test_verify_plan_needs_no_oracle(merge_plans, split_plans, monkeypatch):
    """verify_plan passes every line of a merge, a split and the 2x2 plan with the oracle disabled."""

    def disabled(*args, **kwargs):
        raise AssertionError("verify_plan called the brute-force oracle")

    monkeypatch.setattr(oracle, "mds_exhaustive", disabled)
    monkeypatch.setattr(oracle, "mds_sampled", disabled)
    general = plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))
    for plan in (merge_plans[0], split_plans[0], general):
        results = verify_plan(plan)
        assert results and all(passed for _, passed, _ in results), results


def test_criterion_6_split_optimality():
    """Distinct reads meet the split read bound; total cost meets the bound."""
    ok = True
    for (ni, ki), finals in SPLIT_MATRIX:
        params = ConvertParams(((ni, ki),), tuple(finals))
        field = smallest_admissible_field(max(ni, max(n for n, _ in finals)) - 1)
        plan = build_split(params, field)
        ok &= plan.privileged is not None
        bound = split_lower_bound(params)
        rng = random.Random(ni * 100 + ki)
        cw = encode(plan.initial_spec, tuple(rng.randrange(field.q) for _ in range(ki)))
        outs, rep = split_convert(plan, cw)
        distinct_reads = len(set().union(*(set(rp) for rp in plan.reads)))
        ok &= distinct_reads == bound.rho_r == rep.rho_r
        ok &= rep.rho == bound.rho
        ok &= bool(rep.optimal)
    for (ni, ki), finals in SPLIT_MATRIX_INFEASIBLE:
        params = ConvertParams(((ni, ki),), tuple(finals))
        field = smallest_admissible_field(max(ni, max(n for n, _ in finals)) - 1)
        plan = build_split(params, field)
        ok &= plan.privileged is None
        rep = access_report(plan)
        ok &= rep.rho_r == ki
        ok &= rep.rho == split_lower_bound(params).rho
    report_line("criterion 6: split plans meet the read and total access bounds exactly", ok)


def test_criterion_7_uniform_closed_forms():
    """Bounds reduce to the four uniform-parameter closed forms, 100 cases each."""
    rng = random.Random(77)
    ok = True
    # identical initial codes
    for _ in range(100):
        t1 = rng.randrange(2, 6)
        k = rng.randrange(1, 9)
        r = rng.randrange(1, 7)
        rf = rng.randrange(1, 8)
        got = merge_lower_bound(merge_params([(k + r, k)] * t1, rf)).rho
        want = t1 * rf + rf if rf <= min(k, r) else t1 * k + rf
        ok &= got == want
    # equal initial redundancies
    for _ in range(100):
        t1 = rng.randrange(2, 6)
        r = rng.randrange(1, 7)
        ks = [rng.randrange(1, 9) for _ in range(t1)]
        rf = rng.randrange(1, 8)
        got = merge_lower_bound(merge_params([(k + r, k) for k in ks], rf)).rho
        if rf <= r:
            want = sum(rf if rf <= k else k for k in ks) + rf
        else:
            want = sum(ks) + rf
        ok &= got == want
    # identical final codes (initial redundancy differing from the finals')
    done = 0
    while done < 100:
        t2 = rng.randrange(2, 6)
        k = rng.randrange(1, 7)
        r = rng.randrange(1, 6)
        ri = rng.randrange(1, 9)
        if ri == r:
            continue
        got = split_lower_bound(
            ConvertParams(((t2 * k + ri, t2 * k),), ((k + r, k),) * t2)
        ).rho
        want = (t2 - 1) * k + min(r, k) + t2 * r if ri > r else t2 * (k + r)
        ok &= got == want
        done += 1
    # equal final redundancies
    for _ in range(100):
        t2 = rng.randrange(2, 6)
        rf = rng.randrange(1, 6)
        kfs = [rng.randrange(1, 8) for _ in range(t2)]
        ri = rng.randrange(1, 9)
        got = split_lower_bound(
            ConvertParams(((sum(kfs) + ri, sum(kfs)),), tuple((k + rf, k) for k in kfs))
        ).rho
        best = max(kfs) - rf if rf <= ri else 0
        want = sum(kfs) - max(0, best) + t2 * rf
        ok &= got == want
    report_line("criterion 7: bounds match the uniform-parameter closed forms (100 cases each)", ok)


def test_criterion_8_generation_biconditional():
    """Recovering symbols outside the source set works iff the source has k columns."""
    ok = True
    checked = 0
    for q in (2, 3, 4, 5):
        field = GF(q)
        for n in range(2, min(6, q + 1) + 1):
            subsets = [frozenset(c) for size in range(n + 1) for c in combinations(range(1, n + 1), size)]
            for r in range(1, n):
                spec = ExtGrsSpec(field, n, r, tuple(range(n - 1)), (1,) * n)
                k = n - r
                for b in subsets:
                    for a in subsets:
                        if a <= b:
                            continue
                        got = oracle.can_generate(spec, b, spec, a)
                        ok &= got == (len(b) >= k)
                        checked += 1
    report_line(f"criterion 8: generation biconditional holds exhaustively ({checked} pairs)", ok)


def test_criterion_9_field_and_linalg_properties():
    """Field axioms and matrix identities, exhaustive to q = 16 and sampled at q = 256."""
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 11, 13, 16):
        f = GF(q)
        els = list(f.elements())
        for a in els:
            ok &= f.pow(a, q - 1) == 1 if a else True
            if a:
                ok &= f.mul(a, f.inv(a)) == 1
            for b in els:
                ok &= f.add(a, b) == f.add(b, a)
                ok &= f.mul(a, b) == f.mul(b, a)
                for c in els:
                    ok &= f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                    ok &= f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    ok &= f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if not ok:
            break
    f = GF(256)
    rng = random.Random(99)
    for _ in range(1000):
        a, b, c = (rng.randrange(256) for _ in range(3))
        ok &= f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        ok &= f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if a:
            ok &= f.mul(a, f.inv(a)) == 1
    # matrix identities over a few fields
    rng = random.Random(98)
    for q in (5, 8, 13):
        f = GF(q)
        for _ in range(25):
            n = rng.randrange(1, 6)
            m = linalg.from_rows(
                f, [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            )
            kern = linalg.right_kernel_basis(m)
            ok &= kern.rows == m.cols - linalg.rank(m)
            for i in range(kern.rows):
                ok &= all(x == 0 for x in linalg.matvec(m, kern.row(i)))
            if linalg.rank(m) == n:
                ok &= linalg.matmul(linalg.invert(m), m) == linalg.identity(f, n)
    # extended Vandermonde column independence, exhaustive for n <= 10
    for f, r, n in [(GF(11), 3, 10), (GF(16), 4, 9), (GF(8), 2, 7)]:
        gamma = tuple(range(n - 1))
        w = (1,) * n
        m = linalg.vandermonde_ext(f, r, n, gamma, w)
        for cols in combinations(range(1, n + 1), r):
            ok &= linalg.rank(linalg.submatrix_cols(m, cols)) == r
    report_line("criterion 9: field axioms and linear-algebra identities hold", ok)


def test_encode_matches_generator_product(merge_plans, split_plans):
    """Systematic encode equals message . G on every code of the acceptance matrices."""
    rng = random.Random(43)
    for plan in merge_plans + split_plans:
        specs = list(plan.initial_specs)
        specs += [plan.final_spec] if isinstance(plan, MergePlan) else list(plan.final_specs)
        for spec in specs:
            g = generator(spec)
            q = spec.field.q
            messages = [tuple(int(u == t) for u in range(spec.k)) for t in range(spec.k)]
            messages += [tuple(rng.randrange(q) for _ in range(spec.k)) for _ in range(3)]
            for msg in messages:
                assert encode(spec, msg).symbols == linalg.vecmat(msg, g)
