"""Plan execution: the lowered executor against the per-stripe solving
references in `oracle`, a structural guard that keeps every solve out of
the per-stripe path, and lowering refusals (tampered blocks are covered
end to end in test_cli)."""

import pickle
import random
import sys
from pathlib import Path

import pytest

from mdsconv import convert, grs, linalg, oracle, plandoc
from mdsconv.convert import (
    ConvertParams,
    GeneralPlan,
    build_merge,
    build_split,
    general_convert,
    lower,
    merge_convert,
    merge_params,
    split_convert,
)
from mdsconv.errors import CorruptionError, InternalError, UsageError
from mdsconv.field import GF
from mdsconv.grs import Codeword, encode
from mdsconv.record import replace

from test_acceptance import (
    MERGE_MATRIX,
    SPLIT_MATRIX,
    SPLIT_MATRIX_INFEASIBLE,
    smallest_admissible_field,
)

FIXTURES = Path(__file__).parent / "fixtures"
STRIPES = 6  # seeded random stripes per plan, plus the zero stripe


def _merge_plans():
    for shapes, rf in MERGE_MATRIX:
        params = merge_params(shapes, rf)
        yield build_merge(params, smallest_admissible_field(max(max(params.n_initial), params.n_final[0]) - 1))


def _split_plans():
    for (ni, ki), finals in SPLIT_MATRIX + SPLIT_MATRIX_INFEASIBLE:
        params = ConvertParams(((ni, ki),), tuple(finals))
        yield build_split(params, smallest_admissible_field(max(ni, max(n for n, _ in finals)) - 1))


def _general_plan():
    return plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))


def _stripes(specs, rng):
    """The zero stripe, then STRIPES seeded random stripes."""
    random_stripes = [
        [encode(spec, tuple(rng.randrange(spec.field.q) for _ in range(spec.k))).symbols for spec in specs]
        for _ in range(STRIPES)
    ]
    return [[(0,) * spec.n for spec in specs]] + random_stripes


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert isinstance(g, Codeword)
        assert (g.symbols, g.code) == (w.symbols, w.code)


def test_merge_matches_solving_reference():
    rng = random.Random(31)
    for plan in _merge_plans():
        for stripe in _stripes(plan.initial_specs, rng):
            out, _ = merge_convert(plan, stripe)
            _same((out,), (oracle.merge_convert_by_solve(plan, stripe),))


def test_split_matches_solving_reference():
    rng = random.Random(32)
    for plan in _split_plans():
        for (cw,) in _stripes((plan.initial_spec,), rng):
            outs, _ = split_convert(plan, cw)
            _same(outs, oracle.split_convert_by_solve(plan, cw))


def test_general_matches_layout_reference():
    plan = _general_plan()
    rng = random.Random(33)
    for stripe in _stripes(plan.initial_specs, rng):
        outs, _ = general_convert(plan, stripe)
        _same(outs, oracle.general_convert_by_layout(plan, stripe))


def _error_class(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the class is what the comparison needs
        return type(exc)
    return None


def _bad_stripes(specs, rng):
    """(name, stripe) pairs that every executor must reject."""
    good = _stripes(specs, rng)[1]
    corrupt = [list(cw) for cw in good]
    corrupt[-1][0] = (corrupt[-1][0] + 1) % specs[-1].field.q
    non_canonical = [list(cw) for cw in good]
    non_canonical[0][0] = specs[0].field.q
    short = [cw[:-1] for cw in good]
    return [("corrupt", corrupt), ("non-canonical", non_canonical), ("short", short)]


def test_rejections_match_references():
    rng = random.Random(34)
    expected = {"corrupt": CorruptionError, "non-canonical": UsageError, "short": CorruptionError}
    cases = [(plan, merge_convert, oracle.merge_convert_by_solve, plan.initial_specs)
             for plan in _merge_plans()]
    plan = _general_plan()
    cases.append((plan, general_convert, oracle.general_convert_by_layout, plan.initial_specs))
    for plan, new, ref, specs in cases:
        for name, stripe in _bad_stripes(specs, rng):
            assert _error_class(new, plan, stripe) is _error_class(ref, plan, stripe) is expected[name]
        good = _stripes(specs, rng)[1]
        for count in (good[:-1], good + good[:1]):
            assert _error_class(new, plan, count) is _error_class(ref, plan, count) is UsageError
    for plan in _split_plans():
        for name, (cw,) in _bad_stripes((plan.initial_spec,), rng):
            got = _error_class(split_convert, plan, cw)
            assert got is _error_class(oracle.split_convert_by_solve, plan, cw) is expected[name]


def test_inputs_are_checked_in_order():
    """Each input is checked in full before the next, as in the references: a
    parity fault in input 1 is named even when input 2 holds a non-canonical
    symbol, and a non-canonical symbol in input 1 wins over a fault in input 2."""
    rng = random.Random(39)
    plan = next(_merge_plans())
    q = plan.field.q
    for first, second, error, message in (
        ("corrupt", "non-canonical", CorruptionError, "input 1 is not a codeword of initial code 1"),
        ("non-canonical", "corrupt", UsageError, f"{q} is not a canonical element"),
    ):
        stripe = [list(cw) for cw in _stripes(plan.initial_specs, rng)[1]]
        for i, fault in ((0, first), (1, second)):
            stripe[i][0] = q if fault == "non-canonical" else (stripe[i][0] + 1) % q
        for run in (merge_convert, oracle.merge_convert_by_solve):
            with pytest.raises(error, match=message):
                run(plan, stripe)


def test_inputs_are_checked_before_a_plan_is_refused():
    """On a plan that fails `verify` (the README merge with a tampered
    restricted parity check), a corrupt input is still a CorruptionError
    and a non-canonical one a UsageError, named before the plan is refused;
    a clean stripe gets the refusal.  A refused plan keeps no compiled form,
    so the order holds on every stripe."""
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))
    doc = plandoc.plan_to_doc(plan)
    row = doc["punctured_parity"][0]["matrix"][1].split()
    row[0] = str(int(row[0]) ^ 1)
    doc["punctured_parity"][0]["matrix"][1] = " ".join(row)
    bad = plandoc.plan_from_doc(doc)
    assert not all(ok for _, ok, _ in convert.verify_plan(bad))
    clean = [encode(spec, (1, 2, 3)).symbols for spec in bad.initial_specs]
    corrupt = [list(clean[0]), clean[1]]
    corrupt[0][0] ^= 1
    non_canonical = [clean[0], list(clean[1])]
    non_canonical[1][0] = 8
    for _ in range(2):
        with pytest.raises(CorruptionError, match="input 1 is not a codeword of initial code 1"):
            merge_convert(bad, corrupt)
        with pytest.raises(UsageError, match="8 is not a canonical element"):
            merge_convert(bad, non_canonical)
        with pytest.raises(UsageError, match="plan is not executable"):
            merge_convert(bad, clean)
        with pytest.raises(UsageError, match="expected 2 input codewords, got 1"):
            merge_convert(bad, clean[:1])


def test_compile_faults_are_raised_as_they_are(monkeypatch):
    """Only `lower`'s refusal puts the input check before the error: a fault
    while compiling a lowered plan is raised as it is, even on a stripe
    with a corrupt input."""
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))
    corrupt = [list(encode(spec, (1, 2, 3)).symbols) for spec in plan.initial_specs]
    corrupt[0][0] ^= 1

    def broken(*args):
        raise InternalError("compile fault")

    monkeypatch.setattr(linalg, "fold_step", broken)
    with pytest.raises(InternalError, match="compile fault"):
        merge_convert(plan, corrupt)


def _corruption_plans():
    """A merge and a split plan over GF(16) and over GF(256) (the split's
    input takes two lane groups), a merge whose first input takes two lane
    groups, a merge over GF(257), and the 2x2 general fixture."""
    for q in (16, 256):
        yield build_merge(merge_params([(6, 4), (5, 3), (4, 2)], 2), GF(q))
        yield build_split(ConvertParams(((14, 9),), ((6, 4), (7, 5))), GF(q))
    yield build_merge(merge_params([(12, 8), (11, 8)], 5), GF(256))
    yield build_merge(merge_params([(6, 4), (5, 3)], 2), GF(257))
    yield _general_plan()


def test_every_single_symbol_corruption_is_caught():
    """Each input is checked in full by its per-input lines: every change of
    one symbol, at every position of every input, to every other value, is a
    CorruptionError naming that input, and the unchanged stripe still
    converts."""
    rng = random.Random(44)
    for plan in _corruption_plans():
        stripe = _stripes(plan.initial_specs, rng)[1]
        want = convert.run_conversion(plan, stripe)
        for i, cw in enumerate(stripe):
            message = f"input {i + 1} is not a codeword of initial code {i + 1}"
            for pos in range(len(cw)):
                for value in range(plan.field.q):
                    if value == cw[pos]:
                        continue
                    bad = list(cw)
                    bad[pos] = value
                    with pytest.raises(CorruptionError, match=message):
                        convert.run_conversion(plan, [*stripe[:i], bad, *stripe[i + 1 :]])
        assert convert.run_conversion(plan, stripe) == want


@pytest.mark.parametrize("q", [8, 256, 257, 1 << 16])
def test_non_canonical_symbols_are_usage_errors(q):
    """True, -1, q, 1.0 and None are refused by encode and convert.  The
    stripe is built so that each stands in for the symbol it could be
    mistaken for (True for 1, -1 for q - 1 as a wrapped table index), which
    would leave a codeword if the value were taken as that symbol."""
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(q))
    spec = plan.initial_specs[0]
    for message in ((1, 0, 0), (q - 1, 0, 0)):
        stripe = [list(encode(s, message).symbols) for s in plan.initial_specs]
        slot = spec.r  # the first message symbol
        for bad in (True, -1, q, 1.0, None):
            wrong = list(message)
            wrong[0] = bad
            with pytest.raises(UsageError, match="is not a canonical element"):
                encode(spec, wrong)
            inputs = [list(cw) for cw in stripe]
            inputs[0][slot] = bad
            with pytest.raises(UsageError, match="is not a canonical element"):
                convert.run_conversion(plan, inputs)


# Merges and a split whose inputs take more than one lane group (r_i + the
# written count above eight), next to the benchmark's merge shape.
WIDE_MERGES = (([(14, 10), (14, 10), (12, 8), (6, 4)], 4), ([(40, 32)] * 4, 8), ([(100, 90)] * 2, 10))
WIDE_SPLIT = ((40, 32), ((20, 16), (20, 16)))


@pytest.mark.parametrize("q", [256, 257, 1 << 16])
def test_merge_stream_shape_matches_solving_reference(q):
    """The benchmark's merge shape, the wide merges and the split, bit for
    bit against the per-stripe solve, over GF(256), GF(257) and GF(2^16), so
    no assumption of 8-bit symbols or of one lane group slips in."""
    rng = random.Random(q)
    for shapes, rf in WIDE_MERGES:
        plan = build_merge(merge_params(shapes, rf), GF(q))
        for stripe in _stripes(plan.initial_specs, rng):
            out, _ = merge_convert(plan, stripe)
            _same((out,), (oracle.merge_convert_by_solve(plan, stripe),))
    initial, finals = WIDE_SPLIT
    plan = build_split(ConvertParams((initial,), finals), GF(q))
    for (cw,) in _stripes((plan.initial_spec,), rng):
        outs, _ = split_convert(plan, cw)
        _same(outs, oracle.split_convert_by_solve(plan, cw))


COUNTED = ("rref", "solve_linear", "submatrix_cols", "invert", "matvec", "vecmat",
           "is_codeword", "parity_check", "generator", "access_report")


def test_later_conversions_run_no_solve(monkeypatch):
    """After the first conversion of a plan, no stripe reduces, slices or
    inverts a matrix, multiplies through `matvec`/`vecmat`, or looks up a
    parity check or generator: it runs on the plan's compiled lines."""
    rng = random.Random(35)
    plans = [next(_merge_plans()), next(_split_plans()), _general_plan()]
    stripes = {id(plan): _stripes(plan.initial_specs, rng) for plan in plans}
    for plan in plans:
        convert.run_conversion(plan, stripes[id(plan)][1])
    calls = {}
    # Every binding of each name: `convert` imports `parity_check` from `grs`.
    for owner in (linalg, grs, convert):
        for name in COUNTED:
            if name not in vars(owner):
                continue
            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
    for plan in plans:
        for k in range(10):
            convert.run_conversion(plan, stripes[id(plan)][k % len(stripes[id(plan)])])
    assert calls == {}
    # The counters see calls: a fresh plan object lowers (and reports) once,
    # and compiles its checks from the initial codes' generators.
    convert.run_conversion(replace(plans[0]), stripes[id(plans[0])][0])
    assert calls["rref"] == 1 and calls["access_report"] == 1
    assert calls["generator"] == len(plans[0].initial_specs)


def test_lower_verifies_before_it_solves(monkeypatch):
    """`lower` runs `verify_plan` before any elimination: the README merge
    with an all-zero written block is refused on its `final-block` line,
    which needs no rref, so none runs; the untampered plan then takes one."""
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))
    bad = replace(plan, final_written_block=linalg.zeros(plan.field, 2, 2))
    calls = []
    rref = linalg.rref

    def counted(*args, **kwargs):
        calls.append(args)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", counted)
    with pytest.raises(UsageError, match="final-block"):
        lower(bad)
    assert calls == []
    lower(plan)
    assert len(calls) == 1


def test_lowered_plans_are_general_plans():
    """Merge and split plans lower to general plans that convert alike."""
    rng = random.Random(37)
    for plan in (next(_merge_plans()), next(_split_plans())):
        lowered = lower(plan)
        assert isinstance(lowered, GeneralPlan)
        assert lower(lowered) is lowered
        specs = plan.initial_specs
        for stripe in _stripes(specs, rng):
            assert general_convert(lowered, stripe)[0] == convert.run_conversion(plan, stripe)[0]


def test_plans_that_ran_stay_picklable():
    rng = random.Random(38)
    for plan in (next(_merge_plans()), next(_split_plans()), _general_plan()):
        stripe = _stripes(plan.initial_specs, rng)[1]
        before = convert.run_conversion(plan, stripe)
        copy = pickle.loads(pickle.dumps(plan))
        assert copy == plan and convert.run_conversion(copy, stripe) == before


def test_privileged_read_outside_restriction_is_usage_error():
    plan = next(_split_plans())
    assert plan.privileged == 1
    outside = next(pos for pos in range(1, plan.initial_spec.n + 1) if pos not in plan.support())
    reads = (tuple(sorted(plan.reads[0] + (outside,))),) + plan.reads[1:]
    cw = encode(plan.initial_spec, (1,) * plan.initial_spec.k)
    refusal = ("privileged restricted parity: privileged final code must read "
               "the other finals' unchanged symbols and V")
    with pytest.raises(UsageError, match=refusal):
        split_convert(replace(plan, reads=reads), cw)


def test_computed_matrices_hold_canonical_entries(monkeypatch):
    """Every matrix built without the entry check while the acceptance plans
    and the 2x2 fixture are built, verified, lowered and converted passes
    that check: its entries are canonical and fill its shape."""
    built, callers = [], set()
    computed = linalg._computed

    def checked(field, rows, cols, entries):
        m = computed(field, rows, cols, entries)
        built.append(m)
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return m

    monkeypatch.setattr(linalg, "_computed", checked)
    monkeypatch.setattr(convert, "_computed", checked)
    grs.parity_check.cache_clear()
    grs.generator.cache_clear()
    rng = random.Random(11)
    plans = [*_merge_plans(), *_split_plans(), _general_plan()]
    for plan in plans:
        assert all(ok for _, ok, _ in convert.verify_plan(plan))
        for stripe in _stripes(plan.initial_specs, rng)[:2]:
            convert.run_conversion(plan, stripe)  # lowers the plan first
    assert callers == {
        "rref", "_vandermonde", "generator", "_shares",
        "_columns_at", "_negated", "build_merge", "final", "_solve_block",
    }
    for m in built:
        assert type(m) is linalg.FieldMatrix
        assert len(m.entries) == m.rows * m.cols
        m.field.check_all(m.entries)
