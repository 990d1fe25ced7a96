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
from mdsconv.field import GF, FieldSpec
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


# A plan of each compiled form of the executor, each built on first use:
# the lane rows of a byte field with the parity in one lane group and in
# two (r_I = 10), the packed ints of GF(p), the lane rows of GF(2^16), which
# read a symbol as two bytes, and the 2x2 general plan over GF(8).
ORDER_PLANS = {
    "gf7-acceptance-merge": lambda: next(_merge_plans()),
    "gf256-one-lane-group": lambda: build_merge(merge_params([(5, 3), (5, 3)], 2), GF(256)),
    "gf256-two-lane-groups": lambda: build_merge(merge_params([(30, 20), (30, 20)], 4), GF(256)),
    "gf257": lambda: build_merge(merge_params([(5, 3), (5, 3)], 2), GF(257)),
    "gf65536": lambda: build_merge(merge_params([(5, 3), (5, 3)], 2), GF(1 << 16)),
    "general-2x2-gf8": _general_plan,
}


class _Unread:
    """An input that fails the test if the executor looks at it at all."""

    def _read(self, *args):
        raise AssertionError("an input was read before the input count was checked")

    __len__ = __iter__ = __getitem__ = _read


@pytest.mark.parametrize("form", ORDER_PLANS)
def test_inputs_are_checked_in_order(form):
    """Each input is checked in full before the next, as in the references,
    in every stripe loop, on a plan's first stripe and once it has compiled:
    a parity fault in input 1 is named even when input 2 holds a
    non-canonical symbol (q or True) or has the wrong length, and a
    non-canonical symbol in input 1 wins over a fault in input 2.  A clean
    input 1 and a raw input 2 holding q give the symbol check's text.  A
    wrong input count is refused before any input is read."""
    plan = ORDER_PLANS[form]()
    reference = oracle.general_convert_by_layout if isinstance(plan, GeneralPlan) else oracle.merge_convert_by_solve
    rng = random.Random(39)
    q = plan.field.q
    corrupt_1 = (CorruptionError, "input 1 is not a codeword of initial code 1")
    for first, second, (error, message) in (
        ("corrupt", "non-canonical", corrupt_1),
        ("corrupt", "True", corrupt_1),
        ("corrupt", "short", corrupt_1),
        ("non-canonical", "corrupt", (UsageError, f"{q} is not a canonical element")),
        ("clean", "non-canonical", (UsageError, f"^{q} is not a canonical element of GF\\({q}\\)$")),
    ):
        stripe = [list(cw) for cw in _stripes(plan.initial_specs, rng)[1]]
        for i, fault in ((0, first), (1, second)):
            if fault == "short":
                stripe[i].pop()
            elif fault != "clean":
                stripe[i][0] = {"non-canonical": q, "True": True}.get(fault, (stripe[i][0] + 1) % q)
        for run in (convert.run_conversion, reference):
            for runs_on in (replace(plan), plan):
                with pytest.raises(error, match=message):
                    run(runs_on, stripe)
    t1 = plan.params.t1
    for count in (t1 - 1, t1 + 1):
        for run in (convert.run_conversion, reference):
            for runs_on in (replace(plan), plan):
                with pytest.raises(UsageError, match=f"expected {t1} input codewords, got {count}"):
                    run(runs_on, [_Unread() for _ in range(count)])


def test_inputs_are_checked_before_a_plan_is_refused():
    """On a plan that loads but fails `verify` (the README merge whose code 1
    also reads a symbol it keeps), a corrupt input is still a
    CorruptionError and a non-canonical one a UsageError, named before the
    plan is refused; a clean stripe gets the refusal.  A refused plan keeps
    no compiled form, so the order holds on every stripe."""
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))
    doc = plandoc.plan_to_doc(plan)
    doc["reads"][0] = [[1, 3], [1, 4], [1, 5]]
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


@pytest.mark.parametrize("q", [256, 257, 512, 1 << 16])
def test_merge_stream_shape_matches_solving_reference(q):
    """The benchmark's merge shape, the wide merges and the split, bit for
    bit against the per-stripe solve, over GF(256), GF(257), GF(512) and
    GF(2^16), so no assumption of 8-bit symbols or of one lane group slips
    in."""
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


@pytest.mark.parametrize("q", [256, 257, 1 << 16])
def test_each_symbol_is_checked_once_per_stripe(monkeypatch, q):
    """On the benchmark's merge shape a stripe of `encode`d codewords runs
    no `FieldSpec.check_all` in `run_conversion` (`encode` checked their
    messages), and a stripe of raw symbol tuples or lists runs exactly one
    per input, from the stripe loop, which checks an input's symbols once
    before it folds them."""
    shapes, rf = WIDE_MERGES[0]
    plan = build_merge(merge_params(shapes, rf), GF(q))
    rng = random.Random(q + 5)
    stripes = [[encode(spec, [rng.randrange(q) for _ in range(spec.k)]) for spec in plan.initial_specs]
               for _ in range(3)]
    want = [convert.run_conversion(plan, stripe) for stripe in stripes]
    calls = []
    check_all = FieldSpec.check_all

    def counted(field, values):
        calls.append(len(values))
        return check_all(field, values)

    monkeypatch.setattr(FieldSpec, "check_all", counted)
    for stripe, out in zip(stripes, want):
        assert convert.run_conversion(plan, stripe) == out
    assert calls == []
    for stripe, out in zip(stripes, want):
        for raw in ([cw.symbols for cw in stripe], [list(cw.symbols) for cw in stripe]):
            assert convert.run_conversion(plan, raw) == out
    assert calls == [spec.n for spec in plan.initial_specs] * 2 * len(stripes)


def _calls(fn, *args):
    """fn(*args) and the names of the Python functions it calls, in order,
    from `sys.setprofile`'s call events."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, names


@pytest.mark.parametrize("q", [256, 257, 512, 1 << 16])
def test_a_stripe_makes_the_same_calls_for_two_inputs_and_for_four(q):
    """On a plan that has run, one `run_conversion` of an encoded stripe
    makes the same Python-level calls for the README's 2-input merge as for
    the benchmark's 4-input merge: the stripe loop checks, folds and spills
    every input in its own frame, so no call is made per input, also where
    a symbol is read as two bytes."""
    calls = {}
    for shapes, rf in (([(5, 3), (5, 3)], 2), WIDE_MERGES[0]):
        plan = build_merge(merge_params(shapes, rf), GF(q))
        rng = random.Random(q + len(shapes))
        stripe = [encode(spec, [rng.randrange(q) for _ in range(spec.k)]) for spec in plan.initial_specs]
        want = convert.run_conversion(plan, stripe)
        got, calls[len(shapes)] = _calls(convert.run_conversion, plan, stripe)
        assert got == want
    assert calls[2][0] == "run_conversion"
    assert calls[2] == calls[4]


@pytest.mark.parametrize("q, r", [(4, 2), (16, 3), (16, 10), (256, 4), (256, 10), (257, 4), (257, 10),
                                  (512, 4), (512, 10), (1 << 16, 4), (1 << 16, 10)])
def test_an_encode_makes_no_other_call(q, r):
    """One `encode` on a code whose encoder is kept runs its field's step
    and builds the codeword in its own frame: over a byte field, with one
    lane group or two (r = 10), it calls nothing else, and over GF(257),
    GF(512) and GF(2^16) only `FieldSpec.check_all`."""
    n = min(q + 1, r + 6)
    spec = grs.ExtGrsSpec(GF(q), n, r, tuple(range(n - 1)), (1,) * n)
    rng = random.Random(q + r)
    message = [rng.randrange(q) for _ in range(spec.k)]
    want = encode(spec, message)
    got, calls = _calls(encode, spec, message)
    assert got == want
    assert calls == ["encode", *(["check_all"] if q > 256 else [])]


def _split_plan(q):
    initial, finals = WIDE_SPLIT
    return build_split(ConvertParams((initial,), finals), GF(q))


@pytest.mark.parametrize("q", [256, 257, 512, 1 << 16])
def test_a_stripe_builds_its_final_codewords_without_a_call(q):
    """One `run_conversion` stripe of the benchmark's merge shape and of the
    wide split builds its final codewords in the stripe loop's frame: it
    calls no `Codeword._trusted` and runs no list comprehension, which is
    a frame of its own before Python 3.12.  Over every field the loop is
    the one call: the lane loop of GF(2^m), also where a symbol is read as
    two bytes, or the packed loop of GF(p)."""
    loop = "_mod_stripe" if q == 257 else "_lane_stripe"
    shapes, rf = WIDE_MERGES[0]
    for plan in (build_merge(merge_params(shapes, rf), GF(q)), _split_plan(q)):
        rng = random.Random(q + len(plan.initial_specs))
        stripe = [encode(spec, [rng.randrange(q) for _ in range(spec.k)]) for spec in plan.initial_specs]
        want = convert.run_conversion(plan, stripe)
        got, calls = _calls(convert.run_conversion, plan, stripe)
        assert got == want
        assert "_trusted" not in calls and "<listcomp>" not in calls
        assert calls == ["run_conversion", loop]


@pytest.mark.parametrize("q", [256, 257, 1 << 16])
def test_codewords_built_inline_are_trusted_codewords(q):
    """The codewords that `encode` and each form's stripe loop build inline
    cannot be told from `Codeword._trusted(symbols, code)`: the same class,
    instance dict (in field order), equality, hash and repr, and so after
    a pickle round trip.  A field added to `Codeword` and not set at an
    inline site shows in the instance dict."""
    shapes, rf = WIDE_MERGES[0]
    rng = random.Random(q + 7)
    built = []
    for plan in (build_merge(merge_params(shapes, rf), GF(q)), _split_plan(q)):
        stripe = [encode(spec, [rng.randrange(q) for _ in range(spec.k)]) for spec in plan.initial_specs]
        outs, _ = convert.run_conversion(plan, stripe)
        built += [*stripe, *outs]
    for cw in built:
        twin = Codeword._trusted(cw.symbols, cw.code)
        for copy in (cw, pickle.loads(pickle.dumps(cw))):
            assert type(copy) is Codeword
            assert list(vars(copy).items()) == list(vars(twin).items())
            assert copy == twin and hash(copy) == hash(twin) and repr(copy) == repr(twin)


def _failure(plan, stripe):
    try:
        convert.run_conversion(plan, stripe)
    except Exception as exc:  # the class and text are what the comparison needs
        return type(exc), str(exc)
    return None


def test_a_codeword_of_another_code_is_refused_as_its_symbols():
    """Input i as a `Codeword` of another initial code, of a code over
    another field, or of a code equal to initial code i but not that object
    (built unchecked, holding q) is checked as a raw list of its symbols
    is, and refused with the same class and text."""
    shapes, rf = WIDE_MERGES[0]
    plan = build_merge(merge_params(shapes, rf), GF(256))
    specs = plan.initial_specs
    rng = random.Random(45)
    stripe = [encode(spec, [rng.randrange(256) for _ in range(spec.k)]) for spec in specs]
    convert.run_conversion(plan, stripe)
    wider = grs.ExtGrsSpec(GF(512), specs[0].n, specs[0].r, specs[0].gamma, specs[0].w)
    equal = replace(specs[0])
    strangers = [
        (0, encode(specs[1], [rng.randrange(256) for _ in range(specs[1].k)])),
        (0, stripe[3]),
        (3, stripe[0]),
        (0, encode(wider, [300] + [rng.randrange(512) for _ in range(wider.k - 1)])),
        (0, Codeword._trusted((256, *stripe[0].symbols[1:]), equal)),
    ]
    for i, cw in strangers:
        assert cw.code is not specs[i]
        got = _failure(plan, [*stripe[:i], cw, *stripe[i + 1 :]])
        assert got is not None and got[0] in (CorruptionError, UsageError)
        assert got == _failure(plan, [*stripe[:i], list(cw.symbols), *stripe[i + 1 :]])
    assert _failure(plan, stripe) is None


COUNTED = ("rref", "solve_linear", "submatrix_cols", "invert", "matvec", "vecmat",
           "is_codeword", "parity_check", "generator", "parity_part", "access_report")


def test_later_conversions_run_no_solve(monkeypatch):
    """After the first conversion of a plan, no stripe reduces, slices or
    inverts a matrix, multiplies through `matvec`/`vecmat`, or looks up a
    parity check, generator or parity part: it runs on the plan's compiled
    lines."""
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
    # and compiles its checks from the initial codes' parity parts, with no
    # generator.
    convert.run_conversion(replace(plans[0]), stripes[id(plans[0])][0])
    assert calls["rref"] == 1 and calls["access_report"] == 1
    assert calls["parity_part"] == len(plans[0].initial_specs) and "generator" not in calls


# Calls that build a stream's plan, encode its first stripe and convert it,
# from cold grs caches, as a stream's set-up runs: the merge-stream and
# split-stream shapes over GF(256).
SET_UP_WORK = {
    "merge-stream": {"_vandermonde": 8, "rref": 1, "_lane_rows": 8, "puncture": 3, "generator": 0,
                     "FieldMatrix._trusted": 15},
    "split-stream": {"_vandermonde": 3, "rref": 2, "_lane_rows": 2, "puncture": 1, "generator": 0,
                     "FieldMatrix._trusted": 10},
}


@pytest.mark.parametrize("stream", SET_UP_WORK)
def test_set_up_makes_the_pinned_compile_work(monkeypatch, stream):
    """The compile work of a stream's set-up, pinned exactly, so a change
    that builds more matrices, eliminates more or compiles more lane rows
    fails with a diff of the counts: parity-check blocks (`_vandermonde`),
    eliminations, lane-row groups, restrictions, generators and matrices
    built unchecked.  Every binding of each name is counted."""
    grs.parity_check.cache_clear()
    grs.generator.cache_clear()
    calls = dict.fromkeys(SET_UP_WORK[stream], 0)
    for owner in (linalg, grs, convert):
        for name in calls:
            if name in vars(owner):
                def counted(*args, _fn=getattr(owner, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(owner, name, counted)
    trusted = linalg.FieldMatrix._trusted

    def counted_trusted(cls, *args):
        calls["FieldMatrix._trusted"] += 1
        return trusted(*args)

    monkeypatch.setattr(linalg.FieldMatrix, "_trusted", classmethod(counted_trusted))
    rng = random.Random(41)
    if stream == "merge-stream":
        plan = build_merge(merge_params([(14, 10), (14, 10), (12, 8), (6, 4)], 4), GF(256))
    else:
        plan = build_split(ConvertParams(((40, 32),), ((20, 16), (20, 16))), GF(256))
    stripe = [encode(spec, [rng.randrange(256) for _ in range(spec.k)]) for spec in plan.initial_specs]
    outputs, _ = convert.run_conversion(plan, stripe)
    assert calls == SET_UP_WORK[stream]
    assert all(grs.is_codeword(cw.code, cw.symbols) for cw in outputs)


# Work of one pass over [n, n - 10]x2 with r_F = 10 (build, `verify_plan`,
# one encode per initial code, one convert) per form of field and n: the
# same over both fields of a form, whatever q.
PASS_WORK = {
    "GF(2^m)": {25: {"mul": 4391, "inv": 310, "_vandermonde": 5, "rref": 1, "_lane_rows": 4},
                50: {"mul": 6751, "inv": 810, "_vandermonde": 5, "rref": 1, "_lane_rows": 4},
                100: {"mul": 11651, "inv": 1810, "_vandermonde": 5, "rref": 1, "_lane_rows": 4}},
    "GF(p)": {25: {"mul": 4511, "inv": 310, "_vandermonde": 5, "rref": 1, "_lane_rows": 0},
              50: {"mul": 6961, "inv": 810, "_vandermonde": 5, "rref": 1, "_lane_rows": 0},
              100: {"mul": 11861, "inv": 1810, "_vandermonde": 5, "rref": 1, "_lane_rows": 0}},
}


@pytest.mark.parametrize("q, form", [(1024, "GF(2^m)"), (1 << 16, "GF(2^m)"), (1009, "GF(p)"), (1000003, "GF(p)")])
@pytest.mark.parametrize("n", [25, 50, 100])
def test_cost_grows_with_n_not_q(monkeypatch, q, form, n):
    """The field operations and compile work of one pass, pinned exactly
    per form and n, so the counts are equal over GF(1024) and GF(2^16), and
    over GF(1009) and GF(1000003): nothing runs in proportion to q.  Above
    GF(256) the field keeps no log/exp tables and nothing of q entries."""
    grs.parity_check.cache_clear()
    grs.generator.cache_clear()
    calls = dict.fromkeys(PASS_WORK[form][n], 0)
    for name in ("mul", "inv"):
        def counted_op(field, *args, _fn=getattr(FieldSpec, name), _name=name):
            calls[_name] += 1
            return _fn(field, *args)
        monkeypatch.setattr(FieldSpec, name, counted_op)
    for owner in (linalg, grs, convert):
        for name in ("_vandermonde", "rref", "_lane_rows"):
            if name in vars(owner):
                def counted(*args, _fn=getattr(owner, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(owner, name, counted)
    rng = random.Random(n)
    field = GF(q)
    plan = build_merge(merge_params([(n, n - 10)] * 2, 10), field)
    assert all(passed for _, passed, _ in convert.verify_plan(plan))
    stripe = [encode(spec, [rng.randrange(q) for _ in range(spec.k)]) for spec in plan.initial_specs]
    (final,), _ = convert.run_conversion(plan, stripe)
    assert calls == PASS_WORK[form][n]
    assert grs.is_codeword(final.code, final.symbols)
    assert field._exp is None and field._log is None
    for value in vars(field).values():
        if isinstance(value, (list, tuple)):
            assert len(value) < q and all(len(part) < q for part in value if isinstance(part, (list, tuple)))


def test_lower_verifies_before_it_solves(monkeypatch):
    """`lower` runs `verify_plan` before any elimination: the README merge
    whose S names a code 3 is refused on its `classification` line, which
    needs no rref, so none runs; the untampered plan then takes one."""
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))
    bad = replace(plan, reduced=frozenset({1, 2, 3}))
    calls = []
    rref = linalg.rref

    def counted(*args, **kwargs):
        calls.append(args)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", counted)
    with pytest.raises(UsageError, match="classification"):
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


def test_a_plan_derives_its_restricted_parity_checks_once(monkeypatch):
    """Building a merge and running its first stripe derives each restricted
    parity check once: `lower`'s `verify_plan` and `_sigma` share it."""
    from test_cli import counted_derivations

    calls = counted_derivations(monkeypatch)
    params = merge_params([(14, 10), (14, 10), (12, 8), (6, 4)], 4)
    plan = build_merge(params, GF(256))
    merge_convert(plan, _stripes(plan.initial_specs, random.Random(39))[1])
    assert len(calls) == len(set(calls)) == len(plan.reduced) == 3


def test_kept_derivations_leave_the_plan_value_alone(monkeypatch):
    """What a plan derives is kept on that object only: equality and hashing
    ignore it, a pickled copy keeps it, and `replace` with another grid
    derives afresh from the new grid."""
    from test_cli import counted_derivations

    params = merge_params([(6, 3), (6, 3)], 2)
    plan, fresh = build_merge(params, GF(8)), build_merge(params, GF(8))
    rng = random.Random(40)
    stripe = _stripes(plan.initial_specs, rng)[1]
    before = convert.run_conversion(plan, stripe)
    assert plan == fresh and hash(plan) == hash(fresh)
    copy = pickle.loads(pickle.dumps(plan))
    assert copy == plan and convert.run_conversion(copy, stripe) == before
    calls = counted_derivations(monkeypatch)
    assert copy.restricted_parity(1, 1) == plan.restricted_parity(1, 1) and not calls
    moved = replace(plan, reads=((4, 6), plan.reads[1]))
    hbar, support = moved.restricted_parity(1, 1)
    assert len(calls) == 1 and moved != plan and support == (1, 2, 3, 4, 6)
    assert hbar != plan.restricted_parity(1, 1)[0]
    assert plan.restricted_parity(1, 1)[1] == (1, 2, 3, 5, 6)


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


def test_derived_records_pass_their_checked_constructors(monkeypatch):
    """The restricted codes that `puncture` returns while the acceptance
    plans are built, those plans and their codes as the builders return
    them, their access reports, and the plan that `lower` returns for each
    of them and for the fixture plans, skip their checks (`_trusted`);
    rebuilt through the checked constructors (`replace`), each is an equal
    record."""
    punctured = []

    def recording(spec, positions):
        punctured.append(grs.puncture(spec, positions))
        return punctured[-1]

    monkeypatch.setattr(convert, "puncture", recording)
    fixtures = [plandoc.load_plan(str(path)) for path in sorted(FIXTURES.glob("*.json"))]
    plans = [*_merge_plans(), *_split_plans(), *fixtures]
    assert punctured
    for spec in punctured:
        assert replace(spec) == spec
    for plan in plans[: len(plans) - len(fixtures)]:
        for record in (plan, *plan.initial_specs, *plan.final_specs, convert.access_report(plan)):
            assert replace(record) == record
    for plan in plans:
        g = lower(plan)
        assert type(g) is GeneralPlan and replace(g) == g


def test_computed_matrices_hold_canonical_entries(monkeypatch):
    """Every matrix built without the entry check while the acceptance plans
    and the 2x2 fixture are built, verified, lowered and converted passes
    that check: its entries are canonical and fill its shape."""
    built, callers = [], set()
    trusted = linalg.FieldMatrix._trusted

    def checked(cls, field, rows, cols, entries):
        m = trusted(field, rows, cols, entries)
        built.append(m)
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return m

    monkeypatch.setattr(linalg.FieldMatrix, "_trusted", classmethod(checked))
    grs.parity_check.cache_clear()
    grs.generator.cache_clear()
    rng = random.Random(11)
    plans = [*_merge_plans(), *_split_plans(), _general_plan()]
    for plan in plans:
        assert all(ok for _, ok, _ in convert.verify_plan(plan))
        for stripe in _stripes(plan.initial_specs, rng)[:2]:
            convert.run_conversion(plan, stripe)  # lowers the plan first
    assert callers == {"rref", "_vandermonde", "_parity_part", "_matrix", "_sigma"}
    for m in built:
        assert type(m) is linalg.FieldMatrix
        assert len(m.entries) == m.rows * m.cols
        m.field.check_all(m.entries)
