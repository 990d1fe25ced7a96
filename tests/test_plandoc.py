import json
import random
import re
import time
from pathlib import Path

import pytest

from mdsconv.convert import (
    ConvertParams,
    access_report,
    build_merge,
    build_split,
    general_convert,
    merge_convert,
    merge_params,
    run_conversion,
)
from mdsconv.errors import UsageError
from mdsconv.field import GF, FieldSpec
from mdsconv.grs import encode
from mdsconv import grs, plandoc

from test_execute import _merge_plans, _split_plans

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).parents[1]


def test_merge_plan_roundtrip(tmp_path):
    plan = build_merge(merge_params([(5, 3), (4, 2)], 2), GF(8))
    path = tmp_path / "plan.json"
    plandoc.save_plan(plan, str(path))
    loaded = plandoc.load_plan(str(path))
    assert loaded == plan
    doc = json.loads(path.read_text())
    assert doc["kind"] == "merge"
    assert doc["S"] == [1]
    assert doc["written"] == [[3, 1], [3, 2]]
    assert doc["final_written_block"][0] == "2 2 8"


def test_split_plan_roundtrip(tmp_path):
    plan = build_split(ConvertParams(((10, 7),), ((6, 4), (5, 3))), GF(16))
    path = tmp_path / "plan.json"
    plandoc.save_plan(plan, str(path))
    loaded = plandoc.load_plan(str(path))
    assert loaded == plan
    doc = json.loads(path.read_text())
    assert doc["privileged"] == 1
    assert doc["V"] == [[1, 9], [1, 10]]


def test_general_plan_roundtrip(tmp_path):
    plan = plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))
    path = tmp_path / "copy.json"
    plandoc.save_plan(plan, str(path))
    assert plandoc.load_plan(str(path)) == plan


def test_fixture_reproduces_worked_conversion():
    plan = plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))
    rng = random.Random(42)
    inputs = [
        encode(spec, tuple(rng.randrange(8) for _ in range(spec.k)))
        for spec in plan.initial_specs
    ]
    outs, report = general_convert(plan, inputs)
    assert (report.rho_r, report.rho_w) == (4, 5)
    assert report.bound is None and report.optimal is None
    assert not report.stable  # 6 unchanged symbols against a total dimension of 7
    c1, c2 = inputs[0].symbols, inputs[1].symbols
    add = plan.field.add
    assert outs[0].symbols == (c1[0], c2[1], c2[2], c1[3], add(c1[4], c2[4]), add(c1[3], c2[5]))
    assert outs[1].symbols == (add(c1[4], c2[4]), c1[1], c1[2], c2[3], c1[4])


def test_fixture_trace_classification():
    plan = plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))
    report = access_report(plan)
    status = {(code, pos): s for code, pos, s in report.trace}
    assert status[(1, 1)] == "unchanged"
    assert status[(1, 4)] == "read"
    assert status[(2, 1)] == "retired"
    assert status[(2, 7)] == "retired"
    assert status[(3, 3)] == "written"
    assert status[(4, 2)] == "written"
    assert sum(1 for s in status.values() if s == "written") == 5


def test_run_conversion_dispatch():
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))
    rng = random.Random(1)
    inputs = [
        encode(spec, tuple(rng.randrange(8) for _ in range(spec.k)))
        for spec in plan.initial_specs
    ]
    outs, report = run_conversion(plan, inputs)
    assert len(outs) == 1 and report.rho == 6

    split = build_split(ConvertParams(((10, 7),), ((6, 4), (5, 3))), GF(16))
    cw = encode(split.initial_spec, tuple(rng.randrange(16) for _ in range(7)))
    outs, report = run_conversion(split, [cw])
    assert len(outs) == 2 and report.rho == 9
    with pytest.raises(UsageError):
        run_conversion(split, [cw, cw])


def test_report_doc():
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))
    report = access_report(plan)
    doc = plandoc.report_to_doc(report)
    assert doc == {
        "rho_r": 4,
        "rho_w": 2,
        "rho": 6,
        "bound": 6,
        "optimal": True,
        "stable": True,
        "per_initial_reads": [2, 2],
    }
    with_trace = plandoc.report_to_doc(report, include_trace=True)
    assert len(with_trace["trace"]) == 2 * 5 + 2
    assert with_trace["trace"][0] == {"code": 1, "position": 1, "status": "unchanged"}


def test_report_with_no_unchanged_symbols():
    # nothing kept: the write cost is the whole final length
    from mdsconv.convert import GeneralPlan
    from mdsconv.grs import ExtGrsSpec
    from mdsconv.linalg import from_rows

    f = GF(5)
    spec = ExtGrsSpec(f, 4, 2, (0, 1, 2), (1, 1, 1, 1))
    plan = GeneralPlan(
        params=ConvertParams(((4, 2),), ((4, 2),)),
        field=f,
        initial_specs=(spec,),
        final_specs=(None,),
        unchanged=(((),),),
        reads=(((1, 2),),),
        layouts=(((2, 1), (2, 2), (2, 3), (2, 4)),),
        sigmas=(from_rows(f, [[1, 0, 0, 0], [0, 1, 0, 0]]),),
    )
    report = access_report(plan)
    assert report.rho_w == 4 == plan.params.n_final[0]
    assert report.rho_r == 2
    assert not report.stable


def test_malformed_plan_documents(tmp_path):
    with pytest.raises(UsageError):
        plandoc.plan_from_doc({"kind": "mystery"})
    plan = build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8))
    doc = plandoc.plan_to_doc(plan)
    broken = json.loads(json.dumps(doc))
    broken["unchanged"][0][0] = [2, 1]  # pair names the wrong code
    with pytest.raises(UsageError):
        plandoc.plan_from_doc(broken)
    broken = json.loads(json.dumps(doc))
    del broken["final_code"]
    with pytest.raises(UsageError):
        plandoc.plan_from_doc(broken)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(UsageError):
        plandoc.load_plan(str(bad_json))
    with pytest.raises(UsageError):
        plandoc.load_plan(str(tmp_path / "missing.json"))
    # A huge extension degree is refused at once, not raised to a power.
    broken = json.loads(json.dumps(doc))
    broken["initial_codes"][0].update(p=3, m=100_000_000)
    start = time.perf_counter()
    with pytest.raises(UsageError, match="inconsistent field parameters"):
        plandoc.plan_from_doc(broken)
    assert time.perf_counter() - start < 2.0


def _reverse_entries(key):
    def edit(doc):
        assert [entry["code"] for entry in doc[key]] == [1, 2]
        doc[key].reverse()
    return edit


# Edits that a loader dropping unknown keys or sorting entries would accept,
# each giving a document its plan does not write: (plan, edit).
NOT_WRITTEN = {
    "unknown top-level key": ("merge", lambda doc: doc.update(note=1)),
    "unknown code key": ("merge", lambda doc: doc["initial_codes"][0].update(note=1)),
    "unknown punctured_parity entry key": ("merge", lambda doc: doc["punctured_parity"][0].update(note=1)),
    "reversed punctured_parity entries": ("merge", _reverse_entries("punctured_parity")),
    "reversed final_unchanged_blocks entries": ("no S", _reverse_entries("final_unchanged_blocks")),
    "unknown field key": ("merge", lambda doc: doc["field"].update(note=1)),
    "field without p": ("merge", lambda doc: doc["field"].pop("p")),
    "field without m": ("merge", lambda doc: doc["field"].pop("m")),
    "unknown params key": ("split", lambda doc: doc["params"].update(note=1)),
    "no punctured_parity key": ("no privileged", lambda doc: doc.pop("punctured_parity")),
    "descending S": ("merge", lambda doc: doc["S"].reverse()),
    "S naming a code twice": ("merge", lambda doc: doc["S"].append(doc["S"][-1])),
    "float in written": ("merge", lambda doc: doc["written"][0].__setitem__(1, 1.0)),
    "bool in written": ("merge", lambda doc: doc["written"][0].__setitem__(1, True)),
    "unknown general plan key holding null": ("general", lambda doc: doc.update(note=None)),
}
NOT_WRITTEN_PLANS = {
    "merge": lambda: build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8)),
    "no S": lambda: build_merge(merge_params([(4, 2), (4, 2)], 2), GF(8)),
    "split": lambda: build_split(ConvertParams(((10, 7),), ((6, 4), (5, 3))), GF(16)),
    "no privileged": lambda: build_split(ConvertParams(((7, 6),), ((5, 3), (5, 3))), GF(8)),
    "general": lambda: plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json")),
}


@pytest.mark.parametrize("case", NOT_WRITTEN)
def test_a_document_its_plan_does_not_write_is_refused(case):
    """Every document that loads re-serialises to itself, so one with a key
    the program does not write, without a key it writes, with entries out of
    order, or with a float or bool for an integer is a UsageError, not a
    certificate fault."""
    kind, edit = NOT_WRITTEN[case]
    doc = plandoc.plan_to_doc(NOT_WRITTEN_PLANS[kind]())
    assert plandoc.plan_to_doc(plandoc.plan_from_doc(doc)) == doc
    edit(doc)
    with pytest.raises(UsageError) as caught:
        plandoc.plan_from_doc(doc)
    assert type(caught.value) is UsageError


@pytest.mark.parametrize("case, key", [
    ("unknown top-level key", "note"),
    ("unknown code key", "initial_codes"),
    ("unknown punctured_parity entry key", "punctured_parity"),
    ("descending S", "S"),
    ("S naming a code twice", "S"),
    ("float in written", "written"),
    ("unknown general plan key holding null", "note"),
])
def test_a_document_its_plan_does_not_write_is_refused_at_its_key(case, key):
    """The refusal starts with the top-level key whose value the plan does
    not write."""
    kind, edit = NOT_WRITTEN[case]
    doc = plandoc.plan_to_doc(NOT_WRITTEN_PLANS[kind]())
    edit(doc)
    with pytest.raises(UsageError, match=f"^{key}: ") as caught:
        plandoc.plan_from_doc(doc)
    assert type(caught.value) is UsageError


COMMITTED = sorted(FIXTURES.glob("*.json")) + [REPO / "perfbench" / "two_by_two_plan.json"]


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_committed_plan_documents_reproduce_byte_for_byte(tmp_path, path):
    copy = tmp_path / "copy.json"
    plandoc.save_plan(plandoc.load_plan(str(path)), str(copy))
    assert copy.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("lines", [
    ["2 5 8", "01  1 1 1 0", "0 1 2 3 1"],  # leading zero, two spaces
    ["2 5 8", "1 1 1 1 0 ", "0 1 2 3 1"],
    ["2 5 8", "1 1 1 1 0", "0 1 2 3 1", ""],
    ["2 5 8", "1 1 1 1 0\n0 1 2 3 1"],
    ["2 5 08", "1 1 1 1 0", "0 1 2 3 1"],
    [" 2 5 8", "1 1 1 1 0", "0 1 2 3 1"],
    ["2\t5 8", "1 1 1 1 0", "0 1 2 3 1"],
])
def test_matrix_dumps_must_be_the_text_the_program_writes(lines):
    """A matrix dump that is not its canonical text would load to a plan
    that writes another document, so it is refused as the plan is read."""
    doc = json.loads((FIXTURES / "readme_merge_plan.json").read_text())
    assert doc["punctured_parity"][0]["matrix"] == ["2 5 8", "1 1 1 1 0", "0 1 2 3 1"]
    doc["punctured_parity"][0]["matrix"] = lines
    with pytest.raises(UsageError, match="bad matrix|expected 2 rows"):
        plandoc.plan_from_doc(doc)


@pytest.mark.parametrize(
    "name, cell, label",
    [
        ("readme_merge_plan.json", ("unchanged", 1, 0), "unchanged[2]"),
        ("readme_split_plan.json", ("reads", 1, 0), "reads[2]"),
        ("two_by_two_plan.json", ("unchanged", 1, 0, 0), "unchanged[2][1]"),
    ],
)
def test_grid_labels_name_the_place_in_each_kind_of_document(name, cell, label):
    """A merge nests its grids by initial code, a split by final code and a
    general plan as [final j][initial i]; a refusal names the cell that way."""
    doc = json.loads((FIXTURES / name).read_text())
    key, *index = cell
    pairs = doc[key]
    for x in index[:-1]:
        pairs = pairs[x]
    pairs[index[-1]] = [7, 1]  # the pair names code 7
    with pytest.raises(UsageError, match=rf"^{re.escape(label)}: pair \[7, 1\] names code 7"):
        plandoc.plan_from_doc(doc)


def test_symbol_lines_roundtrip(tmp_path):
    path = tmp_path / "words.txt"
    rows = [(1, 2, 3), (4, 0, 6)]
    plandoc.write_symbol_lines(str(path), rows)
    assert plandoc.read_symbol_lines(str(path), GF(7)) == rows
    path.write_text("1 2 9\n")
    with pytest.raises(UsageError):
        plandoc.read_symbol_lines(str(path), GF(7))
    path.write_text("1 x 3\n")
    with pytest.raises(UsageError):
        plandoc.read_symbol_lines(str(path), GF(7))


def test_loaded_plan_builds_field_tables_once(tmp_path, monkeypatch):
    """Every code and matrix of a plan document shares one GF(256)."""
    params = merge_params([(14, 10), (14, 10), (12, 8), (6, 4)], 4)
    path = tmp_path / "plan.json"
    plandoc.save_plan(build_merge(params, GF(256)), str(path))
    for cache in (GF, grs.parity_check, grs.generator):
        cache.cache_clear()
    builds = []
    build_tables = FieldSpec._build_tables

    def counted(self):
        builds.append(self.q)
        build_tables(self)

    monkeypatch.setattr(FieldSpec, "_build_tables", counted)
    plan = plandoc.load_plan(str(path))
    stripe = [encode(spec, tuple(range(1, spec.k + 1))) for spec in plan.initial_specs]
    final, _ = merge_convert(plan, stripe)
    assert final.symbols[:10] == stripe[0].symbols[:10]
    assert builds == [256]


# The benchmark's seven plan-ladder shapes (the last is also split-stream's)
# and merge-stream's shape, as (regime, q, initial, r_F or final).
BENCH_SHAPES = [
    ("merge", 8, [(5, 3), (5, 3)], 2),
    ("merge", 256, [(14, 10)] * 4, 4),
    ("merge", 256, [(40, 32)] * 4, 8),
    ("merge", 256, [(100, 90)] * 2, 10),
    ("merge", 1000003, [(5, 3), (5, 3)], 2),
    ("split", 16, [(14, 9)], [(6, 4), (7, 5)]),
    ("split", 256, [(40, 32)], [(20, 16), (20, 16)]),
    ("merge", 256, [(14, 10), (14, 10), (12, 8), (6, 4)], 4),
]


def _differential_plans():
    yield from _merge_plans()
    yield from _split_plans()
    for regime, q, initial, last in BENCH_SHAPES:
        if regime == "merge":
            yield build_merge(merge_params(initial, last), GF(q))
        else:
            yield build_split(ConvertParams(tuple(initial), tuple(last)), GF(q))
    yield plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))


def _reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def test_dump_json_writes_json_dumps_bytes_for_plans_and_reports():
    """The writer against json.dumps(indent=2) on every plan and access
    report of the acceptance and benchmark shapes, and the committed documents."""
    docs = []
    for plan in _differential_plans():
        report = access_report(plan)
        docs += [
            plandoc.plan_to_doc(plan),
            plandoc.report_to_doc(report),
            plandoc.report_to_doc(report, include_trace=True),
        ]
    committed = sorted(FIXTURES.glob("*.json")) + [REPO / "perfbench" / "two_by_two_plan.json"]
    assert len(committed) == 4
    docs += [json.loads(path.read_text()) for path in committed]
    for doc in docs:
        assert plandoc.dump_json(doc) == _reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        None,
        True,
        False,
        0,
        -7,
        "",
        [[]],
        [{}],
        {"a": [], "b": {}, "c": [[], {}, [[]]]},
        {"empty": {"inner": []}},
        "Gau\u00df \u03c1 \u2713 \"quoted\" back\\slash\n\t\x00",
        ["\u00e9", "plain"],
        [True, False, None, 1],
        [1, True],
        [[1, 2], [3, 4]],
        [[1, 2], [3]],
        [[1, True], [2, 3]],
        [[1, 2], ["a", 3]],
        {"pairs": [[[1, 2]], []]},
    ],
)
def test_dump_json_edge_cases(doc):
    assert plandoc.dump_json(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [1.5, (1, 2), {1: 2}, {"a": {3}}])
def test_dump_json_refuses_what_documents_never_hold(doc):
    with pytest.raises(TypeError):
        plandoc.dump_json(doc)
