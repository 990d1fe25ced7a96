import json
import random
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

FIXTURES = Path(__file__).parent / "fixtures"


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
