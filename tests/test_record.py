"""The frozen records (`mdsconv.record`): construction, checked and
unchecked (`_trusted`), equality, hashing, immutability, `replace` and
pickling of every record class, and a CLI process that imports neither
`dataclasses` nor `typing`."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from mdsconv import convert, grs, linalg, plandoc
from mdsconv.errors import UsageError
from mdsconv.field import GF, FieldSpec
from mdsconv.record import Record, replace

SRC = Path(__file__).parents[1] / "src"
FIXTURES = Path(__file__).parent / "fixtures"


def _plans():
    """The README merge and split and the 2x2 fixture, each after one conversion."""
    merge = convert.build_merge(convert.merge_params([(5, 3), (5, 3)], 2), GF(8))
    split = convert.build_split(convert.ConvertParams(((10, 7),), ((6, 4), (5, 3))), GF(16))
    general = plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))
    for plan in (merge, split, general):
        stripe = [grs.encode(spec, (1,) * spec.k) for spec in plan.initial_specs]
        convert.run_conversion(plan, stripe)
    return merge, split, general


def _records():
    """(record, a field change that breaks its invariants or None), one per record class."""
    merge, split, general = _plans()
    spec = merge.initial_specs[0]
    matrix = grs.parity_part(spec)  # spec has encoded, so this keeps its compiled form
    codeword = grs.encode(spec, (1, 2, 3))
    return [
        (merge.params, {"initial": ((5, 5),)}),
        (convert.merge_lower_bound(merge.params), None),
        (convert.split_lower_bound(split.params), None),
        (merge, {"reduced": frozenset()}),
        (split, {"privileged": 5}),
        (general, {"sigmas": ()}),
        (convert.plan_report(merge), None),
        (convert.verify_optimal_structure(merge), None),
        (spec, {"r": 0}),
        (codeword, {"symbols": (spec.field.q, *codeword.symbols[1:])}),
        (matrix, {"entries": (1,)}),
        (spec.field, {"m": 0}),  # GF(8): its tables and product rows are built
    ]


RECORDS = _records()


# Values each class caches on its records once they have been used.
CACHED = {
    "MergePlan": ("_executable", "_report"),
    "SplitPlan": ("_executable", "_report"),
    "GeneralPlan": ("_executable", "_report"),
    "ExtGrsSpec": ("_encoder", "_parity"),
    "FieldMatrix": ("_parity_form",),
    "FieldSpec": ("_exp", "_log", "_product_rows", "_unit_rows"),
}


def test_every_record_class_is_covered():
    classes = {type(obj) for obj, _ in RECORDS}
    assert classes == {
        convert.ConvertParams, convert.MergeBound, convert.SplitBound, convert.MergePlan,
        convert.SplitPlan, convert.GeneralPlan, convert.AccessReport, convert.StructureCheck,
        grs.ExtGrsSpec, grs.Codeword, linalg.FieldMatrix, FieldSpec,
    }
    assert all(issubclass(cls, Record) for cls in classes)


@pytest.mark.parametrize("obj, bad", RECORDS, ids=[type(obj).__name__ for obj, _ in RECORDS])
def test_record_contract(obj, bad):
    cls = type(obj)
    values = [getattr(obj, n) for n in cls._fields]
    positional = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert positional == obj and by_keyword == obj and positional is not obj
    assert hash(positional) == hash(obj) == hash(by_keyword)
    assert obj != object() and not obj == values
    shown = f"GF({obj.q})" if cls is FieldSpec else f"{cls.__name__}({cls._fields[0]}="
    assert repr(obj).startswith(shown)
    for name in (*cls._fields, "_executable"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert [getattr(obj, n) for n in cls._fields] == values

    copy = replace(obj)
    assert copy == obj and copy is not obj
    for name in CACHED.get(cls.__name__, ()):
        assert getattr(obj, name, None) is not None
        assert getattr(copy, name, None) is None
    if bad is not None:
        with pytest.raises(UsageError):
            replace(obj, **bad)
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1)

    clone = pickle.loads(pickle.dumps(obj))
    assert clone == obj
    for name in CACHED.get(cls.__name__, ()):
        assert getattr(clone, name, None) is not None


@pytest.mark.parametrize("obj, bad", RECORDS, ids=[type(obj).__name__ for obj, _ in RECORDS])
def test_trusted_constructor_sets_the_fields_unchecked(obj, bad):
    """`Cls._trusted` takes the checked constructor's arguments and builds
    an equal record, and skips its checks: an invalid field goes through.
    `FieldSpec` has none: its constructor also sets `q` and `modulus`."""
    cls = type(obj)
    if cls is FieldSpec:
        assert not hasattr(cls, "_trusted")
        return
    values = [getattr(obj, n) for n in cls._fields]
    for built in (cls._trusted(*values), cls._trusted(**dict(zip(cls._fields, values)))):
        assert type(built) is cls and built == obj and built is not obj
        assert vars(built) == dict(zip(cls._fields, values))
        with pytest.raises(AttributeError):
            setattr(built, cls._fields[0], None)
    if bad is not None:
        broken = cls._trusted(**{**dict(zip(cls._fields, values)), **bad})
        assert all(getattr(broken, name) == value for name, value in bad.items())
        with pytest.raises(UsageError):
            cls(**{n: getattr(broken, n) for n in cls._fields})


def test_trusted_constructor_keeps_the_defaults():
    spec = grs.ExtGrsSpec(GF(5), 4, 2, (0, 1, 2), (1, 1, 1, 1))
    assert grs.Codeword._trusted((0, 0, 0, 0)) == grs.Codeword((0, 0, 0, 0))
    assert grs.Codeword._trusted((0, 0, 0, 0)).code is None
    assert grs.Codeword._trusted(symbols=(0, 0, 0, 0), code=spec).code is spec
    assert convert.StructureCheck._trusted(True) == convert.StructureCheck(ok=True, diagnostic="")


def test_a_pickled_spec_keeps_a_working_encoder():
    spec = grs.ExtGrsSpec(GF(256), 14, 4, tuple(range(1, 14)), (1,) * 14)
    message = tuple(range(10))
    encoded = grs.encode(spec, message)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone._encoder is not spec._encoder
    assert grs.encode(clone, message).symbols == encoded.symbols
    assert grs.encode(clone, list(message)).code == spec


def test_defaults():
    spec = grs.ExtGrsSpec(GF(5), 4, 2, (0, 1, 2), (1, 1, 1, 1))
    assert grs.Codeword((0, 0, 0, 0)).code is None
    assert grs.Codeword(symbols=(0, 0, 0, 0), code=spec).code is spec
    assert convert.StructureCheck(True) == convert.StructureCheck(ok=True, diagnostic="")
    assert not convert.StructureCheck(False, "fault")


def test_a_codeword_with_no_code_keeps_its_symbols_as_a_tuple():
    """With no code nothing is checked, but the symbols are kept as a tuple:
    the codeword hashes, equals its tuple form, and does not follow the list
    it was built from."""
    given = [1, 2]
    built = grs.Codeword(given)
    assert type(built.symbols) is tuple
    assert built == grs.Codeword((1, 2)) and hash(built) == hash(grs.Codeword((1, 2)))
    given[0] = 5
    assert built.symbols == (1, 2)


_MERGE = convert.build_merge(convert.merge_params([(5, 3), (5, 3)], 2), GF(8))
_SPLIT = convert.build_split(convert.ConvertParams(((10, 7),), ((6, 4), (5, 3))), GF(16))

# A plan value that is not exactly an int, each equal to the int it stands for.
NON_INTEGER_PLAN_VALUES = {
    "bool unchanged position": (_MERGE, {"unchanged": ((True, 2, 3), (1, 2, 3))}),
    "float unchanged position": (_MERGE, {"unchanged": ((1, 2, 3), (1, 2, 3.0))}),
    "bool read position": (_MERGE, {"reads": ((4, 5), (True, 5))}),
    "float read position": (_MERGE, {"reads": ((4.0, 5), (4, 5))}),
    "float extra read": (_SPLIT, {"extra_reads": (9.0, 10)}),
    "bool privileged": (_SPLIT, {"privileged": True}),
    "float privileged": (_SPLIT, {"privileged": 1.0}),
    "float S entry": (_MERGE, {"reduced": {1.0, 2}}),
    "bool S entry": (_MERGE, {"reduced": frozenset({True, 2})}),
}


@pytest.mark.parametrize("case", NON_INTEGER_PLAN_VALUES)
def test_plan_constructors_refuse_values_that_are_not_ints(case):
    """Positions, the privileged index and S entries must be exactly `int`,
    as `ConvertParams` has it for shapes: a bool or a float equal to a valid
    value is refused, not kept, so it can never be written to a document."""
    plan, change = NON_INTEGER_PLAN_VALUES[case]
    with pytest.raises(UsageError, match="integer"):
        replace(plan, **change)


def _listed(record, *names) -> dict:
    """record's fields `names` with every tuple in them, at any depth, a list."""
    def listed(value):
        return [listed(v) for v in value] if isinstance(value, tuple) else value
    return {name: listed(getattr(record, name)) for name in names}


_GENERAL = plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))
_MATRIX = linalg.FieldMatrix(GF(8), 1, 2, (1, 2))
_SPEC = grs.ExtGrsSpec(GF(8), 5, 2, (1, 2, 3, 4), (1,) * 5)
_REPORT = convert.access_report(_MERGE)
_MERGE_BOUND = convert.merge_lower_bound(_MERGE.params)
_SPLIT_BOUND = convert.split_lower_bound(_SPLIT.params)

# Sequence fields given as lists (S as a set), each with the record built from tuples.
FROM_LISTS = {
    "merge S as a set": (_MERGE, {"reduced": {1, 2}}),
    "merge specs and grids": (_MERGE, _listed(_MERGE, "initial_specs", "unchanged", "reads")),
    "split extra reads": (_SPLIT, _listed(_SPLIT, "extra_reads")),
    "split specs and grids": (_SPLIT, _listed(_SPLIT, "final_specs", "unchanged", "reads", "extra_reads")),
    "general specs, grids, layouts and sigmas": (_GENERAL, _listed(
        _GENERAL, "initial_specs", "final_specs", "unchanged", "reads", "layouts", "sigmas")),
    "matrix entries": (_MATRIX, {"entries": [1, 2]}),
    "code points and multipliers": (_SPEC, {"gamma": [1, 2, 3, 4], "w": [1] * 5}),
    "access report reads and trace": (_REPORT, _listed(_REPORT, "per_initial_reads", "trace")),
    "merge bound reads": (_MERGE_BOUND, _listed(_MERGE_BOUND, "per_code_reads")),
    "split bound feasible finals": (_SPLIT_BOUND, _listed(_SPLIT_BOUND, "feasible")),
}


@pytest.mark.parametrize("case", FROM_LISTS)
def test_checked_records_keep_sequence_fields_as_tuples(case):
    """A checked constructor keeps its sequence fields as tuples, grids as
    tuples of tuples and S as a frozenset, so a record built from lists or
    a set equals, and hashes as, the one built from tuples."""
    record, change = FROM_LISTS[case]
    built = replace(record, **change)
    assert built == record and hash(built) == hash(record)
    assert all(getattr(built, name) == getattr(record, name) for name in change)


def test_a_loaded_general_plan_keeps_the_tuples_it_was_given(monkeypatch):
    """A checked constructor keeps a field that is already tuples at every
    depth it freezes: the 2x2 fixture's plan holds the very depth-3 grids
    that `plandoc._grid_from_doc` read.  Grids and layouts given as lists
    still freeze to tuples at every depth."""
    grids = {}
    real = plandoc._grid_from_doc

    def recording(node, label, axes, code=1):
        grids[label] = real(node, label, axes, code)
        return grids[label]

    monkeypatch.setattr(plandoc, "_grid_from_doc", recording)
    plan = plandoc.load_plan(str(FIXTURES / "two_by_two_plan.json"))
    assert plan.unchanged is grids["unchanged"] and plan.reads is grids["reads"]
    listed = replace(plan, **_listed(plan, "unchanged", "reads", "layouts"))
    for name in ("unchanged", "reads", "layouts"):
        value = getattr(listed, name)
        assert value == getattr(plan, name)
        assert type(value) is tuple and all(type(row) is tuple for row in value)
        assert all(type(cell) is tuple for row in value for cell in row)


def test_cli_process_loads_no_dataclasses_inspect_or_typing():
    # -S: a site .pth file may preload typing into every interpreter.
    code = "import sys; import mdsconv.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "mdsconv.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}
