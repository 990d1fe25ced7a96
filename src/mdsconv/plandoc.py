"""JSON documents for plans, reports and codeword files.

One structured, human-readable format with a stable key schema: symbols
are always canonical integer encodings, index sets are lists of
[code, position] pairs, and matrices are embedded as their text-dump
lines ("rows cols q" first).  The merge-plan key "S" lists the
reduced-read initial codes; the split-plan keys "privileged" and "V"
name the favoured final code and its extra read positions.

`dump_json` writes exactly the bytes of `json.dumps(doc, indent=2)` plus a
newline.  With an indent, CPython's json leaves its C encoder for a
pure-Python one, which cost more than building the plan; the writer here
formats each container with one `str.join`, and each list of integers,
of strings or of [code, position] pairs in one C-level pass.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Mapping, Sequence

from .convert import (
    ConvertParams,
    GeneralPlan,
    MergePlan,
    Plan,
    AccessReport,
    SplitPlan,
)
from .errors import UsageError
from .field import GF, FieldSpec
from .grs import spec_from_dict, spec_to_dict
from .linalg import FieldMatrix, matrix_from_text, matrix_to_text


def _field_doc(field: FieldSpec) -> dict:
    return {"q": field.q, "p": field.p, "m": field.m}


def _field_from_doc(doc: Mapping) -> FieldSpec:
    try:
        q = int(doc["q"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed field document: {exc}") from exc
    field = GF(q)
    if "p" in doc and int(doc["p"]) != field.p:
        raise UsageError(f"field document p={doc['p']} does not match q={q}")
    if "m" in doc and int(doc["m"]) != field.m:
        raise UsageError(f"field document m={doc['m']} does not match q={q}")
    return field


def _matrix_lines(m: FieldMatrix) -> list[str]:
    return matrix_to_text(m).splitlines()


def _matrix_from_lines(lines: Sequence[str], field: FieldSpec) -> FieldMatrix:
    m = matrix_from_text("\n".join(lines))
    if m.field != field:
        raise UsageError("matrix dump field does not match the plan field")
    return m


def _pairs(code: int, positions: Sequence[int]) -> list[list[int]]:
    return [[code, pos] for pos in positions]


def _positions_from_pairs(pairs: Sequence, code: int, label: str) -> tuple[int, ...]:
    out = []
    for pair in pairs:
        if len(pair) != 2:
            raise UsageError(f"{label}: expected [code, position] pairs")
        c, pos = int(pair[0]), int(pair[1])
        if c != code:
            raise UsageError(f"{label}: pair {pair} names code {c}, expected {code}")
        out.append(pos)
    return tuple(out)


def _params_doc(params: ConvertParams) -> dict:
    return {
        "initial": [[n, k] for n, k in params.initial],
        "final": [[n, k] for n, k in params.final],
    }


def _params_from_doc(doc: Mapping) -> ConvertParams:
    try:
        initial = tuple((int(n), int(k)) for n, k in doc["initial"])
        final = tuple((int(n), int(k)) for n, k in doc["final"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed params block: {exc}") from exc
    return ConvertParams(initial, final)


# -- plans -------------------------------------------------------------------


def plan_to_doc(plan: Plan) -> dict:
    if isinstance(plan, MergePlan):
        return _merge_doc(plan)
    if isinstance(plan, SplitPlan):
        return _split_doc(plan)
    return _general_doc(plan)


def plan_from_doc(doc: Mapping) -> Plan:
    if not isinstance(doc, Mapping):
        raise UsageError(f"a plan document must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "merge":
        return _merge_from_doc(doc)
    if kind == "split":
        return _split_from_doc(doc)
    if kind == "general":
        return _general_from_doc(doc)
    raise UsageError(f"unknown plan kind {kind!r}")


def _merge_doc(plan: MergePlan) -> dict:
    t1 = plan.params.t1
    return {
        "kind": "merge",
        "params": _params_doc(plan.params),
        "field": _field_doc(plan.field),
        "initial_codes": [spec_to_dict(s) for s in plan.initial_specs],
        "final_code": spec_to_dict(plan.final_spec),
        "S": sorted(plan.reduced),
        "unchanged": [_pairs(i, plan.unchanged[i - 1]) for i in range(1, t1 + 1)],
        "reads": [_pairs(i, plan.reads[i - 1]) for i in range(1, t1 + 1)],
        "written": _written_pairs(plan)[0],
        "punctured_parity": [
            {"code": i, "matrix": _matrix_lines(plan.punctured_parity[i - 1])}
            for i in sorted(plan.reduced)
        ],
        "final_unchanged_blocks": [
            {"code": i, "matrix": _matrix_lines(plan.final_unchanged_blocks[i - 1])}
            for i in range(1, t1 + 1)
            if i not in plan.reduced
        ],
        "final_written_block": _matrix_lines(plan.final_written_block),
    }


def _written_pairs(plan: MergePlan | SplitPlan) -> list[list[list[int]]]:
    """Per final code j, the [t1 + j, idx] pairs of the symbols it writes."""
    p = plan.params
    return [
        _pairs(p.t1 + j, range(1, n - sum(map(len, row)) + 1))
        for j, (n, row) in enumerate(zip(p.n_final, plan.grid[0]), 1)
    ]


def _check_written(listed, expected: list) -> None:
    """Refuse a document whose `written` list is not the one its plan writes."""
    if listed != expected:
        raise UsageError(f"written: the document lists {listed}, but the plan writes {expected}")


def _code_slot(entry: Mapping, t1: int, label: str) -> int:
    """0-based slot of an entry's initial-code index, which must lie in 1..t1."""
    code = int(entry["code"])
    if not 1 <= code <= t1:
        raise UsageError(f"{label}: code {code} out of range 1..{t1}")
    return code - 1


def _merge_from_doc(doc: Mapping) -> MergePlan:
    try:
        params = _params_from_doc(doc["params"])
        field = _field_from_doc(doc["field"])
        initial = tuple(spec_from_dict(d) for d in doc["initial_codes"])
        final = spec_from_dict(doc["final_code"])
        reduced = frozenset(int(i) for i in doc["S"])
        unchanged = tuple(
            _positions_from_pairs(doc["unchanged"][i - 1], i, f"unchanged[{i}]")
            for i in range(1, params.t1 + 1)
        )
        reads = tuple(
            _positions_from_pairs(doc["reads"][i - 1], i, f"reads[{i}]")
            for i in range(1, params.t1 + 1)
        )
        punctured: list[FieldMatrix | None] = [None] * params.t1
        for entry in doc["punctured_parity"]:
            punctured[_code_slot(entry, params.t1, "punctured_parity")] = _matrix_from_lines(
                entry["matrix"], field
            )
        blocks: list[FieldMatrix | None] = [None] * params.t1
        for entry in doc["final_unchanged_blocks"]:
            blocks[_code_slot(entry, params.t1, "final_unchanged_blocks")] = _matrix_from_lines(
                entry["matrix"], field
            )
        written_block = _matrix_from_lines(doc["final_written_block"], field)
        written = doc["written"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise UsageError(f"malformed merge plan document: {exc}") from exc
    plan = MergePlan(
        params=params,
        field=field,
        initial_specs=initial,
        final_spec=final,
        reduced=reduced,
        unchanged=unchanged,
        reads=reads,
        punctured_parity=tuple(punctured),
        final_unchanged_blocks=tuple(blocks),
        final_written_block=written_block,
    )
    _check_written(written, _written_pairs(plan)[0])
    return plan


def _split_doc(plan: SplitPlan) -> dict:
    t2 = plan.params.t2
    doc = {
        "kind": "split",
        "params": _params_doc(plan.params),
        "field": _field_doc(plan.field),
        "initial_code": spec_to_dict(plan.initial_spec),
        "final_codes": [spec_to_dict(s) for s in plan.final_specs],
        "unchanged": [_pairs(1, plan.unchanged[j - 1]) for j in range(1, t2 + 1)],
        "reads": [_pairs(1, plan.reads[j - 1]) for j in range(1, t2 + 1)],
        "written": _written_pairs(plan),
        "privileged": plan.privileged,
        "V": _pairs(1, plan.extra_reads),
        "punctured_parity": (
            _matrix_lines(plan.punctured_parity) if plan.punctured_parity is not None else None
        ),
    }
    return doc


def _split_from_doc(doc: Mapping) -> SplitPlan:
    try:
        params = _params_from_doc(doc["params"])
        field = _field_from_doc(doc["field"])
        initial = spec_from_dict(doc["initial_code"])
        finals = tuple(spec_from_dict(d) for d in doc["final_codes"])
        unchanged = tuple(
            _positions_from_pairs(doc["unchanged"][j - 1], 1, f"unchanged[{j}]")
            for j in range(1, params.t2 + 1)
        )
        reads = tuple(
            _positions_from_pairs(doc["reads"][j - 1], 1, f"reads[{j}]")
            for j in range(1, params.t2 + 1)
        )
        privileged = doc["privileged"]
        privileged = None if privileged is None else int(privileged)
        extra = _positions_from_pairs(doc["V"], 1, "V")
        hbar = (
            _matrix_from_lines(doc["punctured_parity"], field)
            if doc.get("punctured_parity") is not None
            else None
        )
        written = doc["written"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise UsageError(f"malformed split plan document: {exc}") from exc
    plan = SplitPlan(
        params=params,
        field=field,
        initial_spec=initial,
        final_specs=finals,
        unchanged=unchanged,
        reads=reads,
        privileged=privileged,
        extra_reads=extra,
        punctured_parity=hbar,
    )
    _check_written(written, _written_pairs(plan))
    return plan


def _general_doc(plan: GeneralPlan) -> dict:
    t1, t2 = plan.params.t1, plan.params.t2
    return {
        "kind": "general",
        "params": _params_doc(plan.params),
        "field": _field_doc(plan.field),
        "initial_codes": [spec_to_dict(s) for s in plan.initial_specs],
        "final_codes": [None if s is None else spec_to_dict(s) for s in plan.final_specs],
        "unchanged": [
            [_pairs(i, plan.unchanged[j - 1][i - 1]) for i in range(1, t1 + 1)]
            for j in range(1, t2 + 1)
        ],
        "reads": [
            [_pairs(i, plan.reads[j - 1][i - 1]) for i in range(1, t1 + 1)]
            for j in range(1, t2 + 1)
        ],
        "layout": [
            [[code, pos] for code, pos in plan.layouts[j - 1]] for j in range(1, t2 + 1)
        ],
        "sigma": [_matrix_lines(plan.sigmas[j - 1]) for j in range(1, t2 + 1)],
    }


def _general_from_doc(doc: Mapping) -> GeneralPlan:
    try:
        params = _params_from_doc(doc["params"])
        field = _field_from_doc(doc["field"])
        t1, t2 = params.t1, params.t2
        initial = tuple(spec_from_dict(d) for d in doc["initial_codes"])
        finals = tuple(
            None if d is None else spec_from_dict(d) for d in doc["final_codes"]
        )
        unchanged = tuple(
            tuple(
                _positions_from_pairs(doc["unchanged"][j - 1][i - 1], i, f"unchanged[{j}][{i}]")
                for i in range(1, t1 + 1)
            )
            for j in range(1, t2 + 1)
        )
        reads = tuple(
            tuple(
                _positions_from_pairs(doc["reads"][j - 1][i - 1], i, f"reads[{j}][{i}]")
                for i in range(1, t1 + 1)
            )
            for j in range(1, t2 + 1)
        )
        layouts = tuple(
            tuple((int(c), int(pos)) for c, pos in doc["layout"][j - 1])
            for j in range(1, t2 + 1)
        )
        sigmas = tuple(
            _matrix_from_lines(doc["sigma"][j - 1], field) for j in range(1, t2 + 1)
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise UsageError(f"malformed general plan document: {exc}") from exc
    return GeneralPlan(
        params=params,
        field=field,
        initial_specs=initial,
        final_specs=finals,
        unchanged=unchanged,
        reads=reads,
        layouts=layouts,
        sigmas=sigmas,
    )


# -- reports and codeword files ------------------------------------------------


def report_to_doc(report: AccessReport, include_trace: bool = False) -> dict:
    doc = {
        "rho_r": report.rho_r,
        "rho_w": report.rho_w,
        "rho": report.rho,
        "bound": report.bound,
        "optimal": report.optimal,
        "stable": report.stable,
        "per_initial_reads": list(report.per_initial_reads),
    }
    if include_trace:
        doc["trace"] = [
            {"code": code, "position": pos, "status": status}
            for code, pos, status in report.trace
        ]
    return doc


def dump_json(doc: dict) -> str:
    """`doc` as `json.dumps(doc, indent=2)` writes it, plus a newline.

    A document is built of dicts with string keys, lists, strings, ints,
    bools and None, as `plan_to_doc` and `report_to_doc` build them;
    anything else is a TypeError.
    """
    return _dump(doc, "") + "\n"


# Scalars by exact type, as json writes them; a bool indexes its own text.
_SCALAR = {
    str: _encode_str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_INT, _STR, _LIST, _TWO = {int}, {str}, {list}, {2}


def _dump(value, indent: str) -> str:
    """`value` as json.dumps(value, indent=2) writes it at nesting `indent`."""
    kind = type(value)
    scalar = _SCALAR.get(kind)
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [_encode_str(k) + ": " + _dump(v, inner) for k, v in value.items()]
        opening, closing = "{", "}"
    elif kind is list:
        if not value:
            return "[]"
        items = _list_items(value, inner)
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    sep = ",\n" + inner
    return f"{opening}\n{inner}{sep.join(items)}\n{indent}{closing}"


def _list_items(values: Sequence, indent: str):
    """The items of a non-empty list at nesting `indent`, each as `_dump`
    writes it.  A list of ints or of strings takes one map; a list of
    [int, int] pairs one %-format of a template repeated once per pair."""
    kinds = set(map(type, values))
    if kinds == _INT:
        return map(int.__repr__, values)
    if kinds == _STR:
        return map(_encode_str, values)
    if (kinds == _LIST and set(map(len, values)) == _TWO
            and set(map(type, chain.from_iterable(values))) == _INT):
        inner = indent + "  "
        pair = f"[\n{inner}%d,\n{inner}%d\n{indent}]"
        return [f",\n{indent}".join([pair] * len(values)) % tuple(chain.from_iterable(values))]
    return [_dump(v, indent) for v in values]


def load_plan(path: str) -> Plan:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read plan {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer past int's digit limit
        raise UsageError(f"plan {path} is not valid JSON: {exc}") from exc
    return plan_from_doc(doc)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def save_plan(plan: Plan, path: str) -> None:
    _write_text(path, dump_json(plan_to_doc(plan)))


def read_symbol_lines(path: str, field: FieldSpec) -> list[tuple[int, ...]]:
    """Symbol rows from a text file: one sequence per line, decimal encodings."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = tuple(int(t) for t in line.split())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: symbols must be integers") from exc
        for x in row:
            if not 0 <= x < field.q:
                raise UsageError(f"{path}:{lineno}: symbol {x} is not an element of GF({field.q})")
        rows.append(row)
    return rows


def write_symbol_lines(path: str, rows: Sequence[Sequence[int]]) -> None:
    _write_text(path, "".join(" ".join(map(str, row)) + "\n" for row in rows))
