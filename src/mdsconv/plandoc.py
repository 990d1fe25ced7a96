"""JSON documents for plans, reports and codeword files.

One structured, human-readable format with a stable key schema: symbols
are always canonical integer encodings, index sets are lists of
[code, position] pairs, and matrices are embedded as their text-dump
lines ("rows cols q" first).  Numbers in a document must be JSON integers
and numbers in a symbol file the digits 0-9 (`errors.json_int`,
`errors.json_ints`, `errors.decimals`); a matrix dump must be exactly the
lines `linalg.matrix_to_text` writes (`linalg.matrix_from_lines`).

A plan document is one header ("kind", "params", "field"), the kind's
codes, the "unchanged" and "reads" grids, and the kind's certificate.
`plan_to_doc` and `plan_from_doc` write and read the header and the grids
in one place for every kind; the grids are the plan's [final j][initial i]
view, nested by initial code in a merge (one final code), by final code in
a split (one initial code) and as [j][i] in a general plan.  Each kind adds
only its own keys:

- merge: "initial_codes", "final_code" and "S" (the reduced-read initial
  codes); certificate "written", "punctured_parity" (the restricted parity
  check of each code in S), "final_unchanged_blocks" and
  "final_written_block";
- split: "initial_code" and "final_codes"; "privileged" and "V" (the
  favoured final code and its extra read positions); certificate "written"
  and "punctured_parity";
- general: "initial_codes" and "final_codes"; "layout" and "sigma" (each
  final code's coordinates and conversion matrix).

A plan holds no certificate: `plan_to_doc` writes the one its codes and
grids give (`convert.certificate`).  `plan_from_doc` compares each stored
block, in document order, with the dump of the derived one, and parses
only a block that differs: a malformed dump is a `UsageError`, and any
other matrix, or a block the codes and grid do not determine, a
`CertificateError` that starts with the block's key.  A document that
loads is then exactly the one its plan writes: each integer was read as a
JSON integer (and "written" compared by `repr`), so `==` with
`plan_to_doc`'s document is JSON equality, and a key the program does not
write or entries out of order are a `UsageError` that starts with the
top-level key.

`dump_json` writes exactly the bytes of `json.dumps(doc, indent=2)` plus a
newline.  With an indent, CPython's json leaves its C encoder for a
pure-Python one, which cost more than building the plan; the writer here
formats each container with one `str.join`, and each list of integers,
of strings or of [code, position] pairs in one C-level pass.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping, Sequence
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from stat import S_ISREG

from .convert import (
    ConvertParams,
    GeneralPlan,
    MergePlan,
    Plan,
    AccessReport,
    SplitPlan,
    _written_count,
    certificate,
)
from .errors import CertificateError, UsageError, decimals, json_int, json_ints
from .field import FieldSpec
from .grs import field_from_dict, spec_from_dict, spec_to_dict
from .linalg import FieldMatrix, matrix_from_lines, matrix_to_text
from .record import kept


def _matrix_lines(m: FieldMatrix) -> list[str]:
    """m's dump, kept on m: loading compares a derived block's dump, then
    writes the plan's document."""
    return kept(m, "_dump", matrix_to_text, m).splitlines()


def _matrix_from_lines(lines: Sequence[str], field: FieldSpec) -> FieldMatrix:
    try:
        m = matrix_from_lines(lines)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed matrix dump: {exc!r}") from exc
    if m.field != field:
        raise UsageError("matrix dump field does not match the plan field")
    kept(m, "_dump", "\n".join, lines)  # a dump that parses is m's own text
    return m


def _pairs(code: int, positions: Sequence[int]) -> list[list[int]]:
    return [[code, pos] for pos in positions]


def _positions_from_pairs(pairs: Sequence, code: int, label: str) -> tuple[int, ...]:
    out = []
    for pair in pairs:
        if len(pair) != 2:
            raise UsageError(f"{label}: expected [code, position] pairs")
        c, pos = json_int(pair[0], label), json_int(pair[1], label)
        if c != code:
            raise UsageError(f"{label}: pair {pair} names code {c}, expected {code}")
        out.append(pos)
    return tuple(out)


def _params_from_doc(doc: Mapping) -> ConvertParams:
    try:
        initial = tuple((json_int(n, "initial"), json_int(k, "initial")) for n, k in doc["initial"])
        final = tuple((json_int(n, "final"), json_int(k, "final")) for n, k in doc["final"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed params block: {exc}") from exc
    return ConvertParams(initial, final)


# -- plans -------------------------------------------------------------------
#
# A kind's documents and its in-memory plan nest the [final j][initial i]
# grids (`plan.grid`) by the axes the kind keeps: "i" for a merge (one final
# code), "j" for a split (one initial code), "ji" for a general plan.


def plan_to_doc(plan: Plan) -> dict:
    """A plan's document: the header and grids, the same for every kind, and
    the kind's codes and certificate."""
    kind = _KIND_OF[type(plan)]
    _, axes, keys, _, _ = _CODECS[kind]
    codes, certificate = keys(plan)
    unchanged, reads = (
        _nested([[_pairs(i, cell) for i, cell in enumerate(row, 1)] for row in grid], axes)
        for grid in plan.grid
    )
    return {
        "kind": kind,
        "params": {"initial": list(map(list, plan.params.initial)),
                   "final": list(map(list, plan.params.final))},
        "field": {"q": plan.field.q, "p": plan.field.p, "m": plan.field.m},
        **codes,
        "unchanged": unchanged,
        "reads": reads,
        **certificate,
    }


def plan_from_doc(doc: Mapping) -> Plan:
    """The plan a document describes.  A malformed document, or one that is
    not exactly the document its plan writes, is a UsageError; a stored
    certificate block its codes and grid do not give is a CertificateError."""
    if not isinstance(doc, dict):
        raise UsageError(f"a plan document must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    codec = _CODECS.get(kind) if isinstance(kind, str) else None
    if codec is None:
        raise UsageError(f"unknown plan kind {kind!r}")
    cls, axes, _, read_codes, read_certificate = codec
    try:
        params = _params_from_doc(doc["params"])
        field = field_from_dict(doc["field"])
        codes = read_codes(doc)
        unchanged = _grid_from_doc(doc["unchanged"], "unchanged", axes)
        reads = _grid_from_doc(doc["reads"], "reads", axes)
        fields = read_certificate(doc, params, field, codes)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise UsageError(f"malformed {kind} plan document: {exc}") from exc
    listed, stored = fields.pop("written", None), fields.pop("stored", None)
    plan = cls(params=params, field=field, **codes, unchanged=unchanged, reads=reads, **fields)
    if kind != "general":  # merge and split documents list the symbols each final code writes
        written = _written_pairs(plan, axes)
        if repr(listed) != repr(written):  # unlike ==, repr tells 1.0 and True from 1
            raise UsageError(f"written: the document lists {listed}, but the plan writes {written}")
        derived = certificate(plan)
        for key, lines in stored:
            try:
                mine = _matrix_lines(next(derived))
            except UsageError as exc:  # the codes and grid do not determine this block
                raise CertificateError(f"{key}: {exc}") from None
            if lines != mine:
                _matrix_from_lines(lines, field)  # a malformed dump is a UsageError
                raise CertificateError(f"{key}: the document stores a matrix that the codes and "
                                       "grid do not give")
    mine = plan_to_doc(plan)
    if doc != mine:  # doc holds every key of mine, as each was read above
        key = next(key for key in doc if key not in mine or doc[key] != mine[key])
        raise UsageError(f"{key}: the document differs from the one its plan writes")
    return plan


def _nested(grid: Sequence[Sequence], axes: str) -> Sequence:
    """A [j][i] grid nested by `axes`: by initial code, by final code, or as is."""
    if axes == "i":
        return grid[0]
    if axes == "j":
        return [row[0] for row in grid]
    return grid


def _grid_from_doc(node: Sequence, label: str, axes: str, code: int = 1) -> tuple:
    """A document's grid `node`, nested by `axes`, read whole, so the plan's
    count checks see every entry.  Each cell's label names its place in the
    document, as `unchanged[i]`, `unchanged[j]` or `unchanged[j][i]`, and
    its pairs must name its initial code i (1 in a split)."""
    if not axes:
        return _positions_from_pairs(node, code, label)
    return tuple(_grid_from_doc(sub, f"{label}[{x}]", axes[1:], x if axes[0] == "i" else code)
                 for x, sub in enumerate(node, 1))


def _written_pairs(plan: MergePlan | SplitPlan, axes: str) -> list:
    """The [t1 + j, idx] pairs of the symbols each final code j writes, nested by `axes`."""
    p = plan.params
    pairs = [
        _pairs(p.t1 + j, range(1, _written_count(p, j, row) + 1))
        for j, row in enumerate(plan.grid[0], 1)
    ]
    return pairs if "j" in axes else pairs[0]


def _by_code(matrices: Sequence[FieldMatrix | None]) -> list[dict]:
    return [
        {"code": i, "matrix": _matrix_lines(m)} for i, m in enumerate(matrices, 1) if m is not None
    ]


def _by_code_from_doc(doc: Mapping, key: str, t1: int) -> tuple:
    """One slot per initial code: the matrix dump of the `key` entry that
    names it, else None; entries out of ascending code order are a UsageError."""
    out: list[Sequence[str] | None] = [None] * t1
    last = 0
    for entry in doc[key]:
        matrix = entry["matrix"]
        code = json_int(entry["code"], key)
        if not last < code <= t1:
            raise UsageError(f"{key}: code {code} out of range or order; need ascending codes in 1..{t1}")
        out[code - 1], last = matrix, code
    return tuple(out)


def _merge_keys(plan: MergePlan) -> tuple[dict, dict]:
    *blocks, written_block = certificate(plan)
    in_s = [i in plan.reduced for i in range(1, len(blocks) + 1)]
    return {
        "initial_codes": [spec_to_dict(s) for s in plan.initial_specs],
        "final_code": spec_to_dict(plan.final_spec),
        "S": sorted(plan.reduced),
    }, {
        "written": _written_pairs(plan, "i"),
        "punctured_parity": _by_code([b if s else None for b, s in zip(blocks, in_s)]),
        "final_unchanged_blocks": _by_code([None if s else b for b, s in zip(blocks, in_s)]),
        "final_written_block": _matrix_lines(written_block),
    }


def _merge_codes(doc: Mapping) -> dict:
    return {
        "initial_specs": tuple(spec_from_dict(d) for d in doc["initial_codes"]),
        "final_spec": spec_from_dict(doc["final_code"]),
        "reduced": frozenset(json_ints(doc["S"], "S")),
    }


def _merge_certificate(doc: Mapping, params: ConvertParams, field: FieldSpec, codes: dict) -> dict:
    """The stored certificate's dumps as `convert.certificate` lays it out,
    each with its document key."""
    parity = _by_code_from_doc(doc, "punctured_parity", params.t1)
    blocks = _by_code_from_doc(doc, "final_unchanged_blocks", params.t1)
    stored = []
    for i, (hbar, block) in enumerate(zip(parity, blocks), 1):
        if (hbar is None, block is None) != (i not in codes["reduced"], i in codes["reduced"]):
            raise UsageError(f"code {i}: punctured_parity must list exactly the codes in S, "
                             "and final_unchanged_blocks the others")
        stored.append((f"punctured_parity: code {i}", hbar) if block is None else
                      (f"final_unchanged_blocks: code {i}", block))
    stored.append(("final_written_block", doc["final_written_block"]))
    return {"written": doc["written"], "stored": stored}


def _split_keys(plan: SplitPlan) -> tuple[dict, dict]:
    hbar = next(certificate(plan), None)
    return {
        "initial_code": spec_to_dict(plan.initial_spec),
        "final_codes": [spec_to_dict(s) for s in plan.final_specs],
    }, {
        "written": _written_pairs(plan, "j"),
        "privileged": plan.privileged,
        "V": _pairs(1, plan.extra_reads),
        "punctured_parity": None if hbar is None else _matrix_lines(hbar),
    }


def _split_codes(doc: Mapping) -> dict:
    return {
        "initial_spec": spec_from_dict(doc["initial_code"]),
        "final_specs": tuple(spec_from_dict(d) for d in doc["final_codes"]),
    }


def _split_certificate(doc: Mapping, params: ConvertParams, field: FieldSpec, codes: dict) -> dict:
    """"privileged" and "V", and the stored certificate's dump as
    `convert.certificate` lays it out, with its document key."""
    privileged, hbar = doc["privileged"], doc["punctured_parity"]
    if (hbar is None) != (privileged is None):
        raise UsageError("punctured_parity must be given exactly when a final code is privileged")
    return {
        "privileged": None if privileged is None else json_int(privileged, "privileged"),
        "extra_reads": _positions_from_pairs(doc["V"], 1, "V"),
        "written": doc["written"],
        "stored": () if hbar is None else (("punctured_parity", hbar),),
    }


def _general_keys(plan: GeneralPlan) -> tuple[dict, dict]:
    return {
        "initial_codes": [spec_to_dict(s) for s in plan.initial_specs],
        "final_codes": [None if s is None else spec_to_dict(s) for s in plan.final_specs],
    }, {
        "layout": [[list(sid) for sid in layout] for layout in plan.layouts],
        "sigma": [_matrix_lines(sigma) for sigma in plan.sigmas],
    }


def _general_codes(doc: Mapping) -> dict:
    return {
        "initial_specs": tuple(spec_from_dict(d) for d in doc["initial_codes"]),
        "final_specs": tuple(None if d is None else spec_from_dict(d) for d in doc["final_codes"]),
    }


def _general_certificate(doc: Mapping, params: ConvertParams, field: FieldSpec, codes: dict) -> dict:
    return {
        "layouts": tuple(
            tuple((json_int(c, "layout"), json_int(pos, "layout")) for c, pos in layout)
            for layout in doc["layout"]
        ),
        "sigmas": tuple(_matrix_from_lines(lines, field) for lines in doc["sigma"]),
    }


# Per kind: its plan class, the grid axes it keeps, its codes-and-certificate
# writer, and its readers of codes and of certificate.
_CODECS = {
    "merge": (MergePlan, "i", _merge_keys, _merge_codes, _merge_certificate),
    "split": (SplitPlan, "j", _split_keys, _split_codes, _split_certificate),
    "general": (GeneralPlan, "ji", _general_keys, _general_codes, _general_certificate),
}
_KIND_OF = {codec[0]: kind for kind, codec in _CODECS.items()}


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


def _read_json(path: str, what: str):
    """The JSON value in the file at `path`; UsageError, naming the file as
    `what`, when it cannot be read or is not valid JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, not UTF-8, or an integer past int's digit limit
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_plan(path: str) -> Plan:
    return plan_from_doc(_read_json(path, "plan"))


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, over an existing file in place.

    The file is opened without truncation (`_in_place`), written, and then
    cut at the written length when it is a regular file; a device, a tty or
    a pipe (`--out /dev/null`) is only written.  On ext4, truncating a file
    to zero frees its blocks and makes `close` start writeback, which cost
    several times the whole write.  A new file gets mode 0o666 & ~umask, as
    with `open`; an existing file keeps its mode, inode, hard links and
    symlink target.  The write is neither fsynced nor atomic: a crash or a
    full disk mid-write can leave old and new bytes mixed.  Any OSError is
    a UsageError that starts "cannot write".
    """
    try:
        with open(path, "w", encoding="utf-8", opener=_in_place) as fh:
            fh.write(text)
            if S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _in_place(path: str, flags: int) -> int:
    """`open`'s descriptor for mode "w", without O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def save_plan(plan: Plan, path: str) -> None:
    """Write the plan's document to `path`, in place (`_write_text`)."""
    _write_text(path, dump_json(plan_to_doc(plan)))


def read_symbol_lines(path: str, field: FieldSpec) -> list[tuple[int, ...]]:
    """Symbol rows from a text file: one sequence per line, decimal encodings."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = decimals(line)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: symbol {exc}") from exc
        for x in row:
            if not 0 <= x < field.q:
                raise UsageError(f"{path}:{lineno}: symbol {x} is not an element of GF({field.q})")
        rows.append(row)
    return rows


def write_symbol_lines(path: str, rows: Sequence[Sequence[int]]) -> None:
    """Write symbol rows to `path`, one line each, in place (`_write_text`)."""
    _write_text(path, "".join(" ".join(map(str, row)) + "\n" for row in rows))
