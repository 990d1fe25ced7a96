"""Seeded fuzz of the one-verdict contract on mutated plan documents.

`convert` runs a merge or split plan exactly when `verify` passes it, and
what it writes then lies in the declared final codes.  Every mutant of
three built plans (the README merge, a mixed merge and the README split)
goes through both verbs in-process: each must exit 0, 1, 2 or 3, with no
exception leaving `cli.main`, and a mutant of a `written` list must exit 1
from both.  Mutations are an integer field moved by
+-1 or +-2, one matrix-dump entry bumped, and one list entry dropped or
duplicated.

A sweep applies every single mutation to the three bases and to the 2x2
general fixture, and loads each mutant: it must load, to a plan that
round-trips and re-serialises to the mutant itself (so the loader drops
no entry), or be refused with a `UsageError`, a `CertificateError` when
its stored certificate is not the one its codes and grid give.  The
sweep also runs `verify` on each mutant and pins how many exit 0, 1 and
2 per base, and a digest of all it prints to standard output per base.

Each integer of each base, written as the float or bool equal to it, is
refused with a `UsageError`.

A seeded sample of two-edit mutants goes through both verbs too, loaded
or not, as a defect that one verdict hides may need two coordinated
edits: a single mutant that loads, with any one mutation applied to it.

Seeded edits of the `field` block and of each code's q, p and m in the
four committed plan documents (unsupported orders, disagreeing p or m,
values of other JSON types) make `verify`, `encode` and `convert` each
exit 1 with one `error:` line and no output file.
"""

import hashlib
import json
import random
from pathlib import Path

from mdsconv import plandoc
from mdsconv.cli import main
from mdsconv.convert import ConvertParams, build_merge, build_split, merge_params
from mdsconv.errors import CertificateError, MdsconvError, UsageError
from mdsconv.field import GF, PRIME_LIMIT
from mdsconv.grs import encode, is_codeword

SEED = 20261018
MUTANTS = 1000
DOUBLE_MUTANTS = 300  # per base

BASES = {
    "readme merge": lambda: build_merge(merge_params([(5, 3), (5, 3)], 2), GF(8)),
    "mixed merge": lambda: build_merge(merge_params([(5, 3), (4, 2)], 2), GF(8)),
    "readme split": lambda: build_split(ConvertParams(((10, 7),), ((6, 4), (5, 3))), GF(16)),
}
GENERAL_FIXTURE = Path(__file__).parent / "fixtures" / "two_by_two_plan.json"


def _sites(node, path=()):
    """(path, kind) for every spot of a JSON document that a mutation can hit."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _sites(value, path + (key,))
    elif isinstance(node, list):
        yield path, "list"
        for idx, value in enumerate(node):
            yield from _sites(value, path + (idx,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path, "int"
    elif isinstance(node, str) and isinstance(path[-1], int) and path[-1] > 0:
        yield path, "dump row"  # a matrix dump's entries; row 0 is its "rows cols q" header


def _mutations(doc):
    """Every mutation of `doc` as (path, op, arg)."""
    for path, kind in _sites(doc):
        node = _at(doc, path)
        if kind == "int":
            yield from ((path, "add", d) for d in (-2, -1, 1, 2))
        elif kind == "list":
            for idx in range(len(node)):
                yield from ((path, op, idx) for op in ("drop", "duplicate"))
        else:
            yield from ((path, "bump", t) for t in range(len(node.split())))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutant(doc, path, op, arg):
    """A copy of `doc` with one mutation applied."""
    out = json.loads(json.dumps(doc))
    parent, key = _at(out, path[:-1]), path[-1]
    if op == "add":
        parent[key] += arg
    elif op == "bump":
        tokens = parent[key].split()
        tokens[arg] = str((int(tokens[arg]) + 1) % out["field"]["q"])
        parent[key] = " ".join(tokens)
    elif op == "duplicate":
        parent[key].insert(arg, parent[key][arg])
    else:
        del parent[key][arg]
    return out


def _loads(doc):
    try:
        plandoc.plan_from_doc(doc)
    except MdsconvError:
        return False
    return True


def _run(capsys, *argv):
    return _run_out(capsys, *argv)[0]


def _run_out(capsys, *argv):
    """`cli.main`'s exit code and standard output for `argv`."""
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_convert_runs_exactly_what_verify_passes(tmp_path, capsys):
    rng = random.Random(SEED)
    bases = {name: build() for name, build in BASES.items()}
    docs = {name: plandoc.plan_to_doc(plan) for name, plan in bases.items()}
    pool = [(name, m) for name, doc in docs.items() for m in _mutations(doc)]
    plan_path, cws, finals = tmp_path / "plan.json", tmp_path / "c.txt", tmp_path / "f.txt"
    verdicts = {True: 0, False: 0}
    written_refused = 0
    for name, mutation in rng.sample(pool, min(MUTANTS, len(pool))):
        doc = _mutant(docs[name], *mutation)
        # A `written` mutant does not load; both verbs must refuse it.
        written = mutation[0][0] == "written"
        try:
            plan = plandoc.plan_from_doc(doc)
        except MdsconvError:
            if not written:
                continue
            plan = bases[name]
        case = f"{name} {mutation}"
        plan_path.write_text(json.dumps(doc))
        plandoc.write_symbol_lines(str(cws), [
            encode(spec, [rng.randrange(plan.field.q) for _ in range(spec.k)]).symbols
            for spec in plan.initial_specs
        ])
        finals.unlink(missing_ok=True)
        verified = _run(capsys, "verify", "--plan", plan_path)
        converted = _run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
        assert {verified, converted} <= {0, 1, 2, 3}, case
        assert (verified == 0) == (converted == 0), (case, verified, converted)
        if written:
            assert (verified, converted) == (1, 1) and not finals.exists(), case
            written_refused += 1
        if converted == 0:
            rows = plandoc.read_symbol_lines(str(finals), plan.field)
            assert len(rows) == len(plan.final_specs), case
            assert all(map(is_codeword, plan.final_specs, rows)), case
        verdicts[converted == 0] += 1
    # The sample must reach both verdicts and a `written` mutant, or it tests nothing.
    assert verdicts[True] and verdicts[False] and written_refused, (verdicts, written_refused)


# `verify` exits (0, 1, 2) over every single mutant of each base.
VERIFY_EXITS = {
    "readme merge": (0, 473, 85),
    "mixed merge": (16, 438, 54),
    "readme split": (15, 593, 78),
    "2x2 general": (57, 577, 0),
}
# sha256 of `verify`'s standard output over every single mutant of each
# base, in mutation order: its PASS and FAIL lines, which are the
# program's own text.  Standard error is left out, as it may quote Python's
# own exception text, which differs between versions.
VERIFY_STDOUT = {
    "readme merge": "a70d55007d230b89972e43e4e22d7bc1c6907cdfc0fec489a9907259aef5b35e",
    "mixed merge": "74c76a8f64e100ded3a163e9cc2fcd5aaba2e2bf1914987a286981968ce8b245",
    "readme split": "83d48c7abbc3964aa03f135513a30ddaf71cf7a3d1d690cdddeb220f04e179f7",
    "2x2 general": "26452bbf4bd928e157f3991c391bff1b29db978f182fa69394ea78d187c096ba",
}


def test_every_single_mutant_loads_or_is_refused_as_usage(tmp_path, capsys):
    docs = {name: plandoc.plan_to_doc(build()) for name, build in BASES.items()}
    docs["2x2 general"] = json.loads(GENERAL_FIXTURE.read_text())
    outcomes = {"loaded": 0, "refused": 0, "certificate": 0}
    exits, stdout = {}, {}
    plan_path = tmp_path / "plan.json"
    for name, doc in docs.items():
        counts = [0, 0, 0]
        digest = hashlib.sha256()
        for mutation in _mutations(doc):
            mutant = _mutant(doc, *mutation)
            plan_path.write_text(json.dumps(mutant))
            code, out = _run_out(capsys, "verify", "--plan", plan_path)
            counts[code] += 1
            digest.update(out.encode())
            try:
                plan = plandoc.plan_from_doc(mutant)
            except CertificateError:
                outcomes["certificate"] += 1
                continue
            except UsageError:
                outcomes["refused"] += 1
                continue
            assert plandoc.plan_to_doc(plan) == mutant, (name, mutation)
            assert plandoc.plan_from_doc(plandoc.plan_to_doc(plan)) == plan, (name, mutation)
            outcomes["loaded"] += 1
        exits[name], stdout[name] = tuple(counts), digest.hexdigest()
    assert exits == VERIFY_EXITS, exits
    assert stdout == VERIFY_STDOUT, stdout
    assert outcomes == {"loaded": 123, "refused": 2081, "certificate": 182}, outcomes


def test_an_integer_written_as_a_float_or_bool_is_refused():
    """Every integer of a plan document is read as a JSON integer, so the
    loader's `==` with the document its plan writes is JSON equality: each
    integer of each base, written as the float or the bool equal to it, is
    a UsageError, never a plan that would write another document."""
    docs = [plandoc.plan_to_doc(build()) for build in BASES.values()]
    docs.append(json.loads(GENERAL_FIXTURE.read_text()))
    refused = 0
    for doc in docs:
        for path, kind in _sites(doc):
            value = _at(doc, path)
            if kind != "int":
                continue
            for other in (float(value), *([bool(value)] if value in (0, 1) else [])):
                mutant = json.loads(json.dumps(doc))
                _at(mutant, path[:-1])[path[-1]] = other
                try:
                    plandoc.plan_from_doc(mutant)
                except CertificateError as exc:
                    raise AssertionError((path, other, exc)) from exc
                except UsageError:
                    refused += 1
                    continue
                raise AssertionError(f"{path} = {other!r} loaded")
    assert refused == 495, refused


def test_two_edit_mutants_keep_the_exit_code_contract(tmp_path, capsys):
    """Each two-edit mutant exits 0, 1, 2 or 3 from both verbs; `convert`
    exits 0 exactly when `verify` does, unless it finds a corrupt input
    (exit 3); and every final it writes is a codeword of its final code."""
    rng = random.Random(SEED + 2)
    plan_path, cws, finals = tmp_path / "plan.json", tmp_path / "c.txt", tmp_path / "f.txt"
    verdicts = {True: 0, False: 0}
    for name, build in BASES.items():
        base = build()
        doc = plandoc.plan_to_doc(base)
        singles = [m for m in _mutations(doc) if _loads(_mutant(doc, *m))]
        for _ in range(DOUBLE_MUTANTS):
            first = rng.choice(singles)
            once = _mutant(doc, *first)
            second = rng.choice(list(_mutations(once)))
            twice = _mutant(once, *second)
            case = f"{name} {first} {second}"
            try:
                plan = plandoc.plan_from_doc(twice)
            except MdsconvError:
                plan = base
            plan_path.write_text(json.dumps(twice))
            plandoc.write_symbol_lines(str(cws), [
                encode(spec, [rng.randrange(plan.field.q) for _ in range(spec.k)]).symbols
                for spec in plan.initial_specs
            ])
            finals.unlink(missing_ok=True)
            verified = _run(capsys, "verify", "--plan", plan_path)
            converted = _run(capsys, "convert", "--plan", plan_path, "--in", cws, "--out", finals)
            assert {verified, converted} <= {0, 1, 2, 3}, case
            if converted != 3:
                assert (verified == 0) == (converted == 0), (case, verified, converted)
            if converted == 0:
                rows = plandoc.read_symbol_lines(str(finals), plan.field)
                assert len(rows) == len(plan.final_specs), case
                assert all(map(is_codeword, plan.final_specs, rows)), case
            verdicts[converted == 0] += 1
    assert verdicts[True] and verdicts[False], verdicts


# The four committed plan documents.
COMMITTED = sorted(GENERAL_FIXTURE.parent.glob("*.json")) + [
    Path(__file__).parents[1] / "perfbench" / "two_by_two_plan.json"
]


def _header_edits(header, rng):
    """Seeded (key, value) edits of one `field` block or code, each naming
    an unsupported field or one that disagrees with the header's q: a
    composite q, q of 1, 0 or -1, q at or above PRIME_LIMIT or 2^17, a p or
    an m that is not q's, and a bool, float or string in place of an int."""
    yield "q", rng.randrange(3, 1 << 20, 2) * rng.randrange(2, 1 << 10)
    yield "q", rng.choice((3, 5, 7, 11)) ** rng.randrange(2, 8)
    yield from (("q", q) for q in (1, 0, -1, 1 << 17))
    yield "q", PRIME_LIMIT + rng.randrange(1 << 64)
    yield "p", rng.choice([p for p in (2, 3, 5, 257, 1000003) if p != header["p"]])
    yield "p", rng.randrange(-3, 2)
    yield "m", header["m"] + rng.randrange(1, 20)
    yield from (("m", m) for m in (0, 10**8))
    for key in ("q", "p", "m"):
        yield from ((key, odd) for odd in (rng.choice((True, False)), float(header[key]), str(header[key])))


def _headers(node, path=()):
    """The path of every `field` block and code in a plan document: each
    object with a "q" key."""
    if isinstance(node, dict) and "q" in node:
        yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _headers(child, path + (key,))


def test_field_header_mutants_exit_1_from_every_verb(tmp_path, capsys):
    """Every seeded edit of the `field` block, or of a code's q, p or m, in
    each committed plan document makes `verify`, `encode` and `convert`
    exit 1 with one `error:` line, no traceback and no output file."""
    rng = random.Random(SEED + 3)
    plan_path, messages, cws, out = (tmp_path / name for name in ("plan.json", "m.txt", "c.txt", "out.txt"))
    edits = 0
    for path in COMMITTED:
        doc = json.loads(path.read_text())
        plan = plandoc.plan_from_doc(doc)
        plandoc.write_symbol_lines(str(messages), [(0,) * spec.k for spec in plan.initial_specs])
        plandoc.write_symbol_lines(str(cws), [(0,) * spec.n for spec in plan.initial_specs])
        for at in _headers(doc):
            for key, value in _header_edits(_at(doc, at), rng):
                mutant = json.loads(json.dumps(doc))
                _at(mutant, at)[key] = value
                plan_path.write_text(json.dumps(mutant))
                for argv in (("verify",), ("encode", "--in", messages, "--out", out),
                             ("convert", "--in", cws, "--out", out)):
                    code = main([str(a) for a in (argv[0], "--plan", plan_path, *argv[1:])])
                    err = capsys.readouterr().err
                    case = (path.name, at, key, value, argv[0], err)
                    assert code == 1 and not out.exists(), case
                    assert [line.startswith("error:") for line in err.splitlines()] == [True], case
                edits += 1
    assert edits == (4 + 4 + 3 + 3) * 21, edits  # headers per document, edits per header
