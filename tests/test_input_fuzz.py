"""Seeded fuzz of the exit-code contract on scenario configs and symbol files.

Every single mutation of the README merge and split configs goes through
`plan`: it must exit 0, 1 or 2, print exactly one `error:` line when it
does not exit 0, and write a plan that `verify` passes when it does.
Mutations are an integer moved by +-1 or +-2 or set to 0 or to a seeded
random value, any value replaced by each of a set of values of other JSON
types, a key dropped, and a list entry dropped or duplicated.

Seeded token and line mutations of message and codeword files go through
`encode` (exit 0 or 1) and `convert` (exit 0, 1 or 3) over GF(8), GF(16),
GF(257) and GF(65536).  A run that fails writes no output file and prints
one `error:` line; one that succeeds writes codewords of the plan's codes.
"""

import json
import random

import pytest

from mdsconv import plandoc
from mdsconv.cli import main
from mdsconv.convert import ConvertParams, build_merge, build_split, merge_params
from mdsconv.field import GF
from mdsconv.grs import encode, is_codeword

SEED = 20261019
SYMBOL_MUTANTS = 120  # per plan and verb

README_MERGE = {"regime": "merge", "q": 8, "initial": [[5, 3], [5, 3]], "r_F": 2}
README_SPLIT = {"regime": "split", "q": 16, "initial": [[10, 7]], "final": [[6, 4], [5, 3]]}

README_MERGE_PARAMS = merge_params([(5, 3), (5, 3)], 2)
PLANS = {
    "merge over GF(8)": lambda: build_merge(README_MERGE_PARAMS, GF(8)),
    "merge over GF(257)": lambda: build_merge(README_MERGE_PARAMS, GF(257)),
    "merge over GF(65536)": lambda: build_merge(README_MERGE_PARAMS, GF(1 << 16)),
    "split over GF(16)": lambda: build_split(ConvertParams(((10, 7),), ((6, 4), (5, 3))), GF(16)),
}

# Replacement values: a site gets each one whose type differs from its own.
ODD_VALUES = ("8", 8.5, None, True, [], {}, "merge", [[5, 3]])


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.err


def _one_error_line(err):
    return sum(line.startswith("error:") for line in err.splitlines()) == 1


def _config_mutations(node, rng, path=()):
    """Every single mutation of a config, as (path, op, value)."""
    if isinstance(node, int) and not isinstance(node, bool):
        yield from ((path, "set", node + d) for d in (-2, -1, 1, 2, -node))
        yield path, "set", rng.randrange(3, 1 << 16)
    yield from ((path, "set", v) for v in ODD_VALUES if type(v) is not type(node))
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,), "drop", None
        if isinstance(node, list):
            yield path + (key,), "duplicate", None
        yield from _config_mutations(child, rng, path + (key,))


def _mutant(doc, path, op, value):
    """A copy of `doc` with one mutation applied."""
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    parent, key = out, path[-1]
    for step in path[:-1]:
        parent = parent[step]
    if op == "set":
        parent[key] = value
    elif op == "duplicate":
        parent.insert(key, parent[key])
    else:
        del parent[key]
    return out


def test_config_mutants_keep_the_plan_exit_codes(tmp_path, capsys):
    rng = random.Random(SEED)
    cfg, out = tmp_path / "config.json", tmp_path / "plan.json"
    exits = {0: 0, 1: 0, 2: 0}
    for base in (README_MERGE, README_SPLIT):
        for mutation in _config_mutations(base, rng):
            doc = _mutant(base, *mutation)
            cfg.write_text(json.dumps(doc))
            out.unlink(missing_ok=True)
            code, err = _run(capsys, "plan", "--config", cfg, "--out", out)
            case = (base["regime"], mutation)
            assert code in exits, case
            exits[code] += 1
            if code:
                assert _one_error_line(err) and not out.exists(), (case, err)
            else:
                assert _run(capsys, "verify", "--plan", out) == (0, ""), case
    # The mutants must reach every exit code, or they test less than they claim.
    assert all(exits.values()), exits


def _mutate_symbols(text, q, rng):
    """`text` (lines of decimal symbols) with one token or line mutation."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    t = rng.randrange(len(tokens))
    op = rng.randrange(10)
    if op == 0:
        tokens[t] = str((int(tokens[t]) + rng.randrange(1, q)) % q)
    elif op == 1:
        tokens[t] = rng.choice((str(q), str(q + 1), "-1", "+1", "0x1", "1.0", "1e2", "a", "١",
                                "01", "9" * 4400))
    elif op == 2:
        del tokens[t]
    elif op == 3:
        tokens.insert(t, tokens[t])
    elif op == 4:
        tokens[t] += rng.choice((",", ";", "\x00", " "))
    if op <= 4:
        lines[i] = " ".join(tokens)
    elif op == 5:
        del lines[i]
    elif op == 6:
        lines.insert(i, lines[i])
    elif op == 7:
        lines.insert(i, rng.choice(("", " ", "\t", "#")))
    elif op == 8 and len(lines) > 1:
        lines[i:i + 2] = [" ".join(lines[i:i + 2])]
    else:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + rng.choice(("\n", ""))


@pytest.mark.parametrize("name", PLANS)
def test_symbol_file_mutants_keep_the_encode_and_convert_exit_codes(name, tmp_path, capsys):
    plan = PLANS[name]()
    rng = random.Random(f"{SEED} {name}")
    q = plan.field.q
    plan_path, infile, out = tmp_path / "plan.json", tmp_path / "in.txt", tmp_path / "out.txt"
    plandoc.save_plan(plan, str(plan_path))
    messages = [[rng.randrange(q) for _ in range(spec.k)] for spec in plan.initial_specs]
    codewords = [encode(spec, m).symbols for spec, m in zip(plan.initial_specs, messages)]
    verbs = (
        ("encode", messages, {0, 1}, plan.initial_specs),
        ("convert", codewords, {0, 1, 3}, plan.final_specs),
    )
    for verb, rows, allowed, specs in verbs:
        text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
        seen = set()
        for _ in range(SYMBOL_MUTANTS):
            mutant = _mutate_symbols(text, q, rng)
            infile.write_text(mutant, encoding="utf-8")
            out.unlink(missing_ok=True)
            code, err = _run(capsys, verb, "--plan", plan_path, "--in", infile, "--out", out)
            case = (name, verb, mutant[:200])
            assert code in allowed, case
            seen.add(code)
            if code:
                assert _one_error_line(err) and not out.exists(), (case, err)
            else:
                written = plandoc.read_symbol_lines(str(out), plan.field)
                assert len(written) == len(specs) and all(map(is_codeword, specs, written)), case
        # Each verb must both accept and refuse some mutants.
        assert seen == allowed, (name, verb, seen)
